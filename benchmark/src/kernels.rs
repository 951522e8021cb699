//! Hand-written native reference kernels. Each reproduces the evaluation
//! order of its PS program's defining expression, so its result matches the
//! compiled engine's **bit for bit**; `cargo test` diffs every kernel
//! against `ps_core::run_naive`, the scheduler-independent oracle. The
//! engine under test never produces its own reference.

use crate::gen::{side, Request};

fn on_boundary(i: usize, j: usize, m: usize) -> bool {
    i == 0 || j == 0 || i == m + 1 || j == m + 1
}

/// `relaxation_v1` (Figure 6): every read from plane K-1. Returns `newA`.
pub fn jacobi(initial: &[f64], m: i64, max_k: i64) -> Vec<f64> {
    let s = side(m);
    let m = m as usize;
    let mut prev = initial.to_vec();
    let mut next = initial.to_vec();
    for _ in 2..=max_k {
        for i in 0..s {
            for j in 0..s {
                let at = i * s + j;
                next[at] = if on_boundary(i, j, m) {
                    prev[at]
                } else {
                    (prev[at - 1] + prev[at - s] + prev[at + 1] + prev[at + s]) / 4.0
                };
            }
        }
        std::mem::swap(&mut prev, &mut next);
    }
    prev
}

/// `relaxation_v2` (Figure 7): west and north reads from the current
/// plane, so the sweep updates in place in row-major order.
pub fn gauss_seidel(initial: &[f64], m: i64, max_k: i64) -> Vec<f64> {
    let s = side(m);
    let m = m as usize;
    let mut a = initial.to_vec();
    for _ in 2..=max_k {
        for i in 1..=m {
            for j in 1..=m {
                let at = i * s + j;
                a[at] = (a[at - 1] + a[at - s] + a[at + 1] + a[at + s]) / 4.0;
            }
        }
    }
    a
}

/// `heat_1d`: explicit diffusion over a rod `0..=m+1`. Returns `uT`.
pub fn heat(u0: &[f64], m: i64, max_k: i64, alpha: f64) -> Vec<f64> {
    let last = (m + 1) as usize;
    let mut prev = u0.to_vec();
    let mut next = u0.to_vec();
    for _ in 2..=max_k {
        for x in 1..last {
            next[x] = prev[x] + alpha * (prev[x - 1] - 2.0 * prev[x] + prev[x + 1]);
        }
        next[0] = prev[0];
        next[last] = prev[last];
        std::mem::swap(&mut prev, &mut next);
    }
    prev
}

/// `recurrence_1d`: compound growth. Returns `final`.
pub fn compound(rate: f64, n: i64) -> f64 {
    let mut balance = 1.0;
    for _ in 2..=n {
        balance *= 1.0 + rate;
    }
    balance
}

/// `pipeline`: three fused pointwise stages. Returns `out`.
pub fn pipeline(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| (x * 2.0 + 1.0).abs().sqrt()).collect()
}

/// What a `serve_tcp` reply must carry.
#[derive(Debug, PartialEq)]
pub enum Expected {
    Scalar(&'static str, f64),
    Array(&'static str, i64, Vec<f64>),
}

/// The native answer to one request of the mix.
pub fn answer(request: &Request) -> Expected {
    match request {
        Request::Recurrence { n, rate } => Expected::Scalar("final", compound(*rate, *n)),
        Request::Heat {
            m,
            max_k,
            alpha,
            u0,
        } => Expected::Array("uT", 0, heat(u0, *m, *max_k, *alpha)),
        Request::Pipeline { xs } => Expected::Array("out", 1, pipeline(xs)),
    }
}

/// Bitwise equality of two real slices (`==` would accept `0.0 == -0.0`
/// and reject equal NaNs).
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{grid, relaxation_inputs, request_mix, Rng};
    use ps_core::{programs, proto, run_naive, Inputs};

    const SEEDS: [u64; 2] = [1987, 42];

    fn oracle(source: &str, inputs: &Inputs) -> ps_core::Outputs {
        let module = ps_core::frontend(source).expect("builtin checks");
        run_naive(&module, inputs).expect("oracle runs")
    }

    #[test]
    fn jacobi_and_gauss_seidel_match_the_oracle_bit_for_bit() {
        for seed in SEEDS {
            for (m, max_k) in [(4, 3), (30, 5), (7, 2)] {
                let g = grid(&mut Rng::new(seed), m);
                let inputs = relaxation_inputs(&g, m, max_k);
                let v1 = oracle(programs::RELAXATION_V1, &inputs);
                assert!(
                    same_bits(&jacobi(&g, m, max_k), v1.array("newA").as_real_slice()),
                    "jacobi seed {seed} m {m}"
                );
                let v2 = oracle(programs::RELAXATION_V2, &inputs);
                assert!(
                    same_bits(
                        &gauss_seidel(&g, m, max_k),
                        v2.array("newA").as_real_slice()
                    ),
                    "gauss-seidel seed {seed} m {m}"
                );
            }
        }
    }

    #[test]
    fn request_kernels_match_the_oracle_bit_for_bit() {
        for seed in SEEDS {
            for request in request_mix(seed).pool {
                // Shrink the problem (the oracle costs ~1 µs/cell) but keep
                // the seeded values.
                let small = match request {
                    Request::Recurrence { rate, .. } => Request::Recurrence { n: 30, rate },
                    Request::Heat { alpha, u0, .. } => Request::Heat {
                        m: 28,
                        max_k: 6,
                        alpha,
                        u0: u0[..30].to_vec(),
                    },
                    Request::Pipeline { xs } => Request::Pipeline {
                        xs: xs[..30].to_vec(),
                    },
                };
                let source = programs::ALL
                    .iter()
                    .find(|(n, _)| *n == small.program())
                    .unwrap()
                    .1;
                let Ok(proto::WireCommand::Solve { inputs, .. }) =
                    proto::parse_request(&small.line())
                else {
                    panic!("request line parses");
                };
                let out = oracle(source, &inputs);
                match answer(&small) {
                    Expected::Scalar(name, v) => {
                        assert_eq!(out.scalar(name).as_real().to_bits(), v.to_bits())
                    }
                    Expected::Array(name, lo, v) => {
                        assert_eq!(out.array(name).dims[0].0, lo);
                        assert!(same_bits(&v, out.array(name).as_real_slice()), "{name}");
                    }
                }
            }
        }
    }
}
