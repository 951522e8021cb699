//! Seeded input generation. The program under test only ever sees what
//! this module generates from `--seed`: grid contents, corpus order and the
//! request mix. The generator is the benchmark's own (not `ps_support`'s
//! `Lcg`), so a later change to the repo's RNG cannot change the inputs.

use ps_core::{Inputs, OwnedArray, StorageMode};

/// SplitMix64: tiny, well-distributed, and stable forever.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A real in `[0, 25)` with four decimal digits, so a value costs the
    /// same bytes on the wire whatever the seed.
    pub fn grid_value(&mut self) -> f64 {
        self.below(250_000) as f64 / 10_000.0
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Side of the square relaxation grid for interior size `m`.
pub fn side(m: i64) -> usize {
    (m + 2) as usize
}

/// A seeded `(m+2)²` grid in row-major order.
pub fn grid(rng: &mut Rng, m: i64) -> Vec<f64> {
    (0..side(m) * side(m)).map(|_| rng.grid_value()).collect()
}

pub fn relaxation_inputs(grid: &[f64], m: i64, max_k: i64) -> Inputs {
    Inputs::new()
        .set_int("M", m)
        .set_int("maxK", max_k)
        .set_array(
            "InitialA",
            OwnedArray::real(vec![(0, m + 1), (0, m + 1)], grid.to_vec()),
        )
}

fn rod(rng: &mut Rng, lo: i64, hi: i64) -> OwnedArray {
    let data = (lo..=hi).map(|_| rng.grid_value()).collect();
    OwnedArray::real(vec![(lo, hi)], data)
}

/// A synthetic module of `n` chained pointwise groups feeding one serial
/// recurrence: compile cost grows with `n`, run cost stays tiny.
pub fn chain_source(n: usize) -> String {
    let mut vars = String::new();
    let mut eqs = String::new();
    for g in 0..n {
        vars.push_str(&format!("    a{g}: array [1 .. n] of real;\n"));
        if g == 0 {
            eqs.push_str("    a0[I] = xs[I] * 2.0 + 1.0;\n");
        } else {
            eqs.push_str(&format!("    a{g}[I] = a{}[I] * 0.5 + 1.0;\n", g - 1));
        }
    }
    format!(
        "Chain: module (xs: array[I] of real; n: int): [y: real];\n\
         type I = 1 .. n; K = 2 .. n;\n\
         var\n{vars}    r: array [1 .. n] of real;\n\
         define\n{eqs}    r[1] = a{last}[1];\n    r[K] = r[K-1] + a{last}[K];\n    y = r[n];\n\
         end Chain;\n",
        last = n - 1
    )
}

/// One program of the `compile_cold` corpus with its tiny first-run inputs.
pub struct CorpusEntry {
    pub name: String,
    pub source: String,
    pub hyperplane: Option<StorageMode>,
    pub inputs: Inputs,
}

/// The twelve-program corpus in seeded order: the eight builtins,
/// `relaxation_v2` and `table_2d` again with the hyperplane transform, and
/// generated 16- and 64-group chains.
pub fn corpus(seed: u64) -> Vec<CorpusEntry> {
    let mut rng = Rng::new(seed ^ 0xC0_1D);
    let mut entries = Vec::new();
    for &(name, source) in ps_core::programs::ALL {
        entries.push(CorpusEntry {
            name: name.to_string(),
            source: source.to_string(),
            hyperplane: None,
            inputs: tiny_inputs(name, &mut rng),
        });
    }
    for (name, mode) in [
        ("relaxation_v2", StorageMode::Windowed),
        ("table_2d", StorageMode::Full),
    ] {
        let source = ps_core::programs::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .expect("builtin exists")
            .1;
        entries.push(CorpusEntry {
            name: format!("{name}.hyperplane"),
            source: source.to_string(),
            hyperplane: Some(mode),
            inputs: tiny_inputs(name, &mut rng),
        });
    }
    for groups in [16, 64] {
        entries.push(CorpusEntry {
            name: format!("chain{groups}"),
            source: chain_source(groups),
            hyperplane: None,
            inputs: Inputs::new()
                .set_int("n", 8)
                .set_array("xs", rod(&mut rng, 1, 8)),
        });
    }
    rng.shuffle(&mut entries);
    entries
}

/// Tiny-size inputs for builtin `name` (a first run, not a workload).
fn tiny_inputs(name: &str, rng: &mut Rng) -> Inputs {
    match name {
        "relaxation_v1" | "relaxation_v2" => relaxation_inputs(&grid(rng, 4), 4, 3),
        "heat_1d" => Inputs::new()
            .set_int("M", 6)
            .set_int("maxK", 4)
            .set_real("alpha", 0.25)
            .set_array("u0", rod(rng, 0, 7)),
        "wave_1d" => Inputs::new()
            .set_int("M", 6)
            .set_int("maxK", 5)
            .set_real("c2", 0.25)
            .set_array("u0", rod(rng, 0, 7)),
        "recurrence_1d" => Inputs::new()
            .set_int("n", 8)
            .set_real("rate", rng.grid_value() / 100.0),
        "pipeline" => Inputs::new()
            .set_int("n", 8)
            .set_array("xs", rod(rng, 1, 8)),
        "gather" => {
            let mut perm: Vec<i64> = (1..=8).collect();
            rng.shuffle(&mut perm);
            Inputs::new()
                .set_int("n", 8)
                .set_array("xs", rod(rng, 1, 8))
                .set_array("perm", OwnedArray::int(vec![(1, 8)], perm))
        }
        "table_2d" => Inputs::new().set_int("n", 6),
        other => panic!("no tiny inputs for builtin `{other}`"),
    }
}

/// One request of the `serve_tcp` mix, with the values its reference
/// kernel needs. One scalar of each — `rate`, `alpha`, the first element of
/// `xs` — is the request's **varied scalar**: it differs on every request
/// sent (see [`Request::vary`]), so no reply can be answered from memory.
#[derive(Clone, Debug)]
pub enum Request {
    Recurrence {
        n: i64,
        rate: f64,
    },
    Heat {
        m: i64,
        max_k: i64,
        alpha: f64,
        u0: Vec<f64>,
    },
    Pipeline {
        xs: Vec<f64>,
    },
}

/// Twelve seeded decimal digits for a varied scalar, first digit 1 or 2.
/// Over the ≈ 10⁶ requests of a run almost none repeat.
pub fn draw_digits(rng: &mut Rng) -> u64 {
    100_000_000_000 + rng.below(150_000_000_000) as u64
}

impl Request {
    /// What precedes the digits in the varied scalar's text: rates fall in
    /// [1 %, 2.5 %) (1.025²⁵⁵ stays far from overflow), `alpha` in
    /// [0.1, 0.25) (stable below 0.5), the first `xs` in [1.1, 1.25).
    fn lead(&self) -> &'static str {
        match self {
            Request::Recurrence { .. } => "0.0",
            Request::Heat { .. } => "0.",
            Request::Pipeline { .. } => "1.",
        }
    }

    /// The varied scalar as it goes on the wire: always fifteen or so
    /// bytes, whatever the digits.
    pub fn varied_text(&self, digits: u64) -> String {
        format!("{}{digits}", self.lead())
    }

    /// This request with its varied scalar set from `digits`: the value
    /// the server parses from [`Request::varied_text`].
    pub fn vary(&self, digits: u64) -> Request {
        let v: f64 = self
            .varied_text(digits)
            .parse()
            .expect("lead and digits form a decimal");
        let mut r = self.clone();
        match &mut r {
            Request::Recurrence { rate, .. } => *rate = v,
            Request::Heat { alpha, .. } => *alpha = v,
            Request::Pipeline { xs } => xs[0] = v,
        }
        r
    }

    /// The request line with `varied` in place of the varied scalar.
    fn line_with(&self, varied: &str) -> String {
        let join = |v: &[f64]| -> String {
            v.iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        match self {
            Request::Recurrence { n, .. } => format!("solve recurrence_1d rate={varied} n={n}"),
            Request::Heat { m, max_k, u0, .. } => format!(
                "solve heat_1d M={m} maxK={max_k} alpha={varied} u0=@0:{}:{}",
                m + 1,
                join(u0)
            ),
            Request::Pipeline { xs } => format!(
                "solve pipeline n={} xs=@1:{}:{varied},{}",
                xs.len(),
                xs.len(),
                join(&xs[1..])
            ),
        }
    }

    /// The request as one line of the `ps-serve` wire protocol.
    pub fn line(&self) -> String {
        let varied = match self {
            Request::Recurrence { rate, .. } => rate,
            Request::Heat { alpha, .. } => alpha,
            Request::Pipeline { xs } => &xs[0],
        };
        self.line_with(&format!("{varied:?}"))
    }

    /// The line split around the varied scalar: `head + varied_text + tail`
    /// is the line of [`Request::vary`] with the same digits.
    pub fn line_around_varied(&self) -> (String, String) {
        let line = self.line_with("\0");
        let (head, tail) = line.split_once('\0').expect("the marker was just written");
        (head.to_string(), tail.to_string())
    }

    /// The same request as in-process inputs.
    pub fn inputs(&self) -> Inputs {
        match self {
            Request::Recurrence { n, rate } => {
                Inputs::new().set_real("rate", *rate).set_int("n", *n)
            }
            Request::Heat {
                m,
                max_k,
                alpha,
                u0,
            } => Inputs::new()
                .set_int("M", *m)
                .set_int("maxK", *max_k)
                .set_real("alpha", *alpha)
                .set_array("u0", OwnedArray::real(vec![(0, m + 1)], u0.clone())),
            Request::Pipeline { xs } => Inputs::new().set_int("n", xs.len() as i64).set_array(
                "xs",
                OwnedArray::real(vec![(1, xs.len() as i64)], xs.clone()),
            ),
        }
    }

    /// Builtin program name (the registry key on the server).
    pub fn program(&self) -> &'static str {
        match self {
            Request::Recurrence { .. } => "recurrence_1d",
            Request::Heat { .. } => "heat_1d",
            Request::Pipeline { .. } => "pipeline",
        }
    }
}

/// Distinct requests per kind in the pool.
const PER_KIND: usize = 4;

/// The request pool and the order its entries are sent in. The pool holds
/// `PER_KIND` requests of each of four kinds (recurrence n = 64 and 256,
/// heat, pipeline) with seeded arrays; every request sent is a pool entry
/// with freshly drawn digits for its varied scalar. `order` is a seeded
/// shuffle of a cycle in which every entry appears equally often, so the
/// mix — and with it the work per slice — is the same for every seed.
pub struct Mix {
    pub pool: Vec<Request>,
    pub order: Vec<usize>,
}

pub fn request_mix(seed: u64) -> Mix {
    let mut rng = Rng::new(seed ^ 0x5E_27E);
    let mut pool = Vec::new();
    for n in [64, 256] {
        for _ in 0..PER_KIND {
            pool.push(Request::Recurrence { n, rate: 0.0 }.vary(draw_digits(&mut rng)));
        }
    }
    for _ in 0..PER_KIND {
        let u0 = (0..64).map(|_| rng.grid_value()).collect();
        let heat = Request::Heat {
            m: 62,
            max_k: 8,
            alpha: 0.0,
            u0,
        };
        pool.push(heat.vary(draw_digits(&mut rng)));
    }
    for _ in 0..PER_KIND {
        let xs = (0..256).map(|_| rng.grid_value()).collect();
        pool.push(Request::Pipeline { xs }.vary(draw_digits(&mut rng)));
    }
    let mut order: Vec<usize> = (0..pool.len() * 16).map(|i| i % pool.len()).collect();
    rng.shuffle(&mut order);
    Mix { pool, order }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = grid(&mut Rng::new(7), 4);
        assert_eq!(a, grid(&mut Rng::new(7), 4));
        assert_ne!(a, grid(&mut Rng::new(8), 4));
        let names = |seed| -> Vec<String> { corpus(seed).into_iter().map(|e| e.name).collect() };
        assert_eq!(names(1987), names(1987));
        assert_eq!(names(1987).len(), 12);
        let (m1, m2) = (request_mix(3), request_mix(3));
        assert_eq!(m1.order, m2.order);
        assert_eq!(m1.pool[0].line(), m2.pool[0].line());
        assert_ne!(m1.order, request_mix(4).order);
    }

    #[test]
    fn every_seed_sends_the_same_mix() {
        for seed in [1, 2, 1987] {
            let mix = request_mix(seed);
            let mut counts = vec![0usize; mix.pool.len()];
            for &i in &mix.order {
                counts[i] += 1;
            }
            assert!(counts.iter().all(|&c| c == 16), "{counts:?}");
        }
    }

    #[test]
    fn request_lines_parse_on_the_server_side() {
        for r in request_mix(1987).pool {
            let cmd = ps_core::proto::parse_request_limited(&r.line(), 64 * 1024);
            assert!(cmd.is_ok(), "{}: {cmd:?}", r.line());
        }
    }

    #[test]
    fn a_varied_request_is_the_line_around_its_digits() {
        let mut rng = Rng::new(3);
        for base in request_mix(1987).pool {
            let (head, tail) = base.line_around_varied();
            let (d1, d2) = (draw_digits(&mut rng), draw_digits(&mut rng));
            assert_ne!(d1, d2);
            let on_the_wire = format!("{head}{}{tail}", base.varied_text(d1));
            // Same bytes whatever the digits, and the server parses the
            // very request `vary` builds.
            assert_eq!(
                on_the_wire.len(),
                format!("{head}{}{tail}", base.varied_text(d2)).len()
            );
            let parse = |line: &str| match ps_core::proto::parse_request_limited(line, 64 * 1024) {
                Ok(ps_core::proto::WireCommand::Solve { inputs, .. }) => format!("{inputs:?}"),
                other => panic!("{line:.60}: {other:?}"),
            };
            assert_eq!(parse(&on_the_wire), parse(&base.vary(d1).line()));
            assert_ne!(parse(&on_the_wire), parse(&base.vary(d2).line()));
        }
    }

    #[test]
    fn chain_sources_pass_the_front_end() {
        for n in [1, 16, 64] {
            ps_lang::frontend(&chain_source(n)).expect("chain program checks");
        }
    }
}
