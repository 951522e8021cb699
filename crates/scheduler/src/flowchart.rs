//! Flowchart descriptors (paper Figure 4).
//!
//! > "A descriptor may indicate either a dependency graph node or a subrange
//! > type. [...] The presence of the latter means that a for loop over the
//! > indicated subrange is to be generated. [...] Thus the flowchart is a
//! > recursive structure which reflects the nesting structure of the
//! > generated program."
//!
//! In practice only *equation* nodes survive into flowcharts (a component
//! consisting of one data node schedules to null), so [`Descriptor`] carries
//! equations and loops. A loop runs over [`LoopBounds`]: the subrange it was
//! scheduled over, narrowed where a transform needs more than a box by
//! `max`/`min` forms over parameters and the counters of enclosing loops.
//! The windowed hyperplane mode's *drain*, which copies each finished
//! diagonal of the transformed array back into the module result while the
//! wavefront passes (Section 4's preferred implementation choice), is such a
//! nest: an ordinary equation under loops whose bounds pin it to the plane.

use ps_lang::bounds::Affine;
use ps_lang::types::Subrange;
use ps_lang::{EqId, IvId};
use ps_support::{FxHashMap, SmallVec, Symbol};

/// Whether a loop is iterative (`DO`) or concurrent (`DOALL`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopKind {
    /// Iterative: recursive (`I - constant`) edges were deleted when this
    /// dimension was scheduled, so iterations must run in order.
    Do,
    /// Concurrent: no recursive edges in this dimension.
    Doall,
}

impl LoopKind {
    pub fn keyword(&self) -> &'static str {
        match self {
            LoopKind::Do => "DO",
            LoopKind::Doall => "DOALL",
        }
    }
}

/// The range a loop counter runs over: `lo = max(lo, every lower form of
/// narrow)` and `hi = min(hi, every upper form of narrow)`.
///
/// `lo..hi` is the box: the subrange the loop was scheduled over, over
/// parameters only, and all a scheduled loop has. Verifiers take it as the
/// counter's range, which holds whatever narrows it.
#[derive(Clone, Debug)]
pub struct LoopBounds {
    pub lo: Affine,
    pub hi: Affine,
    /// Forms that narrow the box (empty unless a transform built the loop).
    pub narrow: Vec<BoundForm>,
}

/// One narrowing form `rest + Σ c·counter(depth)`: `counters` holds
/// `(depth, c)` pairs naming enclosing loops by their nesting depth in the
/// flowchart, 0 for a top-level loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundForm {
    /// Whether the form bounds the counter from above.
    pub upper: bool,
    /// The parameter and constant part.
    pub rest: Affine,
    pub counters: SmallVec<(u16, i64)>,
}

impl BoundForm {
    /// `(lo, hi)` narrowed by this form, its `rest` having evaluated to
    /// `rest` and `counters[d]` being the counter of the enclosing loop at
    /// depth `d`.
    pub fn clamp(&self, rest: i64, counters: &[i64], (lo, hi): (i64, i64)) -> (i64, i64) {
        let at = |&(d, c): &(u16, i64)| c * counters[d as usize];
        let v = rest + self.counters.iter().map(at).sum::<i64>();
        if self.upper {
            (lo, hi.min(v))
        } else {
            (lo.max(v), hi)
        }
    }
}

impl LoopBounds {
    /// The bounds of a loop over `s`: its box, nothing narrowing it.
    pub fn of(s: &Subrange) -> LoopBounds {
        LoopBounds {
            lo: s.lo.clone(),
            hi: s.hi.clone(),
            narrow: Vec::new(),
        }
    }

    /// `(lo, hi)` under `params`, `counters[d]` being the counter of the
    /// enclosing loop at depth `d`. `Err` is a form naming a parameter
    /// `params` does not bind.
    pub fn eval(
        &self,
        params: &FxHashMap<Symbol, i64>,
        counters: &[i64],
    ) -> Result<(i64, i64), &Affine> {
        let mut range = (eval(&self.lo, params)?, eval(&self.hi, params)?);
        for f in &self.narrow {
            range = f.clamp(eval(&f.rest, params)?, counters, range);
        }
        Ok(range)
    }
}

fn eval<'a>(a: &'a Affine, params: &FxHashMap<Symbol, i64>) -> Result<i64, &'a Affine> {
    a.eval(params).ok_or(a)
}

/// A loop, containing a nested flowchart.
#[derive(Clone, Debug)]
pub struct LoopDescriptor {
    pub kind: LoopKind,
    pub bounds: LoopBounds,
    /// Display name for rendering (`K`, `I`, `J`).
    pub name: String,
    /// Display only: on the outermost loop of a windowed hyperplane drain,
    /// the name of the time loop whose plane it copies, so that the nest
    /// renders as Figure 7's `DRAIN K'`. Nothing that lowers, verifies,
    /// strips, runs or emits code reads it.
    pub drain_of: Option<Symbol>,
    /// For each equation scheduled inside this loop, the index variable of
    /// that equation bound to the loop counter. The runtime uses this to
    /// build the index environment; the paper's compiler does the same
    /// implicitly by reusing the subrange name as the C loop variable.
    pub bindings: Vec<(EqId, IvId)>,
    /// Loop body.
    pub body: Vec<Descriptor>,
}

/// One flowchart entry.
#[derive(Clone, Debug)]
pub enum Descriptor {
    /// Emit code for this equation at the current loop nesting.
    Equation(EqId),
    /// Generate a `for` loop.
    Loop(LoopDescriptor),
}

/// A scheduled flowchart: an ordered list of descriptors.
#[derive(Clone, Debug, Default)]
pub struct Flowchart {
    pub items: Vec<Descriptor>,
}

impl Flowchart {
    pub fn new() -> Flowchart {
        Flowchart::default()
    }

    pub fn push(&mut self, d: Descriptor) {
        self.items.push(d);
    }

    /// Concatenate another flowchart ("concatenate the result returned by
    /// Schedule-Component onto the flowchart").
    pub fn concat(&mut self, other: Flowchart) {
        self.items.extend(other.items);
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All equations in execution order.
    pub fn equations(&self) -> Vec<EqId> {
        Flowchart::equations_of(&self.items)
    }

    /// [`Flowchart::equations`] for a run of items: every equation in
    /// them, loop bodies included, in execution order.
    pub fn equations_of(items: &[Descriptor]) -> Vec<EqId> {
        let mut out = Vec::new();
        fn go(items: &[Descriptor], out: &mut Vec<EqId>) {
            for d in items {
                match d {
                    Descriptor::Equation(e) => out.push(*e),
                    Descriptor::Loop(l) => go(&l.body, out),
                }
            }
        }
        go(items, &mut out);
        out
    }

    /// Count loops by kind: `(do_loops, doall_loops)`.
    pub fn loop_counts(&self) -> (usize, usize) {
        let mut do_n = 0;
        let mut doall_n = 0;
        fn go(items: &[Descriptor], do_n: &mut usize, doall_n: &mut usize) {
            for d in items {
                if let Descriptor::Loop(l) = d {
                    match l.kind {
                        LoopKind::Do => *do_n += 1,
                        LoopKind::Doall => *doall_n += 1,
                    }
                    go(&l.body, do_n, doall_n);
                }
            }
        }
        go(&self.items, &mut do_n, &mut doall_n);
        (do_n, doall_n)
    }

    /// Compact one-line rendering: `DO K (DOALL I (DOALL J (eq.3)))`.
    /// Top-level items are `;`-separated, and a drain nest reads `DRAIN K'`.
    pub fn compact(&self, eq_label: &impl Fn(EqId) -> String) -> String {
        Flowchart::compact_items(&self.items, eq_label)
    }

    /// [`Flowchart::compact`] for a run of items.
    pub fn compact_items(items: &[Descriptor], eq_label: &impl Fn(EqId) -> String) -> String {
        items
            .iter()
            .map(|d| match d {
                Descriptor::Equation(e) => eq_label(*e),
                Descriptor::Loop(l) => match l.drain_of {
                    Some(time) => format!("DRAIN {time}"),
                    None => format!(
                        "{} {} ({})",
                        l.kind.keyword(),
                        l.name,
                        Flowchart::compact_items(&l.body, eq_label)
                    ),
                },
            })
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// The maximum loop-nesting depth.
    pub fn depth(&self) -> usize {
        fn go(items: &[Descriptor]) -> usize {
            items
                .iter()
                .map(|d| match d {
                    Descriptor::Loop(l) => 1 + go(&l.body),
                    _ => 0,
                })
                .max()
                .unwrap_or(0)
        }
        go(&self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(kind: LoopKind, name: &str, body: Vec<Descriptor>) -> LoopDescriptor {
        LoopDescriptor {
            kind,
            bounds: LoopBounds {
                lo: Affine::constant(0),
                hi: Affine::param(Symbol::intern("n")),
                narrow: Vec::new(),
            },
            name: name.into(),
            drain_of: None,
            bindings: vec![],
            body,
        }
    }

    fn sample() -> Flowchart {
        // DOALL I ( DOALL J ( eq.1 ) ); DO K ( eq.3 )
        let inner = lp(LoopKind::Doall, "J", vec![Descriptor::Equation(EqId(0))]);
        let outer = lp(LoopKind::Doall, "I", vec![Descriptor::Loop(inner)]);
        let k = lp(LoopKind::Do, "K", vec![Descriptor::Equation(EqId(2))]);
        Flowchart {
            items: vec![Descriptor::Loop(outer), Descriptor::Loop(k)],
        }
    }

    #[test]
    fn compact_rendering() {
        let fc = sample();
        let label = |e: EqId| format!("eq.{}", e.0 + 1);
        assert_eq!(fc.compact(&label), "DOALL I (DOALL J (eq.1)); DO K (eq.3)");
    }

    #[test]
    fn a_drain_nest_renders_as_its_plane() {
        let mut fc = sample();
        let Descriptor::Loop(k) = &mut fc.items[1] else {
            unreachable!()
        };
        let mut drain = lp(LoopKind::Doall, "I", vec![Descriptor::Equation(EqId(1))]);
        drain.drain_of = Some(Symbol::intern("K"));
        k.body.push(Descriptor::Loop(drain));
        let label = |e: EqId| format!("eq.{}", e.0 + 1);
        assert_eq!(
            fc.compact(&label),
            "DOALL I (DOALL J (eq.1)); DO K (eq.3; DRAIN K)"
        );
        assert_eq!(fc.equations(), vec![EqId(0), EqId(2), EqId(1)]);
    }

    #[test]
    fn narrowing_forms_clamp_the_box() {
        // lo = max(0, K - 4), hi = min(n, K - 2*I) at K = 9, I = 3, n = 5.
        let mut b = lp(LoopKind::Doall, "J", vec![]).bounds;
        b.narrow.push(BoundForm {
            upper: false,
            rest: Affine::constant(-4),
            counters: [(0, 1)].into(),
        });
        b.narrow.push(BoundForm {
            upper: true,
            rest: Affine::constant(0),
            counters: [(0, 1), (1, -2)].into(),
        });
        let mut params = FxHashMap::default();
        params.insert(Symbol::intern("n"), 5);
        assert_eq!(b.eval(&params, &[9, 3]), Ok((5, 3)));
        assert_eq!(b.eval(&params, &[6, 0]), Ok((2, 5)));
        let unbound = FxHashMap::default();
        assert_eq!(b.eval(&unbound, &[9, 3]), Err(&b.hi));
    }

    #[test]
    fn loop_counts_and_depth() {
        let fc = sample();
        assert_eq!(fc.loop_counts(), (1, 2));
        assert_eq!(fc.depth(), 2);
    }

    #[test]
    fn equations_in_order() {
        let fc = sample();
        assert_eq!(fc.equations(), vec![EqId(0), EqId(2)]);
    }

    #[test]
    fn concat_appends() {
        let mut a = sample();
        let b = Flowchart {
            items: vec![Descriptor::Equation(EqId(9))],
        };
        a.concat(b);
        assert_eq!(a.items.len(), 3);
    }
}
