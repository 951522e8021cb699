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
//! equations, loops, and — for the windowed hyperplane mode — the *drain*
//! step that "unrotates" the transformed array back into the module result
//! while the wavefront passes (Section 4's preferred implementation choice).

use ps_lang::bounds::Affine;
use ps_lang::{DataId, EqId, IvId, SubrangeId};

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

/// A loop over a subrange, containing a nested flowchart.
#[derive(Clone, Debug)]
pub struct LoopDescriptor {
    pub kind: LoopKind,
    /// The subrange iterated over (bounds live in the `HirModule`).
    pub subrange: SubrangeId,
    /// Display name for rendering (`K`, `I`, `J`).
    pub name: String,
    /// For each equation scheduled inside this loop, the index variable of
    /// that equation bound to the loop counter. The runtime uses this to
    /// build the index environment; the paper's compiler does the same
    /// implicitly by reusing the subrange name as the C loop variable.
    pub bindings: Vec<(EqId, IvId)>,
    /// Loop body.
    pub body: Vec<Descriptor>,
}

/// The drain ("unrotate") step for the windowed hyperplane transform: while
/// the outer wavefront loop runs, copy finished elements of the transformed
/// array back into the result array.
#[derive(Clone, Debug)]
pub struct DrainSpec {
    /// Destination (the original result array), rank `n - 1`.
    pub dst: DataId,
    /// Source: the transformed (windowed) array, rank `n`, time-major.
    pub src: DataId,
    /// Inner loop subranges over the `n - 1` non-time transformed dims.
    pub inner: Vec<SubrangeId>,
    /// Inverse coordinate transform: for each *original* dimension, the
    /// affine row `(coeffs over [t, inner...], params-const)` giving the
    /// original index from transformed loop indices.
    pub original: Vec<(Vec<i64>, Affine)>,
    /// Original dimension that must sit at its upper bound for the element
    /// to be final (the `K = maxK` plane of Relaxation).
    pub drain_dim: usize,
    /// Declared bounds of each original dimension, for the in-domain guard.
    pub original_bounds: Vec<(Affine, Affine)>,
    /// The iv of the enclosing time loop in `src`'s defining equation —
    /// used only for rendering.
    pub time_name: String,
}

/// One flowchart entry.
#[derive(Clone, Debug)]
pub enum Descriptor {
    /// Emit code for this equation at the current loop nesting.
    Equation(EqId),
    /// Generate a `for` loop over a subrange.
    Loop(LoopDescriptor),
    /// Windowed-hyperplane drain step (see [`DrainSpec`]).
    Drain(Box<DrainSpec>),
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
        let mut out = Vec::new();
        fn go(items: &[Descriptor], out: &mut Vec<EqId>) {
            for d in items {
                match d {
                    Descriptor::Equation(e) => out.push(*e),
                    Descriptor::Loop(l) => go(&l.body, out),
                    Descriptor::Drain(_) => {}
                }
            }
        }
        go(&self.items, &mut out);
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
    /// Top-level items are `;`-separated.
    pub fn compact(&self, eq_label: &impl Fn(EqId) -> String) -> String {
        Flowchart::compact_items(&self.items, eq_label)
    }

    /// [`Flowchart::compact`] for a run of items.
    pub fn compact_items(items: &[Descriptor], eq_label: &impl Fn(EqId) -> String) -> String {
        items
            .iter()
            .map(|d| match d {
                Descriptor::Equation(e) => eq_label(*e),
                Descriptor::Loop(l) => format!(
                    "{} {} ({})",
                    l.kind.keyword(),
                    l.name,
                    Flowchart::compact_items(&l.body, eq_label)
                ),
                Descriptor::Drain(s) => format!("DRAIN {}", s.time_name),
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

    fn sample() -> Flowchart {
        // DOALL I ( DOALL J ( eq.1 ) ); DO K ( eq.3 )
        let inner = LoopDescriptor {
            kind: LoopKind::Doall,
            subrange: SubrangeId(1),
            name: "J".into(),
            bindings: vec![],
            body: vec![Descriptor::Equation(EqId(0))],
        };
        let outer = LoopDescriptor {
            kind: LoopKind::Doall,
            subrange: SubrangeId(0),
            name: "I".into(),
            bindings: vec![],
            body: vec![Descriptor::Loop(inner)],
        };
        let k = LoopDescriptor {
            kind: LoopKind::Do,
            subrange: SubrangeId(2),
            name: "K".into(),
            bindings: vec![],
            body: vec![Descriptor::Equation(EqId(2))],
        };
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
