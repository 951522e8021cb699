//! Analysis results: per-array verdicts, per-equation facts, diagnostics —
//! structured, and rendered as text only by [`Report::render`].

use crate::eq::StoreOutcome;
use ps_support::diag::{Diagnostic, Severity};
use std::fmt::{self, Write as _};

/// Safety verdict for an access, an array, or a region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Proven safe for every admissible parameter vector.
    Proven,
    /// Not decidable statically (dynamic subscripts, incomparable affine
    /// bounds) — the runtime's checked mode remains responsible.
    RuntimeChecks,
    /// Provably violated: surfaced as an error diagnostic.
    Rejected,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Proven => write!(f, "proven"),
            Verdict::RuntimeChecks => write!(f, "needs runtime checks"),
            Verdict::Rejected => write!(f, "REJECTED"),
        }
    }
}

/// Summary verdict for one array.
#[derive(Clone, Debug)]
pub struct ArrayReport {
    pub name: String,
    pub verdict: Verdict,
    /// All writes proven in-bounds, injective and cross-equation disjoint,
    /// all reads proven in-bounds, and producer policy allows elision —
    /// the runtime may skip this array's checked-writes tags.
    pub verified: bool,
    /// Equations storing into the array / load sites reading it.
    pub writes: usize,
    pub loads: usize,
    pub input: bool,
    pub windowed: bool,
    /// Label pairs of equations whose writes are not provably disjoint.
    pub overlaps: Vec<(String, String)>,
}

/// One scheduled loop, linked to the loop that encloses it.
#[derive(Clone, Debug)]
pub struct LoopRec {
    pub parent: Option<usize>,
    pub parallel: bool,
    pub name: String,
}

/// The loop nest around an equation — all loops and the innermost one's
/// index — displayed outermost first (`DO K · DOALL I`, or `top level`).
pub struct Region<'a>(pub &'a [LoopRec], pub Option<usize>);

impl fmt::Display for Region<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(ix) = self.1 else {
            return f.write_str("top level");
        };
        let l = &self.0[ix];
        if l.parent.is_some() {
            write!(f, "{} · ", Region(self.0, l.parent))?;
        }
        write!(f, "{} {}", if l.parallel { "DOALL" } else { "DO" }, l.name)
    }
}

/// What the analysis established about one equation occurrence.
#[derive(Clone, Debug)]
pub struct EqReport {
    pub label: String,
    /// Innermost enclosing loop, an index into [`Report::loops`].
    pub region: Option<usize>,
    /// The final array store (`None`: scalar result).
    pub store: Option<StoreOutcome>,
    pub loads: usize,
    pub loads_proven: usize,
}

/// The full result of one [`crate::analyze`] run: verdicts, counts and
/// diagnostics are computed by the analysis; the per-equation and
/// per-array lines are text only in [`Report::render`].
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub diags: Vec<Diagnostic>,
    /// Every scheduled loop, in schedule order.
    pub loops: Vec<LoopRec>,
    /// One entry per analyzed equation occurrence, in schedule order.
    pub eqs: Vec<EqReport>,
    /// One entry per [`crate::AProgram`] array, same order.
    pub arrays: Vec<ArrayReport>,
}

impl Report {
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Per-array elision mask, index-aligned with `AProgram::arrays`.
    pub fn verified_mask(&self) -> Vec<bool> {
        self.arrays.iter().map(|a| a.verified).collect()
    }

    /// Render the whole report (region lines, array verdicts, diagnostics)
    /// without needing a source map — analysis diagnostics are spanless.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.eqs {
            let region = Region(&self.loops, e.region);
            let _ = write!(out, "  {region}: {}", e.label);
            match &e.store {
                Some(s) => {
                    let dims: Vec<String> = s.dims.iter().map(|iv| iv.render()).collect();
                    let disj = if s.overlap.is_some() {
                        "OVERLAPPING"
                    } else if s.injective {
                        "injective in all counters"
                    } else if s.doall_injective {
                        "DOALL-disjoint"
                    } else {
                        "disjointness unproven"
                    };
                    let array = &self.arrays[s.array].name;
                    let _ = write!(
                        out,
                        " stores {array}[{}] — in-bounds {}, {disj}",
                        dims.join(", "),
                        s.in_bounds
                    );
                }
                None => out.push_str(" — scalar result"),
            }
            if e.loads > 0 {
                let _ = write!(out, "; loads {}/{} proven", e.loads_proven, e.loads);
            }
            out.push('\n');
        }
        for a in &self.arrays {
            let elide = if a.verified {
                " [checked-writes elided]"
            } else {
                ""
            };
            let _ = write!(
                out,
                "  array {}: {}{elide} — {} write site(s), {} load site(s)",
                a.name, a.verdict, a.writes, a.loads
            );
            if a.input {
                out.push_str(", input");
            }
            if a.windowed {
                out.push_str(", windowed");
            }
            for (x, y) in &a.overlaps {
                let _ = write!(out, "; writes of {x} and {y} not provably disjoint");
            }
            out.push('\n');
        }
        for d in &self.diags {
            let _ = writeln!(out, "  {}[{}]: {}", d.severity, d.code, d.message);
            for (note, _) in &d.notes {
                let _ = writeln!(out, "    = note: {note}");
            }
        }
        out
    }
}
