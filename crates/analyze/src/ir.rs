//! The analyzer's neutral input IR.
//!
//! `ps-analyze` sits *below* the runtime: it knows nothing about buffers,
//! specialization keys or thread pools. A producer (the compiled engine's
//! glue in `ps-runtime`, or a test building programs by hand) lowers its
//! tapes into an [`AProgram`]: per-equation step lists over typed register
//! files, affine array addresses over the integer registers, and the
//! scheduled loop tree with its counter bindings. Everything symbolic is an
//! [`Affine`] form over the module's integer parameters, so one analysis
//! run covers *all admissible parameter vectors* at once.

use ps_lang::Affine;

/// Index of an array in [`AProgram::arrays`].
pub type ArrayIx = usize;
/// Index of an equation in [`AProgram::eqs`].
pub type EqIx = usize;

/// Typed register reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reg {
    F(u16),
    I(u16),
    B(u16),
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reg::F(r) => write!(f, "f{r}"),
            Reg::I(r) => write!(f, "i{r}"),
            Reg::B(r) => write!(f, "b{r}"),
        }
    }
}

/// Comparison operator of a fused compare-and-branch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator holding exactly when `self` does not (over integers).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with operands swapped: `a op b` ⇔ `b op.swap() a`.
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// One dimension of an array address: `base + Σ coeff·i-reg`, in the
/// array's *logical* index space. Zero coefficients must be dropped.
#[derive(Clone, Debug, Default)]
pub struct ADim {
    pub base: i64,
    pub terms: Vec<(u16, i64)>,
}

/// The comparison fused into a conditional branch, when the producer can
/// expose one. Branches without it are analyzed conservatively (no interval
/// refinement on either edge).
#[derive(Clone, Copy, Debug)]
pub struct CmpInfo {
    pub op: CmpOp,
    pub a: Reg,
    pub b: Reg,
    /// `true`: the branch is taken when the comparison holds; `false`: the
    /// branch is taken when it does not (fall-through means it holds).
    pub jump_on_true: bool,
}

/// One analyzable step of an equation tape. All control flow is
/// forward-only: a `target` always points *past* the branch, so step order
/// is a topological order of the control-flow graph.
#[derive(Clone, Debug)]
pub enum Step {
    /// Straight-line instruction: reads `uses` (no tape instruction reads
    /// more than two registers), then defines `def`.
    Op {
        uses: [Option<Reg>; 2],
        def: Option<Reg>,
    },
    /// Integer register copy (preserves the source's interval).
    CopyI { src: u16, dst: u16 },
    /// Array element load at an affine address.
    Load {
        array: ArrayIx,
        addr: Vec<ADim>,
        def: Reg,
    },
    /// Unconditional forward jump (`target` may equal `steps.len()`,
    /// meaning the tape exit).
    Jump { target: usize },
    /// Conditional forward branch; `uses` are the condition registers.
    Branch {
        uses: [Option<Reg>; 2],
        target: usize,
        cmp: Option<CmpInfo>,
    },
}

/// Entry classification of an i-register.
#[derive(Clone, Debug)]
pub enum IVal {
    /// Bound by an enclosing scheduled loop before the tape runs.
    Counter,
    /// Known affine function of the module's integer parameters
    /// (constants, preloaded parameters, affine derived registers).
    Exact(Affine),
    /// Defined before the tape runs, value unknown (non-affine derived
    /// forms such as `min`/`max`/`abs` of parameters).
    Opaque,
    /// Defined — or not — by the tape itself.
    Temp,
}

/// The array store performed after the tape's last step.
#[derive(Clone, Debug)]
pub struct StoreSpec {
    pub array: ArrayIx,
    pub dims: Vec<ADim>,
}

/// One equation lowered for analysis.
#[derive(Clone, Debug)]
pub struct EqTape {
    /// Display label (`eq.3`) used in diagnostics.
    pub label: String,
    pub n_f: u16,
    pub n_i: u16,
    pub n_b: u16,
    /// f-registers defined before entry (constants, preloaded reals).
    pub entry_f: Vec<u16>,
    /// b-registers defined before entry (constants).
    pub entry_b: Vec<u16>,
    /// Entry classification of every i-register (length `n_i`).
    pub ivals: Vec<IVal>,
    pub steps: Vec<Step>,
    /// Array store executed at tape exit (`None`: scalar output).
    pub store: Option<StoreSpec>,
    /// Register whose value feeds the output (scalar slot or array store).
    pub result: Reg,
}

/// Declared logical bounds of one array dimension.
#[derive(Clone, Debug)]
pub struct DimInfo {
    pub lo: Affine,
    pub hi: Affine,
}

/// One array the program reads or writes.
#[derive(Clone, Debug)]
pub struct ArrayInfo {
    pub name: String,
    pub dims: Vec<DimInfo>,
    /// Some dimension is physically windowed (fewer planes allocated than
    /// the logical width). Windowed arrays keep their runtime tags even
    /// when proven in-bounds: the tags also catch window evictions, which
    /// this analysis does not model.
    pub windowed: bool,
    /// Producer policy: eligible for checked-writes elision when fully
    /// proven (typically: not windowed, not touched by a drain).
    pub elidable: bool,
    /// Module input — never written by equations; fully defined at entry.
    pub input: bool,
}

/// A node of the scheduled region tree.
#[derive(Clone, Debug)]
pub enum Node {
    Eq(EqIx),
    Loop {
        /// `true` for DOALL (parallel) loops, `false` for sequential DO.
        parallel: bool,
        /// Counter display name (`K`, `I'`, ...).
        name: String,
        lo: Affine,
        hi: Affine,
        /// Which i-register each equation in the body binds this counter to.
        bindings: Vec<(EqIx, u16)>,
        body: Vec<Node>,
    },
}

/// A whole program in analyzer form.
#[derive(Clone, Debug)]
pub struct AProgram {
    pub arrays: Vec<ArrayInfo>,
    pub eqs: Vec<EqTape>,
    pub schedule: Vec<Node>,
}
