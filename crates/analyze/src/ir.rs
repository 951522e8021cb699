//! The tape instruction set, and the verifier's view of a program built on
//! it.
//!
//! [`Insn`] is the one definition of what a compiled PS tape holds: the
//! runtime lowers equations to it and executes it, and this crate verifies
//! it. Every pass that reads a tape without running it — the runtime's
//! structural validation, its strip planner, and the analyzer's forward
//! pass — learns what an instruction names from one accessor,
//! [`Insn::operands`]: the registers read and written, the jump and the
//! compare it branches on, the memory access and the scalar slot. Only the
//! walkers that give instructions their meaning match on variants.
//!
//! `ps-analyze` sits *below* the runtime: it knows nothing about buffers
//! beyond their indices, specialization keys or thread pools. A producer
//! (the runtime's glue, or a test building programs by hand) describes its
//! program as an [`AProgram`]: per equation the tape itself and its address
//! table, borrowed, plus which registers hold what on entry, and the
//! scheduled loop tree with its counter bindings. Everything symbolic is an
//! [`Affine`] form over the module's integer parameters, so one analysis
//! run covers *all admissible parameter vectors* at once.
//!
//! Nothing is copied per instruction or per address: an [`EqTape`] borrows
//! the producer's instructions and address dimensions ([`ADim`] is the
//! runtime's address form too), and labels, names and declared bounds are
//! the producer's own.

use ps_lang::ast::BinOp;
use ps_lang::Affine;
use ps_support::SmallVec;

/// Index of an array in [`AProgram::arrays`].
pub type ArrayIx = usize;
/// Index of an equation in [`AProgram::eqs`].
pub type EqIx = usize;

/// Register file and typed buffer kind. `char` and enumeration values are
/// carried as integers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    F,
    I,
    B,
}

/// A typed register reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reg {
    F(u16),
    I(u16),
    B(u16),
}

impl Reg {
    /// The register's index in its file.
    pub fn index(self) -> u16 {
        match self {
            Reg::F(r) | Reg::I(r) | Reg::B(r) => r,
        }
    }
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

/// Comparison operator with `partial_cmp` semantics: an unordered pair
/// (a NaN operand) compares false under everything except `<>`.
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
    pub fn from_binop(op: BinOp) -> CmpOp {
        match op {
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            other => panic!("{other:?} is not a comparison"),
        }
    }

    #[inline]
    pub fn eval<T: PartialOrd>(self, a: T, b: T) -> bool {
        match a.partial_cmp(&b) {
            None => matches!(self, CmpOp::Ne),
            Some(ord) => match self {
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => !ord.is_eq(),
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
            },
        }
    }

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

/// One tape instruction. Operands are register indices into the executing
/// equation's register files; `addr` indices refer to the equation's
/// address table, `buf` indices to the program-wide typed buffer tables.
/// All control flow is forward-only: a jump target always points *past*
/// the jump (it may equal the tape length, meaning the exit), so tape order
/// is a topological order of the control-flow graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Insn {
    CopyF {
        src: u16,
        dst: u16,
    },
    CopyI {
        src: u16,
        dst: u16,
    },
    CopyB {
        src: u16,
        dst: u16,
    },
    /// Typed read of a live scalar slot (locals/results written earlier in
    /// the schedule; parameters are constant-folded instead).
    ReadScalar {
        slot: u32,
        dst: Reg,
    },
    LoadF {
        buf: u16,
        addr: u16,
        dst: u16,
    },
    LoadI {
        buf: u16,
        addr: u16,
        dst: u16,
    },
    LoadB {
        buf: u16,
        addr: u16,
        dst: u16,
    },
    AddF {
        a: u16,
        b: u16,
        dst: u16,
    },
    SubF {
        a: u16,
        b: u16,
        dst: u16,
    },
    MulF {
        a: u16,
        b: u16,
        dst: u16,
    },
    DivF {
        a: u16,
        b: u16,
        dst: u16,
    },
    MinF {
        a: u16,
        b: u16,
        dst: u16,
    },
    MaxF {
        a: u16,
        b: u16,
        dst: u16,
    },
    AddI {
        a: u16,
        b: u16,
        dst: u16,
    },
    SubI {
        a: u16,
        b: u16,
        dst: u16,
    },
    MulI {
        a: u16,
        b: u16,
        dst: u16,
    },
    DivI {
        a: u16,
        b: u16,
        dst: u16,
    },
    ModI {
        a: u16,
        b: u16,
        dst: u16,
    },
    MinI {
        a: u16,
        b: u16,
        dst: u16,
    },
    MaxI {
        a: u16,
        b: u16,
        dst: u16,
    },
    NegF {
        a: u16,
        dst: u16,
    },
    NegI {
        a: u16,
        dst: u16,
    },
    AbsF {
        a: u16,
        dst: u16,
    },
    AbsI {
        a: u16,
        dst: u16,
    },
    NotB {
        a: u16,
        dst: u16,
    },
    SqrtF {
        a: u16,
        dst: u16,
    },
    ExpF {
        a: u16,
        dst: u16,
    },
    LnF {
        a: u16,
        dst: u16,
    },
    SinF {
        a: u16,
        dst: u16,
    },
    CosF {
        a: u16,
        dst: u16,
    },
    /// `int → real` widening (checker casts and the `real` builtin).
    CastIF {
        a: u16,
        dst: u16,
    },
    TruncFI {
        a: u16,
        dst: u16,
    },
    RoundFI {
        a: u16,
        dst: u16,
    },
    CmpF {
        op: CmpOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    CmpI {
        op: CmpOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    CmpB {
        op: CmpOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    Jump {
        target: u32,
    },
    JumpIfNot {
        cond: u16,
        target: u32,
    },
    JumpIf {
        cond: u16,
        target: u32,
    },
    /// Fused compare-and-branch (branch-lowered `if` guards): jump when
    /// the comparison is *false*.
    JumpCmpFNot {
        op: CmpOp,
        a: u16,
        b: u16,
        target: u32,
    },
    JumpCmpINot {
        op: CmpOp,
        a: u16,
        b: u16,
        target: u32,
    },
    /// Fused compare-and-branch: jump when the comparison is *true*.
    JumpCmpF {
        op: CmpOp,
        a: u16,
        b: u16,
        target: u32,
    },
    JumpCmpI {
        op: CmpOp,
        a: u16,
        b: u16,
        target: u32,
    },
}

/// Where control goes after an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Flow {
    /// On to the next instruction.
    #[default]
    Next,
    /// Always to `target`.
    Jump(u32),
    /// To `target` or on, as the instruction's operands decide. `cmp` is
    /// the fused comparison `uses[0] op uses[1]` and whether the jump is
    /// taken when it holds (`false`: when it does not); a branch on a
    /// boolean register has none.
    Branch {
        target: u32,
        cmp: Option<(CmpOp, bool)>,
    },
}

/// A load's typed buffer and entry in the equation's address table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mem {
    pub kind: Kind,
    pub buf: u16,
    pub addr: u16,
}

/// Everything an instruction names besides its operator, as
/// [`Insn::operands`] reports it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Operands {
    /// Registers read, in operand order (no instruction reads more than
    /// two; a load's address registers are its address table entry's).
    pub uses: [Option<Reg>; 2],
    /// The register written: every instruction but a jump writes one.
    pub def: Option<Reg>,
    pub flow: Flow,
    pub mem: Option<Mem>,
    /// The scalar slot a `ReadScalar` reads.
    pub slot: Option<u32>,
}

impl Insn {
    /// What this instruction reads, writes, jumps to and accesses: the one
    /// place each variant's operands are listed for the passes that read
    /// tapes without running them.
    pub fn operands(&self) -> Operands {
        use Reg::{B, F, I};
        let op = |uses, def| Operands {
            uses,
            def: Some(def),
            ..Operands::default()
        };
        let un = |a, dst| op([Some(a), None], dst);
        let bin = |a, b, dst| op([Some(a), Some(b)], dst);
        let load = |kind, buf, addr, dst| Operands {
            mem: Some(Mem { kind, buf, addr }),
            ..op([None, None], dst)
        };
        let branch = |uses, target, cmp| Operands {
            uses,
            flow: Flow::Branch { target, cmp },
            ..Operands::default()
        };
        let fused = |a, b, target, cmp, jump_on_true| {
            branch([Some(a), Some(b)], target, Some((cmp, jump_on_true)))
        };
        match *self {
            Insn::CopyF { src, dst } => un(F(src), F(dst)),
            Insn::CopyI { src, dst } => un(I(src), I(dst)),
            Insn::CopyB { src, dst } => un(B(src), B(dst)),
            Insn::ReadScalar { slot, dst } => Operands {
                slot: Some(slot),
                ..op([None, None], dst)
            },
            Insn::LoadF { buf, addr, dst } => load(Kind::F, buf, addr, F(dst)),
            Insn::LoadI { buf, addr, dst } => load(Kind::I, buf, addr, I(dst)),
            Insn::LoadB { buf, addr, dst } => load(Kind::B, buf, addr, B(dst)),
            Insn::AddF { a, b, dst }
            | Insn::SubF { a, b, dst }
            | Insn::MulF { a, b, dst }
            | Insn::DivF { a, b, dst }
            | Insn::MinF { a, b, dst }
            | Insn::MaxF { a, b, dst } => bin(F(a), F(b), F(dst)),
            Insn::AddI { a, b, dst }
            | Insn::SubI { a, b, dst }
            | Insn::MulI { a, b, dst }
            | Insn::DivI { a, b, dst }
            | Insn::ModI { a, b, dst }
            | Insn::MinI { a, b, dst }
            | Insn::MaxI { a, b, dst } => bin(I(a), I(b), I(dst)),
            Insn::NegF { a, dst }
            | Insn::AbsF { a, dst }
            | Insn::SqrtF { a, dst }
            | Insn::ExpF { a, dst }
            | Insn::LnF { a, dst }
            | Insn::SinF { a, dst }
            | Insn::CosF { a, dst } => un(F(a), F(dst)),
            Insn::NegI { a, dst } | Insn::AbsI { a, dst } => un(I(a), I(dst)),
            Insn::NotB { a, dst } => un(B(a), B(dst)),
            Insn::CastIF { a, dst } => un(I(a), F(dst)),
            Insn::TruncFI { a, dst } | Insn::RoundFI { a, dst } => un(F(a), I(dst)),
            Insn::CmpF { a, b, dst, .. } => bin(F(a), F(b), B(dst)),
            Insn::CmpI { a, b, dst, .. } => bin(I(a), I(b), B(dst)),
            Insn::CmpB { a, b, dst, .. } => bin(B(a), B(b), B(dst)),
            Insn::Jump { target } => Operands {
                flow: Flow::Jump(target),
                ..Operands::default()
            },
            Insn::JumpIfNot { cond, target } | Insn::JumpIf { cond, target } => {
                branch([Some(B(cond)), None], target, None)
            }
            Insn::JumpCmpFNot { op, a, b, target } => fused(F(a), F(b), target, op, false),
            Insn::JumpCmpINot { op, a, b, target } => fused(I(a), I(b), target, op, false),
            Insn::JumpCmpF { op, a, b, target } => fused(F(a), F(b), target, op, true),
            Insn::JumpCmpI { op, a, b, target } => fused(I(a), I(b), target, op, true),
        }
    }
}

/// One dimension of an array address: `base + Σ coeff·i-reg`, in the
/// array's *logical* index space. Zero coefficients must be dropped.
///
/// This is also the runtime's symbolic address form: loop counters,
/// preloaded parameter registers and dynamic-subscript results are all
/// plain registers, so one form covers every subscript shape, and it holds
/// no parameter *values*, so it survives unchanged across runs. A subscript
/// has one to three terms, held inline.
#[derive(Clone, Debug, Default)]
pub struct ADim {
    pub base: i64,
    pub terms: SmallVec<(u16, i64)>,
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

/// One equation described for analysis.
#[derive(Clone, Debug)]
pub struct EqTape<'a> {
    /// Display label (`eq.3`) used in diagnostics.
    pub label: &'a str,
    pub n_f: u16,
    pub n_i: u16,
    pub n_b: u16,
    /// f-registers defined before entry (constants, preloaded reals).
    pub entry_f: SmallVec<u16>,
    /// b-registers defined before entry (constants).
    pub entry_b: SmallVec<u16>,
    /// Entry classification of every i-register (length `n_i`).
    pub ivals: Vec<IVal>,
    pub insns: &'a [Insn],
    /// Per entry of the tape's address table, the array it addresses and
    /// its subscripts.
    pub addrs: &'a [(ArrayIx, &'a [ADim])],
    /// Address-table entry of the array store executed at tape exit
    /// (`None`: scalar output).
    pub store: Option<u16>,
    /// Register whose value feeds the output (scalar slot or array store).
    pub result: Reg,
}

/// Declared logical bounds of one array dimension.
#[derive(Clone, Debug)]
pub struct DimInfo<'a> {
    pub lo: &'a Affine,
    pub hi: &'a Affine,
}

/// One array the program reads or writes.
#[derive(Clone, Debug)]
pub struct ArrayInfo<'a> {
    pub name: &'a str,
    pub dims: Vec<DimInfo<'a>>,
    /// Some dimension is physically windowed (fewer planes allocated than
    /// the logical width). Windowed arrays keep their runtime tags even
    /// when proven in-bounds: the tags also catch window evictions, which
    /// this analysis does not model.
    pub windowed: bool,
    /// Producer policy: eligible for checked-writes elision when fully
    /// proven (typically: not windowed).
    pub elidable: bool,
    /// Module input — never written by equations; fully defined at entry.
    pub input: bool,
}

/// A node of the scheduled region tree.
#[derive(Clone, Debug)]
pub enum Node<'a> {
    Eq(EqIx),
    Loop {
        /// `true` for DOALL (parallel) loops, `false` for sequential DO.
        parallel: bool,
        /// Counter display name (`K`, `I'`, ...).
        name: &'a str,
        lo: &'a Affine,
        hi: &'a Affine,
        /// Which i-register each equation in the body binds this counter to.
        bindings: Vec<(EqIx, u16)>,
        body: Vec<Node<'a>>,
    },
}

/// A whole program in analyzer form.
#[derive(Clone, Debug)]
pub struct AProgram<'a> {
    pub arrays: Vec<ArrayInfo<'a>>,
    pub eqs: Vec<EqTape<'a>>,
    pub schedule: Vec<Node<'a>>,
}
