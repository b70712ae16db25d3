//! Instructions and opcodes.

use super::{Block, ExtUnit, UnitKind, Value};
use crate::value::ConstValue;
use std::fmt;

/// The opcode of an LLHD instruction.
///
/// The set follows §2.5 of the paper: data flow operations familiar from
/// imperative compiler IRs, plus the hardware-specific instructions for
/// signals (`sig`, `prb`, `drv`), registers (`reg`), structure (`inst`,
/// `con`, `del`), time flow (`wait`, `halt`), and memory (`var`, `ld`, `st`,
/// `alloc`, `free`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Opcode {
    /// Materialize a constant value (integers, times, logic, aggregates).
    Const,
    /// An identity operation, giving a value a second name.
    Alias,
    /// Construct an array from element values.
    Array,
    /// Construct a struct from field values.
    Struct,

    /// Bitwise not.
    Not,
    /// Two's complement negation.
    Neg,

    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Signed multiplication.
    Smul,
    /// Signed division.
    Sdiv,
    /// Signed modulo.
    Smod,
    /// Signed remainder.
    Srem,
    /// Unsigned multiplication.
    Umul,
    /// Unsigned division.
    Udiv,
    /// Unsigned modulo.
    Umod,
    /// Unsigned remainder.
    Urem,

    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Neq,
    /// Signed less-than.
    Slt,
    /// Signed greater-than.
    Sgt,
    /// Signed less-than-or-equal.
    Sle,
    /// Signed greater-than-or-equal.
    Sge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned less-than-or-equal.
    Ule,
    /// Unsigned greater-than-or-equal.
    Uge,

    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,

    /// Zero extension to a wider integer (imm: target width).
    Zext,
    /// Sign extension to a wider integer (imm: target width).
    Sext,
    /// Truncation to a narrower integer (imm: target width).
    Trunc,

    /// Select one of several values based on a discriminator.
    Mux,
    /// A storage element (flip-flop or latch) with a list of triggers.
    Reg,

    /// Insert a single element or field into an aggregate (imm: index).
    InsField,
    /// Insert a slice of elements or bits (imms: offset, length).
    InsSlice,
    /// Extract a single element, field, or bit (imm: index). Also operates on
    /// pointers and signals, returning a pointer/signal to the projected
    /// location.
    ExtField,
    /// Extract a slice of elements or bits (imms: offset, length). Also
    /// operates on pointers and signals.
    ExtSlice,

    /// Create a new signal with an initial value.
    Sig,
    /// Probe the current value of a signal.
    Prb,
    /// Drive a new value onto a signal after a delay.
    Drv,
    /// Drive a new value onto a signal after a delay, gated by a condition.
    DrvCond,
    /// Connect two signals (netlist dialect).
    Con,
    /// A delayed version of a signal (netlist dialect).
    Del,

    /// Allocate a stack variable holding an initial value.
    Var,
    /// Load the value behind a pointer.
    Ld,
    /// Store a value behind a pointer.
    St,
    /// Allocate heap memory.
    Halloc,
    /// Free heap memory.
    Free,

    /// Call a function.
    Call,
    /// Return from a function without a value.
    Ret,
    /// Return a value from a function.
    RetValue,
    /// The SSA phi node.
    Phi,
    /// Unconditional branch.
    Br,
    /// Conditional branch.
    BrCond,
    /// Suspend the process until one of the observed signals changes.
    Wait,
    /// Suspend the process for a fixed amount of time, or until an observed
    /// signal changes.
    WaitTime,
    /// Suspend the process forever.
    Halt,

    /// Instantiate a process or entity within an entity.
    Inst,
}

impl Opcode {
    /// All opcodes, for exhaustive testing and bitcode tables.
    pub const ALL: [Opcode; 61] = [
        Opcode::Const,
        Opcode::Alias,
        Opcode::Array,
        Opcode::Struct,
        Opcode::Not,
        Opcode::Neg,
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Smul,
        Opcode::Sdiv,
        Opcode::Smod,
        Opcode::Srem,
        Opcode::Umul,
        Opcode::Udiv,
        Opcode::Umod,
        Opcode::Urem,
        Opcode::Eq,
        Opcode::Neq,
        Opcode::Slt,
        Opcode::Sgt,
        Opcode::Sle,
        Opcode::Sge,
        Opcode::Ult,
        Opcode::Ugt,
        Opcode::Ule,
        Opcode::Uge,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::Zext,
        Opcode::Sext,
        Opcode::Trunc,
        Opcode::Mux,
        Opcode::Reg,
        Opcode::InsField,
        Opcode::InsSlice,
        Opcode::ExtField,
        Opcode::ExtSlice,
        Opcode::Sig,
        Opcode::Prb,
        Opcode::Drv,
        Opcode::DrvCond,
        Opcode::Con,
        Opcode::Del,
        Opcode::Var,
        Opcode::Ld,
        Opcode::St,
        Opcode::Halloc,
        Opcode::Free,
        Opcode::Call,
        Opcode::Ret,
        Opcode::RetValue,
        Opcode::Phi,
        Opcode::Br,
        Opcode::BrCond,
        Opcode::Wait,
        Opcode::WaitTime,
        Opcode::Halt,
        Opcode::Inst,
    ];

    /// The mnemonic used in the human-readable assembly.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Const => "const",
            Opcode::Alias => "alias",
            Opcode::Array => "array",
            Opcode::Struct => "strct",
            Opcode::Not => "not",
            Opcode::Neg => "neg",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Smul => "smul",
            Opcode::Sdiv => "sdiv",
            Opcode::Smod => "smod",
            Opcode::Srem => "srem",
            Opcode::Umul => "umul",
            Opcode::Udiv => "udiv",
            Opcode::Umod => "umod",
            Opcode::Urem => "urem",
            Opcode::Eq => "eq",
            Opcode::Neq => "neq",
            Opcode::Slt => "slt",
            Opcode::Sgt => "sgt",
            Opcode::Sle => "sle",
            Opcode::Sge => "sge",
            Opcode::Ult => "ult",
            Opcode::Ugt => "ugt",
            Opcode::Ule => "ule",
            Opcode::Uge => "uge",
            Opcode::Shl => "shl",
            Opcode::Shr => "shr",
            Opcode::Zext => "zext",
            Opcode::Sext => "sext",
            Opcode::Trunc => "trunc",
            Opcode::Mux => "mux",
            Opcode::Reg => "reg",
            Opcode::InsField => "insf",
            Opcode::InsSlice => "inss",
            Opcode::ExtField => "extf",
            Opcode::ExtSlice => "exts",
            Opcode::Sig => "sig",
            Opcode::Prb => "prb",
            Opcode::Drv => "drv",
            Opcode::DrvCond => "drvc",
            Opcode::Con => "con",
            Opcode::Del => "del",
            Opcode::Var => "var",
            Opcode::Ld => "ld",
            Opcode::St => "st",
            Opcode::Halloc => "alloc",
            Opcode::Free => "free",
            Opcode::Call => "call",
            Opcode::Ret => "ret",
            Opcode::RetValue => "retv",
            Opcode::Phi => "phi",
            Opcode::Br => "br",
            Opcode::BrCond => "brc",
            Opcode::Wait => "wait",
            Opcode::WaitTime => "waitt",
            Opcode::Halt => "halt",
            Opcode::Inst => "inst",
        }
    }

    /// Look up an opcode by its assembly mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Opcode> {
        Opcode::ALL.iter().copied().find(|op| op.mnemonic() == s)
    }

    /// Whether this instruction terminates a basic block.
    pub fn is_terminator(self) -> bool {
        matches!(
            self,
            Opcode::Br
                | Opcode::BrCond
                | Opcode::Wait
                | Opcode::WaitTime
                | Opcode::Halt
                | Opcode::Ret
                | Opcode::RetValue
        )
    }

    /// Whether this instruction produces a result value.
    pub fn has_result(self) -> bool {
        !matches!(
            self,
            Opcode::Drv
                | Opcode::DrvCond
                | Opcode::Con
                | Opcode::St
                | Opcode::Free
                | Opcode::Reg
                | Opcode::Ret
                | Opcode::RetValue
                | Opcode::Br
                | Opcode::BrCond
                | Opcode::Wait
                | Opcode::WaitTime
                | Opcode::Halt
                | Opcode::Inst
        )
    }

    /// Whether this is a phi node.
    pub fn is_phi(self) -> bool {
        self == Opcode::Phi
    }

    /// Whether this is a commutative binary operation.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Smul
                | Opcode::Umul
                | Opcode::Eq
                | Opcode::Neq
        )
    }

    /// Whether this is a comparison returning `i1`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            Opcode::Eq
                | Opcode::Neq
                | Opcode::Slt
                | Opcode::Sgt
                | Opcode::Sle
                | Opcode::Sge
                | Opcode::Ult
                | Opcode::Ugt
                | Opcode::Ule
                | Opcode::Uge
        )
    }

    /// Whether this is a pure data flow operation: no side effects, no
    /// interaction with signals, memory, time, or control flow. Pure
    /// instructions are safe to duplicate, hoist, and eliminate when unused.
    pub fn is_pure(self) -> bool {
        matches!(
            self,
            Opcode::Const
                | Opcode::Alias
                | Opcode::Array
                | Opcode::Struct
                | Opcode::Not
                | Opcode::Neg
                | Opcode::Add
                | Opcode::Sub
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Smul
                | Opcode::Sdiv
                | Opcode::Smod
                | Opcode::Srem
                | Opcode::Umul
                | Opcode::Udiv
                | Opcode::Umod
                | Opcode::Urem
                | Opcode::Eq
                | Opcode::Neq
                | Opcode::Slt
                | Opcode::Sgt
                | Opcode::Sle
                | Opcode::Sge
                | Opcode::Ult
                | Opcode::Ugt
                | Opcode::Ule
                | Opcode::Uge
                | Opcode::Shl
                | Opcode::Shr
                | Opcode::Zext
                | Opcode::Sext
                | Opcode::Trunc
                | Opcode::Mux
                | Opcode::InsField
                | Opcode::InsSlice
                | Opcode::ExtField
                | Opcode::ExtSlice
        )
    }

    /// Whether the instruction reads or writes signals, and therefore must
    /// not be moved across `wait` instructions.
    pub fn touches_signals(self) -> bool {
        matches!(
            self,
            Opcode::Sig | Opcode::Prb | Opcode::Drv | Opcode::DrvCond | Opcode::Con | Opcode::Del
        )
    }

    /// Whether the instruction is allowed to appear in a unit of the given
    /// kind.
    pub fn allowed_in(self, kind: UnitKind) -> bool {
        use Opcode::*;
        match kind {
            UnitKind::Function => !matches!(
                self,
                Sig | Prb
                    | Drv
                    | DrvCond
                    | Con
                    | Del
                    | Reg
                    | Wait
                    | WaitTime
                    | Halt
                    | Inst
            ),
            UnitKind::Process => !matches!(self, Ret | RetValue | Inst | Reg | Sig | Con | Del),
            UnitKind::Entity => {
                // Entities are pure data flow graphs: no control flow, no
                // memory, no suspension.
                self.is_pure()
                    || matches!(self, Sig | Prb | Drv | DrvCond | Con | Del | Reg | Inst | Call)
            }
        }
    }

    /// Whether the instruction is part of the Netlist LLHD dialect (§2.2):
    /// only signal creation, connection, delay, and instantiation.
    pub fn allowed_in_netlist(self) -> bool {
        matches!(
            self,
            Opcode::Sig | Opcode::Con | Opcode::Del | Opcode::Inst | Opcode::Const
        )
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// The trigger mode of one `reg` trigger (§2.5.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RegMode {
    /// Store while the trigger is low.
    Low,
    /// Store while the trigger is high.
    High,
    /// Store on a rising edge.
    Rise,
    /// Store on a falling edge.
    Fall,
    /// Store on both edges.
    Both,
}

impl RegMode {
    /// The assembly keyword for this mode.
    pub fn keyword(self) -> &'static str {
        match self {
            RegMode::Low => "low",
            RegMode::High => "high",
            RegMode::Rise => "rise",
            RegMode::Fall => "fall",
            RegMode::Both => "both",
        }
    }

    /// Parse a mode from its assembly keyword.
    pub fn from_keyword(s: &str) -> Option<Self> {
        Some(match s {
            "low" => RegMode::Low,
            "high" => RegMode::High,
            "rise" => RegMode::Rise,
            "fall" => RegMode::Fall,
            "both" => RegMode::Both,
            _ => return None,
        })
    }

    /// Whether this mode describes an edge-sensitive (flip-flop) trigger
    /// rather than a level-sensitive (latch) trigger.
    pub fn is_edge(self) -> bool {
        matches!(self, RegMode::Rise | RegMode::Fall | RegMode::Both)
    }
}

impl fmt::Display for RegMode {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        write!(f, "{}", self.keyword())
    }
}

/// One trigger of a `reg` instruction: store `value` when `trigger` matches
/// `mode`, optionally gated by an `if` condition.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RegTrigger {
    /// The value stored when the trigger fires.
    pub value: Value,
    /// The trigger mode.
    pub mode: RegMode,
    /// The trigger signal or value observed.
    pub trigger: Value,
    /// An optional gating condition; the trigger is ignored when this is
    /// false.
    pub gate: Option<Value>,
}

/// The payload of an instruction.
///
/// A single struct covers all opcodes; the per-opcode meaning of `args`,
/// `blocks`, and `imms` is documented on [`Opcode`] and enforced by the
/// verifier and builder.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstData {
    /// The operation.
    pub opcode: Opcode,
    /// Value operands.
    pub args: Vec<Value>,
    /// Block operands (branch targets, phi predecessor blocks).
    pub blocks: Vec<Block>,
    /// Immediate operands (field indices, slice offsets/lengths, widths).
    pub imms: Vec<usize>,
    /// The constant payload of a `const` instruction.
    pub konst: Option<ConstValue>,
    /// The external unit referenced by `call` and `inst`.
    pub ext_unit: Option<ExtUnit>,
    /// The triggers of a `reg` instruction.
    pub triggers: Vec<RegTrigger>,
    /// The number of input arguments of a `call`/`inst` (the remaining args
    /// are outputs).
    pub num_inputs: usize,
}

impl InstData {
    /// Create instruction data for an opcode with plain value operands.
    pub fn new(opcode: Opcode, args: Vec<Value>) -> Self {
        InstData {
            opcode,
            args,
            blocks: vec![],
            imms: vec![],
            konst: None,
            ext_unit: None,
            triggers: vec![],
            num_inputs: 0,
        }
    }

    /// Create a constant instruction.
    pub fn constant(value: ConstValue) -> Self {
        InstData {
            konst: Some(value),
            ..InstData::new(Opcode::Const, vec![])
        }
    }

    /// All values referenced by this instruction, including trigger values.
    pub fn all_args(&self) -> Vec<Value> {
        self.operands().collect()
    }

    /// The values of [`Self::all_args`], in the same order, without
    /// allocating.
    pub fn operands(&self) -> impl Iterator<Item = Value> + '_ {
        self.args.iter().copied().chain(
            self.triggers
                .iter()
                .flat_map(|t| [t.value, t.trigger].into_iter().chain(t.gate)),
        )
    }

    /// Replace every use of `from` with `to` in the operands of this
    /// instruction. Returns the number of replacements.
    pub fn replace_value(&mut self, from: Value, to: Value) -> usize {
        let mut count = 0;
        for a in &mut self.args {
            if *a == from {
                *a = to;
                count += 1;
            }
        }
        for t in &mut self.triggers {
            if t.value == from {
                t.value = to;
                count += 1;
            }
            if t.trigger == from {
                t.trigger = to;
                count += 1;
            }
            if t.gate == Some(from) {
                t.gate = Some(to);
                count += 1;
            }
        }
        count
    }

    /// Replace every reference to block `from` with `to`. Returns the number
    /// of replacements.
    pub fn replace_block(&mut self, from: Block, to: Block) -> usize {
        let mut count = 0;
        for b in &mut self.blocks {
            if *b == from {
                *b = to;
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_roundtrip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op), "{:?}", op);
        }
        assert_eq!(Opcode::from_mnemonic("bogus"), None);
    }

    #[test]
    fn opcode_count_matches_all() {
        // Guard against forgetting to add new opcodes to ALL.
        let mut set = std::collections::HashSet::new();
        for op in Opcode::ALL {
            assert!(set.insert(op), "duplicate opcode {:?} in ALL", op);
        }
        assert_eq!(set.len(), Opcode::ALL.len());
    }

    #[test]
    fn terminators() {
        assert!(Opcode::Br.is_terminator());
        assert!(Opcode::Wait.is_terminator());
        assert!(Opcode::Halt.is_terminator());
        assert!(Opcode::Ret.is_terminator());
        assert!(!Opcode::Add.is_terminator());
        assert!(!Opcode::Drv.is_terminator());
    }

    #[test]
    fn results() {
        assert!(Opcode::Add.has_result());
        assert!(Opcode::Prb.has_result());
        assert!(Opcode::Sig.has_result());
        assert!(!Opcode::Drv.has_result());
        assert!(!Opcode::Halt.has_result());
        assert!(!Opcode::Inst.has_result());
    }

    #[test]
    fn purity_and_signal_interaction() {
        assert!(Opcode::Add.is_pure());
        assert!(Opcode::Mux.is_pure());
        assert!(!Opcode::Prb.is_pure());
        assert!(!Opcode::Call.is_pure());
        assert!(Opcode::Prb.touches_signals());
        assert!(!Opcode::Add.touches_signals());
    }

    #[test]
    fn unit_restrictions() {
        assert!(!Opcode::Prb.allowed_in(UnitKind::Function));
        assert!(!Opcode::Wait.allowed_in(UnitKind::Function));
        assert!(Opcode::Call.allowed_in(UnitKind::Function));
        assert!(Opcode::Ret.allowed_in(UnitKind::Function));
        assert!(Opcode::Wait.allowed_in(UnitKind::Process));
        assert!(!Opcode::Ret.allowed_in(UnitKind::Process));
        assert!(!Opcode::Inst.allowed_in(UnitKind::Process));
        assert!(Opcode::Inst.allowed_in(UnitKind::Entity));
        assert!(Opcode::Reg.allowed_in(UnitKind::Entity));
        assert!(!Opcode::Br.allowed_in(UnitKind::Entity));
        assert!(!Opcode::Wait.allowed_in(UnitKind::Entity));
    }

    #[test]
    fn netlist_subset() {
        assert!(Opcode::Sig.allowed_in_netlist());
        assert!(Opcode::Con.allowed_in_netlist());
        assert!(Opcode::Inst.allowed_in_netlist());
        assert!(!Opcode::Add.allowed_in_netlist());
        assert!(!Opcode::Reg.allowed_in_netlist());
    }

    #[test]
    fn reg_modes() {
        for m in [
            RegMode::Low,
            RegMode::High,
            RegMode::Rise,
            RegMode::Fall,
            RegMode::Both,
        ] {
            assert_eq!(RegMode::from_keyword(m.keyword()), Some(m));
        }
        assert!(RegMode::Rise.is_edge());
        assert!(!RegMode::High.is_edge());
        assert_eq!(RegMode::from_keyword("posedge"), None);
    }

    #[test]
    fn inst_data_replacement() {
        let mut data = InstData::new(Opcode::Add, vec![Value(1), Value(2)]);
        assert_eq!(data.replace_value(Value(1), Value(5)), 1);
        assert_eq!(data.args, vec![Value(5), Value(2)]);
        let mut br = InstData::new(Opcode::Br, vec![]);
        br.blocks = vec![Block(0), Block(1)];
        assert_eq!(br.replace_block(Block(1), Block(2)), 1);
        assert_eq!(br.blocks, vec![Block(0), Block(2)]);
    }

    #[test]
    fn all_args_includes_triggers() {
        let mut data = InstData::new(Opcode::Reg, vec![Value(0)]);
        data.triggers.push(RegTrigger {
            value: Value(1),
            mode: RegMode::Rise,
            trigger: Value(2),
            gate: Some(Value(3)),
        });
        let args = data.all_args();
        assert!(args.contains(&Value(0)));
        assert!(args.contains(&Value(1)));
        assert!(args.contains(&Value(2)));
        assert!(args.contains(&Value(3)));
    }
}
