//! The superinstruction stream: unit-level passes and per-instance
//! specialization.
//!
//! [`crate::compile`] walks each unit once and emits one [`SuperOp`] per
//! executing IR instruction, naming signals by per-unit slot. Pure ops are
//! split there into by-reference evaluation variants (`Bin`, `Un`, `Cast`,
//! `ExtF`, `ExtS`, `InsF`, `InsS`, `Mux`, and the generic `Pure`), so no
//! operand is cloned into a scratch buffer. This module turns that stream
//! into the only form the engine executes, in two stages:
//!
//! 1. **Unit-level passes** (per unit, at `compile_design` time), in
//!    order:
//!    - *Constant folding* (`fold_unit`): pure ops whose inputs are all
//!      constants are folded across the whole unit. Their results land in
//!      the unit's initial register file ([`LoweredUnit::init_regs`]) and
//!      the ops are marked dropped. Constant branches and drive conditions
//!      simplify in place. The analysis depends only on the unit's
//!      materialized constants, never on an instance, so it runs exactly
//!      once per unit.
//!    - *Word selection* (`select_words`): every narrow integer slot
//!      (`iN`, N ≤ 64) gets a machine word ([`LoweredUnit::widths`]), and
//!      each op whose operands and result are all word slots takes its
//!      word form ([`SuperOp::WBin`] and the other `W…` variants): masked
//!      `u64` arithmetic, with no [`ConstValue`] tag match and no `ApInt`
//!      width check. Ops that touch a wider or non-integer value keep their
//!      value form; the engine boxes their word operands.
//!    - *Fusion* (`fuse`): a peephole over adjacent word ops. Compare and
//!      branch become [`SuperOp::WCmpBr`], compute and drive
//!      [`SuperOp::WBinDrv`], and `array`+`mux` under a word selector
//!      [`SuperOp::WSel`], which copies the selected element register
//!      without materializing the array (also when the array was folded:
//!      a constant lookup table). A pair fuses only when the intermediate
//!      register has exactly one reader, so nothing observable changes.
//!      Compares and computes wider than 64 bits run as plain, unfused
//!      value ops.
//! 2. **Instance specialization** (per instance, at instance-bind time):
//!    every [`CompiledInstance`](crate::compile::CompiledInstance) gets its
//!    own copy of the lowered stream with its bindings baked in — signal
//!    slots become resolved [`SignalId`]s (no table chase per probe/drive),
//!    constant delays become inline [`TimeValue`]s, and the folded ops are
//!    dropped from the emitted stream. A function specializes once, with
//!    no signal bindings.
//!
//! Every unit goes through both stages; the differential tests hold the
//! result byte-identical to the interpreter — same value changes, same
//! instants, same statistics, same error points. The one intentional
//! exception is the `max_steps_per_activation` *guard*: fused records
//! count as the two source ops they retire, but constant-folded ops no
//! longer execute and therefore no longer count — exactly like the
//! materialized `const` instructions, which never enter the stream.

use crate::compile::{ArgRange, CompiledTrigger, CompiledUnit, Intrinsic};
use llhd::eval::{
    eval_binary, eval_cast, eval_ext_field, eval_ext_slice, eval_ins_field, eval_ins_slice,
    eval_mux, eval_pure, eval_unary,
};
use llhd::ir::{Opcode, UnitId};
use llhd::ty::{Type, TypeKind};
use llhd::value::{ConstValue, TimeValue};
use llhd_sim::design::SignalId;
use std::sync::Arc;

/// A pre-decoded binary operation on word operands: the operation of
/// [`SuperOp::WBin`] and its fusions. `select_words` derives it from a
/// [`SuperOp::Bin`]'s opcode once both operands are word slots, so the
/// dispatch loop computes on `u64`s without re-matching the opcode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IntBin {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Wrapping multiplication (signed and unsigned agree modulo 2^N).
    Mul,
    /// Unsigned division.
    Udiv,
    /// Unsigned remainder/modulo.
    Urem,
    /// Signed division.
    Sdiv,
    /// Signed remainder.
    Srem,
    /// Signed modulo.
    Smod,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Equality.
    Eq,
    /// Inequality.
    Neq,
    /// Unsigned less-than.
    Ult,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned less-or-equal.
    Ule,
    /// Unsigned greater-or-equal.
    Uge,
    /// Signed less-than.
    Slt,
    /// Signed greater-than.
    Sgt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-or-equal.
    Sge,
}

impl IntBin {
    /// The fast-path kind for `opcode`, if it has one.
    pub fn from_opcode(opcode: Opcode) -> Option<IntBin> {
        Some(match opcode {
            Opcode::Add => IntBin::Add,
            Opcode::Sub => IntBin::Sub,
            Opcode::And => IntBin::And,
            Opcode::Or => IntBin::Or,
            Opcode::Xor => IntBin::Xor,
            Opcode::Umul | Opcode::Smul => IntBin::Mul,
            Opcode::Udiv => IntBin::Udiv,
            Opcode::Urem | Opcode::Umod => IntBin::Urem,
            Opcode::Sdiv => IntBin::Sdiv,
            Opcode::Srem => IntBin::Srem,
            Opcode::Smod => IntBin::Smod,
            Opcode::Shl => IntBin::Shl,
            Opcode::Shr => IntBin::Shr,
            Opcode::Eq => IntBin::Eq,
            Opcode::Neq => IntBin::Neq,
            Opcode::Ult => IntBin::Ult,
            Opcode::Ugt => IntBin::Ugt,
            Opcode::Ule => IntBin::Ule,
            Opcode::Uge => IntBin::Uge,
            Opcode::Slt => IntBin::Slt,
            Opcode::Sgt => IntBin::Sgt,
            Opcode::Sle => IntBin::Sle,
            Opcode::Sge => IntBin::Sge,
            _ => return None,
        })
    }

    /// Whether the result is a boolean rather than an operand-width value.
    fn is_comparison(self) -> bool {
        matches!(
            self,
            IntBin::Eq
                | IntBin::Neq
                | IntBin::Ult
                | IntBin::Ugt
                | IntBin::Ule
                | IntBin::Uge
                | IntBin::Slt
                | IntBin::Sgt
                | IntBin::Sle
                | IntBin::Sge
        )
    }

    /// Evaluate on `width`-bit operands held in machine words, each masked
    /// to `width` bits (a shift amount to its own width). Must agree
    /// exactly with [`eval_binary`] on integers of that width —
    /// `int_fast_path_matches_evaluator` below and a property in
    /// `tests/properties.rs` enforce it per kind.
    #[inline]
    pub fn eval_word(self, width: u8, a: u64, b: u64) -> u64 {
        let mask = word_mask(width);
        let signed = |v: u64| i128::from(sign_extend(v, width));
        match self {
            IntBin::Add => a.wrapping_add(b) & mask,
            IntBin::Sub => a.wrapping_sub(b) & mask,
            IntBin::And => a & b,
            IntBin::Or => a | b,
            IntBin::Xor => a ^ b,
            IntBin::Mul => a.wrapping_mul(b) & mask,
            // Division by zero yields all ones and remainder by zero the
            // dividend, `ApInt`'s hardware convention.
            IntBin::Udiv => a.checked_div(b).unwrap_or(mask),
            IntBin::Urem => a.checked_rem(b).unwrap_or(a),
            IntBin::Sdiv if b == 0 => mask,
            IntBin::Srem | IntBin::Smod if b == 0 => a,
            // i128: `i64::MIN / -1` must wrap, not trap.
            IntBin::Sdiv => (signed(a) / signed(b)) as u64 & mask,
            IntBin::Srem => (signed(a) % signed(b)) as u64 & mask,
            IntBin::Smod => {
                let r = (signed(a) % signed(b)) as u64 & mask;
                let sign = |v: u64| (v >> (width - 1)) & 1;
                if r == 0 || sign(r) == sign(b) {
                    r
                } else {
                    r.wrapping_add(b) & mask
                }
            }
            IntBin::Shl if b < u64::from(width) => (a << b) & mask,
            IntBin::Shr if b < u64::from(width) => a >> b,
            IntBin::Shl | IntBin::Shr => 0,
            IntBin::Eq => u64::from(a == b),
            IntBin::Neq => u64::from(a != b),
            IntBin::Ult => u64::from(a < b),
            IntBin::Ugt => u64::from(a > b),
            IntBin::Ule => u64::from(a <= b),
            IntBin::Uge => u64::from(a >= b),
            IntBin::Slt => u64::from(signed(a) < signed(b)),
            IntBin::Sgt => u64::from(signed(a) > signed(b)),
            IntBin::Sle => u64::from(signed(a) <= signed(b)),
            IntBin::Sge => u64::from(signed(a) >= signed(b)),
        }
    }
}

/// The value mask of a `width`-bit word slot, `1 <= width <= 64`.
#[inline]
pub(crate) fn word_mask(width: u8) -> u64 {
    u64::MAX >> (64 - u32::from(width))
}

/// A `width`-bit word read as a two's complement number.
#[inline]
fn sign_extend(v: u64, width: u8) -> i64 {
    let shift = 64 - u32::from(width);
    ((v << shift) as i64) >> shift
}

/// Evaluate [`SuperOp::WUn`]: `not`, `neg` or `alias` of a `width`-bit
/// word.
#[inline]
pub(crate) fn eval_un_word(opcode: Opcode, width: u8, v: u64) -> u64 {
    match opcode {
        Opcode::Not => !v & word_mask(width),
        Opcode::Neg => v.wrapping_neg() & word_mask(width),
        _ => v,
    }
}

/// Evaluate [`SuperOp::WCast`]: a widening `sext` replicates bit
/// `from - 1`; every other cast keeps the low `to` bits.
#[inline]
pub(crate) fn eval_cast_word(opcode: Opcode, from: u8, to: u8, v: u64) -> u64 {
    match opcode {
        Opcode::Sext if to > from => sign_extend(v, from) as u64 & word_mask(to),
        _ => v & word_mask(to),
    }
}

/// A drive/wait delay operand: a register slot, or a constant baked in by
/// specialization (saving the per-drive register read and time extraction).
#[derive(Clone, Debug)]
pub enum Delay {
    /// Read the delay from a register slot at run time.
    Reg(u32),
    /// A delay that specialization proved constant.
    Const(TimeValue),
}

/// One pre-decoded superinstruction.
///
/// Signal operands (`sig`, `target`, `source`, the pool entries of a
/// `Wait`'s observed list) hold *signal slots* in the per-unit lowered
/// form and *resolved [`SignalId`]s* after [`specialize`] — only the
/// specialized form is ever executed.
#[derive(Clone, Debug)]
pub enum SuperOp {
    /// Generic pure fallback (aggregate construction and anything without
    /// a by-reference variant): clones its operands and calls [`eval_pure`].
    Pure {
        /// The opcode to evaluate.
        opcode: Opcode,
        /// Destination register slot.
        dst: u32,
        /// Operand register slots in the pool.
        args: ArgRange,
        /// Immediate operands.
        imms: Vec<usize>,
    },
    /// A binary operation evaluated by reference.
    Bin {
        /// The opcode.
        opcode: Opcode,
        /// Destination register slot.
        dst: u32,
        /// Left operand register slot.
        a: u32,
        /// Right operand register slot.
        b: u32,
    },
    /// A unary operation (`not`, `neg`, `alias`) evaluated by reference.
    Un {
        /// The opcode.
        opcode: Opcode,
        /// Destination register slot.
        dst: u32,
        /// Operand register slot.
        a: u32,
    },
    /// A width cast (`zext`, `sext`, `trunc`) evaluated by reference.
    Cast {
        /// The opcode.
        opcode: Opcode,
        /// Destination register slot.
        dst: u32,
        /// Operand register slot.
        a: u32,
        /// Target width.
        width: u32,
    },
    /// `extf` field extraction, by reference.
    ExtF {
        /// Destination register slot.
        dst: u32,
        /// Aggregate operand register slot.
        a: u32,
        /// Field index.
        index: u32,
    },
    /// `exts` slice extraction, by reference.
    ExtS {
        /// Destination register slot.
        dst: u32,
        /// Aggregate operand register slot.
        a: u32,
        /// Slice offset.
        offset: u32,
        /// Slice length.
        length: u32,
    },
    /// `insf` field insertion, by reference.
    InsF {
        /// Destination register slot.
        dst: u32,
        /// Aggregate operand register slot.
        a: u32,
        /// Inserted value register slot.
        b: u32,
        /// Field index.
        index: u32,
    },
    /// `inss` slice insertion, by reference.
    InsS {
        /// Destination register slot.
        dst: u32,
        /// Aggregate operand register slot.
        a: u32,
        /// Inserted value register slot.
        b: u32,
        /// Slice offset.
        offset: u32,
    },
    /// `mux` evaluated by reference (no clone of the choices array).
    Mux {
        /// Destination register slot.
        dst: u32,
        /// Choices (array) register slot.
        choices: u32,
        /// Selector register slot.
        sel: u32,
    },
    /// Probe a signal into a register slot.
    Prb {
        /// Destination register slot.
        dst: u32,
        /// The probed signal.
        sig: u32,
    },
    /// Drive a signal.
    Drv {
        /// The driven signal.
        sig: u32,
        /// Value register slot.
        value: u32,
        /// The drive delay.
        delay: Delay,
        /// Optional condition register slot.
        cond: Option<u32>,
    },
    /// A delayed copy of a signal.
    Del {
        /// The driven signal.
        target: u32,
        /// The source signal.
        source: u32,
        /// The copy delay.
        delay: Delay,
    },
    /// A register storage element.
    Reg {
        /// The driven signal.
        sig: u32,
        /// The triggers, sharing the unit's state slots.
        triggers: Vec<CompiledTrigger>,
    },
    /// Allocate process-local memory.
    Var {
        /// Memory slot.
        mem: u32,
        /// Initial value register slot.
        init: u32,
    },
    /// Load from process-local memory.
    Ld {
        /// Destination register slot.
        dst: u32,
        /// Memory slot.
        mem: u32,
    },
    /// Store to process-local memory.
    St {
        /// Memory slot.
        mem: u32,
        /// Value register slot.
        value: u32,
    },
    /// Call a function or intrinsic.
    Call {
        /// The called unit, unless this is an intrinsic.
        callee: Option<UnitId>,
        /// The recognised intrinsic, if any.
        intrinsic: Option<Intrinsic>,
        /// Destination register slot.
        dst: Option<u32>,
        /// Argument register slots in the pool.
        args: ArgRange,
    },
    /// Suspend until a signal change or timeout.
    Wait {
        /// Block index to resume at.
        resume: u32,
        /// Optional timeout.
        time: Option<Delay>,
        /// Observed signals in the pool.
        observed: ArgRange,
    },
    /// Suspend forever.
    Halt,
    /// Unconditional branch.
    Br {
        /// Target block index.
        target: u32,
    },
    /// Conditional branch.
    BrCond {
        /// Condition register slot.
        cond: u32,
        /// Block index when false.
        if_false: u32,
        /// Block index when true.
        if_true: u32,
    },
    /// Return from a function, with the value in a register slot; an
    /// instance body fails on it.
    Ret {
        /// The returned value's register slot.
        value: Option<u32>,
    },
    /// [`SuperOp::Bin`] over word slots: operands and result are words of
    /// the instance's word file (see [`LoweredUnit::widths`]).
    WBin {
        /// The operation.
        kind: IntBin,
        /// The operand width.
        width: u8,
        /// Destination word slot.
        dst: u32,
        /// Left operand word slot.
        a: u32,
        /// Right operand word slot.
        b: u32,
    },
    /// [`SuperOp::Un`] over word slots.
    WUn {
        /// `not`, `neg` or `alias`.
        opcode: Opcode,
        /// The operand and result width.
        width: u8,
        /// Destination word slot.
        dst: u32,
        /// Operand word slot.
        a: u32,
    },
    /// [`SuperOp::Cast`] between word slots.
    WCast {
        /// `zext`, `sext` or `trunc`.
        opcode: Opcode,
        /// The operand width.
        from: u8,
        /// The result width.
        to: u8,
        /// Destination word slot.
        dst: u32,
        /// Operand word slot.
        a: u32,
    },
    /// `exts` from a word slot, or `extf` of one of its bits.
    WExtS {
        /// Destination word slot.
        dst: u32,
        /// Operand word slot.
        a: u32,
        /// The lowest extracted bit.
        offset: u8,
        /// The number of extracted bits: the result width.
        width: u8,
    },
    /// Fused `array`+`mux` under a word selector: copy the selected
    /// element register, without ever materializing the array. The
    /// destination and the elements are all words of one width, or all
    /// values.
    WSel {
        /// Destination register slot.
        dst: u32,
        /// Selector word slot.
        sel: u32,
        /// Element register slots in the pool.
        elems: ArgRange,
    },
    /// Fused compare+branch over word slots: branch on the comparison
    /// without materializing the boolean.
    WCmpBr {
        /// The comparison.
        kind: IntBin,
        /// The operand width.
        width: u8,
        /// Left operand word slot.
        a: u32,
        /// Right operand word slot.
        b: u32,
        /// Block index when the comparison is false.
        if_false: u32,
        /// Block index when the comparison is true.
        if_true: u32,
    },
    /// Fused compute+drive over word slots: evaluate a binary operation
    /// and drive the result.
    WBinDrv {
        /// The operation.
        kind: IntBin,
        /// The operand width.
        width: u8,
        /// The result width, which is the driven width.
        out: u8,
        /// Left operand word slot.
        a: u32,
        /// Right operand word slot.
        b: u32,
        /// The driven signal.
        sig: u32,
        /// The drive delay.
        delay: Delay,
        /// Optional condition word slot.
        cond: Option<u32>,
    },
    /// [`SuperOp::Prb`] into a word slot.
    WPrb {
        /// Destination word slot.
        dst: u32,
        /// The probed signal.
        sig: u32,
        /// The probed width.
        width: u8,
    },
    /// [`SuperOp::Drv`] of a word slot.
    WDrv {
        /// The driven signal.
        sig: u32,
        /// Value word slot.
        value: u32,
        /// The driven width.
        width: u8,
        /// The drive delay.
        delay: Delay,
        /// Optional condition word slot.
        cond: Option<u32>,
    },
    /// [`SuperOp::Ld`] of a word memory cell.
    WLd {
        /// Destination word slot.
        dst: u32,
        /// Memory word slot.
        mem: u32,
    },
    /// [`SuperOp::St`] (or [`SuperOp::Var`]) of a word slot into a word
    /// memory cell.
    WSt {
        /// Memory word slot.
        mem: u32,
        /// Value word slot.
        value: u32,
    },
    /// [`SuperOp::BrCond`] on a word slot.
    WBrCond {
        /// Condition word slot.
        cond: u32,
        /// Block index when false.
        if_false: u32,
        /// Block index when true.
        if_true: u32,
    },
}

/// A unit's superinstruction stream, in slot space, with the unit-level
/// passes applied: constants folded, narrow integers in words, word pairs
/// fused. None of them depends on an instance, so they run once here
/// rather than once per instance.
#[derive(Clone, Debug, Default)]
pub struct LoweredUnit {
    /// All superops, blocks laid out back to back. Constant branches and
    /// drive conditions are already simplified in place.
    pub ops: Vec<SuperOp>,
    /// Half-open `ops` range of each block.
    pub block_ranges: Vec<(u32, u32)>,
    /// Operand pool referenced by the [`ArgRange`]s.
    pub pool: Vec<u32>,
    /// Per-op: constant-folded out of the stream (skipped at
    /// specialization emit; their results live in [`LoweredUnit::consts`]).
    pub dropped: Vec<bool>,
    /// The constant state of every register slot: the unit's materialized
    /// constants plus every folded result.
    pub consts: Vec<Option<ConstValue>>,
    /// The initial register file with the folded constants applied.
    /// Engines clone this per instance instead of re-materializing. A word
    /// slot's entry is `Void`: its constant is in
    /// [`LoweredUnit::init_words`].
    pub init_regs: Vec<ConstValue>,
    /// Per register slot: the width of a narrow integer slot (`iN`,
    /// N ≤ 64), whose value lives in the instance's word file as a `u64`
    /// masked to that width, or 0 for a slot whose value is a
    /// [`ConstValue`].
    pub widths: Arc<[u8]>,
    /// The same split for the memory slots (`var` cells).
    pub mem_widths: Arc<[u8]>,
    /// The initial word file: every constant word slot's value.
    pub init_words: Vec<u64>,
}

impl LoweredUnit {
    /// The operand slots referenced by `range`.
    #[inline]
    pub fn args(&self, range: ArgRange) -> &[u32] {
        range.slice(&self.pool)
    }
}

/// Run the unit-level passes over the stream
/// [`compile_unit`](crate::compile::compile_unit) emitted: fold constants,
/// move narrow integers into words, fuse. `reads` counts the reads of each
/// register slot by the unit's executing instructions.
pub(crate) fn optimize(lowered: &mut LoweredUnit, unit: &CompiledUnit, reads: &[u32]) {
    fold_unit(lowered, unit);
    select_words(lowered, unit);
    fuse(lowered, reads);
}

/// The width of a word slot for values of type `ty`: `N` for an `iN` with
/// `N <= 64`, 0 for a type whose values stay [`ConstValue`]s.
fn word_width(ty: &Type) -> u8 {
    match ty.kind() {
        TypeKind::Int(width @ 1..=64) => *width as u8,
        _ => 0,
    }
}

/// Give every narrow integer slot a machine word: pick each register and
/// memory slot's storage class from its IR type, seed the initial word
/// file from the unit's constants, and rewrite every op whose operands and
/// result all live in words into its word form. Ops that touch a value
/// slot keep their [`ConstValue`] form; the engine boxes their word
/// operands on the way in and unboxes a word result on the way out.
fn select_words(lowered: &mut LoweredUnit, unit: &CompiledUnit) {
    let widths: Vec<u8> = unit
        .reg_types
        .iter()
        .zip(&lowered.consts)
        .map(|(ty, konst)| match (word_width(ty), konst) {
            (width, None) => width,
            (width, Some(ConstValue::Int(v))) if v.width() == usize::from(width) => width,
            // A constant of another type, which a verified module never
            // holds, keeps its slot a value.
            (_, Some(_)) => 0,
        })
        .collect();
    let mem_widths: Vec<u8> = unit.mem_types.iter().map(word_width).collect();
    let mut init_words = vec![0; widths.len()];
    for (slot, &width) in widths.iter().enumerate() {
        if width != 0 {
            init_words[slot] = lowered.consts[slot]
                .as_ref()
                .and_then(ConstValue::to_u64)
                .unwrap_or(0);
            lowered.init_regs[slot] = ConstValue::Void;
        }
    }
    for op in &mut lowered.ops {
        if let Some(word) = word_op(op, &widths, &mem_widths) {
            *op = word;
        }
    }
    lowered.widths = widths.into();
    lowered.mem_widths = mem_widths.into();
    lowered.init_words = init_words;
}

/// The word form of `op`, if every operand and result of it lives in a
/// word slot of the width its evaluation assumes.
fn word_op(op: &SuperOp, widths: &[u8], mem_widths: &[u8]) -> Option<SuperOp> {
    let w = |slot: u32| widths[slot as usize];
    let mw = |slot: u32| mem_widths[slot as usize];
    let word_cond = |cond: Option<u32>| cond.is_none_or(|c| w(c) != 0);
    Some(match *op {
        SuperOp::Bin { opcode, dst, a, b } => {
            let kind = IntBin::from_opcode(opcode)?;
            SuperOp::WBin {
                kind,
                width: bin_width(kind, w(a), w(b), w(dst))?,
                dst,
                a,
                b,
            }
        }
        SuperOp::Un { opcode, dst, a } if w(a) != 0 && w(a) == w(dst) => SuperOp::WUn {
            opcode,
            width: w(a),
            dst,
            a,
        },
        SuperOp::Cast {
            opcode,
            dst,
            a,
            width,
        } if w(a) != 0
            && w(dst) != 0
            && u32::from(w(dst)) == width
            && (opcode != Opcode::Trunc || w(dst) <= w(a)) =>
        {
            SuperOp::WCast {
                opcode,
                from: w(a),
                to: w(dst),
                dst,
                a,
            }
        }
        SuperOp::ExtS {
            dst,
            a,
            offset,
            length,
        } if w(a) != 0
            && length > 0
            && u64::from(offset) + u64::from(length) <= u64::from(w(a))
            && u32::from(w(dst)) == length =>
        {
            SuperOp::WExtS {
                dst,
                a,
                offset: offset as u8,
                width: w(dst),
            }
        }
        SuperOp::ExtF { dst, a, index } if index < u32::from(w(a)) && w(dst) == 1 => {
            SuperOp::WExtS {
                dst,
                a,
                offset: index as u8,
                width: 1,
            }
        }
        SuperOp::Prb { dst, sig } if w(dst) != 0 => SuperOp::WPrb {
            dst,
            sig,
            width: w(dst),
        },
        SuperOp::Drv {
            sig,
            value,
            ref delay,
            cond,
        } if w(value) != 0 && word_cond(cond) => SuperOp::WDrv {
            sig,
            value,
            width: w(value),
            delay: delay.clone(),
            cond,
        },
        SuperOp::Var { mem, init: value } | SuperOp::St { mem, value }
            if mw(mem) != 0 && mw(mem) == w(value) =>
        {
            SuperOp::WSt { mem, value }
        }
        SuperOp::Ld { dst, mem } if mw(mem) != 0 && mw(mem) == w(dst) => SuperOp::WLd { dst, mem },
        SuperOp::BrCond {
            cond,
            if_false,
            if_true,
        } if w(cond) != 0 => SuperOp::WBrCond {
            cond,
            if_false,
            if_true,
        },
        _ => return None,
    })
}

/// The operand width of a word form of binary op `kind` whose operand and
/// result slots have word widths `a`, `b` and `dst` (0: a value slot), if
/// they are the widths its evaluation assumes: equal operands (a shift
/// amount may have any width), and a result of the operand width, or
/// `i1` for a comparison.
fn bin_width(kind: IntBin, a: u8, b: u8, dst: u8) -> Option<u8> {
    let shift = matches!(kind, IntBin::Shl | IntBin::Shr);
    let result = if kind.is_comparison() { 1 } else { a };
    (a != 0 && b != 0 && (shift || a == b) && dst == result).then_some(a)
}

/// Constant-fold the lowered stream to fixpoint. Register slots are
/// written by their unique SSA definition only, so a slot holding a
/// materialized constant (or a folded result) is constant for the whole
/// run of any instance — the analysis is purely unit-level. Blocks are
/// laid out in definition order, so a forward pass folds whole chains at
/// once and the loop almost always converges on the second (no-change)
/// pass. Folding uses the same evaluation functions the runtime would, so
/// a fold can never produce a value the unfolded op would not have
/// produced; ops whose evaluation fails are kept so runtime errors (and
/// engine poisoning) replay identically.
fn fold_unit(lowered: &mut LoweredUnit, unit: &CompiledUnit) {
    let mut consts: Vec<Option<ConstValue>> = vec![None; unit.num_regs];
    for (slot, value) in &unit.const_regs {
        consts[*slot as usize] = Some(value.clone());
    }
    let mut dropped = vec![false; lowered.ops.len()];
    loop {
        let mut changed = false;
        for (i, dropped) in dropped.iter_mut().enumerate() {
            if *dropped {
                continue;
            }
            match fold_op(&lowered.ops[i], &lowered.pool, &consts) {
                Fold::None => {}
                Fold::Value(dst, value) => {
                    consts[dst as usize] = Some(value);
                    *dropped = true;
                    changed = true;
                }
                Fold::Drop => {
                    *dropped = true;
                    changed = true;
                }
                Fold::Replace(new_op) => {
                    lowered.ops[i] = new_op;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    lowered.init_regs = consts
        .iter()
        .map(|c| c.clone().unwrap_or(ConstValue::Void))
        .collect();
    lowered.dropped = dropped;
    lowered.consts = consts;
}

/// Fuse adjacent ops of a block: compare+branch over words into
/// [`SuperOp::WCmpBr`], compute+drive over words into
/// [`SuperOp::WBinDrv`], and `array`+`mux` under a word selector into
/// [`SuperOp::WSel`]. A pair fuses only when its first op's result has
/// exactly one reader (`reads`), the second op, so dropping the write is
/// unobservable. A folded compute stays folded, but a folded `array` still
/// fuses: the `WSel` then selects among constant elements, and the array
/// is never materialized — not even in the initial register file, so a
/// checkpoint shows the slot unwritten.
fn fuse(lowered: &mut LoweredUnit, reads: &[u32]) {
    let len = lowered.ops.len();
    let mut source = std::mem::take(&mut lowered.ops)
        .into_iter()
        .zip(std::mem::take(&mut lowered.dropped));
    let (mut ops, mut dropped) = (Vec::with_capacity(len), Vec::with_capacity(len));
    let mut unmaterialized = Vec::new();
    let mut block_ranges = std::mem::take(&mut lowered.block_ranges);
    for range in &mut block_ranges {
        let start = ops.len() as u32;
        let mut block = source
            .by_ref()
            .take((range.1 - range.0) as usize)
            .peekable();
        while let Some((op, folded)) = block.next() {
            let next = block.peek().filter(|(_, next_folded)| !next_folded);
            if let Some(fused) =
                next.and_then(|(next, _)| fuse_pair(&op, folded, next, lowered, reads))
            {
                if let SuperOp::Pure { dst, .. } = op {
                    unmaterialized.push(dst);
                }
                block.next();
                ops.push(fused);
                dropped.push(false);
            } else {
                ops.push(op);
                dropped.push(folded);
            }
        }
        *range = (start, ops.len() as u32);
    }
    for slot in unmaterialized {
        lowered.consts[slot as usize] = None;
        lowered.init_regs[slot as usize] = ConstValue::Void;
    }
    lowered.ops = ops;
    lowered.dropped = dropped;
    lowered.block_ranges = block_ranges;
}

/// The fused form of `first` (`folded`: constant-folded out of the
/// stream) followed by `second`, if the pair has one.
fn fuse_pair(
    first: &SuperOp,
    folded: bool,
    second: &SuperOp,
    lowered: &LoweredUnit,
    reads: &[u32],
) -> Option<SuperOp> {
    let w = |slot: u32| lowered.widths[slot as usize];
    let single_reader = |slot: u32| reads[slot as usize] == 1;
    Some(match (first, second) {
        (
            &SuperOp::WBin {
                kind,
                width,
                dst,
                a,
                b,
            },
            &SuperOp::WBrCond {
                cond,
                if_false,
                if_true,
            },
        ) if !folded && cond == dst && kind.is_comparison() && single_reader(dst) => {
            SuperOp::WCmpBr {
                kind,
                width,
                a,
                b,
                if_false,
                if_true,
            }
        }
        // The compute still runs unconditionally, like the unfused op
        // before the drive's condition check.
        (
            &SuperOp::WBin {
                kind,
                width,
                dst,
                a,
                b,
            },
            SuperOp::WDrv {
                sig,
                value,
                width: out,
                delay,
                cond,
            },
        ) if !folded && *value == dst && single_reader(dst) => SuperOp::WBinDrv {
            kind,
            width,
            out: *out,
            a,
            b,
            sig: *sig,
            delay: delay.clone(),
            cond: *cond,
        },
        (
            SuperOp::Pure {
                opcode: Opcode::Array,
                dst,
                args,
                imms,
            },
            &SuperOp::Mux {
                dst: out,
                choices,
                sel,
            },
        ) if choices == *dst
            && imms.is_empty()
            && single_reader(choices)
            && w(sel) != 0
            && !args.slice(&lowered.pool).is_empty()
            && args.slice(&lowered.pool).iter().all(|&e| w(e) == w(out)) =>
        {
            SuperOp::WSel {
                dst: out,
                sel,
                elems: *args,
            }
        }
        _ => return None,
    })
}

/// The per-instance specialized execution form: the unit's superops with
/// this instance's signal bindings and constants baked in. The matching
/// initial register file lives on the unit's [`LoweredUnit::init_regs`]
/// (it is instance-independent).
#[derive(Clone, Debug)]
pub struct SpecializedCode {
    /// The superops; signal operands hold resolved [`SignalId`]s.
    pub ops: Vec<SuperOp>,
    /// Half-open `ops` range of each block.
    pub block_ranges: Vec<(u32, u32)>,
    /// Operand pool: the lowered unit's, then every `Wait`'s observed
    /// list as resolved [`SignalId`]s.
    pub pool: Vec<u32>,
    /// The unit's register word widths ([`LoweredUnit::widths`]).
    pub widths: Arc<[u8]>,
    /// The unit's memory word widths ([`LoweredUnit::mem_widths`]).
    pub mem_widths: Arc<[u8]>,
}

impl SpecializedCode {
    /// The operations of block `index`, in execution order.
    #[inline]
    pub fn block_ops(&self, index: usize) -> &[SuperOp] {
        let (start, end) = self.block_ranges[index];
        &self.ops[start as usize..end as usize]
    }

    /// The pool slots referenced by `range`.
    #[inline]
    pub fn args(&self, range: ArgRange) -> &[u32] {
        range.slice(&self.pool)
    }
}

/// Specialize `lowered` for one instance: a single emit pass that skips
/// the folded ops, bakes the signal bindings from `signal_table` into the
/// stream, and inlines constant delays (the constant analysis itself is
/// unit-level and already done by
/// [`compile_unit`](crate::compile::compile_unit)). See the module docs
/// for the invariants this preserves. A slot the table does not bind —
/// every slot of a function, which is specialized with an empty table —
/// becomes `u32::MAX`, which the engine never reads.
pub fn specialize(lowered: &LoweredUnit, signal_table: &[SignalId]) -> SpecializedCode {
    let consts = &lowered.consts;
    let resolve = |slot: u32| {
        signal_table
            .get(slot as usize)
            .map_or(u32::MAX, |s| s.0 as u32)
    };
    let bake = |delay: &mut Delay| {
        // Non-time constants keep the register path so the runtime error
        // ("expected a time value") replays identically.
        if let Delay::Reg(slot) = *delay {
            if let Some(ConstValue::Time(t)) = &consts[slot as usize] {
                *delay = Delay::Const(*t);
            }
        }
    };
    // The lowered pool carries over whole, so every operand range stays
    // valid; a `wait`'s observed list is appended again, resolved.
    let mut out = SpecializedCode {
        ops: Vec::with_capacity(lowered.ops.len()),
        block_ranges: Vec::with_capacity(lowered.block_ranges.len()),
        pool: lowered.pool.clone(),
        widths: Arc::clone(&lowered.widths),
        mem_widths: Arc::clone(&lowered.mem_widths),
    };
    for &(start, end) in &lowered.block_ranges {
        let block_start = out.ops.len() as u32;
        for i in start as usize..end as usize {
            if lowered.dropped[i] {
                continue;
            }
            let mut op = lowered.ops[i].clone();
            match &mut op {
                SuperOp::Prb { sig, .. } | SuperOp::WPrb { sig, .. } | SuperOp::Reg { sig, .. } => {
                    *sig = resolve(*sig)
                }
                SuperOp::Drv { sig, delay, .. }
                | SuperOp::WDrv { sig, delay, .. }
                | SuperOp::WBinDrv { sig, delay, .. } => {
                    *sig = resolve(*sig);
                    bake(delay);
                }
                SuperOp::Del {
                    target,
                    source,
                    delay,
                } => {
                    *target = resolve(*target);
                    *source = resolve(*source);
                    bake(delay);
                }
                SuperOp::Wait { time, observed, .. } => {
                    if let Some(time) = time {
                        bake(time);
                    }
                    let signals = lowered.args(*observed).iter().map(|&slot| resolve(slot));
                    *observed = ArgRange::push(&mut out.pool, signals);
                }
                _ => {}
            }
            out.ops.push(op);
        }
        out.block_ranges.push((block_start, out.ops.len() as u32));
    }
    out
}

/// The outcome of a fold attempt on one op.
enum Fold {
    /// Nothing foldable.
    None,
    /// The op's result is the given constant; the op disappears.
    Value(u32, ConstValue),
    /// The op disappears without producing a value (false-cond drive).
    Drop,
    /// The op simplifies to another op (const branch, const drive cond).
    Replace(SuperOp),
}

/// Attempt to fold one op whose inputs are all constants. All checks are
/// by reference — this runs for every op on every fixpoint pass, so it
/// must not clone values just to discover there is nothing to fold.
fn fold_op(op: &SuperOp, pool: &[u32], consts: &[Option<ConstValue>]) -> Fold {
    let konst = |slot: u32| consts[slot as usize].as_ref();
    match op {
        SuperOp::Bin { opcode, dst, a, b } => {
            if let (Some(a), Some(b)) = (konst(*a), konst(*b)) {
                if let Some(v) = eval_binary(*opcode, a, b) {
                    return Fold::Value(*dst, v);
                }
            }
            Fold::None
        }
        SuperOp::Un { opcode, dst, a } => {
            if let Some(a) = konst(*a) {
                if let Some(v) = eval_unary(*opcode, a) {
                    return Fold::Value(*dst, v);
                }
            }
            Fold::None
        }
        SuperOp::Cast {
            opcode,
            dst,
            a,
            width,
        } => {
            if let Some(a) = konst(*a) {
                if let Some(v) = eval_cast(*opcode, a, *width as usize) {
                    return Fold::Value(*dst, v);
                }
            }
            Fold::None
        }
        SuperOp::ExtF { dst, a, index } => {
            if let Some(a) = konst(*a) {
                if let Some(v) = eval_ext_field(a, *index as usize) {
                    return Fold::Value(*dst, v);
                }
            }
            Fold::None
        }
        SuperOp::ExtS {
            dst,
            a,
            offset,
            length,
        } => {
            if let Some(a) = konst(*a) {
                if let Some(v) = eval_ext_slice(a, *offset as usize, *length as usize) {
                    return Fold::Value(*dst, v);
                }
            }
            Fold::None
        }
        SuperOp::InsF { dst, a, b, index } => {
            if let (Some(a), Some(b)) = (konst(*a), konst(*b)) {
                if let Some(v) = eval_ins_field(a, b, *index as usize) {
                    return Fold::Value(*dst, v);
                }
            }
            Fold::None
        }
        SuperOp::InsS { dst, a, b, offset } => {
            if let (Some(a), Some(b)) = (konst(*a), konst(*b)) {
                if let Some(v) = eval_ins_slice(a, b, *offset as usize, 0) {
                    return Fold::Value(*dst, v);
                }
            }
            Fold::None
        }
        SuperOp::Mux { dst, choices, sel } => {
            if let (Some(c), Some(s)) = (konst(*choices), konst(*sel)) {
                if let Some(v) = eval_mux(c, s) {
                    return Fold::Value(*dst, v);
                }
            }
            Fold::None
        }
        SuperOp::Pure {
            opcode,
            dst,
            args,
            imms,
        } => {
            let slots = args.slice(pool);
            if !slots.iter().all(|&a| konst(a).is_some()) {
                return Fold::None;
            }
            let arg_values: Vec<ConstValue> =
                slots.iter().map(|&a| konst(a).unwrap().clone()).collect();
            if let Some(v) = eval_pure(*opcode, &arg_values, imms) {
                return Fold::Value(*dst, v);
            }
            Fold::None
        }
        SuperOp::BrCond {
            cond,
            if_false,
            if_true,
        } => {
            if let Some(c) = konst(*cond) {
                let target = if c.is_truthy() { *if_true } else { *if_false };
                return Fold::Replace(SuperOp::Br { target });
            }
            Fold::None
        }
        SuperOp::Drv {
            sig,
            value,
            delay,
            cond: Some(cond),
        } => {
            // A constant condition either disappears or the drive becomes
            // unconditional; the drive itself stays (signals change).
            match konst(*cond) {
                Some(c) if c.is_truthy() => Fold::Replace(SuperOp::Drv {
                    sig: *sig,
                    value: *value,
                    delay: delay.clone(),
                    cond: None,
                }),
                Some(_) => Fold::Drop,
                None => Fold::None,
            }
        }
        _ => Fold::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_design;
    use llhd::assembly::parse_module;
    use llhd_sim::elaborate;

    /// Every word operation computes exactly what the shared evaluator
    /// computes on integers of its width, up to the 64 bits a word holds.
    #[test]
    fn int_fast_path_matches_evaluator() {
        let opcodes = [
            Opcode::Add,
            Opcode::Sub,
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
            Opcode::Umul,
            Opcode::Smul,
            Opcode::Udiv,
            Opcode::Urem,
            Opcode::Umod,
            Opcode::Sdiv,
            Opcode::Srem,
            Opcode::Smod,
            Opcode::Shl,
            Opcode::Shr,
            Opcode::Eq,
            Opcode::Neq,
            Opcode::Ult,
            Opcode::Ugt,
            Opcode::Ule,
            Opcode::Uge,
            Opcode::Slt,
            Opcode::Sgt,
            Opcode::Sle,
            Opcode::Sge,
        ];
        let samples: [(u64, u64); 6] = [
            (0, 0),
            (1, 2),
            (200, 100),
            (u64::MAX, 1),
            (7, 0),
            (0x8000_0000_0000_0000, 3),
        ];
        for &opcode in &opcodes {
            let kind = IntBin::from_opcode(opcode).expect("every opcode maps");
            for &width in &[1u8, 8, 63, 64] {
                for &(a, b) in &samples {
                    let (a, b) = (a & word_mask(width), b & word_mask(width));
                    let reference = eval_binary(
                        opcode,
                        &ConstValue::int(usize::from(width), a),
                        &ConstValue::int(usize::from(width), b),
                    )
                    .unwrap();
                    assert_eq!(
                        kind.eval_word(width, a, b),
                        reference.as_int().unwrap().to_u64(),
                        "{:?} i{} {} {}",
                        opcode,
                        width,
                        a,
                        b
                    );
                }
            }
        }
    }

    /// The word forms of the casts and of `not`/`neg`/`alias` agree with
    /// the shared evaluator at every width pair a word holds.
    #[test]
    fn word_casts_and_unary_ops_match_evaluator() {
        let widths = [1u8, 7, 8, 33, 63, 64];
        let samples = [0u64, 1, 0x55, 0x80, u64::MAX, 1 << 62];
        for &from in &widths {
            for &sample in &samples {
                let v = sample & word_mask(from);
                let value = ConstValue::int(usize::from(from), v);
                for opcode in [Opcode::Not, Opcode::Neg, Opcode::Alias] {
                    assert_eq!(
                        ConstValue::int(usize::from(from), eval_un_word(opcode, from, v)),
                        eval_unary(opcode, &value).unwrap(),
                        "{:?} i{} {}",
                        opcode,
                        from,
                        v
                    );
                }
                for &to in &widths {
                    for opcode in [Opcode::Zext, Opcode::Sext, Opcode::Trunc] {
                        if opcode == Opcode::Trunc && to > from {
                            continue;
                        }
                        assert_eq!(
                            ConstValue::int(usize::from(to), eval_cast_word(opcode, from, to, v)),
                            eval_cast(opcode, &value, usize::from(to)).unwrap(),
                            "{:?} i{} -> i{} {}",
                            opcode,
                            from,
                            to,
                            v
                        );
                    }
                }
            }
        }
    }

    /// Every `iN` slot with N ≤ 64 moves into the word file and its ops
    /// take their word form, fused where a pair fuses; an `i80`
    /// computation beside it keeps the value form, runs unfused, and its
    /// constant stays in the value file.
    #[test]
    fn narrow_slots_compute_in_words_wide_ones_as_values() {
        let design = compiled_for(
            r#"
            entity @both (i8$ %a, i80$ %w) -> (i8$ %y, i80$ %v) {
                %delay = const time 1ns
                %one8 = const i8 1
                %one80 = const i80 1
                %ap = prb i8$ %a
                %wp = prb i80$ %w
                %a1 = add i8 %ap, %one8
                drv i8$ %y, %a1 after %delay
                %w1 = add i80 %wp, %one80
                drv i80$ %v, %w1 after %delay
            }
            entity @top () -> () {
                %z8 = const i8 0
                %z80 = const i80 0
                %a = sig i8 %z8
                %w = sig i80 %z80
                %y = sig i8 %z8
                %v = sig i80 %z80
                inst @both (%a, %w) -> (%y, %v)
            }
            "#,
            "top",
        );
        let both = design
            .instances
            .iter()
            .find(|i| i.name.contains("both"))
            .unwrap();
        let ops = &both.code.ops;
        assert!(ops
            .iter()
            .any(|op| matches!(op, SuperOp::WPrb { width: 8, .. })));
        assert!(ops.iter().any(|op| matches!(
            op,
            SuperOp::WBinDrv {
                kind: IntBin::Add,
                ..
            }
        )));
        assert!(ops.iter().any(|op| matches!(op, SuperOp::Prb { .. })));
        let wide = ops
            .windows(2)
            .filter_map(|pair| match pair {
                [SuperOp::Bin {
                    opcode: Opcode::Add,
                    dst,
                    ..
                }, SuperOp::Drv { value, .. }] => Some((*dst, *value)),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert!(
            matches!(wide[..], [(dst, value)] if dst == value),
            "{:?}",
            ops
        );
        let lowered = design.units[&both.unit].lowered.as_ref().unwrap();
        assert!(lowered.init_words.contains(&1));
        assert!(lowered.init_regs.contains(&ConstValue::int(80, 1)));
        assert!(!lowered.init_regs.contains(&ConstValue::int(8, 1)));
    }

    fn compiled_for(src: &str, top: &str) -> crate::CompiledDesign {
        let module = parse_module(src).unwrap();
        let design = elaborate(&module, top).unwrap();
        compile_design(&module, design).unwrap()
    }

    const FUSIBLE: &str = r#"
        entity @alu (i8$ %a, i8$ %b, i1$ %sel) -> (i8$ %y, i8$ %z) {
            %ap = prb i8$ %a
            %bp = prb i8$ %b
            %sp = prb i1$ %sel
            %sum = add i8 %ap, %bp
            %xorv = xor i8 %ap, %bp
            %ys = array [%sum, %xorv]
            %y0 = mux [2 x i8] %ys, %sp
            %delay = const time 1ns
            drv i8$ %y, %y0 after %delay
            %k5 = const i8 5
            %k9 = const i8 9
            %table = array [%k5, %k9]
            %z0 = mux [2 x i8] %table, %sp
            drv i8$ %z, %z0 after %delay
        }
        proc @count (i8$ %y) -> (i8$ %a) {
        entry:
            %zero = const i8 0
            %one = const i8 1
            %two = const i8 2
            %three = add i8 %one, %two
            %step = const time 2ns
            %i = var i8 %zero
            br %loop
        loop:
            %cur = ld i8* %i
            %next = add i8 %cur, %three
            st i8* %i, %next
            drv i8$ %a, %next after %step
            %cap = const i8 50
            %more = ult i8 %next, %cap
            br %more, %end, %pause
        pause:
            wait %loop for %step
        end:
            halt
        }
        entity @top () -> () {
            %z8 = const i8 0
            %z1 = const i1 0
            %a = sig i8 %z8
            %b = sig i8 %z8
            %sel = sig i1 %z1
            %y = sig i8 %z8
            %z = sig i8 %z8
            inst @alu (%a, %b, %sel) -> (%y, %z)
            inst @count (%y) -> (%a)
        }
    "#;

    /// Fusion produces the promised word superinstructions: the entity's
    /// two array+mux pairs collapse into `WSel`s — also the one over a
    /// constant table, whose folded array is never materialized — and the
    /// process's compare+branch into a `WCmpBr`.
    #[test]
    fn fusion_forms_sel_and_cmp_br() {
        let fused = compiled_for(FUSIBLE, "top");
        let count_ops = |pred: fn(&SuperOp) -> bool| {
            fused
                .instances
                .iter()
                .flat_map(|i| i.code.ops.iter())
                .filter(|op| pred(op))
                .count()
        };
        assert_eq!(count_ops(|op| matches!(op, SuperOp::WSel { .. })), 2);
        assert_eq!(count_ops(|op| matches!(op, SuperOp::Mux { .. })), 0);
        assert_eq!(count_ops(|op| matches!(op, SuperOp::WCmpBr { .. })), 1);
        let alu = fused
            .instances
            .iter()
            .find(|i| i.name.contains("alu"))
            .unwrap();
        let lowered = fused.units[&alu.unit].lowered();
        assert!(lowered.init_regs.iter().all(|v| v.as_array().is_none()));
    }

    /// Specialization folds constant chains out of the stream (`add
    /// %one, %two` never executes) and bakes constant delays inline.
    #[test]
    fn specialization_folds_constants_and_bakes_delays() {
        let design = compiled_for(FUSIBLE, "top");
        let count = design
            .instances
            .iter()
            .find(|i| i.name.contains("count"))
            .unwrap();
        let code = &count.code;
        // The `%three = add %one, %two` fold removed one of the two adds;
        // only the loop's `%next = add %cur, %three` survives.
        let adds = code
            .ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    SuperOp::Bin {
                        opcode: Opcode::Add,
                        ..
                    } | SuperOp::WBin {
                        kind: IntBin::Add,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(adds, 1, "the constant add must fold out of the stream");
        // Its result landed in the unit's initial word file: some `i8`
        // word slot holds the folded value 3.
        let lowered = design.units[&count.unit].lowered.as_ref().unwrap();
        assert!(lowered.init_words.contains(&3));
        // Every drive and wait in the stream carries an inline constant
        // delay (all delays in this design are `const time`).
        for op in &code.ops {
            match op {
                SuperOp::Drv { delay, .. }
                | SuperOp::WDrv { delay, .. }
                | SuperOp::WBinDrv { delay, .. } => {
                    assert!(matches!(delay, Delay::Const(_)), "unbaked drive delay");
                }
                SuperOp::Wait { time: Some(t), .. } => {
                    assert!(matches!(t, Delay::Const(_)), "unbaked wait timeout");
                }
                _ => {}
            }
        }
    }

    /// A `mux` result driven directly (with the array kept alive by a
    /// second reader, so `WSel` fusion cannot fire first) runs as a plain
    /// `mux` and a drive. It once fused into a compute+drive record that
    /// the binary evaluator could not evaluate, failing at run time on a
    /// valid design; `WBinDrv` takes an [`IntBin`], so that record can no
    /// longer be built.
    #[test]
    fn mux_feeding_a_drive_does_not_fuse() {
        let design = compiled_for(
            r#"
            entity @pick (i8$ %a, i8$ %b, i1$ %sel) -> (i8$ %y, i8$ %z) {
                %ap = prb i8$ %a
                %bp = prb i8$ %b
                %sp = prb i1$ %sel
                %ys = array [%ap, %bp]
                %z0 = extf i8 %ys, 0
                %delay = const time 1ns
                %y0 = mux [2 x i8] %ys, %sp
                drv i8$ %y, %y0 after %delay
                drv i8$ %z, %z0 after %delay
            }
            entity @top () -> () {
                %z8 = const i8 0
                %z1 = const i1 0
                %a = sig i8 %z8
                %b = sig i8 %z8
                %sel = sig i1 %z1
                %y = sig i8 %z8
                %z = sig i8 %z8
                inst @pick (%a, %b, %sel) -> (%y, %z)
            }
            "#,
            "top",
        );
        crate::BlazeSimulator::new(design, llhd_sim::SimConfig::until_nanos(10))
            .run()
            .unwrap();
    }

    /// Every unit lowers and specializes: a straight-line process, the
    /// entity above it, and a function, which no instance binds.
    #[test]
    fn every_instance_and_function_is_specialized() {
        let module = parse_module(
            r#"
            func @inc (i1 %x) i1 {
            entry:
                %one = const i1 1
                %r = xor i1 %x, %one
                ret i1 %r
            }
            proc @once () -> (i1$ %out) {
            entry:
                %zero = const i1 0
                %t = const time 1ns
                %one = call i1 @inc (%zero)
                drv i1$ %out, %one after %t
                halt
            }
            entity @top () -> () {
                %zero = const i1 0
                %out = sig i1 %zero
                inst @once () -> (%out)
            }
            "#,
        )
        .unwrap();
        let design = compile_design(&module, elaborate(&module, "top").unwrap()).unwrap();
        assert!(design.units.values().all(|unit| unit.lowered.is_some()));
        for instance in &design.instances {
            assert!(!instance.code.block_ranges.is_empty(), "{}", instance.name);
        }
        let inc = module.unit_by_ident("inc").unwrap();
        let code = &design.functions[&inc];
        assert!(code
            .ops
            .iter()
            .any(|op| matches!(op, SuperOp::Ret { value: Some(_) })));
        assert!(design
            .unit_stats()
            .iter()
            .all(|s| s.specialized_instances == s.instances));
    }
}
