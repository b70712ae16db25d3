//! Superinstruction lowering and per-instance specialization.
//!
//! The generic [`Op`] stream keeps one record per IR
//! instruction and resolves everything through per-instance tables at run
//! time. This module adds the two lowering stages that turn it into the
//! form the hot dispatch loop actually executes:
//!
//! 1. **Superinstruction lowering** (per unit, at `compile_design` time):
//!    each block's contiguous op stream is re-encoded into pre-decoded
//!    [`SuperOp`] records. Operand slots are resolved into variant fields,
//!    pure ops are split into by-reference evaluation variants (no operand
//!    cloning into a scratch buffer), integer-typed binary ops select a
//!    pre-decoded [`IntBin`] fast path (alloc-free for widths ≤ 64 via
//!    `ApInt`'s inline representation), and common adjacent pairs fuse:
//!    compare+branch ([`SuperOp::CmpBr`]), `array`+`mux` selection without
//!    materializing the array ([`SuperOp::Sel`]), and compute+drive
//!    ([`SuperOp::BinDrv`]). Fusion only fires when the intermediate
//!    register has exactly one reader, so nothing observable changes.
//!    Lowering also runs the unit-level constant analysis (`fold_unit`):
//!    pure ops whose inputs are all constants are folded across the whole
//!    unit — their results land in the unit's initial register file
//!    ([`LoweredUnit::init_regs`]) and the ops are marked dropped. The
//!    analysis depends only on the unit's materialized constants, never on
//!    an instance, so it runs exactly once per unit.
//! 2. **Instance specialization** (per instance, at instance-bind time):
//!    every [`CompiledInstance`](crate::compile::CompiledInstance) gets its
//!    own copy of the lowered stream with its bindings baked in — signal
//!    slots become resolved [`SignalId`]s (no table chase per probe/drive),
//!    constant delays become inline [`TimeValue`]s, and the folded ops are
//!    dropped from the emitted stream.
//!
//! Both stages are behind the [`BlazeOptions`](crate::compile::BlazeOptions)
//! knobs so the ablation benchmarks can price them separately, and the
//! differential tests assert byte-identical traces across every knob
//! combination — same value changes, same instants, same statistics, same
//! error points. The one intentional exception is the
//! `max_steps_per_activation` *guard*: fused records count as two executed
//! ops (exact parity with the generic loop), but constant-folded ops no
//! longer execute and therefore no longer count — exactly like the
//! materialized `const` instructions, which stopped counting when they
//! left the op stream.

use crate::compile::{ArgRange, CompiledTrigger, CompiledUnit, Intrinsic, Op};
use llhd::eval::{
    eval_binary, eval_cast, eval_ext_field, eval_ext_slice, eval_ins_field, eval_ins_slice,
    eval_mux, eval_pure, eval_unary,
};
use llhd::ir::{Opcode, UnitId};
use llhd::value::{ApInt, ConstValue, TimeValue};
use llhd_sim::design::SignalId;
use std::cmp::Ordering;

/// A pre-decoded binary operation on integer operands. Selected at
/// lowering time from the IR types, so the dispatch loop goes straight to
/// the `ApInt` method (alloc-free for widths ≤ 64) without re-matching the
/// operand payloads through the generic evaluator.
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

    /// Evaluate on integer payloads. Must agree exactly with
    /// [`eval_binary`] on `(Int, Int)` operands — the differential tests
    /// enforce this on every design, and `int_fast_path_matches_evaluator`
    /// below enforces it per kind.
    #[inline]
    pub fn eval(self, a: &ApInt, b: &ApInt) -> ConstValue {
        match self {
            IntBin::Add => ConstValue::Int(a.add(b)),
            IntBin::Sub => ConstValue::Int(a.sub(b)),
            IntBin::And => ConstValue::Int(a.and(b)),
            IntBin::Or => ConstValue::Int(a.or(b)),
            IntBin::Xor => ConstValue::Int(a.xor(b)),
            IntBin::Mul => ConstValue::Int(a.mul(b)),
            IntBin::Udiv => ConstValue::Int(a.udiv(b)),
            IntBin::Urem => ConstValue::Int(a.urem(b)),
            IntBin::Sdiv => ConstValue::Int(a.sdiv(b)),
            IntBin::Srem => ConstValue::Int(a.srem(b)),
            IntBin::Smod => ConstValue::Int(a.smod(b)),
            IntBin::Shl => ConstValue::Int(a.shl_bits(b.to_u64() as usize)),
            IntBin::Shr => ConstValue::Int(a.lshr_bits(b.to_u64() as usize)),
            IntBin::Eq => ConstValue::bool(a == b),
            IntBin::Neq => ConstValue::bool(a != b),
            IntBin::Ult => ConstValue::bool(a.ucmp(b) == Ordering::Less),
            IntBin::Ugt => ConstValue::bool(a.ucmp(b) == Ordering::Greater),
            IntBin::Ule => ConstValue::bool(a.ucmp(b) != Ordering::Greater),
            IntBin::Uge => ConstValue::bool(a.ucmp(b) != Ordering::Less),
            IntBin::Slt => ConstValue::bool(a.scmp(b) == Ordering::Less),
            IntBin::Sgt => ConstValue::bool(a.scmp(b) == Ordering::Greater),
            IntBin::Sle => ConstValue::bool(a.scmp(b) != Ordering::Greater),
            IntBin::Sge => ConstValue::bool(a.scmp(b) != Ordering::Less),
        }
    }
}

/// Evaluate a binary superop: the pre-decoded integer fast path when both
/// operands are integers, the shared evaluator otherwise.
#[inline]
pub fn eval_bin(kind: Option<IntBin>, opcode: Opcode, a: &ConstValue, b: &ConstValue) -> Option<ConstValue> {
    if let (Some(kind), ConstValue::Int(a), ConstValue::Int(b)) = (kind, a, b) {
        return Some(kind.eval(a, b));
    }
    eval_binary(opcode, a, b)
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
        /// Pre-decoded integer fast path, when the operand types are
        /// integers.
        kind: Option<IntBin>,
        /// The opcode, for the generic fallback and diagnostics.
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
    /// Fused `array`+`mux`: select one of the element registers directly,
    /// without ever materializing the array.
    Sel {
        /// Destination register slot.
        dst: u32,
        /// Selector register slot.
        sel: u32,
        /// Element register slots in the pool.
        elems: ArgRange,
    },
    /// Fused compare+branch: evaluate the comparison and branch on it
    /// without materializing the boolean.
    CmpBr {
        /// Pre-decoded integer fast path.
        kind: Option<IntBin>,
        /// The comparison opcode.
        opcode: Opcode,
        /// Left operand register slot.
        a: u32,
        /// Right operand register slot.
        b: u32,
        /// Block index when the comparison is false.
        if_false: u32,
        /// Block index when the comparison is true.
        if_true: u32,
    },
    /// Fused compute+drive: evaluate a binary operation and drive the
    /// result. The (dead) destination slot is kept so specialization can
    /// fold a constant compute into a plain drive.
    BinDrv {
        /// Pre-decoded integer fast path.
        kind: Option<IntBin>,
        /// The compute opcode.
        opcode: Opcode,
        /// Destination register slot (no remaining readers).
        dst: u32,
        /// Left operand register slot.
        a: u32,
        /// Right operand register slot.
        b: u32,
        /// The driven signal.
        sig: u32,
        /// The drive delay.
        delay: Delay,
        /// Optional condition register slot.
        cond: Option<u32>,
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
    /// Return — illegal outside functions; kept so the runtime error (and
    /// engine poisoning) replays identically to the generic path.
    Ret,
}

/// The per-unit lowered superinstruction stream, in slot space, with the
/// unit-level constant analysis already applied (constant folding depends
/// only on the unit's materialized constants, never on an instance, so it
/// runs once here rather than once per instance).
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
    /// Engines clone this per instance instead of re-materializing.
    pub init_regs: Vec<ConstValue>,
}

impl LoweredUnit {
    /// The operand slots referenced by `range`.
    #[inline]
    pub fn args(&self, range: ArgRange) -> &[u32] {
        range.slice(&self.pool)
    }
}

/// How often each register slot is read by the generic op stream. Fusion
/// requires the fused-away intermediate to have exactly one reader.
fn reg_read_counts(unit: &CompiledUnit) -> Vec<u32> {
    let mut reads = vec![0u32; unit.num_regs];
    let mut read = |slot: usize| reads[slot] += 1;
    for op in &unit.ops {
        match op {
            Op::Pure { args, .. } => {
                for &a in unit.args(*args) {
                    read(a as usize);
                }
            }
            Op::Prb { .. } | Op::Halt | Op::Br { .. } => {}
            Op::Drv {
                value, delay, cond, ..
            } => {
                read(*value);
                read(*delay);
                if let Some(c) = cond {
                    read(*c);
                }
            }
            Op::Del { delay, .. } => read(*delay),
            Op::Reg { triggers, .. } => {
                for t in triggers {
                    read(t.value);
                    read(t.trigger);
                    if let Some(g) = t.gate {
                        read(g);
                    }
                }
            }
            Op::Var { init, .. } => read(*init),
            Op::Ld { .. } => {}
            Op::St { value, .. } => read(*value),
            Op::Call { args, .. } => {
                for &a in unit.args(*args) {
                    read(a as usize);
                }
            }
            Op::Wait { time, .. } => {
                if let Some(t) = time {
                    read(*t);
                }
            }
            Op::BrCond { cond, .. } => read(*cond),
            Op::Ret { value } => {
                if let Some(v) = value {
                    read(*v);
                }
            }
        }
    }
    reads
}

/// Lower a compiled unit's generic op stream into superinstructions.
///
/// `int_typed` is parallel to `unit.ops` and marks pure ops whose operands
/// are all integer-typed (computed from the IR types during compilation);
/// `fuse` enables pair fusion and is threaded through from
/// [`BlazeOptions::fuse`](crate::compile::BlazeOptions).
pub fn lower_unit(unit: &CompiledUnit, int_typed: &[bool], fuse: bool) -> LoweredUnit {
    let reads = reg_read_counts(unit);
    let mut out = LoweredUnit {
        ops: Vec::with_capacity(unit.ops.len()),
        block_ranges: Vec::with_capacity(unit.block_ranges.len()),
        pool: Vec::new(),
        dropped: Vec::new(),
        consts: Vec::new(),
        init_regs: Vec::new(),
    };
    for block in 0..unit.block_ranges.len() {
        let (start, end) = unit.block_ranges[block];
        let (start, end) = (start as usize, end as usize);
        let block_start = out.ops.len() as u32;
        let mut i = start;
        while i < end {
            let op = &unit.ops[i];
            // Pair fusion: a pure compute whose single reader is the
            // immediately following op.
            if fuse && i + 1 < end {
                if let Some(fused) = try_fuse(unit, int_typed, &reads, i, &mut out.pool) {
                    out.ops.push(fused);
                    i += 2;
                    continue;
                }
            }
            let lowered = lower_op(unit, int_typed, op, i, &mut out.pool);
            out.ops.push(lowered);
            i += 1;
        }
        out.block_ranges.push((block_start, out.ops.len() as u32));
    }
    fold_unit(&mut out, unit);
    out
}

/// Constant-fold the lowered stream to fixpoint. Register slots are
/// written by their unique SSA definition only, so a slot holding a
/// materialized constant (or a folded result) is constant for the whole
/// run of any instance — the analysis is purely unit-level. Blocks are
/// laid out in definition order, so a forward pass folds whole chains at
/// once and the loop almost always converges on the second (no-change)
/// pass. Folding uses the same evaluation functions the runtime would, so
/// a fold can never produce a value the generic path would not have
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
                Fold::ValueAndReplace(dst, value, new_op) => {
                    consts[dst as usize] = Some(value);
                    lowered.ops[i] = new_op;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut init_regs = unit.new_regs();
    for (slot, value) in consts.iter().enumerate() {
        if let Some(value) = value {
            init_regs[slot] = value.clone();
        }
    }
    lowered.dropped = dropped;
    lowered.consts = consts;
    lowered.init_regs = init_regs;
}

/// Try to fuse `unit.ops[i]` with its successor. Returns the fused
/// superop, or `None` when the pair does not match a fusion pattern. Every
/// pattern requires the intermediate register to have exactly one reader
/// (the successor), so dropping its write is unobservable.
fn try_fuse(
    unit: &CompiledUnit,
    int_typed: &[bool],
    reads: &[u32],
    i: usize,
    pool: &mut Vec<u32>,
) -> Option<SuperOp> {
    let (first, second) = (&unit.ops[i], &unit.ops[i + 1]);
    let Op::Pure {
        opcode,
        dst,
        args,
        imms,
    } = first
    else {
        return None;
    };
    if !imms.is_empty() || reads[*dst] != 1 {
        return None;
    }
    let arg_slots = unit.args(*args);
    // array+mux: select among the element registers directly, never
    // materializing the array (saves a per-activation heap allocation).
    if *opcode == Opcode::Array && !arg_slots.is_empty() {
        if let Op::Pure {
            opcode: Opcode::Mux,
            dst: mux_dst,
            args: mux_args,
            imms: mux_imms,
        } = second
        {
            let mux_slots = unit.args(*mux_args);
            if mux_imms.is_empty() && mux_slots.len() == 2 && mux_slots[0] as usize == *dst {
                let sel = mux_slots[1];
                return Some(SuperOp::Sel {
                    dst: *mux_dst as u32,
                    sel,
                    elems: ArgRange::copy_into(pool, arg_slots),
                });
            }
        }
    }
    // Only opcodes the *binary* evaluator handles may fuse: `array`,
    // `struct`, and `mux` are two-operand pure ops with their own
    // evaluation rules, and a fused `BinDrv` over them would fail at run
    // time on a perfectly valid design.
    if arg_slots.len() != 2 || matches!(opcode, Opcode::Array | Opcode::Struct | Opcode::Mux) {
        return None;
    }
    let (a, b) = (arg_slots[0], arg_slots[1]);
    let kind = if int_typed[i] {
        IntBin::from_opcode(*opcode)
    } else {
        None
    };
    match second {
        // compare+branch: branch on the comparison without materializing
        // the boolean.
        Op::BrCond {
            cond,
            if_false,
            if_true,
        } if *cond == *dst && opcode.is_comparison() => Some(SuperOp::CmpBr {
            kind,
            opcode: *opcode,
            a,
            b,
            if_false: *if_false as u32,
            if_true: *if_true as u32,
        }),
        // compute+drive: evaluate and drive in one record. The compute
        // still runs unconditionally (matching the generic stream, where
        // the pure op precedes the drive's condition check).
        Op::Drv {
            sig,
            value,
            delay,
            cond,
        } if *value == *dst => Some(SuperOp::BinDrv {
            kind,
            opcode: *opcode,
            dst: *dst as u32,
            a,
            b,
            sig: *sig as u32,
            delay: Delay::Reg(*delay as u32),
            cond: cond.map(|c| c as u32),
        }),
        _ => None,
    }
}

/// Lower one generic op (no fusion) into its superop form.
fn lower_op(
    unit: &CompiledUnit,
    int_typed: &[bool],
    op: &Op,
    index: usize,
    pool: &mut Vec<u32>,
) -> SuperOp {
    match op {
        Op::Pure {
            opcode,
            dst,
            args,
            imms,
        } => {
            let slots = unit.args(*args);
            let dst = *dst as u32;
            match opcode {
                Opcode::Alias | Opcode::Not | Opcode::Neg if slots.len() == 1 => SuperOp::Un {
                    opcode: *opcode,
                    dst,
                    a: slots[0],
                },
                Opcode::Zext | Opcode::Sext | Opcode::Trunc
                    if slots.len() == 1 && !imms.is_empty() =>
                {
                    SuperOp::Cast {
                        opcode: *opcode,
                        dst,
                        a: slots[0],
                        width: imms[0] as u32,
                    }
                }
                Opcode::Mux if slots.len() == 2 && imms.is_empty() => SuperOp::Mux {
                    dst,
                    choices: slots[0],
                    sel: slots[1],
                },
                Opcode::ExtField if slots.len() == 1 && !imms.is_empty() => SuperOp::ExtF {
                    dst,
                    a: slots[0],
                    index: imms[0] as u32,
                },
                Opcode::ExtSlice if slots.len() == 1 && imms.len() >= 2 => SuperOp::ExtS {
                    dst,
                    a: slots[0],
                    offset: imms[0] as u32,
                    length: imms[1] as u32,
                },
                Opcode::InsField if slots.len() == 2 && !imms.is_empty() => SuperOp::InsF {
                    dst,
                    a: slots[0],
                    b: slots[1],
                    index: imms[0] as u32,
                },
                Opcode::InsSlice if slots.len() == 2 && imms.len() >= 2 => SuperOp::InsS {
                    dst,
                    a: slots[0],
                    b: slots[1],
                    offset: imms[0] as u32,
                },
                op2 if slots.len() == 2
                    && imms.is_empty()
                    && !matches!(op2, Opcode::Array | Opcode::Struct | Opcode::Mux) =>
                {
                    SuperOp::Bin {
                        kind: if int_typed[index] {
                            IntBin::from_opcode(*opcode)
                        } else {
                            None
                        },
                        opcode: *opcode,
                        dst,
                        a: slots[0],
                        b: slots[1],
                    }
                }
                _ => SuperOp::Pure {
                    opcode: *opcode,
                    dst,
                    args: ArgRange::copy_into(pool, slots),
                    imms: imms.clone(),
                },
            }
        }
        Op::Prb { dst, sig } => SuperOp::Prb {
            dst: *dst as u32,
            sig: *sig as u32,
        },
        Op::Drv {
            sig,
            value,
            delay,
            cond,
        } => SuperOp::Drv {
            sig: *sig as u32,
            value: *value as u32,
            delay: Delay::Reg(*delay as u32),
            cond: cond.map(|c| c as u32),
        },
        Op::Del {
            target,
            source,
            delay,
        } => SuperOp::Del {
            target: *target as u32,
            source: *source as u32,
            delay: Delay::Reg(*delay as u32),
        },
        Op::Reg { sig, triggers } => SuperOp::Reg {
            sig: *sig as u32,
            triggers: triggers.clone(),
        },
        Op::Var { mem, init } => SuperOp::Var {
            mem: *mem as u32,
            init: *init as u32,
        },
        Op::Ld { dst, mem } => SuperOp::Ld {
            dst: *dst as u32,
            mem: *mem as u32,
        },
        Op::St { mem, value } => SuperOp::St {
            mem: *mem as u32,
            value: *value as u32,
        },
        Op::Call {
            callee,
            intrinsic,
            dst,
            args,
        } => SuperOp::Call {
            callee: *callee,
            intrinsic: *intrinsic,
            dst: dst.map(|d| d as u32),
            args: ArgRange::copy_into(pool, unit.args(*args)),
        },
        Op::Wait {
            resume,
            time,
            observed,
        } => SuperOp::Wait {
            resume: *resume as u32,
            time: time.map(|t| Delay::Reg(t as u32)),
            observed: ArgRange::copy_into(pool, unit.args(*observed)),
        },
        Op::Halt => SuperOp::Halt,
        Op::Br { target } => SuperOp::Br {
            target: *target as u32,
        },
        Op::BrCond {
            cond,
            if_false,
            if_true,
        } => SuperOp::BrCond {
            cond: *cond as u32,
            if_false: *if_false as u32,
            if_true: *if_true as u32,
        },
        Op::Ret { .. } => SuperOp::Ret,
    }
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
    /// Operand pool; `Wait` observed entries hold resolved [`SignalId`]s,
    /// everything else register slots.
    pub pool: Vec<u32>,
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
/// unit-level and already done by [`lower_unit`]). See the module docs
/// for the invariants this preserves.
pub fn specialize(lowered: &LoweredUnit, signal_table: &[SignalId]) -> SpecializedCode {
    let consts = &lowered.consts;
    let resolve = |slot: u32| signal_table[slot as usize].0 as u32;
    let bake_delay = |delay: &Delay| match delay {
        Delay::Reg(slot) => match &consts[*slot as usize] {
            Some(ConstValue::Time(t)) => Delay::Const(*t),
            // Non-time constants keep the register path so the runtime
            // error ("expected a time value") replays identically.
            _ => Delay::Reg(*slot),
        },
        Delay::Const(t) => Delay::Const(*t),
    };
    let mut out = SpecializedCode {
        ops: Vec::with_capacity(lowered.ops.len()),
        block_ranges: Vec::with_capacity(lowered.block_ranges.len()),
        pool: Vec::new(),
    };
    for &(start, end) in &lowered.block_ranges {
        let block_start = out.ops.len() as u32;
        for i in start as usize..end as usize {
            if lowered.dropped[i] {
                continue;
            }
            let op = match &lowered.ops[i] {
                SuperOp::Prb { dst, sig } => SuperOp::Prb {
                    dst: *dst,
                    sig: resolve(*sig),
                },
                SuperOp::Drv {
                    sig,
                    value,
                    delay,
                    cond,
                } => SuperOp::Drv {
                    sig: resolve(*sig),
                    value: *value,
                    delay: bake_delay(delay),
                    cond: *cond,
                },
                SuperOp::BinDrv {
                    kind,
                    opcode,
                    dst,
                    a,
                    b,
                    sig,
                    delay,
                    cond,
                } => SuperOp::BinDrv {
                    kind: *kind,
                    opcode: *opcode,
                    dst: *dst,
                    a: *a,
                    b: *b,
                    sig: resolve(*sig),
                    delay: bake_delay(delay),
                    cond: *cond,
                },
                SuperOp::Del {
                    target,
                    source,
                    delay,
                } => SuperOp::Del {
                    target: resolve(*target),
                    source: resolve(*source),
                    delay: bake_delay(delay),
                },
                SuperOp::Reg { sig, triggers } => SuperOp::Reg {
                    sig: resolve(*sig),
                    triggers: triggers.clone(),
                },
                SuperOp::Wait {
                    resume,
                    time,
                    observed,
                } => {
                    let resolved: Vec<u32> = lowered
                        .args(*observed)
                        .iter()
                        .map(|&slot| resolve(slot))
                        .collect();
                    SuperOp::Wait {
                        resume: *resume,
                        time: time.as_ref().map(bake_delay),
                        observed: ArgRange::copy_into(&mut out.pool, &resolved),
                    }
                }
                SuperOp::Pure {
                    opcode,
                    dst,
                    args,
                    imms,
                } => SuperOp::Pure {
                    opcode: *opcode,
                    dst: *dst,
                    args: ArgRange::copy_into(&mut out.pool, lowered.args(*args)),
                    imms: imms.clone(),
                },
                SuperOp::Sel { dst, sel, elems } => SuperOp::Sel {
                    dst: *dst,
                    sel: *sel,
                    elems: ArgRange::copy_into(&mut out.pool, lowered.args(*elems)),
                },
                SuperOp::Call {
                    callee,
                    intrinsic,
                    dst,
                    args,
                } => SuperOp::Call {
                    callee: *callee,
                    intrinsic: *intrinsic,
                    dst: *dst,
                    args: ArgRange::copy_into(&mut out.pool, lowered.args(*args)),
                },
                other => other.clone(),
            };
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
    /// The op both produces a constant and simplifies (const compute of a
    /// fused compute+drive).
    ValueAndReplace(u32, ConstValue, SuperOp),
}

/// Attempt to fold one op whose inputs are all constants. All checks are
/// by reference — this runs for every op on every fixpoint pass, so it
/// must not clone values just to discover there is nothing to fold.
fn fold_op(op: &SuperOp, pool: &[u32], consts: &[Option<ConstValue>]) -> Fold {
    let konst = |slot: u32| consts[slot as usize].as_ref();
    match op {
        SuperOp::Bin {
            kind,
            opcode,
            dst,
            a,
            b,
        } => {
            if let (Some(a), Some(b)) = (konst(*a), konst(*b)) {
                if let Some(v) = eval_bin(*kind, *opcode, a, b) {
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
        SuperOp::Sel { dst, sel, elems } => {
            let slots = elems.slice(pool);
            if let Some(idx) = konst(*sel).and_then(|s| s.to_u64()) {
                if !slots.is_empty() && slots.iter().all(|&e| konst(e).is_some()) {
                    let pick = slots[(idx as usize).min(slots.len() - 1)];
                    return Fold::Value(*dst, konst(pick).unwrap().clone());
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
        SuperOp::CmpBr {
            kind,
            opcode,
            a,
            b,
            if_false,
            if_true,
        } => {
            if let (Some(a), Some(b)) = (konst(*a), konst(*b)) {
                if let Some(v) = eval_bin(*kind, *opcode, a, b) {
                    let target = if v.is_truthy() { *if_true } else { *if_false };
                    return Fold::Replace(SuperOp::Br { target });
                }
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
        SuperOp::BinDrv {
            kind,
            opcode,
            dst,
            a,
            b,
            sig,
            delay,
            cond,
        } => {
            if let (Some(av), Some(bv)) = (konst(*a), konst(*b)) {
                if let Some(v) = eval_bin(*kind, *opcode, av, bv) {
                    return Fold::ValueAndReplace(
                        *dst,
                        v,
                        SuperOp::Drv {
                            sig: *sig,
                            value: *dst,
                            delay: delay.clone(),
                            cond: *cond,
                        },
                    );
                }
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
    use crate::compile::{compile_design_with, BlazeOptions};
    use llhd::assembly::parse_module;
    use llhd_sim::elaborate;

    /// Every pre-decoded integer fast path computes exactly what the
    /// shared evaluator computes, across widths that cross the inline
    /// limb boundary.
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
            for &width in &[1usize, 8, 64, 80] {
                for &(a, b) in &samples {
                    let av = ConstValue::Int(ApInt::from_u64(width, a));
                    let bv = ConstValue::Int(ApInt::from_u64(width, b));
                    let fast = match (&av, &bv) {
                        (ConstValue::Int(x), ConstValue::Int(y)) => kind.eval(x, y),
                        _ => unreachable!(),
                    };
                    let reference = eval_binary(opcode, &av, &bv).unwrap();
                    assert_eq!(
                        fast, reference,
                        "{:?} i{} {} {}",
                        opcode, width, a, b
                    );
                }
            }
        }
    }

    fn compiled_for(src: &str, top: &str, options: BlazeOptions) -> crate::CompiledDesign {
        let module = parse_module(src).unwrap();
        let design = elaborate(&module, top).unwrap();
        compile_design_with(&module, design, options).unwrap()
    }

    const FUSIBLE: &str = r#"
        entity @alu (i8$ %a, i8$ %b, i1$ %sel) -> (i8$ %y) {
            %ap = prb i8$ %a
            %bp = prb i8$ %b
            %sp = prb i1$ %sel
            %sum = add i8 %ap, %bp
            %xorv = xor i8 %ap, %bp
            %ys = array [%sum, %xorv]
            %y0 = mux [2 x i8] %ys, %sp
            %delay = const time 1ns
            drv i8$ %y, %y0 after %delay
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
            inst @alu (%a, %b, %sel) -> (%y)
            inst @count (%y) -> (%a)
        }
    "#;

    /// Fusion produces the promised superinstructions: the entity's
    /// array+mux collapses into a `Sel`, and the process's compare+branch
    /// into a `CmpBr`. With the knob off, neither appears.
    #[test]
    fn fusion_forms_sel_and_cmp_br() {
        let fused = compiled_for(FUSIBLE, "top", BlazeOptions::default());
        let count_ops = |design: &crate::CompiledDesign, pred: fn(&SuperOp) -> bool| {
            design
                .instances
                .iter()
                .filter_map(|i| i.code.as_ref())
                .flat_map(|c| c.ops.iter())
                .filter(|op| pred(op))
                .count()
        };
        assert!(count_ops(&fused, |op| matches!(op, SuperOp::Sel { .. })) > 0);
        assert!(count_ops(&fused, |op| matches!(op, SuperOp::CmpBr { .. })) > 0);
        let unfused = compiled_for(
            FUSIBLE,
            "top",
            BlazeOptions {
                fuse: false,
                ..BlazeOptions::default()
            },
        );
        assert_eq!(count_ops(&unfused, |op| matches!(op, SuperOp::Sel { .. })), 0);
        assert_eq!(
            count_ops(&unfused, |op| matches!(op, SuperOp::CmpBr { .. })),
            0
        );
    }

    /// Specialization folds constant chains out of the stream (`add
    /// %one, %two` never executes) and bakes constant delays inline.
    #[test]
    fn specialization_folds_constants_and_bakes_delays() {
        let design = compiled_for(FUSIBLE, "top", BlazeOptions::default());
        let count = design
            .instances
            .iter()
            .find(|i| i.name.contains("count"))
            .unwrap();
        let code = count.code.as_ref().expect("looping process specializes");
        // The `%three = add %one, %two` fold removed one of the two adds;
        // only the loop's `%next = add %cur, %three` survives.
        let adds = code
            .ops
            .iter()
            .filter(|op| matches!(op, SuperOp::Bin { opcode: Opcode::Add, .. }))
            .count();
        assert_eq!(adds, 1, "the constant add must fold out of the stream");
        // Its result landed in the unit's initial register file: some
        // register holds the folded value 3.
        let lowered = design.units[&count.unit].lowered.as_ref().unwrap();
        assert!(lowered
            .init_regs
            .iter()
            .any(|v| v == &ConstValue::int(8, 3)));
        // Every drive and wait in the stream carries an inline constant
        // delay (all delays in this design are `const time`).
        for op in &code.ops {
            match op {
                SuperOp::Drv { delay, .. } | SuperOp::BinDrv { delay, .. } => {
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
    /// second reader, so `Sel` fusion cannot fire first) must NOT fuse
    /// into a `BinDrv` — the binary evaluator cannot evaluate `mux`, and
    /// a fused record would fail at run time on a valid design.
    /// Regression test for exactly that bug.
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
            BlazeOptions::default(),
        );
        for instance in &design.instances {
            if let Some(code) = &instance.code {
                assert!(
                    code.ops
                        .iter()
                        .all(|op| !matches!(op, SuperOp::BinDrv { opcode: Opcode::Mux, .. })),
                    "mux must never fuse into a BinDrv"
                );
            }
        }
        // And the design actually runs under the specialized dispatch.
        crate::BlazeSimulator::new(design, llhd_sim::SimConfig::until_nanos(10))
            .run()
            .unwrap();
    }

    /// The re-execution heuristic: straight-line processes stay on the
    /// generic dispatch, looping processes and entities specialize.
    #[test]
    fn straight_line_processes_are_not_specialized() {
        let design = compiled_for(
            r#"
            proc @once () -> (i1$ %out) {
            entry:
                %one = const i1 1
                %t = const time 1ns
                drv i1$ %out, %one after %t
                halt
            }
            entity @top () -> () {
                %zero = const i1 0
                %out = sig i1 %zero
                inst @once () -> (%out)
            }
            "#,
            "top",
            BlazeOptions::default(),
        );
        let once = design
            .instances
            .iter()
            .find(|i| i.name.contains("once"))
            .unwrap();
        assert!(once.code.is_none(), "straight-line process must stay generic");
    }
}
