//! The execution engine operating on compiled designs.
//!
//! Scheduling (event queue, delta cycles, sensitivity) comes from the
//! shared hot-path core in [`llhd_sim::sched`] — exactly the code the
//! reference interpreter runs on, which is what makes the two engines'
//! traces byte-identical. The difference is that unit bodies execute over
//! dense register files with pre-resolved operand indices instead of
//! interpreting the IR data structures: SSA values, memory cells, signal
//! references, and `reg` histories are all flat-array accesses whose
//! indices were computed ahead of time by [`crate::compile`]. Under the
//! specialized dispatch every narrow integer is a machine word (see
//! [`LoweredUnit::widths`](crate::superop::LoweredUnit::widths)).

use crate::compile::{CompiledDesign, CompiledUnit, Intrinsic, Op};
use crate::superop::{
    eval_bin, eval_cast_word, eval_un_word, word_mask, Delay, SpecializedCode, SuperOp,
};
use llhd::bitcode::{encode_const_value, write_varint};
use llhd::eval::{
    eval_cast, eval_ext_field, eval_ext_slice, eval_ins_field, eval_ins_slice, eval_mux,
    eval_pure, eval_unary,
};
use llhd::ir::{Opcode, UnitId, UnitKind};
use llhd::ty::Type;
use llhd::value::{ApInt, ConstValue, TimeValue};
use llhd_sim::design::{InstanceKind, SignalId};
use llhd_sim::driver::{
    call_depth_exceeded, decode_reg_history, encode_reg_history, reg_fires, Driver, Executor,
    Scratch, MAX_CALL_DEPTH,
};
use llhd_sim::sched::{read_byte, read_const, read_usize, SchedCore};
use llhd_sim::{ElaboratedDesign, IslandPlan, SimConfig, SimError};
use std::borrow::Cow;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

enum Status {
    Ready,
    Suspended { resume: usize },
    Halted,
}

/// One instance's register or memory file. Both vectors span every slot,
/// so one slot index addresses either: a slot of width `w > 0` in the
/// dispatch's width table keeps its value as a masked `w`-bit word in
/// `words`, every other slot a [`ConstValue`] in `values`. The generic
/// dispatch has no width table and keeps every slot in `values`.
struct Cells {
    words: Vec<u64>,
    values: Vec<ConstValue>,
}

impl Cells {
    /// Slot `slot` as a value, a word slot boxed at its width.
    #[inline]
    fn get(&self, widths: &[u8], slot: u32) -> Cow<'_, ConstValue> {
        let slot = slot as usize;
        match widths[slot] {
            0 => Cow::Borrowed(&self.values[slot]),
            width => Cow::Owned(ConstValue::int(usize::from(width), self.words[slot])),
        }
    }

    /// Store `value` into slot `slot`, a word slot keeping its low bits.
    #[inline]
    fn set(&mut self, widths: &[u8], slot: u32, value: ConstValue) {
        let slot = slot as usize;
        match widths[slot] {
            0 => self.values[slot] = value,
            width => {
                self.words[slot] = value.as_int().map_or(0, ApInt::to_u64) & word_mask(width)
            }
        }
    }

    /// Whether slot `slot` holds a truthy value.
    #[inline]
    fn truthy(&self, widths: &[u8], slot: u32) -> bool {
        let slot = slot as usize;
        match widths[slot] {
            0 => self.values[slot].is_truthy(),
            _ => self.words[slot] != 0,
        }
    }
}

/// Dense execution state of one unit instance under the compiled engine.
pub struct InstanceState {
    status: Status,
    regs: Cells,
    mems: Cells,
    states: Vec<Option<ConstValue>>,
    /// The compiled unit this instance executes, held directly so each
    /// activation costs a reference-count bump instead of a map probe.
    unit: Arc<CompiledUnit>,
    /// This instance's signal bindings, copied out of the shared
    /// `CompiledDesign` at construction: `signal()` is on the per-op hot
    /// path (every probe, drive, and wait), and reading it here skips the
    /// `Arc` indirection into the shared design.
    signal_table: Vec<SignalId>,
    /// The specialized superinstruction stream (signal bindings and
    /// constants baked in at instance-bind time). `None` only with
    /// [`crate::compile::BlazeOptions::specialize`] off, which falls back
    /// to the generic per-op dispatch over `unit`.
    code: Option<Arc<SpecializedCode>>,
}

/// The register and memory width tables of an instance's dispatch: the
/// specialized stream's, or none — every slot a value — for the generic
/// one.
fn widths_of(code: Option<&SpecializedCode>) -> (&[u8], &[u8]) {
    match code {
        Some(code) => (&code.widths, &code.mem_widths),
        None => (&[], &[]),
    }
}

/// The compiled engine as an [`Executor`]: the compiled design plus the
/// step limit.
pub struct BlazeExec {
    compiled: Arc<CompiledDesign>,
    max_steps: usize,
}

/// The accelerated simulator: the shared [`Driver`] run loop (reached
/// through `Deref`) over the [`BlazeExec`] executor.
pub struct BlazeSimulator(Driver<BlazeExec>);

impl BlazeSimulator {
    /// Create a simulator for a compiled design. The design is shared
    /// (`Arc`), so repeated simulations served from a design cache reuse
    /// one compilation; a plain [`CompiledDesign`] converts implicitly.
    pub fn new(compiled: impl Into<Arc<CompiledDesign>>, config: SimConfig) -> Self {
        let exec = BlazeExec {
            compiled: compiled.into(),
            max_steps: config.max_steps_per_activation,
        };
        BlazeSimulator(Driver::with_executor(exec, config))
    }

    /// Unwrap the driver, e.g. to box it as a
    /// [`dyn Engine`](llhd_sim::api::Engine).
    pub fn into_driver(self) -> Driver<BlazeExec> {
        self.0
    }
}

impl Deref for BlazeSimulator {
    type Target = Driver<BlazeExec>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for BlazeSimulator {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl Executor for BlazeExec {
    const NAME: &'static str = "blaze";
    type State = InstanceState;

    fn design(&self) -> &ElaboratedDesign {
        &self.compiled.design
    }

    fn allow_drive_drop(&self) -> bool {
        self.compiled.allow_drive_drop
    }

    fn island_plan(&self) -> &IslandPlan {
        &self.compiled.island_plan
    }

    fn build_states(&self, core: &mut SchedCore) -> Vec<InstanceState> {
        let compiled = &*self.compiled;
        let mut states = Vec::with_capacity(compiled.instances.len());
        for (idx, instance) in compiled.instances.iter().enumerate() {
            let unit = Arc::clone(&compiled.units[&instance.unit]);
            // Specialized instances start from the unit's pre-folded
            // register file, narrow slots in words; the generic fallback
            // materializes the unit's constants only, every slot a value.
            let (values, words) = match (&instance.code, &unit.lowered) {
                (Some(_), Some(lowered)) => {
                    (lowered.init_regs.clone(), lowered.init_words.clone())
                }
                _ => (unit.new_regs(), Vec::new()),
            };
            if instance.kind == InstanceKind::Entity {
                // Static sensitivity: every probed or delayed signal slot
                // (the table is pre-resolved at compile time).
                for op in &unit.ops {
                    let slot = match op {
                        Op::Prb { sig, .. } => Some(*sig),
                        Op::Del { source, .. } => Some(*source),
                        _ => None,
                    };
                    if let Some(slot) = slot {
                        core.add_entity_sensitivity(instance.signal_table[slot], idx);
                    }
                }
            }
            states.push(InstanceState {
                status: Status::Ready,
                regs: Cells { words, values },
                mems: Cells {
                    words: vec![0; unit.num_mems],
                    values: vec![ConstValue::Void; unit.num_mems],
                },
                states: vec![None; unit.num_states],
                unit,
                signal_table: instance.signal_table.clone(),
                code: instance.code.clone(),
            });
        }
        states
    }

    fn activate(
        &self,
        st: &mut InstanceState,
        scr: &mut Scratch,
        idx: usize,
        core: &mut SchedCore,
    ) -> Result<(), SimError> {
        run_instance(self, st, scr, idx, core)
    }

    fn is_halted(st: &InstanceState) -> bool {
        matches!(st.status, Status::Halted)
    }

    /// Control state, register file, memory cells, `reg` histories.
    fn encode_state(&self, st: &InstanceState, out: &mut Vec<u8>) {
        match &st.status {
            Status::Ready => out.push(0),
            Status::Suspended { resume } => {
                out.push(1);
                write_varint(out, *resume as u128);
            }
            Status::Halted => out.push(2),
        }
        let (widths, mem_widths) = widths_of(st.code.as_deref());
        encode_cells(out, &st.regs, widths);
        encode_cells(out, &st.mems, mem_widths);
        encode_reg_history(out, &st.states);
    }

    fn decode_state(
        &self,
        st: &mut InstanceState,
        _idx: usize,
        bytes: &[u8],
        pos: &mut usize,
    ) -> Result<(), SimError> {
        st.status = match read_byte(bytes, pos)? {
            0 => Status::Ready,
            1 => {
                let resume = read_usize(bytes, pos)?;
                // Both dispatch modes resume at a block index;
                // bound-check against whichever stream this instance
                // executes.
                let limit = match &st.code {
                    Some(code) => code.block_ranges.len(),
                    None => st.unit.block_ranges.len(),
                };
                if resume >= limit {
                    return Err(SimError::Runtime(
                        "corrupt engine checkpoint: resume target out of range".to_string(),
                    ));
                }
                Status::Suspended { resume }
            }
            2 => Status::Halted,
            other => {
                return Err(SimError::Runtime(format!(
                    "corrupt engine checkpoint: unknown instance status {}",
                    other
                )))
            }
        };
        let (code, unit) = (st.code.clone(), Arc::clone(&st.unit));
        let (widths, mem_widths) = widths_of(code.as_deref());
        decode_cells(&mut st.regs, widths, &unit.reg_types, "register", bytes, pos)?;
        decode_cells(&mut st.mems, mem_widths, &unit.mem_types, "memory", bytes, pos)?;
        decode_reg_history(&mut st.states, &unit.state_types, bytes, pos)
    }
}

/// Append a cell file to a checkpoint: its slot count, then every slot as
/// a constant — a word slot boxed at its width, so the bytes do not
/// depend on which slots are words.
fn encode_cells(out: &mut Vec<u8>, cells: &Cells, widths: &[u8]) {
    write_varint(out, cells.values.len() as u128);
    for (slot, value) in cells.values.iter().enumerate() {
        match widths.get(slot) {
            Some(&width) if width != 0 => encode_const_value(
                out,
                &ConstValue::int(usize::from(width), cells.words[slot]),
            ),
            _ => encode_const_value(out, value),
        }
    }
}

/// Restore a cell file written by [`encode_cells`]. Every value must be
/// void (a slot not yet written) or of its slot's IR type in `types`: a
/// wrongly typed value would panic a width-checked operator a step later.
fn decode_cells(
    cells: &mut Cells,
    widths: &[u8],
    types: &[Type],
    what: &str,
    bytes: &[u8],
    pos: &mut usize,
) -> Result<(), SimError> {
    if read_usize(bytes, pos)? != cells.values.len() {
        return Err(SimError::Runtime(format!(
            "corrupt engine checkpoint: {} count mismatch",
            what
        )));
    }
    for (slot, ty) in types.iter().enumerate() {
        let value = read_const(bytes, pos)?;
        if !matches!(value, ConstValue::Void) && !value.has_type(ty) {
            return Err(SimError::Runtime(format!(
                "corrupt engine checkpoint: {} {} holds a value of the wrong type",
                what, slot
            )));
        }
        match widths.get(slot) {
            Some(&width) if width != 0 => {
                cells.words[slot] = value.as_int().map_or(0, ApInt::to_u64)
            }
            _ => cells.values[slot] = value,
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Activation execution
// ---------------------------------------------------------------------------
//
// The execution core is a set of free functions over the instance state
// and the [`SchedCore`], which they read signals from and schedule drives
// and suspensions into.

fn run_instance(
    cx: &BlazeExec,
    st: &mut InstanceState,
    scr: &mut Scratch,
    idx: usize,
    core: &mut SchedCore,
) -> Result<(), SimError> {
    scr.counters.activations += 1;
    if let Some(code) = &st.code {
        let code = Arc::clone(code);
        return run_instance_spec(cx, st, scr, idx, &code, core);
    }
    let unit = Arc::clone(&st.unit);
    let mut block = match &st.status {
        Status::Halted => return Ok(()),
        Status::Suspended { resume } => *resume,
        Status::Ready => unit.entry,
    };
    st.status = Status::Ready;
    let mut steps = 0usize;
    loop {
        let mut next_block = None;
        for op in unit.block_ops(block) {
            steps += 1;
            if steps > cx.max_steps {
                return Err(SimError::Runtime(format!(
                    "instance {} exceeded the step limit",
                    cx.compiled.instances[idx].name
                )));
            }
            match op {
                Op::Pure {
                    opcode,
                    dst,
                    args,
                    imms,
                } => {
                    scr.args.clear();
                    scr.args.extend(
                        unit.args(*args)
                            .iter()
                            .map(|&a| st.regs.values[a as usize].clone()),
                    );
                    let value = eval_pure(*opcode, &scr.args, imms)
                        .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", opcode)))?;
                    st.regs.values[*dst] = value;
                }
                Op::Prb { dst, sig } => {
                    let signal = st.signal_table[*sig];
                    st.regs.values[*dst] = core.value(signal).clone();
                }
                Op::Drv {
                    sig,
                    value,
                    delay,
                    cond,
                } => {
                    if let Some(cond) = cond {
                        if !st.regs.values[*cond].is_truthy() {
                            continue;
                        }
                    }
                    let signal = st.signal_table[*sig];
                    let value = st.regs.values[*value].clone();
                    let delay = time_reg(st, *delay)?;
                    core.schedule_drive(signal, value, &delay);
                }
                Op::Del {
                    target,
                    source,
                    delay,
                } => {
                    let target = st.signal_table[*target];
                    let source = st.signal_table[*source];
                    let delay = time_reg(st, *delay)?;
                    let value = core.value(source).clone();
                    core.schedule_drive(target, value, &delay);
                }
                Op::Reg { sig, triggers } => {
                    let signal = st.signal_table[*sig];
                    for trigger in triggers {
                        let current = st.regs.values[trigger.trigger].clone();
                        let previous = st.states[trigger.state].take();
                        let fire = reg_fires(trigger.mode, previous.as_ref(), &current);
                        st.states[trigger.state] = Some(current);
                        if !fire {
                            continue;
                        }
                        if let Some(gate) = trigger.gate {
                            if !st.regs.values[gate].is_truthy() {
                                continue;
                            }
                        }
                        let value = st.regs.values[trigger.value].clone();
                        core.schedule_drive(signal, value, &TimeValue::from_delta(1));
                    }
                }
                Op::Var { mem, init } => {
                    st.mems.values[*mem] = st.regs.values[*init].clone();
                }
                Op::Ld { dst, mem } => {
                    st.regs.values[*dst] = st.mems.values[*mem].clone();
                }
                Op::St { mem, value } => {
                    st.mems.values[*mem] = st.regs.values[*value].clone();
                }
                Op::Call {
                    callee,
                    intrinsic,
                    dst,
                    args,
                } => {
                    let args = unit
                        .args(*args)
                        .iter()
                        .map(|&a| st.regs.values[a as usize].clone())
                        .collect();
                    let result = call_op(cx, scr, *callee, *intrinsic, args, 0)?;
                    if let (Some(dst), Some(value)) = (dst, result) {
                        st.regs.values[*dst] = value;
                    }
                }
                Op::Wait {
                    resume,
                    time,
                    observed,
                } => {
                    scr.observed.clear();
                    for &slot in unit.args(*observed) {
                        scr.observed.push(st.signal_table[slot as usize]);
                    }
                    let timeout = match time {
                        Some(t) => Some(time_reg(st, *t)?),
                        None => None,
                    };
                    st.status = Status::Suspended { resume: *resume };
                    core.suspend(idx, &scr.observed, timeout.as_ref());
                    return Ok(());
                }
                Op::Halt => {
                    st.status = Status::Halted;
                    return Ok(());
                }
                Op::Br { target } => {
                    next_block = Some(*target);
                    break;
                }
                Op::BrCond {
                    cond,
                    if_false,
                    if_true,
                } => {
                    next_block = Some(if st.regs.values[*cond].is_truthy() {
                        *if_true
                    } else {
                        *if_false
                    });
                    break;
                }
                Op::Ret { .. } => {
                    return Err(SimError::Runtime("ret outside of a function".to_string()));
                }
            }
        }
        match next_block {
            Some(b) => block = b,
            None => {
                // Entities simply finish their single pass; processes
                // must end in a terminator, which the verifier enforces.
                return Ok(());
            }
        }
    }
}

/// The specialized dispatch loop: executes an instance's baked
/// superinstruction stream. Signal operands are resolved
/// [`SignalId`]s (no table chase), narrow integers compute as machine
/// words, other values evaluate by reference (no operand cloning), and
/// the fused records (`CmpBr`/`Sel`/`BinDrv` and their word forms) retire
/// two source ops per dispatch. Semantics — drive order, suspension,
/// error points — mirror [`run_instance`]'s generic loop exactly; the
/// differential and propcheck suites enforce byte-identical traces.
fn run_instance_spec(
    cx: &BlazeExec,
    st: &mut InstanceState,
    scr: &mut Scratch,
    idx: usize,
    code: &SpecializedCode,
    core: &mut SchedCore,
) -> Result<(), SimError> {
    let (widths, mem_widths) = (&*code.widths, &*code.mem_widths);
    let mut block = match &st.status {
        Status::Halted => return Ok(()),
        Status::Suspended { resume } => *resume,
        Status::Ready => st.unit.entry,
    };
    st.status = Status::Ready;
    let mut steps = 0usize;
    loop {
        let mut next_block = None;
        for op in code.block_ops(block) {
            // Fused records retire two source ops per dispatch; they
            // count as two toward the activation guard so the limit
            // fires at the same executed-op count as the generic loop.
            steps += match op {
                SuperOp::CmpBr { .. }
                | SuperOp::BinDrv { .. }
                | SuperOp::Sel { .. }
                | SuperOp::WCmpBr { .. }
                | SuperOp::WBinDrv { .. }
                | SuperOp::WSel { .. } => 2,
                _ => 1,
            };
            if steps > cx.max_steps {
                return Err(SimError::Runtime(format!(
                    "instance {} exceeded the step limit",
                    cx.compiled.instances[idx].name
                )));
            }
            match op {
                // Word slots: narrow integers as masked machine words.
                SuperOp::WBin {
                    kind,
                    width,
                    dst,
                    a,
                    b,
                } => {
                    let words = &mut st.regs.words;
                    words[*dst as usize] =
                        kind.eval_word(*width, words[*a as usize], words[*b as usize]);
                }
                SuperOp::WUn {
                    opcode,
                    width,
                    dst,
                    a,
                } => {
                    let words = &mut st.regs.words;
                    words[*dst as usize] = eval_un_word(*opcode, *width, words[*a as usize]);
                }
                SuperOp::WCast {
                    opcode,
                    from,
                    to,
                    dst,
                    a,
                } => {
                    let words = &mut st.regs.words;
                    words[*dst as usize] = eval_cast_word(*opcode, *from, *to, words[*a as usize]);
                }
                SuperOp::WExtS {
                    dst,
                    a,
                    offset,
                    width,
                } => {
                    let words = &mut st.regs.words;
                    words[*dst as usize] = (words[*a as usize] >> offset) & word_mask(*width);
                }
                SuperOp::WSel { dst, sel, elems } => {
                    let elems = code.args(*elems);
                    let words = &mut st.regs.words;
                    let index = words[*sel as usize] as usize;
                    words[*dst as usize] = words[elems[index.min(elems.len() - 1)] as usize];
                }
                SuperOp::WCmpBr {
                    kind,
                    width,
                    a,
                    b,
                    if_false,
                    if_true,
                } => {
                    let words = &st.regs.words;
                    let taken = kind.eval_word(*width, words[*a as usize], words[*b as usize]);
                    let target = if taken != 0 { if_true } else { if_false };
                    next_block = Some(*target as usize);
                    break;
                }
                SuperOp::WBinDrv {
                    kind,
                    width,
                    out,
                    a,
                    b,
                    sig,
                    delay,
                    cond,
                } => {
                    // The compute happens unconditionally, exactly like
                    // the unfused pure op preceding the drive.
                    let words = &st.regs.words;
                    let value = kind.eval_word(*width, words[*a as usize], words[*b as usize]);
                    if cond.is_some_and(|c| words[c as usize] == 0) {
                        continue;
                    }
                    let delay = delay_value(st, delay)?;
                    let value = ConstValue::int(usize::from(*out), value);
                    core.schedule_drive(SignalId(*sig as usize), value, &delay);
                }
                SuperOp::WPrb { dst, sig, width } => {
                    let value = core.value(SignalId(*sig as usize));
                    st.regs.words[*dst as usize] =
                        value.as_int().map_or(0, ApInt::to_u64) & word_mask(*width);
                }
                SuperOp::WDrv {
                    sig,
                    value,
                    width,
                    delay,
                    cond,
                } => {
                    let words = &st.regs.words;
                    if cond.is_some_and(|c| words[c as usize] == 0) {
                        continue;
                    }
                    let value = ConstValue::int(usize::from(*width), words[*value as usize]);
                    let delay = delay_value(st, delay)?;
                    core.schedule_drive(SignalId(*sig as usize), value, &delay);
                }
                SuperOp::WLd { dst, mem } => {
                    st.regs.words[*dst as usize] = st.mems.words[*mem as usize];
                }
                SuperOp::WSt { mem, value } => {
                    st.mems.words[*mem as usize] = st.regs.words[*value as usize];
                }
                SuperOp::WBrCond {
                    cond,
                    if_false,
                    if_true,
                } => {
                    let target = if st.regs.words[*cond as usize] != 0 {
                        if_true
                    } else {
                        if_false
                    };
                    next_block = Some(*target as usize);
                    break;
                }
                // Value slots: word operands are boxed on the way in and
                // a word result is unboxed on the way out.
                SuperOp::Bin {
                    kind,
                    opcode,
                    dst,
                    a,
                    b,
                } => {
                    let regs = &st.regs;
                    let value = eval_bin(*kind, *opcode, &regs.get(widths, *a), &regs.get(widths, *b))
                        .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", opcode)))?;
                    st.regs.set(widths, *dst, value);
                }
                SuperOp::Un { opcode, dst, a } => {
                    let value = eval_unary(*opcode, &st.regs.get(widths, *a))
                        .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", opcode)))?;
                    st.regs.set(widths, *dst, value);
                }
                SuperOp::Cast {
                    opcode,
                    dst,
                    a,
                    width,
                } => {
                    let value = eval_cast(*opcode, &st.regs.get(widths, *a), *width as usize)
                        .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", opcode)))?;
                    st.regs.set(widths, *dst, value);
                }
                SuperOp::ExtF { dst, a, index } => {
                    let value = eval_ext_field(&st.regs.get(widths, *a), *index as usize)
                        .ok_or_else(|| {
                            SimError::Runtime(format!("cannot evaluate {}", Opcode::ExtField))
                        })?;
                    st.regs.set(widths, *dst, value);
                }
                SuperOp::ExtS {
                    dst,
                    a,
                    offset,
                    length,
                } => {
                    let value = eval_ext_slice(
                        &st.regs.get(widths, *a),
                        *offset as usize,
                        *length as usize,
                    )
                    .ok_or_else(|| {
                        SimError::Runtime(format!("cannot evaluate {}", Opcode::ExtSlice))
                    })?;
                    st.regs.set(widths, *dst, value);
                }
                SuperOp::InsF { dst, a, b, index } => {
                    let regs = &st.regs;
                    let value =
                        eval_ins_field(&regs.get(widths, *a), &regs.get(widths, *b), *index as usize)
                            .ok_or_else(|| {
                                SimError::Runtime(format!("cannot evaluate {}", Opcode::InsField))
                            })?;
                    st.regs.set(widths, *dst, value);
                }
                SuperOp::InsS { dst, a, b, offset } => {
                    let regs = &st.regs;
                    let value = eval_ins_slice(
                        &regs.get(widths, *a),
                        &regs.get(widths, *b),
                        *offset as usize,
                        0,
                    )
                    .ok_or_else(|| {
                        SimError::Runtime(format!("cannot evaluate {}", Opcode::InsSlice))
                    })?;
                    st.regs.set(widths, *dst, value);
                }
                SuperOp::Mux { dst, choices, sel } => {
                    let regs = &st.regs;
                    let value = eval_mux(&regs.get(widths, *choices), &regs.get(widths, *sel))
                        .ok_or_else(|| {
                            SimError::Runtime(format!("cannot evaluate {}", Opcode::Mux))
                        })?;
                    st.regs.set(widths, *dst, value);
                }
                SuperOp::Sel { dst, sel, elems } => {
                    let elems = code.args(*elems);
                    let index = st.regs.get(widths, *sel).to_u64().ok_or_else(|| {
                        SimError::Runtime(format!("cannot evaluate {}", Opcode::Mux))
                    })? as usize;
                    let pick = elems[index.min(elems.len() - 1)];
                    let value = st.regs.get(widths, pick).into_owned();
                    st.regs.set(widths, *dst, value);
                }
                SuperOp::Pure {
                    opcode,
                    dst,
                    args,
                    imms,
                } => {
                    scr.args.clear();
                    scr.args.extend(
                        code.args(*args)
                            .iter()
                            .map(|&a| st.regs.get(widths, a).into_owned()),
                    );
                    let value = eval_pure(*opcode, &scr.args, imms)
                        .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", opcode)))?;
                    st.regs.set(widths, *dst, value);
                }
                SuperOp::CmpBr {
                    kind,
                    opcode,
                    a,
                    b,
                    if_false,
                    if_true,
                } => {
                    let regs = &st.regs;
                    let value = eval_bin(*kind, *opcode, &regs.get(widths, *a), &regs.get(widths, *b))
                        .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", opcode)))?;
                    let target = if value.is_truthy() { if_true } else { if_false };
                    next_block = Some(*target as usize);
                    break;
                }
                SuperOp::BinDrv {
                    kind,
                    opcode,
                    a,
                    b,
                    sig,
                    delay,
                    cond,
                    ..
                } => {
                    // The compute happens unconditionally, exactly like
                    // the unfused pure op preceding the drive.
                    let regs = &st.regs;
                    let value = eval_bin(*kind, *opcode, &regs.get(widths, *a), &regs.get(widths, *b))
                        .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", opcode)))?;
                    if cond.is_some_and(|c| !st.regs.truthy(widths, c)) {
                        continue;
                    }
                    let delay = delay_value(st, delay)?;
                    core.schedule_drive(SignalId(*sig as usize), value, &delay);
                }
                SuperOp::Prb { dst, sig } => {
                    let value = core.value(SignalId(*sig as usize)).clone();
                    st.regs.set(widths, *dst, value);
                }
                SuperOp::Drv {
                    sig,
                    value,
                    delay,
                    cond,
                } => {
                    if cond.is_some_and(|c| !st.regs.truthy(widths, c)) {
                        continue;
                    }
                    let value = st.regs.get(widths, *value).into_owned();
                    let delay = delay_value(st, delay)?;
                    core.schedule_drive(SignalId(*sig as usize), value, &delay);
                }
                SuperOp::Del {
                    target,
                    source,
                    delay,
                } => {
                    let delay = delay_value(st, delay)?;
                    let value = core.value(SignalId(*source as usize)).clone();
                    core.schedule_drive(SignalId(*target as usize), value, &delay);
                }
                SuperOp::Reg { sig, triggers } => {
                    let signal = SignalId(*sig as usize);
                    for trigger in triggers {
                        let current = st.regs.get(widths, trigger.trigger as u32).into_owned();
                        let previous = st.states[trigger.state].take();
                        let fire = reg_fires(trigger.mode, previous.as_ref(), &current);
                        st.states[trigger.state] = Some(current);
                        if !fire {
                            continue;
                        }
                        if trigger
                            .gate
                            .is_some_and(|gate| !st.regs.truthy(widths, gate as u32))
                        {
                            continue;
                        }
                        let value = st.regs.get(widths, trigger.value as u32).into_owned();
                        core.schedule_drive(signal, value, &TimeValue::from_delta(1));
                    }
                }
                SuperOp::Var { mem, init: value } | SuperOp::St { mem, value } => {
                    let value = st.regs.get(widths, *value).into_owned();
                    st.mems.set(mem_widths, *mem, value);
                }
                SuperOp::Ld { dst, mem } => {
                    let value = st.mems.get(mem_widths, *mem).into_owned();
                    st.regs.set(widths, *dst, value);
                }
                SuperOp::Call {
                    callee,
                    intrinsic,
                    dst,
                    args,
                } => {
                    let args = code
                        .args(*args)
                        .iter()
                        .map(|&a| st.regs.get(widths, a).into_owned())
                        .collect();
                    let result = call_op(cx, scr, *callee, *intrinsic, args, 0)?;
                    if let (Some(dst), Some(value)) = (dst, result) {
                        st.regs.set(widths, *dst, value);
                    }
                }
                SuperOp::Wait {
                    resume,
                    time,
                    observed,
                } => {
                    scr.observed.clear();
                    for &sig in code.args(*observed) {
                        scr.observed.push(SignalId(sig as usize));
                    }
                    let timeout = match time {
                        Some(t) => Some(delay_value(st, t)?),
                        None => None,
                    };
                    st.status = Status::Suspended {
                        resume: *resume as usize,
                    };
                    core.suspend(idx, &scr.observed, timeout.as_ref());
                    return Ok(());
                }
                SuperOp::Halt => {
                    st.status = Status::Halted;
                    return Ok(());
                }
                SuperOp::Br { target } => {
                    next_block = Some(*target as usize);
                    break;
                }
                SuperOp::BrCond {
                    cond,
                    if_false,
                    if_true,
                } => {
                    let target = if st.regs.truthy(widths, *cond) {
                        if_true
                    } else {
                        if_false
                    };
                    next_block = Some(*target as usize);
                    break;
                }
                SuperOp::Ret => {
                    return Err(SimError::Runtime("ret outside of a function".to_string()));
                }
            }
        }
        match next_block {
            Some(b) => block = b,
            None => {
                // Entities simply finish their single pass; processes
                // must end in a terminator, which the verifier enforces.
                return Ok(());
            }
        }
    }
}

/// Resolve a (possibly baked) delay operand to its time value.
fn delay_value(st: &InstanceState, delay: &Delay) -> Result<TimeValue, SimError> {
    match delay {
        Delay::Const(t) => Ok(*t),
        Delay::Reg(slot) => time_reg(st, *slot as usize),
    }
}

fn time_reg(st: &InstanceState, slot: usize) -> Result<TimeValue, SimError> {
    st.regs.values[slot]
        .as_time()
        .copied()
        .ok_or_else(|| SimError::Runtime("expected a time value".to_string()))
}

/// Execute a call op: an intrinsic, or a compiled function one frame
/// deeper than the `depth` already active.
fn call_op(
    cx: &BlazeExec,
    scr: &mut Scratch,
    callee: Option<UnitId>,
    intrinsic: Option<Intrinsic>,
    args: Vec<ConstValue>,
    depth: usize,
) -> Result<Option<ConstValue>, SimError> {
    Ok(match intrinsic {
        Some(Intrinsic::Assert) => {
            scr.counters.assertions_checked += 1;
            if !args.first().map(|a| a.is_truthy()).unwrap_or(false) {
                scr.counters.assertion_failures += 1;
            }
            None
        }
        Some(Intrinsic::Ignore) => None,
        None => call_function(cx, scr, callee.unwrap(), &args, depth + 1)?,
    })
}

/// Execute a compiled function. `depth` counts the function frames
/// active including this one (1 when called from an instance body).
fn call_function(
    cx: &BlazeExec,
    scr: &mut Scratch,
    callee: UnitId,
    args: &[ConstValue],
    depth: usize,
) -> Result<Option<ConstValue>, SimError> {
    let unit = Arc::clone(&cx.compiled.units[&callee]);
    if unit.kind != UnitKind::Function {
        return Err(SimError::Runtime(format!(
            "call target {} is not a function",
            unit.name
        )));
    }
    if depth > MAX_CALL_DEPTH {
        return Err(call_depth_exceeded(&unit.name));
    }
    let mut regs = unit.new_regs();
    let mut mems = vec![ConstValue::Void; unit.num_mems];
    for (slot, value) in unit.arg_regs.iter().zip(args.iter()) {
        regs[*slot] = value.clone();
    }
    let mut block = unit.entry;
    let mut steps = 0usize;
    loop {
        let mut next_block = None;
        for op in unit.block_ops(block) {
            steps += 1;
            if steps > cx.max_steps {
                return Err(SimError::Runtime(format!(
                    "function {} exceeded the step limit",
                    unit.name
                )));
            }
            match op {
                Op::Pure {
                    opcode,
                    dst,
                    args,
                    imms,
                } => {
                    // Sharing `scr.args` across call frames is fine: the
                    // buffer only lives across one eval_pure, and pure
                    // ops never recurse into another frame.
                    scr.args.clear();
                    scr.args
                        .extend(unit.args(*args).iter().map(|&a| regs[a as usize].clone()));
                    let value = eval_pure(*opcode, &scr.args, imms)
                        .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", opcode)))?;
                    regs[*dst] = value;
                }
                Op::Var { mem, init } => mems[*mem] = regs[*init].clone(),
                Op::Ld { dst, mem } => regs[*dst] = mems[*mem].clone(),
                Op::St { mem, value } => mems[*mem] = regs[*value].clone(),
                Op::Call {
                    callee,
                    intrinsic,
                    dst,
                    args,
                } => {
                    let args = unit.args(*args).iter().map(|&a| regs[a as usize].clone()).collect();
                    let result = call_op(cx, scr, *callee, *intrinsic, args, depth)?;
                    if let (Some(dst), Some(value)) = (dst, result) {
                        regs[*dst] = value;
                    }
                }
                Op::Br { target } => {
                    next_block = Some(*target);
                    break;
                }
                Op::BrCond {
                    cond,
                    if_false,
                    if_true,
                } => {
                    next_block = Some(if regs[*cond].is_truthy() {
                        *if_true
                    } else {
                        *if_false
                    });
                    break;
                }
                Op::Ret { value } => {
                    return Ok(value.map(|v| regs[v].clone()));
                }
                _ => {
                    return Err(SimError::Runtime(
                        "unsupported operation in function".to_string(),
                    ))
                }
            }
        }
        match next_block {
            Some(b) => block = b,
            None => return Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session;
    use llhd::assembly::parse_module;
    use llhd_sim::api::{EngineKind, SimSession};
    use llhd_sim::SimResult;

    /// Compiled runs constructed through the unified session surface.
    fn simulate(
        module: &llhd::ir::Module,
        top: &str,
        config: &SimConfig,
    ) -> Result<SimResult, llhd_sim::api::Error> {
        session(module, top)
            .engine(EngineKind::Compile)
            .config(config.clone())
            .build()?
            .run()
    }

    /// Interpreter runs, for differential checks.
    fn simulate_reference(
        module: &llhd::ir::Module,
        top: &str,
        config: &SimConfig,
    ) -> Result<SimResult, llhd_sim::api::Error> {
        SimSession::builder(module, top)
            .engine(EngineKind::Interpret)
            .config(config.clone())
            .build()?
            .run()
    }

    #[test]
    fn compiled_counter_matches_reference() {
        let module = parse_module(
            r#"
            proc @counter (i1$ %clk) -> (i8$ %out) {
            entry:
                %zero = const i8 0
                %i = var i8 %zero
                br %loop
            loop:
                %cur = ld i8* %i
                %one = const i8 1
                %next = add i8 %cur, %one
                st i8* %i, %next
                %delay = const time 1ns
                drv i8$ %out, %next after %delay
                wait %loop for %delay
            }
            "#,
        )
        .unwrap();
        let config = SimConfig::until_nanos(50);
        let reference = simulate_reference(&module, "counter", &config).unwrap();
        let blaze = simulate(&module, "counter", &config).unwrap();
        assert!(reference.trace.equivalent(&blaze.trace));
        assert_eq!(reference.signal_changes, blaze.signal_changes);
        let last = blaze.trace.changes_of("out").last().unwrap().clone();
        assert_eq!(last.value, ConstValue::int(8, 50));
    }

    /// Checkpoint mid-run, discard the session, restore into a fresh
    /// compiled engine, and resume: the final trace must be byte-identical
    /// to an uninterrupted run. Processes carry variables and a resume
    /// block across the boundary, which exercises the per-instance state.
    #[test]
    fn checkpoint_resume_matches_uninterrupted_compiled_run() {
        let module = parse_module(
            r#"
            proc @counter (i1$ %clk) -> (i8$ %out) {
            entry:
                %zero = const i8 0
                %i = var i8 %zero
                br %loop
            loop:
                %cur = ld i8* %i
                %one = const i8 1
                %next = add i8 %cur, %one
                st i8* %i, %next
                %delay = const time 1ns
                drv i8$ %out, %next after %delay
                wait %loop for %delay
            }
            "#,
        )
        .unwrap();
        let config = SimConfig::until_nanos(50);
        let full = simulate(&module, "counter", &config).unwrap();
        let mut first = session(&module, "counter")
            .engine(EngineKind::Compile)
            .config(config.clone())
            .build()
            .unwrap();
        for _ in 0..7 {
            first.step().unwrap();
        }
        let state = first.checkpoint().unwrap();
        assert_eq!(state.engine_name().unwrap(), "blaze");
        drop(first);
        let mut resumed = session(&module, "counter")
            .engine(EngineKind::Compile)
            .config(config.clone())
            .build()
            .unwrap();
        resumed.restore(&state).unwrap();
        while resumed.step().unwrap() {}
        let result = resumed.finish().unwrap();
        assert_eq!(full.trace.events(), result.trace.events());
        assert_eq!(full.end_time, result.end_time);
        assert_eq!(full.signal_changes, result.signal_changes);
        assert_eq!(full.activations, result.activations);
        // A blaze checkpoint must not restore into the interpreter.
        let mut interp = SimSession::builder(&module, "counter")
            .engine(EngineKind::Interpret)
            .config(config.clone())
            .build()
            .unwrap();
        assert!(interp.restore(&state).is_err());
    }

    /// Narrow integers compute in the word file and everything else as
    /// values; ops that cross between the two box and unbox. `i8` signed
    /// division by negative and zero divisors, shifts past the width,
    /// `i80` arithmetic fed by and feeding `i8` words, and a selection
    /// over words must trace exactly like the interpreter, also when
    /// resumed from a checkpoint cut through both files.
    #[test]
    fn word_and_value_slots_match_the_interpreter() {
        let module = parse_module(
            r#"
            proc @mix (i8$ %a, i8$ %b) -> (i8$ %q, i80$ %w, i64$ %s) {
            entry:
                %one = const i8 1
                %t = const time 1ns
                %i = var i8 %one
                br %loop
            loop:
                %ap = prb i8$ %a
                %bp = prb i8$ %b
                %cur = ld i8* %i
                %sum = add i8 %ap, %cur
                %quo = sdiv i8 %sum, %bp
                %rem = smod i8 %sum, %bp
                %mix = xor i8 %quo, %rem
                %sh = shl i8 %mix, %cur
                %wide = zext i80 %sum
                %sq = umul i80 %wide, %wide
                %w2 = shl i80 %sq, %cur
                %back = trunc i8 %w2
                %hi = exts i8 %w2, 70, 8
                %s64 = sext i64 %back
                %neg = neg i64 %s64
                %opts = array [%sum, %back, %hi]
                %pick = mux [3 x i8] %opts, %cur
                %q0 = xor i8 %pick, %sh
                %next = add i8 %cur, %one
                st i8* %i, %next
                drv i8$ %q, %q0 after %t
                drv i80$ %w, %w2 after %t
                drv i64$ %s, %neg after %t
                wait %loop for %t
            }
            proc @stim () -> (i8$ %a, i8$ %b) {
            entry:
                %t = const time 1ns
                %z = const i8 0
                %k = const i8 37
                %i = var i8 %z
                br %loop
            loop:
                %v = ld i8* %i
                %n = add i8 %v, %k
                st i8* %i, %n
                %m = sub i8 %z, %v
                drv i8$ %a, %n after %t
                drv i8$ %b, %m after %t
                wait %loop for %t
            }
            entity @top () -> () {
                %z8 = const i8 0
                %z64 = const i64 0
                %z80 = const i80 0
                %a = sig i8 %z8
                %b = sig i8 %z8
                %q = sig i8 %z8
                %w = sig i80 %z80
                %s = sig i64 %z64
                inst @mix (%a, %b) -> (%q, %w, %s)
                inst @stim () -> (%a, %b)
            }
            "#,
        )
        .unwrap();
        let config = SimConfig::until_nanos(80);
        let reference = simulate_reference(&module, "top", &config).unwrap();
        let blaze = simulate(&module, "top", &config).unwrap();
        assert_eq!(reference.trace.events(), blaze.trace.events());
        assert_eq!(reference.signal_changes, blaze.signal_changes);
        // The loop really runs both kinds of code.
        let design = llhd_sim::elaborate(&module, "top").unwrap();
        let compiled = crate::compile_design(&module, design).unwrap();
        let mix = compiled
            .instances
            .iter()
            .find(|i| i.name.contains("mix"))
            .unwrap();
        let ops = &mix.code.as_ref().expect("the looping process specializes").ops;
        assert!(ops.iter().any(|op| matches!(op, SuperOp::WBin { .. })));
        assert!(ops.iter().any(|op| matches!(op, SuperOp::Bin { .. })));
        // A checkpoint cut through both files resumes byte-identically.
        let build = || {
            session(&module, "top")
                .engine(EngineKind::Compile)
                .config(config.clone())
                .build()
                .unwrap()
        };
        let mut first = build();
        for _ in 0..9 {
            first.step().unwrap();
        }
        let state = first.checkpoint().unwrap();
        let mut resumed = build();
        resumed.restore(&state).unwrap();
        while resumed.step().unwrap() {}
        assert_eq!(resumed.finish().unwrap().trace.events(), blaze.trace.events());
    }

    /// A failed step poisons the engine under the *specialized* dispatch
    /// loop exactly like it did under the generic one: the error replays
    /// on every later step instead of silently resuming the half-applied
    /// cycle.
    #[test]
    fn poisoned_engine_replays_error_under_specialized_dispatch() {
        // A zero-delay inverter pair oscillates forever within one
        // instant; the delta-cycle guard fails the step mid-run. Entities
        // always take the specialized stream, which the test asserts.
        let module = parse_module(
            r#"
            entity @inv (i1$ %a) -> (i1$ %q) {
                %ap = prb i1$ %a
                %n = not i1 %ap
                %delay = const time 0s
                drv i1$ %q, %n after %delay
            }
            entity @top () -> () {
                %zero = const i1 0
                %x = sig i1 %zero
                %y = sig i1 %zero
                inst @inv (%x) -> (%y)
                inst @inv (%y) -> (%x)
            }
            "#,
        )
        .unwrap();
        let design = llhd_sim::elaborate(&module, "top").unwrap();
        let compiled = crate::compile_design(&module, design).unwrap();
        assert!(
            compiled
                .instances
                .iter()
                .filter(|i| i.kind == llhd_sim::design::InstanceKind::Entity)
                .all(|i| i.code.is_some()),
            "entities must execute the specialized stream"
        );
        let mut sim = BlazeSimulator::new(compiled, SimConfig::until_nanos(10));
        let first = loop {
            match sim.step() {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(first, SimError::Runtime(_)));
        // Later steps replay the failure instead of continuing from the
        // half-applied cycle, and so does a fresh initialize.
        assert_eq!(sim.step().unwrap_err(), first);
        assert_eq!(sim.step().unwrap_err(), first);
        sim.initialize().unwrap_err();
    }

    /// The specialized loop hits the same error points as the generic
    /// one: a `ret` outside a function fails the activation, and the
    /// session replays it.
    #[test]
    fn ret_in_specialized_process_poisons_and_replays() {
        // The wait's back edge makes the process eligible for
        // specialization; the false branch of the entry compare reaches
        // the illegal `ret` on the very first activation.
        let module = parse_module(
            r#"
            proc @bad (i1$ %c) -> () {
            entry:
                %cp = prb i1$ %c
                %t = const time 1ns
                br %cp, %stop, %again
            again:
                wait %entry for %t
            stop:
                ret
            }
            entity @top () -> () {
                %zero = const i1 0
                %c = sig i1 %zero
                inst @bad (%c) -> ()
            }
            "#,
        )
        .unwrap();
        let design = llhd_sim::elaborate(&module, "top").unwrap();
        let compiled = crate::compile_design(&module, design).unwrap();
        assert!(
            compiled
                .instances
                .iter()
                .filter(|i| i.kind == InstanceKind::Process)
                .all(|i| i.code.is_some()),
            "the looping process must execute the specialized stream"
        );
        let mut sim = BlazeSimulator::new(compiled, SimConfig::until_nanos(10));
        let first = sim.initialize().unwrap_err();
        assert!(matches!(first, SimError::Runtime(_)));
        assert_eq!(first.to_string(), "runtime error: ret outside of a function");
        assert_eq!(sim.initialize().unwrap_err(), first);
        assert_eq!(sim.step().unwrap_err(), first);
    }

    #[test]
    fn assertions_work_in_compiled_functions() {
        let module = parse_module(
            r#"
            func @square (i8 %x) i8 {
            entry:
                %r = umul i8 %x, %x
                ret i8 %r
            }
            proc @tb () -> () {
            entry:
                %three = const i8 3
                %nine = const i8 9
                %sq = call i8 @square (%three)
                %ok = eq i8 %sq, %nine
                call void @llhd.assert (%ok)
                %bad = const i8 8
                %notok = eq i8 %sq, %bad
                call void @llhd.assert (%notok)
                halt
            }
            "#,
        )
        .unwrap();
        let result = simulate(&module, "tb", &SimConfig::until_nanos(10)).unwrap();
        assert_eq!(result.assertions_checked, 2);
        assert_eq!(result.assertion_failures, 1);
    }
}
