//! The execution engine operating on compiled designs.
//!
//! Scheduling (event queue, delta cycles, sensitivity) comes from the
//! shared hot-path core in [`llhd_sim::sched`] — exactly the code the
//! reference interpreter runs on, which is what makes the two engines'
//! traces byte-identical. The difference is that unit bodies execute a
//! specialized superinstruction stream over dense register files with
//! pre-resolved operand indices instead of interpreting the IR data
//! structures: SSA values, memory cells, signal references, and `reg`
//! histories are all flat-array accesses whose indices were computed ahead
//! of time by [`crate::compile`] and [`crate::superop`]. Every narrow
//! integer is a machine word (see
//! [`LoweredUnit::widths`](crate::superop::LoweredUnit::widths)). One
//! dispatch loop runs instance bodies and function calls alike.

use crate::compile::{CompiledDesign, CompiledUnit, Intrinsic};
use crate::superop::{eval_cast_word, eval_un_word, word_mask, Delay, SpecializedCode, SuperOp};
use llhd::bitcode::{encode_const_value, write_varint};
use llhd::eval::{
    eval_binary, eval_cast, eval_ext_field, eval_ext_slice, eval_ins_field, eval_ins_slice,
    eval_mux, eval_pure, eval_unary,
};
use llhd::ir::{Opcode, UnitId};
use llhd::ty::Type;
use llhd::value::{ApInt, ConstValue, TimeValue};
use llhd_sim::design::{InstanceKind, SignalId};
use llhd_sim::driver::{
    call_depth_exceeded, decode_reg_history, encode_reg_history, reg_fires, Driver, Executor,
    Scratch, MAX_CALL_DEPTH,
};
use llhd_sim::sched::{read_byte, read_const, read_usize, SchedCore};
use llhd_sim::{ElaboratedDesign, SimConfig, SimError};
use std::borrow::Cow;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

enum Status {
    Ready,
    Suspended { resume: usize },
    Halted,
}

/// One frame's register or memory file. Both vectors span every slot, so
/// one slot index addresses either: a slot of width `w > 0` in the
/// stream's width table keeps its value as a masked `w`-bit word in
/// `words`, every other slot a [`ConstValue`] in `values`.
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
            width => self.words[slot] = value.as_int().map_or(0, ApInt::to_u64) & word_mask(width),
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

/// The storage of one activation record: an instance's, which lives from
/// one activation to the next, or one function call's.
struct Frame {
    regs: Cells,
    mems: Cells,
    /// The `reg` trigger histories (a function body fails on a `reg`).
    states: Vec<Option<ConstValue>>,
}

impl Frame {
    /// A fresh frame for `unit`: its pre-folded register file, narrow
    /// slots in words, and unwritten memory cells.
    fn new(unit: &CompiledUnit) -> Frame {
        let lowered = unit.lowered();
        Frame {
            regs: Cells {
                words: lowered.init_words.clone(),
                values: lowered.init_regs.clone(),
            },
            mems: Cells {
                words: vec![0; unit.num_mems],
                values: vec![ConstValue::Void; unit.num_mems],
            },
            states: vec![None; unit.num_states],
        }
    }
}

/// Dense execution state of one unit instance under the compiled engine.
pub struct InstanceState {
    status: Status,
    frame: Frame,
    /// The compiled unit this instance executes, held directly so each
    /// activation costs a reference-count bump instead of a map probe.
    unit: Arc<CompiledUnit>,
    /// The specialized superinstruction stream (signal bindings and
    /// constants baked in at instance-bind time).
    code: Arc<SpecializedCode>,
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

    fn build_states(&self, core: &mut SchedCore) -> Vec<InstanceState> {
        let compiled = &*self.compiled;
        let mut states = Vec::with_capacity(compiled.instances.len());
        for (idx, instance) in compiled.instances.iter().enumerate() {
            let unit = Arc::clone(&compiled.units[&instance.unit]);
            if instance.kind == InstanceKind::Entity {
                // Static sensitivity: every probed or delayed signal, already
                // resolved in the specialized stream.
                for op in &instance.code.ops {
                    if let SuperOp::Prb { sig, .. }
                    | SuperOp::WPrb { sig, .. }
                    | SuperOp::Del { source: sig, .. } = op
                    {
                        core.add_entity_sensitivity(SignalId(*sig as usize), idx);
                    }
                }
            }
            states.push(InstanceState {
                status: Status::Ready,
                frame: Frame::new(&unit),
                unit,
                code: Arc::clone(&instance.code),
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
        encode_cells(out, &st.frame.regs, &st.code.widths);
        encode_cells(out, &st.frame.mems, &st.code.mem_widths);
        encode_reg_history(out, &st.frame.states);
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
                if resume >= st.code.block_ranges.len() {
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
        let (code, unit, frame) = (&st.code, &st.unit, &mut st.frame);
        decode_cells(
            &mut frame.regs,
            &code.widths,
            &unit.reg_types,
            "register",
            bytes,
            pos,
        )?;
        decode_cells(
            &mut frame.mems,
            &code.mem_widths,
            &unit.mem_types,
            "memory",
            bytes,
            pos,
        )?;
        decode_reg_history(&mut frame.states, &unit.state_types, bytes, pos)
    }
}

/// Append a cell file to a checkpoint: its slot count, then every slot as
/// a constant — a word slot boxed at its width, so the bytes do not
/// depend on which slots are words.
fn encode_cells(out: &mut Vec<u8>, cells: &Cells, widths: &[u8]) {
    write_varint(out, cells.values.len() as u128);
    for slot in 0..cells.values.len() {
        encode_const_value(out, &cells.get(widths, slot as u32));
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
        cells.set(widths, slot as u32, value);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Activation execution
// ---------------------------------------------------------------------------
//
// The execution core is a set of free functions over a frame and an
// environment: an instance body reads signals from the [`SchedCore`] and
// schedules drives and suspensions into it; a function call reaches
// nothing beyond its own frame.

/// What a run of the dispatch loop reaches beyond its frame.
trait Env {
    /// The scheduler, or the error a signal or time op raises where there
    /// is none.
    fn core(&mut self) -> Result<&mut SchedCore, SimError>;
    /// The error for a run past the per-activation step limit.
    fn step_limit(&self, cx: &BlazeExec) -> SimError;
}

/// An instance body's environment: the scheduler and the instance index.
struct InstanceEnv<'a> {
    core: &'a mut SchedCore,
    idx: usize,
}

impl Env for InstanceEnv<'_> {
    #[inline]
    fn core(&mut self) -> Result<&mut SchedCore, SimError> {
        Ok(self.core)
    }

    fn step_limit(&self, cx: &BlazeExec) -> SimError {
        SimError::Runtime(format!(
            "instance {} exceeded the step limit",
            cx.compiled.instances[self.idx].name
        ))
    }
}

/// A function call's environment: no scheduler, so a signal or time op —
/// which the verifier rejects, but `compile_design` does not require a
/// verified module — fails instead of touching a signal.
struct FunctionEnv<'a> {
    name: &'a str,
}

impl Env for FunctionEnv<'_> {
    fn core(&mut self) -> Result<&mut SchedCore, SimError> {
        Err(unsupported_in_function())
    }

    fn step_limit(&self, _cx: &BlazeExec) -> SimError {
        SimError::Runtime(format!("function {} exceeded the step limit", self.name))
    }
}

fn unsupported_in_function() -> SimError {
    SimError::Runtime("unsupported operation in function".to_string())
}

/// How a run of the dispatch loop ended.
enum Flow {
    /// Control ran off the end of a block: an entity's pass is done.
    End,
    /// A `wait`: resume at block `resume` after `timeout` or a change of
    /// a signal the loop left in [`Scratch::observed`].
    Wait {
        resume: usize,
        timeout: Option<TimeValue>,
    },
    /// A `halt`.
    Halt,
    /// A `ret`, with the returned value.
    Return(Option<ConstValue>),
}

fn run_instance(
    cx: &BlazeExec,
    st: &mut InstanceState,
    scr: &mut Scratch,
    idx: usize,
    core: &mut SchedCore,
) -> Result<(), SimError> {
    scr.counters.activations += 1;
    let block = match &st.status {
        Status::Halted => return Ok(()),
        Status::Suspended { resume } => *resume,
        Status::Ready => st.unit.entry,
    };
    st.status = Status::Ready;
    let mut env = InstanceEnv { core, idx };
    match exec(cx, &st.code, &mut st.frame, &mut env, scr, block, 0)? {
        Flow::End => {}
        Flow::Wait { resume, timeout } => {
            st.status = Status::Suspended { resume };
            env.core.suspend(idx, &scr.observed, timeout.as_ref());
        }
        Flow::Halt => st.status = Status::Halted,
        Flow::Return(_) => {
            return Err(SimError::Runtime("ret outside of a function".to_string()));
        }
    }
    Ok(())
}

/// The dispatch loop: runs `code` over `frame` from block `block` until a
/// `wait`, `halt` or `ret`, or until control runs off the end of a block.
/// `depth` counts the function frames active, this one included (0 in an
/// instance body).
///
/// A call recurses through here, so this loop holds only the step guard,
/// the calls and the block transitions, and [`step`] runs every other op:
/// in an unoptimized build each nested call then costs the host stack
/// this small frame, and [`MAX_CALL_DEPTH`] of them fit a 2 MiB thread
/// stack.
fn exec<E: Env>(
    cx: &BlazeExec,
    code: &SpecializedCode,
    frame: &mut Frame,
    env: &mut E,
    scr: &mut Scratch,
    mut block: usize,
    depth: usize,
) -> Result<Flow, SimError> {
    let mut steps = 0usize;
    loop {
        let mut next_block = None;
        for op in code.block_ops(block) {
            // Fused records count as the two source ops they retire
            // toward the activation guard.
            steps += match op {
                SuperOp::WCmpBr { .. } | SuperOp::WBinDrv { .. } | SuperOp::WSel { .. } => 2,
                _ => 1,
            };
            if steps > cx.max_steps {
                return Err(env.step_limit(cx));
            }
            let next = match op {
                SuperOp::Call {
                    callee,
                    intrinsic,
                    dst,
                    args,
                } => {
                    let widths = &*code.widths;
                    let args = code
                        .args(*args)
                        .iter()
                        .map(|&a| frame.regs.get(widths, a).into_owned())
                        .collect();
                    let result = call_op(cx, scr, *callee, *intrinsic, args, depth)?;
                    if let (Some(dst), Some(value)) = (dst, result) {
                        frame.regs.set(widths, *dst, value);
                    }
                    Next::Op
                }
                _ => step(code, op, frame, env, scr)?,
            };
            match next {
                Next::Op => {}
                Next::Block(target) => {
                    next_block = Some(target);
                    break;
                }
                Next::Exit(flow) => return Ok(flow),
            }
        }
        match next_block {
            Some(b) => block = b,
            // Entities simply finish their single pass; processes must end
            // in a terminator, which the verifier enforces.
            None => return Ok(Flow::End),
        }
    }
}

/// Where control goes after one op.
enum Next {
    /// On to the following op of the block.
    Op,
    /// To the start of a block.
    Block(usize),
    /// Out of the dispatch loop.
    Exit(Flow),
}

/// Execute one op other than a call. Signal operands are resolved
/// [`SignalId`]s (no table chase), narrow integers compute as machine
/// words, other values evaluate by reference (no operand cloning), and
/// the fused word records (`WCmpBr`/`WSel`/`WBinDrv`) retire two source
/// ops per dispatch.
///
/// Optimized builds inline it into [`exec`], the only caller, so an op
/// costs no call; unoptimized builds keep it out of line, so its large
/// frame stays off the recursion of nested calls.
#[cfg_attr(not(debug_assertions), inline(always))]
fn step<E: Env>(
    code: &SpecializedCode,
    op: &SuperOp,
    frame: &mut Frame,
    env: &mut E,
    scr: &mut Scratch,
) -> Result<Next, SimError> {
    let (widths, mem_widths) = (&*code.widths, &*code.mem_widths);
    match op {
        // Word slots: narrow integers as masked machine words.
        SuperOp::WBin {
            kind,
            width,
            dst,
            a,
            b,
        } => {
            let words = &mut frame.regs.words;
            words[*dst as usize] = kind.eval_word(*width, words[*a as usize], words[*b as usize]);
        }
        SuperOp::WUn {
            opcode,
            width,
            dst,
            a,
        } => {
            let words = &mut frame.regs.words;
            words[*dst as usize] = eval_un_word(*opcode, *width, words[*a as usize]);
        }
        SuperOp::WCast {
            opcode,
            from,
            to,
            dst,
            a,
        } => {
            let words = &mut frame.regs.words;
            words[*dst as usize] = eval_cast_word(*opcode, *from, *to, words[*a as usize]);
        }
        SuperOp::WExtS {
            dst,
            a,
            offset,
            width,
        } => {
            let words = &mut frame.regs.words;
            words[*dst as usize] = (words[*a as usize] >> offset) & word_mask(*width);
        }
        SuperOp::WSel { dst, sel, elems } => {
            let elems = code.args(*elems);
            let regs = &mut frame.regs;
            let index = regs.words[*sel as usize] as usize;
            let (dst, elem) = (*dst as usize, elems[index.min(elems.len() - 1)] as usize);
            match widths[dst] {
                0 => regs.values[dst] = regs.values[elem].clone(),
                _ => regs.words[dst] = regs.words[elem],
            }
        }
        SuperOp::WCmpBr {
            kind,
            width,
            a,
            b,
            if_false,
            if_true,
        } => {
            let words = &frame.regs.words;
            let taken = kind.eval_word(*width, words[*a as usize], words[*b as usize]);
            let target = if taken != 0 { if_true } else { if_false };
            return Ok(Next::Block(*target as usize));
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
            let core = env.core()?;
            // The compute happens unconditionally, exactly like
            // the unfused pure op preceding the drive.
            let words = &frame.regs.words;
            let value = kind.eval_word(*width, words[*a as usize], words[*b as usize]);
            if cond.is_some_and(|c| words[c as usize] == 0) {
                return Ok(Next::Op);
            }
            let delay = delay_value(&frame.regs, delay)?;
            core.schedule_word(SignalId(*sig as usize), *out, value, &delay);
        }
        SuperOp::WPrb { dst, sig, width } => {
            let word = env.core()?.word(SignalId(*sig as usize));
            frame.regs.words[*dst as usize] = word & word_mask(*width);
        }
        SuperOp::WDrv {
            sig,
            value,
            width,
            delay,
            cond,
        } => {
            let core = env.core()?;
            let words = &frame.regs.words;
            if cond.is_some_and(|c| words[c as usize] == 0) {
                return Ok(Next::Op);
            }
            let word = words[*value as usize];
            let delay = delay_value(&frame.regs, delay)?;
            core.schedule_word(SignalId(*sig as usize), *width, word, &delay);
        }
        SuperOp::WLd { dst, mem } => {
            frame.regs.words[*dst as usize] = frame.mems.words[*mem as usize];
        }
        SuperOp::WSt { mem, value } => {
            frame.mems.words[*mem as usize] = frame.regs.words[*value as usize];
        }
        SuperOp::WBrCond {
            cond,
            if_false,
            if_true,
        } => {
            let target = if frame.regs.words[*cond as usize] != 0 {
                if_true
            } else {
                if_false
            };
            return Ok(Next::Block(*target as usize));
        }
        // Value slots: word operands are boxed on the way in and
        // a word result is unboxed on the way out.
        SuperOp::Bin { opcode, dst, a, b } => {
            let regs = &frame.regs;
            let value = eval_binary(*opcode, &regs.get(widths, *a), &regs.get(widths, *b))
                .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", opcode)))?;
            frame.regs.set(widths, *dst, value);
        }
        SuperOp::Un { opcode, dst, a } => {
            let value = eval_unary(*opcode, &frame.regs.get(widths, *a))
                .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", opcode)))?;
            frame.regs.set(widths, *dst, value);
        }
        SuperOp::Cast {
            opcode,
            dst,
            a,
            width,
        } => {
            let value = eval_cast(*opcode, &frame.regs.get(widths, *a), *width as usize)
                .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", opcode)))?;
            frame.regs.set(widths, *dst, value);
        }
        SuperOp::ExtF { dst, a, index } => {
            let value =
                eval_ext_field(&frame.regs.get(widths, *a), *index as usize).ok_or_else(|| {
                    SimError::Runtime(format!("cannot evaluate {}", Opcode::ExtField))
                })?;
            frame.regs.set(widths, *dst, value);
        }
        SuperOp::ExtS {
            dst,
            a,
            offset,
            length,
        } => {
            let value = eval_ext_slice(
                &frame.regs.get(widths, *a),
                *offset as usize,
                *length as usize,
            )
            .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", Opcode::ExtSlice)))?;
            frame.regs.set(widths, *dst, value);
        }
        SuperOp::InsF { dst, a, b, index } => {
            let regs = &frame.regs;
            let value = eval_ins_field(
                &regs.get(widths, *a),
                &regs.get(widths, *b),
                *index as usize,
            )
            .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", Opcode::InsField)))?;
            frame.regs.set(widths, *dst, value);
        }
        SuperOp::InsS { dst, a, b, offset } => {
            let regs = &frame.regs;
            let value = eval_ins_slice(
                &regs.get(widths, *a),
                &regs.get(widths, *b),
                *offset as usize,
                0,
            )
            .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", Opcode::InsSlice)))?;
            frame.regs.set(widths, *dst, value);
        }
        SuperOp::Mux { dst, choices, sel } => {
            let regs = &frame.regs;
            let value = eval_mux(&regs.get(widths, *choices), &regs.get(widths, *sel))
                .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", Opcode::Mux)))?;
            frame.regs.set(widths, *dst, value);
        }
        SuperOp::Pure {
            opcode,
            dst,
            args,
            imms,
        } => {
            // Sharing `scr.args` across call frames is fine: the
            // buffer only lives across one `eval_pure`, which
            // never enters another frame.
            scr.args.clear();
            scr.args.extend(
                code.args(*args)
                    .iter()
                    .map(|&a| frame.regs.get(widths, a).into_owned()),
            );
            let value = eval_pure(*opcode, &scr.args, imms)
                .ok_or_else(|| SimError::Runtime(format!("cannot evaluate {}", opcode)))?;
            frame.regs.set(widths, *dst, value);
        }
        SuperOp::Prb { dst, sig } => {
            let value = env.core()?.value(SignalId(*sig as usize));
            frame.regs.set(widths, *dst, value);
        }
        SuperOp::Drv {
            sig,
            value,
            delay,
            cond,
        } => {
            let core = env.core()?;
            if cond.is_some_and(|c| !frame.regs.truthy(widths, c)) {
                return Ok(Next::Op);
            }
            let value = frame.regs.get(widths, *value).into_owned();
            let delay = delay_value(&frame.regs, delay)?;
            core.schedule_drive(SignalId(*sig as usize), value, &delay);
        }
        SuperOp::Del {
            target,
            source,
            delay,
        } => {
            let core = env.core()?;
            let delay = delay_value(&frame.regs, delay)?;
            let value = core.value(SignalId(*source as usize));
            core.schedule_drive(SignalId(*target as usize), value, &delay);
        }
        SuperOp::Reg { sig, triggers } => {
            let core = env.core()?;
            let signal = SignalId(*sig as usize);
            for trigger in triggers {
                let current = frame.regs.get(widths, trigger.trigger).into_owned();
                let previous = frame.states[trigger.state].take();
                let fire = reg_fires(trigger.mode, previous.as_ref(), &current);
                frame.states[trigger.state] = Some(current);
                if !fire {
                    continue;
                }
                if trigger
                    .gate
                    .is_some_and(|gate| !frame.regs.truthy(widths, gate))
                {
                    continue;
                }
                let value = frame.regs.get(widths, trigger.value).into_owned();
                core.schedule_drive(signal, value, &TimeValue::from_delta(1));
            }
        }
        SuperOp::Var { mem, init: value } | SuperOp::St { mem, value } => {
            let value = frame.regs.get(widths, *value).into_owned();
            frame.mems.set(mem_widths, *mem, value);
        }
        SuperOp::Ld { dst, mem } => {
            let value = frame.mems.get(mem_widths, *mem).into_owned();
            frame.regs.set(widths, *dst, value);
        }
        SuperOp::Call { .. } => unreachable!("exec runs the calls"),
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
                Some(t) => Some(delay_value(&frame.regs, t)?),
                None => None,
            };
            return Ok(Next::Exit(Flow::Wait {
                resume: *resume as usize,
                timeout,
            }));
        }
        SuperOp::Halt => return Ok(Next::Exit(Flow::Halt)),
        SuperOp::Br { target } => return Ok(Next::Block(*target as usize)),
        SuperOp::BrCond {
            cond,
            if_false,
            if_true,
        } => {
            let target = if frame.regs.truthy(widths, *cond) {
                if_true
            } else {
                if_false
            };
            return Ok(Next::Block(*target as usize));
        }
        SuperOp::Ret { value } => {
            let value = value.map(|v| frame.regs.get(widths, v).into_owned());
            return Ok(Next::Exit(Flow::Return(value)));
        }
    }
    Ok(Next::Op)
}

/// Resolve a (possibly baked) delay operand to its time value.
fn delay_value(regs: &Cells, delay: &Delay) -> Result<TimeValue, SimError> {
    match delay {
        Delay::Const(t) => Ok(*t),
        Delay::Reg(slot) => regs.values[*slot as usize]
            .as_time()
            .copied()
            .ok_or_else(|| SimError::Runtime("expected a time value".to_string())),
    }
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
        None => call_function(cx, scr, callee.unwrap(), args, depth + 1)?,
    })
}

/// Execute a compiled function in a fresh frame, its arguments stored
/// into its argument slots. `depth` counts the function frames active
/// including this one (1 when called from an instance body).
fn call_function(
    cx: &BlazeExec,
    scr: &mut Scratch,
    callee: UnitId,
    args: Vec<ConstValue>,
    depth: usize,
) -> Result<Option<ConstValue>, SimError> {
    let unit = &cx.compiled.units[&callee];
    let Some(code) = cx.compiled.functions.get(&callee) else {
        return Err(SimError::Runtime(format!(
            "call target {} is not a function",
            unit.name
        )));
    };
    if depth > MAX_CALL_DEPTH {
        return Err(call_depth_exceeded(&unit.name));
    }
    let mut frame = Frame::new(unit);
    for (&slot, value) in unit.arg_regs.iter().zip(args) {
        frame.regs.set(&code.widths, slot as u32, value);
    }
    let mut env = FunctionEnv { name: &unit.name };
    match exec(cx, code, &mut frame, &mut env, scr, unit.entry, depth)? {
        Flow::Return(value) => Ok(value),
        Flow::End => Ok(None),
        Flow::Wait { .. } | Flow::Halt => Err(unsupported_in_function()),
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
    /// resumed from a checkpoint cut through both files. Two pairs there
    /// must not fuse, because their intermediate has a second reader: an
    /// array read by the `mux` right after it and by an `extf`, and a
    /// compute read by the drive right after it and by a store.
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
                %mid = extf i8 %opts, 1
                %q1 = xor i8 %pick, %sh
                %q0 = xor i8 %q1, %mid
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
                drv i8$ %a, %n after %t
                st i8* %i, %n
                %m = sub i8 %z, %v
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
        let ops = &mix.code.ops;
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
        assert_eq!(
            resumed.finish().unwrap().trace.events(),
            blaze.trace.events()
        );
    }

    /// An `i80` selector of 2^64 or 2^64 + 1 is past the last element, so
    /// a `mux` over a constant table and one over an array with a second
    /// reader both pick the last element on both engines — not the element
    /// its low limb (0, then 1) names.
    #[test]
    fn wide_mux_selectors_clamp_on_both_engines() {
        let module = parse_module(
            r#"
            proc @pick () -> (i8$ %q, i8$ %r) {
            entry:
                %t = const time 1ns
                %one = const i80 1
                %sh = const i8 64
                %base = shl i80 %one, %sh
                %i = var i80 %base
                %a = const i8 10
                %b = const i8 20
                %c = const i8 30
                br %loop
            loop:
                %s = ld i80* %i
                %table = array [%a, %b, %c]
                %p = mux [3 x i8] %table, %s
                %plain = array [%a, %b, %c]
                %first = extf i8 %plain, 0
                %p2 = mux [3 x i8] %plain, %s
                drv i8$ %q, %p after %t
                drv i8$ %r, %p2 after %t
                %n = add i80 %s, %one
                st i80* %i, %n
                wait %loop for %t
            }
            "#,
        )
        .unwrap();
        let config = SimConfig::until_nanos(3);
        let design = llhd_sim::elaborate(&module, "pick").unwrap();
        let compiled = crate::compile_design(&module, design).unwrap();
        let ops = &compiled.instances[0].code.ops;
        let muxes = ops.iter().filter(|op| matches!(op, SuperOp::Mux { .. }));
        assert_eq!(muxes.count(), 2);
        let reference = simulate_reference(&module, "pick", &config).unwrap();
        let blaze = simulate(&module, "pick", &config).unwrap();
        assert_eq!(reference.trace.events(), blaze.trace.events());
        for signal in ["q", "r"] {
            let values: Vec<_> = blaze
                .trace
                .changes_of(signal)
                .map(|c| c.value.clone())
                .collect();
            assert_eq!(values.last(), Some(&ConstValue::int(8, 30)), "{signal}");
            for low_limb in [10, 20] {
                assert!(!values.contains(&ConstValue::int(8, low_limb)), "{signal}");
            }
        }
    }

    /// The fusion shapes at 80 bits: a compare+branch loop, compute+drive
    /// under a dynamic, a constant-true and a constant-false condition,
    /// and `array`+`mux` over a constant table and over dynamic elements.
    /// Traces and the peek after every step match the interpreter, also
    /// across a checkpoint cut.
    #[test]
    fn wide_fusion_shapes_match_the_interpreter() {
        let module = parse_module(
            r#"
            proc @wide (i80$ %in) -> (i80$ %dyn, i80$ %on, i80$ %off, i80$ %tab, i80$ %pick) {
            entry:
                %t = const time 1ns
                %zero = const i80 0
                %one = const i80 1
                %big = const i80 1208925819614629174706001
                %limit = const i80 1208925819614629174706013
                %yes = const i1 1
                %no = const i1 0
                %i = var i80 %big
                br %loop
            loop:
                %ip = ld i80* %i
                %inp = prb i80$ %in
                %odd = exts i1 %ip, 0, 1
                %s1 = add i80 %ip, %inp
                drv i80$ %dyn, %s1 after %t if %odd
                %s2 = xor i80 %ip, %big
                drv i80$ %on, %s2 after %t if %yes
                %s3 = sub i80 %ip, %one
                drv i80$ %off, %s3 after %t if %no
                %sel = exts i2 %ip, 1, 2
                %table = array [%zero, %one, %big]
                %tv = mux [3 x i80] %table, %sel
                drv i80$ %tab, %tv after %t
                %elems = array [%ip, %inp, %s1]
                %pv = mux [3 x i80] %elems, %sel
                drv i80$ %pick, %pv after %t
                %n = add i80 %ip, %one
                st i80* %i, %n
                %more = ult i80 %n, %limit
                br %more, %done, %next
            next:
                wait %loop for %t
            done:
                halt
            }
            entity @top () -> () {
                %z = const i80 0
                %in = sig i80 %z
                %dyn = sig i80 %z
                %on = sig i80 %z
                %off = sig i80 %z
                %tab = sig i80 %z
                %pick = sig i80 %z
                inst @wide (%in) -> (%dyn, %on, %off, %tab, %pick)
            }
            "#,
        )
        .unwrap();
        llhd::verifier::verify_module(&module).unwrap();
        let design = llhd_sim::elaborate(&module, "top").unwrap();
        let compiled = crate::compile_design(&module, design).unwrap();
        let wide = compiled
            .instances
            .iter()
            .find(|i| i.name.contains("wide"))
            .unwrap();
        // The 80-bit computes run unfused; both selections fuse under
        // their `i2` word selector.
        let count = |pred: fn(&SuperOp) -> bool| wide.code.ops.iter().filter(|op| pred(op)).count();
        assert_eq!(count(|op| matches!(op, SuperOp::Bin { .. })), 5);
        assert_eq!(
            count(|op| matches!(op, SuperOp::WCmpBr { .. } | SuperOp::WBinDrv { .. })),
            0
        );
        assert_eq!(count(|op| matches!(op, SuperOp::WSel { .. })), 2);
        const SIGNALS: [&str; 6] = ["in", "dyn", "on", "off", "tab", "pick"];
        let run = |engine: EngineKind, cut: Option<usize>| {
            let build = || {
                session(&module, "top")
                    .engine(engine)
                    .config(SimConfig::until_nanos(30))
                    .build()
                    .unwrap()
            };
            let mut session = build();
            session.initialize().unwrap();
            let mut peeks = vec![];
            for step in 0.. {
                if cut == Some(step) {
                    let state = session.checkpoint().unwrap();
                    session = build();
                    session.restore(&state).unwrap();
                }
                if step % 3 == 1 {
                    let value = ApInt::from_limbs(80, vec![3 * step as u64, step as u64]);
                    session.poke("in", ConstValue::Int(value)).unwrap();
                }
                if !session.step().unwrap() {
                    break;
                }
                peeks.push(SIGNALS.map(|s| session.peek(s).unwrap()));
            }
            (session.finish().unwrap().trace, peeks)
        };
        let (trace, peeks) = run(EngineKind::Interpret, None);
        for signal in SIGNALS {
            let changes = trace.changes_of(signal).count();
            assert_eq!(changes == 0, signal == "off", "{signal}: {changes} changes");
        }
        for cut in [None, Some(5)] {
            let (other_trace, other_peeks) = run(EngineKind::Compile, cut);
            assert_eq!(other_trace.events(), trace.events(), "cut {cut:?}");
            assert_eq!(other_peeks, peeks, "cut {cut:?}");
        }
    }

    /// Functions run through the same dispatch loop as instance bodies:
    /// `i8`, `i64` and `i80` arguments and results, a counted loop over
    /// `var` cells (whose exit compare is also read after the loop, so it
    /// must not fuse with its branch), nested calls and an `llhd.assert`
    /// in a callee must trace and count exactly like the interpreter.
    #[test]
    fn functions_match_the_interpreter() {
        let module = parse_module(
            r#"
            func @sum8 (i8 %n) i8 {
            entry:
                %zero = const i8 0
                %one = const i8 1
                %acc = var i8 %zero
                %i = var i8 %zero
                br %head
            head:
                %iv = ld i8* %i
                %done = uge i8 %iv, %n
                br %done, %body, %exit
            body:
                %next = add i8 %iv, %one
                st i8* %i, %next
                %av = ld i8* %acc
                %a2 = add i8 %av, %next
                st i8* %acc, %a2
                br %head
            exit:
                %sum = ld i8* %acc
                %last = zext i8 %done
                %r = add i8 %sum, %last
                ret i8 %r
            }
            func @scale (i64 %x, i8 %n) i64 {
            entry:
                %s = call i8 @sum8 (%n)
                %w = zext i64 %s
                %r = umul i64 %x, %w
                %limit = const i64 200
                %ok = ult i64 %r, %limit
                call void @llhd.assert (%ok)
                ret i64 %r
            }
            func @widen (i80 %x, i64 %y, i8 %n) i80 {
            entry:
                %z = call i64 @scale (%y, %n)
                %y80 = zext i80 %z
                %r = add i80 %x, %y80
                ret i80 %r
            }
            proc @tb () -> (i8$ %a, i64$ %b, i80$ %c) {
            entry:
                %t = const time 1ns
                %z8 = const i8 0
                %one80 = const i80 1
                %seventy = const i8 70
                %big = shl i80 %one80, %seventy
                %i = var i8 %z8
                br %loop
            loop:
                %n = ld i8* %i
                %s = call i8 @sum8 (%n)
                %x = zext i64 %n
                %m = call i64 @scale (%x, %n)
                %w = call i80 @widen (%big, %m, %n)
                drv i8$ %a, %s after %t
                drv i64$ %b, %m after %t
                drv i80$ %c, %w after %t
                %one = const i8 1
                %n2 = add i8 %n, %one
                st i8* %i, %n2
                wait %loop for %t
            }
            "#,
        )
        .unwrap();
        let config = SimConfig::until_nanos(30);
        let reference = simulate_reference(&module, "tb", &config).unwrap();
        let blaze = simulate(&module, "tb", &config).unwrap();
        assert_eq!(reference.trace.events(), blaze.trace.events());
        assert_eq!(reference.signal_changes, blaze.signal_changes);
        assert_eq!(reference.assertions_checked, blaze.assertions_checked);
        assert_eq!(reference.assertion_failures, blaze.assertion_failures);
        assert!(
            blaze.assertion_failures > 0 && blaze.assertion_failures < blaze.assertions_checked
        );
        assert!(blaze.trace.changes_of("c").count() > 20);
    }

    /// An entity body may call a function too: a clocked counter feeds an
    /// entity that sums `1..=n` in a `var` loop of a callee, which asserts
    /// on its result, at every change of its inputs.
    #[test]
    fn entity_calls_match_the_interpreter() {
        let module = parse_module(
            r#"
            func @sum8 (i8 %n) i8 {
            entry:
                %zero = const i8 0
                %one = const i8 1
                %acc = var i8 %zero
                %i = var i8 %zero
                br %head
            head:
                %iv = ld i8* %i
                %done = uge i8 %iv, %n
                br %done, %body, %exit
            body:
                %next = add i8 %iv, %one
                st i8* %i, %next
                %av = ld i8* %acc
                %a2 = add i8 %av, %next
                st i8* %acc, %a2
                br %head
            exit:
                %sum = ld i8* %acc
                %limit = const i8 100
                %ok = ult i8 %sum, %limit
                call void @llhd.assert (%ok)
                ret i8 %sum
            }
            entity @acc (i1$ %clk, i8$ %n) -> (i8$ %q) {
                %clkp = prb i1$ %clk
                %np = prb i8$ %n
                %s = call i8 @sum8 (%np)
                %d = const time 1ns
                drv i8$ %q, %s after %d
            }
            proc @clock () -> (i1$ %clk, i8$ %n) {
            entry:
                %z8 = const i8 0
                %i = var i8 %z8
                br %tick
            tick:
                %one = const i1 1
                %zero = const i1 0
                %half = const time 1ns
                %iv = ld i8* %i
                %one8 = const i8 1
                %next = add i8 %iv, %one8
                st i8* %i, %next
                drv i1$ %clk, %one after %half
                drv i8$ %n, %next after %half
                wait %low for %half
            low:
                drv i1$ %clk, %zero after %half
                wait %tick for %half
            }
            entity @top () -> () {
                %z1 = const i1 0
                %z8 = const i8 0
                %clk = sig i1 %z1
                %n = sig i8 %z8
                %q = sig i8 %z8
                inst @clock () -> (%clk, %n)
                inst @acc (%clk, %n) -> (%q)
            }
            "#,
        )
        .unwrap();
        let config = SimConfig::until_nanos(40);
        let reference = simulate_reference(&module, "top", &config).unwrap();
        let blaze = simulate(&module, "top", &config).unwrap();
        assert_eq!(reference.trace.events(), blaze.trace.events());
        assert_eq!(reference.signal_changes, blaze.signal_changes);
        assert_eq!(reference.assertions_checked, blaze.assertions_checked);
        assert_eq!(reference.assertion_failures, blaze.assertion_failures);
        assert!(
            blaze.assertion_failures > 0 && blaze.assertion_failures < blaze.assertions_checked
        );
        assert!(blaze.trace.changes_of("q").count() > 10);
    }

    /// An op a function body may not hold — a signal op, or an op only a
    /// process or an entity may hold — which the verifier would reject,
    /// fails the activation on both engines instead of touching a signal
    /// or the caller's state.
    #[test]
    fn signal_op_in_a_function_is_an_error() {
        let ops = [
            ("prb", "%v = prb i1$ %s"),
            ("drv", "drv i1$ %s, %one after %t"),
            // A `wait` with a delay is the `waitt` opcode.
            ("waitt", "wait %next for %t\nnext:"),
            ("halt", "halt"),
            ("reg", "reg i1$ %s, %one rise %one"),
            ("del", "%d = del i1$ %s, %t"),
        ];
        for (op, inst) in ops {
            let module = parse_module(&format!(
                r#"
                func @f (i1$ %s) void {{
                entry:
                    %one = const i1 1
                    %t = const time 1ns
                    {inst}
                    ret
                }}
                proc @tb (i1$ %s) -> () {{
                entry:
                    call void @f (%s)
                    halt
                }}
                entity @top () -> () {{
                    %zero = const i1 0
                    %s = sig i1 %zero
                    inst @tb (%s) -> ()
                }}
                "#
            ))
            .unwrap();
            let config = SimConfig::until_nanos(10);
            let reference = simulate_reference(&module, "top", &config).unwrap_err();
            assert_eq!(
                reference.to_string(),
                format!("runtime error: unsupported instruction {op} in function @f")
            );
            let blaze = simulate(&module, "top", &config).unwrap_err();
            assert_eq!(
                blaze.to_string(),
                "runtime error: unsupported operation in function",
                "{op}"
            );
        }
    }

    /// A failed step poisons the engine: the error replays on every later
    /// step instead of silently resuming the half-applied cycle.
    #[test]
    fn poisoned_engine_replays_error_under_specialized_dispatch() {
        // A zero-delay inverter pair oscillates forever within one
        // instant; the delta-cycle guard fails the step mid-run.
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

    /// A `ret` outside a function fails the activation, and the session
    /// replays it.
    #[test]
    fn ret_in_specialized_process_poisons_and_replays() {
        // The false branch of the entry compare reaches the illegal `ret`
        // on the very first activation.
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
        let mut sim = BlazeSimulator::new(compiled, SimConfig::until_nanos(10));
        let first = sim.initialize().unwrap_err();
        assert!(matches!(first, SimError::Runtime(_)));
        assert_eq!(
            first.to_string(),
            "runtime error: ret outside of a function"
        );
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
