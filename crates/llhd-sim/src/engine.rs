//! The event-driven simulation engine.
//!
//! The engine interprets unit bodies directly from the IR, but all
//! scheduling — the event queue, delta cycles, sensitivity, tracing — is
//! delegated to the shared [`crate::sched::SchedCore`], the same core the
//! compiled [`blaze`](crate::blaze) engine runs on. Entities are
//! re-evaluated whenever one of the signals they probe *changes value*;
//! processes resume when a signal in their current sensitivity list
//! changes or their wait timeout expires.
//!
//! One loop runs process, entity and function bodies over one slot
//! layout, [`InstState`]: dense vectors indexed by [`Value::index`] for
//! SSA values, local memory and `reg` trigger history, with an epoch stamp
//! marking which slots are live (processes keep one epoch for their whole
//! life, entities bump it per evaluation to get fresh scratch without
//! clearing, and each call runs over a fresh state with no signal bound).

use crate::design::{ElaborateError, ElaboratedDesign, InstanceKind, SignalId};
use crate::driver::{
    call_depth_exceeded, decode_reg_history, encode_reg_history, reg_fires, Driver, Executor,
    Scratch, MAX_CALL_DEPTH,
};
use crate::sched::{read_byte, read_const, read_count, read_u128, read_usize, SchedCore};
use crate::trace::Trace;
use llhd::bitcode::{encode_const_value, write_varint};
use llhd::eval::eval_pure;
use llhd::ir::{Block, InstData, Module, Opcode, UnitData, UnitId, UnitKind, Value};
use llhd::ty::{Type, TypeKind};
use llhd::value::{ConstValue, TimeValue};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Simulation stops once the queue is empty or this time is exceeded.
    pub max_time: TimeValue,
    /// Guard against unbounded delta cycles within one physical instant.
    pub max_deltas_per_instant: u32,
    /// Guard against processes looping without suspending.
    pub max_steps_per_activation: usize,
    /// Record value changes into the trace.
    pub trace: bool,
    /// Restrict the trace to signals whose name ends with one of these
    /// suffixes. `None` records every signal.
    pub trace_filter: Option<Vec<String>>,
    /// Cooperative run control: wall-clock deadline and instrumentation
    /// probe, checked between scheduler cycles.
    pub control: RunControl,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_time: TimeValue::from_micros(1),
            max_deltas_per_instant: 10_000,
            max_steps_per_activation: 1_000_000,
            trace: true,
            trace_filter: None,
            control: RunControl::default(),
        }
    }
}

/// Cooperative run control, checked by both engines between scheduler
/// cycles — the boundary at which state is fully consistent, so an
/// interrupted run can resume (or be abandoned) without poisoning the
/// engine. The chunked [`Simulator::step`] resume makes these checks
/// nearly free: one branch when inactive, one `Instant::now()` per
/// cycle when a deadline is armed.
#[derive(Clone, Default)]
pub struct RunControl {
    /// Abort with [`SimError::DeadlineExceeded`] once this wall-clock
    /// instant passes.
    pub deadline: Option<Instant>,
    /// Called at every control check. Used by the fault-injection
    /// harness to panic at a deterministic point mid-simulation; the
    /// probe runs before the deadline comparison.
    pub probe: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl fmt::Debug for RunControl {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("deadline", &self.deadline)
            .field("probe", &self.probe.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl RunControl {
    /// Abort once the given wall-clock instant passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        RunControl {
            deadline: Some(deadline),
            probe: None,
        }
    }

    /// Abort once the given budget, measured from now, is used up.
    pub fn deadline_in(budget: Duration) -> Self {
        RunControl::with_deadline(Instant::now() + budget)
    }

    /// Whether any control is armed (a disarmed control is a single
    /// branch per cycle).
    pub fn is_active(&self) -> bool {
        self.deadline.is_some() || self.probe.is_some()
    }

    /// Run the probe and enforce the deadline.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DeadlineExceeded`] once the deadline passes.
    pub fn check(&self) -> Result<(), SimError> {
        if let Some(probe) = &self.probe {
            probe();
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(SimError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

impl SimConfig {
    /// Run until the given physical time (in nanoseconds).
    pub fn until_nanos(nanos: u128) -> Self {
        SimConfig {
            max_time: TimeValue::from_nanos(nanos),
            ..SimConfig::default()
        }
    }

    /// Run until the given time.
    pub fn until(time: TimeValue) -> Self {
        SimConfig {
            max_time: time,
            ..SimConfig::default()
        }
    }

    /// Disable tracing (useful for benchmarking).
    pub fn without_trace(mut self) -> Self {
        self.trace = false;
        self
    }

    /// Only trace signals whose hierarchical name ends with one of the given
    /// suffixes.
    pub fn with_trace_filter(mut self, names: &[&str]) -> Self {
        self.trace_filter = Some(names.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Attach cooperative run control (deadline/probe).
    pub fn with_control(mut self, control: RunControl) -> Self {
        self.control = control;
        self
    }

    /// Selects nothing: every run is serial. Kept only because the
    /// `benchmark/` package still calls it; it goes with that caller in
    /// ROADMAP item 1.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

/// An error produced during simulation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// Elaboration failed.
    Elaborate(ElaborateError),
    /// The design used a construct the simulator does not support, or ran
    /// away (delta loop, non-suspending process).
    Runtime(String),
    /// The run used up its wall-clock budget ([`RunControl::deadline`]).
    /// Raised between scheduler cycles, so the engine state is consistent
    /// and the run can be resumed with a fresh budget.
    DeadlineExceeded,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match self {
            SimError::Elaborate(e) => write!(f, "elaboration error: {}", e),
            SimError::Runtime(msg) => write!(f, "runtime error: {}", msg),
            SimError::DeadlineExceeded => {
                write!(
                    f,
                    "deadline exceeded: the run used up its wall-clock budget"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The time at which the simulation stopped.
    pub end_time: TimeValue,
    /// The number of observed signal value changes.
    pub signal_changes: usize,
    /// The number of `llhd.assert` intrinsic calls evaluated.
    pub assertions_checked: usize,
    /// The number of failed assertions.
    pub assertion_failures: usize,
    /// The number of processes that reached `halt`.
    pub halted_processes: usize,
    /// The number of instance activations (process resumes plus entity
    /// evaluations) executed.
    pub activations: usize,
    /// The recorded trace.
    pub trace: Trace,
}

/// The "not a signal" sentinel in the dense value-to-signal tables.
const NO_SIGNAL: SignalId = SignalId(usize::MAX);

/// Execution state of a process instance.
#[derive(Debug)]
enum ProcStatus {
    /// Ready to start at the entry block.
    Ready,
    /// Suspended in a `wait`; the shared core tracks what wakes it.
    Suspended { resume: Block },
    /// Stopped forever.
    Halted,
}

/// Per-unit execution metadata, computed once at construction and shared
/// by all instances of the unit.
struct UnitExec {
    /// Upper bound on value indices (sizes the dense slot vectors).
    num_values: usize,
    /// By instruction index: the first `reg`-history slot of a `reg`
    /// instruction, or `u32::MAX`.
    reg_base: Vec<u32>,
    /// By `reg`-history slot: its trigger's type.
    trigger_types: Vec<Type>,
}

impl UnitExec {
    fn build(unit: &UnitData) -> Self {
        let mut reg_base = vec![u32::MAX; unit.num_inst_slots()];
        let mut trigger_types = Vec::new();
        for block in unit.blocks() {
            for inst in unit.insts(block) {
                let data = unit.inst_data(inst);
                if data.opcode == Opcode::Reg {
                    reg_base[inst.index()] = trigger_types.len() as u32;
                    trigger_types.extend(data.triggers.iter().map(|t| unit.value_type(t.trigger)));
                }
            }
        }
        UnitExec {
            num_values: unit.num_value_slots(),
            reg_base,
            trigger_types,
        }
    }
}

/// Dense execution state of one unit instance under the interpreter.
pub struct InstState {
    status: ProcStatus,
    /// SSA value slots, indexed by `Value::index()`; a slot is live when
    /// its stamp equals `epoch`.
    slots: Vec<ConstValue>,
    stamps: Vec<u32>,
    /// Process-local memory (`var`/`halloc` cells), same indexing.
    mem: Vec<ConstValue>,
    mem_stamps: Vec<u32>,
    /// Previous samples of `reg` triggers, at `UnitExec::reg_base` offsets.
    reg_prev: Vec<Option<ConstValue>>,
    /// By value index: the resolved signal bound to a signal-typed value.
    sig_of: Vec<SignalId>,
    /// Slot validity epoch: constant for processes (state persists),
    /// bumped per evaluation for entities (fresh scratch, no clearing).
    epoch: u32,
}

impl InstState {
    /// A state with every slot and memory cell dead, no signal bound and
    /// `regs` empty `reg` samples.
    fn new(num_values: usize, regs: usize) -> Self {
        InstState {
            status: ProcStatus::Ready,
            slots: vec![ConstValue::Void; num_values],
            stamps: vec![0; num_values],
            mem: vec![ConstValue::Void; num_values],
            mem_stamps: vec![0; num_values],
            reg_prev: vec![None; regs],
            sig_of: vec![NO_SIGNAL; num_values],
            epoch: 1,
        }
    }
}

/// The reference interpreter as an [`Executor`]: everything an activation
/// reads that is not its own instance state or the scheduling core. It
/// owns its module, so a simulator borrows nothing and can move between
/// threads.
pub struct Interp {
    module: Arc<Module>,
    design: Arc<ElaboratedDesign>,
    execs: Vec<UnitExec>,
    /// By instance: index into `execs`.
    exec_of: Vec<usize>,
    max_steps: usize,
}

/// The event-driven reference simulator: the shared [`Driver`] run loop
/// over the [`Interp`] executor.
pub type Simulator = Driver<Interp>;

impl Driver<Interp> {
    /// Create a simulator for an elaborated design. The design is shared
    /// (`Arc`), so sessions served from a [`DesignCache`](crate::api::DesignCache)
    /// reuse one elaboration; a plain [`ElaboratedDesign`] converts
    /// implicitly. The simulator keeps its own copy of `module`.
    pub fn new(
        module: &Module,
        design: impl Into<Arc<ElaboratedDesign>>,
        config: SimConfig,
    ) -> Self {
        let design = design.into();
        let mut execs: Vec<UnitExec> = Vec::new();
        let mut index: HashMap<UnitId, usize> = HashMap::new();
        let exec_of = design
            .instances
            .iter()
            .map(|instance| {
                *index.entry(instance.unit).or_insert_with(|| {
                    execs.push(UnitExec::build(module.unit(instance.unit)));
                    execs.len() - 1
                })
            })
            .collect();
        let interp = Interp {
            module: Arc::new(module.clone()),
            design,
            execs,
            exec_of,
            max_steps: config.max_steps_per_activation,
        };
        Driver::with_executor(interp, config)
    }
}

impl Executor for Interp {
    const NAME: &'static str = "interp";
    type State = InstState;

    fn design(&self) -> &ElaboratedDesign {
        &self.design
    }

    fn allow_drive_drop(&self) -> bool {
        crate::sched::module_allows_drive_dropping(&self.module)
    }

    fn build_states(&self, core: &mut SchedCore) -> Vec<InstState> {
        let mut states = Vec::with_capacity(self.design.instances.len());
        for (idx, instance) in self.design.instances.iter().enumerate() {
            let unit = self.module.unit(instance.unit);
            let info = &self.execs[self.exec_of[idx]];
            let mut state = InstState::new(info.num_values, info.trigger_types.len());
            for (value, &sig) in &instance.signal_map {
                state.sig_of[value.index()] = self.design.resolve(sig);
            }
            // Static entity sensitivity: every signal probed (or delayed)
            // by the entity body, pre-resolved.
            if instance.kind == InstanceKind::Entity {
                if let Some(body) = unit.entry_block() {
                    for inst in unit.insts(body) {
                        let data = unit.inst_data(inst);
                        if matches!(data.opcode, Opcode::Prb | Opcode::Del) {
                            let sig = state.sig_of[data.args[0].index()];
                            if sig != NO_SIGNAL {
                                core.add_entity_sensitivity(sig, idx);
                            }
                        }
                    }
                }
            }
            states.push(state);
        }
        states
    }

    fn activate(
        &self,
        st: &mut InstState,
        scr: &mut Scratch,
        idx: usize,
        core: &mut SchedCore,
    ) -> Result<(), SimError> {
        scr.counters.activations += 1;
        let unit = self.module.unit(self.design.instances[idx].unit);
        let Some(entry) = unit.entry_block() else {
            return Ok(());
        };
        let block = if self.design.instances[idx].kind == InstanceKind::Entity {
            // Fresh scratch: bumping the epoch invalidates all slots at once.
            st.epoch = st.epoch.wrapping_add(1);
            if st.epoch == 0 {
                // 0 is never used as an epoch, so resetting the stamps to it
                // can never alias a live epoch later on.
                st.stamps.iter_mut().for_each(|s| *s = 0);
                st.epoch = 1;
            }
            entry
        } else {
            let block = match st.status {
                ProcStatus::Ready => entry,
                ProcStatus::Suspended { resume } => resume,
                ProcStatus::Halted => return Ok(()),
            };
            st.status = ProcStatus::Ready;
            block
        };
        run_body(self, st, scr, idx, unit, block, core, 0).map(drop)
    }

    fn is_halted(st: &InstState) -> bool {
        matches!(st.status, ProcStatus::Halted)
    }

    /// Control state, epoch, live SSA slots, live process memory, `reg`
    /// histories. Only live slots (stamp == epoch) carry state; dead ones
    /// are unreadable and skipped.
    fn encode_state(&self, st: &InstState, out: &mut Vec<u8>) {
        match &st.status {
            ProcStatus::Ready => out.push(0),
            ProcStatus::Suspended { resume } => {
                out.push(1);
                write_varint(out, resume.index() as u128);
            }
            ProcStatus::Halted => out.push(2),
        }
        write_varint(out, st.epoch as u128);
        write_varint(out, st.slots.len() as u128);
        encode_live(out, &st.slots, &st.stamps, st.epoch);
        encode_live(out, &st.mem, &st.mem_stamps, st.epoch);
        encode_reg_history(out, &st.reg_prev);
    }

    fn decode_state(
        &self,
        st: &mut InstState,
        idx: usize,
        bytes: &[u8],
        pos: &mut usize,
    ) -> Result<(), SimError> {
        st.status = match read_byte(bytes, pos)? {
            0 => ProcStatus::Ready,
            1 => {
                let resume = read_usize(bytes, pos)?;
                let unit = self.module.unit(self.design.instances[idx].unit);
                if !unit.blocks().iter().any(|b| b.index() == resume) {
                    return Err(SimError::Runtime(
                        "corrupt engine checkpoint: resume block out of range".to_string(),
                    ));
                }
                ProcStatus::Suspended {
                    resume: Block::from_index(resume),
                }
            }
            2 => ProcStatus::Halted,
            other => {
                return Err(SimError::Runtime(format!(
                    "corrupt engine checkpoint: unknown process status {}",
                    other
                )))
            }
        };
        // A live epoch is a `u32`, and never 0, which marks dead cells.
        st.epoch = u32::try_from(read_u128(bytes, pos)?).unwrap_or(0);
        if st.epoch == 0 {
            return Err(SimError::Runtime(
                "corrupt engine checkpoint: epoch out of range".into(),
            ));
        }
        if read_usize(bytes, pos)? != st.slots.len() {
            return Err(SimError::Runtime(
                "corrupt engine checkpoint: slot count mismatch".to_string(),
            ));
        }
        // A live cell must hold a value of its SSA value's type (a memory
        // cell: of the pointer's pointee), or a width-checked operator
        // panics on it a step later.
        let unit = self.module.unit(self.design.instances[idx].unit);
        let type_of = |i: usize| {
            let value = Value::from_index(i);
            unit.has_value(value).then(|| unit.value_type(value))
        };
        decode_live(
            &mut st.slots,
            &mut st.stamps,
            st.epoch,
            bytes,
            pos,
            |i, v| type_of(i).is_some_and(|ty| v.has_type(&ty)),
        )?;
        decode_live(
            &mut st.mem,
            &mut st.mem_stamps,
            st.epoch,
            bytes,
            pos,
            |i, v| {
                type_of(i).is_some_and(
                    |ty| matches!(ty.kind(), TypeKind::Pointer(pointee) if v.has_type(pointee)),
                )
            },
        )?;
        let info = &self.execs[self.exec_of[idx]];
        decode_reg_history(&mut st.reg_prev, &info.trigger_types, bytes, pos)
    }
}

/// Append the live cells of a stamped slot vector as `(index, value)`
/// pairs, preceded by their count.
fn encode_live(out: &mut Vec<u8>, cells: &[ConstValue], stamps: &[u32], epoch: u32) {
    let live = (0..cells.len()).filter(|&i| stamps[i] == epoch);
    write_varint(out, live.clone().count() as u128);
    for i in live {
        write_varint(out, i as u128);
        encode_const_value(out, &cells[i]);
    }
}

/// Restore a slot vector written by [`encode_live`]: every cell dead
/// except the listed ones, which are stamped with `epoch`. `fits(i, v)`
/// says whether cell `i` may hold `v`.
fn decode_live(
    cells: &mut [ConstValue],
    stamps: &mut [u32],
    epoch: u32,
    bytes: &[u8],
    pos: &mut usize,
    fits: impl Fn(usize, &ConstValue) -> bool,
) -> Result<(), SimError> {
    stamps.iter_mut().for_each(|s| *s = 0);
    cells.iter_mut().for_each(|c| *c = ConstValue::Void);
    for _ in 0..read_count(bytes, pos)? {
        let i = read_usize(bytes, pos)?;
        if i >= cells.len() {
            return Err(SimError::Runtime(
                "corrupt engine checkpoint: slot index out of range".to_string(),
            ));
        }
        let value = read_const(bytes, pos)?;
        if !fits(i, &value) {
            return Err(SimError::Runtime(format!(
                "corrupt engine checkpoint: slot {} holds a value of the wrong type",
                i
            )));
        }
        cells[i] = value;
        stamps[i] = epoch;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Activation execution
// ---------------------------------------------------------------------------
//
// Free functions over a body's state and the [`SchedCore`], which they
// read signals from and schedule drives and suspensions into. A function
// body never reaches the core: no signal is bound in its state, and its
// kind admits no signal op.

// ----- dense state access ----------------------------------------------

/// Look up the runtime value of an SSA value within a body.
fn value_of(
    cx: &Interp,
    st: &InstState,
    core: &SchedCore,
    idx: usize,
    unit: &UnitData,
    value: Value,
) -> Result<ConstValue, SimError> {
    let i = value.index();
    if st.stamps[i] == st.epoch {
        return Ok(st.slots[i].clone());
    }
    if let Some(c) = unit.get_const(value) {
        return Ok(c.clone());
    }
    // Signal-typed arguments read their current value when used as data.
    let sig = st.sig_of[i];
    if sig != NO_SIGNAL {
        return Ok(core.value(sig));
    }
    Err(fault(
        cx,
        idx,
        unit,
        format_args!("use of a value before definition ({:?})", value),
    ))
}

fn set_value(st: &mut InstState, value: Value, v: ConstValue) {
    let i = value.index();
    st.slots[i] = v;
    st.stamps[i] = st.epoch;
}

/// Write a local memory cell.
fn store(st: &mut InstState, cell: Value, value: ConstValue) {
    let i = cell.index();
    st.mem[i] = value;
    st.mem_stamps[i] = st.epoch;
}

fn signal_of(cx: &Interp, st: &InstState, idx: usize, value: Value) -> Result<SignalId, SimError> {
    let sig = st.sig_of[value.index()];
    if sig != NO_SIGNAL {
        Ok(sig)
    } else {
        Err(SimError::Runtime(format!(
            "value {:?} is not bound to a signal in {}",
            value, cx.design.instances[idx].name
        )))
    }
}

fn time_value(
    cx: &Interp,
    st: &InstState,
    core: &SchedCore,
    idx: usize,
    unit: &UnitData,
    value: Value,
    what: &str,
) -> Result<TimeValue, SimError> {
    value_of(cx, st, core, idx, unit, value)?
        .as_time()
        .copied()
        .ok_or_else(|| SimError::Runtime(format!("{} is not a time value", what)))
}

/// A runtime error in `unit`'s body: `what`, then where the body runs —
/// the called function, or the instance `idx`.
fn fault(cx: &Interp, idx: usize, unit: &UnitData, what: impl fmt::Display) -> SimError {
    let name = &cx.design.instances[idx].name;
    SimError::Runtime(match unit.kind() {
        UnitKind::Function => format!("{} in function {}", what, unit.name()),
        UnitKind::Process => format!("{} in process {}", what, name),
        UnitKind::Entity => format!("{} in entity {}", what, name),
    })
}

// ----- the body loop ------------------------------------------------------

/// Run `unit`'s body over `st` from `block` until it ends: a process at a
/// `wait` or `halt` (recorded in `st.status`), an entity at the end of its
/// one block, a function at a `ret`, whose value is the result. Each kind
/// admits only its own ops — branches outside entities, `wait`/`halt` in
/// processes, `ret` in functions, signal ops outside functions,
/// `del`/`reg`/`sig`/`inst`/`con` in entities. `idx` is the instance being
/// activated, `depth` the number of function frames already active. A
/// `call` recurses into this loop, so its frame is kept small: every op
/// longer than a line runs in a helper, and most arms share one `?`.
#[allow(clippy::too_many_arguments)]
fn run_body(
    cx: &Interp,
    st: &mut InstState,
    scr: &mut Scratch,
    idx: usize,
    unit: &UnitData,
    mut block: Block,
    core: &mut SchedCore,
    depth: usize,
) -> Result<Option<ConstValue>, SimError> {
    let kind = unit.kind();
    let mut steps = 0usize;
    loop {
        let mut next_block = None;
        for &inst in unit.insts_slice(block) {
            steps += 1;
            if steps > cx.max_steps {
                return Err(fault(cx, idx, unit, "step limit exceeded"));
            }
            let data = unit.inst_data(inst);
            match data.opcode {
                Opcode::Const => {
                    set_value(st, unit.inst_result(inst), data.konst.clone().unwrap());
                    Ok(())
                }
                Opcode::Br if kind != UnitKind::Entity => {
                    next_block = Some(data.blocks[0]);
                    break;
                }
                Opcode::BrCond if kind != UnitKind::Entity => {
                    let cond = value_of(cx, st, core, idx, unit, data.args[0])?;
                    next_block = Some(data.blocks[cond.is_truthy() as usize]);
                    break;
                }
                Opcode::Wait | Opcode::WaitTime if kind == UnitKind::Process => {
                    return suspend(cx, st, scr, idx, unit, data, core).map(|()| None);
                }
                Opcode::Halt if kind == UnitKind::Process => {
                    st.status = ProcStatus::Halted;
                    return Ok(None);
                }
                Opcode::Ret if kind == UnitKind::Function => return Ok(None),
                Opcode::RetValue if kind == UnitKind::Function => {
                    return value_of(cx, st, core, idx, unit, data.args[0]).map(Some);
                }
                Opcode::Prb if kind != UnitKind::Function => signal_of(cx, st, idx, data.args[0])
                    .map(|sig| set_value(st, unit.inst_result(inst), core.value(sig))),
                Opcode::Drv | Opcode::DrvCond if kind != UnitKind::Function => {
                    drive(cx, st, idx, unit, data, core)
                }
                // Elaboration-time constructs.
                Opcode::Sig | Opcode::Inst | Opcode::Con if kind == UnitKind::Entity => Ok(()),
                Opcode::Del if kind == UnitKind::Entity => {
                    delay(cx, st, idx, unit, inst, data, core)
                }
                Opcode::Reg if kind == UnitKind::Entity => {
                    register(cx, st, idx, unit, inst, data, core)
                }
                Opcode::Var | Opcode::Halloc => value_of(cx, st, core, idx, unit, data.args[0])
                    .map(|init| store(st, unit.inst_result(inst), init)),
                Opcode::St => value_of(cx, st, core, idx, unit, data.args[1])
                    .map(|value| store(st, data.args[0], value)),
                Opcode::Ld if st.mem_stamps[data.args[0].index()] == st.epoch => {
                    let value = st.mem[data.args[0].index()].clone();
                    set_value(st, unit.inst_result(inst), value);
                    Ok(())
                }
                Opcode::Ld => Err(SimError::Runtime("load from unallocated memory".into())),
                Opcode::Free => {
                    st.mem_stamps[data.args[0].index()] = 0;
                    Ok(())
                }
                Opcode::Call => call(cx, st, scr, idx, unit, inst, data, core, depth),
                op if op.is_pure() => {
                    operands(cx, st, core, idx, unit, &data.args).and_then(|args| {
                        let value = eval_pure(op, &args, &data.imms).ok_or_else(|| {
                            SimError::Runtime(format!("cannot evaluate instruction {}", op))
                        })?;
                        set_value(st, unit.inst_result(inst), value);
                        Ok(())
                    })
                }
                op => Err(fault(
                    cx,
                    idx,
                    unit,
                    format_args!("unsupported instruction {op}"),
                )),
            }?;
        }
        match next_block {
            Some(b) => block = b,
            // A process fell off the end of a block without a terminator.
            None if kind == UnitKind::Process => {
                return Err(fault(cx, idx, unit, "ran past the end of a block"));
            }
            None => return Ok(None),
        }
    }
}

/// The runtime values of `values`, in order.
fn operands(
    cx: &Interp,
    st: &InstState,
    core: &SchedCore,
    idx: usize,
    unit: &UnitData,
    values: &[Value],
) -> Result<Vec<ConstValue>, SimError> {
    let mut args = Vec::with_capacity(values.len());
    for &a in values {
        args.push(value_of(cx, st, core, idx, unit, a)?);
    }
    Ok(args)
}

/// Schedule a `drv`, or a `drv` whose condition holds.
fn drive(
    cx: &Interp,
    st: &InstState,
    idx: usize,
    unit: &UnitData,
    data: &InstData,
    core: &mut SchedCore,
) -> Result<(), SimError> {
    if data.opcode == Opcode::DrvCond
        && !value_of(cx, st, core, idx, unit, data.args[3])?.is_truthy()
    {
        return Ok(());
    }
    let signal = signal_of(cx, st, idx, data.args[0])?;
    let value = value_of(cx, st, core, idx, unit, data.args[1])?;
    let delay = time_value(cx, st, core, idx, unit, data.args[2], "drive delay")?;
    core.schedule_drive(signal, value, &delay);
    Ok(())
}

/// Execute an entity's `del`: drive the source's current value onto the
/// delayed signal after the delay.
fn delay(
    cx: &Interp,
    st: &InstState,
    idx: usize,
    unit: &UnitData,
    inst: llhd::ir::Inst,
    data: &InstData,
    core: &mut SchedCore,
) -> Result<(), SimError> {
    let source = signal_of(cx, st, idx, data.args[0])?;
    let target = signal_of(cx, st, idx, unit.inst_result(inst))?;
    let delay = time_value(cx, st, core, idx, unit, data.args[1], "del delay")?;
    let value = core.value(source);
    core.schedule_drive(target, value, &delay);
    Ok(())
}

/// Suspend a process at a `wait`: it resumes at the wait's target block
/// once its delay passes or a signal it names changes.
fn suspend(
    cx: &Interp,
    st: &mut InstState,
    scr: &mut Scratch,
    idx: usize,
    unit: &UnitData,
    data: &InstData,
    core: &mut SchedCore,
) -> Result<(), SimError> {
    let timed = data.opcode == Opcode::WaitTime;
    let timeout = timed
        .then(|| time_value(cx, st, core, idx, unit, data.args[0], "wait delay"))
        .transpose()?;
    scr.observed.clear();
    scr.observed.extend(
        data.args[timed as usize..]
            .iter()
            .map(|arg| st.sig_of[arg.index()])
            .filter(|&sig| sig != NO_SIGNAL),
    );
    st.status = ProcStatus::Suspended {
        resume: data.blocks[0],
    };
    core.suspend(idx, &scr.observed, timeout.as_ref());
    Ok(())
}

/// Execute an entity's `reg`: sample every trigger against its previous
/// sample, and drive the stored value one delta later for each that fires.
fn register(
    cx: &Interp,
    st: &mut InstState,
    idx: usize,
    unit: &UnitData,
    inst: llhd::ir::Inst,
    data: &InstData,
    core: &mut SchedCore,
) -> Result<(), SimError> {
    let signal = signal_of(cx, st, idx, data.args[0])?;
    let base = cx.execs[cx.exec_of[idx]].reg_base[inst.index()] as usize;
    for (trigger_index, trigger) in data.triggers.iter().enumerate() {
        let current = value_of(cx, st, core, idx, unit, trigger.trigger)?;
        let previous = st.reg_prev[base + trigger_index].take();
        let fire = reg_fires(trigger.mode, previous.as_ref(), &current);
        st.reg_prev[base + trigger_index] = Some(current);
        if !fire {
            continue;
        }
        if let Some(gate) = trigger.gate {
            if !value_of(cx, st, core, idx, unit, gate)?.is_truthy() {
                continue;
            }
        }
        let value = value_of(cx, st, core, idx, unit, trigger.value)?;
        core.schedule_drive(signal, value, &TimeValue::from_delta(1));
    }
    Ok(())
}

// ----- function calls ---------------------------------------------------

/// Execute a `call` in `unit`'s body: an intrinsic, or a function body
/// run by [`run_body`] over a fresh [`InstState`] with no signal bound.
/// `depth` is the number of function frames already active (0 from a
/// process or entity body). Functions execute immediately and may not
/// interact with signals or time. Only `call` recurses, and the callee is
/// looked up in [`callee`], which keeps the host stack frame per nested
/// call small enough that [`MAX_CALL_DEPTH`] levels fit a default thread
/// stack in an unoptimized build.
#[allow(clippy::too_many_arguments)]
fn call(
    cx: &Interp,
    st: &mut InstState,
    scr: &mut Scratch,
    idx: usize,
    unit: &UnitData,
    inst: llhd::ir::Inst,
    data: &InstData,
    core: &mut SchedCore,
    depth: usize,
) -> Result<(), SimError> {
    let args = operands(cx, st, core, idx, unit, &data.args)?;
    let Some((callee, entry)) = callee(cx, scr, unit, data, &args, depth)? else {
        return Ok(());
    };
    let mut frame = InstState::new(callee.num_value_slots(), 0);
    for (arg, value) in callee.args().into_iter().zip(args) {
        set_value(&mut frame, arg, value);
    }
    let result = run_body(cx, &mut frame, scr, idx, callee, entry, core, depth + 1)?;
    if let (Some(result_value), Some(value)) = (unit.get_inst_result(inst), result) {
        set_value(st, result_value, value);
    }
    Ok(())
}

/// Resolve a `call`'s target to a function and its entry block, or run
/// it here if it is an intrinsic, which has no result.
fn callee<'m>(
    cx: &'m Interp,
    scr: &mut Scratch,
    caller: &UnitData,
    data: &InstData,
    args: &[ConstValue],
    depth: usize,
) -> Result<Option<(&'m UnitData, Block)>, SimError> {
    let ext = data
        .ext_unit
        .ok_or_else(|| SimError::Runtime("call without a target".to_string()))?;
    let name = &caller.ext_unit_data(ext).name;
    if let Some(intrinsic) = name.ident().and_then(|ident| ident.strip_prefix("llhd.")) {
        // Only `assert` does anything; other intrinsics are ignored,
        // matching the paper's treatment of simulation-only hooks.
        if intrinsic == "assert" {
            scr.counters.assertions_checked += 1;
            if !args.first().is_some_and(|a| a.is_truthy()) {
                scr.counters.assertion_failures += 1;
            }
        }
        return Ok(None);
    }
    let Some(id) = cx.module.unit_by_name(name) else {
        return Err(SimError::Runtime(format!(
            "call to undefined function {name}"
        )));
    };
    let callee = cx.module.unit(id);
    if callee.kind() != UnitKind::Function {
        return Err(SimError::Runtime(format!(
            "call target {name} is not a function"
        )));
    }
    if depth >= MAX_CALL_DEPTH {
        return Err(call_depth_exceeded(name));
    }
    let entry = callee
        .entry_block()
        .ok_or_else(|| SimError::Runtime("function without entry block".to_string()))?;
    Ok(Some((callee, entry)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{EngineKind, Error, SimSession};
    use llhd::assembly::parse_module;

    /// Interpreter runs constructed through the unified session surface.
    fn simulate(module: &Module, top: &str, config: &SimConfig) -> Result<SimResult, Error> {
        SimSession::builder(module, top)
            .engine(EngineKind::Interpret)
            .config(config.clone())
            .build()?
            .run()
    }

    #[test]
    fn clock_generator_toggles() {
        let module = parse_module(
            r#"
            proc @clockgen () -> (i1$ %clk) {
            entry:
                %one = const i1 1
                %zero = const i1 0
                %half = const time 5ns
                drv i1$ %clk, %one after %half
                wait %low for %half
            low:
                drv i1$ %clk, %zero after %half
                wait %entry for %half
            }
            "#,
        )
        .unwrap();
        let result = simulate(&module, "clockgen", &SimConfig::until_nanos(100)).unwrap();
        // 5ns period halves => a change every 5ns plus the initial one at
        // 5ns: roughly 20 changes in 100ns.
        let changes = result.trace.changes_of("clk").count();
        assert!((18..=21).contains(&changes), "got {} changes", changes);
    }

    #[test]
    fn entity_adder_follows_inputs() {
        let module = parse_module(
            r#"
            entity @adder (i8$ %a, i8$ %b) -> (i8$ %q) {
                %ap = prb i8$ %a
                %bp = prb i8$ %b
                %sum = add i8 %ap, %bp
                %delay = const time 1ns
                drv i8$ %q, %sum after %delay
            }
            proc @stim () -> (i8$ %a, i8$ %b) {
            entry:
                %three = const i8 3
                %four = const i8 4
                %delay = const time 10ns
                drv i8$ %a, %three after %delay
                drv i8$ %b, %four after %delay
                wait %done for %delay
            done:
                halt
            }
            entity @top () -> () {
                %zero = const i8 0
                %a = sig i8 %zero
                %b = sig i8 %zero
                %q = sig i8 %zero
                inst @adder (%a, %b) -> (%q)
                inst @stim () -> (%a, %b)
            }
            "#,
        )
        .unwrap();
        let result = simulate(&module, "top", &SimConfig::until_nanos(100)).unwrap();
        let last_q = result.trace.changes_of("q").last().cloned().unwrap();
        assert_eq!(last_q.value, ConstValue::int(8, 7));
        assert_eq!(result.halted_processes, 1);
    }

    #[test]
    fn register_entity_samples_on_rising_edge() {
        let module = parse_module(
            r#"
            entity @dff (i1$ %clk, i8$ %d) -> (i8$ %q) {
                %clkp = prb i1$ %clk
                %dp = prb i8$ %d
                reg i8$ %q, %dp rise %clkp
            }
            proc @stim () -> (i1$ %clk, i8$ %d) {
            entry:
                %zero = const i1 0
                %one = const i1 1
                %v1 = const i8 11
                %v2 = const i8 22
                %t1 = const time 1ns
                %t5 = const time 5ns
                drv i8$ %d, %v1 after %t1
                drv i1$ %clk, %one after %t5
                wait %phase2 for %t5
            phase2:
                %t6 = const time 6ns
                drv i1$ %clk, %zero after %t1
                drv i8$ %d, %v2 after %t1
                drv i1$ %clk, %one after %t6
                wait %done for %t6
            done:
                halt
            }
            entity @top () -> () {
                %z1 = const i1 0
                %z8 = const i8 0
                %clk = sig i1 %z1
                %d = sig i8 %z8
                %q = sig i8 %z8
                inst @dff (%clk, %d) -> (%q)
                inst @stim () -> (%clk, %d)
            }
            "#,
        )
        .unwrap();
        let result = simulate(&module, "top", &SimConfig::until_nanos(50)).unwrap();
        let q_changes: Vec<_> = result.trace.changes_of("q").collect();
        assert_eq!(q_changes.len(), 2, "{:?}", q_changes);
        assert_eq!(q_changes[0].value, ConstValue::int(8, 11));
        assert_eq!(q_changes[1].value, ConstValue::int(8, 22));
    }

    #[test]
    fn assertions_are_counted() {
        let module = parse_module(
            r#"
            func @check (i8 %got, i8 %want) void {
            entry:
                %eq = eq i8 %got, %want
                call void @llhd.assert (%eq)
                ret
            }
            proc @tb () -> () {
            entry:
                %a = const i8 5
                %b = const i8 5
                %c = const i8 6
                call void @check (%a, %b)
                call void @check (%a, %c)
                halt
            }
            "#,
        )
        .unwrap();
        let result = simulate(&module, "tb", &SimConfig::until_nanos(10)).unwrap();
        assert_eq!(result.assertions_checked, 2);
        assert_eq!(result.assertion_failures, 1);
    }

    #[test]
    fn variables_and_loops_in_processes() {
        // A process that counts to 5 using a stack variable, driving the
        // count out each iteration.
        let module = parse_module(
            r#"
            proc @counter () -> (i8$ %out) {
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
                %five = const i8 5
                %done = uge i8 %next, %five
                br %done, %loop_wait, %stop
            loop_wait:
                wait %loop for %delay
            stop:
                halt
            }
            "#,
        )
        .unwrap();
        let result = simulate(&module, "counter", &SimConfig::until_nanos(100)).unwrap();
        let changes: Vec<_> = result.trace.changes_of("out").collect();
        assert_eq!(changes.len(), 5);
        assert_eq!(changes.last().unwrap().value, ConstValue::int(8, 5));
        assert_eq!(result.halted_processes, 1);
    }

    #[test]
    fn delta_cycle_loop_is_detected() {
        // Two zero-delay combinational entities driving each other's inputs
        // through an inverter loop oscillate forever within one instant.
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
        let err = simulate(&module, "top", &SimConfig::until_nanos(10)).unwrap_err();
        assert!(matches!(err, Error::Runtime(_)));
    }

    #[test]
    fn max_time_stops_the_simulation() {
        let module = parse_module(
            r#"
            proc @forever () -> (i1$ %x) {
            entry:
                %one = const i1 1
                %zero = const i1 0
                %d = const time 1ns
                drv i1$ %x, %one after %d
                wait %next for %d
            next:
                drv i1$ %x, %zero after %d
                wait %entry for %d
            }
            "#,
        )
        .unwrap();
        let result = simulate(&module, "forever", &SimConfig::until_nanos(20)).unwrap();
        assert!(result.end_time <= TimeValue::from_nanos(20));
        assert!(result.signal_changes >= 15);
    }

    #[test]
    fn same_instant_drive_conflict_is_last_writer_wins() {
        // Two independent processes drive the same signal at the same
        // instant. The scheduler guarantees deterministic last-writer-wins
        // resolution: @second runs after @first (instance order), so its
        // drive is scheduled later and takes effect.
        let module = parse_module(
            r#"
            proc @first () -> (i8$ %s) {
            entry:
                %v = const i8 11
                %d = const time 1ns
                drv i8$ %s, %v after %d
                halt
            }
            proc @second () -> (i8$ %s) {
            entry:
                %v = const i8 22
                %d = const time 1ns
                drv i8$ %s, %v after %d
                halt
            }
            entity @top () -> () {
                %zero = const i8 0
                %s = sig i8 %zero
                inst @first () -> (%s)
                inst @second () -> (%s)
            }
            "#,
        )
        .unwrap();
        let result = simulate(&module, "top", &SimConfig::until_nanos(10)).unwrap();
        let changes: Vec<_> = result.trace.changes_of("s").collect();
        assert_eq!(
            changes.last().unwrap().value,
            ConstValue::int(8, 22),
            "the later-scheduled drive must win"
        );
        // The resolution is deterministic: a rerun produces the identical
        // event sequence, byte for byte.
        let again = simulate(&module, "top", &SimConfig::until_nanos(10)).unwrap();
        assert_eq!(result.trace.events(), again.trace.events());
    }

    #[test]
    fn redundant_drives_are_short_circuited() {
        // An entity that re-drives its output with an unchanged value on
        // every input edge; the drives must not wake the downstream
        // entity, and the run must settle (bounded activations).
        let module = parse_module(
            r#"
            entity @const_out (i1$ %clk) -> (i8$ %q) {
                %clkp = prb i1$ %clk
                %fixed = const i8 42
                %zero = const time 0s
                drv i8$ %q, %fixed after %zero
            }
            proc @clock () -> (i1$ %clk) {
            entry:
                %one = const i1 1
                %nil = const i1 0
                %d = const time 1ns
                drv i1$ %clk, %one after %d
                wait %next for %d
            next:
                drv i1$ %clk, %nil after %d
                wait %entry for %d
            }
            entity @top () -> () {
                %z1 = const i1 0
                %z8 = const i8 0
                %clk = sig i1 %z1
                %q = sig i8 %z8
                inst @const_out (%clk) -> (%q)
                inst @clock () -> (%clk)
            }
            "#,
        )
        .unwrap();
        let result = simulate(&module, "top", &SimConfig::until_nanos(40)).unwrap();
        // q changes exactly once (0 -> 42) and never again.
        assert_eq!(result.trace.changes_of("q").count(), 1);
    }

    /// A restored epoch must be one a live state can have: 0 marks dead
    /// cells, so with epoch 0 every cell the blob does not list would read
    /// as live, and an epoch past `u32::MAX` would be truncated.
    #[test]
    fn restore_rejects_an_epoch_that_is_zero_or_past_u32() {
        let module = parse_module("proc @p () -> () {\nentry:\n    halt\n}\n").unwrap();
        let design = Arc::new(crate::elaborate(&module, "p").unwrap());
        let fresh = || Simulator::new(&module, Arc::clone(&design), SimConfig::until_nanos(10));
        let mut sim = fresh();
        sim.initialize().unwrap();
        let blob = sim.checkpoint().unwrap().as_bytes().to_vec();
        // The one instance's state ends the blob: halted, epoch 1, the slot
        // count, no live slot, no live memory cell, no `reg` sample.
        let n = blob.len();
        assert_eq!(
            (blob[n - 6], blob[n - 5], &blob[n - 3..]),
            (2, 1, &[0, 0, 0][..])
        );
        for epoch in [0, (1u128 << 32) + 1] {
            let mut bytes = blob[..n - 5].to_vec();
            write_varint(&mut bytes, epoch);
            bytes.extend_from_slice(&blob[n - 4..]);
            let state = crate::EngineState::from_bytes(bytes).unwrap();
            let err = fresh().restore(&state).unwrap_err();
            assert!(
                err.to_string().contains("corrupt engine checkpoint"),
                "{epoch}: {err}"
            );
        }
        let state = crate::EngineState::from_bytes(blob).unwrap();
        fresh().restore(&state).unwrap();
    }
}
