//! The engine driver: the one run loop both simulation engines share.
//!
//! A [`Driver`] owns everything about a run that does not depend on *how*
//! a unit body executes — the [`SchedCore`], the per-instance state
//! table, the run counters, initialization, the poison-on-error rule and
//! the checkpoint framing (header, scheduler-core section, counters).
//! What differs between the reference interpreter and the compiled
//! [`blaze`](crate::blaze) engine is an [`Executor`]: how to build one
//! instance's state, how to activate it against the [`SchedCore`], and
//! how that state is laid out in a checkpoint. The driver is monomorphized per
//! executor, so the activation loop dispatches statically.

use crate::api::{Engine, EngineState};
use crate::design::{ElaboratedDesign, SignalId};
use crate::engine::{RunControl, SimConfig, SimError, SimResult};
use crate::sched::{read_byte, read_const, read_usize, SchedCore};
use llhd::bitcode::{encode_const_value, write_varint};
use llhd::ir::RegMode;
use llhd::ty::Type;
use llhd::value::{ConstValue, TimeValue};

/// The deepest chain of nested function calls either engine executes.
/// Function frames live on the host stack, and a stack overflow aborts
/// the process instead of unwinding, so unbounded recursion must fail as
/// an ordinary step error first (see [`call_depth_exceeded`]).
pub const MAX_CALL_DEPTH: usize = 256;

/// The error both engines raise when a call would nest deeper than
/// [`MAX_CALL_DEPTH`]; `callee` is the function's name as the IR prints
/// it (`@f`).
pub fn call_depth_exceeded(callee: impl std::fmt::Display) -> SimError {
    SimError::Runtime(format!(
        "call depth limit ({}) exceeded in {}",
        MAX_CALL_DEPTH, callee
    ))
}

/// The statistics an activation may bump.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counters {
    /// Instance activations (process resumes plus entity evaluations).
    pub activations: usize,
    /// `llhd.assert` intrinsic calls evaluated.
    pub assertions_checked: usize,
    /// Failed assertions.
    pub assertion_failures: usize,
}

/// Mutable scratch handed to every activation: reusable hot-path buffers
/// plus the [`Counters`] the activation bumps, which the driver folds
/// into the run totals.
#[derive(Default)]
pub struct Scratch {
    /// Reusable wait-list buffer, so suspending performs no allocation.
    pub observed: Vec<SignalId>,
    /// Reusable operand buffer for pure-op evaluation.
    pub args: Vec<ConstValue>,
    /// Counters bumped since the driver last folded them.
    pub counters: Counters,
}

/// Fold a scratch's counters into the run totals and zero them. Called
/// on every exit path of `initialize`/`step`, errors included, so the
/// totals stay exact.
fn fold_scratch(totals: &mut Counters, scratch: &mut Scratch) {
    let bumped = std::mem::take(&mut scratch.counters);
    totals.activations += bumped.activations;
    totals.assertions_checked += bumped.assertions_checked;
    totals.assertion_failures += bumped.assertion_failures;
}

/// What differs between simulation engines: per-instance state and how
/// to execute one activation of it.
///
/// An activation touches the executor itself (immutable), its own
/// instance's [`Executor::State`], the driver's [`Scratch`] and the
/// scheduler core. An executor and its states are `Send`, as an
/// [`Engine`] is.
pub trait Executor: Send {
    /// The engine name stamped into checkpoints and reported by
    /// [`Engine::engine_name`].
    const NAME: &'static str;
    /// The execution state of one unit instance.
    type State: Send;

    /// The elaborated design being executed.
    fn design(&self) -> &ElaboratedDesign;
    /// Whether the scheduler may drop redundant drives before enqueueing
    /// (see [`crate::sched::module_allows_drive_dropping`]).
    fn allow_drive_drop(&self) -> bool;
    /// Build the initial state of every instance, in instance order, and
    /// register each entity's static sensitivity with `core`.
    fn build_states(&self, core: &mut SchedCore) -> Vec<Self::State>;
    /// Activate instance `idx`: resume a process or evaluate an entity.
    ///
    /// # Errors
    ///
    /// Any error fails the cycle and poisons the driver.
    fn activate(
        &self,
        state: &mut Self::State,
        scratch: &mut Scratch,
        idx: usize,
        core: &mut SchedCore,
    ) -> Result<(), SimError>;
    /// Whether the instance is a process that reached `halt`.
    fn is_halted(state: &Self::State) -> bool;
    /// Append one instance's state to a checkpoint.
    fn encode_state(&self, state: &Self::State, out: &mut Vec<u8>);
    /// Restore instance `idx`'s state from a checkpoint, advancing `pos`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] on truncated or mismatching bytes.
    fn decode_state(
        &self,
        state: &mut Self::State,
        idx: usize,
        bytes: &[u8],
        pos: &mut usize,
    ) -> Result<(), SimError>;
}

/// Whether a `reg` trigger fires, given the trigger's previous sample
/// (`None` before its first evaluation) and its current one.
#[inline]
pub fn reg_fires(mode: RegMode, previous: Option<&ConstValue>, current: &ConstValue) -> bool {
    match mode {
        RegMode::High => current.is_truthy(),
        RegMode::Low => !current.is_truthy(),
        RegMode::Rise => previous.is_some_and(|p| !p.is_truthy()) && current.is_truthy(),
        RegMode::Fall => previous.is_some_and(|p| p.is_truthy()) && !current.is_truthy(),
        RegMode::Both => previous.is_some_and(|p| p != current),
    }
}

/// Append a `reg` trigger history (both engines keep one previous sample
/// per trigger) to a checkpoint.
pub fn encode_reg_history(out: &mut Vec<u8>, history: &[Option<ConstValue>]) {
    write_varint(out, history.len() as u128);
    for prev in history {
        match prev {
            Some(v) => {
                out.push(1);
                encode_const_value(out, v);
            }
            None => out.push(0),
        }
    }
}

/// Restore a history written by [`encode_reg_history`] into `history`,
/// whose length the executor sized from the design; `types` gives each
/// entry's trigger type, which a restored sample must have.
///
/// # Errors
///
/// Returns [`SimError::Runtime`] on a length mismatch, corrupt bytes or a
/// sample of the wrong type.
pub fn decode_reg_history(
    history: &mut [Option<ConstValue>],
    types: &[Type],
    bytes: &[u8],
    pos: &mut usize,
) -> Result<(), SimError> {
    if read_usize(bytes, pos)? != history.len() {
        return Err(SimError::Runtime(
            "corrupt engine checkpoint: reg history count mismatch".to_string(),
        ));
    }
    for (prev, ty) in history.iter_mut().zip(types) {
        *prev = match read_byte(bytes, pos)? {
            0 => None,
            1 => Some(read_const(bytes, pos)?),
            other => {
                return Err(SimError::Runtime(format!(
                    "corrupt engine checkpoint: unknown reg history tag {}",
                    other
                )))
            }
        };
        if prev.as_ref().is_some_and(|sample| !sample.has_type(ty)) {
            return Err(SimError::Runtime(
                "corrupt engine checkpoint: reg history sample of the wrong type".to_string(),
            ));
        }
    }
    Ok(())
}

/// A simulation engine: an [`Executor`] driven over the shared scheduler
/// core. [`Simulator`](crate::engine::Simulator) is this driver over the
/// interpreter; [`BlazeSimulator`](crate::blaze::BlazeSimulator) wraps
/// one over the compiled executor.
pub struct Driver<X: Executor> {
    exec: X,
    config: SimConfig,
    core: SchedCore,
    states: Vec<X::State>,
    totals: Counters,
    scratch: Scratch,
    initialized: bool,
    /// A failure during initialization or a step poisons the driver: the
    /// instances after the failing one never ran, so continuing would
    /// silently produce a wrong trace. Replayed by every later
    /// `initialize`/`step`.
    poisoned: Option<SimError>,
    to_run_buf: Vec<u32>,
}

impl<X: Executor> Driver<X> {
    /// Build a driver over `exec`: a fresh scheduler core for its design
    /// plus every instance's initial state.
    pub fn with_executor(exec: X, config: SimConfig) -> Self {
        let design = exec.design();
        let mut core = SchedCore::new(
            &config,
            &design.signals,
            design.num_instances(),
            exec.allow_drive_drop(),
        );
        let states = exec.build_states(&mut core);
        Driver {
            exec,
            config,
            core,
            states,
            totals: Counters::default(),
            scratch: Scratch::default(),
            initialized: false,
            poisoned: None,
            to_run_buf: Vec::new(),
        }
    }

    /// Run the initialization phase: every instance executes once.
    /// Idempotent — later calls are no-ops, and [`Driver::step`] calls it
    /// automatically.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] for unsupported constructs; the
    /// error poisons the driver and every later call replays it.
    pub fn initialize(&mut self) -> Result<(), SimError> {
        if self.initialized {
            return match &self.poisoned {
                None => Ok(()),
                Some(e) => Err(e.clone()),
            };
        }
        self.initialized = true;
        let result = self.run_activations(0..self.states.len());
        if let Err(e) = &result {
            self.poisoned = Some(e.clone());
        }
        result
    }

    /// Activate `insts` in order against the core, stopping at the first
    /// error, then fold the counters (on every exit path, so the totals
    /// stay exact across errors).
    fn run_activations(&mut self, insts: impl Iterator<Item = usize>) -> Result<(), SimError> {
        let mut result = Ok(());
        for idx in insts {
            let st = &mut self.states[idx];
            if let Err(e) = self
                .exec
                .activate(st, &mut self.scratch, idx, &mut self.core)
            {
                result = Err(e);
                break;
            }
        }
        fold_scratch(&mut self.totals, &mut self.scratch);
        result
    }

    /// Advance the simulation by exactly one scheduler cycle (one instant:
    /// apply its drives, activate the woken instances). Returns `false`
    /// once the event queue is exhausted or the configured end time is
    /// reached. Stepping is deterministic: a run advanced in arbitrary
    /// chunks produces the identical trace to an uninterrupted
    /// [`Driver::run`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] for unsupported constructs, runaway
    /// delta cycles, or processes that fail to suspend (all poisoning),
    /// and [`SimError::DeadlineExceeded`] from an armed [`RunControl`]
    /// (not poisoning: the check runs between cycles).
    pub fn step(&mut self) -> Result<bool, SimError> {
        self.initialize()?;
        if self.config.control.is_active() {
            // Checked before the cycle starts: state is consistent, so a
            // deadline abort leaves the engine resumable (no poisoning).
            self.config.control.check()?;
        }
        let mut to_run = std::mem::take(&mut self.to_run_buf);
        let mut outcome = self.core.next_cycle(&mut to_run);
        if let Ok(true) = outcome {
            // `to_run` is detached from `self` here, so iterating it while
            // activating instances borrows cleanly.
            if let Err(e) = self.run_activations(to_run.iter().map(|&inst| inst as usize)) {
                outcome = Err(e);
            }
        }
        self.to_run_buf = to_run;
        if let Err(e) = &outcome {
            // A failed cycle leaves half-applied state (the remaining
            // instances of the instant never ran); poison the driver so
            // later steps replay the error instead of silently diverging.
            self.poisoned = Some(e.clone());
        }
        outcome
    }

    /// Assemble the result of the run so far, taking the recorded trace
    /// out of the scheduler core. After a failed `initialize`/`step` the
    /// state is half-applied (the failing cycle never completed); the
    /// session layer refuses to assemble a result in that case, and
    /// callers driving the engine directly should do the same.
    pub fn finish(&mut self) -> SimResult {
        SimResult {
            end_time: self.core.time(),
            signal_changes: self.core.signal_changes(),
            assertions_checked: self.totals.assertions_checked,
            assertion_failures: self.totals.assertion_failures,
            halted_processes: self.states.iter().filter(|s| X::is_halted(s)).count(),
            activations: self.totals.activations,
            trace: self.core.take_trace(),
        }
    }

    /// Run the simulation to completion and return the result.
    ///
    /// # Errors
    ///
    /// See [`Driver::step`].
    pub fn run(&mut self) -> Result<SimResult, SimError> {
        while self.step()? {}
        Ok(self.finish())
    }

    /// The current simulation time.
    pub fn time(&self) -> TimeValue {
        self.core.time()
    }

    /// The elaborated design this engine executes.
    pub fn design(&self) -> &ElaboratedDesign {
        self.exec.design()
    }

    /// The current value of a signal.
    pub fn signal_value(&self, signal: SignalId) -> ConstValue {
        self.core.value(self.exec.design().resolve(signal))
    }

    /// Schedule an external drive of `signal` to `value`, taking effect at
    /// the next delta step (the session-level "poke").
    pub fn poke(&mut self, signal: SignalId, value: ConstValue) {
        let signal = self.exec.design().resolve(signal);
        self.core.schedule_drive(signal, value, &TimeValue::ZERO);
    }

    /// Serialize the complete execution state: the common header, the
    /// shared scheduler core, the run counters, then every instance's
    /// state in the executor's own layout. See [`Engine::checkpoint`] for
    /// the resume guarantee.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] on a poisoned engine.
    pub fn checkpoint(&self) -> Result<EngineState, SimError> {
        if let Some(e) = &self.poisoned {
            return Err(SimError::Runtime(format!(
                "cannot checkpoint a poisoned engine: {}",
                e
            )));
        }
        let design = self.exec.design();
        Ok(EngineState::encode(
            X::NAME,
            design.num_signals(),
            design.num_instances(),
            design_hash(design),
            |out| {
                self.core.snapshot(out);
                out.push(self.initialized as u8);
                write_varint(out, self.totals.assertions_checked as u128);
                write_varint(out, self.totals.assertion_failures as u128);
                write_varint(out, self.totals.activations as u128);
                for st in &self.states {
                    self.exec.encode_state(st, out);
                }
            },
        ))
    }

    /// Restore a checkpoint taken by the same engine kind over the same
    /// design into this (freshly constructed) driver. See
    /// [`Engine::restore`]. A failed restore leaves the state unspecified;
    /// build a fresh engine before retrying.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] on an engine, design-shape or
    /// design-hash mismatch, or on corrupt bytes.
    pub fn restore(&mut self, state: &EngineState) -> Result<(), SimError> {
        let design = self.exec.design();
        let bytes = state.as_bytes();
        let (mut pos, hash) =
            state.validate(X::NAME, design.num_signals(), design.num_instances())?;
        if hash != design_hash(design) {
            return Err(SimError::Runtime(
                "engine checkpoint was taken over a different design \
                 (its signal or instance names, types or units differ)"
                    .to_string(),
            ));
        }
        let pos = &mut pos;
        self.core.restore_snapshot(bytes, pos)?;
        self.initialized = read_byte(bytes, pos)? != 0;
        self.poisoned = None;
        self.totals.assertions_checked = read_usize(bytes, pos)?;
        self.totals.assertion_failures = read_usize(bytes, pos)?;
        self.totals.activations = read_usize(bytes, pos)?;
        for (idx, st) in self.states.iter_mut().enumerate() {
            self.exec.decode_state(st, idx, bytes, pos)?;
        }
        Ok(())
    }
}

/// The structural hash a checkpoint header carries: FNV-1a 64 over the
/// signals' names, types and alias targets and the instances' names,
/// units and kinds, in table order. It reads no `HashMap`, so a design
/// hashes the same in every process. Unit bodies are not covered: designs
/// that differ only inside a unit's instructions hash equal.
fn design_hash(design: &ElaboratedDesign) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        fn word(&mut self, word: usize) {
            self.bytes(&(word as u64).to_le_bytes());
        }
        fn name(&mut self, name: &str) {
            self.word(name.len());
            self.bytes(name.as_bytes());
        }
    }
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.bytes(s.as_bytes());
            Ok(())
        }
    }
    use std::fmt::Write;
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    hash.word(design.num_signals());
    for (idx, signal) in design.signals.iter().enumerate() {
        hash.name(&signal.name);
        write!(hash, "{};", signal.ty).expect("hashing a type cannot fail");
        hash.word(design.resolve(SignalId(idx)).0);
    }
    hash.word(design.num_instances());
    for instance in &design.instances {
        hash.name(&instance.name);
        hash.word(instance.unit.index());
        hash.word(instance.kind as usize);
    }
    hash.0
}

impl<X: Executor> Engine for Driver<X> {
    fn engine_name(&self) -> &'static str {
        X::NAME
    }
    fn initialize(&mut self) -> Result<(), SimError> {
        Driver::initialize(self)
    }
    fn step(&mut self) -> Result<bool, SimError> {
        Driver::step(self)
    }
    fn time(&self) -> TimeValue {
        Driver::time(self)
    }
    fn peek(&self, signal: SignalId) -> ConstValue {
        self.signal_value(signal)
    }
    fn poke(&mut self, signal: SignalId, value: ConstValue) {
        Driver::poke(self, signal, value)
    }
    fn finish(&mut self) -> SimResult {
        Driver::finish(self)
    }
    fn checkpoint(&self) -> Result<EngineState, SimError> {
        Driver::checkpoint(self)
    }
    fn restore(&mut self, state: &EngineState) -> Result<(), SimError> {
        Driver::restore(self, state)
    }
    fn set_control(&mut self, control: RunControl) {
        self.config.control = control;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::elaborate;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// The smallest executor: each activation bumps its instance's count
    /// and re-arms a 1 ns timeout; the `fail_at`-th activation of the run
    /// fails instead. Pins the driver's contract once, for every engine.
    struct Fake {
        design: ElaboratedDesign,
        seen: AtomicUsize,
        fail_at: usize,
    }

    impl Executor for Fake {
        const NAME: &'static str = "fake";
        type State = usize;
        fn design(&self) -> &ElaboratedDesign {
            &self.design
        }
        fn allow_drive_drop(&self) -> bool {
            false
        }
        fn build_states(&self, _: &mut SchedCore) -> Vec<usize> {
            vec![0; self.design.num_instances()]
        }
        fn activate(
            &self,
            count: &mut usize,
            scr: &mut Scratch,
            idx: usize,
            core: &mut SchedCore,
        ) -> Result<(), SimError> {
            scr.counters.activations += 1;
            *count += 1;
            if self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.fail_at {
                return Err(SimError::Runtime("boom".to_string()));
            }
            core.suspend(idx, &[], Some(&TimeValue::from_nanos(1)));
            Ok(())
        }
        fn is_halted(_: &usize) -> bool {
            false
        }
        fn encode_state(&self, count: &usize, out: &mut Vec<u8>) {
            write_varint(out, *count as u128);
        }
        fn decode_state(
            &self,
            count: &mut usize,
            _: usize,
            bytes: &[u8],
            pos: &mut usize,
        ) -> Result<(), SimError> {
            *count = read_usize(bytes, pos)?;
            Ok(())
        }
    }

    /// A driver over three instances whose `fail_at`-th activation fails
    /// (0: never).
    fn driver(fail_at: usize, config: SimConfig) -> Driver<Fake> {
        let module = llhd::assembly::parse_module(
            "proc @p () -> () {
            entry:
                halt
            }
            entity @top () -> () {
                %zero = const i8 0
                %s = sig i8 %zero
                inst @p () -> ()
                inst @p () -> ()
                inst @p () -> ()
            }",
        )
        .unwrap();
        let design = elaborate(&module, "top").unwrap();
        assert_eq!(
            design.num_instances(),
            4,
            "three processes under the top entity"
        );
        let fake = Fake {
            design,
            seen: AtomicUsize::new(0),
            fail_at,
        };
        Driver::with_executor(fake, config)
    }

    #[test]
    fn failing_activation_during_initialize_poisons_and_replays() {
        let mut sim = driver(2, SimConfig::until_nanos(10));
        let first = sim.initialize().unwrap_err();
        assert_eq!(first, SimError::Runtime("boom".to_string()));
        assert_eq!(sim.initialize().unwrap_err(), first);
        assert_eq!(sim.step().unwrap_err(), first);
        // The two activations that ran were folded on the error path, and
        // the replays ran nothing.
        assert_eq!(sim.finish().activations, 2);
        let err = sim.checkpoint().unwrap_err().to_string();
        assert!(err.contains("poisoned") && err.contains("boom"), "{}", err);
    }

    #[test]
    fn failing_activation_during_step_poisons_and_replays() {
        let mut sim = driver(6, SimConfig::until_nanos(10));
        sim.initialize().unwrap();
        let first = sim.step().unwrap_err();
        assert_eq!(first, SimError::Runtime("boom".to_string()));
        assert_eq!(sim.step().unwrap_err(), first);
        assert_eq!(sim.initialize().unwrap_err(), first);
        assert_eq!(sim.run().unwrap_err(), first);
        // Four during initialize, two in the failing cycle.
        assert_eq!(sim.finish().activations, 6);
        assert!(sim.checkpoint().is_err());
    }

    #[test]
    fn restore_rejects_foreign_and_truncated_checkpoints() {
        let config = SimConfig::until_nanos(10);
        let mut donor = driver(0, config.clone());
        for _ in 0..3 {
            assert!(donor.step().unwrap());
        }
        let good = donor.checkpoint().unwrap();
        let (signals, instances) = (donor.design().num_signals(), donor.design().num_instances());
        let hash = good.design_hash().unwrap();
        let body = |_: &mut Vec<u8>| {};
        let rejected = |state: EngineState, needle: &str| {
            let err = driver(0, config.clone())
                .restore(&state)
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "expected '{}' in '{}'", needle, err);
        };
        rejected(
            EngineState::encode("blaze", signals, instances, hash, body),
            "engine 'blaze'",
        );
        rejected(
            EngineState::encode("fake", signals + 1, instances, hash, body),
            "signals",
        );
        rejected(
            EngineState::encode("fake", signals, instances + 1, hash, body),
            "instances",
        );
        rejected(
            EngineState::encode("fake", signals, instances, hash ^ 1, body),
            "different design",
        );
        for cut in [1, 3, good.as_bytes().len() / 2] {
            let bytes = good.as_bytes()[..good.as_bytes().len() - cut].to_vec();
            rejected(EngineState::from_bytes(bytes).unwrap(), "truncated");
        }
        // The honest blob restores, counters and per-instance state included.
        let mut resumed = driver(0, config);
        resumed.restore(&good).unwrap();
        assert_eq!(resumed.states, donor.states);
        assert_eq!(
            resumed.run().unwrap().activations,
            donor.run().unwrap().activations
        );
    }

    #[test]
    fn deadline_abort_between_cycles_does_not_poison() {
        let blown = RunControl::deadline_in(Duration::ZERO);
        let mut sim = driver(0, SimConfig::until_nanos(10).with_control(blown));
        assert_eq!(sim.step().unwrap_err(), SimError::DeadlineExceeded);
        assert_eq!(sim.step().unwrap_err(), SimError::DeadlineExceeded);
        Engine::set_control(&mut sim, RunControl::default());
        assert!(sim.step().unwrap(), "the run resumes with a fresh budget");
        sim.checkpoint().unwrap();
    }
}
