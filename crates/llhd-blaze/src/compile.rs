//! Compilation of LLHD units into the pre-resolved execution form.

use llhd::ir::{Module, Opcode, RegMode, UnitId, UnitKind, Value};
use llhd::value::ConstValue;
use llhd_sim::design::{ElaboratedDesign, InstanceKind, SignalId};
use llhd_sim::IslandPlan;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An error produced while compiling a unit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompileError(pub String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        write!(f, "compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// A compiled register trigger.
#[derive(Clone, Debug)]
pub struct CompiledTrigger {
    /// Register slot holding the stored value.
    pub value: usize,
    /// Trigger mode.
    pub mode: RegMode,
    /// Register slot holding the trigger sample.
    pub trigger: usize,
    /// Optional register slot holding the gate condition.
    pub gate: Option<usize>,
    /// State slot remembering the previous trigger sample.
    pub state: usize,
}

/// A compact reference to a run of operand slots in
/// [`CompiledUnit::arg_pool`]. Replaces a per-op `Vec` so compiling an
/// instruction allocates nothing.
#[derive(Clone, Copy, Debug)]
pub struct ArgRange {
    offset: u32,
    len: u32,
}

impl ArgRange {
    /// Append `slots` to `pool` and return the range referencing them.
    pub(crate) fn copy_into(pool: &mut Vec<u32>, slots: &[u32]) -> ArgRange {
        let offset = pool.len() as u32;
        pool.extend_from_slice(slots);
        ArgRange {
            offset,
            len: slots.len() as u32,
        }
    }

    /// The slice of `pool` this range references.
    #[inline]
    pub(crate) fn slice(self, pool: &[u32]) -> &[u32] {
        &pool[self.offset as usize..(self.offset + self.len) as usize]
    }
}

/// Compile-time knobs for the blaze lowering pipeline, exposed for the
/// ablation benchmarks (and anyone who wants the PR-2-era generic
/// dispatch back). The knobs may only change speed, never behaviour —
/// the differential tests assert byte-identical traces across every
/// combination.
///
/// ```
/// use llhd_blaze::{compile_design_with, BlazeOptions};
/// use llhd_sim::{elaborate, SimConfig};
/// use std::sync::Arc;
///
/// let module = llhd::assembly::parse_module(
///     "entity @top () -> () {
///         %zero = const i8 0
///         %q = sig i8 %zero
///     }",
/// )
/// .unwrap();
/// let design = Arc::new(elaborate(&module, "top").unwrap());
/// // Generic dispatch only: no fusion, no per-instance specialization.
/// let compiled = compile_design_with(
///     &module,
///     Arc::clone(&design),
///     BlazeOptions { fuse: false, specialize: false, ..BlazeOptions::default() },
/// )
/// .unwrap();
/// assert_eq!(compiled.options.fuse, false);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlazeOptions {
    /// Superinstruction fusion: pre-decoded fast-path variants plus the
    /// compare+branch, array+mux, and compute+drive pair fusions. With
    /// `false`, each generic op lowers to exactly one superop.
    pub fuse: bool,
    /// Per-instance specialization: baked signal bindings, inline constant
    /// delays, and cross-block constant folding. With `false`, instances
    /// execute the generic per-op stream through their signal tables.
    pub specialize: bool,
    /// Selects nothing: every run is serial. Kept only because the
    /// `benchmark/` package still sets it; it goes with that caller in
    /// ROADMAP item 1.
    #[doc(hidden)]
    pub islands: bool,
}

impl Default for BlazeOptions {
    fn default() -> Self {
        BlazeOptions {
            fuse: true,
            specialize: true,
            islands: true,
        }
    }
}


/// Recognised intrinsic calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Intrinsic {
    /// `llhd.assert`: check a condition.
    Assert,
    /// Any other `llhd.*` call: ignored.
    Ignore,
}

/// One pre-resolved operation.
///
/// Constants never appear here: they are materialized once per register
/// file via [`CompiledUnit::const_regs`] and cost nothing at run time.
#[derive(Clone, Debug)]
pub enum Op {
    /// Evaluate a pure operation.
    Pure {
        opcode: Opcode,
        dst: usize,
        args: ArgRange,
        imms: Vec<usize>,
    },
    /// Probe a signal into a register slot.
    Prb { dst: usize, sig: usize },
    /// Drive a signal.
    Drv {
        sig: usize,
        value: usize,
        delay: usize,
        cond: Option<usize>,
    },
    /// A register storage element.
    Reg {
        sig: usize,
        triggers: Vec<CompiledTrigger>,
    },
    /// A delayed copy of a signal.
    Del {
        target: usize,
        source: usize,
        delay: usize,
    },
    /// Allocate process-local memory.
    Var { mem: usize, init: usize },
    /// Load from process-local memory.
    Ld { dst: usize, mem: usize },
    /// Store to process-local memory.
    St { mem: usize, value: usize },
    /// Call a function or intrinsic.
    Call {
        callee: Option<UnitId>,
        intrinsic: Option<Intrinsic>,
        dst: Option<usize>,
        args: ArgRange,
    },
    /// Suspend until a signal change or timeout.
    Wait {
        resume: usize,
        time: Option<usize>,
        observed: ArgRange,
    },
    /// Suspend forever.
    Halt,
    /// Unconditional branch.
    Br { target: usize },
    /// Conditional branch (false target first, matching the IR).
    BrCond {
        cond: usize,
        if_false: usize,
        if_true: usize,
    },
    /// Return from a function.
    Ret { value: Option<usize> },
}

/// A compiled unit.
#[derive(Clone, Debug)]
pub struct CompiledUnit {
    /// The unit kind.
    pub kind: UnitKind,
    /// The unit name (for diagnostics).
    pub name: String,
    /// All operations of the unit, blocks laid out back to back (one
    /// contiguous stream keeps dispatch cache-friendly and compilation
    /// free of per-block allocations).
    pub ops: Vec<Op>,
    /// Half-open `ops` range of each block, indexed densely.
    pub block_ranges: Vec<(u32, u32)>,
    /// The entry block index.
    pub entry: usize,
    /// Number of value register slots.
    pub num_regs: usize,
    /// Number of memory slots.
    pub num_mems: usize,
    /// Number of register-state slots (one per reg trigger).
    pub num_states: usize,
    /// Number of signal slots.
    pub num_signals: usize,
    /// Register slots of the unit arguments (functions only).
    pub arg_regs: Vec<usize>,
    /// For each unit argument: its signal slot, if it is a signal.
    pub arg_signals: Vec<Option<usize>>,
    /// Dense map from the unit's values (by [`Value::index`]) to signal
    /// slots (`u32::MAX` for non-signal values), used to bind instances.
    pub signal_slot_of_value: Vec<u32>,
    /// Constants pre-materialized into register slots. Register slots are
    /// written only by their unique SSA definition, so loading these once
    /// per register file replaces every runtime `const` execution.
    pub const_regs: Vec<(u32, ConstValue)>,
    /// Operand-slot arena referenced by the [`ArgRange`]s in the ops.
    pub arg_pool: Vec<u32>,
    /// The superinstruction stream (processes and entities only; functions
    /// execute the generic ops). Instance binding specializes it per
    /// instance; see [`crate::superop`].
    pub lowered: Option<crate::superop::LoweredUnit>,
    /// Whether any `const time` in this unit carries an epsilon component.
    /// Collected during the one compile walk so [`compile_design_with`]
    /// can decide enqueue-time drive dropping without re-walking the
    /// module (see [`llhd_sim::sched::module_allows_drive_dropping`] for
    /// the soundness argument).
    pub has_epsilon_time_const: bool,
}

impl CompiledUnit {
    /// A fresh register file with the unit's constants materialized.
    pub fn new_regs(&self) -> Vec<ConstValue> {
        let mut regs = vec![ConstValue::Void; self.num_regs];
        for (slot, value) in &self.const_regs {
            regs[*slot as usize] = value.clone();
        }
        regs
    }

    /// The operand slots referenced by `range`.
    #[inline]
    pub fn args(&self, range: ArgRange) -> &[u32] {
        range.slice(&self.arg_pool)
    }

    /// The operations of block `index`, in execution order.
    #[inline]
    pub fn block_ops(&self, index: usize) -> &[Op] {
        let (start, end) = self.block_ranges[index];
        &self.ops[start as usize..end as usize]
    }

    /// Whether any part of this unit can execute more than once per run:
    /// entities re-run on every sensitivity hit, and a process re-runs
    /// blocks iff its CFG has a back edge (a branch or wait resuming at
    /// its own block or an earlier one). Straight-line processes execute
    /// each op at most once.
    pub fn reexecutes(&self) -> bool {
        if self.kind == UnitKind::Entity {
            return true;
        }
        for (block, &(start, end)) in self.block_ranges.iter().enumerate() {
            for op in &self.ops[start as usize..end as usize] {
                let back = |target: usize| target <= block;
                let has_back_edge = match op {
                    Op::Br { target } => back(*target),
                    Op::BrCond {
                        if_false, if_true, ..
                    } => back(*if_false) || back(*if_true),
                    Op::Wait { resume, .. } => back(*resume),
                    _ => false,
                };
                if has_back_edge {
                    return true;
                }
            }
        }
        false
    }
}

/// A compiled unit instance: the unit plus its signal bindings.
#[derive(Clone, Debug)]
pub struct CompiledInstance {
    /// The compiled unit this instance executes.
    pub unit: UnitId,
    /// Process or entity.
    pub kind: InstanceKind,
    /// Hierarchical name.
    pub name: String,
    /// The global signal bound to each signal slot, pre-resolved through
    /// any `con` aliases so the engine never chases them at run time.
    pub signal_table: Vec<SignalId>,
    /// The specialized superinstruction stream this instance executes
    /// (`None` with [`BlazeOptions::specialize`] off, in which case the
    /// engine falls back to the generic per-op dispatch). Shared so engine
    /// instantiation over a cached design costs a reference-count bump.
    pub code: Option<Arc<crate::superop::SpecializedCode>>,
}

/// A fully compiled design ready for execution by
/// [`BlazeSimulator`](crate::engine::BlazeSimulator).
#[derive(Clone, Debug)]
pub struct CompiledDesign {
    /// Compiled units, indexed by their module handle. Shared pointers keep
    /// per-activation dispatch free of deep copies.
    pub units: HashMap<UnitId, Arc<CompiledUnit>>,
    /// Compiled instances.
    pub instances: Vec<CompiledInstance>,
    /// The elaborated design (signal table, aliases), shared with whoever
    /// elaborated it — typically a session or a design cache.
    pub design: Arc<ElaboratedDesign>,
    /// Whether the scheduler may drop redundant drives before enqueueing
    /// (see [`llhd_sim::sched::module_allows_drive_dropping`]), decided
    /// once at compile time.
    pub allow_drive_drop: bool,
    /// The lowering knobs this design was compiled with.
    pub options: BlazeOptions,
    /// The sensitivity-island partition of the design, computed once at
    /// compile time. Its digest is stamped into checkpoints as a design
    /// fingerprint (see [`llhd_sim::IslandPlan`]).
    pub island_plan: IslandPlan,
}

impl CompiledDesign {
    /// A rough retained-size estimate in bytes: op streams, operand pools,
    /// and specialized instance code, by struct size — intentionally cheap
    /// rather than allocator-exact. Feeds the `DesignCache` observability
    /// counters through the backend's `artifact_bytes` hook.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let units: usize = self
            .units
            .values()
            .map(|u| {
                u.name.len()
                    + u.ops.len() * size_of::<Op>()
                    + u.block_ranges.len() * size_of::<(u32, u32)>()
                    + u.arg_pool.len() * size_of::<u32>()
                    + u.signal_slot_of_value.len() * size_of::<u32>()
                    + u.const_regs.len() * size_of::<(u32, ConstValue)>()
                    + u.lowered.as_ref().map_or(0, |l| {
                        l.ops.len() * size_of::<crate::superop::SuperOp>()
                            + l.pool.len() * size_of::<u32>()
                            + (l.consts.len() + l.init_regs.len()) * size_of::<ConstValue>()
                    })
            })
            .sum();
        let instances: usize = self
            .instances
            .iter()
            .map(|i| {
                size_of::<CompiledInstance>()
                    + i.name.len()
                    + i.signal_table.len() * size_of::<usize>()
                    + i.code.as_ref().map_or(0, |c| {
                        c.ops.len() * size_of::<crate::superop::SuperOp>()
                            + c.pool.len() * size_of::<u32>()
                    })
            })
            .sum();
        units + instances
    }

    /// Per-unit compilation statistics — base op counts, superinstruction
    /// counts after lowering, and how many instances run specialized code.
    /// Feeds the introspection surface through the backend's
    /// `artifact_stats` hook; sorted by unit name for a stable listing.
    pub fn unit_stats(&self) -> Vec<llhd_sim::api::UnitArtifactStats> {
        let mut stats: Vec<_> = self
            .units
            .iter()
            .map(|(&id, unit)| {
                let (instances, specialized) = self
                    .instances
                    .iter()
                    .filter(|i| i.unit == id)
                    .fold((0, 0), |(n, s), i| (n + 1, s + i.code.is_some() as usize));
                llhd_sim::api::UnitArtifactStats {
                    name: unit.name.clone(),
                    kind: match unit.kind {
                        UnitKind::Process => "process",
                        UnitKind::Entity => "entity",
                        UnitKind::Function => "function",
                    },
                    base_ops: unit.ops.len(),
                    superops: unit.lowered.as_ref().map_or(0, |l| l.ops.len()),
                    instances,
                    specialized_instances: specialized,
                }
            })
            .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }
}

/// Compile all units of a module and bind the elaborated instances, with
/// the default [`BlazeOptions`] (fusion and specialization on).
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs outside the supported subset.
pub fn compile_design(
    module: &Module,
    design: impl Into<Arc<ElaboratedDesign>>,
) -> Result<CompiledDesign, CompileError> {
    compile_design_with(module, design, BlazeOptions::default())
}

/// [`compile_design`] with explicit lowering knobs (the ablation surface).
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs outside the supported subset.
pub fn compile_design_with(
    module: &Module,
    design: impl Into<Arc<ElaboratedDesign>>,
    options: BlazeOptions,
) -> Result<CompiledDesign, CompileError> {
    let design = design.into();
    let mut units = HashMap::new();
    // Drive dropping is sound iff no time constant anywhere carries an
    // epsilon component; the per-unit compile walk collects that, so no
    // second walk over the module is needed (the criterion matches
    // `llhd_sim::sched::module_allows_drive_dropping`, asserted below).
    let mut allow_drive_drop = true;
    for id in module.units() {
        let compiled = compile_unit_with(module, id, options)?;
        allow_drive_drop &= !compiled.has_epsilon_time_const;
        units.insert(id, Arc::new(compiled));
    }
    debug_assert_eq!(
        allow_drive_drop,
        llhd_sim::sched::module_allows_drive_dropping(module)
    );
    let mut instances = Vec::with_capacity(design.instances.len());
    for instance in &design.instances {
        let unit = &units[&instance.unit];
        let mut signal_table = vec![SignalId(usize::MAX); unit.num_signals];
        for (value, &sig) in &instance.signal_map {
            let slot = unit.signal_slot_of_value[value.index()];
            if slot != u32::MAX {
                signal_table[slot as usize] = design.resolve(sig);
            }
        }
        // Instance-bind-time specialization: bake this instance's signal
        // bindings into its own copy of the (already folded) superop
        // stream. `lowered` is only built when specialization is on.
        let code = unit
            .lowered
            .as_ref()
            .map(|lowered| Arc::new(crate::superop::specialize(lowered, &signal_table)));
        instances.push(CompiledInstance {
            unit: instance.unit,
            kind: instance.kind,
            name: instance.name.clone(),
            signal_table,
            code,
        });
    }
    let island_plan = IslandPlan::build(module, &design);
    Ok(CompiledDesign {
        units,
        instances,
        design,
        allow_drive_drop,
        options,
        island_plan,
    })
}

/// Dense slot allocator: maps `Value::index()` to a compact slot index,
/// assigning slots on first use. Replaces the former per-operand hash-map
/// probes — compile time is on the `simulate()` path, so it gets the same
/// dense-table treatment as the runtime.
struct SlotMap {
    of: Vec<u32>,
    next: u32,
}

impl SlotMap {
    fn new(num_values: usize) -> Self {
        SlotMap {
            of: vec![u32::MAX; num_values],
            next: 0,
        }
    }

    fn get(&mut self, v: Value) -> usize {
        let slot = &mut self.of[v.index()];
        if *slot == u32::MAX {
            *slot = self.next;
            self.next += 1;
        }
        *slot as usize
    }

    fn len(&self) -> usize {
        self.next as usize
    }
}

/// Compile a single unit with the default [`BlazeOptions`].
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs outside the supported subset.
pub fn compile_unit(module: &Module, id: UnitId) -> Result<CompiledUnit, CompileError> {
    compile_unit_with(module, id, BlazeOptions::default())
}

/// Compile a single unit.
pub fn compile_unit_with(
    module: &Module,
    id: UnitId,
    options: BlazeOptions,
) -> Result<CompiledUnit, CompileError> {
    let unit = module.unit(id);
    let num_values = unit.num_value_slots();
    let mut reg_of = SlotMap::new(num_values);
    let mut sig_of = SlotMap::new(num_values);
    let mut mem_of = SlotMap::new(num_values);
    let mut num_states = 0usize;

    let reg = |map: &mut SlotMap, v: Value| -> usize { map.get(v) };

    // Arguments: signal-typed arguments get signal slots, all arguments get
    // register slots (functions read them as values).
    let mut arg_regs = vec![];
    let mut arg_signals = vec![];
    for arg in unit.args() {
        arg_regs.push(reg(&mut reg_of, arg));
        if unit.value_type(arg).is_signal() {
            arg_signals.push(Some(reg(&mut sig_of, arg)));
        } else {
            arg_signals.push(None);
        }
    }

    let block_list = unit.blocks();
    // Count the constants up front: a long straight-line stimulus can
    // hold thousands, and growing `const_regs` through doublings would
    // memcpy the accumulated `ConstValue`s over and over.
    let num_consts = block_list
        .iter()
        .flat_map(|&b| unit.insts_slice(b))
        .filter(|&&inst| unit.inst_data(inst).opcode == Opcode::Const)
        .count();
    let mut const_regs: Vec<(u32, ConstValue)> = Vec::with_capacity(num_consts);
    let mut arg_pool: Vec<u32> = Vec::with_capacity(unit.num_total_insts());
    let mut block_index = vec![u32::MAX; block_list.iter().map(|b| b.index() + 1).max().unwrap_or(0)];
    for (i, &b) in block_list.iter().enumerate() {
        block_index[b.index()] = i as u32;
    }
    let block_index = |b: llhd::ir::Block| block_index[b.index()] as usize;

    let mut has_epsilon_time_const = false;
    let mut ops: Vec<Op> = Vec::with_capacity(unit.num_total_insts());
    // Parallel to `ops`: whether a pure op's operands are all
    // integer-typed, which lets the superinstruction lowering pick the
    // pre-decoded `IntBin` fast path (types are gone after this walk).
    let mut int_typed: Vec<bool> = Vec::with_capacity(unit.num_total_insts());
    let mut block_ranges = Vec::with_capacity(block_list.len());
    for &block in &block_list {
        let insts = unit.insts_slice(block);
        let start = ops.len() as u32;
        for &inst in insts {
            let data = unit.inst_data(inst);
            let dst = unit.get_inst_result(inst).map(|r| reg(&mut reg_of, r));
            let mut int_args = false;
            let op = match data.opcode {
                Opcode::Const => {
                    // Materialized once into the register file; nothing to
                    // execute at run time.
                    if let Some(ConstValue::Time(t)) = &data.konst {
                        has_epsilon_time_const |= t.epsilon() > 0;
                    }
                    const_regs.push((dst.unwrap() as u32, data.konst.clone().unwrap()));
                    continue;
                }
                Opcode::Sig | Opcode::Inst | Opcode::Con => {
                    // Elaboration-time: allocate the signal slot so instance
                    // binding finds it, then emit nothing — the op stream
                    // carries only instructions that execute.
                    if let Some(result) = unit.get_inst_result(inst) {
                        reg(&mut sig_of, result);
                    }
                    continue;
                }
                Opcode::Prb => Op::Prb {
                    dst: dst.unwrap(),
                    sig: reg(&mut sig_of, data.args[0]),
                },
                Opcode::Drv | Opcode::DrvCond => Op::Drv {
                    sig: reg(&mut sig_of, data.args[0]),
                    value: reg(&mut reg_of, data.args[1]),
                    delay: reg(&mut reg_of, data.args[2]),
                    cond: if data.opcode == Opcode::DrvCond {
                        Some(reg(&mut reg_of, data.args[3]))
                    } else {
                        None
                    },
                },
                Opcode::Del => Op::Del {
                    target: reg(&mut sig_of, unit.inst_result(inst)),
                    source: reg(&mut sig_of, data.args[0]),
                    delay: reg(&mut reg_of, data.args[1]),
                },
                Opcode::Reg => {
                    let mut triggers = vec![];
                    for t in &data.triggers {
                        triggers.push(CompiledTrigger {
                            value: reg(&mut reg_of, t.value),
                            mode: t.mode,
                            trigger: reg(&mut reg_of, t.trigger),
                            gate: t.gate.map(|g| reg(&mut reg_of, g)),
                            state: {
                                let s = num_states;
                                num_states += 1;
                                s
                            },
                        });
                    }
                    Op::Reg {
                        sig: reg(&mut sig_of, data.args[0]),
                        triggers,
                    }
                }
                Opcode::Var | Opcode::Halloc => Op::Var {
                    mem: reg(&mut mem_of, unit.inst_result(inst)),
                    init: reg(&mut reg_of, data.args[0]),
                },
                Opcode::Ld => Op::Ld {
                    dst: dst.unwrap(),
                    mem: reg(&mut mem_of, data.args[0]),
                },
                Opcode::St => Op::St {
                    mem: reg(&mut mem_of, data.args[0]),
                    value: reg(&mut reg_of, data.args[1]),
                },
                Opcode::Free => continue,
                Opcode::Call => {
                    let ext = data
                        .ext_unit
                        .ok_or_else(|| CompileError("call without target".to_string()))?;
                    let name = unit.ext_unit_data(ext).name.clone();
                    let intrinsic = name.ident().and_then(|ident| {
                        ident.strip_prefix("llhd.").map(|rest| {
                            if rest == "assert" {
                                Intrinsic::Assert
                            } else {
                                Intrinsic::Ignore
                            }
                        })
                    });
                    let callee = if intrinsic.is_none() {
                        Some(module.unit_by_name(&name).ok_or_else(|| {
                            CompileError(format!("call to undefined function {}", name))
                        })?)
                    } else {
                        None
                    };
                    let offset = arg_pool.len() as u32;
                    arg_pool.extend(data.args.iter().map(|&a| reg(&mut reg_of, a) as u32));
                    Op::Call {
                        callee,
                        intrinsic,
                        dst,
                        args: ArgRange {
                            offset,
                            len: data.args.len() as u32,
                        },
                    }
                }
                Opcode::Wait | Opcode::WaitTime => {
                    let (time, signals) = if data.opcode == Opcode::WaitTime {
                        (Some(reg(&mut reg_of, data.args[0])), &data.args[1..])
                    } else {
                        (None, &data.args[..])
                    };
                    let offset = arg_pool.len() as u32;
                    arg_pool.extend(signals.iter().map(|&s| reg(&mut sig_of, s) as u32));
                    Op::Wait {
                        resume: block_index(data.blocks[0]),
                        time,
                        observed: ArgRange {
                            offset,
                            len: signals.len() as u32,
                        },
                    }
                }
                Opcode::Halt => Op::Halt,
                Opcode::Br => Op::Br {
                    target: block_index(data.blocks[0]),
                },
                Opcode::BrCond => Op::BrCond {
                    cond: reg(&mut reg_of, data.args[0]),
                    if_false: block_index(data.blocks[0]),
                    if_true: block_index(data.blocks[1]),
                },
                Opcode::Ret => Op::Ret { value: None },
                Opcode::RetValue => Op::Ret {
                    value: Some(reg(&mut reg_of, data.args[0])),
                },
                Opcode::Phi => {
                    return Err(CompileError(
                        "phi nodes are not supported by the compiled simulator".to_string(),
                    ))
                }
                op if op.is_pure() => {
                    int_args = data.args.iter().all(|&a| unit.value_type(a).is_int());
                    let offset = arg_pool.len() as u32;
                    arg_pool.extend(data.args.iter().map(|&a| reg(&mut reg_of, a) as u32));
                    Op::Pure {
                        opcode: op,
                        dst: dst.unwrap(),
                        args: ArgRange {
                            offset,
                            len: data.args.len() as u32,
                        },
                        imms: data.imms.clone(),
                    }
                }
                op => {
                    return Err(CompileError(format!(
                        "unsupported instruction {} in {}",
                        op,
                        unit.name()
                    )))
                }
            };
            ops.push(op);
            int_typed.push(int_args);
        }
        block_ranges.push((start, ops.len() as u32));
    }

    let mut compiled = CompiledUnit {
        kind: unit.kind(),
        name: unit.name().to_string(),
        ops,
        block_ranges,
        entry: 0,
        num_regs: reg_of.len(),
        num_mems: mem_of.len(),
        num_states,
        num_signals: sig_of.len(),
        arg_regs,
        arg_signals,
        signal_slot_of_value: sig_of.of,
        const_regs,
        arg_pool,
        lowered: None,
        has_epsilon_time_const,
    };
    // The lowered stream is only consumed by instance specialization, so
    // it is only built when that knob is on. Functions execute through
    // the generic ops (they never touch signals and are cold next to the
    // activation loop). Of the rest, only *re-executing* bodies are worth
    // lowering: entities (activated on every sensitivity hit) and
    // processes whose CFG has a back edge (a frontend's counted testbench
    // loop included). A loop-free process — e.g. an `initial` block that
    // is one straight line of stimulus — runs every op at most once, so
    // specializing it can never repay the per-op lowering cost it would
    // add to `compile_design`.
    if options.specialize && compiled.kind != UnitKind::Function && compiled.reexecutes() {
        compiled.lowered = Some(crate::superop::lower_unit(
            &compiled,
            &int_typed,
            options.fuse,
        ));
    }
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;
    use llhd_sim::elaborate;

    #[test]
    fn compiles_process_and_entity() {
        let module = parse_module(
            r#"
            entity @dff (i1$ %clk, i8$ %d) -> (i8$ %q) {
                %clkp = prb i1$ %clk
                %dp = prb i8$ %d
                reg i8$ %q, %dp rise %clkp
            }
            proc @stim () -> (i1$ %clk, i8$ %d) {
            entry:
                %one = const i1 1
                %v = const i8 7
                %t = const time 5ns
                drv i1$ %clk, %one after %t
                drv i8$ %d, %v after %t
                wait %done for %t
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
        let design = elaborate(&module, "top").unwrap();
        let compiled = compile_design(&module, design).unwrap();
        assert_eq!(compiled.instances.len(), 3);
        let dff = &compiled.units[&module.unit_by_ident("dff").unwrap()];
        assert_eq!(dff.kind, UnitKind::Entity);
        assert_eq!(dff.num_signals, 3);
        assert_eq!(dff.num_states, 1);
        let stim = &compiled.units[&module.unit_by_ident("stim").unwrap()];
        assert_eq!(stim.block_ranges.len(), 2);
        // Every instance's signal table is fully bound.
        for instance in &compiled.instances {
            let unit = &compiled.units[&instance.unit];
            if unit.num_signals > 0 && instance.kind == InstanceKind::Process {
                assert!(instance
                    .signal_table
                    .iter()
                    .all(|s| s.0 != usize::MAX));
            }
        }
    }

    #[test]
    fn unknown_call_target_is_an_error() {
        let module = parse_module(
            r#"
            proc @p () -> () {
            entry:
                %x = const i8 1
                call void @nowhere (%x)
                halt
            }
            "#,
        )
        .unwrap();
        let design = elaborate(&module, "p").unwrap();
        assert!(compile_design(&module, design).is_err());
    }
}
