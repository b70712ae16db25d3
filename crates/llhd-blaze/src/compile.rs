//! Compilation of LLHD units into the pre-resolved execution form.

use crate::superop::{specialize, SpecializedCode};
use llhd::ir::{Module, Opcode, RegMode, UnitId, UnitKind, Value};
use llhd::ty::{void_ty, Type, TypeKind};
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

/// Selects nothing: every unit lowers, fuses and specializes. The type,
/// its fields, [`compile_design_with`] and [`compile_unit_with`] are kept
/// only because the `benchmark/` package still names them; they go with
/// that caller in ROADMAP item 1.
///
/// ```
/// use llhd_blaze::{compile_design, compile_design_with, BlazeOptions};
/// use std::sync::Arc;
///
/// let module = llhd::assembly::parse_module(
///     "entity @top () -> () {
///         %zero = const i8 0
///         %q = sig i8 %zero
///     }",
/// )
/// .unwrap();
/// let design = Arc::new(llhd_sim::elaborate(&module, "top").unwrap());
/// let off = BlazeOptions { fuse: false, specialize: false, islands: false };
/// let ignored = compile_design_with(&module, Arc::clone(&design), off).unwrap();
/// let default = compile_design(&module, design).unwrap();
/// assert_eq!(ignored.unit_stats(), default.unit_stats());
/// ```
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlazeOptions {
    /// Ignored.
    pub fuse: bool,
    /// Ignored.
    pub specialize: bool,
    /// Ignored.
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
    /// Dense map from the unit's values (by [`Value::index`]) to signal
    /// slots (`u32::MAX` for non-signal values), used to bind instances.
    pub signal_slot_of_value: Vec<u32>,
    /// Constants pre-materialized into register slots. Register slots are
    /// written only by their unique SSA definition, so loading these once
    /// per register file replaces every runtime `const` execution.
    pub const_regs: Vec<(u32, ConstValue)>,
    /// Operand-slot arena referenced by the [`ArgRange`]s in the ops.
    pub arg_pool: Vec<u32>,
    /// The IR type of each register slot. It decides the slot's storage
    /// class in the lowered form (see
    /// [`LoweredUnit::widths`](crate::superop::LoweredUnit::widths)), and a
    /// restored checkpoint must give the slot a value of this type.
    pub reg_types: Vec<Type>,
    /// The type of each memory slot's contents (its `var`'s pointee).
    pub mem_types: Vec<Type>,
    /// The type of each register-state slot: its trigger's type.
    pub state_types: Vec<Type>,
    /// The superinstruction stream, which [`compile_unit`] builds for every
    /// unit (the `Option` stays only for the `benchmark/` package, which
    /// matches on it). [`compile_design`] specializes it per instance and
    /// once per function; see [`crate::superop`].
    pub lowered: Option<crate::superop::LoweredUnit>,
    /// Whether any `const time` in this unit carries an epsilon component.
    /// Collected during the one compile walk so [`compile_design`]
    /// can decide enqueue-time drive dropping without re-walking the
    /// module (see [`llhd_sim::sched::module_allows_drive_dropping`] for
    /// the soundness argument).
    pub has_epsilon_time_const: bool,
}

impl CompiledUnit {
    /// The operand slots referenced by `range`.
    #[inline]
    pub fn args(&self, range: ArgRange) -> &[u32] {
        range.slice(&self.arg_pool)
    }

    /// The superinstruction stream, which every compiled unit has.
    pub fn lowered(&self) -> &crate::superop::LoweredUnit {
        self.lowered.as_ref().expect("compile_unit lowers every unit")
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
    /// The specialized superinstruction stream this instance executes.
    /// Shared so engine instantiation over a cached design costs a
    /// reference-count bump.
    pub code: Arc<SpecializedCode>,
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
    /// Every function's stream, specialized once with an empty signal
    /// table: a function reads no signal, and the engine fails a signal
    /// or time op in a function body before it could index one.
    pub functions: HashMap<UnitId, SpecializedCode>,
    /// The elaborated design (signal table, aliases), shared with whoever
    /// elaborated it — typically a session or a design cache.
    pub design: Arc<ElaboratedDesign>,
    /// Whether the scheduler may drop redundant drives before enqueueing
    /// (see [`llhd_sim::sched::module_allows_drive_dropping`]), decided
    /// once at compile time.
    pub allow_drive_drop: bool,
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
        let code = |c: &SpecializedCode| {
            c.ops.len() * size_of::<crate::superop::SuperOp>() + c.pool.len() * size_of::<u32>()
        };
        let instances: usize = self
            .instances
            .iter()
            .map(|i| {
                size_of::<CompiledInstance>()
                    + i.name.len()
                    + i.signal_table.len() * size_of::<usize>()
                    + code(&i.code)
            })
            .sum();
        units + instances + self.functions.values().map(code).sum::<usize>()
    }

    /// Per-unit compilation statistics — base op counts, superinstruction
    /// counts after lowering, and how many instances run specialized code
    /// (all of them). Feeds the introspection surface through the
    /// backend's `artifact_stats` hook; sorted by unit name for a stable
    /// listing.
    pub fn unit_stats(&self) -> Vec<llhd_sim::api::UnitArtifactStats> {
        let mut stats: Vec<_> = self
            .units
            .iter()
            .map(|(&id, unit)| {
                let instances = self.instances.iter().filter(|i| i.unit == id).count();
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
                    specialized_instances: instances,
                }
            })
            .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }
}

/// Compile all units of a module and bind the elaborated instances: every
/// unit lowers, every instance specializes, and every function
/// specializes once.
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs outside the supported subset.
pub fn compile_design(
    module: &Module,
    design: impl Into<Arc<ElaboratedDesign>>,
) -> Result<CompiledDesign, CompileError> {
    let design = design.into();
    let mut units = HashMap::new();
    let mut functions = HashMap::new();
    // Drive dropping is sound iff no time constant anywhere carries an
    // epsilon component; the per-unit compile walk collects that, so no
    // second walk over the module is needed (the criterion matches
    // `llhd_sim::sched::module_allows_drive_dropping`, asserted below).
    let mut allow_drive_drop = true;
    for id in module.units() {
        let compiled = compile_unit(module, id)?;
        allow_drive_drop &= !compiled.has_epsilon_time_const;
        if compiled.kind == UnitKind::Function {
            functions.insert(id, specialize(compiled.lowered(), &[]));
        }
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
        // stream.
        let code = Arc::new(specialize(unit.lowered(), &signal_table));
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
        functions,
        design,
        allow_drive_drop,
        island_plan,
    })
}

/// [`compile_design`]; the options are ignored (see [`BlazeOptions`]).
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs outside the supported subset.
#[doc(hidden)]
pub fn compile_design_with(
    module: &Module,
    design: impl Into<Arc<ElaboratedDesign>>,
    _options: BlazeOptions,
) -> Result<CompiledDesign, CompileError> {
    compile_design(module, design)
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

/// [`compile_unit`]; the options are ignored (see [`BlazeOptions`]).
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs outside the supported subset.
#[doc(hidden)]
pub fn compile_unit_with(
    module: &Module,
    id: UnitId,
    _options: BlazeOptions,
) -> Result<CompiledUnit, CompileError> {
    compile_unit(module, id)
}

/// Compile a single unit and lower it to superinstructions.
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs outside the supported subset.
pub fn compile_unit(module: &Module, id: UnitId) -> Result<CompiledUnit, CompileError> {
    let unit = module.unit(id);
    let num_values = unit.num_value_slots();
    let mut reg_of = SlotMap::new(num_values);
    let mut sig_of = SlotMap::new(num_values);
    let mut mem_of = SlotMap::new(num_values);
    let mut state_types: Vec<Type> = Vec::new();

    let reg = |map: &mut SlotMap, v: Value| -> usize { map.get(v) };

    // Arguments: signal-typed arguments get signal slots, all arguments get
    // register slots (functions read them as values).
    let mut arg_regs = vec![];
    for arg in unit.args() {
        arg_regs.push(reg(&mut reg_of, arg));
        if unit.value_type(arg).is_signal() {
            reg(&mut sig_of, arg);
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
                            state: state_types.len(),
                        });
                        state_types.push(unit.value_type(t.trigger));
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

    // Each slot's IR type, found through the value it was assigned to.
    let slot_types = |map: &SlotMap| {
        let mut types = vec![void_ty(); map.len()];
        for (index, &slot) in map.of.iter().enumerate() {
            if slot != u32::MAX {
                types[slot as usize] = unit.value_type(Value::from_index(index));
            }
        }
        types
    };
    let reg_types = slot_types(&reg_of);
    let mem_types = slot_types(&mem_of)
        .into_iter()
        .map(|ty| match ty.kind() {
            TypeKind::Pointer(pointee) => pointee.clone(),
            _ => ty.clone(),
        })
        .collect();

    let mut compiled = CompiledUnit {
        kind: unit.kind(),
        name: unit.name().to_string(),
        ops,
        block_ranges,
        entry: 0,
        num_regs: reg_of.len(),
        num_mems: mem_of.len(),
        num_states: state_types.len(),
        num_signals: sig_of.len(),
        arg_regs,
        signal_slot_of_value: sig_of.of,
        const_regs,
        arg_pool,
        reg_types,
        mem_types,
        state_types,
        lowered: None,
        has_epsilon_time_const,
    };
    compiled.lowered = Some(crate::superop::lower_unit(&compiled, &int_typed));
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
