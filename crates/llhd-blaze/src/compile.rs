//! Compilation of LLHD units into the pre-resolved execution form.

use crate::superop::{specialize, Delay, LoweredUnit, SpecializedCode, SuperOp};
use llhd::ir::{Module, Opcode, RegMode, UnitId, UnitKind, Value};
use llhd::ty::{void_ty, Type, TypeKind};
use llhd::value::ConstValue;
use llhd_sim::design::{ElaboratedDesign, InstanceKind, SignalId};
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
    pub value: u32,
    /// Trigger mode.
    pub mode: RegMode,
    /// Register slot holding the trigger sample.
    pub trigger: u32,
    /// Optional register slot holding the gate condition.
    pub gate: Option<u32>,
    /// State slot remembering the previous trigger sample.
    pub state: usize,
}

/// A compact reference to a run of operand slots in a stream's operand
/// pool ([`LoweredUnit::pool`](crate::superop::LoweredUnit::pool)).
/// Replaces a per-op `Vec` so compiling an instruction allocates nothing.
#[derive(Clone, Copy, Debug)]
pub struct ArgRange {
    offset: u32,
    len: u32,
}

impl ArgRange {
    /// Append `slots` to `pool` and return the range referencing them.
    pub(crate) fn push(pool: &mut Vec<u32>, slots: impl IntoIterator<Item = u32>) -> ArgRange {
        let offset = pool.len() as u32;
        pool.extend(slots);
        ArgRange {
            offset,
            len: pool.len() as u32 - offset,
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

/// A compiled unit.
#[derive(Clone, Debug)]
pub struct CompiledUnit {
    /// The unit kind.
    pub kind: UnitKind,
    /// The unit name (for diagnostics).
    pub name: String,
    /// The number of IR instructions that execute: every instruction but
    /// the materialized constants and the elaboration-time `sig`, `inst`,
    /// `con` and `free`. [`compile_unit`] emits one superop for each.
    pub base_ops: usize,
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
    /// The superinstruction stream, which every compiled unit has.
    pub fn lowered(&self) -> &crate::superop::LoweredUnit {
        self.lowered
            .as_ref()
            .expect("compile_unit lowers every unit")
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
}

impl CompiledDesign {
    /// A rough retained-size estimate in bytes: each unit's lowered stream
    /// with its constant and word files, and the specialized code of every
    /// instance and function, by struct size — intentionally cheap rather
    /// than allocator-exact. Feeds the `DesignCache` observability counters
    /// through the backend's `artifact_bytes` hook.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let units: usize = self
            .units
            .values()
            .map(|u| {
                let l = u.lowered();
                u.name.len()
                    + u.signal_slot_of_value.len() * size_of::<u32>()
                    + u.const_regs.len() * size_of::<(u32, ConstValue)>()
                    + l.ops.len() * size_of::<SuperOp>()
                    + l.block_ranges.len() * size_of::<(u32, u32)>()
                    + l.pool.len() * size_of::<u32>()
                    + l.dropped.len() * size_of::<bool>()
                    + (l.consts.len() + l.init_regs.len()) * size_of::<ConstValue>()
                    + l.init_words.len() * size_of::<u64>()
                    + l.widths.len()
                    + l.mem_widths.len()
            })
            .sum();
        let code = |c: &SpecializedCode| {
            c.ops.len() * size_of::<SuperOp>() + c.pool.len() * size_of::<u32>()
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

    /// Per-unit compilation statistics — executing IR instructions,
    /// superops after fusion, and how many instances run specialized code
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
                    base_ops: unit.base_ops,
                    superops: unit.lowered().ops.len(),
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
    Ok(CompiledDesign {
        units,
        instances,
        functions,
        design,
        allow_drive_drop,
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
/// dense-table treatment as the runtime. It also counts how often each
/// slot is read by an executing instruction: fusion requires the fused-away
/// intermediate to have exactly one reader.
struct SlotMap {
    of: Vec<u32>,
    next: u32,
    reads: Vec<u32>,
}

impl SlotMap {
    fn new(num_values: usize) -> Self {
        SlotMap {
            of: vec![u32::MAX; num_values],
            next: 0,
            reads: vec![0; num_values],
        }
    }

    fn get(&mut self, v: Value) -> u32 {
        let slot = &mut self.of[v.index()];
        if *slot == u32::MAX {
            *slot = self.next;
            self.next += 1;
        }
        *slot
    }

    /// The slot of `v`, counted as one read of it.
    fn read(&mut self, v: Value) -> u32 {
        let slot = self.get(v);
        self.reads[slot as usize] += 1;
        slot
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

/// Compile a single unit: one walk over its instructions emits a
/// [`SuperOp`] for each one that executes, then the unit-level passes of
/// [`crate::superop`] fold, move narrow integers into words and fuse.
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

    // Arguments: signal-typed arguments get signal slots, all arguments get
    // register slots (functions read them as values).
    let mut arg_regs = vec![];
    for arg in unit.args() {
        arg_regs.push(reg_of.get(arg) as usize);
        if unit.value_type(arg).is_signal() {
            sig_of.get(arg);
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
    let mut block_index =
        vec![u32::MAX; block_list.iter().map(|b| b.index() + 1).max().unwrap_or(0)];
    for (i, &b) in block_list.iter().enumerate() {
        block_index[b.index()] = i as u32;
    }
    let block_index = |b: llhd::ir::Block| block_index[b.index()];

    let mut has_epsilon_time_const = false;
    let mut ops: Vec<SuperOp> = Vec::with_capacity(unit.num_total_insts());
    let mut pool: Vec<u32> = Vec::with_capacity(unit.num_total_insts());
    let mut block_ranges = Vec::with_capacity(block_list.len());
    // A pure op's operand slots, reused across instructions.
    let mut args: Vec<u32> = Vec::new();
    for &block in &block_list {
        let start = ops.len() as u32;
        for &inst in unit.insts_slice(block) {
            let data = unit.inst_data(inst);
            let dst = unit.get_inst_result(inst).map(|r| reg_of.get(r));
            let op = match data.opcode {
                Opcode::Const => {
                    // Materialized once into the register file; nothing to
                    // execute at run time.
                    if let Some(ConstValue::Time(t)) = &data.konst {
                        has_epsilon_time_const |= t.epsilon() > 0;
                    }
                    const_regs.push((dst.unwrap(), data.konst.clone().unwrap()));
                    continue;
                }
                Opcode::Sig | Opcode::Inst | Opcode::Con => {
                    // Elaboration-time: allocate the signal slot so instance
                    // binding finds it, then emit nothing — the stream
                    // carries only instructions that execute.
                    if let Some(result) = unit.get_inst_result(inst) {
                        sig_of.get(result);
                    }
                    continue;
                }
                Opcode::Prb => SuperOp::Prb {
                    dst: dst.unwrap(),
                    sig: sig_of.get(data.args[0]),
                },
                Opcode::Drv | Opcode::DrvCond => SuperOp::Drv {
                    sig: sig_of.get(data.args[0]),
                    value: reg_of.read(data.args[1]),
                    delay: Delay::Reg(reg_of.read(data.args[2])),
                    cond: (data.opcode == Opcode::DrvCond).then(|| reg_of.read(data.args[3])),
                },
                Opcode::Del => SuperOp::Del {
                    target: sig_of.get(unit.inst_result(inst)),
                    source: sig_of.get(data.args[0]),
                    delay: Delay::Reg(reg_of.read(data.args[1])),
                },
                Opcode::Reg => {
                    let mut triggers = vec![];
                    for t in &data.triggers {
                        triggers.push(CompiledTrigger {
                            value: reg_of.read(t.value),
                            mode: t.mode,
                            trigger: reg_of.read(t.trigger),
                            gate: t.gate.map(|g| reg_of.read(g)),
                            state: state_types.len(),
                        });
                        state_types.push(unit.value_type(t.trigger));
                    }
                    SuperOp::Reg {
                        sig: sig_of.get(data.args[0]),
                        triggers,
                    }
                }
                Opcode::Var | Opcode::Halloc => SuperOp::Var {
                    mem: mem_of.get(unit.inst_result(inst)),
                    init: reg_of.read(data.args[0]),
                },
                Opcode::Ld => SuperOp::Ld {
                    dst: dst.unwrap(),
                    mem: mem_of.get(data.args[0]),
                },
                Opcode::St => SuperOp::St {
                    mem: mem_of.get(data.args[0]),
                    value: reg_of.read(data.args[1]),
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
                    SuperOp::Call {
                        callee,
                        intrinsic,
                        dst,
                        args: ArgRange::push(&mut pool, data.args.iter().map(|&a| reg_of.read(a))),
                    }
                }
                Opcode::Wait | Opcode::WaitTime => {
                    let (time, signals) = if data.opcode == Opcode::WaitTime {
                        (Some(Delay::Reg(reg_of.read(data.args[0]))), &data.args[1..])
                    } else {
                        (None, &data.args[..])
                    };
                    SuperOp::Wait {
                        resume: block_index(data.blocks[0]),
                        time,
                        observed: ArgRange::push(&mut pool, signals.iter().map(|&s| sig_of.get(s))),
                    }
                }
                Opcode::Halt => SuperOp::Halt,
                Opcode::Br => SuperOp::Br {
                    target: block_index(data.blocks[0]),
                },
                Opcode::BrCond => SuperOp::BrCond {
                    cond: reg_of.read(data.args[0]),
                    if_false: block_index(data.blocks[0]),
                    if_true: block_index(data.blocks[1]),
                },
                Opcode::Ret => SuperOp::Ret { value: None },
                Opcode::RetValue => SuperOp::Ret {
                    value: Some(reg_of.read(data.args[0])),
                },
                Opcode::Phi => {
                    return Err(CompileError(
                        "phi nodes are not supported by the compiled simulator".to_string(),
                    ))
                }
                opcode if opcode.is_pure() => {
                    args.clear();
                    args.extend(data.args.iter().map(|&a| reg_of.read(a)));
                    pure_op(opcode, dst.unwrap(), &args, &data.imms, &mut pool)
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
        base_ops: ops.len(),
        entry: 0,
        num_regs: reg_of.len(),
        num_mems: mem_of.len(),
        num_states: state_types.len(),
        num_signals: sig_of.len(),
        arg_regs,
        signal_slot_of_value: sig_of.of,
        const_regs,
        reg_types,
        mem_types,
        state_types,
        lowered: None,
        has_epsilon_time_const,
    };
    let mut lowered = LoweredUnit {
        ops,
        block_ranges,
        pool,
        ..LoweredUnit::default()
    };
    crate::superop::optimize(&mut lowered, &compiled, &reg_of.reads);
    compiled.lowered = Some(lowered);
    Ok(compiled)
}

/// The superop of a pure instruction with operand slots `args`: a
/// by-reference variant where the opcode has one (no operand cloning into
/// a scratch buffer), else the generic [`SuperOp::Pure`].
fn pure_op(opcode: Opcode, dst: u32, args: &[u32], imms: &[usize], pool: &mut Vec<u32>) -> SuperOp {
    match (opcode, args, imms) {
        (Opcode::Alias | Opcode::Not | Opcode::Neg, &[a], _) => SuperOp::Un { opcode, dst, a },
        (Opcode::Zext | Opcode::Sext | Opcode::Trunc, &[a], &[width, ..]) => SuperOp::Cast {
            opcode,
            dst,
            a,
            width: width as u32,
        },
        (Opcode::Mux, &[choices, sel], []) => SuperOp::Mux { dst, choices, sel },
        (Opcode::ExtField, &[a], &[index, ..]) => SuperOp::ExtF {
            dst,
            a,
            index: index as u32,
        },
        (Opcode::ExtSlice, &[a], &[offset, length, ..]) => SuperOp::ExtS {
            dst,
            a,
            offset: offset as u32,
            length: length as u32,
        },
        (Opcode::InsField, &[a, b], &[index, ..]) => SuperOp::InsF {
            dst,
            a,
            b,
            index: index as u32,
        },
        (Opcode::InsSlice, &[a, b], &[offset, _, ..]) => SuperOp::InsS {
            dst,
            a,
            b,
            offset: offset as u32,
        },
        (_, &[a, b], []) if !matches!(opcode, Opcode::Array | Opcode::Struct | Opcode::Mux) => {
            SuperOp::Bin { opcode, dst, a, b }
        }
        _ => SuperOp::Pure {
            opcode,
            dst,
            args: ArgRange::push(pool, args.iter().copied()),
            imms: imms.to_vec(),
        },
    }
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
        assert_eq!(stim.lowered().block_ranges.len(), 2);
        // Every instance's signal table is fully bound.
        for instance in &compiled.instances {
            let unit = &compiled.units[&instance.unit];
            if unit.num_signals > 0 && instance.kind == InstanceKind::Process {
                assert!(instance.signal_table.iter().all(|s| s.0 != usize::MAX));
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
