//! Design elaboration.
//!
//! Elaboration turns a hierarchical [`Module`] into a flat design: a table
//! of signal instances and a table of unit instances (processes and
//! entities) with their argument signals resolved. This mirrors what the
//! paper describes for entities: upon initialization all instructions are
//! executed once — signal creation and sub-circuit instantiation happen
//! here, everything else is re-evaluated by the simulation engine.

use llhd::eval::eval_pure;
use llhd::ir::{Module, Opcode, UnitId, UnitKind, Value};
use llhd::ty::Type;
use llhd::value::ConstValue;
use std::collections::HashMap;
use std::fmt;

/// A handle to an elaborated signal instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SignalId(pub usize);

/// A handle to an elaborated unit instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct InstanceId(pub usize);

/// Information about one signal instance.
#[derive(Clone, Debug)]
pub struct SignalInfo {
    /// The hierarchical name of the signal.
    pub name: String,
    /// The payload type of the signal.
    pub ty: Type,
    /// The initial value.
    pub init: ConstValue,
}

/// Whether an instance executes as a process or as an entity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstanceKind {
    /// A control-flow process.
    Process,
    /// A data-flow entity.
    Entity,
}

/// One elaborated unit instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The unit this instance executes.
    pub unit: UnitId,
    /// Process or entity.
    pub kind: InstanceKind,
    /// The hierarchical instance path.
    pub name: String,
    /// Mapping from the unit's signal-typed values (arguments, `sig` and
    /// `del` results) to the global signal instances.
    pub signal_map: HashMap<Value, SignalId>,
}

/// A fully elaborated design: flat lists of signals and instances.
#[derive(Clone, Debug, Default)]
pub struct ElaboratedDesign {
    /// All signal instances.
    pub signals: Vec<SignalInfo>,
    /// All unit instances.
    pub instances: Vec<Instance>,
    /// Alias table produced by `con` instructions; `resolve` follows it.
    aliases: Vec<usize>,
}

impl ElaboratedDesign {
    fn add_signal(&mut self, name: String, ty: Type, init: ConstValue) -> SignalId {
        let id = SignalId(self.signals.len());
        self.signals.push(SignalInfo { name, ty, init });
        self.aliases.push(id.0);
        id
    }

    fn connect(&mut self, a: SignalId, b: SignalId) {
        let ra = self.resolve(a);
        let rb = self.resolve(b);
        if ra != rb {
            self.aliases[rb.0] = ra.0;
        }
    }

    /// Resolve a signal through any `con` aliases to its canonical
    /// representative.
    pub fn resolve(&self, signal: SignalId) -> SignalId {
        let mut cur = signal.0;
        while self.aliases[cur] != cur {
            cur = self.aliases[cur];
        }
        SignalId(cur)
    }

    /// The number of signal instances (including aliased ones).
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// The number of unit instances.
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Find a signal by hierarchical name suffix: the first whose name is
    /// `name` or ends in `.name`.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| {
                s.name
                    .strip_suffix(name)
                    .is_some_and(|head| head.is_empty() || head.ends_with('.'))
            })
            .map(SignalId)
    }
}

/// An error produced during elaboration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ElaborateError {
    /// The requested top unit does not exist in the module.
    UnknownTop(String),
    /// An instantiated unit is not defined in the module.
    UnknownUnit(String),
    /// A construct that elaboration cannot handle.
    Unsupported(String),
}

impl fmt::Display for ElaborateError {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match self {
            ElaborateError::UnknownTop(name) => write!(f, "unknown top unit '{}'", name),
            ElaborateError::UnknownUnit(name) => write!(f, "unknown unit '{}'", name),
            ElaborateError::Unsupported(msg) => write!(f, "unsupported construct: {}", msg),
        }
    }
}

impl std::error::Error for ElaborateError {}

/// Elaborate the design rooted at the unit with identifier `top`.
///
/// # Errors
///
/// See [`ElaborateError`].
pub fn elaborate(module: &Module, top: &str) -> Result<ElaboratedDesign, ElaborateError> {
    let top_id = module
        .unit_by_ident(top)
        .ok_or_else(|| ElaborateError::UnknownTop(top.to_string()))?;
    let mut design = ElaboratedDesign::default();
    // Create signals for the top-level ports.
    let unit = module.unit(top_id);
    let mut bound = vec![];
    for arg in unit.args() {
        let ty = unit.value_type(arg);
        if !ty.is_signal() {
            return Err(ElaborateError::Unsupported(format!(
                "top-level argument of non-signal type {}",
                ty
            )));
        }
        let payload = ty.unwrap_signal().clone();
        let name = unit
            .value_name(arg)
            .map(|n| n.to_string())
            .unwrap_or_else(|| format!("port{}", arg.index()));
        let id = design.add_signal(
            format!("{}.{}", top, name),
            payload.clone(),
            ConstValue::zero_of(&payload),
        );
        bound.push(id);
    }
    instantiate(module, top_id, &bound, top.to_string(), &mut design)?;
    Ok(design)
}

/// One elaboration-time item: either a compile-time value or a signal.
#[derive(Clone, Debug)]
enum Item {
    Value(ConstValue),
    Signal(SignalId),
}

fn instantiate(
    module: &Module,
    unit_id: UnitId,
    bound: &[SignalId],
    path: String,
    design: &mut ElaboratedDesign,
) -> Result<InstanceId, ElaborateError> {
    let unit = module.unit(unit_id);
    match unit.kind() {
        UnitKind::Process => {
            let mut signal_map = HashMap::new();
            for (arg, &sig) in unit.args().into_iter().zip(bound) {
                signal_map.insert(arg, sig);
            }
            let id = InstanceId(design.instances.len());
            design.instances.push(Instance {
                unit: unit_id,
                kind: InstanceKind::Process,
                name: path,
                signal_map,
            });
            Ok(id)
        }
        UnitKind::Entity => instantiate_entity(module, unit_id, bound, path, design),
        UnitKind::Function => Err(ElaborateError::Unsupported(
            "functions cannot be instantiated".to_string(),
        )),
    }
}

fn instantiate_entity(
    module: &Module,
    unit_id: UnitId,
    bound: &[SignalId],
    path: String,
    design: &mut ElaboratedDesign,
) -> Result<InstanceId, ElaborateError> {
    let unit = module.unit(unit_id);
    let mut env: HashMap<Value, Item> = HashMap::new();
    for (arg, &sig) in unit.args().into_iter().zip(bound) {
        env.insert(arg, Item::Signal(sig));
    }
    let body = unit
        .entry_block()
        .ok_or_else(|| ElaborateError::Unsupported("entity without body".to_string()))?;
    for inst in unit.insts(body) {
        let data = unit.inst_data(inst);
        match data.opcode {
            Opcode::Const => {
                let result = unit.inst_result(inst);
                env.insert(result, Item::Value(data.konst.clone().unwrap()));
            }
            Opcode::Sig => {
                let result = unit.inst_result(inst);
                let init = match env.get(&data.args[0]) {
                    Some(Item::Value(v)) => v.clone(),
                    _ => ConstValue::zero_of(unit.value_type(data.args[0]).strip()),
                };
                let name = unit
                    .value_name(result)
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| format!("sig{}", result.index()));
                let ty = unit.value_type(data.args[0]);
                let id = design.add_signal(format!("{}.{}", path, name), ty, init);
                env.insert(result, Item::Signal(id));
            }
            Opcode::Del => {
                let result = unit.inst_result(inst);
                let source = match env.get(&data.args[0]) {
                    Some(Item::Signal(s)) => *s,
                    _ => {
                        return Err(ElaborateError::Unsupported(
                            "del of a non-signal value".to_string(),
                        ))
                    }
                };
                let info = design.signals[design.resolve(source).0].clone();
                let name = unit
                    .value_name(result)
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| format!("del{}", result.index()));
                let id = design.add_signal(format!("{}.{}", path, name), info.ty, info.init);
                env.insert(result, Item::Signal(id));
            }
            Opcode::Con => {
                let a = match env.get(&data.args[0]) {
                    Some(Item::Signal(s)) => *s,
                    _ => {
                        return Err(ElaborateError::Unsupported(
                            "con of a non-signal value".to_string(),
                        ))
                    }
                };
                let b = match env.get(&data.args[1]) {
                    Some(Item::Signal(s)) => *s,
                    _ => {
                        return Err(ElaborateError::Unsupported(
                            "con of a non-signal value".to_string(),
                        ))
                    }
                };
                design.connect(a, b);
            }
            Opcode::Prb => {
                // During elaboration a probe yields the initial value of the
                // signal; this is only used if the value feeds another
                // elaboration-time construct.
                if let Some(Item::Signal(sig)) = env.get(&data.args[0]) {
                    let init = design.signals[design.resolve(*sig).0].init.clone();
                    env.insert(unit.inst_result(inst), Item::Value(init));
                }
            }
            Opcode::Inst => {
                let ext = data.ext_unit.unwrap();
                let ext_data = unit.ext_unit_data(ext);
                let child_id = module
                    .unit_by_name(&ext_data.name)
                    .ok_or_else(|| ElaborateError::UnknownUnit(ext_data.name.to_string()))?;
                let mut child_bound = vec![];
                for &arg in &data.args {
                    match env.get(&arg) {
                        Some(Item::Signal(s)) => child_bound.push(*s),
                        _ => {
                            return Err(ElaborateError::Unsupported(
                                "instance argument is not a signal".to_string(),
                            ))
                        }
                    }
                }
                let child_name = ext_data
                    .name
                    .ident()
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("u{}", child_id.index()));
                instantiate(
                    module,
                    child_id,
                    &child_bound,
                    format!("{}.{}", path, child_name),
                    design,
                )?;
            }
            Opcode::Drv | Opcode::DrvCond | Opcode::Reg | Opcode::Call => {
                // Runtime behaviour, handled by the engine.
            }
            op if op.is_pure() => {
                // Evaluate if all operands are elaboration-time values.
                let mut args = Vec::with_capacity(data.args.len());
                let mut ok = true;
                for &a in &data.args {
                    match env.get(&a) {
                        Some(Item::Value(v)) => args.push(v.clone()),
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    if let Some(value) = eval_pure(op, &args, &data.imms) {
                        if let Some(result) = unit.get_inst_result(inst) {
                            env.insert(result, Item::Value(value));
                        }
                    }
                }
            }
            op => {
                return Err(ElaborateError::Unsupported(format!(
                    "instruction {} in entity",
                    op
                )))
            }
        }
    }
    let signal_map = env
        .into_iter()
        .filter_map(|(value, item)| match item {
            Item::Signal(sig) => Some((value, sig)),
            Item::Value(_) => None,
        })
        .collect();
    let id = InstanceId(design.instances.len());
    design.instances.push(Instance {
        unit: unit_id,
        kind: InstanceKind::Entity,
        name: path,
        signal_map,
    });
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;

    const ACC_DESIGN: &str = r#"
        proc @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
        init:
            %clk0 = prb i1$ %clk
            wait %init, %clk
        }
        entity @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
            %qp = prb i32$ %q
        }
        entity @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q) {
            %zero = const i32 0
            %d = sig i32 %zero
            inst @acc_ff (%clk, %d) -> (%q)
            inst @acc_comb (%q, %x, %en) -> (%d)
        }
    "#;

    #[test]
    fn elaborates_hierarchy() {
        let module = parse_module(ACC_DESIGN).unwrap();
        let design = elaborate(&module, "acc").unwrap();
        // 4 top-level ports + 1 internal signal.
        assert_eq!(design.num_signals(), 5);
        // acc + acc_ff + acc_comb.
        assert_eq!(design.num_instances(), 3);
        assert!(design.signal_by_name("d").is_some());
        assert!(design.signal_by_name("clk").is_some());
        let ff = design
            .instances
            .iter()
            .find(|i| i.name.ends_with("acc_ff"))
            .unwrap();
        assert_eq!(ff.kind, InstanceKind::Process);
        assert_eq!(ff.signal_map.len(), 3);
        // The child's %d argument is bound to the parent's internal signal.
        let d = design.signal_by_name("d").unwrap();
        assert!(ff.signal_map.values().any(|&s| s == d));
    }

    #[test]
    fn unknown_top_is_an_error() {
        let module = parse_module(ACC_DESIGN).unwrap();
        assert!(matches!(
            elaborate(&module, "missing"),
            Err(ElaborateError::UnknownTop(name)) if name == "missing"
        ));
    }

    #[test]
    fn unknown_child_is_an_error() {
        let module = parse_module(
            r#"
            entity @top () -> () {
                %zero = const i1 0
                %s = sig i1 %zero
                inst @missing (%s) -> ()
            }
            "#,
        )
        .unwrap();
        assert!(matches!(
            elaborate(&module, "top"),
            Err(ElaborateError::UnknownUnit(_))
        ));
    }

    #[test]
    fn signal_initial_values_come_from_constants() {
        let module = parse_module(
            r#"
            entity @top () -> () {
                %init = const i8 42
                %s = sig i8 %init
            }
            "#,
        )
        .unwrap();
        let design = elaborate(&module, "top").unwrap();
        let s = design.signal_by_name("s").unwrap();
        assert_eq!(design.signals[s.0].init, ConstValue::int(8, 42));
    }

    #[test]
    fn connected_signals_resolve_to_one() {
        let module = parse_module(
            r#"
            entity @top () -> () {
                %zero = const i8 0
                %a = sig i8 %zero
                %b = sig i8 %zero
                con i8$ %a, %b
            }
            "#,
        )
        .unwrap();
        let design = elaborate(&module, "top").unwrap();
        let a = design.signal_by_name("a").unwrap();
        let b = design.signal_by_name("b").unwrap();
        assert_eq!(design.resolve(a), design.resolve(b));
    }

    #[test]
    fn cannot_elaborate_partial_equality_mismatch() {
        // PartialEq needed for the error comparison in tests.
        assert_ne!(
            ElaborateError::UnknownTop("a".into()),
            ElaborateError::UnknownUnit("a".into())
        );
    }
}
