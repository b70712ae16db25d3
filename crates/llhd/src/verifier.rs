//! IR verification and dialect conformance checks.
//!
//! The verifier checks the structural invariants of units (terminators,
//! operand types, opcode/unit-kind compatibility) and classifies units and
//! modules into the three LLHD dialects of §2.2:
//!
//! * **Behavioural** — everything is allowed.
//! * **Structural** — only entities (plus the functions they may still call
//!   for constant computation); processes must have been lowered away.
//! * **Netlist** — only entities containing `sig`, `con`, `del`, `inst`, and
//!   the constants they need.

use crate::ir::{Module, Opcode, UnitData, UnitKind};
use crate::ty::TypeKind;
use std::fmt;

/// The three dialects (levels) of LLHD.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Dialect {
    /// Netlist LLHD: entities, signals, connections, delays, instances.
    Netlist,
    /// Structural LLHD: entities with data flow and registers.
    Structural,
    /// Behavioural LLHD: the full IR including processes and functions.
    Behavioural,
}

impl fmt::Display for Dialect {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match self {
            Dialect::Netlist => write!(f, "netlist"),
            Dialect::Structural => write!(f, "structural"),
            Dialect::Behavioural => write!(f, "behavioural"),
        }
    }
}

/// A single verification failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifierError {
    /// The unit in which the error occurred, if any.
    pub unit: Option<String>,
    /// A human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for VerifierError {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match &self.unit {
            Some(unit) => write!(f, "in {}: {}", unit, self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for VerifierError {}

/// The list of errors found during verification.
pub type VerifierResult = Result<(), Vec<VerifierError>>;

fn err(unit: &UnitData, message: impl Into<String>) -> VerifierError {
    VerifierError {
        unit: Some(unit.name().to_string()),
        message: message.into(),
    }
}

/// Verify a whole module: every unit individually plus cross-unit reference
/// signatures.
pub fn verify_module(module: &Module) -> VerifierResult {
    let mut errors = vec![];
    for id in module.units() {
        if let Err(mut e) = verify_unit(module.unit(id)) {
            errors.append(&mut e);
        }
    }
    if let Err(e) = module.check_references() {
        errors.push(VerifierError {
            unit: None,
            message: e.to_string(),
        });
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Verify the structural invariants of a single unit.
pub fn verify_unit(unit: &UnitData) -> VerifierResult {
    let mut errors = vec![];
    let kind = unit.kind();

    // Signature checks: processes and entities may only have signal-typed
    // arguments (§2.4.2).
    if kind != UnitKind::Function {
        for (i, ty) in unit
            .sig()
            .inputs()
            .iter()
            .chain(unit.sig().outputs())
            .enumerate()
        {
            if !ty.is_signal() {
                errors.push(err(
                    unit,
                    format!("argument {} of a {} must be a signal, got {}", i, kind, ty),
                ));
            }
        }
    }

    // Block-level checks.
    for block in unit.blocks() {
        let insts = unit.insts(block);
        match kind {
            UnitKind::Function | UnitKind::Process => {
                // Control flow units: every block needs exactly one
                // terminator, at the end.
                match unit.terminator(block) {
                    None => errors.push(err(
                        unit,
                        format!(
                            "block {} lacks a terminator",
                            unit.block_display(block)
                        ),
                    )),
                    Some(_) => {
                        for &inst in &insts[..insts.len().saturating_sub(1)] {
                            if unit.inst_data(inst).opcode.is_terminator() {
                                errors.push(err(
                                    unit,
                                    format!(
                                        "terminator {} in the middle of block {}",
                                        unit.inst_data(inst).opcode,
                                        unit.block_display(block)
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            UnitKind::Entity => {
                // Entities: no terminators at all, single body block.
                for &inst in &insts {
                    if unit.inst_data(inst).opcode.is_terminator() {
                        errors.push(err(
                            unit,
                            format!(
                                "entity contains terminator {}",
                                unit.inst_data(inst).opcode
                            ),
                        ));
                    }
                }
            }
        }
    }
    if kind == UnitKind::Entity && unit.blocks().len() != 1 {
        errors.push(err(unit, "entity must consist of exactly one body block"));
    }

    // Instruction-level checks.
    for inst in unit.all_insts() {
        let data = unit.inst_data(inst);
        let op = data.opcode;
        if !op.allowed_in(kind) {
            errors.push(err(
                unit,
                format!("instruction {} is not allowed in a {}", op, kind),
            ));
        }
        // Operand type sanity for the most important hardware instructions.
        match op {
            Opcode::Prb
                if !unit.value_type(data.args[0]).is_signal() => {
                    errors.push(err(unit, "prb operand must be a signal"));
                }
            Opcode::Drv | Opcode::DrvCond => {
                let sig_ty = unit.value_type(data.args[0]);
                if !sig_ty.is_signal() {
                    errors.push(err(unit, "drv target must be a signal"));
                } else {
                    let value_ty = unit.value_type(data.args[1]);
                    if sig_ty.unwrap_signal() != &value_ty {
                        errors.push(err(
                            unit,
                            format!(
                                "drv value type {} does not match signal payload {}",
                                value_ty,
                                sig_ty.unwrap_signal()
                            ),
                        ));
                    }
                }
                if !unit.value_type(data.args[2]).is_time() {
                    errors.push(err(unit, "drv delay must be a time value"));
                }
                if op == Opcode::DrvCond {
                    let cond_ty = unit.value_type(data.args[3]);
                    if !matches!(cond_ty.kind(), TypeKind::Int(1)) {
                        errors.push(err(unit, "drv condition must be an i1"));
                    }
                }
            }
            Opcode::Reg => {
                if !unit.value_type(data.args[0]).is_signal() {
                    errors.push(err(unit, "reg target must be a signal"));
                }
                if data.triggers.is_empty() {
                    errors.push(err(unit, "reg needs at least one trigger"));
                }
            }
            Opcode::Wait | Opcode::WaitTime
                if data.blocks.len() != 1 => {
                    errors.push(err(unit, "wait needs exactly one resume block"));
                }
            Opcode::BrCond => {
                if data.blocks.len() != 2 {
                    errors.push(err(unit, "conditional branch needs two targets"));
                }
                let cond_ty = unit.value_type(data.args[0]);
                if !matches!(cond_ty.kind(), TypeKind::Int(1)) {
                    errors.push(err(unit, "branch condition must be an i1"));
                }
            }
            Opcode::Phi
                if (data.args.len() != data.blocks.len() || data.args.is_empty()) => {
                    errors.push(err(
                        unit,
                        "phi needs matching value and block operand counts",
                    ));
                }
            Opcode::Call | Opcode::Inst
                if data.ext_unit.is_none() => {
                    errors.push(err(unit, format!("{} needs a target unit", op)));
                }
            Opcode::Con => {
                let a = unit.value_type(data.args[0]);
                let b = unit.value_type(data.args[1]);
                if !a.is_signal() || !b.is_signal() || a != b {
                    errors.push(err(unit, "con requires two signals of identical type"));
                }
            }
            // A slice must lie within its operand: the bits of an int, the
            // elements of an array, or either behind a signal.
            Opcode::ExtSlice | Opcode::InsSlice => {
                let ty = unit.value_type(data.args[0]);
                let width = match ty.strip().kind() {
                    TypeKind::Int(w) | TypeKind::Array(w, _) => Some(*w),
                    _ => None,
                };
                if let (Some(width), &[offset, length, ..]) = (width, &data.imms[..]) {
                    if offset.checked_add(length).is_none_or(|end| end > width) {
                        errors.push(err(
                            unit,
                            format!(
                                "{} slice at offset {} of length {} exceeds the width {} of {}",
                                op, offset, length, width, ty
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }
        // Binary arithmetic requires matching operand types.
        if (op.is_comparison()
            || matches!(
                op,
                Opcode::Add
                    | Opcode::Sub
                    | Opcode::And
                    | Opcode::Or
                    | Opcode::Xor
                    | Opcode::Umul
                    | Opcode::Udiv
                    | Opcode::Smul
                    | Opcode::Sdiv
            ))
            && data.args.len() == 2 {
                let a = unit.value_type(data.args[0]);
                let b = unit.value_type(data.args[1]);
                if a != b {
                    errors.push(err(
                        unit,
                        format!("operand types of {} differ: {} vs {}", op, a, b),
                    ));
                }
            }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Determine the lowest (most restrictive) dialect a unit conforms to.
pub fn unit_dialect(unit: &UnitData) -> Dialect {
    match unit.kind() {
        UnitKind::Process | UnitKind::Function => Dialect::Behavioural,
        UnitKind::Entity => {
            let netlist = unit
                .all_insts()
                .iter()
                .all(|&i| unit.inst_data(i).opcode.allowed_in_netlist());
            if netlist {
                Dialect::Netlist
            } else {
                Dialect::Structural
            }
        }
    }
}

/// Determine the lowest dialect an entire module conforms to: the maximum of
/// its units' dialects.
pub fn module_dialect(module: &Module) -> Dialect {
    module
        .units()
        .into_iter()
        .map(|id| unit_dialect(module.unit(id)))
        .max()
        .unwrap_or(Dialect::Netlist)
}

/// Check that a module conforms to the given dialect.
pub fn verify_dialect(module: &Module, dialect: Dialect) -> VerifierResult {
    let actual = module_dialect(module);
    if actual <= dialect {
        Ok(())
    } else {
        Err(vec![VerifierError {
            unit: None,
            message: format!(
                "module is {} LLHD but {} LLHD was required",
                actual, dialect
            ),
        }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{InstData, Signature, UnitBuilder, UnitData, UnitKind, UnitName};
    use crate::ty::*;
    use crate::value::{ConstValue, TimeValue};

    fn valid_process() -> UnitData {
        let mut unit = UnitData::new(
            UnitKind::Process,
            UnitName::global("p"),
            Signature::new_entity(vec![signal_ty(int_ty(8))], vec![signal_ty(int_ty(8))]),
        );
        let a = unit.arg_value(0);
        let q = unit.arg_value(1);
        let mut b = UnitBuilder::new(&mut unit);
        let entry = b.block("entry");
        b.append_to(entry);
        let ap = b.prb(a);
        let delay = b.const_time(TimeValue::from_nanos(1));
        b.drv(q, ap, delay);
        b.wait(entry, vec![a]);
        unit
    }

    #[test]
    fn valid_process_verifies() {
        assert!(verify_unit(&valid_process()).is_ok());
    }

    #[test]
    fn missing_terminator_is_reported() {
        let mut unit = UnitData::new(
            UnitKind::Function,
            UnitName::global("f"),
            Signature::new_func(vec![], void_ty()),
        );
        unit.create_block(Some("entry".into()));
        let errors = verify_unit(&unit).unwrap_err();
        assert!(errors.iter().any(|e| e.message.contains("terminator")));
    }

    #[test]
    fn non_signal_process_argument_is_reported() {
        let unit = UnitData::new(
            UnitKind::Process,
            UnitName::global("p"),
            Signature::new_entity(vec![int_ty(8)], vec![]),
        );
        let errors = verify_unit(&unit).unwrap_err();
        assert!(errors.iter().any(|e| e.message.contains("must be a signal")));
    }

    #[test]
    fn drv_type_mismatch_is_reported() {
        let mut unit = UnitData::new(
            UnitKind::Process,
            UnitName::global("p"),
            Signature::new_entity(vec![], vec![signal_ty(int_ty(8))]),
        );
        let q = unit.arg_value(0);
        let mut b = UnitBuilder::new(&mut unit);
        let entry = b.block("entry");
        b.append_to(entry);
        let wrong = b.const_int(16, 0);
        let delay = b.const_time(TimeValue::ZERO);
        b.drv(q, wrong, delay);
        b.halt();
        let errors = verify_unit(&unit).unwrap_err();
        assert!(errors.iter().any(|e| e.message.contains("does not match")));
    }

    /// A function `f(i8, [4 x i8]$) -> i8` whose body is one slice
    /// instruction over argument `arg` with the given offset and length.
    fn slice_unit(op: crate::ir::Opcode, arg: usize, offset: usize, length: usize) -> UnitData {
        let mut unit = UnitData::new(
            UnitKind::Function,
            UnitName::global("f"),
            Signature::new_func(
                vec![int_ty(8), signal_ty(array_ty(4, int_ty(8)))],
                int_ty(8),
            ),
        );
        let target = unit.arg_value(arg);
        let value = unit.arg_value(0);
        let mut b = UnitBuilder::new(&mut unit);
        let entry = b.block("entry");
        b.append_to(entry);
        let args = match op {
            crate::ir::Opcode::InsSlice => vec![target, value],
            _ => vec![target],
        };
        let mut data = InstData::new(op, args);
        data.imms = vec![offset, length];
        b.build(data);
        b.ret_value(value);
        unit
    }

    #[test]
    fn slices_past_their_operand_are_reported() {
        use crate::ir::Opcode::{ExtSlice, InsSlice};
        // Past the end of an int, the first case of which both engines
        // used to fail only at run time.
        let errors = verify_unit(&slice_unit(ExtSlice, 0, 0, 100000)).unwrap_err();
        assert_eq!(errors.len(), 1);
        assert!(
            errors[0]
                .message
                .contains("exts slice at offset 0 of length 100000 exceeds the width 8 of i8"),
            "{}",
            errors[0]
        );
        assert!(verify_unit(&slice_unit(ExtSlice, 0, 4, 8)).is_err());
        let errors = verify_unit(&slice_unit(InsSlice, 0, 4, 8)).unwrap_err();
        assert!(errors[0]
            .message
            .contains("inss slice at offset 4 of length 8 exceeds the width 8 of i8"));
        // Past the end of an array behind a signal, and an offset so large
        // that offset + length overflows.
        let errors = verify_unit(&slice_unit(ExtSlice, 1, 3, 2)).unwrap_err();
        assert!(errors[0]
            .message
            .contains("exts slice at offset 3 of length 2 exceeds the width 4 of [4 x i8]$"));
        assert!(verify_unit(&slice_unit(InsSlice, 1, usize::MAX, 2)).is_err());
        // The same from assembly text.
        let module = crate::assembly::parse_module(
            "func @f (i8 %c) i8 {
            entry:
                %s = exts i8 %c, 0, 100000
                ret i8 %c
            }",
        )
        .unwrap();
        assert!(verify_module(&module).unwrap_err()[0]
            .message
            .contains("offset 0 of length 100000 exceeds the width 8"));
        // Slices that end exactly at the operand's end verify.
        assert!(verify_unit(&slice_unit(ExtSlice, 0, 4, 4)).is_ok());
        assert!(verify_unit(&slice_unit(ExtSlice, 1, 1, 3)).is_ok());
        assert!(verify_unit(&slice_unit(InsSlice, 0, 0, 8)).is_ok());
    }

    #[test]
    fn wait_in_function_is_reported() {
        let mut unit = UnitData::new(
            UnitKind::Function,
            UnitName::global("f"),
            Signature::new_func(vec![], void_ty()),
        );
        let mut b = UnitBuilder::new(&mut unit);
        let entry = b.block("entry");
        b.append_to(entry);
        let mut data = InstData::new(crate::ir::Opcode::Halt, vec![]);
        data.blocks = vec![];
        b.build(data);
        let errors = verify_unit(&unit).unwrap_err();
        assert!(errors.iter().any(|e| e.message.contains("not allowed")));
    }

    #[test]
    fn entity_dialects() {
        // A netlist entity: only sig/const.
        let mut net = UnitData::new(
            UnitKind::Entity,
            UnitName::global("net"),
            Signature::new_entity(vec![], vec![signal_ty(int_ty(1))]),
        );
        {
            let mut b = UnitBuilder::new(&mut net);
            let zero = b.ins_const(ConstValue::int(1, 0));
            b.sig(zero);
        }
        assert_eq!(unit_dialect(&net), Dialect::Netlist);

        // A structural entity: contains arithmetic.
        let mut s = UnitData::new(
            UnitKind::Entity,
            UnitName::global("s"),
            Signature::new_entity(vec![signal_ty(int_ty(8))], vec![signal_ty(int_ty(8))]),
        );
        {
            let a = s.arg_value(0);
            let q = s.arg_value(1);
            let mut b = UnitBuilder::new(&mut s);
            let ap = b.prb(a);
            let one = b.const_int(8, 1);
            let sum = b.add(ap, one);
            let delay = b.const_time(TimeValue::ZERO);
            b.drv(q, sum, delay);
        }
        assert_eq!(unit_dialect(&s), Dialect::Structural);
        assert!(verify_unit(&s).is_ok());

        // A process makes the module behavioural.
        let mut module = Module::new();
        module.add_unit(net);
        module.add_unit(s);
        assert_eq!(module_dialect(&module), Dialect::Structural);
        module.add_unit(valid_process());
        assert_eq!(module_dialect(&module), Dialect::Behavioural);
        assert!(verify_dialect(&module, Dialect::Behavioural).is_ok());
        assert!(verify_dialect(&module, Dialect::Structural).is_err());
    }

    #[test]
    fn verify_module_aggregates_errors() {
        let mut module = Module::new();
        let mut bad = UnitData::new(
            UnitKind::Function,
            UnitName::global("bad"),
            Signature::new_func(vec![], void_ty()),
        );
        bad.create_block(None);
        module.add_unit(bad);
        module.add_unit(valid_process());
        let errors = verify_module(&module).unwrap_err();
        assert_eq!(errors.len(), 1);
    }
}
