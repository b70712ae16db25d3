//! Instruction Simplification (IS, §4.1).
//!
//! A peephole pass reducing short instruction sequences to simpler forms,
//! comparable to LLVM's instruction combining: arithmetic and logic
//! identities, double negation, constant branch conditions, and muxes with a
//! constant selector.

use llhd::ir::{InstData, Opcode, UnitData, Value};
use llhd::value::ConstValue;

/// Run instruction simplification on a unit. Returns `true` if anything
/// changed.
pub fn run(unit: &mut UnitData) -> bool {
    let mut changed = false;
    loop {
        let mut local = false;
        for inst in unit.all_insts() {
            if !unit.has_inst(inst) {
                continue;
            }
            local |= simplify_inst(unit, inst);
        }
        changed |= local;
        if !local {
            break;
        }
    }
    changed
}

/// Replace all uses of `inst`'s result with `replacement` and remove `inst`.
fn replace_with_value(unit: &mut UnitData, inst: llhd::ir::Inst, replacement: Value) -> bool {
    if let Some(result) = unit.get_inst_result(inst) {
        unit.replace_value_uses(result, replacement);
        unit.remove_inst(inst);
        true
    } else {
        false
    }
}

fn is_const_zero(unit: &UnitData, value: Value) -> bool {
    matches!(unit.get_const(value), Some(ConstValue::Int(v)) if v.is_zero())
}

fn is_const_ones(unit: &UnitData, value: Value) -> bool {
    matches!(unit.get_const(value), Some(ConstValue::Int(v)) if v.is_all_ones())
}

fn is_const_one(unit: &UnitData, value: Value) -> bool {
    matches!(unit.get_const(value), Some(ConstValue::Int(v)) if v.is_one())
}

fn simplify_inst(unit: &mut UnitData, inst: llhd::ir::Inst) -> bool {
    let data = unit.inst_data(inst).clone();
    match data.opcode {
        Opcode::Add | Opcode::Or | Opcode::Xor | Opcode::Sub | Opcode::Shl | Opcode::Shr => {
            let (a, b) = (data.args[0], data.args[1]);
            // x + 0, x | 0, x ^ 0, x - 0, x << 0, x >> 0  =>  x
            if is_const_zero(unit, b) {
                return replace_with_value(unit, inst, a);
            }
            // 0 + x, 0 | x, 0 ^ x  =>  x (commutative cases only)
            if matches!(data.opcode, Opcode::Add | Opcode::Or | Opcode::Xor)
                && is_const_zero(unit, a)
            {
                return replace_with_value(unit, inst, b);
            }
            // x - x, x ^ x  =>  0
            if matches!(data.opcode, Opcode::Sub | Opcode::Xor) && a == b {
                let ty = unit.value_type(a);
                let zero = ConstValue::zero_of(&ty);
                let zero_inst =
                    unit.insert_inst_before(inst, InstData::constant(zero), Some(ty));
                let zero_value = unit.inst_result(zero_inst);
                return replace_with_value(unit, inst, zero_value);
            }
            false
        }
        Opcode::And => {
            let (a, b) = (data.args[0], data.args[1]);
            // x & 0 => 0, 0 & x => 0
            if is_const_zero(unit, a) {
                return replace_with_value(unit, inst, a);
            }
            if is_const_zero(unit, b) {
                return replace_with_value(unit, inst, b);
            }
            // x & ~0 => x
            if is_const_ones(unit, b) {
                return replace_with_value(unit, inst, a);
            }
            if is_const_ones(unit, a) {
                return replace_with_value(unit, inst, b);
            }
            // x & x => x
            if a == b {
                return replace_with_value(unit, inst, a);
            }
            false
        }
        Opcode::Umul | Opcode::Smul => {
            let (a, b) = (data.args[0], data.args[1]);
            // x * 1 => x
            if is_const_one(unit, b) {
                return replace_with_value(unit, inst, a);
            }
            if is_const_one(unit, a) {
                return replace_with_value(unit, inst, b);
            }
            // x * 0 => 0
            if is_const_zero(unit, b) {
                return replace_with_value(unit, inst, b);
            }
            if is_const_zero(unit, a) {
                return replace_with_value(unit, inst, a);
            }
            false
        }
        Opcode::Udiv | Opcode::Sdiv => {
            let (a, b) = (data.args[0], data.args[1]);
            // x / 1 => x
            if is_const_one(unit, b) {
                return replace_with_value(unit, inst, a);
            }
            false
        }
        Opcode::Not => {
            // not(not(x)) => x
            let arg = data.args[0];
            if let llhd::ir::ValueDef::Inst(def) = unit.value_def(arg) {
                if unit.inst_data(def).opcode == Opcode::Not {
                    let original = unit.inst_data(def).args[0];
                    return replace_with_value(unit, inst, original);
                }
            }
            false
        }
        Opcode::Eq | Opcode::Neq => {
            let (a, b) = (data.args[0], data.args[1]);
            if a == b {
                let value = ConstValue::bool(data.opcode == Opcode::Eq);
                let const_inst = unit.insert_inst_before(
                    inst,
                    InstData::constant(value.clone()),
                    Some(value.ty()),
                );
                let const_value = unit.inst_result(const_inst);
                return replace_with_value(unit, inst, const_value);
            }
            false
        }
        Opcode::Mux => {
            // mux with a constant selector: pick the element directly if the
            // choices are an `array` construction.
            let (choices, sel) = (data.args[0], data.args[1]);
            let Some(sel) = unit.get_const(sel) else {
                return false;
            };
            if let llhd::ir::ValueDef::Inst(def) = unit.value_def(choices) {
                let def_data = unit.inst_data(def);
                if def_data.opcode == Opcode::Array && !def_data.args.is_empty() {
                    let Some(index) = llhd::eval::mux_index(sel, def_data.args.len()) else {
                        return false;
                    };
                    let chosen = def_data.args[index];
                    return replace_with_value(unit, inst, chosen);
                }
            }
            false
        }
        Opcode::BrCond => {
            // A conditional branch with identical targets or a constant
            // condition becomes an unconditional branch.
            let cond = data.args[0];
            let (bf, bt) = (data.blocks[0], data.blocks[1]);
            let target = if bf == bt {
                Some(bf)
            } else {
                match unit.get_const(cond) {
                    Some(c) if c.is_truthy() => Some(bt),
                    Some(_) => Some(bf),
                    None => None,
                }
            };
            if let Some(target) = target {
                let block = unit.inst_block(inst).unwrap();
                let mut br = InstData::new(Opcode::Br, vec![]);
                br.blocks = vec![target];
                unit.remove_inst(inst);
                unit.append_inst(block, br, None);
                return true;
            }
            false
        }
        Opcode::DrvCond => {
            // A drive whose condition is constant true becomes an
            // unconditional drive; constant false removes it.
            let cond = data.args[3];
            match unit.get_const(cond) {
                Some(c) if c.is_truthy() => {
                    let block = unit.inst_block(inst).unwrap();
                    let drv = InstData::new(
                        Opcode::Drv,
                        vec![data.args[0], data.args[1], data.args[2]],
                    );
                    let new_inst = unit.append_inst(block, drv, None);
                    unit.move_inst_before(new_inst, inst);
                    unit.remove_inst(inst);
                    true
                }
                Some(_) => {
                    unit.remove_inst(inst);
                    true
                }
                None => false,
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;
    use llhd::ir::Module;

    fn simplify(src: &str) -> Module {
        let mut module = parse_module(src).unwrap();
        for id in module.units() {
            run(module.unit_mut(id));
        }
        module
    }

    fn count_op(module: &Module, opcode: Opcode) -> usize {
        module
            .units()
            .into_iter()
            .map(|id| {
                let unit = module.unit(id);
                unit.all_insts()
                    .iter()
                    .filter(|&&i| unit.inst_data(i).opcode == opcode)
                    .count()
            })
            .sum()
    }

    #[test]
    fn add_zero_is_removed() {
        let module = simplify(
            r#"
            func @f (i32 %x) i32 {
            entry:
                %zero = const i32 0
                %y = add i32 %x, %zero
                ret i32 %y
            }
            "#,
        );
        assert_eq!(count_op(&module, Opcode::Add), 0);
        let unit = module.unit(module.units()[0]);
        let ret = *unit.all_insts().last().unwrap();
        assert_eq!(unit.inst_data(ret).args[0], unit.arg_value(0));
    }

    #[test]
    fn mul_identities() {
        let module = simplify(
            r#"
            func @f (i32 %x) i32 {
            entry:
                %one = const i32 1
                %zero = const i32 0
                %a = umul i32 %x, %one
                %b = umul i32 %a, %zero
                %c = add i32 %b, %x
                ret i32 %c
            }
            "#,
        );
        assert_eq!(count_op(&module, Opcode::Umul), 0);
    }

    #[test]
    fn xor_self_becomes_zero() {
        let module = simplify(
            r#"
            func @f (i32 %x) i32 {
            entry:
                %y = xor i32 %x, %x
                ret i32 %y
            }
            "#,
        );
        assert_eq!(count_op(&module, Opcode::Xor), 0);
        let unit = module.unit(module.units()[0]);
        let ret = *unit.all_insts().last().unwrap();
        assert_eq!(
            unit.get_const(unit.inst_data(ret).args[0]),
            Some(&ConstValue::int(32, 0))
        );
    }

    #[test]
    fn double_not_cancels() {
        let module = simplify(
            r#"
            func @f (i1 %x) i1 {
            entry:
                %a = not i1 %x
                %b = not i1 %a
                ret i1 %b
            }
            "#,
        );
        let unit = module.unit(module.units()[0]);
        let ret = *unit.all_insts().last().unwrap();
        assert_eq!(unit.inst_data(ret).args[0], unit.arg_value(0));
    }

    #[test]
    fn constant_branch_condition_becomes_unconditional() {
        let module = simplify(
            r#"
            func @f () i32 {
            entry:
                %t = const i1 1
                %a = const i32 1
                br %t, %no, %yes
            yes:
                ret i32 %a
            no:
                ret i32 %a
            }
            "#,
        );
        assert_eq!(count_op(&module, Opcode::BrCond), 0);
        assert_eq!(count_op(&module, Opcode::Br), 1);
    }

    #[test]
    fn constant_drive_condition_is_resolved() {
        let module = simplify(
            r#"
            proc @p (i8$ %a) -> (i8$ %q) {
            entry:
                %ap = prb i8$ %a
                %delay = const time 1ns
                %t = const i1 1
                %f = const i1 0
                drv i8$ %q, %ap after %delay if %t
                drv i8$ %q, %ap after %delay if %f
                wait %entry, %a
            }
            "#,
        );
        assert_eq!(count_op(&module, Opcode::DrvCond), 0);
        assert_eq!(count_op(&module, Opcode::Drv), 1);
    }

    #[test]
    fn eq_self_is_true() {
        let module = simplify(
            r#"
            func @f (i32 %x) i1 {
            entry:
                %e = eq i32 %x, %x
                ret i1 %e
            }
            "#,
        );
        assert_eq!(count_op(&module, Opcode::Eq), 0);
    }
}
