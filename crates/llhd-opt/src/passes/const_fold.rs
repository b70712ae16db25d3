//! Constant Folding (CF, §4.1).
//!
//! Pure instructions whose operands are all constants are replaced by a
//! `const` of the folded value. The shared evaluator in [`llhd::eval`]
//! defines the semantics, so the folder cannot disagree with the simulators.

use llhd::eval::eval_pure;
use llhd::ir::{InstData, Opcode, UnitData};
use llhd::value::ConstValue;

/// Run constant folding on a unit. Returns `true` if anything changed.
pub fn run(unit: &mut UnitData) -> bool {
    let mut changed = false;
    loop {
        let mut local_change = false;
        for inst in unit.all_insts() {
            let data = unit.inst_data(inst);
            if !data.opcode.is_pure() || data.opcode == Opcode::Const {
                continue;
            }
            if !data.args.iter().all(|&arg| unit.get_const(arg).is_some()) {
                continue;
            }
            let const_args: Vec<ConstValue> = data
                .args
                .iter()
                .filter_map(|&arg| unit.get_const(arg).cloned())
                .collect();
            let Some(folded) = eval_pure(data.opcode, &const_args, &data.imms) else {
                continue;
            };
            let Some(result) = unit.get_inst_result(inst) else {
                continue;
            };
            // Replace the instruction with a constant.
            let ty = folded.ty();
            let const_inst = unit.insert_inst_before(inst, InstData::constant(folded), Some(ty));
            let new_value = unit.inst_result(const_inst);
            unit.replace_value_uses(result, new_value);
            unit.remove_inst(inst);
            local_change = true;
        }
        changed |= local_change;
        if !local_change {
            break;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;
    use llhd::value::ConstValue;

    fn fold(src: &str) -> llhd::ir::Module {
        let mut module = parse_module(src).unwrap();
        for id in module.units() {
            run(module.unit_mut(id));
        }
        module
    }

    #[test]
    fn folds_arithmetic_chains() {
        let module = fold(
            r#"
            func @f () i32 {
            entry:
                %a = const i32 20
                %b = const i32 22
                %sum = add i32 %a, %b
                %two = const i32 2
                %prod = umul i32 %sum, %two
                ret i32 %prod
            }
            "#,
        );
        let unit = module.unit(module.units()[0]);
        // The ret operand must now be a constant 84.
        let ret = *unit.all_insts().last().unwrap();
        let value = unit.inst_data(ret).args[0];
        assert_eq!(unit.get_const(value), Some(&ConstValue::int(32, 84)));
    }

    #[test]
    fn folds_comparisons_and_mux() {
        let module = fold(
            r#"
            func @f () i8 {
            entry:
                %a = const i8 5
                %b = const i8 9
                %lt = ult i8 %a, %b
                %choices = array [%a, %b]
                %sel = mux [2 x i8] %choices, %lt
                ret i8 %sel
            }
            "#,
        );
        let unit = module.unit(module.units()[0]);
        let ret = *unit.all_insts().last().unwrap();
        let value = unit.inst_data(ret).args[0];
        assert_eq!(unit.get_const(value), Some(&ConstValue::int(8, 9)));
    }

    #[test]
    fn leaves_non_constant_operations_alone() {
        let module = fold(
            r#"
            func @f (i32 %x) i32 {
            entry:
                %one = const i32 1
                %sum = add i32 %x, %one
                ret i32 %sum
            }
            "#,
        );
        let unit = module.unit(module.units()[0]);
        let has_add = unit
            .all_insts()
            .iter()
            .any(|&i| unit.inst_data(i).opcode == Opcode::Add);
        assert!(has_add);
    }

    #[test]
    fn does_not_touch_signal_operations() {
        let mut module = parse_module(
            r#"
            proc @p (i8$ %a) -> (i8$ %q) {
            entry:
                %ap = prb i8$ %a
                %delay = const time 1ns
                drv i8$ %q, %ap after %delay
                wait %entry, %a
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(!run(module.unit_mut(id)));
    }
}
