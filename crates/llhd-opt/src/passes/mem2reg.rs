//! Promotion of stack variables to SSA values (§2.5.8).
//!
//! The paper requires bounded stack and heap allocations to be promotable to
//! values so that lowering to Structural LLHD can reject any process that
//! still touches memory. This pass implements store-to-load forwarding
//! within basic blocks and removes allocations that end up without any
//! remaining loads. Variables whose loads span multiple blocks are left in
//! place (and consequently rejected by the structural lowering), which
//! matches the paper's treatment of non-promotable memory.

use llhd::ir::{Opcode, UnitData, Value};

/// Run variable-to-value promotion on a unit. Returns `true` if anything
/// changed.
pub fn run(unit: &mut UnitData) -> bool {
    let mut changed = false;
    changed |= forward_stores_to_loads(unit);
    changed |= remove_dead_variables(unit);
    changed
}

/// Replace loads with the value of the most recent store to the same
/// variable within the same basic block.
fn forward_stores_to_loads(unit: &mut UnitData) -> bool {
    let mut changed = false;
    // Current known value per pointer, indexed by the pointer's value slot.
    let mut current: Vec<Option<Value>> = vec![None; unit.num_value_slots()];
    for bi in 0..unit.blocks_slice().len() {
        let block = unit.blocks_slice()[bi];
        current.fill(None);
        let mut ii = 0;
        while let Some(&inst) = unit.insts_slice(block).get(ii) {
            ii += 1;
            let data = unit.inst_data(inst);
            match data.opcode {
                Opcode::Var => {
                    // A fresh variable holds its initialiser.
                    if let Some(result) = unit.get_inst_result(inst) {
                        current[result.index()] = Some(data.args[0]);
                    }
                }
                Opcode::St => {
                    current[data.args[0].index()] = Some(data.args[1]);
                }
                Opcode::Ld => {
                    if let Some(value) = current[data.args[0].index()] {
                        let result = unit.inst_result(inst);
                        unit.replace_value_uses(result, value);
                        unit.remove_inst(inst);
                        ii -= 1;
                        changed = true;
                    }
                }
                Opcode::Call => {
                    // A call may modify memory through pointers passed to it.
                    for arg in &data.args {
                        current[arg.index()] = None;
                    }
                }
                _ => {}
            }
        }
    }
    changed
}

/// Remove `var`/`alloc` instructions (and their stores) once no loads remain.
fn remove_dead_variables(unit: &mut UnitData) -> bool {
    let mut changed = false;
    loop {
        let mut local = false;
        for inst in unit.all_insts() {
            if !unit.has_inst(inst) {
                continue;
            }
            let data = unit.inst_data(inst);
            if !matches!(data.opcode, Opcode::Var | Opcode::Halloc) {
                continue;
            }
            let pointer = match unit.get_inst_result(inst) {
                Some(p) => p,
                None => continue,
            };
            let uses = unit.value_uses(pointer);
            // Only removable if every use is a store to (not of) the pointer
            // or a free.
            let all_dead = uses.iter().all(|&u| {
                let d = unit.inst_data(u);
                (d.opcode == Opcode::St && d.args[0] == pointer && d.args[1] != pointer)
                    || d.opcode == Opcode::Free
            });
            if !all_dead {
                continue;
            }
            for u in uses {
                unit.remove_inst(u);
            }
            unit.remove_inst(inst);
            local = true;
        }
        changed |= local;
        if !local {
            break;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;

    #[test]
    fn forwards_store_to_load_in_same_block() {
        let mut module = parse_module(
            r#"
            func @f (i32 %x) i32 {
            entry:
                %p = var i32 %x
                %one = const i32 1
                st i32* %p, %one
                %v = ld i32* %p
                %sum = add i32 %v, %x
                ret i32 %sum
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        let unit = module.unit(id);
        // No loads remain; the add uses the stored constant, and the
        // variable (now only stored to) is removed entirely.
        assert!(!unit
            .all_insts()
            .iter()
            .any(|&i| unit.inst_data(i).opcode == Opcode::Ld));
        assert!(!unit
            .all_insts()
            .iter()
            .any(|&i| unit.inst_data(i).opcode == Opcode::Var));
        let add = unit
            .all_insts()
            .into_iter()
            .find(|&i| unit.inst_data(i).opcode == Opcode::Add)
            .unwrap();
        let value = unit.inst_data(add).args[0];
        assert_eq!(
            unit.get_const(value),
            Some(&llhd::value::ConstValue::int(32, 1))
        );
    }

    #[test]
    fn load_of_initial_value_is_forwarded() {
        let mut module = parse_module(
            r#"
            func @f (i32 %x) i32 {
            entry:
                %p = var i32 %x
                %v = ld i32* %p
                ret i32 %v
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        let unit = module.unit(id);
        let ret = *unit.all_insts().last().unwrap();
        assert_eq!(unit.inst_data(ret).args[0], unit.arg_value(0));
    }

    #[test]
    fn cross_block_variables_are_preserved() {
        let mut module = parse_module(
            r#"
            proc @p (i1$ %clk) -> (i32$ %q) {
            first:
                %zero = const i32 0
                %i = var i32 %zero
                wait %second, %clk
            second:
                %v = ld i32* %i
                %one = const i32 1
                %next = add i32 %v, %one
                st i32* %i, %next
                %delay = const time 1ns
                drv i32$ %q, %next after %delay
                wait %second, %clk
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        run(module.unit_mut(id));
        let unit = module.unit(id);
        // The load in the second block reads the value stored in previous
        // activations; it must survive.
        assert!(unit
            .all_insts()
            .iter()
            .any(|&i| unit.inst_data(i).opcode == Opcode::Ld));
        assert!(unit
            .all_insts()
            .iter()
            .any(|&i| unit.inst_data(i).opcode == Opcode::Var));
    }
}
