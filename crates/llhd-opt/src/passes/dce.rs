//! Dead Code Elimination (DCE, §4.1).
//!
//! Removes pure instructions whose results are unused, and basic blocks that
//! are unreachable from the entry block.

use llhd::analysis::ControlFlowGraph;
use llhd::ir::{Inst, Opcode, UnitData, UnitKind, ValueDef};

/// Run dead code elimination on a unit. Returns `true` if anything changed.
pub fn run(unit: &mut UnitData) -> bool {
    let mut changed = false;
    changed |= remove_unreachable_blocks(unit);
    changed |= remove_dead_instructions(unit);
    changed
}

/// Remove blocks that cannot be reached from the entry block. Only applies
/// to control flow units; the single body block of an entity is always live.
pub fn remove_unreachable_blocks(unit: &mut UnitData) -> bool {
    if unit.kind() == UnitKind::Entity {
        return false;
    }
    let cfg = ControlFlowGraph::new(unit);
    let dead = cfg.unreachable_blocks(unit);
    let changed = !dead.is_empty();
    for block in dead {
        // Drop the instructions first so value uses inside the dead region do
        // not keep anything alive.
        for inst in unit.insts(block) {
            unit.remove_inst(inst);
        }
        unit.remove_block(block);
    }
    changed
}

/// Remove pure instructions (and unused probes, which have no side effects)
/// with no remaining uses, and then whatever only they used, so chains of
/// dead computations disappear entirely.
pub fn remove_dead_instructions(unit: &mut UnitData) -> bool {
    let mut uses = vec![0u32; unit.num_value_slots()];
    for &block in unit.blocks_slice() {
        for &inst in unit.insts_slice(block) {
            for value in unit.inst_data(inst).operands() {
                uses[value.index()] += 1;
            }
        }
    }
    let unused = |unit: &UnitData, uses: &[u32], inst: Inst| {
        let opcode = unit.inst_data(inst).opcode;
        (opcode.is_pure() || opcode == Opcode::Prb)
            && unit
                .get_inst_result(inst)
                .is_some_and(|r| uses[r.index()] == 0)
    };
    let mut dead: Vec<Inst> = unit
        .all_insts()
        .into_iter()
        .filter(|&inst| unused(unit, &uses, inst))
        .collect();
    let changed = !dead.is_empty();
    while let Some(inst) = dead.pop() {
        for value in unit.inst_data(inst).operands() {
            uses[value.index()] -= 1;
            if uses[value.index()] > 0 || !unit.has_value(value) {
                continue;
            }
            if let ValueDef::Inst(def) = unit.value_def(value) {
                if unused(unit, &uses, def) {
                    dead.push(def);
                }
            }
        }
        unit.remove_inst(inst);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;
    use llhd::ir::Opcode;

    #[test]
    fn removes_dead_arithmetic() {
        let mut module = parse_module(
            r#"
            func @f (i32 %x) i32 {
            entry:
                %one = const i32 1
                %dead1 = add i32 %x, %one
                %dead2 = umul i32 %dead1, %dead1
                %live = sub i32 %x, %one
                ret i32 %live
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        let unit = module.unit(id);
        assert_eq!(unit.all_insts().len(), 3); // const, sub, ret
        assert!(!unit
            .all_insts()
            .iter()
            .any(|&i| unit.inst_data(i).opcode == Opcode::Umul));
    }

    #[test]
    fn keeps_side_effecting_instructions() {
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
        let before = module.unit(id).all_insts().len();
        run(module.unit_mut(id));
        assert_eq!(module.unit(id).all_insts().len(), before);
    }

    #[test]
    fn removes_unreachable_blocks() {
        let mut module = parse_module(
            r#"
            func @f (i32 %x) void {
            entry:
                ret
            dead:
                %one = const i32 1
                %y = add i32 %x, %one
                ret
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        assert_eq!(module.unit(id).blocks().len(), 1);
    }

    #[test]
    fn unused_probe_is_removed() {
        // Probing a signal has no side effects, so an unused probe is dead.
        let mut module = parse_module(
            r#"
            proc @p (i8$ %a) -> () {
            entry:
                %ap = prb i8$ %a
                halt
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        assert_eq!(module.unit(id).all_insts().len(), 1);
    }
}
