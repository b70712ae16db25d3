//! Common Subexpression Elimination (CSE, §4.1).
//!
//! Identical pure instructions are merged when the earlier one dominates the
//! later one. Instruction identity is the tuple of opcode, operands,
//! immediates, and constant payload.

use llhd::analysis::{ControlFlowGraph, DominatorTree};
use llhd::ir::{Inst, InstData, UnitData};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Run common subexpression elimination on a unit. Returns `true` if
/// anything changed.
pub fn run(unit: &mut UnitData) -> bool {
    let cfg = ControlFlowGraph::new(unit);
    let domtree = DominatorTree::new(unit, &cfg);
    let mut changed = false;
    // Earlier instructions by the hash of their identity. Looked up, never
    // iterated; a bucket's candidates are compared field by field.
    let mut seen: HashMap<u64, Vec<Inst>> = HashMap::new();

    for bi in 0..unit.blocks_slice().len() {
        let block = unit.blocks_slice()[bi];
        let mut ii = 0;
        while let Some(&inst) = unit.insts_slice(block).get(ii) {
            ii += 1;
            let data = unit.inst_data(inst);
            if !data.opcode.is_pure() {
                continue;
            }
            let Some(result) = unit.get_inst_result(inst) else {
                continue;
            };
            let candidates = seen.entry(identity_hash(data)).or_default();
            let earlier = candidates.iter().find_map(|&other| {
                let other_block = unit.inst_block(other).expect("a candidate stays placed");
                // In the same block the earlier instruction dominates.
                let dominates = other_block == block || domtree.dominates(other_block, block);
                (dominates && same_identity(unit.inst_data(other), data))
                    .then(|| unit.inst_result(other))
            });
            match earlier {
                Some(value) => {
                    unit.replace_value_uses(result, value);
                    unit.remove_inst(inst);
                    ii -= 1;
                    changed = true;
                }
                None => candidates.push(inst),
            }
        }
    }
    changed
}

/// The hash of the fields that make two pure instructions the same
/// expression: opcode, operands, immediates and constant payload.
fn identity_hash(data: &InstData) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    data.opcode.hash(&mut hasher);
    data.args.hash(&mut hasher);
    data.imms.hash(&mut hasher);
    data.konst.hash(&mut hasher);
    hasher.finish()
}

fn same_identity(a: &InstData, b: &InstData) -> bool {
    a.opcode == b.opcode && a.args == b.args && a.imms == b.imms && a.konst == b.konst
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;
    use llhd::ir::Opcode;

    #[test]
    fn merges_identical_expressions_in_one_block() {
        let mut module = parse_module(
            r#"
            func @f (i32 %a, i32 %b) i32 {
            entry:
                %x = add i32 %a, %b
                %y = add i32 %a, %b
                %z = umul i32 %x, %y
                ret i32 %z
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        let unit = module.unit(id);
        let adds = unit
            .all_insts()
            .iter()
            .filter(|&&i| unit.inst_data(i).opcode == Opcode::Add)
            .count();
        assert_eq!(adds, 1);
        // The multiply now uses the same value twice.
        let mul = unit
            .all_insts()
            .into_iter()
            .find(|&i| unit.inst_data(i).opcode == Opcode::Umul)
            .unwrap();
        let args = &unit.inst_data(mul).args;
        assert_eq!(args[0], args[1]);
    }

    #[test]
    fn merges_duplicate_constants() {
        let mut module = parse_module(
            r#"
            func @f () i32 {
            entry:
                %a = const i32 7
                %b = const i32 7
                %c = add i32 %a, %b
                ret i32 %c
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        let unit = module.unit(id);
        let consts = unit
            .all_insts()
            .iter()
            .filter(|&&i| unit.inst_data(i).opcode == Opcode::Const)
            .count();
        assert_eq!(consts, 1);
    }

    #[test]
    fn merges_across_dominating_blocks() {
        let mut module = parse_module(
            r#"
            func @f (i32 %a, i1 %c) i32 {
            entry:
                %x = add i32 %a, %a
                br %c, %left, %right
            left:
                %y = add i32 %a, %a
                ret i32 %y
            right:
                ret i32 %x
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        let unit = module.unit(id);
        let adds = unit
            .all_insts()
            .iter()
            .filter(|&&i| unit.inst_data(i).opcode == Opcode::Add)
            .count();
        assert_eq!(adds, 1);
    }

    #[test]
    fn does_not_merge_across_siblings() {
        let mut module = parse_module(
            r#"
            func @f (i32 %a, i1 %c) i32 {
            entry:
                br %c, %left, %right
            left:
                %x = add i32 %a, %a
                ret i32 %x
            right:
                %y = add i32 %a, %a
                ret i32 %y
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        run(module.unit_mut(id));
        let unit = module.unit(id);
        let adds = unit
            .all_insts()
            .iter()
            .filter(|&&i| unit.inst_data(i).opcode == Opcode::Add)
            .count();
        assert_eq!(adds, 2, "sibling blocks must keep their own copies");
    }

    #[test]
    fn probes_are_not_merged() {
        let mut module = parse_module(
            r#"
            proc @p (i8$ %a) -> (i8$ %q) {
            entry:
                %x = prb i8$ %a
                %y = prb i8$ %a
                %delay = const time 1ns
                drv i8$ %q, %x after %delay
                drv i8$ %q, %y after %delay
                wait %entry, %a
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        run(module.unit_mut(id));
        let unit = module.unit(id);
        let prbs = unit
            .all_insts()
            .iter()
            .filter(|&&i| unit.inst_data(i).opcode == Opcode::Prb)
            .count();
        assert_eq!(prbs, 2);
    }
}
