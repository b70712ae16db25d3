//! Total Control Flow Elimination (TCFE, §4.4).
//!
//! After temporal code motion, most branches no longer guard any
//! side-effecting instructions. TCFE removes the resulting empty blocks,
//! merges straight-line chains, turns redundant conditional branches into
//! unconditional ones, and replaces `phi` nodes with `mux` instructions.
//! The goal is a process with exactly one basic block per temporal region.

use llhd::analysis::{ControlFlowGraph, DominatorTree};
use llhd::ir::{Block, InstData, Opcode, UnitData, UnitKind, ValueDef};

/// Run total control flow elimination on a process. Returns `true` if
/// anything changed.
pub fn run(unit: &mut UnitData) -> bool {
    if unit.kind() != UnitKind::Process {
        return false;
    }
    let mut changed = false;
    loop {
        let mut local = false;
        local |= phis_to_muxes(unit);
        local |= simplify_branches(unit);
        local |= remove_forwarding_blocks(unit);
        local |= merge_straight_line_blocks(unit);
        changed |= local;
        if !local {
            break;
        }
    }
    changed
}

/// Turn `br %c, %bb, %bb` into `br %bb`.
fn simplify_branches(unit: &mut UnitData) -> bool {
    let mut changed = false;
    for bi in 0..unit.blocks_slice().len() {
        let block = unit.blocks_slice()[bi];
        let Some(term) = unit.terminator(block) else {
            continue;
        };
        let data = unit.inst_data(term);
        if data.opcode == Opcode::BrCond && data.blocks[0] == data.blocks[1] {
            let target = data.blocks[0];
            unit.remove_inst(term);
            let mut br = InstData::new(Opcode::Br, vec![]);
            br.blocks = vec![target];
            unit.append_inst(block, br, None);
            changed = true;
        }
    }
    changed
}

/// Remove blocks that contain nothing but an unconditional branch by
/// redirecting their predecessors to the branch target.
fn remove_forwarding_blocks(unit: &mut UnitData) -> bool {
    let mut changed = false;
    for block in unit.blocks() {
        if Some(block) == unit.entry_block() {
            continue;
        }
        let &[term] = unit.insts_slice(block) else {
            continue;
        };
        let data = unit.inst_data(term);
        if data.opcode != Opcode::Br {
            continue;
        }
        let target = data.blocks[0];
        if target == block {
            continue;
        }
        // Phi nodes referencing this block as a predecessor would need their
        // edges rewritten per predecessor; keep it simple and leave such
        // blocks in place.
        let referenced_by_phi = unit.blocks_slice().iter().any(|&bb| {
            unit.insts_slice(bb).iter().any(|&i| {
                let d = unit.inst_data(i);
                d.opcode == Opcode::Phi && d.blocks.contains(&block)
            })
        });
        if referenced_by_phi {
            continue;
        }
        // Redirect all predecessors: every terminator naming the block.
        for bi in 0..unit.blocks_slice().len() {
            if let Some(pred_term) = unit.terminator(unit.blocks_slice()[bi]) {
                unit.inst_data_mut(pred_term).replace_block(block, target);
            }
        }
        unit.remove_block(block);
        changed = true;
    }
    changed
}

/// Merge a block into its unique predecessor when that predecessor branches
/// to it unconditionally.
fn merge_straight_line_blocks(unit: &mut UnitData) -> bool {
    let mut changed = false;
    loop {
        let cfg = ControlFlowGraph::new(unit);
        let mergeable = unit.blocks_slice().iter().find_map(|&block| {
            if Some(block) == unit.entry_block() {
                return None;
            }
            let &[pred] = cfg.preds(block) else {
                return None;
            };
            if pred == block {
                return None;
            }
            let pred_term = unit.terminator(pred)?;
            let pred_data = unit.inst_data(pred_term);
            (pred_data.opcode == Opcode::Br && pred_data.blocks[0] == block)
                .then_some((block, pred, pred_term))
        });
        let Some((block, pred, pred_term)) = mergeable else {
            break;
        };
        // Single-predecessor phis collapse to their only operand.
        for inst in unit.insts(block) {
            let data = unit.inst_data(inst);
            if data.opcode == Opcode::Phi && data.args.len() == 1 {
                let operand = data.args[0];
                let result = unit.inst_result(inst);
                unit.replace_value_uses(result, operand);
                unit.remove_inst(inst);
            }
        }
        // Move the block's instructions into the predecessor.
        unit.remove_inst(pred_term);
        while let Some(&inst) = unit.insts_slice(block).first() {
            unit.move_inst_to_end(inst, pred);
        }
        // Any remaining references to the block (e.g. phi predecessor
        // lists in successors) now refer to the predecessor.
        for inst in unit.all_insts() {
            unit.inst_data_mut(inst).replace_block(block, pred);
        }
        unit.remove_block(block);
        changed = true;
    }
    changed
}

/// Replace two-way `phi` nodes whose operands dominate the join block with a
/// `mux` selected by the branch condition of the dominating block.
fn phis_to_muxes(unit: &mut UnitData) -> bool {
    let cfg = ControlFlowGraph::new(unit);
    let domtree = DominatorTree::new(unit, &cfg);
    let mut changed = false;
    for inst in unit.all_insts() {
        let data = unit.inst_data(inst);
        if data.opcode != Opcode::Phi || data.args.len() != 2 {
            continue;
        }
        let (args, blocks) = (
            [data.args[0], data.args[1]],
            [data.blocks[0], data.blocks[1]],
        );
        let block = unit.inst_block(inst).unwrap();
        let Some(dominator) = domtree.common_dominator(blocks[0], blocks[1]) else {
            continue;
        };
        let Some(dom_term) = unit.terminator(dominator) else {
            continue;
        };
        let dom_data = unit.inst_data(dom_term);
        if dom_data.opcode != Opcode::BrCond {
            continue;
        }
        let cond = dom_data.args[0];
        let if_true = dom_data.blocks[1];
        // Check that the phi operands dominate the join block so the mux can
        // use them directly.
        let operands_dominate = args.iter().all(|&v| match unit.value_def(v) {
            ValueDef::Arg(_) => true,
            ValueDef::Inst(def) => unit
                .inst_block(def)
                .map(|b| domtree.dominates(b, block))
                .unwrap_or(false),
            ValueDef::Invalid => false,
        });
        let cond_dominates = match unit.value_def(cond) {
            ValueDef::Arg(_) => true,
            ValueDef::Inst(def) => unit
                .inst_block(def)
                .map(|b| domtree.dominates(b, block))
                .unwrap_or(false),
            ValueDef::Invalid => false,
        };
        if !operands_dominate || !cond_dominates {
            continue;
        }
        // Which incoming edge corresponds to the true branch?
        let edge_reaches = |edge: Block, pred: Block| edge == pred || domtree.dominates(edge, pred);
        let true_index = if edge_reaches(if_true, blocks[0]) && !edge_reaches(if_true, blocks[1]) {
            0
        } else if edge_reaches(if_true, blocks[1]) && !edge_reaches(if_true, blocks[0]) {
            1
        } else {
            continue;
        };
        let false_index = 1 - true_index;
        let false_value = args[false_index];
        let true_value = args[true_index];
        // Build `mux([false, true], cond)` right before the phi.
        let array_inst = unit.insert_inst_before(
            inst,
            InstData::new(Opcode::Array, vec![false_value, true_value]),
            Some(llhd::ty::array_ty(2, unit.value_type(false_value))),
        );
        let array = unit.inst_result(array_inst);
        let mux_inst = unit.insert_inst_before(
            inst,
            InstData::new(Opcode::Mux, vec![array, cond]),
            Some(unit.value_type(false_value)),
        );
        let mux = unit.inst_result(mux_inst);
        let result = unit.inst_result(inst);
        unit.replace_value_uses(result, mux);
        unit.remove_inst(inst);
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;

    /// The acc_comb process right after TCM (Figure 5f): the drive has moved
    /// to the final block, the value is selected by a phi.
    const ACC_COMB_AFTER_TCM: &str = r#"
        proc @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
        entry:
            %qp = prb i32$ %q
            %xp = prb i32$ %x
            %enp = prb i1$ %en
            %sum = add i32 %qp, %xp
            %delay = const time 2ns
            br %enp, %final, %enabled
        enabled:
            br %final
        final:
            %dn = phi i32 [%qp, %entry], [%sum, %enabled]
            drv i32$ %d, %dn after %delay
            wait %entry, %q, %x, %en
        }
    "#;

    #[test]
    fn acc_comb_collapses_to_single_block_with_mux() {
        let mut module = parse_module(ACC_COMB_AFTER_TCM).unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        let unit = module.unit(id);
        assert!(llhd::verifier::verify_unit(unit).is_ok());
        assert_eq!(
            unit.blocks().len(),
            1,
            "{}",
            llhd::assembly::write_unit(unit)
        );
        let ops: Vec<_> = unit
            .all_insts()
            .iter()
            .map(|&i| unit.inst_data(i).opcode)
            .collect();
        assert!(ops.contains(&Opcode::Mux));
        assert!(!ops.contains(&Opcode::Phi));
        assert!(ops.contains(&Opcode::Drv));
        assert!(ops.contains(&Opcode::Wait));
    }

    #[test]
    fn acc_ff_collapses_to_two_blocks() {
        // The flip-flop process after TCM: the drive moved into the aux
        // block with the posedge condition.
        let src = r#"
        proc @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
        init:
            %delay = const time 1ns
            %clk0 = prb i1$ %clk
            wait %check, %clk
        check:
            %clk1 = prb i1$ %clk
            %dp = prb i32$ %d
            %chg = neq i1 %clk0, %clk1
            %posedge = and i1 %chg, %clk1
            br %posedge, %aux, %event
        event:
            br %aux
        aux:
            drv i32$ %q, %dp after %delay if %posedge
            br %init
        }
        "#;
        let mut module = parse_module(src).unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        let unit = module.unit(id);
        assert!(llhd::verifier::verify_unit(unit).is_ok());
        assert_eq!(
            unit.blocks().len(),
            2,
            "{}",
            llhd::assembly::write_unit(unit)
        );
        // The drive survived with its condition.
        assert!(unit
            .all_insts()
            .iter()
            .any(|&i| unit.inst_data(i).opcode == Opcode::DrvCond));
    }

    #[test]
    fn branch_with_equal_targets_becomes_unconditional() {
        let mut module = parse_module(
            r#"
            proc @p (i1$ %a) -> () {
            entry:
                %ap = prb i1$ %a
                br %ap, %next, %next
            next:
                halt
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(run(module.unit_mut(id)));
        let unit = module.unit(id);
        assert!(!unit
            .all_insts()
            .iter()
            .any(|&i| unit.inst_data(i).opcode == Opcode::BrCond));
        assert_eq!(unit.blocks().len(), 1);
    }

    #[test]
    fn functions_are_untouched() {
        let mut module = parse_module(
            r#"
            func @f (i1 %c, i32 %a, i32 %b) i32 {
            entry:
                br %c, %no, %yes
            yes:
                ret i32 %a
            no:
                ret i32 %b
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(!run(module.unit_mut(id)));
    }
}
