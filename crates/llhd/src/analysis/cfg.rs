//! Control flow graph analysis.

use crate::ir::{Block, UnitData};

/// The predecessor/successor relation between the basic blocks of a unit,
/// in dense tables indexed by [`Block::index`].
#[derive(Clone, Debug, Default)]
pub struct ControlFlowGraph {
    preds: Vec<Vec<Block>>,
    succs: Vec<Vec<Block>>,
}

impl ControlFlowGraph {
    /// Compute the control flow graph of a unit.
    pub fn new(unit: &UnitData) -> Self {
        let slots = unit.num_block_slots();
        let mut cfg = ControlFlowGraph {
            preds: vec![vec![]; slots],
            succs: vec![vec![]; slots],
        };
        for &block in unit.blocks_slice() {
            if let Some(term) = unit.terminator(block) {
                for &target in &unit.inst_data(term).blocks {
                    cfg.succs[block.index()].push(target);
                    cfg.preds[target.index()].push(block);
                }
            }
        }
        cfg
    }

    /// The predecessors of a block.
    pub fn preds(&self, block: Block) -> &[Block] {
        self.preds.get(block.index()).map_or(&[], Vec::as_slice)
    }

    /// The successors of a block.
    pub fn succs(&self, block: Block) -> &[Block] {
        self.succs.get(block.index()).map_or(&[], Vec::as_slice)
    }

    /// The blocks that no path from the entry block reaches, in layout
    /// order.
    pub fn unreachable_blocks(&self, unit: &UnitData) -> Vec<Block> {
        let mut reachable = vec![false; unit.num_block_slots()];
        let mut stack: Vec<Block> = unit.entry_block().into_iter().collect();
        while let Some(bb) = stack.pop() {
            if !std::mem::replace(&mut reachable[bb.index()], true) {
                stack.extend_from_slice(self.succs(bb));
            }
        }
        unit.blocks_slice()
            .iter()
            .copied()
            .filter(|b| !reachable[b.index()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Signature, UnitBuilder, UnitData, UnitKind, UnitName};
    use crate::ty::*;

    /// Build a diamond CFG: entry -> (left | right) -> merge.
    fn diamond() -> (UnitData, Vec<Block>) {
        let mut unit = UnitData::new(
            UnitKind::Function,
            UnitName::global("f"),
            Signature::new_func(vec![int_ty(1)], void_ty()),
        );
        let cond = unit.arg_value(0);
        let mut b = UnitBuilder::new(&mut unit);
        let entry = b.block("entry");
        let left = b.block("left");
        let right = b.block("right");
        let merge = b.block("merge");
        b.append_to(entry);
        b.br_cond(cond, left, right);
        b.append_to(left);
        b.br(merge);
        b.append_to(right);
        b.br(merge);
        b.append_to(merge);
        b.ret();
        (unit, vec![entry, left, right, merge])
    }

    #[test]
    fn diamond_cfg() {
        let (unit, blocks) = diamond();
        let cfg = ControlFlowGraph::new(&unit);
        let (entry, left, right, merge) = (blocks[0], blocks[1], blocks[2], blocks[3]);
        assert_eq!(cfg.succs(entry), &[left, right]);
        assert_eq!(cfg.preds(merge), &[left, right]);
        assert_eq!(cfg.preds(entry), &[] as &[Block]);
        assert_eq!(cfg.succs(merge), &[] as &[Block]);
        assert!(cfg.unreachable_blocks(&unit).is_empty());
    }

    #[test]
    fn unreachable_detection() {
        let (mut unit, _) = diamond();
        let dead = unit.create_block(Some("dead".into()));
        let cfg = ControlFlowGraph::new(&unit);
        assert_eq!(cfg.unreachable_blocks(&unit), vec![dead]);
    }
}
