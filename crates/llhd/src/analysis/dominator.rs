//! Dominator tree analysis.
//!
//! The Temporal Code Motion pass (§4.3.3) needs to find the closest common
//! dominator of a `drv` instruction and the exiting block of its temporal
//! region, and to collect the branch conditions along the path from that
//! dominator to the instruction. This module implements the classic
//! iterative dominance algorithm by Cooper, Harvey, and Kennedy.

use super::ControlFlowGraph;
use crate::ir::{Block, UnitData};

/// The dominator tree of a unit's control flow graph.
#[derive(Clone, Debug)]
pub struct DominatorTree {
    /// Immediate dominator per block slot; the entry block maps to itself,
    /// unreachable blocks to `None`.
    idom: Vec<Option<Block>>,
    /// Reverse post-order of the reachable blocks.
    rpo: Vec<Block>,
}

impl DominatorTree {
    /// Compute the dominator tree for a unit.
    pub fn new(unit: &UnitData, cfg: &ControlFlowGraph) -> Self {
        let slots = unit.num_block_slots();
        let mut idom: Vec<Option<Block>> = vec![None; slots];
        let Some(entry) = unit.entry_block() else {
            return DominatorTree { idom, rpo: vec![] };
        };

        // Compute reverse post-order.
        let mut visited = vec![false; slots];
        let mut post = Vec::new();
        let mut stack = vec![(entry, 0usize)];
        visited[entry.index()] = true;
        while let Some((bb, next)) = stack.last_mut() {
            let bb = *bb;
            if let Some(&succ) = cfg.succs(bb).get(*next) {
                *next += 1;
                if !std::mem::replace(&mut visited[succ.index()], true) {
                    stack.push((succ, 0));
                }
            } else {
                post.push(bb);
                stack.pop();
            }
        }
        let rpo: Vec<Block> = post.into_iter().rev().collect();
        // Position of each block slot in `rpo`.
        let mut order = vec![usize::MAX; slots];
        for (i, &bb) in rpo.iter().enumerate() {
            order[bb.index()] = i;
        }

        idom[entry.index()] = Some(entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &bb in rpo.iter().skip(1) {
                let mut new_idom: Option<Block> = None;
                for &pred in cfg.preds(bb) {
                    if idom[pred.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => pred,
                        Some(cur) => Self::intersect(&idom, &order, pred, cur),
                    });
                }
                if new_idom.is_some() && idom[bb.index()] != new_idom {
                    idom[bb.index()] = new_idom;
                    changed = true;
                }
            }
        }
        DominatorTree { idom, rpo }
    }

    fn intersect(idom: &[Option<Block>], order: &[usize], mut a: Block, mut b: Block) -> Block {
        let up = |bb: Block| idom[bb.index()].expect("a processed block has an idom");
        while a != b {
            while order[a.index()] > order[b.index()] {
                a = up(a);
            }
            while order[b.index()] > order[a.index()] {
                b = up(b);
            }
        }
        a
    }

    /// The immediate dominator of a block. The entry block is its own
    /// immediate dominator; unreachable blocks have none.
    pub fn idom(&self, block: Block) -> Option<Block> {
        self.idom.get(block.index()).copied().flatten()
    }

    /// Whether `a` dominates `b` (reflexively). An unreachable block is
    /// dominated only by itself.
    pub fn dominates(&self, a: Block, b: Block) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(next) if next != cur => cur = next,
                _ => return false,
            }
        }
    }

    /// The closest block dominating both `a` and `b`.
    pub fn common_dominator(&self, a: Block, b: Block) -> Option<Block> {
        self.idom(b)?;
        let mut cur = a;
        loop {
            if self.dominates(cur, b) {
                return Some(cur);
            }
            let next = self.idom(cur)?;
            if next == cur {
                return None;
            }
            cur = next;
        }
    }

    /// The reachable blocks in reverse post-order.
    pub fn reverse_post_order(&self) -> &[Block] {
        &self.rpo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Signature, UnitBuilder, UnitData, UnitKind, UnitName};
    use crate::ty::*;

    fn diamond_with_loop() -> (UnitData, Vec<Block>) {
        // entry -> (left | right) -> merge -> loop -> merge / exit
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
        let exit = b.block("exit");
        b.append_to(entry);
        b.br_cond(cond, left, right);
        b.append_to(left);
        b.br(merge);
        b.append_to(right);
        b.br(merge);
        b.append_to(merge);
        b.br_cond(cond, merge, exit);
        b.append_to(exit);
        b.ret();
        (unit, vec![entry, left, right, merge, exit])
    }

    #[test]
    fn dominators_of_diamond() {
        let (unit, blocks) = diamond_with_loop();
        let cfg = ControlFlowGraph::new(&unit);
        let dt = DominatorTree::new(&unit, &cfg);
        let (entry, left, right, merge, exit) =
            (blocks[0], blocks[1], blocks[2], blocks[3], blocks[4]);
        assert_eq!(dt.idom(entry), Some(entry));
        assert_eq!(dt.idom(left), Some(entry));
        assert_eq!(dt.idom(right), Some(entry));
        assert_eq!(dt.idom(merge), Some(entry));
        assert_eq!(dt.idom(exit), Some(merge));
        assert!(dt.dominates(entry, exit));
        assert!(dt.dominates(merge, exit));
        assert!(!dt.dominates(left, merge));
        assert!(dt.dominates(merge, merge));
        assert_eq!(dt.common_dominator(left, right), Some(entry));
        assert_eq!(dt.common_dominator(merge, exit), Some(merge));
    }

    #[test]
    fn reverse_post_order_starts_at_entry() {
        let (unit, blocks) = diamond_with_loop();
        let cfg = ControlFlowGraph::new(&unit);
        let dt = DominatorTree::new(&unit, &cfg);
        assert_eq!(dt.reverse_post_order().first(), Some(&blocks[0]));
        assert_eq!(dt.reverse_post_order().len(), 5);
    }
}
