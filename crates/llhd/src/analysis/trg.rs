//! Temporal region analysis (§4.3.1 of the paper).
//!
//! `wait` instructions subdivide a process into *temporal regions* (TRs):
//! sets of basic blocks that execute during the same instant of physical
//! time. Probes and drives may be rearranged freely within a TR but never
//! across TR boundaries. Regions are assigned by three rules:
//!
//! 1. A block whose predecessor ends in a `wait`, or the entry block,
//!    starts a new TR.
//! 2. If all predecessors share one TR, the block inherits it.
//! 3. If predecessors have distinct TRs, the block starts a new TR.

use super::ControlFlowGraph;
use crate::ir::{Block, Opcode, UnitData};
use std::fmt;

/// A handle to a temporal region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemporalRegion(pub u32);

impl TemporalRegion {
    /// The raw index of the region.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TemporalRegion {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        write!(f, "tr{}", self.0)
    }
}

impl fmt::Display for TemporalRegion {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        write!(f, "tr{}", self.0)
    }
}

/// The assignment of basic blocks to temporal regions for one unit, in
/// dense tables indexed by [`Block::index`].
#[derive(Clone, Debug, Default)]
pub struct TemporalRegionGraph {
    regions: Vec<Option<TemporalRegion>>,
    /// Whether control enters a block from another region, or the block is
    /// the unit's entry.
    entered: Vec<bool>,
    num_regions: usize,
}

impl TemporalRegionGraph {
    /// Compute the temporal regions of a unit.
    pub fn new(unit: &UnitData, cfg: &ControlFlowGraph) -> Self {
        let slots = unit.num_block_slots();
        let mut trg = TemporalRegionGraph {
            regions: vec![None; slots],
            entered: vec![false; slots],
            num_regions: 0,
        };
        let Some(entry) = unit.entry_block() else {
            return trg;
        };

        // Assign blocks whose predecessors are decided, sweeping the layout
        // order until nothing changes.
        let blocks = unit.blocks_slice();
        let mut changed = true;
        trg.assign_new(entry);
        while changed {
            changed = false;
            for &bb in blocks {
                if trg.regions[bb.index()].is_some() {
                    continue;
                }
                let preds = cfg.preds(bb);
                if preds.is_empty() {
                    continue;
                }
                // Rule 1: a predecessor ending in `wait` forces a new TR.
                let after_wait = preds.iter().any(|&p| {
                    unit.terminator(p).is_some_and(|t| {
                        matches!(unit.inst_data(t).opcode, Opcode::Wait | Opcode::WaitTime)
                    })
                });
                if after_wait {
                    trg.assign_new(bb);
                    changed = true;
                    continue;
                }
                // Need all predecessors assigned to decide rules 2 and 3.
                let pred_region = |p: &Block| trg.regions[p.index()];
                if preds.iter().any(|p| pred_region(p).is_none()) {
                    continue;
                }
                let first = pred_region(&preds[0]);
                if preds.iter().all(|p| pred_region(p) == first) {
                    // Rule 2.
                    trg.regions[bb.index()] = first;
                } else {
                    // Rule 3.
                    trg.assign_new(bb);
                }
                changed = true;
            }
        }
        // Any remaining blocks (unreachable or in cycles without an assigned
        // predecessor) get their own region.
        for &bb in blocks {
            if trg.regions[bb.index()].is_none() {
                trg.assign_new(bb);
            }
        }
        for &bb in blocks {
            let region = trg.regions[bb.index()];
            trg.entered[bb.index()] = bb == entry
                || cfg
                    .preds(bb)
                    .iter()
                    .any(|p| trg.regions[p.index()] != region);
        }
        trg
    }

    fn assign_new(&mut self, block: Block) -> TemporalRegion {
        let tr = TemporalRegion(self.num_regions as u32);
        self.num_regions += 1;
        self.regions[block.index()] = Some(tr);
        tr
    }

    /// The temporal region of a block.
    ///
    /// # Panics
    ///
    /// Panics if the block was not part of the unit the graph was computed
    /// for.
    pub fn region(&self, block: Block) -> TemporalRegion {
        self.regions
            .get(block.index())
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("block {} has no temporal region", block))
    }

    /// The number of temporal regions.
    pub fn num_regions(&self) -> usize {
        self.num_regions
    }

    /// The blocks of `unit` in `region`, in layout order.
    fn blocks_of<'a>(
        &'a self,
        unit: &'a UnitData,
        region: TemporalRegion,
    ) -> impl Iterator<Item = Block> + 'a {
        unit.blocks_slice()
            .iter()
            .copied()
            .filter(move |b| self.regions.get(b.index()) == Some(&Some(region)))
    }

    /// The blocks belonging to a region, in unit layout order.
    pub fn blocks_in(&self, unit: &UnitData, region: TemporalRegion) -> Vec<Block> {
        self.blocks_of(unit, region).collect()
    }

    /// The blocks of a region whose terminator leaves the region: either a
    /// `wait`/`halt`, or a branch to a block in a different region.
    pub fn exiting_blocks(
        &self,
        unit: &UnitData,
        cfg: &ControlFlowGraph,
        region: TemporalRegion,
    ) -> Vec<Block> {
        self.blocks_of(unit, region)
            .filter(|&bb| {
                let term = match unit.terminator(bb) {
                    Some(t) => t,
                    None => return true,
                };
                let data = unit.inst_data(term);
                if matches!(
                    data.opcode,
                    Opcode::Wait | Opcode::WaitTime | Opcode::Halt | Opcode::Ret | Opcode::RetValue
                ) {
                    return true;
                }
                cfg.succs(bb).iter().any(|s| self.region(*s) != region)
            })
            .collect()
    }

    /// The unique entry block of a region: the block that control transfers
    /// to from other regions (or the unit entry block for the first region).
    pub fn entry_block_of(&self, unit: &UnitData, region: TemporalRegion) -> Option<Block> {
        self.blocks_of(unit, region)
            .find(|bb| self.entered[bb.index()])
            .or_else(|| self.blocks_of(unit, region).next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Signature, UnitBuilder, UnitData, UnitKind, UnitName};
    use crate::ty::*;

    /// Build the flip-flop process of Figure 5: init -> check -> {init, event},
    /// event -> init, with a wait in init.
    fn acc_ff_process() -> (UnitData, Vec<Block>) {
        let mut unit = UnitData::new(
            UnitKind::Process,
            UnitName::global("acc_ff"),
            Signature::new_entity(
                vec![signal_ty(int_ty(1)), signal_ty(int_ty(32))],
                vec![signal_ty(int_ty(32))],
            ),
        );
        let clk = unit.arg_value(0);
        let d = unit.arg_value(1);
        let q = unit.arg_value(2);
        let mut b = UnitBuilder::new(&mut unit);
        let init = b.block("init");
        let check = b.block("check");
        let event = b.block("event");
        b.append_to(init);
        let clk0 = b.prb(clk);
        b.wait(check, vec![clk]);
        b.append_to(check);
        let clk1 = b.prb(clk);
        let chg = b.neq(clk0, clk1);
        let posedge = b.and(chg, clk1);
        b.br_cond(posedge, init, event);
        b.append_to(event);
        let dp = b.prb(d);
        let delay = b.const_time(crate::value::TimeValue::from_nanos(1));
        b.drv(q, dp, delay);
        b.br(init);
        (unit, vec![init, check, event])
    }

    #[test]
    fn flip_flop_has_two_regions() {
        let (unit, blocks) = acc_ff_process();
        let cfg = ControlFlowGraph::new(&unit);
        let trg = TemporalRegionGraph::new(&unit, &cfg);
        let (init, check, event) = (blocks[0], blocks[1], blocks[2]);
        // init is its own TR; check and event share the TR after the wait.
        assert_eq!(trg.region(check), trg.region(event));
        assert_ne!(trg.region(init), trg.region(check));
        assert_eq!(trg.num_regions(), 2);
    }

    #[test]
    fn combinational_process_has_one_region() {
        // A single-block process entry -> entry via wait: one region per
        // iteration body.
        let mut unit = UnitData::new(
            UnitKind::Process,
            UnitName::global("comb"),
            Signature::new_entity(vec![signal_ty(int_ty(8))], vec![signal_ty(int_ty(8))]),
        );
        let a = unit.arg_value(0);
        let q = unit.arg_value(1);
        let mut b = UnitBuilder::new(&mut unit);
        let entry = b.block("entry");
        b.append_to(entry);
        let ap = b.prb(a);
        let delay = b.const_time(crate::value::TimeValue::ZERO);
        b.drv(q, ap, delay);
        b.wait(entry, vec![a]);
        let cfg = ControlFlowGraph::new(&unit);
        let trg = TemporalRegionGraph::new(&unit, &cfg);
        assert_eq!(trg.num_regions(), 1);
        assert_eq!(trg.blocks_in(&unit, trg.region(entry)), vec![entry]);
    }

    #[test]
    fn exiting_blocks_and_entry_blocks() {
        let (unit, blocks) = acc_ff_process();
        let cfg = ControlFlowGraph::new(&unit);
        let trg = TemporalRegionGraph::new(&unit, &cfg);
        let (init, check, event) = (blocks[0], blocks[1], blocks[2]);
        let tr0 = trg.region(init);
        let tr1 = trg.region(check);
        // init exits its TR via the wait.
        assert_eq!(trg.exiting_blocks(&unit, &cfg, tr0), vec![init]);
        // Both check (branches back to init) and event (branches to init)
        // exit the second TR.
        let exits = trg.exiting_blocks(&unit, &cfg, tr1);
        assert!(exits.contains(&check));
        assert!(exits.contains(&event));
        assert_eq!(trg.entry_block_of(&unit, tr0), Some(init));
        assert_eq!(trg.entry_block_of(&unit, tr1), Some(check));
    }

    #[test]
    fn diamond_merge_inherits_region() {
        // entry -> (a | b) -> merge with no waits: all in one TR per rule 2,
        // except the merge which has two predecessors in the *same* TR.
        let mut unit = UnitData::new(
            UnitKind::Process,
            UnitName::global("p"),
            Signature::new_entity(vec![signal_ty(int_ty(1))], vec![]),
        );
        let c = unit.arg_value(0);
        let mut b = UnitBuilder::new(&mut unit);
        let entry = b.block("entry");
        let left = b.block("left");
        let right = b.block("right");
        let merge = b.block("merge");
        b.append_to(entry);
        let cp = b.prb(c);
        b.br_cond(cp, left, right);
        b.append_to(left);
        b.br(merge);
        b.append_to(right);
        b.br(merge);
        b.append_to(merge);
        b.halt();
        let cfg = ControlFlowGraph::new(&unit);
        let trg = TemporalRegionGraph::new(&unit, &cfg);
        assert_eq!(trg.num_regions(), 1);
        assert_eq!(trg.region(entry), trg.region(merge));
    }
}
