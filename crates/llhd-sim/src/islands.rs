//! Sensitivity-island partitioning.
//!
//! An **island** is a connected component of the signal ↔ instance graph:
//! two instances land in the same island when one can *schedule* work the
//! other observes — it drives a signal the other is sensitive to (entity
//! sensitivity or a process `wait`), or they drive the same signal (their
//! drives must merge last-writer-wins in one queue bucket). Instances in
//! different islands never wake each other within an instant. The plan
//! is a standalone analysis of the design's structure, read by the
//! benchmark's probes and the design generators' structure tests; the
//! engines run every activation on one thread and never build it.
//!
//! The edges are exactly the scan [`DesignQuery`](crate::query::DesignQuery)
//! performs, with one deliberate exception: a **process probe** (`prb`
//! outside the wait sensitivity list) is a plain value *read* and does not
//! merge islands: signal values are frozen during an instant's activation
//! phase — drives apply only at the next `next_cycle` — so such a read
//! cannot wake anything within the instant. (Entity probes *do* merge: an
//! entity re-runs whenever a probed signal changes, so its probes are
//! sensitivity, not just reads.)
//!
//! The plan is deterministic for a given module + top: islands are
//! numbered by first appearance in instance order.

use crate::design::{ElaboratedDesign, InstanceId, InstanceKind, SignalId};
use llhd::ir::{Module, Opcode, Value};

/// One island of the partition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IslandInfo {
    /// The instances in this island, in instance order.
    pub instances: Vec<InstanceId>,
    /// The canonical signals attached to this island, in signal order.
    pub signals: Vec<SignalId>,
    /// Static weight: total IR instruction count of the member instances'
    /// unit bodies — the heuristic proxy for how much work an activation
    /// of this island costs.
    pub ops: usize,
}

/// The island assignment of one elaborated design.
///
/// Built by [`IslandPlan::build`] as a union-find over the same static
/// scan that powers [`DesignQuery`](crate::query::DesignQuery).
#[derive(Clone, Debug, Default)]
pub struct IslandPlan {
    /// Per-island membership and weight, by island id.
    islands: Vec<IslandInfo>,
}

/// Union-find with path halving.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: the smaller root wins, no rank heuristics.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

impl IslandPlan {
    /// Compute the island partition of `design` by a static scan of every
    /// instance's unit body (a linear pass).
    pub fn build(module: &Module, design: &ElaboratedDesign) -> Self {
        let num_instances = design.num_instances();
        let num_signals = design.num_signals();
        // Union-find nodes: instances first, then canonical signals.
        let mut uf = UnionFind::new(num_instances + num_signals);
        let sig_node = |s: usize| (num_instances + s) as u32;
        let mut ops_of: Vec<usize> = vec![0; num_instances];

        for (idx, instance) in design.instances.iter().enumerate() {
            let unit = module.unit(instance.unit);
            let sig_of = |value: Value| -> Option<usize> {
                instance
                    .signal_map
                    .get(&value)
                    .map(|&sig| design.resolve(sig).0)
            };
            let is_entity = instance.kind == InstanceKind::Entity;
            for block in unit.blocks() {
                for inst in unit.insts(block) {
                    ops_of[idx] += 1;
                    let data = unit.inst_data(inst);
                    match data.opcode {
                        // Drives merge: concurrent drivers of one signal
                        // must serialize into one last-writer-wins bucket.
                        Opcode::Drv | Opcode::DrvCond | Opcode::Reg => {
                            if let Some(sig) = sig_of(data.args[0]) {
                                uf.union(idx as u32, sig_node(sig));
                            }
                        }
                        // A delay line drives its result and is (in an
                        // entity body) sensitive to its source.
                        Opcode::Del => {
                            if let Some(src) = sig_of(data.args[0]) {
                                uf.union(idx as u32, sig_node(src));
                            }
                            if let Some(result) = unit.get_inst_result(inst) {
                                if let Some(dst) = sig_of(result) {
                                    uf.union(idx as u32, sig_node(dst));
                                }
                            }
                        }
                        // Entity probes are sensitivity (the entity
                        // re-runs on change); process probes are reads.
                        Opcode::Prb if is_entity => {
                            if let Some(sig) = sig_of(data.args[0]) {
                                uf.union(idx as u32, sig_node(sig));
                            }
                        }
                        // Wait sensitivity wakes the process on change.
                        Opcode::Wait | Opcode::WaitTime => {
                            let signal_args = if data.opcode == Opcode::WaitTime {
                                &data.args[1..]
                            } else {
                                &data.args[..]
                            };
                            for &arg in signal_args {
                                if let Some(sig) = sig_of(arg) {
                                    uf.union(idx as u32, sig_node(sig));
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }

        // Number islands by first appearance: instance-bearing components
        // in instance order, then any signal-only components in signal
        // order (unconnected nets still get a stable id).
        let mut island_of_root: Vec<usize> = vec![usize::MAX; num_instances + num_signals];
        let mut islands: Vec<IslandInfo> = Vec::new();
        let mut island_of = |node: u32, islands: &mut Vec<IslandInfo>| {
            let root = uf.find(node) as usize;
            if island_of_root[root] == usize::MAX {
                island_of_root[root] = islands.len();
                islands.push(IslandInfo::default());
            }
            island_of_root[root]
        };
        for (idx, &ops) in ops_of.iter().enumerate() {
            let island = island_of(idx as u32, &mut islands);
            islands[island].instances.push(InstanceId(idx));
            islands[island].ops += ops;
        }
        for s in 0..num_signals {
            let canon = design.resolve(SignalId(s)).0;
            let island = island_of(sig_node(canon), &mut islands);
            if canon == s {
                islands[island].signals.push(SignalId(s));
            }
        }
        IslandPlan { islands }
    }

    /// The number of islands (including signal-only ones).
    pub fn num_islands(&self) -> usize {
        self.islands.len()
    }

    /// Per-island membership and weight, by island id.
    pub fn islands(&self) -> &[IslandInfo] {
        &self.islands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::elaborate;
    use llhd::assembly::parse_module;

    /// The id of the island holding instance `idx`.
    fn instance_island(plan: &IslandPlan, idx: usize) -> usize {
        let id = InstanceId(idx);
        plan.islands()
            .iter()
            .position(|i| i.instances.contains(&id))
            .unwrap()
    }

    /// The id of the island holding `signal`'s canonical signal.
    fn signal_island(plan: &IslandPlan, design: &ElaboratedDesign, signal: SignalId) -> usize {
        let canon = design.resolve(signal);
        plan.islands()
            .iter()
            .position(|i| i.signals.contains(&canon))
            .unwrap()
    }

    /// Two disconnected blink processes plus a third watching the first's
    /// output: blink0+watcher share an island, blink1 is alone.
    const TWO_ISLANDS: &str = r#"
        proc @blink () -> (i1$ %led) {
        entry:
            %on = const i1 1
            %t = const time 5ns
            drv i1$ %led, %on after %t
            wait %entry for %t
        }
        proc @watcher (i1$ %led) -> (i8$ %count) {
        entry:
            %one = const i8 1
            %t = const time 1ns
            drv i8$ %count, %one after %t
            wait %entry, %led
        }
        entity @top () -> () {
            %z1 = const i1 0
            %z8 = const i8 0
            %led0 = sig i1 %z1
            %led1 = sig i1 %z1
            %count = sig i8 %z8
            inst @blink () -> (%led0)
            inst @blink () -> (%led1)
            inst @watcher (%led0) -> (%count)
        }
    "#;

    #[test]
    fn disconnected_components_get_distinct_islands() {
        let module = parse_module(TWO_ISLANDS).unwrap();
        let design = elaborate(&module, "top").unwrap();
        let plan = IslandPlan::build(&module, &design);
        // Both blink instances share the path "top.blink"; tell them
        // apart through the signals they drive.
        let blinks: Vec<usize> = design
            .instances
            .iter()
            .enumerate()
            .filter(|(_, i)| i.name == "top.blink")
            .map(|(idx, _)| idx)
            .collect();
        assert_eq!(blinks.len(), 2);
        let (blink0, blink1) = (
            instance_island(&plan, blinks[0]),
            instance_island(&plan, blinks[1]),
        );
        let watcher = design
            .instances
            .iter()
            .position(|i| i.name == "top.watcher")
            .unwrap();
        let watcher = instance_island(&plan, watcher);
        assert_eq!(blink0, watcher, "watcher waits on blink0's led");
        assert_ne!(blink0, blink1, "the two blinkers are independent");
        let led0 = design.signal_by_name("top.led0").unwrap();
        let led1 = design.signal_by_name("top.led1").unwrap();
        assert_eq!(signal_island(&plan, &design, led0), blink0);
        assert_eq!(signal_island(&plan, &design, led1), blink1);
        // Deterministic numbering by first appearance.
        let plan2 = IslandPlan::build(&module, &design);
        assert_eq!(plan.islands(), plan2.islands());
    }

    #[test]
    fn process_probe_is_a_boundary_not_a_merge() {
        let module = parse_module(
            r#"
            proc @blink () -> (i1$ %led) {
            entry:
                %on = const i1 1
                %t = const time 5ns
                drv i1$ %led, %on after %t
                wait %entry for %t
            }
            proc @sampler (i1$ %led) -> (i1$ %copy) {
            entry:
                %t = const time 7ns
                %cur = prb i1$ %led
                drv i1$ %copy, %cur after %t
                wait %entry for %t
            }
            entity @top () -> () {
                %z = const i1 0
                %led = sig i1 %z
                %copy = sig i1 %z
                inst @blink () -> (%led)
                inst @sampler (%led) -> (%copy)
            }
            "#,
        )
        .unwrap();
        let design = elaborate(&module, "top").unwrap();
        let plan = IslandPlan::build(&module, &design);
        let blink = design
            .instances
            .iter()
            .position(|i| i.name == "top.blink")
            .unwrap();
        let sampler = design
            .instances
            .iter()
            .position(|i| i.name == "top.sampler")
            .unwrap();
        // The sampler only *reads* led (probe outside its wait list), so
        // it stays in its own island and led, in blink's island, is read
        // across the boundary.
        let (blink, sampler) = (
            instance_island(&plan, blink),
            instance_island(&plan, sampler),
        );
        assert_ne!(blink, sampler);
        let led = design.signal_by_name("top.led").unwrap();
        assert_eq!(signal_island(&plan, &design, led), blink);
    }

    #[test]
    fn entity_probe_merges_islands() {
        let module = parse_module(
            r#"
            proc @blink () -> (i1$ %led) {
            entry:
                %on = const i1 1
                %t = const time 5ns
                drv i1$ %led, %on after %t
                wait %entry for %t
            }
            entity @mirror (i1$ %led) -> (i1$ %out) {
                %cur = prb i1$ %led
                %t = const time 0s
                drv i1$ %out, %cur after %t
            }
            entity @top () -> () {
                %z = const i1 0
                %led = sig i1 %z
                %out = sig i1 %z
                inst @blink () -> (%led)
                inst @mirror (%led) -> (%out)
            }
            "#,
        )
        .unwrap();
        let design = elaborate(&module, "top").unwrap();
        let plan = IslandPlan::build(&module, &design);
        let blink = design
            .instances
            .iter()
            .position(|i| i.name == "top.blink")
            .unwrap();
        let mirror = design
            .instances
            .iter()
            .position(|i| i.name == "top.mirror")
            .unwrap();
        // The mirror entity re-runs whenever led changes: sensitivity,
        // same island, no boundary.
        let mirror = instance_island(&plan, mirror);
        assert_eq!(instance_island(&plan, blink), mirror);
        let led = design.signal_by_name("top.led").unwrap();
        assert_eq!(signal_island(&plan, &design, led), mirror);
    }

    #[test]
    fn weights_and_worthiness() {
        let module = parse_module(TWO_ISLANDS).unwrap();
        let design = elaborate(&module, "top").unwrap();
        let plan = IslandPlan::build(&module, &design);
        // The two disconnected components each carry real work.
        assert!(plan.islands().iter().filter(|i| i.ops > 0).count() >= 2);
        let total_ops: usize = plan.islands().iter().map(|i| i.ops).sum();
        assert!(total_ops > 0);
        // Every instance and canonical signal is accounted for exactly once.
        let inst_total: usize = plan.islands().iter().map(|i| i.instances.len()).sum();
        assert_eq!(inst_total, design.num_instances());
    }
}
