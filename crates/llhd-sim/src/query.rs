//! Design introspection.
//!
//! Elaboration computes the design's structure — hierarchy, signal
//! bindings, who touches what — and the engines then consume it silently.
//! This module keeps that structure queryable: a [`DesignQuery`] is built
//! once per elaborated design by a static scan of every instance's unit
//! body, and answers the questions an interactive client asks about a
//! waveform — where does this signal live, which instance drives it,
//! which instances wake up when it changes.
//!
//! The ids it hands out are the same stable ids the rest of the stack
//! uses: [`SignalId`] indexes [`ElaboratedDesign::signals`],
//! [`InstanceId`] indexes [`ElaboratedDesign::instances`], both dense and
//! deterministic for a given module + top (elaboration order is a
//! deterministic walk of the instantiation tree).
//!
//! ```
//! use llhd::assembly::parse_module;
//! use llhd_sim::design::elaborate;
//! use llhd_sim::query::DesignQuery;
//!
//! let module = parse_module(
//!     "proc @blink () -> (i1$ %led) {
//!     entry:
//!         %on = const i1 1
//!         %t = const time 5ns
//!         drv i1$ %led, %on after %t
//!         halt
//!     }",
//! )
//! .unwrap();
//! let design = elaborate(&module, "blink").unwrap();
//! let query = DesignQuery::build(&module, &design);
//! let led = design.signal_by_name("led").unwrap();
//! assert_eq!(query.drivers_of(led).len(), 1);
//! ```

use crate::design::{ElaboratedDesign, InstanceId, InstanceKind, SignalId};
use llhd::ir::{Module, Opcode, Value};

/// One instance in the flattened hierarchy listing.
#[derive(Clone, Debug)]
pub struct HierarchyNode {
    /// The instance's stable id.
    pub instance: InstanceId,
    /// The full hierarchical path (dot-separated).
    pub path: String,
    /// Process or entity.
    pub kind: InstanceKind,
    /// The name of the unit this instance executes.
    pub unit: String,
    /// Nesting depth (number of dots in the path).
    pub depth: usize,
}

/// A static signal-connectivity and hierarchy index over an elaborated
/// design. Build once with [`DesignQuery::build`]; all queries are then
/// slice lookups.
#[derive(Clone, Debug, Default)]
pub struct DesignQuery {
    /// Canonical signal index per signal (aliases resolved), by
    /// `SignalId.0`.
    canon: Vec<usize>,
    /// Instances that drive each canonical signal (`drv`, `reg`, or a
    /// `del` output), sorted, by canonical index.
    drivers: Vec<Vec<InstanceId>>,
    /// Instances whose execution observes each canonical signal (`prb`,
    /// `wait` sensitivity, or a `del` source), sorted, by canonical index.
    watchers: Vec<Vec<InstanceId>>,
    /// The hierarchy listing, in elaboration order.
    hierarchy: Vec<HierarchyNode>,
}

impl DesignQuery {
    /// Scan every instance's unit body and index the design's structure.
    ///
    /// The scan mirrors what the engines execute: `drv`/`drv cond` and
    /// `reg` drive their first signal argument, `del` drives its result
    /// from its source, `prb` and the signal arguments of `wait` observe.
    /// Values that are not bound to a signal in the instance's signal map
    /// (e.g. dead arguments) are skipped, exactly as at run time.
    pub fn build(module: &Module, design: &ElaboratedDesign) -> Self {
        let canon: Vec<usize> = (0..design.num_signals())
            .map(|i| design.resolve(SignalId(i)).0)
            .collect();
        let mut drivers: Vec<Vec<InstanceId>> = vec![Vec::new(); design.num_signals()];
        let mut watchers: Vec<Vec<InstanceId>> = vec![Vec::new(); design.num_signals()];
        let mut hierarchy = Vec::with_capacity(design.num_instances());

        for (idx, instance) in design.instances.iter().enumerate() {
            let id = InstanceId(idx);
            let unit = module.unit(instance.unit);
            hierarchy.push(HierarchyNode {
                instance: id,
                path: instance.name.clone(),
                kind: instance.kind,
                unit: unit.name().to_string(),
                depth: instance.name.matches('.').count(),
            });
            let sig_of = |value: Value| -> Option<usize> {
                instance
                    .signal_map
                    .get(&value)
                    .map(|&sig| design.resolve(sig).0)
            };
            for block in unit.blocks() {
                for inst in unit.insts(block) {
                    let data = unit.inst_data(inst);
                    match data.opcode {
                        Opcode::Drv | Opcode::DrvCond | Opcode::Reg => {
                            if let Some(sig) = sig_of(data.args[0]) {
                                drivers[sig].push(id);
                            }
                        }
                        Opcode::Del => {
                            if let Some(src) = sig_of(data.args[0]) {
                                watchers[src].push(id);
                            }
                            if let Some(result) = unit.get_inst_result(inst) {
                                if let Some(dst) = sig_of(result) {
                                    drivers[dst].push(id);
                                }
                            }
                        }
                        Opcode::Prb => {
                            if let Some(sig) = sig_of(data.args[0]) {
                                watchers[sig].push(id);
                            }
                        }
                        Opcode::Wait | Opcode::WaitTime => {
                            let signal_args = if data.opcode == Opcode::WaitTime {
                                &data.args[1..]
                            } else {
                                &data.args[..]
                            };
                            for &arg in signal_args {
                                if let Some(sig) = sig_of(arg) {
                                    watchers[sig].push(id);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        for list in drivers.iter_mut().chain(watchers.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        DesignQuery {
            canon,
            drivers,
            watchers,
            hierarchy,
        }
    }

    /// The flattened hierarchy, in elaboration order (children of an
    /// entity precede the entity itself).
    pub fn hierarchy(&self) -> &[HierarchyNode] {
        &self.hierarchy
    }

    /// The instances that drive `signal` (through any `con` alias).
    pub fn drivers_of(&self, signal: SignalId) -> &[InstanceId] {
        &self.drivers[self.canon[signal.0]]
    }

    /// The instances whose execution observes `signal` (through any `con`
    /// alias): probes, wait sensitivity lists, and `del` sources.
    pub fn watchers_of(&self, signal: SignalId) -> &[InstanceId] {
        &self.watchers[self.canon[signal.0]]
    }

    /// The canonical representative of `signal` (identity for unaliased
    /// signals), as cached at build time.
    pub fn canonical(&self, signal: SignalId) -> SignalId {
        SignalId(self.canon[signal.0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::elaborate;
    use llhd::assembly::parse_module;

    const ACC: &str = r#"
        entity @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
            %clkp = prb i1$ %clk
            %dp = prb i32$ %d
            reg i32$ %q, %dp rise %clkp
        }
        entity @acc_comb (i32$ %q, i32$ %x) -> (i32$ %d) {
            %qp = prb i32$ %q
            %xp = prb i32$ %x
            %sum = add i32 %qp, %xp
            %delay = const time 0s
            drv i32$ %d, %sum after %delay
        }
        entity @acc (i1$ %clk, i32$ %x) -> (i32$ %q) {
            %zero = const i32 0
            %d = sig i32 %zero
            inst @acc_ff (%clk, %d) -> (%q)
            inst @acc_comb (%q, %x) -> (%d)
        }
        proc @acc_tb (i32$ %q) -> (i1$ %clk, i32$ %x) {
        entry:
            %one = const i1 1
            %t = const time 1ns
            drv i1$ %clk, %one after %t
            wait %entry, %q
        }
        entity @top () -> () {
            %zero0 = const i1 0
            %zero1 = const i32 0
            %clk = sig i1 %zero0
            %x = sig i32 %zero1
            %q = sig i32 %zero1
            inst @acc (%clk, %x) -> (%q)
            inst @acc_tb (%q) -> (%clk, %x)
        }
    "#;

    fn names(design: &ElaboratedDesign, ids: &[InstanceId]) -> Vec<String> {
        ids.iter()
            .map(|&i| design.instances[i.0].name.clone())
            .collect()
    }

    #[test]
    fn hierarchy_lists_every_instance_with_depth() {
        let module = parse_module(ACC).unwrap();
        let design = elaborate(&module, "top").unwrap();
        let query = DesignQuery::build(&module, &design);
        assert_eq!(query.hierarchy().len(), design.num_instances());
        let top = query
            .hierarchy()
            .iter()
            .find(|n| n.path == "top")
            .expect("top instance");
        assert_eq!(top.depth, 0);
        assert_eq!(top.kind, InstanceKind::Entity);
        let ff = query
            .hierarchy()
            .iter()
            .find(|n| n.path.ends_with("acc_ff"))
            .expect("ff instance");
        assert_eq!(ff.depth, 2);
        assert_eq!(ff.unit, "@acc_ff");
    }

    #[test]
    fn drivers_and_watchers_follow_the_ops() {
        let module = parse_module(ACC).unwrap();
        let design = elaborate(&module, "top").unwrap();
        let query = DesignQuery::build(&module, &design);

        // q is driven by the reg in acc_ff, watched by acc_comb's probe
        // and the testbench's wait.
        let q = design.signal_by_name("top.q").unwrap();
        assert_eq!(names(&design, query.drivers_of(q)), vec!["top.acc.acc_ff"]);
        let q_watchers = names(&design, query.watchers_of(q));
        assert!(q_watchers.contains(&"top.acc.acc_comb".to_string()));
        assert!(q_watchers.contains(&"top.acc_tb".to_string()));

        // clk is driven by the testbench only.
        let clk = design.signal_by_name("top.clk").unwrap();
        assert_eq!(names(&design, query.drivers_of(clk)), vec!["top.acc_tb"]);
        assert!(names(&design, query.watchers_of(clk)).contains(&"top.acc.acc_ff".to_string()));

        // The internal d net: driven by the comb cloud, watched by the ff.
        let d = design.signal_by_name("top.acc.d").unwrap();
        assert_eq!(
            names(&design, query.drivers_of(d)),
            vec!["top.acc.acc_comb"]
        );
        assert_eq!(names(&design, query.watchers_of(d)), vec!["top.acc.acc_ff"]);
    }

    #[test]
    fn queries_resolve_connected_aliases() {
        let module = parse_module(
            r#"
            proc @driver () -> (i8$ %out) {
            entry:
                %v = const i8 7
                %t = const time 1ns
                drv i8$ %out, %v after %t
                halt
            }
            entity @top () -> () {
                %zero = const i8 0
                %a = sig i8 %zero
                %b = sig i8 %zero
                con i8$ %a, %b
                inst @driver () -> (%a)
            }
            "#,
        )
        .unwrap();
        let design = elaborate(&module, "top").unwrap();
        let query = DesignQuery::build(&module, &design);
        let a = design.signal_by_name("top.a").unwrap();
        let b = design.signal_by_name("top.b").unwrap();
        assert_eq!(query.canonical(a), query.canonical(b));
        // Asking either alias reports the same driver.
        assert_eq!(query.drivers_of(a), query.drivers_of(b));
        assert_eq!(names(&design, query.drivers_of(b)), vec!["top.driver"]);
    }

    #[test]
    fn del_is_a_driver_of_its_result_and_watcher_of_its_source() {
        let module = parse_module(
            r#"
            entity @top (i1$ %in) -> () {
                %t = const time 1ns
                %d = del i1$ %in, %t
            }
            "#,
        )
        .unwrap();
        let design = elaborate(&module, "top").unwrap();
        let query = DesignQuery::build(&module, &design);
        let input = design.signal_by_name("top.in").unwrap();
        let delayed = design.signal_by_name("top.d").unwrap();
        assert_eq!(names(&design, query.watchers_of(input)), vec!["top"]);
        assert_eq!(names(&design, query.drivers_of(delayed)), vec!["top"]);
    }
}
