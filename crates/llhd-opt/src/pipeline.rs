//! Pass pipelines (Figure 4 of the paper).
//!
//! [`optimize_unit`] runs the basic cleanup passes to a fixed point.
//! [`lower_to_structural`] performs the full Behavioural → Structural
//! lowering: inlining, cleanup, ECM, TCM, TCFE, then process lowering or
//! desequentialization per process. Processes that cannot be lowered are
//! reported rather than silently dropped, mirroring the paper's "the process
//! is rejected".

use crate::passes;
use llhd::ir::{Module, UnitData, UnitKind};

/// Options controlling the behavioural-to-structural lowering.
#[derive(Clone, Debug)]
pub struct LoweringOptions {
    /// Inline single-block function calls before lowering.
    pub inline_functions: bool,
    /// Upper bound on cleanup iterations per unit.
    pub max_iterations: usize,
}

impl Default for LoweringOptions {
    fn default() -> Self {
        LoweringOptions {
            inline_functions: true,
            max_iterations: 8,
        }
    }
}

/// The outcome of [`lower_to_structural`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoweringReport {
    /// Processes converted to entities by process lowering (combinational).
    pub lowered_processes: usize,
    /// Processes converted to entities by desequentialization (sequential).
    pub desequentialized_processes: usize,
    /// Names of processes that could not be lowered and remain behavioural.
    pub rejected: Vec<String>,
    /// Number of function call sites inlined.
    pub inlined_calls: usize,
}

impl LoweringReport {
    /// Whether every process was successfully lowered.
    pub fn is_fully_structural(&self) -> bool {
        self.rejected.is_empty()
    }
}

/// Run the basic cleanup passes (constant folding, DCE, CSE, instruction
/// simplification, variable promotion) to a fixed point. Returns `true` if
/// anything changed.
pub fn optimize_unit(unit: &mut UnitData) -> bool {
    let mut changed = false;
    for _ in 0..8 {
        let mut local = false;
        local |= passes::const_fold::run(unit);
        local |= passes::simplify::run(unit);
        local |= passes::cse::run(unit);
        local |= passes::mem2reg::run(unit);
        local |= passes::dce::run(unit);
        changed |= local;
        if !local {
            break;
        }
    }
    changed
}

/// Run the cleanup passes on every unit of a module.
pub fn optimize_module(module: &mut Module) -> bool {
    let mut changed = false;
    for id in module.units() {
        changed |= optimize_unit(module.unit_mut(id));
    }
    changed
}

/// Lower all processes of a module from Behavioural to Structural LLHD.
///
/// Each process is cleaned up, subjected to early and temporal code motion
/// and control flow elimination, and finally converted to an entity either
/// by process lowering (combinational) or desequentialization (sequential).
/// Processes that resist conversion are left untouched and recorded in the
/// report.
pub fn lower_to_structural(module: &mut Module, options: &LoweringOptions) -> LoweringReport {
    let mut report = LoweringReport::default();
    if options.inline_functions {
        report.inlined_calls = passes::inline::run(module);
    }
    for id in module.units() {
        if module.unit(id).kind() != UnitKind::Process {
            continue;
        }
        // Work on a copy so a failed lowering leaves the original process
        // untouched.
        let mut work = module.unit(id).clone();
        for _ in 0..options.max_iterations {
            let mut changed = false;
            changed |= optimize_unit(&mut work);
            changed |= passes::ecm::run(&mut work);
            changed |= passes::tcm::run(&mut work);
            changed |= passes::tcfe::run(&mut work);
            if !changed {
                break;
            }
        }
        passes::dce::run(&mut work);

        if let Some(entity) = passes::process_lowering::lower_process(&work) {
            *module.unit_mut(id) = entity;
            report.lowered_processes += 1;
        } else if let Some(entity) = passes::deseq::desequentialize(&work) {
            *module.unit_mut(id) = entity;
            report.desequentialized_processes += 1;
        } else {
            report.rejected.push(module.unit(id).name().to_string());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;
    use llhd::ir::Opcode;
    use llhd::verifier::{module_dialect, verify_module, Dialect};

    /// The Behavioural LLHD of Figure 5 (left column): the raw accumulator
    /// processes as a frontend would emit them.
    const FIGURE5_BEHAVIOURAL: &str = r#"
        proc @acc_ff (i1$ %clk, i32$ %d) -> (i32$ %q) {
        init:
            %clk0 = prb i1$ %clk
            wait %check, %clk
        check:
            %clk1 = prb i1$ %clk
            %chg = neq i1 %clk0, %clk1
            %posedge = and i1 %chg, %clk1
            br %posedge, %init, %event
        event:
            %dp = prb i32$ %d
            %delay = const time 1ns
            drv i32$ %q, %dp after %delay
            br %init
        }

        proc @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
        entry:
            %qp = prb i32$ %q
            %enp = prb i1$ %en
            %delay = const time 2ns
            drv i32$ %d, %qp after %delay
            br %enp, %final, %enabled
        enabled:
            %xp = prb i32$ %x
            %sum = add i32 %qp, %xp
            drv i32$ %d, %sum after %delay
            br %final
        final:
            wait %entry, %q, %x, %en
        }

        entity @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q) {
            %zero = const i32 0
            %d = sig i32 %zero
            inst @acc_ff (%clk, %d) -> (%q)
            inst @acc_comb (%q, %x, %en) -> (%d)
        }
    "#;

    #[test]
    fn figure5_lowers_to_structural() {
        let mut module = parse_module(FIGURE5_BEHAVIOURAL).unwrap();
        assert_eq!(module_dialect(&module), Dialect::Behavioural);
        let report = lower_to_structural(&mut module, &LoweringOptions::default());
        assert!(
            report.is_fully_structural(),
            "rejected: {:?}",
            report.rejected
        );
        assert_eq!(report.lowered_processes, 1, "acc_comb lowers via PL");
        assert_eq!(
            report.desequentialized_processes, 1,
            "acc_ff lowers via Deseq"
        );
        assert!(
            verify_module(&module).is_ok(),
            "{:?}",
            verify_module(&module)
        );
        assert_eq!(module_dialect(&module), Dialect::Structural);

        // The flip-flop became an entity with a rising-edge register.
        let ff = module.unit(module.unit_by_ident("acc_ff").unwrap());
        assert_eq!(ff.kind(), UnitKind::Entity);
        let reg = ff
            .all_insts()
            .into_iter()
            .find(|&i| ff.inst_data(i).opcode == Opcode::Reg)
            .expect("acc_ff should contain a reg");
        assert_eq!(ff.inst_data(reg).triggers[0].mode, llhd::ir::RegMode::Rise);

        // The combinational part became an entity with a mux-selected drive.
        let comb = module.unit(module.unit_by_ident("acc_comb").unwrap());
        assert_eq!(comb.kind(), UnitKind::Entity);
        assert!(comb
            .all_insts()
            .iter()
            .any(|&i| comb.inst_data(i).opcode == Opcode::Mux));
        assert!(comb
            .all_insts()
            .iter()
            .any(|&i| comb.inst_data(i).opcode == Opcode::Drv));
    }

    #[test]
    fn testbench_processes_are_rejected_but_kept() {
        let mut module = parse_module(
            r#"
            proc @stimuli () -> (i1$ %clk) {
            entry:
                %zero = const i1 0
                %one = const i1 1
                %del = const time 5ns
                drv i1$ %clk, %one after %del
                wait %next for %del
            next:
                drv i1$ %clk, %zero after %del
                wait %entry for %del
            }
            "#,
        )
        .unwrap();
        let report = lower_to_structural(&mut module, &LoweringOptions::default());
        assert_eq!(report.lowered_processes, 0);
        assert_eq!(report.desequentialized_processes, 0);
        assert_eq!(report.rejected, vec!["@stimuli".to_string()]);
        // The process is still there, untouched in kind.
        let unit = module.unit(module.units()[0]);
        assert_eq!(unit.kind(), UnitKind::Process);
    }

    #[test]
    fn optimize_module_is_idempotent() {
        let mut module = parse_module(FIGURE5_BEHAVIOURAL).unwrap();
        optimize_module(&mut module);
        let after_first = llhd::assembly::write_module(&module);
        optimize_module(&mut module);
        assert_eq!(after_first, llhd::assembly::write_module(&module));
    }
}
