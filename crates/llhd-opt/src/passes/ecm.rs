//! Early Code Motion (ECM, §4.2).
//!
//! Eagerly hoists instructions into predecessor blocks as far up the control
//! flow graph as their operands allow. This subsumes loop-invariant code
//! motion and prepares the control flow elimination: after ECM, all
//! constants sit in the entry block and arithmetic sits at the earliest
//! point where its operands are available.
//!
//! Probes (`prb`) require special care: they sample the *current* value of a
//! signal and must therefore never move across a `wait`, i.e. never leave
//! their temporal region.

use llhd::analysis::{ControlFlowGraph, DominatorTree, TemporalRegionGraph};
use llhd::ir::{Opcode, UnitData, UnitKind, ValueDef};

/// Run early code motion on a unit. Returns `true` if anything changed.
pub fn run(unit: &mut UnitData) -> bool {
    if unit.kind() == UnitKind::Entity {
        // Entities are a single data flow graph; there is nothing to hoist.
        return false;
    }
    let mut changed = false;
    loop {
        let cfg = ControlFlowGraph::new(unit);
        let domtree = DominatorTree::new(unit, &cfg);
        let trg = TemporalRegionGraph::new(unit, &cfg);
        let mut local = false;

        for &block in domtree.reverse_post_order() {
            let Some(idom) = domtree.idom(block) else {
                continue;
            };
            if idom == block {
                continue;
            }
            let mut ii = 0;
            while let Some(&inst) = unit.insts_slice(block).get(ii) {
                ii += 1;
                let data = unit.inst_data(inst);
                let opcode = data.opcode;
                let hoistable = opcode.is_pure() || opcode == Opcode::Prb;
                if !hoistable || opcode == Opcode::Phi {
                    continue;
                }
                // Probes may not leave their temporal region.
                if opcode == Opcode::Prb && trg.region(idom) != trg.region(block) {
                    continue;
                }
                // Every operand must be defined in a block that (strictly)
                // dominates the target, or be a unit argument.
                let movable = data.args.iter().all(|&arg| match unit.value_def(arg) {
                    ValueDef::Arg(_) => true,
                    ValueDef::Inst(def_inst) => match unit.inst_block(def_inst) {
                        Some(def_block) => def_block != block && domtree.dominates(def_block, idom),
                        None => false,
                    },
                    ValueDef::Invalid => false,
                });
                if !movable {
                    continue;
                }
                unit.move_inst_before_terminator(inst, idom);
                ii -= 1;
                local = true;
            }
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
    use llhd::ir::Module;

    fn apply(src: &str) -> Module {
        let mut module = parse_module(src).unwrap();
        for id in module.units() {
            run(module.unit_mut(id));
        }
        module
    }

    #[test]
    fn constants_move_to_the_entry_block() {
        let module = apply(
            r#"
            proc @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
            entry:
                %qp = prb i32$ %q
                %enp = prb i1$ %en
                br %enp, %final, %enabled
            enabled:
                %xp = prb i32$ %x
                %delay2 = const time 2ns
                %sum = add i32 %qp, %xp
                drv i32$ %d, %sum after %delay2
                br %final
            final:
                %delay = const time 2ns
                drv i32$ %d, %qp after %delay
                wait %entry, %q, %x, %en
            }
            "#,
        );
        let unit = module.unit(module.units()[0]);
        let entry = unit.entry_block().unwrap();
        let entry_ops: Vec<_> = unit
            .insts(entry)
            .iter()
            .map(|&i| unit.inst_data(i).opcode)
            .collect();
        // Both constants, the probe of %x, and the add moved into the entry
        // block.
        assert_eq!(entry_ops.iter().filter(|&&o| o == Opcode::Const).count(), 2);
        assert!(entry_ops.contains(&Opcode::Add));
        assert_eq!(entry_ops.iter().filter(|&&o| o == Opcode::Prb).count(), 3);
    }

    #[test]
    fn probes_do_not_cross_waits() {
        let module = apply(
            r#"
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
            "#,
        );
        let unit = module.unit(module.units()[0]);
        let blocks = unit.blocks();
        let init = blocks[0];
        let check = blocks[1];
        // %clk1 must stay in `check` (it samples the clock *after* the wait),
        // and %dp may move up to `check` but not into `init`.
        let init_probes = unit
            .insts(init)
            .iter()
            .filter(|&&i| unit.inst_data(i).opcode == Opcode::Prb)
            .count();
        assert_eq!(init_probes, 1, "only the pre-wait probe may be in init");
        let check_probes = unit
            .insts(check)
            .iter()
            .filter(|&&i| unit.inst_data(i).opcode == Opcode::Prb)
            .count();
        assert_eq!(check_probes, 2, "clk1 and dp probes belong to check");
        // The constant is free to move all the way up to init.
        let init_consts = unit
            .insts(init)
            .iter()
            .filter(|&&i| unit.inst_data(i).opcode == Opcode::Const)
            .count();
        assert_eq!(init_consts, 1);
    }

    #[test]
    fn drives_are_never_hoisted() {
        let module = apply(
            r#"
            proc @p (i1$ %en) -> (i1$ %q) {
            entry:
                %enp = prb i1$ %en
                br %enp, %done, %doit
            doit:
                %one = const i1 1
                %delay = const time 1ns
                drv i1$ %q, %one after %delay
                br %done
            done:
                wait %entry, %en
            }
            "#,
        );
        let unit = module.unit(module.units()[0]);
        let doit = unit
            .blocks()
            .into_iter()
            .find(|&b| unit.block_name(b) == Some("doit"))
            .unwrap();
        assert!(unit
            .insts(doit)
            .iter()
            .any(|&i| unit.inst_data(i).opcode == Opcode::Drv));
    }

    #[test]
    fn entities_are_untouched() {
        let mut module = parse_module(
            r#"
            entity @e (i8$ %a) -> (i8$ %q) {
                %ap = prb i8$ %a
                %one = const i8 1
                %sum = add i8 %ap, %one
                %delay = const time 0s
                drv i8$ %q, %sum after %delay
            }
            "#,
        )
        .unwrap();
        let id = module.units()[0];
        assert!(!run(module.unit_mut(id)));
    }
}
