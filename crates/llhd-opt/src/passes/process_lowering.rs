//! Process Lowering (PL, §4.5).
//!
//! A process that consists of a single basic block terminated by a `wait`
//! which is sensitive to every signal the process probes behaves exactly
//! like an entity: its body re-executes whenever one of its inputs changes.
//! This pass performs that conversion, producing an entity with the same
//! name and signature.

use llhd::ir::{InstData, Opcode, UnitData, UnitKind, Value};

/// Try to lower a process to an entity. Returns the replacement entity, or
/// `None` if the process does not have the required shape.
pub fn lower_process(unit: &UnitData) -> Option<UnitData> {
    if unit.kind() != UnitKind::Process {
        return None;
    }
    // Shape check: exactly one block, terminated by a plain wait.
    let &[block] = unit.blocks_slice() else {
        return None;
    };
    let term = unit.terminator(block)?;
    let term_data = unit.inst_data(term);
    if term_data.opcode != Opcode::Wait {
        return None;
    }
    if term_data.blocks[0] != block {
        return None;
    }
    // The wait must be sensitive to every probed signal.
    let observed = &term_data.args;
    for &inst in unit.insts_slice(block) {
        let data = unit.inst_data(inst);
        match data.opcode {
            Opcode::Prb if !observed.contains(&data.args[0]) => {
                return None;
            }
            // Anything outside the entity data flow subset disqualifies the
            // process.
            Opcode::Wait => {}
            op if !op.allowed_in(UnitKind::Entity) => return None,
            _ => {}
        }
    }

    // Build the replacement entity.
    let mut entity = UnitData::new(UnitKind::Entity, unit.name().clone(), unit.sig().clone());
    let body = entity.entry_block().unwrap();
    // The entity value of each process value, indexed by the process slot.
    let mut value_map: Vec<Option<Value>> = vec![None; unit.num_value_slots()];
    let map = |value_map: &[Option<Value>], v: Value| {
        value_map[v.index()].expect("a process value is mapped before its use")
    };
    for (old, new) in unit.args().into_iter().zip(entity.args()) {
        value_map[old.index()] = Some(new);
        if let Some(name) = unit.value_name(old) {
            entity.set_value_name(new, name.to_string());
        }
    }
    for &inst in unit.insts_slice(block) {
        let data = unit.inst_data(inst);
        if data.opcode == Opcode::Wait {
            continue;
        }
        let mut new_data = InstData::new(data.opcode, vec![]);
        new_data.args = data.args.iter().map(|&a| map(&value_map, a)).collect();
        new_data.imms = data.imms.clone();
        new_data.konst = data.konst.clone();
        new_data.num_inputs = data.num_inputs;
        new_data.triggers = data
            .triggers
            .iter()
            .map(|t| llhd::ir::RegTrigger {
                value: map(&value_map, t.value),
                mode: t.mode,
                trigger: map(&value_map, t.trigger),
                gate: t.gate.map(|g| map(&value_map, g)),
            })
            .collect();
        if let Some(ext) = data.ext_unit {
            let ext_data = unit.ext_unit_data(ext).clone();
            new_data.ext_unit = Some(entity.add_ext_unit(ext_data.name, ext_data.sig));
        }
        let result_ty = unit.get_inst_result(inst).map(|r| unit.value_type(r));
        let new_inst = entity.append_inst(body, new_data, result_ty);
        if let (Some(old_result), Some(new_result)) =
            (unit.get_inst_result(inst), entity.get_inst_result(new_inst))
        {
            value_map[old_result.index()] = Some(new_result);
            if let Some(name) = unit.value_name(old_result) {
                entity.set_value_name(new_result, name.to_string());
            }
        }
    }
    Some(entity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;
    use llhd::verifier::{unit_dialect, verify_unit, Dialect};

    #[test]
    fn combinational_process_becomes_entity() {
        let module = parse_module(
            r#"
            proc @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
            entry:
                %qp = prb i32$ %q
                %xp = prb i32$ %x
                %enp = prb i1$ %en
                %sum = add i32 %qp, %xp
                %delay = const time 2ns
                %dns = array [%qp, %sum]
                %dn = mux [2 x i32] %dns, %enp
                drv i32$ %d, %dn after %delay
                wait %entry, %q, %x, %en
            }
            "#,
        )
        .unwrap();
        let unit = module.unit(module.units()[0]);
        let entity = lower_process(unit).expect("process should lower");
        assert_eq!(entity.kind(), UnitKind::Entity);
        assert_eq!(entity.name(), unit.name());
        assert_eq!(entity.sig(), unit.sig());
        assert!(verify_unit(&entity).is_ok());
        assert_eq!(unit_dialect(&entity), Dialect::Structural);
        // Same instruction mix minus the wait.
        assert_eq!(entity.all_insts().len(), unit.all_insts().len() - 1);
    }

    #[test]
    fn wait_missing_sensitivity_rejects() {
        let module = parse_module(
            r#"
            proc @p (i8$ %a, i8$ %b) -> (i8$ %q) {
            entry:
                %ap = prb i8$ %a
                %bp = prb i8$ %b
                %sum = add i8 %ap, %bp
                %delay = const time 1ns
                drv i8$ %q, %sum after %delay
                wait %entry, %a
            }
            "#,
        )
        .unwrap();
        let unit = module.unit(module.units()[0]);
        assert!(lower_process(unit).is_none());
    }

    #[test]
    fn multi_block_process_rejects() {
        let module = parse_module(
            r#"
            proc @p (i1$ %clk) -> (i1$ %q) {
            a:
                %c = prb i1$ %clk
                wait %b, %clk
            b:
                %one = const i1 1
                %delay = const time 1ns
                drv i1$ %q, %one after %delay
                br %a
            }
            "#,
        )
        .unwrap();
        let unit = module.unit(module.units()[0]);
        assert!(lower_process(unit).is_none());
    }

    #[test]
    fn timed_wait_rejects() {
        let module = parse_module(
            r#"
            proc @clock () -> (i1$ %clk) {
            entry:
                %cp = prb i1$ %clk
                %n = not i1 %cp
                %delay = const time 5ns
                drv i1$ %clk, %n after %delay
                wait %entry for %delay
            }
            "#,
        )
        .unwrap();
        let unit = module.unit(module.units()[0]);
        assert!(lower_process(unit).is_none());
    }
}
