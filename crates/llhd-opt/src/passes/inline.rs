//! Function call inlining (§4.1).
//!
//! The structural lowering requires all function calls inside processes to
//! be inlined so that the remaining code is a pure data flow computation.
//! This pass inlines calls to functions whose body is a single basic block —
//! the form produced for helper functions by HDL frontends. Calls to
//! multi-block functions are left in place and cause the lowering to reject
//! the process, mirroring the paper's "where this is not possible, the
//! process is rejected".

use llhd::ir::{InstData, Module, Opcode, UnitData, UnitId, UnitKind, Value};

/// Inline eligible calls in all processes and functions of a module.
/// Returns the number of call sites inlined.
pub fn run(module: &mut Module) -> usize {
    let mut inlined = 0;
    let unit_ids = module.units();
    for &id in &unit_ids {
        if module.unit(id).kind() == UnitKind::Entity {
            continue;
        }
        while let Some((call_inst, callee_id)) = find_inlinable_call(module, id) {
            let callee = module.unit(callee_id).clone();
            inline_call(module.unit_mut(id), call_inst, &callee);
            inlined += 1;
        }
    }
    inlined
}

/// Find a call instruction in `caller` whose callee is a single-block
/// function defined in the module.
fn find_inlinable_call(module: &Module, caller: UnitId) -> Option<(llhd::ir::Inst, UnitId)> {
    let unit = module.unit(caller);
    let insts = unit
        .blocks_slice()
        .iter()
        .flat_map(|&bb| unit.insts_slice(bb));
    for &inst in insts {
        let data = unit.inst_data(inst);
        if data.opcode != Opcode::Call {
            continue;
        }
        let ext = data.ext_unit?;
        let name = &unit.ext_unit_data(ext).name;
        let Some(callee_id) = module.unit_by_name(name) else {
            continue;
        };
        if callee_id == caller {
            continue;
        }
        let callee = module.unit(callee_id);
        if callee.kind() != UnitKind::Function || callee.blocks_slice().len() != 1 {
            continue;
        }
        return Some((inst, callee_id));
    }
    None
}

/// Splice the single-block `callee` into `caller` at `call_inst`.
fn inline_call(caller: &mut UnitData, call_inst: llhd::ir::Inst, callee: &UnitData) {
    // The caller value of each callee value, indexed by the callee's slot.
    let mut value_map: Vec<Option<Value>> = vec![None; callee.num_value_slots()];
    for (arg, &actual) in callee
        .args()
        .into_iter()
        .zip(&caller.inst_data(call_inst).args)
    {
        value_map[arg.index()] = Some(actual);
    }
    let map = |value_map: &[Option<Value>], v: Value| {
        value_map[v.index()].expect("a callee value is mapped before its use")
    };
    let callee_block = callee.entry_block().unwrap();
    let mut return_value: Option<Value> = None;
    for &inst in callee.insts_slice(callee_block) {
        let data = callee.inst_data(inst);
        match data.opcode {
            Opcode::Ret => break,
            Opcode::RetValue => {
                return_value = Some(map(&value_map, data.args[0]));
                break;
            }
            _ => {}
        }
        let mut new_data = InstData::new(data.opcode, vec![]);
        new_data.args = data.args.iter().map(|&a| map(&value_map, a)).collect();
        new_data.imms = data.imms.clone();
        new_data.konst = data.konst.clone();
        new_data.num_inputs = data.num_inputs;
        if let Some(ext) = data.ext_unit {
            let ext_data = callee.ext_unit_data(ext).clone();
            new_data.ext_unit = Some(caller.add_ext_unit(ext_data.name, ext_data.sig));
        }
        let result_ty = callee.get_inst_result(inst).map(|r| callee.value_type(r));
        let new_inst = caller.insert_inst_before(call_inst, new_data, result_ty);
        if let (Some(old), Some(new)) = (
            callee.get_inst_result(inst),
            caller.get_inst_result(new_inst),
        ) {
            value_map[old.index()] = Some(new);
        }
    }
    if let (Some(result), Some(replacement)) = (caller.get_inst_result(call_inst), return_value) {
        caller.replace_value_uses(result, replacement);
    }
    caller.remove_inst(call_inst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd::assembly::parse_module;

    #[test]
    fn inlines_single_block_function_into_process() {
        let mut module = parse_module(
            r#"
            func @double (i32 %x) i32 {
            entry:
                %two = const i32 2
                %r = umul i32 %x, %two
                ret i32 %r
            }
            proc @p (i32$ %a) -> (i32$ %q) {
            entry:
                %ap = prb i32$ %a
                %d = call i32 @double (%ap)
                %delay = const time 1ns
                drv i32$ %q, %d after %delay
                wait %entry, %a
            }
            "#,
        )
        .unwrap();
        assert_eq!(run(&mut module), 1);
        let proc_id = module.unit_by_ident("p").unwrap();
        let unit = module.unit(proc_id);
        assert!(llhd::verifier::verify_unit(unit).is_ok());
        assert!(!unit
            .all_insts()
            .iter()
            .any(|&i| unit.inst_data(i).opcode == Opcode::Call));
        assert!(unit
            .all_insts()
            .iter()
            .any(|&i| unit.inst_data(i).opcode == Opcode::Umul));
    }

    #[test]
    fn external_and_multi_block_calls_remain() {
        let mut module = parse_module(
            r#"
            func @helper (i1 %c, i32 %a) i32 {
            entry:
                br %c, %no, %yes
            yes:
                ret i32 %a
            no:
                %zero = const i32 0
                ret i32 %zero
            }
            func @caller (i1 %c, i32 %a) i32 {
            entry:
                %r = call i32 @helper (%c, %a)
                %e = call i32 @extern_fn (%r)
                ret i32 %e
            }
            "#,
        )
        .unwrap();
        assert_eq!(run(&mut module), 0);
        let caller = module.unit(module.unit_by_ident("caller").unwrap());
        let calls = caller
            .all_insts()
            .iter()
            .filter(|&&i| caller.inst_data(i).opcode == Opcode::Call)
            .count();
        assert_eq!(calls, 2);
    }

    #[test]
    fn nested_inlining_terminates() {
        let mut module = parse_module(
            r#"
            func @inc (i32 %x) i32 {
            entry:
                %one = const i32 1
                %r = add i32 %x, %one
                ret i32 %r
            }
            func @inc2 (i32 %x) i32 {
            entry:
                %a = call i32 @inc (%x)
                %b = call i32 @inc (%a)
                ret i32 %b
            }
            "#,
        )
        .unwrap();
        assert_eq!(run(&mut module), 2);
        let unit = module.unit(module.unit_by_ident("inc2").unwrap());
        let adds = unit
            .all_insts()
            .iter()
            .filter(|&&i| unit.inst_data(i).opcode == Opcode::Add)
            .count();
        assert_eq!(adds, 2);
    }
}
