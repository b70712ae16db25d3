//! Emission of the human-readable LLHD assembly.

use crate::ir::{Block, Inst, Module, Opcode, UnitData, UnitKind, Value};
use crate::value::ConstValue;
use std::fmt::Write;

/// Write a whole module as LLHD assembly.
pub fn write_module(module: &Module) -> String {
    let mut out = String::new();
    for (i, id) in module.units().into_iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&write_unit(module.unit(id)));
    }
    out
}

/// Write a single unit as LLHD assembly.
pub fn write_unit(unit: &UnitData) -> String {
    let mut w = Writer::new(unit);
    w.write();
    w.out
}

struct Writer<'a> {
    unit: &'a UnitData,
    out: String,
}

impl<'a> Writer<'a> {
    fn new(unit: &'a UnitData) -> Self {
        Writer {
            unit,
            out: String::new(),
        }
    }

    fn value_name(&self, value: Value) -> String {
        match self.unit.value_name(value) {
            Some(name) => format!("%{}", name),
            None => format!("%v{}", value.index()),
        }
    }

    fn block_name(&self, block: Block) -> String {
        match self.unit.block_name(block) {
            Some(name) => format!("%{}", name),
            None => format!("%bb{}", block.index()),
        }
    }

    fn block_label(&self, block: Block) -> String {
        match self.unit.block_name(block) {
            Some(name) => name.to_string(),
            None => format!("bb{}", block.index()),
        }
    }

    fn write(&mut self) {
        let unit = self.unit;
        let kind = unit.kind();
        write!(self.out, "{} {} (", kind.keyword(), unit.name()).unwrap();
        let inputs = unit.input_args();
        for (i, &arg) in inputs.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            write!(
                self.out,
                "{} {}",
                unit.value_type(arg),
                self.value_name(arg)
            )
            .unwrap();
        }
        self.out.push(')');
        match kind {
            UnitKind::Function => {
                write!(self.out, " {}", unit.sig().return_type()).unwrap();
            }
            UnitKind::Process | UnitKind::Entity => {
                self.out.push_str(" -> (");
                let outputs = unit.output_args();
                for (i, &arg) in outputs.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    write!(
                        self.out,
                        "{} {}",
                        unit.value_type(arg),
                        self.value_name(arg)
                    )
                    .unwrap();
                }
                self.out.push(')');
            }
        }
        self.out.push_str(" {\n");
        for block in unit.blocks() {
            if kind.is_control_flow() {
                writeln!(self.out, "{}:", self.block_label(block)).unwrap();
            }
            for inst in unit.insts(block) {
                self.out.push_str("    ");
                self.write_inst(inst);
                self.out.push('\n');
            }
        }
        self.out.push_str("}\n");
    }

    fn write_inst(&mut self, inst: Inst) {
        let unit = self.unit;
        let data = unit.inst_data(inst).clone();
        if let Some(result) = unit.get_inst_result(inst) {
            write!(self.out, "{} = ", self.value_name(result)).unwrap();
        }
        let op = data.opcode;
        let arg_ty = |i: usize| unit.value_type(data.args[i]).to_string();
        match op {
            Opcode::Const => {
                let konst = data.konst.as_ref().unwrap();
                match konst {
                    ConstValue::Time(t) => write!(self.out, "const time {}", t).unwrap(),
                    ConstValue::Int(v) => {
                        write!(self.out, "const i{} {}", v.width(), v.to_string_unsigned()).unwrap()
                    }
                    ConstValue::Logic(v) => {
                        write!(self.out, "const l{} \"{}\"", v.width(), v).unwrap()
                    }
                    ConstValue::Enum { states, value } => {
                        write!(self.out, "const n{} {}", states, value).unwrap()
                    }
                    other => write!(self.out, "const {} {}", other.ty(), other).unwrap(),
                }
            }
            Opcode::Array => {
                write!(self.out, "array [").unwrap();
                self.write_arg_list(&data.args);
                self.out.push(']');
            }
            Opcode::Struct => {
                write!(self.out, "strct {{").unwrap();
                self.write_arg_list(&data.args);
                self.out.push('}');
            }
            Opcode::Phi => {
                write!(self.out, "phi {} ", arg_ty(0)).unwrap();
                for (i, (&v, &b)) in data.args.iter().zip(data.blocks.iter()).enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    write!(self.out, "[{}, {}]", self.value_name(v), self.block_name(b)).unwrap();
                }
            }
            Opcode::Br => {
                write!(self.out, "br {}", self.block_name(data.blocks[0])).unwrap();
            }
            Opcode::BrCond => {
                write!(
                    self.out,
                    "br {}, {}, {}",
                    self.value_name(data.args[0]),
                    self.block_name(data.blocks[0]),
                    self.block_name(data.blocks[1])
                )
                .unwrap();
            }
            Opcode::Wait => {
                write!(self.out, "wait {}", self.block_name(data.blocks[0])).unwrap();
                if !data.args.is_empty() {
                    self.out.push_str(", ");
                    self.write_arg_list(&data.args);
                }
            }
            Opcode::WaitTime => {
                write!(
                    self.out,
                    "wait {} for {}",
                    self.block_name(data.blocks[0]),
                    self.value_name(data.args[0])
                )
                .unwrap();
                if data.args.len() > 1 {
                    self.out.push_str(", ");
                    self.write_arg_list(&data.args[1..]);
                }
            }
            Opcode::Halt => self.out.push_str("halt"),
            Opcode::Ret => self.out.push_str("ret"),
            Opcode::RetValue => {
                write!(
                    self.out,
                    "ret {} {}",
                    arg_ty(0),
                    self.value_name(data.args[0])
                )
                .unwrap();
            }
            Opcode::Drv => {
                write!(
                    self.out,
                    "drv {} {}, {} after {}",
                    arg_ty(0),
                    self.value_name(data.args[0]),
                    self.value_name(data.args[1]),
                    self.value_name(data.args[2])
                )
                .unwrap();
            }
            Opcode::DrvCond => {
                write!(
                    self.out,
                    "drv {} {}, {} after {} if {}",
                    arg_ty(0),
                    self.value_name(data.args[0]),
                    self.value_name(data.args[1]),
                    self.value_name(data.args[2]),
                    self.value_name(data.args[3])
                )
                .unwrap();
            }
            Opcode::Reg => {
                write!(
                    self.out,
                    "reg {} {}",
                    arg_ty(0),
                    self.value_name(data.args[0])
                )
                .unwrap();
                for trigger in &data.triggers {
                    write!(
                        self.out,
                        ", {} {} {}",
                        self.value_name(trigger.value),
                        trigger.mode,
                        self.value_name(trigger.trigger)
                    )
                    .unwrap();
                    if let Some(gate) = trigger.gate {
                        write!(self.out, " if {}", self.value_name(gate)).unwrap();
                    }
                }
            }
            Opcode::Call => {
                let ext = data.ext_unit.unwrap();
                let ext_data = unit.ext_unit_data(ext);
                write!(
                    self.out,
                    "call {} {} (",
                    ext_data.sig.return_type(),
                    ext_data.name
                )
                .unwrap();
                self.write_arg_list(&data.args);
                self.out.push(')');
            }
            Opcode::Inst => {
                let ext = data.ext_unit.unwrap();
                let ext_data = unit.ext_unit_data(ext);
                write!(self.out, "inst {} (", ext_data.name).unwrap();
                self.write_arg_list(&data.args[..data.num_inputs]);
                self.out.push_str(") -> (");
                self.write_arg_list(&data.args[data.num_inputs..]);
                self.out.push(')');
            }
            Opcode::ExtField => {
                write!(
                    self.out,
                    "extf {} {}, {}",
                    arg_ty(0),
                    self.value_name(data.args[0]),
                    data.imms[0]
                )
                .unwrap();
            }
            Opcode::ExtSlice => {
                write!(
                    self.out,
                    "exts {} {}, {}, {}",
                    arg_ty(0),
                    self.value_name(data.args[0]),
                    data.imms[0],
                    data.imms[1]
                )
                .unwrap();
            }
            Opcode::InsField => {
                write!(
                    self.out,
                    "insf {} {}, {}, {}",
                    arg_ty(0),
                    self.value_name(data.args[0]),
                    self.value_name(data.args[1]),
                    data.imms[0]
                )
                .unwrap();
            }
            Opcode::InsSlice => {
                write!(
                    self.out,
                    "inss {} {}, {}, {}, {}",
                    arg_ty(0),
                    self.value_name(data.args[0]),
                    self.value_name(data.args[1]),
                    data.imms[0],
                    data.imms[1]
                )
                .unwrap();
            }
            Opcode::Zext | Opcode::Sext | Opcode::Trunc => {
                write!(
                    self.out,
                    "{} i{} {}",
                    op.mnemonic(),
                    data.imms[0],
                    self.value_name(data.args[0])
                )
                .unwrap();
            }
            _ => {
                // Generic form: mnemonic, type of first operand, operand list.
                write!(self.out, "{}", op.mnemonic()).unwrap();
                if !data.args.is_empty() {
                    write!(self.out, " {} ", arg_ty(0)).unwrap();
                    self.write_arg_list(&data.args);
                }
            }
        }
    }

    fn write_arg_list(&mut self, args: &[Value]) {
        let names: Vec<String> = args.iter().map(|&a| self.value_name(a)).collect();
        self.out.push_str(&names.join(", "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{RegMode, RegTrigger, Signature, UnitBuilder, UnitName};
    use crate::ty::*;
    use crate::value::TimeValue;

    #[test]
    fn write_simple_function() {
        let mut unit = UnitData::new(
            UnitKind::Function,
            UnitName::global("check"),
            Signature::new_func(vec![int_ty(32), int_ty(32)], void_ty()),
        );
        let a = unit.arg_value(0);
        let b = unit.arg_value(1);
        unit.set_value_name(a, "i");
        unit.set_value_name(b, "q");
        let mut builder = UnitBuilder::new(&mut unit);
        let entry = builder.block("entry");
        builder.append_to(entry);
        let one = builder.const_int(32, 1);
        let sum = builder.add(a, one);
        let eq = builder.eq(sum, b);
        builder.unit_mut().set_value_name(eq, "matches");
        builder.ret();
        let text = write_unit(&unit);
        assert!(text.contains("func @check (i32 %i, i32 %q) void {"));
        assert!(text.contains("entry:"));
        assert!(text.contains("const i32 1"));
        assert!(text.contains("add i32 %i,"));
        assert!(text.contains("%matches = eq i32"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn write_process_with_waits_and_drives() {
        let mut unit = UnitData::new(
            UnitKind::Process,
            UnitName::global("stim"),
            Signature::new_entity(vec![signal_ty(int_ty(1))], vec![signal_ty(int_ty(32))]),
        );
        let clk = unit.arg_value(0);
        let q = unit.arg_value(1);
        unit.set_value_name(clk, "clk");
        unit.set_value_name(q, "q");
        let mut builder = UnitBuilder::new(&mut unit);
        let entry = builder.block("entry");
        builder.append_to(entry);
        let delay = builder.const_time(TimeValue::from_nanos(2));
        let value = builder.const_int(32, 7);
        builder.drv(q, value, delay);
        builder.wait_time(entry, delay, vec![clk]);
        let text = write_unit(&unit);
        assert!(text.contains("proc @stim (i1$ %clk) -> (i32$ %q) {"));
        assert!(text.contains("const time 2ns"));
        assert!(text.contains("drv i32$ %q,"));
        assert!(text.contains("after"));
        assert!(text.contains("wait %entry for"));
    }

    #[test]
    fn write_entity_with_reg_and_inst() {
        let mut unit = UnitData::new(
            UnitKind::Entity,
            UnitName::global("acc"),
            Signature::new_entity(
                vec![signal_ty(int_ty(1)), signal_ty(int_ty(32))],
                vec![signal_ty(int_ty(32))],
            ),
        );
        for (i, n) in ["clk", "x", "q"].iter().enumerate() {
            let v = unit.arg_value(i);
            unit.set_value_name(v, *n);
        }
        let clk = unit.arg_value(0);
        let x = unit.arg_value(1);
        let q = unit.arg_value(2);
        let mut builder = UnitBuilder::new(&mut unit);
        let clkp = builder.prb(clk);
        let xp = builder.prb(x);
        builder.reg(
            q,
            vec![RegTrigger {
                value: xp,
                mode: RegMode::Rise,
                trigger: clkp,
                gate: None,
            }],
        );
        let ext = builder.ext_unit(
            UnitName::global("sub"),
            Signature::new_entity(vec![signal_ty(int_ty(1))], vec![signal_ty(int_ty(32))]),
        );
        builder.inst(ext, vec![clk], vec![q]);
        let text = write_unit(&unit);
        assert!(text.contains("entity @acc (i1$ %clk, i32$ %x) -> (i32$ %q) {"));
        assert!(text.contains("reg i32$ %q,"));
        assert!(text.contains("rise"));
        assert!(text.contains("inst @sub ("));
        assert!(text.contains(") -> ("));
        // Entities have no block labels.
        assert!(!text.contains("body:"));
    }

    #[test]
    fn write_module_concatenates_units() {
        let mut module = Module::new();
        for name in ["a", "b"] {
            let unit = UnitData::new(
                UnitKind::Entity,
                UnitName::global(name),
                Signature::new_entity(vec![], vec![]),
            );
            module.add_unit(unit);
        }
        let text = write_module(&module);
        assert!(text.contains("entity @a"));
        assert!(text.contains("entity @b"));
    }
}
