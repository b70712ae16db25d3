//! Bitcode decoding.

use super::{read_varint, MAGIC, VERSION};
use crate::ir::{
    Block, InstData, Module, Opcode, RegMode, RegTrigger, Signature, UnitData, UnitKind, UnitName,
    Value,
};
use crate::ty::{self, Type};
use crate::value::ConstValue;
use std::fmt;

/// An error produced while decoding bitcode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// A description of the problem.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        write!(f, "bitcode decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

fn err(message: impl Into<String>) -> DecodeError {
    DecodeError {
        message: message.into(),
    }
}

/// Decode a module from its binary bitcode representation.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the input is truncated, has an unknown
/// version, or contains malformed records.
pub fn decode_module(bytes: &[u8]) -> Result<Module, DecodeError> {
    let mut d = Decoder {
        bytes,
        pos: 0,
        strings: vec![],
        types: vec![],
    };
    d.decode()
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    strings: Vec<String>,
    types: Vec<Type>,
}

impl<'a> Decoder<'a> {
    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| err("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u128, DecodeError> {
        read_varint(self.bytes, &mut self.pos).ok_or_else(|| err("invalid varint"))
    }

    fn varint_usize(&mut self) -> Result<usize, DecodeError> {
        Ok(self.varint()? as usize)
    }

    /// A type width (`iN`/`lN` bits, `nN` states), at most
    /// [`ty::MAX_WIDTH`].
    fn width(&mut self) -> Result<usize, DecodeError> {
        let width = self.varint()?;
        if width > ty::MAX_WIDTH as u128 {
            return Err(err(format!(
                "type width {} exceeds the maximum of {}",
                width,
                ty::MAX_WIDTH
            )));
        }
        Ok(width as usize)
    }

    /// An element count. Every counted element occupies at least one byte
    /// of input, so a count larger than the bytes left is hostile; rejecting
    /// it here keeps `Vec::with_capacity` and the decode loops bounded by
    /// the input length.
    fn count(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        if n > (self.bytes.len() - self.pos) as u128 {
            return Err(err("count exceeds the remaining input"));
        }
        Ok(n as usize)
    }

    fn ty_list(&mut self) -> Result<Vec<Type>, DecodeError> {
        let n = self.count()?;
        let mut tys = Vec::with_capacity(n);
        for _ in 0..n {
            tys.push(self.ty()?);
        }
        Ok(tys)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let idx = self.varint_usize()?;
        self.strings
            .get(idx)
            .cloned()
            .ok_or_else(|| err(format!("string index {} out of range", idx)))
    }

    fn ty(&mut self) -> Result<Type, DecodeError> {
        let idx = self.varint_usize()?;
        self.types
            .get(idx)
            .cloned()
            .ok_or_else(|| err(format!("type index {} out of range", idx)))
    }

    fn decode(&mut self) -> Result<Module, DecodeError> {
        // Header.
        if self.bytes.len() < 5 || &self.bytes[0..4] != MAGIC {
            return Err(err("missing LLHD magic"));
        }
        self.pos = 4;
        let version = self.byte()?;
        if version != VERSION {
            return Err(err(format!("unsupported bitcode version {}", version)));
        }
        // String table.
        let num_strings = self.count()?;
        for _ in 0..num_strings {
            // A byte length is a count too, so `pos + len` cannot overflow.
            let len = self.count()?;
            let end = self.pos + len;
            let s = self
                .bytes
                .get(self.pos..end)
                .ok_or_else(|| err("truncated string table"))?;
            self.strings.push(
                String::from_utf8(s.to_vec()).map_err(|_| err("invalid UTF-8 in string table"))?,
            );
            self.pos = end;
        }
        // Type table.
        let num_types = self.count()?;
        for _ in 0..num_types {
            let ty = self.decode_type()?;
            self.types.push(ty);
        }
        // Units.
        let mut module = Module::new();
        let num_units = self.count()?;
        for _ in 0..num_units {
            let unit = self.decode_unit()?;
            module.add_unit(unit);
        }
        Ok(module)
    }

    fn decode_type(&mut self) -> Result<Type, DecodeError> {
        let tag = self.byte()?;
        Ok(match tag {
            0 => ty::void_ty(),
            1 => ty::time_ty(),
            2 => ty::int_ty(self.width()?),
            3 => ty::enum_ty(self.width()?),
            4 => ty::logic_ty(self.width()?),
            5 => ty::pointer_ty(self.ty()?),
            6 => ty::signal_ty(self.ty()?),
            7 => {
                let len = self.varint_usize()?;
                ty::array_ty(len, self.ty()?)
            }
            8 => ty::struct_ty(self.ty_list()?),
            9 => {
                let args = self.ty_list()?;
                let ret = self.ty()?;
                ty::func_ty(args, ret)
            }
            10 => {
                let ins = self.ty_list()?;
                let outs = self.ty_list()?;
                ty::entity_ty(ins, outs)
            }
            other => return Err(err(format!("unknown type tag {}", other))),
        })
    }

    fn decode_name(&mut self) -> Result<UnitName, DecodeError> {
        let tag = self.byte()?;
        Ok(match tag {
            0 => UnitName::Global(self.string()?),
            1 => UnitName::Local(self.string()?),
            2 => UnitName::Anonymous(self.varint()? as u32),
            other => return Err(err(format!("unknown name tag {}", other))),
        })
    }

    fn decode_sig(&mut self, kind: UnitKind) -> Result<Signature, DecodeError> {
        let inputs = self.ty_list()?;
        let outputs = self.ty_list()?;
        let ret = self.ty()?;
        Ok(match kind {
            UnitKind::Function => Signature::new_func(inputs, ret),
            _ => Signature::new_entity(inputs, outputs),
        })
    }

    fn decode_const(&mut self) -> Result<ConstValue, DecodeError> {
        // One codec for constants everywhere: the module format and the
        // engine checkpoint format share `decode_const_value`.
        super::decode_const_value(self.bytes, &mut self.pos)
    }

    fn decode_unit(&mut self) -> Result<UnitData, DecodeError> {
        let kind = match self.byte()? {
            0 => UnitKind::Function,
            1 => UnitKind::Process,
            2 => UnitKind::Entity,
            other => return Err(err(format!("unknown unit kind {}", other))),
        };
        let name = self.decode_name()?;
        let sig = self.decode_sig(kind)?;
        let mut unit = UnitData::new(kind, name, sig);

        // External units.
        let num_ext = self.count()?;
        for _ in 0..num_ext {
            let name = self.decode_name()?;
            // External unit signatures always carry inputs/outputs/return; we
            // reconstruct as a function signature if there are no outputs and
            // a non-void return type.
            let inputs = self.ty_list()?;
            let outputs = self.ty_list()?;
            let ret = self.ty()?;
            let sig = if outputs.is_empty()
                && (!ret.is_void() || inputs.iter().all(|t| !t.is_signal()))
            {
                Signature::new_func(inputs, ret)
            } else {
                Signature::new_entity(inputs, outputs)
            };
            unit.add_ext_unit(name, sig);
        }

        // Blocks. The first block of an entity already exists (its body).
        let num_blocks = self.count()?;
        let mut blocks: Vec<Block> = Vec::with_capacity(num_blocks);
        for i in 0..num_blocks {
            let has_name = self.byte()? == 1;
            let name = if has_name { Some(self.string()?) } else { None };
            let block = if kind == UnitKind::Entity && i == 0 {
                unit.entry_block().unwrap()
            } else {
                unit.create_block(None)
            };
            if let Some(name) = name {
                unit.set_block_name(block, name);
            }
            blocks.push(block);
        }

        // Argument name hints.
        let num_args = self.varint_usize()?;
        if num_args != unit.sig().num_args() {
            return Err(err("argument count disagrees with the signature"));
        }
        let mut values: Vec<Value> = Vec::new();
        for i in 0..num_args {
            let arg = unit.arg_value(i);
            if self.byte()? == 1 {
                let name = self.string()?;
                unit.set_value_name(arg, name);
            }
            values.push(arg);
        }

        // Instructions.
        let num_insts = self.count()?;
        for _ in 0..num_insts {
            let opcode_idx = self.byte()? as usize;
            let opcode = *Opcode::ALL
                .get(opcode_idx)
                .ok_or_else(|| err("unknown opcode"))?;
            let block_idx = self.varint_usize()?;
            let block = *blocks
                .get(block_idx)
                .ok_or_else(|| err("block index out of range"))?;
            let num_args = self.count()?;
            let mut args = Vec::with_capacity(num_args);
            for _ in 0..num_args {
                let idx = self.varint_usize()?;
                args.push(
                    *values
                        .get(idx)
                        .ok_or_else(|| err("value index out of range"))?,
                );
            }
            let num_blocks = self.count()?;
            let mut inst_blocks = Vec::with_capacity(num_blocks);
            for _ in 0..num_blocks {
                let idx = self.varint_usize()?;
                inst_blocks.push(
                    *blocks
                        .get(idx)
                        .ok_or_else(|| err("block index out of range"))?,
                );
            }
            let num_imms = self.count()?;
            let mut imms = Vec::with_capacity(num_imms);
            for _ in 0..num_imms {
                imms.push(self.varint_usize()?);
            }
            let flags = self.byte()?;
            let konst = if flags & 1 != 0 {
                Some(self.decode_const()?)
            } else {
                None
            };
            let ext_unit = if flags & 2 != 0 {
                Some(crate::ir::ExtUnit::from_index(self.varint_usize()?))
            } else {
                None
            };
            let num_inputs = self.varint_usize()?;
            let num_triggers = self.count()?;
            let mut triggers = Vec::with_capacity(num_triggers);
            for _ in 0..num_triggers {
                let value_idx = self.varint_usize()?;
                let mode = match self.byte()? {
                    0 => RegMode::Low,
                    1 => RegMode::High,
                    2 => RegMode::Rise,
                    3 => RegMode::Fall,
                    4 => RegMode::Both,
                    other => return Err(err(format!("unknown reg mode {}", other))),
                };
                let trigger_idx = self.varint_usize()?;
                let gate = if self.byte()? == 1 {
                    Some(
                        *values
                            .get(self.varint_usize()?)
                            .ok_or_else(|| err("gate value out of range"))?,
                    )
                } else {
                    None
                };
                triggers.push(RegTrigger {
                    value: *values
                        .get(value_idx)
                        .ok_or_else(|| err("trigger value out of range"))?,
                    mode,
                    trigger: *values
                        .get(trigger_idx)
                        .ok_or_else(|| err("trigger out of range"))?,
                    gate,
                });
            }
            let has_result = flags & 4 != 0;
            let (result_ty, result_name) = if has_result {
                let ty = self.ty()?;
                let name = if self.byte()? == 1 {
                    Some(self.string()?)
                } else {
                    None
                };
                (Some(ty), name)
            } else {
                (None, None)
            };

            let mut data = InstData::new(opcode, args);
            data.blocks = inst_blocks;
            data.imms = imms;
            data.konst = konst;
            data.ext_unit = ext_unit;
            data.num_inputs = num_inputs;
            data.triggers = triggers;
            let inst = unit.append_inst(block, data, result_ty);
            if let Some(result) = unit.get_inst_result(inst) {
                values.push(result);
                if let Some(name) = result_name {
                    unit.set_value_name(result, name);
                }
            }
        }
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{parse_module, write_module};
    use crate::bitcode::encode_module;
    use crate::verifier::verify_module;

    fn roundtrip(src: &str) -> (Module, Module, Vec<u8>) {
        let module = parse_module(src).unwrap();
        let bytes = encode_module(&module);
        let decoded = decode_module(&bytes).unwrap();
        (module, decoded, bytes)
    }

    #[test]
    fn roundtrip_function() {
        let src = r#"
        func @check (i32 %i, i32 %q) void {
        entry:
            %one = const i32 1
            %ip1 = add i32 %i, %one
            %ixip1 = umul i32 %i, %ip1
            %two = const i32 2
            %qexp = udiv i32 %ixip1, %two
            %eq = eq i32 %qexp, %q
            call void @llhd.assert (%eq)
            ret
        }
        "#;
        let (module, decoded, bytes) = roundtrip(src);
        assert!(bytes.len() > 8);
        assert_eq!(write_module(&module), write_module(&decoded));
        assert!(verify_module(&decoded).is_ok());
    }

    #[test]
    fn roundtrip_process_and_entity() {
        let src = r#"
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
        entity @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q) {
            %zero = const i32 0
            %d = sig i32 %zero
            %clkp = prb i1$ %clk
            %dp = prb i32$ %d
            reg i32$ %q, %dp rise %clkp
            inst @acc_ff (%clk, %d) -> (%q)
        }
        "#;
        let (module, decoded, _) = roundtrip(src);
        assert_eq!(write_module(&module), write_module(&decoded));
        assert!(verify_module(&decoded).is_ok());
    }

    #[test]
    fn bitcode_is_smaller_than_text() {
        let src = r#"
        proc @p (i32$ %a, i32$ %b) -> (i32$ %q) {
        entry:
            %ap = prb i32$ %a
            %bp = prb i32$ %b
            %sum = add i32 %ap, %bp
            %prod = umul i32 %ap, %bp
            %sel = ugt i32 %sum, %prod
            %delay = const time 1ns
            drv i32$ %q, %sum after %delay if %sel
            drv i32$ %q, %prod after %delay
            wait %entry, %a, %b
        }
        "#;
        let module = parse_module(src).unwrap();
        let text = write_module(&module);
        let bytes = encode_module(&module);
        assert!(
            bytes.len() < text.len(),
            "bitcode ({}) should be smaller than text ({})",
            bytes.len(),
            text.len()
        );
    }

    #[test]
    fn corrupt_input_is_rejected() {
        assert!(decode_module(b"NOPE").is_err());
        assert!(decode_module(b"LLHD\xff").is_err());
        let src = "func @f () void {\nentry:\n ret\n}";
        let module = parse_module(src).unwrap();
        let mut bytes = encode_module(&module);
        bytes.truncate(bytes.len() / 2);
        assert!(decode_module(&bytes).is_err());
    }

    #[test]
    fn type_widths_are_bounded() {
        let src = |width: usize| format!("func @f (i{width} %x) void {{\nentry:\n ret\n}}");
        let narrow = encode_module(&parse_module(&src(8)).unwrap());
        let wider = encode_module(&parse_module(&src(9)).unwrap());
        // The one byte that differs is the width's varint.
        let at = narrow.iter().zip(&wider).position(|(a, b)| a != b).unwrap();
        assert_eq!(narrow.len(), wider.len());
        assert_eq!(narrow[at + 1..], wider[at + 1..]);
        let with_width = |width: u128| {
            let mut bytes = narrow[..at].to_vec();
            crate::bitcode::write_varint(&mut bytes, width);
            bytes.extend_from_slice(&narrow[at + 1..]);
            decode_module(&bytes)
        };
        assert!(with_width(ty::MAX_WIDTH as u128).is_ok());
        for width in [ty::MAX_WIDTH as u128 + 1, 4_000_000_000, u128::MAX] {
            let e = with_width(width).unwrap_err();
            assert!(e.to_string().contains("exceeds the maximum"), "{}", e);
        }
    }

    #[test]
    fn logic_and_enum_constants_roundtrip() {
        let src = r#"
        func @f () void {
        entry:
            %l = const l9 "10XZWLH-U"
            %n = const n12 7
            %t = const time 3ns 2d 1e
            ret
        }
        "#;
        let (module, decoded, _) = roundtrip(src);
        assert_eq!(write_module(&module), write_module(&decoded));
    }
}
