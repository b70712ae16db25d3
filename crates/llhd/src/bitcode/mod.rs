//! The binary on-disk representation of LLHD ("bitcode").
//!
//! The paper estimates the size of a prospective bitcode format (Table 4);
//! this module implements one. The format uses variable-length integers, a
//! module-wide interned string table, an interned type table, and a compact
//! per-instruction encoding, and round-trips losslessly through
//! [`encode_module`] and [`decode_module`].

mod reader;
mod writer;

pub use reader::{decode_module, DecodeError};
pub use writer::encode_module;

use crate::value::{ApInt, ConstValue, LogicBit, LogicVector, TimeValue};

/// The magic bytes at the start of every LLHD bitcode file.
pub const MAGIC: &[u8; 4] = b"LLHD";
/// The format version emitted by [`encode_module`].
pub const VERSION: u8 = 1;

/// Append a variable-length unsigned integer (LEB128).
pub fn write_varint(out: &mut Vec<u8>, mut value: u128) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Read a variable-length unsigned integer (LEB128).
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u128> {
    let mut value: u128 = 0;
    let mut shift = 0;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        value |= ((byte & 0x7f) as u128) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 127 {
            return None;
        }
    }
    Some(value)
}

/// Append one [`ConstValue`] in the bitcode constant encoding — the same
/// byte layout [`encode_module`] uses for constants, exposed so other
/// crates (the simulation engines' checkpoint format) serialize values
/// without reinventing a codec. Round-trips through
/// [`decode_const_value`].
pub fn encode_const_value(out: &mut Vec<u8>, value: &ConstValue) {
    match value {
        ConstValue::Void => out.push(0),
        ConstValue::Time(t) => {
            out.push(1);
            write_varint(out, t.as_femtos());
            write_varint(out, t.delta() as u128);
            write_varint(out, t.epsilon() as u128);
        }
        ConstValue::Int(v) => {
            out.push(2);
            write_varint(out, v.width() as u128);
            write_varint(out, v.limbs().len() as u128);
            for &limb in v.limbs() {
                write_varint(out, limb as u128);
            }
        }
        ConstValue::Enum { states, value } => {
            out.push(3);
            write_varint(out, *states as u128);
            write_varint(out, *value as u128);
        }
        ConstValue::Logic(v) => {
            out.push(4);
            write_varint(out, v.width() as u128);
            for bit in v.bits() {
                out.push(bit.index() as u8);
            }
        }
        ConstValue::Array(elems) => {
            out.push(5);
            write_varint(out, elems.len() as u128);
            for e in elems {
                encode_const_value(out, e);
            }
        }
        ConstValue::Struct(fields) => {
            out.push(6);
            write_varint(out, fields.len() as u128);
            for f in fields {
                encode_const_value(out, f);
            }
        }
    }
}

/// Decode one [`ConstValue`] previously written by [`encode_const_value`],
/// advancing `pos` past it.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated input, an unknown tag, or an
/// integer record whose limb count does not fit its width.
pub fn decode_const_value(bytes: &[u8], pos: &mut usize) -> Result<ConstValue, DecodeError> {
    fn fail(message: &str) -> DecodeError {
        DecodeError {
            message: message.to_string(),
        }
    }
    fn byte(bytes: &[u8], pos: &mut usize) -> Result<u8, DecodeError> {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| fail("unexpected end of input"))?;
        *pos += 1;
        Ok(b)
    }
    fn varint(bytes: &[u8], pos: &mut usize) -> Result<u128, DecodeError> {
        read_varint(bytes, pos).ok_or_else(|| fail("invalid varint"))
    }
    let tag = byte(bytes, pos)?;
    Ok(match tag {
        0 => ConstValue::Void,
        1 => {
            let femtos = varint(bytes, pos)?;
            let delta = varint(bytes, pos)? as u32;
            let epsilon = varint(bytes, pos)? as u32;
            ConstValue::Time(TimeValue::new(femtos, delta, epsilon))
        }
        2 => {
            let width = varint(bytes, pos)? as usize;
            let n = varint(bytes, pos)? as usize;
            // The writer emits exactly `ceil(width / 64)` limbs; anything
            // else is hostile (zero width panics in `ApInt`, a huge width
            // with few limbs makes it allocate the difference).
            if width == 0 || n != width.div_ceil(64) {
                return Err(fail("integer constant width and limb count disagree"));
            }
            let mut limbs = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                limbs.push(varint(bytes, pos)? as u64);
            }
            ConstValue::Int(ApInt::from_limbs(width, limbs))
        }
        3 => {
            let states = varint(bytes, pos)? as usize;
            let value = varint(bytes, pos)? as usize;
            ConstValue::Enum { states, value }
        }
        4 => {
            let width = varint(bytes, pos)? as usize;
            let mut bits = Vec::with_capacity(width.min(4096));
            for _ in 0..width {
                let idx = byte(bytes, pos)? as usize;
                bits.push(
                    *LogicBit::ALL
                        .get(idx)
                        .ok_or_else(|| fail("invalid logic digit"))?,
                );
            }
            ConstValue::Logic(LogicVector::from_bits(bits))
        }
        5 => {
            let n = varint(bytes, pos)? as usize;
            let mut elems = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                elems.push(decode_const_value(bytes, pos)?);
            }
            ConstValue::Array(elems)
        }
        6 => {
            let n = varint(bytes, pos)? as usize;
            let mut fields = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                fields.push(decode_const_value(bytes, pos)?);
            }
            ConstValue::Struct(fields)
        }
        other => return Err(fail(&format!("unknown constant tag {}", other))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u128, 1, 127, 128, 300, 65535, u64::MAX as u128, u128::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 5);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_varint(&mut buf, 300);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn integer_constants_roundtrip_across_limb_boundaries() {
        for width in [1usize, 63, 64, 65, 128, 129] {
            let value = ConstValue::Int(ApInt::all_ones(width));
            let mut buf = Vec::new();
            encode_const_value(&mut buf, &value);
            let mut pos = 0;
            assert_eq!(decode_const_value(&buf, &mut pos).unwrap(), value);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn hostile_integer_records_are_decode_errors() {
        // Width 0 (panicked in `ApInt::from_limb_vec`).
        let mut pos = 0;
        assert!(decode_const_value(&[2, 0, 0], &mut pos).is_err());
        // Width 2^42 with zero limbs (made `limbs.resize` request 512 GiB).
        let mut record = vec![2];
        write_varint(&mut record, 1 << 42);
        record.push(0);
        assert_eq!(record.len(), 9);
        let mut pos = 0;
        assert!(decode_const_value(&record, &mut pos).is_err());
    }

    #[test]
    fn truncated_varint_fails() {
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None);
    }
}
