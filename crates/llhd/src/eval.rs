//! Operational evaluation of LLHD instructions on constant values.
//!
//! This module is the single source of truth for the semantics of the pure
//! data flow instructions. It is shared by the constant folding pass in
//! `llhd-opt`, by the reference interpreter in `llhd-sim`, and by the
//! compiled simulator `llhd_sim::blaze`, guaranteeing that all three agree
//! on the meaning of every operation.

use crate::ir::Opcode;
use crate::value::{ApInt, ConstValue, LogicVector};
use std::cmp::Ordering;

/// Evaluate a unary operation.
///
/// Returns `None` if the opcode is not a unary data flow operation or the
/// operand type does not support it.
pub fn eval_unary(opcode: Opcode, arg: &ConstValue) -> Option<ConstValue> {
    match (opcode, arg) {
        (Opcode::Alias, v) => Some(v.clone()),
        (Opcode::Not, ConstValue::Int(v)) => Some(ConstValue::Int(v.not())),
        (Opcode::Not, ConstValue::Logic(v)) => Some(ConstValue::Logic(v.not())),
        (Opcode::Neg, ConstValue::Int(v)) => Some(ConstValue::Int(v.neg())),
        _ => None,
    }
}

/// Evaluate a binary operation.
///
/// Returns `None` if the opcode is not a binary data flow operation or the
/// operand types do not support it.
pub fn eval_binary(opcode: Opcode, lhs: &ConstValue, rhs: &ConstValue) -> Option<ConstValue> {
    use Opcode::*;
    match (lhs, rhs) {
        (ConstValue::Int(a), ConstValue::Int(b)) => {
            let int = |v: ApInt| Some(ConstValue::Int(v));
            let boolean = |v: bool| Some(ConstValue::bool(v));
            match opcode {
                Add => int(a.add(b)),
                Sub => int(a.sub(b)),
                And => int(a.and(b)),
                Or => int(a.or(b)),
                Xor => int(a.xor(b)),
                Umul | Smul => int(a.mul(b)),
                Udiv => int(a.udiv(b)),
                Urem | Umod => int(a.urem(b)),
                Sdiv => int(a.sdiv(b)),
                Srem => int(a.srem(b)),
                Smod => int(a.smod(b)),
                Shl => int(a.shl_bits(b.to_u64() as usize)),
                Shr => int(a.lshr_bits(b.to_u64() as usize)),
                Eq => boolean(a == b),
                Neq => boolean(a != b),
                Ult => boolean(a.ucmp(b) == Ordering::Less),
                Ugt => boolean(a.ucmp(b) == Ordering::Greater),
                Ule => boolean(a.ucmp(b) != Ordering::Greater),
                Uge => boolean(a.ucmp(b) != Ordering::Less),
                Slt => boolean(a.scmp(b) == Ordering::Less),
                Sgt => boolean(a.scmp(b) == Ordering::Greater),
                Sle => boolean(a.scmp(b) != Ordering::Greater),
                Sge => boolean(a.scmp(b) != Ordering::Less),
                _ => None,
            }
        }
        (ConstValue::Logic(a), ConstValue::Logic(b)) => {
            let logic = |v: LogicVector| Some(ConstValue::Logic(v));
            match opcode {
                And => logic(a.and(b)),
                Or => logic(a.or(b)),
                Xor => logic(a.xor(b)),
                Eq => Some(ConstValue::bool(a == b)),
                Neq => Some(ConstValue::bool(a != b)),
                // Arithmetic on logic vectors falls back to the binary
                // interpretation when both operands are fully defined.
                _ => {
                    let ai = a.to_apint()?;
                    let bi = b.to_apint()?;
                    match eval_binary(opcode, &ConstValue::Int(ai), &ConstValue::Int(bi))? {
                        ConstValue::Int(v) => logic(LogicVector::from_apint(&v)),
                        other => Some(other),
                    }
                }
            }
        }
        (ConstValue::Enum { states, value: a }, ConstValue::Enum { value: b, .. }) => match opcode
        {
            Eq => Some(ConstValue::bool(a == b)),
            Neq => Some(ConstValue::bool(a != b)),
            Ult => Some(ConstValue::bool(a < b)),
            Ugt => Some(ConstValue::bool(a > b)),
            Ule => Some(ConstValue::bool(a <= b)),
            Uge => Some(ConstValue::bool(a >= b)),
            Add => Some(ConstValue::Enum {
                states: *states,
                value: (a + b) % states.max(&1),
            }),
            _ => None,
        },
        (ConstValue::Time(a), ConstValue::Time(b)) => match opcode {
            Add => Some(ConstValue::Time(*a + *b)),
            Eq => Some(ConstValue::bool(a == b)),
            Neq => Some(ConstValue::bool(a != b)),
            Ult | Slt => Some(ConstValue::bool(a < b)),
            Ugt | Sgt => Some(ConstValue::bool(a > b)),
            Ule | Sle => Some(ConstValue::bool(a <= b)),
            Uge | Sge => Some(ConstValue::bool(a >= b)),
            _ => None,
        },
        (ConstValue::Array(a), ConstValue::Array(b)) => match opcode {
            Eq => Some(ConstValue::bool(a == b)),
            Neq => Some(ConstValue::bool(a != b)),
            _ => None,
        },
        (ConstValue::Struct(a), ConstValue::Struct(b)) => match opcode {
            Eq => Some(ConstValue::bool(a == b)),
            Neq => Some(ConstValue::bool(a != b)),
            _ => None,
        },
        _ => None,
    }
}

/// Evaluate a width-changing cast (`zext`, `sext`, `trunc`).
pub fn eval_cast(opcode: Opcode, arg: &ConstValue, width: usize) -> Option<ConstValue> {
    let v = arg.as_int()?;
    let result = match opcode {
        Opcode::Zext => v.zext(width),
        Opcode::Sext => v.sext(width),
        Opcode::Trunc => v.trunc(width.min(v.width())),
        _ => return None,
    };
    Some(ConstValue::Int(result))
}

/// Evaluate a `mux`: select among the elements of `choices` based on the
/// unsigned value of `selector`. Out-of-range selectors clamp to the last
/// element, matching the behaviour of a hardware multiplexer tree with a
/// saturated select.
pub fn eval_mux(choices: &ConstValue, selector: &ConstValue) -> Option<ConstValue> {
    let elems = choices.as_array()?;
    if elems.is_empty() {
        return None;
    }
    Some(elems[mux_index(selector, elems.len())?].clone())
}

/// The element a `mux` over `len > 0` elements picks for `selector`: the
/// selector's unsigned value, clamped to the last element — also when the
/// value does not fit in a `u64`, whose low limb alone would wrap around.
pub fn mux_index(selector: &ConstValue, len: usize) -> Option<usize> {
    let clamp = |v: &ApInt| if v.fits_u64() { v.to_u64() } else { u64::MAX };
    let index = match selector {
        ConstValue::Int(v) => clamp(v),
        ConstValue::Logic(v) => clamp(&v.to_apint()?),
        _ => selector.to_u64()?,
    };
    Some(usize::try_from(index).unwrap_or(usize::MAX).min(len - 1))
}

/// Evaluate an `extf` field extraction.
pub fn eval_ext_field(value: &ConstValue, index: usize) -> Option<ConstValue> {
    value.extract_field(index)
}

/// Evaluate an `exts` slice extraction.
pub fn eval_ext_slice(value: &ConstValue, offset: usize, length: usize) -> Option<ConstValue> {
    value.extract_slice(offset, length)
}

/// Evaluate an `insf` field insertion.
pub fn eval_ins_field(target: &ConstValue, value: &ConstValue, index: usize) -> Option<ConstValue> {
    target.insert_field(index, value.clone())
}

/// Evaluate an `inss` slice insertion.
pub fn eval_ins_slice(
    target: &ConstValue,
    value: &ConstValue,
    offset: usize,
    _length: usize,
) -> Option<ConstValue> {
    target.insert_slice(offset, value)
}

/// Evaluate any pure instruction given its already-evaluated operands and
/// immediates. This is the entry point used by constant folding and the
/// simulators.
pub fn eval_pure(opcode: Opcode, args: &[ConstValue], imms: &[usize]) -> Option<ConstValue> {
    match opcode {
        Opcode::Alias | Opcode::Not | Opcode::Neg => eval_unary(opcode, args.first()?),
        Opcode::Array => Some(ConstValue::Array(args.to_vec())),
        Opcode::Struct => Some(ConstValue::Struct(args.to_vec())),
        Opcode::Zext | Opcode::Sext | Opcode::Trunc => {
            eval_cast(opcode, args.first()?, *imms.first()?)
        }
        Opcode::Mux => eval_mux(args.first()?, args.get(1)?),
        Opcode::ExtField => eval_ext_field(args.first()?, *imms.first()?),
        Opcode::ExtSlice => eval_ext_slice(args.first()?, *imms.first()?, *imms.get(1)?),
        Opcode::InsField => eval_ins_field(args.first()?, args.get(1)?, *imms.first()?),
        Opcode::InsSlice => {
            eval_ins_slice(args.first()?, args.get(1)?, *imms.first()?, *imms.get(1)?)
        }
        _ if args.len() == 2 => eval_binary(opcode, &args[0], &args[1]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::TimeValue;

    #[test]
    fn unary_eval() {
        let v = ConstValue::int(8, 0b1010_1010);
        assert_eq!(
            eval_unary(Opcode::Not, &v),
            Some(ConstValue::int(8, 0b0101_0101))
        );
        assert_eq!(
            eval_unary(Opcode::Neg, &ConstValue::int(8, 1)),
            Some(ConstValue::int(8, 255))
        );
        assert_eq!(eval_unary(Opcode::Alias, &v), Some(v.clone()));
        assert_eq!(eval_unary(Opcode::Add, &v), None);
    }

    #[test]
    fn integer_binary_eval() {
        let a = ConstValue::int(32, 100);
        let b = ConstValue::int(32, 7);
        assert_eq!(eval_binary(Opcode::Add, &a, &b), Some(ConstValue::int(32, 107)));
        assert_eq!(eval_binary(Opcode::Sub, &a, &b), Some(ConstValue::int(32, 93)));
        assert_eq!(eval_binary(Opcode::Umul, &a, &b), Some(ConstValue::int(32, 700)));
        assert_eq!(eval_binary(Opcode::Udiv, &a, &b), Some(ConstValue::int(32, 14)));
        assert_eq!(eval_binary(Opcode::Urem, &a, &b), Some(ConstValue::int(32, 2)));
        assert_eq!(eval_binary(Opcode::Ult, &a, &b), Some(ConstValue::bool(false)));
        assert_eq!(eval_binary(Opcode::Uge, &a, &b), Some(ConstValue::bool(true)));
        assert_eq!(eval_binary(Opcode::Eq, &a, &a), Some(ConstValue::bool(true)));
        assert_eq!(eval_binary(Opcode::Shl, &a, &ConstValue::int(32, 2)),
            Some(ConstValue::int(32, 400)));
    }

    #[test]
    fn signed_comparisons() {
        let a = ConstValue::int_signed(8, -5);
        let b = ConstValue::int(8, 3);
        assert_eq!(eval_binary(Opcode::Slt, &a, &b), Some(ConstValue::bool(true)));
        assert_eq!(eval_binary(Opcode::Ult, &a, &b), Some(ConstValue::bool(false)));
        assert_eq!(eval_binary(Opcode::Sdiv, &a, &b), Some(ConstValue::int_signed(8, -1)));
    }

    #[test]
    fn logic_binary_eval() {
        let a = ConstValue::Logic(LogicVector::from_str("1100").unwrap());
        let b = ConstValue::Logic(LogicVector::from_str("1010").unwrap());
        assert_eq!(
            eval_binary(Opcode::And, &a, &b),
            Some(ConstValue::Logic(LogicVector::from_str("1000").unwrap()))
        );
        // Fully defined logic vectors support arithmetic via the binary
        // interpretation.
        assert_eq!(
            eval_binary(Opcode::Add, &a, &b),
            Some(ConstValue::Logic(LogicVector::from_str("0110").unwrap()))
        );
        let x = ConstValue::Logic(LogicVector::from_str("1X00").unwrap());
        assert_eq!(eval_binary(Opcode::Add, &a, &x), None);
    }

    #[test]
    fn time_eval() {
        let a = ConstValue::Time(TimeValue::from_nanos(1));
        let b = ConstValue::Time(TimeValue::from_nanos(2));
        assert_eq!(
            eval_binary(Opcode::Add, &a, &b),
            Some(ConstValue::Time(TimeValue::from_nanos(3)))
        );
        assert_eq!(eval_binary(Opcode::Ult, &a, &b), Some(ConstValue::bool(true)));
    }

    #[test]
    fn enum_eval() {
        let a = ConstValue::Enum { states: 4, value: 3 };
        let b = ConstValue::Enum { states: 4, value: 2 };
        assert_eq!(eval_binary(Opcode::Eq, &a, &b), Some(ConstValue::bool(false)));
        assert_eq!(
            eval_binary(Opcode::Add, &a, &b),
            Some(ConstValue::Enum { states: 4, value: 1 })
        );
    }

    #[test]
    fn cast_eval() {
        let v = ConstValue::int(8, 0x80);
        assert_eq!(eval_cast(Opcode::Zext, &v, 16), Some(ConstValue::int(16, 0x80)));
        assert_eq!(eval_cast(Opcode::Sext, &v, 16), Some(ConstValue::int(16, 0xff80)));
        assert_eq!(eval_cast(Opcode::Trunc, &v, 4), Some(ConstValue::int(4, 0)));
    }

    #[test]
    fn mux_eval() {
        let choices = ConstValue::Array(vec![
            ConstValue::int(8, 10),
            ConstValue::int(8, 20),
            ConstValue::int(8, 30),
        ]);
        assert_eq!(
            eval_mux(&choices, &ConstValue::int(2, 1)),
            Some(ConstValue::int(8, 20))
        );
        // Out-of-range selector clamps.
        assert_eq!(
            eval_mux(&choices, &ConstValue::int(8, 200)),
            Some(ConstValue::int(8, 30))
        );
    }

    /// A selector wider than 64 bits clamps on its whole value: 2^64 and
    /// 2^64 + 1 have low limbs 0 and 1, yet both pick the last element.
    #[test]
    fn wide_mux_selector_clamps() {
        let choices = ConstValue::Array(vec![
            ConstValue::int(8, 10),
            ConstValue::int(8, 20),
            ConstValue::int(8, 30),
        ]);
        let two_64 = ApInt::from_u64(80, 1).shl_bits(64);
        for selector in [two_64.clone(), two_64.add(&ApInt::from_u64(80, 1))] {
            let selector = ConstValue::Int(selector);
            assert_eq!(mux_index(&selector, 3), Some(2));
            assert_eq!(eval_mux(&choices, &selector), Some(ConstValue::int(8, 30)));
        }
        assert_eq!(mux_index(&ConstValue::int(80, 1), 3), Some(1));
    }

    #[test]
    fn eval_pure_dispatch() {
        let a = ConstValue::int(16, 0xab);
        let b = ConstValue::int(16, 0x11);
        assert_eq!(
            eval_pure(Opcode::Add, &[a.clone(), b.clone()], &[]),
            Some(ConstValue::int(16, 0xbc))
        );
        assert_eq!(
            eval_pure(Opcode::Array, &[a.clone(), b.clone()], &[]),
            Some(ConstValue::Array(vec![a.clone(), b.clone()]))
        );
        assert_eq!(
            eval_pure(Opcode::ExtSlice, std::slice::from_ref(&a), &[4, 4]),
            Some(ConstValue::int(4, 0xa))
        );
        assert_eq!(
            eval_pure(Opcode::InsField, &[a.clone(), ConstValue::int(1, 1)], &[2]),
            Some(ConstValue::int(16, 0xaf))
        );
        assert_eq!(eval_pure(Opcode::Drv, &[a], &[]), None);
    }
}
