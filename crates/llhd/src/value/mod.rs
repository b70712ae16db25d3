//! Constant values.
//!
//! A [`ConstValue`] is the runtime/compile-time representation of any LLHD
//! value: integers, enumerations, nine-valued logic, time, arrays, and
//! structs. Constant values are used by `const` instructions, by the constant
//! folder, and as the signal/variable state of the simulators.

mod apint;
mod logic;
mod time;

pub use apint::ApInt;
pub use logic::{LogicBit, LogicVector};
pub use time::{parse_time, TimeValue, FEMTOS_PER_SECOND};

use crate::ty::{self, Type, TypeKind};
use std::fmt;

/// A constant LLHD value of any type.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ConstValue {
    /// The void value.
    Void,
    /// A point in time or delay.
    Time(TimeValue),
    /// An `iN` integer.
    Int(ApInt),
    /// An `nN` enumeration value: `value` out of `states`.
    Enum { states: usize, value: usize },
    /// An `lN` nine-valued logic vector.
    Logic(LogicVector),
    /// An array of homogeneous elements.
    Array(Vec<ConstValue>),
    /// A struct of heterogeneous fields.
    Struct(Vec<ConstValue>),
}

impl ConstValue {
    /// Create an integer constant from a `u64`.
    pub fn int(width: usize, value: u64) -> Self {
        ConstValue::Int(ApInt::from_u64(width, value))
    }

    /// Create an integer constant from an `i64` (sign-extended).
    pub fn int_signed(width: usize, value: i64) -> Self {
        ConstValue::Int(ApInt::from_i64(width, value))
    }

    /// Create a single-bit boolean constant (`i1`).
    pub fn bool(value: bool) -> Self {
        ConstValue::int(1, value as u64)
    }

    /// Create a time constant.
    pub fn time(value: TimeValue) -> Self {
        ConstValue::Time(value)
    }

    /// Create the canonical "zero" value for the given type: integer 0,
    /// logic all-`U`, zero time, enum state 0, element-wise zero for
    /// aggregates.
    ///
    /// # Panics
    ///
    /// Panics for `void`, function, and entity types which have no values.
    pub fn zero_of(ty: &Type) -> Self {
        match ty.kind() {
            TypeKind::Void => ConstValue::Void,
            TypeKind::Time => ConstValue::Time(TimeValue::ZERO),
            TypeKind::Int(w) => ConstValue::Int(ApInt::zero(*w)),
            TypeKind::Enum(n) => ConstValue::Enum {
                states: *n,
                value: 0,
            },
            TypeKind::Logic(w) => ConstValue::Logic(LogicVector::uninitialized(*w)),
            TypeKind::Array(len, inner) => {
                ConstValue::Array(vec![ConstValue::zero_of(inner); *len])
            }
            TypeKind::Struct(fields) => {
                ConstValue::Struct(fields.iter().map(ConstValue::zero_of).collect())
            }
            TypeKind::Signal(inner) | TypeKind::Pointer(inner) => ConstValue::zero_of(inner),
            TypeKind::Func(..) | TypeKind::Entity(..) => {
                panic!("type {} has no zero value", ty)
            }
        }
    }

    /// The type of this constant.
    pub fn ty(&self) -> Type {
        match self {
            ConstValue::Void => ty::void_ty(),
            ConstValue::Time(_) => ty::time_ty(),
            ConstValue::Int(v) => ty::int_ty(v.width()),
            ConstValue::Enum { states, .. } => ty::enum_ty(*states),
            ConstValue::Logic(v) => ty::logic_ty(v.width()),
            ConstValue::Array(elems) => {
                let inner = elems
                    .first()
                    .map(|e| e.ty())
                    .unwrap_or_else(ty::void_ty);
                ty::array_ty(elems.len(), inner)
            }
            ConstValue::Struct(fields) => {
                ty::struct_ty(fields.iter().map(|f| f.ty()).collect())
            }
        }
    }

    /// Interpret the value as a boolean, if it is a defined single-bit value.
    pub fn to_bool(&self) -> Option<bool> {
        match self {
            ConstValue::Int(v) if v.width() == 1 => Some(!v.is_zero()),
            ConstValue::Logic(v) if v.width() == 1 => v.bit(0).to_bool(),
            _ => None,
        }
    }

    /// Whether the value is "truthy": any defined non-zero integer/logic.
    pub fn is_truthy(&self) -> bool {
        match self {
            ConstValue::Int(v) => !v.is_zero(),
            ConstValue::Logic(v) => !v.to_apint_lossy().is_zero(),
            ConstValue::Enum { value, .. } => *value != 0,
            _ => false,
        }
    }

    /// Whether this is a value of type `ty`: same variant, widths, lengths
    /// and enum state count, recursively. Signal, pointer, function and
    /// entity types have no constant values, so nothing matches them.
    pub fn has_type(&self, ty: &Type) -> bool {
        match (self, ty.kind()) {
            (ConstValue::Void, TypeKind::Void) | (ConstValue::Time(_), TypeKind::Time) => true,
            (ConstValue::Int(v), TypeKind::Int(w)) => v.width() == *w,
            (ConstValue::Logic(v), TypeKind::Logic(w)) => v.width() == *w,
            (ConstValue::Enum { states, .. }, TypeKind::Enum(n)) => states == n,
            (ConstValue::Array(elems), TypeKind::Array(len, inner)) => {
                elems.len() == *len && elems.iter().all(|e| e.has_type(inner))
            }
            (ConstValue::Struct(fields), TypeKind::Struct(types)) => {
                fields.len() == types.len() && fields.iter().zip(types).all(|(f, t)| f.has_type(t))
            }
            _ => false,
        }
    }

    /// Get the integer payload, if this is an integer constant.
    pub fn as_int(&self) -> Option<&ApInt> {
        match self {
            ConstValue::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Get the time payload, if this is a time constant.
    pub fn as_time(&self) -> Option<&TimeValue> {
        match self {
            ConstValue::Time(t) => Some(t),
            _ => None,
        }
    }

    /// Get the logic payload, if this is a logic constant.
    pub fn as_logic(&self) -> Option<&LogicVector> {
        match self {
            ConstValue::Logic(v) => Some(v),
            _ => None,
        }
    }

    /// Get the array elements, if this is an array constant.
    pub fn as_array(&self) -> Option<&[ConstValue]> {
        match self {
            ConstValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Get the struct fields, if this is a struct constant.
    pub fn as_struct(&self) -> Option<&[ConstValue]> {
        match self {
            ConstValue::Struct(v) => Some(v),
            _ => None,
        }
    }

    /// The low 64 bits of an integer or enum constant.
    pub fn to_u64(&self) -> Option<u64> {
        match self {
            ConstValue::Int(v) => Some(v.to_u64()),
            ConstValue::Enum { value, .. } => Some(*value as u64),
            ConstValue::Logic(v) => v.to_apint().map(|a| a.to_u64()),
            _ => None,
        }
    }

    /// An estimate of the in-memory footprint of this constant in bytes, for
    /// the Table 4 size accounting.
    pub fn memory_size(&self) -> usize {
        let inner = match self {
            ConstValue::Int(v) => v.limbs().len() * 8,
            ConstValue::Logic(v) => v.width(),
            ConstValue::Array(elems) => elems.iter().map(|e| e.memory_size()).sum(),
            ConstValue::Struct(fields) => fields.iter().map(|f| f.memory_size()).sum(),
            _ => 0,
        };
        std::mem::size_of::<ConstValue>() + inner
    }

    /// Extract the element/field at `index` from an aggregate, or the bit at
    /// `index` from an integer.
    pub fn extract_field(&self, index: usize) -> Option<ConstValue> {
        match self {
            ConstValue::Array(elems) => elems.get(index).cloned(),
            ConstValue::Struct(fields) => fields.get(index).cloned(),
            ConstValue::Int(v) if index < v.width() => {
                Some(ConstValue::Int(v.extract_slice(index, 1)))
            }
            _ => None,
        }
    }

    /// Replace the element/field at `index` of an aggregate.
    pub fn insert_field(&self, index: usize, value: ConstValue) -> Option<ConstValue> {
        match self {
            ConstValue::Array(elems) if index < elems.len() => {
                let mut e = elems.clone();
                e[index] = value;
                Some(ConstValue::Array(e))
            }
            ConstValue::Struct(fields) if index < fields.len() => {
                let mut f = fields.clone();
                f[index] = value;
                Some(ConstValue::Struct(f))
            }
            ConstValue::Int(v) if index < v.width() => {
                let bit = value.as_int()?;
                Some(ConstValue::Int(v.insert_slice(index, bit)))
            }
            _ => None,
        }
    }

    /// Extract a slice `[offset, offset+length)` of an array or integer.
    pub fn extract_slice(&self, offset: usize, length: usize) -> Option<ConstValue> {
        match self {
            ConstValue::Array(elems) if offset + length <= elems.len() => {
                Some(ConstValue::Array(elems[offset..offset + length].to_vec()))
            }
            ConstValue::Int(v) if offset + length <= v.width() => {
                Some(ConstValue::Int(v.extract_slice(offset, length)))
            }
            _ => None,
        }
    }

    /// Insert a slice of an array or integer at `offset`.
    pub fn insert_slice(&self, offset: usize, value: &ConstValue) -> Option<ConstValue> {
        match (self, value) {
            (ConstValue::Array(elems), ConstValue::Array(new)) => {
                if offset + new.len() > elems.len() {
                    return None;
                }
                let mut e = elems.clone();
                e[offset..offset + new.len()].clone_from_slice(new);
                Some(ConstValue::Array(e))
            }
            (ConstValue::Int(v), ConstValue::Int(new)) => {
                if offset + new.width() > v.width() {
                    return None;
                }
                Some(ConstValue::Int(v.insert_slice(offset, new)))
            }
            _ => None,
        }
    }
}

impl fmt::Display for ConstValue {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match self {
            ConstValue::Void => write!(f, "void"),
            ConstValue::Time(t) => write!(f, "{}", t),
            ConstValue::Int(v) => write!(f, "{}", v.to_string_unsigned()),
            ConstValue::Enum { value, .. } => write!(f, "{}", value),
            ConstValue::Logic(v) => write!(f, "\"{}\"", v),
            ConstValue::Array(elems) => {
                write!(f, "[")?;
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", e)?;
                }
                write!(f, "]")
            }
            ConstValue::Struct(fields) => {
                write!(f, "{{")?;
                for (i, e) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", e)?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::*;

    #[test]
    fn zero_values() {
        assert_eq!(ConstValue::zero_of(&int_ty(8)), ConstValue::int(8, 0));
        assert_eq!(ConstValue::zero_of(&time_ty()), ConstValue::Time(TimeValue::ZERO));
        assert_eq!(
            ConstValue::zero_of(&enum_ty(4)),
            ConstValue::Enum { states: 4, value: 0 }
        );
        assert_eq!(
            ConstValue::zero_of(&array_ty(2, int_ty(4))),
            ConstValue::Array(vec![ConstValue::int(4, 0), ConstValue::int(4, 0)])
        );
        assert_eq!(
            ConstValue::zero_of(&signal_ty(int_ty(8))),
            ConstValue::int(8, 0)
        );
        let l = ConstValue::zero_of(&logic_ty(3));
        assert_eq!(l, ConstValue::Logic(LogicVector::uninitialized(3)));
    }

    #[test]
    fn value_types() {
        assert_eq!(ConstValue::int(32, 7).ty(), int_ty(32));
        assert_eq!(ConstValue::bool(true).ty(), int_ty(1));
        assert_eq!(ConstValue::Time(TimeValue::ZERO).ty(), time_ty());
        assert_eq!(
            ConstValue::Struct(vec![ConstValue::int(1, 0), ConstValue::int(2, 0)]).ty(),
            struct_ty(vec![int_ty(1), int_ty(2)])
        );
        assert_eq!(
            ConstValue::Array(vec![ConstValue::int(4, 0); 3]).ty(),
            array_ty(3, int_ty(4))
        );
    }

    #[test]
    fn booleans_and_truthiness() {
        assert_eq!(ConstValue::bool(true).to_bool(), Some(true));
        assert_eq!(ConstValue::bool(false).to_bool(), Some(false));
        assert_eq!(ConstValue::int(8, 1).to_bool(), None);
        assert!(ConstValue::int(8, 3).is_truthy());
        assert!(!ConstValue::int(8, 0).is_truthy());
        let x = ConstValue::Logic(LogicVector::from_str("X").unwrap());
        assert_eq!(x.to_bool(), None);
    }

    #[test]
    fn field_and_slice_access() {
        let arr = ConstValue::Array(vec![
            ConstValue::int(8, 10),
            ConstValue::int(8, 20),
            ConstValue::int(8, 30),
        ]);
        assert_eq!(arr.extract_field(1), Some(ConstValue::int(8, 20)));
        assert_eq!(arr.extract_field(5), None);
        let arr2 = arr.insert_field(2, ConstValue::int(8, 99)).unwrap();
        assert_eq!(arr2.extract_field(2), Some(ConstValue::int(8, 99)));
        assert_eq!(
            arr.extract_slice(1, 2),
            Some(ConstValue::Array(vec![
                ConstValue::int(8, 20),
                ConstValue::int(8, 30)
            ]))
        );
        let int = ConstValue::int(16, 0xabcd);
        assert_eq!(int.extract_slice(4, 8), Some(ConstValue::int(8, 0xbc)));
        assert_eq!(
            int.insert_slice(0, &ConstValue::int(4, 0xf)),
            Some(ConstValue::int(16, 0xabcf))
        );
        let s = ConstValue::Struct(vec![ConstValue::bool(true), ConstValue::int(8, 5)]);
        assert_eq!(s.extract_field(0), Some(ConstValue::bool(true)));
    }

    #[test]
    fn display() {
        assert_eq!(ConstValue::int(8, 42).to_string(), "42");
        assert_eq!(ConstValue::Time(TimeValue::from_nanos(2)).to_string(), "2ns");
        assert_eq!(
            ConstValue::Array(vec![ConstValue::int(4, 1), ConstValue::int(4, 2)]).to_string(),
            "[1, 2]"
        );
        assert_eq!(
            ConstValue::Struct(vec![ConstValue::int(4, 1)]).to_string(),
            "{1}"
        );
    }

    #[test]
    fn memory_size_scales() {
        let small = ConstValue::int(8, 1);
        let big = ConstValue::Array(vec![ConstValue::int(8, 1); 16]);
        assert!(big.memory_size() > small.memory_size());
    }
}
