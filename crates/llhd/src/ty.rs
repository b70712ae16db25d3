//! The LLHD type system.
//!
//! LLHD is strongly typed: every value carries a [`Type`]. Besides the types
//! common to imperative compiler IRs (`void`, `iN`, pointers, arrays,
//! structs), LLHD defines hardware-specific types: `time` for points in
//! physical time, `nN` enumerations, `lN` nine-valued logic (IEEE 1164), and
//! `T$` signals carrying a value of type `T`.
//!
//! Types are cheap to clone: a [`Type`] is a reference-counted handle to an
//! immutable [`TypeKind`].

use std::fmt;
use std::sync::Arc;

/// A handle to an LLHD type.
///
/// Dereferences to [`TypeKind`]. Equality compares structurally.
///
/// # Examples
///
/// ```
/// use llhd::ty::{int_ty, signal_ty};
/// let t = signal_ty(int_ty(32));
/// assert!(t.is_signal());
/// assert_eq!(t.unwrap_signal(), &int_ty(32));
/// assert_eq!(format!("{}", t), "i32$");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Type(Arc<TypeKind>);

/// The different kinds of types in LLHD.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TypeKind {
    /// The `void` type: no value.
    Void,
    /// The `time` type: a point in physical time plus delta/epsilon steps.
    Time,
    /// An `iN` integer type of `N` bits.
    Int(usize),
    /// An `nN` enumeration type with `N` distinct states.
    Enum(usize),
    /// An `lN` nine-valued logic type of `N` digits (IEEE 1164).
    Logic(usize),
    /// A `T*` pointer to memory holding a value of type `T`.
    Pointer(Type),
    /// A `T$` signal carrying a value of type `T`.
    Signal(Type),
    /// An `[N x T]` array of `N` elements of type `T`.
    Array(usize, Type),
    /// A `{T1, T2, ...}` structure.
    Struct(Vec<Type>),
    /// A `(A1, A2, ...) -> R` function type.
    Func(Vec<Type>, Type),
    /// An `(I1, ...) -> (O1, ...)` entity/process signature type.
    Entity(Vec<Type>, Vec<Type>),
}

impl std::ops::Deref for Type {
    type Target = TypeKind;
    fn deref(&self) -> &TypeKind {
        &self.0
    }
}

impl Type {
    /// Create a new type from a [`TypeKind`].
    pub fn new(kind: TypeKind) -> Self {
        Type(Arc::new(kind))
    }

    /// The kind of this type.
    pub fn kind(&self) -> &TypeKind {
        &self.0
    }

    /// Check whether this is the void type.
    pub fn is_void(&self) -> bool {
        matches!(**self, TypeKind::Void)
    }

    /// Check whether this is the time type.
    pub fn is_time(&self) -> bool {
        matches!(**self, TypeKind::Time)
    }

    /// Check whether this is an integer type.
    pub fn is_int(&self) -> bool {
        matches!(**self, TypeKind::Int(_))
    }

    /// Check whether this is an enumeration type.
    pub fn is_enum(&self) -> bool {
        matches!(**self, TypeKind::Enum(_))
    }

    /// Check whether this is a nine-valued logic type.
    pub fn is_logic(&self) -> bool {
        matches!(**self, TypeKind::Logic(_))
    }

    /// Check whether this is a pointer type.
    pub fn is_pointer(&self) -> bool {
        matches!(**self, TypeKind::Pointer(_))
    }

    /// Check whether this is a signal type.
    pub fn is_signal(&self) -> bool {
        matches!(**self, TypeKind::Signal(_))
    }

    /// Check whether this is an array type.
    pub fn is_array(&self) -> bool {
        matches!(**self, TypeKind::Array(..))
    }

    /// Check whether this is a struct type.
    pub fn is_struct(&self) -> bool {
        matches!(**self, TypeKind::Struct(_))
    }

    /// Check whether this is a function type.
    pub fn is_func(&self) -> bool {
        matches!(**self, TypeKind::Func(..))
    }

    /// Check whether this is an entity signature type.
    pub fn is_entity(&self) -> bool {
        matches!(**self, TypeKind::Entity(..))
    }

    /// Get the bit width of an `iN`, `nN`, or `lN` type.
    ///
    /// Returns `None` for any other type.
    pub fn width(&self) -> Option<usize> {
        match **self {
            TypeKind::Int(w) | TypeKind::Enum(w) | TypeKind::Logic(w) => Some(w),
            _ => None,
        }
    }

    /// Get the width of an integer type.
    ///
    /// # Panics
    ///
    /// Panics if the type is not an integer type.
    pub fn unwrap_int(&self) -> usize {
        match **self {
            TypeKind::Int(w) => w,
            _ => panic!("type {} is not an integer", self),
        }
    }

    /// Get the number of states of an enum type.
    ///
    /// # Panics
    ///
    /// Panics if the type is not an enum type.
    pub fn unwrap_enum(&self) -> usize {
        match **self {
            TypeKind::Enum(w) => w,
            _ => panic!("type {} is not an enum", self),
        }
    }

    /// Get the number of digits of a logic type.
    ///
    /// # Panics
    ///
    /// Panics if the type is not a logic type.
    pub fn unwrap_logic(&self) -> usize {
        match **self {
            TypeKind::Logic(w) => w,
            _ => panic!("type {} is not a logic type", self),
        }
    }

    /// Get the element type of a pointer.
    ///
    /// # Panics
    ///
    /// Panics if the type is not a pointer type.
    pub fn unwrap_pointer(&self) -> &Type {
        match **self {
            TypeKind::Pointer(ref t) => t,
            _ => panic!("type {} is not a pointer", self),
        }
    }

    /// Get the element type of a signal.
    ///
    /// # Panics
    ///
    /// Panics if the type is not a signal type.
    pub fn unwrap_signal(&self) -> &Type {
        match **self {
            TypeKind::Signal(ref t) => t,
            _ => panic!("type {} is not a signal", self),
        }
    }

    /// Get the length and element type of an array.
    ///
    /// # Panics
    ///
    /// Panics if the type is not an array type.
    pub fn unwrap_array(&self) -> (usize, &Type) {
        match **self {
            TypeKind::Array(len, ref t) => (len, t),
            _ => panic!("type {} is not an array", self),
        }
    }

    /// Get the field types of a struct.
    ///
    /// # Panics
    ///
    /// Panics if the type is not a struct type.
    pub fn unwrap_struct(&self) -> &[Type] {
        match **self {
            TypeKind::Struct(ref fields) => fields,
            _ => panic!("type {} is not a struct", self),
        }
    }

    /// Get the argument and return types of a function type.
    ///
    /// # Panics
    ///
    /// Panics if the type is not a function type.
    pub fn unwrap_func(&self) -> (&[Type], &Type) {
        match **self {
            TypeKind::Func(ref args, ref ret) => (args, ret),
            _ => panic!("type {} is not a function", self),
        }
    }

    /// Get the input and output types of an entity signature type.
    ///
    /// # Panics
    ///
    /// Panics if the type is not an entity signature type.
    pub fn unwrap_entity(&self) -> (&[Type], &[Type]) {
        match **self {
            TypeKind::Entity(ref ins, ref outs) => (ins, outs),
            _ => panic!("type {} is not an entity signature", self),
        }
    }

    /// The type carried behind a signal or pointer, or the type itself.
    ///
    /// `i32$` and `i32*` both strip to `i32`; `i32` strips to itself.
    pub fn strip(&self) -> &Type {
        match **self {
            TypeKind::Signal(ref t) | TypeKind::Pointer(ref t) => t,
            _ => self,
        }
    }

    /// An estimate of the number of bits needed to store a value of this type
    /// in hardware (signals and pointers count their payload).
    pub fn bit_size(&self) -> usize {
        match **self {
            TypeKind::Void | TypeKind::Time => 0,
            TypeKind::Int(w) | TypeKind::Logic(w) => w,
            TypeKind::Enum(n) => {
                // ceil(log2(n)) bits, at least 1
                let mut bits = 0;
                while (1usize << bits) < n {
                    bits += 1;
                }
                bits.max(1)
            }
            TypeKind::Pointer(ref t) | TypeKind::Signal(ref t) => t.bit_size(),
            TypeKind::Array(len, ref t) => len * t.bit_size(),
            TypeKind::Struct(ref fields) => fields.iter().map(|t| t.bit_size()).sum(),
            TypeKind::Func(..) | TypeKind::Entity(..) => 0,
        }
    }

    /// An estimate of the in-memory footprint of this type descriptor in
    /// bytes, used for the Table 4 size accounting.
    pub fn memory_size(&self) -> usize {
        let inner = match **self {
            TypeKind::Pointer(ref t) | TypeKind::Signal(ref t) => t.memory_size(),
            TypeKind::Array(_, ref t) => t.memory_size(),
            TypeKind::Struct(ref fields) => fields.iter().map(|t| t.memory_size()).sum(),
            TypeKind::Func(ref args, ref ret) => {
                args.iter().map(|t| t.memory_size()).sum::<usize>() + ret.memory_size()
            }
            TypeKind::Entity(ref ins, ref outs) => ins
                .iter()
                .chain(outs.iter())
                .map(|t| t.memory_size())
                .sum(),
            _ => 0,
        };
        std::mem::size_of::<TypeKind>() + inner
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match **self {
            TypeKind::Void => write!(f, "void"),
            TypeKind::Time => write!(f, "time"),
            TypeKind::Int(w) => write!(f, "i{}", w),
            TypeKind::Enum(w) => write!(f, "n{}", w),
            TypeKind::Logic(w) => write!(f, "l{}", w),
            TypeKind::Pointer(ref t) => write!(f, "{}*", t),
            TypeKind::Signal(ref t) => write!(f, "{}$", t),
            TypeKind::Array(len, ref t) => write!(f, "[{} x {}]", len, t),
            TypeKind::Struct(ref fields) => {
                write!(f, "{{")?;
                for (i, t) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", t)?;
                }
                write!(f, "}}")
            }
            TypeKind::Func(ref args, ref ret) => {
                write!(f, "(")?;
                for (i, t) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", t)?;
                }
                write!(f, ") {}", ret)
            }
            TypeKind::Entity(ref ins, ref outs) => {
                write!(f, "(")?;
                for (i, t) in ins.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", t)?;
                }
                write!(f, ") -> (")?;
                for (i, t) in outs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", t)?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Debug for Type {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The widest `iN`/`lN` and the most states of an `nN` that the assembly
/// and bitcode readers accept: 2^16, 512 times the widest type any design,
/// generator, test or corpus file in this workspace uses (`i128`). A
/// value of this width takes 8 KiB; without the bound one constant of
/// type `i4000000000` would ask for ≈ 500 MB.
pub const MAX_WIDTH: usize = 1 << 16;

/// Create a `void` type.
pub fn void_ty() -> Type {
    Type::new(TypeKind::Void)
}

/// Create a `time` type.
pub fn time_ty() -> Type {
    Type::new(TypeKind::Time)
}

/// Create an `iN` integer type.
pub fn int_ty(width: usize) -> Type {
    Type::new(TypeKind::Int(width))
}

/// Create an `nN` enumeration type.
pub fn enum_ty(states: usize) -> Type {
    Type::new(TypeKind::Enum(states))
}

/// Create an `lN` nine-valued logic type.
pub fn logic_ty(width: usize) -> Type {
    Type::new(TypeKind::Logic(width))
}

/// Create a `T*` pointer type.
pub fn pointer_ty(inner: Type) -> Type {
    Type::new(TypeKind::Pointer(inner))
}

/// Create a `T$` signal type.
pub fn signal_ty(inner: Type) -> Type {
    Type::new(TypeKind::Signal(inner))
}

/// Create an `[N x T]` array type.
pub fn array_ty(len: usize, inner: Type) -> Type {
    Type::new(TypeKind::Array(len, inner))
}

/// Create a `{T1, T2, ...}` struct type.
pub fn struct_ty(fields: Vec<Type>) -> Type {
    Type::new(TypeKind::Struct(fields))
}

/// Create a function type.
pub fn func_ty(args: Vec<Type>, ret: Type) -> Type {
    Type::new(TypeKind::Func(args, ret))
}

/// Create an entity signature type.
pub fn entity_ty(inputs: Vec<Type>, outputs: Vec<Type>) -> Type {
    Type::new(TypeKind::Entity(inputs, outputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_simple_types() {
        assert_eq!(void_ty().to_string(), "void");
        assert_eq!(time_ty().to_string(), "time");
        assert_eq!(int_ty(42).to_string(), "i42");
        assert_eq!(enum_ty(7).to_string(), "n7");
        assert_eq!(logic_ty(9).to_string(), "l9");
    }

    #[test]
    fn display_compound_types() {
        assert_eq!(pointer_ty(int_ty(8)).to_string(), "i8*");
        assert_eq!(signal_ty(int_ty(32)).to_string(), "i32$");
        assert_eq!(array_ty(4, int_ty(16)).to_string(), "[4 x i16]");
        assert_eq!(
            struct_ty(vec![int_ty(1), time_ty()]).to_string(),
            "{i1, time}"
        );
        assert_eq!(
            func_ty(vec![int_ty(32), int_ty(32)], void_ty()).to_string(),
            "(i32, i32) void"
        );
        assert_eq!(
            entity_ty(vec![signal_ty(int_ty(1))], vec![signal_ty(int_ty(8))]).to_string(),
            "(i1$) -> (i8$)"
        );
    }

    #[test]
    fn structural_equality() {
        assert_eq!(int_ty(32), int_ty(32));
        assert_ne!(int_ty(32), int_ty(31));
        assert_eq!(signal_ty(int_ty(8)), signal_ty(int_ty(8)));
        assert_ne!(signal_ty(int_ty(8)), pointer_ty(int_ty(8)));
        assert_eq!(
            struct_ty(vec![int_ty(1), int_ty(2)]),
            struct_ty(vec![int_ty(1), int_ty(2)])
        );
    }

    #[test]
    fn predicates() {
        assert!(void_ty().is_void());
        assert!(int_ty(4).is_int());
        assert!(enum_ty(4).is_enum());
        assert!(logic_ty(4).is_logic());
        assert!(signal_ty(int_ty(4)).is_signal());
        assert!(pointer_ty(int_ty(4)).is_pointer());
        assert!(array_ty(3, int_ty(4)).is_array());
        assert!(struct_ty(vec![]).is_struct());
        assert!(!int_ty(4).is_signal());
    }

    #[test]
    fn unwrap_accessors() {
        assert_eq!(int_ty(12).unwrap_int(), 12);
        assert_eq!(enum_ty(5).unwrap_enum(), 5);
        assert_eq!(logic_ty(3).unwrap_logic(), 3);
        assert_eq!(signal_ty(int_ty(8)).unwrap_signal(), &int_ty(8));
        assert_eq!(pointer_ty(int_ty(8)).unwrap_pointer(), &int_ty(8));
        let a = array_ty(7, int_ty(2));
        assert_eq!(a.unwrap_array(), (7, &int_ty(2)));
        let s = struct_ty(vec![int_ty(1), int_ty(2)]);
        assert_eq!(s.unwrap_struct(), &[int_ty(1), int_ty(2)]);
    }

    #[test]
    #[should_panic]
    fn unwrap_int_panics_on_wrong_type() {
        void_ty().unwrap_int();
    }

    #[test]
    fn strip_signal_and_pointer() {
        assert_eq!(signal_ty(int_ty(8)).strip(), &int_ty(8));
        assert_eq!(pointer_ty(int_ty(8)).strip(), &int_ty(8));
        assert_eq!(int_ty(8).strip(), &int_ty(8));
    }

    #[test]
    fn bit_sizes() {
        assert_eq!(int_ty(32).bit_size(), 32);
        assert_eq!(logic_ty(9).bit_size(), 9);
        assert_eq!(enum_ty(2).bit_size(), 1);
        assert_eq!(enum_ty(3).bit_size(), 2);
        assert_eq!(enum_ty(9).bit_size(), 4);
        assert_eq!(array_ty(4, int_ty(8)).bit_size(), 32);
        assert_eq!(struct_ty(vec![int_ty(1), int_ty(31)]).bit_size(), 32);
        assert_eq!(signal_ty(int_ty(16)).bit_size(), 16);
        assert_eq!(void_ty().bit_size(), 0);
    }

    #[test]
    fn width_helper() {
        assert_eq!(int_ty(5).width(), Some(5));
        assert_eq!(logic_ty(5).width(), Some(5));
        assert_eq!(enum_ty(5).width(), Some(5));
        assert_eq!(void_ty().width(), None);
        assert_eq!(signal_ty(int_ty(5)).width(), None);
    }

    #[test]
    fn memory_size_is_positive_and_monotone() {
        assert!(int_ty(8).memory_size() > 0);
        assert!(struct_ty(vec![int_ty(8), int_ty(8)]).memory_size() > int_ty(8).memory_size());
    }
}
