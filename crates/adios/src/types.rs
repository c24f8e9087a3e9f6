//! Scalar types, array values, and dimension metadata.

use bytes::Bytes;
use std::fmt;

/// Element type of a variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataType {
    /// Unsigned 8-bit integer.
    U8,
    /// Signed 32-bit integer.
    I32,
    /// Signed 64-bit integer.
    I64,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
}

impl DataType {
    /// Size of one element in bytes.
    pub const fn size(self) -> usize {
        match self {
            DataType::U8 => 1,
            DataType::I32 | DataType::F32 => 4,
            DataType::I64 | DataType::F64 => 8,
        }
    }

    /// Stable wire tag for the BP-lite codec.
    pub(crate) const fn tag(self) -> u8 {
        match self {
            DataType::U8 => 0,
            DataType::I32 => 1,
            DataType::I64 => 2,
            DataType::F32 => 3,
            DataType::F64 => 4,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<DataType> {
        Some(match tag {
            0 => DataType::U8,
            1 => DataType::I32,
            2 => DataType::I64,
            3 => DataType::F32,
            4 => DataType::F64,
            _ => return None,
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::U8 => "u8",
            DataType::I32 => "i32",
            DataType::I64 => "i64",
            DataType::F32 => "f32",
            DataType::F64 => "f64",
        };
        f.write_str(s)
    }
}

/// Dimension metadata for a distributed array, following ADIOS's
/// local/global/offset convention: each writer holds a `local` block placed
/// at `offset` within a `global` array.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Dims {
    /// Extent of this writer's block, per dimension.
    pub local: Vec<u64>,
    /// Extent of the global array, per dimension (empty for local-only vars).
    pub global: Vec<u64>,
    /// Placement of the local block in the global array.
    pub offset: Vec<u64>,
}

impl Dims {
    /// A scalar (rank-0) variable.
    pub fn scalar() -> Dims {
        Dims::default()
    }

    /// A purely local 1-D array of `n` elements.
    pub fn local1d(n: u64) -> Dims {
        Dims { local: vec![n], global: vec![], offset: vec![] }
    }

    /// A 1-D block of `n` elements at `offset` within a global array of
    /// `global` elements.
    pub fn global1d(n: u64, global: u64, offset: u64) -> Dims {
        Dims { local: vec![n], global: vec![global], offset: vec![offset] }
    }

    /// Number of elements in the local block (1 for scalars); `None` when
    /// the product does not fit a `u64` (dims read from a file can say
    /// anything).
    pub fn local_elems(&self) -> Option<u64> {
        self.local.iter().try_fold(1u64, |n, &d| n.checked_mul(d))
    }

    /// The longest of the three dimension lists.
    pub(crate) fn rank(&self) -> usize {
        self.local.len().max(self.global.len()).max(self.offset.len())
    }
}

/// Longest dimension list a [`Value`] carries. The BP-lite codec writes a
/// rank as one byte and its decoder refuses longer lists, so the
/// constructors refuse them too: every `Value` that exists encodes to a
/// blob that decodes.
pub(crate) const MAX_RANK: usize = 8;

/// A typed, immutable array value (the payload bytes are shared, so passing
/// values between pipeline stages never copies the data).
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    dtype: DataType,
    dims: Dims,
    data: Bytes,
}

/// Errors constructing or viewing [`Value`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValueError {
    /// Byte length is not `elems * dtype.size()`.
    LengthMismatch {
        /// Expected byte length (`usize::MAX` when the dimensions' product
        /// overflows).
        expected: usize,
        /// Actual byte length.
        actual: usize,
    },
    /// Requested a typed view with the wrong element type.
    TypeMismatch {
        /// The value's actual type.
        actual: DataType,
    },
    /// A dimension list is longer than the codec can carry (8 entries).
    RankTooHigh {
        /// Length of the longest dimension list.
        rank: usize,
    },
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::LengthMismatch { expected, actual } => {
                write!(f, "payload is {actual} bytes, dims require {expected}")
            }
            ValueError::TypeMismatch { actual } => write!(f, "value holds {actual} elements"),
            ValueError::RankTooHigh { rank } => {
                write!(f, "{rank} dimensions, at most {MAX_RANK} are supported")
            }
        }
    }
}

impl std::error::Error for ValueError {}

macro_rules! value_ctor {
    ($ctor:ident, $view:ident, $ty:ty, $dt:expr) => {
        /// Builds a value from a typed slice (copies once into shared bytes).
        pub fn $ctor(data: &[$ty], dims: Dims) -> Result<Value, ValueError> {
            let bytes: &[u8] = unsafe {
                std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data))
            };
            Value::from_bytes($dt, dims, Bytes::copy_from_slice(bytes))
        }

        /// Borrows the payload as a typed slice.
        pub fn $view(&self) -> Result<&[$ty], ValueError> {
            if self.dtype != $dt {
                return Err(ValueError::TypeMismatch { actual: self.dtype });
            }
            // Bytes does not guarantee alignment; element types here are
            // byte-serializable plain-old-data, and in practice allocations
            // are 8-aligned. Fall back to a checked cast.
            let ptr = self.data.as_ptr();
            assert_eq!(
                ptr.align_offset(std::mem::align_of::<$ty>()),
                0,
                "payload misaligned for {}",
                stringify!($ty)
            );
            Ok(unsafe {
                std::slice::from_raw_parts(
                    ptr as *const $ty,
                    self.data.len() / std::mem::size_of::<$ty>(),
                )
            })
        }
    };
}

/// Copies `src` into a fresh 8-aligned allocation exposed as [`Bytes`].
/// Needed because codec decoding yields views into the middle of a blob,
/// which are not aligned for multi-byte element types.
fn aligned_bytes(src: &[u8]) -> Bytes {
    struct Owner(Vec<u64>, usize);
    impl AsRef<[u8]> for Owner {
        fn as_ref(&self) -> &[u8] {
            // SAFETY: the Vec owns at least `self.1` initialized bytes.
            unsafe { std::slice::from_raw_parts(self.0.as_ptr() as *const u8, self.1) }
        }
    }
    let words = src.len().div_ceil(8);
    let mut v: Vec<u64> = vec![0; words];
    // SAFETY: the Vec's buffer holds `words * 8 >= src.len()` bytes.
    let dst = unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr() as *mut u8, src.len()) };
    dst.copy_from_slice(src);
    Bytes::from_owner(Owner(v, src.len()))
}

impl Value {
    /// Builds a value directly from raw bytes, validating the dimensions'
    /// rank and the length against them. Misaligned payloads (e.g. views
    /// into a decoded blob) are copied into an aligned allocation so typed
    /// views stay zero-cost.
    pub fn from_bytes(dtype: DataType, dims: Dims, data: Bytes) -> Result<Value, ValueError> {
        if dims.rank() > MAX_RANK {
            return Err(ValueError::RankTooHigh { rank: dims.rank() });
        }
        let expected = dims
            .local_elems()
            .and_then(|n| usize::try_from(n).ok())
            .and_then(|n| n.checked_mul(dtype.size()));
        if expected != Some(data.len()) {
            return Err(ValueError::LengthMismatch {
                expected: expected.unwrap_or(usize::MAX),
                actual: data.len(),
            });
        }
        let data = if data.as_ptr().align_offset(dtype.size().min(8)) == 0 {
            data
        } else {
            aligned_bytes(&data)
        };
        Ok(Value { dtype, dims, data })
    }

    value_ctor!(from_u8, as_u8, u8, DataType::U8);
    value_ctor!(from_i32, as_i32, i32, DataType::I32);
    value_ctor!(from_i64, as_i64, i64, DataType::I64);
    value_ctor!(from_f32, as_f32, f32, DataType::F32);
    value_ctor!(from_f64, as_f64, f64, DataType::F64);

    /// A scalar f64 value.
    pub fn scalar_f64(v: f64) -> Value {
        Value::from_f64(&[v], Dims::scalar()).expect("scalar length always matches")
    }

    /// A scalar i64 value.
    pub fn scalar_i64(v: i64) -> Value {
        Value::from_i64(&[v], Dims::scalar()).expect("scalar length always matches")
    }

    /// Element type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Dimension metadata.
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    /// Raw payload (shared, zero-copy).
    pub fn bytes(&self) -> &Bytes {
        &self.data
    }

    /// Payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_typed_views() {
        let v = Value::from_f64(&[1.0, 2.0, 3.0], Dims::local1d(3)).unwrap();
        assert_eq!(v.as_f64().unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(v.dtype(), DataType::F64);
        assert_eq!(v.byte_len(), 24);
        assert!(matches!(v.as_i32(), Err(ValueError::TypeMismatch { .. })));
    }

    #[test]
    fn length_validation() {
        let err = Value::from_bytes(DataType::I32, Dims::local1d(3), Bytes::from_static(&[0; 8]))
            .unwrap_err();
        assert_eq!(err, ValueError::LengthMismatch { expected: 12, actual: 8 });
    }

    #[test]
    fn overflowing_dims_are_a_length_mismatch() {
        // (1 << 32)² wraps a `u64` product to 0, which an empty payload
        // would then "match".
        let dims = Dims { local: vec![1 << 32, 1 << 32], ..Dims::default() };
        assert_eq!(dims.local_elems(), None);
        let err = Value::from_bytes(DataType::U8, dims, Bytes::new()).unwrap_err();
        assert_eq!(err, ValueError::LengthMismatch { expected: usize::MAX, actual: 0 });
        // The element count fits, the byte count does not.
        let dims = Dims::local1d(1 << 62);
        let err = Value::from_bytes(DataType::F64, dims, Bytes::new()).unwrap_err();
        assert_eq!(err, ValueError::LengthMismatch { expected: usize::MAX, actual: 0 });
    }

    #[test]
    fn over_long_dimension_lists_are_refused() {
        let full = vec![1; MAX_RANK];
        let ok = Dims { local: full.clone(), global: full.clone(), offset: full };
        assert!(Value::from_u8(&[7], ok).is_ok());
        for which in 0..3 {
            let mut dims = Dims::local1d(1);
            [&mut dims.local, &mut dims.global, &mut dims.offset][which].resize(MAX_RANK + 1, 1);
            let err = Value::from_u8(&[7], dims).unwrap_err();
            assert_eq!(err, ValueError::RankTooHigh { rank: MAX_RANK + 1 });
        }
    }

    #[test]
    fn scalar_helpers() {
        assert_eq!(Value::scalar_f64(2.5).as_f64().unwrap(), &[2.5]);
        assert_eq!(Value::scalar_i64(-7).as_i64().unwrap(), &[-7]);
    }

    #[test]
    fn global_dims_describe_placement() {
        let d = Dims::global1d(100, 1000, 300);
        assert_eq!(d.local_elems(), Some(100));
        assert_eq!(d.global, vec![1000]);
        assert_eq!(d.offset, vec![300]);
    }

    #[test]
    fn dtype_tags_round_trip() {
        for dt in [DataType::U8, DataType::I32, DataType::I64, DataType::F32, DataType::F64] {
            assert_eq!(DataType::from_tag(dt.tag()), Some(dt));
        }
        assert_eq!(DataType::from_tag(99), None);
    }

    #[test]
    fn value_clone_shares_bytes() {
        let v = Value::from_u8(&[1, 2, 3, 4], Dims::local1d(4)).unwrap();
        let w = v.clone();
        assert_eq!(v.bytes().as_ptr(), w.bytes().as_ptr());
    }
}
