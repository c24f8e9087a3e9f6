//! BP-lite: a self-describing binary codec for one output step.
//!
//! A miniature of the ADIOS BP format: magic + version header, group name,
//! step index, step attributes, then each variable with its name, element
//! type, local/global/offset dimensions, and payload, and finally an
//! additive checksum so truncation and corruption are detectable. All
//! integers are little-endian.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::group::{AttrValue, StepData};
use crate::types::{DataType, Dims, Value};

/// Magic bytes opening every BP-lite blob.
pub const MAGIC: &[u8; 4] = b"BPL1";

/// Decode failures.
#[derive(Clone, Debug, PartialEq)]
pub enum BpError {
    /// Blob does not start with [`MAGIC`].
    BadMagic,
    /// Blob ended before a field completed.
    Truncated,
    /// Unknown data-type tag.
    BadType(u8),
    /// Unknown attribute tag.
    BadAttr(u8),
    /// Variable payload length disagrees with its dimensions.
    BadValue(String),
    /// Checksum mismatch (corruption).
    Checksum {
        /// Checksum stored in the blob.
        stored: u64,
        /// Checksum recomputed over the body.
        computed: u64,
    },
    /// A length or count field exceeds the remaining blob.
    BadLength,
    /// Name or attribute key is not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for BpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpError::BadMagic => write!(f, "not a BP-lite blob"),
            BpError::Truncated => write!(f, "blob truncated"),
            BpError::BadType(t) => write!(f, "unknown dtype tag {t}"),
            BpError::BadAttr(t) => write!(f, "unknown attribute tag {t}"),
            BpError::BadValue(v) => write!(f, "inconsistent payload for variable '{v}'"),
            BpError::Checksum { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#x}, computed {computed:#x}")
            }
            BpError::BadLength => write!(f, "length field exceeds blob"),
            BpError::BadUtf8 => write!(f, "invalid utf-8 in name"),
        }
    }
}

impl std::error::Error for BpError {}

/// A decoded BP-lite blob.
#[derive(Clone, Debug)]
pub struct BpStep {
    /// Name of the group that wrote the step.
    pub group: String,
    /// The step's variables and attributes.
    pub data: StepData,
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn put_attr(buf: &mut BytesMut, key: &str, value: &AttrValue) {
    put_str(buf, key);
    match value {
        AttrValue::Str(s) => {
            buf.put_u8(0);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        AttrValue::Int(i) => {
            buf.put_u8(1);
            buf.put_i64_le(*i);
        }
        AttrValue::Float(x) => {
            buf.put_u8(2);
            buf.put_f64_le(*x);
        }
    }
}

fn put_dims(buf: &mut BytesMut, dims: &[u64]) {
    buf.put_u8(dims.len() as u8);
    for &d in dims {
        buf.put_u64_le(d);
    }
}

/// Fletcher-style additive checksum (fast, catches truncation/bit rot well
/// enough for a test substrate).
fn checksum(body: &[u8]) -> u64 {
    let mut a: u64 = 1;
    let mut b: u64 = 0;
    for &byte in body {
        a = a.wrapping_add(byte as u64);
        b = b.wrapping_add(a);
    }
    (b << 32) | (a & 0xffff_ffff)
}

/// Encodes one step into a self-describing blob.
pub fn encode(group_name: &str, step: &StepData) -> Bytes {
    let mut body = BytesMut::with_capacity(1024 + step.payload_bytes() as usize);
    put_str(&mut body, group_name);
    body.put_u64_le(step.step());

    let attrs: Vec<_> = step.attrs().collect();
    body.put_u32_le(attrs.len() as u32);
    for (k, v) in attrs {
        put_attr(&mut body, k, v);
    }

    let values: Vec<_> = step.values().collect();
    body.put_u32_le(values.len() as u32);
    for (name, value) in values {
        put_str(&mut body, name);
        body.put_u8(value.dtype().tag());
        put_dims(&mut body, &value.dims().local);
        put_dims(&mut body, &value.dims().global);
        put_dims(&mut body, &value.dims().offset);
        body.put_u64_le(value.byte_len() as u64);
        body.put_slice(value.bytes());
    }

    let mut out = BytesMut::with_capacity(body.len() + 12);
    out.put_slice(MAGIC);
    let sum = checksum(&body);
    out.put_u64_le(sum);
    out.extend_from_slice(&body);
    out.freeze()
}

struct Cursor {
    buf: Bytes,
}

impl Cursor {
    fn need(&self, n: usize) -> Result<(), BpError> {
        if self.buf.remaining() < n {
            Err(BpError::Truncated)
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, BpError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u16(&mut self) -> Result<u16, BpError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    fn u32(&mut self) -> Result<u32, BpError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    fn u64(&mut self) -> Result<u64, BpError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    fn i64(&mut self) -> Result<i64, BpError> {
        self.need(8)?;
        Ok(self.buf.get_i64_le())
    }

    fn f64(&mut self) -> Result<f64, BpError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    fn bytes(&mut self, n: usize) -> Result<Bytes, BpError> {
        self.need(n)?;
        Ok(self.buf.split_to(n))
    }

    fn string(&mut self, n: usize) -> Result<String, BpError> {
        let b = self.bytes(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| BpError::BadUtf8)
    }

    fn short_str(&mut self) -> Result<String, BpError> {
        let n = self.u16()? as usize;
        self.string(n)
    }

    fn dims(&mut self) -> Result<Vec<u64>, BpError> {
        let rank = self.u8()? as usize;
        if rank > 8 {
            return Err(BpError::BadLength);
        }
        (0..rank).map(|_| self.u64()).collect()
    }

    fn attr(&mut self) -> Result<(String, AttrValue), BpError> {
        let key = self.short_str()?;
        let tag = self.u8()?;
        let value = match tag {
            0 => {
                let n = self.u32()? as usize;
                AttrValue::Str(self.string(n)?)
            }
            1 => AttrValue::Int(self.i64()?),
            2 => AttrValue::Float(self.f64()?),
            t => return Err(BpError::BadAttr(t)),
        };
        Ok((key, value))
    }
}

/// Decodes a blob produced by [`encode`], verifying magic and checksum.
pub fn decode(blob: Bytes) -> Result<BpStep, BpError> {
    let mut c = Cursor { buf: blob };
    let magic = c.bytes(4)?;
    if magic.as_ref() != MAGIC {
        return Err(BpError::BadMagic);
    }
    let stored = c.u64()?;
    let computed = checksum(&c.buf);
    if stored != computed {
        return Err(BpError::Checksum { stored, computed });
    }

    let group = c.short_str()?;
    let step_ix = c.u64()?;
    let mut data = StepData::new(step_ix);

    let attr_count = c.u32()?;
    for _ in 0..attr_count {
        let (k, v) = c.attr()?;
        data.set_attr(k, v);
    }

    let var_count = c.u32()?;
    for _ in 0..var_count {
        let name = c.short_str()?;
        let tag = c.u8()?;
        let dtype = DataType::from_tag(tag).ok_or(BpError::BadType(tag))?;
        let local = c.dims()?;
        let global = c.dims()?;
        let offset = c.dims()?;
        let len = c.u64()? as usize;
        let payload = c.bytes(len)?;
        let value = Value::from_bytes(dtype, Dims { local, global, offset }, payload)
            .map_err(|_| BpError::BadValue(name.clone()))?;
        data.write_unchecked(name, value);
    }

    Ok(BpStep { group, data })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Group;

    fn sample_step() -> StepData {
        let mut g = Group::new("atoms");
        g.define_var("x", DataType::F64).define_var("type", DataType::I32);
        let mut s = StepData::new(17);
        s.write(&g, "x", Value::from_f64(&[1.5, -2.5], Dims::global1d(2, 10, 4)).unwrap())
            .unwrap();
        s.write(&g, "type", Value::from_i32(&[1, 2], Dims::local1d(2)).unwrap()).unwrap();
        s.set_attr("processed_by", AttrValue::Str("helper".into()));
        s.set_attr("epoch", AttrValue::Int(99));
        s.set_attr("temp", AttrValue::Float(0.5));
        s
    }

    #[test]
    fn round_trip_preserves_everything() {
        let step = sample_step();
        let blob = encode("atoms", &step);
        let out = decode(blob).unwrap();
        assert_eq!(out.group, "atoms");
        assert_eq!(out.data.step(), 17);
        assert_eq!(out.data.value("x").unwrap().as_f64().unwrap(), &[1.5, -2.5]);
        assert_eq!(out.data.value("x").unwrap().dims().offset, vec![4]);
        assert_eq!(out.data.value("type").unwrap().as_i32().unwrap(), &[1, 2]);
        assert_eq!(out.data.attr("processed_by"), Some(&AttrValue::Str("helper".into())));
        assert_eq!(out.data.attr("epoch"), Some(&AttrValue::Int(99)));
        assert_eq!(out.data.attr("temp"), Some(&AttrValue::Float(0.5)));
    }

    #[test]
    fn encoding_is_pinned_and_survives_a_round_trip() {
        // Length and checksum of this blob as the `BTreeMap`-backed
        // `StepData` encoded it: the archive format did not move when the
        // maps became sorted vectors. `sample_step` inserts both its
        // variables and its attributes out of name order.
        let blob = encode("atoms", &sample_step());
        assert_eq!(blob.len(), 180);
        assert_eq!(checksum(&blob), 0x000a_246b_0000_1643);
        let again = encode("atoms", &decode(blob.clone()).unwrap().data);
        assert_eq!(again, blob, "decode then encode reproduces the bytes");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut blob = encode("g", &StepData::new(0)).to_vec();
        blob[0] = b'X';
        match decode(Bytes::from(blob)) {
            Err(BpError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let mut blob = encode("atoms", &sample_step()).to_vec();
        let mid = blob.len() / 2;
        blob[mid] ^= 0xff;
        match decode(Bytes::from(blob)) {
            Err(BpError::Checksum { .. }) => {}
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let blob = encode("atoms", &sample_step());
        // Any truncation either breaks the checksum or truncates a field.
        for cut in [3usize, 11, 20, blob.len() - 1] {
            let out = decode(blob.slice(..cut));
            assert!(out.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn empty_step_round_trips() {
        let blob = encode("empty", &StepData::new(0));
        let out = decode(blob).unwrap();
        assert_eq!(out.group, "empty");
        assert_eq!(out.data.values().count(), 0);
        assert_eq!(out.data.attrs().count(), 0);
    }
}
