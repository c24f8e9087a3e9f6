//! BP-lite: a self-describing binary codec for one output step.
//!
//! A miniature of the ADIOS BP format: magic + version header, group name,
//! step index, step attributes, then each variable with its name, element
//! type, local/global/offset dimensions, and payload, and finally an
//! additive checksum so truncation and corruption are detectable. All
//! integers are little-endian.

use std::sync::Mutex;

use bytes::{Buf, BufMut, Bytes};

use crate::group::{AttrValue, StepData};
use crate::types::{DataType, Dims, Value, MAX_RANK};

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

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn put_attr(buf: &mut Vec<u8>, key: &str, value: &AttrValue) {
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

fn put_dims(buf: &mut Vec<u8>, dims: &[u64]) {
    // `Value`'s constructors refuse longer lists, so the byte holds the rank.
    debug_assert!(dims.len() <= MAX_RANK);
    buf.put_u8(dims.len() as u8);
    for &d in dims {
        buf.put_u64_le(d);
    }
}

/// Bytes the checksum takes in at a time, one per lane.
const LANES: usize = 16;

/// Fletcher-style additive checksum (fast, catches truncation/bit rot well
/// enough for a test substrate): `a` starts at 1 and adds each byte, `b`
/// adds each `a`; the result is `b << 32 | a mod 2^32`.
///
/// Only the low 32 bits of either sum reach the result, so everything
/// here is `u32` arithmetic that wraps, and any regrouping of the sums is
/// exact. Read the input as rows of [`LANES`] bytes. Lane `l` keeps its own
/// pair `la[l] += x`, `lb[l] += la[l]`, sixteen independent chains the
/// compiler runs as vector adds where the byte-serial loop has one chain
/// of two dependent adds per byte. Byte `x` of row `r`, lane `l` is counted
/// in `b` once for every byte from it to the end, `n - LANES*r - l` times
/// of the `n` bytes in the rows, and in `lb[l]` once per row from its own
/// to the last, `n/LANES - r` times. So with `a0` the `a` before the rows,
///
/// ```text
/// b += n*a0 + LANES * sum(lb[l]) - sum(l * la[l])
/// a += sum(la[l])
/// ```
///
/// and the bytes after the last full row go through the serial loop.
fn checksum(body: &[u8]) -> u64 {
    let (rows, tail) = body.split_at(body.len() - body.len() % LANES);
    let mut la = [0u32; LANES];
    let mut lb = [0u32; LANES];
    for row in rows.chunks_exact(LANES) {
        for l in 0..LANES {
            la[l] = la[l].wrapping_add(row[l] as u32);
            lb[l] = lb[l].wrapping_add(la[l]);
        }
    }
    let (mut sum_a, mut sum_b, mut skew) = (0u32, 0u32, 0u32);
    for l in 0..LANES {
        sum_a = sum_a.wrapping_add(la[l]);
        sum_b = sum_b.wrapping_add(lb[l]);
        skew = skew.wrapping_add((l as u32).wrapping_mul(la[l]));
    }
    // `a0` is 1, so `n*a0` is `n`; a length past 2^32 wraps like the sums.
    let mut b =
        (rows.len() as u32).wrapping_add((LANES as u32).wrapping_mul(sum_b)).wrapping_sub(skew);
    let mut a = 1u32.wrapping_add(sum_a);
    for &x in tail {
        a = a.wrapping_add(x as u32);
        b = b.wrapping_add(a);
    }
    (b as u64) << 32 | a as u64
}

/// Where the checksummed body starts: after the magic and the checksum.
const BODY: usize = MAGIC.len() + 8;

/// Encodes one step into a self-describing blob.
///
/// The blob is built in one buffer: magic, an empty checksum slot, then
/// header and payloads written once, and the slot patched with the sum of
/// what follows it. Buffers of 64 KiB and more come from a process-wide
/// free list and go back to it when the last view of the blob drops, the
/// payload views `decode` hands out included.
pub fn encode(group_name: &str, step: &StepData) -> Bytes {
    let mut out = take_buffer(1024 + step.payload_bytes() as usize);
    out.put_slice(MAGIC);
    out.put_u64_le(0);
    put_str(&mut out, group_name);
    out.put_u64_le(step.step());

    let attrs = step.attrs();
    out.put_u32_le(attrs.len() as u32);
    for (k, v) in attrs {
        put_attr(&mut out, k, v);
    }

    let values = step.values();
    out.put_u32_le(values.len() as u32);
    for (name, value) in values {
        put_str(&mut out, name);
        out.put_u8(value.dtype().tag());
        put_dims(&mut out, &value.dims().local);
        put_dims(&mut out, &value.dims().global);
        put_dims(&mut out, &value.dims().offset);
        out.put_u64_le(value.byte_len() as u64);
        out.put_slice(value.bytes());
    }

    let sum = checksum(&out[BODY..]);
    out[MAGIC.len()..BODY].copy_from_slice(&sum.to_le_bytes());
    Bytes::from_owner(Blob(out))
}

/// Buffers below this capacity are allocated and freed as before, without
/// touching the free list: the allocator serves them from memory it already
/// holds, and a lock shared by every encoding thread would cost more than
/// it saves.
const RECYCLE_MIN: usize = 64 * 1024;

/// Most capacity, in bytes, the free list holds on to. A bound, not a
/// reservation: the list only ever holds buffers that were encoded into
/// and then dropped, so it adds nothing to the peak a process reached on
/// its own, and what a larger burst leaves behind goes back to the
/// allocator.
const RETAIN_MAX: usize = 64 << 20;

/// Dropped blob buffers, kept for the next [`encode`].
///
/// A blob of hundreds of KiB is a fresh allocation whose pages the kernel
/// hands over one fault at a time, and which the allocator returns to the
/// kernel when the blob drops, so an archive that encodes, writes and drops
/// a step at a time pays those faults again for every step. Keeping the
/// buffer keeps its pages.
struct FreeList {
    bufs: Vec<Vec<u8>>,
    /// Sum of the buffers' capacities, at most [`RETAIN_MAX`].
    bytes: usize,
}

static FREE: Mutex<FreeList> = Mutex::new(FreeList { bufs: Vec::new(), bytes: 0 });

impl FreeList {
    /// The most recently returned buffer that holds `want` bytes without
    /// being more than twice that size: a small blob must not pin a large
    /// buffer.
    fn take(&mut self, want: usize) -> Option<Vec<u8>> {
        let fits = |b: &Vec<u8>| b.capacity() >= want && b.capacity() / 2 <= want;
        let ix = self.bufs.iter().rposition(fits)?;
        let buf = self.bufs.swap_remove(ix);
        self.bytes -= buf.capacity();
        Some(buf)
    }

    /// Keeps `buf`, emptied, unless that would take the list past its
    /// bound; then the caller gets it back to free.
    fn give(&mut self, mut buf: Vec<u8>) -> Option<Vec<u8>> {
        if self.bytes + buf.capacity() > RETAIN_MAX {
            return Some(buf);
        }
        buf.clear();
        self.bytes += buf.capacity();
        self.bufs.push(buf);
        None
    }
}

/// An empty buffer of at least `want` bytes. A poisoned list is left
/// alone: allocating is always correct.
fn take_buffer(want: usize) -> Vec<u8> {
    if want >= RECYCLE_MIN {
        if let Some(buf) = FREE.lock().ok().and_then(|mut free| free.take(want)) {
            return buf;
        }
    }
    Vec::with_capacity(want)
}

/// Owner of a blob's buffer: every [`Bytes`] view of the blob, and so every
/// payload `decode` hands out, shares it, and the buffer goes to the free
/// list when the last of them drops.
struct Blob(Vec<u8>);

impl AsRef<[u8]> for Blob {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Drop for Blob {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.0);
        if buf.capacity() >= RECYCLE_MIN {
            // A buffer the list declines is freed after the lock is released.
            let _declined = match FREE.lock() {
                Ok(mut free) => free.give(buf),
                Err(_) => Some(buf),
            };
        }
    }
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
        if rank > MAX_RANK {
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
        let len = usize::try_from(c.u64()?).map_err(|_| BpError::BadLength)?;
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
    use proptest::prelude::*;

    /// The checksum's definition, one byte at a time: what [`checksum`]
    /// computed before it had lanes, and what it must still equal.
    fn checksum_serial(body: &[u8]) -> u64 {
        let mut a: u64 = 1;
        let mut b: u64 = 0;
        for &byte in body {
            a = a.wrapping_add(byte as u64);
            b = b.wrapping_add(a);
        }
        (b << 32) | (a & 0xffff_ffff)
    }

    /// `len` bytes of seeded noise.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// A step whose one `u8` variable is `payload`.
    fn payload_step(ix: u64, payload: &[u8]) -> StepData {
        let mut s = StepData::new(ix);
        let dims = Dims::local1d(payload.len() as u64);
        s.write_unchecked("payload", Value::from_u8(payload, dims).unwrap());
        s
    }

    /// Frames a hand-written body as a blob whose checksum is right.
    fn seal(body: &[u8]) -> Bytes {
        let mut blob = MAGIC.to_vec();
        blob.put_u64_le(checksum_serial(body));
        blob.put_slice(body);
        Bytes::from(blob)
    }

    /// The body of a hand-written blob of group "g", step 0, no attributes
    /// and one `u8` variable "x", up to where its dimensions start.
    fn one_u8_var_up_to_its_dims() -> Vec<u8> {
        let mut body = Vec::new();
        put_str(&mut body, "g");
        body.put_u64_le(0);
        body.put_u32_le(0);
        body.put_u32_le(1);
        put_str(&mut body, "x");
        body.put_u8(DataType::U8.tag());
        body
    }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn lane_checksum_is_the_byte_serial_sum(
            len in prop_oneof![
                // Nothing, less than a row, one row and its neighbours.
                0usize..=2 * LANES + 1,
                // Many rows and every tail length.
                (0usize..400, 0usize..LANES).prop_map(|(rows, tail)| rows * LANES + tail),
            ],
            seed in any::<u64>(),
        ) {
            let data = noise(len, seed);
            prop_assert_eq!(checksum(&data), checksum_serial(&data), "{} bytes", len);
        }

        #[test]
        fn every_value_the_constructors_accept_round_trips(
            local in prop::collection::vec(1u64..=2, 0..MAX_RANK + 3),
            global in prop::collection::vec(any::<u64>(), 0..MAX_RANK + 3),
            offset in prop::collection::vec(any::<u64>(), 0..MAX_RANK + 3),
        ) {
            let dims = Dims { local, global, offset };
            let rank = dims.rank();
            let data = noise(dims.local_elems().unwrap() as usize * 4, 7);
            match Value::from_bytes(DataType::F32, dims.clone(), Bytes::from(data.clone())) {
                Ok(value) => {
                    let mut step = StepData::new(1);
                    step.write_unchecked("v", value);
                    let back = decode(encode("g", &step)).expect("an accepted value decodes");
                    let got = back.data.value("v").unwrap();
                    prop_assert_eq!(got.dims(), &dims);
                    prop_assert_eq!(got.bytes().as_ref(), data.as_slice());
                }
                Err(e) => {
                    prop_assert!(rank > MAX_RANK);
                    prop_assert_eq!(e, crate::types::ValueError::RankTooHigh { rank });
                }
            }
        }
    }

    #[test]
    fn lane_checksum_agrees_on_every_slice_of_a_short_input() {
        // Every start (so every alignment) and every length up to a few
        // rows, tail included.
        let data = noise(4 * LANES + 5, 3);
        for from in 0..data.len() {
            for to in from..=data.len() {
                let part = &data[from..to];
                assert_eq!(checksum(part), checksum_serial(part), "{from}..{to}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "4 MiB through the interpreter")]
    fn lane_checksum_carries_like_the_serial_sum() {
        // All ones: each lane's `lb` passes 2^32 thousands of times, and so
        // does the serial `b`.
        let data = vec![0xff_u8; (4 << 20) + 7];
        assert_eq!(checksum(&data), checksum_serial(&data));
    }

    #[test]
    fn overflowing_dims_in_a_blob_are_a_bad_value() {
        // local = [2^32, 2^32]: the element count wraps a `u64` to 0, which
        // the empty payload then "matches".
        let mut body = one_u8_var_up_to_its_dims();
        put_dims(&mut body, &[1 << 32, 1 << 32]);
        put_dims(&mut body, &[]);
        put_dims(&mut body, &[]);
        body.put_u64_le(0);
        assert_eq!(decode(seal(&body)).unwrap_err(), BpError::BadValue("x".into()));
    }

    #[test]
    fn over_long_dimension_list_in_a_blob_is_refused() {
        let mut body = one_u8_var_up_to_its_dims();
        body.put_u8(MAX_RANK as u8 + 1);
        body.put_slice(&[0; 8 * (MAX_RANK + 1)]);
        assert_eq!(decode(seal(&body)).unwrap_err(), BpError::BadLength);
    }

    #[test]
    fn a_payload_view_keeps_its_buffer_out_of_the_free_list() {
        let first = noise(2 * RECYCLE_MIN, 11);
        let view = {
            let blob = encode("g", &payload_step(0, &first));
            let step = decode(blob).unwrap().data;
            step.value("payload").unwrap().bytes().clone()
        };
        // The blob and the decoded step are gone; the view is the last
        // holder. An encode of the same size would take the buffer if it had
        // been returned, and overwrite what the view shows.
        let second = noise(2 * RECYCLE_MIN, 12);
        let blob = encode("g", &payload_step(1, &second));
        assert_eq!(view.as_ref(), first.as_slice());
        let back = decode(blob).unwrap().data;
        assert_eq!(back.value("payload").unwrap().bytes().as_ref(), second.as_slice());
    }

    #[test]
    fn free_list_hands_out_the_latest_buffer_that_fits() {
        let mut list = FreeList { bufs: Vec::new(), bytes: 0 };
        for cap in [100_000, 400_000, 110_000] {
            assert!(list.give(Vec::with_capacity(cap)).is_none());
        }
        assert_eq!(list.bytes, 610_000);
        assert!(list.take(500_000).is_none(), "nothing is that large");
        assert!(list.take(150_000).is_none(), "400,000 is more than twice 150,000");
        assert_eq!(list.take(90_000).map(|b| b.capacity()), Some(110_000));
        assert_eq!(list.take(90_000).map(|b| b.capacity()), Some(100_000));
        assert_eq!(list.take(300_000).map(|b| (b.capacity(), b.len())), Some((400_000, 0)));
        assert_eq!((list.bytes, list.bufs.len()), (0, 0));
    }

    #[test]
    fn free_list_never_holds_more_than_its_bound() {
        let mut list = FreeList { bufs: Vec::new(), bytes: 0 };
        let cap = 3 << 20;
        let mut declined = 0;
        for _ in 0..2 * RETAIN_MAX / cap {
            // Capacity only: the pages are never touched.
            declined += list.give(Vec::with_capacity(cap)).is_some() as usize;
            assert!(list.bytes <= RETAIN_MAX);
            assert_eq!(list.bytes, list.bufs.iter().map(Vec::capacity).sum::<usize>());
        }
        assert_eq!(list.bufs.len(), RETAIN_MAX / cap);
        assert_eq!(declined, 2 * RETAIN_MAX / cap - RETAIN_MAX / cap);
        // Room again once one is taken.
        assert!(list.take(cap).is_some());
        assert!(list.give(Vec::with_capacity(cap)).is_none());
    }

    #[test]
    fn small_blobs_never_enter_the_free_list() {
        for ix in 0..8 {
            drop(encode("g", &payload_step(ix, &noise(RECYCLE_MIN / 4, ix))));
            drop(encode("g", &StepData::new(ix)));
        }
        // Whatever the tests running beside this one have returned, nothing
        // below the threshold is in the list.
        let free = FREE.lock().unwrap();
        assert!(free.bufs.iter().all(|b| b.capacity() >= RECYCLE_MIN));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the process-wide free list is shared state: only real threads can race on it"
    )]
    fn concurrent_encoders_round_trip_every_blob() {
        // Both threads take from and return to the one list, with blobs of
        // one size so each can be handed the other's buffers.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for thread in 0..2u64 {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let mut held = Vec::new();
                    for ix in 0..if cfg!(miri) { 4 } else { 200 } {
                        let payload = noise(RECYCLE_MIN + 4096, thread << 32 | ix);
                        let blob = encode("g", &payload_step(ix, &payload));
                        assert_eq!(checksum_serial(&blob[BODY..]).to_le_bytes(), blob[4..BODY]);
                        let back = decode(blob.clone()).expect("own blob decodes").data;
                        assert_eq!(back.step(), ix);
                        assert_eq!(back.value("payload").unwrap().bytes().as_ref(), payload);
                        // Hold a few so drops and takes interleave unevenly.
                        held.push((blob, payload));
                        if held.len() == 3 {
                            for (blob, payload) in held.drain(..) {
                                let back = decode(blob).expect("held blob decodes").data;
                                assert_eq!(
                                    back.value("payload").unwrap().bytes().as_ref(),
                                    payload
                                );
                            }
                        }
                    }
                });
            }
        });
        let free = FREE.lock().unwrap();
        assert!(free.bytes <= RETAIN_MAX);
        assert_eq!(free.bytes, free.bufs.iter().map(Vec::capacity).sum::<usize>());
    }
}
