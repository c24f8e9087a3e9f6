//! Multi-step BP-lite container files.
//!
//! A run writes many output steps; storing one file per step (as
//! [`crate::FileMethod`] does) is simple but unkind to parallel file
//! systems, so — like the real BP format — a container file appends
//! framed step blobs and finishes with a footer index that lets readers
//! seek directly to any step without scanning. Layout:
//!
//! ```text
//! "BPC1" | frame* | index | index_offset:u64 | "BPC1"
//! frame  = len:u64 | bp-lite blob (self-describing, checksummed)
//! index  = count:u64 | (step:u64, offset:u64, len:u64)*
//! ```

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::{Buf, Bytes};

use crate::bp::{self, BpStep};
use crate::group::{Group, StepData};
use crate::method::Method;

const MAGIC: &[u8; 4] = b"BPC1";

/// Errors reading a container file.
#[derive(Debug)]
pub enum BpFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a BP container (bad magic, truncated footer, bad index).
    Malformed(&'static str),
    /// A step blob failed to decode.
    Step(bp::BpError),
    /// The requested step is not present.
    NoSuchStep(u64),
}

impl std::fmt::Display for BpFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpFileError::Io(e) => write!(f, "i/o error: {e}"),
            BpFileError::Malformed(what) => write!(f, "malformed container: {what}"),
            BpFileError::Step(e) => write!(f, "bad step blob: {e}"),
            BpFileError::NoSuchStep(s) => write!(f, "step {s} not in file"),
        }
    }
}

impl std::error::Error for BpFileError {}

impl From<std::io::Error> for BpFileError {
    fn from(e: std::io::Error) -> Self {
        BpFileError::Io(e)
    }
}

/// Appending writer for a container file.
pub struct BpFileWriter {
    file: File,
    path: PathBuf,
    index: Vec<(u64, u64, u64)>, // (step, offset, len)
    offset: u64,
}

impl BpFileWriter {
    /// Creates (truncates) a container file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<BpFileWriter> {
        let mut file = File::create(path.as_ref())?;
        file.write_all(MAGIC)?;
        Ok(BpFileWriter {
            file,
            path: path.as_ref().to_path_buf(),
            index: Vec::new(),
            offset: 4,
        })
    }

    /// The path being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one step.
    pub fn append(&mut self, group_name: &str, step: &StepData) -> std::io::Result<()> {
        let blob = bp::encode(group_name, step);
        self.file.write_all(&(blob.len() as u64).to_le_bytes())?;
        self.file.write_all(&blob)?;
        self.index.push((step.step(), self.offset + 8, blob.len() as u64));
        self.offset += 8 + blob.len() as u64;
        Ok(())
    }

    /// Writes the footer index and closes the file.
    pub fn finalize(mut self) -> std::io::Result<PathBuf> {
        let index_offset = self.offset;
        self.file.write_all(&(self.index.len() as u64).to_le_bytes())?;
        for &(step, offset, len) in &self.index {
            self.file.write_all(&step.to_le_bytes())?;
            self.file.write_all(&offset.to_le_bytes())?;
            self.file.write_all(&len.to_le_bytes())?;
        }
        self.file.write_all(&index_offset.to_le_bytes())?;
        self.file.write_all(MAGIC)?;
        self.file.flush()?;
        Ok(self.path)
    }
}

/// Random-access reader over a finalized container file.
pub struct BpFileReader {
    file: File,
    index: Vec<(u64, u64, u64)>,
}

impl BpFileReader {
    /// Opens and validates a container file.
    pub fn open(path: impl AsRef<Path>) -> Result<BpFileReader, BpFileError> {
        let mut file = File::open(path)?;
        let total = file.seek(SeekFrom::End(0))?;
        if total < 4 + 8 + 8 + 4 {
            return Err(BpFileError::Malformed("file too short"));
        }

        let mut head = [0u8; 4];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut head)?;
        if &head != MAGIC {
            return Err(BpFileError::Malformed("bad leading magic"));
        }

        let mut tail = [0u8; 12];
        file.seek(SeekFrom::End(-12))?;
        file.read_exact(&mut tail)?;
        if &tail[8..] != MAGIC {
            return Err(BpFileError::Malformed("bad trailing magic"));
        }
        let index_offset = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
        if index_offset >= total {
            return Err(BpFileError::Malformed("index offset out of range"));
        }

        file.seek(SeekFrom::Start(index_offset))?;
        let mut count_buf = [0u8; 8];
        file.read_exact(&mut count_buf)?;
        let count = u64::from_le_bytes(count_buf);
        let index_bytes = count
            .checked_mul(24)
            .ok_or(BpFileError::Malformed("index count overflow"))?;
        // count, entries, then the trailing index offset and magic.
        let index_end = index_offset
            .checked_add(8)
            .and_then(|n| n.checked_add(index_bytes))
            .and_then(|n| n.checked_add(12));
        if index_end != Some(total) {
            return Err(BpFileError::Malformed("index size mismatch"));
        }
        let mut raw = vec![0u8; index_bytes as usize];
        file.read_exact(&mut raw)?;
        let mut buf = Bytes::from(raw);
        let mut index = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let step = buf.get_u64_le();
            let offset = buf.get_u64_le();
            let len = buf.get_u64_le();
            if offset.checked_add(len).is_none_or(|end| end > total) {
                return Err(BpFileError::Malformed("frame out of range"));
            }
            index.push((step, offset, len));
        }
        Ok(BpFileReader { file, index })
    }

    /// Number of steps stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the file stores no steps.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The stored step indices, in write order.
    pub fn steps(&self) -> impl Iterator<Item = u64> + '_ {
        self.index.iter().map(|&(s, _, _)| s)
    }

    /// Reads the `ix`-th stored step (by position, not step index).
    pub fn read_at(&mut self, ix: usize) -> Result<BpStep, BpFileError> {
        let &(_, offset, len) =
            self.index.get(ix).ok_or(BpFileError::Malformed("position out of range"))?;
        self.file.seek(SeekFrom::Start(offset))?;
        let mut raw = vec![0u8; len as usize];
        self.file.read_exact(&mut raw)?;
        bp::decode(Bytes::from(raw)).map_err(BpFileError::Step)
    }

    /// Reads the stored step with output-step index `step`.
    pub fn read_step(&mut self, step: u64) -> Result<BpStep, BpFileError> {
        let ix = self
            .index
            .iter()
            .position(|&(s, _, _)| s == step)
            .ok_or(BpFileError::NoSuchStep(step))?;
        self.read_at(ix)
    }
}

/// A [`Method`] writing all steps of a group into one container file,
/// finalized on close.
pub struct BpFileMethod {
    writer: Option<BpFileWriter>,
}

impl BpFileMethod {
    /// Creates the method targeting `path`.
    pub fn new(path: impl AsRef<Path>) -> std::io::Result<BpFileMethod> {
        Ok(BpFileMethod { writer: Some(BpFileWriter::create(path)?) })
    }
}

impl Method for BpFileMethod {
    fn write_step(&mut self, group: &Group, step: &StepData) -> std::io::Result<u64> {
        let w = self
            .writer
            .as_mut()
            .ok_or_else(|| std::io::Error::other("container already finalized"))?;
        w.append(group.name(), step)?;
        Ok(step.payload_bytes())
    }

    fn close(&mut self) -> std::io::Result<()> {
        if let Some(w) = self.writer.take() {
            w.finalize()?;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "BP"
    }
}

impl Drop for BpFileMethod {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DataType, Dims, Value};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bpfile-{}-{}", std::process::id(), name))
    }

    fn sample_step(ix: u64) -> (Group, StepData) {
        let mut g = Group::new("g");
        g.define_var("x", DataType::F64);
        let mut s = StepData::new(ix);
        let data = vec![ix as f64; 4];
        s.write(&g, "x", Value::from_f64(&data, Dims::local1d(4)).unwrap()).unwrap();
        (g, s)
    }

    #[test]
    fn write_then_random_access() {
        let path = tmp("roundtrip");
        let mut w = BpFileWriter::create(&path).unwrap();
        for ix in [3u64, 7, 11] {
            let (_, s) = sample_step(ix);
            w.append("g", &s).unwrap();
        }
        w.finalize().unwrap();

        let mut r = BpFileReader::open(&path).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.steps().collect::<Vec<_>>(), vec![3, 7, 11]);
        let s7 = r.read_step(7).unwrap();
        assert_eq!(s7.data.value("x").unwrap().as_f64().unwrap(), &[7.0; 4]);
        let s11 = r.read_at(2).unwrap();
        assert_eq!(s11.data.step(), 11);
        assert!(matches!(r.read_step(99), Err(BpFileError::NoSuchStep(99))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn method_finalizes_on_close() {
        let path = tmp("method");
        let (g, s) = sample_step(0);
        {
            let mut m = BpFileMethod::new(&path).unwrap();
            m.write_step(&g, &s).unwrap();
            m.close().unwrap();
        }
        let r = BpFileReader::open(&path).unwrap();
        assert_eq!(r.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let path = tmp("trunc");
        let mut w = BpFileWriter::create(&path).unwrap();
        let (_, s) = sample_step(0);
        w.append("g", &s).unwrap();
        w.finalize().unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [3usize, 10, full.len() - 5] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(BpFileReader::open(&path).is_err(), "cut at {cut} must fail");
        }
        std::fs::remove_file(&path).ok();
    }

    /// A container with no frames and a hand-written index and footer.
    fn write_footer_only(path: &Path, count: u64, entries: &[(u64, u64, u64)]) {
        let mut raw = MAGIC.to_vec();
        raw.extend_from_slice(&count.to_le_bytes());
        for &(step, offset, len) in entries {
            for field in [step, offset, len] {
                raw.extend_from_slice(&field.to_le_bytes());
            }
        }
        raw.extend_from_slice(&4u64.to_le_bytes());
        raw.extend_from_slice(MAGIC);
        std::fs::write(path, raw).unwrap();
    }

    #[test]
    fn footer_fields_that_overflow_are_malformed() {
        let path = tmp("overflow");
        // offset + len wraps to 6, inside the file.
        write_footer_only(&path, 1, &[(0, u64::MAX - 1, 8)]);
        assert!(matches!(
            BpFileReader::open(&path),
            Err(BpFileError::Malformed("frame out of range"))
        ));
        // count * 24 fits a u64; adding the index offset to it does not.
        write_footer_only(&path, u64::MAX / 24, &[]);
        assert!(matches!(
            BpFileReader::open(&path),
            Err(BpFileError::Malformed("index size mismatch"))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_container_is_valid() {
        let path = tmp("empty");
        BpFileWriter::create(&path).unwrap().finalize().unwrap();
        let r = BpFileReader::open(&path).unwrap();
        assert!(r.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_step_detected_at_read() {
        let path = tmp("corrupt");
        let mut w = BpFileWriter::create(&path).unwrap();
        let (_, s) = sample_step(0);
        w.append("g", &s).unwrap();
        w.finalize().unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a byte in the middle of the frame payload.
        let mid = 40;
        raw[mid] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        let mut r = BpFileReader::open(&path).unwrap();
        assert!(matches!(r.read_at(0), Err(BpFileError::Step(_))));
        std::fs::remove_file(&path).ok();
    }
}
