//! Multi-step BP-lite container files.
//!
//! A run writes many output steps; storing one file per step (as
//! [`crate::FileMethod`] does) is simple but unkind to parallel file
//! systems, so a container file appends framed step blobs. Layout:
//!
//! ```text
//! "BPC1" | frame*
//! frame  = len:u64 | bp-lite blob (self-describing, checksummed)
//! ```
//!
//! There is no footer index: the length prefixes are the index. A reader
//! walks them on open, so a file is readable while its writer is still
//! appending, and after that writer died mid-frame, up to its last whole
//! frame. Each blob's checksum is verified when the step is read.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::bp::{self, BpStep};
use crate::group::StepData;

const MAGIC: &[u8; 4] = b"BPC1";

/// Errors reading a container file.
#[derive(Debug)]
pub enum BpFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a BP container (too short, bad magic), or a position past the
    /// last whole frame.
    Malformed(&'static str),
    /// A step blob failed to decode.
    Step(bp::BpError),
}

impl std::fmt::Display for BpFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpFileError::Io(e) => write!(f, "i/o error: {e}"),
            BpFileError::Malformed(what) => write!(f, "malformed container: {what}"),
            BpFileError::Step(e) => write!(f, "bad step blob: {e}"),
        }
    }
}

impl std::error::Error for BpFileError {}

impl From<std::io::Error> for BpFileError {
    fn from(e: std::io::Error) -> Self {
        BpFileError::Io(e)
    }
}

/// Appending writer for a container file. Every appended step is readable
/// as soon as `append` returns, whether or not [`Self::finalize`] runs.
pub struct BpFileWriter {
    file: File,
    path: PathBuf,
}

impl BpFileWriter {
    /// Creates (truncates) a container file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<BpFileWriter> {
        let mut file = File::create(path.as_ref())?;
        file.write_all(MAGIC)?;
        Ok(BpFileWriter { file, path: path.as_ref().to_path_buf() })
    }

    /// The path being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one step.
    pub fn append(&mut self, group_name: &str, step: &StepData) -> std::io::Result<()> {
        let blob = bp::encode(group_name, step);
        self.file.write_all(&(blob.len() as u64).to_le_bytes())?;
        self.file.write_all(&blob)
    }

    /// Syncs the appended steps to stable storage and closes the file.
    pub fn finalize(self) -> std::io::Result<PathBuf> {
        self.file.sync_data()?;
        Ok(self.path)
    }
}

/// Random-access reader over a container file's whole frames.
pub struct BpFileReader {
    file: File,
    frames: Vec<(u64, u64)>, // (blob offset, blob len)
    torn: u64,
}

impl BpFileReader {
    /// Opens a container file and walks its frames. A frame counts iff its
    /// length prefix is whole, non-zero and fits the bytes that follow; the
    /// walk stops at the first frame that is not, and the bytes from there
    /// on are [`Self::torn_bytes`].
    pub fn open(path: impl AsRef<Path>) -> Result<BpFileReader, BpFileError> {
        let mut file = File::open(path)?;
        let total = file.metadata()?.len();
        if total < MAGIC.len() as u64 {
            return Err(BpFileError::Malformed("file too short"));
        }
        let mut head = [0u8; 4];
        file.read_exact(&mut head)?;
        if &head != MAGIC {
            return Err(BpFileError::Malformed("bad magic"));
        }

        let mut frames = Vec::new();
        let mut end = MAGIC.len() as u64;
        let mut prefix = [0u8; 8];
        while total - end >= 8 {
            file.seek(SeekFrom::Start(end))?;
            file.read_exact(&mut prefix)?;
            let len = u64::from_le_bytes(prefix);
            if len == 0 || len > total - end - 8 {
                break;
            }
            frames.push((end + 8, len));
            end += 8 + len;
        }
        Ok(BpFileReader { file, frames, torn: total - end })
    }

    /// Number of whole frames (steps) in the file.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when the file holds no whole frame.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Bytes after the last whole frame: a frame its writer did not
    /// finish, or anything that does not parse as one. Zero for a file
    /// whose writer appended cleanly.
    pub fn torn_bytes(&self) -> u64 {
        self.torn
    }

    /// Reads the `ix`-th stored step, in write order, verifying its blob.
    pub fn read_at(&mut self, ix: usize) -> Result<BpStep, BpFileError> {
        let &(offset, len) =
            self.frames.get(ix).ok_or(BpFileError::Malformed("position out of range"))?;
        self.file.seek(SeekFrom::Start(offset))?;
        let mut raw = vec![0u8; len as usize];
        self.file.read_exact(&mut raw)?;
        bp::decode(Bytes::from(raw)).map_err(BpFileError::Step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Group;
    use crate::types::{DataType, Dims, Value};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bpfile-{}-{}", std::process::id(), name))
    }

    fn sample_step(ix: u64) -> StepData {
        let mut g = Group::new("g");
        g.define_var("x", DataType::F64);
        let mut s = StepData::new(ix);
        let data = vec![ix as f64; 4];
        s.write(&g, "x", Value::from_f64(&data, Dims::local1d(4)).unwrap()).unwrap();
        s
    }

    /// Writes steps `ixs` to `path` and returns the end offset of each
    /// frame.
    fn write_steps(path: &Path, ixs: &[u64]) -> Vec<u64> {
        let mut w = BpFileWriter::create(path).unwrap();
        let mut ends = Vec::new();
        for &ix in ixs {
            w.append("g", &sample_step(ix)).unwrap();
            ends.push(std::fs::metadata(path).unwrap().len());
        }
        w.finalize().unwrap();
        ends
    }

    #[test]
    fn write_then_random_access() {
        let path = tmp("roundtrip");
        write_steps(&path, &[3, 7, 11]);
        let mut r = BpFileReader::open(&path).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.torn_bytes(), 0);
        let s7 = r.read_at(1).unwrap();
        assert_eq!(s7.data.step(), 7);
        assert_eq!(s7.data.value("x").unwrap().as_f64().unwrap(), &[7.0; 4]);
        assert_eq!(r.read_at(2).unwrap().data.step(), 11);
        assert!(matches!(r.read_at(3), Err(BpFileError::Malformed(_))));
        std::fs::remove_file(&path).ok();
    }

    /// A container cut at any byte opens to exactly the frames wholly
    /// before the cut; the rest is reported as torn, never read or
    /// panicked on. A cut inside the magic is a typed error. The cuts are
    /// made by growing a copy one byte at a time, as a reader sees a file
    /// its writer is still appending to.
    #[test]
    fn every_cut_opens_to_its_whole_frame_prefix() {
        let path = tmp("cuts");
        let ends = write_steps(&path, &[0, 1, 2]);
        let full = std::fs::read(&path).unwrap();
        assert_eq!(*ends.last().unwrap(), full.len() as u64);
        let mut grown = File::create(&path).unwrap();
        for cut in 0..=full.len() {
            if cut > 0 {
                grown.write_all(&full[cut - 1..cut]).unwrap();
            }
            let opened = BpFileReader::open(&path);
            if cut < 4 {
                assert!(
                    matches!(opened, Err(BpFileError::Malformed("file too short"))),
                    "cut at {cut}"
                );
                continue;
            }
            let mut r = opened.unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            let whole: Vec<u64> = ends.iter().copied().filter(|&e| e <= cut as u64).collect();
            assert_eq!(r.len(), whole.len(), "cut at {cut}");
            assert_eq!(r.torn_bytes(), cut as u64 - whole.last().copied().unwrap_or(4));
            for ix in 0..r.len() {
                assert_eq!(r.read_at(ix).unwrap().data.step(), ix as u64, "cut at {cut}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dropped_writer_leaves_every_appended_step_readable() {
        let path = tmp("dropped");
        {
            let mut w = BpFileWriter::create(&path).unwrap();
            for ix in 0..3 {
                w.append("g", &sample_step(ix)).unwrap();
            }
        }
        let mut r = BpFileReader::open(&path).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.torn_bytes(), 0);
        for ix in 0..3 {
            assert_eq!(r.read_at(ix).unwrap().data.step(), ix as u64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_length_frame_ends_the_walk() {
        let path = tmp("zero");
        write_steps(&path, &[0]);
        let mut raw = std::fs::read(&path).unwrap();
        let whole = raw.len();
        let frame = raw[4..whole].to_vec();
        raw.extend_from_slice(&0u64.to_le_bytes());
        // A valid frame after the zero-length one is not reached.
        raw.extend_from_slice(&frame);
        std::fs::write(&path, &raw).unwrap();
        let r = BpFileReader::open(&path).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.torn_bytes(), (raw.len() - whole) as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_malformed() {
        let path = tmp("magic");
        std::fs::write(&path, b"BPX1").unwrap();
        assert!(matches!(BpFileReader::open(&path), Err(BpFileError::Malformed("bad magic"))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_container_is_valid() {
        let path = tmp("empty");
        BpFileWriter::create(&path).unwrap().finalize().unwrap();
        let r = BpFileReader::open(&path).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.torn_bytes(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_step_detected_at_read() {
        let path = tmp("corrupt");
        write_steps(&path, &[0]);
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
