//! # adios — componentized I/O API with swappable transports
//!
//! A reimplementation of the slice of ADIOS the paper depends on: I/O
//! *groups* declare variable schemas once ([`Group`]); applications write
//! [`StepData`] records through an [`Output`] bound to a transport
//! [`Method`] (file, in-memory staging endpoint, or null); the *attribute
//! system* carries the data-processing provenance the container runtime
//! stamps on steps when analytics are moved offline; and the BP-lite codec
//! ([`bp`]) gives a self-describing, checksummed on-disk format.
//!
//! The crucial property — the one container management exploits — is that
//! the method bound to an output can be swapped mid-run without touching
//! the writer: [`Output::switch_method`].
//!
//! ## Example
//! ```
//! use adios::{AttrValue, DataType, Dims, Group, Output, MemMethod, MemSink, StepData, Value};
//!
//! let mut group = Group::new("atoms");
//! group.define_var("x", DataType::F64);
//!
//! let sink = MemSink::new();
//! let mut out = Output::open(group.clone(), Box::new(MemMethod::new(sink.clone())));
//!
//! let mut step = StepData::new(0);
//! step.write(&group, "x", Value::from_f64(&[0.0, 0.5], Dims::local1d(2)).unwrap()).unwrap();
//! step.set_attr("processed_by", AttrValue::Str("helper".into()));
//! out.write_step(&step).unwrap();
//!
//! let decoded = sink.decode(0).unwrap();
//! assert_eq!(decoded.data.value("x").unwrap().as_f64().unwrap(), &[0.0, 0.5]);
//! ```

#![warn(missing_docs)]

pub mod bp;
pub mod bpfile;
mod group;
mod method;
mod types;

pub use bpfile::{BpFileReader, BpFileWriter};
pub use group::{AttrValue, Group, StepData, VarDecl, WriteError};
pub use method::{FileMethod, MemMethod, MemSink, Method, NullMethod, Output};
pub use types::{DataType, Dims, Value, ValueError};
