//! Step-streaming engine: N↔M redistribution of per-writer step
//! fragments over a sealed step log.
//!
//! The staged channel ([`datatap`]) moves single-producer-group steps to
//! one consumer pool. This crate generalises that transport into the
//! paper's streaming model: a writer group of `N` ranks emits per-rank
//! *fragments* of each application step, the engine seals complete steps
//! into a bounded log, and `M` independent named reader cursors consume
//! the log concurrently — a visualization pipeline, an analytics
//! pipeline, and an archival writer can all ride one stream at their own
//! pace. Late joiners attach at the current step; a restarted reader
//! resumes its durable cursor with no step duplicated or lost; per-step
//! attributes carry provenance from writers to every reader.
//!
//! The same consumption API covers post-hoc file replay:
//! [`StepSource`] abstracts over a live [`StreamReader`] and a BP file
//! written by [`adios::BpFileWriter`], so an analysis kernel runs
//! unchanged in-situ and offline.
//!
//! Pause/resume, close/fail and the timed pulls are not a second copy of
//! the staged channel's protocol but the same code, [`datatap::gate`]
//! (DESIGN.md, "One gate"): [`StepWriter::pause`] drains through every
//! attached cursor and reports aborts as typed [`PauseAborted`] errors,
//! and timeout pulls charge their whole wait against one deadline on the
//! engine's injectable [`Clock`].

#![warn(missing_docs)]

mod engine;
mod source;

pub use engine::{
    Attach, AttachError, GlobalStep, StepWriter, StreamBuilder, StreamConfig, StreamControl,
    StreamEngine, StreamReader, StreamWriteError,
};
pub use source::{FileSource, LiveSource, SourceError, StepSource};

pub use datatap::{Clock, ManualClock, PauseAborted, PullSource, StepMeta, WallClock};
