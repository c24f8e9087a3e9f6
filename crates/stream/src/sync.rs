//! Sync primitives behind the `--cfg loom` seam.
//!
//! The step log's gates — retention, windows, pause — are one
//! mutex/condvar protocol, and the engine decides under that mutex which
//! threads to wake once it is released. Building with
//! `RUSTFLAGS="--cfg loom"` swaps `parking_lot` for the loom stand-in,
//! whose primitives inject seeded preemption points so `loom::model` can
//! explore interleavings (see `tests/loom_gate.rs` and ci.sh's loom job).
//! The two export sets are API-compatible: non-poisoning `lock()`,
//! condvar waits by `&mut MutexGuard`. The stand-in comes through
//! datatap's re-export, the one copy both transports are checked against.

#[cfg(loom)]
pub(crate) use datatap::loom::sync::{Condvar, Mutex, MutexGuard};

#[cfg(not(loom))]
pub(crate) use parking_lot::{Condvar, Mutex, MutexGuard};
