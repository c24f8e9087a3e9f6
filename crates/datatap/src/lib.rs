//! # datatap — asynchronous staging transport
//!
//! A reimplementation of the DataTap/DataStager transport the paper moves
//! all inter-container data through. Its defining semantics:
//!
//! * **metadata push, data pull** — writers buffer payloads locally and
//!   announce small metadata records; receivers pull the bulk data when
//!   ready ([`channel`]);
//! * **bounded staging buffers** — a full buffer blocks the writer, which
//!   is exactly the application-blocking failure container management
//!   exists to prevent;
//! * **writer pause/resume** — the consistency action the container
//!   decrease protocol waits on ([`Writer::pause`] drains announced steps
//!   so no time step is lost while a downstream container resizes). The
//!   protocol itself is written once, in [`gate`], and the stream engine
//!   is built on the same one (DESIGN.md, "One gate");
//! * **server-directed pull scheduling** — the receiver decides when pulls
//!   happen ([`PullPolicy`]), DataStager's contention-avoidance mechanism.
//!
//! The threaded implementation here carries real [`adios::StepData`]
//! payloads; [`TransportCosts`] supplies the calibrated software costs the
//! discrete-event experiments charge for the same operations.
//!
//! ## Example
//! ```
//! use datatap::channel;
//! use adios::StepData;
//!
//! let (writer, reader) = channel(4);
//! writer.try_write(StepData::new(0)).unwrap();
//! let meta = reader.peek_meta().unwrap();     // metadata arrives first
//! assert_eq!(meta.step, 0);
//! let (_, payload) = reader.pull().unwrap();  // then the data is pulled
//! assert_eq!(payload.step(), 0);
//! ```

#![warn(missing_docs)]

mod channel;
pub mod clock;
mod cost;
pub mod gate;
mod sched_reader;
mod scheduler;

pub use channel::{
    channel, channel_with_clock, channel_with_telemetry, PauseAborted, PullError, Reader,
    StepMeta, WriteError, Writer,
};
pub use clock::{Clock, ManualClock, WallClock};
pub use cost::TransportCosts;
pub use sched_reader::{PullGuard, PullSource, ScheduledReader};
pub use scheduler::PullPolicy;

/// The loom stand-in, under `--cfg loom` only, for the model suites of
/// both transports to spawn their threads from: the primitives themselves
/// are swapped in one place, [`gate`].
#[cfg(loom)]
pub use loom;
