//! # geoproof-wire
//!
//! Wire-level transport for GeoProof:
//!
//! * [`codec`] — length-prefixed frames for challenge/response and audit
//!   control messages, with strict parsing (size caps, UTF-8 checks,
//!   truncation detection);
//! * [`tcp`] — the shared segment store, the frame reader and a
//!   wall-clock timing client, so the timed challenge–response phase
//!   can run over a real socket rather than the simulator;
//! * [`mux`] — the prover server behind `geoproof serve`:
//!   [`MuxProverServer`] multiplexes audit sessions over many
//!   connections (sharded session table, per-session statistics) and
//!   serves static and dynamic files alike.
//!
//! There is one server and one execution model: every connection is a
//! non-blocking state machine on a single `geoproof_reactor` epoll
//! thread, so concurrency is bounded by file descriptors rather than
//! stacks. A thread-per-connection driver of the same protocol code
//! survives only as a hidden test oracle (`oracle::ThreadedOracle`).
//! See `crates/wire/docs/serving.md` for the architecture.
//!
//! # Examples
//!
//! ```
//! use geoproof_wire::codec::WireMessage;
//!
//! let msg = WireMessage::Challenge { file_id: "f".into(), index: 7 };
//! let frame = msg.encode();
//! assert_eq!(WireMessage::decode(&frame[4..]), Ok(msg));
//! ```

pub mod codec;
pub mod mux;
#[doc(hidden)]
pub mod oracle;
mod reactor_serve;
pub mod tcp;

pub use codec::{read_frame, write_frame, CodecError, WireMessage, MAX_FRAME};
pub use geoproof_reactor::raise_nofile_limit;
pub use mux::{MuxProverServer, MuxStats, SessionKey, SessionStats, MAX_SESSIONS_PER_CONNECTION};
pub use tcp::{SegmentStore, TcpChallenger};
