//! mpsync-net: the wire-facing serving layer over the sharded delegation
//! runtime.
//!
//! The paper's delegation designs (MP-SERVER and friends) turn shared-state
//! operations into messages to a servicing core; this crate extends that
//! same shape one hop further, to network peers. A [`NetServer`] listens on
//! TCP and/or Unix-domain sockets and speaks a length-prefixed binary
//! protocol ([`frame`]); each connection's requests funnel into one runtime
//! [`Session`](mpsync_runtime::Session), so a remote client gets exactly the
//! keyed-dispatch semantics a local session gets — per-key FIFO order,
//! bounded shard windows, and explicit backpressure.
//!
//! Layer map:
//!
//! ```text
//!   NetClient ── frames over TCP/UDS ──▶ NetServer
//!                                          │ one acceptor thread per listener
//!                                          ▼
//!                           one thread per connection (net-conn-<id>):
//!                           read everything buffered, decode a run,
//!                           validate, Session::submit_batch,
//!                           encode replies in request order, one write
//!                                          │ sharded delegation
//!                                          ▼
//!                           MP-SERVER / combiner / lock / adaptive,
//!                           executed by the service's own threads
//!                           (rt-serve-<j>) or by the submitting thread
//! ```
//!
//! The serving model is thread-per-connection, and only that: a connection
//! thread blocks in `read` with a [`ServerConfig::poll_interval`] timeout
//! (how soon it notices shutdown), so client-side pipelining turns straight
//! into per-shard batches at one cross-thread handoff per shard per turn.
//! An epoll reactor per shard was measured against it and lost (ROADMAP,
//! "Negative results"); the single event loop the cluster already runs is
//! where a many-connection model would come from.
//!
//! Properties the tests pin down:
//!
//! * **Exactly-once for acked ops** — a response flushed to the peer means
//!   the op was applied exactly once; a connection that dies mid-flight may
//!   leave at most its unacked tail in doubt.
//! * **End-to-end backpressure** — `SubmitPolicy::Fail` surfaces a full
//!   shard window as a [`Status`](frame::Status)`::Busy` response (clients
//!   retry with jittered [`Backoff`]); `SubmitPolicy::Block` parks the
//!   connection thread, pausing socket reads, bounding buffering at every
//!   hop.
//! * **Graceful drain** — [`NetServer::shutdown`] answers everything already
//!   received, flushes, sends FIN, and lingers briefly so peers get their
//!   final acks instead of a reset.
//! * **No wire-triggered panics** — malformed frames, oversized frames, and
//!   out-of-range keys/opcodes come back as typed errors or `BadRequest`
//!   responses; socket errors tear down one connection, never the process.
//!
//! The `netbench` binary (in `src/bin/`) drives all of this as a load
//! generator: closed- and open-loop, Zipf key skew, latency histograms via
//! mpsync-telemetry, plus a self-checking smoke mode used by CI.

#![warn(missing_docs)]

pub mod frame;

mod client;
mod server;
#[cfg(target_os = "linux")]
mod sys;

pub use client::{AdminClient, Backoff, ClientError, ClientReceiver, ClientSender, NetClient};
pub use server::{
    DrainReport, NetServer, ServerBuilder, ServerConfig, Service, STAT_SNAPSHOT_VERSION,
};
#[cfg(target_os = "linux")]
pub use sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
