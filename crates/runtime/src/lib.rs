//! A sharded, batched delegation runtime serving concurrent-object traffic
//! over the PPoPP'14 critical-section executors.
//!
//! `mpsync-core` reproduces the paper's *constructions* — MP-SERVER,
//! HYBCOMB, CC-SYNCH, locks — each protecting a single state. This crate
//! asks the systems question one level up: what does a *service* built from
//! those parts look like? The answer mirrors how the paper scales past one
//! servicing core (§5.4 stripes a counter across its two memory
//! controllers):
//!
//! * **sharding** — keys are hash-striped across N delegation shards
//!   ([`shard_for`]); each shard owns a partition of the key space and one
//!   copy of the sequential state, so per-key operations are linearizable
//!   and sessions see their own per-key order preserved;
//! * **one API, five backends** — each shard is served by any [`Backend`]:
//!   a batched MP-SERVER executor (the shards share
//!   `min(shards, max(1, CPUs − 1))` polling threads — a shard is a unit of
//!   state and ordering, a thread a unit of CPU, and one CPU is the
//!   callers'), HYBCOMB or CC-SYNCH combining,
//!   a plain MCS lock, or [`Backend::Adaptive`], which live-switches each
//!   shard between lock, combining, and server modes as its contention
//!   moves (`src/adaptive.rs`, DESIGN.md §14). Application code is
//!   identical across them;
//! * **adaptive batching** — the paper's `MAX_OPS` combining degree (§5.1)
//!   becomes runtime configuration ([`RuntimeConfig::max_batch`]); the
//!   MP-SERVER backend drains up to that many queued requests per service
//!   round and the achieved batch sizes are reported in [`RuntimeStats`];
//! * **bounded submission** — every shard has a bounded in-flight window
//!   ([`RuntimeConfig::queue_depth`]); beyond it, submissions block or fail
//!   ([`SubmitPolicy`]) — never queue unboundedly;
//! * **graceful shutdown** — [`Runtime::shutdown`] closes admissions,
//!   drains every in-flight operation (applied exactly once), then stops
//!   the executors and hands back the final shard states.
//!
//! Two ready-made services ship in [`objects`]: [`ShardedCounter`] and
//! [`ShardedKvStore`].
//!
//! ```
//! use mpsync_runtime::{Backend, RuntimeConfig, ShardedCounter};
//!
//! let svc = ShardedCounter::new(
//!     RuntimeConfig::new(2).with_backend(Backend::MpServer),
//! );
//! let mut a = svc.session().unwrap();
//! a.fetch_inc(7).unwrap();
//! a.fetch_inc(7).unwrap();
//! drop(a);
//! let (totals, stats) = svc.shutdown();
//! assert_eq!(totals[&7], 2);
//! assert_eq!(stats.total_ops(), 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod adaptive;
mod config;
mod control;
mod drive;
pub mod objects;
mod router;
mod runtime;
mod shard;
mod stats;
pub mod timer;

pub use config::{Backend, OpMask, RuntimeConfig, SubmitPolicy};
pub use control::RuntimeError;
pub use drive::ShardDriver;
pub use mpsync_telemetry::Log2Hist;
pub use objects::{
    BoundCounter, CounterSession, KvSession, ShardedCounter, ShardedKvStore, StateExport,
};
pub use router::{pack, probe_key, shard_for, unpack, MAX_KEY, MAX_OPCODE, OP_BITS};
pub use runtime::{KeyedDispatch, Runtime, Session, ShutdownReport};
pub use stats::{RuntimeStats, ShardStats};
pub use timer::{mono_ns, Expire, Expired, TimerWheel};
