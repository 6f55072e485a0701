//! # mpsync — thread synchronization via hardware message passing
//!
//! Umbrella crate for the reproduction of *Leveraging Hardware Message
//! Passing for Efficient Thread Synchronization* (Petrović, Ropars, Schiper —
//! PPoPP 2014). It re-exports the component crates:
//!
//! * [`udn`] — software emulation of TILE-Gx-style hardware message queues;
//! * [`sync`] — the paper's constructions: MP-SERVER and HYBCOMB, plus the
//!   shared-memory baselines SHM-SERVER, CC-SYNCH, and classical locks, and
//!   Figure 5's queues and stacks, which tilesim runs for that figure;
//! * [`objects`] — linearizable concurrent objects (counters, queues,
//!   stacks) built on those constructions, plus the nonblocking comparators
//!   (LCRQ, Treiber stack) from the paper's evaluation;
//! * [`runtime`] — a sharded, batched delegation runtime that serves keyed
//!   object traffic over any of the constructions;
//! * [`apps`] — a served-application suite over the runtime (rate limiter,
//!   leaderboard, priority queue, TTL session store, multi-key ledger)
//!   driven by a per-shard timer wheel;
//! * [`net`] — a wire-facing serving layer (TCP / Unix sockets) exposing the
//!   runtime's keyed API over a length-prefixed binary protocol, with the
//!   `netbench` load generator;
//! * [`lincheck`] — the linearizability checker used by the test suite;
//! * [`tilesim`] — a discrete-event simulator of a TILE-Gx-like hybrid
//!   manycore used to regenerate the paper's figures.
//!
//! See `README.md` for a tour and `DESIGN.md`/`EXPERIMENTS.md` for the
//! reproduction methodology.

pub use mpsync_apps as apps;
pub use mpsync_core as sync;
pub use mpsync_lincheck as lincheck;
pub use mpsync_net as net;
pub use mpsync_objects as objects;
pub use mpsync_runtime as runtime;
pub use mpsync_udn as udn;
pub use tilesim;
