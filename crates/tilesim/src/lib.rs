//! `tilesim` — a discrete-event simulator of a TILE-Gx-like *hybrid*
//! manycore: cache-coherent shared memory plus per-core hardware message
//! queues.
//!
//! The PPoPP'14 paper this repository reproduces evaluates its
//! synchronization constructions on real TILE-Gx8036 silicon, using per-core
//! event counters to attribute CPU stalls to the cache coherence protocol.
//! Without that hardware, the only way to regenerate the paper's
//! *quantitative* results — throughput crossovers, stall breakdowns,
//! combining-rate dynamics — is to simulate the mechanisms they arise from.
//! This crate does exactly that:
//!
//! * a 6×6 **mesh** with hop-proportional communication latencies
//!   ([`MachineConfig`]);
//! * a directory-based **coherence protocol** maintaining the
//!   single-writer/multiple-reader invariant of the paper's §2 model, with
//!   every remote memory reference (RMR) charged to the issuing core as a
//!   stall ([`mem`]);
//! * **atomics executed at two memory controllers** — the TILE-Gx property
//!   behind the paper's observations about single-thread HYBCOMB latency
//!   (§5.3) and LCRQ's false serialization (§5.4);
//! * **hardware message queues** with asynchronous sends, local-buffer
//!   receives, 118-word capacity and back-pressure;
//! * a deterministic, single-threaded discrete-event **engine**
//!   ([`Engine`]) that runs simulated threads written as `async` Rust
//!   closures and polls them in place;
//! * the four constructions ([`algos`]) and Figure 5's queues and stacks,
//!   LCRQ and the Treiber stack among them, run from `mpsync-core`'s own
//!   code, whose [`Machine`] trait [`Ctx`] implements (only the spin locks
//!   are written out here); and every workload in the paper's evaluation
//!   ([`workload`]).
//!
//! The simulator implements the paper's formal model (sequentially
//! consistent memory, bounded-but-unknown message delivery), so the *shape*
//! of each figure emerges from the same mechanisms the paper identifies.
//! Absolute cycle numbers are calibrated to the paper's magnitudes, not to
//! real silicon.
//!
//! # Example: two cores, one message
//!
//! ```
//! use tilesim::{Engine, MachineConfig, Metric};
//!
//! let mut e = Engine::new(MachineConfig::tile_gx8036());
//! e.add_proc(async |ctx| {
//!     let req = ctx.receive(3).await;
//!     assert_eq!((req[1], req[2]), (1, 41));
//!     ctx.send(req[0] as usize, &[req[2] + 1]).await;
//! });
//! e.add_proc(async |ctx| {
//!     ctx.send(0, &[ctx.core() as u64, 1, 41]).await;
//!     assert_eq!(ctx.receive(1).await, [42]);
//!     ctx.record(Metric::Ops, 1);
//! });
//! let result = e.run(100_000);
//! assert_eq!(result.metric_sum(Metric::Ops), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algos;
mod config;
mod engine;
pub mod mem;
mod stats;
pub mod workload;

pub use config::MachineConfig;
pub use engine::{Ctx, Engine};
pub use mem::{line_of, Addr, WORDS_PER_LINE};
pub use mpsync_core::machine::{Backoff, Machine, Until};
pub use stats::{
    lat_bucket, lat_bucket_bound, CoreStats, HostStats, Metric, SimResult, LAT_BUCKETS, N_METRICS,
};
