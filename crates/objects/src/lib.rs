//! Linearizable concurrent objects from the paper's evaluation (§5):
//! counters, FIFO queues, and stacks.
//!
//! Every queue and stack of Figure 5 is `mpsync-core`'s
//! (`mpsync_core::{queue, stack}`), written once against its `Machine`
//! trait over a bounded word arena, so tilesim's Figure 5 runs the code that
//! the tests here check. This crate adds the per-thread handles:
//!
//! * **Executor-backed objects** — a *sequential* body protected by any
//!   critical-section executor from `mpsync-core` (MP-SERVER, HYBCOMB,
//!   SHM-SERVER, CC-SYNCH, or a lock): the paper's one-lock queue and
//!   coarse-lock stack, and the two-lock MS queue's two halves.
//! * **Nonblocking comparators** — LCRQ (Morrison & Afek, with the paper's
//!   TILE-Gx port: 32-bit values in 64-bit CAS cells, rings from a fixed
//!   pool reused behind per-handle hazard words) and the Treiber stack (a
//!   bounded node pool with tagged tops).
//!
//! All containers store `u64` values except [`EMPTY`] (`u64::MAX`), which is
//! reserved as the "empty" sentinel in the one-word response format, and
//! LCRQ, which stores values below `u32::MAX` exactly as the paper's port
//! did (footnote 5: without a 128-bit CAS, values shrink to 32 bits so a
//! cell fits a 64-bit CAS). Every container has a capacity, set when it is
//! built; an insert past it panics, naming it.
//!
//! Per-thread access goes through handles implementing [`ConcurrentQueue`] /
//! [`ConcurrentStack`] / [`Counter`], so benchmarks and tests are generic
//! over the implementation.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod counter;
pub mod queue;
pub mod seq;
pub mod stack;

/// Sentinel returned by dequeue/pop on an empty container and therefore not
/// storable as a value.
pub const EMPTY: u64 = u64::MAX;

/// Per-thread handle to a concurrent FIFO queue of `u64` values.
pub trait ConcurrentQueue {
    /// Appends `v` to the tail.
    ///
    /// # Panics
    ///
    /// May panic (or debug-assert) if `v == EMPTY`.
    fn enqueue(&mut self, v: u64);

    /// Removes and returns the head value, or `None` when the queue is
    /// observed empty.
    fn dequeue(&mut self) -> Option<u64>;
}

/// Per-thread handle to a concurrent LIFO stack of `u64` values.
pub trait ConcurrentStack {
    /// Pushes `v`.
    ///
    /// # Panics
    ///
    /// May panic (or debug-assert) if `v == EMPTY`.
    fn push(&mut self, v: u64);

    /// Pops the newest value, or `None` when the stack is observed empty.
    fn pop(&mut self) -> Option<u64>;
}

/// Per-thread handle to a shared fetch-and-increment counter.
pub trait Counter {
    /// Atomically increments and returns the *previous* value.
    fn fetch_inc(&mut self) -> u64;
}
