//! Critical-section executors ("universal constructions") from *Leveraging
//! Hardware Message Passing for Efficient Thread Synchronization* (Petrović,
//! Ropars, Schiper — PPoPP 2014), plus the shared-memory state of the art the
//! paper compares against.
//!
//! All executors share one model: a mutable state `S` is owned by the
//! construction, and threads submit *operations* — `(op, arg)` pairs of
//! 64-bit words, interpreted by a [`Dispatcher`] — that must execute in
//! mutual exclusion. The `(op, arg)` encoding mirrors the paper's
//! "unique opcode of the CS" optimization (§5.2), which lets the servicing
//! thread inline the per-opcode code instead of jumping through a function
//! pointer; a function-pointer-table dispatcher ([`OpTable`]) is provided for
//! the ablation of that choice.
//!
//! # The constructions
//!
//! | Type | Paper name | Mechanism |
//! |---|---|---|
//! | [`MpServer`]  | MP-SERVER  (§4.1) | dedicated server thread; requests/responses over hardware message queues |
//! | [`HybComb`]   | HYBCOMB    (§4.2, Algorithm 1) | combining; messages for requests/responses, shared memory for combiner identity |
//! | [`ShmServer`] | SHM-SERVER (§5.2, RCL-like) | dedicated server thread; per-client cache-line channels |
//! | [`CcSynch`]   | CC-SYNCH [Fatourou & Kallimanis 2012] | combining over a SWAP-built request list |
//! | [`FlatCombining`] | flat combining [Hendler et al. 2010]; the runtime's Comb executor | combining over per-slot publication records behind a TAS lock |
//! | [`LockCs`]    | classic locks (§3) | inline execution under [`TasLock`]/[`TicketLock`]/[`McsLock`] |
//!
//! Every per-thread handle implements [`ApplyOp`], so code built on top (see
//! the `mpsync-objects` crate) is generic over the construction.
//!
//! # Example: a shared counter served by MP-SERVER
//!
//! ```
//! use std::sync::Arc;
//! use mpsync_udn::{Fabric, FabricConfig};
//! use mpsync_core::{ApplyOp, MpServer};
//!
//! // Opcode 0: fetch-and-increment.
//! fn dispatch(state: &mut u64, _op: u64, _arg: u64) -> u64 {
//!     let old = *state;
//!     *state += 1;
//!     old
//! }
//!
//! let fabric = Arc::new(Fabric::new(FabricConfig::new(4)));
//! let server = MpServer::spawn(fabric.register_any().unwrap(), 0u64, dispatch);
//!
//! let mut handles = Vec::new();
//! for _ in 0..3 {
//!     let mut client = server.client(fabric.register_any().unwrap());
//!     handles.push(std::thread::spawn(move || {
//!         for _ in 0..100 {
//!             client.apply(0, 0);
//!         }
//!     }));
//! }
//! for h in handles { h.join().unwrap(); }
//! assert_eq!(server.shutdown(), 300);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod cc_synch;
mod dispatch;
mod flat_combining;
mod hybcomb;
pub mod locks;
pub mod machine;
pub mod mp_server;
pub mod queue;
mod shm_server;
pub mod stack;
mod state;
pub(crate) mod sync;
pub mod wire;

#[cfg(all(test, loom))]
mod loom_models;

pub use cc_synch::{CcSynch, CcSynchHandle, CcSynchLayout};
pub use dispatch::{Dispatcher, OpTable};
pub use flat_combining::{FlatCombining, FlatCombiningHandle, SlotLease, SlotPool};
pub use hybcomb::{
    HybComb, HybCombHandle, HybCombLayout, HybCombStats, HybOptions, DEFAULT_MAX_OPS,
};
pub use locks::{CsLock, LockCs, LockCsHandle, McsLock, PoisonLock, TasLock, TicketLock};
pub use mp_server::{MpClient, MpServer};
pub use shm_server::{ShmClient, ShmServer, ShmServerLayout};
pub use state::CsState;

/// A per-thread handle through which operations are submitted for execution
/// in mutual exclusion (the paper's `apply_op`).
///
/// Handles take `&mut self` because they own per-thread resources (a message
/// endpoint, a combining node, a lock queue node) whose single-owner
/// discipline Rust enforces through exclusive borrows.
pub trait ApplyOp {
    /// Executes `(op, arg)` in mutual exclusion with every other operation
    /// on the same underlying state, and returns the operation's result.
    fn apply(&mut self, op: u64, arg: u64) -> u64;
}

/// Blanket impl so `&mut H` can be passed where an `ApplyOp` is consumed.
impl<T: ApplyOp + ?Sized> ApplyOp for &mut T {
    #[inline]
    fn apply(&mut self, op: u64, arg: u64) -> u64 {
        (**self).apply(op, arg)
    }
}
