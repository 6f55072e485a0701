//! Externally-driven shard execution.
//!
//! With [`RuntimeConfig::external_drive`](crate::RuntimeConfig) set, the
//! MP-SERVER backend does not spawn `rt-serve-*` threads. Each shard's
//! [`ShardCore`](crate::shard::ShardCore) is instead handed out exactly once
//! as a [`ShardDriver`] — a type-erased, `Send` handle whose owner calls
//! [`ShardDriver::tick`] from its own event loop. This is how a cluster
//! node's core thread becomes the paper's servicing core: the thread that
//! reads a request off a socket is the same thread that executes it, with
//! no cross-core handoff in between.
//!
//! **Who ticks.** Nobody but the drivers' owners: a request to an externally
//! driven shard waits in its queue until that shard's driver is ticked. An
//! owner that also submits — an event loop to a sibling's shard, a cluster
//! node's core thread to its own store — must therefore wait through
//! [`Session::submit_with`](crate::Session::submit_with) (or another `_with`
//! form) and tick from the hook, or it waits for itself.
//! [`Runtime::drive_externally`](crate::Runtime::drive_externally) puts a
//! runtime that was built threaded into the same state: its serving threads
//! hand their cores back and the cores are parked here, untaken.
//!
//! Shard state recovery works through a per-shard *return slot*: dropping a
//! driver parks the shard state in its slot, and
//! [`Runtime::shutdown`](crate::Runtime::shutdown) collects the slots after
//! the usual close → drain → session-wait sequence (waiting, if need be, for
//! drivers still held elsewhere to drop).

use std::sync::{Arc, Mutex};

use mpsync_core::Dispatcher;

use crate::shard::ShardCore;

/// Object-safe driving interface over a typed [`ShardCore`].
pub(crate) trait DriveShard: Send {
    /// Serve every queued request (bounded by the runtime's `max_batch`);
    /// returns the number served.
    fn tick(&mut self) -> u64;
}

/// The typed payload behind a [`ShardDriver`]: the core plus the return
/// slot its state parks in on drop.
pub(crate) struct CoreDrive<S: Send + 'static, D: Dispatcher<S> + Send> {
    core: Option<ShardCore<S, D>>,
    slot: Arc<Mutex<Option<S>>>,
}

impl<S: Send + 'static, D: Dispatcher<S> + Send> CoreDrive<S, D> {
    pub fn new(core: ShardCore<S, D>, slot: Arc<Mutex<Option<S>>>) -> Self {
        Self {
            core: Some(core),
            slot,
        }
    }
}

impl<S: Send + 'static, D: Dispatcher<S> + Send> DriveShard for CoreDrive<S, D> {
    fn tick(&mut self) -> u64 {
        self.core.as_mut().expect("core taken").tick()
    }
}

impl<S: Send + 'static, D: Dispatcher<S> + Send> Drop for CoreDrive<S, D> {
    fn drop(&mut self) {
        if let Some(core) = self.core.take() {
            *self.slot.lock().expect("state slot poisoned") = Some(core.into_state());
        }
    }
}

/// An externally-driven shard executor, obtained from
/// [`Runtime::take_driver`](crate::Runtime::take_driver).
///
/// The owner must call [`ShardDriver::tick`] regularly — queued submissions
/// to this shard complete only when it does. Dropping the driver returns the
/// shard state to the runtime; drop only once the shard is quiescent (the
/// runtime's shutdown drain guarantees this for well-behaved servers).
pub struct ShardDriver {
    shard: usize,
    inner: Box<dyn DriveShard>,
}

impl ShardDriver {
    pub(crate) fn new(shard: usize, inner: Box<dyn DriveShard>) -> Self {
        Self { shard, inner }
    }

    /// The shard index this driver executes.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Serves every request queued to this shard (bounded by the runtime's
    /// `max_batch`); returns the number served. Non-blocking.
    pub fn tick(&mut self) -> u64 {
        self.inner.tick()
    }
}

impl std::fmt::Debug for ShardDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardDriver")
            .field("shard", &self.shard)
            .finish_non_exhaustive()
    }
}
