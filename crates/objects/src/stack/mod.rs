//! Figure 5b's stacks (§5.4), both written once in `mpsync-core`
//! (`mpsync_core::stack`), where tilesim runs the same code:
//!
//! * [`CsStack`] — the coarse-lock stack: `mpsync_core`'s [`CoarseStack`]
//!   body under any executor (the best performer with MP-SERVER/HYBCOMB);
//! * [`TreiberStack`] — the classical nonblocking stack over a bounded node
//!   pool, whose CAS-on-top contention the paper shows collapsing under
//!   load.

mod coarse;

pub use coarse::CsStack;
pub use mpsync_core::stack::{CoarseStack, TreiberHandle, TreiberStack};

use crate::ConcurrentStack;

impl ConcurrentStack for TreiberHandle {
    #[inline]
    fn push(&mut self, v: u64) {
        TreiberHandle::push(self, v);
    }

    #[inline]
    fn pop(&mut self) -> Option<u64> {
        TreiberHandle::pop(self)
    }
}
