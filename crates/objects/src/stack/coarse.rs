//! The coarse-lock stack: a sequential stack whose push and pop both run
//! under one executor.

use mpsync_core::stack::{ops, FULL};
use mpsync_core::ApplyOp;

use crate::{ConcurrentStack, EMPTY};

/// Per-thread stack handle over any executor handle `A` whose protected
/// state is a [`CoarseStack`](super::CoarseStack) dispatched by
/// [`CoarseStack::dispatch`](super::CoarseStack::dispatch).
pub struct CsStack<A> {
    inner: A,
}

impl<A: ApplyOp> CsStack<A> {
    /// Wraps an executor handle.
    pub fn new(inner: A) -> Self {
        Self { inner }
    }

    /// Stack depth at the linearization point of this call.
    pub fn len(&mut self) -> usize {
        self.inner.apply(ops::LEN, 0) as usize
    }

    /// `true` if the stack was empty at the linearization point.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Recovers the wrapped executor handle.
    pub fn into_inner(self) -> A {
        self.inner
    }
}

impl<A: ApplyOp> ConcurrentStack for CsStack<A> {
    /// # Panics
    ///
    /// Panics, naming the capacity, on a full stack.
    #[inline]
    fn push(&mut self, v: u64) {
        debug_assert_ne!(v, EMPTY, "EMPTY sentinel is not storable");
        if self.inner.apply(ops::PUSH, v) == FULL {
            let capacity = self.inner.apply(ops::CAPACITY, 0);
            panic!("coarse stack full: its capacity is {capacity} values");
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<u64> {
        match self.inner.apply(ops::POP, 0) {
            EMPTY => None,
            v => Some(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::CoarseStack;
    use mpsync_core::{CcSynch, LockCs, TasLock};
    use std::sync::Arc;

    type StackFn = fn(&mut CoarseStack, u64, u64) -> u64;
    const DISPATCH: StackFn = CoarseStack::dispatch;

    #[test]
    fn lifo_semantics() {
        let cs = LockCs::<CoarseStack, TasLock, StackFn>::new(CoarseStack::new(2), DISPATCH);
        let mut s = CsStack::new(cs.handle());
        assert!(s.is_empty());
        s.push(1);
        s.push(2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn concurrent_push_pop_conserves_values() {
        const THREADS: usize = 4;
        const OPS: u64 = 3_000;
        // Each thread holds at most one value between its push and pop.
        let cs = Arc::new(CcSynch::new(
            THREADS,
            50,
            CoarseStack::new(THREADS as u64),
            DISPATCH,
        ));
        let mut joins = Vec::new();
        for t in 0..THREADS as u64 {
            let mut s = CsStack::new(cs.handle());
            joins.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                // Balanced load: push one, pop one (§5.4 methodology).
                for i in 0..OPS {
                    s.push(t * OPS + i);
                    if let Some(v) = s.pop() {
                        mine.push(v);
                    }
                }
                // Drain whatever is left for accounting.
                while let Some(v) = s.pop() {
                    mine.push(v);
                }
                mine
            }));
        }
        let mut all: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..THREADS as u64 * OPS).collect();
        assert_eq!(all, expected, "values lost or duplicated");
    }
}
