//! Figure 5a's queues (§5.4), all written once in `mpsync-core`
//! (`mpsync_core::queue`), where tilesim runs the same code:
//!
//! * [`CsQueue`] — the one-lock queue: `mpsync_core`'s [`CoarseQueue`] body
//!   under any executor (the paper's best-performing configuration);
//! * [`TwoLockQueueHandle`] — the Michael & Scott two-lock queue, whose
//!   enqueue and dequeue halves of one [`TwoLockQueue`] run under two
//!   independent executors (two servers per queue for the server
//!   approaches, the paper's `mp-server-2`);
//! * [`Lcrq`] — Morrison & Afek's nonblocking LCRQ with the paper's
//!   TILE-Gx port (32-bit values in 64-bit CAS cells, a CAS loop to close a
//!   ring), over a fixed pool of rings.

use mpsync_core::queue::{ops, FULL};
use mpsync_core::ApplyOp;

pub use mpsync_core::queue::{CoarseQueue, Lcrq, LcrqHandle, TwoLockQueue};

use crate::{ConcurrentQueue, EMPTY};

/// Per-thread queue handle over any executor handle `A` whose protected
/// state is a [`CoarseQueue`] dispatched by [`CoarseQueue::dispatch`].
///
/// ```
/// use mpsync_core::{LockCs, TicketLock};
/// use mpsync_objects::queue::{CoarseQueue, CsQueue};
/// use mpsync_objects::ConcurrentQueue;
///
/// type QueueFn = fn(&mut CoarseQueue, u64, u64) -> u64;
/// let cs = LockCs::<_, TicketLock, _>::new(CoarseQueue::new(8), CoarseQueue::dispatch as QueueFn);
/// let mut q = CsQueue::new(cs.handle());
/// q.enqueue(5);
/// assert_eq!(q.dequeue(), Some(5));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct CsQueue<A> {
    inner: A,
}

impl<A: ApplyOp> CsQueue<A> {
    /// Wraps an executor handle.
    pub fn new(inner: A) -> Self {
        Self { inner }
    }

    /// Queue length at the linearization point of this call.
    pub fn len(&mut self) -> usize {
        self.inner.apply(ops::LEN, 0) as usize
    }

    /// `true` if the queue was empty at the linearization point.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Recovers the wrapped executor handle.
    pub fn into_inner(self) -> A {
        self.inner
    }
}

impl<A: ApplyOp> ConcurrentQueue for CsQueue<A> {
    /// # Panics
    ///
    /// Panics, naming the capacity, on a full queue.
    #[inline]
    fn enqueue(&mut self, v: u64) {
        enqueue(&mut self.inner, v);
    }

    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        dequeue(&mut self.inner)
    }
}

/// Per-thread handle pairing an executor handle `E` of a
/// [`TwoLockQueue`]'s enqueue half with one `D` of its dequeue half.
pub struct TwoLockQueueHandle<E, D> {
    enq: E,
    deq: D,
}

impl<E: ApplyOp, D: ApplyOp> TwoLockQueueHandle<E, D> {
    /// Builds the handle from the two executor handles.
    pub fn new(enq: E, deq: D) -> Self {
        Self { enq, deq }
    }
}

impl<E: ApplyOp, D: ApplyOp> ConcurrentQueue for TwoLockQueueHandle<E, D> {
    /// # Panics
    ///
    /// Panics, naming the capacity, on a full queue.
    #[inline]
    fn enqueue(&mut self, v: u64) {
        enqueue(&mut self.enq, v);
    }

    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        dequeue(&mut self.deq)
    }
}

fn enqueue(inner: &mut impl ApplyOp, v: u64) {
    debug_assert_ne!(v, EMPTY, "EMPTY sentinel is not storable");
    if inner.apply(ops::ENQ, v) == FULL {
        let capacity = inner.apply(ops::CAPACITY, 0);
        panic!("queue full: its capacity is {capacity} values");
    }
}

fn dequeue(inner: &mut impl ApplyOp) -> Option<u64> {
    match inner.apply(ops::DEQ, 0) {
        EMPTY => None,
        v => Some(v),
    }
}

impl ConcurrentQueue for LcrqHandle {
    /// # Panics
    ///
    /// Panics unless `v < u32::MAX` (LCRQ stores 32-bit values), and,
    /// naming the capacity, when every ring of the pool is taken.
    #[inline]
    fn enqueue(&mut self, v: u64) {
        LcrqHandle::enqueue(self, v);
    }

    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        LcrqHandle::dequeue(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsync_core::{HybComb, LockCs, MpServer, TicketLock};
    use mpsync_udn::{Fabric, FabricConfig};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    type QueueFn = fn(&mut CoarseQueue, u64, u64) -> u64;
    type Half = fn(&mut Arc<TwoLockQueue>, u64, u64) -> u64;
    const DISPATCH: QueueFn = CoarseQueue::dispatch;

    /// Producers enqueue tagged values; consumers drain. Every value must
    /// come out exactly once, and per-producer order must be preserved.
    fn producer_consumer<Q: ConcurrentQueue + Send + 'static>(
        make: impl Fn(usize) -> Q,
        producers: usize,
        per_producer: u64,
    ) {
        let mut joins = Vec::new();
        for p in 0..producers {
            let mut q = make(p);
            joins.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    q.enqueue(((p as u64) << 32) | i);
                }
            }));
        }
        let mut drained: Vec<u64> = Vec::new();
        let mut q = make(producers);
        for j in joins {
            j.join().unwrap();
        }
        while let Some(v) = q.dequeue() {
            drained.push(v);
        }
        assert_eq!(drained.len(), producers * per_producer as usize);
        let mut next = vec![0u64; producers];
        for v in drained {
            let p = (v >> 32) as usize;
            let i = v & 0xffff_ffff;
            assert_eq!(i, next[p], "per-producer FIFO violated");
            next[p] += 1;
        }
    }

    #[test]
    fn mp_server_queue_producer_consumer() {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(3)));
        let server = Arc::new(MpServer::spawn(
            fabric.register_any().unwrap(),
            CoarseQueue::new(4_000),
            DISPATCH,
        ));
        let s2 = Arc::clone(&server);
        let f2 = Arc::clone(&fabric);
        producer_consumer(
            move |_| CsQueue::new(s2.client(f2.register_any().unwrap())),
            4,
            1_000,
        );
    }

    #[test]
    fn hybcomb_queue_producer_consumer() {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(2)));
        let hc = Arc::new(HybComb::new(8, 50, CoarseQueue::new(4_000), DISPATCH));
        let h2 = Arc::clone(&hc);
        let f2 = Arc::clone(&fabric);
        producer_consumer(
            move |_| CsQueue::new(h2.handle(f2.register_any().unwrap())),
            4,
            1_000,
        );
    }

    #[test]
    fn interleaved_enq_deq_matches_model() {
        // Single-threaded randomized interleaving against VecDeque.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let cs = LockCs::<_, TicketLock, _>::new(CoarseQueue::new(10_000), DISPATCH);
        let mut q = CsQueue::new(cs.handle());
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut rng = StdRng::seed_from_u64(42);
        for step in 0..10_000u64 {
            if rng.gen_bool(0.55) {
                q.enqueue(step);
                model.push_back(step);
            } else {
                assert_eq!(q.dequeue(), model.pop_front());
            }
        }
        assert_eq!(q.len(), model.len());
    }

    #[test]
    fn lock_backed_fifo_semantics() {
        let cs =
            LockCs::<_, TicketLock, _>::new(CoarseQueue::new(2), CoarseQueue::dispatch as QueueFn);
        let mut q = CsQueue::new(cs.handle());
        assert!(q.is_empty());
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    #[should_panic(expected = "capacity is 2 values")]
    fn a_full_one_lock_queue_panics() {
        let cs =
            LockCs::<_, TicketLock, _>::new(CoarseQueue::new(2), CoarseQueue::dispatch as QueueFn);
        let mut q = CsQueue::new(cs.handle());
        for v in 0..3 {
            q.enqueue(v);
        }
    }

    /// Producers and consumers on two MP-SERVERs, one per half, through a
    /// pool far smaller than the values that pass: a producer retries a
    /// full queue, nodes are reused while the other half runs, and every
    /// value comes out once.
    #[test]
    fn two_lock_queue_on_two_servers_moves_every_value_once() {
        const PRODUCERS: u64 = 3;
        const CONSUMERS: usize = 2;
        const PER_PRODUCER: u64 = 2_000;
        let total = PRODUCERS * PER_PRODUCER;
        let fabric = Arc::new(Fabric::new(FabricConfig::new(4)));
        let q = TwoLockQueue::new(4);
        let enq = MpServer::spawn(
            fabric.register_any().unwrap(),
            Arc::clone(&q),
            TwoLockQueue::dispatch as Half,
        );
        let deq = MpServer::spawn(
            fabric.register_any().unwrap(),
            q,
            TwoLockQueue::dispatch as Half,
        );
        let mut joins = Vec::new();
        for p in 0..PRODUCERS {
            let mut e = enq.client(fabric.register_any().unwrap());
            joins.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    while e.apply(ops::ENQ, (p << 32) | i) == FULL {
                        std::thread::yield_now();
                    }
                }
                Vec::new()
            }));
        }
        let taken = Arc::new(AtomicU64::new(0));
        for _ in 0..CONSUMERS {
            let (mut q, taken) = (
                TwoLockQueueHandle::new(
                    enq.client(fabric.register_any().unwrap()),
                    deq.client(fabric.register_any().unwrap()),
                ),
                Arc::clone(&taken),
            );
            joins.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while taken.load(Ordering::Relaxed) < total {
                    match q.dequeue() {
                        Some(v) => {
                            taken.fetch_add(1, Ordering::Relaxed);
                            got.push(v);
                        }
                        None => std::thread::yield_now(),
                    }
                }
                got
            }));
        }
        let mut all: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..PRODUCERS)
            .flat_map(|p| (0..PER_PRODUCER).map(move |i| (p << 32) | i))
            .collect();
        assert_eq!(all, expected, "values lost or duplicated");
    }
}
