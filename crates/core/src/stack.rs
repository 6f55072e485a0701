//! Figure 5b's two stacks (§5.4), written once against [`Machine`]: the
//! coarse-lock stack's sequential body ([`CoarseStackLayout`]), which a
//! construction runs in its critical section, and Treiber's nonblocking
//! stack ([`TreiberLayout`]). [`CoarseStack`] and [`TreiberStack`] run them
//! on the host; tilesim runs the same layouts on its cores for `repro
//! fig5b`. Values are `u64`; [`EMPTY`] is not storable.

use std::sync::Arc;

use crate::machine::{block_on, Addr, Arena, ClientSide, Machine, Probe, WORDS_PER_LINE};
use crate::sync::Ordering::{AcqRel, Acquire, Relaxed};

/// Opcodes of the coarse stack's body.
pub mod ops {
    /// Push `arg`; returns 0, or [`FULL`](super::FULL) at capacity.
    pub const PUSH: u64 = 0;
    /// Pop; returns the value, or [`EMPTY`](super::EMPTY).
    pub const POP: u64 = 1;
    /// The depth.
    pub const LEN: u64 = 2;
    /// The capacity; not an access.
    pub const CAPACITY: u64 = 3;
}

/// A pop's result on an empty stack.
pub const EMPTY: u64 = u64::MAX;

/// A push's result on a full coarse stack.
pub const FULL: u64 = u64::MAX - 1;

/// Where a coarse stack lives in a machine's memory: the depth word, and
/// `len` slots of one line each. Only the critical section touches it, so
/// its accesses need no ordering of their own.
#[derive(Debug, Clone, Copy)]
pub struct CoarseStackLayout {
    /// The depth word.
    pub top: Addr,
    /// The bottom slot's line.
    pub slots: Addr,
    /// The capacity.
    pub len: u64,
}

impl CoarseStackLayout {
    fn slot(&self, i: u64) -> Addr {
        self.slots + i * WORDS_PER_LINE
    }

    /// Runs `(op, arg)` (see [`ops`]); the caller holds the mutual
    /// exclusion.
    pub async fn apply<M: Machine>(&self, m: &mut M, op: u64, arg: u64) -> u64 {
        match op {
            ops::PUSH => {
                let t = m.load(self.top, Relaxed).await;
                if t == self.len {
                    return FULL;
                }
                m.store(self.slot(t), arg, Relaxed).await;
                m.store(self.top, t + 1, Relaxed).await;
                0
            }
            ops::POP => {
                let t = m.load(self.top, Relaxed).await;
                if t == 0 {
                    return EMPTY;
                }
                let v = m.load(self.slot(t - 1), Relaxed).await;
                m.store(self.top, t - 1, Relaxed).await;
                v
            }
            ops::LEN => m.load(self.top, Relaxed).await,
            ops::CAPACITY => self.len,
            _ => panic!("stack: unknown opcode {op}"),
        }
    }
}

/// The coarse stack's state on the host: an arena of its own, which
/// [`CoarseStack::dispatch`] reaches through a native machine inside
/// whichever construction's critical section runs it.
///
/// ```
/// use mpsync_core::stack::{ops, CoarseStack, EMPTY};
/// use mpsync_core::{ApplyOp, LockCs, TasLock};
///
/// type StackFn = fn(&mut CoarseStack, u64, u64) -> u64;
/// let cs = LockCs::<_, TasLock, _>::new(CoarseStack::new(4), CoarseStack::dispatch as StackFn);
/// let mut h = cs.handle();
/// h.apply(ops::PUSH, 7);
/// assert_eq!(h.apply(ops::POP, 0), 7);
/// assert_eq!(h.apply(ops::POP, 0), EMPTY);
/// ```
pub struct CoarseStack {
    arena: Arena,
    layout: CoarseStackLayout,
}

impl CoarseStack {
    /// An empty stack of at most `capacity` values.
    pub fn new(capacity: u64) -> Self {
        Self {
            arena: Arena::new(1 + capacity, "a coarse stack is never poisoned"),
            layout: CoarseStackLayout {
                top: 0,
                slots: WORDS_PER_LINE,
                len: capacity,
            },
        }
    }

    /// The critical-section body: runs `(op, arg)` (see [`ops`]).
    pub fn dispatch(&mut self, op: u64, arg: u64) -> u64 {
        let mut m = ClientSide::new(&self.arena);
        block_on(self.layout.apply(&mut m, op, arg))
    }
}

/// The link bits of a top word: a node's index plus one, 0 for none.
const LINK: u64 = (1 << 32) - 1;

/// Word offsets in a node's line.
const VALUE: Addr = 0;
const NEXT: Addr = 1;

/// `top` replaced by `link`, its tag bumped: every successful CAS changes
/// the word, so a node popped and pushed back no longer matches a stale
/// read of the top (no ABA).
fn retop(top: u64, link: u64) -> u64 {
    (top & !LINK).wrapping_add(LINK + 1) | link
}

/// Where a Treiber stack lives in a machine's memory: its top, the shared
/// free list's top and the fresh-node cursor, a line each, then `capacity`
/// node lines. A top is a (tag, link) word; a node is (value, next link).
///
/// A handle keeps one free node in its cache, held by its thread like a
/// thread-local malloc cache: taking or keeping it is not an access. A
/// second freed node, and a dropped handle's, go to the free list, which
/// is a second Treiber top over the same nodes. Fresh nodes come from the
/// cursor. So `capacity` bounds the live nodes, plus one cached per handle.
#[derive(Debug, Clone, Copy)]
pub struct TreiberLayout {
    /// The first of the stack's [`lines`](Self::lines).
    pub base: Addr,
    /// The nodes.
    pub capacity: u64,
}

impl TreiberLayout {
    /// The lines a stack of `capacity` nodes takes.
    pub fn lines(capacity: u64) -> u64 {
        3 + capacity
    }

    fn top(&self) -> Addr {
        self.base
    }

    fn free(&self) -> Addr {
        self.base + WORDS_PER_LINE
    }

    fn cursor(&self) -> Addr {
        self.base + 2 * WORDS_PER_LINE
    }

    fn node(&self, n: u64) -> Addr {
        self.base + (3 + n) * WORDS_PER_LINE
    }

    /// Pushes `v` with a node from `cache`, the free list or the cursor.
    ///
    /// # Panics
    ///
    /// Panics, naming the capacity, when all three are out of nodes.
    pub async fn push<M: Machine>(
        &self,
        m: &mut M,
        cache: &mut Option<u64>,
        v: u64,
        probe: &mut impl Probe<M>,
    ) {
        let n = match cache.take() {
            Some(n) => n,
            None => match self.unlink(m, self.free(), probe).await {
                Some(n) => n,
                None => {
                    let n = m.faa(self.cursor(), 1, Relaxed).await;
                    assert!(
                        n < self.capacity,
                        "Treiber stack out of nodes: its capacity is {} live nodes",
                        self.capacity
                    );
                    n
                }
            },
        };
        m.store(self.node(n) + VALUE, v, Relaxed).await;
        self.link(m, self.top(), n, probe).await;
    }

    /// Pops the newest value, or `None` on an empty stack; the node goes
    /// to `cache`, or to the free list if the cache holds one already.
    pub async fn pop<M: Machine>(
        &self,
        m: &mut M,
        cache: &mut Option<u64>,
        probe: &mut impl Probe<M>,
    ) -> Option<u64> {
        let n = self.unlink(m, self.top(), probe).await?;
        // The node is the popper's once its CAS won; that CAS's Acquire
        // side made the pusher's value visible.
        let v = m.load(self.node(n) + VALUE, Relaxed).await;
        if cache.is_none() {
            *cache = Some(n);
        } else {
            self.link(m, self.free(), n, probe).await;
        }
        Some(v)
    }

    /// Links node `n` in at `top`.
    async fn link<M: Machine>(&self, m: &mut M, top: Addr, n: u64, probe: &mut impl Probe<M>) {
        loop {
            let t = m.load(top, Acquire).await;
            m.store(self.node(n) + NEXT, t & LINK, Relaxed).await;
            // Release publishes the node's words with the new top.
            let won = m.cas(top, t, retop(t, n + 1), AcqRel).await;
            probe.cas_attempt(m, won);
            if won {
                return;
            }
        }
    }

    /// Unlinks the node at `top`, or returns `None` if there is none.
    async fn unlink<M: Machine>(
        &self,
        m: &mut M,
        top: Addr,
        probe: &mut impl Probe<M>,
    ) -> Option<u64> {
        loop {
            let t = m.load(top, Acquire).await;
            let n = (t & LINK).checked_sub(1)?;
            // A stale `next` (the node was popped and reused meanwhile)
            // fails the CAS: the tag moved on.
            let next = m.load(self.node(n) + NEXT, Relaxed).await;
            let won = m.cas(top, t, retop(t, next), AcqRel).await;
            probe.cas_attempt(m, won);
            if won {
                return Some(n);
            }
        }
    }
}

/// Treiber's nonblocking stack (IBM RJ 5118, 1986) on the host, over a
/// bounded node pool: the CAS-contended top that Figure 5b shows
/// collapsing under load.
///
/// ```
/// use std::sync::Arc;
/// use mpsync_core::stack::TreiberStack;
///
/// let s = Arc::new(TreiberStack::new(8));
/// let mut h = s.handle();
/// h.push(1);
/// h.push(2);
/// assert_eq!(h.pop(), Some(2));
/// assert_eq!(h.pop(), Some(1));
/// assert_eq!(h.pop(), None);
/// ```
pub struct TreiberStack {
    arena: Arena,
    layout: TreiberLayout,
}

impl TreiberStack {
    /// An empty stack over `capacity` nodes: at most `capacity` values
    /// live, less one for each handle holding a free node.
    pub fn new(capacity: u64) -> Self {
        assert!(
            capacity < LINK,
            "a Treiber stack of {capacity} nodes: links are 32 bits"
        );
        Self {
            arena: Arena::new(
                TreiberLayout::lines(capacity),
                "a Treiber stack is never poisoned",
            ),
            layout: TreiberLayout { base: 0, capacity },
        }
    }

    /// A per-thread handle.
    pub fn handle(self: &Arc<Self>) -> TreiberHandle {
        TreiberHandle {
            stack: Arc::clone(self),
            cache: None,
        }
    }
}

/// Per-thread handle to a [`TreiberStack`], with its node cache.
pub struct TreiberHandle {
    stack: Arc<TreiberStack>,
    cache: Option<u64>,
}

impl TreiberHandle {
    /// Pushes `v`.
    ///
    /// # Panics
    ///
    /// Panics, naming the capacity, when the pool is out of nodes.
    pub fn push(&mut self, v: u64) {
        let s = &*self.stack;
        let mut m = ClientSide::new(&s.arena);
        block_on(s.layout.push(&mut m, &mut self.cache, v, &mut ()));
    }

    /// Pops the newest value, or `None` when the stack is empty.
    pub fn pop(&mut self) -> Option<u64> {
        let s = &*self.stack;
        let mut m = ClientSide::new(&s.arena);
        block_on(s.layout.pop(&mut m, &mut self.cache, &mut ()))
    }
}

/// A dropped handle's cached node goes to the free list.
impl Drop for TreiberHandle {
    fn drop(&mut self) {
        if let Some(n) = self.cache {
            let s = &*self.stack;
            let mut m = ClientSide::new(&s.arena);
            block_on(s.layout.link(&mut m, s.layout.free(), n, &mut ()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn treiber_moves_ten_capacities_from_a_producer_to_a_consumer() {
        const CAPACITY: u64 = 8;
        const TOTAL: u64 = 10 * CAPACITY;
        let s = Arc::new(TreiberStack::new(CAPACITY));
        // Values the consumer has taken: the producer keeps the depth, plus
        // the consumer's cached node, below the capacity.
        let taken = Arc::new(AtomicU64::new(0));
        let producer = {
            let (mut h, taken) = (s.handle(), Arc::clone(&taken));
            std::thread::spawn(move || {
                for v in 0..TOTAL {
                    while v - taken.load(Acquire) >= CAPACITY - 1 {
                        std::thread::yield_now();
                    }
                    h.push(v);
                }
            })
        };
        let mut h = s.handle();
        let mut got = Vec::new();
        while (got.len() as u64) < TOTAL {
            match h.pop() {
                Some(v) => {
                    got.push(v);
                    taken.fetch_add(1, AcqRel);
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(h.pop(), None);
        got.sort_unstable();
        assert_eq!(got, (0..TOTAL).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "capacity is 3 live nodes")]
    fn treiber_push_past_capacity_panics() {
        let s = Arc::new(TreiberStack::new(3));
        let mut h = s.handle();
        for v in 0..4 {
            h.push(v);
        }
    }

    #[test]
    fn a_dropped_handles_cached_node_is_reused() {
        let s = Arc::new(TreiberStack::new(2));
        let mut a = s.handle();
        a.push(1);
        a.push(2);
        let mut b = s.handle();
        assert_eq!(b.pop(), Some(2));
        assert_eq!(b.pop(), Some(1));
        // One node is in `b`'s cache, the other on the free list: pushing
        // both again needs `b`'s.
        drop(b);
        a.push(3);
        a.push(4);
        assert_eq!(a.pop(), Some(4));
        assert_eq!(a.pop(), Some(3));
        assert_eq!(a.pop(), None);
    }
}
