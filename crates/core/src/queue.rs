//! Figure 5a's three queues (§5.4), written once against [`Machine`]: the
//! one-lock queue's sequential body ([`CoarseQueueLayout`]), which a
//! construction runs in its critical section; the Michael & Scott two-lock
//! queue ([`TwoLockLayout`]), whose enqueue and dequeue halves are two
//! independent critical sections; and Morrison & Afek's nonblocking LCRQ
//! ([`LcrqLayout`]). [`CoarseQueue`], [`TwoLockQueue`] and [`Lcrq`] run them
//! on the host; tilesim runs the same layouts on its cores for `repro
//! fig5a`. Values are `u64` ([`EMPTY`] is not storable), LCRQ's 32-bit.

use std::sync::Arc;

use crate::machine::{
    block_on, Addr, Arena, Backoff, ClientSide, Machine, Probe, Until, WORDS_PER_LINE,
};
use crate::sync::Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst};

pub use crate::stack::{EMPTY, FULL};

/// Opcodes of the one-lock body and of the two-lock halves.
pub mod ops {
    /// Enqueue `arg`; returns 0, or [`FULL`](super::FULL) at capacity.
    pub const ENQ: u64 = 0;
    /// Dequeue; returns the value, or [`EMPTY`](super::EMPTY).
    pub const DEQ: u64 = 1;
    /// The length (one-lock queue only).
    pub const LEN: u64 = 2;
    /// The capacity; not an access.
    pub const CAPACITY: u64 = 3;
}

/// Where a one-lock queue lives in a machine's memory: the head and tail
/// counters, a line each, and `len` slots of one line each, used as a ring.
/// Only the critical section touches it, so its accesses need no ordering
/// of their own.
#[derive(Debug, Clone, Copy)]
pub struct CoarseQueueLayout {
    /// The head counter: values dequeued so far.
    pub head: Addr,
    /// The tail counter: values enqueued so far.
    pub tail: Addr,
    /// The first slot's line.
    pub slots: Addr,
    /// The capacity.
    pub len: u64,
}

impl CoarseQueueLayout {
    fn slot(&self, i: u64) -> Addr {
        self.slots + (i % self.len) * WORDS_PER_LINE
    }

    /// Runs `(op, arg)` (see [`ops`]); the caller holds the mutual
    /// exclusion.
    pub async fn apply<M: Machine>(&self, m: &mut M, op: u64, arg: u64) -> u64 {
        match op {
            ops::ENQ => {
                let t = m.load(self.tail, Relaxed).await;
                let h = m.load(self.head, Relaxed).await;
                if t - h >= self.len {
                    return FULL;
                }
                m.store(self.slot(t), arg, Relaxed).await;
                m.store(self.tail, t + 1, Relaxed).await;
                0
            }
            ops::DEQ => {
                let h = m.load(self.head, Relaxed).await;
                let t = m.load(self.tail, Relaxed).await;
                if h == t {
                    return EMPTY;
                }
                let v = m.load(self.slot(h), Relaxed).await;
                m.store(self.head, h + 1, Relaxed).await;
                v
            }
            ops::LEN => {
                let t = m.load(self.tail, Relaxed).await;
                t - m.load(self.head, Relaxed).await
            }
            ops::CAPACITY => self.len,
            _ => panic!("queue: unknown opcode {op}"),
        }
    }
}

/// The one-lock queue's state on the host: an arena of its own, which
/// [`CoarseQueue::dispatch`] reaches through a native machine inside
/// whichever construction's critical section runs it.
///
/// ```
/// use mpsync_core::queue::{ops, CoarseQueue, EMPTY};
/// use mpsync_core::{ApplyOp, LockCs, TicketLock};
///
/// type QueueFn = fn(&mut CoarseQueue, u64, u64) -> u64;
/// let cs = LockCs::<_, TicketLock, _>::new(CoarseQueue::new(4), CoarseQueue::dispatch as QueueFn);
/// let mut h = cs.handle();
/// h.apply(ops::ENQ, 5);
/// h.apply(ops::ENQ, 6);
/// assert_eq!(h.apply(ops::DEQ, 0), 5);
/// assert_eq!(h.apply(ops::DEQ, 0), 6);
/// assert_eq!(h.apply(ops::DEQ, 0), EMPTY);
/// ```
pub struct CoarseQueue {
    arena: Arena,
    layout: CoarseQueueLayout,
}

impl CoarseQueue {
    /// An empty queue of at most `capacity` values.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "a queue of no values");
        Self {
            arena: Arena::new(2 + capacity, "a one-lock queue is never poisoned"),
            layout: CoarseQueueLayout {
                head: 0,
                tail: WORDS_PER_LINE,
                slots: 2 * WORDS_PER_LINE,
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

/// Word offsets in a two-lock queue's node line.
const VALUE: Addr = 0;
const NEXT: Addr = 1;

/// Where a two-lock queue lives in a machine's memory: the head (the
/// dequeue side's dummy node) and the tail (the enqueue side's last node),
/// a line each, then `capacity + 1` node lines, each (value, next link); a
/// link is a node's index plus one, 0 for none.
///
/// The nodes are a pool used in ring order: a queue's nodes are dequeued
/// in the order they were enqueued, so the node after the tail is free
/// unless it is the head's dummy, and then the queue is full. The enqueue
/// side keeps the head it last read beside the tail, and reads the
/// dequeue side's head again only when that copy says full: a stale head
/// only undercounts the free nodes, so no live node is ever taken.
#[derive(Debug, Clone, Copy)]
pub struct TwoLockLayout {
    /// The first of the queue's [`lines`](Self::lines).
    pub base: Addr,
    /// The values the queue holds at most.
    pub capacity: u64,
}

impl TwoLockLayout {
    /// The lines a queue of `capacity` values takes.
    pub fn lines(capacity: u64) -> u64 {
        3 + capacity
    }

    fn head(&self) -> Addr {
        self.base
    }

    fn tail(&self) -> Addr {
        self.base + WORDS_PER_LINE
    }

    /// The enqueue side's copy of the head, in the tail's line.
    fn seen(&self) -> Addr {
        self.tail() + 1
    }

    fn node(&self, n: u64) -> Addr {
        self.base + (2 + n) * WORDS_PER_LINE
    }

    /// Runs `(op, arg)`: [`ENQ`](ops::ENQ) is the enqueue half,
    /// [`DEQ`](ops::DEQ) the dequeue half. The caller holds that half's
    /// mutual exclusion; the two halves run concurrently.
    pub async fn apply<M: Machine>(&self, m: &mut M, op: u64, arg: u64) -> u64 {
        match op {
            ops::ENQ => self.enqueue(m, arg).await,
            ops::DEQ => self.dequeue(m).await,
            ops::CAPACITY => self.capacity,
            _ => panic!("two-lock queue: unknown opcode {op}"),
        }
    }

    async fn enqueue<M: Machine>(&self, m: &mut M, v: u64) -> u64 {
        let t = m.load(self.tail(), Relaxed).await;
        let n = (t + 1) % (self.capacity + 1);
        if m.load(self.seen(), Relaxed).await == n {
            // Acquire: the dequeuer that moved the head past a node has
            // read it for the last time.
            let h = m.load(self.head(), Acquire).await;
            m.store(self.seen(), h, Relaxed).await;
            if h == n {
                return FULL;
            }
        }
        m.store(self.node(n) + VALUE, v, Relaxed).await;
        m.store(self.node(n) + NEXT, 0, Relaxed).await;
        // Release publishes the node's words to the dequeue side.
        m.store(self.node(t) + NEXT, n + 1, Release).await;
        m.store(self.tail(), n, Relaxed).await;
        0
    }

    async fn dequeue<M: Machine>(&self, m: &mut M) -> u64 {
        let h = m.load(self.head(), Relaxed).await;
        let next = m.load(self.node(h) + NEXT, Acquire).await;
        if next == 0 {
            return EMPTY;
        }
        let v = m.load(self.node(next - 1) + VALUE, Relaxed).await;
        // Release hands the old dummy back to the enqueue side.
        m.store(self.head(), next - 1, Release).await;
        v
    }
}

/// The two-lock queue on the host: one arena, which both halves' executors
/// share. Give each executor a clone of the [`Arc`] with
/// [`TwoLockQueue::dispatch`], and send it only its half's opcode.
///
/// ```
/// use std::sync::Arc;
/// use mpsync_core::queue::{ops, TwoLockQueue, EMPTY, FULL};
/// use mpsync_core::{ApplyOp, LockCs, TicketLock};
///
/// type Half = fn(&mut Arc<TwoLockQueue>, u64, u64) -> u64;
/// let q = TwoLockQueue::new(1);
/// let enq = LockCs::<_, TicketLock, _>::new(Arc::clone(&q), TwoLockQueue::dispatch as Half);
/// let deq = LockCs::<_, TicketLock, _>::new(q, TwoLockQueue::dispatch as Half);
/// let (mut e, mut d) = (enq.handle(), deq.handle());
/// assert_eq!(e.apply(ops::ENQ, 5), 0);
/// assert_eq!(e.apply(ops::ENQ, 6), FULL);
/// assert_eq!(d.apply(ops::DEQ, 0), 5);
/// assert_eq!(d.apply(ops::DEQ, 0), EMPTY);
/// ```
pub struct TwoLockQueue {
    arena: Arena,
    layout: TwoLockLayout,
}

impl TwoLockQueue {
    /// An empty queue of at most `capacity` values.
    pub fn new(capacity: u64) -> Arc<Self> {
        assert!(capacity > 0, "a queue of no values");
        Arc::new(Self {
            arena: Arena::new(
                TwoLockLayout::lines(capacity),
                "a two-lock queue is never poisoned",
            ),
            layout: TwoLockLayout { base: 0, capacity },
        })
    }

    /// A half's critical-section body: runs `(op, arg)` (see
    /// [`TwoLockLayout::apply`]).
    pub fn dispatch(this: &mut Arc<Self>, op: u64, arg: u64) -> u64 {
        let mut m = ClientSide::new(&this.arena);
        block_on(this.layout.apply(&mut m, op, arg))
    }
}

/// The closed bit of a ring's tail counter.
const CLOSED: u64 = 1 << 63;

/// A cell's unsafe bit; clear is safe.
const UNSAFE: u64 = 1 << 63;

/// A cell's round field, 31 bits: its position is `round << order` plus
/// its index. Rounds wrap after 2^31 laps of one ring incarnation.
const ROUNDS: u64 = (1 << 31) - 1;

/// A cell's value field holds the value plus one, 0 for none (the
/// algorithm's ⊥), so a zeroed cell is a fresh one: safe, round 0, empty.
const VALUES: u64 = (1 << 32) - 1;

/// Failed deposits after which an enqueuer closes its ring (the original's
/// starvation bound).
const STARVING: u32 = 16;

/// The ring bits of the queue's head word; the rest is the head ring's
/// sequence number.
const RING: u64 = (1 << 32) - 1;

/// The claimed bit of a ring's number: set from the CAS that takes a free
/// ring until its enqueuer has linked it or given it back. A claimed number
/// never counts as free, whatever the head's number.
const CLAIMED: u64 = 1 << 63;

/// A hazard slot's word: 0 is unclaimed, [`IDLE`] claimed with no hazard,
/// ring `r`'s hazard is `r + 2`.
const IDLE: u64 = 1;

fn cell(unsafe_: bool, round: u64, val: u64) -> u64 {
    (u64::from(unsafe_) << 63) | ((round & ROUNDS) << 32) | val
}

fn round(pos: u64, order: u32) -> u64 {
    (pos >> order) & ROUNDS
}

/// What a search of the ring pool found.
enum Take {
    /// A free ring, now the caller's, and the number it gets once linked.
    Ring(u64, u64),
    /// Only free rings that a handle's hazard still names: the hazard word
    /// and the ring.
    Busy(Addr, u64),
    /// No free ring.
    Full,
}

/// Where an LCRQ lives in a machine's memory: the queue's head and tail
/// ring words, a line each; one hazard line per handle; then `rings` rings,
/// each a head counter, a tail counter (with the closed bit) and a (next
/// link, sequence number) line, and `2^order` cell lines.
///
/// A ring appended to the list is numbered one past its predecessor, and
/// the head word carries the head ring's number beside its index. So a
/// ring numbered below the head's has left the list, and the dequeuer
/// whose head CAS retired it wrote nothing else: the number is the pool's
/// free mark, and taking a ring is a CAS on it that sets the claimed
/// bit. The taker alone writes the number from then on: it clears the bit
/// once it has linked the ring, or gives the ring back with 0. Numbers are
/// 32-bit: a queue appends fewer than 2^32 rings in its life.
///
/// This is Morrison & Afek's LCRQ (PPoPP 2013) as the paper ported it to
/// the TILE-Gx (§5.4, footnote 5): without a 128-bit CAS, a cell packs
/// (unsafe bit, round, value) into one 64-bit word, so values are 32-bit;
/// without a bitwise test-and-set, a ring is closed with a CAS loop. The
/// original allocates each ring and reclaims it with hazard pointers; here
/// the rings come from a fixed pool, and a retired ring is reused only
/// once no handle's hazard word names it. A tag on the ring words cannot
/// do that job: it would fail a stale CAS, but not undo a stale
/// fetch-and-add, and a dequeuer whose FAA lands in a ring's next
/// incarnation takes a position there that it never settles.
#[derive(Debug, Clone, Copy)]
pub struct LcrqLayout {
    /// The first of the queue's [`lines`](Self::lines).
    pub base: Addr,
    /// log2 of a ring's cells.
    pub order: u32,
    /// The rings in the pool.
    pub rings: u64,
    /// The hazard slots: one per handle.
    pub handles: u64,
}

impl LcrqLayout {
    /// The lines an LCRQ of `rings` rings of `2^order` cells and `handles`
    /// handles takes.
    pub fn lines(order: u32, rings: u64, handles: u64) -> u64 {
        2 + handles + rings * (3 + (1 << order))
    }

    /// The words that start non-zero: ring 0, the first head and tail, is
    /// number 1 (free rings are 0). A machine starts with them; writing them
    /// is not an access.
    pub fn presets(&self) -> [(Addr, u64); 2] {
        [(self.first(), 1 << 32), (self.seq(0), 1)]
    }

    fn size(&self) -> u64 {
        1 << self.order
    }

    fn line(&self, i: u64) -> Addr {
        self.base + i * WORDS_PER_LINE
    }

    /// The queue's head word: (sequence number, ring).
    fn first(&self) -> Addr {
        self.line(0)
    }

    /// The queue's tail ring word.
    fn last(&self) -> Addr {
        self.line(1)
    }

    fn hazard(&self, slot: u64) -> Addr {
        self.line(2 + slot)
    }

    fn ring(&self, r: u64) -> u64 {
        2 + self.handles + r * (3 + self.size())
    }

    fn head(&self, r: u64) -> Addr {
        self.line(self.ring(r))
    }

    fn tail(&self, r: u64) -> Addr {
        self.line(self.ring(r) + 1)
    }

    fn next(&self, r: u64) -> Addr {
        self.line(self.ring(r) + 2)
    }

    fn seq(&self, r: u64) -> Addr {
        self.next(r) + 1
    }

    fn cell(&self, r: u64, pos: u64) -> Addr {
        self.line(self.ring(r) + 3 + (pos & (self.size() - 1)))
    }

    /// Enqueues `v` (below `u32::MAX`) from hazard slot `slot`; returns
    /// `false`, having enqueued nothing, when its ring is closed and every
    /// ring of the pool is taken.
    pub async fn enqueue<M: Machine>(
        &self,
        m: &mut M,
        slot: u64,
        v: u64,
        probe: &mut impl Probe<M>,
    ) -> bool {
        debug_assert!(v < VALUES, "LCRQ values are 32-bit, below u32::MAX");
        loop {
            let r = self.protect(m, slot, self.last()).await;
            let next = m.load(self.next(r), SeqCst).await;
            if next != 0 {
                m.cas(self.last(), r, next - 1, SeqCst).await;
                continue;
            }
            if self.ring_enqueue(m, r, v, probe).await {
                break;
            }
            match self.take(m, r).await {
                Take::Ring(n, seq) => {
                    self.renew(m, n, v).await;
                    // Release publishes the fresh ring. The link succeeds
                    // only while `r` ends the list (its hazard keeps it from
                    // reuse), so `seq` is one past its number.
                    if m.cas(self.next(r), 0, n + 1, SeqCst).await {
                        m.store(self.seq(n), seq, SeqCst).await;
                        m.cas(self.last(), r, n, SeqCst).await;
                        break;
                    }
                    self.give_back(m, n, seq).await;
                }
                Take::Busy(hazard, n) => {
                    m.store(self.hazard(slot), IDLE, SeqCst).await;
                    let mut b = Backoff::new(1, 64);
                    m.spin_until(hazard, Until::Differs(n + 2), &mut b, SeqCst)
                        .await;
                }
                Take::Full => {
                    m.store(self.hazard(slot), IDLE, SeqCst).await;
                    return false;
                }
            }
        }
        m.store(self.hazard(slot), IDLE, SeqCst).await;
        true
    }

    /// Dequeues the oldest value from hazard slot `slot`, or `None` on an
    /// empty queue. A ring found drained with a successor is retired: the
    /// head moves past it, and that returns it to the pool.
    pub async fn dequeue<M: Machine>(
        &self,
        m: &mut M,
        slot: u64,
        probe: &mut impl Probe<M>,
    ) -> Option<u64> {
        let v = loop {
            let head = self.protect(m, slot, self.first()).await;
            let r = head & RING;
            if let Some(v) = self.ring_dequeue(m, r, probe).await {
                break Some(v);
            }
            let next = m.load(self.next(r), SeqCst).await;
            if next == 0 {
                break None;
            }
            // The ring was closed before its successor was linked, and an
            // enqueuer may have deposited since the first try.
            if let Some(v) = self.ring_dequeue(m, r, probe).await {
                break Some(v);
            }
            // The tail leaves the ring before the head does, so a retired
            // ring is on neither end.
            if m.load(self.last(), SeqCst).await == r {
                m.cas(self.last(), r, next - 1, SeqCst).await;
            }
            // While the head is `head`, ring `next - 1` is live, numbered
            // (its linker may not have cleared the claimed bit yet).
            let seq = m.load(self.seq(next - 1), SeqCst).await & !CLAIMED;
            m.cas(self.first(), head, (seq << 32) | (next - 1), SeqCst)
                .await;
        };
        m.store(self.hazard(slot), IDLE, SeqCst).await;
        v
    }

    /// Reads the word at `end` (the head or tail) and publishes its ring
    /// in the slot's hazard until a re-read finds the word unchanged: from
    /// then on the ring cannot be reused under the caller, which holds it
    /// until it clears its hazard. Returns the word.
    async fn protect<M: Machine>(&self, m: &mut M, slot: u64, end: Addr) -> u64 {
        let mut w = m.load(end, SeqCst).await;
        loop {
            m.store(self.hazard(slot), (w & RING) + 2, SeqCst).await;
            let again = m.load(end, SeqCst).await;
            if again == w {
                return w;
            }
            w = again;
        }
    }

    /// Takes a free ring no hazard names to append after `r`, the caller's
    /// tail ring, searching the pool from the one after it. If `r` no
    /// longer ends the list its number, and so the one returned, may be
    /// anything: the link then fails and the ring goes back unnumbered.
    async fn take<M: Machine>(&self, m: &mut M, r: u64) -> Take {
        let live = m.load(self.first(), SeqCst).await >> 32;
        let seq = (m.load(self.seq(r), SeqCst).await & !CLAIMED) + 1;
        let mut found = Take::Full;
        for k in 1..=self.rings {
            let n = (r + k) % self.rings;
            let old = m.load(self.seq(n), SeqCst).await;
            if old >= live || !m.cas(self.seq(n), old, CLAIMED | seq, SeqCst).await {
                continue;
            }
            match self.holder(m, n).await {
                None => return Take::Ring(n, seq),
                Some(hazard) => {
                    self.give_back(m, n, seq).await;
                    found = Take::Busy(hazard, n);
                }
            }
        }
        found
    }

    /// Returns ring `n`, claimed as `seq`, to the pool.
    async fn give_back<M: Machine>(&self, m: &mut M, n: u64, seq: u64) {
        let mine = m.cas(self.seq(n), CLAIMED | seq, 0, SeqCst).await;
        debug_assert!(mine, "ring {n}'s claim changed hands");
    }

    /// The hazard word that names ring `n`, if any does.
    async fn holder<M: Machine>(&self, m: &mut M, n: u64) -> Option<Addr> {
        for slot in 0..self.handles {
            if m.load(self.hazard(slot), SeqCst).await == n + 2 {
                return Some(self.hazard(slot));
            }
        }
        None
    }

    /// Makes ring `n`, which the caller took, a fresh open ring holding `v`.
    async fn renew<M: Machine>(&self, m: &mut M, n: u64, v: u64) {
        m.store(self.cell(n, 0), cell(false, 0, v + 1), Relaxed)
            .await;
        for pos in 1..self.size() {
            m.store(self.cell(n, pos), 0, Relaxed).await;
        }
        m.store(self.head(n), 0, Relaxed).await;
        m.store(self.tail(n), 1, Relaxed).await;
        m.store(self.next(n), 0, Relaxed).await;
    }

    /// A CRQ enqueue; `false` once the ring is closed.
    async fn ring_enqueue<M: Machine>(
        &self,
        m: &mut M,
        r: u64,
        v: u64,
        probe: &mut impl Probe<M>,
    ) -> bool {
        let mut tries = 0;
        loop {
            let t = m.faa(self.tail(r), 1, AcqRel).await;
            if t & CLOSED != 0 {
                return false;
            }
            let a = self.cell(r, t);
            let c = m.load(a, Acquire).await;
            let (unsafe_, rd) = (c & UNSAFE != 0, (c >> 32) & ROUNDS);
            if c & VALUES == 0
                && rd <= round(t, self.order)
                && (!unsafe_ || m.load(self.head(r), Acquire).await <= t)
            {
                let won = m
                    .cas(a, c, cell(false, round(t, self.order), v + 1), AcqRel)
                    .await;
                probe.cas_attempt(m, won);
                if won {
                    return true;
                }
            }
            let h = m.load(self.head(r), Acquire).await;
            tries += 1;
            if t >= h + self.size() || tries >= STARVING {
                self.close(m, r).await;
                return false;
            }
        }
    }

    /// Sets ring `r`'s closed bit with a CAS loop (the paper's port has no
    /// bitwise test-and-set).
    async fn close<M: Machine>(&self, m: &mut M, r: u64) {
        loop {
            let t = m.load(self.tail(r), Acquire).await;
            if t & CLOSED != 0 || m.cas(self.tail(r), t, t | CLOSED, AcqRel).await {
                return;
            }
        }
    }

    /// A CRQ dequeue; `None` when the ring holds nothing for this dequeuer.
    async fn ring_dequeue<M: Machine>(
        &self,
        m: &mut M,
        r: u64,
        probe: &mut impl Probe<M>,
    ) -> Option<u64> {
        loop {
            let h = m.faa(self.head(r), 1, AcqRel).await;
            let a = self.cell(r, h);
            let mine = round(h, self.order);
            // Settle the cell at `h`: take its value, or keep its enqueuer
            // from depositing one later.
            loop {
                let c = m.load(a, Acquire).await;
                let (unsafe_, rd, val) = (c & UNSAFE != 0, (c >> 32) & ROUNDS, c & VALUES);
                if rd > mine {
                    break;
                }
                let (next, taken) = if val == 0 {
                    // Empty: move it past `h`.
                    (cell(unsafe_, mine + 1, 0), false)
                } else if rd == mine {
                    (cell(unsafe_, mine + 1, 0), true)
                } else {
                    // A value an earlier round's dequeuer has yet to take:
                    // from now on an enqueuer deposits here only while the
                    // head has not passed its position.
                    (c | UNSAFE, false)
                };
                let won = m.cas(a, c, next, AcqRel).await;
                probe.cas_attempt(m, won);
                if won && taken {
                    return Some(val - 1);
                }
                if won {
                    break;
                }
            }
            let t = m.load(self.tail(r), Acquire).await & !CLOSED;
            if t <= h + 1 {
                self.fix_state(m, r).await;
                return None;
            }
        }
    }

    /// Lifts ring `r`'s tail to its head when dequeuers overshot it, so
    /// later enqueues do not deposit at positions already given up.
    async fn fix_state<M: Machine>(&self, m: &mut M, r: u64) {
        loop {
            let t = m.load(self.tail(r), Acquire).await;
            let h = m.load(self.head(r), Acquire).await;
            if t & !CLOSED >= h || m.cas(self.tail(r), t, h | (t & CLOSED), AcqRel).await {
                return;
            }
        }
    }
}

/// LCRQ on the host, over a fixed pool of rings, each handle owning one
/// hazard slot: the nonblocking comparator of Figure 5a.
///
/// ```
/// use std::sync::Arc;
/// use mpsync_core::queue::Lcrq;
///
/// let q = Arc::new(Lcrq::new(4, 2, 1));
/// let mut h = q.handle();
/// h.enqueue(1);
/// h.enqueue(2);
/// assert_eq!(h.dequeue(), Some(1));
/// assert_eq!(h.dequeue(), Some(2));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct Lcrq {
    arena: Arena,
    layout: LcrqLayout,
}

impl Lcrq {
    /// An empty queue over `rings` rings of `2^order` cells, for at most
    /// `handles` handles at a time.
    pub fn new(order: u32, rings: u64, handles: u64) -> Self {
        assert!(
            (1..=30).contains(&order),
            "ring order {order}: not in 1..=30"
        );
        assert!(rings >= 2, "an LCRQ of {rings} rings: it appends a second");
        assert!(handles > 0, "an LCRQ for no handles");
        let layout = LcrqLayout {
            base: 0,
            order,
            rings,
            handles,
        };
        let arena = Arena::new(
            LcrqLayout::lines(order, rings, handles),
            "an LCRQ is never poisoned",
        );
        arena.preset(layout.presets());
        Self { arena, layout }
    }

    /// A per-thread handle, owning a hazard slot until it is dropped.
    ///
    /// # Panics
    ///
    /// Panics, naming the count, when every slot has a handle.
    pub fn handle(self: &Arc<Self>) -> LcrqHandle {
        let l = &self.layout;
        let slot = (0..l.handles)
            .find(|&s| {
                let hazard = self.arena_word(l.hazard(s));
                hazard.compare_exchange(0, IDLE, AcqRel, Relaxed).is_ok()
            })
            .unwrap_or_else(|| panic!("an LCRQ for {} handles has them all out", l.handles));
        LcrqHandle {
            queue: Arc::clone(self),
            slot,
        }
    }

    fn arena_word(&self, a: Addr) -> &crate::sync::AtomicU64 {
        ClientSide::new(&self.arena).word(a)
    }
}

/// Per-thread handle to an [`Lcrq`].
pub struct LcrqHandle {
    queue: Arc<Lcrq>,
    slot: u64,
}

impl LcrqHandle {
    /// Enqueues `v`.
    ///
    /// # Panics
    ///
    /// Panics unless `v < u32::MAX`, and, naming the capacity, when the
    /// queue needs a ring and every ring of the pool is taken.
    pub fn enqueue(&mut self, v: u64) {
        assert!(v < VALUES, "LCRQ stores 32-bit values below u32::MAX");
        let q = &*self.queue;
        let mut m = ClientSide::new(&q.arena);
        if !block_on(q.layout.enqueue(&mut m, self.slot, v, &mut ())) {
            let l = &q.layout;
            panic!(
                "LCRQ out of rings: its capacity is {} rings of {} cells",
                l.rings,
                l.size()
            );
        }
    }

    /// Dequeues the oldest value, or `None` when the queue is empty.
    pub fn dequeue(&mut self) -> Option<u64> {
        let q = &*self.queue;
        let mut m = ClientSide::new(&q.arena);
        block_on(q.layout.dequeue(&mut m, self.slot, &mut ()))
    }
}

/// A dropped handle's slot is free for the next.
impl Drop for LcrqHandle {
    fn drop(&mut self) {
        let q = &*self.queue;
        q.arena_word(q.layout.hazard(self.slot)).store(0, Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApplyOp, LockCs, TicketLock};
    use std::future::Future;
    use std::task::Poll;

    type Half = fn(&mut Arc<TwoLockQueue>, u64, u64) -> u64;

    #[test]
    fn a_coarse_queue_refuses_past_capacity_and_wraps() {
        let mut q = CoarseQueue::new(3);
        for round in 0..4 {
            for v in 1..=3 {
                assert_eq!(q.dispatch(ops::ENQ, round * 10 + v), 0);
            }
            assert_eq!(q.dispatch(ops::ENQ, 99), FULL);
            assert_eq!(q.dispatch(ops::LEN, 0), 3);
            for v in 1..=3 {
                assert_eq!(q.dispatch(ops::DEQ, 0), round * 10 + v);
            }
            assert_eq!(q.dispatch(ops::DEQ, 0), EMPTY);
        }
    }

    #[test]
    fn a_two_lock_queue_reuses_its_nodes_in_ring_order() {
        let q = TwoLockQueue::new(2);
        let enq = LockCs::<_, TicketLock, _>::new(Arc::clone(&q), TwoLockQueue::dispatch as Half);
        let deq = LockCs::<_, TicketLock, _>::new(q, TwoLockQueue::dispatch as Half);
        let (mut e, mut d) = (enq.handle(), deq.handle());
        for v in 0..20 {
            assert_eq!(e.apply(ops::ENQ, v), 0);
            if v % 2 == 1 {
                assert_eq!(e.apply(ops::ENQ, 99), FULL);
                assert_eq!(d.apply(ops::DEQ, 0), v - 1);
                assert_eq!(d.apply(ops::DEQ, 0), v);
                assert_eq!(d.apply(ops::DEQ, 0), EMPTY);
            }
        }
    }

    /// Ring order 2 and a pool of 2 rings: six values need a second ring,
    /// so from the second round on each round needs a ring the previous
    /// one retired.
    #[test]
    fn lcrq_reuses_retired_rings() {
        let q = Arc::new(Lcrq::new(2, 2, 1));
        let mut h = q.handle();
        let rounds = if cfg!(miri) { 10 } else { 100 };
        for round in 0..rounds {
            for v in 0..6 {
                h.enqueue(round * 6 + v);
            }
            for v in 0..6 {
                assert_eq!(h.dequeue(), Some(round * 6 + v), "round {round}");
            }
            assert_eq!(h.dequeue(), None);
        }
    }

    /// A native machine that stops once, before its `skip + 1`-th access to
    /// `gate`: a test polls an operation up to there, runs others, and then
    /// resumes it.
    struct Gated<'a> {
        inner: ClientSide<'a>,
        gate: Addr,
        skip: usize,
        stopped: bool,
    }

    impl Gated<'_> {
        async fn at(&mut self, a: Addr) {
            if a != self.gate || self.stopped {
                return;
            }
            if self.skip > 0 {
                self.skip -= 1;
                return;
            }
            self.stopped = true;
            let mut yielded = false;
            std::future::poll_fn(|_| {
                if std::mem::replace(&mut yielded, true) {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            })
            .await;
        }
    }

    impl Machine for Gated<'_> {
        type Cs = ();

        async fn load(&mut self, a: Addr, order: crate::sync::Ordering) -> u64 {
            self.at(a).await;
            self.inner.load(a, order).await
        }

        async fn store(&mut self, a: Addr, v: u64, order: crate::sync::Ordering) {
            self.at(a).await;
            self.inner.store(a, v, order).await;
        }

        async fn swap(&mut self, a: Addr, v: u64, order: crate::sync::Ordering) -> u64 {
            self.at(a).await;
            self.inner.swap(a, v, order).await
        }

        async fn faa(&mut self, a: Addr, delta: u64, order: crate::sync::Ordering) -> u64 {
            self.at(a).await;
            self.inner.faa(a, delta, order).await
        }

        async fn cas(&mut self, a: Addr, old: u64, new: u64, order: crate::sync::Ordering) -> bool {
            self.at(a).await;
            self.inner.cas(a, old, new, order).await
        }

        fn id(&self) -> u64 {
            0
        }

        async fn send(&mut self, _: u64, _: &[u64]) {
            unreachable!("LCRQ sends no messages")
        }

        async fn receive<const K: usize>(&mut self) -> [u64; K] {
            unreachable!("LCRQ receives no messages")
        }

        async fn has_pending_traffic(&mut self) -> bool {
            unreachable!("LCRQ receives no messages")
        }

        async fn spin_until(
            &mut self,
            a: Addr,
            until: Until,
            backoff: &mut Backoff,
            order: crate::sync::Ordering,
        ) -> u64 {
            self.at(a).await;
            self.inner.spin_until(a, until, backoff, order).await
        }

        async fn cs(&mut self, _: &(), _: u64, _: u64) -> u64 {
            unreachable!("LCRQ has no critical section")
        }
    }

    /// Ring order 1 and a pool of 8: handle A fills ring 0, and its third
    /// enqueue closes it, takes ring 1 and stops, before renewing ring 1
    /// (`renew`) or before linking it (`link`). Handle B then enqueues and
    /// dequeues `rounds` rounds of three values, which appends and retires
    /// rings past ring 1 until the head's number is far above the one A
    /// gives ring 1. A's claim keeps ring 1 from B all that time: when A
    /// resumes, every value is dequeued once and in order, and the rounds
    /// after it still find free rings.
    #[test]
    fn lcrq_a_stalled_claim_keeps_its_ring() {
        use std::collections::VecDeque;
        use std::pin::pin;
        use std::task::{Context, Waker};
        for (stop, rounds) in ["renew", "link"]
            .into_iter()
            .flat_map(|stop| (0..12).map(move |rounds| (stop, rounds)))
        {
            let q = Arc::new(Lcrq::new(1, 8, 2));
            let l = q.layout;
            let (mut a, mut b) = (q.handle(), q.handle());
            let mut model = VecDeque::new();
            let mut next = 0;
            let mut push = |h: &mut LcrqHandle, model: &mut VecDeque<u64>| {
                next += 1;
                h.enqueue(next);
                model.push_back(next);
            };
            push(&mut a, &mut model);
            push(&mut a, &mut model);
            let (gate, skip) = match stop {
                // renew's first store.
                "renew" => (l.cell(1, 0), 0),
                // The enqueue loop reads ring 0's link before the CAS.
                _ => (l.next(0), 1),
            };
            let mut gated = Gated {
                inner: ClientSide::new(&q.arena),
                gate,
                skip,
                stopped: false,
            };
            let mut silent = ();
            let mut late = pin!(l.enqueue(&mut gated, a.slot, 1_000, &mut silent));
            let mut cx = Context::from_waker(Waker::noop());
            assert!(
                late.as_mut().poll(&mut cx).is_pending(),
                "{stop}: A never stopped"
            );
            for _ in 0..rounds {
                for _ in 0..3 {
                    push(&mut b, &mut model);
                }
                for _ in 0..3 {
                    assert_eq!(b.dequeue(), model.pop_front(), "{stop}, {rounds} rounds");
                }
            }
            assert_eq!(late.as_mut().poll(&mut cx), Poll::Ready(true));
            model.push_back(1_000);
            for _ in 0..20 {
                for _ in 0..3 {
                    push(&mut b, &mut model);
                }
                for _ in 0..3 {
                    assert_eq!(b.dequeue(), model.pop_front(), "{stop}, {rounds} rounds");
                }
            }
            let left: Vec<u64> = std::iter::from_fn(|| b.dequeue()).collect();
            assert_eq!(left, Vec::from(model), "{stop}, {rounds} rounds");
        }
    }

    #[test]
    #[should_panic(expected = "below u32::MAX")]
    fn lcrq_refuses_a_value_past_32_bits() {
        let q = Arc::new(Lcrq::new(2, 2, 1));
        q.handle().enqueue(u64::from(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "capacity is 2 rings of 4 cells")]
    fn lcrq_past_its_pool_panics() {
        let q = Arc::new(Lcrq::new(2, 2, 1));
        let mut h = q.handle();
        for v in 0..9 {
            h.enqueue(v);
        }
    }

    #[test]
    fn lcrq_moves_values_from_producers_to_consumers_once_in_order() {
        const PER: u64 = if cfg!(miri) { 50 } else { 5_000 };
        // Room for every value in rings a quarter full.
        let q = Arc::new(Lcrq::new(4, 2 * PER / 4, 5));
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let mut h = q.handle();
                std::thread::spawn(move || (0..PER).for_each(|i| h.enqueue(p * PER + i)))
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let mut h = q.handle();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut idle = 0;
                    while idle < 1_000 {
                        match h.dequeue() {
                            Some(v) => {
                                got.push(v);
                                idle = 0;
                            }
                            None => {
                                idle += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        producers.into_iter().for_each(|p| p.join().unwrap());
        let mut all = Vec::new();
        for got in consumers.into_iter().map(|c| c.join().unwrap()) {
            // A consumer sees each producer's values in the order enqueued.
            for p in 0..2 {
                let mine: Vec<u64> = got.iter().copied().filter(|v| v / PER == p).collect();
                assert!(mine.is_sorted(), "producer {p}'s values out of order");
            }
            all.extend(got);
        }
        let mut h = q.handle();
        while let Some(v) = h.dequeue() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (0..2 * PER).collect::<Vec<_>>());
    }
}
