//! Bounded multi-producer single-consumer FIFO of 64-bit words.
//!
//! This is the building block for one "hardware queue": a generalized
//! Vyukov-style bounded queue in which a producer reserves a *contiguous run*
//! of cells with a single `fetch_add`, so that a multi-word message occupies
//! consecutive positions (the UDN guarantee that the words of one message are
//! placed in the destination queue in order, without interleaving).
//!
//! Cell protocol (all positions are monotonically increasing global indices,
//! mapped onto the ring with `pos % capacity`):
//!
//! * `seq == pos`      — the cell is free for the producer that owns `pos`;
//! * `seq == pos + 1`  — the cell holds the word written for `pos`;
//! * after consuming `pos`, the consumer stores `seq = pos + capacity`,
//!   which is the "free" state for the next lap.
//!
//! All position arithmetic is wrapping: positions are indices modulo
//! 2⁶⁴, and every comparison in the protocol is an *equality* against a
//! value derived by wrapping addition, so the state machine is well defined
//! across the numeric wrap of `usize`. The one caveat is the ring mapping
//! itself: `pos % capacity` is continuous across the wrap only when
//! `capacity` divides 2⁶⁴ (i.e. is a power of two). With the default
//! 118-word queues a wrap is unreachable in practice (at 10⁹ words/s it is
//! ~584 years away), and the test-only [`WordQueue::with_start`] hook that
//! does start near the wrap uses a power-of-two capacity.
//!
//! A producer that reserved positions not yet freed by the consumer spins:
//! this is exactly the hardware back-pressure behaviour (§5.1: "if a hardware
//! queue is full, subsequent incoming messages back up into the network and
//! may cause the sender to block").

use std::sync::atomic::AtomicU64;

use crossbeam_utils::CachePadded;

use crate::sync::{backoff, AtomicUsize, Ordering, UnsafeCell};

/// One ring cell: a publication sequence number plus the word payload.
struct Cell {
    seq: AtomicUsize,
    value: UnsafeCell<u64>,
}

// The `UnsafeCell` is only written by the producer that owns the cell's
// current sequence window and only read by the single consumer after the
// producer published it with a `Release` store of `seq` (the loom models in
// `src/loom_models.rs` check exactly this discipline).
unsafe impl Sync for Cell {}

/// A bounded MPSC FIFO of `u64` words with contiguous multi-word enqueue.
///
/// The single-consumer discipline is enforced by the caller
/// ([`Endpoint`](crate::Endpoint) owns the consumer side exclusively); the
/// queue itself only assumes it, it cannot check it.
pub struct WordQueue {
    buf: Box<[Cell]>,
    /// Next position to be reserved by a producer.
    tail: CachePadded<AtomicUsize>,
    /// Next position to be consumed. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Number of times a producer had to wait for space (back-pressure).
    /// Plain std atomic on purpose: statistics, not protocol (see
    /// `crate::sync`).
    blocked_sends: AtomicU64,
    /// Number of [`WordQueue::try_send`] attempts rejected for lack of
    /// space. Distinct from `blocked_sends`: a failed non-blocking attempt
    /// never waited, so it is not back-pressure.
    failed_sends: AtomicU64,
}

/// Outcome of [`WordQueue::try_reserve`].
enum Reserve {
    /// Positions `[start, start + n)` were reserved.
    At(usize),
    /// Not enough free space at the moment of the attempt.
    Full,
}

impl WordQueue {
    /// Creates a queue holding at most `capacity` words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_start(capacity, 0)
    }

    /// Creates a queue whose position counters start at `start` instead of
    /// zero. Test-only hook for exercising the protocol near the numeric
    /// wrap of `usize`; use a power-of-two `capacity` when `start` is close
    /// enough to `usize::MAX` for positions to wrap (see the module doc).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[doc(hidden)]
    pub fn with_start(capacity: usize, start: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        let buf: Box<[Cell]> = (0..capacity)
            .map(|_| Cell {
                seq: AtomicUsize::new(0),
                value: UnsafeCell::new(0),
            })
            .collect();
        // Seed each cell as free for its first owned position ≥ start.
        for i in 0..capacity {
            let pos = start.wrapping_add(i);
            buf[pos % capacity].seq.store(pos, Ordering::Relaxed);
        }
        Self {
            buf,
            tail: CachePadded::new(AtomicUsize::new(start)),
            head: CachePadded::new(AtomicUsize::new(start)),
            blocked_sends: AtomicU64::new(0),
            failed_sends: AtomicU64::new(0),
        }
    }

    /// Maximum number of words the queue can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Number of words currently enqueued (reserved-but-unpublished words
    /// count as enqueued; the value is a snapshot and may be stale by the
    /// time it is observed).
    #[inline]
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        // Wrapping distance: tail is never more than `capacity` ahead of
        // head, so the difference is exact even across the numeric wrap.
        // (The two loads are unordered snapshots, so clamp transient
        // tail-behind-head readings to zero rather than wrapping to 2⁶⁴.)
        let d = tail.wrapping_sub(head);
        if d > self.buf.len() {
            0
        } else {
            d
        }
    }

    /// `true` if no *published* word is available at the head.
    ///
    /// This is the consumer-side `is_queue_empty()` of the paper's system
    /// model: it looks at the head cell's publication flag, so a message
    /// whose reservation exists but whose first word has not been written
    /// yet is reported as "not yet there" — matching a hardware FIFO, where
    /// a word either arrived or did not.
    #[inline]
    pub fn is_empty(&self) -> bool {
        // `head` is consumer-owned, and the result is only a hint: every
        // actual dequeue re-loads `seq` with Acquire before touching the
        // payload, so Relaxed is sufficient here (audited by the hybcomb
        // eager-drain loom model, which calls this from the combiner).
        let head = self.head.load(Ordering::Relaxed);
        let cell = &self.buf[head % self.buf.len()];
        cell.seq.load(Ordering::Relaxed) != head.wrapping_add(1)
    }

    /// Number of sends that observed a full queue and had to wait.
    #[inline]
    pub fn blocked_sends(&self) -> u64 {
        self.blocked_sends.load(Ordering::Relaxed)
    }

    /// Number of non-blocking send attempts rejected because the queue had
    /// no room for the whole message.
    #[inline]
    pub fn failed_sends(&self) -> u64 {
        self.failed_sends.load(Ordering::Relaxed)
    }

    /// Attempts to reserve `n` contiguous positions without blocking.
    fn try_reserve(&self, n: usize) -> Reserve {
        let cap = self.buf.len();
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            // Acquire pairs with the consumer's Release store of `head` in
            // `receive_*`: it orders this thread after the consumer's
            // `seq = pos + cap` frees for every position below `head`.
            // That edge is what makes a successful reservation a *proof*
            // that `publish` finds its cells free (try_send's no-wait
            // guarantee); with a Relaxed load the guarantee — and the
            // debug assert in `try_send` — would be unsound.
            let head = self.head.load(Ordering::Acquire);
            // Used space is the wrapping distance tail − head (≤ cap by
            // construction), so this comparison cannot overflow.
            if tail.wrapping_sub(head) + n > cap {
                return Reserve::Full;
            }
            // Relaxed suffices for the reservation itself: winning the CAS
            // only orders producers among each other; payload publication
            // happens via each cell's `seq` Release store.
            match self.tail.compare_exchange_weak(
                tail,
                tail.wrapping_add(n),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Reserve::At(tail),
                Err(t) => tail = t,
            }
        }
    }

    /// Writes `words` into previously reserved positions starting at `start`.
    ///
    /// Returns `true` if any cell was still held by the consumer when first
    /// examined — i.e. the producer genuinely waited for space. With a
    /// successful `try_reserve` this never happens (the reservation proved
    /// every cell free); with a blocking reservation it is the back-pressure
    /// point.
    fn publish(&self, start: usize, words: &[u64]) -> bool {
        let cap = self.buf.len();
        let mut waited = false;
        for (i, &w) in words.iter().enumerate() {
            let pos = start.wrapping_add(i);
            let cell = &self.buf[pos % cap];
            // Wait until the consumer has freed this cell from the previous
            // lap. Acquire pairs with the consumer's `seq = pos + cap`
            // Release store: it orders our payload write after the
            // consumer's payload read of the previous lap (without it the
            // write below races that read).
            let mut spins = 0u32;
            while cell.seq.load(Ordering::Acquire) != pos {
                waited = true;
                backoff(&mut spins);
            }
            // SAFETY: the cell at `pos` is exclusively owned by this producer
            // between observing `seq == pos` and storing `seq == pos + 1`.
            cell.value.with_mut(|p| unsafe { *p = w });
            // Release publishes the payload write above to the consumer's
            // Acquire load of `seq` — the edge every receive relies on.
            cell.seq.store(pos.wrapping_add(1), Ordering::Release);
        }
        waited
    }

    /// Enqueues all of `words` as one contiguous message, blocking while the
    /// queue is full (hardware back-pressure semantics).
    ///
    /// Returns `true` if the send hit back-pressure — i.e. it genuinely
    /// waited for the consumer to free space (the same condition that
    /// increments [`WordQueue::blocked_sends`]).
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` exceeds the queue capacity: such a message
    /// could never fit and would deadlock real hardware too.
    pub fn send_blocking(&self, words: &[u64]) -> bool {
        assert!(
            words.len() <= self.buf.len(),
            "message of {} words cannot fit a queue of capacity {}",
            words.len(),
            self.buf.len()
        );
        if words.is_empty() {
            return false;
        }
        // Reserve unconditionally: the positions will become free once the
        // consumer drains preceding words. `publish` waits per-cell and
        // reports whether this send actually had to wait — a head snapshot
        // taken here instead would already be stale by the time the cells
        // are examined, counting sends the consumer drained in time.
        // Relaxed for the same reason as the CAS in `try_reserve`.
        let start = self.tail.fetch_add(words.len(), Ordering::Relaxed);
        let waited = self.publish(start, words);
        if waited {
            self.blocked_sends.fetch_add(1, Ordering::Relaxed);
        }
        waited
    }

    /// Attempts to enqueue `words` without blocking.
    ///
    /// Returns `false` if the queue did not have room for the whole message
    /// at the moment of the attempt (the message is *not* partially
    /// enqueued). Rejections are counted in [`WordQueue::failed_sends`] —
    /// not in [`WordQueue::blocked_sends`], which only counts sends that
    /// genuinely waited.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` exceeds the queue capacity.
    pub fn try_send(&self, words: &[u64]) -> bool {
        assert!(
            words.len() <= self.buf.len(),
            "message of {} words cannot fit a queue of capacity {}",
            words.len(),
            self.buf.len()
        );
        if words.is_empty() {
            return true;
        }
        match self.try_reserve(words.len()) {
            Reserve::At(start) => {
                // A successful reservation proved the space free, so this
                // publish never waits and counts no back-pressure.
                let waited = self.publish(start, words);
                debug_assert!(
                    !waited,
                    "try_send publish waited after a proven reservation"
                );
                true
            }
            Reserve::Full => {
                self.failed_sends.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Dequeues exactly `buf.len()` words from the head of the queue,
    /// blocking until they are available.
    ///
    /// # Safety contract (single consumer)
    ///
    /// Must only be called by the unique consumer of this queue. The crate
    /// upholds this by funnelling all receives through the owned
    /// [`Endpoint`](crate::Endpoint).
    pub(crate) fn receive_blocking(&self, buf: &mut [u64]) {
        let cap = self.buf.len();
        // `head` is only ever written by this (single) consumer, so reading
        // our own last store needs no ordering.
        let head = self.head.load(Ordering::Relaxed);
        for (i, slot) in buf.iter_mut().enumerate() {
            let pos = head.wrapping_add(i);
            let cell = &self.buf[pos % cap];
            let mut spins = 0u32;
            // Acquire pairs with the producer's `seq = pos + 1` Release
            // store: observing the published value orders us after the
            // producer's payload write.
            while cell.seq.load(Ordering::Acquire) != pos.wrapping_add(1) {
                backoff(&mut spins);
            }
            // SAFETY: publication observed with Acquire; only this consumer
            // reads the cell before marking it free.
            *slot = cell.value.with(|p| unsafe { *p });
            // Release frees the cell for the next lap: it publishes our
            // payload *read* to the producer's Acquire load in `publish`,
            // so the next write cannot overtake it.
            cell.seq.store(pos.wrapping_add(cap), Ordering::Release);
        }
        // Release pairs with the Acquire load in `try_reserve`: a producer
        // that observes the new head also observes every `seq` free above.
        self.head
            .store(head.wrapping_add(buf.len()), Ordering::Release);
    }

    /// Dequeues up to `buf.len()` words without blocking; returns how many
    /// words were read (a prefix of `buf` is filled).
    pub(crate) fn try_receive(&self, buf: &mut [u64]) -> usize {
        let cap = self.buf.len();
        let head = self.head.load(Ordering::Relaxed);
        let mut n = 0;
        for slot in buf.iter_mut() {
            let pos = head.wrapping_add(n);
            let cell = &self.buf[pos % cap];
            // Acquire on the publication check, as in `receive_blocking`.
            if cell.seq.load(Ordering::Acquire) != pos.wrapping_add(1) {
                break;
            }
            // SAFETY: as in `receive_blocking`.
            *slot = cell.value.with(|p| unsafe { *p });
            cell.seq.store(pos.wrapping_add(cap), Ordering::Release);
            n += 1;
        }
        if n > 0 {
            self.head.store(head.wrapping_add(n), Ordering::Release);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_words_fifo() {
        let q = WordQueue::new(8);
        for i in 0..5 {
            q.send_blocking(&[i]);
        }
        let mut buf = [0u64; 5];
        q.receive_blocking(&mut buf);
        assert_eq!(buf, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn multiword_message_is_contiguous() {
        let q = WordQueue::new(16);
        q.send_blocking(&[10, 11, 12]);
        q.send_blocking(&[20, 21, 22]);
        let mut buf = [0u64; 6];
        q.receive_blocking(&mut buf);
        assert_eq!(buf, [10, 11, 12, 20, 21, 22]);
    }

    #[test]
    fn empty_and_len() {
        let q = WordQueue::new(4);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.send_blocking(&[7]);
        assert!(!q.is_empty());
        assert_eq!(q.len(), 1);
        let mut buf = [0u64; 1];
        q.receive_blocking(&mut buf);
        assert!(q.is_empty());
    }

    #[test]
    fn try_send_full_queue() {
        let q = WordQueue::new(4);
        assert!(q.try_send(&[1, 2, 3, 4]));
        assert!(!q.try_send(&[5]));
        // A rejected non-blocking attempt never waited: it is a failure,
        // not back-pressure.
        assert_eq!(q.failed_sends(), 1);
        assert_eq!(q.blocked_sends(), 0);
        let mut buf = [0u64; 2];
        q.receive_blocking(&mut buf);
        assert_eq!(buf, [1, 2]);
        assert!(q.try_send(&[5, 6]));
        let mut rest = [0u64; 4];
        q.receive_blocking(&mut rest);
        assert_eq!(rest, [3, 4, 5, 6]);
        assert_eq!(q.failed_sends(), 1);
        assert_eq!(q.blocked_sends(), 0);
    }

    #[test]
    fn try_send_rejects_partial_fit() {
        let q = WordQueue::new(4);
        assert!(q.try_send(&[1, 2, 3]));
        // One slot free, three needed: must refuse without corrupting state.
        assert!(!q.try_send(&[4, 5, 6]));
        assert!(q.try_send(&[4]));
        let mut buf = [0u64; 4];
        q.receive_blocking(&mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn try_receive_partial() {
        let q = WordQueue::new(8);
        q.send_blocking(&[1, 2]);
        let mut buf = [0u64; 4];
        assert_eq!(q.try_receive(&mut buf), 2);
        assert_eq!(&buf[..2], &[1, 2]);
        assert_eq!(q.try_receive(&mut buf), 0);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn oversized_message_panics() {
        let q = WordQueue::new(2);
        q.send_blocking(&[1, 2, 3]);
    }

    #[test]
    fn zero_length_send_is_noop() {
        let q = WordQueue::new(2);
        q.send_blocking(&[]);
        assert!(q.try_send(&[]));
        assert!(q.is_empty());
    }

    #[test]
    fn uncontended_sends_count_no_backpressure() {
        let q = WordQueue::new(4);
        q.send_blocking(&[1]);
        q.send_blocking(&[2, 3]);
        let mut buf = [0u64; 3];
        q.receive_blocking(&mut buf);
        // Refill after the drain: the ring wraps, but no send ever waits on
        // the consumer, so nothing may be attributed to back-pressure.
        q.send_blocking(&[4, 5, 6, 7]);
        assert_eq!(q.blocked_sends(), 0);
        assert_eq!(q.failed_sends(), 0);
    }

    #[test]
    fn blocking_send_backpressure() {
        let q = Arc::new(WordQueue::new(2));
        q.send_blocking(&[1, 2]);
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            // Blocks until the consumer below frees space.
            q2.send_blocking(&[3, 4]);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut buf = [0u64; 2];
        q.receive_blocking(&mut buf);
        assert_eq!(buf, [1, 2]);
        t.join().unwrap();
        q.receive_blocking(&mut buf);
        assert_eq!(buf, [3, 4]);
        assert!(q.blocked_sends() >= 1);
        assert_eq!(q.failed_sends(), 0);
    }

    #[test]
    fn positions_wrap_across_usize_max() {
        // Power-of-two capacity: the `pos % capacity` ring mapping stays
        // continuous across the numeric wrap (see the module doc). Start 5
        // positions shy of the wrap so the test crosses it mid-stream.
        let q = WordQueue::with_start(8, usize::MAX - 4);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        // Fill across the wrap boundary.
        for i in 0..8u64 {
            assert!(q.try_send(&[100 + i]));
        }
        assert_eq!(q.len(), 8);
        assert!(!q.try_send(&[200]));
        assert_eq!(q.failed_sends(), 1);
        // Drain in two halves; the second half's positions have wrapped.
        let mut buf = [0u64; 4];
        q.receive_blocking(&mut buf);
        assert_eq!(buf, [100, 101, 102, 103]);
        assert_eq!(q.try_receive(&mut buf), 4);
        assert_eq!(buf, [104, 105, 106, 107]);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        // Another full lap entirely in post-wrap positions.
        q.send_blocking(&[1, 2, 3]);
        let mut rest = [0u64; 3];
        q.receive_blocking(&mut rest);
        assert_eq!(rest, [1, 2, 3]);
        assert_eq!(q.blocked_sends(), 0);
    }

    #[test]
    fn multiword_message_spanning_the_wrap_is_contiguous() {
        let q = WordQueue::with_start(4, usize::MAX - 1);
        // Positions MAX-1, MAX, 0, 1: the message itself spans the wrap.
        q.send_blocking(&[7, 8, 9, 10]);
        let mut buf = [0u64; 4];
        q.receive_blocking(&mut buf);
        assert_eq!(buf, [7, 8, 9, 10]);
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_producers_preserve_per_sender_order() {
        // Miri executes this interpreter-slow; shrink the volume while
        // keeping real contention.
        const PER_SENDER: u64 = if cfg!(miri) { 40 } else { 2_000 };
        const SENDERS: u64 = 4;
        let q = Arc::new(WordQueue::new(64));
        let mut handles = Vec::new();
        for s in 0..SENDERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_SENDER {
                    // Two-word message: (sender, seq). Contiguity means the
                    // pair is never split by another sender's words.
                    q.send_blocking(&[s, i]);
                }
            }));
        }
        let mut next = [0u64; SENDERS as usize];
        let mut buf = [0u64; 2];
        for _ in 0..(PER_SENDER * SENDERS) {
            q.receive_blocking(&mut buf);
            let (s, i) = (buf[0], buf[1]);
            assert!(s < SENDERS, "corrupted sender id {s}");
            assert_eq!(i, next[s as usize], "per-sender FIFO violated");
            next[s as usize] += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.is_empty());
    }
}
