//! Admission control and per-shard accounting.
//!
//! The control plane is deliberately backend-independent: every submission,
//! whatever executor ends up running it, first claims a slot in its target
//! shard's bounded window here. That is what makes the runtime's
//! backpressure and its exactly-once shutdown guarantee uniform across
//! MP-SERVER, the combiner and plain locks.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crossbeam_utils::CachePadded;
use mpsync_telemetry::AtomicLog2Hist;

use crate::config::SubmitPolicy;

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeError {
    /// The runtime is shutting down; no new operations are admitted.
    Closed,
    /// The target shard's submission window is full and the runtime is
    /// configured with [`SubmitPolicy::Fail`](crate::SubmitPolicy::Fail).
    Busy,
    /// The session budget
    /// ([`max_sessions`](crate::RuntimeConfig::max_sessions)) is exhausted.
    SessionsExhausted,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Closed => write!(f, "runtime is closed"),
            RuntimeError::Busy => write!(f, "shard submission window is full"),
            RuntimeError::SessionsExhausted => write!(f, "session budget exhausted"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Per-shard counters, split by who writes them so that an operation does
/// not drag one line between its client's core and its server's twice on top
/// of the request and reply lines: each half is padded to its own 128-byte
/// block (the unit adjacent-line prefetch moves), which also keeps
/// neighbouring shards apart.
#[derive(Debug, Default)]
pub(crate) struct ShardMetrics {
    pub client: CachePadded<ClientMetrics>,
    pub server: CachePadded<ServerMetrics>,
}

/// The half submitting threads write (admission: a CAS and two RMWs per op).
#[derive(Debug, Default)]
pub(crate) struct ClientMetrics {
    /// Operations admitted through [`Control::try_admit`].
    pub submitted: AtomicU64,
    /// Submissions refused with [`RuntimeError::Busy`].
    pub rejected: AtomicU64,
    /// Submissions that found the window full at least once before being
    /// admitted (Block policy).
    pub retried: AtomicU64,
    /// Admitted-but-incomplete operations (bounded by `queue_depth`).
    pub inflight: AtomicUsize,
    /// While `true`, submissions to this shard wait (even under the Fail
    /// policy — a pause is transient, bounded by the drain of at most
    /// `queue_depth` in-flight operations). The adaptive executor raises it
    /// to quiesce a shard before swapping its backend mode. Written only by
    /// a swap, read by every admission — so it lives on the line the
    /// admitting thread is about to write anyway.
    pub paused: AtomicBool,
}

/// The half the shard's executing thread writes.
#[derive(Debug, Default)]
pub(crate) struct ServerMetrics {
    /// Operations executed by the shard's dispatcher.
    pub ops: AtomicU64,
    /// Service batches/combining rounds observed.
    pub batches: AtomicU64,
    /// Log2 histogram of batch sizes (always recorded — one update per
    /// batch — independent of the `telemetry` feature).
    pub batch_hist: AtomicLog2Hist,
}

/// Why [`Control::try_admit`] claimed no slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NoSlot {
    /// The runtime is closed: no slot will ever be granted.
    Closed,
    /// A backend swap is quiescing the shard; slots return after it.
    Paused,
    /// The shard's window is full.
    Full,
}

pub(crate) fn spin(spins: &mut u32) {
    spin_then_yield(spins, 128);
}

/// Wait iterations spent spinning before every further one yields, for the
/// two waits on every delegated operation's path: a session collecting its
/// replies (but for a lone `submit`'s, see `runtime::SUBMIT_SPINS`), and a
/// serving thread that found all its queues empty. A
/// `yield_now` that finds nothing else to run returns in about this many
/// spins' time, so a longer spin cannot save more than that when the waiter
/// has a CPU to itself; and when the thread it waits for shares its CPU,
/// nothing can arrive until the waiter yields — every spin before that only
/// delays it. (Measured on the serving loop with the benchmark's
/// `wire-closed`, where connection threads and the serving thread share one
/// CPU: 128 spins 164k ops/s, 64 spins 178k, 16 spins 190k; the workloads
/// whose serving thread has a CPU to itself do not move.)
pub(crate) const HANDOFF_SPINS: u32 = 16;

/// One wait iteration: a pause while fewer than `limit` have been spent on
/// this wait, a `yield_now` from then on.
pub(crate) fn spin_then_yield(spins: &mut u32, limit: u32) {
    *spins = spins.saturating_add(1);
    if *spins < limit {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// The runtime's shared control block: closed flag, session accounting, and
/// the per-shard windows. Backend-independent and non-generic, so sessions
/// can hold it without dragging the state type along.
pub(crate) struct Control {
    /// Once `true`, no submission passes [`Control::try_admit`]. SeqCst on both
    /// sides (see `try_admit`) so shutdown's in-flight drain cannot miss an
    /// admitted operation.
    closed: AtomicBool,
    /// Currently live sessions (the session budget; shutdown waits for
    /// zero).
    pub sessions_live: AtomicUsize,
    queue_depth: usize,
    submit: SubmitPolicy,
    pub shards: Box<[ShardMetrics]>,
    /// Per shard, the message of the dispatch panic that ended its serving,
    /// set once by the serving thread that caught it
    /// ([`ShardCore::serve`](crate::shard::ShardCore::serve)). Read before
    /// every send to the shard's server and by every reply wait whose poll
    /// comes up empty, so it has lines of its own that nothing writes.
    poison: Box<[CachePadded<OnceLock<String>>]>,
    /// Per-shard versioned read caches, allocated only when the runtime's
    /// `read_fast` mask is non-empty.
    read: Option<Box<[CachePadded<ReadCache>]>>,
}

impl Control {
    pub fn new(shards: usize, queue_depth: usize, submit: SubmitPolicy) -> Self {
        Self {
            closed: AtomicBool::new(false),
            sessions_live: AtomicUsize::new(0),
            queue_depth,
            submit,
            shards: (0..shards).map(|_| ShardMetrics::default()).collect(),
            poison: (0..shards).map(|_| CachePadded::default()).collect(),
            read: None,
        }
    }

    /// Allocates a [`ReadCache`] per shard (builder; call before sharing).
    pub fn with_read_cache(mut self) -> Self {
        self.read = Some(
            (0..self.shards.len())
                .map(|_| CachePadded::new(ReadCache::new()))
                .collect(),
        );
        self
    }

    /// The shard's read cache, if the runtime enabled the fast path.
    #[inline]
    pub fn read_cache(&self, shard: usize) -> Option<&ReadCache> {
        self.read.as_ref().map(|r| &*r[shard])
    }

    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Claims an in-flight slot on `shard` if one can be had without waiting.
    ///
    /// Exactly-once shutdown hinges on the re-check after the CAS: `close()`
    /// stores `closed` with SeqCst and then polls `inflight`. If this
    /// submission's SeqCst load below still reads `closed == false`, the
    /// load is ordered before the store in the single total order, hence so
    /// is our increment — the drain loop must observe the slot until
    /// [`Control::complete`] releases it, i.e. until the operation has been
    /// applied and answered. If the load reads `true`, we back out and the
    /// operation is never sent.
    #[inline]
    pub fn try_admit(&self, shard: usize) -> Result<(), NoSlot> {
        let m = &self.shards[shard].client;
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return Err(NoSlot::Closed);
            }
            if m.paused.load(Ordering::SeqCst) {
                return Err(NoSlot::Paused);
            }
            let cur = m.inflight.load(Ordering::Acquire);
            if cur >= self.queue_depth {
                return Err(NoSlot::Full);
            }
            if m.inflight
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue; // lost the CAS race; re-read
            }
            if self.closed.load(Ordering::SeqCst) {
                m.inflight.fetch_sub(1, Ordering::AcqRel);
                return Err(NoSlot::Closed);
            }
            if m.paused.load(Ordering::SeqCst) {
                // Same protocol as the closed re-check: if the swapper's
                // SeqCst `paused` store precedes this load, back out so its
                // quiesce poll cannot miss us; if our load precedes the
                // store, our increment does too and the poll waits for us.
                m.inflight.fetch_sub(1, Ordering::AcqRel);
                return Err(NoSlot::Paused);
            }
            m.submitted.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
    }

    /// Claims an in-flight slot on `shard`, enforcing the bounded window:
    /// [`Control::try_admit`] until it succeeds, the runtime closes, or —
    /// under the Fail policy — the window is full. `idle` is invoked on
    /// every wait iteration.
    ///
    /// External drivers need this: when a reactor thread both submits
    /// operations and *is* the executor for its own shard, a plain spin
    /// while the window is full could wait on work only the waiter itself
    /// can perform. The hook lets it keep ticking its shard core while
    /// blocked.
    pub fn admit_with(&self, shard: usize, mut idle: impl FnMut()) -> Result<(), RuntimeError> {
        let m = &self.shards[shard].client;
        let mut counted_retry = false;
        let mut spins = 0u32;
        loop {
            match self.try_admit(shard) {
                Ok(()) => return Ok(()),
                Err(NoSlot::Closed) => return Err(RuntimeError::Closed),
                // A backend swap is quiescing this shard; wait it out. This
                // is deliberately a wait even under the Fail policy: unlike
                // a full window, a pause is not load the caller could shed.
                Err(NoSlot::Paused) => {}
                Err(NoSlot::Full) => {
                    if self.submit == SubmitPolicy::Fail {
                        m.rejected.fetch_add(1, Ordering::Relaxed);
                        return Err(RuntimeError::Busy);
                    }
                    if !counted_retry {
                        m.retried.fetch_add(1, Ordering::Relaxed);
                        counted_retry = true;
                    }
                }
            }
            idle();
            spin(&mut spins);
        }
    }

    /// Releases the in-flight slot claimed by [`Control::try_admit`]. Called
    /// after the operation's response has been received.
    pub fn complete(&self, shard: usize) {
        self.shards[shard]
            .client
            .inflight
            .fetch_sub(1, Ordering::AcqRel);
    }

    /// Records that a dispatch on `shard`'s serving thread panicked with
    /// `msg`: the shard's server reads its queue no more.
    pub fn poison(&self, shard: usize, msg: String) {
        let _ = self.poison[shard].set(msg);
    }

    /// `Some(msg)` once `shard` is poisoned (see [`Control::poison`]).
    #[inline]
    pub fn poisoned(&self, shard: usize) -> Option<&str> {
        self.poison[shard].get().map(String::as_str)
    }

    /// Panics if `shard` is poisoned: before a send its server would never
    /// read, and instead of a reply it would never send.
    #[inline]
    pub fn check_poison(&self, shard: usize) {
        if let Some(msg) = self.poisoned(shard) {
            panic!(
                "shard {shard} poisoned: a dispatch panicked on its serving thread, \
                 and its state may be torn: {msg}"
            );
        }
    }

    /// Records one service batch of `n` operations on `shard`.
    pub fn record_batch(&self, shard: usize, n: u64) {
        debug_assert!(n > 0);
        let m = &self.shards[shard].server;
        m.batches.fetch_add(1, Ordering::Relaxed);
        m.batch_hist.record(n);
    }

    /// Closes `shard`'s admission gate without erroring waiters: new
    /// submissions block until [`Control::unpause`]. SeqCst to pair with the
    /// re-check in [`Control::try_admit`].
    pub fn pause(&self, shard: usize) {
        self.shards[shard]
            .client
            .paused
            .store(true, Ordering::SeqCst);
    }

    /// Reopens a paused shard.
    pub fn unpause(&self, shard: usize) {
        self.shards[shard]
            .client
            .paused
            .store(false, Ordering::SeqCst);
    }

    /// Blocks until `shard`'s window is empty. Only meaningful while the
    /// shard is paused (or the runtime closed) — otherwise new admissions
    /// keep arriving. The SeqCst load pairs with the admit protocol exactly
    /// like [`Control::drain_inflight`]'s.
    pub fn wait_quiesced(&self, shard: usize) {
        let mut spins = 0u32;
        while self.shards[shard].client.inflight.load(Ordering::SeqCst) != 0 {
            spin(&mut spins);
        }
    }

    /// Blocks until every shard's window is empty. Only meaningful after
    /// [`Control::close`] (otherwise new submissions keep arriving).
    pub fn drain_inflight(&self) {
        for m in self.shards.iter() {
            let mut spins = 0u32;
            while m.client.inflight.load(Ordering::SeqCst) != 0 {
                spin(&mut spins);
            }
        }
    }

    /// Blocks until every session has been dropped.
    pub fn wait_sessions(&self) {
        let mut spins = 0u32;
        while self.sessions_live.load(Ordering::Acquire) != 0 {
            spin(&mut spins);
        }
    }
}

/// Slots in each shard's read cache (direct-mapped by key hash).
const READ_SLOTS: usize = 64;

struct ReadSlot {
    /// Seqlock sequence: odd while the executor rewrites the slot.
    seq: AtomicU64,
    /// The packed `(key, op)` word this slot caches.
    word: AtomicU64,
    /// The cached return value.
    ret: AtomicU64,
    /// The shard mutation version the value was read under.
    ver: AtomicU64,
}

/// A per-shard versioned snapshot of recently read keys, letting sessions
/// answer read-mostly hot keys (the Zipf head) without a delegation
/// round-trip.
///
/// Single writer, many readers. The *writer* is whatever thread currently
/// executes the shard's dispatches — unique at any instant by the executor's
/// own mutual-exclusion protocol, and across adaptive mode switches by the
/// pause/quiesce swap. It maintains two things:
///
/// * `version`, bumped (SeqCst RMW) **before** any mutating dispatch begins;
/// * per-slot seqlock-published `(word, ret, ver)` tuples recorded after
///   each masked read executes, with `ver` the version it executed under.
///
/// A reader that copies a consistent tuple for its word and then observes
/// `version == ver` (SeqCst) knows no mutation has begun on the shard since
/// the cached read executed, so the cached value is still the key's current
/// value; the read linearizes at the version load. A session's own completed
/// write bumps the version with a happens-before edge to the session (the
/// response hand-off), so the session can never read its own write's
/// pre-image — per-session per-key FIFO holds. Any conflict (torn slot,
/// wrong word, stale version) falls back to normal submission.
pub(crate) struct ReadCache {
    version: AtomicU64,
    slots: Box<[ReadSlot]>,
}

impl ReadCache {
    fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
            slots: (0..READ_SLOTS)
                .map(|_| ReadSlot {
                    seq: AtomicU64::new(0),
                    word: AtomicU64::new(u64::MAX), // matches no packed word
                    ret: AtomicU64::new(0),
                    ver: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    #[inline]
    fn slot_of(word: u64) -> usize {
        // Fibonacci hash; top 6 bits index the direct-mapped table.
        (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
    }

    /// Executor side: marks the start of a mutating dispatch. SeqCst so the
    /// bump and every reader's validation load fall in one total order.
    #[inline]
    pub fn begin_mutation(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// Executor side: records that reading `word` returned `ret`, valid as
    /// of the current version. Must only be called by the shard's unique
    /// executing thread (the seqlock write side is single-writer).
    #[inline]
    pub fn publish(&self, word: u64, ret: u64) {
        // The executor is the only thread that bumps `version`, so its own
        // Relaxed load is exact.
        let ver = self.version.load(Ordering::Relaxed);
        let s = &self.slots[Self::slot_of(word)];
        let seq = s.seq.load(Ordering::Relaxed);
        s.seq.store(seq.wrapping_add(1), Ordering::Relaxed); // odd: writing
        fence(Ordering::Release);
        s.word.store(word, Ordering::Relaxed);
        s.ret.store(ret, Ordering::Relaxed);
        s.ver.store(ver, Ordering::Relaxed);
        s.seq.store(seq.wrapping_add(2), Ordering::Release); // even: published
    }

    /// Session side: attempts to answer a read of `word` from the cache.
    #[inline]
    pub fn try_read(&self, word: u64) -> Option<u64> {
        let s = &self.slots[Self::slot_of(word)];
        let seq = s.seq.load(Ordering::Acquire);
        if seq & 1 == 1 {
            return None; // writer mid-update
        }
        let w = s.word.load(Ordering::Relaxed);
        let r = s.ret.load(Ordering::Relaxed);
        let v = s.ver.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if s.seq.load(Ordering::Relaxed) != seq || w != word {
            return None; // torn copy or a different key owns the slot
        }
        // The tuple is consistent; it is *current* iff no mutation has
        // begun since it was read (see the type-level argument).
        if self.version.load(Ordering::SeqCst) != v {
            return None;
        }
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_respects_window() {
        let c = Control::new(1, 2, SubmitPolicy::Fail);
        assert!(c.admit_with(0, || {}).is_ok());
        assert!(c.admit_with(0, || {}).is_ok());
        assert_eq!(c.admit_with(0, || {}), Err(RuntimeError::Busy));
        c.complete(0);
        assert!(c.admit_with(0, || {}).is_ok());
        let m = &c.shards[0].client;
        assert_eq!(m.submitted.load(Ordering::Relaxed), 3);
        assert_eq!(m.rejected.load(Ordering::Relaxed), 1);
    }

    /// The point of the split: no 128-byte block holds a counter written
    /// by clients and one written by the server, within a shard or across
    /// neighbours in the `shards` slice.
    #[test]
    fn client_and_server_halves_never_share_a_block() {
        use std::mem::{align_of, offset_of, size_of};
        const BLOCK: usize = 128;
        let client = offset_of!(ShardMetrics, client);
        let server = offset_of!(ShardMetrics, server);
        assert_eq!(align_of::<ShardMetrics>() % BLOCK, 0);
        assert_eq!(size_of::<ShardMetrics>() % BLOCK, 0);
        assert_eq!((client % BLOCK, server % BLOCK), (0, 0));
        assert!(client + size_of::<ClientMetrics>() <= server);
        assert!(server + size_of::<ServerMetrics>() <= size_of::<ShardMetrics>());
        // The per-op counters of each half sit in its first block.
        assert!(offset_of!(ClientMetrics, inflight) < BLOCK);
        assert!(offset_of!(ClientMetrics, submitted) < BLOCK);
        assert!(offset_of!(ServerMetrics, ops) < BLOCK);
        assert!(offset_of!(ServerMetrics, batches) < BLOCK);
    }

    #[test]
    fn closed_rejects_everything() {
        let c = Control::new(2, 8, SubmitPolicy::Block);
        assert!(c.admit_with(1, || {}).is_ok());
        c.close();
        assert_eq!(c.admit_with(0, || {}), Err(RuntimeError::Closed));
        assert_eq!(c.admit_with(1, || {}), Err(RuntimeError::Closed));
        // The pre-close admission still holds its slot until completed.
        assert_eq!(c.shards[1].client.inflight.load(Ordering::SeqCst), 1);
        c.complete(1);
        c.drain_inflight();
    }

    #[test]
    fn batch_histogram_buckets() {
        use mpsync_telemetry::bucket_of;
        let c = Control::new(1, 1, SubmitPolicy::Fail);
        for n in [1u64, 2, 3, 4, 127, 128, 1000] {
            c.record_batch(0, n);
        }
        let hist = c.shards[0].server.batch_hist.snapshot();
        assert_eq!(hist.count(), 7);
        assert_eq!(hist.max(), 1000);
        assert_eq!(hist.sum(), 1 + 2 + 3 + 4 + 127 + 128 + 1000);
        // 3 lands with 2 (bucket 2), 127 with 4..=127's top bucket (7).
        assert_eq!(bucket_of(3), bucket_of(2));
        assert_eq!(hist.bucket_count(bucket_of(1)), 1);
        assert_eq!(hist.bucket_count(bucket_of(2)), 2);
        assert_eq!(c.shards[0].server.batches.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn paused_shard_blocks_even_under_fail_policy() {
        use std::sync::Arc;
        let c = Arc::new(Control::new(1, 4, SubmitPolicy::Fail));
        c.pause(0);
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || c2.admit_with(0, || {}));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!t.is_finished(), "admit must wait out a pause, not fail");
        c.unpause(0);
        assert_eq!(t.join().unwrap(), Ok(()));
        // Pauses are not rejections.
        assert_eq!(c.shards[0].client.rejected.load(Ordering::Relaxed), 0);
        c.complete(0);
    }

    #[test]
    fn quiesce_waits_for_inflight() {
        let c = Control::new(1, 4, SubmitPolicy::Block);
        assert!(c.admit_with(0, || {}).is_ok());
        c.pause(0);
        // Quiesce must not return while the pre-pause admission is live.
        c.complete(0);
        c.wait_quiesced(0);
        c.unpause(0);
        assert!(c.admit_with(0, || {}).is_ok());
        c.complete(0);
    }

    #[test]
    fn read_cache_hits_until_mutation() {
        let c = Control::new(1, 4, SubmitPolicy::Block).with_read_cache();
        let rc = c.read_cache(0).expect("cache allocated");
        assert_eq!(rc.try_read(42), None, "cold cache misses");
        rc.publish(42, 7);
        assert_eq!(rc.try_read(42), Some(7));
        assert_eq!(rc.try_read(43), None, "other words miss");
        rc.begin_mutation();
        assert_eq!(rc.try_read(42), None, "any mutation invalidates");
        rc.publish(42, 9);
        assert_eq!(rc.try_read(42), Some(9));
        // A control plane without the builder has no cache.
        assert!(Control::new(1, 4, SubmitPolicy::Block)
            .read_cache(0)
            .is_none());
    }

    #[test]
    fn block_policy_waits_for_slot() {
        use std::sync::Arc;
        let c = Arc::new(Control::new(1, 1, SubmitPolicy::Block));
        assert!(c.admit_with(0, || {}).is_ok());
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || c2.admit_with(0, || {}));
        std::thread::sleep(std::time::Duration::from_millis(10));
        c.complete(0);
        assert_eq!(t.join().unwrap(), Ok(()));
        assert_eq!(c.shards[0].client.retried.load(Ordering::Relaxed), 1);
    }
}
