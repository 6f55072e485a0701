//! Per-thread span rings: bounded, lock-free, overwrite-oldest.
//!
//! Each recording thread owns one [`Ring`]; readers *drain* it — every
//! span is returned by at most one drain, so periodic scrapers (the admin
//! `Stat` endpoint, `mpstat --watch`) see increments rather than replays.
//! A slot is four `AtomicU64`s guarded by a per-slot sequence
//! word (a seqlock): the writer bumps the sequence to an odd value, writes
//! the payload, then publishes the even value `2 * pos + 2` (where `pos` is
//! the monotone write position). A reader re-checks the sequence after
//! copying the payload and simply skips slots that were being overwritten —
//! recording never waits on draining, which is what keeps the hot path a
//! handful of relaxed stores.

use crate::sync::{fence, AtomicU64, Ordering};
use crate::SpanEvent;

/// Spans retained per recording thread (oldest overwritten first).
///
/// Shrunk to 4 under `--cfg loom` so the model can drive a push cursor all
/// the way around the ring (wrap-around + lapping) in a handful of steps.
pub const RING_CAPACITY: usize = if cfg!(loom) { 4 } else { 4096 };

struct Slot {
    /// Seqlock word: `2*pos + 1` while slot `pos % RING_CAPACITY` is being
    /// written, `2*pos + 2` once the write at position `pos` is published.
    /// 0 means never written.
    seq: AtomicU64,
    /// Packed track/algo/lane (see `meta` packing in the crate root).
    meta: AtomicU64,
    /// Span start, ns since the process telemetry epoch.
    start_ns: AtomicU64,
    /// Span duration in ns.
    dur_ns: AtomicU64,
}

/// A single-writer, multi-reader bounded span buffer.
pub struct Ring {
    slots: Box<[Slot]>,
    /// Monotone count of spans ever pushed; the writer's cursor.
    head: AtomicU64,
    /// Drains have observed (or deliberately discarded) every position
    /// below this cursor: the next drain resumes here, and a push that
    /// overwrites a position at or above it loses a span nobody ever read.
    read_through: AtomicU64,
    /// Spans lost to overwrite-before-read (see `read_through`).
    dropped: AtomicU64,
}

impl Default for Ring {
    fn default() -> Self {
        Self::new()
    }
}

impl Ring {
    pub fn new() -> Self {
        Self {
            slots: (0..RING_CAPACITY)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    start_ns: AtomicU64::new(0),
                    dur_ns: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            read_through: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one span. Must only be called by the owning thread (single
    /// writer); concurrent [`Ring::drain`] calls are fine.
    pub fn push(&self, meta: u64, start_ns: u64, dur_ns: u64) {
        // Relaxed: `head` is the single writer's private cursor; readers
        // only consume it through the Release store at the end of this call.
        let pos = self.head.load(Ordering::Relaxed);
        // Overwrite accounting: position `pos - CAPACITY` is about to be
        // lapped; it counts as dropped unless a drain already got to it.
        // Relaxed is enough — `dropped` is a statistic, not a protocol.
        if pos >= RING_CAPACITY as u64
            && self.read_through.load(Ordering::Relaxed) <= pos - RING_CAPACITY as u64
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.slots[(pos % RING_CAPACITY as u64) as usize];
        // Release + fence: orders the odd-seq "write in progress" marker
        // before the payload stores, so a reader's post-copy re-check (its
        // Acquire fence pairs with this one) cannot miss an in-flight write.
        slot.seq.store(2 * pos + 1, Ordering::Release);
        fence(Ordering::Release);
        // Relaxed payload: the seqlock words carry all the ordering.
        slot.meta.store(meta, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        // Release: publishes the payload to the reader's Acquire pre-check.
        slot.seq.store(2 * pos + 2, Ordering::Release);
        // Release: a reader that sees `pos + 1` also sees slot `pos` fully
        // published (or at worst skips it via the seq check).
        self.head.store(pos + 1, Ordering::Release);
    }

    /// Spans ever pushed (not the retained count).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Spans overwritten before any drain observed them.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Zeroes the drop counter (used by `telemetry::reset`; safe from any
    /// thread — it is plain accounting outside the seqlock protocol).
    pub fn reset_dropped(&self) {
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Advances `read_through` to `target` (monotone; concurrent drains
    /// race benignly). The vendored loom facade has no `fetch_max`, hence
    /// the CAS loop.
    fn mark_read_through(&self, target: u64) {
        let mut cur = self.read_through.load(Ordering::Relaxed);
        while cur < target {
            match self.read_through.compare_exchange_weak(
                cur,
                target,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(v) => cur = v,
            }
        }
    }

    /// Discards every retained span without touching the slots: marks the
    /// whole window read, so subsequent drains start at the current head
    /// and later overwrites of the discarded positions are not new drops.
    /// Safe from **any** thread — it only advances the `read_through`
    /// cursor, never the seqlock words the owning thread reserves — which
    /// is what lets `telemetry::reset` clear rings other threads own.
    /// A push racing this call may survive (the head was read first);
    /// callers that need a hard cutoff mask by timestamp on top.
    pub fn forget(&self) {
        // Acquire: see every position a completed push published.
        self.mark_read_through(self.head.load(Ordering::Acquire));
    }

    /// Forgets every retained span. **Must only be called by the owning
    /// thread**: it writes the slot sequence words the seqlock protocol
    /// reserves for the single writer. Concurrent drains simply skip the
    /// cleared slots. `pushed()` is unaffected (it is an ever-recorded
    /// count); the cleared spans count as read, not dropped.
    pub fn clear(&self) {
        let head = self.head.load(Ordering::Relaxed);
        for slot in self.slots.iter() {
            // Release for symmetry with the push protocol: a racing drain
            // that still copies the payload re-checks seq and skips.
            slot.seq.store(0, Ordering::Release);
        }
        self.mark_read_through(head);
    }

    /// Copies out every retained span no previous drain observed, oldest
    /// first, and marks them read: a span is returned by at most one drain
    /// (consuming semantics — repeat scrapes see increments, not replays).
    /// Slots that a concurrent `push` is overwriting are skipped — those
    /// are exactly the lapped positions, lost under any semantics — so
    /// under contention the result is a consistent subset, never torn data.
    pub fn drain(&self, out: &mut Vec<SpanEvent>) {
        // Acquire: pairs with the writer's final Release store — every slot
        // counted by `head` is at least seq-published from here on.
        let head = self.head.load(Ordering::Acquire);
        // Start past both the lap horizon and whatever an earlier drain
        // already consumed. Relaxed: `read_through` only ever advances, and
        // concurrent drains are serialized by the registry lock upstream —
        // a stale read can only re-emit to a reader racing outside it.
        let start = head
            .saturating_sub(RING_CAPACITY as u64)
            .max(self.read_through.load(Ordering::Relaxed));
        for pos in start..head {
            let slot = &self.slots[(pos % RING_CAPACITY as u64) as usize];
            let expect = 2 * pos + 2;
            // Acquire: pairs with the writer's even-seq Release so the
            // payload reads below see at least the publication for `pos`.
            if slot.seq.load(Ordering::Acquire) != expect {
                continue; // being overwritten (or already lapped)
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            // Acquire fence + relaxed re-check: pairs with the writer's
            // Release fence after the odd-seq marker — if an overwrite of
            // this slot started before our payload copy finished, the
            // re-check observes the odd (or lapped) sequence and we skip.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != expect {
                continue; // overwritten mid-copy
            }
            out.push(SpanEvent::unpack(meta, start_ns, dur_ns));
        }
        // Everything below `head` is now either copied out or already lost
        // to a lap; later overwrites of those positions are not new drops.
        self.mark_read_through(head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_last_capacity_spans() {
        let r = Ring::new();
        for i in 0..(RING_CAPACITY as u64 + 100) {
            r.push(i, i * 10, 5);
        }
        let mut out = Vec::new();
        r.drain(&mut out);
        assert_eq!(out.len(), RING_CAPACITY);
        // Oldest retained span is number 100.
        assert_eq!(out.first().unwrap().start_ns, 100 * 10);
        assert_eq!(
            out.last().unwrap().start_ns,
            (RING_CAPACITY as u64 + 99) * 10
        );
        assert_eq!(r.pushed(), RING_CAPACITY as u64 + 100);
    }

    #[test]
    fn drain_consumes_each_span_once() {
        let r = Ring::new();
        // A full ring and no lap, whatever the capacity (4 under loom).
        for i in 0..RING_CAPACITY as u64 {
            r.push(i, i, 1);
        }
        let mut out = Vec::new();
        r.drain(&mut out);
        assert_eq!(out.len(), RING_CAPACITY);
        // A second drain with nothing new pushed returns nothing: spans
        // are consumed, not replayed.
        out.clear();
        r.drain(&mut out);
        assert!(out.is_empty(), "drain replayed spans: {out:?}");
        // New pushes after a drain come out exactly once too.
        r.push(7, 7, 1);
        r.drain(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].start_ns, 7);
        out.clear();
        r.drain(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn dropped_counts_only_unread_overwrites() {
        let r = Ring::new();
        // Fill exactly to capacity: nothing overwritten yet.
        for i in 0..RING_CAPACITY as u64 {
            r.push(i, 1, 1);
        }
        assert_eq!(r.dropped(), 0);
        // 10 laps past capacity without a drain: 10 unread spans lost.
        for i in 0..10u64 {
            r.push(i, 1, 1);
        }
        assert_eq!(r.dropped(), 10);
        // After a drain the retained window is read; lapping it again
        // within capacity drops nothing new.
        let mut out = Vec::new();
        r.drain(&mut out);
        assert_eq!(out.len(), RING_CAPACITY);
        for i in 0..RING_CAPACITY as u64 {
            r.push(i, 1, 1);
        }
        assert_eq!(r.dropped(), 10);
        // One more push overwrites a post-drain span nobody read.
        r.push(0, 1, 1);
        assert_eq!(r.dropped(), 11);
        r.reset_dropped();
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn clear_forgets_retained_spans_without_counting_drops() {
        let r = Ring::new();
        // Fill without lapping, so nothing is a drop before the clear.
        for i in 0..RING_CAPACITY as u64 {
            r.push(i, 2, 2);
        }
        r.clear();
        let mut out = Vec::new();
        r.drain(&mut out);
        assert!(out.is_empty(), "cleared ring must drain empty");
        assert_eq!(
            r.pushed(),
            RING_CAPACITY as u64,
            "pushed() is an ever-recorded count"
        );
        assert_eq!(r.dropped(), 0);
        // The ring keeps working after a clear, and overwriting the
        // positions the clear discarded is not a drop.
        for i in 0..RING_CAPACITY as u64 {
            r.push(i, 3, 3);
        }
        out.clear();
        r.drain(&mut out);
        assert_eq!(out.len(), RING_CAPACITY);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn forget_discards_like_a_drain_nobody_kept() {
        let r = Ring::new();
        for i in 0..RING_CAPACITY as u64 {
            r.push(i, 4, 4);
        }
        r.forget();
        let mut out = Vec::new();
        r.drain(&mut out);
        assert!(out.is_empty(), "forgotten spans must not drain");
        // Overwriting the forgotten window is not a drop…
        for i in 0..RING_CAPACITY as u64 {
            r.push(i, 5, 5);
        }
        assert_eq!(r.dropped(), 0);
        // …and the new window drains normally.
        r.drain(&mut out);
        assert_eq!(out.len(), RING_CAPACITY);
        assert_eq!(r.pushed(), 2 * RING_CAPACITY as u64);
    }

    #[test]
    fn drain_under_contention_never_tears() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        // Miri executes this interleaving test, just far more slowly: cap
        // both the writer and the drain loop so the schedule stays bounded.
        const DRAINS: usize = if cfg!(miri) { 20 } else { 200 };
        const WRITER_CAP: u64 = if cfg!(miri) { 2_000 } else { u64::MAX };
        let r = Arc::new(Ring::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let r = Arc::clone(&r);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) && i < WRITER_CAP {
                    // start == dur == i: the invariant drains check for.
                    r.push(7, i, i);
                    i += 1;
                }
                i
            })
        };
        let mut seen = 0u64;
        let mut last: Option<u64> = None;
        let mut out = Vec::new();
        for _ in 0..DRAINS {
            out.clear();
            r.drain(&mut out);
            for e in &out {
                assert_eq!(e.start_ns, e.dur_ns, "torn slot escaped the seqlock");
                // Consuming drains never re-emit: the writer's counter is
                // strictly increasing across every drain of this ring.
                if let Some(p) = last {
                    assert!(e.start_ns > p, "span {} replayed after {p}", e.start_ns);
                }
                last = Some(e.start_ns);
            }
            seen += out.len() as u64;
        }
        stop.store(true, Ordering::Relaxed);
        let pushed = writer.join().unwrap();
        out.clear();
        r.drain(&mut out);
        seen += out.len() as u64;
        assert!(seen <= pushed, "emitted {seen} of {pushed} pushed");
        // Quiescent now: everything pushed was either emitted exactly once
        // or lost to a lap; nothing is left to replay.
        out.clear();
        r.drain(&mut out);
        assert!(
            out.is_empty(),
            "quiescent ring replayed {} spans",
            out.len()
        );
    }
}
