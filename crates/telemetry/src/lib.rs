//! mpsync-telemetry: zero-overhead-when-off observability for the mpsync
//! stack.
//!
//! Three primitives, all lock-free on the recording side:
//!
//! * **named counters** — monotone `u64`s ([`count`]);
//! * **log2 latency histograms** keyed by `(algo, lane)` — mergeable
//!   snapshots with p50/p95/p99/max extraction ([`record_value`],
//!   [`hist_snapshot`]);
//! * **op-lifecycle spans** — `(track, algo, lane, start, duration)`
//!   tuples pushed into bounded per-thread rings, overwrite-oldest
//!   ([`record_span`], [`drain_spans`]), exportable as a Chrome
//!   `trace_event` timeline ([`trace::chrome_trace_json`]).
//!
//! # Zero overhead when off
//!
//! The `enabled` cargo feature gates only the *recording* paths. With the
//! feature off every function below still exists but compiles to an empty
//! `#[inline(always)]` body ([`now_ns`] returns 0), so instrumented call
//! sites in udn/core/runtime cost nothing — the optimizer deletes them.
//! Callers that must pay to *build* an argument (e.g. widening the wire
//! format with a timestamp word) branch on the [`ENABLED`] constant, which
//! const-folds. The data types ([`Log2Hist`], [`SpanEvent`],
//! [`TelemetryReport`]) are always compiled: downstream code can hold and
//! merge histograms regardless of the feature.
//!
//! The one deliberate exception to the feature gate is the **flight
//! recorder** ([`recorder`]): a bounded log of rare structural events
//! (drains, handoffs, promotions, backend choices) that stays on even in
//! disabled builds, because its events are orders of magnitude rarer than
//! the hot-path measurements the gate exists to protect.
//!
//! # Resetting
//!
//! [`reset`] zeroes histograms and counters, discards the retained spans
//! of **every** registered ring (whichever thread owns it), and hides any
//! span recorded before the reset from future [`drain_spans`] calls.
//! Per-ring `pushed` tallies from before the reset survive in
//! [`spans_recorded`] (ever-recorded semantics) while [`spans_dropped`]
//! restarts from zero.
//!
//! # Span track namespaces
//!
//! Spans carry a caller-chosen 32-bit `track` rendered as the Chrome-trace
//! `tid` row. Two id families feed it: small process-local indices
//! (endpoint ids, shard/connection indices) and client-chosen 32-bit trace
//! ids that follow a request across nodes. [`trace_track`] sets the
//! reserved [`TRACK_TRACE_BIT`] on the latter so the two namespaces can
//! never collide in one stitched trace file; local recorders use
//! [`local_track`].

pub mod hist;
pub mod meta;
pub mod recorder;
pub mod report;
pub mod ring;
pub(crate) mod sync;
pub mod trace;

#[cfg(all(test, loom))]
mod loom_models;

pub use hist::{bucket_bounds, bucket_of, AtomicLog2Hist, Log2Hist, HIST_BUCKETS};
pub use recorder::{
    flight, flight_count, flight_events_json, flight_json, flight_sampled, flight_snapshot,
    install_panic_hook, FlightEvent, FlightKind, FLIGHT_CAPACITY,
};
pub use report::TelemetryReport;
pub use ring::RING_CAPACITY;

/// `true` when the `enabled` cargo feature is on. Const-folds, so
/// `if telemetry::ENABLED { … }` costs nothing in disabled builds.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// High bit of a span `track`, reserved for the cross-node trace-id
/// namespace (see the crate-level "Span track namespaces" docs).
pub const TRACK_TRACE_BIT: u32 = 1 << 31;

/// Track for a process-local id (endpoint index, shard, connection id):
/// the trace bit is cleared, so local rows can never collide with
/// [`trace_track`] rows no matter what 32-bit id a client chose.
#[inline]
pub const fn local_track(id: u32) -> u32 {
    id & !TRACK_TRACE_BIT
}

/// Track for a client-chosen cross-node trace id: the reserved high bit is
/// set, placing the span in the trace-id namespace.
#[inline]
pub const fn trace_track(id: u32) -> u32 {
    id | TRACK_TRACE_BIT
}

/// Which synchronization layer or algorithm a measurement belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Algo {
    /// The udn message-queue fabric itself.
    Udn = 0,
    /// The dedicated-server delegation algorithm (paper §3.1).
    MpServer = 1,
    /// Hybrid combining (paper Algorithm 1).
    HybComb = 2,
    /// CC-Synch software combining.
    CcSynch = 3,
    /// The sharded runtime layer on top.
    Runtime = 4,
    /// The wire-facing serving layer (`mpsync-net`).
    Net = 5,
    /// The multi-node layer (`mpsync-cluster`): forwarding, replication,
    /// handoff.
    Cluster = 6,
}

impl Algo {
    pub const ALL: [Algo; 7] = [
        Algo::Udn,
        Algo::MpServer,
        Algo::HybComb,
        Algo::CcSynch,
        Algo::Runtime,
        Algo::Net,
        Algo::Cluster,
    ];

    /// Stable lowercase name used in JSON and trace output.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Udn => "udn",
            Algo::MpServer => "mp_server",
            Algo::HybComb => "hybcomb",
            Algo::CcSynch => "cc_synch",
            Algo::Runtime => "runtime",
            Algo::Net => "net",
            Algo::Cluster => "cluster",
        }
    }

    fn from_u8(v: u8) -> Option<Algo> {
        Algo::ALL.get(v as usize).copied()
    }
}

/// What phase of an operation's lifecycle a measurement covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Lane {
    /// Client-side: submit until the reply word arrived.
    ClientWait = 0,
    /// Request sat in a hardware queue before the server/combiner saw it.
    QueueWait = 1,
    /// Server/combiner applied the operation and sent the reply.
    Serve = 2,
    /// A combiner held the combining role (lock/server hat) for this long.
    Hold = 3,
    /// One service batch / combining round, end to end.
    Batch = 4,
    /// A udn send, including any back-pressure blocking.
    Send = 5,
    /// A udn receive, including spinning on an empty queue.
    Receive = 6,
    /// Cycles/ns spent blocked on a full send queue.
    Blocked = 7,
    /// Runtime admission: submit call until the request words were sent.
    Submit = 8,
    /// Words resident in a receive queue, sampled at receive time.
    Occupancy = 9,
}

impl Lane {
    pub const ALL: [Lane; 10] = [
        Lane::ClientWait,
        Lane::QueueWait,
        Lane::Serve,
        Lane::Hold,
        Lane::Batch,
        Lane::Send,
        Lane::Receive,
        Lane::Blocked,
        Lane::Submit,
        Lane::Occupancy,
    ];

    /// Stable lowercase name used in JSON and trace output.
    pub fn name(self) -> &'static str {
        match self {
            Lane::ClientWait => "client_wait",
            Lane::QueueWait => "queue_wait",
            Lane::Serve => "serve",
            Lane::Hold => "hold",
            Lane::Batch => "batch",
            Lane::Send => "send",
            Lane::Receive => "receive",
            Lane::Blocked => "blocked",
            Lane::Submit => "submit",
            Lane::Occupancy => "occupancy",
        }
    }

    fn from_u8(v: u8) -> Option<Lane> {
        Lane::ALL.get(v as usize).copied()
    }
}

/// Process-wide named counters (monotone, relaxed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Messages pushed through `Endpoint::send`.
    UdnSends = 0,
    /// Messages pulled through `Endpoint::receive*`.
    UdnReceives = 1,
    /// Sends that hit queue back-pressure at least once.
    UdnBlockedSends = 2,
    /// Operations served by MP-SERVER loops.
    MpServed = 3,
    /// HYBCOMB combining rounds entered.
    HybRounds = 4,
    /// Operations combined by HYBCOMB combiners.
    HybServed = 5,
    /// CC-Synch combining rounds entered.
    CcRounds = 6,
    /// Operations combined by CC-Synch combiners.
    CcServed = 7,
    /// Operations admitted by the runtime control plane.
    RuntimeSubmits = 8,
    /// Service batches observed by runtime shards.
    RuntimeBatches = 9,
    /// Non-blocking sends rejected for lack of queue space (distinct from
    /// `UdnBlockedSends`, which counts sends that waited).
    UdnFailedSends = 10,
    /// Connections accepted by `mpsync-net` servers.
    NetConnections = 11,
    /// Requests decoded and dispatched by `mpsync-net` connection threads.
    NetRequests = 12,
    /// Requests answered with `BUSY` (shard window full, `Fail` policy).
    NetBusy = 13,
    /// Connections torn down by peer error: disconnect mid-request,
    /// malformed frame, or a failed socket write.
    NetDisconnects = 14,
    /// Requests acked during a graceful server drain (already-received
    /// requests answered before FIN).
    NetDrainedOps = 15,
    /// Client ops applied locally by a cluster node that owned the slot.
    ClusterLocalOps = 16,
    /// Client ops forwarded to the owning node.
    ClusterForwards = 17,
    /// Forwarded/retried ops answered from the dedup table instead of
    /// re-applying (the exactly-once path doing its job).
    ClusterDedupHits = 18,
    /// Replication records sent primary → backup.
    ClusterReplSent = 19,
    /// Replication records applied on a backup.
    ClusterReplApplied = 20,
    /// Slot handoffs completed (receiver imported state and took ownership).
    ClusterHandoffs = 21,
    /// Backup promotions after a primary was declared dead.
    ClusterFailovers = 22,
    /// Responses redirecting a client to the owning node.
    ClusterRedirects = 23,
    /// Read-mostly ops answered from the shard's versioned snapshot
    /// without entering the combiner/server at all.
    RuntimeFastReads = 24,
    /// Fast-path read attempts that missed (cold entry or version
    /// conflict) and fell back to delegation.
    RuntimeFastFallbacks = 25,
    /// Live backend switches performed by adaptive shards.
    RuntimeSwitches = 26,
    /// Retries of an already-applied-and-evicted op rejected by the
    /// cluster dedup eviction watermark instead of re-applied.
    ClusterStaleRetries = 27,
    /// Rate-limiter acquire attempts (mpsync-apps).
    AppRateChecks = 28,
    /// Rate-limiter acquires denied for lack of tokens.
    AppRateDenied = 29,
    /// Priority-queue pops that returned a task.
    AppPqPops = 30,
    /// Sessions removed by the timer-wheel expiry sweep.
    AppSessionExpired = 31,
    /// Sessions found expired at access time (lazy TTL check).
    AppSessionLazyExpired = 32,
    /// Two-phase transfers that committed.
    AppTxnCommits = 33,
    /// Two-phase transfers aborted at the reserve phase.
    AppTxnAborts = 34,
    /// Replication records a primary re-sent because the backup's ack was
    /// overdue (`resend_after` ticks without progress).
    ClusterReplResent = 35,
}

impl Counter {
    pub const ALL: [Counter; 36] = [
        Counter::UdnSends,
        Counter::UdnReceives,
        Counter::UdnBlockedSends,
        Counter::MpServed,
        Counter::HybRounds,
        Counter::HybServed,
        Counter::CcRounds,
        Counter::CcServed,
        Counter::RuntimeSubmits,
        Counter::RuntimeBatches,
        Counter::UdnFailedSends,
        Counter::NetConnections,
        Counter::NetRequests,
        Counter::NetBusy,
        Counter::NetDisconnects,
        Counter::NetDrainedOps,
        Counter::ClusterLocalOps,
        Counter::ClusterForwards,
        Counter::ClusterDedupHits,
        Counter::ClusterReplSent,
        Counter::ClusterReplApplied,
        Counter::ClusterHandoffs,
        Counter::ClusterFailovers,
        Counter::ClusterRedirects,
        Counter::RuntimeFastReads,
        Counter::RuntimeFastFallbacks,
        Counter::RuntimeSwitches,
        Counter::ClusterStaleRetries,
        Counter::AppRateChecks,
        Counter::AppRateDenied,
        Counter::AppPqPops,
        Counter::AppSessionExpired,
        Counter::AppSessionLazyExpired,
        Counter::AppTxnCommits,
        Counter::AppTxnAborts,
        Counter::ClusterReplResent,
    ];

    /// Stable dotted name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Counter::UdnSends => "udn.sends",
            Counter::UdnReceives => "udn.receives",
            Counter::UdnBlockedSends => "udn.blocked_sends",
            Counter::MpServed => "mp_server.served",
            Counter::HybRounds => "hybcomb.rounds",
            Counter::HybServed => "hybcomb.served",
            Counter::CcRounds => "cc_synch.rounds",
            Counter::CcServed => "cc_synch.served",
            Counter::RuntimeSubmits => "runtime.submits",
            Counter::RuntimeBatches => "runtime.batches",
            Counter::UdnFailedSends => "udn.failed_sends",
            Counter::NetConnections => "net.connections",
            Counter::NetRequests => "net.requests",
            Counter::NetBusy => "net.busy",
            Counter::NetDisconnects => "net.disconnects",
            Counter::NetDrainedOps => "net.drained_ops",
            Counter::ClusterLocalOps => "cluster.local_ops",
            Counter::ClusterForwards => "cluster.forwards",
            Counter::ClusterDedupHits => "cluster.dedup_hits",
            Counter::ClusterReplSent => "cluster.repl_sent",
            Counter::ClusterReplApplied => "cluster.repl_applied",
            Counter::ClusterHandoffs => "cluster.handoffs",
            Counter::ClusterFailovers => "cluster.failovers",
            Counter::ClusterRedirects => "cluster.redirects",
            Counter::RuntimeFastReads => "runtime.fast_reads",
            Counter::RuntimeFastFallbacks => "runtime.fast_fallbacks",
            Counter::RuntimeSwitches => "runtime.switches",
            Counter::ClusterStaleRetries => "cluster.stale_retries",
            Counter::AppRateChecks => "app.rate_checks",
            Counter::AppRateDenied => "app.rate_denied",
            Counter::AppPqPops => "app.pq_pops",
            Counter::AppSessionExpired => "app.session_expired",
            Counter::AppSessionLazyExpired => "app.session_lazy_expired",
            Counter::AppTxnCommits => "app.txn_commits",
            Counter::AppTxnAborts => "app.txn_aborts",
            Counter::ClusterReplResent => "cluster.repl_resent",
        }
    }
}

/// One drained span: who did what, when, for how long.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Caller-chosen lane id — endpoint id, shard index, thread index —
    /// rendered as the `tid` row of the Chrome trace.
    pub track: u32,
    pub algo: Algo,
    pub lane: Lane,
    /// Start, ns since the process telemetry epoch (see [`now_ns`]).
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl SpanEvent {
    /// Packs `(track, algo, lane)` into the ring's meta word:
    /// `track << 16 | algo << 8 | lane`.
    pub fn pack_meta(track: u32, algo: Algo, lane: Lane) -> u64 {
        ((track as u64) << 16) | ((algo as u64) << 8) | lane as u64
    }

    /// Inverse of [`SpanEvent::pack_meta`]; unknown discriminants (possible
    /// only for a zeroed never-written slot) fall back to `Runtime`/`Serve`.
    pub fn unpack(meta: u64, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            track: (meta >> 16) as u32,
            algo: Algo::from_u8((meta >> 8) as u8).unwrap_or(Algo::Runtime),
            lane: Lane::from_u8(meta as u8).unwrap_or(Lane::Serve),
            start_ns,
            dur_ns,
        }
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    use crate::hist::{AtomicLog2Hist, Log2Hist};
    use crate::ring::Ring;
    use crate::{Algo, Counter, Lane, SpanEvent};

    const N_HISTS: usize = Algo::ALL.len() * Lane::ALL.len();

    static HISTS: [AtomicLog2Hist; N_HISTS] = [const { AtomicLog2Hist::new() }; N_HISTS];
    static COUNTERS: [AtomicU64; Counter::ALL.len()] =
        [const { AtomicU64::new(0) }; Counter::ALL.len()];
    /// Spans that started before this instant are hidden by [`drain_spans`]
    /// (how [`reset`] forgets ring contents without touching other threads'
    /// rings).
    static RESET_NS: AtomicU64 = AtomicU64::new(0);

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
        static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
        RINGS.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        static MY_RING: Arc<Ring> = {
            let ring = Arc::new(Ring::new());
            rings().lock().unwrap().push(Arc::clone(&ring));
            ring
        };
    }

    fn hist_index(algo: Algo, lane: Lane) -> usize {
        algo as usize * Lane::ALL.len() + lane as usize
    }

    /// Monotone nanoseconds since the first telemetry call in this process.
    /// Never returns 0 (0 is the "no timestamp" sentinel on the wire).
    #[inline]
    pub fn now_ns() -> u64 {
        (epoch().elapsed().as_nanos() as u64).max(1)
    }

    /// Adds `n` to a process-wide counter.
    #[inline]
    pub fn count(c: Counter, n: u64) {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn counter_value(c: Counter) -> u64 {
        COUNTERS[c as usize].load(Ordering::Relaxed)
    }

    /// Records one observation into the `(algo, lane)` histogram.
    #[inline]
    pub fn record_value(algo: Algo, lane: Lane, v: u64) {
        HISTS[hist_index(algo, lane)].record(v);
    }

    /// Closes a span that began at `start_ns` (a [`now_ns`] reading): the
    /// duration goes into the `(algo, lane)` histogram and the span into
    /// this thread's ring. A zero `start_ns` (the missing-timestamp
    /// sentinel) records nothing.
    #[inline]
    pub fn record_span(track: u32, algo: Algo, lane: Lane, start_ns: u64) {
        if start_ns == 0 {
            return;
        }
        let dur_ns = now_ns().saturating_sub(start_ns);
        HISTS[hist_index(algo, lane)].record(dur_ns);
        MY_RING.with(|r| r.push(SpanEvent::pack_meta(track, algo, lane), start_ns, dur_ns));
    }

    /// Snapshot of one `(algo, lane)` histogram.
    pub fn hist_snapshot(algo: Algo, lane: Lane) -> Log2Hist {
        HISTS[hist_index(algo, lane)].snapshot()
    }

    /// Drains every thread's ring (spans recorded before the last
    /// [`reset`] excluded), sorted by start time. Consuming: each span is
    /// returned by at most one drain, so periodic scrapers — the admin
    /// `Stat{kind: SPANS}` endpoint, `mpstat --watch` — see increments,
    /// never replays. Calls are serialized on the ring-registry lock.
    pub fn drain_spans() -> Vec<SpanEvent> {
        let cutoff = RESET_NS.load(Ordering::Acquire);
        let mut out = Vec::new();
        for ring in rings().lock().unwrap().iter() {
            ring.drain(&mut out);
        }
        out.retain(|e| e.start_ns >= cutoff);
        out.sort_by_key(|e| (e.start_ns, e.track));
        out
    }

    /// Total spans ever recorded (including ones the rings overwrote).
    pub fn spans_recorded() -> u64 {
        rings().lock().unwrap().iter().map(|r| r.pushed()).sum()
    }

    /// Spans lost to ring overwrite before any [`drain_spans`] observed
    /// them, summed over every thread's ring. Non-zero means traces are
    /// incomplete: drain more often or raise [`crate::RING_CAPACITY`].
    pub fn spans_dropped() -> u64 {
        rings().lock().unwrap().iter().map(|r| r.dropped()).sum()
    }

    /// Zeroes every histogram, counter, and per-ring drop tally and
    /// discards the retained spans of **every** registered ring, whichever
    /// thread owns it ([`Ring::forget`] only advances the read cursor, so
    /// it is safe under the single-writer seqlock). A span push racing the
    /// reset may slip past the forget; the reset timestamp masks those
    /// stragglers out of [`drain_spans`] too. Only meaningful at quiescent
    /// points (e.g. between bench phases).
    pub fn reset() {
        for h in &HISTS {
            h.clear();
        }
        for c in &COUNTERS {
            c.store(0, Ordering::Relaxed);
        }
        for ring in rings().lock().unwrap().iter() {
            ring.forget();
            ring.reset_dropped();
        }
        RESET_NS.store(now_ns(), Ordering::Release);
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    //! The disabled build: every recording entry point is an empty
    //! `#[inline(always)]` function, so instrumented call sites vanish.

    use crate::hist::Log2Hist;
    use crate::{Algo, Counter, Lane, SpanEvent};

    /// Always 0 when telemetry is off — the "no timestamp" sentinel.
    #[inline(always)]
    pub fn now_ns() -> u64 {
        0
    }

    #[inline(always)]
    pub fn count(_c: Counter, _n: u64) {}

    #[inline(always)]
    pub fn counter_value(_c: Counter) -> u64 {
        0
    }

    #[inline(always)]
    pub fn record_value(_algo: Algo, _lane: Lane, _v: u64) {}

    #[inline(always)]
    pub fn record_span(_track: u32, _algo: Algo, _lane: Lane, _start_ns: u64) {}

    #[inline(always)]
    pub fn hist_snapshot(_algo: Algo, _lane: Lane) -> Log2Hist {
        Log2Hist::new()
    }

    #[inline(always)]
    pub fn drain_spans() -> Vec<SpanEvent> {
        Vec::new()
    }

    #[inline(always)]
    pub fn spans_recorded() -> u64 {
        0
    }

    #[inline(always)]
    pub fn spans_dropped() -> u64 {
        0
    }

    #[inline(always)]
    pub fn reset() {}
}

pub use imp::{
    count, counter_value, drain_spans, hist_snapshot, now_ns, record_span, record_value, reset,
    spans_dropped, spans_recorded,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_packing_round_trips() {
        for algo in Algo::ALL {
            for lane in Lane::ALL {
                for track in [0u32, 1, 7, 65_535, 1_000_000] {
                    let meta = SpanEvent::pack_meta(track, algo, lane);
                    let e = SpanEvent::unpack(meta, 10, 20);
                    assert_eq!((e.track, e.algo, e.lane), (track, algo, lane));
                    assert_eq!((e.start_ns, e.dur_ns), (10, 20));
                }
            }
        }
    }

    /// Pins every `name()` against its variant list. A new variant that
    /// lands without extending these tables fails here instead of silently
    /// drifting the JSON/trace schema; a renamed variant fails loudly.
    #[test]
    fn names_are_exhaustively_pinned() {
        let algo_names: Vec<_> = Algo::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(
            algo_names,
            [
                "udn",
                "mp_server",
                "hybcomb",
                "cc_synch",
                "runtime",
                "net",
                "cluster",
            ]
        );
        let lane_names: Vec<_> = Lane::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(
            lane_names,
            [
                "client_wait",
                "queue_wait",
                "serve",
                "hold",
                "batch",
                "send",
                "receive",
                "blocked",
                "submit",
                "occupancy",
            ]
        );
        let counter_names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            counter_names,
            [
                "udn.sends",
                "udn.receives",
                "udn.blocked_sends",
                "mp_server.served",
                "hybcomb.rounds",
                "hybcomb.served",
                "cc_synch.rounds",
                "cc_synch.served",
                "runtime.submits",
                "runtime.batches",
                "udn.failed_sends",
                "net.connections",
                "net.requests",
                "net.busy",
                "net.disconnects",
                "net.drained_ops",
                "cluster.local_ops",
                "cluster.forwards",
                "cluster.dedup_hits",
                "cluster.repl_sent",
                "cluster.repl_applied",
                "cluster.handoffs",
                "cluster.failovers",
                "cluster.redirects",
                "runtime.fast_reads",
                "runtime.fast_fallbacks",
                "runtime.switches",
                "cluster.stale_retries",
                "app.rate_checks",
                "app.rate_denied",
                "app.pq_pops",
                "app.session_expired",
                "app.session_lazy_expired",
                "app.txn_commits",
                "app.txn_aborts",
                "cluster.repl_resent",
            ]
        );
        // Discriminants must match ALL order: the hist/counter arrays and
        // the span meta word index by `as usize`.
        for (i, a) in Algo::ALL.iter().enumerate() {
            assert_eq!(*a as usize, i);
        }
        for (i, l) in Lane::ALL.iter().enumerate() {
            assert_eq!(*l as usize, i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    /// Serializes the enabled-feature facade tests: they reset/drain the
    /// same process-global state and would race each other.
    #[cfg(feature = "enabled")]
    static FACADE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[cfg(feature = "enabled")]
    #[test]
    fn span_overflow_is_counted_not_silent() {
        let _guard = FACADE_LOCK.lock().unwrap();
        let before = spans_dropped();
        let t = now_ns();
        for _ in 0..(RING_CAPACITY + 10) {
            record_span(90_001, Algo::Net, Lane::Batch, t);
        }
        // At least the 10 beyond-capacity pushes overwrote spans no drain
        // ever observed.
        assert!(
            spans_dropped() >= before + 10,
            "overflowing the ring must surface in spans_dropped"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut algo_names: Vec<_> = Algo::ALL.iter().map(|a| a.name()).collect();
        algo_names.dedup();
        assert_eq!(algo_names.len(), Algo::ALL.len());
        let mut lane_names: Vec<_> = Lane::ALL.iter().map(|l| l.name()).collect();
        lane_names.dedup();
        assert_eq!(lane_names.len(), Lane::ALL.len());
        let mut counter_names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        counter_names.dedup();
        assert_eq!(counter_names.len(), Counter::ALL.len());
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn enabled_facade_records_and_resets() {
        let _guard = FACADE_LOCK.lock().unwrap();
        reset();
        assert!(now_ns() > 0);
        count(Counter::UdnSends, 3);
        record_value(Algo::Udn, Lane::Occupancy, 17);
        let start = now_ns();
        std::thread::sleep(std::time::Duration::from_millis(1));
        record_span(42, Algo::MpServer, Lane::Serve, start);
        assert_eq!(counter_value(Counter::UdnSends), 3);
        assert_eq!(hist_snapshot(Algo::Udn, Lane::Occupancy).count(), 1);
        let h = hist_snapshot(Algo::MpServer, Lane::Serve);
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1_000_000, "slept 1ms but span was {}ns", h.max());
        let spans = drain_spans();
        assert!(spans
            .iter()
            .any(|e| e.track == 42 && e.algo == Algo::MpServer && e.lane == Lane::Serve));
        assert!(spans_recorded() >= 1);
        reset();
        assert_eq!(counter_value(Counter::UdnSends), 0);
        assert!(hist_snapshot(Algo::MpServer, Lane::Serve).is_empty());
        assert!(drain_spans().is_empty());
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_facade_is_inert() {
        const { assert!(!ENABLED) };
        assert_eq!(now_ns(), 0);
        count(Counter::UdnSends, 3);
        record_value(Algo::Udn, Lane::Occupancy, 17);
        record_span(42, Algo::MpServer, Lane::Serve, 1);
        assert_eq!(counter_value(Counter::UdnSends), 0);
        assert!(hist_snapshot(Algo::Udn, Lane::Occupancy).is_empty());
        assert!(drain_spans().is_empty());
        assert_eq!(spans_recorded(), 0);
    }
}
