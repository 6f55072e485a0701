//! HYBCOMB (§4.2, Algorithm 1): the paper's hybrid combining construction.
//!
//! HYBCOMB splits the two interaction patterns of combining across the two
//! communication substrates of a hybrid machine:
//!
//! * **requests and responses** between clients and the current combiner
//!   travel over *hardware message passing* (three-word requests
//!   `{id, op, arg}`, one-word responses), so the combiner reads requests
//!   from its local queue without coherence stalls;
//! * **combiner identity** is managed in *shared memory*, because doing it
//!   with messages would require either a dedicated thread (what combining
//!   tries to avoid) or broadcast-style communication.
//!
//! ## Shared-memory protocol (Algorithm 1, line numbers in comments)
//!
//! Each node has an `n_ops` line and a meta line `{thread_id,
//! combining_done}`. A global `last_registered_combiner` names the node a
//! client may register with: registration is a fetch-and-add on that node's
//! `n_ops`; a result `< MAX_OPS` entitles the client to send one request to
//! the node's owner. If registration fails, the client CASes
//! `last_registered_combiner` to its own node, joining a logical queue of
//! would-be combiners (`CSqueue` of the proof sketch); it then waits for its
//! predecessor's `combining_done`.
//!
//! A combiner executes its own operation, eagerly drains its message queue
//! (beneficial but not necessary for correctness — [`HybOptions`] ablates
//! it), closes registration by `SWAP`ing `MAX_OPS` into its `n_ops`
//! (learning the exact number of registered requests), serves the remainder,
//! and finally exchanges its node with the global `departed_combiner` spare
//! so the `combining_done` flag it leaves behind can be reset safely by a
//! later round. Nodes migrate between threads through that exchange, so
//! node ids, not ownership, are the identity.
//!
//! The protocol is [`HybCombLayout::apply`], written once against
//! [`Machine`]: [`HybComb`] runs it on the host, tilesim on simulated cores.

// Statistics counters stay on std atomics on purpose (see `crate::sync`).
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64 as StdAtomicU64, AtomicUsize as StdAtomicUsize};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Counter, Lane};
use mpsync_udn::{Endpoint, EndpointId};

use crate::dispatch::Dispatcher;
use crate::machine::{
    block_on, Addr, Arena, Backoff, ClientSide, Critical, Machine, Native, Probe, Until,
    WORDS_PER_LINE,
};
use crate::mp_server::{request, serve_one, serve_pending};
use crate::sync::Ordering::{AcqRel, Acquire, Relaxed, Release};
use crate::ApplyOp;

/// Default bound on requests served per combining round; the paper uses 200
/// for its main experiments (Figure 3c studies the sweep).
pub const DEFAULT_MAX_OPS: u64 = 200;

/// Word offsets within a node's meta line: the owner's message address and
/// the `combining_done` flag.
const TID: Addr = 0;
const DONE: Addr = 1;

/// Panic message once the construction is poisoned (a combiner panicked
/// inside its round, so the protected state may be torn, registered clients
/// will never get responses, and `combining_done` will never be set).
const POISONED: &str = "HYBCOMB poisoned: a combiner panicked inside the critical section and the \
     protected state may be inconsistent";

/// The paper's two discussed design choices, for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybOptions {
    /// Run Algorithm 1 lines 25–28 (serve while the queue is non-empty
    /// before closing registration). Disabling it is `repro abl-nodrain`.
    pub eager_drain: bool,
    /// Replace the CAS at line 17 with an unconditional SWAP
    /// (`repro abl-swap`): every failed registrant becomes a combiner,
    /// some with only their own request.
    pub use_swap: bool,
}

impl Default for HybOptions {
    fn default() -> Self {
        Self {
            eager_drain: true,
            use_swap: false,
        }
    }
}

/// Where a HYBCOMB instance lives in a machine's memory: `nodes` `n_ops`
/// lines, then `nodes` meta lines, then `last_registered_combiner` and
/// `departed_combiner` (each a node id), `lines(nodes)` lines from `base`.
/// The last node is the spare of line 3.
#[derive(Debug, Clone, Copy)]
pub struct HybCombLayout {
    base: Addr,
    nodes: u64,
    max_ops: u64,
    opts: HybOptions,
}

impl HybCombLayout {
    /// The layout of `nodes` nodes (one per thread, plus the spare) from
    /// the line at `base`, closing registration at `max_ops`.
    pub fn new(base: Addr, nodes: u64, max_ops: u64, opts: HybOptions) -> Self {
        Self {
            base,
            nodes,
            max_ops,
            opts,
        }
    }

    /// Lines the layout of `nodes` nodes takes.
    pub fn lines(nodes: u64) -> u64 {
        2 * nodes + 2
    }

    /// The `i`-th line from `base`. Written from `base`'s line, so that the
    /// native machine sees every access to a node fall in one line.
    fn line(&self, i: u64) -> Addr {
        (self.base / WORDS_PER_LINE + i) * WORDS_PER_LINE
    }

    /// Node `node`'s `n_ops` word, the registration gate.
    fn n_ops(&self, node: u64) -> Addr {
        self.line(node)
    }

    fn meta(&self, node: u64) -> Addr {
        self.line(self.nodes + node)
    }

    /// The `last_registered_combiner` word.
    fn last_registered(&self) -> Addr {
        self.line(2 * self.nodes)
    }

    fn departed(&self) -> Addr {
        self.line(2 * self.nodes + 1)
    }

    /// The words that start non-zero (lines 3–5): every node closed, and
    /// the spare, done, as both the last registered and the departed
    /// combiner. A machine starts with them; writing them is not an access.
    pub fn presets(&self) -> impl Iterator<Item = (Addr, u64)> {
        let (l, spare) = (*self, self.nodes - 1);
        let closed = (0..self.nodes).map(move |node| (l.n_ops(node), l.max_ops));
        closed.chain([
            (self.meta(spare) + DONE, 1),
            (self.last_registered(), spare),
            (self.departed(), spare),
        ])
    }

    /// Figure 4a's fixed combiner (`MAX_OPS` = ∞, footnote 4): the words
    /// that, preset after [`presets`](Self::presets), keep node 0
    /// registered and open for good. Its owner then only serves.
    pub fn fixed_combiner(&self) -> [(Addr, u64); 2] {
        [(self.n_ops(0), 0), (self.last_registered(), 0)]
    }

    /// Names the caller the owner of `node` (line 5), the one registered
    /// clients send to.
    pub async fn register<M: Machine>(&self, m: &mut M, node: u64) {
        let me = m.id();
        m.store(self.meta(node) + TID, me, Release).await;
    }

    /// One operation by the thread that owns node `*my`; a combiner leaves
    /// owning the node it took from the departed spare.
    pub async fn apply<M: Machine>(
        &self,
        m: &mut M,
        cs: &M::Cs,
        my: &mut u64,
        op: u64,
        arg: u64,
        probe: &mut impl Probe<M>,
    ) -> u64 {
        loop {
            // Line 9: read the last registered combiner. Acquire pairs with
            // the registering combiner's CAS Release: it makes that node's
            // reinit (`combining_done = 0`, `thread_id`) visible before we
            // FAA into it.
            let lr = m.load(self.last_registered(), Acquire).await;

            // Line 11: try to register with it. AcqRel: the Release side
            // pairs with the combiner's closing SWAP so our registration is
            // counted before it closes; the Acquire side pairs with the
            // combiner's `n_ops = 0` opening Release.
            if m.faa(self.n_ops(lr), 1, AcqRel).await < self.max_ops {
                // Lines 13–14: send the request, await the response. There
                // is no poison check between the FAA and the send: the
                // combiner's blocking receives count on every registered
                // client's message arriving.
                let dest = m.load(self.meta(lr) + TID, Acquire).await;
                probe.published(m, dest);
                return request(m, dest, op, arg).await;
            }

            // Line 17: try to register as a combiner. AcqRel: Release
            // publishes our node's state (most recently its departure
            // reinit) to clients and to our successor; Acquire pairs with
            // the previous registrant's Release for the same fields.
            probe.registering(m);
            let lrc = self.last_registered();
            let pred = if self.opts.use_swap {
                // Ablation: SWAP always succeeds; `lr` may be stale, but the
                // displaced node is the true predecessor.
                m.swap(lrc, *my, AcqRel).await
            } else if m.cas(lrc, lr, *my, AcqRel).await {
                lr
            } else {
                continue; // Line 8: re-read it and retry.
            };
            // Line 18: open my node for registrations. (Not atomic with the
            // CAS — the benign race of §4.2: a client that FAAs in between
            // simply fails to register and tries to become the next
            // combiner.)
            m.store(self.n_ops(*my), 0, Release).await;
            // Lines 19–20: wait until my predecessor finished combining.
            // Acquire pairs with the departing combiner's `combining_done`
            // Release: crossing it hands us the critical section.
            let done = self.meta(pred) + DONE;
            m.spin_until(done, Until::Equals(1), &mut Backoff::new(2, 32), Acquire)
                .await;
            // Line 21: break — become the active combiner.
            return self.combine(m, cs, my, op, arg, probe).await;
        }
    }

    /// The combiner phase (lines 23–43); returns the combiner's own result.
    /// Exactly one thread runs it at a time (Proposition 1), so every `cs`
    /// below is under mutual exclusion.
    async fn combine<M: Machine>(
        &self,
        m: &mut M,
        cs: &M::Cs,
        my: &mut u64,
        op: u64,
        arg: u64,
        probe: &mut impl Probe<M>,
    ) -> u64 {
        probe.combining(m);
        let me = m.id();
        // Line 23: my own operation first.
        let retval = m.cs(cs, op, arg).await;
        probe.served(m, me);
        let mut completed = 0u64;

        // Lines 25–28: serve while requests are waiting, MP-SERVER's batched
        // step with no bound. (The drain probe is only a hint: a missed
        // message is picked up by the loop after the SWAP.)
        if self.opts.eager_drain {
            completed += serve_pending(m, cs, probe, u64::MAX).await;
        }

        // Lines 30–32: close registration; the SWAP's old value is the
        // number of registrations this round. AcqRel: the Acquire side pairs
        // with each client's FAA, ordering the count we read after the
        // registrations it counts; the Release side pairs with the FAA of
        // clients that fail, so they fail against a fully closed node.
        let total = m.swap(self.n_ops(*my), self.max_ops, AcqRel).await;

        // Lines 34–37: serve the registered remainder (their messages may
        // still be in flight; a registered client always sends).
        // A combiner's `Probe` never stops a serve, so its `ControlFlow` is
        // dropped.
        while completed < total.min(self.max_ops) {
            let _ = serve_one(m, cs, probe).await;
            completed += 1;
        }
        probe.round(m, completed + 1);

        // Lines 39–42: exchange my node with the departed-combiner spare,
        // initialize the acquired node, and release the next combiner.
        // AcqRel on the swap: Acquire makes the parked node's last round
        // visible before we reinitialize it; Release publishes our parked
        // node. The reinit can be Relaxed: its only future reader
        // synchronizes through our next registration CAS (Release), and no
        // one still spins on the acquired node — the one thread that ever
        // did is the combiner that parked it. The final Release publishes
        // this whole round's state mutations to our successor.
        let new_my = m.swap(self.departed(), *my, AcqRel).await;
        m.store(self.meta(new_my) + DONE, 0, Relaxed).await;
        m.store(self.meta(new_my) + TID, me, Relaxed).await;
        m.store(self.meta(*my) + DONE, 1, Release).await;
        *my = new_my;
        retval
    }
}

/// Counters exposed for the paper's in-text measurements (§5.3): CAS cost
/// and combining behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybCombStats {
    /// `apply` calls observed.
    pub ops: u64,
    /// CAS attempts on `last_registered_combiner` (line 17).
    pub cas_attempts: u64,
    /// CAS attempts that failed.
    pub cas_failures: u64,
    /// Combining rounds (times some thread became combiner).
    pub rounds: u64,
    /// Requests executed by combiners (their own + received ones).
    pub combined_ops: u64,
    /// Rounds in which the combiner served no request besides its own —
    /// the benign race of lines 17–18 discussed in §4.2.
    pub orphan_rounds: u64,
}

impl HybCombStats {
    /// Average requests served per combining round (Figure 4b's
    /// "actual combining rate").
    pub fn combining_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.combined_ops as f64 / self.rounds as f64
        }
    }

    /// CAS executions per `apply` call (paper: ≤ 0.1 at high concurrency,
    /// ≤ 0.7 across multithreaded executions).
    pub fn cas_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.cas_attempts as f64 / self.ops as f64
        }
    }
}

/// One handle's share of [`HybCombStats`]. Only the handle's thread writes
/// it, so a count is a relaxed load and store ([`bump`]): no locked RMW on
/// the path, and no line that every thread writes.
#[derive(Default)]
struct Counts {
    ops: StdAtomicU64,
    cas_attempts: StdAtomicU64,
    cas_failures: StdAtomicU64,
    rounds: StdAtomicU64,
    combined_ops: StdAtomicU64,
    orphan_rounds: StdAtomicU64,
}

/// Adds `n` to a counter that only the caller's thread writes.
#[inline]
fn bump(counter: &StdAtomicU64, n: u64) {
    counter.store(counter.load(Relaxed) + n, Relaxed);
}

struct Shared<S, D> {
    /// The nodes and the two globals; poisoned when a combiner's dispatch
    /// panicked mid-round, so that clients awaiting a response and would-be
    /// combiners awaiting `combining_done` panic instead of waiting forever.
    arena: Arena,
    layout: HybCombLayout,
    cs: Critical<S, D>,
    next_handle: StdAtomicUsize,
    /// Handle `i`'s counters.
    counts: Box<[CachePadded<Counts>]>,
    /// Debug-build check of Proposition 1 (mutual exclusion of lines
    /// 23–43): the number of threads combining. Under loom the proposition
    /// is also model-checked: two overlapping combiners race on the
    /// `CsState` cell.
    #[cfg(debug_assertions)]
    active_combiners: StdAtomicU64,
}

/// The native probe: what one `apply` did, for the statistics and
/// telemetry.
struct Stats<'a> {
    counts: &'a Counts,
    #[cfg(debug_assertions)]
    active_combiners: &'a StdAtomicU64,
    /// The caller's endpoint, as a span track.
    track: u32,
    /// Starts of the client's wait, of the request being served, and of the
    /// round (telemetry only).
    t_wait: u64,
    t_serve: u64,
    t_hold: u64,
    /// CAS (or SWAP) attempts, and whether one made the caller combiner.
    cas: u64,
    combined: bool,
}

impl<C> Probe<Native<'_, C>> for Stats<'_> {
    fn published(&mut self, _: &mut Native<'_, C>, _: Addr) {
        self.t_wait = telemetry::now_ns();
    }

    fn registering(&mut self, _: &mut Native<'_, C>) {
        self.cas += 1;
    }

    fn combining(&mut self, _: &mut Native<'_, C>) {
        self.combined = true;
        self.t_hold = telemetry::now_ns();
        #[cfg(debug_assertions)]
        {
            let prev = self.active_combiners.fetch_add(1, AcqRel);
            debug_assert_eq!(prev, 0, "two active combiners — Proposition 1 violated");
        }
    }

    fn received(&mut self, m: &mut Native<'_, C>, _: u64) -> ControlFlow<()> {
        if telemetry::ENABLED {
            // Queue wait: the client's submit stamp → the combiner taking
            // the request off its queue.
            telemetry::record_span(self.track, Algo::HybComb, Lane::QueueWait, m.stamp);
            self.t_serve = telemetry::now_ns();
        }
        ControlFlow::Continue(())
    }

    /// A received request's serve span (the own operation has none).
    fn served(&mut self, _: &mut Native<'_, C>, _: Addr) {
        telemetry::record_span(self.track, Algo::HybComb, Lane::Serve, self.t_serve);
    }

    fn round(&mut self, _: &mut Native<'_, C>, n: u64) {
        let c = self.counts;
        bump(&c.rounds, 1);
        bump(&c.combined_ops, n);
        bump(&c.orphan_rounds, (n == 1) as u64);
        if telemetry::ENABLED {
            telemetry::count(Counter::HybRounds, 1);
            telemetry::count(Counter::HybServed, n);
            // Combiner hold time: own op + eager drain + registered serves.
            telemetry::record_span(self.track, Algo::HybComb, Lane::Hold, self.t_hold);
        }
        // Still before the `combining_done` release.
        #[cfg(debug_assertions)]
        self.active_combiners.fetch_sub(1, AcqRel);
    }
}

/// The HYBCOMB construction protecting a state `S`.
///
/// Create it with [`HybComb::new`], then register each participating thread
/// with [`HybComb::handle`], passing the thread's message
/// [`Endpoint`] — every participant must be able to receive, since any of
/// them may become the combiner.
///
/// ```
/// use std::sync::Arc;
/// use mpsync_udn::{Fabric, FabricConfig};
/// use mpsync_core::{ApplyOp, HybComb};
///
/// fn add(state: &mut u64, _op: u64, arg: u64) -> u64 { *state += arg; *state }
///
/// let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
/// let hc = Arc::new(HybComb::new(2, 200, 0u64, add as fn(&mut u64, u64, u64) -> u64));
///
/// let mut a = hc.handle(fabric.register_any().unwrap());
/// let mut b = hc.handle(fabric.register_any().unwrap());
/// let t = std::thread::spawn(move || { for _ in 0..1000 { b.apply(0, 1); } });
/// for _ in 0..1000 { a.apply(0, 1); }
/// t.join().unwrap();
/// assert_eq!(hc.stats().combined_ops, 2000);
/// ```
pub struct HybComb<S, D> {
    shared: Arc<Shared<S, D>>,
}

impl<S, D> HybComb<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S>,
{
    /// Creates the construction for at most `max_threads` threads with the
    /// given combining bound (`MAX_OPS`).
    pub fn new(max_threads: usize, max_ops: u64, state: S, dispatch: D) -> Self {
        Self::with_options(max_threads, max_ops, state, dispatch, HybOptions::default())
    }

    /// Like [`HybComb::new`], with the ablations of [`HybOptions`].
    pub fn with_options(
        max_threads: usize,
        max_ops: u64,
        state: S,
        dispatch: D,
        opts: HybOptions,
    ) -> Self {
        assert!(max_threads > 0, "need at least one thread");
        assert!(
            max_ops > 0 && max_ops < u64::MAX / 2,
            "max_ops must be positive and far from the counter's range end"
        );
        let nodes = max_threads as u64 + 1;
        let layout = HybCombLayout::new(0, nodes, max_ops, opts);
        let arena = Arena::new(HybCombLayout::lines(nodes), POISONED);
        arena.preset(layout.presets());
        Self {
            shared: Arc::new(Shared {
                arena,
                layout,
                cs: Critical::new(state, dispatch),
                next_handle: StdAtomicUsize::new(0),
                counts: (0..max_threads).map(|_| CachePadded::default()).collect(),
                #[cfg(debug_assertions)]
                active_combiners: StdAtomicU64::new(0),
            }),
        }
    }

    /// Registers a participating thread with its message endpoint.
    ///
    /// # Panics
    ///
    /// Panics if more than `max_threads` handles are created.
    pub fn handle(&self, mut endpoint: Endpoint) -> HybCombHandle<S, D> {
        let sh = &*self.shared;
        let i = sh.next_handle.fetch_add(1, Relaxed) as u64;
        let max = sh.layout.nodes - 1;
        assert!(i < max, "HYBCOMB sized for {max} threads");
        let mut m = ClientSide::with_endpoint(&sh.arena, &mut endpoint);
        block_on(sh.layout.register(&mut m, i));
        HybCombHandle {
            shared: Arc::clone(&self.shared),
            endpoint,
            slot: i as usize,
            my_node: i,
        }
    }

    /// Snapshot of the construction-wide counters: the sums of every
    /// handle's.
    pub fn stats(&self) -> HybCombStats {
        let mut s = HybCombStats::default();
        for c in self.shared.counts.iter() {
            s.ops += c.ops.load(Relaxed);
            s.cas_attempts += c.cas_attempts.load(Relaxed);
            s.cas_failures += c.cas_failures.load(Relaxed);
            s.rounds += c.rounds.load(Relaxed);
            s.combined_ops += c.combined_ops.load(Relaxed);
            s.orphan_rounds += c.orphan_rounds.load(Relaxed);
        }
        s
    }

    /// Consumes the construction and returns the protected state.
    ///
    /// # Panics
    ///
    /// Panics if handles are still alive, or if a combiner panicked
    /// mid-round (the state may be torn, so it must not escape looking
    /// valid).
    pub fn into_state(self) -> S {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => {
                shared.arena.check();
                shared.cs.state.into_inner()
            }
            Err(_) => panic!("HYBCOMB handles still alive at into_state"),
        }
    }
}

/// Per-thread handle to a [`HybComb`] instance (owns the thread's message
/// endpoint and its current node).
pub struct HybCombHandle<S, D> {
    shared: Arc<Shared<S, D>>,
    endpoint: Endpoint,
    /// The handle's number: its counters' slot.
    slot: usize,
    my_node: u64,
}

impl<S, D> HybCombHandle<S, D> {
    /// The id of this thread's endpoint (where responses arrive).
    pub fn id(&self) -> EndpointId {
        self.endpoint.id()
    }
}

impl<S, D> ApplyOp for HybCombHandle<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S>,
{
    fn apply(&mut self, op: u64, arg: u64) -> u64 {
        let sh = &*self.shared;
        sh.arena.check();
        let c = &sh.counts[self.slot];
        bump(&c.ops, 1);
        let mut stats = Stats {
            counts: c,
            #[cfg(debug_assertions)]
            active_combiners: &sh.active_combiners,
            track: self.endpoint.id().index() as u32,
            t_wait: 0,
            t_serve: 0,
            t_hold: 0,
            cas: 0,
            combined: false,
        };
        let mut m = Native::with_endpoint(&sh.arena, &mut self.endpoint);
        let ret = block_on(
            sh.layout
                .apply(&mut m, &sh.cs, &mut self.my_node, op, arg, &mut stats),
        );
        bump(&c.cas_attempts, stats.cas);
        bump(&c.cas_failures, stats.cas - stats.combined as u64);
        telemetry::record_span(stats.track, Algo::HybComb, Lane::ClientWait, stats.t_wait);
        ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsync_udn::{Fabric, FabricConfig};

    type CounterFn = fn(&mut u64, u64, u64) -> u64;

    fn fai(state: &mut u64, _op: u64, _arg: u64) -> u64 {
        let old = *state;
        *state += 1;
        old
    }

    fn fabric_for(threads: usize) -> Arc<Fabric> {
        Arc::new(Fabric::new(FabricConfig::new(threads.div_ceil(4).max(1))))
    }

    #[test]
    fn single_thread_becomes_combiner_every_time() {
        let fabric = fabric_for(1);
        let hc = HybComb::new(1, 8, 0u64, fai as CounterFn);
        let mut h = hc.handle(fabric.register_any().unwrap());
        for i in 0..50 {
            assert_eq!(h.apply(0, 0), i);
        }
        drop(h);
        let stats = hc.stats();
        assert_eq!(stats.ops, 50);
        assert_eq!(stats.rounds, 50);
        assert_eq!(stats.orphan_rounds, 50, "no other thread ever registers");
        assert_eq!(hc.into_state(), 50);
    }

    #[test]
    fn multithreaded_permutation() {
        const THREADS: usize = 8;
        const OPS: u64 = if cfg!(miri) { 40 } else { 3_000 };
        let fabric = fabric_for(THREADS);
        let hc = Arc::new(HybComb::new(THREADS, 50, 0u64, fai as CounterFn));
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let mut h = hc.handle(fabric.register_any().unwrap());
            joins.push(std::thread::spawn(move || {
                (0..OPS).map(|_| h.apply(0, 0)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..THREADS as u64 * OPS).collect::<Vec<_>>());
        let stats = hc.stats();
        assert_eq!(stats.ops, THREADS as u64 * OPS);
        assert_eq!(stats.combined_ops, THREADS as u64 * OPS);
        assert!(stats.rounds > 0);
    }

    #[test]
    fn max_ops_one_degenerates_but_stays_correct() {
        const THREADS: usize = 4;
        const OPS: u64 = if cfg!(miri) { 30 } else { 800 };
        let fabric = fabric_for(THREADS);
        let hc = Arc::new(HybComb::new(THREADS, 1, 0u64, fai as CounterFn));
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let mut h = hc.handle(fabric.register_any().unwrap());
            joins.push(std::thread::spawn(move || {
                (0..OPS).map(|_| h.apply(0, 0)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..THREADS as u64 * OPS).collect::<Vec<_>>());
    }

    #[test]
    fn no_drain_ablation_stays_correct() {
        const THREADS: usize = 4;
        const OPS: u64 = if cfg!(miri) { 30 } else { 1_500 };
        let fabric = fabric_for(THREADS);
        let opts = HybOptions {
            eager_drain: false,
            ..HybOptions::default()
        };
        let hc = Arc::new(HybComb::with_options(
            THREADS,
            50,
            0u64,
            fai as CounterFn,
            opts,
        ));
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let mut h = hc.handle(fabric.register_any().unwrap());
            joins.push(std::thread::spawn(move || {
                (0..OPS).map(|_| h.apply(0, 0)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..THREADS as u64 * OPS).collect::<Vec<_>>());
    }

    #[test]
    fn stats_identities_hold() {
        const THREADS: usize = 6;
        const OPS: u64 = if cfg!(miri) { 30 } else { 1_000 };
        let fabric = fabric_for(THREADS);
        let hc = Arc::new(HybComb::new(THREADS, 30, 0u64, fai as CounterFn));
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let mut h = hc.handle(fabric.register_any().unwrap());
            joins.push(std::thread::spawn(move || {
                for _ in 0..OPS {
                    h.apply(0, 0);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let s = hc.stats();
        // Every op is executed exactly once, either by its own combiner
        // round or on a combiner's behalf.
        assert_eq!(s.combined_ops, THREADS as u64 * OPS);
        assert!(s.combining_rate() >= 1.0);
        assert!(s.combining_rate() <= 30.0 + 1.0);
        assert!(
            s.cas_attempts >= s.rounds,
            "every round needs a successful CAS"
        );
        assert_eq!(s.cas_attempts - s.cas_failures, s.rounds);
    }

    #[test]
    #[should_panic(expected = "sized for")]
    fn too_many_handles_panics() {
        let fabric = fabric_for(2);
        let hc = HybComb::new(1, 8, 0u64, fai as CounterFn);
        let _a = hc.handle(fabric.register_any().unwrap());
        let _b = hc.handle(fabric.register_any().unwrap());
    }

    #[test]
    fn combiner_panic_poisons_instead_of_wedging() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn boom(state: &mut u64, op: u64, _arg: u64) -> u64 {
            if op == 1 {
                panic!("dispatch exploded");
            }
            *state += 1;
            *state
        }

        let fabric = fabric_for(2);
        let hc = Arc::new(HybComb::new(2, 8, 0u64, boom as CounterFn));
        let mut a = hc.handle(fabric.register_any().unwrap());
        // Single thread, so `a` deterministically becomes the combiner and
        // its own panicking op unwinds out of the dispatch region.
        let err = catch_unwind(AssertUnwindSafe(|| a.apply(1, 0))).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"dispatch exploded"));

        // Every later apply must report the poisoning, not hang waiting for
        // a response or hand-off that will never come.
        let mut b = hc.handle(fabric.register_any().unwrap());
        let err = catch_unwind(AssertUnwindSafe(|| b.apply(0, 0))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("HYBCOMB poisoned"), "got: {msg}");

        // And the (possibly torn) state must not escape looking valid.
        drop((a, b));
        let hc = Arc::try_unwrap(hc).unwrap_or_else(|_| panic!("handles alive"));
        let err = catch_unwind(AssertUnwindSafe(|| hc.into_state())).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("HYBCOMB poisoned"), "got: {msg}");
    }
}
