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
//! Each thread owns a `Node {thread_id, n_ops, combining_done}`. A global
//! pointer `last_registered_combiner` names the node a client may register
//! with: registration is a fetch-and-add on that node's `n_ops`; a result
//! `< MAX_OPS` entitles the client to send one request to the node's owner.
//! If registration fails, the client CASes `last_registered_combiner` to its
//! own node, joining a logical queue of would-be combiners (`CSqueue` of the
//! proof sketch); it then waits for its predecessor's `combining_done`.
//!
//! A combiner executes its own operation, eagerly drains its message queue
//! (beneficial but not necessary for correctness — the `eager_drain` knob
//! ablates it), closes registration by `SWAP`ing `MAX_OPS` into its `n_ops`
//! (learning the exact number of registered requests), serves the remainder,
//! and finally exchanges its node with the global `departed_combiner` spare
//! so the `combining_done` flag it leaves behind can be reset safely by a
//! later round.

// Statistics counters stay on std atomics on purpose (see `crate::sync`).
use std::sync::atomic::{AtomicU64 as StdAtomicU64, AtomicUsize as StdAtomicUsize};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Counter, Lane};
use mpsync_udn::{Endpoint, EndpointId};

use crate::dispatch::Dispatcher;
use crate::state::{CsState, PoisonGuard};
use crate::sync::{spin, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::wire;
use crate::ApplyOp;

/// Default bound on requests served per combining round; the paper uses 200
/// for its main experiments (Figure 3c studies the sweep).
pub const DEFAULT_MAX_OPS: u64 = 200;

/// Placeholder owner id for the initial spare node (the paper's ⊥).
const NO_THREAD: u64 = u64::MAX;

/// Panic message once the construction is poisoned (a combiner panicked
/// inside its round, so the protected state may be torn, registered clients
/// will never get responses, and `combining_done` will never be set).
const POISONED: &str = "HYBCOMB poisoned: a combiner panicked inside the critical section and the \
     protected state may be inconsistent";

/// Algorithm 1's `Node` (line 2).
struct Node {
    thread_id: AtomicU64,
    n_ops: AtomicU64,
    combining_done: AtomicBool,
}

impl Node {
    fn new(thread_id: u64, n_ops: u64, combining_done: bool) -> Self {
        Self {
            thread_id: AtomicU64::new(thread_id),
            n_ops: AtomicU64::new(n_ops),
            combining_done: AtomicBool::new(combining_done),
        }
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

struct Shared<S, D> {
    /// Node arena: index `i < max_threads` is thread `i`'s initial node;
    /// index `max_threads` is the single extra spare (line 3's
    /// `departed_combiner` initial node). Nodes migrate between threads via
    /// the `departed_combiner` exchange, so indices — not ownership — are
    /// the identity.
    nodes: Box<[CachePadded<Node>]>,
    /// Algorithm 1 line 4 (global). Holds a node index.
    last_registered_combiner: CachePadded<AtomicUsize>,
    /// Algorithm 1 line 3 (global). Holds a node index.
    departed_combiner: CachePadded<AtomicUsize>,
    state: CsState<S>,
    dispatch: D,
    max_ops: u64,
    eager_drain: bool,
    /// Set when a combiner's dispatch panicked mid-round: responses and the
    /// `combining_done` hand-off will never come, so every polling client
    /// and spinning would-be combiner panics instead (see [`PoisonGuard`]).
    poisoned: AtomicBool,
    next_handle: StdAtomicUsize,
    // Stats (relaxed counters; negligible cost next to the protocol).
    ops: StdAtomicU64,
    cas_attempts: StdAtomicU64,
    cas_failures: StdAtomicU64,
    rounds: StdAtomicU64,
    combined_ops: StdAtomicU64,
    orphan_rounds: StdAtomicU64,
    /// Debug-build check of Proposition 1 (mutual exclusion of lines
    /// 23–43): the number of threads currently in `combine`. Under loom the
    /// proposition is additionally *model-checked*: the `CsState` cell turns
    /// any two overlapping combiners into a reported data race.
    #[cfg(debug_assertions)]
    active_combiners: StdAtomicU64,
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
        Self::with_options(max_threads, max_ops, state, dispatch, true)
    }

    /// Like [`HybComb::new`] but allowing the eager-drain loop (Algorithm 1
    /// lines 25–28) to be disabled, for the `abl-nodrain` ablation.
    pub fn with_options(
        max_threads: usize,
        max_ops: u64,
        state: S,
        dispatch: D,
        eager_drain: bool,
    ) -> Self {
        assert!(max_threads > 0, "need at least one thread");
        assert!(
            max_ops > 0 && max_ops < u64::MAX / 2,
            "max_ops must be positive and far from the counter's range end"
        );
        let spare = max_threads;
        let nodes: Box<[CachePadded<Node>]> = (0..max_threads + 1)
            .map(|i| {
                if i == spare {
                    // Line 3: departed_combiner ← {⊥, MAX_OPS, true}
                    CachePadded::new(Node::new(NO_THREAD, max_ops, true))
                } else {
                    // Line 5: my_node ← {id, MAX_OPS, false}; thread_id is
                    // filled in when the handle registers its endpoint.
                    CachePadded::new(Node::new(NO_THREAD, max_ops, false))
                }
            })
            .collect();
        Self {
            shared: Arc::new(Shared {
                nodes,
                // Line 4: last_registered_combiner ← departed_combiner
                last_registered_combiner: CachePadded::new(AtomicUsize::new(spare)),
                departed_combiner: CachePadded::new(AtomicUsize::new(spare)),
                state: CsState::new(state),
                dispatch,
                max_ops,
                eager_drain,
                poisoned: AtomicBool::new(false),
                next_handle: StdAtomicUsize::new(0),
                ops: StdAtomicU64::new(0),
                cas_attempts: StdAtomicU64::new(0),
                cas_failures: StdAtomicU64::new(0),
                rounds: StdAtomicU64::new(0),
                combined_ops: StdAtomicU64::new(0),
                orphan_rounds: StdAtomicU64::new(0),
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
    pub fn handle(&self, endpoint: Endpoint) -> HybCombHandle<S, D> {
        let i = self.shared.next_handle.fetch_add(1, Ordering::Relaxed);
        let max = self.shared.nodes.len() - 1;
        assert!(i < max, "HYBCOMB sized for {max} threads");
        self.shared.nodes[i]
            .thread_id
            .store(endpoint.id().to_word(), Ordering::Release);
        HybCombHandle {
            shared: Arc::clone(&self.shared),
            endpoint,
            my_node: i,
        }
    }

    /// Snapshot of the construction-wide counters.
    pub fn stats(&self) -> HybCombStats {
        let sh = &*self.shared;
        HybCombStats {
            ops: sh.ops.load(Ordering::Relaxed),
            cas_attempts: sh.cas_attempts.load(Ordering::Relaxed),
            cas_failures: sh.cas_failures.load(Ordering::Relaxed),
            rounds: sh.rounds.load(Ordering::Relaxed),
            combined_ops: sh.combined_ops.load(Ordering::Relaxed),
            orphan_rounds: sh.orphan_rounds.load(Ordering::Relaxed),
        }
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
                assert!(!shared.poisoned.load(Ordering::Relaxed), "{POISONED}");
                shared.state.into_inner()
            }
            Err(_) => panic!("HYBCOMB handles still alive at into_state"),
        }
    }
}

/// Per-thread handle to a [`HybComb`] instance (owns the thread's message
/// endpoint and its current node index).
pub struct HybCombHandle<S, D> {
    shared: Arc<Shared<S, D>>,
    endpoint: Endpoint,
    my_node: usize,
}

impl<S, D> HybCombHandle<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S>,
{
    /// The id of this thread's endpoint (where responses arrive).
    pub fn id(&self) -> EndpointId {
        self.endpoint.id()
    }

    /// Serves one received request: queue-wait span from the client's submit
    /// stamp, serve span around dispatch + reply. An associated function
    /// (not a method) so `combine` can call it while holding the
    /// `state`/`shared` borrows alongside the endpoint.
    #[inline]
    fn serve_one(
        endpoint: &mut Endpoint,
        sh: &Shared<S, D>,
        state: &mut S,
        buf: [u64; wire::REQ_WORDS],
    ) {
        let req = wire::decode(buf);
        let track = endpoint.id().index() as u32;
        let t_serve = if telemetry::ENABLED {
            telemetry::record_span(track, Algo::HybComb, Lane::QueueWait, req.submit_ns);
            telemetry::now_ns()
        } else {
            0
        };
        let ret = sh.dispatch.dispatch(state, req.op, req.arg);
        endpoint
            .send(EndpointId::from_word(req.sender), &[ret])
            .expect("HYBCOMB response endpoint vanished");
        if telemetry::ENABLED {
            telemetry::record_span(track, Algo::HybComb, Lane::Serve, t_serve);
        }
    }

    /// Runs the combiner phase (Algorithm 1 lines 23–43) and returns the
    /// value of this thread's own operation.
    #[cold]
    fn combine(&mut self, op: u64, arg: u64) -> u64 {
        let sh = &*self.shared;
        let nodes = &sh.nodes;
        let my = self.my_node;
        let endpoint = &mut self.endpoint;
        let track = endpoint.id().index() as u32;
        let t_hold = telemetry::now_ns();

        // Executable witness of Proposition 1 in debug builds: at most one
        // thread may be between this point and the `combining_done` release.
        // (Under loom the proposition is model-checked independently: the
        // `CsState` access below reports overlapping combiners as a race.)
        #[cfg(debug_assertions)]
        {
            let prev = sh.active_combiners.fetch_add(1, Ordering::AcqRel);
            debug_assert_eq!(prev, 0, "two active combiners — Proposition 1 violated");
        }

        // If a dispatched operation panics, mark the construction poisoned
        // on the way out: registered clients poll for it while awaiting
        // their response, and would-be combiners while awaiting our
        // `combining_done` — neither of which would otherwise ever arrive.
        let guard = PoisonGuard::new(&sh.poisoned);

        // SAFETY: Proposition 1 of the paper — the CAS on
        // `last_registered_combiner` plus the `combining_done` hand-off
        // build a queue (CSqueue) whose head is the unique thread executing
        // these lines; the Acquire spin on the predecessor's flag (done by
        // our caller) synchronizes with the previous combiner's Release, so
        // this thread is the unique accessor for the closure's whole extent.
        let (retval, ops_completed) = unsafe {
            sh.state.with_mut(|state| {
                // Line 23: execute my own operation first.
                let retval = sh.dispatch.dispatch(state, op, arg);
                let mut ops_completed: u64 = 0;

                // Lines 25–28: as long as the message queue is non-empty,
                // serve. (`is_queue_empty` is only a hint — a missed message
                // here is picked up by the post-SWAP blocking loop below.)
                let mut buf = [0u64; wire::REQ_WORDS];
                if sh.eager_drain {
                    while !endpoint.is_queue_empty() {
                        endpoint.receive(&mut buf);
                        Self::serve_one(endpoint, sh, state, buf);
                        ops_completed += 1;
                    }
                }

                // Lines 30–32: close combining for new requests; the SWAP's
                // old value is the number of successful registrations this
                // round. AcqRel: the Acquire side pairs with each client's
                // `n_ops` FAA (Release side), ordering the count we read
                // after the registrations it counts; the Release side pairs
                // with the FAA of clients that *fail* to register, so they
                // fail against a fully-closed node.
                let mut total_ops = nodes[my].n_ops.swap(sh.max_ops, Ordering::AcqRel);
                if total_ops > sh.max_ops {
                    total_ops = sh.max_ops;
                }

                // Lines 34–37: serve the remaining registered requests
                // (their messages may still be in flight; a client that
                // registered always sends — there is deliberately no poison
                // check between its FAA and its send — so these blocking
                // receives cannot wait on a request that never comes).
                while ops_completed < total_ops {
                    endpoint.receive(&mut buf);
                    Self::serve_one(endpoint, sh, state, buf);
                    ops_completed += 1;
                }
                (retval, ops_completed)
            })
        };
        guard.disarm();

        // Stats before departing (still in mutual exclusion, cheap).
        sh.rounds.fetch_add(1, Ordering::Relaxed);
        sh.combined_ops
            .fetch_add(ops_completed + 1, Ordering::Relaxed);
        if ops_completed == 0 {
            sh.orphan_rounds.fetch_add(1, Ordering::Relaxed);
        }
        if telemetry::ENABLED {
            telemetry::count(Counter::HybRounds, 1);
            telemetry::count(Counter::HybServed, ops_completed + 1);
        }

        // Lines 39–42: exchange my node with the departed-combiner spare,
        // initialize the acquired node, and release the next combiner.
        // AcqRel on the swap: Acquire makes the parked node's last round
        // visible before we reinitialize it; Release publishes our parked
        // node. The acquired node's reinit can be Relaxed: its only future
        // reader synchronizes through our *next* registration CAS on
        // `last_registered_combiner` (Release), which is program-ordered
        // after these stores — and no one can still be spinning on the
        // acquired node, because the unique thread that ever spun on it is
        // the combiner that parked it (it stopped before parking).
        let new_my = sh.departed_combiner.swap(my, Ordering::AcqRel);
        nodes[new_my].combining_done.store(false, Ordering::Relaxed);
        nodes[new_my]
            .thread_id
            .store(self.endpoint.id().to_word(), Ordering::Relaxed);
        self.my_node = new_my;
        #[cfg(debug_assertions)]
        sh.active_combiners.fetch_sub(1, Ordering::AcqRel);
        // Line 42: `departed_combiner.combining_done ← true` — the node we
        // just parked (our old `my`) is the one our successor spins on. The
        // Release publishes the state mutations of this whole round.
        nodes[my].combining_done.store(true, Ordering::Release);

        if telemetry::ENABLED {
            // Combiner hold time: own op + eager drain + registered serves.
            telemetry::record_span(track, Algo::HybComb, Lane::Hold, t_hold);
        }
        retval
    }
}

impl<S, D> ApplyOp for HybCombHandle<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S>,
{
    fn apply(&mut self, op: u64, arg: u64) -> u64 {
        let sh = &*self.shared;
        let nodes = &sh.nodes;
        assert!(!sh.poisoned.load(Ordering::Relaxed), "{POISONED}");
        sh.ops.fetch_add(1, Ordering::Relaxed);

        loop {
            // Line 9: read the last registered combiner. Acquire pairs with
            // the registering combiner's CAS Release: it makes that node's
            // reinit (`combining_done = false`, `thread_id`) visible before
            // we FAA into it.
            let last_reg = sh.last_registered_combiner.load(Ordering::Acquire);

            // Line 11: try to register with it. AcqRel: the Release side
            // pairs with the combiner's closing SWAP so our registration is
            // counted before it closes; the Acquire side pairs with the
            // combiner's `n_ops = 0` opening Release.
            if nodes[last_reg].n_ops.fetch_add(1, Ordering::AcqRel) < sh.max_ops {
                // Lines 13–14: send the request, await the response. NOTE:
                // there must be no poison check between the successful FAA
                // and the send — the combiner's blocking receives count on
                // every registered client's message arriving.
                let dest = EndpointId::from_word(nodes[last_reg].thread_id.load(Ordering::Acquire));
                let t0 = telemetry::now_ns();
                self.endpoint
                    .send(
                        dest,
                        &wire::request_at(self.endpoint.id().to_word(), op, arg, t0),
                    )
                    .expect("HYBCOMB combiner endpoint vanished");
                // Poll rather than block: if the combiner panics mid-round
                // our response never comes, and the poison flag is the only
                // signal left.
                let mut buf = [0u64; 1];
                let mut spins = 0u32;
                let ret = loop {
                    if self.endpoint.try_receive(&mut buf) == 1 {
                        break buf[0];
                    }
                    if sh.poisoned.load(Ordering::Relaxed) {
                        panic!("{POISONED}");
                    }
                    spin(&mut spins);
                };
                if telemetry::ENABLED {
                    let track = self.endpoint.id().index() as u32;
                    telemetry::record_span(track, Algo::HybComb, Lane::ClientWait, t0);
                }
                return ret;
            }

            // Line 17: try to register as a combiner. AcqRel: Release
            // publishes our node's state (most recently its departure
            // reinit) to clients and to our successor; Acquire pairs with
            // the previous registrant's Release for the same fields.
            sh.cas_attempts.fetch_add(1, Ordering::Relaxed);
            if sh
                .last_registered_combiner
                .compare_exchange(last_reg, self.my_node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Line 18: open my node for registrations. (Not atomic with
                // the CAS — the benign race of §4.2: a client that FAAs in
                // between simply fails to register and tries to become the
                // next combiner.)
                nodes[self.my_node].n_ops.store(0, Ordering::Release);

                // Lines 19–20: wait until my predecessor finished combining.
                // Acquire pairs with the departing combiner's
                // `combining_done` Release — crossing it hands us the
                // critical section (every state mutation of every previous
                // round). The poison check keeps us from spinning forever on
                // a predecessor that panicked mid-round.
                let mut spins = 0u32;
                while !nodes[last_reg].combining_done.load(Ordering::Acquire) {
                    if sh.poisoned.load(Ordering::Relaxed) {
                        panic!("{POISONED}");
                    }
                    spin(&mut spins);
                }
                // Line 21: break — become the active combiner.
                return self.combine(op, arg);
            }
            sh.cas_failures.fetch_add(1, Ordering::Relaxed);
            // Loop (line 8): re-read last_registered_combiner and retry.
        }
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
        let hc = Arc::new(HybComb::with_options(
            THREADS,
            50,
            0u64,
            fai as CounterFn,
            false,
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
