//! CC-SYNCH [Fatourou & Kallimanis, PPoPP 2012]: the most efficient known
//! pure-shared-memory combining construction, reproduced here as the paper's
//! main combining baseline (§3, §5).
//!
//! Threads append their requests to a list with a single `SWAP` on a shared
//! tail pointer and spin locally on their own node. The thread at the head
//! of the list becomes the *combiner*: it walks the list executing up to
//! `max_ops` requests (marking each node completed and releasing its
//! owner's spin), then hands the combiner role to the first unserved node.
//! Per served request the combiner performs one remote read (fetching the
//! request from the owner's node) and one remote write (the release) — the
//! two RMRs the paper identifies as the dominant cost for short critical
//! sections. Each thread owns one node and, after its `SWAP`, adopts the node
//! it displaced (the classic recycling), so nodes migrate between threads.
//!
//! The protocol is [`CcSynchLayout::apply`], written once against
//! [`Machine`]: [`CcSynch`] runs it on the host, tilesim on simulated cores.

// Statistics counters stay on std atomics on purpose (see `crate::sync`).
use std::sync::atomic::{AtomicU64 as StdAtomicU64, AtomicUsize as StdAtomicUsize};
use std::sync::Arc;

use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Counter, Lane};

use crate::dispatch::Dispatcher;
use crate::machine::{
    block_on, Addr, Arena, Backoff, Critical, Machine, Native, Probe, Until, WORDS_PER_LINE,
};
use crate::sync::Ordering::{AcqRel, Acquire, Relaxed, Release};
use crate::ApplyOp;

/// Word offsets within a node's line: the owner's local-spin flags, the
/// request and its result, and the successor's id plus one (0 is none).
const WAIT: Addr = 0;
const COMPLETED: Addr = 1;
const OP: Addr = 2;
const ARG: Addr = 3;
const RET: Addr = 4;
const NEXT: Addr = 5;
/// Enqueue timestamp for queue-wait telemetry: the native probe's word, not
/// the protocol's.
const T_ENQ: Addr = 6;

/// Panic message once a combiner's dispatch panicked mid-round.
const POISONED: &str =
    "CC-SYNCH poisoned: a combiner panicked inside the critical section and the \
     protected state may be inconsistent";

/// Where a CC-SYNCH instance lives in a machine's memory, and its combining
/// bound. Node `i` is the `i`-th line from `nodes`; node 0 is the
/// initial tail dummy, all zero, so the first thread to swap it out combines
/// at once.
#[derive(Debug, Clone, Copy)]
pub struct CcSynchLayout {
    /// The first node's line.
    pub nodes: Addr,
    /// The tail word: the id of the current dummy node.
    pub tail: Addr,
    /// Requests a combiner serves at most per round (the paper's `MAX_OPS`).
    pub max_ops: u64,
}

impl CcSynchLayout {
    /// Node `id`'s line. Written from `nodes`' line, so that the native
    /// machine sees every access to a node fall in one line.
    fn node(&self, id: u64) -> Addr {
        (self.nodes / WORDS_PER_LINE + id) * WORDS_PER_LINE
    }

    /// One operation by the thread that owns node `*my_node`; afterwards it
    /// owns the node it displaced.
    pub async fn apply<M: Machine>(
        &self,
        m: &mut M,
        cs: &M::Cs,
        my_node: &mut u64,
        op: u64,
        arg: u64,
        probe: &mut impl Probe<M>,
    ) -> u64 {
        // Prepare my node to become the new tail dummy.
        let next_node = *my_node;
        let mine = self.node(next_node);
        m.store(mine + NEXT, 0, Relaxed).await;
        m.store(mine + WAIT, 1, Relaxed).await;
        m.store(mine + COMPLETED, 0, Relaxed).await;

        // Enqueue: displace the tail, write my request into the displaced
        // node, link it to my (former) node, and adopt the displaced node.
        // AcqRel edge on `tail`: the Release side publishes my node-init
        // stores above to the *next* swapper (which writes its request into
        // my node); the Acquire side makes the displaced node's init by its
        // previous owner visible before I write into it.
        let cur_node = m.swap(self.tail, next_node, AcqRel).await;
        let cur = self.node(cur_node);
        m.store(cur + OP, op, Relaxed).await;
        m.store(cur + ARG, arg, Relaxed).await;
        probe.published(m, cur);
        // Release edge on `next`: publishes the request to the combiner's
        // Acquire load in its serve loop.
        m.store(cur + NEXT, next_node + 1, Release).await;
        *my_node = cur_node;

        // Local spin until a combiner either served me or made me combiner.
        m.spin_until(
            cur + WAIT,
            Until::Equals(0),
            &mut Backoff::new(2, 32),
            Acquire,
        )
        .await;
        if m.load(cur + COMPLETED, Relaxed).await == 1 {
            // Relaxed is enough for `completed`/`ret`: both were published
            // by the same `wait` Release/Acquire edge the spin just crossed.
            return m.load(cur + RET, Relaxed).await;
        }

        // I am the combiner: exactly one thread at a time observes `wait ==
        // 0 && completed == 0` for the head node (each node is released
        // once), and the release of `wait` by my predecessor orders every
        // earlier critical section before this point. Each `cs` call below
        // runs before the release that ends this round.
        let mut served = 0u64;
        let mut tmp = cur_node;
        loop {
            let at = self.node(tmp);
            // Acquire pairs with the enqueuer's `next` Release: it makes
            // the request words visible.
            let next = m.load(at + NEXT, Acquire).await;
            if next == 0 || served >= self.max_ops {
                break;
            }
            probe.serving(m, at);
            let o = m.load(at + OP, Relaxed).await;
            let a = m.load(at + ARG, Relaxed).await;
            let ret = m.cs(cs, o, a).await;
            m.store(at + RET, ret, Relaxed).await;
            m.store(at + COMPLETED, 1, Relaxed).await;
            // Release publishes ret/completed to the owner's Acquire spin.
            m.store(at + WAIT, 0, Release).await;
            probe.served(m, at);
            served += 1;
            tmp = next - 1;
        }
        // Hand over the combiner role to the first unserved node (or mark
        // the tail dummy ready for the next arrival). Release publishes this
        // whole round's state mutations to the next combiner's Acquire spin.
        m.store(self.node(tmp) + WAIT, 0, Release).await;
        probe.round(m, served);
        m.load(cur + RET, Relaxed).await
    }
}

struct Shared<S, D> {
    /// The nodes, then the tail's line; poisoned when a combiner's dispatch
    /// panicked mid-round and the hand-off chain is broken.
    arena: Arena,
    layout: CcSynchLayout,
    cs: Critical<S, D>,
    next_handle: StdAtomicUsize,
    /// Combining rounds and the requests they served — the actual
    /// combining rate of Figure 4b.
    rounds: StdAtomicU64,
    combined: StdAtomicU64,
}

/// The native probe: what one `apply` saw, for its statistics and
/// telemetry.
#[derive(Default)]
struct Stats {
    /// The caller's node, as a span track.
    track: u32,
    t_enq: u64,
    t_serve: u64,
    /// Start of the caller's combining round (telemetry only).
    t_hold: u64,
    /// Requests served, if the caller combined.
    round: Option<u64>,
}

fn track(req: Addr) -> u32 {
    (req / WORDS_PER_LINE) as u32
}

impl<C> Probe<Native<'_, C>> for Stats {
    fn published(&mut self, m: &mut Native<'_, C>, req: Addr) {
        self.track = track(req);
        if telemetry::ENABLED {
            self.t_enq = telemetry::now_ns();
            // Published by the Release of `next` alongside op/arg.
            m.word(req + T_ENQ).store(self.t_enq, Relaxed);
        }
    }

    fn serving(&mut self, m: &mut Native<'_, C>, req: Addr) {
        if telemetry::ENABLED {
            // Queue wait: owner's enqueue → combiner reaching it.
            let t_enq = m.word(req + T_ENQ).load(Relaxed);
            telemetry::record_span(track(req), Algo::CcSynch, Lane::QueueWait, t_enq);
            self.t_serve = telemetry::now_ns();
            if self.t_hold == 0 {
                self.t_hold = self.t_serve;
            }
        }
    }

    fn served(&mut self, _: &mut Native<'_, C>, req: Addr) {
        telemetry::record_span(track(req), Algo::CcSynch, Lane::Serve, self.t_serve);
    }

    fn round(&mut self, _: &mut Native<'_, C>, n: u64) {
        self.round = Some(n);
    }
}

/// The CC-SYNCH construction protecting a state `S`.
///
/// ```
/// use std::sync::Arc;
/// use mpsync_core::{ApplyOp, CcSynch};
///
/// fn fai(state: &mut u64, _op: u64, _arg: u64) -> u64 { let v = *state; *state += 1; v }
///
/// let cs = Arc::new(CcSynch::new(2, 200, 0u64, fai as fn(&mut u64, u64, u64) -> u64));
/// let mut a = cs.handle();
/// let mut b = cs.handle();
/// let t = std::thread::spawn(move || (0..500).map(|_| b.apply(0, 0)).max());
/// let _ = (0..500).map(|_| a.apply(0, 0)).max();
/// t.join().unwrap();
/// drop(a);
/// let cs = Arc::try_unwrap(cs).unwrap_or_else(|_| panic!("handles alive"));
/// assert_eq!(cs.into_state(), 1000);
/// ```
pub struct CcSynch<S, D> {
    shared: Arc<Shared<S, D>>,
}

impl<S, D> CcSynch<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S>,
{
    /// Creates the construction for at most `max_threads` participating
    /// threads, combining at most `max_ops` requests per combiner (the
    /// paper's `MAX_OPS`, set to 200 in its experiments).
    pub fn new(max_threads: usize, max_ops: u64, state: S, dispatch: D) -> Self {
        assert!(max_threads > 0, "need at least one thread");
        assert!(max_ops > 0, "max_ops must be positive");
        // One node per thread plus the initial dummy, then the tail.
        let nodes = max_threads as u64 + 1;
        Self {
            shared: Arc::new(Shared {
                arena: Arena::new(nodes + 1, POISONED),
                layout: CcSynchLayout {
                    nodes: 0,
                    tail: nodes * WORDS_PER_LINE,
                    max_ops,
                },
                cs: Critical::new(state, dispatch),
                next_handle: StdAtomicUsize::new(0),
                rounds: StdAtomicU64::new(0),
                combined: StdAtomicU64::new(0),
            }),
        }
    }

    /// Registers a participating thread.
    ///
    /// # Panics
    ///
    /// Panics if more than `max_threads` handles are created.
    pub fn handle(&self) -> CcSynchHandle<S, D> {
        let i = self.shared.next_handle.fetch_add(1, Relaxed);
        let max = self.shared.layout.tail / WORDS_PER_LINE - 1;
        assert!((i as u64) < max, "CC-SYNCH sized for {max} threads");
        CcSynchHandle {
            shared: Arc::clone(&self.shared),
            my_node: i as u64 + 1, // node 0 is the initial dummy
        }
    }

    /// Average number of requests served per combining round so far
    /// (the "actual combining rate" of Figure 4b).
    pub fn combining_rate(&self) -> f64 {
        let rounds = self.shared.rounds.load(Relaxed);
        if rounds == 0 {
            0.0
        } else {
            self.shared.combined.load(Relaxed) as f64 / rounds as f64
        }
    }

    /// Consumes the construction and returns the protected state.
    ///
    /// # Panics
    ///
    /// Panics if handles are still alive (their owners might still submit
    /// operations), or if a combiner panicked mid-round (the state may be
    /// torn, so it must not escape looking valid).
    pub fn into_state(self) -> S {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => {
                shared.arena.check();
                shared.cs.state.into_inner()
            }
            Err(_) => panic!("CC-SYNCH handles still alive at into_state"),
        }
    }
}

/// Per-thread handle to a [`CcSynch`] instance.
pub struct CcSynchHandle<S, D> {
    shared: Arc<Shared<S, D>>,
    /// Id of the node this thread currently owns.
    my_node: u64,
}

impl<S, D> ApplyOp for CcSynchHandle<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S>,
{
    fn apply(&mut self, op: u64, arg: u64) -> u64 {
        let sh = &*self.shared;
        sh.arena.check();
        let mut stats = Stats::default();
        let mut m = Native::new(&sh.arena);
        let ret = block_on(
            sh.layout
                .apply(&mut m, &sh.cs, &mut self.my_node, op, arg, &mut stats),
        );
        let Some(served) = stats.round else {
            telemetry::record_span(stats.track, Algo::CcSynch, Lane::ClientWait, stats.t_enq);
            return ret;
        };
        sh.rounds.fetch_add(1, Relaxed);
        sh.combined.fetch_add(served, Relaxed);
        if telemetry::ENABLED {
            telemetry::count(Counter::CcRounds, 1);
            telemetry::count(Counter::CcServed, served);
            telemetry::record_span(stats.track, Algo::CcSynch, Lane::Hold, stats.t_hold);
        }
        ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type CounterFn = fn(&mut u64, u64, u64) -> u64;

    fn fai(state: &mut u64, _op: u64, _arg: u64) -> u64 {
        let old = *state;
        *state += 1;
        old
    }

    #[test]
    fn single_thread_sequence() {
        let cs = CcSynch::new(1, 8, 0u64, fai as CounterFn);
        let mut h = cs.handle();
        for i in 0..100 {
            assert_eq!(h.apply(0, 0), i);
        }
        drop(h);
        assert_eq!(cs.into_state(), 100);
    }

    #[test]
    fn multithreaded_permutation() {
        const THREADS: usize = 8;
        // Miri runs every access through its borrow tracker; keep the
        // schedule-diverse shape but shrink the volume.
        const OPS: u64 = if cfg!(miri) { 40 } else { 3_000 };
        let cs = Arc::new(CcSynch::new(THREADS, 64, 0u64, fai as CounterFn));
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let mut h = cs.handle();
            joins.push(std::thread::spawn(move || {
                (0..OPS).map(|_| h.apply(0, 0)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..THREADS as u64 * OPS).collect::<Vec<_>>());
    }

    #[test]
    fn combining_rate_reported() {
        const THREADS: usize = 4;
        let cs = Arc::new(CcSynch::new(THREADS, 200, 0u64, fai as CounterFn));
        const OPS: u64 = if cfg!(miri) { 40 } else { 2_000 };
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let mut h = cs.handle();
            joins.push(std::thread::spawn(move || {
                for _ in 0..OPS {
                    h.apply(0, 0);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let rate = cs.combining_rate();
        assert!(
            rate >= 1.0,
            "combiners serve at least their own op, got {rate}"
        );
        assert!(rate <= 200.0, "rate bounded by max_ops, got {rate}");
    }

    #[test]
    fn max_ops_one_still_correct() {
        const THREADS: usize = 4;
        const OPS: u64 = if cfg!(miri) { 40 } else { 1_000 };
        let cs = Arc::new(CcSynch::new(THREADS, 1, 0u64, fai as CounterFn));
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let mut h = cs.handle();
            joins.push(std::thread::spawn(move || {
                for _ in 0..OPS {
                    h.apply(0, 0);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        drop(cs); // handles dropped inside threads
    }

    #[test]
    #[should_panic(expected = "sized for")]
    fn too_many_handles_panics() {
        let cs = CcSynch::new(1, 8, 0u64, fai as CounterFn);
        let _a = cs.handle();
        let _b = cs.handle();
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

        let cs = Arc::new(CcSynch::new(2, 8, 0u64, boom as CounterFn));
        let mut a = cs.handle();
        // Single thread, so `a` deterministically becomes the combiner and
        // its own panicking op unwinds out of the dispatch region.
        let err = catch_unwind(AssertUnwindSafe(|| a.apply(1, 0))).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"dispatch exploded"));

        // Every later apply must report the poisoning, not hang on the
        // broken hand-off chain.
        let mut b = cs.handle();
        let err = catch_unwind(AssertUnwindSafe(|| b.apply(0, 0))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("CC-SYNCH poisoned"), "got: {msg}");

        // And the (possibly torn) state must not escape looking valid.
        drop((a, b));
        let cs = Arc::try_unwrap(cs).unwrap_or_else(|_| panic!("handles alive"));
        let err = catch_unwind(AssertUnwindSafe(|| cs.into_state())).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("CC-SYNCH poisoned"), "got: {msg}");
    }

    #[test]
    fn non_counter_state() {
        let cs = CcSynch::new(
            2,
            8,
            Vec::<u64>::new(),
            |s: &mut Vec<u64>, _op: u64, arg: u64| {
                s.push(arg);
                (s.len() - 1) as u64
            },
        );
        let mut a = cs.handle();
        let mut b = cs.handle();
        assert_eq!(a.apply(0, 10), 0);
        assert_eq!(b.apply(0, 20), 1);
        drop((a, b));
        assert_eq!(cs.into_state(), vec![10, 20]);
    }
}
