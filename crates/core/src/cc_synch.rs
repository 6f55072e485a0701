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
//! sections.
//!
//! # Node recycling
//!
//! Each thread owns one node and, after a successful `SWAP`, adopts the node
//! it displaced (the classic CC-SYNCH recycling). Nodes therefore migrate
//! between threads; they live in a fixed arena owned by the construction and
//! are addressed by index, which keeps the implementation free of dangling
//! pointers by construction.

// Statistics counters stay on std atomics on purpose (see `crate::sync`).
use std::sync::atomic::{AtomicU64 as StdAtomicU64, AtomicUsize as StdAtomicUsize};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Counter, Lane};

use crate::dispatch::Dispatcher;
use crate::state::{CsState, PoisonGuard};
use crate::sync::{spin, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::ApplyOp;

/// Sentinel for "no successor" in a node's `next` field.
const NIL: usize = usize::MAX;

/// Panic message once the construction is poisoned (a combiner panicked
/// while holding the critical section, so the protected state may be torn
/// and the hand-off chain is broken).
const POISONED: &str =
    "CC-SYNCH poisoned: a combiner panicked inside the critical section and the \
     protected state may be inconsistent";

/// One list node. `wait`/`completed` are the owner's local-spin flags; `op`,
/// `arg`, `ret` carry the request and its result.
struct Node {
    wait: AtomicBool,
    completed: AtomicBool,
    next: AtomicUsize,
    op: AtomicU64,
    arg: AtomicU64,
    ret: AtomicU64,
    /// Enqueue timestamp (ns, telemetry epoch) — written only when
    /// telemetry is enabled; lets the combiner attribute queue-wait to the
    /// request's owner.
    t_enq: AtomicU64,
}

impl Node {
    fn new() -> Self {
        Self {
            wait: AtomicBool::new(false),
            completed: AtomicBool::new(false),
            next: AtomicUsize::new(NIL),
            op: AtomicU64::new(0),
            arg: AtomicU64::new(0),
            ret: AtomicU64::new(0),
            t_enq: AtomicU64::new(0),
        }
    }
}

struct Shared<S, D> {
    nodes: Box<[CachePadded<Node>]>,
    tail: CachePadded<AtomicUsize>,
    state: CsState<S>,
    dispatch: D,
    max_ops: u64,
    /// Set when a combiner's dispatch panicked mid-round: the hand-off chain
    /// is broken, so every waiter and later caller panics instead of
    /// spinning forever (see [`PoisonGuard`]).
    poisoned: AtomicBool,
    next_handle: StdAtomicUsize,
    /// Total requests executed by combiners on behalf of *other* threads
    /// plus their own — used to compute the actual combining rate (Fig. 4b).
    rounds: StdAtomicU64,
    combined: StdAtomicU64,
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
        // One node per thread plus the initial tail dummy.
        let nodes: Box<[CachePadded<Node>]> = (0..max_threads + 1)
            .map(|_| CachePadded::new(Node::new()))
            .collect();
        // Node 0 is the initial dummy: wait == false so the first thread to
        // swap it out becomes the combiner immediately.
        Self {
            shared: Arc::new(Shared {
                nodes,
                tail: CachePadded::new(AtomicUsize::new(0)),
                state: CsState::new(state),
                dispatch,
                max_ops,
                poisoned: AtomicBool::new(false),
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
        let i = self.shared.next_handle.fetch_add(1, Ordering::Relaxed);
        let max = self.shared.nodes.len() - 1;
        assert!(i < max, "CC-SYNCH sized for {max} threads");
        CcSynchHandle {
            shared: Arc::clone(&self.shared),
            my_node: i + 1, // node 0 is the initial dummy
        }
    }

    /// Average number of requests served per combining round so far
    /// (the "actual combining rate" of Figure 4b).
    pub fn combining_rate(&self) -> f64 {
        let rounds = self.shared.rounds.load(Ordering::Relaxed);
        if rounds == 0 {
            0.0
        } else {
            self.shared.combined.load(Ordering::Relaxed) as f64 / rounds as f64
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
                assert!(!shared.poisoned.load(Ordering::Relaxed), "{POISONED}");
                shared.state.into_inner()
            }
            Err(_) => panic!("CC-SYNCH handles still alive at into_state"),
        }
    }
}

/// Per-thread handle to a [`CcSynch`] instance.
pub struct CcSynchHandle<S, D> {
    shared: Arc<Shared<S, D>>,
    /// Index of the node this thread currently owns.
    my_node: usize,
}

impl<S, D> ApplyOp for CcSynchHandle<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S>,
{
    fn apply(&mut self, op: u64, arg: u64) -> u64 {
        let sh = &*self.shared;
        let nodes = &sh.nodes;
        assert!(!sh.poisoned.load(Ordering::Relaxed), "{POISONED}");

        // Prepare my node to become the new tail dummy.
        let next_node = self.my_node;
        nodes[next_node].next.store(NIL, Ordering::Relaxed);
        nodes[next_node].wait.store(true, Ordering::Relaxed);
        nodes[next_node].completed.store(false, Ordering::Relaxed);

        // Enqueue: displace the tail, write my request into the displaced
        // node, link it to my (former) node, and adopt the displaced node.
        // AcqRel edge on `tail`: the Release side publishes my node-init
        // stores above to the *next* swapper (which writes its request into
        // my node); the Acquire side makes the displaced node's init by its
        // previous owner visible before I write into it.
        let cur_node = sh.tail.swap(next_node, Ordering::AcqRel);
        let cur = &nodes[cur_node];
        cur.op.store(op, Ordering::Relaxed);
        cur.arg.store(arg, Ordering::Relaxed);
        let t_enq = telemetry::now_ns();
        if telemetry::ENABLED {
            // Published by the Release below alongside op/arg.
            cur.t_enq.store(t_enq, Ordering::Relaxed);
        }
        // Release edge on `next`: publishes op/arg/t_enq to the combiner's
        // Acquire load in its serve loop.
        cur.next.store(next_node, Ordering::Release);
        self.my_node = cur_node;

        // Local spin until a combiner either served me or made me combiner.
        // The poison check keeps a waiter from spinning forever when the
        // combiner ahead of it panicked and will never release this node.
        let mut spins = 0u32;
        while cur.wait.load(Ordering::Acquire) {
            if sh.poisoned.load(Ordering::Relaxed) {
                panic!("{POISONED}");
            }
            spin(&mut spins);
        }
        if cur.completed.load(Ordering::Relaxed) {
            if telemetry::ENABLED {
                telemetry::record_span(cur_node as u32, Algo::CcSynch, Lane::ClientWait, t_enq);
            }
            // Relaxed is enough for `completed`/`ret`: both were published
            // by the same `wait` Release/Acquire edge the spin just crossed.
            return cur.ret.load(Ordering::Relaxed);
        }

        // I am the combiner. The release of `wait` by my predecessor (or the
        // initial dummy state) orders all previous critical sections before
        // this point.
        let t_hold = telemetry::now_ns();
        let mut served = 0u64;
        let mut tmp_node = cur_node;
        // If a dispatched operation panics, mark the construction poisoned
        // on the way out so every spinning waiter panics too instead of
        // wedging on a release that will never come.
        let guard = PoisonGuard::new(&sh.poisoned);
        // SAFETY: exactly one thread at a time observes `wait == false &&
        // completed == false` for the head node — mutual exclusion follows
        // from the list structure (each node released exactly once), so this
        // thread is the unique accessor for the closure's whole extent. The
        // hand-off store below runs *after* the closure, so the next
        // combiner's access is ordered after ours (loom checks exactly this).
        unsafe {
            sh.state.with_mut(|state| {
                loop {
                    // Acquire pairs with the enqueuer's `next` Release: it
                    // makes the request words (op/arg/t_enq) visible.
                    let next = nodes[tmp_node].next.load(Ordering::Acquire);
                    if next == NIL || served >= sh.max_ops {
                        break;
                    }
                    let tmp = &nodes[tmp_node];
                    let t_serve = if telemetry::ENABLED {
                        // Queue wait: owner's enqueue → combiner reaching it.
                        telemetry::record_span(
                            tmp_node as u32,
                            Algo::CcSynch,
                            Lane::QueueWait,
                            tmp.t_enq.load(Ordering::Relaxed),
                        );
                        telemetry::now_ns()
                    } else {
                        0
                    };
                    let ret = sh.dispatch.dispatch(
                        state,
                        tmp.op.load(Ordering::Relaxed),
                        tmp.arg.load(Ordering::Relaxed),
                    );
                    tmp.ret.store(ret, Ordering::Relaxed);
                    tmp.completed.store(true, Ordering::Relaxed);
                    // Release publishes ret/completed (stored Relaxed above)
                    // to the owner's Acquire spin on `wait`.
                    tmp.wait.store(false, Ordering::Release);
                    if telemetry::ENABLED {
                        telemetry::record_span(
                            tmp_node as u32,
                            Algo::CcSynch,
                            Lane::Serve,
                            t_serve,
                        );
                    }
                    served += 1;
                    tmp_node = next;
                }
            });
        }
        guard.disarm();
        // Hand over the combiner role to the first unserved node (or mark
        // the tail dummy ready for the next arrival). Release publishes this
        // whole round's state mutations to the next combiner's Acquire spin.
        nodes[tmp_node].wait.store(false, Ordering::Release);

        sh.rounds.fetch_add(1, Ordering::Relaxed);
        sh.combined.fetch_add(served, Ordering::Relaxed);
        if telemetry::ENABLED {
            telemetry::count(Counter::CcRounds, 1);
            telemetry::count(Counter::CcServed, served);
            telemetry::record_span(cur_node as u32, Algo::CcSynch, Lane::Hold, t_hold);
        }
        cur.ret.load(Ordering::Relaxed)
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
