//! Classical spin locks (§3 context) and an adapter that turns any of them
//! into an [`ApplyOp`] executor, so lock-based critical sections can be
//! compared head-to-head with the delegation/combining constructions.
//!
//! Provided locks:
//!
//! * [`TasLock`] — test-and-test-and-set with exponential backoff; the
//!   baseline that generates unbounded RMRs under contention;
//! * [`TicketLock`] — FIFO-fair, one RMR-generating variable;
//! * [`McsLock`] — the queue lock of Mellor-Crummey & Scott with *local
//!   spinning* and O(1) RMR complexity per acquisition.
//!
//! [`PoisonLock`] puts any of them under the poison protocol (DESIGN.md
//! §9.3), so a panicking critical section cannot wedge the lock.

use std::ptr;
use std::sync::Arc;

use crossbeam_utils::CachePadded;

use crate::dispatch::Dispatcher;
use crate::state::{CsState, PoisonGuard};
use crate::sync::{spin, AtomicBool, AtomicPtr, AtomicU64, Ordering};
use crate::ApplyOp;

/// A raw mutual-exclusion lock usable by [`LockCs`].
///
/// `Ctx` is the per-thread context a lock needs across an
/// acquire/release pair (the MCS queue node; `()` for centralized locks).
pub trait CsLock: Send + Sync + Default + 'static {
    /// Per-thread context carried by the handle.
    type Ctx: Default + Send;

    /// Acquires the lock, spinning as needed.
    fn lock(&self, ctx: &mut Self::Ctx);

    /// Releases the lock.
    ///
    /// Must only be called by the current holder, with the same `ctx` used
    /// to acquire.
    fn unlock(&self, ctx: &mut Self::Ctx);

    /// Runs `f` holding the lock, and releases it when `f` returns or
    /// unwinds.
    #[inline]
    fn run<R>(&self, ctx: &mut Self::Ctx, f: impl FnOnce() -> R) -> R {
        self.lock(ctx);
        let _held = Held(self, ctx);
        f()
    }
}

/// Test-and-test-and-set lock with exponential backoff.
#[derive(Default)]
pub struct TasLock {
    locked: CachePadded<AtomicBool>,
}

impl CsLock for TasLock {
    type Ctx = ();

    fn lock(&self, _ctx: &mut ()) {
        let mut backoff = 1u32;
        loop {
            // Acquire pairs with `unlock`'s Release: entering the critical
            // section must see every mutation of the previous holder.
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            // Test loop: spin on the local cached copy until it looks free.
            // Relaxed is fine — it is only a hint; the swap above is the
            // synchronizing access.
            let mut spins = 0u32;
            while self.locked.load(Ordering::Relaxed) {
                spin(&mut spins);
            }
            #[cfg(not(loom))]
            for _ in 0..backoff {
                std::hint::spin_loop();
            }
            backoff = (backoff * 2).min(1024);
        }
    }

    fn unlock(&self, _ctx: &mut ()) {
        self.locked.store(false, Ordering::Release);
    }
}

/// Ticket lock: FIFO fairness with a single grant variable.
#[derive(Default)]
pub struct TicketLock {
    next_ticket: CachePadded<AtomicU64>,
    now_serving: CachePadded<AtomicU64>,
}

impl CsLock for TicketLock {
    type Ctx = ();

    fn lock(&self, _ctx: &mut ()) {
        let my = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let mut spins = 0u32;
        while self.now_serving.load(Ordering::Acquire) != my {
            spin(&mut spins);
        }
    }

    fn unlock(&self, _ctx: &mut ()) {
        // Relaxed read is fine: the holder is the only writer of
        // `now_serving`; the Release store publishes the critical section to
        // the next ticket holder's Acquire spin.
        let next = self.now_serving.load(Ordering::Relaxed) + 1;
        self.now_serving.store(next, Ordering::Release);
    }
}

/// Queue node for [`McsLock`]. One per (thread, lock); owned by the
/// [`LockCsHandle`] or supplied by the caller of the raw API.
pub struct McsNode {
    next: AtomicPtr<McsNode>,
    locked: AtomicBool,
}

impl Default for McsNode {
    fn default() -> Self {
        Self {
            next: AtomicPtr::new(ptr::null_mut()),
            locked: AtomicBool::new(false),
        }
    }
}

/// The MCS queue lock: local spinning, O(1) RMRs per acquisition.
#[derive(Default)]
pub struct McsLock {
    tail: CachePadded<AtomicPtr<McsNode>>,
}

// SAFETY invariants for the raw pointers: a node is published to `tail` only
// by its owner inside `lock`; it is unlinked before `unlock` returns; the
// owner does not move or reuse the node between `lock` and `unlock` because
// `Ctx` is borrowed mutably for the whole critical section by `LockCs`, and
// the raw-API contract requires the same.
impl CsLock for McsLock {
    type Ctx = McsNode;

    fn lock(&self, node: &mut McsNode) {
        node.next.store(ptr::null_mut(), Ordering::Relaxed);
        node.locked.store(true, Ordering::Relaxed);
        let me: *mut McsNode = node;
        // AcqRel on `tail`: Release publishes my node init (the two Relaxed
        // stores above) to the successor that displaces me; Acquire pairs
        // with the previous holder's Release (`locked`/CAS) so an
        // uncontended acquisition still sees the last critical section.
        let pred = self.tail.swap(me, Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: `pred` was published by its owner, which cannot
            // release-and-reuse it until we link ourselves (its unlock spins
            // on `next` once its CAS on `tail` fails — and it must fail,
            // because we swapped after it).
            unsafe { (*pred).next.store(me, Ordering::Release) };
            // Acquire pairs with the predecessor's `locked` Release in
            // `unlock`: crossing it hands us the critical section.
            let mut spins = 0u32;
            while node.locked.load(Ordering::Acquire) {
                spin(&mut spins);
            }
        }
    }

    fn unlock(&self, node: &mut McsNode) {
        let me: *mut McsNode = node;
        // Acquire pairs with the successor's `next` Release in `lock`: it
        // makes the successor's node (where we store the release) valid here.
        let mut next = node.next.load(Ordering::Acquire);
        if next.is_null() {
            // No known successor: try to swing tail back to empty. The
            // success Release publishes the critical section to the next
            // uncontended acquirer's `tail` swap (Acquire).
            if self
                .tail
                .compare_exchange(me, ptr::null_mut(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
            // A successor swapped in; wait for it to link itself.
            let mut spins = 0u32;
            loop {
                next = node.next.load(Ordering::Acquire);
                if !next.is_null() {
                    break;
                }
                spin(&mut spins);
            }
        }
        // SAFETY: the successor is spinning on its own `locked` flag and its
        // node outlives the spin (guaranteed by its `lock` call frame).
        unsafe { (*next).locked.store(false, Ordering::Release) };
    }
}

/// Panic message once a critical section unwound holding the lock.
const POISONED: &str =
    "LOCK poisoned: a critical section panicked holding the lock and the protected state \
     may be inconsistent";

/// A [`CsLock`] under the poison protocol: a critical section that unwinds
/// poisons and releases the lock, and every later acquirer releases it
/// again and panics instead of running on a state that may be torn.
#[derive(Default)]
pub struct PoisonLock<L> {
    lock: L,
    poisoned: AtomicBool,
}

impl<L: CsLock> PoisonLock<L> {
    /// Runs `f` holding the lock.
    ///
    /// # Panics
    ///
    /// Panics if an earlier critical section unwound; a panicking `f`
    /// unwinds out of this call.
    #[inline]
    pub fn run<R>(&self, ctx: &mut L::Ctx, f: impl FnOnce() -> R) -> R {
        self.lock.run(ctx, || {
            // Relaxed: a poisoner stores the flag before its release, which
            // this acquisition crossed.
            if self.poisoned.load(Ordering::Relaxed) {
                panic!("{POISONED}");
            }
            let guard = PoisonGuard::new(&self.poisoned);
            let ret = f();
            guard.disarm();
            ret
        })
    }

    /// Whether a critical section unwound holding the lock.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }
}

/// Releases the lock when dropped, on unwind too.
struct Held<'a, L: CsLock>(&'a L, &'a mut L::Ctx);

impl<L: CsLock> Drop for Held<'_, L> {
    #[inline]
    fn drop(&mut self) {
        self.0.unlock(self.1);
    }
}

struct LockShared<S, L, D> {
    lock: PoisonLock<L>,
    state: CsState<S>,
    dispatch: D,
}

/// Executes critical sections inline under a lock `L` — the classical
/// approach the paper's §3 contrasts with delegation and combining.
pub struct LockCs<S, L: CsLock, D> {
    shared: Arc<LockShared<S, L, D>>,
}

impl<S, L, D> LockCs<S, L, D>
where
    S: Send + 'static,
    L: CsLock,
    D: Dispatcher<S>,
{
    /// Creates the lock-protected state.
    pub fn new(state: S, dispatch: D) -> Self {
        Self {
            shared: Arc::new(LockShared {
                lock: PoisonLock::default(),
                state: CsState::new(state),
                dispatch,
            }),
        }
    }

    /// Creates a per-thread handle (any number may be created).
    pub fn handle(&self) -> LockCsHandle<S, L, D> {
        LockCsHandle {
            shared: Arc::clone(&self.shared),
            ctx: L::Ctx::default(),
        }
    }

    /// Consumes the executor and returns the protected state.
    ///
    /// # Panics
    ///
    /// Panics if handles are still alive, or if a critical section
    /// panicked (the state may be torn).
    pub fn into_state(self) -> S {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => {
                assert!(!shared.lock.is_poisoned(), "{POISONED}");
                shared.state.into_inner()
            }
            Err(_) => panic!("LockCs handles still alive at into_state"),
        }
    }
}

/// Per-thread handle to a [`LockCs`].
pub struct LockCsHandle<S, L: CsLock, D> {
    shared: Arc<LockShared<S, L, D>>,
    ctx: L::Ctx,
}

impl<S, L, D> ApplyOp for LockCsHandle<S, L, D>
where
    S: Send + 'static,
    L: CsLock,
    D: Dispatcher<S>,
{
    #[inline]
    fn apply(&mut self, op: u64, arg: u64) -> u64 {
        let sh = &*self.shared;
        // SAFETY: `run` holds the lock for the closure's whole extent;
        // `CsLock` implementations provide mutual exclusion and
        // release/acquire ordering across the hand-off.
        sh.lock.run(&mut self.ctx, || unsafe {
            sh.state
                .with_mut(|state| sh.dispatch.dispatch(state, op, arg))
        })
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

    fn hammer<L: CsLock>() {
        const THREADS: usize = 8;
        const OPS: u64 = if cfg!(miri) { 40 } else { 3_000 };
        let cs = LockCs::<u64, L, CounterFn>::new(0, fai as CounterFn);
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
        assert_eq!(cs.into_state(), THREADS as u64 * OPS);
    }

    #[test]
    fn tas_lock_mutual_exclusion() {
        hammer::<TasLock>();
    }

    #[test]
    fn ticket_lock_mutual_exclusion() {
        hammer::<TicketLock>();
    }

    #[test]
    fn mcs_lock_mutual_exclusion() {
        hammer::<McsLock>();
    }

    /// A dispatch panic releases and poisons the lock: every later acquirer
    /// panics with the poison report instead of spinning on a lock nobody
    /// releases, and `into_state` refuses the state. The later submissions
    /// run on their own thread, so a wedge fails the test instead of
    /// hanging it.
    #[test]
    fn dispatch_panic_poisons_instead_of_wedging() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::time::Duration;

        fn boom(state: &mut u64, op: u64, arg: u64) -> u64 {
            if op == 1 {
                panic!("dispatch exploded");
            }
            fai(state, op, arg)
        }

        let cs = LockCs::<u64, McsLock, CounterFn>::new(0, boom as CounterFn);
        let (mut a, mut b) = (cs.handle(), cs.handle());
        let err = catch_unwind(AssertUnwindSafe(|| a.apply(1, 0))).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"dispatch exploded"));

        let (tx, rx) = std::sync::mpsc::channel();
        let handles = std::thread::spawn(move || {
            for h in [&mut a, &mut b] {
                let r = catch_unwind(AssertUnwindSafe(|| h.apply(0, 0)));
                let _ = tx.send(r.map_err(|e| e.downcast_ref::<String>().cloned()));
            }
        });
        for _ in 0..2 {
            let got = rx
                .recv_timeout(Duration::from_secs(3))
                .expect("no answer within 3 s: the lock is wedged");
            let msg = got.expect_err("a poisoned lock must not serve");
            assert!(
                msg.as_deref().is_some_and(|m| m.contains("LOCK poisoned")),
                "got: {msg:?}"
            );
        }
        handles.join().expect("both panics were caught");
        let err = catch_unwind(AssertUnwindSafe(|| cs.into_state())).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("LOCK poisoned"), "got: {msg}");
    }

    #[test]
    fn mcs_uncontended_fast_path() {
        let lock = McsLock::default();
        let mut node = McsNode::default();
        for _ in 0..100 {
            lock.lock(&mut node);
            lock.unlock(&mut node);
        }
    }

    #[test]
    fn ticket_lock_is_fifo_single_thread() {
        let lock = TicketLock::default();
        for _ in 0..10 {
            lock.lock(&mut ());
            lock.unlock(&mut ());
        }
        assert_eq!(lock.next_ticket.load(Ordering::Relaxed), 10);
        assert_eq!(lock.now_serving.load(Ordering::Relaxed), 10);
    }
}
