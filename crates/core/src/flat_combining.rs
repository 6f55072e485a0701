//! Flat combining [Hendler, Incze, Shavit, Tzafrir — SPAA 2010]: the
//! combining construction the paper cites as prior art ([13]), and the
//! executor behind the runtime's `Backend::Comb` and every adaptive shard's
//! Comb mode.
//!
//! A caller publishes its request on its record slot, then either finds it
//! served or takes combiner duty itself (a test-and-set lock) and serves
//! every pending record: two scan passes, at most `max_batch` requests.
//! Unlike CC-SYNCH there is no hand-off queue — the combiner re-reads every
//! record each pass, served or not. A combiner that reached `max_batch`
//! before its own record unlocks and looks again.
//!
//! Record slots come from a [`SlotPool`]: a caller applies on the slot of a
//! [`SlotLease`] it holds, and the slot returns to the pool when the lease
//! drops. One pool may serve several instances (a runtime session uses the
//! same slot on every shard).
//!
//! A dispatch that panics poisons the instance (DESIGN.md §9.3): waiters and
//! later callers panic instead of spinning on a lock nobody will release,
//! and [`FlatCombining::into_state`] refuses the state.

use std::sync::{Arc, Mutex};

use crossbeam_utils::CachePadded;

use crate::dispatch::Dispatcher;
use crate::state::{CsState, PoisonGuard};
use crate::sync::{spin, AtomicBool, AtomicU64, Ordering};
use crate::ApplyOp;

const EMPTY: u64 = 0;
const PENDING: u64 = 1;
const DONE: u64 = 2;

/// Panic message once a combiner panicked inside the critical section.
const POISONED: &str =
    "FLAT-COMBINING poisoned: a combiner panicked inside the critical section and the \
     protected state may be inconsistent";

/// One slot's publication record.
#[derive(Default)]
struct Record {
    /// EMPTY → PENDING (published) → DONE (served) → EMPTY (collected).
    state: AtomicU64,
    op: AtomicU64,
    arg: AtomicU64,
    ret: AtomicU64,
}

/// The flat-combining construction protecting a state `S`, with one
/// publication record per slot.
///
/// ```
/// use std::sync::Arc;
/// use mpsync_core::{ApplyOp, FlatCombining, SlotPool};
///
/// fn fai(state: &mut u64, _op: u64, _arg: u64) -> u64 { let v = *state; *state += 1; v }
///
/// let fc = Arc::new(FlatCombining::new(2, 64, 0u64, fai as fn(&mut u64, u64, u64) -> u64));
/// let slots = SlotPool::new(2);
/// let mut a = fc.handle(slots.acquire());
/// let mut b = fc.handle(slots.acquire());
/// let t = std::thread::spawn(move || (0..500).map(|_| b.apply(0, 0)).max());
/// let _ = (0..500).map(|_| a.apply(0, 0)).max();
/// t.join().unwrap();
/// drop(a);
/// let fc = Arc::try_unwrap(fc).unwrap_or_else(|_| panic!("handles alive"));
/// assert_eq!(fc.into_state(), 1000);
/// ```
pub struct FlatCombining<S, D> {
    state: CsState<S>,
    dispatch: D,
    lock: CachePadded<AtomicBool>,
    /// Set when a combiner's dispatch panicked: the lock stays taken, so
    /// waiters must stop waiting (see [`PoisonGuard`]).
    poisoned: AtomicBool,
    records: Box<[CachePadded<Record>]>,
    max_batch: u64,
}

impl<S, D> FlatCombining<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S>,
{
    /// Creates the construction with record slots `0..slots`, serving at
    /// most `max_batch` requests per combining round.
    pub fn new(slots: usize, max_batch: u64, state: S, dispatch: D) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        Self {
            state: CsState::new(state),
            dispatch,
            lock: CachePadded::new(AtomicBool::new(false)),
            poisoned: AtomicBool::new(false),
            records: (0..slots).map(|_| CachePadded::default()).collect(),
            max_batch,
        }
    }

    /// A per-thread [`ApplyOp`] handle on `lease`'s slot. It does not
    /// report round sizes; callers that want them use
    /// [`FlatCombining::apply`].
    pub fn handle(self: &Arc<Self>, lease: SlotLease) -> FlatCombiningHandle<S, D> {
        FlatCombiningHandle {
            fc: Arc::clone(self),
            lease,
        }
    }

    /// Publishes `(op, arg)` on `slot`'s record, then waits for a combiner
    /// or becomes one, and returns the result. `on_round` receives the size
    /// of every non-empty combining round this call runs, before the
    /// combiner lock is released. `slot` must be the caller's own lease.
    ///
    /// # Panics
    ///
    /// Panics if the instance is poisoned; a panicking dispatch unwinds out
    /// of the call that combined it.
    pub fn apply(&self, slot: usize, op: u64, arg: u64, mut on_round: impl FnMut(u64)) -> u64 {
        let rec = &self.records[slot];
        rec.op.store(op, Ordering::Relaxed);
        rec.arg.store(arg, Ordering::Relaxed);
        // Release: the combiner's Acquire load of PENDING sees op/arg.
        rec.state.store(PENDING, Ordering::Release);
        let mut spins = 0u32;
        loop {
            // Acquire pairs with the combiner's DONE Release: `ret` is
            // visible.
            if rec.state.load(Ordering::Acquire) == DONE {
                rec.state.store(EMPTY, Ordering::Relaxed);
                return rec.ret.load(Ordering::Relaxed);
            }
            // Acquire pairs with the unlocking Release below: this
            // combiner's state accesses follow the previous one's.
            if !self.lock.swap(true, Ordering::Acquire) {
                let guard = PoisonGuard::new(&self.poisoned);
                let served = self.combine();
                if served > 0 {
                    on_round(served);
                }
                guard.disarm();
                self.lock.store(false, Ordering::Release);
                continue; // our record was served, or max_batch came first
            }
            // A combiner that panicked never unlocks.
            if self.poisoned.load(Ordering::Relaxed) {
                panic!("{POISONED}");
            }
            spin(&mut spins);
        }
    }

    /// Serves pending records: two scan passes, at most `max_batch`
    /// requests. Caller holds `lock`.
    fn combine(&self) -> u64 {
        let mut served = 0u64;
        'passes: for _ in 0..2 {
            for rec in self.records.iter() {
                if served >= self.max_batch {
                    break 'passes;
                }
                // Acquire pairs with the publisher's PENDING Release.
                if rec.state.load(Ordering::Acquire) == PENDING {
                    let op = rec.op.load(Ordering::Relaxed);
                    let arg = rec.arg.load(Ordering::Relaxed);
                    // SAFETY: the lock makes this the unique combiner, and an
                    // owner that runs other executors over the state keeps
                    // them out while anyone combines (see `exec`).
                    let ret = unsafe { self.exec(op, arg) };
                    rec.ret.store(ret, Ordering::Relaxed);
                    // Release publishes `ret` to the owner's DONE Acquire.
                    rec.state.store(DONE, Ordering::Release);
                    served += 1;
                }
            }
        }
        served
    }

    /// Runs one dispatch against the state, outside the record protocol. A
    /// dispatch that unwinds poisons the instance, whichever protocol ran
    /// it: an owner that layers other executors over this one has one flag
    /// for all of them, and checks [`is_poisoned`](Self::is_poisoned)
    /// before it runs an op in them.
    ///
    /// # Safety
    ///
    /// The caller must be the state's unique executing thread for the
    /// call's duration: the combiner, or an executor of a protocol an owner
    /// layers over this one and keeps apart from every combiner (an adaptive
    /// shard's lock holder or server thread, separated by its mode switch).
    pub unsafe fn exec(&self, op: u64, arg: u64) -> u64 {
        let guard = PoisonGuard::new(&self.poisoned);
        // SAFETY: forwarded from the caller's contract.
        let ret = unsafe { self.state.with_mut(|s| self.dispatch.dispatch(s, op, arg)) };
        guard.disarm();
        ret
    }

    /// Whether a dispatch unwound: the state may be torn.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Consumes the construction and returns the protected state.
    ///
    /// # Panics
    ///
    /// Panics if a combiner panicked mid-round: the state may be torn.
    pub fn into_state(self) -> S {
        assert!(!self.poisoned.load(Ordering::Relaxed), "{POISONED}");
        self.state.into_inner()
    }
}

/// Per-thread handle to a [`FlatCombining`] instance, on one leased slot.
pub struct FlatCombiningHandle<S, D> {
    fc: Arc<FlatCombining<S, D>>,
    lease: SlotLease,
}

impl<S, D> ApplyOp for FlatCombiningHandle<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S>,
{
    fn apply(&mut self, op: u64, arg: u64) -> u64 {
        self.fc.apply(self.lease.slot(), op, arg, |_| {})
    }
}

/// Hands out record slot indices, each recycled when its lease drops.
pub struct SlotPool {
    free: Mutex<Vec<usize>>,
}

impl SlotPool {
    /// A pool of the slots `0..slots`.
    pub fn new(slots: usize) -> Arc<Self> {
        Arc::new(Self {
            free: Mutex::new((0..slots).collect()),
        })
    }

    /// Claims a free slot.
    ///
    /// # Panics
    ///
    /// Panics if every slot is leased.
    pub fn acquire(self: &Arc<Self>) -> SlotLease {
        let slot = self.free.lock().expect("slot pool poisoned").pop();
        SlotLease {
            pool: Arc::clone(self),
            slot: slot.expect("every record slot is leased"),
        }
    }
}

/// A claimed record slot; returns to its pool on drop.
pub struct SlotLease {
    pool: Arc<SlotPool>,
    slot: usize,
}

impl SlotLease {
    /// The slot's index.
    pub fn slot(&self) -> usize {
        self.slot
    }
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        self.pool
            .free
            .lock()
            .expect("slot pool poisoned")
            .push(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64 as StdAtomicU64;

    type CounterFn = fn(&mut u64, u64, u64) -> u64;

    fn fai(state: &mut u64, _op: u64, _arg: u64) -> u64 {
        let old = *state;
        *state += 1;
        old
    }

    #[test]
    fn single_thread_sequence() {
        let fc = Arc::new(FlatCombining::new(1, 2, 0u64, fai as CounterFn));
        let mut h = fc.handle(SlotPool::new(1).acquire());
        for i in 0..100 {
            assert_eq!(h.apply(0, 0), i);
        }
        drop(h);
        let fc = Arc::try_unwrap(fc).unwrap_or_else(|_| panic!("handles alive"));
        assert_eq!(fc.into_state(), 100);
    }

    #[test]
    fn multithreaded_permutation() {
        const THREADS: usize = 8;
        // Miri runs every access through its borrow tracker; keep the
        // schedule-diverse shape but shrink the volume.
        const OPS: u64 = if cfg!(miri) { 40 } else { 3_000 };
        let fc = Arc::new(FlatCombining::new(THREADS, 64, 0u64, fai as CounterFn));
        let slots = SlotPool::new(THREADS);
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let mut h = fc.handle(slots.acquire());
            joins.push(std::thread::spawn(move || {
                (0..OPS).map(|_| h.apply(0, 0)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..THREADS as u64 * OPS).collect::<Vec<_>>());
    }

    #[test]
    fn round_sizes_sum_to_ops_served_and_respect_max_batch() {
        const THREADS: usize = 4;
        const OPS: u64 = if cfg!(miri) { 40 } else { 2_000 };
        const MAX_BATCH: u64 = 2;
        let fc = Arc::new(FlatCombining::new(
            THREADS,
            MAX_BATCH,
            0u64,
            fai as CounterFn,
        ));
        let served = Arc::new(StdAtomicU64::new(0));
        let joins: Vec<_> = (0..THREADS)
            .map(|slot| {
                let (fc, served) = (Arc::clone(&fc), Arc::clone(&served));
                std::thread::spawn(move || {
                    for _ in 0..OPS {
                        fc.apply(slot, 0, 0, |n| {
                            assert!((1..=MAX_BATCH).contains(&n), "round of {n}");
                            served.fetch_add(n, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(served.load(Ordering::Relaxed), THREADS as u64 * OPS);
    }

    #[test]
    fn non_counter_state() {
        let fc = Arc::new(FlatCombining::new(
            2,
            3,
            Vec::<u64>::new(),
            |s: &mut Vec<u64>, _op: u64, arg: u64| {
                s.push(arg);
                (s.len() - 1) as u64
            },
        ));
        let slots = SlotPool::new(2);
        let mut a = fc.handle(slots.acquire());
        let mut b = fc.handle(slots.acquire());
        assert_eq!(a.apply(0, 5), 0);
        assert_eq!(b.apply(0, 9), 1);
        drop((a, b));
        let fc = Arc::try_unwrap(fc).unwrap_or_else(|_| panic!("handles alive"));
        assert_eq!(fc.into_state(), vec![5, 9]);
    }

    #[test]
    fn slot_pool_recycles() {
        let pool = SlotPool::new(2);
        let a = pool.acquire();
        let b = pool.acquire();
        let freed = a.slot();
        drop(a);
        let c = pool.acquire();
        assert_eq!(c.slot(), freed);
        drop(b);
        drop(c);
        assert_eq!(pool.free.lock().unwrap().len(), 2);
    }

    #[test]
    fn combiner_panic_poisons_instead_of_wedging() {
        fn boom(state: &mut u64, op: u64, _arg: u64) -> u64 {
            if op == 1 {
                panic!("dispatch exploded");
            }
            *state += 1;
            *state
        }

        let fc = FlatCombining::new(2, 8, 0u64, boom as CounterFn);
        // Single thread, so the caller combines its own op and the panic
        // unwinds out of the combining round.
        let err = catch_unwind(AssertUnwindSafe(|| fc.apply(0, 1, 0, |_| {}))).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"dispatch exploded"));

        // A later apply must report the poisoning, not spin on the lock the
        // panicked combiner still holds.
        let err = catch_unwind(AssertUnwindSafe(|| fc.apply(1, 0, 0, |_| {}))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("FLAT-COMBINING poisoned"), "got: {msg}");

        // And the (possibly torn) state must not escape looking valid.
        let err = catch_unwind(AssertUnwindSafe(|| fc.into_state())).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("FLAT-COMBINING poisoned"), "got: {msg}");
    }
}
