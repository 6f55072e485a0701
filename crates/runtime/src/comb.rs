//! The runtime's combiner: flat combining over per-session publication
//! records. One type serves [`Backend::Comb`](crate::Backend::Comb) and the
//! Comb mode of every [`AdaptiveShard`](crate::adaptive::AdaptiveShard).
//!
//! A submitting thread publishes its request on its session's record and
//! then either finds it served or takes combiner duty itself (a TAS lock)
//! and serves every pending record, bounded by `max_batch`. The combiner
//! owns the shard's state, so it is also where the other executors of an
//! adaptive shard (its MCS lock holder and its server thread) reach it.
//!
//! The paper's HYBCOMB (`mpsync-core`) hands requests to the combiner over
//! the `udn` fabric. Here the fabric is itself shared memory, so that
//! hand-off only adds work: on one hot key a runtime HYBCOMB ran at about
//! half this combiner's rate (DESIGN.md §14).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam_utils::CachePadded;
use mpsync_core::{ApplyOp, CsState, Dispatcher};

use crate::config::RuntimeConfig;
use crate::control::{spin, Control};

const REC_EMPTY: u64 = 0;
const REC_PENDING: u64 = 1;
const REC_DONE: u64 = 2;

/// One session's publication record.
#[derive(Default)]
struct Record {
    /// EMPTY → PENDING (publish) → DONE (served) → EMPTY (collected).
    state: AtomicU64,
    word: AtomicU64,
    arg: AtomicU64,
    ret: AtomicU64,
}

/// One shard's state behind a flat combiner with one record per session
/// slot ([`SlotPool`]).
pub(crate) struct Combiner<S, D> {
    state: CsState<S>,
    dispatch: D,
    lock: CachePadded<AtomicBool>,
    records: Box<[CachePadded<Record>]>,
    control: Arc<Control>,
    shard: usize,
    max_batch: u64,
}

impl<S, D> Combiner<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S>,
{
    pub fn new(
        state: S,
        dispatch: D,
        control: Arc<Control>,
        shard: usize,
        config: &RuntimeConfig,
    ) -> Self {
        Self {
            state: CsState::new(state),
            dispatch,
            lock: CachePadded::new(AtomicBool::new(false)),
            records: (0..config.max_sessions)
                .map(|_| CachePadded::default())
                .collect(),
            control,
            shard,
            max_batch: config.max_batch,
        }
    }

    /// Runs one dispatch against the state.
    ///
    /// # Safety
    ///
    /// The caller must be the state's unique executing thread for the call's
    /// duration: the combiner, or whatever other protocol an owner layers
    /// over this one (an adaptive shard's lock holder or server thread,
    /// excluded from the combiner by the swap protocol).
    pub unsafe fn exec(&self, word: u64, arg: u64) -> u64 {
        // SAFETY: forwarded from the caller's contract.
        unsafe {
            self.state
                .with_mut(|s| self.dispatch.dispatch(s, word, arg))
        }
    }

    /// Publishes `(word, arg)` on `slot`'s record, then waits for a combiner
    /// or becomes one. `slot` must be the caller's own lease.
    pub fn apply(&self, slot: usize, word: u64, arg: u64) -> u64 {
        let rec = &self.records[slot];
        rec.word.store(word, Ordering::Relaxed);
        rec.arg.store(arg, Ordering::Relaxed);
        // Release: the combiner's Acquire load of PENDING sees word/arg.
        rec.state.store(REC_PENDING, Ordering::Release);
        let mut spins = 0u32;
        loop {
            // Acquire: pairs with the combiner's Release store of DONE so
            // `ret` is visible.
            if rec.state.load(Ordering::Acquire) == REC_DONE {
                rec.state.store(REC_EMPTY, Ordering::Relaxed);
                return rec.ret.load(Ordering::Relaxed);
            }
            if !self.lock.swap(true, Ordering::Acquire) {
                self.combine();
                self.lock.store(false, Ordering::Release);
                continue; // our record was served by us or a predecessor
            }
            spin(&mut spins);
        }
    }

    /// Serves every pending record (two scan passes, bounded by
    /// `max_batch`). Caller holds `lock`.
    fn combine(&self) {
        let mut served = 0u64;
        'passes: for _ in 0..2 {
            for rec in self.records.iter() {
                if served >= self.max_batch {
                    break 'passes;
                }
                if rec.state.load(Ordering::Acquire) == REC_PENDING {
                    let word = rec.word.load(Ordering::Relaxed);
                    let arg = rec.arg.load(Ordering::Relaxed);
                    // SAFETY: unique combiner (`lock` TAS); an owner that
                    // runs other executors over the state keeps them out
                    // while anyone combines (see `exec`).
                    let ret = unsafe { self.exec(word, arg) };
                    rec.ret.store(ret, Ordering::Relaxed);
                    rec.state.store(REC_DONE, Ordering::Release);
                    served += 1;
                }
            }
        }
        if served > 0 {
            self.control.record_batch(self.shard, served);
        }
    }

    /// Surrenders the state. Caller must guarantee quiescence (the runtime's
    /// shutdown drain).
    pub fn into_state(self) -> S {
        self.state.into_inner()
    }
}

/// A session's face of one [`Backend::Comb`](crate::Backend::Comb) shard.
pub(crate) struct CombHandle<S, D> {
    comb: Arc<Combiner<S, D>>,
    lease: Arc<SlotLease>,
}

impl<S, D> CombHandle<S, D> {
    pub fn new(comb: Arc<Combiner<S, D>>, lease: Arc<SlotLease>) -> Self {
        Self { comb, lease }
    }
}

impl<S, D> ApplyOp for CombHandle<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S>,
{
    fn apply(&mut self, word: u64, arg: u64) -> u64 {
        self.comb.apply(self.lease.slot, word, arg)
    }
}

/// Hands out publication-record slot indices, one per live session,
/// recycled on session drop.
pub(crate) struct SlotPool {
    free: Mutex<Vec<usize>>,
}

impl SlotPool {
    pub fn new(slots: usize) -> Arc<Self> {
        Arc::new(Self {
            free: Mutex::new((0..slots).collect()),
        })
    }

    /// Claims a slot. The session budget guarantees one is free: a session
    /// returns its lease before it gives its place back.
    pub fn acquire(self: &Arc<Self>) -> SlotLease {
        let slot = self.free.lock().expect("slot pool poisoned").pop();
        SlotLease {
            pool: Arc::clone(self),
            slot: slot.expect("session budget bounds the live leases"),
        }
    }
}

/// A claimed publication-record slot; returns to the pool on drop.
pub(crate) struct SlotLease {
    pool: Arc<SlotPool>,
    pub slot: usize,
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
    use crate::config::SubmitPolicy;

    fn fetch_add(s: &mut u64, _op: u64, arg: u64) -> u64 {
        let old = *s;
        *s = s.wrapping_add(arg);
        old
    }

    #[test]
    fn combiner_applies_and_records_batches() {
        let config = RuntimeConfig::new(1).with_max_sessions(2);
        let control = Arc::new(Control::new(1, 8, SubmitPolicy::Block));
        let comb = Combiner::new(
            5u64,
            fetch_add as fn(&mut u64, u64, u64) -> u64,
            Arc::clone(&control),
            0,
            &config,
        );
        assert_eq!(comb.apply(0, 0, 1), 5);
        assert_eq!(comb.apply(1, 0, 2), 6);
        assert_eq!(control.shards[0].server.batches.load(Ordering::Relaxed), 2);
        assert_eq!(comb.into_state(), 8);
    }

    #[test]
    fn slot_pool_recycles() {
        let pool = SlotPool::new(2);
        let a = pool.acquire();
        let b = pool.acquire();
        let freed = a.slot;
        drop(a);
        let c = pool.acquire();
        assert_eq!(c.slot, freed);
        drop(b);
        drop(c);
        assert_eq!(pool.free.lock().unwrap().len(), 2);
    }
}
