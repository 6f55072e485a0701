//! Slot-addressed object state behind a node: the [`SlotStore`] trait and
//! its two implementations.
//!
//! [`ModelStore`] is a plain per-slot `BTreeMap` — the simulator's state,
//! fast and dependency-free. [`RuntimeStore`] adapts the real sharded
//! delegation runtime ([`ShardedKvStore`]): operations go through an
//! ordinary session (so they serialize under shard mutual exclusion with
//! all other traffic), and export rides the `SCAN`-cursor snapshot path.
//! `NodeCore` is generic over the trait, which is what lets one state
//! machine run in both worlds.
//!
//! **Who serves a `RuntimeStore`: its caller.** A node's core thread is the
//! store's only client, so a polling `rt-serve-*` thread beside it serves
//! nobody else and, on the node's CPU, only takes turns with it (two such
//! spinners cost the benchmark's `cluster-fwd` 24–50 context switches per
//! operation). [`RuntimeStore::new`] therefore converts the store to
//! external drive and keeps every shard's driver: a call sends its request
//! and ticks the drivers while it waits, so the operation is sent, served
//! and answered on the thread that decoded it — the paper's servicing core.
//! That makes the tick hook part of *every* route into the store: `export`
//! and `import` walk through a session of their own inside
//! [`ShardedKvStore`], and take the same hook, because nobody else would
//! serve them.

use std::collections::BTreeMap;

use mpsync_objects::seq::{kv_dispatch, kv_ops, KvMap};
use mpsync_runtime::{Session, ShardDriver, ShardedKvStore};

use crate::ring::slot_for;
use crate::Slot;

/// Keyed object state addressable by slot. `apply` must be deterministic —
/// primary and backup apply the same records and must converge — and every
/// key of `slot` must satisfy `slot_for(key) == slot` (callers route before
/// applying).
pub trait SlotStore {
    /// Applies one operation and returns its result word.
    fn apply(&mut self, slot: Slot, key: u64, op: u8, arg: u64) -> u64;

    /// Snapshot of every `(key, value)` pair currently in `slot`.
    fn export(&mut self, slot: Slot) -> Vec<(u64, u64)>;

    /// Loads pairs into `slot` (over whatever is there; callers
    /// [`discard`](SlotStore::discard) first for a clean import).
    fn import(&mut self, slot: Slot, entries: &[(u64, u64)]);

    /// Drops all of `slot`'s state (demotion discards possibly-diverged
    /// copies before resync).
    fn discard(&mut self, slot: Slot);
}

/// In-memory [`SlotStore`]: one ordered map per slot, dispatching through
/// the same [`kv_dispatch`] body the runtime executes — so simulator
/// results are bit-compatible with runtime results.
#[derive(Debug, Clone)]
pub struct ModelStore {
    maps: Vec<KvMap>,
}

impl ModelStore {
    /// A store covering `slots` slots, all empty.
    pub fn new(slots: u16) -> Self {
        Self {
            maps: vec![KvMap::new(); slots as usize],
        }
    }

    /// Direct read access (assertion helpers in tests).
    pub fn map(&self, slot: Slot) -> &BTreeMap<u64, u64> {
        &self.maps[slot as usize]
    }

    /// All `(key, value)` pairs across every slot, ascending by key.
    pub fn all_entries(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .maps
            .iter()
            .flat_map(|m| m.iter().map(|(&k, &v)| (k, v)))
            .collect();
        out.sort_unstable();
        out
    }
}

impl SlotStore for ModelStore {
    fn apply(&mut self, slot: Slot, key: u64, op: u8, arg: u64) -> u64 {
        kv_dispatch(&mut self.maps[slot as usize], key, op as u64, arg)
    }

    fn export(&mut self, slot: Slot) -> Vec<(u64, u64)> {
        self.maps[slot as usize]
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    fn import(&mut self, slot: Slot, entries: &[(u64, u64)]) {
        let map = &mut self.maps[slot as usize];
        for &(k, v) in entries {
            map.insert(k, v);
        }
    }

    fn discard(&mut self, slot: Slot) {
        self.maps[slot as usize].clear();
    }
}

/// [`SlotStore`] over the real sharded delegation runtime: every apply is
/// an ordinary keyed submit (delegated to the key's shard executor, which
/// the calling thread drives — see the module docs), and export filters the
/// runtime's `SCAN`-cursor snapshot down to one slot.
pub struct RuntimeStore {
    store: ShardedKvStore,
    session: Session,
    /// Every shard's executor (none for a backend that runs its critical
    /// sections on the submitting thread anyway).
    drivers: Vec<ShardDriver>,
    slots: u16,
}

/// The idle hook of every wait on the store: serve whatever is queued, on
/// every shard (the awaited reply may sit behind any of them).
fn tick_all(drivers: &mut [ShardDriver]) {
    for driver in drivers {
        driver.tick();
    }
}

impl RuntimeStore {
    /// Wraps `store`, serving a keyspace of `slots` slots, and takes over
    /// serving it: an MP-SERVER store's serving threads are stopped and its
    /// shards driven from inside each call. The store needs a session for
    /// this wrapper and one more for the duration of an export or import.
    ///
    /// # Panics
    ///
    /// Panics if the store cannot open a session (runtime closed or at its
    /// session cap).
    pub fn new(mut store: ShardedKvStore, slots: u16) -> Self {
        store.drive_externally();
        let drivers = (0..store.shards())
            .filter_map(|shard| store.take_driver(shard))
            .collect();
        let session = store.raw_session().expect("runtime store session");
        Self {
            store,
            session,
            drivers,
            slots,
        }
    }

    /// The wrapped store (e.g. for shutdown at process exit).
    pub fn into_inner(self) -> ShardedKvStore {
        drop(self.session);
        // Shutdown waits for every shard's state to come back, which is
        // what dropping a driver does.
        drop(self.drivers);
        self.store
    }

    /// The runtime's per-shard stats as JSON (the cluster admin snapshot's
    /// `runtime` section — same shape the single-node server reports).
    pub fn runtime_stats_json(&self) -> String {
        self.store.stats().to_json()
    }
}

impl SlotStore for RuntimeStore {
    fn apply(&mut self, slot: Slot, key: u64, op: u8, arg: u64) -> u64 {
        debug_assert_eq!(slot_for(key, self.slots), slot, "misrouted key");
        self.session
            .submit_with(key, op as u64, arg, || tick_all(&mut self.drivers))
            .expect("runtime closed under RuntimeStore")
    }

    fn export(&mut self, slot: Slot) -> Vec<(u64, u64)> {
        self.store
            .export_entries_with(|| tick_all(&mut self.drivers))
            .expect("runtime closed under RuntimeStore")
            .into_iter()
            .filter(|&(k, _)| slot_for(k, self.slots) == slot)
            .collect()
    }

    fn import(&mut self, slot: Slot, entries: &[(u64, u64)]) {
        debug_assert!(entries
            .iter()
            .all(|&(k, _)| slot_for(k, self.slots) == slot));
        self.store
            .import_entries_with(entries, || tick_all(&mut self.drivers))
            .expect("runtime closed under RuntimeStore");
    }

    fn discard(&mut self, slot: Slot) {
        for (key, _) in self.export(slot) {
            self.apply(slot, key, kv_ops::DEL as u8, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsync_objects::EMPTY;
    use mpsync_runtime::RuntimeConfig;

    #[test]
    fn model_store_roundtrips_per_slot() {
        let mut s = ModelStore::new(4);
        let slot = slot_for(10, 4);
        assert_eq!(s.apply(slot, 10, kv_ops::PUT as u8, 99), EMPTY);
        assert_eq!(s.apply(slot, 10, kv_ops::GET as u8, 0), 99);
        assert_eq!(s.export(slot), vec![(10, 99)]);
        s.discard(slot);
        assert_eq!(s.apply(slot, 10, kv_ops::GET as u8, 0), EMPTY);
        s.import(slot, &[(10, 5)]);
        assert_eq!(s.apply(slot, 10, kv_ops::GET as u8, 0), 5);
    }

    /// Fails — instead of hanging the suite — when `f` is still running
    /// after ten seconds: a call into a driven store that nobody serves
    /// waits forever.
    fn watchdog(f: impl FnOnce() + Send + 'static) {
        let worker = std::thread::spawn(f);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !worker.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "a RuntimeStore call is waiting for a server that does not exist"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        if let Err(panic) = worker.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// Two shards, one caller: every route into the store — `apply` on
    /// either shard, `import`, and the walks of `export` and `discard` over
    /// both — is served by the calling thread's ticks, and agrees with the
    /// model.
    #[test]
    fn runtime_store_matches_model_store() {
        watchdog(|| {
            let slots = 8u16;
            let mut model = ModelStore::new(slots);
            let mut real = RuntimeStore::new(
                ShardedKvStore::new(RuntimeConfig::new(2).with_max_sessions(4)),
                slots,
            );
            assert_eq!(real.store.stats().server_threads, 0, "the caller serves");
            assert_eq!(real.drivers.len(), 2);
            let keys = [1u64, 2, 3, 100, 7777];
            for (i, &k) in keys.iter().enumerate() {
                let slot = slot_for(k, slots);
                let ops: [(u8, u64); 3] = [
                    (kv_ops::PUT as u8, 10 + i as u64),
                    (kv_ops::ADD as u8, 5),
                    (kv_ops::GET as u8, 0),
                ];
                for (op, arg) in ops {
                    assert_eq!(
                        model.apply(slot, k, op, arg),
                        real.apply(slot, k, op, arg),
                        "key {k} op {op}"
                    );
                }
            }
            for slot in 0..slots {
                assert_eq!(model.export(slot), real.export(slot), "slot {slot}");
            }
            // Discard one slot on both; they stay in agreement.
            let victim = slot_for(keys[0], slots);
            model.discard(victim);
            real.discard(victim);
            for slot in 0..slots {
                assert_eq!(model.export(slot), real.export(slot));
            }
            // A handoff's worth: import a slot, read it back, drop it again
            // (a slot's keys share a shard; each export scans both).
            let moved: Vec<(u64, u64)> = (0..2000u64)
                .filter(|&k| slot_for(k, slots) == victim)
                .map(|k| (k, k * 3 + 1))
                .collect();
            assert!(moved.len() > 100);
            for store in [&mut model as &mut dyn SlotStore, &mut real] {
                store.import(victim, &moved);
            }
            assert_eq!(real.export(victim), moved);
            assert_eq!(model.export(victim), moved);
            real.discard(victim);
            assert_eq!(real.export(victim), vec![]);
            // The drivers go before the store comes out, or this waits.
            let (map, _) = real.into_inner().shutdown();
            assert_eq!(map.len(), keys.len() - 1);
        });
    }
}
