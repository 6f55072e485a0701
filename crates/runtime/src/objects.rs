//! Ready-made sharded objects on top of the runtime: a keyed counter
//! service and a key-value store.

use std::collections::HashMap;

use mpsync_objects::seq::{
    keyed_counter_dispatch, keyed_counter_ops, kv_dispatch, kv_ops, KeyedCounters, KvMap,
};
use mpsync_objects::{Counter, EMPTY};

use crate::runtime::{Runtime, Session, ShutdownReport};
use crate::stats::RuntimeStats;
use crate::{RuntimeConfig, RuntimeError, ShardDriver};

type KeyedCounterFn = fn(&mut KeyedCounters, u64, u64, u64) -> u64;
type KvFn = fn(&mut KvMap, u64, u64, u64) -> u64;

/// Live state drain/load for a sharded service, in the service's own typed
/// entry shape.
///
/// The cluster handoff path (and any other migration machinery) moves a
/// service's contents while it keeps serving. The original implementation
/// was hardcoded to [`ShardedKvStore`]'s `(u64, u64)` pairs; this trait
/// generalizes it so richer objects — the `mpsync-apps` suite's session
/// store, ledger, etc. — drain through the same protocol with their own
/// `Entry` types.
///
/// Implementations must issue the walk through ordinary sessions so the
/// export serializes against concurrent traffic under each shard's mutual
/// exclusion: the result is per-key linearizable, not a global cut.
pub trait StateExport {
    /// One exported record.
    type Entry: Clone + Send + 'static;

    /// Snapshots every live entry while the service keeps serving.
    fn export_entries(&self) -> Result<Vec<Self::Entry>, RuntimeError>;

    /// Loads entries through ordinary writes (last write wins against
    /// concurrent traffic).
    fn import_entries(&self, entries: &[Self::Entry]) -> Result<(), RuntimeError>;
}

/// A sharded family of named `u64` counters: the runtime serving
/// [`keyed_counter_dispatch`], one `KeyedCounters` map per shard.
pub struct ShardedCounter {
    runtime: Runtime<KeyedCounters, KeyedCounterFn>,
}

impl ShardedCounter {
    /// Builds the counter service.
    pub fn new(config: RuntimeConfig) -> Self {
        Self {
            runtime: Runtime::new(config, |_| KeyedCounters::new(), keyed_counter_dispatch),
        }
    }

    /// Opens a client session.
    pub fn session(&self) -> Result<CounterSession, RuntimeError> {
        Ok(CounterSession {
            inner: self.runtime.session()?,
        })
    }

    /// Opens an untyped [`Session`] speaking raw `(key, op, arg)` words —
    /// the form wire-facing frontends (`mpsync-net`) forward verbatim.
    pub fn raw_session(&self) -> Result<Session, RuntimeError> {
        self.runtime.session()
    }

    /// Counter snapshot (delegates to [`Runtime::stats`]).
    pub fn stats(&self) -> RuntimeStats {
        self.runtime.stats()
    }

    /// Number of delegation shards.
    pub fn shards(&self) -> usize {
        self.runtime.config().shards
    }

    /// The shard that owns `key` (delegates to [`Runtime::shard_of`]).
    pub fn shard_of(&self, key: u64) -> usize {
        self.runtime.shard_of(key)
    }

    /// Completed backend switches on `shard` — always 0 for fixed
    /// backends (delegates to [`Runtime::swap_epoch`]).
    pub fn swap_epoch(&self, shard: usize) -> u64 {
        self.runtime.swap_epoch(shard)
    }

    /// Stops admissions (delegates to [`Runtime::close`]).
    pub fn close(&self) {
        self.runtime.close();
    }

    /// Shuts down and returns every counter's final value, merged across
    /// shards, plus the stats snapshot.
    pub fn shutdown(self) -> (HashMap<u64, u64>, RuntimeStats) {
        let ShutdownReport { states, stats } = self.runtime.shutdown();
        let mut merged = HashMap::new();
        for shard in states {
            merged.extend(shard);
        }
        (merged, stats)
    }
}

/// A client session of a [`ShardedCounter`].
pub struct CounterSession {
    inner: Session,
}

impl CounterSession {
    /// Fetch-and-increments `key`'s counter; returns the previous value.
    pub fn fetch_inc(&mut self, key: u64) -> Result<u64, RuntimeError> {
        self.inner.submit(key, keyed_counter_ops::INC, 0)
    }

    /// Adds `delta` to `key`'s counter; returns the new value.
    pub fn add(&mut self, key: u64, delta: u64) -> Result<u64, RuntimeError> {
        self.inner.submit(key, keyed_counter_ops::ADD, delta)
    }

    /// Reads `key`'s counter (0 if never touched).
    pub fn get(&mut self, key: u64) -> Result<u64, RuntimeError> {
        self.inner.submit(key, keyed_counter_ops::GET, 0)
    }

    /// Pins the session to one key, yielding a handle that implements the
    /// plain [`Counter`] trait (so lincheck's counter specification and the
    /// generic benches apply unchanged).
    pub fn bind(self, key: u64) -> BoundCounter {
        BoundCounter { session: self, key }
    }
}

/// A [`CounterSession`] pinned to a single key; implements [`Counter`].
pub struct BoundCounter {
    session: CounterSession,
    key: u64,
}

impl BoundCounter {
    /// The key this handle operates on.
    pub fn key(&self) -> u64 {
        self.key
    }
}

impl Counter for BoundCounter {
    fn fetch_inc(&mut self) -> u64 {
        self.session
            .fetch_inc(self.key)
            .expect("runtime closed under a live BoundCounter")
    }
}

/// A sharded `u64 → u64` key-value store: the runtime serving
/// [`kv_dispatch`], one [`KvMap`] per shard.
pub struct ShardedKvStore {
    runtime: Runtime<KvMap, KvFn>,
}

impl ShardedKvStore {
    /// Builds the store.
    pub fn new(config: RuntimeConfig) -> Self {
        Self {
            runtime: Runtime::new(config, |_| KvMap::new(), kv_dispatch),
        }
    }

    /// Opens a client session.
    pub fn session(&self) -> Result<KvSession, RuntimeError> {
        Ok(KvSession {
            inner: self.runtime.session()?,
        })
    }

    /// Opens an untyped [`Session`] speaking raw `(key, op, arg)` words —
    /// the form wire-facing frontends (`mpsync-net`) forward verbatim.
    pub fn raw_session(&self) -> Result<Session, RuntimeError> {
        self.runtime.session()
    }

    /// Counter snapshot (delegates to [`Runtime::stats`]).
    pub fn stats(&self) -> RuntimeStats {
        self.runtime.stats()
    }

    /// Number of delegation shards.
    pub fn shards(&self) -> usize {
        self.runtime.config().shards
    }

    /// The shard that owns `key` (delegates to [`Runtime::shard_of`]).
    pub fn shard_of(&self, key: u64) -> usize {
        self.runtime.shard_of(key)
    }

    /// Takes `shard`'s executor once [`ShardedKvStore::drive_externally`]
    /// has parked it (delegates to [`Runtime::take_driver`]).
    pub fn take_driver(&self, shard: usize) -> Option<ShardDriver> {
        self.runtime.take_driver(shard)
    }

    /// Completed backend switches on `shard` — always 0 for fixed
    /// backends (delegates to [`Runtime::swap_epoch`]).
    pub fn swap_epoch(&self, shard: usize) -> u64 {
        self.runtime.swap_epoch(shard)
    }

    /// Stops admissions (delegates to [`Runtime::close`]).
    pub fn close(&self) {
        self.runtime.close();
    }

    /// Shuts down and returns the whole map, merged across shards, plus the
    /// stats snapshot.
    pub fn shutdown(self) -> (HashMap<u64, u64>, RuntimeStats) {
        let ShutdownReport { states, stats } = self.runtime.shutdown();
        let mut merged = HashMap::new();
        for shard in states {
            merged.extend(shard);
        }
        (merged, stats)
    }

    /// Stops the store's serving threads and parks its shards as untaken
    /// drivers (delegates to [`Runtime::drive_externally`]): afterwards
    /// whoever holds the drivers serves the store, and every call into it
    /// must tick them while it waits — [`Session::submit_with`] and the
    /// `_with` forms below.
    pub fn drive_externally(&mut self) {
        self.runtime.drive_externally();
    }

    /// Snapshots every `(key, value)` pair in the store **while it keeps
    /// serving**: a cursor walk (per-shard [`kv_ops::SCAN`] + `GET`) issued
    /// through an ordinary session, so it serializes against concurrent
    /// traffic under each shard's mutual exclusion instead of requiring
    /// shutdown. This is the state-export path cluster handoff uses.
    ///
    /// Entries come out grouped by shard, ascending by key within a shard.
    /// Concurrent writers may land before or after the cursor passes their
    /// key — the snapshot is per-key linearizable, not a global cut.
    pub fn export_entries(&self) -> Result<Vec<(u64, u64)>, RuntimeError> {
        self.export_entries_with(|| {})
    }

    /// [`ShardedKvStore::export_entries`] with an `idle` hook invoked on
    /// every wait iteration, as [`Session::submit_with`] has one: the walk
    /// opens a session of its own, so on an externally driven store the
    /// caller that holds the drivers must tick them from here or the first
    /// request waits forever.
    pub fn export_entries_with(
        &self,
        mut idle: impl FnMut(),
    ) -> Result<Vec<(u64, u64)>, RuntimeError> {
        let mut s = self.runtime.session()?;
        let shards = self.shards();
        let mut out = Vec::new();
        for shard in 0..shards {
            let probe = crate::probe_key(shard, shards);
            let mut cursor = 0u64;
            loop {
                let key = s.submit_with(probe, kv_ops::SCAN, cursor, &mut idle)?;
                if key == EMPTY {
                    break;
                }
                let val = s.submit_with(key, kv_ops::GET, 0, &mut idle)?;
                if val != EMPTY {
                    out.push((key, val));
                }
                cursor = key + 1;
            }
        }
        Ok(out)
    }

    /// Loads `(key, value)` pairs through ordinary `PUT`s (the inverse of
    /// [`ShardedKvStore::export_entries`], used when a node imports a
    /// transferred slot). Last write wins against concurrent traffic.
    pub fn import_entries(&self, entries: &[(u64, u64)]) -> Result<(), RuntimeError> {
        self.import_entries_with(entries, || {})
    }

    /// [`ShardedKvStore::import_entries`] with an `idle` hook, for the same
    /// reason [`ShardedKvStore::export_entries_with`] has one.
    pub fn import_entries_with(
        &self,
        entries: &[(u64, u64)],
        mut idle: impl FnMut(),
    ) -> Result<(), RuntimeError> {
        let mut s = self.runtime.session()?;
        for &(key, val) in entries {
            s.submit_with(key, kv_ops::PUT, val, &mut idle)?;
        }
        Ok(())
    }
}

/// The generic drain path for the KV store: same wire walk as the
/// inherent methods (which remain for source compatibility with existing
/// callers — the cluster `RuntimeStore` among them).
impl StateExport for ShardedKvStore {
    type Entry = (u64, u64);

    fn export_entries(&self) -> Result<Vec<(u64, u64)>, RuntimeError> {
        ShardedKvStore::export_entries(self)
    }

    fn import_entries(&self, entries: &[(u64, u64)]) -> Result<(), RuntimeError> {
        ShardedKvStore::import_entries(self, entries)
    }
}

/// A client session of a [`ShardedKvStore`].
pub struct KvSession {
    inner: Session,
}

impl KvSession {
    /// Reads `key`.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, RuntimeError> {
        Ok(decode(self.inner.submit(key, kv_ops::GET, 0)?))
    }

    /// Stores `value` under `key`; returns the previous value.
    pub fn put(&mut self, key: u64, value: u64) -> Result<Option<u64>, RuntimeError> {
        assert_ne!(value, EMPTY, "EMPTY sentinel is not storable");
        Ok(decode(self.inner.submit(key, kv_ops::PUT, value)?))
    }

    /// Removes `key`; returns the removed value.
    pub fn del(&mut self, key: u64) -> Result<Option<u64>, RuntimeError> {
        Ok(decode(self.inner.submit(key, kv_ops::DEL, 0)?))
    }

    /// Adds `delta` to `key`'s value (missing keys start at 0); returns the
    /// new value.
    pub fn add(&mut self, key: u64, delta: u64) -> Result<u64, RuntimeError> {
        self.inner.submit(key, kv_ops::ADD, delta)
    }

    /// Moves `amount` from `from` to `to` via a cross-shard fan-out
    /// (SUB then ADD in deterministic shard order); returns the two new
    /// balances. Not transactional — see [`Session::apply_fanout`].
    pub fn transfer(
        &mut self,
        from: u64,
        to: u64,
        amount: u64,
    ) -> Result<(u64, u64), RuntimeError> {
        let res = self
            .inner
            .apply_fanout(&[(from, kv_ops::SUB, amount), (to, kv_ops::ADD, amount)])?;
        Ok((res[0], res[1]))
    }

    /// Reads many keys in one fan-out; results in input order.
    pub fn multi_get(&mut self, keys: &[u64]) -> Result<Vec<Option<u64>>, RuntimeError> {
        let ops: Vec<(u64, u64, u64)> = keys.iter().map(|&k| (k, kv_ops::GET, 0)).collect();
        Ok(self
            .inner
            .apply_fanout(&ops)?
            .into_iter()
            .map(decode)
            .collect())
    }
}

fn decode(word: u64) -> Option<u64> {
    (word != EMPTY).then_some(word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;

    fn small(backend: Backend) -> RuntimeConfig {
        RuntimeConfig::new(2)
            .with_backend(backend)
            .with_max_sessions(2)
            .with_queue_depth(4)
    }

    #[test]
    fn counter_roundtrip_every_backend() {
        for backend in Backend::ALL {
            let svc = ShardedCounter::new(small(backend));
            let mut s = svc.session().unwrap();
            assert_eq!(s.fetch_inc(5).unwrap(), 0, "{backend:?}");
            assert_eq!(s.fetch_inc(5).unwrap(), 1);
            assert_eq!(s.add(9, 10).unwrap(), 10);
            assert_eq!(s.get(5).unwrap(), 2);
            drop(s);
            let (totals, stats) = svc.shutdown();
            assert_eq!(totals.get(&5), Some(&2), "{backend:?}");
            assert_eq!(totals.get(&9), Some(&10));
            assert_eq!(stats.total_ops(), 4);
        }
    }

    #[test]
    fn kv_store_roundtrip_and_fanout() {
        let store = ShardedKvStore::new(small(Backend::MpServer));
        let mut s = store.session().unwrap();
        assert_eq!(s.get(1).unwrap(), None);
        assert_eq!(s.put(1, 100).unwrap(), None);
        assert_eq!(s.put(2, 50).unwrap(), None);
        assert_eq!(s.transfer(1, 2, 30).unwrap(), (70, 80));
        assert_eq!(
            s.multi_get(&[1, 2, 3]).unwrap(),
            vec![Some(70), Some(80), None]
        );
        assert_eq!(s.del(1).unwrap(), Some(70));
        drop(s);
        let (map, _) = store.shutdown();
        assert_eq!(map.get(&2), Some(&80));
        assert_eq!(map.get(&1), None);
    }

    #[test]
    fn kv_export_import_roundtrip_while_live() {
        let store = ShardedKvStore::new(small(Backend::MpServer));
        let mut s = store.session().unwrap();
        let mut expect = Vec::new();
        for k in [0u64, 1, 2, 3, 100, 1000, 54321] {
            s.put(k, k + 7).unwrap();
            expect.push((k, k + 7));
        }
        let mut exported = store.export_entries().unwrap();
        exported.sort_unstable();
        assert_eq!(exported, expect);

        // Import into a second live store reproduces the contents.
        let copy = ShardedKvStore::new(small(Backend::MpServer));
        copy.import_entries(&exported).unwrap();
        let mut s2 = copy.session().unwrap();
        for &(k, v) in &expect {
            assert_eq!(s2.get(k).unwrap(), Some(v));
        }
        drop(s2);
        drop(s);
        let (map, _) = copy.shutdown();
        assert_eq!(map.len(), expect.len());
    }

    #[test]
    fn state_export_trait_drains_generically() {
        // Handoff-style code written against the trait works for any
        // service with an export shape.
        fn clone_service<T: StateExport>(src: &T, dst: &T) {
            let entries = src.export_entries().unwrap();
            dst.import_entries(&entries).unwrap();
        }
        let a = ShardedKvStore::new(small(Backend::Lock));
        let b = ShardedKvStore::new(small(Backend::Lock));
        let mut s = a.session().unwrap();
        for k in [3u64, 9, 27] {
            s.put(k, k * 2).unwrap();
        }
        clone_service(&a, &b);
        let mut s2 = b.session().unwrap();
        for k in [3u64, 9, 27] {
            assert_eq!(s2.get(k).unwrap(), Some(k * 2));
        }
    }

    #[test]
    fn probe_keys_land_on_their_shard() {
        for shards in [1usize, 2, 3, 4, 8] {
            for shard in 0..shards {
                let k = crate::probe_key(shard, shards);
                assert_eq!(crate::shard_for(k, shards), shard, "{shards} shards");
            }
        }
    }

    #[test]
    fn bound_counter_implements_counter_trait() {
        let svc = ShardedCounter::new(small(Backend::Lock));
        let mut bound = svc.session().unwrap().bind(42);
        for i in 0..5 {
            assert_eq!(Counter::fetch_inc(&mut bound), i);
        }
        assert_eq!(bound.key(), 42);
        drop(bound);
        let (totals, _) = svc.shutdown();
        assert_eq!(totals.get(&42), Some(&5));
    }
}
