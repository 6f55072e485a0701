//! [`AppSuite`]: the five applications packaged over one [`Runtime`], with
//! typed per-application session facets.
//!
//! The suite owns the opcode-mask policy: pure reads (`RL_PEEK`, `LB_GET`,
//! `PQ_PEEK`, `PQ_LEN`, `LG_BALANCE`, `LG_HELD`) ride the read fast path,
//! so it applies to exactly the ops whose contract allows it. `SS_GET` is
//! deliberately *not* fast-pathed — it may retire an expired entry, which
//! is a mutation.

use mpsync_objects::EMPTY;
use mpsync_runtime::{
    probe_key, Backend, OpMask, Runtime, RuntimeConfig, RuntimeError, RuntimeStats, Session,
    StateExport,
};
use mpsync_telemetry as telemetry;
use mpsync_telemetry::Counter;

use crate::pq::{pack_task, unpack_task};
use crate::session::pack_put;
use crate::{app_dispatch, ops, AppConfig, AppFn, AppState};

/// Ops that are pure reads of their key's current state.
fn read_ops() -> OpMask {
    OpMask::of(&[
        ops::RL_PEEK as u8,
        ops::LB_GET as u8,
        ops::PQ_PEEK as u8,
        ops::PQ_LEN as u8,
        ops::LG_BALANCE as u8,
        ops::LG_HELD as u8,
    ])
}

/// The served-application suite: rate limiter, leaderboard, priority
/// queue, TTL session store, and ledger over one sharded runtime.
pub struct AppSuite {
    runtime: Runtime<AppState, AppFn>,
}

impl AppSuite {
    /// Builds the suite on `config`'s backend/shards, with default
    /// application tuning.
    pub fn new(config: RuntimeConfig) -> Self {
        Self::with_app_config(config, AppConfig::default())
    }

    /// Builds the suite with explicit application tuning.
    ///
    /// The runtime's read-fast mask is set by the suite (it encodes
    /// per-opcode contracts); any mask on `config` is replaced.
    pub fn with_app_config(config: RuntimeConfig, app: AppConfig) -> Self {
        let config = config.with_read_fast(read_ops());
        let runtime = Runtime::new_expiring(
            config,
            move |shard| AppState::new(shard, app),
            app_dispatch as AppFn,
        );
        Self { runtime }
    }

    /// Opens a typed session.
    pub fn session(&self) -> Result<AppSession, RuntimeError> {
        Ok(AppSession {
            shards: self.runtime.config().shards,
            raw: self.runtime.session()?,
        })
    }

    /// Opens an untyped (opcode-level) session — the wire layer uses this.
    pub fn raw_session(&self) -> Result<Session, RuntimeError> {
        self.runtime.session()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RuntimeStats {
        self.runtime.stats()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.runtime.config().shards
    }

    /// The shard that owns `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        self.runtime.shard_of(key)
    }

    /// Forces an Adaptive shard onto `backend` (no-op on fixed backends).
    pub fn force_backend(&self, shard: usize, backend: Backend) -> bool {
        self.runtime.force_backend(shard, backend)
    }

    /// How many backend switches `shard` has completed.
    pub fn swap_epoch(&self, shard: usize) -> u64 {
        self.runtime.swap_epoch(shard)
    }

    /// Closes admissions.
    pub fn close(&self) {
        self.runtime.close()
    }

    /// Shuts down and reduces the final shard states to audit totals.
    pub fn shutdown(self) -> (AppTotals, RuntimeStats) {
        let report = self.runtime.shutdown();
        let now = mpsync_runtime::mono_ns();
        let mut totals = AppTotals::default();
        for state in &report.states {
            let (avail, held) = state.accounts.totals();
            totals.ledger_available += avail;
            totals.ledger_held += held;
            totals.sessions_live += state.sessions.live(now);
            totals.sessions_resident += state.sessions.resident();
            totals.pq_tasks += state.queues.tasks();
            totals.board_members += state.board.len();
            totals.rate_buckets += state.rate.len();
        }
        (totals, report.stats)
    }
}

/// Cross-shard audit totals from [`AppSuite::shutdown`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AppTotals {
    /// Σ available over every ledger account.
    pub ledger_available: u64,
    /// Σ held over every ledger account (0 if no transfer is in flight).
    pub ledger_held: u64,
    /// Sessions whose TTL has not passed at shutdown.
    pub sessions_live: usize,
    /// Session entries physically resident at shutdown (live plus expired
    /// entries no sweep has retired yet).
    pub sessions_resident: usize,
    /// Tasks still queued across every priority queue.
    pub pq_tasks: usize,
    /// Leaderboard members.
    pub board_members: usize,
    /// Rate-limiter buckets ever touched.
    pub rate_buckets: usize,
}

/// One exported record from any of the suite's durable objects (priority
/// queues hold in-flight work, not durable state, and are not exported).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppEntry {
    /// A rate-limiter bucket (raw, unclamped token count).
    Bucket {
        /// Bucket key.
        key: u64,
        /// Raw token count.
        tokens: u64,
    },
    /// A leaderboard member.
    Score {
        /// Member key.
        member: u64,
        /// Current score.
        score: u64,
    },
    /// A live session.
    Session {
        /// Session key.
        key: u64,
        /// Stored value.
        value: u64,
        /// Remaining TTL in ms at export time (0 = immortal); re-armed as
        /// a fresh TTL on import.
        ttl_ms: u64,
    },
    /// A ledger account.
    Account {
        /// Account key.
        key: u64,
        /// Available funds.
        available: u64,
        /// Held funds (re-created as a hold on import).
        held: u64,
    },
}

/// Walks one shard's keyspace for one app band: `scan_op` yields the next
/// key at-or-after the cursor, `read` turns a key into an entry (returning
/// `None` to skip keys that vanished between scan and read).
fn drain_band(
    s: &mut Session,
    probe: u64,
    scan_op: u64,
    out: &mut Vec<AppEntry>,
    mut read: impl FnMut(&mut Session, u64) -> Result<Option<AppEntry>, RuntimeError>,
) -> Result<(), RuntimeError> {
    let mut cursor = 0u64;
    loop {
        let key = s.submit(probe, scan_op, cursor)?;
        if key == EMPTY {
            return Ok(());
        }
        if let Some(entry) = read(s, key)? {
            out.push(entry);
        }
        cursor = key + 1;
    }
}

impl StateExport for AppSuite {
    type Entry = AppEntry;

    /// Snapshots every durable entry (buckets, scores, live sessions,
    /// accounts) while the suite keeps serving. Per-key linearizable, not
    /// a global cut — the same contract as the KV store's export.
    fn export_entries(&self) -> Result<Vec<AppEntry>, RuntimeError> {
        let mut s = self.runtime.session()?;
        let shards = self.runtime.config().shards;
        let mut out = Vec::new();
        for shard in 0..shards {
            let probe = probe_key(shard, shards);
            drain_band(&mut s, probe, ops::RL_SCAN, &mut out, |s, key| {
                Ok(match s.submit(key, ops::RL_TOKENS, 0)? {
                    EMPTY => None,
                    tokens => Some(AppEntry::Bucket { key, tokens }),
                })
            })?;
            drain_band(&mut s, probe, ops::LB_SCAN, &mut out, |s, member| {
                Ok(match s.submit(member, ops::LB_GET, 0)? {
                    EMPTY => None,
                    score => Some(AppEntry::Score { member, score }),
                })
            })?;
            drain_band(&mut s, probe, ops::SS_SCAN, &mut out, |s, key| {
                let value = s.submit(key, ops::SS_GET, 0)?;
                if value == EMPTY {
                    return Ok(None);
                }
                Ok(match s.submit(key, ops::SS_TTL, 0)? {
                    EMPTY => None, // expired between the two reads
                    ttl_ms => Some(AppEntry::Session { key, value, ttl_ms }),
                })
            })?;
            drain_band(&mut s, probe, ops::LG_SCAN, &mut out, |s, key| {
                let available = s.submit(key, ops::LG_BALANCE, 0)?;
                let held = s.submit(key, ops::LG_HELD, 0)?;
                Ok(Some(AppEntry::Account {
                    key,
                    available,
                    held,
                }))
            })?;
        }
        Ok(out)
    }

    /// Loads entries through ordinary writes. Buckets, scores, and
    /// sessions are set to the exported value (last write wins); accounts
    /// are *credited* — deposit `available + held`, then re-reserve
    /// `held` — so importing into a fresh suite reproduces the exported
    /// account exactly.
    fn import_entries(&self, entries: &[AppEntry]) -> Result<(), RuntimeError> {
        let mut s = self.runtime.session()?;
        for entry in entries {
            match *entry {
                AppEntry::Bucket { key, tokens } => {
                    s.submit(key, ops::RL_SET, tokens)?;
                }
                AppEntry::Score { member, score } => {
                    s.submit(member, ops::LB_REMOVE, 0)?;
                    s.submit(member, ops::LB_ADD, score)?;
                }
                AppEntry::Session { key, value, ttl_ms } => {
                    s.submit(
                        key,
                        ops::SS_PUT,
                        pack_put(value as u32, ttl_ms.min(u32::MAX as u64) as u32),
                    )?;
                }
                AppEntry::Account {
                    key,
                    available,
                    held,
                } => {
                    s.submit(key, ops::LG_DEPOSIT, available + held)?;
                    if held > 0 {
                        s.submit(key, ops::LG_RESERVE, held)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// A typed client session over the suite. Obtain facets per application;
/// each borrows the session, so operations from one client are totally
/// ordered across all five objects.
pub struct AppSession {
    raw: Session,
    shards: usize,
}

impl AppSession {
    /// Rate-limiter operations.
    pub fn rate(&mut self) -> RateLimiter<'_> {
        RateLimiter(self)
    }

    /// Leaderboard operations.
    pub fn board(&mut self) -> Leaderboard<'_> {
        Leaderboard(self)
    }

    /// Priority-queue operations.
    pub fn queue(&mut self) -> PriorityQueue<'_> {
        PriorityQueue(self)
    }

    /// Session-store operations.
    pub fn store(&mut self) -> SessionStore<'_> {
        SessionStore(self)
    }

    /// Ledger operations.
    pub fn ledger(&mut self) -> Ledger<'_> {
        Ledger(self)
    }

    /// The underlying opcode-level session.
    pub fn raw(&mut self) -> &mut Session {
        &mut self.raw
    }

    fn opt(ret: u64) -> Option<u64> {
        (ret != EMPTY).then_some(ret)
    }
}

/// Token-bucket facet.
pub struct RateLimiter<'a>(&'a mut AppSession);

impl RateLimiter<'_> {
    /// Tries to take `n` tokens from `key`'s bucket.
    pub fn acquire(&mut self, key: u64, n: u64) -> Result<bool, RuntimeError> {
        Ok(self.0.raw.submit(key, ops::RL_ACQUIRE, n)? == 1)
    }

    /// Current tokens in `key`'s bucket, clamped to capacity.
    pub fn peek(&mut self, key: u64) -> Result<u64, RuntimeError> {
        self.0.raw.submit(key, ops::RL_PEEK, 0)
    }

    /// Adds `n` tokens to `key`'s bucket; returns the old raw count.
    pub fn fill(&mut self, key: u64, n: u64) -> Result<u64, RuntimeError> {
        self.0.raw.submit(key, ops::RL_FILL, n)
    }
}

/// Leaderboard facet.
pub struct Leaderboard<'a>(&'a mut AppSession);

impl Leaderboard<'_> {
    /// Adds `delta` to `member`'s score; returns the new score.
    pub fn add(&mut self, member: u64, delta: u64) -> Result<u64, RuntimeError> {
        self.0.raw.submit(member, ops::LB_ADD, delta)
    }

    /// `member`'s score, if ranked.
    pub fn score(&mut self, member: u64) -> Result<Option<u64>, RuntimeError> {
        Ok(AppSession::opt(self.0.raw.submit(
            member,
            ops::LB_GET,
            0,
        )?))
    }

    /// Removes `member`; returns their final score.
    pub fn remove(&mut self, member: u64) -> Result<Option<u64>, RuntimeError> {
        Ok(AppSession::opt(self.0.raw.submit(
            member,
            ops::LB_REMOVE,
            0,
        )?))
    }

    /// Global top-`k` as `(member, score)`, highest first: takes each
    /// shard's local top-`k` over the wire, then merges client-side.
    /// Concurrent writers may reorder entries mid-walk (same per-key
    /// contract as every sharded read).
    pub fn top_k(&mut self, k: usize) -> Result<Vec<(u64, u64)>, RuntimeError> {
        let mut merged = Vec::new();
        for shard in 0..self.0.shards {
            let probe = probe_key(shard, self.0.shards);
            for rank in 0..k as u64 {
                let member = self.0.raw.submit(probe, ops::LB_NTH, rank)?;
                if member == EMPTY {
                    break;
                }
                if let Some(score) = AppSession::opt(self.0.raw.submit(member, ops::LB_GET, 0)?) {
                    merged.push((member, score));
                }
            }
        }
        merged
            .sort_by_key(|&(member, score)| (std::cmp::Reverse(score), std::cmp::Reverse(member)));
        merged.dedup();
        merged.truncate(k);
        Ok(merged)
    }

    /// How many members score at least `score`, summed over all shards.
    pub fn count_ge(&mut self, score: u64) -> Result<u64, RuntimeError> {
        let mut total = 0;
        for shard in 0..self.0.shards {
            let probe = probe_key(shard, self.0.shards);
            total += self.0.raw.submit(probe, ops::LB_COUNT_GE, score)?;
        }
        Ok(total)
    }
}

/// Priority-queue facet. Tasks are `(priority, item)` pairs; lower
/// priority value is served first, FIFO within a priority.
pub struct PriorityQueue<'a>(&'a mut AppSession);

impl PriorityQueue<'_> {
    /// Enqueues a task; returns the queue's new length.
    pub fn push(&mut self, queue: u64, priority: u32, item: u32) -> Result<u64, RuntimeError> {
        self.0
            .raw
            .submit(queue, ops::PQ_PUSH, pack_task(priority, item))
    }

    /// Pops the minimum-priority task.
    pub fn pop(&mut self, queue: u64) -> Result<Option<(u32, u32)>, RuntimeError> {
        Ok(AppSession::opt(self.0.raw.submit(queue, ops::PQ_POP, 0)?).map(unpack_task))
    }

    /// Pops up to `n` tasks back-to-back. The pops are issued as one burst
    /// against a single shard, the shape the combining backends fold into
    /// one critical-section pass.
    pub fn pop_n(&mut self, queue: u64, n: usize) -> Result<Vec<(u32, u32)>, RuntimeError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.pop(queue)? {
                Some(task) => out.push(task),
                None => break,
            }
        }
        Ok(out)
    }

    /// The minimum-priority task without removing it.
    pub fn peek(&mut self, queue: u64) -> Result<Option<(u32, u32)>, RuntimeError> {
        Ok(AppSession::opt(self.0.raw.submit(queue, ops::PQ_PEEK, 0)?).map(unpack_task))
    }

    /// Tasks currently queued.
    pub fn len(&mut self, queue: u64) -> Result<u64, RuntimeError> {
        self.0.raw.submit(queue, ops::PQ_LEN, 0)
    }
}

/// Session-store facet.
pub struct SessionStore<'a>(&'a mut AppSession);

impl SessionStore<'_> {
    /// Stores `value` under `key` with `ttl_ms` (0 = never expires);
    /// returns the replaced value.
    pub fn put(&mut self, key: u64, value: u32, ttl_ms: u32) -> Result<Option<u64>, RuntimeError> {
        Ok(AppSession::opt(self.0.raw.submit(
            key,
            ops::SS_PUT,
            pack_put(value, ttl_ms),
        )?))
    }

    /// Reads `key` if present and unexpired.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, RuntimeError> {
        Ok(AppSession::opt(self.0.raw.submit(key, ops::SS_GET, 0)?))
    }

    /// Deletes `key`; returns the removed value.
    pub fn del(&mut self, key: u64) -> Result<Option<u64>, RuntimeError> {
        Ok(AppSession::opt(self.0.raw.submit(key, ops::SS_DEL, 0)?))
    }

    /// Remaining TTL in ms (`Some(0)` = immortal), if the session is live.
    pub fn ttl_ms(&mut self, key: u64) -> Result<Option<u64>, RuntimeError> {
        Ok(AppSession::opt(self.0.raw.submit(key, ops::SS_TTL, 0)?))
    }

    /// Re-arms `key` with a fresh TTL; returns whether it was live.
    pub fn touch(&mut self, key: u64, ttl_ms: u32) -> Result<bool, RuntimeError> {
        Ok(self.0.raw.submit(key, ops::SS_TOUCH, ttl_ms as u64)? == 1)
    }
}

/// Ledger facet.
pub struct Ledger<'a>(&'a mut AppSession);

impl Ledger<'_> {
    /// Credits `key` with `amount`; returns the new available balance.
    pub fn deposit(&mut self, key: u64, amount: u64) -> Result<u64, RuntimeError> {
        self.0.raw.submit(key, ops::LG_DEPOSIT, amount)
    }

    /// `key`'s available balance.
    pub fn balance(&mut self, key: u64) -> Result<u64, RuntimeError> {
        self.0.raw.submit(key, ops::LG_BALANCE, 0)
    }

    /// `key`'s held amount.
    pub fn held(&mut self, key: u64) -> Result<u64, RuntimeError> {
        self.0.raw.submit(key, ops::LG_HELD, 0)
    }

    /// Moves `amount` from `from` to `to` atomically-in-effect: see
    /// [`transfer_multi`](Self::transfer_multi).
    pub fn transfer(&mut self, from: u64, to: u64, amount: u64) -> Result<bool, RuntimeError> {
        self.transfer_multi(&[(from, amount)], &[(to, amount)])
    }

    /// Two-phase multi-key transfer: reserves every debit in ascending
    /// `(shard, key)` order, then commits the holds and deposits the
    /// credits — or releases everything reserved on the first refusal and
    /// reports `false`. Money is conserved at every step: a concurrent
    /// reader may see a debit reserved before its credit lands, but never
    /// a created or destroyed unit.
    ///
    /// If the runtime closes mid-protocol the error is returned as-is and
    /// a reservation may be left held; shutdown totals still conserve
    /// (`available + held` is invariant).
    pub fn transfer_multi(
        &mut self,
        debits: &[(u64, u64)],
        credits: &[(u64, u64)],
    ) -> Result<bool, RuntimeError> {
        let mut order: Vec<usize> = (0..debits.len()).collect();
        let shards = self.0.shards;
        order.sort_by_key(|&i| {
            (
                mpsync_runtime::shard_for(debits[i].0, shards),
                debits[i].0,
                i,
            )
        });
        let mut reserved: Vec<(u64, u64)> = Vec::with_capacity(debits.len());
        for &i in &order {
            let (key, amount) = debits[i];
            if self.0.raw.submit(key, ops::LG_RESERVE, amount)? == 1 {
                reserved.push((key, amount));
            } else {
                for &(key, amount) in reserved.iter().rev() {
                    let ok = self.0.raw.submit(key, ops::LG_RELEASE, amount)?;
                    debug_assert_eq!(ok, 1, "a hold we placed must release");
                }
                telemetry::count(Counter::AppTxnAborts, 1);
                return Ok(false);
            }
        }
        for &(key, amount) in &reserved {
            let ok = self.0.raw.submit(key, ops::LG_COMMIT, amount)?;
            debug_assert_eq!(ok, 1, "a hold we placed must commit");
        }
        for &(key, amount) in credits {
            self.0.raw.submit(key, ops::LG_DEPOSIT, amount)?;
        }
        telemetry::count(Counter::AppTxnCommits, 1);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn suite(backend: Backend) -> AppSuite {
        AppSuite::new(RuntimeConfig::new(2).with_backend(backend))
    }

    #[test]
    fn facets_roundtrip_on_every_fixed_backend() {
        for &backend in &Backend::ALL {
            let svc = suite(backend);
            let mut s = svc.session().unwrap();
            assert!(s.rate().acquire(1, 10).unwrap());
            assert_eq!(s.rate().peek(1).unwrap(), 54);
            s.board().add(5, 30).unwrap();
            s.board().add(6, 10).unwrap();
            assert_eq!(s.board().score(5).unwrap(), Some(30));
            s.queue().push(9, 2, 200).unwrap();
            s.queue().push(9, 1, 100).unwrap();
            assert_eq!(s.queue().pop(9).unwrap(), Some((1, 100)));
            assert_eq!(s.store().put(3, 77, 0).unwrap(), None);
            assert_eq!(s.store().get(3).unwrap(), Some(77));
            s.ledger().deposit(8, 100).unwrap();
            assert!(s.ledger().transfer(8, 4, 40).unwrap());
            assert_eq!(s.ledger().balance(4).unwrap(), 40);
            assert!(!s.ledger().transfer(8, 4, 1000).unwrap(), "insufficient");
            drop(s);
            let (totals, _) = svc.shutdown();
            assert_eq!(totals.ledger_available, 100, "{backend:?}: conserved");
            assert_eq!(totals.ledger_held, 0, "{backend:?}: no stuck holds");
            assert_eq!(totals.sessions_live, 1, "{backend:?}");
            assert_eq!(totals.pq_tasks, 1, "{backend:?}");
            assert_eq!(totals.board_members, 2, "{backend:?}");
        }
    }

    #[test]
    fn ttl_session_expires_on_idle_mp_server() {
        let svc = suite(Backend::MpServer);
        let mut s = svc.session().unwrap();
        s.store().put(1, 42, 30).unwrap();
        s.store().put(2, 43, 0).unwrap();
        assert_eq!(s.store().get(1).unwrap(), Some(42));
        drop(s);
        // No traffic at all while the TTL elapses: the idle shard loop's
        // timer-bounded wait must run the sweep on its own — no read ever
        // touches key 1 again, so lazy expiry cannot be what retires it.
        std::thread::sleep(Duration::from_millis(200));
        let (totals, _) = svc.shutdown();
        assert_eq!(totals.sessions_live, 1);
        assert_eq!(
            totals.sessions_resident, 1,
            "idle sweep retired the TTL entry"
        );
    }

    #[test]
    fn ttl_session_never_served_on_inline_backend() {
        // Lock has no serving thread: expiry must come from the lazy
        // deadline check on the read itself.
        let svc = suite(Backend::Lock);
        let mut s = svc.session().unwrap();
        s.store().put(1, 42, 20).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(s.store().get(1).unwrap(), None, "lazy expiry on read");
        assert_eq!(s.store().ttl_ms(2).unwrap(), None, "absent");
    }

    #[test]
    fn timer_refill_tops_buckets_up() {
        let app = AppConfig {
            bucket_capacity: 10,
            refill_interval_ms: 20,
            refill_amount: 10,
            timer_tick_us: 1_000,
        };
        let svc =
            AppSuite::with_app_config(RuntimeConfig::new(1).with_backend(Backend::MpServer), app);
        let mut s = svc.session().unwrap();
        assert!(s.rate().acquire(1, 10).unwrap());
        assert!(!s.rate().acquire(1, 1).unwrap(), "drained");
        std::thread::sleep(Duration::from_millis(120));
        assert!(s.rate().acquire(1, 10).unwrap(), "refilled while idle");
    }

    #[test]
    fn top_k_merges_across_shards() {
        let svc = suite(Backend::Comb);
        let mut s = svc.session().unwrap();
        for member in 0..20u64 {
            s.board().add(member, member * 10).unwrap();
        }
        let top = s.board().top_k(3).unwrap();
        assert_eq!(top, vec![(19, 190), (18, 180), (17, 170)]);
        assert_eq!(s.board().count_ge(170).unwrap(), 3);
        assert_eq!(s.board().count_ge(0).unwrap(), 20);
    }

    #[test]
    fn multi_key_transfer_sorts_debits_and_aborts_clean() {
        let svc = suite(Backend::Comb);
        let mut s = svc.session().unwrap();
        for key in [1u64, 2, 3] {
            s.ledger().deposit(key, 100).unwrap();
        }
        let mut l = s.ledger();
        assert!(l.transfer_multi(&[(3, 50), (1, 50)], &[(7, 100)]).unwrap());
        assert_eq!(l.balance(7).unwrap(), 100);
        // Second debit refuses: the first must be released.
        assert!(!l.transfer_multi(&[(2, 50), (3, 60)], &[(7, 110)]).unwrap());
        assert_eq!(l.balance(2).unwrap(), 100);
        assert_eq!(l.held(2).unwrap(), 0, "abort released the hold");
        drop(s);
        let (totals, _) = svc.shutdown();
        assert_eq!(totals.ledger_available, 300);
        assert_eq!(totals.ledger_held, 0);
    }

    #[test]
    fn export_import_roundtrips_every_durable_object() {
        let src = suite(Backend::Lock);
        let mut s = src.session().unwrap();
        s.rate().acquire(1, 4).unwrap();
        s.board().add(5, 30).unwrap();
        s.board().add(6, 10).unwrap();
        s.store().put(3, 77, 0).unwrap();
        s.store().put(4, 88, 60_000).unwrap();
        s.ledger().deposit(8, 100).unwrap();
        s.raw().submit(8, ops::LG_RESERVE, 25).unwrap();
        s.queue().push(9, 1, 1).unwrap(); // not exported
        drop(s);

        let entries = src.export_entries().unwrap();
        let dst = suite(Backend::MpServer);
        dst.import_entries(&entries).unwrap();

        let mut d = dst.session().unwrap();
        assert_eq!(d.rate().peek(1).unwrap(), 60);
        assert_eq!(d.board().score(5).unwrap(), Some(30));
        assert_eq!(d.board().top_k(1).unwrap(), vec![(5, 30)]);
        assert_eq!(d.store().get(3).unwrap(), Some(77));
        assert_eq!(d.store().get(4).unwrap(), Some(88));
        let ttl = d.store().ttl_ms(4).unwrap().unwrap();
        assert!(ttl > 0 && ttl <= 60_000, "TTL re-armed, got {ttl}");
        assert_eq!(d.ledger().balance(8).unwrap(), 75);
        assert_eq!(d.ledger().held(8).unwrap(), 25, "hold re-created");
        assert_eq!(d.queue().len(9).unwrap(), 0, "queues are not durable");
        drop(d);
        let (totals, _) = dst.shutdown();
        assert_eq!(totals.ledger_available + totals.ledger_held, 100);
    }

    #[test]
    fn adaptive_suite_survives_forced_switches() {
        let svc = AppSuite::new(RuntimeConfig::new(1).with_backend(Backend::Adaptive));
        let mut s = svc.session().unwrap();
        for (round, &backend) in [Backend::Lock, Backend::MpServer, Backend::Comb]
            .iter()
            .enumerate()
        {
            svc.force_backend(0, backend);
            s.store().put(1, round as u32, 0).unwrap();
            assert_eq!(s.store().get(1).unwrap(), Some(round as u64));
            s.ledger().deposit(2, 10).unwrap();
        }
        assert_eq!(s.ledger().balance(2).unwrap(), 30);
        drop(s);
        let (totals, _) = svc.shutdown();
        assert_eq!(totals.ledger_available, 30);
    }
}
