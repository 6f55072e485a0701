//! A served-application suite over the mpsync runtime.
//!
//! Five typed application objects share one [`Runtime`](mpsync_runtime::Runtime), one opcode space,
//! and one per-shard [`TimerWheel`] — each object exercising a different
//! combining shape of the PPoPP'14 executors:
//!
//! * [`ratelimit`] — sharded token buckets: a read-mostly admission check
//!   (`RL_PEEK` rides the read fast path) plus a refill;
//! * [`leaderboard`] — an ordered score index per shard; top-K and
//!   rank-count reads walk every shard over the wire and merge client-side;
//! * [`pq`] — a matchmaking priority queue: pop-min under combining, with
//!   batched multi-pop amortizing one delegation round over many tasks;
//! * [`session`] — a TTL session store driven by the per-shard timer wheel:
//!   expiry runs inside the shard's critical section (every backend sweeps
//!   before a mutating op; MP-SERVER shards also sweep while idle), and
//!   reads double-check deadlines so an expired session is never served;
//! * [`ledger`] — multi-key transactions: a two-phase reserve/commit apply
//!   in deterministic `(shard, key)` order, conserving the total balance.
//!
//! [`suite::AppSuite`] packages all five behind typed session facets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mpsync_runtime::{Expire, Expired, TimerWheel};
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Counter, FlightKind};

pub mod leaderboard;
pub mod ledger;
pub mod pq;
pub mod ratelimit;
pub mod session;
pub mod suite;

pub use pq::{pack_task, unpack_task};
pub use session::{pack_put, unpack_put};
pub use suite::{
    AppEntry, AppSession, AppSuite, AppTotals, Leaderboard, Ledger, PriorityQueue, RateLimiter,
    SessionStore,
};

/// The suite's opcode map. One flat 8-bit space, banded per application so
/// a single [`Runtime`](mpsync_runtime::Runtime) (and a single wire `max_op` gate) serves all five
/// objects. Gaps between bands are reserved.
pub mod ops {
    /// Take `arg` tokens from `key`'s bucket (1 granted, 0 denied).
    pub const RL_ACQUIRE: u64 = 0;
    /// Read `key`'s current token count, clamped to capacity (pure read).
    pub const RL_PEEK: u64 = 1;
    /// Add `arg` tokens to `key`'s bucket; returns the *old* raw count.
    pub const RL_FILL: u64 = 2;
    /// Cursor scan: smallest bucket key `>= arg` on the probed shard.
    pub const RL_SCAN: u64 = 3;
    /// Read `key`'s raw (unclamped) token count, or `EMPTY` if untouched.
    pub const RL_TOKENS: u64 = 4;
    /// Set `key`'s raw token count to `arg`; returns the old raw count.
    pub const RL_SET: u64 = 5;

    /// Add `arg` (wrapping) to member `key`'s score; returns the new score.
    pub const LB_ADD: u64 = 8;
    /// Read member `key`'s score, or `EMPTY` (pure read).
    pub const LB_GET: u64 = 9;
    /// Rank read: the member with the `arg`-th highest score on the probed
    /// shard (0-based), or `EMPTY`.
    pub const LB_NTH: u64 = 10;
    /// Count of members on the probed shard with score `>= arg`.
    pub const LB_COUNT_GE: u64 = 11;
    /// Remove member `key`; returns the removed score or `EMPTY`.
    pub const LB_REMOVE: u64 = 12;
    /// Cursor scan: smallest member key `>= arg` on the probed shard.
    pub const LB_SCAN: u64 = 13;

    /// Push a packed `(priority, item)` task onto queue `key`; returns the
    /// queue's new length.
    pub const PQ_PUSH: u64 = 16;
    /// Pop queue `key`'s minimum-priority task (FIFO within a priority);
    /// returns the packed task or `EMPTY`.
    pub const PQ_POP: u64 = 17;
    /// Read the minimum-priority task without removing it (pure read).
    pub const PQ_PEEK: u64 = 18;
    /// Read queue `key`'s length (pure read).
    pub const PQ_LEN: u64 = 19;

    /// Store a packed `(value, ttl_ms)` under session `key`; returns the
    /// replaced value or `EMPTY`. TTL 0 means the session never expires.
    pub const SS_PUT: u64 = 24;
    /// Read session `key`'s value, or `EMPTY` if absent *or expired*.
    /// Deliberately not on the read fast path: the deadline check may
    /// retire an expired entry.
    pub const SS_GET: u64 = 25;
    /// Delete session `key`; returns the removed value or `EMPTY`.
    pub const SS_DEL: u64 = 26;
    /// Remaining TTL of session `key` in ms (0 = immortal), or `EMPTY`.
    pub const SS_TTL: u64 = 27;
    /// Re-arm session `key` with TTL `arg` ms (1 live, 0 absent/expired).
    pub const SS_TOUCH: u64 = 28;
    /// Cursor scan: smallest *live* session key `>= arg` on the probed
    /// shard (expired entries are retired, not returned).
    pub const SS_SCAN: u64 = 29;

    /// Credit account `key` with `arg`; returns the new available balance.
    pub const LG_DEPOSIT: u64 = 32;
    /// Read account `key`'s available balance (pure read; 0 if absent).
    pub const LG_BALANCE: u64 = 33;
    /// Phase one: move `arg` from available to held (1 ok, 0 insufficient).
    pub const LG_RESERVE: u64 = 34;
    /// Phase two: burn `arg` of held funds (1 ok, 0 nothing held).
    pub const LG_COMMIT: u64 = 35;
    /// Abort: return `arg` of held funds to available (1 ok, 0 not held).
    pub const LG_RELEASE: u64 = 36;
    /// Read account `key`'s held amount (pure read; 0 if absent).
    pub const LG_HELD: u64 = 37;
    /// Cursor scan: smallest account key `>= arg` on the probed shard.
    pub const LG_SCAN: u64 = 38;

    /// One past the highest opcode: the wire-level `max_op` gate.
    pub const OP_LIMIT: u64 = 39;
}

/// Tuning for the suite's per-shard state.
#[derive(Debug, Clone, Copy)]
pub struct AppConfig {
    /// Token-bucket capacity; buckets start full and `RL_PEEK`/`RL_ACQUIRE`
    /// clamp to it.
    pub bucket_capacity: u64,
    /// Period of the timer-driven background refill, in milliseconds.
    /// 0 disables the refill timer (deterministic mode for lincheck).
    pub refill_interval_ms: u64,
    /// Tokens added to every touched bucket per refill firing.
    pub refill_amount: u64,
    /// Timer-wheel tick, in microseconds.
    pub timer_tick_us: u64,
}

impl Default for AppConfig {
    fn default() -> Self {
        Self {
            bucket_capacity: 64,
            refill_interval_ms: 0,
            refill_amount: 8,
            timer_tick_us: 1_000,
        }
    }
}

/// What a per-shard timer firing means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timer {
    /// Session `key`'s TTL elapsed.
    Session(u64),
    /// The periodic rate-limiter refill came due.
    Refill,
}

/// One shard's worth of every application's state, plus the shared timer
/// wheel. The suite's [`Runtime`](mpsync_runtime::Runtime) holds one `AppState` per shard.
pub struct AppState {
    shard: usize,
    cfg: AppConfig,
    wheel: TimerWheel<Timer>,
    fired: Vec<Expired<Timer>>,
    rate: ratelimit::RateState,
    board: leaderboard::BoardState,
    queues: pq::PqState,
    sessions: session::SessionState,
    accounts: ledger::LedgerState,
}

impl AppState {
    /// Fresh state for `shard`, with the refill timer armed if configured.
    pub fn new(shard: usize, cfg: AppConfig) -> Self {
        let mut wheel = TimerWheel::new(cfg.timer_tick_us.max(1) * 1_000);
        if cfg.refill_interval_ms > 0 {
            let deadline = mpsync_runtime::mono_ns() + cfg.refill_interval_ms * 1_000_000;
            wheel.insert(deadline, Timer::Refill);
        }
        Self {
            shard,
            cfg,
            wheel,
            fired: Vec::new(),
            rate: ratelimit::RateState::default(),
            board: leaderboard::BoardState::default(),
            queues: pq::PqState::default(),
            sessions: session::SessionState::default(),
            accounts: ledger::LedgerState::default(),
        }
    }
}

impl Expire for AppState {
    fn next_deadline_ns(&mut self) -> Option<u64> {
        self.wheel.next_deadline_ns()
    }

    fn expire(&mut self, now_ns: u64) {
        self.fired.clear();
        let mut fired = std::mem::take(&mut self.fired);
        self.wheel.advance(now_ns, &mut fired);
        let mut swept = 0u64;
        let mut max_late = 0u64;
        for e in &fired {
            match e.item {
                Timer::Session(key) => {
                    if self.sessions.expire_one(key, e.id) {
                        swept += 1;
                        max_late = max_late.max(now_ns.saturating_sub(e.deadline_ns));
                    }
                }
                Timer::Refill => {
                    self.rate
                        .refill_all(self.cfg.refill_amount, self.cfg.bucket_capacity);
                    let next = now_ns + self.cfg.refill_interval_ms.max(1) * 1_000_000;
                    self.wheel.insert(next, Timer::Refill);
                }
            }
        }
        self.fired = fired;
        if swept > 0 {
            telemetry::count(Counter::AppSessionExpired, swept);
            telemetry::flight(FlightKind::Expire, self.shard as u64, swept, max_late);
        }
    }
}

/// The suite's keyed dispatcher: routes each opcode band to its
/// application's sequential state. Runs inside the shard's critical
/// section on every backend.
///
/// # Panics
///
/// Panics on an opcode outside the map — the wire layer rejects those
/// before they reach a shard ([`ops::OP_LIMIT`]).
pub fn app_dispatch(state: &mut AppState, key: u64, op: u64, arg: u64) -> u64 {
    if op < ops::LB_ADD {
        ratelimit::dispatch(&mut state.rate, state.cfg.bucket_capacity, key, op, arg)
    } else if op < ops::PQ_PUSH {
        leaderboard::dispatch(&mut state.board, key, op, arg)
    } else if op < ops::SS_PUT {
        pq::dispatch(&mut state.queues, key, op, arg)
    } else if op < ops::LG_DEPOSIT {
        session::dispatch(&mut state.sessions, &mut state.wheel, key, op, arg)
    } else if op < ops::OP_LIMIT {
        ledger::dispatch(&mut state.accounts, key, op, arg)
    } else {
        panic!("mpsync-apps: unknown opcode {op}");
    }
}

/// Function-pointer form of [`app_dispatch`], the suite's `F` parameter.
pub type AppFn = fn(&mut AppState, u64, u64, u64) -> u64;
