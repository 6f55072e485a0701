//! Linearizability histories for the `mpsync-apps` suite: every application
//! object, on every backend, checked against the sequential [`AppSpec`] —
//! including an Adaptive runtime whose shards are force-switched between
//! backends mid-history.
//!
//! Sessions run in immortal mode (TTL 0) so the spec is clock-free; the
//! timed behavior is covered by the apps crate's own tests and the timer
//! proptest.

use std::sync::Arc;

use mpsync::apps::{ops, pack_put, pack_task, AppSuite};
use mpsync::lincheck::specs::{AppOp, AppSpec};
use mpsync::lincheck::{check, Recorder};
use mpsync::runtime::{Backend, RuntimeConfig, Session};

const ROUNDS: usize = 10;
const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 4;
const CAP: u64 = 64; // AppConfig::default().bucket_capacity

/// Executes one spec-level op against a live suite session.
fn submit_app(s: &mut Session, op: &AppOp) -> u64 {
    let r = match *op {
        AppOp::RateAcquire { key, n } => s.submit(key, ops::RL_ACQUIRE, n),
        AppOp::RatePeek { key } => s.submit(key, ops::RL_PEEK, 0),
        AppOp::RateFill { key, n } => s.submit(key, ops::RL_FILL, n),
        AppOp::BoardAdd { member, delta } => s.submit(member, ops::LB_ADD, delta),
        AppOp::BoardGet { member } => s.submit(member, ops::LB_GET, 0),
        AppOp::BoardNth { rank } => s.submit(0, ops::LB_NTH, rank),
        AppOp::BoardCountGe { score } => s.submit(0, ops::LB_COUNT_GE, score),
        AppOp::BoardRemove { member } => s.submit(member, ops::LB_REMOVE, 0),
        AppOp::PqPush { queue, prio, item } => s.submit(queue, ops::PQ_PUSH, pack_task(prio, item)),
        AppOp::PqPop { queue } => s.submit(queue, ops::PQ_POP, 0),
        AppOp::PqPeek { queue } => s.submit(queue, ops::PQ_PEEK, 0),
        AppOp::PqLen { queue } => s.submit(queue, ops::PQ_LEN, 0),
        AppOp::SessPut { key, value } => s.submit(key, ops::SS_PUT, pack_put(value, 0)),
        AppOp::SessGet { key } => s.submit(key, ops::SS_GET, 0),
        AppOp::SessDel { key } => s.submit(key, ops::SS_DEL, 0),
        AppOp::LgDeposit { key, amount } => s.submit(key, ops::LG_DEPOSIT, amount),
        AppOp::LgBalance { key } => s.submit(key, ops::LG_BALANCE, 0),
        AppOp::LgReserve { key, amount } => s.submit(key, ops::LG_RESERVE, amount),
        AppOp::LgCommit { key, amount } => s.submit(key, ops::LG_COMMIT, amount),
        AppOp::LgRelease { key, amount } => s.submit(key, ops::LG_RELEASE, amount),
        AppOp::LgHeld { key } => s.submit(key, ops::LG_HELD, 0),
    };
    r.expect("suite op failed")
}

fn rate_op(t: usize, i: usize) -> AppOp {
    let key = 1 + (t % 2) as u64;
    match i % 4 {
        0 => AppOp::RateAcquire { key, n: 20 },
        1 => AppOp::RatePeek { key },
        2 => AppOp::RateFill { key, n: 10 },
        _ => AppOp::RateAcquire { key, n: 30 },
    }
}

/// Board histories couple keys through rank reads, so they run on 1 shard.
fn board_op(t: usize, i: usize) -> AppOp {
    let member = 1 + t as u64;
    match i % 4 {
        0 => AppOp::BoardAdd {
            member,
            delta: (t * 10 + i + 1) as u64,
        },
        1 => AppOp::BoardNth { rank: 0 },
        2 => AppOp::BoardGet { member },
        _ if t == 0 => AppOp::BoardRemove { member },
        _ => AppOp::BoardCountGe { score: 10 },
    }
}

fn pq_op(t: usize, i: usize) -> AppOp {
    let queue = 1 + ((t + i) % 2) as u64;
    if i.is_multiple_of(2) {
        AppOp::PqPush {
            queue,
            prio: ((t + i) % 3) as u32,
            item: (t * 100 + i) as u32,
        }
    } else if i % 4 == 1 {
        AppOp::PqPop { queue }
    } else {
        AppOp::PqLen { queue }
    }
}

fn sess_op(t: usize, i: usize) -> AppOp {
    let key = 1 + ((t + i) % 2) as u64;
    match i % 3 {
        0 => AppOp::SessPut {
            key,
            value: (t * 100 + i + 1) as u32,
        },
        1 => AppOp::SessGet { key },
        _ => AppOp::SessDel { key },
    }
}

fn ledger_op(t: usize, i: usize) -> AppOp {
    let key = 1 + (t % 2) as u64;
    match i % 4 {
        0 => AppOp::LgDeposit { key, amount: 5 },
        1 => AppOp::LgReserve { key, amount: 3 },
        2 if t.is_multiple_of(2) => AppOp::LgCommit { key, amount: 3 },
        2 => AppOp::LgRelease { key, amount: 3 },
        _ => AppOp::LgBalance { key },
    }
}

/// Round-robins across all five objects in one history.
fn mixed_op(t: usize, i: usize) -> AppOp {
    match (t + i) % 5 {
        0 => rate_op(t, i),
        1 => board_op(t, i),
        2 => pq_op(t, i),
        3 => sess_op(t, i),
        _ => ledger_op(t, i),
    }
}

/// Records `ROUNDS` concurrent histories of `gen` ops against a fresh suite
/// per round and checks each against [`AppSpec`]. When `switch` holds, the
/// main thread force-switches every shard across backends mid-history.
fn check_app_histories(config: impl Fn() -> RuntimeConfig, gen: fn(usize, usize) -> AppOp) {
    let switch = matches!(config().backend, Backend::Adaptive);
    for _ in 0..ROUNDS {
        let suite = Arc::new(AppSuite::new(config()));
        if switch {
            // Pinned: only the forced switches below move a shard.
            for shard in 0..suite.shards() {
                suite.force_backend(shard, Backend::Lock);
            }
        }
        let rec: Recorder<AppOp, u64> = Recorder::new();
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mut h = rec.handle(t);
            let mut s = suite.raw_session().expect("session");
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let op = gen(t, i);
                    h.record(op, || submit_app(&mut s, &op));
                }
                h
            }));
        }
        if switch {
            for &backend in &[Backend::MpServer, Backend::Comb, Backend::Lock] {
                for shard in 0..suite.shards() {
                    suite.force_backend(shard, backend);
                }
            }
        }
        let handles: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let history = rec.collect(handles);
        check(&AppSpec { cap: CAP }, &history).expect("app history not linearizable");
    }
}

fn fixed(backend: Backend, shards: usize) -> impl Fn() -> RuntimeConfig {
    move || RuntimeConfig::new(shards).with_backend(backend)
}

#[test]
fn ratelimit_linearizable_on_every_backend() {
    for &backend in &Backend::ALL {
        check_app_histories(fixed(backend, 2), rate_op);
    }
}

#[test]
fn leaderboard_linearizable_on_every_backend() {
    for &backend in &Backend::ALL {
        check_app_histories(fixed(backend, 1), board_op);
    }
}

#[test]
fn pq_linearizable_on_every_backend() {
    for &backend in &Backend::ALL {
        check_app_histories(fixed(backend, 2), pq_op);
    }
}

#[test]
fn session_store_linearizable_on_every_backend() {
    for &backend in &Backend::ALL {
        check_app_histories(fixed(backend, 2), sess_op);
    }
}

#[test]
fn ledger_linearizable_on_every_backend() {
    for &backend in &Backend::ALL {
        check_app_histories(fixed(backend, 2), ledger_op);
    }
}

#[test]
fn mixed_apps_linearizable_on_every_backend() {
    for &backend in &Backend::ALL {
        check_app_histories(fixed(backend, 1), mixed_op);
    }
}

#[test]
fn apps_linearizable_under_forced_adaptive_switches() {
    let adaptive = || RuntimeConfig::new(1).with_backend(Backend::Adaptive);
    check_app_histories(adaptive, mixed_op);
    check_app_histories(adaptive, ledger_op);
    check_app_histories(adaptive, sess_op);
}

/// The read fast path inside a batch: the cache's own-writes-visible
/// argument needs the session's earlier write *answered*, which in a batch
/// it is not yet. Every peek must see the token its own acquire, one slot
/// earlier in the same batch, just took — not the cached pre-image.
#[test]
fn batched_peek_sees_its_own_acquire() {
    let suite = AppSuite::new(RuntimeConfig::new(2).with_max_sessions(1));
    let mut s = suite.raw_session().expect("session");
    let mut out = Vec::new();
    for key in 1..=16u64 {
        // Publish the full bucket in the read cache, and prove it serves.
        for _ in 0..2 {
            assert_eq!(s.submit(key, ops::RL_PEEK, 0), Ok(CAP));
        }
        let batch: Vec<(u64, u64, u64)> = (0..8)
            .flat_map(|_| [(key, ops::RL_ACQUIRE, 1), (key, ops::RL_PEEK, 0)])
            .collect();
        s.submit_batch(&batch, &mut out);
        for (pair, got) in out.chunks(2).enumerate() {
            let left = CAP - 1 - pair as u64;
            assert_eq!(got, [Ok(1), Ok(left)], "key {key}, pair {pair}");
        }
    }
    drop(s);
    suite.shutdown();
}
