//! Sharded runtime tour: a keyed KV store served by `mpsync::runtime`,
//! showing key→shard striping, bounded submission, cross-shard fan-out
//! (`transfer`), graceful shutdown, and the per-shard stats the runtime
//! keeps (ops, batch-size distribution, queue pressure).
//!
//! A shard is a unit of state and ordering, not a thread: on the default
//! MP-SERVER backend the four shards below are served by
//! `min(4, max(1, CPUs − 1))` `rt-serve-<j>` threads — one CPU is left to the
//! sessions (`RuntimeStats::server_threads`, printed below) — each polling
//! the shards it owns in turn; the inline backends spawn none.
//!
//! Run with: `cargo run --release --example shard_server`
//! Pick a backend with e.g. `cargo run --release --example shard_server comb`
//! (one of: lock, comb, mp-server).

use std::sync::Arc;

use mpsync::runtime::{Backend, RuntimeConfig, RuntimeError, ShardedKvStore};

const SHARDS: usize = 4;
const SESSIONS: usize = 3;
const ACCOUNTS: u64 = 64;
const OPS_PER_SESSION: u64 = 50_000;

fn parse_backend(arg: Option<String>) -> Backend {
    let Some(arg) = arg else {
        return Backend::MpServer;
    };
    Backend::ALL
        .into_iter()
        .find(|b| b.label() == arg)
        .unwrap_or_else(|| {
            let labels: Vec<_> = Backend::ALL.iter().map(|b| b.label()).collect();
            eprintln!("unknown backend {arg:?}; pick one of {labels:?}");
            std::process::exit(2);
        })
}

fn main() {
    let backend = parse_backend(std::env::args().nth(1));
    let store = Arc::new(ShardedKvStore::new(
        RuntimeConfig::new(SHARDS)
            .with_backend(backend)
            // The seeding session below is dropped before the tellers open
            // theirs: the budget is on sessions live at once.
            .with_max_sessions(SESSIONS)
            .with_max_batch(64)
            .with_queue_depth(32),
    ));

    // Seed every account with an opening balance; keys stripe across the
    // shards via the runtime's hash router.
    {
        let mut s = store.session().expect("session budget");
        for account in 0..ACCOUNTS {
            s.put(account, 1_000).expect("runtime open");
        }
    }

    // Concurrent tellers move money between accounts. A transfer is a
    // cross-shard fan-out: the runtime applies the debit and the credit in
    // a deterministic shard order, one admitted operation per shard.
    let mut joins = Vec::new();
    for t in 0..SESSIONS {
        let store = Arc::clone(&store);
        joins.push(std::thread::spawn(move || {
            let mut session = store.session().expect("session budget");
            let mut moved = 0u64;
            for i in 0..OPS_PER_SESSION {
                let from = (t as u64 + i) % ACCOUNTS;
                let to = (t as u64 + i * 7 + 1) % ACCOUNTS;
                if from == to {
                    continue;
                }
                match session.transfer(from, to, 1) {
                    Ok(_) => moved += 1,
                    Err(RuntimeError::Closed) => break,
                    Err(e) => panic!("transfer failed: {e}"),
                }
            }
            moved
        }));
    }
    let moved: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();

    // Graceful shutdown: close admissions, drain every in-flight op, stop
    // the shard executors, and hand back the merged state plus stats.
    let store = Arc::into_inner(store).expect("sessions died with their threads");
    let (kv, stats) = store.shutdown();

    let total: u64 = (0..ACCOUNTS)
        .map(|a| kv.get(&a).copied().unwrap_or(0))
        .sum();
    println!(
        "backend {:<10} {moved} transfers across {SHARDS} shards on {} serving threads",
        backend.label(),
        stats.server_threads
    );
    println!(
        "ledger total {total} (conserved: {})",
        total == ACCOUNTS * 1_000
    );
    println!("{stats}");
    assert_eq!(total, ACCOUNTS * 1_000, "transfers must conserve money");
}
