//! Integration tests of the adaptive backend: live mode switches must
//! preserve every guarantee the fixed backends give — linearizability,
//! exactly-once application across a racing close, per-key per-session
//! FIFO — across every swap pair. The read-side fast path and commutative
//! op-merging ride the same runtime and are checked here end-to-end. That a
//! swap stays observable (epochs, `BackendSwitch` flight events) is checked
//! in `tests/adaptive_flight.rs`, a process of its own.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mpsync::lincheck::specs::CounterSpec;
use mpsync::lincheck::{check, Recorder};
use mpsync::objects::seq::{keyed_counter_dispatch, keyed_counter_ops, KeyedCounters};
use mpsync::runtime::{Backend, OpMask, Runtime, RuntimeConfig, RuntimeError, SubmitPolicy};

/// Small adaptive config for the CI host.
fn adaptive(shards: usize, sessions: usize) -> RuntimeConfig {
    RuntimeConfig::new(shards)
        .with_backend(Backend::Adaptive)
        .with_max_sessions(sessions)
        .with_queue_depth(4)
        .with_max_batch(8)
}

type Keyed = Runtime<KeyedCounters, fn(&mut KeyedCounters, u64, u64, u64) -> u64>;

fn keyed_runtime(config: RuntimeConfig) -> Keyed {
    Runtime::new(config, |_| KeyedCounters::new(), keyed_counter_dispatch)
}

/// An adaptive runtime with every shard pinned to Lock, so only the test's
/// own `force_backend` calls move a mode: the controller leaves pinned
/// shards alone.
fn pinned_runtime(config: RuntimeConfig) -> Keyed {
    let rt = keyed_runtime(config);
    for shard in 0..config.shards {
        assert!(rt.force_backend(shard, Backend::Lock));
    }
    rt
}

// ---------------------------------------------------------------------------
// Linearizability across every swap pair: concurrent fetch-inc histories on
// one hot key stay linearizable while a switcher thread flips the shard
// between the pair's two modes mid-history. The modes are `Backend::ALL`,
// the fixed backends, so every ordered pair of them is a live-switch edge.
// ---------------------------------------------------------------------------

#[test]
fn lincheck_across_all_swap_pairs() {
    const ROUNDS: usize = 4;
    const THREADS: usize = 3;
    const OPS_PER_THREAD: usize = 6;
    const HOT_KEY: u64 = 17;
    for from in Backend::ALL {
        for to in Backend::ALL {
            if from == to {
                continue;
            }
            for _ in 0..ROUNDS {
                let rt = Arc::new(keyed_runtime(adaptive(1, THREADS)));
                assert!(rt.force_backend(0, from), "pin to the pair's source");
                let rec: Recorder<(), u64> = Recorder::new();
                let done = Arc::new(AtomicBool::new(false));
                let barrier = Arc::new(Barrier::new(THREADS + 1));
                let mut joins = Vec::new();
                for t in 0..THREADS {
                    let mut h = rec.handle(t);
                    let mut s = rt.session().expect("session budget");
                    let barrier = barrier.clone();
                    joins.push(std::thread::spawn(move || {
                        barrier.wait();
                        for _ in 0..OPS_PER_THREAD {
                            h.record((), || s.submit(HOT_KEY, keyed_counter_ops::INC, 0).unwrap());
                        }
                        h
                    }));
                }
                let switcher = {
                    let rt = Arc::clone(&rt);
                    let done = Arc::clone(&done);
                    let barrier = barrier.clone();
                    std::thread::spawn(move || {
                        barrier.wait();
                        let mut next = to;
                        while !done.load(Ordering::Acquire) {
                            rt.force_backend(0, next);
                            next = if next == to { from } else { to };
                            std::thread::yield_now();
                        }
                    })
                };
                let handles: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
                done.store(true, Ordering::Release);
                switcher.join().unwrap();
                let history = rec.collect(handles);
                check(&CounterSpec, &history)
                    .unwrap_or_else(|e| panic!("{from:?}→{to:?}: history not linearizable: {e:?}"));
                let rt = Arc::try_unwrap(rt).ok().expect("sessions dropped");
                let report = rt.shutdown();
                assert_eq!(
                    report.states[0].get(&HOT_KEY),
                    Some(&((THREADS * OPS_PER_THREAD) as u64)),
                    "{from:?}→{to:?}: every increment applied exactly once"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Exactly-once with switches racing a mid-stream close: every accepted op
// is applied once, even when the graceful drain overlaps live switches.
// ---------------------------------------------------------------------------

#[test]
fn exactly_once_with_switches_racing_close() {
    const THREADS: usize = 2;
    const KEYS: u64 = 5;
    const MAX_OPS: usize = 200_000;
    let rt = Arc::new(pinned_runtime(
        adaptive(2, THREADS).with_submit(SubmitPolicy::Block),
    ));
    let done = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let mut s = rt.session().expect("session budget");
        joins.push(std::thread::spawn(move || {
            let mut accepted = 0u64;
            for i in 0..MAX_OPS {
                match s.submit((t as u64 + i as u64) % KEYS, keyed_counter_ops::INC, 0) {
                    Ok(_) => accepted += 1,
                    Err(RuntimeError::Closed) => break,
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            accepted
        }));
    }
    let switcher = {
        let rt = Arc::clone(&rt);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !done.load(Ordering::Acquire) {
                rt.force_backend(i % 2, Backend::ALL[i % Backend::ALL.len()]);
                i += 1;
                std::thread::yield_now();
            }
        })
    };
    // Close mid-stream: the interesting window is ops admitted but not yet
    // applied while a switch's pause/quiesce is in flight.
    std::thread::sleep(Duration::from_millis(20));
    rt.close();
    let accepted: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    done.store(true, Ordering::Release);
    switcher.join().unwrap();
    let rt = Arc::try_unwrap(rt).ok().expect("sessions dropped");
    let report = rt.shutdown();
    let applied: u64 = report.states.iter().flat_map(|m| m.values()).sum();
    assert_eq!(applied, accepted, "accepted ops applied exactly once");
    assert_eq!(report.stats.total_ops(), accepted, "stats agree with state");
    assert!(accepted > 0, "workers should get some ops in before close");
}

// ---------------------------------------------------------------------------
// Per-key per-session FIFO across live switches: a session's ADDs to its own
// keys return exact running prefix sums no matter how many switches land
// between them.
// ---------------------------------------------------------------------------

#[test]
fn per_key_fifo_preserved_across_switches() {
    const THREADS: usize = 2;
    const OPS: u64 = 300;
    let rt = Arc::new(pinned_runtime(
        adaptive(2, THREADS).with_submit(SubmitPolicy::Block),
    ));
    let done = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();
    for t in 0..THREADS as u64 {
        let mut s = rt.session().expect("session budget");
        joins.push(std::thread::spawn(move || {
            // Session t owns keys ≡ t (mod THREADS): disjoint across
            // sessions, spread over both shards.
            let mut sums = [0u64; 3];
            for i in 0..OPS {
                let k = (i % 3) as usize;
                let key = (k as u64) * THREADS as u64 + t;
                sums[k] = sums[k].wrapping_add(i + 1);
                let got = s.submit(key, keyed_counter_ops::ADD, i + 1).unwrap();
                assert_eq!(got, sums[k], "key {key}: running sum broken by a switch");
            }
            for (k, want) in sums.iter().enumerate() {
                let key = (k as u64) * THREADS as u64 + t;
                assert_eq!(
                    s.submit(key, keyed_counter_ops::GET, 0).unwrap(),
                    *want,
                    "key {key}: final read-back"
                );
            }
        }));
    }
    let switcher = {
        let rt = Arc::clone(&rt);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            // A minimum flip count makes the epoch assertion below
            // deterministic even if the workers drain their ops quickly.
            let mut i = 0usize;
            while i < 12 || !done.load(Ordering::Acquire) {
                rt.force_backend(0, Backend::ALL[i % Backend::ALL.len()]);
                rt.force_backend(1, Backend::ALL[(i + 1) % Backend::ALL.len()]);
                i += 1;
                std::thread::yield_now();
            }
        })
    };
    for j in joins {
        j.join().unwrap();
    }
    done.store(true, Ordering::Release);
    switcher.join().unwrap();
    let rt = Arc::try_unwrap(rt).ok().expect("sessions dropped");
    assert!(rt.swap_epoch(0) > 0, "shard 0 switched at least once");
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Read-side fast path: masked reads answered from the versioned snapshot
// are never stale — a session always sees its own writes, and concurrent
// readers of a monotone counter never observe it going backwards.
// ---------------------------------------------------------------------------

#[test]
fn fast_reads_see_own_writes_and_survive_invalidation() {
    let rt =
        pinned_runtime(adaptive(1, 1).with_read_fast(OpMask::of(&[keyed_counter_ops::GET as u8])));
    let mut s = rt.session().unwrap();
    assert_eq!(s.submit(7, keyed_counter_ops::ADD, 5).unwrap(), 5);
    // First GET takes the slow path and publishes; the second is a cache
    // hit. Both must return the current value.
    assert_eq!(s.submit(7, keyed_counter_ops::GET, 0).unwrap(), 5);
    assert_eq!(s.submit(7, keyed_counter_ops::GET, 0).unwrap(), 5);
    // A mutation invalidates before touching state: the next GET must not
    // serve the stale 5.
    assert_eq!(s.submit(7, keyed_counter_ops::ADD, 1).unwrap(), 6);
    assert_eq!(s.submit(7, keyed_counter_ops::GET, 0).unwrap(), 6);
    // A different key on the same shard gets its own slot.
    assert_eq!(s.submit(9, keyed_counter_ops::GET, 0).unwrap(), 0);
    assert_eq!(s.submit(7, keyed_counter_ops::GET, 0).unwrap(), 6);
    drop(s);
    rt.shutdown();
}

#[test]
fn fast_reads_are_monotone_under_concurrent_increments() {
    const INCS: u64 = 3_000;
    const KEY: u64 = 42;
    let rt = Arc::new(pinned_runtime(
        adaptive(1, 2).with_read_fast(OpMask::of(&[keyed_counter_ops::GET as u8])),
    ));
    let writer = {
        let mut s = rt.session().unwrap();
        std::thread::spawn(move || {
            for _ in 0..INCS {
                s.submit(KEY, keyed_counter_ops::INC, 0).unwrap();
            }
        })
    };
    let reader = {
        let mut s = rt.session().unwrap();
        std::thread::spawn(move || {
            let mut last = 0u64;
            loop {
                let v = s.submit(KEY, keyed_counter_ops::GET, 0).unwrap();
                assert!(v >= last, "fast read went backwards: {v} < {last}");
                last = v;
                if v == INCS {
                    return;
                }
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    let rt = Arc::try_unwrap(rt).ok().expect("sessions dropped");
    let report = rt.shutdown();
    assert_eq!(report.states[0].get(&KEY), Some(&INCS));
}

// ---------------------------------------------------------------------------
// Contended fetch-adds through the batched MP-SERVER step (the fixed
// backend's, and an adaptive shard's Mp mode): per-caller old values form a
// permutation of 0..N — the full linearizability certificate for a
// fetch-add-shaped op. (The names are from when these ran under op merging,
// since removed.)
// ---------------------------------------------------------------------------

/// Keyed fetch-add body: op 0 wrapping-adds its argument and returns the OLD
/// value; op 2 reads.
fn keyed_fadd(state: &mut u64, _key: u64, op: u64, arg: u64) -> u64 {
    match op {
        0 => {
            let old = *state;
            *state = state.wrapping_add(arg);
            old
        }
        2 => *state,
        _ => panic!("keyed_fadd: unknown opcode {op}"),
    }
}

fn run_merged_fetch_add(config: RuntimeConfig, force_mp_first: bool) {
    const THREADS: usize = 3;
    const OPS: u64 = 200;
    let rt = Arc::new(Runtime::new(
        config,
        |_| 0u64,
        keyed_fadd as fn(&mut u64, u64, u64, u64) -> u64,
    ));
    if force_mp_first {
        assert!(rt.force_backend(0, Backend::MpServer));
    }
    let mut joins = Vec::new();
    for _ in 0..THREADS {
        let mut s = rt.session().expect("session budget");
        joins.push(std::thread::spawn(move || {
            (0..OPS)
                .map(|_| s.submit(0, 0, 1).unwrap())
                .collect::<Vec<u64>>()
        }));
    }
    let mut olds: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
    olds.sort_unstable();
    let total = THREADS as u64 * OPS;
    assert_eq!(
        olds,
        (0..total).collect::<Vec<u64>>(),
        "per-caller old values must be a permutation of 0..{total}"
    );
    let rt = Arc::try_unwrap(rt).ok().expect("sessions dropped");
    let report = rt.shutdown();
    assert_eq!(report.states[0], total, "every add applied");
    assert_eq!(
        report.stats.total_ops(),
        total,
        "ops counter stays truthful"
    );
}

#[test]
fn merged_fetch_adds_linearize_on_mp_server() {
    run_merged_fetch_add(
        RuntimeConfig::new(1)
            .with_backend(Backend::MpServer)
            .with_max_sessions(3)
            .with_queue_depth(4)
            .with_max_batch(8),
        false,
    );
}

#[test]
fn merged_fetch_adds_linearize_on_adaptive_mp_mode() {
    run_merged_fetch_add(adaptive(1, 3).with_submit(SubmitPolicy::Block), true);
}

// ---------------------------------------------------------------------------
// The controller closes the loop: under sustained multi-session contention
// an unpinned shard leaves its initial lock mode on its own, with the
// controller's own constants, and the workload's correctness is untouched by
// the autonomous switches.
// ---------------------------------------------------------------------------

#[test]
fn controller_switches_away_from_lock_under_contention() {
    const THREADS: usize = 3;
    let rt = Arc::new(keyed_runtime(
        RuntimeConfig::new(1)
            .with_backend(Backend::Adaptive)
            .with_max_sessions(THREADS)
            .with_queue_depth(8)
            .with_max_batch(8)
            .with_submit(SubmitPolicy::Block),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();
    for t in 0..THREADS as u64 {
        let mut s = rt.session().expect("session budget");
        let stop = Arc::clone(&stop);
        joins.push(std::thread::spawn(move || {
            let mut accepted = 0u64;
            while !stop.load(Ordering::Acquire) {
                s.submit(t % 2, keyed_counter_ops::INC, 0).unwrap();
                accepted += 1;
            }
            accepted
        }));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while rt.swap_epoch(0) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Release);
    let accepted: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    // Every shard starts in Lock and a same-mode switch never bumps the
    // epoch, so a positive epoch is the proof. The live mode proves nothing:
    // once the load stops, an idle shard may already be back in Lock.
    assert!(
        rt.swap_epoch(0) > 0,
        "controller never switched a contended shard away from Lock"
    );
    let rt = Arc::try_unwrap(rt).ok().expect("sessions dropped");
    let report = rt.shutdown();
    let applied: u64 = report.states.iter().flat_map(|m| m.values()).sum();
    assert_eq!(applied, accepted, "autonomous switches never lose an op");
}
