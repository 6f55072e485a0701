//! Integration tests of the sharded delegation runtime: per-key operation
//! order end-to-end, linearizability of the sharded counter, and
//! exactly-once application across graceful shutdown — each across every
//! executor backend.

use std::sync::Arc;

use mpsync::lincheck::specs::CounterSpec;
use mpsync::lincheck::{check, Recorder};
use mpsync::objects::seq::{keyed_counter_dispatch, keyed_counter_ops, KeyedCounters};
use mpsync::runtime::{
    Backend, Runtime, RuntimeConfig, RuntimeError, ShardedCounter, ShardedKvStore, SubmitPolicy,
};
use proptest::prelude::*;

/// Small config sized for the CI host (2 cores): few sessions, shallow
/// windows, modest batches.
fn small(backend: Backend, shards: usize, sessions: usize) -> RuntimeConfig {
    RuntimeConfig::new(shards)
        .with_backend(backend)
        .with_max_sessions(sessions)
        .with_queue_depth(4)
        .with_max_batch(8)
}

// ---------------------------------------------------------------------------
// Per-key order: a session's operations on one key execute in submission
// order, end-to-end, whatever shard the key routes to and whatever backend
// serves it.
// ---------------------------------------------------------------------------

/// Each session owns a disjoint set of keys and applies ADD deltas to them.
/// Because all of a key's operations land on one shard, executed under
/// mutual exclusion, and a session submits one op at a time, the values the
/// session gets back for its own key must be exactly that key's running
/// prefix sums — any reordering, loss, or duplication breaks the equality.
fn run_per_key_order(backend: Backend, shards: usize, per_session: &[Vec<(u64, u64)>]) {
    let rt = Runtime::new(
        small(backend, shards, per_session.len().max(1)),
        |_| KeyedCounters::new(),
        keyed_counter_dispatch,
    );
    let mut joins = Vec::new();
    for (t, ops) in per_session.iter().enumerate() {
        let mut session = rt.session().expect("session budget");
        // Session t owns keys ≡ t (mod sessions): disjoint across sessions.
        let ops: Vec<(u64, u64)> = ops
            .iter()
            .map(|&(key, delta)| (key * per_session.len() as u64 + t as u64, delta))
            .collect();
        joins.push(std::thread::spawn(move || {
            let mut expected: std::collections::HashMap<u64, u64> = Default::default();
            for (key, delta) in ops {
                let want = expected.entry(key).or_insert(0);
                *want = want.wrapping_add(delta);
                let got = session
                    .submit(key, keyed_counter_ops::ADD, delta)
                    .expect("runtime open");
                assert_eq!(
                    got, *want,
                    "key {key}: per-key order violated (expected running sum)"
                );
            }
            // End-to-end read-back: the shard's final value matches.
            for (key, want) in expected {
                assert_eq!(
                    session.submit(key, keyed_counter_ops::GET, 0).unwrap(),
                    want
                );
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    rt.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn per_key_order_preserved_across_shards_and_backends(
        shards in 1usize..4,
        ops_a in prop::collection::vec(
            (0u64..6_000).prop_map(|x| (x % 6, 1 + x / 6)), 1..12),
        ops_b in prop::collection::vec(
            (0u64..6_000).prop_map(|x| (x % 6, 1 + x / 6)), 1..12),
    ) {
        for backend in Backend::ALL {
            run_per_key_order(backend, shards, &[ops_a.clone(), ops_b.clone()]);
        }
    }
}

// ---------------------------------------------------------------------------
// Linearizability: concurrent fetch-inc histories on one hot key of a
// ShardedCounter check out against the sequential counter specification.
// ---------------------------------------------------------------------------

fn check_sharded_counter_linearizable(backend: Backend) {
    const ROUNDS: usize = 10;
    const THREADS: usize = 3;
    const OPS_PER_THREAD: usize = 4;
    const HOT_KEY: u64 = 17;
    for _ in 0..ROUNDS {
        let svc = ShardedCounter::new(small(backend, 2, THREADS));
        let rec: Recorder<(), u64> = Recorder::new();
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mut h = rec.handle(t);
            let mut bound = svc.session().expect("session budget").bind(HOT_KEY);
            joins.push(std::thread::spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    h.record((), || mpsync::objects::Counter::fetch_inc(&mut bound));
                }
                h
            }));
        }
        let handles: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let history = rec.collect(handles);
        check(&CounterSpec, &history).expect("sharded counter history not linearizable");
        let (totals, _) = svc.shutdown();
        assert_eq!(
            totals.get(&HOT_KEY),
            Some(&((THREADS * OPS_PER_THREAD) as u64))
        );
    }
}

#[test]
fn sharded_counter_linearizable_mp_server() {
    check_sharded_counter_linearizable(Backend::MpServer);
}

#[test]
fn sharded_counter_linearizable_comb() {
    check_sharded_counter_linearizable(Backend::Comb);
}

#[test]
fn sharded_counter_linearizable_lock() {
    check_sharded_counter_linearizable(Backend::Lock);
}

// ---------------------------------------------------------------------------
// Exactly-once shutdown: every operation the runtime accepted (Ok) is
// applied exactly once; everything after close() is refused.
// ---------------------------------------------------------------------------

fn run_exactly_once_shutdown(backend: Backend) {
    const THREADS: usize = 2;
    const KEYS: u64 = 5;
    const MAX_OPS: usize = 200_000;
    let svc = Arc::new(ShardedCounter::new(
        small(backend, 2, THREADS).with_submit(SubmitPolicy::Block),
    ));
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let mut session = svc.session().expect("session budget");
        joins.push(std::thread::spawn(move || {
            let mut accepted = 0u64;
            for i in 0..MAX_OPS {
                match session.fetch_inc((t as u64 + i as u64) % KEYS) {
                    Ok(_) => accepted += 1,
                    Err(RuntimeError::Closed) => break,
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            accepted
        }));
    }
    // Let the workers race ahead, then close mid-stream: the interesting
    // window is operations admitted but not yet applied at close time.
    std::thread::sleep(std::time::Duration::from_millis(20));
    svc.close();
    let accepted: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    let svc = Arc::into_inner(svc).expect("sessions dropped with their threads");
    let (totals, stats) = svc.shutdown();
    let applied: u64 = totals.values().sum();
    assert_eq!(
        applied, accepted,
        "{backend:?}: every accepted op must be applied exactly once"
    );
    assert_eq!(stats.total_ops(), accepted, "stats agree with state");
    assert!(accepted > 0, "workers should get some ops in before close");
}

#[test]
fn shutdown_applies_accepted_ops_exactly_once_mp_server() {
    run_exactly_once_shutdown(Backend::MpServer);
}

#[test]
fn shutdown_applies_accepted_ops_exactly_once_comb() {
    run_exactly_once_shutdown(Backend::Comb);
}

#[test]
fn shutdown_applies_accepted_ops_exactly_once_lock() {
    run_exactly_once_shutdown(Backend::Lock);
}

// ---------------------------------------------------------------------------
// Batch-size accounting: every batching backend must populate the shard
// batch histogram through the control plane (MP-SERVER per shard-loop
// batch, the combiner per round).
// ---------------------------------------------------------------------------

#[test]
fn batch_hist_populated_for_all_batching_backends() {
    const THREADS: usize = 2;
    const OPS: usize = 300;
    for backend in [Backend::MpServer, Backend::Comb] {
        let svc = Arc::new(ShardedCounter::new(
            small(backend, 2, THREADS).with_submit(SubmitPolicy::Block),
        ));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mut session = svc.session().expect("session budget");
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS {
                    session.fetch_inc((t + i) as u64 % 4).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let svc = Arc::into_inner(svc).expect("sessions dropped with their threads");
        let (_, stats) = svc.shutdown();
        let hist = stats.batch_hist();
        assert!(
            !hist.is_empty(),
            "{backend:?}: batch histogram must be populated"
        );
        assert!(
            (1..=8).contains(&hist.max()),
            "{backend:?}: batch sizes bounded by max_batch, got {}",
            hist.max()
        );
        assert!(
            hist.sum() <= stats.total_ops(),
            "{backend:?}: cannot batch more ops than were executed"
        );
    }
}

// ---------------------------------------------------------------------------
// Backpressure and session budget behaviour.
// ---------------------------------------------------------------------------

#[test]
fn fail_policy_rejects_only_when_window_full() {
    // queue_depth 1 with a single in-order session never overlaps itself,
    // so nothing is rejected and everything is applied.
    let svc = ShardedCounter::new(
        small(Backend::MpServer, 1, 1)
            .with_queue_depth(1)
            .with_submit(SubmitPolicy::Fail),
    );
    let mut s = svc.session().unwrap();
    for _ in 0..100 {
        s.fetch_inc(1).unwrap();
    }
    drop(s);
    let (totals, stats) = svc.shutdown();
    assert_eq!(totals.get(&1), Some(&100));
    assert_eq!(stats.total_rejected(), 0);
}

#[test]
fn session_budget_is_enforced() {
    for backend in Backend::ALL {
        let svc = ShardedCounter::new(small(backend, 1, 2));
        let mut a = svc.session().unwrap();
        let mut b = svc.session().unwrap();
        assert!(
            matches!(svc.session(), Err(RuntimeError::SessionsExhausted)),
            "{backend:?}"
        );
        a.fetch_inc(1).unwrap();
        drop(a); // every backend recycles a dropped session's place
        let mut c = svc.session().unwrap();
        c.fetch_inc(1).unwrap();
        b.fetch_inc(1).unwrap();
        drop((b, c));
        let (totals, _) = svc.shutdown();
        assert_eq!(totals.get(&1), Some(&3), "{backend:?}");
    }
}

#[test]
fn submits_after_close_are_refused() {
    let svc = ShardedCounter::new(small(Backend::Comb, 2, 1));
    let mut s = svc.session().unwrap();
    s.fetch_inc(3).unwrap();
    svc.close();
    assert!(matches!(s.fetch_inc(3), Err(RuntimeError::Closed)));
    drop(s);
    let (totals, _) = svc.shutdown();
    assert_eq!(totals.get(&3), Some(&1));
}

/// A dispatch that panics inside a combining round poisons the shard: the
/// shard's other sessions panic with the poison report instead of spinning
/// forever on the combiner lock the panicked round never released. Session
/// B waits on its own thread, so a wedge fails the test instead of hanging
/// it.
#[test]
fn comb_dispatch_panic_poisons_the_shard_instead_of_wedging_it() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    let svc = ShardedCounter::new(small(Backend::Comb, 1, 2));
    let mut a = svc.raw_session().unwrap();
    let mut b = svc.raw_session().unwrap();
    let err = catch_unwind(AssertUnwindSafe(|| a.submit(1, 99, 0))).unwrap_err();
    assert!(message(err).contains("unknown opcode 99"));

    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let r = catch_unwind(AssertUnwindSafe(|| b.submit(1, keyed_counter_ops::ADD, 1)));
        let _ = tx.send(r.map_err(message));
    });
    let got = rx
        .recv_timeout(Duration::from_secs(3))
        .expect("session B got no answer within 3 s: the shard is wedged");
    waiter.join().expect("session B's panic was caught");
    let msg = got.expect_err("a poisoned shard must not serve B");
    assert!(msg.contains("FLAT-COMBINING poisoned"), "got: {msg}");
}

/// The same for the lock: a dispatch panic on a `Backend::Lock` shard, or on
/// an adaptive shard pinned to Lock, releases and poisons the shard's MCS
/// lock, so session B panics with the poison report instead of spinning on
/// a lock the panicked session never released.
#[test]
fn lock_dispatch_panic_poisons_the_shard_instead_of_wedging_it() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    for backend in [Backend::Lock, Backend::Adaptive] {
        let rt = keyed_runtime(small(backend, 1, 2));
        if backend == Backend::Adaptive {
            assert!(rt.force_backend(0, Backend::Lock));
        }
        let mut a = rt.session().unwrap();
        let mut b = rt.session().unwrap();
        let err = catch_unwind(AssertUnwindSafe(|| a.submit(1, 99, 0))).unwrap_err();
        assert!(message(err).contains("unknown opcode 99"), "{backend:?}");

        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let r = catch_unwind(AssertUnwindSafe(|| b.submit(1, keyed_counter_ops::ADD, 1)));
            let _ = tx.send(r.map_err(message));
        });
        let got = rx
            .recv_timeout(Duration::from_secs(3))
            .unwrap_or_else(|_| panic!("{backend:?}: session B got no answer within 3 s: wedged"));
        waiter.join().expect("session B's panic was caught");
        let msg = got.expect_err("a poisoned shard must not serve B");
        assert!(msg.contains("LOCK poisoned"), "{backend:?}: {msg}");
    }
}

/// An adaptive shard has one poison flag for its three modes: after a
/// dispatch panic in Lock mode, a switch to Comb or to Mp mode must not let
/// the shard serve on its possibly torn state. The whole sequence runs under
/// a watchdog, so a wedge (a switch waiting for the panicked op's slot, a
/// session waiting for a reply) fails the test instead of hanging it.
#[test]
fn lock_mode_poison_follows_the_adaptive_shard_into_every_mode() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let results = watchdog("poisoned adaptive shard", 10, || {
        let rt = keyed_runtime(small(Backend::Adaptive, 1, 2));
        assert!(rt.force_backend(0, Backend::Lock));
        let mut a = rt.session().unwrap();
        let mut b = rt.session().unwrap();
        let err = catch_unwind(AssertUnwindSafe(|| a.submit(1, 99, 0))).unwrap_err();
        assert!(message(err).contains("unknown opcode 99"));
        [Backend::Comb, Backend::MpServer].map(|mode| {
            assert!(rt.force_backend(0, mode));
            let r = catch_unwind(AssertUnwindSafe(|| b.submit(1, keyed_counter_ops::ADD, 1)));
            (mode, r.map_err(message))
        })
    });
    for (mode, got) in results {
        let msg = got.expect_err("a poisoned shard must not serve, in any mode");
        assert!(msg.contains("poisoned"), "{mode:?}: {msg}");
    }
}

/// A dispatch panic on a serving thread poisons its MP-SERVER shard instead
/// of killing the thread: the session whose op panicked gets the dispatch's
/// message instead of waiting forever for a reply, a later submit or batch
/// to the shard panics before it sends, a session on the other shard is still
/// served (by the same thread on a host with few CPUs, by its own on a
/// bigger one), and shutdown refuses the poisoned state. Under a watchdog,
/// so a wedge fails the test instead of hanging it.
#[test]
fn mp_dispatch_panic_poisons_the_shard_instead_of_wedging_it() {
    use mpsync::runtime::Session;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    for (backend, shards) in [
        (Backend::MpServer, 1),
        (Backend::MpServer, 2),
        (Backend::Adaptive, 2),
    ] {
        let what = format!("{backend:?} with {shards} shards");
        let (a, b, other, shutdown) = watchdog("poisoned MP-SERVER shard", 10, move || {
            let rt = keyed_runtime(small(backend, shards, 2));
            if backend == Backend::Adaptive {
                (0..shards).for_each(|s| assert!(rt.force_backend(s, Backend::MpServer)));
            }
            let submit = |s: &mut Session, key, op| {
                catch_unwind(AssertUnwindSafe(|| s.submit(key, op, 1))).map_err(message)
            };
            let (mut a, mut b) = (rt.session().unwrap(), rt.session().unwrap());
            let a_got = submit(&mut a, 0, 99);
            let b_got = submit(&mut b, 0, keyed_counter_ops::ADD);
            let batch = [(0, keyed_counter_ops::ADD, 1)];
            let b_batch = catch_unwind(AssertUnwindSafe(|| b.apply_fanout(&batch)));
            let other = (0..64)
                .find(|&key| rt.shard_of(key) != rt.shard_of(0))
                .map(|key| submit(&mut a, key, keyed_counter_ops::ADD));
            drop((a, b));
            let shutdown = catch_unwind(AssertUnwindSafe(|| drop(rt.shutdown())));
            let b = [b_got.map(|_| ()), b_batch.map(|_| ()).map_err(message)];
            (a_got, b, other, shutdown.map_err(message))
        });
        let msg = a.expect_err("the op that panicked has no result");
        assert!(msg.contains("unknown opcode 99"), "{what}: {msg}");
        for got in b {
            let msg = got.expect_err("a poisoned shard must not serve B");
            assert!(msg.contains("poisoned"), "{what}: {msg}");
        }
        if shards > 1 {
            assert_eq!(other, Some(Ok(Ok(1))), "{what}: the other shard is served");
        }
        let msg = shutdown.expect_err("shutdown must refuse a poisoned shard");
        assert!(msg.contains("poisoned"), "{what}: {msg}");
    }
}

/// A panic payload's message.
fn message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// External drive: `Runtime::drive_externally` stops an MP-SERVER runtime's
// rt-serve threads and hands each shard's executor out as a ShardDriver; the
// owner's event loop becomes the paper's servicing core.
// ---------------------------------------------------------------------------

/// An MP-SERVER runtime converted to external drive.
fn driven_runtime(config: RuntimeConfig) -> Keyed {
    let mut rt = keyed_runtime(config);
    rt.drive_externally();
    rt
}

/// Each shard's driver is handed out exactly once, and submissions complete
/// precisely when the owner ticks. The self-driving form (`submit_with`
/// ticking one's own driver) must make progress single-threadedly.
#[test]
fn externally_driven_runtime_hands_out_each_shard_once_and_ticks_serve() {
    let rt = driven_runtime(small(Backend::MpServer, 2, 4));
    let mut d0 = rt.take_driver(0).expect("shard 0 driver");
    let mut d1 = rt.take_driver(1).expect("shard 1 driver");
    assert_eq!((d0.shard(), d1.shard()), (0, 1));
    assert!(rt.take_driver(0).is_none(), "drivers are single-take");
    assert!(rt.take_driver(1).is_none());
    assert!(rt.take_driver(99).is_none(), "out of range is None");

    // Self-drive: one thread owns both drivers and a session; ticking from
    // the idle hook serves its own submissions. Keys 0 and 1 land on shards
    // 0 and 1 respectively under 2-shard striping.
    let mut s = rt.session().expect("session");
    for i in 0..50u64 {
        let idle = || {
            d0.tick();
            d1.tick();
        };
        let pre = s
            .submit_with(i % 2, keyed_counter_ops::INC, 0, idle)
            .expect("submit");
        assert_eq!(pre, i / 2);
    }
    drop(s);
    // Shutdown must recover the shard state parked by the dropped drivers.
    drop(d0);
    drop(d1);
    let states = rt.shutdown().states;
    assert_eq!(states[0].get(&0), Some(&25));
    assert_eq!(states[1].get(&1), Some(&25));
}

/// Cross-drive under contention: two threads each own one shard's driver
/// and submit to *both* shards, ticking their own shard while waiting on
/// the other — the deadlock-avoidance discipline of `submit_with`. Every
/// op must complete and count exactly once.
#[test]
fn externally_driven_cross_shard_waiters_make_progress() {
    const OPS: u64 = 200;
    let rt = Arc::new(driven_runtime(
        small(Backend::MpServer, 2, 4).with_queue_depth(2),
    ));
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let submitting = Arc::new(std::sync::atomic::AtomicUsize::new(2));
    let mut threads = Vec::new();
    for shard in 0..2usize {
        let rt = rt.clone();
        let barrier = barrier.clone();
        let submitting = submitting.clone();
        threads.push(std::thread::spawn(move || {
            let mut driver = rt.take_driver(shard).expect("driver");
            let mut s = rt.session().expect("session");
            barrier.wait();
            for i in 0..OPS {
                // Alternate own-shard and cross-shard keys (0 → shard 0,
                // 1 → shard 1); always tick our own shard while waiting.
                let key = (shard as u64 + i) % 2;
                s.submit_with(key, keyed_counter_ops::INC, 0, || {
                    driver.tick();
                })
                .expect("submit");
            }
            drop(s);
            // Keep serving our shard while the other thread may still
            // submit to it (its last op is a cross-shard one), then
            // quiesce before releasing the core.
            submitting.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
            while submitting.load(std::sync::atomic::Ordering::SeqCst) > 0 {
                driver.tick();
            }
            while driver.tick() > 0 {}
        }));
    }
    for t in threads {
        t.join().expect("thread");
    }
    let rt = Arc::try_unwrap(rt).ok().expect("sole owner");
    let states = rt.shutdown().states;
    assert_eq!(
        states[0].get(&0).copied().unwrap_or(0) + states[1].get(&1).copied().unwrap_or(0),
        2 * OPS,
        "every cross-driven op applied exactly once"
    );
}

/// A live threaded MP-SERVER runtime becomes an externally driven one: the
/// serving threads are gone, the session opened before keeps working, what
/// it had queued is served by a tick — once — and nothing is served without
/// one; each shard's driver comes out once; a second conversion changes
/// nothing; shutdown gets every state back when the drivers drop.
#[test]
fn drive_externally_hands_a_live_runtime_to_its_caller() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    watchdog("conversion under load", 60, || {
        let mut rt = keyed_runtime(small(Backend::MpServer, 2, 4));
        assert!(rt.stats().server_threads >= 1);
        assert!(rt.take_driver(0).is_none(), "threaded: nothing to take");

        // The early session hammers key 0 (shard 0) from its own thread, one
        // op outstanding at a time; every pre-value must be the next integer.
        let mut early = rt.session().expect("session");
        let (done, stop) = (
            Arc::new(AtomicU64::new(0)),
            Arc::new(AtomicBool::new(false)),
        );
        let hammer = {
            let (done, stop) = (done.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    assert_eq!(early.submit(0, keyed_counter_ops::INC, 0).unwrap(), n);
                    n += 1;
                    done.store(n, Ordering::Relaxed);
                }
                n
            })
        };
        while done.load(Ordering::Relaxed) < 100 {
            std::thread::yield_now();
        }

        rt.drive_externally();
        // The threads are joined: what they executed no longer moves, and
        // the hammer's next request waits in shard 0's queue.
        let by_threads = rt.stats().shards[0].ops;
        assert_eq!(rt.stats().server_threads, 0);
        let mut d0 = rt.take_driver(0).expect("shard 0 driver");
        let mut d1 = rt.take_driver(1).expect("shard 1 driver");
        assert!(rt.take_driver(0).is_none() && rt.take_driver(1).is_none());
        rt.drive_externally();
        assert!(rt.take_driver(0).is_none(), "a second call changes nothing");
        assert_eq!(rt.stats().server_threads, 0);

        // The first tick that finds the queued request serves exactly it.
        let mut by_ticks = loop {
            match d0.tick() {
                0 => std::thread::yield_now(),
                n => break n,
            }
        };
        assert_eq!(by_ticks, 1);
        while done.load(Ordering::Relaxed) < by_threads + 200 {
            by_ticks += d0.tick();
        }
        // A session opened afterwards, driven by its own thread, on shard 1.
        let mut late = rt.session().expect("session");
        for i in 0..50 {
            let pre = late.submit_with(1, keyed_counter_ops::INC, 0, || {
                by_ticks += d0.tick();
                d1.tick();
            });
            assert_eq!(pre.unwrap(), i);
        }
        drop(late);
        stop.store(true, Ordering::Relaxed);
        while !hammer.is_finished() {
            by_ticks += d0.tick();
        }
        let hammered = hammer.join().expect("hammer");
        assert_eq!(hammered, by_threads + by_ticks, "each request served once");

        drop((d0, d1));
        let report = rt.shutdown();
        assert_eq!(report.states[0].get(&0), Some(&hammered));
        assert_eq!(report.states[1].get(&1), Some(&50));
        assert_eq!(report.stats.total_ops(), hammered + 50);
    });
}

/// The conversion only concerns threaded MP-SERVER runtimes: the inline
/// backends and Adaptive never give a driver out — before or after the
/// call, they keep executing their shards themselves — and a runtime already
/// externally driven keeps its drivers where they are.
#[test]
fn drive_externally_leaves_every_other_runtime_as_it_was() {
    watchdog("conversion of other backends", 60, || {
        let others = [Backend::Lock, Backend::Comb, Backend::Adaptive];
        for backend in others {
            let mut rt = keyed_runtime(small(backend, 2, 2));
            let threads = rt.stats().server_threads;
            assert!(rt.take_driver(0).is_none(), "{backend:?}");
            rt.drive_externally();
            assert_eq!(rt.stats().server_threads, threads, "{backend:?}");
            assert!(rt.take_driver(0).is_none(), "{backend:?}");
            let mut s = rt.session().expect("session");
            for key in [0, 1] {
                assert_eq!(s.submit(key, keyed_counter_ops::INC, 0).unwrap(), 0);
            }
            drop(s);
            assert_eq!(rt.shutdown().stats.total_ops(), 2, "{backend:?}");
        }

        let mut driven = driven_runtime(small(Backend::MpServer, 2, 2));
        let taken = driven.take_driver(0).expect("shard 0 driver");
        driven.drive_externally();
        assert!(driven.take_driver(0).is_none(), "still out");
        assert!(driven.take_driver(1).is_some(), "still there, then dropped");
        drop(taken);
        assert_eq!(driven.shutdown().states.len(), 2);
    });
}

// ---------------------------------------------------------------------------
// Serving threads: shards are units of state and ordering, threads are units
// of CPU — a runtime serves its MP-SERVER shards from
// min(shards, max(1, CPUs − 1)) threads, CPUs being those the *building*
// thread may run on: the callers need one.
// ---------------------------------------------------------------------------

/// A four-shard store built under a one-CPU mask is served by one thread
/// (the shape the benchmark's partitioned workloads have), and so is one
/// built under a two-CPU mask; the same build without a mask leaves one of
/// the host's CPUs to the callers. Either way a mixed load from two sessions
/// runs correctly and shutdown returns every effect once.
#[cfg(target_os = "linux")]
#[test]
fn serving_threads_follow_the_builders_cpu_mask() {
    use std::os::raw::c_int;
    extern "C" {
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    }
    /// Narrows the calling thread's CPU mask to its `n` lowest allowed CPUs.
    fn pin_to_lowest_cpus(n: usize) {
        let mut mask = [0u64; 16]; // cpu_set_t: 1024 bits
        let size = std::mem::size_of_val(&mask);
        // SAFETY: pid 0 = calling thread; the buffer matches the stated size
        // and outlives the call.
        assert!(unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } >= 0);
        let mut left = n;
        for word in &mut mask {
            let allowed = std::mem::take(word);
            for bit in (0..64).filter(|b| allowed >> b & 1 == 1).take(left) {
                *word |= 1 << bit;
                left -= 1;
            }
        }
        assert_eq!(left, 0, "fewer than {n} CPUs allowed");
        // SAFETY: as above.
        assert_eq!(unsafe { sched_setaffinity(0, size, mask.as_ptr()) }, 0);
    }
    const KEYS: u64 = 64;
    const ROUNDS: u64 = 50;
    /// Two sessions on disjoint keys spread over every shard: counters that
    /// must read back exactly, and keys put and deleted again.
    fn mixed_load(kv: ShardedKvStore) {
        let kv = Arc::new(kv);
        let workers: Vec<_> = (0..2u64)
            .map(|who| {
                let kv = kv.clone();
                std::thread::spawn(move || {
                    let mut s = kv.session().expect("session");
                    for round in 1..=ROUNDS {
                        for key in (who..KEYS).step_by(2) {
                            assert_eq!(s.add(key, key + 1).unwrap(), round * (key + 1));
                            let scratch = KEYS + key;
                            assert_eq!(s.put(scratch, round).unwrap(), None);
                            assert_eq!(s.get(scratch).unwrap(), Some(round));
                            assert_eq!(s.del(scratch).unwrap(), Some(round));
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        let kv = Arc::try_unwrap(kv).ok().expect("sole owner");
        let shards_used: std::collections::HashSet<_> = (0..KEYS).map(|k| kv.shard_of(k)).collect();
        assert_eq!(
            shards_used.len(),
            kv.shards(),
            "the load reaches every shard"
        );
        let (map, stats) = kv.shutdown();
        let expect: std::collections::HashMap<u64, u64> =
            (0..KEYS).map(|k| (k, ROUNDS * (k + 1))).collect();
        assert_eq!(map, expect, "every effect applied exactly once");
        assert_eq!(stats.total_ops(), 4 * KEYS * ROUNDS);
    }
    // The watchdog's worker thread takes the mask, so it ends with the test.
    watchdog("four shards under a one-CPU mask", 60, || {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let config = || small(Backend::MpServer, 4, 2);
        let unpinned = ShardedKvStore::new(config());
        assert_eq!(unpinned.stats().server_threads, (cpus - 1).clamp(1, 4));
        mixed_load(unpinned);

        if cpus >= 2 {
            pin_to_lowest_cpus(2);
            let two = ShardedKvStore::new(config());
            assert_eq!(two.stats().server_threads, 1, "one CPU is the callers'");
            mixed_load(two);
        }
        pin_to_lowest_cpus(1);
        let pinned = ShardedKvStore::new(config());
        assert_eq!(pinned.stats().server_threads, 1);
        assert_eq!(
            ShardedKvStore::new(config().with_backend(Backend::Adaptive))
                .stats()
                .server_threads,
            1
        );
        for inline in [Backend::Lock, Backend::Comb] {
            let stats = ShardedKvStore::new(config().with_backend(inline)).stats();
            assert_eq!(stats.server_threads, 0, "{inline:?} spawns no thread");
        }
        let mut driven = ShardedKvStore::new(config());
        driven.drive_externally();
        assert_eq!(
            driven.stats().server_threads,
            0,
            "external drive keeps no thread"
        );
        mixed_load(pinned);
    });
}

// ---------------------------------------------------------------------------
// Split-phase submission: `submit_batch` is `submit` one by one, per key —
// and a session holding uncollected replies never waits (the hold-and-wait
// tests below hang without that rule, so each runs under a watchdog that
// fails instead).
// ---------------------------------------------------------------------------

type Keyed = Runtime<KeyedCounters, fn(&mut KeyedCounters, u64, u64, u64) -> u64>;

fn keyed_runtime(config: RuntimeConfig) -> Keyed {
    Runtime::new(config, |_| KeyedCounters::new(), keyed_counter_dispatch)
}

/// Runs `f` on its own thread and fails — instead of hanging the suite — if
/// it has not finished after `secs` seconds.
fn watchdog<T: Send + 'static>(what: &str, secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: still running after {secs} s (deadlock)"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: worker panicked"),
    }
}

/// The executors a batch must behave identically on: every fixed backend,
/// and Adaptive twice — in its initial lock mode (inline) and pinned to its
/// server (wire).
fn batch_runtimes(shards: usize) -> Vec<(String, Keyed)> {
    let mut rts: Vec<(String, Keyed)> = Backend::ALL
        .iter()
        .map(|&b| (format!("{b:?}"), keyed_runtime(small(b, shards, 2))))
        .collect();
    for pin_mp in [false, true] {
        let rt = keyed_runtime(small(Backend::Adaptive, shards, 2));
        let pin = if pin_mp {
            Backend::MpServer
        } else {
            Backend::Lock
        };
        for s in 0..shards {
            assert!(rt.force_backend(s, pin));
        }
        rts.push((format!("Adaptive(mp={pin_mp})"), rt));
    }
    rts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Keyed-counter ops on different keys commute, so "the same per key"
    /// is positional equality with the one-by-one run, plus equal states.
    #[test]
    fn submit_batch_equals_submit_one_by_one(
        shards in 1usize..4,
        // (key 0..7, op INC/ADD/GET, arg 1..100) out of one integer.
        ops in prop::collection::vec(
            (0u64..7 * 3 * 99).prop_map(|x| (x % 7, x / 7 % 3, 1 + x / 21)), 0..40),
    ) {
        let one_by_one = keyed_runtime(small(Backend::Lock, shards, 1));
        let mut s = one_by_one.session().unwrap();
        let want: Vec<_> = ops.iter().map(|&(k, op, arg)| s.submit(k, op, arg)).collect();
        drop(s);
        let want_states = one_by_one.shutdown().states;
        for (name, rt) in batch_runtimes(shards) {
            let mut s = rt.session().unwrap();
            let mut got = vec![Ok(77)]; // stale contents must be cleared
            s.submit_batch(&ops, &mut got);
            drop(s);
            prop_assert_eq!(&got, &want, "{}: positional results", name);
            prop_assert_eq!(&rt.shutdown().states, &want_states, "{}: final states", name);
        }
    }
}

/// What one session saw in the hold-and-wait runs: per key, the pre-values
/// of its `Ok` INCs in submission order, plus how many ops came back
/// `Busy` / `Closed`.
#[derive(Default)]
struct Seen {
    ok: std::collections::HashMap<u64, Vec<u64>>,
    busy: u64,
    closed: u64,
}

impl Seen {
    /// Submits `batches` 64-op INC batches spread over `keys` (which cover
    /// both shards) and records every slot.
    fn drive(session: &mut mpsync::runtime::Session, keys: &[u64], batches: usize) -> Seen {
        let mut seen = Seen::default();
        let ops: Vec<(u64, u64, u64)> = (0..64)
            .map(|i| (keys[i % keys.len()], keyed_counter_ops::INC, 0))
            .collect();
        let mut out = Vec::new();
        for _ in 0..batches {
            session.submit_batch(&ops, &mut out);
            assert_eq!(out.len(), ops.len());
            for (&(key, _, _), r) in ops.iter().zip(&out) {
                match r {
                    Ok(pre) => seen.ok.entry(key).or_default().push(*pre),
                    Err(RuntimeError::Busy) => seen.busy += 1,
                    Err(RuntimeError::Closed) => seen.closed += 1,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
        seen
    }

    fn oks(&self) -> u64 {
        self.ok.values().map(|v| v.len() as u64).sum()
    }

    /// Per-key FIFO as a session can observe it: the pre-values of its own
    /// INCs on a key rise strictly.
    fn assert_fifo(&self, who: &str) {
        for (key, pres) in &self.ok {
            assert!(
                pres.windows(2).all(|w| w[0] < w[1]),
                "{who}: key {key} pre-values not strictly rising: {pres:?}"
            );
        }
    }
}

/// Two sessions, each driving 64-op batches over both shards of `rt` from
/// its own thread (released together by a barrier, so their chunks do
/// contend for the 4-slot windows). Returns what each saw.
fn two_sessions_batching(rt: &Arc<Keyed>, batches: usize) -> Vec<Seen> {
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let joins: Vec<_> = (0..2)
        .map(|_| {
            let mut s = rt.session().expect("session budget");
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                Seen::drive(&mut s, &[0, 1, 2, 3], batches)
            })
        })
        .collect();
    joins.into_iter().map(|j| j.join().unwrap()).collect()
}

/// Effects match the `Ok`s exactly: each key's final count is the number of
/// `Ok` INCs on it, and the pre-values all sessions saw for it are 0..n.
fn assert_effects_match(seen: &[Seen], rt: Arc<Keyed>) {
    let report = Arc::into_inner(rt).expect("sessions dropped").shutdown();
    let mut pres: std::collections::HashMap<u64, Vec<u64>> = Default::default();
    for s in seen {
        for (k, v) in &s.ok {
            pres.entry(*k).or_default().extend(v);
        }
    }
    let total: u64 = seen.iter().map(Seen::oks).sum();
    assert_eq!(report.stats.total_ops(), total, "stats agree with the Oks");
    for (key, mut got) in pres {
        got.sort_unstable();
        let n = got.len() as u64;
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "key {key}: exactly once");
        let applied = report.states.iter().find_map(|m| m.get(&key).copied());
        assert_eq!(applied, Some(n), "key {key}: final count");
    }
}

/// Block policy, `queue_depth` 4, two sessions × 64-op batches over both
/// shards: each session fills part of a window and needs more. Deadlocks if
/// admission ever waits while the session holds uncollected replies.
#[test]
fn batches_never_wait_while_holding_block_policy() {
    watchdog("two batching sessions under Block", 20, || {
        let rt = Arc::new(keyed_runtime(
            small(Backend::MpServer, 2, 2).with_submit(SubmitPolicy::Block),
        ));
        let seen = two_sessions_batching(&rt, 200);
        for (i, s) in seen.iter().enumerate() {
            assert_eq!((s.oks(), s.busy, s.closed), (200 * 64, 0, 0));
            s.assert_fifo(&format!("session {i}"));
        }
        assert_effects_match(&seen, rt);
    });
}

/// The same under Fail: every slot is `Ok` or `Busy`, nothing else, and the
/// effects are exactly the `Ok`s. (Fail never waits on a full window, so
/// without the collect-before-wait rule this fails by refusing the lone
/// session, not by hanging.)
#[test]
fn batches_never_wait_while_holding_fail_policy() {
    watchdog("two batching sessions under Fail", 20, || {
        let rt = Arc::new(keyed_runtime(
            small(Backend::MpServer, 2, 2).with_submit(SubmitPolicy::Fail),
        ));
        // Alone, a session is never Busy: a window full of its own sends is
        // collected, not refused.
        let mut lone = rt.session().unwrap();
        let alone = Seen::drive(&mut lone, &[0, 1, 2, 3], 4);
        drop(lone);
        assert_eq!((alone.oks(), alone.busy), (4 * 64, 0));
        let mut seen = two_sessions_batching(&rt, 200);
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.oks() + s.busy, 200 * 64, "session {i}: ok + busy");
            assert_eq!(s.closed, 0);
            s.assert_fifo(&format!("session {i}"));
        }
        let rejected = rt.stats().total_rejected();
        assert_eq!(rejected, seen.iter().map(|s| s.busy).sum::<u64>());
        seen.push(alone);
        assert_effects_match(&seen, rt);
    });
}

/// Batches in flight across live Lock ↔ Mp swaps of an adaptive runtime: a
/// swap pauses the shard and waits for its window to empty, which a session
/// waiting for the unpause with sends outstanding would never let happen.
#[test]
fn batches_complete_across_adaptive_backend_swaps() {
    watchdog("batches across force_backend swaps", 30, || {
        let rt = Arc::new(keyed_runtime(
            small(Backend::Adaptive, 2, 2).with_submit(SubmitPolicy::Block),
        ));
        for shard in 0..2 {
            assert!(rt.force_backend(shard, Backend::Lock));
        }
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let swapper = {
            let (rt, done) = (rt.clone(), done.clone());
            std::thread::spawn(move || {
                let mut swaps = 0u64;
                for to in [Backend::MpServer, Backend::Lock].into_iter().cycle() {
                    // At least two rounds: sessions that finish before the
                    // scheduler runs this thread must not fail the count.
                    if swaps >= 2 && done.load(std::sync::atomic::Ordering::Acquire) {
                        break;
                    }
                    for shard in 0..2 {
                        assert!(rt.force_backend(shard, to));
                    }
                    swaps += 1;
                }
                swaps
            })
        };
        // Start the batches once the swapper is swapping, so they straddle
        // its swaps.
        while rt.swap_epoch(1) == 0 {
            std::thread::yield_now();
        }
        let seen = two_sessions_batching(&rt, 100);
        done.store(true, std::sync::atomic::Ordering::Release);
        let swaps = swapper.join().unwrap();
        assert!(swaps >= 2, "the run must straddle swaps, saw {swaps}");
        assert!(rt.swap_epoch(0) >= 2);
        for (i, s) in seen.iter().enumerate() {
            assert_eq!((s.oks(), s.busy, s.closed), (100 * 64, 0, 0));
            s.assert_fifo(&format!("session {i}"));
        }
        assert_effects_match(&seen, rt);
    });
}

/// `close()` lands mid-batch: each op was either applied and answered `Ok`
/// or refused `Closed` — never both, never neither — and the shutdown
/// totals agree with the `Ok`s.
#[test]
fn close_mid_batch_is_exactly_once() {
    watchdog("close() under batching sessions", 30, || {
        let rt = Arc::new(keyed_runtime(
            small(Backend::MpServer, 2, 2).with_submit(SubmitPolicy::Block),
        ));
        let closer = {
            let rt = rt.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                rt.close();
            })
        };
        // Far more batches than 20 ms lets through: the close cuts one short.
        let seen = two_sessions_batching(&rt, 100_000);
        closer.join().unwrap();
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.oks() + s.closed, 100_000 * 64, "session {i}: ok + closed");
            assert_eq!(s.busy, 0);
            assert!(
                s.oks() > 0 && s.closed > 0,
                "session {i}: close landed mid-run"
            );
            s.assert_fifo(&format!("session {i}"));
        }
        assert_effects_match(&seen, rt);
    });
}
