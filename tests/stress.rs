//! Heavier cross-crate stress tests: sustained contention, combining-bound
//! edge cases, back-pressure under message bursts, and mixed-object
//! workloads. Sizes are tuned to stay meaningful on small hosts (the CI
//! reference machine has 2 cores) while still forcing many hand-offs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpsync::objects::counter::CsCounter;
use mpsync::objects::queue::{CoarseQueue, CsQueue, Lcrq};
use mpsync::objects::seq::counter_dispatch;
use mpsync::objects::{ConcurrentQueue, Counter, EMPTY};
use mpsync::sync::{ApplyOp, CcSynch, HybComb, MpServer, ShmServer};
use mpsync::udn::{Fabric, FabricConfig, SendError};

type CounterFn = fn(&mut u64, u64, u64) -> u64;
type QueueFn = fn(&mut CoarseQueue, u64, u64) -> u64;

fn assert_permutation(mut all: Vec<u64>, n: u64) {
    all.sort_unstable();
    assert_eq!(all.len() as u64, n, "lost or duplicated results");
    for (i, v) in all.iter().enumerate() {
        assert_eq!(*v, i as u64, "gap in fetch-and-increment results");
    }
}

/// Eight threads, three different combining bounds, one HYBCOMB instance
/// each: exactness must hold at every MAX_OPS.
#[test]
fn hybcomb_max_ops_edge_cases() {
    for max_ops in [1, 2, 7, 1000] {
        const THREADS: usize = 8;
        const OPS: u64 = 2_500;
        let fabric = Arc::new(Fabric::new(FabricConfig::new(2)));
        let hc = Arc::new(HybComb::new(
            THREADS,
            max_ops,
            0u64,
            counter_dispatch as CounterFn,
        ));
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let mut h = hc.handle(fabric.register_any().unwrap());
            joins.push(std::thread::spawn(move || {
                (0..OPS).map(|_| h.apply(0, 0)).collect::<Vec<_>>()
            }));
        }
        let all: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        assert_permutation(all, THREADS as u64 * OPS);
    }
}

/// All four constructions protecting the *same kind* of state, hammered in
/// parallel processes; every one must be exact.
#[test]
fn four_constructions_side_by_side() {
    const THREADS: usize = 4;
    const OPS: u64 = 4_000;
    let fabric = Arc::new(Fabric::new(FabricConfig::new(8)));

    let mp = Arc::new(MpServer::spawn(
        fabric.register_any().unwrap(),
        0u64,
        counter_dispatch as CounterFn,
    ));
    let shm = Arc::new(ShmServer::spawn(
        THREADS,
        0u64,
        counter_dispatch as CounterFn,
    ));
    let hyb = Arc::new(HybComb::new(
        THREADS,
        64,
        0u64,
        counter_dispatch as CounterFn,
    ));
    let cc = Arc::new(CcSynch::new(
        THREADS,
        64,
        0u64,
        counter_dispatch as CounterFn,
    ));

    let mut joins = Vec::new();
    for _ in 0..THREADS {
        let mut c_mp = CsCounter::new(mp.client(fabric.register_any().unwrap()));
        let mut c_shm = CsCounter::new(shm.client());
        let mut c_hyb = CsCounter::new(hyb.handle(fabric.register_any().unwrap()));
        let mut c_cc = CsCounter::new(cc.handle());
        joins.push(std::thread::spawn(move || {
            let mut sums = (0u64, 0u64, 0u64, 0u64);
            for _ in 0..OPS {
                sums.0 = sums.0.wrapping_add(c_mp.fetch_inc());
                sums.1 = sums.1.wrapping_add(c_shm.fetch_inc());
                sums.2 = sums.2.wrapping_add(c_hyb.fetch_inc());
                sums.3 = sums.3.wrapping_add(c_cc.fetch_inc());
            }
            sums
        }));
    }
    let mut totals = (0u64, 0u64, 0u64, 0u64);
    for j in joins {
        let s = j.join().unwrap();
        totals.0 = totals.0.wrapping_add(s.0);
        totals.1 = totals.1.wrapping_add(s.1);
        totals.2 = totals.2.wrapping_add(s.2);
        totals.3 = totals.3.wrapping_add(s.3);
    }
    // Sum of 0..N-1 for each construction.
    let n = THREADS as u64 * OPS;
    let expect = n * (n - 1) / 2;
    assert_eq!(totals.0, expect, "MP-SERVER");
    assert_eq!(totals.1, expect, "SHM-SERVER");
    assert_eq!(totals.2, expect, "HYBCOMB");
    assert_eq!(totals.3, expect, "CC-SYNCH");
}

/// Tiny hardware queues force back-pressure inside HYBCOMB's request
/// bursts; correctness must not depend on queue capacity.
#[test]
fn hybcomb_with_tiny_queues() {
    const THREADS: usize = 6;
    const OPS: u64 = 1_500;
    // 9 words = three 3-word requests; far below THREADS outstanding.
    let fabric = Arc::new(Fabric::new(FabricConfig::new(2).with_queue_capacity(9)));
    let hc = Arc::new(HybComb::new(
        THREADS,
        50,
        0u64,
        counter_dispatch as CounterFn,
    ));
    let mut joins = Vec::new();
    for _ in 0..THREADS {
        let mut h = hc.handle(fabric.register_any().unwrap());
        joins.push(std::thread::spawn(move || {
            (0..OPS).map(|_| h.apply(0, 0)).collect::<Vec<_>>()
        }));
    }
    let all: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
    assert_permutation(all, THREADS as u64 * OPS);
}

/// Producer/consumer pipeline across two different queue implementations:
/// values flow Lcrq -> workers -> HYBCOMB queue; nothing lost.
#[test]
fn mixed_queue_pipeline() {
    const ITEMS: u64 = 30_000;
    const WORKERS: usize = 3;
    let fabric = Arc::new(Fabric::new(FabricConfig::new(2)));
    // Both queues have room for every item: the feeder may run alone.
    let input = Arc::new(Lcrq::new(6, 2 * ITEMS / 64, WORKERS as u64 + 1));
    let output = Arc::new(HybComb::new(
        WORKERS + 1,
        64,
        CoarseQueue::new(ITEMS),
        CoarseQueue::dispatch as QueueFn,
    ));

    let done = Arc::new(AtomicU64::new(0));
    let mut joins = Vec::new();
    for _ in 0..WORKERS {
        let mut inq = input.handle();
        let mut outq = CsQueue::new(output.handle(fabric.register_any().unwrap()));
        let done = Arc::clone(&done);
        joins.push(std::thread::spawn(move || {
            while done.load(Ordering::Acquire) < ITEMS {
                if let Some(v) = inq.dequeue() {
                    outq.enqueue(v + 1);
                    done.fetch_add(1, Ordering::AcqRel);
                } else {
                    std::thread::yield_now();
                }
            }
        }));
    }
    {
        let feeder = input.handle();
        let mut feeder = feeder;
        for i in 0..ITEMS {
            feeder.enqueue(i);
        }
    }
    for j in joins {
        j.join().unwrap();
    }
    let mut sink = CsQueue::new(output.handle(fabric.register_any().unwrap()));
    let mut seen: Vec<u64> = Vec::with_capacity(ITEMS as usize);
    while let Some(v) = sink.dequeue() {
        seen.push(v - 1);
    }
    seen.sort_unstable();
    assert_eq!(seen, (0..ITEMS).collect::<Vec<_>>());
}

/// The reserved EMPTY sentinel is rejected where it would be ambiguous.
#[test]
fn empty_sentinel_guard() {
    let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
    let hc = HybComb::new(1, 8, CoarseQueue::new(1), CoarseQueue::dispatch as QueueFn);
    let mut q = CsQueue::new(hc.handle(fabric.register_any().unwrap()));
    q.enqueue(EMPTY - 1); // largest storable value is fine
    assert_eq!(q.dequeue(), Some(EMPTY - 1));
}

/// Fabric exhaustion and double-registration are reported, not UB.
#[test]
fn fabric_capacity_errors() {
    let fabric = Arc::new(Fabric::new(FabricConfig::new(1).with_channels_per_core(2)));
    let a = fabric.register_any().unwrap();
    let _b = fabric.register_any().unwrap();
    assert!(fabric.register_any().is_err());
    let bogus = mpsync::udn::EndpointId::from_index(99);
    assert_eq!(a.send(bogus, &[1]), Err(SendError::NoSuchEndpoint(bogus)));
}
