//! Integration and property tests of the simulator as a whole: determinism
//! across the full pipeline, metric conservation identities, and config
//! monotonicity (costlier machines are never faster).

use proptest::prelude::*;
use tilesim::algos::Approach;
use tilesim::workload::{max_threads, run_counter, run_queue_onelock, servicing_core};
use tilesim::{CoreStats, MachineConfig, Metric};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The whole counter pipeline is a pure function of (approach, threads,
    /// max_ops, seed).
    #[test]
    fn counter_runs_deterministic(
        threads in 1usize..12,
        max_ops in 1u64..300,
        seed in any::<u64>(),
    ) {
        for a in Approach::ALL {
            let r1 = run_counter(MachineConfig::tile_gx8036(), a, threads, max_ops, 60_000, seed);
            let r2 = run_counter(MachineConfig::tile_gx8036(), a, threads, max_ops, 60_000, seed);
            prop_assert_eq!(r1.metric_sum(Metric::Ops), r2.metric_sum(Metric::Ops));
            prop_assert_eq!(r1.metric_sum(Metric::LatSum), r2.metric_sum(Metric::LatSum));
            let stalls1: u64 = r1.per_core.iter().map(|c| c.stall).sum();
            let stalls2: u64 = r2.per_core.iter().map(|c| c.stall).sum();
            prop_assert_eq!(stalls1, stalls2);
        }
    }

    /// Metric identities: latency samples equal completed ops; served ops
    /// cover completed ops (a few may be in flight at teardown).
    #[test]
    fn metric_identities(threads in 1usize..10, seed in any::<u64>()) {
        for a in Approach::ALL {
            let r = run_counter(MachineConfig::tile_gx8036(), a, threads, 100, 60_000, seed);
            let ops = r.metric_sum(Metric::Ops);
            prop_assert_eq!(r.metric_sum(Metric::LatCount), ops);
            let served = r.metric_sum(Metric::Served);
            prop_assert!(served >= ops, "served {} < ops {}", served, ops);
            prop_assert!(served <= ops + 2 * threads as u64 + 2,
                "served {} way beyond ops {}", served, ops);
        }
    }
}

/// Golden pin of the benchmark's round (`sim-counter36`): model figures
/// recorded from the thread-per-proc engine this one replaced, and again
/// before spins ran inside the engine. The cycle sums are the trace-length
/// check: they cover every operation every core issued, spin reads
/// included, so a match means the same trace, not merely the same totals.
#[test]
fn counter36_round_matches_the_threaded_engine() {
    let cfg = MachineConfig::tile_gx8036();
    // (approach, Ops, end_clock, servicing core's stall cycles, and the
    // sums over cores of mem_ops, busy and idle)
    let golden = [
        (Approach::MpServer, 1813, 20_035, 18, 3_630, 75_728, 639_214),
        (
            Approach::HybComb,
            632,
            20_030,
            8_684,
            5_342,
            65_182,
            319_557,
        ),
        (Approach::ShmServer, 262, 20_030, 16_334, 24_308, 691_641, 0),
        (Approach::CcSynch, 242, 20_031, 13_618, 24_694, 670_502, 0),
    ];
    // Host-side, not part of the model: proc-body resumptions, which engine-
    // run spins do not add to. Pinned so a change in how the engine steps
    // the same trace is noticed.
    let handoffs = [12_766, 8_055, 3_845, 4_940];
    for ((a, ops, end_clock, stall, mem_ops, busy, idle), handoffs) in
        golden.into_iter().zip(handoffs)
    {
        let r = run_counter(cfg, a, max_threads(&cfg, a), 200, 20_000, 1);
        let sum = |f: fn(&CoreStats) -> u64| r.per_core.iter().map(f).sum::<u64>();
        let got = (
            r.metric_sum(Metric::Ops),
            r.end_clock,
            r.per_core[servicing_core(&r)].stall,
            sum(|c| c.mem_ops),
            sum(|c| c.busy),
            sum(|c| c.idle),
        );
        assert_eq!(
            got,
            (ops, end_clock, stall, mem_ops, busy, idle),
            "{}",
            a.label()
        );
        assert_eq!(r.host.handoffs, handoffs, "{} handoffs", a.label());
    }
}

/// The runtime's serving step on the simulator: one server proc steps
/// `mpsync-core`'s `serve_pending` with a budget of 2 until it has served
/// every request, and eight client procs each `request` three
/// fetch-and-increments. The results are a permutation of 0..24, no step
/// serves more than its budget, and some step serves a full batch.
#[test]
fn batched_mp_server_step_serves_each_request_once() {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use mpsync_core::mp_server::{request, serve_pending};
    use tilesim::algos::{AddrAlloc, CsBody};
    use tilesim::Engine;

    const CLIENTS: usize = 8;
    const EACH: u64 = 3;
    const BUDGET: u64 = 2;
    let total = CLIENTS as u64 * EACH;
    let mut engine = Engine::new(MachineConfig::tile_gx8036());
    let body = CsBody::Counter {
        addr: AddrAlloc::new().line(),
    };
    let largest = Rc::new(Cell::new(0));
    let results = Rc::new(RefCell::new(Vec::new()));
    let server = {
        let largest = Rc::clone(&largest);
        engine.add_proc(async move |ctx| {
            let mut served = 0;
            while served < total {
                let n = serve_pending(ctx, &body, &mut (), BUDGET).await;
                largest.set(largest.get().max(n));
                served += n;
                if n == 0 {
                    ctx.work(10).await;
                }
            }
        })
    };
    for _ in 0..CLIENTS {
        let results = Rc::clone(&results);
        engine.add_proc(async move |ctx| {
            for _ in 0..EACH {
                let ret = request(ctx, server as u64, 0, 0).await;
                results.borrow_mut().push(ret);
            }
        });
    }
    engine.run(1_000_000);
    let mut got = results.take();
    got.sort_unstable();
    assert_eq!(got, (0..total).collect::<Vec<u64>>());
    assert_eq!(largest.get(), BUDGET, "the largest step");
}

/// Doubling every memory cost must not increase counter throughput.
#[test]
fn costlier_machine_is_not_faster() {
    let base = MachineConfig::tile_gx8036();
    let slow = MachineConfig {
        rmr_base: base.rmr_base * 2,
        coherence_extra: base.coherence_extra * 2,
        ctrl_op: base.ctrl_op * 2,
        ctrl_occupancy_same: base.ctrl_occupancy_same * 2,
        ctrl_occupancy_switch: base.ctrl_occupancy_switch * 2,
        ..base
    };
    for a in Approach::ALL {
        let fast = run_counter(base, a, 8, 200, 120_000, 3).mops();
        let slower = run_counter(slow, a, 8, 200, 120_000, 3).mops();
        assert!(
            slower <= fast * 1.02,
            "{}: {slower:.1} Mops on a costlier machine vs {fast:.1}",
            a.label()
        );
    }
}

/// The sequential-queue invariant holds inside the simulator: dequeue
/// results never exceed enqueues (conservation is visible through the Ops
/// metric balance of the alternate workload).
#[test]
fn queue_workload_balance() {
    let r = run_queue_onelock(
        MachineConfig::tile_gx8036(),
        Approach::MpServer,
        6,
        200,
        120_000,
        9,
    );
    let ops = r.metric_sum(Metric::Ops);
    assert!(ops > 1_000);
    // Balanced generator: enqueues and dequeues within one per thread.
    // (Ops counts both; the workload alternates strictly.)
    let served = r.metric_sum(Metric::Served);
    assert!(served >= ops);
}

/// Throughput grows (or at worst saturates) with offered load for the
/// server approaches.
#[test]
fn server_throughput_monotone_under_load() {
    let cfg = MachineConfig::tile_gx8036();
    let mut last = 0.0;
    for threads in [1, 2, 4, 8, 16] {
        let m = run_counter(cfg, Approach::MpServer, threads, 200, 120_000, 5).mops();
        assert!(
            m >= last * 0.95,
            "throughput regressed when adding load: {last:.1} -> {m:.1} at {threads}"
        );
        last = m;
    }
}
