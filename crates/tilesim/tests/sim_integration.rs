//! Integration and property tests of the simulator as a whole: determinism
//! across the full pipeline, metric conservation identities, and config
//! monotonicity (costlier machines are never faster).

use proptest::prelude::*;
use tilesim::algos::Approach;
use tilesim::workload::{max_threads, run_counter, run_queue_onelock, servicing_core};
use tilesim::{MachineConfig, Metric};

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

/// Golden pin of the benchmark's round (`sim-counter36`): figures recorded
/// from the thread-per-proc engine this one replaced. `handoffs` is the
/// length of the simulated trace, so a match means the same operations were
/// serviced in the same order, not merely the same totals.
#[test]
fn counter36_round_matches_the_threaded_engine() {
    let cfg = MachineConfig::tile_gx8036();
    // (approach, Ops, handoffs, end_clock, servicing core's stall cycles)
    let golden = [
        (Approach::MpServer, 1813, 12_766, 20_035, 18),
        (Approach::HybComb, 632, 10_129, 20_030, 8_684),
        (Approach::ShmServer, 262, 45_389, 20_030, 16_334),
        (Approach::CcSynch, 242, 45_027, 20_031, 13_618),
    ];
    for (a, ops, handoffs, end_clock, stall) in golden {
        let r = run_counter(cfg, a, max_threads(&cfg, a), 200, 20_000, 1);
        let got = (
            r.metric_sum(Metric::Ops),
            r.host.handoffs,
            r.end_clock,
            r.per_core[servicing_core(&r)].stall,
        );
        assert_eq!(got, (ops, handoffs, end_clock, stall), "{}", a.label());
    }
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
