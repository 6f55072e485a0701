//! Integration tests asserting the paper's headline claims on the tilesim
//! machine model — the executable form of EXPERIMENTS.md. Horizons are kept
//! modest; the simulator is deterministic, so these are stable.

use mpsync::tilesim::algos::{Approach, LockKind};
use mpsync::tilesim::workload::{
    max_threads, run_counter, run_counter_fixed, run_counter_lock, run_queue_lcrq,
    run_queue_onelock, run_stack, run_stack_treiber, servicing_core,
};
use mpsync::tilesim::{MachineConfig, Metric, SimResult};

const H: u64 = 200_000;

fn cfg() -> MachineConfig {
    MachineConfig::tile_gx8036()
}

fn stall_frac(r: &SimResult) -> f64 {
    let c = servicing_core(r);
    let s = &r.per_core[c];
    s.stall as f64 / (s.busy + s.stall) as f64
}

/// §5.3 / Figure 3a: MP-SERVER beats SHM-SERVER by a large factor (paper:
/// up to 4.3x) and HYBCOMB clearly beats CC-SYNCH (paper: ~2.5x at high
/// concurrency).
#[test]
fn counter_throughput_ordering() {
    let t = 20;
    let mp = run_counter(cfg(), Approach::MpServer, t, 200, H, 1).mops();
    let hyb = run_counter(cfg(), Approach::HybComb, t, 200, H, 1).mops();
    let shm = run_counter(cfg(), Approach::ShmServer, t, 200, H, 1).mops();
    let cc = run_counter(cfg(), Approach::CcSynch, t, 200, H, 1).mops();
    assert!(mp > 2.0 * shm, "mp {mp:.1} should be >2x shm {shm:.1}");
    assert!(hyb > 1.5 * cc, "hyb {hyb:.1} should be >1.5x cc {cc:.1}");
    assert!(mp >= hyb, "mp {mp:.1} should be >= hyb {hyb:.1}");
    // SHM-SERVER and CC-SYNCH perform similarly (paper's observation).
    let ratio = shm / cc;
    assert!(
        (0.5..2.0).contains(&ratio),
        "shm {shm:.1} and cc {cc:.1} should be in the same league"
    );
}

/// Figure 3b: MP-SERVER has by far the lowest latency; single-thread
/// CC-SYNCH beats single-thread HYBCOMB (one atomic vs three).
#[test]
fn latency_claims() {
    let t = 12;
    let mp = run_counter(cfg(), Approach::MpServer, t, 200, H, 1).avg_latency();
    let shm = run_counter(cfg(), Approach::ShmServer, t, 200, H, 1).avg_latency();
    let cc = run_counter(cfg(), Approach::CcSynch, t, 200, H, 1).avg_latency();
    assert!(
        mp < shm && mp < cc,
        "mp latency {mp:.0} must be lowest ({shm:.0}, {cc:.0})"
    );

    let hyb1 = run_counter(cfg(), Approach::HybComb, 1, 200, H, 1).avg_latency();
    let cc1 = run_counter(cfg(), Approach::CcSynch, 1, 200, H, 1).avg_latency();
    assert!(
        cc1 < hyb1,
        "single-thread CC-Synch ({cc1:.0}cy) must beat HybComb ({hyb1:.0}cy)"
    );
}

/// Figure 3c: HYBCOMB's throughput keeps growing with MAX_OPS long after
/// CC-SYNCH has saturated.
#[test]
fn max_ops_scaling() {
    let t = 20;
    let hyb_small = run_counter(cfg(), Approach::HybComb, t, 10, H, 1).mops();
    let hyb_big = run_counter(cfg(), Approach::HybComb, t, 1000, H, 1).mops();
    assert!(
        hyb_big > 1.2 * hyb_small,
        "HybComb must gain from larger MAX_OPS: {hyb_small:.1} -> {hyb_big:.1}"
    );
    let cc_mid = run_counter(cfg(), Approach::CcSynch, t, 200, H, 1).mops();
    let cc_big = run_counter(cfg(), Approach::CcSynch, t, 1000, H, 1).mops();
    assert!(
        cc_big < 1.25 * cc_mid,
        "CC-Synch should gain little beyond 200: {cc_mid:.1} -> {cc_big:.1}"
    );
}

/// Figure 4a: stalls dominate the shared-memory servicing threads and
/// virtually disappear with hardware message passing.
#[test]
fn stall_breakdown() {
    let t = 20;
    let mp = run_counter_fixed(cfg(), Approach::MpServer, t, H, 1);
    let hyb = run_counter_fixed(cfg(), Approach::HybComb, t, H, 1);
    let shm = run_counter_fixed(cfg(), Approach::ShmServer, t, H, 1);
    let cc = run_counter_fixed(cfg(), Approach::CcSynch, t, H, 1);
    assert!(stall_frac(&mp) < 0.1, "mp stall frac {}", stall_frac(&mp));
    assert!(
        stall_frac(&hyb) < 0.2,
        "hyb stall frac {}",
        stall_frac(&hyb)
    );
    assert!(
        stall_frac(&shm) > 0.5,
        "shm stall frac {}",
        stall_frac(&shm)
    );
    assert!(stall_frac(&cc) > 0.5, "cc stall frac {}", stall_frac(&cc));
    // The paper's magnitudes: ~10 cycles/op for mp-server, ~50+ for the
    // shared-memory approaches.
    let mp_total = mp.cycles_per_served_op(servicing_core(&mp));
    let shm_total = shm.cycles_per_served_op(servicing_core(&shm));
    assert!(mp_total < 20.0, "mp-server cycles/op {mp_total:.1}");
    assert!(shm_total > 35.0, "shm-server cycles/op {shm_total:.1}");
}

/// Figure 4b: the combining rate starts near (threads - 1) and is bounded
/// by MAX_OPS; HYBCOMB tracks CC-SYNCH from below (orphan rounds).
#[test]
fn combining_rate_dynamics() {
    let low = run_counter(cfg(), Approach::CcSynch, 2, 200, H, 1);
    let rate = low.combining_rate();
    assert!(
        (1.0..=8.0).contains(&rate),
        "at 2 threads the combining rate should be small, got {rate:.1}"
    );
    let high_cc = run_counter(cfg(), Approach::CcSynch, 30, 200, 400_000, 1);
    let high_hyb = run_counter(cfg(), Approach::HybComb, 30, 200, 400_000, 1);
    assert!(
        high_cc.combining_rate() > rate,
        "combining rate must grow with concurrency"
    );
    assert!(high_cc.combining_rate() <= 200.0 + 1.0);
    assert!(high_hyb.combining_rate() <= 200.0 + 1.0);
}

/// §5.3 in-text: HYBCOMB's CAS cost is low and fairness is good.
#[test]
fn cas_and_fairness() {
    let r = run_counter(cfg(), Approach::HybComb, 24, 200, 400_000, 1);
    assert!(r.cas_per_op() < 0.7, "cas/op {}", r.cas_per_op());
    let fair = r.fairness_ratio();
    assert!(fair < 2.0, "HybComb fairness ratio {fair:.2}");
    let mp = run_counter(cfg(), Approach::MpServer, 24, 200, 400_000, 1);
    let fair_mp = mp.fairness_ratio();
    assert!(fair_mp < 1.6, "mp-server fairness ratio {fair_mp:.2}");
}

/// Figure 5a: the MP-SERVER one-lock queue clearly beats the shared-memory
/// one-lock queues and LCRQ at high concurrency.
#[test]
fn queue_winners() {
    let t = 20;
    let mp1 = run_queue_onelock(cfg(), Approach::MpServer, t, 200, H, 1).mops();
    let shm1 = run_queue_onelock(cfg(), Approach::ShmServer, t, 200, H, 1).mops();
    let hyb1 = run_queue_onelock(cfg(), Approach::HybComb, t, 200, H, 1).mops();
    let lcrq = run_queue_lcrq(cfg(), t, H, 1).mops();
    assert!(mp1 > 1.5 * shm1, "mp-1 {mp1:.1} vs shm-1 {shm1:.1}");
    assert!(mp1 > lcrq, "mp-1 {mp1:.1} vs LCRQ {lcrq:.1}");
    assert!(hyb1 > shm1, "hyb-1 {hyb1:.1} vs shm-1 {shm1:.1}");
}

/// Figure 5b: coarse-lock stacks behind MP-SERVER/HYBCOMB beat Treiber
/// under contention (CAS retry collapse).
#[test]
fn stack_winners() {
    let t = 20;
    let mp = run_stack(cfg(), Approach::MpServer, t, 200, H, 1).mops();
    let hyb = run_stack(cfg(), Approach::HybComb, t, 200, H, 1).mops();
    let treiber = run_stack_treiber(cfg(), t, H, 1).mops();
    assert!(mp > treiber, "mp {mp:.1} vs Treiber {treiber:.1}");
    assert!(hyb > treiber, "hyb {hyb:.1} vs Treiber {treiber:.1}");
    let r = run_stack_treiber(cfg(), t, H, 1);
    assert!(
        r.metric_sum(Metric::CasFail) > 0,
        "contended Treiber must fail CASes"
    );
}

/// §5.5: on a machine with x86-like RMR costs the stall share grows, so
/// the potential gain from hardware message passing is larger.
#[test]
fn x86_sensitivity() {
    let tile = run_counter_fixed(cfg(), Approach::ShmServer, 12, H, 1);
    let x86 = run_counter_fixed(MachineConfig::x86_like(), Approach::ShmServer, 12, H, 1);
    assert!(stall_frac(&x86) > stall_frac(&tile));
}

/// Determinism: the whole pipeline gives identical numbers for identical
/// seeds — the property that replaces the paper's 10-run averaging.
#[test]
fn figures_are_deterministic() {
    let a = run_counter(cfg(), Approach::HybComb, 10, 200, 100_000, 9).mops();
    let b = run_counter(cfg(), Approach::HybComb, 10, 200, 100_000, 9).mops();
    assert_eq!(a, b);
    let c = run_counter(cfg(), Approach::HybComb, 10, 200, 100_000, 10).mops();
    // Different seed, different local-work schedule (almost surely).
    assert_ne!(a, c);
}

/// FNV-1a over everything the simulated machine produced: per-core cycle
/// accounting, per-proc metrics, `cycles` and `end_clock`. `host` is left
/// out: it counts the simulator's own work, not the model's.
fn model_digest(r: &SimResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for c in &r.per_core {
        for v in [
            c.busy,
            c.stall,
            c.idle,
            c.mem_ops,
            c.rmrs,
            c.atomics,
            c.msgs_sent,
            c.msgs_recv,
            c.blocked_sends,
        ] {
            eat(v);
        }
    }
    for row in &r.metrics {
        row.iter().for_each(|&v| eat(v));
    }
    eat(r.cycles);
    eat(r.end_clock);
    h
}

/// Golden digests of the model: the counter under each construction at its
/// maximum thread count and under each spin lock on every core. Recorded
/// before spins ran inside the engine; any drift in the simulated machine,
/// however small, changes one of them.
#[test]
fn model_digests_are_unchanged() {
    let golden = [
        (Approach::MpServer, 0xc0c4_6d01_0218_1428),
        (Approach::HybComb, 0xd8e2_bb9c_15eb_518e),
        (Approach::ShmServer, 0x5e8b_91a4_8d93_f074),
        (Approach::CcSynch, 0xcdf7_63c1_b697_8776),
    ];
    for (a, digest) in golden {
        let r = run_counter(cfg(), a, max_threads(&cfg(), a), 200, H, 1);
        assert_eq!(model_digest(&r), digest, "{}", a.label());
    }
    let golden = [
        (LockKind::Tas, 0x469a_a8a7_f97c_43a9),
        (LockKind::Ticket, 0x894c_0222_a33e_bfb8),
        (LockKind::Mcs, 0xc0d6_7d70_44af_4269),
    ];
    for (kind, digest) in golden {
        let r = run_counter_lock(cfg(), kind, cfg().cores(), H, 1);
        assert_eq!(model_digest(&r), digest, "{}", kind.label());
    }
}
