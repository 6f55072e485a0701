//! The seeded adversarial suite: hundreds of simulated schedules, each
//! checking the cluster's safety contract end to end.
//!
//! Every [`mpsync_cluster::sim::run`] invocation *is* the verifier — it
//! panics if any acked op is lost, double-applied, or answered
//! inconsistently, if replicas diverge after quiesce, or if the workload
//! livelocks. These tests sweep seeds across progressively nastier
//! weather:
//!
//! * fair-weather drops/duplications/delays (message reordering falls out
//!   of randomized per-message delays),
//! * live slot handoffs under load,
//! * a permanent primary crash (backup promotion),
//! * a temporary partition (minority stall, majority failover, then
//!   demotion + resync on heal),
//!
//! plus bit-identical replay checks: the same seed must reproduce the
//! exact trace hash, which is what makes any failing seed in this file a
//! deterministic, debuggable artifact.
//!
//! A release build sweeps every family's seeds (`cargo test --release --test
//! cluster_sim`); a debug build, tier-1's `cargo test`, runs each family's
//! first [`DEBUG_SEEDS`] only.

use std::ops::Range;

use mpsync_cluster::sim::{run, Fault, SimConfig};

/// Seeds per family in a debug build.
const DEBUG_SEEDS: u64 = 2;

/// The seeds a family runs: all of `seeds` in a release build, the first
/// [`DEBUG_SEEDS`] in a debug build (as the `cfg!(miri)` bounds elsewhere
/// scale a test to its build).
fn sweep(seeds: Range<u64>) -> Range<u64> {
    if cfg!(debug_assertions) {
        seeds.start..seeds.end.min(seeds.start + DEBUG_SEEDS)
    } else {
        seeds
    }
}

/// Fair weather, 100 seeds: drops, duplicates, reorder via random delays.
#[test]
fn hundred_seeds_of_lossy_weather() {
    for seed in sweep(0..100u64) {
        let mut cfg = SimConfig::new(seed);
        // Escalate the weather with the seed so the sweep spans mild to
        // nasty: up to 20% drops, 15% duplicates.
        cfg.drop_p = 0.02 + (seed % 10) as f64 * 0.02;
        cfg.dup_p = 0.01 + (seed % 7) as f64 * 0.02;
        cfg.delay_max = 1 + seed % 5;
        let r = run(&cfg);
        assert_eq!(
            r.ok_replies,
            (cfg.clients as u64) * (cfg.ops_per_client as u64),
            "seed {seed}: missing acks"
        );
    }
}

/// Live handoffs while the workload runs: slots migrate with queued ops
/// re-forwarded and clients redirected, losing nothing.
#[test]
fn thirty_seeds_of_live_handoffs() {
    for seed in sweep(1000..1030u64) {
        let mut cfg = SimConfig::new(seed);
        cfg.handoffs = 1 + (seed % 5) as u32;
        cfg.drop_p = 0.05;
        cfg.dup_p = 0.05;
        let r = run(&cfg);
        assert_eq!(
            r.ok_replies,
            (cfg.clients as u64) * (cfg.ops_per_client as u64),
            "seed {seed}: missing acks across handoff"
        );
    }
}

/// Primary crash mid-run, 30 seeds: the backup must promote and every op
/// acked before or after the crash must survive with its original result.
#[test]
fn thirty_seeds_of_crash_failover() {
    for seed in sweep(2000..2030u64) {
        let mut cfg = SimConfig::new(seed);
        cfg.fault = Fault::Crash {
            at: 100 + (seed % 7) * 97,
        };
        cfg.drop_p = 0.05;
        let r = run(&cfg);
        assert_eq!(
            r.ok_replies,
            (cfg.clients as u64) * (cfg.ops_per_client as u64),
            "seed {seed}: missing acks across crash failover"
        );
    }
}

/// Temporary partition, 20 seeds: majority fails the minority's slots
/// over; the deposed primary must demote, discard, and resync on heal.
#[test]
fn twenty_seeds_of_partition_and_heal() {
    for seed in sweep(3000..3020u64) {
        let mut cfg = SimConfig::new(seed);
        let at = 150 + (seed % 5) * 60;
        cfg.fault = Fault::Partition {
            at,
            heal_at: at + 400 + (seed % 3) * 150,
        };
        cfg.drop_p = 0.04;
        let r = run(&cfg);
        assert_eq!(
            r.ok_replies,
            (cfg.clients as u64) * (cfg.ops_per_client as u64),
            "seed {seed}: missing acks across partition"
        );
    }
}

/// Determinism: replaying a seed reproduces the identical trace hash,
/// reply counts, and final store contents — across every fault class.
#[test]
fn ten_seeds_replay_bit_identically() {
    for seed in sweep(0..10u64) {
        let mut cfg = SimConfig::new(seed * 7 + 1);
        match seed % 3 {
            0 => cfg.fault = Fault::Crash { at: 250 },
            1 => {
                cfg.fault = Fault::Partition {
                    at: 200,
                    heal_at: 700,
                }
            }
            _ => cfg.handoffs = 3,
        }
        cfg.drop_p = 0.08;
        cfg.dup_p = 0.05;
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b, "seed {} did not replay bit-identically", cfg.seed);
        assert_ne!(a.trace_hash, 0);
    }
}

/// A link slower than the re-send interval, 20 seeds: every message takes up
/// to 40 ticks against `resend_after` = 10, and one slot holds every key, so
/// a handoff streams several chunks and its ack is several re-send intervals
/// away. Re-sends that did not back off would put the whole stream on the
/// wire again every interval until then (up to nine times here; on sockets,
/// each copy queues behind the last and the stream never catches up). With
/// the back-off a stream goes out at most four times — at 0, 10, 30 and 70
/// ticks, the ack being at most 80 away — and the handoffs still complete:
/// the run would hit its horizon with ops queued on a slot that never moved.
#[test]
fn twenty_seeds_of_handoffs_over_a_slow_link() {
    let mut moved = 0;
    let seeds = sweep(6000..6020u64);
    let runs = seeds.end - seeds.start;
    for seed in seeds {
        let mut cfg = SimConfig::new(seed);
        cfg.slots = 1;
        cfg.keys_per_client = 64;
        cfg.ops_per_client = 150;
        cfg.handoffs = 3;
        cfg.drop_p = 0.0;
        cfg.dup_p = 0.0;
        cfg.delay_max = 40;
        cfg.client_timeout = 400;
        // Handoffs fall in the first quarter of the horizon: under load.
        cfg.horizon = 20_000;
        let r = run(&cfg);
        assert_eq!(
            r.ok_replies,
            (cfg.clients as u64) * (cfg.ops_per_client as u64),
            "seed {seed}: missing acks"
        );
        assert!(
            r.max_chunk_sends <= 4,
            "seed {seed}: a transfer stream was sent {} times",
            r.max_chunk_sends
        );
        moved += (r.max_chunk_sends > 0) as u64;
    }
    assert!(
        2 * moved >= runs,
        "only {moved} of {runs} runs moved a slot"
    );
}

/// A larger cluster under the nastiest weather the suite uses.
#[test]
fn five_node_cluster_survives_heavy_loss() {
    for seed in sweep(4000..4010u64) {
        let mut cfg = SimConfig::new(seed);
        cfg.nodes = 5;
        cfg.slots = 32;
        cfg.clients = 6;
        cfg.drop_p = 0.20;
        cfg.dup_p = 0.10;
        cfg.delay_max = 6;
        cfg.horizon = 120_000;
        let r = run(&cfg);
        assert_eq!(
            r.ok_replies,
            (cfg.clients as u64) * (cfg.ops_per_client as u64),
            "seed {seed}: missing acks on 5-node cluster"
        );
    }
}

/// Dedup-eviction pressure, 40 seeds: a 1-2 entry dedup FIFO per slot
/// evicts completed-op records while retries of those very ops are still
/// wandering the network (lost `FwdReply`s force client resends; `dup_p`
/// re-delivers forwarded ops late). Before the per-origin eviction
/// watermark, such a retry re-executed the op — `run` panics on the
/// resulting oracle divergence. With the guard, the node answers
/// `Status::Stale` ("applied, result lost") and the client settles the op
/// exactly once. Handoffs on half the seeds route the watermark through
/// `FLOOR` chunks so the guard survives slot migration too.
#[test]
fn forty_seeds_of_dedup_eviction_pressure() {
    let mut stale_total = 0u64;
    for seed in sweep(5000..5040u64) {
        let mut cfg = SimConfig::new(seed);
        cfg.dedup_cap = 1 + (seed % 2) as usize;
        cfg.slots = 2;
        cfg.drop_p = 0.10 + (seed % 5) as f64 * 0.03;
        cfg.dup_p = 0.10;
        cfg.delay_max = 1 + seed % 6;
        cfg.client_timeout = 8;
        cfg.handoffs = (seed % 2) as u32 * 2;
        cfg.horizon = 120_000;
        let r = run(&cfg);
        assert_eq!(
            r.ok_replies + r.stale_replies,
            (cfg.clients as u64) * (cfg.ops_per_client as u64),
            "seed {seed}: every op must settle exactly once"
        );
        stale_total += r.stale_replies;
    }
    assert!(
        stale_total > 0,
        "sweep never hit the eviction-retry window; tighten the weather"
    );
}
