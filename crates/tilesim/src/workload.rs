//! Ready-made workload runners for every experiment in the paper's §5.
//!
//! Each function builds an [`Engine`], installs one construction with the
//! right critical-section body and op generator, runs it for `horizon`
//! simulated cycles, and returns the [`SimResult`] from which the figure's
//! y-values derive. The `repro` binary in `mpsync-bench` sweeps these over
//! the papers' x-axes.

use mpsync_core::mp_server::{request, serve};
use mpsync_core::stack::{ops, CoarseStackLayout, TreiberLayout};

use crate::algos::{
    install_cc_synch, install_cc_synch_fixed, install_hybcomb, install_hybcomb_fixed, install_lock,
    install_mp_server, install_shm_server, AddrAlloc, Approach, CsBody, HybOptions, LockKind,
    Metrics, OpGen, RunSpec,
};
use crate::engine::Engine;
use crate::nonblocking::install_lcrq;
use crate::stats::{Metric, SimResult};
use crate::MachineConfig;

/// Default simulation horizon per data point, in cycles. Long enough for
/// tens of thousands of operations — the simulator is deterministic, so no
/// averaging over repeated runs is needed.
pub const DEFAULT_HORIZON: u64 = 300_000;

/// Capacity of the queue and stack bodies and of the Treiber stack's node
/// pool (bounds in-flight occupancy under the balanced workload, which
/// keeps Figure 5b's stacks below 36 values).
const NODE_RING: u64 = 1024;

fn install(engine: &mut Engine, approach: Approach, spec: RunSpec, alloc: &mut AddrAlloc) {
    match approach {
        Approach::MpServer => {
            install_mp_server(engine, spec);
        }
        Approach::ShmServer => {
            install_shm_server(engine, spec, alloc);
        }
        Approach::HybComb => install_hybcomb(engine, spec, alloc, HybOptions::default()),
        Approach::CcSynch => install_cc_synch(engine, spec, alloc),
    }
}

/// Maximum application-thread count for an approach on the given machine
/// (servers occupy extra cores, as on the paper's testbed).
pub fn max_threads(cfg: &MachineConfig, approach: Approach) -> usize {
    match approach {
        Approach::MpServer | Approach::ShmServer => cfg.cores() - 1,
        Approach::HybComb | Approach::CcSynch => cfg.cores(),
    }
}

/// §5.3 concurrent counter (Figures 3a, 3b, 3c and the in-text CAS and
/// fairness numbers).
pub fn run_counter(
    cfg: MachineConfig,
    approach: Approach,
    threads: usize,
    max_ops: u64,
    horizon: u64,
    seed: u64,
) -> SimResult {
    let mut alloc = AddrAlloc::new();
    let mut spec = RunSpec::counter(threads, max_ops, &mut alloc);
    spec.seed = seed;
    let mut e = Engine::new(cfg);
    install(&mut e, approach, spec, &mut alloc);
    e.run(horizon)
}

/// Figure 4a's fixed-combiner counter runs (`MAX_OPS = ∞` for the
/// combining approaches; the servers are unchanged).
pub fn run_counter_fixed(
    cfg: MachineConfig,
    approach: Approach,
    threads: usize,
    horizon: u64,
    seed: u64,
) -> SimResult {
    let mut alloc = AddrAlloc::new();
    let mut spec = RunSpec::counter(threads, 200, &mut alloc);
    spec.seed = seed;
    let mut e = Engine::new(cfg);
    match approach {
        Approach::MpServer => {
            install_mp_server(&mut e, spec);
        }
        Approach::ShmServer => {
            install_shm_server(&mut e, spec, &mut alloc);
        }
        Approach::HybComb => install_hybcomb_fixed(&mut e, spec, &mut alloc, HybOptions::default()),
        Approach::CcSynch => install_cc_synch_fixed(&mut e, spec, &mut alloc),
    }
    e.run(horizon)
}

/// HYBCOMB with explicit options (the `abl-swap` / `abl-nodrain`
/// ablations).
pub fn run_counter_hybcomb_opts(
    cfg: MachineConfig,
    threads: usize,
    max_ops: u64,
    horizon: u64,
    seed: u64,
    opts: HybOptions,
) -> SimResult {
    let mut alloc = AddrAlloc::new();
    let mut spec = RunSpec::counter(threads, max_ops, &mut alloc);
    spec.seed = seed;
    let mut e = Engine::new(cfg);
    install_hybcomb(&mut e, spec, &mut alloc, opts);
    e.run(horizon)
}

/// Extension experiment `ext-locks`: the counter workload under a classical
/// spin lock (§3's context — what delegation/combining improve on).
pub fn run_counter_lock(
    cfg: MachineConfig,
    kind: LockKind,
    threads: usize,
    horizon: u64,
    seed: u64,
) -> SimResult {
    let mut alloc = AddrAlloc::new();
    let mut spec = RunSpec::counter(threads, 1, &mut alloc);
    spec.seed = seed;
    let mut e = Engine::new(cfg);
    install_lock(&mut e, spec, kind, &mut alloc);
    e.run(horizon)
}

/// Figure 4c: critical sections of `iters` array-increment iterations.
pub fn run_array(
    cfg: MachineConfig,
    approach: Approach,
    threads: usize,
    iters: u64,
    max_ops: u64,
    horizon: u64,
    seed: u64,
) -> SimResult {
    let mut alloc = AddrAlloc::new();
    let len = 16u64;
    let body = CsBody::Array {
        base: alloc.lines(len),
        len,
    };
    let spec = RunSpec {
        threads,
        max_ops,
        body,
        opgen: OpGen::Fixed { op: 0, arg: iters },
        seed,
        max_local_work: 50,
    };
    let mut e = Engine::new(cfg);
    install(&mut e, approach, spec, &mut alloc);
    e.run(horizon)
}

/// Cycles the CS body alone takes for `iters` array iterations (Figure 4c's
/// "ideal" dash-dot line): each iteration is a read and a write hitting the
/// local cache.
pub fn array_ideal_cycles(cfg: &MachineConfig, iters: u64) -> u64 {
    2 * cfg.l1_hit * iters
}

/// Figure 5a, single-lock MS-queue configuration: a sequential FIFO under
/// one construction, balanced enqueue/dequeue load.
pub fn run_queue_onelock(
    cfg: MachineConfig,
    approach: Approach,
    threads: usize,
    max_ops: u64,
    horizon: u64,
    seed: u64,
) -> SimResult {
    let mut alloc = AddrAlloc::new();
    let body = CsBody::SeqQueue {
        head: alloc.line(),
        tail: alloc.line(),
        nodes: alloc.lines(NODE_RING),
        len: NODE_RING,
    };
    let spec = RunSpec {
        threads,
        max_ops,
        body,
        opgen: OpGen::Alternate {
            ops: [(0, 7), (1, 0)],
        },
        seed,
        max_local_work: 50,
    };
    let mut e = Engine::new(cfg);
    install(&mut e, approach, spec, &mut alloc);
    e.run(horizon)
}

/// Figure 5a's `mp-server-2`: the two-lock MS queue with one MP-SERVER per
/// lock (enqueue server on core 0, dequeue server on core 1).
pub fn run_queue_mp2(cfg: MachineConfig, threads: usize, horizon: u64, seed: u64) -> SimResult {
    let mut alloc = AddrAlloc::new();
    let nodes = alloc.lines(NODE_RING);
    let tail = alloc.line();
    let alloc_ctr = alloc.line();
    let head = alloc.line();
    let enq_body = CsBody::TwoLockEnq {
        tail,
        alloc: alloc_ctr,
        nodes,
        len: NODE_RING,
    };
    let deq_body = CsBody::TwoLockDeq {
        head,
        nodes,
        len: NODE_RING,
    };

    let mut e = Engine::new(cfg);
    // Dummy node is ring slot 0; allocation cursor starts after it.
    e.preset_memory(tail, 0);
    e.preset_memory(head, 0);
    e.preset_memory(alloc_ctr, 1);

    let enq_server = e.add_proc(async move |ctx| serve(ctx, &enq_body, &mut Metrics).await);
    let deq_server = e.add_proc(async move |ctx| serve(ctx, &deq_body, &mut Metrics).await);
    for _ in 0..threads {
        e.add_proc(async move |ctx| {
            let mut rng = crate::algos::client_rng(seed, ctx.core());
            let mut i = 0u64;
            loop {
                let (server, op, arg) = if i.is_multiple_of(2) {
                    (enq_server, 0u64, 7u64)
                } else {
                    (deq_server, 1u64, 0u64)
                };
                let t0 = ctx.now();
                request(ctx, server as u64, op, arg).await;
                crate::algos::record_op(ctx, t0);
                crate::algos::local_work(ctx, &mut rng, 50, 1).await;
                i += 1;
            }
        });
    }
    e.run(horizon)
}

/// Extension experiment `ext-imbalance`: the one-lock queue under an
/// *asymmetric* mix — `enq_per_4` of every four operations are enqueues
/// (1 = dequeue-heavy, so the queue hovers near empty and most dequeues
/// fail; 3 = enqueue-heavy, so it drifts toward full). The paper evaluates
/// balanced load only; this probes the constructions away from that sweet
/// spot.
pub fn run_queue_mixed(
    cfg: MachineConfig,
    approach: Approach,
    threads: usize,
    enq_per_4: usize,
    max_ops: u64,
    horizon: u64,
    seed: u64,
) -> SimResult {
    assert!(
        (1..=3).contains(&enq_per_4),
        "mix must be 1..=3 enqueues per 4 ops"
    );
    let mut alloc = AddrAlloc::new();
    let body = CsBody::SeqQueue {
        head: alloc.line(),
        tail: alloc.line(),
        nodes: alloc.lines(NODE_RING),
        len: NODE_RING,
    };
    let mut ops = [(1u64, 0u64); 4]; // default: dequeue
    for slot in ops.iter_mut().take(enq_per_4) {
        *slot = (0, 7); // enqueue
    }
    let spec = RunSpec {
        threads,
        max_ops,
        body,
        opgen: OpGen::Cycle { ops, len: 4 },
        seed,
        max_local_work: 50,
    };
    let mut e = Engine::new(cfg);
    install(&mut e, approach, spec, &mut alloc);
    e.run(horizon)
}

/// Figure 5a's LCRQ line.
pub fn run_queue_lcrq(cfg: MachineConfig, threads: usize, horizon: u64, seed: u64) -> SimResult {
    let mut alloc = AddrAlloc::new();
    let mut e = Engine::new(cfg);
    install_lcrq(&mut e, threads, NODE_RING, seed, 50, &mut alloc);
    e.run(horizon)
}

/// Figure 5b: a sequential stack under one construction, balanced
/// push/pop load.
pub fn run_stack(
    cfg: MachineConfig,
    approach: Approach,
    threads: usize,
    max_ops: u64,
    horizon: u64,
    seed: u64,
) -> SimResult {
    let mut alloc = AddrAlloc::new();
    let body = CsBody::Stack(CoarseStackLayout {
        top: alloc.line(),
        slots: alloc.lines(NODE_RING),
        len: NODE_RING,
    });
    let spec = RunSpec {
        threads,
        max_ops,
        body,
        opgen: OpGen::Alternate {
            ops: [(ops::PUSH, 7), (ops::POP, 0)],
        },
        seed,
        max_local_work: 50,
    };
    let mut e = Engine::new(cfg);
    install(&mut e, approach, spec, &mut alloc);
    e.run(horizon)
}

/// Figure 5b's Treiber-stack line: `mpsync-core`'s Treiber stack, each
/// thread alternating push and pop with its node cache in the proc.
pub fn run_stack_treiber(cfg: MachineConfig, threads: usize, horizon: u64, seed: u64) -> SimResult {
    let mut alloc = AddrAlloc::new();
    let stack = TreiberLayout {
        base: alloc.lines(TreiberLayout::lines(NODE_RING)),
        capacity: NODE_RING,
    };
    let mut e = Engine::new(cfg);
    for _ in 0..threads {
        e.add_proc(async move |ctx| {
            let mut rng = crate::algos::client_rng(seed, ctx.core());
            let mut cache = None;
            loop {
                let t0 = ctx.now();
                stack.push(ctx, &mut cache, 7, &mut Metrics).await;
                crate::algos::record_op(ctx, t0);
                crate::algos::local_work(ctx, &mut rng, 50, 1).await;
                let t0 = ctx.now();
                stack.pop(ctx, &mut cache, &mut Metrics).await;
                crate::algos::record_op(ctx, t0);
                crate::algos::local_work(ctx, &mut rng, 50, 1).await;
            }
        });
    }
    e.run(horizon)
}

/// The core acting as servicing thread in a result: for servers this is the
/// server core; for combining runs, the core that served most requests
/// (Figure 4a pins the combiner, so it serves virtually all of them).
pub fn servicing_core(r: &SimResult) -> usize {
    (0..r.metrics.len())
        .max_by_key(|&i| r.metric(i, Metric::Served))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: u64 = 100_000;

    #[test]
    fn counter_all_approaches_produce_ops() {
        for a in Approach::ALL {
            let r = run_counter(MachineConfig::tile_gx8036(), a, 6, 200, H, 1);
            assert!(
                r.metric_sum(Metric::Ops) > 500,
                "{} produced too few ops",
                a.label()
            );
        }
    }

    #[test]
    fn fig3a_shape_mp_server_wins_at_load() {
        let cfg = MachineConfig::tile_gx8036();
        let mp = run_counter(cfg, Approach::MpServer, 12, 200, H, 1).mops();
        let hyb = run_counter(cfg, Approach::HybComb, 12, 200, H, 1).mops();
        let shm = run_counter(cfg, Approach::ShmServer, 12, 200, H, 1).mops();
        let cc = run_counter(cfg, Approach::CcSynch, 12, 200, H, 1).mops();
        assert!(mp > hyb, "mp {mp:.1} vs hyb {hyb:.1}");
        assert!(hyb > shm, "hyb {hyb:.1} vs shm {shm:.1}");
        assert!(hyb > cc, "hyb {hyb:.1} vs cc {cc:.1}");
    }

    #[test]
    fn fig4a_shape_stall_fractions() {
        let cfg = MachineConfig::tile_gx8036();
        for (a, lo, hi) in [
            (Approach::MpServer, 0.0, 0.15),
            (Approach::HybComb, 0.0, 0.25),
            (Approach::ShmServer, 0.35, 1.0),
            (Approach::CcSynch, 0.35, 1.0),
        ] {
            let r = run_counter_fixed(cfg, a, 10, H, 1);
            let core = servicing_core(&r);
            let s = &r.per_core[core];
            let frac = s.stall as f64 / (s.busy + s.stall) as f64;
            assert!(
                frac >= lo && frac <= hi,
                "{}: stall fraction {frac:.2} outside [{lo}, {hi}]",
                a.label()
            );
        }
    }

    #[test]
    fn queue_runs_produce_ops() {
        let cfg = MachineConfig::tile_gx8036();
        for a in Approach::ALL {
            let r = run_queue_onelock(cfg, a, 6, 200, H, 1);
            assert!(r.metric_sum(Metric::Ops) > 300, "{}", a.label());
        }
        let r = run_queue_mp2(cfg, 6, H, 1);
        assert!(r.metric_sum(Metric::Ops) > 300, "mp-server-2");
        let r = run_queue_lcrq(cfg, 6, H, 1);
        assert!(r.metric_sum(Metric::Ops) > 300, "LCRQ");
    }

    #[test]
    fn stack_runs_produce_ops() {
        let cfg = MachineConfig::tile_gx8036();
        for a in Approach::ALL {
            let r = run_stack(cfg, a, 6, 200, H, 1);
            assert!(r.metric_sum(Metric::Ops) > 300, "{}", a.label());
        }
        let r = run_stack_treiber(cfg, 6, H, 1);
        assert!(r.metric_sum(Metric::Ops) > 300, "Treiber");
    }

    #[test]
    fn array_cs_narrows_the_gap() {
        // Figure 4c: as the CS grows, the relative advantage of message
        // passing shrinks.
        let cfg = MachineConfig::tile_gx8036();
        let gap = |iters: u64| {
            let mp = run_array(cfg, Approach::MpServer, 10, iters, 200, H, 1).mops();
            let shm = run_array(cfg, Approach::ShmServer, 10, iters, 200, H, 1).mops();
            mp / shm
        };
        let short = gap(1);
        let long = gap(15);
        assert!(
            long < short,
            "relative gap should shrink with CS length: short {short:.2}, long {long:.2}"
        );
    }

    #[test]
    fn mixed_queue_workloads_complete() {
        let cfg = MachineConfig::tile_gx8036();
        for enq in 1..=3usize {
            let r = run_queue_mixed(cfg, Approach::MpServer, 6, enq, 200, H, 1);
            assert!(
                r.metric_sum(Metric::Ops) > 300,
                "mix {enq}/4 made no progress"
            );
        }
    }

    #[test]
    fn latency_histogram_populated() {
        let r = run_counter(
            MachineConfig::tile_gx8036(),
            Approach::MpServer,
            6,
            200,
            H,
            1,
        );
        let hist_total: u64 = Metric::LAT_HISTOGRAM.iter().map(|&m| r.metric_sum(m)).sum();
        assert_eq!(hist_total, r.metric_sum(Metric::LatCount));
        assert!(r.latency_percentile(0.99) >= r.latency_percentile(0.50));
    }

    #[test]
    fn x86_like_machine_stalls_more() {
        let tile = run_counter_fixed(MachineConfig::tile_gx8036(), Approach::ShmServer, 10, H, 1);
        let x86 = run_counter_fixed(MachineConfig::x86_like(), Approach::ShmServer, 10, H, 1);
        let frac = |r: &SimResult| {
            let c = servicing_core(r);
            let s = &r.per_core[c];
            s.stall as f64 / (s.busy + s.stall) as f64
        };
        assert!(
            frac(&x86) > frac(&tile),
            "x86-like RMR costs must increase the stall share"
        );
    }
}
