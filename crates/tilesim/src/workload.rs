//! Ready-made workload runners for every experiment in the paper's §5.
//!
//! Each function builds an [`Engine`], installs one construction with the
//! right critical-section body and op generator, runs it for `horizon`
//! simulated cycles, and returns the [`SimResult`] from which the figure's
//! y-values derive. The `repro` binary in `mpsync-bench` sweeps these over
//! the papers' x-axes.

use mpsync_core::mp_server::{request, serve};
use mpsync_core::queue::{ops as queue_ops, CoarseQueueLayout, LcrqLayout, TwoLockLayout};
use mpsync_core::stack::{ops, CoarseStackLayout, TreiberLayout};

use crate::algos::{
    client_loop, install_cc_synch, install_cc_synch_fixed, install_hybcomb, install_hybcomb_fixed,
    install_lock, install_mp_server, install_shm_server, AddrAlloc, Approach, CsBody, HybOptions,
    LockKind, Metrics, OpGen, RunSpec,
};
use crate::engine::Engine;
use crate::stats::{Metric, SimResult};
use crate::{MachineConfig, WORDS_PER_LINE};

/// Default simulation horizon per data point, in cycles. Long enough for
/// tens of thousands of operations — the simulator is deterministic, so no
/// averaging over repeated runs is needed.
pub const DEFAULT_HORIZON: u64 = 300_000;

/// Capacity of the queues and stacks, and LCRQ's cells per ring (bounds
/// in-flight occupancy under the balanced workload, which keeps Figure 5's
/// objects below 36 values).
const NODE_RING: u64 = 1024;

/// log2 of [`NODE_RING`]: an LCRQ ring's order.
const RING_ORDER: u32 = NODE_RING.trailing_zeros();

/// LCRQ's pool of rings. The balanced load never fills a ring, but an
/// enqueuer that starves closes its ring and appends one from the pool;
/// the closed ring returns to the pool once drained.
const LCRQ_RINGS: u64 = 4;

/// The balanced load of §5.4: each thread alternates an insert of 7 and a
/// removal.
fn balanced(insert: u64, remove: u64) -> OpGen {
    OpGen::Alternate {
        ops: [(insert, 7), (remove, 0)],
    }
}

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
    let spec = RunSpec {
        threads,
        max_ops,
        body: CsBody::Queue(coarse_queue(&mut alloc)),
        opgen: balanced(queue_ops::ENQ, queue_ops::DEQ),
        seed,
        max_local_work: 50,
    };
    let mut e = Engine::new(cfg);
    install(&mut e, approach, spec, &mut alloc);
    e.run(horizon)
}

/// Figure 5a's `mp-server-2`: the two-lock MS queue with one MP-SERVER per
/// half (enqueue server on core 0, dequeue server on core 1).
pub fn run_queue_mp2(cfg: MachineConfig, threads: usize, horizon: u64, seed: u64) -> SimResult {
    let lines = TwoLockLayout::lines(NODE_RING);
    let body = CsBody::TwoLock(TwoLockLayout {
        base: AddrAlloc::new().lines(lines),
        capacity: NODE_RING,
    });
    let mut e = Engine::new(cfg);
    size_memory(&mut e, lines);
    let enq = e.add_proc(async move |ctx| serve(ctx, &body, &mut Metrics).await) as u64;
    let deq = e.add_proc(async move |ctx| serve(ctx, &body, &mut Metrics).await) as u64;
    let opgen = balanced(queue_ops::ENQ, queue_ops::DEQ);
    for _ in 0..threads {
        e.add_proc(async move |ctx| {
            client_loop(ctx, opgen, seed, 50, async |ctx, op, arg| {
                let server = if op == queue_ops::ENQ { enq } else { deq };
                request(ctx, server, op, arg).await;
            })
            .await
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
    let body = CsBody::Queue(coarse_queue(&mut alloc));
    let mut ops = [(queue_ops::DEQ, 0); 4];
    for slot in ops.iter_mut().take(enq_per_4) {
        *slot = (queue_ops::ENQ, 7);
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

/// Writes 0, as the memory starts, to the last of a layout's `lines` from
/// line 0: the memory is then as large as it gets, and a run that first
/// touches a line late (a queue cycling through its pool) allocates
/// nothing then. Not an access.
fn size_memory(e: &mut Engine, lines: u64) {
    e.preset_memory((lines - 1) * WORDS_PER_LINE, 0);
}

/// The one-lock queue's layout, allocated as the head's line, the tail's,
/// then the slots.
fn coarse_queue(alloc: &mut AddrAlloc) -> CoarseQueueLayout {
    CoarseQueueLayout {
        head: alloc.line(),
        tail: alloc.line(),
        slots: alloc.lines(NODE_RING),
        len: NODE_RING,
    }
}

/// Figure 5a's LCRQ line: `mpsync-core`'s LCRQ, each thread alternating
/// enqueue and dequeue from its own hazard slot.
pub fn run_queue_lcrq(cfg: MachineConfig, threads: usize, horizon: u64, seed: u64) -> SimResult {
    let mut alloc = AddrAlloc::new();
    let lines = LcrqLayout::lines(RING_ORDER, LCRQ_RINGS, threads as u64);
    let lcrq = LcrqLayout {
        base: alloc.lines(lines),
        order: RING_ORDER,
        rings: LCRQ_RINGS,
        handles: threads as u64,
    };
    let mut e = Engine::new(cfg);
    size_memory(&mut e, lines);
    for (a, v) in lcrq.presets() {
        e.preset_memory(a, v);
    }
    let opgen = balanced(queue_ops::ENQ, queue_ops::DEQ);
    for slot in 0..threads as u64 {
        e.add_proc(async move |ctx| {
            client_loop(ctx, opgen, seed, 50, async |ctx, op, arg| {
                if op == queue_ops::ENQ {
                    let queued = lcrq.enqueue(ctx, slot, arg, &mut Metrics).await;
                    assert!(
                        queued,
                        "LCRQ out of rings: {LCRQ_RINGS} rings of 2^{RING_ORDER} cells"
                    );
                } else {
                    lcrq.dequeue(ctx, slot, &mut Metrics).await;
                }
            })
            .await
        });
    }
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
        opgen: balanced(ops::PUSH, ops::POP),
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
    let opgen = balanced(ops::PUSH, ops::POP);
    for _ in 0..threads {
        e.add_proc(async move |ctx| {
            let mut cache = None;
            client_loop(ctx, opgen, seed, 50, async |ctx, op, arg| {
                if op == ops::PUSH {
                    stack.push(ctx, &mut cache, arg, &mut Metrics).await;
                } else {
                    stack.pop(ctx, &mut cache, &mut Metrics).await;
                }
            })
            .await
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
