//! Simulator model of HYBCOMB (§4.2, Algorithm 1).
//!
//! Combiner↔client traffic travels over the hardware message queues;
//! combiner identity lives in shared memory (`last_registered_combiner`
//! CAS, per-node `n_ops` fetch-and-add gate, `combining_done` hand-off,
//! `departed_combiner` node exchange). The fetch-and-add every client
//! executes runs at a memory controller, which is why HYBCOMB's
//! single-thread latency trails CC-SYNCH's (§5.3: three atomics per
//! operation against one).
//!
//! Knobs ([`HybOptions`]) expose the paper's two discussed design choices
//! for ablation: the eager drain loop (lines 25–28) and CAS-vs-SWAP
//! combiner registration (§4.2's discussion).

use mpsync_core::machine::Probe;

use crate::engine::{Ctx, Engine};
use crate::mem::{Addr, WORDS_PER_LINE};
use crate::stats::Metric;
use crate::{Backoff, Until};

use super::{client_loop, exec_cs, AddrAlloc, Metrics, RunSpec};

/// Word offsets within a node's *meta* line.
const TID: u64 = 0; // owner's core id
const DONE: u64 = 1; // combining_done flag

/// Variant knobs for the ablation experiments.
#[derive(Debug, Clone, Copy)]
pub struct HybOptions {
    /// Run Algorithm 1 lines 25–28 (serve while the queue is non-empty
    /// before closing registration). Disabling it is `repro abl-nodrain`.
    pub eager_drain: bool,
    /// Replace the CAS at line 17 with an unconditional SWAP
    /// (`repro abl-swap`): every failed registrant becomes a combiner,
    /// some with only their own request.
    pub use_swap: bool,
}

impl Default for HybOptions {
    fn default() -> Self {
        Self {
            eager_drain: true,
            use_swap: false,
        }
    }
}

#[derive(Clone, Copy)]
struct Shared {
    /// First of `threads + 1` n_ops lines (one per node; FAA target).
    n_ops: Addr,
    /// First of `threads + 1` meta lines (thread_id, combining_done).
    meta: Addr,
    /// Line holding `last_registered_combiner` (a node id).
    lrc: Addr,
    /// Line holding `departed_combiner` (a node id).
    departed: Addr,
    max_ops: u64,
    opts: HybOptions,
}

impl Shared {
    fn n_ops_of(&self, node: u64) -> Addr {
        self.n_ops + node * WORDS_PER_LINE
    }

    fn meta_of(&self, node: u64) -> Addr {
        self.meta + node * WORDS_PER_LINE
    }
}

/// Installs a HYBCOMB run with `spec.threads` application procs.
pub fn install_hybcomb(
    engine: &mut Engine,
    spec: RunSpec,
    alloc: &mut AddrAlloc,
    opts: HybOptions,
) {
    let n_nodes = spec.threads as u64 + 1;
    let sh = Shared {
        n_ops: alloc.lines(n_nodes),
        meta: alloc.lines(n_nodes),
        lrc: alloc.line(),
        departed: alloc.line(),
        max_ops: spec.max_ops,
        opts,
    };
    let spare = spec.threads as u64;
    // Line 3–5 of Algorithm 1: the spare node is the initial
    // last-registered/departed combiner, closed and done; every thread
    // node starts closed.
    for node in 0..n_nodes {
        engine.preset_memory(sh.n_ops_of(node), spec.max_ops);
    }
    engine.preset_memory(sh.meta_of(spare) + DONE, 1);
    engine.preset_memory(sh.lrc, spare);
    engine.preset_memory(sh.departed, spare);

    for t in 0..spec.threads {
        let my_node = t as u64;
        engine.add_proc(async move |ctx| {
            // The handle registers its endpoint: node → owner core.
            let me = ctx.core() as u64;
            ctx.write(sh.meta_of(my_node) + TID, me).await;
            let mut my = my_node;
            client_loop(ctx, spec, async |ctx, op, arg| {
                apply(ctx, &spec, &sh, &mut my, op, arg).await;
            })
            .await
        });
    }
}

/// The fixed-combiner variant used by Figure 4a: one thread acts as the
/// combiner for the whole run (the paper's footnote 4, "equivalent to
/// setting MAX_OPS = ∞"). The combiner's node stays registered and open, so
/// clients run the unchanged registration path (read `lrc`, FAA, send) and
/// the combiner runs a pure serve loop.
pub fn install_hybcomb_fixed(
    engine: &mut Engine,
    spec: RunSpec,
    alloc: &mut AddrAlloc,
    _opts: HybOptions,
) {
    let max_ops = u64::MAX / 4;
    let n_nodes = spec.threads as u64 + 1;
    let sh = Shared {
        n_ops: alloc.lines(n_nodes),
        meta: alloc.lines(n_nodes),
        lrc: alloc.line(),
        departed: alloc.line(),
        max_ops,
        opts: HybOptions::default(),
    };
    // Node 0 belongs to the permanent combiner and is open forever.
    engine.preset_memory(sh.n_ops_of(0), 0);
    for node in 1..n_nodes {
        engine.preset_memory(sh.n_ops_of(node), max_ops);
    }
    engine.preset_memory(sh.lrc, 0);
    engine.preset_memory(sh.departed, n_nodes - 1);

    // The combiner proc: serve forever.
    let body = spec.body;
    engine.add_proc(async move |ctx| {
        let me = ctx.core() as u64;
        ctx.write(sh.meta_of(0) + TID, me).await;
        loop {
            let [sender, o, a] = ctx.receive3().await;
            let r = exec_cs(ctx, &body, o, a).await;
            ctx.send(sender as usize, &[r]).await;
            ctx.record(Metric::Served, 1);
        }
    });
    // Clients: the unchanged lines 9–14 of Algorithm 1 (their FAA always
    // succeeds because the combiner never closes its node).
    for _t in 1..spec.threads {
        engine.add_proc(async move |ctx| {
            client_loop(ctx, spec, async |ctx, op, arg| {
                let lr = ctx.read(sh.lrc).await;
                let n = ctx.faa(sh.n_ops_of(lr), 1).await;
                debug_assert!(n < sh.max_ops);
                let dest = ctx.read(sh.meta_of(lr) + TID).await as usize;
                ctx.send(dest, &[ctx.core() as u64, op, arg]).await;
                ctx.receive1().await;
            })
            .await
        });
    }
}

async fn apply(ctx: &mut Ctx, spec: &RunSpec, sh: &Shared, my: &mut u64, op: u64, arg: u64) -> u64 {
    let me = ctx.core() as u64;
    loop {
        // Line 9: read the last registered combiner.
        let lr = ctx.read(sh.lrc).await;
        // Line 11: FAA on its n_ops (memory-controller atomic).
        if ctx.faa(sh.n_ops_of(lr), 1).await < sh.max_ops {
            // Lines 13–14: registered; send and await the response.
            let dest = ctx.read(sh.meta_of(lr) + TID).await as usize;
            ctx.send(dest, &[me, op, arg]).await;
            return ctx.receive1().await;
        }
        // Line 17: try to become a combiner.
        ctx.record(Metric::Cas, 1);
        let registered = if sh.opts.use_swap {
            // Ablation: SWAP always succeeds; `lr` may be stale but the
            // displaced node is the true predecessor.
            let prev = ctx.swap(sh.lrc, *my).await;
            Some(prev)
        } else if ctx.cas(sh.lrc, lr, *my).await {
            Some(lr)
        } else {
            None
        };
        if let Some(pred) = registered {
            // Line 18: open my node (not atomic with the registration —
            // the benign race of §4.2).
            ctx.write(sh.n_ops_of(*my), 0).await;
            // Lines 19–20: wait for the predecessor to finish combining.
            let done = sh.meta_of(pred) + DONE;
            ctx.spin_until(done, Until::Equals(1), &mut Backoff::new(2, 32))
                .await;
            return combine(ctx, spec, sh, my, op, arg).await;
        }
    }
}

async fn combine(
    ctx: &mut Ctx,
    spec: &RunSpec,
    sh: &Shared,
    my: &mut u64,
    op: u64,
    arg: u64,
) -> u64 {
    let me = ctx.core() as u64;
    // Line 23: my own operation first.
    let retval = exec_cs(ctx, &spec.body, op, arg).await;
    ctx.record(Metric::Served, 1);
    let mut completed = 0u64;

    // Lines 25–28: eagerly drain the message queue. (`has_pending_traffic`
    // rather than `!is_queue_empty`: see its documentation — it compensates
    // for the simulator's fixed wire latency, which would otherwise close
    // rounds that real hardware keeps open.)
    if sh.opts.eager_drain {
        while ctx.has_pending_traffic().await {
            let [sender, o, a] = ctx.receive3().await;
            let r = exec_cs(ctx, &spec.body, o, a).await;
            ctx.send(sender as usize, &[r]).await;
            ctx.record(Metric::Served, 1);
            completed += 1;
        }
    }

    // Lines 30–32: close registration; the SWAP's old value is the number
    // of registrations this round.
    let mut total = ctx.swap(sh.n_ops_of(*my), sh.max_ops).await;
    if total > sh.max_ops {
        total = sh.max_ops;
    }

    // Lines 34–37: serve the registered remainder (messages may still be
    // in flight).
    while completed < total {
        let [sender, o, a] = ctx.receive3().await;
        let r = exec_cs(ctx, &spec.body, o, a).await;
        ctx.send(sender as usize, &[r]).await;
        ctx.record(Metric::Served, 1);
        completed += 1;
    }

    Metrics.round(ctx, completed + 1);

    // Lines 39–42: exchange nodes with the departed-combiner spare and
    // release the successor.
    let new_my = ctx.swap(sh.departed, *my).await;
    ctx.write(sh.meta_of(new_my) + DONE, 0).await;
    ctx.write(sh.meta_of(new_my) + TID, me).await;
    ctx.write(sh.meta_of(*my) + DONE, 1).await;
    *my = new_my;
    retval
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, MachineConfig};

    fn run(threads: usize, max_ops: u64, horizon: u64, opts: HybOptions) -> crate::SimResult {
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(threads, max_ops, &mut alloc);
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        install_hybcomb(&mut e, spec, &mut alloc, opts);
        e.run(horizon)
    }

    #[test]
    fn ops_complete_and_balance() {
        let r = run(8, 64, 200_000, HybOptions::default());
        let ops = r.metric_sum(Metric::Ops);
        assert!(ops > 1_000, "too few ops: {ops}");
        let served = r.metric_sum(Metric::Served);
        assert!(served >= ops, "served {served} < completed ops {ops}");
        assert!(served <= ops + 2 * 8);
    }

    #[test]
    fn beats_cc_synch_on_throughput() {
        let hyb = run(10, 200, 200_000, HybOptions::default()).mops();
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(10, 200, &mut alloc);
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        super::super::install_cc_synch(&mut e, spec, &mut alloc);
        let cc = e.run(200_000).mops();
        assert!(
            hyb > cc,
            "HYBCOMB should outperform CC-SYNCH under load: {hyb:.1} vs {cc:.1}"
        );
    }

    #[test]
    fn cas_per_op_is_low_under_load() {
        let r = run(12, 200, 300_000, HybOptions::default());
        let cas = r.cas_per_op();
        assert!(
            cas < 0.7,
            "paper: at most ~0.7 CAS per op in multithreaded runs, got {cas:.2}"
        );
    }

    #[test]
    fn swap_variant_correct() {
        let r = run(
            6,
            50,
            100_000,
            HybOptions {
                use_swap: true,
                ..HybOptions::default()
            },
        );
        assert!(r.metric_sum(Metric::Ops) > 500);
    }

    #[test]
    fn nodrain_variant_correct() {
        let r = run(
            6,
            50,
            100_000,
            HybOptions {
                eager_drain: false,
                ..HybOptions::default()
            },
        );
        assert!(r.metric_sum(Metric::Ops) > 500);
    }

    #[test]
    fn single_thread_all_orphan_rounds() {
        let r = run(1, 200, 50_000, HybOptions::default());
        assert_eq!(r.metric_sum(Metric::Rounds), r.metric_sum(Metric::Orphans));
        assert!(r.metric_sum(Metric::Ops) > 50);
    }
}
