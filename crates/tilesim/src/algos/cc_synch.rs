//! Simulator model of CC-SYNCH (Fatourou & Kallimanis 2012), the paper's
//! shared-memory combining baseline.
//!
//! Each node occupies one cache line, so the combiner pays one RMR to fetch
//! a request (the owner's writes made the owner's copy Modified) and one
//! more to publish the response (invalidating the owner's spinning copy) —
//! the same two-RMRs-per-CS pattern as the RCL-style server (§3).

use crate::engine::{Ctx, Engine};
use crate::mem::{Addr, WORDS_PER_LINE};
use crate::stats::Metric;

use super::{client_rng, exec_cs, local_work, record_op, spin_until_eq, AddrAlloc, RunSpec};

/// Word offsets within a node's line.
const WAIT: u64 = 0;
const COMPLETED: u64 = 1;
const OP: u64 = 2;
const ARG: u64 = 3;
const RET: u64 = 4;
const NEXT: u64 = 5; // 0 = nil, else node_id + 1

struct Shared {
    nodes: Addr,
    tail: Addr,
}

impl Shared {
    fn node(&self, id: u64) -> Addr {
        self.nodes + id * WORDS_PER_LINE
    }
}

/// Installs a CC-SYNCH run with `spec.threads` application procs.
pub fn install_cc_synch(engine: &mut Engine, spec: RunSpec, alloc: &mut AddrAlloc) {
    // Node 0 is the initial tail dummy (all-zero: wait=0 → the first thread
    // to swap it out combines immediately); thread t owns node t+1.
    let nodes = alloc.lines(spec.threads as u64 + 1);
    let tail = alloc.line();
    for t in 0..spec.threads {
        let sh = Shared { nodes, tail };
        let my_node = t as u64 + 1;
        engine.add_proc(async move |ctx| thread_loop(ctx, spec, sh, my_node).await);
    }
}

/// The fixed-combiner variant used by Figure 4a: equivalent to
/// `MAX_OPS = ∞` (footnote 4 of the paper).
pub fn install_cc_synch_fixed(engine: &mut Engine, spec: RunSpec, alloc: &mut AddrAlloc) {
    install_cc_synch(
        engine,
        RunSpec {
            max_ops: u64::MAX / 2,
            ..spec
        },
        alloc,
    );
}

async fn thread_loop(ctx: &mut Ctx, spec: RunSpec, sh: Shared, mut my_node: u64) {
    let mut rng = client_rng(spec.seed, ctx.core());
    let mut i = 0u64;
    loop {
        let (op, arg) = spec.opgen.op(i);
        let t0 = ctx.now();
        apply(ctx, &spec, &sh, &mut my_node, op, arg).await;
        record_op(ctx, t0);
        local_work(ctx, &mut rng, spec.max_local_work, 1).await;
        i += 1;
    }
}

async fn apply(
    ctx: &mut Ctx,
    spec: &RunSpec,
    sh: &Shared,
    my_node: &mut u64,
    op: u64,
    arg: u64,
) -> u64 {
    // Prepare my node as the new tail dummy.
    let next_node = *my_node;
    let next_addr = sh.node(next_node);
    ctx.write(next_addr + NEXT, 0).await;
    ctx.write(next_addr + WAIT, 1).await;
    ctx.write(next_addr + COMPLETED, 0).await;

    // Enqueue with a SWAP on the tail (executed at a memory controller).
    let cur = ctx.swap(sh.tail, next_node).await;
    let cur_addr = sh.node(cur);
    ctx.write(cur_addr + OP, op).await;
    ctx.write(cur_addr + ARG, arg).await;
    ctx.write(cur_addr + NEXT, next_node + 1).await;
    *my_node = cur;

    // Local spin until served or promoted.
    spin_until_eq(ctx, cur_addr + WAIT, 0).await;
    if ctx.read(cur_addr + COMPLETED).await == 1 {
        return ctx.read(cur_addr + RET).await;
    }

    // Combiner phase.
    let mut served = 0u64;
    let mut tmp = cur;
    loop {
        let tmp_addr = sh.node(tmp);
        let next = ctx.read(tmp_addr + NEXT).await;
        if next == 0 || served >= spec.max_ops {
            break;
        }
        let o = ctx.read(tmp_addr + OP).await;
        let a = ctx.read(tmp_addr + ARG).await;
        let r = exec_cs(ctx, &spec.body, o, a).await;
        ctx.write(tmp_addr + RET, r).await;
        ctx.write(tmp_addr + COMPLETED, 1).await;
        ctx.write(tmp_addr + WAIT, 0).await;
        ctx.record(Metric::Served, 1);
        served += 1;
        tmp = next - 1;
    }
    // Hand the combiner role to the first unserved node (or re-arm the
    // tail dummy).
    ctx.write(sh.node(tmp) + WAIT, 0).await;
    ctx.record(Metric::Rounds, 1);
    ctx.record(Metric::Combined, served);
    if served <= 1 {
        ctx.record(Metric::Orphans, 1);
    }
    ctx.read(cur_addr + RET).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::CsBody;
    use crate::{Engine, MachineConfig};

    fn run(threads: usize, max_ops: u64, horizon: u64) -> (crate::SimResult, Addr) {
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(threads, max_ops, &mut alloc);
        let addr = match spec.body {
            CsBody::Counter { addr } => addr,
            _ => unreachable!(),
        };
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        install_cc_synch(&mut e, spec, &mut alloc);
        (e.run(horizon), addr)
    }

    #[test]
    fn counter_ops_all_executed() {
        let (r, _) = run(8, 64, 200_000);
        let ops = r.metric_sum(Metric::Ops);
        assert!(ops > 1_000, "too few ops: {ops}");
        // Served counts combiner-executed CSes; every *completed* client op
        // was executed (a few more may have executed but not yet returned
        // at teardown).
        let served = r.metric_sum(Metric::Served);
        assert!(served >= ops, "served {served} < ops {ops}");
        assert!(served <= ops + 2 * 8, "served {served} vs ops {ops}");
    }

    #[test]
    fn combining_rate_grows_with_threads() {
        let (r2, _) = run(2, 200, 150_000);
        let (r12, _) = run(12, 200, 150_000);
        assert!(
            r12.combining_rate() > r2.combining_rate(),
            "combining rate should grow with concurrency: {} vs {}",
            r12.combining_rate(),
            r2.combining_rate()
        );
    }

    #[test]
    fn single_thread_works() {
        let (r, _) = run(1, 200, 50_000);
        assert!(r.metric_sum(Metric::Ops) > 100);
        // Alone, every round serves exactly one request.
        assert!((r.combining_rate() - 1.0).abs() < 1e-9);
    }
}
