//! Simulator models of classical spin locks (§3's context): TAS with
//! backoff, the ticket lock, and the MCS queue lock with local spinning.
//!
//! These complete the picture the paper paints in §3: even the best lock
//! (MCS, O(1) RMRs per acquisition) must *move the protected data* to the
//! acquiring core — every critical section starts with compulsory RMR
//! misses on the object's lines — which is exactly the locality cost that
//! delegation and combining avoid. The `ext-locks` experiment in `repro`
//! plots them against the paper's constructions.

use std::ops::AsyncFnOnce;

use crate::engine::{Ctx, Engine};
use crate::mem::{Addr, WORDS_PER_LINE};
use crate::stats::Metric;

use super::{client_rng, exec_cs, local_work, record_op, AddrAlloc, RunSpec};

/// Which lock model to install.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// Test-and-test-and-set with exponential backoff.
    Tas,
    /// Ticket lock (FIFO, one grant variable).
    Ticket,
    /// MCS queue lock (local spinning).
    Mcs,
}

impl LockKind {
    /// All lock kinds, for sweeps.
    pub const ALL: [LockKind; 3] = [LockKind::Tas, LockKind::Ticket, LockKind::Mcs];

    /// Label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            LockKind::Tas => "tas",
            LockKind::Ticket => "ticket",
            LockKind::Mcs => "mcs",
        }
    }
}

/// Installs `spec.threads` procs running the counter-style workload with
/// the critical section protected by the chosen lock.
pub fn install_lock(engine: &mut Engine, spec: RunSpec, kind: LockKind, alloc: &mut AddrAlloc) {
    match kind {
        LockKind::Tas => {
            let lock = alloc.line();
            for _ in 0..spec.threads {
                engine.add_proc(async move |ctx| tas_loop(ctx, spec, lock).await);
            }
        }
        LockKind::Ticket => {
            let next = alloc.line();
            let serving = alloc.line();
            for _ in 0..spec.threads {
                engine.add_proc(async move |ctx| ticket_loop(ctx, spec, next, serving).await);
            }
        }
        LockKind::Mcs => {
            let tail = alloc.line();
            // One node line per thread: +0 locked flag, +1 next (id+1).
            let nodes = alloc.lines(spec.threads as u64);
            for t in 0..spec.threads {
                engine.add_proc(async move |ctx| mcs_loop(ctx, spec, tail, nodes, t as u64).await);
            }
        }
    }
}

async fn workload_iteration(
    ctx: &mut Ctx,
    spec: &RunSpec,
    i: u64,
    acquire: impl AsyncFnOnce(&mut Ctx),
    release: impl AsyncFnOnce(&mut Ctx),
) {
    let (op, arg) = spec.opgen.op(i);
    let t0 = ctx.now();
    acquire(ctx).await;
    let _ = exec_cs(ctx, &spec.body, op, arg).await;
    ctx.record(Metric::Served, 1);
    release(ctx).await;
    record_op(ctx, t0);
}

async fn tas_loop(ctx: &mut Ctx, spec: RunSpec, lock: Addr) {
    let mut rng = client_rng(spec.seed, ctx.core());
    let mut i = 0u64;
    loop {
        workload_iteration(
            ctx,
            &spec,
            i,
            async |ctx| {
                let mut backoff = 4u64;
                loop {
                    if ctx.swap(lock, 1).await == 0 {
                        return;
                    }
                    // Test loop on the (cached) lock word plus backoff.
                    while ctx.read(lock).await != 0 {
                        ctx.work(backoff).await;
                        backoff = (backoff * 2).min(256);
                    }
                }
            },
            async |ctx| ctx.write(lock, 0).await,
        )
        .await;
        local_work(ctx, &mut rng, spec.max_local_work, 1).await;
        i += 1;
    }
}

async fn ticket_loop(ctx: &mut Ctx, spec: RunSpec, next: Addr, serving: Addr) {
    let mut rng = client_rng(spec.seed, ctx.core());
    let mut i = 0u64;
    loop {
        workload_iteration(
            ctx,
            &spec,
            i,
            async |ctx| {
                let my = ctx.faa(next, 1).await;
                let mut backoff = 2u64;
                while ctx.read(serving).await != my {
                    ctx.work(backoff).await;
                    backoff = (backoff * 2).min(64);
                }
            },
            async |ctx| {
                let s = ctx.read(serving).await;
                ctx.write(serving, s + 1).await;
            },
        )
        .await;
        local_work(ctx, &mut rng, spec.max_local_work, 1).await;
        i += 1;
    }
}

async fn mcs_loop(ctx: &mut Ctx, spec: RunSpec, tail: Addr, nodes: Addr, me: u64) {
    let node = |id: u64| nodes + id * WORDS_PER_LINE;
    const LOCKED: u64 = 0;
    const NEXT: u64 = 1;
    let mut rng = client_rng(spec.seed, ctx.core());
    let mut i = 0u64;
    loop {
        workload_iteration(
            ctx,
            &spec,
            i,
            async |ctx| {
                ctx.write(node(me) + NEXT, 0).await;
                ctx.write(node(me) + LOCKED, 1).await;
                let pred = ctx.swap(tail, me + 1).await;
                if pred != 0 {
                    ctx.write(node(pred - 1) + NEXT, me + 1).await;
                    // Local spin on my own node line.
                    let mut backoff = 2u64;
                    while ctx.read(node(me) + LOCKED).await != 0 {
                        ctx.work(backoff).await;
                        backoff = (backoff * 2).min(64);
                    }
                }
            },
            async |ctx| {
                let next = ctx.read(node(me) + NEXT).await;
                if next == 0 {
                    if ctx.cas(tail, me + 1, 0).await {
                        return;
                    }
                    // A successor is linking itself; wait for the link.
                    let mut backoff = 2u64;
                    loop {
                        let n = ctx.read(node(me) + NEXT).await;
                        if n != 0 {
                            ctx.write(node(n - 1) + LOCKED, 0).await;
                            return;
                        }
                        ctx.work(backoff).await;
                        backoff = (backoff * 2).min(32);
                    }
                }
                ctx.write(node(next - 1) + LOCKED, 0).await;
            },
        )
        .await;
        local_work(ctx, &mut rng, spec.max_local_work, 1).await;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::CsBody;
    use crate::{Engine, MachineConfig};

    fn run(kind: LockKind, threads: usize, horizon: u64) -> (crate::SimResult, Addr) {
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(threads, 1, &mut alloc);
        let addr = match spec.body {
            CsBody::Counter { addr } => addr,
            _ => unreachable!(),
        };
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        install_lock(&mut e, spec, kind, &mut alloc);
        (e.run(horizon), addr)
    }

    #[test]
    fn all_locks_make_progress() {
        for kind in LockKind::ALL {
            let (r, _) = run(kind, 6, 150_000);
            let ops = r.metric_sum(Metric::Ops);
            assert!(
                ops > 300,
                "{} made too little progress: {ops}",
                kind.label()
            );
            // Every completed op executed exactly one CS.
            let served = r.metric_sum(Metric::Served);
            assert!(served >= ops && served <= ops + 6);
        }
    }

    #[test]
    fn locks_lose_to_delegation_under_contention() {
        let t = 12;
        let h = 150_000;
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(t, 200, &mut alloc);
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        super::super::install_mp_server(&mut e, spec);
        let mp = e.run(h).mops();
        for kind in LockKind::ALL {
            let (r, _) = run(kind, t, h);
            assert!(
                mp > r.mops(),
                "mp-server ({mp:.1}) must beat {} ({:.1}) under contention",
                kind.label(),
                r.mops()
            );
        }
    }

    #[test]
    fn single_thread_lock_is_cheap() {
        let (r, _) = run(LockKind::Mcs, 1, 80_000);
        // Alone, the MCS fast path is one swap + one CAS per CS.
        assert!(r.metric_sum(Metric::Ops) > 300);
    }
}
