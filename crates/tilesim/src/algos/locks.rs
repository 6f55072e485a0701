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
use crate::{Backoff, Until};

use super::{client_loop, exec_cs, AddrAlloc, RunSpec};

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

/// One operation under the lock: acquire, the critical section, release.
async fn locked(
    ctx: &mut Ctx,
    spec: &RunSpec,
    op: u64,
    arg: u64,
    acquire: impl AsyncFnOnce(&mut Ctx),
    release: impl AsyncFnOnce(&mut Ctx),
) {
    acquire(ctx).await;
    let _ = exec_cs(ctx, &spec.body, op, arg).await;
    ctx.record(Metric::Served, 1);
    release(ctx).await;
}

async fn tas_loop(ctx: &mut Ctx, spec: RunSpec, lock: Addr) {
    let acquire = async |ctx: &mut Ctx| {
        // The backoff carries over from one test loop to the next.
        let mut backoff = Backoff::new(4, 256);
        loop {
            if ctx.swap(lock, 1).await == 0 {
                return;
            }
            // Test loop on the (cached) lock word.
            ctx.spin_until(lock, Until::Equals(0), &mut backoff).await;
        }
    };
    let release = async |ctx: &mut Ctx| ctx.write(lock, 0).await;
    client_loop(
        ctx,
        spec.opgen,
        spec.seed,
        spec.max_local_work,
        async |ctx, op, arg| locked(ctx, &spec, op, arg, acquire, release).await,
    )
    .await
}

async fn ticket_loop(ctx: &mut Ctx, spec: RunSpec, next: Addr, serving: Addr) {
    let acquire = async |ctx: &mut Ctx| {
        let my = ctx.faa(next, 1).await;
        ctx.spin_until(serving, Until::Equals(my), &mut Backoff::new(2, 64))
            .await;
    };
    let release = async |ctx: &mut Ctx| {
        let s = ctx.read(serving).await;
        ctx.write(serving, s + 1).await;
    };
    client_loop(
        ctx,
        spec.opgen,
        spec.seed,
        spec.max_local_work,
        async |ctx, op, arg| locked(ctx, &spec, op, arg, acquire, release).await,
    )
    .await
}

async fn mcs_loop(ctx: &mut Ctx, spec: RunSpec, tail: Addr, nodes: Addr, me: u64) {
    let node = |id: u64| nodes + id * WORDS_PER_LINE;
    const LOCKED: u64 = 0;
    const NEXT: u64 = 1;
    let acquire = async |ctx: &mut Ctx| {
        ctx.write(node(me) + NEXT, 0).await;
        ctx.write(node(me) + LOCKED, 1).await;
        let pred = ctx.swap(tail, me + 1).await;
        if pred != 0 {
            ctx.write(node(pred - 1) + NEXT, me + 1).await;
            // Local spin on my own node line.
            let locked = node(me) + LOCKED;
            ctx.spin_until(locked, Until::Equals(0), &mut Backoff::new(2, 64))
                .await;
        }
    };
    let release = async |ctx: &mut Ctx| {
        let link = node(me) + NEXT;
        let mut next = ctx.read(link).await;
        if next == 0 {
            if ctx.cas(tail, me + 1, 0).await {
                return;
            }
            // A successor is linking itself; wait for the link.
            next = ctx
                .spin_until(link, Until::Differs(0), &mut Backoff::new(2, 32))
                .await;
        }
        ctx.write(node(next - 1) + LOCKED, 0).await;
    };
    client_loop(
        ctx,
        spec.opgen,
        spec.seed,
        spec.max_local_work,
        async |ctx, op, arg| locked(ctx, &spec, op, arg, acquire, release).await,
    )
    .await
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
