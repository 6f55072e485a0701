//! The simulator performance model of LCRQ, Figure 5a's nonblocking
//! comparator.
//!
//! It is a *performance* model: it issues the same mix of memory and
//! atomic operations as the real algorithm (fetch-and-add on head and
//! tail, CAS on ring cells, retries on contention) so that the TILE-Gx
//! effects the paper describes — atomics serialized at two memory
//! controllers, CAS retry storms — shape the curve. The functionally
//! complete LCRQ lives in the native `mpsync-objects` crate. Figure 5b's
//! Treiber stack is no model: tilesim runs `mpsync-core`'s own
//! (`mpsync_core::stack::TreiberLayout`).

use rand::rngs::StdRng;
use rand::Rng;

use crate::algos::{client_rng, record_op, AddrAlloc};
use crate::engine::{Ctx, Engine};
use crate::mem::{Addr, WORDS_PER_LINE};
use crate::stats::Metric;

/// Shared state of the LCRQ model.
#[derive(Clone, Copy)]
pub struct LcrqModel {
    head: Addr,
    tail: Addr,
    cells: Addr,
    ring: u64,
}

impl LcrqModel {
    /// Allocates the model's lines: head and tail counters plus a ring of
    /// `ring` cells (one line each).
    pub fn new(alloc: &mut AddrAlloc, ring: u64) -> Self {
        Self {
            head: alloc.line(),
            tail: alloc.line(),
            cells: alloc.lines(ring),
            ring,
        }
    }

    fn cell(&self, pos: u64) -> Addr {
        self.cells + (pos % self.ring) * WORDS_PER_LINE
    }

    /// One enqueue: FAA on the tail, then CAS the claimed cell from its
    /// round tag to the deposited state (retrying the FAA if the cell was
    /// already skipped by a dequeuer, as in the real algorithm).
    pub async fn enqueue(&self, ctx: &mut Ctx) {
        loop {
            let t = ctx.faa(self.tail, 1).await;
            let cell = self.cell(t);
            let cur = ctx.read(cell).await;
            ctx.record(Metric::Cas, 1);
            // Cell is free for round `t` if it still carries the value the
            // round before it would have (2 per slot per lap: deposit +
            // consume).
            if cur == 2 * (t / self.ring) && ctx.cas(cell, cur, cur + 1).await {
                return;
            }
            ctx.record(Metric::CasFail, 1);
        }
    }

    /// One dequeue: FAA on the head, then CAS the cell from deposited to
    /// consumed; returns `false` on an empty-queue observation.
    pub async fn dequeue(&self, ctx: &mut Ctx) -> bool {
        loop {
            let h = ctx.faa(self.head, 1).await;
            let cell = self.cell(h);
            let cur = ctx.read(cell).await;
            let deposited = 2 * (h / self.ring) + 1;
            if cur == deposited {
                ctx.record(Metric::Cas, 1);
                if ctx.cas(cell, cur, cur + 1).await {
                    return true;
                }
                ctx.record(Metric::CasFail, 1);
            }
            // Not yet deposited (or we lost the race): check emptiness the
            // way the real algorithm does, by comparing against the tail.
            let t = ctx.read(self.tail).await;
            if t <= h + 1 {
                // Overshot: fix up the tail as FIXSTATE does.
                ctx.record(Metric::Cas, 1);
                let _ = ctx.cas(self.tail, t, h + 1).await;
                return false;
            }
        }
    }
}

/// Installs LCRQ client procs running the §5.4 balanced workload.
pub fn install_lcrq(
    engine: &mut Engine,
    threads: usize,
    ring: u64,
    seed: u64,
    max_local_work: u64,
    alloc: &mut AddrAlloc,
) {
    let model = LcrqModel::new(alloc, ring);
    for _ in 0..threads {
        engine.add_proc(async move |ctx| {
            let mut rng = client_rng(seed, ctx.core());
            loop {
                balanced_queue_step(ctx, &model, &mut rng, max_local_work).await;
            }
        });
    }
}

async fn balanced_queue_step(ctx: &mut Ctx, model: &LcrqModel, rng: &mut StdRng, max_work: u64) {
    let t0 = ctx.now();
    model.enqueue(ctx).await;
    record_op(ctx, t0);
    ctx.work(rng.gen_range(0..=max_work)).await;
    let t0 = ctx.now();
    model.dequeue(ctx).await;
    record_op(ctx, t0);
    ctx.work(rng.gen_range(0..=max_work)).await;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    #[test]
    fn lcrq_model_runs_and_counts() {
        let mut alloc = AddrAlloc::new();
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        install_lcrq(&mut e, 6, 64, 1, 50, &mut alloc);
        let r = e.run(150_000);
        let ops = r.metric_sum(Metric::Ops);
        assert!(ops > 500, "too few LCRQ ops: {ops}");
        assert!(r.metric_sum(Metric::Cas) >= ops / 2);
    }

    #[test]
    fn lcrq_sequential_semantics() {
        let mut alloc = AddrAlloc::new();
        let model = LcrqModel::new(&mut alloc, 8);
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        e.add_proc(async move |ctx| {
            assert!(!model.dequeue(ctx).await, "fresh queue must be empty");
            model.enqueue(ctx).await;
            model.enqueue(ctx).await;
            assert!(model.dequeue(ctx).await);
            assert!(model.dequeue(ctx).await);
            assert!(!model.dequeue(ctx).await);
        });
        e.run(1_000_000);
    }
}
