//! Simulator implementations of the four synchronization constructions the
//! paper evaluates, plus the shared building blocks (address allocation,
//! critical-section bodies, workload op generators). Every local spin is a
//! [`Ctx::spin_until`](crate::Ctx::spin_until).
//!
//! MP-SERVER, HYBCOMB, SHM-SERVER and CC-SYNCH are not models: `Ctx` is a
//! [`Machine`](mpsync_core::machine::Machine), and their installers run
//! `mpsync-core`'s protocol code on it, as [`CsBody::Queue`],
//! [`CsBody::Stack`] and [`CsBody::TwoLock`] run its queue and stack
//! bodies. The locks are written out here.
//!
//! Each construction installs one proc per participating thread into an
//! [`Engine`]; application procs run the paper's §5.2
//! methodology loop — execute one operation on the shared object, then a
//! random number (at most 50) of empty loop iterations of local work — until
//! the simulation horizon tears them down.
//!
//! Metrics recorded (see [`Metric`]): every application proc
//! counts `Ops`/`LatSum`/`LatCount`; every servicing proc counts `Served`;
//! combiners additionally count `Rounds`/`Combined`/`Orphans`, HYBCOMB
//! clients count `Cas`, and the Treiber stack and LCRQ count
//! `Cas`/`CasFail`.

mod locks;

pub use locks::{install_lock, LockKind};
pub use mpsync_core::HybOptions;

use mpsync_core::machine::Probe;
use mpsync_core::mp_server::{request, serve};
use mpsync_core::queue::{CoarseQueueLayout, TwoLockLayout};
use mpsync_core::stack::CoarseStackLayout;
use mpsync_core::{CcSynchLayout, HybCombLayout, ShmServerLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{Ctx, Engine};
use crate::mem::{Addr, WORDS_PER_LINE};
use crate::stats::Metric;

/// Identifies one of the four constructions in workload drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// MP-SERVER (§4.1): dedicated server, hardware messages.
    MpServer,
    /// HYBCOMB (§4.2): hybrid combining.
    HybComb,
    /// SHM-SERVER (§5.2): dedicated server, cache-line channels.
    ShmServer,
    /// CC-SYNCH: shared-memory combining.
    CcSynch,
}

impl Approach {
    /// All four, in the paper's plotting order.
    pub const ALL: [Approach; 4] = [
        Approach::MpServer,
        Approach::HybComb,
        Approach::ShmServer,
        Approach::CcSynch,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Approach::MpServer => "mp-server",
            Approach::HybComb => "HybComb",
            Approach::ShmServer => "shm-server",
            Approach::CcSynch => "CC-Synch",
        }
    }
}

/// Bump allocator of cache lines in simulated memory, so that distinct
/// variables never falsely share a line unless a model deliberately co-lays
/// them.
#[derive(Debug, Default)]
pub struct AddrAlloc {
    next_line: u64,
}

impl AddrAlloc {
    /// Fresh allocator starting at line 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates one cache line and returns the address of its first word.
    pub fn line(&mut self) -> Addr {
        let a = self.next_line * WORDS_PER_LINE;
        self.next_line += 1;
        a
    }

    /// Allocates `n` consecutive lines, returning the first word address of
    /// the first line (line `i` starts at `base + i*WORDS_PER_LINE`).
    pub fn lines(&mut self, n: u64) -> Addr {
        let a = self.next_line * WORDS_PER_LINE;
        self.next_line += n;
        a
    }
}

/// The critical-section *body* — the shared-object code executed in mutual
/// exclusion by whichever thread is servicing (server, combiner, or lock
/// holder). Bodies issue real simulated memory accesses, so their cache
/// lines migrate when the servicing thread changes, exactly the locality
/// effect delegation and combining exploit.
#[derive(Debug, Clone, Copy)]
pub enum CsBody {
    /// §5.3 concurrent counter: one read + one write of a single line.
    Counter {
        /// The counter's line.
        addr: Addr,
    },
    /// Figure 4c: increment array elements in a loop, `arg` iterations.
    Array {
        /// First line of the array (one element per line).
        base: Addr,
        /// Number of elements.
        len: u64,
    },
    /// Figure 5a's one-lock queue: `mpsync-core`'s body.
    Queue(CoarseQueueLayout),
    /// Figure 5b's coarse stack: `mpsync-core`'s body.
    Stack(CoarseStackLayout),
    /// Figure 5a's two-lock queue: `mpsync-core`'s halves, one per critical
    /// section (the opcode picks the half).
    TwoLock(TwoLockLayout),
}

/// Sentinel for "empty" results from queue/stack bodies.
pub const CS_EMPTY: u64 = mpsync_core::stack::EMPTY;

/// Sentinel for "full" results from the bounded queue and stack bodies.
pub const CS_FULL: u64 = mpsync_core::stack::FULL;

/// Executes the body under the caller's mutual exclusion, issuing simulated
/// memory accesses, and returns the operation's result word.
pub async fn exec_cs(ctx: &mut Ctx, body: &CsBody, op: u64, arg: u64) -> u64 {
    match *body {
        CsBody::Counter { addr } => {
            let v = ctx.read(addr).await;
            ctx.write(addr, v + 1).await;
            v
        }
        CsBody::Array { base, len } => {
            for i in 0..arg {
                let a = base + (i % len) * WORDS_PER_LINE;
                let v = ctx.read(a).await;
                ctx.write(a, v + 1).await;
            }
            arg
        }
        CsBody::Queue(queue) => queue.apply(ctx, op, arg).await,
        CsBody::Stack(stack) => stack.apply(ctx, op, arg).await,
        CsBody::TwoLock(queue) => queue.apply(ctx, op, arg).await,
    }
}

/// What combiners and servers count, HYBCOMB's CASes, and the CASes and
/// failed CASes of the Treiber stack and LCRQ.
pub(crate) struct Metrics;

impl Probe<Ctx> for Metrics {
    fn registering(&mut self, ctx: &mut Ctx) {
        ctx.record(Metric::Cas, 1);
    }

    fn served(&mut self, ctx: &mut Ctx, _: Addr) {
        ctx.record(Metric::Served, 1);
    }

    fn round(&mut self, ctx: &mut Ctx, n: u64) {
        ctx.record(Metric::Rounds, 1);
        ctx.record(Metric::Combined, n);
        if n <= 1 {
            ctx.record(Metric::Orphans, 1);
        }
    }

    fn cas_attempt(&mut self, ctx: &mut Ctx, won: bool) {
        ctx.record(Metric::Cas, 1);
        if !won {
            ctx.record(Metric::CasFail, 1);
        }
    }
}

/// Installs an MP-SERVER run: the server on the engine's next core, then
/// `spec.threads` client procs. Returns the server's core id.
pub fn install_mp_server(engine: &mut Engine, spec: RunSpec) -> usize {
    let server = engine.add_proc(async move |ctx| serve(ctx, &spec.body, &mut Metrics).await);
    for _ in 0..spec.threads {
        engine.add_proc(async move |ctx| {
            client_loop(
                ctx,
                spec.opgen,
                spec.seed,
                spec.max_local_work,
                async |ctx, op, arg| {
                    request(ctx, server as u64, op, arg).await;
                },
            )
            .await
        });
    }
    server
}

/// Installs a HYBCOMB run with `spec.threads` application procs; thread `t`
/// starts owning node `t`, and node `spec.threads` is the spare.
pub fn install_hybcomb(
    engine: &mut Engine,
    spec: RunSpec,
    alloc: &mut AddrAlloc,
    opts: HybOptions,
) {
    let hc = hybcomb_layout(engine, &spec, alloc, spec.max_ops, opts);
    for t in 0..spec.threads as u64 {
        engine.add_proc(async move |ctx| {
            hc.register(ctx, t).await;
            hybcomb_client(ctx, spec, hc, t).await
        });
    }
}

/// The fixed-combiner variant used by Figure 4a: one thread acts as the
/// combiner for the whole run (the paper's footnote 4, "equivalent to
/// setting MAX_OPS = ∞"). Its node 0 stays registered and open, so the
/// clients run the unchanged registration path, and the combiner runs
/// MP-SERVER's serve loop.
pub fn install_hybcomb_fixed(
    engine: &mut Engine,
    spec: RunSpec,
    alloc: &mut AddrAlloc,
    _opts: HybOptions,
) {
    let hc = hybcomb_layout(engine, &spec, alloc, u64::MAX / 4, HybOptions::default());
    for (a, v) in hc.fixed_combiner() {
        engine.preset_memory(a, v);
    }
    engine.add_proc(async move |ctx| {
        hc.register(ctx, 0).await;
        serve(ctx, &spec.body, &mut Metrics).await
    });
    for t in 1..spec.threads as u64 {
        engine.add_proc(async move |ctx| hybcomb_client(ctx, spec, hc, t).await);
    }
}

/// Lays out a HYBCOMB instance for `spec`'s threads and the spare, and
/// presets its words.
fn hybcomb_layout(
    engine: &mut Engine,
    spec: &RunSpec,
    alloc: &mut AddrAlloc,
    max_ops: u64,
    opts: HybOptions,
) -> HybCombLayout {
    let nodes = spec.threads as u64 + 1;
    let base = alloc.lines(HybCombLayout::lines(nodes));
    let hc = HybCombLayout::new(base, nodes, max_ops, opts);
    for (a, v) in hc.presets() {
        engine.preset_memory(a, v);
    }
    hc
}

/// A HYBCOMB application proc's loop, starting as the owner of node `my`.
async fn hybcomb_client(ctx: &mut Ctx, spec: RunSpec, hc: HybCombLayout, mut my: u64) {
    client_loop(
        ctx,
        spec.opgen,
        spec.seed,
        spec.max_local_work,
        async |ctx, op, arg| {
            hc.apply(ctx, &spec.body, &mut my, op, arg, &mut Metrics)
                .await;
        },
    )
    .await
}

/// Installs a CC-SYNCH run with `spec.threads` application procs. Node 0
/// is the initial tail dummy; thread `t` starts owning node `t + 1`.
pub fn install_cc_synch(engine: &mut Engine, spec: RunSpec, alloc: &mut AddrAlloc) {
    let cc = CcSynchLayout {
        nodes: alloc.lines(spec.threads as u64 + 1),
        tail: alloc.line(),
        max_ops: spec.max_ops,
    };
    for t in 0..spec.threads {
        let mut node = t as u64 + 1;
        engine.add_proc(async move |ctx| {
            client_loop(
                ctx,
                spec.opgen,
                spec.seed,
                spec.max_local_work,
                async |ctx, op, arg| {
                    cc.apply(ctx, &spec.body, &mut node, op, arg, &mut Metrics)
                        .await;
                },
            )
            .await
        });
    }
}

/// The fixed-combiner variant used by Figure 4a: equivalent to
/// `MAX_OPS = ∞` (footnote 4 of the paper).
pub fn install_cc_synch_fixed(engine: &mut Engine, spec: RunSpec, alloc: &mut AddrAlloc) {
    let max_ops = u64::MAX / 2;
    install_cc_synch(engine, RunSpec { max_ops, ..spec }, alloc);
}

/// Installs a SHM-SERVER run: the server on the engine's next core, then
/// `spec.threads` clients, each owning a channel line taken from `alloc`.
/// Returns the server's core id.
pub fn install_shm_server(engine: &mut Engine, spec: RunSpec, alloc: &mut AddrAlloc) -> usize {
    let shm = ShmServerLayout {
        channels: alloc.lines(spec.threads as u64),
        clients: spec.threads as u64,
    };
    let server = engine.add_proc(async move |ctx| shm.serve(ctx, &spec.body, &mut Metrics).await);
    for i in 0..shm.clients {
        let ch = shm.channel(i);
        engine.add_proc(async move |ctx| {
            client_loop(
                ctx,
                spec.opgen,
                spec.seed,
                spec.max_local_work,
                async |ctx, op, arg| {
                    ShmServerLayout::request(ctx, ch, op, arg).await;
                },
            )
            .await
        });
    }
    server
}

/// What sequence of `(op, arg)` an application thread submits.
#[derive(Debug, Clone, Copy)]
pub enum OpGen {
    /// The same operation every time (counter, array CS).
    Fixed {
        /// Opcode submitted.
        op: u64,
        /// Argument submitted.
        arg: u64,
    },
    /// Alternate between two operations (balanced enqueue/dequeue,
    /// push/pop — the §5.4 "balanced load").
    Alternate {
        /// The pair of operations cycled through.
        ops: [(u64, u64); 2],
    },
    /// Cycle through up to four operations (asymmetric mixes, e.g. three
    /// enqueues per dequeue in the imbalance extension).
    Cycle {
        /// The operations cycled through (`ops[..len]`).
        ops: [(u64, u64); 4],
        /// How many of the four slots are used.
        len: usize,
    },
}

impl OpGen {
    /// The `i`-th operation this generator produces.
    #[inline]
    pub fn op(&self, i: u64) -> (u64, u64) {
        match *self {
            OpGen::Fixed { op, arg } => (op, arg),
            OpGen::Alternate { ops } => ops[(i % 2) as usize],
            OpGen::Cycle { ops, len } => ops[(i % len as u64) as usize],
        }
    }
}

/// Everything needed to install one construction run into an engine.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Number of *application* threads (servers are extra, as in the
    /// paper's client counts).
    pub threads: usize,
    /// Combining bound (`MAX_OPS`); ignored by the server approaches.
    pub max_ops: u64,
    /// The critical-section body.
    pub body: CsBody,
    /// Operation sequence of each application thread.
    pub opgen: OpGen,
    /// RNG seed for the local-work jitter.
    pub seed: u64,
    /// Maximum empty-loop iterations of local work between operations
    /// (paper: 50).
    pub max_local_work: u64,
}

impl RunSpec {
    /// A counter workload spec with the paper's defaults.
    pub fn counter(threads: usize, max_ops: u64, alloc: &mut AddrAlloc) -> Self {
        Self {
            threads,
            max_ops,
            body: CsBody::Counter { addr: alloc.line() },
            opgen: OpGen::Fixed { op: 0, arg: 0 },
            seed: 0xC0FFEE,
            max_local_work: 50,
        }
    }
}

/// Local-work pause between operations (§5.2: "a random number of empty
/// loop iterations (at most 50)"), to prevent unrealistic long runs.
pub(crate) async fn local_work(ctx: &mut Ctx, rng: &mut StdRng, max_iters: u64, iter_cycles: u64) {
    if max_iters > 0 {
        let iters = rng.gen_range(0..=max_iters);
        ctx.work(iters * iter_cycles).await;
    }
}

/// An application proc's loop: the `opgen` operations through `apply`,
/// each followed by local work of at most `max_local_work` iterations
/// drawn from `seed`, until the horizon tears the proc down.
pub(crate) async fn client_loop(
    ctx: &mut Ctx,
    opgen: OpGen,
    seed: u64,
    max_local_work: u64,
    mut apply: impl AsyncFnMut(&mut Ctx, u64, u64),
) {
    let mut rng = client_rng(seed, ctx.core());
    let mut i = 0u64;
    loop {
        let (op, arg) = opgen.op(i);
        let t0 = ctx.now();
        apply(ctx, op, arg).await;
        record_op(ctx, t0);
        local_work(ctx, &mut rng, max_local_work, 1).await;
        i += 1;
    }
}

pub(crate) fn client_rng(seed: u64, core: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Records one completed application operation with its latency (average
/// accumulators plus the logarithmic histogram used for tail-latency
/// analysis, `repro ext-tail`).
pub(crate) fn record_op(ctx: &mut Ctx, t0: u64) {
    let t1 = ctx.now();
    let lat = t1 - t0;
    ctx.record(Metric::Ops, 1);
    ctx.record(Metric::LatSum, lat);
    ctx.record(Metric::LatCount, 1);
    ctx.record(Metric::LAT_HISTOGRAM[crate::stats::lat_bucket(lat)], 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, MachineConfig};

    #[test]
    fn addr_alloc_separates_lines() {
        let mut a = AddrAlloc::new();
        let x = a.line();
        let y = a.line();
        assert_ne!(crate::line_of(x), crate::line_of(y));
        let z = a.lines(3);
        let w = a.line();
        assert_eq!(crate::line_of(w) - crate::line_of(z), 3);
    }

    #[test]
    fn opgen_sequences() {
        let f = OpGen::Fixed { op: 1, arg: 9 };
        assert_eq!(f.op(0), (1, 9));
        assert_eq!(f.op(5), (1, 9));
        let alt = OpGen::Alternate {
            ops: [(0, 5), (1, 0)],
        };
        assert_eq!(alt.op(0), (0, 5));
        assert_eq!(alt.op(1), (1, 0));
        assert_eq!(alt.op(2), (0, 5));
    }

    #[test]
    fn counter_body_increments() {
        let mut alloc = AddrAlloc::new();
        let addr = alloc.line();
        let body = CsBody::Counter { addr };
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        e.add_proc(async move |ctx| {
            assert_eq!(exec_cs(ctx, &body, 0, 0).await, 0);
            assert_eq!(exec_cs(ctx, &body, 0, 0).await, 1);
            assert_eq!(ctx.read(addr).await, 2);
        });
        e.run(100_000);
    }

    #[test]
    fn queue_body_fifo() {
        use mpsync_core::queue::ops::{DEQ, ENQ};
        let mut alloc = AddrAlloc::new();
        let body = CsBody::Queue(CoarseQueueLayout {
            head: alloc.line(),
            tail: alloc.line(),
            slots: alloc.lines(8),
            len: 8,
        });
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        e.add_proc(async move |ctx| {
            assert_eq!(exec_cs(ctx, &body, DEQ, 0).await, CS_EMPTY);
            exec_cs(ctx, &body, ENQ, 11).await;
            exec_cs(ctx, &body, ENQ, 22).await;
            assert_eq!(exec_cs(ctx, &body, DEQ, 0).await, 11);
            assert_eq!(exec_cs(ctx, &body, DEQ, 0).await, 22);
            assert_eq!(exec_cs(ctx, &body, DEQ, 0).await, CS_EMPTY);
        });
        e.run(100_000);
    }

    #[test]
    fn array_body_touches_lines() {
        let mut alloc = AddrAlloc::new();
        let base = alloc.lines(4);
        let body = CsBody::Array { base, len: 4 };
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        e.add_proc(async move |ctx| {
            assert_eq!(exec_cs(ctx, &body, 0, 6).await, 6);
            assert_eq!(ctx.read(base).await, 2);
            assert_eq!(ctx.read(base + WORDS_PER_LINE).await, 2);
            assert_eq!(ctx.read(base + 2 * WORDS_PER_LINE).await, 1);
        });
        e.run(100_000);
    }

    fn run_cc_synch(threads: usize, max_ops: u64, horizon: u64) -> crate::SimResult {
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(threads, max_ops, &mut alloc);
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        install_cc_synch(&mut e, spec, &mut alloc);
        e.run(horizon)
    }

    #[test]
    fn counter_ops_all_executed() {
        let r = run_cc_synch(8, 64, 200_000);
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
        let r2 = run_cc_synch(2, 200, 150_000);
        let r12 = run_cc_synch(12, 200, 150_000);
        assert!(
            r12.combining_rate() > r2.combining_rate(),
            "combining rate should grow with concurrency: {} vs {}",
            r12.combining_rate(),
            r2.combining_rate()
        );
    }

    #[test]
    fn single_thread_works() {
        let r = run_cc_synch(1, 200, 50_000);
        assert!(r.metric_sum(Metric::Ops) > 100);
        // Alone, every round serves exactly one request.
        assert!((r.combining_rate() - 1.0).abs() < 1e-9);
    }

    fn run_hybcomb(
        threads: usize,
        max_ops: u64,
        horizon: u64,
        opts: HybOptions,
    ) -> crate::SimResult {
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(threads, max_ops, &mut alloc);
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        install_hybcomb(&mut e, spec, &mut alloc, opts);
        e.run(horizon)
    }

    #[test]
    fn ops_complete_and_balance() {
        let r = run_hybcomb(8, 64, 200_000, HybOptions::default());
        let ops = r.metric_sum(Metric::Ops);
        assert!(ops > 1_000, "too few ops: {ops}");
        let served = r.metric_sum(Metric::Served);
        assert!(served >= ops, "served {served} < completed ops {ops}");
        assert!(served <= ops + 2 * 8);
    }

    #[test]
    fn beats_cc_synch_on_throughput() {
        let hyb = run_hybcomb(10, 200, 200_000, HybOptions::default()).mops();
        let cc = run_cc_synch(10, 200, 200_000).mops();
        assert!(
            hyb > cc,
            "HYBCOMB should outperform CC-SYNCH under load: {hyb:.1} vs {cc:.1}"
        );
    }

    #[test]
    fn cas_per_op_is_low_under_load() {
        let r = run_hybcomb(12, 200, 300_000, HybOptions::default());
        let cas = r.cas_per_op();
        assert!(
            cas < 0.7,
            "paper: at most ~0.7 CAS per op in multithreaded runs, got {cas:.2}"
        );
    }

    #[test]
    fn swap_variant_correct() {
        let opts = HybOptions {
            use_swap: true,
            ..HybOptions::default()
        };
        let r = run_hybcomb(6, 50, 100_000, opts);
        assert!(r.metric_sum(Metric::Ops) > 500);
    }

    #[test]
    fn nodrain_variant_correct() {
        let opts = HybOptions {
            eager_drain: false,
            ..HybOptions::default()
        };
        let r = run_hybcomb(6, 50, 100_000, opts);
        assert!(r.metric_sum(Metric::Ops) > 500);
    }

    #[test]
    fn single_thread_all_orphan_rounds() {
        let r = run_hybcomb(1, 200, 50_000, HybOptions::default());
        assert_eq!(r.metric_sum(Metric::Rounds), r.metric_sum(Metric::Orphans));
        assert!(r.metric_sum(Metric::Ops) > 50);
    }

    #[test]
    fn counter_is_exact_and_server_barely_stalls() {
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(8, 200, &mut alloc);
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        let server = install_mp_server(&mut e, spec);
        let r = e.run(200_000);

        let ops = r.metric_sum(Metric::Ops);
        let served = r.metric(server, Metric::Served);
        assert!(ops > 1_000, "too few ops simulated: {ops}");
        // Every client op was served (clients may have one op in flight at
        // teardown).
        assert!(served >= ops && served <= ops + 9);
        // The headline property: the servicing core's stall share is tiny.
        let s = &r.per_core[server];
        let stall_frac = s.stall as f64 / (s.busy + s.stall) as f64;
        assert!(
            stall_frac < 0.15,
            "MP-SERVER server should barely stall, got {stall_frac:.2}"
        );
    }

    #[test]
    fn latency_recorded() {
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(4, 200, &mut alloc);
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        install_mp_server(&mut e, spec);
        let r = e.run(100_000);
        assert!(r.avg_latency() > 0.0);
        assert_eq!(r.metric_sum(Metric::LatCount), r.metric_sum(Metric::Ops));
    }

    #[test]
    fn deterministic() {
        fn once() -> (u64, f64) {
            let mut alloc = AddrAlloc::new();
            let spec = RunSpec::counter(6, 200, &mut alloc);
            let mut e = Engine::new(MachineConfig::tile_gx8036());
            install_mp_server(&mut e, spec);
            let r = e.run(50_000);
            (r.metric_sum(Metric::Ops), r.avg_latency())
        }
        assert_eq!(once(), once());
    }

    #[test]
    fn counter_is_exact_and_server_stalls_heavily() {
        let mut alloc = AddrAlloc::new();
        let spec = RunSpec::counter(8, 200, &mut alloc);
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        let server = install_shm_server(&mut e, spec, &mut alloc);
        let r = e.run(200_000);

        let ops = r.metric_sum(Metric::Ops);
        assert!(ops > 500, "too few ops simulated: {ops}");
        // The paper's Figure 4a: stalls account for >50% of the servicing
        // thread's cycles under load.
        let s = &r.per_core[server];
        let stall_frac = s.stall as f64 / (s.busy + s.stall) as f64;
        assert!(
            stall_frac > 0.35,
            "SHM-SERVER server should stall heavily, got {stall_frac:.2}"
        );
    }

    #[test]
    fn slower_than_mp_server() {
        fn throughput(mp: bool) -> f64 {
            let mut alloc = AddrAlloc::new();
            let spec = RunSpec::counter(10, 200, &mut alloc);
            let mut e = Engine::new(MachineConfig::tile_gx8036());
            if mp {
                install_mp_server(&mut e, spec);
            } else {
                install_shm_server(&mut e, spec, &mut alloc);
            }
            e.run(200_000).mops()
        }
        let mp = throughput(true);
        let shm = throughput(false);
        assert!(
            mp > 1.5 * shm,
            "expected MP-SERVER to clearly win: mp={mp:.1} shm={shm:.1} Mops/s"
        );
    }
}
