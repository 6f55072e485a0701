//! Simulator implementations of the four synchronization constructions the
//! paper evaluates, plus the shared building blocks (address allocation,
//! critical-section bodies, workload op generators, spin helpers).
//!
//! Each construction installs one proc per participating thread into an
//! [`Engine`](crate::Engine); application procs run the paper's §5.2
//! methodology loop — execute one operation on the shared object, then a
//! random number (at most 50) of empty loop iterations of local work — until
//! the simulation horizon tears them down.
//!
//! Metrics recorded (see [`Metric`]): every application proc
//! counts `Ops`/`LatSum`/`LatCount`; every servicing proc counts `Served`;
//! combiners additionally count `Rounds`/`Combined`/`Orphans`, and HYBCOMB
//! clients count `Cas`.

mod cc_synch;
mod hybcomb;
mod locks;
mod mp_server;
mod shm_server;

pub use cc_synch::{install_cc_synch, install_cc_synch_fixed};
pub use hybcomb::{install_hybcomb, install_hybcomb_fixed, HybOptions};
pub use locks::{install_lock, LockKind};
pub use mp_server::install_mp_server;
pub(crate) use mp_server::serve as serve_body;
pub use shm_server::install_shm_server;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::Ctx;
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
    /// Sequential FIFO queue (the one-lock MS-queue configuration):
    /// op 0 = enqueue(arg), op 1 = dequeue.
    SeqQueue {
        /// Line holding the head index.
        head: Addr,
        /// Line holding the tail index.
        tail: Addr,
        /// First of `len` node lines, used as a ring.
        nodes: Addr,
        /// Node ring capacity.
        len: u64,
    },
    /// Sequential LIFO stack: op 0 = push(arg), op 1 = pop.
    SeqStack {
        /// Line holding the top-of-stack index.
        top: Addr,
        /// First of `len` node lines.
        nodes: Addr,
        /// Node ring capacity.
        len: u64,
    },
    /// The enqueue critical section of the two-lock MS queue.
    TwoLockEnq {
        /// Line holding the tail node id.
        tail: Addr,
        /// Line holding the node allocation cursor.
        alloc: Addr,
        /// First node line (word 0 = value, word 1 = next+1).
        nodes: Addr,
        /// Node ring capacity.
        len: u64,
    },
    /// The dequeue critical section of the two-lock MS queue.
    TwoLockDeq {
        /// Line holding the head (dummy) node id.
        head: Addr,
        /// First node line (shared with the enqueue side).
        nodes: Addr,
        /// Node ring capacity.
        len: u64,
    },
}

/// Sentinel for "empty" results from queue/stack bodies.
pub const CS_EMPTY: u64 = u64::MAX;

/// Sentinel for "full" results from the bounded queue body.
pub const CS_FULL: u64 = u64::MAX - 1;

fn node_line(nodes: Addr, id: u64, len: u64) -> Addr {
    nodes + (id % len) * WORDS_PER_LINE
}

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
        CsBody::SeqQueue {
            head,
            tail,
            nodes,
            len,
        } => {
            if op == 0 {
                // enqueue(arg); the node ring bounds capacity (the paper's
                // queues are unbounded, but its balanced load never grows
                // them — the bound only matters for the imbalance
                // extension, where a full queue rejects the enqueue).
                let t = ctx.read(tail).await;
                let h = ctx.read(head).await;
                if t - h >= len {
                    return CS_FULL;
                }
                ctx.write(node_line(nodes, t, len), arg).await;
                ctx.write(tail, t + 1).await;
                0
            } else {
                // dequeue
                let h = ctx.read(head).await;
                let t = ctx.read(tail).await;
                if h == t {
                    return CS_EMPTY;
                }
                let v = ctx.read(node_line(nodes, h, len)).await;
                ctx.write(head, h + 1).await;
                v
            }
        }
        CsBody::SeqStack { top, nodes, len } => {
            if op == 0 {
                let t = ctx.read(top).await;
                ctx.write(node_line(nodes, t, len), arg).await;
                ctx.write(top, t + 1).await;
                0
            } else {
                let t = ctx.read(top).await;
                if t == 0 {
                    return CS_EMPTY;
                }
                let v = ctx.read(node_line(nodes, t - 1, len)).await;
                ctx.write(top, t - 1).await;
                v
            }
        }
        CsBody::TwoLockEnq {
            tail,
            alloc,
            nodes,
            len,
        } => {
            // Allocate a node from the ring, initialize it, link, advance.
            let n = ctx.read(alloc).await;
            ctx.write(alloc, n + 1).await;
            let new = node_line(nodes, n, len);
            ctx.write(new, arg).await; // value
            ctx.write(new + 1, 0).await; // next = nil
            let t = ctx.read(tail).await;
            ctx.write(node_line(nodes, t, len) + 1, n % len + 1).await; // link (Release in the native code)
            ctx.write(tail, n % len).await;
            0
        }
        CsBody::TwoLockDeq { head, nodes, len } => {
            let h = ctx.read(head).await;
            let next = ctx.read(node_line(nodes, h, len) + 1).await; // Acquire in the native code
            if next == 0 {
                return CS_EMPTY;
            }
            let v = ctx.read(node_line(nodes, next - 1, len)).await;
            ctx.write(head, next - 1).await;
            v
        }
    }
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

pub(crate) fn client_rng(seed: u64, core: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Spins until `read(addr) == expected`, with growing local backoff so the
/// simulation does not drown in spin events. Real local spinning costs the
/// interconnect nothing; the backoff (capped at 32 cycles) only adds a small
/// wake-up delay, the same price a PAUSE-loop pays on silicon.
pub(crate) async fn spin_until_eq(ctx: &mut Ctx, addr: Addr, expected: u64) -> u64 {
    let mut backoff = 2u64;
    loop {
        let v = ctx.read(addr).await;
        if v == expected {
            return v;
        }
        ctx.work(backoff).await;
        backoff = (backoff * 2).min(32);
    }
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
    fn seq_queue_body_fifo() {
        let mut alloc = AddrAlloc::new();
        let body = CsBody::SeqQueue {
            head: alloc.line(),
            tail: alloc.line(),
            nodes: alloc.lines(8),
            len: 8,
        };
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        e.add_proc(async move |ctx| {
            assert_eq!(exec_cs(ctx, &body, 1, 0).await, CS_EMPTY);
            exec_cs(ctx, &body, 0, 11).await;
            exec_cs(ctx, &body, 0, 22).await;
            assert_eq!(exec_cs(ctx, &body, 1, 0).await, 11);
            assert_eq!(exec_cs(ctx, &body, 1, 0).await, 22);
            assert_eq!(exec_cs(ctx, &body, 1, 0).await, CS_EMPTY);
        });
        e.run(100_000);
    }

    #[test]
    fn seq_stack_body_lifo() {
        let mut alloc = AddrAlloc::new();
        let body = CsBody::SeqStack {
            top: alloc.line(),
            nodes: alloc.lines(8),
            len: 8,
        };
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        e.add_proc(async move |ctx| {
            assert_eq!(exec_cs(ctx, &body, 1, 0).await, CS_EMPTY);
            exec_cs(ctx, &body, 0, 11).await;
            exec_cs(ctx, &body, 0, 22).await;
            assert_eq!(exec_cs(ctx, &body, 1, 0).await, 22);
            assert_eq!(exec_cs(ctx, &body, 1, 0).await, 11);
        });
        e.run(100_000);
    }

    #[test]
    fn two_lock_bodies_fifo() {
        let mut alloc = AddrAlloc::new();
        let head_node = 0u64; // dummy starts at ring slot 0
        let nodes = alloc.lines(16);
        let tail = alloc.line();
        let alloc_ctr = alloc.line();
        let head = alloc.line();
        let enq = CsBody::TwoLockEnq {
            tail,
            alloc: alloc_ctr,
            nodes,
            len: 16,
        };
        let deq = CsBody::TwoLockDeq {
            head,
            nodes,
            len: 16,
        };
        let mut e = Engine::new(MachineConfig::tile_gx8036());
        e.add_proc(async move |ctx| {
            // Initialize: dummy node 0, alloc cursor starts at 1.
            ctx.write(tail, head_node).await;
            ctx.write(head, head_node).await;
            ctx.write(alloc_ctr, 1).await;
            assert_eq!(exec_cs(ctx, &deq, 1, 0).await, CS_EMPTY);
            exec_cs(ctx, &enq, 0, 7).await;
            exec_cs(ctx, &enq, 0, 8).await;
            assert_eq!(exec_cs(ctx, &deq, 1, 0).await, 7);
            assert_eq!(exec_cs(ctx, &deq, 1, 0).await, 8);
            assert_eq!(exec_cs(ctx, &deq, 1, 0).await, CS_EMPTY);
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
}
