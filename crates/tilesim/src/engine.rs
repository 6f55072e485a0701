//! The discrete-event engine.
//!
//! Each simulated core runs one *proc*: a future built from an `async`
//! body that talks to the machine through its [`Ctx`] handle. Every `Ctx`
//! operation posts one request into a slot the proc shares with the engine
//! and suspends; the engine services the request at the right simulated
//! time and polls the proc again with the response. The engine resumes
//! exactly one proc at a time, in global simulated-time order (ties broken
//! by core id), on the thread that called [`Engine::run`] — there is no
//! other thread — so the simulation is fully deterministic, and, because
//! effects apply in that single global order, the simulated memory is
//! sequentially consistent, exactly the paper's §2 model.
//!
//! When the simulation horizon is reached the engine drops the futures:
//! a proc never runs past the operation it was suspended in, and whatever
//! its body owns is destroyed in place — so workload bodies are written as
//! infinite loops without any stop-flag plumbing.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::{poll_fn, Future};
use std::ops::{AsyncFnOnce, Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::config::MachineConfig;
use crate::mem::{Addr, Memory};
use crate::stats::{CoreStats, HostStats, Metric, SimResult, N_METRICS};

/// Messages up to this long travel inline; every protocol in this crate
/// sends at most three words, so the steady-state loop does not allocate.
const INLINE_WORDS: usize = 6;

/// The words of one message on their way between a proc and the engine.
#[derive(Debug)]
enum Words {
    Inline {
        len: usize,
        buf: [u64; INLINE_WORDS],
    },
    Heap(Vec<u64>),
}

impl Words {
    fn zeroed(len: usize) -> Self {
        if len <= INLINE_WORDS {
            Words::Inline {
                len,
                buf: [0; INLINE_WORDS],
            }
        } else {
            Words::Heap(vec![0; len])
        }
    }

    fn copy_of(words: &[u64]) -> Self {
        let mut w = Self::zeroed(words.len());
        w.copy_from_slice(words);
        w
    }
}

impl Deref for Words {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Words::Inline { len, buf } => &buf[..*len],
            Words::Heap(v) => v,
        }
    }
}

impl DerefMut for Words {
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Words::Inline { len, buf } => &mut buf[..*len],
            Words::Heap(v) => v,
        }
    }
}

/// One simulated operation, posted by a `Ctx` method for the engine to
/// service.
///
/// `Ctx::now` and `Ctx::record` have no request: both are answered from
/// the proc's slot without suspending. `now` reads the clock the engine
/// stores before every resume; `record` adds into the proc's metric row.
/// Neither shortcut can reorder the simulation — a round trip for them
/// would schedule a zero-latency event for the issuing proc, and such an
/// event is always the very next one popped (the heap holds nothing
/// smaller at that point), so no other proc could ever observe the
/// difference.
#[derive(Debug)]
enum Request {
    Read(Addr),
    Write(Addr, u64),
    Faa(Addr, u64),
    /// `(addr, expect, new)`.
    Cas(Addr, u64, u64),
    Swap(Addr, u64),
    /// `(dest, message)`.
    Send(usize, Words),
    Recv(usize),
    QueueEmpty,
    PendingTraffic,
    Work(u64),
}

/// The engine's answer to a [`Request`], handed over when the proc's event
/// fires.
#[derive(Debug)]
enum Response {
    Unit,
    Value(u64),
    Words(Words),
}

/// The slot a proc shares with the engine. Only one of the two runs at any
/// moment — the engine polls the proc on its own thread — so a `RefCell`
/// is all the synchronization there is.
struct Port {
    /// Posted by the proc's pending operation as it suspends; taken by the
    /// engine as soon as `poll` returns.
    request: Option<Request>,
    /// Stored by the engine when it schedules the proc's resume; taken by
    /// the pending operation on that resume.
    response: Option<Response>,
    /// Simulated time of the proc's latest resume.
    clock: u64,
    metrics: [u64; N_METRICS],
}

/// Per-proc handle through which simulated code talks to the machine.
///
/// All `async` methods advance simulated time; see [`MachineConfig`] for
/// costs. Await nothing else inside a proc body: a proc that suspends
/// without having posted an operation has nothing to be resumed for, and
/// [`Engine::run`] panics.
pub struct Ctx {
    core: usize,
    port: Rc<RefCell<Port>>,
}

impl Ctx {
    /// Posts `req`, suspends, and returns the engine's response once the
    /// engine resumes this proc.
    async fn transact(&mut self, req: Request) -> Response {
        let mut req = Some(req);
        poll_fn(|_| {
            let mut port = self.port.borrow_mut();
            match req.take() {
                Some(req) => {
                    port.request = Some(req);
                    Poll::Pending
                }
                None => Poll::Ready(
                    port.response
                        .take()
                        .expect("proc resumed without a response"),
                ),
            }
        })
        .await
    }

    async fn value(&mut self, req: Request) -> u64 {
        match self.transact(req).await {
            Response::Value(v) => v,
            other => unreachable!("expected a value, got {other:?}"),
        }
    }

    async fn words(&mut self, k: usize) -> Words {
        match self.transact(Request::Recv(k)).await {
            Response::Words(w) => w,
            other => unreachable!("expected message words, got {other:?}"),
        }
    }

    /// The core this proc is pinned to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Reads a shared-memory word.
    pub async fn read(&mut self, a: Addr) -> u64 {
        self.value(Request::Read(a)).await
    }

    /// Writes a shared-memory word.
    pub async fn write(&mut self, a: Addr, v: u64) {
        self.transact(Request::Write(a, v)).await;
    }

    /// Fetch-and-add; returns the previous value.
    pub async fn faa(&mut self, a: Addr, delta: u64) -> u64 {
        self.value(Request::Faa(a, delta)).await
    }

    /// Compare-and-set; returns whether the swap happened (the boolean
    /// variant, as in the paper's model).
    pub async fn cas(&mut self, a: Addr, old: u64, new: u64) -> bool {
        self.value(Request::Cas(a, old, new)).await != 0
    }

    /// Atomic exchange; returns the previous value.
    pub async fn swap(&mut self, a: Addr, v: u64) -> u64 {
        self.value(Request::Swap(a, v)).await
    }

    /// Sends `words` as one message to `dest`'s hardware queue
    /// (asynchronous; blocks only on back-pressure).
    pub async fn send(&mut self, dest: usize, words: &[u64]) {
        self.transact(Request::Send(dest, Words::copy_of(words)))
            .await;
    }

    /// Receives exactly `k` words from the local queue, blocking as needed.
    pub async fn receive(&mut self, k: usize) -> Vec<u64> {
        match self.words(k).await {
            Words::Heap(v) => v,
            inline => inline.to_vec(),
        }
    }

    /// Receives a single word (allocation-free).
    pub async fn receive1(&mut self) -> u64 {
        self.words(1).await[0]
    }

    /// Receives a three-word request `{sender, op, arg}` (allocation-free).
    pub async fn receive3(&mut self) -> [u64; 3] {
        let w = self.words(3).await;
        [w[0], w[1], w[2]]
    }

    /// `true` if the local hardware queue currently holds no arrived word.
    pub async fn is_queue_empty(&mut self) -> bool {
        self.value(Request::QueueEmpty).await != 0
    }

    /// `true` if any word is queued for this core, *including words still
    /// in flight on the simulated wire*.
    ///
    /// Real hardware cannot see in-flight messages, but this simulator
    /// charges a fixed wire latency that real short-distance UDN messages
    /// do not pay; a drain loop that polled only arrived words would close
    /// combining rounds on that artifact. Use this for "should I keep
    /// serving?" checks and [`Ctx::is_queue_empty`] for faithful hardware
    /// probes.
    pub async fn has_pending_traffic(&mut self) -> bool {
        self.value(Request::PendingTraffic).await != 0
    }

    /// Burns `cycles` of local computation.
    pub async fn work(&mut self, cycles: u64) {
        if cycles > 0 {
            self.transact(Request::Work(cycles)).await;
        }
    }

    /// Current simulated time in cycles (free).
    pub fn now(&mut self) -> u64 {
        // This proc's virtual time cannot advance between a resume and its
        // next request.
        self.port.borrow().clock
    }

    /// Adds `v` to this proc's `metric` accumulator (free).
    pub fn record(&mut self, metric: Metric, v: u64) {
        self.port.borrow_mut().metrics[metric as usize] += v;
    }
}

#[derive(Debug)]
#[allow(dead_code)] // `dest` is carried for Debug diagnostics only
enum ProcState {
    /// Scheduled in the event heap; its response waits in the port.
    Runnable,
    /// Blocked on `receive(k)` since the given cycle.
    WaitRecv {
        k: usize,
        since: u64,
    },
    /// Blocked sending `words` to `dest` since the given cycle.
    WaitSend {
        dest: usize,
        words: Words,
        since: u64,
    },
    Finished,
}

struct ProcSlot {
    state: ProcState,
    port: Rc<RefCell<Port>>,
    stats: CoreStats,
}

/// One core's hardware message queue: words with arrival times, plus the
/// back-pressured senders waiting for space.
struct SimQueue {
    words: VecDeque<(u64, u64)>, // (arrival cycle, value)
    blocked_senders: VecDeque<usize>,
}

/// The simulator: owns the machine state and the procs.
pub struct Engine {
    cfg: MachineConfig,
    mem: Memory,
    procs: Vec<ProcSlot>,
    /// The procs' bodies, indexed like `procs`.
    bodies: Vec<Pin<Box<dyn Future<Output = ()>>>>,
    queues: Vec<SimQueue>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    clock: u64,
    host: HostStats,
}

impl Engine {
    /// Creates an engine for the given machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let queues = (0..cfg.cores())
            .map(|_| SimQueue {
                words: VecDeque::new(),
                blocked_senders: VecDeque::new(),
            })
            .collect();
        Self {
            cfg,
            mem: Memory::new(cfg),
            procs: Vec::new(),
            bodies: Vec::new(),
            queues,
            heap: BinaryHeap::new(),
            clock: 0,
            host: HostStats::default(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Initializes a memory word before the run, without coherence effects
    /// or cycle charges (protocol state setup).
    pub fn preset_memory(&mut self, addr: Addr, v: u64) {
        self.mem.poke(addr, v);
    }

    /// Adds a proc pinned to the next free core (procs are pinned in
    /// ascending order, like the paper's thread placement). Returns the
    /// core index.
    ///
    /// The body runs only inside [`Engine::run`], on the thread that calls
    /// it, so it needs to be neither `Send` nor `Sync`.
    ///
    /// # Panics
    ///
    /// Panics if all cores already have a proc.
    pub fn add_proc<F>(&mut self, f: F) -> usize
    where
        F: AsyncFnOnce(&mut Ctx) + 'static,
    {
        let core = self.procs.len();
        assert!(
            core < self.cfg.cores(),
            "machine has {} cores",
            self.cfg.cores()
        );
        let port = Rc::new(RefCell::new(Port {
            request: None,
            response: None,
            clock: 0,
            metrics: [0; N_METRICS],
        }));
        let mut ctx = Ctx {
            core,
            port: Rc::clone(&port),
        };
        self.procs.push(ProcSlot {
            state: ProcState::Runnable,
            port,
            stats: CoreStats::default(),
        });
        self.bodies.push(Box::pin(async move { f(&mut ctx).await }));
        self.heap.push(Reverse((0, core)));
        core
    }

    fn schedule(&mut self, proc: usize, at: u64, resp: Response) {
        self.procs[proc].port.borrow_mut().response = Some(resp);
        self.procs[proc].state = ProcState::Runnable;
        self.heap.push(Reverse((at, proc)));
    }

    /// Charges a memory access to a core: `l1_hit` is useful work, the rest
    /// is a coherence stall.
    fn charge_mem(&mut self, proc: usize, latency: u64) {
        let useful = self.cfg.l1_hit.min(latency);
        self.procs[proc].stats.busy += useful;
        self.procs[proc].stats.stall += latency - useful;
        self.procs[proc].stats.mem_ops += 1;
    }

    /// Queue occupancy check: can `n` more words fit?
    fn queue_has_room(&self, dest: usize, n: usize) -> bool {
        self.queues[dest].words.len() + n <= self.cfg.queue_capacity
    }

    /// Deposits a message and wakes the destination's receiver if it is now
    /// satisfiable.
    fn deposit(&mut self, from: usize, dest: usize, words: &[u64], send_time: u64) {
        let arrival =
            send_time + self.cfg.send_inject + self.cfg.msg_wire_base + self.cfg.wire(from, dest);
        for &w in words {
            self.queues[dest].words.push_back((arrival, w));
        }
        self.procs[from].stats.msgs_sent += 1;
        self.try_wake_receiver(dest);
    }

    /// If the proc on `core` is blocked in `receive(k)` and k words are now
    /// queued, completes the receive.
    fn try_wake_receiver(&mut self, core: usize) {
        let (k, since) = match self.procs[core].state {
            ProcState::WaitRecv { k, since } => (k, since),
            _ => return,
        };
        if self.queues[core].words.len() < k {
            return;
        }
        self.complete_receive(core, k, since);
    }

    /// Pops `k` words for `core`'s proc and schedules its resume.
    fn complete_receive(&mut self, core: usize, k: usize, issued: u64) {
        let mut words = Words::zeroed(k);
        let mut last_arrival = issued;
        for w in words.iter_mut() {
            let (arr, v) = self.queues[core].words.pop_front().expect("checked len");
            last_arrival = last_arrival.max(arr);
            *w = v;
        }
        let service = self.cfg.recv_base + self.cfg.recv_word * k as u64;
        let resume = last_arrival + service;
        let slot = &mut self.procs[core];
        slot.stats.busy += service;
        slot.stats.idle += last_arrival - issued;
        slot.stats.msgs_recv += 1;
        self.schedule(core, resume, Response::Words(words));
        // Space freed: let blocked senders through (in arrival order).
        self.drain_blocked_senders(core, resume);
    }

    fn drain_blocked_senders(&mut self, dest: usize, now: u64) {
        while let Some(&sender) = self.queues[dest].blocked_senders.front() {
            let ProcState::WaitSend { words, .. } = &self.procs[sender].state else {
                unreachable!("blocked sender not in WaitSend");
            };
            if !self.queue_has_room(dest, words.len()) {
                break;
            }
            self.queues[dest].blocked_senders.pop_front();
            let resume = now + self.cfg.send_inject;
            let ProcState::WaitSend { words, since, .. } =
                std::mem::replace(&mut self.procs[sender].state, ProcState::Runnable)
            else {
                unreachable!("checked above");
            };
            self.procs[sender].stats.idle += now.saturating_sub(since);
            self.procs[sender].stats.blocked_sends += 1;
            self.deposit(sender, dest, &words, now);
            self.procs[sender].stats.busy += self.cfg.send_inject;
            self.schedule(sender, resume, Response::Unit);
        }
    }

    /// Services one request of `proc` at the current clock: applies its
    /// effect and either schedules the proc's resume or leaves it blocked.
    fn service(&mut self, proc: usize, req: Request) {
        let now = self.clock;
        match req {
            Request::Read(a) => {
                let (v, acc) = self.mem.read(proc, a, now);
                self.charge_mem(proc, acc.latency);
                self.schedule(proc, now + acc.latency, Response::Value(v));
            }
            Request::Write(a, v) => {
                let acc = self.mem.write(proc, a, v, now);
                self.charge_mem(proc, acc.latency);
                self.schedule(proc, now + acc.latency, Response::Unit);
            }
            Request::Faa(a, d) => {
                let (old, acc) = self.mem.atomic(proc, a, now, |v| v.wrapping_add(d));
                self.charge_mem(proc, acc.latency);
                self.schedule(proc, now + acc.latency, Response::Value(old));
            }
            Request::Cas(a, expect, new) => {
                let mut ok = false;
                let (_, acc) = self.mem.atomic(proc, a, now, |v| {
                    if v == expect {
                        ok = true;
                        new
                    } else {
                        v
                    }
                });
                self.charge_mem(proc, acc.latency);
                self.schedule(proc, now + acc.latency, Response::Value(ok as u64));
            }
            Request::Swap(a, new) => {
                let (old, acc) = self.mem.atomic(proc, a, now, |_| new);
                self.charge_mem(proc, acc.latency);
                self.schedule(proc, now + acc.latency, Response::Value(old));
            }
            Request::Send(dest, msg) => {
                assert!(dest < self.queues.len(), "send to core {dest} out of range");
                assert!(
                    msg.len() <= self.cfg.queue_capacity,
                    "message larger than a hardware queue"
                );
                if self.queue_has_room(dest, msg.len()) {
                    self.deposit(proc, dest, &msg, now);
                    self.procs[proc].stats.busy += self.cfg.send_inject;
                    self.schedule(proc, now + self.cfg.send_inject, Response::Unit);
                } else {
                    self.procs[proc].state = ProcState::WaitSend {
                        dest,
                        words: msg,
                        since: now,
                    };
                    self.queues[dest].blocked_senders.push_back(proc);
                }
            }
            Request::Recv(k) => {
                assert!(
                    k > 0 && k <= self.cfg.queue_capacity,
                    "bad receive size {k}"
                );
                if self.queues[proc].words.len() >= k {
                    self.complete_receive(proc, k, now);
                } else {
                    self.procs[proc].state = ProcState::WaitRecv { k, since: now };
                }
            }
            Request::QueueEmpty => {
                let empty = self.queues[proc]
                    .words
                    .front()
                    .map(|&(arr, _)| arr > now)
                    .unwrap_or(true);
                self.procs[proc].stats.busy += self.cfg.queue_probe;
                self.schedule(
                    proc,
                    now + self.cfg.queue_probe,
                    Response::Value(empty as u64),
                );
            }
            Request::PendingTraffic => {
                let pending = !self.queues[proc].words.is_empty();
                self.procs[proc].stats.busy += self.cfg.queue_probe;
                self.schedule(
                    proc,
                    now + self.cfg.queue_probe,
                    Response::Value(pending as u64),
                );
            }
            Request::Work(cycles) => {
                self.procs[proc].stats.busy += cycles;
                self.schedule(proc, now + cycles, Response::Unit);
            }
        }
    }

    /// Polls `proc` once: its pending operation takes the response from the
    /// port and the body runs on to its next operation (or its end).
    fn resume(&mut self, proc: usize, cx: &mut Context<'_>) -> Poll<()> {
        self.host.handoffs += 1;
        self.procs[proc].port.borrow_mut().clock = self.clock;
        let body = &mut self.bodies[proc];
        match panic::catch_unwind(AssertUnwindSafe(|| body.as_mut().poll(cx))) {
            Ok(poll) => poll,
            // Same unwind, but the payload now names the core.
            Err(payload) => {
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    s
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.as_str()
                } else {
                    "panicked"
                };
                panic::resume_unwind(Box::new(format!("proc {proc}: {msg}")))
            }
        }
    }

    /// Runs the simulation until every proc finished or `horizon` cycles
    /// elapsed, and returns the collected statistics.
    ///
    /// Procs still suspended when the run ends — in an operation whose
    /// response is due at or after the horizon, or blocked with no event
    /// left that could wake them — are dropped where they stand: their
    /// bodies' destructors run, the code after that operation does not, and
    /// everything they recorded before it counts.
    ///
    /// # Panics
    ///
    /// Panics with `proc N: <message>` if proc N's body panicked (test
    /// failures propagate), and if a proc suspends on anything but a
    /// [`Ctx`] operation.
    pub fn run(mut self, horizon: u64) -> SimResult {
        let mut cx = Context::from_waker(Waker::noop());
        let mut live = self.procs.len();
        while live > 0 {
            // An empty heap is quiescence: every remaining proc is blocked
            // and no event is left that could ever wake one.
            let Some(Reverse((t, proc))) = self.heap.pop() else {
                break;
            };
            self.clock = self.clock.max(t);
            if self.clock >= horizon {
                // The run ends at the latest resume already scheduled.
                let scheduled = self.heap.iter().map(|&Reverse((t, _))| t);
                self.clock = scheduled.fold(self.clock, u64::max);
                break;
            }
            match self.resume(proc, &mut cx) {
                Poll::Ready(()) => {
                    self.procs[proc].state = ProcState::Finished;
                    live -= 1;
                }
                Poll::Pending => {
                    let Some(req) = self.procs[proc].port.borrow_mut().request.take() else {
                        panic!("proc {proc} awaited something that is not a Ctx operation");
                    };
                    self.service(proc, req);
                }
            }
        }
        // Dropping a suspended body is the last time the engine runs that
        // proc's code (its destructors), so it counts as a resumption too.
        self.host.handoffs += live as u64;
        self.bodies.clear();

        let per_core: Vec<CoreStats> = self
            .procs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut s = p.stats;
                s.rmrs = self.mem.rmrs(i);
                s.atomics = self.mem.atomics(i);
                s
            })
            .collect();
        let metrics = self.procs.iter().map(|p| p.port.borrow().metrics).collect();
        SimResult {
            cfg: self.cfg,
            cycles: self.clock.min(horizon).max(1),
            end_clock: self.clock,
            per_core,
            metrics,
            host: self.host,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Metric;
    use std::cell::Cell;

    fn small_cfg() -> MachineConfig {
        MachineConfig {
            rows: 2,
            cols: 2,
            ..MachineConfig::tile_gx8036()
        }
    }

    #[test]
    fn single_proc_memory_ops() {
        let mut e = Engine::new(small_cfg());
        e.add_proc(async |ctx| {
            ctx.write(10, 5).await;
            assert_eq!(ctx.read(10).await, 5);
            assert_eq!(ctx.faa(10, 3).await, 5);
            assert_eq!(ctx.read(10).await, 8);
            assert!(ctx.cas(10, 8, 20).await);
            assert!(!ctx.cas(10, 8, 30).await);
            assert_eq!(ctx.swap(10, 1).await, 20);
            ctx.record(Metric::Ops, 1);
        });
        let r = e.run(1_000_000);
        assert_eq!(r.metrics[0][Metric::Ops as usize], 1);
        assert!(r.per_core[0].busy > 0);
    }

    #[test]
    fn two_procs_message_roundtrip() {
        let mut e = Engine::new(small_cfg());
        e.add_proc(async |ctx| {
            // Server on core 0.
            let m = ctx.receive3().await;
            assert_eq!(m, [1, 42, 7]);
            ctx.send(1, &[m[1] + m[2]]).await;
        });
        e.add_proc(async |ctx| {
            ctx.send(0, &[1, 42, 7]).await;
            assert_eq!(ctx.receive1().await, 49);
            ctx.record(Metric::Ops, 1);
        });
        let r = e.run(100_000);
        assert_eq!(r.metrics[1][Metric::Ops as usize], 1);
        assert_eq!(r.per_core[0].msgs_recv, 1);
        assert_eq!(r.per_core[0].msgs_sent, 1);
    }

    #[test]
    fn horizon_stops_infinite_loops() {
        let mut e = Engine::new(small_cfg());
        e.add_proc(async |ctx| loop {
            ctx.work(10).await;
            ctx.record(Metric::Ops, 1);
        });
        // A receiver that never gets a message: must be torn down too.
        e.add_proc(async |ctx| {
            ctx.receive1().await;
            unreachable!("no one sends to core 1");
        });
        let r = e.run(5_000);
        let ops = r.metrics[0][Metric::Ops as usize];
        assert!((490..=510).contains(&ops), "ops {ops}");
        assert_eq!(r.cycles, 5_000);
    }

    #[test]
    fn deterministic_same_seed_same_result() {
        fn run_once() -> (u64, u64) {
            let mut e = Engine::new(small_cfg());
            for p in 0..4 {
                e.add_proc(async move |ctx| {
                    use rand::{rngs::StdRng, Rng, SeedableRng};
                    let mut rng = StdRng::seed_from_u64(33 + p as u64);
                    loop {
                        ctx.work(rng.gen_range(0..50)).await;
                        ctx.faa(7, 1).await;
                        ctx.record(Metric::Ops, 1);
                    }
                });
            }
            let r = e.run(20_000);
            let ops: u64 = r.metrics.iter().map(|m| m[Metric::Ops as usize]).sum();
            let stalls: u64 = r.per_core.iter().map(|c| c.stall).sum();
            (ops, stalls)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn backpressure_blocks_sender() {
        let cfg = MachineConfig {
            queue_capacity: 4,
            ..small_cfg()
        };
        let mut e = Engine::new(cfg);
        e.add_proc(async |ctx| {
            // Receiver: wait long, then drain.
            ctx.work(10_000).await;
            for _ in 0..10 {
                ctx.receive1().await;
            }
        });
        e.add_proc(async |ctx| {
            for i in 0..10 {
                ctx.send(0, &[i]).await; // must block after the queue fills
            }
            ctx.record(Metric::Ops, 1);
        });
        let r = e.run(1_000_000);
        assert_eq!(r.metrics[1][Metric::Ops as usize], 1);
        assert!(r.per_core[1].blocked_sends > 0, "sender never blocked");
        assert!(r.per_core[1].idle > 0);
    }

    #[test]
    fn quiescent_blocked_proc_is_torn_down() {
        let mut e = Engine::new(small_cfg());
        e.add_proc(async |ctx| {
            ctx.receive1().await; // nobody ever sends
            unreachable!("must be stopped, not satisfied");
        });
        e.add_proc(async |ctx| {
            ctx.work(100).await;
            ctx.record(Metric::Ops, 1);
        });
        // Even with an effectively infinite horizon the run terminates once
        // no event can ever wake the blocked receiver.
        let r = e.run(u64::MAX / 2);
        assert_eq!(r.metrics[1][Metric::Ops as usize], 1);
    }

    /// The message `Engine::run` panics with when built by `build`.
    fn run_panic_message(build: impl FnOnce(&mut Engine) + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(|| {
            let mut e = Engine::new(small_cfg());
            build(&mut e);
            e.run(1_000);
        })
        .expect_err("run must panic");
        payload
            .downcast_ref::<String>()
            .expect("string payload")
            .clone()
    }

    #[test]
    fn proc_panic_propagates() {
        let msg = run_panic_message(|e| {
            e.add_proc(async |ctx| ctx.work(50).await);
            e.add_proc(async |ctx| {
                ctx.work(5).await;
                panic!("boom from sim proc");
            });
        });
        assert_eq!(msg, "proc 1: boom from sim proc");
    }

    #[test]
    fn awaiting_a_foreign_future_panics_with_the_core() {
        let msg = run_panic_message(|e| {
            e.add_proc(async |ctx| ctx.work(50).await);
            e.add_proc(async |ctx| {
                ctx.work(5).await;
                std::future::pending::<()>().await;
            });
        });
        assert!(msg.contains("proc 1 awaited"), "{msg}");
    }

    /// Bumps its counter when dropped.
    struct Bump(Rc<Cell<u32>>);

    impl Drop for Bump {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn horizon_drops_bodies_where_they_stand() {
        let cfg = MachineConfig {
            queue_capacity: 3,
            ..small_cfg()
        };
        let drops = Rc::new(Cell::new(0));
        let mut e = Engine::new(cfg);
        // Core 0: a receiver that only ever gets two of its three words.
        let guard = Bump(Rc::clone(&drops));
        e.add_proc(async move |ctx| {
            let _guard = guard;
            ctx.record(Metric::Ops, 1);
            ctx.receive3().await;
            ctx.record(Metric::Ops, 100);
        });
        // Core 1: a sender stuck behind core 0's full queue.
        let guard = Bump(Rc::clone(&drops));
        e.add_proc(async move |ctx| {
            let _guard = guard;
            ctx.send(0, &[1, 2]).await;
            ctx.record(Metric::Ops, 1);
            ctx.send(0, &[3, 4]).await;
            ctx.record(Metric::Ops, 100);
        });
        // Core 2: runnable, its response due after the horizon.
        let guard = Bump(Rc::clone(&drops));
        e.add_proc(async move |ctx| {
            let _guard = guard;
            ctx.record(Metric::Ops, 1);
            ctx.work(10_000).await;
            ctx.record(Metric::Ops, 100);
        });
        // Core 3: keeps the clock moving up to the horizon.
        let guard = Bump(Rc::clone(&drops));
        e.add_proc(async move |ctx| {
            let _guard = guard;
            loop {
                ctx.work(10).await;
            }
        });
        let r = e.run(5_000);
        assert_eq!(drops.get(), 4, "every body dropped exactly once");
        // What ran before the operation a proc was dropped in counts; what
        // follows it never ran.
        for core in 0..3 {
            assert_eq!(r.metrics[core][Metric::Ops as usize], 1, "core {core}");
        }
        assert_eq!(r.per_core[1].blocked_sends, 0, "sender was still blocked");
    }

    #[test]
    fn is_queue_empty_sees_arrivals_only() {
        let mut e = Engine::new(small_cfg());
        e.add_proc(async |ctx| {
            // Wait until the message must have arrived.
            ctx.work(1_000).await;
            assert!(!ctx.is_queue_empty().await);
            assert_eq!(ctx.receive1().await, 9);
            assert!(ctx.is_queue_empty().await);
        });
        e.add_proc(async |ctx| {
            ctx.send(0, &[9]).await;
        });
        e.run(100_000);
    }

    #[test]
    fn handoffs_count_every_resumption() {
        let mut e = Engine::new(small_cfg());
        e.add_proc(async |ctx| {
            let m = ctx.receive3().await;
            ctx.send(1, &[m[0] + m[1] + m[2]]).await;
        });
        e.add_proc(async |ctx| {
            ctx.send(0, &[1, 2, 3]).await;
            assert_eq!(ctx.receive1().await, 6);
        });
        let r = e.run(100_000);
        // Per proc: one poll per operation plus the one that ends the body.
        assert_eq!(r.host.handoffs, 6);
        assert_eq!(r.host.proc_parks, 0);
    }

    #[test]
    fn oversized_messages_round_trip() {
        let cfg = MachineConfig {
            queue_capacity: 64,
            ..small_cfg()
        };
        let mut e = Engine::new(cfg);
        e.add_proc(async |ctx| {
            let words = ctx.receive(10).await;
            assert_eq!(words, (0..10u64).collect::<Vec<_>>());
            ctx.record(Metric::Ops, 1);
        });
        e.add_proc(async |ctx| {
            let msg: Vec<u64> = (0..10).collect();
            ctx.send(0, &msg).await;
        });
        let r = e.run(100_000);
        assert_eq!(r.metrics[0][Metric::Ops as usize], 1);
    }
}
