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
//!
//! # Engine-run spins
//!
//! [`Ctx::spin_until`] is a read-then-backoff loop that the engine runs
//! itself, without polling the proc once per iteration. A read that does
//! not end the spin leaves the spinner holding the line, so every later
//! read would hit and return the same value; only a write or an atomic by
//! another core can change the word, and both invalidate the spinner's
//! copy. So the spinner sleeps: the line's directory entry records it, and
//! the access that invalidates the line reports it. On that invalidation
//! by core `w` at cycle `T` the engine replays the sleep with arithmetic —
//! each phase is the backoff's busy cycles, then a hit read (`l1_hit` busy
//! cycles, one memory op) — up to the first read ordered after `(T, w)`,
//! which it schedules as a real event: it misses, as it would have. The
//! result is the per-iteration loop's to the cycle:
//!
//! - *Ties follow the heap.* A read on cycle `T` comes before `w`'s write
//!   only if the spinner's core id is lower. (Every operation takes at
//!   least one cycle, so the spinner's read would have been in the heap
//!   before that write was serviced.)
//! - *The horizon.* A phase at or past the horizon is not charged; the
//!   first such phase's time is scheduled, so the run's final clock counts
//!   it like any other pending resume.
//! - *Quiescence.* A heap that runs empty while spinners sleep is not
//!   quiescence: nothing can wake them, so they spin on to the horizon.
//!
//! `HostStats::handoffs` counts only real resumptions of proc bodies, so a
//! spin adds one to it however many times it reads.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::ops::{AsyncFnOnce, Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::task::{Context, Poll, Waker};

use mpsync_core::machine::{Backoff, Machine, Until};

use crate::algos::{exec_cs, CsBody};
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
/// event is always the very next one taken (no pending event is smaller
/// at that point), so no other proc could ever observe the difference.
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
    Spin(Spin),
}

/// The engine's answer to a [`Request`], handed over when the proc's event
/// fires.
#[derive(Debug)]
enum Response {
    Unit,
    Value(u64),
    Words(Words),
    /// The value that ended a spin and the backoff it ended with.
    Spun(u64, Backoff),
}

impl Response {
    fn value(self) -> u64 {
        match self {
            Response::Value(v) => v,
            other => unreachable!("expected a value, got {other:?}"),
        }
    }

    fn words(self) -> Words {
        match self {
            Response::Words(w) => w,
            other => unreachable!("expected message words, got {other:?}"),
        }
    }
}

/// A proc inside [`Ctx::spin_until`]. The engine runs the spin itself and
/// resumes the proc's body only with the value that ends it.
#[derive(Debug, Clone, Copy)]
struct Spin {
    addr: Addr,
    until: Until,
    backoff: Backoff,
}

/// The slot a proc shares with the engine. Only one of the two runs at any
/// moment — the engine polls the proc on its own thread — and every field
/// is a `Cell` moved or copied whole, so nothing is ever borrowed.
#[derive(Default)]
struct Port {
    /// Posted by the proc's pending operation as it suspends; taken by the
    /// engine as soon as `poll` returns.
    request: Cell<Option<Request>>,
    /// Stored by the engine when it schedules the proc's resume; taken by
    /// the pending operation on that resume.
    response: Cell<Option<Response>>,
    /// Simulated time of the proc's latest resume.
    clock: Cell<u64>,
    metrics: [Cell<u64>; N_METRICS],
}

/// Per-proc handle through which simulated code talks to the machine.
///
/// Every method that returns a future advances simulated time; see
/// [`MachineConfig`] for costs. Await nothing else inside a proc body: a
/// proc that suspends without having posted an operation has nothing to be
/// resumed for, and [`Engine::run`] panics.
pub struct Ctx {
    core: usize,
    port: Rc<Port>,
}

/// The future of one `Ctx` operation, written out so that an operation is
/// one state machine: each `async fn` layer would add a state to dispatch on
/// every poll. Its first poll posts the request and suspends; the second,
/// when the engine resumes the proc, takes the response and maps it with
/// `out`.
struct Op<'a, F> {
    port: &'a Port,
    req: Option<Request>,
    out: F,
}

impl<T, F: Fn(Response) -> T + Unpin> Future for Op<'_, F> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<T> {
        match self.req.take() {
            Some(req) => {
                self.port.request.set(Some(req));
                Poll::Pending
            }
            None => {
                let resp = self.port.response.take();
                Poll::Ready((self.out)(resp.expect("proc resumed without a response")))
            }
        }
    }
}

impl Ctx {
    /// Posts `req`, suspends, and maps the engine's response with `out`
    /// once the engine resumes this proc.
    fn op<T, F: Fn(Response) -> T + Unpin>(&mut self, req: Request, out: F) -> Op<'_, F> {
        Op {
            port: &self.port,
            req: Some(req),
            out,
        }
    }

    /// The core this proc is pinned to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Reads a shared-memory word.
    pub fn read(&mut self, a: Addr) -> impl Future<Output = u64> + '_ {
        self.op(Request::Read(a), Response::value)
    }

    /// Writes a shared-memory word.
    pub fn write(&mut self, a: Addr, v: u64) -> impl Future<Output = ()> + '_ {
        self.op(Request::Write(a, v), drop)
    }

    /// Fetch-and-add; returns the previous value.
    pub fn faa(&mut self, a: Addr, delta: u64) -> impl Future<Output = u64> + '_ {
        self.op(Request::Faa(a, delta), Response::value)
    }

    /// Compare-and-set; returns whether the swap happened (the boolean
    /// variant, as in the paper's model).
    pub fn cas(&mut self, a: Addr, old: u64, new: u64) -> impl Future<Output = bool> + '_ {
        self.op(Request::Cas(a, old, new), |r| r.value() != 0)
    }

    /// Atomic exchange; returns the previous value.
    pub fn swap(&mut self, a: Addr, v: u64) -> impl Future<Output = u64> + '_ {
        self.op(Request::Swap(a, v), Response::value)
    }

    /// Sends `words` as one message to `dest`'s hardware queue
    /// (asynchronous; blocks only on back-pressure).
    pub fn send(&mut self, dest: usize, words: &[u64]) -> impl Future<Output = ()> + '_ {
        self.op(Request::Send(dest, Words::copy_of(words)), drop)
    }

    /// Receives exactly `k` words from the local queue, blocking as needed.
    /// [`Machine::receive`] is the allocation-free form.
    pub async fn receive(&mut self, k: usize) -> Vec<u64> {
        match self.op(Request::Recv(k), Response::words).await {
            Words::Heap(v) => v,
            inline => inline.to_vec(),
        }
    }

    /// `true` if the local hardware queue currently holds no arrived word:
    /// the faithful hardware probe. A combiner's drain asks
    /// [`Machine::has_pending_traffic`] instead, which also counts words
    /// still on the wire.
    pub fn is_queue_empty(&mut self) -> impl Future<Output = bool> + '_ {
        self.op(Request::QueueEmpty, |r| r.value() != 0)
    }

    /// Spins until the word at `a` satisfies `until`, and returns that
    /// value. Each iteration reads the word and, if the read does not end
    /// the spin, works `backoff`'s next pause; `backoff` keeps its state
    /// across calls.
    ///
    /// This is exactly the loop
    ///
    /// ```text
    /// loop {
    ///     let v = ctx.read(a).await;
    ///     if until.holds(v) { return v; }
    ///     ctx.work(backoff.advance()).await;
    /// }
    /// ```
    ///
    /// to the cycle, but the engine runs it without resuming the proc: a
    /// read that does not end the spin leaves the spinner holding the line,
    /// so it sleeps until a write invalidates its copy (see the module
    /// doc). Real local spinning costs the interconnect nothing; the
    /// backoff only adds a small wake-up delay, the price a PAUSE loop
    /// pays on silicon.
    pub async fn spin_until(&mut self, a: Addr, until: Until, backoff: &mut Backoff) -> u64 {
        let spin = Spin {
            addr: a,
            until,
            backoff: *backoff,
        };
        match self.op(Request::Spin(spin), |r| r).await {
            Response::Spun(v, b) => {
                *backoff = b;
                v
            }
            other => unreachable!("expected a spin's end, got {other:?}"),
        }
    }

    /// Burns `cycles` of local computation.
    pub async fn work(&mut self, cycles: u64) {
        if cycles > 0 {
            self.op(Request::Work(cycles), drop).await;
        }
    }

    /// Current simulated time in cycles (free).
    pub fn now(&mut self) -> u64 {
        // This proc's virtual time cannot advance between a resume and its
        // next request.
        self.port.clock.get()
    }

    /// Adds `v` to this proc's `metric` accumulator (free).
    pub fn record(&mut self, metric: Metric, v: u64) {
        let m = &self.port.metrics[metric as usize];
        m.set(m.get() + v);
    }
}

/// A simulated core is a [`Machine`]: each access is the matching `Ctx`
/// operation (orderings mean nothing to a sequentially consistent memory),
/// a message goes through the hardware queues, and the critical section is
/// [`exec_cs`] on a [`CsBody`].
impl Machine for Ctx {
    type Cs = CsBody;

    // Each access returns the `Ctx` operation's own future: a wrapping
    // `async fn` would add a layer to every resume of the proc.
    fn load(&mut self, a: Addr, _: Ordering) -> impl Future<Output = u64> {
        self.read(a)
    }

    fn store(&mut self, a: Addr, v: u64, _: Ordering) -> impl Future<Output = ()> {
        self.write(a, v)
    }

    fn swap(&mut self, a: Addr, v: u64, _: Ordering) -> impl Future<Output = u64> {
        Ctx::swap(self, a, v)
    }

    fn faa(&mut self, a: Addr, delta: u64, _: Ordering) -> impl Future<Output = u64> {
        Ctx::faa(self, a, delta)
    }

    fn cas(&mut self, a: Addr, old: u64, new: u64, _: Ordering) -> impl Future<Output = bool> {
        Ctx::cas(self, a, old, new)
    }

    fn id(&self) -> u64 {
        self.core as u64
    }

    fn send(&mut self, dest: u64, msg: &[u64]) -> impl Future<Output = ()> {
        Ctx::send(self, dest as usize, msg)
    }

    fn receive<const K: usize>(&mut self) -> impl Future<Output = [u64; K]> {
        self.op(Request::Recv(K), |r| {
            let w = r.words();
            std::array::from_fn(|i| w[i])
        })
    }

    fn has_pending_traffic(&mut self) -> impl Future<Output = bool> {
        self.op(Request::PendingTraffic, |r| r.value() != 0)
    }

    fn spin_until(
        &mut self,
        a: Addr,
        until: Until,
        b: &mut Backoff,
        _: Ordering,
    ) -> impl Future<Output = u64> {
        Ctx::spin_until(self, a, until, b)
    }

    fn cs(&mut self, body: &CsBody, op: u64, arg: u64) -> impl Future<Output = u64> {
        exec_cs(self, body, op, arg)
    }
}

#[derive(Debug)]
#[allow(dead_code)] // `dest` is carried for Debug diagnostics only
enum ProcState {
    /// Scheduled as an event; its response waits in the port.
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
    /// In a spin whose next read is the proc's event.
    SpinRead(Spin),
    /// In a spin, asleep on its line until a write invalidates it; its
    /// last read completed at `phase`, where its next backoff phase starts.
    Asleep {
        spin: Spin,
        phase: u64,
    },
    Finished,
}

struct ProcSlot {
    state: ProcState,
    port: Rc<Port>,
    stats: CoreStats,
}

/// One core's hardware message queue: words with arrival times, plus the
/// back-pressured senders waiting for space.
struct SimQueue {
    words: VecDeque<(u64, u64)>, // (arrival cycle, value)
    blocked_senders: VecDeque<usize>,
}

/// An event's key: `proc`'s resume at cycle `at`. Keys order as
/// `(at, proc)`, so ties go to the lower core, and a `u128` holds every
/// cycle the engine schedules.
#[inline]
fn key(at: u64, proc: usize) -> u128 {
    (u128::from(at) << 64) | proc as u128
}

/// The `(at, proc)` of a [`key`].
#[inline]
fn split(key: u128) -> (u64, usize) {
    ((key >> 64) as u64, key as u64 as usize)
}

/// The simulator: owns the machine state and the procs.
pub struct Engine {
    cfg: MachineConfig,
    mem: Memory,
    procs: Vec<ProcSlot>,
    /// The procs' bodies, indexed like `procs`.
    bodies: Vec<Pin<Box<dyn Future<Output = ()>>>>,
    queues: Vec<SimQueue>,
    /// Every pending event but `held`, by [`key`].
    heap: BinaryHeap<Reverse<u128>>,
    /// The proc being serviced: its next event goes to `held`.
    serving: usize,
    /// The serving proc's next event, not yet in the heap. The next turn of
    /// [`Engine::run`] takes it, or swaps it into the heap's top.
    held: Option<u128>,
    clock: u64,
    /// The horizon of the current [`Engine::run`].
    horizon: u64,
    /// How many procs are [`ProcState::Asleep`].
    asleep: usize,
    host: HostStats,
}

impl Engine {
    /// Creates an engine for the given machine.
    pub fn new(cfg: MachineConfig) -> Self {
        // Both queues start at their full size: a core whose queue first
        // fills late in a run (a new HYBCOMB combiner) would allocate then.
        let queues = (0..cfg.cores())
            .map(|_| SimQueue {
                words: VecDeque::with_capacity(cfg.queue_capacity),
                blocked_senders: VecDeque::with_capacity(cfg.cores()),
            })
            .collect();
        Self {
            cfg,
            mem: Memory::new(cfg),
            procs: Vec::new(),
            bodies: Vec::new(),
            queues,
            heap: BinaryHeap::new(),
            serving: usize::MAX,
            held: None,
            clock: 0,
            horizon: 0,
            asleep: 0,
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
        let port = Rc::new(Port::default());
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
        self.heap.push(Reverse(key(0, core)));
        core
    }

    /// Makes `proc`'s next event due at `at`.
    fn push(&mut self, at: u64, proc: usize) {
        if proc == self.serving {
            debug_assert!(self.held.is_none(), "proc {proc} has two events");
            self.held = Some(key(at, proc));
        } else {
            self.heap.push(Reverse(key(at, proc)));
        }
    }

    /// The earliest pending event, `held` included.
    fn next_event(&mut self) -> Option<u128> {
        let Some(held) = self.held.take() else {
            return self.heap.pop().map(|Reverse(k)| k);
        };
        match self.heap.peek_mut() {
            // One sift-down instead of a push and a pop.
            Some(mut top) if top.0 < held => Some(std::mem::replace(&mut top.0, held)),
            _ => Some(held),
        }
    }

    fn schedule(&mut self, proc: usize, at: u64, resp: Response) {
        self.procs[proc].port.response.set(Some(resp));
        self.procs[proc].state = ProcState::Runnable;
        self.push(at, proc);
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
                self.wake(acc.woken, now, proc);
            }
            Request::Faa(a, d) => {
                let (old, acc) = self.mem.atomic(proc, a, now, |v| v.wrapping_add(d));
                self.charge_mem(proc, acc.latency);
                self.schedule(proc, now + acc.latency, Response::Value(old));
                self.wake(acc.woken, now, proc);
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
                self.wake(acc.woken, now, proc);
            }
            Request::Swap(a, new) => {
                let (old, acc) = self.mem.atomic(proc, a, now, |_| new);
                self.charge_mem(proc, acc.latency);
                self.schedule(proc, now + acc.latency, Response::Value(old));
                self.wake(acc.woken, now, proc);
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
            Request::Spin(spin) => self.spin_read(proc, spin),
        }
    }

    /// One read of `proc`'s spin, at the current clock: it either ends the
    /// spin or puts the proc to sleep on the line it now holds.
    fn spin_read(&mut self, proc: usize, spin: Spin) {
        let now = self.clock;
        let (v, acc) = self.mem.read(proc, spin.addr, now);
        self.charge_mem(proc, acc.latency);
        let done = now + acc.latency;
        if spin.until.holds(v) {
            self.schedule(proc, done, Response::Spun(v, spin.backoff));
        } else {
            self.mem.sleep(proc, spin.addr);
            self.procs[proc].state = ProcState::Asleep { spin, phase: done };
            self.asleep += 1;
        }
    }

    /// Wakes the sleepers in `mask`, whose copies core `w` invalidated at
    /// cycle `t`.
    fn wake(&mut self, mut mask: u64, t: u64, w: usize) {
        while mask != 0 {
            let sleeper = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            self.replay(sleeper, t, w);
        }
    }

    /// Charges `proc`'s sleep up to its first read ordered after event
    /// `(t, w)` — the invalidation — and schedules that read as a real
    /// event, or stops at the first phase at or past the horizon.
    ///
    /// Every read before `(t, w)` hits and returns the value that put the
    /// proc to sleep, so a phase is arithmetic: `b` busy cycles of backoff,
    /// then a hit read of `l1_hit` busy cycles and one memory op. Requires
    /// `t < horizon`, so every such read falls before the horizon.
    fn replay(&mut self, proc: usize, t: u64, w: usize) {
        let ProcState::Asleep { spin, phase } = self.procs[proc].state else {
            unreachable!("proc {proc} woken while not asleep");
        };
        self.asleep -= 1;
        let hit = self.cfg.l1_hit;
        let before = |r: u64| (r, proc) < (t, w);
        let mut backoff = spin.backoff;
        let (mut a, mut busy, mut reads) = (phase, 0, 0);
        let due = loop {
            let cap = backoff.cap();
            if backoff.current() == cap && before(a + cap) {
                // Steady state: skip every whole phase whose read is
                // still before the invalidation.
                let period = cap + hit;
                let first = a + cap;
                let mut n = (t - first) / period + 1;
                if !before(first + (n - 1) * period) {
                    n -= 1;
                }
                a += n * period;
                busy += n * period;
                reads += n;
            }
            if a >= self.horizon {
                break a;
            }
            let r = a + backoff.advance();
            busy += r - a;
            if !before(r) {
                break r;
            }
            busy += hit;
            reads += 1;
            a = r + hit;
        };
        let slot = &mut self.procs[proc];
        slot.stats.busy += busy;
        slot.stats.mem_ops += reads;
        slot.state = ProcState::SpinRead(Spin { backoff, ..spin });
        self.push(due, proc);
    }

    /// Runs every sleeper on to the horizon: nothing can wake it before.
    fn wake_all_at_horizon(&mut self) {
        for proc in 0..self.procs.len() {
            if matches!(self.procs[proc].state, ProcState::Asleep { .. }) {
                // `(horizon - 1, past every core)` orders after every read
                // before the horizon and before every read at or after it.
                self.replay(proc, self.horizon.saturating_sub(1), usize::MAX);
            }
        }
    }

    /// Polls `proc` once: its pending operation takes the response from the
    /// port and the body runs on to its next operation (or its end).
    fn resume(&mut self, proc: usize, cx: &mut Context<'_>) -> Poll<()> {
        self.host.handoffs += 1;
        self.procs[proc].port.clock.set(self.clock);
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
        self.horizon = horizon;
        while live > 0 {
            let Some(event) = self.next_event() else {
                // No pending event is quiescence: every remaining proc is
                // blocked and no event is left that could ever wake one —
                // unless some are asleep in a spin, which then spin on to
                // the horizon.
                if self.asleep == 0 {
                    break;
                }
                self.wake_all_at_horizon();
                continue;
            };
            let (t, proc) = split(event);
            self.clock = self.clock.max(t);
            if self.clock >= horizon {
                // The run ends at the latest resume already scheduled,
                // counting each sleeper's first phase at the horizon.
                self.wake_all_at_horizon();
                let scheduled = self.heap.iter().map(|e| e.0).chain(self.held);
                self.clock = scheduled.fold(self.clock, |c, k| c.max(split(k).0));
                break;
            }
            self.serving = proc;
            if let ProcState::SpinRead(spin) = self.procs[proc].state {
                self.spin_read(proc, spin);
                continue;
            }
            match self.resume(proc, &mut cx) {
                Poll::Ready(()) => {
                    self.procs[proc].state = ProcState::Finished;
                    live -= 1;
                }
                Poll::Pending => {
                    let Some(req) = self.procs[proc].port.request.take() else {
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
        let metrics = self
            .procs
            .iter()
            .map(|p| p.port.metrics.each_ref().map(Cell::get))
            .collect();
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
            let m = ctx.receive(3).await;
            assert_eq!(m, [1, 42, 7]);
            ctx.send(1, &[m[1] + m[2]]).await;
        });
        e.add_proc(async |ctx| {
            ctx.send(0, &[1, 42, 7]).await;
            assert_eq!(ctx.receive(1).await[0], 49);
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
            ctx.receive(1).await;
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
                ctx.receive(1).await;
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
            ctx.receive(1).await; // nobody ever sends
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
            ctx.receive(3).await;
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
            assert_eq!(ctx.receive(1).await[0], 9);
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
            let m = ctx.receive(3).await;
            ctx.send(1, &[m[0] + m[1] + m[2]]).await;
        });
        e.add_proc(async |ctx| {
            ctx.send(0, &[1, 2, 3]).await;
            assert_eq!(ctx.receive(1).await[0], 6);
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
