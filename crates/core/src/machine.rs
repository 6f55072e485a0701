//! One construction, two machines (DESIGN.md §2): MP-SERVER, HYBCOMB,
//! SHM-SERVER, CC-SYNCH and Figure 5's queues and stacks are written once
//! against [`Machine`]. The crate's native types run that code on the host, and
//! `tilesim::Ctx` implements the trait, so the simulator's figures come
//! from the code the loom, miri and tsan lanes check. A machine is a
//! word-addressed memory, [`WORDS_PER_LINE`] words to a cache line, a local
//! message queue, and the critical-section call; orderings are for the host
//! (the simulator's memory is sequentially consistent). Poison lives inside
//! the native machine; statistics, telemetry and a server's stop check are
//! a [`Probe`]'s, which never touches the memory.

use std::future::{ready, Future};
use std::marker::PhantomData;
use std::ops::ControlFlow;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

use crossbeam_utils::CachePadded;
use mpsync_udn::{Endpoint, EndpointId};

use crate::dispatch::Dispatcher;
use crate::state::{CsState, PoisonGuard};
use crate::sync::{spin, AtomicBool, AtomicU64, Ordering};
use crate::wire;

/// Words per cache line (64-byte lines of 64-bit words).
pub const WORDS_PER_LINE: u64 = 8;

/// A word address in a machine's memory.
pub type Addr = u64;

/// The condition a [`Machine::spin_until`] waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Until {
    /// The word equals this value.
    Equals(u64),
    /// The word differs from this value.
    Differs(u64),
}

impl Until {
    /// Whether `v` ends the spin.
    #[inline]
    pub fn holds(self, v: u64) -> bool {
        match self {
            Until::Equals(x) => v == x,
            Until::Differs(x) => v != x,
        }
    }
}

/// A spin's exponential backoff: after each read that does not end the
/// spin, the spinner works the current pause, which then doubles up to
/// the cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    cur: u64,
    cap: u64,
}

impl Backoff {
    /// A backoff whose first pause is `start` cycles and whose pauses
    /// never exceed `cap`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < start <= cap`.
    #[inline]
    pub fn new(start: u64, cap: u64) -> Self {
        assert!(0 < start && start <= cap, "backoff {start} / cap {cap}");
        Self { cur: start, cap }
    }

    /// The next pause.
    #[inline]
    pub fn current(&self) -> u64 {
        self.cur
    }

    /// The longest pause.
    #[inline]
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Returns the next pause and doubles the one after it, up to the cap.
    #[inline]
    pub fn advance(&mut self) -> u64 {
        let b = self.cur;
        self.cur = (b * 2).min(self.cap);
        b
    }
}

/// The protocol accesses of a construction, on the host or a simulated core.
// Both machines poll these futures on the thread that made them: no `Send`.
#[allow(async_fn_in_trait)]
pub trait Machine {
    /// What the critical section runs on: the state and its dispatcher
    /// natively, a `CsBody` on tilesim.
    type Cs;

    /// Reads the word at `a`.
    async fn load(&mut self, a: Addr, order: Ordering) -> u64;

    /// Writes `v` to the word at `a`.
    async fn store(&mut self, a: Addr, v: u64, order: Ordering);

    /// Atomically replaces the word at `a` with `v`; returns the old value.
    async fn swap(&mut self, a: Addr, v: u64, order: Ordering) -> u64;

    /// Atomically adds `delta` to the word at `a`; returns the old value.
    async fn faa(&mut self, a: Addr, delta: u64, order: Ordering) -> u64;

    /// Atomically replaces the word at `a` with `new` if it holds `old`;
    /// returns whether it did. A failed CAS is an Acquire read.
    async fn cas(&mut self, a: Addr, old: u64, new: u64, order: Ordering) -> bool;

    /// This machine's address for messages, the sender word of its
    /// requests: a core id on tilesim, an endpoint word on the host.
    /// Reading it is not an access.
    fn id(&self) -> u64;

    /// Sends `msg` to `dest`'s queue: a request `[sender, op, arg]` or a
    /// one-word reply.
    async fn send(&mut self, dest: u64, msg: &[u64]);

    /// Takes the next `K`-word message off the local queue, waiting for it.
    async fn receive<const K: usize>(&mut self) -> [u64; K];

    /// Whether a request may be waiting: the drain probe of a combiner that
    /// serves while it has traffic. The host answers `!is_queue_empty()`.
    /// tilesim also counts words still on the wire: it charges every
    /// message a fixed wire latency that short UDN hops do not pay, and a
    /// drain that saw only arrived words would close rounds on that
    /// artifact.
    async fn has_pending_traffic(&mut self) -> bool;

    /// Reads the word at `a` until it satisfies `until`, working
    /// `backoff`'s next pause after each read that does not; returns it.
    async fn spin_until(
        &mut self,
        a: Addr,
        until: Until,
        backoff: &mut Backoff,
        order: Ordering,
    ) -> u64;

    /// Runs `(op, arg)` on `cs`; the caller holds the mutual exclusion.
    async fn cs(&mut self, cs: &Self::Cs, op: u64, arg: u64) -> u64;
}

/// What a construction reports besides its accesses: tilesim's metrics, the
/// host's statistics and telemetry. A probe never touches the memory.
pub trait Probe<M> {
    /// A client wrote its request into the words at `req`, unpublished, or
    /// is about to send it to the queue `req`.
    fn published(&mut self, _m: &mut M, _req: Addr) {}

    /// A thread that found registration closed is about to CAS (or SWAP)
    /// itself in as the next combiner.
    fn registering(&mut self, _m: &mut M) {}

    /// The thread became the combiner, before its own operation.
    fn combining(&mut self, _m: &mut M) {}

    /// A server took a request for `op` off its queue; `Break` stops it
    /// instead of running the request.
    fn received(&mut self, _m: &mut M, _op: u64) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    /// The servicing thread is about to run the request at `req`.
    fn serving(&mut self, _m: &mut M, _req: Addr) {}

    /// The servicing thread released the response at `req`, or sent it to
    /// the queue `req` (its own, for a combiner's own operation).
    fn served(&mut self, _m: &mut M, _req: Addr) {}

    /// A combiner handed on its role after serving `n` requests.
    fn round(&mut self, _m: &mut M, _n: u64) {}

    /// A server scanned its channels (and `served` some); `Break` stops it.
    fn scanned(&mut self, _m: &mut M, _served: bool) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    /// A nonblocking object's CAS on a top word or a ring cell ran; `won`
    /// says whether it replaced the word.
    fn cas_attempt(&mut self, _m: &mut M, _won: bool) {}
}

/// The probe that reports nothing.
impl<M> Probe<M> for () {}

type Line = CachePadded<[AtomicU64; WORDS_PER_LINE as usize]>;

/// The host's memory for one instance: zeroed cache-line-padded atomics,
/// and the poison flag with the report a waiter panics with.
pub(crate) struct Arena {
    lines: Box<[Line]>,
    poisoned: AtomicBool,
    poison: &'static str,
}

impl Arena {
    pub(crate) fn new(lines: u64, poison: &'static str) -> Self {
        let line = |_| CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0)));
        let lines = (0..lines).map(line).collect();
        Self {
            lines,
            poisoned: AtomicBool::new(false),
            poison,
        }
    }

    /// Panics with the poison report if a critical section unwound.
    #[inline]
    pub(crate) fn check(&self) {
        if self.poisoned.load(Ordering::Relaxed) {
            panic!("{}", self.poison);
        }
    }

    /// Writes the words a layout presets, before the arena is shared.
    pub(crate) fn preset(&self, words: impl IntoIterator<Item = (Addr, u64)>) {
        for (a, v) in words {
            word(&self.lines, a).store(v, Ordering::Relaxed);
        }
    }
}

#[inline]
fn word(lines: &[Line], a: Addr) -> &AtomicU64 {
    &lines[(a / WORDS_PER_LINE) as usize][(a % WORDS_PER_LINE) as usize]
}

/// A native instance's critical section: the state and its dispatcher, run
/// by [`Machine::cs`] on a [`Native`] machine. Only this crate makes one, and
/// each construction runs it under its own mutual exclusion.
pub struct Critical<S, D> {
    pub(crate) state: CsState<S>,
    pub(crate) dispatch: D,
}

impl<S, D> Critical<S, D> {
    pub(crate) fn new(state: S, dispatch: D) -> Self {
        let state = CsState::new(state);
        Self { state, dispatch }
    }
}

/// The host machine, as one thread sees an arena and, if it sends, its own
/// [`Endpoint`]. Each access happens when it is called and returns a
/// [`Ready`](std::future::Ready) future, which `block_on` drives; the async
/// state machines then fold away. Only this crate makes one; a [`Probe`]
/// sees it.
pub struct Native<'a, C> {
    /// The arena's lines, held apart from it: through `&Arena`, whose
    /// poison flag is interior-mutable, every access would reload them.
    lines: &'a [Line],
    arena: &'a Arena,
    endpoint: Option<&'a mut Endpoint>,
    /// The endpoint's word, the machine's [`Machine::id`].
    id: u64,
    /// The submit stamp the last request received carried (telemetry's
    /// fourth word, see [`wire`]; 0 when telemetry is off).
    pub(crate) stamp: u64,
    cs: PhantomData<fn(&C)>,
}

impl<C> Native<'_, C> {
    /// The submit stamp the last request received carried: a server's
    /// queue-wait span starts there.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }
}

/// A client's view of the host machine: it never runs the critical section.
pub(crate) type ClientSide<'a> = Native<'a, Critical<(), fn(&mut (), u64, u64) -> u64>>;

impl<'a, C> Native<'a, C> {
    pub(crate) fn new(arena: &'a Arena) -> Self {
        let lines = &arena.lines;
        Self {
            lines,
            arena,
            endpoint: None,
            id: 0,
            stamp: 0,
            cs: PhantomData,
        }
    }

    /// The machine of a thread that sends and receives on `endpoint`.
    pub(crate) fn with_endpoint(arena: &'a Arena, endpoint: &'a mut Endpoint) -> Self {
        Self {
            id: endpoint.id().to_word(),
            endpoint: Some(endpoint),
            ..Self::new(arena)
        }
    }

    #[inline]
    pub(crate) fn word(&self, a: Addr) -> &'a AtomicU64 {
        word(self.lines, a)
    }

    #[inline]
    fn endpoint(&mut self) -> &mut Endpoint {
        self.endpoint
            .as_deref_mut()
            .expect("a machine that sends has an endpoint")
    }
}

impl<S, D: Dispatcher<S>> Machine for Native<'_, Critical<S, D>> {
    type Cs = Critical<S, D>;

    #[inline]
    fn load(&mut self, a: Addr, order: Ordering) -> impl Future<Output = u64> {
        ready(self.word(a).load(order))
    }

    #[inline]
    fn store(&mut self, a: Addr, v: u64, order: Ordering) -> impl Future<Output = ()> {
        self.word(a).store(v, order);
        ready(())
    }

    #[inline]
    fn swap(&mut self, a: Addr, v: u64, order: Ordering) -> impl Future<Output = u64> {
        ready(self.word(a).swap(v, order))
    }

    #[inline]
    fn faa(&mut self, a: Addr, delta: u64, order: Ordering) -> impl Future<Output = u64> {
        ready(self.word(a).fetch_add(delta, order))
    }

    #[inline]
    fn cas(&mut self, a: Addr, old: u64, new: u64, order: Ordering) -> impl Future<Output = bool> {
        let word = self.word(a);
        ready(
            word.compare_exchange(old, new, order, Ordering::Acquire)
                .is_ok(),
        )
    }

    #[inline]
    fn id(&self) -> u64 {
        self.id
    }

    /// A request carries telemetry's submit stamp as a fourth word.
    #[inline]
    fn send(&mut self, dest: u64, msg: &[u64]) -> impl Future<Output = ()> {
        let dest = EndpointId::from_word(dest);
        let sent = match *msg {
            [sender, op, arg] => self.endpoint().send(dest, &wire::request(sender, op, arg)),
            _ => self.endpoint().send(dest, msg),
        };
        sent.expect("message to an endpoint that is gone");
        ready(())
    }

    /// A three-word request is received whole (its stamp goes to
    /// [`Native::stamp`]): the words already queued are taken at once, and
    /// only the rest waits in udn's blocking receive, which records udn's
    /// receive telemetry. A one-word reply is polled, with the poison
    /// check: the server or combiner that owes it may have died in its
    /// critical section.
    #[inline]
    fn receive<const K: usize>(&mut self) -> impl Future<Output = [u64; K]> {
        let mut msg = [0u64; K];
        if K == 1 {
            let mut spins = 0u32;
            while self.endpoint().try_receive(&mut msg) == 0 {
                self.arena.check();
                spin(&mut spins);
            }
        } else {
            let mut buf = [0u64; wire::REQ_WORDS];
            let n = self.endpoint().try_receive(&mut buf);
            if n < buf.len() {
                self.endpoint().receive(&mut buf[n..]);
            }
            let req = wire::decode(buf);
            self.stamp = req.submit_ns;
            msg.copy_from_slice(&[req.sender, req.op, req.arg][..K]);
        }
        ready(msg)
    }

    #[inline]
    fn has_pending_traffic(&mut self) -> impl Future<Output = bool> {
        ready(!self.endpoint().is_queue_empty())
    }

    /// `sync::spin`'s backoff, and the poison check that keeps a waiter from
    /// spinning forever on a release a panicked thread never makes.
    #[inline]
    fn spin_until(
        &mut self,
        a: Addr,
        until: Until,
        _: &mut Backoff,
        order: Ordering,
    ) -> impl Future<Output = u64> {
        let mut spins = 0u32;
        ready(loop {
            let v = self.word(a).load(order);
            if until.holds(v) {
                break v;
            }
            self.arena.check();
            spin(&mut spins);
        })
    }

    /// An unwinding dispatch poisons the arena on its way out.
    #[inline]
    fn cs(&mut self, cs: &Critical<S, D>, op: u64, arg: u64) -> impl Future<Output = u64> {
        let guard = PoisonGuard::new(&self.arena.poisoned);
        // SAFETY: only this crate makes a `Critical`, and each construction
        // calls `cs` only under its own mutual exclusion (the unique
        // combiner, the server thread, the owner of a `ServerCore`), citing
        // its argument there.
        let ret = unsafe { cs.state.with_mut(|s| cs.dispatch.dispatch(s, op, arg)) };
        guard.disarm();
        ready(ret)
    }
}

/// Runs a native machine's future, which is always ready, to its end.
#[inline]
pub(crate) fn block_on<F: Future>(f: F) -> F::Output {
    match pin!(f).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(v) => v,
        Poll::Pending => unreachable!("a native machine's futures are always ready"),
    }
}
