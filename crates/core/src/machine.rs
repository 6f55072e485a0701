//! One construction, two machines (DESIGN.md §2): CC-SYNCH and SHM-SERVER
//! are written once against [`Machine`]. The crate's native types run that
//! code on the host, and `tilesim::Ctx` implements the trait, so the
//! simulator's figures come from the code the loom, miri and tsan lanes
//! check. A machine is a word-addressed memory, [`WORDS_PER_LINE`] words to
//! a cache line, plus the critical-section call; orderings are for the host
//! (the simulator's memory is sequentially consistent). Poison lives inside
//! the native machine; statistics, telemetry and a server's stop check are
//! a [`Probe`]'s, which never touches the memory.

use std::future::{ready, Future};
use std::marker::PhantomData;
use std::ops::ControlFlow;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

use crossbeam_utils::CachePadded;

use crate::dispatch::Dispatcher;
use crate::state::{CsState, PoisonGuard};
use crate::sync::{spin, AtomicBool, AtomicU64, Ordering};

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
    /// A client wrote its request into the words at `req`, unpublished.
    fn published(&mut self, _m: &mut M, _req: Addr) {}

    /// The servicing thread is about to run the request at `req`.
    fn serving(&mut self, _m: &mut M, _req: Addr) {}

    /// The servicing thread released the response at `req`.
    fn served(&mut self, _m: &mut M, _req: Addr) {}

    /// A combiner handed on its role after serving `n` requests.
    fn round(&mut self, _m: &mut M, _n: u64) {}

    /// A server scanned its channels (and `served` some); `Break` stops it.
    fn scanned(&mut self, _m: &mut M, _served: bool) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

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
}

/// A native instance's critical section.
pub(crate) struct Critical<S, D> {
    pub(crate) state: CsState<S>,
    pub(crate) dispatch: D,
}

impl<S, D> Critical<S, D> {
    pub(crate) fn new(state: S, dispatch: D) -> Self {
        let state = CsState::new(state);
        Self { state, dispatch }
    }
}

/// The host machine, as one thread sees an [`Arena`]. Each access happens
/// when it is called and returns a [`Ready`](std::future::Ready) future,
/// which [`block_on`] drives; the async state machines then fold away.
pub(crate) struct Native<'a, C> {
    /// The arena's lines, held apart from it: through `&Arena`, whose
    /// poison flag is interior-mutable, every access would reload them.
    lines: &'a [Line],
    arena: &'a Arena,
    cs: PhantomData<fn(&C)>,
}

impl<'a, C> Native<'a, C> {
    pub(crate) fn new(arena: &'a Arena) -> Self {
        let lines = &arena.lines;
        Self {
            lines,
            arena,
            cs: PhantomData,
        }
    }

    #[inline]
    pub(crate) fn word(&self, a: Addr) -> &'a AtomicU64 {
        &self.lines[(a / WORDS_PER_LINE) as usize][(a % WORDS_PER_LINE) as usize]
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

    /// [`spin`]'s backoff, and the poison check that keeps a waiter from
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
        // SAFETY: `Native` is crate-private, and each construction calls
        // `cs` only under its own mutual exclusion (the unique combiner, the
        // server thread), citing its argument there.
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
