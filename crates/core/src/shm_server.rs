//! SHM-SERVER (§5.2): the client/server approach over cache-coherent shared
//! memory — a simplified Remote Core Locking (RCL) server.
//!
//! Each client owns a dedicated cache-line-sized *channel*; to execute a
//! critical section it writes its request into the channel and spins there
//! until the server's reply appears (Figure 1 of the paper). The server
//! scans the channels round-robin. On a cache-coherent machine both the
//! server's read of a fresh request and its write of the response are RMRs —
//! the two stalls per CS that MP-SERVER eliminates.
//!
//! As in the paper, this is RCL's core mechanism without the advanced
//! features (nested CSes etc.), a simplification that does not reduce
//! performance. The protocol is [`ShmServerLayout`]'s, written once against
//! [`Machine`]: [`ShmServer`] runs it on the host, tilesim on simulated
//! cores.

use std::ops::ControlFlow;
use std::sync::atomic::AtomicUsize as StdAtomicUsize;
use std::sync::Arc;

use crate::dispatch::Dispatcher;
use crate::machine::{
    block_on, Addr, Arena, Backoff, ClientSide, Critical, Machine, Native, Probe, Until,
    WORDS_PER_LINE,
};
use crate::sync::Ordering::{Acquire, Relaxed, Release};
use crate::sync::{self, spin, AtomicBool};
use crate::ApplyOp;

/// Channel states. The client flips `IDLE → REQ`; the server flips
/// `REQ → DONE`; the client consumes `DONE` and later writes `REQ` again.
const IDLE: u64 = 0;
const REQ: u64 = 1;
const DONE: u64 = 2;

/// Word offsets within a channel's line.
const STATUS: Addr = 0;
const OP: Addr = 1;
const ARG: Addr = 2;
const RET: Addr = 3;

/// Panic message once the server's dispatch panicked: no reply will come.
const POISONED: &str =
    "SHM-SERVER poisoned: the server panicked inside the critical section and the \
     protected state may be inconsistent";

/// Where a SHM-SERVER instance's channels live in a machine's memory: each
/// client owns a line of its own, so traffic on different channels never
/// falsely shares.
#[derive(Debug, Clone, Copy)]
pub struct ShmServerLayout {
    /// The first channel's line.
    pub channels: Addr,
    /// Number of channels the server scans.
    pub clients: u64,
}

impl ShmServerLayout {
    /// The channel of client `i`, the `i`-th line from `channels`.
    pub fn channel(&self, i: u64) -> Addr {
        (self.channels / WORDS_PER_LINE + i) * WORDS_PER_LINE
    }

    /// One request through the channel at `ch`: write it, spin there until
    /// the reply appears.
    pub async fn request<M: Machine>(m: &mut M, ch: Addr, op: u64, arg: u64) -> u64 {
        m.store(ch + OP, op, Relaxed).await;
        m.store(ch + ARG, arg, Relaxed).await;
        m.store(ch + STATUS, REQ, Release).await;
        m.spin_until(
            ch + STATUS,
            Until::Equals(DONE),
            &mut Backoff::new(2, 32),
            Acquire,
        )
        .await;
        let ret = m.load(ch + RET, Relaxed).await;
        m.store(ch + STATUS, IDLE, Relaxed).await;
        ret
    }

    /// The server loop of Figure 1: R(i) — CS(i) — W(i), scanning the
    /// channels until `probe` stops it. The server is the only thread that
    /// runs critical sections.
    pub async fn serve<M: Machine>(&self, m: &mut M, cs: &M::Cs, probe: &mut impl Probe<M>) {
        loop {
            let mut served = false;
            for i in 0..self.clients {
                let ch = self.channel(i);
                if m.load(ch + STATUS, Acquire).await == REQ {
                    let op = m.load(ch + OP, Relaxed).await;
                    let arg = m.load(ch + ARG, Relaxed).await;
                    let ret = m.cs(cs, op, arg).await;
                    m.store(ch + RET, ret, Relaxed).await;
                    m.store(ch + STATUS, DONE, Release).await;
                    probe.served(m, ch);
                    served = true;
                }
            }
            if probe.scanned(m, served).is_break() {
                return;
            }
        }
    }
}

struct Shared {
    /// The channels; poisoned when the server's dispatch panicked.
    arena: Arena,
    layout: ShmServerLayout,
    next_slot: StdAtomicUsize,
    stop: AtomicBool,
}

/// The native server's idle policy: after a scan that served nothing, stop
/// if asked to, else spin (yielding once idle drags on, for oversubscribed
/// hosts).
struct Idle<'a>(&'a AtomicBool, u32);

impl<M> Probe<M> for Idle<'_> {
    fn scanned(&mut self, _: &mut M, served: bool) -> ControlFlow<()> {
        if served {
            self.1 = 0;
        } else if self.0.load(Acquire) {
            return ControlFlow::Break(());
        } else {
            spin(&mut self.1);
        }
        ControlFlow::Continue(())
    }
}

/// Handle to a running SHM-SERVER instance.
pub struct ShmServer<S> {
    shared: Arc<Shared>,
    join: Option<sync::JoinHandle<S>>,
}

impl<S: Send + 'static> ShmServer<S> {
    /// Spawns the server thread, with room for `max_clients` client
    /// channels.
    pub fn spawn<D>(max_clients: usize, state: S, dispatch: D) -> Self
    where
        D: Dispatcher<S>,
    {
        assert!(max_clients > 0, "need at least one client channel");
        let shared = Arc::new(Shared {
            arena: Arena::new(max_clients as u64, POISONED),
            layout: ShmServerLayout {
                channels: 0,
                clients: max_clients as u64,
            },
            next_slot: StdAtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        let worker = Arc::clone(&shared);
        let join = sync::spawn("shm-server", move || {
            let cs = Critical::new(state, dispatch);
            let mut m = Native::new(&worker.arena);
            block_on(worker.layout.serve(&mut m, &cs, &mut Idle(&worker.stop, 0)));
            cs.state.into_inner()
        });
        Self {
            shared,
            join: Some(join),
        }
    }

    /// Allocates a client channel.
    ///
    /// # Panics
    ///
    /// Panics if more than `max_clients` clients are created.
    pub fn client(&self) -> ShmClient {
        let slot = self.shared.next_slot.fetch_add(1, Relaxed);
        let n = self.shared.layout.clients;
        assert!((slot as u64) < n, "SHM-SERVER has only {n} client channels");
        ShmClient {
            shared: Arc::clone(&self.shared),
            slot,
        }
    }

    /// Stops the server thread (after it finishes any requests already
    /// visible) and returns the final protected state.
    pub fn shutdown(mut self) -> S {
        self.shared.stop.store(true, Release);
        self.join
            .take()
            .expect("server already shut down")
            .join()
            .expect("SHM-SERVER thread panicked")
    }
}

impl<S> Drop for ShmServer<S> {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.shared.stop.store(true, Release);
            let _ = join.join();
        }
    }
}

/// Per-thread client of a [`ShmServer`], owning one cache-line channel.
pub struct ShmClient {
    shared: Arc<Shared>,
    slot: usize,
}

impl ShmClient {
    /// Index of this client's channel (its RCL "client id").
    pub fn slot(&self) -> usize {
        self.slot
    }
}

impl ApplyOp for ShmClient {
    /// # Panics
    ///
    /// Panics if the server's dispatch panicked, instead of waiting forever
    /// for its reply.
    #[inline]
    fn apply(&mut self, op: u64, arg: u64) -> u64 {
        let sh = &*self.shared;
        let ch = sh.layout.channel(self.slot as u64);
        block_on(ShmServerLayout::request(
            &mut ClientSide::new(&sh.arena),
            ch,
            op,
            arg,
        ))
    }
}

#[cfg(test)]
// Under `--cfg loom` the server is a model thread, which only a loom model
// may spawn; `loom_models` checks SHM-SERVER there.
#[cfg(not(loom))]
mod tests {
    use super::*;

    fn counter_dispatch(state: &mut u64, _op: u64, _arg: u64) -> u64 {
        let old = *state;
        *state += 1;
        old
    }

    #[test]
    fn single_client_roundtrip() {
        let server = ShmServer::spawn(2, 0u64, counter_dispatch as fn(&mut u64, u64, u64) -> u64);
        let mut c = server.client();
        assert_eq!(c.apply(0, 0), 0);
        assert_eq!(c.apply(0, 0), 1);
        assert_eq!(server.shutdown(), 2);
    }

    #[test]
    fn fetch_and_inc_results_are_a_permutation() {
        const THREADS: usize = 6;
        const OPS: u64 = 2_000;
        let server = ShmServer::spawn(
            THREADS,
            0u64,
            counter_dispatch as fn(&mut u64, u64, u64) -> u64,
        );
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let mut c = server.client();
            joins.push(std::thread::spawn(move || {
                (0..OPS).map(|_| c.apply(0, 0)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..THREADS as u64 * OPS).collect::<Vec<_>>());
        assert_eq!(server.shutdown(), THREADS as u64 * OPS);
    }

    /// A dispatch panic kills the server: its clients must panic with the
    /// poison report instead of spinning on their channels forever. The
    /// clients run on their own thread, so a wedge fails the test instead
    /// of hanging it.
    #[test]
    fn dispatch_panic_poisons_clients_instead_of_wedging() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::time::Duration;

        fn boom(state: &mut u64, op: u64, arg: u64) -> u64 {
            if op == 1 {
                panic!("dispatch exploded");
            }
            counter_dispatch(state, op, arg)
        }

        let server = ShmServer::spawn(2, 0u64, boom as fn(&mut u64, u64, u64) -> u64);
        let (mut a, mut b) = (server.client(), server.client());
        let (tx, rx) = std::sync::mpsc::channel();
        let clients = std::thread::spawn(move || {
            // Client A submits op 1; client B submits op 0 once A returned.
            for (c, op) in [(&mut a, 1), (&mut b, 0)] {
                let r = catch_unwind(AssertUnwindSafe(|| c.apply(op, 0)));
                let _ = tx.send(r.map_err(|e| e.downcast_ref::<String>().cloned()));
            }
        });
        for who in ["A", "B"] {
            let got = rx
                .recv_timeout(Duration::from_secs(3))
                .unwrap_or_else(|_| panic!("client {who} got no answer within 3 s: wedged"));
            let msg = got.expect_err("a dead server cannot answer");
            assert!(
                msg.as_deref()
                    .is_some_and(|m| m.contains("SHM-SERVER poisoned")),
                "{who}: {msg:?}"
            );
        }
        clients.join().expect("both panics were caught");
        assert!(catch_unwind(AssertUnwindSafe(|| server.shutdown())).is_err());
    }

    #[test]
    #[should_panic(expected = "client channels")]
    fn too_many_clients_panics() {
        let server = ShmServer::spawn(1, 0u64, counter_dispatch as fn(&mut u64, u64, u64) -> u64);
        let _a = server.client();
        let _b = server.client();
    }

    #[test]
    fn shutdown_returns_state() {
        let server = ShmServer::spawn(1, String::new(), |s: &mut String, _op: u64, arg: u64| {
            s.push((b'a' + arg as u8) as char);
            s.len() as u64
        });
        let mut c = server.client();
        for i in 0..3 {
            c.apply(0, i);
        }
        drop(c);
        assert_eq!(server.shutdown(), "abc");
    }
}
