//! MP-SERVER (§4.1): the client/server (delegation) approach over hardware
//! message passing.
//!
//! A dedicated server thread owns the protected state and loops on
//! `receive(3)`, executing one critical section per request and answering
//! with a one-word response. Because `receive` reads the server's *local*
//! message queue and `send` is asynchronous, no synchronization-related
//! remote memory reference remains on the server's critical path (Figure 2
//! of the paper) — on real hardware; under this crate's software emulation
//! the functional behaviour is identical but the stall-free property is not
//! reproduced (see the `tilesim` crate for that).
//!
//! The protocol is [`serve`] and [`request`], written once against
//! [`Machine`]: [`MpServer`] runs it on the host, tilesim on simulated
//! cores. [`serve_pending`] is its batched step, which never waits on an
//! empty queue: a HYBCOMB combiner drains with it, and the runtime's shards
//! serve with it through a [`ServerCore`], a server whose owner ticks it.

use std::ops::ControlFlow;
use std::sync::Arc;

use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Counter, Lane};
use mpsync_udn::{Endpoint, EndpointId, Fabric};

use crate::dispatch::Dispatcher;
use crate::machine::{block_on, Addr, Arena, ClientSide, Critical, Machine, Native, Probe};
use crate::sync;
use crate::wire;
use crate::ApplyOp;

/// Reserved opcode used internally to stop the server loop. Client code must
/// not submit it through [`ApplyOp::apply`].
pub(crate) const OP_SHUTDOWN: u64 = u64::MAX;

/// Panic message once the server's dispatch panicked: no reply will come.
const POISONED: &str =
    "MP-SERVER poisoned: the server panicked inside the critical section and the \
     protected state may be inconsistent";

/// The server loop of Figure 2: `r()` — execute CS — `s(t)`, until `probe`
/// stops it. The server is the only thread that runs critical sections.
pub async fn serve<M: Machine>(m: &mut M, cs: &M::Cs, probe: &mut impl Probe<M>) {
    while serve_one(m, cs, probe).await.is_continue() {}
}

/// One request off the local queue, run and answered: a server's step, and
/// a HYBCOMB combiner's. `Break` if the probe stopped the server instead.
pub(crate) async fn serve_one<M: Machine>(
    m: &mut M,
    cs: &M::Cs,
    probe: &mut impl Probe<M>,
) -> ControlFlow<()> {
    let [sender, op, arg] = m.receive().await;
    probe.received(m, op)?;
    let ret = m.cs(cs, op, arg).await;
    m.send(sender, &[ret]).await;
    probe.served(m, sender);
    ControlFlow::Continue(())
}

/// The batched step: serves the requests already queued, up to `budget` of
/// them, and returns how many it served. It never waits on an empty queue
/// and reports no round: its caller, a HYBCOMB combiner or a runtime shard,
/// reports its own. It stops early if the probe stops the server.
pub async fn serve_pending<M: Machine>(
    m: &mut M,
    cs: &M::Cs,
    probe: &mut impl Probe<M>,
    budget: u64,
) -> u64 {
    let mut n = 0;
    while n < budget && m.has_pending_traffic().await {
        if serve_one(m, cs, probe).await.is_break() {
            break;
        }
        n += 1;
    }
    n
}

/// A client's operation: sends `(op, arg)` to the queue `server` under the
/// machine's own id, and waits for the one-word response.
pub async fn request<M: Machine>(m: &mut M, server: u64, op: u64, arg: u64) -> u64 {
    let me = m.id();
    m.send(server, &[me, op, arg]).await;
    let [ret] = m.receive().await;
    ret
}

/// The native server's probe: the stop check and telemetry.
struct Serving {
    /// The server's endpoint, as a span track.
    track: u32,
    t_serve: u64,
}

impl<C> Probe<Native<'_, C>> for Serving {
    fn received(&mut self, m: &mut Native<'_, C>, op: u64) -> ControlFlow<()> {
        if op == OP_SHUTDOWN {
            return ControlFlow::Break(());
        }
        if telemetry::ENABLED {
            // Queue wait: client submit stamp → the server picking the
            // request up (the coherence-free local read of Figure 2).
            telemetry::record_span(self.track, Algo::MpServer, Lane::QueueWait, m.stamp);
            self.t_serve = telemetry::now_ns();
        }
        ControlFlow::Continue(())
    }

    fn served(&mut self, _: &mut Native<'_, C>, _: Addr) {
        if telemetry::ENABLED {
            telemetry::record_span(self.track, Algo::MpServer, Lane::Serve, self.t_serve);
            telemetry::count(Counter::MpServed, 1);
        }
    }
}

/// An MP-SERVER without a thread of its own: its endpoint and critical
/// section, served by [`ServerCore::serve_pending`] whenever its owner (the
/// runtime's shard loop, an event loop) ticks it. `&mut self` is the mutual
/// exclusion the critical section needs.
pub struct ServerCore<S, D> {
    endpoint: Endpoint,
    cs: Critical<S, D>,
    /// No words: only the poison flag a dispatch that unwinds sets, which
    /// the owner learns of from the unwind itself.
    arena: Arena,
}

impl<S, D: Dispatcher<S>> ServerCore<S, D> {
    /// A server on `endpoint` whose `dispatch` runs each request against
    /// `state`.
    pub fn new(endpoint: Endpoint, state: S, dispatch: D) -> Self {
        Self {
            endpoint,
            cs: Critical::new(state, dispatch),
            arena: Arena::new(0, POISONED),
        }
    }

    /// The endpoint id clients address their requests to.
    pub fn id(&self) -> EndpointId {
        self.endpoint.id()
    }

    /// [`serve_pending`] on the host: runs and answers the requests queued
    /// at the endpoint, up to `budget`, without waiting for more. A dispatch
    /// that panics unwinds out of this call and may leave the state torn:
    /// its owner steps the server no more.
    #[inline]
    pub fn serve_pending(
        &mut self,
        probe: &mut impl for<'a> Probe<Native<'a, Critical<S, D>>>,
        budget: u64,
    ) -> u64 {
        let mut m = Native::with_endpoint(&self.arena, &mut self.endpoint);
        block_on(serve_pending(&mut m, &self.cs, probe, budget))
    }

    /// Runs `f` on the state, between steps.
    pub fn with_state<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        // SAFETY: `&mut self` excludes every step, and with it every other
        // access to the state.
        unsafe { self.cs.state.with_mut(f) }
    }

    /// The final state.
    pub fn into_state(self) -> S {
        self.cs.state.into_inner()
    }
}

/// Handle to a running MP-SERVER instance.
///
/// Created by [`MpServer::spawn`]; produces clients with
/// [`MpServer::client`] and returns the final state on
/// [`MpServer::shutdown`].
pub struct MpServer<S> {
    fabric: Arc<Fabric>,
    server_id: EndpointId,
    /// No words, only the poison flag: a server whose dispatch panicked
    /// sets it, and its clients' response waits check it.
    arena: Arc<Arena>,
    join: Option<sync::JoinHandle<S>>,
}

impl<S: Send + 'static> MpServer<S> {
    /// Spawns the server thread on the given endpoint (the paper pins the
    /// server to core 0; choose the endpoint's core accordingly).
    ///
    /// `dispatch` interprets each request's `(op, arg)` against the state.
    pub fn spawn<D>(mut endpoint: Endpoint, state: S, dispatch: D) -> Self
    where
        D: Dispatcher<S>,
    {
        let fabric = Arc::clone(endpoint.fabric());
        let server_id = endpoint.id();
        let arena = Arc::new(Arena::new(0, POISONED));
        let worker = Arc::clone(&arena);
        let join = sync::spawn(&format!("mp-server-{server_id}"), move || {
            let cs = Critical::new(state, dispatch);
            let mut m = Native::with_endpoint(&worker, &mut endpoint);
            let track = server_id.index() as u32;
            block_on(serve(&mut m, &cs, &mut Serving { track, t_serve: 0 }));
            cs.state.into_inner()
        });
        Self {
            fabric,
            server_id,
            arena,
            join: Some(join),
        }
    }

    /// The endpoint id clients address their requests to.
    pub fn server_id(&self) -> EndpointId {
        self.server_id
    }

    /// Creates a client bound to `endpoint`. Each application thread needs
    /// its own endpoint (its private hardware queue for responses).
    pub fn client(&self, endpoint: Endpoint) -> MpClient {
        MpClient {
            server: self.server_id,
            endpoint,
            arena: Arc::clone(&self.arena),
        }
    }

    /// Stops the server thread and returns the final protected state.
    ///
    /// The caller must ensure no client still has a request in flight
    /// (dropping or quiescing all clients first).
    ///
    /// # Panics
    ///
    /// Panics if the server's dispatch panicked.
    pub fn shutdown(mut self) -> S {
        self.signal_shutdown();
        self.join
            .take()
            .expect("server already shut down")
            .join()
            .expect("MP-SERVER thread panicked")
    }
}

impl<S> MpServer<S> {
    fn signal_shutdown(&self) {
        // The sender id accompanying OP_SHUTDOWN is never used for a reply.
        let _ = self
            .fabric
            .sender()
            .send(self.server_id, &wire::request(0, OP_SHUTDOWN, 0));
    }
}

impl<S> Drop for MpServer<S> {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.signal_shutdown();
            let _ = join.join();
        }
    }
}

/// Per-thread client of an [`MpServer`].
///
/// `apply` sends the request `{id, op, arg}` (Algorithm of §4.1 / Figure 2;
/// see [`wire`] for the telemetry-mode timestamp extension) and waits for
/// the one-word response.
pub struct MpClient {
    server: EndpointId,
    endpoint: Endpoint,
    arena: Arc<Arena>,
}

impl MpClient {
    /// The id of this client's own endpoint.
    pub fn id(&self) -> EndpointId {
        self.endpoint.id()
    }
}

impl ApplyOp for MpClient {
    /// # Panics
    ///
    /// Panics if the server's dispatch panicked, instead of waiting forever
    /// for its response.
    #[inline]
    fn apply(&mut self, op: u64, arg: u64) -> u64 {
        debug_assert_ne!(op, OP_SHUTDOWN, "opcode u64::MAX is reserved");
        self.arena.check();
        let t0 = telemetry::now_ns();
        let track = self.endpoint.id().index() as u32;
        let mut m = ClientSide::with_endpoint(&self.arena, &mut self.endpoint);
        let ret = block_on(request(&mut m, self.server.to_word(), op, arg));
        telemetry::record_span(track, Algo::MpServer, Lane::ClientWait, t0);
        ret
    }
}

#[cfg(test)]
// Under `--cfg loom` the server is a model thread, which only a loom model
// may spawn; `loom_models` checks MP-SERVER there.
#[cfg(not(loom))]
mod tests {
    use super::*;
    use mpsync_udn::FabricConfig;

    fn counter_dispatch(state: &mut u64, op: u64, arg: u64) -> u64 {
        match op {
            0 => {
                let old = *state;
                *state += 1;
                old
            }
            1 => {
                *state += arg;
                *state
            }
            2 => *state,
            _ => unreachable!("unknown opcode"),
        }
    }

    #[test]
    fn single_client_counter() {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(2)));
        let server = MpServer::spawn(
            fabric.register_any().unwrap(),
            0u64,
            counter_dispatch as fn(&mut u64, u64, u64) -> u64,
        );
        let mut c = server.client(fabric.register_any().unwrap());
        assert_eq!(c.apply(0, 0), 0);
        assert_eq!(c.apply(0, 0), 1);
        assert_eq!(c.apply(1, 10), 12);
        assert_eq!(c.apply(2, 0), 12);
        drop(c);
        assert_eq!(server.shutdown(), 12);
    }

    #[test]
    fn many_clients_sum_is_exact() {
        const THREADS: usize = 6;
        const OPS: u64 = 2_000;
        let fabric = Arc::new(Fabric::new(FabricConfig::new(8)));
        let server = MpServer::spawn(
            fabric.register_any().unwrap(),
            0u64,
            counter_dispatch as fn(&mut u64, u64, u64) -> u64,
        );
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let mut c = server.client(fabric.register_any().unwrap());
            joins.push(std::thread::spawn(move || {
                let mut seen = Vec::with_capacity(OPS as usize);
                for _ in 0..OPS {
                    seen.push(c.apply(0, 0));
                }
                seen
            }));
        }
        let mut all: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all.sort_unstable();
        // Fetch-and-increment results must be a permutation of 0..N — the
        // strongest possible evidence of mutual exclusion and atomicity.
        let expect: Vec<u64> = (0..THREADS as u64 * OPS).collect();
        assert_eq!(all, expect);
        assert_eq!(server.shutdown(), THREADS as u64 * OPS);
    }

    #[test]
    fn drop_without_shutdown_stops_server() {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(2)));
        let server = MpServer::spawn(
            fabric.register_any().unwrap(),
            0u64,
            counter_dispatch as fn(&mut u64, u64, u64) -> u64,
        );
        drop(server); // must not hang
    }

    #[test]
    fn state_returned_on_shutdown_reflects_all_ops() {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(2)));
        let server = MpServer::spawn(
            fabric.register_any().unwrap(),
            Vec::<u64>::new(),
            |state: &mut Vec<u64>, _op: u64, arg: u64| {
                state.push(arg);
                state.len() as u64
            },
        );
        let mut c = server.client(fabric.register_any().unwrap());
        for i in 0..5 {
            assert_eq!(c.apply(0, i * 7), i + 1);
        }
        drop(c);
        assert_eq!(server.shutdown(), vec![0, 7, 14, 21, 28]);
    }

    /// A dispatch panic kills the server: its clients must panic with the
    /// poison report instead of blocking on a response forever. The clients
    /// run on their own thread, so a wedge fails the test instead of hanging
    /// it.
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

        let fabric = Arc::new(Fabric::new(FabricConfig::new(3)));
        let server = MpServer::spawn(
            fabric.register_any().unwrap(),
            0u64,
            boom as fn(&mut u64, u64, u64) -> u64,
        );
        let mut a = server.client(fabric.register_any().unwrap());
        let mut b = server.client(fabric.register_any().unwrap());
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
                    .is_some_and(|m| m.contains("MP-SERVER poisoned")),
                "{who}: {msg:?}"
            );
        }
        clients.join().expect("both panics were caught");
        assert!(catch_unwind(AssertUnwindSafe(|| server.shutdown())).is_err());
    }
}
