//! The runtime's batched per-shard MP-SERVER loop.
//!
//! `mpsync-core`'s [`MpServer`](mpsync_core::MpServer) serves strictly one
//! request per receive. The runtime's shard server keeps the same wire
//! protocol ([`wire`] requests `{sender, op, arg}` plus the telemetry-mode
//! submit timestamp, one-word responses) but adds the two things a
//! long-running service needs:
//!
//! * **adaptive batching** — after blocking for the first request it
//!   greedily drains up to `max_batch` more with non-blocking receives,
//!   recording the achieved batch size (the paper's combining degree,
//!   observed rather than configured);
//! * **deadline-based idling** — the blocking receive uses
//!   [`Endpoint::receive_deadline`], so the loop wakes periodically to check
//!   its stop flag instead of needing a sentinel message racing with
//!   shutdown. Combined with the control plane's in-flight drain this gives
//!   exactly-once shutdown: the stop flag is only set after every admitted
//!   operation has been answered.
//!
//! The executor itself lives in [`ShardCore`], which is *driveable*: a
//! [`ShardServer`] wraps it in a dedicated thread (the classic MP-SERVER
//! shape), while external event loops (an `mpsync-net` reactor) can own a
//! core directly and pump it with non-blocking [`ShardCore::tick`] calls
//! between I/O readiness events — the request still executes on exactly one
//! core, but that core is the same one doing the socket work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpsync_core::{wire, Dispatcher};
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Counter, Lane};
use mpsync_udn::{Endpoint, EndpointId};

use crate::config::OpMask;
use crate::control::Control;
use crate::router::unpack;
use crate::timer;

/// The per-shard timer pass installed by
/// [`Runtime::new_expiring`](crate::Runtime::new_expiring): runs due
/// expirations against the state (under this core's exclusion) and returns
/// the next pending deadline on the [`timer::mono_ns`] clock.
pub(crate) type Ticker<S> = Box<dyn FnMut(&mut S) -> Option<u64> + Send>;

/// How long the serve loop blocks for a first request before re-checking
/// its stop flag.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// Gated-inactive server sleep bounds (see [`ShardServer::spawn`]'s
/// `active` parameter): the sleep starts at `GATED_IDLE_MIN` right after
/// the gate closes — so a quick switch back into MP mode is barely
/// delayed — and doubles to `GATED_IDLE_MAX` while the shard stays in
/// another mode, where each wake only re-reads the gate. Timer wakeups are
/// not free (on virtualized hosts they cost tens of microseconds), so a
/// long-parked server must converge to a few wakes per second.
const GATED_IDLE_MIN: Duration = Duration::from_micros(200);
const GATED_IDLE_MAX: Duration = Duration::from_millis(20);

/// One shard's executor: endpoint, state, dispatcher, and batching policy.
///
/// Whoever owns the core decides the cadence: [`ShardCore::tick`] serves
/// whatever has queued up without blocking, [`ShardCore::tick_blocking`]
/// waits for the head of a batch up to a deadline. Both record achieved
/// batch sizes.
pub(crate) struct ShardCore<S, D> {
    endpoint: Endpoint,
    state: S,
    dispatch: D,
    control: Arc<Control>,
    shard: usize,
    max_batch: u64,
    /// Opcodes that may be merged within a batch (see
    /// [`RuntimeConfig::merge_ops`](crate::RuntimeConfig::merge_ops) for
    /// the fetch-add contract). Empty = the plain streaming serve path.
    merge: OpMask,
    /// Collected raw requests for the merging path (reused allocation).
    pending: Vec<[u64; wire::REQ_WORDS]>,
    /// Per-batch "already served" scratch for the merging path.
    done: Vec<bool>,
    /// Per-group scratch for the merging path: the group's members
    /// (indices into `pending`), and the senders with an un-served request
    /// between the group's head and the scan position.
    members: Vec<usize>,
    passed: Vec<u64>,
    /// Timer pass for expiring states (see [`Ticker`]); `None` for
    /// untimed runtimes.
    ticker: Option<Ticker<S>>,
    /// Cached next timer deadline ([`timer::mono_ns`] ns). Maintained by
    /// every ticker run; `None` = no timer armed.
    next_timer: Option<u64>,
}

impl<S, D: Dispatcher<S>> ShardCore<S, D> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        endpoint: Endpoint,
        state: S,
        dispatch: D,
        control: Arc<Control>,
        shard: usize,
        max_batch: u64,
        merge: OpMask,
    ) -> Self {
        Self {
            endpoint,
            state,
            dispatch,
            control,
            shard,
            max_batch,
            merge,
            pending: Vec::new(),
            done: Vec::new(),
            members: Vec::new(),
            passed: Vec::new(),
            ticker: None,
            next_timer: None,
        }
    }

    /// Installs the timer pass. Runs it once immediately (the state's
    /// constructor may already have armed timers) to seed the cached
    /// deadline.
    pub fn set_ticker(&mut self, mut ticker: Ticker<S>) {
        self.next_timer = ticker(&mut self.state);
        self.ticker = Some(ticker);
    }

    /// Serves every already-queued request, up to `max_batch`, without
    /// blocking. Returns the number served (0 = queue was empty).
    pub fn tick(&mut self) -> u64 {
        let mut buf = [0u64; wire::REQ_WORDS];
        let n = self.endpoint.try_receive(&mut buf);
        if n == 0 {
            // Idle: fire the timer pass only when a deadline is due.
            self.run_due_timers();
            return 0;
        }
        let t_batch = telemetry::now_ns();
        if n < buf.len() {
            // A sender is mid-message; its remaining words are guaranteed
            // to arrive (messages are delivered contiguously), so a
            // blocking receive is safe.
            self.endpoint.receive(&mut buf[n..]);
        }
        let served = self.serve_from(buf, t_batch);
        // Served operations may have armed or disarmed timers: refresh the
        // cached deadline (and expire anything that came due mid-batch).
        self.refresh_timers();
        served
    }

    /// Blocks for the head of the next batch until `deadline` — or until
    /// the nearest timer deadline, whichever is earlier — then serves like
    /// [`ShardCore::tick`]. Returns 0 if the wait expired with no traffic
    /// (any due timers still fire before returning).
    pub fn tick_blocking(&mut self, deadline: Instant) -> u64 {
        let mut buf = [0u64; wire::REQ_WORDS];
        // Bound the wait by the nearest armed timer so TTL expiry fires at
        // its deadline instead of waiting out the caller's idle poll.
        let bound = match self.next_timer {
            Some(ns) => deadline.min(timer::instant_at(ns)),
            None => deadline,
        };
        if self.endpoint.receive_deadline(&mut buf, bound).is_none() {
            self.run_due_timers();
            return 0;
        }
        let t_batch = telemetry::now_ns();
        let served = self.serve_from(buf, t_batch);
        self.refresh_timers();
        served
    }

    /// Runs the timer pass if its cached deadline has come due.
    fn run_due_timers(&mut self) {
        if self.next_timer.is_some_and(|ns| ns <= timer::mono_ns()) {
            self.refresh_timers();
        }
    }

    /// Runs the timer pass unconditionally (when one is installed) and
    /// re-caches the next deadline.
    fn refresh_timers(&mut self) {
        if let Some(ticker) = &mut self.ticker {
            self.next_timer = ticker(&mut self.state);
        }
    }

    /// Serves the batch headed by `head`: streaming when merging is off,
    /// collect-then-merge otherwise.
    fn serve_from(&mut self, head: [u64; wire::REQ_WORDS], t_batch: u64) -> u64 {
        if self.merge.is_empty() {
            self.answer(head);
            let batch = 1 + self.drain(self.max_batch - 1);
            self.finish_batch(batch, t_batch);
            return batch;
        }
        self.pending.clear();
        self.pending.push(head);
        self.collect(self.max_batch);
        let batch = self.serve_merged();
        self.finish_batch(batch, t_batch);
        batch
    }

    /// Greedy non-blocking drain of up to `budget` more requests.
    fn drain(&mut self, budget: u64) -> u64 {
        let mut buf = [0u64; wire::REQ_WORDS];
        let mut served = 0u64;
        while served < budget {
            let n = self.endpoint.try_receive(&mut buf);
            if n == 0 {
                break;
            }
            if n < buf.len() {
                self.endpoint.receive(&mut buf[n..]);
            }
            self.answer(buf);
            served += 1;
        }
        served
    }

    /// Non-blocking collection of raw requests into `pending`, up to
    /// `budget` total.
    fn collect(&mut self, budget: u64) {
        let mut buf = [0u64; wire::REQ_WORDS];
        while (self.pending.len() as u64) < budget {
            let n = self.endpoint.try_receive(&mut buf);
            if n == 0 {
                break;
            }
            if n < buf.len() {
                self.endpoint.receive(&mut buf[n..]);
            }
            self.pending.push(buf);
        }
    }

    /// Serves the collected batch, merging same-word runs of mergeable
    /// opcodes into one dispatch each.
    ///
    /// The contract (see `RuntimeConfig::merge_ops`): a mergeable op is
    /// fetch-add-shaped — it wrapping-adds its argument and returns the old
    /// value. Dispatching the group's wrapped sum once yields the first
    /// member's return value; member `k`'s is reconstructed as
    /// `old ⊞ (args of members before k)`.
    ///
    /// A group's replies all go out at its head's position, so joining a
    /// group moves a request *ahead* of everything between the head and
    /// itself. A session may have several requests in one batch
    /// ([`Session::submit_batch`](crate::Session::submit_batch)) and matches
    /// replies to them by order alone, so a request only joins a group if
    /// its sender has nothing unserved in between: each sender's requests
    /// are executed and answered in the order it sent them.
    fn serve_merged(&mut self) -> u64 {
        let pending = std::mem::take(&mut self.pending);
        let n = pending.len();
        self.done.clear();
        self.done.resize(n, false);
        for i in 0..n {
            if self.done[i] {
                continue;
            }
            let req = wire::decode(pending[i]);
            let (_key, op) = unpack(req.op);
            if !self.merge.contains(op) {
                self.answer(pending[i]);
                continue;
            }
            // Gather the group: every later un-served request for the same
            // packed word (same key *and* opcode) whose sender has nothing
            // un-served before it.
            let mut total = req.arg;
            self.members.clear();
            self.members.push(i);
            self.passed.clear();
            for (j, raw) in pending.iter().enumerate().skip(i + 1) {
                if self.done[j] {
                    continue;
                }
                let later = wire::decode(*raw);
                if self.passed.contains(&later.sender) {
                    continue;
                }
                if later.op == req.op {
                    total = total.wrapping_add(later.arg);
                    self.done[j] = true;
                    self.members.push(j);
                } else {
                    self.passed.push(later.sender);
                }
            }
            let group = self.members.len() as u64;
            if group == 1 {
                self.answer(pending[i]);
                continue;
            }
            let track = telemetry::local_track(self.endpoint.id().index() as u32);
            let t_serve = if telemetry::ENABLED {
                telemetry::record_span(track, Algo::Runtime, Lane::QueueWait, req.submit_ns);
                telemetry::now_ns()
            } else {
                0
            };
            let old = self.dispatch.dispatch(&mut self.state, req.op, total);
            // One dispatch executed `group` logical operations: keep the
            // ops counter (and the merged-ops telemetry) truthful.
            self.control.shards[self.shard]
                .ops
                .fetch_add(group - 1, Ordering::Relaxed);
            telemetry::count(Counter::RuntimeMergedOps, group - 1);
            let mut prefix = 0u64;
            for &j in &self.members {
                let member = wire::decode(pending[j]);
                if j != i && telemetry::ENABLED {
                    telemetry::record_span(track, Algo::Runtime, Lane::QueueWait, member.submit_ns);
                }
                self.endpoint
                    .send(
                        EndpointId::from_word(member.sender),
                        &[old.wrapping_add(prefix)],
                    )
                    .expect("shard client endpoint vanished");
                prefix = prefix.wrapping_add(member.arg);
            }
            if telemetry::ENABLED {
                telemetry::record_span(track, Algo::Runtime, Lane::Serve, t_serve);
            }
        }
        self.pending = pending;
        n as u64
    }

    fn finish_batch(&mut self, batch: u64, t_batch: u64) {
        self.control.record_batch(self.shard, batch);
        if telemetry::ENABLED {
            // Local-namespace track: endpoint indices must never land on
            // the same trace row as client-chosen trace ids.
            let track = telemetry::local_track(self.endpoint.id().index() as u32);
            telemetry::record_span(track, Algo::Runtime, Lane::Batch, t_batch);
            telemetry::count(Counter::RuntimeBatches, 1);
        }
    }

    fn answer(&mut self, buf: [u64; wire::REQ_WORDS]) {
        let track = telemetry::local_track(self.endpoint.id().index() as u32);
        let req = wire::decode(buf);
        let t_serve = if telemetry::ENABLED {
            // Queue wait: the client's submit stamp → this shard picking
            // the request off its hardware queue.
            telemetry::record_span(track, Algo::Runtime, Lane::QueueWait, req.submit_ns);
            telemetry::now_ns()
        } else {
            0
        };
        let ret = self.dispatch.dispatch(&mut self.state, req.op, req.arg);
        self.endpoint
            .send(EndpointId::from_word(req.sender), &[ret])
            .expect("shard client endpoint vanished");
        if telemetry::ENABLED {
            telemetry::record_span(track, Algo::Runtime, Lane::Serve, t_serve);
        }
    }

    /// Surrenders the shard state. The caller must first guarantee
    /// quiescence (no request in flight).
    pub fn into_state(self) -> S {
        self.state
    }
}

/// A running shard server thread. Owns the shard's state until
/// [`ShardServer::stop`].
pub(crate) struct ShardServer<S> {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<S>>,
}

impl<S: Send + 'static> ShardServer<S> {
    /// Spawns the serve loop for shard `shard` on `endpoint`.
    ///
    /// `active` gates the polling loop: while it returns `false` the thread
    /// drains whatever is already queued and then *sleeps* instead of
    /// deadline-polling. The adaptive runtime passes the shard's
    /// mode-is-MP predicate here so that the standing MP server stops
    /// burning a core (the deadline poll yield-spins) while the shard is
    /// served by its lock or combining mode. `None` = always active.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn<D>(
        endpoint: Endpoint,
        state: S,
        dispatch: D,
        control: Arc<Control>,
        shard: usize,
        max_batch: u64,
        merge: OpMask,
        active: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
        ticker: Option<Ticker<S>>,
    ) -> Self
    where
        D: Dispatcher<S>,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let mut core = ShardCore::new(endpoint, state, dispatch, control, shard, max_batch, merge);
        if let Some(ticker) = ticker {
            core.set_ticker(ticker);
        }
        let join = std::thread::Builder::new()
            .name(format!("rt-shard-{shard}"))
            .spawn(move || {
                let mut nap = GATED_IDLE_MIN;
                loop {
                    if let Some(gate) = &active {
                        if !gate() {
                            // Inactive mode: serve stragglers already on the
                            // wire (sent just before a swap quiesced), then
                            // sleep with exponential backoff. The swap
                            // protocol quiesces before the mode changes, so
                            // nothing new arrives until `gate()` flips back
                            // — worst case the first post-switch op waits
                            // one current nap.
                            if core.tick() != 0 {
                                continue;
                            }
                            if stop2.load(Ordering::Acquire) {
                                break;
                            }
                            std::thread::sleep(nap);
                            nap = (nap * 2).min(GATED_IDLE_MAX);
                            continue;
                        }
                        nap = GATED_IDLE_MIN;
                    }
                    // Block for the head of the next batch, waking at
                    // IDLE_POLL to check the stop flag.
                    if core.tick_blocking(Instant::now() + IDLE_POLL) == 0
                        && stop2.load(Ordering::Acquire)
                    {
                        break;
                    }
                }
                core.into_state()
            })
            .expect("failed to spawn shard server thread");
        Self {
            stop,
            join: Some(join),
        }
    }

    /// Stops the loop and returns the shard state.
    ///
    /// The caller must first guarantee quiescence (no request in flight) —
    /// the runtime does so by closing admissions and draining the in-flight
    /// window before calling this.
    pub fn stop(mut self) -> S {
        self.stop.store(true, Ordering::Release);
        self.join
            .take()
            .expect("shard server already stopped")
            .join()
            .expect("shard server thread panicked")
    }
}

impl<S> Drop for ShardServer<S> {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::Release);
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SubmitPolicy;
    use mpsync_udn::{Fabric, FabricConfig};

    fn add_dispatch(state: &mut u64, _op: u64, arg: u64) -> u64 {
        *state = state.wrapping_add(arg);
        *state
    }

    #[test]
    fn serves_and_stops_cleanly() {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let control = Arc::new(Control::new(1, 8, SubmitPolicy::Block));
        let server_ep = fabric.register_any().unwrap();
        let sid = server_ep.id();
        let server = ShardServer::spawn(
            server_ep,
            0u64,
            add_dispatch as fn(&mut u64, u64, u64) -> u64,
            Arc::clone(&control),
            0,
            4,
            OpMask::EMPTY,
            None,
            None,
        );
        let mut client = fabric.register_any().unwrap();
        for i in 1..=10u64 {
            client
                .send(sid, &wire::request(client.id().to_word(), 0, i))
                .unwrap();
            client.receive1();
        }
        assert_eq!(server.stop(), (1..=10).sum::<u64>());
        let batches: u64 = control.shards[0].batches.load(Ordering::Relaxed);
        assert!(batches >= 1, "served batches must be recorded");
    }

    #[test]
    fn idle_server_stops_without_traffic() {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let control = Arc::new(Control::new(1, 8, SubmitPolicy::Block));
        let server = ShardServer::spawn(
            fabric.register_any().unwrap(),
            7u64,
            add_dispatch as fn(&mut u64, u64, u64) -> u64,
            control,
            0,
            4,
            OpMask::EMPTY,
            None,
            None,
        );
        assert_eq!(server.stop(), 7);
    }

    #[test]
    fn batching_respects_max_batch() {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let control = Arc::new(Control::new(1, 64, SubmitPolicy::Block));
        let server_ep = fabric.register_any().unwrap();
        let sid = server_ep.id();
        let server = ShardServer::spawn(
            server_ep,
            0u64,
            add_dispatch as fn(&mut u64, u64, u64) -> u64,
            Arc::clone(&control),
            0,
            2,
            OpMask::EMPTY,
            None,
            None,
        );
        let mut client = fabric.register_any().unwrap();
        // Queue several requests before reading any response so the server
        // sees a backlog and must split it into batches of ≤ 2.
        for i in 0..6u64 {
            client
                .send(sid, &wire::request(client.id().to_word(), 0, i))
                .unwrap();
        }
        let mut last = 0;
        for _ in 0..6 {
            last = client.receive1();
        }
        assert_eq!(last, (0..6).sum::<u64>());
        drop(client);
        server.stop();
        let hist = control.shards[0].batch_hist.snapshot();
        // No batch may exceed max_batch = 2.
        assert!(hist.count() >= 3, "hist: {hist:?}");
        assert!(hist.max() <= 2, "hist: {hist:?}");
    }

    #[test]
    fn merged_batch_returns_per_caller_old_values() {
        use crate::router::pack;
        // Fetch-add body matching the merge contract: add, return OLD.
        fn fetch_add(state: &mut u64, _op: u64, arg: u64) -> u64 {
            let old = *state;
            *state = state.wrapping_add(arg);
            old
        }
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let control = Arc::new(Control::new(1, 64, SubmitPolicy::Block));
        let server_ep = fabric.register_any().unwrap();
        let sid = server_ep.id();
        let mut core = ShardCore::new(
            server_ep,
            0u64,
            fetch_add as fn(&mut u64, u64, u64) -> u64,
            Arc::clone(&control),
            0,
            64,
            OpMask::of(&[0]), // opcode 0 merges; opcode 1 does not
        );
        // Two clients, one batch, arrival order:
        //   a: add 10 | a: other 7 | b: add 20 | a: add 30 | b: add 40
        let mut a = fabric.register_any().unwrap();
        let mut b = fabric.register_any().unwrap();
        let (wa, wb) = (a.id().to_word(), b.id().to_word());
        let w_add = pack(5, 0);
        let w_other = pack(5, 1);
        a.send(sid, &wire::request(wa, w_add, 10)).unwrap();
        a.send(sid, &wire::request(wa, w_other, 7)).unwrap();
        b.send(sid, &wire::request(wb, w_add, 20)).unwrap();
        a.send(sid, &wire::request(wa, w_add, 30)).unwrap();
        b.send(sid, &wire::request(wb, w_add, 40)).unwrap();
        assert_eq!(core.tick(), 5, "one batch serves all five requests");
        // The head's group takes b's two adds (b has nothing else queued)
        // but not a's `add 30`: a's non-merged op sits between, and a
        // matches replies to requests by order alone. So: one dispatch of
        // 10+20+40 answered 0 / 10 / 30, then `other` (sees 70, adds 7),
        // then `add 30` (sees 77) — each client's replies in its own
        // request order, its ops applied in that order.
        let to_a: Vec<u64> = (0..3).map(|_| a.receive1()).collect();
        let to_b: Vec<u64> = (0..2).map(|_| b.receive1()).collect();
        assert_eq!(to_a, vec![0, 70, 77]);
        assert_eq!(to_b, vec![10, 30]);
        // The merged-away ops land on the shard's ops counter (the per-
        // dispatch increment is RtDispatch's job, not exercised by this
        // bare fn-pointer dispatcher): 3 adds − 1 dispatch = 2 extras.
        assert_eq!(control.shards[0].ops.load(Ordering::Relaxed), 2);
        let hist = control.shards[0].batch_hist.snapshot();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), 5);
        drop((a, b));
        assert_eq!(core.into_state(), 107);
    }

    #[test]
    fn blocking_tick_wakes_for_timer_deadline() {
        // Regression test for the idle-loop wake hook: a timer armed 3 ms
        // out must fire ~at its deadline, not when the caller's (long)
        // blocking deadline runs out.
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let control = Arc::new(Control::new(1, 8, SubmitPolicy::Block));
        let mut core = ShardCore::new(
            fabric.register_any().unwrap(),
            Vec::<u64>::new(),
            add_vec_dispatch as fn(&mut Vec<u64>, u64, u64) -> u64,
            control,
            0,
            4,
            OpMask::EMPTY,
        );
        let deadline_ns = timer::mono_ns() + 3_000_000;
        let mut armed = Some(deadline_ns);
        core.set_ticker(Box::new(move |log: &mut Vec<u64>| {
            if let Some(d) = armed {
                if timer::mono_ns() >= d {
                    log.push(d);
                    armed = None;
                }
            }
            armed
        }));
        let t0 = Instant::now();
        let served = core.tick_blocking(Instant::now() + Duration::from_millis(500));
        let waited = t0.elapsed();
        assert_eq!(served, 0, "no traffic was queued");
        // Generous bound: far below the 500 ms idle deadline, so the wake
        // can only have come from the timer bound.
        assert!(
            waited < Duration::from_millis(300),
            "blocking tick must wake at the timer deadline, waited {waited:?}"
        );
        assert_eq!(core.into_state(), vec![deadline_ns], "timer fired once");
    }

    fn add_vec_dispatch(state: &mut Vec<u64>, _op: u64, arg: u64) -> u64 {
        state.push(arg);
        arg
    }

    #[test]
    fn core_ticks_nonblocking() {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let control = Arc::new(Control::new(1, 8, SubmitPolicy::Block));
        let server_ep = fabric.register_any().unwrap();
        let sid = server_ep.id();
        let mut core = ShardCore::new(
            server_ep,
            0u64,
            add_dispatch as fn(&mut u64, u64, u64) -> u64,
            Arc::clone(&control),
            0,
            4,
            OpMask::EMPTY,
        );
        assert_eq!(core.tick(), 0, "empty queue ticks to zero");
        let mut client = fabric.register_any().unwrap();
        for i in 1..=3u64 {
            client
                .send(sid, &wire::request(client.id().to_word(), 0, i))
                .unwrap();
        }
        assert_eq!(core.tick(), 3, "one tick drains the backlog");
        let mut last = 0;
        for _ in 0..3 {
            last = client.receive1();
        }
        assert_eq!(last, 6);
        assert_eq!(core.tick(), 0);
        drop(client);
        assert_eq!(core.into_state(), 6);
    }
}
