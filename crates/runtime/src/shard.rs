//! The runtime's batched MP-SERVER executors, and the threads that serve them.
//!
//! `mpsync-core`'s [`MpServer`](mpsync_core::MpServer) serves strictly one
//! request per receive. The runtime's shard executor keeps the same wire
//! protocol ([`wire`] requests `{sender, op, arg}` plus the telemetry-mode
//! submit timestamp, one-word responses) but adds **adaptive batching**: a
//! [`ShardCore::tick`] serves whatever has queued up, up to `max_batch`
//! requests, without ever blocking on an empty queue, and records the
//! achieved batch size (the paper's combining degree, observed rather than
//! configured).
//!
//! **Shards are units of state and ordering; threads are units of CPU.** A
//! [`ShardCore`] is one shard's executor — endpoint, state, dispatcher,
//! timers — and is served by exactly one thread at any time, which is all
//! that per-key order and exactly-once shutdown need. *Which* thread is a
//! separate matter:
//!
//! * [`ShardServers`] serves a runtime's cores from
//!   [`serving_threads`]` = min(shards, max(1, CPUs − 1))` threads, shard `i`
//!   on thread `i % k`. The paper's MP-SERVER owns a *core* whose `receive`
//!   costs nothing while its queue is empty; a polling thread is only that
//!   while it has a CPU to itself. Two polling threads on one CPU hand it to
//!   each other instead of to whoever has a request (≈ 50 context switches
//!   per operation on the benchmark's `apps-mixed`, p99 one scheduler tick),
//!   and parking them instead costs a 26 µs vCPU wake-up per request on this
//!   kind of host (ROADMAP item 1) — so the answer is fewer waiters, not
//!   sleeping ones: one loop ticks every core it owns in turn, as an SPDK
//!   reactor polls its lightweight threads. And the loops leave one CPU
//!   alone, as the paper gives one core of N to the server and N − 1 to the
//!   clients: a poller on every CPU means each caller runs by preempting one
//!   (`wire-open`: two pollers on two CPUs cost 98 µs of CPU per operation,
//!   one costs 71, at a median latency no higher).
//! * External event loops (a cluster node's core thread, `mpsync-net`'s
//!   pump fallback) can own a core directly (`drive.rs`) and tick it between I/O
//!   events — the request still executes on exactly one core, but that core
//!   is the same one doing the socket work. A threaded runtime becomes such
//!   a runtime through [`ShardServers::stop`], which hands the cores back.
//!
//! The serving loop reads its stop flag only after a round that served
//! nothing, and the control plane sets the flag only after every admitted
//! operation has been answered — exactly-once shutdown needs no sentinel
//! message racing with it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mpsync_core::{wire, Dispatcher};
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Counter, Lane};
use mpsync_udn::{Endpoint, EndpointId};

use crate::config::OpMask;
use crate::control::{self, Control};
use crate::router::unpack;
use crate::timer;

/// The per-shard timer pass installed by
/// [`Runtime::new_expiring`](crate::Runtime::new_expiring): runs due
/// expirations against the state (under this core's exclusion) and returns
/// the next pending deadline on the [`timer::mono_ns`] clock.
pub(crate) type Ticker<S> = Box<dyn FnMut(&mut S) -> Option<u64> + Send>;

/// Sleep bounds of a serving thread whose cores are *all* gated (see
/// [`ShardServers::spawn`]'s `active` parameter): the sleep starts at
/// `GATED_IDLE_MIN` right after the last gate closes — so a quick switch
/// back into MP mode is barely delayed — and doubles to `GATED_IDLE_MAX`
/// while every shard stays in another mode, where each wake only re-reads
/// the gates. Timer wakeups are not free (on virtualized hosts they cost
/// tens of microseconds), so a long-idle thread must converge to a few
/// wakes per second.
const GATED_IDLE_MIN: Duration = Duration::from_micros(200);
const GATED_IDLE_MAX: Duration = Duration::from_millis(20);

/// One shard's executor: endpoint, state, dispatcher, and batching policy.
///
/// Whoever owns the core decides the cadence: [`ShardCore::tick`] serves
/// whatever has queued up without blocking (and fires due timers), so one
/// thread can interleave any number of cores.
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
                .server
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

/// How many threads serve a runtime of `shards` MP-SERVER shards built by
/// the calling thread, which may run on `cpus` CPUs: one per shard, but
/// always one fewer than the CPUs (and at least one). More polling servers
/// than CPUs can only take the CPU from a thread that has work, and as many
/// as CPUs is not right either: the callers run somewhere. The paper's
/// machine gives the server one core and the clients the other N − 1.
pub(crate) fn threads_for(shards: usize, cpus: usize) -> usize {
    shards.min(cpus.saturating_sub(1).max(1))
}

/// [`threads_for`] the CPUs the calling thread may run on (its affinity mask
/// and cgroup quota — which the spawned threads inherit).
pub(crate) fn serving_threads(shards: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    threads_for(shards, cpus)
}

/// A runtime's serving threads. Own the shard cores until
/// [`ShardServers::stop`].
pub(crate) struct ShardServers<S, D> {
    stop: Arc<AtomicBool>,
    /// Thread `j` serves shards `j, j + k, j + 2k, …` and returns their
    /// cores in that order.
    joins: Vec<JoinHandle<Vec<ShardCore<S, D>>>>,
    /// Rounds that served nothing, summed over the threads: how often the
    /// loops came up empty (and so waited or slept).
    #[cfg(test)]
    idle_rounds: Arc<std::sync::atomic::AtomicU64>,
}

impl<S, D> ShardServers<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S> + Send + 'static,
{
    /// Spawns `threads` serving threads over `cores` (one per shard, in
    /// shard order).
    ///
    /// Each thread runs one loop: tick every core it owns in turn — a tick
    /// is non-blocking and bounded by `max_batch`, so a saturated shard
    /// delays a sibling's request by one batch, not by a time slice — and
    /// only after a round that served nothing read the stop flag and wait
    /// one step ([`control::HANDOFF_SPINS`] pauses, then a yield per round:
    /// the clients may be waiting for this very CPU).
    ///
    /// `active` gates the polling: a core for which it returns `false`
    /// expects no traffic (it is still ticked, for stragglers sent just
    /// before its gate closed), and a thread whose cores are *all* gated
    /// sleeps between rounds instead of spinning. The adaptive runtime
    /// passes the shard's mode-is-MP predicate so that its standing MP
    /// servers stop burning a CPU while every shard is served by its lock or
    /// combining mode; the swap protocol quiesces before a mode changes, so
    /// nothing new arrives until a gate flips back — worst case the first
    /// post-switch op waits one current nap.
    pub fn spawn<A>(cores: Vec<ShardCore<S, D>>, threads: usize, active: A) -> Self
    where
        A: Fn(&S) -> bool + Copy + Send + 'static,
    {
        let shards = cores.len();
        assert!(
            (1..=shards).contains(&threads),
            "{threads} serving threads for {shards} shards"
        );
        let stop = Arc::new(AtomicBool::new(false));
        #[cfg(test)]
        let idle_rounds = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut groups: Vec<Vec<ShardCore<S, D>>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, core) in cores.into_iter().enumerate() {
            groups[i % threads].push(core);
        }
        let joins = groups
            .into_iter()
            .enumerate()
            .map(|(j, mut group)| {
                let stop = Arc::clone(&stop);
                #[cfg(test)]
                let idle_rounds = Arc::clone(&idle_rounds);
                std::thread::Builder::new()
                    .name(format!("rt-serve-{j}"))
                    .spawn(move || {
                        let mut spins = 0u32;
                        let mut nap = GATED_IDLE_MIN;
                        loop {
                            let served: u64 = group.iter_mut().map(ShardCore::tick).sum();
                            if served != 0 {
                                spins = 0;
                                continue;
                            }
                            #[cfg(test)]
                            idle_rounds.fetch_add(1, Ordering::Relaxed);
                            // Acquire: pairs with `stop`'s Release store,
                            // which follows the shutdown drain.
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            if group.iter().any(|core| active(&core.state)) {
                                nap = GATED_IDLE_MIN;
                                control::spin_then_yield(&mut spins, control::HANDOFF_SPINS);
                            } else {
                                std::thread::sleep(nap);
                                nap = (nap * 2).min(GATED_IDLE_MAX);
                            }
                        }
                        group
                    })
                    .expect("failed to spawn shard serving thread")
            })
            .collect();
        Self {
            stop,
            joins,
            #[cfg(test)]
            idle_rounds,
        }
    }

    /// The number of serving threads.
    pub fn threads(&self) -> usize {
        self.joins.len()
    }

    #[cfg(test)]
    pub fn idle_rounds(&self) -> u64 {
        self.idle_rounds.load(Ordering::Relaxed)
    }

    /// Stops and joins the loops and returns the shard cores, in shard
    /// order; no thread is left afterwards.
    ///
    /// A loop leaves only after a round that served nothing, and a core
    /// keeps its endpoint, so a request that arrives while the loops wind
    /// down is not lost: it waits in the core's queue for the next `tick`,
    /// whoever calls it. A caller that goes on to take the states
    /// ([`ShardCore::into_state`]) must first guarantee quiescence (no
    /// request in flight) — shutdown does so by closing admissions and
    /// draining the in-flight window before calling this.
    pub fn stop(&mut self) -> Vec<ShardCore<S, D>> {
        self.stop.store(true, Ordering::Release);
        let mut per_thread: Vec<_> = self
            .joins
            .drain(..)
            .map(|join| {
                join.join()
                    .expect("shard serving thread panicked")
                    .into_iter()
            })
            .collect();
        let threads = per_thread.len();
        let shards: usize = per_thread.iter().map(ExactSizeIterator::len).sum();
        (0..shards)
            .map(|i| per_thread[i % threads].next().expect("one core per shard"))
            .collect()
    }
}

impl<S, D> Drop for ShardServers<S, D> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SubmitPolicy;
    use mpsync_udn::{Fabric, FabricConfig};
    use std::sync::atomic::AtomicU64;

    type Body<S> = fn(&mut S, u64, u64) -> u64;

    fn add_dispatch(state: &mut u64, _op: u64, arg: u64) -> u64 {
        *state = state.wrapping_add(arg);
        *state
    }

    /// Add, return the OLD value (the merge contract's shape).
    fn fetch_add(state: &mut u64, _op: u64, arg: u64) -> u64 {
        let old = *state;
        *state = state.wrapping_add(arg);
        old
    }

    /// `n` cores on one fabric (with room for as many clients), shard `i`
    /// starting from `init(i)`; also their endpoint ids, in shard order.
    #[allow(clippy::type_complexity)]
    fn cores<S: 'static>(
        n: usize,
        max_batch: u64,
        init: impl Fn(usize) -> S,
        body: Body<S>,
    ) -> (
        Arc<Fabric>,
        Arc<Control>,
        Vec<ShardCore<S, Body<S>>>,
        Vec<EndpointId>,
    ) {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(n)));
        let control = Arc::new(Control::new(n, 64, SubmitPolicy::Block));
        let cores: Vec<_> = (0..n)
            .map(|i| {
                let ep = fabric.register_any().unwrap();
                ShardCore::new(
                    ep,
                    init(i),
                    body,
                    Arc::clone(&control),
                    i,
                    max_batch,
                    OpMask::EMPTY,
                )
            })
            .collect();
        let ids = cores.iter().map(|c| c.endpoint.id()).collect();
        (fabric, control, cores, ids)
    }

    /// Stops a quiescent group and takes the states out of its cores.
    fn stop_states<S: Send + 'static>(mut servers: ShardServers<S, Body<S>>) -> Vec<S> {
        let cores = servers.stop();
        cores.into_iter().map(ShardCore::into_state).collect()
    }

    /// The rule on its own: one thread per shard, one CPU left to the
    /// callers, never fewer than one thread.
    #[test]
    fn serving_threads_leave_a_cpu_to_the_callers() {
        for ((shards, cpus), threads) in [
            ((1, 1), 1),
            ((4, 1), 1),
            ((4, 2), 1),
            ((4, 4), 3),
            ((2, 8), 2),
            ((1, 8), 1),
        ] {
            assert_eq!(
                threads_for(shards, cpus),
                threads,
                "{shards} shards, {cpus} CPUs"
            );
        }
    }

    fn request(client: &Endpoint, server: EndpointId, op: u64, arg: u64) {
        client
            .send(server, &wire::request(client.id().to_word(), op, arg))
            .unwrap();
    }

    /// Runs `f` on its own thread and fails — instead of hanging the suite —
    /// if it has not finished after `secs` seconds.
    fn watchdog(what: &str, secs: u64, f: impl FnOnce() + Send + 'static) {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        let worker = std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(secs)) {
            Ok(()) => worker.join().unwrap(),
            Err(RecvTimeoutError::Timeout) => panic!("{what}: still running after {secs} s"),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
        }
    }

    /// A client that keeps `depth` requests outstanding on `server` until
    /// told to stop, then collects what it still has in flight.
    fn saturate(
        fabric: &Arc<Fabric>,
        server: EndpointId,
        depth: usize,
        stop: &Arc<AtomicBool>,
    ) -> JoinHandle<()> {
        let mut client = fabric.register_any().unwrap();
        let stop = Arc::clone(stop);
        std::thread::spawn(move || {
            for _ in 0..depth {
                request(&client, server, 0, 1);
            }
            while !stop.load(Ordering::Relaxed) {
                client.receive1();
                request(&client, server, 0, 1);
            }
            for _ in 0..depth {
                client.receive1();
            }
        })
    }

    #[test]
    fn serves_and_stops_cleanly() {
        let (fabric, control, cores, ids) = cores(1, 4, |_| 0u64, add_dispatch);
        let servers = ShardServers::spawn(cores, 1, |_| true);
        let mut client = fabric.register_any().unwrap();
        for i in 1..=10u64 {
            request(&client, ids[0], 0, i);
            client.receive1();
        }
        assert_eq!(stop_states(servers), vec![(1..=10).sum::<u64>()]);
        let batches: u64 = control.shards[0].server.batches.load(Ordering::Relaxed);
        assert!(batches >= 1, "served batches must be recorded");
    }

    #[test]
    fn idle_server_stops_without_traffic() {
        let (_fabric, _control, cores, _ids) = cores(1, 4, |_| 7u64, add_dispatch);
        assert_eq!(
            stop_states(ShardServers::spawn(cores, 1, |_| true)),
            vec![7]
        );
    }

    #[test]
    fn batching_respects_max_batch() {
        let (fabric, control, cores, ids) = cores(1, 2, |_| 0u64, add_dispatch);
        let servers = ShardServers::spawn(cores, 1, |_| true);
        let mut client = fabric.register_any().unwrap();
        // Queue several requests before reading any response so the server
        // sees a backlog and must split it into batches of ≤ 2.
        for i in 0..6u64 {
            request(&client, ids[0], 0, i);
        }
        let mut last = 0;
        for _ in 0..6 {
            last = client.receive1();
        }
        assert_eq!(last, (0..6).sum::<u64>());
        drop(client);
        stop_states(servers);
        let hist = control.shards[0].server.batch_hist.snapshot();
        // No batch may exceed max_batch = 2.
        assert!(hist.count() >= 3, "hist: {hist:?}");
        assert!(hist.max() <= 2, "hist: {hist:?}");
    }

    /// Four shards behind one thread, four clients each hammering its own:
    /// nothing is lost or reordered, and the states come back in shard order
    /// whatever the shard-to-thread map (here also 4 over 3 and over 4).
    #[test]
    fn one_thread_serves_four_cores() {
        const OPS: u64 = 5_000;
        for threads in [1, 3, 4] {
            watchdog("four clients over one group", 60, move || {
                let base = |i: usize| 1_000_000 * (i as u64 + 1);
                let (fabric, control, cores, ids) = cores(4, 8, base, fetch_add);
                let servers = ShardServers::spawn(cores, threads, |_| true);
                assert_eq!(servers.threads(), threads);
                let clients: Vec<_> = ids
                    .into_iter()
                    .enumerate()
                    .map(|(i, sid)| {
                        let mut client = fabric.register_any().unwrap();
                        std::thread::spawn(move || {
                            // The shard's only client: its pre-values are
                            // exactly base, base + 1, …
                            for n in 0..OPS {
                                request(&client, sid, 0, 1);
                                assert_eq!(client.receive1(), base(i) + n, "shard {i}");
                            }
                        })
                    })
                    .collect();
                for c in clients {
                    c.join().unwrap();
                }
                let states = stop_states(servers);
                assert_eq!(states, (0..4).map(|i| base(i) + OPS).collect::<Vec<_>>());
                for m in control.shards.iter() {
                    assert_eq!(m.server.batch_hist.snapshot().sum(), OPS);
                }
            });
        }
    }

    /// A saturated shard delays its sibling's request by about one batch,
    /// not by a time slice and not until its own queue runs dry: both cores
    /// bump one shared counter, the probe reads it just before sending and
    /// is answered with its value at service time.
    #[test]
    fn saturated_shard_does_not_starve_its_sibling() {
        const MAX_BATCH: u64 = 4;
        const DEPTH: usize = 24; // a drain-until-empty loop would show ≥ this
        fn count(shared: &mut Arc<AtomicU64>, op: u64, _arg: u64) -> u64 {
            match op {
                0 => shared.fetch_add(1, Ordering::Relaxed),
                _ => shared.load(Ordering::Relaxed),
            }
        }
        watchdog("probe beside a saturated shard", 60, || {
            let served = Arc::new(AtomicU64::new(0));
            let (fabric, _control, cores, ids) =
                cores(2, MAX_BATCH, |_| Arc::clone(&served), count);
            let servers = ShardServers::spawn(cores, 1, |_| true);
            let stop = Arc::new(AtomicBool::new(false));
            let hot = saturate(&fabric, ids[0], DEPTH, &stop);
            let mut probe = fabric.register_any().unwrap();
            while served.load(Ordering::Relaxed) < 1_000 {
                std::thread::yield_now(); // let the hot shard get going
            }
            let mut waits: Vec<u64> = (0..200)
                .map(|_| {
                    let before = served.load(Ordering::Relaxed);
                    request(&probe, ids[1], 1, 0);
                    probe.receive1() - before
                })
                .collect();
            stop.store(true, Ordering::Relaxed);
            hot.join().unwrap();
            stop_states(servers);
            // A probe lands behind at most one hot batch in progress and one
            // more on the next round; the tail allows for the prober being
            // descheduled between its read and its send.
            waits.sort_unstable();
            let p90 = waits[waits.len() * 9 / 10];
            assert!(
                p90 <= 3 * MAX_BATCH,
                "a sibling's request waited {p90} hot ops at p90 (all: {waits:?})"
            );
        });
    }

    /// The idle pass of a tick fires timers at their deadline even when the
    /// thread is kept busy by a sibling (what `tick`'s callers rely on now
    /// that no wait is bounded by the nearest deadline).
    #[test]
    fn timer_on_idle_core_fires_while_sibling_is_saturated() {
        fn ignore(_log: &mut Vec<u64>, _op: u64, arg: u64) -> u64 {
            arg
        }
        watchdog("timer beside a saturated shard", 60, || {
            let (fabric, _control, mut cores, ids) = cores(2, 4, |_| Vec::new(), ignore);
            let deadline_ns = timer::mono_ns() + 3_000_000;
            let mut armed = Some(deadline_ns);
            cores[1].set_ticker(Box::new(move |log: &mut Vec<u64>| {
                if armed.is_some_and(|d| timer::mono_ns() >= d) {
                    log.push(timer::mono_ns());
                    armed = None;
                }
                armed
            }));
            let servers = ShardServers::spawn(cores, 1, |_| true);
            let stop = Arc::new(AtomicBool::new(false));
            let hot = saturate(&fabric, ids[0], 16, &stop);
            std::thread::sleep(Duration::from_millis(60));
            stop.store(true, Ordering::Relaxed);
            hot.join().unwrap();
            let states = stop_states(servers);
            let [fired] = states[1][..] else {
                panic!("timer must fire exactly once: {:?}", states[1]);
            };
            let late_ms = (fired - deadline_ns) / 1_000_000;
            assert!(late_ms < 50, "timer fired {late_ms} ms after its deadline");
        });
    }

    /// Adaptive shards sharing a thread: Lock↔Mp swaps on one while its
    /// sibling serves in Mp mode lose nothing and always quiesce; and once
    /// every shard is back in Lock mode the threads nap as the gated server
    /// did.
    #[test]
    fn adaptive_group_swaps_under_load_and_sleeps_when_all_gated() {
        use crate::{probe_key, Backend, Runtime, RuntimeConfig};
        fn body(s: &mut u64, _key: u64, _op: u64, arg: u64) -> u64 {
            fetch_add(s, 0, arg)
        }
        watchdog("adaptive swaps inside one group", 60, || {
            // Twice as many shards as threads, whatever the host: shards 0
            // and `threads` are both served by thread 0.
            let threads = serving_threads(usize::MAX);
            let shards = 2 * threads;
            let rt = Arc::new(Runtime::new(
                RuntimeConfig::new(shards)
                    .with_backend(Backend::Adaptive)
                    .with_adaptive_auto(false),
                |_| 0u64,
                body as fn(&mut u64, u64, u64, u64) -> u64,
            ));
            assert_eq!(rt.stats().server_threads, threads);
            let (swapped, sibling) = (0, threads);
            assert!(rt.force_backend(sibling, Backend::MpServer));
            let stop = Arc::new(AtomicBool::new(false));
            let clients: Vec<_> = [swapped, sibling]
                .into_iter()
                .map(|shard| {
                    let (rt, stop) = (Arc::clone(&rt), Arc::clone(&stop));
                    std::thread::spawn(move || {
                        let mut s = rt.session().unwrap();
                        let key = probe_key(shard, shards);
                        let mut n = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            // The shard's only client: pre-values count up
                            // across every swap.
                            assert_eq!(s.submit(key, 0, 1).unwrap(), n);
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            for _ in 0..20 {
                assert!(rt.force_backend(swapped, Backend::MpServer));
                std::thread::sleep(Duration::from_millis(2));
                assert!(rt.force_backend(swapped, Backend::Lock));
                std::thread::sleep(Duration::from_millis(2));
            }
            stop.store(true, Ordering::Relaxed);
            let done: Vec<u64> = clients.into_iter().map(|c| c.join().unwrap()).collect();
            assert!(done.iter().all(|&n| n > 0), "both shards served: {done:?}");
            assert_eq!(rt.swap_epoch(swapped), 40);

            // Every shard gated: a loop comes round a few dozen times in
            // 200 ms (200 µs naps doubling to 20 ms), not millions of times.
            assert!(rt.force_backend(sibling, Backend::Lock));
            std::thread::sleep(Duration::from_millis(50)); // naps lengthen
            let before = rt.idle_rounds();
            std::thread::sleep(Duration::from_millis(200));
            let idle = rt.idle_rounds() - before;
            assert!(
                idle <= 100 * threads as u64,
                "{idle} rounds in 200 ms: a fully gated thread must sleep"
            );

            let rt = Arc::try_unwrap(rt).ok().expect("clients are gone");
            let states = rt.shutdown().states;
            assert_eq!((states[swapped], states[sibling]), (done[0], done[1]));
            assert_eq!(states.iter().sum::<u64>(), done[0] + done[1]);
        });
    }

    #[test]
    fn merged_batch_returns_per_caller_old_values() {
        use crate::router::pack;
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
        assert_eq!(control.shards[0].server.ops.load(Ordering::Relaxed), 2);
        let hist = control.shards[0].server.batch_hist.snapshot();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), 5);
        drop((a, b));
        assert_eq!(core.into_state(), 107);
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
