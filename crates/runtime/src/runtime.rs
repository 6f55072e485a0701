//! The sharded delegation runtime: N key-partitioned shards, each protected
//! by one critical-section executor, multiplexing many client sessions.

use std::sync::{Arc, Mutex};

use mpsync_core::{wire, ApplyOp, CcSynch, Dispatcher, HybComb, LockCs, McsLock};
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Counter, Lane};
use mpsync_udn::{
    Endpoint, EndpointId, Fabric, FabricConfig, CHANNELS_PER_CORE, QUEUE_CAPACITY_WORDS,
};

use crate::adaptive::{
    backend_mode, mode_backend, spawn_controller, AdaptiveAccess, AdaptiveHandle, AdaptiveShard,
    Controller, MpModeDispatch, SlotLease, SlotPool, MODE_MP,
};
use crate::config::{Backend, OpMask, RuntimeConfig};
use crate::control::{Control, NoSlot};
use crate::drive::{CoreDrive, DriveShard, ShardDriver};
use crate::router::{pack, shard_for};
use crate::shard::{serving_threads, ShardCore, ShardServers, Ticker};
use crate::stats::RuntimeStats;
use crate::timer::{self, Expire};
use crate::RuntimeError;

/// The keyed critical-section body a runtime executes: `(state, key, op,
/// arg) → result`. The runtime routes by `key`, so unlike the two-word
/// [`Dispatcher`] bodies of `mpsync-core`, the key reaches the body as an
/// explicit word.
///
/// Implemented by every `Fn(&mut S, u64, u64, u64) -> u64` that is `Clone +
/// Send + Sync + 'static` (each shard gets its own copy).
pub trait KeyedDispatch<S>:
    Fn(&mut S, u64, u64, u64) -> u64 + Clone + Send + Sync + 'static
{
}

impl<S, F> KeyedDispatch<S> for F where
    F: Fn(&mut S, u64, u64, u64) -> u64 + Clone + Send + Sync + 'static
{
}

/// The expiry hook a timed runtime threads through every dispatcher: fires
/// the state's due timers under the shard's exclusion (see
/// [`Runtime::new_expiring`]).
pub(crate) type ExpiryHook<S> = Arc<dyn Fn(&mut S) + Send + Sync>;

/// The per-shard [`Dispatcher`] adapter: unpacks the `(key, op)` request
/// word, counts the execution, maintains the shard's read cache (when the
/// fast path is on), runs due timer expirations, and calls the keyed body.
pub(crate) struct RtDispatch<S, F> {
    pub(crate) f: F,
    pub(crate) control: Arc<Control>,
    pub(crate) shard: usize,
    pub(crate) read_fast: OpMask,
    /// Timer pass for expiring states, run before each potentially-mutating
    /// dispatch; `None` for untimed runtimes. This is what makes expiry
    /// work identically on the inline backends (Lock/HybComb/CcSynch) and
    /// in every Adaptive mode: whoever executes the critical section also
    /// sweeps the timers, so expiry is always linearized before the op
    /// that triggered the sweep.
    pub(crate) expire: Option<ExpiryHook<S>>,
}

impl<S, F> Dispatcher<S> for RtDispatch<S, F>
where
    F: KeyedDispatch<S>,
    S: 'static,
{
    #[inline]
    fn dispatch(&self, state: &mut S, word: u64, arg: u64) -> u64 {
        let (key, op) = crate::router::unpack(word);
        self.control.shards[self.shard]
            .server
            .ops
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Some(cache) = self.control.read_cache(self.shard) {
            if self.read_fast.contains(op) {
                // A masked read mutates nothing: execute it, then publish
                // the result for future fast reads of this word.
                let ret = (self.f)(state, key, op, arg);
                cache.publish(word, ret);
                return ret;
            }
            // Potentially mutating: invalidate *before* touching the state
            // so no fast read can serve a value this dispatch outdates.
            cache.begin_mutation();
        }
        if let Some(expire) = &self.expire {
            // Runs after begin_mutation (expiry mutates the state) and
            // before the op, so the op observes fully-expired state.
            expire(state);
        }
        (self.f)(state, key, op, arg)
    }
}

/// One executor per shard, behind the backend chosen at construction.
enum Executors<S, F: KeyedDispatch<S>>
where
    S: Send + 'static,
{
    Mp {
        fabric: Arc<Fabric>,
        servers: ShardServers<S, RtDispatch<S, F>>,
        server_ids: Arc<[EndpointId]>,
    },
    /// MP-SERVER without dedicated threads: each shard core is handed out
    /// once as a [`ShardDriver`]; `slots` get the states back on driver
    /// drop. See [`RuntimeConfig::external_drive`] and
    /// [`Runtime::drive_externally`].
    MpExternal {
        fabric: Arc<Fabric>,
        drivers: Mutex<Vec<Option<Box<dyn DriveShard>>>>,
        slots: Vec<Arc<Mutex<Option<S>>>>,
        server_ids: Arc<[EndpointId]>,
    },
    Hyb {
        fabric: Arc<Fabric>,
        combs: Vec<HybComb<S, RtDispatch<S, F>>>,
    },
    Cc {
        execs: Vec<CcSynch<S, RtDispatch<S, F>>>,
    },
    Lock {
        execs: Vec<LockCs<S, McsLock, RtDispatch<S, F>>>,
    },
    /// The adaptive executor: every shard can be served by a lock, a
    /// combiner, or its (always-standing) MP server core, switched live by
    /// the controller or [`Runtime::force_backend`].
    Adaptive {
        fabric: Arc<Fabric>,
        shards: Vec<Arc<AdaptiveShard<S, F>>>,
        servers: ShardServers<Arc<AdaptiveShard<S, F>>, MpModeDispatch>,
        server_ids: Arc<[EndpointId]>,
        slots: Arc<SlotPool>,
        controller: Option<Controller>,
    },
}

impl<S, F> Executors<S, F>
where
    S: Send + 'static,
    F: KeyedDispatch<S>,
{
    /// Parks `cores` (in shard order, whatever their queues already hold)
    /// as untaken drivers, each with its return slot.
    fn externally_driven(
        fabric: Arc<Fabric>,
        cores: Vec<ShardCore<S, RtDispatch<S, F>>>,
        server_ids: Arc<[EndpointId]>,
    ) -> Self {
        let slots: Vec<_> = cores.iter().map(|_| Arc::new(Mutex::new(None))).collect();
        let drivers = cores
            .into_iter()
            .zip(&slots)
            .map(|(core, slot)| {
                Some(Box::new(CoreDrive::new(core, Arc::clone(slot))) as Box<dyn DriveShard>)
            })
            .collect();
        Executors::MpExternal {
            fabric,
            drivers: Mutex::new(drivers),
            slots,
            server_ids,
        }
    }
}

/// A sharded, batched delegation runtime.
///
/// `Runtime` owns `shards` copies of a sequential state `S`, each protected
/// by its own critical-section executor (the [`Backend`] chosen in
/// [`RuntimeConfig`]), and routes every keyed operation to the shard that
/// owns its key — the generalization of the paper's two-memory-controller
/// address striping (§5.4) to N servicing units. Because a key's operations
/// all execute on one shard and each shard executes in mutual exclusion,
/// per-key operations are linearizable and their per-session order is
/// preserved.
///
/// Clients interact through [`Session`]s (see [`Runtime::session`]); each
/// session may be moved to its own thread.
///
/// ```
/// use mpsync_runtime::{Runtime, RuntimeConfig, Backend};
/// use mpsync_objects::seq::{keyed_counter_dispatch, KeyedCounters};
///
/// let rt = Runtime::new(
///     RuntimeConfig::new(2).with_backend(Backend::Lock),
///     |_shard| KeyedCounters::new(),
///     keyed_counter_dispatch,
/// );
/// let mut s = rt.session().unwrap();
/// assert_eq!(s.submit(7, 0, 0).unwrap(), 0); // fetch-inc key 7
/// assert_eq!(s.submit(7, 0, 0).unwrap(), 1);
/// drop(s);
/// let report = rt.shutdown();
/// assert_eq!(report.stats.total_ops(), 2);
/// ```
pub struct Runtime<S, F>
where
    S: Send + 'static,
    F: KeyedDispatch<S>,
{
    config: RuntimeConfig,
    control: Arc<Control>,
    executors: Executors<S, F>,
}

impl<S, F> Runtime<S, F>
where
    S: Send + 'static,
    F: KeyedDispatch<S>,
{
    /// Builds the runtime: `init(shard)` produces each shard's initial
    /// state, `f` is the keyed critical-section body every shard runs.
    pub fn new(config: RuntimeConfig, init: impl FnMut(usize) -> S, f: F) -> Self {
        Self::build(config, init, f, None)
    }

    fn build(
        config: RuntimeConfig,
        mut init: impl FnMut(usize) -> S,
        f: F,
        timers: Option<TimerWiring<S>>,
    ) -> Self {
        config.validate();
        flight_backend(&config);
        let mut control = Control::new(config.shards, config.queue_depth, config.submit);
        if !config.read_fast.is_empty() {
            control = control.with_read_cache();
        }
        let control = Arc::new(control);
        let hook = timers.as_ref().map(|t| Arc::clone(&t.hook));
        let dispatch = |shard: usize| RtDispatch {
            f: f.clone(),
            control: Arc::clone(&control),
            shard,
            read_fast: config.read_fast,
            expire: hook.clone(),
        };
        let ticker = |shard: usize| timers.as_ref().map(|t| (t.ticker)(&control, shard));
        let executors = match config.backend {
            Backend::MpServer => {
                let fabric = sized_fabric(&config, config.shards + config.max_sessions);
                let mut server_ids = Vec::with_capacity(config.shards);
                let cores: Vec<_> = (0..config.shards)
                    .map(|i| {
                        let ep = fabric.register_any().expect("fabric sized for shards");
                        server_ids.push(ep.id());
                        let mut core = ShardCore::new(
                            ep,
                            init(i),
                            dispatch(i),
                            Arc::clone(&control),
                            i,
                            config.max_batch,
                            config.merge_ops,
                        );
                        if let Some(t) = ticker(i) {
                            core.set_ticker(t);
                        }
                        core
                    })
                    .collect();
                let server_ids = server_ids.into();
                if config.external_drive {
                    Executors::externally_driven(fabric, cores, server_ids)
                } else {
                    Executors::Mp {
                        fabric,
                        servers: ShardServers::spawn(cores, serving_threads(config.shards), |_| {
                            true
                        }),
                        server_ids,
                    }
                }
            }
            Backend::HybComb => {
                let fabric = sized_fabric(&config, config.shards * config.max_sessions);
                let combs = (0..config.shards)
                    .map(|i| {
                        HybComb::new(config.max_sessions, config.max_batch, init(i), dispatch(i))
                    })
                    .collect();
                Executors::Hyb { fabric, combs }
            }
            Backend::CcSynch => Executors::Cc {
                execs: (0..config.shards)
                    .map(|i| {
                        CcSynch::new(config.max_sessions, config.max_batch, init(i), dispatch(i))
                    })
                    .collect(),
            },
            Backend::Lock => Executors::Lock {
                execs: (0..config.shards)
                    .map(|i| LockCs::new(init(i), dispatch(i)))
                    .collect(),
            },
            Backend::Adaptive => {
                let fabric = sized_fabric(&config, config.shards + config.max_sessions);
                let mut shards = Vec::with_capacity(config.shards);
                let mut cores = Vec::with_capacity(config.shards);
                let mut server_ids = Vec::with_capacity(config.shards);
                for i in 0..config.shards {
                    let ep = fabric.register_any().expect("fabric sized for shards");
                    server_ids.push(ep.id());
                    let sh = Arc::new(AdaptiveShard::new(
                        init(i),
                        dispatch(i),
                        Arc::clone(&control),
                        i,
                        &config,
                    ));
                    // No core-level ticker here: the serving thread is only
                    // the executor while the shard is in Mp mode, and the
                    // swap protocol doesn't quiesce against ticks. Timed
                    // states expire through the dispatch hook instead, which
                    // runs under whichever mode's exclusion is current.
                    cores.push(ShardCore::new(
                        ep,
                        Arc::clone(&sh),
                        MpModeDispatch,
                        Arc::clone(&control),
                        i,
                        config.max_batch,
                        config.merge_ops,
                    ));
                    shards.push(sh);
                }
                // The Mp-mode cores stand for the shards' whole life, but
                // polling costs a CPU: gate each on its shard's mode, so a
                // thread none of whose shards is in Mp mode sleeps instead
                // of competing with the lock/comb executors.
                let servers = ShardServers::spawn(
                    cores,
                    serving_threads(config.shards),
                    |sh: &Arc<AdaptiveShard<S, F>>| sh.mode() == MODE_MP,
                );
                let controller = config
                    .adaptive_auto
                    .then(|| spawn_controller(shards.clone(), Arc::clone(&control), config));
                Executors::Adaptive {
                    fabric,
                    shards,
                    servers,
                    server_ids: server_ids.into(),
                    slots: SlotPool::new(config.max_sessions),
                    controller,
                }
            }
        };
        Self {
            config,
            control,
            executors,
        }
    }

    /// The configuration this runtime was built with (`external_drive` also
    /// reads `true` after [`Runtime::drive_externally`]).
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The shard that owns `key` under this runtime's striping.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_for(key, self.config.shards)
    }

    /// Turns a threaded MP-SERVER runtime into an externally driven one:
    /// stops and joins its `rt-serve-*` threads and parks their shard cores
    /// as untaken drivers, exactly as [`RuntimeConfig::external_drive`]
    /// would have at construction. From here on [`Runtime::take_driver`]
    /// hands each shard out once and nothing is served until its driver is
    /// ticked.
    ///
    /// For an owner that is the runtime's only caller (a cluster node's core
    /// thread over its store): the thread that submits an operation then
    /// also serves it ([`Session::submit_with`]), and no polling thread
    /// stands by for it.
    ///
    /// The cores keep their endpoints and queues, so sessions opened before
    /// stay valid and a request already queued is answered — once — by the
    /// first tick of its shard's driver. No-op on a runtime that is already
    /// externally driven; the inline backends and [`Backend::Adaptive`]
    /// (whose standing servers are one of three live modes) are left as
    /// they are.
    pub fn drive_externally(&mut self) {
        let Executors::Mp {
            fabric,
            servers,
            server_ids,
        } = &mut self.executors
        else {
            return;
        };
        let cores = servers.stop();
        self.executors =
            Executors::externally_driven(Arc::clone(fabric), cores, Arc::clone(server_ids));
        self.config.external_drive = true;
        flight_backend(&self.config);
    }

    /// Takes ownership of `shard`'s externally-driven executor.
    ///
    /// Returns `Some` exactly once per shard, and only for externally
    /// driven MP-SERVER runtimes — built with
    /// [`RuntimeConfig::external_drive`] or converted by
    /// [`Runtime::drive_externally`]; every other configuration executes
    /// shards itself and returns `None`.
    ///
    /// The returned [`ShardDriver`] must be ticked for submissions routed
    /// to that shard to complete; see [`ShardDriver::tick`] and
    /// [`Session::submit_with`].
    pub fn take_driver(&self, shard: usize) -> Option<ShardDriver> {
        match &self.executors {
            Executors::MpExternal { drivers, .. } => drivers
                .lock()
                .expect("driver registry poisoned")
                .get_mut(shard)?
                .take()
                .map(|inner| ShardDriver::new(shard, inner)),
            _ => None,
        }
    }

    /// Opens a client session.
    ///
    /// At most [`RuntimeConfig::max_sessions`] sessions may be live at once.
    /// For the combining backends (`HybComb`, `CcSynch`) the bound is on
    /// sessions *ever created* — their per-thread executor slots are not
    /// recycled when a session drops.
    pub fn session(&self) -> Result<Session, RuntimeError> {
        use std::sync::atomic::Ordering;
        if self.control.is_closed() {
            return Err(RuntimeError::Closed);
        }
        let max = self.config.max_sessions;
        match self.config.backend {
            Backend::HybComb | Backend::CcSynch => {
                // Lifetime budget: executor handle slots are consumed forever.
                if self
                    .control
                    .sessions_created
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                        (n < max).then_some(n + 1)
                    })
                    .is_err()
                {
                    return Err(RuntimeError::SessionsExhausted);
                }
                self.control.sessions_live.fetch_add(1, Ordering::AcqRel);
            }
            Backend::MpServer | Backend::Lock | Backend::Adaptive => {
                // Concurrency budget: slots are returned on session drop.
                if self
                    .control
                    .sessions_live
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                        (n < max).then_some(n + 1)
                    })
                    .is_err()
                {
                    return Err(RuntimeError::SessionsExhausted);
                }
                self.control
                    .sessions_created
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        let transport = match &self.executors {
            Executors::Mp {
                fabric, server_ids, ..
            }
            | Executors::MpExternal {
                fabric, server_ids, ..
            } => Transport::Mp {
                endpoint: fabric
                    .register_any()
                    .expect("fabric sized for session budget"),
                servers: Arc::clone(server_ids),
            },
            Executors::Hyb { fabric, combs } => Transport::Inline {
                handles: combs
                    .iter()
                    .map(|c| {
                        let ep = fabric
                            .register_any()
                            .expect("fabric sized for session budget");
                        Box::new(c.handle(ep)) as Box<dyn ApplyOp + Send>
                    })
                    .collect(),
            },
            Executors::Cc { execs } => Transport::Inline {
                handles: execs
                    .iter()
                    .map(|e| Box::new(e.handle()) as Box<dyn ApplyOp + Send>)
                    .collect(),
            },
            Executors::Lock { execs } => Transport::Inline {
                handles: execs
                    .iter()
                    .map(|e| Box::new(e.handle()) as Box<dyn ApplyOp + Send>)
                    .collect(),
            },
            Executors::Adaptive {
                fabric,
                shards,
                server_ids,
                slots,
                ..
            } => {
                let lease = slots.acquire();
                Transport::Adaptive {
                    endpoint: fabric
                        .register_any()
                        .expect("fabric sized for session budget"),
                    servers: Arc::clone(server_ids),
                    handles: shards
                        .iter()
                        .map(|sh| {
                            Box::new(AdaptiveHandle::new(Arc::clone(sh), lease.slot))
                                as Box<dyn AdaptiveAccess>
                        })
                        .collect(),
                    _lease: lease,
                }
            }
        };
        Ok(Session {
            control: Arc::clone(&self.control),
            shards: self.config.shards,
            read_fast: self.config.read_fast,
            transport,
        })
    }

    /// Pins `shard` to the fixed backend's execution mode, switching live
    /// (quiesce → install → reopen) and excluding the shard from the
    /// controller's decisions. Returns `false` when this runtime is not
    /// adaptive or `backend` has no adaptive mode (`CcSynch`, `Adaptive`).
    pub fn force_backend(&self, shard: usize, backend: Backend) -> bool {
        if let (Executors::Adaptive { shards, .. }, Some(mode)) =
            (&self.executors, backend_mode(backend))
        {
            shards[shard].force(mode);
            true
        } else {
            false
        }
    }

    /// The fixed backend currently serving `shard`: the live mode for an
    /// adaptive runtime, the configured backend otherwise.
    pub fn shard_backend(&self, shard: usize) -> Backend {
        match &self.executors {
            Executors::Adaptive { shards, .. } => mode_backend(shards[shard].mode()),
            _ => self.config.backend,
        }
    }

    /// Completed backend switches on `shard` (always 0 for fixed backends).
    pub fn swap_epoch(&self, shard: usize) -> u64 {
        match &self.executors {
            Executors::Adaptive { shards, .. } => shards[shard].epoch(),
            _ => 0,
        }
    }

    /// Stops admitting new operations. Operations already admitted still
    /// complete; subsequent submissions fail with
    /// [`RuntimeError::Closed`].
    pub fn close(&self) {
        self.control.close();
    }

    /// Snapshot of the runtime's counters.
    pub fn stats(&self) -> RuntimeStats {
        let mut stats = RuntimeStats::from_control(&self.control);
        match &self.executors {
            Executors::Mp { .. } | Executors::MpExternal { .. } => {
                for s in &mut stats.shards {
                    if s.batches > 0 {
                        s.avg_batch = s.ops as f64 / s.batches as f64;
                    }
                }
            }
            Executors::Hyb { combs, .. } => {
                for (s, c) in stats.shards.iter_mut().zip(combs) {
                    let hs = c.stats();
                    s.batches = hs.rounds;
                    s.avg_batch = hs.combining_rate();
                    s.batch_hist = c.batch_hist();
                }
            }
            Executors::Cc { execs } => {
                for (s, e) in stats.shards.iter_mut().zip(execs) {
                    s.avg_batch = e.combining_rate();
                    s.batch_hist = e.batch_hist();
                    s.batches = s.batch_hist.count();
                }
            }
            Executors::Lock { .. } => {
                for s in &mut stats.shards {
                    s.batches = s.ops;
                    if s.ops > 0 {
                        s.avg_batch = 1.0;
                    }
                }
            }
            Executors::Adaptive { .. } => {
                // Every mode records batches into the control plane (lock
                // ops as batches of one), so the Mp arithmetic applies.
                for s in &mut stats.shards {
                    if s.batches > 0 {
                        s.avg_batch = s.ops as f64 / s.batches as f64;
                    }
                }
            }
        }
        stats.server_threads = match &self.executors {
            Executors::Mp { servers, .. } => servers.threads(),
            Executors::Adaptive { servers, .. } => servers.threads(),
            _ => 0,
        };
        stats
    }

    /// Serving-loop rounds that found nothing to do, so far.
    #[cfg(test)]
    pub(crate) fn idle_rounds(&self) -> u64 {
        match &self.executors {
            Executors::Mp { servers, .. } => servers.idle_rounds(),
            Executors::Adaptive { servers, .. } => servers.idle_rounds(),
            _ => 0,
        }
    }

    /// Gracefully shuts the runtime down and returns the final shard states.
    ///
    /// The sequence is: close admissions → drain every in-flight operation
    /// (each admitted operation is applied and answered exactly once) →
    /// wait for every [`Session`] to be dropped → stop the executors.
    ///
    /// Blocks until all sessions are dropped; call from a thread that does
    /// not itself hold one.
    pub fn shutdown(self) -> ShutdownReport<S> {
        self.control.close();
        self.control.drain_inflight();
        self.control.wait_sessions();
        let stats = self.stats();
        let states = match self.executors {
            Executors::Mp { mut servers, .. } => servers
                .stop()
                .into_iter()
                .map(ShardCore::into_state)
                .collect(),
            Executors::MpExternal { drivers, slots, .. } => {
                // Drop every driver still in the registry (never taken):
                // CoreDrive's Drop parks its state in the slot. Drivers
                // taken by an external loop park theirs when that loop
                // drops them — wait for each slot to fill.
                drop(drivers);
                slots
                    .into_iter()
                    .map(|slot| {
                        let mut spins = 0u32;
                        loop {
                            if let Some(state) = slot.lock().expect("state slot poisoned").take() {
                                return state;
                            }
                            crate::control::spin(&mut spins);
                        }
                    })
                    .collect()
            }
            Executors::Hyb { combs, .. } => combs.into_iter().map(HybComb::into_state).collect(),
            Executors::Cc { execs } => execs.into_iter().map(CcSynch::into_state).collect(),
            Executors::Lock { execs } => execs.into_iter().map(LockCs::into_state).collect(),
            Executors::Adaptive {
                shards,
                mut servers,
                controller,
                ..
            } => {
                // Stop the controller first: it holds shard Arcs and could
                // otherwise race a switch against teardown.
                if let Some(controller) = controller {
                    controller.stop();
                }
                let cores = servers.stop();
                drop(shards);
                cores
                    .into_iter()
                    .map(|core| {
                        Arc::try_unwrap(core.into_state())
                            .ok()
                            .expect("adaptive shard still shared after drain")
                            .into_state()
                    })
                    .collect()
            }
        };
        ShutdownReport { states, stats }
    }
}

/// Per-shard timer plumbing for expiring states (built by
/// [`Runtime::new_expiring`], threaded through [`Runtime::build`]).
struct TimerWiring<S> {
    /// Dispatch-path hook: sweeps due timers before a mutating op.
    hook: ExpiryHook<S>,
    /// Builds the shard-loop ticker for MP-backed shards (idle expiry).
    #[allow(clippy::type_complexity)]
    ticker: Box<dyn Fn(&Arc<Control>, usize) -> Ticker<S>>,
}

impl<S, F> Runtime<S, F>
where
    S: Send + Expire + 'static,
    F: KeyedDispatch<S>,
{
    /// Builds a runtime whose shard states carry timers ([`Expire`]).
    ///
    /// Expiry runs under each shard's mutual exclusion, on two paths:
    ///
    /// * **every backend** — before each potentially-mutating dispatch, the
    ///   executing thread (server, reactor, combiner, lock holder, or any
    ///   Adaptive mode's executor) sweeps timers that have come due;
    /// * **MP-SERVER shards** (threaded or externally driven) — a tick that
    ///   finds the shard's queue empty additionally runs the sweep when the
    ///   nearest deadline has come due, and the serving loop never blocks,
    ///   so TTLs fire on time even with no traffic on the shard (or with a
    ///   saturated sibling on its thread). Inline backends have no serving
    ///   thread, so an
    ///   idle shard's timers wait for the next operation — reads that must
    ///   not observe expired entries should check deadlines themselves
    ///   (the `mpsync-apps` session store does).
    pub fn new_expiring(config: RuntimeConfig, init: impl FnMut(usize) -> S, f: F) -> Self {
        let hook: ExpiryHook<S> = Arc::new(|s: &mut S| {
            if let Some(d) = s.next_deadline_ns() {
                let now = timer::mono_ns();
                if d <= now {
                    s.expire(now);
                }
            }
        });
        let ticker = Box::new(|control: &Arc<Control>, shard: usize| -> Ticker<S> {
            let control = Arc::clone(control);
            Box::new(move |s: &mut S| {
                let next = s.next_deadline_ns()?;
                let now = timer::mono_ns();
                if next > now {
                    return Some(next);
                }
                // Expiry mutates the state outside RtDispatch: invalidate
                // the read cache first, exactly like a mutating dispatch.
                if let Some(cache) = control.read_cache(shard) {
                    cache.begin_mutation();
                }
                s.expire(now);
                s.next_deadline_ns()
            })
        });
        Self::build(config, init, f, Some(TimerWiring { hook, ticker }))
    }
}

/// Flight-records each shard's executor choice: after a panic or a failed
/// smoke run the first question is "what was this runtime actually
/// running?", and the recorder works with telemetry off. Adaptive is not in
/// `Backend::ALL` (it is a policy over the fixed four); the recorder gives it
/// the next discriminant.
fn flight_backend(config: &RuntimeConfig) {
    let backend_disc = match config.backend {
        Backend::Adaptive => Backend::ALL.len() as u64,
        b => Backend::ALL.iter().position(|&x| x == b).unwrap_or(0) as u64,
    };
    for i in 0..config.shards {
        telemetry::flight(
            telemetry::FlightKind::Backend,
            i as u64,
            backend_disc,
            config.external_drive as u64,
        );
    }
}

/// Sizes the emulated fabric for `endpoints` registrations, with queues deep
/// enough that neither a shard's full admission window nor every session
/// sending at once can deadlock a hardware queue.
fn sized_fabric(config: &RuntimeConfig, endpoints: usize) -> Arc<Fabric> {
    let cores = endpoints.div_ceil(CHANNELS_PER_CORE).max(1);
    let words = wire::REQ_WORDS * (config.queue_depth + config.max_sessions) + wire::REQ_WORDS;
    Arc::new(Fabric::new(
        FabricConfig::new(cores).with_queue_capacity(words.max(QUEUE_CAPACITY_WORDS)),
    ))
}

/// What [`Runtime::shutdown`] returns.
pub struct ShutdownReport<S> {
    /// Final shard states, in shard order.
    pub states: Vec<S>,
    /// Counter snapshot taken after the drain, before executor teardown.
    pub stats: RuntimeStats,
}

/// How a session reaches the shard executors.
enum Transport {
    /// MP-SERVER backend: one private response endpoint, requests addressed
    /// to the per-shard server queues. One endpoint suffices for all shards
    /// because a session has requests outstanding on one shard at a time,
    /// and a shard server answers one sender in FIFO order — replies need
    /// no tag.
    Mp {
        endpoint: Endpoint,
        servers: Arc<[EndpointId]>,
    },
    /// Inline backends (HybComb / CcSynch / Lock): one executor handle per
    /// shard; the session's own thread runs or delegates the critical
    /// section through it.
    Inline {
        handles: Vec<Box<dyn ApplyOp + Send>>,
    },
    /// Adaptive backend: per-shard handles that apply inline in Lock/Comb
    /// modes and fall through to the wire (like Mp) when the shard's server
    /// owns execution.
    Adaptive {
        endpoint: Endpoint,
        servers: Arc<[EndpointId]>,
        handles: Vec<Box<dyn AdaptiveAccess>>,
        /// The session's combining-record slot, shared by all its handles;
        /// recycled when the session drops.
        _lease: SlotLease,
    },
}

/// A client connection to a [`Runtime`]. Sessions are `Send` — move each to
/// its own thread.
///
/// [`Session::submit`] runs one operation to completion.
/// [`Session::submit_batch`] is the split-phase form: it walks a list of
/// operations shard by shard, hands a shard its requests back to back, and
/// only then collects their replies, so the list costs one cross-thread
/// handoff per shard instead of one per operation. Either way every
/// operation is admitted and completed on its own, results are positional,
/// and a key's operations take effect in the order they were given.
pub struct Session {
    control: Arc<Control>,
    shards: usize,
    read_fast: OpMask,
    transport: Transport,
}

impl Session {
    /// The shard that owns `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_for(key, self.shards)
    }

    /// Executes `(op, arg)` against `key`'s shard and returns the result.
    ///
    /// Blocks or fails under backpressure according to the runtime's
    /// [`SubmitPolicy`](crate::SubmitPolicy); fails with
    /// [`RuntimeError::Closed`] once the runtime is shutting down.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds 56 bits or `op` exceeds 8 bits (see
    /// [`pack`]).
    pub fn submit(&mut self, key: u64, op: u64, arg: u64) -> Result<u64, RuntimeError> {
        let word = pack(key, op); // validate before claiming a slot
        let shard = shard_for(key, self.shards);
        let t0 = telemetry::now_ns();
        if let Some(ret) = self.try_fast_read(shard, word, op, t0) {
            return Ok(ret);
        }
        self.control.admit(shard)?;
        let ret = self.apply_on(shard, word, arg);
        self.control.complete(shard);
        if telemetry::ENABLED {
            // Submit = admission wait + transport + service + reply: the
            // client-observed latency of one runtime operation.
            telemetry::record_span(shard as u32, Algo::Runtime, Lane::Submit, t0);
            telemetry::count(Counter::RuntimeSubmits, 1);
        }
        Ok(ret)
    }

    /// [`Session::submit`] with an `idle` hook invoked on every wait
    /// iteration — both while blocked on admission and while waiting for
    /// the shard's response.
    ///
    /// This is the submission form an externally-driving event loop must
    /// use: a reactor that owns shard A's [`ShardDriver`] and submits an
    /// operation to shard B passes `|| { driver.tick(); }`, so requests
    /// *to* A keep being served while the reactor waits *on* B. Without
    /// the hook, two reactors waiting on each other's shards would
    /// deadlock; with it, every wait still executes the waiter's own
    /// shard, so some chain member always makes progress.
    pub fn submit_with(
        &mut self,
        key: u64,
        op: u64,
        arg: u64,
        mut idle: impl FnMut(),
    ) -> Result<u64, RuntimeError> {
        let word = pack(key, op);
        let shard = shard_for(key, self.shards);
        let t0 = telemetry::now_ns();
        if let Some(ret) = self.try_fast_read(shard, word, op, t0) {
            return Ok(ret);
        }
        self.control.admit_with(shard, &mut idle)?;
        let ret = match &mut self.transport {
            Transport::Mp { endpoint, servers } => {
                Self::wire_apply_with(endpoint, servers[shard], word, arg, &mut idle)
            }
            Transport::Inline { handles } => handles[shard].apply(word, arg),
            Transport::Adaptive {
                endpoint,
                servers,
                handles,
                ..
            } => match handles[shard].try_apply_local(word, arg) {
                Some(ret) => ret,
                None => Self::wire_apply_with(endpoint, servers[shard], word, arg, &mut idle),
            },
        };
        self.control.complete(shard);
        if telemetry::ENABLED {
            telemetry::record_span(shard as u32, Algo::Runtime, Lane::Submit, t0);
            telemetry::count(Counter::RuntimeSubmits, 1);
        }
        Ok(ret)
    }

    /// Executes `ops` — each a `(key, op, arg)` — and fills `out` with one
    /// result per op, in input order (`out` is cleared first).
    ///
    /// The ops run shard by shard (ascending shard, input order within a
    /// shard). On the MP-SERVER transport a shard's requests are sent back
    /// to back and their replies collected afterwards, so the shard server
    /// sees them as one batch; the inline backends apply them one by one.
    /// Every op is admitted and completed individually, exactly as by
    /// [`Session::submit`]: under the Fail policy any of them may come back
    /// [`RuntimeError::Busy`], after [`Runtime::close`] the rest come back
    /// [`RuntimeError::Closed`], and the ones that ran stay run. Per-key
    /// order is input order; ops on different shards are independent.
    ///
    /// # Panics
    ///
    /// Panics — before any op takes effect — if a key exceeds 56 bits or an
    /// opcode 8 bits (see [`pack`]).
    pub fn submit_batch(
        &mut self,
        ops: &[(u64, u64, u64)],
        out: &mut Vec<Result<u64, RuntimeError>>,
    ) {
        self.submit_batch_with(ops, out, || {})
    }

    /// [`Session::submit_batch`] with an `idle` hook invoked on every wait
    /// iteration — blocked on admission or waiting for replies — for the
    /// same reason [`Session::submit_with`] has one.
    pub fn submit_batch_with(
        &mut self,
        ops: &[(u64, u64, u64)],
        out: &mut Vec<Result<u64, RuntimeError>>,
        mut idle: impl FnMut(),
    ) {
        out.clear();
        for &(key, op, _) in ops {
            pack(key, op);
        }
        // Placeholder only: each op belongs to exactly one shard's pass,
        // which overwrites its slot.
        out.resize(ops.len(), Err(RuntimeError::Closed));
        let mut next = ops.iter().map(|o| shard_for(o.0, self.shards)).min();
        while let Some(shard) = next {
            next = self.batch_on(shard, ops, out, &mut idle);
        }
    }

    /// One shard's pass of a batch: runs every op of `ops` that `shard`
    /// owns, in input order, and returns the next higher shard any op
    /// routes to.
    ///
    /// **A session never waits while it holds uncollected replies.** Its
    /// sent requests occupy slots of the shard's window that only its own
    /// collect releases, so two sessions that each filled part of a window
    /// and then waited for the rest would wait forever — as would a backend
    /// swap (`pause` → `wait_quiesced`) against a session waiting for the
    /// `unpause`. Admission inside the pass is therefore the non-waiting
    /// [`Control::try_admit`]; when that would wait, the pass first collects
    /// what it has in flight and only then takes the waiting path.
    fn batch_on(
        &mut self,
        shard: usize,
        ops: &[(u64, u64, u64)],
        out: &mut [Result<u64, RuntimeError>],
        idle: &mut impl FnMut(),
    ) -> Option<usize> {
        // A shard server must never block on this session's reply queue:
        // at most as many requests in flight as it holds one-word replies.
        let room = match &self.transport {
            Transport::Mp { endpoint, .. } | Transport::Adaptive { endpoint, .. } => {
                endpoint.fabric().config().queue_capacity
            }
            Transport::Inline { .. } => usize::MAX,
        };
        let mut next_shard: Option<usize> = None;
        let mut flight = Flight::default();
        for (i, &(key, op, arg)) in ops.iter().enumerate() {
            let s = shard_for(key, self.shards);
            if s != shard {
                if s > shard && next_shard.is_none_or(|n| s < n) {
                    next_shard = Some(s);
                }
                continue;
            }
            let word = pack(key, op);
            let t0 = telemetry::now_ns();
            // The cache's own-writes-visible argument needs this session's
            // earlier writes on the shard *answered*: only with nothing in
            // flight may a masked read be tried from it.
            if flight.count == 0 {
                if let Some(ret) = self.try_fast_read(shard, word, op, t0) {
                    out[i] = Ok(ret);
                    continue;
                }
            }
            let admitted = match self.control.try_admit(shard) {
                Ok(()) => Ok(()),
                Err(NoSlot::Closed) => Err(RuntimeError::Closed),
                Err(NoSlot::Paused | NoSlot::Full) => {
                    self.collect(shard, ops, out, &mut flight, idle);
                    self.control.admit_with(shard, &mut *idle)
                }
            };
            if let Err(e) = admitted {
                out[i] = Err(e);
                continue;
            }
            match self.start_on(shard, word, arg) {
                Some(ret) => {
                    out[i] = Ok(ret);
                    self.control.complete(shard);
                    if telemetry::ENABLED {
                        telemetry::record_span(shard as u32, Algo::Runtime, Lane::Submit, t0);
                        telemetry::count(Counter::RuntimeSubmits, 1);
                    }
                }
                None => {
                    if flight.count == 0 {
                        flight.head = i;
                        flight.t0 = t0;
                    }
                    flight.count += 1;
                    if flight.count == room {
                        self.collect(shard, ops, out, &mut flight, idle);
                    }
                }
            }
        }
        self.collect(shard, ops, out, &mut flight, idle);
        next_shard
    }

    /// Starts `(word, arg)` on `shard` under an admitted slot: `Some` is the
    /// result of an inline execution, `None` means the request went to the
    /// shard's server and its reply is outstanding.
    fn start_on(&mut self, shard: usize, word: u64, arg: u64) -> Option<u64> {
        match &mut self.transport {
            Transport::Mp { endpoint, servers } => {
                send_request(endpoint, servers[shard], word, arg);
                None
            }
            Transport::Inline { handles } => Some(handles[shard].apply(word, arg)),
            Transport::Adaptive {
                endpoint,
                servers,
                handles,
                ..
            } => {
                let local = handles[shard].try_apply_local(word, arg);
                if local.is_none() {
                    send_request(endpoint, servers[shard], word, arg);
                }
                local
            }
        }
    }

    /// Receives the replies `flight` has outstanding on `shard` and
    /// completes their ops. The server answers one sender in FIFO order and
    /// nothing else of this session is in flight, so the replies belong, in
    /// order, to `shard`'s ops from `flight.head` on.
    fn collect(
        &mut self,
        shard: usize,
        ops: &[(u64, u64, u64)],
        out: &mut [Result<u64, RuntimeError>],
        flight: &mut Flight,
        idle: &mut impl FnMut(),
    ) {
        if flight.count == 0 {
            return;
        }
        let (Transport::Mp { endpoint, .. } | Transport::Adaptive { endpoint, .. }) =
            &mut self.transport
        else {
            unreachable!("inline transports leave nothing in flight");
        };
        let mut owners =
            (flight.head..ops.len()).filter(|&i| shard_for(ops[i].0, self.shards) == shard);
        let mut buf = [0u64; 16];
        let mut spins = 0u32;
        while flight.count > 0 {
            let want = flight.count.min(buf.len());
            let n = endpoint.try_receive(&mut buf[..want]);
            if n == 0 {
                idle();
                crate::control::spin_then_yield(&mut spins, crate::control::HANDOFF_SPINS);
                continue;
            }
            for &ret in &buf[..n] {
                let i = owners.next().expect("a reply for every request sent");
                out[i] = Ok(ret);
                self.control.complete(shard);
                if telemetry::ENABLED {
                    telemetry::record_span(shard as u32, Algo::Runtime, Lane::Submit, flight.t0);
                    telemetry::count(Counter::RuntimeSubmits, 1);
                }
            }
            flight.count -= n;
        }
    }

    /// Executes a multi-key fan-out: [`Session::submit_batch`] with the
    /// results unwrapped, in input order.
    ///
    /// Not transactional: operations on different shards execute
    /// independently, every operation is attempted, and on error (the first
    /// `Busy`/`Closed` in input order) the ones that executed stay
    /// executed.
    pub fn apply_fanout(&mut self, ops: &[(u64, u64, u64)]) -> Result<Vec<u64>, RuntimeError> {
        let mut out = Vec::with_capacity(ops.len());
        self.submit_batch(ops, &mut out);
        out.into_iter().collect()
    }

    fn apply_on(&mut self, shard: usize, word: u64, arg: u64) -> u64 {
        match &mut self.transport {
            Transport::Mp { endpoint, servers } => {
                send_request(endpoint, servers[shard], word, arg);
                endpoint.receive1()
            }
            Transport::Inline { handles } => handles[shard].apply(word, arg),
            Transport::Adaptive {
                endpoint,
                servers,
                handles,
                ..
            } => match handles[shard].try_apply_local(word, arg) {
                Some(ret) => ret,
                None => {
                    send_request(endpoint, servers[shard], word, arg);
                    endpoint.receive1()
                }
            },
        }
    }

    /// Wire round-trip with an idle hook on the receive wait.
    fn wire_apply_with(
        endpoint: &mut Endpoint,
        server: EndpointId,
        word: u64,
        arg: u64,
        idle: &mut impl FnMut(),
    ) -> u64 {
        send_request(endpoint, server, word, arg);
        // Responses are a single word, so a successful try_receive is
        // always complete.
        let mut buf = [0u64; 1];
        let mut spins = 0u32;
        loop {
            if endpoint.try_receive(&mut buf) == 1 {
                break buf[0];
            }
            idle();
            crate::control::spin(&mut spins);
        }
    }

    /// The read-side fast path: answers a masked read from the shard's
    /// versioned snapshot without claiming a slot or entering the executor.
    /// `None` = take the normal path (and count the fallback when the op
    /// was eligible).
    #[inline]
    fn try_fast_read(&self, shard: usize, word: u64, op: u64, t0: u64) -> Option<u64> {
        if !self.read_fast.contains(op) || self.control.is_closed() {
            return None;
        }
        let cache = self.control.read_cache(shard)?;
        match cache.try_read(word) {
            Some(ret) => {
                if telemetry::ENABLED {
                    telemetry::record_span(shard as u32, Algo::Runtime, Lane::Submit, t0);
                    telemetry::count(Counter::RuntimeSubmits, 1);
                    telemetry::count(Counter::RuntimeFastReads, 1);
                }
                Some(ret)
            }
            None => {
                telemetry::count(Counter::RuntimeFastFallbacks, 1);
                None
            }
        }
    }
}

/// A batch's sent-but-uncollected requests on the shard being walked: the
/// next `count` of that shard's ops from input index `head` on.
#[derive(Default)]
struct Flight {
    head: usize,
    count: usize,
    /// When the oldest of them was started (the Submit span's origin).
    t0: u64,
}

/// Sends one request to a shard server, addressed for a one-word reply.
#[inline]
fn send_request(endpoint: &Endpoint, server: EndpointId, word: u64, arg: u64) {
    endpoint
        .send(server, &wire::request(endpoint.id().to_word(), word, arg))
        .expect("shard server vanished");
}

impl Drop for Session {
    fn drop(&mut self) {
        self.control
            .sessions_live
            .fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
    }
}
