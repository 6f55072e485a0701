//! The sharded delegation runtime: N key-partitioned shards, each protected
//! by one critical-section executor, multiplexing many client sessions.

use std::sync::{Arc, Mutex};

use mpsync_core::{wire, ApplyOp, Dispatcher, FlatCombining, LockCs, McsLock, SlotLease, SlotPool};
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Counter, Lane};
use mpsync_udn::{
    Endpoint, EndpointId, Fabric, FabricConfig, CHANNELS_PER_CORE, QUEUE_CAPACITY_WORDS,
};

use crate::adaptive::{
    spawn_controller, AdaptiveAccess, AdaptiveHandle, AdaptiveShard, Controller, MpModeDispatch,
};
use crate::config::{Backend, OpMask, RuntimeConfig};
use crate::control::{spin_then_yield, Control, NoSlot, HANDOFF_SPINS};
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
    /// work identically on the inline backends (Lock/Comb) and in every
    /// Adaptive mode: whoever executes the critical section also
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
    /// drop. See [`Runtime::drive_externally`].
    MpExternal {
        fabric: Arc<Fabric>,
        drivers: Mutex<Vec<Option<Box<dyn DriveShard>>>>,
        slots: Vec<Arc<Mutex<Option<S>>>>,
        server_ids: Arc<[EndpointId]>,
    },
    /// Every session leases one record slot, the same index on every shard.
    /// `max_sessions` slots always suffice: a dropping session returns its
    /// lease before its budget place (`Session::drop`).
    Comb {
        combs: Vec<Arc<FlatCombining<S, RtDispatch<S, F>>>>,
        slots: Arc<SlotPool>,
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
        controller: Controller,
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
        flight_backend(&config, false);
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
                        );
                        if let Some(t) = ticker(i) {
                            core.set_ticker(t);
                        }
                        core
                    })
                    .collect();
                Executors::Mp {
                    fabric,
                    servers: ShardServers::spawn(cores, serving_threads(config.shards), |_| true),
                    server_ids: server_ids.into(),
                }
            }
            Backend::Comb => Executors::Comb {
                combs: (0..config.shards)
                    .map(|i| {
                        let (slots, batch) = (config.max_sessions, config.max_batch);
                        Arc::new(FlatCombining::new(slots, batch, init(i), dispatch(i)))
                    })
                    .collect(),
                slots: SlotPool::new(config.max_sessions),
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
                    |sh: &Arc<AdaptiveShard<S, F>>| sh.mode() == Backend::MpServer,
                );
                let controller = spawn_controller(shards.clone(), Arc::clone(&control));
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

    /// The configuration this runtime was built with. A later
    /// [`Runtime::drive_externally`] changes who serves the shards, not the
    /// configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The shard that owns `key` under this runtime's striping.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_for(key, self.config.shards)
    }

    /// Turns a threaded MP-SERVER runtime into an externally driven one:
    /// stops and joins its `rt-serve-*` threads and parks their shard cores
    /// as untaken drivers. This is the only way a runtime becomes externally
    /// driven. From here on [`Runtime::take_driver`] hands each shard out
    /// once and nothing is served until its driver is ticked.
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
        flight_backend(&self.config, true);
    }

    /// Takes ownership of `shard`'s externally-driven executor.
    ///
    /// Returns `Some` exactly once per shard, and only for an MP-SERVER
    /// runtime converted by [`Runtime::drive_externally`]; every other
    /// runtime executes its shards itself and returns `None`.
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
    /// At most [`RuntimeConfig::max_sessions`] sessions may be live at once;
    /// a dropped session's place is free again.
    pub fn session(&self) -> Result<Session, RuntimeError> {
        use std::sync::atomic::Ordering;
        if self.control.is_closed() {
            return Err(RuntimeError::Closed);
        }
        let max = self.config.max_sessions;
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
            Executors::Comb { combs, slots } => {
                let lease = Arc::new(slots.acquire());
                Transport::Inline {
                    handles: combs
                        .iter()
                        .enumerate()
                        .map(|(shard, comb)| {
                            Box::new(CombHandle {
                                comb: Arc::clone(comb),
                                lease: Arc::clone(&lease),
                                control: Arc::clone(&self.control),
                                shard,
                            }) as Box<dyn ApplyOp + Send>
                        })
                        .collect(),
                }
            }
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
                            Box::new(AdaptiveHandle::new(Arc::clone(sh), lease.slot()))
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
    /// adaptive or `backend` is [`Backend::Adaptive`] itself.
    pub fn force_backend(&self, shard: usize, backend: Backend) -> bool {
        match &self.executors {
            Executors::Adaptive { shards, .. } if backend != Backend::Adaptive => {
                shards[shard].force(backend);
                true
            }
            _ => false,
        }
    }

    /// The fixed backend currently serving `shard`: the live mode for an
    /// adaptive runtime, the configured backend otherwise.
    pub fn shard_backend(&self, shard: usize) -> Backend {
        match &self.executors {
            Executors::Adaptive { shards, .. } => shards[shard].mode(),
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
        // A lock op is a batch of one. Every other executor records its
        // batches into the control plane (Adaptive's lock mode included).
        let lock = matches!(self.executors, Executors::Lock { .. });
        for s in &mut stats.shards {
            if lock {
                s.batches = s.ops;
            }
            if s.batches > 0 {
                s.avg_batch = s.ops as f64 / s.batches as f64;
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
            Executors::Comb { combs, .. } => combs
                .into_iter()
                .map(|c| {
                    Arc::try_unwrap(c)
                        .ok()
                        .expect("combiner still shared after drain")
                        .into_state()
                })
                .collect(),
            Executors::Lock { execs } => execs.into_iter().map(LockCs::into_state).collect(),
            Executors::Adaptive {
                shards,
                mut servers,
                controller,
                ..
            } => {
                // Stop the controller first: it holds shard Arcs and could
                // otherwise race a switch against teardown.
                controller.stop();
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

/// Flight-records each shard's executor choice (its [`Backend`]
/// discriminant) and whether an external owner drives it (0 at
/// construction, 1 after [`Runtime::drive_externally`]): after a panic or a
/// failed smoke run the first question is "what was this runtime actually
/// running?", and the recorder works with telemetry off.
fn flight_backend(config: &RuntimeConfig, external: bool) {
    for i in 0..config.shards {
        telemetry::flight(
            telemetry::FlightKind::Backend,
            i as u64,
            config.backend as u64,
            external as u64,
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
    /// Inline backends (Comb / Lock): one executor handle per shard; the
    /// session's own thread runs the critical section, or has a combiner
    /// run it, through it.
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

/// A session's face of one [`Backend::Comb`] shard: the session's record
/// slot, shared by its handles on every shard, and where the shard's
/// combining rounds are counted.
struct CombHandle<S, D> {
    comb: Arc<FlatCombining<S, D>>,
    lease: Arc<SlotLease>,
    control: Arc<Control>,
    shard: usize,
}

impl<S, D> ApplyOp for CombHandle<S, D>
where
    S: Send + 'static,
    D: Dispatcher<S>,
{
    fn apply(&mut self, word: u64, arg: u64) -> u64 {
        let record = |n| self.control.record_batch(self.shard, n);
        self.comb.apply(self.lease.slot(), word, arg, record)
    }
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
        self.submit_one((key, op, arg), &mut || {}, SUBMIT_SPINS)
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
        self.submit_one((key, op, arg), &mut idle, HANDOFF_SPINS)
    }

    /// A one-op pass: its only wait for the reply is the pass's collect,
    /// which spins `spins` pauses before it yields.
    fn submit_one(
        &mut self,
        op: (u64, u64, u64),
        idle: &mut impl FnMut(),
        spins: u32,
    ) -> Result<u64, RuntimeError> {
        let mut out = [Err(RuntimeError::Closed)];
        let shard = shard_for(op.0, self.shards);
        self.batch_on(shard, &[op], &mut out, idle, spins);
        out[0]
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
            next = self.batch_on(shard, ops, out, &mut idle, HANDOFF_SPINS);
        }
    }

    /// One shard's pass of a batch: runs every op of `ops` that `shard`
    /// owns, in input order, and returns the next higher shard any op
    /// routes to. Its reply waits spin `spins` pauses before they yield.
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
        spins: u32,
    ) -> Option<usize> {
        let Session {
            control,
            shards,
            read_fast,
            transport,
        } = self;
        let control: &Control = control;
        // A shard server must never block on this session's reply queue:
        // at most as many requests in flight as it holds one-word replies.
        let room = match transport {
            Transport::Mp { endpoint, .. } | Transport::Adaptive { endpoint, .. } => {
                endpoint.fabric().config().queue_capacity
            }
            Transport::Inline { .. } => usize::MAX,
        };
        let mut next_shard: Option<usize> = None;
        let mut flight = Flight {
            control,
            shard,
            shards: *shards,
            spins,
            head: 0,
            count: 0,
            t0: 0,
        };
        for (i, &(key, op, arg)) in ops.iter().enumerate() {
            let s = shard_for(key, *shards);
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
                if let Some(ret) = fast_read(control, *read_fast, shard, word, op, t0) {
                    out[i] = Ok(ret);
                    continue;
                }
            }
            if !matches!(transport, Transport::Inline { .. }) && control.poisoned(shard).is_some() {
                // The shard's server reads no more requests: settle what is
                // in flight (the collect panics if a reply is missing), then
                // refuse before admitting, so no slot is left held.
                flight.collect(transport, ops, out, idle);
                control.check_poison(shard);
            }
            let admitted = match control.try_admit(shard) {
                Ok(()) => Ok(()),
                Err(NoSlot::Closed) => Err(RuntimeError::Closed),
                Err(NoSlot::Paused | NoSlot::Full) => {
                    flight.collect(transport, ops, out, idle);
                    control.admit_with(shard, &mut *idle)
                }
            };
            if let Err(e) = admitted {
                out[i] = Err(e);
                continue;
            }
            // The slot is released on unwind too: a backend switch waits for
            // every held slot.
            let slot = Slot(control, shard);
            match Self::start_on(transport, shard, word, arg) {
                Some(ret) => {
                    out[i] = Ok(ret);
                    drop(slot);
                    if telemetry::ENABLED {
                        telemetry::record_span(shard as u32, Algo::Runtime, Lane::Submit, t0);
                        telemetry::count(Counter::RuntimeSubmits, 1);
                    }
                }
                None => {
                    // The flight holds it now: completed by the collect that
                    // takes its reply, or by the flight's unwind.
                    std::mem::forget(slot);
                    if flight.count == 0 {
                        flight.head = i;
                        flight.t0 = t0;
                    }
                    flight.count += 1;
                    if flight.count == room {
                        flight.collect(transport, ops, out, idle);
                    }
                }
            }
        }
        flight.collect(transport, ops, out, idle);
        next_shard
    }

    /// Starts `(word, arg)` on `shard` under an admitted slot: `Some` is the
    /// result of an inline execution, `None` means the request went to the
    /// shard's server and its reply is outstanding.
    fn start_on(transport: &mut Transport, shard: usize, word: u64, arg: u64) -> Option<u64> {
        match transport {
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
}

/// The read-side fast path: answers a masked read from the shard's
/// versioned snapshot without claiming a slot or entering the executor.
/// `None` = take the normal path (and count the fallback when the op was
/// eligible).
#[inline]
fn fast_read(
    control: &Control,
    read_fast: OpMask,
    shard: usize,
    word: u64,
    op: u64,
    t0: u64,
) -> Option<u64> {
    if !read_fast.contains(op) || control.is_closed() {
        return None;
    }
    let cache = control.read_cache(shard)?;
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

/// Pauses [`Session::submit`]'s reply wait spins before it yields. No one
/// budget served every caller (EXPERIMENTS.md, "The session's reply
/// wait"): a lone submit whose server has a CPU of its own gets its reply
/// within about 64 pauses, and yielding sooner put the benchmark's
/// `apps-mixed` p50 at 2.6 times the parent's; a batch pass whose server
/// shares the caller's CPU delays that server with every pause, and 64
/// put `wire-closed`'s p50 at 1.6 times the parent's.
const SUBMIT_SPINS: u32 = 64;

/// A pass's sent-but-uncollected requests on the shard being walked: the
/// next `count` of that shard's ops from input index `head` on. Each holds
/// an admitted slot, which its reply completes, or, if the pass unwinds
/// first, the flight's drop.
struct Flight<'a> {
    control: &'a Control,
    shard: usize,
    /// The runtime's shard count, to tell the shard's ops from the rest.
    shards: usize,
    /// Pauses a reply wait spins before it yields.
    spins: u32,
    head: usize,
    count: usize,
    /// When the oldest of them was started (the Submit span's origin).
    t0: u64,
}

impl Flight<'_> {
    /// Receives the replies outstanding on the shard and completes their
    /// ops: the session's one wait for a reply. The server answers one
    /// sender in FIFO order and nothing else of this session is in flight,
    /// so the replies belong, in order, to the shard's ops from `head` on.
    fn collect(
        &mut self,
        transport: &mut Transport,
        ops: &[(u64, u64, u64)],
        out: &mut [Result<u64, RuntimeError>],
        idle: &mut impl FnMut(),
    ) {
        if self.count == 0 {
            return;
        }
        let (Transport::Mp { endpoint, .. } | Transport::Adaptive { endpoint, .. }) = transport
        else {
            unreachable!("inline transports leave nothing in flight");
        };
        let (control, shard) = (self.control, self.shard);
        let mut owners =
            (self.head..ops.len()).filter(|&i| shard_for(ops[i].0, self.shards) == shard);
        let mut buf = [0u64; 16];
        let mut spins = 0u32;
        while self.count > 0 {
            let want = self.count.min(buf.len());
            let n = endpoint.try_receive(&mut buf[..want]);
            if n == 0 {
                if orphaned(control, shard, endpoint) {
                    // No reply is coming for the rest: the unwind hands
                    // their slots back.
                    control.check_poison(shard);
                }
                idle();
                spin_then_yield(&mut spins, self.spins);
                continue;
            }
            for &ret in &buf[..n] {
                let i = owners.next().expect("a reply for every request sent");
                out[i] = Ok(ret);
                control.complete(shard);
                if telemetry::ENABLED {
                    telemetry::record_span(shard as u32, Algo::Runtime, Lane::Submit, self.t0);
                    telemetry::count(Counter::RuntimeSubmits, 1);
                }
            }
            self.count -= n;
        }
    }
}

impl Drop for Flight<'_> {
    /// Only a pass that unwinds leaves requests in flight — a dispatch
    /// panic poisoned the shard, or the idle hook panicked. Their slots go
    /// back as a [`Slot`]'s does, so neither a backend swap's quiesce nor
    /// shutdown's drain waits for replies nobody will collect.
    fn drop(&mut self) {
        for _ in 0..self.count {
            self.control.complete(self.shard);
        }
    }
}

/// An admitted slot of a shard's window, completed when dropped.
struct Slot<'a>(&'a Control, usize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.complete(self.1);
    }
}

/// Whether a reply wait on `shard` whose poll found `endpoint`'s queue empty
/// waits for nothing: the shard is poisoned, and no reply its server sent
/// before is still queued (a reply is published before the poison, so a
/// queue empty after the poison is seen stays empty).
#[inline]
fn orphaned(control: &Control, shard: usize, endpoint: &Endpoint) -> bool {
    control.poisoned(shard).is_some() && endpoint.is_queue_empty()
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
        // Release the transport (endpoint, executor handles, record slot)
        // before handing the session's place back: a session opened the
        // moment this one is counted out finds them free, and shutdown's
        // wait for zero sessions also waits for them.
        self.transport = Transport::Inline {
            handles: Vec::new(),
        };
        self.control
            .sessions_live
            .fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::*;
    use crate::config::SubmitPolicy;

    fn fetch_add(s: &mut u64, _op: u64, arg: u64) -> u64 {
        let old = *s;
        *s = s.wrapping_add(arg);
        old
    }

    #[test]
    fn combiner_applies_and_records_batches() {
        let control = Arc::new(Control::new(1, 8, SubmitPolicy::Block));
        let comb = Arc::new(FlatCombining::new(
            2,
            64,
            5u64,
            fetch_add as fn(&mut u64, u64, u64) -> u64,
        ));
        let slots = SlotPool::new(2);
        let mut handles: Vec<_> = (0..2)
            .map(|_| CombHandle {
                comb: Arc::clone(&comb),
                lease: Arc::new(slots.acquire()),
                control: Arc::clone(&control),
                shard: 0,
            })
            .collect();
        assert_eq!(handles[0].apply(0, 1), 5);
        assert_eq!(handles[1].apply(0, 2), 6);
        assert_eq!(control.shards[0].server.batches.load(Ordering::Relaxed), 2);
        drop(handles);
        let comb = Arc::try_unwrap(comb).ok().expect("handles dropped");
        assert_eq!(comb.into_state(), 8);
    }

    /// A session's handle on an adaptive shard that, on its `nth` call,
    /// first runs `before`.
    struct Gated<B> {
        inner: Box<dyn AdaptiveAccess>,
        calls: u32,
        nth: u32,
        before: B,
    }

    impl<B: FnMut() + Send> AdaptiveAccess for Gated<B> {
        fn try_apply_local(&mut self, word: u64, arg: u64) -> Option<u64> {
            self.calls += 1;
            if self.calls == self.nth {
                (self.before)();
            }
            self.inner.try_apply_local(word, arg)
        }
    }

    /// A batch pass that has sent a request to an adaptive shard's server
    /// and then unwinds hands that request's slot back. The window: the
    /// server's dispatch panics after the pass checked the shard for poison
    /// and before the pass starts its next op, whose handle then panics on
    /// the shard's poison flag. A gated handle opens it deterministically:
    /// the dispatch waits for `go`, and the handle's second call raises
    /// `go` and waits for the serving thread to record the poison.
    #[test]
    fn a_pass_unwinding_with_requests_in_flight_returns_their_slots() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;
        const BOOM: u64 = 1;
        let go = Arc::new(AtomicBool::new(false));
        let body = {
            let go = Arc::clone(&go);
            move |s: &mut u64, _key: u64, op: u64, arg: u64| {
                if op == BOOM {
                    while !go.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    panic!("dispatch exploded");
                }
                fetch_add(s, op, arg)
            }
        };
        let rt = Runtime::new(
            RuntimeConfig::new(1).with_backend(Backend::Adaptive),
            |_| 0u64,
            body,
        );
        assert!(rt.force_backend(0, Backend::MpServer));
        let mut session = rt.session().unwrap();
        let Transport::Adaptive { handles, .. } = &mut session.transport else {
            unreachable!("an adaptive runtime's session");
        };
        let control = Arc::clone(&rt.control);
        let gated = Gated {
            inner: handles.remove(0),
            calls: 0,
            nth: 2,
            before: move || {
                go.store(true, Ordering::Release);
                while control.poisoned(0).is_none() {
                    std::thread::yield_now();
                }
            },
        };
        handles.insert(0, Box::new(gated));
        let mut out = Vec::new();
        let err = catch_unwind(AssertUnwindSafe(|| {
            session.submit_batch(&[(0, BOOM, 0), (0, 0, 1)], &mut out)
        }))
        .expect_err("the second op finds the shard poisoned");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("LOCK poisoned"), "{msg}");
        assert_eq!(
            rt.control.shards[0].client.inflight.load(Ordering::SeqCst),
            0,
            "the unanswered request's slot stays held"
        );
    }
}
