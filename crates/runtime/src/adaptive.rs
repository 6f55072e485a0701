//! The adaptive per-shard executor: live backend switching under load.
//!
//! The paper's conclusion is that no single synchronization construction
//! wins everywhere — a plain lock is fastest uncontended, combining wins at
//! moderate contention, and a dedicated message-passing server wins when a
//! shard is hammered. The fixed [`Backend`](crate::Backend)s let a
//! deployment pick once; this module closes the loop at runtime instead.
//!
//! Each shard owns one [`AdaptiveShard`]: a single `CsState` that can be
//! served by any of three *modes* —
//!
//! * **Lock** — the submitting thread takes a per-shard MCS lock and runs
//!   the critical section inline;
//! * **Comb** — flat combining over per-session publication records: the
//!   submitting thread publishes its request and either waits for the
//!   current combiner or takes combiner duty itself (the combining-family
//!   representative; HYBCOMB's handles consume fabric endpoints for the
//!   session's lifetime and therefore cannot be recycled across live
//!   switches, so the adaptive layer runs its own combiner with the same
//!   role);
//! * **Mp** — requests go over the `udn` fabric to the shard's standing
//!   [`ShardCore`](crate::shard::ShardCore), served by the runtime's
//!   [`ShardServers`](crate::shard::ShardServers) threads exactly like the
//!   fixed MP-SERVER backend (batching included). The core always exists;
//!   in the other two modes it simply receives nothing, and a thread none
//!   of whose cores is in this mode sleeps.
//!
//! # The swap protocol
//!
//! Switching modes reuses the control plane's exactly-once drain machinery:
//! the switcher takes the shard's swap mutex, **pauses** admissions (new
//! submissions block — even under the Fail policy — rather than erroring),
//! waits for the in-flight window to quiesce, installs the new mode, bumps
//! the shard's swap epoch, flight-records a
//! [`BackendSwitch`](mpsync_telemetry::FlightKind::BackendSwitch) event, and
//! reopens. Mutual exclusion across modes follows: the state is only ever
//! touched between `admit` and `complete`, every slot holder observed the
//! mode *after* admitting, and the mode only changes while zero slots are
//! held — so two threads in different modes can never access the state
//! concurrently, and within a mode the mode's own protocol (MCS lock, the
//! combiner TAS, the single server thread) provides exclusion.
//!
//! The happens-before chain for the handed-off state mirrors shutdown's:
//! the last operation's mutations → its `complete` (AcqRel `fetch_sub`) →
//! the switcher's quiesce load observing zero → the mode store and unpause
//! → the next session's admit → its access in the new mode.
//!
//! # The controller
//!
//! When [`adaptive_auto`](crate::RuntimeConfig::adaptive_auto) is set, a
//! controller thread samples each shard over a sliding window: in-flight
//! occupancy (EWMA over subsamples of the admission window), the achieved
//! batch size from the shard's batch accounting (the same numbers the batch
//! histogram records), and — when the `telemetry` feature is on — the
//! runtime-wide submit-latency histogram. Occupancy picks the target regime
//! (low → Lock, high → Mp, middle → Comb), the achieved combining degree
//! refines the middle band, and a sharp submit-latency regression vetoes
//! downswitching. A switch only happens after
//! [`adaptive_confirm`](crate::RuntimeConfig::adaptive_confirm) consecutive
//! agreeing samples, and a dwell period after each switch prevents flapping.
//!
//! The occupancy signal predicts which regime *should* win; a second,
//! outcome-level loop checks whether it actually did. Every switch arms a
//! verification window (the dwell): if the shard's completion-rate EWMA
//! ends the window below [`REVERT_FRACTION`] of the pre-switch rate under
//! sustained traffic, the controller reverts to the mode it left and vetoes
//! the failed target for a cooldown. This is what keeps ADAPTIVE honest on
//! hosts where the heuristic's assumptions break — e.g. a single-core or
//! heavily oversubscribed machine, where delegation has no parallelism to
//! exploit and a plain lock beats both combining and the server at every
//! occupancy the thresholds would call "contended".

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam_utils::CachePadded;
use mpsync_core::{CsLock, CsState, Dispatcher, McsLock};
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Counter, FlightKind, Lane};

use crate::config::{Backend, RuntimeConfig};
use crate::control::{spin, Control};
use crate::runtime::{KeyedDispatch, RtDispatch};

/// Mode discriminants (also the payload encoding of `BackendSwitch` flight
/// events: `b = from << 8 | to`).
pub(crate) const MODE_LOCK: u8 = 0;
pub(crate) const MODE_COMB: u8 = 1;
pub(crate) const MODE_MP: u8 = 2;

/// The fixed backend a mode corresponds to (for reporting).
pub(crate) fn mode_backend(mode: u8) -> Backend {
    match mode {
        MODE_LOCK => Backend::Lock,
        MODE_COMB => Backend::HybComb,
        _ => Backend::MpServer,
    }
}

/// The mode a fixed backend maps to, if the adaptive executor can run it.
/// `CcSynch` (a second combining construction) and `Adaptive` itself have
/// no mode.
pub(crate) fn backend_mode(backend: Backend) -> Option<u8> {
    match backend {
        Backend::Lock => Some(MODE_LOCK),
        Backend::HybComb => Some(MODE_COMB),
        Backend::MpServer => Some(MODE_MP),
        Backend::CcSynch | Backend::Adaptive => None,
    }
}

const REC_EMPTY: u64 = 0;
const REC_PENDING: u64 = 1;
const REC_DONE: u64 = 2;

/// One session's combining publication record (Comb mode).
#[derive(Default)]
struct Record {
    /// EMPTY → PENDING (publish) → DONE (served) → EMPTY (collected).
    state: AtomicU64,
    word: AtomicU64,
    arg: AtomicU64,
    ret: AtomicU64,
}

/// One shard's adaptive executor. Shared by the shard's serving thread,
/// every session, and the controller.
pub(crate) struct AdaptiveShard<S, F> {
    mode: AtomicU8,
    /// Completed switches; monotone. Lets tests and the admin plane pin a
    /// result to the mode that produced it.
    epoch: AtomicU64,
    /// Serializes switches (controller vs. `force_backend` callers).
    swap: Mutex<()>,
    /// Set by `force_backend`: the controller leaves this shard alone.
    pinned: AtomicBool,
    state: CsState<S>,
    dispatch: RtDispatch<S, F>,
    mcs: McsLock,
    comb_lock: CachePadded<AtomicBool>,
    records: Box<[CachePadded<Record>]>,
    control: Arc<Control>,
    shard: usize,
    max_batch: u64,
}

impl<S, F> AdaptiveShard<S, F>
where
    S: Send + 'static,
    F: KeyedDispatch<S>,
{
    pub fn new(
        state: S,
        dispatch: RtDispatch<S, F>,
        control: Arc<Control>,
        shard: usize,
        config: &RuntimeConfig,
    ) -> Self {
        Self {
            mode: AtomicU8::new(MODE_LOCK),
            epoch: AtomicU64::new(0),
            swap: Mutex::new(()),
            pinned: AtomicBool::new(false),
            state: CsState::new(state),
            dispatch,
            mcs: McsLock::default(),
            comb_lock: CachePadded::new(AtomicBool::new(false)),
            records: (0..config.max_sessions)
                .map(|_| CachePadded::default())
                .collect(),
            control,
            shard,
            max_batch: config.max_batch,
        }
    }

    /// The shard's current mode (Acquire: pairs with the switcher's store).
    pub fn mode(&self) -> u8 {
        self.mode.load(Ordering::Acquire)
    }

    /// Completed switches so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Runs one dispatch against the shard state.
    ///
    /// # Safety
    ///
    /// The caller must be the shard's unique executing thread for the call's
    /// duration: the MCS lock holder (Lock), the combiner (Comb), or the
    /// server thread (Mp). Cross-mode exclusion is the swap protocol's
    /// quiesce (see the module docs).
    pub unsafe fn exec(&self, word: u64, arg: u64) -> u64 {
        // SAFETY: forwarded from the caller's contract.
        unsafe {
            self.state
                .with_mut(|s| self.dispatch.dispatch(s, word, arg))
        }
    }

    /// Lock-mode application: MCS critical section on the caller's thread.
    /// Caller must hold an admitted slot (so the mode is stable).
    pub fn lock_apply(&self, node: &mut <McsLock as CsLock>::Ctx, word: u64, arg: u64) -> u64 {
        self.mcs.lock(node);
        // SAFETY: the MCS lock is held, and the swap quiesce guarantees no
        // thread is executing in another mode (caller holds a slot admitted
        // under mode == Lock).
        let ret = unsafe { self.exec(word, arg) };
        self.mcs.unlock(node);
        // Keep the shard's batch accounting meaningful across modes: a lock
        // op is a batch of one.
        self.control.record_batch(self.shard, 1);
        ret
    }

    /// Comb-mode application: publish on the session's record, then wait
    /// for a combiner or become one. Caller must hold an admitted slot.
    pub fn comb_apply(&self, slot: usize, word: u64, arg: u64) -> u64 {
        let rec = &self.records[slot];
        rec.word.store(word, Ordering::Relaxed);
        rec.arg.store(arg, Ordering::Relaxed);
        // Release: the combiner's Acquire load of PENDING sees word/arg.
        rec.state.store(REC_PENDING, Ordering::Release);
        let mut spins = 0u32;
        loop {
            // Acquire: pairs with the combiner's Release store of DONE so
            // `ret` is visible.
            if rec.state.load(Ordering::Acquire) == REC_DONE {
                rec.state.store(REC_EMPTY, Ordering::Relaxed);
                return rec.ret.load(Ordering::Relaxed);
            }
            if !self.comb_lock.swap(true, Ordering::Acquire) {
                self.combine();
                self.comb_lock.store(false, Ordering::Release);
                continue; // our record was served by us or a predecessor
            }
            spin(&mut spins);
        }
    }

    /// Serves every pending record (two scan passes, bounded by
    /// `max_batch`). Caller holds `comb_lock`.
    fn combine(&self) {
        let mut served = 0u64;
        'passes: for _ in 0..2 {
            for rec in self.records.iter() {
                if served >= self.max_batch {
                    break 'passes;
                }
                if rec.state.load(Ordering::Acquire) == REC_PENDING {
                    let word = rec.word.load(Ordering::Relaxed);
                    let arg = rec.arg.load(Ordering::Relaxed);
                    // SAFETY: unique combiner (comb_lock TAS); cross-mode
                    // exclusion per the swap protocol (every publisher and
                    // this combiner hold admitted slots under mode ==
                    // Comb).
                    let ret = unsafe { self.exec(word, arg) };
                    rec.ret.store(ret, Ordering::Relaxed);
                    rec.state.store(REC_DONE, Ordering::Release);
                    served += 1;
                }
            }
        }
        if served > 0 {
            self.control.record_batch(self.shard, served);
        }
    }

    /// Switches the shard to `to`, quiescing first. Idempotent; serialized
    /// against concurrent switches by the swap mutex.
    pub fn switch(&self, to: u8) {
        let _guard = self.swap.lock().expect("swap mutex poisoned");
        let from = self.mode.load(Ordering::Relaxed);
        if from == to {
            return;
        }
        self.control.pause(self.shard);
        self.control.wait_quiesced(self.shard);
        // Quiesced: zero slots held, admissions blocked. The mode store is
        // ordered before unpause; every future slot holder reads the mode
        // after admitting, hence after unpause's SeqCst store.
        self.mode.store(to, Ordering::SeqCst);
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        telemetry::flight(
            FlightKind::BackendSwitch,
            self.shard as u64,
            ((from as u64) << 8) | to as u64,
            epoch,
        );
        telemetry::count(Counter::RuntimeSwitches, 1);
        self.control.unpause(self.shard);
    }

    /// Pins the shard to `to`: switches and excludes it from the
    /// controller's decisions until [`AdaptiveShard::unpin`].
    pub fn force(&self, to: u8) {
        self.pinned.store(true, Ordering::Release);
        self.switch(to);
    }

    /// Returns the shard to controller management.
    #[allow(dead_code)]
    pub fn unpin(&self) {
        self.pinned.store(false, Ordering::Release);
    }

    /// Surrenders the shard state. Caller must guarantee quiescence (the
    /// runtime's shutdown drain) and sole ownership (`Arc::try_unwrap`).
    pub fn into_state(self) -> S {
        self.state.into_inner()
    }
}

/// The Mp-mode dispatcher: the server thread owns an `Arc` of the shard and
/// forwards every wire request into the shared state.
pub(crate) struct MpModeDispatch;

impl<S, F> mpsync_core::Dispatcher<Arc<AdaptiveShard<S, F>>> for MpModeDispatch
where
    S: Send + 'static,
    F: KeyedDispatch<S>,
{
    #[inline]
    fn dispatch(&self, shared: &mut Arc<AdaptiveShard<S, F>>, word: u64, arg: u64) -> u64 {
        // SAFETY: wire requests are only sent by sessions that observed
        // mode == Mp while holding an admitted slot, and the server thread
        // is the unique consumer of the shard's queue; the swap quiesce
        // keeps the other modes out (module docs).
        unsafe { shared.exec(word, arg) }
    }
}

/// Hands out combining-record slot indices, one per live session, recycled
/// on session drop.
pub(crate) struct SlotPool {
    free: Mutex<Vec<usize>>,
}

impl SlotPool {
    pub fn new(slots: usize) -> Arc<Self> {
        Arc::new(Self {
            free: Mutex::new((0..slots).collect()),
        })
    }

    /// Claims a slot. The session budget guarantees one is (about to be)
    /// free: a dropping session decrements `sessions_live` slightly before
    /// its lease returns, so this may briefly spin, never deadlock.
    pub fn acquire(self: &Arc<Self>) -> SlotLease {
        let mut spins = 0u32;
        loop {
            if let Some(slot) = self.free.lock().expect("slot pool poisoned").pop() {
                return SlotLease {
                    pool: Arc::clone(self),
                    slot,
                };
            }
            spin(&mut spins);
        }
    }
}

/// A claimed combining-record slot; returns to the pool on drop.
pub(crate) struct SlotLease {
    pool: Arc<SlotPool>,
    pub slot: usize,
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        self.pool
            .free
            .lock()
            .expect("slot pool poisoned")
            .push(self.slot);
    }
}

/// The session-side face of one adaptive shard, object-safe so
/// [`Session`](crate::Session) stays non-generic.
pub(crate) trait AdaptiveAccess: Send {
    /// Applies `(word, arg)` on the caller's thread if the shard is in an
    /// inline mode; `None` means Mp mode — the caller must delegate over
    /// the wire. Must be called holding an admitted slot.
    fn try_apply_local(&mut self, word: u64, arg: u64) -> Option<u64>;
}

/// Per-session, per-shard handle: the MCS queue node and the session's
/// combining slot.
pub(crate) struct AdaptiveHandle<S, F> {
    shared: Arc<AdaptiveShard<S, F>>,
    slot: usize,
    node: <McsLock as CsLock>::Ctx,
}

impl<S, F> AdaptiveHandle<S, F> {
    pub fn new(shared: Arc<AdaptiveShard<S, F>>, slot: usize) -> Self {
        Self {
            shared,
            slot,
            node: Default::default(),
        }
    }
}

impl<S, F> AdaptiveAccess for AdaptiveHandle<S, F>
where
    S: Send + 'static,
    F: KeyedDispatch<S>,
{
    fn try_apply_local(&mut self, word: u64, arg: u64) -> Option<u64> {
        // Read the mode *after* admission (the caller holds a slot): it
        // cannot change until the slot is released, so the chosen path
        // matches every other in-flight operation's.
        match self.shared.mode() {
            MODE_MP => None,
            MODE_LOCK => Some(self.shared.lock_apply(&mut self.node, word, arg)),
            _ => Some(self.shared.comb_apply(self.slot, word, arg)),
        }
    }
}

/// The running contention controller.
pub(crate) struct Controller {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl Controller {
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            join.join().expect("adaptive controller panicked");
        }
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::Release);
            let _ = join.join();
        }
    }
}

/// Per-shard controller bookkeeping.
struct ShardCtl {
    occ_ewma: f64,
    /// The mode the current agreement streak argues for.
    streak_mode: u8,
    streak: u32,
    /// Samples to wait after a switch before considering another.
    dwell: u32,
    last_ops: u64,
    last_batches: u64,
    /// Completed-ops-per-interval EWMA — the outcome signal.
    rate_ewma: f64,
    /// Outcome verification armed by a switch: the mode we left, the rate
    /// EWMA we left it at, and the samples remaining before the verdict.
    /// The occupancy heuristic predicts which regime *should* win; this
    /// checks whether it actually did, and reverts the switch if the
    /// shard's completion rate cratered instead (on hosts where delegation
    /// has no parallelism to exploit, occupancy alone mispredicts).
    verify_from: u8,
    verify_rate: f64,
    verify_left: u32,
    /// A target mode that failed verification, vetoed while `burned_cool`
    /// samples remain — without this the occupancy streak re-argues for the
    /// same losing mode the moment the dwell expires, and the shard
    /// ping-pongs through the pause/quiesce swap forever.
    burned: u8,
    burned_cool: u32,
}

/// Post-switch verdict: revert when the completion-rate EWMA lands below
/// this fraction of the pre-switch rate.
const REVERT_FRACTION: f64 = 0.75;

/// Ops-per-interval floor below which verification abstains — an idle or
/// draining shard must never "fail" a switch.
const VERIFY_MIN_RATE: f64 = 64.0;

/// Cooldown on a failed target, in units of `adaptive_confirm` samples.
const BURN_COOLDOWN: u32 = 16;

/// Spawns the sampling thread that drives automatic switches.
pub(crate) fn spawn_controller<S, F>(
    shards: Vec<Arc<AdaptiveShard<S, F>>>,
    control: Arc<Control>,
    config: RuntimeConfig,
) -> Controller
where
    S: Send + 'static,
    F: KeyedDispatch<S>,
{
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("rt-adaptive".into())
        .spawn(move || controller_loop(&shards, &control, &config, &stop2))
        .expect("failed to spawn adaptive controller");
    Controller {
        stop,
        join: Some(join),
    }
}

/// Occupancy subsamples averaged per interval (sharper than one endpoint
/// read, cheap enough to not matter).
const SUBSAMPLES: u32 = 4;

fn controller_loop<S, F>(
    shards: &[Arc<AdaptiveShard<S, F>>],
    control: &Arc<Control>,
    config: &RuntimeConfig,
    stop: &AtomicBool,
) where
    S: Send + 'static,
    F: KeyedDispatch<S>,
{
    let interval = Duration::from_micros(config.adaptive_interval_us.max(1));
    let subsleep = interval / SUBSAMPLES;
    let mut ctl: Vec<ShardCtl> = shards
        .iter()
        .map(|sh| ShardCtl {
            occ_ewma: 0.0,
            streak_mode: sh.mode(),
            streak: 0,
            dwell: 0,
            last_ops: 0,
            last_batches: 0,
            rate_ewma: 0.0,
            verify_from: sh.mode(),
            verify_rate: 0.0,
            verify_left: 0,
            burned: u8::MAX,
            burned_cool: 0,
        })
        .collect();
    // Submit-latency sliding window (telemetry only): mean ns over the last
    // interval, used to veto downswitches when latency just regressed.
    let mut last_lat = latency_probe();
    let mut last_mean = 0.0f64;
    while !stop.load(Ordering::Acquire) {
        // Sample occupancy SUBSAMPLES times across the interval.
        let mut occ_sum = vec![0.0f64; shards.len()];
        for _ in 0..SUBSAMPLES {
            std::thread::sleep(subsleep);
            if stop.load(Ordering::Acquire) {
                return;
            }
            for (i, sum) in occ_sum.iter_mut().enumerate() {
                *sum += control.shards[i].client.inflight.load(Ordering::Relaxed) as f64;
            }
        }
        let lat = latency_probe();
        let d_count = lat.0.saturating_sub(last_lat.0);
        let mean = if d_count > 0 {
            lat.1.saturating_sub(last_lat.1) as f64 / d_count as f64
        } else {
            0.0
        };
        // A >2× jump in mean submit latency with real traffic behind it:
        // hold every shard where it argues for *less* service capacity.
        let latency_regressed = d_count >= 16 && last_mean > 0.0 && mean > 2.0 * last_mean;
        last_lat = lat;
        if mean > 0.0 {
            last_mean = mean;
        }
        for (i, sh) in shards.iter().enumerate() {
            let st = &mut ctl[i];
            if st.dwell > 0 {
                st.dwell -= 1;
            }
            if st.burned_cool > 0 {
                st.burned_cool -= 1;
            }
            if sh.pinned.load(Ordering::Acquire) {
                st.streak = 0;
                continue;
            }
            let occ = occ_sum[i] / SUBSAMPLES as f64;
            st.occ_ewma = 0.5 * st.occ_ewma + 0.5 * occ;
            let cur = sh.mode();
            let m = &control.shards[i].server;
            let ops = m.ops.load(Ordering::Relaxed);
            let batches = m.batches.load(Ordering::Relaxed);
            let (d_ops, d_batches) = (ops - st.last_ops, batches - st.last_batches);
            st.last_ops = ops;
            st.last_batches = batches;
            st.rate_ewma = 0.5 * st.rate_ewma + 0.5 * d_ops as f64;
            // Outcome verdict: the dwell after a switch doubles as a
            // verification window. If the completion rate cratered versus
            // the mode we left — under sustained traffic, so an offered-load
            // lull can't masquerade as a regression — the occupancy
            // heuristic mispredicted for this host/workload: go back, and
            // don't retry that target until the cooldown drains.
            if st.verify_left > 0 {
                st.verify_left -= 1;
                if st.verify_left == 0
                    && cur != st.verify_from
                    && st.verify_rate >= VERIFY_MIN_RATE
                    && st.rate_ewma < REVERT_FRACTION * st.verify_rate
                {
                    st.burned = cur;
                    st.burned_cool = BURN_COOLDOWN * config.adaptive_confirm;
                    sh.switch(st.verify_from);
                    st.streak = 0;
                    st.dwell = 2 * config.adaptive_confirm;
                    continue;
                }
            }
            // Regime from occupancy; the achieved combining degree (the
            // batch histogram's raw feed) refines the middle band.
            let mut target = if st.occ_ewma <= config.adaptive_low {
                MODE_LOCK
            } else if st.occ_ewma >= config.adaptive_high {
                MODE_MP
            } else {
                MODE_COMB
            };
            if target == MODE_COMB && d_batches > 0 {
                let achieved = d_ops as f64 / d_batches as f64;
                if achieved >= config.adaptive_high {
                    // Combining already finds server-sized batches: the
                    // shard is busier than occupancy alone suggests.
                    target = MODE_MP;
                }
            }
            // Downswitch = toward less service capacity (Mp → Comb → Lock).
            if latency_regressed && target < cur {
                target = cur;
            }
            if st.burned_cool > 0 && target == st.burned {
                target = cur;
            }
            if target == cur {
                st.streak = 0;
                continue;
            }
            if st.streak_mode == target {
                st.streak += 1;
            } else {
                st.streak_mode = target;
                st.streak = 1;
            }
            if st.streak >= config.adaptive_confirm && st.dwell == 0 {
                st.verify_from = cur;
                st.verify_rate = st.rate_ewma;
                st.verify_left = 2 * config.adaptive_confirm;
                sh.switch(target);
                st.streak = 0;
                st.dwell = 2 * config.adaptive_confirm;
            }
        }
    }
}

/// `(count, sum_ns)` of the runtime submit-latency histogram; zeros when
/// the `telemetry` feature is off (the veto then never fires).
fn latency_probe() -> (u64, u64) {
    if telemetry::ENABLED {
        let h = telemetry::hist_snapshot(Algo::Runtime, Lane::Submit);
        (h.count(), h.sum())
    } else {
        (0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SubmitPolicy;

    type TestDispatch = fn(&mut u64, u64, u64, u64) -> u64;

    fn shard(control: &Arc<Control>, config: &RuntimeConfig) -> AdaptiveShard<u64, TestDispatch> {
        fn body(s: &mut u64, _key: u64, _op: u64, arg: u64) -> u64 {
            let old = *s;
            *s = s.wrapping_add(arg);
            old
        }
        AdaptiveShard::new(
            0u64,
            RtDispatch {
                f: body as fn(&mut u64, u64, u64, u64) -> u64,
                control: Arc::clone(control),
                shard: 0,
                read_fast: crate::config::OpMask::EMPTY,
                expire: None,
            },
            Arc::clone(control),
            0,
            config,
        )
    }

    #[test]
    fn lock_and_comb_modes_apply() {
        let config = RuntimeConfig::new(1).with_max_sessions(4);
        let control = Arc::new(Control::new(1, 8, SubmitPolicy::Block));
        let sh = shard(&control, &config);
        let mut node = Default::default();
        assert_eq!(sh.lock_apply(&mut node, 0, 5), 0);
        assert_eq!(sh.lock_apply(&mut node, 0, 5), 5);
        sh.switch(MODE_COMB);
        assert_eq!(sh.mode(), MODE_COMB);
        assert_eq!(sh.epoch(), 1);
        assert_eq!(sh.comb_apply(0, 0, 1), 10);
        assert_eq!(sh.comb_apply(1, 0, 1), 11);
        assert_eq!(sh.into_state(), 12);
    }

    #[test]
    fn switch_is_idempotent_and_epoch_counts() {
        let config = RuntimeConfig::new(1);
        let control = Arc::new(Control::new(1, 8, SubmitPolicy::Block));
        let sh = shard(&control, &config);
        sh.switch(MODE_LOCK); // no-op: already there
        assert_eq!(sh.epoch(), 0);
        sh.switch(MODE_MP);
        sh.switch(MODE_LOCK);
        assert_eq!(sh.epoch(), 2);
    }

    #[test]
    fn slot_pool_recycles() {
        let pool = SlotPool::new(2);
        let a = pool.acquire();
        let b = pool.acquire();
        let freed = a.slot;
        drop(a);
        let c = pool.acquire();
        assert_eq!(c.slot, freed);
        drop(b);
        drop(c);
        assert_eq!(pool.free.lock().unwrap().len(), 2);
    }

    #[test]
    fn backend_mode_round_trips() {
        for b in [Backend::Lock, Backend::HybComb, Backend::MpServer] {
            let m = backend_mode(b).unwrap();
            assert_eq!(mode_backend(m), b);
        }
        assert_eq!(backend_mode(Backend::CcSynch), None);
        assert_eq!(backend_mode(Backend::Adaptive), None);
    }
}
