//! The adaptive per-shard executor: live backend switching under load.
//!
//! The paper's conclusion is that no single synchronization construction
//! wins everywhere — a plain lock is fastest uncontended, combining wins at
//! moderate contention, and a dedicated message-passing server wins when a
//! shard is hammered. The fixed [`Backend`](crate::Backend)s let a
//! deployment pick once; this module closes the loop at runtime instead.
//!
//! Each shard owns one [`AdaptiveShard`]: a single `CsState` that can be
//! served by any of three *modes*, one per member of
//! [`Backend::ALL`](crate::Backend::ALL) and numbered by its discriminant —
//!
//! * **Lock** — the submitting thread takes a per-shard MCS lock and runs
//!   the critical section inline;
//! * **Comb** — `mpsync-core`'s [`FlatCombining`], the executor
//!   [`Backend::Comb`](crate::Backend::Comb) runs: the submitting thread
//!   publishes its request and either waits for the current combiner or
//!   takes combiner duty itself;
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
//! Every adaptive runtime runs one controller thread (`rt-adaptive`). Each
//! [`INTERVAL`] it takes one [`Sample`] per shard — the mean in-flight
//! occupancy over [`SUBSAMPLES`] reads of the admission window, and the
//! ops and batches the shard completed — hands it to [`decide`], and
//! applies the [`Verdict`] through [`AdaptiveShard::apply`]. `decide` is
//! the whole policy, a pure function of the shard's [`ShardCtl`] history
//! and private constants: occupancy picks the target regime (≤ [`LOW`] →
//! Lock, ≥ [`HIGH`] → Mp, between → Comb), an achieved combining degree of
//! at least [`HIGH`] promotes the middle band to Mp, and a switch needs
//! [`CONFIRM`] consecutive agreeing samples and waits out a dwell of
//! `2 × CONFIRM` samples after the previous one.
//!
//! The occupancy signal predicts which regime *should* win; a second,
//! outcome-level loop checks whether it actually did. Every switch arms a
//! verification window (the dwell): if the shard's completion-rate EWMA
//! ends the window below [`REVERT_FRACTION`] of the pre-switch rate under
//! sustained traffic, the verdict is a revert to the mode it left, and the
//! failed target is refused for a cooldown. This is what keeps ADAPTIVE
//! honest on hosts where the heuristic's assumptions break — e.g. a
//! single-core or heavily oversubscribed machine, where delegation has no
//! parallelism to exploit and a plain lock beats both combining and the
//! server at every occupancy the thresholds would call "contended".
//!
//! A shard moved by [`Runtime::force_backend`](crate::Runtime::force_backend)
//! is pinned: [`AdaptiveShard::apply`] refuses every later verdict for it,
//! checked under the same swap mutex `force` holds.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use mpsync_core::{CsLock, FlatCombining, McsLock};
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Counter, FlightKind};

use crate::config::{Backend, RuntimeConfig};
use crate::control::Control;
use crate::runtime::{KeyedDispatch, RtDispatch};

/// Panic message once a dispatch unwound on an adaptive shard.
const POISONED: &str = "LOCK poisoned: a dispatch panicked on this shard and its state may be torn";

/// One shard's adaptive executor. Shared by the shard's serving thread,
/// every session, and the controller.
pub(crate) struct AdaptiveShard<S, F> {
    /// The current mode's [`Backend`] discriminant.
    mode: AtomicU8,
    /// Completed switches; monotone. Lets tests and the admin plane pin a
    /// result to the mode that produced it.
    epoch: AtomicU64,
    /// Serializes switches (controller vs. `force_backend` callers), and
    /// holds whether `force` pinned the shard: the controller leaves a
    /// pinned shard alone.
    swap: Mutex<bool>,
    /// The shard state, behind the combiner that serves Comb mode; the
    /// other two modes execute through [`FlatCombining::exec`]. Its poison
    /// flag is the shard's: a dispatch that unwinds in any mode sets it, and
    /// every mode checks it before it runs an op.
    comb: FlatCombining<S, RtDispatch<S, F>>,
    mcs: McsLock,
    control: Arc<Control>,
    shard: usize,
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
            mode: AtomicU8::new(Backend::Lock as u8),
            epoch: AtomicU64::new(0),
            swap: Mutex::new(false),
            comb: FlatCombining::new(config.max_sessions, config.max_batch, state, dispatch),
            mcs: McsLock::default(),
            control,
            shard,
        }
    }

    /// The shard's current mode (Acquire: pairs with the switcher's store).
    pub fn mode(&self) -> Backend {
        Backend::ALL[self.mode.load(Ordering::Acquire) as usize]
    }

    /// Completed switches so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Panics if a dispatch unwound on the shard, in any mode.
    fn check(&self) {
        assert!(!self.comb.is_poisoned(), "{POISONED}");
    }

    /// Lock-mode application: MCS critical section on the caller's thread.
    /// Caller must hold an admitted slot (so the mode is stable).
    pub fn lock_apply(&self, node: &mut <McsLock as CsLock>::Ctx, word: u64, arg: u64) -> u64 {
        // Checked under the lock too: a holder that panicked releases it.
        // SAFETY: `run` holds the MCS lock, and the swap quiesce guarantees
        // no thread is executing in another mode (caller holds a slot
        // admitted under mode == Lock).
        let ret = self.mcs.run(node, || {
            self.check();
            unsafe { self.comb.exec(word, arg) }
        });
        // Keep the shard's batch accounting meaningful across modes: a lock
        // op is a batch of one.
        self.control.record_batch(self.shard, 1);
        ret
    }

    /// Applies a controller verdict: switches to its mode unless the shard
    /// is pinned, and returns whether it did. `pinned` is read under the
    /// swap mutex, so a [`force`](Self::force) racing the controller either
    /// lands first (and the verdict is refused) or switches after it.
    pub fn apply(&self, verdict: Verdict) -> bool {
        let (Verdict::Switch(to) | Verdict::Revert(to)) = verdict else {
            return false;
        };
        let pinned = self.swap.lock().expect("swap mutex poisoned");
        if *pinned {
            return false;
        }
        self.install(to);
        true
    }

    /// Pins the shard to `to` (a member of [`Backend::ALL`]): switches and
    /// refuses every controller verdict from then on.
    pub fn force(&self, to: Backend) {
        let mut pinned = self.swap.lock().expect("swap mutex poisoned");
        *pinned = true;
        self.install(to);
    }

    /// Switches the shard to `to`, quiescing first; a no-op when it is
    /// already there. Caller holds the swap mutex.
    fn install(&self, to: Backend) {
        let from = self.mode();
        if from == to {
            return;
        }
        self.control.pause(self.shard);
        self.control.wait_quiesced(self.shard);
        // Quiesced: zero slots held, admissions blocked. The mode store is
        // ordered before unpause; every future slot holder reads the mode
        // after admitting, hence after unpause's SeqCst store.
        self.mode.store(to as u8, Ordering::SeqCst);
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

    /// Surrenders the shard state. Caller must guarantee quiescence (the
    /// runtime's shutdown drain) and sole ownership (`Arc::try_unwrap`).
    pub fn into_state(self) -> S {
        self.check();
        self.comb.into_state()
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
        unsafe { shared.comb.exec(word, arg) }
    }
}

/// The session-side face of one adaptive shard, object-safe so
/// [`Session`](crate::Session) stays non-generic.
pub(crate) trait AdaptiveAccess: Send {
    /// Applies `(word, arg)` on the caller's thread if the shard is in an
    /// inline mode; `None` means Mp mode — the caller must delegate over
    /// the wire. Must be called holding an admitted slot. Panics if a
    /// dispatch unwound on the shard before, in any mode.
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
        self.shared.check();
        // Read the mode *after* admission (the caller holds a slot): it
        // cannot change until the slot is released, so the chosen path
        // matches every other in-flight operation's.
        match self.shared.mode() {
            Backend::MpServer => None,
            Backend::Lock => Some(self.shared.lock_apply(&mut self.node, word, arg)),
            _ => {
                let sh = &*self.shared;
                let record = |n| sh.control.record_batch(sh.shard, n);
                Some(sh.comb.apply(self.slot, word, arg, record))
            }
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

/// Sampling interval. Every shard gets one [`Sample`] per interval; the
/// thread wakes [`SUBSAMPLES`] times in it. Contention regimes shift on far
/// coarser timescales, and on a virtualized host a timer wakeup costs real
/// CPU (≈ 19 µs): at 500 µs the controller took ~15 % of a core.
const INTERVAL: Duration = Duration::from_millis(5);

/// Occupancy reads averaged per interval (sharper than one endpoint read,
/// cheap enough to not matter).
const SUBSAMPLES: u32 = 4;

/// Consecutive samples that must argue for the same new mode before a
/// switch: one noisy interval never flips a mode. It also sets the dwell
/// (`2 × CONFIRM` samples between switches, which doubles as the
/// verification window) and the burn cooldown.
const CONFIRM: u32 = 4;

/// Occupancy EWMA (in operations) at or below which a shard is uncontended:
/// target Lock. A lone client keeps about one op in flight.
const LOW: f64 = 1.25;

/// Occupancy EWMA — or achieved ops per batch — at or above which a shard
/// is heavily contended: target Mp. Between [`LOW`] and this, Comb.
const HIGH: f64 = 4.0;

/// Post-switch verdict: revert when the completion-rate EWMA lands below
/// this fraction of the pre-switch rate.
const REVERT_FRACTION: f64 = 0.75;

/// Ops-per-interval floor below which verification abstains — an idle or
/// draining shard must never "fail" a switch.
const VERIFY_MIN_RATE: f64 = 64.0;

/// Cooldown on a failed target, in units of [`CONFIRM`] samples.
const BURN_COOLDOWN: u32 = 16;

/// What one shard did during one controller interval.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    /// Mean admitted-but-incomplete operations over the interval.
    occupancy: f64,
    /// Operations the shard executed.
    ops: u64,
    /// Service batches (combining rounds, server batches, lock ops) those
    /// operations took.
    batches: u64,
}

/// What [`decide`] concludes from one [`Sample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Keep the current mode.
    Stay,
    /// Occupancy has argued for this mode long enough: switch to it.
    Switch(Backend),
    /// The last switch cut the completion rate: go back to this mode, the
    /// one it left.
    Revert(Backend),
}

/// Per-shard controller state: everything [`decide`] remembers between
/// samples.
struct ShardCtl {
    occ_ewma: f64,
    /// The mode the current agreement streak argues for.
    streak_mode: Backend,
    streak: u32,
    /// Samples to wait after a switch before considering another.
    dwell: u32,
    /// Completed-ops-per-interval EWMA — the outcome signal.
    rate_ewma: f64,
    /// Outcome verification armed by a switch: the mode we left, the rate
    /// EWMA we left it at, and the samples remaining before the verdict.
    /// The occupancy heuristic predicts which regime *should* win; this
    /// checks whether it actually did, and reverts the switch if the
    /// shard's completion rate cratered instead (on hosts where delegation
    /// has no parallelism to exploit, occupancy alone mispredicts).
    verify_from: Backend,
    verify_rate: f64,
    verify_left: u32,
    /// A target mode that failed verification, refused while `burned_cool`
    /// samples remain — without this the occupancy streak re-argues for the
    /// same losing mode the moment the dwell expires, and the shard
    /// ping-pongs through the pause/quiesce swap forever.
    burned: Option<Backend>,
    burned_cool: u32,
}

impl ShardCtl {
    fn new(mode: Backend) -> Self {
        Self {
            occ_ewma: 0.0,
            streak_mode: mode,
            streak: 0,
            dwell: 0,
            rate_ewma: 0.0,
            verify_from: mode,
            verify_rate: 0.0,
            verify_left: 0,
            burned: None,
            burned_cool: 0,
        }
    }
}

/// The controller's policy: folds one interval's `sample` of a shard
/// currently in mode `cur` into its history `st` and says what to do.
fn decide(st: &mut ShardCtl, cur: Backend, sample: Sample) -> Verdict {
    st.dwell = st.dwell.saturating_sub(1);
    st.burned_cool = st.burned_cool.saturating_sub(1);
    st.occ_ewma = 0.5 * st.occ_ewma + 0.5 * sample.occupancy;
    st.rate_ewma = 0.5 * st.rate_ewma + 0.5 * sample.ops as f64;
    // Outcome verdict: the dwell after a switch doubles as a verification
    // window. If the completion rate cratered versus the mode we left —
    // under sustained traffic, so an offered-load lull can't masquerade as
    // a regression — the occupancy heuristic mispredicted for this
    // host/workload: go back, and don't retry that target until the
    // cooldown drains.
    if st.verify_left > 0 {
        st.verify_left -= 1;
        if st.verify_left == 0
            && cur != st.verify_from
            && st.verify_rate >= VERIFY_MIN_RATE
            && st.rate_ewma < REVERT_FRACTION * st.verify_rate
        {
            st.burned = Some(cur);
            st.burned_cool = BURN_COOLDOWN * CONFIRM;
            st.streak = 0;
            st.dwell = 2 * CONFIRM;
            return Verdict::Revert(st.verify_from);
        }
    }
    // Regime from occupancy; the achieved combining degree (the batch
    // histogram's raw feed) refines the middle band.
    let mut target = if st.occ_ewma <= LOW {
        Backend::Lock
    } else if st.occ_ewma >= HIGH {
        Backend::MpServer
    } else {
        Backend::Comb
    };
    if target == Backend::Comb
        && sample.batches > 0
        && sample.ops as f64 / sample.batches as f64 >= HIGH
    {
        // Combining already finds server-sized batches: the shard is
        // busier than occupancy alone suggests.
        target = Backend::MpServer;
    }
    if st.burned_cool > 0 && st.burned == Some(target) {
        target = cur;
    }
    if target == cur {
        st.streak = 0;
        return Verdict::Stay;
    }
    if st.streak_mode == target {
        st.streak += 1;
    } else {
        st.streak_mode = target;
        st.streak = 1;
    }
    if st.streak < CONFIRM || st.dwell > 0 {
        return Verdict::Stay;
    }
    st.verify_from = cur;
    st.verify_rate = st.rate_ewma;
    st.verify_left = 2 * CONFIRM;
    st.streak = 0;
    st.dwell = 2 * CONFIRM;
    Verdict::Switch(target)
}

/// Spawns the sampling thread that drives automatic switches.
pub(crate) fn spawn_controller<S, F>(
    shards: Vec<Arc<AdaptiveShard<S, F>>>,
    control: Arc<Control>,
) -> Controller
where
    S: Send + 'static,
    F: KeyedDispatch<S>,
{
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("rt-adaptive".into())
        .spawn(move || controller_loop(&shards, &control, &stop2))
        .expect("failed to spawn adaptive controller");
    Controller {
        stop,
        join: Some(join),
    }
}

/// Samples every shard once per [`INTERVAL`] and applies [`decide`]'s
/// verdicts until `stop` is raised.
fn controller_loop<S, F>(shards: &[Arc<AdaptiveShard<S, F>>], control: &Control, stop: &AtomicBool)
where
    S: Send + 'static,
    F: KeyedDispatch<S>,
{
    let mut ctl: Vec<ShardCtl> = shards.iter().map(|sh| ShardCtl::new(sh.mode())).collect();
    // Each shard's (ops, batches) counters at the previous sample.
    let mut last = vec![(0u64, 0u64); shards.len()];
    let mut occ_sum = vec![0.0f64; shards.len()];
    while !stop.load(Ordering::Acquire) {
        occ_sum.fill(0.0);
        for _ in 0..SUBSAMPLES {
            std::thread::sleep(INTERVAL / SUBSAMPLES);
            if stop.load(Ordering::Acquire) {
                return;
            }
            for (i, sum) in occ_sum.iter_mut().enumerate() {
                *sum += control.shards[i].client.inflight.load(Ordering::Relaxed) as f64;
            }
        }
        for (i, sh) in shards.iter().enumerate() {
            let m = &control.shards[i].server;
            let now = (
                m.ops.load(Ordering::Relaxed),
                m.batches.load(Ordering::Relaxed),
            );
            let sample = Sample {
                occupancy: occ_sum[i] / SUBSAMPLES as f64,
                ops: now.0 - last[i].0,
                batches: now.1 - last[i].1,
            };
            last[i] = now;
            sh.apply(decide(&mut ctl[i], sh.mode(), sample));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SubmitPolicy;
    use proptest::prelude::*;

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

    fn idle_shard() -> AdaptiveShard<u64, TestDispatch> {
        let control = Arc::new(Control::new(1, 8, SubmitPolicy::Block));
        shard(&control, &RuntimeConfig::new(1))
    }

    #[test]
    fn lock_and_comb_modes_apply() {
        let config = RuntimeConfig::new(1).with_max_sessions(4);
        let control = Arc::new(Control::new(1, 8, SubmitPolicy::Block));
        let sh = shard(&control, &config);
        let mut node = Default::default();
        assert_eq!(sh.lock_apply(&mut node, 0, 5), 0);
        assert_eq!(sh.lock_apply(&mut node, 0, 5), 5);
        assert!(sh.apply(Verdict::Switch(Backend::Comb)));
        assert_eq!(sh.mode(), Backend::Comb);
        assert_eq!(sh.epoch(), 1);
        assert_eq!(sh.comb.apply(0, 0, 1, |_| {}), 10);
        assert_eq!(sh.comb.apply(1, 0, 1, |_| {}), 11);
        assert_eq!(sh.into_state(), 12);
    }

    #[test]
    fn switch_is_idempotent_and_epoch_counts() {
        let sh = idle_shard();
        sh.apply(Verdict::Switch(Backend::Lock)); // no-op: already there
        assert_eq!(sh.epoch(), 0);
        assert!(!sh.apply(Verdict::Stay));
        for (i, &b) in Backend::ALL.iter().rev().enumerate() {
            sh.apply(Verdict::Revert(b));
            assert_eq!(sh.mode(), b);
            assert_eq!(sh.epoch(), i as u64 + 1);
        }
    }

    /// A `force` makes every later verdict a no-op: the controller can
    /// never undo it, whatever it decided before the pin landed.
    #[test]
    fn a_pinned_shard_refuses_verdicts() {
        let sh = idle_shard();
        sh.force(Backend::Lock);
        assert_eq!((sh.mode(), sh.epoch()), (Backend::Lock, 0));
        assert!(!sh.apply(Verdict::Switch(Backend::Comb)));
        assert!(!sh.apply(Verdict::Revert(Backend::MpServer)));
        assert_eq!((sh.mode(), sh.epoch()), (Backend::Lock, 0));
        // `force` itself still moves a pinned shard.
        sh.force(Backend::MpServer);
        assert_eq!((sh.mode(), sh.epoch()), (Backend::MpServer, 1));
    }

    // -----------------------------------------------------------------
    // `decide`, one rule per table.
    // -----------------------------------------------------------------

    fn sample(occupancy: f64, ops: u64, batches: u64) -> Sample {
        Sample {
            occupancy,
            ops,
            batches,
        }
    }

    /// Controller state whose EWMAs already sit at `occ` and `rate`, so
    /// samples carrying those values keep them exactly.
    fn settled(cur: Backend, occ: f64, rate: f64) -> ShardCtl {
        ShardCtl {
            occ_ewma: occ,
            rate_ewma: rate,
            ..ShardCtl::new(cur)
        }
    }

    /// Feeds `samples` to `decide`, applying each verdict to the tracked
    /// mode, and returns the verdicts.
    fn run(st: &mut ShardCtl, cur: &mut Backend, samples: &[Sample]) -> Vec<Verdict> {
        samples
            .iter()
            .map(|&s| {
                let v = decide(st, *cur, s);
                if let Verdict::Switch(to) | Verdict::Revert(to) = v {
                    *cur = to;
                }
                v
            })
            .collect()
    }

    /// `CONFIRM` samples of one value, from a state settled at it: the last
    /// verdict is the rule's target (`Stay` when that is `cur`).
    fn settled_verdict(cur: Backend, s: Sample) -> Verdict {
        let mut st = settled(cur, s.occupancy, s.ops as f64);
        let mut mode = cur;
        let verdicts = run(&mut st, &mut mode, &vec![s; CONFIRM as usize]);
        assert!(verdicts[..CONFIRM as usize - 1]
            .iter()
            .all(|&v| v == Verdict::Stay));
        verdicts[CONFIRM as usize - 1]
    }

    #[test]
    fn occupancy_bands_pick_the_target() {
        use Backend::*;
        // (mode, occupancy, expected verdict); one op per batch, so the
        // combining degree never promotes.
        let rows = [
            (Comb, 0.0, Verdict::Switch(Lock)),
            (Comb, LOW, Verdict::Switch(Lock)),
            (MpServer, LOW, Verdict::Switch(Lock)),
            (Lock, LOW + 0.01, Verdict::Switch(Comb)),
            (Lock, HIGH - 0.01, Verdict::Switch(Comb)),
            (MpServer, 2.0, Verdict::Switch(Comb)),
            (Lock, HIGH, Verdict::Switch(MpServer)),
            (Comb, 64.0, Verdict::Switch(MpServer)),
            (Lock, LOW, Verdict::Stay),
            (Comb, 2.0, Verdict::Stay),
            (MpServer, HIGH, Verdict::Stay),
        ];
        for (cur, occ, want) in rows {
            assert_eq!(
                settled_verdict(cur, sample(occ, 100, 100)),
                want,
                "{cur:?} at occupancy {occ}"
            );
        }
    }

    #[test]
    fn server_sized_batches_promote_the_middle_band() {
        use Backend::*;
        // (mode, occupancy, ops, batches, expected verdict)
        let rows = [
            (Lock, 2.0, 400, 100, Verdict::Switch(MpServer)),
            (Comb, 2.0, 400, 100, Verdict::Switch(MpServer)),
            (Lock, 2.0, 399, 100, Verdict::Switch(Comb)),
            (Lock, 2.0, 0, 0, Verdict::Switch(Comb)),
            // Only the middle band is refined: a low occupancy stays Lock.
            (Lock, LOW, 400, 100, Verdict::Stay),
        ];
        for (cur, occ, ops, batches, want) in rows {
            assert_eq!(
                settled_verdict(cur, sample(occ, ops, batches)),
                want,
                "{cur:?} at occupancy {occ}, {ops} ops in {batches} batches"
            );
        }
    }

    #[test]
    fn a_switch_needs_confirm_agreeing_samples_in_a_row() {
        let comb = sample(2.0, 0, 0);
        let mut st = settled(Backend::Lock, 2.0, 0.0);
        let mut mode = Backend::Lock;
        let mut samples = vec![comb; CONFIRM as usize - 1];
        // One sample that argues for staying (EWMA 2.0 → 1.0 ≤ LOW) resets
        // the streak; from EWMA 1.0 the next CONFIRM Comb samples stay
        // above LOW (1.5, 1.75, …), so they alone make the switch.
        samples.push(sample(0.0, 0, 0));
        samples.extend(vec![comb; CONFIRM as usize]);
        let verdicts = run(&mut st, &mut mode, &samples);
        let (last, rest) = verdicts.split_last().unwrap();
        assert!(rest.iter().all(|&v| v == Verdict::Stay), "{verdicts:?}");
        assert_eq!(*last, Verdict::Switch(Backend::Comb));
    }

    #[test]
    fn a_switch_dwells_two_confirms_before_the_next() {
        let mut st = settled(Backend::Lock, 2.0, 0.0);
        let mut mode = Backend::Lock;
        let verdicts = run(
            &mut st,
            &mut mode,
            &vec![sample(2.0, 0, 0); CONFIRM as usize],
        );
        assert_eq!(verdicts.last(), Some(&Verdict::Switch(Backend::Comb)));
        // Idle from here: the streak for Lock is complete after CONFIRM
        // samples, but the dwell holds the switch to the 2 × CONFIRM-th.
        let verdicts = run(
            &mut st,
            &mut mode,
            &vec![sample(0.0, 0, 0); 3 * CONFIRM as usize],
        );
        let first = verdicts.iter().position(|&v| v != Verdict::Stay);
        assert_eq!(first, Some(2 * CONFIRM as usize - 1), "{verdicts:?}");
        assert_eq!(
            verdicts[2 * CONFIRM as usize - 1],
            Verdict::Switch(Backend::Lock)
        );
    }

    /// Switches Lock → Comb from a rate EWMA settled at `rate`, then feeds
    /// the verification window `2 × CONFIRM` Comb samples at `after` ops.
    fn verify_window(rate: u64, after: u64) -> Vec<Verdict> {
        let mut st = settled(Backend::Lock, 2.0, rate as f64);
        let mut mode = Backend::Lock;
        let switched = run(
            &mut st,
            &mut mode,
            &vec![sample(2.0, rate, rate); CONFIRM as usize],
        );
        assert_eq!(switched.last(), Some(&Verdict::Switch(Backend::Comb)));
        run(
            &mut st,
            &mut mode,
            &vec![sample(2.0, after, after); 2 * CONFIRM as usize],
        )
    }

    #[test]
    fn a_switch_that_cuts_the_rate_is_reverted() {
        let window = 2 * CONFIRM as usize;
        // (pre-switch rate, rate after, reverted at the window's end)
        let rows = [
            (1000, 100, true),
            (1000, 740, true),
            (1000, 760, false),
            (1000, 1000, false),
            // An idle shard can't fail a switch, however far it drops.
            (VERIFY_MIN_RATE as u64 - 1, 0, false),
            (VERIFY_MIN_RATE as u64, 0, true),
        ];
        for (rate, after, reverted) in rows {
            let verdicts = verify_window(rate, after);
            assert!(
                verdicts[..window - 1].iter().all(|&v| v == Verdict::Stay),
                "{rate} → {after}: {verdicts:?}"
            );
            let want = if reverted {
                Verdict::Revert(Backend::Lock)
            } else {
                Verdict::Stay
            };
            assert_eq!(verdicts[window - 1], want, "{rate} → {after}");
        }
    }

    #[test]
    fn a_reverted_target_is_refused_for_the_cooldown() {
        let mut st = settled(Backend::Lock, 2.0, 1000.0);
        let mut mode = Backend::Lock;
        let comb = sample(2.0, 1000, 1000);
        run(&mut st, &mut mode, &vec![comb; CONFIRM as usize]);
        let reverted = run(
            &mut st,
            &mut mode,
            &vec![sample(2.0, 0, 0); 2 * CONFIRM as usize],
        );
        assert_eq!(reverted.last(), Some(&Verdict::Revert(Backend::Lock)));
        // Occupancy keeps arguing for Comb, and Comb is refused until the
        // cooldown has run; then a fresh CONFIRM streak switches.
        let cool = (BURN_COOLDOWN * CONFIRM) as usize;
        let verdicts = run(&mut st, &mut mode, &vec![comb; cool + CONFIRM as usize]);
        let first = verdicts.iter().position(|&v| v != Verdict::Stay);
        assert_eq!(first, Some(cool + CONFIRM as usize - 2), "{verdicts:?}");
        assert_eq!(verdicts[first.unwrap()], Verdict::Switch(Backend::Comb));
    }

    /// A phase of identical samples, decoded from one random word so runs
    /// are long enough for streaks to form: 1–16 samples, occupancy
    /// 0–7.75 in quarters, up to 1 023 ops in 0–ops batches.
    fn phase(bits: u64) -> (usize, Sample) {
        let len = 1 + (bits & 15) as usize;
        let occupancy = ((bits >> 4) & 31) as f64 / 4.0;
        let ops = (bits >> 9) & 1023;
        let batches = (bits >> 19) % (ops + 1);
        (len, sample(occupancy, ops, batches))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sample sequences, each verdict applied to a live shard:
        /// switches keep their distance, a revert only goes back, a burned
        /// target waits out its cooldown, and the shard's mode and epoch
        /// move exactly with the verdicts.
        #[test]
        fn verdicts_keep_the_controller_invariants(
            phases in prop::collection::vec(any::<u64>(), 1..64)
        ) {
            let sh = idle_shard();
            let mut st = ShardCtl::new(sh.mode());
            let mut switches = 0u64;
            let mut last_switch: Option<usize> = None;
            // The mode the last switch left, and a revert's burned target
            // with the sample it was burned at.
            let mut left: Option<Backend> = None;
            let mut burned: Option<(Backend, usize)> = None;
            let samples = phases
                .into_iter()
                .map(phase)
                .flat_map(|(len, s)| std::iter::repeat_n(s, len));
            for (i, s) in samples.enumerate() {
                let cur = sh.mode();
                let verdict = decide(&mut st, cur, s);
                if let Verdict::Switch(to) | Verdict::Revert(to) = verdict {
                    prop_assert!(to != cur, "sample {i}: {verdict:?} from {cur:?}");
                    if let Some(j) = last_switch {
                        prop_assert!(i - j >= 2 * CONFIRM as usize, "switches at {j} and {i}");
                    }
                    last_switch = Some(i);
                    switches += 1;
                }
                match verdict {
                    Verdict::Stay => {}
                    Verdict::Switch(to) => {
                        if let Some((b, at)) = burned {
                            prop_assert!(
                                to != b || i - at >= (BURN_COOLDOWN * CONFIRM) as usize,
                                "sample {i}: {to:?} burned at {at}"
                            );
                        }
                        left = Some(cur);
                    }
                    Verdict::Revert(to) => {
                        prop_assert_eq!(Some(to), left, "sample {}: revert target", i);
                        burned = Some((cur, i));
                        left = None;
                    }
                }
                sh.apply(verdict);
                let want = match verdict {
                    Verdict::Stay => cur,
                    Verdict::Switch(to) | Verdict::Revert(to) => to,
                };
                prop_assert_eq!(sh.mode(), want, "sample {}", i);
                prop_assert_eq!(sh.epoch(), switches, "sample {}", i);
            }
        }
    }
}
