//! Runtime configuration: shard count, backend choice, combining degree,
//! and admission control.

/// Which critical-section executor serves each shard.
///
/// All four run the *same* shard workload behind the same
/// [`Session`](crate::Session) API — the runtime is generic over the paper's
/// [`ApplyOp`](mpsync_core::ApplyOp) executors, so deployments can pick the
/// construction that fits their machine (message-passing delegation,
/// combining, or a plain lock) without touching application code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// A batched server per shard over `udn` message queues (the paper's
    /// MP-SERVER shape, §4.1, plus runtime batching). The paper gives the
    /// server one core and the clients the rest; the runtime gives the
    /// servers `min(shards, max(1, CPUs − 1))` polling threads, each serving
    /// the shards it owns in turn — a spinning server on every CPU only
    /// takes it from whoever has a request (see
    /// [`RuntimeStats::server_threads`](crate::RuntimeStats)).
    MpServer,
    /// HYBCOMB combining per shard (§4.2): sessions take combiner duty,
    /// no dedicated threads.
    HybComb,
    /// CC-SYNCH combining per shard (shared-memory baseline).
    CcSynch,
    /// A plain MCS-lock critical section per shard (classical baseline).
    Lock,
    /// Per-shard adaptive executor: starts on a lock and live-switches each
    /// shard between lock, combining, and MP-SERVER modes as observed
    /// contention changes (the paper's "no single construction wins
    /// everywhere" conclusion, closed as a runtime control loop).
    Adaptive,
}

impl Backend {
    /// Every *fixed* backend, in the order benches sweep them.
    ///
    /// [`Backend::Adaptive`] is deliberately not listed: it is a policy over
    /// these four, and sweeps compare it *against* them rather than
    /// alongside them.
    pub const ALL: [Backend; 4] = [
        Backend::MpServer,
        Backend::HybComb,
        Backend::CcSynch,
        Backend::Lock,
    ];

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Backend::MpServer => "mp-server",
            Backend::HybComb => "hybcomb",
            Backend::CcSynch => "cc-synch",
            Backend::Lock => "lock",
            Backend::Adaptive => "adaptive",
        }
    }
}

/// A set of opcodes (0..=255), used to mark which operations are safe for
/// the runtime's read-side fast path and which may be merged inside a batch.
///
/// The default mask is empty: both optimisations are strictly opt-in because
/// they rely on semantic contracts the runtime cannot check (see
/// [`RuntimeConfig::read_fast`] and [`RuntimeConfig::merge_ops`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpMask([u64; 4]);

impl OpMask {
    /// The empty mask (no opcodes marked).
    pub const EMPTY: OpMask = OpMask([0; 4]);

    /// Builds a mask from the given opcodes.
    ///
    /// # Panics
    ///
    /// Panics if any opcode is ≥ 256 (the router packs opcodes into 8 bits).
    pub fn of(ops: &[u8]) -> Self {
        let mut words = [0u64; 4];
        for &op in ops {
            words[(op >> 6) as usize] |= 1u64 << (op & 63);
        }
        Self(words)
    }

    /// Whether `op` is in the mask. Opcodes ≥ 256 are never in any mask.
    #[inline]
    pub fn contains(self, op: u64) -> bool {
        op < 256 && self.0[(op >> 6) as usize] & (1u64 << (op & 63)) != 0
    }

    /// Whether no opcode is marked.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == [0; 4]
    }
}

/// What a session does when its target shard's submission window is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitPolicy {
    /// Wait (spin → yield) for a slot; the call never fails with `Busy`.
    Block,
    /// Fail fast with [`RuntimeError::Busy`](crate::RuntimeError::Busy) so
    /// the caller can shed load or retry with its own policy.
    Fail,
}

/// Configuration for a [`Runtime`](crate::Runtime).
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Number of delegation shards (key partitions). Each shard owns the
    /// keys [`shard_for`](crate::shard_for) routes to it. A shard is a unit
    /// of state and ordering, not of CPU: how many threads serve the shards
    /// is derived (for MP-SERVER, `min(shards, max(1, CPUs − 1))`), not
    /// configured.
    pub shards: usize,
    /// Executor backend serving every shard.
    pub backend: Backend,
    /// Maximum operations a shard services per batch/combining round — the
    /// paper's `MAX_OPS` knob (§5.1, Figure 3c) surfaced as runtime config.
    pub max_batch: u64,
    /// Maximum operations admitted-but-incomplete per shard. Submissions
    /// beyond this bound block or fail per [`RuntimeConfig::submit`]; the
    /// runtime never queues unboundedly.
    pub queue_depth: usize,
    /// Maximum concurrently live [`Session`](crate::Session)s. Sizes the
    /// message fabric and the combining constructions up front.
    pub max_sessions: usize,
    /// Behaviour when a shard's submission window is full.
    pub submit: SubmitPolicy,
    /// When `true` and the backend is [`Backend::MpServer`], the runtime
    /// does **not** spawn serving threads. Instead each shard's
    /// executor is handed out once as a [`ShardDriver`](crate::ShardDriver)
    /// via [`Runtime::take_driver`](crate::Runtime::take_driver), and some
    /// external event loop (e.g. an `mpsync-net` reactor) must tick it.
    /// Ignored by the inline backends (HybComb / CcSynch / Lock), which
    /// already execute on the submitting thread. A runtime built without it
    /// can still be converted:
    /// [`Runtime::drive_externally`](crate::Runtime::drive_externally).
    pub external_drive: bool,
    /// Opcodes answerable from the per-shard read cache without entering
    /// the executor at all.
    ///
    /// **Contract:** a masked opcode must be a pure read of its key's value
    /// — for a given state, `dispatch(word, arg)` returns the key's current
    /// value and mutates nothing, for any `arg`. The runtime publishes a
    /// versioned `(word, value)` snapshot after each such read and answers
    /// repeat reads from it while no mutation has *started* since; any
    /// conflict falls back to normal delegation.
    pub read_fast: OpMask,
    /// Opcodes the shard loop may merge within one batch.
    ///
    /// **Contract:** a masked opcode must be fetch-add-shaped — for word
    /// `w`: `dispatch(w, a)` performs `v' = v ⊞ a` (wrapping add) and
    /// returns the *old* value `v`. The shard merges same-word runs into a
    /// single dispatch of the wrapped sum and reconstructs each caller's
    /// return value as `old ⊞ (sum of earlier args in the run)`.
    pub merge_ops: OpMask,
    /// When the backend is [`Backend::Adaptive`]: spawn the contention
    /// controller thread that samples each shard and switches modes
    /// automatically. With `false`, shards stay in their current mode until
    /// [`Runtime::force_backend`](crate::Runtime::force_backend) moves them.
    pub adaptive_auto: bool,
    /// Controller sampling interval in microseconds. The controller
    /// sub-samples occupancy 4× per interval, so its wakeup rate is
    /// `4 / interval` — keep the interval in the milliseconds for
    /// production runtimes (timer wakeups cost real CPU on virtualized
    /// hosts); contention regimes shift on far coarser timescales anyway.
    pub adaptive_interval_us: u64,
    /// Consecutive agreeing samples required before the controller switches
    /// a shard (hysteresis: one noisy interval never flips a mode).
    pub adaptive_confirm: u32,
    /// Mean in-flight occupancy (EWMA, in operations) at or below which a
    /// shard is considered uncontended → lock mode.
    pub adaptive_low: f64,
    /// Mean in-flight occupancy at or above which a shard is considered
    /// heavily contended → MP-SERVER mode. Between `adaptive_low` and this,
    /// the controller picks combining.
    pub adaptive_high: f64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            backend: Backend::MpServer,
            max_batch: 64,
            queue_depth: 32,
            max_sessions: 8,
            submit: SubmitPolicy::Block,
            external_drive: false,
            read_fast: OpMask::EMPTY,
            merge_ops: OpMask::EMPTY,
            adaptive_auto: true,
            adaptive_interval_us: 5_000,
            adaptive_confirm: 4,
            adaptive_low: 1.25,
            adaptive_high: 4.0,
        }
    }
}

impl RuntimeConfig {
    /// Default configuration with the given shard count.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }

    /// Selects the executor backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the per-shard batching bound (`MAX_OPS`).
    pub fn with_max_batch(mut self, max_batch: u64) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the per-shard submission window.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the session capacity.
    pub fn with_max_sessions(mut self, sessions: usize) -> Self {
        self.max_sessions = sessions;
        self
    }

    /// Sets the full-window submission policy.
    pub fn with_submit(mut self, submit: SubmitPolicy) -> Self {
        self.submit = submit;
        self
    }

    /// Hands shard execution to an external driver (see
    /// [`RuntimeConfig::external_drive`]).
    pub fn with_external_drive(mut self, external: bool) -> Self {
        self.external_drive = external;
        self
    }

    /// Marks opcodes for the read-side fast path (see
    /// [`RuntimeConfig::read_fast`] for the required contract).
    pub fn with_read_fast(mut self, mask: OpMask) -> Self {
        self.read_fast = mask;
        self
    }

    /// Marks opcodes for in-batch merging (see [`RuntimeConfig::merge_ops`]
    /// for the required contract).
    pub fn with_merge_ops(mut self, mask: OpMask) -> Self {
        self.merge_ops = mask;
        self
    }

    /// Enables or disables the adaptive controller thread.
    pub fn with_adaptive_auto(mut self, auto: bool) -> Self {
        self.adaptive_auto = auto;
        self
    }

    /// Tunes the adaptive controller: sampling interval (µs), confirmation
    /// streak, and the low/high occupancy thresholds.
    pub fn with_adaptive_thresholds(
        mut self,
        interval_us: u64,
        confirm: u32,
        low: f64,
        high: f64,
    ) -> Self {
        self.adaptive_interval_us = interval_us;
        self.adaptive_confirm = confirm;
        self.adaptive_low = low;
        self.adaptive_high = high;
        self
    }

    pub(crate) fn validate(&self) {
        assert!(self.shards > 0, "runtime needs at least one shard");
        assert!(self.max_batch > 0, "max_batch must be positive");
        assert!(self.queue_depth > 0, "queue_depth must be positive");
        assert!(self.max_sessions > 0, "runtime needs session capacity");
        if self.backend == Backend::Adaptive {
            assert!(
                self.adaptive_interval_us > 0,
                "adaptive interval must be positive"
            );
            assert!(self.adaptive_confirm > 0, "adaptive confirm must be ≥ 1");
            assert!(
                self.adaptive_low <= self.adaptive_high,
                "adaptive_low must not exceed adaptive_high"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = RuntimeConfig::new(8)
            .with_backend(Backend::HybComb)
            .with_max_batch(200)
            .with_queue_depth(16)
            .with_max_sessions(4)
            .with_submit(SubmitPolicy::Fail);
        assert_eq!(c.shards, 8);
        assert_eq!(c.backend, Backend::HybComb);
        assert_eq!(c.max_batch, 200);
        assert_eq!(c.queue_depth, 16);
        assert_eq!(c.max_sessions, 4);
        assert_eq!(c.submit, SubmitPolicy::Fail);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        RuntimeConfig::new(0).validate();
    }

    #[test]
    fn op_mask_membership() {
        let m = OpMask::of(&[0, 7, 63, 64, 200, 255]);
        for op in 0..256u64 {
            let expect = matches!(op, 0 | 7 | 63 | 64 | 200 | 255);
            assert_eq!(m.contains(op), expect, "op {op}");
        }
        // Words above the opcode space never match, even with low bits set.
        assert!(!m.contains(256));
        assert!(!m.contains(u64::MAX));
        assert!(OpMask::EMPTY.is_empty());
        assert!(!m.is_empty());
    }

    #[test]
    fn adaptive_defaults_validate() {
        RuntimeConfig::new(2)
            .with_backend(Backend::Adaptive)
            .validate();
        assert_eq!(Backend::Adaptive.label(), "adaptive");
        // The fixed-backend sweep list must not grow Adaptive implicitly.
        assert!(!Backend::ALL.contains(&Backend::Adaptive));
    }

    #[test]
    #[should_panic(expected = "adaptive_low")]
    fn inverted_adaptive_thresholds_rejected() {
        RuntimeConfig::new(1)
            .with_backend(Backend::Adaptive)
            .with_adaptive_thresholds(500, 4, 8.0, 2.0)
            .validate();
    }
}
