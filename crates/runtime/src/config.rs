//! Runtime configuration: shard count, backend choice, combining degree,
//! and admission control.

/// Which critical-section executor serves each shard.
///
/// All of them run the *same* shard workload behind the same
/// [`Session`](crate::Session) API, so a deployment picks the construction
/// that fits its machine (message-passing delegation, combining, or a plain
/// lock) without touching application code.
///
/// The discriminant is the one encoding of "which backend" everywhere a
/// number stands for it: the flight recorder's `backend` and
/// `backend_switch` events, and the live mode of an adaptive shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// A plain MCS-lock critical section per shard (classical baseline).
    Lock = 0,
    /// Flat combining per shard (`mpsync-core`'s `FlatCombining`): a
    /// session publishes its request on its own record and the first to
    /// take the combiner lock serves every pending one. No dedicated
    /// threads. The paper's HYBCOMB and
    /// CC-SYNCH stay in `mpsync-core`; on this runtime's emulated fabric
    /// this combiner matches CC-SYNCH and outruns HYBCOMB (DESIGN.md §14).
    Comb = 1,
    /// A batched server per shard over `udn` message queues (the paper's
    /// MP-SERVER shape, §4.1, plus runtime batching). The paper gives the
    /// server one core and the clients the rest; the runtime gives the
    /// servers `min(shards, max(1, CPUs − 1))` polling threads, each serving
    /// the shards it owns in turn — a spinning server on every CPU only
    /// takes it from whoever has a request (see
    /// [`RuntimeStats::server_threads`](crate::RuntimeStats)).
    MpServer = 2,
    /// Per-shard adaptive executor: starts on a lock and live-switches each
    /// shard between the modes of [`Backend::ALL`] as observed contention
    /// changes (the paper's "no single construction wins everywhere"
    /// conclusion, closed as a runtime control loop).
    Adaptive = 3,
}

impl Backend {
    /// Every *fixed* backend, in discriminant order (so `ALL[b as usize] ==
    /// b`) — which is also the order benches sweep them.
    ///
    /// [`Backend::Adaptive`] is deliberately not listed: it is a policy over
    /// these three, each of which is one of its modes, and sweeps compare it
    /// *against* them rather than alongside them.
    pub const ALL: [Backend; 3] = [Backend::Lock, Backend::Comb, Backend::MpServer];

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Lock => "lock",
            Backend::Comb => "comb",
            Backend::MpServer => "mp-server",
            Backend::Adaptive => "adaptive",
        }
    }
}

/// A set of opcodes (0..=255), used to mark which operations are safe for
/// the runtime's read-side fast path.
///
/// The default mask is empty: the fast path is strictly opt-in because it
/// relies on a semantic contract the runtime cannot check (see
/// [`RuntimeConfig::read_fast`]).
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

/// Configuration for a [`Runtime`](crate::Runtime): what the state is split
/// into, which executor serves it, and how much each shard admits and
/// batches.
///
/// Who serves the shards is not configured here: MP-SERVER shards get
/// serving threads at construction, and an owner that wants to serve them
/// itself converts the runtime with
/// [`Runtime::drive_externally`](crate::Runtime::drive_externally). Nor is
/// [`Backend::Adaptive`]'s controller: its interval and thresholds are
/// constants of the policy (`adaptive.rs`).
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
            read_fast: OpMask::EMPTY,
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

    /// Marks opcodes for the read-side fast path (see
    /// [`RuntimeConfig::read_fast`] for the required contract).
    pub fn with_read_fast(mut self, mask: OpMask) -> Self {
        self.read_fast = mask;
        self
    }

    pub(crate) fn validate(&self) {
        assert!(self.shards > 0, "runtime needs at least one shard");
        assert!(self.max_batch > 0, "max_batch must be positive");
        assert!(self.queue_depth > 0, "queue_depth must be positive");
        assert!(self.max_sessions > 0, "runtime needs session capacity");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = RuntimeConfig::new(8)
            .with_backend(Backend::Comb)
            .with_max_batch(200)
            .with_queue_depth(16)
            .with_max_sessions(4)
            .with_submit(SubmitPolicy::Fail);
        assert_eq!(c.shards, 8);
        assert_eq!(c.backend, Backend::Comb);
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
        // The fixed-backend sweep list must not grow Adaptive implicitly,
        // and indexes by discriminant.
        assert!(!Backend::ALL.contains(&Backend::Adaptive));
        for (i, b) in Backend::ALL.into_iter().enumerate() {
            assert_eq!(b as usize, i);
        }
    }
}
