//! Per-core counters and run results.

use crate::config::MachineConfig;

/// Number of metric slots per proc.
pub const N_METRICS: usize = 20;

/// Number of logarithmic latency-histogram buckets ([`Metric::LatB0`] …).
pub const LAT_BUCKETS: usize = 8;

/// Upper bound (exclusive) of latency bucket `i`, in cycles: 64, 128, …;
/// the last bucket is unbounded.
pub fn lat_bucket_bound(i: usize) -> u64 {
    64u64 << i
}

/// The histogram bucket a latency sample falls into.
pub fn lat_bucket(latency: u64) -> usize {
    for i in 0..LAT_BUCKETS - 1 {
        if latency < lat_bucket_bound(i) {
            return i;
        }
    }
    LAT_BUCKETS - 1
}

/// Workload-defined metric slots accumulated via
/// [`Ctx::record`](crate::Ctx::record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Completed object operations (throughput numerator).
    Ops = 0,
    /// Sum of request latencies in cycles.
    LatSum = 1,
    /// Number of latency samples.
    LatCount = 2,
    /// CAS instructions issued by the workload protocol (HYBCOMB line 17 /
    /// nonblocking retries).
    Cas = 3,
    /// Combining rounds started.
    Rounds = 4,
    /// Requests served by combiners (their own included).
    Combined = 5,
    /// Combining rounds that served only the combiner's own request.
    Orphans = 6,
    /// Critical sections executed *by this core as servicing thread*.
    Served = 7,
    /// Failed CAS attempts (nonblocking algorithms' retries).
    CasFail = 8,
    /// Scratch slot A for experiment-specific counters.
    CustomA = 9,
    /// Scratch slot B.
    CustomB = 10,
    /// Scratch slot C.
    CustomC = 11,
    /// Latency histogram bucket 0 (< 64 cycles). Buckets are consecutive
    /// metric slots; see [`lat_bucket`].
    LatB0 = 12,
    /// Latency bucket 1 (< 128 cycles).
    LatB1 = 13,
    /// Latency bucket 2 (< 256 cycles).
    LatB2 = 14,
    /// Latency bucket 3 (< 512 cycles).
    LatB3 = 15,
    /// Latency bucket 4 (< 1024 cycles).
    LatB4 = 16,
    /// Latency bucket 5 (< 2048 cycles).
    LatB5 = 17,
    /// Latency bucket 6 (< 4096 cycles).
    LatB6 = 18,
    /// Latency bucket 7 (≥ 4096 cycles).
    LatB7 = 19,
}

impl Metric {
    /// The metric slot for latency-histogram bucket `i`.
    pub fn lat_bucket_slot(i: usize) -> usize {
        assert!(i < LAT_BUCKETS);
        Metric::LatB0 as usize + i
    }

    /// The latency-histogram metrics in bucket order.
    pub const LAT_HISTOGRAM: [Metric; LAT_BUCKETS] = [
        Metric::LatB0,
        Metric::LatB1,
        Metric::LatB2,
        Metric::LatB3,
        Metric::LatB4,
        Metric::LatB5,
        Metric::LatB6,
        Metric::LatB7,
    ];

    /// Every metric, indexed by its discriminant (so
    /// `Metric::ALL[m as usize] == m`).
    pub const ALL: [Metric; N_METRICS] = [
        Metric::Ops,
        Metric::LatSum,
        Metric::LatCount,
        Metric::Cas,
        Metric::Rounds,
        Metric::Combined,
        Metric::Orphans,
        Metric::Served,
        Metric::CasFail,
        Metric::CustomA,
        Metric::CustomB,
        Metric::CustomC,
        Metric::LatB0,
        Metric::LatB1,
        Metric::LatB2,
        Metric::LatB3,
        Metric::LatB4,
        Metric::LatB5,
        Metric::LatB6,
        Metric::LatB7,
    ];

    /// The metric with discriminant `i` (inverse of `m as usize`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= N_METRICS`.
    pub fn from_index(i: usize) -> Metric {
        Metric::ALL[i]
    }
}

/// Host-side execution counters of one simulation run: how the simulator
/// itself behaved on the machine running it, as opposed to the simulated
/// machine's counters in [`CoreStats`]. They may never feed figure values —
/// they exist for the harness's `--timing` self-measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Proc resumptions: one per poll of a proc's body, plus one for each
    /// body the engine drops while it is still suspended at the end of the
    /// run. A deterministic function of the simulated trace, so it doubles
    /// as a trace-length check.
    pub handoffs: u64,
    /// Always 0: procs are polled in place and no thread exists that could
    /// park. The field survives only because
    /// `benchmark/src/workloads/sim_counter.rs` reads it and the change that
    /// removed the proc threads was not allowed to touch that directory.
    pub proc_parks: u64,
}

impl HostStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &HostStats) {
        self.handoffs += other.handoffs;
        self.proc_parks += other.proc_parks;
    }
}

/// Cycle accounting for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles doing useful work (instruction execution, cache hits,
    /// message service).
    pub busy: u64,
    /// Cycles stalled on the memory system (RMR latency beyond a hit,
    /// atomic round trips).
    pub stall: u64,
    /// Cycles idle: waiting for messages to arrive or for queue space.
    pub idle: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
    /// Remote memory references (filled from the memory system).
    pub rmrs: u64,
    /// Atomic operations (filled from the memory system).
    pub atomics: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// `receive` completions.
    pub msgs_recv: u64,
    /// Sends that hit back-pressure.
    pub blocked_sends: u64,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Machine the run used.
    pub cfg: MachineConfig,
    /// Cycles elapsed, clamped to the horizon (use for throughput).
    pub cycles: u64,
    /// Raw final clock (may exceed the horizon by the last event's width).
    pub end_clock: u64,
    /// Per-core cycle accounting; index = core = proc id.
    pub per_core: Vec<CoreStats>,
    /// Per-proc metric accumulators.
    pub metrics: Vec<[u64; N_METRICS]>,
    /// Host-side simulator execution counters (see [`HostStats`]); not part
    /// of the simulated machine's state and never used in figure values.
    pub host: HostStats,
}

impl SimResult {
    /// Sum of a metric across all procs.
    pub fn metric_sum(&self, m: Metric) -> u64 {
        self.metrics.iter().map(|row| row[m as usize]).sum()
    }

    /// One proc's metric.
    pub fn metric(&self, proc: usize, m: Metric) -> u64 {
        self.metrics[proc][m as usize]
    }

    /// Aggregate throughput in Mops/s at the configured frequency, based on
    /// [`Metric::Ops`].
    pub fn mops(&self) -> f64 {
        self.cfg.mops(self.metric_sum(Metric::Ops), self.cycles)
    }

    /// Average request latency in cycles ([`Metric::LatSum`] over
    /// [`Metric::LatCount`]).
    pub fn avg_latency(&self) -> f64 {
        let n = self.metric_sum(Metric::LatCount);
        if n == 0 {
            0.0
        } else {
            self.metric_sum(Metric::LatSum) as f64 / n as f64
        }
    }

    /// Upper bound of the latency bucket containing the `p`-th percentile
    /// sample (`p` in 0..=1), from the logarithmic histogram — e.g.
    /// `latency_percentile(0.99)`. Returns 0 with no samples.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        let total: u64 = Metric::LAT_HISTOGRAM
            .iter()
            .map(|&m| self.metric_sum(m))
            .sum();
        if total == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &m) in Metric::LAT_HISTOGRAM.iter().enumerate() {
            seen += self.metric_sum(m);
            if seen >= target {
                return lat_bucket_bound(i);
            }
        }
        lat_bucket_bound(LAT_BUCKETS - 1)
    }

    /// Average requests served per combining round.
    pub fn combining_rate(&self) -> f64 {
        let rounds = self.metric_sum(Metric::Rounds);
        if rounds == 0 {
            0.0
        } else {
            self.metric_sum(Metric::Combined) as f64 / rounds as f64
        }
    }

    /// CAS instructions per completed operation.
    pub fn cas_per_op(&self) -> f64 {
        let ops = self.metric_sum(Metric::Ops);
        if ops == 0 {
            0.0
        } else {
            self.metric_sum(Metric::Cas) as f64 / ops as f64
        }
    }

    /// Fairness ratio: max over min per-proc op count, over procs that
    /// completed at least one op (1.0 = perfectly fair; the paper reports
    /// ≤ 1.2 for HYBCOMB and ~1.1 for MP-SERVER).
    pub fn fairness_ratio(&self) -> f64 {
        let counts: Vec<u64> = self
            .metrics
            .iter()
            .map(|m| m[Metric::Ops as usize])
            .filter(|&c| c > 0)
            .collect();
        match (counts.iter().max(), counts.iter().min()) {
            (Some(&max), Some(&min)) if min > 0 => max as f64 / min as f64,
            _ => 0.0,
        }
    }

    /// Cycles per completed operation on the *servicing* core (Figure 4a's
    /// y-axis): total non-idle cycles of `core` divided by the critical
    /// sections it served.
    pub fn cycles_per_served_op(&self, core: usize) -> f64 {
        let served = self.metric(core, Metric::Served);
        if served == 0 {
            return 0.0;
        }
        let s = &self.per_core[core];
        (s.busy + s.stall) as f64 / served as f64
    }

    /// Stalled cycles per served operation on `core` (Figure 4a's dark
    /// bars).
    pub fn stalls_per_served_op(&self, core: usize) -> f64 {
        let served = self.metric(core, Metric::Served);
        if served == 0 {
            return 0.0;
        }
        self.per_core[core].stall as f64 / served as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(metrics: Vec<[u64; N_METRICS]>, per_core: Vec<CoreStats>) -> SimResult {
        SimResult {
            cfg: MachineConfig::tile_gx8036(),
            cycles: 1_200_000, // 1 ms at 1.2 GHz
            end_clock: 1_200_000,
            per_core,
            metrics,
            host: HostStats::default(),
        }
    }

    #[test]
    fn mops_and_latency() {
        let mut m = [0u64; N_METRICS];
        m[Metric::Ops as usize] = 12_000;
        m[Metric::LatSum as usize] = 50_000;
        m[Metric::LatCount as usize] = 1_000;
        let r = result_with(vec![m], vec![CoreStats::default()]);
        assert!((r.mops() - 12.0).abs() < 1e-9);
        assert!((r.avg_latency() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fairness_ignores_zero_procs() {
        let mut a = [0u64; N_METRICS];
        a[Metric::Ops as usize] = 100;
        let mut b = [0u64; N_METRICS];
        b[Metric::Ops as usize] = 80;
        let zero = [0u64; N_METRICS];
        let r = result_with(vec![a, b, zero], vec![CoreStats::default(); 3]);
        assert!((r.fairness_ratio() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn served_op_cycle_breakdown() {
        let mut m = [0u64; N_METRICS];
        m[Metric::Served as usize] = 10;
        let core = CoreStats {
            busy: 300,
            stall: 200,
            ..CoreStats::default()
        };
        let r = result_with(vec![m], vec![core]);
        assert!((r.cycles_per_served_op(0) - 50.0).abs() < 1e-9);
        assert!((r.stalls_per_served_op(0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn lat_buckets_partition() {
        assert_eq!(lat_bucket(0), 0);
        assert_eq!(lat_bucket(63), 0);
        assert_eq!(lat_bucket(64), 1);
        assert_eq!(lat_bucket(1023), 4);
        assert_eq!(lat_bucket(1024), 5);
        assert_eq!(lat_bucket(u64::MAX), LAT_BUCKETS - 1);
        for i in 0..LAT_BUCKETS - 1 {
            assert!(lat_bucket_bound(i) < lat_bucket_bound(i + 1));
        }
    }

    #[test]
    fn latency_percentiles_from_histogram() {
        let mut m = [0u64; N_METRICS];
        // 90 fast samples (<64cy), 9 medium (<1024), 1 slow tail (>=4096).
        m[Metric::LatB0 as usize] = 90;
        m[Metric::LatB4 as usize] = 9;
        m[Metric::LatB7 as usize] = 1;
        let r = result_with(vec![m], vec![CoreStats::default()]);
        assert_eq!(r.latency_percentile(0.50), 64);
        assert_eq!(r.latency_percentile(0.95), 1024);
        assert_eq!(r.latency_percentile(1.0), lat_bucket_bound(LAT_BUCKETS - 1));
        let empty = result_with(vec![[0; N_METRICS]], vec![CoreStats::default()]);
        assert_eq!(empty.latency_percentile(0.99), 0);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let r = result_with(vec![[0; N_METRICS]], vec![CoreStats::default()]);
        assert_eq!(r.mops(), 0.0);
        assert_eq!(r.avg_latency(), 0.0);
        assert_eq!(r.combining_rate(), 0.0);
        assert_eq!(r.cas_per_op(), 0.0);
        assert_eq!(r.fairness_ratio(), 0.0);
        assert_eq!(r.cycles_per_served_op(0), 0.0);
    }
}
