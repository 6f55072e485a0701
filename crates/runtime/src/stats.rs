//! Observability: per-shard and runtime-wide counters.

use crate::control::Control;
use mpsync_telemetry::Log2Hist;
use std::sync::atomic::Ordering;

/// Snapshot of one shard's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Operations executed by the shard's dispatcher.
    pub ops: u64,
    /// Operations admitted into the shard's window.
    pub submitted: u64,
    /// Submissions refused with [`RuntimeError::Busy`](crate::RuntimeError::Busy).
    pub rejected: u64,
    /// Blocking submissions that found the window full at least once.
    pub retried: u64,
    /// Admitted-but-incomplete operations at snapshot time.
    pub inflight: usize,
    /// Service batches / combining rounds observed.
    pub batches: u64,
    /// Log2 histogram of batch sizes ([`Log2Hist`]). Filled for every
    /// batching backend through the control plane: one entry per MP-SERVER
    /// shard-loop batch or combining round.
    pub batch_hist: Log2Hist,
    /// Average operations per service batch (the achieved combining
    /// degree; 1.0 for the lock backend by construction).
    pub avg_batch: f64,
}

/// Snapshot of the whole runtime's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// Threads serving the runtime's MP-SERVER shards: one per shard, but
    /// one fewer than the CPUs the builder could run on (and at least one),
    /// each serving the shards `j, j + n, …` — so four shards behind one busy
    /// `rt-serve-0` thread read as what they are. 0 when there are none: the
    /// inline backends, and after
    /// [`Runtime::drive_externally`](crate::Runtime::drive_externally).
    pub server_threads: usize,
}

impl RuntimeStats {
    /// Total operations executed across shards.
    pub fn total_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.ops).sum()
    }

    /// Total submissions refused with `Busy`.
    pub fn total_rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected).sum()
    }

    /// Operation-weighted average batch size across shards.
    pub fn avg_batch(&self) -> f64 {
        let ops = self.total_ops();
        if ops == 0 {
            return 0.0;
        }
        let weighted: f64 = self.shards.iter().map(|s| s.avg_batch * s.ops as f64).sum();
        weighted / ops as f64
    }

    /// Batch-size histogram merged across shards.
    pub fn batch_hist(&self) -> Log2Hist {
        let mut out = Log2Hist::new();
        for s in &self.shards {
            out.merge(&s.batch_hist);
        }
        out
    }

    /// Hand-rolled JSON mirroring `TelemetryReport::to_json`'s style (the
    /// repo carries no serde): histograms render as
    /// `{ "count": …, "p50": …, "p95": …, "p99": …, "max": …, "mean": … }`.
    ///
    /// The schema is stable — `netbench` embeds it in its machine-readable
    /// reports, and a golden test pins it:
    ///
    /// ```json
    /// {
    ///   "total_ops": N, "total_rejected": N, "avg_batch": F,
    ///   "server_threads": N,
    ///   "shards": [ { "ops": N, "submitted": N, "rejected": N,
    ///                 "retried": N, "inflight": N, "batches": N,
    ///                 "avg_batch": F, "batch_hist": { … } }, … ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        fn hist_json(h: &Log2Hist) -> String {
            format!(
                "{{ \"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"mean\": {:.1} }}",
                h.count(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max(),
                h.mean()
            )
        }
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"total_ops\": {},\n  \"total_rejected\": {},\n  \"avg_batch\": {:.2},\n  \"server_threads\": {},\n  \"shards\": [",
            self.total_ops(),
            self.total_rejected(),
            self.avg_batch(),
            self.server_threads
        ));
        for (i, sh) in self.shards.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{ \"ops\": {}, \"submitted\": {}, \"rejected\": {}, \"retried\": {}, \"inflight\": {}, \"batches\": {}, \"avg_batch\": {:.2}, \"batch_hist\": {} }}",
                sh.ops,
                sh.submitted,
                sh.rejected,
                sh.retried,
                sh.inflight,
                sh.batches,
                sh.avg_batch,
                hist_json(&sh.batch_hist)
            ));
        }
        if !self.shards.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}");
        s
    }

    pub(crate) fn from_control(control: &Control) -> Self {
        let shards = control
            .shards
            .iter()
            .map(|m| ShardStats {
                ops: m.server.ops.load(Ordering::Relaxed),
                submitted: m.client.submitted.load(Ordering::Relaxed),
                rejected: m.client.rejected.load(Ordering::Relaxed),
                retried: m.client.retried.load(Ordering::Relaxed),
                inflight: m.client.inflight.load(Ordering::Relaxed),
                batches: m.server.batches.load(Ordering::Relaxed),
                batch_hist: m.server.batch_hist.snapshot(),
                avg_batch: 0.0,
            })
            .collect();
        Self {
            shards,
            server_threads: 0,
        }
    }
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>5} {:>10} {:>10} {:>8} {:>8} {:>9} {:>9}",
            "shard", "ops", "submitted", "rejected", "retried", "batches", "avg_batch"
        )?;
        for (i, s) in self.shards.iter().enumerate() {
            writeln!(
                f,
                "{:>5} {:>10} {:>10} {:>8} {:>8} {:>9} {:>9.2}",
                i, s.ops, s.submitted, s.rejected, s.retried, s.batches, s.avg_batch
            )?;
        }
        let hist = self.batch_hist();
        if !hist.is_empty() {
            write!(f, "batch sizes:")?;
            for (lo, hi, n) in hist.nonzero_buckets() {
                if hi == u64::MAX {
                    write!(f, " [{lo}+]={n}")?;
                } else if lo == hi {
                    write!(f, " [{lo}]={n}")?;
                } else {
                    write!(f, " [{lo}..{hi}]={n}")?;
                }
            }
            writeln!(f, " ({})", hist.summary())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_sum_over_shards() {
        let mut h1 = Log2Hist::new();
        h1.record(1);
        let mut h2 = Log2Hist::new();
        h2.record(2);
        h2.record(3);
        h2.record(200);
        let stats = RuntimeStats {
            shards: vec![
                ShardStats {
                    ops: 100,
                    rejected: 1,
                    avg_batch: 2.0,
                    batch_hist: h1,
                    ..Default::default()
                },
                ShardStats {
                    ops: 300,
                    rejected: 2,
                    avg_batch: 4.0,
                    batch_hist: h2,
                    ..Default::default()
                },
            ],
            server_threads: 2,
        };
        assert_eq!(stats.total_ops(), 400);
        assert_eq!(stats.total_rejected(), 3);
        assert!((stats.avg_batch() - 3.5).abs() < 1e-9);
        let merged = stats.batch_hist();
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.max(), 200);
        let shown = stats.to_string();
        assert!(shown.contains("avg_batch"));
        assert!(shown.contains("[128..255]=1"), "display: {shown}");
    }

    #[test]
    fn empty_stats_are_quiet() {
        let stats = RuntimeStats::default();
        assert_eq!(stats.total_ops(), 0);
        assert_eq!(stats.avg_batch(), 0.0);
        assert_eq!(
            stats.to_json(),
            "{\n  \"total_ops\": 0,\n  \"total_rejected\": 0,\n  \"avg_batch\": 0.00,\n  \"server_threads\": 0,\n  \"shards\": []\n}"
        );
    }

    /// Golden test: the JSON schema is a stable machine interface consumed
    /// by `netbench`. If this fails, you changed the
    /// schema — update every consumer (and this string) deliberately.
    #[test]
    fn json_schema_is_stable() {
        let mut h = Log2Hist::new();
        for v in [2u64, 3, 8] {
            h.record(v);
        }
        let stats = RuntimeStats {
            shards: vec![
                ShardStats {
                    ops: 10,
                    submitted: 12,
                    rejected: 2,
                    retried: 1,
                    inflight: 0,
                    batches: 3,
                    avg_batch: 3.333,
                    batch_hist: h,
                },
                ShardStats::default(),
            ],
            server_threads: 1,
        };
        let golden = concat!(
            "{\n",
            "  \"total_ops\": 10,\n",
            "  \"total_rejected\": 2,\n",
            "  \"avg_batch\": 3.33,\n",
            "  \"server_threads\": 1,\n",
            "  \"shards\": [\n",
            "    { \"ops\": 10, \"submitted\": 12, \"rejected\": 2, \"retried\": 1, \"inflight\": 0, ",
            "\"batches\": 3, \"avg_batch\": 3.33, ",
            "\"batch_hist\": { \"count\": 3, \"p50\": 3, \"p95\": 8, \"p99\": 8, \"max\": 8, \"mean\": 4.3 } },\n",
            "    { \"ops\": 0, \"submitted\": 0, \"rejected\": 0, \"retried\": 0, \"inflight\": 0, ",
            "\"batches\": 0, \"avg_batch\": 0.00, ",
            "\"batch_hist\": { \"count\": 0, \"p50\": 0, \"p95\": 0, \"p99\": 0, \"max\": 0, \"mean\": 0.0 } }\n",
            "  ]\n",
            "}"
        );
        assert_eq!(stats.to_json(), golden);
    }
}
