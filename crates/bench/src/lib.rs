//! Shared helpers for the `repro` harness: sweep definitions, table
//! formatting, parallel sweep execution, self-timing reports, and the
//! native telemetry phase ([`metrics`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;

use std::sync::atomic::{AtomicUsize, Ordering};

use tilesim::HostStats;

/// The application-thread counts swept on the x-axis of the
/// throughput/latency figures (the paper plots 1–35).
pub fn thread_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 4, 10, 20, 35]
    } else {
        vec![1, 2, 4, 6, 8, 10, 12, 14, 17, 20, 24, 28, 32, 35]
    }
}

/// The `MAX_OPS` values swept in Figure 3c (log-scaled 1..5000).
pub fn max_ops_sweep(quick: bool) -> Vec<u64> {
    if quick {
        vec![1, 10, 100, 1000, 5000]
    } else {
        vec![1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000]
    }
}

/// Prints one CSV row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join(","));
}

/// Runs `f` over every item on a bounded pool of `jobs` scoped worker
/// threads. Items are claimed in order from a shared counter, so the pool
/// stays busy regardless of per-item cost; with one worker (or one item)
/// execution is strictly serial on the calling thread. A panic in `f` is
/// propagated to the caller when the scope joins its workers.
pub fn for_each_parallel<T: Sync>(items: &[T], jobs: usize, f: impl Fn(&T) + Sync) {
    let workers = jobs.max(1).min(items.len());
    if workers <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                f(&items[i]);
            });
        }
    });
}

/// Wall-clock and engine-counter summary of one `repro --timing` run,
/// serialized to `BENCH_repro.json` at the repository root.
pub struct TimingReport {
    /// The experiment list as invoked, e.g. `--quick all`.
    pub args: String,
    /// Git revision of the tree that produced the numbers (with `-dirty`
    /// when the checkout had local modifications).
    pub git_rev: String,
    /// Hostname of the machine that ran the sweep.
    pub hostname: String,
    /// Whether the sweep ran with `--quick` point lists.
    pub quick: bool,
    /// Simulated-cycle horizon per run.
    pub horizon: u64,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads used for the sweep.
    pub jobs: usize,
    /// Total wall-clock of the sweep, milliseconds.
    pub total_ms: u64,
    /// Wall-clock of the same sweep on the pre-mailbox binary, if supplied
    /// via `--baseline-ms`, so the measured speedup travels with the data.
    pub prechange_total_ms: Option<u64>,
    /// Per-experiment wall-clock in emission order, milliseconds.
    pub figures: Vec<(String, u64)>,
    /// Distinct simulator runs executed (memo-cache misses).
    pub sim_runs: u64,
    /// Engine host counters summed over all distinct runs.
    pub host: HostStats,
    /// Native-executor telemetry summary (a [`metrics::metrics_json`]
    /// document), embedded when the run collected one.
    pub telemetry: Option<String>,
}

impl TimingReport {
    /// Renders the report as JSON. The format is stable and intentionally
    /// line-structured so [`baseline_figure_ms`] can read it back without a
    /// JSON parser.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"bench\": \"repro\",\n");
        s.push_str(&format!("  \"args\": {:?},\n", self.args));
        s.push_str(&format!("  \"git_rev\": {:?},\n", self.git_rev));
        s.push_str(&format!("  \"hostname\": {:?},\n", self.hostname));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"horizon\": {},\n", self.horizon));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        s.push_str(&format!("  \"total_ms\": {},\n", self.total_ms));
        if let Some(base) = self.prechange_total_ms {
            s.push_str(&format!("  \"prechange_total_ms\": {base},\n"));
            s.push_str(&format!(
                "  \"speedup_vs_prechange\": {:.2},\n",
                base as f64 / (self.total_ms.max(1)) as f64
            ));
        }
        s.push_str("  \"figures\": {\n");
        for (i, (name, ms)) in self.figures.iter().enumerate() {
            let comma = if i + 1 < self.figures.len() { "," } else { "" };
            s.push_str(&format!("    \"{name}\": {{ \"ms\": {ms} }}{comma}\n"));
        }
        s.push_str("  },\n");
        s.push_str("  \"host\": {\n");
        s.push_str(&format!("    \"sim_runs\": {},\n", self.sim_runs));
        s.push_str(&format!("    \"handoffs\": {}\n", self.host.handoffs));
        s.push_str("  }");
        if let Some(t) = &self.telemetry {
            s.push_str(",\n  \"telemetry\": ");
            s.push_str(&t.trim_end().replace('\n', "\n  "));
        }
        s.push_str("\n}\n");
        s
    }
}

/// Extracts one figure's `ms` value from a `BENCH_repro.json` written by
/// [`TimingReport::to_json`]. Returns `None` for figures the baseline does
/// not record.
pub fn baseline_figure_ms(json: &str, name: &str) -> Option<u64> {
    let pat = format!("\"{name}\": {{ \"ms\": ");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares a fresh timing report against a committed baseline JSON.
/// Returns `Err` naming every figure slower than `factor`× its baseline.
/// A small absolute floor keeps millisecond-scale figures from tripping on
/// scheduler noise; figures absent from the baseline are skipped.
pub fn check_against_baseline(
    fresh: &TimingReport,
    baseline_json: &str,
    factor: f64,
) -> Result<(), String> {
    const NOISE_FLOOR_MS: u64 = 250;
    let mut regressions = Vec::new();
    for (name, ms) in &fresh.figures {
        if let Some(base) = baseline_figure_ms(baseline_json, name) {
            let limit = (base as f64 * factor) as u64 + NOISE_FLOOR_MS;
            if *ms > limit {
                regressions.push(format!(
                    "{name}: {ms} ms vs baseline {base} ms (limit {limit} ms)"
                ));
            }
        }
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(regressions.join("; "))
    }
}

/// Formats a float for table output.
pub fn f(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod timing_tests {
    use super::*;

    fn report() -> TimingReport {
        TimingReport {
            args: "--quick all".into(),
            git_rev: "abc123def456".into(),
            hostname: "testhost".into(),
            quick: true,
            horizon: 200_000,
            seed: 42,
            jobs: 1,
            total_ms: 40_000,
            prechange_total_ms: Some(87_000),
            figures: vec![("fig3a".into(), 3_000), ("fig5a".into(), 9_000)],
            sim_runs: 157,
            host: HostStats::default(),
            telemetry: None,
        }
    }

    #[test]
    fn json_round_trips_figure_times() {
        let json = report().to_json();
        assert_eq!(baseline_figure_ms(&json, "fig3a"), Some(3_000));
        assert_eq!(baseline_figure_ms(&json, "fig5a"), Some(9_000));
        assert_eq!(baseline_figure_ms(&json, "fig4a"), None);
        assert!(json.contains("\"speedup_vs_prechange\": 2.17"));
    }

    #[test]
    fn telemetry_block_is_embedded_when_present() {
        let mut r = report();
        r.telemetry = Some("{\n  \"telemetry_enabled\": false\n}\n".into());
        let json = r.to_json();
        assert!(json.contains("\"telemetry\": {"), "json: {json}");
        // The line-oriented baseline reader must still work around it.
        assert_eq!(baseline_figure_ms(&json, "fig3a"), Some(3_000));
    }

    #[test]
    fn baseline_check_flags_only_real_regressions() {
        let base = report();
        let json = base.to_json();
        // Identical timings pass.
        assert!(check_against_baseline(&base, &json, 2.0).is_ok());
        // Under 2x (plus the noise floor) passes.
        let mut ok = report();
        ok.figures[0].1 = 6_200;
        assert!(check_against_baseline(&ok, &json, 2.0).is_ok());
        // Over 2x of the committed figure fails, naming the figure.
        let mut slow = report();
        slow.figures[1].1 = 19_000;
        let err = check_against_baseline(&slow, &json, 2.0).unwrap_err();
        assert!(err.contains("fig5a"), "unexpected message: {err}");
        // Figures missing from the baseline are skipped, not failed.
        let mut new_fig = report();
        new_fig.figures.push(("fig9z".into(), 1));
        assert!(check_against_baseline(&new_fig, &json, 2.0).is_ok());
    }
}
