//! What one invocation does with a workload: the untraced run that yields
//! the end-to-end metrics, and the traced run that yields the per-layer
//! ones. End-to-end metrics always come from the untraced run.

use std::path::Path;

use crate::harness::{Plan, RunResult};
use crate::span::write_chrome_trace;
use crate::{ladder, probes, spec, sys, workloads};

/// The workload-independent per-layer metrics: the serial ladder, then the
/// layer probes. The same procedure on every traced run.
pub fn shared_layers(clients: usize) -> Vec<(&'static str, f64)> {
    let mut out = ladder::run();
    out.extend(probes::run(clients));
    out
}

/// A traced run's product.
pub struct Traced {
    /// The untraced quarter-length pass.
    pub untraced: RunResult,
    /// The traced quarter-length pass.
    pub traced: RunResult,
    /// Every `spec::PER_LAYER` metric, in that order.
    pub per_layer: Vec<(&'static str, f64)>,
}

/// Runs `name` twice at a quarter of `plan`'s windows — spans off, then on —
/// and assembles every per-layer metric: `shared` first, then the counters
/// of the traced pass's own system (zero where a layer took no part), then
/// the harness's own. With `out_dir`, the spans are written there as a
/// Chrome trace.
pub fn traced(
    name: &str,
    plan: &Plan,
    shared: &[(&'static str, f64)],
    out_dir: Option<&Path>,
) -> Option<Traced> {
    let quarter = plan.quarter();
    let (untraced, _) = workloads::run(name, &quarter, false)?;
    let (traced, spans) = workloads::run(name, &quarter, true)?;
    if let Some(dir) = out_dir {
        let path = dir.join(format!("trace-{name}.json"));
        if let Err(e) = write_chrome_trace(&path, name, &spans) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    let own = [
        ("loadgen.p99_us", traced.p99_us()),
        ("harness.construct_ms", traced.construct_ms),
        (
            "harness.trace_overhead_frac",
            1.0 - traced.e2e.ops_per_s / untraced.e2e.ops_per_s,
        ),
        ("proc.peak_rss_mb", sys::usage().max_rss_kb as f64 / 1024.0),
        ("proc.ctx_switches_per_kop", traced.ctx_per_kop()),
    ];
    let per_layer = spec::PER_LAYER
        .iter()
        .map(|m| {
            let found = shared
                .iter()
                .chain(&traced.layer)
                .chain(&own)
                .find(|(n, _)| *n == m.name);
            (m.name, found.map_or(0.0, |&(_, v)| v))
        })
        .collect();
    Some(Traced {
        untraced,
        traced,
        per_layer,
    })
}
