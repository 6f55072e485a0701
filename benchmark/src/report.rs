//! Printing and writing results: the contract's one-line JSON, the tables a
//! person reads, the results file with its provenance, and the A/A table.

use std::fmt::Write as _;
use std::process::Command;

use mpsync_telemetry::meta;

use crate::harness::{Plan, RunResult};
use crate::ladder::TELESCOPE;
use crate::spec::{self, Better};
use crate::sys;

/// A JSON number for `v`, with all its digits. A non-finite value (a metric
/// that could not be measured) is written as 0; [`contract_line`] reports
/// such a run as incorrect.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// `{"name": {"value": v, "unit": "u"}, …}`.
pub fn metrics_json(metrics: &[(&'static str, f64)]) -> String {
    let cells: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(*v),
                unit_of(name)
            )
        })
        .collect();
    format!("{{{}}}", cells.join(", "))
}

/// The contract's result object, on one line. `correct` also requires every
/// reported value to be a finite number.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct && finite,
        attempted.max(1),
        failed,
        metrics_json(metrics)
    )
}

/// One row per workload, every end-to-end metric by name with its unit.
pub fn e2e_table(rows: &[(&str, &RunResult)]) -> String {
    let mut s = format!("{:<14}", "workload");
    for m in &spec::END_TO_END {
        let _ = write!(s, " {:>22}", format!("{} [{}]", m.name, m.unit));
    }
    let _ = writeln!(
        s,
        " {:>14} {:>12} {:>8}",
        "(p99 [us])", "failed_frac", "ctx/kop"
    );
    for (name, r) in rows {
        let _ = write!(s, "{name:<14}");
        for (_, v) in r.e2e.named() {
            let _ = write!(s, " {v:>22.4}");
        }
        let _ = writeln!(
            s,
            " {:>14.4} {:>12.6} {:>8.1}",
            r.p99_us(),
            r.failed_frac(),
            r.ctx_per_kop()
        );
        for f in &r.failures {
            let _ = writeln!(s, "  FAILED: {f}");
        }
    }
    s
}

/// The windows behind one row: how steady the run was.
pub fn window_table(r: &RunResult) -> String {
    let mut s = String::new();
    for (i, w) in r.windows.iter().enumerate() {
        let _ = writeln!(
            s,
            "  window {i:>2}: {:>12.1} ops/s  p50 {:>10.2} us  p99 {:>10.2} us  cpu {:>8.3} us/op  ctx {:>7}",
            w.ops as f64 / w.secs,
            w.p50_ns / 1e3,
            w.p99_ns / 1e3,
            w.cpu_us / w.ops as f64,
            w.ctx
        );
    }
    s
}

/// Every per-layer metric by name, with its unit and what it should move.
pub fn layer_table(per_layer: &[(&'static str, f64)]) -> String {
    let mut s = String::new();
    for (name, v) in per_layer {
        let moves = spec::PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .map_or("", |m| m.moves);
        let _ = writeln!(s, "{name:<36} {v:>16.3} {:<10} -> {moves}", unit_of(name));
    }
    s
}

/// The budget table: the ladder's self times and named residuals, which sum
/// to `cluster.fwd_call_ns`.
pub fn budget_table(per_layer: &[(&'static str, f64)]) -> String {
    let get = |name: &str| {
        per_layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    };
    let total = get("cluster.fwd_call_ns");
    let mut s = String::from("where a forwarded cluster op's time goes (serial, one caller):\n");
    let mut sum = 0.0;
    for name in TELESCOPE {
        let v = get(name);
        sum += v;
        let _ = writeln!(s, "  {name:<24} {v:>12.0} ns {:>6.1} %", 100.0 * v / total);
    }
    let _ = writeln!(
        s,
        "  {:<24} {sum:>12.0} ns  (cluster.fwd_call_ns = {total:.0})",
        "sum"
    );
    let _ = writeln!(
        s,
        "  net.self_ns = net.ping_ns {:.0} + runtime.submit_ns inside it, residual {:.0}",
        get("net.ping_ns"),
        get("net.residual_ns")
    );
    s
}

/// Where the numbers came from.
pub fn provenance_json(plan: &Plan) -> String {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "{{\"git_rev\": \"{}\", \"hostname\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"seed\": {}, \"clients\": {}, \"windows\": {}, \"window_ms\": {}, \"warmup_ms\": {}}}",
        meta::git_revision(),
        meta::hostname(),
        sys::nproc(),
        rustc,
        plan.seed,
        plan.clients,
        plan.windows,
        plan.window.as_millis(),
        plan.warmup.as_millis()
    )
}

/// The results file: provenance, then each workload's figures and windows,
/// then the per-layer metrics if the run was traced.
pub fn results_json(
    plan: &Plan,
    rows: &[(&str, &RunResult)],
    per_layer: &[(&str, Vec<(&'static str, f64)>)],
) -> String {
    let mut s = format!("{{\n\"meta\": {},\n\"workloads\": [", provenance_json(plan));
    for (i, (name, r)) in rows.iter().enumerate() {
        let windows: Vec<String> = r
            .windows
            .iter()
            .map(|w| {
                format!(
                    "{{\"secs\": {}, \"ops\": {}, \"cpu_us\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"ctx\": {}}}",
                    num(w.secs), w.ops, num(w.cpu_us), num(w.p50_ns), num(w.p99_ns), w.ctx
                )
            })
            .collect();
        let _ = write!(
            s,
            "{}\n{{\"name\": \"{name}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"metrics\": {}, \"windows\": [{}]}}",
            if i > 0 { "," } else { "" },
            r.correct(),
            r.attempted,
            r.failed,
            num(r.failed_frac()),
            metrics_json(&r.e2e.named()),
            windows.join(", ")
        );
    }
    s.push_str("\n],\n\"per_layer\": {");
    for (i, (name, metrics)) in per_layer.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n\"{name}\": {}",
            if i > 0 { "," } else { "" },
            metrics_json(metrics)
        );
    }
    s.push_str("\n}\n}\n");
    s
}

/// Compares two passes of the same code cell by cell. Returns the table and
/// whether every cell agreed within its metric's bound.
pub fn aa_table(a: &[(&str, &RunResult)], b: &[(&str, &RunResult)]) -> (String, bool) {
    let mut s = format!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut ok = true;
    for ((name, ra), (_, rb)) in a.iter().zip(b) {
        for (m, ((_, va), (_, vb))) in spec::END_TO_END
            .iter()
            .zip(ra.e2e.named().into_iter().zip(rb.e2e.named()))
        {
            let worse = match m.better {
                Better::Higher => (va - vb) / va,
                Better::Lower => (vb - va) / va,
            };
            // A NaN is a breach too.
            let within = worse.abs() <= m.bound;
            let breach = !within;
            ok &= !breach;
            let _ = writeln!(
                s,
                "{name:<14} {:<14} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.0}%{}",
                m.name,
                100.0 * worse,
                100.0 * m.bound,
                if breach { "  BREACH" } else { "" }
            );
        }
        if ra.failed + rb.failed > 0 {
            ok = false;
            let _ = writeln!(
                s,
                "{name:<14} failed ops: {} then {}  BREACH",
                ra.failed, rb.failed
            );
        }
        // The simulator's own figures must repeat exactly.
        let exact = |r: &RunResult| -> Vec<(&'static str, f64)> {
            r.layer
                .iter()
                .filter(|(n, _)| n.starts_with("tilesim.mops.") || n.starts_with("tilesim.stalls"))
                .copied()
                .collect()
        };
        if exact(ra) != exact(rb) {
            ok = false;
            let _ = writeln!(
                s,
                "{name:<14} tilesim figures differ: {:?} then {:?}  BREACH",
                exact(ra),
                exact(rb)
            );
        }
    }
    (s, ok)
}
