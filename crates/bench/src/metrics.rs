//! The native telemetry phase behind `repro --metrics` / `--metrics-json` /
//! `--trace`: short instrumented counter workloads driven through the real
//! (emulated-UDN) executors, one phase per construction, with the
//! process-wide telemetry state reset between phases so each report
//! describes exactly one construction.
//!
//! With the `telemetry` feature off every phase comes back empty
//! ([`TelemetryReport::is_empty`]) and the callers degrade to a notice —
//! the recording paths compile to no-ops, which is the point.

use std::sync::Arc;

use mpsync_core::{ApplyOp, CcSynch, HybComb, MpServer};
use mpsync_objects::seq::counter_dispatch;
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{trace, SpanEvent, TelemetryReport};
use mpsync_udn::{Fabric, FabricConfig};

type CounterFn = fn(&mut u64, u64, u64) -> u64;

const COUNTER: CounterFn = counter_dispatch;

/// One executor phase: the construction driven, its captured histograms and
/// counters, and the raw op-lifecycle spans drained from every thread.
pub struct MetricsPhase {
    /// Phase name (the construction driven).
    pub name: &'static str,
    /// Histograms + counters captured at the end of the phase.
    pub report: TelemetryReport,
    /// Spans drained from every thread's ring, sorted by start time.
    pub spans: Vec<SpanEvent>,
}

fn capture(name: &'static str) -> MetricsPhase {
    MetricsPhase {
        name,
        report: TelemetryReport::capture(),
        spans: telemetry::drain_spans(),
    }
}

/// Drives `threads` client threads × `ops` fetch-and-increments through
/// MP-SERVER, HYBCOMB and CC-SYNCH, capturing one [`MetricsPhase`] per
/// construction (queue-wait, serve, client-wait, combiner-hold histograms
/// plus the UDN's send/receive/occupancy view underneath MP-SERVER and
/// HYBCOMB).
pub fn run_native_metrics(threads: usize, ops: u64) -> Vec<MetricsPhase> {
    let threads = threads.max(1);
    let mut phases = Vec::new();

    telemetry::reset();
    {
        let fabric = fabric_for(threads + 1);
        let server = MpServer::spawn(
            fabric.register_any().expect("fabric sized for the server"),
            0u64,
            COUNTER,
        );
        hammer_native(threads, ops, || {
            server.client(fabric.register_any().expect("fabric sized for clients"))
        });
        server.shutdown();
        phases.push(capture("mp-server"));
    }

    telemetry::reset();
    {
        let fabric = fabric_for(threads);
        let hc = HybComb::new(threads, 200, 0u64, COUNTER);
        hammer_native(threads, ops, || {
            hc.handle(fabric.register_any().expect("fabric sized for clients"))
        });
        phases.push(capture("hybcomb"));
    }

    telemetry::reset();
    {
        let cs = CcSynch::new(threads, 200, 0u64, COUNTER);
        hammer_native(threads, ops, || cs.handle());
        phases.push(capture("cc-synch"));
    }

    telemetry::reset();
    phases
}

/// Runs `ops` fetch-and-increments on each of `threads` native threads, each
/// owning a handle produced by `mk`.
fn hammer_native<H, F>(threads: usize, ops: u64, mk: F)
where
    H: ApplyOp + Send + 'static,
    F: Fn() -> H,
{
    let joins: Vec<_> = (0..threads)
        .map(|_| {
            let mut h = mk();
            std::thread::spawn(move || {
                for _ in 0..ops {
                    h.apply(0, 0);
                }
            })
        })
        .collect();
    for j in joins {
        if let Err(payload) = j.join() {
            std::panic::resume_unwind(payload);
        }
    }
}

/// A TILE-Gx-shaped UDN fabric sized for `n` endpoints.
fn fabric_for(n: usize) -> Arc<Fabric> {
    Arc::new(Fabric::new(FabricConfig::new(n.div_ceil(4).max(1))))
}

/// Renders the phases as one JSON object:
/// `{"telemetry_enabled": …, "phases": {"mp-server": {…}, …}}` where each
/// phase body is a [`TelemetryReport::to_json`] document.
pub fn metrics_json(phases: &[MetricsPhase]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"telemetry_enabled\": {},\n",
        telemetry::ENABLED
    ));
    s.push_str("  \"phases\": {\n");
    for (i, p) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        // Indent the nested report so the document stays readable.
        let body = p.report.to_json().trim_end().replace('\n', "\n    ");
        s.push_str(&format!("    \"{}\": {body}{comma}\n", p.name));
    }
    s.push_str("  }\n}\n");
    s
}

/// Merges every phase's spans into one Chrome `trace_event` document
/// (load via `chrome://tracing` or <https://ui.perfetto.dev>). Spans carry
/// their construction in the event category, so the phases remain
/// distinguishable on the shared timeline.
pub fn chrome_trace(phases: &[MetricsPhase]) -> String {
    let spans: Vec<SpanEvent> = phases
        .iter()
        .flat_map(|p| p.spans.iter().copied())
        .collect();
    trace::chrome_trace_json(&spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsync_telemetry::{Algo, Lane};

    #[test]
    fn phases_cover_the_three_message_passing_executors() {
        let phases = run_native_metrics(2, 50);
        let names: Vec<&str> = phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["mp-server", "hybcomb", "cc-synch"]);
        let json = metrics_json(&phases);
        assert!(json.contains("\"phases\""));
        let trace = chrome_trace(&phases);
        assert!(trace.contains("traceEvents"));
        if telemetry::ENABLED {
            // Each phase must expose the op-lifecycle histograms the
            // acceptance criteria name: queue-wait and serve latencies.
            let mp = &phases[0].report;
            assert!(mp.hist(Algo::MpServer, Lane::QueueWait).is_some());
            assert!(mp.hist(Algo::MpServer, Lane::Serve).is_some());
            // HYBCOMB's combiner executes its own op inline, so under low
            // contention Serve spans may be absent — the combiner Hold span
            // is recorded on every round.
            let hyb = &phases[1].report;
            assert!(hyb.hist(Algo::HybComb, Lane::Hold).is_some());
            let cc = &phases[2].report;
            assert!(cc.hist(Algo::CcSynch, Lane::Serve).is_some());
            // And the spans must be real: MP-SERVER and HYBCOMB timelines
            // are the ones --trace promises.
            assert!(phases[0].spans.iter().any(|s| s.algo == Algo::MpServer));
            assert!(phases[1].spans.iter().any(|s| s.algo == Algo::HybComb));
        } else {
            assert!(phases.iter().all(|p| p.report.is_empty()));
            assert!(json.contains("\"telemetry_enabled\": false"));
        }
    }
}
