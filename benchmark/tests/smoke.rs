//! Smoke: every workload runs with 0.2 s windows and reports every named
//! metric as a finite number; a traced run reports every per-layer metric
//! and its ladder adds up.

use std::time::Duration;

use mpsync_benchmark::harness::Plan;
use mpsync_benchmark::ladder::TELESCOPE;
use mpsync_benchmark::{report, run, spec, sys, workloads};

fn tiny_plan() -> Plan {
    Plan {
        seed: 7,
        clients: sys::nproc().min(4),
        warmup: Duration::from_millis(100),
        windows: 4,
        window: Duration::from_millis(200),
        epochs: 2,
        partition: true,
    }
}

#[test]
fn every_workload_reports_every_metric_and_the_ladder_adds_up() {
    let plan = tiny_plan();
    for w in &spec::WORKLOADS {
        let (r, spans) = workloads::run(w.name, &plan, false).expect("a listed workload");
        assert!(r.correct(), "{}: {:?}", w.name, r.failures);
        assert!(r.attempted > 0 && spans.is_empty(), "{}", w.name);
        let named = r.e2e.named();
        assert_eq!(
            named.map(|(n, _)| n).to_vec(),
            spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (name, v) in named {
            assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name);
        }
        let line = report::contract_line(r.correct(), r.attempted, r.failed, &named);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(!line.contains('\n'));
    }
    assert!(workloads::run("no-such-workload", &plan, false).is_none());

    // A traced run: every per-layer metric, in the order of the spec, finite.
    let shared = run::shared_layers(plan.clients);
    let t = run::traced("wire-open", &plan, &shared, None).expect("a listed workload");
    assert!(
        t.untraced.correct() && t.traced.correct(),
        "{:?}",
        t.traced.failures
    );
    assert_eq!(
        t.per_layer.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        spec::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    let get = |name: &str| t.per_layer.iter().find(|(n, _)| *n == name).expect(name).1;
    for (name, v) in &t.per_layer {
        assert!(v.is_finite(), "{name} = {v}");
    }
    // Every rung and probe measured something; this workload's own counters
    // are live, another workload's read zero.
    for name in [
        "udn.roundtrip_ns",
        "net.call_ns",
        "cluster.fwd_call_ns",
        "tilesim.mops.hybcomb",
    ] {
        assert!(get(name) > 0.0, "{name}");
    }
    assert!(get("loadgen.send_p50_us") > 0.0);
    assert_eq!(get("cluster.fwd_frac"), 0.0);
    // The self times and named residuals telescope to the last rung.
    let sum: f64 = TELESCOPE.iter().map(|n| get(n)).sum();
    let total = get("cluster.fwd_call_ns");
    assert!((sum - total).abs() <= 1e-6 * total, "{sum} vs {total}");
    let split = get("net.ping_ns") + get("net.residual_ns") + get("runtime.submit_ns");
    assert!((split - get("net.call_ns")).abs() <= 1e-6 * total);
    // The paper's ordering, on the simulator's exact figures.
    assert!(get("tilesim.mops.mp_server") > get("tilesim.mops.shm_server"));
    assert!(get("tilesim.mops.hybcomb") > get("tilesim.mops.cc_synch"));
}
