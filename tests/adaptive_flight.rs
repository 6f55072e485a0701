//! A live mode switch of the adaptive backend stays observable: epochs,
//! `shard_backend()` and `BackendSwitch` flight events.
//!
//! This is its own test binary, so its own process: the flight recorder is
//! one process-wide ring of 256 events, and tests running beside it in one
//! binary (every runtime records a `backend` event when it is built) can
//! evict the event it looks for between the write and the read.

use mpsync::objects::seq::{keyed_counter_dispatch, KeyedCounters};
use mpsync::runtime::{Backend, Runtime, RuntimeConfig};
use mpsync_telemetry as telemetry;

type Keyed = Runtime<KeyedCounters, fn(&mut KeyedCounters, u64, u64, u64) -> u64>;

fn keyed_runtime(config: RuntimeConfig) -> Keyed {
    Runtime::new(config, |_| KeyedCounters::new(), keyed_counter_dispatch)
}

// ---------------------------------------------------------------------------
// Observability: every switch bumps the shard's epoch, is reflected by
// shard_backend(), and lands in the flight recorder (which the admin
// endpoint serves) as a BackendSwitch event encoding from → to, numbered
// exactly as the `backend` event a fixed runtime of that backend records.
// ---------------------------------------------------------------------------

#[test]
fn switches_are_observable_via_epoch_and_flight_events() {
    // Adaptive, its one shard pinned to Lock, so only this test's own
    // `force_backend` calls move its mode: the controller leaves pinned
    // shards alone.
    let rt = keyed_runtime(
        RuntimeConfig::new(1)
            .with_backend(Backend::Adaptive)
            .with_max_sessions(1)
            .with_queue_depth(4)
            .with_max_batch(8),
    );
    assert!(rt.force_backend(0, Backend::Lock));
    assert_eq!(rt.shard_backend(0), Backend::Lock, "adaptive starts locked");
    assert_eq!(rt.swap_epoch(0), 0);

    // The flight recorder (always on, feature-independent) keeps the last
    // events of this process, so each check reads a fresh snapshot right
    // after its events and asserts containment.
    let recorded = |kind| -> Vec<u64> {
        telemetry::flight_snapshot()
            .into_iter()
            .filter(|e| e.kind == kind && e.a == 0)
            .map(|e| e.b)
            .collect()
    };

    // Walk Lock → MpServer → Comb → Lock; each edge is one epoch and one
    // switch event whose payload encodes from << 8 | to.
    let mut from = Backend::Lock;
    for (i, to) in [Backend::MpServer, Backend::Comb, Backend::Lock]
        .into_iter()
        .enumerate()
    {
        assert!(rt.force_backend(0, to));
        assert_eq!(rt.shard_backend(0), to, "live mode reflects the switch");
        assert_eq!(rt.swap_epoch(0), i as u64 + 1, "each switch bumps epoch");
        let edge = (from as u64) << 8 | to as u64;
        assert!(
            recorded(telemetry::FlightKind::BackendSwitch).contains(&edge),
            "flight recorder missing switch {from:?} → {to:?}"
        );
        from = to;
    }
    // Re-forcing the current mode is idempotent: no epoch, no event.
    assert!(rt.force_backend(0, Backend::Lock));
    assert_eq!(rt.swap_epoch(0), 3);
    // Every fixed backend is a mode; only Adaptive itself is refused.
    assert!(!rt.force_backend(0, Backend::Adaptive));
    // The JSON rendering the admin endpoint serves names the kind.
    assert!(telemetry::flight_events_json(&telemetry::flight_snapshot()).contains("backend_switch"));

    // A fixed runtime of each backend records the same number for it in
    // its `backend` event that the switches above used for its mode,
    // reports that backend and never switches.
    for b in Backend::ALL {
        let fixed = keyed_runtime(RuntimeConfig::new(1).with_backend(b).with_max_sessions(1));
        assert!(
            recorded(telemetry::FlightKind::Backend).contains(&(b as u64)),
            "{b:?}: backend event must carry its mode number"
        );
        assert_eq!(fixed.shard_backend(0), b);
        assert_eq!(fixed.swap_epoch(0), 0);
        assert!(!fixed.force_backend(0, Backend::Lock));
        fixed.shutdown();
    }
    rt.shutdown();
}
