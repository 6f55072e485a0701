//! End-to-end tests of the admin stats endpoint: a live server answers
//! `Stat` requests on its normal client listeners, with and without the
//! telemetry feature (the snapshot's always-on sections must not depend on
//! it).

use std::sync::{Arc, Mutex, MutexGuard};

use mpsync_net::frame::trace_word;
use mpsync_net::{AdminClient, NetClient, NetServer, ServerConfig, STAT_SNAPSHOT_VERSION};
use mpsync_objects::seq::keyed_counter_ops;
use mpsync_runtime::{Backend, RuntimeConfig, ShardedCounter};

const INC: u8 = keyed_counter_ops::INC as u8;

/// Span rings are process-global and scraping *drains* them: tests that
/// fetch or drain spans must not run concurrently, or one test's scrape
/// consumes another's spans mid-assertion.
static SCRAPE_LOCK: Mutex<()> = Mutex::new(());

fn scrape_lock() -> MutexGuard<'static, ()> {
    SCRAPE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn start_server() -> (NetServer, std::net::SocketAddr) {
    let svc = Arc::new(ShardedCounter::new(
        RuntimeConfig::new(2)
            .with_backend(Backend::MpServer)
            .with_max_sessions(16),
    ));
    let server = NetServer::builder(svc)
        .config(ServerConfig::default().with_max_op(keyed_counter_ops::GET as u8))
        .tcp("127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let addr = server.tcp_addrs()[0];
    (server, addr)
}

/// The span track a server records a traced op's hop span on: the trace
/// id in the cross-node namespace (`telemetry::trace_track`).
fn hop_track(trace: u64) -> u32 {
    mpsync_telemetry::trace_track(trace_word::id(trace))
}

#[test]
fn snapshot_reflects_served_traffic() {
    let _guard = scrape_lock();
    let (server, addr) = start_server();
    let mut client = NetClient::connect_tcp(addr).expect("client connect");
    for key in 0..20u64 {
        let trace = client.new_trace();
        client.call_traced(key, INC, 1, trace).expect("op");
    }

    let version = format!("\"version\": {STAT_SNAPSHOT_VERSION}");
    let mut admin = AdminClient::connect_tcp(addr).expect("admin connect");
    let json = admin.fetch_snapshot().expect("snapshot");
    // Versioned, sourced, and carrying the always-on sections.
    assert_eq!(STAT_SNAPSHOT_VERSION, 2);
    assert!(json.contains(&version), "{json}");
    assert!(json.contains("\"source\": \"net\""));
    assert!(json.contains("\"server\": {"));
    assert!(json.contains("\"requests\": 20"), "{json}");
    assert!(json.contains("\"acked\": 20"), "{json}");
    // Runtime per-shard stats rode along (20 ops across 2 shards).
    assert!(json.contains("\"total_ops\": 20"), "{json}");
    assert!(json.contains("\"batch_hist\""));
    // Flight recorder dump is present even with telemetry off.
    assert!(json.contains("\"flight\""));
    assert!(json.contains("\"events\""));

    // The span dump kind: non-empty exactly when telemetry is on.
    let spans = admin.fetch_spans().expect("spans");
    if mpsync_telemetry::ENABLED {
        assert!(!spans.is_empty(), "no spans with telemetry on");
    } else {
        assert!(spans.is_empty(), "spans with telemetry off");
    }

    // A second scrape still answers (the admin connection is a normal
    // client connection: persistent, pollable).
    let again = admin.fetch_snapshot().expect("second snapshot");
    assert!(again.contains(&version));
    server.shutdown();
}

#[test]
fn unknown_stat_kind_answers_with_snapshot() {
    let (server, addr) = start_server();
    let mut admin = AdminClient::connect_tcp(addr).expect("admin connect");
    let reply = admin.fetch(250).expect("fetch unknown kind");
    assert_eq!(reply.kind, 250, "kind echoes even when unknown");
    let json = String::from_utf8_lossy(&reply.payload);
    assert!(
        json.contains(&format!("\"version\": {STAT_SNAPSHOT_VERSION}")),
        "{json}"
    );
    server.shutdown();
}

#[test]
fn traced_ops_leave_hop_spans_when_enabled() {
    if !mpsync_telemetry::ENABLED {
        return;
    }
    let _guard = scrape_lock();
    let (server, addr) = start_server();
    let mut client = NetClient::connect_tcp(addr).expect("client connect");
    let trace = client.new_trace();
    assert_ne!(trace, 0);
    let track = hop_track(trace);
    client.call_traced(1, INC, 1, trace).expect("traced op");

    // The server-side hop span travels on the trace's track.
    let mut admin = AdminClient::connect_tcp(addr).expect("admin connect");
    let spans = admin.fetch_spans().expect("spans");
    assert!(
        spans.iter().any(|s| s.track == track
            && s.algo == mpsync_telemetry::Algo::Net
            && s.lane == mpsync_telemetry::Lane::Serve),
        "no serve hop span on track {track:#x} in {spans:?}"
    );
    // The client-side root span stayed local (scrape only drains the
    // server process's rings; here both are one process, so it may appear
    // in the same dump — just assert it was recorded somewhere).
    let local = mpsync_telemetry::drain_spans();
    let all = spans.iter().chain(local.iter());
    assert!(
        all.clone().any(|s| s.track == track
            && s.algo == mpsync_telemetry::Algo::Net
            && s.lane == mpsync_telemetry::Lane::ClientWait),
        "no client_wait root span on track {track:#x}"
    );
    server.shutdown();
}

#[test]
fn stat_kind_spans_drains_rather_than_replays() {
    if !mpsync_telemetry::ENABLED {
        return;
    }
    let _guard = scrape_lock();
    let (server, addr) = start_server();
    let mut client = NetClient::connect_tcp(addr).expect("client connect");
    let trace = client.new_trace();
    let track = hop_track(trace);
    client.call_traced(1, INC, 1, trace).expect("traced op");

    let mut admin = AdminClient::connect_tcp(addr).expect("admin connect");
    let tracked = |spans: &[mpsync_telemetry::SpanEvent]| {
        spans
            .iter()
            .filter(|s| s.track == track && s.lane == mpsync_telemetry::Lane::Serve)
            .count()
    };
    // The traced serve span shows up in exactly one drain: the first.
    let first = admin.fetch_spans().expect("first drain");
    let second = admin.fetch_spans().expect("second drain");
    assert_eq!(tracked(&first), 1, "hop span missing: {first:?}");
    assert_eq!(tracked(&second), 0, "hop span replayed: {second:?}");
    server.shutdown();
}
