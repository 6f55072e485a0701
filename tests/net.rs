//! Acceptance tests of the wire serving layer: pipelined loopback traffic
//! across every backend with exactly-once verification, BUSY backpressure
//! surfacing and recovery under an over-capacity load, deterministic
//! graceful drain, and both transports (TCP + Unix sockets) — each run
//! under both serving models (thread-per-connection and reactor-per-shard)
//! where the platform supports them.

use std::sync::Arc;
use std::time::Duration;

use mpsync::net::{ClientError, NetClient, NetServer, ServerConfig, ServerModel};
use mpsync::objects::seq::{keyed_counter_ops, kv_ops};
use mpsync::objects::EMPTY;
use mpsync::runtime::{Backend, RuntimeConfig, ShardedCounter, ShardedKvStore, SubmitPolicy};

const INC: u8 = keyed_counter_ops::INC as u8;

/// The serving models available on this platform. The reactor model is
/// epoll-based and therefore Linux-only.
fn models() -> Vec<ServerModel> {
    if cfg!(target_os = "linux") {
        vec![ServerModel::ThreadPerConn, ServerModel::Reactor]
    } else {
        vec![ServerModel::ThreadPerConn]
    }
}

fn counter_server(
    rt: RuntimeConfig,
    server_cfg: ServerConfig,
) -> (NetServer, std::net::SocketAddr, Arc<ShardedCounter>) {
    let svc = Arc::new(ShardedCounter::new(rt.with_max_sessions(16)));
    let server = NetServer::builder(svc.clone())
        .config(server_cfg)
        .tcp("127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let addr = server.tcp_addrs()[0];
    (server, addr, svc)
}

fn finish_counter(
    server: NetServer,
    svc: Arc<ShardedCounter>,
) -> std::collections::HashMap<u64, u64> {
    server.shutdown();
    let svc = Arc::try_unwrap(svc)
        .ok()
        .expect("server kept a service ref");
    let (totals, _stats) = svc.shutdown();
    totals
}

/// The headline acceptance: ≥4 connections, pipeline depth ≥8, all four
/// backends, both serving models. Each connection INCs a private key through
/// a full pipeline and checks the returned pre-values are exactly `0..n` —
/// any lost, duplicated, or reordered acked op breaks the sequence — then
/// the final server-side counts must equal the acks. The MP-SERVER backend
/// additionally runs externally driven, so the reactor executes ops on its
/// own core and the thread model exercises the pump fallback.
#[test]
fn pipelined_loopback_exactly_once_every_backend() {
    const CONNS: usize = 4;
    const PIPELINE: usize = 8;
    const OPS: u64 = 200;
    for model in models() {
        for backend in Backend::ALL {
            let rt = RuntimeConfig::new(2)
                .with_backend(backend)
                .with_queue_depth(64)
                .with_submit(SubmitPolicy::Block)
                .with_external_drive(backend == Backend::MpServer);
            let (server, addr, svc) = counter_server(rt, ServerConfig::default().with_model(model));
            let mut workers = Vec::new();
            for c in 0..CONNS {
                workers.push(std::thread::spawn(move || {
                    let key = c as u64;
                    let mut client = NetClient::connect_tcp(addr).expect("connect");
                    let mut pres = Vec::with_capacity(OPS as usize);
                    let mut sent = 0u64;
                    let mut pending = 0usize;
                    while (pres.len() as u64) < OPS {
                        while pending < PIPELINE && sent < OPS {
                            client.send(key, INC, 0);
                            sent += 1;
                            pending += 1;
                        }
                        client.flush().expect("flush");
                        let resp = client.recv().expect("recv").expect("premature FIN");
                        assert_eq!(resp.status, mpsync::net::frame::Status::Ok);
                        pres.push(resp.value);
                        pending -= 1;
                    }
                    (key, pres)
                }));
            }
            let mut results = Vec::new();
            for w in workers {
                results.push(w.join().expect("worker"));
            }
            let totals = finish_counter(server, svc);
            for (key, pres) in results {
                let expect: Vec<u64> = (0..OPS).collect();
                assert_eq!(
                    pres, expect,
                    "{model:?}/{backend:?} key {key}: acked sequence"
                );
                assert_eq!(
                    totals.get(&key),
                    Some(&OPS),
                    "{model:?}/{backend:?} key {key}: final count"
                );
            }
        }
    }
}

/// Over-capacity: a per-shard window of 1 under `SubmitPolicy::Fail` with 6
/// concurrent connections must surface BUSY on the wire, and the client's
/// jittered-backoff retry — seeded, so the schedule is reproducible across
/// runs — must recover every op. Pre-values `0..n` prove a BUSY-answered
/// attempt was never secretly applied.
///
/// Each worker alternates between a shard-0 key and a shard-1 key (half the
/// workers home on each reactor), so under the reactor model every other op
/// is a cross-shard submit racing the opposite reactor for the same
/// single-slot window. A reactor submitting only to its own shard would
/// never see BUSY — its submissions are serial by construction — which is
/// exactly the paper's point about servicing-core locality.
#[test]
fn busy_backpressure_surfaces_and_recovers() {
    const CONNS: usize = 6;
    const OPS: u64 = 100; // per key; every worker drives two keys
    const MAX_ROUNDS: u64 = 5;
    for model in models() {
        let rt = RuntimeConfig::new(2)
            .with_backend(Backend::MpServer)
            .with_queue_depth(1)
            .with_submit(SubmitPolicy::Fail);
        let (server, addr, svc) = counter_server(rt, ServerConfig::default().with_model(model));
        let mut base = 0u64;
        for round in 0..MAX_ROUNDS {
            let mut workers = Vec::new();
            for c in 0..CONNS {
                workers.push(std::thread::spawn(move || {
                    // Key a lands on shard 0, key b on shard 1; odd workers
                    // lead with b so the two reactors split the homes.
                    let (a, b) = (2 * c as u64, 2 * c as u64 + 1);
                    let keys = if c % 2 == 0 { [a, b] } else { [b, a] };
                    let mut client = NetClient::connect_tcp(addr)
                        .expect("connect")
                        .with_rng_seed(0xB0_5EED ^ (c as u64));
                    let mut pres = [Vec::new(), Vec::new()];
                    for _ in 0..OPS {
                        for (i, key) in keys.into_iter().enumerate() {
                            pres[i].push(client.call(key, INC, 0).expect("call with retry"));
                        }
                    }
                    (keys, pres)
                }));
            }
            for w in workers {
                let (keys, pres) = w.join().expect("worker");
                let expect: Vec<u64> = (base..base + OPS).collect();
                for (key, got) in keys.iter().zip(pres.iter()) {
                    assert_eq!(
                        got, &expect,
                        "{model:?} key {key}: exactly-once under BUSY retry"
                    );
                }
            }
            base += OPS;
            if server.stats().busy > 0 {
                break;
            }
            assert!(
                round + 1 < MAX_ROUNDS,
                "{model:?}: no BUSY observed in {MAX_ROUNDS} over-capacity rounds"
            );
        }
        let report = server.stats();
        assert!(
            report.busy > 0,
            "{model:?}: backpressure never surfaced: {report}"
        );
        let totals = finish_counter(server, svc);
        for k in 0..2 * CONNS as u64 {
            assert_eq!(totals.get(&k), Some(&base), "{model:?} key {k}");
        }
    }
}

/// Graceful drain, both models: deliver a pipelined burst without reading a
/// single ack, immediately initiate shutdown, then read. Whatever the
/// interleaving of burst arrival and the stop flag, every request the server
/// accepted must be answered — the client sees the full ack sequence, then a
/// clean FIN, and the backend totals match. No disconnect may be recorded.
#[test]
fn graceful_shutdown_drains_received_requests() {
    const BURST: u64 = 20;
    for model in models() {
        let cfg = ServerConfig {
            poll_interval: Duration::from_millis(200),
            ..ServerConfig::default()
        }
        .with_model(model);
        let rt = RuntimeConfig::new(2)
            .with_backend(Backend::MpServer)
            .with_queue_depth(64)
            .with_submit(SubmitPolicy::Block)
            .with_external_drive(true);
        let (server, addr, svc) = counter_server(rt, cfg);
        let mut client = NetClient::connect_tcp(addr).expect("connect");
        client.ping().expect("ping");
        for _ in 0..BURST {
            client.send(7, INC, 0);
        }
        client.flush().expect("flush");
        let shut = std::thread::spawn(move || server.shutdown());
        let mut pres = Vec::new();
        // The stream ends with a clean FIN only after every ack.
        while let Some(resp) = client.recv().expect("recv") {
            assert_eq!(resp.status, mpsync::net::frame::Status::Ok);
            pres.push(resp.value);
        }
        let expect: Vec<u64> = (0..BURST).collect();
        assert_eq!(
            pres, expect,
            "{model:?}: burst must be fully acked before FIN"
        );
        let report = shut.join().expect("shutdown");
        assert_eq!(report.disconnects, 0, "{model:?}: clean drain: {report}");
        assert!(
            report.acked >= BURST,
            "{model:?}: every burst op acked: {report}"
        );
        let svc = Arc::try_unwrap(svc).ok().expect("sole owner");
        let (totals, _) = svc.shutdown();
        assert_eq!(totals.get(&7), Some(&BURST), "{model:?}: drained totals");
    }
}

/// Reactor steering: two connections accepted round-robin land on the two
/// reactors; both then operate on shard-0 keys, so whichever connection was
/// dealt to reactor 1 must migrate to reactor 0 on its first op — and its
/// pipelined sequence must survive the move intact.
#[cfg(target_os = "linux")]
#[test]
fn reactor_migrates_connections_to_their_key_shard() {
    const OPS: u64 = 50;
    let rt = RuntimeConfig::new(2)
        .with_backend(Backend::MpServer)
        .with_queue_depth(64)
        .with_submit(SubmitPolicy::Block)
        .with_external_drive(true);
    let (server, addr, svc) =
        counter_server(rt, ServerConfig::default().with_model(ServerModel::Reactor));
    // Keys 0 and 2 both live on shard 0 of 2 — so of the two round-robin
    // accepted connections, at least one starts on the wrong reactor.
    let mut workers = Vec::new();
    for key in [0u64, 2u64] {
        workers.push(std::thread::spawn(move || {
            let mut client = NetClient::connect_tcp(addr).expect("connect");
            let mut pres = Vec::new();
            for _ in 0..OPS {
                pres.push(client.call(key, INC, 0).expect("call"));
            }
            (key, pres)
        }));
    }
    for w in workers {
        let (key, pres) = w.join().expect("worker");
        assert_eq!(pres, (0..OPS).collect::<Vec<_>>(), "key {key}");
    }
    let stats = server.stats();
    assert!(
        stats.migrated >= 1,
        "a wrong-reactor connection must migrate: {stats}"
    );
    let totals = finish_counter(server, svc);
    assert_eq!(totals.get(&0), Some(&OPS));
    assert_eq!(totals.get(&2), Some(&OPS));
}

/// The Unix-domain transport speaks the same protocol under both models,
/// and shutdown unlinks the socket file.
#[test]
fn unix_socket_roundtrip_and_cleanup() {
    for (i, model) in models().into_iter().enumerate() {
        let path =
            std::env::temp_dir().join(format!("mpsync-net-test-{}-{i}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let svc = Arc::new(ShardedCounter::new(
            RuntimeConfig::new(2).with_max_sessions(4),
        ));
        let server = NetServer::builder(svc.clone())
            .config(ServerConfig::default().with_model(model))
            .uds(&path)
            .start()
            .expect("start");
        assert_eq!(server.uds_paths(), std::slice::from_ref(&path));
        let mut client = NetClient::connect_uds(&path).expect("connect");
        for i in 0..10 {
            assert_eq!(client.call(5, INC, 0).expect("call"), i);
        }
        drop(client);
        server.shutdown();
        assert!(!path.exists(), "socket file must be unlinked on shutdown");
    }
}

/// A KV store served over the wire: raw `(key, op, arg)` words behave like
/// the native `KvSession`, and opcodes beyond the service's range bounce.
#[test]
fn kv_store_over_the_wire() {
    for model in models() {
        let store = Arc::new(ShardedKvStore::new(
            RuntimeConfig::new(2).with_max_sessions(4),
        ));
        let server = NetServer::builder(store.clone())
            .config(
                ServerConfig::default()
                    .with_max_op(kv_ops::SUB as u8)
                    .with_model(model),
            )
            .tcp("127.0.0.1:0")
            .expect("bind")
            .start()
            .expect("start");
        let addr = server.tcp_addrs()[0];
        let mut client = NetClient::connect_tcp(addr).expect("connect");
        assert_eq!(client.call(7, kv_ops::GET as u8, 0).expect("get"), EMPTY);
        assert_eq!(client.call(7, kv_ops::PUT as u8, 99).expect("put"), EMPTY);
        assert_eq!(client.call(7, kv_ops::GET as u8, 0).expect("get"), 99);
        assert_eq!(client.call(7, kv_ops::ADD as u8, 1).expect("add"), 100);
        assert_eq!(client.call(7, kv_ops::DEL as u8, 0).expect("del"), 100);
        match client.call(7, kv_ops::SUB as u8 + 1, 0) {
            Err(ClientError::Rejected(_)) => {}
            other => panic!("out-of-range opcode must bounce, got {other:?}"),
        }
        server.shutdown();
        let store = Arc::try_unwrap(store).ok().expect("sole owner");
        let (map, _) = store.shutdown();
        assert!(map.is_empty(), "DEL removed the only key: {map:?}");
    }
}

/// One connection pipelines a burst — ops on keys of both shards,
/// interleaved with a ping, an out-of-range key and an opcode past
/// `max_op` — and flushes it whole, so the server finds many complete
/// requests in its buffer and serves them as one run. Replies must arrive
/// in request order with the right statuses, each key's pre-values strictly
/// sequential; and the ops must have reached the shard servers as batches
/// (`batch_hist.max() > 1`, which one connection submitting op by op can
/// never produce).
#[test]
fn pipelined_run_keeps_request_order_and_batches() {
    use mpsync::net::frame::{reject, Status};
    const BURSTS: u64 = 20;
    const GET: u8 = keyed_counter_ops::GET as u8;
    // Keys 0 and 2 live on shard 0, key 1 on shard 1.
    const KEYS: [u64; 3] = [0, 1, 2];
    for model in models() {
        let rt = RuntimeConfig::new(2)
            .with_backend(Backend::MpServer)
            .with_submit(SubmitPolicy::Block);
        let cfg = ServerConfig::default().with_max_op(GET).with_model(model);
        let (server, addr, svc) = counter_server(rt, cfg);
        let mut client = NetClient::connect_tcp(addr).expect("connect");
        let mut pre = [0u64; 3];
        for burst in 0..BURSTS {
            // (request id, expected status, expected value)
            let mut want = Vec::new();
            want.push((client.send_ping(), Status::Ok, 0));
            for round in 0..4 {
                for (k, &key) in KEYS.iter().enumerate() {
                    want.push((client.send(key, INC, 0), Status::Ok, pre[k]));
                    pre[k] += 1;
                }
                match round {
                    0 => want.push((client.send_ping(), Status::Ok, 0)),
                    1 => want.push((
                        client.send(mpsync::runtime::MAX_KEY, INC, 0),
                        Status::BadRequest,
                        reject::KEY_RANGE,
                    )),
                    2 => want.push((
                        client.send(1, GET + 1, 0),
                        Status::BadRequest,
                        reject::OP_RANGE,
                    )),
                    _ => want.push((client.send(1, GET, 0), Status::Ok, pre[1])),
                }
            }
            client.flush().expect("flush");
            for (id, status, value) in want {
                let r = client.recv().expect("recv").expect("premature FIN");
                assert_eq!(
                    (r.id, r.status, r.value),
                    (id, status, value),
                    "{model:?}: burst {burst}"
                );
            }
        }
        let stats = svc.stats();
        assert!(
            stats.batch_hist().max() > 1,
            "{model:?}: a pipelined run must reach a shard as a batch: {:?}",
            stats.batch_hist()
        );
        let report = server.stats();
        assert_eq!(report.bad_requests, 2 * BURSTS, "{model:?}: {report}");
        assert_eq!(report.requests, 15 * BURSTS, "{model:?}: {report}");
        drop(client);
        let totals = finish_counter(server, svc);
        for (k, key) in KEYS.iter().enumerate() {
            assert_eq!(totals.get(key), Some(&pre[k]), "{model:?}: key {key}");
        }
    }
}
