//! Layer probes: one short measurement per layer of what the ladder cannot
//! show — streaming and contended behaviour, useful-work ratios, timers, the
//! applications' op costs, connection set-up, the cluster protocol without a
//! transport, a live handoff, and the simulator's deterministic figures.
//!
//! Probes name a construction or backend only where the ROADMAP keeps it.
//! `spec::PER_LAYER` records which end-to-end metric each is expected to
//! move, on which workload.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpsync_apps::AppSuite;
use mpsync_cluster::tcp::admin_handoff;
use mpsync_cluster::{ModelStore, NodeConfig, NodeCore, NodeId, Outbox};
use mpsync_core::{ApplyOp, HybComb, LockCs, McsLock, MpServer, DEFAULT_MAX_OPS};
use mpsync_net::frame::NodeMsg;
use mpsync_net::NetClient;
use mpsync_objects::seq::kv_ops;
use mpsync_runtime::{Backend, RuntimeConfig, TimerWheel};
use mpsync_udn::{Fabric, FabricConfig};

use crate::harness::Plan;
use crate::hist::median;
use crate::ladder::{fetch_add, median_ns, FetchAdd};
use crate::rng::Rng;
use crate::workloads::cluster_fwd::Cluster;
use crate::workloads::wire::Wire;
use crate::workloads::{native_hot, sim_counter};

/// How long each contended or streaming probe runs.
const SPIN: Duration = Duration::from_millis(300);
const BUDGET: Duration = Duration::from_millis(150);

type Metrics = Vec<(&'static str, f64)>;

/// Runs every probe. `clients` is the plan's load-generator count.
pub fn run(clients: usize) -> Metrics {
    let mut out = Vec::new();
    out.extend(udn_stream());
    out.extend(core_contended(clients));
    out.extend(runtime_hot(clients));
    out.extend(timers());
    out.extend(apps(clients));
    out.push(("net.connect_us", net_connect()));
    out.push(("cluster.core_op_ns", cluster_core()));
    out.push(("cluster.handoff_pause_ms", handoff_pause()));
    out.extend(tilesim());
    out
}

/// One producer streaming three-word messages into a draining consumer.
fn udn_stream() -> Metrics {
    let fabric = Arc::new(Fabric::new(FabricConfig::new(2)));
    let producer = fabric.register_any().expect("a free hardware queue");
    let mut consumer = fabric.register_any().expect("a free hardware queue");
    let to = consumer.id();
    let stop = Arc::new(AtomicBool::new(false));
    let drain = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut buf = [0u64; 3];
            // SeqCst pairs with the producer's store after its last send.
            while !(stop.load(Ordering::SeqCst) && consumer.is_queue_empty()) {
                if consumer.try_receive(&mut buf) == 0 {
                    std::hint::spin_loop();
                }
            }
        })
    };
    let started = Instant::now();
    let mut sends = 0u64;
    while started.elapsed() < SPIN {
        for _ in 0..64 {
            producer
                .send(to, &[1, 2, 3])
                .expect("the consumer is registered");
        }
        sends += 64;
    }
    let secs = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::SeqCst);
    drain.join().expect("udn consumer thread panicked");
    vec![
        ("udn.stream_words_per_s", sends as f64 * 3.0 / secs),
        (
            "udn.stream_blocked_frac",
            fabric.stats().blocked_sends as f64 / sends as f64,
        ),
    ]
}

/// Ops per second of `threads` handles applying flat out for [`SPIN`].
fn contended<H: ApplyOp + Send>(handles: Vec<H>) -> f64 {
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let ops: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = handles
            .into_iter()
            .map(|mut h| {
                let stop = &stop;
                s.spawn(move || {
                    let mut n = 0u64;
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        black_box(h.apply(0, 1));
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        std::thread::sleep(SPIN);
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .map(|w| w.join().expect("contended worker panicked"))
            .sum()
    });
    ops as f64 / started.elapsed().as_secs_f64()
}

/// The constructions under `threads`-way contention on one counter.
fn core_contended(threads: usize) -> Metrics {
    let fabric = Arc::new(Fabric::new(FabricConfig::new(threads + 1)));
    let endpoint = || fabric.register_any().expect("a free hardware queue");
    let mut out = Vec::new();
    {
        let server = MpServer::spawn(endpoint(), 0u64, fetch_add as FetchAdd);
        let clients = (0..threads).map(|_| server.client(endpoint())).collect();
        out.push(("core.mp_server.contended_ops_per_s", contended(clients)));
        server.shutdown();
    }
    {
        let hc = HybComb::new(threads, DEFAULT_MAX_OPS, 0u64, fetch_add as FetchAdd);
        let handles = (0..threads).map(|_| hc.handle(endpoint())).collect();
        out.push(("core.hybcomb.contended_ops_per_s", contended(handles)));
        let stats = hc.stats();
        out.push(("core.hybcomb.combining_rate", stats.combining_rate()));
        out.push(("core.hybcomb.cas_per_op", stats.cas_per_op()));
    }
    {
        let lock = LockCs::<u64, McsLock, FetchAdd>::new(0, fetch_add);
        let handles = (0..threads).map(|_| lock.handle()).collect();
        out.push(("core.mcs.contended_ops_per_s", contended(handles)));
    }
    out
}

/// `native-hot`'s load, briefly: what the runtime's batching achieves on the
/// default backend, and whether `Backend::Adaptive` ever switches under it.
fn runtime_hot(clients: usize) -> Metrics {
    let plan = Plan {
        seed: 1,
        clients,
        warmup: Duration::from_millis(50),
        windows: 1,
        window: SPIN,
        epochs: 1,
        partition: true,
    };
    let (_, _, hot) = native_hot::run_on(&plan, false, RuntimeConfig::new(1));
    let adaptive = RuntimeConfig::new(1).with_backend(Backend::Adaptive);
    let (_, _, switched) = native_hot::run_on(&plan, false, adaptive);
    vec![
        ("runtime.hot.avg_batch", hot.avg_batch),
        ("runtime.hot.rejected", hot.rejected as f64),
        ("runtime.adaptive.switches", switched.switches as f64),
    ]
}

/// Arming a timer, and advancing the wheel past one.
fn timers() -> Metrics {
    const TIMERS: u64 = 100_000;
    const TICK_NS: u64 = 1_000_000;
    let mut rng = Rng::new(0x71);
    let mut wheel = TimerWheel::<u64>::new(TICK_NS);
    let mut armed = 0u64;
    let arm = median_ns(TIMERS as usize, BUDGET, || {
        // Deadlines spread over the next second, like session TTLs.
        wheel.insert(TICK_NS + rng.below(1_000 * TICK_NS), armed);
        armed += 1;
    });
    let mut fired = Vec::with_capacity(armed as usize);
    let started = Instant::now();
    for tick in 1..=1_002 {
        wheel.advance(tick * TICK_NS, &mut fired);
    }
    let fire = started.elapsed().as_nanos() as f64 / fired.len().max(1) as f64;
    assert_eq!(fired.len() as u64, armed, "every armed timer fires once");
    vec![
        ("runtime.timer.arm_ns", arm),
        ("runtime.timer.fire_ns", fire),
    ]
}

/// Median cost of each application's call from one thread, and how late a
/// 50 ms session actually disappears.
fn apps(shards: usize) -> Metrics {
    const CALLS: usize = 20_000;
    let suite = AppSuite::new(RuntimeConfig::new(shards));
    let mut s = suite.session().expect("a fresh suite admits sessions");
    let mut rng = Rng::new(0x72);
    let mut key = move || 1 + rng.below(65_536);
    for account in 1..=64 {
        s.ledger()
            .deposit(account, 1 << 40)
            .expect("opening deposit");
    }
    let mut out = Vec::new();
    let mut n = 0u32;
    out.push((
        "apps.ratelimit.op_ns",
        median_ns(CALLS, BUDGET, || {
            black_box(s.rate().acquire(key(), 1).expect("acquire"));
        }),
    ));
    out.push((
        "apps.leaderboard.op_ns",
        median_ns(CALLS, BUDGET, || {
            black_box(s.board().add(key(), 3).expect("add"));
        }),
    ));
    out.push((
        "apps.leaderboard.topk_ns",
        median_ns(CALLS / 10, BUDGET, || {
            black_box(s.board().top_k(10).expect("top_k"));
        }),
    ));
    out.push((
        "apps.pq.op_ns",
        median_ns(CALLS, BUDGET, || {
            n += 1;
            if n % 2 == 1 {
                black_box(
                    s.queue()
                        .push(1 + (n % 64) as u64, n % 100, n)
                        .expect("push"),
                );
            } else {
                black_box(s.queue().pop(1 + ((n - 1) % 64) as u64).expect("pop"));
            }
        }),
    ));
    out.push((
        "apps.session.op_ns",
        median_ns(CALLS, BUDGET, || {
            n += 1;
            if n % 2 == 1 {
                black_box(s.store().put(key(), n, 500).expect("put"));
            } else {
                black_box(s.store().get(key()).expect("get"));
            }
        }),
    ));
    out.push((
        "apps.ledger.transfer_ns",
        median_ns(CALLS, BUDGET, || {
            n += 1;
            let (from, to) = (1 + (n % 64) as u64, 1 + ((n + 1) % 64) as u64);
            black_box(s.ledger().transfer(from, to, 1).expect("transfer"));
        }),
    ));
    let lags: Vec<f64> = (0..3u64)
        .map(|i| {
            let probe = 1_000_000 + i;
            s.store().put(probe, 1, 50).expect("put");
            let due = Instant::now() + Duration::from_millis(50);
            while s.store().get(probe).expect("get").is_some() {
                std::thread::sleep(Duration::from_micros(200));
            }
            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
        })
        .collect();
    out.push((
        "apps.session.expire_lag_ms",
        median(&lags).expect("three probes"),
    ));
    drop(s);
    suite.shutdown();
    out
}

/// Median time to open a connection to a running server, µs.
fn net_connect() -> f64 {
    let server = Wire::build(1, &[]);
    let addr = server.addr();
    let mut times = Vec::new();
    while times.len() < 32 {
        let t = Instant::now();
        let mut c = NetClient::connect_tcp(addr).expect("connect to own server");
        let us = t.elapsed().as_secs_f64() * 1e6;
        // The ping waits until the server has a session for the connection;
        // one refused for want of a free session is retried, not timed.
        if c.ping().is_ok() {
            times.push(us);
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    server.teardown();
    median(&times).expect("thirty-two connections")
}

/// The cluster protocol without a transport: two `NodeCore`s over
/// `ModelStore`s, messages handed across in memory, half the keys owned by
/// each. Median ns per client op, request to reply.
fn cluster_core() -> f64 {
    let members: Vec<NodeId> = vec![0, 1];
    let mut nodes: Vec<NodeCore<ModelStore>> = members
        .iter()
        .map(|&id| {
            let cfg = NodeConfig::new(id, members.clone());
            let store = ModelStore::new(cfg.slots);
            NodeCore::new(cfg, store)
        })
        .collect();
    let mut rng = Rng::new(0x73);
    let mut inbox: VecDeque<(NodeId, NodeId, NodeMsg)> = VecDeque::new();
    let mut id = 0u64;
    median_ns(100_000, BUDGET, || {
        id += 1;
        let mut out = Outbox::default();
        nodes[0].on_client_op(1, id, 1 + rng.below(4096), kv_ops::ADD as u8, 1, &mut out);
        let mut replied = !out.replies.is_empty();
        inbox.extend(out.sends.into_iter().map(|(to, m)| (to, 0, m)));
        while let Some((to, from, msg)) = inbox.pop_front() {
            let mut out = Outbox::default();
            nodes[to as usize].on_node_msg(from, msg, &mut out);
            replied |= !out.replies.is_empty();
            inbox.extend(out.sends.into_iter().map(|(next, m)| (next, to, m)));
        }
        assert!(replied, "op {id} was never answered");
    })
}

/// One `admin_handoff` under load: the longest gap between acks on the
/// migrating slot's key, ms.
fn handoff_pause() -> f64 {
    let cluster = Cluster::build();
    let key = cluster.key_owned_by(0, 2);
    let stop = AtomicBool::new(false);
    let longest = std::thread::scope(|s| {
        let load = s.spawn(|| {
            let mut c = cluster.client(1);
            let (mut last, mut longest) = (Instant::now(), Duration::ZERO);
            // Relaxed: the flag publishes nothing but itself.
            while !stop.load(Ordering::Relaxed) {
                c.call(key, kv_ops::ADD as u8, 1)
                    .expect("op during handoff");
                let now = Instant::now();
                longest = longest.max(now - last);
                last = now;
            }
            longest
        });
        std::thread::sleep(Duration::from_millis(150));
        admin_handoff(cluster.addr(0), Cluster::slot(key), 1).expect("admin handoff");
        std::thread::sleep(Duration::from_millis(450));
        stop.store(true, Ordering::Relaxed);
        load.join().expect("handoff load thread panicked")
    });
    cluster.teardown();
    longest.as_secs_f64() * 1e3
}

/// One round of the simulator: its deterministic figures and what the round
/// cost the host.
fn tilesim() -> Metrics {
    sim_counter::round().layer()
}
