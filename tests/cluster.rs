//! Tier-1's view of the cluster's socket transport (`mpsync_cluster::tcp`):
//! two real nodes on loopback, one client, every slot. The crate's own
//! suite (`crates/cluster/tests/tcp.rs`) has the handoff, restart and
//! slow-consumer cases; this is the part a root-package `cargo test` must
//! never lose — ops are served, forwarded and replicated, a node is one
//! thread, and it stops when told to.
#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use mpsync_cluster::tcp::{ClusterClient, ClusterNode, TcpNodeConfig};
use mpsync_cluster::{slot_for, NodeConfig, NodeId, RuntimeStore};
use mpsync_objects::seq::{kv_dispatch, kv_ops, KvMap};
use mpsync_objects::EMPTY;
use mpsync_runtime::{RuntimeConfig, ShardedKvStore};

const SLOTS: u16 = 8;

/// Runs `f` on a thread of its own and panics if it is still running after
/// `secs` seconds: a hung node must fail the suite, not stall it.
fn watchdog(what: &str, secs: u64, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("worker finished"),
        Err(RecvTimeoutError::Timeout) => panic!("{what}: still running after {secs} s"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("worker panicked"))
        }
    }
}

/// The names of this process's threads.
fn census() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn two_nodes_serve_forward_and_replicate_on_one_thread_each() {
    watchdog("two-node cluster", 20, || {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let addrs: Vec<(NodeId, String)> = listeners
            .iter()
            .enumerate()
            .map(|(i, l)| (i as NodeId, l.local_addr().expect("bound").to_string()))
            .collect();
        let nodes: Vec<ClusterNode> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let mut node = NodeConfig::new(i as NodeId, vec![0, 1]);
                node.slots = SLOTS;
                let peers = addrs
                    .iter()
                    .filter(|&&(p, _)| p as usize != i)
                    .cloned()
                    .collect();
                let cfg = TcpNodeConfig {
                    node,
                    listener,
                    peers,
                    tick_ms: 5,
                };
                let store = ShardedKvStore::new(RuntimeConfig::new(1).with_max_sessions(4));
                ClusterNode::start(cfg, RuntimeStore::new(store, SLOTS)).expect("node start")
            })
            .collect();

        // Everything through node 0: ops on its own slots are served there,
        // the rest take the forward hop, and every write waits for the other
        // node's replication ack.
        let mut c =
            ClusterClient::connect(addrs[..1].to_vec(), Duration::from_millis(500), 1 << 40);
        let keys: Vec<u64> = (1..=64).collect();
        let mut slots_hit: Vec<u16> = keys.iter().map(|&k| slot_for(k, SLOTS)).collect();
        slots_hit.sort_unstable();
        slots_hit.dedup();
        assert_eq!(slots_hit.len(), SLOTS as usize, "the keys cover every slot");
        let mut oracle = KvMap::new();
        for round in 0..3u64 {
            for &key in &keys {
                let (op, arg) = match (key + round) % 3 {
                    0 => (kv_ops::PUT, key * 100 + round),
                    1 => (kv_ops::ADD, round + 1),
                    _ => (kv_ops::GET, 0),
                };
                let expected = kv_dispatch(&mut oracle, key, op, arg);
                let got = c.call(key, op as u8, arg).expect("op");
                assert_eq!(got.value, expected, "key {key} op {op} round {round}");
                assert_eq!(got.redirects, 0, "node 0 forwards, it does not redirect");
            }
        }
        for &key in &keys {
            let want = oracle.get(&key).copied().unwrap_or(EMPTY);
            assert_eq!(c.call(key, kv_ops::GET as u8, 0).expect("get").value, want);
        }

        // Mid-conversation, a node is its core thread: nothing accepts,
        // reads or serves shards beside it.
        let names = census();
        for expected in ["cl-core-0", "cl-core-1"] {
            assert!(names.iter().any(|n| n == expected), "{expected}: {names:?}");
        }
        for gone in ["cl-accept", "cl-read", "rt-serve"] {
            assert!(
                !names.iter().any(|n| n.starts_with(gone)),
                "a {gone} thread beside a core thread: {names:?}"
            );
        }

        drop(c);
        for n in nodes {
            n.shutdown().into_inner().shutdown();
        }
        let names = census();
        assert!(
            !names.iter().any(|n| n.starts_with("cl-")),
            "a node thread outlived shutdown: {names:?}"
        );
    });
}
