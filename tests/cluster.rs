//! Tier-1's view of the cluster's socket transport (`mpsync_cluster::tcp`):
//! two real nodes on loopback, one client, every slot. The crate's own
//! suite (`crates/cluster/tests/tcp.rs`) has the handoff, restart and
//! slow-consumer cases; this is the part a root-package `cargo test` must
//! never lose — ops are served, forwarded and replicated, a node is one
//! thread, it stops when told to, and a forwarded op is answered by the
//! backup it entered at.
#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mpsync_cluster::tcp::{ClusterClient, ClusterNode, TcpNodeConfig};
use mpsync_cluster::{slot_for, HashRing, NodeConfig, NodeId, RuntimeStore};
use mpsync_net::AdminClient;
use mpsync_objects::seq::{kv_dispatch, kv_ops, KvMap};
use mpsync_objects::EMPTY;
use mpsync_runtime::{RuntimeConfig, ShardedKvStore};

const SLOTS: u16 = 8;

/// Held by each test for its whole run: the thread census is process-wide,
/// so one test's nodes must not be running while another counts threads.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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

/// Two nodes on loopback ticking every `tick_ms`, and their addresses.
fn start_pair(tick_ms: u64) -> (Vec<ClusterNode>, Vec<(NodeId, String)>) {
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<(NodeId, String)> = listeners
        .iter()
        .enumerate()
        .map(|(i, l)| (i as NodeId, l.local_addr().expect("bound").to_string()))
        .collect();
    let nodes = listeners
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
                tick_ms,
            };
            let store = ShardedKvStore::new(RuntimeConfig::new(1).with_max_sessions(4));
            ClusterNode::start(cfg, RuntimeStore::new(store, SLOTS)).expect("node start")
        })
        .collect();
    (nodes, addrs)
}

/// Every number after `"key":` in `json`, in order.
fn json_u64s(json: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\":");
    json.match_indices(&pat)
        .map(|(i, _)| {
            let rest = json[i + pat.len()..].trim_start();
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().expect("an unsigned number")
        })
        .collect()
}

/// The admin snapshot of the node at `addr`.
fn snapshot(addr: &str) -> String {
    let mut admin = AdminClient::connect_tcp(addr).expect("admin connect");
    admin
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    admin.fetch_snapshot().expect("admin snapshot")
}

#[test]
fn two_nodes_serve_forward_and_replicate_on_one_thread_each() {
    let _serial = serial();
    watchdog("two-node cluster", 20, || {
        let (nodes, addrs) = start_pair(5);

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

/// Every op enters at node 0, which is the backup of every slot node 1
/// owns: a forwarded op is answered by node 0 as its `Repl` applies, so node
/// 1 writes no `FwdReply`. The acks node 0 keeps for those records ride its
/// next frame to node 1 or go out at its next tick, so once the load stops no
/// slot has a replication lag two ticks later — a node that kept them until
/// the primary's retransmit would show one for `resend_after` (ten) ticks.
#[test]
fn the_backup_answers_its_forwards_and_flushes_the_acks_it_kept() {
    const TICK_MS: u64 = 50;
    let _serial = serial();
    watchdog("two-node cluster, forwards", 20, || {
        let (nodes, addrs) = start_pair(TICK_MS);
        let ring = HashRing::new(&[0, 1], NodeConfig::new(0, vec![0, 1]).vnodes);
        let mut c =
            ClusterClient::connect(addrs[..1].to_vec(), Duration::from_millis(500), 1 << 40);
        let mut forwarded = 0;
        for round in 0..4u64 {
            for key in 1..=64u64 {
                let got = c.call(key, kv_ops::ADD as u8, 1).expect("op");
                assert_eq!(got.value, round + 1, "key {key}");
                forwarded += (ring.owner(slot_for(key, SLOTS)) == 1) as u64;
            }
        }
        let quiet = Instant::now();
        assert!(forwarded >= 64, "only {forwarded} ops were forwarded");

        std::thread::sleep(Duration::from_millis(2 * TICK_MS));
        let snaps: Vec<String> = addrs.iter().map(|(_, a)| snapshot(a)).collect();
        let waited = quiet.elapsed();
        for (node, snap) in snaps.iter().enumerate() {
            assert_eq!(
                json_u64s(snap, "fwd_replies"),
                [0],
                "node {node} wrote FwdReply frames after {forwarded} forwards"
            );
            let lags = json_u64s(snap, "repl_lag");
            assert_eq!(lags.len(), SLOTS as usize);
            assert!(
                lags.iter().all(|&lag| lag == 0),
                "node {node}'s slots still lag {lags:?} {waited:?} after the load stopped"
            );
        }

        drop(c);
        for n in nodes {
            n.shutdown().into_inner().shutdown();
        }
    });
}
