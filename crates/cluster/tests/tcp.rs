//! In-process integration tests of the TCP transport: real sockets, real
//! threads, the real delegation runtime under every node — the same stack
//! `clusterbench --smoke` exercises across processes, here in one binary
//! so failures carry backtraces.
#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mpsync_cluster::tcp::{admin_handoff, ClusterClient, ClusterNode, TcpNodeConfig, ADMIN_NODE};
use mpsync_cluster::{slot_for, HashRing, NodeConfig, NodeId, RouteTable, RuntimeStore, SlotStore};
use mpsync_net::frame::{stat_kind, NodeMsg, Request, Wire, NODE_PROTO_VERSION};
use mpsync_net::AdminClient;
use mpsync_objects::seq::{kv_dispatch, kv_ops, KvMap};
use mpsync_objects::EMPTY;
use mpsync_runtime::{RuntimeConfig, ShardedKvStore};

const SLOTS: u16 = 8;

/// One test at a time: the thread-count test needs every thread in the
/// process to be its own, and the rest finish in well under a second each.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn fresh_store() -> RuntimeStore {
    RuntimeStore::new(
        ShardedKvStore::new(RuntimeConfig::new(1).with_max_sessions(4)),
        SLOTS,
    )
}

/// Starts node `id` of the membership `addrs` on `listener`.
fn start_node(
    id: NodeId,
    listener: TcpListener,
    addrs: &[(NodeId, String)],
    store: RuntimeStore,
) -> ClusterNode {
    let mut node = NodeConfig::new(id, addrs.iter().map(|&(n, _)| n).collect());
    node.slots = SLOTS;
    let peers = addrs.iter().filter(|&&(p, _)| p != id).cloned().collect();
    let cfg = TcpNodeConfig {
        node,
        listener,
        peers,
        tick_ms: 5,
    };
    ClusterNode::start(cfg, store).expect("node start")
}

/// Boots `n` nodes on ephemeral ports with a full mesh between them.
fn start_cluster(n: u16) -> (Vec<ClusterNode>, Vec<(NodeId, String)>) {
    start_cluster_over((0..n).map(|_| fresh_store()).collect())
}

/// [`start_cluster`] with node `i` over `stores[i]`.
fn start_cluster_over(stores: Vec<RuntimeStore>) -> (Vec<ClusterNode>, Vec<(NodeId, String)>) {
    let listeners: Vec<TcpListener> = stores
        .iter()
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<(NodeId, String)> = listeners
        .iter()
        .enumerate()
        .map(|(i, l)| (i as NodeId, l.local_addr().expect("bound").to_string()))
        .collect();
    let nodes = listeners
        .into_iter()
        .zip(stores)
        .enumerate()
        .map(|(i, (listener, store))| start_node(i as NodeId, listener, &addrs, store))
        .collect();
    (nodes, addrs)
}

fn client(addrs: &[(NodeId, String)], first_id: u64) -> ClusterClient {
    ClusterClient::connect(addrs.to_vec(), Duration::from_millis(500), first_id)
}

/// The placement every node derives at boot (same ring, same parameters).
fn boot_owner(members: u16, slot: u16) -> NodeId {
    let nodes: Vec<NodeId> = (0..members).collect();
    RouteTable::from_ring(&HashRing::new(&nodes, 64), SLOTS)
        .get(slot)
        .owner
}

/// Polls `done` until it holds; panics after ten seconds.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Whether the node at `addr` reports itself the settled owner of `slot`.
fn owns(addr: &str, slot: u16) -> bool {
    let mut admin = AdminClient::connect_tcp(addr).expect("admin connect");
    let snapshot = admin.fetch_snapshot().expect("admin snapshot");
    let at = snapshot
        .find(&format!("{{\"slot\":{slot},"))
        .expect("slot in the snapshot");
    let state = snapshot[at..].split('}').next().expect("slot object");
    state.contains("\"role\":\"owner\"") && state.contains("\"phase\":\"normal\"")
}

#[test]
fn ops_flow_across_both_nodes_and_read_back() {
    let _serial = serial();
    let (nodes, addrs) = start_cluster(2);
    let mut c = client(&addrs, 1 << 40);
    let mut oracle = KvMap::new();
    // Keys spanning every slot, so both nodes serve and forward.
    for round in 0..3u64 {
        for key in 1..=32u64 {
            let (op, arg) = match (key + round) % 3 {
                0 => (kv_ops::PUT as u8, key * 100 + round),
                1 => (kv_ops::ADD as u8, round + 1),
                _ => (kv_ops::GET as u8, 0),
            };
            let expected = kv_dispatch(&mut oracle, key, op as u64, arg);
            let got = c.call(key, op, arg).expect("op").value;
            assert_eq!(got, expected, "key {key} op {op} round {round}");
        }
    }
    for key in 1..=32u64 {
        let want = oracle.get(&key).copied().unwrap_or(EMPTY);
        assert_eq!(c.call(key, kv_ops::GET as u8, 0).expect("get").value, want);
    }
    for n in nodes {
        n.shutdown().into_inner().shutdown();
    }
}

#[test]
fn duplicate_request_ids_are_deduplicated() {
    let _serial = serial();
    let (nodes, addrs) = start_cluster(2);
    let mut c = client(&addrs, 1 << 41);
    let key = 7u64;
    let id = (9u64 << 41) | 5;
    let first = c.call_with_id(id, key, kv_ops::ADD as u8, 10).expect("add");
    // Same id again: answered from the dedup table, not re-applied.
    let replay = c
        .call_with_id(id, key, kv_ops::ADD as u8, 10)
        .expect("replay");
    assert_eq!(replay.value, first.value, "duplicate id was re-applied");
    // A fresh id really does apply again.
    let next = c.call(key, kv_ops::ADD as u8, 10).expect("fresh add");
    assert_eq!(next.value, first.value + 10);
    let readback = c.call(key, kv_ops::GET as u8, 0).expect("get");
    assert_eq!(
        readback.value,
        first.value + 10,
        "one ADD leaked through dedup"
    );
    for n in nodes {
        n.shutdown().into_inner().shutdown();
    }
}

#[test]
fn live_handoff_under_load_loses_nothing() {
    let _serial = serial();
    let (nodes, addrs) = start_cluster(2);
    let hot_slot = slot_for(1, SLOTS);
    let from = boot_owner(2, hot_slot);
    let to = 1 - from;

    // Hammer keys that all live in the migrating slot, oracle-checked,
    // with periodic same-id replays proving dedup across the migration.
    let load_addrs = addrs.clone();
    let loader = std::thread::spawn(move || {
        let mut c = client(&load_addrs, 1 << 42);
        let keys: Vec<u64> = (0..5000u64)
            .filter(|&k| slot_for(k, SLOTS) == hot_slot)
            .take(6)
            .collect();
        let mut oracle = KvMap::new();
        for n in 0..1500u64 {
            let key = keys[(n % keys.len() as u64) as usize];
            let (op, arg) = match n % 3 {
                0 => (kv_ops::PUT as u8, n + 1),
                1 => (kv_ops::ADD as u8, 3),
                _ => (kv_ops::GET as u8, 0),
            };
            let expected = kv_dispatch(&mut oracle, key, op as u64, arg);
            let id = (1u64 << 42) | n;
            let got = c.call_with_id(id, key, op, arg).expect("op").value;
            assert_eq!(got, expected, "op {n} key {key}: acked write lost");
            if n % 32 == 0 {
                let replay = c.call_with_id(id, key, op, arg).expect("replay").value;
                assert_eq!(replay, got, "op {n}: dedup failed across migration");
            }
        }
        oracle
    });

    // Migrate mid-load. The admin frame may land on either member; the
    // non-owner forwards it.
    std::thread::sleep(Duration::from_millis(50));
    admin_handoff(&addrs[from as usize].1, hot_slot, to).expect("handoff accepted");

    let oracle = loader.join().expect("loader");

    // Post-migration, the slot still serves through any entry point.
    let mut c = client(&addrs, 1 << 43);
    for (&key, &want) in oracle.iter() {
        assert_eq!(c.call(key, kv_ops::GET as u8, 0).expect("get").value, want);
    }

    // The receiving node's own store now holds the slot's data: ownership
    // really moved, this wasn't just forwarding.
    let mut stores: Vec<RuntimeStore> = nodes.into_iter().map(|n| n.shutdown()).collect();
    let exported = stores[to as usize].export(hot_slot);
    for (&key, &want) in oracle.iter() {
        let got = exported.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
        assert_eq!(got, Some(want), "key {key} missing from new owner's store");
    }
    for s in stores {
        s.into_inner().shutdown();
    }
}

/// Two admin connections at once: each gets its answer on its own socket,
/// and neither's close takes the other's write half away. Whether two
/// handshakes collide is a race, so the pair of slots goes back and forth.
#[test]
fn concurrent_admin_handoffs_both_land() {
    let _serial = serial();
    let (nodes, addrs) = start_cluster(2);
    // Two slots with one owner (one of two nodes owns at least four of
    // eight), a key written in each.
    let home = (0..2)
        .find(|&n| (0..SLOTS).filter(|&s| boot_owner(2, s) == n).count() >= 2)
        .expect("pigeonhole");
    let moving: Vec<u16> = (0..SLOTS)
        .filter(|&s| boot_owner(2, s) == home)
        .take(2)
        .collect();
    let keys: Vec<u64> = moving
        .iter()
        .map(|&s| (1..).find(|&k| slot_for(k, SLOTS) == s).expect("a key"))
        .collect();
    let mut c = client(&addrs, 1 << 44);
    for &key in &keys {
        c.call(key, kv_ops::PUT as u8, key + 1000).expect("put");
    }

    const ROUNDS: u16 = 11;
    for round in 0..ROUNDS {
        let from = (home + round) % 2;
        let (from_addr, to_addr) = (&addrs[from as usize].1, &addrs[1 - from as usize].1);
        let start = Barrier::new(2);
        std::thread::scope(|threads| {
            for &slot in &moving {
                let start = &start;
                threads.spawn(move || {
                    start.wait();
                    admin_handoff(from_addr, slot, 1 - from).expect("handoff accepted");
                });
            }
        });
        wait_for("both slots to move", || {
            moving.iter().all(|&slot| owns(to_addr, slot))
        });
    }

    // An odd number of moves: both slots, data included, are away from home.
    let mut stores: Vec<RuntimeStore> = nodes.into_iter().map(|n| n.shutdown()).collect();
    for (&slot, &key) in moving.iter().zip(&keys) {
        let moved = stores[1 - home as usize].export(slot);
        assert!(
            moved.contains(&(key, key + 1000)),
            "slot {slot} did not move: {moved:?}"
        );
    }
    for s in stores {
        s.into_inner().shutdown();
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

/// The mechanism count: a client connection costs the node no thread — its
/// core thread reads and writes every socket itself.
#[test]
fn a_client_connection_costs_the_node_no_thread() {
    let _serial = serial();
    let (nodes, addrs) = start_cluster(2);
    // Settle: both peer links up (an op owned by each node through node 0).
    let mut settle = client(&addrs[..1], 1 << 45);
    for key in 1..=16u64 {
        settle.call(key, kv_ops::GET as u8, 0).expect("settle");
    }
    let base = census().len();

    const K: usize = 5;
    let mut clients: Vec<ClusterClient> = (0..K)
        .map(|i| client(&addrs[..1], (1 << 46) | ((i as u64) << 32)))
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.call(1 + i as u64, kv_ops::ADD as u8, 1).expect("op");
    }
    assert_eq!(census().len(), base, "threads with {K} connections open");
    drop(clients);
    // The node has seen every hang-up once it answers an op sent after them.
    settle.call(1, kv_ops::GET as u8, 0).expect("op");
    assert_eq!(census().len(), base, "threads after they closed");

    drop(settle);
    for n in nodes {
        n.shutdown().into_inner().shutdown();
    }
}

/// The thread census of a running cluster: a node is its core thread and
/// nothing else — no acceptor, no reader per connection, and no `rt-serve-*`
/// thread, because the core thread serves its own store.
#[test]
fn a_running_node_is_one_thread() {
    let _serial = serial();
    let (nodes, addrs) = start_cluster(2);
    // Both nodes serve and forward with the census taken mid-conversation.
    let mut c = client(&addrs[..1], 1 << 50);
    for key in 1..=16u64 {
        c.call(key, kv_ops::ADD as u8, 1).expect("op");
    }
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
}

/// Both nodes stream a slot to each other at once, each stream larger than
/// the loopback socket buffers: a core that waited in a write would wait for
/// the other core to read, which is waiting in its own write. And a stream
/// that takes longer to send than the re-send interval must not be queued
/// again behind itself without end.
#[test]
fn crossing_bulk_handoffs_both_complete() {
    let _serial = serial();
    // A slot per node, each pre-loaded at its boot owner.
    let slots: Vec<u16> = (0..2)
        .map(|n| (0..SLOTS).find(|&s| boot_owner(2, s) == n).expect("a slot"))
        .collect();
    // The sizes and bounds are an optimised build's; a debug build moves the
    // smaller load only, untimed.
    let timed = !cfg!(debug_assertions);
    for (entries, bound) in [(200_000, 2), (600_000, 10)] {
        if !timed && entries > 200_000 {
            break;
        }
        let loads: Vec<Vec<(u64, u64)>> = slots
            .iter()
            .map(|&slot| {
                (1..)
                    .filter(|&k| slot_for(k, SLOTS) == slot)
                    .map(|k| (k, k ^ 0x5a5a))
                    .take(entries)
                    .collect()
            })
            .collect();
        let stores = slots
            .iter()
            .zip(&loads)
            .map(|(&slot, load)| {
                let mut store = fresh_store();
                store.import(slot, load);
                store
            })
            .collect();
        let (nodes, addrs) = start_cluster_over(stores);

        let start = Barrier::new(3);
        let took = std::thread::scope(|threads| {
            for (from, &slot) in slots.iter().enumerate() {
                let (start, addr) = (&start, &addrs[from].1);
                threads.spawn(move || {
                    start.wait();
                    admin_handoff(addr, slot, 1 - from as NodeId).expect("handoff accepted");
                });
            }
            start.wait();
            let t0 = Instant::now();
            wait_for("both slots to cross", || {
                (0..2).all(|from| owns(&addrs[1 - from].1, slots[from]))
            });
            t0.elapsed()
        });
        assert!(
            !timed || took < Duration::from_secs(bound),
            "{entries} entries each way took {took:?}"
        );

        let mut stores: Vec<RuntimeStore> = nodes.into_iter().map(|n| n.shutdown()).collect();
        for (from, mut load) in loads.into_iter().enumerate() {
            let mut moved = stores[1 - from].export(slots[from]);
            moved.sort_unstable();
            load.sort_unstable();
            assert!(moved == load, "slot {} arrived incomplete", slots[from]);
        }
        for s in stores {
            s.into_inner().shutdown();
        }
    }
}

/// An admin that writes its `Hello` and `Handoff` and hangs up without
/// reading: every write to it fails from then on, and a write that fails
/// must not take the frames the connection has already delivered with it.
/// Every slot is asked to move at once, so each `HelloAck` broadcast meets
/// the connections that hung up before it.
#[test]
fn an_admin_that_hangs_up_early_still_hands_off() {
    let _serial = serial();
    let (nodes, addrs) = start_cluster(2);
    const ROUNDS: u16 = 50;
    for round in 0..ROUNDS {
        let owner = |slot: u16| (boot_owner(2, slot) + round) % 2;
        for slot in 0..SLOTS {
            let from = owner(slot);
            let mut admin = TcpStream::connect(&addrs[from as usize].1).expect("connect");
            let hello = NodeMsg::Hello {
                version: NODE_PROTO_VERSION,
                node: ADMIN_NODE,
                digest: 0,
            };
            for msg in [hello, NodeMsg::Handoff { slot, to: 1 - from }] {
                let mut frame = Vec::new();
                msg.encode_frame(&mut frame);
                admin.write_all(&frame).expect("write");
            }
        }
        wait_for("every slot to move", || {
            (0..SLOTS).all(|slot| owns(&addrs[1 - owner(slot) as usize].1, slot))
        });
    }
    for n in nodes {
        n.shutdown().into_inner().shutdown();
    }
}

/// A node that went away and came back on the same address is dialled
/// again, `Hello` first, by the peers whose links to it broke, and traffic
/// flows both ways through it. Three nodes, so the survivors are a majority
/// and re-route the lost node's slots while it is away.
#[test]
fn a_restarted_node_is_redialled_and_serves_again() {
    let _serial = serial();
    let (mut nodes, addrs) = start_cluster(3);
    let mut via0 = client(&addrs[..1], 1 << 47);
    let mut oracle = KvMap::new();
    let mut apply = |c: &mut ClusterClient, key: u64, op: u64, arg: u64| {
        let expected = kv_dispatch(&mut oracle, key, op, arg);
        let got = c.call(key, op as u8, arg).expect("op").value;
        assert_eq!(got, expected, "key {key} op {op}");
    };
    // Keys spanning every slot: some owned by node 1, some backed up there.
    for key in 1..=32u64 {
        apply(&mut via0, key, kv_ops::PUT, key * 7);
    }

    // Node 1 goes away. Every key is served again once the survivors have
    // promoted over it and stopped waiting for its replication acks.
    let store = nodes.remove(1).shutdown();
    for key in 1..=32u64 {
        apply(&mut via0, key, kv_ops::ADD, 1);
    }

    // Back on the same address, with its old store and a blank protocol
    // state. A client that knows only node 1: every op it completes was
    // forwarded over node 1's links and answered over a link a survivor
    // re-dialled, after the same links taught node 1 the routes it missed.
    let listener = TcpListener::bind(&addrs[1].1).expect("rebind node 1's address");
    nodes.insert(1, start_node(1, listener, &addrs, store));
    let mut via1 = client(&addrs[1..2], 1 << 48);
    for key in 1..=32u64 {
        apply(&mut via1, key, kv_ops::ADD, 1);
    }
    // Every acked write reads back, through either entry point.
    for key in 1..=32u64 {
        apply(&mut via0, key, kv_ops::GET, 0);
        apply(&mut via1, key, kv_ops::GET, 0);
    }
    for n in nodes {
        n.shutdown().into_inner().shutdown();
    }
}

/// The shed policy: a connection that keeps asking for snapshots, 2 000 at
/// a time, and never reads one is dropped once a write to it cannot
/// complete, and the node goes on serving everyone else meanwhile.
#[test]
fn a_connection_that_never_reads_is_dropped() {
    let _serial = serial();
    let (nodes, addrs) = start_cluster(2);
    let mut hog = TcpStream::connect(&addrs[0].1).expect("connect");
    let mut flood = Vec::new();
    for id in 0..2000u64 {
        let kind = stat_kind::SNAPSHOT;
        Request::Stat { id, kind }.encode_frame(&mut flood);
    }
    // Seen without reading: once the node has shut the socket down, what is
    // written to it is answered with a reset and the next write fails. Forty
    // floods ask for more than any default pair of socket buffers holds.
    let mut c = client(&addrs[..1], 1 << 49);
    let mut floods = 0u64;
    wait_for("the node to drop the connection", || {
        floods += 1;
        assert!(floods <= 40, "the node is queueing without bound");
        let got = c.call(3, kv_ops::ADD as u8, 1).expect("second client's op");
        assert_eq!(got.value, floods, "second client's op");
        hog.write_all(&flood).is_err()
    });
    for n in nodes {
        n.shutdown().into_inner().shutdown();
    }
}
