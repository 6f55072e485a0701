//! `cluster-fwd`: the only workload the cluster layer dominates.
//!
//! Two in-process `ClusterNode`s (one runtime shard each, 16 slots, each the
//! other's backup) wired over loopback. Closed loop: `clients` ×
//! `ClusterClient`, one request outstanding each, all dialing node 0; 4096
//! keys, uniform; a quarter `PUT`, a quarter `ADD`, half `GET`. About half
//! the ops take the forward hop to node 1, and every op waits for the
//! backup's replication ack — `tcp.rs` and `NodeCore` set the pace.

use std::net::TcpListener;
use std::time::Duration;

use mpsync_cluster::tcp::{ClusterClient, ClusterNode, TcpNodeConfig};
use mpsync_cluster::{slot_for, HashRing, NodeConfig, NodeId, RuntimeStore};
use mpsync_objects::seq::kv_ops;
use mpsync_objects::EMPTY;
use mpsync_runtime::{RuntimeConfig, ShardedKvStore};

use super::deal_keys;
use crate::harness::{construct, drive, Client, Plan, Rec, RunResult};
use crate::rng::Rng;
use crate::span::SpanBuf;

const KEYS: usize = 4096;
/// `NodeConfig::new`'s slot count.
const SLOTS: u16 = 16;

/// A two-node cluster in this process.
pub struct Cluster {
    nodes: Vec<ClusterNode>,
    addrs: Vec<(NodeId, String)>,
    ring: HashRing,
}

impl Cluster {
    /// Boots both nodes on ephemeral loopback ports, every protocol
    /// parameter at its default, and brings the peer mesh up with one op
    /// owned by each node.
    pub fn build() -> Self {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral loopback port"))
            .collect();
        let addrs: Vec<(NodeId, String)> = listeners
            .iter()
            .enumerate()
            .map(|(id, l)| (id as NodeId, l.local_addr().expect("bound").to_string()))
            .collect();
        let members: Vec<NodeId> = addrs.iter().map(|&(n, _)| n).collect();
        let nodes = listeners
            .into_iter()
            .enumerate()
            .map(|(id, listener)| {
                let node = NodeConfig::new(id as NodeId, members.clone());
                assert_eq!(
                    node.slots, SLOTS,
                    "the benchmark assumes the default slot count"
                );
                let store = RuntimeStore::new(ShardedKvStore::new(RuntimeConfig::new(1)), SLOTS);
                let peers = addrs
                    .iter()
                    .filter(|&&(n, _)| n as usize != id)
                    .cloned()
                    .collect();
                ClusterNode::start(
                    TcpNodeConfig {
                        node,
                        listener,
                        peers,
                        tick_ms: 10,
                    },
                    store,
                )
                .expect("start a cluster node")
            })
            .collect();
        let ring = HashRing::new(&members, NodeConfig::new(0, members.clone()).vnodes);
        let cluster = Self { nodes, addrs, ring };
        let mut c = cluster.client(u32::MAX as u64);
        for owner in 0..2 {
            let key = cluster.key_owned_by(owner, 0);
            c.call(key, kv_ops::GET as u8, 0)
                .expect("first op through a fresh cluster");
        }
        cluster
    }

    /// A client that dials node 0 first; `origin` keeps its request ids
    /// apart from every other client's.
    pub fn client(&self, origin: u64) -> ClusterClient {
        ClusterClient::connect(self.addrs.clone(), Duration::from_millis(500), origin << 32)
    }

    /// The node `key`'s slot is placed on.
    pub fn owner(&self, key: u64) -> NodeId {
        self.ring.owner(slot_for(key, SLOTS))
    }

    /// The slot of `key`.
    pub fn slot(key: u64) -> u16 {
        slot_for(key, SLOTS)
    }

    /// The `nth` key above [`KEYS`] that `node` owns (clear of the keys the
    /// workload itself uses).
    pub fn key_owned_by(&self, node: NodeId, nth: usize) -> u64 {
        (KEYS as u64 + 1..)
            .filter(|&k| self.owner(k) == node)
            .nth(nth)
            .expect("both nodes own slots")
    }

    /// The address of `node`.
    pub fn addr(&self, node: NodeId) -> &str {
        &self.addrs[node as usize].1
    }

    /// Stops both nodes and their runtimes.
    pub fn teardown(self) {
        for node in self.nodes {
            node.shutdown().into_inner().shutdown();
        }
    }
}

/// What a client hands back: its keys, what they should hold, and counts.
struct Outcome {
    keys: Vec<u64>,
    values: Vec<u64>,
    forwarded: u64,
    ops: u64,
    resends: u64,
    redirects: u64,
}

/// Runs one epoch; with `traced`, also returns each client's spans.
pub fn run(plan: &Plan, traced: bool) -> (RunResult, Vec<SpanBuf>) {
    let (cluster, construct_s) = construct(plan, Cluster::build);
    let mut bufs = SpanBuf::per_client(traced, plan.clients, 4);
    let mut buf_of = bufs.iter_mut();
    let clients: Vec<Client<'_, Outcome>> = deal_keys(plan.seed, 0x41, KEYS, plan.clients)
        .into_iter()
        .enumerate()
        .map(|(c, keys)| {
            let mut spans = buf_of.next();
            let mut rng = Rng::stream(plan.seed, 0x42 + c as u64);
            let mut client = cluster.client(c as u64);
            let cluster = &cluster;
            let body: Client<'_, Outcome> = Box::new(move |ctl, rec| {
                // Which of its keys live on the other node, worked out once.
                let remote: Vec<bool> = keys.iter().map(|&k| cluster.owner(k) != 0).collect();
                let mut op_no = 0u64;
                let mut out = Outcome {
                    values: vec![EMPTY; keys.len()],
                    keys,
                    forwarded: 0,
                    ops: 0,
                    resends: 0,
                    redirects: 0,
                };
                let mut t_prev = ctl.now_ns();
                while ctl.running() {
                    let i = rng.below(out.keys.len() as u64) as usize;
                    let (key, held) = (out.keys[i], out.values[i]);
                    // (op, arg, expected reply, value afterwards)
                    let (op, arg, want, next) = match rng.below(4) {
                        0 => {
                            let v = 1 + rng.below(1_000_000);
                            (kv_ops::PUT, v, held, v)
                        }
                        1 => {
                            // A missing key counts from zero.
                            let delta = 1 + rng.below(1000);
                            let v = if held == EMPTY { delta } else { held + delta };
                            (kv_ops::ADD, delta, v, v)
                        }
                        _ => (kv_ops::GET, 0, held, held),
                    };
                    let got = client.call(key, op as u8, arg);
                    let now = ctl.now_ns();
                    out.values[i] = next;
                    match got {
                        Ok(o) if o.value == want => {
                            let phase = ctl.phase();
                            rec.ok(phase, now - t_prev);
                            if ctl.is_timed(phase) {
                                out.ops += 1;
                                out.forwarded += remote[i] as u64;
                                out.resends += o.resends as u64;
                                out.redirects += o.redirects as u64;
                            }
                            if let Some(sb) = spans.as_deref_mut() {
                                sb.span("op", "harness", op_no, t_prev, now);
                                sb.span("call", "cluster", op_no, t_prev, now);
                            }
                        }
                        Ok(o) => rec.fail(|| format!("key {key} op {op}: {o:?}, oracle {want}")),
                        Err(e) => rec.fail(|| format!("key {key} op {op}: {e}")),
                    }
                    op_no += 1;
                    t_prev = now;
                }
                out
            });
            body
        })
        .collect();
    let mut driven = drive(plan, clients);
    drop(buf_of);

    // Output check: read every key back — no acked write may be lost.
    let mut check = Rec::untimed();
    let mut reader = cluster.client(plan.clients as u64);
    for out in &driven.outputs {
        for (k, want) in out.keys.iter().zip(&out.values) {
            let got = reader.call(*k, kv_ops::GET as u8, 0);
            check.check_untimed(matches!(&got, Ok(o) if o.value == *want), || {
                format!("read-back of key {k}: {got:?}, oracle {want}")
            });
        }
    }
    driven.recs.push(check);
    cluster.teardown();

    let sum = |f: fn(&Outcome) -> u64| driven.outputs.iter().map(f).sum::<u64>() as f64;
    let ops = sum(|o| o.ops).max(1.0);
    let layer = vec![
        ("cluster.fwd_frac", sum(|o| o.forwarded) / ops),
        ("cluster.resends_per_kop", sum(|o| o.resends) * 1e3 / ops),
        (
            "cluster.redirects_per_kop",
            sum(|o| o.redirects) * 1e3 / ops,
        ),
    ];
    let result = driven.finish(construct_s, Vec::new(), layer);
    (result, bufs)
}
