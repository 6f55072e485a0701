//! Deterministic discrete-event simulation of a whole cluster.
//!
//! The simulator runs N [`NodeCore`]s over [`ModelStore`]s inside one
//! process with a virtual clock: every frame between nodes becomes an
//! event on a `(time, sequence)`-ordered heap, and a seeded RNG decides
//! drops, duplications, and per-message delays. Faults — a node crash, a
//! temporary partition, live slot handoffs — are injected as scheduled
//! events. Because every choice flows from the seed and every iteration
//! the nodes perform is order-deterministic, a run is a pure function of
//! its [`SimConfig`]: the same config replays **bit-identically**, down to
//! the [`SimReport::trace_hash`] folded over every delivered message.
//!
//! # Workload and oracle
//!
//! Closed-loop clients each own a *disjoint* key set and submit a seeded
//! mix of `PUT`/`ADD`/`GET`. A client applies each op to its private
//! oracle map at issue time and remembers the expected result; the op is
//! retried — **with the same uid** — across timeouts, `Busy` responses,
//! and `Redirect` referrals until an `Ok` arrives. This shape makes the
//! safety properties directly checkable:
//!
//! * **exactly-once**: a double-apply (e.g. a retried `ADD` re-executed)
//!   skews the value returned by a later op on that key away from the
//!   oracle — and every `Ok` value is asserted against the oracle;
//! * **per-key FIFO**: a late duplicate overtaking a later op (e.g. an old
//!   `PUT` landing after a newer one) leaves the wrong final value;
//! * **no acked-write loss**: a dropped acked op skews every subsequent
//!   result and the final store contents, which are compared against the
//!   oracle key-by-key after quiesce;
//! * **replica convergence**: after quiesce, backup copies must equal the
//!   primary copy for every slot that still has a live backup;
//! * **who answers**: a forwarded op is answered by its slot's backup, with
//!   the backup's own apply, when the backup is the node it entered at, and
//!   by a `FwdReply` otherwise. Either answer must be the primary's result:
//!   every `Ok` produced while a node handles a `Repl` must equal the primary
//!   [`ApplyRecord`] of its uid at the epoch the backup applied it in, and
//!   every `Ok` produced while it handles a `FwdReply` must equal a primary
//!   apply of its uid.
//!
//! Any violation panics, which turns each seed into a test case — the
//! adversarial suite in the root package's `tests/cluster_sim.rs` sweeps
//! hundreds of them.

use std::collections::{BTreeMap, BinaryHeap};

use mpsync_net::frame::{NodeMsg, Response, Status};
use mpsync_objects::seq::{kv_dispatch, kv_ops, KvMap};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::node::{ApplyRecord, NodeConfig, NodeCore, Outbox};
use crate::store::ModelStore;
use crate::{NodeId, Slot};

/// Fault to inject into a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fair-weather run (drops/dups/delays only).
    None,
    /// A randomly chosen node dies permanently at the given tick: its
    /// primaries fail over to their backups, its backup duties are shed.
    Crash {
        /// Tick at which the node stops (messages in flight are lost).
        at: u64,
    },
    /// A randomly chosen node is cut off from its peers between the two
    /// ticks, then heals: exercises failover *and* the deposed primary's
    /// demotion/resync path.
    Partition {
        /// Tick the links go down.
        at: u64,
        /// Tick the links come back.
        heal_at: u64,
    },
}

/// Full description of one simulated run. Every field participates in the
/// deterministic schedule: equal configs produce equal
/// [`SimReport::trace_hash`]es.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster size.
    pub nodes: u16,
    /// Slots in the keyspace.
    pub slots: u16,
    /// Closed-loop clients (each owns a disjoint key set).
    pub clients: u16,
    /// Ops each client completes.
    pub ops_per_client: u32,
    /// Distinct keys per client.
    pub keys_per_client: u32,
    /// RNG seed for the entire run.
    pub seed: u64,
    /// Probability a node-to-node message is lost.
    pub drop_p: f64,
    /// Probability a delivered message is delivered twice.
    pub dup_p: f64,
    /// Per-message delay is uniform in `1..=delay_max` ticks.
    pub delay_max: u64,
    /// Client resend timeout in ticks (same uid, possibly new node).
    pub client_timeout: u64,
    /// Live handoffs injected at random times/slots/targets.
    pub handoffs: u32,
    /// Fault scenario.
    pub fault: Fault,
    /// Panic (livelock) if the workload hasn't completed by this tick.
    pub horizon: u64,
    /// Per-slot completed-op dedup entries nodes retain (the
    /// [`NodeConfig::dedup_cap`] FIFO). Tiny caps force evictions while
    /// retries are still in flight — the regression surface for the
    /// evicted-uid double-apply, answered by `Status::Stale`.
    pub dedup_cap: usize,
}

impl SimConfig {
    /// A small fair-weather cluster under moderately lossy weather.
    pub fn new(seed: u64) -> Self {
        Self {
            nodes: 3,
            slots: 16,
            clients: 4,
            ops_per_client: 60,
            keys_per_client: 8,
            seed,
            drop_p: 0.05,
            dup_p: 0.05,
            delay_max: 3,
            client_timeout: 30,
            handoffs: 0,
            fault: Fault::None,
            horizon: 60_000,
            dedup_cap: 4096,
        }
    }
}

/// What a run produced (beyond not panicking).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Order-sensitive hash over every delivered message — two runs with
    /// the same config must produce the same value (bit-identical replay).
    pub trace_hash: u64,
    /// Virtual tick the workload completed at.
    pub elapsed: u64,
    /// Total `Ok` replies consumed by clients (== total ops).
    pub ok_replies: u64,
    /// Duplicate terminal replies observed (same uid answered again) —
    /// all were verified to carry the identical value.
    pub dup_replies: u64,
    /// `Stale` completions: the op was applied once but its dedup record
    /// was evicted before the retry landed, so the result word was lost.
    pub stale_replies: u64,
    /// Client resends (timeout, `Busy`, or `Redirect` driven).
    pub resends: u64,
    /// Messages the adversarial network dropped.
    pub dropped: u64,
    /// Forwarded ops the slot's backup answered as their `Repl` applied.
    pub fwd_by_backup: u64,
    /// Forwarded ops answered on a `FwdReply`.
    pub fwd_by_reply: u64,
    /// The most often any one transfer chunk (slot, epoch, index) was handed
    /// to the network: 1 + the re-sends of the most re-sent stream, 0 when
    /// no slot moved.
    pub max_chunk_sends: u32,
    /// Final `(key, value)` contents across the cluster, ascending.
    pub final_entries: Vec<(u64, u64)>,
}

/// FNV-1a over bytes — the stable fold used for the trace hash.
fn fnv(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc ^= b as u64;
        acc = acc.wrapping_mul(0x100_0000_01b3);
    }
    acc
}

/// The input a node's replies came out of, which tells who answered a
/// forwarded op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    /// The slot's backup applying a `Repl`.
    Repl,
    /// The forwarder receiving a `FwdReply`.
    FwdReply,
    /// Any other input.
    Other,
}

#[derive(Debug)]
enum EvKind {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: NodeMsg,
    },
    Tick {
        node: NodeId,
    },
    ClientRetry {
        client: u16,
        uid: u64,
    },
    Handoff {
        slot: Slot,
    },
    Crash,
    Partition,
    Heal,
    Quiesce,
}

struct Ev {
    at: u64,
    seq: u64,
    kind: EvKind,
}

// Min-heap by (at, seq); seq is unique, so the order is total and
// deterministic.
impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct Pending {
    uid: u64,
    key: u64,
    op: u8,
    arg: u64,
    expected: u64,
    target: NodeId,
}

struct SimClient {
    keys: Vec<u64>,
    oracle: KvMap,
    script: Vec<(u64, u8, u64)>,
    next_op: usize,
    outstanding: Option<Pending>,
}

struct Sim {
    cfg: SimConfig,
    nodes: Vec<Option<NodeCore<ModelStore>>>,
    partitioned: Vec<bool>,
    clients: Vec<SimClient>,
    completed: BTreeMap<u64, u64>,
    /// `(uid, epoch)` → result of the op's apply as primary in that epoch.
    primary_results: BTreeMap<(u64, u64), u64>,
    events: BinaryHeap<Ev>,
    now: u64,
    seq: u64,
    rng: SmallRng,
    trace: u64,
    ok_replies: u64,
    dup_replies: u64,
    stale_replies: u64,
    resends: u64,
    dropped: u64,
    fwd_by_backup: u64,
    fwd_by_reply: u64,
    chunk_sends: BTreeMap<(Slot, u64, u32), u32>,
    fault_node: NodeId,
}

/// Runs one simulation to completion and verifies every invariant.
///
/// # Panics
///
/// Panics when a safety property is violated (wrong result value, replica
/// divergence, final-state mismatch against the oracle) or when the
/// workload fails to complete before `cfg.horizon` (livelock).
pub fn run(cfg: &SimConfig) -> SimReport {
    // Invariant violations panic with the seed in the message; the hook
    // appends the flight recorder's last structural events (promotions,
    // handoff phases, busy rejections) to the failing-seed report.
    mpsync_telemetry::install_panic_hook();
    assert!(cfg.nodes >= 1 && cfg.clients >= 1 && cfg.slots >= 1);
    let membership: Vec<NodeId> = (0..cfg.nodes).collect();
    let nodes = membership
        .iter()
        .map(|&id| {
            let mut nc = NodeConfig::new(id, membership.clone());
            nc.slots = cfg.slots;
            nc.dedup_cap = cfg.dedup_cap;
            Some(NodeCore::new(nc, ModelStore::new(cfg.slots)))
        })
        .collect();

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let clients = (0..cfg.clients)
        .map(|c| {
            // Disjoint key ranges: client c owns keys in a private band.
            let keys: Vec<u64> = (0..cfg.keys_per_client)
                .map(|i| 1 + (c as u64) * 1_000_000 + i as u64 * 37)
                .collect();
            let script = (0..cfg.ops_per_client)
                .map(|_| {
                    let key = keys[rng.gen_range(0..keys.len())];
                    let (op, arg) = match rng.gen_range(0..6u32) {
                        0 | 1 => (kv_ops::PUT as u8, rng.gen_range(1..1_000_000u64)),
                        2 | 3 => (kv_ops::ADD as u8, rng.gen_range(1..1_000u64)),
                        _ => (kv_ops::GET as u8, 0),
                    };
                    (key, op, arg)
                })
                .collect();
            SimClient {
                keys,
                oracle: KvMap::new(),
                script,
                next_op: 0,
                outstanding: None,
            }
        })
        .collect();

    let mut sim = Sim {
        cfg: cfg.clone(),
        nodes,
        partitioned: vec![false; cfg.nodes as usize],
        clients,
        completed: BTreeMap::new(),
        primary_results: BTreeMap::new(),
        events: BinaryHeap::new(),
        now: 0,
        seq: 0,
        rng,
        trace: 0xcbf2_9ce4_8422_2325,
        ok_replies: 0,
        dup_replies: 0,
        stale_replies: 0,
        resends: 0,
        dropped: 0,
        fwd_by_backup: 0,
        fwd_by_reply: 0,
        chunk_sends: BTreeMap::new(),
        fault_node: 0,
    };
    sim.boot();
    sim.run_to_quiesce();
    sim.verify()
}

impl Sim {
    fn schedule(&mut self, at: u64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Ev { at, seq, kind });
    }

    fn alive(&self, n: NodeId) -> bool {
        self.nodes[n as usize].is_some()
    }

    fn reachable(&self, n: NodeId) -> bool {
        self.alive(n) && !self.partitioned[n as usize]
    }

    fn boot(&mut self) {
        for n in 0..self.cfg.nodes {
            self.schedule(1, EvKind::Tick { node: n });
        }
        match self.cfg.fault {
            Fault::None => {}
            Fault::Crash { at } => {
                self.fault_node = self.rng.gen_range(0..self.cfg.nodes as u32) as NodeId;
                self.schedule(at, EvKind::Crash);
            }
            Fault::Partition { at, heal_at } => {
                assert!(heal_at > at);
                self.fault_node = self.rng.gen_range(0..self.cfg.nodes as u32) as NodeId;
                self.schedule(at, EvKind::Partition);
                self.schedule(heal_at, EvKind::Heal);
            }
        }
        for _ in 0..self.cfg.handoffs {
            // Handoffs only in fault-free runs (a transfer whose endpoint
            // dies mid-stream wedges the slot; single-fault tolerance).
            let at = self.rng.gen_range(5..self.cfg.horizon / 4);
            let slot = self.rng.gen_range(0..self.cfg.slots as u32) as Slot;
            self.schedule(at, EvKind::Handoff { slot });
        }
        for c in 0..self.cfg.clients as usize {
            self.issue(c);
        }
    }

    fn run_to_quiesce(&mut self) {
        let mut quiesce_at: Option<u64> = None;
        while let Some(ev) = self.events.pop() {
            debug_assert!(ev.at >= self.now);
            self.now = ev.at;
            if self.now > self.cfg.horizon {
                panic!(
                    "livelock: workload incomplete at horizon {} (seed {})",
                    self.cfg.horizon, self.cfg.seed
                );
            }
            match ev.kind {
                EvKind::Deliver { from, to, msg } => {
                    if !self.alive(to)
                        || self.partitioned[to as usize]
                        || self.partitioned[from as usize]
                    {
                        continue;
                    }
                    let dbg = format!("{msg:?}");
                    self.trace = fnv(self.trace, &self.now.to_le_bytes());
                    self.trace = fnv(self.trace, &[to as u8, from as u8]);
                    self.trace = fnv(self.trace, dbg.as_bytes());
                    let via = match msg {
                        NodeMsg::Repl { .. } => Via::Repl,
                        NodeMsg::FwdReply { .. } => Via::FwdReply,
                        _ => Via::Other,
                    };
                    self.drive(to, via, |n, out| n.on_node_msg(from, msg, out));
                }
                EvKind::Tick { node } => {
                    if self.alive(node) {
                        let now = self.now;
                        self.drive(node, Via::Other, |n, out| n.on_tick(now, out));
                        self.schedule(self.now + 1, EvKind::Tick { node });
                    }
                }
                EvKind::ClientRetry { client, uid } => self.client_retry(client as usize, uid),
                EvKind::Handoff { slot } => {
                    // Ask any reachable node; non-owners forward the
                    // Handoff frame to whoever they believe owns the slot.
                    let candidates: Vec<NodeId> =
                        (0..self.cfg.nodes).filter(|&n| self.reachable(n)).collect();
                    if candidates.len() < 2 {
                        continue;
                    }
                    let via = candidates[self.rng.gen_range(0..candidates.len())];
                    let owner = self.nodes[via as usize]
                        .as_ref()
                        .expect("reachable")
                        .route()
                        .get(slot)
                        .owner;
                    let to = candidates[self.rng.gen_range(0..candidates.len())];
                    if to == owner {
                        continue;
                    }
                    self.drive(via, Via::Other, |n, out| n.start_handoff(slot, to, out));
                }
                EvKind::Crash => {
                    let victim = self.fault_node;
                    if self.cfg.nodes > 1 {
                        self.nodes[victim as usize] = None;
                        // Clients re-aim in-flight ops off the dead node at
                        // their next retry tick.
                    }
                }
                EvKind::Partition => {
                    if self.cfg.nodes > 1 {
                        self.partitioned[self.fault_node as usize] = true;
                    }
                }
                EvKind::Heal => {
                    self.partitioned[self.fault_node as usize] = false;
                }
                EvKind::Quiesce => break,
            }
            if quiesce_at.is_none() && self.clients.iter().all(|c| c.next_op >= c.script.len()) {
                // Workload done: let retransmits drain and replicas
                // converge, then stop. A fast workload can finish before
                // the fault even fires — convergence is only checkable
                // after the last scheduled fault event has passed.
                let fault_settled = match self.cfg.fault {
                    Fault::None => 0,
                    Fault::Crash { at } => at,
                    Fault::Partition { heal_at, .. } => heal_at,
                };
                let at = self.now.max(fault_settled) + 20 * self.cfg.client_timeout;
                quiesce_at = Some(at);
                self.schedule(at, EvKind::Quiesce);
            }
        }
        assert!(
            self.clients.iter().all(|c| c.next_op >= c.script.len()),
            "event queue drained before workload completion (seed {})",
            self.cfg.seed
        );
    }

    /// Feeds one input to a node and absorbs the resulting outbox into the
    /// event queue / client handlers. `via` names the input, for the check
    /// on who answers forwarded ops.
    fn drive<F>(&mut self, node: NodeId, via: Via, f: F)
    where
        F: FnOnce(&mut NodeCore<ModelStore>, &mut Outbox),
    {
        let mut out = Outbox::default();
        if let Some(n) = self.nodes[node as usize].as_mut() {
            f(n, &mut out);
        } else {
            return;
        }
        let Outbox {
            sends,
            replies,
            applied,
        } = out;
        for a in applied.iter().filter(|a| a.primary) {
            self.primary_results.insert((a.uid, a.epoch), a.result);
        }
        for (to, msg) in sends {
            self.send_net(node, to, msg);
        }
        for (token, resp) in replies {
            if via != Via::Other && resp.status == Status::Ok {
                self.check_forward_answer(node, via, &resp, &applied);
            }
            self.client_reply(token as usize, resp);
        }
    }

    /// An `Ok` answer to a forwarded op must carry the primary's result,
    /// whether the backup computed it (`applied` holds its apply) or the
    /// primary sent it.
    fn check_forward_answer(
        &mut self,
        node: NodeId,
        via: Via,
        resp: &Response,
        applied: &[ApplyRecord],
    ) {
        let uid = resp.id;
        let primary: Vec<u64> = match via {
            Via::Repl => {
                let replica = applied
                    .iter()
                    .find(|a| a.uid == uid && !a.primary)
                    .unwrap_or_else(|| {
                        panic!(
                            "node {node} answered uid {uid} on a Repl it did not apply (seed {})",
                            self.cfg.seed
                        )
                    });
                self.fwd_by_backup += 1;
                self.primary_results
                    .get(&(uid, replica.epoch))
                    .copied()
                    .into_iter()
                    .collect()
            }
            _ => {
                self.fwd_by_reply += 1;
                self.primary_results
                    .range((uid, 0)..=(uid, u64::MAX))
                    .map(|(_, &v)| v)
                    .collect()
            }
        };
        assert!(
            primary.contains(&resp.value),
            "node {node} answered forwarded uid {uid} on a {via:?} with {}, \
             the primary's apply gave {primary:?} (seed {})",
            resp.value,
            self.cfg.seed
        );
    }

    fn send_net(&mut self, from: NodeId, to: NodeId, msg: NodeMsg) {
        if !self.reachable(from) || !self.alive(to) {
            return;
        }
        if let NodeMsg::SlotChunk {
            slot, epoch, index, ..
        } = msg
        {
            *self.chunk_sends.entry((slot, epoch, index)).or_insert(0) += 1;
        }
        if self.rng.gen_bool(self.cfg.drop_p) {
            self.dropped += 1;
            return;
        }
        let copies = if self.rng.gen_bool(self.cfg.dup_p) {
            2
        } else {
            1
        };
        for _ in 0..copies {
            let delay = self.rng.gen_range(1..=self.cfg.delay_max.max(1));
            self.schedule(
                self.now + delay,
                EvKind::Deliver {
                    from,
                    to,
                    msg: msg.clone(),
                },
            );
        }
    }

    /// Picks a reachable node for a client (re)send.
    fn pick_target(&mut self) -> NodeId {
        let candidates: Vec<NodeId> = (0..self.cfg.nodes).filter(|&n| self.reachable(n)).collect();
        assert!(!candidates.is_empty(), "no reachable nodes left");
        candidates[self.rng.gen_range(0..candidates.len())]
    }

    /// Starts the client's next scripted op (no-op when done).
    fn issue(&mut self, c: usize) {
        let next_op = self.clients[c].next_op;
        if next_op >= self.clients[c].script.len() {
            return;
        }
        let (key, op, arg) = self.clients[c].script[next_op];
        let expected = kv_dispatch(&mut self.clients[c].oracle, key, op as u64, arg);
        // uid doubles as the wire request id; retries reuse it verbatim.
        let uid = ((c as u64 + 1) << 32) | next_op as u64;
        let target = self.pick_target();
        self.clients[c].outstanding = Some(Pending {
            uid,
            key,
            op,
            arg,
            expected,
            target,
        });
        self.send_op(c, target);
        self.schedule(
            self.now + self.cfg.client_timeout,
            EvKind::ClientRetry {
                client: c as u16,
                uid,
            },
        );
    }

    /// (Re)transmits the client's outstanding op to `target`.
    fn send_op(&mut self, c: usize, target: NodeId) {
        let Some(p) = self.clients[c].outstanding.as_mut() else {
            return;
        };
        p.target = target;
        let (uid, key, op, arg) = (p.uid, p.key, p.op, p.arg);
        self.drive(target, Via::Other, |n, out| {
            n.on_client_op(c as u64, uid, key, op, arg, out)
        });
    }

    fn client_retry(&mut self, c: usize, uid: u64) {
        let current = matches!(&self.clients[c].outstanding, Some(p) if p.uid == uid);
        if !current {
            return;
        }
        self.resends += 1;
        let target = self.pick_target();
        self.send_op(c, target);
        self.schedule(
            self.now + self.cfg.client_timeout,
            EvKind::ClientRetry {
                client: c as u16,
                uid,
            },
        );
    }

    fn client_reply(&mut self, c: usize, resp: Response) {
        let matches_outstanding = self.clients[c]
            .outstanding
            .as_ref()
            .is_some_and(|p| p.uid == resp.id);
        if !matches_outstanding {
            // Late/duplicate answer for something already settled: its
            // value must agree with the one the client accepted.
            if let Some(&v) = self.completed.get(&resp.id) {
                if resp.status == Status::Ok {
                    assert_eq!(
                        resp.value, v,
                        "duplicate reply for uid {} disagrees (seed {})",
                        resp.id, self.cfg.seed
                    );
                    self.dup_replies += 1;
                }
            }
            return;
        }
        match resp.status {
            Status::Ok => {
                let p = self.clients[c].outstanding.take().expect("matched above");
                assert_eq!(
                    resp.value,
                    p.expected,
                    "client {c} op {} (key {} op {} arg {}) returned {} expected {} (seed {})",
                    self.clients[c].next_op,
                    p.key,
                    p.op,
                    p.arg,
                    resp.value,
                    p.expected,
                    self.cfg.seed
                );
                self.completed.insert(p.uid, resp.value);
                self.ok_replies += 1;
                self.clients[c].next_op += 1;
                self.issue(c);
            }
            Status::Redirect => {
                // Chase the referral immediately with the same uid.
                let to = resp.value as NodeId;
                self.resends += 1;
                let target = if (to as usize) < self.nodes.len() && self.reachable(to) {
                    to
                } else {
                    self.pick_target()
                };
                self.send_op(c, target);
            }
            Status::Busy => {
                // Leave it to the retry timer.
            }
            Status::Stale => {
                // The cluster applied this op exactly once, then evicted
                // its dedup record before our retry landed: the result
                // word is lost but the effect is in the store, which the
                // oracle (applied at issue time) already reflects. Settle
                // the op; the post-run state comparison still verifies
                // single application.
                let p = self.clients[c].outstanding.take().expect("matched above");
                self.completed.insert(p.uid, p.expected);
                self.stale_replies += 1;
                self.clients[c].next_op += 1;
                self.issue(c);
            }
            s => panic!(
                "unexpected status {s:?} for a well-formed op (seed {})",
                self.cfg.seed
            ),
        }
    }

    /// Post-run invariants: oracle equivalence and replica convergence.
    fn verify(self) -> SimReport {
        // Gather authoritative routing from any live node (they have had a
        // long quiesce window to converge; sanity-check agreement).
        let live: Vec<NodeId> = (0..self.cfg.nodes).filter(|&n| self.alive(n)).collect();
        let reference = self.nodes[live[0] as usize].as_ref().expect("live");
        for &n in &live[1..] {
            let other = self.nodes[n as usize].as_ref().expect("live");
            for slot in 0..self.cfg.slots {
                assert_eq!(
                    reference.route().get(slot).owner,
                    other.route().get(slot).owner,
                    "route divergence on slot {slot} after quiesce (seed {}): node {} has {:?}, node {} has {:?}",
                    self.cfg.seed,
                    live[0],
                    reference.route().get(slot),
                    n,
                    other.route().get(slot)
                );
            }
        }
        // Every client key: the owning node's copy equals the oracle.
        let slots = self.cfg.slots;
        for (c, client) in self.clients.iter().enumerate() {
            for &key in &client.keys {
                let slot = crate::ring::slot_for(key, slots);
                let owner = reference.route().get(slot).owner;
                let store = self.nodes[owner as usize]
                    .as_ref()
                    .unwrap_or_else(|| panic!("owner of slot {slot} is dead after quiesce"))
                    .store();
                assert_eq!(
                    store.map(slot).get(&key),
                    client.oracle.get(&key),
                    "client {c} key {key}: cluster disagrees with oracle (seed {})",
                    self.cfg.seed
                );
            }
        }
        // Replica convergence: live backups hold the primary's exact map.
        for slot in 0..slots {
            let r = reference.route().get(slot);
            let (Some(owner), Some(backup)) = (
                self.nodes[r.owner as usize].as_ref(),
                r.backup.and_then(|b| self.nodes[b as usize].as_ref()),
            ) else {
                continue;
            };
            assert_eq!(
                owner.store().map(slot),
                backup.store().map(slot),
                "slot {slot}: backup diverges from primary after quiesce (seed {})",
                self.cfg.seed
            );
        }
        let mut final_entries: Vec<(u64, u64)> = Vec::new();
        for slot in 0..slots {
            let owner = reference.route().get(slot).owner;
            if let Some(n) = self.nodes[owner as usize].as_ref() {
                final_entries.extend(n.store().map(slot).iter().map(|(&k, &v)| (k, v)));
            }
        }
        final_entries.sort_unstable();
        SimReport {
            trace_hash: self.trace,
            elapsed: self.now,
            ok_replies: self.ok_replies,
            dup_replies: self.dup_replies,
            stale_replies: self.stale_replies,
            resends: self.resends,
            dropped: self.dropped,
            fwd_by_backup: self.fwd_by_backup,
            fwd_by_reply: self.fwd_by_reply,
            max_chunk_sends: self.chunk_sends.values().copied().max().unwrap_or(0),
            final_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_weather_run_completes_and_replays_identically() {
        let cfg = SimConfig::new(7);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b, "same seed must replay bit-identically");
        assert_eq!(
            a.ok_replies,
            (cfg.clients as u64) * (cfg.ops_per_client as u64)
        );
    }

    #[test]
    fn different_seeds_take_different_schedules() {
        let a = run(&SimConfig::new(1));
        let b = run(&SimConfig::new(2));
        assert_ne!(a.trace_hash, b.trace_hash);
    }

    #[test]
    fn crash_failover_preserves_all_acked_ops() {
        let mut cfg = SimConfig::new(11);
        cfg.fault = Fault::Crash { at: 300 };
        let r = run(&cfg);
        assert_eq!(
            r.ok_replies,
            (cfg.clients as u64) * (cfg.ops_per_client as u64)
        );
    }

    #[test]
    fn partition_heals_through_demotion_and_resync() {
        let mut cfg = SimConfig::new(13);
        cfg.fault = Fault::Partition {
            at: 200,
            heal_at: 800,
        };
        let r = run(&cfg);
        assert_eq!(
            r.ok_replies,
            (cfg.clients as u64) * (cfg.ops_per_client as u64)
        );
    }

    #[test]
    fn live_handoffs_complete_under_load() {
        let mut cfg = SimConfig::new(17);
        cfg.handoffs = 4;
        let r = run(&cfg);
        assert_eq!(
            r.ok_replies,
            (cfg.clients as u64) * (cfg.ops_per_client as u64)
        );
    }
}
