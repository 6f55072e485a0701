//! The transport-abstract cluster node: one state machine, two transports.
//!
//! [`NodeCore`] holds everything a cluster member knows — routing table,
//! per-slot replication state, dedup tables, in-flight forwards — and
//! exposes exactly three inputs:
//!
//! * [`NodeCore::on_client_op`] — a client request arrived;
//! * [`NodeCore::on_node_msg`] — a peer frame arrived;
//! * [`NodeCore::on_tick`] — time passed (heartbeats, retransmits,
//!   failover detection).
//!
//! Each input appends its effects to an [`Outbox`]: peer frames to send,
//! client responses to deliver, and (for the verifier) a record of every
//! state-mutating apply. The TCP transport ([`crate::tcp`]) and the
//! discrete-event simulator ([`crate::sim`]) both drive this machine — the
//! simulator under seeded drops/reorders/partitions, the sockets in
//! production shape — so a safety property checked in simulation is a
//! property of the deployed protocol, not of a model of it.
//!
//! # Protocol sketch
//!
//! **Routing.** Keys hash to slots; the epoch-versioned [`RouteTable`] maps
//! slots to a primary (and optional backup). A node receiving an op it
//! doesn't own forwards it ([`NodeMsg::Fwd`]) carrying the client's request
//! id as the cluster-wide dedup uid, and answers the client once the op is
//! replicated (see Replication for who computes the answer).
//!
//! **Replication.** The primary applies an op, appends it to the slot's
//! replication log, and sends [`NodeMsg::Repl`] (sequenced per
//! `(slot, epoch)`) to the backup. Backups apply strictly in sequence order
//! (gaps held back) and dedup-record results. An op is answered only once
//! the backup has applied it — so an acked write survives the primary's
//! death by construction — and the backup's copy decides who answers. An op
//! the backup forwarded is answered by the backup itself, with its own
//! result, as the `Repl` applies. Any other op is answered by the primary
//! when the backup's cumulative [`NodeMsg::ReplAck`] covers it, with a
//! `FwdReply` when a third node forwarded it. The backup acks progress at
//! once unless every record it applied answered one of its own forwards:
//! nobody waits on that ack, so the backup keeps it, one per slot, and puts
//! it in front of the next frame it sends that primary, or sends it at the
//! next tick.
//!
//! **Exactly-once.** Every op carries a uid chosen by the origin client —
//! `origin << 32 | seq`, with `seq` strictly increasing per origin.
//! Primaries consult a per-slot dedup table before applying: a retry of a
//! completed op is answered from the table; a retry of an in-flight op
//! attaches to the pending record. The table replicates with the slot
//! (inside [`NodeMsg::Repl`] and the handoff stream), so neither failover
//! nor handoff forgets an applied uid. The table is bounded
//! ([`NodeConfig::dedup_cap`], FIFO eviction), and eviction must not
//! reopen the double-apply hole: each slot keeps a per-origin *eviction
//! watermark* — the highest evicted `seq` per origin — and a dedup miss at
//! or below the watermark is answered [`Status::Stale`] ("applied, result
//! lost") instead of being re-executed. Watermarks travel in the handoff
//! stream ([`chunk_kind::FLOOR`]) and survive demotion resyncs.
//!
//! **Handoff.** Migrating a slot: the owner drains its replication log,
//! queues new arrivals, streams state + dedup as idempotent
//! [`NodeMsg::SlotChunk`]s at `epoch+1`, and on [`NodeMsg::SlotAck`]
//! becomes the backup, re-forwarding queued ops (uids preserved) and
//! redirecting clients. The receiver installs the state and serves. Until
//! the ack the sender re-sends the stream, waiting twice as long each time,
//! and ignores its own route when gossip brings it back early.
//!
//! **Failover.** Nodes heartbeat ([`NodeMsg::Hello`]) with a routing
//! digest. A backup that stops hearing from a primary promotes itself at
//! `epoch+1` (unreplicated — thus unacked — tail discarded) and broadcasts
//! the new route; a deposed primary that resurfaces discards its diverged
//! copy and resyncs ([`NodeMsg::SyncReq`]) to rejoin as backup. Digest
//! mismatches trigger anti-entropy route gossip.
//!
//! [`NodeMsg::Fwd`]: mpsync_net::frame::NodeMsg::Fwd
//! [`NodeMsg::Repl`]: mpsync_net::frame::NodeMsg::Repl
//! [`NodeMsg::ReplAck`]: mpsync_net::frame::NodeMsg::ReplAck
//! [`NodeMsg::SlotChunk`]: mpsync_net::frame::NodeMsg::SlotChunk
//! [`NodeMsg::SlotAck`]: mpsync_net::frame::NodeMsg::SlotAck
//! [`NodeMsg::Hello`]: mpsync_net::frame::NodeMsg::Hello
//! [`NodeMsg::SyncReq`]: mpsync_net::frame::NodeMsg::SyncReq

// BTreeMaps (not HashMaps) throughout: the simulator's bit-identical
// replay requires every iteration the node performs — retransmit scans,
// dedup snapshots — to order deterministically.
use std::collections::{BTreeMap, VecDeque};

use mpsync_net::frame::{
    chunk_kind, trace_word, NodeMsg, Response, Status, NODE_PROTO_VERSION, NO_NODE,
};
use mpsync_runtime::{MAX_KEY, MAX_OPCODE};
use mpsync_telemetry::{
    count, flight, flight_sampled, now_ns, record_span, trace_track, Algo, Counter, FlightKind,
    Lane,
};

use crate::ring::{slot_for, HashRing};
use crate::route::RouteTable;
use crate::store::SlotStore;
use crate::{NodeId, Slot};

/// Opaque handle the transport uses to route a [`Response`] back to the
/// client connection that sent the op.
pub type ClientToken = u64;

/// Where an operation came from — and therefore where its answer goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A directly-connected client: `(connection token, request id)`.
    Client(ClientToken, u64),
    /// A peer that forwarded the op; answered with a `FwdReply`, unless
    /// the peer is the slot's backup, which answers its own forward when the
    /// op's `Repl` reaches it.
    Node(NodeId),
}

/// One state-mutating apply, recorded for the simulator's invariant
/// checker (exactly-once, FIFO, no-acked-loss all audit this stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyRecord {
    /// The op's cluster-wide dedup uid.
    pub uid: u64,
    /// Slot it executed in.
    pub slot: Slot,
    /// Routing key.
    pub key: u64,
    /// Opcode.
    pub op: u8,
    /// Argument word.
    pub arg: u64,
    /// Result word the store returned.
    pub result: u64,
    /// `true` when applied as primary (fresh op), `false` on a backup
    /// (replication replay).
    pub primary: bool,
    /// Route epoch of the slot at apply time.
    pub epoch: u64,
}

/// Effects of one input: everything the transport must now do.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Peer frames to transmit.
    pub sends: Vec<(NodeId, NodeMsg)>,
    /// Client responses to deliver.
    pub replies: Vec<(ClientToken, Response)>,
    /// Applies performed while handling the input (verifier feed).
    pub applied: Vec<ApplyRecord>,
}

impl Outbox {
    /// Queues a peer frame.
    fn send(&mut self, to: NodeId, msg: NodeMsg) {
        self.sends.push((to, msg));
    }

    /// Answers `origin` with `status`/`value` for the op identified by
    /// `uid` (the request id, for client origins).
    fn reply(&mut self, origin: Origin, uid: u64, status: Status, value: u64) {
        match origin {
            Origin::Client(token, id) => self.replies.push((token, Response { id, status, value })),
            Origin::Node(n) => self.send(n, NodeMsg::FwdReply { uid, status, value }),
        }
    }
}

/// Static parameters of a node. Time is in abstract **ticks** — the
/// transport decides how long a tick is (10 ms on sockets, one simulated
/// step in the simulator).
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id.
    pub id: NodeId,
    /// Initial membership (every node must boot with the same list).
    pub nodes: Vec<NodeId>,
    /// Number of slots in the keyspace.
    pub slots: u16,
    /// Virtual nodes per member on the placement ring.
    pub vnodes: u32,
    /// Send a heartbeat every this many ticks.
    pub heartbeat_every: u64,
    /// Declare a peer dead after this many ticks of silence.
    pub failover_after: u64,
    /// Retransmit unacked forwards/replication/transfers after this many
    /// ticks.
    pub resend_after: u64,
    /// Completed-op dedup entries retained per slot (FIFO eviction;
    /// in-flight entries are never evicted).
    pub dedup_cap: usize,
    /// Ops a slot will queue while draining/transferring before answering
    /// `Busy`.
    pub queue_cap: usize,
    /// Max `(key, value)` pairs per transfer chunk (bounded by the frame
    /// size limit; 32 pairs ≈ 529 bytes).
    pub chunk_entries: usize,
}

impl NodeConfig {
    /// Sane defaults for `id` in a cluster of `nodes`.
    pub fn new(id: NodeId, nodes: Vec<NodeId>) -> Self {
        Self {
            id,
            nodes,
            slots: 16,
            vnodes: crate::ring::DEFAULT_VNODES,
            heartbeat_every: 5,
            failover_after: 50,
            resend_after: 10,
            dedup_cap: 4096,
            queue_cap: 256,
            chunk_entries: 32,
        }
    }
}

/// What a slot is currently doing, beyond normal serving.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    /// Serving normally.
    Normal,
    /// Routing says this node owns the slot, but the state stream hasn't
    /// completed yet (handoff receiver between `RouteUpdate` and the last
    /// `SlotChunk`): ops queue rather than run against missing state.
    AwaitImport {
        /// Epoch whose import must complete before serving.
        epoch: u64,
    },
    /// Handoff/resync requested: queueing new ops, waiting for the
    /// replication log to drain, then transferring to `to` (who becomes
    /// `role` afterwards).
    Draining { to: NodeId, recv_role: RecvRole },
    /// State streamed to `to` at `epoch`; awaiting its `SlotAck`.
    /// `chunks` is kept verbatim for retransmission, which backs off: the
    /// wait before re-send `n` is `resend_after << n` (capped at 64×), so a
    /// stream that takes longer than `resend_after` to deliver is not queued
    /// again behind itself before its first copy has arrived.
    Transferring {
        to: NodeId,
        recv_role: RecvRole,
        epoch: u64,
        chunks: Vec<NodeMsg>,
        last_send: u64,
        resends: u32,
    },
}

/// Which role the peer receiving a transfer assumes when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecvRole {
    /// Handoff: the receiver becomes primary, the sender becomes backup.
    Owner,
    /// Resync: the receiver (re)joins as backup, the sender stays primary.
    Backup,
}

/// One unacked replication-log record on the primary: the apply already
/// happened; the reply to `waiters` is deferred until the backup acks.
#[derive(Debug, Clone)]
struct LogEntry {
    seq: u64,
    uid: u64,
    key: u64,
    op: u8,
    arg: u64,
    result: u64,
    waiters: Vec<Origin>,
}

/// The origin half of a dedup uid: clients mint uids as
/// `origin << 32 | seq` with `seq` strictly increasing per origin (the
/// simulator's `(client+1) << 32 | op_index`, the TCP client's
/// `client_no << 32` id bands).
fn uid_origin(uid: u64) -> u64 {
    uid >> 32
}

/// The per-origin monotone sequence half of a dedup uid.
fn uid_seq(uid: u64) -> u64 {
    uid & 0xffff_ffff
}

/// Completed vs in-flight dedup state for a uid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dedup {
    /// Applied but not yet replication-acked; retries attach as waiters.
    InFlight,
    /// Applied and acked; retries are answered with the recorded result.
    Done(u64),
}

/// Per-slot protocol state (primary and backup roles both live here; a
/// node typically holds a mix across slots).
#[derive(Debug)]
struct SlotState {
    // --- primary role ---
    /// Next replication sequence number to assign (scoped to the epoch).
    repl_seq: u64,
    /// Records the backup has contiguously acked (count, not index).
    repl_acked: u64,
    /// Unacked records, oldest first.
    repl_log: VecDeque<LogEntry>,
    /// Tick of the last (re)transmission of the log head.
    repl_sent_at: u64,
    // --- backup role ---
    /// Next replication sequence expected from the primary.
    backup_next: u64,
    /// Out-of-order records held until the gap fills: seq →
    /// `(uid, key, op, arg, trace)`.
    holdback: BTreeMap<u64, (u64, u64, u8, u64, u64)>,
    // --- both roles ---
    /// uid → completion state.
    dedup: BTreeMap<u64, Dedup>,
    /// FIFO of `Done` uids for capped eviction.
    dedup_order: VecDeque<u64>,
    /// Per-origin eviction watermark: origin (uid high half) → highest
    /// `Done` sequence (uid low half) evicted from `dedup`. Because each
    /// origin's sequences complete in order, any dedup *miss* at or below
    /// the watermark is a retry of an already-applied op whose result was
    /// evicted — re-executing it would double-apply; it is answered
    /// `Status::Stale` instead.
    evict_floor: BTreeMap<u64, u64>,
    /// Beyond-normal activity (drain/transfer).
    phase: Phase,
    /// Ops queued while not `Normal`: `(origin, uid, key, op, arg, trace)`.
    queued: VecDeque<(Origin, u64, u64, u8, u64, u64)>,
    /// Incoming transfer reassembly: epoch → (index → chunk), plus the
    /// final index once the `done` chunk arrived.
    import: Option<ImportState>,
    /// Highest `(epoch)` this node completed an import for — lets it
    /// re-ack a retransmitted transfer it already installed.
    imported_epoch: u64,
}

#[derive(Debug)]
struct ImportState {
    epoch: u64,
    chunks: BTreeMap<u32, (u8, Vec<(u64, u64)>)>,
    last_index: Option<u32>,
}

impl SlotState {
    fn new() -> Self {
        Self {
            repl_seq: 0,
            repl_acked: 0,
            repl_log: VecDeque::new(),
            repl_sent_at: 0,
            backup_next: 0,
            holdback: BTreeMap::new(),
            dedup: BTreeMap::new(),
            dedup_order: VecDeque::new(),
            evict_floor: BTreeMap::new(),
            phase: Phase::Normal,
            queued: VecDeque::new(),
            import: None,
            imported_epoch: 0,
        }
    }

    /// Records a completed uid, evicting the oldest completions past the
    /// cap. In-flight entries are never evicted (they answer retries of
    /// unacked ops and are bounded by the log length).
    fn dedup_done(&mut self, uid: u64, result: u64, cap: usize) {
        if matches!(
            self.dedup.insert(uid, Dedup::Done(result)),
            Some(Dedup::Done(_))
        ) {
            // Idempotent re-completion (replicated replay, import): the
            // uid is already FIFO-tracked; pushing it again would make it
            // occupy two queue entries and evict a neighbour early.
            return;
        }
        self.dedup_order.push_back(uid);
        while self.dedup_order.len() > cap {
            let old = self.dedup_order.pop_front().expect("len > cap > 0");
            if let Some(Dedup::Done(_)) = self.dedup.get(&old) {
                self.dedup.remove(&old);
                // Remember what was forgotten: a later retry of `old` (or
                // of any earlier seq from its origin) must be refused as
                // Stale, not re-applied.
                let floor = self.evict_floor.entry(uid_origin(old)).or_insert(0);
                *floor = (*floor).max(uid_seq(old));
            }
        }
    }

    /// True when `uid` misses the dedup table only because its completion
    /// was evicted: its sequence is at or below its origin's eviction
    /// watermark.
    fn evicted(&self, uid: u64) -> bool {
        self.evict_floor
            .get(&uid_origin(uid))
            .is_some_and(|&floor| uid_seq(uid) <= floor)
    }

    /// Resets the replication stream for a new epoch (ownership change).
    fn reset_repl(&mut self) {
        self.repl_seq = 0;
        self.repl_acked = 0;
        self.repl_log.clear();
        self.backup_next = 0;
        self.holdback.clear();
    }
}

/// The cluster node state machine. Generic over the [`SlotStore`] so the
/// simulator runs it on an in-memory map and the TCP transport on the real
/// delegation runtime.
pub struct NodeCore<S: SlotStore> {
    cfg: NodeConfig,
    store: S,
    route: RouteTable,
    slots: Vec<SlotState>,
    /// uid → in-flight forward awaiting its answer: a `FwdReply`, or the
    /// op's `Repl` when this node is the slot's backup.
    pending_fwd: BTreeMap<u64, PendingFwd>,
    /// Slot → `(primary, epoch, seq)`: the cumulative `ReplAck` this node
    /// owes as backup but has not sent, because every record it covers
    /// answered one of this node's own forwards. It rides in front of the
    /// next frame an input sends that primary, or goes out at the next tick.
    kept_acks: BTreeMap<Slot, (NodeId, u64, u64)>,
    /// Peer → tick we last heard anything from it.
    last_heard: BTreeMap<NodeId, u64>,
    /// Tick of our last heartbeat broadcast.
    last_hello: u64,
    /// Failure suspicion is suppressed until this tick. Armed whenever
    /// the majority guard fails: right after a partition heals, every
    /// last-heard stamp is stale, so the first fresh peer Hello would
    /// otherwise re-establish "majority" while the still-in-flight
    /// primary heartbeat leaves it looking dead — a spurious promotion
    /// at an epoch the other side already used (equal epochs, different
    /// owners, permanent divergence). Requiring a full failover window
    /// of majority contact first lets real heartbeats land.
    failover_holdoff: u64,
    /// Latest tick seen.
    now: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingFwd {
    origin: Origin,
    key: u64,
    op: u8,
    arg: u64,
    to: NodeId,
    sent_at: u64,
    /// Trace word the op arrived with (0 = untraced); forwarded frames
    /// carry `trace_word::next_hop` of this.
    trace: u64,
    /// Telemetry timestamp the forward decision was made at, closing the
    /// forwarder's `Cluster/Send` hop span when the reply lands.
    t0_ns: u64,
}

/// Answers the client a forward was made for, closing the forwarder's
/// `Cluster/Send` hop span: the whole forward, from the decision to the
/// answer.
fn settle_fwd(uid: u64, pf: PendingFwd, status: Status, value: u64, out: &mut Outbox) {
    if trace_word::id(pf.trace) != 0 {
        record_span(
            trace_track(trace_word::id(pf.trace)),
            Algo::Cluster,
            Lane::Send,
            pf.t0_ns,
        );
    }
    out.reply(pf.origin, uid, status, value);
}

/// Point-in-time observability view of one slot, as served by the admin
/// `Stat` endpoint. Pure data — building one reads the node but never
/// mutates protocol state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSnapshot {
    /// Slot index.
    pub slot: Slot,
    /// This node's role for the slot: `"owner"`, `"backup"`, or `"none"`.
    pub role: &'static str,
    /// Route epoch.
    pub epoch: u64,
    /// Current owner.
    pub owner: NodeId,
    /// Current backup, if any.
    pub backup: Option<NodeId>,
    /// Beyond-normal activity: `"normal"`, `"await_import"`, `"draining"`,
    /// or `"transferring"`.
    pub phase: &'static str,
    /// Replication records applied locally but not yet acked by the
    /// backup (owner role; 0 otherwise).
    pub repl_lag: u64,
    /// Ops parked while the slot is not serving.
    pub queued: usize,
    /// Dedup-table occupancy (completed + in-flight uids).
    pub dedup: usize,
}

impl SlotSnapshot {
    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"slot\":{},\"role\":\"{}\",\"epoch\":{},\"owner\":{},\"backup\":{},\
             \"phase\":\"{}\",\"repl_lag\":{},\"queued\":{},\"dedup\":{}}}",
            self.slot,
            self.role,
            self.epoch,
            self.owner,
            self.backup.map_or(-1i64, |b| b as i64),
            self.phase,
            self.repl_lag,
            self.queued,
            self.dedup,
        )
    }
}

impl<S: SlotStore> NodeCore<S> {
    /// Boots a node: placement from the shared ring, all slots `Normal`.
    pub fn new(cfg: NodeConfig, store: S) -> Self {
        assert!(
            cfg.nodes.contains(&cfg.id),
            "node {} missing from its own membership list",
            cfg.id
        );
        assert!(cfg.id != NO_NODE, "NO_NODE is reserved");
        let ring = HashRing::new(&cfg.nodes, cfg.vnodes);
        let route = RouteTable::from_ring(&ring, cfg.slots);
        let slots = (0..cfg.slots).map(|_| SlotState::new()).collect();
        Self {
            cfg,
            store,
            route,
            slots,
            pending_fwd: BTreeMap::new(),
            kept_acks: BTreeMap::new(),
            last_heard: BTreeMap::new(),
            last_hello: 0,
            failover_holdoff: 0,
            now: 0,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.cfg.id
    }

    /// The node's current routing table (transports use it for redirects
    /// and admin tools for placement queries).
    pub fn route(&self) -> &RouteTable {
        &self.route
    }

    /// The slot a key belongs to under this node's configuration.
    pub fn slot_of(&self, key: u64) -> Slot {
        slot_for(key, self.cfg.slots)
    }

    /// Read access to the store (shutdown/verification).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Consumes the node, returning its store (TCP transport shuts the
    /// runtime down through this).
    pub fn into_store(self) -> S {
        self.store
    }

    /// In-flight forwards awaiting their answer (admin observability).
    pub fn pending_fwds(&self) -> usize {
        self.pending_fwd.len()
    }

    /// Observability snapshot of every slot (admin `Stat` endpoint).
    pub fn slot_snapshots(&self) -> Vec<SlotSnapshot> {
        (0..self.cfg.slots)
            .map(|slot| {
                let r = self.route.get(slot);
                let st = &self.slots[slot as usize];
                let role = if r.owner == self.cfg.id {
                    "owner"
                } else if r.backup == Some(self.cfg.id) {
                    "backup"
                } else {
                    "none"
                };
                let phase = match st.phase {
                    Phase::Normal => "normal",
                    Phase::AwaitImport { .. } => "await_import",
                    Phase::Draining { .. } => "draining",
                    Phase::Transferring { .. } => "transferring",
                };
                SlotSnapshot {
                    slot,
                    role,
                    epoch: r.epoch,
                    owner: r.owner,
                    backup: r.backup,
                    phase,
                    repl_lag: st.repl_seq.saturating_sub(st.repl_acked),
                    queued: st.queued.len(),
                    dedup: st.dedup.len(),
                }
            })
            .collect()
    }

    /// Peers other than this node.
    fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.cfg.nodes.iter().copied().filter(|&n| n != self.cfg.id)
    }

    // ------------------------------------------------------------------
    // Input: client operation
    // ------------------------------------------------------------------

    /// A client op arrived on connection `token` with request id `id`
    /// (doubling as the cluster-wide dedup uid — ids must be unique per
    /// logical op and **reused verbatim on retries**).
    pub fn on_client_op(
        &mut self,
        token: ClientToken,
        id: u64,
        key: u64,
        op: u8,
        arg: u64,
        out: &mut Outbox,
    ) {
        self.on_client_op_traced(token, id, key, op, arg, 0, out);
    }

    /// [`NodeCore::on_client_op`] with a trace word (see
    /// `mpsync_net::frame::trace_word`): hop spans recorded while handling
    /// the op use the word's trace id as their track, so a collector can
    /// stitch client → owner → backup causality across nodes. `trace == 0`
    /// means untraced.
    #[allow(clippy::too_many_arguments)]
    pub fn on_client_op_traced(
        &mut self,
        token: ClientToken,
        id: u64,
        key: u64,
        op: u8,
        arg: u64,
        trace: u64,
        out: &mut Outbox,
    ) {
        let mark = out.sends.len();
        self.ingress(Origin::Client(token, id), id, key, op, arg, trace, out);
        self.ride_kept_acks(mark, out);
    }

    /// Puts each kept ack in front of the first frame since `mark` that
    /// goes to its primary; the others wait for another frame or the tick.
    fn ride_kept_acks(&mut self, mark: usize, out: &mut Outbox) {
        let sends = &mut out.sends;
        self.kept_acks.retain(|&slot, &mut (to, epoch, seq)| {
            match sends[mark..].iter().position(|&(n, _)| n == to) {
                Some(i) => {
                    sends.insert(mark + i, (to, NodeMsg::ReplAck { slot, epoch, seq }));
                    false
                }
                None => true,
            }
        });
    }

    /// Shared ingress for client ops and peer-forwarded ops.
    #[allow(clippy::too_many_arguments)]
    fn ingress(
        &mut self,
        origin: Origin,
        uid: u64,
        key: u64,
        op: u8,
        arg: u64,
        trace: u64,
        out: &mut Outbox,
    ) {
        if key >= MAX_KEY || op as u64 >= MAX_OPCODE {
            out.reply(origin, uid, Status::BadRequest, 1);
            return;
        }
        let slot = self.slot_of(key);
        let r = self.route.get(slot);
        if r.owner != self.cfg.id {
            match origin {
                Origin::Client(..) => {
                    // Forward on the client's behalf; reply when the
                    // FwdReply lands. A duplicate uid already in flight
                    // just refreshes the origin (client reconnected).
                    if self.pending_fwd.len() >= self.cfg.queue_cap * 4
                        && !self.pending_fwd.contains_key(&uid)
                    {
                        flight_sampled(FlightKind::Busy, 64, uid, key);
                        out.reply(origin, uid, Status::Busy, 0);
                        return;
                    }
                    count(Counter::ClusterForwards, 1);
                    self.pending_fwd.insert(
                        uid,
                        PendingFwd {
                            origin,
                            key,
                            op,
                            arg,
                            to: r.owner,
                            sent_at: self.now,
                            trace,
                            t0_ns: now_ns(),
                        },
                    );
                    out.send(
                        r.owner,
                        NodeMsg::Fwd {
                            uid,
                            key,
                            op,
                            arg,
                            trace: trace_word::next_hop(trace),
                        },
                    );
                }
                Origin::Node(n) => {
                    // Peer mis-routed (stale table): point it at the owner.
                    count(Counter::ClusterRedirects, 1);
                    out.send(
                        n,
                        NodeMsg::FwdReply {
                            uid,
                            status: Status::Redirect,
                            value: r.owner as u64,
                        },
                    );
                }
            }
            return;
        }

        let st = &mut self.slots[slot as usize];
        if st.phase != Phase::Normal {
            if st.queued.len() >= self.cfg.queue_cap {
                flight_sampled(FlightKind::Busy, 64, uid, key);
                out.reply(origin, uid, Status::Busy, 0);
            } else {
                st.queued.push_back((origin, uid, key, op, arg, trace));
            }
            return;
        }
        match st.dedup.get(&uid) {
            Some(Dedup::Done(v)) => {
                count(Counter::ClusterDedupHits, 1);
                out.reply(origin, uid, Status::Ok, *v);
                return;
            }
            Some(Dedup::InFlight) => {
                count(Counter::ClusterDedupHits, 1);
                // The backup answers its own forward when the `Repl` reaches
                // it; it never waits here.
                if r.backup.is_some_and(|b| origin == Origin::Node(b)) {
                    return;
                }
                if let Some(entry) = st.repl_log.iter_mut().find(|e| e.uid == uid) {
                    if !entry.waiters.contains(&origin) {
                        entry.waiters.push(origin);
                    }
                }
                return;
            }
            None => {
                if st.evicted(uid) {
                    // Dedup miss *below the origin's eviction watermark*:
                    // this op was applied and completed once already; only
                    // its recorded result has been forgotten. Re-executing
                    // would double-apply — answer "applied, result lost".
                    count(Counter::ClusterStaleRetries, 1);
                    out.reply(origin, uid, Status::Stale, 0);
                    return;
                }
            }
        }

        // Fresh op: apply as primary.
        let t_serve = now_ns();
        let result = self.store.apply(slot, key, op, arg);
        if trace_word::id(trace) != 0 {
            // Owner hop span: tracked by trace id so the cross-node
            // collector can lay it on the same timeline as the client's
            // and backup's spans.
            record_span(
                trace_track(trace_word::id(trace)),
                Algo::Cluster,
                Lane::Serve,
                t_serve,
            );
        }
        count(Counter::ClusterLocalOps, 1);
        out.applied.push(ApplyRecord {
            uid,
            slot,
            key,
            op,
            arg,
            result,
            primary: true,
            epoch: r.epoch,
        });
        let st = &mut self.slots[slot as usize];
        match r.backup {
            Some(b) => {
                // Sync replication: ack the client only once the backup
                // has the record.
                let seq = st.repl_seq;
                st.repl_seq += 1;
                st.dedup.insert(uid, Dedup::InFlight);
                if st.repl_log.is_empty() {
                    // Timer covers the unacked prefix: only arm it on the
                    // empty→non-empty transition, or a steady arrival rate
                    // would keep resetting it and starve retransmission of
                    // a dropped head.
                    st.repl_sent_at = self.now;
                }
                st.repl_log.push_back(LogEntry {
                    seq,
                    uid,
                    key,
                    op,
                    arg,
                    result,
                    // The backup answers its own forward when this record
                    // reaches it: no `FwdReply` from here.
                    waiters: if origin == Origin::Node(b) {
                        Vec::new()
                    } else {
                        vec![origin]
                    },
                });
                count(Counter::ClusterReplSent, 1);
                out.send(
                    b,
                    NodeMsg::Repl {
                        slot,
                        epoch: r.epoch,
                        seq,
                        uid,
                        key,
                        op,
                        arg,
                        trace: trace_word::next_hop(trace),
                    },
                );
            }
            None => {
                st.dedup_done(uid, result, self.cfg.dedup_cap);
                out.reply(origin, uid, Status::Ok, result);
            }
        }
    }

    // ------------------------------------------------------------------
    // Input: peer message
    // ------------------------------------------------------------------

    /// A peer frame arrived from `from`. Unknown-version `Hello`s are
    /// answered but otherwise ignored; everything else dispatches to the
    /// protocol handlers.
    pub fn on_node_msg(&mut self, from: NodeId, msg: NodeMsg, out: &mut Outbox) {
        let mark = out.sends.len();
        self.node_msg(from, msg, out);
        self.ride_kept_acks(mark, out);
    }

    fn node_msg(&mut self, from: NodeId, msg: NodeMsg, out: &mut Outbox) {
        self.last_heard.insert(from, self.now);
        match msg {
            NodeMsg::Hello {
                version,
                node,
                digest,
            } => {
                if version != NODE_PROTO_VERSION {
                    return;
                }
                debug_assert_eq!(node, from);
                out.send(
                    from,
                    NodeMsg::HelloAck {
                        version: NODE_PROTO_VERSION,
                        node: self.cfg.id,
                        digest: self.route.digest(),
                    },
                );
                self.anti_entropy(from, digest, out);
            }
            NodeMsg::HelloAck {
                version, digest, ..
            } => {
                if version != NODE_PROTO_VERSION {
                    return;
                }
                self.anti_entropy(from, digest, out);
            }
            NodeMsg::Fwd {
                uid,
                key,
                op,
                arg,
                trace,
            } => {
                self.ingress(Origin::Node(from), uid, key, op, arg, trace, out);
            }
            NodeMsg::FwdReply { uid, status, value } => {
                self.on_fwd_reply(uid, status, value, out);
            }
            NodeMsg::Repl {
                slot,
                epoch,
                seq,
                uid,
                key,
                op,
                arg,
                trace,
            } => {
                self.on_repl(from, slot, epoch, seq, uid, key, op, arg, trace, out);
            }
            NodeMsg::ReplAck { slot, epoch, seq } => {
                self.on_repl_ack(slot, epoch, seq, out);
            }
            NodeMsg::RouteUpdate {
                slot,
                epoch,
                owner,
                backup,
            } => {
                let backup = (backup != NO_NODE).then_some(backup);
                self.on_route_update(slot, epoch, owner, backup, out);
            }
            NodeMsg::SlotChunk {
                slot,
                epoch,
                index,
                kind,
                done,
                entries,
            } => {
                self.on_slot_chunk(from, slot, epoch, index, kind, done, entries, out);
            }
            NodeMsg::SlotAck { slot, epoch } => {
                self.on_slot_ack(slot, epoch, out);
            }
            NodeMsg::SyncReq { slot, epoch } => {
                self.on_sync_req(from, slot, epoch, out);
            }
            NodeMsg::Handoff { slot, to } => {
                self.handoff(slot, to, out);
            }
        }
    }

    /// Peer digest disagreed with ours: push every moved route we know.
    /// Receivers apply only strictly newer epochs, so over-sending is
    /// harmless and the tables converge.
    fn anti_entropy(&mut self, peer: NodeId, their_digest: u64, out: &mut Outbox) {
        if their_digest == self.route.digest() {
            return;
        }
        let updates: Vec<NodeMsg> = self
            .route
            .changed()
            .map(|(slot, r)| NodeMsg::RouteUpdate {
                slot,
                epoch: r.epoch,
                owner: r.owner,
                backup: r.backup.unwrap_or(NO_NODE),
            })
            .collect();
        for u in updates {
            out.send(peer, u);
        }
    }

    fn on_fwd_reply(&mut self, uid: u64, status: Status, value: u64, out: &mut Outbox) {
        if !self.pending_fwd.contains_key(&uid) {
            return; // duplicate reply; already answered
        }
        match status {
            Status::Redirect => {
                // The node we picked wasn't the owner; chase the referral
                // immediately (same uid — dedup protects the retry).
                let to = value as NodeId;
                if to != NO_NODE && to != self.cfg.id && self.cfg.nodes.contains(&to) {
                    let pf = self.pending_fwd.get_mut(&uid).expect("checked above");
                    pf.to = to;
                    pf.sent_at = self.now;
                    let (key, op, arg) = (pf.key, pf.op, pf.arg);
                    let trace = trace_word::next_hop(pf.trace);
                    out.send(
                        to,
                        NodeMsg::Fwd {
                            uid,
                            key,
                            op,
                            arg,
                            trace,
                        },
                    );
                } else {
                    // Referral loops back to us: our table moved since the
                    // forward; re-ingress locally.
                    let pf = self.pending_fwd.remove(&uid).expect("checked above");
                    self.ingress(pf.origin, uid, pf.key, pf.op, pf.arg, pf.trace, out);
                }
            }
            Status::Busy => {
                // Leave the pending entry; the tick-driven resend retries
                // after a backoff interval.
            }
            _ => {
                let pf = self.pending_fwd.remove(&uid).expect("checked above");
                settle_fwd(uid, pf, status, value, out);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_repl(
        &mut self,
        from: NodeId,
        slot: Slot,
        epoch: u64,
        seq: u64,
        uid: u64,
        key: u64,
        op: u8,
        arg: u64,
        trace: u64,
        out: &mut Outbox,
    ) {
        let r = self.route.get(slot);
        if epoch < r.epoch || r.owner != from || r.backup != Some(self.cfg.id) {
            // Stale primary (deposed by failover/handoff) — teach it.
            out.send(
                from,
                NodeMsg::RouteUpdate {
                    slot,
                    epoch: r.epoch,
                    owner: r.owner,
                    backup: r.backup.unwrap_or(NO_NODE),
                },
            );
            return;
        }
        if epoch > r.epoch {
            // The primary is ahead of our routing view; we can't safely
            // sequence into an epoch we don't know. Drop — the primary
            // retransmits, and anti-entropy catches our table up first.
            return;
        }
        let st = &mut self.slots[slot as usize];
        if seq < st.backup_next {
            // Already applied; the ack must have been lost. Re-ack.
            self.kept_acks.remove(&slot);
            out.send(
                from,
                NodeMsg::ReplAck {
                    slot,
                    epoch,
                    seq: st.backup_next,
                },
            );
            return;
        }
        st.holdback.insert(seq, (uid, key, op, arg, trace));
        // Drain the contiguous prefix (apply strictly in sequence order).
        let mut progressed = false;
        // Every record applied answered one of this node's own forwards.
        let mut own_only = true;
        loop {
            let next = {
                let st = &mut self.slots[slot as usize];
                match st.holdback.remove(&st.backup_next) {
                    Some(rec) => {
                        st.backup_next += 1;
                        Some(rec)
                    }
                    None => None,
                }
            };
            let Some((uid, key, op, arg, trace)) = next else {
                break;
            };
            progressed = true;
            let t_recv = now_ns();
            let result = self.store.apply(slot, key, op, arg);
            if trace_word::id(trace) != 0 {
                // Backup hop span: the replicated apply on the standby.
                record_span(
                    trace_track(trace_word::id(trace)),
                    Algo::Cluster,
                    Lane::Receive,
                    t_recv,
                );
            }
            count(Counter::ClusterReplApplied, 1);
            out.applied.push(ApplyRecord {
                uid,
                slot,
                key,
                op,
                arg,
                result,
                primary: false,
                epoch,
            });
            self.slots[slot as usize].dedup_done(uid, result, self.cfg.dedup_cap);
            // This node forwarded the op, and it is now on both copies: the
            // answer is ours to give, and it is the primary's result.
            match self.pending_fwd.remove(&uid) {
                Some(pf) => settle_fwd(uid, pf, Status::Ok, result, out),
                None => own_only = false,
            }
        }
        if !progressed {
            return;
        }
        let seq = self.slots[slot as usize].backup_next;
        if own_only {
            // Nobody waits on this ack: keep it for a frame that goes anyway.
            self.kept_acks.insert(slot, (from, epoch, seq));
        } else {
            self.kept_acks.remove(&slot);
            out.send(from, NodeMsg::ReplAck { slot, epoch, seq });
        }
    }

    fn on_repl_ack(&mut self, slot: Slot, epoch: u64, seq: u64, out: &mut Outbox) {
        let r = self.route.get(slot);
        if r.owner != self.cfg.id || epoch != r.epoch {
            return;
        }
        let st = &mut self.slots[slot as usize];
        if seq <= st.repl_acked {
            return;
        }
        st.repl_acked = seq;
        // The retransmit timer covers the unacked head: progress restarts
        // it, or a log that never drains would be resent whole every
        // `resend_after` ticks.
        st.repl_sent_at = self.now;
        let cap = self.cfg.dedup_cap;
        while st.repl_log.front().is_some_and(|e| e.seq < seq) {
            let e = st.repl_log.pop_front().expect("checked non-empty");
            st.dedup_done(e.uid, e.result, cap);
            for w in e.waiters {
                out.reply(w, e.uid, Status::Ok, e.result);
            }
        }
        self.maybe_start_transfer(slot, out);
    }

    fn on_route_update(
        &mut self,
        slot: Slot,
        epoch: u64,
        owner: NodeId,
        backup: Option<NodeId>,
        out: &mut Outbox,
    ) {
        // The route of our own handoff, gossiped back (the receiver, or a
        // peer it taught, answering our heartbeat's stale digest) ahead of
        // the `SlotAck`: it deposes nobody. Taking it for a deposition would
        // discard the copy that makes us the backup while the receiver may
        // still be importing; the `SlotAck` applies this route.
        if matches!(
            self.slots[slot as usize].phase,
            Phase::Transferring { to, recv_role: RecvRole::Owner, epoch: sent, .. }
                if to == owner && sent == epoch
        ) {
            return;
        }
        let before = self.route.get(slot);
        if !self.route.apply(slot, epoch, owner, backup) {
            return;
        }
        let me = self.cfg.id;
        let was_owner = before.owner == me;
        let st = &mut self.slots[slot as usize];
        if was_owner && owner != me {
            flight(FlightKind::Demote, slot as u64, epoch, owner as u64);
            // Deposed while we thought we were primary: our store may hold
            // applied-but-unacked writes the new primary never saw. Answer
            // anything pending with a redirect, discard the diverged copy,
            // and resync to rejoin as backup.
            let log: Vec<LogEntry> = st.repl_log.drain(..).collect();
            st.reset_repl();
            let queued: Vec<_> = st.queued.drain(..).collect();
            st.phase = Phase::Normal;
            st.import = None;
            for e in log {
                st.dedup.remove(&e.uid);
                for w in e.waiters {
                    out.reply(w, e.uid, Status::Redirect, owner as u64);
                }
            }
            for (origin, uid, ..) in queued {
                out.reply(origin, uid, Status::Redirect, owner as u64);
            }
            self.store.discard(slot);
            let st = &mut self.slots[slot as usize];
            st.dedup.clear();
            st.dedup_order.clear();
            // The watermarks stay: they record completions that were
            // replication-acked, so the new primary's history includes
            // them — refusing their retries remains correct even while
            // our local dedup copy is being resynced.
            if backup == Some(me) {
                // The new primary expects us as backup but our copy is
                // gone; ask for a fresh stream.
                out.send(owner, NodeMsg::SyncReq { slot, epoch });
            }
        } else if owner == me && before.owner != me {
            // Becoming owner. In a handoff this `RouteUpdate` precedes the
            // state stream: until the import at this epoch completes we
            // must not serve against missing state — queue instead.
            flight(FlightKind::Promote, slot as u64, epoch, me as u64);
            st.reset_repl();
            if st.imported_epoch < epoch {
                flight(FlightKind::HandoffPhase, slot as u64, 1, epoch);
                st.phase = Phase::AwaitImport { epoch };
            }
        } else if backup == Some(me) && before.backup != Some(me) && owner != me {
            // Newly appointed backup without having received a transfer:
            // sync from the owner unless this was the epoch we imported.
            st.backup_next = 0;
            st.holdback.clear();
            if st.imported_epoch < epoch {
                out.send(owner, NodeMsg::SyncReq { slot, epoch });
            }
        }
        // Any forwards parked on the old owner re-target on next resend
        // tick; speed that up for this slot.
        let sends: Vec<(NodeId, NodeMsg)> = self
            .pending_fwd
            .iter_mut()
            .filter(|(_, pf)| slot_for(pf.key, self.cfg.slots) == slot && pf.to != owner)
            .map(|(&uid, pf)| {
                pf.to = owner;
                pf.sent_at = self.now;
                (
                    owner,
                    NodeMsg::Fwd {
                        uid,
                        key: pf.key,
                        op: pf.op,
                        arg: pf.arg,
                        trace: trace_word::next_hop(pf.trace),
                    },
                )
            })
            .collect();
        for (to, msg) in sends {
            out.send(to, msg);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_slot_chunk(
        &mut self,
        from: NodeId,
        slot: Slot,
        epoch: u64,
        index: u32,
        kind: u8,
        done: u8,
        entries: Vec<(u64, u64)>,
        out: &mut Outbox,
    ) {
        let st = &mut self.slots[slot as usize];
        if st.imported_epoch >= epoch {
            // Retransmission of a transfer we already installed — the ack
            // was lost. Re-ack so the sender stops.
            out.send(from, NodeMsg::SlotAck { slot, epoch });
            return;
        }
        let import = match &mut st.import {
            Some(i) if i.epoch == epoch => i,
            _ => {
                st.import = Some(ImportState {
                    epoch,
                    chunks: BTreeMap::new(),
                    last_index: None,
                });
                st.import.as_mut().expect("just set")
            }
        };
        import.chunks.insert(index, (kind, entries));
        if done != 0 {
            import.last_index = Some(index);
        }
        let Some(last) = import.last_index else {
            return;
        };
        if import.chunks.len() as u32 != last + 1 {
            return; // gaps remain; sender retransmits
        }
        // Complete: install.
        let import = st.import.take().expect("checked above");
        st.imported_epoch = epoch;
        st.reset_repl();
        st.dedup.clear();
        st.dedup_order.clear();
        let mut data = Vec::new();
        let mut dedup = Vec::new();
        let mut floors = Vec::new();
        for (_, (kind, entries)) in import.chunks {
            match kind {
                chunk_kind::DATA => data.extend(entries),
                chunk_kind::DEDUP => dedup.extend(entries),
                chunk_kind::FLOOR => floors.extend(entries),
                _ => {}
            }
        }
        self.store.discard(slot);
        self.store.import(slot, &data);
        let st = &mut self.slots[slot as usize];
        // Watermarks first (max-merged with anything already known), so an
        // eviction triggered by installing the dedup entries below lands on
        // top of the sender's floors rather than under them.
        for (origin, floor) in floors {
            let f = st.evict_floor.entry(origin).or_insert(0);
            *f = (*f).max(floor);
        }
        for (uid, result) in dedup {
            st.dedup_done(uid, result, self.cfg.dedup_cap);
        }
        if matches!(st.phase, Phase::AwaitImport { epoch: e } if e <= epoch) {
            st.phase = Phase::Normal;
            flight(FlightKind::HandoffPhase, slot as u64, 0, epoch);
        }
        out.send(from, NodeMsg::SlotAck { slot, epoch });
        // If the preceding RouteUpdate made us owner, we are now live for
        // this slot; queued ops (if any) replay through normal ingress.
        self.replay_queued(slot, out);
    }

    fn on_slot_ack(&mut self, slot: Slot, epoch: u64, out: &mut Outbox) {
        let st = &mut self.slots[slot as usize];
        let Phase::Transferring {
            to,
            recv_role,
            epoch: t_epoch,
            ..
        } = st.phase
        else {
            return;
        };
        if epoch != t_epoch {
            return;
        }
        st.phase = Phase::Normal;
        flight(FlightKind::HandoffPhase, slot as u64, 0, epoch);
        match recv_role {
            RecvRole::Owner => {
                // Handoff complete: receiver owns the slot, we back it up.
                count(Counter::ClusterHandoffs, 1);
                flight(FlightKind::Demote, slot as u64, epoch, to as u64);
                self.route.apply(slot, epoch, to, Some(self.cfg.id));
                let st = &mut self.slots[slot as usize];
                st.reset_repl();
                // Our store copy is exactly what we exported (ops were
                // queued), so we are a valid backup at this epoch.
                st.imported_epoch = epoch;
                let update = NodeMsg::RouteUpdate {
                    slot,
                    epoch,
                    owner: to,
                    backup: self.cfg.id,
                };
                for peer in self.peers().collect::<Vec<_>>() {
                    out.send(peer, update.clone());
                }
                // Queued ops chase the new owner, uids preserved.
                let queued: Vec<_> = self.slots[slot as usize].queued.drain(..).collect();
                for (origin, uid, key, op, arg, trace) in queued {
                    match origin {
                        Origin::Client(..) => self.ingress(origin, uid, key, op, arg, trace, out),
                        Origin::Node(n) => {
                            count(Counter::ClusterRedirects, 1);
                            out.send(
                                n,
                                NodeMsg::FwdReply {
                                    uid,
                                    status: Status::Redirect,
                                    value: to as u64,
                                },
                            );
                        }
                    }
                }
            }
            RecvRole::Backup => {
                // Resync complete: we stay primary, receiver is backup.
                self.route.apply(slot, epoch, self.cfg.id, Some(to));
                let st = &mut self.slots[slot as usize];
                st.reset_repl();
                let update = NodeMsg::RouteUpdate {
                    slot,
                    epoch,
                    owner: self.cfg.id,
                    backup: to,
                };
                for peer in self.peers().collect::<Vec<_>>() {
                    out.send(peer, update.clone());
                }
                self.replay_queued(slot, out);
            }
        }
    }

    fn on_sync_req(&mut self, from: NodeId, slot: Slot, _epoch: u64, out: &mut Outbox) {
        let r = self.route.get(slot);
        if r.owner != self.cfg.id || from == self.cfg.id {
            return;
        }
        let st = &mut self.slots[slot as usize];
        // Already draining/transferring (possibly to the same node): let
        // that finish; the requester re-requests if still stale.
        if st.phase == Phase::Normal {
            flight(FlightKind::HandoffPhase, slot as u64, 2, r.epoch);
            st.phase = Phase::Draining {
                to: from,
                recv_role: RecvRole::Backup,
            };
            self.maybe_start_transfer(slot, out);
        }
    }

    // ------------------------------------------------------------------
    // Handoff / transfer machinery
    // ------------------------------------------------------------------

    /// Begins migrating `slot` to `to` (admin entry point; also invoked on
    /// receipt of a [`NodeMsg::Handoff`] frame). Not the owner → forward
    /// to the owner. Already busy → ignored (idempotent for retried admin
    /// commands).
    pub fn start_handoff(&mut self, slot: Slot, to: NodeId, out: &mut Outbox) {
        let mark = out.sends.len();
        self.handoff(slot, to, out);
        self.ride_kept_acks(mark, out);
    }

    fn handoff(&mut self, slot: Slot, to: NodeId, out: &mut Outbox) {
        if slot >= self.cfg.slots || to == self.cfg.id || !self.cfg.nodes.contains(&to) {
            return;
        }
        let r = self.route.get(slot);
        if r.owner != self.cfg.id {
            out.send(r.owner, NodeMsg::Handoff { slot, to });
            return;
        }
        let st = &mut self.slots[slot as usize];
        if st.phase != Phase::Normal {
            return;
        }
        flight(FlightKind::HandoffPhase, slot as u64, 2, r.epoch);
        st.phase = Phase::Draining {
            to,
            recv_role: RecvRole::Owner,
        };
        self.maybe_start_transfer(slot, out);
    }

    /// Drain → transfer transition: once the replication log is empty
    /// (every admitted op acked), snapshot and stream the slot.
    fn maybe_start_transfer(&mut self, slot: Slot, out: &mut Outbox) {
        let st = &self.slots[slot as usize];
        let Phase::Draining { to, recv_role } = st.phase else {
            return;
        };
        if !st.repl_log.is_empty() {
            return; // still draining
        }
        let r = self.route.get(slot);
        let epoch = r.epoch + 1;
        let (owner, backup) = match recv_role {
            RecvRole::Owner => (to, self.cfg.id),
            RecvRole::Backup => (self.cfg.id, to),
        };
        // Authority first: the receiver must know its role before the
        // stream completes.
        let route_msg = NodeMsg::RouteUpdate {
            slot,
            epoch,
            owner,
            backup,
        };
        // Snapshot state + completed dedup entries into idempotent chunks.
        let data = self.store.export(slot);
        let st = &self.slots[slot as usize];
        let dedup: Vec<(u64, u64)> = st
            .dedup
            .iter()
            .filter_map(|(&uid, d)| match d {
                Dedup::Done(v) => Some((uid, *v)),
                Dedup::InFlight => None,
            })
            .collect();
        let per = self.cfg.chunk_entries.max(1);
        let mut chunks: Vec<NodeMsg> = Vec::new();
        for batch in data.chunks(per) {
            chunks.push(NodeMsg::SlotChunk {
                slot,
                epoch,
                index: chunks.len() as u32,
                kind: chunk_kind::DATA,
                done: 0,
                entries: batch.to_vec(),
            });
        }
        for batch in dedup.chunks(per) {
            chunks.push(NodeMsg::SlotChunk {
                slot,
                epoch,
                index: chunks.len() as u32,
                kind: chunk_kind::DEDUP,
                done: 0,
                entries: batch.to_vec(),
            });
        }
        // Eviction watermarks travel with the dedup entries they bound:
        // without them the receiver would re-apply a retry of an op this
        // node applied and then evicted.
        let floors: Vec<(u64, u64)> = st
            .evict_floor
            .iter()
            .map(|(&origin, &floor)| (origin, floor))
            .collect();
        for batch in floors.chunks(per) {
            chunks.push(NodeMsg::SlotChunk {
                slot,
                epoch,
                index: chunks.len() as u32,
                kind: chunk_kind::FLOOR,
                done: 0,
                entries: batch.to_vec(),
            });
        }
        if chunks.is_empty() {
            chunks.push(NodeMsg::SlotChunk {
                slot,
                epoch,
                index: 0,
                kind: chunk_kind::DATA,
                done: 1,
                entries: Vec::new(),
            });
        } else if let Some(NodeMsg::SlotChunk { done, .. }) = chunks.last_mut() {
            *done = 1;
        }
        out.send(to, route_msg);
        for c in &chunks {
            out.send(to, c.clone());
        }
        let st = &mut self.slots[slot as usize];
        flight(FlightKind::HandoffPhase, slot as u64, 3, epoch);
        st.phase = Phase::Transferring {
            to,
            recv_role,
            epoch,
            chunks,
            last_send: self.now,
            resends: 0,
        };
    }

    /// Re-ingresses ops queued while a slot was draining/transferring
    /// (used when this node remains/becomes the owner). A no-op unless the
    /// slot is back to `Normal` — replaying into a non-serving phase would
    /// just re-queue everything.
    fn replay_queued(&mut self, slot: Slot, out: &mut Outbox) {
        if self.slots[slot as usize].phase != Phase::Normal {
            return;
        }
        let queued: Vec<_> = self.slots[slot as usize].queued.drain(..).collect();
        for (origin, uid, key, op, arg, trace) in queued {
            self.ingress(origin, uid, key, op, arg, trace, out);
        }
    }

    // ------------------------------------------------------------------
    // Input: time
    // ------------------------------------------------------------------

    /// Advances the clock to `now` (monotone): heartbeats, retransmits,
    /// and failure detection all run here.
    pub fn on_tick(&mut self, now: u64, out: &mut Outbox) {
        debug_assert!(now >= self.now, "time went backwards");
        self.now = now;

        // Kept acks no frame has carried.
        for (slot, (to, epoch, seq)) in std::mem::take(&mut self.kept_acks) {
            out.send(to, NodeMsg::ReplAck { slot, epoch, seq });
        }

        // Heartbeats.
        if now.saturating_sub(self.last_hello) >= self.cfg.heartbeat_every {
            self.last_hello = now;
            let hello = NodeMsg::Hello {
                version: NODE_PROTO_VERSION,
                node: self.cfg.id,
                digest: self.route.digest(),
            };
            for peer in self.peers().collect::<Vec<_>>() {
                out.send(peer, hello.clone());
            }
        }

        // Forward retransmits (owner may have changed; re-resolve).
        let resend = self.cfg.resend_after;
        let slots = self.cfg.slots;
        let stale: Vec<u64> = self
            .pending_fwd
            .iter()
            .filter(|(_, pf)| now.saturating_sub(pf.sent_at) >= resend)
            .map(|(&uid, _)| uid)
            .collect();
        for uid in stale {
            let slot = {
                let pf = self.pending_fwd.get(&uid).expect("collected above");
                slot_for(pf.key, slots)
            };
            let owner = self.route.get(slot).owner;
            if owner == self.cfg.id {
                // Ownership moved to us since the forward; serve locally.
                let pf = self.pending_fwd.remove(&uid).expect("collected above");
                self.ingress(pf.origin, uid, pf.key, pf.op, pf.arg, pf.trace, out);
            } else {
                let pf = self.pending_fwd.get_mut(&uid).expect("collected above");
                pf.to = owner;
                pf.sent_at = now;
                out.send(
                    owner,
                    NodeMsg::Fwd {
                        uid,
                        key: pf.key,
                        op: pf.op,
                        arg: pf.arg,
                        trace: trace_word::next_hop(pf.trace),
                    },
                );
            }
        }

        // Replication retransmits + transfer retransmits + drain progress.
        for slot in 0..self.cfg.slots {
            let r = self.route.get(slot);
            if r.owner == self.cfg.id {
                let st = &mut self.slots[slot as usize];
                if !st.repl_log.is_empty() && now.saturating_sub(st.repl_sent_at) >= resend {
                    st.repl_sent_at = now;
                    if let Some(b) = r.backup {
                        let resends: Vec<NodeMsg> = st
                            .repl_log
                            .iter()
                            .map(|e| NodeMsg::Repl {
                                slot,
                                epoch: r.epoch,
                                seq: e.seq,
                                uid: e.uid,
                                key: e.key,
                                op: e.op,
                                arg: e.arg,
                                // Retransmits are untraced: the hop span
                                // for the original send already exists (or
                                // the trace was never sampled).
                                trace: 0,
                            })
                            .collect();
                        count(Counter::ClusterReplResent, resends.len() as u64);
                        for m in resends {
                            out.send(b, m);
                        }
                    }
                }
            }
            let st = &mut self.slots[slot as usize];
            if let Phase::Transferring {
                to,
                recv_role,
                epoch,
                ref chunks,
                ref mut last_send,
                ref mut resends,
            } = st.phase
            {
                if now.saturating_sub(*last_send) >= resend << (*resends).min(6) {
                    *last_send = now;
                    *resends += 1;
                    let (owner, backup) = match recv_role {
                        RecvRole::Owner => (to, self.cfg.id),
                        RecvRole::Backup => (self.cfg.id, to),
                    };
                    out.send(
                        to,
                        NodeMsg::RouteUpdate {
                            slot,
                            epoch,
                            owner,
                            backup,
                        },
                    );
                    for chunk in chunks {
                        out.send(to, chunk.clone());
                    }
                }
            }
            self.maybe_start_transfer(slot, out);
        }

        // Failure detection.
        self.detect_failures(out);
    }

    /// Tick of the most recent message from `peer` (node start counts as
    /// tick 0 — a peer that never spoke times out `failover_after` ticks
    /// after boot).
    fn heard(&self, peer: NodeId) -> u64 {
        self.last_heard.get(&peer).copied().unwrap_or(0)
    }

    fn detect_failures(&mut self, out: &mut Outbox) {
        let me = self.cfg.id;
        let deadline = self.cfg.failover_after;
        // Majority guard: a node only acts on failure suspicion while it
        // can hear more than half the membership (itself included). An
        // isolated minority otherwise promotes itself symmetrically with
        // the majority side — equal epochs, different owners, permanent
        // split-brain. The minority instead waits to be taught by
        // strictly-higher-epoch updates when the partition heals.
        //
        // The freshness window is half the failover deadline: when a
        // partition cuts every link at once, per-peer last-heard stamps
        // still differ by up to a heartbeat interval, so testing them
        // against the same deadline would leave a few ticks where the
        // primary already looks dead while a stale peer still counts
        // toward the majority. The gap (heartbeats are far shorter than
        // deadline/2) makes the two conditions mutually exclusive on the
        // minority side.
        let fresh = (deadline / 2).max(1);
        let heard_recently = 1 + self
            .peers()
            .filter(|&p| self.now.saturating_sub(self.heard(p)) < fresh)
            .count();
        if heard_recently * 2 <= self.cfg.nodes.len() {
            // Arm the holdoff (see the field docs): after contact
            // resumes, suppress suspicion long enough for every live
            // peer's heartbeats to refresh the stale last-heard stamps.
            self.failover_holdoff = self.now.saturating_add(deadline);
            return;
        }
        if self.now < self.failover_holdoff {
            return;
        }
        for slot in 0..self.cfg.slots {
            let r = self.route.get(slot);
            // Backup promotes over a silent primary.
            if r.backup == Some(me)
                && r.owner != me
                && self.now.saturating_sub(self.heard(r.owner)) >= deadline
            {
                count(Counter::ClusterFailovers, 1);
                let epoch = r.epoch + 1;
                flight(FlightKind::Promote, slot as u64, epoch, me as u64);
                self.route.apply(slot, epoch, me, None);
                let st = &mut self.slots[slot as usize];
                st.reset_repl();
                st.phase = Phase::Normal;
                st.import = None;
                let update = NodeMsg::RouteUpdate {
                    slot,
                    epoch,
                    owner: me,
                    backup: NO_NODE,
                };
                for peer in self.peers().collect::<Vec<_>>() {
                    out.send(peer, update.clone());
                }
                self.replay_queued(slot, out);
                continue;
            }
            // Primary abandons a silent backup (degraded, un-replicated
            // mode) so clients stop waiting on acks that cannot come.
            if r.owner == me {
                if let Some(b) = r.backup {
                    if self.now.saturating_sub(self.heard(b)) >= deadline {
                        let epoch = r.epoch + 1;
                        flight(FlightKind::Demote, slot as u64, epoch, b as u64);
                        self.route.apply(slot, epoch, me, None);
                        let st = &mut self.slots[slot as usize];
                        // Everything in the log is applied locally; with no
                        // backup left, local apply is the commit point.
                        let cap = self.cfg.dedup_cap;
                        let drained: Vec<LogEntry> = st.repl_log.drain(..).collect();
                        st.reset_repl();
                        for e in drained {
                            st.dedup_done(e.uid, e.result, cap);
                            for w in e.waiters {
                                out.reply(w, e.uid, Status::Ok, e.result);
                            }
                        }
                        let update = NodeMsg::RouteUpdate {
                            slot,
                            epoch,
                            owner: me,
                            backup: NO_NODE,
                        };
                        for peer in self.peers().collect::<Vec<_>>() {
                            out.send(peer, update.clone());
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ModelStore;
    use mpsync_objects::seq::kv_ops;
    use mpsync_objects::EMPTY;

    fn pair() -> (NodeCore<ModelStore>, NodeCore<ModelStore>) {
        let mk = |id: NodeId| {
            let cfg = NodeConfig::new(id, vec![0, 1]);
            let slots = cfg.slots;
            NodeCore::new(cfg, ModelStore::new(slots))
        };
        (mk(0), mk(1))
    }

    /// Shuttles outbox frames between two nodes until quiescent.
    fn pump(a: &mut NodeCore<ModelStore>, b: &mut NodeCore<ModelStore>, out: &mut Outbox) {
        let mut guard = 0;
        loop {
            let sends = std::mem::take(&mut out.sends);
            if sends.is_empty() {
                break;
            }
            guard += 1;
            assert!(guard < 100, "message shuttle did not quiesce");
            for (to, msg) in sends {
                // Frames to anyone but these two nodes are dropped.
                let (from, node) = if to == a.id() {
                    (b.id(), &mut *a)
                } else if to == b.id() {
                    (a.id(), &mut *b)
                } else {
                    continue;
                };
                node.on_node_msg(from, msg, out);
            }
        }
    }

    #[test]
    fn local_op_with_backup_acks_after_repl_ack() {
        let (mut a, mut b) = pair();
        // Find a key that node 0 owns.
        let key = (0..)
            .find(|&k| a.route().get(a.slot_of(k)).owner == 0)
            .unwrap();
        let mut out = Outbox::default();
        a.on_client_op(7, 1, key, kv_ops::PUT as u8, 42, &mut out);
        let has_backup = a.route().get(a.slot_of(key)).backup.is_some();
        if has_backup {
            assert!(out.replies.is_empty(), "ack must wait for the backup");
        }
        pump(&mut a, &mut b, &mut out);
        assert_eq!(out.replies.len(), 1);
        let (token, resp) = out.replies[0];
        assert_eq!(token, 7);
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.value, EMPTY); // PUT returns previous value
        assert_eq!(resp.id, 1);
    }

    #[test]
    fn duplicate_uid_is_answered_from_dedup_not_reapplied() {
        let (mut a, mut b) = pair();
        let key = (0..)
            .find(|&k| a.route().get(a.slot_of(k)).owner == 0)
            .unwrap();
        let mut out = Outbox::default();
        a.on_client_op(7, 1, key, kv_ops::ADD as u8, 5, &mut out);
        pump(&mut a, &mut b, &mut out);
        assert_eq!(out.replies.len(), 1);
        assert_eq!(out.replies[0].1.value, 5);
        let applies = out.applied.len();

        let mut out2 = Outbox::default();
        a.on_client_op(9, 1, key, kv_ops::ADD as u8, 5, &mut out2);
        pump(&mut a, &mut b, &mut out2);
        assert_eq!(out2.replies.len(), 1);
        assert_eq!(out2.replies[0].1.value, 5, "retry must not re-apply");
        assert!(out2.applied.is_empty());
        assert!(applies >= 1);
    }

    #[test]
    fn non_owner_forwards_and_relays_reply() {
        let (mut a, mut b) = pair();
        // A key node 1 owns, submitted to node 0.
        let key = (0..)
            .find(|&k| a.route().get(a.slot_of(k)).owner == 1)
            .unwrap();
        let mut out = Outbox::default();
        a.on_client_op(3, 8, key, kv_ops::PUT as u8, 11, &mut out);
        assert!(out.replies.is_empty());
        assert!(matches!(out.sends[0].1, NodeMsg::Fwd { uid: 8, .. }));
        pump(&mut a, &mut b, &mut out);
        assert_eq!(out.replies.len(), 1);
        assert_eq!(out.replies[0].0, 3);
        assert_eq!(out.replies[0].1.status, Status::Ok);
        // The apply happened on node 1 (primary), replicated back on 0.
        assert!(out.applied.iter().any(|r| r.uid == 8 && r.primary));
    }

    #[test]
    fn the_backup_answers_its_own_forward_and_its_ack_rides_the_next_frame() {
        let (mut a, mut b) = pair();
        // Node 0 forwards to node 1, and is the backup of every slot node 1
        // owns.
        let mut keys = (0..).filter(|&k| a.route().get(a.slot_of(k)).owner == 1);
        let (k1, k2) = (keys.next().unwrap(), keys.next().unwrap());
        assert_eq!(a.route().get(a.slot_of(k1)).backup, Some(0));
        let mut out = Outbox::default();
        a.on_client_op(3, 8, k1, kv_ops::ADD as u8, 5, &mut out);
        let (to, fwd) = out.sends.pop().unwrap();
        assert_eq!(to, 1);

        // The owner applies and replicates to the forwarder; nobody waits on
        // it for a `FwdReply`.
        let mut at_b = Outbox::default();
        b.on_node_msg(0, fwd, &mut at_b);
        assert!(at_b.replies.is_empty());
        let [(0, repl @ NodeMsg::Repl { .. })] = &at_b.sends[..] else {
            panic!("the owner must send exactly the Repl: {:?}", at_b.sends);
        };

        // The backup applies the record and answers its client with its own
        // result; the ack nobody waits on is kept.
        let mut at_a = Outbox::default();
        a.on_node_msg(1, repl.clone(), &mut at_a);
        assert_eq!(at_a.replies.len(), 1);
        assert_eq!(at_a.replies[0].0, 3);
        assert_eq!(at_a.replies[0].1.status, Status::Ok);
        assert_eq!(at_a.replies[0].1.value, 5);
        assert!(at_a.sends.is_empty(), "ack kept: {:?}", at_a.sends);
        assert_eq!(a.pending_fwds(), 0);
        let lag =
            |n: &NodeCore<ModelStore>, k: u64| n.slot_snapshots()[n.slot_of(k) as usize].repl_lag;
        assert_eq!(lag(&b, k1), 1);

        // The next frame to the primary carries the ack in front of it.
        let mut out = Outbox::default();
        a.on_client_op(3, 9, k2, kv_ops::ADD as u8, 1, &mut out);
        assert!(
            matches!(
                &out.sends[..],
                [
                    (1, NodeMsg::ReplAck { .. }),
                    (1, NodeMsg::Fwd { uid: 9, .. })
                ]
            ),
            "{:?}",
            out.sends
        );
        let (_, ack) = out.sends.remove(0);
        b.on_node_msg(0, ack, &mut Outbox::default());
        assert_eq!(lag(&b, k1), 0);

        // With no frame to ride, a kept ack goes out at the next tick.
        let mut out = Outbox::default();
        a.on_client_op(3, 10, k1, kv_ops::ADD as u8, 1, &mut out);
        pump(&mut a, &mut b, &mut out);
        assert_eq!(out.replies.len(), 1);
        assert_eq!(out.replies[0].1.value, 6);
        assert_eq!(lag(&b, k1), 1);
        let mut out = Outbox::default();
        a.on_tick(1, &mut out);
        assert!(matches!(out.sends[0], (1, NodeMsg::ReplAck { .. })));
        pump(&mut a, &mut b, &mut out);
        assert_eq!(lag(&b, k1), 0);
    }

    #[test]
    fn steady_load_on_one_slot_with_a_healthy_backup_resends_nothing() {
        let (mut a, mut b) = pair();
        let key = (0..)
            .find(|&k| a.route().get(a.slot_of(k)).owner == 0)
            .unwrap();
        let resend = NodeConfig::new(0, vec![0, 1]).resend_after;
        // Every frame takes one tick, and an op arrives every tick: the
        // replication log never drains, but the backup acks every record.
        let mut wire: Vec<(NodeId, NodeMsg)> = Vec::new();
        let (mut resent, mut answered) = (0, 0);
        for t in 1..=4 * resend {
            let mut next = Vec::new();
            for (to, msg) in std::mem::take(&mut wire) {
                let (from, node) = if to == 0 { (1, &mut a) } else { (0, &mut b) };
                let mut out = Outbox::default();
                node.on_node_msg(from, msg, &mut out);
                answered += out.replies.len();
                next.extend(out.sends);
            }
            let mut out = Outbox::default();
            a.on_tick(t, &mut out);
            b.on_tick(t, &mut out);
            resent += out
                .sends
                .iter()
                .filter(|(_, m)| matches!(m, NodeMsg::Repl { .. }))
                .count();
            next.extend(out.sends);
            let mut out = Outbox::default();
            a.on_client_op(7, t, key, kv_ops::ADD as u8, 1, &mut out);
            assert!(a.slot_snapshots()[a.slot_of(key) as usize].repl_lag > 0);
            next.extend(out.sends);
            wire = next;
        }
        assert!(answered as u64 >= 4 * resend - 2, "answered {answered}");
        assert_eq!(resent, 0, "a healthy backup's records were resent");
    }

    #[test]
    fn handoff_moves_slot_and_redirects() {
        let (mut a, mut b) = pair();
        let key = (0..)
            .find(|&k| a.route().get(a.slot_of(k)).owner == 0)
            .unwrap();
        let slot = a.slot_of(key);
        let mut out = Outbox::default();
        a.on_client_op(1, 1, key, kv_ops::PUT as u8, 99, &mut out);
        pump(&mut a, &mut b, &mut out);

        let mut out = Outbox::default();
        a.start_handoff(slot, 1, &mut out);
        pump(&mut a, &mut b, &mut out);
        assert_eq!(a.route().get(slot).owner, 1);
        assert_eq!(a.route().get(slot).backup, Some(0));
        assert_eq!(b.route().get(slot).owner, 1);
        // New owner serves the data.
        let mut out = Outbox::default();
        b.on_client_op(5, 2, key, kv_ops::GET as u8, 0, &mut out);
        pump(&mut b, &mut a, &mut out);
        assert_eq!(out.replies.len(), 1);
        assert_eq!(out.replies[0].1.value, 99);
        // Old owner redirects fresh client traffic by forwarding.
        let mut out = Outbox::default();
        a.on_client_op(6, 3, key, kv_ops::GET as u8, 0, &mut out);
        pump(&mut a, &mut b, &mut out);
        assert_eq!(out.replies.len(), 1);
        assert_eq!(out.replies[0].1.value, 99);
    }

    #[test]
    fn backup_promotes_after_silence_and_serves() {
        // A trio: promotion needs a majority view, which a 2-node cluster
        // cannot form once its peer is gone.
        let mk = |id: NodeId| {
            let cfg = NodeConfig::new(id, vec![0, 1, 2]);
            let slots = cfg.slots;
            NodeCore::new(cfg, ModelStore::new(slots))
        };
        let (mut a, mut b) = (mk(0), mk(1));
        let key = (0..)
            .find(|&k| {
                a.route().get(a.slot_of(k)).owner == 0
                    && a.route().get(a.slot_of(k)).backup == Some(1)
            })
            .unwrap();
        let slot = a.slot_of(key);
        let mut out = Outbox::default();
        a.on_client_op(1, 1, key, kv_ops::PUT as u8, 77, &mut out);
        pump(&mut a, &mut b, &mut out);
        assert_eq!(out.replies.len(), 1, "write acked while healthy");

        // Node 0 goes silent. Node 1 still hears node 2, so it holds a
        // majority and may promote once 0's silence crosses the deadline.
        let hello_from_2 = NodeMsg::Hello {
            version: NODE_PROTO_VERSION,
            node: 2,
            digest: b.route().digest(),
        };
        let mut out = Outbox::default();
        b.on_tick(90, &mut out);
        assert_eq!(b.route().get(slot).owner, 0, "no majority yet: no action");
        // A fresh heartbeat from node 2 restores b's majority view, but
        // the minority tick at 90 armed the failover holdoff — one tick
        // of majority contact is not yet licence to act.
        b.on_node_msg(2, hello_from_2.clone(), &mut Outbox::default());
        let mut out = Outbox::default();
        b.on_tick(100, &mut out);
        assert_eq!(b.route().get(slot).owner, 0, "holdoff armed: no action");
        // Majority contact held for a full failover window (node 2 keeps
        // heartbeating, so its freshness never lapses): now node 0's
        // continued silence is actionable.
        for t in [110u64, 130] {
            b.on_tick(t, &mut Outbox::default());
            b.on_node_msg(2, hello_from_2.clone(), &mut Outbox::default());
        }
        let mut out = Outbox::default();
        b.on_tick(141, &mut out);
        assert_eq!(b.route().get(slot).owner, 1, "backup promoted");
        assert_eq!(b.route().get(slot).backup, None);
        // The acked write survived the failover.
        let mut out = Outbox::default();
        b.on_client_op(5, 2, key, kv_ops::GET as u8, 0, &mut out);
        assert_eq!(out.replies.len(), 1);
        assert_eq!(out.replies[0].1.value, 77);
    }

    #[test]
    fn bad_key_and_opcode_are_rejected_locally() {
        let (mut a, _) = pair();
        let mut out = Outbox::default();
        a.on_client_op(1, 1, MAX_KEY, kv_ops::GET as u8, 0, &mut out);
        assert_eq!(out.replies[0].1.status, Status::BadRequest);
        assert!(out.sends.is_empty());
    }
}
