//! The socket transport: the same [`NodeCore`] the simulator verifies,
//! served over real TCP.
//!
//! **Threads.** A [`ClusterNode`] runs an acceptor (`cl-accept-<node>`),
//! one reader per inbound connection (`cl-read-<node>-<token>`), and one
//! core thread (`cl-core-<node>`) — and nothing else: the store's shards are
//! served by the core thread itself, inside each call (`store.rs`). The core
//! is the node's only mutator *and* its only writer, as a delegation server
//! is the only core that touches its object: the [`NodeCore`] with its
//! store, one outbound link per configured peer, and the write half of every
//! client and admin connection are its local state. Client and peer traffic
//! share the listener: the first frame classifies a connection (a
//! `0x10`-range [`NodeMsg::Hello`] marks a peer or admin; anything below is
//! a client [`Request`]). Inbound peer connections are only read — a node
//! answers a peer over its own link.
//!
//! **The one queue.** Readers decode frames and hand them to the core over
//! one channel, mirroring how the simulator feeds events to the state
//! machine; a connection that can be answered sends its write half first
//! (`Open`) and `Closed` last. That queue is still unbounded (ROADMAP
//! item 2). Nothing queues on the way out: each [`Outbox`] frame is encoded
//! into one reused buffer and written before the next input is taken.
//!
//! **Writes.** A write that fails, or cannot complete within `WRITE_BOUND`
//! (100 ms) because the receiver stopped reading, drops that socket.
//! A client resends the same request id on a new connection and is answered
//! from the dedup table. A peer link is re-dialled (`Hello` first) by the
//! next frame addressed to it, at most every `REDIAL_EVERY` (20 ms) and for
//! no longer than that per attempt, so peers must be a LAN round trip away;
//! what was lost meanwhile — forwards, replication records, transfer
//! chunks, heartbeats — the protocol retransmits, so a link keeps no
//! history.
//!
//! [`ClusterClient`] is the matching client: unlike
//! [`NetClient`](mpsync_net::NetClient) it keeps the **same request id
//! across every retry, redirect, and reconnect** of one logical op — the
//! id is the cluster's dedup uid, so a retry that lands after the original
//! was applied is answered from the dedup table instead of re-executing.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mpsync_net::frame::{
    encode_spans, stat_kind, trace_word, FrameError, FrameReader, NodeMsg, Request, Response,
    StatReply, Status, Wire, DEFAULT_MAX_FRAME, NODE_PROTO_VERSION, TAG_HANDOFF, TAG_HELLO,
};
use mpsync_net::STAT_SNAPSHOT_VERSION;
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Lane};

use crate::node::{NodeConfig, NodeCore, Outbox};
use crate::store::RuntimeStore;
use crate::{NodeId, Slot};

/// Reserved node id admin connections identify as: they may send
/// [`NodeMsg::Handoff`] but never participate in routing or replication.
pub const ADMIN_NODE: NodeId = 0xFFFE;

/// Longest one frame's write may block; past it the socket is dropped (see
/// the module docs). Only full socket buffers get here, and it is well
/// under the failover deadline, so one stalled socket cannot make the node
/// look dead.
const WRITE_BOUND: Duration = Duration::from_millis(100);

/// Pause between dial attempts on a down peer link, and the bound on each
/// attempt: an unreachable peer costs the core at most half its time.
const REDIAL_EVERY: Duration = Duration::from_millis(20);

/// How often a reader with nothing to read looks at the stop flag.
const READ_POLL: Duration = Duration::from_millis(200);

/// First frame of a mixed connection: peers open with `Hello`, clients
/// with an ordinary request.
enum Incoming {
    Client(Request),
    Peer(NodeMsg),
}

impl Wire for Incoming {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Incoming::Client(r) => r.encode_body(out),
            Incoming::Peer(m) => m.encode_body(out),
        }
    }

    fn decode_body(body: &[u8]) -> Result<Self, FrameError> {
        if (TAG_HELLO..=TAG_HANDOFF).contains(&body[0]) {
            NodeMsg::decode_body(body).map(Incoming::Peer)
        } else {
            Request::decode_body(body).map(Incoming::Client)
        }
    }
}

/// What readers send the core. Per connection: `Open` (client and admin
/// connections only), then its frames, then `Closed`.
enum Input {
    Open {
        token: u64,
        admin: bool,
        stream: TcpStream,
    },
    Client {
        token: u64,
        req: Request,
    },
    Peer {
        from: NodeId,
        msg: NodeMsg,
    },
    Closed {
        token: u64,
    },
}

/// Configuration for one TCP cluster member.
pub struct TcpNodeConfig {
    /// Protocol parameters (times are in ticks of `tick_ms`).
    pub node: NodeConfig,
    /// Pre-bound listener (bind to port 0 first when wiring a cluster up
    /// in-process, then exchange the resolved addresses).
    pub listener: TcpListener,
    /// Peer id → address, for the outbound mesh.
    pub peers: Vec<(NodeId, String)>,
    /// Milliseconds per protocol tick.
    pub tick_ms: u64,
}

/// A running cluster member: listener + peer mesh + core thread over the
/// real delegation runtime.
pub struct ClusterNode {
    stop: Arc<AtomicBool>,
    local: std::net::SocketAddr,
    core: Option<JoinHandle<NodeCore<RuntimeStore>>>,
    acceptor: Option<JoinHandle<()>>,
}

impl ClusterNode {
    /// Boots the node: starts the acceptor and the core loop. Peer links
    /// are dialled by the first frame addressed to each.
    pub fn start(cfg: TcpNodeConfig, store: RuntimeStore) -> io::Result<Self> {
        // A node that dies mid-protocol should leave its last structural
        // events (promotions, handoffs, busy rejections) on stderr.
        telemetry::install_panic_hook();
        let local = cfg.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<Input>();

        // Thread names say what a thread is and whose — a census of
        // `/proc/<pid>/task/*/comm` is how the thread model is checked.
        // `comm` keeps 15 bytes: a long token is cut, never the prefix.
        let id = cfg.node.id;
        let named = |name: String| thread::Builder::new().name(name);

        // Acceptor: a reader per connection.
        let acceptor = {
            let stop = Arc::clone(&stop);
            let listener = cfg.listener;
            let accept = move || {
                for (token, conn) in (1u64..).zip(listener.incoming()) {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let stop = Arc::clone(&stop);
                    let tx = tx.clone();
                    // A reader that cannot start is a connection refused.
                    let _ = named(format!("cl-read-{id}-{token}"))
                        .spawn(move || serve_conn(stream, token, tx, stop));
                }
            };
            named(format!("cl-accept-{id}")).spawn(accept)?
        };

        // Core loop: sole owner of the NodeCore and of every write half.
        let core = {
            let stop = Arc::clone(&stop);
            let tick_ms = cfg.tick_ms.max(1);
            let down = |addr| Link {
                addr,
                stream: None,
                next_dial: Instant::now(),
            };
            let links = cfg.peers.into_iter().map(|(id, addr)| (id, down(addr)));
            let mut socks = Sockets {
                id: cfg.node.id,
                links: links.collect(),
                conns: BTreeMap::new(),
                buf: Vec::with_capacity(256),
            };
            let mut node = NodeCore::new(cfg.node, store);
            let run = move || {
                let start = Instant::now();
                let mut last_tick = 0u64;
                let mut out = Outbox::default();
                while !stop.load(Ordering::Acquire) {
                    match rx.recv_timeout(Duration::from_millis(tick_ms / 2 + 1)) {
                        Ok(Input::Open {
                            token,
                            admin,
                            stream,
                        }) => drop(socks.conns.insert(token, (admin, stream))),
                        Ok(Input::Closed { token }) => drop(socks.conns.remove(&token)),
                        Ok(Input::Client { token, req }) => match req {
                            Request::Op {
                                id,
                                key,
                                op,
                                arg,
                                trace,
                            } => node.on_client_op_traced(token, id, key, op, arg, trace, &mut out),
                            Request::Ping { id } => out.replies.push((
                                token,
                                Response {
                                    id,
                                    status: Status::Ok,
                                    value: 0,
                                },
                            )),
                            // Served from the core thread: the slot table
                            // and routing view are read without racing the
                            // mutator. Not an op — no protocol state
                            // changes. Nothing is built for a connection
                            // already dropped for not reading.
                            Request::Stat { id, kind } => {
                                if socks.conns.contains_key(&token) {
                                    let payload = match kind {
                                        stat_kind::SPANS => encode_spans(&telemetry::drain_spans()),
                                        _ => cluster_snapshot_json(&node).into_bytes(),
                                    };
                                    socks.send_client(token, &StatReply { id, kind, payload });
                                }
                            }
                        },
                        Ok(Input::Peer { from, msg }) => node.on_node_msg(from, msg, &mut out),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                    let now = start.elapsed().as_millis() as u64 / tick_ms;
                    if now > last_tick {
                        last_tick = now;
                        node.on_tick(now, &mut out);
                    }
                    for (to, msg) in out.sends.drain(..) {
                        socks.send_node(to, &msg);
                    }
                    for (token, resp) in out.replies.drain(..) {
                        socks.send_client(token, &resp);
                    }
                    out.applied.clear(); // the verifier's feed; nobody reads it here
                }
                node
            };
            named(format!("cl-core-{id}")).spawn(run)?
        };

        Ok(Self {
            stop,
            local,
            core: Some(core),
            acceptor: Some(acceptor),
        })
    }

    /// The listener's resolved address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local
    }

    /// Stops every thread and returns the store for an orderly runtime
    /// shutdown.
    pub fn shutdown(mut self) -> RuntimeStore {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.local);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let core = self.core.take().expect("shutdown called once");
        core.join().expect("core thread panicked").into_store()
    }
}

/// A lazily dialled outbound connection to one peer. Write-only: the peer
/// answers over its own link.
struct Link {
    addr: String,
    stream: Option<TcpStream>,
    /// No dial before this instant (pushed out by a failed dial).
    next_dial: Instant,
}

/// Every socket the node writes to — local state of the core thread.
struct Sockets {
    id: NodeId,
    links: BTreeMap<NodeId, Link>,
    /// Connection token → (is an admin, write half), from `Input::Open`.
    conns: BTreeMap<u64, (bool, TcpStream)>,
    /// Encode buffer reused by every outgoing frame.
    buf: Vec<u8>,
}

impl Sockets {
    fn send_client(&mut self, token: u64, frame: &impl Wire) {
        if let Some((_, stream)) = self.conns.get(&token) {
            if !write_or_drop(stream, &mut self.buf, frame) {
                self.conns.remove(&token);
            }
        }
    }

    /// Frames for [`ADMIN_NODE`] go to every open admin connection (an
    /// admin skips what it is not waiting for); anything else goes down the
    /// peer's link, dialling it first if it is down and due.
    fn send_node(&mut self, to: NodeId, msg: &NodeMsg) {
        let buf = &mut self.buf;
        if to == ADMIN_NODE {
            self.conns
                .retain(|_, (admin, stream)| !*admin || write_or_drop(stream, buf, msg));
            return;
        }
        let Some(link) = self.links.get_mut(&to) else {
            return;
        };
        if link.stream.is_none() && Instant::now() >= link.next_dial {
            link.stream = dial(&link.addr, REDIAL_EVERY, None, Some(self.id)).ok();
            if link.stream.is_none() {
                link.next_dial = Instant::now() + REDIAL_EVERY;
            }
        }
        if let Some(stream) = &link.stream {
            if !write_or_drop(stream, buf, msg) {
                link.stream = None;
            }
        }
    }
}

/// The one place a frame meets a socket: encoded into `buf` and written
/// whole, within the stream's write timeout ([`WRITE_BOUND`], set by
/// [`dial`] and [`serve_conn`]). After an error the stream may hold part
/// of a frame and must not be written to again.
fn write_frame(mut stream: &TcpStream, buf: &mut Vec<u8>, frame: &impl Wire) -> io::Result<()> {
    buf.clear();
    frame.encode_frame(buf);
    stream.write_all(buf)
}

/// [`write_frame`] for the core: on failure the socket is shut down, which
/// also ends its reader, and `false` tells the caller to forget it.
fn write_or_drop(stream: &TcpStream, buf: &mut Vec<u8>, frame: &impl Wire) -> bool {
    let ok = write_frame(stream, buf, frame).is_ok();
    if !ok {
        let _ = stream.shutdown(Shutdown::Both);
    }
    ok
}

/// Connects to `addr` allowing `connect` per resolved address, sets
/// no-delay, bounds reads by `read` and writes by [`WRITE_BOUND`], and
/// opens with a `Hello` from `hello` when given.
fn dial(
    addr: &str,
    connect: Duration,
    read: Option<Duration>,
    hello: Option<NodeId>,
) -> io::Result<TcpStream> {
    let mut stream = Err(io::ErrorKind::AddrNotAvailable.into());
    for resolved in addr.to_socket_addrs()? {
        stream = TcpStream::connect_timeout(&resolved, connect);
        if stream.is_ok() {
            break;
        }
    }
    let stream = stream?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read)?;
    stream.set_write_timeout(Some(WRITE_BOUND))?;
    if let Some(node) = hello {
        let hello = NodeMsg::Hello {
            version: NODE_PROTO_VERSION,
            node,
            digest: 0,
        };
        write_frame(&stream, &mut Vec::new(), &hello)?;
    }
    Ok(stream)
}

/// Reads `T` frames off `stream` through `reader` until one satisfies
/// `wanted`; the others are skipped.
fn read_until<T: Wire>(
    mut stream: &TcpStream,
    reader: &mut FrameReader,
    wanted: impl Fn(&T) -> bool,
) -> io::Result<T> {
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(frame) = reader
            .next_frame::<T>()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            if wanted(&frame) {
                return Ok(frame);
            }
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        reader.extend(&chunk[..n]);
    }
}

/// Builds the versioned admin snapshot (`stat_kind::SNAPSHOT`) for a
/// cluster member: node identity, routing digest, per-slot protocol state
/// (role, epoch, phase, replication lag, queue/dedup occupancy), the
/// runtime's per-shard stats, the telemetry report (empty with the
/// feature off), and the flight-recorder dump (always on).
///
/// Shares [`STAT_SNAPSHOT_VERSION`] with the single-node server: the
/// `source` field ("cluster" vs "net") tells a scraper which shape it got.
fn cluster_snapshot_json(node: &NodeCore<RuntimeStore>) -> String {
    let slots: Vec<String> = node.slot_snapshots().iter().map(|s| s.to_json()).collect();
    format!(
        "{{\n\"version\": {STAT_SNAPSHOT_VERSION},\n\"source\": \"cluster\",\n\"node\": {},\n\
         \"route_digest\": {},\n\"pending_fwds\": {},\n\"slots\": [{}],\n\"runtime\": {},\n\
         \"telemetry\": {},\n\"flight\": {}\n}}",
        node.id(),
        node.route().digest(),
        node.pending_fwds(),
        slots.join(","),
        node.store().runtime_stats_json(),
        telemetry::TelemetryReport::capture().to_json(),
        telemetry::flight_json()
    )
}

/// What an inbound connection's first frame made it.
#[derive(Clone, Copy)]
enum Role {
    Unknown,
    Client,
    Peer(NodeId),
}

/// Inbound connection: classify on the first frame, then pump inputs into
/// the core until EOF, a protocol violation, or shutdown.
fn serve_conn(stream: TcpStream, token: u64, tx: mpsc::Sender<Input>, stop: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // Socket options are shared with the clone the core writes through.
    let _ = stream.set_write_timeout(Some(WRITE_BOUND));
    let open = |admin: bool| {
        let stream = stream.try_clone().ok()?;
        let input = Input::Open {
            token,
            admin,
            stream,
        };
        tx.send(input).ok()
    };
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
    let mut role = Role::Unknown;
    let mut chunk = [0u8; 16 * 1024];
    'conn: while !stop.load(Ordering::Acquire) {
        match (&stream).read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => reader.extend(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
        loop {
            let frame = match reader.next_frame::<Incoming>() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => break 'conn, // framing lost; drop the connection
            };
            let input = match (frame, role) {
                (Incoming::Client(req), Role::Unknown | Role::Client) => {
                    if matches!(role, Role::Unknown) && open(false).is_none() {
                        break 'conn;
                    }
                    role = Role::Client;
                    Input::Client { token, req }
                }
                (Incoming::Peer(msg), Role::Peer(from)) => Input::Peer { from, msg },
                (Incoming::Peer(msg @ NodeMsg::Hello { node, .. }), Role::Unknown) => {
                    // An admin has no link: it is answered on this socket.
                    if node == ADMIN_NODE && open(true).is_none() {
                        break 'conn;
                    }
                    role = Role::Peer(node);
                    Input::Peer { from: node, msg }
                }
                // Peer frames before a `Hello`, or client and peer frames
                // mixed on one connection: protocol violation.
                _ => break 'conn,
            };
            if tx.send(input).is_err() {
                break 'conn;
            }
        }
    }
    let _ = tx.send(Input::Closed { token });
}

/// Outcome of one [`ClusterClient`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallOutcome {
    /// The operation's result word.
    pub value: u64,
    /// Times the request was re-sent (timeouts, reconnects, `Busy`).
    pub resends: u32,
    /// `Redirect` referrals followed.
    pub redirects: u32,
}

/// A cluster-aware client: dials any member, follows `Redirect` referrals,
/// and — crucially — keeps the **same request id across retries** so the
/// cluster's dedup table can absorb duplicates of one logical op.
pub struct ClusterClient {
    addrs: Vec<(NodeId, String)>,
    conns: BTreeMap<NodeId, (TcpStream, FrameReader)>,
    timeout: Duration,
    target: usize,
    next_id: u64,
    /// LCG state for trace-id generation ([`ClusterClient::call_traced`]).
    trace_state: u64,
    /// Encode buffer reused by every request.
    buf: Vec<u8>,
}

impl ClusterClient {
    /// A client for the given membership. `first_id` seeds the request-id
    /// sequence for [`ClusterClient::call`] (give each client process a
    /// disjoint band, e.g. `client_no << 32`).
    pub fn connect(addrs: Vec<(NodeId, String)>, timeout: Duration, first_id: u64) -> Self {
        assert!(!addrs.is_empty());
        Self {
            addrs,
            conns: BTreeMap::new(),
            timeout,
            target: 0,
            next_id: first_id,
            trace_state: first_id ^ 0x9E37_79B9_7F4A_7C15,
            buf: Vec::with_capacity(64),
        }
    }

    /// Runs one op with a fresh id.
    pub fn call(&mut self, key: u64, op: u8, arg: u64) -> io::Result<CallOutcome> {
        let id = self.next_id;
        self.next_id += 1;
        self.call_inner(id, key, op, arg, 0)
    }

    /// A fresh non-zero trace id packed as a hop-0 trace word, or 0 when
    /// the build has telemetry disabled (nothing would record the spans).
    fn new_trace(&mut self) -> u64 {
        if !telemetry::ENABLED {
            return 0;
        }
        let mut id = 0u32;
        while id == 0 {
            self.trace_state = self
                .trace_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            id = (self.trace_state >> 32) as u32;
        }
        trace_word::pack(id, 0)
    }

    /// Runs one op with a fresh id under a fresh trace: every node the op
    /// touches records hop spans tracked by the returned trace id, and the
    /// client's own `Cluster/ClientWait` root span brackets the whole
    /// round-trip. Returns the outcome and the trace id (0 when telemetry
    /// is compiled out).
    pub fn call_traced(&mut self, key: u64, op: u8, arg: u64) -> io::Result<(CallOutcome, u32)> {
        let id = self.next_id;
        self.next_id += 1;
        let trace = self.new_trace();
        let t0 = telemetry::now_ns();
        let outcome = self.call_inner(id, key, op, arg, trace)?;
        let trace_id = trace_word::id(trace);
        if trace_id != 0 {
            telemetry::record_span(
                telemetry::trace_track(trace_id),
                Algo::Cluster,
                Lane::ClientWait,
                t0,
            );
        }
        Ok((outcome, trace_id))
    }

    /// Runs one op under a caller-chosen id. Calling twice with the same
    /// id must yield the same value (dedup) — the bench asserts exactly
    /// that.
    pub fn call_with_id(&mut self, id: u64, key: u64, op: u8, arg: u64) -> io::Result<CallOutcome> {
        self.call_inner(id, key, op, arg, 0)
    }

    fn call_inner(
        &mut self,
        id: u64,
        key: u64,
        op: u8,
        arg: u64,
        trace: u64,
    ) -> io::Result<CallOutcome> {
        // Keep `call`'s fresh-id counter ahead of every id used here:
        // an accidental reuse would be answered from the server's dedup
        // table with the *old* op's result.
        self.next_id = self.next_id.max(id.wrapping_add(1));
        let mut resends = 0u32;
        let mut redirects = 0u32;
        let deadline = Instant::now() + self.timeout.max(Duration::from_millis(100)) * 40;
        loop {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("op id {id} unanswered after {redirects} redirects, {resends} resends"),
                ));
            }
            let node = self.addrs[self.target % self.addrs.len()].0;
            match self.try_once(node, id, key, op, arg, trace) {
                Ok(resp) => match resp.status {
                    Status::Ok => {
                        return Ok(CallOutcome {
                            value: resp.value,
                            resends,
                            redirects,
                        })
                    }
                    Status::Redirect => {
                        redirects += 1;
                        match self.addrs.iter().position(|&(n, _)| n as u64 == resp.value) {
                            Some(i) => self.target = i,
                            None => self.target += 1,
                        }
                    }
                    Status::Busy => {
                        resends += 1;
                        thread::sleep(Duration::from_millis(2));
                    }
                    s => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("server answered {s:?}"),
                        ))
                    }
                },
                Err(_) => {
                    // Socket trouble or timeout: drop the conn, rotate,
                    // resend the SAME id.
                    self.conns.remove(&node);
                    self.target += 1;
                    resends += 1;
                }
            }
        }
    }

    fn try_once(
        &mut self,
        node: NodeId,
        id: u64,
        key: u64,
        op: u8,
        arg: u64,
        trace: u64,
    ) -> io::Result<Response> {
        if !self.conns.contains_key(&node) {
            let addr = &self
                .addrs
                .iter()
                .find(|&&(n, _)| n == node)
                .expect("target from addrs")
                .1;
            let stream = dial(addr, self.timeout, Some(self.timeout), None)?;
            self.conns
                .insert(node, (stream, FrameReader::new(DEFAULT_MAX_FRAME)));
        }
        let (stream, reader) = self.conns.get_mut(&node).expect("just inserted");
        let req = Request::Op {
            id,
            key,
            op,
            arg,
            trace,
        };
        write_frame(stream, &mut self.buf, &req)?;
        // Anything else is a stale answer to an earlier resend of another op.
        read_until(stream, reader, |resp: &Response| resp.id == id)
    }
}

/// Instructs the member at `addr` to hand `slot` to node `to` (forwarded
/// to the owner if `addr` isn't it). Waits for a `HelloAck`, which proves
/// the node is serving admin handshakes — the `Handoff` frame was written
/// in order right behind this connection's `Hello`.
pub fn admin_handoff(addr: &str, slot: Slot, to: NodeId) -> io::Result<()> {
    let wait = Duration::from_secs(5);
    let stream = dial(addr, wait, Some(wait), Some(ADMIN_NODE))?;
    write_frame(&stream, &mut Vec::new(), &NodeMsg::Handoff { slot, to })?;
    // Anti-entropy `RouteUpdate`s are fine to skip.
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
    read_until(&stream, &mut reader, |msg: &NodeMsg| {
        matches!(msg, NodeMsg::HelloAck { .. })
    })?;
    Ok(())
}
