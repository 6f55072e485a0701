//! The socket transport: the same [`NodeCore`] the simulator verifies,
//! served over real TCP.
//!
//! **One thread.** A [`ClusterNode`] is `cl-core-<node>` and nothing else.
//! That thread owns the listener, every inbound connection (its
//! [`FrameReader`] and what its first frame made it), one outbound link per
//! configured peer, and the [`NodeCore`] with its store, whose shards it
//! serves itself inside each call (`store.rs`). It is the node's only reader,
//! only mutator and only writer, as a delegation server is the only reader of
//! its own queue and the only core that touches its object: a frame goes from
//! the wire into the state machine on the thread that read it, and nothing
//! stands between the two. Client and peer traffic share the listener: the
//! first frame classifies a connection (a `0x10`-range [`NodeMsg::Hello`]
//! marks a peer or admin; anything below is a client [`Request`]). Inbound
//! peer connections are only read — a node answers a peer over its own link.
//!
//! **The loop.** The thread waits in one `epoll_wait` (level-triggered, at
//! most half a tick long, which is also how soon it sees `shutdown`).
//! Listener readable: accept until `WouldBlock`. Connection readable: one
//! `read` into its `FrameReader`, then for each complete frame — classify,
//! feed the `NodeCore`, tick if a tick is due, write the [`Outbox`] — before
//! the next frame is decoded, the order the simulator feeds the same state
//! machine in. The outbox goes out as one write per socket: every frame for
//! one peer, and every reply for one client, encoded in order into one
//! buffer. There is no inbound queue: what the core has not read is in
//! the kernel's socket buffers, and a core that falls behind stops reading,
//! so TCP pushes back on the sender. A connection that loses framing, sends
//! peer frames before a `Hello` or mixes client and peer frames is dropped.
//!
//! **Writes never block.** The only reader must not wait in a write: two
//! nodes streaming a slot to each other would each wait for the other to
//! read. Every socket is non-blocking. An input's frames for one socket are
//! encoded into one reused buffer and written straight through when nothing
//! is pending for that socket; the tail the kernel would not take is
//! appended to that socket's pending bytes and `EPOLLOUT` is armed until
//! they drain. One slow-consumer policy covers both ways a receiver can fall
//! behind: a socket whose pending bytes make no progress for `WRITE_BOUND`
//! (100 ms), or would pass `PENDING_CAP` (64 MiB), is dropped. The cap is also the largest slot a
//! handoff can move: a transfer's chunks are queued at once (the sender holds
//! the list for re-sends anyway), so a stream longer than the cap drops the
//! link every time it is sent; a windowed transfer is future work.
//!
//! **A dropped socket.** A peer link is closed, and re-dialled (`Hello`
//! first) by the next frame addressed to it, at most every `REDIAL_EVERY`
//! (20 ms) and for no longer than that per attempt, so peers must be a LAN
//! round trip away; what was lost meanwhile — forwards, replication records,
//! transfer chunks, heartbeats — the protocol retransmits, so a link keeps
//! no history. A client or admin connection loses its *write side only*
//! (the same for a write that fails outright): frames it had already
//! delivered are still in the socket, and an admin that wrote `Hello` +
//! `Handoff` and hung up before a `HelloAck` broadcast reached it must still
//! have its `Handoff` read. The connection leaves the table when its `read`
//! returns 0 or an error. A client resends the same request id on a new
//! connection and is answered from the dedup table.
//!
//! [`ClusterClient`] is the matching client: unlike
//! [`NetClient`](mpsync_net::NetClient) it keeps the **same request id
//! across every retry, redirect, and reconnect** of one logical op — the
//! id is the cluster's dedup uid, so a retry that lands after the original
//! was applied is answered from the dedup table instead of re-executing.
//!
//! Linux-only: the loop waits on `mpsync-net`'s epoll shim.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mpsync_net::frame::{
    encode_spans, stat_kind, trace_word, FrameError, FrameReader, NodeMsg, Request, Response,
    StatReply, Status, Wire, DEFAULT_MAX_FRAME, NODE_PROTO_VERSION, TAG_HANDOFF, TAG_HELLO,
};
use mpsync_net::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT, STAT_SNAPSHOT_VERSION};
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Lane};

use crate::node::{NodeConfig, NodeCore, Outbox};
use crate::store::RuntimeStore;
use crate::{NodeId, Slot};

/// Reserved node id admin connections identify as: they may send
/// [`NodeMsg::Handoff`] but never participate in routing or replication.
pub const ADMIN_NODE: NodeId = 0xFFFE;

/// Longest a socket's pending bytes may go without the kernel taking any;
/// past it the socket is dropped (see the module docs). It is well under the
/// failover deadline, so one stalled socket cannot make the node look dead.
/// Also the write timeout of the blocking clients below.
const WRITE_BOUND: Duration = Duration::from_millis(100);

/// Most bytes one socket may have pending; a frame that would pass it drops
/// the socket instead.
const PENDING_CAP: usize = 64 << 20;

/// Pause between dial attempts on a down peer link, and the bound on each
/// attempt: an unreachable peer costs the core at most half its time.
const REDIAL_EVERY: Duration = Duration::from_millis(20);

/// The listener's epoll cookie; connections and links count up from 1.
const LISTENER: u64 = 0;

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

/// A running cluster member: listener + peer mesh + the real delegation
/// runtime, all on one core thread.
pub struct ClusterNode {
    stop: Arc<AtomicBool>,
    local: std::net::SocketAddr,
    core: Option<JoinHandle<NodeCore<RuntimeStore>>>,
}

impl ClusterNode {
    /// Boots the node: starts the core loop. Peer links are dialled by the
    /// first frame addressed to each.
    pub fn start(cfg: TcpNodeConfig, store: RuntimeStore) -> io::Result<Self> {
        // A node that dies mid-protocol should leave its last structural
        // events (promotions, handoffs, busy rejections) on stderr.
        telemetry::install_panic_hook();
        let local = cfg.listener.local_addr()?;
        cfg.listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(cfg.listener.as_raw_fd(), EPOLLIN, LISTENER)?;
        let stop = Arc::new(AtomicBool::new(false));

        let down = |addr| Link {
            addr,
            out: None,
            next_dial: Instant::now(),
        };
        let links = cfg.peers.into_iter().map(|(id, addr)| (id, down(addr)));
        let id = cfg.node.id;
        let mut core = Core {
            listener: cfg.listener,
            socks: Sockets {
                id,
                epoll,
                links: links.collect(),
                conns: BTreeMap::new(),
                next_token: LISTENER + 1,
                buf: Vec::with_capacity(256),
            },
            node: NodeCore::new(cfg.node, store),
            out: Outbox::default(),
            fwd_replies: 0,
            chunk: vec![0; 16 * 1024],
            start: Instant::now(),
            tick_ms: cfg.tick_ms.max(1),
            last_tick: 0,
        };
        let run = {
            let stop = Arc::clone(&stop);
            move || {
                core.run(&stop);
                core.node
            }
        };
        // The name says what the thread is and whose — a census of
        // `/proc/<pid>/task/*/comm` is how the thread model is checked.
        let core = thread::Builder::new()
            .name(format!("cl-core-{id}"))
            .spawn(run)?;

        Ok(Self {
            stop,
            local,
            core: Some(core),
        })
    }

    /// The listener's resolved address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local
    }

    /// Stops the core thread, which closes every socket, and returns the
    /// store for an orderly runtime shutdown.
    pub fn shutdown(mut self) -> RuntimeStore {
        // Release/Acquire: pairs with the loop's load; the loop sees the
        // flag within one `epoll_wait` timeout.
        self.stop.store(true, Ordering::Release);
        let core = self.core.take().expect("shutdown called once");
        core.join().expect("core thread panicked").into_store()
    }
}

/// Everything the core thread owns.
struct Core {
    listener: TcpListener,
    socks: Sockets,
    node: NodeCore<RuntimeStore>,
    out: Outbox,
    /// `FwdReply` frames written, for the admin snapshot: a forward its
    /// entry node backs up is answered by that node, not with one of these.
    fwd_replies: u64,
    /// Read buffer shared by every connection: one `read` at a time.
    chunk: Vec<u8>,
    start: Instant,
    tick_ms: u64,
    last_tick: u64,
}

impl Core {
    fn run(&mut self, stop: &AtomicBool) {
        let mut events = [EpollEvent::default(); 64];
        let wait_ms = (self.tick_ms / 2 + 1) as i32;
        while !stop.load(Ordering::Acquire) {
            let n = self
                .socks
                .epoll
                .wait(&mut events, wait_ms)
                .expect("epoll_wait on an epoll fd this thread owns");
            for ev in &events[..n] {
                // Copied out: the struct is packed on x86-64.
                let (token, bits) = (ev.data, ev.events);
                if token == LISTENER {
                    self.accept();
                } else if let Some(conn) = self.socks.conns.get_mut(&token) {
                    if bits & EPOLLOUT != 0 {
                        conn.out.flush(&self.socks.epoll);
                    }
                    // Hang-ups and errors are read out like data: `read`
                    // says which it was, after whatever was still queued.
                    if bits & !EPOLLOUT != 0 {
                        self.read_conn(token);
                    }
                } else {
                    self.socks.link_ready(token, bits);
                }
            }
            // Time passes without input too.
            self.after_input();
        }
    }

    fn accept(&mut self) {
        // Any error ends the round: the listener is level-triggered, so
        // what is still queued reports again.
        while let Ok((stream, _)) = self.listener.accept() {
            let token = self.socks.next_token;
            self.socks.next_token += 1;
            // A connection that cannot be watched is a connection refused.
            if let Ok(out) = Out::watch(stream, &self.socks.epoll, token, EPOLLIN) {
                let conn = Conn {
                    out,
                    reader: FrameReader::new(DEFAULT_MAX_FRAME),
                    role: Role::Unknown,
                };
                self.socks.conns.insert(token, conn);
            }
        }
    }

    /// One `read` from connection `token`, then every frame it completed,
    /// each taken through the state machine and answered before the next is
    /// decoded. EOF, a read error or a protocol violation removes the
    /// connection — the only place one is removed.
    fn read_conn(&mut self, token: u64) {
        let Some(conn) = self.socks.conns.get_mut(&token) else {
            return;
        };
        match (&conn.out.stream).read(&mut self.chunk) {
            Ok(n) if n > 0 => conn.reader.extend(&self.chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => return,
            _ => {
                self.socks.conns.remove(&token);
                return;
            }
        }
        loop {
            let conn = self.socks.conns.get_mut(&token).expect("removed only here");
            let frame = match conn.reader.next_frame::<Incoming>() {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(_) => break, // framing lost
            };
            match (frame, conn.role) {
                (Incoming::Client(req), Role::Unknown | Role::Client) => {
                    conn.role = Role::Client;
                    self.on_request(token, req);
                }
                (Incoming::Peer(msg), Role::Peer(from)) => {
                    self.node.on_node_msg(from, msg, &mut self.out)
                }
                // An admin (`ADMIN_NODE`) has no link: it is answered on
                // this socket.
                (Incoming::Peer(msg @ NodeMsg::Hello { node, .. }), Role::Unknown) => {
                    conn.role = Role::Peer(node);
                    self.node.on_node_msg(node, msg, &mut self.out);
                }
                // Peer frames before a `Hello`, or client and peer frames
                // mixed on one connection: protocol violation.
                _ => break,
            }
            self.after_input();
        }
        self.socks.conns.remove(&token);
    }

    fn on_request(&mut self, token: u64, req: Request) {
        match req {
            Request::Op {
                id,
                key,
                op,
                arg,
                trace,
            } => self
                .node
                .on_client_op_traced(token, id, key, op, arg, trace, &mut self.out),
            Request::Ping { id } => self.out.replies.push((
                token,
                Response {
                    id,
                    status: Status::Ok,
                    value: 0,
                },
            )),
            // Served from the core thread: the slot table and routing view
            // are read without racing the mutator. Not an op — no protocol
            // state changes. Nothing is built for a connection already
            // dropped for not reading.
            Request::Stat { id, kind } => {
                if self.socks.conns[&token].out.closed {
                    return;
                }
                let payload = match kind {
                    stat_kind::SPANS => encode_spans(&telemetry::drain_spans()),
                    _ => cluster_snapshot_json(&self.node, self.fwd_replies).into_bytes(),
                };
                encoded(&mut self.socks.buf, &StatReply { id, kind, payload });
                self.socks.send_client(token);
            }
        }
    }

    /// What follows every input, and every wait that brought none: the tick
    /// if one is due, then the outbox onto the sockets, one write per socket.
    fn after_input(&mut self) {
        let now = self.start.elapsed().as_millis() as u64 / self.tick_ms;
        if now > self.last_tick {
            self.last_tick = now;
            self.node.on_tick(now, &mut self.out);
            self.socks.shed_stalled();
        }
        let sends = &self.out.sends;
        self.fwd_replies += sends
            .iter()
            .filter(|(_, msg)| matches!(msg, NodeMsg::FwdReply { .. }))
            .count() as u64;
        while let Some(to) = next_write(&mut self.out.sends, &mut self.socks.buf) {
            self.socks.send_node(to);
        }
        while let Some(token) = next_write(&mut self.out.replies, &mut self.socks.buf) {
            self.socks.send_client(token);
        }
        // One input can be a whole slot's export: do not keep its buffer.
        self.socks.buf.shrink_to(64 << 10);
        self.out.applied.clear(); // the verifier's feed; nobody reads it here
    }
}

/// The write half of one non-blocking socket: what the kernel would not
/// take yet, and the slow-consumer policy over it (module docs, "Writes
/// never block").
struct Out {
    stream: TcpStream,
    /// The socket's epoll cookie.
    token: u64,
    /// Interest the socket has whatever its write state: `EPOLLIN` on an
    /// inbound connection, nothing on a link.
    base: u32,
    /// Bytes queued behind a partial write; `EPOLLOUT` is armed exactly
    /// while this is non-empty.
    pending: VecDeque<u8>,
    /// When `pending` last shrank, or stopped being empty.
    progress: Instant,
    /// Shut down by a failed write or by the policy; nothing more is written.
    closed: bool,
}

impl Out {
    /// Takes over a connected `stream`: no-delay, non-blocking, watched for
    /// `base` under `token`.
    fn watch(stream: TcpStream, epoll: &Epoll, token: u64, base: u32) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        epoll.add(stream.as_raw_fd(), base, token)?;
        Ok(Self {
            stream,
            token,
            base,
            pending: VecDeque::new(),
            progress: Instant::now(),
            closed: false,
        })
    }

    /// Writes `frame`, or queues what the kernel will not take now. `false`
    /// once the socket is closed.
    fn send(&mut self, epoll: &Epoll, frame: &[u8]) -> bool {
        if self.closed {
            return false;
        }
        let mut rest = frame;
        if self.pending.is_empty() {
            while !rest.is_empty() {
                match (&self.stream).write(rest) {
                    Ok(0) => return self.close(epoll),
                    Ok(n) => rest = &rest[n..],
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => return self.close(epoll),
                }
            }
            if rest.is_empty() {
                return true;
            }
            self.progress = Instant::now();
            if self.interest(epoll, self.base | EPOLLOUT).is_err() {
                return self.close(epoll);
            }
        }
        if self.pending.len() + rest.len() > PENDING_CAP {
            return self.close(epoll);
        }
        self.pending.extend(rest);
        true
    }

    /// Writes pending bytes until the kernel refuses or none are left.
    /// `false` once the socket is closed.
    fn flush(&mut self, epoll: &Epoll) -> bool {
        while !self.pending.is_empty() {
            match (&self.stream).write(self.pending.as_slices().0) {
                Ok(0) => return self.close(epoll),
                Ok(n) => {
                    self.pending.drain(..n);
                    self.progress = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(_) => return self.close(epoll),
            }
        }
        !self.closed && (self.interest(epoll, self.base).is_ok() || self.close(epoll))
    }

    /// The policy's time half, asked every tick: pending bytes the kernel
    /// has refused for `WRITE_BOUND` close the socket. A flush is tried
    /// first — the core may simply not have come round to this socket (one
    /// input can be a whole slot's export), and that is not the receiver's
    /// stall. `false` once the socket is closed.
    fn shed_if_stalled(&mut self, epoll: &Epoll, now: Instant) -> bool {
        if self.pending.is_empty() || now.duration_since(self.progress) <= WRITE_BOUND {
            return !self.closed;
        }
        self.flush(epoll) && (self.progress >= now || self.close(epoll))
    }

    fn interest(&self, epoll: &Epoll, bits: u32) -> io::Result<()> {
        epoll.modify(self.stream.as_raw_fd(), bits, self.token)
    }

    /// Closes the write side for good and returns `false`. `Shutdown::Both`
    /// wakes the peer, and on Linux `read` still returns what it had
    /// already delivered.
    fn close(&mut self, epoll: &Epoll) -> bool {
        let _ = self.stream.shutdown(Shutdown::Both);
        let _ = self.interest(epoll, self.base);
        self.pending = VecDeque::new();
        self.closed = true;
        false
    }
}

/// What an inbound connection's first frame made it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Unknown,
    Client,
    Peer(NodeId),
}

/// An inbound connection.
struct Conn {
    out: Out,
    reader: FrameReader,
    role: Role,
}

/// A lazily dialled outbound connection to one peer. Write-only: the peer
/// answers over its own link.
struct Link {
    addr: String,
    /// `None` while the link is down.
    out: Option<Out>,
    /// No dial before this instant (pushed out by a failed dial).
    next_dial: Instant,
}

/// Every socket but the listener, and the one buffer a socket's frames are
/// encoded in.
struct Sockets {
    id: NodeId,
    epoll: Epoll,
    links: BTreeMap<NodeId, Link>,
    /// Inbound connections by epoll cookie, which is also the client token
    /// the [`NodeCore`] answers to.
    conns: BTreeMap<u64, Conn>,
    /// The next accepted or dialled socket's cookie; never reused, so an
    /// event cannot be taken for a later socket's.
    next_token: u64,
    /// Encoded frames for one socket, reused for every write.
    buf: Vec<u8>,
}

impl Sockets {
    /// Writes `buf` to client connection `token`.
    fn send_client(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.out.send(&self.epoll, &self.buf);
        }
    }

    /// Writes `buf` to node `to`. Frames for [`ADMIN_NODE`] go to every open
    /// admin connection (an admin skips what it is not waiting for);
    /// anything else goes down the peer's link, dialling it first if it is
    /// down and due.
    fn send_node(&mut self, to: NodeId) {
        if to == ADMIN_NODE {
            for conn in self.conns.values_mut() {
                if conn.role == Role::Peer(ADMIN_NODE) {
                    conn.out.send(&self.epoll, &self.buf);
                }
            }
            return;
        }
        let Some(link) = self.links.get_mut(&to) else {
            return;
        };
        if link.out.is_none() && Instant::now() >= link.next_dial {
            let token = self.next_token;
            self.next_token += 1;
            link.out = dial(&link.addr, REDIAL_EVERY, None, Some(self.id))
                .and_then(|stream| Out::watch(stream, &self.epoll, token, 0))
                .ok();
            if link.out.is_none() {
                link.next_dial = Instant::now() + REDIAL_EVERY;
            }
        }
        if let Some(out) = &mut link.out {
            if !out.send(&self.epoll, &self.buf) {
                link.out = None;
            }
        }
    }

    /// An event on a link: writable, or — nobody writes to a link's read
    /// side, and it asks for nothing else — broken. A cookie no link has is
    /// a socket closed earlier in the same round of events.
    fn link_ready(&mut self, token: u64, bits: u32) {
        let Some(link) = self
            .links
            .values_mut()
            .find(|link| link.out.as_ref().is_some_and(|out| out.token == token))
        else {
            return;
        };
        let out = link.out.as_mut().expect("found by its cookie");
        if bits & !EPOLLOUT != 0 || !out.flush(&self.epoll) {
            link.out = None;
        }
    }

    /// The slow-consumer policy's time half over every socket.
    fn shed_stalled(&mut self) {
        let now = Instant::now();
        for conn in self.conns.values_mut() {
            conn.out.shed_if_stalled(&self.epoll, now);
        }
        for link in self.links.values_mut() {
            if let Some(out) = &mut link.out {
                if !out.shed_if_stalled(&self.epoll, now) {
                    link.out = None;
                }
            }
        }
    }
}

/// One socket's write: every frame in `frames` addressed where the first
/// one is, removed and encoded in order over whatever `buf` held. Returns
/// that address, or `None` once `frames` is empty.
fn next_write<A: Copy + PartialEq, F: Wire>(
    frames: &mut Vec<(A, F)>,
    buf: &mut Vec<u8>,
) -> Option<A> {
    let &(to, _) = frames.first()?;
    buf.clear();
    frames.retain(|(dest, frame)| {
        if *dest != to {
            return true;
        }
        frame.encode_frame(buf);
        false
    });
    Some(to)
}

/// `frame` on the wire, encoded over whatever `buf` held.
fn encoded<'a>(buf: &'a mut Vec<u8>, frame: &impl Wire) -> &'a [u8] {
    buf.clear();
    frame.encode_frame(buf);
    buf
}

/// A blocking client's write: `frame` encoded into `buf` and written whole,
/// within the stream's write timeout ([`WRITE_BOUND`], set by [`dial`]).
/// After an error the stream may hold part of a frame and must not be
/// written to again.
fn write_frame(mut stream: &TcpStream, buf: &mut Vec<u8>, frame: &impl Wire) -> io::Result<()> {
    stream.write_all(encoded(buf, frame))
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
/// `FwdReply` frames the node has written,
/// runtime's per-shard stats, the telemetry report (empty with the
/// feature off), and the flight-recorder dump (always on).
///
/// Shares [`STAT_SNAPSHOT_VERSION`] with the single-node server: the
/// `source` field ("cluster" vs "net") tells a scraper which shape it got.
fn cluster_snapshot_json(node: &NodeCore<RuntimeStore>, fwd_replies: u64) -> String {
    let slots: Vec<String> = node.slot_snapshots().iter().map(|s| s.to_json()).collect();
    format!(
        "{{\n\"version\": {STAT_SNAPSHOT_VERSION},\n\"source\": \"cluster\",\n\"node\": {},\n\
         \"route_digest\": {},\n\"pending_fwds\": {},\n\"fwd_replies\": {},\n\"slots\": [{}],\n\
         \"runtime\": {},\n\"telemetry\": {},\n\"flight\": {}\n}}",
        node.id(),
        node.route().digest(),
        node.pending_fwds(),
        fwd_replies,
        slots.join(","),
        node.store().runtime_stats_json(),
        telemetry::TelemetryReport::capture().to_json(),
        telemetry::flight_json()
    )
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
