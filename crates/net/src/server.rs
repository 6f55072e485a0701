//! The serving side: accept loops, per-connection threads, request
//! coalescing, backpressure, and graceful drain.
//!
//! Every accepted connection gets one OS thread that owns one runtime
//! [`Session`] — the paper's "client" role, lifted to a network peer. The
//! thread alternates between two phases, mirroring how UDN clients batch
//! into a combiner:
//!
//! 1. **coalesce** — decode every fully-received request buffered so far
//!    (bounded by [`ServerConfig::max_coalesce`]), submit the ops among
//!    them to the session as one batch ([`Serving::serve`]), and append the
//!    responses, in request order, to one write buffer;
//! 2. **flush** — write the whole response batch with a single
//!    `write_all`, so pipelined clients pay one syscall per batch instead
//!    of one per op.
//!
//! A pipelining [`NetClient`](crate::NetClient) keeps the same rule on its
//! side: it writes its queued requests once per wait on the socket, not once
//! per op ([`NetClient::flush`](crate::NetClient::flush)), so one read here
//! tends to carry several requests and one turn answers them all.
//!
//! A connection's turn therefore costs one cross-thread handoff per shard
//! it touches, however many requests the peer had pipelined. Replies are in
//! request order; effects are in request order per key. Requests a peer
//! pipelines to *different* shards without waiting are concurrent
//! operations and may take effect in either order.
//!
//! Backpressure propagates end-to-end with no unbounded queue anywhere:
//! under [`SubmitPolicy::Fail`](mpsync_runtime::SubmitPolicy) a full shard
//! window surfaces as a [`Status::Busy`] response (the client retries with
//! jittered backoff); under `Block` the submit call parks the connection
//! thread, which stops draining the socket, which fills the kernel buffers,
//! which stalls the sender — bounded socket-read pausing.
//!
//! Graceful shutdown ([`NetServer::shutdown`]) stops the accept loops, then
//! lets every connection thread answer the requests it has already received
//! (and only those) before sending FIN — so a client that got an ack knows
//! the effect is applied exactly once, and a client that got FIN without an
//! ack knows the request was never admitted.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpsync_runtime::{KeyedDispatch, Runtime, RuntimeError, Session, MAX_KEY};
use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Counter, Lane};

use crate::frame::{
    reject, stat_kind, trace_word, FrameError, FrameReader, Request, Response, StatReply, Status,
    Wire,
};

/// Anything that can hand out runtime [`Session`]s — the server's only
/// coupling to the layer below. Implemented by [`Runtime`] itself and by
/// the ready-made sharded objects.
///
/// A `NetServer` serves services that execute their own shards: on serving
/// threads of their own or on the submitting connection thread. Nothing in
/// the server ticks a shard, so a runtime converted with
/// [`Runtime::drive_externally`] answers no request here.
pub trait Service: Send + Sync {
    /// Opens one session; called once per accepted connection.
    fn open_session(&self) -> Result<Session, RuntimeError>;

    /// Per-shard runtime counters as JSON (the
    /// [`RuntimeStats::to_json`](mpsync_runtime::RuntimeStats::to_json)
    /// schema), embedded in the admin snapshot. `None` when the service
    /// has no runtime counters to report.
    fn runtime_stats_json(&self) -> Option<String> {
        None
    }
}

impl<S, F> Service for Runtime<S, F>
where
    S: Send + 'static,
    F: KeyedDispatch<S>,
{
    fn open_session(&self) -> Result<Session, RuntimeError> {
        self.session()
    }

    fn runtime_stats_json(&self) -> Option<String> {
        Some(self.stats().to_json())
    }
}

impl Service for mpsync_runtime::ShardedKvStore {
    fn open_session(&self) -> Result<Session, RuntimeError> {
        self.raw_session()
    }

    fn runtime_stats_json(&self) -> Option<String> {
        Some(self.stats().to_json())
    }
}

impl Service for mpsync_runtime::ShardedCounter {
    fn open_session(&self) -> Result<Session, RuntimeError> {
        self.raw_session()
    }

    fn runtime_stats_json(&self) -> Option<String> {
        Some(self.stats().to_json())
    }
}

impl Service for mpsync_apps::AppSuite {
    fn open_session(&self) -> Result<Session, RuntimeError> {
        self.raw_session()
    }

    fn runtime_stats_json(&self) -> Option<String> {
        Some(self.stats().to_json())
    }
}

/// Tuning knobs for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest frame body accepted from a peer (see
    /// [`DEFAULT_MAX_FRAME`](crate::frame::DEFAULT_MAX_FRAME)).
    pub max_frame: u32,
    /// Largest opcode forwarded to the runtime. Ops above this answer
    /// `BadRequest` *before* reaching the shard executor — dispatch bodies
    /// in this repo panic on unknown opcodes, and a wire peer must not be
    /// able to trigger that.
    pub max_op: u8,
    /// Requests handled per coalesce cycle before the response batch is
    /// flushed (bounds per-connection ack latency under a firehose peer).
    pub max_coalesce: usize,
    /// Socket read timeout: how often a blocked connection thread wakes to
    /// check for shutdown.
    pub poll_interval: Duration,
    /// After the drain's FIN, how long to keep reading (and discarding) so
    /// a still-sending peer receives its final acks instead of a reset.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_frame: crate::frame::DEFAULT_MAX_FRAME,
            max_op: u8::MAX,
            max_coalesce: 64,
            poll_interval: Duration::from_millis(10),
            drain_grace: Duration::from_millis(200),
        }
    }
}

impl ServerConfig {
    /// Sets the largest opcode the wire may submit (see
    /// [`ServerConfig::max_op`]).
    pub fn with_max_op(mut self, max_op: u8) -> Self {
        self.max_op = max_op;
        self
    }

    /// Sets the largest accepted frame body.
    pub fn with_max_frame(mut self, max_frame: u32) -> Self {
        self.max_frame = max_frame;
        self
    }

    /// Sets the per-flush coalescing bound.
    pub fn with_max_coalesce(mut self, max_coalesce: usize) -> Self {
        self.max_coalesce = max_coalesce.max(1);
        self
    }
}

/// Always-on serving counters (independent of the `telemetry` feature).
#[derive(Debug, Default)]
struct NetStatsInner {
    connections: AtomicU64,
    refused_sessions: AtomicU64,
    requests: AtomicU64,
    acked: AtomicU64,
    busy: AtomicU64,
    closed_responses: AtomicU64,
    bad_requests: AtomicU64,
    protocol_errors: AtomicU64,
    disconnects: AtomicU64,
    drained: AtomicU64,
}

/// Snapshot of a server's counters; what [`NetServer::shutdown`] returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Accepted connections closed before any byte was exchanged: the
    /// runtime's session budget was exhausted, or the OS refused a thread
    /// to serve the connection.
    pub refused_sessions: u64,
    /// Op requests decoded and dispatched.
    pub requests: u64,
    /// Responses flushed to peers (every flushed response is final: its
    /// effect, if any, is applied exactly once).
    pub acked: u64,
    /// `Busy` responses (shard window full under the `Fail` policy).
    pub busy: u64,
    /// `Closed` responses (runtime shutting down).
    pub closed_responses: u64,
    /// `BadRequest` responses (key/opcode out of range).
    pub bad_requests: u64,
    /// Connections dropped for malformed framing.
    pub protocol_errors: u64,
    /// Connections that ended in an I/O error (peer reset, failed write)
    /// rather than a clean FIN.
    pub disconnects: u64,
    /// Requests answered during the graceful drain window.
    pub drained: u64,
}

impl NetStatsInner {
    fn snapshot(&self) -> DrainReport {
        DrainReport {
            connections: self.connections.load(Ordering::Relaxed),
            refused_sessions: self.refused_sessions.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            acked: self.acked.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            closed_responses: self.closed_responses.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
        }
    }
}

impl DrainReport {
    /// Hand-rolled JSON with one key per counter, embedded as the
    /// `"server"` object of the admin snapshot.
    pub fn to_json(&self) -> String {
        format!(
            "{{ \"connections\": {}, \"refused_sessions\": {}, \"requests\": {}, \"acked\": {}, \"busy\": {}, \"closed_responses\": {}, \"bad_requests\": {}, \"protocol_errors\": {}, \"disconnects\": {}, \"drained\": {} }}",
            self.connections,
            self.refused_sessions,
            self.requests,
            self.acked,
            self.busy,
            self.closed_responses,
            self.bad_requests,
            self.protocol_errors,
            self.disconnects,
            self.drained
        )
    }
}

impl std::fmt::Display for DrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "connections={} refused={} requests={} acked={} busy={} closed={} bad={} proto_err={} disconnects={} drained={}",
            self.connections,
            self.refused_sessions,
            self.requests,
            self.acked,
            self.busy,
            self.closed_responses,
            self.bad_requests,
            self.protocol_errors,
            self.disconnects,
            self.drained
        )
    }
}

/// One accepted transport stream (TCP or Unix-domain).
enum Sock {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Sock {
    fn set_read_timeout(&self, dur: Duration) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.set_read_timeout(Some(dur)),
            #[cfg(unix)]
            Sock::Unix(s) => s.set_read_timeout(Some(dur)),
        }
    }

    fn shutdown_write(&self) {
        let _ = match self {
            Sock::Tcp(s) => s.shutdown(Shutdown::Write),
            #[cfg(unix)]
            Sock::Unix(s) => s.shutdown(Shutdown::Write),
        };
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Sock::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Sock::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Sock::Unix(s) => s.flush(),
        }
    }
}

struct Shared {
    service: Arc<dyn Service>,
    cfg: ServerConfig,
    stop: AtomicBool,
    stats: NetStatsInner,
    conn_seq: AtomicU64,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// Builder for a [`NetServer`]: pick a service, optionally tune the
/// [`ServerConfig`], and bind one or more listeners.
pub struct ServerBuilder {
    service: Arc<dyn Service>,
    cfg: ServerConfig,
    tcp: Vec<SocketAddr>,
    uds: Vec<PathBuf>,
}

impl ServerBuilder {
    /// Applies a full config.
    pub fn config(mut self, cfg: ServerConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Adds a TCP listener (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn tcp(mut self, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "no address resolved"))?;
        self.tcp.push(addr);
        Ok(self)
    }

    /// Adds a Unix-domain-socket listener at `path`.
    #[cfg(unix)]
    pub fn uds(mut self, path: impl AsRef<Path>) -> Self {
        self.uds.push(path.as_ref().to_path_buf());
        self
    }

    /// Binds every listener and starts the accept threads.
    pub fn start(self) -> io::Result<NetServer> {
        if self.tcp.is_empty() && self.uds.is_empty() {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "server needs at least one listener",
            ));
        }
        // A crashing server should leave its last structural events on
        // stderr; the hook chains and installs once per process.
        telemetry::install_panic_hook();
        let shared = Arc::new(Shared {
            service: self.service,
            cfg: self.cfg,
            stop: AtomicBool::new(false),
            stats: NetStatsInner::default(),
            conn_seq: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });

        let mut accepters = Vec::new();
        let acceptor = |i: usize| std::thread::Builder::new().name(format!("net-accept-{i}"));
        let mut tcp_addrs = Vec::new();
        for addr in self.tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addrs.push(listener.local_addr()?);
            let shared = Arc::clone(&shared);
            accepters.push(acceptor(accepters.len()).spawn(move || accept_tcp(listener, &shared))?);
        }
        let mut uds_paths = Vec::new();
        #[cfg(unix)]
        for path in self.uds {
            let listener = UnixListener::bind(&path)?;
            listener.set_nonblocking(true)?;
            uds_paths.push(path);
            let shared = Arc::clone(&shared);
            accepters.push(acceptor(accepters.len()).spawn(move || accept_uds(listener, &shared))?);
        }
        #[cfg(not(unix))]
        let _ = &mut uds_paths;
        Ok(NetServer {
            shared,
            accepters,
            tcp_addrs,
            uds_paths,
            done: false,
        })
    }
}

/// A running wire front door over a [`Service`].
///
/// ```no_run
/// use std::sync::Arc;
/// use mpsync_net::{NetClient, NetServer};
/// use mpsync_runtime::{RuntimeConfig, ShardedKvStore};
/// use mpsync_objects::seq::kv_ops;
///
/// let store = Arc::new(ShardedKvStore::new(RuntimeConfig::new(2)));
/// let server = NetServer::builder(store.clone())
///     .tcp("127.0.0.1:0").unwrap()
///     .start()
///     .unwrap();
/// let mut client = NetClient::connect_tcp(server.tcp_addrs()[0]).unwrap();
/// client.call(7, kv_ops::PUT as u8, 99).unwrap();
/// let report = server.shutdown();
/// assert_eq!(report.requests, 1);
/// ```
pub struct NetServer {
    shared: Arc<Shared>,
    accepters: Vec<JoinHandle<()>>,
    tcp_addrs: Vec<SocketAddr>,
    uds_paths: Vec<PathBuf>,
    done: bool,
}

impl NetServer {
    /// Starts building a server over `service`.
    pub fn builder(service: Arc<dyn Service>) -> ServerBuilder {
        ServerBuilder {
            service,
            cfg: ServerConfig::default(),
            tcp: Vec::new(),
            uds: Vec::new(),
        }
    }

    /// The bound TCP addresses, in the order the builder added them (the
    /// way to learn an ephemeral `:0` port).
    pub fn tcp_addrs(&self) -> &[SocketAddr] {
        &self.tcp_addrs
    }

    /// The bound Unix-socket paths.
    pub fn uds_paths(&self) -> &[PathBuf] {
        &self.uds_paths
    }

    /// Live counter snapshot (the same numbers [`NetServer::shutdown`]
    /// returns, sampled mid-flight).
    pub fn stats(&self) -> DrainReport {
        self.shared.stats.snapshot()
    }

    /// Gracefully shuts the server down: stop accepting, let every
    /// connection answer the requests it has already received, FIN, join
    /// all threads, unlink Unix sockets, and return the final counters.
    ///
    /// The underlying [`Service`] is *not* closed — the caller owns the
    /// runtime's own shutdown (typically right after this returns).
    pub fn shutdown(mut self) -> DrainReport {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> DrainReport {
        if self.done {
            return self.shared.stats.snapshot();
        }
        self.done = true;
        telemetry::flight(
            telemetry::FlightKind::DrainStart,
            self.shared.stats.connections.load(Ordering::Relaxed),
            self.shared.stats.requests.load(Ordering::Relaxed),
            0,
        );
        self.shared.stop.store(true, Ordering::SeqCst);
        for a in self.accepters.drain(..) {
            let _ = a.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conn registry"));
        for c in conns {
            if c.join().is_err() {
                // A panicking connection thread is accounted, not fatal.
                self.shared
                    .stats
                    .disconnects
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        for path in &self.uds_paths {
            let _ = std::fs::remove_file(path);
        }
        let report = self.shared.stats.snapshot();
        telemetry::flight(
            telemetry::FlightKind::DrainEnd,
            report.drained,
            report.acked,
            0,
        );
        report
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_tcp(listener: TcpListener, shared: &Arc<Shared>) {
    accept_loop(shared, || {
        listener.accept().map(|(stream, _)| {
            let _ = stream.set_nodelay(true);
            Sock::Tcp(stream)
        })
    });
}

#[cfg(unix)]
fn accept_uds(listener: UnixListener, shared: &Arc<Shared>) {
    accept_loop(shared, || {
        listener.accept().map(|(stream, _)| Sock::Unix(stream))
    });
}

fn accept_loop(shared: &Arc<Shared>, mut accept: impl FnMut() -> io::Result<Sock>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match accept() {
            Ok(sock) => spawn_conn(shared, sock),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                // Transient accept failure (e.g. EMFILE): back off briefly
                // rather than spinning; the listener itself stays up.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn spawn_conn(shared: &Arc<Shared>, sock: Sock) {
    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
    telemetry::count(Counter::NetConnections, 1);
    let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
    let shared2 = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name(format!("net-conn-{conn_id}"))
        .spawn(move || serve_conn(&shared2, sock, conn_id));
    let handle = match spawned {
        Ok(handle) => handle,
        Err(_) => {
            // No thread to serve it (e.g. EAGAIN at the thread limit): the
            // failed spawn dropped the closure, closing the socket before
            // any byte was exchanged — a refusal, and the acceptor lives on.
            shared
                .stats
                .refused_sessions
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let mut conns = shared.conns.lock().expect("conn registry");
    // Reap finished threads so a long-lived server's registry stays
    // proportional to its *live* connections, not its lifetime total.
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            if conns.swap_remove(i).join().is_err() {
                shared.stats.disconnects.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            i += 1;
        }
    }
    conns.push(handle);
}

/// How one connection ended; drives the per-connection accounting.
enum ConnEnd {
    /// Peer closed cleanly (FIN) or the drain completed.
    Clean,
    /// Framing was lost; the connection cannot continue.
    Protocol(FrameError),
    /// Socket I/O failed (peer reset, write error, …).
    Io(io::Error),
}

fn serve_conn(shared: &Shared, mut sock: Sock, conn_id: u64) {
    let end = drive_conn(shared, &mut sock, conn_id);
    match end {
        ConnEnd::Clean => {}
        ConnEnd::Protocol(_e) => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            shared.stats.disconnects.fetch_add(1, Ordering::Relaxed);
            telemetry::count(Counter::NetDisconnects, 1);
        }
        ConnEnd::Io(_e) => {
            shared.stats.disconnects.fetch_add(1, Ordering::Relaxed);
            telemetry::count(Counter::NetDisconnects, 1);
        }
    }
}

fn drive_conn(shared: &Shared, sock: &mut Sock, conn_id: u64) -> ConnEnd {
    let cfg = &shared.cfg;
    if let Err(e) = sock.set_read_timeout(cfg.poll_interval) {
        return ConnEnd::Io(e);
    }
    let mut serving = match shared.service.open_session() {
        Ok(s) => Serving::new(s, cfg),
        Err(_) => {
            // No session budget: close before any byte is exchanged. The
            // peer sees EOF with zero responses — nothing was admitted, so
            // reconnect-and-retry is always safe.
            shared
                .stats
                .refused_sessions
                .fetch_add(1, Ordering::Relaxed);
            return ConnEnd::Clean;
        }
    };
    let mut reader = FrameReader::new(cfg.max_frame);
    let mut rbuf = vec![0u8; 16 * 1024];
    let mut wbuf: Vec<u8> = Vec::with_capacity(4 * 1024);
    let mut draining = false;
    loop {
        if !draining && shared.stop.load(Ordering::SeqCst) {
            // Graceful drain: pull whatever the kernel has already accepted
            // from the peer (bounded — no waiting for bytes still in
            // flight), answer all of it below, then FIN. Requests past the
            // bound were never received and get neither effect nor ack.
            draining = true;
            slurp_received(sock, &mut reader, &mut rbuf);
        }
        // Phase 1: answer everything fully received, a coalesce batch at a
        // time. Each flush is one write_all of many pipelined responses.
        loop {
            let (handled, end) = serving.serve(
                shared,
                conn_id,
                &mut reader,
                &mut wbuf,
                cfg.max_coalesce,
                draining,
            );
            // On a framing error this is best effort: deliver the responses
            // we owe before abandoning the unframeable stream.
            let flushed = flush_batch(shared, sock, &mut wbuf, handled as u64);
            match (end, flushed) {
                (ServeEnd::Protocol(e), _) => return ConnEnd::Protocol(e),
                (_, Err(e)) => return ConnEnd::Io(e),
                (ServeEnd::Limit, Ok(())) => {}
                (_, Ok(())) => break, // decoder empty
            }
        }
        if draining {
            break; // every received request is answered: time for FIN
        }
        // Phase 2: pull more bytes (bounded wait so we notice shutdown).
        match sock.read(&mut rbuf) {
            Ok(0) => {
                // Peer FIN. Mid-frame it's a torn stream, not a clean close.
                if reader.buffered() > 0 {
                    return ConnEnd::Io(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ));
                }
                return ConnEnd::Clean;
            }
            Ok(n) => reader.extend(&rbuf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return ConnEnd::Io(e),
        }
    }
    // Drain epilogue: acks are flushed; say FIN, then keep reading (and
    // discarding) briefly so a peer mid-send receives those acks instead of
    // a connection reset.
    sock.shutdown_write();
    let deadline = Instant::now() + cfg.drain_grace;
    while Instant::now() < deadline {
        match sock.read(&mut rbuf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    ConnEnd::Clean
}

/// Drains bytes the kernel has already buffered for this connection,
/// without blocking for more: stops at the first empty read (or a size cap
/// so a firehose peer cannot stall shutdown).
fn slurp_received(sock: &mut Sock, reader: &mut FrameReader, rbuf: &mut [u8]) {
    const DRAIN_CAP: usize = 256 * 1024;
    if sock.set_read_timeout(Duration::from_millis(1)).is_err() {
        return;
    }
    let mut pulled = 0usize;
    while pulled < DRAIN_CAP {
        match sock.read(rbuf) {
            Ok(0) => break,
            Ok(n) => {
                reader.extend(&rbuf[..n]);
                pulled += n;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break, // WouldBlock/TimedOut: kernel buffer is empty
        }
    }
}

/// The admin snapshot version; bump when the JSON shape changes
/// incompatibly (key removal or meaning change — adding keys is fine).
pub const STAT_SNAPSHOT_VERSION: u32 = 2;

/// Builds the versioned admin snapshot (`stat_kind::SNAPSHOT`) for a
/// single-node server: always-on wire counters, the runtime's per-shard
/// stats, the telemetry report (empty with the feature off), and the
/// flight-recorder dump (always on).
fn snapshot_json(shared: &Shared) -> String {
    let runtime = shared
        .service
        .runtime_stats_json()
        .unwrap_or_else(|| "null".to_string());
    format!(
        "{{\n\"version\": {STAT_SNAPSHOT_VERSION},\n\"source\": \"net\",\n\"server\": {},\n\"runtime\": {},\n\"telemetry\": {},\n\"flight\": {}\n}}",
        shared.stats.snapshot().to_json(),
        runtime,
        telemetry::TelemetryReport::capture().to_json(),
        telemetry::flight_json()
    )
}

/// The payload a `Stat` request of `kind` gets from this server. Unknown
/// kinds fall back to the snapshot, so an older node still answers a
/// newer scraper with something parseable.
fn stat_payload(shared: &Shared, kind: u8) -> Vec<u8> {
    match kind {
        stat_kind::SPANS => crate::frame::encode_spans(&telemetry::drain_spans()),
        _ => snapshot_json(shared).into_bytes(),
    }
}

/// Requests in one run: what [`Serving`]'s fixed scratch holds, so what one
/// `submit_batch` can carry.
const RUN_MAX: usize = 64;

/// How a [`Serving::serve`] call ended.
enum ServeEnd {
    /// The decoder holds no further complete request.
    Dry,
    /// `limit` requests were answered; more may be buffered.
    Limit,
    /// Framing was lost. Everything decoded before it has been answered.
    Protocol(FrameError),
}

/// What one connection thread owns to answer requests: its runtime
/// session, and scratch for one run — allocated once, so the serve path
/// allocates nothing per request.
struct Serving {
    session: Session,
    /// The run: consecutive decoded requests, in arrival order.
    reqs: Vec<Request>,
    /// The run's valid ops, in arrival order.
    ops: Vec<(u64, u64, u64)>,
    /// Their results, positional.
    results: Vec<Result<u64, RuntimeError>>,
}

impl Serving {
    fn new(session: Session, cfg: &ServerConfig) -> Self {
        let run = cfg.max_coalesce.min(RUN_MAX);
        Self {
            session,
            reqs: Vec::with_capacity(run),
            ops: Vec::with_capacity(run),
            results: Vec::with_capacity(run),
        }
    }

    /// Answers up to `limit` fully-received requests from `rx` into `wbuf`,
    /// and returns how many it answered and why it stopped.
    ///
    /// Requests are taken a *run* at a time: decode what is there, submit
    /// the valid ops among it as one [`Session::submit_batch`], then encode
    /// the replies in request order — pings, stats and `BadRequest`s in
    /// their positions. How much a turn pipelines is thus decided by how
    /// many complete requests the peer had in the buffer, by nothing else:
    /// a run of one is a plain single submit.
    fn serve(
        &mut self,
        shared: &Shared,
        conn_id: u64,
        rx: &mut FrameReader,
        wbuf: &mut Vec<u8>,
        limit: usize,
        draining: bool,
    ) -> (usize, ServeEnd) {
        let t0 = telemetry::now_ns();
        let mut handled = 0usize;
        let end = loop {
            self.reqs.clear();
            let room = (limit - handled).min(self.reqs.capacity());
            let mut end = None;
            while self.reqs.len() < room {
                match rx.next_frame::<Request>() {
                    Ok(Some(req)) => self.reqs.push(req),
                    Ok(None) => {
                        end = Some(ServeEnd::Dry);
                        break;
                    }
                    Err(e) => {
                        end = Some(ServeEnd::Protocol(e));
                        break;
                    }
                }
            }
            handled += self.answer_run(shared, conn_id, wbuf, draining);
            match end {
                Some(end) => break end,
                None if handled >= limit => break ServeEnd::Limit,
                None => {}
            }
        };
        if handled > 0 {
            telemetry::record_span(conn_id as u32, Algo::Net, Lane::Batch, t0);
        }
        (handled, end)
    }

    /// Answers the decoded run into `wbuf`; returns its length.
    fn answer_run(
        &mut self,
        shared: &Shared,
        conn_id: u64,
        wbuf: &mut Vec<u8>,
        draining: bool,
    ) -> usize {
        if self.reqs.is_empty() {
            return 0;
        }
        let max_op = shared.cfg.max_op;
        self.ops.clear();
        let mut op_requests = 0u64;
        for req in &self.reqs {
            if let Request::Op { key, op, arg, .. } = *req {
                op_requests += 1;
                if key < MAX_KEY && op <= max_op {
                    self.ops.push((key, op as u64, arg));
                }
            }
        }
        if op_requests > 0 {
            // Once per run, not per op: every connection thread shares
            // this cache line.
            shared
                .stats
                .requests
                .fetch_add(op_requests, Ordering::Relaxed);
            telemetry::count(Counter::NetRequests, op_requests);
            if draining {
                shared
                    .stats
                    .drained
                    .fetch_add(op_requests, Ordering::Relaxed);
                telemetry::count(Counter::NetDrainedOps, op_requests);
            }
        }
        let t0 = telemetry::now_ns();
        self.session.submit_batch(&self.ops, &mut self.results);
        let mut results = self.results.iter();
        for req in &self.reqs {
            let resp = match *req {
                Request::Ping { id } => Response {
                    id,
                    status: Status::Ok,
                    value: 0,
                },
                Request::Stat { id, kind } => {
                    // Served even while draining: the last scrape sees the
                    // final counters. Not an op — no effect, no request
                    // accounting.
                    StatReply {
                        id,
                        kind,
                        payload: stat_payload(shared, kind),
                    }
                    .encode_frame(wbuf);
                    continue;
                }
                Request::Op {
                    id, key, op, trace, ..
                } => {
                    let (status, value) = if key >= MAX_KEY {
                        shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                        (Status::BadRequest, reject::KEY_RANGE)
                    } else if op > max_op {
                        shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                        (Status::BadRequest, reject::OP_RANGE)
                    } else {
                        match *results.next().expect("one result per valid op") {
                            Ok(value) => (Status::Ok, value),
                            Err(RuntimeError::Busy) => {
                                shared.stats.busy.fetch_add(1, Ordering::Relaxed);
                                telemetry::count(Counter::NetBusy, 1);
                                // Sampled so a backpressure storm leaves a
                                // mark in the flight log without evicting
                                // rarer events.
                                telemetry::flight_sampled(
                                    telemetry::FlightKind::Busy,
                                    64,
                                    conn_id,
                                    key,
                                );
                                (Status::Busy, 0)
                            }
                            Err(RuntimeError::Closed | RuntimeError::SessionsExhausted) => {
                                shared
                                    .stats
                                    .closed_responses
                                    .fetch_add(1, Ordering::Relaxed);
                                (Status::Closed, 0)
                            }
                        }
                    };
                    telemetry::record_span(conn_id as u32, Algo::Net, Lane::Serve, t0);
                    if trace != 0 {
                        // Hop span on the trace's own track, so a collector
                        // can stitch this serve leg under the client's
                        // trace id.
                        telemetry::record_span(
                            telemetry::trace_track(trace_word::id(trace)),
                            Algo::Net,
                            Lane::Serve,
                            t0,
                        );
                    }
                    Response { id, status, value }
                }
            };
            resp.encode_frame(wbuf);
        }
        self.reqs.len()
    }
}

/// Writes the whole response batch of `frames` responses; on success each
/// counts as acked (its effect, if any, is now exactly-once from the peer's
/// view).
fn flush_batch(
    shared: &Shared,
    sock: &mut Sock,
    wbuf: &mut Vec<u8>,
    frames: u64,
) -> io::Result<()> {
    if wbuf.is_empty() {
        return Ok(());
    }
    sock.write_all(wbuf)?;
    sock.flush()?;
    wbuf.clear();
    shared.stats.acked.fetch_add(frames, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = ServerConfig::default();
        assert!(cfg.max_frame >= 26);
        assert!(cfg.max_coalesce >= 1);
        assert!(cfg.poll_interval > Duration::ZERO);
    }
}
