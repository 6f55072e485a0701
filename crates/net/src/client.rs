//! A blocking wire client: pipelining, BUSY retry with jittered backoff,
//! and a split mode for open-loop load generation.
//!
//! [`NetClient`] is deliberately synchronous — one socket, one frame
//! decoder, explicit `send`/`recv` so callers control the pipeline depth.
//! [`NetClient::call`] is the convenience path (depth 1, retries `Busy`
//! transparently); `netbench` and the tests drive `send`/`recv` directly.
//!
//! A `NetClient` writes its queued requests at the latest when it is about
//! to wait on the socket, and [`NetClient::flush`] does not write while a
//! complete response is already buffered. A pipelining caller that takes one
//! response and refills one request therefore writes once per wait, not once
//! per op: on loopback a `send` runs the receiver's TCP stack in the sender's
//! context, so each write saved is CPU saved on both sides. Every path that
//! can wait on the socket or give it up (`recv`, `finish_sending`, `split`,
//! drop) writes the held requests first.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;
use std::time::Duration;

use rand::{Rng, RngCore};

use crate::frame::{
    trace_word, FrameError, FrameReader, Request, Response, StatReply, Status, Wire,
    ADMIN_MAX_FRAME, DEFAULT_MAX_FRAME,
};

/// Everything that can go wrong on the client side of a call.
#[derive(Debug)]
pub enum ClientError {
    /// Socket I/O failed.
    Io(io::Error),
    /// The server's byte stream stopped making sense as frames.
    Frame(FrameError),
    /// The server closed the stream with responses still owed. Any op
    /// without an ack may or may not have been applied — the one window the
    /// exactly-once contract leaves open (resolve by re-reading, not by
    /// blind resubmission of non-idempotent ops).
    Disconnected,
    /// The server answered [`Status::Closed`]: runtime shutting down.
    Closed,
    /// The server answered [`Status::Busy`] and retries were exhausted.
    Busy,
    /// The server answered [`Status::BadRequest`]; payload is the
    /// [`reject`](crate::frame::reject) code.
    Rejected(u64),
    /// The server answered [`Status::Redirect`]: the key's slot lives on
    /// another cluster node; payload is that node's id. Plain `NetClient`
    /// does not follow redirects — cluster-aware callers re-issue the op
    /// (same request id) against the named node.
    Redirected(u64),
    /// The server answered [`Status::Stale`]: the op **was applied** by an
    /// earlier attempt, but its recorded result has been evicted from the
    /// cluster's dedup table. Do not resubmit (that would double-apply);
    /// recover the value by re-reading if needed.
    Stale,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket i/o: {e}"),
            ClientError::Frame(e) => write!(f, "bad frame from server: {e}"),
            ClientError::Disconnected => {
                write!(f, "server disconnected with responses outstanding")
            }
            ClientError::Closed => write!(f, "server runtime is closed"),
            ClientError::Busy => write!(f, "server busy (retries exhausted)"),
            ClientError::Rejected(code) => write!(f, "request rejected (code {code})"),
            ClientError::Redirected(node) => {
                write!(f, "key is owned by cluster node {node}")
            }
            ClientError::Stale => {
                write!(f, "op already applied; its recorded result was evicted")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// Jittered exponential backoff for BUSY retries.
///
/// Sleeps a uniformly random duration in `[base/2, base]`, doubling `base`
/// up to `cap` — the jitter keeps a herd of rejected clients from
/// re-colliding on the same shard window edge.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    /// Retries before giving up ([`ClientError::Busy`]).
    pub max_retries: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Self {
            base: Duration::from_micros(50),
            cap: Duration::from_millis(5),
            max_retries: 64,
        }
    }
}

impl Backoff {
    /// A backoff starting at `base`, capped at `cap`.
    pub fn new(base: Duration, cap: Duration, max_retries: u32) -> Self {
        Self {
            base,
            cap,
            max_retries,
        }
    }

    /// The jittered interval for retry number `attempt`, drawn from `rng`:
    /// uniform in `[cur/2, cur]` where `cur = min(base · 2^attempt, cap)`.
    /// Pure with respect to the RNG — deterministic under a seeded one.
    fn delay(&self, attempt: u32, rng: &mut impl RngCore) -> Duration {
        let exp = attempt.min(16);
        let cur = self
            .base
            .saturating_mul(1u32 << exp.min(31))
            .min(self.cap)
            .max(Duration::from_micros(1));
        let nanos = cur.as_nanos() as u64;
        let jittered = nanos / 2 + rng.gen_range(0..=nanos / 2);
        Duration::from_nanos(jittered.max(1))
    }

    /// Sleeps the next jittered interval and advances the schedule.
    fn step(&self, attempt: u32, rng: &mut impl RngCore) {
        std::thread::sleep(self.delay(attempt, rng));
    }
}

enum ClientSock {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl ClientSock {
    fn try_clone(&self) -> io::Result<ClientSock> {
        Ok(match self {
            ClientSock::Tcp(s) => ClientSock::Tcp(s.try_clone()?),
            #[cfg(unix)]
            ClientSock::Unix(s) => ClientSock::Unix(s.try_clone()?),
        })
    }

    fn shutdown_write(&self) {
        let _ = match self {
            ClientSock::Tcp(s) => s.shutdown(Shutdown::Write),
            #[cfg(unix)]
            ClientSock::Unix(s) => s.shutdown(Shutdown::Write),
        };
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            ClientSock::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            ClientSock::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for ClientSock {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientSock::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ClientSock::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientSock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientSock::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ClientSock::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientSock::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ClientSock::Unix(s) => s.flush(),
        }
    }
}

/// A blocking connection to a [`NetServer`](crate::NetServer).
pub struct NetClient {
    sock: ClientSock,
    reader: FrameReader,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    next_id: u64,
    backoff: Backoff,
    rng: rand::StdRng,
}

impl NetClient {
    /// Connects over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self::from_sock(ClientSock::Tcp(stream)))
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_uds(path: impl AsRef<Path>) -> io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        Ok(Self::from_sock(ClientSock::Unix(stream)))
    }

    fn from_sock(sock: ClientSock) -> Self {
        Self {
            sock,
            reader: FrameReader::new(DEFAULT_MAX_FRAME),
            rbuf: vec![0u8; 16 * 1024],
            wbuf: Vec::with_capacity(1024),
            next_id: 0,
            backoff: Backoff::default(),
            rng: rand::thread_rng(),
        }
    }

    /// Replaces the BUSY retry schedule used by [`NetClient::call`].
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Seeds the RNG behind the backoff jitter, making the retry schedule
    /// (and thus BUSY-recovery tests) fully deterministic. Jitter exists to
    /// decorrelate real fleets — production clients should keep the default
    /// entropy seeding.
    pub fn with_rng_seed(mut self, seed: u64) -> Self {
        self.rng = rand::SeedableRng::seed_from_u64(seed);
        self
    }

    /// Queues one op request without flushing; returns its request id.
    /// Use with [`NetClient::flush`]/[`NetClient::recv`] for pipelining.
    pub fn send(&mut self, key: u64, op: u8, arg: u64) -> u64 {
        self.send_traced(key, op, arg, 0)
    }

    /// [`NetClient::send`] carrying an explicit trace word (0 = untraced).
    pub fn send_traced(&mut self, key: u64, op: u8, arg: u64, trace: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        Request::Op {
            id,
            key,
            op,
            arg,
            trace,
        }
        .encode_frame(&mut self.wbuf);
        id
    }

    /// A fresh non-zero trace word (hop 0) from the client's RNG, or 0
    /// when telemetry is compiled out — feed to [`NetClient::send_traced`]
    /// to tag a request for cross-node tracing.
    pub fn new_trace(&mut self) -> u64 {
        if !mpsync_telemetry::ENABLED {
            return 0;
        }
        let mut id = 0u32;
        while id == 0 {
            id = self.rng.next_u32();
        }
        trace_word::pack(id, 0)
    }

    /// Queues a ping; returns its request id.
    pub fn send_ping(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        Request::Ping { id }.encode_frame(&mut self.wbuf);
        id
    }

    /// Writes every queued request to the socket in one syscall, unless a
    /// complete response is already buffered. Then the requests stay
    /// queued: the caller's next [`NetClient::recv`] returns that response
    /// without waiting, and the first `recv` that has to wait on the socket
    /// writes them, together with whatever was queued after them. A caller
    /// that refills one request per response so makes one write per wait,
    /// not one per op. A caller with nothing buffered, such as every
    /// [`NetClient::call`] and [`NetClient::ping`], still writes at once.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.reader.has_frame() {
            return Ok(());
        }
        self.write_pending()
    }

    /// Writes every queued request in one `write_all`.
    fn write_pending(&mut self) -> io::Result<()> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        self.sock.write_all(&self.wbuf)?;
        self.wbuf.clear();
        Ok(())
    }

    /// Blocks for the next response frame. `Ok(None)` means the server
    /// closed the stream cleanly (FIN with no partial frame).
    ///
    /// A buffered response is returned without touching the socket. Before
    /// each socket read, the requests [`NetClient::flush`] held are written,
    /// so the client never waits for an answer to a request it has not sent.
    pub fn recv(&mut self) -> Result<Option<Response>, ClientError> {
        loop {
            if let Some(resp) = self.reader.next_frame::<Response>()? {
                return Ok(Some(resp));
            }
            self.write_pending()?;
            match self.sock.read(&mut self.rbuf) {
                Ok(0) => {
                    if self.reader.buffered() > 0 {
                        // FIN mid-frame: the stream is torn, not drained.
                        return Err(ClientError::Disconnected);
                    }
                    return Ok(None);
                }
                Ok(n) => {
                    let chunk = &self.rbuf[..n];
                    self.reader.extend(chunk);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// One full round trip: send one op, wait for its response, retry
    /// `Busy` with jittered backoff, and map terminal statuses to errors.
    ///
    /// Must not be mixed with un-received pipelined [`NetClient::send`]s —
    /// it expects the next response to answer this call.
    pub fn call(&mut self, key: u64, op: u8, arg: u64) -> Result<u64, ClientError> {
        self.call_traced(key, op, arg, 0)
    }

    /// [`NetClient::call`] tagged with a trace word (see
    /// [`NetClient::new_trace`]): the op carries the word to the server
    /// (and onward across forwards), and the client records a
    /// `net.client_wait` span on the trace's track covering the whole
    /// round trip — the root of the stitched cross-node trace.
    pub fn call_traced(
        &mut self,
        key: u64,
        op: u8,
        arg: u64,
        trace: u64,
    ) -> Result<u64, ClientError> {
        let t0 = mpsync_telemetry::now_ns();
        let result = self.call_inner(key, op, arg, trace);
        if trace != 0 {
            mpsync_telemetry::record_span(
                mpsync_telemetry::trace_track(trace_word::id(trace)),
                mpsync_telemetry::Algo::Net,
                mpsync_telemetry::Lane::ClientWait,
                t0,
            );
        }
        result
    }

    fn call_inner(&mut self, key: u64, op: u8, arg: u64, trace: u64) -> Result<u64, ClientError> {
        let mut attempt = 0u32;
        loop {
            let id = self.send_traced(key, op, arg, trace);
            self.flush()?;
            let resp = self.recv()?.ok_or(ClientError::Disconnected)?;
            debug_assert_eq!(resp.id, id, "call/response pairing broken");
            match resp.status {
                Status::Ok => return Ok(resp.value),
                Status::Busy => {
                    if attempt >= self.backoff.max_retries {
                        return Err(ClientError::Busy);
                    }
                    self.backoff.step(attempt, &mut self.rng);
                    attempt += 1;
                }
                Status::Closed => return Err(ClientError::Closed),
                Status::BadRequest => return Err(ClientError::Rejected(resp.value)),
                Status::Redirect => return Err(ClientError::Redirected(resp.value)),
                Status::Stale => return Err(ClientError::Stale),
            }
        }
    }

    /// Round-trips a ping (useful as a connectivity barrier).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.send_ping();
        self.flush()?;
        let resp = self.recv()?.ok_or(ClientError::Disconnected)?;
        debug_assert_eq!(resp.id, id);
        match resp.status {
            Status::Ok => Ok(()),
            Status::Busy => Err(ClientError::Busy),
            Status::Closed => Err(ClientError::Closed),
            Status::BadRequest => Err(ClientError::Rejected(resp.value)),
            Status::Redirect => Err(ClientError::Redirected(resp.value)),
            Status::Stale => Err(ClientError::Stale),
        }
    }

    /// Writes the requests [`NetClient::flush`] held, then half-closes the
    /// write side (tells the server "no more requests") while keeping the
    /// read side open for remaining responses.
    pub fn finish_sending(&mut self) -> io::Result<()> {
        self.write_pending()?;
        self.sock.shutdown_write();
        Ok(())
    }

    /// Splits into independently-owned send/receive halves (open-loop mode:
    /// a generator thread fires requests on its own clock while a reaper
    /// thread timestamps responses). The sender inherits the requests
    /// [`NetClient::flush`] held, and its next [`ClientSender::flush`]
    /// writes them; the receiver inherits the buffered responses.
    pub fn split(mut self) -> io::Result<(ClientSender, ClientReceiver)> {
        let (write_sock, read_sock) = (self.sock.try_clone()?, self.sock.try_clone()?);
        // `self` is dropped below: take what the halves inherit, so its
        // `Drop` finds nothing to write.
        Ok((
            ClientSender {
                sock: write_sock,
                wbuf: std::mem::take(&mut self.wbuf),
                next_id: self.next_id,
            },
            ClientReceiver {
                sock: read_sock,
                reader: std::mem::replace(&mut self.reader, FrameReader::new(0)),
                rbuf: std::mem::take(&mut self.rbuf),
            },
        ))
    }
}

impl Drop for NetClient {
    /// Writes the requests [`NetClient::flush`] held, best effort: a client
    /// dropped without waiting for their answers still delivers them.
    fn drop(&mut self) {
        let _ = self.write_pending();
    }
}

/// The write half of a split [`NetClient`].
pub struct ClientSender {
    sock: ClientSock,
    wbuf: Vec<u8>,
    next_id: u64,
}

impl ClientSender {
    /// Queues one op request; returns its id.
    pub fn send(&mut self, key: u64, op: u8, arg: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        Request::Op {
            id,
            key,
            op,
            arg,
            trace: 0,
        }
        .encode_frame(&mut self.wbuf);
        id
    }

    /// Writes every queued request at once, in one syscall. Unlike
    /// [`NetClient::flush`] it never holds them: a split sender cannot see
    /// its receiver's buffer, and an open-loop generator sends on its own
    /// clock, so there is no wait of its own to coalesce behind.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        self.sock.write_all(&self.wbuf)?;
        self.wbuf.clear();
        Ok(())
    }

    /// Half-closes the write side so the receiver eventually sees EOF.
    pub fn finish(&self) {
        self.sock.shutdown_write();
    }
}

/// The read half of a split [`NetClient`].
pub struct ClientReceiver {
    sock: ClientSock,
    reader: FrameReader,
    rbuf: Vec<u8>,
}

impl ClientReceiver {
    /// Optional read timeout (a timed-out [`ClientReceiver::recv`] returns
    /// `Err(Io)` with `WouldBlock`/`TimedOut`).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.sock.set_read_timeout(dur)
    }

    /// Blocks for the next response; `Ok(None)` on clean EOF.
    pub fn recv(&mut self) -> Result<Option<Response>, ClientError> {
        loop {
            if let Some(resp) = self.reader.next_frame::<Response>()? {
                return Ok(Some(resp));
            }
            match self.sock.read(&mut self.rbuf) {
                Ok(0) => {
                    if self.reader.buffered() > 0 {
                        return Err(ClientError::Disconnected);
                    }
                    return Ok(None);
                }
                Ok(n) => {
                    let chunk = &self.rbuf[..n];
                    self.reader.extend(chunk);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }
}

/// A blocking admin connection: polls the stats endpoint any listener
/// (single-node server or cluster node) serves on its client port.
///
/// Separate from [`NetClient`] because [`StatReply`] frames routinely
/// exceed [`DEFAULT_MAX_FRAME`] — this reader decodes with
/// [`ADMIN_MAX_FRAME`].
pub struct AdminClient {
    sock: ClientSock,
    reader: FrameReader,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    next_id: u64,
}

impl AdminClient {
    /// Connects over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self::from_sock(ClientSock::Tcp(stream)))
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_uds(path: impl AsRef<Path>) -> io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        Ok(Self::from_sock(ClientSock::Unix(stream)))
    }

    fn from_sock(sock: ClientSock) -> Self {
        Self {
            sock,
            reader: FrameReader::new(ADMIN_MAX_FRAME),
            rbuf: vec![0u8; 64 * 1024],
            wbuf: Vec::with_capacity(64),
            next_id: 0,
        }
    }

    /// Optional timeout for [`AdminClient::fetch`] reads.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.sock.set_read_timeout(dur)
    }

    /// One stats round trip: requests `kind` (a [`stat_kind`] constant) and
    /// blocks for the matching reply.
    ///
    /// [`stat_kind`]: crate::frame::stat_kind
    pub fn fetch(&mut self, kind: u8) -> Result<StatReply, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.wbuf.clear();
        Request::Stat { id, kind }.encode_frame(&mut self.wbuf);
        self.sock.write_all(&self.wbuf)?;
        self.sock.flush()?;
        loop {
            if let Some(reply) = self.reader.next_frame::<StatReply>()? {
                debug_assert_eq!(reply.id, id, "stat request/reply pairing broken");
                return Ok(reply);
            }
            match self.sock.read(&mut self.rbuf) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(n) => {
                    let chunk = &self.rbuf[..n];
                    self.reader.extend(chunk);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Fetches the JSON snapshot ([`stat_kind::SNAPSHOT`]) as a string.
    ///
    /// [`stat_kind::SNAPSHOT`]: crate::frame::stat_kind::SNAPSHOT
    pub fn fetch_snapshot(&mut self) -> Result<String, ClientError> {
        let reply = self.fetch(crate::frame::stat_kind::SNAPSHOT)?;
        Ok(String::from_utf8_lossy(&reply.payload).into_owned())
    }

    /// Fetches and unpacks the span dump ([`stat_kind::SPANS`]).
    ///
    /// [`stat_kind::SPANS`]: crate::frame::stat_kind::SPANS
    pub fn fetch_spans(&mut self) -> Result<Vec<mpsync_telemetry::SpanEvent>, ClientError> {
        let reply = self.fetch(crate::frame::stat_kind::SPANS)?;
        Ok(crate::frame::decode_spans(&reply.payload)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn seeded_backoff_schedule_is_deterministic_and_bounded() {
        let backoff = Backoff::new(Duration::from_micros(100), Duration::from_millis(2), 8);
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = rand::StdRng::seed_from_u64(seed);
            (0..10).map(|a| backoff.delay(a, &mut rng)).collect()
        };
        assert_eq!(schedule(42), schedule(42), "same seed, same jitter");
        assert_ne!(
            schedule(42),
            schedule(43),
            "different seed, different jitter"
        );
        let mut rng = rand::StdRng::seed_from_u64(7);
        for attempt in 0..32 {
            let d = backoff.delay(attempt, &mut rng);
            let cur = Duration::from_micros(100)
                .saturating_mul(1u32 << attempt.min(16))
                .min(Duration::from_millis(2));
            assert!(
                d >= cur / 2 && d <= cur,
                "attempt {attempt}: {d:?} vs {cur:?}"
            );
        }
    }

    /// The hold-until-wait rule, against a peer the test plays as the
    /// server over a socket pair.
    #[cfg(unix)]
    mod writes {
        use super::*;
        use crate::frame::Request;

        /// A client on one end of a socket pair and the peer on the other.
        /// Both ends give up a read after 2 s, so a request the client
        /// never writes fails the test on a timeout instead of hanging it.
        fn client_and_peer() -> (NetClient, UnixStream) {
            let (a, b) = UnixStream::pair().expect("socket pair");
            for s in [&a, &b] {
                s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            }
            (NetClient::from_sock(ClientSock::Unix(a)), b)
        }

        fn op_ids(bytes: &[u8]) -> Vec<u64> {
            let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
            r.extend(bytes);
            let mut ids = Vec::new();
            while let Some(req) = r.next_frame::<Request>().expect("well-formed requests") {
                match req {
                    Request::Op { id, .. } => ids.push(id),
                    other => panic!("unexpected request {other:?}"),
                }
            }
            assert_eq!(r.buffered(), 0, "a read ended inside a request");
            ids
        }

        /// The request ids of one blocking peer read.
        fn peer_read(peer: &mut UnixStream) -> Vec<u64> {
            let mut buf = [0u8; 4096];
            let n = peer.read(&mut buf).expect("peer read");
            assert!(n > 0, "the client hung up before writing");
            op_ids(&buf[..n])
        }

        /// The request ids the peer can read without waiting; `None` when
        /// its read would block.
        fn peer_read_now(peer: &mut UnixStream) -> Option<Vec<u64>> {
            peer.set_nonblocking(true).unwrap();
            let mut buf = [0u8; 4096];
            let got = peer.read(&mut buf);
            peer.set_nonblocking(false).unwrap();
            match got {
                Ok(n) => Some(op_ids(&buf[..n])),
                Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                Err(e) => panic!("peer read: {e}"),
            }
        }

        fn assert_peer_at_eof(peer: &mut UnixStream) {
            assert_eq!(peer.read(&mut [0u8; 64]).expect("peer read"), 0);
        }

        /// Answers `ids` with one write.
        fn answer(peer: &mut UnixStream, ids: &[u64]) {
            let mut out = Vec::new();
            for &id in ids {
                Response {
                    id,
                    status: Status::Ok,
                    value: id + 100,
                }
                .encode_frame(&mut out);
            }
            peer.write_all(&out).expect("peer write");
        }

        fn recv_id(client: &mut NetClient) -> u64 {
            client.recv().expect("recv").expect("a response").id
        }

        /// A client holding one request behind one complete buffered
        /// response: returns the buffered response's id and the held one's.
        fn holding() -> (NetClient, UnixStream, u64, u64) {
            let (mut client, mut peer) = client_and_peer();
            let (a, b) = (client.send(1, 0, 1), client.send(2, 0, 2));
            client.flush().unwrap();
            assert_eq!(peer_read(&mut peer), [a, b]);
            answer(&mut peer, &[a, b]);
            assert_eq!(recv_id(&mut client), a, "one read took both responses");
            let held = client.send(3, 0, 3);
            client.flush().unwrap();
            assert_eq!(
                peer_read_now(&mut peer),
                None,
                "flush wrote with a response buffered"
            );
            (client, peer, b, held)
        }

        #[test]
        fn flush_holds_while_a_response_is_buffered_and_recv_writes_before_it_waits() {
            let (mut client, mut peer, buffered, held) = holding();
            let also_held = client.send(4, 0, 4);
            client.flush().unwrap();
            assert_eq!(peer_read_now(&mut peer), None);
            // The buffered response comes back without a socket read, so
            // without a write either.
            assert_eq!(recv_id(&mut client), buffered);
            assert_eq!(peer_read_now(&mut peer), None);
            // This recv has to wait: it writes both held requests first,
            // in one write that one peer read sees whole.
            let server = std::thread::spawn(move || {
                let got = peer_read(&mut peer);
                answer(&mut peer, &got);
                (got, peer)
            });
            assert_eq!(recv_id(&mut client), held);
            assert_eq!(recv_id(&mut client), also_held);
            let (got, _peer) = server.join().expect("peer thread");
            assert_eq!(got, [held, also_held]);
        }

        #[test]
        fn flush_writes_at_once_with_nothing_buffered() {
            let (mut client, mut peer) = client_and_peer();
            let first = client.send(1, 0, 1);
            client.flush().unwrap();
            assert_eq!(peer_read_now(&mut peer), Some(vec![first]));
            answer(&mut peer, &[first]);
            assert_eq!(recv_id(&mut client), first);
            // Drained again: the next flush writes at once too.
            let second = client.send(2, 0, 2);
            client.flush().unwrap();
            assert_eq!(peer_read_now(&mut peer), Some(vec![second]));
        }

        #[test]
        fn finish_sending_writes_held_requests_before_the_half_close() {
            let (mut client, mut peer, buffered, held) = holding();
            client.finish_sending().unwrap();
            assert_eq!(peer_read(&mut peer), [held]);
            assert_peer_at_eof(&mut peer);
            assert_eq!(recv_id(&mut client), buffered);
        }

        #[test]
        fn split_hands_held_requests_to_the_sender() {
            let (client, mut peer, buffered, held) = holding();
            let (mut tx, mut rx) = client.split().unwrap();
            assert_eq!(peer_read_now(&mut peer), None, "split wrote");
            tx.flush().unwrap();
            assert_eq!(peer_read_now(&mut peer), Some(vec![held]));
            assert_eq!(rx.recv().expect("recv").expect("a response").id, buffered);
        }

        #[test]
        fn drop_writes_held_requests() {
            let (client, mut peer, _, held) = holding();
            drop(client);
            assert_eq!(peer_read(&mut peer), [held]);
            assert_peer_at_eof(&mut peer);
        }
    }
}
