//! Reactor-per-shard serving: epoll-driven, core-affine request execution.
//!
//! Under [`ServerModel::Reactor`](crate::ServerModel) the server runs one
//! pinned reactor thread per runtime shard. Each reactor owns an epoll set,
//! one runtime [`Session`], the connections steered to it, and — when the
//! runtime was built with
//! [`external_drive`](mpsync_runtime::RuntimeConfig::with_external_drive) —
//! its shard's executor as a [`ShardDriver`]. That last part is the point:
//! the thread that reads a request off a socket is the thread that executes
//! it against shard state and writes the reply back, so a steered request
//! crosses zero cores between `read(2)` and `write(2)` — the paper's
//! MP-SERVER servicing-core discipline applied to sockets.
//!
//! **Steering.** Acceptors hand fresh connections round-robin to the pool.
//! The first decoded `Op` frame names a key; if that key's shard belongs to
//! a different reactor, the whole connection (buffers, undecoded bytes, and
//! the decoded request itself, preserving FIFO order) migrates to that
//! reactor's mailbox via [`Migrant::Moved`] and an eventfd doorbell. From
//! then on the connection is `steered`: it never migrates again, and keys
//! owned by other shards go through the runtime's normal cross-shard path.
//!
//! **Never block without ticking.** A reactor that waits on another shard —
//! admission to a full window, or responses from a peer's shard — spins
//! through [`Session::submit_batch_with`] with an idle closure that ticks its
//! own [`ShardDriver`]. A blocked reactor therefore keeps serving its shard, so
//! a cycle of reactors waiting on each other's shards always makes
//! progress; delegation chains cannot deadlock.
//!
//! **Zero-allocation steady state.** Sockets read directly into each
//! connection's fixed [`FrameBuf`] window and decode in place; replies
//! encode into a two-segment [`OutBuf`] flushed with `writev`, swapping
//! segments instead of shifting bytes on partial writes. Buffers from
//! closed connections are pooled for reuse. The per-iteration serve work is
//! bracketed by [`thread_allocs`] deltas; any allocation shows up in
//! [`DrainReport::serve_allocs`](crate::DrainReport) and the
//! `net.serve_allocs` counter — a regression gate, not just a statistic.
//!
//! **Drain.** On shutdown each reactor answers everything already received
//! on every connection (steering disabled — any session can submit any
//! key), flushes with a deadline, FINs, lingers briefly so peers collect
//! final acks, then parks at a barrier where it keeps ticking its shard
//! until *all* reactors have drained — peers' draining connections may
//! still need this shard's executor.

use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpsync_runtime::{Session, ShardDriver, MAX_KEY};
use mpsync_telemetry as telemetry;
use mpsync_telemetry::alloc::thread_allocs;
use mpsync_telemetry::{Algo, Counter, Lane};

use crate::frame::{FrameBuf, Request};
use crate::server::{ConnEnd, ServeEnd, Serving, Shared, Sock};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};

/// Epoll cookie of the reactor's own wakeup eventfd (connection slots use
/// their slab index, which can never be this large).
pub(crate) const WAKE_TOKEN: u64 = u64::MAX;

/// Pause reading a connection whose unflushed replies exceed this — the
/// kernel-buffer backpressure point.
const OUT_HIGH_WATER: usize = 64 * 1024;

/// Busy-poll iterations with no progress before falling back to a timed
/// epoll wait (keeps tail latency low under load without burning an idle
/// core forever).
const IDLE_SPINS: u32 = 64;

/// Recycled (read, write) buffer pairs kept per reactor.
const SPARE_POOL: usize = 64;

/// Per-connection byte cap pulled during the drain slurp, mirroring the
/// thread model's bound (a firehose peer cannot stall shutdown).
const DRAIN_CAP: usize = 256 * 1024;

/// A connection (or connection-to-be) in flight to a reactor's mailbox.
pub(crate) enum Migrant {
    /// Freshly accepted, not yet read from.
    Fresh(Sock),
    /// Mid-stream migration: the connection state plus its already-decoded
    /// steering request, which the target must answer first (FIFO).
    Moved(Box<Conn>, Request),
}

/// A reactor's cross-thread mailbox: migrants under a mutex, plus the
/// eventfd that interrupts the reactor's epoll wait.
pub(crate) struct ReactorShared {
    inbox: Mutex<Vec<Migrant>>,
    wake: EventFd,
}

impl ReactorShared {
    pub(crate) fn new() -> io::Result<Self> {
        Ok(Self {
            inbox: Mutex::new(Vec::new()),
            wake: EventFd::new()?,
        })
    }

    pub(crate) fn wake_fd(&self) -> std::os::fd::RawFd {
        self.wake.raw_fd()
    }

    /// Delivers a migrant and rings the reactor's doorbell.
    pub(crate) fn inject(&self, m: Migrant) {
        self.inbox.lock().expect("reactor inbox poisoned").push(m);
        self.wake.signal();
    }
}

/// A two-segment reply buffer flushed with gathered writes.
///
/// New responses encode into `tail`; `flush` writes `head[head_pos..]` then
/// `tail` in one `writev`. A partial write that lands inside `tail` *swaps*
/// the segments (O(1)) instead of memmoving the remainder, so a slow reader
/// costs no copies and no allocations.
pub(crate) struct OutBuf {
    head: Vec<u8>,
    head_pos: usize,
    tail: Vec<u8>,
    /// Responses encoded but not yet fully drained to the socket.
    frames: u64,
}

impl OutBuf {
    fn new() -> Self {
        Self {
            head: Vec::with_capacity(4 * 1024),
            head_pos: 0,
            tail: Vec::with_capacity(4 * 1024),
            frames: 0,
        }
    }

    fn pending(&self) -> usize {
        (self.head.len() - self.head_pos) + self.tail.len()
    }

    fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    fn take_frames(&mut self) -> u64 {
        std::mem::take(&mut self.frames)
    }

    fn reset(&mut self) {
        self.head.clear();
        self.head_pos = 0;
        self.tail.clear();
        self.frames = 0;
    }

    /// Writes as much as the socket accepts; `Ok(true)` when fully drained,
    /// `Ok(false)` on `WouldBlock` with bytes left.
    fn flush(&mut self, sock: &mut Sock) -> io::Result<bool> {
        loop {
            let head_rem = self.head.len() - self.head_pos;
            if head_rem == 0 {
                if self.tail.is_empty() {
                    self.head.clear();
                    self.head_pos = 0;
                    return Ok(true);
                }
                // Promote tail to head so new appends go to a fresh tail.
                self.head.clear();
                self.head_pos = 0;
                std::mem::swap(&mut self.head, &mut self.tail);
                continue;
            }
            let slices = [
                IoSlice::new(&self.head[self.head_pos..]),
                IoSlice::new(&self.tail),
            ];
            let n = match sock.write_vectored(&slices) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if n < head_rem {
                self.head_pos += n;
            } else {
                let into_tail = n - head_rem;
                self.head.clear();
                self.head_pos = 0;
                if into_tail == self.tail.len() {
                    self.tail.clear();
                    return Ok(true);
                }
                // Partial tail: swap segments, mark the consumed prefix.
                std::mem::swap(&mut self.head, &mut self.tail);
                self.head_pos = into_tail;
            }
        }
    }
}

/// One connection owned by a reactor.
pub(crate) struct Conn {
    sock: Sock,
    id: u64,
    rx: FrameBuf,
    out: OutBuf,
    /// Steering decided (either migrated here, or staying put). A steered
    /// connection never migrates again.
    steered: bool,
    /// Peer sent FIN; we owe buffered replies, then close.
    closing: bool,
    /// Already queued on the hot list (dedup).
    in_hot: bool,
    /// Current epoll interest bits, to skip redundant `EPOLL_CTL_MOD`s.
    interest: u32,
}

/// What became of a connection during frame processing.
enum Fate {
    Alive,
    Close(ConnEnd),
    Migrate(usize, Request),
}

struct Reactor<'a> {
    idx: usize,
    n: usize,
    shared: &'a Shared,
    peers: &'a [Arc<ReactorShared>],
    epoll: Epoll,
    serving: Serving,
    driver: Option<ShardDriver>,
    conns: Vec<Option<Box<Conn>>>,
    free: Vec<usize>,
    /// Slots with complete frames still undecoded (a coalesce budget ran
    /// out, or the read buffer filled) — serviced every iteration until dry
    /// so level-triggered epoll can't strand buffered requests.
    hot: Vec<usize>,
    hot_scratch: Vec<usize>,
    spares: Vec<(FrameBuf, OutBuf)>,
}

/// Body of one `net-reactor-{idx}` thread.
pub(crate) fn run_reactor(
    idx: usize,
    n: usize,
    shared: &Arc<Shared>,
    peers: &[Arc<ReactorShared>],
    epoll: Epoll,
    session: Session,
    driver: Option<ShardDriver>,
) {
    if shared.cfg.pin_reactors {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        let _ = crate::sys::pin_to_core(idx % cores);
    }
    let mut r = Reactor {
        idx,
        n,
        shared: shared.as_ref(),
        peers,
        epoll,
        serving: Serving::new(session, &shared.cfg),
        driver,
        conns: Vec::new(),
        free: Vec::new(),
        hot: Vec::new(),
        hot_scratch: Vec::new(),
        spares: Vec::with_capacity(SPARE_POOL),
    };
    let mut events = vec![EpollEvent::default(); 256];
    let mut idle_streak = 0u32;
    let poll_ms = shared.cfg.poll_interval.as_millis().clamp(1, 1000) as i32;
    loop {
        if r.shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // Busy-poll while work is flowing; fall back to a timed wait after
        // a streak of empty iterations so an idle reactor yields its core.
        let timeout = if !r.hot.is_empty() || idle_streak < IDLE_SPINS {
            0
        } else {
            poll_ms
        };
        let t_poll = telemetry::now_ns();
        let nev = r.epoll.wait(&mut events, timeout).unwrap_or(0);
        if timeout > 0 {
            telemetry::record_span(r.idx as u32, Algo::Net, Lane::Poll, t_poll);
        }
        if nev > 0 {
            telemetry::count(Counter::NetReactorWakes, 1);
        }
        for ev in events.iter().take(nev) {
            if ev.data == WAKE_TOKEN {
                r.peers[r.idx].wake.drain();
            }
        }
        // Connection setup/adoption is deliberately outside the allocation
        // sample: slab and pool growth are warm-up costs, not per-op costs.
        let mut progressed = r.drain_inbox(false);

        let a0 = thread_allocs();
        for ev in events.iter().take(nev).copied() {
            if ev.data != WAKE_TOKEN {
                r.handle_event(ev.data as usize, ev.events);
                progressed = true;
            }
        }
        progressed |= r.run_hot();
        let served = r.driver.as_mut().map_or(0, |d| d.tick());
        if served > 0 {
            telemetry::count(Counter::NetReactorBatches, 1);
            progressed = true;
        }
        let allocs = thread_allocs() - a0;
        if allocs > 0 {
            r.shared
                .stats
                .serve_allocs
                .fetch_add(allocs, Ordering::Relaxed);
            telemetry::count(Counter::NetServeAllocs, allocs);
        }

        if progressed {
            idle_streak = 0;
        } else {
            idle_streak = idle_streak.saturating_add(1);
            if timeout == 0 {
                // Single-core friendliness: a busy-polling reactor must not
                // starve the threads it is waiting on.
                std::thread::yield_now();
            }
        }
    }
    r.drain_all();
}

impl<'a> Reactor<'a> {
    fn take_buffers(&mut self) -> (FrameBuf, OutBuf) {
        self.spares
            .pop()
            .unwrap_or_else(|| (FrameBuf::new(self.shared.cfg.max_frame), OutBuf::new()))
    }

    /// Places a connection in the slab, keeping the work lists' capacity in
    /// step so later `mark_hot`/`free` pushes never allocate mid-serve.
    fn install(&mut self, conn: Box<Conn>) -> usize {
        let slot = if let Some(slot) = self.free.pop() {
            self.conns[slot] = Some(conn);
            slot
        } else {
            self.conns.push(Some(conn));
            self.conns.len() - 1
        };
        let cap = self.conns.len();
        if self.hot.capacity() < cap {
            self.hot.reserve(cap - self.hot.capacity());
        }
        if self.hot_scratch.capacity() < cap {
            self.hot_scratch.reserve(cap - self.hot_scratch.capacity());
        }
        if self.free.capacity() < cap {
            self.free.reserve(cap - self.free.capacity());
        }
        slot
    }

    fn drain_inbox(&mut self, draining: bool) -> bool {
        let mut progressed = false;
        loop {
            let m = {
                let mut inbox = self.peers[self.idx]
                    .inbox
                    .lock()
                    .expect("reactor inbox poisoned");
                inbox.pop()
            };
            let Some(m) = m else { break };
            progressed = true;
            match m {
                Migrant::Fresh(sock) => self.add_fresh(sock, draining),
                Migrant::Moved(conn, first) => self.adopt(conn, first, draining),
            }
        }
        progressed
    }

    fn add_fresh(&mut self, sock: Sock, draining: bool) {
        if sock.set_nonblocking(true).is_err() {
            self.shared
                .stats
                .disconnects
                .fetch_add(1, Ordering::Relaxed);
            telemetry::count(Counter::NetDisconnects, 1);
            return;
        }
        let (rx, out) = self.take_buffers();
        let id = self.shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        let conn = Box::new(Conn {
            sock,
            id,
            rx,
            out,
            steered: false,
            closing: false,
            in_hot: false,
            interest: 0,
        });
        let slot = self.install(conn);
        if !draining {
            self.register(slot);
        }
    }

    fn adopt(&mut self, mut conn: Box<Conn>, first: Request, draining: bool) {
        conn.steered = true;
        conn.in_hot = false;
        conn.interest = 0;
        let slot = self.install(conn);
        if !draining && !self.register(slot) {
            return;
        }
        // Answer the steering request plus anything already buffered, in
        // arrival order, then flush — the migration is invisible on the wire.
        if !self.process_frames(slot, Some(first), usize::MAX, draining) {
            return;
        }
        self.flush_slot(slot);
        if self
            .conns
            .get(slot)
            .and_then(|c| c.as_ref())
            .is_some_and(|c| c.rx.has_frame())
        {
            self.mark_hot(slot);
        }
    }

    /// Adds a slot's fd to the epoll set; on failure closes it. Returns
    /// whether the connection survived.
    fn register(&mut self, slot: usize) -> bool {
        let fd = match self.conns[slot].as_ref() {
            Some(c) => c.sock.raw_fd(),
            None => return false,
        };
        if let Err(e) = self.epoll.add(fd, EPOLLIN, slot as u64) {
            self.close_conn(slot, ConnEnd::Io(e));
            return false;
        }
        if let Some(c) = self.conns[slot].as_mut() {
            c.interest = EPOLLIN;
        }
        true
    }

    fn mark_hot(&mut self, slot: usize) {
        if let Some(c) = self.conns[slot].as_mut() {
            if !c.in_hot {
                c.in_hot = true;
                self.hot.push(slot);
            }
        }
    }

    fn handle_event(&mut self, slot: usize, ev: u32) {
        if self.conns.get(slot).is_none_or(|c| c.is_none()) {
            return; // closed earlier in this batch
        }
        if ev & EPOLLOUT != 0 {
            self.flush_slot(slot);
        }
        if ev & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 {
            self.service_slot(slot);
        }
    }

    /// The per-wakeup read → decode/execute → flush cycle for one slot.
    fn service_slot(&mut self, slot: usize) {
        let mut eof = false;
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.closing {
                break; // only flushing; input is done
            }
            if conn.out.pending() > OUT_HIGH_WATER {
                break; // backpressure: stop reading until replies drain
            }
            let spare = conn.rx.spare();
            if spare.is_empty() {
                break; // a full window of undecoded frames: decode first
            }
            match conn.sock.read(spare) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(nr) => conn.rx.commit(nr),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.close_conn(slot, ConnEnd::Io(e));
                    return;
                }
            }
        }
        // At EOF the peer has stopped sending, so the latency argument for
        // the coalesce bound is moot: answer everything now.
        let limit = if eof {
            usize::MAX
        } else {
            self.shared.cfg.max_coalesce
        };
        if !self.process_frames(slot, None, limit, false) {
            return;
        }
        self.flush_slot(slot);
        let Some(conn) = self.conns[slot].as_ref() else {
            return;
        };
        if eof {
            if conn.rx.buffered() > 0 {
                // Peer FIN'd mid-frame: torn stream.
                self.close_conn(
                    slot,
                    ConnEnd::Io(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    )),
                );
            } else if conn.out.is_empty() {
                self.close_conn(slot, ConnEnd::Clean);
            } else if let Some(c) = self.conns[slot].as_mut() {
                c.closing = true;
                self.update_interest(slot);
            }
        } else {
            if conn.rx.has_frame() {
                self.mark_hot(slot);
            }
            self.update_interest(slot);
        }
    }

    /// Decodes and answers up to `limit` requests (serving `first` before
    /// touching the buffer, to preserve FIFO across migration). Returns
    /// whether the connection still lives here.
    fn process_frames(
        &mut self,
        slot: usize,
        first: Option<Request>,
        limit: usize,
        draining: bool,
    ) -> bool {
        let fate = {
            let Reactor {
                idx,
                n,
                shared,
                serving,
                driver,
                conns,
                ..
            } = self;
            let shared: &Shared = shared;
            let Some(conn) = conns[slot].as_mut() else {
                return false;
            };
            let Conn {
                rx,
                out,
                steered,
                id,
                ..
            } = &mut **conn;
            // The reactor's wait loop IS its shard's executor: keep serving
            // while parked on admission or a peer's shard.
            let mut idle = || {
                if let Some(d) = driver.as_mut() {
                    d.tick();
                }
            };
            let mut first = first;
            let mut left = limit;
            loop {
                let (handled, end) = serving.serve(
                    shared,
                    *id,
                    rx,
                    &mut out.tail,
                    first.take(),
                    left,
                    !*steered && !draining,
                    draining,
                    &mut idle,
                );
                out.frames += handled as u64;
                left = left.saturating_sub(handled);
                match end {
                    ServeEnd::Dry | ServeEnd::Limit => break Fate::Alive,
                    ServeEnd::Protocol(e) => break Fate::Close(ConnEnd::Protocol(e)),
                    ServeEnd::Held(req) => {
                        // First op decides the connection's home. Pings are
                        // answered locally without committing a home.
                        *steered = true;
                        if let Request::Op { key, .. } = req {
                            if key < MAX_KEY && *n > 1 {
                                let target = shared.service.shard_of(key);
                                if target != *idx && target < *n {
                                    break Fate::Migrate(target, req);
                                }
                            }
                        }
                        // Staying: answer it with what follows, as one run.
                        first = Some(req);
                    }
                }
            }
        };
        match fate {
            Fate::Alive => true,
            Fate::Close(end) => {
                self.close_conn(slot, end);
                false
            }
            Fate::Migrate(target, req) => {
                self.migrate(slot, target, req);
                false
            }
        }
    }

    fn migrate(&mut self, slot: usize, target: usize, first: Request) {
        let conn = self.conns[slot].take().expect("migrating a live conn");
        self.free.push(slot);
        let _ = self.epoll.del(conn.sock.raw_fd());
        self.shared.stats.migrations.fetch_add(1, Ordering::Relaxed);
        telemetry::flight(
            telemetry::FlightKind::ConnMigrate,
            conn.id,
            self.idx as u64,
            target as u64,
        );
        self.peers[target].inject(Migrant::Moved(conn, first));
    }

    /// Credits fully-drained replies as acked.
    fn settle_acked(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].as_mut() {
            let f = conn.out.take_frames();
            if f > 0 {
                self.shared.stats.acked.fetch_add(f, Ordering::Relaxed);
            }
        }
    }

    fn flush_slot(&mut self, slot: usize) {
        let result = {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.out.is_empty() {
                None
            } else {
                let t0 = telemetry::now_ns();
                let Conn { out, sock, id, .. } = &mut **conn;
                let r = out.flush(sock);
                if matches!(r, Ok(true)) {
                    telemetry::record_span(*id as u32, Algo::Net, Lane::Flush, t0);
                }
                Some(r)
            }
        };
        match result {
            None => self.update_interest(slot),
            Some(Ok(true)) => {
                self.settle_acked(slot);
                let closing = self.conns[slot].as_ref().is_some_and(|c| c.closing);
                if closing {
                    self.close_conn(slot, ConnEnd::Clean);
                } else {
                    self.update_interest(slot);
                }
            }
            Some(Ok(false)) => self.update_interest(slot),
            Some(Err(e)) => self.close_conn(slot, ConnEnd::Io(e)),
        }
    }

    /// Reconciles a slot's epoll interest with its state: reads pause under
    /// write backpressure (and stop entirely once the peer FINs), write
    /// interest exists only while replies are buffered.
    fn update_interest(&mut self, slot: usize) {
        let Reactor { epoll, conns, .. } = self;
        let Some(conn) = conns[slot].as_mut() else {
            return;
        };
        let mut want = 0u32;
        if !conn.closing && conn.out.pending() <= OUT_HIGH_WATER {
            want |= EPOLLIN;
        }
        if !conn.out.is_empty() {
            want |= EPOLLOUT;
        }
        if want != conn.interest && epoll.modify(conn.sock.raw_fd(), want, slot as u64).is_ok() {
            conn.interest = want;
        }
    }

    /// Services every hot slot once; re-marks those still holding complete
    /// frames. Uses a persistent scratch list so the swap never allocates.
    fn run_hot(&mut self) -> bool {
        if self.hot.is_empty() {
            return false;
        }
        std::mem::swap(&mut self.hot, &mut self.hot_scratch);
        let mut progressed = false;
        for i in 0..self.hot_scratch.len() {
            let slot = self.hot_scratch[i];
            match self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
                Some(c) => c.in_hot = false,
                None => continue, // closed/migrated since marking
            }
            progressed = true;
            if !self.process_frames(slot, None, self.shared.cfg.max_coalesce, false) {
                continue;
            }
            self.flush_slot(slot);
            if self
                .conns
                .get(slot)
                .and_then(|c| c.as_ref())
                .is_some_and(|c| c.rx.has_frame())
            {
                self.mark_hot(slot);
            }
        }
        self.hot_scratch.clear();
        progressed
    }

    fn close_conn(&mut self, slot: usize, end: ConnEnd) {
        let mut conn = self.conns[slot].take().expect("closing a live conn");
        self.free.push(slot);
        let _ = self.epoll.del(conn.sock.raw_fd());
        // Deliver what we owe, best effort (single nonblocking attempt).
        if let Ok(true) = conn.out.flush(&mut conn.sock) {
            let f = conn.out.take_frames();
            if f > 0 {
                self.shared.stats.acked.fetch_add(f, Ordering::Relaxed);
            }
        }
        match end {
            ConnEnd::Clean => {}
            ConnEnd::Protocol(_) => {
                self.shared
                    .stats
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                self.shared
                    .stats
                    .disconnects
                    .fetch_add(1, Ordering::Relaxed);
                telemetry::count(Counter::NetDisconnects, 1);
            }
            ConnEnd::Io(_) => {
                self.shared
                    .stats
                    .disconnects
                    .fetch_add(1, Ordering::Relaxed);
                telemetry::count(Counter::NetDisconnects, 1);
            }
        }
        let Conn {
            sock,
            mut rx,
            mut out,
            ..
        } = *conn;
        sock.shutdown_write();
        rx.reset();
        out.reset();
        if self.spares.len() < SPARE_POOL {
            self.spares.push((rx, out));
        }
        // `sock` drops here, closing the fd.
    }

    /// Pulls already-received bytes for `slot`, nonblocking, within
    /// `budget`. Returns bytes pulled (0 = kernel buffer empty or EOF).
    fn slurp(&mut self, slot: usize, budget: &mut usize) -> usize {
        let mut pulled = 0usize;
        loop {
            let r = {
                let Some(conn) = self.conns[slot].as_mut() else {
                    return pulled;
                };
                let spare = conn.rx.spare();
                if spare.is_empty() || *budget == 0 {
                    return pulled;
                }
                let cap = spare.len().min(*budget);
                conn.sock.read(&mut spare[..cap])
            };
            match r {
                Ok(0) => return pulled,
                Ok(n) => {
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.rx.commit(n);
                    }
                    *budget -= n;
                    pulled += n;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return pulled, // WouldBlock: nothing buffered
            }
        }
    }

    /// Flushes `slot` until empty or `deadline`, ticking the shard between
    /// attempts so replies blocked on peer shards keep completing.
    fn flush_deadline(&mut self, slot: usize, deadline: Instant) {
        loop {
            let r = {
                let Some(conn) = self.conns[slot].as_mut() else {
                    return;
                };
                if conn.out.is_empty() {
                    return;
                }
                let Conn { out, sock, .. } = &mut **conn;
                out.flush(sock)
            };
            match r {
                Ok(true) => {
                    self.settle_acked(slot);
                    return;
                }
                Ok(false) => {
                    if Instant::now() >= deadline {
                        return;
                    }
                    if let Some(d) = self.driver.as_mut() {
                        d.tick();
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => {
                    self.close_conn(slot, ConnEnd::Io(e));
                    return;
                }
            }
        }
    }

    /// Answers everything already received on every connection, flushes,
    /// FINs, and lingers so peers collect their final acks.
    fn drain_phase(&mut self, deadline: Instant) {
        self.drain_inbox(true);
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_none() {
                continue;
            }
            let mut budget = DRAIN_CAP;
            loop {
                let pulled = self.slurp(slot, &mut budget);
                // Steering is off while draining: any session reaches any
                // shard, so requests execute wherever they already sit.
                if !self.process_frames(slot, None, usize::MAX, true) {
                    break;
                }
                if pulled == 0 {
                    break;
                }
            }
            if self.conns[slot].is_none() {
                continue;
            }
            self.flush_deadline(slot, deadline);
            if let Some(conn) = self.conns[slot].as_ref() {
                conn.sock.shutdown_write();
            }
        }
        // Linger: keep reading (and discarding) so still-sending peers get
        // their acks delivered instead of a reset.
        let mut buf = [0u8; 4096];
        loop {
            let mut any_live = false;
            let mut moved_bytes = false;
            for slot in 0..self.conns.len() {
                let r = {
                    let Some(conn) = self.conns[slot].as_mut() else {
                        continue;
                    };
                    conn.sock.read(&mut buf)
                };
                any_live = true;
                match r {
                    Ok(0) => self.close_conn(slot, ConnEnd::Clean),
                    Ok(_) => moved_bytes = true,
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock
                            || e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => self.close_conn(slot, ConnEnd::Clean),
                }
            }
            if !any_live || Instant::now() >= deadline {
                break;
            }
            if !moved_bytes {
                if let Some(d) = self.driver.as_mut() {
                    d.tick();
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close_conn(slot, ConnEnd::Clean);
            }
        }
    }

    fn drain_all(&mut self) {
        let grace = self.shared.cfg.drain_grace;
        self.drain_phase(Instant::now() + grace);
        // Barrier: peers' draining connections may still submit to this
        // shard, so keep ticking it until every reactor has drained.
        self.shared.reactors_drained.fetch_add(1, Ordering::SeqCst);
        while self.shared.reactors_drained.load(Ordering::SeqCst) < self.n {
            if self.drain_inbox(true) {
                self.drain_phase(Instant::now() + grace);
            }
            if let Some(d) = self.driver.as_mut() {
                d.tick();
            }
            std::thread::yield_now();
        }
        // Close the injection race: a migrant sent just before a peer hit
        // the barrier is visible now (SeqCst) and still gets answered.
        if self.drain_inbox(true) {
            self.drain_phase(Instant::now() + grace);
        }
    }
}
