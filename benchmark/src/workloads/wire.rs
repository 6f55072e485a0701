//! `wire-closed` and `wire-open`: one server, used two ways.
//!
//! An in-process `NetServer` on its defaults, on TCP loopback, over a
//! `ShardedKvStore` with `clients` shards; 4096 keys, Zipf 0.99; half `ADD`,
//! half `GET`. Each client owns its share of the keys, so it can check every
//! reply against a private oracle, and every key is read back at the end.
//!
//! * `wire-closed`: `clients` connections, eight requests outstanding on
//!   each — the frame codec, the server loop and syscalls dominate; the
//!   capacity figure for net.
//! * `wire-open`: Poisson arrivals at [`OPEN_RATE`] ops/s in total, far
//!   below capacity — the same layer judged on latency, measured from the
//!   moment each op was *due*, with the generator's own lateness reported.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::sync::Arc;
use std::time::Duration;

use mpsync_net::frame::Status;
use mpsync_net::{ClientError, NetClient, NetServer};
use mpsync_objects::seq::kv_ops;
use mpsync_runtime::{RuntimeConfig, ShardedKvStore};

use super::deal_keys;
use crate::harness::{construct, drive, Client, Ctl, Plan, Rec, RunResult};
use crate::hist::Hist;
use crate::rng::{Rng, Zipf};
use crate::span::SpanBuf;
use crate::sys;

/// Keys in the store, dealt round-robin to the clients.
const KEYS: usize = 4096;
const THETA: f64 = 0.99;
/// Requests outstanding per connection in the closed loop.
const PIPELINE: usize = 8;
/// Offered load of the open loop, ops/s over all connections (the rate
/// `BENCH_net.json` pinned; about an eighth of closed-loop capacity here).
pub const OPEN_RATE: f64 = 20_000.0;
/// Most requests the open loop leaves unanswered per connection before it
/// stops sending and lets its lateness grow instead.
const OPEN_WINDOW: usize = 1024;

/// Which loop to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// `wire-closed`.
    Closed,
    /// `wire-open`.
    Open,
}

/// The system under test plus one connection per client.
pub struct Wire {
    store: Arc<ShardedKvStore>,
    server: NetServer,
    conns: Vec<NetClient>,
}

/// One client's keys and what it expects them to hold.
pub struct Oracle {
    keys: Vec<u64>,
    values: Vec<u64>,
}

impl Oracle {
    /// Draws the next op, applies it to the oracle, and returns
    /// `(key, op, arg, expected reply)`.
    #[inline]
    fn next(&mut self, zipf: &Zipf, rng: &mut Rng) -> (u64, u8, u64, u64) {
        let i = zipf.sample(rng);
        if rng.next_u64() & 1 == 0 {
            let delta = 1 + rng.below(1000);
            self.values[i] = self.values[i].wrapping_add(delta);
            (self.keys[i], kv_ops::ADD as u8, delta, self.values[i])
        } else {
            (self.keys[i], kv_ops::GET as u8, 0, self.values[i])
        }
    }
}

/// Each client's keys (a seeded deal, so which key is hot — and which shard
/// serves it — follows the seed) with their initial values.
pub fn oracles(plan: &Plan) -> Vec<Oracle> {
    deal_keys(plan.seed, 0x21, KEYS, plan.clients)
        .into_iter()
        .map(|keys| {
            let values = keys.iter().map(|k| k * 1000).collect();
            Oracle { keys, values }
        })
        .collect()
}

impl Wire {
    /// Starts the server (every default), connects, and stores each key's
    /// initial value.
    pub fn build(shards: usize, oracles: &[Oracle]) -> Self {
        let store = Arc::new(ShardedKvStore::new(RuntimeConfig::new(shards)));
        let server = NetServer::builder(store.clone())
            .tcp("127.0.0.1:0")
            .expect("loopback resolves")
            .start()
            .expect("bind an ephemeral loopback port");
        let addr = server.tcp_addrs()[0];
        let conns = oracles
            .iter()
            .map(|o| {
                let mut c = NetClient::connect_tcp(addr).expect("connect to own server");
                let pairs: Vec<(&u64, &u64)> = o.keys.iter().zip(&o.values).collect();
                for chunk in pairs.chunks(64) {
                    for (k, v) in chunk {
                        c.send(**k, kv_ops::PUT as u8, **v);
                    }
                    c.flush().expect("preload flush");
                    for _ in chunk {
                        let r = c.recv().expect("preload reply").expect("server is up");
                        assert_eq!(r.status, Status::Ok, "preload PUT refused");
                    }
                }
                c
            })
            .collect();
        Self {
            store,
            server,
            conns,
        }
    }

    /// The listening address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.tcp_addrs()[0]
    }

    /// Takes the client connections.
    pub fn take_conns(&mut self) -> Vec<NetClient> {
        std::mem::take(&mut self.conns)
    }

    /// Drains the server, shuts the runtime down, returns the server's
    /// counters.
    pub fn teardown(self) -> mpsync_net::DrainReport {
        drop(self.conns);
        let report = self.server.shutdown();
        if let Ok(store) = Arc::try_unwrap(self.store) {
            store.shutdown();
        }
        report
    }
}

/// Runs one epoch of one of the two wire workloads.
pub fn run(plan: &Plan, which: Loop, traced: bool) -> (RunResult, Vec<SpanBuf>) {
    let plan = &Plan {
        partition: plan.partition && which == Loop::Closed,
        ..plan.clone()
    };
    let fresh = oracles(plan);
    let (mut wire, construct_s) = construct(plan, || Wire::build(plan.clients, &fresh));
    let zipf = Zipf::new(fresh[0].keys.len(), THETA);
    let every = if which == Loop::Closed { 16 } else { 4 };
    let mut bufs = SpanBuf::per_client(traced, plan.clients, every);
    let mut buf_of = bufs.iter_mut();
    let clients: Vec<Client<'_, (Oracle, Hist, Hist)>> = wire
        .take_conns()
        .into_iter()
        .zip(fresh)
        .enumerate()
        .map(|(c, (conn, oracle))| {
            let spans = buf_of.next();
            let rng = Rng::stream(plan.seed, 0x22 + c as u64);
            let zipf = &zipf;
            let gap_ns = plan.clients as f64 * 1e9 / OPEN_RATE;
            let body: Client<'_, (Oracle, Hist, Hist)> = match which {
                Loop::Closed => Box::new(move |ctl, rec| {
                    let oracle = closed_loop(ctl, rec, conn, oracle, zipf, rng, spans);
                    (oracle, Hist::new(), Hist::new())
                }),
                Loop::Open => Box::new(move |ctl, rec| {
                    open_loop(ctl, rec, conn, oracle, zipf, rng, gap_ns, spans)
                }),
            };
            body
        })
        .collect();
    let mut driven = drive(plan, clients);
    drop(buf_of);

    // Output check: read every key back — no acked write may be lost.
    let mut check = Rec::untimed();
    match NetClient::connect_tcp(wire.addr()) {
        Ok(mut c) => {
            for (oracle, _, _) in &driven.outputs {
                for (k, want) in oracle.keys.iter().zip(&oracle.values) {
                    let got = c.call(*k, kv_ops::GET as u8, 0);
                    check.check_untimed(matches!(got, Ok(v) if v == *want), || {
                        format!("read-back of key {k}: {got:?}, oracle {want}")
                    });
                }
            }
        }
        Err(e) => check.fail(|| format!("read-back connect: {e}")),
    }
    driven.recs.push(check);
    let report = wire.teardown();

    let mut layer = vec![
        (
            "net.busy_frac",
            report.busy as f64 / report.requests.max(1) as f64,
        ),
        ("net.disconnects", report.disconnects as f64),
        ("net.protocol_errors", report.protocol_errors as f64),
    ];
    if which == Loop::Open {
        let (mut lag, mut send) = (Hist::new(), Hist::new());
        for (_, l, s) in &driven.outputs {
            lag.merge(l);
            send.merge(s);
        }
        let us = |h: &Hist, q| h.quantile(q).unwrap_or(f64::NAN) / 1e3;
        layer.push(("loadgen.lag_p50_us", us(&lag, 0.5)));
        layer.push(("loadgen.lag_p99_us", us(&lag, 0.99)));
        layer.push(("loadgen.send_p50_us", us(&send, 0.5)));
    }
    let result = driven.finish(construct_s, Vec::new(), layer);
    (result, bufs)
}

/// Keeps [`PIPELINE`] requests outstanding until the run stops, then drains.
fn closed_loop(
    ctl: &Ctl,
    rec: &mut Rec,
    mut conn: NetClient,
    mut oracle: Oracle,
    zipf: &Zipf,
    mut rng: Rng,
    mut spans: Option<&mut SpanBuf>,
) -> Oracle {
    // (request id, expected reply, send time)
    let mut pending: VecDeque<(u64, u64, u64)> = VecDeque::with_capacity(PIPELINE);
    loop {
        let t_send = ctl.now_ns();
        // Request ids are consecutive: the ones sent this turn are a range.
        let mut sent = 0..0;
        while pending.len() < PIPELINE && ctl.running() {
            let (key, op, arg, want) = oracle.next(zipf, &mut rng);
            let id = conn.send(key, op, arg);
            pending.push_back((id, want, t_send));
            sent = if sent.is_empty() {
                id..id + 1
            } else {
                sent.start..id + 1
            };
        }
        if pending.is_empty() {
            return oracle;
        }
        if let Err(e) = conn.flush() {
            rec.fail(|| format!("flush: {e}"));
            return oracle;
        }
        // With tracing off, no clock is read here.
        let t_recv = spans.as_deref_mut().map_or(0, |sb| {
            let now = ctl.now_ns();
            for id in sent {
                sb.span("send+flush", "net", id, t_send, now);
            }
            now
        });
        let got = conn.recv();
        let now = ctl.now_ns();
        let (id, want, t0) = pending.pop_front().expect("non-empty checked above");
        match got {
            Ok(Some(r)) if r.id == id && r.status == Status::Ok && r.value == want => {
                rec.ok(ctl.phase(), now - t0);
                if let Some(sb) = spans.as_deref_mut() {
                    sb.span("recv", "net", id, t_recv, now);
                    sb.span("op", "harness", id, t0, now);
                }
            }
            Ok(Some(r)) => rec.fail(|| format!("request {id}: {r:?}, oracle {want}")),
            Ok(None) => {
                rec.fail(|| format!("server closed with request {id} outstanding"));
                return oracle;
            }
            Err(e) => {
                rec.fail(|| format!("recv: {e}"));
                return oracle;
            }
        }
    }
}

/// Sends on a seeded Poisson schedule whatever the server's pace, one thread
/// driving both halves of the connection: it blocks for replies, and the
/// read timeout returns it to its schedule when none come.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    ctl: &Ctl,
    rec: &mut Rec,
    conn: NetClient,
    mut oracle: Oracle,
    zipf: &Zipf,
    mut rng: Rng,
    gap_ns: f64,
    mut spans: Option<&mut SpanBuf>,
) -> (Oracle, Hist, Hist) {
    let (mut lag, mut from_send) = (Hist::new(), Hist::new());
    sys::precise_sleeps();
    let (mut tx, mut rx) = match conn.split() {
        Ok(halves) => halves,
        Err(e) => {
            rec.fail(|| format!("split: {e}"));
            return (oracle, lag, from_send);
        }
    };
    rx.set_read_timeout(Some(Duration::from_millis(1)))
        .expect("a positive read timeout is valid");
    // Indexed by request id: (due, sent, expected reply).
    let mut ring = vec![(0u64, 0u64, 0u64); OPEN_WINDOW];
    let mut outstanding = 0usize;
    let mut due = ctl.now_ns() + rng.exp(gap_ns) as u64;
    loop {
        let now = ctl.now_ns();
        let running = ctl.running();
        let mut sent = 0..0;
        while running && due <= now && outstanding < OPEN_WINDOW {
            let (key, op, arg, want) = oracle.next(zipf, &mut rng);
            let id = tx.send(key, op, arg);
            ring[id as usize % OPEN_WINDOW] = (due, now, want);
            due += (rng.exp(gap_ns) as u64).max(1);
            outstanding += 1;
            sent = if sent.is_empty() {
                id..id + 1
            } else {
                sent.start..id + 1
            };
        }
        if !sent.is_empty() {
            if let Err(e) = tx.flush() {
                rec.fail(|| format!("flush: {e}"));
                break;
            }
            if let Some(sb) = spans.as_deref_mut() {
                let flushed = ctl.now_ns();
                for id in sent {
                    sb.span("send+flush", "net", id, now, flushed);
                }
            }
        }
        if outstanding == 0 {
            if !running {
                break;
            }
            std::thread::sleep(Duration::from_nanos(due.saturating_sub(ctl.now_ns())));
            continue;
        }
        let t_recv = if spans.is_some() { ctl.now_ns() } else { 0 };
        match rx.recv() {
            Ok(Some(r)) => {
                let now = ctl.now_ns();
                outstanding -= 1;
                let (was_due, was_sent, want) = ring[r.id as usize % OPEN_WINDOW];
                if r.status == Status::Ok && r.value == want {
                    let phase = ctl.phase();
                    rec.ok(phase, now - was_due);
                    if ctl.is_timed(phase) {
                        lag.record(was_sent - was_due);
                        from_send.record(now - was_sent);
                    }
                    if let Some(sb) = spans.as_deref_mut() {
                        sb.span("recv", "net", r.id, t_recv, now);
                        sb.span("op", "harness", r.id, was_due, now);
                    }
                } else {
                    rec.fail(|| format!("reply {r:?}, oracle {want}"));
                }
            }
            Err(ClientError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Ok(None) => {
                rec.fail(|| format!("server closed with {outstanding} outstanding"));
                break;
            }
            Err(e) => {
                rec.fail(|| format!("recv: {e}"));
                break;
            }
        }
    }
    tx.finish();
    (oracle, lag, from_send)
}
