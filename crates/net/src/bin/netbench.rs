//! netbench: loopback load generator and self-checking smoke harness for
//! the mpsync-net serving layer.
//!
//! Spins up an in-process [`NetServer`] over a sharded counter or KV
//! runtime, drives it with N client connections, and reports throughput
//! plus per-op latency percentiles (client-measured, send → ack).
//!
//! Two loop disciplines:
//!
//! * **closed loop** (default): each connection keeps `--pipeline` requests
//!   outstanding — throughput is whatever the server sustains.
//! * **open loop** (`--rate R`): each connection fires requests on its own
//!   clock (R ops/s split across connections) regardless of responses —
//!   the discipline that exposes BUSY backpressure under overload.
//!
//! Key skew is Zipf (`--theta`, 0 = uniform) over `--keys` keys, sampled
//! from a precomputed harmonic CDF.
//!
//! Connection-scale knobs: `--conn-workers N` multiplexes all connections
//! over N client threads (thousands of connections from one process), and
//! `--listen`/`--connect` split server and client into separate processes
//! so a 10k-connection run fits per-process fd limits. `--adaptive-sweep`
//! runs the contention ladder behind `BENCH_adaptive.json`; with `--gate`
//! it fails if ADAPTIVE misses its acceptance bar.
//!
//! `--smoke` runs the CI acceptance check instead of a benchmark: steady
//! pipelined connections plus deliberately misbehaving ones (disconnect
//! mid-run with responses in flight), a graceful server shutdown under
//! load, and end-state verification that every *acked* increment was
//! applied exactly once (`max(pre)+1 ≤ final ≤ sent`, distinct pre-values,
//! per-connection monotonicity). Exit code 0 only if every invariant holds.
//!
//! Run `netbench --help` for the flag list; EXPERIMENTS.md has reference
//! invocations.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mpsync_apps::{ops as app_ops, pack_put, pack_task, unpack_task, AppConfig, AppSuite};
use mpsync_net::{AdminClient, NetClient, NetServer, ServerConfig, STAT_SNAPSHOT_VERSION};
use mpsync_objects::seq::{keyed_counter_ops, kv_ops};
use mpsync_runtime::{
    probe_key, Backend, RuntimeConfig, RuntimeStats, ShardedCounter, ShardedKvStore, SubmitPolicy,
};
use mpsync_telemetry::Log2Hist;
use rand::{Rng, SeedableRng, StdRng};

use mpsync_net::frame::Status;

// ---------------------------------------------------------------- options

#[derive(Clone)]
struct Opts {
    backends: Vec<Backend>,
    shards: usize,
    connections: usize,
    pipeline: usize,
    /// Ops per connection (closed loop) or total send budget (open loop).
    ops: u64,
    /// Wall-clock cap; whichever of ops/duration trips first ends the run.
    duration: Option<Duration>,
    /// Open-loop aggregate request rate (ops/s across all connections).
    rate: Option<u64>,
    keys: u64,
    theta: f64,
    workload: Workload,
    policy: SubmitPolicy,
    queue_depth: usize,
    seed: u64,
    json: bool,
    smoke: bool,
    uds: Option<std::path::PathBuf>,
    /// 0 = one client thread per connection; N > 0 = N worker threads,
    /// each multiplexing its share of the connections (closed loop only) —
    /// how a 10k-connection run fits in a sane thread budget.
    conn_workers: usize,
    /// Run the adaptive contention sweep (fixed backends vs ADAPTIVE
    /// across escalating contention levels) and write `bench_json`.
    adaptive_sweep: bool,
    /// With `--adaptive-sweep`: fail if ADAPTIVE falls >10% below the best
    /// fixed backend at any level, or fails to strictly beat at least one
    /// fixed backend at the extremes.
    gate: bool,
    bench_json: std::path::PathBuf,
    /// Serve-only on this address until stdin reaches EOF, then drain.
    /// Pairs with a `--connect` client process — the split that lets a
    /// 10k-connection run fit the per-process fd limit.
    listen: Option<String>,
    /// Client-only against an already-running `--listen` server.
    connect: Option<SocketAddr>,
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Counter,
    Kv,
    /// Token buckets: read-mostly admission checks over the app suite.
    Ratelimit,
    /// Score updates + rank reads over the app suite's ordered index.
    Leaderboard,
    /// Push/pop-min against the app suite's priority queues.
    Pq,
    /// TTL session store: puts with live TTLs keep the timer wheel busy.
    Session,
    /// Single-op slice of the ledger band (deposits, balances, holds).
    Txn,
    /// Uniform mix across all five application bands.
    Mixed,
}

impl Workload {
    /// Whether this workload is served by the [`AppSuite`] (vs the plain
    /// sharded counter / kv objects).
    fn is_app(self) -> bool {
        !matches!(self, Workload::Counter | Workload::Kv)
    }
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            backends: vec![Backend::MpServer],
            shards: 2,
            connections: 4,
            pipeline: 8,
            ops: 2000,
            duration: None,
            rate: None,
            keys: 1024,
            theta: 0.99,
            workload: Workload::Counter,
            policy: SubmitPolicy::Block,
            queue_depth: 64,
            seed: 42,
            json: false,
            smoke: false,
            uds: None,
            conn_workers: 0,
            adaptive_sweep: false,
            gate: false,
            bench_json: "BENCH_adaptive.json".into(),
            listen: None,
            connect: None,
        }
    }
}

const USAGE: &str = "\
netbench — loopback load generator for the mpsync-net serving layer

USAGE: netbench [FLAGS]

  --backend NAME     lock | comb | mp-server | adaptive |
                     all (all = the three fixed backends)         [mp-server]
  --shards N         runtime shards                               [2]
  --connections N    client connections                           [4]
  --pipeline N       outstanding requests per connection (closed) [8]
  --ops N            ops per connection                           [2000]
  --duration SECS    wall-clock cap (fractional ok)
  --rate OPS_S       open loop: aggregate request rate (ops/s)
  --keys N           key-space size                               [1024]
  --theta F          Zipf skew, 0 = uniform                       [0.99]
  --workload W       counter | kv | ratelimit | leaderboard |
                     pq | session | txn | mixed                   [counter]
  --policy P         block | fail (fail surfaces BUSY)            [block]
  --queue-depth N    per-shard admission window                   [64]
  --uds PATH         serve over a unix socket instead of TCP
  --conn-workers N   drive connections from N multiplexing worker
                     threads (closed loop; 0 = thread per conn)   [0]
  --seed N           workload RNG seed                            [42]
  --json             machine-readable report on stdout
  --smoke            run the self-checking CI scenario
  --adaptive-sweep   sweep {lock, comb, mp-server, adaptive} across
                     escalating contention levels; write --bench-json
  --gate             with --adaptive-sweep: fail if adaptive trails the
                     best fixed backend by >10% anywhere or beats no
                     fixed backend at the contention extremes
  --bench-json PATH  sweep report path                            [BENCH_adaptive.json]
  --listen ADDR      serve-only on ADDR until stdin EOF, then drain;
                     pair with a --connect client process
  --connect ADDR     client-only against a --listen server
  --help             this text
";

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut args = std::env::args().skip(1);
    fn val(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--backend" => {
                let v = val(&mut args, "--backend")?;
                o.backends = if v == "all" {
                    Backend::ALL.to_vec()
                } else if v == "adaptive" {
                    // Not in `Backend::ALL` (it's a policy over the fixed
                    // backends, not a fourth peer), so matched explicitly.
                    vec![Backend::Adaptive]
                } else {
                    vec![Backend::ALL
                        .into_iter()
                        .find(|b| b.label() == v)
                        .ok_or_else(|| format!("unknown backend {v:?}"))?]
                };
            }
            "--shards" => o.shards = parse_num(&val(&mut args, &a)?, &a)?,
            "--connections" => o.connections = parse_num(&val(&mut args, &a)?, &a)?,
            "--pipeline" => o.pipeline = parse_num::<usize>(&val(&mut args, &a)?, &a)?.max(1),
            "--ops" => o.ops = parse_num(&val(&mut args, &a)?, &a)?,
            "--duration" => {
                let secs: f64 = val(&mut args, &a)?
                    .parse()
                    .map_err(|_| format!("{a}: bad number"))?;
                o.duration = Some(Duration::from_secs_f64(secs));
            }
            "--rate" => o.rate = Some(parse_num(&val(&mut args, &a)?, &a)?),
            "--keys" => o.keys = parse_num::<u64>(&val(&mut args, &a)?, &a)?.max(1),
            "--theta" => {
                o.theta = val(&mut args, &a)?
                    .parse()
                    .map_err(|_| format!("{a}: bad number"))?
            }
            "--workload" => {
                o.workload = match val(&mut args, &a)?.as_str() {
                    "counter" => Workload::Counter,
                    "kv" => Workload::Kv,
                    "ratelimit" => Workload::Ratelimit,
                    "leaderboard" => Workload::Leaderboard,
                    "pq" => Workload::Pq,
                    "session" => Workload::Session,
                    "txn" => Workload::Txn,
                    "mixed" => Workload::Mixed,
                    w => return Err(format!("unknown workload {w:?}")),
                }
            }
            "--policy" => {
                o.policy = match val(&mut args, &a)?.as_str() {
                    "block" => SubmitPolicy::Block,
                    "fail" => SubmitPolicy::Fail,
                    p => return Err(format!("unknown policy {p:?}")),
                }
            }
            "--queue-depth" => o.queue_depth = parse_num(&val(&mut args, &a)?, &a)?,
            "--uds" => o.uds = Some(val(&mut args, &a)?.into()),
            "--seed" => o.seed = parse_num(&val(&mut args, &a)?, &a)?,
            "--conn-workers" => o.conn_workers = parse_num(&val(&mut args, &a)?, &a)?,
            "--listen" => o.listen = Some(val(&mut args, &a)?),
            "--connect" => {
                let v = val(&mut args, &a)?;
                o.connect = Some(v.parse().map_err(|_| format!("{a}: bad address {v:?}"))?);
            }
            "--json" => o.json = true,
            "--smoke" => o.smoke = true,
            "--adaptive-sweep" => o.adaptive_sweep = true,
            "--gate" => o.gate = true,
            "--bench-json" => o.bench_json = val(&mut args, &a)?.into(),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (see --help)")),
        }
    }
    if o.connections == 0 {
        return Err("--connections must be ≥ 1".into());
    }
    if o.conn_workers > 0 && o.rate.is_some() {
        return Err("--conn-workers multiplexes the closed loop only (no --rate)".into());
    }
    if o.gate && !o.adaptive_sweep {
        return Err("--gate only applies to the --adaptive-sweep suite".into());
    }
    if o.listen.is_some() && o.connect.is_some() {
        return Err("--listen and --connect are different processes".into());
    }
    if (o.listen.is_some() || o.connect.is_some()) && (o.smoke || o.adaptive_sweep) {
        return Err("--listen/--connect run the plain benchmark only".into());
    }
    Ok(o)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: bad number {s:?}"))
}

// ------------------------------------------------------------ zipf sampler

/// Zipf(θ) over `1..=n` via a precomputed harmonic CDF + binary search.
/// θ = 0 degenerates to uniform.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Self {
        let n = n.max(1) as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

// ------------------------------------------------------------- connecting

#[derive(Clone)]
enum Endpoint {
    Tcp(SocketAddr),
    Uds(std::path::PathBuf),
}

fn connect(ep: &Endpoint) -> std::io::Result<NetClient> {
    match ep {
        Endpoint::Tcp(addr) => NetClient::connect_tcp(addr),
        Endpoint::Uds(path) => NetClient::connect_uds(path),
    }
}

// ------------------------------------------------------------- per-worker

#[derive(Default)]
struct ConnResult {
    sent: u64,
    acked: u64,
    busy: u64,
    closed: u64,
    rejected: u64,
    hist: Log2Hist,
    /// Stream ended without a protocol/I/O surprise.
    clean: bool,
    error: Option<String>,
}

fn op_for(workload: Workload, rng: &mut StdRng) -> (u8, u64) {
    match workload {
        Workload::Counter => (keyed_counter_ops::INC as u8, 0),
        // 50/50 read/update mix; values stay clear of the EMPTY sentinel.
        Workload::Kv => {
            if rng.gen_bool(0.5) {
                (kv_ops::GET as u8, 0)
            } else {
                (kv_ops::PUT as u8, rng.gen_range(1u64..1 << 32))
            }
        }
        // Read-mostly admission: peeks ride the read fast path, grants
        // draw 1..4 tokens, occasional fills feed the op-merging path.
        Workload::Ratelimit => {
            let r = rng.gen_range(0u32..100);
            if r < 70 {
                (app_ops::RL_PEEK as u8, 0)
            } else if r < 95 {
                (app_ops::RL_ACQUIRE as u8, rng.gen_range(1u64..4))
            } else {
                (app_ops::RL_FILL as u8, rng.gen_range(1u64..8))
            }
        }
        // Score reads dominate; rank reads hit the shard-local ordered
        // index (the facet's cross-shard merge is a client concern).
        Workload::Leaderboard => {
            let r = rng.gen_range(0u32..100);
            if r < 55 {
                (app_ops::LB_GET as u8, 0)
            } else if r < 85 {
                (app_ops::LB_ADD as u8, rng.gen_range(1u64..100))
            } else if r < 95 {
                (app_ops::LB_NTH as u8, rng.gen_range(0u64..8))
            } else {
                (app_ops::LB_COUNT_GE as u8, rng.gen_range(1u64..1000))
            }
        }
        // Balanced producer/consumer on the keyed queues.
        Workload::Pq => {
            if rng.gen_bool(0.5) {
                (
                    app_ops::PQ_PUSH as u8,
                    pack_task(rng.gen_range(0u32..8), rng.gen_range(1u32..1 << 20)),
                )
            } else {
                (app_ops::PQ_POP as u8, 0)
            }
        }
        // Session cache shape: gets dominate, puts carry live 50–500 ms
        // TTLs so the per-shard timer wheel stays armed under load.
        Workload::Session => {
            let r = rng.gen_range(0u32..100);
            if r < 50 {
                (app_ops::SS_GET as u8, 0)
            } else if r < 85 {
                (
                    app_ops::SS_PUT as u8,
                    pack_put(rng.gen_range(1u32..1 << 20), rng.gen_range(50u32..500)),
                )
            } else if r < 95 {
                (app_ops::SS_TTL as u8, 0)
            } else {
                (app_ops::SS_DEL as u8, 0)
            }
        }
        // Single-op slice of the ledger protocol; full two-phase transfers
        // run in the apps smoke. Reserves and releases stay paired in
        // expectation so holds drain.
        Workload::Txn => {
            let r = rng.gen_range(0u32..100);
            if r < 35 {
                (app_ops::LG_DEPOSIT as u8, rng.gen_range(1u64..100))
            } else if r < 75 {
                (app_ops::LG_BALANCE as u8, 0)
            } else if r < 85 {
                (app_ops::LG_RESERVE as u8, 1)
            } else if r < 95 {
                (app_ops::LG_RELEASE as u8, 1)
            } else {
                (app_ops::LG_HELD as u8, 0)
            }
        }
        Workload::Mixed => {
            let w = match rng.gen_range(0u32..5) {
                0 => Workload::Ratelimit,
                1 => Workload::Leaderboard,
                2 => Workload::Pq,
                3 => Workload::Session,
                _ => Workload::Txn,
            };
            op_for(w, rng)
        }
    }
}

fn record_latency(hist: &mut Log2Hist, t0: Instant) {
    hist.record((t0.elapsed().as_nanos() as u64).max(1));
}

/// Closed loop: keep `pipeline` requests outstanding; BUSY responses are
/// re-sent (new request id), so completed work is all-Ok.
fn closed_loop_conn(
    ep: &Endpoint,
    opts: &Opts,
    zipf: &Zipf,
    conn_idx: usize,
    deadline: Option<Instant>,
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut client = match connect(ep) {
        Ok(c) => c,
        Err(e) => {
            out.error = Some(format!("connect: {e}"));
            return out;
        }
    };
    let mut rng = StdRng::seed_from_u64(opts.seed ^ (conn_idx as u64).wrapping_mul(0x9E37));
    let mut pending: VecDeque<Instant> = VecDeque::with_capacity(opts.pipeline);
    let mut budget = opts.ops;
    let expired = |d: Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
    loop {
        while pending.len() < opts.pipeline && budget > 0 && !expired(deadline) {
            let key = zipf.sample(&mut rng);
            let (op, arg) = op_for(opts.workload, &mut rng);
            client.send(key, op, arg);
            pending.push_back(Instant::now());
            out.sent += 1;
            budget -= 1;
        }
        if pending.is_empty() {
            out.clean = true;
            break;
        }
        if let Err(e) = client.flush() {
            out.error = Some(format!("flush: {e}"));
            break;
        }
        match client.recv() {
            Ok(Some(resp)) => {
                let t0 = pending.pop_front().unwrap_or_else(Instant::now);
                match resp.status {
                    Status::Ok => {
                        out.acked += 1;
                        record_latency(&mut out.hist, t0);
                    }
                    Status::Busy => {
                        out.busy += 1;
                        budget += 1; // retry: the op never happened
                    }
                    Status::Closed => {
                        out.closed += 1;
                        budget = 0; // server is going away; just drain
                    }
                    Status::BadRequest | Status::Redirect | Status::Stale => out.rejected += 1,
                }
            }
            Ok(None) => {
                // Server FIN: everything it received is answered; the
                // still-pending tail was never admitted.
                out.clean = true;
                break;
            }
            Err(e) => {
                out.error = Some(format!("recv: {e}"));
                break;
            }
        }
    }
    out
}

/// One multiplexed connection's drive state inside a [`multi_conn_worker`].
struct MuxConn {
    client: NetClient,
    pending: VecDeque<Instant>,
    budget: u64,
    rng: StdRng,
    done: bool,
}

/// Closed loop over many connections in one thread: connect them all (so
/// every socket is concurrently established and registered server-side),
/// then round-robin — top up each connection's pipeline, reap one response
/// per visit. Blocking reads are safe because a visited connection always
/// has its pipeline in flight. This is how `--connections 10000` runs
/// without ten thousand client threads.
fn multi_conn_worker(
    ep: &Endpoint,
    opts: &Opts,
    zipf: &Zipf,
    first_idx: usize,
    count: usize,
    deadline: Option<Instant>,
) -> ConnResult {
    let mut out = ConnResult {
        clean: true,
        ..ConnResult::default()
    };
    let mut conns = Vec::with_capacity(count);
    let connect_deadline = Instant::now() + Duration::from_secs(30);
    for i in 0..count {
        // Under a mass connect the accept queue overflows transiently;
        // retry until the listener catches up.
        let client = loop {
            match connect(ep) {
                Ok(c) => break Ok(c),
                Err(e) if Instant::now() < connect_deadline => {
                    let transient = matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionRefused
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::AddrNotAvailable
                    );
                    if !transient {
                        break Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => break Err(e),
            }
        };
        match client {
            Ok(client) => conns.push(MuxConn {
                client,
                pending: VecDeque::with_capacity(opts.pipeline),
                budget: opts.ops,
                rng: StdRng::seed_from_u64(
                    opts.seed ^ ((first_idx + i) as u64).wrapping_mul(0x9E37),
                ),
                done: false,
            }),
            Err(e) => {
                out.error = Some(format!("connect ({} of {count}): {e}", i + 1));
                out.clean = false;
                return out;
            }
        }
    }
    let expired = |d: Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
    let mut live = conns.len();
    while live > 0 {
        for c in conns.iter_mut() {
            if c.done {
                continue;
            }
            while c.pending.len() < opts.pipeline && c.budget > 0 && !expired(deadline) {
                let key = zipf.sample(&mut c.rng);
                let (op, arg) = op_for(opts.workload, &mut c.rng);
                c.client.send(key, op, arg);
                c.pending.push_back(Instant::now());
                out.sent += 1;
                c.budget -= 1;
            }
            if c.pending.is_empty() {
                c.done = true;
                live -= 1;
                continue;
            }
            if let Err(e) = c.client.flush() {
                out.error.get_or_insert(format!("flush: {e}"));
                out.clean = false;
                c.done = true;
                live -= 1;
                continue;
            }
            match c.client.recv() {
                Ok(Some(resp)) => {
                    let t0 = c.pending.pop_front().unwrap_or_else(Instant::now);
                    match resp.status {
                        Status::Ok => {
                            out.acked += 1;
                            record_latency(&mut out.hist, t0);
                        }
                        Status::Busy => {
                            out.busy += 1;
                            c.budget += 1;
                        }
                        Status::Closed => {
                            out.closed += 1;
                            c.budget = 0;
                        }
                        Status::BadRequest | Status::Redirect | Status::Stale => out.rejected += 1,
                    }
                }
                Ok(None) => {
                    c.done = true;
                    live -= 1;
                }
                Err(e) => {
                    out.error.get_or_insert(format!("recv: {e}"));
                    out.clean = false;
                    c.done = true;
                    live -= 1;
                }
            }
        }
    }
    out
}

/// Open loop: a sender half fires on its own clock, a reaper half
/// timestamps acks; responses are FIFO so send-times pair positionally.
fn open_loop_conn(
    ep: &Endpoint,
    opts: &Opts,
    zipf: &Zipf,
    conn_idx: usize,
    period: Duration,
    deadline: Instant,
) -> ConnResult {
    let mut out = ConnResult::default();
    let client = match connect(ep) {
        Ok(c) => c,
        Err(e) => {
            out.error = Some(format!("connect: {e}"));
            return out;
        }
    };
    let (mut tx, mut rx) = match client.split() {
        Ok(halves) => halves,
        Err(e) => {
            out.error = Some(format!("split: {e}"));
            return out;
        }
    };
    let (ts_tx, ts_rx) = mpsc::channel::<Instant>();
    let reaper = std::thread::spawn(move || {
        let mut r = ConnResult::default();
        loop {
            match rx.recv() {
                Ok(Some(resp)) => {
                    let t0 = ts_rx.recv().unwrap_or_else(|_| Instant::now());
                    match resp.status {
                        Status::Ok => {
                            r.acked += 1;
                            record_latency(&mut r.hist, t0);
                        }
                        Status::Busy => r.busy += 1,
                        Status::Closed => r.closed += 1,
                        Status::BadRequest | Status::Redirect | Status::Stale => r.rejected += 1,
                    }
                }
                Ok(None) => {
                    r.clean = true;
                    break;
                }
                Err(e) => {
                    r.error = Some(format!("recv: {e}"));
                    break;
                }
            }
        }
        r
    });
    let mut rng = StdRng::seed_from_u64(opts.seed ^ (conn_idx as u64).wrapping_mul(0x9E37));
    let mut next = Instant::now();
    let mut budget = opts.ops;
    while budget > 0 && Instant::now() < deadline {
        let now = Instant::now();
        if now < next {
            std::thread::sleep(next - now);
        }
        next += period;
        let key = zipf.sample(&mut rng);
        let (op, arg) = op_for(opts.workload, &mut rng);
        tx.send(key, op, arg);
        let sent_at = Instant::now();
        if let Err(e) = tx.flush() {
            out.error = Some(format!("send: {e}"));
            break;
        }
        let _ = ts_tx.send(sent_at);
        out.sent += 1;
        budget -= 1;
    }
    tx.finish();
    drop(ts_tx);
    match reaper.join() {
        Ok(r) => {
            out.acked = r.acked;
            out.busy = r.busy;
            out.closed = r.closed;
            out.rejected = r.rejected;
            out.hist = r.hist;
            out.clean = r.clean && out.error.is_none();
            if out.error.is_none() {
                out.error = r.error;
            }
        }
        Err(_) => out.error = Some("reaper panicked".into()),
    }
    out
}

// ------------------------------------------------------------- the server

/// The service under test plus a way to recover its final state/stats.
enum Svc {
    Counter(Arc<ShardedCounter>),
    Kv(Arc<ShardedKvStore>),
    Apps(Arc<AppSuite>),
}

impl Svc {
    fn build(opts: &Opts, backend: Backend) -> Svc {
        let cfg = RuntimeConfig::new(opts.shards)
            .with_backend(backend)
            .with_queue_depth(opts.queue_depth)
            .with_submit(opts.policy)
            .with_max_sessions(opts.connections * 4 + 16);
        match opts.workload {
            Workload::Counter => Svc::Counter(Arc::new(ShardedCounter::new(cfg))),
            Workload::Kv => Svc::Kv(Arc::new(ShardedKvStore::new(cfg))),
            // App workloads run the refill timer so the wheel fires under
            // load, not just on session TTLs.
            _ => Svc::Apps(Arc::new(AppSuite::with_app_config(
                cfg,
                AppConfig {
                    refill_interval_ms: 10,
                    ..AppConfig::default()
                },
            ))),
        }
    }

    fn serve(&self, opts: &Opts) -> std::io::Result<(NetServer, Endpoint)> {
        let max_op = match opts.workload {
            Workload::Counter => keyed_counter_ops::GET as u8,
            Workload::Kv => kv_ops::SUB as u8,
            _ => (app_ops::OP_LIMIT - 1) as u8,
        };
        let cfg = ServerConfig::default().with_max_op(max_op);
        let builder = match self {
            Svc::Counter(svc) => NetServer::builder(svc.clone()),
            Svc::Kv(svc) => NetServer::builder(svc.clone()),
            Svc::Apps(svc) => NetServer::builder(svc.clone()),
        }
        .config(cfg);
        match &opts.uds {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                let server = builder.uds(path).start()?;
                Ok((server, Endpoint::Uds(path.clone())))
            }
            None => {
                let bind = opts.listen.as_deref().unwrap_or("127.0.0.1:0");
                let server = builder.tcp(bind)?.start()?;
                let addr = server.tcp_addrs()[0];
                Ok((server, Endpoint::Tcp(addr)))
            }
        }
    }

    /// Completed backend switches summed across shards (0 unless the
    /// runtime is adaptive and its controller actually swapped).
    fn switches(&self) -> u64 {
        match self {
            Svc::Counter(svc) => (0..svc.shards()).map(|s| svc.swap_epoch(s)).sum(),
            Svc::Kv(svc) => (0..svc.shards()).map(|s| svc.swap_epoch(s)).sum(),
            Svc::Apps(svc) => (0..svc.shards()).map(|s| svc.swap_epoch(s)).sum(),
        }
    }

    /// Consumes the service (the server must be shut down first so its
    /// `Arc` clone is gone) and returns final state + stats. The app suite
    /// reports no per-key map here (its totals come via [`Svc::finish_apps`]).
    fn finish(self) -> (std::collections::HashMap<u64, u64>, RuntimeStats) {
        match self {
            Svc::Counter(svc) => match Arc::try_unwrap(svc) {
                Ok(svc) => svc.shutdown(),
                Err(_) => panic!("service still shared after server shutdown"),
            },
            Svc::Kv(svc) => match Arc::try_unwrap(svc) {
                Ok(svc) => svc.shutdown(),
                Err(_) => panic!("service still shared after server shutdown"),
            },
            Svc::Apps(svc) => match Arc::try_unwrap(svc) {
                Ok(svc) => {
                    let (_totals, stats) = svc.shutdown();
                    (std::collections::HashMap::new(), stats)
                }
                Err(_) => panic!("service still shared after server shutdown"),
            },
        }
    }

    /// App-suite variant of [`Svc::finish`]: recovers the cross-shard
    /// [`mpsync_apps::AppTotals`] the smoke's invariants are written against.
    fn finish_apps(self) -> (mpsync_apps::AppTotals, RuntimeStats) {
        match self {
            Svc::Apps(svc) => match Arc::try_unwrap(svc) {
                Ok(svc) => svc.shutdown(),
                Err(_) => panic!("service still shared after server shutdown"),
            },
            _ => panic!("finish_apps on a non-app service"),
        }
    }
}

// --------------------------------------------------------------- reporting

fn hist_json(h: &Log2Hist) -> String {
    format!(
        "{{ \"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"mean\": {:.1} }}",
        h.count(),
        h.p50(),
        h.p95(),
        h.p99(),
        h.max(),
        h.mean()
    )
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

// -------------------------------------------------------------- benchmark

/// One benchmark run's reportable numbers, kept for the sweep.
#[derive(Clone)]
struct BenchRow {
    backend: &'static str,
    acked: u64,
    throughput: f64,
    p50_ns: u64,
    p99_ns: u64,
    /// Backend switches completed server-side during the run (adaptive
    /// runtimes only; 0 when the server is remote or the backend fixed).
    switches: u64,
}

fn run_bench(opts: &Opts, backend: Backend) -> Result<BenchRow, String> {
    // `--connect`: the server lives in another process; drive it blind.
    let (host, ep) = match opts.connect {
        Some(addr) => (None, Endpoint::Tcp(addr)),
        None => {
            let svc = Svc::build(opts, backend);
            let (server, ep) = svc
                .serve(opts)
                .map_err(|e| format!("{}: server start: {e}", backend.label()))?;
            (Some((server, svc)), ep)
        }
    };
    let zipf = Arc::new(Zipf::new(opts.keys, opts.theta));
    let deadline = opts.duration.map(|d| Instant::now() + d);
    let t_start = Instant::now();
    let mut workers = Vec::new();
    if opts.conn_workers > 0 {
        // Multiplexed clients: split the connections across the workers.
        let n = opts.conn_workers.min(opts.connections);
        let per = opts.connections / n;
        let extra = opts.connections % n;
        let mut first = 0usize;
        for w in 0..n {
            let count = per + usize::from(w < extra);
            let ep = ep.clone();
            let opts = opts.clone();
            let zipf = Arc::clone(&zipf);
            workers.push(std::thread::spawn(move || {
                multi_conn_worker(&ep, &opts, &zipf, first, count, deadline)
            }));
            first += count;
        }
    } else {
        for i in 0..opts.connections {
            let ep = ep.clone();
            let opts = opts.clone();
            let zipf = Arc::clone(&zipf);
            workers.push(std::thread::spawn(move || match opts.rate {
                None => closed_loop_conn(&ep, &opts, &zipf, i, deadline),
                Some(rate) => {
                    let per_conn = (rate / opts.connections as u64).max(1);
                    let period = Duration::from_nanos(1_000_000_000 / per_conn);
                    let dl = deadline.unwrap_or_else(|| Instant::now() + Duration::from_secs(2));
                    open_loop_conn(&ep, &opts, &zipf, i, period, dl)
                }
            }));
        }
    }
    let mut total = ConnResult::default();
    let mut all_clean = true;
    for w in workers {
        match w.join() {
            Ok(r) => {
                total.sent += r.sent;
                total.acked += r.acked;
                total.busy += r.busy;
                total.closed += r.closed;
                total.rejected += r.rejected;
                total.hist.merge(&r.hist);
                all_clean &= r.clean;
                if let Some(e) = r.error {
                    all_clean = false;
                    eprintln!("{}: worker error: {e}", backend.label());
                }
            }
            Err(_) => {
                all_clean = false;
                eprintln!("{}: worker panicked", backend.label());
            }
        }
    }
    let elapsed = t_start.elapsed();
    let finished = host.map(|(server, svc)| {
        let report = server.shutdown();
        let switches = svc.switches();
        let (_state, stats) = svc.finish();
        (report, stats, switches)
    });
    let thrpt = total.acked as f64 / elapsed.as_secs_f64().max(1e-9);
    let loop_kind = if opts.rate.is_some() {
        "open"
    } else {
        "closed"
    };
    if opts.json {
        let server_json = match &finished {
            Some((report, stats, _)) => format!(
                "\"server\": {{ \"connections\": {}, \"requests\": {}, \"acked\": {}, \
                 \"busy\": {}, \"disconnects\": {}, \"drained\": {} }}, \"runtime\": {}",
                report.connections,
                report.requests,
                report.acked,
                report.busy,
                report.disconnects,
                report.drained,
                stats.to_json().replace('\n', " "),
            ),
            None => "\"server\": null".into(),
        };
        println!(
            "{{ \"backend\": \"{}\", \"loop\": \"{}\", \"connections\": {}, \
             \"pipeline\": {}, \
             \"theta\": {}, \"keys\": {}, \"sent\": {}, \"acked\": {}, \"busy\": {}, \
             \"rejected\": {}, \"elapsed_s\": {:.3}, \"throughput_ops_s\": {:.0}, \
             \"latency_ns\": {}, {server_json} }}",
            backend.label(),
            loop_kind,
            opts.connections,
            opts.pipeline,
            opts.theta,
            opts.keys,
            total.sent,
            total.acked,
            total.busy,
            total.rejected,
            elapsed.as_secs_f64(),
            thrpt,
            hist_json(&total.hist),
        );
    } else {
        println!(
            "{:<10} {loop_kind}-loop conns={} pipeline={} theta={} | acked {} / sent {} (busy {}) in {:.2}s = {:.0} ops/s",
            backend.label(),
            opts.connections,
            opts.pipeline,
            opts.theta,
            total.acked,
            total.sent,
            total.busy,
            elapsed.as_secs_f64(),
            thrpt
        );
        println!(
            "           latency µs: p50={:.1} p95={:.1} p99={:.1} max={:.1} mean={:.1}",
            us(total.hist.p50()),
            us(total.hist.p95()),
            us(total.hist.p99()),
            us(total.hist.max()),
            us(total.hist.mean() as u64)
        );
        if let Some((report, stats, _)) = &finished {
            println!(
                "           server: {report}           avg_batch={:.2}",
                stats.avg_batch()
            );
        }
    }
    if !all_clean {
        return Err(format!(
            "{}: connections did not end cleanly",
            backend.label()
        ));
    }
    Ok(BenchRow {
        backend: backend.label(),
        acked: total.acked,
        throughput: thrpt,
        p50_ns: total.hist.p50(),
        p99_ns: total.hist.p99(),
        switches: finished.as_ref().map_or(0, |(_, _, s)| *s),
    })
}

// ------------------------------------------------------------ serve-only

/// `--listen`: serve-only process. Starts the server on the given address,
/// prints it, then blocks until stdin reaches EOF — the driving script
/// closing the pipe is the shutdown signal. Exit 0 iff startup and the
/// graceful drain both succeed.
fn run_listen(opts: &Opts, backend: Backend) -> Result<(), String> {
    let svc = Svc::build(opts, backend);
    let (server, ep) = svc.serve(opts).map_err(|e| format!("server start: {e}"))?;
    match &ep {
        Endpoint::Tcp(addr) => println!("listening on {addr} ({})", backend.label()),
        Endpoint::Uds(path) => {
            println!("listening on {} ({})", path.display(), backend.label())
        }
    }
    let mut sink = String::new();
    loop {
        sink.clear();
        match std::io::stdin().read_line(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("stdin: {e}")),
        }
    }
    let report = server.shutdown();
    let (_state, stats) = svc.finish();
    println!(
        "server: {report}           avg_batch={:.2}",
        stats.avg_batch()
    );
    Ok(())
}

// ------------------------------------------------------------------ smoke

/// The CI scenario: steady pipelined counter streams + churn connections
/// that vanish mid-flight + a graceful shutdown under load, then end-state
/// verification of the exactly-once-for-acked contract.
fn run_smoke(opts: &Opts, backend: Backend) -> Result<(), String> {
    let tag = format!("smoke {}", backend.label());
    let fail = |msg: String| Err(format!("[{tag}] {msg}"));
    let mut opts = opts.clone();
    opts.workload = Workload::Counter;
    opts.policy = SubmitPolicy::Block;
    let svc = Svc::build(&opts, backend);
    let (server, ep) = svc.serve(&opts).map_err(|e| format!("server start: {e}"))?;

    const STEADY: usize = 4;
    const CHURN: usize = 2;
    let stop = Arc::new(AtomicBool::new(false));

    // Steady streams: INC a private key with a full pipeline until the
    // server says goodbye; remember every pre-value the acks carried.
    let mut steady = Vec::new();
    for i in 0..STEADY {
        let ep = ep.clone();
        let stop = Arc::clone(&stop);
        let pipeline = opts.pipeline.max(8);
        steady.push(std::thread::spawn(
            move || -> Result<(u64, u64, Vec<u64>), String> {
                let key = 10 + i as u64;
                let mut client = connect(&ep).map_err(|e| format!("connect: {e}"))?;
                let mut sent = 0u64;
                let mut pres = Vec::new();
                let mut pending = 0usize;
                loop {
                    while pending < pipeline && !stop.load(Ordering::Relaxed) {
                        client.send(key, keyed_counter_ops::INC as u8, 0);
                        sent += 1;
                        pending += 1;
                    }
                    if pending == 0 {
                        break;
                    }
                    client.flush().map_err(|e| format!("flush: {e}"))?;
                    match client.recv() {
                        Ok(Some(resp)) => {
                            pending -= 1;
                            match resp.status {
                                Status::Ok => pres.push(resp.value),
                                Status::Closed => {}
                                s => return Err(format!("unexpected status {s:?}")),
                            }
                        }
                        Ok(None) => break, // clean FIN after drain
                        Err(e) => return Err(format!("recv: {e}")),
                    }
                }
                Ok((key, sent, pres))
            },
        ));
    }

    // Churn connections: fire a burst at a private key, read only a few
    // acks, then drop the socket with responses still in flight.
    let mut churn = Vec::new();
    for i in 0..CHURN {
        let ep = ep.clone();
        churn.push(std::thread::spawn(
            move || -> Result<(u64, u64, Vec<u64>), String> {
                let key = 1000 + i as u64;
                let mut client = connect(&ep).map_err(|e| format!("connect: {e}"))?;
                let burst = 50u64;
                for _ in 0..burst {
                    client.send(key, keyed_counter_ops::INC as u8, 0);
                }
                client.flush().map_err(|e| format!("flush: {e}"))?;
                let mut pres = Vec::new();
                for _ in 0..10 {
                    match client.recv() {
                        Ok(Some(resp)) if resp.status == Status::Ok => pres.push(resp.value),
                        Ok(_) => break,
                        Err(e) => return Err(format!("recv: {e}")),
                    }
                }
                drop(client); // forced mid-run disconnect, acks in flight
                Ok((key, burst, pres))
            },
        ));
    }

    // Let traffic build, then scrape the admin endpoint *mid-run* — the
    // stats plane must answer on the same listener while data-plane
    // requests are in flight — and only then shut down gracefully.
    let runtime_cap = opts
        .duration
        .unwrap_or(Duration::from_millis(400))
        .max(Duration::from_millis(100));
    std::thread::sleep(runtime_cap);
    let snap = {
        let admin = match &ep {
            Endpoint::Tcp(addr) => AdminClient::connect_tcp(addr),
            Endpoint::Uds(path) => AdminClient::connect_uds(path),
        };
        let mut admin = admin.map_err(|e| format!("[{tag}] admin connect: {e}"))?;
        let _ = admin.set_read_timeout(Some(Duration::from_secs(2)));
        admin
            .fetch_snapshot()
            .map_err(|e| format!("[{tag}] admin fetch: {e}"))?
    };
    for needle in [
        &format!("\"version\": {STAT_SNAPSHOT_VERSION}") as &str,
        "\"source\": \"net\"",
        "\"server\"",
        "\"telemetry\"",
        "\"flight\"",
    ] {
        if !snap.contains(needle) {
            return fail(format!("admin snapshot missing {needle:?}: {snap}"));
        }
    }
    // The scrape races the load, but by now the steady streams have been
    // running for `runtime_cap`; a snapshot showing zero accepted
    // connections means the stats plane is lying.
    let conns_seen = snap
        .find("\"connections\":")
        .and_then(|i| {
            let rest = snap["\"connections\":".len() + i..].trim_start();
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse::<u64>().ok()
        })
        .unwrap_or(0);
    if conns_seen == 0 {
        return fail(format!("mid-run snapshot reports no connections: {snap}"));
    }
    println!("[{tag}] ADMIN OK ({conns_seen} conns in mid-run snapshot)");
    stop.store(true, Ordering::Relaxed);
    let report = server.shutdown();

    let mut results = Vec::new();
    for (label, handles) in [("steady", steady), ("churn", churn)] {
        for h in handles {
            match h.join() {
                Ok(Ok(r)) => results.push((label, r)),
                Ok(Err(e)) => return fail(format!("{label} conn failed: {e}")),
                Err(_) => return fail(format!("{label} conn panicked")),
            }
        }
    }

    let (final_counts, _stats) = svc.finish();

    // Invariants: for every key, acked increments carried distinct,
    // strictly increasing pre-values; max(pre)+1 ≤ final ≤ sent. Together:
    // no acked op was lost, none was applied twice.
    let mut total_acked = 0u64;
    for (label, (key, sent, pres)) in &results {
        total_acked += pres.len() as u64;
        let fin = *final_counts.get(key).unwrap_or(&0);
        for w in pres.windows(2) {
            if w[1] <= w[0] {
                return fail(format!(
                    "key {key} ({label}): pre-values not strictly increasing ({} then {})",
                    w[0], w[1]
                ));
            }
        }
        if let Some(&max_pre) = pres.last() {
            if max_pre + 1 > fin {
                return fail(format!(
                    "key {key} ({label}): acked pre-value {max_pre} but final count {fin} (lost acked op)"
                ));
            }
        }
        if fin > *sent {
            return fail(format!(
                "key {key} ({label}): final {fin} > sent {sent} (duplicated op)"
            ));
        }
        if (pres.len() as u64) > fin {
            return fail(format!(
                "key {key} ({label}): {} acks but final {fin}",
                pres.len()
            ));
        }
    }
    // +1: the mid-run admin scrape is an ordinary accepted connection.
    if report.connections != (STEADY + CHURN + 1) as u64 {
        return fail(format!(
            "expected {} connections, server saw {}",
            STEADY + CHURN + 1,
            report.connections
        ));
    }
    if total_acked == 0 {
        return fail("no op was ever acked — smoke did no work".into());
    }
    println!(
        "[{tag}] ok: {total_acked} acked ops verified exactly-once across {} conns ({} churned); server: {report}",
        STEADY + CHURN,
        CHURN
    );
    Ok(())
}

// -------------------------------------------------------------- apps smoke

/// One synchronous request/response on a dedicated connection. With
/// `SubmitPolicy::Block` every data-plane answer is `Ok`; anything else is
/// a smoke failure.
fn rpc(client: &mut NetClient, key: u64, op: u64, arg: u64) -> Result<u64, String> {
    client.send(key, op as u8, arg);
    client.flush().map_err(|e| format!("flush: {e}"))?;
    match client.recv() {
        Ok(Some(resp)) => match resp.status {
            Status::Ok => Ok(resp.value),
            s => Err(format!("key {key} op {op}: unexpected status {s:?}")),
        },
        Ok(None) => Err(format!("key {key} op {op}: connection closed")),
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// Sentinel the app dispatcher returns for "absent" (`mpsync_objects::EMPTY`).
const APPS_EMPTY: u64 = u64::MAX;

/// Keys the apps smoke reserves for its deterministic checks; background
/// noise runs at `NOISE_BASE +` so the invariants stay exact.
const LEDGER_KEYS: std::ops::Range<u64> = 100..108;
const SESSION_KEYS: std::ops::Range<u64> = 200..210;
const IMMORTAL_KEY: u64 = 250;
const PQ_KEY: u64 = 300;
const RATE_KEY: u64 = 400;
const BOARD_KEYS: std::ops::Range<u64> = 500..520;
const NOISE_BASE: u64 = 10_000;

/// The apps CI scenario: every application band verified over the wire on
/// one live server, with background noise keeping the combiners and the
/// per-shard timer wheels busy throughout.
///
/// * ledger — two-phase transfers between 8 accounts; conservation and
///   zero residual holds, cross-checked against the shutdown totals;
/// * sessions — TTL'd puts must be served before their deadline and
///   **never after**, immortal entries survive;
/// * priority queue — push/pop exactly-once, priority order, FIFO ties;
/// * rate limiter — capacity clamp, deny-leaves-no-trace, timer refill;
/// * leaderboard — client-side top-K merge over per-shard rank reads.
fn run_apps_smoke(opts: &Opts, backend: Backend) -> Result<(), String> {
    let tag = format!("apps-smoke {}", backend.label());
    let fail = |msg: String| Err(format!("[{tag}] {msg}"));
    let mut opts = opts.clone();
    opts.workload = Workload::Mixed;
    opts.policy = SubmitPolicy::Block;
    let shards = opts.shards;
    let svc = Svc::build(&opts, backend);
    let (server, ep) = svc.serve(&opts).map_err(|e| format!("server start: {e}"))?;

    // Background noise: rate-limiter, pq, and session traffic on a
    // disjoint keyspace (the ledger and leaderboard stay untouched so the
    // conservation and top-K invariants below are exact). Session puts
    // carry live TTLs, so the timer wheels stay armed under real load.
    let stop = Arc::new(AtomicBool::new(false));
    let mut noise = Vec::new();
    for n in 0..2usize {
        let ep = ep.clone();
        let stop = Arc::clone(&stop);
        let (keys, theta, seed) = (opts.keys, opts.theta, opts.seed);
        noise.push(std::thread::spawn(move || -> Result<u64, String> {
            let zipf = Zipf::new(keys, theta);
            let mut rng = StdRng::seed_from_u64(seed ^ (n as u64 + 1).wrapping_mul(0xA51));
            let mut client = connect(&ep).map_err(|e| format!("noise connect: {e}"))?;
            let mut acked = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let w = match rng.gen_range(0u32..3) {
                    0 => Workload::Ratelimit,
                    1 => Workload::Pq,
                    _ => Workload::Session,
                };
                let (op, arg) = op_for(w, &mut rng);
                let key = NOISE_BASE + zipf.sample(&mut rng);
                rpc(&mut client, key, op as u64, arg).map_err(|e| format!("noise rpc: {e}"))?;
                acked += 1;
            }
            Ok(acked)
        }));
    }

    let mut c = connect(&ep).map_err(|e| format!("connect: {e}"))?;
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // --- ledger: seed 8 accounts, then two-phase transfers between them.
    const SEED_FUNDS: u64 = 1_000;
    let total_funds = SEED_FUNDS * (LEDGER_KEYS.end - LEDGER_KEYS.start);
    for key in LEDGER_KEYS {
        let bal = rpc(&mut c, key, app_ops::LG_DEPOSIT, SEED_FUNDS)?;
        if bal != SEED_FUNDS {
            return fail(format!("account {key} seeded to {bal}, want {SEED_FUNDS}"));
        }
    }
    let (mut commits, mut aborts) = (0u64, 0u64);
    for _ in 0..300 {
        let from = rng.gen_range(LEDGER_KEYS.start..LEDGER_KEYS.end);
        let mut to = rng.gen_range(LEDGER_KEYS.start..LEDGER_KEYS.end);
        if to == from {
            to = LEDGER_KEYS.start
                + (to + 1 - LEDGER_KEYS.start) % (LEDGER_KEYS.end - LEDGER_KEYS.start);
        }
        // Occasionally over-draw so the abort path runs too.
        let amount = if rng.gen_bool(0.05) {
            total_funds + 1
        } else {
            rng.gen_range(1u64..50)
        };
        if rpc(&mut c, from, app_ops::LG_RESERVE, amount)? == 1 {
            if rpc(&mut c, from, app_ops::LG_COMMIT, amount)? != 1 {
                return fail(format!("commit of reserved {amount} on {from} refused"));
            }
            rpc(&mut c, to, app_ops::LG_DEPOSIT, amount)?;
            commits += 1;
        } else {
            aborts += 1;
        }
    }
    let (mut sum_avail, mut sum_held) = (0u64, 0u64);
    for key in LEDGER_KEYS {
        sum_avail += rpc(&mut c, key, app_ops::LG_BALANCE, 0)?;
        sum_held += rpc(&mut c, key, app_ops::LG_HELD, 0)?;
    }
    if sum_held != 0 {
        return fail(format!("residual holds after transfers: {sum_held}"));
    }
    if sum_avail != total_funds {
        return fail(format!(
            "ledger lost money: {sum_avail} available, want {total_funds} \
             ({commits} commits, {aborts} aborts)"
        ));
    }

    // --- sessions: a TTL'd put is served before its deadline, never after.
    const TTL_MS: u64 = 100;
    let mut deadlines = Vec::new(); // earliest possible server-side deadline
    for key in SESSION_KEYS {
        let t_send = Instant::now();
        let old = rpc(
            &mut c,
            key,
            app_ops::SS_PUT,
            pack_put(7_000 + key as u32, TTL_MS as u32),
        )?;
        if old != APPS_EMPTY {
            return fail(format!("fresh session {key} replaced value {old}"));
        }
        deadlines.push((key, t_send + Duration::from_millis(TTL_MS)));
    }
    if rpc(&mut c, IMMORTAL_KEY, app_ops::SS_PUT, pack_put(9_999, 0))? != APPS_EMPTY {
        return fail("immortal session key already occupied".into());
    }
    // Immediate reads: any GET answered before the earliest possible
    // deadline must still see the value.
    for &(key, deadline) in &deadlines {
        let v = rpc(&mut c, key, app_ops::SS_GET, 0)?;
        if Instant::now() < deadline && v != 7_000 + key {
            return fail(format!("live session {key} read {v}, want {}", 7_000 + key));
        }
    }
    // Wait out every deadline (+ slack for the server's later clock read),
    // then a GET *sent* past the deadline must never be served: the
    // dispatcher re-checks the deadline even if the timer sweep is late.
    let latest = deadlines.iter().map(|&(_, d)| d).max().unwrap();
    let wait = (latest + Duration::from_millis(50)).saturating_duration_since(Instant::now());
    std::thread::sleep(wait);
    for &(key, _) in &deadlines {
        let v = rpc(&mut c, key, app_ops::SS_GET, 0)?;
        if v != APPS_EMPTY {
            return fail(format!("expired session {key} served value {v}"));
        }
    }
    if rpc(&mut c, IMMORTAL_KEY, app_ops::SS_GET, 0)? != 9_999 {
        return fail("immortal session lost".into());
    }

    // --- priority queue: exactly-once, priority order, FIFO within ties.
    const TASKS: u32 = 200;
    for i in 0..TASKS {
        rpc(
            &mut c,
            PQ_KEY,
            app_ops::PQ_PUSH,
            pack_task(i % 8, 1_000 + i),
        )?;
    }
    if rpc(&mut c, PQ_KEY, app_ops::PQ_LEN, 0)? != TASKS as u64 {
        return fail("pq length after pushes wrong".into());
    }
    let mut popped = Vec::new();
    loop {
        let v = rpc(&mut c, PQ_KEY, app_ops::PQ_POP, 0)?;
        if v == APPS_EMPTY {
            break;
        }
        popped.push(unpack_task(v));
    }
    if popped.len() != TASKS as usize {
        return fail(format!("popped {} tasks, pushed {TASKS}", popped.len()));
    }
    for pair in popped.windows(2) {
        let ((p0, i0), (p1, i1)) = (pair[0], pair[1]);
        if p1 < p0 || (p1 == p0 && i1 <= i0) {
            return fail(format!("pop order broken: ({p0},{i0}) then ({p1},{i1})"));
        }
    }
    let mut items: Vec<u32> = popped.iter().map(|&(_, i)| i).collect();
    items.sort_unstable();
    if items != (1_000..1_000 + TASKS).collect::<Vec<_>>() {
        return fail("pq pop set differs from push set".into());
    }

    // --- rate limiter: clamp, deny-without-draining, timer refill.
    let cap = AppConfig::default().bucket_capacity;
    if rpc(&mut c, RATE_KEY, app_ops::RL_ACQUIRE, cap + 1)? != 0 {
        return fail("over-capacity acquire granted".into());
    }
    let peek = rpc(&mut c, RATE_KEY, app_ops::RL_PEEK, 0)?;
    if peek != cap {
        return fail(format!(
            "denied acquire drained tokens: peek {peek}, want {cap}"
        ));
    }
    let t0 = Instant::now();
    let mut granted = 0u64;
    for _ in 0..2 * cap {
        granted += rpc(&mut c, RATE_KEY, app_ops::RL_ACQUIRE, 1)?;
    }
    let refill_bound =
        AppConfig::default().refill_amount * (t0.elapsed().as_millis() as u64 / 10 + 2);
    if granted < cap || granted > cap + refill_bound {
        return fail(format!(
            "granted {granted} of a cap-{cap} bucket (refill bound {refill_bound})"
        ));
    }
    // Drained (modulo refills); after a couple of refill periods the
    // timer must have topped the bucket back up.
    std::thread::sleep(Duration::from_millis(30));
    let mut refilled = false;
    for _ in 0..5 {
        if rpc(&mut c, RATE_KEY, app_ops::RL_ACQUIRE, 1)? == 1 {
            refilled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    if !refilled {
        return fail("timer refill never topped the bucket up".into());
    }

    // --- leaderboard: per-shard rank reads merged client-side.
    for m in BOARD_KEYS {
        let score = (m - BOARD_KEYS.start + 1) * 10;
        if rpc(&mut c, m, app_ops::LB_ADD, score)? != score {
            return fail(format!("board add for {m} returned wrong score"));
        }
    }
    let mut merged = Vec::new();
    for shard in 0..shards {
        let probe = probe_key(shard, shards);
        for rank in 0..3u64 {
            let member = rpc(&mut c, probe, app_ops::LB_NTH, rank)?;
            if member == APPS_EMPTY {
                break;
            }
            let score = rpc(&mut c, member, app_ops::LB_GET, 0)?;
            merged.push((score, member));
        }
    }
    merged.sort_unstable_by(|a, b| b.cmp(a));
    merged.truncate(3);
    let want: Vec<(u64, u64)> = (0..3)
        .map(|i| (200 - 10 * i, BOARD_KEYS.end - 1 - i))
        .collect();
    if merged != want {
        return fail(format!("top-3 merge {merged:?}, want {want:?}"));
    }
    let count_ge: u64 = (0..shards)
        .map(|s| rpc(&mut c, probe_key(s, shards), app_ops::LB_COUNT_GE, 195))
        .sum::<Result<u64, _>>()?;
    if count_ge != 1 {
        return fail(format!("count_ge(195) = {count_ge}, want 1"));
    }

    // --- wind down: noise must have run clean, totals must agree with
    // what the wire saw.
    stop.store(true, Ordering::Relaxed);
    let mut noise_acked = 0u64;
    for h in noise {
        match h.join() {
            Ok(Ok(n)) => noise_acked += n,
            Ok(Err(e)) => return fail(format!("noise conn: {e}")),
            Err(_) => return fail("noise conn panicked".into()),
        }
    }
    if noise_acked == 0 {
        return fail("background noise did no work".into());
    }
    let report = server.shutdown();
    let (totals, _stats) = svc.finish_apps();
    if totals.ledger_available != total_funds || totals.ledger_held != 0 {
        return fail(format!(
            "shutdown totals disagree with the wire: {} available / {} held, want {total_funds}/0",
            totals.ledger_available, totals.ledger_held
        ));
    }
    if totals.board_members as u64 != BOARD_KEYS.end - BOARD_KEYS.start {
        return fail(format!(
            "board members at shutdown: {}, want {}",
            totals.board_members,
            BOARD_KEYS.end - BOARD_KEYS.start
        ));
    }
    if totals.sessions_live == 0 {
        return fail("immortal session missing from shutdown totals".into());
    }
    println!(
        "[{tag}] APPS OK: {commits} transfers committed / {aborts} aborted, \
         {TASKS} pq tasks exactly-once, {} sessions expired on time, \
         {noise_acked} noise ops; server: {report}",
        SESSION_KEYS.end - SESSION_KEYS.start
    );
    Ok(())
}

// --------------------------------------------------------- adaptive sweep

/// The contention ladder behind `BENCH_adaptive.json`: closed loop, counter
/// workload, 2 shards — only offered load and key skew move.
/// Ops-per-connection shrinks as connections grow so every cell costs
/// similar wall-clock. Fields: (name, connections, pipeline, keys, theta,
/// ops per connection).
const SWEEP_LEVELS: [(&str, usize, usize, u64, f64, u64); 5] = [
    ("single", 1, 1, 1024, 0.0, 20000),
    ("light", 2, 2, 1024, 0.0, 12000),
    ("moderate", 8, 4, 256, 0.99, 6000),
    ("heavy", 16, 8, 64, 1.2, 4000),
    ("hot-key", 16, 8, 1, 0.0, 4000),
];

/// Trials per (level, backend) cell; the best (max-throughput) trial is
/// kept. Trials interleave across backends so a host-noise burst degrades
/// every backend's trial alike instead of poisoning one side of the
/// comparison.
const SWEEP_TRIALS: usize = 4;

/// With `--gate`: measurement passes a level gets before the miss counts.
/// On a single shared core every backend's hot-key distribution is bimodal
/// (an MCS holder preempted mid-critical-section convoys the whole run),
/// so one unlucky best-of-N is noise, not a regression; attempts accumulate
/// into the same best-of, for every backend alike, so retrying never
/// favors one side.
const SWEEP_ATTEMPTS: usize = 3;

/// `--adaptive-sweep`: every fixed backend and ADAPTIVE across the
/// contention ladder, written to `BENCH_adaptive.json`. With `--gate`,
/// checks the adaptive acceptance bar: within 10% of the best fixed
/// backend at every level, and strictly ahead of at least one fixed
/// backend at both ends of the ladder (the whole point of switching is
/// that no single fixed backend wins both extremes).
fn run_adaptive_sweep(opts: &Opts) -> Result<(), String> {
    let path = &opts.bench_json;
    // The fixed backends ADAPTIVE is judged against are its three modes.
    let backends: Vec<Backend> = Backend::ALL
        .into_iter()
        .chain([Backend::Adaptive])
        .collect();
    let mut levels: Vec<(&'static str, Vec<BenchRow>)> = Vec::new();
    for &(name, conns, pipeline, keys, theta, ops) in &SWEEP_LEVELS {
        // Pinned like the regression suite: nothing taken from the CLI, so
        // successive reports compare.
        let level = Opts {
            shards: 2,
            connections: conns,
            pipeline,
            keys,
            theta,
            ops,
            seed: 42,
            ..Opts::default()
        };
        let mut best: Vec<Option<BenchRow>> = backends.iter().map(|_| None).collect();
        let li = levels.len();
        let attempts = if opts.gate { SWEEP_ATTEMPTS } else { 1 };
        for attempt in 0..attempts {
            for _trial in 0..SWEEP_TRIALS {
                for (bi, &backend) in backends.iter().enumerate() {
                    let row = run_bench(&level, backend)?;
                    if best[bi]
                        .as_ref()
                        .is_none_or(|b| row.throughput > b.throughput)
                    {
                        best[bi] = Some(row);
                    }
                }
            }
            if !opts.gate || attempt + 1 == attempts {
                break;
            }
            let rows: Vec<BenchRow> = best.iter().flatten().cloned().collect();
            match gate_level(li, name, &rows) {
                Ok(_) => break,
                Err(e) => eprintln!(
                    "netbench: {e} (attempt {}/{SWEEP_ATTEMPTS}); re-measuring the level",
                    attempt + 1
                ),
            }
        }
        levels.push((name, best.into_iter().flatten().collect()));
    }
    let mut json = format!(
        "{{\n  \"bench\": \"netbench-adaptive-sweep\",\n  \"git_rev\": {:?},\n  \
         \"hostname\": {:?},\n  \"scenario\": {{ \"model\": \"thread\", \"loop\": \"closed\", \
         \"shards\": 2, \"trials\": {SWEEP_TRIALS}, \"seed\": 42 }},\n  \"levels\": [\n",
        mpsync_telemetry::meta::git_revision(),
        mpsync_telemetry::meta::hostname(),
    );
    for (li, (name, rows)) in levels.iter().enumerate() {
        let (_, conns, pipeline, keys, theta, ops) = SWEEP_LEVELS[li];
        json.push_str(&format!(
            "    {{ \"level\": \"{name}\", \"connections\": {conns}, \"pipeline\": {pipeline}, \
             \"keys\": {keys}, \"theta\": {theta}, \"ops_per_conn\": {ops}, \"rows\": [\n"
        ));
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "      {{ \"backend\": \"{}\", \"acked\": {}, \"throughput_ops_s\": {:.0}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"switches\": {} }}{}\n",
                r.backend,
                r.acked,
                r.throughput,
                r.p50_ns,
                r.p99_ns,
                r.switches,
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
        json.push_str(&format!(
            "    ] }}{}\n",
            if li + 1 < levels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("adaptive sweep written to {}", path.display());
    if opts.gate {
        for (li, (name, rows)) in levels.iter().enumerate() {
            println!("{}", gate_level(li, name, rows)?);
        }
    }
    Ok(())
}

/// Check one sweep level against the adaptive acceptance bar; returns the
/// `gate ok` report line, or the failure description. Self-normalized:
/// every number comes from this host in this run, so host speed cancels
/// out of every ratio.
fn gate_level(li: usize, name: &str, rows: &[BenchRow]) -> Result<String, String> {
    let adaptive = rows
        .iter()
        .find(|r| r.backend == "adaptive")
        .ok_or("gate: sweep missing an adaptive row")?;
    let fixed: Vec<&BenchRow> = rows.iter().filter(|r| r.backend != "adaptive").collect();
    if fixed.len() != Backend::ALL.len() {
        return Err(format!("gate: level {name:?} missing fixed-backend rows"));
    }
    let best = fixed.iter().map(|r| r.throughput).fold(0.0f64, f64::max);
    if adaptive.throughput < best * 0.90 {
        return Err(format!(
            "gate: level {name:?}: adaptive {:.0} ops/s trails the best fixed \
             backend ({:.0} ops/s) by more than 10%",
            adaptive.throughput, best
        ));
    }
    let extreme = li == 0 || li + 1 == SWEEP_LEVELS.len();
    if extreme && !fixed.iter().any(|r| adaptive.throughput > r.throughput) {
        return Err(format!(
            "gate: extreme level {name:?}: adaptive {:.0} ops/s beats no fixed backend",
            adaptive.throughput
        ));
    }
    Ok(format!(
        "gate ok: {name}: adaptive {:.0} ops/s vs best fixed {:.0} ops/s ({} switches)",
        adaptive.throughput, best, adaptive.switches
    ))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("netbench: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.adaptive_sweep {
        return match run_adaptive_sweep(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("netbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if opts.listen.is_some() {
        return match run_listen(&opts, opts.backends[0]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("netbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut failed = false;
    for &backend in &opts.backends {
        let res = if opts.smoke && opts.workload.is_app() {
            run_apps_smoke(&opts, backend)
        } else if opts.smoke {
            run_smoke(&opts, backend)
        } else {
            run_bench(&opts, backend).map(|_| ())
        };
        if let Err(e) = res {
            eprintln!("netbench: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
