//! The serial ladder: one op's time, attributed to each layer from outside.
//!
//! One caller thread issues the same fetch-add through each layer's public
//! entry point, one rung at a time: a udn round trip, `ApplyOp::apply`,
//! `Session::submit`, `NetClient::call`, `ClusterClient::call`. Each rung
//! encloses the one above it, so a layer's **self time** is its rung minus
//! the enclosed rung — the outside-only form of "span minus child spans" —
//! and the self times telescope to the last rung exactly:
//!
//! ```text
//! udn.roundtrip + core.self + runtime.self + net.self
//!     + cluster.repl + cluster.fwd_hop  =  cluster.fwd_call
//! ```
//!
//! Nothing is hidden in a remainder: `net.self` further splits into the
//! transport alone (`net.ping`) and a named `net.residual`. A self time can
//! come out negative — the runtime's shard loop is not `MpServer` plus
//! something — and is reported as measured.
//!
//! The caller is pinned to one CPU for the timed calls ([`CpuSplit`]) and
//! each rung's own threads float: its servers settle on the other CPUs, so
//! a round trip is a cross-core one every time. All floating,
//! `udn.roundtrip_ns` alone reads 460 ns or 2800 ns depending on where the
//! two threads land, and rungs measured under different placements do not
//! subtract. (Confining the servers to the other half as well — what the
//! saturating workloads do — makes a serial `net.ping_ns` 45 µs instead of
//! 4 µs on two CPUs: the connection thread then queues behind the shard
//! server's yield-spin.) The cluster rungs cross eight threads and still
//! wander between 40 and 100 µs from run to run.
//!
//! The default rungs (`core.mp_server`, `runtime.submit`, `net.*`,
//! `cluster.*`) use each layer's default configuration; the side rungs name
//! only constructions and backends the ROADMAP keeps.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpsync_core::{ApplyOp, CcSynch, HybComb, LockCs, McsLock, MpServer, DEFAULT_MAX_OPS};
use mpsync_net::frame::{FrameBuf, Request, Response, Status, Wire as _, DEFAULT_MAX_FRAME};
use mpsync_net::NetClient;
use mpsync_objects::seq::kv_ops;
use mpsync_runtime::{Backend, RuntimeConfig, ShardedKvStore};
use mpsync_udn::{EndpointId, Fabric, FabricConfig};

use crate::harness::CpuSplit;
use crate::hist::median;
use crate::workloads::cluster_fwd::Cluster;
use crate::workloads::wire::Wire;

/// Calls per rung, unless the rung's time budget runs out first.
const CALLS: usize = 200_000;
/// Wall-clock budget per rung (a cluster call takes about 100 µs).
const BUDGET: Duration = Duration::from_millis(400);

/// Median nanoseconds per call of `f`. Fast calls are timed in batches so
/// the clock reads do not dominate; every rung uses this same method, so
/// the subtractions compare like with like.
pub fn median_ns(calls: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    for _ in 0..16 {
        f();
    }
    let per_call = (probe.elapsed().as_nanos() as u64 / 16).max(1);
    let batch = if per_call > 2_000 {
        1
    } else {
        (20_000 / per_call).clamp(1, 1_000) as usize
    };
    let mut samples = Vec::with_capacity(calls / batch + 1);
    let started = Instant::now();
    let mut done = 0;
    while done < calls && (started.elapsed() < budget || samples.len() < 8) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
        done += batch;
    }
    median(&samples).expect("at least eight samples")
}

/// The ladder's one caller thread.
struct Caller(Option<CpuSplit>);

impl Caller {
    /// Times one rung, the caller pinned to a generator CPU for the duration.
    fn rung(&self, f: impl FnMut()) -> f64 {
        if let Some(split) = &self.0 {
            split.enter_generator(0);
        }
        let ns = median_ns(CALLS, BUDGET, f);
        if let Some(split) = &self.0 {
            split.leave();
        }
        ns
    }
}

/// The critical section of every core rung and probe: fetch-and-add.
pub(crate) fn fetch_add(state: &mut u64, _op: u64, arg: u64) -> u64 {
    let old = *state;
    *state = old.wrapping_add(arg);
    old
}
pub(crate) type FetchAdd = fn(&mut u64, u64, u64) -> u64;

/// Runs every rung and derives the self times. Names are those of
/// `spec::PER_LAYER`.
pub fn run() -> Vec<(&'static str, f64)> {
    let caller = Caller(CpuSplit::detect());
    let mut out = Vec::new();
    let udn = udn_roundtrip(&caller);
    out.push(("udn.roundtrip_ns", udn));

    let fabric = Arc::new(Fabric::new(FabricConfig::new(2)));
    let endpoint = || fabric.register_any().expect("a free hardware queue");
    let mp = {
        let server = MpServer::spawn(endpoint(), 0u64, fetch_add as FetchAdd);
        let mut client = server.client(endpoint());
        let ns = caller.rung(|| {
            black_box(client.apply(0, 1));
        });
        drop(client);
        server.shutdown();
        ns
    };
    out.push(("core.mp_server.apply_ns", mp));
    {
        let hc = HybComb::new(1, DEFAULT_MAX_OPS, 0u64, fetch_add as FetchAdd);
        let mut h = hc.handle(endpoint());
        let ns = caller.rung(|| {
            black_box(h.apply(0, 1));
        });
        out.push(("core.hybcomb.apply_ns", ns));
    }
    {
        let cc = CcSynch::new(1, DEFAULT_MAX_OPS, 0u64, fetch_add as FetchAdd);
        let mut h = cc.handle();
        let ns = caller.rung(|| {
            black_box(h.apply(0, 1));
        });
        out.push(("core.cc_synch.apply_ns", ns));
    }
    {
        let lock = LockCs::<u64, McsLock, FetchAdd>::new(0, fetch_add);
        let mut h = lock.handle();
        let ns = caller.rung(|| {
            black_box(h.apply(0, 1));
        });
        out.push(("core.mcs.apply_ns", ns));
    }

    let submit = |config: RuntimeConfig| {
        let store = ShardedKvStore::new(config);
        let mut s = store
            .raw_session()
            .expect("a fresh runtime admits sessions");
        let ns = caller.rung(|| {
            black_box(s.submit(7, kv_ops::ADD, 1).expect("submit"));
        });
        drop(s);
        store.shutdown();
        ns
    };
    let runtime = submit(RuntimeConfig::new(1));
    out.push(("runtime.submit_ns", runtime));
    for (name, backend) in [
        ("runtime.adaptive.submit_ns", Backend::Adaptive),
        ("runtime.lock.submit_ns", Backend::Lock),
    ] {
        out.push((name, submit(RuntimeConfig::new(1).with_backend(backend))));
    }

    out.extend(frames());

    let (ping, call) = {
        let server = Wire::build(1, &[]);
        let mut c = NetClient::connect_tcp(server.addr()).expect("connect to own server");
        let ping = caller.rung(|| c.ping().expect("ping"));
        let call = caller.rung(|| {
            black_box(c.call(7, kv_ops::ADD as u8, 1).expect("call"));
        });
        drop(c);
        server.teardown();
        (ping, call)
    };
    out.push(("net.ping_ns", ping));
    out.push(("net.call_ns", call));

    let (local, fwd) = {
        let cluster = Cluster::build();
        let mut c = cluster.client(0);
        let mut timed = |key: u64| {
            caller.rung(|| {
                black_box(c.call(key, kv_ops::ADD as u8, 1).expect("cluster call"));
            })
        };
        let local = timed(cluster.key_owned_by(0, 1));
        let fwd = timed(cluster.key_owned_by(1, 1));
        cluster.teardown();
        (local, fwd)
    };
    out.push(("cluster.local_call_ns", local));
    out.push(("cluster.fwd_call_ns", fwd));

    out.push(("core.self_ns", mp - udn));
    out.push(("runtime.self_ns", runtime - mp));
    out.push(("net.self_ns", call - runtime));
    out.push(("net.residual_ns", call - ping - runtime));
    out.push(("cluster.repl_ns", local - call));
    out.push(("cluster.fwd_hop_ns", fwd - local));
    out
}

/// The six terms that must add up to `cluster.fwd_call_ns`.
pub const TELESCOPE: [&str; 6] = [
    "udn.roundtrip_ns",
    "core.self_ns",
    "runtime.self_ns",
    "net.self_ns",
    "cluster.repl_ns",
    "cluster.fwd_hop_ns",
];

/// A three-word message to a peer thread and a one-word reply back.
fn udn_roundtrip(caller: &Caller) -> f64 {
    const STOP: u64 = u64::MAX;
    let fabric = Arc::new(Fabric::new(FabricConfig::new(2)));
    let mut a = fabric.register_any().expect("a free hardware queue");
    let mut b = fabric.register_any().expect("a free hardware queue");
    let (a_word, b_id) = (a.id().to_word(), b.id());
    let peer = std::thread::spawn(move || loop {
        let [from, op, arg] = b.receive3();
        if op == STOP {
            return;
        }
        b.send(EndpointId::from_word(from), &[arg + 1])
            .expect("the caller's endpoint is registered");
    });
    let ns = caller.rung(|| {
        a.send(b_id, &[a_word, 0, 1])
            .expect("the peer's endpoint is registered");
        black_box(a.receive1());
    });
    a.send(b_id, &[a_word, STOP, 0])
        .expect("the peer's endpoint is registered");
    peer.join().expect("udn peer thread panicked");
    ns
}

/// Encoding and decoding one op's two frames, and their size on the wire.
fn frames() -> [(&'static str, f64); 3] {
    const BLOCK: usize = 256;
    let request = |id: u64| Request::Op {
        id,
        key: id & 0xFFF,
        op: kv_ops::ADD as u8,
        arg: 1,
        trace: 0,
    };
    let response = |id: u64| Response {
        id,
        status: Status::Ok,
        value: id,
    };
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut id = 0u64;
    let encode = median_ns(1_000_000, BUDGET, || {
        if buf.len() > 32 * 1024 {
            buf.clear();
        }
        request(id).encode_frame(&mut buf);
        response(id).encode_frame(&mut buf);
        id += 1;
    });

    let (mut requests, mut responses) = (Vec::new(), Vec::new());
    for id in 0..BLOCK as u64 {
        request(id).encode_frame(&mut requests);
        response(id).encode_frame(&mut responses);
    }
    let bytes = (requests.len() + responses.len()) as f64 / BLOCK as f64;
    // A block is copied into the buffer's spare space (as a socket read
    // would fill it) and decoded in place.
    let mut frame_buf = FrameBuf::new(DEFAULT_MAX_FRAME);
    let mut decode_block = |block: &[u8], is_request: bool| {
        frame_buf.spare()[..block.len()].copy_from_slice(block);
        frame_buf.commit(block.len());
        for _ in 0..BLOCK {
            if is_request {
                black_box(
                    frame_buf
                        .next_frame::<Request>()
                        .expect("well-formed frame"),
                );
            } else {
                black_box(
                    frame_buf
                        .next_frame::<Response>()
                        .expect("well-formed frame"),
                );
            }
        }
    };
    let per_block = median_ns(1_000_000 / BLOCK, BUDGET, || {
        decode_block(&requests, true);
        decode_block(&responses, false);
    });
    [
        ("net.frame.encode_ns", encode),
        ("net.frame.decode_ns", per_block / BLOCK as f64),
        ("net.frame.bytes_per_op", bytes),
    ]
}
