//! clusterbench: run, drive, and smoke-test a real multi-process cluster.
//!
//! Three modes:
//!
//! * `clusterbench --node <id>` — one cluster member over the real
//!   delegation runtime. Binds an ephemeral port, prints `READY <addr>`,
//!   then reads one `PEERS <id>=<addr>,…` line on stdin before serving
//!   (so a parent can wire a mesh without preassigning ports). Exits on
//!   stdin EOF.
//! * `clusterbench --drive <id>=<addr>,…` — closed-loop verifying load
//!   against a running cluster: every client owns disjoint keys, checks
//!   each result against a local oracle, replays a sampling of request
//!   ids to prove dedup, and triggers one live handoff mid-run.
//! * `clusterbench --smoke` — the whole thing in one command: spawns two
//!   `--node` children, wires them up, drives load with a live handoff,
//!   verifies zero lost acked writes, and tears everything down. Exit
//!   status is the verdict (this is what CI runs).
//!
//! Options: `--shards N` (runtime shards per node), `--slots N`,
//! `--clients N`, `--ops N`, `--seed N`.

#[cfg(not(target_os = "linux"))]
compile_error!(
    "clusterbench drives the socket transport (`mpsync_cluster::tcp`), which is Linux-only"
);

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mpsync_cluster::tcp::{admin_handoff, ClusterClient, ClusterNode, TcpNodeConfig};
use mpsync_cluster::{slot_for, NodeConfig, NodeId, RuntimeStore};
use mpsync_net::{AdminClient, STAT_SNAPSHOT_VERSION};
use mpsync_objects::seq::{kv_dispatch, kv_ops, KvMap};
use mpsync_runtime::{RuntimeConfig, ShardedKvStore};
use mpsync_telemetry::{trace_track, Algo, Lane};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Clone)]
struct Opts {
    shards: usize,
    slots: u16,
    clients: u16,
    ops: u32,
    seed: u64,
    tick_ms: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            shards: 2,
            slots: 16,
            clients: 4,
            ops: 2000,
            seed: 42,
            tick_ms: 10,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::default();
    let mut mode: Option<(String, String)> = None;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).unwrap_or_else(|| die("missing value")).clone()
        };
        match args[i].as_str() {
            "--node" | "--drive" => mode = Some((args[i].clone(), take(&mut i))),
            "--smoke" => mode = Some((args[i].clone(), String::new())),
            "--shards" => opts.shards = take(&mut i).parse().unwrap_or_else(|_| die("--shards")),
            "--slots" => opts.slots = take(&mut i).parse().unwrap_or_else(|_| die("--slots")),
            "--clients" => opts.clients = take(&mut i).parse().unwrap_or_else(|_| die("--clients")),
            "--ops" => opts.ops = take(&mut i).parse().unwrap_or_else(|_| die("--ops")),
            "--seed" => opts.seed = take(&mut i).parse().unwrap_or_else(|_| die("--seed")),
            "--tick-ms" => opts.tick_ms = take(&mut i).parse().unwrap_or_else(|_| die("--tick-ms")),
            other => die(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    match mode {
        Some((m, v)) if m == "--node" => {
            run_node(v.parse().unwrap_or_else(|_| die("--node <id>")), &opts)
        }
        Some((m, v)) if m == "--drive" => {
            let report = drive(&parse_peers(&v), &opts);
            println!("{report}");
        }
        Some((m, _)) if m == "--smoke" => smoke(&opts),
        _ => die("usage: clusterbench --node <id> | --drive <id>=<addr>,… | --smoke"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("clusterbench: {msg}");
    std::process::exit(2);
}

fn parse_peers(s: &str) -> Vec<(NodeId, String)> {
    s.split(',')
        .map(|part| {
            let (id, addr) = part
                .split_once('=')
                .unwrap_or_else(|| die("peers must be <id>=<addr>,…"));
            (
                id.parse().unwrap_or_else(|_| die("bad peer id")),
                addr.to_string(),
            )
        })
        .collect()
}

/// `--node`: bind, announce, wait for the mesh map, serve until stdin EOF.
fn run_node(id: NodeId, opts: &Opts) -> ! {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| die(&format!("bind: {e}")));
    let addr = listener.local_addr().expect("bound");
    println!("READY {addr}");
    let mut line = String::new();
    std::io::stdin()
        .lock()
        .read_line(&mut line)
        .unwrap_or_else(|e| die(&format!("stdin: {e}")));
    let peers_str = line
        .trim()
        .strip_prefix("PEERS ")
        .unwrap_or_else(|| die("expected PEERS line on stdin"));
    let all = parse_peers(peers_str);
    let members: Vec<NodeId> = all.iter().map(|&(n, _)| n).collect();
    let peers: Vec<(NodeId, String)> = all.into_iter().filter(|&(n, _)| n != id).collect();

    let mut node_cfg = NodeConfig::new(id, members);
    node_cfg.slots = opts.slots;
    let store = RuntimeStore::new(
        ShardedKvStore::new(RuntimeConfig::new(opts.shards).with_max_sessions(8)),
        opts.slots,
    );
    let node = ClusterNode::start(
        TcpNodeConfig {
            node: node_cfg,
            listener,
            peers,
            tick_ms: opts.tick_ms,
        },
        store,
    )
    .unwrap_or_else(|e| die(&format!("start: {e}")));
    println!("SERVING");
    // Park until the parent closes our stdin.
    let mut rest = String::new();
    while std::io::stdin()
        .lock()
        .read_line(&mut rest)
        .map(|n| n > 0)
        .unwrap_or(false)
    {
        rest.clear();
    }
    node.shutdown().into_inner().shutdown();
    std::process::exit(0);
}

/// One client's verified run: disjoint keys, oracle-checked results,
/// dedup replays. Returns (ok_ops, resends, redirects, dedup_checks).
fn client_load(
    cid: u64,
    addrs: Vec<(NodeId, String)>,
    opts: &Opts,
) -> Result<(u64, u64, u64, u64), String> {
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ (cid << 17));
    let mut oracle = KvMap::new();
    let mut client = ClusterClient::connect(addrs, Duration::from_millis(500), cid << 32);
    let keys: Vec<u64> = (0..8u64).map(|i| 1 + cid * 1_000_000 + i * 37).collect();
    let (mut resends, mut redirects, mut dedup_checks) = (0u64, 0u64, 0u64);
    for n in 0..opts.ops {
        let key = keys[rng.gen_range(0..keys.len())];
        let (op, arg) = match rng.gen_range(0..6u32) {
            0 | 1 => (kv_ops::PUT as u8, rng.gen_range(1..1_000_000u64)),
            2 | 3 => (kv_ops::ADD as u8, rng.gen_range(1..1_000u64)),
            _ => (kv_ops::GET as u8, 0),
        };
        let expected = kv_dispatch(&mut oracle, key, op as u64, arg);
        let id = (cid << 32) | n as u64;
        let out = client
            .call_with_id(id, key, op, arg)
            .map_err(|e| format!("client {cid} op {n}: {e}"))?;
        if out.value != expected {
            return Err(format!(
                "client {cid} op {n} (key {key} op {op}): got {} expected {expected} — \
                 lost or double-applied write",
                out.value
            ));
        }
        resends += out.resends as u64;
        redirects += out.redirects as u64;
        // Every 16th op: replay the same id and demand the identical
        // answer — a re-applied ADD/PUT would return a different value.
        if n % 16 == 0 {
            let replay = client
                .call_with_id(id, key, op, arg)
                .map_err(|e| format!("client {cid} replay {n}: {e}"))?;
            if replay.value != out.value {
                return Err(format!(
                    "client {cid} op {n}: replayed id returned {} != {} — dedup failed",
                    replay.value, out.value
                ));
            }
            dedup_checks += 1;
        }
    }
    // Final readback of every key against the oracle.
    for &key in &keys {
        let expect = oracle.get(&key).copied();
        let got = client
            .call(key, kv_ops::GET as u8, 0)
            .map_err(|e| format!("client {cid} readback: {e}"))?;
        let want = expect.unwrap_or(mpsync_objects::EMPTY);
        if got.value != want {
            return Err(format!(
                "client {cid} key {key}: final value {} != oracle {want}",
                got.value
            ));
        }
    }
    Ok((opts.ops as u64, resends, redirects, dedup_checks))
}

/// One admin snapshot scrape (None on any connection/protocol trouble).
fn scrape(addr: &str) -> Option<String> {
    let mut ac = AdminClient::connect_tcp(addr).ok()?;
    let _ = ac.set_read_timeout(Some(Duration::from_secs(2)));
    ac.fetch_snapshot().ok()
}

/// Naive extraction of an unsigned integer field from flat JSON.
fn json_u64(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = json[json.find(&pat)? + pat.len()..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The owner a snapshot's slot table names for `slot`.
fn slot_owner(snapshot: &str, slot: u16) -> Option<NodeId> {
    let at = snapshot.find(&format!("\"slot\":{slot},"))?;
    json_u64(&snapshot[at..], "owner").map(|owner| owner as NodeId)
}

/// Extracts the balanced `{…}` object following `"key":` (the payloads
/// pulled this way — flight dumps — contain no braces inside strings).
fn json_object(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let start = rest.find('{')?;
    let mut depth = 0usize;
    for (j, c) in rest[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[start..start + j + 1].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// `--drive`: verified load + one live handoff against a running cluster.
fn drive(addrs: &[(NodeId, String)], opts: &Opts) -> String {
    let started = Instant::now();
    let handoff_addrs = addrs.to_vec();
    let h_opts = opts.clone();
    let loaders: Vec<_> = (0..opts.clients as u64)
        .map(|cid| {
            let addrs = addrs.to_vec();
            let opts = opts.clone();
            std::thread::spawn(move || client_load(cid, addrs, &opts))
        })
        .collect();
    // Mid-run: migrate the slot of client 0's first key to the other
    // node. Keep the lead-in short so the migration lands while the
    // loaders are still running — that is the scenario under test.
    std::thread::sleep(Duration::from_millis(30));
    let hot_key = 1u64; // client 0's first key
    let slot = slot_for(hot_key, h_opts.slots);

    // Mid-run admin scrape: the stats endpoint must answer while the node
    // is under load, with a parseable versioned snapshot. It doubles as
    // owner discovery so the handoff below genuinely migrates the slot
    // (handing a slot to its current owner is an intentional no-op).
    let mid = scrape(&handoff_addrs[0].1).unwrap_or_default();
    if json_u64(&mid, "version") != Some(STAT_SNAPSHOT_VERSION as u64)
        || !mid.contains("\"source\": \"cluster\"")
        || !mid.contains("\"slots\":")
    {
        eprintln!("FAIL: mid-run admin snapshot malformed: {mid:?}");
        std::process::exit(1);
    }
    let owner = slot_owner(&mid, slot).unwrap_or(handoff_addrs[0].0);
    let to = handoff_addrs
        .iter()
        .map(|&(n, _)| n)
        .find(|&n| n != owner)
        .unwrap_or(owner);
    // Addressed to the owner: a node asked to hand a slot to *itself*
    // ignores the command rather than forwarding it.
    let owner_addr = handoff_addrs
        .iter()
        .find(|&&(n, _)| n == owner)
        .map(|(_, a)| a.as_str())
        .unwrap_or(&handoff_addrs[0].1);
    let handoff_ok = admin_handoff(owner_addr, slot, to).is_ok();

    let (mut ok, mut resends, mut redirects, mut dedup_checks) = (0u64, 0u64, 0u64, 0u64);
    let mut failures = Vec::new();
    for l in loaders {
        match l.join().expect("loader thread") {
            Ok((o, rs, rd, dc)) => {
                ok += o;
                resends += rs;
                redirects += rd;
                dedup_checks += dc;
            }
            Err(e) => failures.push(e),
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }

    // Traced tail: a burst of ops under fresh trace ids, spread across
    // slots so some are forwarded — the hop spans land in the nodes'
    // rings for the span scrape below to pull. Every op enters at the first
    // member; the routes seen before and after the tail tell which it
    // forwarded.
    let entry = addrs[0].0;
    let pre_tail = scrape(&addrs[0].1).unwrap_or_default();
    let mut tclient = ClusterClient::connect(
        addrs.to_vec(),
        Duration::from_millis(500),
        (opts.clients as u64 + 1) << 32,
    );
    let mut traced: Vec<(u64, u32)> = Vec::new();
    for i in 0..64u64 {
        let key = 1 + i * 37;
        if let Ok((_, trace_id)) = tclient.call_traced(key, kv_ops::PUT as u8, i + 1) {
            if trace_id != 0 {
                traced.push((key, trace_id));
            }
        }
    }
    let traced_ops = traced.len();

    // Post-run scrapes: both nodes must converge on one routing digest
    // (anti-entropy gossip), and each embeds its flight-recorder dump in
    // the verdict.
    let digest_deadline = Instant::now() + Duration::from_secs(10);
    let (route_digest, flights, post_tail) = loop {
        let snaps: Vec<String> = addrs
            .iter()
            .map(|(_, a)| scrape(a).unwrap_or_default())
            .collect();
        let digests: Vec<Option<u64>> = snaps.iter().map(|s| json_u64(s, "route_digest")).collect();
        if digests.iter().all(|d| d.is_some() && *d == digests[0]) {
            let flights: Vec<String> = snaps
                .iter()
                .map(|s| json_object(s, "flight").unwrap_or_else(|| "null".to_string()))
                .collect();
            break (digests[0].expect("all some"), flights, snaps[0].clone());
        }
        if Instant::now() > digest_deadline {
            eprintln!("FAIL: route digests did not converge: {digests:?}");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    // A real migration leaves structural events in every node's flight
    // recorder (draining/transferring on the old owner, promotion on the
    // new) — and the recorder is on even with telemetry compiled out.
    if handoff_ok && flights.iter().any(|f| json_u64(f, "recorded") == Some(0)) {
        eprintln!("FAIL: handoff left an empty flight recorder: {flights:?}");
        std::process::exit(1);
    }

    // Span scrape: with telemetry compiled in, the traced tail must have
    // left owner-side Cluster/Serve hop spans on the nodes and ClientWait
    // root spans in this process, and every op the entry member forwarded
    // must have left its forwarder's Cluster/Send span, whichever node
    // answered it.
    let mut node_serve_spans = 0usize;
    let mut send_tracks = BTreeSet::new();
    for (_, a) in addrs {
        let spans = AdminClient::connect_tcp(a)
            .ok()
            .and_then(|mut c| c.fetch_spans().ok())
            .unwrap_or_default();
        for s in spans.iter().filter(|s| s.algo == Algo::Cluster) {
            match s.lane {
                Lane::Serve => node_serve_spans += 1,
                Lane::Send => {
                    send_tracks.insert(s.track);
                }
                _ => {}
            }
        }
    }
    let client_spans = mpsync_telemetry::drain_spans()
        .iter()
        .filter(|s| s.algo == Algo::Cluster && s.lane == Lane::ClientWait)
        .count();
    let forwarded: Vec<u32> = traced
        .iter()
        .filter(|&&(key, _)| {
            let slot = slot_for(key, opts.slots);
            [&pre_tail, &post_tail]
                .iter()
                .all(|snap| slot_owner(snap, slot).is_some_and(|owner| owner != entry))
        })
        .map(|&(_, trace_id)| trace_id)
        .collect();
    let fwd_send_spans = forwarded
        .iter()
        .filter(|&&trace_id| send_tracks.contains(&trace_track(trace_id)))
        .count();
    if mpsync_telemetry::ENABLED
        && (node_serve_spans == 0
            || client_spans == 0
            || forwarded.is_empty()
            || fwd_send_spans < forwarded.len())
    {
        eprintln!(
            "FAIL: traced ops left hop spans missing (serve {node_serve_spans}, \
             client {client_spans}, forwarder send {fwd_send_spans} of {} forwarded)",
            forwarded.len()
        );
        std::process::exit(1);
    }
    println!("ADMIN OK");

    format!(
        "{{\"ok_ops\":{ok},\"resends\":{resends},\"redirects\":{redirects},\
         \"dedup_checks\":{dedup_checks},\"handoff\":{handoff_ok},\
         \"route_digest\":{route_digest},\"traced_ops\":{traced_ops},\
         \"node_serve_spans\":{node_serve_spans},\"client_spans\":{client_spans},\
         \"fwd_send_spans\":{fwd_send_spans},\
         \"flights\":[{}],\"elapsed_ms\":{}}}",
        flights.join(","),
        started.elapsed().as_millis()
    )
}

/// `--smoke`: self-contained two-process cluster with a live handoff.
fn smoke(opts: &Opts) {
    let exe = std::env::current_exe().expect("own path");
    let mut children: Vec<Child> = Vec::new();
    let mut addrs: BTreeMap<NodeId, String> = BTreeMap::new();
    for id in 0..2u16 {
        let child = Command::new(&exe)
            .args([
                "--node",
                &id.to_string(),
                "--slots",
                &opts.slots.to_string(),
                "--shards",
                &opts.shards.to_string(),
                "--tick-ms",
                &opts.tick_ms.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| die(&format!("spawn node {id}: {e}")));
        children.push(child);
    }
    // Collect READY lines, then broadcast the mesh map.
    let mut stdouts = Vec::new();
    for (id, child) in children.iter_mut().enumerate() {
        let out = child.stdout.take().expect("piped");
        let mut reader = BufReader::new(out);
        let mut line = String::new();
        reader.read_line(&mut line).expect("READY line");
        let addr = line
            .trim()
            .strip_prefix("READY ")
            .unwrap_or_else(|| die(&format!("node {id} said {line:?}")));
        addrs.insert(id as NodeId, addr.to_string());
        stdouts.push(reader);
    }
    let mesh = addrs
        .iter()
        .map(|(id, a)| format!("{id}={a}"))
        .collect::<Vec<_>>()
        .join(",");
    for child in children.iter_mut() {
        writeln!(child.stdin.as_mut().expect("piped"), "PEERS {mesh}").expect("send mesh");
    }
    for (id, reader) in stdouts.iter_mut().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("SERVING line");
        if line.trim() != "SERVING" {
            die(&format!("node {id} failed to serve: {line:?}"));
        }
    }

    let peer_vec: Vec<(NodeId, String)> = addrs.iter().map(|(&n, a)| (n, a.clone())).collect();
    let report = drive(&peer_vec, opts);

    // Orderly teardown: close stdins, wait briefly, then make sure.
    for child in children.iter_mut() {
        drop(child.stdin.take());
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    for child in children.iter_mut() {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
    }
    println!("{report}");
    println!("SMOKE OK");
}
