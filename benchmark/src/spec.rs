//! The benchmark's contract in one place: workload, end-to-end and per-layer
//! metric names, units and bounds. `BENCHMARK.json` at the repo root is
//! generated from this file (`--print-benchmark-json`) and a test keeps the
//! two equal.

/// The benchmark's default `--seconds`: timed one-second windows per run.
/// The issue asked for 16; the contract's time cap (136 runs and two builds
/// in 3420 s) leaves room for 12 with margin, cut uniformly for every
/// workload.
pub const RUN_SECONDS: usize = 12;

/// A workload and the one-sentence reason it exists.
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why it exists (one line, at most 200 characters).
    pub why: &'static str,
}

/// The six workloads. (`README.md` says which later ROADMAP item each is
/// meant to judge.)
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "native-hot",
        why: "closed loop, in-process ShardedCounter, 1 shard, one key: udn + core + the runtime shard loop and its batching do all the work; the paper's contended counter on the host",
    },
    Workload {
        name: "apps-mixed",
        why: "closed loop, in-process AppSuite, 64k uniform keys, five-app mix with live timers: the same runtime used without a hot key or batching, so per-op cost bought for native-hot shows as a loss",
    },
    Workload {
        name: "wire-closed",
        why: "closed loop, pipeline 8 per connection, NetServer defaults on TCP loopback, Zipf 0.99 ADD/GET: frame codec, server loop and syscalls dominate; the capacity figure for net",
    },
    Workload {
        name: "wire-open",
        why: "open loop, Poisson 20000 ops/s on the same server and mix, latency from each op's due time: the net layer judged on latency, where coalescing that helps wire-closed may cost",
    },
    Workload {
        name: "cluster-fwd",
        why: "closed loop, pipeline 1, two ClusterNodes over loopback, all clients dial node 0: half the ops take the forward hop and every op waits for a replication ack, so cluster/tcp.rs dominates",
    },
    Workload {
        name: "sim-counter36",
        why: "tilesim counter on the TILE-Gx8036 model, four constructions at max threads: the paper's claims live here and tier-1 spends nearly all its time in this code; no host layer runs",
    },
];

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in the order `E2e::named` returns them.
///
/// Two of the issue's six are reported elsewhere. `failed_frac` is zero on
/// every workload by design, and the contract wants metrics that are never
/// 0: it is the result's `failed` / `attempted`, where any rise fails the
/// run. `p99_us` does not repeat on this host within any bound the contract
/// allows (quartile distance over median across ten seeds: 72 % on
/// `wire-open`), so, as the issue directs, it is the per-layer metric
/// `loadgen.p99_us` and the bound is not widened.
///
/// Every bound is the contract's maximum, not the issue's 10 %: on this
/// 2-vCPU shared VM ten runs of the same code spread 3–12 % whatever the
/// harness does (the throughput of `native-hot` steps between 1.0M and
/// 1.45M ops/s for seconds at a time), and a bound must clear the noise.
pub const END_TO_END: [EndToEnd; 4] = [
    // Verified ops completed per second (closed loop: sustained; open loop:
    // delivered); median over windows.
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Client-observed latency of one op (open loop: from its due time); median
    // over windows of each window's exact median.
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    // Process user+system CPU over a window / ops completed in it; median over
    // windows (catches spin-burn and wake-up storms throughput hides).
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    // Construction (construct, connect, preload) plus the fixed warm-up, so
    // the figure is stable; median over the run's six epochs. The raw part
    // is harness.construct_ms.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric and the end-to-end metric it is expected to move.
pub struct PerLayer {
    /// Name: `<layer>.<what>`, the layer being the crate or module.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// The end-to-end metric and workload it should move (written down
    /// before measuring).
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const HOT_OPS: &str = "ops_per_s @ native-hot";
const INFO: &str = "informational: which construction this host favours";
const APPS: &str = "p50_us, ops_per_s @ apps-mixed; nothing elsewhere";
const FWD: &str = "p50_us, ops_per_s @ cluster-fwd only";
const FWD_TAIL: &str = "p50_us, loadgen.p99_us @ cluster-fwd";
const SIM: &str = "ops_per_s @ sim-counter36 only";
const SIM_EXACT: &str =
    "ops_per_s @ sim-counter36 only; must repeat exactly unless the model changes";
const WIRE_FAIL: &str = "failed ops, setup_s @ wire-*";
const ROW: &str = "a flag to read beside the workload's row";

/// The per-layer metrics: the serial ladder, its derived self times, the
/// layer probes, and the counters read off the traced workload's own system
/// (zero where the layer takes no part in that workload).
pub const PER_LAYER: [PerLayer; 65] = [
    // The ladder.
    lower("udn.roundtrip_ns", "ns", "p50_us, ops_per_s @ native-hot; at most 1/5 of p50 @ wire-*; nothing @ sim-counter36"),
    lower("core.mp_server.apply_ns", "ns", "p50_us @ native-hot"),
    lower("core.hybcomb.apply_ns", "ns", INFO),
    lower("core.cc_synch.apply_ns", "ns", INFO),
    lower("core.mcs.apply_ns", "ns", INFO),
    lower("runtime.submit_ns", "ns", "p50_us @ native-hot, apps-mixed"),
    lower("runtime.adaptive.submit_ns", "ns", INFO),
    lower("runtime.lock.submit_ns", "ns", INFO),
    lower("net.frame.encode_ns", "ns", "ops_per_s @ wire-closed; small @ wire-open, cluster-fwd"),
    lower("net.frame.decode_ns", "ns", "ops_per_s @ wire-closed; small @ wire-open, cluster-fwd"),
    lower("net.frame.bytes_per_op", "bytes", "ops_per_s @ wire-closed"),
    lower("net.ping_ns", "ns", "p50_us @ wire-open; ops_per_s @ wire-closed"),
    lower("net.call_ns", "ns", "p50_us @ wire-open; ops_per_s @ wire-closed"),
    lower("cluster.local_call_ns", "ns", FWD),
    lower("cluster.fwd_call_ns", "ns", FWD),
    // Derived: each rung minus the rung it encloses.
    lower("core.self_ns", "ns", "budget row: core.mp_server.apply_ns - udn.roundtrip_ns"),
    lower("runtime.self_ns", "ns", "budget row: runtime.submit_ns - core.mp_server.apply_ns"),
    lower("net.self_ns", "ns", "budget row: net.call_ns - runtime.submit_ns"),
    lower("net.residual_ns", "ns", "budget row: net.call_ns - net.ping_ns - runtime.submit_ns"),
    lower("cluster.repl_ns", "ns", "budget row: cluster.local_call_ns - net.call_ns"),
    lower("cluster.fwd_hop_ns", "ns", "budget row: cluster.fwd_call_ns - cluster.local_call_ns"),
    // Probes.
    higher("udn.stream_words_per_s", "words/s", HOT_OPS),
    lower("udn.stream_blocked_frac", "ratio", HOT_OPS),
    higher("core.mp_server.contended_ops_per_s", "ops/s", HOT_OPS),
    higher("core.hybcomb.contended_ops_per_s", "ops/s", INFO),
    higher("core.mcs.contended_ops_per_s", "ops/s", INFO),
    higher("core.hybcomb.combining_rate", "ops/round", INFO),
    lower("core.hybcomb.cas_per_op", "count", INFO),
    higher("runtime.hot.avg_batch", "ops/batch", "ops_per_s @ native-hot; about 1 and no effect @ wire-open"),
    lower("runtime.hot.rejected", "count", HOT_OPS),
    higher("runtime.adaptive.switches", "count", "the 'switches: 0' finding as a tracked number (ROADMAP 3c)"),
    lower("runtime.timer.arm_ns", "ns", "p50_us @ apps-mixed"),
    lower("runtime.timer.fire_ns", "ns", "p50_us @ apps-mixed"),
    lower("apps.ratelimit.op_ns", "ns", APPS),
    lower("apps.leaderboard.op_ns", "ns", APPS),
    lower("apps.leaderboard.topk_ns", "ns", APPS),
    lower("apps.pq.op_ns", "ns", APPS),
    lower("apps.session.op_ns", "ns", APPS),
    lower("apps.ledger.transfer_ns", "ns", APPS),
    lower("apps.session.expire_lag_ms", "ms", APPS),
    lower("net.connect_us", "us", "setup_s @ wire-*"),
    lower("cluster.core_op_ns", "ns", FWD_TAIL),
    lower("cluster.handoff_pause_ms", "ms", "loadgen.p99_us @ cluster-fwd during a migration"),
    higher("tilesim.mops.mp_server", "Mops/s", SIM_EXACT),
    higher("tilesim.mops.hybcomb", "Mops/s", SIM_EXACT),
    higher("tilesim.mops.shm_server", "Mops/s", SIM_EXACT),
    higher("tilesim.mops.cc_synch", "Mops/s", SIM_EXACT),
    lower("tilesim.stalls_per_op.mp_server", "cycles", SIM_EXACT),
    lower("tilesim.stalls_per_op.shm_server", "cycles", SIM_EXACT),
    lower("tilesim.host_ns_per_sim_op", "ns", SIM),
    lower("tilesim.proc_parks", "count", SIM),
    // Counters of the traced workload's own system.
    lower("net.busy_frac", "ratio", WIRE_FAIL),
    lower("net.disconnects", "count", WIRE_FAIL),
    lower("net.protocol_errors", "count", WIRE_FAIL),
    lower("cluster.fwd_frac", "ratio", FWD_TAIL),
    lower("cluster.resends_per_kop", "1/kop", FWD_TAIL),
    lower("cluster.redirects_per_kop", "1/kop", FWD_TAIL),
    lower("loadgen.lag_p50_us", "us", "p50_us @ wire-open: the generator's own lateness, part of every latency there"),
    lower("loadgen.lag_p99_us", "us", "loadgen.p99_us @ wire-open"),
    lower("loadgen.send_p50_us", "us", "p50_us @ wire-open, less the generator's lateness"),
    lower("loadgen.p99_us", "us", "the tail every workload's clients saw: median over windows of each window's exact p99 (not end to end: see END_TO_END)"),
    lower("harness.construct_ms", "ms", "setup_s @ every workload: the part that is not warm-up"),
    lower("harness.trace_overhead_frac", "ratio", ROW),
    lower("proc.peak_rss_mb", "MB", ROW),
    lower("proc.ctx_switches_per_kop", "1/kop", ROW),
];

/// `BENCHMARK.json`, exactly as committed at the repo root.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.word(),
                    m.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.word()
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The contract's limits on names, units, `why` lines and counts.
    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let mut names: Vec<&str> = Vec::new();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            let ok = !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(ok, "bad unit {u:?}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        // 4 + 22 x workloads runs, each at most RUN_SECONDS + 6 s (six
        // half-second warm-ups, builds, read-backs), plus two builds, within
        // the 3420 s cap.
        let runs = 4 + 22 * WORKLOADS.len();
        assert!(runs * (RUN_SECONDS + 6) + 200 <= 3420);
    }

    /// `BENCHMARK.json` at the repo root is this file's rendering.
    #[test]
    fn benchmark_json_is_in_step() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --print-benchmark-json > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
