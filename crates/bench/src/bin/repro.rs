//! `repro` — regenerates every table and figure of the paper's evaluation
//! (§5) on the `tilesim` machine model, printing CSV series shaped like the
//! paper's plots.
//!
//! ```text
//! repro [--quick] [--horizon CYCLES] [--seed N] [--jobs N] [--timing]
//!       [--baseline-ms MS] [--check-baseline PATH]
//!       [--metrics] [--metrics-json PATH] [--trace PATH]
//!       <experiment>... | all
//! repro --list
//! ```
//!
//! Experiments: `fig3a fig3b fig3c fig4a fig4b fig4c fig5a fig5b
//! tab-cas tab-fair tab-x86 abl-swap abl-nodrain ext-locks ext-tail
//! ext-imbalance`.
//!
//! Numbers are deterministic for a given seed/horizon. Absolute values are
//! calibrated to the paper's magnitudes; the claims under reproduction are
//! the *shapes* (who wins, by what factor, where curves cross) — see
//! EXPERIMENTS.md.
//!
//! # Execution model
//!
//! Each experiment is split into its *task list* — the independent
//! simulator runs behind its sweep points — and its *render* step, which
//! formats rows from the finished results. Experiments are processed in
//! canonical order; each one's tasks fan out over a bounded pool of
//! `--jobs` worker threads (default: host parallelism) feeding a global
//! memo cache, then the render step prints from the cache on the main
//! thread. Output is therefore byte-identical at every `--jobs` value,
//! including `--jobs 1`. Runs shared between experiments (the counter
//! sweeps behind fig3a/3b/4b and the tables) are simulated once.
//!
//! `--timing` additionally reports wall-clock per experiment plus the
//! engine's proc-resumption count on stderr, and writes the summary
//! to `BENCH_repro.json` at the repository root (stdout stays untouched).
//! `--check-baseline PATH` compares this run against a committed
//! `BENCH_repro.json` and fails if any experiment regressed more than 2×.
//!
//! `--metrics`, `--metrics-json PATH` and `--trace PATH` run the *native
//! telemetry phase* (short instrumented workloads through the real
//! emulated-UDN executors; see `mpsync_bench::metrics`) after the
//! experiments: `--metrics` prints per-construction latency tables on
//! stderr, `--metrics-json` writes them as JSON, `--trace` writes a Chrome
//! `trace_event` timeline. All three need the `telemetry` cargo feature for
//! real data (without it they report empty and say so). Stdout stays
//! reserved for experiment CSV either way, so the committed oracle output
//! is unaffected.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mpsync_bench::{
    check_against_baseline, f, for_each_parallel, max_ops_sweep, metrics, row, thread_sweep,
    TimingReport,
};
use mpsync_telemetry as telemetry;
use tilesim::algos::{Approach, HybOptions, LockKind};
use tilesim::workload::{self, servicing_core};
use tilesim::{HostStats, MachineConfig, Metric, SimResult};

struct Opts {
    quick: bool,
    horizon: u64,
    seed: u64,
    jobs: usize,
    timing: bool,
    baseline_ms: Option<u64>,
    check_baseline: Option<String>,
    metrics: bool,
    metrics_json: Option<String>,
    trace: Option<String>,
}

fn main() {
    let mut opts = Opts {
        quick: false,
        horizon: workload::DEFAULT_HORIZON,
        seed: 42,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        timing: false,
        baseline_ms: None,
        check_baseline: None,
        metrics: false,
        metrics_json: None,
        trace: None,
    };
    let invocation: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments: Vec<String> = Vec::new();
    let mut args = invocation.iter().cloned();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--horizon" => {
                opts.horizon = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--horizon needs a cycle count");
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs needs a thread count");
            }
            "--timing" => opts.timing = true,
            "--baseline-ms" => {
                opts.baseline_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--baseline-ms needs milliseconds"),
                );
            }
            "--check-baseline" => {
                opts.check_baseline =
                    Some(args.next().expect("--check-baseline needs a file path"));
            }
            "--metrics" => opts.metrics = true,
            "--metrics-json" => {
                opts.metrics_json = Some(args.next().expect("--metrics-json needs a file path"));
            }
            "--trace" => {
                opts.trace = Some(args.next().expect("--trace needs a file path"));
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            "--list" => {
                print_list();
                return;
            }
            other => experiments.push(other.to_string()),
        }
    }
    let wants_metrics = opts.metrics || opts.metrics_json.is_some() || opts.trace.is_some();
    if experiments.is_empty() && !wants_metrics {
        print_usage();
        std::process::exit(2);
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = ALL.iter().map(|s| s.to_string()).collect();
    }
    for e in &experiments {
        if !ALL.contains(&e.as_str()) {
            eprintln!("unknown experiment {e:?}");
            if let Some(close) = closest_experiment(e) {
                eprintln!("did you mean {close:?}?");
            }
            eprintln!("run `repro --list` for every experiment and what it reproduces");
            std::process::exit(2);
        }
    }
    // Read the committed baseline up front: --timing rewrites
    // BENCH_repro.json, and the check usually points at that same file.
    let baseline_json = opts.check_baseline.as_ref().map(|p| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {p}: {e}");
            std::process::exit(2);
        })
    });

    let cache = Cache::default();
    let started = Instant::now();
    let mut figures: Vec<(String, u64)> = Vec::new();
    for e in &experiments {
        let t0 = Instant::now();
        let mut tasks = tasks_for(e, &opts);
        let mut seen = HashSet::new();
        tasks.retain(|t| seen.insert(t.clone()));
        for_each_parallel(&tasks, opts.jobs, |t| {
            cache.get(&opts, t);
        });
        render(e, &opts, &cache);
        println!();
        figures.push((e.clone(), t0.elapsed().as_millis() as u64));
    }

    // Native telemetry phase: run when asked for explicitly, or fold into a
    // --timing report whenever the build actually records something.
    let telemetry_json = if wants_metrics || (opts.timing && telemetry::ENABLED) {
        if !telemetry::ENABLED {
            eprintln!(
                "# metrics: telemetry feature is off; rebuild with \
                 `--features telemetry` for real data"
            );
        }
        let phases = metrics::run_native_metrics(4, 2_000);
        if opts.metrics {
            for p in &phases {
                if p.report.is_empty() {
                    eprintln!("# metrics[{}]: empty (telemetry disabled)", p.name);
                } else {
                    eprintln!("# metrics[{}]: {} spans", p.name, p.spans.len());
                    eprint!("{}", p.report);
                }
            }
        }
        let json = metrics::metrics_json(&phases);
        if let Some(path) = &opts.metrics_json {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("# metrics: wrote {path}");
        }
        if let Some(path) = &opts.trace {
            if let Err(e) = std::fs::write(path, metrics::chrome_trace(&phases)) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("# metrics: wrote Chrome trace {path}");
        }
        Some(json)
    } else {
        None
    };

    if opts.timing || baseline_json.is_some() {
        let (sim_runs, host) = cache.stats();
        let report = TimingReport {
            args: invocation.join(" "),
            git_rev: mpsync_telemetry::meta::git_revision(),
            hostname: mpsync_telemetry::meta::hostname(),
            quick: opts.quick,
            horizon: opts.horizon,
            seed: opts.seed,
            jobs: opts.jobs,
            total_ms: started.elapsed().as_millis() as u64,
            prechange_total_ms: opts.baseline_ms,
            figures,
            sim_runs,
            host,
            telemetry: telemetry_json,
        };
        for (name, ms) in &report.figures {
            eprintln!("# timing: {name} {ms} ms");
        }
        eprintln!(
            "# timing: total {} ms, {} distinct sim runs, jobs={}",
            report.total_ms, report.sim_runs, report.jobs
        );
        eprintln!("# timing: host handoffs={}", report.host.handoffs);
        if opts.timing {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("# timing: wrote {path}");
        }
        if let Some(json) = &baseline_json {
            match check_against_baseline(&report, json, 2.0) {
                Ok(()) => eprintln!("# timing: within 2x of committed baseline"),
                Err(msg) => {
                    eprintln!("# timing: REGRESSION vs baseline: {msg}");
                    std::process::exit(1);
                }
            }
        }
    }
}

const ALL: &[&str] = &[
    "fig3a",
    "fig3b",
    "fig3c",
    "fig4a",
    "fig4b",
    "fig4c",
    "fig5a",
    "fig5b",
    "tab-cas",
    "tab-fair",
    "tab-x86",
    "abl-swap",
    "abl-nodrain",
    "ext-locks",
    "ext-tail",
    "ext-imbalance",
];

/// One-line description per experiment id, same order as [`ALL`]
/// (summarized from the experiment table in DESIGN.md §4).
const DESCRIPTIONS: &[(&str, &str)] = &[
    (
        "fig3a",
        "counter throughput vs app threads: MP-SERVER, HYBCOMB, SHM-SERVER, CC-SYNCH",
    ),
    (
        "fig3b",
        "average request latency (cycles) vs threads, same four constructions",
    ),
    (
        "fig3c",
        "max throughput vs the MAX_OPS combining bound, HYBCOMB and CC-SYNCH",
    ),
    (
        "fig4a",
        "stalled vs total cycles per op on the servicing thread (fixed combiner)",
    ),
    (
        "fig4b",
        "actual combining rate vs threads, HYBCOMB and CC-SYNCH",
    ),
    (
        "fig4c",
        "cycles per critical section vs CS length, with the ideal line",
    ),
    (
        "fig5a",
        "queue throughput vs clients: one-/two-lock MS queues and LCRQ",
    ),
    (
        "fig5b",
        "stack throughput vs clients: coarse-lock stacks and Treiber",
    ),
    (
        "tab-cas",
        "in-text claim: CAS executions per apply_op under HYBCOMB",
    ),
    (
        "tab-fair",
        "in-text claim: per-thread fairness ratios of HYBCOMB and MP-SERVER",
    ),
    (
        "tab-x86",
        "stall fraction as RMR cost grows (the paper's x86 discussion, 5.5)",
    ),
    (
        "abl-swap",
        "ablation: CAS vs SWAP combiner registration in HYBCOMB",
    ),
    (
        "abl-nodrain",
        "ablation: HYBCOMB without the eager message-drain loop",
    ),
    (
        "ext-locks",
        "extension: counter under TAS/ticket/MCS locks vs MP-SERVER",
    ),
    (
        "ext-tail",
        "extension: latency percentiles (the paper's 'sporadic hiccups')",
    ),
    (
        "ext-imbalance",
        "extension: asymmetric enqueue/dequeue mixes on the one-lock queue",
    ),
];

fn print_list() {
    println!(
        "experiments ({} total; `repro all` runs every one):",
        ALL.len()
    );
    for (id, desc) in DESCRIPTIONS {
        println!("  {id:<14} {desc}");
    }
}

/// Nearest experiment id by edit distance, if anything is plausibly close
/// (distance ≤ 3) — catches the common `fig3A` / `fig-3a` / `tab_cas` typos.
fn closest_experiment(input: &str) -> Option<&'static str> {
    let lower = input.to_ascii_lowercase();
    ALL.iter()
        .map(|&id| (edit_distance(&lower, id), id))
        .min()
        .filter(|&(d, _)| d <= 3)
        .map(|(_, id)| id)
}

fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

fn print_usage() {
    eprintln!(
        "usage: repro [--quick] [--horizon CYCLES] [--seed N] [--jobs N] [--timing] \
         [--baseline-ms MS] [--check-baseline PATH] [--metrics] [--metrics-json PATH] \
         [--trace PATH] <experiment>...|all"
    );
    eprintln!(
        "experiments: {} (describe with `repro --list`)",
        ALL.join(" ")
    );
}

fn cfg() -> MachineConfig {
    MachineConfig::tile_gx8036()
}

/// One independent simulator run: the unit of parallel dispatch and of
/// memoization. Horizon and seed are uniform per invocation (from [`Opts`])
/// so they are not part of the key.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Task {
    Counter {
        a: Approach,
        threads: usize,
        max_ops: u64,
    },
    CounterFixed {
        x86: bool,
        a: Approach,
        threads: usize,
    },
    CounterHyb {
        threads: usize,
        max_ops: u64,
        use_swap: bool,
        eager_drain: bool,
    },
    CounterLock {
        kind: LockKind,
        threads: usize,
    },
    Array {
        a: Approach,
        threads: usize,
        iters: u64,
        max_ops: u64,
    },
    QueueOnelock {
        a: Approach,
        threads: usize,
        max_ops: u64,
    },
    QueueLcrq {
        threads: usize,
    },
    QueueMp2 {
        threads: usize,
    },
    QueueMixed {
        a: Approach,
        threads: usize,
        enq: usize,
        max_ops: u64,
    },
    Stack {
        a: Approach,
        threads: usize,
        max_ops: u64,
    },
    StackTreiber {
        threads: usize,
    },
}

impl Task {
    fn run(&self, o: &Opts) -> SimResult {
        let (h, s) = (o.horizon, o.seed);
        match *self {
            Task::Counter {
                a,
                threads,
                max_ops,
            } => workload::run_counter(cfg(), a, threads, max_ops, h, s),
            Task::CounterFixed { x86, a, threads } => {
                let c = if x86 {
                    MachineConfig::x86_like()
                } else {
                    cfg()
                };
                workload::run_counter_fixed(c, a, threads, h, s)
            }
            Task::CounterHyb {
                threads,
                max_ops,
                use_swap,
                eager_drain,
            } => workload::run_counter_hybcomb_opts(
                cfg(),
                threads,
                max_ops,
                h,
                s,
                HybOptions {
                    use_swap,
                    eager_drain,
                },
            ),
            Task::CounterLock { kind, threads } => {
                workload::run_counter_lock(cfg(), kind, threads, h, s)
            }
            Task::Array {
                a,
                threads,
                iters,
                max_ops,
            } => workload::run_array(cfg(), a, threads, iters, max_ops, h, s),
            Task::QueueOnelock {
                a,
                threads,
                max_ops,
            } => workload::run_queue_onelock(cfg(), a, threads, max_ops, h, s),
            Task::QueueLcrq { threads } => workload::run_queue_lcrq(cfg(), threads, h, s),
            Task::QueueMp2 { threads } => workload::run_queue_mp2(cfg(), threads, h, s),
            Task::QueueMixed {
                a,
                threads,
                enq,
                max_ops,
            } => workload::run_queue_mixed(cfg(), a, threads, enq, max_ops, h, s),
            Task::Stack {
                a,
                threads,
                max_ops,
            } => workload::run_stack(cfg(), a, threads, max_ops, h, s),
            Task::StackTreiber { threads } => workload::run_stack_treiber(cfg(), threads, h, s),
        }
    }
}

/// Global memo over [`Task`]s: the simulator is deterministic, so each
/// distinct task is simulated once and shared — across the experiments that
/// reuse the same counter sweeps (fig3a/3b/4b and the tables) and across
/// pool workers. A worker asking for an in-flight task blocks on its cell
/// instead of re-running it.
#[derive(Default)]
struct Cache {
    map: Mutex<HashMap<Task, Arc<OnceLock<SimResult>>>>,
}

impl Cache {
    fn get(&self, o: &Opts, t: &Task) -> SimResult {
        let cell = {
            let mut m = self.map.lock().unwrap();
            m.entry(t.clone()).or_default().clone()
        };
        cell.get_or_init(|| t.run(o)).clone()
    }

    fn counter(&self, o: &Opts, a: Approach, threads: usize, max_ops: u64) -> SimResult {
        self.get(
            o,
            &Task::Counter {
                a,
                threads,
                max_ops,
            },
        )
    }

    /// (distinct runs executed, host counters summed over them).
    fn stats(&self) -> (u64, HostStats) {
        let m = self.map.lock().unwrap();
        let mut host = HostStats::default();
        let mut runs = 0;
        for cell in m.values() {
            if let Some(r) = cell.get() {
                runs += 1;
                host.merge(&r.host);
            }
        }
        (runs, host)
    }
}

/// The independent simulator runs behind one experiment, in any order.
fn tasks_for(name: &str, o: &Opts) -> Vec<Task> {
    let mut t = Vec::new();
    match name {
        "fig3a" | "fig3b" => {
            for &n in &thread_sweep(o.quick) {
                for a in Approach::ALL {
                    t.push(Task::Counter {
                        a,
                        threads: n,
                        max_ops: 200,
                    });
                }
            }
        }
        "fig3c" => {
            let n = 35.min(workload::max_threads(&cfg(), Approach::HybComb));
            for &m in &max_ops_sweep(o.quick) {
                t.push(Task::Counter {
                    a: Approach::HybComb,
                    threads: n,
                    max_ops: m,
                });
                t.push(Task::Counter {
                    a: Approach::CcSynch,
                    threads: n,
                    max_ops: m,
                });
            }
        }
        "fig4a" => {
            let n = 35.min(cfg().cores() - 1);
            for a in Approach::ALL {
                t.push(Task::CounterFixed {
                    x86: false,
                    a,
                    threads: n,
                });
            }
        }
        "fig4b" => {
            for &n in &thread_sweep(o.quick) {
                t.push(Task::Counter {
                    a: Approach::HybComb,
                    threads: n,
                    max_ops: 200,
                });
                t.push(Task::Counter {
                    a: Approach::CcSynch,
                    threads: n,
                    max_ops: 200,
                });
            }
        }
        "fig4c" => {
            let n = 14.min(cfg().cores() - 1);
            for &iters in &fig4c_iters(o) {
                for a in Approach::ALL {
                    t.push(Task::Array {
                        a,
                        threads: n,
                        iters,
                        max_ops: 200,
                    });
                }
            }
        }
        "fig5a" => {
            for &n in &thread_sweep(o.quick) {
                let t2 = n.min(cfg().cores() - 2);
                for a in Approach::ALL {
                    t.push(Task::QueueOnelock {
                        a,
                        threads: n,
                        max_ops: 200,
                    });
                }
                t.push(Task::QueueLcrq { threads: n });
                t.push(Task::QueueMp2 { threads: t2 });
            }
        }
        "fig5b" => {
            for &n in &thread_sweep(o.quick) {
                for a in Approach::ALL {
                    t.push(Task::Stack {
                        a,
                        threads: n,
                        max_ops: 200,
                    });
                }
                t.push(Task::StackTreiber { threads: n });
            }
        }
        "tab-cas" => {
            for &n in &thread_sweep(o.quick) {
                t.push(Task::Counter {
                    a: Approach::HybComb,
                    threads: n,
                    max_ops: 200,
                });
            }
        }
        "tab-fair" => {
            for &n in &thread_sweep(o.quick) {
                if n < 2 {
                    continue;
                }
                t.push(Task::Counter {
                    a: Approach::HybComb,
                    threads: n,
                    max_ops: 200,
                });
                t.push(Task::Counter {
                    a: Approach::MpServer,
                    threads: n,
                    max_ops: 200,
                });
            }
        }
        "tab-x86" => {
            for a in [Approach::ShmServer, Approach::CcSynch, Approach::MpServer] {
                t.push(Task::CounterFixed {
                    x86: false,
                    a,
                    threads: 10,
                });
                t.push(Task::CounterFixed {
                    x86: true,
                    a,
                    threads: 10,
                });
            }
        }
        "abl-swap" => {
            for &n in &thread_sweep(o.quick) {
                for use_swap in [false, true] {
                    t.push(Task::CounterHyb {
                        threads: n,
                        max_ops: 200,
                        use_swap,
                        eager_drain: true,
                    });
                }
            }
        }
        "abl-nodrain" => {
            for &n in &thread_sweep(o.quick) {
                for eager_drain in [true, false] {
                    t.push(Task::CounterHyb {
                        threads: n,
                        max_ops: 200,
                        use_swap: false,
                        eager_drain,
                    });
                }
            }
        }
        "ext-locks" => {
            for &n in &thread_sweep(o.quick) {
                for kind in LockKind::ALL {
                    t.push(Task::CounterLock { kind, threads: n });
                }
                t.push(Task::Counter {
                    a: Approach::MpServer,
                    threads: n,
                    max_ops: 200,
                });
            }
        }
        "ext-tail" => {
            for a in Approach::ALL {
                t.push(Task::Counter {
                    a,
                    threads: 20,
                    max_ops: 200,
                });
            }
        }
        "ext-imbalance" => {
            for enq in 1..=3usize {
                for a in Approach::ALL {
                    t.push(Task::QueueMixed {
                        a,
                        threads: 20,
                        enq,
                        max_ops: 200,
                    });
                }
            }
        }
        other => unreachable!("experiment {other:?} validated in main"),
    }
    t
}

fn fig4c_iters(o: &Opts) -> Vec<u64> {
    if o.quick {
        vec![0, 2, 6, 10, 15]
    } else {
        (0..=15).collect()
    }
}

fn render(name: &str, o: &Opts, c: &Cache) {
    match name {
        "fig3a" => fig3a(o, c),
        "fig3b" => fig3b(o, c),
        "fig3c" => fig3c(o, c),
        "fig4a" => fig4a(o, c),
        "fig4b" => fig4b(o, c),
        "fig4c" => fig4c(o, c),
        "fig5a" => fig5a(o, c),
        "fig5b" => fig5b(o, c),
        "tab-cas" => tab_cas(o, c),
        "tab-fair" => tab_fair(o, c),
        "tab-x86" => tab_x86(o, c),
        "abl-swap" => abl_swap(o, c),
        "abl-nodrain" => abl_nodrain(o, c),
        "ext-locks" => ext_locks(o, c),
        "ext-tail" => ext_tail(o, c),
        "ext-imbalance" => ext_imbalance(o, c),
        other => unreachable!("experiment {other:?} validated in main"),
    }
}

/// Figure 3a: counter throughput (Mops/s) vs. application threads.
fn fig3a(o: &Opts, c: &Cache) {
    println!("# fig3a: counter throughput vs threads (paper: mp-server up to ~115 Mops/s, 4.3x over shm-server; HybComb ~2.5x over CC-Synch at high concurrency)");
    row(&[
        "threads".into(),
        "mp-server".into(),
        "HybComb".into(),
        "shm-server".into(),
        "CC-Synch".into(),
    ]);
    for &t in &thread_sweep(o.quick) {
        let mut cells = vec![t.to_string()];
        for a in Approach::ALL {
            let r = c.counter(o, a, t, 200);
            cells.push(f(r.mops()));
        }
        row(&cells);
    }
}

/// Figure 3b: average request latency (cycles) vs. application threads.
fn fig3b(o: &Opts, c: &Cache) {
    println!("# fig3b: counter request latency (cycles) vs threads (paper: mp-server lowest; combining latency dips when combining kicks in, then grows)");
    row(&[
        "threads".into(),
        "mp-server".into(),
        "HybComb".into(),
        "shm-server".into(),
        "CC-Synch".into(),
    ]);
    for &t in &thread_sweep(o.quick) {
        let mut cells = vec![t.to_string()];
        for a in Approach::ALL {
            let r = c.counter(o, a, t, 200);
            cells.push(f(r.avg_latency()));
        }
        row(&cells);
    }
}

/// Figure 3c: throughput at maximum load vs. MAX_OPS (log x in the paper).
fn fig3c(o: &Opts, c: &Cache) {
    println!("# fig3c: max-load throughput vs MAX_OPS (paper: HybComb keeps growing to ~88 Mops/s at 5000; CC-Synch saturates early)");
    row(&["max_ops".into(), "HybComb".into(), "CC-Synch".into()]);
    let t = 35.min(workload::max_threads(&cfg(), Approach::HybComb));
    for &m in &max_ops_sweep(o.quick) {
        let hyb = c.counter(o, Approach::HybComb, t, m);
        let cc = c.counter(o, Approach::CcSynch, t, m);
        row(&[m.to_string(), f(hyb.mops()), f(cc.mops())]);
    }
}

/// Figure 4a: stalled vs. total cycles per op on the servicing thread under
/// maximum load, fixed combiner (MAX_OPS = ∞).
fn fig4a(o: &Opts, c: &Cache) {
    println!("# fig4a: servicing-thread cycles/op under max load, fixed combiner (paper: mp-server/HybComb ~no stalls; >50% stalls for shm-server/CC-Synch)");
    row(&[
        "approach".into(),
        "stalled".into(),
        "total".into(),
        "stall_frac".into(),
    ]);
    let t = 35.min(cfg().cores() - 1);
    for a in Approach::ALL {
        let r = c.get(
            o,
            &Task::CounterFixed {
                x86: false,
                a,
                threads: t,
            },
        );
        let core = servicing_core(&r);
        let stalled = r.stalls_per_served_op(core);
        let total = r.cycles_per_served_op(core);
        row(&[
            a.label().into(),
            f(stalled),
            f(total),
            f(stalled / total.max(1e-9)),
        ]);
    }
}

/// Figure 4b: actual combining rate vs. threads.
fn fig4b(o: &Opts, c: &Cache) {
    println!("# fig4b: actual combining rate vs threads, MAX_OPS=200 (paper: ~threads-1 at low concurrency, sharp rise, CC-Synch reaches 200, HybComb slightly below)");
    row(&[
        "threads".into(),
        "HybComb".into(),
        "CC-Synch".into(),
        "HybComb_orphan_frac".into(),
    ]);
    for &t in &thread_sweep(o.quick) {
        let hyb = c.counter(o, Approach::HybComb, t, 200);
        let cc = c.counter(o, Approach::CcSynch, t, 200);
        let orphan_frac = if hyb.metric_sum(Metric::Rounds) == 0 {
            0.0
        } else {
            hyb.metric_sum(Metric::Orphans) as f64 / hyb.metric_sum(Metric::Rounds) as f64
        };
        row(&[
            t.to_string(),
            f(hyb.combining_rate()),
            f(cc.combining_rate()),
            f(orphan_frac),
        ]);
    }
}

/// Figure 4c: cycles per CS execution vs. CS length (array iterations).
fn fig4c(o: &Opts, c: &Cache) {
    println!("# fig4c: cycles per CS vs CS length (paper: constant overhead for mp-server/HybComb; shm-server/CC-Synch overhead shrinks as RMRs overlap; ~10% gap at 15 iters)");
    row(&[
        "iters".into(),
        "mp-server".into(),
        "HybComb".into(),
        "shm-server".into(),
        "CC-Synch".into(),
        "ideal".into(),
    ]);
    let t = 14.min(cfg().cores() - 1);
    for &iters in &fig4c_iters(o) {
        let mut cells = vec![iters.to_string()];
        for a in Approach::ALL {
            let r = c.get(
                o,
                &Task::Array {
                    a,
                    threads: t,
                    iters,
                    max_ops: 200,
                },
            );
            let ops = r.metric_sum(Metric::Ops).max(1);
            cells.push(f(r.cycles as f64 / ops as f64));
        }
        cells.push(f(workload::array_ideal_cycles(&cfg(), iters) as f64));
        row(&cells);
    }
}

/// Figure 5a: queue throughput vs. clients.
fn fig5a(o: &Opts, c: &Cache) {
    println!("# fig5a: queue throughput vs clients (paper: one-lock queues win; mp-server-1 up to 2x and HybComb-1 1.5x over third best; LCRQ and mp-server-2 level off early)");
    row(&[
        "clients".into(),
        "mp-server-1".into(),
        "HybComb-1".into(),
        "shm-server-1".into(),
        "CC-Synch-1".into(),
        "LCRQ".into(),
        "mp-server-2".into(),
    ]);
    for &t in &thread_sweep(o.quick) {
        let t2 = t.min(cfg().cores() - 2);
        let mut cells = vec![t.to_string()];
        for a in Approach::ALL {
            let r = c.get(
                o,
                &Task::QueueOnelock {
                    a,
                    threads: t,
                    max_ops: 200,
                },
            );
            cells.push(f(r.mops()));
        }
        cells.push(f(c.get(o, &Task::QueueLcrq { threads: t }).mops()));
        cells.push(f(c.get(o, &Task::QueueMp2 { threads: t2 }).mops()));
        row(&cells);
    }
}

/// Figure 5b: stack throughput vs. clients.
fn fig5b(o: &Opts, c: &Cache) {
    println!("# fig5b: stack throughput vs clients (paper: mp-server and HybComb coarse stacks win, ~matching the one-lock queue; Treiber collapses under CAS contention)");
    row(&[
        "clients".into(),
        "mp-server".into(),
        "HybComb".into(),
        "shm-server".into(),
        "CC-Synch".into(),
        "Treiber".into(),
    ]);
    for &t in &thread_sweep(o.quick) {
        let mut cells = vec![t.to_string()];
        for a in Approach::ALL {
            let r = c.get(
                o,
                &Task::Stack {
                    a,
                    threads: t,
                    max_ops: 200,
                },
            );
            cells.push(f(r.mops()));
        }
        cells.push(f(c.get(o, &Task::StackTreiber { threads: t }).mops()));
        row(&cells);
    }
}

/// In-text §5.3: CAS executions per apply_op for HYBCOMB.
fn tab_cas(o: &Opts, c: &Cache) {
    println!("# tab-cas: HybComb CAS per operation (paper: ~0.1 at high concurrency, <=0.7 in any multithreaded run)");
    row(&["threads".into(), "cas_per_op".into()]);
    for &t in &thread_sweep(o.quick) {
        let r = c.counter(o, Approach::HybComb, t, 200);
        row(&[t.to_string(), format!("{:.3}", r.cas_per_op())]);
    }
}

/// In-text §5.3: fairness ratio (max/min per-thread ops).
fn tab_fair(o: &Opts, c: &Cache) {
    println!("# tab-fair: fairness ratio max/min ops per thread (paper: HybComb <=1.2 (avg 1.16); mp-server ~1.1)");
    row(&["threads".into(), "HybComb".into(), "mp-server".into()]);
    for &t in &thread_sweep(o.quick) {
        if t < 2 {
            continue;
        }
        let hyb = c.counter(o, Approach::HybComb, t, 200);
        let mp = c.counter(o, Approach::MpServer, t, 200);
        row(&[
            t.to_string(),
            f(hyb.fairness_ratio()),
            f(mp.fairness_ratio()),
        ]);
    }
}

/// §5.5: stall share of the servicing thread as RMRs get more expensive
/// (x86-like costs).
fn tab_x86(o: &Opts, c: &Cache) {
    println!("# tab-x86: servicing-thread stall fraction, TILE-Gx-like vs x86-like RMR costs (paper §5.5: proportionally more stalls on x86 => larger improvement potential)");
    row(&[
        "approach".into(),
        "tile_stall_frac".into(),
        "x86_stall_frac".into(),
    ]);
    let t = 10;
    for a in [Approach::ShmServer, Approach::CcSynch, Approach::MpServer] {
        let frac = |x86: bool| {
            let r = c.get(o, &Task::CounterFixed { x86, a, threads: t });
            let core = servicing_core(&r);
            let s = &r.per_core[core];
            s.stall as f64 / (s.busy + s.stall) as f64
        };
        row(&[a.label().into(), f(frac(false)), f(frac(true))]);
    }
}

/// Ablation: CAS vs SWAP combiner registration (§4.2's design discussion).
fn abl_swap(o: &Opts, c: &Cache) {
    println!("# abl-swap: HybComb with CAS (paper's choice) vs SWAP registration (paper: SWAP lets several threads become combiners with only their own request)");
    row(&[
        "threads".into(),
        "cas_mops".into(),
        "swap_mops".into(),
        "cas_rate".into(),
        "swap_rate".into(),
        "cas_orphans".into(),
        "swap_orphans".into(),
    ]);
    for &t in &thread_sweep(o.quick) {
        let cas = c.get(
            o,
            &Task::CounterHyb {
                threads: t,
                max_ops: 200,
                use_swap: false,
                eager_drain: true,
            },
        );
        let swap = c.get(
            o,
            &Task::CounterHyb {
                threads: t,
                max_ops: 200,
                use_swap: true,
                eager_drain: true,
            },
        );
        let orphans = |r: &SimResult| {
            if r.metric_sum(Metric::Rounds) == 0 {
                0.0
            } else {
                r.metric_sum(Metric::Orphans) as f64 / r.metric_sum(Metric::Rounds) as f64
            }
        };
        row(&[
            t.to_string(),
            f(cas.mops()),
            f(swap.mops()),
            f(cas.combining_rate()),
            f(swap.combining_rate()),
            f(orphans(&cas)),
            f(orphans(&swap)),
        ]);
    }
}

/// Extension: counter throughput under classical spin locks (§3's context),
/// against MP-SERVER — why delegation wins even over a queue lock.
fn ext_locks(o: &Opts, c: &Cache) {
    println!("# ext-locks: counter throughput under classical locks vs mp-server (paper §3: locks pay O(1) RMRs per acquisition *plus* data migration)");
    row(&[
        "threads".into(),
        "tas".into(),
        "ticket".into(),
        "mcs".into(),
        "mp-server".into(),
    ]);
    for &t in &thread_sweep(o.quick) {
        let mut cells = vec![t.to_string()];
        for kind in LockKind::ALL {
            let r = c.get(o, &Task::CounterLock { kind, threads: t });
            cells.push(f(r.mops()));
        }
        let mp = c.counter(o, Approach::MpServer, t, 200);
        cells.push(f(mp.mops()));
        row(&cells);
    }
}

/// Extension: tail latency — §5.3's "sporadic latency hiccups for some
/// requests (when the requesting thread becomes a combiner)".
fn ext_tail(o: &Opts, c: &Cache) {
    println!("# ext-tail: request latency percentiles (cycles; bucketed) at 20 threads (paper §5.3: HybComb trades throughput for sporadic combiner-duty hiccups; mp-server has no such mode)");
    row(&[
        "approach".into(),
        "avg".into(),
        "p50".into(),
        "p90".into(),
        "p99".into(),
    ]);
    let t = 20;
    for a in Approach::ALL {
        let r = c.counter(o, a, t, 200);
        row(&[
            a.label().into(),
            f(r.avg_latency()),
            r.latency_percentile(0.50).to_string(),
            r.latency_percentile(0.90).to_string(),
            r.latency_percentile(0.99).to_string(),
        ]);
    }
}

/// Extension: asymmetric queue mixes (1–3 enqueues per 4 operations).
fn ext_imbalance(o: &Opts, c: &Cache) {
    println!("# ext-imbalance: one-lock queue throughput under asymmetric mixes at 20 threads (1/4 = dequeue-heavy, mostly-empty; 3/4 = enqueue-heavy, drifts full; balanced load is fig5a)");
    row(&[
        "enq_per_4".into(),
        "mp-server".into(),
        "HybComb".into(),
        "shm-server".into(),
        "CC-Synch".into(),
    ]);
    let t = 20;
    for enq in 1..=3usize {
        let mut cells = vec![format!("{enq}/4")];
        for a in Approach::ALL {
            let r = c.get(
                o,
                &Task::QueueMixed {
                    a,
                    threads: t,
                    enq,
                    max_ops: 200,
                },
            );
            cells.push(f(r.mops()));
        }
        row(&cells);
    }
}

/// Ablation: the eager drain loop (Algorithm 1 lines 25–28).
fn abl_nodrain(o: &Opts, c: &Cache) {
    println!("# abl-nodrain: HybComb with vs without the eager drain loop (paper: the loop is not needed for correctness but increases combining potential)");
    row(&[
        "threads".into(),
        "drain_mops".into(),
        "nodrain_mops".into(),
        "drain_rate".into(),
        "nodrain_rate".into(),
    ]);
    for &t in &thread_sweep(o.quick) {
        let drain = c.get(
            o,
            &Task::CounterHyb {
                threads: t,
                max_ops: 200,
                use_swap: false,
                eager_drain: true,
            },
        );
        let nodrain = c.get(
            o,
            &Task::CounterHyb {
                threads: t,
                max_ops: 200,
                use_swap: false,
                eager_drain: false,
            },
        );
        row(&[
            t.to_string(),
            f(drain.mops()),
            f(nodrain.mops()),
            f(drain.combining_rate()),
            f(nodrain.combining_rate()),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_is_described() {
        let described: Vec<&str> = DESCRIPTIONS.iter().map(|(id, _)| *id).collect();
        assert_eq!(described, ALL, "DESCRIPTIONS must mirror ALL, in order");
    }

    #[test]
    fn typos_resolve_to_a_suggestion() {
        assert_eq!(closest_experiment("fig3A"), Some("fig3a"));
        assert_eq!(closest_experiment("tab_cas"), Some("tab-cas"));
        assert_eq!(closest_experiment("ext-imbalnce"), Some("ext-imbalance"));
        assert_eq!(closest_experiment("completely-wrong"), None);
    }
}
