//! Native microbenchmark of the sharded delegation runtime
//! (`mpsync-runtime`): keyed fetch-and-increment throughput swept over
//! shard count × executor backend, plus a report of per-shard throughput
//! and the achieved batch-size distribution (the runtime's observed
//! combining degree).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use mpsync_bench::f;
use mpsync_runtime::{Backend, CounterSession, RuntimeConfig, ShardedCounter};
use mpsync_telemetry as telemetry;
use mpsync_telemetry::TelemetryReport;

/// Concurrent client sessions (kept at the host's physical core budget).
const SESSIONS: usize = 2;
/// Distinct keys touched, spread across shards by the runtime's striping.
const KEYS: u64 = 64;
/// Operations per session per measured iteration.
const OPS_PER_ITER: u64 = 256;

fn config(backend: Backend, shards: usize) -> RuntimeConfig {
    RuntimeConfig::new(shards)
        .with_backend(backend)
        .with_max_sessions(SESSIONS)
        .with_queue_depth(16)
}

/// Runs `ops` keyed increments on every session concurrently. Sessions are
/// created once and reused across iterations.
fn hammer(sessions: &mut [CounterSession], ops: u64) {
    std::thread::scope(|scope| {
        for (t, s) in sessions.iter_mut().enumerate() {
            scope.spawn(move || {
                for i in 0..ops {
                    // Per-session stride so sessions collide on some keys
                    // but not in lockstep.
                    s.fetch_inc((t as u64 * 31 + i) % KEYS)
                        .expect("runtime open");
                }
            });
        }
    });
}

fn bench_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_keyed_inc");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for backend in Backend::ALL {
        for shards in [1usize, 2, 4] {
            let svc = ShardedCounter::new(config(backend, shards));
            let mut sessions: Vec<CounterSession> = (0..SESSIONS)
                .map(|_| svc.session().expect("session budget"))
                .collect();
            g.bench_function(format!("{}/shards={shards}", backend.label()), |b| {
                b.iter(|| hammer(&mut sessions, OPS_PER_ITER))
            });
            drop(sessions);
            svc.shutdown();
        }
    }
    g.finish();
}

/// Not a criterion measurement: one fixed-size run per backend, printing
/// per-shard throughput, the batch-size distribution the runtime achieved
/// (`RuntimeStats` is the interface under test here) and — when the
/// `telemetry` feature is on — the per-phase latency table: submit,
/// queue-wait and serve histograms with p50/p95/p99, reset between
/// backends so each table describes one backend only.
fn report_shard_distribution(_c: &mut Criterion) {
    const SHARDS: usize = 4;
    const OPS: u64 = 20_000;
    println!("\n# runtime shard report: {SESSIONS} sessions x {OPS} ops, {SHARDS} shards");
    for backend in Backend::ALL {
        telemetry::reset();
        let svc = ShardedCounter::new(config(backend, SHARDS));
        let mut sessions: Vec<CounterSession> = (0..SESSIONS)
            .map(|_| svc.session().expect("session budget"))
            .collect();
        let t0 = Instant::now();
        hammer(&mut sessions, OPS);
        let secs = t0.elapsed().as_secs_f64();
        drop(sessions);
        let (_totals, stats) = svc.shutdown();
        let per_shard: Vec<String> = stats
            .shards
            .iter()
            .map(|s| f(s.ops as f64 / secs / 1e6))
            .collect();
        println!(
            "# {:<10} total {} Mops/s, per-shard Mops/s [{}], avg batch {}",
            backend.label(),
            f(stats.total_ops() as f64 / secs / 1e6),
            per_shard.join(" "),
            f(stats.avg_batch()),
        );
        print!("{stats}");
        println!(
            "# {} runtime stats json: {}",
            backend.label(),
            stats.to_json()
        );
        let latencies = TelemetryReport::capture();
        if !latencies.is_empty() {
            println!("# {} latencies (ns):", backend.label());
            print!("{latencies}");
        }
    }
    telemetry::reset();
}

criterion_group!(benches, bench_runtime, report_shard_distribution);
criterion_main!(benches);
