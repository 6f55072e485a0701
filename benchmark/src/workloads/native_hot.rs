//! `native-hot`: the paper's contended-counter experiment on the host.
//!
//! Closed loop, `clients` threads, an in-process `ShardedCounter` with one
//! shard on the default backend, every op a `fetch_inc` on one key. udn,
//! core and the runtime's shard loop with its batching do all the work; net,
//! cluster and apps do none.

use mpsync_runtime::{RuntimeConfig, ShardedCounter, MAX_KEY};

use crate::harness::{construct, drive, Client, Plan, RunResult};
use crate::rng::Rng;
use crate::span::SpanBuf;

/// What one client saw, for the distinctness check.
struct Seen {
    acked: u64,
    sum: u128,
    sum_sq: u128,
}

/// What the runtime reported at the end of a hot run (the `runtime.hot.*`
/// and `runtime.adaptive.switches` probes run this same load briefly).
pub struct HotStats {
    /// Ops served per service round.
    pub avg_batch: f64,
    /// Submissions refused.
    pub rejected: u64,
    /// Backend switches completed (always 0 on a fixed backend).
    pub switches: u64,
}

/// Runs one epoch; with `traced`, also returns each client's spans.
pub fn run(plan: &Plan, traced: bool) -> (RunResult, Vec<SpanBuf>) {
    let (result, bufs, _) = run_on(plan, traced, RuntimeConfig::new(1));
    (result, bufs)
}

/// One epoch on an explicit one-shard runtime configuration.
pub fn run_on(
    plan: &Plan,
    traced: bool,
    config: RuntimeConfig,
) -> (RunResult, Vec<SpanBuf>, HotStats) {
    let key = Rng::stream(plan.seed, 0x11).below(MAX_KEY);
    let ((svc, sessions), construct_s) = construct(plan, || {
        let svc = ShardedCounter::new(config);
        let sessions: Vec<_> = (0..plan.clients)
            .map(|_| svc.session().expect("a fresh runtime admits sessions"))
            .collect();
        (svc, sessions)
    });
    let mut bufs = SpanBuf::per_client(traced, plan.clients, 256);
    let mut buf_of = bufs.iter_mut();
    let clients: Vec<Client<'_, Seen>> = sessions
        .into_iter()
        .map(|mut s| {
            let mut spans = buf_of.next();
            let body: Client<'_, Seen> = Box::new(move |ctl, rec| {
                let mut seen = Seen {
                    acked: 0,
                    sum: 0,
                    sum_sq: 0,
                };
                let mut last: Option<u64> = None;
                let mut t_prev = ctl.now_ns();
                while ctl.running() {
                    let got = s.fetch_inc(key);
                    let now = ctl.now_ns();
                    match got {
                        // Pre-values a client sees must rise: its ops are
                        // applied in its own order.
                        Ok(v) if last.is_none_or(|l| v > l) => {
                            rec.ok(ctl.phase(), now - t_prev);
                            last = Some(v);
                            seen.sum += v as u128;
                            seen.sum_sq += v as u128 * v as u128;
                            if let Some(sb) = spans.as_deref_mut() {
                                sb.span("op", "harness", seen.acked, t_prev, now);
                                sb.span("submit", "runtime", seen.acked, t_prev, now);
                            }
                            seen.acked += 1;
                        }
                        Ok(v) => rec.fail(|| format!("pre-value {v} after {last:?}")),
                        Err(e) => rec.fail(|| format!("fetch_inc: {e}")),
                    }
                    t_prev = now;
                }
                seen
            });
            body
        })
        .collect();
    let driven = drive(plan, clients);
    drop(buf_of);

    // Output check: the counter ends at the number of acked ops, and the
    // pre-values handed out are exactly 0..n — none twice, none skipped
    // (count, sum and sum of squares all match the closed forms).
    let switches = svc.swap_epoch(0);
    let (totals, stats) = svc.shutdown();
    let n: u128 = driven.outputs.iter().map(|s| s.acked as u128).sum();
    let sum: u128 = driven.outputs.iter().map(|s| s.sum).sum();
    let sum_sq: u128 = driven.outputs.iter().map(|s| s.sum_sq).sum();
    let mut failures = Vec::new();
    let last = totals.get(&key).copied().unwrap_or(0);
    if last as u128 != n {
        failures.push(format!("counter ended at {last}, acked {n}"));
    }
    if n > 0 && (sum != n * (n - 1) / 2 || sum_sq != (n - 1) * n * (2 * n - 1) / 6) {
        failures.push("pre-values are not exactly 0..n".to_string());
    }
    let hot = HotStats {
        avg_batch: stats.avg_batch(),
        rejected: stats.total_rejected(),
        switches,
    };
    let result = driven.finish(construct_s, failures, Vec::new());
    (result, bufs, hot)
}
