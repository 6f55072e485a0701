//! The run shape every host workload shares: several **epochs**, each one
//! set-up, warm-up and a few timed windows on a freshly built system.
//!
//! Single-shot numbers on a small shared host cannot gate anything (the
//! same 8 s closed loop gave 142k, 151k and 186k ops/s on three tries), so
//! a run is cut into windows and every end-to-end figure is a **median over
//! windows**: throughput and CPU per op of each window, and each window's
//! own exact percentiles. A main thread walks the phase counter forward on
//! the wall clock and reads the process's CPU time at each boundary; client
//! threads read the counter once per op and file the op under the window in
//! which it completed.
//!
//! Why epochs: the windows of one built system agree with each other within
//! a few percent, but each construction settles on its own level (one
//! `cluster-fwd` ran 128–137 hundred ops/s in every window, the next
//! 147–156), so twelve windows on one construction are one sample, not
//! twelve. Building the system [`Plan::epochs`] times in a run and pooling
//! the windows samples the levels as well — and `setup_s` gets its median
//! over several set-ups from the same loop.
//!
//! **The generator gets its own CPUs.** The product's shard servers wait by
//! yield-spinning, so on a small host a saturating run has more runnable
//! threads than cores, and which threads share a core decides the result:
//! with everything floating, ten runs of `apps-mixed` spread 45 % and
//! `wire-closed` 23 % (quartile distance over median). With
//! [`Plan::partition`] the system under test is built on — and so inherits —
//! the upper half of the allowed CPUs and the load-generator threads are
//! pinned to the lower half; the same runs then spread 3 % and 6 %.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::hist::{median, Hist};
use crate::sys::{self, Usage};

/// How one run is shaped. Fixed by the benchmark, the same for every
/// workload and on every commit.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Seed of every generated input.
    pub seed: u64,
    /// Load-generator threads (and connections): `min(nproc, 4)`.
    pub clients: usize,
    /// Untimed lead-in of each epoch, during which caches fill and threads
    /// settle.
    pub warmup: Duration,
    /// Timed windows, shared out among the epochs.
    pub windows: usize,
    /// Length of one window.
    pub window: Duration,
    /// Times the system is built, warmed and measured (at most one epoch per
    /// window); `setup_s` is the median over epochs.
    pub epochs: usize,
    /// Give the load generator and the system under test disjoint halves of
    /// the CPUs (see the module docs). `wire-open` turns it off: its
    /// generator is idle most of the time, and a server squeezed onto one
    /// core with its own yield-spinners answers the tail in whole time
    /// slices (p95 spread 330 % against 31 %).
    pub partition: bool,
}

impl Plan {
    /// The standard shape: `seconds` windows of one second over six epochs,
    /// each after a half-second warm-up.
    pub fn standard(seed: u64, seconds: usize) -> Self {
        Self {
            seed,
            clients: sys::nproc().min(4),
            warmup: Duration::from_millis(500),
            windows: seconds.max(1),
            window: Duration::from_secs(1),
            epochs: 6,
            partition: true,
        }
    }

    /// The CPU halves, or `None` when the plan does not partition or fewer
    /// than two CPUs are allowed.
    fn cpu_split(&self) -> Option<CpuSplit> {
        self.partition.then(CpuSplit::detect).flatten()
    }

    /// The same plan with a quarter of the windows (the traced passes).
    pub fn quarter(&self) -> Self {
        Self {
            windows: (self.windows / 4).max(1),
            ..self.clone()
        }
    }
}

/// The allowed CPUs cut in two: the lower half for the load generator, the
/// upper half for the system under test. A thread's CPU set is inherited by
/// the threads it spawns, so whatever is built while the builder is on the
/// system half stays there — per-connection threads spawned later included.
pub struct CpuSplit {
    generator: Vec<u32>,
    system: u64,
    all: u64,
}

impl CpuSplit {
    /// The split of the calling thread's allowed CPUs; `None` with fewer
    /// than two.
    pub fn detect() -> Option<Self> {
        let all = sys::allowed_cpus();
        let cpus: Vec<u32> = (0..64).filter(|c| all >> c & 1 == 1).collect();
        if cpus.len() < 2 {
            return None;
        }
        let (generator, system) = cpus.split_at(cpus.len() / 2);
        Some(Self {
            generator: generator.to_vec(),
            system: system.iter().fold(0, |m, c| m | 1 << c),
            all,
        })
    }

    /// Moves the calling thread onto the system half.
    pub fn enter_system(&self) {
        sys::pin_current_thread(self.system);
    }

    /// Pins the calling thread to the generator CPU of client `i`.
    pub fn enter_generator(&self, i: usize) {
        sys::pin_current_thread(1 << self.generator[i % self.generator.len()]);
    }

    /// Lets the calling thread run anywhere again.
    pub fn leave(&self) {
        sys::pin_current_thread(self.all);
    }
}

/// What client threads see of the run's progress.
pub struct Ctl {
    /// 0 = warm-up, `1..=windows` = that timed window, `windows + 1` = stop.
    phase: AtomicUsize,
    windows: usize,
    epoch: Instant,
}

impl Ctl {
    /// The current phase; read once per op.
    #[inline]
    pub fn phase(&self) -> usize {
        // Relaxed: the counter publishes nothing but itself.
        self.phase.load(Ordering::Relaxed)
    }

    /// Whether clients should keep issuing ops.
    #[inline]
    pub fn running(&self) -> bool {
        self.phase() <= self.windows
    }

    /// Whether `phase` is one of the timed windows.
    #[inline]
    pub fn is_timed(&self, phase: usize) -> bool {
        (1..=self.windows).contains(&phase)
    }

    /// Nanoseconds since the run's epoch (one clock for every thread, so
    /// spans and due times compare).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One client's tally, pre-allocated: one latency histogram and one counter
/// per phase, so the timed loop never allocates.
pub struct Rec {
    slots: Vec<(u64, Hist)>,
    /// Ops issued (every phase, and the output checks after the run).
    pub attempted: u64,
    /// Ops that errored, timed out, were refused, or returned a wrong result.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Rec {
    fn new(windows: usize) -> Self {
        Self {
            slots: (0..windows + 2).map(|_| (0, Hist::new())).collect(),
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    /// A tally for checks made outside the client threads.
    pub fn untimed() -> Self {
        Self::new(0)
    }

    /// A verified op that completed in `phase` after `lat_ns`.
    #[inline]
    pub fn ok(&mut self, phase: usize, lat_ns: u64) {
        self.attempted += 1;
        let slot = &mut self.slots[phase];
        slot.0 += 1;
        slot.1.record(lat_ns);
    }

    /// A verified op outside the timed loop (preload, read-back).
    #[inline]
    pub fn ok_untimed(&mut self) {
        self.attempted += 1;
    }

    /// A failed op; `why` is evaluated for the first one only.
    #[cold]
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Counts `ok` as a pass or a failure.
    #[inline]
    pub fn check_untimed(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.ok_untimed();
        } else {
            self.fail(why);
        }
    }
}

/// One timed window, all clients together.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Measured length in seconds.
    pub secs: f64,
    /// Verified ops completed.
    pub ops: u64,
    /// Process CPU (user + system) spent, in microseconds.
    pub cpu_us: f64,
    /// Exact median latency of the window's ops, ns (`NaN` if it had none).
    pub p50_ns: f64,
    /// Exact 99th percentile, ns (`NaN` if it had none).
    pub p99_ns: f64,
    /// Context switches.
    pub ctx: u64,
}

/// The end-to-end figures of one run.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    /// Verified ops per second: median over windows.
    pub ops_per_s: f64,
    /// Median over windows of each window's median latency, µs.
    pub p50_us: f64,
    /// Median over windows of process CPU µs per completed op.
    pub cpu_us_per_op: f64,
    /// Construction time plus the warm-up, seconds: median over epochs.
    pub setup_s: f64,
}

/// Median over `windows` of `f`, skipping windows where it is not a number
/// (a window with no ops has no percentile).
fn window_median(windows: &[WindowStats], f: impl Fn(&WindowStats) -> f64) -> f64 {
    let v: Vec<f64> = windows.iter().map(f).filter(|x| x.is_finite()).collect();
    median(&v).unwrap_or(f64::NAN)
}

impl E2e {
    /// Reduces windows to medians.
    pub fn from_windows(windows: &[WindowStats], setup_s: f64) -> Self {
        Self {
            ops_per_s: window_median(windows, |w| w.ops as f64 / w.secs),
            p50_us: window_median(windows, |w| w.p50_ns / 1e3),
            cpu_us_per_op: window_median(windows, |w| w.cpu_us / w.ops as f64),
            setup_s,
        }
    }

    /// `(name, value)` in the order of `spec::END_TO_END`.
    pub fn named(&self) -> [(&'static str, f64); 4] {
        [
            ("ops_per_s", self.ops_per_s),
            ("p50_us", self.p50_us),
            ("cpu_us_per_op", self.cpu_us_per_op),
            ("setup_s", self.setup_s),
        ]
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The end-to-end figures.
    pub e2e: E2e,
    /// The windows behind them.
    pub windows: Vec<WindowStats>,
    /// Ops issued, output checks included.
    pub attempted: u64,
    /// Ops that failed or returned a wrong result.
    pub failed: u64,
    /// What went wrong, if anything (first failure per client, failed checks).
    pub failures: Vec<String>,
    /// Per-layer counters read off this run's own system.
    pub layer: Vec<(&'static str, f64)>,
    /// Raw construction time, ms: median over epochs (`harness.construct_ms`).
    pub construct_ms: f64,
}

impl RunResult {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Median over windows of each window's 99th percentile, µs. Reported
    /// per layer (`loadgen.p99_us`), not end to end: on this host it does
    /// not repeat within any bound the contract allows.
    pub fn p99_us(&self) -> f64 {
        window_median(&self.windows, |w| w.p99_ns / 1e3)
    }

    /// Context switches per thousand ops over the timed windows — a
    /// scheduler-noise flag to read beside the row.
    pub fn ctx_per_kop(&self) -> f64 {
        let (ctx, ops) = self
            .windows
            .iter()
            .fold((0u64, 0u64), |(c, o), w| (c + w.ctx, o + w.ops));
        ctx as f64 * 1e3 / ops.max(1) as f64
    }
}

/// Builds the system under test — on the system half of the CPUs, if the
/// plan partitions — and returns it with the seconds the build took.
pub fn construct<S>(plan: &Plan, build: impl FnOnce() -> S) -> (S, f64) {
    let split = plan.cpu_split();
    if let Some(split) = &split {
        split.enter_system();
    }
    let started = Instant::now();
    let system = build();
    let secs = started.elapsed().as_secs_f64();
    if let Some(split) = &split {
        split.leave();
    }
    (system, secs)
}

/// Runs `epoch` once per epoch of `plan`, each on its share of the windows,
/// and pools the results: windows concatenated (so every figure is a median
/// over all of them), `setup_s` and the construction time the median over
/// epochs, ops and failures summed, per-layer counters and spans from the
/// last epoch.
pub fn epochs<X>(plan: &Plan, mut epoch: impl FnMut(&Plan) -> (RunResult, X)) -> (RunResult, X) {
    let n = plan.epochs.clamp(1, plan.windows.max(1));
    let mut parts = Vec::with_capacity(n);
    let mut extra = None;
    for e in 0..n {
        let share = Plan {
            windows: plan.windows / n + usize::from(e < plan.windows % n),
            epochs: 1,
            ..plan.clone()
        };
        let (part, x) = epoch(&share);
        parts.push(part);
        extra = Some(x);
    }
    let of = |f: fn(&RunResult) -> f64| {
        median(&parts.iter().map(f).collect::<Vec<_>>()).expect("at least one epoch")
    };
    let (setup_s, construct_ms) = (of(|p| p.e2e.setup_s), of(|p| p.construct_ms));
    let windows: Vec<WindowStats> = parts.iter().flat_map(|p| p.windows.clone()).collect();
    let pooled = RunResult {
        e2e: E2e::from_windows(&windows, setup_s),
        windows,
        attempted: parts.iter().map(|p| p.attempted).sum(),
        failed: parts.iter().map(|p| p.failed).sum(),
        failures: parts.iter().flat_map(|p| p.failures.clone()).collect(),
        layer: parts.pop().expect("at least one epoch").layer,
        construct_ms,
    };
    (pooled, extra.expect("at least one epoch"))
}

/// What [`drive`] hands back.
pub struct Driven<T> {
    /// Each client's tally, in client order.
    pub recs: Vec<Rec>,
    /// Each client's return value.
    pub outputs: Vec<T>,
    /// The timed windows.
    pub windows: Vec<WindowStats>,
    /// Seconds from the start of `drive` to the start of the first window.
    pub warmup_s: f64,
}

/// A client body: issue ops while `ctl.running()`, file each under
/// `ctl.phase()` as it completes.
pub type Client<'a, T> = Box<dyn FnOnce(&Ctl, &mut Rec) -> T + Send + 'a>;

/// Runs the clients through warm-up and the timed windows.
pub fn drive<T: Send>(plan: &Plan, clients: Vec<Client<'_, T>>) -> Driven<T> {
    let started = Instant::now();
    let ctl = Ctl {
        phase: AtomicUsize::new(0),
        windows: plan.windows,
        epoch: started,
    };
    let mut recs: Vec<Rec> = clients.iter().map(|_| Rec::new(plan.windows)).collect();
    let mut marks: Vec<(Instant, Usage)> = Vec::with_capacity(plan.windows + 1);
    let split = plan.cpu_split();
    let outputs = std::thread::scope(|s| {
        let ctl = &ctl;
        let handles: Vec<_> = clients
            .into_iter()
            .zip(recs.iter_mut())
            .enumerate()
            .map(|(i, (client, rec))| {
                let split = split.as_ref();
                s.spawn(move || {
                    if let Some(split) = split {
                        split.enter_generator(i);
                    }
                    client(ctl, rec)
                })
            })
            .collect();
        std::thread::sleep(plan.warmup);
        let first = Instant::now();
        marks.push((first, sys::usage()));
        ctl.phase.store(1, Ordering::Relaxed);
        for w in 1..=plan.windows {
            let due = first + plan.window * w as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            marks.push((Instant::now(), sys::usage()));
            ctl.phase.store(w + 1, Ordering::Relaxed);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a load-generator thread panicked"))
            .collect::<Vec<T>>()
    });
    let windows = (1..=plan.windows)
        .map(|w| {
            let ((t0, u0), (t1, u1)) = (marks[w - 1], marks[w]);
            let mut lat = Hist::new();
            let mut ops = 0;
            for rec in &recs {
                ops += rec.slots[w].0;
                lat.merge(&rec.slots[w].1);
            }
            WindowStats {
                secs: (t1 - t0).as_secs_f64(),
                ops,
                cpu_us: (u1.cpu_us - u0.cpu_us) as f64,
                p50_ns: lat.quantile(0.5).unwrap_or(f64::NAN),
                p99_ns: lat.quantile(0.99).unwrap_or(f64::NAN),
                ctx: u1.ctx_switches - u0.ctx_switches,
            }
        })
        .collect();
    Driven {
        recs,
        outputs,
        windows,
        warmup_s: (marks[0].0 - started).as_secs_f64(),
    }
}

impl<T> Driven<T> {
    /// Folds the client tallies and any failed end-of-run checks into the
    /// epoch's result. `construct_s` is what the build took; each failed
    /// check counts as one attempted, failed op.
    pub fn finish(
        self,
        construct_s: f64,
        check_failures: Vec<String>,
        layer: Vec<(&'static str, f64)>,
    ) -> RunResult {
        let checks = check_failures.len() as u64;
        let mut failures = check_failures;
        failures.extend(self.recs.iter().filter_map(|r| r.first_failure.clone()));
        RunResult {
            e2e: E2e::from_windows(&self.windows, construct_s + self.warmup_s),
            attempted: self.recs.iter().map(|r| r.attempted).sum::<u64>() + checks,
            failed: self.recs.iter().map(|r| r.failed).sum::<u64>() + checks,
            windows: self.windows,
            failures,
            layer,
            construct_ms: construct_s * 1e3,
        }
    }
}
