//! `sim-counter36`: where the paper's claims live.
//!
//! `tilesim::workload::run_counter` on the TILE-Gx8036 model, MP-SERVER,
//! HYBCOMB, SHM-SERVER and CC-SYNCH each at its maximum thread count. No
//! host layer takes part; tier-1 spends nearly all its time in this code.
//!
//! One **round** is the four simulations back to back, and a round is this
//! workload's window and its op: the simulator is a black box between the
//! call and the return, and a round takes well over a second. Rounds repeat
//! until the plan's timed span is used. `ops_per_s` is simulated critical
//! sections per host second and `p50_us` the round's host time — medians
//! over rounds.
//!
//! The simulator's input is the machine, not a random stream: its own seed
//! is fixed, so `tilesim.mops.*` repeat exactly whatever `--seed` says.

use std::time::Instant;

use tilesim::algos::Approach;
use tilesim::workload::{max_threads, run_counter, servicing_core};
use tilesim::{MachineConfig, Metric};

use crate::harness::{E2e, Plan, RunResult, WindowStats};
use crate::span::SpanBuf;
use crate::sys;

/// Simulated cycles per run. HYBCOMB needs about 10k cycles to get going;
/// below 20k the paper's ordering does not hold yet. (The issue's 200k takes
/// 18 s a round on this host, beyond any run the contract allows.)
pub const HORIZON: u64 = 20_000;
/// The paper's combining bound.
const MAX_OPS: u64 = 200;
const SIM_SEED: u64 = 1;

/// The order results are reported in.
pub const APPROACHES: [Approach; 4] = [
    Approach::MpServer,
    Approach::HybComb,
    Approach::ShmServer,
    Approach::CcSynch,
];

/// One simulation's figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Critical sections completed.
    pub ops: u64,
    /// Simulated throughput, Mops/s at the model's clock.
    pub mops: f64,
    /// Stalled cycles per op on the servicing core (paper Fig. 4).
    pub stalls_per_op: f64,
}

/// One round: the four simulations, plus what they cost the host.
#[derive(Debug, Clone)]
pub struct Round {
    /// Per approach, in [`APPROACHES`] order. Deterministic.
    pub sims: [Sim; 4],
    /// Host seconds.
    pub secs: f64,
    /// Times a simulated thread parked waiting for the engine.
    pub proc_parks: u64,
}

impl Round {
    /// Simulated critical sections, all four runs.
    pub fn ops(&self) -> u64 {
        self.sims.iter().map(|s| s.ops).sum()
    }

    /// The paper's ordering at 36 cores: MP-SERVER beats SHM-SERVER, and
    /// HYBCOMB beats CC-SYNCH.
    pub fn ordering_holds(&self) -> bool {
        let [mp, hyb, shm, cc] = self.sims.map(|s| s.mops);
        mp > shm && hyb > cc
    }
}

impl Round {
    /// The `tilesim.*` per-layer metrics of this round.
    pub fn layer(&self) -> Vec<(&'static str, f64)> {
        let [mp, hyb, shm, cc] = self.sims;
        vec![
            ("tilesim.mops.mp_server", mp.mops),
            ("tilesim.mops.hybcomb", hyb.mops),
            ("tilesim.mops.shm_server", shm.mops),
            ("tilesim.mops.cc_synch", cc.mops),
            ("tilesim.stalls_per_op.mp_server", mp.stalls_per_op),
            ("tilesim.stalls_per_op.shm_server", shm.stalls_per_op),
            (
                "tilesim.host_ns_per_sim_op",
                self.secs * 1e9 / self.ops() as f64,
            ),
            ("tilesim.proc_parks", self.proc_parks as f64),
        ]
    }
}

/// Runs one round.
pub fn round() -> Round {
    let started = Instant::now();
    let mut proc_parks = 0;
    let sims = APPROACHES.map(|a| {
        let cfg = MachineConfig::tile_gx8036();
        let threads = max_threads(&cfg, a);
        let r = run_counter(cfg, a, threads, MAX_OPS, HORIZON, SIM_SEED);
        proc_parks += r.host.proc_parks;
        Sim {
            ops: r.metric_sum(Metric::Ops),
            mops: r.mops(),
            stalls_per_op: r.stalls_per_served_op(servicing_core(&r)),
        }
    });
    Round {
        sims,
        secs: started.elapsed().as_secs_f64(),
        proc_parks,
    }
}

/// Runs the workload; with `traced`, also returns one span per round.
pub fn run(plan: &Plan, traced: bool) -> (RunResult, Vec<SpanBuf>) {
    let started = Instant::now();
    let mut buf = SpanBuf::new(0, 256, 1);
    // Warm-up: one untimed round (threads spawned, allocator grown).
    let reference = round();
    let setup_s = started.elapsed().as_secs_f64();

    let span = plan.window * plan.windows as u32;
    let timed = Instant::now();
    let (mut windows, mut failures) = (Vec::new(), Vec::new());
    let mut attempted = APPROACHES.len() as u64;
    while windows.len() < 3 || timed.elapsed() < span {
        let before = sys::usage();
        let t0 = started.elapsed().as_nanos() as u64;
        let r = round();
        let after = sys::usage();
        attempted += APPROACHES.len() as u64;
        if r.sims != reference.sims {
            failures.push(format!(
                "simulation is not deterministic: {:?} then {:?}",
                reference.sims, r.sims
            ));
        }
        if !r.ordering_holds() {
            failures.push(format!("the paper's ordering does not hold: {:?}", r.sims));
        }
        let t1 = started.elapsed().as_nanos() as u64;
        buf.span("round", "tilesim", windows.len() as u64, t0, t1);
        windows.push(WindowStats {
            secs: r.secs,
            ops: r.ops(),
            cpu_us: (after.cpu_us - before.cpu_us) as f64,
            p50_ns: r.secs * 1e9,
            p99_ns: r.secs * 1e9,
            ctx: after.ctx_switches - before.ctx_switches,
        });
    }
    // A window here holds one sample — the round — so `p50_us` comes out
    // as the median round.
    let e2e = E2e::from_windows(&windows, setup_s);
    let failed = failures.len() as u64;
    let result = RunResult {
        e2e,
        windows,
        attempted,
        failed,
        failures,
        layer: reference.layer(),
        construct_ms: 0.0,
    };
    (result, if traced { vec![buf] } else { Vec::new() })
}
