//! `Ctx::spin_until` against the loop it stands for. The engine runs a spin
//! without resuming the proc, asleep on its line between invalidations;
//! every test here runs the same procs twice — once with the engine op,
//! once with the written-out read-then-backoff loop — and requires the
//! whole model result (everything but `host`) to be equal.

use std::cell::RefCell;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tilesim::{
    Addr, Backoff, CoreStats, Ctx, Engine, MachineConfig, Metric, SimResult, Until, N_METRICS,
    WORDS_PER_LINE,
};

/// How a proc's spins run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `Ctx::spin_until`.
    Engine,
    /// The reference: a `read`, then a `work` of the next pause, until the
    /// value satisfies the condition.
    Loop,
}

thread_local! {
    /// `(cycle, core)` of every read a written-out spin issues on this test
    /// thread. The tie case checks against it that a write really landed on
    /// a spinner's read cycle.
    static LOOP_READS: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

async fn spin(ctx: &mut Ctx, mode: Mode, a: Addr, until: Until, backoff: &mut Backoff) -> u64 {
    match mode {
        Mode::Engine => ctx.spin_until(a, until, backoff).await,
        Mode::Loop => loop {
            let at = (ctx.now(), ctx.core());
            LOOP_READS.with(|r| r.borrow_mut().push(at));
            let v = ctx.read(a).await;
            if until.holds(v) {
                return v;
            }
            ctx.work(backoff.advance()).await;
        },
    }
}

/// One step of a proc's program, which it repeats until the horizon.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// At least one cycle, so that every program advances time.
    Work(u64),
    Read(Addr),
    Write(Addr, u64),
    Faa(Addr),
    Swap(Addr, u64),
    Cas(Addr, u64, u64),
    /// `(dest, words)`.
    Send(usize, usize),
    Recv(usize),
    /// `carry` spins share one backoff per proc, as the TAS lock's do.
    Spin {
        addr: Addr,
        until: Until,
        start: u64,
        cap: u64,
        carry: bool,
    },
    /// Ends the proc's body.
    Halt,
}

fn spin_op(addr: Addr, until: Until) -> Op {
    Op::Spin {
        addr,
        until,
        start: 2,
        cap: 32,
        carry: false,
    }
}

fn add_proc(e: &mut Engine, prog: Vec<Op>, mode: Mode) {
    e.add_proc(async move |ctx| {
        let mut carried: Option<Backoff> = None;
        loop {
            for &op in &prog {
                // Every value and every resume time feeds the metrics, so
                // a timing or ordering difference cannot hide.
                let v = match op {
                    Op::Work(c) => {
                        ctx.work(c).await;
                        0
                    }
                    Op::Read(a) => ctx.read(a).await,
                    Op::Write(a, v) => {
                        ctx.write(a, v).await;
                        0
                    }
                    Op::Faa(a) => ctx.faa(a, 1).await,
                    Op::Swap(a, v) => ctx.swap(a, v).await,
                    Op::Cas(a, old, new) => ctx.cas(a, old, new).await as u64,
                    Op::Send(dest, n) => {
                        let msg = vec![ctx.core() as u64; n];
                        ctx.send(dest, &msg).await;
                        0
                    }
                    Op::Recv(k) => ctx.receive(k).await.iter().sum(),
                    Op::Spin {
                        addr,
                        until,
                        start,
                        cap,
                        carry,
                    } => {
                        let mut fresh = Backoff::new(start, cap);
                        let backoff = if carry {
                            carried.get_or_insert(fresh)
                        } else {
                            &mut fresh
                        };
                        let v = spin(ctx, mode, addr, until, backoff).await;
                        ctx.record(Metric::CustomA, backoff.current());
                        v
                    }
                    Op::Halt => return,
                };
                let now = ctx.now();
                ctx.record(Metric::Ops, 1);
                ctx.record(Metric::LatSum, now);
                ctx.record(Metric::CustomB, v);
            }
        }
    });
}

/// Everything in a result that describes the simulated machine.
type Model = (u64, u64, Vec<CoreStats>, Vec<[u64; N_METRICS]>);

fn model(r: &SimResult) -> Model {
    (r.cycles, r.end_clock, r.per_core.clone(), r.metrics.clone())
}

fn run(cfg: MachineConfig, progs: &[Vec<Op>], horizon: u64, mode: Mode) -> SimResult {
    let mut e = Engine::new(cfg);
    for prog in progs {
        add_proc(&mut e, prog.clone(), mode);
    }
    e.run(horizon)
}

/// Runs `progs` both ways, asserts the models equal, and returns the
/// reference result and the engine's handoff count.
fn check(cfg: MachineConfig, progs: &[Vec<Op>], horizon: u64) -> (SimResult, u64) {
    let engine = run(cfg, progs, horizon, Mode::Engine);
    let reference = run(cfg, progs, horizon, Mode::Loop);
    assert_eq!(
        model(&engine),
        model(&reference),
        "horizon {horizon}, programs {progs:?}"
    );
    (reference, engine.host.handoffs)
}

fn mesh(rows: usize, cols: usize) -> MachineConfig {
    MachineConfig {
        rows,
        cols,
        ..MachineConfig::tile_gx8036()
    }
}

const A: Addr = 4 * WORDS_PER_LINE;

#[test]
fn horizon_inside_a_backoff_phase_and_on_a_read() {
    // A spinner woken every ~100 cycles by a write that never ends its
    // spin, and a proc that keeps the heap busy. Every cycle up to 700 is
    // tried as the horizon, so it falls on each of the spinner's reads and
    // inside each of its backoff phases, early and at the cap.
    let progs = [
        vec![spin_op(A, Until::Equals(1))],
        vec![Op::Work(97), Op::Write(A, 2)],
        vec![Op::Work(5)],
    ];
    for h in 1..700 {
        check(mesh(2, 2), &progs, h);
    }
    let reads = LOOP_READS.with(|r| r.borrow().len());
    assert!(reads > 1_000, "the spinner read only {reads} times");
}

#[test]
fn a_spinner_nobody_wakes() {
    // The other proc halts, so the heap runs empty with the spinner asleep:
    // that is not quiescence, and it spins on to the horizon.
    let progs = [
        vec![spin_op(A, Until::Differs(0))],
        vec![Op::Work(30), Op::Write(A + 1, 5), Op::Halt],
    ];
    let handoffs: Vec<u64> = [1, 17, 1_000, 7_777, 200_000]
        .into_iter()
        .map(|h| check(mesh(2, 2), &progs, h).1)
        .collect();
    // Once the writer has halted, a longer run costs no more resumptions.
    assert!(
        handoffs[2..].iter().all(|&n| n == handoffs[2]),
        "{handoffs:?}"
    );
}

#[test]
fn two_sleepers_on_one_line() {
    let spinner = |a| vec![spin_op(a, Until::Differs(0)), spin_op(a, Until::Equals(0))];
    let progs = [
        spinner(A),
        spinner(A + 1),
        vec![
            Op::Work(150),
            Op::Write(A, 1),
            Op::Write(A + 1, 1),
            Op::Work(150),
            Op::Write(A + 1, 0),
            Op::Write(A, 0),
        ],
    ];
    for h in [500, 5_000, 20_000] {
        check(mesh(2, 2), &progs, h);
    }
}

#[test]
fn a_write_to_another_word_of_the_line_wakes_the_spinner() {
    let progs = [
        vec![spin_op(A, Until::Equals(1)), spin_op(A, Until::Equals(0))],
        vec![
            Op::Work(40),
            Op::Write(A + 1, 5),
            Op::Work(60),
            Op::Write(A + 2, 6),
            Op::Work(200),
            Op::Write(A, 1),
            Op::Work(10),
            Op::Write(A, 0),
        ],
    ];
    for h in [300, 3_000, 20_000] {
        check(mesh(2, 2), &progs, h);
    }
}

#[test]
fn a_write_on_a_spinners_read_cycle_orders_by_core_id() {
    let spinner = vec![spin_op(A, Until::Differs(0)), spin_op(A, Until::Equals(0))];
    // The writer's first write is issued on cycle `d` exactly.
    let writer = |d| vec![Op::Work(d), Op::Write(A, 1), Op::Work(70), Op::Write(A, 0)];
    for writer_first in [true, false] {
        let mut ties = 0;
        for d in 1..300 {
            let progs = if writer_first {
                [writer(d), spinner.clone()]
            } else {
                [spinner.clone(), writer(d)]
            };
            let spinner_core = usize::from(writer_first);
            LOOP_READS.with(|r| r.borrow_mut().clear());
            check(mesh(2, 2), &progs, 3_000);
            ties += LOOP_READS.with(|r| r.borrow().contains(&(d, spinner_core))) as u32;
        }
        assert!(
            ties > 0,
            "no write landed on a read (writer first: {writer_first})"
        );
    }
}

#[test]
fn senders_blocked_on_a_small_queue() {
    // Three clients send to a server whose queue holds two words, then spin
    // on the line the server writes once it has drained them.
    let cfg = MachineConfig {
        queue_capacity: 2,
        ..mesh(2, 2)
    };
    let client = vec![
        Op::Send(0, 1),
        spin_op(A, Until::Equals(1)),
        spin_op(A, Until::Equals(0)),
    ];
    let progs = [
        vec![
            Op::Work(40),
            Op::Recv(1),
            Op::Recv(1),
            Op::Recv(1),
            Op::Work(50),
            Op::Write(A, 1),
            Op::Work(50),
            Op::Write(A, 0),
        ],
        client.clone(),
        client.clone(),
        client,
    ];
    for h in [1_000, 20_000] {
        let (reference, _) = check(cfg, &progs, h);
        let blocked: u64 = reference.per_core.iter().map(|c| c.blocked_sends).sum();
        assert!(blocked > 0, "no sender blocked at horizon {h}");
    }
}

/// A random program over three words of each of three lines, with small
/// values so that spins both sleep and end.
fn program(rng: &mut StdRng, procs: usize, queue_capacity: usize) -> Vec<Op> {
    let len = rng.gen_range(1..8);
    let mut prog: Vec<Op> = (0..len)
        .map(|_| {
            let addr = rng.gen_range(0..3) * WORDS_PER_LINE + rng.gen_range(0..3);
            let v = rng.gen_range(0..3);
            match rng.gen_range(0..20) {
                0..=2 => Op::Work(rng.gen_range(1..80)),
                3 => Op::Read(addr),
                4..=6 => Op::Write(addr, v),
                7 => Op::Faa(addr),
                8 => Op::Swap(addr, v),
                9 => Op::Cas(addr, v, rng.gen_range(0..3)),
                10 => Op::Send(
                    rng.gen_range(0..procs),
                    rng.gen_range(1..=queue_capacity.min(3)),
                ),
                11 => Op::Recv(rng.gen_range(1..=queue_capacity.min(3))),
                12 if rng.gen_range(0..4) == 0 => Op::Halt,
                _ => {
                    let start = rng.gen_range(1..9);
                    Op::Spin {
                        addr,
                        until: match rng.gen() {
                            true => Until::Equals(v),
                            false => Until::Differs(v),
                        },
                        start,
                        cap: rng.gen_range(start..=64),
                        carry: rng.gen(),
                    }
                }
            }
        })
        .collect();
    prog.push(Op::Work(1));
    prog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn spin_until_is_the_read_work_loop(
        seed in any::<u64>(),
        procs in 2usize..7,
        queue_capacity in prop_oneof![Just(2usize), Just(4), Just(118)],
        horizon in 1u64..6_000,
    ) {
        let cfg = MachineConfig { queue_capacity, ..mesh(3, 3) };
        let mut rng = StdRng::seed_from_u64(seed);
        let progs: Vec<Vec<Op>> =
            (0..procs).map(|_| program(&mut rng, procs, queue_capacity)).collect();
        let engine = run(cfg, &progs, horizon, Mode::Engine);
        let reference = run(cfg, &progs, horizon, Mode::Loop);
        prop_assert_eq!(model(&engine), model(&reference), "programs {:?}", progs);
    }
}
