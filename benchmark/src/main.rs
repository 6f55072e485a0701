//! Command line of the benchmark. See `README.md` beside this crate.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mpsync_benchmark::harness::{Plan, RunResult};
use mpsync_benchmark::{report, run, spec, workloads};

const USAGE: &str = "\
usage: mpsync-benchmark [--seed N] [--seconds N] [--traced | --aa]
       mpsync-benchmark --workload NAME --seed N --seconds N --trace 0|1
       mpsync-benchmark --print-benchmark-json

With no --workload: every workload, tracing off; prints each end-to-end
metric by name and writes benchmark/out/results.json. --traced adds the
per-layer pass (ladder, probes, spans); --aa runs the set twice (the second
pass on seed+1) and exits non-zero if any cell disagrees by more than its
bound. With --workload: one workload, and the last line of standard output
is the result as one JSON object (--trace 1: the per-layer metrics).";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: usize,
    traced: bool,
    aa: bool,
    print_json: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS,
        traced: false,
        aa: false,
        print_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |s: String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {s:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.clamp(1, 60) as usize,
            "--trace" => args.traced = number(value()?)? != 0,
            "--traced" => args.traced = true,
            "--aa" => args.aa = true,
            "--print-benchmark-json" => args.print_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !spec::WORKLOADS.iter().any(|s| s.name == w) {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(args)
}

/// `benchmark/out/`, beside this crate's manifest: inside the checkout
/// wherever the command is run from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mpsync-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let plan = Plan::standard(args.seed, args.seconds);
    match &args.workload {
        Some(name) => one_workload(name, &plan, args.traced),
        None if args.aa => aa(&plan),
        None => suite(&plan, args.traced),
    }
}

/// The driver's form: one workload, the contract's JSON object last.
fn one_workload(name: &str, plan: &Plan, traced: bool) -> ExitCode {
    let line = if traced {
        let shared = run::shared_layers(plan.clients);
        let t = run::traced(name, plan, &shared, Some(&out_dir())).expect("name was checked");
        print!("{}", report::layer_table(&t.per_layer));
        print!("{}", report::budget_table(&t.per_layer));
        print!(
            "{}",
            report::e2e_table(&[(name, &t.untraced), (name, &t.traced)])
        );
        report::contract_line(
            t.untraced.correct() && t.traced.correct(),
            t.untraced.attempted + t.traced.attempted,
            t.untraced.failed + t.traced.failed,
            &t.per_layer,
        )
    } else {
        let (r, _) = workloads::run(name, plan, false).expect("name was checked");
        print!("{}", report::window_table(&r));
        print!("{}", report::e2e_table(&[(name, &r)]));
        report::contract_line(r.correct(), r.attempted, r.failed, &r.e2e.named())
    };
    println!("{line}");
    ExitCode::SUCCESS
}

fn all_untraced(plan: &Plan) -> Vec<(&'static str, RunResult)> {
    spec::WORKLOADS
        .iter()
        .map(|w| {
            eprintln!("running {} ...", w.name);
            let (r, _) = workloads::run(w.name, plan, false).expect("a listed workload");
            (w.name, r)
        })
        .collect()
}

fn refs<'a>(rows: &'a [(&'static str, RunResult)]) -> Vec<(&'a str, &'a RunResult)> {
    rows.iter().map(|(n, r)| (*n, r)).collect()
}

/// Every workload, tracing off; with `traced`, the per-layer pass as well.
fn suite(plan: &Plan, traced: bool) -> ExitCode {
    let rows = all_untraced(plan);
    let mut per_layer = Vec::new();
    if traced {
        eprintln!("running the ladder and the probes ...");
        let shared = run::shared_layers(plan.clients);
        for w in &spec::WORKLOADS {
            eprintln!("tracing {} ...", w.name);
            let t =
                run::traced(w.name, plan, &shared, Some(&out_dir())).expect("a listed workload");
            println!("--- per-layer metrics, traced run of {} ---", w.name);
            print!("{}", report::layer_table(&t.per_layer));
            per_layer.push((w.name, t.per_layer));
        }
        if let Some((_, metrics)) = per_layer.first() {
            print!("{}", report::budget_table(metrics));
        }
    }
    print!("{}", report::e2e_table(&refs(&rows)));
    let path = out_dir().join("results.json");
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, report::results_json(plan, &refs(&rows), &per_layer)));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    if rows.iter().all(|(_, r)| r.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two passes of the same code, compared cell by cell against the bounds.
fn aa(plan: &Plan) -> ExitCode {
    let first = all_untraced(plan);
    let second = all_untraced(&Plan {
        seed: plan.seed + 1,
        ..plan.clone()
    });
    print!("{}", report::e2e_table(&refs(&first)));
    print!("{}", report::e2e_table(&refs(&second)));
    let (table, ok) = report::aa_table(&refs(&first), &refs(&second));
    print!("{table}");
    if ok {
        println!("A/A: every cell within its bound");
        ExitCode::SUCCESS
    } else {
        println!("A/A: BREACH");
        ExitCode::FAILURE
    }
}
