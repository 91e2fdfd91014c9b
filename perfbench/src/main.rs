//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <steady_peak|full_table|fault_churn|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for as many repetitions as nominally fit in
//! `--seconds` (at least three untraced), checks its outputs, and prints
//! a table and, as the last line of standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits nonzero when a check fails.
//! `--workload all` runs every workload, each in a process of its own so
//! that its peak memory is its own.

use std::process::{Command, ExitCode};

use ef_perfbench::bench;
use ef_perfbench::catalog::PER_LAYER;
use ef_perfbench::workload::{Scale, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Runs every workload in a child process of this binary.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let reps = workload.reps_for(args.seconds);
    let outcome = if args.trace {
        bench::run_traced(workload, args.seed, Scale::Full, reps)
    } else {
        bench::run_untraced(workload, args.seed, Scale::Full, reps)
    };
    print!("{}", outcome.table());
    if args.trace {
        println!("  predictions (per-layer metric -> end-to-end metric, workloads):");
        for l in PER_LAYER {
            println!("    {:<34} -> {:<16} on {}", l.name, l.moves, l.on);
        }
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
