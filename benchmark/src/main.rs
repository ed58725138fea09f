//! The repo benchmark. See `README.md` beside this package; run it
//! through `run.sh`, which builds it first.
//!
//! `smdb-benchmark --workload W --seed N --seconds S --trace 0|1 --out DIR`
//! runs one workload once and prints every metric as
//! `workload metric value unit n_samples`, then one JSON object as the
//! last line of standard output. It exits non-zero when an answer was
//! wrong, an operation failed, or a metric could not be measured.

mod fixture;
mod harness;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::Options;
use report::{END_TO_END, PER_LAYER};
use workloads::WorkloadKind;

/// Closed-loop client threads. The only other threads are `scan_agg`'s
/// scan pool, itself capped at the core count.
const CLIENT_THREADS: usize = 1;

fn usage() -> String {
    let names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: smdb-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut traced = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            traced = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    WorkloadKind::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds.is_finite() && (1.0..=600.0).contains(&seconds)) {
                    return Err(format!("--seconds {value}: want 1..=600"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            "--out" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    Ok(Options {
        kind: kind.ok_or_else(usage)?,
        seed,
        seconds,
        traced,
        out_dir,
    })
}

fn run(opts: &Options) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if CLIENT_THREADS > cores {
        return Err(format!(
            "{CLIENT_THREADS} client thread(s) on {cores} core(s): refusing to run"
        ));
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let name = opts.kind.name();
    println!(
        "# workload={name} seed={} seconds={} traced={} clients={CLIENT_THREADS} nproc={cores} commit={}",
        opts.seed,
        opts.seconds,
        opts.traced,
        std::env::var("SMDB_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    let outcome = if opts.traced {
        layers::run_traced(opts)
    } else {
        harness::run_untraced(opts)
    }
    .map_err(|e| format!("{name}: {e}"))?;
    print!("{}", outcome.report.lines(name));
    println!(
        "# {name} attempted={} failed={} result_digest={}",
        outcome.attempted, outcome.failed, outcome.digest
    );
    let line = if opts.traced {
        outcome
            .report
            .result_line(&PER_LAYER, true, outcome.attempted, outcome.failed)
    } else {
        outcome
            .report
            .result_line(&END_TO_END, false, outcome.attempted, outcome.failed)
    }?;
    println!("{line}");
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|opts| run(&opts));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("smdb-benchmark: wrong answers or failed operations");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("smdb-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
