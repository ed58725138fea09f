//! Experiment harness: regenerates every experiment table (E1–E11).
//!
//! ```text
//! cargo run --release -p smdb-bench --bin experiments            # all
//! cargo run --release -p smdb-bench --bin experiments e4 e5     # subset
//! cargo run --release -p smdb-bench --bin experiments e5 --json BENCH_tuning.json
//! ```
//!
//! `--json PATH` additionally writes the machine-readable metrics every
//! experiment recorded (per-experiment wall time, cache hit rates, B&B
//! node counts, …) as a JSON document.

use std::time::Instant;

use smdb_bench::{experiments, report};

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a file path");
                    std::process::exit(2);
                }
            }
        } else {
            ids.push(arg);
        }
    }
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
    }

    let mut unknown = Vec::new();
    for id in &ids {
        let start = Instant::now();
        if !experiments::run(id) {
            unknown.push(id.clone());
            continue;
        }
        report::record(
            id,
            "wall_ms",
            (start.elapsed().as_secs_f64() * 1000.0).into(),
        );
    }
    if let Some(path) = json_path {
        let doc = report::to_json().to_string_pretty();
        if let Err(e) = std::fs::write(&path, doc + "\n") {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote metrics to {path}");
    }
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment id(s): {} (valid: {} or 'all')",
            unknown.join(", "),
            experiments::ALL.join(", ")
        );
        std::process::exit(2);
    }
}
