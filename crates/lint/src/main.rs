//! CLI wrapper over the `smdb-lint` library.
//!
//! ```text
//! smdb-lint [--root PATH] [--config PATH] [--json] [--audit-lp] [--list-rules]
//!           [--check-trail PATH] [--audit-concurrency] [--check-audit PATH]
//! ```
//!
//! Exit codes: 0 = clean, 1 = violations, failed audit checks, or an
//! invalid trail/audit document, 2 = usage / configuration / IO error.

use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    config: Option<PathBuf>,
    json: bool,
    audit_lp: bool,
    audit_concurrency: bool,
    list_rules: bool,
    check_trail: Option<PathBuf>,
    check_audit: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        config: None,
        json: false,
        audit_lp: false,
        audit_concurrency: false,
        list_rules: false,
        check_trail: None,
        check_audit: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root requires a path")?;
                opts.root = PathBuf::from(v);
            }
            "--config" => {
                let v = it.next().ok_or("--config requires a path")?;
                opts.config = Some(PathBuf::from(v));
            }
            "--json" => opts.json = true,
            "--audit-lp" => opts.audit_lp = true,
            "--audit-concurrency" => opts.audit_concurrency = true,
            "--list-rules" => opts.list_rules = true,
            "--check-trail" => {
                let v = it.next().ok_or("--check-trail requires a path")?;
                opts.check_trail = Some(PathBuf::from(v));
            }
            "--check-audit" => {
                let v = it.next().ok_or("--check-audit requires a path")?;
                opts.check_audit = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

const USAGE: &str = "usage: smdb-lint [--root PATH] [--config PATH] [--json] [--audit-lp] \
     [--list-rules] [--check-trail PATH] [--audit-concurrency] [--check-audit PATH]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in smdb_lint::registry() {
            println!(
                "{:13} {:7} {}",
                rule.id,
                rule.severity.label(),
                rule.description
            );
        }
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &opts.check_trail {
        return run_check_trail(path);
    }
    if let Some(path) = &opts.check_audit {
        return run_check_audit(path);
    }
    if opts.audit_lp {
        return run_audit(&opts);
    }
    if opts.audit_concurrency {
        return run_audit_concurrency(&opts);
    }
    run_lint(&opts)
}

fn load_cfg(opts: &Options) -> Result<smdb_lint::LintConfig, String> {
    match &opts.config {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))
            .and_then(|text| smdb_lint::config::parse(&text)),
        None => smdb_lint::load_config(&opts.root),
    }
}

fn run_audit_concurrency(opts: &Options) -> ExitCode {
    let cfg = match load_cfg(opts) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("smdb-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let scanned = match smdb_lint::scan_repo(&opts.root, &cfg) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("smdb-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let audit = smdb_lint::audit_concurrency(&scanned);
    if opts.json {
        println!(
            "{}",
            smdb_lint::audit::audit_to_json(&audit).to_string_pretty()
        );
    } else {
        print!("{}", smdb_lint::audit::render_concurrency(&audit));
    }
    if audit.failed() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn run_check_audit(path: &std::path::Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smdb-lint: reading {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let doc = match smdb_common::json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("smdb-lint: {}: not valid JSON: {e}", path.display());
            return ExitCode::from(1);
        }
    };
    match smdb_lint::validate_concurrency_audit(&doc) {
        Ok(()) => {
            println!("{}: valid concurrency audit", path.display());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("smdb-lint: {}: {msg}", path.display());
            ExitCode::from(1)
        }
    }
}

fn run_check_trail(path: &std::path::Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smdb-lint: reading {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let doc = match smdb_common::json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("smdb-lint: {}: not valid JSON: {e}", path.display());
            return ExitCode::from(1);
        }
    };
    match smdb_lint::validate_trail(&doc) {
        Ok(summary) => {
            println!(
                "{}: valid trail, {} events ({} decisions)",
                path.display(),
                summary.events,
                summary.decisions
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("smdb-lint: {}: {msg}", path.display());
            ExitCode::from(1)
        }
    }
}

fn run_lint(opts: &Options) -> ExitCode {
    let cfg = match load_cfg(opts) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("smdb-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    match smdb_lint::run_lint(&opts.root, &cfg) {
        Ok(report) => {
            if opts.json {
                println!("{}", report.to_json().to_string_pretty());
            } else {
                print!("{}", report.render_human());
            }
            ExitCode::from(report.exit_code().clamp(0, u8::MAX as i32) as u8)
        }
        Err(msg) => {
            eprintln!("smdb-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run_audit(opts: &Options) -> ExitCode {
    match smdb_lint::audit_lp() {
        Ok(audits) => {
            let failed = audits.iter().any(|a| !a.passed());
            if opts.json {
                println!("{}", smdb_lint::audits_to_json(&audits).to_string_pretty());
            } else {
                for a in &audits {
                    print!("{}", smdb_lint::render_audit(a));
                }
                let (lo, hi) = smdb_lint::AUDIT_SIZES;
                println!(
                    "smdb-lint --audit-lp: |S| = {lo}..={hi} {}",
                    if failed { "FAILED" } else { "verified" }
                );
            }
            if failed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("smdb-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
