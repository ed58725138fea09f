//! # smdb-lint — repo-specific static analysis with paper-invariant audits
//!
//! A std-only lint engine for this repository (the offline build bans
//! external analysis dependencies). It lexes every `.rs` file into a
//! spanned token stream ([`parse`]), projects it to sanitized lines
//! ([`scan`]), applies the rule registry ([`rules`]) under the
//! `lint.toml` allowlist ratchet ([`config`], [`report`]), then runs two
//! whole-workspace passes — crate-layering ([`graph`]) and lock-order
//! ([`locks`]) — whose findings can never be budgeted away. Beyond
//! that, it re-derives the paper's ordering-ILP size formulas through
//! `smdb_lp::audit`, and [`audit`] exports the combined concurrency
//! picture as a validated JSON artifact, so a drift in the model builder
//! or a new deadlock-shaped lock pair fails the same gate as a stray
//! `unwrap()`.
//!
//! The engine is a library first: `tests/lint_enforcement.rs` runs the
//! full pass during `cargo test`, and the `smdb-lint` binary wraps the
//! same entry points with CLI flags and exit codes for `ci.sh`.

pub mod audit;
pub mod config;
pub mod graph;
pub mod locks;
pub mod parse;
pub mod report;
pub mod rules;
pub mod scan;
pub mod trail;

use std::fs;
use std::path::{Path, PathBuf};

pub use audit::{audit_concurrency, validate_concurrency_audit, ConcurrencyAudit};
pub use config::LintConfig;
pub use graph::{analyze_layering, LayerReport};
pub use locks::{analyze_locks, LockAnalysis};
pub use report::{Allowance, LintReport};
pub use rules::{registry, Finding, Rule, Severity};
pub use scan::{scan_source, ScannedFile};
pub use trail::{validate_trail, TrailSummary};

/// Directories never scanned regardless of configuration.
const ALWAYS_SKIPPED: &[&str] = &["target", ".git"];

/// Loads `lint.toml` from `root` (missing file = default config).
pub fn load_config(root: &Path) -> Result<LintConfig, String> {
    let path = root.join("lint.toml");
    if !path.exists() {
        return Ok(LintConfig::default());
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    config::parse(&text)
}

/// All `.rs` files under `root` in sorted order, honouring the config's
/// exclusions.
pub fn collect_rs_files(root: &Path, cfg: &LintConfig) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let rel = relative_path(root, &path);
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if ALWAYS_SKIPPED.contains(&name.as_ref())
                    || name.starts_with('.')
                    || cfg.is_excluded(&format!("{rel}/"))
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") && !cfg.is_excluded(&rel) {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Repo-relative `/`-separated path of `path` under `root`.
pub fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

/// Scans every `.rs` file under `root` into token streams + sanitized
/// lines, in sorted path order; a file declared as a `#[cfg(test)]`
/// module is test code throughout.
pub fn scan_repo(root: &Path, cfg: &LintConfig) -> Result<Vec<ScannedFile>, String> {
    let files = collect_rs_files(root, cfg)?;
    let mut scanned = Vec::with_capacity(files.len());
    for path in &files {
        let source =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        scanned.push(scan::scan_source(&relative_path(root, path), &source));
    }
    scan::mark_test_modules(&mut scanned);
    Ok(scanned)
}

/// Runs the full analysis pass over the repository at `root`: the
/// per-file rule registry, then the global crate-layering and
/// lock-order passes.
pub fn run_lint(root: &Path, cfg: &LintConfig) -> Result<LintReport, String> {
    let scanned = scan_repo(root, cfg)?;
    let rules = rules::registry();
    let mut findings = Vec::new();
    for file in &scanned {
        for rule in &rules {
            rule.check_file(file, &mut findings);
        }
    }
    findings.extend(graph::layering_findings(&graph::analyze_layering(&scanned)));
    findings.extend(locks::lock_findings(&locks::analyze_locks(&scanned)));
    Ok(LintReport::assemble(scanned.len(), findings, cfg))
}

/// Convenience entry point: load config and lint `root`.
pub fn lint_repo(root: &Path) -> Result<LintReport, String> {
    let cfg = load_config(root)?;
    run_lint(root, &cfg)
}

/// The `|S|` range over which [`audit_lp`] verifies the ordering model —
/// the paper's experiments tune up to eight features.
pub const AUDIT_SIZES: (usize, usize) = (2, 8);

/// Rebuilds the paper's ordering ILP for `|S| = 2..=8` and verifies the
/// size formulas (`2|S|² − |S|` variables, `2|S|²` constraints) and the
/// four constraint families. Returns the per-size audits; any failed
/// check makes the caller exit non-zero.
pub fn audit_lp() -> Result<Vec<smdb_lp::ModelAudit>, String> {
    smdb_lp::audit_range(AUDIT_SIZES.0, AUDIT_SIZES.1).map_err(|e| e.to_string())
}

/// Renders one model audit as human-readable lines.
pub fn render_audit(audit: &smdb_lp::ModelAudit) -> String {
    let mut out = format!("ordering ILP |S| = {}\n", audit.n);
    for check in &audit.checks {
        let status = if check.passed { "ok  " } else { "FAIL" };
        out.push_str(&format!(
            "  {status} {} (expected {}, got {})\n",
            check.name, check.expected, check.actual
        ));
    }
    out
}

/// Renders all audits as a JSON document.
pub fn audits_to_json(audits: &[smdb_lp::ModelAudit]) -> smdb_common::json::Json {
    use smdb_common::json::Json;
    let entries: Json = audits
        .iter()
        .map(|a| {
            let checks: Json = a
                .checks
                .iter()
                .map(|c| {
                    Json::obj([
                        ("name", Json::from(c.name.as_str())),
                        ("expected", Json::from(c.expected.as_str())),
                        ("actual", Json::from(c.actual.as_str())),
                        ("passed", Json::from(c.passed)),
                    ])
                })
                .collect();
            Json::obj([
                ("n", Json::from(a.n)),
                ("passed", Json::from(a.passed())),
                ("checks", checks),
            ])
        })
        .collect();
    Json::obj([("audits", entries)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_are_forward_slashed() {
        let root = Path::new("/repo");
        let p = Path::new("/repo/crates/core/src/driver.rs");
        assert_eq!(relative_path(root, p), "crates/core/src/driver.rs");
    }

    #[test]
    fn audit_lp_is_clean() {
        let audits = audit_lp().expect("audits build");
        assert_eq!(audits.len(), AUDIT_SIZES.1 - AUDIT_SIZES.0 + 1);
        for a in &audits {
            assert!(a.passed(), "n={} failed: {}", a.n, render_audit(a));
        }
    }

    #[test]
    fn audit_rendering_mentions_formulas() {
        let audits = audit_lp().expect("audits build");
        let text = render_audit(&audits[0]);
        assert!(text.contains("2n^2 - n"));
        let json = audits_to_json(&audits);
        assert_eq!(
            json.get("audits")
                .and_then(|a| a.as_array())
                .map(<[_]>::len),
            Some(7)
        );
    }
}
