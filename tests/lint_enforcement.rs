//! Tier-1 enforcement of the repo's static-analysis pass.
//!
//! `cargo test` runs the same engine as the `smdb-lint` binary, so the
//! invariants in `crates/lint/src/rules.rs` and the `lint.toml` budget
//! ratchet gate every change — no separate CI wiring required. The LP
//! audit additionally re-derives the paper's ordering-model size
//! formulas (Section III-B) across `|S| = 2..=8`.

use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn repository_passes_smdb_lint() {
    let report = smdb_lint::lint_repo(repo_root()).expect("lint pass runs");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — walker broke?",
        report.files_scanned
    );
    assert!(
        !report.failed(),
        "smdb-lint found violations:\n{}",
        report.render_human()
    );
}

#[test]
fn budget_ratchet_has_no_slack() {
    // Budgets in lint.toml must track the actual finding counts exactly;
    // an over-generous budget would let new panics slip in unnoticed.
    let report = smdb_lint::lint_repo(repo_root()).expect("lint pass runs");
    let slack: Vec<String> = report
        .tightening_hints()
        .iter()
        .map(|a| {
            format!(
                "[{}] {}: budget {} > findings {}",
                a.rule, a.path, a.budget, a.count
            )
        })
        .collect();
    assert!(
        slack.is_empty(),
        "lint.toml budgets have slack — ratchet them down:\n{}",
        slack.join("\n")
    );
}

/// Pre-rewrite finding counts for the six legacy rules (L1–L6), pinned
/// at the point the regex line scanner was replaced by the token-stream
/// backend. The only non-zero rule is the grandfathered `no-panic` long
/// tail tracked in lint.toml; a drift in either direction means the
/// lexer projection changed rule semantics.
#[test]
fn legacy_rules_reproduce_pre_rewrite_counts() {
    let cfg = smdb_lint::load_config(repo_root()).expect("config loads");
    let scanned = smdb_lint::scan_repo(repo_root(), &cfg).expect("scan runs");
    let mut findings = Vec::new();
    for file in &scanned {
        for rule in smdb_lint::registry() {
            rule.check_file(file, &mut findings);
        }
    }
    let count = |id: &str| findings.iter().filter(|f| f.rule == id).count();
    assert_eq!(count("no-panic"), 11, "grandfathered unwrap/expect tail");
    assert_eq!(count("no-entropy"), 0);
    assert_eq!(count("no-float-eq"), 0);
    assert_eq!(count("no-wall-clock"), 0);
    assert_eq!(count("obs-clock"), 0);
    assert_eq!(count("thread-discipline"), 0);
}

/// Writes a throwaway repo under the cargo tmp dir and lints it with the
/// default (budget-free) config, as the binary would.
fn lint_fixture(name: &str, files: &[(&str, &str)]) -> smdb_lint::LintReport {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    for (rel, src) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, src).expect("write fixture");
    }
    smdb_lint::lint_repo(&root).expect("fixture lints")
}

fn assert_fails_with(report: &smdb_lint::LintReport, rule: &str) {
    assert!(
        report.failed(),
        "fixture should fail:\n{}",
        report.render_human()
    );
    assert_eq!(report.exit_code(), 1);
    assert!(
        report.violations.iter().any(|v| v.rule == rule),
        "expected a [{rule}] violation:\n{}",
        report.render_human()
    );
}

#[test]
fn map_iteration_fixture_exits_nonzero() {
    let report = lint_fixture(
        "lint-fixture-l7",
        &[(
            "crates/obs/src/generated.rs",
            "fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    for (k, v) in &m {\n        let _ = (k, v);\n    }\n}\n",
        )],
    );
    assert_fails_with(&report, "map-iteration");
}

#[test]
fn atomic_ordering_fixture_exits_nonzero() {
    let report = lint_fixture(
        "lint-fixture-l8",
        &[(
            "crates/core/src/generated.rs",
            "fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::SeqCst)\n}\n",
        )],
    );
    assert_fails_with(&report, "atomic-ordering");
}

#[test]
fn lock_order_fixture_exits_nonzero() {
    let report = lint_fixture(
        "lint-fixture-l9",
        &[(
            "crates/core/src/generated.rs",
            "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
             fn f(s: &S) { let ga = s.a.lock(); let gb = s.b.lock(); }\n\
             fn g(s: &S) { let gb = s.b.lock(); let ga = s.a.lock(); }\n",
        )],
    );
    assert_fails_with(&report, "lock-order");
}

#[test]
fn layering_violation_fixture_exits_nonzero() {
    // storage (layer 2) reaching up into core (layer 5) is an illegal
    // upward edge regardless of budgets.
    let report = lint_fixture(
        "lint-fixture-layering",
        &[(
            "crates/storage/src/generated.rs",
            "use smdb_core::driver::Driver;\nfn f(_d: &Driver) {}\n",
        )],
    );
    assert_fails_with(&report, "crate-layering");
}

#[test]
fn concurrency_audit_of_this_repo_is_clean_and_validates() {
    let cfg = smdb_lint::load_config(repo_root()).expect("config loads");
    let scanned = smdb_lint::scan_repo(repo_root(), &cfg).expect("scan runs");
    let audit = smdb_lint::audit_concurrency(&scanned);
    assert!(
        !audit.failed(),
        "concurrency audit must stay clean: layering cycles/violations or lock cycles"
    );
    assert!(audit.locks.acyclic(), "global lock graph must stay acyclic");
    let json = smdb_lint::audit::audit_to_json(&audit);
    smdb_lint::validate_concurrency_audit(&json).expect("self-emitted audit validates");
    // Round-trip through the JSON parser, as ci.sh consumes it.
    let parsed = smdb_common::json::parse(&json.to_string_pretty()).expect("parses");
    smdb_lint::validate_concurrency_audit(&parsed).expect("round-tripped audit validates");
}

#[test]
fn ordering_model_matches_paper_formulas() {
    let audits = smdb_lint::audit_lp().expect("audit builds models");
    let (lo, hi) = smdb_lint::AUDIT_SIZES;
    assert_eq!(audits.len(), hi - lo + 1);
    for audit in &audits {
        assert!(
            audit.passed(),
            "LP audit failed:\n{}",
            smdb_lint::render_audit(audit)
        );
    }
}

#[test]
fn ordering_model_size_regression_at_three_features() {
    // |S| = 3 → 2·9 − 3 = 15 variables, 2·9 = 18 constraints. Pinned as
    // concrete numbers so a formula typo can't cancel itself out.
    let problem = smdb_lp::audit::audit_instance(3).expect("instance builds");
    let model = problem.build_model().expect("model builds");
    assert_eq!(model.num_vars(), 15);
    assert_eq!(model.num_constraints(), 18);
}
