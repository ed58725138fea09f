//! Bench-regression gate: compares a freshly produced benchmark report
//! (`BENCH_runtime.json` / `BENCH_tuning.json`) against the committed
//! baseline with per-metric directions and tolerances.
//!
//! The gate is deliberately dumb: it reads the same
//! `{"experiments": [{"id": ..., key: value}]}` documents the bench
//! binaries write, checks each registered metric in its improvement
//! direction (a *better* candidate never fails), and treats a missing
//! section or key as a failure — a metric silently disappearing is
//! itself a regression. Exact checks (the soak result digest, error
//! counters) must match bit-for-bit; the digest is the witness that
//! morsel-parallel scans changed nothing but latency.

use smdb_common::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Latencies, node counts: the candidate may exceed the baseline by
    /// at most the relative tolerance.
    LowerIsBetter,
    /// Throughput, hit rates: the candidate may fall short of the
    /// baseline by at most the relative tolerance.
    HigherIsBetter,
}

/// One gated numeric metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Section id inside the `experiments` array (`soak`, `obs`, `e5`…).
    pub section: &'static str,
    pub key: &'static str,
    pub direction: Direction,
    /// Allowed relative slack in the *worsening* direction
    /// (0.10 = 10 %).
    pub rel_tolerance: f64,
}

/// One metric that must match the baseline exactly (compared as JSON
/// values, so digests and booleans work unchanged).
#[derive(Debug, Clone, Copy)]
pub struct ExactSpec {
    pub section: &'static str,
    pub key: &'static str,
}

/// One metric bounded by an absolute ceiling, independent of any
/// baseline. Used for quantities with a meaningful scale of their own —
/// a calibration error of 0.4 is bad even if yesterday's was 0.5.
#[derive(Debug, Clone, Copy)]
pub struct BoundSpec {
    pub section: &'static str,
    pub key: &'static str,
    /// The candidate value must be `<= max`.
    pub max: f64,
}

/// Outcome of one check.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// `section.key`.
    pub metric: String,
    pub passed: bool,
    /// Human-readable comparison, e.g. `0.36 -> 0.48 (+33.3% > +10%)`.
    pub detail: String,
}

/// All checks of one gate run.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    pub checks: Vec<CheckResult>,
}

impl GateReport {
    /// Whether any check failed.
    pub fn failed(&self) -> bool {
        self.checks.iter().any(|c| !c.passed)
    }

    /// One line per check, failures marked.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            let mark = if c.passed { "ok  " } else { "FAIL" };
            out.push_str(&format!("{mark} {:40} {}\n", c.metric, c.detail));
        }
        let failed = self.checks.iter().filter(|c| !c.passed).count();
        out.push_str(&format!(
            "{} check(s), {} failed\n",
            self.checks.len(),
            failed
        ));
        out
    }

    /// Merges another report's checks into this one.
    pub fn extend(&mut self, other: GateReport) {
        self.checks.extend(other.checks);
    }
}

/// The runtime-soak gate (`BENCH_runtime.json`). Simulated latencies are
/// deterministic, so their tolerance only absorbs model-level drift. The
/// digest and the error counters must match exactly. The soak reports
/// no wall-clock key: its runs are far too short to time, and
/// `BENCHMARK.json` owns wall clock.
pub fn runtime_specs() -> (Vec<MetricSpec>, Vec<ExactSpec>) {
    let metrics = vec![
        MetricSpec {
            section: "soak",
            key: "cold_p95_ms",
            direction: Direction::LowerIsBetter,
            rel_tolerance: 0.10,
        },
        MetricSpec {
            section: "soak",
            key: "tuned_p95_ms",
            direction: Direction::LowerIsBetter,
            rel_tolerance: 0.10,
        },
        MetricSpec {
            section: "soak",
            key: "tuned_mean_ms",
            direction: Direction::LowerIsBetter,
            rel_tolerance: 0.10,
        },
        MetricSpec {
            section: "obs",
            key: "whatif_cache_hit_rate",
            direction: Direction::HigherIsBetter,
            rel_tolerance: 0.05,
        },
    ];
    let exact = vec![
        ExactSpec {
            section: "soak",
            key: "result_digest",
        },
        ExactSpec {
            section: "soak",
            key: "errors",
        },
        ExactSpec {
            section: "soak",
            key: "wrong_results",
        },
    ];
    (metrics, exact)
}

/// The multi-tenant sharded-soak gate (`BENCH_multitenant.json`).
/// Simulated latencies, routing decisions and tuning traces are all
/// seed-deterministic, so their tolerances only absorb model drift
/// (no wall-clock key — see [`runtime_specs`]).
/// The digest, the digest-invariance witness (the
/// N-shard scatter answering bit-identically to a 1-shard build) and
/// the Organizer's budget-compliance flag must match exactly.
pub fn multitenant_specs() -> (Vec<MetricSpec>, Vec<ExactSpec>) {
    let metrics = vec![
        MetricSpec {
            section: "multitenant",
            key: "mean_tenant_p95_ms",
            direction: Direction::LowerIsBetter,
            rel_tolerance: 0.10,
        },
        MetricSpec {
            section: "multitenant",
            key: "shards_tuned",
            direction: Direction::HigherIsBetter,
            rel_tolerance: 0.34,
        },
        MetricSpec {
            section: "multitenant",
            key: "routed",
            direction: Direction::HigherIsBetter,
            rel_tolerance: 0.10,
        },
    ];
    let exact = vec![
        ExactSpec {
            section: "multitenant",
            key: "result_digest",
        },
        ExactSpec {
            section: "multitenant",
            key: "digest_invariant",
        },
        ExactSpec {
            section: "multitenant",
            key: "budget_ok_every_bucket",
        },
        ExactSpec {
            section: "multitenant",
            key: "errors",
        },
        ExactSpec {
            section: "multitenant",
            key: "wrong_results",
        },
    ];
    (metrics, exact)
}

/// Absolute ceiling on the noisy-neighbor probe of
/// `BENCH_multitenant.json`: quiet tenants sharing the hot tenant's
/// shard must not pay more than 0.05 ms of extra p95 versus quiet
/// tenants elsewhere. A ceiling, not a baseline comparison — tenant
/// isolation has its own scale.
pub fn multitenant_bounds() -> Vec<BoundSpec> {
    vec![BoundSpec {
        section: "multitenant",
        key: "noisy_neighbor_delta_ms",
        max: 0.05,
    }]
}

/// The kill-and-recover gate (`BENCH_recovery.json`). Everything the
/// durability layer does is seed-deterministic — the WAL replay length,
/// the bucket serving resumes at, the resumed digest — so those gate
/// exactly. Write amplification is the snapshot-cadence KPI and gets a
/// narrow band; the recovery time itself is wall-clock and is bounded
/// by an absolute RTO ceiling instead ([`recovery_bounds`]).
pub fn recovery_specs() -> (Vec<MetricSpec>, Vec<ExactSpec>) {
    let metrics = vec![MetricSpec {
        section: "recover",
        key: "write_amplification",
        direction: Direction::LowerIsBetter,
        rel_tolerance: 0.25,
    }];
    let exact = vec![
        ExactSpec {
            section: "recover",
            key: "digest_match",
        },
        ExactSpec {
            section: "recover",
            key: "errors",
        },
        ExactSpec {
            section: "recover",
            key: "wrong_results",
        },
        ExactSpec {
            section: "recover",
            key: "replayed_records",
        },
        ExactSpec {
            section: "recover",
            key: "dropped_records",
        },
        ExactSpec {
            section: "recover",
            key: "resumed_at_bucket",
        },
    ];
    (metrics, exact)
}

/// Absolute ceiling on the recovery time (read + decode + replay +
/// restore, excluding resumed serving): the measured RTO must stay
/// under 1.5 s regardless of where the baseline sits — recovery that
/// got slower along with its baseline is still a worse database.
pub fn recovery_bounds() -> Vec<BoundSpec> {
    vec![BoundSpec {
        section: "recover",
        key: "recovery_ms",
        max: 1_500.0,
    }]
}

/// The tuning-experiments gate (`BENCH_tuning.json`, quick-mode subset
/// e3/e4/e5): cache hit rates must not erode, and the ordering ILP must
/// keep reaching the exhaustive search's optimum. `e5.warm_speedup` — a
/// ratio of two sub-2-ms timings — is reported, not gated.
pub fn tuning_specs() -> (Vec<MetricSpec>, Vec<ExactSpec>) {
    let metrics = vec![
        MetricSpec {
            section: "e3",
            key: "cache_hit_rate",
            direction: Direction::HigherIsBetter,
            rel_tolerance: 0.05,
        },
        MetricSpec {
            section: "e5",
            key: "cache_hit_rate",
            direction: Direction::HigherIsBetter,
            rel_tolerance: 0.05,
        },
    ];
    let exact = vec![
        ExactSpec {
            section: "e4",
            key: "ilp_matches_exhaustive",
        },
        ExactSpec {
            section: "e5",
            key: "assessments_identical",
        },
    ];
    (metrics, exact)
}

/// Absolute bounds on the E11 calibration section of
/// `BENCH_tuning.json`: every cost term's sim-vs-measured relative
/// error must stay within 30 %. These are ceilings, not baseline
/// comparisons — the fit quality has its own scale, and a drifting
/// baseline must not normalise a bad fit.
pub fn tuning_bounds() -> Vec<BoundSpec> {
    [
        "sim_vs_measured_err_scan_raw",
        "sim_vs_measured_err_scan_dict",
        "sim_vs_measured_err_scan_rle",
        "sim_vs_measured_err_scan_for",
        "sim_vs_measured_err_probe",
        "sim_vs_measured_err_refine",
        "sim_vs_measured_err_agg",
        "sim_vs_measured_err_group",
    ]
    .iter()
    .map(|&key| BoundSpec {
        section: "calibration",
        key,
        max: 0.30,
    })
    .collect()
}

/// Checks every absolute bound against the candidate document alone.
/// Missing sections or keys fail the check, same as [`compare`].
pub fn check_bounds(candidate: &Json, bounds: &[BoundSpec]) -> GateReport {
    let mut report = GateReport::default();
    for spec in bounds {
        let metric = format!("{}.{}", spec.section, spec.key);
        let check = match lookup(candidate, spec.section, spec.key).and_then(|j| j.as_f64()) {
            Some(v) => CheckResult {
                metric,
                passed: v <= spec.max,
                detail: format!("{v:.4} (bound <= {:.2})", spec.max),
            },
            None => CheckResult {
                metric,
                passed: false,
                detail: "missing in candidate".to_string(),
            },
        };
        report.checks.push(check);
    }
    report
}

/// Runs every spec of `baseline` vs `candidate`. Missing sections or
/// keys fail the corresponding check rather than erroring out, so one
/// run reports everything that is wrong at once.
pub fn compare(
    baseline: &Json,
    candidate: &Json,
    metrics: &[MetricSpec],
    exact: &[ExactSpec],
) -> GateReport {
    let mut report = GateReport::default();
    for spec in metrics {
        let metric = format!("{}.{}", spec.section, spec.key);
        let (b, c) = (
            lookup(baseline, spec.section, spec.key).and_then(|j| j.as_f64()),
            lookup(candidate, spec.section, spec.key).and_then(|j| j.as_f64()),
        );
        let check = match (b, c) {
            (Some(b), Some(c)) => numeric_check(metric, b, c, spec),
            _ => CheckResult {
                metric,
                passed: false,
                detail: format!(
                    "missing in {}",
                    if b.is_none() { "baseline" } else { "candidate" }
                ),
            },
        };
        report.checks.push(check);
    }
    for spec in exact {
        let metric = format!("{}.{}", spec.section, spec.key);
        let (b, c) = (
            lookup(baseline, spec.section, spec.key),
            lookup(candidate, spec.section, spec.key),
        );
        let check = match (b, c) {
            (Some(b), Some(c)) => {
                let passed = json_eq(b, c);
                CheckResult {
                    metric,
                    passed,
                    detail: if passed {
                        format!("= {}", render(b))
                    } else {
                        format!("{} -> {} (must match exactly)", render(b), render(c))
                    },
                }
            }
            _ => CheckResult {
                metric,
                passed: false,
                detail: format!(
                    "missing in {}",
                    if b.is_none() { "baseline" } else { "candidate" }
                ),
            },
        };
        report.checks.push(check);
    }
    report
}

fn numeric_check(metric: String, baseline: f64, candidate: f64, spec: &MetricSpec) -> CheckResult {
    // Relative worsening, positive when the candidate is worse in the
    // spec's direction. Zero baselines compare absolutely.
    let scale = baseline.abs().max(1e-12);
    let worsening = match spec.direction {
        Direction::LowerIsBetter => (candidate - baseline) / scale,
        Direction::HigherIsBetter => (baseline - candidate) / scale,
    };
    let passed = worsening <= spec.rel_tolerance;
    CheckResult {
        metric,
        passed,
        detail: format!(
            "{baseline:.4} -> {candidate:.4} ({:+.1}% worse, tolerance {:.0}%)",
            worsening * 100.0,
            spec.rel_tolerance * 100.0
        ),
    }
}

/// Finds `key` inside the experiments entry whose `id` is `section`.
fn lookup<'a>(doc: &'a Json, section: &str, key: &str) -> Option<&'a Json> {
    doc.get("experiments")?
        .as_array()?
        .iter()
        .find(|e| e.get("id").and_then(|id| id.as_str()) == Some(section))?
        .get(key)
}

/// Structural equality over the JSON subset the reports use.
fn json_eq(a: &Json, b: &Json) -> bool {
    render(a) == render(b)
}

fn render(j: &Json) -> String {
    j.to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::json::parse;

    fn runtime_doc(p95: f64, digest: u64) -> Json {
        parse(&format!(
            r#"{{"experiments": [
                 {{"id": "soak", "cold_p95_ms": 2.4, "tuned_p95_ms": {p95},
                  "tuned_mean_ms": 0.3,
                  "result_digest": {digest}, "errors": 0, "wrong_results": 0}},
                 {{"id": "obs", "whatif_cache_hit_rate": 0.97}}]}}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn identical_reports_pass() {
        let (m, e) = runtime_specs();
        let doc = runtime_doc(0.36, 7);
        let report = compare(&doc, &doc, &m, &e);
        assert!(!report.failed(), "{}", report.render_human());
    }

    #[test]
    fn twenty_percent_worse_p95_fails() {
        let (m, e) = runtime_specs();
        let baseline = runtime_doc(0.36, 7);
        let candidate = runtime_doc(0.36 * 1.2, 7);
        let report = compare(&baseline, &candidate, &m, &e);
        assert!(report.failed(), "{}", report.render_human());
        assert!(report.render_human().contains("soak.tuned_p95_ms"));
    }

    #[test]
    fn improvement_never_fails() {
        let (m, e) = runtime_specs();
        let baseline = runtime_doc(0.36, 7);
        let candidate = runtime_doc(0.36 / 3.0, 7);
        let report = compare(&baseline, &candidate, &m, &e);
        assert!(!report.failed(), "{}", report.render_human());
    }

    #[test]
    fn digest_must_match_exactly() {
        let (m, e) = runtime_specs();
        let report = compare(&runtime_doc(0.36, 7), &runtime_doc(0.36, 8), &m, &e);
        assert!(report.failed());
        let failed: Vec<_> = report.checks.iter().filter(|c| !c.passed).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].metric, "soak.result_digest");
    }

    #[test]
    fn no_wall_clock_key_is_gated() {
        let gated = [runtime_specs().0, multitenant_specs().0, tuning_specs().0].concat();
        assert!(gated
            .iter()
            .all(|s| s.key != "sustained_qps" && s.key != "warm_speedup"));
    }

    #[test]
    fn calibration_bounds_cover_every_term() {
        let bounds = tuning_bounds();
        assert_eq!(bounds.len(), 8);
        let doc = parse(
            r#"{"experiments": [{"id": "calibration",
                 "sim_vs_measured_err_scan_raw": 0.1,
                 "sim_vs_measured_err_scan_dict": 0.1,
                 "sim_vs_measured_err_scan_rle": 0.1,
                 "sim_vs_measured_err_scan_for": 0.1,
                 "sim_vs_measured_err_probe": 0.1,
                 "sim_vs_measured_err_refine": 0.1,
                 "sim_vs_measured_err_agg": 0.1,
                 "sim_vs_measured_err_group": 0.29}]}"#,
        )
        .expect("parses");
        assert!(!check_bounds(&doc, &bounds).failed());
    }

    #[test]
    fn calibration_error_over_bound_fails() {
        let doc = parse(
            r#"{"experiments": [{"id": "calibration",
                 "sim_vs_measured_err_scan_raw": 0.31}]}"#,
        )
        .expect("parses");
        let report = check_bounds(&doc, &tuning_bounds());
        assert!(report.failed());
        // The over-bound term fails on value, the other seven on absence.
        let raw = report
            .checks
            .iter()
            .find(|c| c.metric == "calibration.sim_vs_measured_err_scan_raw")
            .expect("raw term checked");
        assert!(!raw.passed);
        assert!(raw.detail.contains("0.3100"));
    }

    #[test]
    fn missing_metric_fails_loudly() {
        let (m, e) = runtime_specs();
        let baseline = runtime_doc(0.36, 7);
        let candidate = parse(r#"{"experiments": [{"id": "soak"}]}"#).expect("parses");
        let report = compare(&baseline, &candidate, &m, &e);
        assert!(report.failed());
        assert!(report.render_human().contains("missing in candidate"));
    }
}
