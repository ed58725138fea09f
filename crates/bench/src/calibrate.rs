//! Measured cost-model calibration (E11).
//!
//! [`run_calibration`] measures *wall-clock* per-query cost over a query
//! grid that isolates each cost term (raw/dict/RLE/FoR scan units, index
//! probes, refinement, aggregation, grouping), feeds the measurements to
//! the [`CalibratedCostModel`] regression, refits, and reports the
//! fitted ms-per-unit weight plus the sim-vs-measured relative error per
//! term. The refit bumps the estimator version, which the report
//! verifies by watching a warmed [`WhatIf`] cost cache flush on the next
//! lookup.
//!
//! Wall-clock timings are inherently host-dependent; the *fit* given a
//! fixed observation set is deterministic (see the reproducibility test
//! in `kernel_props.rs`). The per-term errors are gated at ≤ 30 % by the
//! bench gate (`gate::tuning_bounds`), so a cost model drifting away
//! from measured reality fails CI rather than silently mistuning.

use std::sync::Arc;
use std::time::Instant;

use smdb_common::{ChunkColumnRef, ColumnId, Cost, Result};
use smdb_cost::features::{extract_features, fi, ConfigContext};
use smdb_cost::{CalibratedCostModel, CostEstimator, WhatIf};
use smdb_query::{Query, Workload};
use smdb_storage::value::ColumnValues;
use smdb_storage::{
    Aggregate, AggregateOp, ColumnDef, ConfigAction, DataType, EncodingKind, IndexKind,
    PredicateOp, ScanPredicate, Schema, StorageEngine, Table,
};

use crate::report;

/// Fixture scale: rows and chunk size of the calibration table.
const ROWS: usize = 40_000;
const CHUNK: usize = 4_000;

/// Default measurement repeats (minimum taken).
pub const DEFAULT_REPEATS: usize = 9;

/// Builds the calibration fixture: one table whose columns cover every
/// encoding the cost model prices, plus a hash-indexed probe column.
///
/// | col | name | data            | physical design        |
/// |-----|------|-----------------|------------------------|
/// | 0   | `u`  | `i`             | unencoded              |
/// | 1   | `d`  | `i`             | dictionary             |
/// | 2   | `o`  | `i`             | frame-of-reference     |
/// | 3   | `r`  | `i / 40` (runs) | run-length             |
/// | 4   | `f`  | `i * 0.5`       | unencoded float        |
/// | 5   | `g`  | `i % 8`         | unencoded (group keys) |
/// | 6   | `x`  | `i % 500`       | hash index, all chunks |
///
/// Columns 0–3 ascend, so range predicates prune to a controllable
/// chunk prefix, which makes each scan term's feature vary across the
/// probe grid — without that variation the regression cannot attribute
/// span-dependent wall time to the scan slots at all.
fn build_fixture() -> Result<(StorageEngine, smdb_common::TableId)> {
    let schema = Schema::new(vec![
        ColumnDef::new("u", DataType::Int),
        ColumnDef::new("d", DataType::Int),
        ColumnDef::new("o", DataType::Int),
        ColumnDef::new("r", DataType::Int),
        ColumnDef::new("f", DataType::Float),
        ColumnDef::new("g", DataType::Int),
        ColumnDef::new("x", DataType::Int),
    ])?;
    let table = Table::from_columns(
        "calibration",
        schema,
        vec![
            ColumnValues::Int((0..ROWS as i64).collect()),
            ColumnValues::Int((0..ROWS as i64).collect()),
            ColumnValues::Int((0..ROWS as i64).collect()),
            ColumnValues::Int((0..ROWS as i64).map(|i| i / 40).collect()),
            ColumnValues::Float((0..ROWS).map(|i| i as f64 * 0.5).collect()),
            ColumnValues::Int((0..ROWS as i64).map(|i| i % 8).collect()),
            ColumnValues::Int((0..ROWS as i64).map(|i| i % 500).collect()),
        ],
        CHUNK,
    )?;
    let mut engine = StorageEngine::default();
    let t = engine.create_table(table)?;
    let chunks = (ROWS / CHUNK) as u32;
    for (col, kind) in [
        (1u16, EncodingKind::Dictionary),
        (2, EncodingKind::FrameOfReference),
        (3, EncodingKind::RunLength),
    ] {
        for chunk in 0..chunks {
            engine.apply_action(&ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, col, chunk),
                kind,
            })?;
        }
    }
    for chunk in 0..chunks {
        engine.apply_action(&ConfigAction::CreateIndex {
            target: ChunkColumnRef::new(t.0, 6, chunk),
            kind: IndexKind::Hash,
        })?;
    }
    Ok((engine, t))
}

/// The cost terms calibration isolates, each mapped to the feature slot
/// its probe queries exercise most.
pub const TERMS: [(&str, usize); 8] = [
    ("scan_raw", fi::SCAN_RAW),
    ("scan_dict", fi::SCAN_DICT),
    ("scan_rle", fi::SCAN_RLE),
    ("scan_for", fi::SCAN_FOR),
    ("probe", fi::INDEX_PROBES),
    ("refine", fi::REFINE_ROWS),
    ("agg", fi::AGG_ROWS),
    ("group", fi::GROUP_ROWS),
];

/// The fitted model's agreement with measurement for one cost term.
#[derive(Debug, Clone)]
pub struct TermFit {
    /// Term label (see [`TERMS`]).
    pub term: &'static str,
    /// Fitted weight: ms per feature unit (row, run or probe).
    pub weight_ms_per_unit: f64,
    /// Median relative error |predicted − measured| / measured over the
    /// term's probe queries.
    pub median_rel_err: f64,
    /// Probe queries measured for this term.
    pub samples: usize,
}

/// One measured probe query: the term it isolates, its best measured
/// wall time and the fitted model's prediction.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// Term the query was designed to exercise.
    pub term: &'static str,
    /// Median measured wall time (ms).
    pub measured_ms: f64,
    /// Fitted model prediction (ms).
    pub predicted_ms: f64,
}

/// The calibration harness result.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Per-term fits, in [`TERMS`] order.
    pub terms: Vec<TermFit>,
    /// Every probe query's measured vs predicted cost, in grid order.
    pub probes: Vec<ProbeResult>,
    /// Wall-clock observations fed to the regression.
    pub observations: usize,
    /// Largest per-term median relative error.
    pub max_term_err: f64,
    /// Estimator version before the final refit.
    pub version_before: u64,
    /// Estimator version after the final refit (must be larger — this is
    /// what keys the `CostCache` flush).
    pub version_after: u64,
    /// What-if cache entries after warming, before the refit.
    pub cache_entries_warm: usize,
    /// Cache entries right after the first post-refit lookup — the
    /// version sweep must have flushed the warm entries.
    pub cache_entries_after_refit: usize,
}

impl CalibrationReport {
    /// Whether the refit demonstrably flushed the warmed what-if cache.
    pub fn cache_flushed(&self) -> bool {
        self.version_after > self.version_before
            && self.cache_entries_warm > 1
            && self.cache_entries_after_refit < self.cache_entries_warm
    }
}

/// The probe-query grid over the fixture: each entry is
/// `(term, query)` where the query's dominant cost lives in that term's
/// feature slot. Range predicates select a prefix of `chunks` chunks
/// (the ascending key makes chunk stats prune the rest), so each scan
/// term's feature takes several distinct magnitudes across the grid —
/// the variation the regression needs to attribute wall time to the
/// slot.
fn probe_grid(t: smdb_common::TableId) -> Vec<(&'static str, Query)> {
    let chunk_prefixes: [i64; 4] = [1, 2, 4, 8];
    let hi = |chunks: i64| chunks * CHUNK as i64 - 1;
    let mut grid: Vec<(&'static str, Query)> = Vec::new();
    // Driving filters per encoding: col 0 raw, 1 dict, 2 FoR, 3 RLE.
    // `r = i / 40` is also ascending, so the same prefix rule holds with
    // bounds divided by the run length.
    for (term, col, scale) in [
        ("scan_raw", 0u16, 1i64),
        ("scan_dict", 1, 1),
        ("scan_for", 2, 1),
        ("scan_rle", 3, 40),
    ] {
        for &chunks in &chunk_prefixes {
            let pred = ScanPredicate::between(ColumnId(col), 0i64, hi(chunks) / scale);
            grid.push((term, Query::new(t, "calibration", vec![pred], None, term)));
        }
    }
    // Index probes: equality on the hash-indexed column.
    for v in [3i64, 77, 250, 444] {
        let pred = ScanPredicate::eq(ColumnId(6), v);
        grid.push((
            "probe",
            Query::new(t, "calibration", vec![pred], None, "probe"),
        ));
    }
    // Residual refinement: raw driving filter plus a float residual.
    for &chunks in &chunk_prefixes {
        let preds = vec![
            ScanPredicate::between(ColumnId(0), 0i64, hi(chunks)),
            ScanPredicate::cmp(ColumnId(4), PredicateOp::Lt, 10_000.0),
        ];
        grid.push((
            "refine",
            Query::new(t, "calibration", preds, None, "refine"),
        ));
    }
    // Aggregation and grouping over the float column.
    for &chunks in &chunk_prefixes {
        let pred = ScanPredicate::between(ColumnId(0), 0i64, hi(chunks));
        let sum = Aggregate::new(AggregateOp::Sum, ColumnId(4));
        grid.push((
            "agg",
            Query::new(
                t,
                "calibration",
                vec![pred.clone()],
                Some(sum.clone()),
                "agg",
            ),
        ));
        grid.push((
            "group",
            Query::new(t, "calibration", vec![pred], Some(sum), "group").with_group_by(ColumnId(5)),
        ));
    }
    grid
}

/// Runs the measured calibration: times the probe grid, fits the
/// [`CalibratedCostModel`] on the wall-clock timings, and reports the
/// per-term weights, sim-vs-measured errors and the cache-flush check.
pub fn run_calibration(repeats: usize) -> Result<CalibrationReport> {
    let (engine, t) = build_fixture()?;
    let config = engine.current_config();
    let ctx = ConfigContext::new(&engine, &config);
    let grid = probe_grid(t);

    // Measure: best-of-rounds wall-clock ms per probe query. Rounds
    // interleave the grid — round `k` runs every query once — so a
    // transient host stall slows one round of every query instead of
    // every repeat of one query; the per-query minimum then survives
    // any stall shorter than the whole measurement window. Round 0 is
    // the untimed warm-up.
    let mut measured_us = vec![f64::INFINITY; grid.len()];
    for round in 0..=repeats.max(1) {
        for (i, (_, q)) in grid.iter().enumerate() {
            let t0 = Instant::now();
            engine
                .scan_grouped(t, q.predicates(), q.aggregate(), q.group_by())
                .expect("probe scan succeeds");
            let us = t0.elapsed().as_secs_f64() * 1e6;
            if round > 0 && us < measured_us[i] {
                measured_us[i] = us;
            }
        }
    }
    let measured_ms: Vec<f64> = measured_us.iter().map(|us| us / 1e3).collect();

    // Fit: feed every (features, measured) pair, then force a refit.
    let model = Arc::new(CalibratedCostModel::new());
    for ((_, q), &ms) in grid.iter().zip(&measured_ms) {
        model.observe_with_ctx(&engine, &ctx, q, &config, Cost(ms))?;
    }

    // Warm a what-if cache on the current fit, then demonstrate that the
    // final refit's version bump flushes it on the next lookup.
    let estimator: Arc<dyn CostEstimator> = Arc::clone(&model) as Arc<dyn CostEstimator>;
    let what_if = WhatIf::new(estimator);
    let workload = Workload::uniform(grid.iter().map(|(_, q)| q.clone()).collect());
    what_if.workload_cost(&engine, &workload, &config)?;
    let cache_entries_warm = what_if.cache().expect("caching enabled").len();
    let version_before = model.version();
    model.refit()?;
    let version_after = model.version();
    what_if.query_cost(&engine, &ctx, &grid[0].1, &config)?;
    let cache_entries_after_refit = what_if.cache().expect("caching enabled").len();

    // Per-term agreement of the fitted model with the measurements.
    let weights = model.weights().expect("refit produced weights");
    let mut probes = Vec::with_capacity(grid.len());
    for ((term, q), &ms) in grid.iter().zip(&measured_ms) {
        let features = extract_features(&engine, &ctx, q, &config)?;
        let predicted_ms: f64 = weights
            .iter()
            .zip(features.as_slice())
            .map(|(w, f)| w * f)
            .sum();
        probes.push(ProbeResult {
            term,
            measured_ms: ms,
            predicted_ms,
        });
    }
    let mut terms = Vec::with_capacity(TERMS.len());
    let mut max_term_err = 0.0f64;
    for &(term, slot) in &TERMS {
        let mut errs: Vec<f64> = probes
            .iter()
            .filter(|p| p.term == term && p.measured_ms > 0.0)
            .map(|p| (p.predicted_ms - p.measured_ms).abs() / p.measured_ms)
            .collect();
        errs.sort_by(f64::total_cmp);
        let median_rel_err = errs.get(errs.len() / 2).copied().unwrap_or(f64::NAN);
        max_term_err = max_term_err.max(median_rel_err);
        terms.push(TermFit {
            term,
            weight_ms_per_unit: weights[slot],
            median_rel_err,
            samples: errs.len(),
        });
    }

    Ok(CalibrationReport {
        terms,
        probes,
        observations: model.observations(),
        max_term_err,
        version_before,
        version_after,
        cache_entries_warm,
        cache_entries_after_refit,
    })
}

/// Records the calibration fit under the `calibration` report section —
/// the `sim_vs_measured_err_*` keys are bound-gated (≤ 30 %) by
/// `gate::tuning_bounds`.
pub fn record_report(report: &CalibrationReport) {
    for term in &report.terms {
        report::record(
            "calibration",
            &format!("sim_vs_measured_err_{}", term.term),
            term.median_rel_err.into(),
        );
        report::record(
            "calibration",
            &format!("weight_ms_per_unit_{}", term.term),
            term.weight_ms_per_unit.into(),
        );
    }
    report::record(
        "calibration",
        "observations",
        (report.observations as u64).into(),
    );
    report::record("calibration", "max_term_err", report.max_term_err.into());
    report::record(
        "calibration",
        "estimator_version_bumped",
        (u64::from(report.version_after > report.version_before)).into(),
    );
    report::record(
        "calibration",
        "whatif_cache_flushed",
        (u64::from(report.cache_flushed())).into(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_covers_every_term_feature() {
        let (engine, t) = build_fixture().unwrap();
        let config = engine.current_config();
        let ctx = ConfigContext::new(&engine, &config);
        let grid = probe_grid(t);
        // Every term's probe queries put weight on that term's slot.
        for &(term, slot) in &TERMS {
            let exercised = grid.iter().filter(|(tag, _)| *tag == term).any(|(_, q)| {
                extract_features(&engine, &ctx, q, &config)
                    .unwrap()
                    .as_slice()[slot]
                    > 0.0
            });
            assert!(exercised, "term {term} never exercises feature {slot}");
        }
    }

    #[test]
    fn calibration_fits_and_flushes_the_cache() {
        // One repeat keeps the test fast; fit quality is asserted by the
        // gated bench run, not here (timings under test builds are noisy).
        let report = run_calibration(1).unwrap();
        assert_eq!(report.terms.len(), TERMS.len());
        assert!(report.observations >= report.terms.len());
        assert!(
            report.version_after > report.version_before,
            "refit must bump the estimator version"
        );
        assert!(
            report.cache_flushed(),
            "version bump must flush the warmed what-if cache \
             (warm {}, after {})",
            report.cache_entries_warm,
            report.cache_entries_after_refit
        );
        for term in &report.terms {
            assert!(term.samples > 0, "term {} has no samples", term.term);
            assert!(
                term.median_rel_err.is_finite(),
                "term {} error is not finite",
                term.term
            );
        }
    }
}
