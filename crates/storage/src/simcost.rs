//! Ground-truth simulated cost parameters.
//!
//! The engine derives a deterministic [`smdb_common::Cost`] for
//! every operation from the *work it actually performs*: rows scanned per
//! encoding, index probes, tier-penalised accesses, rows re-encoded,
//! bytes moved. These parameters are the "hardware" of the simulation —
//! the framework's cost estimators never see them and must learn their
//! effect from observations (Section II-A(d): hardware-dependent cost
//! models are created "by learning from observed query execution costs").

use smdb_common::Cost;

use crate::encoding::EncodingKind;

/// Parameters of the simulated hardware.
#[derive(Debug, Clone)]
pub struct SimCostParams {
    /// Per-row full-scan cost of an unencoded segment, in ms.
    pub scan_ms_per_row: f64,
    /// One index probe's fixed cost, in ms.
    pub index_probe_ms: f64,
    /// Per produced match during an index probe, in ms.
    pub index_match_ms: f64,
    /// Per-position cost of refining by a residual predicate, in ms.
    pub refine_ms_per_row: f64,
    /// Per-row aggregation cost, in ms.
    pub agg_ms_per_row: f64,
    /// Additional per-row cost of hash-grouping during GROUP BY, in ms.
    pub group_ms_per_row: f64,
    /// Fixed cost of visiting (not pruning) a chunk, in ms.
    pub chunk_visit_ms: f64,
    /// Cost of consulting a chunk's min/max statistics when pruning it,
    /// in ms. Keeps every executed scan strictly positive-cost even when
    /// pruning eliminates all chunks — examining statistics is work too.
    pub prune_check_ms: f64,
    /// Per-row cost of building an index over an *unencoded* segment, ms.
    pub index_build_ms_per_row: f64,
    /// Per-row cost of re-encoding a segment, ms.
    pub reencode_ms_per_row: f64,
    /// Cost of migrating one megabyte between tiers, ms.
    pub move_ms_per_mb: f64,
    /// Fixed cost of resizing the buffer pool, ms.
    pub knob_change_ms: f64,
    /// Scheduling overhead charged per dispatched morsel in the
    /// simulated parallel-latency model (see
    /// [`crate::parallel::simulated_latency`]), ms. Total simulated
    /// *work* (`sim_cost`) never includes it — only the critical-path
    /// latency does, so tiny morsels model real dispatch overhead.
    pub morsel_dispatch_ms: f64,
}

impl Default for SimCostParams {
    fn default() -> Self {
        SimCostParams {
            scan_ms_per_row: 1e-4,
            index_probe_ms: 1e-2,
            index_match_ms: 2e-4,
            refine_ms_per_row: 1.2e-4,
            agg_ms_per_row: 5e-5,
            group_ms_per_row: 1.5e-4,
            chunk_visit_ms: 1e-3,
            prune_check_ms: 5e-5,
            index_build_ms_per_row: 8e-4,
            reencode_ms_per_row: 5e-4,
            move_ms_per_mb: 10.0,
            knob_change_ms: 1.0,
            morsel_dispatch_ms: 5e-4,
        }
    }
}

impl SimCostParams {
    /// Relative per-work-unit scan speed of each encoding. Dictionary
    /// scans faster than raw (predicate resolved on the dictionary once);
    /// frame-of-reference nets out a bit cheaper (half the bytes); RLE's
    /// unit is the *run*, not the row (see
    /// [`Segment::scan_units`](crate::encoding::Segment::scan_units)), so
    /// its per-unit factor is raw-like — the savings come from touching
    /// fewer units on clustered data.
    pub fn encoding_scan_factor(&self, enc: EncodingKind) -> f64 {
        match enc {
            EncodingKind::Unencoded => 1.0,
            EncodingKind::Dictionary => 0.45,
            EncodingKind::RunLength => 1.0,
            EncodingKind::FrameOfReference => 0.85,
        }
    }

    /// Relative index-build speed per encoding. Building over a
    /// dictionary segment works on codes and is markedly cheaper — the
    /// compression→index dependency of Section III.
    pub fn encoding_index_build_factor(&self, enc: EncodingKind) -> f64 {
        match enc {
            EncodingKind::Unencoded => 1.0,
            EncodingKind::Dictionary => 0.35,
            EncodingKind::RunLength => 0.6,
            EncodingKind::FrameOfReference => 0.9,
        }
    }

    /// One-time cost of building an index over `rows` rows stored with
    /// `enc` on `tier`.
    pub fn index_build_cost(&self, rows: usize, enc: EncodingKind, tier_mult: f64) -> Cost {
        Cost(rows as f64 * self.index_build_ms_per_row * self.encoding_index_build_factor(enc))
            * tier_mult
    }

    /// One-time cost of re-encoding `rows` rows on a tier.
    pub fn reencode_cost(&self, rows: usize, tier_mult: f64) -> Cost {
        Cost(rows as f64 * self.reencode_ms_per_row) * tier_mult
    }

    /// One-time cost of moving `bytes` between tiers.
    pub fn move_cost(&self, bytes: usize) -> Cost {
        Cost(bytes as f64 / (1024.0 * 1024.0) * self.move_ms_per_mb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_speeds_scans_and_builds() {
        let p = SimCostParams::default();
        assert!(
            p.encoding_scan_factor(EncodingKind::Dictionary)
                < p.encoding_scan_factor(EncodingKind::Unencoded)
        );
        assert!(
            p.encoding_index_build_factor(EncodingKind::Dictionary)
                < p.encoding_index_build_factor(EncodingKind::Unencoded)
        );
    }

    #[test]
    fn one_time_costs_scale() {
        let p = SimCostParams::default();
        let small = p.index_build_cost(100, EncodingKind::Unencoded, 1.0);
        let large = p.index_build_cost(1000, EncodingKind::Unencoded, 1.0);
        assert!(large.ms() > small.ms() * 9.0);
        assert_eq!(p.move_cost(1024 * 1024).ms(), p.move_ms_per_mb);
    }
}
