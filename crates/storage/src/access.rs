//! The per-chunk access-path decision — made here and nowhere else.
//!
//! The executor (`StorageEngine::scan_chunk`) runs the [`AccessPath`],
//! [`crate::StorageEngine::predict_access_paths`] counts it, and the
//! what-if estimator (`smdb_cost::features::extract_features`) prices it
//! with `index_of` bound to a hypothetical configuration. In order:
//!
//! 1. **Prune** — some predicate cannot match the chunk's min/max.
//! 2. **Composite probe** — a pair of equality predicates served by one
//!    composite index, combined estimated selectivity at or below
//!    [`INDEX_SELECTIVITY_THRESHOLD`]; every pair is tried, in order.
//! 3. **Full chunk** — no predicates.
//! 4. **Driving predicate** — the first whose column carries a
//!    single-attribute index that supports its operator *and* whose
//!    estimated selectivity passes the threshold; otherwise position 0.
//! 5. **Probe or scan** — the driving predicate is probed whenever its
//!    column's index can answer it, so a position-0 fallback is probed
//!    *regardless of selectivity* (DESIGN.md §3 on why
//!    [`AccessPath::Probe::selective`] records that).

use smdb_common::{ColumnId, Result};

use crate::chunk::Chunk;
use crate::index::IndexKind;
use crate::scan::{PredicateOp, ScanPredicate};

/// An index is *chosen* to drive a scan only when the predicate's
/// estimated selectivity is at or below this threshold (a broad probe's
/// per-match costs exceed the sequential scan in the simulated model).
pub const INDEX_SELECTIVITY_THRESHOLD: f64 = 0.1;

/// How one chunk is accessed for one predicate list. Positions index
/// the predicate slice the path was computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Min/max statistics rule the chunk out.
    Pruned,
    /// One composite-index probe answers equality predicates `first`
    /// (the indexed column) and `second`.
    Composite { first: usize, second: usize },
    /// No predicates: every row is selected.
    FullChunk,
    /// A single-attribute index answers the driving predicate.
    Probe {
        driving: usize,
        /// `true`: the index passed the selectivity rule. `false`: no
        /// index did, position 0 drives by default and its index happens
        /// to support the operator — the engine probes it all the same.
        selective: bool,
    },
    /// The driving predicate filters its segment.
    Scan { driving: usize },
}

impl AccessPath {
    /// Whether the path itself answers predicate `pos`. Every other
    /// predicate is a residual, refined in predicate order.
    pub fn consumes(self, pos: usize) -> bool {
        match self {
            AccessPath::Composite { first, second } => pos == first || pos == second,
            AccessPath::Probe { driving, .. } | AccessPath::Scan { driving } => pos == driving,
            AccessPath::Pruned | AccessPath::FullChunk => false,
        }
    }
}

/// Decides the access path of `chunk` for `predicates` from the chunk's
/// statistics and `index_of`, the index kind each column carries — the
/// live catalog for the engine, a hypothetical configuration for the
/// estimator. Errors only when a predicate names a column the chunk
/// does not have.
pub fn access_path(
    chunk: &Chunk,
    predicates: &[ScanPredicate],
    index_of: impl Fn(ColumnId) -> Option<IndexKind>,
) -> Result<AccessPath> {
    for p in predicates {
        if !chunk.stats(p.column)?.can_match(p) {
            return Ok(AccessPath::Pruned);
        }
    }
    let selectivity =
        |p: &ScanPredicate| -> Result<f64> { Ok(chunk.stats(p.column)?.estimate_selectivity(p)) };

    for (first, p) in predicates.iter().enumerate() {
        if p.op != PredicateOp::Eq {
            continue;
        }
        let Some(IndexKind::CompositeHash { second: column }) = index_of(p.column) else {
            continue;
        };
        for (second, q) in predicates.iter().enumerate() {
            if first != second
                && q.column == column
                && q.op == PredicateOp::Eq
                && selectivity(p)? * selectivity(q)? <= INDEX_SELECTIVITY_THRESHOLD
            {
                return Ok(AccessPath::Composite { first, second });
            }
        }
    }

    let Some(fallback) = predicates.first() else {
        return Ok(AccessPath::FullChunk);
    };
    // A composite index cannot answer a lone predicate.
    let answers = |p: &ScanPredicate| {
        index_of(p.column).is_some_and(|kind| {
            !matches!(kind, IndexKind::CompositeHash { .. }) && kind.supports(p.op)
        })
    };
    for (driving, p) in predicates.iter().enumerate() {
        if answers(p) && selectivity(p)? <= INDEX_SELECTIVITY_THRESHOLD {
            return Ok(AccessPath::Probe {
                driving,
                selective: true,
            });
        }
    }
    Ok(if answers(fallback) {
        AccessPath::Probe {
            driving: 0,
            selective: false,
        }
    } else {
        AccessPath::Scan { driving: 0 }
    })
}

#[cfg(test)]
mod tests {
    use super::AccessPath::{Composite, FullChunk, Probe, Pruned, Scan};
    use super::*;
    use crate::index::IndexKind::{BTree, CompositeHash, Hash};
    use crate::value::ColumnValues;

    const A: ColumnId = ColumnId(0);
    const B: ColumnId = ColumnId(1);
    const C: ColumnId = ColumnId(2);
    const S: ColumnId = ColumnId(3);
    const SCAN_0: AccessPath = Scan { driving: 0 };

    fn probe(driving: usize, selective: bool) -> AccessPath {
        Probe { driving, selective }
    }

    /// The path, under a hypothetical catalog given as (column, kind)
    /// pairs, over one 1,200-row chunk: `A` has 2 distinct values (Eq
    /// selectivity 0.5), `B` 3 (0.33), `C` 40 (0.025), `S` is 0..1200.
    fn path(predicates: &[ScanPredicate], indexes: &[(ColumnId, IndexKind)]) -> Result<AccessPath> {
        let chunk = Chunk::from_columns(vec![
            ColumnValues::Int((0..1200).map(|i| i % 2).collect()),
            ColumnValues::Int((0..1200).map(|i| i % 3).collect()),
            ColumnValues::Int((0..1200).map(|i| i % 40).collect()),
            ColumnValues::Int((0..1200).collect()),
        ])?;
        access_path(&chunk, predicates, |col| {
            indexes.iter().find(|(c, _)| *c == col).map(|(_, k)| *k)
        })
    }

    #[test]
    fn prune_full_chunk_and_unknown_column() {
        let preds = [ScanPredicate::eq(C, 7i64), ScanPredicate::eq(S, 5_000i64)];
        assert_eq!(path(&preds, &[(C, Hash)]).unwrap(), Pruned);
        assert_eq!(path(&[], &[(A, Hash)]).unwrap(), FullChunk);
        assert!(path(&[ScanPredicate::eq(ColumnId(9), 1i64)], &[]).is_err());
    }

    #[test]
    fn without_a_usable_index_position_zero_scans() {
        let preds = [
            ScanPredicate::cmp(C, PredicateOp::Lt, 2i64),
            ScanPredicate::eq(A, 1i64),
        ];
        // No index; a hash index under a range; a composite under a lone
        // predicate; an index too broad to be chosen away from position 0.
        for indexes in [
            &[][..],
            &[(C, Hash)],
            &[(C, CompositeHash { second: S })],
            &[(A, Hash)],
        ] {
            assert_eq!(path(&preds, indexes).unwrap(), SCAN_0, "{indexes:?}");
        }
    }

    #[test]
    fn first_selective_supported_index_drives() {
        let preds = [
            ScanPredicate::eq(A, 1i64),
            ScanPredicate::eq(B, 2i64),
            ScanPredicate::eq(C, 7i64),
            ScanPredicate::between(S, 10i64, 20i64),
        ];
        // `A` (0.5) and `B` (0.33) are indexed but too broad: `C` drives.
        let all = [(A, Hash), (B, Hash), (C, Hash), (S, BTree)];
        let picked = path(&preds, &all).unwrap();
        assert_eq!(picked, probe(2, true));
        assert!(picked.consumes(2) && !picked.consumes(0) && !picked.consumes(3));
        // Without `C`'s index the narrow B-tree range is next.
        let picked = path(&preds, &[all[0], all[1], all[3]]).unwrap();
        assert_eq!(picked, probe(3, true));
    }

    #[test]
    fn position_zero_fallback_is_probed_whatever_its_selectivity() {
        // Half the chunk, far above the threshold — yet the B-tree
        // supports BETWEEN, so position 0 is probed.
        let broad = ScanPredicate::between(S, 0i64, 600i64);
        let preds = [broad.clone(), ScanPredicate::eq(A, 1i64)];
        let picked = path(&preds, &[(S, BTree), (A, Hash)]).unwrap();
        assert_eq!(picked, probe(0, false));
        // The same broad index anywhere but position 0 is not used.
        let preds = [ScanPredicate::eq(A, 1i64), broad];
        assert_eq!(path(&preds, &[(S, BTree)]).unwrap(), SCAN_0);
    }

    #[test]
    fn composite_pair_search_is_exhaustive() {
        let preds = [
            ScanPredicate::eq(A, 1i64),
            ScanPredicate::eq(B, 2i64),
            ScanPredicate::eq(C, 7i64),
        ];
        let on = |first, second| (first, CompositeHash { second });
        // A·B = 0.167 fails the combined rule; B·C = 0.008 passes.
        let picked = path(&preds, &[on(A, B), on(B, C)]).unwrap();
        let (first, second) = (1, 2);
        assert_eq!(picked, Composite { first, second });
        assert!(picked.consumes(1) && picked.consumes(2) && !picked.consumes(0));
        // The indexed column leads even when its predicate comes later.
        let picked = path(&preds, &[on(C, A)]).unwrap();
        let (first, second) = (2, 0);
        assert_eq!(picked, Composite { first, second });
        // No pair passes: the composite is ignored and position 0 scans.
        assert_eq!(path(&preds, &[on(A, B)]).unwrap(), SCAN_0);
        // A range on the second column is not a composite candidate.
        let ranged = [
            ScanPredicate::eq(C, 7i64),
            ScanPredicate::cmp(A, PredicateOp::Le, 0i64),
        ];
        assert_eq!(path(&ranged, &[on(C, A)]).unwrap(), SCAN_0);
    }
}
