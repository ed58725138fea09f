//! Query clustering (workload compression).
//!
//! "Similar queries can be combined to reduce the number of queries that
//! have to be processed … and, in the end, reduce the time necessary for
//! predictions and tunings" (Section II-C). Templates are embedded into a
//! small feature space and clustered with seeded k-means; each cluster is
//! represented by its heaviest member carrying the cluster's combined
//! weight.

use rand::RngExt;
use smdb_common::seeded_rng;

use crate::history::{TemplateHistory, WorkloadHistory};

/// Feature embedding of one template for clustering purposes.
pub fn template_features(fp: u64, hist: &TemplateHistory) -> [f64; 6] {
    let template = hist.example.template();
    let arity = template.predicates.len() as f64;
    let range_frac = if template.predicates.is_empty() {
        0.0
    } else {
        template
            .predicates
            .iter()
            .filter(|(_, op)| op.is_range())
            .count() as f64
            / arity
    };
    [
        template.table.0 as f64,
        // First predicate column (queries on the same column cluster
        // together — they benefit from the same physical design).
        template
            .predicates
            .first()
            .map_or(-1.0, |(c, _)| c.0 as f64),
        arity,
        range_frac,
        if template.aggregate.is_some() {
            1.0
        } else {
            0.0
        },
        // Cost magnitude; log-compressed. The fingerprint itself is NOT a
        // feature (it is hash noise), only used for tie-breaking upstream.
        (hist.mean_cost.ms().max(1e-9)).ln() + (fp as f64 * 0.0),
    ]
}

/// One cluster of templates.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Fingerprints of member templates.
    pub members: Vec<u64>,
    /// Fingerprint of the representative (heaviest member).
    pub representative: u64,
    /// Total executions over all members.
    pub total_weight: f64,
}

/// K-means over template embeddings. Deterministic under `seed`. Returns
/// at most `k` non-empty clusters.
pub fn cluster_templates(history: &WorkloadHistory, k: usize, seed: u64) -> Vec<Cluster> {
    let items: Vec<(u64, [f64; 6], f64)> = history
        .iter()
        .map(|(fp, th)| (fp, template_features(fp, th), th.total))
        .collect();
    if items.is_empty() {
        return Vec::new();
    }
    let k = k.max(1).min(items.len());

    // Normalise features to zero mean / unit variance per dimension so
    // table ids do not dominate.
    let dim = 6;
    let n = items.len() as f64;
    let mut mean = [0.0f64; 6];
    let mut std = [0.0f64; 6];
    for (_, f, _) in &items {
        for d in 0..dim {
            mean[d] += f[d];
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    for (_, f, _) in &items {
        for d in 0..dim {
            std[d] += (f[d] - mean[d]).powi(2);
        }
    }
    for s in &mut std {
        *s = (*s / n).sqrt().max(1e-9);
    }
    // Post-normalisation dimension weights: the target table dominates
    // (queries on different tables never share physical design), then the
    // driving column, then shape features.
    const DIM_WEIGHTS: [f64; 6] = [4.0, 2.0, 1.0, 1.0, 1.0, 1.0];
    let points: Vec<[f64; 6]> = items
        .iter()
        .map(|(_, f, _)| {
            let mut p = [0.0f64; 6];
            for d in 0..dim {
                p[d] = (f[d] - mean[d]) / std[d] * DIM_WEIGHTS[d];
            }
            p
        })
        .collect();

    // k-means++-style seeding (greedy farthest point, deterministic RNG
    // for the first pick).
    let mut rng = seeded_rng(seed);
    let first = rng.random_range(0..points.len());
    let mut centroids: Vec<[f64; 6]> = vec![points[first]];
    while centroids.len() < k {
        let Some((best_i, _)) = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let d = centroids
                    .iter()
                    .map(|c| dist2(p, c))
                    .fold(f64::INFINITY, f64::min);
                (i, d)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            break;
        };
        centroids.push(points[best_i]);
    }

    // Lloyd iterations.
    let mut assignment = vec![0usize; points.len()];
    for _ in 0..32 {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..centroids.len())
                .min_by(|&a, &b| dist2(p, &centroids[a]).total_cmp(&dist2(p, &centroids[b])))
                .unwrap_or(0);
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Recompute centroids.
        let mut sums = vec![[0.0f64; 6]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            let a = assignment[i];
            counts[a] += 1;
            for d in 0..dim {
                sums[a][d] += p[d];
            }
        }
        for (c, (sum, count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if *count > 0 {
                for d in 0..dim {
                    c[d] = sum[d] / *count as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Materialise non-empty clusters.
    let mut clusters: Vec<Cluster> = Vec::new();
    for c in 0..centroids.len() {
        let members: Vec<usize> = (0..items.len()).filter(|&i| assignment[i] == c).collect();
        let Some(representative) = members
            .iter()
            .max_by(|&&a, &&b| {
                items[a]
                    .2
                    .total_cmp(&items[b].2)
                    .then(items[b].0.cmp(&items[a].0))
            })
            .map(|&i| items[i].0)
        else {
            continue;
        };
        clusters.push(Cluster {
            members: members.iter().map(|&i| items[i].0).collect(),
            representative,
            total_weight: members.iter().map(|&i| items[i].2).sum(),
        });
    }
    clusters.sort_by_key(|c| c.representative);
    clusters
}

fn dist2(a: &[f64; 6], b: &[f64; 6]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ColumnId, Cost, LogicalTime, TableId};
    use smdb_query::{PlanCache, Query};
    use smdb_storage::ScanPredicate;

    fn history_with_tables(tables: &[u32], queries_each: usize) -> WorkloadHistory {
        let mut cache = PlanCache::default();
        for &t in tables {
            for col in 0..queries_each {
                let q = Query::new(
                    TableId(t),
                    format!("t{t}"),
                    vec![ScanPredicate::eq(ColumnId(col as u16), 1i64)],
                    None,
                    format!("q{t}_{col}"),
                );
                for _ in 0..=(t as usize) {
                    cache.record(&q, Cost(1.0), LogicalTime(0));
                }
            }
        }
        let mut hist = WorkloadHistory::new();
        hist.observe(LogicalTime(0), &cache.snapshot());
        hist
    }

    #[test]
    fn clusters_partition_all_templates() {
        let hist = history_with_tables(&[0, 1, 2], 4);
        let clusters = cluster_templates(&hist, 3, 42);
        let total: usize = clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 12);
        assert!(clusters.len() <= 3);
        for c in &clusters {
            assert!(c.members.contains(&c.representative));
            assert!(c.total_weight > 0.0);
        }
    }

    #[test]
    fn k_capped_by_item_count() {
        let hist = history_with_tables(&[0], 2);
        let clusters = cluster_templates(&hist, 10, 1);
        assert!(clusters.len() <= 2);
    }

    #[test]
    fn deterministic_under_seed() {
        let hist = history_with_tables(&[0, 1, 2, 3], 3);
        let a = cluster_templates(&hist, 4, 7);
        let b = cluster_templates(&hist, 4, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.representative, y.representative);
        }
    }

    #[test]
    fn same_table_queries_tend_to_cluster() {
        // Two tables, well separated in feature space; k = 2 should
        // split by table.
        let hist = history_with_tables(&[0, 9], 3);
        let clusters = cluster_templates(&hist, 2, 3);
        assert_eq!(clusters.len(), 2);
        for c in &clusters {
            let tables: std::collections::HashSet<_> = c
                .members
                .iter()
                .map(|fp| hist.template(*fp).unwrap().example.table())
                .collect();
            assert_eq!(tables.len(), 1, "cluster mixes tables: {clusters:?}");
        }
    }

    #[test]
    fn empty_history_empty_clusters() {
        let hist = WorkloadHistory::new();
        assert!(cluster_templates(&hist, 3, 0).is_empty());
    }
}
