//! Scan execution. A scan first narrows the table to its *chunk run*
//! ([`crate::table::Table::chunk_run`]): on a column whose chunk mins and
//! maxes never decrease, two binary searches find the chunks min/max
//! pruning cannot rule out. A chunk outside the run is charged as the
//! pruned chunk it is, without asking [`access_path`]; every chunk inside
//! is scanned along the [`AccessPath`] [`crate::access`] decides for it
//! (which may still prune it), yielding a [`ChunkPartial`].
//!
//! One chunk-ordered fold turns the chunks into a [`ScanOutput`], fed
//! three ways: the inline scan folds each partial as soon as it is
//! scanned, the morsel-parallel scan folds its collected partials in
//! chunk order, and a sharded scatter-gather folds partials from every
//! shard in global chunk order through
//! [`StorageEngine::merge_scan_partials`].
//!
//! A chunk every row of which provably satisfies every predicate is
//! *covered* ([`crate::stats::SegmentStats::admits_all`]): when the
//! query has no GROUP BY and the path selects in position order (every
//! path but a B-tree probe of an unsorted column), its ungrouped
//! aggregate is the constant the aggregated segment's statistics keep,
//! folded in position order. One body (`visit_chunk`) runs and charges
//! every chunk: a covered chunk skips the filters, probes and fold and
//! is charged its row count wherever the row path charges what it
//! selected, so answers, `sim_cost` and counters are unchanged.
//!
//! Aggregate state (`AggState`) folds per operator: every operator
//! counts its rows, SUM and AVG fold `sum`, MIN `min`, MAX `max`, and
//! COUNT reads no segment. The one `Step` of the operator is chosen
//! once per batch, and the scalar consume, the kernels and
//! `fold_keyed` all step through it.

use std::ops::Range;

use smdb_common::{ChunkId, ColumnId, Cost, Error, Result, TableId};

use crate::access::{access_path, AccessPath};
use crate::chunk::Chunk;
use crate::encoding::EncodingKind;
use crate::engine::StorageEngine;
use crate::index::IndexKind;
use crate::parallel::ScanPool;
use crate::scan::{Aggregate, AggregateOp, ScanPredicate};
use crate::table::Table;
use crate::value::Value;

/// Result of one table scan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanOutput {
    /// Rows satisfying all predicates.
    pub rows_matched: u64,
    /// Aggregate value, when an aggregate was requested and computable.
    pub agg_value: Option<f64>,
    /// Per-group aggregate values when a GROUP BY was requested, sorted
    /// by group key.
    pub groups: Option<Vec<(Value, f64)>>,
    /// Ground-truth simulated cost of the scan: the total *work*
    /// performed, summed over chunks in chunk-index order. Independent
    /// of how (or whether) the scan was parallelised — cost estimators
    /// learn from this figure.
    pub sim_cost: Cost,
    /// Ground-truth simulated *latency* of the scan: equal to
    /// [`ScanOutput::sim_cost`] for an inline scan; for a morsel-driven
    /// parallel scan, the deterministic critical-path latency of
    /// [`crate::parallel::simulated_latency`] (max lane sum plus
    /// per-morsel dispatch overhead). This is what serving KPIs record.
    pub sim_latency: Cost,
    /// Morsels dispatched to the scan pool (0 for an inline scan).
    pub morsels: u64,
    /// Rows actually touched by the driving filter (scan or probe output).
    pub rows_scanned: u64,
    /// Chunks skipped by min/max pruning.
    pub chunks_pruned: u64,
    /// Chunks actually processed.
    pub chunks_visited: u64,
    /// Chunks where an index answered the driving predicate.
    pub index_probes: u64,
    /// Visited chunks whose driving selection ran on a batch kernel.
    /// Together with [`ScanOutput::index_probes`] and
    /// [`ScanOutput::chunks_scalar`] this partitions the visited chunks:
    /// `chunks_visited == index_probes + chunks_kernel + chunks_scalar`.
    pub chunks_kernel: u64,
    /// Visited chunks whose driving selection fell back to the scalar
    /// per-value path.
    pub chunks_scalar: u64,
    /// Batch-kernel invocations (driving filters, refines, aggregate
    /// folds) across all chunks of the scan.
    pub kernel_batches: u64,
}

/// Per-chunk access-path partition of one scan, predicted or executed:
/// every chunk of the table lands in exactly one bucket. The executed
/// partition comes from [`ScanOutput`] (`chunks_pruned`, `index_probes`,
/// `chunks_kernel`, `chunks_scalar`);
/// [`StorageEngine::predict_access_paths`] produces the same partition
/// from statistics alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictedPaths {
    /// Chunks min/max pruning skips.
    pub pruned: u64,
    /// Chunks where an index probe answers the driving predicate(s).
    pub index: u64,
    /// Chunks whose driving selection runs on a batch kernel.
    pub kernel: u64,
    /// Chunks whose driving selection falls back to the scalar path.
    pub scalar: u64,
}

/// The chunk's access path under the indexes it actually carries.
fn live_path(chunk: &Chunk, predicates: &[ScanPredicate]) -> Result<AccessPath> {
    let index_of = |col| chunk.index(col).map(|idx| idx.kind());
    access_path(chunk, predicates, index_of)
}

impl StorageEngine {
    /// Predicts, from chunk statistics and the catalog alone, which
    /// access path [`StorageEngine::scan_chunk`] takes on every chunk of
    /// `table` for `predicates` — without executing anything. Both read
    /// the same [`access_path`] decision; a scanned chunk is a kernel
    /// chunk when [`crate::kernels::covers_filter`] holds and the kernel
    /// switch is on. `predicted == executed` is therefore a checkable
    /// invariant against the [`ScanOutput`] counters.
    pub fn predict_access_paths(
        &self,
        table: TableId,
        predicates: &[ScanPredicate],
    ) -> Result<PredictedPaths> {
        let table = self.table(table)?;
        let mut out = PredictedPaths::default();
        for (_, chunk) in table.chunks() {
            let kernel = match live_path(chunk, predicates)? {
                AccessPath::Pruned => {
                    out.pruned += 1;
                    continue;
                }
                AccessPath::Composite { .. } | AccessPath::Probe { .. } => {
                    out.index += 1;
                    continue;
                }
                // Full-chunk selection: one batch emit when kernels are on.
                AccessPath::FullChunk => self.kernels,
                AccessPath::Scan { driving } => {
                    let p = &predicates[driving];
                    self.kernels && crate::kernels::covers_filter(chunk.segment(p.column)?)
                }
            };
            if kernel {
                out.kernel += 1;
            } else {
                out.scalar += 1;
            }
        }
        Ok(out)
    }

    /// Executes a predicate scan (+ optional aggregate) with ground-truth
    /// costing.
    pub fn scan(
        &self,
        table_id: TableId,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
    ) -> Result<ScanOutput> {
        self.scan_grouped(table_id, predicates, aggregate, None)
    }

    /// Like [`StorageEngine::scan`] with an optional GROUP BY column: the
    /// aggregate is computed per distinct value of `group_by` (hash
    /// aggregation, charged per matched row).
    pub fn scan_grouped(
        &self,
        table_id: TableId,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<ColumnId>,
    ) -> Result<ScanOutput> {
        self.scan_with(table_id, predicates, aggregate, group_by, None)
    }

    /// Like [`StorageEngine::scan_grouped`], executed morsel-parallel on
    /// `pool`: the chunk list is split into morsels of `morsel_chunks`
    /// chunks, dispatched to the pool, and the per-chunk partials are
    /// merged in chunk-index order — so every result field except
    /// [`ScanOutput::sim_latency`] and [`ScanOutput::morsels`] is
    /// bit-identical to the sequential scan, for any thread count and
    /// morsel size. Scans that produce fewer than two morsels run
    /// inline (the pool cannot help them).
    pub fn scan_grouped_parallel(
        &self,
        table_id: TableId,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<ColumnId>,
        pool: &ScanPool,
        morsel_chunks: usize,
    ) -> Result<ScanOutput> {
        self.scan_with(
            table_id,
            predicates,
            aggregate,
            group_by,
            Some((pool, morsel_chunks)),
        )
    }

    /// Computes the per-chunk partials of a scan *without* merging them —
    /// the scatter half of a sharded scatter-gather execution. Each
    /// element is one chunk's contribution, in chunk-index order; a
    /// sharded executor collects partials from every shard, orders them
    /// by global chunk index and folds them once with
    /// [`StorageEngine::merge_scan_partials`], which reproduces the exact
    /// combine tree of an unsharded scan — so every result field except
    /// the latency model is bit-identical for any shard count. With
    /// `parallel`, morsels are dispatched to the pool exactly as in
    /// [`StorageEngine::scan_grouped_parallel`]; partial *values* are
    /// independent of the execution mode.
    pub fn scan_partials(
        &self,
        table_id: TableId,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<ColumnId>,
        parallel: Option<(&ScanPool, usize)>,
    ) -> Result<Vec<ChunkPartial>> {
        let job = self.scan_job(table_id, predicates, aggregate, group_by)?;
        if let Some((pool, ranges)) = morsels(parallel, job.table.chunk_count()) {
            return Ok(self.scan_morsels(&job, pool, &ranges)?.0);
        }
        let mut partials = Vec::with_capacity(job.table.chunk_count());
        self.scan_range(&job, 0..job.table.chunk_count(), &mut partials)?;
        Ok(partials)
    }

    /// The scan, folded; a pool-dispatched scan reports the lane model's
    /// critical-path latency instead of the summed work.
    fn scan_with(
        &self,
        table_id: TableId,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<ColumnId>,
        parallel: Option<(&ScanPool, usize)>,
    ) -> Result<ScanOutput> {
        let job = self.scan_job(table_id, predicates, aggregate, group_by)?;
        let Some((pool, ranges)) = morsels(parallel, job.table.chunk_count()) else {
            // Inline: each chunk's partial is folded as soon as it is
            // scanned.
            let mut fold = ScanFold::new(aggregate);
            self.scan_range(&job, 0..job.table.chunk_count(), &mut fold)?;
            return Ok(fold.finish(group_by));
        };
        let (partials, morsel_costs_ms) = self.scan_morsels(&job, pool, &ranges)?;
        let mut out = self.merge_scan_partials(partials, aggregate, group_by);
        out.sim_latency = crate::parallel::simulated_latency(
            &morsel_costs_ms,
            pool.threads().min(morsel_costs_ms.len()),
            self.params.morsel_dispatch_ms,
        );
        out.morsels = morsel_costs_ms.len() as u64;
        Ok(out)
    }

    /// Validates the query shape against the table's schema and finds
    /// the chunk run its predicates leave.
    fn scan_job<'a>(
        &'a self,
        table_id: TableId,
        predicates: &'a [ScanPredicate],
        aggregate: Option<&'a Aggregate>,
        group_by: Option<ColumnId>,
    ) -> Result<ScanJob<'a>> {
        let table = self.table(table_id)?;
        if let Some(g) = group_by {
            table.schema().column(g)?;
            if aggregate.is_none() {
                return Err(Error::invalid("GROUP BY requires an aggregate"));
            }
        }
        for p in predicates {
            table.schema().column(p.column)?;
        }
        if let Some(agg) = aggregate {
            if agg.op != AggregateOp::Count {
                table.schema().column(agg.column)?;
            }
        }
        Ok(ScanJob {
            table,
            predicates,
            aggregate,
            group_by,
            run: table.chunk_run(predicates),
        })
    }

    /// Feeds `sink` every chunk of `range`, in chunk order: a chunk
    /// outside the job's run is charged its prune check, any other is
    /// scanned. One position-list allocation serves the whole range.
    fn scan_range(
        &self,
        job: &ScanJob<'_>,
        range: Range<usize>,
        sink: &mut impl ChunkSink,
    ) -> Result<()> {
        let prune = Cost(self.params.prune_check_ms);
        let mut positions = Vec::new();
        for i in range {
            if job.run.contains(&i) {
                let chunk = job.table.chunk(ChunkId(i as u32))?;
                sink.add(self.scan_chunk(job, chunk, &mut positions)?);
            } else {
                sink.pruned(prune);
            }
        }
        Ok(())
    }

    /// Scans the job's morsels on `pool`, returning every chunk's partial
    /// in chunk order and each morsel's summed cost for the lane latency
    /// model. The submitting thread collects the morsels in chunk order,
    /// so the fold — and every float in the result — is the inline
    /// scan's.
    fn scan_morsels(
        &self,
        job: &ScanJob<'_>,
        pool: &ScanPool,
        ranges: &[(usize, usize)],
    ) -> Result<(Vec<ChunkPartial>, Vec<f64>)> {
        let slots: Vec<parking_lot::Mutex<Option<Result<Vec<ChunkPartial>>>>> = ranges
            .iter()
            .map(|_| parking_lot::Mutex::new(None))
            .collect();
        let clean = pool.run(ranges.len(), |m| {
            let (start, end) = ranges[m];
            let mut parts = Vec::with_capacity(end - start);
            let scanned = self.scan_range(job, start..end, &mut parts);
            *slots[m].lock() = Some(scanned.map(|()| parts));
        });
        if !clean {
            return Err(Error::invalid("a parallel scan morsel panicked"));
        }
        let mut morsel_costs_ms = Vec::with_capacity(ranges.len());
        let mut all = Vec::with_capacity(job.table.chunk_count());
        for slot in &slots {
            let morsel = slot
                .lock()
                .take()
                .ok_or_else(|| Error::invalid("a parallel scan morsel produced no output"))??;
            morsel_costs_ms.push(morsel.iter().map(|p| p.cost.ms()).sum::<f64>());
            all.extend(morsel);
        }
        Ok((all, morsel_costs_ms))
    }

    /// Scans one chunk along its [`AccessPath`], returning its partial:
    /// counters, aggregate state and the chunk's share of the simulated
    /// work. `positions` is caller-provided scratch (cleared per call) so
    /// a range reuses one allocation across its chunks. A partial is a
    /// pure function of (chunk, query, configuration) — which execution
    /// mode computed it, and in which order, cannot matter.
    fn scan_chunk(
        &self,
        job: &ScanJob<'_>,
        chunk: &Chunk,
        positions: &mut Vec<u32>,
    ) -> Result<ChunkPartial> {
        let path = live_path(chunk, job.predicates)?;
        if path == AccessPath::Pruned {
            return Ok(ChunkPartial::pruned_chunk(Cost(self.params.prune_check_ms)));
        }
        let covered = covered(job, chunk, path)?;
        self.visit_chunk(job, chunk, path, covered, positions)
    }

    /// Runs `path` over a chunk min/max pruning kept, and charges it.
    /// A `covered` chunk ([`covered`]) runs no filter, probe or fold:
    /// every row matches, so every charge that reads how many rows the
    /// path has selected reads the chunk's row count, and the aggregate
    /// is the constant its statistics keep. Either way the charges,
    /// counters and kernel decisions come from this one body.
    fn visit_chunk(
        &self,
        job: &ScanJob<'_>,
        chunk: &Chunk,
        path: AccessPath,
        covered: bool,
        positions: &mut Vec<u32>,
    ) -> Result<ChunkPartial> {
        let (predicates, aggregate, group_by) = (job.predicates, job.aggregate, job.group_by);
        let mut part = ChunkPartial {
            agg: AggState::new(aggregate.map(|a| a.op)),
            ..ChunkPartial::default()
        };
        let tier_mult = self.tier_multiplier(chunk.tier());
        part.cost += Cost(self.params.chunk_visit_ms);
        positions.clear();
        // The rows selected so far: all of them on a covered chunk.
        let rows = chunk.rows();
        let selected = |positions: &Vec<u32>| if covered { rows } else { positions.len() };

        // The index the path names: the decision just saw it, but this
        // path must never panic mid-serve.
        let index_at = |pos: usize| {
            chunk
                .index(predicates[pos].column)
                .ok_or_else(|| Error::invalid("access path names an index the chunk lacks"))
        };
        let probe_cost = |matches: usize| {
            Cost(self.params.index_probe_ms + matches as f64 * self.params.index_match_ms)
                * tier_mult
        };
        let scan_cost = |units: usize, enc: EncodingKind| {
            Cost(units as f64 * self.params.scan_ms_per_row * self.params.encoding_scan_factor(enc))
                * tier_mult
        };
        match path {
            // Returned by `scan_chunk`.
            AccessPath::Pruned => {}
            AccessPath::Composite { first, second } => {
                let index = index_at(first)?;
                if !covered {
                    index.probe_composite(
                        &predicates[first].value,
                        &predicates[second].value,
                        positions,
                    );
                }
                part.index_probes += 1;
                part.cost += probe_cost(selected(positions));
            }
            AccessPath::FullChunk => {
                // One batch emit either way, so the chunk is classified
                // with the kernel path when enabled.
                part.kernel_chunk = self.kernels;
                if !covered {
                    positions.extend(0..rows as u32);
                }
                part.rows_scanned += rows as u64;
                let (units, enc) = chunk
                    .segment(ColumnId(0))
                    .map(|s| (s.scan_units(), s.encoding()))
                    .unwrap_or((rows, EncodingKind::Unencoded));
                part.cost += scan_cost(units, enc);
            }
            // Probed whether or not the selectivity rule chose it (see
            // `AccessPath::Probe::selective`).
            AccessPath::Probe { driving, .. } => {
                let index = index_at(driving)?;
                if !covered {
                    let answered = index.probe(&predicates[driving], positions);
                    debug_assert!(answered, "single-attribute probe must answer");
                }
                part.index_probes += 1;
                part.cost += probe_cost(selected(positions));
            }
            AccessPath::Scan { driving } => {
                let driving = &predicates[driving];
                let seg = chunk.segment(driving.column)?;
                let kernel = self.kernels && crate::kernels::covers_filter(seg);
                if !covered {
                    let batched = kernel && crate::kernels::filter(seg, driving, positions);
                    debug_assert_eq!(batched, kernel, "covers_filter decides the kernel");
                    if !batched {
                        seg.filter(driving, positions);
                    }
                }
                part.kernel_chunk = kernel;
                part.kernel_batches += u64::from(kernel);
                part.rows_scanned += rows as u64;
                part.cost += scan_cost(seg.scan_units(), seg.encoding());
            }
        }

        // Residual predicates refine the position list.
        for (pos, p) in predicates.iter().enumerate() {
            if path.consumes(pos) {
                continue;
            }
            let before = selected(positions);
            if before == 0 {
                break;
            }
            let seg = chunk.segment(p.column)?;
            let kernel = self.kernels && crate::kernels::covers_refine(seg);
            if !covered {
                let batched = kernel && crate::kernels::refine(seg, p, positions);
                debug_assert_eq!(batched, kernel, "covers_refine decides the kernel");
                if !batched {
                    seg.refine(p, positions);
                }
            }
            part.kernel_batches += u64::from(kernel);
            part.cost += Cost(before as f64 * self.params.refine_ms_per_row) * tier_mult;
        }

        let matched = selected(positions);
        part.rows_matched += matched as u64;
        if let Some(agg) = aggregate {
            let agg_cost = if covered {
                self.aggregate_covered(chunk, agg, matched, &mut part)?
            } else {
                self.aggregate_positions(chunk, agg, group_by, positions, &mut part)?
            };
            part.cost += agg_cost;
        }
        Ok(part)
    }

    /// Folds partials — the caller's responsibility to order by global
    /// chunk index — into one [`ScanOutput`] through the same
    /// [`ScanFold`] the inline scan feeds chunk by chunk. The returned
    /// latency equals the summed work (the inline model); a
    /// pool-dispatched or sharded executor overrides
    /// [`ScanOutput::sim_latency`] / [`ScanOutput::morsels`] with its own
    /// lane model.
    pub fn merge_scan_partials(
        &self,
        partials: Vec<ChunkPartial>,
        aggregate: Option<&Aggregate>,
        group_by: Option<ColumnId>,
    ) -> ScanOutput {
        let mut fold = ScanFold::new(aggregate);
        for part in partials {
            fold.add(part);
        }
        fold.finish(group_by)
    }

    /// Accumulates aggregate state for the matched positions of one
    /// chunk, grouped or global, into `part`, and returns the simulated
    /// cost charged. The batched kernels produce bit-identical state to
    /// the scalar loops (see [`crate::kernels`]); the charged cost is a
    /// function of the positions alone, never of the execution strategy.
    fn aggregate_positions(
        &self,
        chunk: &Chunk,
        agg: &Aggregate,
        group_by: Option<ColumnId>,
        positions: &[u32],
        part: &mut ChunkPartial,
    ) -> Result<Cost> {
        match group_by {
            None => {
                if self.accumulates_on_kernel(chunk, agg)? {
                    crate::kernels::accumulate(
                        chunk.segment(agg.column)?,
                        positions,
                        &mut part.agg,
                    );
                    part.kernel_batches += 1;
                } else {
                    part.agg.consume(chunk, agg, positions)?;
                }
                Ok(Cost(positions.len() as f64 * self.params.agg_ms_per_row))
            }
            Some(g) => {
                let group_seg = chunk.segment(g)?;
                let agg_seg = if agg.op == AggregateOp::Count {
                    None
                } else {
                    Some(chunk.segment(agg.column)?)
                };
                if self.kernels
                    && crate::kernels::aggregate_grouped(
                        group_seg,
                        chunk.stats(g)?,
                        agg_seg,
                        positions,
                        agg.op,
                        &mut part.groups,
                    )
                {
                    part.kernel_batches += 1;
                } else {
                    let keyed = positions
                        .iter()
                        .map(|&p| (group_seg.value_at(p as usize), p))
                        .collect();
                    let x = |p: u32| agg_seg.and_then(|seg| seg.value_at(p as usize).as_f64());
                    let op = Some(agg.op);
                    with_step!(op, S => {
                        fold_keyed(keyed, op, |st, p| st.add::<S>(x(p)), &mut part.groups)
                    });
                }
                Ok(Cost(
                    positions.len() as f64
                        * (self.params.agg_ms_per_row + self.params.group_ms_per_row),
                ))
            }
        }
    }

    /// An ungrouped aggregate over a covered chunk: the constant its
    /// statistics keep for the aggregated column (COUNT reads none),
    /// charged as [`Self::aggregate_positions`] charges `rows` matches.
    fn aggregate_covered(
        &self,
        chunk: &Chunk,
        agg: &Aggregate,
        rows: usize,
        part: &mut ChunkPartial,
    ) -> Result<Cost> {
        let all = match part.agg.op {
            None | Some(AggregateOp::Count) => None,
            Some(_) => Some(&chunk.stats(agg.column)?.all_rows),
        };
        part.agg.cover(rows as u64, all);
        part.kernel_batches += u64::from(self.accumulates_on_kernel(chunk, agg)?);
        Ok(Cost(rows as f64 * self.params.agg_ms_per_row))
    }

    /// Whether an ungrouped aggregate folds on the batch kernel.
    fn accumulates_on_kernel(&self, chunk: &Chunk, agg: &Aggregate) -> Result<bool> {
        Ok(self.kernels
            && match agg.op {
                // COUNT touches no segment; the scalar path is already
                // one counter addition.
                AggregateOp::Count => false,
                _ => crate::kernels::covers_accumulate(chunk.segment(agg.column)?),
            })
    }
}

/// Whether every row of `chunk` provably satisfies every predicate and
/// `path` would select them in position order — the order a chunk's
/// statistics fold their constant in. An ungrouped aggregate over such
/// a *covered* chunk is that constant: GROUP BY never is. A scan, a
/// kernel, the full chunk and a hash or composite probe select in
/// position order; a B-tree probe walks its keys, which is position
/// order only on a column whose values never decrease.
fn covered(job: &ScanJob<'_>, chunk: &Chunk, path: AccessPath) -> Result<bool> {
    if job.group_by.is_some() {
        return Ok(false);
    }
    for p in job.predicates {
        if !chunk.stats(p.column)?.admits_all(p) {
            return Ok(false);
        }
    }
    Ok(match path {
        AccessPath::Probe { driving, .. } => {
            let column = job.predicates[driving].column;
            chunk.index(column).map(|index| index.kind()) != Some(IndexKind::BTree)
                || chunk.stats(column)?.sorted
        }
        _ => true,
    })
}

/// One chunk's contribution to a scan. Partials are produced by
/// `StorageEngine::scan_chunk` (on whichever thread ran the morsel) and
/// folded by `ScanFold` in chunk-index order. The
/// type is opaque outside the engine: a sharded executor obtains
/// partials via [`StorageEngine::scan_partials`], orders them by global
/// chunk index and hands them back to
/// [`StorageEngine::merge_scan_partials`] — it never looks inside, so
/// the combine tree stays the engine's alone.
#[derive(Default)]
pub struct ChunkPartial {
    /// The chunk was eliminated by min/max statistics; only
    /// `cost` (the prune check) is meaningful.
    pruned: bool,
    rows_matched: u64,
    rows_scanned: u64,
    index_probes: u64,
    /// The driving selection ran on a batch kernel (never set when an
    /// index probe answered the driving predicate).
    kernel_chunk: bool,
    /// Batch-kernel invocations while scanning this chunk.
    kernel_batches: u64,
    /// The chunk's share of the simulated work.
    cost: Cost,
    /// Ungrouped aggregate state over this chunk's matches.
    agg: AggState,
    /// Per-group aggregate state over this chunk's matches, sorted by
    /// key (`Value::cmp`, which keeps `-0.0`, `0.0` and NaN apart), one
    /// entry per key.
    groups: Vec<(Value, AggState)>,
}

impl ChunkPartial {
    /// The chunk's share of the simulated work (prune check only when
    /// the chunk was eliminated by statistics). A sharded executor sums
    /// these per shard to drive its lane latency model.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// The partial of a chunk min/max statistics rule out: its prune
    /// check and nothing else.
    fn pruned_chunk(cost: Cost) -> Self {
        ChunkPartial {
            pruned: true,
            cost,
            ..ChunkPartial::default()
        }
    }
}

/// One validated scan: the table, the query, and the chunk run the
/// table's monotone columns leave it ([`Table::chunk_run`]).
struct ScanJob<'a> {
    table: &'a Table,
    predicates: &'a [ScanPredicate],
    aggregate: Option<&'a Aggregate>,
    group_by: Option<ColumnId>,
    run: Range<usize>,
}

/// The pool and morsels a scan is dispatched as: only when a pool with
/// helpers is offered and the table splits into at least two morsels
/// (one morsel has no parallelism to pay the dispatch for).
fn morsels(
    parallel: Option<(&ScanPool, usize)>,
    chunks: usize,
) -> Option<(&ScanPool, Vec<(usize, usize)>)> {
    let (pool, morsel_chunks) = parallel?;
    let ranges = crate::parallel::morsel_ranges(chunks, morsel_chunks);
    (pool.threads() > 1 && ranges.len() > 1).then_some((pool, ranges))
}

/// Where a scan delivers its chunks, in chunk order: a scanned chunk's
/// partial, or the prune check of a chunk outside the run.
trait ChunkSink {
    fn add(&mut self, part: ChunkPartial);
    fn pruned(&mut self, cost: Cost);
}

/// Collected partials — one per chunk, for the morsel and scatter paths.
impl ChunkSink for Vec<ChunkPartial> {
    fn add(&mut self, part: ChunkPartial) {
        self.push(part);
    }

    fn pruned(&mut self, cost: Cost) {
        self.push(ChunkPartial::pruned_chunk(cost));
    }
}

/// The one combine tree every execution mode uses: a left fold over the
/// chunks in chunk order. That order fixes every float accumulation —
/// never scheduling, sharding, the chunk run or the container the
/// groups are kept in — which is the determinism argument.
struct ScanFold {
    out: ScanOutput,
    agg: AggState,
    /// Key-sorted, like every partial's groups.
    groups: Vec<(Value, AggState)>,
}

impl ScanFold {
    fn new(aggregate: Option<&Aggregate>) -> Self {
        ScanFold {
            out: ScanOutput::default(),
            agg: AggState::new(aggregate.map(|a| a.op)),
            groups: Vec::new(),
        }
    }

    /// Folds one partial's key-sorted groups into the fold's: in place
    /// while the partial's keys are already present — each key tried
    /// first at the slot after the previous match, then found by binary
    /// search — and as a merge of the two sorted vectors from the first
    /// new key on. A partial holding the fold's keys (every chunk of a
    /// low-cardinality GROUP BY) costs O(P) for P partial groups; one
    /// whose keys are present but sparse or past the fold's last key,
    /// O(P log G) for G fold groups; one with a new key inside the
    /// fold's range, O(G + P). Either way each key's state is `merge`d,
    /// so its floats fold in chunk order exactly as a map entry's would.
    fn merge_groups(&mut self, part: Vec<(Value, AggState)>) {
        let op = self.agg.op;
        let mut part = part.into_iter().peekable();
        let mut at = 0;
        while let Some((key, state)) = part.peek() {
            if self.groups.get(at).is_none_or(|(k, _)| k != key) {
                at += self.groups[at..].partition_point(|(k, _)| k < key);
                if at == self.groups.len() || self.groups[at].0 != *key {
                    break;
                }
            }
            self.groups[at].1.merge(state);
            part.next();
            at += 1;
        }
        if part.peek().is_none() {
            return;
        }
        let mut kept = self.groups.split_off(at).into_iter().peekable();
        for (key, state) in part {
            while let Some(entry) = kept.next_if(|(k, _)| *k < key) {
                self.groups.push(entry);
            }
            let mut entry = kept
                .next_if(|(k, _)| *k == key)
                .unwrap_or_else(|| (key, AggState::new(op)));
            entry.1.merge(&state);
            self.groups.push(entry);
        }
        self.groups.extend(kept);
    }

    /// The folded output; its latency is the summed work.
    fn finish(self, group_by: Option<ColumnId>) -> ScanOutput {
        let mut out = self.out;
        if group_by.is_some() {
            // `groups` is key-sorted: groups come out sorted.
            out.groups = Some(
                self.groups
                    .into_iter()
                    .filter_map(|(k, state)| {
                        let count = state.count;
                        state.finish(count).map(|v| (k, v))
                    })
                    .collect(),
            );
        } else {
            out.agg_value = self.agg.finish(out.rows_matched);
        }
        out.sim_latency = out.sim_cost;
        out
    }
}

impl ChunkSink for ScanFold {
    fn add(&mut self, part: ChunkPartial) {
        if part.pruned {
            self.pruned(part.cost);
            return;
        }
        let out = &mut self.out;
        out.sim_cost += part.cost;
        out.chunks_visited += 1;
        out.rows_matched += part.rows_matched;
        out.rows_scanned += part.rows_scanned;
        out.index_probes += part.index_probes;
        out.kernel_batches += part.kernel_batches;
        // Access-path partition of the visited chunks: probe, batch
        // kernel or scalar selection (at most one probe per chunk).
        if part.index_probes == 0 {
            if part.kernel_chunk {
                out.chunks_kernel += 1;
            } else {
                out.chunks_scalar += 1;
            }
        }
        self.agg.merge(&part.agg);
        self.merge_groups(part.groups);
    }

    fn pruned(&mut self, cost: Cost) {
        self.out.sim_cost += cost;
        self.out.chunks_pruned += 1;
    }
}

/// Appends `keyed` — (group key, position) pairs in position order —
/// to `groups` as key-sorted groups, each folded by `fold`. The sort is
/// stable, so each key's positions keep their order and every group
/// folds its rows as a per-row loop would; the cost is O(n log n) in
/// the pairs however many groups they form.
pub(crate) fn fold_keyed<K: Ord>(
    mut keyed: Vec<(K, u32)>,
    op: Option<AggregateOp>,
    fold: impl Fn(&mut AggState, u32),
    groups: &mut Vec<(K, AggState)>,
) {
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    let mut keyed = keyed.into_iter().peekable();
    while let Some((key, p)) = keyed.next() {
        let mut state = AggState::new(op);
        fold(&mut state, p);
        while let Some((_, p)) = keyed.next_if(|(k, _)| *k == key) {
            fold(&mut state, p);
        }
        groups.push((key, state));
    }
}

/// Streaming aggregate state across chunks. Every operator counts its
/// matched rows; beyond that each folds only the field it finishes
/// from — SUM and AVG `sum`, MIN `min`, MAX `max` — and COUNT reads no
/// value at all.
#[derive(Debug, Default, Clone)]
pub(crate) struct AggState {
    op: Option<AggregateOp>,
    pub(crate) sum: f64,
    pub(crate) count: u64,
    pub(crate) min: Option<f64>,
    pub(crate) max: Option<f64>,
}

/// One operator's fold of a numeric value into the field it finishes
/// from. [`with_step!`] resolves it once per batch, so the scalar
/// consume, the kernels and [`fold_keyed`] all run per-row loops
/// monomorphised over the same `step`.
pub(crate) trait Step {
    fn step(state: &mut AggState, x: f64);
}

/// SUM and AVG: `sum += x`.
pub(crate) struct SumStep;
/// MIN: `min` over the numeric rows, NaN dropped unless it is all there is.
pub(crate) struct MinStep;
/// MAX: as MIN.
pub(crate) struct MaxStep;
/// COUNT (and no aggregate): the row count is all there is.
pub(crate) struct CountStep;

impl Step for SumStep {
    #[inline(always)]
    fn step(state: &mut AggState, x: f64) {
        state.sum += x;
    }
}

impl Step for MinStep {
    #[inline(always)]
    fn step(state: &mut AggState, x: f64) {
        state.min = Some(state.min.map_or(x, |m| m.min(x)));
    }
}

impl Step for MaxStep {
    #[inline(always)]
    fn step(state: &mut AggState, x: f64) {
        state.max = Some(state.max.map_or(x, |m| m.max(x)));
    }
}

impl Step for CountStep {
    #[inline(always)]
    fn step(_: &mut AggState, _: f64) {}
}

/// Evaluates `$body` with `$S` naming the [`Step`] of `$op`, an
/// `Option<AggregateOp>`: one match per batch, never per row.
macro_rules! with_step {
    ($op:expr, $S:ident => $body:expr) => {{
        use $crate::scan::AggregateOp as Op;
        match $op {
            Some(Op::Sum | Op::Avg) => {
                type $S = $crate::exec::SumStep;
                $body
            }
            Some(Op::Min) => {
                type $S = $crate::exec::MinStep;
                $body
            }
            Some(Op::Max) => {
                type $S = $crate::exec::MaxStep;
                $body
            }
            Some(Op::Count) | None => {
                type $S = $crate::exec::CountStep;
                $body
            }
        }
    }};
}
pub(crate) use with_step;

impl AggState {
    pub(crate) fn new(op: Option<AggregateOp>) -> Self {
        AggState {
            op,
            ..AggState::default()
        }
    }

    /// The operator this state folds for.
    pub(crate) fn op(&self) -> Option<AggregateOp> {
        self.op
    }

    /// Folds one matched row: counts it and, when it reads as a number
    /// (`x`), steps it.
    #[inline(always)]
    pub(crate) fn add<S: Step>(&mut self, x: Option<f64>) {
        self.count += 1;
        if let Some(x) = x {
            S::step(self, x);
        }
    }

    /// Folds one row into every field — `sum`, `min` and `max` — the
    /// fold a segment's statistics keep for a covered chunk.
    pub(crate) fn add_to_every_field(&mut self, x: Option<f64>) {
        self.count += 1;
        if let Some(x) = x {
            SumStep::step(self, x);
            MinStep::step(self, x);
            MaxStep::step(self, x);
        }
    }

    /// This fresh state as a fold over every row of a covered chunk:
    /// `all`, the aggregated segment's constant, or for COUNT (`None`)
    /// the row count alone.
    fn cover(&mut self, rows: u64, all: Option<&AggState>) {
        self.count = rows;
        if let Some(all) = all {
            debug_assert_eq!(all.count, rows, "the constant folds every row");
            (self.sum, self.min, self.max) = (all.sum, all.min, all.max);
        }
    }

    fn consume(&mut self, chunk: &Chunk, agg: &Aggregate, positions: &[u32]) -> Result<()> {
        let Some(op) = self.op else {
            return Ok(());
        };
        self.count += positions.len() as u64;
        if op == AggregateOp::Count {
            return Ok(());
        }
        let seg = chunk.segment(agg.column)?;
        with_step!(self.op, S => {
            for &p in positions {
                if let Some(x) = seg.value_at(p as usize).as_f64() {
                    S::step(self, x);
                }
            }
        });
        Ok(())
    }

    /// Folds another partial state into this one, field by the
    /// operator's field. Sum accumulation order is the caller's
    /// responsibility — `ScanFold` always merges in chunk-index order,
    /// which is what keeps grouped floats bit-identical across execution
    /// modes.
    fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        match self.op {
            Some(AggregateOp::Sum | AggregateOp::Avg) => self.sum += other.sum,
            Some(AggregateOp::Min) => {
                if let Some(x) = other.min {
                    MinStep::step(self, x);
                }
            }
            Some(AggregateOp::Max) => {
                if let Some(x) = other.max {
                    MaxStep::step(self, x);
                }
            }
            Some(AggregateOp::Count) | None => {}
        }
    }

    fn finish(&self, matched: u64) -> Option<f64> {
        let op = self.op?;
        match op {
            AggregateOp::Count => Some(matched as f64),
            AggregateOp::Sum => Some(self.sum),
            AggregateOp::Avg => {
                if self.count == 0 {
                    None
                } else {
                    Some(self.sum / self.count as f64)
                }
            }
            AggregateOp::Min => self.min,
            AggregateOp::Max => self.max,
        }
    }
}

#[cfg(test)]
mod group_by_tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};
    use crate::table::Table;
    use crate::value::{ColumnValues, DataType};

    fn engine() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![
            ColumnDef::new("flag", DataType::Int),
            ColumnDef::new("price", DataType::Float),
        ])
        .unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..1200).map(|i| i % 3).collect()),
                ColumnValues::Float((0..1200).map(|i| i as f64).collect()),
            ],
            400,
        )
        .unwrap();
        let mut e = StorageEngine::default();
        let t = e.create_table(table).unwrap();
        (e, t)
    }

    #[test]
    fn grouped_sum_partitions_the_global_sum() {
        let (e, t) = engine();
        let agg = Aggregate::new(AggregateOp::Sum, ColumnId(1));
        let global = e.scan(t, &[], Some(&agg)).unwrap();
        let grouped = e
            .scan_grouped(t, &[], Some(&agg), Some(ColumnId(0)))
            .unwrap();
        let groups = grouped.groups.as_ref().unwrap();
        assert_eq!(groups.len(), 3);
        let total: f64 = groups.iter().map(|(_, v)| v).sum();
        assert!((total - global.agg_value.unwrap()).abs() < 1e-6);
        // Sorted by group key.
        assert_eq!(groups[0].0, Value::Int(0));
        assert_eq!(groups[2].0, Value::Int(2));
        // Grouping costs more than the plain aggregate.
        assert!(grouped.sim_cost > global.sim_cost);
    }

    #[test]
    fn grouped_count_and_predicates() {
        let (e, t) = engine();
        let out = e
            .scan_grouped(
                t,
                &[ScanPredicate::cmp(
                    ColumnId(1),
                    crate::scan::PredicateOp::Lt,
                    600.0,
                )],
                Some(&Aggregate::count()),
                Some(ColumnId(0)),
            )
            .unwrap();
        let groups = out.groups.unwrap();
        assert_eq!(groups.len(), 3);
        assert!((groups.iter().map(|(_, v)| v).sum::<f64>() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn group_by_without_aggregate_rejected() {
        let (e, t) = engine();
        assert!(e.scan_grouped(t, &[], None, Some(ColumnId(0))).is_err());
        assert!(e
            .scan_grouped(t, &[], Some(&Aggregate::count()), Some(ColumnId(9)))
            .is_err());
    }

    #[test]
    fn empty_match_produces_empty_groups() {
        let (e, t) = engine();
        let out = e
            .scan_grouped(
                t,
                &[ScanPredicate::eq(ColumnId(0), 99i64)],
                Some(&Aggregate::count()),
                Some(ColumnId(0)),
            )
            .unwrap();
        assert_eq!(out.groups.unwrap().len(), 0);
    }
}

#[cfg(test)]
mod run_props {
    //! The chunk run changes how pruned chunks are found, never what is
    //! charged: every scan mode must equal, bit for bit, a reference that
    //! asks `access_path` about every chunk.

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use smdb_common::ChunkColumnRef;

    use super::*;
    use crate::config::ConfigAction;
    use crate::index::IndexKind;
    use crate::parallel::{morsel_ranges, simulated_latency};
    use crate::placement::Tier;
    use crate::scan::PredicateOp;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::ColumnValues;

    /// Non-decreasing Int; a value repeats across the first chunk boundary.
    const UP: ColumnId = ColumnId(0);
    /// Non-decreasing Float.
    const UP_F: ColumnId = ColumnId(1);
    /// One value everywhere.
    const FLAT: ColumnId = ColumnId(2);
    /// Shuffled Int.
    const MIXED: ColumnId = ColumnId(3);
    /// Non-decreasing Text.
    const UP_T: ColumnId = ColumnId(4);
    /// Low-cardinality group key.
    const KEY: ColumnId = ColumnId(5);
    const ARITY: u16 = 6;

    /// Raw columns of up to eight chunks of `chunk_rows` rows.
    fn columns(rng: &mut StdRng, chunk_rows: usize) -> Vec<ColumnValues> {
        let rows = rng.random_range(1..=chunk_rows * 8);
        let mut v = rng.random_range(-5i64..5);
        let up: Vec<i64> = (0..rows)
            .map(|row| {
                if row > 0 && row != chunk_rows {
                    v += rng.random_range(0i64..3);
                }
                v
            })
            .collect();
        let mut f = -3.0;
        let up_f = (0..rows)
            .map(|_| {
                f += [0.0, 0.25, 1.0][rng.random_range(0usize..3)];
                f
            })
            .collect();
        vec![
            ColumnValues::Int(up.clone()),
            ColumnValues::Float(up_f),
            ColumnValues::Int(vec![7; rows]),
            ColumnValues::Int((0..rows).map(|_| rng.random_range(0i64..20)).collect()),
            ColumnValues::Text(up.iter().map(|v| format!("k{:03}", v + 100)).collect()),
            ColumnValues::Int((0..rows).map(|_| rng.random_range(0i64..3)).collect()),
        ]
    }

    /// Random encodings, single and composite indexes and tiers.
    fn reconfigure(e: &mut StorageEngine, t: TableId, rng: &mut StdRng) {
        let chunks = e.table(t).unwrap().chunk_count() as u32;
        let encodings = [
            EncodingKind::Unencoded,
            EncodingKind::Dictionary,
            EncodingKind::RunLength,
            EncodingKind::FrameOfReference,
        ];
        for chunk in 0..chunks {
            for col in 0..ARITY {
                let target = ChunkColumnRef::new(t.0, col, chunk);
                let kind = encodings[rng.random_range(0usize..4)];
                e.apply_action(&ConfigAction::SetEncoding { target, kind })
                    .unwrap();
                let second = ColumnId((col + 1) % ARITY);
                let index = match rng.random_range(0..4) {
                    0 => IndexKind::Hash,
                    1 => IndexKind::BTree,
                    2 => IndexKind::CompositeHash { second },
                    _ => continue,
                };
                e.apply_action(&ConfigAction::CreateIndex {
                    target,
                    kind: index,
                })
                .unwrap();
            }
            if rng.random_bool(0.3) {
                e.apply_action(&ConfigAction::SetPlacement {
                    table: t,
                    chunk: ChunkId(chunk),
                    tier: [Tier::Warm, Tier::Cold][rng.random_range(0usize..2)],
                })
                .unwrap();
            }
        }
    }

    /// Any operator on any filterable column, with Int and Float literals
    /// on every numeric column.
    fn predicate(rng: &mut StdRng) -> ScanPredicate {
        let column = [UP, UP_F, FLAT, MIXED, UP_T][rng.random_range(0usize..5)];
        let literal = |rng: &mut StdRng| match rng.random_range(0..2) {
            _ if column == UP_T => Value::Text(format!("k{:03}", rng.random_range(85i64..190))),
            0 => Value::Int(rng.random_range(-10i64..90)),
            _ => Value::Float(rng.random_range(-20i64..180) as f64 * 0.5),
        };
        let ops = [
            PredicateOp::Eq,
            PredicateOp::Lt,
            PredicateOp::Le,
            PredicateOp::Gt,
            PredicateOp::Ge,
            PredicateOp::Between,
        ];
        let op = ops[rng.random_range(0usize..6)];
        let value = literal(rng);
        let upper = (op == PredicateOp::Between && rng.random_bool(0.8)).then(|| literal(rng));
        ScanPredicate {
            column,
            op,
            value,
            upper,
        }
    }

    fn aggregate(rng: &mut StdRng) -> (Option<Aggregate>, Option<ColumnId>) {
        let agg = match rng.random_range(0..6) {
            0 => return (None, None),
            1 => Aggregate::count(),
            2 => Aggregate::new(AggregateOp::Sum, UP_F),
            3 => Aggregate::new(AggregateOp::Avg, UP),
            4 => Aggregate::new(AggregateOp::Min, MIXED),
            _ => Aggregate::new(AggregateOp::Max, UP_F),
        };
        (Some(agg), rng.random_bool(0.3).then_some(KEY))
    }

    /// The scan with every chunk asked through `access_path`, in chunk
    /// order — no chunk run.
    fn reference(
        e: &StorageEngine,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<ColumnId>,
    ) -> Vec<ChunkPartial> {
        let mut job = e
            .scan_job(TableId(0), predicates, aggregate, group_by)
            .unwrap();
        job.run = 0..job.table.chunk_count();
        let mut partials = Vec::new();
        e.scan_range(&job, job.run.clone(), &mut partials).unwrap();
        partials
    }

    /// The reference's lane model on a two-thread pool.
    fn reference_lanes(
        e: &StorageEngine,
        partials: &[ChunkPartial],
        morsel_chunks: usize,
    ) -> (Cost, u64) {
        let costs: Vec<f64> = morsel_ranges(partials.len(), morsel_chunks)
            .into_iter()
            .map(|(start, end)| partials[start..end].iter().map(|p| p.cost.ms()).sum())
            .collect();
        let lanes = 2usize.min(costs.len());
        (
            simulated_latency(&costs, lanes, e.params.morsel_dispatch_ms),
            costs.len() as u64,
        )
    }

    type Bits = (
        (u64, Option<u64>, Option<Vec<(Value, u64)>>),
        (u64, u64, u64),
        (u64, u64, u64, u64, u64, u64, u64),
    );

    /// Every field of a [`ScanOutput`], floats as bit patterns.
    fn bits(o: &ScanOutput) -> Bits {
        let groups = o
            .groups
            .as_ref()
            .map(|g| g.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect());
        (
            (o.rows_matched, o.agg_value.map(f64::to_bits), groups),
            (
                o.sim_cost.ms().to_bits(),
                o.sim_latency.ms().to_bits(),
                o.morsels,
            ),
            (
                o.rows_scanned,
                o.chunks_pruned,
                o.chunks_visited,
                o.index_probes,
                o.chunks_kernel,
                o.chunks_scalar,
                o.kernel_batches,
            ),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_run_changes_how_pruned_chunks_are_found_not_what_is_charged(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let chunk_rows = rng.random_range(1usize..5);
            let raw = columns(&mut rng, chunk_rows);
            let names = ["up", "up_f", "flat", "mixed", "up_t", "key"];
            let types = raw.iter().map(ColumnValues::data_type);
            let schema = Schema::new(names.iter().zip(types).map(|(n, t)| ColumnDef::new(*n, t)).collect()).unwrap();
            let table = Table::from_columns("t", schema, raw.clone(), chunk_rows).unwrap();
            let mut e = StorageEngine::default();
            let t = e.create_table(table).unwrap();
            reconfigure(&mut e, t, &mut rng);
            e.set_kernels_enabled(rng.random_bool(0.5));
            let pool = ScanPool::new(2);

            // The run is live: on every non-decreasing column a predicate
            // below every value rules out every chunk without asking.
            let table = e.table(t).unwrap();
            for col in [UP, UP_F, FLAT, UP_T] {
                let below = ScanPredicate::cmp(col, PredicateOp::Lt, -1_000i64);
                prop_assert!(table.chunk_run(&[below]).is_empty(), "{} is monotone", col);
            }
            let above = ScanPredicate::cmp(UP, PredicateOp::Gt, 1_000i64);

            let mut queries: Vec<Vec<ScanPredicate>> = (0..6)
                .map(|_| (0..rng.random_range(0..4)).map(|_| predicate(&mut rng)).collect())
                .collect();
            // All pruned, and an empty result from visited chunks.
            queries.push(vec![above]);
            queries.push(vec![ScanPredicate::between(MIXED, 7.25f64, 7.75f64)]);
            for predicates in &queries {
                let (agg, group_by) = aggregate(&mut rng);
                let agg = agg.as_ref();
                let partials = reference(&e, predicates, agg, group_by);
                let lanes: Vec<(Cost, u64)> = [1, 3].map(|m| reference_lanes(&e, &partials, m)).to_vec();
                let expected = e.merge_scan_partials(partials, agg, group_by);

                let matched = (0..raw[0].len())
                    .filter(|&row| predicates.iter().all(|p| p.matches(&raw[p.column.0 as usize].value_at(row))))
                    .count();
                prop_assert_eq!(expected.rows_matched, matched as u64, "brute force {:?}", predicates);
                let predicted = e.predict_access_paths(t, predicates).unwrap();
                prop_assert_eq!(
                    (predicted.pruned, predicted.index, predicted.kernel, predicted.scalar),
                    (expected.chunks_pruned, expected.index_probes, expected.chunks_kernel, expected.chunks_scalar)
                );

                let inline = e.scan_grouped(t, predicates, agg, group_by).unwrap();
                prop_assert_eq!(bits(&inline), bits(&expected), "inline {:?}", predicates);
                let gathered = e.scan_partials(t, predicates, agg, group_by, None).unwrap();
                let gathered = e.merge_scan_partials(gathered, agg, group_by);
                prop_assert_eq!(bits(&gathered), bits(&expected), "scan_partials {:?}", predicates);
                for (morsel_chunks, &(latency, morsels)) in [1, 3].into_iter().zip(&lanes) {
                    let parallel = Some((&*pool, morsel_chunks));
                    let gathered = e.scan_partials(t, predicates, agg, group_by, parallel).unwrap();
                    let gathered = e.merge_scan_partials(gathered, agg, group_by);
                    prop_assert_eq!(bits(&gathered), bits(&expected), "morsel partials {:?}", predicates);
                    let mut lane_model = expected.clone();
                    if morsels > 1 {
                        (lane_model.sim_latency, lane_model.morsels) = (latency, morsels);
                    }
                    let out = e.scan_grouped_parallel(t, predicates, agg, group_by, &pool, morsel_chunks).unwrap();
                    prop_assert_eq!(bits(&out), bits(&lane_model), "morsels of {} {:?}", morsel_chunks, predicates);
                }
            }
        }
    }
}

#[cfg(test)]
mod covered_props {
    //! Covered chunks: a chunk whose every row provably satisfies every
    //! predicate is answered from the constant its statistics keep, and
    //! every scan mode must equal, bit for bit, the all-rows reference — the
    //! same query with every chunk filtered, probed and folded row by row
    //! (`visit_chunk` with `covered` off): `agg_value`, `rows_matched`,
    //! `sim_cost` and every [`ScanOutput`] counter.
    //!
    //! The data makes many chunks covered: each chunk of each column is
    //! either one value, a sorted run or a shuffle, literals are mostly
    //! values the column holds (so bounds land on chunk mins and maxes), and
    //! the palettes hold NaN of both signs, `-0.0`, ±inf and the `i64`
    //! extremes, which `Float` literals round onto. Every encoding, single,
    //! B-tree and composite indexes, placement tiers, kernels on and off,
    //! single-row chunks, GROUP BY (never covered) and no aggregate are
    //! drawn; each query runs inline, as gathered partials, on a 2-thread
    //! pool and as a 4-shard scatter, and `predict_access_paths` must equal
    //! the executed partition.

    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use smdb_common::ChunkColumnRef;

    use super::*;
    use crate::config::ConfigAction;
    use crate::placement::Tier;
    use crate::scan::PredicateOp;
    use crate::schema::{ColumnDef, Schema};
    use crate::stats::SegmentStats;
    use crate::value::ColumnValues;

    // The columns, in order: `s` non-decreasing Int; `u` Int; `f` Float off
    // a palette of signed zeros, NaNs and infinities; `t` Text; `x` Int at
    // and next to the `i64` extremes; `v` Float whose sums depend on the
    // order they are added in.
    const U: ColumnId = ColumnId(1);
    const F: ColumnId = ColumnId(2);
    const V: ColumnId = ColumnId(5);
    const ARITY: u16 = 6;

    const FLOATS: [f64; 10] = [
        -0.0,
        0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
        -2.5,
        1e16,
        -1e16,
    ];
    const EXTREMES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    const ORDERED: [f64; 9] = [1e16, 1.0, -1e16, 0.1, 3.3, -7.25, 2.5e-3, 1e-300, -0.0];
    const TEXT: [&str; 4] = ["", "a", "b", "zz"];

    /// How one chunk of one column is filled.
    #[derive(Clone, Copy)]
    enum Fill {
        One,
        Run,
        Shuffle,
    }

    /// One chunk's configuration: an encoding and an optional index per
    /// column, and a tier.
    #[derive(Clone)]
    struct ChunkSpec {
        encodings: [EncodingKind; ARITY as usize],
        indexes: [Option<IndexKind>; ARITY as usize],
        tier: Tier,
    }

    /// The raw columns, in chunks of `chunk_rows` rows (the last possibly
    /// short).
    fn columns(rng: &mut StdRng, rows: usize, chunk_rows: usize) -> Vec<ColumnValues> {
        let fills: Vec<[Fill; ARITY as usize]> = (0..rows.div_ceil(chunk_rows))
            .map(|_| {
                std::array::from_fn(|_| {
                    [Fill::One, Fill::Run, Fill::Shuffle][rng.random_range(0usize..3)]
                })
            })
            .collect();
        let mut s = rng.random_range(-5i64..5);
        let sorted = (0..rows)
            .map(|_| {
                s += rng.random_range(0i64..2);
                s
            })
            .collect();
        // Shuffled regardless of the fill: the B-tree order must matter.
        let v = (0..rows)
            .map(|_| ORDERED[rng.random_range(0..ORDERED.len())])
            .collect();
        // Per chunk: pick one palette entry, or a sorted run of entries, or
        // shuffled entries.
        let mut fill = |col: usize, len: usize| -> Vec<usize> {
            let mut out = Vec::with_capacity(rows);
            for (chunk, f) in fills.iter().enumerate() {
                let n = chunk_rows.min(rows - chunk * chunk_rows);
                let first = rng.random_range(0..len);
                let mut picks: Vec<usize> = match f[col] {
                    Fill::One => vec![first; n],
                    Fill::Run | Fill::Shuffle => {
                        (0..n).map(|_| rng.random_range(first..len)).collect()
                    }
                };
                if matches!(f[col], Fill::Run) {
                    picks.sort_unstable();
                }
                out.extend(picks);
            }
            out
        };
        let u = fill(1, 6).into_iter().map(|i| i as i64 * 2).collect();
        let f = fill(2, FLOATS.len())
            .into_iter()
            .map(|i| FLOATS[i])
            .collect();
        let t = fill(3, TEXT.len())
            .into_iter()
            .map(|i| TEXT[i].to_owned())
            .collect();
        let x = fill(4, EXTREMES.len())
            .into_iter()
            .map(|i| EXTREMES[i])
            .collect();
        vec![
            ColumnValues::Int(sorted),
            ColumnValues::Int(u),
            ColumnValues::Float(f),
            ColumnValues::Text(t),
            ColumnValues::Int(x),
            ColumnValues::Float(v),
        ]
    }

    fn specs(rng: &mut StdRng, chunks: usize) -> Vec<ChunkSpec> {
        let encodings = [
            EncodingKind::Unencoded,
            EncodingKind::Dictionary,
            EncodingKind::RunLength,
            EncodingKind::FrameOfReference,
        ];
        (0..chunks)
            .map(|_| ChunkSpec {
                encodings: std::array::from_fn(|_| encodings[rng.random_range(0usize..4)]),
                indexes: std::array::from_fn(|col| match rng.random_range(0..5) {
                    0 => Some(IndexKind::Hash),
                    1 | 2 => Some(IndexKind::BTree),
                    3 => Some(IndexKind::CompositeHash {
                        second: ColumnId((col as u16 + rng.random_range(1..ARITY)) % ARITY),
                    }),
                    _ => None,
                }),
                tier: [Tier::Hot, Tier::Hot, Tier::Warm, Tier::Cold][rng.random_range(0usize..4)],
            })
            .collect()
    }

    /// An engine over rows `rows` of `raw`, its chunks configured by
    /// `specs[first..]` — one shard when `rows` is a run of whole chunks.
    fn engine(
        raw: &[ColumnValues],
        rows: Range<usize>,
        chunk_rows: usize,
        specs: &[ChunkSpec],
        first: usize,
        kernels: bool,
    ) -> StorageEngine {
        let data: Vec<ColumnValues> = raw
            .iter()
            .map(|c| match c {
                ColumnValues::Int(v) => ColumnValues::Int(v[rows.clone()].to_vec()),
                ColumnValues::Float(v) => ColumnValues::Float(v[rows.clone()].to_vec()),
                ColumnValues::Text(v) => ColumnValues::Text(v[rows.clone()].to_vec()),
            })
            .collect();
        let names = ["s", "u", "f", "t", "x", "v"];
        let defs = names
            .iter()
            .zip(&data)
            .map(|(n, c)| ColumnDef::new(*n, c.data_type()));
        let schema = Schema::new(defs.collect()).unwrap();
        let mut e = StorageEngine::default();
        let t = e
            .create_table(Table::from_columns("t", schema, data, chunk_rows).unwrap())
            .unwrap();
        for chunk in 0..e.table(t).unwrap().chunk_count() {
            let spec = &specs[first + chunk];
            for col in 0..ARITY {
                let target = ChunkColumnRef::new(t.0, col, chunk as u32);
                let kind = spec.encodings[col as usize];
                e.apply_action(&ConfigAction::SetEncoding { target, kind })
                    .unwrap();
                if let Some(kind) = spec.indexes[col as usize] {
                    e.apply_action(&ConfigAction::CreateIndex { target, kind })
                        .unwrap();
                }
            }
            let (table, chunk, tier) = (t, ChunkId(chunk as u32), spec.tier);
            if tier != Tier::Hot {
                e.apply_action(&ConfigAction::SetPlacement { table, chunk, tier })
                    .unwrap();
            }
        }
        e.set_kernels_enabled(kernels);
        e
    }

    /// A literal for `column`: mostly a value some row holds — the chunk
    /// mins and maxes coverage turns on — as a `Float` as often as not on
    /// Int columns, otherwise one off the column's palette.
    fn literal(rng: &mut StdRng, raw: &[ColumnValues], column: ColumnId) -> Value {
        let values = &raw[column.0 as usize];
        if rng.random_bool(0.7) {
            let v = values.value_at(rng.random_range(0..values.len()));
            return match v {
                Value::Int(i) if rng.random_bool(0.4) => Value::Float(i as f64),
                v => v,
            };
        }
        match values {
            ColumnValues::Text(_) => Value::Text(TEXT[rng.random_range(0..TEXT.len())].to_owned()),
            _ if rng.random_bool(0.5) => Value::Float(FLOATS[rng.random_range(0..FLOATS.len())]),
            _ => Value::Int(EXTREMES[rng.random_range(0..EXTREMES.len())]),
        }
    }

    fn predicate(rng: &mut StdRng, raw: &[ColumnValues]) -> ScanPredicate {
        let column = ColumnId(rng.random_range(0..ARITY));
        let ops = [
            PredicateOp::Eq,
            PredicateOp::Lt,
            PredicateOp::Le,
            PredicateOp::Gt,
            PredicateOp::Ge,
            PredicateOp::Between,
        ];
        let op = ops[rng.random_range(0usize..6)];
        let value = literal(rng, raw, column);
        let upper = (op == PredicateOp::Between && rng.random_bool(0.85))
            .then(|| literal(rng, raw, column));
        ScanPredicate {
            column,
            op,
            value,
            upper,
        }
    }

    fn aggregate(rng: &mut StdRng) -> (Option<Aggregate>, Option<ColumnId>) {
        let ops = [
            AggregateOp::Count,
            AggregateOp::Sum,
            AggregateOp::Avg,
            AggregateOp::Min,
            AggregateOp::Max,
        ];
        if rng.random_bool(0.08) {
            return (None, None);
        }
        let column = if rng.random_bool(0.5) {
            V
        } else {
            ColumnId(rng.random_range(0..ARITY))
        };
        let agg = Aggregate::new(ops[rng.random_range(0usize..5)], column);
        (Some(agg), rng.random_bool(0.1).then_some(U))
    }

    /// The all-rows reference: every chunk's path asked of `access_path`
    /// and run with `covered` off, folded in chunk order.
    fn reference(
        e: &StorageEngine,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<ColumnId>,
    ) -> ScanOutput {
        let job = e
            .scan_job(TableId(0), predicates, aggregate, group_by)
            .unwrap();
        let mut fold = ScanFold::new(aggregate);
        let mut positions = Vec::new();
        for (_, chunk) in job.table.chunks() {
            match live_path(chunk, predicates).unwrap() {
                AccessPath::Pruned => fold.pruned(Cost(e.params.prune_check_ms)),
                path => fold.add(
                    e.visit_chunk(&job, chunk, path, false, &mut positions)
                        .unwrap(),
                ),
            }
        }
        fold.finish(group_by)
    }

    type Bits = (
        (u64, Option<u64>, Option<Vec<(Value, u64)>>),
        u64,
        (u64, u64, u64, u64, u64, u64, u64),
    );

    /// Every field of a [`ScanOutput`] but the lane model's, floats as bit
    /// patterns.
    fn bits(o: &ScanOutput) -> Bits {
        let groups = o
            .groups
            .as_ref()
            .map(|g| g.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect());
        (
            (o.rows_matched, o.agg_value.map(f64::to_bits), groups),
            o.sim_cost.ms().to_bits(),
            (
                o.rows_scanned,
                o.chunks_pruned,
                o.chunks_visited,
                o.index_probes,
                o.chunks_kernel,
                o.chunks_scalar,
                o.kernel_batches,
            ),
        )
    }

    /// How often each kind of chunk came up: the suite must reach every
    /// covered path, and the B-tree refusal.
    #[derive(Default, Debug)]
    struct Tally {
        covered_scan: usize,
        covered_full: usize,
        covered_hash: usize,
        covered_btree: usize,
        refused_btree: usize,
        covered_nan: usize,
        covered_single_row: usize,
        covered_multi_predicate: usize,
    }

    fn tally(
        e: &StorageEngine,
        predicates: &[ScanPredicate],
        aggregate: Option<&Aggregate>,
        group_by: Option<ColumnId>,
        t: &mut Tally,
    ) {
        let job = e
            .scan_job(TableId(0), predicates, aggregate, group_by)
            .unwrap();
        for (_, chunk) in job.table.chunks() {
            let path = live_path(chunk, predicates).unwrap();
            if path == AccessPath::Pruned {
                continue;
            }
            let admits = group_by.is_none()
                && predicates
                    .iter()
                    .all(|p| chunk.stats(p.column).unwrap().admits_all(p));
            let btree = |driving: usize| {
                chunk.index(predicates[driving].column).map(|i| i.kind()) == Some(IndexKind::BTree)
            };
            if !covered(&job, chunk, path).unwrap() {
                if admits {
                    t.refused_btree += 1;
                    assert!(matches!(path, AccessPath::Probe { driving, .. } if btree(driving)));
                }
                continue;
            }
            match path {
                AccessPath::Scan { .. } => t.covered_scan += 1,
                AccessPath::FullChunk => t.covered_full += 1,
                AccessPath::Probe { driving, .. } if btree(driving) => t.covered_btree += 1,
                _ => t.covered_hash += 1,
            }
            let nan = |col: ColumnId| {
                let s = chunk.stats(col).unwrap();
                [&s.min, &s.max]
                    .iter()
                    .any(|v| matches!(v, Some(Value::Float(x)) if x.is_nan()))
            };
            t.covered_nan += usize::from(predicates.iter().any(|p| nan(p.column)));
            t.covered_single_row += usize::from(chunk.rows() == 1);
            t.covered_multi_predicate += usize::from(predicates.len() > 1);
        }
    }

    #[test]
    fn covered_chunks_answer_like_the_all_rows_scan() {
        let mut t = Tally::default();
        let pool = crate::parallel::ScanPool::new(2);
        for seed in 0..160u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let chunk_rows = [1, 2, 5, 9][rng.random_range(0usize..4)];
            let rows = rng.random_range(1..=chunk_rows * 12);
            let raw = columns(&mut rng, rows, chunk_rows);
            let chunks = rows.div_ceil(chunk_rows);
            let specs = specs(&mut rng, chunks);
            for kernels in [true, false] {
                let e = engine(&raw, 0..rows, chunk_rows, &specs, 0, kernels);
                let shards: Vec<StorageEngine> = (0..4.min(chunks))
                    .map(|s| {
                        let (lo, hi) =
                            (chunks * s / 4.min(chunks), chunks * (s + 1) / 4.min(chunks));
                        let rows = lo * chunk_rows..(hi * chunk_rows).min(rows);
                        engine(&raw, rows, chunk_rows, &specs, lo, kernels)
                    })
                    .collect();
                for _ in 0..12 {
                    let predicates: Vec<ScanPredicate> = (0..rng.random_range(0..4))
                        .map(|_| predicate(&mut rng, &raw))
                        .collect();
                    let (agg, group_by) = aggregate(&mut rng);
                    let agg = agg.as_ref();
                    tally(&e, &predicates, agg, group_by, &mut t);
                    let expected = reference(&e, &predicates, agg, group_by);
                    let context = format!(
                        "seed {seed}, kernels {kernels}: {predicates:?} {agg:?} {group_by:?}"
                    );

                    let matched = (0..rows)
                        .filter(|&row| {
                            predicates
                                .iter()
                                .all(|p| p.matches(&raw[p.column.0 as usize].value_at(row)))
                        })
                        .count();
                    assert_eq!(
                        expected.rows_matched, matched as u64,
                        "brute force, {context}"
                    );
                    let predicted = e.predict_access_paths(TableId(0), &predicates).unwrap();
                    assert_eq!(
                        (
                            predicted.pruned,
                            predicted.index,
                            predicted.kernel,
                            predicted.scalar
                        ),
                        (
                            expected.chunks_pruned,
                            expected.index_probes,
                            expected.chunks_kernel,
                            expected.chunks_scalar
                        ),
                        "predicted paths, {context}"
                    );

                    let inline = e
                        .scan_grouped(TableId(0), &predicates, agg, group_by)
                        .unwrap();
                    assert_eq!(bits(&inline), bits(&expected), "inline, {context}");
                    assert_eq!(
                        inline.sim_latency, inline.sim_cost,
                        "inline latency, {context}"
                    );
                    let parts = e
                        .scan_partials(TableId(0), &predicates, agg, group_by, None)
                        .unwrap();
                    let gathered = e.merge_scan_partials(parts, agg, group_by);
                    assert_eq!(bits(&gathered), bits(&expected), "partials, {context}");
                    for morsel_chunks in [1, 3] {
                        let out = e
                            .scan_grouped_parallel(
                                TableId(0),
                                &predicates,
                                agg,
                                group_by,
                                &pool,
                                morsel_chunks,
                            )
                            .unwrap();
                        assert_eq!(bits(&out), bits(&expected), "2 threads, {context}");
                    }
                    let mut scattered = Vec::new();
                    for shard in &shards {
                        let parallel = Some((&*pool, 2));
                        scattered.extend(
                            shard
                                .scan_partials(TableId(0), &predicates, agg, group_by, parallel)
                                .unwrap(),
                        );
                    }
                    let scattered = shards[0].merge_scan_partials(scattered, agg, group_by);
                    assert_eq!(bits(&scattered), bits(&expected), "4 shards, {context}");
                }
            }
        }
        let reached = [
            t.covered_scan,
            t.covered_full,
            t.covered_hash,
            t.covered_btree,
            t.refused_btree,
            t.covered_nan,
            t.covered_single_row,
            t.covered_multi_predicate,
        ];
        assert!(reached.iter().all(|&n| n >= 20), "{t:?}");
    }

    /// The covered test at each bound, against the row filter: a bound a
    /// chunk's min or max sits on admits it exactly when the filter matches
    /// that value, so `<` and `<=` (and `>`, `>=`) part there; NaN is
    /// admitted where `Value::cmp` orders it inside the interval; an
    /// equality needs a one-value segment.
    #[test]
    fn admits_all_parts_at_the_bounds_like_the_filter() {
        let ints = SegmentStats::compute(&ColumnValues::Int(vec![3, 5, 4]));
        let cmp = |op, v: i64| ScanPredicate::cmp(U, op, v);
        assert!(ints.admits_all(&cmp(PredicateOp::Le, 5)));
        assert!(!ints.admits_all(&cmp(PredicateOp::Lt, 5)));
        assert!(ints.admits_all(&cmp(PredicateOp::Ge, 3)));
        assert!(!ints.admits_all(&cmp(PredicateOp::Gt, 3)));
        assert!(ints.admits_all(&ScanPredicate::between(U, 3i64, 5i64)));
        assert!(!ints.admits_all(&ScanPredicate::between(U, 3i64, 4.5f64)));
        assert!(!ints.admits_all(&ScanPredicate::eq(U, 3i64)));
        let one = SegmentStats::compute(&ColumnValues::Int(vec![7, 7]));
        assert!(one.admits_all(&ScanPredicate::eq(U, 7.0f64)));
        // Two Ints one Float literal equals: never covered by an equality.
        let extremes = SegmentStats::compute(&ColumnValues::Int(vec![i64::MAX - 1, i64::MAX]));
        let rounded = ScanPredicate::eq(U, i64::MAX as f64);
        assert!(
            rounded.matches(&Value::Int(i64::MAX - 1)) && rounded.matches(&Value::Int(i64::MAX))
        );
        assert!(!extremes.admits_all(&rounded));
        assert!(extremes.admits_all(&ScanPredicate::cmp(U, PredicateOp::Ge, i64::MAX as f64)));
        // NaN sorts above +inf: `>=` matches it, `<=` does not.
        let nan = SegmentStats::compute(&ColumnValues::Float(vec![1.0, f64::NAN, -0.0]));
        assert!(nan.admits_all(&ScanPredicate::cmp(F, PredicateOp::Ge, -0.0)));
        assert!(!nan.admits_all(&ScanPredicate::cmp(F, PredicateOp::Ge, 0.0)));
        assert!(!nan.admits_all(&ScanPredicate::cmp(F, PredicateOp::Le, f64::INFINITY)));
        assert!(
            !SegmentStats::compute(&ColumnValues::Int(vec![])).admits_all(&cmp(PredicateOp::Le, 0))
        );
    }

    /// The constant is the fold a scan selecting every row leaves, in
    /// position order, and `sorted` reads `Value::cmp` — `-0.0` below
    /// `0.0`, NaN above +inf.
    #[test]
    fn the_constant_folds_in_position_order() {
        let values = vec![1e16, 1.0, -1e16, 0.1, f64::NAN, -0.0];
        let stats = SegmentStats::compute(&ColumnValues::Float(values.clone()));
        let mut sum = 0.0;
        for x in &values {
            sum += x;
        }
        assert_eq!(stats.all_rows.sum.to_bits(), sum.to_bits());
        assert_eq!(stats.all_rows.count, 6);
        assert!(!stats.sorted);
        let zeros = SegmentStats::compute(&ColumnValues::Float(vec![0.0, -0.0]));
        assert_eq!(zeros.all_rows.sum.to_bits(), 0.0f64.to_bits());
        assert!(!zeros.sorted);
        let up = SegmentStats::compute(&ColumnValues::Float(vec![
            -0.0,
            0.0,
            0.0,
            f64::INFINITY,
            f64::NAN,
        ]));
        assert!(up.sorted);
        let text = SegmentStats::compute(&ColumnValues::Text(vec!["a".into(), "b".into()]));
        assert!(text.sorted && text.all_rows.min.is_none() && text.all_rows.sum == 0.0);
    }

    /// A `Float` literal two `Int` keys equal (`i64::MIN` and `i64::MIN + 1`
    /// both round onto -2^63): every index probe returns the rows the filter
    /// matches, under every bound that literal can take.
    #[test]
    fn probes_match_the_filter_where_ints_round_onto_one_float() {
        let raw = vec![ColumnValues::Int(vec![
            i64::MIN,
            i64::MIN + 1,
            i64::MIN,
            0,
            i64::MAX,
        ])];
        let schema = Schema::new(vec![ColumnDef::new("x", crate::value::DataType::Int)]).unwrap();
        let (low, high) = (i64::MIN as f64, i64::MAX as f64);
        let ops = [
            PredicateOp::Eq,
            PredicateOp::Lt,
            PredicateOp::Le,
            PredicateOp::Gt,
            PredicateOp::Ge,
        ];
        for kind in [None, Some(IndexKind::Hash), Some(IndexKind::BTree)] {
            let mut e = StorageEngine::default();
            let table = Table::from_columns("t", schema.clone(), raw.clone(), 8).unwrap();
            let t = e.create_table(table).unwrap();
            if let Some(kind) = kind {
                let target = ChunkColumnRef::new(t.0, 0, 0);
                e.apply_action(&ConfigAction::CreateIndex { target, kind })
                    .unwrap();
            }
            for literal in [low, high] {
                for op in ops {
                    let p = ScanPredicate {
                        column: ColumnId(0),
                        op,
                        value: Value::Float(literal),
                        upper: None,
                    };
                    let matched = (0..5)
                        .filter(|&row| p.matches(&raw[0].value_at(row)))
                        .count();
                    let out = e.scan(t, std::slice::from_ref(&p), None).unwrap();
                    assert_eq!(out.rows_matched, matched as u64, "{kind:?} {p:?}");
                }
            }
        }
    }
}
