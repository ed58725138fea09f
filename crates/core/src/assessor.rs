//! The what-if assessor (Section II-D(b)).
//!
//! The assessor attaches to every candidate a per-scenario desirability,
//! a confidence, a permanent (memory) cost and a one-time
//! (reconfiguration) cost: it evaluates the forecast workload cost with
//! and without the candidate using an exchangeable cost estimator.
//!
//! A pass prices the base configuration once (`PricedBase`): the
//! scenarios' *distinct* queries, each with its footprint and base cost,
//! and per scenario its `(query, weight)` rows. A candidate's [`Price`]
//! — `(distinct query, base − hypothetical ms)` for each distinct query
//! it can affect, its permanent and its one-time cost — comes from
//! patching the base [`ConfigContext`] in O(1) and looking up each
//! affected distinct query once; the hypothetical [`ConfigInstance`] is
//! built only if a lookup misses. Its desirability is then that price
//! re-weighed by the pass's scenario rows, in row order.
//!
//! One pricing function gives every candidate of a pass its price, and
//! three projections read it: [`WhatIfAssessor::assess`] builds
//! assessments (the selector experiments and tests),
//! [`WhatIfAssessor::reassess`] builds them for a subset against an
//! updated base, and [`WhatIfAssessor::scores`] hands the tuner the
//! expected desirability and budget weight of each candidate greedy
//! could still choose — all the greedy selector reads of an assessment,
//! in its float order — without building one. A price with no positive
//! saving cannot score above zero while every weight and probability is
//! ≥ 0, and greedy drops every score that is not, so when one O(rows)
//! check of the pass's weights holds, `scores` skips such a candidate
//! unprojected (the sign certificate); when it fails, every candidate
//! is projected.
//!
//! Prices do not move while the base configuration, the catalog, the
//! estimator and the cache hold — only the forecast's weights do — so a
//! full pass keeps them under that key (`MemoKey`) in one flat memo:
//! the actions, the fixed fields and the savings each in one array, in
//! the pass's candidate order, indexed by action. The next pass reads a
//! candidate's kept price wherever the enumerator now ranks it (the
//! slot after the previous match first), leaves the memo as it is when
//! it re-offers the same set in any order, and starts over when the key
//! changes. A pass that re-offers the kept list in its order — every
//! converged compression pass — is recognised in one comparing walk
//! and reads its prices by slot; under the sign certificate it visits
//! only the slots the memo lists as gaining, so the kept prices that
//! save nothing (all 2,880 of `scan_agg`'s compression candidates) are
//! not walked at all. While the key holds, the memo holds the last full pass's
//! candidates and no others, so it never outgrows one candidate list. A
//! re-assessment neither reads nor keeps prices. Candidates whose
//! lookups all hit are finished on the calling thread — a converged
//! pass wakes and waits for no other thread — and only those that need
//! the estimator fan out, in contiguous blocks over the storage scan
//! pool (the workspace's designated thread seam) rather than ad-hoc
//! threads.

use std::cell::OnceCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use smdb_common::{ChunkColumnRef, ChunkId, Cost, Error, Result, TableId};
use smdb_cost::features::ConfigContext;
use smdb_cost::footprint::ActionDelta;
use smdb_cost::what_if::{estimate_action_cost, PricedWorkloads};
use smdb_cost::{sizes, CacheStats, WhatIf};
use smdb_forecast::ForecastSet;
use smdb_storage::parallel::ScanPool;
use smdb_storage::{
    ConfigAction, ConfigInstance, EncodingKind, IndexKind, KnobKind, StorageEngine, Tier,
};

use crate::candidate::{budget_weight, expected_desirability, Assessment, Candidate};

/// Blocks the candidate fan-out cuts per lane: enough that a lane stuck
/// on a block of cache misses does not leave the others idle.
const BLOCKS_PER_LANE: usize = 8;

/// What [`WhatIfAssessor::price`] does when a lookup misses.
#[derive(Clone, Copy)]
enum OnMiss {
    /// Run the estimator (and cache its answer).
    Estimate,
    /// Give the candidate up, uncounted, for the fan-out to price whole.
    Defer,
}

/// The what-if assessor: desirability = estimated workload cost without
/// candidate − with candidate, per scenario.
pub struct WhatIfAssessor {
    what_if: WhatIf,
    /// Reported assessment confidence (a property of the underlying cost
    /// model: logical models are less trustworthy than calibrated ones).
    pub confidence: f64,
    /// Number of worker threads for candidate fan-out (1 = sequential).
    pub threads: usize,
    /// Lazily-built scan pool for the fan-out, sized from `threads` at
    /// first parallel use.
    pool: OnceLock<Arc<ScanPool>>,
    /// The last full pass's prices (only with a cached what-if).
    memo: Mutex<Option<PriceMemo>>,
}

impl WhatIfAssessor {
    /// Creates an assessor over a cost estimator.
    pub fn new(what_if: WhatIf, confidence: f64) -> Self {
        WhatIfAssessor {
            what_if,
            confidence,
            threads: 4,
            pool: OnceLock::new(),
            memo: Mutex::new(None),
        }
    }

    /// The what-if façade it prices through.
    pub(crate) fn what_if(&self) -> &WhatIf {
        &self.what_if
    }

    /// Runs `read` over the prices the last full pass kept, if any.
    pub(crate) fn kept_prices<R>(&self, read: impl FnOnce(KeptPrices<'_>) -> R) -> Option<R> {
        let memo = self.memo.lock().unwrap_or_else(|p| p.into_inner());
        memo.as_ref().map(|memo| read(KeptPrices(memo)))
    }

    /// Estimated workload cost of each scenario under `config` (ms,
    /// aligned with the scenario order). The tuner uses this to price
    /// whole configurations (combined benefit), not just per-candidate
    /// deltas.
    pub fn scenario_costs(
        &self,
        engine: &StorageEngine,
        config: &ConfigInstance,
        scenarios: &ForecastSet,
    ) -> Result<Vec<f64>> {
        let costs =
            self.what_if
                .workload_costs(engine, scenarios.iter().map(|s| &s.workload), config)?;
        Ok(costs.into_iter().map(Cost::ms).collect())
    }

    /// Assesses all candidates relative to `base`.
    pub fn assess(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        candidates: &[Candidate],
    ) -> Result<Vec<Assessment>> {
        let priced = self.priced_base(engine, base, base.fingerprint(), scenarios)?;
        let all: Vec<usize> = (0..candidates.len()).collect();
        let keep = Keep::Offered(None);
        let (assessments, _) =
            self.priced(&priced, candidates, &all, keep, false, |index, price| {
                priced.assessment(index, price, self.confidence)
            })?;
        Ok(assessments)
    }

    /// Re-assesses a subset of candidates against an updated base
    /// configuration — the paper's "selectors can also request
    /// re-assessments … to reflect changed circumstances or incorporate
    /// interaction between candidates". Each assessment names its
    /// candidate's index in `candidates`.
    pub fn reassess(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        candidates: &[Candidate],
        subset: &[usize],
    ) -> Result<Vec<Assessment>> {
        let priced = self.priced_base(engine, base, base.fingerprint(), scenarios)?;
        let (assessments, _) = self.priced(
            &priced,
            candidates,
            subset,
            Keep::No,
            false,
            |index, price| priced.assessment(index, price, self.confidence),
        )?;
        Ok(assessments)
    }

    /// What greedy selection reads of [`Self::assess`]'s assessments,
    /// bit for bit, without building them, and the base's scenario costs
    /// ([`Self::scenario_costs`] of `base`, off the pass's one context).
    pub fn scores(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        scenarios: &ForecastSet,
        candidates: &[Candidate],
    ) -> Result<Scores> {
        self.scores_of(
            engine,
            base,
            base.fingerprint(),
            scenarios,
            candidates,
            None,
        )
    }

    /// [`Self::scores`] of a tuner's shared candidate list, with the
    /// base's fingerprint the tuner already holds: a list the memo was
    /// kept for is recognised by identity, without comparing its actions.
    pub(crate) fn scores_kept(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        fingerprint: u64,
        scenarios: &ForecastSet,
        candidates: &Arc<[Candidate]>,
    ) -> Result<Scores> {
        self.scores_of(
            engine,
            base,
            fingerprint,
            scenarios,
            candidates,
            Some(candidates),
        )
    }

    fn scores_of(
        &self,
        engine: &StorageEngine,
        base: &ConfigInstance,
        fingerprint: u64,
        scenarios: &ForecastSet,
        candidates: &[Candidate],
        offered: Option<&Arc<[Candidate]>>,
    ) -> Result<Scores> {
        let priced = self.priced_base(engine, base, fingerprint, scenarios)?;
        let all: Vec<usize> = (0..candidates.len()).collect();
        let project = |index, price: PriceRef<'_>| {
            let desirability = priced.expected_desirability(price.deltas);
            (
                index,
                desirability,
                budget_weight(price.fixed.permanent_bytes),
            )
        };
        let keep = Keep::Offered(offered);
        let (open, all_kept) =
            self.priced(&priced, candidates, &all, keep, priced.certifies, project)?;
        let workloads = scenarios.iter().map(|s| &s.workload);
        let base_costs = self
            .what_if
            .price_workloads(engine, &priced.ctx, workloads, base)?
            .costs()
            .map(Cost::ms)
            .collect();
        Ok(Scores {
            open,
            all_kept,
            base_costs,
        })
    }

    /// Prices one candidate against the base.
    ///
    /// Delta-aware: only distinct queries whose footprint intersects the
    /// candidate's [`ActionDelta`] are re-costed, once each however many
    /// scenario rows name them; every other query's cost is bit-identical
    /// under the hypothetical configuration (the estimator reads nothing
    /// the action changes), so it contributes exactly zero to the
    /// desirability and is skipped. The hypothetical [`ConfigContext`] —
    /// nonhot bytes and cache-key digest — is patched from the base
    /// context in O(1), and the hypothetical [`ConfigInstance`] itself is
    /// built at most once, only when a lookup misses (or the what-if is
    /// uncached): a candidate whose lookups all hit never clones the base
    /// configuration. Under [`OnMiss::Defer`] the first miss returns
    /// `None` and leaves `tally` as it was.
    fn price(
        &self,
        base: &PricedBase<'_>,
        action: &ConfigAction,
        on_miss: OnMiss,
        tally: &mut CacheStats,
    ) -> Result<Option<Price>> {
        let (engine, config) = (base.engine, base.config);
        let delta = ActionDelta::of(config, action);
        let hypo_ctx = base.ctx.apply_action(engine, config, action)?;
        let hypo = OnceCell::new();
        let materialise = || {
            hypo.get_or_init(|| {
                #[cfg(test)]
                HYPOTHETICALS_BUILT.with(|n| n.set(n.get() + 1));
                let mut hypo = config.clone();
                hypo.apply(action);
                hypo
            })
        };

        let mut lookups = CacheStats::default();
        let mut deltas = Vec::new();
        for (index, q) in base.workloads.queries.iter().enumerate() {
            if !delta.affects(&q.footprint, |t| base.nonhot_tables.contains(&t)) {
                continue;
            }
            #[cfg(test)]
            KEYS_DERIVED.with(|n| n.set(n.get() + 1));
            let (ctx, fp) = (&hypo_ctx, &q.footprint);
            let cost = match on_miss {
                OnMiss::Estimate => self.what_if.query_cost_fp(
                    engine,
                    ctx,
                    fp,
                    q.query,
                    materialise,
                    &mut lookups,
                )?,
                OnMiss::Defer => {
                    match self.what_if.cached_cost_fp(ctx, fp, q.query, &mut lookups) {
                        Some(cost) => cost,
                        None => return Ok(None),
                    }
                }
            };
            deltas.push((index, q.cost.ms() - cost.ms()));
        }
        base.count_rows(&deltas, lookups.misses, tally);

        let fixed = Fixed {
            permanent_bytes: estimate_permanent_bytes(engine, config, action)?,
            one_time_cost: estimate_action_cost(engine, config, action)?,
            no_gain: no_gain(&deltas),
        };
        Ok(Some(Price { deltas, fixed }))
    }

    /// Prices the candidates at `indices` into the matching `out` slots,
    /// counting the block's cache lookups locally and recording them
    /// once. A slot stays `None` only where `on_miss` deferred.
    fn price_block(
        &self,
        base: &PricedBase<'_>,
        candidates: &[Candidate],
        indices: &[usize],
        on_miss: OnMiss,
        out: &mut [Option<Result<Price>>],
    ) {
        let mut tally = CacheStats::default();
        for (&index, slot) in indices.iter().zip(out) {
            let action = &candidates[index].action;
            *slot = self.price(base, action, on_miss, &mut tally).transpose();
        }
        self.what_if.record_lookups(tally);
    }

    /// The base configuration priced once for a pass: base context,
    /// per-query base costs and footprints, shared (read-only) by every
    /// candidate worker. `fingerprint` is `base.fingerprint()`, hashed
    /// once per pass by the caller.
    fn priced_base<'a>(
        &self,
        engine: &'a StorageEngine,
        base: &'a ConfigInstance,
        fingerprint: u64,
        scenarios: &'a ForecastSet,
    ) -> Result<PricedBase<'a>> {
        debug_assert_eq!(fingerprint, base.fingerprint());
        let ctx = self.what_if.config_context(engine, base, fingerprint);
        let workloads = self.what_if.price_workloads(
            engine,
            &ctx,
            scenarios.iter().map(|s| &s.workload),
            base,
        )?;
        let probabilities: Arc<[f64]> = scenarios.iter().map(|s| s.probability).collect();
        // `>=` rejects NaN as well as every negative value; -0.0 passes.
        let certifies = probabilities.iter().all(|&p| p >= 0.0)
            && workloads.rows.iter().flatten().all(|&(_, w)| w >= 0.0);
        Ok(PricedBase {
            engine,
            config: base,
            fingerprint,
            ctx,
            workloads,
            probabilities,
            certifies,
            nonhot_tables: base
                .placements
                .iter()
                .filter(|&(_, &tier)| tier != Tier::Hot)
                .map(|(&(t, _), _)| t)
                .collect(),
        })
    }

    /// The one pricing function: prices the candidates at `indices` and
    /// projects each price, in order — with `gain_only`, only those
    /// that save something on some query. With [`Keep::Offered`] it
    /// reads the prices kept under this pass's [`MemoKey`] by action and
    /// then keeps this pass's (the flag tells whether every one was
    /// kept); with [`Keep::No`], it touches neither.
    fn priced<T>(
        &self,
        priced: &PricedBase<'_>,
        candidates: &[Candidate],
        indices: &[usize],
        keep: Keep<'_>,
        gain_only: bool,
        mut project: impl FnMut(usize, PriceRef<'_>) -> T,
    ) -> Result<(Vec<T>, bool)> {
        let _span = smdb_obs::span!("assessor", "assess", { candidates: indices.len() });
        smdb_obs::metrics::counter("assessor.assess_calls").inc();
        smdb_obs::metrics::counter("assessor.candidates_assessed").add(indices.len() as u64);
        // The kept prices hold while the key does; under a new key the
        // memo starts over.
        let (key, offered) = match keep {
            Keep::Offered(offered) => (self.memo_key(priced), offered),
            Keep::No => (None, None),
        };
        let kept = key.as_ref().and_then(|key| {
            let memo = self.memo.lock().unwrap_or_else(|p| p.into_inner()).take();
            memo.filter(|memo| memo.key == *key)
        });

        // The kept list re-offered in its order, as a deterministic
        // enumerator does on a converged pass, is recognised in one
        // comparing walk, and its kept prices are read by slot.
        let in_order = kept
            .as_ref()
            .is_some_and(|memo| memo.offered_in_order(candidates, indices, offered));
        // Otherwise a kept price is found by action, wherever the
        // candidate now ranks. Every row a kept price re-costs would have
        // looked up an entry the pass that priced it left behind: all
        // hits.
        let mut found: Vec<Option<usize>> = Vec::new();
        let mut fresh: Vec<usize> = Vec::new();
        if !in_order {
            found.reserve(indices.len());
            let mut next = 0;
            for &index in indices {
                let action = ActionKey::of(&candidates[index].action);
                let at = kept.as_ref().and_then(|memo| memo.find(next, &action));
                match at {
                    Some(at) => next = at + 1,
                    None => fresh.push(index),
                }
                found.push(at);
            }
        }
        let same_set = in_order
            || kept
                .as_ref()
                .is_some_and(|memo| fresh.is_empty() && memo.is_permuted_by(&found));
        let mut tally = CacheStats::default();
        match &kept {
            Some(memo) if same_set => priced.count_reach(&memo.reach, &mut tally),
            Some(memo) => {
                for &at in found.iter().flatten() {
                    priced.count_rows(memo.price(at).deltas, 0, &mut tally);
                }
            }
            None => {}
        }
        self.what_if.record_lookups(tally);
        let mut failed = None;
        let fresh_prices: Vec<Option<Price>> = self
            .price_fresh(priced, candidates, &fresh)
            .into_iter()
            .map(|slot| {
                // A panicked block leaves the rest of its slots empty;
                // surface those candidates as errors instead of taking
                // down the whole process.
                let slot = slot
                    .unwrap_or_else(|| Err(Error::invalid("candidate assessment worker failed")));
                slot.map_err(|e| failed.get_or_insert(e)).ok()
            })
            .collect();

        // Kept and fresh prices alike are projected in candidate order.
        let mut projected = Vec::new();
        let mut emit = |index: usize, price: PriceRef<'_>| {
            if !(gain_only && price.fixed.no_gain) {
                projected.push(project(index, price));
            }
        };
        match kept.as_ref().filter(|_| in_order) {
            // Slot is position: only the slots kept as gaining are read
            // when no other price is projected.
            Some(memo) if gain_only => {
                for &slot in &memo.gaining {
                    emit(indices[slot], memo.price(slot));
                }
            }
            Some(memo) => {
                for (slot, &index) in indices.iter().enumerate() {
                    emit(index, memo.price(slot));
                }
            }
            None => {
                let mut fresh_slots = fresh_prices.iter();
                for (&index, &at) in indices.iter().zip(&found) {
                    if let Some(price) = kept_or_fresh(kept.as_ref(), at, &mut fresh_slots) {
                        emit(index, price);
                    }
                }
            }
        }
        if let Some(key) = key {
            // A pass that re-offered the kept set, in any order, leaves
            // the memo as it was; any other keeps its own prices, in
            // order.
            let memo = if same_set {
                // Re-offered in the kept order: this list is the memo's.
                kept.map(|mut memo| {
                    if in_order && offered.is_some() {
                        memo.offered = offered.cloned();
                    }
                    memo
                })
            } else {
                let mut memo = PriceMemo::new(key, priced.workloads.queries.len());
                memo.offered = offered.cloned();
                let mut fresh_slots = fresh_prices.iter();
                for (&index, &at) in indices.iter().zip(&found) {
                    if let Some(price) = kept_or_fresh(kept.as_ref(), at, &mut fresh_slots) {
                        memo.push(ActionKey::of(&candidates[index].action), price);
                    }
                }
                Some(memo)
            };
            *self.memo.lock().unwrap_or_else(|p| p.into_inner()) = memo;
        }
        match failed {
            Some(e) => Err(e),
            None => Ok((projected, fresh.is_empty())),
        }
    }

    /// Prices the candidates at `fresh`, one slot each. Warm candidates
    /// — every lookup a hit, a few microseconds each — are finished right
    /// here: a converged pass is nothing else, and handing a helper
    /// thread a share of it cost more in wake-up and waiting than it
    /// saved, by an amount that varied run to run. A sequential assessor
    /// has no thread to hand cold ones to, so it estimates them on this
    /// first visit.
    fn price_fresh(
        &self,
        priced: &PricedBase<'_>,
        candidates: &[Candidate],
        fresh: &[usize],
    ) -> Vec<Option<Result<Price>>> {
        let on_miss = if self.threads <= 1 {
            OnMiss::Estimate
        } else {
            OnMiss::Defer
        };
        let mut slots: Vec<Option<Result<Price>>> = Vec::new();
        slots.resize_with(fresh.len(), || None);
        self.price_block(priced, candidates, fresh, on_miss, &mut slots);

        // Cold candidates need the estimator, which is worth a thread.
        let cold: Vec<usize> = fresh
            .iter()
            .zip(&slots)
            .filter(|(_, slot)| slot.is_none())
            .map(|(&i, _)| i)
            .collect();
        let mut estimated: Vec<Option<Result<Price>>> = Vec::new();
        estimated.resize_with(cold.len(), || None);
        let threads = self.threads.max(1).min(cold.len().max(1));
        if threads == 1 || cold.len() < 8 {
            self.price_block(priced, candidates, &cold, OnMiss::Estimate, &mut estimated);
        } else {
            // Fan out contiguous blocks — a few per lane, so the
            // dispatch cost is O(threads) however many candidates —
            // over the shared scan pool, each written through its own
            // disjoint slice of `estimated` (the lock is per block and
            // never contended). Workers share one Sync cost cache
            // through `self.what_if`; results are independent of the
            // thread count and the block size because cached and
            // freshly computed costs are bit-identical.
            let pool = self.pool.get_or_init(|| ScanPool::new(threads));
            let block = cold.len().div_ceil(threads * BLOCKS_PER_LANE);
            let blocks: Vec<_> = cold
                .chunks(block)
                .zip(estimated.chunks_mut(block))
                .map(Mutex::new)
                .collect();
            pool.run(blocks.len(), |b| {
                let mut guard = blocks[b].lock().unwrap_or_else(|p| p.into_inner());
                let (indices, out) = &mut *guard;
                self.price_block(priced, candidates, indices, OnMiss::Estimate, out);
            });
        }
        let mut estimated = estimated.into_iter();
        for slot in slots.iter_mut().filter(|slot| slot.is_none()) {
            *slot = estimated.next().flatten();
        }
        slots
    }

    /// What this pass's prices are valid under, or `None` without a
    /// cache (no generation to tie them to).
    fn memo_key(&self, priced: &PricedBase<'_>) -> Option<MemoKey> {
        Some(MemoKey {
            generation: self.what_if.cache_generation()?,
            version: self.what_if.estimator().version(),
            catalog_token: priced.engine.catalog_token(),
            base: priced.fingerprint,
            queries: priced
                .workloads
                .queries
                .iter()
                .map(|q| q.query.instance_fingerprint())
                .collect(),
        })
    }
}

/// Whether [`WhatIfAssessor::priced`] reads and keeps prices.
#[derive(Clone, Copy)]
enum Keep<'a> {
    /// Neither: a re-assessment.
    No,
    /// Both, for the full list offered — shared, when the caller keeps
    /// it across passes.
    Offered(Option<&'a Arc<[Candidate]>>),
}

/// The price found `at` a slot of the kept memo, or else the next fresh
/// one (`None` where that candidate failed).
fn kept_or_fresh<'p>(
    kept: Option<&'p PriceMemo>,
    at: Option<usize>,
    fresh: &mut impl Iterator<Item = &'p Option<Price>>,
) -> Option<PriceRef<'p>> {
    match (kept, at) {
        (Some(memo), Some(at)) => Some(memo.price(at)),
        _ => fresh.next().and_then(Option::as_ref).map(Price::view),
    }
}

/// The last full pass's prices, read in place.
pub(crate) struct KeptPrices<'m>(&'m PriceMemo);

impl<'m> KeptPrices<'m> {
    /// The `(distinct query, saving)` pairs kept for `action`.
    pub(crate) fn savings(&self, action: &ConfigAction) -> Option<&'m [(usize, f64)]> {
        let at = *self.0.at.get(&ActionKey::of(action))?;
        Some(self.0.price(at).deltas)
    }

    /// Instance fingerprints of the distinct queries, by index.
    pub(crate) fn queries(&self) -> &'m [u64] {
        &self.0.key.queries
    }

    /// Whether they were priced under this cache generation and base.
    pub(crate) fn priced_under(&self, generation: u64, base: u64) -> bool {
        self.0.key.generation == generation && self.0.key.base == base
    }
}

/// What [`WhatIfAssessor::scores`] hands the tuner.
#[derive(Debug)]
pub struct Scores {
    /// `(candidate, expected desirability, budget weight)` of every
    /// candidate greedy could choose, in candidate order. Under the sign
    /// certificate a candidate whose price saves nothing on any query is
    /// left out: its score cannot be positive.
    pub open: Vec<(usize, f64, f64)>,
    /// Whether every price was kept from an earlier pass.
    pub all_kept: bool,
    /// The base's estimated workload cost per scenario (ms).
    pub base_costs: Vec<f64>,
}

#[cfg(test)]
thread_local! {
    /// Hypothetical `ConfigInstance`s this thread's `price` calls built.
    static HYPOTHETICALS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Cache keys this thread's `price` calls derived.
    static KEYS_DERIVED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The base configuration priced once per pass and shared, read-only,
/// by every candidate worker.
struct PricedBase<'a> {
    engine: &'a StorageEngine,
    config: &'a ConfigInstance,
    /// `config.fingerprint()`.
    fingerprint: u64,
    ctx: ConfigContext,
    /// The scenarios' distinct queries with their base costs, and each
    /// scenario's `(query, weight)` rows.
    workloads: PricedWorkloads<'a>,
    /// Scenario probabilities, shared by every assessment of the pass.
    probabilities: Arc<[f64]>,
    /// Whether every probability and row weight is ≥ 0. Then a price
    /// whose every saving is ≤ 0 (or NaN) sums to a per-scenario
    /// desirability ≤ 0 (or NaN), and so to an expected one, which
    /// greedy drops: the sign certificate.
    certifies: bool,
    /// Tables owning a non-hot chunk under `config`: the blast radius of
    /// global (buffer-pressure) deltas.
    nonhot_tables: BTreeSet<TableId>,
}

impl PricedBase<'_> {
    /// `price` re-weighed by this pass's scenarios.
    fn assessment(&self, index: usize, price: PriceRef<'_>, confidence: f64) -> Assessment {
        Assessment {
            candidate: index,
            per_scenario: self.benefits(price.deltas).collect(),
            probabilities: Arc::clone(&self.probabilities),
            confidence,
            permanent_bytes: price.fixed.permanent_bytes,
            one_time_cost: price.fixed.one_time_cost,
        }
    }

    /// The per-scenario desirabilities of [`Self::assessment`]: per
    /// scenario, the sum of `weight · (base − hypothetical)` over the
    /// rows whose query the price reaches, in row order — the same terms
    /// in the same order as a sum over every row, so bit-identical to
    /// it.
    fn benefits<'p>(&'p self, deltas: &'p [(usize, f64)]) -> impl Iterator<Item = f64> + 'p {
        self.workloads.rows.iter().map(move |rows| {
            let mut benefit = 0.0;
            for &(q, weight) in rows {
                if let Ok(at) = deltas.binary_search_by_key(&q, |&(q, _)| q) {
                    benefit += deltas[at].1 * weight;
                }
            }
            benefit
        })
    }

    /// The expected desirability of [`Self::assessment`], bit for bit,
    /// without building it.
    fn expected_desirability(&self, deltas: &[(usize, f64)]) -> f64 {
        expected_desirability(self.benefits(deltas), &self.probabilities)
    }

    /// Counts a candidate's lookups per scenario *row*, as if each row
    /// naming a query it re-costs had looked itself up: every such row is
    /// a hit except the `misses` its distinct queries' lookups took (a
    /// repeated row follows its query's first lookup, which left the
    /// entry behind).
    fn count_rows(&self, deltas: &[(usize, f64)], misses: u64, tally: &mut CacheStats) {
        let queries = &self.workloads.queries;
        let rows: u64 = deltas.iter().map(|&(q, _)| queries[q].rows).sum();
        tally.hits += rows - misses;
        tally.misses += misses;
    }

    /// [`Self::count_rows`] summed over a set of kept prices, from how
    /// many of them reach each distinct query: all hits.
    fn count_reach(&self, reach: &[u64], tally: &mut CacheStats) {
        let queries = &self.workloads.queries;
        tally.hits += reach
            .iter()
            .zip(queries)
            .map(|(n, q)| n * q.rows)
            .sum::<u64>();
    }
}

/// What a candidate costs against one base configuration: everything an
/// assessment holds but the forecast's weights.
struct Price {
    /// `(distinct query, base − hypothetical ms)` for each distinct
    /// query (an index into `PricedBase::workloads`) the action reaches,
    /// in query order.
    deltas: Vec<(usize, f64)>,
    fixed: Fixed,
}

impl Price {
    fn view(&self) -> PriceRef<'_> {
        PriceRef {
            deltas: &self.deltas,
            fixed: self.fixed,
        }
    }
}

/// A price's fields besides its deltas.
#[derive(Clone, Copy)]
struct Fixed {
    permanent_bytes: i64,
    one_time_cost: Cost,
    /// Whether no delta is positive ([`no_gain`]).
    no_gain: bool,
}

/// A fresh or a kept price, read in place.
#[derive(Clone, Copy)]
struct PriceRef<'p> {
    deltas: &'p [(usize, f64)],
    fixed: Fixed,
}

/// Whether no delta is positive. A NaN delta is not: the NaN score it
/// leads to is one greedy drops too.
fn no_gain(deltas: &[(usize, f64)]) -> bool {
    !deltas.iter().any(|&(_, d)| d > 0.0)
}

/// What a pass's prices were priced under. Equal keys mean equal prices
/// for equal actions — prices are pure functions of the estimator (its
/// version), the catalog, the base configuration and the distinct
/// queries — and the cache generation ties them to the entries they
/// were priced off: while it holds, every lookup that produced a price
/// would hit again, so a kept price counts exactly those hits. The
/// forecast's weights and probabilities are deliberately absent: they
/// move every pass, which is why a whole-pass fingerprint never matches.
#[derive(PartialEq)]
struct MemoKey {
    generation: u64,
    version: u64,
    catalog_token: u64,
    /// The base configuration's fingerprint.
    base: u64,
    /// Instance fingerprints of the distinct queries, in order.
    queries: Vec<u64>,
}

/// The last full pass's prices under one key, flat: each price's
/// action, fixed fields (with where its deltas end) and deltas, each in
/// one array in that pass's candidate order.
struct PriceMemo {
    key: MemoKey,
    actions: Vec<ActionKey>,
    heads: Vec<(Fixed, usize)>,
    deltas: Vec<(usize, f64)>,
    /// How many kept prices reach each distinct query.
    reach: Vec<u64>,
    /// The slots whose price saves something on some query (not
    /// [`Fixed::no_gain`]), in order.
    gaining: Vec<usize>,
    /// Where each action's price sits.
    at: HashMap<ActionKey, usize>,
    /// A shared candidate list whose actions are `actions`, in order.
    offered: Option<Arc<[Candidate]>>,
}

impl PriceMemo {
    /// An empty memo for a pass over `queries` distinct queries.
    fn new(key: MemoKey, queries: usize) -> PriceMemo {
        PriceMemo {
            key,
            actions: Vec::new(),
            heads: Vec::new(),
            deltas: Vec::new(),
            reach: vec![0; queries],
            gaining: Vec::new(),
            at: HashMap::new(),
            offered: None,
        }
    }

    /// Keeps `price` for `action`; an action offered twice keeps its
    /// first price.
    fn push(&mut self, action: ActionKey, price: PriceRef<'_>) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.at.entry(action) {
            slot.insert(self.actions.len());
            if !price.fixed.no_gain {
                self.gaining.push(self.actions.len());
            }
            self.actions.push(action);
            self.deltas.extend_from_slice(price.deltas);
            self.heads.push((price.fixed, self.deltas.len()));
            for &(q, _) in price.deltas {
                self.reach[q] += 1;
            }
        }
    }

    /// The price kept in `slot`.
    fn price(&self, slot: usize) -> PriceRef<'_> {
        let start = slot.checked_sub(1).map_or(0, |prev| self.heads[prev].1);
        let (fixed, end) = self.heads[slot];
        PriceRef {
            deltas: &self.deltas[start..end],
            fixed,
        }
    }

    /// Where the price kept for `action` sits, trying `slot` first: a
    /// converged pass re-offers the list it kept, or (the index
    /// enumerator re-ranking its columns) runs of it, so the slot after
    /// the previous match mostly holds it, and reading in order stays
    /// sequential where looking every action up scatters its reads over
    /// a table the queries between passes have pushed out of cache.
    /// Looking every action up, even with a cheap hash, raised
    /// `events_mix`'s `retune_p50_ms` (3,600 candidates a pass) by 43 %.
    fn find(&self, slot: usize, action: &ActionKey) -> Option<usize> {
        match self.actions.get(slot) {
            Some(kept) if kept == action => Some(slot),
            _ => self.at.get(action).copied(),
        }
    }

    /// Whether the candidates at `indices` are the kept actions, in the
    /// kept order: by identity when the whole list `offered` is the one
    /// the memo was kept for, otherwise by one comparing walk.
    fn offered_in_order(
        &self,
        candidates: &[Candidate],
        indices: &[usize],
        offered: Option<&Arc<[Candidate]>>,
    ) -> bool {
        let walk = || {
            indices.len() == self.actions.len()
                && indices
                    .iter()
                    .zip(&self.actions)
                    .all(|(&index, kept)| ActionKey::of(&candidates[index].action) == *kept)
        };
        let same_list = offered
            .zip(self.offered.as_ref())
            .is_some_and(|(offered, kept)| Arc::ptr_eq(offered, kept));
        // An action offered twice is kept once: then the lengths differ.
        if same_list && indices.len() == candidates.len() && indices.len() == self.actions.len() {
            debug_assert!(walk(), "the kept list is the memo's actions, in order");
            return true;
        }
        walk()
    }

    /// Whether `found` names every kept slot exactly once.
    fn is_permuted_by(&self, found: &[Option<usize>]) -> bool {
        let mut seen = vec![false; self.actions.len()];
        found.len() == seen.len()
            && found
                .iter()
                .all(|at| at.is_some_and(|at| !std::mem::replace(&mut seen[at], true)))
    }
}

/// A candidate's action as a memo key. [`ConfigAction`] is only
/// `PartialEq` because of `SetKnob`'s `f64`; the key holds the knob's
/// value by its bits, the equality [`ConfigInstance::fingerprint`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ActionKey {
    CreateIndex(ChunkColumnRef, IndexKind),
    DropIndex(ChunkColumnRef),
    SetEncoding(ChunkColumnRef, EncodingKind),
    SetPlacement(TableId, ChunkId, Tier),
    SetKnob(KnobKind, u64),
}

impl ActionKey {
    fn of(action: &ConfigAction) -> Self {
        match *action {
            ConfigAction::CreateIndex { target, kind } => ActionKey::CreateIndex(target, kind),
            ConfigAction::DropIndex { target } => ActionKey::DropIndex(target),
            ConfigAction::SetEncoding { target, kind } => ActionKey::SetEncoding(target, kind),
            ConfigAction::SetPlacement { table, chunk, tier } => {
                ActionKey::SetPlacement(table, chunk, tier)
            }
            ConfigAction::SetKnob { knob, value } => ActionKey::SetKnob(knob, value.to_bits()),
        }
    }
}

/// Memory delta of applying an action: estimated footprint after − before.
fn estimate_permanent_bytes(
    engine: &StorageEngine,
    base: &ConfigInstance,
    action: &ConfigAction,
) -> Result<i64> {
    Ok(match action {
        ConfigAction::CreateIndex { target, kind } => {
            let new = sizes::estimate_target_index_bytes(engine, *target, *kind)? as i64;
            let old = match base.index_of(*target) {
                Some(old_kind) => {
                    sizes::estimate_target_index_bytes(engine, *target, old_kind)? as i64
                }
                None => 0,
            };
            new - old
        }
        ConfigAction::DropIndex { target } => match base.index_of(*target) {
            Some(kind) => -(sizes::estimate_target_index_bytes(engine, *target, kind)? as i64),
            None => 0,
        },
        ConfigAction::SetEncoding { target, kind } => {
            let new = sizes::estimate_target_bytes(engine, *target, *kind)? as i64;
            let old =
                sizes::estimate_target_bytes(engine, *target, base.encoding_of(*target))? as i64;
            new - old
        }
        // Placement: the "permanent cost" is hot-tier residency — moving
        // a chunk to the hot tier consumes hot capacity, moving it away
        // frees it (total footprint is unchanged, but the hot tier is the
        // constrained resource).
        ConfigAction::SetPlacement { table, chunk, tier } => {
            let bytes = sizes::estimate_chunk_bytes(engine, base, *table, *chunk)? as i64;
            let was_hot = base.tier_of(*table, *chunk) == smdb_storage::Tier::Hot;
            let is_hot = *tier == smdb_storage::Tier::Hot;
            match (was_hot, is_hot) {
                (false, true) => bytes,
                (true, false) => -bytes,
                _ => 0,
            }
        }
        // The buffer pool reserves its capacity.
        ConfigAction::SetKnob { knob, value } => match knob {
            smdb_storage::KnobKind::BufferPoolMb => {
                ((value - base.knobs.buffer_pool_mb) * 1024.0 * 1024.0) as i64
            }
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ChunkColumnRef, ColumnId, TableId};
    use smdb_cost::LogicalCostModel;
    use smdb_forecast::{ScenarioKind, WorkloadScenario};
    use smdb_query::{Query, Workload};
    use smdb_storage::value::ColumnValues;
    use smdb_storage::{
        ColumnDef, DataType, EncodingKind, IndexKind, ScanPredicate, Schema, Table,
    };
    use std::sync::Arc;

    fn setup() -> (StorageEngine, TableId) {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![ColumnValues::Int((0..800).map(|i| i % 40).collect())],
            200,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let id = engine.create_table(table).unwrap();
        (engine, id)
    }

    fn forecast(t: TableId) -> ForecastSet {
        let q = Query::new(
            t,
            "t",
            vec![ScanPredicate::eq(ColumnId(0), 7i64)],
            None,
            "pt",
        );
        ForecastSet {
            scenarios: vec![
                WorkloadScenario {
                    kind: ScenarioKind::Expected,
                    name: "expected".into(),
                    probability: 0.7,
                    workload: Workload::new(vec![smdb_query::WeightedQuery::new(q.clone(), 10.0)]),
                },
                WorkloadScenario {
                    kind: ScenarioKind::WorstCase,
                    name: "worst".into(),
                    probability: 0.3,
                    workload: Workload::new(vec![smdb_query::WeightedQuery::new(q, 30.0)]),
                },
            ],
        }
    }

    fn assessor() -> WhatIfAssessor {
        WhatIfAssessor::new(WhatIf::new(Arc::new(LogicalCostModel::default())), 0.6)
    }

    #[test]
    fn useful_index_gets_positive_desirability() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let candidates = vec![Candidate::new(
            ConfigAction::CreateIndex {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: IndexKind::Hash,
            },
            None,
        )];
        let a = assessor()
            .assess(&engine, &base, &forecast(t), &candidates)
            .unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].per_scenario.len(), 2);
        assert!(a[0].expected_desirability() > 0.0);
        // Worst-case scenario has 3× the weight → 3× the benefit.
        assert!(a[0].per_scenario[1] > a[0].per_scenario[0] * 2.5);
        assert!(a[0].permanent_bytes > 0);
        assert!(a[0].one_time_cost.ms() > 0.0);
        assert_eq!(a[0].confidence, 0.6);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let mut candidates = Vec::new();
        for chunk in 0..4u32 {
            for kind in IndexKind::ALL {
                candidates.push(Candidate::new(
                    ConfigAction::CreateIndex {
                        target: ChunkColumnRef::new(t.0, 0, chunk),
                        kind,
                    },
                    None,
                ));
            }
        }
        let mut seq = assessor();
        seq.threads = 1;
        let mut par = assessor();
        par.threads = 4;
        let f = forecast(t);
        let a = seq.assess(&engine, &base, &f, &candidates).unwrap();
        let b = par.assess(&engine, &base, &f, &candidates).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.candidate, y.candidate);
            assert_eq!(x.per_scenario, y.per_scenario);
        }
    }

    /// The hypothetical configuration exists only to feed the estimator:
    /// once every lookup hits, a pass over any number of candidates
    /// builds none (and a cold pass builds at most one per candidate) and
    /// hands nothing to another thread.
    #[test]
    fn warm_assess_materialises_no_hypothetical_config() {
        let schema = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let values = ColumnValues::Int((0..3200).map(|i| i % 40).collect());
        let table = Table::from_columns("t", schema, vec![values], 200).unwrap();
        let mut engine = StorageEngine::default();
        let t = engine.create_table(table).unwrap();
        let mut candidates = Vec::new();
        for chunk in 0..16u32 {
            let target = ChunkColumnRef::new(t.0, 0, chunk);
            for kind in [IndexKind::Hash, IndexKind::BTree] {
                let action = ConfigAction::CreateIndex { target, kind };
                candidates.push(Candidate::new(action, None));
            }
            for kind in [EncodingKind::Dictionary, EncodingKind::RunLength] {
                let action = ConfigAction::SetEncoding { target, kind };
                candidates.push(Candidate::new(action, None));
            }
        }
        assert!(candidates.len() >= 64);
        let base = ConfigInstance::default();
        let mut assessor = assessor();
        assessor.threads = 1; // every candidate on this thread's counter
        let built = || HYPOTHETICALS_BUILT.with(|n| n.get());

        let before = built();
        let cold = assessor
            .assess(&engine, &base, &forecast(t), &candidates)
            .unwrap();
        let cold_built = built() - before;
        assert!(cold_built > 0 && cold_built <= candidates.len());
        let cold_stats = assessor.what_if.cache_stats().unwrap();

        // A fresh assessor on the warm cache (no kept prices) re-prices.
        let mut fresh = WhatIfAssessor::new(assessor.what_if.clone(), 0.6);
        fresh.threads = 1;
        let before = built();
        let warm = fresh
            .assess(&engine, &base, &forecast(t), &candidates)
            .unwrap();
        assert_eq!(built() - before, 0, "a warm pass reads keys, not configs");
        assert_eq!(cold, warm);

        // Each lookup is counted once: the (sequential) cold pass missed
        // exactly what it inserted, and the warm pass repeated its
        // lookups as hits.
        let warm_stats = assessor.what_if.cache_stats().unwrap().since(&cold_stats);
        let entries = assessor.what_if.cache().unwrap().len();
        assert_eq!(cold_stats.misses as usize, entries);
        assert_eq!(warm_stats.misses, 0);
        assert_eq!(warm_stats.hits, cold_stats.hits + cold_stats.misses);

        // Both now keep prices: a pass on them counts the same hits and,
        // with helper lanes allowed, wakes none.
        for a in [&mut assessor, &mut fresh] {
            a.threads = 4;
            let before = a.what_if.cache_stats().unwrap();
            let again = a.assess(&engine, &base, &forecast(t), &candidates).unwrap();
            assert!(a.pool.get().is_none(), "all hits: nothing fans out");
            assert_eq!(again, warm);
            assert_eq!(a.what_if.cache_stats().unwrap().since(&before), warm_stats);
        }
    }

    /// Five scenarios over the same three queries: a candidate looks up
    /// each distinct query it affects once, not once per row; a pass
    /// whose prices were kept looks up nothing, and a re-assessment in
    /// between leaves them kept.
    #[test]
    fn one_key_per_distinct_query() {
        let (engine, t) = setup();
        let q = |v: i64| Query::new(t, "t", vec![ScanPredicate::eq(ColumnId(0), v)], None, "pt");
        let scenario = |s: u32| {
            let w = f64::from(s);
            WorkloadScenario {
                kind: ScenarioKind::Expected,
                name: format!("s{s}"),
                probability: 0.2,
                workload: Workload::new(vec![
                    smdb_query::WeightedQuery::new(q(7), 32.5 - w),
                    smdb_query::WeightedQuery::new(q(11), 136.5 + w),
                    smdb_query::WeightedQuery::new(q(13), 31.0 - w),
                ]),
            }
        };
        let forecast = |pass: u32| ForecastSet {
            scenarios: (0..5).map(|s| scenario(s + pass)).collect(),
        };
        let mut candidates = Vec::new();
        for chunk in 0..4u32 {
            let target = ChunkColumnRef::new(t.0, 0, chunk);
            for kind in [IndexKind::Hash, IndexKind::BTree] {
                candidates.push(Candidate::new(
                    ConfigAction::CreateIndex { target, kind },
                    None,
                ));
            }
        }
        let n = candidates.len();
        let base = ConfigInstance::default();
        let keys = |assessor: &WhatIfAssessor, pass: u32| {
            let before = KEYS_DERIVED.with(|k| k.get());
            let got = assessor
                .assess(&engine, &base, &forecast(pass), &candidates)
                .unwrap();
            (KEYS_DERIVED.with(|k| k.get()) - before, got)
        };
        let mut kept = assessor();
        kept.threads = 1;
        let (cold, _) = keys(&kept, 0);
        assert_eq!(cold, 3 * n, "cold: one key per distinct query");
        let (memo_hit, by_memo) = keys(&kept, 1);
        assert_eq!(memo_hit, 0, "kept prices: no lookups");

        // A fresh assessor on the warm cache looks everything up again,
        // once per distinct query, and agrees bit for bit.
        let mut warm = WhatIfAssessor::new(kept.what_if.clone(), 0.6);
        warm.threads = 4;
        let (cache_warm, by_cache) = keys(&warm, 1);
        assert_eq!(cache_warm, 3 * n, "warm cache: one key per distinct query");
        assert_eq!(by_memo, by_cache);
        assert!(warm.pool.get().is_none(), "all hits: nothing fans out");

        // A re-assessment against another base neither reads nor evicts
        // the full pass's prices.
        let mut other = base.clone();
        other.apply(&candidates[0].action);
        kept.reassess(&engine, &other, &forecast(2), &candidates, &[1, 3])
            .unwrap();
        assert_eq!(keys(&kept, 2).0, 0, "still kept after a re-assessment");
    }

    /// A candidate's expected desirability from its price equals its
    /// assessment's bit for bit, on scenarios that name the same queries
    /// in the same order and on ones that do not.
    #[test]
    fn scalar_desirability_matches_the_assessment_bitwise() {
        let (engine, t) = setup();
        let q = |v: i64| Query::new(t, "t", vec![ScanPredicate::eq(ColumnId(0), v)], None, "pt");
        let scenario = |s: u32, rows: Vec<(i64, f64)>| WorkloadScenario {
            kind: ScenarioKind::Expected,
            name: format!("s{s}"),
            probability: 0.1 + 0.07 * f64::from(s),
            workload: Workload::new(
                rows.into_iter()
                    .map(|(v, w)| smdb_query::WeightedQuery::new(q(v), w))
                    .collect(),
            ),
        };
        let lined_up = ForecastSet {
            scenarios: (0..5)
                .map(|s| {
                    let f = f64::from(s);
                    scenario(
                        s,
                        vec![(7, 30.1 + f), (11, 0.3 * f + 1e-3), (13, 17.0 / (f + 3.0))],
                    )
                })
                .collect(),
        };
        let ragged = ForecastSet {
            scenarios: vec![
                scenario(0, vec![(7, 3.0), (11, 5.5)]),
                scenario(1, vec![(11, 1.25), (7, 9.0), (7, 2.0)]),
                scenario(2, vec![(13, 0.7)]),
            ],
        };
        let mut candidates = Vec::new();
        for chunk in 0..4u32 {
            let target = ChunkColumnRef::new(t.0, 0, chunk);
            for kind in [IndexKind::Hash, IndexKind::BTree] {
                let action = ConfigAction::CreateIndex { target, kind };
                candidates.push(Candidate::new(action, None));
            }
            let action = ConfigAction::SetEncoding {
                target,
                kind: EncodingKind::Dictionary,
            };
            candidates.push(Candidate::new(action, None));
        }
        let base = ConfigInstance::default();
        for forecast in [lined_up, ragged] {
            let assessor = assessor();
            let priced = assessor
                .priced_base(&engine, &base, base.fingerprint(), &forecast)
                .unwrap();
            assert!(priced.certifies);
            let mut certified = Vec::new();
            for (i, c) in candidates.iter().enumerate() {
                let mut tally = CacheStats::default();
                let price = assessor.price(&priced, &c.action, OnMiss::Estimate, &mut tally);
                let price = price.unwrap().unwrap();
                let want = priced.assessment(i, price.view(), 0.6);
                let got = priced.expected_desirability(&price.deltas);
                let want = want.expected_desirability();
                assert_eq!(got.to_bits(), want.to_bits(), "candidate {i}");
                certified.push(price.fixed.no_gain);
            }
            // The logical model is encoding-blind: re-encoding saves
            // nothing, and an index on the filtered column saves.
            for (c, &certified) in candidates.iter().zip(&certified) {
                let index = matches!(c.action, ConfigAction::CreateIndex { .. });
                assert_eq!(certified, !index, "{c:?}");
            }
            // The tuner's scores, fresh and then kept, are the
            // assessments' scalars, less those the sign certificate
            // drops; the base costs are `scenario_costs`'.
            let assessed = assessor.assess(&engine, &base, &forecast, &candidates);
            let want: Vec<(usize, u64, u64)> = assessed
                .unwrap()
                .iter()
                .map(|a| {
                    (
                        a.candidate,
                        a.expected_desirability().to_bits(),
                        a.budget_weight().to_bits(),
                    )
                })
                .filter(|&(i, d, _)| {
                    assert!(!certified[i] || !(f64::from_bits(d) > 0.0));
                    !certified[i]
                })
                .collect();
            let base_costs = assessor.scenario_costs(&engine, &base, &forecast).unwrap();
            for kept in [false, true] {
                let fresh = WhatIfAssessor::new(assessor.what_if.clone(), 0.6);
                let scorer = if kept { &assessor } else { &fresh };
                let scores = scorer
                    .scores(&engine, &base, &forecast, &candidates)
                    .unwrap();
                let got: Vec<(usize, u64, u64)> = scores
                    .open
                    .iter()
                    .map(|&(i, d, w)| (i, d.to_bits(), w.to_bits()))
                    .collect();
                assert_eq!((got, scores.all_kept), (want.clone(), kept));
                assert_eq!(scores.base_costs, base_costs);
            }
        }
    }

    /// A pass that re-offers the kept candidates in another order reads
    /// every price from the memo and leaves the memo as it was; a pass
    /// that drops one keeps its own list; one that re-offers them in the
    /// kept order scores them as the lookup walk does.
    #[test]
    fn a_permuted_pass_keeps_the_memo() {
        let (engine, t) = setup();
        let mut candidates = Vec::new();
        for chunk in 0..4u32 {
            let target = ChunkColumnRef::new(t.0, 0, chunk);
            for kind in [IndexKind::Hash, IndexKind::BTree] {
                let action = ConfigAction::CreateIndex { target, kind };
                candidates.push(Candidate::new(action, None));
            }
            let kind = EncodingKind::Dictionary;
            let action = ConfigAction::SetEncoding { target, kind };
            candidates.push(Candidate::new(action, None));
        }
        let base = ConfigInstance::default();
        let assessor = assessor();
        let kept_order = |assessor: &WhatIfAssessor| {
            let memo = assessor.memo.lock().unwrap();
            memo.as_ref().map(|memo| memo.actions.clone()).unwrap()
        };
        let first = assessor
            .scores(&engine, &base, &forecast(t), &candidates)
            .unwrap();
        assert!(!first.all_kept);
        let order = kept_order(&assessor);
        let mut permuted: Vec<Candidate> = candidates.chunks(3).rev().flatten().cloned().collect();
        permuted.swap(0, 5);
        let again = assessor
            .scores(&engine, &base, &forecast(t), &permuted)
            .unwrap();
        assert!(again.all_kept);
        assert!(kept_order(&assessor) == order, "the memo was rebuilt");
        let score_of = |scores: &Scores, action: &ConfigAction, list: &[Candidate]| {
            let at = scores.open.iter().find(|s| list[s.0].action == *action);
            at.map(|&(_, d, w)| (d.to_bits(), w.to_bits()))
        };
        for c in &candidates {
            let want = score_of(&first, &c.action, &candidates);
            assert_eq!(score_of(&again, &c.action, &permuted), want);
        }
        let shorter = &permuted[1..];
        let last = assessor
            .scores(&engine, &base, &forecast(t), shorter)
            .unwrap();
        assert!(last.all_kept);
        let keys: Vec<ActionKey> = shorter.iter().map(|c| ActionKey::of(&c.action)).collect();
        assert!(kept_order(&assessor) == keys);

        // Re-offered in the kept order, the prices are read by slot and
        // only the gaining ones projected: the same scores as the walk.
        let bits = |scores: &Scores| -> Vec<(usize, u64, u64)> {
            let open = scores.open.iter();
            open.map(|&(i, d, w)| (i, d.to_bits(), w.to_bits()))
                .collect()
        };
        let in_order = assessor
            .scores(&engine, &base, &forecast(t), shorter)
            .unwrap();
        assert!(in_order.all_kept);
        assert!(!in_order.open.is_empty() && in_order.open.len() < shorter.len());
        assert_eq!(bits(&in_order), bits(&last));
        assert!(kept_order(&assessor) == keys);
    }

    #[test]
    fn encoding_saves_memory_as_negative_permanent_bytes() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let candidates = vec![Candidate::new(
            ConfigAction::SetEncoding {
                target: ChunkColumnRef::new(t.0, 0, 0),
                kind: EncodingKind::Dictionary,
            },
            None,
        )];
        let a = assessor()
            .assess(&engine, &base, &forecast(t), &candidates)
            .unwrap();
        assert!(a[0].permanent_bytes < 0, "dict should shrink: {a:?}");
    }

    #[test]
    fn reassess_keeps_original_indices() {
        let (engine, t) = setup();
        let base = ConfigInstance::default();
        let candidates: Vec<Candidate> = (0..4u32)
            .map(|chunk| {
                Candidate::new(
                    ConfigAction::CreateIndex {
                        target: ChunkColumnRef::new(t.0, 0, chunk),
                        kind: IndexKind::Hash,
                    },
                    None,
                )
            })
            .collect();
        let a = assessor()
            .reassess(&engine, &base, &forecast(t), &candidates, &[2, 3])
            .unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].candidate, 2);
        assert_eq!(a[1].candidate, 3);
    }

    /// Delta-aware assessment must equal the brute-force definition
    /// (re-cost *every* query under every hypothetical configuration)
    /// bit-for-bit, including across non-hot placements where actions
    /// propagate globally through buffer pressure.
    #[test]
    fn delta_assess_matches_full_recompute() {
        let schema = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Int),
        ])
        .unwrap();
        let table = Table::from_columns(
            "t",
            schema,
            vec![
                ColumnValues::Int((0..800).map(|i| i % 40).collect()),
                ColumnValues::Int((0..800).map(|i| i % 9).collect()),
            ],
            200,
        )
        .unwrap();
        let mut engine = StorageEngine::default();
        let t = engine.create_table(table).unwrap();
        let schema2 = Schema::new(vec![ColumnDef::new("k", DataType::Int)]).unwrap();
        let table2 = Table::from_columns(
            "u",
            schema2,
            vec![ColumnValues::Int((0..400).map(|i| i % 13).collect())],
            200,
        )
        .unwrap();
        let u = engine.create_table(table2).unwrap();

        // A base with non-hot chunks so buffer pressure is in play.
        let mut base = ConfigInstance::default();
        base.placements
            .insert((t, smdb_common::ChunkId(3)), Tier::Cold);
        base.placements
            .insert((u, smdb_common::ChunkId(1)), Tier::Warm);

        let q = |tid, col: u16, v: i64, name: &str| {
            Query::new(
                tid,
                "t",
                vec![ScanPredicate::eq(ColumnId(col), v)],
                None,
                name,
            )
        };
        let workload = smdb_query::Workload::new(vec![
            smdb_query::WeightedQuery::new(q(t, 0, 7, "q0"), 4.0),
            smdb_query::WeightedQuery::new(q(t, 1, 3, "q1"), 2.0),
            smdb_query::WeightedQuery::new(q(u, 0, 5, "q2"), 7.0),
        ]);
        let scenarios = ForecastSet {
            scenarios: vec![WorkloadScenario {
                kind: ScenarioKind::Expected,
                name: "expected".into(),
                probability: 1.0,
                workload,
            }],
        };

        let candidates = vec![
            Candidate::new(
                ConfigAction::CreateIndex {
                    target: ChunkColumnRef::new(t.0, 0, 0),
                    kind: IndexKind::Hash,
                },
                None,
            ),
            Candidate::new(
                ConfigAction::SetEncoding {
                    // Non-hot chunk: shifts global buffer pressure.
                    target: ChunkColumnRef::new(t.0, 1, 3),
                    kind: EncodingKind::Dictionary,
                },
                None,
            ),
            Candidate::new(
                ConfigAction::SetPlacement {
                    table: u,
                    chunk: smdb_common::ChunkId(0),
                    tier: Tier::Cold,
                },
                None,
            ),
            Candidate::new(
                ConfigAction::SetKnob {
                    knob: smdb_storage::KnobKind::BufferPoolMb,
                    value: 48.0,
                },
                None,
            ),
        ];

        let mut delta = assessor();
        delta.threads = 1;
        let got = delta
            .assess(&engine, &base, &scenarios, &candidates)
            .unwrap();

        // Brute force with an uncached estimator: re-cost *every* query
        // under each hypothetical, accumulating w·(base − hypo) in
        // workload order (the same expression the delta path evaluates
        // over the affected subset — unaffected terms are exactly +0.0).
        let plain = WhatIf::uncached(Arc::new(LogicalCostModel::default()));
        let base_ctx = ConfigContext::new(&engine, &base);
        for (i, c) in candidates.iter().enumerate() {
            let mut hypo = base.clone();
            hypo.apply(&c.action);
            let hypo_ctx = ConfigContext::new(&engine, &hypo);
            for (s_idx, s) in scenarios.iter().enumerate() {
                let mut want = 0.0;
                for wq in s.workload.queries() {
                    let b = plain
                        .query_cost(&engine, &base_ctx, &wq.query, &base)
                        .unwrap();
                    let h = plain
                        .query_cost(&engine, &hypo_ctx, &wq.query, &hypo)
                        .unwrap();
                    want += (b.ms() - h.ms()) * wq.weight;
                }
                assert_eq!(
                    got[i].per_scenario[s_idx], want,
                    "candidate {i} scenario {s_idx}"
                );
            }
        }
    }

    #[test]
    fn drop_index_frees_memory() {
        let (engine, t) = setup();
        let target = ChunkColumnRef::new(t.0, 0, 0);
        let mut base = ConfigInstance::default();
        base.indexes.insert(target, IndexKind::BTree);
        let bytes =
            estimate_permanent_bytes(&engine, &base, &ConfigAction::DropIndex { target }).unwrap();
        assert!(bytes < 0);
    }
}
