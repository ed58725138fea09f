//! The traced run: per-layer metrics measured from outside.
//!
//! Nothing here reaches into a crate. A layer is timed by a span around
//! the harness's own call into its public function; where the serving
//! path does not call a layer directly (the engine scan under
//! `Database::run_query`, `predict_access_paths`, the plan-cache record,
//! the partial merge, the forecast, the what-if costing, the state
//! encoder) a *probe* calls that function again, side-effect free, next
//! to the real call. Probe spans are named `probe.*` so their time can
//! be told apart from serving time.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smdb_common::{Error, Result};
use smdb_core::durability::encode_serving_state;
use smdb_core::{Driver, DurabilityStats};
use smdb_cost::WhatIf;
use smdb_durable::{DirPersistence, Persistence};
use smdb_obs::trace::{self, CountingSubscriber};
use smdb_query::{Database, PlanCache, Query, ResultOracle, SessionStats};
use smdb_runtime::{
    recover_runtime, BucketPlan, MtSoakConfig, Phase as StreamPhase, Runtime, RuntimeConfig,
    ShardedRuntime,
};
use smdb_shard::TenantQuery;
use smdb_storage::ScanOutput;

use crate::fixture::{build_driver, durability_config, Engine, Fixture, Store};
use crate::harness::{
    device_share, scatter_p50_us, Harness, Limit, Options, Outcome, Phases, Plan, Scratch,
};
use crate::report::Report;
use crate::spans::{self, LayerTime, SpanRec, Tracer};
use crate::stats::{median, median_counted, over_windows, Measured, Pick};
use crate::workloads::{class_of, tenants_config, WorkloadKind};

/// Buckets of the fixed durable epilogue: `write_amp` and the byte
/// counts are taken over exactly this many boundaries (8 snapshots).
const EPILOGUE_BUCKETS: usize = 64;
/// Where in the 8-bucket snapshot cadence the epilogue starts.
const EPILOGUE_OFFSET: usize = 4;
/// `recover_runtime` calls behind `recover_ms`.
pub const RECOVERIES: usize = 11;
/// Queries the recovered database must answer oracle-correctly.
const RECOVERY_PROBE_QUERIES: usize = 200;
/// Every this-many-th query also probes `scan_partials` + merge.
const MERGE_PROBE_EVERY: u64 = 8;
/// Rounds (each `OBS_ROUND_BUCKETS` buckets) of the subscriber A/B.
const OBS_ROUNDS: usize = 6;
const OBS_ROUND_BUCKETS: usize = 2;
/// Buckets the threaded `Runtime::run` comparison serves.
const RUNTIME_BUCKETS: usize = 16;

/// Extra measurements a traced run makes beside the serving path.
pub struct Probe {
    /// Stand-alone plan cache fed the same stream, so the record call
    /// can be timed without doubling the database's own statistics.
    plan_cache: PlanCache,
    /// A what-if facade of its own (same estimator, own cache), so
    /// costing the forecast leaves the driver's cache counters alone.
    what_if: WhatIf,
    /// Tuned-phase latencies by query class, µs.
    class_us: [Vec<f64>; 3],
    pub in_tuned: bool,
    seq: u64,
}

impl Probe {
    pub fn new(fixture: &Fixture) -> Probe {
        let estimator = Arc::clone(fixture.drivers()[0].multi().what_if().estimator());
        Probe {
            plan_cache: PlanCache::default(),
            what_if: WhatIf::new(estimator),
            class_us: [Vec::new(), Vec::new(), Vec::new()],
            in_tuned: false,
            seq: 0,
        }
    }

    /// The engine that serves `query` alone (none for a scatter, which
    /// no single engine serves).
    fn engine_of<'a>(fixture: &'a Fixture, query: &Query) -> Option<&'a Arc<Database>> {
        match &fixture.engine {
            Engine::Single(s) => Some(&s.db),
            Engine::Sharded(s) => s.db.route(query).map(|shard| &s.db.shards()[shard]),
        }
    }

    /// Whether this query's engine-scan probe runs *before* the real
    /// call. Whichever of the two scans runs second finds the chunks it
    /// needs in the CPU caches; alternating the order lets that cancel
    /// in `run_query − scan`, which otherwise reads ~50 µs too high.
    fn scans_first(&self) -> bool {
        self.seq % 2 == 1
    }

    /// The scan under `Database::run_query`, called directly.
    fn scan(fixture: &Fixture, query: &Query) {
        let Some(db) = Self::engine_of(fixture, query) else {
            return;
        };
        let pool = db.scan_pool().filter(|p| p.threads() > 1);
        let engine = db.engine();
        let _span = fixture.tracer.span("probe.storage.scan");
        let (table, predicates) = (query.table(), query.predicates());
        let (aggregate, group_by) = (query.aggregate(), query.group_by());
        let _ = black_box(match pool.as_deref() {
            Some(pool) => engine.scan_grouped_parallel(
                table,
                predicates,
                aggregate,
                group_by,
                pool,
                db.morsel_chunks(),
            ),
            None => engine.scan_grouped(table, predicates, aggregate, group_by),
        });
    }

    /// Probes made before the real call.
    pub fn before_query(&mut self, fixture: &Fixture, query: &Query) {
        if self.scans_first() {
            Self::scan(fixture, query);
        }
    }

    /// Probes made after the real call answered with `output`.
    pub fn after_query(
        &mut self,
        fixture: &Fixture,
        query: &Query,
        output: &ScanOutput,
        latency: Duration,
    ) {
        if self.in_tuned {
            self.class_us[class_of(query) as usize].push(latency.as_secs_f64() * 1e6);
        }
        if !self.scans_first() {
            Self::scan(fixture, query);
        }
        let t = &fixture.tracer;
        if let Some(db) = Self::engine_of(fixture, query) {
            let engine = db.engine();
            let (table, predicates) = (query.table(), query.predicates());
            let (aggregate, group_by) = (query.aggregate(), query.group_by());
            {
                let _span = t.span("probe.storage.predict_paths");
                let _ = black_box(engine.predict_access_paths(table, predicates));
            }
            if self.seq.is_multiple_of(MERGE_PROBE_EVERY) {
                let pool = db.scan_pool().filter(|p| p.threads() > 1);
                let parallel = pool.as_deref().map(|p| (p, db.morsel_chunks()));
                let partials = {
                    let _span = t.span("probe.storage.scan_partials");
                    engine.scan_partials(table, predicates, aggregate, group_by, parallel)
                };
                if let Ok(partials) = partials {
                    let _span = t.span("probe.storage.merge_partials");
                    black_box(engine.merge_scan_partials(partials, aggregate, group_by));
                }
            }
            let _span = t.span("probe.query.plan_cache_record");
            self.plan_cache.record(query, output.sim_cost, db.now());
        }
        self.seq += 1;
    }

    /// Per-boundary probes: the forecast, its what-if cost under the
    /// current configuration, and the boundary-state encoder.
    pub fn boundary(&mut self, fixture: &Fixture, bucket: u64, stats: &SessionStats) -> Result<()> {
        let t = &fixture.tracer;
        for driver in fixture.drivers() {
            let forecast = {
                let _span = t.span("probe.forecast.predict");
                driver.forecast()
            };
            if let Some(expected) = forecast.expected() {
                let engine = driver.database().engine();
                let config = engine.current_config();
                let _span = t.span("probe.cost.workload_cost");
                black_box(
                    self.what_if
                        .workload_cost(&engine, &expected.workload, &config)?,
                );
            }
            if driver.durability().is_some() {
                let _span = t.span("probe.durable.encode_state");
                black_box(encode_serving_state(
                    &driver.export_serving_state(bucket, stats),
                ));
            }
        }
        Ok(())
    }
}

/// `(total, index)` bytes over every engine of the fixture.
pub fn memory_bytes(fixture: &Fixture) -> (usize, usize) {
    fixture
        .drivers()
        .iter()
        .map(|d| d.database().engine().memory_report())
        .fold((0, 0), |(total, index), m| {
            (total + m.total_bytes(), index + m.index_bytes)
        })
}

/// What the durable epilogue measured.
pub struct DurableReport {
    /// Median of [`RECOVERIES`] `recover_runtime` calls, ms.
    pub recover_ms: f64,
    pub replayed_records: u64,
    /// The epilogue's store (alive until the fixture is dropped).
    pub store_dir: PathBuf,
    /// Write-side counters over exactly [`EPILOGUE_BUCKETS`] buckets.
    pub stats: DurabilityStats,
}

/// The fixed epilogue of `shift_durable`. The timed phases leave a WAL
/// whose length depends on how many buckets the box managed to serve,
/// so byte counts and recovery time are taken on a *fresh* store
/// instead: a new driver over the same (tuned) database logs exactly
/// [`EPILOGUE_BUCKETS`] boundaries — one WAL record per bucket, one
/// snapshot every eighth — and recovery is then run, and checked,
/// against that store re-opened through a fresh `DirPersistence`, i.e.
/// from flushed bytes only.
pub fn durable_epilogue(h: &mut Harness, scratch: &Path) -> Result<DurableReport> {
    let tracer = Arc::clone(&h.fixture.tracer);
    let dir = scratch.join("epilogue-store");
    // A fixed place in the stream and in the snapshot cadence: the
    // epilogue starts 4 buckets into a cycle, so its 8 periodic
    // snapshots fall 4 buckets before its end and recovery always
    // replays the same 4 boundary records.
    h.seek(h.bucket.next_multiple_of(h.fixture.stream.len()) + EPILOGUE_OFFSET);
    let db = {
        let Engine::Single(single) = &mut h.fixture.engine else {
            return Err(Error::invalid("the durable epilogue needs a single engine"));
        };
        let store = Store::create(dir.clone(), &tracer)?;
        single.driver = build_driver(&single.db, &tracer, Some(Arc::clone(&store.manager)));
        single.store = Some(store);
        single.driver.persist_snapshot(h.bucket as u64, &h.stats)?;
        Arc::clone(&single.db)
    };
    h.run_phase("epilogue.durable", Limit::Buckets(EPILOGUE_BUCKETS), true)?;
    let stats = match &h.fixture.engine {
        Engine::Single(single) => single.store.as_ref().map(|s| s.manager.stats()),
        Engine::Sharded(_) => None,
    }
    .ok_or_else(|| Error::invalid("the epilogue store vanished"))?;

    let live_config = db.engine().current_config();
    // Spread over the whole stream, so every template is probed.
    let stream = Arc::clone(&h.fixture.stream);
    let probe_set: Vec<&Query> = (0..RECOVERY_PROBE_QUERIES)
        .map(|i| {
            let bucket = &stream[i * stream.len() / RECOVERY_PROBE_QUERIES];
            &bucket[i % bucket.len()]
        })
        .collect();
    let mut times = Vec::with_capacity(RECOVERIES);
    let mut replayed_records = 0;
    for round in 0..RECOVERIES {
        let reopened: Arc<dyn Persistence> = Arc::new(DirPersistence::open(&dir)?);
        let started = Instant::now();
        let recovered = {
            let _span = tracer.span("durable.recover_runtime");
            recover_runtime(reopened, durability_config(), RuntimeConfig::default())?
        };
        times.push(started.elapsed().as_secs_f64() * 1e3);
        let (runtime, state) =
            recovered.ok_or_else(|| Error::invalid("the store holds no valid snapshot"))?;
        replayed_records = state.replayed_records;
        if round > 0 {
            continue;
        }
        let recovered_db = runtime.database();
        if recovered_db.engine().current_config() != live_config {
            return Err(Error::invalid(
                "recovered configuration differs from the live engine's",
            ));
        }
        for query in &probe_set {
            let output = recovered_db.run_query(query)?.output;
            let accepted = h
                .fixture
                .oracle
                .get(&query.instance_fingerprint())
                .is_some_and(|expected| expected.accepts(&output));
            if !accepted {
                return Err(Error::invalid(format!(
                    "recovered database answers {} wrongly",
                    query.label()
                )));
            }
        }
    }
    Ok(DurableReport {
        recover_ms: median(&mut times).unwrap_or(0.0),
        replayed_records,
        store_dir: dir,
        stats,
    })
}

/// Per-name span statistics of a finished traced pass.
struct Spans {
    all: Vec<SpanRec>,
    layers: std::collections::BTreeMap<&'static str, LayerTime>,
}

impl Spans {
    fn layer(&self, name: &str) -> LayerTime {
        self.layers.get(name).copied().unwrap_or_default()
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.layer(name).total_ns as f64
    }
}

/// How the durations of all spans sharing a name become one number.
#[derive(Clone, Copy)]
enum Agg {
    Mean,
    Median,
}

/// `agg` over the durations (ns) of the spans in `spans` called `name`.
fn span_ns(spans: &[SpanRec], name: &str, agg: Agg) -> Measured {
    let durations = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64);
    match agg {
        Agg::Median => median_counted(durations),
        Agg::Mean => {
            let (n, sum) = durations.fold((0usize, 0.0), |(n, sum), d| (n + 1, sum + d));
            (n > 0).then(|| (sum / n as f64, n))
        }
    }
}

/// Per-layer metrics that are one aggregate over one span name:
/// `(metric, unit, span, aggregate, ns per unit)`. A metric whose span
/// never occurred on the workload is left out (reported as 0).
const SPAN_METRICS: [(&str, &str, &str, Agg, f64); 13] = [
    (
        "query.plan_cache_record_ns",
        "ns",
        "probe.query.plan_cache_record",
        Agg::Mean,
        1.0,
    ),
    (
        "storage.scan_us",
        "us",
        "probe.storage.scan",
        Agg::Mean,
        1e3,
    ),
    (
        "storage.predict_paths_ns",
        "ns",
        "probe.storage.predict_paths",
        Agg::Mean,
        1.0,
    ),
    (
        "storage.merge_us",
        "us",
        "probe.storage.merge_partials",
        Agg::Mean,
        1e3,
    ),
    (
        "storage.apply_action_ms",
        "ms",
        "storage.apply_actions",
        Agg::Median,
        1e6,
    ),
    (
        "cost.workload_cost_us",
        "us",
        "probe.cost.workload_cost",
        Agg::Median,
        1e3,
    ),
    (
        "forecast.predict_us",
        "us",
        "probe.forecast.predict",
        Agg::Median,
        1e3,
    ),
    (
        "core.record_query_ns",
        "ns",
        "core.record_query",
        Agg::Mean,
        1.0,
    ),
    ("core.drain_ms", "ms", "core.drain_pending", Agg::Mean, 1e6),
    ("shard.route_ns", "ns", "shard.route", Agg::Mean, 1.0),
    ("shard.routed_us", "us", "shard.routed", Agg::Mean, 1e3),
    ("shard.scatter_us", "us", "shard.scatter", Agg::Mean, 1e3),
    (
        "shard.rebalance_us",
        "us",
        "shard.rebalance",
        Agg::Median,
        1e3,
    ),
];

/// The same for the spans of the durable epilogue.
const EPILOGUE_SPAN_METRICS: [(&str, &str, &str, Agg, f64); 3] = [
    (
        "durable.wal_append_us",
        "us",
        "durable.wal_append",
        Agg::Median,
        1e3,
    ),
    (
        "durable.snapshot_write_ms",
        "ms",
        "durable.snapshot_write",
        Agg::Median,
        1e6,
    ),
    (
        "durable.encode_ms",
        "ms",
        "probe.durable.encode_state",
        Agg::Median,
        1e6,
    ),
];

fn push_span_metrics(
    r: &mut Report,
    spans: &[SpanRec],
    table: &[(&'static str, &'static str, &str, Agg, f64)],
) {
    for &(name, unit, span, agg, ns_per_unit) in table {
        if let Some((ns, n)) = span_ns(spans, span, agg) {
            r.push(name, ns / ns_per_unit, unit, n);
        }
    }
}

/// Median of `durations` in units of `per_second` to the second.
fn duration_median(durations: &[Duration], per_second: f64) -> Measured {
    median_counted(durations.iter().map(|d| d.as_secs_f64() * per_second))
}

/// The traced run: the count-boxed protocol once without spans (the
/// untraced wall of the same work) and once with, then the epilogues.
pub fn run_traced(opts: &Options) -> Result<Outcome> {
    let scratch = Scratch::create(&opts.out_dir)?;
    let plan = Plan::counted(opts.kind, opts.seconds);

    let untraced_wall_s = {
        let fixture = Fixture::set_up(
            opts.kind,
            opts.seed,
            &scratch.0,
            Arc::new(Tracer::new(false)),
        )?;
        Harness::new(fixture).run_protocol(&plan)?.wall_s()
    };

    let tracer = Arc::new(Tracer::new(true));
    let fixture = Fixture::set_up(opts.kind, opts.seed, &scratch.0, Arc::clone(&tracer))?;
    let mut h = Harness::new(fixture);
    let phases = {
        let _root = tracer.span("run");
        h.run_protocol(&plan)?
    };
    let spans = {
        let all = tracer.spans();
        let layers = spans::self_times(&all);
        Spans { all, layers }
    };
    let serving_digest = h.stats.result_digest;

    let mut r = Report::default();
    push_serving_metrics(&mut r, &mut h, &spans, &phases);
    r.push(
        "harness.trace_overhead_share",
        (phases.wall_s() - untraced_wall_s) / untraced_wall_s,
        "ratio",
        2,
    );

    // Epilogues: the serving measurements are complete; from here on
    // the fixture is only a means to time single functions.
    if opts.kind == WorkloadKind::ShiftDurable {
        let classes = opts.kind.sizes().cycle_classes;
        if let Some((share, n)) = device_share(&phases.tuned, classes) {
            r.push("durable.device_share", share, "ratio", n);
        }
        let durable = durable_epilogue(&mut h, &scratch.0)?;
        r.push("recover_ms", durable.recover_ms, "ms", RECOVERIES);
        for (name, value, unit) in [
            ("write_amp", durable.stats.write_amplification, "ratio"),
            ("durable.wal_bytes", durable.stats.wal_bytes as f64, "bytes"),
            (
                "durable.snapshot_bytes",
                durable.stats.snapshot_bytes as f64,
                "bytes",
            ),
            ("durable.appends", durable.stats.wal_records as f64, "count"),
            (
                "durable.replayed_records",
                durable.replayed_records as f64,
                "count",
            ),
        ] {
            r.push(name, value, unit, 1);
        }
        push_span_metrics(
            &mut r,
            &tracer.spans()[spans.all.len()..],
            &EPILOGUE_SPAN_METRICS,
        );
        r.push(
            "durable.recover_read_ms",
            recover_read_ms(&durable.store_dir)?,
            "ms",
            RECOVERIES,
        );
    }
    let (analyze_ms, order_ms, nodes) = analyze_and_order(&h.fixture.drivers()[0])?;
    r.push("core.analyze_ms", analyze_ms, "ms", 1);
    r.push("lp.order_ms", order_ms, "ms", 1);
    r.push("lp.nodes", nodes as f64, "count", 1);
    let (overhead, obs_spans) = subscriber_overhead(&mut h)?;
    r.push(
        "obs.subscriber_overhead_share",
        overhead,
        "ratio",
        OBS_ROUNDS,
    );
    r.push("obs.spans", obs_spans as f64, "count", OBS_ROUNDS);
    match opts.kind {
        WorkloadKind::EventsMix => r.push("runtime.run_qps", runtime_run_qps(&h)?, "1/s", 1),
        WorkloadKind::TenantsZipf => r.push(
            "runtime.sharded_run_qps",
            sharded_run_qps(opts.seed)?,
            "1/s",
            1,
        ),
        _ => {}
    }
    r.push(
        "fail_share",
        h.failed() as f64 / h.attempted().max(1) as f64,
        "ratio",
        h.attempted() as usize,
    );

    let trace_path = opts
        .out_dir
        .join(format!("trace_{}.json", opts.kind.name()));
    std::fs::write(
        &trace_path,
        spans::trace_json(opts.kind.name(), opts.seed, &spans.all),
    )
    .map_err(|e| Error::invalid(format!("writing {}: {e}", trace_path.display())))?;

    Ok(Outcome {
        report: r,
        attempted: h.attempted(),
        failed: h.failed(),
        digest: serving_digest,
    })
}

/// Everything the traced protocol pass itself measured: where query
/// time went, the engine's counters, the tuning loop, the shards.
fn push_serving_metrics(r: &mut Report, h: &mut Harness, spans: &Spans, phases: &Phases) {
    let served = h.attempted() as usize;
    let classes = h.fixture.kind.sizes().cycle_classes;
    push_span_metrics(r, &spans.all, &SPAN_METRICS);

    // Query time and where it went. On a sharded fixture the routed
    // call stands where `Database::run_query` stands on a single one.
    let run_query = match h.fixture.engine {
        Engine::Single(_) => "query.run_query",
        Engine::Sharded(_) => "shard.routed",
    };
    let query_ns = [
        "query.run_query",
        "shard.route",
        "shard.routed",
        "shard.scatter",
        "core.record_query",
    ]
    .iter()
    .map(|name| spans.total_ns(name))
    .sum::<f64>();
    let scan_ns = spans.total_ns("probe.storage.scan");
    let run_query_self_ns = (spans.total_ns(run_query) - scan_ns).max(0.0);
    let calls = spans.layer(run_query).count.max(1) as usize;
    r.push(
        "query.run_query_self_us",
        run_query_self_ns / calls as f64 / 1e3,
        "us",
        calls,
    );
    r.push("storage.scan_share", scan_ns / query_ns, "ratio", calls);
    r.push(
        "harness.fixed_overhead_share",
        (run_query_self_ns + spans.total_ns("shard.route") + spans.total_ns("core.record_query"))
            / query_ns,
        "ratio",
        served,
    );
    if let Some(probe) = &mut h.probe {
        let names = [
            "query.point_p50_us",
            "query.grouped_p50_us",
            "query.range_p50_us",
        ];
        for (name, latencies) in names.into_iter().zip(&mut probe.class_us) {
            if let Some((p50, n)) = median_counted(latencies.drain(..)) {
                r.push(name, p50, "us", n);
            }
        }
    }

    let c = h.scans;
    for (name, count) in [
        ("storage.chunks_pruned", c.chunks_pruned),
        ("storage.chunks_index", c.chunks_index),
        ("storage.chunks_kernel", c.chunks_kernel),
        ("storage.chunks_scalar", c.chunks_scalar),
        ("storage.kernel_batches", c.kernel_batches),
        ("storage.morsels", c.morsels),
    ] {
        r.push(name, count as f64, "count", served);
    }
    r.push(
        "storage.rows_examined_per_result",
        c.rows_scanned as f64 / c.rows_matched.max(1) as f64,
        "ratio",
        served,
    );
    let (memory, index) = memory_bytes(&h.fixture);
    r.push("storage.memory_bytes", memory as f64, "bytes", 1);
    r.push("storage.index_bytes", index as f64, "bytes", 1);

    let drivers = h.fixture.drivers();
    let (mut hits, mut misses, mut entries, mut trail) = (0u64, 0u64, 0usize, 0u64);
    let (mut tunings, mut applied, mut rollbacks) = (0u64, 0u64, 0usize);
    for driver in drivers {
        let what_if = driver.multi().what_if();
        let cache = what_if.cache_stats().unwrap_or_default();
        hits += cache.hits;
        misses += cache.misses;
        entries += what_if.cache().map_or(0, |c| c.len());
        let recorder = driver.flight_recorder();
        trail += recorder.len() as u64 + recorder.dropped();
        let tuning = driver.tuning_state();
        tunings += tuning.tunings_run;
        applied += tuning.actions_applied;
        rollbacks += tuning.rollbacks;
    }
    r.push(
        "cost.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
    );
    for (name, count) in [
        ("cost.cache_entries", entries as f64),
        ("core.tunings_run", tunings as f64),
        ("core.actions_applied", applied as f64),
        ("core.rollbacks", rollbacks as f64),
        ("obs.trail_events", trail as f64),
    ] {
        r.push(name, count, "count", drivers.len());
    }
    r.push(
        "core.candidates",
        h.candidates as f64,
        "count",
        h.fired.len(),
    );
    for (name, unit, durations, per_second) in [
        ("core.close_bucket_us", "us", &h.close, 1e6),
        ("core.maybe_tune_idle_us", "us", &h.idle, 1e6),
        ("core.tune_ms", "ms", &h.fired, 1e3),
    ] {
        if let Some((value, n)) = duration_median(durations, per_second) {
            r.push(name, value, unit, n);
        }
    }

    if let Engine::Sharded(s) = &h.fixture.engine {
        r.push(
            "shard.scatter_share",
            spans.total_ns("shard.scatter")
                / (spans.total_ns("shard.routed") + spans.total_ns("shard.scatter")),
            "ratio",
            spans.layer("shard.scatter").count as usize,
        );
        r.push(
            "shard.budget_used_bytes",
            s.budget_used_bytes as f64,
            "bytes",
            1,
        );
        if let Some((p50, n)) = scatter_p50_us(&phases.tuned, classes) {
            r.push("scatter_p50_us", p50, "us", n);
        }
    }

    r.push(
        "workload.generate_ms",
        h.fixture.generate.as_secs_f64() * 1e3,
        "ms",
        1,
    );
    let root_ns = spans.layer("run").total_ns.max(1) as f64;
    let probe_ns: u64 = spans
        .layers
        .iter()
        .filter(|(name, _)| name.starts_with("probe."))
        .map(|(_, l)| l.total_ns)
        .sum();
    let self_ns: u64 = spans.layers.values().map(|l| l.self_ns).sum();
    r.push(
        "harness.probe_share",
        probe_ns as f64 / root_ns,
        "ratio",
        spans.all.len(),
    );
    r.push(
        "harness.self_time_coverage",
        self_ns as f64 / root_ns,
        "ratio",
        spans.all.len(),
    );
    r.push("harness.queries", served as f64, "count", 1);
    r.push("harness.spans", spans.all.len() as f64, "count", 1);
    let manage = over_windows(&phases.tuned.windows, classes, Pick::Median, |w| {
        Some(w.manage_share())
    });
    if let Some((share, n)) = manage {
        r.push("harness.manage_share", share, "ratio", n);
    }
}

/// `smdb_core::recover` alone — read, checksum, decode, replay — on the
/// epilogue store: the part of `recover_ms` that is not engine rebuild.
fn recover_read_ms(dir: &Path) -> Result<f64> {
    let mut times = Vec::with_capacity(RECOVERIES);
    for _ in 0..RECOVERIES {
        let reopened = DirPersistence::open(dir)?;
        let started = Instant::now();
        black_box(smdb_core::recover(&reopened, &durability_config())?);
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    median(&mut times).ok_or_else(|| Error::invalid("no recovery was timed"))
}

/// The dependence analysis and the ordering ILP at the workload's |S|,
/// on the driver's final forecast: `(analyze ms, lp_order ms, nodes)`.
fn analyze_and_order(driver: &Driver) -> Result<(f64, f64, usize)> {
    let forecast = driver.forecast();
    let engine = driver.database().engine();
    let base = engine.current_config();
    let started = Instant::now();
    let report = driver
        .multi()
        .analyze(&engine, &forecast, &base, &driver.constraints())?;
    let analyze_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let solution = driver.multi().lp_order(&report)?;
    Ok((
        analyze_ms,
        started.elapsed().as_secs_f64() * 1e3,
        solution.nodes,
    ))
}

/// Serves the same buckets twice per round — once with a
/// `CountingSubscriber` installed, once without, alternating which goes
/// first, tuning paused so that both serve the same state — and returns
/// the relative wall-time difference of the two arms' fastest rounds
/// and the spans counted.
fn subscriber_overhead(h: &mut Harness) -> Result<(f64, u64)> {
    let subscriber = CountingSubscriber::new();
    let (mut with, mut without) = (f64::INFINITY, f64::INFINITY);
    for round in 0..OBS_ROUNDS {
        let start = h.bucket;
        for installed in [round % 2 == 0, round % 2 != 0] {
            h.seek(start);
            if installed {
                trace::install(subscriber.clone());
            }
            let phase = h.run_phase("epilogue.obs", Limit::Buckets(OBS_ROUND_BUCKETS), false);
            trace::uninstall();
            let arm = if installed { &mut with } else { &mut without };
            *arm = arm.min(phase?.wall_s);
        }
    }
    Ok(((with - without) / without, subscriber.total()))
}

/// `Runtime::run` with 2 workers over the head of the same stream on a
/// fresh fixture, net of the oracle capture it repeats internally
/// (timed separately on the same plan).
fn runtime_run_qps(h: &Harness) -> Result<f64> {
    let sizes = h.fixture.kind.sizes();
    let (db, _) = smdb_runtime::events_database(sizes.chunks, sizes.chunk_rows)?;
    let plan: Vec<BucketPlan> = h
        .fixture
        .stream
        .iter()
        .take(RUNTIME_BUCKETS)
        .map(|queries| BucketPlan {
            phase: StreamPhase::Heavy,
            queries: queries.clone(),
        })
        .collect();
    let started = Instant::now();
    black_box(ResultOracle::capture(
        &db,
        plan.iter().flat_map(|b| b.queries.iter()),
    )?);
    let capture = started.elapsed();
    let runtime = Runtime::new(
        db,
        RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        },
    );
    let started = Instant::now();
    let outcome = runtime.run(&plan)?;
    let serving = started.elapsed().saturating_sub(capture);
    Ok(outcome.stats.queries as f64 / serving.as_secs_f64())
}

/// `ShardedRuntime::run` (2 workers) over its own plan of the same
/// fixture and traffic; it reports its serving throughput itself.
fn sharded_run_qps(seed: u64) -> Result<f64> {
    let runtime = ShardedRuntime::new(MtSoakConfig {
        tenants: tenants_config(seed),
        buckets: RUNTIME_BUCKETS,
        queries_per_bucket: WorkloadKind::TenantsZipf.sizes().bucket_queries,
        heavy_len: 1,
        light_len: 0,
        scan_threads: 1,
        ..MtSoakConfig::default()
    })?;
    let plan: Vec<Vec<TenantQuery>> = runtime.plan();
    Ok(runtime.run(&plan)?.sustained_qps)
}
