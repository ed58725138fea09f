//! The serving soak: one binary, three runs of the one serving loop.
//!
//! ```text
//! cargo run --release -p smdb-bench --bin soak                        # single engine
//! cargo run --release -p smdb-bench --bin soak -- --scan-threads 4 --trail TRAIL_soak.json
//! cargo run --release -p smdb-bench --bin soak -- --shards 4 --tenants 1200 --zipf 1.1
//! cargo run --release -p smdb-bench --bin soak -- --kill-bucket 27 --dir target/ci/recover_store
//! ```
//!
//! * **single engine** (default): a seeded phased stream served by a
//!   worker pool while the tuning thread reconfigures the store online,
//!   with injected apply failures exercising the rollback path. Report
//!   sections `soak` + `obs` (`BENCH_runtime.json`).
//! * **sharded** (`--shards` / `--tenants` / `--zipf`): Zipf-skewed
//!   traffic from thousands of tenants against a sharded engine — every
//!   shard tunes itself, a global arbiter re-splits one index-memory
//!   budget each bucket. Report section `multitenant`
//!   (`BENCH_multitenant.json`); `--trail` writes the merged per-shard +
//!   arbiter decision trail.
//! * **kill-and-recover** (`--kill-bucket` / `--kill-after` /
//!   `--snapshot-every` / `--dir`): the single-engine fixture run
//!   durably twice — once uninterrupted (reference digest, write
//!   amplification), once hard-stopped mid-bucket, recovered and
//!   resumed. Report section `recover` (`BENCH_recovery.json`). With
//!   `--dir PATH` the store is a real directory (fsynced appends, wiped
//!   first so runs are hermetic); the default is in-memory. Exits 1
//!   when the recovered digest differs from the reference.
//!
//! Every run prints the metrics of its report sections (`section.key =
//! value`); `--json PATH` writes the same report, `--trail PATH` the
//! decision trail.

use std::sync::Arc;

use smdb_bench::report;
use smdb_common::json::Json;
use smdb_common::Cost;
use smdb_core::{DurabilityConfig, DurabilityManager};
use smdb_durable::{DirPersistence, MemPersistence, Persistence};
use smdb_query::{result_hash, Database};
use smdb_runtime::{
    events_database, generate, recover_and_resume, BucketPlan, FaultPlan, KillSpec, MtSoakConfig,
    MtSoakOutcome, Runtime, RuntimeConfig, ShardedRuntime, StreamConfig,
};
use smdb_shard::{build_sharded, MultiTenantConfig, ShardSpec, TenantQuery};

/// Tenants must clear this many queries before their p95 is aggregated.
const P95_MIN_QUERIES: u64 = 20;
/// Queries replayed against a 1-shard build for the digest-invariance
/// witness.
const DIGEST_CHECK_QUERIES: usize = 1_000;

/// Flags every run takes, and the ones each run adds.
const COMMON_FLAGS: &[&str] = &["--workers", "--seed", "--buckets", "--json"];
const ENGINE_FLAGS: &[&str] = &["--scan-threads", "--morsel-chunks"];
const SHARDED_FLAGS: &[&str] = &["--shards", "--tenants", "--zipf"];
const RECOVER_FLAGS: &[&str] = &["--kill-bucket", "--kill-after", "--snapshot-every", "--dir"];

struct Args {
    /// Flags given, in order.
    seen: Vec<String>,
    workers: Option<usize>,
    seed: u64,
    buckets: Option<usize>,
    json_path: Option<String>,
    trail_path: Option<String>,
    scan_threads: usize,
    morsel_chunks: usize,
    shards: usize,
    tenants: usize,
    zipf: f64,
    kill_bucket: usize,
    kill_after: usize,
    snapshot_every: u64,
    dir: Option<String>,
}

fn die(code: i32, message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(code);
}

fn usage(problem: &str) -> ! {
    die(
        2,
        &format!(
            "{problem} (valid: {} --trail PATH; single engine and kill-and-recover: {}; \
             sharded: {}; kill-and-recover: {})",
            COMMON_FLAGS.join(" "),
            ENGINE_FLAGS.join(" "),
            SHARDED_FLAGS.join(" "),
            RECOVER_FLAGS.join(" "),
        ),
    )
}

fn parse_args() -> Args {
    let mut parsed = Args {
        seen: Vec::new(),
        workers: None,
        seed: 42,
        buckets: None,
        json_path: None,
        trail_path: None,
        scan_threads: 1,
        morsel_chunks: smdb_storage::parallel::DEFAULT_MORSEL_CHUNKS,
        shards: 4,
        tenants: 1200,
        zipf: 1.1,
        kill_bucket: 27,
        kill_after: 100,
        snapshot_every: 8,
        dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut text = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} requires a value")))
        };
        fn num<T: std::str::FromStr>(flag: &str, value: String) -> T {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: invalid number {value}")))
        }
        match flag.as_str() {
            "--workers" => parsed.workers = Some(num(&flag, text())),
            "--seed" => parsed.seed = num(&flag, text()),
            "--buckets" => parsed.buckets = Some(num(&flag, text())),
            "--json" => parsed.json_path = Some(text()),
            "--trail" => parsed.trail_path = Some(text()),
            "--scan-threads" => parsed.scan_threads = num(&flag, text()),
            "--morsel-chunks" => parsed.morsel_chunks = num(&flag, text()),
            "--shards" => parsed.shards = num(&flag, text()),
            "--tenants" => parsed.tenants = num(&flag, text()),
            "--zipf" => parsed.zipf = num(&flag, text()),
            "--kill-bucket" => parsed.kill_bucket = num(&flag, text()),
            "--kill-after" => parsed.kill_after = num(&flag, text()),
            "--snapshot-every" => parsed.snapshot_every = num(&flag, text()),
            "--dir" => parsed.dir = Some(text()),
            other => usage(&format!("unknown argument {other}")),
        }
        parsed.seen.push(flag);
    }
    parsed
}

impl Args {
    fn gave(&self, flags: &[&str]) -> bool {
        self.seen.iter().any(|f| flags.contains(&f.as_str()))
    }

    /// Rejects flags the selected run does not read.
    fn allow_only(&self, run: &str, flags: &[&[&str]]) {
        if let Some(stray) = self
            .seen
            .iter()
            .find(|f| !flags.iter().any(|group| group.contains(&f.as_str())))
        {
            usage(&format!("{stray} does not apply to the {run} run"));
        }
    }
}

fn write_doc(path: &str, doc: &Json, what: &str) {
    if let Err(e) = std::fs::write(path, doc.to_string_pretty() + "\n") {
        die(1, &format!("failed to write {path}: {e}"));
    }
    println!("wrote {what} to {path}");
}

/// Records `metrics` into a report section and prints them: stdout and
/// the JSON report list the same numbers.
fn record_all<K: AsRef<str>>(section: &str, metrics: impl IntoIterator<Item = (K, Json)>) {
    for (key, value) in metrics {
        let key = key.as_ref();
        println!("{section}.{key} = {}", value.to_string_compact());
        report::record(section, key, value);
    }
}

fn main() {
    let args = parse_args();
    let trail = if args.gave(SHARDED_FLAGS) {
        args.allow_only("sharded", &[COMMON_FLAGS, SHARDED_FLAGS, &["--trail"]]);
        Some(sharded_soak(&args))
    } else if args.gave(RECOVER_FLAGS) {
        args.allow_only(
            "kill-and-recover",
            &[COMMON_FLAGS, ENGINE_FLAGS, RECOVER_FLAGS],
        );
        kill_and_recover(&args);
        None
    } else {
        args.allow_only("single-engine", &[COMMON_FLAGS, ENGINE_FLAGS, &["--trail"]]);
        Some(engine_soak(&args))
    };
    if let (Some(path), Some(trail)) = (&args.trail_path, &trail) {
        write_doc(path, trail, "decision trail");
    }
    if let Some(path) = &args.json_path {
        write_doc(path, &report::to_json(), "metrics");
    }
}

/// The single-engine fixture: 24 event kinds × 1 000 rows and the seeded
/// phased stream over them.
fn events_fixture(args: &Args) -> (Arc<Database>, Vec<BucketPlan>) {
    let stream = StreamConfig {
        seed: args.seed,
        buckets: args.buckets.unwrap_or(40),
        ..StreamConfig::default()
    };
    let (db, table) =
        events_database(24, 1_000).unwrap_or_else(|e| die(1, &format!("fixture failed: {e}")));
    (db, generate(table, 24_000, &stream))
}

fn engine_config(args: &Args, fault_plan: FaultPlan) -> RuntimeConfig {
    RuntimeConfig {
        workers: args.workers.unwrap_or(4),
        bucket_capacity: Cost(800.0),
        slice_budget: 6,
        fault_plan,
        sla_p95: Some(Cost(1.0)),
        scan_threads: args.scan_threads,
        morsel_chunks: args.morsel_chunks,
    }
}

/// The single-engine soak; returns the decision trail.
fn engine_soak(args: &Args) -> Json {
    let (db, plan) = events_fixture(args);
    let config = engine_config(args, FaultPlan::failing_attempts([0, 1, 2]));
    let workers = config.workers;
    let runtime = Runtime::new(Arc::clone(&db), config);
    // Per-(target, name) span tallies: coarse spans only (bucket, tuning
    // tick, worker, drain), so the subscriber costs nothing per query.
    let spans = smdb_obs::CountingSubscriber::new();
    smdb_obs::trace::install(spans.clone());
    let outcome = runtime
        .run(&plan)
        .unwrap_or_else(|e| die(1, &format!("soak failed: {e}")));
    smdb_obs::trace::uninstall();
    let (stats, tuning) = (&outcome.stats, &outcome.tuning);

    let scans = db.scan_stats();
    record_all(
        "soak",
        [
            ("workers", workers.into()),
            ("scan_threads", args.scan_threads.into()),
            ("morsel_chunks", args.morsel_chunks.into()),
            ("parallel_scans", scans.parallel_scans.into()),
            ("inline_scans", scans.inline_scans.into()),
            ("morsels_dispatched", scans.morsels.into()),
            ("chunks_pruned", scans.chunks_pruned.into()),
            ("chunks_index", scans.chunks_index.into()),
            ("chunks_kernel", scans.chunks_kernel.into()),
            ("chunks_scalar", scans.chunks_scalar.into()),
            ("kernel_batches", scans.kernel_batches.into()),
            ("seed", args.seed.into()),
            ("buckets_served", outcome.buckets_served.into()),
            ("queries", stats.queries.into()),
            ("errors", stats.errors.into()),
            ("wrong_results", stats.wrong_results.into()),
            ("result_digest", stats.result_digest.into()),
            ("cold_mean_ms", outcome.cold_mean.ms().into()),
            ("cold_p95_ms", outcome.cold_p95.ms().into()),
            ("tuned_mean_ms", outcome.tuned_mean.ms().into()),
            ("tuned_p95_ms", outcome.tuned_p95.ms().into()),
            ("tunings_run", tuning.tunings_run.into()),
            ("actions_applied", tuning.actions_applied.into()),
            ("actions_deferred", tuning.actions_deferred.into()),
            ("apply_attempts", outcome.apply_attempts.into()),
            ("apply_failures", tuning.apply_failures.into()),
            ("injected_failures", outcome.injected_failures.into()),
            ("rollbacks", tuning.rollbacks.into()),
            ("stored_instances", tuning.stored_instances.into()),
        ],
    );

    // Observability section: span tallies, what-if cache traffic and the
    // flight-recorder decision trail.
    let recorder = runtime.driver().flight_recorder();
    let events = recorder.events();
    let rollback_events = events
        .iter()
        .filter(|(_, e)| e.kind() == "action_rolled_back")
        .count();
    let cache_hits = smdb_obs::metrics::counter("driver.whatif_cache_hits").get();
    let cache_misses = smdb_obs::metrics::counter("driver.whatif_cache_misses").get();
    // Tuning passes priced wholly from kept prices that changed nothing.
    let passes_from_kept = smdb_obs::metrics::counter("tuner.reselected_from_kept").get();
    let hit_rate = if cache_hits + cache_misses == 0 {
        0.0
    } else {
        cache_hits as f64 / (cache_hits + cache_misses) as f64
    };
    record_all("obs", [("spans_total", spans.total().into())]);
    record_all(
        "obs",
        spans
            .snapshot()
            .into_iter()
            .map(|(name, count)| (format!("spans.{name}"), count.into())),
    );
    record_all(
        "obs",
        [
            ("whatif_cache_hits", cache_hits.into()),
            ("whatif_cache_misses", cache_misses.into()),
            ("whatif_cache_hit_rate", hit_rate.into()),
            ("tuner_passes_from_kept", passes_from_kept.into()),
            ("trail_events", events.len().into()),
            ("trail_dropped", recorder.dropped().into()),
            ("trail_rollback_events", rollback_events.into()),
        ],
    );
    recorder.to_json()
}

/// The noisy-neighbor probe: among *quiet* tenants (at or below the
/// median query count), how much worse is p95 for those homed on the
/// hottest tenant's shard than for those homed elsewhere? Positive
/// means the hot shard's neighbors pay; ~0 means per-shard tuning and
/// the budget split kept them whole. `None` when the hot tenant has no
/// unique home shard (it straddles a shard boundary) or a side has no
/// tenants.
fn noisy_neighbor_delta_ms(runtime: &ShardedRuntime, outcome: &MtSoakOutcome) -> Option<f64> {
    let hot = outcome
        .tenant_stats
        .iter()
        .max_by_key(|&(&tenant, stats)| (stats.queries, std::cmp::Reverse(tenant)))
        .map(|(&tenant, _)| tenant)?;
    let router = runtime.database().router();
    let hot_shard = router.unique_shard_for_tenant(hot)?;
    let mut counts: Vec<u64> = outcome.tenant_stats.values().map(|s| s.queries).collect();
    counts.sort_unstable();
    let median = counts[counts.len() / 2];
    let (mut on, mut off): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for (&tenant, stats) in &outcome.tenant_stats {
        if tenant == hot || stats.queries > median {
            continue;
        }
        match router.unique_shard_for_tenant(tenant) {
            Some(s) if s == hot_shard => on.push(stats.p95_ms),
            Some(_) => off.push(stats.p95_ms),
            None => {}
        }
    }
    if on.is_empty() || off.is_empty() {
        return None;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Some(mean(&on) - mean(&off))
}

/// Replays a sample of the plan against a 1-shard build and the soaked
/// N-shard database; equal digest sums are the shard-count-invariance
/// witness the gate pins exactly.
fn digest_invariant(
    runtime: &ShardedRuntime,
    cfg: &MultiTenantConfig,
    sample: &[TenantQuery],
) -> bool {
    let Ok(single) = build_sharded(cfg, &ShardSpec::range(1)) else {
        return false;
    };
    let mut a = 0u64;
    let mut b = 0u64;
    for tq in sample {
        let (Ok(one), Ok(many)) = (
            single.run_query(&tq.query),
            runtime.database().run_query(&tq.query),
        ) else {
            return false;
        };
        a = a.wrapping_add(result_hash(&tq.query, &one.output));
        b = b.wrapping_add(result_hash(&tq.query, &many.output));
    }
    a == b
}

/// The sharded multi-tenant soak; returns the merged decision trail.
fn sharded_soak(args: &Args) -> Json {
    if args.shards == 0 {
        usage("--shards must be at least 1");
    }
    let tenants = MultiTenantConfig {
        tenants: args.tenants,
        zipf_s: args.zipf,
        seed: args.seed,
        ..MultiTenantConfig::default()
    };
    let defaults = MtSoakConfig::default();
    let config = MtSoakConfig {
        shards: args.shards,
        tenants: tenants.clone(),
        workers: args.workers.unwrap_or(defaults.workers),
        buckets: args.buckets.unwrap_or(defaults.buckets),
        ..defaults
    };
    let (workers, budget_bytes) = (config.workers, config.budget_bytes);
    let runtime =
        ShardedRuntime::new(config).unwrap_or_else(|e| die(1, &format!("fixture failed: {e}")));
    let plan = runtime.plan();
    let outcome = runtime
        .run(&plan)
        .unwrap_or_else(|e| die(1, &format!("soak-mt failed: {e}")));
    let mean_p95 = outcome.mean_tenant_p95_ms(P95_MIN_QUERIES);
    let neighbor_delta = noisy_neighbor_delta_ms(&runtime, &outcome);
    let sample: Vec<TenantQuery> = plan
        .iter()
        .flatten()
        .take(DIGEST_CHECK_QUERIES)
        .cloned()
        .collect();
    let invariant = digest_invariant(&runtime, &tenants, &sample);
    record_all(
        "multitenant",
        [
            ("shards", args.shards.into()),
            ("tenants", args.tenants.into()),
            ("zipf_s", args.zipf.into()),
            ("workers", workers.into()),
            ("seed", args.seed.into()),
            ("buckets", plan.len().into()),
            ("queries", outcome.queries.into()),
            ("errors", outcome.errors.into()),
            ("wrong_results", outcome.wrong_results.into()),
            ("result_digest", outcome.result_digest.into()),
            ("digest_invariant", invariant.into()),
            ("routed", outcome.routed.into()),
            ("scattered", outcome.scattered.into()),
            ("morsels", outcome.morsels.into()),
            ("tenants_active", outcome.tenant_stats.len().into()),
            ("mean_tenant_p95_ms", mean_p95.into()),
            (
                "noisy_neighbor_delta_ms",
                neighbor_delta.unwrap_or(0.0).into(),
            ),
            ("shards_tuned", outcome.shards_tuned.into()),
        ],
    );
    let shards = &outcome.shard_tuning;
    for (s, tuning) in shards.iter().enumerate() {
        record_all(
            "multitenant",
            [
                (
                    format!("shard{s}_actions_applied"),
                    tuning.actions_applied.into(),
                ),
                (format!("shard{s}_tunings_run"), tuning.tunings_run.into()),
            ],
        );
    }
    let actions_total: u64 = shards.iter().map(|t| t.actions_applied).sum();
    let rollbacks_total: usize = shards.iter().map(|t| t.rollbacks).sum();
    record_all(
        "multitenant",
        [
            ("actions_applied", actions_total.into()),
            ("rollbacks", rollbacks_total.into()),
            ("budget_bytes", budget_bytes.into()),
            ("max_used_bytes", outcome.max_used_bytes.into()),
            (
                "budget_ok_every_bucket",
                outcome.budget_ok_every_bucket.into(),
            ),
        ],
    );
    outcome.trail
}

/// The kill-and-recover run. No injected apply faults: the tuner's
/// rollback cooldown is thread-local and not part of the boundary
/// record (see `smdb_runtime::recover`), so the equality contract only
/// holds on the fault-free path.
fn kill_and_recover(args: &Args) {
    let buckets = args.buckets.unwrap_or(40);
    if args.kill_bucket >= buckets {
        usage(&format!(
            "--kill-bucket {} must lie inside the {buckets}-bucket plan",
            args.kill_bucket
        ));
    }
    let dconfig = DurabilityConfig {
        snapshot_every_buckets: args.snapshot_every,
    };
    let durable_runtime = |db: Arc<Database>, store: Arc<dyn Persistence>| {
        let runtime = Runtime::new_durable(
            db,
            engine_config(args, FaultPlan::none()),
            Arc::new(DurabilityManager::new(store, dconfig.clone())),
        );
        runtime.driver().flight_recorder().set_auto_dump(false);
        runtime
    };

    // Uninterrupted durable run: the reference digest and the
    // write-amplification KPI of the chosen snapshot cadence.
    let (db, plan) = events_fixture(args);
    let expected = durable_runtime(db, Arc::new(MemPersistence::new()))
        .run(&plan)
        .unwrap_or_else(|e| die(1, &format!("reference soak failed: {e}")));
    let Some(durability) = expected.durability else {
        die(1, "durable reference run reported no durability stats");
    };
    // The dying run: hard-stopped mid-bucket.
    let store: Arc<dyn Persistence> = match &args.dir {
        None => Arc::new(MemPersistence::new()),
        Some(dir) => {
            // Hermetic: a stale store from a previous run must not leak
            // into this one's recovery.
            let _ = std::fs::remove_dir_all(dir);
            match DirPersistence::open(dir) {
                Ok(p) => Arc::new(p),
                Err(e) => die(1, &format!("cannot open store dir {dir}: {e}")),
            }
        }
    };
    let kill = KillSpec {
        bucket: args.kill_bucket,
        after_queries: args.kill_after,
    };
    let (db, _) = events_fixture(args);
    if let Err(e) = durable_runtime(db, Arc::clone(&store)).run_killed(&plan, kill) {
        die(1, &format!("killed run failed: {e}"));
    }

    // Recover and resume.
    let config = engine_config(args, FaultPlan::none());
    let workers = config.workers;
    let recovered = recover_and_resume(store, dconfig, config, &plan)
        .unwrap_or_else(|e| die(1, &format!("recovery failed: {e}")));
    let recovery_ms = recovered.recovery_micros as f64 / 1e3;
    let resumed = &recovered.outcome.stats;
    let digest_match = resumed.result_digest == expected.stats.result_digest;

    record_all(
        "recover",
        [
            ("seed", args.seed.into()),
            ("workers", workers.into()),
            ("buckets", buckets.into()),
            ("kill_bucket", args.kill_bucket.into()),
            ("kill_after_queries", args.kill_after.into()),
            ("snapshot_every", args.snapshot_every.into()),
            (
                "store",
                if args.dir.is_some() { "dir" } else { "mem" }.into(),
            ),
            ("resumed_at_bucket", recovered.resumed_at_bucket.into()),
            ("recovery_ms", recovery_ms.into()),
            ("replayed_records", recovered.replayed_records.into()),
            ("dropped_records", recovered.dropped_records.into()),
            ("digest_match", u64::from(digest_match).into()),
            ("queries", resumed.queries.into()),
            ("errors", resumed.errors.into()),
            ("wrong_results", resumed.wrong_results.into()),
            ("wal_records", durability.wal_records.into()),
            ("wal_bytes", durability.wal_bytes.into()),
            ("snapshots_taken", durability.snapshots_taken.into()),
            ("snapshot_bytes", durability.snapshot_bytes.into()),
            ("write_amplification", durability.write_amplification.into()),
        ],
    );
    if !digest_match {
        // The report is still written, then the run fails.
        if let Some(path) = &args.json_path {
            write_doc(path, &report::to_json(), "metrics");
        }
        die(
            1,
            &format!(
                "recovered digest {:#018x} != reference {:#018x}",
                resumed.result_digest, expected.stats.result_digest
            ),
        );
    }
}
