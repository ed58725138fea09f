//! Metric names, units and the two output forms.
//!
//! Every run prints one line per metric — `workload metric value unit
//! n_samples` — and, as the last line of standard output, one JSON
//! object `{correct, attempted, failed, metrics}` holding exactly the
//! metrics `BENCHMARK.json` lists for the run's mode: the end-to-end
//! ones for an untraced run, the per-layer ones for a traced run. The
//! tables below are checked against `BENCHMARK.json` by a unit test.

use smdb_common::json::Json;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (windows, passes, calls, …).
    pub samples: usize,
}

/// End-to-end metrics every workload reports from its untraced run:
/// `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("cold_p50_us", "us"),
    ("tuned_p50_us", "us"),
    ("tuned_p95_us", "us"),
    ("retune_p50_ms", "ms"),
    ("manage_share", "ratio"),
    ("space_amp", "ratio"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, prefix = crate. The last four
/// are end-to-end metrics that exist on one workload only, or are 0 on
/// a correct run: the untraced run prints them where they apply, but an
/// end-to-end metric of `BENCHMARK.json` must be non-zero on every
/// workload, so they travel in the traced run's JSON, where 0 is fine.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("query.run_query_self_us", "us"),
    ("query.plan_cache_record_ns", "ns"),
    ("query.point_p50_us", "us"),
    ("query.grouped_p50_us", "us"),
    ("query.range_p50_us", "us"),
    ("storage.scan_us", "us"),
    ("storage.scan_share", "ratio"),
    ("storage.predict_paths_ns", "ns"),
    ("storage.merge_us", "us"),
    ("storage.chunks_pruned", "count"),
    ("storage.chunks_index", "count"),
    ("storage.chunks_kernel", "count"),
    ("storage.chunks_scalar", "count"),
    ("storage.kernel_batches", "count"),
    ("storage.morsels", "count"),
    ("storage.rows_examined_per_result", "ratio"),
    ("storage.apply_action_ms", "ms"),
    ("storage.memory_bytes", "bytes"),
    ("storage.index_bytes", "bytes"),
    ("cost.workload_cost_us", "us"),
    ("cost.cache_hit_rate", "ratio"),
    ("cost.cache_entries", "count"),
    ("forecast.predict_us", "us"),
    ("lp.order_ms", "ms"),
    ("lp.nodes", "count"),
    ("core.close_bucket_us", "us"),
    ("core.record_query_ns", "ns"),
    ("core.maybe_tune_idle_us", "us"),
    ("core.tune_ms", "ms"),
    ("core.analyze_ms", "ms"),
    ("core.drain_ms", "ms"),
    ("core.tunings_run", "count"),
    ("core.actions_applied", "count"),
    ("core.candidates", "count"),
    ("core.rollbacks", "count"),
    ("shard.route_ns", "ns"),
    ("shard.routed_us", "us"),
    ("shard.scatter_us", "us"),
    ("shard.scatter_share", "ratio"),
    ("shard.rebalance_us", "us"),
    ("shard.budget_used_bytes", "bytes"),
    ("durable.encode_ms", "ms"),
    ("durable.wal_append_us", "us"),
    ("durable.snapshot_write_ms", "ms"),
    ("durable.device_share", "ratio"),
    ("durable.wal_bytes", "bytes"),
    ("durable.snapshot_bytes", "bytes"),
    ("durable.appends", "count"),
    ("durable.recover_read_ms", "ms"),
    ("durable.replayed_records", "count"),
    ("runtime.run_qps", "1/s"),
    ("runtime.sharded_run_qps", "1/s"),
    ("obs.subscriber_overhead_share", "ratio"),
    ("obs.trail_events", "count"),
    ("obs.spans", "count"),
    ("workload.generate_ms", "ms"),
    ("harness.trace_overhead_share", "ratio"),
    ("harness.probe_share", "ratio"),
    ("harness.fixed_overhead_share", "ratio"),
    ("harness.self_time_coverage", "ratio"),
    ("harness.queries", "count"),
    ("harness.spans", "count"),
    ("harness.manage_share", "ratio"),
    ("fail_share", "ratio"),
    ("scatter_p50_us", "us"),
    ("recover_ms", "ms"),
    ("write_amp", "ratio"),
];

/// Collects a run's metrics and renders both output forms.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        debug_assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// One `workload metric value unit n_samples` line per metric.
    pub fn lines(&self, workload: &str) -> String {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "{workload} {} {} {} {}\n",
                    m.name, m.value, m.unit, m.samples
                )
            })
            .collect()
    }

    /// The closing JSON line: exactly the metrics in `wanted`, in that
    /// order. Errors name a metric the run failed to measure; with
    /// `zero_fill`, a metric that does not apply to the workload is
    /// reported as 0 instead (per-layer metrics of layers it bypasses).
    pub fn result_line(
        &self,
        wanted: &[(&'static str, &'static str)],
        zero_fill: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            let value = match self.get(name) {
                Some(m) if m.value.is_finite() => m.value,
                Some(m) => return Err(format!("metric {name} is not finite: {}", m.value)),
                None if zero_fill => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            metrics.push((
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
    fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let spec = smdb_common::json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        assert_eq!(listed(&spec, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&spec, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::WorkloadKind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_holds_exactly_the_wanted_metrics() {
        let mut report = Report::default();
        report.push("qps", 1234.5, "1/s", 20);
        report.push("extra", 1.0, "count", 1);
        let line = report
            .result_line(&[("qps", "1/s")], false, 10, 0)
            .expect("complete");
        let json = smdb_common::json::parse(&line).expect("valid JSON");
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(10));
        let metrics = json.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("qps")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1234.5)
        );
        assert!(metrics.get("extra").is_none());
        assert!(report
            .result_line(&[("missing", "s")], false, 10, 0)
            .is_err());
        let filled = report
            .result_line(&[("missing", "s")], true, 10, 3)
            .expect("zero-filled");
        assert!(filled.contains("\"correct\":false"));
        assert!(filled.contains("\"missing\":{\"value\":0"));
    }
}
