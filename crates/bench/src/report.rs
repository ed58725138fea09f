//! Machine-readable experiment metrics.
//!
//! Experiments print human-readable tables; CI additionally wants
//! numbers it can diff and plot. Experiments push key metrics into this
//! process-global sink via [`record`]; the `experiments` binary stamps
//! per-experiment wall time and, when `--json PATH` is given, writes the
//! whole sink as `BENCH_tuning.json`:
//!
//! ```json
//! {"experiments": [{"id": "e5", "wall_ms": 1234.5,
//!                   "cache_hit_rate": 0.93, ...}]}
//! ```
//!
//! Keys within one experiment keep insertion order; recording the same
//! key twice overwrites (an experiment's final number wins).

use std::sync::Mutex;

use smdb_common::json::Json;

static SINK: Mutex<Vec<(String, Vec<(String, Json)>)>> = Mutex::new(Vec::new());

/// Records one metric for an experiment (e.g. `record("e5",
/// "cache_hit_rate", 0.93.into())`).
pub fn record(experiment: &str, key: &str, value: Json) {
    let mut sink = SINK.lock().expect("report sink poisoned");
    let entry = match sink.iter_mut().find(|(id, _)| id == experiment) {
        Some(entry) => entry,
        None => {
            sink.push((experiment.to_string(), Vec::new()));
            sink.last_mut().expect("just pushed")
        }
    };
    match entry.1.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => entry.1.push((key.to_string(), value)),
    }
}

/// Renders everything recorded so far as the `BENCH_tuning.json`
/// document (experiments in first-recorded order).
pub fn to_json() -> Json {
    let sink = SINK.lock().expect("report sink poisoned");
    let experiments = sink
        .iter()
        .map(|(id, metrics)| {
            let mut pairs = vec![("id".to_string(), Json::Str(id.clone()))];
            pairs.extend(metrics.iter().cloned());
            Json::Obj(pairs)
        })
        .collect();
    Json::Obj(vec![("experiments".to_string(), Json::Arr(experiments))])
}

/// Drops all recorded metrics (test isolation).
pub fn reset() {
    SINK.lock().expect("report sink poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_render_round_trip() {
        reset();
        record("e5", "wall_ms", 12.5.into());
        record("e5", "cache_hit_rate", 0.9.into());
        record("e4", "permutations", 24u64.into());
        record("e5", "wall_ms", 13.0.into()); // overwrite wins
        let doc = to_json();
        let exps = doc.get("experiments").unwrap().as_array().unwrap();
        assert_eq!(exps.len(), 2);
        assert_eq!(exps[0].get("id").unwrap().as_str(), Some("e5"));
        assert_eq!(exps[0].get("wall_ms").unwrap().as_f64(), Some(13.0));
        assert_eq!(exps[0].get("cache_hit_rate").unwrap().as_f64(), Some(0.9));
        assert_eq!(exps[1].get("permutations").unwrap().as_u64(), Some(24));
        // Parses back as valid JSON.
        let text = doc.to_string_pretty();
        assert!(smdb_common::json::parse(&text).is_ok());
        reset();
    }
}
