//! The organizer (Section II-E).
//!
//! "The organizer is responsible for orchestrating the whole
//! self-managing process. It identifies convenient points in time for
//! tuning by constantly monitoring runtime KPIs and taking workload
//! forecasts into account. The organizer also decides whether changes
//! observed in workload forecasts are significant enough to justify
//! possibly expensive tunings."
//!
//! One gate guards every trigger: [`Organizer::gate_open_at`], which
//! reads only the clock (paused, and the `min_interval` rate limit).
//! Low utilization is not part of it. Whether a chosen action waits for
//! an idle bucket is the executor's call
//! ([`crate::executor::SequentialExecutor::during_low_utilization`]),
//! made at the drain, where the action actually costs something.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use smdb_common::{Cost, LogicalTime};

use crate::constraints::ConstraintSet;
use crate::kpi::KpiSnapshot;

/// Why the organizer triggered a tuning run.
#[derive(Debug, Clone, PartialEq)]
pub enum TuningTrigger {
    /// The forecast workload's estimated cost under the current
    /// configuration deviates from the recently observed cost by more
    /// than the threshold: the workload changed.
    ForecastShift { ratio: f64 },
    /// The SLA on mean response time is being violated.
    SlaViolation { mean_response: Cost },
    /// The SLA on tail (p95) response time is being violated.
    P95Violation { p95_response: Cost },
    /// Engine memory crossed the configured ceiling.
    MemoryPressure { bytes: usize },
    /// The caller forced a run.
    Manual,
}

impl TuningTrigger {
    /// Stable short name, used as a metric label (`organizer.trigger.*`)
    /// and in flight-recorder events.
    pub fn label(&self) -> &'static str {
        match self {
            TuningTrigger::ForecastShift { .. } => "forecast_shift",
            TuningTrigger::SlaViolation { .. } => "sla_violation",
            TuningTrigger::P95Violation { .. } => "p95_violation",
            TuningTrigger::MemoryPressure { .. } => "memory_pressure",
            TuningTrigger::Manual => "manual",
        }
    }
}

/// Organizer thresholds.
#[derive(Debug, Clone)]
pub struct OrganizerConfig {
    /// Relative cost-delta above which a forecast shift justifies tuning
    /// (`|forecast − observed| / observed`).
    pub cost_delta_threshold: f64,
    /// Minimum buckets between tuning runs.
    pub min_interval: u64,
}

impl Default for OrganizerConfig {
    fn default() -> Self {
        OrganizerConfig {
            cost_delta_threshold: 0.25,
            min_interval: 2,
        }
    }
}

/// The organizer component.
#[derive(Debug)]
pub struct Organizer {
    pub config: OrganizerConfig,
    last_tuning: Mutex<Option<LogicalTime>>,
    /// Degraded-mode switch: while set, no tuning triggers fire. The
    /// runtime pauses tuning after a failed reconfiguration so serving
    /// continues while the system settles.
    paused: AtomicBool,
}

impl Organizer {
    /// Creates an organizer.
    pub fn new(config: OrganizerConfig) -> Self {
        Organizer {
            config,
            last_tuning: Mutex::new(None),
            paused: AtomicBool::new(false),
        }
    }

    /// When the last tuning ran.
    pub fn last_tuning(&self) -> Option<LogicalTime> {
        *self.last_tuning.lock()
    }

    /// Pauses all tuning triggers (degraded mode).
    pub fn pause(&self) {
        self.paused.store(true, Ordering::Relaxed);
    }

    /// Resumes tuning after a pause.
    pub fn resume(&self) {
        self.paused.store(false, Ordering::Relaxed);
    }

    /// Whether tuning is currently paused.
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Relaxed)
    }

    /// Records that a tuning ran at `now`.
    pub fn record_tuning(&self, now: LogicalTime) {
        *self.last_tuning.lock() = Some(now);
    }

    /// The gate every trigger sits behind: not paused and past the rate
    /// limit. It needs only the clock, so callers ask it before building
    /// the KPI snapshot and the forecast [`Self::should_tune`] reads.
    pub fn gate_open_at(&self, now: LogicalTime) -> bool {
        // Degraded mode: a failed reconfiguration paused tuning.
        if self.is_paused() {
            return false;
        }
        // Rate limit.
        match self.last_tuning() {
            Some(last) => now.since(last) >= self.config.min_interval,
            None => true,
        }
    }

    /// Decides whether to tune now.
    ///
    /// * `observed_cost` — recently observed per-horizon workload cost,
    /// * `forecast_cost_current_config` — estimated cost of the forecast
    ///   workload *under the current configuration* (the paper's
    ///   trigger signal).
    pub fn should_tune(
        &self,
        now: LogicalTime,
        observed_cost: Cost,
        forecast_cost_current_config: Cost,
        kpis: &KpiSnapshot,
        constraints: &ConstraintSet,
    ) -> Option<TuningTrigger> {
        let trigger = self.evaluate(
            now,
            observed_cost,
            forecast_cost_current_config,
            kpis,
            constraints,
        );
        smdb_obs::metrics::counter("organizer.checks").inc();
        if let Some(t) = &trigger {
            smdb_obs::metrics::counter(&format!("organizer.trigger.{}", t.label())).inc();
        }
        trigger
    }

    fn evaluate(
        &self,
        now: LogicalTime,
        observed_cost: Cost,
        forecast_cost_current_config: Cost,
        kpis: &KpiSnapshot,
        constraints: &ConstraintSet,
    ) -> Option<TuningTrigger> {
        if !self.gate_open_at(now) {
            return None;
        }
        // SLA violations always justify tuning.
        let mean = kpis.mean_response;
        if constraints.violates_sla(mean) {
            return Some(TuningTrigger::SlaViolation {
                mean_response: mean,
            });
        }
        let p95 = kpis.p95_response;
        if constraints.violates_p95(p95) {
            return Some(TuningTrigger::P95Violation { p95_response: p95 });
        }
        if let Some(bytes) = kpis.memory {
            if constraints.violates_memory(bytes) {
                return Some(TuningTrigger::MemoryPressure { bytes });
            }
        }
        // Forecast shift.
        if observed_cost.ms() > 0.0 {
            let ratio =
                (forecast_cost_current_config.ms() - observed_cost.ms()).abs() / observed_cost.ms();
            if ratio > self.config.cost_delta_threshold {
                return Some(TuningTrigger::ForecastShift { ratio });
            }
        } else if forecast_cost_current_config.ms() > 0.0 {
            // Nothing observed yet but work is forecast: bootstrap.
            return Some(TuningTrigger::ForecastShift {
                ratio: f64::INFINITY,
            });
        }
        None
    }
}

impl Default for Organizer {
    fn default() -> Self {
        Organizer::new(OrganizerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpi::KpiCollector;
    use proptest::prelude::*;

    fn organizer() -> Organizer {
        Organizer::default()
    }

    #[test]
    fn forecast_shift_triggers() {
        let o = organizer();
        let k = KpiCollector::default();
        let t = o.should_tune(
            LogicalTime(10),
            Cost(100.0),
            Cost(140.0),
            &k.snapshot(),
            &ConstraintSet::none(),
        );
        assert!(matches!(t, Some(TuningTrigger::ForecastShift { .. })));
        // Small shift: no trigger.
        let t = o.should_tune(
            LogicalTime(10),
            Cost(100.0),
            Cost(110.0),
            &k.snapshot(),
            &ConstraintSet::none(),
        );
        assert!(t.is_none());
    }

    #[test]
    fn sla_violation_triggers() {
        let o = organizer();
        let k = KpiCollector::default();
        for _ in 0..10 {
            k.record_query(Cost(50.0));
        }
        let constraints = ConstraintSet {
            sla_mean_response: Some(Cost(10.0)),
            ..ConstraintSet::default()
        };
        let t = o.should_tune(
            LogicalTime(5),
            Cost(100.0),
            Cost(100.0),
            &k.snapshot(),
            &constraints,
        );
        assert!(matches!(t, Some(TuningTrigger::SlaViolation { .. })));
    }

    #[test]
    fn p95_and_memory_triggers() {
        let o = organizer();
        let k = KpiCollector::default();
        // 100 fast queries, 2 slow outliers: mean stays low, p95 spikes.
        for _ in 0..100 {
            k.record_query(Cost(1.0));
        }
        for _ in 0..8 {
            k.record_query(Cost(100.0));
        }
        let constraints = ConstraintSet {
            sla_mean_response: Some(Cost(50.0)),
            sla_p95_response: Some(Cost(50.0)),
            ..ConstraintSet::default()
        };
        let t = o.should_tune(
            LogicalTime(5),
            Cost(100.0),
            Cost(100.0),
            &k.snapshot(),
            &constraints,
        );
        assert!(
            matches!(t, Some(TuningTrigger::P95Violation { .. })),
            "{t:?}"
        );

        let constraints = ConstraintSet {
            memory_ceiling_bytes: Some(1_000),
            ..ConstraintSet::default()
        };
        k.record_memory(2_000);
        let t = o.should_tune(
            LogicalTime(5),
            Cost(100.0),
            Cost(100.0),
            &k.snapshot(),
            &constraints,
        );
        assert!(
            matches!(t, Some(TuningTrigger::MemoryPressure { bytes: 2_000 })),
            "{t:?}"
        );
    }

    #[test]
    fn pause_suppresses_all_triggers() {
        let o = organizer();
        let k = KpiCollector::default();
        o.pause();
        assert!(o.is_paused());
        let t = o.should_tune(
            LogicalTime(10),
            Cost(100.0),
            Cost(900.0),
            &k.snapshot(),
            &ConstraintSet::none(),
        );
        assert!(t.is_none(), "paused organizer never fires");
        o.resume();
        let t = o.should_tune(
            LogicalTime(10),
            Cost(100.0),
            Cost(900.0),
            &k.snapshot(),
            &ConstraintSet::none(),
        );
        assert!(t.is_some());
    }

    #[test]
    fn rate_limit_enforced() {
        let o = organizer();
        let k = KpiCollector::default();
        o.record_tuning(LogicalTime(10));
        let t = o.should_tune(
            LogicalTime(11),
            Cost(100.0),
            Cost(500.0),
            &k.snapshot(),
            &ConstraintSet::none(),
        );
        assert!(t.is_none(), "within min_interval");
        let t = o.should_tune(
            LogicalTime(12),
            Cost(100.0),
            Cost(500.0),
            &k.snapshot(),
            &ConstraintSet::none(),
        );
        assert!(t.is_some());
    }

    fn flag() -> impl Strategy<Value = bool> {
        (0u8..2).prop_map(|b| b == 1)
    }

    proptest! {
        /// The clock gate is open exactly when the organizer is neither
        /// paused nor inside its rate limit.
        #[test]
        fn clock_gate_is_a_sound_early_exit(
            paused in flag(),
            last in proptest::option::of(0u64..8),
            now in 0u64..12,
            min_interval in 0u64..4,
        ) {
            let o = Organizer::new(OrganizerConfig {
                min_interval,
                ..OrganizerConfig::default()
            });
            if paused {
                o.pause();
            }
            if let Some(t) = last {
                o.record_tuning(LogicalTime(t));
            }
            let early = o.gate_open_at(LogicalTime(now));
            let rested = match last {
                Some(t) => now.saturating_sub(t) >= min_interval,
                None => true,
            };
            prop_assert_eq!(early, !paused && rested);
        }
    }

    #[test]
    fn bootstrap_with_no_observations() {
        let o = organizer();
        let k = KpiCollector::default();
        let t = o.should_tune(
            LogicalTime(0),
            Cost::ZERO,
            Cost(50.0),
            &k.snapshot(),
            &ConstraintSet::none(),
        );
        assert!(matches!(t, Some(TuningTrigger::ForecastShift { .. })));
    }
}
