//! The estimators every reported timing goes through.
//!
//! A timing is never a whole-run mean: a phase is cut into windows that
//! all hold the same work, each window yields one statistic (its median
//! latency, its p95, its throughput), and the reported value is picked
//! *over windows* — see [`over_windows`] for which one and why.

use std::collections::BTreeMap;

/// Tail percentiles a window may report, ascending, in per mille (so
/// the sample arithmetic below is exact).
const TAILS_PER_MILLE: [usize; 4] = [900, 950, 990, 999];

/// Samples that must lie beyond a percentile for it to be reportable.
pub const BEYOND_TAIL: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Sorts in place. `None` for an empty slice.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// A measured value and the number of samples behind it.
pub type Measured = Option<(f64, usize)>;

/// Median of `values` with their count.
pub fn median_counted(values: impl Iterator<Item = f64>) -> Measured {
    let mut values: Vec<f64> = values.collect();
    median(&mut values).map(|m| (m, values.len()))
}

/// The `p`-quantile of an ascending slice by the `ceil(n·p)` rank rule —
/// the rule `KpiCollector::percentile_response` uses, so harness and
/// program percentiles are comparable. `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest tail percentile that still has [`BEYOND_TAIL`] samples
/// beyond it in a sample of `n`, or `None` when even p90 has fewer.
/// `tuned_p95_us` needs `supported_tail(n) >= Some(0.95)`, i.e. 200
/// samples per window.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rfind(|&&p| n - (n * p).div_ceil(1000) >= BEYOND_TAIL)
        .map(|&p| p as f64 / 1000.0)
}

/// One closed measurement window: a whole number of *cycles* — the
/// bucket count after which every kind of periodic management (a tuning
/// interval, a snapshot interval) repeats. Windows of the same `class`
/// hold the same work and can be compared with each other.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Which of the workload's kinds of cycle this window is: 0 on a
    /// stationary stream; the template served on a rotating one.
    pub class: usize,
    /// Wall time of the window, management included, seconds — net of
    /// `device_s`, as is `manage_s`.
    pub wall_s: f64,
    /// Wall time spent at bucket boundaries (management), seconds.
    pub manage_s: f64,
    /// Wall time spent inside the durable store's backend, seconds.
    pub device_s: f64,
    /// Queries completed in the window.
    pub queries: usize,
    /// Median query latency, µs.
    pub p50_us: f64,
    /// p95 query latency, µs (`None` below 200 samples).
    pub p95_us: Option<f64>,
    /// Median latency of the scatter-gathered queries, µs.
    pub scatter_p50_us: Option<f64>,
    /// Median wall time of the tuning passes that fired, ms.
    pub pass_p50_ms: Option<f64>,
}

impl Window {
    /// Closes a window over its query latencies (µs; all of them, and
    /// those of scatter-gathered queries) and tuning-pass times (ms).
    /// The slices are sorted in place. `None` without a single query.
    pub fn close(
        class: usize,
        wall_s: f64,
        manage_s: f64,
        device_s: f64,
        latencies_us: &mut [f64],
        scatter_us: &mut [f64],
        passes_ms: &mut [f64],
    ) -> Option<Window> {
        let p50_us = median(latencies_us)?;
        let p95_us = (supported_tail(latencies_us.len()) >= Some(0.95))
            .then(|| quantile_sorted(latencies_us, 0.95))
            .flatten();
        Some(Window {
            class,
            wall_s,
            manage_s,
            device_s,
            queries: latencies_us.len(),
            p50_us,
            p95_us,
            scatter_p50_us: median(scatter_us),
            pass_p50_ms: median(passes_ms),
        })
    }

    /// Queries completed per second of window wall time.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.wall_s
    }

    /// Share of the window's wall time spent on management.
    pub fn manage_share(&self) -> f64 {
        self.manage_s / self.wall_s
    }

    /// Share of the window's whole wall time, device included, spent
    /// inside the durable store's backend.
    pub fn device_share(&self) -> f64 {
        self.device_s / (self.wall_s + self.device_s)
    }
}

/// Which window's statistic stands for its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The best window of a statistic where lower is better.
    Lowest,
    /// The best window of a statistic where higher is better.
    Highest,
    /// The median window: for a share, whose noise is not one-sided.
    Median,
}

/// A per-window statistic picked over `windows`: within each of the
/// `classes` classes the window `pick` says, then the mean over classes.
/// Windows for which the statistic is undefined are skipped; `None`
/// when a class is left without one. Returns the value and how many
/// windows had the statistic.
///
/// Why the *best* window for timings and throughput, not the median
/// one: on a shared box other tenants only ever slow a window down, by
/// up to a third and for seconds at a time, so the median window
/// measures the neighbours. A window in which they were quiet comes by
/// every ~12 s; it measures the program. Each window holds enough
/// samples (≥ 200) that the best one is not a lucky draw, and windows
/// of one class hold the same work. What the best window cannot see is
/// a rare stall of the program itself; `manage_share` (a window median)
/// and the traced run's self times can.
pub fn over_windows(
    windows: &[Window],
    classes: usize,
    pick: Pick,
    stat: impl Fn(&Window) -> Option<f64>,
) -> Measured {
    let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for window in windows {
        if let Some(value) = stat(window) {
            by_class.entry(window.class).or_default().push(value);
        }
    }
    if by_class.len() != classes || by_class.keys().any(|&class| class >= classes) {
        return None;
    }
    let samples = by_class.values().map(Vec::len).sum();
    let picked = by_class.values_mut().map(|values| {
        values.sort_by(f64::total_cmp);
        match pick {
            Pick::Lowest => values[0],
            Pick::Highest => values[values.len() - 1],
            Pick::Median => median(values).unwrap_or(f64::NAN),
        }
    });
    Some((picked.sum::<f64>() / classes as f64, samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantile_uses_the_ceil_rank_rule() {
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile_sorted(&sorted, 0.95), Some(190.0));
        assert_eq!(quantile_sorted(&sorted, 0.5), Some(100.0));
        assert_eq!(quantile_sorted(&sorted, 1.0), Some(200.0));
        assert_eq!(quantile_sorted(&sorted, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn tail_rule_wants_ten_samples_beyond_the_percentile() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn window_reports_p95_only_with_enough_samples() {
        let mut few: Vec<f64> = (1..=199).map(f64::from).collect();
        let w = Window::close(0, 1.0, 0.0, 0.0, &mut few, &mut [], &mut []).unwrap();
        assert_eq!(w.p95_us, None);
        assert_eq!(w.p50_us, 100.0);
        assert_eq!((w.scatter_p50_us, w.pass_p50_ms), (None, None));
        let mut enough: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let w = Window::close(2, 2.0, 0.5, 0.5, &mut enough, &mut [9.0, 7.0], &mut [3.0]).unwrap();
        assert_eq!((w.class, w.queries, w.p95_us), (2, 200, Some(190.0)));
        assert_eq!((w.scatter_p50_us, w.pass_p50_ms), (Some(8.0), Some(3.0)));
        assert_eq!((w.qps(), w.manage_share()), (100.0, 0.25));
        assert_eq!(w.device_share(), 0.2);
        assert!(Window::close(0, 1.0, 0.0, 0.0, &mut [], &mut [], &mut []).is_none());
    }

    fn window(class: usize, wall_s: f64, manage_s: f64) -> Window {
        Window {
            class,
            wall_s,
            manage_s,
            device_s: 0.0,
            queries: 1_000,
            p50_us: 100.0,
            p95_us: None,
            scatter_p50_us: None,
            pass_p50_ms: None,
        }
    }

    #[test]
    fn window_median_ignores_a_stalled_window() {
        let mut windows: Vec<Window> = (0..19)
            .map(|i| window(0, 1.0, 0.100 + 0.001 * f64::from(i)))
            .collect();
        // One window hit by a stall in management: 50× the share. The
        // mean would move by 3.5×; the window median moves by half a step.
        windows.push(window(0, 1.0, 5.0));
        let (m, n) = over_windows(&windows, 1, Pick::Median, |w| Some(w.manage_share())).unwrap();
        assert_eq!(n, 20);
        assert!((m - 0.1095).abs() < 1e-12, "{m}");
        // Windows lacking the statistic are skipped, not counted as 0.
        assert_eq!(over_windows(&windows, 1, Pick::Median, |w| w.p95_us), None);
        assert_eq!(over_windows(&[], 1, Pick::Median, |w| Some(w.wall_s)), None);
    }

    #[test]
    fn best_window_is_the_one_the_neighbours_left_alone() {
        // Neighbours slow most windows by 10-40 %; two were left alone.
        let walls = [1.32, 1.25, 1.0, 1.4, 1.18, 1.01, 1.37, 1.29];
        let windows: Vec<Window> = walls.iter().map(|&w| window(0, w, 0.0)).collect();
        let (wall, n) = over_windows(&windows, 1, Pick::Lowest, |w| Some(w.wall_s)).unwrap();
        assert_eq!((wall, n), (1.0, 8));
        let (qps, _) = over_windows(&windows, 1, Pick::Highest, |w| Some(w.qps())).unwrap();
        assert_eq!(qps, 1_000.0);
        assert_eq!(
            over_windows(&windows, 1, Pick::Lowest, |w| w.pass_p50_ms),
            None
        );
    }

    #[test]
    fn classes_are_picked_apart_and_then_averaged() {
        // A rotating stream: cheap, middling and dear cycles. The best
        // window overall would report the cheap template alone.
        let windows = [
            window(0, 0.11, 0.0),
            window(1, 0.52, 0.0),
            window(2, 1.30, 0.0),
            window(0, 0.10, 0.0),
            window(1, 0.50, 0.0),
            window(2, 1.20, 0.0),
        ];
        let (wall, n) = over_windows(&windows, 3, Pick::Lowest, |w| Some(w.wall_s)).unwrap();
        assert!((wall - (0.10 + 0.50 + 1.20) / 3.0).abs() < 1e-12);
        assert_eq!(n, 6);
        // A class without a single window makes the value meaningless.
        assert_eq!(
            over_windows(&windows[..2], 3, Pick::Lowest, |w| Some(w.wall_s)),
            None
        );
        assert_eq!(
            over_windows(&windows, 2, Pick::Lowest, |w| Some(w.wall_s)),
            None
        );
    }
}
