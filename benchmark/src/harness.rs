//! The run protocol: one closed-loop client, time-boxed phases, windows.
//!
//! `warm` (discarded) → `cold` (baseline configuration, organizer
//! paused) → `converge` (organizer live, until two consecutive tuning
//! passes apply nothing) → `tuned` (organizer live, measured). The
//! single client sends its next query only when the previous one has
//! been answered and verified. A query's latency is `run_query` plus
//! the KPI record; everything done at a bucket boundary — closing the
//! KPI bucket, the tuning check or pass, the WAL record and snapshot,
//! the budget re-split — is *management* time, charged to throughput
//! and to `manage_share`, never to a query's latency. The clock stops
//! while a call into the durable store's backend (write, fsync, rename)
//! is in flight: that time is the sandbox's shared disk, not the
//! program, and it is reported on its own as `durable.device_share`.
//!
//! An untraced run boxes its phases by time and reports the end-to-end
//! metrics. A traced run boxes them by bucket count, so with one client
//! every count repeats exactly, and reports the per-layer metrics.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smdb_common::{Error, Result};
use smdb_query::{result_hash, Query, SessionStats};
use smdb_storage::ScanOutput;

use crate::fixture::{Engine, Fixture};
use crate::layers::Probe;
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, over_windows, Measured, Pick, Window};
use crate::workloads::WorkloadKind;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Samples a window must hold before it may close: p95 with ten beyond.
const MIN_WINDOW_SAMPLES: usize = 200;
/// Wall time a window must span before it may close.
const MIN_WINDOW: Duration = Duration::from_millis(50);
/// Windows of each class a measured phase holds before it may end, and
/// how far past its time box it runs to get them: a host stall (or a
/// leap of the VM's clock) can eat a whole box, and a run without a
/// metric fails.
const MIN_CLASS_WINDOWS: usize = 3;
const MAX_OVERRUN: u32 = 3;
/// `converge` gives up after this many buckets.
const CONVERGE_MAX_BUCKETS: usize = 60;
/// Consecutive tuning passes applying nothing that end `converge`.
const QUIET_PASSES: usize = 2;

/// Shares of `--seconds` an untraced run gives each phase. `cold` and
/// `tuned` each need ≥ 11 s: the best-window estimators rely on a
/// moment without noisy neighbours, and on the reference box one comes
/// by every ~12 s.
const WARM_SHARE: f64 = 0.03;
const COLD_SHARE: f64 = 0.37;
const CONVERGE_SHARE: f64 = 0.10;
const TUNED_SHARE: f64 = 0.50;

pub struct Options {
    pub kind: WorkloadKind,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `benchmark/out`: trace files and per-pid scratch stores.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this much wall time (an unfinished window is dropped).
    Time(Duration),
    /// The same, but not before every class has [`MIN_CLASS_WINDOWS`]
    /// windows, up to [`MAX_OVERRUN`] times the wall time.
    Measured(Duration),
    /// After exactly this many buckets.
    Buckets(usize),
    /// When tuning has gone quiet, or at a cap.
    Converged { max_time: Option<Duration> },
}

/// The four phases of one protocol run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warm: Limit,
    pub cold: Limit,
    pub converge: Limit,
    pub tuned: Limit,
}

impl Plan {
    /// Time-boxed: the untraced run.
    pub fn timed(seconds: f64) -> Plan {
        let share = |s: f64| Duration::from_secs_f64(seconds * s);
        Plan {
            warm: Limit::Time(share(WARM_SHARE)),
            cold: Limit::Measured(share(COLD_SHARE)),
            converge: Limit::Converged {
                max_time: Some(share(CONVERGE_SHARE)),
            },
            tuned: Limit::Measured(share(TUNED_SHARE)),
        }
    }

    /// Count-boxed: the traced run.
    pub fn counted(kind: WorkloadKind, seconds: f64) -> Plan {
        let sizes = kind.sizes();
        let buckets = |per_s: f64| ((per_s * seconds).ceil() as usize).max(1);
        let cold = buckets(sizes.traced_cold_per_s);
        Plan {
            warm: Limit::Buckets(cold.div_ceil(4)),
            cold: Limit::Buckets(cold),
            converge: Limit::Converged { max_time: None },
            tuned: Limit::Buckets(buckets(sizes.traced_tuned_per_s)),
        }
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub windows: Vec<Window>,
    pub buckets: usize,
    /// Wall time of the whole phase, seconds.
    pub wall_s: f64,
}

/// All four phases.
pub struct Phases {
    pub warm: Phase,
    pub cold: Phase,
    pub converge: Phase,
    pub tuned: Phase,
}

impl Phases {
    pub fn wall_s(&self) -> f64 {
        self.warm.wall_s + self.cold.wall_s + self.converge.wall_s + self.tuned.wall_s
    }
}

/// Access-path and row counters summed over every served answer.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScanCounters {
    pub rows_scanned: u64,
    pub rows_matched: u64,
    pub chunks_pruned: u64,
    pub chunks_index: u64,
    pub chunks_kernel: u64,
    pub chunks_scalar: u64,
    pub kernel_batches: u64,
    pub morsels: u64,
}

impl ScanCounters {
    fn add(&mut self, o: &ScanOutput) {
        self.rows_scanned += o.rows_scanned;
        self.rows_matched += o.rows_matched;
        self.chunks_pruned += o.chunks_pruned;
        self.chunks_index += o.index_probes;
        self.chunks_kernel += o.chunks_kernel;
        self.chunks_scalar += o.chunks_scalar;
        self.kernel_batches += o.kernel_batches;
        self.morsels += o.morsels;
    }
}

/// The single client and everything it has seen so far.
pub struct Harness {
    pub fixture: Fixture,
    /// Buckets fully served; also numbers the boundary records.
    pub bucket: usize,
    /// Next query within the current bucket.
    pos: usize,
    pub stats: SessionStats,
    pub scans: ScanCounters,
    /// Tuning passes that fired / checks that did not / bucket closes,
    /// while the organizer was live.
    pub fired: Vec<Duration>,
    pub idle: Vec<Duration>,
    pub close: Vec<Duration>,
    pub candidates: usize,
    /// Extra per-layer measurements of a traced run.
    pub probe: Option<Probe>,
}

impl Harness {
    pub fn new(fixture: Fixture) -> Harness {
        let probe = fixture.tracer.on().then(|| Probe::new(&fixture));
        Harness {
            fixture,
            bucket: 0,
            pos: 0,
            stats: SessionStats::default(),
            scans: ScanCounters::default(),
            fired: Vec::new(),
            idle: Vec::new(),
            close: Vec::new(),
            candidates: 0,
            probe,
        }
    }

    /// Moves the client to the start of stream bucket `bucket`
    /// (epilogues only: an unfinished bucket is abandoned).
    pub fn seek(&mut self, bucket: usize) {
        self.bucket = bucket;
        self.pos = 0;
    }

    pub fn attempted(&self) -> u64 {
        self.stats.queries + self.stats.errors
    }

    /// Engine errors plus answers the oracle rejects.
    pub fn failed(&self) -> u64 {
        self.stats.errors + self.stats.wrong_results
    }

    /// Runs the four phases. A durable fixture writes its run-start
    /// snapshot first, so recovery has a base whatever happens next.
    pub fn run_protocol(&mut self, plan: &Plan) -> Result<Phases> {
        if let Engine::Single(s) = &self.fixture.engine {
            s.driver.persist_snapshot(0, &self.stats)?;
        }
        let warm = self.run_phase("phase.warm", plan.warm, false)?;
        let cold = self.run_phase("phase.cold", plan.cold, false)?;
        let converge = self.run_phase("phase.converge", plan.converge, true)?;
        if let Some(probe) = &mut self.probe {
            probe.in_tuned = true;
        }
        let tuned = self.run_phase("phase.tuned", plan.tuned, true)?;
        if let Some(probe) = &mut self.probe {
            probe.in_tuned = false;
        }
        Ok(Phases {
            warm,
            cold,
            converge,
            tuned,
        })
    }

    /// Serves queries until `limit` is reached, with tuning `live` or
    /// paused. On a stationary stream a window closes at the first cycle
    /// boundary at which it is long enough; on a rotating one
    /// (`cycle_classes > 1`) at every cycle boundary, so that no window
    /// mixes two templates. Its clock stops while it is summarised.
    pub fn run_phase(&mut self, name: &'static str, limit: Limit, live: bool) -> Result<Phase> {
        self.fixture.set_tuning(live);
        let tracer = Arc::clone(&self.fixture.tracer);
        let stream = Arc::clone(&self.fixture.stream);
        let sizes = self.fixture.kind.sizes();
        let (cycle_buckets, classes) = (sizes.cycle_buckets, sizes.cycle_classes);
        let _span = tracer.span(name);
        let mut phase = Phase::default();
        let mut latencies: Vec<f64> = Vec::new();
        let mut scatter: Vec<f64> = Vec::new();
        let mut passes_ms: Vec<f64> = Vec::new();
        let mut manage = Duration::ZERO;
        let mut device = Duration::ZERO;
        let mut quiet = 0usize;
        let phase_start = Instant::now();
        let mut window_start = phase_start;
        let mut aligned = self.pos == 0 && self.bucket.is_multiple_of(cycle_buckets);
        loop {
            let bucket = &stream[self.bucket % stream.len()];
            let (latency, scattered, mut now) = self.serve_one(&bucket[self.pos]);
            let us = latency.as_secs_f64() * 1e6;
            latencies.push(us);
            if scattered {
                scatter.push(us);
            }
            self.pos += 1;
            let mut done = false;
            if self.pos == bucket.len() {
                self.pos = 0;
                self.bucket += 1;
                phase.buckets += 1;
                let before = Instant::now();
                let device_before = self.fixture.device_time();
                let boundary = self.fixture.boundary(self.bucket as u64, &self.stats)?;
                now = Instant::now();
                let in_device = self.fixture.device_time() - device_before;
                manage += (now - before).saturating_sub(in_device);
                device += in_device;
                passes_ms.extend(boundary.fired.iter().map(|d| d.as_secs_f64() * 1e3));
                if live {
                    if !boundary.fired.is_empty() {
                        quiet = if boundary.actions_applied == 0 {
                            quiet + 1
                        } else {
                            0
                        };
                    }
                    self.candidates += boundary.candidates;
                    self.fired.extend(boundary.fired);
                    self.idle.extend(boundary.idle);
                    self.close.extend(boundary.close);
                }
                if let Some(probe) = &mut self.probe {
                    probe.boundary(&self.fixture, self.bucket as u64, &self.stats)?;
                    now = Instant::now();
                }
                let long_enough = classes > 1
                    || (now - window_start >= MIN_WINDOW && latencies.len() >= MIN_WINDOW_SAMPLES);
                if self.bucket.is_multiple_of(cycle_buckets) && (long_enough || !aligned) {
                    // What a phase serves before its first cycle
                    // boundary is part of a cycle: not a window.
                    if aligned {
                        phase.windows.extend(Window::close(
                            (self.bucket / cycle_buckets - 1) % classes,
                            (now - window_start).saturating_sub(device).as_secs_f64(),
                            manage.as_secs_f64(),
                            device.as_secs_f64(),
                            &mut latencies,
                            &mut scatter,
                            &mut passes_ms,
                        ));
                    }
                    aligned = true;
                    latencies.clear();
                    scatter.clear();
                    passes_ms.clear();
                    manage = Duration::ZERO;
                    device = Duration::ZERO;
                    window_start = Instant::now();
                    now = window_start;
                }
                done = match limit {
                    Limit::Buckets(n) => phase.buckets == n,
                    Limit::Converged { .. } => {
                        quiet >= QUIET_PASSES || phase.buckets == CONVERGE_MAX_BUCKETS
                    }
                    Limit::Time(_) | Limit::Measured(_) => false,
                };
            }
            done |= match limit {
                Limit::Time(cap)
                | Limit::Converged {
                    max_time: Some(cap),
                } => now - phase_start >= cap,
                Limit::Measured(cap) => {
                    let elapsed = now - phase_start;
                    elapsed >= cap
                        && (elapsed >= cap * MAX_OVERRUN
                            || (0..classes).all(|class| {
                                let held = phase.windows.iter().filter(|w| w.class == class);
                                held.count() >= MIN_CLASS_WINDOWS
                            }))
                }
                _ => false,
            };
            if done {
                phase.wall_s = phase_start.elapsed().as_secs_f64();
                return Ok(phase);
            }
        }
    }

    /// Serves and verifies one query. Returns its latency, whether it
    /// scattered, and the instant it completed.
    fn serve_one(&mut self, query: &Query) -> (Duration, bool, Instant) {
        let tracer = Arc::clone(&self.fixture.tracer);
        let _request = tracer.request();
        if let Some(probe) = &mut self.probe {
            probe.before_query(&self.fixture, query);
        }
        let start = Instant::now();
        let served = self.fixture.serve(query);
        let end = Instant::now();
        let latency = end - start;
        match served {
            Ok((output, scattered)) => {
                self.stats.queries += 1;
                self.stats.busy += output.sim_cost;
                self.stats.morsels += output.morsels;
                self.stats.result_digest = self
                    .stats
                    .result_digest
                    .wrapping_add(result_hash(query, &output));
                self.scans.add(&output);
                // An answer the oracle never captured is as wrong as
                // one it rejects: every stream query was captured.
                let accepted = self
                    .fixture
                    .oracle
                    .get(&query.instance_fingerprint())
                    .is_some_and(|expected| expected.accepts(&output));
                if !accepted {
                    self.stats.wrong_results += 1;
                }
                if let Some(probe) = &mut self.probe {
                    probe.after_query(&self.fixture, query, &output, latency);
                }
                (latency, scattered, end)
            }
            Err(_) => {
                self.stats.errors += 1;
                (latency, false, end)
            }
        }
    }
}

/// Per-pid scratch directory under `out/`; removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn create(out_dir: &Path) -> Result<Scratch> {
        let dir = out_dir.join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::invalid(format!("creating {}: {e}", dir.display())))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Error::invalid(format!("reading /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| Error::invalid("no VmHWM in /proc/self/status"))
}

/// Pushes the end-to-end timings of a finished protocol run.
fn push_timings(report: &mut Report, classes: usize, phases: &Phases) -> Result<()> {
    let (cold, tuned) = (&phases.cold.windows, &phases.tuned.windows);
    let timings: [(&'static str, &'static str, Measured); 6] = [
        (
            "qps",
            "1/s",
            over_windows(tuned, classes, Pick::Highest, |w| Some(w.qps())),
        ),
        (
            "cold_p50_us",
            "us",
            over_windows(cold, classes, Pick::Lowest, |w| Some(w.p50_us)),
        ),
        (
            "tuned_p50_us",
            "us",
            over_windows(tuned, classes, Pick::Lowest, |w| Some(w.p50_us)),
        ),
        (
            "tuned_p95_us",
            "us",
            over_windows(tuned, classes, Pick::Lowest, |w| w.p95_us),
        ),
        (
            "retune_p50_ms",
            "ms",
            over_windows(tuned, classes, Pick::Lowest, |w| w.pass_p50_ms),
        ),
        (
            "manage_share",
            "ratio",
            over_windows(tuned, classes, Pick::Median, |w| Some(w.manage_share())),
        ),
    ];
    for (name, unit, measured) in timings {
        let (value, n) =
            measured.ok_or_else(|| Error::invalid(format!("no window measured {name}")))?;
        report.push(name, value, unit, n);
    }
    Ok(())
}

/// The untraced run: three set-ups, the time-boxed protocol, the
/// end-to-end metrics.
pub fn run_untraced(opts: &Options) -> Result<Outcome> {
    let scratch = Scratch::create(&opts.out_dir)?;
    let tracer = Arc::new(Tracer::new(false));
    let mut setups = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for _ in 0..SETUPS {
        // One fixture alive at a time, so peak RSS is that of one.
        drop(fixture.take());
        let started = Instant::now();
        fixture = Some(Fixture::set_up(
            opts.kind,
            opts.seed,
            &scratch.0,
            Arc::clone(&tracer),
        )?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let fixture = fixture.ok_or_else(|| Error::invalid("no set-up ran"))?;
    let mut h = Harness::new(fixture);
    let phases = h.run_protocol(&Plan::timed(opts.seconds))?;

    let mut report = Report::default();
    report.push(
        "setup_s",
        median(&mut setups).ok_or_else(|| Error::invalid("no set-up ran"))?,
        "s",
        SETUPS,
    );
    let classes = opts.kind.sizes().cycle_classes;
    push_timings(&mut report, classes, &phases)?;
    report.push(
        "space_amp",
        crate::layers::memory_bytes(&h.fixture).0 as f64 / opts.kind.raw_bytes() as f64,
        "ratio",
        1,
    );
    report.push(
        "fail_share",
        h.failed() as f64 / h.attempted().max(1) as f64,
        "ratio",
        h.attempted() as usize,
    );
    if let Some((p50, n)) = scatter_p50_us(&phases.tuned, classes) {
        report.push("scatter_p50_us", p50, "us", n);
    }
    if opts.kind == WorkloadKind::ShiftDurable {
        if let Some((share, n)) = device_share(&phases.tuned, classes) {
            report.push("durable.device_share", share, "ratio", n);
        }
        let durable = crate::layers::durable_epilogue(&mut h, &scratch.0)?;
        report.push(
            "recover_ms",
            durable.recover_ms,
            "ms",
            crate::layers::RECOVERIES,
        );
        report.push("write_amp", durable.stats.write_amplification, "ratio", 1);
    }
    report.push("rss_mb", peak_rss_mib()?, "MiB", 1);
    Ok(Outcome {
        report,
        attempted: h.attempted(),
        failed: h.failed(),
        digest: h.stats.result_digest,
    })
}

/// Best window median latency of scatter-gathered queries, µs.
pub fn scatter_p50_us(phase: &Phase, classes: usize) -> Measured {
    over_windows(&phase.windows, classes, Pick::Lowest, |w| w.scatter_p50_us)
}

/// Median window's share of wall time spent inside the durable store's
/// backend — the time the harness clock leaves out.
pub fn device_share(phase: &Phase, classes: usize) -> Measured {
    over_windows(&phase.windows, classes, Pick::Median, |w| {
        Some(w.device_share())
    })
}
