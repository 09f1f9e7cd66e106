//! Streaming metrics: per-frame latency records, percentile summaries,
//! deadline-miss rates and per-accelerator utilization over time.

use crate::exec::AccSummary;
use crate::sim::core::{EventCore, FrameResult, Timeline};
use crate::sim::profile::HotPathProfile;
use herald_cost::EnergyBreakdown;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One completed frame of a stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Index of the stream in [`StreamReport::stream_names`].
    pub stream: usize,
    /// Frame sequence number within its stream (0-based).
    pub seq: usize,
    /// Name of the workload this frame instantiated (changes across
    /// workload swaps). Interned: every frame of a stream's workload
    /// version shares one allocation with the engine's stream state.
    pub workload: Arc<str>,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Completion time of the frame's last layer, seconds.
    pub finish_s: f64,
    /// End-to-end frame latency (`finish_s - arrival_s`), seconds.
    pub latency_s: f64,
    /// The stream's per-frame deadline, if any.
    pub deadline_s: Option<f64>,
    /// Whether the frame finished after its deadline.
    pub missed: bool,
    /// Energy of the frame's layers, joules.
    pub energy_j: f64,
}

/// A workload swap that occurred during the simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwapRecord {
    /// Index of the stream in [`StreamReport::stream_names`].
    pub stream: usize,
    /// Virtual time of the swap, seconds.
    pub at_s: f64,
    /// Workload name before the swap (interned, see
    /// [`FrameRecord::workload`]).
    pub from: Arc<str>,
    /// Workload name after the swap (interned).
    pub to: Arc<str>,
}

/// One busy interval of one sub-accelerator (the raw material of the
/// utilization-over-time view).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BusySpan {
    /// Sub-accelerator index.
    pub acc: usize,
    /// Start of the busy interval, seconds.
    pub start_s: f64,
    /// End of the busy interval, seconds.
    pub finish_s: f64,
}

/// The busy spans of a [`StreamReport`] (see
/// [`StreamReport::busy_spans`]): one `(start_s, finish_s)` list per
/// sub-accelerator, each strictly increasing, read as [`BusySpan`]s.
/// Two views are equal when their per-sub-accelerator lists are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusySpans<'a> {
    ways: &'a [Vec<(f64, f64)>],
}

impl<'a> BusySpans<'a> {
    /// Spans across all sub-accelerators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ways.iter().map(Vec::len).sum()
    }

    /// Whether no sub-accelerator has a span.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ways.iter().all(Vec::is_empty)
    }

    /// Every span in (start by [`f64::total_cmp`], sub-accelerator)
    /// order, merged from the per-sub-accelerator lists.
    pub fn iter(&self) -> impl Iterator<Item = BusySpan> + 'a {
        let ways = self.ways;
        let mut next = vec![0usize; ways.len()];
        std::iter::from_fn(move || {
            // `min_by` keeps the first of equal starts: the lower way.
            let (acc, &(start_s, finish_s)) = ways
                .iter()
                .zip(&next)
                .enumerate()
                .filter_map(|(acc, (list, &i))| Some((acc, list.get(i)?)))
                .min_by(|(_, x), (_, y)| x.0.total_cmp(&y.0))?;
            next[acc] += 1;
            Some(BusySpan {
                acc,
                start_s,
                finish_s,
            })
        })
    }
}

/// How a [`StreamReport`] aggregates its per-frame observations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReportMode {
    /// Keep every [`FrameRecord`] and busy span — exact percentiles and
    /// audit-grade timelines at O(frames) memory (the historical
    /// behavior, and the default).
    #[default]
    Exact,
    /// Stream completions through a mergeable [`QuantileSketch`] plus
    /// per-stream scalar aggregates ([`StreamAgg`]) and fixed
    /// arrival/utilization windows, keeping only every
    /// `sample_every`-th frame as an exemplar — O(buckets + streams)
    /// memory regardless of frame count. Report-level percentiles come
    /// from the sketch (within `relative_error`); per-stream
    /// percentiles degrade to documented envelopes (p50 = mean,
    /// p95/p99 = max).
    Sketch {
        /// Guaranteed relative-error bound on sketch quantiles (see
        /// [`QuantileSketch::new`]).
        relative_error: f64,
        /// Keep one exemplar [`FrameRecord`] per this many completed
        /// frames (0 keeps none).
        sample_every: usize,
    },
}

impl ReportMode {
    /// Default relative-error bound of [`ReportMode::sketch`].
    pub const DEFAULT_RELATIVE_ERROR: f64 = 0.01;

    /// The default sketch configuration: 1% relative error, one
    /// exemplar frame per 65 536 completions.
    #[must_use]
    pub fn sketch() -> Self {
        ReportMode::Sketch {
            relative_error: Self::DEFAULT_RELATIVE_ERROR,
            sample_every: 65_536,
        }
    }

    /// Whether this mode keeps the full per-frame record set.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self, ReportMode::Exact)
    }
}

/// A deterministic, mergeable quantile sketch: a log-bucketed
/// (HDR-style) histogram over the positive reals, keyed directly by the
/// exponent and top mantissa bits of each sample's `f64` representation.
/// Buckets within one power of two are `2^-bits` wide in relative terms,
/// so any quantile's representative value (the bucket midpoint) is
/// within `2^-(bits+1)` relative error of the exact nearest-rank sample.
///
/// Merging two sketches is exact: bucket counts add, so
/// `merge(sketch(a), sketch(b))` is bit-identical to `sketch(a ++ b)` —
/// the property that lets per-chip sketches combine into fleet-level
/// percentiles without approximation loss.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    /// Sub-bucket mantissa bits per power of two.
    bits: u32,
    /// Sorted `(key, count)` pairs; only touched buckets are stored.
    buckets: Vec<(u32, u64)>,
    /// Total samples inserted (including non-positive ones).
    count: u64,
    /// Samples at or below zero (kept out of the log buckets).
    zeros: u64,
    /// Smallest sample seen (`+inf` when empty).
    min: f64,
    /// Largest sample seen (`-inf` when empty).
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(ReportMode::DEFAULT_RELATIVE_ERROR)
    }
}

impl QuantileSketch {
    /// Creates an empty sketch whose quantiles are within
    /// `relative_error` of exact (capped at 20 mantissa bits).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < relative_error < 1`.
    #[must_use]
    pub fn new(relative_error: f64) -> Self {
        assert!(
            relative_error > 0.0 && relative_error < 1.0,
            "sketch relative error must be in (0, 1), got {relative_error}"
        );
        let mut bits = 0u32;
        // Smallest `bits` with 2^-(bits+1) <= relative_error: the
        // midpoint of a 2^-bits-wide sub-bucket is within 2^-(bits+1)
        // of every member.
        while bits < 20 && 0.5f64.powi(bits as i32 + 1) > relative_error {
            bits += 1;
        }
        Self {
            bits,
            buckets: Vec::new(),
            count: 0,
            zeros: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn key(&self, x: f64) -> u32 {
        // Positive finite floats order like their bit patterns; dropping
        // the low mantissa bits yields a monotone log-bucketed key.
        (x.to_bits() >> (52 - self.bits)) as u32
    }

    /// Inserts one sample.
    pub fn insert(&mut self, x: f64) {
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if !(x > 0.0 && x.is_finite()) {
            self.zeros += 1;
            return;
        }
        let key = self.key(x);
        match self.buckets.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (key, 1)),
        }
    }

    /// Merges another sketch into this one (exact; see the type docs).
    ///
    /// # Panics
    ///
    /// Panics when the resolutions differ.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.bits, other.bits,
            "sketches must share a resolution to merge"
        );
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(ka, ca)), Some(&(kb, cb))) if ka == kb => {
                    merged.push((ka, ca + cb));
                    i += 1;
                    j += 1;
                }
                (Some(&(ka, ca)), Some(&(kb, _))) if ka < kb => {
                    merged.push((ka, ca));
                    i += 1;
                }
                (Some(_), Some(&(kb, cb))) => {
                    merged.push((kb, cb));
                    j += 1;
                }
                (Some(&(ka, ca)), None) => {
                    merged.push((ka, ca));
                    i += 1;
                }
                (None, Some(&(kb, cb))) => {
                    merged.push((kb, cb));
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.zeros += other.zeros;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank quantile (`q` clamped to `[0, 1]`; 0 when empty).
    /// The result is a bucket midpoint clamped into `[min, max]`, so it
    /// is within the configured relative error of the exact quantile.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zeros {
            return 0.0;
        }
        let mut cum = self.zeros;
        for &(key, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                let lower = f64::from_bits(u64::from(key) << (52 - self.bits));
                let upper = f64::from_bits((u64::from(key) + 1) << (52 - self.bits));
                return ((lower + upper) * 0.5).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Total samples inserted.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the sketch has seen no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest sample seen (0 when empty).
    #[must_use]
    pub fn max_value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The guaranteed relative-error bound of [`QuantileSketch::quantile`].
    #[must_use]
    pub fn relative_error_bound(&self) -> f64 {
        0.5f64.powi(self.bits as i32 + 1)
    }

    /// Touched buckets (the O(buckets) memory term).
    #[must_use]
    pub fn buckets_len(&self) -> usize {
        self.buckets.len()
    }

    /// Heap + inline bytes this sketch occupies.
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.buckets.capacity() * std::mem::size_of::<(u32, u64)>())
            as u64
    }
}

/// O(1)-memory per-stream aggregate kept in sketch mode in place of the
/// per-frame records.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamAgg {
    /// Frames completed.
    pub frames: u64,
    /// Completed frames that carried a deadline.
    pub deadline_frames: u64,
    /// Deadline-carrying frames that missed.
    pub missed: u64,
    /// Sum of frame latencies, seconds.
    pub latency_sum_s: f64,
    /// Smallest frame latency, seconds (0 when no frames completed).
    pub latency_min_s: f64,
    /// Largest frame latency, seconds.
    pub latency_max_s: f64,
}

impl StreamAgg {
    /// Folds one completed frame into the aggregate.
    pub fn record(&mut self, latency_s: f64, deadline: bool, missed: bool) {
        if self.frames == 0 {
            self.latency_min_s = latency_s;
            self.latency_max_s = latency_s;
        } else {
            self.latency_min_s = self.latency_min_s.min(latency_s);
            self.latency_max_s = self.latency_max_s.max(latency_s);
        }
        self.frames += 1;
        self.latency_sum_s += latency_s;
        if deadline {
            self.deadline_frames += 1;
            if missed {
                self.missed += 1;
            }
        }
    }

    /// Merges another stream aggregate (same stream, different chip).
    pub fn merge(&mut self, other: &StreamAgg) {
        if other.frames == 0 {
            return;
        }
        if self.frames == 0 {
            *self = *other;
            return;
        }
        self.frames += other.frames;
        self.deadline_frames += other.deadline_frames;
        self.missed += other.missed;
        self.latency_sum_s += other.latency_sum_s;
        self.latency_min_s = self.latency_min_s.min(other.latency_min_s);
        self.latency_max_s = self.latency_max_s.max(other.latency_max_s);
    }
}

/// One fixed arrival-time window of aggregate counts (sketch mode's
/// replacement for filtering per-frame records by arrival time).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ArrivalWindow {
    /// Frames completed whose arrival fell in the window.
    pub frames: u64,
    /// Of those, frames that carried a deadline.
    pub deadline_frames: u64,
    /// Of those, frames that missed it.
    pub missed: u64,
    /// Sum of their latencies, seconds.
    pub latency_sum_s: f64,
}

/// Proportional-overlap sums of `[t0, t1)` against fixed windows of
/// `window_s` seconds starting at 0 (window k spans
/// `[k*window_s, (k+1)*window_s)`).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WindowSums {
    pub(crate) frames: f64,
    pub(crate) deadline_frames: f64,
    pub(crate) missed: f64,
    pub(crate) latency_sum_s: f64,
}

pub(crate) fn window_sums(
    windows: &[ArrivalWindow],
    window_s: f64,
    t0: f64,
    t1: f64,
) -> WindowSums {
    let mut s = WindowSums::default();
    // NaN-safe: any non-finite or degenerate window yields empty sums.
    let valid = window_s > 0.0 && t1 > t0;
    if !valid {
        return s;
    }
    let first = ((t0 / window_s) as usize).min(windows.len());
    for (k, w) in windows.iter().enumerate().skip(first) {
        let lo = k as f64 * window_s;
        if lo >= t1 {
            break;
        }
        let hi = lo + window_s;
        let overlap = (t1.min(hi) - t0.max(lo)).max(0.0);
        if overlap <= 0.0 {
            continue;
        }
        let frac = overlap / window_s;
        s.frames += frac * w.frames as f64;
        s.deadline_frames += frac * w.deadline_frames as f64;
        s.missed += frac * w.missed as f64;
        s.latency_sum_s += frac * w.latency_sum_s;
    }
    s
}

/// Aggregated statistics of one stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    /// Stream name.
    pub name: String,
    /// Frames completed.
    pub frames: usize,
    /// Completed frames per second of makespan.
    pub throughput_fps: f64,
    /// Mean frame latency, seconds.
    pub mean_latency_s: f64,
    /// Median (p50) frame latency, seconds.
    pub p50_latency_s: f64,
    /// 95th-percentile frame latency, seconds.
    pub p95_latency_s: f64,
    /// 99th-percentile frame latency, seconds.
    pub p99_latency_s: f64,
    /// Fraction of deadline-carrying frames that missed (0 when the
    /// stream has no deadline).
    pub deadline_miss_rate: f64,
}

/// One sample of the utilization-over-time view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilizationSample {
    /// Window start, seconds.
    pub t_s: f64,
    /// Busy fraction of each sub-accelerator within the window.
    pub per_acc: Vec<f64>,
}

/// The outcome of an event-driven streaming simulation: completed
/// frames (all of them in [`ReportMode::Exact`], sampled exemplars in
/// [`ReportMode::Sketch`]), the swap history, and chip-level aggregates.
/// Derived metrics (percentiles, miss rates, utilization) come from the
/// recorded frames in exact mode and from the sketch/aggregate fields in
/// sketch mode, so the report is self-contained and serializable either
/// way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    scenario: String,
    stream_names: Arc<Vec<String>>,
    horizon_s: f64,
    makespan_s: f64,
    mode: ReportMode,
    completed: u64,
    frames: Vec<FrameRecord>,
    swaps: Vec<SwapRecord>,
    per_acc: Vec<AccSummary>,
    energy: EnergyBreakdown,
    peak_memory_bytes: u64,
    scheduler_invocations: usize,
    schedule_cache_hits: usize,
    placement_evaluations: u64,
    events_processed: usize,
    /// One `(start_s, finish_s)` list per sub-accelerator (exact mode).
    busy_spans: Vec<Vec<(f64, f64)>>,
    sketch: Option<QuantileSketch>,
    stream_aggs: Vec<StreamAgg>,
    window_s: f64,
    util_windows: Vec<f64>,
    miss_windows: Vec<ArrivalWindow>,
}

impl StreamReport {
    /// Name of the simulated scenario.
    #[must_use]
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Stream names, indexed by [`FrameRecord::stream`].
    #[must_use]
    pub fn stream_names(&self) -> &[String] {
        &self.stream_names
    }

    /// How this report aggregates frames ([`ReportMode::Exact`] unless
    /// the simulator was built `with_report_mode`).
    #[must_use]
    pub fn mode(&self) -> ReportMode {
        self.mode
    }

    /// Frames completed during the run. In exact mode this equals
    /// `frames().len()`; in sketch mode `frames()` holds only sampled
    /// exemplars and this is the true count.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// The latency sketch, when the report was built in sketch mode.
    #[must_use]
    pub fn sketch(&self) -> Option<&QuantileSketch> {
        self.sketch.as_ref()
    }

    /// Per-stream scalar aggregates (sketch mode only; empty in exact
    /// mode, where [`StreamReport::frames`] carries the full detail).
    #[must_use]
    pub fn stream_aggs(&self) -> &[StreamAgg] {
        &self.stream_aggs
    }

    pub(crate) fn window_params(&self) -> (f64, &[ArrivalWindow]) {
        (self.window_s, &self.miss_windows)
    }

    /// The scenario's arrival horizon, seconds.
    #[must_use]
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// Completion time of the last frame (at least the horizon), seconds.
    #[must_use]
    pub fn makespan_s(&self) -> f64 {
        self.makespan_s
    }

    /// Every completed frame, in arrival order.
    #[must_use]
    pub fn frames(&self) -> &[FrameRecord] {
        &self.frames
    }

    /// The workload swaps that occurred.
    #[must_use]
    pub fn swaps(&self) -> &[SwapRecord] {
        &self.swaps
    }

    /// Per-sub-accelerator summaries over the whole run.
    #[must_use]
    pub fn per_acc(&self) -> &[AccSummary] {
        &self.per_acc
    }

    /// Energy breakdown over the whole run.
    #[must_use]
    pub fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }

    /// Total energy over the whole run, joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// Peak simultaneous global-buffer occupancy, bytes.
    #[must_use]
    pub fn peak_memory_bytes(&self) -> u64 {
        self.peak_memory_bytes
    }

    /// Raw per-sub-accelerator busy intervals across all frames (the
    /// material behind [`StreamReport::utilization_timeline`]). The event
    /// core appends each layer's `(start, finish)` to its
    /// sub-accelerator's list when it commits the layer, 16 bytes a
    /// span, and [`BusySpans::iter`] merges the lists in (start,
    /// sub-accelerator) order. Empty in sketch mode, where the core adds
    /// each span to its utilization windows at commit instead.
    #[must_use]
    pub fn busy_spans(&self) -> BusySpans<'_> {
        BusySpans {
            ways: &self.busy_spans,
        }
    }

    /// How many times the online scheduler actually compiled a schedule
    /// from scratch during this simulation. Under the default
    /// incremental policy this is at most once per distinct (stream,
    /// workload version) pair — fewer when a shared
    /// [`crate::ctx::EvalContext`] memo from an earlier run serves a
    /// compile (those count as [`StreamReport::schedule_cache_hits`]);
    /// under [`crate::sim::ReschedulePolicy::FullReschedule`] it is once
    /// per frame arrival plus once per swap (the full baseline
    /// behavior).
    #[must_use]
    pub fn scheduler_invocations(&self) -> usize {
        self.scheduler_invocations
    }

    /// Online scheduling decisions served from a cache instead of a
    /// fresh compile: the stream's dirty-tracked schedule, or a shared
    /// context's cross-call schedule memo.
    #[must_use]
    pub fn schedule_cache_hits(&self) -> usize {
        self.schedule_cache_hits
    }

    /// Fraction of online scheduling decisions served from cache
    /// (`hits / (hits + compiles)`; 0 when nothing was scheduled).
    #[must_use]
    pub fn schedule_cache_hit_rate(&self) -> f64 {
        let total = self.schedule_cache_hits + self.scheduler_invocations;
        if total == 0 {
            0.0
        } else {
            self.schedule_cache_hits as f64 / total as f64
        }
    }

    /// Per-(task, sub-accelerator) placement cost evaluations the online
    /// scheduler performed during this simulation (0 when the scheduler
    /// does not report placement work).
    #[must_use]
    pub fn placement_evaluations(&self) -> u64 {
        self.placement_evaluations
    }

    /// Trace events processed: every frame arrival plus every workload
    /// swap.
    #[must_use]
    pub fn events_processed(&self) -> usize {
        self.events_processed
    }

    /// Aggregate throughput: completed frames per second of makespan.
    #[must_use]
    pub fn throughput_fps(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.makespan_s
        }
    }

    /// Temporal utilization of a sub-accelerator over the makespan.
    #[must_use]
    pub fn acc_utilization(&self, acc: usize) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.per_acc[acc].busy_s / self.makespan_s
        }
    }

    /// A latency percentile over all frames (nearest-rank; `q` in
    /// `[0, 1]`). Returns 0 for an empty report. In sketch mode the
    /// value comes from the sketch and is within its configured
    /// relative error of exact.
    #[must_use]
    pub fn latency_percentile(&self, q: f64) -> f64 {
        match &self.sketch {
            None => percentile(self.frames.iter().map(|f| f.latency_s), q),
            Some(sketch) => sketch.quantile(q),
        }
    }

    /// Several latency percentiles served from one sorted pass over the
    /// samples (exact mode sorts once for all requested quantiles;
    /// sketch mode reads the sketch). Bit-identical to calling
    /// [`StreamReport::latency_percentile`] per quantile.
    #[must_use]
    pub fn latency_percentiles(&self, qs: &[f64]) -> Vec<f64> {
        match &self.sketch {
            None => {
                let mut v: Vec<f64> = self.frames.iter().map(|f| f.latency_s).collect();
                v.sort_by(f64::total_cmp);
                qs.iter().map(|&q| percentile_of_sorted(&v, q)).collect()
            }
            Some(sketch) => qs.iter().map(|&q| sketch.quantile(q)).collect(),
        }
    }

    /// Deadline-miss rate over all frames that carry a deadline (0 when
    /// none do).
    #[must_use]
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.mode.is_exact() {
            miss_rate(self.frames.iter())
        } else {
            agg_miss_rate(self.stream_aggs.iter())
        }
    }

    /// Deadline-miss rate over frames arriving in `[t0, t1)` — the window
    /// view that exposes transients around workload-change events. Exact
    /// mode filters the per-frame records; sketch mode estimates from
    /// the fixed arrival windows by proportional overlap.
    #[must_use]
    pub fn miss_rate_between(&self, t0: f64, t1: f64) -> f64 {
        if self.mode.is_exact() {
            return miss_rate(
                self.frames
                    .iter()
                    .filter(|f| f.arrival_s >= t0 && f.arrival_s < t1),
            );
        }
        let s = window_sums(&self.miss_windows, self.window_s, t0, t1);
        if s.deadline_frames > 0.0 {
            s.missed / s.deadline_frames
        } else {
            0.0
        }
    }

    /// Completed deadline-carrying frames arriving in `[t0, t1)` (exact
    /// count in exact mode; a rounded proportional-overlap estimate in
    /// sketch mode).
    #[must_use]
    pub fn deadline_frames_between(&self, t0: f64, t1: f64) -> usize {
        if self.mode.is_exact() {
            return self
                .frames
                .iter()
                .filter(|f| f.deadline_s.is_some() && f.arrival_s >= t0 && f.arrival_s < t1)
                .count();
        }
        window_sums(&self.miss_windows, self.window_s, t0, t1)
            .deadline_frames
            .round() as usize
    }

    /// Mean frame latency over frames arriving in `[t0, t1)` (0 when the
    /// window is empty). Sketch mode estimates from the fixed arrival
    /// windows by proportional overlap.
    #[must_use]
    pub fn mean_latency_between(&self, t0: f64, t1: f64) -> f64 {
        if self.mode.is_exact() {
            let (mut sum, mut n) = (0.0f64, 0usize);
            for f in &self.frames {
                if f.arrival_s >= t0 && f.arrival_s < t1 {
                    sum += f.latency_s;
                    n += 1;
                }
            }
            return if n == 0 { 0.0 } else { sum / n as f64 };
        }
        let s = window_sums(&self.miss_windows, self.window_s, t0, t1);
        if s.frames > 0.0 {
            s.latency_sum_s / s.frames
        } else {
            0.0
        }
    }

    /// Per-stream aggregate statistics. Exact mode groups the per-frame
    /// records in one pass and sorts each stream's latencies once,
    /// serving p50/p95/p99 from the shared sorted slice; sketch mode
    /// reads the per-stream aggregates, where percentiles degrade to
    /// envelopes (p50 = mean, p95 = p99 = max).
    #[must_use]
    pub fn stream_stats(&self) -> Vec<StreamStats> {
        if self.mode.is_exact() {
            exact_stream_stats(&self.stream_names, self.makespan_s, self.frames.iter())
        } else {
            sketch_stream_stats(&self.stream_names, self.makespan_s, &self.stream_aggs)
        }
    }

    /// Per-accelerator busy fraction per time window of `window_s`
    /// seconds, from 0 to the makespan — the utilization-over-time view.
    /// Exact mode distributes the recorded busy spans; sketch mode
    /// re-bins its fixed utilization windows by proportional overlap.
    #[must_use]
    pub fn utilization_timeline(&self, window_s: f64) -> Vec<UtilizationSample> {
        let ways = self.per_acc.len();
        if !(window_s > 0.0 && window_s.is_finite()) || self.makespan_s <= 0.0 || ways == 0 {
            return Vec::new();
        }
        let windows = (self.makespan_s / window_s).ceil() as usize;
        if !self.mode.is_exact() {
            let stored = self.util_windows.len() / ways;
            return (0..windows)
                .map(|w| {
                    let lo = w as f64 * window_s;
                    let hi = lo + window_s;
                    let mut row = vec![0.0f64; ways];
                    if self.window_s > 0.0 {
                        let first = ((lo / self.window_s) as usize).min(stored);
                        for k in first..stored {
                            let slo = k as f64 * self.window_s;
                            if slo >= hi {
                                break;
                            }
                            let shi = slo + self.window_s;
                            let overlap = (hi.min(shi) - lo.max(slo)).max(0.0);
                            let frac = overlap / self.window_s;
                            for (a, cell) in row.iter_mut().enumerate() {
                                *cell += frac * self.util_windows[k * ways + a];
                            }
                        }
                    }
                    UtilizationSample {
                        t_s: lo,
                        per_acc: row.into_iter().map(|b| b / window_s).collect(),
                    }
                })
                .collect();
        }
        // A cell only sums spans of its own sub-accelerator, so walking
        // one list at a time adds them in the merged order.
        let mut busy = vec![vec![0.0f64; ways]; windows];
        for (acc, list) in self.busy_spans.iter().enumerate() {
            for &(start_s, finish_s) in list {
                let first = ((start_s / window_s) as usize).min(windows - 1);
                let last = ((finish_s / window_s) as usize).min(windows - 1);
                for (w, row) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
                    let lo = w as f64 * window_s;
                    let hi = lo + window_s;
                    let overlap = (finish_s.min(hi) - start_s.max(lo)).max(0.0);
                    row[acc] += overlap;
                }
            }
        }
        busy.into_iter()
            .enumerate()
            .map(|(w, row)| UtilizationSample {
                t_s: w as f64 * window_s,
                per_acc: row.into_iter().map(|b| b / window_s).collect(),
            })
            .collect()
    }
}

/// Fixed number of arrival/utilization windows a sketch-mode report
/// keeps over the scenario horizon (each window is `horizon / 128`
/// seconds; utilization windows grow past the horizon to cover the
/// makespan).
const SKETCH_WINDOWS: usize = 128;

/// The collector stage of a streaming run: the [`StreamReport`] under
/// construction. Exact mode keeps every frame record; sketch mode folds
/// each completion into the quantile sketch, its stream's [`StreamAgg`]
/// (kept in the engine's stream row) and the fixed arrival windows,
/// keeping only sampled exemplar records. The busy spans never pass
/// through here: the core records them at commit, in the [`Timeline`]
/// this collector picks.
pub(crate) struct Collector {
    report: StreamReport,
    sample_every: usize,
}

impl Collector {
    pub(crate) fn new(
        scenario: &str,
        stream_names: Arc<Vec<String>>,
        horizon_s: f64,
        mode: ReportMode,
    ) -> Self {
        let (sketch, window_s, sample_every) = match mode {
            ReportMode::Exact => (None, 0.0, 0),
            ReportMode::Sketch {
                relative_error,
                sample_every,
            } => (
                Some(QuantileSketch::new(relative_error)),
                horizon_s / SKETCH_WINDOWS as f64,
                sample_every,
            ),
        };
        let report = StreamReport {
            scenario: scenario.to_string(),
            stream_names,
            horizon_s,
            makespan_s: horizon_s,
            mode,
            completed: 0,
            frames: Vec::new(),
            swaps: Vec::new(),
            per_acc: Vec::new(),
            energy: EnergyBreakdown::default(),
            peak_memory_bytes: 0,
            scheduler_invocations: 0,
            schedule_cache_hits: 0,
            placement_evaluations: 0,
            events_processed: 0,
            busy_spans: Vec::new(),
            sketch,
            stream_aggs: Vec::new(),
            window_s,
            util_windows: Vec::new(),
            miss_windows: Vec::new(),
        };
        Self {
            report,
            sample_every,
        }
    }

    /// Where the core records each commit for this report: per-way span
    /// lists in exact mode, utilization windows in sketch mode.
    pub(crate) fn timeline(&self, ways: usize) -> Timeline {
        match self.report.mode {
            ReportMode::Exact => Timeline::Spans(vec![Vec::new(); ways]),
            ReportMode::Sketch { .. } => Timeline::Windows {
                window_s: self.report.window_s,
                cells: Vec::new(),
            },
        }
    }

    pub(crate) fn swap(&mut self, record: SwapRecord) {
        self.report.swaps.push(record);
    }

    /// Records one completed frame of `stream`; `agg` and `deadline_s`
    /// (`f64::INFINITY` when none) come from the stream's row.
    pub(crate) fn record(
        &mut self,
        stream: usize,
        seq: usize,
        workload: &Arc<str>,
        done: &FrameResult,
        agg: &mut StreamAgg,
        deadline_s: f64,
    ) {
        let r = &mut self.report;
        let (arrival_s, finish_s) = (done.arrival_s, done.finish_s);
        r.completed += 1;
        r.makespan_s = r.makespan_s.max(finish_s);
        let latency_s = finish_s - arrival_s;
        let missed = latency_s > deadline_s;
        let has_deadline = deadline_s.is_finite();
        let frame = || FrameRecord {
            stream,
            seq,
            workload: Arc::clone(workload),
            arrival_s,
            finish_s,
            latency_s,
            deadline_s: has_deadline.then_some(deadline_s),
            missed,
            energy_j: done.energy.total_j(),
        };
        let Some(sketch) = &mut r.sketch else {
            r.frames.push(frame());
            return;
        };
        sketch.insert(latency_s);
        agg.record(latency_s, has_deadline, missed);
        if r.window_s > 0.0 {
            let w = (arrival_s / r.window_s) as usize;
            if w >= r.miss_windows.len() {
                r.miss_windows.resize(w + 1, ArrivalWindow::default());
            }
            let win = &mut r.miss_windows[w];
            win.frames += 1;
            win.latency_sum_s += latency_s;
            if has_deadline {
                win.deadline_frames += 1;
                if missed {
                    win.missed += 1;
                }
            }
        }
        if self.sample_every > 0 && (r.completed - 1).is_multiple_of(self.sample_every as u64) {
            r.frames.push(frame());
        }
    }

    /// Builds the report once the run has drained: the frames in
    /// (arrival, stream, seq) order, the core's timeline and chip totals,
    /// the stream aggregates (sketch mode), and the schedule and event
    /// counts the run kept in `profile`, whose byte accounting this adds.
    pub(crate) fn finish(
        self,
        core: &mut EventCore<'_>,
        aggs: impl Iterator<Item = StreamAgg>,
        placement_evaluations: u64,
        profile: &mut HotPathProfile,
    ) -> StreamReport {
        let mut r = self.report;
        r.frames.sort_by(|a, b| {
            a.arrival_s
                .total_cmp(&b.arrival_s)
                .then(a.stream.cmp(&b.stream))
                .then(a.seq.cmp(&b.seq))
        });
        match core.take_timeline() {
            Timeline::Spans(lists) => r.busy_spans = lists,
            Timeline::Windows { cells, .. } => r.util_windows = cells,
            Timeline::Entries => unreachable!("a stream run records spans or windows"),
        }
        r.per_acc = core.per_acc().to_vec();
        r.energy = *core.energy();
        r.peak_memory_bytes = core.peak_memory_bytes();
        r.scheduler_invocations = profile.schedule_compiles as usize;
        r.schedule_cache_hits = profile.schedule_cache_hits as usize;
        r.placement_evaluations = placement_evaluations;
        r.events_processed = profile.events as usize;
        let mem = &mut profile.mem;
        mem.frame_bytes = (r.frames.capacity() * std::mem::size_of::<FrameRecord>()) as u64;
        mem.span_bytes = r
            .busy_spans
            .iter()
            .map(|list| (list.capacity() * std::mem::size_of::<(f64, f64)>()) as u64)
            .sum();
        if let Some(sketch) = &r.sketch {
            r.stream_aggs = aggs.collect();
            mem.sketch_bytes = sketch.memory_bytes();
            mem.agg_bytes = (r.stream_aggs.capacity() * std::mem::size_of::<StreamAgg>()
                + r.util_windows.capacity() * std::mem::size_of::<f64>()
                + r.miss_windows.capacity() * std::mem::size_of::<ArrivalWindow>())
                as u64;
        }
        r
    }
}

impl fmt::Display for StreamReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} frames in {:.3} s ({:.1} fps), p95 latency {:.4} s, \
             miss rate {:.1}%, energy {:.4} J",
            self.scenario,
            self.completed,
            self.makespan_s,
            self.throughput_fps(),
            self.latency_percentile(0.95),
            self.deadline_miss_rate() * 100.0,
            self.total_energy_j()
        )
    }
}

/// Nearest-rank percentile of an already-sorted slice (`q` clamped to
/// `[0, 1]`; 0 for an empty slice). The shared kernel behind every
/// exact-mode percentile: sort once, serve all quantiles from the slice.
pub(crate) fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank percentile of an iterator of samples (`q` clamped to
/// `[0, 1]`; 0 for an empty iterator). Shared with the fleet layer's
/// merged views.
pub(crate) fn percentile(samples: impl Iterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = samples.collect();
    v.sort_by(f64::total_cmp);
    percentile_of_sorted(&v, q)
}

/// Per-stream statistics over exact frame records, for streams
/// `names` over `makespan_s`: one pass groups the records by stream,
/// and each stream's latencies are sorted once to serve p50/p95/p99.
/// Shared with the fleet layer's merged view.
pub(crate) fn exact_stream_stats<'a>(
    names: &[String],
    makespan_s: f64,
    frames: impl Iterator<Item = &'a FrameRecord>,
) -> Vec<StreamStats> {
    let streams = names.len();
    let mut lats: Vec<Vec<f64>> = vec![Vec::new(); streams];
    let mut deadline = vec![0usize; streams];
    let mut missed = vec![0usize; streams];
    for f in frames {
        lats[f.stream].push(f.latency_s);
        if f.deadline_s.is_some() {
            deadline[f.stream] += 1;
            if f.missed {
                missed[f.stream] += 1;
            }
        }
    }
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let v = &mut lats[i];
            v.sort_by(f64::total_cmp);
            let mean = if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            };
            StreamStats {
                name: name.clone(),
                frames: v.len(),
                throughput_fps: if makespan_s <= 0.0 {
                    0.0
                } else {
                    v.len() as f64 / makespan_s
                },
                mean_latency_s: mean,
                p50_latency_s: percentile_of_sorted(v, 0.50),
                p95_latency_s: percentile_of_sorted(v, 0.95),
                p99_latency_s: percentile_of_sorted(v, 0.99),
                deadline_miss_rate: if deadline[i] == 0 {
                    0.0
                } else {
                    missed[i] as f64 / deadline[i] as f64
                },
            }
        })
        .collect()
}

/// Per-stream statistics from sketch-mode aggregates (`aggs[i]` is
/// stream `i`'s; a missing entry reads as an empty stream), where
/// percentiles degrade to envelopes: p50 = mean, p95 = p99 = max.
/// Shared with the fleet layer's merged view.
pub(crate) fn sketch_stream_stats(
    names: &[String],
    makespan_s: f64,
    aggs: &[StreamAgg],
) -> Vec<StreamStats> {
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let a = aggs.get(i).copied().unwrap_or_default();
            let mean = if a.frames == 0 {
                0.0
            } else {
                a.latency_sum_s / a.frames as f64
            };
            StreamStats {
                name: name.clone(),
                frames: a.frames as usize,
                throughput_fps: if makespan_s <= 0.0 {
                    0.0
                } else {
                    a.frames as f64 / makespan_s
                },
                mean_latency_s: mean,
                p50_latency_s: mean,
                p95_latency_s: a.latency_max_s,
                p99_latency_s: a.latency_max_s,
                deadline_miss_rate: agg_miss_rate(std::iter::once(&a)),
            }
        })
        .collect()
}

/// Miss rate over the deadline-carrying frames of sketch-mode
/// aggregates (0 when none carry one). Shared with the fleet layer's
/// merged view.
pub(crate) fn agg_miss_rate<'a>(aggs: impl Iterator<Item = &'a StreamAgg>) -> f64 {
    let (deadline, missed) = aggs.fold((0u64, 0u64), |(d, m), a| {
        (d + a.deadline_frames, m + a.missed)
    });
    if deadline == 0 {
        0.0
    } else {
        missed as f64 / deadline as f64
    }
}

/// Miss rate over deadline-carrying frames (0 when none carry one).
/// Shared with the fleet layer's merged views.
pub(crate) fn miss_rate<'a>(frames: impl Iterator<Item = &'a FrameRecord>) -> f64 {
    let (mut with_deadline, mut missed) = (0usize, 0usize);
    for f in frames {
        if f.deadline_s.is_some() {
            with_deadline += 1;
            if f.missed {
                missed += 1;
            }
        }
    }
    if with_deadline == 0 {
        0.0
    } else {
        missed as f64 / with_deadline as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(stream: usize, arrival: f64, latency: f64, deadline: Option<f64>) -> FrameRecord {
        FrameRecord {
            stream,
            seq: 0,
            workload: "w".into(),
            arrival_s: arrival,
            finish_s: arrival + latency,
            latency_s: latency,
            deadline_s: deadline,
            missed: deadline.is_some_and(|d| latency > d),
            energy_j: 1.0,
        }
    }

    fn report(frames: Vec<FrameRecord>) -> StreamReport {
        let names = Arc::new(vec!["s0".into(), "s1".into()]);
        let mut r = Collector::new("test", names, 1.0, ReportMode::Exact).report;
        r.makespan_s = 2.0;
        r.completed = frames.len() as u64;
        r.frames = frames;
        r.per_acc = vec![AccSummary {
            name: "acc0".into(),
            layers: 0,
            busy_s: 1.0,
            finish_s: 2.0,
            energy_j: 0.0,
        }];
        r.busy_spans = vec![vec![(0.0, 1.0)]];
        r
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let frames: Vec<FrameRecord> = (1..=100)
            .map(|i| frame(0, i as f64, i as f64 / 100.0, None))
            .collect();
        let r = report(frames);
        assert!((r.latency_percentile(0.50) - 0.50).abs() < 1e-12);
        assert!((r.latency_percentile(0.95) - 0.95).abs() < 1e-12);
        assert!((r.latency_percentile(0.99) - 0.99).abs() < 1e-12);
        assert!((r.latency_percentile(1.0) - 1.00).abs() < 1e-12);
        assert!((r.latency_percentile(0.0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn miss_rates_ignore_deadline_free_frames() {
        let r = report(vec![
            frame(0, 0.0, 0.5, Some(0.4)), // missed
            frame(0, 0.5, 0.3, Some(0.4)), // met
            frame(1, 0.7, 9.0, None),      // no deadline
        ]);
        assert!((r.deadline_miss_rate() - 0.5).abs() < 1e-12);
        assert!((r.miss_rate_between(0.0, 0.4) - 1.0).abs() < 1e-12);
        assert_eq!(r.miss_rate_between(0.6, 2.0), 0.0);
    }

    #[test]
    fn windowed_miss_rate_is_inclusive_exclusive_on_arrivals() {
        let r = report(vec![
            frame(0, 0.0, 0.5, Some(0.4)), // missed, arrival exactly 0.0
            frame(0, 1.0, 0.3, Some(0.4)), // met, arrival exactly 1.0
        ]);
        // t0 is inclusive: the frame arriving exactly at t0 counts.
        assert!((r.miss_rate_between(0.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((r.miss_rate_between(1.0, 2.0) - 0.0).abs() < 1e-12);
        // t1 is exclusive: the frame arriving exactly at t1 does not.
        assert!((r.miss_rate_between(0.5, 1.0) - 0.0).abs() < 1e-12);
        // Adjacent windows therefore partition the frames: each arrival
        // lands in exactly one of [0,1) and [1,2).
        let both = r.miss_rate_between(0.0, 2.0);
        assert!((both - 0.5).abs() < 1e-12);
    }

    #[test]
    fn windowed_miss_rate_of_an_empty_window_is_zero() {
        let r = report(vec![
            frame(0, 0.0, 0.5, Some(0.4)),
            frame(1, 0.7, 9.0, None), // deadline-free: never counted
        ]);
        // No arrivals at all in the window.
        assert_eq!(r.miss_rate_between(2.0, 3.0), 0.0);
        // Arrivals present but none carrying a deadline.
        assert_eq!(r.miss_rate_between(0.5, 1.0), 0.0);
        // A window entirely after the last event is empty, not an error.
        assert_eq!(r.miss_rate_between(100.0, 200.0), 0.0);
        // An inverted or zero-length window matches nothing, even at an
        // exact arrival time.
        assert_eq!(r.miss_rate_between(0.0, 0.0), 0.0);
        assert_eq!(r.miss_rate_between(1.0, 0.0), 0.0);
    }

    #[test]
    fn windowed_miss_rate_straddling_the_last_event_counts_it_once() {
        let r = report(vec![
            frame(0, 0.4, 0.5, Some(0.4)), // missed
            frame(0, 0.9, 0.3, Some(0.4)), // met — the last arrival
        ]);
        // A window straddling the last arrival sees it exactly once,
        // regardless of how far past it the window extends.
        assert!((r.miss_rate_between(0.5, 50.0) - 0.0).abs() < 1e-12);
        assert!((r.miss_rate_between(0.0, 50.0) - 0.5).abs() < 1e-12);
        // Shrinking t1 onto the last arrival excludes it again.
        assert!((r.miss_rate_between(0.0, 0.9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stream_stats_split_by_stream() {
        let r = report(vec![
            frame(0, 0.0, 0.2, Some(1.0)),
            frame(0, 0.5, 0.4, Some(1.0)),
            frame(1, 0.1, 0.9, None),
        ]);
        let stats = r.stream_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].frames, 2);
        assert!((stats[0].mean_latency_s - 0.3).abs() < 1e-12);
        assert_eq!(stats[1].frames, 1);
        assert!((stats[1].p99_latency_s - 0.9).abs() < 1e-12);
    }

    #[test]
    fn utilization_timeline_covers_makespan() {
        let r = report(vec![frame(0, 0.0, 0.5, None)]);
        let timeline = r.utilization_timeline(0.5);
        assert_eq!(timeline.len(), 4); // makespan 2.0 / window 0.5
        assert!((timeline[0].per_acc[0] - 1.0).abs() < 1e-12); // busy span [0,1)
        assert!((timeline[1].per_acc[0] - 1.0).abs() < 1e-12);
        assert_eq!(timeline[3].per_acc[0], 0.0);
        assert!((r.acc_utilization(0) - 0.5).abs() < 1e-12);
        for window_s in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(r.utilization_timeline(window_s).is_empty(), "{window_s}");
        }
    }

    #[test]
    fn cache_hit_rate_counts_hits_over_decisions() {
        let mut r = report(Vec::new());
        assert_eq!(r.schedule_cache_hit_rate(), 0.0);
        r.scheduler_invocations = 2;
        r.schedule_cache_hits = 6;
        assert!((r.schedule_cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(r.schedule_cache_hits(), 6);
    }

    #[test]
    fn empty_report_metrics_are_zero() {
        let r = report(Vec::new());
        assert_eq!(r.latency_percentile(0.95), 0.0);
        assert_eq!(r.deadline_miss_rate(), 0.0);
        assert_eq!(r.mean_latency_between(0.0, 1.0), 0.0);
        assert!(r.throughput_fps() > 0.0 || r.frames().is_empty());
    }

    #[test]
    fn batched_percentiles_match_single_calls_bit_for_bit() {
        let frames: Vec<FrameRecord> = (1..=97)
            .map(|i| frame(i % 2, i as f64, (i as f64).sin().abs() + 0.01, None))
            .collect();
        let r = report(frames);
        let qs = [0.0, 0.5, 0.95, 0.99, 1.0];
        let batched = r.latency_percentiles(&qs);
        for (q, b) in qs.iter().zip(&batched) {
            assert_eq!(b.to_bits(), r.latency_percentile(*q).to_bits());
        }
    }

    /// Seeded pseudo-random samples without pulling in an RNG dep: a
    /// SplitMix64-style scramble mapped into (0, 1].
    fn scrambled(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                // Spread across several orders of magnitude like a
                // latency distribution with a long tail.
                let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                1e-4 + u * u * u * 10.0
            })
            .collect()
    }

    #[test]
    fn sketch_quantiles_are_within_the_relative_error_bound() {
        for &rel in &[0.05, 0.01, 0.001] {
            let samples = scrambled(0xfeed_beef, 5000);
            let mut sketch = QuantileSketch::new(rel);
            for &x in &samples {
                sketch.insert(x);
            }
            assert!(sketch.relative_error_bound() <= rel);
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            for &q in &[0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let exact = percentile_of_sorted(&sorted, q);
                let approx = sketch.quantile(q);
                assert!(
                    (approx - exact).abs() <= rel * exact + 1e-300,
                    "q={q} rel={rel}: sketch {approx} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn sketch_merge_is_bit_identical_to_inserting_the_concatenation() {
        let a = scrambled(1, 700);
        let b = scrambled(2, 1300);
        let mut left = QuantileSketch::new(0.01);
        let mut right = QuantileSketch::new(0.01);
        let mut whole = QuantileSketch::new(0.01);
        for &x in &a {
            left.insert(x);
            whole.insert(x);
        }
        for &x in &b {
            right.insert(x);
            whole.insert(x);
        }
        left.merge(&right);
        assert_eq!(left, whole);
        for &q in &[0.0, 0.5, 0.99, 1.0] {
            assert_eq!(left.quantile(q).to_bits(), whole.quantile(q).to_bits());
        }
    }

    #[test]
    fn sketch_handles_zeros_and_empty() {
        let mut s = QuantileSketch::new(0.01);
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.max_value(), 0.0);
        s.insert(0.0);
        s.insert(0.0);
        s.insert(4.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(0.5), 0.0); // rank 2 of 3 is a zero
        assert!((s.quantile(1.0) - 4.0).abs() <= 0.01 * 4.0);
        assert!(s.memory_bytes() > 0);
    }

    #[test]
    fn sketch_mode_report_serves_metrics_from_aggregates() {
        // Build an exact report, then re-express the same three frames
        // as streaming aggregates and check the derived metrics agree.
        let frames = vec![
            frame(0, 0.1, 0.2, Some(1.0)),
            frame(0, 0.6, 0.4, Some(0.3)), // missed
            frame(1, 1.2, 0.9, None),
        ];
        let exact = report(frames.clone());
        let mut sk = report(Vec::new());
        let mut sketch = QuantileSketch::new(0.01);
        let mut aggs = vec![StreamAgg::default(); 2];
        let window_s = 0.5;
        let mut miss = vec![ArrivalWindow::default(); 4];
        for f in &frames {
            sketch.insert(f.latency_s);
            aggs[f.stream].record(f.latency_s, f.deadline_s.is_some(), f.missed);
            let w = &mut miss[(f.arrival_s / window_s) as usize];
            w.frames += 1;
            w.latency_sum_s += f.latency_s;
            if f.deadline_s.is_some() {
                w.deadline_frames += 1;
                if f.missed {
                    w.missed += 1;
                }
            }
        }
        sk.mode = ReportMode::sketch();
        sk.completed = 3;
        sk.sketch = Some(sketch);
        sk.stream_aggs = aggs;
        sk.window_s = window_s;
        sk.miss_windows = miss;
        assert_eq!(sk.completed(), 3);
        assert_eq!(sk.frames().len(), 0);
        assert_eq!(sk.throughput_fps(), exact.throughput_fps());
        assert_eq!(sk.deadline_miss_rate(), exact.deadline_miss_rate());
        // Window-aligned queries are exact even through the aggregates.
        assert_eq!(
            sk.miss_rate_between(0.5, 1.0),
            exact.miss_rate_between(0.5, 1.0)
        );
        assert_eq!(sk.deadline_frames_between(0.0, 2.0), 2);
        assert!(
            (sk.mean_latency_between(0.0, 2.0) - exact.mean_latency_between(0.0, 2.0)).abs()
                < 1e-12
        );
        let p99 = sk.latency_percentile(0.99);
        assert!((p99 - 0.9).abs() <= 0.01 * 0.9, "{p99}");
        let stats = sk.stream_stats();
        assert_eq!(stats[0].frames, 2);
        assert!((stats[0].mean_latency_s - 0.3).abs() < 1e-12);
        assert_eq!(stats[1].p99_latency_s, 0.9); // envelope: max
    }

    /// The proportional-overlap fold both report modes use: each span
    /// adds its overlap with every window it touches to `cells[window *
    /// ways + way]`, growing `cells` to the last window reached when
    /// `grow`, clamping into the last window otherwise. (Adding a zero
    /// overlap leaves a cell's bits as they are.)
    fn fold_spans(
        spans: impl Iterator<Item = BusySpan>,
        window_s: f64,
        ways: usize,
        cells: &mut Vec<f64>,
        grow: bool,
    ) {
        for span in spans {
            let windows = cells.len() / ways;
            let clamp = |t: f64| {
                let k = (t / window_s) as usize;
                if grow {
                    k
                } else {
                    k.min(windows - 1)
                }
            };
            let (first, last) = (clamp(span.start_s), clamp(span.finish_s));
            if (last + 1) * ways > cells.len() {
                cells.resize((last + 1) * ways, 0.0);
            }
            for k in first..=last {
                let lo = k as f64 * window_s;
                let overlap = (span.finish_s.min(lo + window_s) - span.start_s.max(lo)).max(0.0);
                if overlap > 0.0 {
                    cells[k * ways + span.acc] += overlap;
                }
            }
        }
    }

    #[test]
    fn sketch_windows_and_exact_timelines_fold_the_merged_spans() {
        // Independent oracle: the merged busy spans of an exact run,
        // folded by hand, against the cells a sketch run of the same
        // scenario folded at commit, and against the exact report's
        // per-way timeline walk.
        use crate::sched::HeraldScheduler;
        use crate::sim::StreamSimulator;
        use herald_arch::{AcceleratorClass, AcceleratorConfig, Partition};
        use herald_cost::CostModel;
        use herald_workloads::{single_model, Scenario, StreamSpec};

        let res = AcceleratorClass::Edge.resources();
        let acc =
            AcceleratorConfig::maelstrom(res, Partition::even(2, res.pes, res.bandwidth_gbps))
                .unwrap();
        let workload = || single_model(herald_models::zoo::mobilenet_v1(), 1);
        let scenario = Scenario::new("fold", 0.2)
            .stream(StreamSpec::periodic("a", workload(), 60.0))
            .stream(StreamSpec::poisson("b", workload(), 80.0, 2026));
        let cost = CostModel::default();
        let run = |mode| {
            StreamSimulator::new(&acc, &cost)
                .with_report_mode(mode)
                .simulate(&HeraldScheduler::default(), &scenario)
                .unwrap()
        };
        let (exact, sketch) = (run(ReportMode::Exact), run(ReportMode::sketch()));
        let ways = exact.per_acc().len();
        assert_eq!(ways, 2);
        let overlapping = exact.frames().iter().any(|f| {
            exact
                .frames()
                .iter()
                .any(|g| g.arrival_s > f.arrival_s && g.arrival_s < f.finish_s)
        });
        assert!(overlapping, "frames overlap in time");

        let mut cells = Vec::new();
        fold_spans(
            exact.busy_spans().iter(),
            sketch.window_s,
            ways,
            &mut cells,
            true,
        );
        assert_eq!(cells.len(), sketch.util_windows.len());
        assert!(cells.len() >= 128 * ways);
        let mut bit_equal = 0;
        for (k, (hand, folded)) in cells.iter().zip(&sketch.util_windows).enumerate() {
            assert!(
                (hand - folded).abs() <= 1e-12 * hand.abs(),
                "cell {k}: {hand} vs {folded}"
            );
            bit_equal += usize::from(hand.to_bits() == folded.to_bits());
        }
        // All 258 cells (129 windows x 2 ways) are bit-equal: a cell sums
        // the spans of one way, and one way's spans reach it in the same
        // order at commit and through the merge.
        assert_eq!(bit_equal, cells.len());
        for (a, summary) in sketch.per_acc().iter().enumerate() {
            let busy: f64 = cells.iter().skip(a).step_by(ways).sum();
            assert!(
                (busy - summary.busy_s).abs() <= 1e-12 * summary.busy_s,
                "way {a}"
            );
        }

        for window_s in [0.003, 0.0125, 0.07] {
            let windows = (exact.makespan_s() / window_s).ceil() as usize;
            let mut cells = vec![0.0; windows * ways];
            fold_spans(exact.busy_spans().iter(), window_s, ways, &mut cells, false);
            let timeline = exact.utilization_timeline(window_s);
            assert_eq!(timeline.len(), windows);
            for (w, sample) in timeline.iter().enumerate() {
                for (a, util) in sample.per_acc.iter().enumerate() {
                    let hand = cells[w * ways + a] / window_s;
                    assert_eq!(
                        util.to_bits(),
                        hand.to_bits(),
                        "{window_s} s, window {w}, way {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn sketch_utilization_timeline_rebins_stored_windows() {
        let mut r = report(Vec::new());
        // One accelerator, stored windows of 1 s: busy 1.0 s then 0.5 s.
        r.mode = ReportMode::sketch();
        r.sketch = Some(QuantileSketch::new(0.01));
        r.stream_aggs = vec![StreamAgg::default(); 2];
        r.window_s = 1.0;
        r.util_windows = vec![1.0, 0.5];
        let timeline = r.utilization_timeline(0.5); // makespan 2.0
        assert_eq!(timeline.len(), 4);
        for w in &timeline[..2] {
            assert!((w.per_acc[0] - 1.0).abs() < 1e-12, "{:?}", w);
        }
        for w in &timeline[2..] {
            assert!((w.per_acc[0] - 0.5).abs() < 1e-12, "{:?}", w);
        }
        for window_s in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(r.utilization_timeline(window_s).is_empty(), "{window_s}");
        }
    }
}
