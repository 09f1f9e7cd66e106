//! The merged outcome of a fleet simulation: per-chip stream reports
//! plus fleet-level aggregates and the frame-routing audit trail.

use crate::sim::report::{
    agg_miss_rate, exact_stream_stats, miss_rate, percentile, sketch_stream_stats, window_sums,
    WindowSums,
};
use crate::sim::{FrameRecord, QuantileSketch, StreamAgg, StreamReport, StreamStats};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One routed frame: which chip the dispatcher sent it to. `seq` is the
/// *global* per-stream sequence number (the per-chip reports renumber
/// frames locally), so the assignment list is the join key between the
/// generated traffic and the per-chip simulations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameAssignment {
    /// Global stream index in the scenario.
    pub stream: usize,
    /// Global sequence number within the stream (0-based).
    pub seq: usize,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Chip index the frame was dispatched to.
    pub chip: usize,
}

/// A frame turned away by admission control (never dispatched).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DroppedFrame {
    /// Global stream index in the scenario.
    pub stream: usize,
    /// Global sequence number within the stream (0-based).
    pub seq: usize,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Predicted completion on the chip the dispatcher chose — the
    /// evidence the admission decision was based on, seconds.
    pub predicted_finish_s: f64,
}

/// The outcome of a [`crate::fleet::FleetSimulator`] run: one
/// [`StreamReport`] per chip (stream indices aligned with the original
/// scenario), the dispatcher's routing decisions, any admission drops,
/// and merged fleet-level metrics derived from them. Self-contained and
/// serializable, like the per-chip reports it wraps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    pub(crate) scenario: String,
    pub(crate) policy: String,
    pub(crate) chip_names: Vec<String>,
    /// Shared with every per-chip report (one allocation fleet-wide).
    pub(crate) stream_names: Arc<Vec<String>>,
    pub(crate) horizon_s: f64,
    pub(crate) per_chip: Vec<StreamReport>,
    pub(crate) assignments: Vec<FrameAssignment>,
    /// Empty, or one entry per admission drop.
    pub(crate) dropped: Vec<DroppedFrame>,
    /// Admission drops as a scalar count, kept even when the per-frame
    /// audit trail is disabled (see
    /// [`crate::fleet::FleetConfig::with_audit_trail`]).
    pub(crate) dropped_total: usize,
}

impl FleetReport {
    /// Name of the simulated scenario.
    #[must_use]
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Name of the dispatch policy that routed the frames.
    #[must_use]
    pub fn policy(&self) -> &str {
        &self.policy
    }

    /// Chip display names, indexed by chip index.
    #[must_use]
    pub fn chip_names(&self) -> &[String] {
        &self.chip_names
    }

    /// Stream names, indexed by [`FrameRecord::stream`].
    #[must_use]
    pub fn stream_names(&self) -> &[String] {
        &self.stream_names
    }

    /// The scenario's arrival horizon, seconds.
    #[must_use]
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// One [`StreamReport`] per chip, in chip-index order. Stream
    /// indices inside each report match the original scenario; frame
    /// sequence numbers are chip-local (see [`FleetReport::assignments`]
    /// for the global numbering).
    #[must_use]
    pub fn per_chip(&self) -> &[StreamReport] {
        &self.per_chip
    }

    /// Every routing decision, in global arrival order. Empty when the
    /// fleet was configured with
    /// [`crate::fleet::FleetConfig::with_audit_trail`] `(false)`.
    #[must_use]
    pub fn assignments(&self) -> &[FrameAssignment] {
        &self.assignments
    }

    /// Frames turned away by admission control, in arrival order (empty
    /// under [`crate::fleet::AdmissionPolicy::AcceptAll`], and empty —
    /// regardless of drops — when the audit trail is disabled; see
    /// [`FleetReport::dropped_total`]).
    #[must_use]
    pub fn dropped(&self) -> &[DroppedFrame] {
        &self.dropped
    }

    /// Number of frames turned away by admission control. Unlike
    /// [`FleetReport::dropped`], this count survives disabling the
    /// audit trail.
    #[must_use]
    pub fn dropped_total(&self) -> usize {
        self.dropped_total
    }

    /// Number of chips.
    #[must_use]
    pub fn chips(&self) -> usize {
        self.per_chip.len()
    }

    /// Completed frames across the whole fleet (a scalar count in both
    /// report modes: sketch-mode chips count completions without
    /// retaining per-frame records).
    #[must_use]
    pub fn frames_total(&self) -> usize {
        self.per_chip.iter().map(|r| r.completed() as usize).sum()
    }

    /// Frames dispatched to one chip.
    #[must_use]
    pub fn frames_on_chip(&self, chip: usize) -> usize {
        self.per_chip[chip].completed() as usize
    }

    /// Fraction of generated frames dropped at admission.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        let generated = self.frames_total() + self.dropped_total;
        if generated == 0 {
            0.0
        } else {
            self.dropped_total as f64 / generated as f64
        }
    }

    /// Fleet makespan: the latest chip's completion time, seconds.
    #[must_use]
    pub fn makespan_s(&self) -> f64 {
        self.per_chip
            .iter()
            .map(StreamReport::makespan_s)
            .fold(self.horizon_s, f64::max)
    }

    /// Aggregate throughput: completed frames per second of fleet
    /// makespan — the headline scaling metric.
    #[must_use]
    pub fn throughput_fps(&self) -> f64 {
        let makespan = self.makespan_s();
        if makespan <= 0.0 {
            0.0
        } else {
            self.frames_total() as f64 / makespan
        }
    }

    /// Total energy across all chips, joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.per_chip.iter().map(StreamReport::total_energy_j).sum()
    }

    /// Every chip's sketch merged into one fleet-level sketch, or
    /// `None` when the fleet ran in exact mode. The merge is exact
    /// (bucket counts add), so fleet percentiles carry the same
    /// relative-error bound as each chip's. One walk runs every chip in
    /// one mode, so a report never mixes exact and sketch chips.
    fn merged_sketch(&self) -> Option<QuantileSketch> {
        let mut sketches = self.per_chip.iter().filter_map(StreamReport::sketch);
        let mut merged = sketches.next()?.clone();
        for s in sketches {
            merged.merge(s);
        }
        Some(merged)
    }

    /// Proportional-overlap window sums of `[t0, t1)` accumulated over
    /// every sketch-mode chip's fixed arrival windows.
    fn window_sums_between(&self, t0: f64, t1: f64) -> WindowSums {
        let mut total = WindowSums::default();
        for r in &self.per_chip {
            let (window_s, windows) = r.window_params();
            let s = window_sums(windows, window_s, t0, t1);
            total.frames += s.frames;
            total.deadline_frames += s.deadline_frames;
            total.missed += s.missed;
            total.latency_sum_s += s.latency_sum_s;
        }
        total
    }

    /// A latency percentile over every completed frame of every chip
    /// (nearest-rank; `q` in `[0, 1]`; 0 for an empty report). In
    /// sketch mode the per-chip sketches merge exactly, so the value is
    /// within the configured relative error of the all-frames quantile.
    #[must_use]
    pub fn latency_percentile(&self, q: f64) -> f64 {
        match self.merged_sketch() {
            Some(sketch) => sketch.quantile(q),
            None => percentile(self.all_frames().map(|f| f.latency_s), q),
        }
    }

    /// Deadline-miss rate over every completed deadline-carrying frame
    /// (admission drops are *not* counted here; see
    /// [`FleetReport::drop_rate`]). Exact in both report modes.
    #[must_use]
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.is_exact() {
            miss_rate(self.all_frames())
        } else {
            agg_miss_rate(self.per_chip.iter().flat_map(|r| r.stream_aggs()))
        }
    }

    /// Deadline-miss rate over completed deadline-carrying frames whose
    /// arrival fell in `[t0, t1)` — the fleet-level analogue of
    /// [`StreamReport::miss_rate_between`], merged across every chip.
    /// The controller's transient/recovery metrics are built on this
    /// windowed view. Sketch mode estimates from the chips' fixed
    /// arrival windows by proportional overlap.
    #[must_use]
    pub fn miss_rate_between(&self, t0: f64, t1: f64) -> f64 {
        if self.is_exact() {
            return miss_rate(
                self.all_frames()
                    .filter(|f| f.arrival_s >= t0 && f.arrival_s < t1),
            );
        }
        let s = self.window_sums_between(t0, t1);
        if s.deadline_frames > 0.0 {
            s.missed / s.deadline_frames
        } else {
            0.0
        }
    }

    /// Completed deadline-carrying frames arriving in `[t0, t1)` across
    /// every chip (exact count in exact mode; a rounded
    /// proportional-overlap estimate in sketch mode).
    #[must_use]
    pub fn deadline_frames_between(&self, t0: f64, t1: f64) -> usize {
        if self.is_exact() {
            return self
                .all_frames()
                .filter(|f| f.deadline_s.is_some() && f.arrival_s >= t0 && f.arrival_s < t1)
                .count();
        }
        self.window_sums_between(t0, t1).deadline_frames.round() as usize
    }

    /// Whether every chip report retains its full per-frame record set.
    fn is_exact(&self) -> bool {
        self.per_chip.iter().all(|r| r.mode().is_exact())
    }

    /// Per-chip deadline-miss rates, indexed by chip.
    #[must_use]
    pub fn miss_rate_by_chip(&self) -> Vec<f64> {
        self.per_chip
            .iter()
            .map(StreamReport::deadline_miss_rate)
            .collect()
    }

    /// Temporal utilization of one chip over the *fleet* makespan:
    /// busy seconds summed over its sub-accelerators, divided by
    /// `sub-accelerators x makespan`. Comparable across chips because
    /// every chip is normalized to the same clock.
    #[must_use]
    pub fn chip_utilization(&self, chip: usize) -> f64 {
        let report = &self.per_chip[chip];
        let ways = report.per_acc().len();
        let makespan = self.makespan_s();
        if ways == 0 || makespan <= 0.0 {
            return 0.0;
        }
        let busy: f64 = report.per_acc().iter().map(|a| a.busy_s).sum();
        busy / (ways as f64 * makespan)
    }

    /// Per-stream statistics merged across all chips (the
    /// fleet-level view of [`StreamReport::stream_stats`]): frame
    /// counts, latency percentiles and deadline-miss rate per original
    /// scenario stream, regardless of which chips served it. Exact mode
    /// groups every chip's records in one pass and sorts each stream's
    /// latencies once; sketch mode merges the chips' per-stream
    /// aggregates, where percentiles degrade to documented envelopes
    /// (p50 = mean, p95 = p99 = max).
    #[must_use]
    pub fn stream_stats(&self) -> Vec<StreamStats> {
        let makespan = self.makespan_s();
        if self.is_exact() {
            return exact_stream_stats(&self.stream_names, makespan, self.all_frames());
        }
        let mut aggs = vec![StreamAgg::default(); self.stream_names.len()];
        for r in &self.per_chip {
            for (i, a) in r.stream_aggs().iter().enumerate() {
                aggs[i].merge(a);
            }
        }
        sketch_stream_stats(&self.stream_names, makespan, &aggs)
    }

    /// Every completed frame across all chips.
    pub(crate) fn all_frames(&self) -> impl Iterator<Item = &FrameRecord> {
        self.per_chip.iter().flat_map(|r| r.frames().iter())
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} chips ({}): {} frames ({} dropped) in {:.3} s \
             ({:.1} fps), p95 latency {:.4} s, miss rate {:.1}%",
            self.scenario,
            self.per_chip.len(),
            self.policy,
            self.frames_total(),
            self.dropped_total,
            self.makespan_s(),
            self.throughput_fps(),
            self.latency_percentile(0.95),
            self.deadline_miss_rate() * 100.0
        )
    }
}
