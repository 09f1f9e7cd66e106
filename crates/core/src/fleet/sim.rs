//! The fleet simulator: shards one scenario's frame stream across a
//! pool of chips and runs every chip's event-driven simulation.
//!
//! The run has two deterministic phases:
//!
//! 1. **Dispatch walk** (single-threaded): the global arrival trace is
//!    generated from the scenario's seeded arrival processes — the same
//!    [`herald_workloads::seeded`] samplers the single-chip engine uses,
//!    so the frames are bit-identical — and walked in time order. The
//!    [`Dispatcher`] routes each frame to a chip using a predicted
//!    backlog model (single-frame service estimates per chip x workload
//!    version); optional [`AdmissionPolicy`] drops are recorded, never
//!    silent.
//! 2. **Per-chip simulation** (one `std::thread::scope` worker per
//!    chip): each chip replays exactly the frames routed to it, as one
//!    flat routed arrival list over the scenario's stream table, on its
//!    own [`crate::sim::StreamSimulator`] with its own private
//!    [`crate::ctx::EvalContext`]. Chip
//!    isolation makes the result independent of worker interleaving: a
//!    [`FleetReport`] is a pure function of (fleet, policy, scenario).
//!
//! A 1-chip fleet routes every frame to its only chip, and its per-chip
//! report is bit-identical to running [`crate::sim::StreamSimulator`]
//! directly on the original scenario (the equivalence suite pins this).
//!
//! Both phases live in [`crate::controller`] ([`simulate_controlled`]):
//! this simulator delegates to it with no controller, which degenerates
//! to exactly the two-phase run above.

use crate::controller::{simulate_controlled, WalkParams};
use crate::error::HeraldError;
use crate::fleet::dispatch::{AdmissionPolicy, DispatchPolicy, Dispatcher};
use crate::fleet::report::FleetReport;
use crate::fleet::FleetConfig;
use crate::sched::SchedulerConfig;
use crate::sim::{HotPathProfile, ReportMode, ReschedulePolicy};
use herald_cost::Metric;
use herald_workloads::{MultiDnnWorkload, Scenario};

/// Simulates a [`FleetConfig`] serving a [`Scenario`] under a dispatch
/// policy (see the [`crate::fleet`] module docs).
///
/// # Example
///
/// ```
/// use herald_arch::{AcceleratorClass, AcceleratorConfig};
/// use herald_core::fleet::{DispatchPolicy, FleetConfig, FleetSimulator};
/// use herald_dataflow::DataflowStyle;
/// use herald_workloads::fleet_mix_stream;
///
/// let fda = AcceleratorConfig::fda(
///     DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
/// let fleet = FleetConfig::homogeneous(&fda, 2);
/// let scenario = fleet_mix_stream(4, 40.0, 0.2, 0.25, 7);
/// let report = FleetSimulator::new(&fleet)
///     .with_dispatcher(DispatchPolicy::LeastLoaded)
///     .simulate(&scenario)
///     .unwrap();
/// assert_eq!(report.chips(), 2);
/// assert_eq!(
///     report.frames_total(),
///     report.frames_on_chip(0) + report.frames_on_chip(1),
/// );
/// ```
#[derive(Debug)]
pub struct FleetSimulator<'a> {
    fleet: &'a FleetConfig,
    params: WalkParams,
    dispatcher: DispatchPolicy,
}

impl<'a> FleetSimulator<'a> {
    /// Creates a fleet simulator with default knobs: the default
    /// scheduler, EDP metric, incremental rescheduling, round-robin
    /// dispatch and no admission control.
    pub fn new(fleet: &'a FleetConfig) -> Self {
        Self {
            fleet,
            params: WalkParams::default(),
            dispatcher: DispatchPolicy::default(),
        }
    }

    /// Chooses how every per-chip report aggregates frames (see
    /// [`crate::sim::StreamSimulator::with_report_mode`]);
    /// fleet-level percentiles merge the per-chip sketches exactly.
    #[must_use]
    pub fn with_report_mode(mut self, report: ReportMode) -> Self {
        self.params.report = report;
        self
    }

    /// Overrides the per-chip online scheduler configuration.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.params.scheduler = scheduler;
        self
    }

    /// Overrides the metric used when a reconfigurable sub-accelerator
    /// picks its per-layer dataflow.
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.params.metric = metric;
        self
    }

    /// Overrides the per-chip rescheduling policy (incremental by
    /// default).
    #[must_use]
    pub fn with_policy(mut self, policy: ReschedulePolicy) -> Self {
        self.params.reschedule = policy;
        self
    }

    /// Sets the dispatch policy (round-robin by default).
    #[must_use]
    pub fn with_dispatcher(mut self, dispatcher: DispatchPolicy) -> Self {
        self.dispatcher = dispatcher;
        self
    }

    /// Sets the admission policy (accept-all by default).
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.params.admission = admission;
        self
    }

    /// Runs the scenario across the fleet under the configured
    /// [`DispatchPolicy`].
    ///
    /// # Errors
    ///
    /// * [`HeraldError::Fleet`] — the fleet has no chips;
    /// * [`HeraldError::Scenario`] — degenerate scenario description;
    /// * [`HeraldError::Simulation`] — a schedule failed to replay
    ///   (indicates a scheduler bug);
    /// * [`HeraldError::WorkerPanicked`] — a per-chip worker panicked.
    pub fn simulate(&self, scenario: &Scenario) -> Result<FleetReport, HeraldError> {
        let mut dispatcher = self.dispatcher.build();
        self.simulate_with(dispatcher.as_mut(), scenario)
    }

    /// Like [`FleetSimulator::simulate`] with a caller-provided
    /// (possibly custom) [`Dispatcher`]. The dispatcher must be
    /// deterministic for the report to be reproducible.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FleetSimulator::simulate`], plus
    /// [`HeraldError::Fleet`] when the dispatcher returns an
    /// out-of-range chip index.
    pub fn simulate_with(
        &self,
        dispatcher: &mut dyn Dispatcher,
        scenario: &Scenario,
    ) -> Result<FleetReport, HeraldError> {
        simulate_controlled(self.fleet, &self.params, dispatcher, scenario, None, false)
            .map(|(report, _)| report.into_fleet())
    }

    /// [`FleetSimulator::simulate`] plus the merged
    /// [`HotPathProfile`] of every per-chip run, the dispatch walk's
    /// wall time (`profile.walk_ns`) and its own byte accounting
    /// (`profile.mem`: routed trace lists, audit trails,
    /// service-estimate tables). The report is bit-identical to the
    /// unprofiled entry point.
    ///
    /// # Errors
    ///
    /// As for [`FleetSimulator::simulate`].
    pub fn simulate_profiled(
        &self,
        scenario: &Scenario,
    ) -> Result<(FleetReport, HotPathProfile), HeraldError> {
        let mut dispatcher = self.dispatcher.build();
        simulate_controlled(
            self.fleet,
            &self.params,
            dispatcher.as_mut(),
            scenario,
            None,
            true,
        )
        .map(|(report, profile)| (report.into_fleet(), profile))
    }
}

/// Every stream's workload versions as one flat table of distinct
/// workload indices: `index[offsets[s]..offsets[s + 1]]` are stream `s`'s
/// versions in order. Built by [`distinct_workloads`].
pub(crate) struct WorkloadIndex {
    offsets: Vec<u32>,
    index: Vec<u32>,
}

impl WorkloadIndex {
    /// Distinct-workload index of a stream's workload version.
    #[cfg(test)]
    pub(crate) fn workload(&self, stream: usize, version: usize) -> usize {
        self.index[self.offsets[stream] as usize + version] as usize
    }

    /// Every stream's row at the start of a walk: its first version and
    /// its deadline.
    pub(crate) fn walk_rows(&self, scenario: &Scenario) -> Vec<WalkRow> {
        scenario
            .streams()
            .iter()
            .zip(&self.offsets)
            .map(|(spec, &at)| WalkRow {
                at,
                workload: self.index[at as usize],
                deadline_s: spec.deadline_s().unwrap_or(f64::INFINITY),
            })
            .collect()
    }

    /// Bytes retained by the offsets and the index.
    pub(crate) fn memory_bytes(&self) -> u64 {
        ((self.offsets.capacity() + self.index.capacity()) * std::mem::size_of::<u32>()) as u64
    }
}

/// One stream's row in a dispatch walk: the distinct workload of its
/// current version, which picks its estimate cells, and its deadline. An arrival reads only this row; a swap moves it to the next
/// version.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalkRow {
    /// Position of the current version in [`WorkloadIndex`]'s flat index.
    at: u32,
    /// Distinct workload of the current version.
    pub(crate) workload: u32,
    /// The stream's deadline, `f64::INFINITY` when it has none (a
    /// validated deadline is finite).
    deadline_s: f64,
}

impl WalkRow {
    /// A row that tracks the deadline only, for walks that read no
    /// estimates.
    pub(crate) fn deadline_only(deadline_s: Option<f64>) -> Self {
        Self {
            at: 0,
            workload: 0,
            deadline_s: deadline_s.unwrap_or(f64::INFINITY),
        }
    }

    /// The stream's deadline.
    pub(crate) fn deadline(&self) -> Option<f64> {
        self.deadline_s.is_finite().then_some(self.deadline_s)
    }

    /// Moves the row to the stream's next workload version (a swap event).
    pub(crate) fn swap(&mut self, index: &WorkloadIndex) {
        self.at += 1;
        self.workload = index.index[self.at as usize];
    }
}

/// The workload-deduplication rule of the service estimator
/// ([`crate::controller::Estimator`]): per stream, the workload versions are the initial workload plus one
/// entry per swap inside the horizon (the same filter the single-chip
/// engine applies to swap events); structurally equal workloads collapse
/// to a single distinct entry. Returns the distinct workloads and the
/// per-(stream, version) index into them.
pub(crate) fn distinct_workloads(scenario: &Scenario) -> (Vec<&MultiDnnWorkload>, WorkloadIndex) {
    let horizon = scenario.horizon_s();
    let streams = scenario.streams();
    let mut distinct: Vec<&MultiDnnWorkload> = Vec::new();
    let mut offsets: Vec<u32> = Vec::with_capacity(streams.len() + 1);
    let total_versions: usize = streams
        .iter()
        .map(|s| 1 + s.swaps().iter().filter(|sw| sw.at_s < horizon).count())
        .sum();
    let mut index: Vec<u32> = Vec::with_capacity(total_versions);
    for s in streams {
        offsets.push(u32::try_from(index.len()).expect("workload versions overflow u32"));
        let versions = std::iter::once(s.workload()).chain(
            s.swaps()
                .iter()
                .filter(|sw| sw.at_s < horizon)
                .map(|sw| &sw.workload),
        );
        for w in versions {
            // `same_structure` is the shared-`Arc` fast path of `==`: a
            // million tenants instantiated from one cloned workload
            // dedupe by pointer identity, not by deep model comparison.
            let d = match distinct.iter().position(|d| d.same_structure(w)) {
                Some(i) => i,
                None => {
                    distinct.push(w);
                    distinct.len() - 1
                }
            };
            index.push(d as u32);
        }
    }
    offsets.push(index.len() as u32);
    (distinct, WorkloadIndex { offsets, index })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::dispatch::{ChipLoad, FrameView};
    use herald_arch::{AcceleratorClass, AcceleratorConfig};
    use herald_dataflow::DataflowStyle;
    use herald_models::zoo;
    use herald_workloads::{single_model, StreamSpec};

    fn fda(style: DataflowStyle) -> AcceleratorConfig {
        AcceleratorConfig::fda(style, AcceleratorClass::Edge.resources())
    }

    fn bursty_scenario(seed: u64) -> Scenario {
        Scenario::new("bursty", 0.08)
            .stream(
                StreamSpec::poisson("cam", single_model(zoo::mobilenet_v1(), 1), 120.0, seed)
                    .with_deadline(0.02),
            )
            .stream(
                StreamSpec::poisson(
                    "aux",
                    single_model(zoo::mobilenet_v2(), 1),
                    60.0,
                    herald_workloads::seeded::derive_seed(seed, 1),
                )
                .with_deadline(0.05),
            )
    }

    #[test]
    fn walk_timer_runs_only_on_profiled_fleet_runs() {
        let fleet = FleetConfig::homogeneous(&fda(DataflowStyle::Nvdla), 2);
        let scenario = bursty_scenario(5);
        let sim = FleetSimulator::new(&fleet);
        let (report, profile) = sim.simulate_profiled(&scenario).unwrap();
        assert!(profile.walk_ns > 0, "a profiled fleet run times its walk");
        assert_eq!(report, sim.simulate(&scenario).unwrap());
        let mut dispatcher = sim.dispatcher.build();
        let (_, untimed) = simulate_controlled(
            &fleet,
            &sim.params,
            dispatcher.as_mut(),
            &scenario,
            None,
            false,
        )
        .unwrap();
        assert_eq!(untimed.walk_ns, 0, "only a timed walk is recorded");
        let cost = herald_cost::CostModel::default();
        let (_, chip) = crate::sim::StreamSimulator::new(&fleet.chips()[0], &cost)
            .simulate_profiled(&crate::sched::HeraldScheduler::default(), &scenario)
            .unwrap();
        assert_eq!(chip.walk_ns, 0, "a single-chip run has no walk");
    }

    #[test]
    fn estimate_bytes_are_the_index_and_the_cells_a_walk_reads() {
        // Round-robin without admission control reads no estimate, so no
        // estimator is built. A load-aware walk keeps the workload index,
        // (streams + 1) offsets and one entry per version, and one 8 B
        // cell per (distinct configuration, distinct workload).
        let fleet = FleetConfig::homogeneous(&fda(DataflowStyle::Nvdla), 2);
        let scenario = bursty_scenario(5);
        let estimate_bytes = |policy| {
            FleetSimulator::new(&fleet)
                .with_dispatcher(policy)
                .simulate_profiled(&scenario)
                .unwrap()
                .1
                .mem
                .estimate_bytes
        };
        assert_eq!(estimate_bytes(DispatchPolicy::RoundRobin), 0);
        let index = (scenario.streams().len() + 1 + 2) * 4;
        let cells = 2 * 8;
        assert_eq!(
            estimate_bytes(DispatchPolicy::LeastLoaded),
            (index + cells) as u64
        );
    }

    /// 40 tenants on five shared workloads, deadlines tight enough that
    /// some frames miss, on two edge chips.
    fn tenant_fleet() -> (FleetConfig, Scenario) {
        let chip = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            herald_arch::Partition::even(2, 1024, 16.0),
        )
        .unwrap();
        let scenario = herald_workloads::diurnal_fleet_stream(40, 100.0, 200.0, 0.02, 1.0, 9);
        (FleetConfig::homogeneous(&chip, 2), scenario)
    }

    #[test]
    fn sketch_aggregates_equal_an_exact_recomputation() {
        // The oracle: each chip's exact frame records, folded per stream
        // by hand. The sketch run keeps no records, only its aggregates.
        let (fleet, scenario) = tenant_fleet();
        let run = |mode| {
            FleetSimulator::new(&fleet)
                .with_dispatcher(DispatchPolicy::LeastLoaded)
                .with_report_mode(mode)
                .simulate(&scenario)
                .unwrap()
        };
        let exact = run(ReportMode::Exact);
        let sketch = run(ReportMode::sketch());
        let mut missed = 0;
        for (e, k) in exact.per_chip().iter().zip(sketch.per_chip()) {
            let aggs = k.stream_aggs();
            assert_eq!(aggs.len(), scenario.streams().len());
            for (s, agg) in aggs.iter().enumerate() {
                let frames: Vec<_> = e.frames().iter().filter(|f| f.stream == s).collect();
                let latencies = frames.iter().map(|f| f.latency_s);
                assert_eq!(agg.frames, frames.len() as u64, "stream {s}");
                assert_eq!(
                    agg.deadline_frames,
                    frames.iter().filter(|f| f.deadline_s.is_some()).count() as u64
                );
                assert_eq!(
                    agg.missed,
                    frames.iter().filter(|f| f.missed).count() as u64
                );
                missed += agg.missed;
                if frames.is_empty() {
                    assert_eq!(*agg, crate::sim::StreamAgg::default());
                    continue;
                }
                let min = latencies.clone().fold(f64::INFINITY, f64::min);
                let max = latencies.clone().fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(agg.latency_min_s.to_bits(), min.to_bits(), "stream {s}");
                assert_eq!(agg.latency_max_s.to_bits(), max.to_bits(), "stream {s}");
                let sum: f64 = latencies.sum();
                assert!(
                    (agg.latency_sum_s - sum).abs() <= 1e-12 * sum,
                    "stream {s}: {} vs {sum}",
                    agg.latency_sum_s
                );
            }
        }
        assert!(missed > 0, "the scenario exercises the miss counters");
    }

    #[test]
    fn fleet_stream_stats_equal_a_recomputation_from_every_chip() {
        let (fleet, scenario) = tenant_fleet();
        let run = |fleet: &FleetConfig, mode| {
            FleetSimulator::new(fleet)
                .with_dispatcher(DispatchPolicy::LeastLoaded)
                .with_report_mode(mode)
                .simulate(&scenario)
                .unwrap()
        };
        let exact = run(&fleet, ReportMode::Exact);
        let sketch = run(&fleet, ReportMode::sketch());
        let (stats, envelopes) = (exact.stream_stats(), sketch.stream_stats());
        assert_eq!(stats.len(), scenario.streams().len());
        let makespan = exact.makespan_s();
        let mut split = 0;
        for (s, (st, env)) in stats.iter().zip(&envelopes).enumerate() {
            // The oracle: this stream's frames from every chip's records.
            let frames: Vec<_> = exact
                .per_chip()
                .iter()
                .flat_map(|r| r.frames())
                .filter(|f| f.stream == s)
                .collect();
            split += usize::from(
                exact
                    .per_chip()
                    .iter()
                    .all(|r| r.frames().iter().any(|f| f.stream == s)),
            );
            let mut lat: Vec<f64> = frames.iter().map(|f| f.latency_s).collect();
            lat.sort_by(f64::total_cmp);
            let n = lat.len();
            let rank = |q: f64| lat[((q * n as f64).ceil() as usize).max(1) - 1];
            let deadline = frames.iter().filter(|f| f.deadline_s.is_some()).count();
            let missed = frames.iter().filter(|f| f.missed).count();
            let miss = if deadline == 0 {
                0.0
            } else {
                missed as f64 / deadline as f64
            };
            assert_eq!(st.name, scenario.streams()[s].name());
            assert_eq!(st.frames, n, "stream {s}");
            assert_eq!(env.frames, n, "stream {s}");
            assert_eq!(
                st.deadline_miss_rate.to_bits(),
                miss.to_bits(),
                "stream {s}"
            );
            assert_eq!(
                env.deadline_miss_rate.to_bits(),
                miss.to_bits(),
                "stream {s}"
            );
            if n == 0 {
                assert_eq!((st.mean_latency_s, st.p99_latency_s), (0.0, 0.0));
                continue;
            }
            let mean = lat.iter().sum::<f64>() / n as f64;
            let throughput = n as f64 / makespan;
            assert_eq!(st.throughput_fps.to_bits(), throughput.to_bits());
            assert_eq!(st.mean_latency_s.to_bits(), mean.to_bits(), "stream {s}");
            assert_eq!(st.p50_latency_s.to_bits(), rank(0.50).to_bits());
            assert_eq!(st.p95_latency_s.to_bits(), rank(0.95).to_bits());
            assert_eq!(st.p99_latency_s.to_bits(), rank(0.99).to_bits());
            // Sketch mode merges the chips' aggregates: p50 is the mean,
            // p95 and p99 the max.
            assert!(
                (env.p50_latency_s - mean).abs() <= 1e-12 * mean,
                "stream {s}"
            );
            assert_eq!(env.p95_latency_s.to_bits(), lat[n - 1].to_bits());
            assert_eq!(env.p99_latency_s.to_bits(), lat[n - 1].to_bits());
        }
        assert!(split > 0, "some stream is served by both chips");
        // On one chip the fleet view is the chip's own.
        let one = FleetConfig::homogeneous(&fleet.chips()[0], 1);
        for mode in [ReportMode::Exact, ReportMode::sketch()] {
            let report = run(&one, mode);
            assert_eq!(report.stream_stats(), report.per_chip()[0].stream_stats());
        }
    }

    #[test]
    fn compile_work_counters_are_exact_and_repeat() {
        // Per chip, a stream's first frame compiles through the chip's
        // memo: the first stream of a workload misses, every later one
        // hits. A hit hands back the memo's own `Arc`, so no compile
        // deep-compares, and an entry walks the graph once, on its
        // first hit.
        let (fleet, scenario) = tenant_fleet();
        let run = || {
            FleetSimulator::new(&fleet)
                .with_dispatcher(DispatchPolicy::LeastLoaded)
                .with_report_mode(ReportMode::sketch())
                .simulate_profiled(&scenario)
                .unwrap()
        };
        let (report, p) = run();
        let rotation = 5;
        let (mut lookups, mut misses, mut walks) = (0, 0, 0);
        for chip in report.per_chip() {
            let served: Vec<usize> = (0..scenario.streams().len())
                .filter(|&s| chip.stream_aggs()[s].frames > 0)
                .collect();
            lookups += served.len() as u64;
            for w in 0..rotation {
                let streams = served.iter().filter(|&&s| s % rotation == w).count() as u64;
                misses += streams.min(1);
                walks += u64::from(streams >= 2);
            }
        }
        assert_eq!(p.fingerprint_lookups, lookups);
        assert_eq!(p.schedule_compiles, misses);
        assert_eq!(p.verify_graph_walks, walks);
        assert_eq!(
            walks,
            2 * rotation as u64,
            "every workload is shared on both chips"
        );
        assert_eq!(p.schedule_deep_compares, 0);
        let work = |p: &crate::sim::HotPathProfile| {
            (
                p.fingerprint_lookups,
                p.schedule_compiles,
                p.verify_graph_walks,
                p.schedule_deep_compares,
            )
        };
        assert_eq!(work(&run().1), work(&p));

        // A scheduler without a memo hands back a fresh schedule on every
        // compile, so every stream after a workload's first falls back to
        // a deep compare against the interned schedule.
        let cost = herald_cost::CostModel::default();
        let (single, p) = crate::sim::StreamSimulator::new(&fleet.chips()[0], &cost)
            .with_report_mode(ReportMode::sketch())
            .simulate_profiled(&crate::sched::HeraldScheduler::default(), &scenario)
            .unwrap();
        let served = single.stream_aggs().iter().filter(|a| a.frames > 0).count() as u64;
        assert_eq!(p.schedule_compiles, served);
        assert_eq!(p.schedule_deep_compares, served - rotation as u64);
        assert_eq!((p.fingerprint_lookups, p.verify_graph_walks), (0, 0));
    }

    #[test]
    fn every_frame_lands_on_exactly_one_chip() {
        let fleet = FleetConfig::homogeneous(&fda(DataflowStyle::Nvdla), 3);
        let scenario = bursty_scenario(5);
        for policy in DispatchPolicy::ALL {
            let report = FleetSimulator::new(&fleet)
                .with_dispatcher(policy)
                .simulate(&scenario)
                .unwrap();
            let per_chip_sum: usize = (0..report.chips()).map(|c| report.frames_on_chip(c)).sum();
            assert_eq!(report.frames_total(), per_chip_sum);
            assert_eq!(report.assignments().len(), per_chip_sum, "{policy:?}");
            assert!(report.dropped().is_empty());
            // Assignment counts match what each chip actually simulated.
            for c in 0..report.chips() {
                let assigned = report.assignments().iter().filter(|a| a.chip == c).count();
                assert_eq!(assigned, report.frames_on_chip(c), "{policy:?} chip {c}");
            }
        }
    }

    #[test]
    fn fleet_reports_are_bit_identical_across_runs() {
        let fleet = FleetConfig::new()
            .chip(fda(DataflowStyle::Nvdla))
            .chip(fda(DataflowStyle::ShiDianNao));
        let scenario = bursty_scenario(11);
        for policy in DispatchPolicy::ALL {
            let run = || {
                FleetSimulator::new(&fleet)
                    .with_dispatcher(policy)
                    .simulate(&scenario)
                    .unwrap()
            };
            let a = run();
            let b = run();
            assert_eq!(a, b, "{policy:?} must be reproducible");
        }
    }

    #[test]
    fn round_robin_alternates_chips() {
        let fleet = FleetConfig::homogeneous(&fda(DataflowStyle::Nvdla), 2);
        let scenario = Scenario::new("periodic", 0.05).stream(StreamSpec::periodic(
            "s",
            single_model(zoo::mobilenet_v1(), 1),
            100.0,
        ));
        let report = FleetSimulator::new(&fleet).simulate(&scenario).unwrap();
        assert_eq!(report.policy(), "round-robin");
        let chips: Vec<usize> = report.assignments().iter().map(|a| a.chip).collect();
        assert_eq!(chips, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn least_loaded_beats_round_robin_p95_on_bursty_traffic() {
        // Bursty Poisson arrivals on a small fleet: load-aware routing
        // must not produce *worse* tails than blind alternation, and
        // conservation holds for both.
        let fleet = FleetConfig::homogeneous(&fda(DataflowStyle::Nvdla), 2);
        let scenario = bursty_scenario(17);
        let run = |policy| {
            FleetSimulator::new(&fleet)
                .with_dispatcher(policy)
                .simulate(&scenario)
                .unwrap()
        };
        let rr = run(DispatchPolicy::RoundRobin);
        let ll = run(DispatchPolicy::LeastLoaded);
        assert_eq!(rr.frames_total(), ll.frames_total());
        assert!(
            ll.latency_percentile(0.95) <= rr.latency_percentile(0.95) + 1e-12,
            "least-loaded p95 {} vs round-robin p95 {}",
            ll.latency_percentile(0.95),
            rr.latency_percentile(0.95)
        );
    }

    #[test]
    fn admission_control_drops_hopeless_frames_under_overload() {
        // One chip, a rate far beyond capacity and a tight deadline:
        // with slack 1.0 the backlog model predicts misses almost
        // immediately, so most frames are dropped and every drop is
        // recorded with its evidence.
        let fleet = FleetConfig::homogeneous(&fda(DataflowStyle::Nvdla), 1);
        let scenario = Scenario::new("overload", 0.02).stream(
            StreamSpec::periodic("s", single_model(zoo::mobilenet_v1(), 1), 400.0)
                .with_deadline(0.004),
        );
        let accept_all = FleetSimulator::new(&fleet)
            .with_dispatcher(DispatchPolicy::DeadlineAware)
            .simulate(&scenario)
            .unwrap();
        let gated = FleetSimulator::new(&fleet)
            .with_dispatcher(DispatchPolicy::DeadlineAware)
            .with_admission(AdmissionPolicy::DeadlineSlack { slack: 1.0 })
            .simulate(&scenario)
            .unwrap();
        assert!(accept_all.dropped().is_empty());
        assert!(!gated.dropped().is_empty());
        assert_eq!(
            gated.frames_total() + gated.dropped().len(),
            accept_all.frames_total(),
            "drops + completions account for every generated frame"
        );
        assert!(gated.drop_rate() > 0.0);
        for d in gated.dropped() {
            assert!(d.predicted_finish_s > d.arrival_s + 0.004);
        }
        // Served frames miss less often than the un-gated queue.
        assert!(gated.deadline_miss_rate() <= accept_all.deadline_miss_rate());
    }

    #[test]
    fn degenerate_admission_slack_is_a_typed_error() {
        let fleet = FleetConfig::homogeneous(&fda(DataflowStyle::Nvdla), 1);
        for slack in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            let err = FleetSimulator::new(&fleet)
                .with_admission(AdmissionPolicy::DeadlineSlack { slack })
                .simulate(&bursty_scenario(1))
                .unwrap_err();
            assert!(matches!(err, HeraldError::Fleet { .. }), "slack {slack}");
        }
    }

    #[test]
    fn empty_fleet_is_a_typed_error() {
        let fleet = FleetConfig::new();
        let err = FleetSimulator::new(&fleet)
            .simulate(&bursty_scenario(1))
            .unwrap_err();
        assert!(matches!(err, HeraldError::Fleet { .. }));
    }

    #[test]
    fn out_of_range_dispatcher_is_a_typed_error() {
        struct Broken;
        impl Dispatcher for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn dispatch(&mut self, _: &FrameView<'_>, chips: &[ChipLoad]) -> usize {
                chips.len() + 7
            }
        }
        let fleet = FleetConfig::homogeneous(&fda(DataflowStyle::Nvdla), 1);
        let err = FleetSimulator::new(&fleet)
            .simulate_with(&mut Broken, &bursty_scenario(1))
            .unwrap_err();
        assert!(matches!(err, HeraldError::Fleet { .. }), "{err}");
    }

    #[test]
    fn sketch_mode_memory_stays_flat_as_streams_grow_10x() {
        // The million-stream contract: with the audit trail off and the
        // sketch report mode on, the tracked footprint must not scale
        // with the stream count — the O(frames) categories stay flat at
        // a fixed aggregate arrival rate, and the only stream-scaled
        // storage is the per-stream scalar aggregates.
        use crate::sim::MemProfile;
        let fleet = FleetConfig::homogeneous(&fda(DataflowStyle::Nvdla), 2).with_audit_trail(false);
        let scenario_with = |streams: usize| {
            let shared = single_model(zoo::mobilenet_v1(), 1);
            let mut s = Scenario::new(format!("flat-{streams}"), 0.5);
            for i in 0..streams {
                s = s.stream(StreamSpec::poisson(
                    format!("s{i}"),
                    shared.clone(),
                    400.0 / streams as f64,
                    herald_workloads::seeded::derive_seed(7, i as u64),
                ));
            }
            s
        };
        let run = |streams: usize| {
            let (report, profile) = FleetSimulator::new(&fleet)
                .with_report_mode(crate::sim::ReportMode::sketch())
                .simulate_profiled(&scenario_with(streams))
                .unwrap();
            (report.frames_total(), profile.mem)
        };
        let (frames_1x, mem_1x) = run(20);
        let (frames_10x, mem_10x) = run(200);
        assert!(frames_1x > 0 && frames_10x > 0);
        // The audit trail really is off.
        assert_eq!(mem_1x.audit_bytes, 0);
        assert_eq!(mem_10x.audit_bytes, 0);
        assert_eq!(mem_1x.span_bytes, 0);
        // O(frames) categories are flat: same aggregate rate, so 10x
        // the streams must not move them beyond seed noise (2x covers
        // a capacity-doubling boundary) plus a page of slack.
        let flat = |m: &MemProfile| m.trace_bytes + m.frame_bytes + m.span_bytes + m.sketch_bytes;
        assert!(
            flat(&mem_10x) <= 2 * flat(&mem_1x) + 4096,
            "O(frames) bytes scaled with streams: {} at 1x vs {} at 10x",
            flat(&mem_1x),
            flat(&mem_10x)
        );
        // Per-stream scalar aggregates grow at most linearly.
        assert!(
            mem_10x.agg_bytes <= 10 * mem_1x.agg_bytes,
            "per-stream aggregates grew superlinearly: {} -> {}",
            mem_1x.agg_bytes,
            mem_10x.agg_bytes
        );
        // Headline: 10x the streams costs well under 10x the bytes.
        assert!(
            mem_10x.report_trace_bytes() < 3 * mem_1x.report_trace_bytes(),
            "footprint must stay near-flat under 10x streams: {} -> {}",
            mem_1x.report_trace_bytes(),
            mem_10x.report_trace_bytes()
        );
    }

    #[test]
    fn workload_swaps_propagate_to_every_chip() {
        let fleet = FleetConfig::homogeneous(&fda(DataflowStyle::Nvdla), 2);
        let scenario = Scenario::new("swap", 0.04).stream(
            StreamSpec::periodic("s", single_model(zoo::mobilenet_v1(), 1), 200.0)
                .swap_at(0.02, single_model(zoo::mobilenet_v2(), 1)),
        );
        let report = FleetSimulator::new(&fleet)
            .with_dispatcher(DispatchPolicy::LeastLoaded)
            .simulate(&scenario)
            .unwrap();
        // Both chips see the swap event and run post-swap frames on the
        // new workload.
        for chip in report.per_chip() {
            assert_eq!(chip.swaps().len(), 1);
            for f in chip.frames() {
                let expect = if f.arrival_s < 0.02 {
                    "MobileNetV1-b1"
                } else {
                    "MobileNetV2-b1"
                };
                assert_eq!(&*f.workload, expect);
            }
        }
        let post_swap = report
            .per_chip()
            .iter()
            .flat_map(|c| c.frames())
            .filter(|f| f.arrival_s >= 0.02)
            .count();
        assert!(post_swap > 0);
    }
}
