//! Fleet-composition design-space exploration: *which chips should the
//! fleet be built from*, not just how one chip is partitioned.
//!
//! The single-chip [`DseEngine`](crate::dse::DseEngine) answers the
//! paper's question — partition one budget across sub-accelerators and
//! co-optimize the schedule. The [`FleetSimulator`] answers the serving
//! question — given a fleet, how does it handle traffic. This module
//! closes the loop between them: given a traffic [`Scenario`], a menu
//! of candidate chip designs (typically single-chip search winners plus
//! FDA baselines, possibly at different provisioning points), a chip
//! count range and an area budget, [`FleetDseEngine`] enumerates fleet
//! compositions × dispatch policies, evaluates them with the fleet
//! simulator, and emits a Pareto frontier over
//! {throughput, p99 latency, deadline-miss rate, total area}.
//!
//! Exhaustively simulating every candidate would dominate the search
//! cost, so the engine prunes in three stages, each recorded in
//! [`FleetSearchStats`]:
//!
//! 1. **Budget filter** — compositions whose summed
//!    [`AcceleratorConfig::area_mm2`] exceeds the budget are never
//!    candidates (kept iff `area <= budget`, exactly).
//! 2. **Equivalence memo** — candidates provably bit-identical to an
//!    already-enumerated candidate are skipped: every dispatch policy
//!    routes identically on a 1-chip fleet, and on a *homogeneous*
//!    fleet least-loaded and deadline-aware pick the same chip for
//!    every frame (equal service estimates make earliest-finish and
//!    smallest-backlog the same argmin, with the same index tie-break).
//! 3. **Dominance pruning** — every remaining candidate gets a cheap
//!    *predicted* evaluation: the fleet simulator's own dispatch walk
//!    (backlog model over the exact global arrival trace, service
//!    estimates from one lazy estimator per fusion level that every
//!    candidate reads, memoized in the shared [`EvalContext`]), reading
//!    each admitted frame's predicted finish instead of running any
//!    per-chip event simulation. Candidates whose predicted objective
//!    vector is Pareto-dominated by another candidate's are skipped;
//!    only the predicted frontier is fully simulated (in parallel, one
//!    `std::thread::scope` worker per chunk, each fleet simulation
//!    giving every chip its own private context). The screening is a standard surrogate heuristic: the
//!    reported frontier is exact over the simulated survivors.
//!
//! The ergonomic entry point is `herald::Experiment::fleet_search` in
//! the umbrella crate, which can also derive the chip menu from a
//! single-chip search.
//!
//! # Example
//!
//! ```
//! use herald_arch::{AcceleratorClass, AcceleratorConfig};
//! use herald_core::dse::{FleetDseConfig, FleetDseEngine};
//! use herald_core::error::HeraldError;
//! use herald_dataflow::DataflowStyle;
//!
//! # fn main() -> Result<(), HeraldError> {
//! let res = AcceleratorClass::Edge.resources();
//! let menu = [
//!     AcceleratorConfig::fda(DataflowStyle::Nvdla, res),
//!     AcceleratorConfig::fda(DataflowStyle::ShiDianNao, res),
//! ];
//! let scenario = herald_workloads::fleet_mix_stream(2, 60.0, 0.1, 0.1, 7);
//! let outcome = FleetDseEngine::new(FleetDseConfig::fast()).search(&scenario, &menu)?;
//! assert!(!outcome.frontier().is_empty());
//! // Something was pruned without a full simulation.
//! assert!(outcome.stats().skipped() > 0);
//! # Ok(())
//! # }
//! ```

use crate::controller::{walk, Estimator};
use crate::ctx::EvalContext;
use crate::dse::map_chunked;
use crate::error::HeraldError;
use crate::fleet::{AdmissionPolicy, DispatchPolicy, FleetConfig, FleetSimulator};
use crate::pareto::pareto_frontier_nd;
use crate::sched::{HeraldScheduler, IncrementalScheduler, SchedulerConfig};
use crate::sim::engine::{reject_chained, validate_scenario};
use crate::sim::report::{percentile, QuantileSketch, ReportMode};
use herald_arch::AcceleratorConfig;
use herald_cost::Metric;
use herald_workloads::Scenario;
use serde::{Deserialize, Serialize};

/// Fleet-search tuning knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetDseConfig {
    /// Smallest fleet size enumerated (chips).
    pub min_chips: usize,
    /// Largest fleet size enumerated (chips).
    pub max_chips: usize,
    /// Total-area budget, mm² ([`AcceleratorConfig::area_mm2`] summed
    /// over the composition); `None` (or `+inf`) disables the filter.
    /// Compositions are kept iff `area <= budget`, exactly; a NaN
    /// budget or one below the cheapest minimal fleet is a typed
    /// error.
    pub max_area_mm2: Option<f64>,
    /// Dispatch policies paired with every composition.
    pub policies: Vec<DispatchPolicy>,
    /// Admission policy applied by every evaluation.
    pub admission: AdmissionPolicy,
    /// Per-chip online scheduler configuration.
    pub scheduler: SchedulerConfig,
    /// Fusion granularities swept as a design dimension: every
    /// in-budget composition × policy pair is evaluated once per level
    /// (the per-chip scheduler's `fusion` overridden per candidate).
    /// The default `[1]` is whole-layer placement — the historical
    /// search, bit-identical by construction. Levels are clamped to at
    /// least 1 and deduplicated; an empty list means `[1]`.
    #[serde(default = "default_fleet_fusion_levels")]
    pub fusion_levels: Vec<usize>,
    /// Metric a reconfigurable sub-accelerator optimizes per layer.
    pub metric: Metric,
    /// How evaluations aggregate per-frame observations. `Exact` (the
    /// default) keeps every frame latency; `Sketch` streams them
    /// through a [`QuantileSketch`], with report-level percentiles
    /// within the sketch's relative-error bound. Either way the
    /// surrogate screening walk holds its routed arrival lists (16 B per
    /// admitted frame) while it screens one candidate, which is no more
    /// than that candidate's full simulation allocates.
    #[serde(default)]
    pub report: ReportMode,
    /// Simulate surviving candidates on worker threads.
    pub parallel: bool,
}

/// Serde default for [`FleetDseConfig::fusion_levels`]: searches
/// recorded before the fusion dimension existed deserialize as the
/// layer-placement search.
fn default_fleet_fusion_levels() -> Vec<usize> {
    vec![1]
}

impl Default for FleetDseConfig {
    fn default() -> Self {
        Self {
            min_chips: 1,
            max_chips: 4,
            max_area_mm2: None,
            policies: DispatchPolicy::ALL.to_vec(),
            admission: AdmissionPolicy::AcceptAll,
            scheduler: SchedulerConfig::default(),
            fusion_levels: vec![1],
            metric: Metric::Edp,
            report: ReportMode::Exact,
            parallel: true,
        }
    }
}

impl FleetDseConfig {
    /// A coarse, fast configuration for examples and tests: fleets of
    /// at most two chips, post-processing disabled.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            max_chips: 2,
            scheduler: SchedulerConfig {
                post_process: false,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The effective fusion sweep (see [`FleetDseConfig::fusion_levels`]).
    #[must_use]
    pub fn fusion_sweep(&self) -> Vec<usize> {
        crate::dse::effective_fusion_sweep(&self.fusion_levels)
    }
}

/// One fully simulated fleet design: a chip composition, a dispatch
/// policy, and the exact serving metrics the fleet simulator measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCandidate {
    /// Indices into the search's chip menu, sorted ascending (the
    /// composition is a multiset — order never matters).
    pub chips: Vec<usize>,
    /// Display label, e.g. `"2xFDA-NVDLA + 1xMaelstrom"`.
    pub composition: String,
    /// The dispatch policy evaluated with this composition.
    pub policy: DispatchPolicy,
    /// Fusion granularity every chip's scheduler placed at (1 = layer
    /// placement; candidates recorded before the fusion dimension
    /// existed deserialize as 1).
    #[serde(default = "default_candidate_fusion")]
    pub fusion: usize,
    /// Total silicon area of the composition, mm².
    pub area_mm2: f64,
    /// Aggregate completed frames per second of fleet makespan.
    pub throughput_fps: f64,
    /// p99 frame latency across every completed frame, seconds.
    pub p99_latency_s: f64,
    /// Deadline-miss rate over completed deadline-carrying frames.
    pub deadline_miss_rate: f64,
    /// Fraction of generated frames shed at admission.
    pub drop_rate: f64,
    /// Completed frames.
    pub frames: usize,
}

impl FleetCandidate {
    /// The minimization objective vector the frontier is computed over:
    /// `[-throughput, p99 latency, deadline-miss rate, area]`.
    #[must_use]
    pub fn objectives(&self) -> [f64; 4] {
        [
            -self.throughput_fps,
            self.p99_latency_s,
            self.deadline_miss_rate,
            self.area_mm2,
        ]
    }
}

/// Where every enumerated candidate went: simulated, or pruned before a
/// full simulation (and why). `budget_filtered` counts compositions
/// (pre-policy pairing); the other counters count (composition, policy)
/// candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FleetSearchStats {
    /// Compositions rejected by the area budget (never candidates).
    pub budget_filtered: usize,
    /// Candidates skipped as provably bit-identical to an enumerated
    /// sibling (1-chip policy invariance, homogeneous LL ≡ DA).
    pub memo_skips: usize,
    /// Candidates skipped because their predicted objective vector was
    /// Pareto-dominated by another candidate's.
    pub dominance_skips: usize,
    /// Candidates fully simulated with [`FleetSimulator`].
    pub simulated: usize,
}

impl FleetSearchStats {
    /// Total (composition, policy) candidates after the budget filter.
    #[must_use]
    pub fn candidates(&self) -> usize {
        self.memo_skips + self.dominance_skips + self.simulated
    }

    /// Candidates that never reached a full simulation.
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.memo_skips + self.dominance_skips
    }

    /// Fraction of candidates pruned before a full simulation (0 when
    /// there were no candidates).
    #[must_use]
    pub fn skip_fraction(&self) -> f64 {
        if self.candidates() == 0 {
            0.0
        } else {
            self.skipped() as f64 / self.candidates() as f64
        }
    }
}

/// The outcome of a fleet-composition search: every fully simulated
/// candidate, the Pareto-frontier indices over their exact metrics, and
/// the pruning statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSearchOutcome {
    scenario: String,
    menu: Vec<String>,
    points: Vec<FleetCandidate>,
    frontier: Vec<usize>,
    stats: FleetSearchStats,
}

impl FleetSearchOutcome {
    /// Name of the scenario searched against.
    #[must_use]
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Display names of the chip menu, in menu-index order.
    #[must_use]
    pub fn menu(&self) -> &[String] {
        &self.menu
    }

    /// Every fully simulated candidate, in deterministic enumeration
    /// order (compositions by size then lexicographic menu indices,
    /// policies in configuration order).
    #[must_use]
    pub fn points(&self) -> &[FleetCandidate] {
        &self.points
    }

    /// Indices into [`FleetSearchOutcome::points`] of the frontier, in
    /// frontier display order (see [`FleetSearchOutcome::frontier`]).
    #[must_use]
    pub fn frontier_indices(&self) -> &[usize] {
        &self.frontier
    }

    /// The Pareto-optimal candidates over {-throughput, p99,
    /// deadline-miss rate, area}, in a deterministic display order:
    /// ascending area, then descending throughput, then ascending p99,
    /// ascending miss rate, and finally enumeration order — so equal
    /// metric vectors (which both survive; equality never dominates)
    /// keep a stable relative order.
    #[must_use]
    pub fn frontier(&self) -> Vec<&FleetCandidate> {
        self.frontier.iter().map(|&i| &self.points[i]).collect()
    }

    /// The pruning statistics of the search that produced this outcome.
    #[must_use]
    pub fn stats(&self) -> &FleetSearchStats {
        &self.stats
    }

    /// The best simulated design whose area fits under `max_area_mm2`:
    /// lowest deadline-miss rate, ties broken by lower p99 latency,
    /// then higher throughput, then lower area, then enumeration order.
    /// `None` when no simulated candidate fits.
    #[must_use]
    pub fn best_under_budget(&self, max_area_mm2: f64) -> Option<&FleetCandidate> {
        self.points
            .iter()
            .filter(|p| p.area_mm2 <= max_area_mm2)
            .min_by(|a, b| {
                a.deadline_miss_rate
                    .total_cmp(&b.deadline_miss_rate)
                    .then(a.p99_latency_s.total_cmp(&b.p99_latency_s))
                    .then(b.throughput_fps.total_cmp(&a.throughput_fps))
                    .then(a.area_mm2.total_cmp(&b.area_mm2))
            })
    }
}

/// Serde default for [`FleetCandidate::fusion`].
fn default_candidate_fusion() -> usize {
    1
}

/// One (composition, policy, fusion level) triple awaiting evaluation.
#[derive(Debug, Clone)]
struct CandidateSpec {
    chips: Vec<usize>,
    policy: DispatchPolicy,
    fusion: usize,
    area_mm2: f64,
}

impl CandidateSpec {
    /// The composition's fleet, chips in composition order.
    fn fleet(&self, menu: &[AcceleratorConfig]) -> FleetConfig {
        self.chips
            .iter()
            .fold(FleetConfig::new(), |fleet, &i| fleet.chip(menu[i].clone()))
    }
}

/// The fleet-composition search engine (see the module docs).
#[derive(Debug, Clone)]
pub struct FleetDseEngine {
    config: FleetDseConfig,
}

impl FleetDseEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: FleetDseConfig) -> Self {
        Self { config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &FleetDseConfig {
        &self.config
    }

    /// Runs the full composition search against a fresh
    /// [`EvalContext`]; use [`FleetDseEngine::search_in`] to share
    /// service-estimate schedules (and counters) with other sweeps.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FleetDseEngine::search_in`].
    pub fn search(
        &self,
        scenario: &Scenario,
        menu: &[AcceleratorConfig],
    ) -> Result<FleetSearchOutcome, HeraldError> {
        self.search_in(&EvalContext::new(), scenario, menu)
    }

    /// Runs the full composition search: enumerate compositions of
    /// `menu` chips × dispatch policies, prune (budget, equivalence
    /// memo, predicted-vector dominance), fully simulate the survivors
    /// in parallel, and extract the exact Pareto frontier.
    ///
    /// The screening surrogate reads one service estimator per fusion
    /// level, keyed by (distinct workload, chip design). A cell is
    /// scheduled on its first read through the context's schedule memo,
    /// so each pair that some candidate's walk reads is scheduled at most
    /// once across the entire search, and across any other search or
    /// sweep sharing the same context. Candidates read the estimator in
    /// place.
    ///
    /// The estimates are computed under the context's cost model. Full
    /// simulations deliberately give every chip a private default-model
    /// context (chip isolation, see [`FleetSimulator`]), so a context
    /// carrying a *non-default* cost model skews the screening surrogate
    /// relative to the simulated ground truth — pruning quality degrades,
    /// but the reported metrics stay exact (they always come from full
    /// simulations).
    ///
    /// # Errors
    ///
    /// * [`HeraldError::FleetSearch`] — empty menu or policy list, a
    ///   zero or inverted chip-count range, or a budget that no single
    ///   menu chip fits under;
    /// * [`HeraldError::Scenario`] — degenerate scenario description;
    /// * [`HeraldError::Fleet`] / [`HeraldError::Simulation`] /
    ///   [`HeraldError::WorkerPanicked`] — propagated from the fleet
    ///   simulations.
    pub fn search_in(
        &self,
        ctx: &EvalContext,
        scenario: &Scenario,
        menu: &[AcceleratorConfig],
    ) -> Result<FleetSearchOutcome, HeraldError> {
        self.validate(menu)?;
        validate_scenario(scenario)?;
        reject_chained(scenario, "the fleet dispatch walk")?;
        let levels = self.config.fusion_sweep();

        // Stage 1+2: enumerate compositions within the budget, pair with
        // fusion levels and policies, and drop equivalence-memo twins
        // (policy twins are bit-identical at every fusion level, so the
        // memo applies per level).
        let mut stats = FleetSearchStats::default();
        let mut specs: Vec<CandidateSpec> = Vec::new();
        for chips in compositions(menu.len(), self.config.min_chips, self.config.max_chips) {
            let area: f64 = chips.iter().map(|&i| menu[i].area_mm2()).sum();
            if let Some(budget) = self.config.max_area_mm2 {
                if area > budget {
                    stats.budget_filtered += 1;
                    continue;
                }
            }
            for &fusion in &levels {
                for &policy in &self.config.policies {
                    if self.canonical_policy(&chips, menu, policy) != policy {
                        stats.memo_skips += 1;
                        continue;
                    }
                    specs.push(CandidateSpec {
                        chips: chips.clone(),
                        policy,
                        fusion,
                        area_mm2: area,
                    });
                }
            }
        }

        // Stage 3: predicted vectors from the fleet's dispatch walk; only
        // the predicted Pareto frontier reaches a full simulation. Service
        // estimates are per fusion level (the same chip serves a frame at
        // a different latency when its scheduler fuses layers), and the
        // estimators are freed before the survivors simulate.
        let estimators: Vec<Estimator> = levels
            .iter()
            .map(|&fusion| self.estimator(ctx, scenario, fusion))
            .collect();
        let mut predicted: Vec<Vec<f64>> = Vec::with_capacity(specs.len());
        for spec in &specs {
            // The spec's fusion level always comes from `levels`, so the
            // lookup cannot miss; the fallback keeps this non-panicking.
            let li = levels
                .iter()
                .position(|&f| f == spec.fusion)
                .unwrap_or_default();
            let est = &estimators[li];
            predicted.push(self.predict(scenario, menu, spec, est)?.to_vec());
        }
        drop(estimators);
        let survivor_idx = pareto_frontier_nd(&predicted);
        stats.dominance_skips = specs.len() - survivor_idx.len();
        stats.simulated = survivor_idx.len();
        let survivors: Vec<&CandidateSpec> = survivor_idx.iter().map(|&i| &specs[i]).collect();

        let points = self.simulate_all(scenario, menu, &survivors)?;

        // Exact frontier over the simulated points, display-ordered by
        // the deterministic tie-break documented on `frontier()`.
        let vectors: Vec<Vec<f64>> = points.iter().map(|p| p.objectives().to_vec()).collect();
        let mut frontier = pareto_frontier_nd(&vectors);
        frontier.sort_by(|&a, &b| {
            let (pa, pb) = (&points[a], &points[b]);
            pa.area_mm2
                .total_cmp(&pb.area_mm2)
                .then(pb.throughput_fps.total_cmp(&pa.throughput_fps))
                .then(pa.p99_latency_s.total_cmp(&pb.p99_latency_s))
                .then(pa.deadline_miss_rate.total_cmp(&pb.deadline_miss_rate))
                .then(a.cmp(&b))
        });

        Ok(FleetSearchOutcome {
            scenario: scenario.name().to_string(),
            menu: menu.iter().map(|c| c.name().to_string()).collect(),
            points,
            frontier,
            stats,
        })
    }

    fn validate(&self, menu: &[AcceleratorConfig]) -> Result<(), HeraldError> {
        let fail = |reason: String| Err(HeraldError::FleetSearch { reason });
        if menu.is_empty() {
            return fail("chip menu is empty".into());
        }
        if self.config.policies.is_empty() {
            return fail("dispatch-policy list is empty".into());
        }
        if self.config.min_chips == 0 || self.config.min_chips > self.config.max_chips {
            return fail(format!(
                "chip-count range {}..={} is empty or starts at zero",
                self.config.min_chips, self.config.max_chips
            ));
        }
        if let Some(budget) = self.config.max_area_mm2 {
            let min_area = menu
                .iter()
                .map(AcceleratorConfig::area_mm2)
                .fold(f64::INFINITY, f64::min);
            // `+inf` is a legal spelling of "no budget"; NaN and any
            // budget below the cheapest minimal fleet admit nothing
            // (NaN compares false here, so it is caught too).
            let floor = min_area * self.config.min_chips as f64;
            if budget.is_nan() || budget < floor {
                return fail(format!(
                    "area budget {budget} mm2 admits no composition (cheapest \
                     {}-chip fleet needs {} mm2)",
                    self.config.min_chips,
                    min_area * self.config.min_chips as f64
                ));
            }
        }
        if let AdmissionPolicy::DeadlineSlack { slack } = self.config.admission {
            if !(slack.is_finite() && slack > 0.0) {
                return fail(format!(
                    "admission slack must be positive and finite, got {slack}"
                ));
            }
        }
        if let ReportMode::Sketch { relative_error, .. } = self.config.report {
            // Checked here so a bad bound is a typed error instead of a
            // `QuantileSketch::new` panic deep inside the surrogate walk.
            if !(relative_error > 0.0 && relative_error < 1.0) {
                return fail(format!(
                    "sketch relative error must be in (0, 1), got {relative_error}"
                ));
            }
        }
        Ok(())
    }

    /// The canonical (first-enumerated) policy of `policy`'s equivalence
    /// class on this composition. A candidate whose canonical policy is
    /// not itself is a memo skip: its fleet report is bit-identical to
    /// the canonical candidate's.
    ///
    /// * 1-chip fleets: every policy routes every frame to chip 0.
    /// * Homogeneous fleets: least-loaded and deadline-aware are the
    ///   same argmin — with equal per-chip service estimates,
    ///   earliest-predicted-finish is `arrival + backlog + est`, which
    ///   orders chips exactly as smallest-backlog does (and the
    ///   deadline-miss indicator is monotone in the finish time, so it
    ///   never flips the argmin); both tie-break to the lowest index.
    fn canonical_policy(
        &self,
        chips: &[usize],
        menu: &[AcceleratorConfig],
        policy: DispatchPolicy,
    ) -> DispatchPolicy {
        if chips.len() == 1 {
            return self.config.policies[0];
        }
        let homogeneous = chips.windows(2).all(|w| menu[w[0]] == menu[w[1]]);
        let load_aware = matches!(
            policy,
            DispatchPolicy::LeastLoaded | DispatchPolicy::DeadlineAware
        );
        if homogeneous && load_aware {
            if let Some(p) = self.config.policies.iter().copied().find(|p| {
                matches!(
                    p,
                    DispatchPolicy::LeastLoaded | DispatchPolicy::DeadlineAware
                )
            }) {
                return p;
            }
        }
        policy
    }

    /// The surrogate's service estimator at one fusion level, over the
    /// search's context.
    fn estimator(&self, ctx: &EvalContext, scenario: &Scenario, fusion: usize) -> Estimator {
        let cfg = SchedulerConfig {
            fusion,
            ..self.config.scheduler
        };
        let scheduler = IncrementalScheduler::new(HeraldScheduler::new(cfg), ctx.clone());
        Estimator::new(scenario, Box::new(scheduler), ctx.clone())
    }

    /// The cheap surrogate evaluation: [`FleetSimulator`]'s phase 1, the
    /// fleet walk itself, reading this fusion level's estimator for the
    /// candidate's chips, with each admitted frame's *predicted*
    /// completion standing in for its simulated one. The walk always gets
    /// estimates, so even round-robin candidates keep a predicted
    /// backlog. Returns the predicted objective vector `[-throughput,
    /// p99, miss, area]`.
    fn predict(
        &self,
        scenario: &Scenario,
        menu: &[AcceleratorConfig],
        spec: &CandidateSpec,
        est: &Estimator,
    ) -> Result<[f64; 4], HeraldError> {
        // Under `Sketch` reporting the surrogate must match the full
        // simulations' memory story: latencies stream through a
        // mergeable sketch instead of materializing one f64 per frame
        // (which at million-frame scale is exactly the O(frames) buffer
        // sketch mode exists to avoid).
        let mut latencies: Vec<f64> = Vec::new();
        let mut sketch = match self.config.report {
            ReportMode::Sketch { relative_error, .. } => Some(QuantileSketch::new(relative_error)),
            ReportMode::Exact => None,
        };
        let mut completed = 0usize;
        let (mut with_deadline, mut missed) = (0usize, 0usize);
        let mut last_finish = scenario.horizon_s();
        let mut dispatcher = spec.policy.build();
        walk(
            &spec.fleet(menu).with_audit_trail(false),
            self.config.admission,
            dispatcher.as_mut(),
            scenario,
            Some(est),
            None,
            |frame, _, finish| {
                let latency = finish - frame.arrival_s;
                completed += 1;
                match &mut sketch {
                    Some(sketch) => sketch.insert(latency),
                    None => latencies.push(latency),
                }
                if let Some(d) = frame.deadline_s {
                    with_deadline += 1;
                    if latency > d {
                        missed += 1;
                    }
                }
                last_finish = last_finish.max(finish);
            },
        )?;
        let throughput = if last_finish > 0.0 {
            completed as f64 / last_finish
        } else {
            0.0
        };
        let p99 = match &sketch {
            Some(sketch) => sketch.quantile(0.99),
            None => percentile(latencies.iter().copied(), 0.99),
        };
        let miss = if with_deadline == 0 {
            0.0
        } else {
            missed as f64 / with_deadline as f64
        };
        Ok([-throughput, p99, miss, spec.area_mm2])
    }

    /// Fully simulates the surviving candidates, in spec order; under
    /// `parallel`, survivors are chunked across `std::thread::scope`
    /// workers (each fleet simulation already isolates its chips on
    /// private per-chip contexts).
    fn simulate_all(
        &self,
        scenario: &Scenario,
        menu: &[AcceleratorConfig],
        survivors: &[&CandidateSpec],
    ) -> Result<Vec<FleetCandidate>, HeraldError> {
        map_chunked(survivors, self.config.parallel, |spec| {
            let report = FleetSimulator::new(&spec.fleet(menu).with_audit_trail(false))
                .with_scheduler(SchedulerConfig {
                    fusion: spec.fusion,
                    ..self.config.scheduler
                })
                .with_metric(self.config.metric)
                .with_dispatcher(spec.policy)
                .with_admission(self.config.admission)
                .with_report_mode(self.config.report)
                .simulate(scenario)?;
            Ok(FleetCandidate {
                chips: spec.chips.clone(),
                composition: composition_label(&spec.chips, menu),
                policy: spec.policy,
                fusion: spec.fusion,
                area_mm2: spec.area_mm2,
                throughput_fps: report.throughput_fps(),
                p99_latency_s: report.latency_percentile(0.99),
                deadline_miss_rate: report.deadline_miss_rate(),
                drop_rate: report.drop_rate(),
                frames: report.frames_total(),
            })
        })
    }
}

/// Every multiset of `0..menu_len` with size in `min..=max`, as sorted
/// index vectors in deterministic order: by size ascending, then
/// lexicographically.
fn compositions(menu_len: usize, min: usize, max: usize) -> Vec<Vec<usize>> {
    fn extend(menu_len: usize, size: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if prefix.len() == size {
            out.push(prefix.clone());
            return;
        }
        let start = prefix.last().copied().unwrap_or(0);
        for i in start..menu_len {
            prefix.push(i);
            extend(menu_len, size, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    for size in min..=max {
        extend(menu_len, size, &mut Vec::new(), &mut out);
    }
    out
}

/// `"2xFDA-NVDLA + 1xMaelstrom"` for a sorted composition. Menu
/// entries sharing a display name (e.g. the same FDA style at two
/// provisioning points) are disambiguated with their menu index
/// (`"FDA-NVDLA#3"`).
fn composition_label(chips: &[usize], menu: &[AcceleratorConfig]) -> String {
    let chip_name = |i: usize| {
        let name = menu[i].name();
        if menu
            .iter()
            .enumerate()
            .any(|(j, c)| j != i && c.name() == name)
        {
            format!("{name}#{i}")
        } else {
            name.to_string()
        }
    };
    let mut parts: Vec<String> = Vec::new();
    let mut i = 0;
    while i < chips.len() {
        let j = chips[i..].iter().take_while(|&&c| c == chips[i]).count();
        parts.push(format!("{j}x{}", chip_name(chips[i])));
        i += j;
    }
    parts.join(" + ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::dominates_nd;
    use crate::sim::engine::{EventKind, MergedTrace};
    use herald_arch::{AcceleratorClass, HardwareResources};
    use herald_dataflow::DataflowStyle;
    use herald_models::zoo;
    use herald_workloads::{fleet_mix_stream, single_model, StreamSpec};

    fn edge_fda(style: DataflowStyle) -> AcceleratorConfig {
        AcceleratorConfig::fda(style, AcceleratorClass::Edge.resources())
    }

    fn small_fda(style: DataflowStyle) -> AcceleratorConfig {
        AcceleratorConfig::fda(style, HardwareResources::new(512, 8.0, 2 << 20))
    }

    fn menu() -> Vec<AcceleratorConfig> {
        vec![
            edge_fda(DataflowStyle::Nvdla),
            small_fda(DataflowStyle::ShiDianNao),
        ]
    }

    fn scenario(seed: u64) -> Scenario {
        fleet_mix_stream(3, 90.0, 0.05, 0.08, seed)
    }

    #[test]
    fn composition_enumeration_is_deterministic_and_complete() {
        let comps = compositions(2, 1, 2);
        assert_eq!(
            comps,
            vec![vec![0], vec![1], vec![0, 0], vec![0, 1], vec![1, 1]]
        );
        // C(m+k-1, k) summed over sizes: 3 + 6 + 10 for m=3, k=1..=3.
        assert_eq!(compositions(3, 1, 3).len(), 19);
        assert!(compositions(2, 2, 1).is_empty());
    }

    #[test]
    fn composition_labels_group_repeats() {
        let m = menu();
        assert_eq!(composition_label(&[0], &m), "1xFDA-NVDLA");
        assert_eq!(
            composition_label(&[0, 0, 1], &m),
            "2xFDA-NVDLA + 1xFDA-Shi-diannao"
        );
    }

    #[test]
    fn search_emits_a_non_empty_non_dominated_frontier() {
        let outcome = FleetDseEngine::new(FleetDseConfig::fast())
            .search(&scenario(5), &menu())
            .unwrap();
        let frontier = outcome.frontier();
        assert!(!frontier.is_empty());
        // No frontier point is dominated by ANY simulated point.
        for f in &frontier {
            for p in outcome.points() {
                assert!(
                    !dominates_nd(&p.objectives(), &f.objectives()),
                    "frontier point {} dominated by {}",
                    f.composition,
                    p.composition
                );
            }
        }
        // And every non-frontier point is dominated by a frontier point.
        for (i, p) in outcome.points().iter().enumerate() {
            if outcome.frontier_indices().contains(&i) {
                continue;
            }
            assert!(
                frontier
                    .iter()
                    .any(|f| dominates_nd(&f.objectives(), &p.objectives())),
                "non-frontier point {} ({:?}) undominated",
                p.composition,
                p.policy
            );
        }
    }

    #[test]
    fn repeated_searches_are_bit_identical() {
        let engine = FleetDseEngine::new(FleetDseConfig::fast());
        let a = engine.search(&scenario(11), &menu()).unwrap();
        let b = engine.search(&scenario(11), &menu()).unwrap();
        assert_eq!(a, b);
        // Frontier display order is the documented deterministic key.
        let frontier = a.frontier();
        for w in frontier.windows(2) {
            let key = |p: &FleetCandidate| {
                (
                    p.area_mm2,
                    -p.throughput_fps,
                    p.p99_latency_s,
                    p.deadline_miss_rate,
                )
            };
            let (ka, kb) = (key(w[0]), key(w[1]));
            assert!(ka <= kb, "frontier order drifted: {ka:?} vs {kb:?}");
        }
    }

    #[test]
    fn serial_and_parallel_searches_agree() {
        let mut cfg = FleetDseConfig::fast();
        cfg.parallel = false;
        let serial = FleetDseEngine::new(cfg)
            .search(&scenario(7), &menu())
            .unwrap();
        let parallel = FleetDseEngine::new(FleetDseConfig::fast())
            .search(&scenario(7), &menu())
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn budget_filter_is_exact() {
        let m = menu();
        let unit = m[0].area_mm2();
        let small = m[1].area_mm2();
        assert!(small < unit);
        // Budget of exactly one Edge chip: every 1-chip composition fits
        // (<=), and any pair containing the Edge chip does not.
        let mut cfg = FleetDseConfig::fast();
        cfg.max_area_mm2 = Some(unit);
        let outcome = FleetDseEngine::new(cfg.clone())
            .search(&scenario(3), &m)
            .unwrap();
        for p in outcome.points() {
            assert!(p.area_mm2 <= unit + 1e-12, "{}", p.composition);
        }
        // Compositions of 2 chips containing the Edge chip are over
        // budget: {0,0} and {0,1}; {1,1} fits iff 2*small <= unit.
        let expected_filtered = if 2.0 * small <= unit { 2 } else { 3 };
        assert_eq!(outcome.stats().budget_filtered, expected_filtered);
        // An unmeetable budget is a typed error, not an empty search.
        cfg.max_area_mm2 = Some(small / 2.0);
        let err = FleetDseEngine::new(cfg.clone())
            .search(&scenario(3), &m)
            .unwrap_err();
        assert!(matches!(err, HeraldError::FleetSearch { .. }), "{err}");
        // So is NaN...
        cfg.max_area_mm2 = Some(f64::NAN);
        assert!(FleetDseEngine::new(cfg.clone())
            .search(&scenario(3), &m)
            .is_err());
        // ...while +inf is a legal spelling of "no budget".
        cfg.max_area_mm2 = Some(f64::INFINITY);
        let unlimited = FleetDseEngine::new(cfg).search(&scenario(3), &m).unwrap();
        assert_eq!(unlimited.stats().budget_filtered, 0);
        let mut none = FleetDseConfig::fast();
        none.max_area_mm2 = None;
        assert_eq!(
            unlimited.points(),
            FleetDseEngine::new(none)
                .search(&scenario(3), &m)
                .unwrap()
                .points()
        );
    }

    #[test]
    fn stats_account_for_every_candidate() {
        let outcome = FleetDseEngine::new(FleetDseConfig::fast())
            .search(&scenario(9), &menu())
            .unwrap();
        let stats = outcome.stats();
        // menu 2, chips 1..=2 -> 5 compositions x 3 policies = 15 pairs;
        // 1-chip comps skip 2 policies each, the homogeneous 2-chip
        // comps skip DA (≡ LL); {0,1} is heterogeneous.
        assert_eq!(stats.candidates(), 15);
        assert_eq!(stats.memo_skips, 2 * 2 + 2);
        assert_eq!(stats.simulated, outcome.points().len());
        assert!(stats.skipped() >= stats.memo_skips);
        assert!(stats.skip_fraction() > 0.0);
    }

    #[test]
    fn fusion_dimension_multiplies_fleet_candidates() {
        let mut cfg = FleetDseConfig::fast();
        cfg.fusion_levels = vec![1, 2];
        let outcome = FleetDseEngine::new(cfg)
            .search(&scenario(9), &menu())
            .unwrap();
        // 15 (composition, policy) pairs per fusion level (see
        // `stats_account_for_every_candidate`), and the memo skips
        // double with them: policy twins are twins at every level.
        assert_eq!(outcome.stats().candidates(), 30);
        assert_eq!(outcome.stats().memo_skips, 2 * (2 * 2 + 2));
        assert!(outcome
            .points()
            .iter()
            .all(|p| p.fusion == 1 || p.fusion == 2));
        // Layer-placement survivors carry exactly the plain search's
        // metrics: the fusion dimension only widens the candidate set,
        // it never perturbs how a granularity-1 candidate simulates.
        let plain = FleetDseEngine::new(FleetDseConfig::fast())
            .search(&scenario(9), &menu())
            .unwrap();
        for p in outcome.points().iter().filter(|p| p.fusion == 1) {
            if let Some(q) = plain
                .points()
                .iter()
                .find(|q| q.chips == p.chips && q.policy == p.policy)
            {
                assert_eq!(p.p99_latency_s, q.p99_latency_s, "{}", p.composition);
                assert_eq!(p.throughput_fps, q.throughput_fps, "{}", p.composition);
                assert_eq!(p.deadline_miss_rate, q.deadline_miss_rate);
                assert_eq!(p.frames, q.frames);
            }
        }
    }

    #[test]
    fn surrogate_p99_is_sketch_aware_and_agrees_in_exact_mode() {
        let s = scenario(23);
        let m = menu();
        let ctx = EvalContext::new();
        let exact = FleetDseEngine::new(FleetDseConfig::fast());
        let mut cfg = FleetDseConfig::fast();
        cfg.report = ReportMode::sketch();
        let sketchy = FleetDseEngine::new(cfg);
        let est = exact.estimator(&ctx, &s, 1);
        let spec = CandidateSpec {
            chips: vec![0, 1],
            policy: DispatchPolicy::LeastLoaded,
            fusion: 1,
            area_mm2: m[0].area_mm2() + m[1].area_mm2(),
        };
        let e = exact.predict(&s, &m, &spec, &est).unwrap();
        let k = sketchy.predict(&s, &m, &spec, &est).unwrap();
        // Throughput, miss rate and area are computed identically in
        // both modes...
        assert_eq!(e[0], k[0]);
        assert_eq!(e[2], k[2]);
        assert_eq!(e[3], k[3]);
        // ...and the sketched p99 lands within the sketch's documented
        // relative-error envelope of the exact nearest-rank percentile.
        assert!(e[1] > 0.0);
        let rel = (k[1] - e[1]).abs() / e[1];
        assert!(
            rel <= 2.0 * ReportMode::DEFAULT_RELATIVE_ERROR,
            "sketched p99 {} vs exact {} (rel err {rel})",
            k[1],
            e[1]
        );
    }

    #[test]
    fn surrogate_routing_equals_simulated_routing() {
        // A heterogeneous pair, one mid-horizon swap and deadlines tight
        // enough to drop frames: the walk on the search's estimator must
        // route (and drop) exactly the frames the full
        // simulation of that candidate does.
        let m = menu();
        let s = Scenario::new("swap", 0.3)
            .stream(
                StreamSpec::poisson("cam", single_model(zoo::mobilenet_v1(), 1), 120.0, 3)
                    .with_deadline(0.03)
                    .swap_at(0.15, single_model(zoo::mobilenet_v2(), 1)),
            )
            .stream(
                StreamSpec::periodic("aux", single_model(zoo::mobilenet_v2(), 1), 60.0)
                    .with_deadline(0.05),
            );
        let arrivals = MergedTrace::new(&s)
            .filter(|e| matches!(e.kind, EventKind::Arrival { .. }))
            .count();
        let mut cfg = FleetDseConfig::fast();
        cfg.admission = AdmissionPolicy::DeadlineSlack { slack: 1.0 };
        let engine = FleetDseEngine::new(cfg.clone());
        let est = engine.estimator(&EvalContext::new(), &s, 1);
        for policy in DispatchPolicy::ALL {
            let spec = CandidateSpec {
                chips: vec![0, 1],
                policy,
                fusion: 1,
                area_mm2: m[0].area_mm2() + m[1].area_mm2(),
            };
            let fleet = spec.fleet(&m);
            let mut routed = Vec::new();
            walk(
                &fleet,
                cfg.admission,
                policy.build().as_mut(),
                &s,
                Some(&est),
                None,
                |frame, chip, _| routed.push((frame.stream, frame.seq, chip)),
            )
            .unwrap();
            let report = FleetSimulator::new(&fleet)
                .with_scheduler(SchedulerConfig {
                    fusion: spec.fusion,
                    ..cfg.scheduler
                })
                .with_metric(cfg.metric)
                .with_dispatcher(policy)
                .with_admission(cfg.admission)
                .with_report_mode(cfg.report)
                .simulate(&s)
                .unwrap();
            let simulated: Vec<_> = report
                .assignments()
                .iter()
                .map(|a| (a.stream, a.seq, a.chip))
                .collect();
            assert_eq!(routed, simulated, "{policy:?}");
            assert!(report.dropped_total() > 0, "{policy:?}: nothing dropped");
            assert_eq!(
                arrivals - routed.len(),
                report.dropped_total(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn sketch_report_mode_searches_end_to_end() {
        let mut cfg = FleetDseConfig::fast();
        cfg.report = ReportMode::sketch();
        let outcome = FleetDseEngine::new(cfg)
            .search(&scenario(5), &menu())
            .unwrap();
        assert!(!outcome.frontier().is_empty());
        for p in outcome.points() {
            assert!(p.p99_latency_s.is_finite() && p.p99_latency_s >= 0.0);
            assert!(p.frames > 0, "{}", p.composition);
        }
        // A degenerate sketch bound is a typed error, not a
        // QuantileSketch panic mid-search.
        let mut bad = FleetDseConfig::fast();
        bad.report = ReportMode::Sketch {
            relative_error: 0.0,
            sample_every: 0,
        };
        let err = FleetDseEngine::new(bad)
            .search(&scenario(5), &menu())
            .unwrap_err();
        assert!(matches!(err, HeraldError::FleetSearch { .. }), "{err}");
    }

    #[test]
    fn pre_fusion_fleet_configs_deserialize_as_layer_search() {
        // A FleetDseConfig serialized before the fusion dimension and
        // report-mode knob existed has neither field; it must
        // deserialize to the layer-placement, exact-report search those
        // records were produced under.
        let legacy = r#"{
            "min_chips": 1,
            "max_chips": 4,
            "max_area_mm2": null,
            "policies": ["RoundRobin", "LeastLoaded", "DeadlineAware"],
            "admission": "AcceptAll",
            "scheduler": {
                "metric": "Edp",
                "ordering": "BreadthFirst",
                "load_balance_factor": 1.5,
                "lookahead": 8,
                "post_process": true
            },
            "metric": "Edp",
            "parallel": true
        }"#;
        let cfg: FleetDseConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(cfg, FleetDseConfig::default());
    }

    #[test]
    fn memoized_policy_twins_really_are_bit_identical() {
        // The equivalence the memo relies on, pinned against the real
        // simulator: on a homogeneous fleet, least-loaded and
        // deadline-aware produce identical reports; on a 1-chip fleet,
        // all policies do.
        let chip = edge_fda(DataflowStyle::Nvdla);
        let s = scenario(13);
        let homo = FleetConfig::homogeneous(&chip, 3);
        // Everything but the recorded policy *name* must be bit-equal.
        let run = |fleet: &FleetConfig, policy: DispatchPolicy| {
            let r = FleetSimulator::new(fleet)
                .with_dispatcher(policy)
                .simulate(&s)
                .unwrap();
            (
                r.per_chip().to_vec(),
                r.assignments().to_vec(),
                r.dropped().to_vec(),
            )
        };
        assert_eq!(
            run(&homo, DispatchPolicy::LeastLoaded),
            run(&homo, DispatchPolicy::DeadlineAware)
        );
        let one = FleetConfig::homogeneous(&chip, 1);
        let base = run(&one, DispatchPolicy::RoundRobin);
        for policy in DispatchPolicy::ALL {
            assert_eq!(run(&one, policy), base, "{policy:?}");
        }
    }

    #[test]
    fn degenerate_searches_are_typed_errors() {
        let engine = FleetDseEngine::new(FleetDseConfig::fast());
        let err = engine.search(&scenario(1), &[]).unwrap_err();
        assert!(matches!(err, HeraldError::FleetSearch { .. }));
        let mut cfg = FleetDseConfig::fast();
        cfg.policies.clear();
        let err = FleetDseEngine::new(cfg)
            .search(&scenario(1), &menu())
            .unwrap_err();
        assert!(matches!(err, HeraldError::FleetSearch { .. }));
        let mut cfg = FleetDseConfig::fast();
        cfg.min_chips = 0;
        let err = FleetDseEngine::new(cfg)
            .search(&scenario(1), &menu())
            .unwrap_err();
        assert!(matches!(err, HeraldError::FleetSearch { .. }));
        let mut cfg = FleetDseConfig::fast();
        cfg.admission = AdmissionPolicy::DeadlineSlack { slack: -1.0 };
        let err = FleetDseEngine::new(cfg)
            .search(&scenario(1), &menu())
            .unwrap_err();
        assert!(matches!(err, HeraldError::FleetSearch { .. }));
    }

    #[test]
    fn best_under_budget_is_exact() {
        let outcome = FleetDseEngine::new(FleetDseConfig::fast())
            .search(&scenario(17), &menu())
            .unwrap();
        let small = menu()[1].area_mm2();
        let best = outcome.best_under_budget(small).expect("small chip fits");
        assert!(best.area_mm2 <= small);
        // Exactness: no in-budget point beats it on the documented key.
        for p in outcome.points().iter().filter(|p| p.area_mm2 <= small) {
            let better = p.deadline_miss_rate < best.deadline_miss_rate
                || (p.deadline_miss_rate == best.deadline_miss_rate
                    && p.p99_latency_s < best.p99_latency_s);
            assert!(!better, "{} beats best_under_budget", p.composition);
        }
        // A budget below every point yields None.
        assert!(outcome.best_under_budget(small / 4.0).is_none());
    }

    #[test]
    fn shared_context_schedules_each_menu_pair_once() {
        let ctx = EvalContext::new();
        let engine = FleetDseEngine::new(FleetDseConfig::fast());
        let s = scenario(19);
        engine.search_in(&ctx, &s, &menu()).unwrap();
        let runs = ctx.stats().scheduler_runs();
        assert!(runs > 0);
        // A second identical search re-estimates entirely from the memo.
        engine.search_in(&ctx, &s, &menu()).unwrap();
        assert_eq!(ctx.stats().scheduler_runs(), runs);
        assert!(ctx.stats().schedule_cache_hits() > 0);
    }
}
