//! The [`Experiment`] facade: one validated, fallible entry point for
//! the whole Herald pipeline.
//!
//! The seed exposed three separate entry points — `DseEngine` for
//! co-optimization, `Scheduler::schedule_and_simulate` for fixed designs,
//! and `ScheduleSimulator` for replay — each with its own panic paths.
//! `Experiment` unifies them behind a builder: describe the workload, the
//! hardware target (a class budget to search over, or a fixed
//! accelerator to evaluate), and the search knobs, then call
//! [`Experiment::run`] for a typed `Result`.
//!
//! ```
//! use herald::prelude::*;
//!
//! # fn main() -> Result<(), HeraldError> {
//! let outcome = Experiment::new(herald::workloads::arvr_a())
//!     .on(AcceleratorClass::Edge)
//!     .with_styles([DataflowStyle::Nvdla, DataflowStyle::ShiDianNao])
//!     .fast()
//!     .run()?;
//! assert!(outcome.best().latency_s() > 0.0);
//! # Ok(())
//! # }
//! ```

use herald_arch::{AcceleratorClass, AcceleratorConfig, HardwareResources, Partition};
use herald_core::controller::{ControlledFleetReport, ControlledFleetSimulator, ControllerConfig};
use herald_core::ctx::EvalContext;
use herald_core::dse::{
    DesignPoint, DseConfig, DseEngine, FleetDseConfig, FleetDseEngine, FleetSearchOutcome,
    SearchStrategy,
};
use herald_core::error::HeraldError;
use herald_core::fleet::{
    AdmissionPolicy, DispatchPolicy, FleetConfig, FleetReport, FleetSimulator,
};
use herald_core::sched::{HeraldScheduler, IncrementalScheduler, SchedulerConfig};
use herald_core::sim::{
    HotPathProfile, ReportMode, ReschedulePolicy, StreamReport, StreamSimulator,
};
use herald_cost::Metric;
use herald_dataflow::DataflowStyle;
use herald_workloads::{MultiDnnWorkload, Scenario};
use serde::Serialize;

/// A builder describing one Herald experiment end to end.
///
/// Construct with [`Experiment::new`], chain configuration, finish with
/// [`Experiment::run`]. All validation happens in `run`, which returns a
/// [`HeraldError`] instead of panicking on bad input.
///
/// The target is whichever kind of call came last: `.on_accelerator`
/// switches to fixed-target evaluation, while `.on` / `.with_resources`
/// / `.with_styles` switch (back) to a partition search. Search settings
/// accumulate — switching to a fixed target and back never discards a
/// previously configured budget or style set.
#[derive(Debug, Clone)]
pub struct Experiment {
    workload: MultiDnnWorkload,
    resources: Option<HardwareResources>,
    styles: Vec<DataflowStyle>,
    fixed: Option<AcceleratorConfig>,
    dse: DseConfig,
    metric: Option<Metric>,
    fast: bool,
    scheduler_explicit: bool,
    refine_rounds: usize,
    ctx: Option<EvalContext>,
    reschedule: ReschedulePolicy,
    dispatcher: DispatchPolicy,
    admission: AdmissionPolicy,
    admission_explicit: bool,
    report: ReportMode,
}

impl Experiment {
    /// Starts an experiment on a workload.
    pub fn new(workload: MultiDnnWorkload) -> Self {
        Self {
            workload,
            resources: None,
            styles: Vec::new(),
            fixed: None,
            dse: DseConfig::default(),
            metric: None,
            fast: false,
            scheduler_explicit: false,
            refine_rounds: 0,
            ctx: None,
            reschedule: ReschedulePolicy::default(),
            dispatcher: DispatchPolicy::default(),
            admission: AdmissionPolicy::default(),
            admission_explicit: false,
            report: ReportMode::Exact,
        }
    }

    /// Chooses how streaming reports aggregate frames, for
    /// [`Experiment::scenario`], [`Experiment::fleet`] and
    /// [`Experiment::controller`] alike: [`ReportMode::Exact`]
    /// (default) retains every frame record, while
    /// [`ReportMode::Sketch`] streams them through a mergeable quantile
    /// sketch plus per-stream aggregates in O(buckets + streams) memory
    /// — the knob that makes million-stream scenarios fit. Scalar
    /// metrics are identical across modes; percentiles stay within the
    /// sketch's configured relative error.
    #[must_use]
    pub fn report_mode(mut self, mode: ReportMode) -> Self {
        self.report = mode;
        self
    }

    /// Attaches a shared [`EvalContext`]: cost-model memos, the schedule
    /// memo and the evaluation counters persist across this experiment
    /// and every other experiment holding a clone of the same context —
    /// repeated [`Experiment::run`] / [`Experiment::scenario`] calls
    /// reuse each other's work instead of cold-starting.
    ///
    /// Without an explicit context each `run`/`scenario` call builds a
    /// private one.
    ///
    /// [`Experiment::fleet`] is the exception: fleet runs deliberately
    /// give every chip worker its own private context (chip isolation
    /// is what makes a [`FleetReport`] independent of thread
    /// interleaving), so an attached context is not consulted there.
    /// [`Experiment::fleet_search`] uses the context for its menu
    /// derivation and screening estimates but inherits the same
    /// per-chip isolation for the full simulations — so a context
    /// carrying a non-default cost model skews screening (pruning
    /// quality) without ever changing the reported simulated metrics.
    #[must_use]
    pub fn with_context(mut self, ctx: EvalContext) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Overrides the streaming rescheduling policy (incremental by
    /// default; [`ReschedulePolicy::FullReschedule`] forces the
    /// schedule-every-arrival baseline, which is bit-identical but far
    /// slower — useful for equivalence checks and benchmarks).
    #[must_use]
    pub fn reschedule_policy(mut self, policy: ReschedulePolicy) -> Self {
        self.reschedule = policy;
        self
    }

    /// Sets the fleet dispatch policy used by [`Experiment::fleet`]
    /// (round-robin by default).
    #[must_use]
    pub fn dispatcher(mut self, policy: DispatchPolicy) -> Self {
        self.dispatcher = policy;
        self
    }

    /// Sets the fleet admission policy used by [`Experiment::fleet`]
    /// (accept-all by default; [`AdmissionPolicy::DeadlineSlack`] sheds
    /// frames predicted to blow through their deadline).
    #[must_use]
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self.admission_explicit = true;
        self
    }

    /// Targets one of the paper's accelerator classes (edge / mobile /
    /// cloud resource budgets).
    #[must_use]
    pub fn on(self, class: AcceleratorClass) -> Self {
        self.with_resources(class.resources())
    }

    /// Targets an explicit resource budget (and switches back to search
    /// mode if a fixed accelerator was set).
    #[must_use]
    pub fn with_resources(mut self, resources: HardwareResources) -> Self {
        self.resources = Some(resources);
        self.fixed = None;
        self
    }

    /// Sets the dataflow styles of the HDA search (one sub-accelerator
    /// per style; at least two are required). Switches back to search
    /// mode if a fixed accelerator was set.
    #[must_use]
    pub fn with_styles(mut self, styles: impl IntoIterator<Item = DataflowStyle>) -> Self {
        self.styles = styles.into_iter().collect();
        self.fixed = None;
        self
    }

    /// Evaluates a fixed accelerator (FDA, SM-FDA, RDA, or a
    /// pre-partitioned HDA) instead of searching partitions.
    #[must_use]
    pub fn on_accelerator(mut self, config: AcceleratorConfig) -> Self {
        self.fixed = Some(config);
        self
    }

    /// Sets the partition-search strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.dse.strategy = strategy;
        self
    }

    /// Sets the optimization metric for both the DSE ranking and the
    /// per-candidate scheduler. Applied when `run` is called, so it wins
    /// over metrics embedded in [`Experiment::scheduler`] /
    /// [`Experiment::dse_config`] regardless of call order — the two can
    /// never silently desync.
    #[must_use]
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = Some(metric);
        self
    }

    /// Overrides the scheduler configuration. An explicit scheduler is
    /// respected verbatim — [`Experiment::fast`] will not override its
    /// post-processing choice, in either call order.
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.dse.scheduler = scheduler;
        self.scheduler_explicit = true;
        self
    }

    /// Overrides the full DSE configuration (granularity, parallelism,
    /// strategy, scheduler) in one call. Like [`Experiment::scheduler`],
    /// the embedded scheduler is treated as explicit.
    #[must_use]
    pub fn dse_config(mut self, config: DseConfig) -> Self {
        self.dse = config;
        self.scheduler_explicit = true;
        self
    }

    /// Sets the fusion granularity the scheduler places at: how many
    /// depth-wise consecutive layers of one model instance form one
    /// fused tile group (1 = Herald's whole-layer placement, the
    /// default; 0 is treated as 1). Orthogonal to
    /// [`Experiment::scheduler`] — setting only the granularity keeps
    /// the preset scheduler behavior (e.g. [`Experiment::fast`]'s
    /// post-processing shortcut) intact.
    #[must_use]
    pub fn fusion(mut self, granularity: usize) -> Self {
        self.dse.scheduler.fusion = granularity.max(1);
        self
    }

    /// Sets the fusion granularities the DSE sweeps as a design
    /// dimension alongside partitioning: every candidate partition is
    /// evaluated once per level. Levels are clamped to at least 1 and
    /// deduplicated; an empty list means the plain layer-placement
    /// sweep.
    #[must_use]
    pub fn fusion_levels(mut self, levels: impl IntoIterator<Item = usize>) -> Self {
        self.dse.fusion_levels = levels.into_iter().collect();
        self
    }

    /// Sets the PE / bandwidth split granularity of the sweep.
    #[must_use]
    pub fn granularity(mut self, pe_steps: usize, bw_steps: usize) -> Self {
        self.dse.pe_steps = pe_steps;
        self.dse.bw_steps = bw_steps;
        self
    }

    /// Switches to the coarse, seconds-scale preset
    /// ([`DseConfig::fast`]), keeping the configured strategy and metric.
    /// The granularity is applied immediately (a later
    /// [`Experiment::granularity`] call still wins); the preset's
    /// post-processing shortcut is applied at `run` and yields to any
    /// explicitly configured scheduler, regardless of call order.
    #[must_use]
    pub fn fast(mut self) -> Self {
        let fast = DseConfig::fast();
        self.dse.pe_steps = fast.pe_steps;
        self.dse.bw_steps = fast.bw_steps;
        self.fast = true;
        self
    }

    /// Enables hierarchical refinement around the incumbent best for
    /// `rounds` rounds after the main sweep.
    #[must_use]
    pub fn refined(mut self, rounds: usize) -> Self {
        self.refine_rounds = rounds;
        self
    }

    /// Validates the description and runs the pipeline.
    ///
    /// # Errors
    ///
    /// * [`HeraldError::EmptyWorkload`] — the workload has no layers;
    /// * [`HeraldError::InvalidResources`] — zero PEs, non-positive
    ///   bandwidth, empty global buffer, or no target specified;
    /// * [`HeraldError::TooFewStyles`] — an HDA search with fewer than
    ///   two dataflow styles;
    /// * [`HeraldError::EmptySearch`] — no candidate partition produced a
    ///   feasible design;
    /// * [`HeraldError::Simulation`] — a schedule failed to replay
    ///   (indicates a scheduler bug).
    pub fn run(mut self) -> Result<ExperimentOutcome, HeraldError> {
        if self.workload.total_layers() == 0 {
            return Err(HeraldError::EmptyWorkload {
                workload: self.workload.name().to_string(),
            });
        }
        self.normalize();
        let ctx = self.ctx.clone().unwrap_or_default();
        let engine = DseEngine::new(self.dse.clone());
        if let Some(config) = self.fixed {
            let report = engine.evaluate_config_in(&ctx, &self.workload, &config)?;
            let partition = partition_of(&config)?;
            let point = DesignPoint {
                partition,
                config,
                fusion: engine.config().scheduler.fusion.max(1),
                report,
            };
            return Ok(ExperimentOutcome {
                workload: self.workload.name().to_string(),
                accelerator: point.config.name().to_string(),
                metric: self.dse.metric,
                best_index: 0,
                points: vec![point],
            });
        }
        let resources = self
            .resources
            .ok_or_else(|| HeraldError::InvalidResources {
                reason: "no accelerator class or resource budget specified \
                     (call .on(...) or .with_resources(...))"
                    .to_string(),
            })?;
        validate_resources(resources)?;
        let outcome = if self.refine_rounds > 0 {
            engine.co_optimize_refined_in(
                &ctx,
                &self.workload,
                resources,
                &self.styles,
                self.refine_rounds,
            )?
        } else {
            engine.co_optimize_in(&ctx, &self.workload, resources, &self.styles)?
        };
        let best_index = best_index(&outcome.points, self.dse.metric).ok_or_else(|| {
            HeraldError::EmptySearch {
                workload: self.workload.name().to_string(),
            }
        })?;
        Ok(ExperimentOutcome {
            workload: self.workload.name().to_string(),
            accelerator: outcome.points[best_index].config.name().to_string(),
            metric: self.dse.metric,
            best_index,
            points: outcome.points,
        })
    }

    /// Runs a streaming [`Scenario`] on the event-driven simulation core
    /// instead of a one-shot frame.
    ///
    /// The hardware target follows the builder exactly like
    /// [`Experiment::run`]: a fixed accelerator is streamed directly,
    /// while a class budget plus styles first searches partitions against
    /// the scenario's aggregate design workload
    /// ([`Scenario::design_workload`] — the streaming analogue of a
    /// Table II frame) and streams on the winner. The workload passed to
    /// [`Experiment::new`] is not used here; frames come from the
    /// scenario's streams.
    ///
    /// The scheduler configured on the builder makes an *online*
    /// decision at every frame arrival and at every workload-change
    /// event; under the default [`ReschedulePolicy::Incremental`] most
    /// decisions are served from the per-stream schedule memo (the
    /// scheduler is deterministic, so this is bit-identical to
    /// rescheduling every frame — see
    /// [`StreamReport::schedule_cache_hit_rate`]).
    ///
    /// # Errors
    ///
    /// * [`HeraldError::Scenario`] — degenerate scenario description;
    /// * the same validation and search errors as [`Experiment::run`]
    ///   when a partition search is requested;
    /// * [`HeraldError::Simulation`] — a schedule failed to replay
    ///   (indicates a scheduler bug).
    pub fn scenario(self, scenario: &Scenario) -> Result<StreamOutcome, HeraldError> {
        self.scenario_inner(scenario, false)
            .map(|(outcome, _)| outcome)
    }

    /// [`Experiment::scenario`] plus the streaming engine's
    /// [`HotPathProfile`]: hot-path counters (fingerprint memo probes,
    /// arena reuse, admission batching) and per-phase wall-clock timers.
    /// The outcome is bit-identical to the unprofiled entry point — the
    /// profile travels beside the report, never inside it.
    ///
    /// # Errors
    ///
    /// As for [`Experiment::scenario`].
    pub fn scenario_profiled(
        self,
        scenario: &Scenario,
    ) -> Result<(StreamOutcome, HotPathProfile), HeraldError> {
        self.scenario_inner(scenario, true)
    }

    fn scenario_inner(
        mut self,
        scenario: &Scenario,
        profiled: bool,
    ) -> Result<(StreamOutcome, HotPathProfile), HeraldError> {
        self.normalize();
        let ctx = self.ctx.clone().unwrap_or_default();
        let config = match self.fixed.take() {
            Some(config) => config,
            None => {
                // Delegate the search to the one-shot pipeline on the
                // scenario's aggregate design workload, so every search
                // knob (strategy, granularity, refinement rounds) behaves
                // exactly as it does for `run` — and share this call's
                // context so the search warms the same memos.
                let design = scenario.design_workload();
                if design.total_layers() == 0 {
                    return Err(HeraldError::Scenario {
                        reason: format!(
                            "scenario {:?} has no layers to design for",
                            scenario.name()
                        ),
                    });
                }
                let mut search = self.clone();
                search.workload = design;
                search.ctx = Some(ctx.clone());
                search.run()?.best().config.clone()
            }
        };
        let scheduler = HeraldScheduler::new(self.dse.scheduler);
        let sim = StreamSimulator::new(&config, ctx.cost_model())
            .with_metric(self.dse.metric)
            .with_policy(self.reschedule)
            .with_report_mode(self.report)
            .with_context(&ctx);
        let (report, profile) = match self.reschedule {
            // The incremental wrapper adds the cross-call schedule memo;
            // the full baseline deliberately bypasses every cache layer.
            ReschedulePolicy::Incremental => {
                let incremental = IncrementalScheduler::new(scheduler, ctx.clone());
                if profiled {
                    sim.simulate_profiled(&incremental, scenario)?
                } else {
                    (
                        sim.simulate(&incremental, scenario)?,
                        HotPathProfile::default(),
                    )
                }
            }
            ReschedulePolicy::FullReschedule => {
                if profiled {
                    sim.simulate_profiled(&scheduler, scenario)?
                } else {
                    (
                        sim.simulate(&scheduler, scenario)?,
                        HotPathProfile::default(),
                    )
                }
            }
        };
        let outcome = StreamOutcome {
            scenario: scenario.name().to_string(),
            accelerator: config.name().to_string(),
            metric: self.dse.metric,
            report,
        };
        Ok((outcome, profile))
    }

    /// Runs a streaming [`Scenario`] across a *fleet* of accelerators
    /// behind the configured [`Experiment::dispatcher`] policy (and
    /// optional [`Experiment::admission`] control), instead of a single
    /// chip.
    ///
    /// The chips are taken verbatim from `fleet` — build one with
    /// [`FleetConfig::homogeneous`] from a fixed design or from a search
    /// winner (`outcome.best().config`). The scheduler, metric and
    /// rescheduling policy configured on the builder apply to every
    /// chip's online scheduling loop; each chip simulates on its own
    /// worker thread with a private evaluation context, so the outcome
    /// is bit-reproducible regardless of thread interleaving, and a
    /// 1-chip fleet is bit-identical to [`Experiment::scenario`] on the
    /// same chip.
    ///
    /// Because of that per-chip isolation, a context attached via
    /// [`Experiment::with_context`] is *not* consulted by fleet runs —
    /// its memos and counters neither feed nor observe the per-chip
    /// simulations.
    ///
    /// # Errors
    ///
    /// * [`HeraldError::Fleet`] — the fleet has no chips;
    /// * [`HeraldError::Scenario`] — degenerate scenario description;
    /// * [`HeraldError::Simulation`] — a schedule failed to replay
    ///   (indicates a scheduler bug);
    /// * [`HeraldError::WorkerPanicked`] — a per-chip worker panicked.
    pub fn fleet(
        mut self,
        fleet: &FleetConfig,
        scenario: &Scenario,
    ) -> Result<FleetOutcome, HeraldError> {
        self.normalize();
        let report = FleetSimulator::new(fleet)
            .with_scheduler(self.dse.scheduler)
            .with_metric(self.dse.metric)
            .with_policy(self.reschedule)
            .with_dispatcher(self.dispatcher)
            .with_admission(self.admission)
            .with_report_mode(self.report)
            .simulate(scenario)?;
        Ok(FleetOutcome {
            scenario: scenario.name().to_string(),
            policy: report.policy().to_string(),
            chips: report.chip_names().to_vec(),
            metric: self.dse.metric,
            report,
        })
    }

    /// Runs a streaming [`Scenario`] across a fleet *under closed-loop
    /// control*: a [`herald_core::controller::FleetController`] observes
    /// windowed per-chip telemetry at the cadence configured in
    /// `control` and may scale the fleet up or down, migrate streams, or
    /// repartition a chip's sub-accelerators mid-run.
    ///
    /// The chips in `fleet` are the epoch-0 roster; `control` supplies
    /// the decision cadence, the policy
    /// ([`herald_core::controller::ControllerPolicy`]), the scale-up
    /// menu and area budget, and the reconfiguration cost model. The
    /// scheduler, metric, rescheduling policy, dispatcher and admission
    /// gate configured on the builder apply exactly as in
    /// [`Experiment::fleet`]; with the
    /// [`herald_core::controller::StaticController`] policy the run is
    /// bit-identical to [`Experiment::fleet`] on the same inputs. As
    /// with fleet runs, a context attached via
    /// [`Experiment::with_context`] is not consulted (per-chip isolation
    /// keeps the outcome independent of thread interleaving).
    ///
    /// # Errors
    ///
    /// * [`HeraldError::Fleet`] — the fleet has no chips;
    /// * [`HeraldError::Controller`] — degenerate controller description
    ///   (non-positive or non-finite cadence, zero-chip menu entry);
    /// * [`HeraldError::Scenario`] — degenerate scenario description;
    /// * [`HeraldError::Simulation`] — a schedule failed to replay
    ///   (indicates a scheduler bug);
    /// * [`HeraldError::WorkerPanicked`] — a per-chip worker panicked.
    pub fn controller(
        mut self,
        fleet: &FleetConfig,
        control: &ControllerConfig,
        scenario: &Scenario,
    ) -> Result<ControlledFleetOutcome, HeraldError> {
        self.normalize();
        let report = ControlledFleetSimulator::new(fleet, control)
            .with_scheduler(self.dse.scheduler)
            .with_metric(self.dse.metric)
            .with_policy(self.reschedule)
            .with_dispatcher(self.dispatcher)
            .with_admission(self.admission)
            .with_report_mode(self.report)
            .simulate(scenario)?;
        Ok(ControlledFleetOutcome {
            scenario: scenario.name().to_string(),
            policy: report.fleet().policy().to_string(),
            controller: report.controller().to_string(),
            chips: report.fleet().chip_names().to_vec(),
            metric: self.dse.metric,
            report,
        })
    }

    /// Searches fleet *compositions* for a scenario: which chips to
    /// build, how many, and which dispatch policy to run — the design
    /// layer above [`Experiment::fleet`], which simulates one given
    /// fleet.
    ///
    /// `menu` is the set of chip designs compositions draw from. Pass
    /// an explicit menu to search over hand-picked designs, or an
    /// *empty* menu to derive one from the builder: a fixed accelerator
    /// ([`Experiment::on_accelerator`]) becomes a 1-entry menu, while a
    /// class budget plus styles first runs the single-chip partition
    /// search against the scenario's aggregate design workload (exactly
    /// like [`Experiment::scenario`]) and uses the latency/energy
    /// Pareto-frontier designs as the menu, capped at the eight best
    /// under the search metric so a fine-granularity frontier cannot
    /// explode the composition space. Either way the single-chip
    /// search and the fleet search share this experiment's
    /// [`EvalContext`], so service estimates reuse the schedules the
    /// menu search already computed.
    ///
    /// Chip-count range, area budget, policy list, admission control —
    /// and the search's own scheduler and metric — come from `search`;
    /// knobs *explicitly* set on the builder override them
    /// (`.scheduler(...)` wins verbatim, `.fast()` applies its
    /// post-processing shortcut, `.metric(...)` wins over both, and a
    /// non-default `.admission(...)` replaces the search's admission,
    /// matching [`Experiment::fleet`]), exactly as those knobs behave
    /// in [`Experiment::run`]. The one exception is
    /// [`Experiment::dispatcher`]: it selects the *single* policy a
    /// `fleet()` run uses, so it never narrows the search — the policy
    /// list explored is always `search.policies`. A search config
    /// passed untouched is never silently rewritten. The result is the
    /// engine's [`FleetSearchOutcome`]: the simulated candidates, the
    /// {throughput, p99, miss rate, area} Pareto frontier, and the
    /// pruning statistics.
    ///
    /// # Errors
    ///
    /// * [`HeraldError::FleetSearch`] — degenerate search description
    ///   (see [`FleetDseEngine::search_in`]);
    /// * the same validation and search errors as [`Experiment::run`]
    ///   when a menu must be derived;
    /// * [`HeraldError::Scenario`] / [`HeraldError::Fleet`] /
    ///   [`HeraldError::Simulation`] /
    ///   [`HeraldError::WorkerPanicked`] — propagated from the fleet
    ///   evaluations.
    pub fn fleet_search(
        mut self,
        mut search: FleetDseConfig,
        menu: &[AcceleratorConfig],
        scenario: &Scenario,
    ) -> Result<FleetSearchOutcome, HeraldError> {
        self.normalize();
        // Builder knobs override the search config only when the user
        // explicitly set them; an untouched FleetDseConfig (e.g.
        // FleetDseConfig::fast with its post_process shortcut) is
        // respected verbatim.
        if self.scheduler_explicit {
            search.scheduler = self.dse.scheduler;
        } else if self.fast {
            search.scheduler.post_process = DseConfig::fast().scheduler.post_process;
        }
        if let Some(metric) = self.metric {
            search.metric = metric;
            search.scheduler.metric = metric;
        }
        // Admission has the same meaning in both places, so an
        // explicitly set builder admission overrides the search config
        // — matching `.fleet()`, and `.admission(AcceptAll)` really
        // does disable a search config's gate. The single
        // `.dispatcher()` knob does NOT narrow the search: the policy
        // *list* to explore is the search's own `policies`.
        if self.admission_explicit {
            search.admission = self.admission;
        }
        let ctx = self.ctx.clone().unwrap_or_default();
        let derived: Vec<AcceleratorConfig>;
        let menu: &[AcceleratorConfig] = if menu.is_empty() {
            derived = match self.fixed.take() {
                Some(config) => vec![config],
                None => {
                    // The same delegation `scenario()` uses: search the
                    // scenario's aggregate design workload, sharing this
                    // call's context so the fleet search's service
                    // estimates hit the schedules computed here.
                    let design = scenario.design_workload();
                    if design.total_layers() == 0 {
                        return Err(HeraldError::Scenario {
                            reason: format!(
                                "scenario {:?} has no layers to design for",
                                scenario.name()
                            ),
                        });
                    }
                    let mut single = self.clone();
                    single.workload = design;
                    single.ctx = Some(ctx.clone());
                    let outcome = single.run()?;
                    // A fine search granularity can put dozens of
                    // designs on the latency/energy frontier, and the
                    // composition space grows combinatorially in the
                    // menu — cap the derived menu at the best designs
                    // under the search metric (stable order, so the
                    // selection is deterministic).
                    let metric = search.metric;
                    let mut pareto = outcome.pareto();
                    pareto
                        .sort_by(|a, b| a.report.score(metric).total_cmp(&b.report.score(metric)));
                    const MENU_CAP: usize = 8;
                    let mut configs: Vec<AcceleratorConfig> = Vec::new();
                    for point in pareto {
                        if !configs.contains(&point.config) {
                            configs.push(point.config.clone());
                            if configs.len() == MENU_CAP {
                                break;
                            }
                        }
                    }
                    configs
                }
            };
            &derived
        } else {
            menu
        };
        FleetDseEngine::new(search).search_in(&ctx, scenario, menu)
    }

    /// Applies the deferred builder knobs — the `fast` preset's
    /// post-processing shortcut (which yields to an explicit
    /// scheduler) and the `metric` override (which wins over metrics
    /// embedded in scheduler/DSE configs regardless of call order) —
    /// shared by every finishing method so `run`, `scenario`, `fleet`
    /// and `fleet_search` can never diverge. Idempotent.
    fn normalize(&mut self) {
        if self.fast && !self.scheduler_explicit {
            self.dse.scheduler.post_process = DseConfig::fast().scheduler.post_process;
        }
        if let Some(metric) = self.metric {
            self.dse.metric = metric;
            self.dse.scheduler.metric = metric;
        }
    }
}

fn validate_resources(res: HardwareResources) -> Result<(), HeraldError> {
    if res.pes == 0 {
        return Err(HeraldError::InvalidResources {
            reason: "zero processing elements".to_string(),
        });
    }
    if res.bandwidth_gbps <= 0.0 {
        return Err(HeraldError::InvalidResources {
            reason: format!("non-positive bandwidth ({} GB/s)", res.bandwidth_gbps),
        });
    }
    if res.global_buffer_bytes == 0 {
        return Err(HeraldError::InvalidResources {
            reason: "empty global buffer".to_string(),
        });
    }
    Ok(())
}

/// Reconstructs the resource partition implied by a fixed configuration's
/// sub-accelerators, so fixed evaluations and searches share the
/// [`DesignPoint`] shape.
fn partition_of(config: &AcceleratorConfig) -> Result<Partition, HeraldError> {
    let pes: Vec<u32> = config.sub_accelerators().iter().map(|s| s.pes()).collect();
    let bw: Vec<f64> = config
        .sub_accelerators()
        .iter()
        .map(|s| s.bandwidth_gbps())
        .collect();
    Partition::new(pes, bw).map_err(|msg| HeraldError::InvalidResources { reason: msg })
}

fn best_index(points: &[DesignPoint], metric: Metric) -> Option<usize> {
    points
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.report.score(metric).total_cmp(&b.report.score(metric)))
        .map(|(i, _)| i)
}

/// The result of a streaming [`Experiment::scenario`] run: the chosen
/// accelerator plus the full [`StreamReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamOutcome {
    /// Name of the scenario simulated.
    pub scenario: String,
    /// Name of the accelerator streamed on (the search winner, or the
    /// fixed target).
    pub accelerator: String,
    /// Metric the search minimized / the scheduler optimized.
    pub metric: Metric,
    report: StreamReport,
}

impl StreamOutcome {
    /// The streaming report: frames, percentiles, miss rates, swaps,
    /// utilization.
    #[must_use]
    pub fn report(&self) -> &StreamReport {
        &self.report
    }

    /// Aggregate throughput, frames per second of makespan.
    #[must_use]
    pub fn throughput_fps(&self) -> f64 {
        self.report.throughput_fps()
    }

    /// Deadline-miss rate over all deadline-carrying frames.
    #[must_use]
    pub fn deadline_miss_rate(&self) -> f64 {
        self.report.deadline_miss_rate()
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates [`HeraldError::Serialization`] (not expected for this
    /// type).
    pub fn to_json(&self) -> Result<String, HeraldError> {
        Ok(serde_json::to_string_pretty(self)?)
    }
}

/// The result of a fleet [`Experiment::fleet`] run: the dispatch policy
/// and chip roster plus the merged [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetOutcome {
    /// Name of the scenario served.
    pub scenario: String,
    /// Name of the dispatch policy that routed the frames.
    pub policy: String,
    /// Chip display names, in dispatch-index order.
    pub chips: Vec<String>,
    /// Metric the per-chip schedulers optimized.
    pub metric: Metric,
    report: FleetReport,
}

impl FleetOutcome {
    /// The merged fleet report: per-chip reports, aggregates, routing
    /// and drop records.
    #[must_use]
    pub fn report(&self) -> &FleetReport {
        &self.report
    }

    /// Aggregate throughput, completed frames per second of fleet
    /// makespan.
    #[must_use]
    pub fn throughput_fps(&self) -> f64 {
        self.report.throughput_fps()
    }

    /// Deadline-miss rate over all completed deadline-carrying frames.
    #[must_use]
    pub fn deadline_miss_rate(&self) -> f64 {
        self.report.deadline_miss_rate()
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates [`HeraldError::Serialization`] (not expected for this
    /// type).
    pub fn to_json(&self) -> Result<String, HeraldError> {
        Ok(serde_json::to_string_pretty(self)?)
    }
}

/// The result of a closed-loop [`Experiment::controller`] run: the
/// dispatch policy, controller and final chip roster plus the full
/// [`ControlledFleetReport`] (fleet outcome, reconfiguration-event log,
/// transient miss/recovery metrics).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ControlledFleetOutcome {
    /// Name of the scenario served.
    pub scenario: String,
    /// Name of the dispatch policy that routed the frames.
    pub policy: String,
    /// Name of the controller policy that made the reconfiguration
    /// decisions.
    pub controller: String,
    /// Chip display names at the end of the run (initial roster plus
    /// any controller-added or reshaped chips), in dispatch-index order.
    pub chips: Vec<String>,
    /// Metric the per-chip schedulers optimized.
    pub metric: Metric,
    report: ControlledFleetReport,
}

impl ControlledFleetOutcome {
    /// The controlled-run report: the merged fleet outcome plus the
    /// reconfiguration-event audit trail and transient metrics.
    #[must_use]
    pub fn report(&self) -> &ControlledFleetReport {
        &self.report
    }

    /// Aggregate throughput, completed frames per second of fleet
    /// makespan.
    #[must_use]
    pub fn throughput_fps(&self) -> f64 {
        self.report.fleet().throughput_fps()
    }

    /// Deadline-miss rate over all completed deadline-carrying frames.
    #[must_use]
    pub fn deadline_miss_rate(&self) -> f64 {
        self.report.fleet().deadline_miss_rate()
    }

    /// Number of control actions the run actually applied (rejected
    /// proposals are logged in the event trail but not counted here).
    #[must_use]
    pub fn actions_applied(&self) -> usize {
        self.report.actions_applied()
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates [`HeraldError::Serialization`] (not expected for this
    /// type).
    pub fn to_json(&self) -> Result<String, HeraldError> {
        Ok(serde_json::to_string_pretty(self)?)
    }
}

/// The result of a run [`Experiment`]: the winning design plus the full
/// explored cloud, serializable for artifact pipelines.
///
/// The design cloud is only reachable through accessors, and
/// deserialization validates the winner invariant (non-empty cloud,
/// in-range winner index), so [`ExperimentOutcome::best`] is total: no
/// reachable state makes it panic.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentOutcome {
    /// Name of the workload evaluated.
    pub workload: String,
    /// Name of the winning accelerator configuration.
    pub accelerator: String,
    /// Metric the winner minimizes.
    pub metric: Metric,
    best_index: usize,
    points: Vec<DesignPoint>,
}

// Hand-written so that *every* deserialization path — `from_json` and
// direct `serde_json::from_str` alike — enforces the winner invariant
// the accessors rely on. Mirrors the field layout the derive would use.
impl serde::Deserialize for ExperimentOutcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        const TY: &str = "ExperimentOutcome";
        let entries = serde::shim::entries(v, TY)?;
        let field = |name| serde::shim::field(entries, name, TY);
        let outcome = ExperimentOutcome {
            workload: serde::Deserialize::from_value(field("workload")?)?,
            accelerator: serde::Deserialize::from_value(field("accelerator")?)?,
            metric: serde::Deserialize::from_value(field("metric")?)?,
            best_index: serde::Deserialize::from_value(field("best_index")?)?,
            points: serde::Deserialize::from_value(field("points")?)?,
        };
        if outcome.points.is_empty() {
            return Err(serde::DeError::custom("outcome has no design points"));
        }
        if outcome.best_index >= outcome.points().len() {
            return Err(serde::DeError::custom(format!(
                "best index {} out of range ({} points)",
                outcome.best_index,
                outcome.points().len()
            )));
        }
        Ok(outcome)
    }
}

impl ExperimentOutcome {
    /// The winning design point.
    pub fn best(&self) -> &DesignPoint {
        &self.points[self.best_index]
    }

    /// Every evaluated design point (a single entry for fixed-target
    /// experiments; the whole sweep cloud for searches).
    pub fn points(&self) -> &[DesignPoint] {
        &self.points
    }

    /// The winning design's execution report.
    pub fn report(&self) -> &herald_core::exec::ExecutionReport {
        &self.best().report
    }

    /// Winning latency, seconds.
    pub fn latency_s(&self) -> f64 {
        self.best().latency_s()
    }

    /// Winning energy, joules.
    pub fn energy_j(&self) -> f64 {
        self.best().energy_j()
    }

    /// Winning energy-delay product, J*s.
    pub fn edp(&self) -> f64 {
        self.best().edp()
    }

    /// The latency/energy Pareto frontier of the explored cloud.
    pub fn pareto(&self) -> Vec<&DesignPoint> {
        let coords: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|p| (p.latency_s(), p.energy_j()))
            .collect();
        herald_core::pareto::pareto_frontier(&coords)
            .into_iter()
            .map(|i| &self.points[i])
            .collect()
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates [`HeraldError::Serialization`] (not expected for this
    /// type).
    pub fn to_json(&self) -> Result<String, HeraldError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Deserializes from JSON. The winner invariant (non-empty cloud,
    /// in-range index) is enforced by the `Deserialize` impl itself, so
    /// direct `serde_json::from_str` is equally safe.
    ///
    /// # Errors
    ///
    /// [`HeraldError::Serialization`] on malformed JSON or an empty /
    /// inconsistent design cloud.
    pub fn from_json(json: &str) -> Result<Self, HeraldError> {
        Ok(serde_json::from_str(json)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use herald_models::zoo;
    use herald_workloads::StreamSpec;

    fn workload() -> MultiDnnWorkload {
        herald_workloads::single_model(zoo::mobilenet_v1(), 2)
    }

    fn styles() -> [DataflowStyle; 2] {
        [DataflowStyle::Nvdla, DataflowStyle::ShiDianNao]
    }

    #[test]
    fn search_finds_a_best_design() {
        let outcome = Experiment::new(workload())
            .on(AcceleratorClass::Edge)
            .with_styles(styles())
            .fast()
            .run()
            .unwrap();
        assert!(outcome.latency_s() > 0.0);
        assert!(outcome.points().len() > 1);
        assert!(outcome.pareto().contains(&outcome.best()));
    }

    #[test]
    fn fixed_target_evaluates_one_point() {
        let outcome = Experiment::new(workload())
            .on_accelerator(AcceleratorConfig::fda(
                DataflowStyle::Nvdla,
                AcceleratorClass::Edge.resources(),
            ))
            .run()
            .unwrap();
        assert_eq!(outcome.points().len(), 1);
        assert_eq!(outcome.accelerator, "FDA-NVDLA");
    }

    #[test]
    fn empty_workload_is_rejected() {
        let err = Experiment::new(MultiDnnWorkload::new("empty"))
            .on(AcceleratorClass::Edge)
            .with_styles(styles())
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            HeraldError::EmptyWorkload {
                workload: "empty".into()
            }
        );
    }

    #[test]
    fn target_switches_preserve_search_settings() {
        // Switching to a fixed target and back must not discard the
        // previously configured budget or styles, in either order.
        let outcome = Experiment::new(workload())
            .on(AcceleratorClass::Edge)
            .on_accelerator(AcceleratorConfig::rda(AcceleratorClass::Edge.resources()))
            .with_styles(styles())
            .fast()
            .run()
            .unwrap();
        assert!(outcome.points().len() > 1, "search ran, not the fixed RDA");

        let outcome = Experiment::new(workload())
            .with_styles(styles())
            .on_accelerator(AcceleratorConfig::rda(AcceleratorClass::Edge.resources()))
            .on(AcceleratorClass::Edge)
            .fast()
            .run()
            .unwrap();
        assert!(outcome.points().len() > 1);
    }

    #[test]
    fn direct_deserialization_enforces_winner_invariant() {
        // `serde_json::from_str` must be as safe as `from_json`: a
        // tampered best_index cannot produce an outcome whose accessors
        // panic.
        let outcome = Experiment::new(workload())
            .on(AcceleratorClass::Edge)
            .with_styles(styles())
            .fast()
            .run()
            .unwrap();
        let json = outcome.to_json().unwrap();
        let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
        value["best_index"] = serde_json::json!(999);
        assert!(serde_json::from_str::<ExperimentOutcome>(&value.to_string()).is_err());
        let back: ExperimentOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.best(), outcome.best());
    }

    #[test]
    fn fast_preset_yields_to_explicit_scheduler_in_any_order() {
        let explicit = SchedulerConfig {
            post_process: true,
            lookahead: 4,
            ..Default::default()
        };
        let run = |exp: Experiment| {
            exp.on(AcceleratorClass::Edge)
                .with_styles(styles())
                .run()
                .unwrap()
        };
        // The pipeline is deterministic, so order-independence is
        // observable as identical outcomes.
        let scheduler_then_fast = run(Experiment::new(workload()).scheduler(explicit).fast());
        let fast_then_scheduler = run(Experiment::new(workload()).fast().scheduler(explicit));
        assert_eq!(scheduler_then_fast, fast_then_scheduler);
    }

    #[test]
    fn missing_target_is_rejected() {
        let err = Experiment::new(workload())
            .with_styles(styles())
            .run()
            .unwrap_err();
        assert!(matches!(err, HeraldError::InvalidResources { .. }));
    }

    #[test]
    fn zero_pes_are_rejected() {
        // `HardwareResources::new` panics on zero budgets, so a degenerate
        // budget can only arrive through a struct literal (e.g. built from
        // deserialized config) — the facade must still reject it as a
        // typed error.
        let degenerate = HardwareResources {
            pes: 0,
            bandwidth_gbps: 16.0,
            global_buffer_bytes: 4 << 20,
        };
        let err = Experiment::new(workload())
            .with_resources(degenerate)
            .with_styles(styles())
            .run()
            .unwrap_err();
        assert!(matches!(err, HeraldError::InvalidResources { .. }));
    }

    #[test]
    fn no_styles_are_rejected() {
        let err = Experiment::new(workload())
            .on(AcceleratorClass::Edge)
            .run()
            .unwrap_err();
        assert_eq!(err, HeraldError::TooFewStyles { got: 0 });
    }

    #[test]
    fn metric_propagates_to_scheduler_regardless_of_call_order() {
        // `.metric()` is applied at run(), so a later `.scheduler()` /
        // `.dse_config()` cannot silently revert the scheduler's metric.
        let latency = Experiment::new(workload())
            .on(AcceleratorClass::Edge)
            .with_styles(styles())
            .metric(Metric::Latency)
            .scheduler(SchedulerConfig {
                post_process: false,
                ..Default::default()
            })
            .fast()
            .run()
            .unwrap();
        assert_eq!(latency.metric, Metric::Latency);
        // The latency-ranked winner minimizes latency over the cloud.
        for p in latency.points() {
            assert!(p.latency_s() >= latency.latency_s() - 1e-18);
        }
    }

    #[test]
    fn shared_context_is_warm_across_runs() {
        let ctx = EvalContext::new();
        let run = || {
            Experiment::new(workload())
                .on(AcceleratorClass::Edge)
                .with_styles(styles())
                .fast()
                .with_context(ctx.clone())
                .run()
                .unwrap()
        };
        let first = run();
        let runs = ctx.stats().scheduler_runs();
        assert!(runs > 0);
        // The identical search again: every candidate's schedule comes
        // from the context memo.
        let second = run();
        assert_eq!(first, second);
        assert_eq!(ctx.stats().scheduler_runs(), runs);
        assert!(ctx.stats().schedule_cache_hits() >= first.points().len() as u64);
    }

    #[test]
    fn reschedule_policies_agree_on_stream_outcomes() {
        let scenario = Scenario::new("policy", 0.05)
            .stream(StreamSpec::periodic("s", workload(), 60.0).with_deadline(0.1));
        let stream = |policy: ReschedulePolicy| {
            Experiment::new(workload())
                .on_accelerator(AcceleratorConfig::fda(
                    DataflowStyle::Nvdla,
                    AcceleratorClass::Edge.resources(),
                ))
                .reschedule_policy(policy)
                .scenario(&scenario)
                .unwrap()
        };
        let inc = stream(ReschedulePolicy::Incremental);
        let full = stream(ReschedulePolicy::FullReschedule);
        assert_eq!(inc.report().frames(), full.report().frames());
        assert!(inc.report().scheduler_invocations() < full.report().scheduler_invocations());
        assert!(inc.report().schedule_cache_hit_rate() > 0.5);
        assert_eq!(full.report().schedule_cache_hit_rate(), 0.0);
    }

    #[test]
    fn fleet_outcome_scales_and_serializes() {
        let scenario = herald_workloads::fleet_mix_stream(4, 160.0, 0.1, 0.05, 3);
        let chip = AcceleratorConfig::fda(DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
        let run = |n: usize| {
            Experiment::new(scenario.design_workload())
                .dispatcher(DispatchPolicy::LeastLoaded)
                .fleet(&FleetConfig::homogeneous(&chip, n), &scenario)
                .unwrap()
        };
        let one = run(1);
        let two = run(2);
        assert_eq!(one.policy, "least-loaded");
        assert_eq!(two.chips.len(), 2);
        // Same generated traffic, conserved across the shards.
        assert_eq!(
            one.report().frames_total(),
            two.report().frames_total(),
            "sharding must conserve frames"
        );
        let json = one.to_json().unwrap();
        assert!(json.contains("least-loaded"));
    }

    #[test]
    fn fleet_search_with_explicit_menu_finds_a_frontier() {
        let scenario = herald_workloads::fleet_mix_stream(3, 90.0, 0.05, 0.06, 3);
        let res = AcceleratorClass::Edge.resources();
        let menu = [
            AcceleratorConfig::fda(DataflowStyle::Nvdla, res),
            AcceleratorConfig::fda(DataflowStyle::ShiDianNao, res),
        ];
        let outcome = Experiment::new(scenario.design_workload())
            .fast()
            .fleet_search(FleetDseConfig::fast(), &menu, &scenario)
            .unwrap();
        assert!(!outcome.frontier().is_empty());
        assert_eq!(outcome.menu().len(), 2);
        assert!(outcome.stats().skipped() > 0);
    }

    #[test]
    fn fleet_search_derives_its_menu_from_the_single_chip_search() {
        let scenario = herald_workloads::fleet_mix_stream(2, 60.0, 0.1, 0.05, 9);
        let ctx = EvalContext::new();
        let outcome = Experiment::new(scenario.design_workload())
            .on(AcceleratorClass::Edge)
            .with_styles(styles())
            .fast()
            .with_context(ctx.clone())
            .fleet_search(FleetDseConfig::fast(), &[], &scenario)
            .unwrap();
        // The menu is the single-chip pareto: HDA designs only.
        assert!(!outcome.menu().is_empty());
        assert!(outcome.menu().iter().all(|n| n.contains("HDA")));
        assert!(!outcome.frontier().is_empty());
        // The single-chip search warmed the shared context.
        assert!(ctx.stats().scheduler_runs() > 0);
    }

    #[test]
    fn fleet_search_respects_the_search_configs_scheduler() {
        // A FleetDseConfig passed untouched must reach the engine
        // verbatim: the facade with no explicit builder knobs is
        // bit-identical to driving FleetDseEngine directly.
        let scenario = herald_workloads::fleet_mix_stream(2, 70.0, 0.08, 0.05, 21);
        let res = AcceleratorClass::Edge.resources();
        let menu = [
            AcceleratorConfig::fda(DataflowStyle::Nvdla, res),
            AcceleratorConfig::fda(DataflowStyle::Eyeriss, res),
        ];
        let direct = herald_core::dse::FleetDseEngine::new(FleetDseConfig::fast())
            .search(&scenario, &menu)
            .unwrap();
        let via_facade = Experiment::new(scenario.design_workload())
            .fleet_search(FleetDseConfig::fast(), &menu, &scenario)
            .unwrap();
        assert_eq!(direct, via_facade);
    }

    #[test]
    fn fleet_search_honors_the_builders_admission_policy() {
        // A non-default builder admission reaches every candidate
        // evaluation, matching `.fleet()`: under overload with a tight
        // deadline, the gated search reports drops.
        let chip = AcceleratorConfig::fda(DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
        let scenario = Scenario::new("overload", 0.02)
            .stream(StreamSpec::periodic("s", workload(), 400.0).with_deadline(0.003));
        let outcome = Experiment::new(workload())
            .admission(AdmissionPolicy::DeadlineSlack { slack: 1.0 })
            .fleet_search(FleetDseConfig::fast(), &[chip], &scenario)
            .unwrap();
        assert!(
            outcome.points().iter().any(|p| p.drop_rate > 0.0),
            "builder admission must gate the searched candidates"
        );
    }

    #[test]
    fn fleet_search_with_fixed_target_uses_a_one_chip_menu() {
        let scenario = herald_workloads::fleet_mix_stream(2, 60.0, 0.1, 0.05, 4);
        let outcome = Experiment::new(scenario.design_workload())
            .on_accelerator(AcceleratorConfig::fda(
                DataflowStyle::Nvdla,
                AcceleratorClass::Edge.resources(),
            ))
            .fleet_search(FleetDseConfig::fast(), &[], &scenario)
            .unwrap();
        assert_eq!(outcome.menu(), ["FDA-NVDLA"]);
        assert!(!outcome.frontier().is_empty());
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let scenario = herald_workloads::fleet_mix_stream(2, 40.0, 0.1, 0.05, 3);
        let err = Experiment::new(scenario.design_workload())
            .fleet(&FleetConfig::new(), &scenario)
            .unwrap_err();
        assert!(matches!(err, HeraldError::Fleet { .. }));
    }

    #[test]
    fn admission_policy_reaches_the_fleet() {
        // Overload one chip with a tight deadline: the facade-configured
        // admission gate must shed frames.
        let chip = AcceleratorConfig::fda(DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
        let scenario = Scenario::new("overload", 0.02)
            .stream(StreamSpec::periodic("s", workload(), 400.0).with_deadline(0.003));
        let outcome = Experiment::new(workload())
            .dispatcher(DispatchPolicy::DeadlineAware)
            .admission(AdmissionPolicy::DeadlineSlack { slack: 1.0 })
            .fleet(&FleetConfig::homogeneous(&chip, 1), &scenario)
            .unwrap();
        assert!(!outcome.report().dropped().is_empty());
        assert!(outcome.report().drop_rate() > 0.0);
    }

    #[test]
    fn static_controller_outcome_matches_the_fleet_outcome() {
        use herald_core::controller::{ControllerConfig, ControllerPolicy};
        let scenario = herald_workloads::diurnal_ramp_trace(2, 4.0, 8.0, 0.4, 2.0, 5);
        let chip = AcceleratorConfig::fda(DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
        let fleet = FleetConfig::homogeneous(&chip, 2);
        let control = ControllerConfig::new(0.5, ControllerPolicy::Static);
        let run = |exp: Experiment| exp.dispatcher(DispatchPolicy::LeastLoaded);
        let controlled = run(Experiment::new(scenario.design_workload()))
            .controller(&fleet, &control, &scenario)
            .unwrap();
        let plain = run(Experiment::new(scenario.design_workload()))
            .fleet(&fleet, &scenario)
            .unwrap();
        assert_eq!(controlled.report().fleet(), plain.report());
        assert_eq!(controlled.controller, "static");
        assert_eq!(controlled.policy, plain.policy);
        assert_eq!(controlled.chips, plain.chips);
        assert_eq!(controlled.actions_applied(), 0);
        assert!(controlled.to_json().unwrap().contains("\"static\""));
    }

    #[test]
    fn controller_outcome_surfaces_autoscaler_actions() {
        use herald_core::controller::{ControllerConfig, ControllerPolicy};
        let scenario = herald_workloads::diurnal_ramp_trace(2, 4.0, 12.0, 0.4, 3.0, 7);
        let chip = AcceleratorConfig::fda(DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
        let fleet = FleetConfig::homogeneous(&chip, 1);
        let control = ControllerConfig::new(0.5, ControllerPolicy::autoscaler())
            .with_menu(vec![chip.clone()])
            .with_area_budget(3.0 * chip.area_mm2());
        let outcome = Experiment::new(scenario.design_workload())
            .dispatcher(DispatchPolicy::LeastLoaded)
            .controller(&fleet, &control, &scenario)
            .unwrap();
        assert_eq!(outcome.controller, "threshold-autoscaler");
        assert_eq!(outcome.report().epochs(), 6);
        // The 1-chip fleet misses hard on the diurnal peak: the
        // autoscaler must have grown the roster.
        assert!(outcome.actions_applied() > 0);
        assert!(outcome.chips.len() > 1);
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let outcome = Experiment::new(workload())
            .on(AcceleratorClass::Edge)
            .with_styles(styles())
            .fast()
            .run()
            .unwrap();
        let json = outcome.to_json().unwrap();
        let back = ExperimentOutcome::from_json(&json).unwrap();
        assert_eq!(back, outcome);
        assert_eq!(back.best(), outcome.best());
    }

    #[test]
    fn tampered_outcome_json_is_rejected() {
        assert!(matches!(
            ExperimentOutcome::from_json("{not json"),
            Err(HeraldError::Serialization(_))
        ));
        let empty =
            r#"{"workload":"w","accelerator":"a","metric":"Edp","best_index":0,"points":[]}"#;
        assert!(matches!(
            ExperimentOutcome::from_json(empty),
            Err(HeraldError::Serialization(_))
        ));
    }
}
