//! Hardware/schedule co-design space exploration (paper Sec. IV-C),
//! from one chip up to whole fleets.
//!
//! Two engines live here:
//!
//! * [`DseEngine`] — the paper's single-chip search: sweep PE/bandwidth
//!   partitions of one budget (Definition 1), co-optimize a layer
//!   schedule for every candidate, and report the design-point cloud of
//!   Figs. 6 and 11 ([`DseOutcome`], latency/energy frontier via
//!   [`crate::pareto`]).
//! * [`FleetDseEngine`] — the layer above: given a traffic scenario and
//!   a *menu* of chip designs (typically single-chip winners plus
//!   baselines), search over fleet **compositions** × dispatch policies
//!   under an area budget, evaluating with the
//!   [`crate::fleet::FleetSimulator`] and pruning by equivalence memo
//!   and predicted-vector dominance ([`FleetSearchOutcome`], 4-objective
//!   frontier over throughput / p99 / miss rate / area). See the
//!   [`fleet`] submodule docs for the pruning pipeline.
//!
//! Both engines thread a shared [`EvalContext`] through every
//! evaluation, so cost-model queries and whole schedules are memoized
//! across candidates, refinement rounds and searches.

pub mod fleet;
mod partitions;

use crate::ctx::EvalContext;
use crate::error::HeraldError;
use crate::exec::ExecutionReport;
use crate::pareto::pareto_frontier;
use crate::sched::{HeraldScheduler, IncrementalScheduler, Scheduler, SchedulerConfig};
use crate::task::TaskGraph;
use herald_arch::{AcceleratorConfig, HardwareResources, Partition};
use herald_cost::Metric;
use herald_dataflow::DataflowStyle;
use herald_workloads::MultiDnnWorkload;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

pub use fleet::{
    FleetCandidate, FleetDseConfig, FleetDseEngine, FleetSearchOutcome, FleetSearchStats,
};
pub use partitions::candidate_partitions;

/// Maps a worker panic payload into the typed error the sweep returns.
/// String payloads (from `panic!` / `assert!`) are preserved verbatim.
pub(crate) fn worker_panic_error(payload: Box<dyn std::any::Any + Send>) -> HeraldError {
    let payload = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    HeraldError::WorkerPanicked { payload }
}

/// `f` over `items`, results in item order: inline when `parallel` is
/// off or there is at most one item, else in one chunk per available
/// core on `std::thread::scope` workers. A chunk stops at its first
/// error; the first failing chunk's error (or its worker's panic, as
/// [`worker_panic_error`]) is returned. Every handle is joined before
/// the scope exits, so a panicked worker surfaces as a typed error, not
/// as the scope's re-panic.
pub(crate) fn map_chunked<T: Sync, R: Send>(
    items: &[T],
    parallel: bool,
    f: impl Fn(&T) -> Result<R, HeraldError> + Sync,
) -> Result<Vec<R>, HeraldError> {
    if !parallel || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(items.len());
    let f = &f;
    let gathered: Vec<Result<Vec<R>, HeraldError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(threads))
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(worker_panic_error).and_then(|r| r))
            .collect()
    });
    Ok(gathered
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect())
}

/// A hashable identity for a candidate partition (bandwidth captured
/// bit-exactly), used to deduplicate repeat candidates across the base
/// sweep and refinement rounds.
fn partition_key(p: &Partition) -> PartitionKey {
    (
        p.pes().to_vec(),
        p.bandwidth_gbps().iter().map(|b| b.to_bits()).collect(),
    )
}

/// The hashable identity produced by [`partition_key`].
type PartitionKey = (Vec<u32>, Vec<u64>);

/// A deduplication identity for one candidate: the same partition at
/// another fusion level is a genuinely different design.
type FusedCandidateKey = (usize, PartitionKey);

/// Partition-search strategy (Sec. IV-C: "the DSE algorithm, by default,
/// performs an exhaustive search based on user-specified search
/// granularity ... also supports binary sampling or random search").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Full grid at the configured granularity.
    Exhaustive,
    /// Only splits at power-of-two fractions (1/2, 1/4, 3/4, ...).
    BinarySampling,
    /// Uniform random compositions.
    Random {
        /// Number of sampled partitions per bandwidth split.
        samples: usize,
        /// RNG seed (the DSE is deterministic given the seed).
        seed: u64,
    },
}

/// DSE tuning knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseConfig {
    /// Partition-search strategy.
    pub strategy: SearchStrategy,
    /// PE-split granularity: the budget is divided into this many quanta.
    pub pe_steps: usize,
    /// Bandwidth-split granularity.
    pub bw_steps: usize,
    /// Metric optimized (and reported as "best").
    pub metric: Metric,
    /// Scheduler used to evaluate every candidate partition.
    pub scheduler: SchedulerConfig,
    /// Fusion granularities swept as a DSE dimension alongside the
    /// partition grid: every candidate partition is co-optimized once
    /// per level (`SchedulerConfig::fusion` overridden per candidate),
    /// so the design cloud covers partition × fusion. The default
    /// `[1]` is Herald's whole-layer placement — the historical sweep,
    /// bit-identical by construction. Duplicate levels are evaluated
    /// once (the schedule memo already dedups them); an empty list is
    /// treated as `[1]`.
    #[serde(default = "default_fusion_levels")]
    pub fusion_levels: Vec<usize>,
    /// Evaluate candidates on worker threads.
    pub parallel: bool,
}

/// Serde default for [`DseConfig::fusion_levels`]: sweeps recorded
/// before the fusion dimension existed deserialize as the layer-placement
/// sweep.
fn default_fusion_levels() -> Vec<usize> {
    vec![1]
}

impl Default for DseConfig {
    fn default() -> Self {
        Self {
            strategy: SearchStrategy::Exhaustive,
            pe_steps: 8,
            bw_steps: 4,
            metric: Metric::Edp,
            scheduler: SchedulerConfig::default(),
            fusion_levels: vec![1],
            parallel: true,
        }
    }
}

impl DseConfig {
    /// A coarse, fast configuration for examples and tests: a 4x2 grid
    /// with post-processing disabled.
    pub fn fast() -> Self {
        Self {
            pe_steps: 4,
            bw_steps: 2,
            scheduler: SchedulerConfig {
                post_process: false,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The effective fusion sweep: every level clamped to at least 1
    /// (0 means layer placement, matching `SchedulerConfig::fusion`),
    /// deduplicated in first-seen order, and never empty.
    pub fn fusion_sweep(&self) -> Vec<usize> {
        effective_fusion_sweep(&self.fusion_levels)
    }
}

/// Normalizes a fusion-level list into the sweep actually run: every
/// level clamped to at least 1, deduplicated in first-seen order, and
/// never empty (an empty list means plain layer placement). Shared by
/// [`DseConfig`] and [`FleetDseConfig`].
pub(crate) fn effective_fusion_sweep(levels: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    for &f in levels {
        let f = f.max(1);
        if !out.contains(&f) {
            out.push(f);
        }
    }
    if out.is_empty() {
        out.push(1);
    }
    out
}

/// One explored design: a partition and its scheduled execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// The hardware partition evaluated.
    pub partition: Partition,
    /// The accelerator configuration built from it.
    pub config: AcceleratorConfig,
    /// Fusion granularity the schedule was constructed under (1 =
    /// layer placement; points recorded before the fusion dimension
    /// existed deserialize as 1).
    #[serde(default = "default_point_fusion")]
    pub fusion: usize,
    /// The scheduled execution report.
    pub report: ExecutionReport,
}

/// Serde default for [`DesignPoint::fusion`].
fn default_point_fusion() -> usize {
    1
}

impl DesignPoint {
    /// Latency of this design, seconds.
    pub fn latency_s(&self) -> f64 {
        self.report.total_latency_s()
    }

    /// Energy of this design, joules.
    pub fn energy_j(&self) -> f64 {
        self.report.total_energy_j()
    }

    /// EDP of this design.
    pub fn edp(&self) -> f64 {
        self.report.edp()
    }
}

/// The design-point cloud produced by a DSE run (one point per candidate
/// partition — the dots of the paper's Figs. 6 and 11).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseOutcome {
    /// All evaluated points.
    pub points: Vec<DesignPoint>,
    metric: Metric,
}

impl DseOutcome {
    /// The best point under the DSE metric.
    pub fn best(&self) -> Option<&DesignPoint> {
        self.points.iter().min_by(|a, b| {
            a.report
                .score(self.metric)
                .total_cmp(&b.report.score(self.metric))
        })
    }

    /// The latency/energy Pareto-optimal points.
    pub fn pareto(&self) -> Vec<&DesignPoint> {
        let coords: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|p| (p.latency_s(), p.energy_j()))
            .collect();
        pareto_frontier(&coords)
            .into_iter()
            .map(|i| &self.points[i])
            .collect()
    }
}

/// The Herald DSE engine: explores HDA architectures per Definition 1 by
/// sweeping PE and bandwidth partitions and co-optimizing a layer schedule
/// for each candidate.
///
/// Prefer driving it through the `herald::Experiment` facade; the engine
/// remains public for tools that need the raw sweep.
///
/// # Example
///
/// ```
/// use herald_arch::AcceleratorClass;
/// use herald_core::dse::{DseConfig, DseEngine};
/// use herald_core::error::HeraldError;
/// use herald_dataflow::DataflowStyle;
///
/// # fn main() -> Result<(), HeraldError> {
/// let dse = DseEngine::new(DseConfig::fast());
/// let workload = herald_workloads::single_model(herald_models::zoo::mobilenet_v2(), 2);
/// let outcome = dse.co_optimize(
///     &workload,
///     AcceleratorClass::Edge.resources(),
///     &[DataflowStyle::Nvdla, DataflowStyle::ShiDianNao],
/// )?;
/// assert!(!outcome.points.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DseEngine {
    config: DseConfig,
}

impl DseEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: DseConfig) -> Self {
        Self { config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &DseConfig {
        &self.config
    }

    /// Runs the full co-optimization: every candidate partition of
    /// `resources` across one sub-accelerator per style is scheduled with
    /// Herald's scheduler and reported as a design point.
    ///
    /// Builds a fresh [`EvalContext`] per call; use
    /// [`DseEngine::co_optimize_in`] to share cost-model memos and
    /// counters across sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`HeraldError::TooFewStyles`] if fewer than two styles are
    /// given (an HDA needs at least two sub-accelerators; evaluate FDAs
    /// via [`DseEngine::evaluate_config`]), or
    /// [`HeraldError::WorkerPanicked`] if a parallel evaluation worker
    /// panicked.
    pub fn co_optimize(
        &self,
        workload: &MultiDnnWorkload,
        resources: HardwareResources,
        styles: &[DataflowStyle],
    ) -> Result<DseOutcome, HeraldError> {
        self.co_optimize_in(&EvalContext::new(), workload, resources, styles)
    }

    /// [`DseEngine::co_optimize`] against a shared [`EvalContext`]: the
    /// context's cost model is reused across every candidate (and every
    /// later sweep on the same context), and all scheduling work is
    /// recorded in the context's counters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DseEngine::co_optimize`].
    pub fn co_optimize_in(
        &self,
        ctx: &EvalContext,
        workload: &MultiDnnWorkload,
        resources: HardwareResources,
        styles: &[DataflowStyle],
    ) -> Result<DseOutcome, HeraldError> {
        if styles.len() < 2 {
            return Err(HeraldError::TooFewStyles { got: styles.len() });
        }
        let graph = TaskGraph::new(workload);
        let candidates = candidate_partitions(&self.config, resources, styles.len());
        // One incremental scheduler per fusion level: each carries the
        // level in its config (and thus in the memo identity), so fused
        // and unfused evaluations of the same partition never collide.
        let schedulers: Vec<(usize, IncrementalScheduler)> = self
            .config
            .fusion_sweep()
            .into_iter()
            .map(|fusion| {
                let cfg = SchedulerConfig {
                    fusion,
                    ..self.config.scheduler
                };
                (
                    fusion,
                    IncrementalScheduler::new(HeraldScheduler::new(cfg), ctx.clone()),
                )
            })
            .collect();
        // The job grid is fusion levels × partitions.
        let jobs: Vec<(usize, &Partition)> = schedulers
            .iter()
            .enumerate()
            .flat_map(|(si, _)| candidates.iter().map(move |p| (si, p)))
            .collect();

        let evaluate = |job: &(usize, &Partition)| -> Option<DesignPoint> {
            let (si, partition) = *job;
            let (fusion, scheduler) = &schedulers[si];
            let config = AcceleratorConfig::hda(styles, resources, partition.clone()).ok()?;
            let report = scheduler
                .schedule_and_simulate_with(&graph, &config, ctx.cost_model(), ctx.stats())
                .ok()?;
            Some(DesignPoint {
                partition: partition.clone(),
                config,
                fusion: *fusion,
                report,
            })
        };
        let points = map_chunked(&jobs, self.config.parallel, |job| Ok(evaluate(job)))?
            .into_iter()
            .flatten()
            .collect();

        Ok(DseOutcome {
            points,
            metric: self.config.metric,
        })
    }

    /// Hierarchical refinement: runs [`DseEngine::co_optimize`], then for
    /// `rounds` rounds evaluates progressively finer-grained neighbor
    /// partitions around the incumbent best (halving the PE quantum each
    /// round). This recovers most of a fine exhaustive sweep's quality at
    /// a fraction of its cost — the practical use of the paper's
    /// "user-specified search granularity".
    ///
    /// # Errors
    ///
    /// Same conditions as [`DseEngine::co_optimize`].
    pub fn co_optimize_refined(
        &self,
        workload: &MultiDnnWorkload,
        resources: HardwareResources,
        styles: &[DataflowStyle],
        rounds: usize,
    ) -> Result<DseOutcome, HeraldError> {
        self.co_optimize_refined_in(&EvalContext::new(), workload, resources, styles, rounds)
    }

    /// [`DseEngine::co_optimize_refined`] against a shared
    /// [`EvalContext`].
    ///
    /// Candidates are deduplicated across the base sweep and all
    /// refinement rounds: the incumbent and every already-seen neighbor
    /// (including ones that previously failed to build or schedule) are
    /// skipped without re-evaluation, and each skip is recorded as a
    /// dedup hit in the context's counters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DseEngine::co_optimize`].
    pub fn co_optimize_refined_in(
        &self,
        ctx: &EvalContext,
        workload: &MultiDnnWorkload,
        resources: HardwareResources,
        styles: &[DataflowStyle],
        rounds: usize,
    ) -> Result<DseOutcome, HeraldError> {
        let mut outcome = self.co_optimize_in(ctx, workload, resources, styles)?;
        // Everything the base sweep enumerated is already evaluated (or
        // already known infeasible) — never revisit it. A candidate is a
        // (fusion level, partition) pair: the same partition at another
        // fusion level is a genuinely different design.
        let levels = self.config.fusion_sweep();
        let base = candidate_partitions(&self.config, resources, styles.len());
        let mut seen: HashSet<FusedCandidateKey> = levels
            .iter()
            .flat_map(|&fusion| base.iter().map(move |p| (fusion, partition_key(p))))
            .collect();
        let graph = TaskGraph::new(workload);
        // Refinement homes in on the incumbent, so it reschedules at the
        // incumbent's fusion level; one scheduler per level keeps the
        // memo identities separate.
        let schedulers: Vec<(usize, IncrementalScheduler)> = levels
            .iter()
            .map(|&fusion| {
                let cfg = SchedulerConfig {
                    fusion,
                    ..self.config.scheduler
                };
                (
                    fusion,
                    IncrementalScheduler::new(HeraldScheduler::new(cfg), ctx.clone()),
                )
            })
            .collect();
        let mut quantum = (resources.pes / self.config.pe_steps as u32).max(1);
        for _ in 0..rounds {
            quantum = (quantum / 2).max(1);
            let Some(best) = outcome.best() else { break };
            let fusion = best.fusion;
            let candidates = partitions::neighbor_partitions(&best.partition, quantum, resources);
            let Some((_, scheduler)) = schedulers.iter().find(|(f, _)| *f == fusion) else {
                break;
            };
            let mut new_points = Vec::new();
            for partition in candidates {
                if !seen.insert((fusion, partition_key(&partition))) {
                    ctx.stats().record_dedup_skip();
                    continue;
                }
                let Ok(config) = AcceleratorConfig::hda(styles, resources, partition.clone())
                else {
                    continue;
                };
                if let Ok(report) = scheduler.schedule_and_simulate_with(
                    &graph,
                    &config,
                    ctx.cost_model(),
                    ctx.stats(),
                ) {
                    new_points.push(DesignPoint {
                        partition,
                        config,
                        fusion,
                        report,
                    });
                }
            }
            if new_points.is_empty() {
                break;
            }
            outcome.points.extend(new_points);
        }
        Ok(outcome)
    }

    /// Evaluates a fixed accelerator configuration (FDA, SM-FDA, RDA, or a
    /// pre-partitioned HDA) on a workload with Herald's scheduler.
    ///
    /// # Errors
    ///
    /// Propagates [`HeraldError::Simulation`] if the produced schedule
    /// cannot be replayed; schedulers in this crate construct legal
    /// schedules, so an error indicates a scheduler bug.
    pub fn evaluate_config(
        &self,
        workload: &MultiDnnWorkload,
        config: &AcceleratorConfig,
    ) -> Result<ExecutionReport, HeraldError> {
        self.evaluate_config_in(&EvalContext::new(), workload, config)
    }

    /// [`DseEngine::evaluate_config`] against a shared [`EvalContext`]:
    /// repeat evaluations of the same workload on the same configuration
    /// are served from the context's schedule memo.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DseEngine::evaluate_config`].
    pub fn evaluate_config_in(
        &self,
        ctx: &EvalContext,
        workload: &MultiDnnWorkload,
        config: &AcceleratorConfig,
    ) -> Result<ExecutionReport, HeraldError> {
        let graph = TaskGraph::new(workload);
        let scheduler =
            IncrementalScheduler::new(HeraldScheduler::new(self.config.scheduler), ctx.clone());
        scheduler.schedule_and_simulate_with(&graph, config, ctx.cost_model(), ctx.stats())
    }

    /// Re-schedules an existing design for a *different* workload (the
    /// paper's workload-change study, Fig. 13: fix the hardware, rerun
    /// only the compile-time scheduler).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DseEngine::evaluate_config`].
    pub fn reschedule(
        &self,
        workload: &MultiDnnWorkload,
        point: &DesignPoint,
    ) -> Result<ExecutionReport, HeraldError> {
        self.evaluate_config(workload, &point.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use herald_arch::AcceleratorClass;
    use herald_models::zoo;
    use herald_workloads::{single_model, MultiDnnWorkload};

    fn small_workload() -> MultiDnnWorkload {
        MultiDnnWorkload::new("small")
            .with_model(zoo::mobilenet_v2(), 1)
            .with_model(zoo::mobilenet_v1(), 1)
    }

    fn styles() -> [DataflowStyle; 2] {
        [DataflowStyle::Nvdla, DataflowStyle::ShiDianNao]
    }

    #[test]
    fn co_optimize_produces_full_grid() {
        let dse = DseEngine::new(DseConfig::fast());
        let outcome = dse
            .co_optimize(
                &small_workload(),
                AcceleratorClass::Edge.resources(),
                &styles(),
            )
            .unwrap();
        // 4 PE steps -> 3 splits, 2 BW steps -> 1 split.
        assert_eq!(outcome.points.len(), 3);
        assert!(outcome.best().is_some());
    }

    #[test]
    fn fusion_sweep_clamps_dedups_and_defaults() {
        let mut cfg = DseConfig::fast();
        cfg.fusion_levels = vec![0, 2, 2, 1, 4];
        assert_eq!(cfg.fusion_sweep(), vec![1, 2, 4]);
        cfg.fusion_levels = Vec::new();
        assert_eq!(
            cfg.fusion_sweep(),
            vec![1],
            "empty sweep is layer placement"
        );
    }

    #[test]
    fn fusion_dimension_multiplies_the_design_cloud() {
        let mut cfg = DseConfig::fast();
        cfg.fusion_levels = vec![1, 3];
        let outcome = DseEngine::new(cfg)
            .co_optimize(
                &small_workload(),
                AcceleratorClass::Edge.resources(),
                &styles(),
            )
            .unwrap();
        // 3 candidate partitions × 2 fusion levels.
        assert_eq!(outcome.points.len(), 6);
        for fusion in [1, 3] {
            assert!(outcome.points.iter().any(|p| p.fusion == fusion));
        }
        // The layer-placement slice of the cloud is exactly the plain
        // sweep: adding the fusion dimension never perturbs granularity 1.
        let plain = DseEngine::new(DseConfig::fast())
            .co_optimize(
                &small_workload(),
                AcceleratorClass::Edge.resources(),
                &styles(),
            )
            .unwrap();
        let unfused: Vec<_> = outcome.points.iter().filter(|p| p.fusion == 1).collect();
        assert_eq!(unfused.len(), plain.points.len());
        for (a, b) in unfused.iter().zip(&plain.points) {
            assert_eq!(a.partition, b.partition);
            assert_eq!(a.report, b.report);
        }
    }

    #[test]
    fn pre_fusion_dse_configs_deserialize_as_layer_sweep() {
        // A DseConfig serialized before the fusion dimension existed has
        // no `fusion_levels` field; it must deserialize to the layer-
        // placement sweep those records were produced under.
        let legacy = r#"{
            "strategy": "Exhaustive",
            "pe_steps": 8,
            "bw_steps": 4,
            "metric": "Edp",
            "scheduler": {
                "metric": "Edp",
                "ordering": "BreadthFirst",
                "load_balance_factor": 1.5,
                "lookahead": 8,
                "post_process": true
            },
            "parallel": true
        }"#;
        let cfg: DseConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(cfg, DseConfig::default());
    }

    #[test]
    fn single_style_search_is_a_typed_error() {
        let dse = DseEngine::new(DseConfig::fast());
        let err = dse
            .co_optimize(
                &small_workload(),
                AcceleratorClass::Edge.resources(),
                &[DataflowStyle::Nvdla],
            )
            .unwrap_err();
        assert_eq!(err, HeraldError::TooFewStyles { got: 1 });
    }

    #[test]
    fn partitions_conserve_resources() {
        let res = AcceleratorClass::Edge.resources();
        let dse = DseEngine::new(DseConfig::fast());
        let outcome = dse.co_optimize(&small_workload(), res, &styles()).unwrap();
        for p in &outcome.points {
            assert_eq!(p.partition.total_pes(), res.pes);
            assert!((p.partition.total_bandwidth_gbps() - res.bandwidth_gbps).abs() < 1e-9);
        }
    }

    #[test]
    fn best_point_minimizes_the_metric() {
        let dse = DseEngine::new(DseConfig::fast());
        let outcome = dse
            .co_optimize(
                &small_workload(),
                AcceleratorClass::Edge.resources(),
                &styles(),
            )
            .unwrap();
        let best = outcome.best().unwrap().edp();
        for p in &outcome.points {
            assert!(p.edp() >= best - 1e-18);
        }
    }

    #[test]
    fn pareto_points_are_non_dominated() {
        let dse = DseEngine::new(DseConfig::fast());
        let outcome = dse
            .co_optimize(
                &small_workload(),
                AcceleratorClass::Edge.resources(),
                &styles(),
            )
            .unwrap();
        let frontier = outcome.pareto();
        assert!(!frontier.is_empty());
        for f in &frontier {
            for p in &outcome.points {
                assert!(
                    !(p.latency_s() < f.latency_s() && p.energy_j() < f.energy_j()),
                    "frontier point dominated"
                );
            }
        }
    }

    #[test]
    fn serial_and_parallel_sweeps_agree() {
        let mut cfg = DseConfig::fast();
        cfg.parallel = false;
        let serial = DseEngine::new(cfg)
            .co_optimize(
                &small_workload(),
                AcceleratorClass::Edge.resources(),
                &styles(),
            )
            .unwrap();
        let parallel = DseEngine::new(DseConfig::fast())
            .co_optimize(
                &small_workload(),
                AcceleratorClass::Edge.resources(),
                &styles(),
            )
            .unwrap();
        assert_eq!(serial.points.len(), parallel.points.len());
        let best_s = serial.best().unwrap().edp();
        let best_p = parallel.best().unwrap().edp();
        assert!((best_s - best_p).abs() < 1e-15);
    }

    #[test]
    fn evaluate_config_covers_baselines() {
        let dse = DseEngine::new(DseConfig::fast());
        let res = AcceleratorClass::Edge.resources();
        let w = single_model(zoo::mobilenet_v1(), 1);
        for config in [
            AcceleratorConfig::fda(DataflowStyle::Nvdla, res),
            AcceleratorConfig::rda(res),
            AcceleratorConfig::sm_fda(DataflowStyle::Nvdla, 2, res).unwrap(),
        ] {
            let report = dse.evaluate_config(&w, &config).unwrap();
            assert!(report.total_latency_s() > 0.0, "{}", config.name());
        }
    }

    #[test]
    fn refinement_never_worsens_the_best() {
        let res = AcceleratorClass::Edge.resources();
        let coarse = DseEngine::new(DseConfig::fast());
        let base = coarse
            .co_optimize(&small_workload(), res, &styles())
            .unwrap()
            .best()
            .unwrap()
            .edp();
        let refined = coarse
            .co_optimize_refined(&small_workload(), res, &styles(), 2)
            .unwrap()
            .best()
            .unwrap()
            .edp();
        assert!(refined <= base + 1e-18);
    }

    #[test]
    fn worker_panics_map_to_typed_errors() {
        // String payloads (the overwhelmingly common case) survive
        // verbatim; exotic payloads get a placeholder.
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(
            worker_panic_error(payload),
            HeraldError::WorkerPanicked {
                payload: "boom".into()
            }
        );
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("owned boom"));
        assert_eq!(
            worker_panic_error(payload),
            HeraldError::WorkerPanicked {
                payload: "owned boom".into()
            }
        );
        let payload: Box<dyn std::any::Any + Send> = Box::new(17usize);
        assert!(matches!(
            worker_panic_error(payload),
            HeraldError::WorkerPanicked { payload } if payload.contains("non-string")
        ));
    }

    #[test]
    fn refinement_dedups_repeat_candidates() {
        // Refinement rounds around a stable incumbent revisit the same
        // neighborhood; every repeat must be skipped (recorded as a
        // dedup hit) rather than re-evaluated. Scheduler runs and cache
        // hits together bound the number of evaluations actually
        // performed: every evaluated candidate is distinct.
        let ctx = EvalContext::new();
        let res = AcceleratorClass::Edge.resources();
        let dse = DseEngine::new(DseConfig::fast());
        let outcome = dse
            .co_optimize_refined_in(&ctx, &small_workload(), res, &styles(), 3)
            .unwrap();
        assert!(
            ctx.stats().dedup_skips() > 0,
            "3 refinement rounds around one incumbent must revisit neighbors"
        );
        // Every design point came from exactly one full scheduler run:
        // no partition was scheduled twice.
        assert_eq!(ctx.stats().scheduler_runs(), outcome.points.len() as u64);
        assert_eq!(ctx.stats().schedule_cache_hits(), 0);
        // And the evaluated partitions really are pairwise distinct.
        let mut keys: Vec<_> = outcome
            .points
            .iter()
            .map(|p| partition_key(&p.partition))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), outcome.points.len());
    }

    #[test]
    fn shared_context_reuses_cost_memos_across_sweeps() {
        let ctx = EvalContext::new();
        let res = AcceleratorClass::Edge.resources();
        let dse = DseEngine::new(DseConfig::fast());
        let first = dse
            .co_optimize_in(&ctx, &small_workload(), res, &styles())
            .unwrap();
        let distinct_after_first = ctx.cost_model().cached_queries();
        let runs_after_first = ctx.stats().scheduler_runs();
        // The identical sweep again: every schedule is served from the
        // context memo and no new cost queries are computed.
        let second = dse
            .co_optimize_in(&ctx, &small_workload(), res, &styles())
            .unwrap();
        assert_eq!(first.points, second.points);
        assert_eq!(ctx.cost_model().cached_queries(), distinct_after_first);
        assert_eq!(ctx.stats().scheduler_runs(), runs_after_first);
        assert!(ctx.stats().schedule_cache_hits() >= first.points.len() as u64);
    }

    #[test]
    fn context_and_fresh_sweeps_agree() {
        let ctx = EvalContext::new();
        let res = AcceleratorClass::Edge.resources();
        let dse = DseEngine::new(DseConfig::fast());
        let fresh = dse.co_optimize(&small_workload(), res, &styles()).unwrap();
        let shared = dse
            .co_optimize_in(&ctx, &small_workload(), res, &styles())
            .unwrap();
        assert_eq!(fresh.points, shared.points);
    }

    #[test]
    fn reschedule_keeps_hardware_fixed() {
        let dse = DseEngine::new(DseConfig::fast());
        let res = AcceleratorClass::Edge.resources();
        let outcome = dse.co_optimize(&small_workload(), res, &styles()).unwrap();
        let best = outcome.best().unwrap();
        let other = single_model(zoo::mobilenet_v1(), 2);
        let report = dse.reschedule(&other, best).unwrap();
        assert!(report.total_latency_s() > 0.0);
    }
}
