//! Layer-execution schedulers (paper Sec. IV-D, Figs. 7-9).

mod greedy;
mod herald;
mod incremental;
pub mod placement;
mod postprocess;

pub use greedy::GreedyScheduler;
pub use herald::HeraldScheduler;
pub use incremental::IncrementalScheduler;
pub use postprocess::post_process;

use crate::ctx::EvalStats;
use crate::error::HeraldError;
pub use crate::exec::Schedule;
use crate::exec::{ExecutionReport, ScheduleSimulator};
use crate::task::TaskGraph;
use herald_arch::AcceleratorConfig;
use herald_cost::{CostModel, Metric};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Initial layer-ordering heuristic (Sec. IV-D):
///
/// * **Depth-first** schedules all layers of one model before moving to
///   the next — it exploits the linear dependence chain *within* models.
/// * **Breadth-first** interleaves layers of different models — it
///   exploits the independence *across* models and is the default (layer
///   parallelism is what hides latency on an HDA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OrderingPolicy {
    /// Finish one model's layers before starting the next.
    DepthFirst,
    /// Rotate across models after every scheduled layer.
    #[default]
    BreadthFirst,
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Metric minimized when choosing a layer's sub-accelerator.
    pub metric: Metric,
    /// Initial layer-ordering heuristic.
    pub ordering: OrderingPolicy,
    /// Maximum allowed load-unbalancing factor (`LbF` in Fig. 8): the
    /// largest sub-accelerator completion time may not exceed `LbF` times
    /// the completion time a candidate assignment would produce. Larger
    /// values accept more imbalance in exchange for more first-choice
    /// (dataflow-preferred) assignments.
    pub load_balance_factor: f64,
    /// Post-processing look-ahead depth (`LA` in Fig. 9): how many
    /// queue positions ahead the idle-gap eliminator searches.
    pub lookahead: usize,
    /// Whether to run the Fig. 9 post-processing pass at all.
    pub post_process: bool,
    /// Fusion granularity: how many consecutive layers of one model
    /// instance form one *fused tile group*, the unit the placement
    /// core assigns to a sub-accelerator (the Stream-style
    /// generalization of Herald's layer placement). `1` is Herald's
    /// whole-layer placement — bit-identical to the pre-fusion
    /// scheduler by construction; larger values commit up to that many
    /// depth-wise consecutive layers to one sub-accelerator per
    /// placement decision, trading per-layer dataflow preference for
    /// fewer cross-array handoffs. Groups never span model-instance
    /// boundaries. `0` is treated as `1`.
    #[serde(default = "default_fusion")]
    pub fusion: usize,
}

/// Serde default for [`SchedulerConfig::fusion`]: records serialized
/// before the fusion knob existed deserialize as layer placement.
fn default_fusion() -> usize {
    1
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            metric: Metric::Edp,
            ordering: OrderingPolicy::BreadthFirst,
            load_balance_factor: 1.5,
            lookahead: 8,
            post_process: true,
            fusion: 1,
        }
    }
}

/// A layer scheduler: maps a task graph onto an accelerator
/// configuration's sub-accelerators.
pub trait Scheduler {
    /// Produces a complete, dependence-legal schedule.
    ///
    /// # Errors
    ///
    /// Returns [`HeraldError::Scheduling`] when the placement core
    /// detects an internal inconsistency (schedulers in this crate
    /// construct legal schedules, so an error indicates a scheduler
    /// bug — but it surfaces as a typed error instead of a panic
    /// mid-search).
    fn schedule(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
    ) -> Result<Schedule, HeraldError>;

    /// Like [`Scheduler::schedule`], recording the scheduling work
    /// (placement evaluations, full runs, memo hits) into `stats`.
    ///
    /// The default implementation delegates to [`Scheduler::schedule`]
    /// and records nothing; [`HeraldScheduler`] and
    /// [`IncrementalScheduler`] override it with exact accounting. Both
    /// entry points must return bit-identical schedules for equal
    /// inputs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scheduler::schedule`].
    fn schedule_with(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        stats: &EvalStats,
    ) -> Result<Schedule, HeraldError> {
        let _ = stats;
        self.schedule(graph, acc, cost)
    }

    /// Like [`Scheduler::schedule_with`], additionally reporting whether
    /// the schedule was served from a memo (`true`) or computed fresh
    /// (`false`). The schedule comes back shared: a memoizing scheduler
    /// hands out its memo entry's `Arc`, so a caller can recognise a
    /// schedule it has seen by pointer ([`Arc::ptr_eq`]) before comparing
    /// contents.
    ///
    /// The default implementation computes fresh and returns `false`;
    /// memoizing schedulers ([`IncrementalScheduler`]) override it. The
    /// flag is returned in-band so callers never have to infer it from
    /// shared counters (which would misattribute under concurrent use of
    /// one [`crate::ctx::EvalContext`] from several threads).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scheduler::schedule`].
    fn schedule_tracked(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        stats: &EvalStats,
    ) -> Result<(Arc<Schedule>, bool), HeraldError> {
        Ok((
            Arc::new(self.schedule_with(graph, acc, cost, stats)?),
            false,
        ))
    }

    /// Convenience: schedule and immediately replay, returning the report.
    ///
    /// The default implementation replays through
    /// [`ScheduleSimulator::new`], whose reconfigurable sub-accelerators
    /// pick their dataflows under EDP. [`HeraldScheduler`] and
    /// [`IncrementalScheduler`] override it: their report is the one the
    /// Fig. 9 pass already replayed (from the cost rows the placement
    /// queried) when a fresh run makes that pass, and otherwise one
    /// replay under [`SchedulerConfig::metric`] — a memo hit, a run with
    /// the pass off, or a run whose pass could not replay its baseline.
    /// Either way the report equals
    /// `ScheduleSimulator::new(..).with_metric(cfg.metric).simulate(..)`
    /// of the schedule [`Scheduler::schedule`] gives for the same
    /// inputs, bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures ([`HeraldError::Scheduling`]) and
    /// simulator rejections ([`HeraldError::Simulation`]); schedulers in
    /// this crate construct legal schedules, so an error indicates a
    /// scheduler bug.
    fn schedule_and_simulate(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
    ) -> Result<ExecutionReport, HeraldError> {
        let schedule = self.schedule(graph, acc, cost)?;
        Ok(ScheduleSimulator::new(graph, acc, cost).simulate(&schedule)?)
    }

    /// Convenience: [`Scheduler::schedule_with`] followed by a replay,
    /// under the same metric and with the same reuse as
    /// [`Scheduler::schedule_and_simulate`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scheduler::schedule_and_simulate`].
    fn schedule_and_simulate_with(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        stats: &EvalStats,
    ) -> Result<ExecutionReport, HeraldError> {
        let schedule = self.schedule_with(graph, acc, cost, stats)?;
        Ok(ScheduleSimulator::new(graph, acc, cost).simulate(&schedule)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_defaults() {
        let c = SchedulerConfig::default();
        assert_eq!(c.metric, Metric::Edp);
        assert_eq!(c.ordering, OrderingPolicy::BreadthFirst);
        assert!(c.post_process);
        assert!(c.load_balance_factor > 1.0);
        assert_eq!(c.fusion, 1, "layer placement is the default");
    }

    #[test]
    fn pre_fusion_configs_deserialize_as_layer_placement() {
        // A SchedulerConfig serialized before the fusion knob existed
        // has no `fusion` field; it must deserialize to granularity 1
        // (the placement unit those records were produced under).
        let legacy = r#"{
            "metric": "Edp",
            "ordering": "BreadthFirst",
            "load_balance_factor": 1.5,
            "lookahead": 8,
            "post_process": true
        }"#;
        let cfg: SchedulerConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(cfg, SchedulerConfig::default());
    }
}
