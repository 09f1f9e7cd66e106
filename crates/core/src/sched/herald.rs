//! Herald's layer scheduler: the Fig. 8 assignment/ordering algorithm with
//! load-balance feedback, followed by the Fig. 9 post-processing pass.
//!
//! The construction loop itself lives in the pure placement core
//! ([`crate::sched::placement`]); this type binds it to a
//! [`SchedulerConfig`] and the [`Scheduler`] trait, and records its
//! placement work in the [`EvalStats`] it is given.

use crate::ctx::EvalStats;
use crate::error::HeraldError;
use crate::exec::{ExecutionReport, Schedule, ScheduleSimulator};
use crate::sched::{placement, postprocess, Scheduler, SchedulerConfig};
use crate::task::TaskGraph;
use herald_arch::AcceleratorConfig;
use herald_cost::CostModel;

/// The paper's scheduler (Sec. IV-D):
///
/// 1. **Dataflow-preference assignment**: each model-queue head is costed
///    on every sub-accelerator and assigned to the best one under the
///    configured metric.
/// 2. **Idle fast-path + load-balance feedback**: an idle preferred
///    sub-accelerator takes the layer immediately; a busy one is only
///    queued further if the projected completion stays within the
///    load-unbalancing factor of the lightest sub-accelerator, otherwise
///    the 2nd/3rd/... best sub-accelerator is tried (global
///    load-balancing at the cost of a locally sub-optimal dataflow).
/// 3. **Heuristic initial ordering**: depth-first (drain one model) or
///    breadth-first (rotate across models; default) model-queue rotation.
/// 4. **Deferral**: when no queue head is schedulable at the current
///    time, the clock advances to the next layer-completion event
///    (Fig. 8's `nextLayerCompletionTime`).
/// 5. **Post-processing** (Fig. 9): idle gaps left by unlucky ordering are
///    filled by hoisting later queue entries, keeping only moves the
///    simulator confirms as improvements.
///
/// # Example
///
/// ```
/// use herald_arch::{AcceleratorClass, AcceleratorConfig, Partition};
/// use herald_core::sched::{HeraldScheduler, Scheduler, SchedulerConfig};
/// use herald_core::task::TaskGraph;
/// use herald_cost::CostModel;
///
/// let graph = TaskGraph::new(&herald_workloads::single_model(
///     herald_models::zoo::mobilenet_v2(), 2));
/// let acc = AcceleratorConfig::maelstrom(
///     AcceleratorClass::Edge.resources(),
///     Partition::even(2, 1024, 16.0),
/// ).unwrap();
/// let cost = CostModel::default();
/// let report = HeraldScheduler::new(SchedulerConfig::default())
///     .schedule_and_simulate(&graph, &acc, &cost)
///     .unwrap();
/// // Both sub-accelerators participate.
/// assert!(report.per_acc().iter().all(|a| a.layers > 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeraldScheduler {
    config: SchedulerConfig,
}

impl HeraldScheduler {
    /// Creates a Herald scheduler with the given configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        Self { config }
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// One fresh run: the Fig. 8 placement, then the Fig. 9 pass when
    /// enabled. Returns the kept schedule and, when the pass replayed it,
    /// its report. The pass replays from the placement's own cost rows
    /// under the configured metric, so that report equals
    /// [`HeraldScheduler::replay`] of the schedule.
    pub(crate) fn run(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        stats: &EvalStats,
    ) -> Result<(Schedule, Option<ExecutionReport>), HeraldError> {
        stats.record_scheduler_run();
        let placed = placement::place(graph, acc, cost, &self.config, stats)?;
        if !self.config.post_process {
            return Ok((placed.schedule, None));
        }
        let (schedule, costs) = placed.into_parts();
        let sim = ScheduleSimulator::new(graph, acc, cost).with_metric(self.config.metric);
        let (schedule, report) = postprocess::refine(schedule, costs, graph, &sim, &self.config);
        Ok((schedule, report.ok()))
    }

    /// Replays `schedule` under the configured metric, the metric its
    /// reconfigurable sub-accelerators were placed under.
    pub(crate) fn replay(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        schedule: &Schedule,
    ) -> Result<ExecutionReport, HeraldError> {
        Ok(ScheduleSimulator::new(graph, acc, cost)
            .with_metric(self.config.metric)
            .simulate(schedule)?)
    }
}

impl Default for HeraldScheduler {
    fn default() -> Self {
        Self::new(SchedulerConfig::default())
    }
}

impl Scheduler for HeraldScheduler {
    fn schedule(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
    ) -> Result<Schedule, HeraldError> {
        self.schedule_with(graph, acc, cost, &EvalStats::default())
    }

    fn schedule_with(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        stats: &EvalStats,
    ) -> Result<Schedule, HeraldError> {
        Ok(self.run(graph, acc, cost, stats)?.0)
    }

    fn schedule_and_simulate(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
    ) -> Result<ExecutionReport, HeraldError> {
        self.schedule_and_simulate_with(graph, acc, cost, &EvalStats::default())
    }

    fn schedule_and_simulate_with(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        stats: &EvalStats,
    ) -> Result<ExecutionReport, HeraldError> {
        match self.run(graph, acc, cost, stats)? {
            (_, Some(report)) => Ok(report),
            (schedule, None) => self.replay(graph, acc, cost, &schedule),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ScheduleSimulator;
    use crate::sched::{GreedyScheduler, OrderingPolicy};
    use herald_arch::{AcceleratorClass, Partition};
    use herald_cost::Metric;
    use herald_models::zoo;
    use herald_workloads::{single_model, MultiDnnWorkload};

    fn maelstrom() -> AcceleratorConfig {
        AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            Partition::even(2, 1024, 16.0),
        )
        .unwrap()
    }

    fn mixed_workload() -> MultiDnnWorkload {
        MultiDnnWorkload::new("mix")
            .with_model(zoo::mobilenet_v2(), 2)
            .with_model(zoo::resnet50(), 1)
    }

    #[test]
    fn schedules_are_valid_and_complete() {
        let graph = TaskGraph::new(&mixed_workload());
        let acc = maelstrom();
        let cost = CostModel::default();
        let schedule = HeraldScheduler::default()
            .schedule(&graph, &acc, &cost)
            .unwrap();
        let report = ScheduleSimulator::new(&graph, &acc, &cost)
            .simulate(&schedule)
            .unwrap();
        assert_eq!(report.entries().len(), graph.len());
    }

    #[test]
    fn single_dependence_chain_stays_on_preferred_accelerator() {
        // GNMT is one linear chain of NVDLA-friendly GEMMs: with no
        // parallelism to exploit, load balancing must NOT bounce layers to
        // the slow sub-accelerator.
        let graph = TaskGraph::new(&single_model(zoo::gnmt(), 1));
        let acc = maelstrom();
        let cost = CostModel::default();
        let schedule = HeraldScheduler::default()
            .schedule(&graph, &acc, &cost)
            .unwrap();
        let on_nvdla = schedule.assignment().iter().filter(|&&a| a == 0).count();
        assert!(
            on_nvdla * 10 >= graph.len() * 9,
            "only {on_nvdla}/{} layers on the preferred sub-accelerator",
            graph.len()
        );
    }

    #[test]
    fn beats_greedy_on_heterogeneous_multi_dnn_workloads() {
        // The paper's headline scheduler result: ~24% less EDP than the
        // per-layer greedy baseline on Maelstrom.
        let graph = TaskGraph::new(&mixed_workload());
        let acc = maelstrom();
        let cost = CostModel::default();
        let herald = HeraldScheduler::default()
            .schedule_and_simulate(&graph, &acc, &cost)
            .unwrap();
        let greedy = GreedyScheduler::default()
            .schedule_and_simulate(&graph, &acc, &cost)
            .unwrap();
        assert!(
            herald.edp() < greedy.edp(),
            "herald {:.4e} vs greedy {:.4e}",
            herald.edp(),
            greedy.edp()
        );
    }

    #[test]
    fn exploits_layer_parallelism_across_models() {
        let graph = TaskGraph::new(&mixed_workload());
        let acc = maelstrom();
        let cost = CostModel::default();
        let report = HeraldScheduler::default()
            .schedule_and_simulate(&graph, &acc, &cost)
            .unwrap();
        // Both sub-accelerators are meaningfully busy.
        assert!(report.acc_utilization(0) > 0.2);
        assert!(report.acc_utilization(1) > 0.2);
        // The makespan beats fully serial execution by a wide margin.
        let busy: f64 = report.per_acc().iter().map(|a| a.busy_s).sum();
        assert!(report.total_latency_s() < 0.8 * busy);
    }

    #[test]
    fn depth_first_and_breadth_first_both_work() {
        let graph = TaskGraph::new(&mixed_workload());
        let acc = maelstrom();
        let cost = CostModel::default();
        for ordering in [OrderingPolicy::DepthFirst, OrderingPolicy::BreadthFirst] {
            let cfg = SchedulerConfig {
                ordering,
                ..Default::default()
            };
            let report = HeraldScheduler::new(cfg)
                .schedule_and_simulate(&graph, &acc, &cost)
                .unwrap();
            assert_eq!(report.entries().len(), graph.len(), "{ordering:?}");
        }
    }

    #[test]
    fn respects_memory_constraint() {
        let graph = TaskGraph::new(&mixed_workload());
        let acc = maelstrom();
        let cost = CostModel::default();
        let report = HeraldScheduler::default()
            .schedule_and_simulate(&graph, &acc, &cost)
            .unwrap();
        assert!(report.peak_memory_bytes() <= acc.global_buffer_bytes());
    }

    #[test]
    fn metric_override_changes_objective() {
        let graph = TaskGraph::new(&mixed_workload());
        let acc = maelstrom();
        let cost = CostModel::default();
        let lat_cfg = SchedulerConfig {
            metric: Metric::Latency,
            ..Default::default()
        };
        let lat_report = HeraldScheduler::new(lat_cfg)
            .schedule_and_simulate(&graph, &acc, &cost)
            .unwrap();
        let edp_report = HeraldScheduler::default()
            .schedule_and_simulate(&graph, &acc, &cost)
            .unwrap();
        // The latency-optimized schedule cannot be slower than the EDP one
        // by much; allow 10% tolerance for heuristic noise.
        assert!(lat_report.total_latency_s() <= edp_report.total_latency_s() * 1.1);
    }

    #[test]
    fn works_on_single_subaccelerator_configs() {
        let graph = TaskGraph::new(&single_model(zoo::mobilenet_v1(), 1));
        let acc = AcceleratorConfig::fda(
            herald_dataflow::DataflowStyle::Eyeriss,
            AcceleratorClass::Edge.resources(),
        );
        let cost = CostModel::default();
        let report = HeraldScheduler::default()
            .schedule_and_simulate(&graph, &acc, &cost)
            .unwrap();
        assert_eq!(report.entries().len(), graph.len());
        assert!((report.acc_utilization(0) - 1.0).abs() < 1e-9);
    }
}
