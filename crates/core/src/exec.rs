//! The HDA execution model: schedule replay with dependence and memory
//! constraints (paper Sec. IV-A).
//!
//! Since the streaming refactor, the actual commit loop lives in the
//! shared event core ([`crate::sim`]); [`ScheduleSimulator::simulate`] is
//! a thin single-frame wrapper over it, so one-shot replay and streaming
//! scenarios share one implementation of dependence ordering and the
//! memory-feasibility rule.

use crate::sim::core::{
    build_cost_table, max_occupancy, validate_shape, CostTable, EventCore, GraphRef, ScheduleRef,
    STAGING_FRACTION,
};
use crate::task::{TaskGraph, TaskId};
use herald_arch::AcceleratorConfig;
use herald_cost::{CostModel, EnergyBreakdown, LayerCost, Metric};
use herald_dataflow::DataflowStyle;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A complete layer-execution schedule: which sub-accelerator runs each
/// task, and in what order each sub-accelerator's queue executes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    assignment: Vec<usize>,
    order: Vec<Vec<TaskId>>,
}

impl Schedule {
    /// Builds a schedule from a per-task assignment and per-accelerator
    /// queues.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSchedule`] if a task is missing,
    /// duplicated, or queued on an accelerator other than its assignment.
    pub fn new(assignment: Vec<usize>, order: Vec<Vec<TaskId>>) -> Result<Self, SimError> {
        let n = assignment.len();
        let mut seen = vec![false; n];
        for (acc, queue) in order.iter().enumerate() {
            for &t in queue {
                if t.0 >= n {
                    return Err(SimError::InvalidSchedule(format!(
                        "{t} out of range ({n} tasks)"
                    )));
                }
                if seen[t.0] {
                    return Err(SimError::InvalidSchedule(format!("{t} queued twice")));
                }
                if assignment[t.0] != acc {
                    return Err(SimError::InvalidSchedule(format!(
                        "{t} queued on acc{acc} but assigned to acc{}",
                        assignment[t.0]
                    )));
                }
                seen[t.0] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(SimError::InvalidSchedule(format!(
                "T{missing} never queued"
            )));
        }
        Ok(Self { assignment, order })
    }

    /// The sub-accelerator index each task is assigned to.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The per-sub-accelerator execution queues.
    #[must_use]
    pub fn order(&self) -> &[Vec<TaskId>] {
        &self.order
    }

    /// Number of sub-accelerators this schedule targets.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.order.len()
    }
}

/// Errors from schedule validation or simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The schedule structure itself is inconsistent.
    InvalidSchedule(String),
    /// Execution cannot make progress: every queue head waits on a task
    /// scheduled behind another blocked head.
    Deadlock {
        /// A blocked queue-head task.
        task: TaskId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSchedule(msg) => write!(f, "invalid schedule: {msg}"),
            SimError::Deadlock { task } => {
                write!(f, "schedule deadlocks with {task} at a queue head")
            }
        }
    }
}

impl Error for SimError {}

/// One executed layer in a report timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleEntry {
    /// The task executed.
    pub task: TaskId,
    /// Sub-accelerator index.
    pub acc: usize,
    /// Start time, seconds.
    pub start_s: f64,
    /// Finish time, seconds.
    pub finish_s: f64,
    /// Dataflow style used (relevant on reconfigurable arrays).
    pub style: DataflowStyle,
    /// Energy of this layer, joules.
    pub energy_j: f64,
}

/// Per-sub-accelerator execution summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccSummary {
    /// Sub-accelerator name.
    pub name: String,
    /// Layers executed.
    pub layers: usize,
    /// Total busy time, seconds.
    pub busy_s: f64,
    /// Completion time of the last layer, seconds.
    pub finish_s: f64,
    /// Energy consumed, joules.
    pub energy_j: f64,
}

/// The outcome of replaying a schedule: the paper's "estimated latency and
/// energy" outputs of Herald (Fig. 10), plus the full timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    entries: Vec<ScheduleEntry>,
    per_acc: Vec<AccSummary>,
    energy: EnergyBreakdown,
    total_latency_s: f64,
    peak_memory_bytes: u64,
}

impl ExecutionReport {
    /// Assembles a report from the event core's accumulated state.
    pub(crate) fn from_parts(
        entries: Vec<ScheduleEntry>,
        per_acc: Vec<AccSummary>,
        energy: EnergyBreakdown,
        total_latency_s: f64,
        peak_memory_bytes: u64,
    ) -> Self {
        Self {
            entries,
            per_acc,
            energy,
            total_latency_s,
            peak_memory_bytes,
        }
    }

    /// The timeline, sorted by start time.
    #[must_use]
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// Per-sub-accelerator summaries.
    #[must_use]
    pub fn per_acc(&self) -> &[AccSummary] {
        &self.per_acc
    }

    /// Workload makespan in seconds.
    #[must_use]
    pub fn total_latency_s(&self) -> f64 {
        self.total_latency_s
    }

    /// Total energy in joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// Energy breakdown across hierarchy levels.
    #[must_use]
    pub fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }

    /// Energy-delay product, J*s.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.total_latency_s * self.total_energy_j()
    }

    /// The report under a metric.
    #[must_use]
    pub fn score(&self, metric: Metric) -> f64 {
        metric.score(self.total_latency_s, self.total_energy_j())
    }

    /// Peak simultaneous global-buffer occupancy observed, bytes.
    #[must_use]
    pub fn peak_memory_bytes(&self) -> u64 {
        self.peak_memory_bytes
    }

    /// Temporal utilization of a sub-accelerator: busy time over makespan.
    #[must_use]
    pub fn acc_utilization(&self, acc: usize) -> f64 {
        if self.total_latency_s == 0.0 {
            0.0
        } else {
            self.per_acc[acc].busy_s / self.total_latency_s
        }
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency {:.6} s, energy {:.6} J, EDP {:.6e} (peak mem {} KiB)",
            self.total_latency_s,
            self.total_energy_j(),
            self.edp(),
            self.peak_memory_bytes / 1024
        )
    }
}

/// Replays a [`Schedule`] against the execution model of Sec. IV-A:
/// sub-accelerators run their queues in order, each layer starting as soon
/// as (i) its producer layers have finished anywhere on the chip, (ii) its
/// sub-accelerator is free, and (iii) the global buffer can hold its
/// working set alongside the currently running layers.
///
/// # Example
///
/// ```
/// use herald_arch::{AcceleratorClass, AcceleratorConfig};
/// use herald_core::exec::ScheduleSimulator;
/// use herald_core::sched::{HeraldScheduler, Scheduler, SchedulerConfig};
/// use herald_core::task::TaskGraph;
/// use herald_cost::CostModel;
/// use herald_dataflow::DataflowStyle;
///
/// let graph = TaskGraph::new(&herald_workloads::single_model(
///     herald_models::zoo::mobilenet_v2(), 2));
/// let acc = AcceleratorConfig::fda(
///     DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
/// let cost = CostModel::default();
/// let schedule = HeraldScheduler::new(SchedulerConfig::default())
///     .schedule(&graph, &acc, &cost)
///     .unwrap();
/// let report = ScheduleSimulator::new(&graph, &acc, &cost)
///     .simulate(&schedule)
///     .unwrap();
/// assert!(report.total_latency_s() > 0.0);
/// ```
#[derive(Debug)]
pub struct ScheduleSimulator<'a> {
    graph: &'a TaskGraph,
    acc: &'a AcceleratorConfig,
    cost: &'a CostModel,
    metric: Metric,
}

impl<'a> ScheduleSimulator<'a> {
    /// Creates a simulator with the default (EDP) metric for
    /// reconfigurable-array style selection.
    pub fn new(graph: &'a TaskGraph, acc: &'a AcceleratorConfig, cost: &'a CostModel) -> Self {
        Self {
            graph,
            acc,
            cost,
            metric: Metric::Edp,
        }
    }

    /// Overrides the metric used when a reconfigurable sub-accelerator
    /// picks its per-layer dataflow.
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// The cost of one task on one sub-accelerator (delegates to the cost
    /// model; memoized there).
    pub fn task_cost(&self, task: TaskId, acc: usize) -> LayerCost {
        self.acc.sub_accelerators()[acc].layer_cost(self.cost, self.graph.layer(task), self.metric)
    }

    /// Staging cap per layer: the global-buffer share one layer may pin.
    pub fn staging_cap(&self) -> u64 {
        self.acc.global_buffer_bytes() / STAGING_FRACTION
    }

    /// Replays the schedule as a single frame arriving at `t = 0` on the
    /// shared event core, costing each task on its assigned
    /// sub-accelerator under this simulator's metric.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidSchedule`] if the schedule shape does not match
    /// the graph/accelerator, [`SimError::Deadlock`] if the queue order is
    /// circularly blocked.
    pub fn simulate(&self, schedule: &Schedule) -> Result<ExecutionReport, SimError> {
        self.simulate_with_costs(schedule, self.cost_table(schedule)?)
    }

    /// The replay cost table of `schedule`: each task's cost on its
    /// assigned sub-accelerator under this simulator's metric, one
    /// cost-model query per task.
    pub(crate) fn cost_table(&self, schedule: &Schedule) -> Result<CostTable, SimError> {
        validate_shape(self.acc, self.graph, schedule)?;
        Ok(build_cost_table(
            self.graph,
            schedule,
            self.acc,
            self.cost,
            self.metric,
        ))
    }

    /// [`ScheduleSimulator::simulate`] from a cost table the caller
    /// already holds. When `costs` equals [`ScheduleSimulator::cost_table`]
    /// of `schedule`, the report equals `simulate`'s bit for bit; the
    /// table is indexed by task, so schedules that differ only in queue
    /// order share one.
    pub(crate) fn simulate_with_costs(
        &self,
        schedule: &Schedule,
        costs: CostTable,
    ) -> Result<ExecutionReport, SimError> {
        let mut core = EventCore::new(self.acc);
        let max_occ = max_occupancy(self.acc, &costs);
        core.admit_with_costs(
            GraphRef::Borrowed(self.graph),
            ScheduleRef::Borrowed(schedule),
            costs,
            max_occ,
            0.0,
        )?;
        core.run_until(f64::INFINITY)?;
        Ok(core.into_single_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use herald_arch::AcceleratorClass;
    use herald_models::zoo;
    use herald_workloads::single_model;

    fn graph() -> TaskGraph {
        TaskGraph::new(&single_model(zoo::mobilenet_v1(), 2))
    }

    fn fda() -> AcceleratorConfig {
        AcceleratorConfig::fda(DataflowStyle::Nvdla, AcceleratorClass::Edge.resources())
    }

    /// A trivial valid schedule: everything on acc 0 in flattened order.
    fn serial_schedule(g: &TaskGraph) -> Schedule {
        Schedule::new(vec![0; g.len()], vec![g.ids().collect()]).unwrap()
    }

    #[test]
    fn serial_schedule_simulates() {
        let g = graph();
        let acc = fda();
        let cost = CostModel::default();
        let report = ScheduleSimulator::new(&g, &acc, &cost)
            .simulate(&serial_schedule(&g))
            .unwrap();
        assert_eq!(report.entries().len(), g.len());
        assert!(report.total_latency_s() > 0.0);
        // Serial on one accelerator: busy time == makespan (no idle gaps:
        // every layer's producer precedes it immediately).
        assert!((report.acc_utilization(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_is_sum_of_layer_latencies_when_serial() {
        let g = graph();
        let acc = fda();
        let cost = CostModel::default();
        let sim = ScheduleSimulator::new(&g, &acc, &cost);
        let expected: f64 = g.ids().map(|t| sim.task_cost(t, 0).latency_s).sum();
        let report = sim.simulate(&serial_schedule(&g)).unwrap();
        assert!((report.total_latency_s() - expected).abs() < 1e-9);
    }

    #[test]
    fn two_replicas_overlap_on_two_subaccelerators() {
        // One replica per sub-accelerator: the makespan must be far below
        // the serial sum (layer parallelism across models, Sec. III-B).
        let g = graph();
        let acc =
            AcceleratorConfig::sm_fda(DataflowStyle::Nvdla, 2, AcceleratorClass::Edge.resources())
                .unwrap();
        let cost = CostModel::default();
        let mut assignment = vec![0usize; g.len()];
        for t in g.instance_tasks(1) {
            assignment[t.0] = 1;
        }
        let order = vec![g.instance_tasks(0), g.instance_tasks(1)];
        let schedule = Schedule::new(assignment, order).unwrap();
        let report = ScheduleSimulator::new(&g, &acc, &cost)
            .simulate(&schedule)
            .unwrap();
        let serial: f64 = report.per_acc().iter().map(|a| a.busy_s).sum();
        assert!(report.total_latency_s() < 0.6 * serial);
    }

    #[test]
    fn dependences_serialize_within_a_replica() {
        let g = TaskGraph::new(&single_model(zoo::mobilenet_v1(), 1));
        let acc =
            AcceleratorConfig::sm_fda(DataflowStyle::Nvdla, 2, AcceleratorClass::Edge.resources())
                .unwrap();
        let cost = CostModel::default();
        // Alternate layers across the two sub-accelerators: the linear
        // dependence chain forces strictly sequential execution.
        let mut assignment = vec![0usize; g.len()];
        let mut q0 = Vec::new();
        let mut q1 = Vec::new();
        for t in g.ids() {
            if t.0 % 2 == 0 {
                q0.push(t);
            } else {
                assignment[t.0] = 1;
                q1.push(t);
            }
        }
        let schedule = Schedule::new(assignment, vec![q0, q1]).unwrap();
        let report = ScheduleSimulator::new(&g, &acc, &cost)
            .simulate(&schedule)
            .unwrap();
        for w in report.entries().windows(2) {
            assert!(w[1].start_s >= w[0].finish_s - 1e-12);
        }
    }

    #[test]
    fn deadlocked_order_is_detected() {
        // Two tasks with a dependence, queued in reverse on one acc.
        let g = TaskGraph::new(&single_model(zoo::mobilenet_v1(), 1));
        let mut ids: Vec<TaskId> = g.ids().collect();
        ids.swap(0, 1); // dw1 before conv1, but dw1 depends on conv1.
        let schedule = Schedule::new(vec![0; g.len()], vec![ids]).unwrap();
        let acc = fda();
        let cost = CostModel::default();
        let err = ScheduleSimulator::new(&g, &acc, &cost)
            .simulate(&schedule)
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn schedule_validation_rejects_duplicates_and_gaps() {
        let g = graph();
        let ids: Vec<TaskId> = g.ids().collect();
        let mut dup = ids.clone();
        dup[1] = dup[0];
        assert!(matches!(
            Schedule::new(vec![0; g.len()], vec![dup]),
            Err(SimError::InvalidSchedule(_))
        ));
        let missing = ids[..g.len() - 1].to_vec();
        assert!(matches!(
            Schedule::new(vec![0; g.len()], vec![missing]),
            Err(SimError::InvalidSchedule(_))
        ));
    }

    #[test]
    fn schedule_validation_rejects_wrong_queue() {
        let g = graph();
        let ids: Vec<TaskId> = g.ids().collect();
        // Assignment says acc 0 but the task is queued on acc 1.
        assert!(matches!(
            Schedule::new(vec![0; g.len()], vec![vec![], ids]),
            Err(SimError::InvalidSchedule(_))
        ));
    }

    #[test]
    fn memory_feasibility_defers_starts() {
        // With an artificially tiny global buffer, concurrent layers must
        // serialize even without dependences.
        let g = TaskGraph::new(&single_model(zoo::gnmt(), 2));
        let res = herald_arch::HardwareResources::new(1024, 16.0, 64 * 1024);
        let acc = AcceleratorConfig::sm_fda(DataflowStyle::Nvdla, 2, res).unwrap();
        let cost = CostModel::default();
        let mut assignment = vec![0usize; g.len()];
        for t in g.instance_tasks(1) {
            assignment[t.0] = 1;
        }
        let schedule =
            Schedule::new(assignment, vec![g.instance_tasks(0), g.instance_tasks(1)]).unwrap();
        let report = ScheduleSimulator::new(&g, &acc, &cost)
            .simulate(&schedule)
            .unwrap();
        // The simulator must never admit more working set than the buffer
        // holds (a single oversized layer is the only permitted exception,
        // and GNMT tiles are far below 64 KiB x 2).
        assert!(report.peak_memory_bytes() <= 64 * 1024);
    }

    #[test]
    fn report_scores_match_components() {
        let g = graph();
        let acc = fda();
        let cost = CostModel::default();
        let report = ScheduleSimulator::new(&g, &acc, &cost)
            .simulate(&serial_schedule(&g))
            .unwrap();
        assert!((report.edp() - report.total_latency_s() * report.total_energy_j()).abs() < 1e-15);
        assert_eq!(report.score(Metric::Latency), report.total_latency_s());
    }
}
