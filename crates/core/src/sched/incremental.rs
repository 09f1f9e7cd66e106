//! The incremental scheduling layer: a [`Scheduler`] that memoizes whole
//! schedules in a shared [`EvalContext`].
//!
//! Herald's scheduler is a pure function of its inputs (see
//! [`crate::sched::placement`]), so two calls with structurally equal
//! inputs must produce bit-identical schedules. [`IncrementalScheduler`]
//! exploits that: it derives a [`ScheduleKey`] from the task graph, the
//! accelerator and its configuration, and serves repeat requests from
//! the context's [`crate::ctx::ScheduleState`] instead of re-running the
//! placement core. Cache hits are recorded in the supplied
//! [`EvalStats`]; correctness is unconditional because the key captures
//! every input the placement core reads.
//!
//! This is what makes repeated facade calls cheap: a DSE refinement pass
//! revisiting an incumbent, a second `Experiment::scenario` call on the
//! same context, or a streaming engine compiling the same workload for
//! a new stream all hit the memo.

use crate::ctx::{EvalContext, EvalStats, ScheduleFingerprint, ScheduleKey};
use crate::error::HeraldError;
use crate::exec::{ExecutionReport, Schedule};
use crate::sched::{HeraldScheduler, Scheduler};
use crate::task::TaskGraph;
use herald_arch::AcceleratorConfig;
use herald_cost::CostModel;
use std::sync::Arc;

/// A memoizing wrapper around [`HeraldScheduler`]: schedules are cached
/// in a shared [`EvalContext`] under exact-input [`ScheduleKey`]s, so
/// repeat requests are served bit-identically without re-running the
/// placement core.
///
/// # Example
///
/// ```
/// use herald_core::ctx::EvalContext;
/// use herald_core::sched::{HeraldScheduler, IncrementalScheduler, Scheduler};
/// use herald_core::task::TaskGraph;
/// use herald_arch::{AcceleratorClass, AcceleratorConfig};
/// use herald_dataflow::DataflowStyle;
///
/// let ctx = EvalContext::new();
/// let sched = IncrementalScheduler::new(HeraldScheduler::default(), ctx.clone());
/// let graph = TaskGraph::new(&herald_workloads::single_model(
///     herald_models::zoo::mobilenet_v1(), 1));
/// let acc = AcceleratorConfig::fda(
///     DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
/// let a = sched.schedule_with(&graph, &acc, ctx.cost_model(), ctx.stats()).unwrap();
/// let b = sched.schedule_with(&graph, &acc, ctx.cost_model(), ctx.stats()).unwrap();
/// assert_eq!(a, b); // bit-identical, and the second call was a memo hit
/// assert_eq!(ctx.stats().schedule_cache_hits(), 1);
/// assert_eq!(ctx.stats().scheduler_runs(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalScheduler {
    inner: HeraldScheduler,
    ctx: EvalContext,
}

impl IncrementalScheduler {
    /// Wraps a Herald scheduler with the given shared context.
    pub fn new(inner: HeraldScheduler, ctx: EvalContext) -> Self {
        Self { inner, ctx }
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &HeraldScheduler {
        &self.inner
    }

    /// The shared evaluation context this scheduler memoizes into.
    pub fn context(&self) -> &EvalContext {
        &self.ctx
    }

    /// Serves the schedule from the memo, or runs the inner scheduler and
    /// memoizes its schedule. Returns the schedule (shared with the memo
    /// entry), the report of the Fig. 9 pass's kept schedule when a fresh
    /// run replayed it, and whether the memo served it.
    fn serve(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        stats: &EvalStats,
    ) -> Result<(Arc<Schedule>, Option<ExecutionReport>, bool), HeraldError> {
        // Fingerprint-first probe: no allocation on the hot path. The
        // full structural key is only materialised on a miss, to store
        // behind the fingerprint for collision verification.
        let fp = ScheduleFingerprint::of_inputs(graph, acc, self.inner.config(), cost);
        stats.record_fingerprint_lookup();
        let found = self
            .ctx
            .schedules()
            .lookup(fp, graph, acc, self.inner.config(), cost);
        if found.collisions > 0 {
            stats.record_fingerprint_collisions(found.collisions);
        }
        if found.graph_walks > 0 {
            stats.record_verify_graph_walks(found.graph_walks);
        }
        if let Some(schedule) = found.schedule {
            stats.record_schedule_cache_hit();
            stats.record_fingerprint_hit();
            return Ok((schedule, None, true));
        }
        let (schedule, report) = self.inner.run(graph, acc, cost, stats)?;
        let schedule = Arc::new(schedule);
        let key = ScheduleKey::new(graph, acc, self.inner.config(), cost);
        self.ctx
            .schedules()
            .insert_under(fp, key, Arc::clone(&schedule));
        Ok((schedule, report, false))
    }
}

impl Scheduler for IncrementalScheduler {
    fn schedule(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
    ) -> Result<Schedule, HeraldError> {
        self.schedule_with(graph, acc, cost, self.ctx.stats())
    }

    fn schedule_with(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        stats: &EvalStats,
    ) -> Result<Schedule, HeraldError> {
        Ok(Arc::unwrap_or_clone(
            self.schedule_tracked(graph, acc, cost, stats)?.0,
        ))
    }

    fn schedule_tracked(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        stats: &EvalStats,
    ) -> Result<(Arc<Schedule>, bool), HeraldError> {
        let (schedule, _, hit) = self.serve(graph, acc, cost, stats)?;
        Ok((schedule, hit))
    }

    fn schedule_and_simulate(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
    ) -> Result<ExecutionReport, HeraldError> {
        self.schedule_and_simulate_with(graph, acc, cost, self.ctx.stats())
    }

    fn schedule_and_simulate_with(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        stats: &EvalStats,
    ) -> Result<ExecutionReport, HeraldError> {
        match self.serve(graph, acc, cost, stats)? {
            (_, Some(report), _) => Ok(report),
            (schedule, None, _) => self.inner.replay(graph, acc, cost, &schedule),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use herald_arch::{AcceleratorClass, Partition};
    use herald_models::zoo;
    use herald_workloads::single_model;

    fn setup() -> (TaskGraph, AcceleratorConfig) {
        let graph = TaskGraph::new(&single_model(zoo::mobilenet_v1(), 2));
        let acc = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            Partition::even(2, 1024, 16.0),
        )
        .unwrap();
        (graph, acc)
    }

    #[test]
    fn memo_hits_are_bit_identical_to_fresh_runs() {
        let (graph, acc) = setup();
        let ctx = EvalContext::new();
        let inc = IncrementalScheduler::new(HeraldScheduler::default(), ctx.clone());
        let fresh = HeraldScheduler::default()
            .schedule(&graph, &acc, ctx.cost_model())
            .unwrap();
        let first = inc.schedule(&graph, &acc, ctx.cost_model()).unwrap();
        let second = inc.schedule(&graph, &acc, ctx.cost_model()).unwrap();
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        assert_eq!(ctx.stats().scheduler_runs(), 1);
        assert_eq!(ctx.stats().schedule_cache_hits(), 1);
        assert_eq!(ctx.schedules().len(), 1);
    }

    #[test]
    fn different_graphs_do_not_share_memo_entries() {
        let (graph, acc) = setup();
        let other = TaskGraph::new(&single_model(zoo::mobilenet_v2(), 1));
        let ctx = EvalContext::new();
        let inc = IncrementalScheduler::new(HeraldScheduler::default(), ctx.clone());
        let a = inc.schedule(&graph, &acc, ctx.cost_model()).unwrap();
        let b = inc.schedule(&other, &acc, ctx.cost_model()).unwrap();
        assert_ne!(a.assignment().len(), b.assignment().len());
        assert_eq!(ctx.stats().scheduler_runs(), 2);
        assert_eq!(ctx.stats().schedule_cache_hits(), 0);
        assert_eq!(ctx.schedules().len(), 2);
    }

    #[test]
    fn different_cost_models_do_not_share_memo_entries() {
        // A memo warmed under one cost-model configuration must never
        // serve a request made under another: the schedules genuinely
        // differ when relative layer costs change.
        let (graph, acc) = setup();
        let ctx = EvalContext::new();
        let inc = IncrementalScheduler::new(HeraldScheduler::default(), ctx.clone());
        inc.schedule(&graph, &acc, ctx.cost_model()).unwrap();
        let slow_dram = herald_cost::CostModel::new(herald_cost::CostModelConfig {
            clock_ghz: 2.0,
            ..Default::default()
        });
        inc.schedule(&graph, &acc, &slow_dram).unwrap();
        assert_eq!(ctx.stats().scheduler_runs(), 2, "no cross-model hit");
        assert_eq!(ctx.stats().schedule_cache_hits(), 0);
        assert_eq!(ctx.schedules().len(), 2);
    }

    #[test]
    fn placement_evals_are_skipped_on_hits() {
        let (graph, acc) = setup();
        let ctx = EvalContext::new();
        let inc = IncrementalScheduler::new(HeraldScheduler::default(), ctx.clone());
        inc.schedule(&graph, &acc, ctx.cost_model()).unwrap();
        let after_first = ctx.stats().placement_evals();
        assert!(after_first > 0);
        inc.schedule(&graph, &acc, ctx.cost_model()).unwrap();
        assert_eq!(ctx.stats().placement_evals(), after_first);
    }
}
