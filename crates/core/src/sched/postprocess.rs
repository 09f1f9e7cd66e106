//! Idle-gap elimination (paper Fig. 9): re-order queue entries so that
//! layers whose dependences are already satisfied hoist into idle gaps left
//! by a bad initial order.

use crate::exec::{ExecutionReport, Schedule, ScheduleSimulator, SimError};
use crate::sched::SchedulerConfig;
use crate::sim::core::CostTable;
use crate::task::{TaskGraph, TaskId};
use herald_arch::AcceleratorConfig;
use herald_cost::CostModel;

/// Runs the Fig. 9 post-processing pass over a schedule.
///
/// For every queue position `i` of every sub-accelerator with an idle gap
/// after it, the pass looks at up to `config.lookahead` later entries of
/// the same queue; a later task whose dependences complete by the
/// completion time of entry `i` (under the *initial* timing — the paper's
/// algorithm equally tests against the schedule it is rewriting) is
/// hoisted to position `i + 1`. The rewritten schedule is verified by one
/// final replay; if it deadlocks or scores worse under the configured
/// metric, the original schedule is returned unchanged.
///
/// Both replays run under `config.metric` from one cost table, built
/// here with one cost-model query per task: hoisting only reorders
/// queues, so the candidate keeps every assignment and the table serves
/// it too. This is a thin wrapper that drops the kept schedule's report;
/// Herald's scheduler runs the same pass on the cost table its placement
/// already holds and returns that report instead of replaying again.
///
/// Complexity: `O(m n)` move scanning plus two simulations, matching the
/// paper's `O(mn)` post-processing claim.
pub fn post_process(
    schedule: Schedule,
    graph: &TaskGraph,
    acc: &AcceleratorConfig,
    cost: &CostModel,
    config: &SchedulerConfig,
) -> Schedule {
    let sim = ScheduleSimulator::new(graph, acc, cost).with_metric(config.metric);
    match sim.cost_table(&schedule) {
        Ok(costs) => refine(schedule, costs, graph, &sim, config).0,
        Err(_) => schedule,
    }
}

/// The Fig. 9 pass behind [`post_process`]: `sim` replays `graph` under
/// `config.metric` from `costs`, the schedule's cost table under that
/// metric. Returns the kept schedule with its report, or the unchanged
/// schedule with the baseline replay's error.
pub(crate) fn refine(
    schedule: Schedule,
    costs: CostTable,
    graph: &TaskGraph,
    sim: &ScheduleSimulator<'_>,
    config: &SchedulerConfig,
) -> (Schedule, Result<ExecutionReport, SimError>) {
    let baseline = match sim.simulate_with_costs(&schedule, costs.clone()) {
        Ok(report) => report,
        Err(e) => return (schedule, Err(e)),
    };
    // Index the baseline timeline by task: a single-frame replay has
    // exactly one entry per task.
    let mut start = vec![0.0; graph.len()];
    let mut finish = vec![0.0; graph.len()];
    for e in baseline.entries() {
        start[e.task.0] = e.start_s;
        finish[e.task.0] = e.finish_s;
    }

    let mut order = schedule.order().to_vec();
    let mut moved_any = false;
    for queue in order.iter_mut() {
        let mut i = 0usize;
        while i + 1 < queue.len() {
            let finish_i = finish[queue[i].0];
            let next_start = start[queue[i + 1].0];
            if next_start <= finish_i + 1e-15 {
                i += 1;
                continue; // no idle gap to fill
            }
            let window_end = (i + 1 + config.lookahead).min(queue.len());
            for j in (i + 2)..window_end {
                let cand = queue[j];
                // All producers must complete by the gap start...
                let deps_ok = graph
                    .deps(cand)
                    .iter()
                    .all(|d| finish[d.0] <= finish_i + 1e-15);
                if !deps_ok {
                    continue;
                }
                // ...and none of them may sit inside the window being
                // jumped over on this same queue (that would reorder a
                // producer behind its consumer).
                let in_window = |t: &TaskId| queue[i + 1..j].contains(t);
                if graph.deps(cand).iter().any(in_window) {
                    continue;
                }
                let moved = queue.remove(j);
                queue.insert(i + 1, moved);
                moved_any = true;
                break;
            }
            // Advance regardless of whether a hoist happened (Fig. 9 moves
            // to the next base layer after each reorder); re-examining the
            // same position with stale baseline times can oscillate between
            // two hoistable tasks forever.
            i += 1;
        }
    }
    if !moved_any {
        return (schedule, Ok(baseline));
    }

    let candidate = Schedule::new(schedule.assignment().to_vec(), order)
        .expect("hoisting preserves structural validity");
    match sim.simulate_with_costs(&candidate, costs) {
        Ok(report) if report.score(config.metric) <= baseline.score(config.metric) => {
            (candidate, Ok(report))
        }
        _ => (schedule, Ok(baseline)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ScheduleSimulator;
    use herald_arch::{AcceleratorClass, Partition};
    use herald_models::zoo;
    use herald_workloads::MultiDnnWorkload;

    fn setup() -> (TaskGraph, AcceleratorConfig, CostModel) {
        let w = MultiDnnWorkload::new("mix")
            .with_model(zoo::mobilenet_v2(), 2)
            .with_model(zoo::mobilenet_v1(), 1);
        let acc = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            Partition::even(2, 1024, 16.0),
        )
        .unwrap();
        (TaskGraph::new(&w), acc, CostModel::default())
    }

    /// A deliberately bad schedule: all tasks on their best acc, but with
    /// whole models scheduled back-to-back so cross-model gap filling has
    /// material to work with.
    fn blocky_schedule(graph: &TaskGraph, acc: &AcceleratorConfig, cost: &CostModel) -> Schedule {
        use crate::sched::{GreedyScheduler, Scheduler};
        GreedyScheduler::default()
            .schedule(graph, acc, cost)
            .unwrap()
    }

    #[test]
    fn post_processing_never_worsens_the_metric() {
        let (graph, acc, cost) = setup();
        let cfg = SchedulerConfig::default();
        let before = blocky_schedule(&graph, &acc, &cost);
        let sim = ScheduleSimulator::new(&graph, &acc, &cost);
        let before_score = sim.simulate(&before).unwrap().score(cfg.metric);
        let after = post_process(before, &graph, &acc, &cost, &cfg);
        let after_score = sim.simulate(&after).unwrap().score(cfg.metric);
        assert!(after_score <= before_score + 1e-12);
    }

    #[test]
    fn post_processing_preserves_completeness() {
        let (graph, acc, cost) = setup();
        let cfg = SchedulerConfig::default();
        let after = post_process(
            blocky_schedule(&graph, &acc, &cost),
            &graph,
            &acc,
            &cost,
            &cfg,
        );
        let report = ScheduleSimulator::new(&graph, &acc, &cost)
            .simulate(&after)
            .unwrap();
        assert_eq!(report.entries().len(), graph.len());
    }

    #[test]
    fn zero_lookahead_is_a_no_op() {
        let (graph, acc, cost) = setup();
        let cfg = SchedulerConfig {
            lookahead: 0,
            ..Default::default()
        };
        let before = blocky_schedule(&graph, &acc, &cost);
        let after = post_process(before.clone(), &graph, &acc, &cost, &cfg);
        assert_eq!(before, after);
    }

    #[test]
    fn hoists_respect_same_queue_producers() {
        // After post-processing, no task may precede one of its producers
        // on the same queue.
        let (graph, acc, cost) = setup();
        let cfg = SchedulerConfig {
            lookahead: 32,
            ..Default::default()
        };
        let after = post_process(
            blocky_schedule(&graph, &acc, &cost),
            &graph,
            &acc,
            &cost,
            &cfg,
        );
        for queue in after.order() {
            for (pos, &t) in queue.iter().enumerate() {
                for d in graph.deps(t) {
                    if let Some(dep_pos) = queue.iter().position(|x| x == d) {
                        assert!(dep_pos < pos, "{d} after its consumer {t}");
                    }
                }
            }
        }
    }
}
