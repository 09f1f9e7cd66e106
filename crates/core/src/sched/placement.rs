//! The pure placement core: the Fig. 8 assignment/ordering loop as a
//! stateless function, generalized from whole layers to fused tile
//! groups.
//!
//! [`construct_schedule`] is the single implementation of Herald's
//! dataflow-preference + load-balance-feedback construction (a thin
//! wrapper over the crate-private `place`, which also hands back the
//! cost rows it queried). It keeps no state across calls: given equal
//! inputs it returns bit-identical schedules, which is what lets the
//! incremental layer ([`crate::sched::IncrementalScheduler`]) and the
//! streaming engine memoize its output safely. Every per-(task,
//! sub-accelerator) cost ranking it performs is recorded as a
//! *placement evaluation* in the supplied [`EvalStats`], so callers can
//! observe exactly how much placement work a pipeline did.
//!
//! # Per-way timeline
//!
//! Each sub-accelerator runs its groups back to back, so the committed
//! intervals form one sorted, disjoint list per way. The memory check,
//! the memory-deferral test and the deferral clock are binary searches
//! over those lists, O(ways·log n) per query, and answer exactly what
//! the flat-list scans of the event core's reference answer over all
//! intervals (`timeline_matches_the_flat_interval_list`).
//!
//! # Placement unit: fused tile groups
//!
//! The unit the loop assigns is a [`FusionPlan`] group — up to
//! `cfg.fusion` depth-wise consecutive layers of one model instance,
//! never crossing instance boundaries (the Stream-style generalization
//! of Herald's layer placement). A group is costed on every
//! sub-accelerator as a whole: its latency is the sum of its members'
//! latencies and its ranking score the sum of their per-layer scores,
//! summed from the members' per-layer [`CostModel`] costs. All members of a chosen group commit to the same
//! sub-accelerator back to back. At granularity 1 every group is a
//! single layer and the loop reduces *exactly* to the historical
//! per-layer construction — same comparisons, same float operations,
//! bit-identical schedules (pinned by the equivalence suite in
//! `tests/fused_equivalence.rs`).
//!
//! # Time comparisons
//!
//! All clock comparisons use a *relative* slack
//! (`time_slack`): the historical absolute epsilons (`1e-15`,
//! `1e-12`) fall below the f64 ulp once simulated time passes ~4.5 s
//! and ~4096 s respectively, so on long horizons `now + eps == now`
//! and the completion-event filter / tie-breaks silently degenerate.
//! The relative slack keeps the construction scale-invariant: scaling
//! every latency by a power of two (an exact f64 operation) yields the
//! identical schedule.

use crate::ctx::EvalStats;
use crate::error::HeraldError;
use crate::exec::Schedule;
use crate::sched::{OrderingPolicy, SchedulerConfig};
use crate::sim::core::CostTable;
use crate::task::{TaskGraph, TaskId};
use herald_arch::AcceleratorConfig;
use herald_cost::{CostModel, LayerCost, Metric};
use std::collections::VecDeque;

/// Floor of the comparison slack, seconds: the historical absolute
/// epsilon, kept so that near time zero the relative slack degrades to
/// exactly the pre-fusion behavior.
const ABS_EPS: f64 = 1e-15;

/// Relative component of the comparison slack: ~1000 ulps at any
/// magnitude, wide enough to absorb reassociation error in long
/// latency sums, far below any real layer latency.
const REL_EPS: f64 = 1e-12;

/// Scale-aware comparison slack around time `t`: two event times
/// within `time_slack(t)` of each other are simultaneous. Never
/// smaller than the historical `1e-15`, and grows with `|t|` so it
/// stays above the ulp at any simulated time.
#[inline]
fn time_slack(t: f64) -> f64 {
    ABS_EPS.max(t.abs() * REL_EPS)
}

/// The smallest forced clock advance past `t` that is guaranteed to
/// make strict progress: `t + time_slack(t)`, or the next representable
/// f64 when even that is absorbed (non-finite inputs saturate).
#[inline]
fn strictly_after(t: f64) -> f64 {
    let bumped = t + time_slack(t);
    if bumped > t {
        bumped
    } else {
        // Degenerate magnitudes only: step one ulp.
        f64::from_bits(t.to_bits() + 1)
    }
}

/// A depth-wise partition of a [`TaskGraph`] into fused tile groups:
/// each group is up to `granularity` consecutive tasks of one model
/// instance (the placement unit of [`construct_schedule`]). Groups
/// never span instance boundaries; a trailing group may be shorter.
/// Granularity 1 (or 0, treated as 1) puts every task in its own group
/// — Herald's whole-layer placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionPlan {
    granularity: usize,
    /// Per-instance task lists, pre-flattened once.
    instance_tasks: Vec<Vec<TaskId>>,
}

impl FusionPlan {
    /// Partitions `graph` into depth-wise groups of up to `granularity`
    /// tasks per model instance.
    pub fn new(graph: &TaskGraph, granularity: usize) -> Self {
        Self {
            granularity: granularity.max(1),
            instance_tasks: (0..graph.num_instances())
                .map(|i| graph.instance_tasks(i))
                .collect(),
        }
    }

    /// The effective granularity (at least 1).
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// Number of model instances in the plan.
    pub fn num_instances(&self) -> usize {
        self.instance_tasks.len()
    }

    /// Total number of groups across all instances.
    pub fn num_groups(&self) -> usize {
        self.instance_tasks
            .iter()
            .map(|t| t.len().div_ceil(self.granularity))
            .sum()
    }

    /// All tasks of instance `inst`, in depth order.
    fn tasks(&self, inst: usize) -> &[TaskId] {
        &self.instance_tasks[inst]
    }

    /// The group of instance `inst` starting at task position `head`:
    /// up to `granularity` consecutive tasks, clipped at the instance
    /// end. Empty when the instance is exhausted.
    fn group_at(&self, inst: usize, head: usize) -> &[TaskId] {
        let tasks = &self.instance_tasks[inst];
        let end = (head + self.granularity).min(tasks.len());
        &tasks[head.min(tasks.len())..end]
    }
}

/// Every (layer class, sub-accelerator) cost the placement queries,
/// under the scheduler's metric: `rows[c * ways + a]` is class `c` (see
/// [`TaskGraph::layer_class`]) on way `a`. A class is costed on every way
/// at the first head visit of any of its tasks, and every later visit of
/// a task of the class reads its row, so the cost model sees each (class,
/// way) query once per placement. All tasks of a class cost the same, so
/// a row is what a per-task query would have returned, and the query set
/// (hence the cost model's memo contents) is what per-task queries
/// produced. Every task is a head member before it commits, so the rows
/// cover every task at the end.
struct CostRows<'g> {
    graph: &'g TaskGraph,
    ways: usize,
    rows: Vec<Option<LayerCost>>,
}

impl<'g> CostRows<'g> {
    fn new(graph: &'g TaskGraph, ways: usize) -> Self {
        Self {
            graph,
            ways,
            rows: vec![None; graph.num_layer_classes() * ways],
        }
    }

    /// Costs the class of every member of `group` not yet costed on
    /// every way, in (member, way) order.
    fn cost_group(
        &mut self,
        group: &[TaskId],
        acc: &AcceleratorConfig,
        cost: &CostModel,
        metric: Metric,
    ) {
        for &t in group {
            let c = self.graph.layer_class(t);
            let row = &mut self.rows[c * self.ways..(c + 1) * self.ways];
            if row[0].is_none() {
                for (slot, sub) in row.iter_mut().zip(acc.sub_accelerators()) {
                    *slot = Some(sub.layer_cost(cost, self.graph.layer(t), metric));
                }
            }
        }
    }

    /// Task `t`'s cost on way `a`, read through its class; `t` must have
    /// been costed.
    fn get(&self, t: TaskId, a: usize) -> &LayerCost {
        self.rows[self.graph.layer_class(t) * self.ways + a]
            .as_ref()
            .expect("a task's class is costed at its group's first head visit")
    }

    /// The replay cost table of `assignment`: each task's class row on
    /// its assigned way. Every task of a complete assignment was costed
    /// before it committed.
    fn into_table(self, assignment: &[usize]) -> CostTable {
        self.graph
            .ids()
            .map(|t| self.get(t, assignment[t.0]).clone())
            .collect()
    }
}

/// The per-sub-accelerator cost of one fused tile group, summed from
/// its members' rows: group latency is the member sum, the ranking
/// score the sum of member scores (member costs stay separate in the
/// rows, so the per-layer buffer occupancies stay exact). At
/// granularity 1 both reduce to the single member's values with no
/// extra arithmetic (`0.0 + x` preserves every bit for finite non-zero
/// `x`, and scores/latencies are positive). One buffer pair serves
/// every head visit of a placement.
struct GroupCost {
    /// Summed latency per sub-accelerator, seconds.
    latency_s: Vec<f64>,
    /// Summed ranking score per sub-accelerator.
    score: Vec<f64>,
}

impl GroupCost {
    fn new(ways: usize) -> Self {
        Self {
            latency_s: vec![0.0; ways],
            score: vec![0.0; ways],
        }
    }

    /// Sums `group`'s rows, in member order per way.
    fn sum(&mut self, group: &[TaskId], rows: &CostRows<'_>, metric: Metric) {
        self.latency_s.fill(0.0);
        self.score.fill(0.0);
        for &t in group {
            for a in 0..self.latency_s.len() {
                let c = rows.get(t, a);
                self.latency_s[a] += c.latency_s;
                self.score[a] += c.score(metric);
            }
        }
    }
}

/// The placement's committed intervals `(start, finish,
/// occupancy_bytes)`, one list per way. Each way runs its groups back
/// to back (a commit starts at or after its way's last finish), so every
/// list is sorted by start and by finish, and only its last interval
/// starting at or before `t` can hold `t` (half-open, like
/// [`crate::sim::core::occupancy_at`]). One binary search per way then
/// answers what the flat-list scans answer over all intervals: the
/// occupancy at `t` and the earliest finish after `t`, in
/// O(ways·log n) instead of O(n).
struct Timeline {
    ways: Vec<Vec<(f64, f64, u64)>>,
}

impl Timeline {
    fn new(ways: usize) -> Self {
        Self {
            ways: vec![Vec::new(); ways],
        }
    }

    /// Appends an interval to way `a`, which must start at or after the
    /// way's last finish.
    fn push(&mut self, a: usize, start: f64, finish: f64, occ: u64) {
        let way = &mut self.ways[a];
        debug_assert!(
            way.last().is_none_or(|&(_, f, _)| f <= start) && start <= finish,
            "way {a}: [{start}, {finish}) does not follow its last interval"
        );
        way.push((start, finish, occ));
    }

    /// `(occupancy at t, earliest finish after t)`, the finish infinite
    /// when none is after `t`. On each way the last interval starting at
    /// or before `t` either holds `t` (then its finish is the way's first
    /// after `t`) or ends by `t` (then the next interval, which starts
    /// after `t`, holds the way's first finish after `t`).
    fn probe(&self, t: f64) -> (u64, f64) {
        let mut occ = 0;
        let mut next = f64::INFINITY;
        for way in &self.ways {
            let i = way.partition_point(|&(s, _, _)| s <= t);
            let fin = match i.checked_sub(1).map(|j| way[j]) {
                Some((_, f, o)) if t < f => {
                    occ += o;
                    f
                }
                _ => way.get(i).map_or(f64::INFINITY, |&(_, f, _)| f),
            };
            next = next.min(fin);
        }
        (occ, next)
    }

    /// The earliest time `>= ready` at which `occ` extra bytes fit under
    /// `gb`, stepping across finish events; when none is left the buffer
    /// can never free up, so it admits at once (as
    /// [`crate::sim::core::earliest_memory_feasible`] does).
    fn earliest_feasible(&self, ready: f64, occ: u64, gb: u64) -> f64 {
        let mut t = ready;
        loop {
            let (used, next) = self.probe(t);
            if used + occ <= gb || next.is_infinite() {
                return t;
            }
            t = next;
        }
    }
}

/// A constructed schedule with the cost rows its placement queried.
pub(crate) struct Placement<'g> {
    /// The Fig. 8 schedule.
    pub(crate) schedule: Schedule,
    rows: CostRows<'g>,
}

impl Placement<'_> {
    /// The schedule and its replay cost table under the scheduler's
    /// metric, taken from the placement's rows with no cost-model query.
    /// The Fig. 9 pass keeps every assignment, so the table serves its
    /// candidate too.
    pub(crate) fn into_parts(self) -> (Schedule, CostTable) {
        let table = self.rows.into_table(self.schedule.assignment());
        (self.schedule, table)
    }
}

/// Runs the Fig. 8 construction loop over fused tile groups and returns
/// the initial schedule (no post-processing — see
/// [`crate::sched::post_process`] for the Fig. 9 pass).
///
/// Each visit of a model-queue head ranks every member of the head
/// group on every sub-accelerator; those rankings are recorded in
/// `stats` as placement evaluations (`group_len * ways` per visit). The
/// cost model is queried once per (layer class, sub-accelerator), under
/// `cfg.metric`, at the first head visit of any task of the class; later
/// visits reuse those costs. This is a thin wrapper that drops them;
/// Herald's scheduler keeps them to replay the schedule without querying
/// again.
///
/// # Errors
///
/// Returns [`HeraldError::Scheduling`] when the construction state is
/// internally inconsistent (a scheduled instance missing from the
/// rotation, an unscheduled dependence inside a committed group, or a
/// structurally invalid assignment) — conditions that indicate a
/// scheduler bug and previously panicked.
pub fn construct_schedule(
    graph: &TaskGraph,
    acc: &AcceleratorConfig,
    cost: &CostModel,
    cfg: &SchedulerConfig,
    stats: &EvalStats,
) -> Result<Schedule, HeraldError> {
    Ok(place(graph, acc, cost, cfg, stats)?.schedule)
}

/// The Fig. 8 construction behind [`construct_schedule`], returning the
/// schedule with the cost rows it queried.
pub(crate) fn place<'g>(
    graph: &'g TaskGraph,
    acc: &AcceleratorConfig,
    cost: &CostModel,
    cfg: &SchedulerConfig,
    stats: &EvalStats,
) -> Result<Placement<'g>, HeraldError> {
    let ways = acc.sub_accelerators().len();
    let gb = acc.global_buffer_bytes();
    let staging_cap = gb / 4;

    // The placement units: fused tile groups (granularity 1 = layers).
    let plan = FusionPlan::new(graph, cfg.fusion);
    let mut heads = vec![0usize; plan.num_instances()];
    // Model visit rotation (Fig. 8's `rearrange(MD)`).
    let mut rotation: VecDeque<usize> = (0..plan.num_instances()).collect();

    let mut now = 0.0f64;
    let mut acc_free = vec![0.0f64; ways];
    let mut tot_latency = vec![0.0f64; ways];
    let mut finish: Vec<Option<f64>> = vec![None; graph.len()];
    let mut timeline = Timeline::new(ways);
    let mut rows = CostRows::new(graph, ways);
    let mut costs = GroupCost::new(ways);
    let mut ranked: Vec<usize> = Vec::with_capacity(ways);
    let mut candidates: Vec<usize> = Vec::with_capacity(ways);
    let mut assignment = vec![0usize; graph.len()];
    let mut order: Vec<Vec<TaskId>> = vec![Vec::new(); ways];
    let mut remaining = graph.len();

    while remaining > 0 {
        let mut scheduled: Option<usize> = None; // instance that progressed

        'models: for &inst in &rotation {
            if heads[inst] >= plan.tasks(inst).len() {
                continue;
            }
            let group = plan.group_at(inst, heads[inst]);
            let t = group[0];

            // Dependence condition at the group's first member:
            // producers complete by the current cycle (they are always
            // *scheduled* because layers of one instance are visited in
            // order; later members' external producers are handled at
            // commit time below, where intra-group sequencing already
            // delays them past the first member).
            let dep_ok = graph
                .deps(t)
                .iter()
                .all(|d| finish[d.0].is_some_and(|f| f <= now + time_slack(now)));
            if !dep_ok {
                continue;
            }

            // Rank sub-accelerators by the group's summed per-layer
            // metric (dataflow preference).
            stats.record_placement_evals((group.len() * ways) as u64);
            rows.cost_group(group, acc, cost, cfg.metric);
            costs.sum(group, &rows, cfg.metric);
            ranked.clear();
            ranked.extend(0..ways);
            ranked.sort_by(|&a, &b| costs.score[a].total_cmp(&costs.score[b]));
            let preferred = ranked[0];

            // Load-balance feedback (Fig. 8): the group goes to its
            // preferred sub-accelerator *as long as possible*; only
            // when that assignment would leave the preferred array
            // loaded beyond `LbF x` the lightest projected load does
            // the scheduler explore alternatives — and then it picks
            // whichever sub-accelerator completes the group earliest
            // (queue wait plus group latency), the "alternative layer
            // assignment that reduces overall costs" of Sec. IV-D.
            let min_projected = (0..ways)
                .map(|a| tot_latency[a] + costs.latency_s[a])
                .fold(f64::INFINITY, f64::min);
            let unbalanced = tot_latency[preferred] + costs.latency_s[preferred]
                > cfg.load_balance_factor * min_projected;
            candidates.clone_from(&ranked);
            if unbalanced {
                candidates.sort_by(|&a, &b| {
                    let fa = now.max(acc_free[a]) + costs.latency_s[a];
                    let fb = now.max(acc_free[b]) + costs.latency_s[b];
                    fa.total_cmp(&fb)
                });
            }

            for &a in &candidates {
                // Memory condition at the first member's actual start
                // time (the admission decision; later members follow
                // sequentially on the same array).
                let occ = rows.get(t, a).buffer.occupancy_bytes(staging_cap);
                let ready = now.max(acc_free[a]);
                let start = timeline.earliest_feasible(ready, occ, gb);
                if start > ready + time_slack(ready) && timeline.probe(now).1.is_finite() {
                    // Memory-deferred while other layers are still
                    // draining (some finish lies after `now`): try the
                    // next candidate instead.
                    continue;
                }

                // Commit the whole group to `a`, members back to back.
                let mut cursor = start;
                for (g, &m) in group.iter().enumerate() {
                    let lat = rows.get(m, a).latency_s;
                    let (m_start, m_occ) = if g == 0 {
                        (start, occ)
                    } else {
                        // Later members wait for the previous member
                        // and any external producers, then claim
                        // staging memory at their own start.
                        let mut m_ready = cursor;
                        for d in graph.deps(m) {
                            let f = finish[d.0].ok_or_else(|| HeraldError::Scheduling {
                                reason: format!(
                                    "dependence {d} of fused group member {m} \
                                     is unscheduled at commit time"
                                ),
                            })?;
                            m_ready = m_ready.max(f);
                        }
                        let m_occ = rows.get(m, a).buffer.occupancy_bytes(staging_cap);
                        (timeline.earliest_feasible(m_ready, m_occ, gb), m_occ)
                    };
                    let m_fin = m_start + lat;
                    timeline.push(a, m_start, m_fin, m_occ);
                    finish[m.0] = Some(m_fin);
                    tot_latency[a] += lat;
                    assignment[m.0] = a;
                    order[a].push(m);
                    cursor = m_fin;
                }
                acc_free[a] = cursor;
                heads[inst] += group.len();
                remaining -= group.len();
                scheduled = Some(inst);
                break 'models;
            }
        }

        match scheduled {
            Some(inst) => {
                // `rearrange(MD)`: keep draining the same model
                // (depth-first) or rotate to the next (breadth-first).
                let pos = rotation.iter().position(|&i| i == inst).ok_or_else(|| {
                    HeraldError::Scheduling {
                        reason: format!("scheduled instance {inst} is missing from the rotation"),
                    }
                })?;
                rotation.remove(pos);
                match cfg.ordering {
                    OrderingPolicy::DepthFirst => rotation.push_front(inst),
                    OrderingPolicy::BreadthFirst => rotation.push_back(inst),
                }
            }
            None => {
                // Defer: advance to the next completion event; if the
                // chip is fully drained, force the clock strictly past
                // every queue tail so the next sweep finds an idle
                // accelerator (safety net — cannot recurse because an
                // idle accelerator always accepts). Every committed task
                // has one interval ending at its finish, so the next
                // completion is the timeline's next finish.
                let (_, next) = timeline.probe(now + time_slack(now));
                if next.is_finite() {
                    now = next;
                } else {
                    now = strictly_after(acc_free.iter().copied().fold(now, f64::max));
                }
            }
        }
    }

    let schedule = Schedule::new(assignment, order).map_err(|e| HeraldError::Scheduling {
        reason: format!("constructed assignment failed structural validation: {e}"),
    })?;
    Ok(Placement { schedule, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use herald_arch::{AcceleratorClass, Partition};
    use herald_models::zoo;
    use herald_workloads::MultiDnnWorkload;

    fn setup() -> (TaskGraph, AcceleratorConfig, CostModel) {
        let w = MultiDnnWorkload::new("mix")
            .with_model(zoo::mobilenet_v1(), 1)
            .with_model(zoo::mobilenet_v2(), 1);
        let acc = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            Partition::even(2, 1024, 16.0),
        )
        .unwrap();
        (TaskGraph::new(&w), acc, CostModel::default())
    }

    #[test]
    fn placement_evaluations_are_counted_per_head_visit() {
        let (graph, acc, cost) = setup();
        let stats = EvalStats::default();
        let schedule =
            construct_schedule(&graph, &acc, &cost, &SchedulerConfig::default(), &stats).unwrap();
        assert_eq!(schedule.assignment().len(), graph.len());
        // Every scheduled task costs at least one head visit of `ways`
        // evaluations; deferred visits add more.
        let ways = acc.sub_accelerators().len() as u64;
        assert!(stats.placement_evals() >= graph.len() as u64 * ways);
        assert_eq!(stats.placement_evals() % ways, 0);
    }

    #[test]
    fn fusion_plan_partitions_depth_wise_without_crossing_instances() {
        let (graph, _, _) = setup();
        for granularity in [1, 2, 3, 7, usize::MAX] {
            let plan = FusionPlan::new(&graph, granularity);
            assert_eq!(plan.granularity(), granularity.max(1));
            let mut seen = 0usize;
            for inst in 0..plan.num_instances() {
                let tasks = graph.instance_tasks(inst);
                let mut head = 0;
                while head < tasks.len() {
                    let group = plan.group_at(inst, head);
                    assert!(!group.is_empty() && group.len() <= plan.granularity());
                    // Depth-wise consecutive tasks of this instance only.
                    assert_eq!(group, &tasks[head..head + group.len()]);
                    head += group.len();
                    seen += group.len();
                }
            }
            assert_eq!(seen, graph.len(), "granularity {granularity}");
            let groups = plan.num_groups();
            assert!(groups >= graph.num_instances());
            if granularity == 1 {
                assert_eq!(groups, graph.len());
            }
        }
    }

    #[test]
    fn fused_groups_commit_consecutively_to_one_subaccelerator() {
        let (graph, acc, cost) = setup();
        let cfg = SchedulerConfig {
            fusion: 4,
            ..Default::default()
        };
        let stats = EvalStats::default();
        let schedule = construct_schedule(&graph, &acc, &cost, &cfg, &stats).unwrap();
        assert_eq!(schedule.assignment().len(), graph.len());
        // Every fused group landed on a single sub-accelerator, its
        // members adjacent in that queue.
        let plan = FusionPlan::new(&graph, cfg.fusion);
        for inst in 0..plan.num_instances() {
            let tasks = graph.instance_tasks(inst);
            let mut head = 0;
            while head < tasks.len() {
                let group = plan.group_at(inst, head);
                let a = schedule.assignment()[group[0].0];
                for &m in group {
                    assert_eq!(schedule.assignment()[m.0], a, "group split across arrays");
                }
                let queue = &schedule.order()[a];
                let pos0 = queue.iter().position(|&q| q == group[0]).unwrap();
                for (g, &m) in group.iter().enumerate() {
                    assert_eq!(queue[pos0 + g], m, "group members not adjacent");
                }
                head += group.len();
            }
        }
        // Fused placement costs the same per-task evaluations (each
        // member costed once per way), still a multiple of `ways`.
        let ways = acc.sub_accelerators().len() as u64;
        assert_eq!(stats.placement_evals() % ways, 0);
        assert!(stats.placement_evals() >= graph.len() as u64 * ways);
    }

    #[test]
    fn construction_is_scale_invariant_at_large_time_offsets() {
        // Scaling every latency by a power of two is exact in f64, so a
        // scale-invariant construction must produce the identical
        // schedule — even when the scaled clock runs past 1e6 seconds,
        // where the historical absolute epsilons (1e-15 / 1e-12) fall
        // below the ulp and comparisons silently degenerate.
        //
        // The scaling must hold the *cycle* counts fixed: traffic
        // cycles derive from bytes/(bandwidth/clock), so the clock and
        // the bandwidth divide by the same power of two together —
        // bytes_per_cycle (hence every integer cycle count) stays
        // bit-identical, and latency_s = cycles/(clock * 1e9) scales by
        // exactly 2^40 (power-of-two scaling commutes with f64
        // rounding).
        let scale = (1u64 << 40) as f64;
        let (graph, _, _) = setup();
        let base_acc = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            Partition::even(2, 1024, 16.0),
        )
        .unwrap();
        let scaled_acc = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            Partition::even(2, 1024, 16.0 / scale),
        )
        .unwrap();
        let base = herald_cost::CostModel::default();
        let scaled = herald_cost::CostModel::new(herald_cost::CostModelConfig {
            clock_ghz: base.config().clock_ghz / scale,
            ..*base.config()
        });
        for fusion in [1, 3] {
            let cfg = SchedulerConfig {
                fusion,
                ..Default::default()
            };
            let stats = EvalStats::default();
            let small = construct_schedule(&graph, &base_acc, &base, &cfg, &stats).unwrap();
            let large = construct_schedule(&graph, &scaled_acc, &scaled, &cfg, &stats).unwrap();
            assert_eq!(
                small, large,
                "fusion {fusion}: schedule changed under exact 2^40 time scaling"
            );
        }
    }

    #[test]
    fn timeline_matches_the_flat_interval_list() {
        // Independent oracle: the flat-list scans over every interval.
        // Each way runs random back-to-back intervals on a half-unit grid
        // (gaps and lengths may be zero), so finishes tie with starts,
        // with each other across ways, and with the query times, which
        // include every start and finish.
        use crate::rng::SplitMix64;
        use crate::sim::core::{earliest_memory_feasible, occupancy_at};
        let mut rng = SplitMix64::seed_from_u64(0x71AE_2026);
        let gb: u64 = 1 << 12;
        let (mut zero_length, mut equal_finishes, mut at_bounds, mut never_fits) = (0, 0, 0, 0);
        for _ in 0..2000 {
            let ways = rng.gen_range(1, 5);
            let mut timeline = Timeline::new(ways);
            let mut flat = Vec::new();
            for a in 0..ways {
                let mut free = 0.0f64;
                for _ in 0..rng.gen_range(0, 7) {
                    let start = free + rng.gen_range(0, 4) as f64 / 2.0;
                    let finish = start + rng.gen_range(0, 6) as f64 / 2.0;
                    let occ = rng.gen_range(0, gb as usize / 2) as u64;
                    zero_length += usize::from(finish == start);
                    timeline.push(a, start, finish, occ);
                    flat.push((start, finish, occ));
                    free = finish;
                }
            }
            let finishes: Vec<f64> = timeline
                .ways
                .iter()
                .filter_map(|way| way.last().map(|&(_, f, _)| f))
                .collect();
            equal_finishes += usize::from(
                (0..finishes.len()).any(|i| (0..i).any(|j| finishes[i] == finishes[j])),
            );
            let mut queries: Vec<f64> = flat.iter().flat_map(|&(s, f, _)| [s, f]).collect();
            at_bounds += queries.len();
            queries.extend((0..6).map(|_| rng.gen_range(0, 40) as f64 / 4.0 - 0.5));
            for t in queries {
                let next = flat
                    .iter()
                    .map(|&(_, f, _)| f)
                    .filter(|&f| f > t)
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(timeline.probe(t), (occupancy_at(t, &flat), next), "t {t}");
                let occ = rng.gen_range(0, gb as usize * 5 / 4) as u64;
                never_fits += usize::from(occ > gb);
                assert_eq!(
                    timeline.earliest_feasible(t, occ, gb),
                    earliest_memory_feasible(t, occ, gb, &flat),
                    "t {t}, occ {occ}, intervals {flat:?}"
                );
            }
        }
        assert!(zero_length > 0 && equal_finishes > 0 && at_bounds > 0 && never_fits > 0);
    }

    #[test]
    fn cost_rows_cover_every_layer_class_once_per_way() {
        // One cost-model query per (layer class, way), each a miss on a
        // fresh model, and the replay table read through the classes
        // equals one queried task by task.
        let (graph, acc, _) = setup();
        assert!(graph.num_layer_classes() < graph.len(), "no repeated layer");
        let cost = CostModel::default();
        let cfg = SchedulerConfig::default();
        let placed = place(&graph, &acc, &cost, &cfg, &EvalStats::default()).unwrap();
        let expected = graph.num_layer_classes() * acc.sub_accelerators().len();
        assert_eq!(cost.cache_hits() + cost.cache_misses(), expected as u64);
        assert_eq!(cost.cached_queries(), expected);
        let (schedule, table) = placed.into_parts();
        let sim = crate::exec::ScheduleSimulator::new(&graph, &acc, &cost);
        let per_task: Vec<LayerCost> = graph
            .ids()
            .map(|t| sim.task_cost(t, schedule.assignment()[t.0]))
            .collect();
        assert_eq!(*table, *per_task);
    }

    #[test]
    fn forced_advance_makes_strict_progress_at_any_magnitude() {
        for t in [0.0, 1e-30, 1.0, 4.5, 1e4, 1e9, 1e18] {
            assert!(strictly_after(t) > t, "no progress past {t}");
        }
        // The historical constant 1e-12 stalls past ~4096 s; the
        // relative slack does not.
        let t = 1e5f64;
        assert_eq!(t + 1e-12, t, "precondition: absolute epsilon absorbed");
        assert!(strictly_after(t) > t);
        // Near zero the slack floors at the historical 1e-15.
        assert_eq!(time_slack(0.0), 1e-15);
        assert_eq!(time_slack(1e-9), 1e-15);
    }
}
