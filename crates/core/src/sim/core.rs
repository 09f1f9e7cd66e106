//! The shared event core: a virtual-clock commit loop over the frames
//! currently in flight.
//!
//! Both the one-shot [`crate::exec::ScheduleSimulator`] and the streaming
//! [`crate::sim::StreamSimulator`] drive this machine, so the execution
//! model of Sec. IV-A — dependence ordering, sub-accelerator queues and
//! the global-buffer memory constraint — exists exactly once. A *frame*
//! is one admitted (task graph, schedule) pair with an arrival time; the
//! core repeatedly commits, among all ready queue heads of all in-flight
//! frames, the task that can start earliest. Because a newly committed
//! task can only delay (never advance) the start of any other candidate,
//! commits happen in non-decreasing start order: the loop *is* the event
//! queue, with layer completions as events and the last committed start
//! as the virtual clock.
//!
//! Selection reads a flat head table with one entry per (frame, way):
//! the ready time of the frame's queue head on that way, before the way
//! itself frees up. Only a frame's own commits change its entries, so a
//! commit rescans the committing way's new head and the frame's blocked
//! heads, and nothing of any other frame.
//!
//! The global-buffer constraint needs no interval history. Each
//! sub-accelerator (a *way*) runs its tasks back to back, and no commit
//! starts before the clock, so every interval but the last one on each
//! way has finished by the clock. At or after the clock the buffer
//! therefore holds exactly the last interval of each way that has not
//! yet finished: [`occupancy_after`] and [`memory_floor`] answer in
//! O(ways) what [`earliest_memory_feasible`] answers over the full
//! interval list. Debug builds keep that list as the oracle for the
//! asserts.
//!
//! Each commit records its timeline once, in the shape the run reports
//! ([`Timeline`]): a per-frame [`ScheduleEntry`] row for the one-shot
//! replay, an append to the committing way's span list for an exact
//! stream report, or the span's overlap with each utilization window for
//! a sketch report. A way runs its tasks back to back, so its span list
//! needs no sort afterwards.
//!
//! A frame that arrives with nothing in flight can skip selection and the
//! head table altogether ([`EventCore::commit_alone`]): alone on the chip,
//! its commits follow the [`LoneProgram`] of its schedule, and their
//! starts follow from its arrival, its dependences and the ways' free
//! times. The core takes that path only when it provably makes the very
//! commits the loop would make before the next trace event.

use super::profile::HotPathProfile;
use crate::exec::{AccSummary, ExecutionReport, Schedule, ScheduleEntry, SimError};
use crate::task::{TaskGraph, TaskId};
use herald_arch::AcceleratorConfig;
use herald_cost::{CostModel, EnergyBreakdown, LayerCost, Metric};
use herald_dataflow::DataflowStyle;
use std::sync::Arc;

/// The fraction of the global buffer available for staging one layer's
/// activations; the remainder is shared headroom for concurrently running
/// layers and prefetch double-buffering.
pub(crate) const STAGING_FRACTION: u64 = 4;

/// A frame's task graph: borrowed for the one-shot wrapper (no clone on
/// the DSE hot path), shared for streaming frames that reuse one graph
/// per workload version.
pub(crate) enum GraphRef<'a> {
    /// Borrowed from the caller (single-frame replay).
    Borrowed(&'a TaskGraph),
    /// Shared ownership across frames of one stream.
    Shared(Arc<TaskGraph>),
}

impl GraphRef<'_> {
    fn get(&self) -> &TaskGraph {
        match self {
            GraphRef::Borrowed(g) => g,
            GraphRef::Shared(g) => g,
        }
    }
}

/// A frame's schedule, mirroring [`GraphRef`]'s ownership split.
pub(crate) enum ScheduleRef<'a> {
    /// Borrowed from the caller (single-frame replay).
    Borrowed(&'a Schedule),
    /// Shared ownership across frames of one stream (the streaming
    /// engine admits the same compiled schedule for every frame without
    /// cloning it).
    Shared(Arc<Schedule>),
}

impl ScheduleRef<'_> {
    fn get(&self) -> &Schedule {
        match self {
            ScheduleRef::Borrowed(s) => s,
            ScheduleRef::Shared(s) => s,
        }
    }
}

/// A frame's per-task cost table: `costs[t]` is the cost of task `t` on
/// its assigned sub-accelerator. Precomputed once per (graph, schedule)
/// pair so the commit loop's candidate scan indexes a slice instead of
/// re-querying (and re-cloning) [`LayerCost`]s through the cost model's
/// lock on every probe. `layer_cost` is a pure function of
/// (layer, slice, metric), so the table is bit-identical to on-demand
/// queries by construction. Shared by every frame admitted against the
/// same compiled schedule (the streaming engine interns one per distinct
/// workload of a run).
pub(crate) type CostTable = Arc<[LayerCost]>;

/// Builds the per-task cost table for `schedule` on `acc`.
///
/// The cost model is queried once per (layer class, assigned
/// sub-accelerator) pair (see [`TaskGraph::layer_class`]), at the pair's
/// first task; every later task of the pair gets a copy of that answer,
/// which is the value its own query would have returned. The query set is
/// the one the historical per-task path evaluated (every task is
/// eventually a queue head on its assigned queue), so cost-model memo
/// contents are unchanged too.
pub(crate) fn build_cost_table(
    graph: &TaskGraph,
    schedule: &Schedule,
    acc: &AcceleratorConfig,
    cost: &CostModel,
    metric: Metric,
) -> CostTable {
    let subs = acc.sub_accelerators();
    let mut rows: Vec<Option<LayerCost>> = vec![None; graph.num_layer_classes() * subs.len()];
    graph
        .ids()
        .map(|t| {
            let a = schedule.assignment()[t.0];
            rows[graph.layer_class(t) * subs.len() + a]
                .get_or_insert_with(|| subs[a].layer_cost(cost, graph.layer(t), metric))
                .clone()
        })
        .collect()
}

/// The largest buffer occupancy one task of `costs` pins on `acc`: a
/// frame's share of [`EventCore`]'s occupancy cap. The streaming engine
/// computes it once per compiled schedule and passes it to every
/// admission of that schedule.
pub(crate) fn max_occupancy(acc: &AcceleratorConfig, costs: &[LayerCost]) -> u64 {
    let staging_cap = acc.global_buffer_bytes() / STAGING_FRACTION;
    costs
        .iter()
        .map(|c| c.buffer.occupancy_bytes(staging_cap))
        .max()
        .unwrap_or(0)
}

/// Checks that a schedule's shape matches the graph and the accelerator:
/// one assignment per task and one queue per sub-accelerator. Together
/// with [`Schedule::new`]'s own checks this makes every index
/// [`build_cost_table`] and the commit loop take in range.
pub(crate) fn validate_shape(
    acc: &AcceleratorConfig,
    g: &TaskGraph,
    s: &Schedule,
) -> Result<(), SimError> {
    if s.assignment().len() != g.len() {
        return Err(SimError::InvalidSchedule(format!(
            "schedule covers {} tasks, graph has {}",
            s.assignment().len(),
            g.len()
        )));
    }
    if s.ways() != acc.sub_accelerators().len() {
        return Err(SimError::InvalidSchedule(format!(
            "schedule has {} queues, accelerator has {} sub-accelerators",
            s.ways(),
            acc.sub_accelerators().len()
        )));
    }
    Ok(())
}

/// The `head_ready` entry of a queue head with an uncommitted dependence.
/// No candidate compares below it, so selection never picks it.
const BLOCKED: f64 = f64::INFINITY;

/// The `head_ready` entry of an exhausted queue. NaN compares false with
/// everything: selection never picks it, and a commit never rescans it,
/// since it is not [`BLOCKED`].
const EXHAUSTED: f64 = f64::NAN;

/// Where [`EventCore`] records each commit: the shape the run reports.
pub(crate) enum Timeline {
    /// A [`ScheduleEntry`] row per committed task, kept per frame (the
    /// one-shot replay's [`ExecutionReport`]).
    Entries,
    /// One `(start_s, finish_s)` list per way (exact stream reports).
    /// Each way runs its tasks back to back, so each list is strictly
    /// increasing.
    Spans(Vec<Vec<(f64, f64)>>),
    /// Busy seconds per (window, way) cell at `[window * ways + way]`,
    /// over fixed windows of `window_s` seconds from 0 (sketch stream
    /// reports). Cells grow to the last window a span reaches.
    Windows {
        window_s: f64,
        cells: Vec<f64>,
        cursor: WindowCursor,
    },
}

impl Timeline {
    /// A [`Timeline::Windows`] of `window_s`-second windows, no cells yet.
    pub(crate) fn windows(window_s: f64) -> Self {
        Timeline::Windows {
            window_s,
            cells: Vec::new(),
            cursor: WindowCursor::NONE,
        }
    }
}

/// The utilization window of the last span booked inside one window, and
/// the times that fall in it: a span inside it is booked without a
/// division.
#[derive(Clone, Copy)]
pub(crate) struct WindowCursor {
    k: usize,
    /// A time `t` falls in window `k` (`(t / window_s) as usize == k`)
    /// exactly when `from <= t < to`.
    from: f64,
    to: f64,
}

impl WindowCursor {
    /// A cursor no span falls in.
    const NONE: Self = Self {
        k: 0,
        from: f64::INFINITY,
        to: f64::NEG_INFINITY,
    };

    /// The cursor of window `k`, or [`WindowCursor::NONE`] where its
    /// bounds are not found.
    fn new(k: usize, window_s: f64) -> Self {
        match (
            window_start(k, window_s),
            window_start(k.saturating_add(1), window_s),
        ) {
            (Some(from), Some(to)) => Self { k, from, to },
            _ => Self::NONE,
        }
    }
}

/// The least time `t` with `(t / window_s) as usize >= k`: a few ulps
/// from `k * window_s`. Division by a positive width and truncation are
/// both monotone, so every later time divides into window `k` or beyond
/// and every earlier one before it. `None` when a short ulp walk does not
/// settle it (a subnormal or infinite product, or a huge `k`).
fn window_start(k: usize, window_s: f64) -> Option<f64> {
    if k == 0 {
        return Some(f64::NEG_INFINITY);
    }
    let reaches = |t: f64| (t / window_s) as usize >= k;
    let mut t = k as f64 * window_s;
    if !(t.is_normal() && window_s.is_normal()) {
        return None;
    }
    for _ in 0..64 {
        if !reaches(t) {
            t = t.next_up();
        } else if reaches(t.next_down()) {
            t = t.next_down();
        } else {
            return Some(t);
        }
    }
    None
}

/// One frame in flight.
struct FrameState<'a> {
    graph: GraphRef<'a>,
    schedule: ScheduleRef<'a>,
    costs: CostTable,
    arrival_s: f64,
    /// Per-sub-accelerator queue positions.
    head: Vec<usize>,
    /// Committed finish time per task.
    finish: Vec<Option<f64>>,
    remaining: usize,
    /// The latest finish committed so far (the arrival before any).
    finish_s: f64,
    /// Rows in commit order, hence sorted by start (see
    /// [`FrameResult::entries`]).
    entries: Vec<ScheduleEntry>,
    energy: EnergyBreakdown,
}

/// The finished timeline of one frame, extracted with
/// [`EventCore::take_frame`].
pub(crate) struct FrameResult {
    /// Arrival time of the frame, seconds.
    pub arrival_s: f64,
    /// Finish time of the frame's last task (equals `arrival_s` for an
    /// empty frame).
    pub finish_s: f64,
    /// The frame's [`Timeline::Entries`] rows, sorted by start (empty
    /// under any other timeline).
    pub entries: Vec<ScheduleEntry>,
    /// Energy of the frame's tasks.
    pub energy: EnergyBreakdown,
}

/// What one commit books from its task's [`LayerCost`].
#[derive(Clone, Copy)]
struct CommitCost {
    latency_s: f64,
    /// Buffer occupancy under the chip's staging cap.
    occ: u64,
    energy: EnergyBreakdown,
    style: DataflowStyle,
}

impl CommitCost {
    fn new(cost: &LayerCost, staging_cap: u64) -> Self {
        Self {
            latency_s: cost.latency_s,
            occ: cost.buffer.occupancy_bytes(staging_cap),
            energy: cost.energy,
            style: cost.style,
        }
    }
}

/// One step of a [`LoneProgram`].
struct LoneStep {
    task: u32,
    way: u32,
    /// The step's dependences: `LoneProgram::deps[deps.0..deps.1]`, in
    /// the graph's dependence order.
    deps: (u32, u32),
    cost: CommitCost,
}

/// A compiled schedule's commit order when its frame runs alone on the
/// chip, for [`EventCore::commit_alone`]: one step per task in the order a
/// single-frame replay commits them, each dependence as the index of an
/// earlier step, and the frame's energy summed in step order.
pub(crate) struct LoneProgram {
    steps: Vec<LoneStep>,
    deps: Vec<u32>,
    energy: EnergyBreakdown,
    /// The last step's start in the replay from 0 on an idle chip. A
    /// later arrival or busy ways only delay each step, so the last start
    /// of a frame arriving at `a` is at least `a` plus this, up to
    /// rounding.
    last_start_s: f64,
}

impl LoneProgram {
    /// Replays one frame of `schedule` alone on `acc` from time 0 and
    /// keeps its commit order. `None` when the core rejects the schedule
    /// or deadlocks on it: its frames then meet the same error on the
    /// regular path.
    pub(crate) fn new(
        acc: &AcceleratorConfig,
        graph: &TaskGraph,
        schedule: &Schedule,
        costs: &CostTable,
        max_occ: u64,
    ) -> Option<Self> {
        let mut core = EventCore::new(acc);
        let slot = core
            .admit_with_costs(
                GraphRef::Borrowed(graph),
                ScheduleRef::Borrowed(schedule),
                Arc::clone(costs),
                max_occ,
                0.0,
            )
            .ok()?;
        core.run_until(f64::INFINITY).ok()?;
        let frame = core.take_frame(slot);
        let mut step_of = vec![0u32; graph.len()];
        for (i, e) in frame.entries.iter().enumerate() {
            step_of[e.task.0] = i as u32;
        }
        let staging_cap = core.staging_cap();
        let mut deps = Vec::new();
        let steps = frame
            .entries
            .iter()
            .map(|e| {
                let first = deps.len() as u32;
                deps.extend(graph.deps(e.task).iter().map(|d| step_of[d.0]));
                LoneStep {
                    task: e.task.0 as u32,
                    way: e.acc as u32,
                    deps: (first, deps.len() as u32),
                    cost: CommitCost::new(&costs[e.task.0], staging_cap),
                }
            })
            .collect();
        Some(Self {
            steps,
            deps,
            energy: frame.energy,
            last_start_s: frame.entries.last().map_or(0.0, |e| e.start_s),
        })
    }
}

/// The event-driven simulation core shared by one-shot replay and
/// streaming scenarios.
pub(crate) struct EventCore<'a> {
    acc: &'a AcceleratorConfig,
    /// Per way: finish of the last task committed on it (0 before any).
    /// It is both the time the way's queue frees up and the end of the
    /// way's only interval that can still hold buffer space at or after
    /// `clock`.
    acc_free: Vec<f64>,
    /// Per way: buffer occupancy of the last task committed on it (0
    /// before any), held until `acc_free` of that way.
    way_occ: Vec<u64>,
    /// Start of the last commit: the virtual clock. No later commit
    /// starts before it, and no frame arrives before it.
    clock: f64,
    /// Debug builds only: every committed interval `(start, finish,
    /// occupancy_bytes)` that a future query could still see. The
    /// asserts replay each selection through [`earliest_memory_feasible`]
    /// over this list and check the O(ways) answer against it.
    #[cfg(debug_assertions)]
    intervals: Vec<(f64, f64, u64)>,
    /// Memoized [`EventCore::select_best`] result: `None` when stale,
    /// `Some(result)` when no admit or commit has happened since it was
    /// computed. Harvesting a completed frame preserves the winner (a
    /// done frame offers no candidates), so `run_until`'s stopping scan
    /// doubles as the batched-admission window probe for free.
    best_cache: Option<Option<(f64, usize, usize, TaskId)>>,
    /// The head table, at `[slot * ways + way]`: the max of the frame's
    /// arrival and the finish of every dependence of its queue head on
    /// that way, [`BLOCKED`] while a dependence is uncommitted and
    /// [`EXHAUSTED`] once the queue is empty. The head's ready time is
    /// this entry's max with the way's `acc_free`. Only the frame's own
    /// commits change it: an unblocked head's dependences have fixed
    /// finishes.
    head_ready: Vec<f64>,
    /// The queue head each `head_ready` entry describes (stale once the
    /// queue is exhausted).
    head_task: Vec<TaskId>,
    /// Max single-task occupancy over every admission so far (monotone,
    /// conservative). When the earliest-ready head's ready time `r` is
    /// at or after `clock` and `occupancy(r) + occ_cap` fits the buffer,
    /// every candidate's feasible start equals its ready time, so
    /// ready-ranking equals start-ranking.
    occ_cap: u64,
    /// Frame slab: slots are recycled through `free` once a frame is
    /// taken, so a long stream reuses a bounded set of slots instead of
    /// growing this vector per arrival.
    frames: Vec<Option<FrameState<'a>>>,
    /// In-flight slots in **admission order** — the candidate scan walks
    /// this list, which preserves the historical first-found tie-break
    /// (admission order) exactly even when slab slots are reused out of
    /// order.
    active: Vec<usize>,
    /// Recyclable slab slots.
    free: Vec<usize>,
    /// Running total of uncommitted tasks across in-flight frames
    /// (replaces an O(frames) scan per commit-loop iteration).
    remaining_total: usize,
    /// Buffer pools recycled across frames (arena allocation: a steady
    /// stream allocates its per-frame vectors once, not per arrival).
    head_pool: Vec<Vec<usize>>,
    finish_pool: Vec<Vec<Option<f64>>>,
    /// Per-frame buffers served from a pool vs freshly allocated.
    arena_reuses: u64,
    arena_allocs: u64,
    /// Tasks committed.
    commits: u64,
    /// Candidate scans run by [`EventCore::select_best`] (selections
    /// served from `best_cache` are not counted).
    selections: u64,
    /// Dependence-list walks behind `head_ready` entries.
    head_scans: u64,
    /// Selections settled by the memory-aware flat scan.
    fallback_scans: u64,
    /// Frames [`EventCore::commit_alone`] committed, and the ones it
    /// planned and then declined.
    lone_frames: u64,
    lone_declines: u64,
    /// [`EventCore::commit_alone`]'s scratch: each step's planned
    /// `(start, finish)`, and each way's free time as planned so far.
    lone_plan: Vec<(f64, f64)>,
    lone_free: Vec<f64>,
    per_acc: Vec<AccSummary>,
    energy: EnergyBreakdown,
    peak_mem: u64,
    timeline: Timeline,
}

impl<'a> EventCore<'a> {
    /// A core that records [`Timeline::Entries`].
    pub(crate) fn new(acc: &'a AcceleratorConfig) -> Self {
        Self::with_timeline(acc, Timeline::Entries)
    }

    /// A core that records every commit into `timeline`; a
    /// [`Timeline::Spans`] must hold one list per way of `acc`.
    pub(crate) fn with_timeline(acc: &'a AcceleratorConfig, timeline: Timeline) -> Self {
        let per_acc = acc
            .sub_accelerators()
            .iter()
            .map(|s| AccSummary {
                name: s.name().to_string(),
                layers: 0,
                busy_s: 0.0,
                finish_s: 0.0,
                energy_j: 0.0,
            })
            .collect();
        let ways = acc.sub_accelerators().len();
        Self {
            acc,
            acc_free: vec![0.0; ways],
            way_occ: vec![0; ways],
            clock: 0.0,
            #[cfg(debug_assertions)]
            intervals: Vec::new(),
            best_cache: None,
            head_ready: Vec::new(),
            head_task: Vec::new(),
            occ_cap: 0,
            frames: Vec::new(),
            active: Vec::new(),
            free: Vec::new(),
            remaining_total: 0,
            head_pool: Vec::new(),
            finish_pool: Vec::new(),
            arena_reuses: 0,
            arena_allocs: 0,
            commits: 0,
            selections: 0,
            head_scans: 0,
            fallback_scans: 0,
            lone_frames: 0,
            lone_declines: 0,
            lone_plan: Vec::new(),
            lone_free: Vec::new(),
            per_acc,
            energy: EnergyBreakdown::default(),
            peak_mem: 0,
            timeline,
        }
    }

    /// Hands over the recorded timeline, leaving [`Timeline::Entries`].
    pub(crate) fn take_timeline(&mut self) -> Timeline {
        std::mem::replace(&mut self.timeline, Timeline::Entries)
    }

    /// Staging cap per layer: the global-buffer share one layer may pin.
    fn staging_cap(&self) -> u64 {
        self.acc.global_buffer_bytes() / STAGING_FRACTION
    }

    /// A frame's empty [`ScheduleEntry`] list: sized for its `tasks`
    /// under [`Timeline::Entries`], unallocated under any other timeline.
    fn entry_rows(&self, tasks: usize) -> Vec<ScheduleEntry> {
        match self.timeline {
            Timeline::Entries => Vec::with_capacity(tasks),
            Timeline::Spans(_) | Timeline::Windows { .. } => Vec::new(),
        }
    }

    /// Admits a frame at `arrival_s` with its cost table, which must have
    /// one entry per task of the graph (see [`build_cost_table`]), and the
    /// table's [`max_occupancy`] on this core's accelerator, validating
    /// that the schedule's shape matches the graph and accelerator.
    /// Returns the frame handle.
    pub(crate) fn admit_with_costs(
        &mut self,
        graph: GraphRef<'a>,
        schedule: ScheduleRef<'a>,
        costs: CostTable,
        max_occ: u64,
        arrival_s: f64,
    ) -> Result<usize, SimError> {
        let (remaining, ways) = {
            let g = graph.get();
            let s = schedule.get();
            validate_shape(self.acc, g, s)?;
            if costs.len() != g.len() {
                return Err(SimError::InvalidSchedule(format!(
                    "cost table covers {} tasks, graph has {}",
                    costs.len(),
                    g.len()
                )));
            }
            (g.len(), s.ways())
        };
        debug_assert!(
            arrival_s >= self.clock,
            "frame arrives at {arrival_s}, before the clock {}",
            self.clock
        );
        debug_assert_eq!(max_occ, max_occupancy(self.acc, &costs));
        let head = match self.head_pool.pop() {
            Some(mut h) => {
                self.arena_reuses += 1;
                h.clear();
                h.resize(ways, 0);
                h
            }
            None => {
                self.arena_allocs += 1;
                vec![0; ways]
            }
        };
        let finish = match self.finish_pool.pop() {
            Some(mut f) => {
                self.arena_reuses += 1;
                f.clear();
                f.resize(remaining, None);
                f
            }
            None => {
                self.arena_allocs += 1;
                vec![None; remaining]
            }
        };
        let entries = self.entry_rows(remaining);
        let state = FrameState {
            graph,
            schedule,
            costs,
            arrival_s,
            head,
            finish,
            remaining,
            finish_s: arrival_s,
            entries,
            energy: EnergyBreakdown::default(),
        };
        self.occ_cap = self.occ_cap.max(max_occ);
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.frames[slot].is_none(), "free slot still occupied");
                self.frames[slot] = Some(state);
                slot
            }
            None => {
                self.frames.push(Some(state));
                self.head_ready.resize(self.frames.len() * ways, EXHAUSTED);
                self.head_task.resize(self.frames.len() * ways, TaskId(0));
                self.frames.len() - 1
            }
        };
        self.refresh_heads(slot, |_, _| true);
        self.active.push(slot);
        self.remaining_total += remaining;
        self.best_cache = None;
        Ok(slot)
    }

    /// Tasks not yet committed across all in-flight frames.
    fn total_remaining(&self) -> usize {
        self.remaining_total
    }

    /// Copies the core's counters into `profile`: the per-frame buffers
    /// reused and allocated (the profiling story's "allocations avoided"
    /// evidence) and the commit loop's work.
    pub(crate) fn record_counters(&self, profile: &mut HotPathProfile) {
        profile.arena_reuses = self.arena_reuses;
        profile.arena_allocs = self.arena_allocs;
        profile.commits = self.commits;
        profile.selections = self.selections;
        profile.head_scans = self.head_scans;
        profile.fallback_scans = self.fallback_scans;
        profile.lone_frames = self.lone_frames;
        profile.lone_declines = self.lone_declines;
    }

    /// Recomputes the head-table entries of the frame in `slot` on every
    /// way `a` for which `stale(a, head_ready)` holds.
    fn refresh_heads(&mut self, slot: usize, stale: impl Fn(usize, f64) -> bool) {
        let frame = self.frames[slot]
            .as_ref()
            .expect("the head table covers in-flight frames");
        let graph = frame.graph.get();
        let row = slot * self.acc_free.len();
        for (a, queue) in frame.schedule.get().order().iter().enumerate() {
            let i = row + a;
            if !stale(a, self.head_ready[i]) {
                continue;
            }
            let Some(&t) = queue.get(frame.head[a]) else {
                self.head_ready[i] = EXHAUSTED;
                continue;
            };
            self.head_scans += 1;
            self.head_task[i] = t;
            self.head_ready[i] = graph
                .deps(t)
                .iter()
                .try_fold(frame.arrival_s, |ready, d| {
                    Some(ready.max(frame.finish[d.0]?))
                })
                .unwrap_or(BLOCKED);
        }
    }

    /// The best next commit: the ready queue head with the earliest
    /// feasible start, scanning frames in admission order and
    /// sub-accelerators in index order (first-found wins ties, which keeps
    /// the loop deterministic and, for a single frame, byte-identical to
    /// the historical replay order).
    ///
    /// The earliest-ready head comes first, from the head table: the
    /// first strict minimum of `max(head_ready, acc_free[way])`, which is
    /// the (admission order, way order) tie order. Let `r` be its ready
    /// time. Every other candidate is ready at or after `r`, and
    /// occupancy only falls after the clock, so when `r` is at or after
    /// the clock and `occupancy(r) + occ_cap` fits the buffer, every
    /// candidate's feasible start *is* its ready time and the
    /// earliest-ready head wins. Otherwise the memory-aware flat scan
    /// over the same table settles it.
    fn select_best(&mut self) -> Option<(f64, usize, usize, TaskId)> {
        self.selections += 1;
        let best = match self.scan_heads(|ready, _, _| ready) {
            Some((r, ..))
                if r < self.clock
                    || occupancy_after(r, &self.acc_free, &self.way_occ) + self.occ_cap
                        > self.acc.global_buffer_bytes() =>
            {
                self.fallback_scans += 1;
                self.select_best_scan()
            }
            best => best,
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(best, self.select_best_reference());
        best
    }

    /// The exact flat candidate scan, the fallback under memory pressure:
    /// each candidate starts at `max(ready, memory_floor(occ))`. Costs
    /// come from each frame's precomputed table — the scan clones
    /// nothing.
    fn select_best_scan(&self) -> Option<(f64, usize, usize, TaskId)> {
        let gb = self.acc.global_buffer_bytes();
        let staging_cap = self.staging_cap();
        self.scan_heads(|ready, slot, t| {
            let frame = self.frames[slot]
                .as_ref()
                .expect("active slots hold frames");
            let occ = frame.costs[t.0].buffer.occupancy_bytes(staging_cap);
            ready.max(memory_floor(
                self.clock,
                occ,
                gb,
                &self.acc_free,
                &self.way_occ,
            ))
        })
    }

    /// The first strict minimum, in (admission order, way order), of
    /// `start_at(ready, slot, task)` over the head table, where `ready`
    /// is `max(head_ready, acc_free[way])` and `start_at` never returns
    /// less than `ready`.
    fn scan_heads(
        &self,
        start_at: impl Fn(f64, usize, TaskId) -> f64,
    ) -> Option<(f64, usize, usize, TaskId)> {
        let ways = self.acc_free.len();
        let mut best: Option<(f64, usize, usize, TaskId)> = None;
        let mut best_start = f64::INFINITY;
        for &slot in &self.active {
            let row = slot * ways;
            let heads = self.head_ready[row..row + ways].iter().zip(&self.acc_free);
            for (a, (&head, &free)) in heads.enumerate() {
                // A head starts no earlier than it is ready, so one ready
                // at or after the incumbent's start cannot win (ties keep
                // the incumbent). `BLOCKED` and `EXHAUSTED` never pass.
                if head < best_start {
                    let ready = head.max(free);
                    if ready < best_start {
                        let t = self.head_task[row + a];
                        let start = start_at(ready, slot, t);
                        if start < best_start {
                            best_start = start;
                            best = Some((start, slot, a, t));
                        }
                    }
                }
            }
        }
        best
    }

    /// The flat scan under the full-interval semantics, walking every
    /// queue head's dependence list instead of the head table: each
    /// candidate starts at [`earliest_memory_feasible`] over the debug
    /// interval log. While the whole log plus the candidate fits the
    /// buffer, that query's first probe succeeds, so it is skipped.
    #[cfg(debug_assertions)]
    fn select_best_reference(&self) -> Option<(f64, usize, usize, TaskId)> {
        let gb = self.acc.global_buffer_bytes();
        let logged: u64 = self.intervals.iter().map(|(_, _, o)| o).sum();
        let start_at = |ready: f64, occ: u64| {
            if logged + occ <= gb {
                ready
            } else {
                earliest_memory_feasible(ready, occ, gb, &self.intervals)
            }
        };
        let staging_cap = self.staging_cap();
        let mut best: Option<(f64, usize, usize, TaskId)> = None;
        for &fi in &self.active {
            let Some(frame) = self.frames[fi].as_ref() else {
                continue;
            };
            if frame.remaining == 0 {
                continue;
            }
            let graph = frame.graph.get();
            let schedule = frame.schedule.get();
            let costs = &frame.costs;
            for (a, queue) in schedule.order().iter().enumerate() {
                if frame.head[a] >= queue.len() {
                    continue;
                }
                let t = queue[frame.head[a]];
                // All dependences must already be committed.
                let mut ready = frame.arrival_s.max(self.acc_free[a]);
                let mut blocked = false;
                for &d in graph.deps(t) {
                    match frame.finish[d.0] {
                        Some(fin) => ready = ready.max(fin),
                        None => {
                            blocked = true;
                            break;
                        }
                    }
                }
                if blocked {
                    continue;
                }
                // A candidate can never start before its ready time, so
                // one at or past the incumbent best start can never win
                // (the keep-rule keeps the incumbent on ties) — skip its
                // memory query entirely.
                if let Some((s, _, _, _)) = &best {
                    if ready >= *s {
                        continue;
                    }
                }
                let start = start_at(ready, costs[t.0].buffer.occupancy_bytes(staging_cap));
                match &best {
                    Some((s, _, _, _)) if *s <= start => {}
                    _ => best = Some((start, fi, a, t)),
                }
            }
        }
        best
    }

    /// [`EventCore::select_best`] through `best_cache`: reuses the last
    /// selection when no admit or commit happened since, and runs (and
    /// counts) a new one otherwise.
    fn cached_select_best(&mut self) -> Option<(f64, usize, usize, TaskId)> {
        if let Some(cached) = self.best_cache {
            #[cfg(debug_assertions)]
            debug_assert_eq!(cached, self.select_best_reference());
            return cached;
        }
        let best = self.select_best();
        self.best_cache = Some(best);
        best
    }

    /// Commits tasks in event order until every admitted frame completes
    /// or the next commit would start after `limit` (which is then left
    /// uncommitted so the caller can admit arrivals first).
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] when uncommitted tasks remain but every
    /// queue head waits on a task queued behind another blocked head.
    /// Dependences never cross frames, so pending arrivals cannot resolve
    /// the cycle and the error is definitive.
    pub(crate) fn run_until(&mut self, limit: f64) -> Result<(), SimError> {
        while self.total_remaining() > 0 {
            let Some((start, fi, a, t)) = self.cached_select_best() else {
                let stuck = self
                    .active
                    .iter()
                    .filter_map(|&fi| self.frames[fi].as_ref())
                    .find_map(|f| {
                        f.schedule
                            .get()
                            .order()
                            .iter()
                            .zip(&f.head)
                            .find_map(|(queue, &h)| queue.get(h))
                    })
                    .copied()
                    .expect("remaining > 0 implies a queue head exists");
                return Err(SimError::Deadlock { task: stuck });
            };
            if start > limit {
                return Ok(());
            }
            self.commit(start, fi, a, t);
        }
        Ok(())
    }

    fn commit(&mut self, start: f64, fi: usize, a: usize, t: TaskId) {
        self.best_cache = None;
        let staging_cap = self.staging_cap();
        let frame = self.frames[fi]
            .as_mut()
            .expect("commit targets an in-flight frame");
        let cost = CommitCost::new(&frame.costs[t.0], staging_cap);
        // The rows move out while `book` borrows the whole core.
        let mut entries = std::mem::take(&mut frame.entries);
        let fin = self.book(start, a, t, &cost, &mut entries);
        let frame = self.frames[fi]
            .as_mut()
            .expect("commit targets an in-flight frame");
        frame.entries = entries;
        frame.finish[t.0] = Some(fin);
        frame.head[a] += 1;
        frame.remaining -= 1;
        frame.finish_s = frame.finish_s.max(fin);
        frame.energy = frame.energy.plus(&cost.energy);
        self.remaining_total -= 1;
        // Way `a` has a new head, and `t`'s finish may unblock the
        // frame's blocked heads; every other entry of every frame keeps
        // its value.
        self.refresh_heads(fi, |way, head| way == a || head == BLOCKED);
    }

    /// Commits a whole frame arriving at `arrival_s` in one pass, if it
    /// runs alone until `until` (the next trace event), and returns its
    /// result; `None`, with the core untouched, otherwise.
    ///
    /// It acts only when no frame is in flight and `ways × max(occ_cap,
    /// max_occ)` fits the global buffer. Every interval a way holds then
    /// pins at most that cap, so at a head's ready time (when its own way
    /// is free) the buffer fits it: the buffer cannot bind, and each
    /// step's start is the max of the arrival, its dependences' finishes
    /// and its way's free time, as `select_best` computes it. If the
    /// planned steps come out in strictly increasing (start, way) order,
    /// each is the selection's first strict minimum among the heads it
    /// competes with, since a head's planned start is its start at every
    /// earlier selection too. So the plan is the loop's commit sequence,
    /// with the same floating-point operations. If, also, no step starts
    /// after `until`, every commit starts at or before any later frame's
    /// arrival, and a tie with that frame goes to this earlier admission,
    /// so no later frame can take a commit first.
    ///
    /// `max_occ` is the program's table's [`max_occupancy`].
    pub(crate) fn commit_alone(
        &mut self,
        program: &LoneProgram,
        max_occ: u64,
        arrival_s: f64,
        until: f64,
    ) -> Option<FrameResult> {
        let ways = self.acc_free.len();
        let occ_cap = self.occ_cap.max(max_occ);
        if self.remaining_total > 0
            || (ways as u64).saturating_mul(occ_cap) > self.acc.global_buffer_bytes()
        {
            return None;
        }
        // A frame whose last step starts after `until` even on an idle
        // chip needs no plan. Where rounding makes this bound decline a
        // frame the plan would take, the regular path commits it the same
        // way.
        if arrival_s + program.last_start_s > until {
            return None;
        }
        debug_assert!(
            arrival_s >= self.clock,
            "frame arrives at {arrival_s}, before the clock {}",
            self.clock
        );
        self.lone_plan.clear();
        self.lone_free.clone_from(&self.acc_free);
        let mut last: Option<(f64, usize)> = None;
        for step in &program.steps {
            let a = step.way as usize;
            let head = program.deps[step.deps.0 as usize..step.deps.1 as usize]
                .iter()
                .fold(arrival_s, |ready, &d| {
                    ready.max(self.lone_plan[d as usize].1)
                });
            let start = head.max(self.lone_free[a]);
            let in_order = last.is_none_or(|(s, w)| start > s || (start == s && a > w));
            if !in_order || start > until {
                self.lone_declines += 1;
                return None;
            }
            let fin = start + step.cost.latency_s;
            self.lone_plan.push((start, fin));
            self.lone_free[a] = fin;
            last = Some((start, a));
        }
        let mut entries = self.entry_rows(program.steps.len());
        let mut finish_s = arrival_s;
        for (i, step) in program.steps.iter().enumerate() {
            let start = self.lone_plan[i].0;
            let (a, t) = (step.way as usize, TaskId(step.task as usize));
            finish_s = finish_s.max(self.book(start, a, t, &step.cost, &mut entries));
        }
        // Nothing was in flight before and nothing is after, so a memoized
        // selection (none) stays valid.
        self.occ_cap = occ_cap;
        self.lone_frames += 1;
        Some(FrameResult {
            arrival_s,
            finish_s,
            entries,
            energy: program.energy,
        })
    }

    /// The bookkeeping of a commit outside its frame: the clock, the
    /// way's free time and occupancy, peak memory, the timeline (an
    /// [`Timeline::Entries`] row goes to `entries`), the per-way summary
    /// and the chip's energy. Returns the task's finish.
    fn book(
        &mut self,
        start: f64,
        a: usize,
        t: TaskId,
        cost: &CommitCost,
        entries: &mut Vec<ScheduleEntry>,
    ) -> f64 {
        self.commits += 1;
        let (dur, occ, energy) = (cost.latency_s, cost.occ, cost.energy);
        let fin = start + dur;
        debug_assert!(start >= self.clock, "commit at {start} before the clock");
        // Way `a`'s previous interval ends at `acc_free[a] <= start`, so
        // the sum counts the other ways' intervals still running at
        // `start` (half-open: an interval is free at its finish instant);
        // the new one is then held from `start`.
        let occ_at_start = occupancy_after(start, &self.acc_free, &self.way_occ) + occ;
        #[cfg(debug_assertions)]
        {
            self.intervals.push((start, fin, occ));
            debug_assert_eq!(occ_at_start, occupancy_at(start, &self.intervals));
        }
        self.peak_mem = self.peak_mem.max(occ_at_start);
        self.clock = start;
        self.acc_free[a] = fin;
        self.way_occ[a] = occ;
        #[cfg(debug_assertions)]
        self.prune_log();

        match &mut self.timeline {
            Timeline::Entries => entries.push(ScheduleEntry {
                task: t,
                acc: a,
                start_s: start,
                finish_s: fin,
                style: cost.style,
                energy_j: energy.total_j(),
            }),
            Timeline::Spans(lists) => lists[a].push((start, fin)),
            // A horizon so short that its windows round to zero width
            // gets no utilization cells, as the arrival windows get none.
            Timeline::Windows { window_s, .. } if *window_s <= 0.0 => {}
            Timeline::Windows {
                window_s,
                cells,
                cursor,
            } => {
                let (window_s, ways) = (*window_s, self.acc_free.len());
                // A span inside the cursor's window books that window,
                // whose cells exist, with no division.
                let (first, last) = if start >= cursor.from && fin < cursor.to {
                    (cursor.k, cursor.k)
                } else {
                    let (first, last) = ((start / window_s) as usize, (fin / window_s) as usize);
                    if (last + 1) * ways > cells.len() {
                        cells.resize((last + 1) * ways, 0.0);
                    }
                    // Starts never decrease, so later spans that fit one
                    // window mostly fit this one.
                    if first == last {
                        *cursor = WindowCursor::new(last, window_s);
                    }
                    (first, last)
                };
                for k in first..=last {
                    let lo = k as f64 * window_s;
                    let overlap = (fin.min(lo + window_s) - start.max(lo)).max(0.0);
                    if overlap > 0.0 {
                        cells[k * ways + a] += overlap;
                    }
                }
            }
        }
        self.per_acc[a].layers += 1;
        self.per_acc[a].busy_s += dur;
        self.per_acc[a].finish_s = fin;
        self.per_acc[a].energy_j += energy.total_j();
        self.energy = self.energy.plus(&energy);
        fin
    }

    /// Debug builds: drops logged intervals that no future query can
    /// see. A query is made at or after a candidate's ready time, which
    /// is at or after its way's `acc_free` (so the smallest one) and its
    /// frame's arrival (so the earliest incomplete arrival, or the clock
    /// for frames still to come). Each bound is a floor on every future
    /// query, so intervals finishing by the larger one are dead.
    #[cfg(debug_assertions)]
    fn prune_log(&mut self) {
        let by_way = self.acc_free.iter().copied().fold(f64::INFINITY, f64::min);
        let by_arrival = self
            .active
            .iter()
            .filter_map(|&fi| self.frames[fi].as_ref())
            .filter(|f| f.remaining > 0)
            .map(|f| f.arrival_s)
            .fold(self.clock, f64::min);
        let cut = by_way.max(by_arrival);
        self.intervals.retain(|(_, f, _)| *f > cut);
    }

    /// The start time of the next pending commit, if any — the batched
    /// admission window probe: while the next trace event lands at or
    /// before this instant, admitting it without another `run_until` is
    /// bit-identical to the event-at-a-time walk (no commit can
    /// interleave, and same-instant ties break by admission order either
    /// way).
    pub(crate) fn next_commit_start(&mut self) -> Option<f64> {
        self.cached_select_best().map(|(s, _, _, _)| s)
    }

    /// Whether a frame has committed all of its tasks.
    pub(crate) fn frame_done(&self, frame: usize) -> bool {
        self.frames[frame].as_ref().is_none_or(|f| f.remaining == 0)
    }

    /// Extracts a completed frame's timeline, freeing its state.
    ///
    /// # Panics
    ///
    /// Panics if the frame is unknown, already taken, or incomplete.
    pub(crate) fn take_frame(&mut self, frame: usize) -> FrameResult {
        let f = self.frames[frame].take().expect("frame taken twice");
        assert_eq!(f.remaining, 0, "frame still has uncommitted tasks");
        // Recycle the slot and the frame's pooled buffers.
        self.active.retain(|&i| i != frame);
        self.free.push(frame);
        self.head_pool.push(f.head);
        self.finish_pool.push(f.finish);
        FrameResult {
            arrival_s: f.arrival_s,
            finish_s: f.finish_s,
            entries: f.entries,
            energy: f.energy,
        }
    }

    /// Global-buffer peak occupancy observed so far, bytes.
    pub(crate) fn peak_memory_bytes(&self) -> u64 {
        self.peak_mem
    }

    /// Per-sub-accelerator summaries accumulated so far.
    pub(crate) fn per_acc(&self) -> &[AccSummary] {
        &self.per_acc
    }

    /// Energy accumulated so far.
    pub(crate) fn energy(&self) -> &EnergyBreakdown {
        &self.energy
    }

    /// Finishes a single-frame replay: consumes the core and produces the
    /// classic [`ExecutionReport`] for its only admitted frame.
    ///
    /// # Panics
    ///
    /// Panics if more or fewer than one frame was admitted.
    pub(crate) fn into_single_report(mut self) -> ExecutionReport {
        assert_eq!(self.frames.len(), 1, "single-frame report needs one frame");
        let frame = self.take_frame(0);
        let total_latency_s = self.per_acc.iter().map(|s| s.finish_s).fold(0.0, f64::max);
        ExecutionReport::from_parts(
            frame.entries,
            self.per_acc,
            self.energy,
            total_latency_s,
            self.peak_mem,
        )
    }
}

/// Occupancy of the global buffer at time `t` given committed intervals.
/// The flat-list reference for the debug asserts and the tests; the
/// event core and the placement answer it per way.
#[cfg(any(test, debug_assertions))]
pub(crate) fn occupancy_at(t: f64, intervals: &[(f64, f64, u64)]) -> u64 {
    intervals
        .iter()
        .filter(|(s, f, _)| *s <= t && t < *f)
        .map(|(_, _, occ)| occ)
        .sum()
}

/// Occupancy of the global buffer at a time `t` at or after the clock,
/// from each way's last interval (`acc_free[a]` its finish, `way_occ[a]`
/// its bytes); every earlier interval has finished by the clock.
fn occupancy_after(t: f64, acc_free: &[f64], way_occ: &[u64]) -> u64 {
    acc_free
        .iter()
        .zip(way_occ)
        .filter(|(fin, _)| **fin > t)
        .map(|(_, occ)| occ)
        .sum()
}

/// The earliest time at or after `clock` at which `occ` extra bytes fit
/// under `gb`, from each way's last interval as in [`occupancy_after`].
/// When `occ` never fits it is the last finish after `clock` (or `clock`
/// itself), where [`earliest_memory_feasible`] runs out of finish events
/// and admits at once. Occupancy only falls after the clock, so for any
/// `ready` at or after it, `max(ready, memory_floor(..))` equals
/// `earliest_memory_feasible(ready, ..)` over the full interval list.
fn memory_floor(clock: f64, occ: u64, gb: u64, acc_free: &[f64], way_occ: &[u64]) -> f64 {
    let mut t = clock;
    loop {
        let mut used = 0;
        let mut next = f64::INFINITY;
        for (&fin, &o) in acc_free.iter().zip(way_occ) {
            if fin > t {
                used += o;
                next = next.min(fin);
            }
        }
        if used + occ <= gb || next.is_infinite() {
            return t;
        }
        t = next;
    }
}

/// The earliest time `>= ready` at which `occ` extra bytes fit under the
/// global-buffer capacity, stepping across interval finish events. The
/// flat-list reference for the debug asserts and the tests, like
/// [`occupancy_at`].
#[cfg(any(test, debug_assertions))]
pub(crate) fn earliest_memory_feasible(
    ready: f64,
    occ: u64,
    gb: u64,
    intervals: &[(f64, f64, u64)],
) -> f64 {
    let mut t = ready;
    loop {
        if occupancy_at(t, intervals) + occ <= gb {
            return t;
        }
        // Advance to the next finish event after t; if none exists the
        // buffer can never free up, so admit at once (a single layer's
        // occupancy is capped below the buffer size by construction).
        let next = intervals
            .iter()
            .map(|(_, f, _)| *f)
            .filter(|f| *f > t)
            .fold(f64::INFINITY, f64::min);
        if next.is_infinite() {
            return t;
        }
        t = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Seeded random interval sets for property-style checks.
    fn random_intervals(rng: &mut SplitMix64, n: usize, gb: u64) -> Vec<(f64, f64, u64)> {
        (0..n)
            .map(|_| {
                let start = rng.gen_range(0, 1000) as f64 / 100.0;
                let dur = (rng.gen_range(1, 300) as f64) / 100.0;
                let occ = rng.gen_range(1, (gb / 2) as usize) as u64;
                (start, start + dur, occ)
            })
            .collect()
    }

    #[test]
    fn cost_tables_equal_per_task_queries_on_random_assignments() {
        // Independent oracle: each task queried on its own, from a
        // separate cost model, against the table built once per (layer
        // class, assigned way). The chips cover fixed ways, a
        // reconfigurable array whose style choice depends on the metric,
        // and gated ways running sparse layers; the workload repeats
        // layers and carries dense and sparse variants of one model.
        use crate::exec::{Schedule, ScheduleSimulator};
        use herald_arch::{AcceleratorClass, Partition};
        use herald_dataflow::DataflowStyle;
        use herald_models::zoo;

        let workload = herald_workloads::MultiDnnWorkload::new("mix")
            .with_model(zoo::mobilenet_v2(), 2)
            .with_model(zoo::mobilenet_v2().with_uniform_density(0.3), 1)
            .with_model(zoo::resnet50().with_uniform_density(0.6), 1);
        let graph = TaskGraph::new(&workload);
        assert!(graph.num_layer_classes() < graph.len());
        let res = AcceleratorClass::Mobile.resources();
        let chips = [
            AcceleratorConfig::maelstrom(res, Partition::even(2, res.pes, res.bandwidth_gbps))
                .unwrap(),
            AcceleratorConfig::rda(res),
            AcceleratorConfig::hda(
                &DataflowStyle::ALL,
                res,
                Partition::even(3, res.pes, res.bandwidth_gbps),
            )
            .unwrap()
            .with_sparse_gating(),
        ];
        let oracle_cost = CostModel::default();
        let mut rng = SplitMix64::seed_from_u64(0xC1A5_2026);
        for acc in &chips {
            let ways = acc.sub_accelerators().len();
            for round in 0..3 {
                let assignment: Vec<usize> = graph.ids().map(|_| rng.gen_range(0, ways)).collect();
                let mut order = vec![Vec::new(); ways];
                for t in graph.ids() {
                    order[assignment[t.0]].push(t);
                }
                let schedule = Schedule::new(assignment.clone(), order).unwrap();
                for metric in Metric::ALL {
                    let cost = CostModel::default();
                    let table = build_cost_table(&graph, &schedule, acc, &cost, metric);
                    let oracle =
                        ScheduleSimulator::new(&graph, acc, &oracle_cost).with_metric(metric);
                    assert_eq!(table.len(), graph.len());
                    for t in graph.ids() {
                        // `Debug` prints every float in full, so equal
                        // strings mean equal bits.
                        assert_eq!(
                            format!("{:?}", table[t.0]),
                            format!("{:?}", oracle.task_cost(t, assignment[t.0])),
                            "{} round {round} {metric:?} {t}",
                            acc.name()
                        );
                    }
                    // One query per (layer class, assigned way); a
                    // reconfigurable way queries every style.
                    let pairs: std::collections::HashSet<(usize, usize)> = graph
                        .ids()
                        .map(|t| (graph.layer_class(t), assignment[t.0]))
                        .collect();
                    let per_pair = if acc.sub_accelerators()[0].is_reconfigurable() {
                        DataflowStyle::ALL.len()
                    } else {
                        1
                    };
                    assert_eq!(
                        cost.cache_hits() + cost.cache_misses(),
                        (pairs.len() * per_pair) as u64
                    );
                }
            }
        }
    }

    #[test]
    fn occupancy_at_matches_brute_force_and_boundaries() {
        let mut rng = SplitMix64::seed_from_u64(11);
        for _ in 0..50 {
            let gb = 1 << 16;
            let intervals = random_intervals(&mut rng, 8, gb);
            for &(s, f, _) in &intervals {
                // Half-open semantics: occupied at start, free at finish.
                let at_start: u64 = intervals
                    .iter()
                    .filter(|(a, b, _)| *a <= s && s < *b)
                    .map(|(_, _, o)| o)
                    .sum();
                assert_eq!(occupancy_at(s, &intervals), at_start);
                let at_finish = occupancy_at(f, &intervals);
                let without_self: u64 = intervals
                    .iter()
                    .filter(|(a, b, _)| *a <= f && f < *b)
                    .map(|(_, _, o)| o)
                    .sum();
                assert_eq!(at_finish, without_self);
            }
        }
    }

    #[test]
    fn feasible_start_never_precedes_ready() {
        let mut rng = SplitMix64::seed_from_u64(42);
        for _ in 0..200 {
            let gb = 1 << 14;
            let intervals = random_intervals(&mut rng, 12, gb);
            let ready = rng.gen_range(0, 1500) as f64 / 100.0;
            let occ = rng.gen_range(0, gb as usize + 1) as u64;
            let t = earliest_memory_feasible(ready, occ, gb, &intervals);
            assert!(t >= ready, "start {t} before ready {ready}");
        }
    }

    #[test]
    fn feasible_start_respects_capacity_or_exhausts_events() {
        let mut rng = SplitMix64::seed_from_u64(7);
        for _ in 0..200 {
            let gb = 1 << 14;
            let intervals = random_intervals(&mut rng, 12, gb);
            let ready = rng.gen_range(0, 1500) as f64 / 100.0;
            let occ = rng.gen_range(0, gb as usize + 1) as u64;
            let t = earliest_memory_feasible(ready, occ, gb, &intervals);
            let fits = occupancy_at(t, &intervals) + occ <= gb;
            let no_more_events = intervals.iter().all(|(_, f, _)| *f <= t);
            assert!(
                fits || no_more_events,
                "infeasible start {t} with pending finish events"
            );
        }
    }

    #[test]
    fn feasible_start_is_minimal_across_finish_events() {
        // Every earlier candidate instant (the ready time and each finish
        // event before the returned start) must be infeasible.
        let mut rng = SplitMix64::seed_from_u64(1234);
        for _ in 0..200 {
            let gb = 1 << 14;
            let intervals = random_intervals(&mut rng, 10, gb);
            let ready = rng.gen_range(0, 1200) as f64 / 100.0;
            let occ = rng.gen_range(1, gb as usize) as u64;
            let t = earliest_memory_feasible(ready, occ, gb, &intervals);
            let mut candidates: Vec<f64> = intervals
                .iter()
                .map(|(_, f, _)| *f)
                .filter(|f| *f >= ready && *f < t)
                .collect();
            if t > ready {
                candidates.push(ready);
            }
            for c in candidates {
                assert!(
                    occupancy_at(c, &intervals) + occ > gb,
                    "earlier instant {c} was feasible but {t} returned"
                );
            }
        }
    }

    #[test]
    fn running_layers_hold_memory_after_all_frames_committed() {
        // Regression: a fully *committed* frame can still have layers
        // executing past the clock; a later-admitted frame must still
        // see their occupancy.
        use crate::exec::Schedule;
        use crate::task::TaskGraph;
        use herald_arch::{AcceleratorClass, AcceleratorConfig};
        use herald_dataflow::DataflowStyle;

        let graph = TaskGraph::new(&herald_workloads::single_model(
            herald_models::zoo::mobilenet_v1(),
            1,
        ));
        let acc = AcceleratorConfig::fda(DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
        let cost = CostModel::default();
        let schedule = Schedule::new(vec![0; graph.len()], vec![graph.ids().collect()]).unwrap();
        let costs = build_cost_table(&graph, &schedule, &acc, &cost, Metric::Edp);
        let mut core = EventCore::new(&acc);
        core.admit_with_costs(
            GraphRef::Borrowed(&graph),
            ScheduleRef::Borrowed(&schedule),
            costs.clone(),
            max_occupancy(&acc, &costs),
            0.0,
        )
        .unwrap();
        core.run_until(f64::INFINITY).unwrap();
        // The full timeline, rebuilt from the frame's entries.
        let staging_cap = core.staging_cap();
        let timeline: Vec<(f64, f64, u64)> = core.frames[0]
            .as_ref()
            .unwrap()
            .entries
            .iter()
            .map(|e| {
                let occ = costs[e.task.0].buffer.occupancy_bytes(staging_cap);
                (e.start_s, e.finish_s, occ)
            })
            .collect();
        let (last_start, last_finish, last_occ) = *timeline.last().unwrap();
        assert_eq!(core.clock, last_start);
        assert!(last_finish > last_start && last_occ > 0);
        // The last layer still runs at the clock and up to its finish.
        for t in [last_start, (last_start + last_finish) / 2.0, last_finish] {
            assert_eq!(
                occupancy_after(t, &core.acc_free, &core.way_occ),
                occupancy_at(t, &timeline)
            );
        }
        assert_eq!(
            occupancy_after(last_start, &core.acc_free, &core.way_occ),
            last_occ
        );
        // A layer that fits only beside an empty buffer waits for it.
        let gb = acc.global_buffer_bytes();
        let occ = gb - last_occ + 1;
        assert_eq!(
            memory_floor(core.clock, occ, gb, &core.acc_free, &core.way_occ),
            last_finish
        );
        assert_eq!(
            earliest_memory_feasible(core.clock, occ, gb, &timeline),
            last_finish
        );
    }

    #[test]
    fn memory_floor_matches_full_interval_semantics() {
        // Independent oracle: random back-to-back runs per way, every
        // start at or before the clock, queried at or after the clock.
        // Times sit on a half-unit grid so finishes tie with the clock,
        // with each other and with starts.
        let mut rng = SplitMix64::seed_from_u64(0xF100_2026);
        let gb: u64 = 1 << 12;
        let (mut ties_at_clock, mut zero_length, mut equal_finishes, mut never_fits) = (0, 0, 0, 0);
        for _ in 0..2000 {
            let ways = rng.gen_range(1, 5);
            let clock = rng.gen_range(0, 24) as f64 / 2.0;
            let mut intervals = Vec::new();
            let mut acc_free = vec![0.0; ways];
            let mut way_occ = vec![0; ways];
            for a in 0..ways {
                for _ in 0..rng.gen_range(0, 5) {
                    if acc_free[a] > clock {
                        break;
                    }
                    let start = if rng.gen_range(0, 3) == 0 {
                        clock
                    } else {
                        (acc_free[a] + rng.gen_range(0, 4) as f64 / 2.0).min(clock)
                    };
                    let fin = start + rng.gen_range(0, 8) as f64 / 2.0;
                    let occ = rng.gen_range(0, gb as usize / 2) as u64;
                    zero_length += usize::from(fin == start);
                    ties_at_clock += usize::from(start == clock || fin == clock);
                    intervals.push((start, fin, occ));
                    acc_free[a] = fin;
                    way_occ[a] = occ;
                }
            }
            equal_finishes += usize::from(
                (0..ways)
                    .any(|a| (0..a).any(|b| acc_free[a] == acc_free[b] && acc_free[a] > clock)),
            );
            for _ in 0..8 {
                let ready = clock + rng.gen_range(0, 12) as f64 / 2.0;
                let occ = rng.gen_range(0, gb as usize * 5 / 4) as u64;
                never_fits += usize::from(occ > gb);
                assert_eq!(
                    occupancy_after(ready, &acc_free, &way_occ),
                    occupancy_at(ready, &intervals)
                );
                assert_eq!(
                    ready.max(memory_floor(clock, occ, gb, &acc_free, &way_occ)),
                    earliest_memory_feasible(ready, occ, gb, &intervals),
                    "clock {clock}, ready {ready}, occ {occ}, intervals {intervals:?}"
                );
            }
        }
        assert!(ties_at_clock > 0 && zero_length > 0 && equal_finishes > 0 && never_fits > 0);
    }

    #[test]
    fn pruning_preserves_feasibility_answers() {
        // Dropping intervals that finish at or before a cut must not
        // change any query at or after the cut.
        let mut rng = SplitMix64::seed_from_u64(99);
        for _ in 0..100 {
            let gb = 1 << 14;
            let intervals = random_intervals(&mut rng, 12, gb);
            let cut = rng.gen_range(0, 1200) as f64 / 100.0;
            let pruned: Vec<_> = intervals
                .iter()
                .copied()
                .filter(|(_, f, _)| *f > cut)
                .collect();
            for k in 0..10 {
                let t = cut + k as f64 / 3.0;
                assert_eq!(occupancy_at(t, &intervals), occupancy_at(t, &pruned));
                let occ = rng.gen_range(1, gb as usize) as u64;
                assert_eq!(
                    earliest_memory_feasible(t, occ, gb, &intervals),
                    earliest_memory_feasible(t, occ, gb, &pruned)
                );
            }
        }
    }

    /// A random multi-instance workload: each model is a chain of small
    /// convolutions plus random skip edges to earlier layers.
    fn random_workload(rng: &mut SplitMix64) -> herald_workloads::MultiDnnWorkload {
        use herald_models::{LayerDims, LayerId, LayerOp, ModelBuilder};
        let mut workload = herald_workloads::MultiDnnWorkload::new("random");
        for m in 0..rng.gen_range(1, 4) {
            let mut model = ModelBuilder::new(format!("m{m}"));
            for l in 0..rng.gen_range(1, 7) {
                let k = [4, 8, 16, 32][rng.gen_range(0, 4)];
                let c = [3, 8, 16][rng.gen_range(0, 3)];
                let side = [7, 14, 28][rng.gen_range(0, 3)];
                let deps: Vec<LayerId> = (0..l)
                    .filter(|&d| d + 1 == l || rng.gen_range(0, 3) == 0)
                    .map(LayerId)
                    .collect();
                model = model.layer_with_deps(
                    format!("l{l}"),
                    LayerOp::Conv2d,
                    LayerDims::conv(k, c, side, side, 3, 3).with_pad(1),
                    &deps,
                );
            }
            workload = workload.with_model(model.build().unwrap(), rng.gen_range(1, 3));
        }
        workload
    }

    /// A random valid schedule on `ways` ways: a random assignment, with
    /// every queue in the order of one random topological order of the
    /// graph, so the earliest queue head in that order is never blocked.
    fn random_schedule(rng: &mut SplitMix64, graph: &TaskGraph, ways: usize) -> Schedule {
        let assignment: Vec<usize> = graph.ids().map(|_| rng.gen_range(0, ways)).collect();
        let mut order = vec![Vec::new(); ways];
        let mut placed = vec![false; graph.len()];
        loop {
            let ready: Vec<TaskId> = graph
                .ids()
                .filter(|&t| !placed[t.0] && graph.deps(t).iter().all(|d| placed[d.0]))
                .collect();
            if ready.is_empty() {
                break;
            }
            let t = ready[rng.gen_range(0, ready.len())];
            placed[t.0] = true;
            order[assignment[t.0]].push(t);
        }
        Schedule::new(assignment, order).unwrap()
    }

    /// One frame of [`Oracle`]: queue positions and finish times only.
    struct OracleFrame {
        slot: usize,
        graph: Arc<TaskGraph>,
        schedule: Arc<Schedule>,
        costs: CostTable,
        arrival_s: f64,
        head: Vec<usize>,
        finish: Vec<Option<f64>>,
        /// `(task, way, start, finish)` in commit order.
        commits: Vec<(TaskId, usize, f64, f64)>,
    }

    /// A brute-force model of Sec. IV-A with no head table, memo or
    /// per-way occupancy: frames in admission order, each way's free
    /// time, and every interval ever committed, also per way as
    /// `(start, start + latency)` in commit order.
    struct Oracle {
        frames: Vec<OracleFrame>,
        acc_free: Vec<f64>,
        intervals: Vec<(f64, f64, u64)>,
        way_spans: Vec<Vec<(f64, f64)>>,
        gb: u64,
        staging_cap: u64,
    }

    impl Oracle {
        /// Every queue head whose dependences have all finished, started
        /// at its earliest memory-feasible time over the full interval
        /// list; the first one found with the earliest start wins.
        fn pick(&self) -> Option<(f64, usize, usize, TaskId)> {
            let mut best: Option<(f64, usize, usize, TaskId)> = None;
            for f in &self.frames {
                for (a, queue) in f.schedule.order().iter().enumerate() {
                    let Some(&t) = queue.get(f.head[a]) else {
                        continue;
                    };
                    let deps: Option<Vec<f64>> =
                        f.graph.deps(t).iter().map(|d| f.finish[d.0]).collect();
                    let Some(deps) = deps else {
                        continue;
                    };
                    let ready = deps
                        .into_iter()
                        .fold(f.arrival_s.max(self.acc_free[a]), f64::max);
                    let occ = f.costs[t.0].buffer.occupancy_bytes(self.staging_cap);
                    let start = earliest_memory_feasible(ready, occ, self.gb, &self.intervals);
                    if best.is_none_or(|(s, ..)| start < s) {
                        best = Some((start, f.slot, a, t));
                    }
                }
            }
            best
        }

        fn commit(&mut self, (start, slot, a, t): (f64, usize, usize, TaskId)) {
            let f = self.frames.iter_mut().find(|f| f.slot == slot).unwrap();
            let cost = &f.costs[t.0];
            let fin = start + cost.latency_s;
            let occ = cost.buffer.occupancy_bytes(self.staging_cap);
            self.intervals.push((start, fin, occ));
            self.way_spans[a].push((start, fin));
            self.acc_free[a] = fin;
            f.head[a] += 1;
            f.finish[t.0] = Some(fin);
            f.commits.push((t, a, start, fin));
        }
    }

    /// Checks the core against the oracle: the same frames in the same
    /// order, the same commits per frame, and every head-table entry
    /// equal to a recomputation from the oracle's dependence lists and
    /// finish times. Returns the (blocked, exhausted) entries seen.
    fn assert_matches_oracle(core: &EventCore<'_>, oracle: &Oracle, case: usize) -> (usize, usize) {
        let ways = oracle.acc_free.len();
        let slots: Vec<usize> = oracle.frames.iter().map(|f| f.slot).collect();
        assert_eq!(core.active, slots, "case {case}");
        assert_eq!(core.acc_free, oracle.acc_free, "case {case}");
        let (mut blocked, mut exhausted) = (0, 0);
        for f in &oracle.frames {
            let frame = core.frames[f.slot].as_ref().unwrap();
            let commits: Vec<_> = frame
                .entries
                .iter()
                .map(|e| (e.task, e.acc, e.start_s, e.finish_s))
                .collect();
            assert_eq!(commits, f.commits, "case {case}, slot {}", f.slot);
            for (a, queue) in f.schedule.order().iter().enumerate() {
                let i = f.slot * ways + a;
                let entry = core.head_ready[i];
                let Some(&t) = queue.get(f.head[a]) else {
                    exhausted += 1;
                    assert!(entry.is_nan(), "case {case}, slot {}, way {a}", f.slot);
                    continue;
                };
                assert_eq!(
                    core.head_task[i], t,
                    "case {case}, slot {}, way {a}",
                    f.slot
                );
                let deps: Vec<Option<f64>> =
                    f.graph.deps(t).iter().map(|d| f.finish[d.0]).collect();
                let expected = if deps.contains(&None) {
                    blocked += 1;
                    f64::INFINITY
                } else {
                    deps.into_iter().flatten().fold(f.arrival_s, f64::max)
                };
                assert_eq!(
                    entry.to_bits(),
                    expected.to_bits(),
                    "case {case}, slot {}, way {a}",
                    f.slot
                );
            }
        }
        (blocked, exhausted)
    }

    /// `run_until`'s loop one commit at a time: the commits made, in
    /// order, up to `limit`.
    fn commit_sequence(core: &mut EventCore<'_>, limit: f64) -> Vec<(f64, usize, usize, TaskId)> {
        let mut commits = Vec::new();
        while let Some(pick) = core.cached_select_best().filter(|p| p.0 <= limit) {
            core.commit(pick.0, pick.1, pick.2, pick.3);
            commits.push(pick);
        }
        commits
    }

    #[test]
    fn head_table_and_commit_order_match_a_brute_force_oracle() {
        // Independent oracle, checked in release builds too: random
        // workloads and schedules on 2-4 ways, frames admitted in bursts
        // at one instant, `run_until` at random limits, harvests at
        // random. After every step the head table equals a
        // recomputation, every commit is the oracle's pick, and a
        // span-keeping core fed the same steps holds the oracle's commits
        // per way. An exact engine run of each case's workloads then
        // reports one span per commit, strictly increasing in (start,
        // way).
        use crate::sched::HeraldScheduler;
        use crate::sim::StreamSimulator;
        use herald_arch::{HardwareResources, Partition};
        use herald_dataflow::DataflowStyle;
        use herald_workloads::{Scenario, StreamSpec};

        let mut rng = SplitMix64::seed_from_u64(0x4EAD_7AB1_E018);
        let cost = CostModel::default();
        let (mut stepped, mut fallbacks, mut reused, mut blocked, mut exhausted) = (0, 0, 0, 0, 0);
        let (mut engine_spans, mut shared_starts) = (0, 0);
        for case in 0..24 {
            let ways = rng.gen_range(2, 5);
            let gb: u64 = [4 << 20, 64 << 10, 16 << 10][rng.gen_range(0, 3)];
            let res = HardwareResources::new(1024, 16.0, gb);
            let acc = if ways <= DataflowStyle::ALL.len() {
                let partition = Partition::even(ways, res.pes, res.bandwidth_gbps);
                AcceleratorConfig::hda(&DataflowStyle::ALL[..ways], res, partition).unwrap()
            } else {
                AcceleratorConfig::sm_fda(DataflowStyle::Nvdla, ways, res).unwrap()
            };
            let mut workloads = Vec::new();
            let jobs: Vec<(Arc<TaskGraph>, Arc<Schedule>, CostTable)> = (0..rng.gen_range(1, 4))
                .map(|_| {
                    workloads.push(random_workload(&mut rng));
                    let graph = TaskGraph::new(workloads.last().unwrap());
                    let schedule = random_schedule(&mut rng, &graph, ways);
                    let costs = build_cost_table(&graph, &schedule, &acc, &cost, Metric::Edp);
                    (Arc::new(graph), Arc::new(schedule), costs)
                })
                .collect();
            // Limits move in steps of about one layer.
            let tick = jobs[0].2.iter().map(|c| c.latency_s).sum::<f64>() / jobs[0].2.len() as f64;
            let mut core = EventCore::new(&acc);
            let mut span_core =
                EventCore::with_timeline(&acc, Timeline::Spans(vec![Vec::new(); ways]));
            let mut oracle = Oracle {
                frames: Vec::new(),
                acc_free: vec![0.0; ways],
                intervals: Vec::new(),
                way_spans: vec![Vec::new(); ways],
                gb,
                staging_cap: gb / STAGING_FRACTION,
            };
            let mut now = 0.0;
            for step in 0..48 {
                let drain = step == 47;
                match rng.gen_range(0, 4) {
                    0 if !drain => {
                        for _ in 0..rng.gen_range(1, 4) {
                            let (graph, schedule, costs) =
                                jobs[rng.gen_range(0, jobs.len())].clone();
                            let [slot, span_slot] = [&mut core, &mut span_core].map(|core| {
                                core.admit_with_costs(
                                    GraphRef::Shared(Arc::clone(&graph)),
                                    ScheduleRef::Shared(Arc::clone(&schedule)),
                                    costs.clone(),
                                    max_occupancy(&acc, &costs),
                                    now,
                                )
                                .unwrap()
                            });
                            assert_eq!(slot, span_slot, "case {case}");
                            reused += usize::from(slot + 1 < core.frames.len());
                            oracle.frames.push(OracleFrame {
                                slot,
                                head: vec![0; ways],
                                finish: vec![None; graph.len()],
                                commits: Vec::new(),
                                arrival_s: now,
                                graph,
                                schedule,
                                costs,
                            });
                        }
                    }
                    1 if !drain => {
                        let done: Vec<usize> = oracle
                            .frames
                            .iter()
                            .filter(|f| f.finish.iter().all(Option::is_some))
                            .map(|f| f.slot)
                            .collect();
                        for f in &oracle.frames {
                            assert_eq!(core.frame_done(f.slot), done.contains(&f.slot));
                        }
                        for slot in done {
                            core.take_frame(slot);
                            span_core.take_frame(slot);
                        }
                        oracle
                            .frames
                            .retain(|f| f.finish.iter().any(Option::is_none));
                    }
                    _ => {
                        let limit = if drain {
                            f64::INFINITY
                        } else {
                            now + tick * rng.gen_range(0, 12) as f64 / 4.0
                        };
                        let stepwise = rng.gen_range(0, 2) == 0;
                        let mut expected = Vec::new();
                        while let Some(pick) = oracle.pick().filter(|p| p.0 <= limit) {
                            oracle.commit(pick);
                            expected.push(pick);
                        }
                        if stepwise {
                            assert_eq!(commit_sequence(&mut core, limit), expected, "case {case}");
                            stepped += expected.len();
                        } else {
                            core.run_until(limit).unwrap();
                        }
                        span_core.run_until(limit).unwrap();
                        assert_eq!(core.cached_select_best(), oracle.pick(), "case {case}");
                        if !drain {
                            now = limit;
                        }
                    }
                }
                let (b, e) = assert_matches_oracle(&core, &oracle, case);
                blocked += b;
                exhausted += e;
                let Timeline::Spans(lists) = &span_core.timeline else {
                    unreachable!("the span core keeps spans");
                };
                assert_eq!(lists, &oracle.way_spans, "case {case}");
            }
            assert_eq!(core.total_remaining(), 0, "case {case}");
            fallbacks += core.fallback_scans;

            // Poisson streams of the case's workloads, a frame about every
            // two layers, so frames overlap.
            let scenario = workloads.into_iter().enumerate().fold(
                Scenario::new("oracle", 48.0 * tick),
                |sc, (i, w)| {
                    let seed = (case * 8 + i) as u64;
                    sc.stream(StreamSpec::poisson(format!("s{i}"), w, 0.5 / tick, seed))
                },
            );
            let (report, profile) = StreamSimulator::new(&acc, &cost)
                .simulate_profiled(&HeraldScheduler::default(), &scenario)
                .unwrap();
            let spans = report.busy_spans();
            assert_eq!(spans.len() as u64, profile.commits, "case {case}");
            let merged: Vec<_> = spans.iter().collect();
            for pair in merged.windows(2) {
                let order = pair[0].start_s.total_cmp(&pair[1].start_s);
                assert!(
                    order.then(pair[0].acc.cmp(&pair[1].acc)).is_lt(),
                    "case {case}: {pair:?}"
                );
                shared_starts += usize::from(order.is_eq());
            }
            engine_spans += merged.len();
        }
        // The cases reach every state the table and the selection have.
        assert!(
            stepped > 0 && fallbacks > 0 && reused > 0,
            "{stepped} {fallbacks} {reused}"
        );
        assert!(blocked > 0 && exhausted > 0, "{blocked} {exhausted}");
        // Spans on different ways start together, so the merge's way
        // order is exercised.
        assert!(
            engine_spans > 0 && shared_starts > 0,
            "{engine_spans} {shared_starts}"
        );
    }

    #[test]
    fn ties_go_to_the_earlier_admission_then_the_lower_way() {
        // Pinned: two identical two-task frames and a fork frame, all
        // admitted at 0 on two identical ways. The fork's `l1` (way 0)
        // and `l2` (way 1) both wait on `l0` and become ready together.
        use herald_arch::AcceleratorClass;
        use herald_dataflow::DataflowStyle;
        use herald_models::{LayerDims, LayerId, LayerOp, ModelBuilder};

        let acc =
            AcceleratorConfig::sm_fda(DataflowStyle::Nvdla, 2, AcceleratorClass::Edge.resources())
                .unwrap();
        let dims = LayerDims::conv(16, 8, 14, 14, 3, 3).with_pad(1);
        let one = ModelBuilder::new("one")
            .chain("l0", LayerOp::Conv2d, dims)
            .build()
            .unwrap();
        let pair = TaskGraph::new(&herald_workloads::single_model(one, 2));
        let pair_schedule =
            Schedule::new(vec![0, 1], vec![vec![TaskId(0)], vec![TaskId(1)]]).unwrap();
        let fork_model = ModelBuilder::new("fork")
            .chain("l0", LayerOp::Conv2d, dims)
            .chain("l1", LayerOp::Conv2d, dims)
            .layer_with_deps("l2", LayerOp::Conv2d, dims, &[LayerId(0)])
            .build()
            .unwrap();
        let fork = TaskGraph::new(&herald_workloads::single_model(fork_model, 1));
        let fork_schedule = Schedule::new(
            vec![0, 0, 1],
            vec![vec![TaskId(0), TaskId(1)], vec![TaskId(2)]],
        )
        .unwrap();
        let cost = CostModel::default();
        let pair_costs = build_cost_table(&pair, &pair_schedule, &acc, &cost, Metric::Edp);
        let fork_costs = build_cost_table(&fork, &fork_schedule, &acc, &cost, Metric::Edp);
        let d = pair_costs[0].latency_s;
        assert_eq!(pair_costs[1].latency_s, d, "identical ways");
        let frames = [
            (&pair, &pair_schedule, &pair_costs),
            (&pair, &pair_schedule, &pair_costs),
            (&fork, &fork_schedule, &fork_costs),
        ];
        fn admit_all<'a>(
            core: &mut EventCore<'a>,
            frames: &[(&'a TaskGraph, &'a Schedule, &CostTable); 3],
        ) -> [usize; 3] {
            frames.map(|(g, s, c)| {
                core.admit_with_costs(
                    GraphRef::Borrowed(g),
                    ScheduleRef::Borrowed(s),
                    c.clone(),
                    max_occupancy(core.acc, c),
                    0.0,
                )
                .unwrap()
            })
        }
        let mut core = EventCore::new(&acc);
        let [a, b, c] = admit_all(&mut core, &frames);
        let t1 = 0.0 + d;
        let t2 = t1 + d;
        let t3 = t2 + fork_costs[0].latency_s;
        let expected = vec![
            // Four heads ready at 0: frame `a` first, way 0 first.
            (0.0, a, 0, TaskId(0)),
            (0.0, a, 1, TaskId(1)),
            // Way 0 frees at t1 for `b` and the fork's `l0`: `b` first.
            (t1, b, 0, TaskId(0)),
            (t1, b, 1, TaskId(1)),
            (t2, c, 0, TaskId(0)),
            // `l0` finishes at t3 and frees both of its consumers.
            (t3, c, 0, TaskId(1)),
            (t3, c, 1, TaskId(2)),
        ];
        assert_eq!(commit_sequence(&mut core, f64::INFINITY), expected);
        // `run_until` makes the same commits.
        let mut whole = EventCore::new(&acc);
        admit_all(&mut whole, &frames);
        whole.run_until(f64::INFINITY).unwrap();
        for slot in [a, b, c] {
            let entries = |core: &EventCore<'_>| -> Vec<(TaskId, usize, f64, f64)> {
                core.frames[slot]
                    .as_ref()
                    .unwrap()
                    .entries
                    .iter()
                    .map(|e| (e.task, e.acc, e.start_s, e.finish_s))
                    .collect()
            };
            assert_eq!(entries(&whole), entries(&core), "slot {slot}");
        }
    }

    /// Every observable a commit changes, as text: `Debug` prints each
    /// float in full, so equal text means equal bits.
    fn observables(core: &EventCore<'_>) -> String {
        let timeline = match &core.timeline {
            Timeline::Entries => String::new(),
            Timeline::Spans(lists) => format!("{lists:?}"),
            Timeline::Windows {
                window_s, cells, ..
            } => format!("{window_s:?} {cells:?}"),
        };
        format!(
            "{:?} {:?} {:?} {} {:?} {:?} {} {} {} {timeline}",
            core.acc_free,
            core.way_occ,
            core.clock,
            core.peak_memory_bytes(),
            core.per_acc(),
            core.energy(),
            core.commits,
            core.occ_cap,
            core.remaining_total,
        )
    }

    fn frame_text(f: &FrameResult) -> String {
        format!(
            "{:?} {:?} {:?} {:?}",
            f.arrival_s, f.finish_s, f.entries, f.energy
        )
    }

    /// A random job on `acc`; on the `grid`, every latency is a whole
    /// number of seconds, 1 or 2.
    fn random_job(
        rng: &mut SplitMix64,
        acc: &AcceleratorConfig,
        cost: &CostModel,
        grid: bool,
    ) -> (TaskGraph, Schedule, CostTable) {
        let graph = TaskGraph::new(&random_workload(rng));
        let schedule = random_schedule(rng, &graph, acc.sub_accelerators().len());
        let mut costs = build_cost_table(&graph, &schedule, acc, cost, Metric::Edp).to_vec();
        if grid {
            for c in &mut costs {
                c.latency_s = rng.gen_range(1, 3) as f64;
            }
        }
        (graph, schedule, costs.into())
    }

    /// A fresh core recording into timeline `kind`: entries, spans, or
    /// windows of `window_s`.
    fn core_with(acc: &AcceleratorConfig, kind: usize, window_s: f64) -> EventCore<'_> {
        let timeline = match kind {
            0 => Timeline::Entries,
            1 => Timeline::Spans(vec![Vec::new(); acc.sub_accelerators().len()]),
            _ => Timeline::windows(window_s),
        };
        EventCore::with_timeline(acc, timeline)
    }

    /// [`core_with`] after `prior` ran to completion from 0 and was
    /// taken: its tail may still run.
    fn after_prior<'a>(
        acc: &'a AcceleratorConfig,
        kind: usize,
        window_s: f64,
        prior: &'a (TaskGraph, Schedule, CostTable),
    ) -> EventCore<'a> {
        let mut core = core_with(acc, kind, window_s);
        let (graph, schedule, costs) = prior;
        let slot = core
            .admit_with_costs(
                GraphRef::Borrowed(graph),
                ScheduleRef::Borrowed(schedule),
                costs.clone(),
                max_occupancy(acc, costs),
                0.0,
            )
            .unwrap();
        core.run_until(f64::INFINITY).unwrap();
        core.take_frame(slot);
        core
    }

    #[test]
    fn window_cursor_books_what_the_division_books() {
        // Oracle: the utilization loop that divides both ends of every
        // span. Spans on two ways, back to back or with gaps, short and
        // window-crossing, starting and ending on, just below and just
        // above window bounds, under awkward widths: the cells must
        // equal the oracle's bit for bit, with both the cursor's window
        // and the division taken many times.
        let mut rng = SplitMix64::seed_from_u64(0x3140_2026);
        let res = herald_arch::HardwareResources::new(1024, 16.0, 4 << 20);
        let acc = AcceleratorConfig::sm_fda(DataflowStyle::Nvdla, 2, res).unwrap();
        let ways = acc.sub_accelerators().len();
        let (mut inside, mut divided) = (0, 0);
        let widths = [
            0.1,
            1.0 / 3.0,
            0.7,
            1e-3 * std::f64::consts::PI,
            123.4,
            2.5e-7,
        ];
        for window_s in widths {
            for k in [1, 2, 3, 7, 10, 1000, 123_457] {
                let t = window_start(k, window_s).unwrap();
                assert!((t / window_s) as usize >= k, "{window_s} {k}");
                assert!(((t.next_down() / window_s) as usize) < k, "{window_s} {k}");
            }
            let mut core = EventCore::with_timeline(&acc, Timeline::windows(window_s));
            let mut oracle: Vec<f64> = Vec::new();
            let mut now = 0.0f64;
            for _ in 0..3000 {
                let a = rng.gen_range(0, ways);
                let k = (now / window_s) as usize + rng.gen_range(0, 2);
                let bound = window_start(k + 1, window_s).unwrap();
                let start = match rng.gen_range(0, 4) {
                    0 => bound,
                    1 => bound.next_down(),
                    2 => bound.next_up(),
                    _ => now + rng.gen_unit() * window_s / 4.0,
                }
                .max(now)
                .max(core.acc_free[a]);
                let end = window_start((start / window_s) as usize + 1, window_s).unwrap();
                let latency_s = match rng.gen_range(0, 4) {
                    0 => end - start,
                    1 => end.next_down() - start,
                    2 => rng.gen_unit() * 3.0 * window_s,
                    _ => rng.gen_unit() * window_s / 8.0,
                };
                let fin = start + latency_s;
                let Timeline::Windows { cursor, .. } = &core.timeline else {
                    unreachable!("a windows timeline");
                };
                if start >= cursor.from && fin < cursor.to {
                    inside += 1;
                } else {
                    divided += 1;
                }
                let cost = CommitCost {
                    latency_s,
                    occ: 0,
                    energy: EnergyBreakdown::default(),
                    style: DataflowStyle::Nvdla,
                };
                core.book(start, a, TaskId(0), &cost, &mut Vec::new());
                let last = (fin / window_s) as usize;
                if (last + 1) * ways > oracle.len() {
                    oracle.resize((last + 1) * ways, 0.0);
                }
                for w in (start / window_s) as usize..=last {
                    let lo = w as f64 * window_s;
                    let overlap = (fin.min(lo + window_s) - start.max(lo)).max(0.0);
                    if overlap > 0.0 {
                        oracle[w * ways + a] += overlap;
                    }
                }
                now = start;
            }
            let Timeline::Windows { cells, .. } = &core.timeline else {
                unreachable!("a windows timeline");
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(cells), bits(&oracle), "window {window_s}");
        }
        assert!(inside > 1000 && divided > 1000, "{inside} {divided}");
    }

    #[test]
    fn commit_alone_matches_the_commit_loop() {
        // Oracle: a twin core admits the same frame and runs the commit
        // loop up to `until`. Random workloads and schedules on 2-6 ways
        // and three buffer sizes, each frame arriving while a previous
        // frame's tail may still run; in half the cases every latency is
        // a whole number of seconds, so starts tie across ways, with the
        // tail and with `until`. On accept, the frame and every
        // observable of the core must equal the twin's, bit for bit; on
        // decline, the core must be unchanged.
        use herald_arch::{HardwareResources, Partition};

        let mut rng = SplitMix64::seed_from_u64(0x10E_F4A3_2026);
        let cost = CostModel::default();
        let mut accepted = 0;
        let (mut with_tail, mut at_arrival, mut below_last) = (0, 0, 0);
        let (mut gated, mut in_flight, mut order_declines, mut signed_zero) = (0, 0, 0, 0);
        for case in 0..64 {
            let ways = rng.gen_range(2, 7);
            let gb: u64 = [4 << 20, 64 << 10, 16 << 10][rng.gen_range(0, 3)];
            let res = HardwareResources::new(1024, 16.0, gb);
            let acc = if ways <= DataflowStyle::ALL.len() {
                let partition = Partition::even(ways, res.pes, res.bandwidth_gbps);
                AcceleratorConfig::hda(&DataflowStyle::ALL[..ways], res, partition).unwrap()
            } else {
                AcceleratorConfig::sm_fda(DataflowStyle::Nvdla, ways, res).unwrap()
            };
            let grid = rng.gen_range(0, 2) == 0;
            let prior = random_job(&mut rng, &acc, &cost, grid);
            let (graph, schedule, costs) = random_job(&mut rng, &acc, &cost, grid);
            let max_occ = max_occupancy(&acc, &costs);
            let program = LoneProgram::new(&acc, &graph, &schedule, &costs, max_occ).unwrap();
            let admit = |core: &mut EventCore<'_>, arrival_s: f64| {
                core.admit_with_costs(
                    GraphRef::Shared(Arc::new(graph.clone())),
                    ScheduleRef::Shared(Arc::new(schedule.clone())),
                    costs.clone(),
                    max_occ,
                    arrival_s,
                )
                .unwrap()
            };
            let tick = costs.iter().map(|c| c.latency_s).sum::<f64>() / costs.len() as f64;
            let window_s = tick.max(0.5);

            // The arrival, somewhere in the prior frame's tail or after.
            let probe = after_prior(&acc, 0, window_s, &prior);
            let tail_end = probe.acc_free.iter().copied().fold(probe.clock, f64::max);
            let arrival = if grid {
                probe.clock + rng.gen_range(0, 4) as f64
            } else {
                probe.clock + (tail_end - probe.clock) * rng.gen_range(0, 12) as f64 / 8.0
            };
            let mut probe = probe;
            let slot = admit(&mut probe, arrival);
            probe.run_until(f64::INFINITY).unwrap();
            let last_start = probe.take_frame(slot).entries.last().unwrap().start_s;
            let untils = [
                f64::INFINITY,
                arrival,
                last_start,
                last_start.next_down(),
                (arrival + last_start) / 2.0,
            ];
            for kind in 0..3 {
                for until in untils {
                    let mut lone = after_prior(&acc, kind, window_s, &prior);
                    let mut twin = after_prior(&acc, kind, window_s, &prior);
                    let before = observables(&lone);
                    let tail = lone.acc_free.iter().any(|&f| f > arrival);
                    let result = lone.commit_alone(&program, max_occ, arrival, until);
                    let slot = admit(&mut twin, arrival);
                    twin.run_until(until).unwrap();
                    let label = format!("case {case}, timeline {kind}, until {until}");
                    let Some(done) = result else {
                        assert_eq!(observables(&lone), before, "{label}");
                        below_last += usize::from(until < last_start);
                        if (ways as u64) * lone.occ_cap.max(max_occ) > gb {
                            gated += 1;
                        } else if until >= last_start {
                            order_declines += 1;
                        }
                        continue;
                    };
                    assert!(until >= last_start, "{label}: a start lies past until");
                    assert!(twin.frame_done(slot), "{label}");
                    assert_eq!(
                        frame_text(&done),
                        frame_text(&twin.take_frame(slot)),
                        "{label}"
                    );
                    assert_eq!(observables(&lone), observables(&twin), "{label}");
                    accepted += 1;
                    with_tail += usize::from(tail);
                    at_arrival += usize::from(until == arrival);
                }
                // The first frame of a run arriving at -0.0, a time trace
                // validation accepts: the signed zeros are the loop's.
                let mut lone = core_with(&acc, kind, window_s);
                if let Some(done) = lone.commit_alone(&program, max_occ, -0.0, f64::INFINITY) {
                    let mut twin = core_with(&acc, kind, window_s);
                    let slot = admit(&mut twin, -0.0);
                    twin.run_until(f64::INFINITY).unwrap();
                    let expected = twin.take_frame(slot);
                    assert_eq!(frame_text(&done), frame_text(&expected), "case {case}");
                    assert_eq!(observables(&lone), observables(&twin), "case {case}");
                    signed_zero += 1;
                }
                // A frame still in flight: the core declines, unchanged.
                let mut busy = after_prior(&acc, kind, window_s, &prior);
                admit(&mut busy, arrival);
                let before = observables(&busy);
                assert!(busy
                    .commit_alone(&program, max_occ, arrival, f64::INFINITY)
                    .is_none());
                assert_eq!(observables(&busy), before, "case {case}");
                in_flight += 1;
            }
        }
        assert!(
            accepted > 0 && with_tail > 0 && at_arrival > 0,
            "{accepted} {with_tail} {at_arrival}"
        );
        assert!(
            below_last > 0 && gated > 0 && in_flight > 0 && order_declines > 0,
            "{below_last} {gated} {in_flight} {order_declines}"
        );
        assert!(signed_zero > 0);
    }
}
