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

use crate::exec::{AccSummary, ExecutionReport, Schedule, ScheduleEntry, SimError};
use crate::task::{TaskGraph, TaskId};
use herald_arch::AcceleratorConfig;
use herald_cost::{CostModel, EnergyBreakdown, LayerCost, Metric};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
/// The `(task, assigned sub-accelerator)` query set is exactly the set
/// the historical per-candidate path evaluated (every task is eventually
/// a queue head on its assigned queue), so cost-model memo contents are
/// unchanged too.
pub(crate) fn build_cost_table(
    graph: &TaskGraph,
    schedule: &Schedule,
    acc: &AcceleratorConfig,
    cost: &CostModel,
    metric: Metric,
) -> CostTable {
    let subs = acc.sub_accelerators();
    graph
        .ids()
        .map(|t| subs[schedule.assignment()[t.0]].layer_cost(cost, graph.layer(t), metric))
        .collect()
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
    /// The frame's committed timeline, sorted by start time.
    pub entries: Vec<ScheduleEntry>,
    /// Energy of the frame's tasks.
    pub energy: EnergyBreakdown,
}

/// The event-driven simulation core shared by one-shot replay and
/// streaming scenarios.
pub(crate) struct EventCore<'a> {
    acc: &'a AcceleratorConfig,
    cost: &'a CostModel,
    metric: Metric,
    acc_free: Vec<f64>,
    /// Committed intervals: (start, finish, occupancy_bytes).
    intervals: Vec<(f64, f64, u64)>,
    /// Sum of `occupancy_bytes` over `intervals` — an upper bound on the
    /// buffer occupancy at *any* instant. While `bound + candidate_occ`
    /// fits the buffer, every feasibility query trivially returns its
    /// ready time, so the candidate scan skips the O(intervals) walk
    /// (bit-identical: the walk's first probe would succeed).
    live_occ_bound: u64,
    /// Memoized [`EventCore::select_best`] result: `None` when stale,
    /// `Some(result)` when no admit or commit has happened since it was
    /// computed. Harvesting a completed frame and pruning intervals both
    /// preserve the winner (a done frame offers no candidates; pruned
    /// intervals end at or before every candidate's ready time), so
    /// `run_until`'s stopping scan doubles as the batched-admission
    /// window probe for free.
    best_cache: Option<Option<(f64, usize, usize, TaskId)>>,
    /// Pending finish events `(finish_bits, occupancy_bytes)` of
    /// committed intervals, min-ordered on finish time (stored as
    /// `f64::to_bits`, which orders like the non-negative times it
    /// encodes). Because commits happen in non-decreasing start order,
    /// draining events at or before each commit's start keeps
    /// `current_occ` equal to `occupancy_at(start)` without rescanning
    /// the interval list.
    mem_events: BinaryHeap<Reverse<(u64, u64)>>,
    /// Occupancy at the last committed start (see `mem_events`).
    current_occ: u64,
    /// Per-frame best candidate `(ready, way, task)` ranked by *ready*
    /// time (first way wins ties), parallel to `frames`. Outer `None` =
    /// stale, `Some(None)` = every queue head blocked. Ready times never
    /// depend on memory intervals, so an entry only goes stale when its
    /// own frame commits (heads/deps change) or any frame commits on the
    /// entry's way (`acc_free` moves); other commits leave it exact.
    frame_best: Vec<Option<Option<(f64, usize, TaskId)>>>,
    /// Max single-task occupancy over every admission so far (monotone,
    /// conservative). While `live_occ_bound + occ_cap` fits the buffer,
    /// every candidate's feasible start equals its ready time, so
    /// ready-ranking equals start-ranking and the tournament over
    /// `frame_best` reproduces the flat scan exactly.
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
    entries_pool: Vec<Vec<ScheduleEntry>>,
    /// Per-frame buffers served from a pool vs freshly allocated.
    arena_reuses: u64,
    arena_allocs: u64,
    per_acc: Vec<AccSummary>,
    energy: EnergyBreakdown,
    peak_mem: u64,
}

impl<'a> EventCore<'a> {
    pub(crate) fn new(acc: &'a AcceleratorConfig, cost: &'a CostModel, metric: Metric) -> Self {
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
        Self {
            acc,
            cost,
            metric,
            acc_free: vec![0.0; acc.sub_accelerators().len()],
            intervals: Vec::new(),
            live_occ_bound: 0,
            best_cache: None,
            mem_events: BinaryHeap::new(),
            current_occ: 0,
            frame_best: Vec::new(),
            occ_cap: 0,
            frames: Vec::new(),
            active: Vec::new(),
            free: Vec::new(),
            remaining_total: 0,
            head_pool: Vec::new(),
            finish_pool: Vec::new(),
            entries_pool: Vec::new(),
            arena_reuses: 0,
            arena_allocs: 0,
            per_acc,
            energy: EnergyBreakdown::default(),
            peak_mem: 0,
        }
    }

    /// Staging cap per layer: the global-buffer share one layer may pin.
    fn staging_cap(&self) -> u64 {
        self.acc.global_buffer_bytes() / STAGING_FRACTION
    }

    /// Admits a frame at `arrival_s`, validating that the schedule's shape
    /// matches the graph and accelerator; builds the frame's own cost
    /// table. Returns the frame handle.
    pub(crate) fn admit(
        &mut self,
        graph: GraphRef<'a>,
        schedule: ScheduleRef<'a>,
        arrival_s: f64,
    ) -> Result<usize, SimError> {
        let costs = {
            let g = graph.get();
            let s = schedule.get();
            self.validate_shape(g, s)?;
            build_cost_table(g, s, self.acc, self.cost, self.metric)
        };
        self.admit_with_costs(graph, schedule, costs, arrival_s)
    }

    /// [`EventCore::admit`] with a caller-supplied shared cost table,
    /// which must have one entry per task of the graph.
    pub(crate) fn admit_with_costs(
        &mut self,
        graph: GraphRef<'a>,
        schedule: ScheduleRef<'a>,
        costs: CostTable,
        arrival_s: f64,
    ) -> Result<usize, SimError> {
        let (remaining, ways) = {
            let g = graph.get();
            let s = schedule.get();
            self.validate_shape(g, s)?;
            if costs.len() != g.len() {
                return Err(SimError::InvalidSchedule(format!(
                    "cost table covers {} tasks, graph has {}",
                    costs.len(),
                    g.len()
                )));
            }
            (g.len(), s.ways())
        };
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
        let entries = match self.entries_pool.pop() {
            Some(mut e) => {
                self.arena_reuses += 1;
                e.clear();
                e.reserve(remaining);
                e
            }
            None => {
                self.arena_allocs += 1;
                Vec::with_capacity(remaining)
            }
        };
        let state = FrameState {
            graph,
            schedule,
            costs,
            arrival_s,
            head,
            finish,
            remaining,
            entries,
            energy: EnergyBreakdown::default(),
        };
        let staging_cap = self.staging_cap();
        let frame_occ_cap = state
            .costs
            .iter()
            .map(|c| c.buffer.occupancy_bytes(staging_cap))
            .max()
            .unwrap_or(0);
        self.occ_cap = self.occ_cap.max(frame_occ_cap);
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.frames[slot].is_none(), "free slot still occupied");
                self.frames[slot] = Some(state);
                slot
            }
            None => {
                self.frames.push(Some(state));
                self.frame_best.push(None);
                self.frames.len() - 1
            }
        };
        self.frame_best[slot] = None;
        self.active.push(slot);
        self.remaining_total += remaining;
        self.best_cache = None;
        Ok(slot)
    }

    fn validate_shape(&self, g: &TaskGraph, s: &Schedule) -> Result<(), SimError> {
        if s.assignment().len() != g.len() {
            return Err(SimError::InvalidSchedule(format!(
                "schedule covers {} tasks, graph has {}",
                s.assignment().len(),
                g.len()
            )));
        }
        if s.ways() != self.acc.sub_accelerators().len() {
            return Err(SimError::InvalidSchedule(format!(
                "schedule has {} queues, accelerator has {} sub-accelerators",
                s.ways(),
                self.acc.sub_accelerators().len()
            )));
        }
        Ok(())
    }

    /// Tasks not yet committed across all in-flight frames.
    fn total_remaining(&self) -> usize {
        self.remaining_total
    }

    /// Returns a harvested frame's entry buffer to the arena so the next
    /// admission reuses it instead of allocating.
    pub(crate) fn recycle_entries(&mut self, mut entries: Vec<ScheduleEntry>) {
        entries.clear();
        self.entries_pool.push(entries);
    }

    /// `(reused, freshly allocated)` per-frame buffer counts — the
    /// profiling story's "allocations avoided" evidence.
    pub(crate) fn arena_counters(&self) -> (u64, u64) {
        (self.arena_reuses, self.arena_allocs)
    }

    /// The best next commit: the ready queue head with the earliest
    /// feasible start, scanning frames in admission order and
    /// sub-accelerators in index order (first-found wins ties, which keeps
    /// the loop deterministic and, for a single frame, byte-identical to
    /// the historical replay order).
    ///
    /// When `live_occ_bound + occ_cap` fits the global buffer, every
    /// candidate's feasible start *is* its ready time, so the winner of a
    /// tournament over the per-frame `frame_best` memos (ranked by ready)
    /// is the flat scan's winner — including ties, because both resolve
    /// them first-found in (admission order, way order). Only the frames
    /// invalidated by the last commit are rescanned. Under memory
    /// pressure the exact flat scan runs instead.
    fn select_best(&mut self) -> Option<(f64, usize, usize, TaskId)> {
        if self.live_occ_bound + self.occ_cap > self.acc.global_buffer_bytes() {
            return self.select_best_scan();
        }
        let mut best: Option<(f64, usize, usize, TaskId)> = None;
        for idx in 0..self.active.len() {
            let fi = self.active[idx];
            let cand = match self.frame_best[fi] {
                Some(cand) => cand,
                None => {
                    let cand = self.frame_best_compute(fi);
                    self.frame_best[fi] = Some(cand);
                    cand
                }
            };
            let Some((ready, a, t)) = cand else { continue };
            match &best {
                Some((s, _, _, _)) if *s <= ready => {}
                _ => best = Some((ready, fi, a, t)),
            }
        }
        debug_assert_eq!(best, self.select_best_scan());
        best
    }

    /// Frame `fi`'s best unblocked queue head by ready time (first way
    /// wins ties) — the memo behind the tournament in
    /// [`EventCore::select_best`].
    fn frame_best_compute(&self, fi: usize) -> Option<(f64, usize, TaskId)> {
        let frame = self.frames[fi].as_ref()?;
        if frame.remaining == 0 {
            return None;
        }
        let graph = frame.graph.get();
        let schedule = frame.schedule.get();
        let mut best: Option<(f64, usize, TaskId)> = None;
        'ways: for (a, queue) in schedule.order().iter().enumerate() {
            if frame.head[a] >= queue.len() {
                continue;
            }
            let t = queue[frame.head[a]];
            let mut ready = frame.arrival_s.max(self.acc_free[a]);
            for &d in graph.deps(t) {
                match frame.finish[d.0] {
                    Some(fin) => ready = ready.max(fin),
                    None => continue 'ways,
                }
            }
            match &best {
                Some((r, _, _)) if *r <= ready => {}
                _ => best = Some((ready, a, t)),
            }
        }
        best
    }

    /// The exact flat candidate scan (reference path, and the fallback
    /// under memory pressure). Costs come from each frame's precomputed
    /// table — the scan clones nothing.
    fn select_best_scan(&self) -> Option<(f64, usize, usize, TaskId)> {
        let gb = self.acc.global_buffer_bytes();
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
                let occ = costs[t.0].buffer.occupancy_bytes(staging_cap);
                let start = if self.live_occ_bound + occ <= gb {
                    ready
                } else {
                    earliest_memory_feasible(ready, occ, gb, &self.intervals)
                };
                match &best {
                    Some((s, _, _, _)) if *s <= start => {}
                    _ => best = Some((start, fi, a, t)),
                }
            }
        }
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
    /// [`EventCore::select_best`] through the memo: reuses the last scan
    /// when nothing that can change its outcome happened since.
    fn cached_select_best(&mut self) -> Option<(f64, usize, usize, TaskId)> {
        if let Some(cached) = self.best_cache {
            debug_assert_eq!(cached, self.select_best_scan());
            return cached;
        }
        let best = self.select_best();
        self.best_cache = Some(best);
        best
    }

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
        // Tournament memo invalidation: this frame's heads/deps changed,
        // and `acc_free[a]` moved — which can only *worsen* way-`a`
        // candidates, so a frame whose memoized best sits on another way
        // keeps its exact best (and an all-blocked frame stays blocked:
        // only its own commits resolve deps).
        self.frame_best[fi] = None;
        for &other in &self.active {
            if let Some(Some((_, way, _))) = self.frame_best[other] {
                if way == a {
                    self.frame_best[other] = None;
                }
            }
        }
        let staging_cap = self.staging_cap();
        // Copy the committed task's cost scalars out first so the frame
        // can be mutably borrowed below.
        let (dur, occ, style, energy) = {
            let cost = &self.frames[fi]
                .as_ref()
                .expect("commit targets an in-flight frame")
                .costs[t.0];
            (
                cost.latency_s,
                cost.buffer.occupancy_bytes(staging_cap),
                cost.style,
                cost.energy,
            )
        };
        let fin = start + dur;
        self.intervals.push((start, fin, occ));
        self.live_occ_bound += occ;
        // Incremental occupancy sweep: retire intervals finishing at or
        // before this start (half-open semantics: an interval is free at
        // its finish instant), then account the new one.
        while let Some(&Reverse((fb, o))) = self.mem_events.peek() {
            if f64::from_bits(fb) <= start {
                self.current_occ -= o;
                self.mem_events.pop();
            } else {
                break;
            }
        }
        self.current_occ += occ;
        self.mem_events.push(Reverse((fin.to_bits(), occ)));
        // Pruned intervals may linger in the heap, but prune's cut never
        // exceeds a future commit start, so they are always swept before
        // the occupancy is read — the sweep matches the full scan.
        debug_assert_eq!(self.current_occ, occupancy_at(start, &self.intervals));
        self.peak_mem = self.peak_mem.max(self.current_occ);
        self.acc_free[a] = fin;

        let frame = self.frames[fi]
            .as_mut()
            .expect("commit targets an in-flight frame");
        frame.finish[t.0] = Some(fin);
        frame.head[a] += 1;
        frame.remaining -= 1;
        frame.energy = frame.energy.plus(&energy);
        frame.entries.push(ScheduleEntry {
            task: t,
            acc: a,
            start_s: start,
            finish_s: fin,
            style,
            energy_j: energy.total_j(),
        });
        self.remaining_total -= 1;

        self.per_acc[a].layers += 1;
        self.per_acc[a].busy_s += dur;
        self.per_acc[a].finish_s = fin;
        self.per_acc[a].energy_j += energy.total_j();
        self.energy = self.energy.plus(&energy);
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
        // Recycle the slot and the frame's scratch buffers; the entry
        // buffer travels with the result (the caller may hand it back via
        // `recycle_entries`).
        self.active.retain(|&i| i != frame);
        self.frame_best[frame] = None;
        self.free.push(frame);
        self.head_pool.push(f.head);
        self.finish_pool.push(f.finish);
        let mut entries = f.entries;
        entries.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        let finish_s = entries
            .iter()
            .map(|e| e.finish_s)
            .fold(f.arrival_s, f64::max);
        FrameResult {
            arrival_s: f.arrival_s,
            finish_s,
            entries,
            energy: f.energy,
        }
    }

    /// Drops committed memory intervals that can no longer influence any
    /// future feasibility query. Every candidate's probed start is at
    /// least its frame's arrival, and every frame the caller will still
    /// admit arrives at or after `now` (the caller's current event
    /// time), so intervals finishing at or before
    /// `min(now, earliest incomplete arrival)` are dead weight — pruning
    /// them is exact, not an approximation. `now` also keeps intervals
    /// of still-*running* layers alive when every admitted frame happens
    /// to be fully committed.
    pub(crate) fn prune_intervals(&mut self, now: f64) {
        let cut = self
            .active
            .iter()
            .filter_map(|&fi| self.frames[fi].as_ref())
            .filter(|f| f.remaining > 0)
            .map(|f| f.arrival_s)
            .fold(now, f64::min);
        self.intervals.retain(|(_, f, _)| *f > cut);
        self.live_occ_bound = self.intervals.iter().map(|(_, _, o)| o).sum();
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
pub(crate) fn occupancy_at(t: f64, intervals: &[(f64, f64, u64)]) -> u64 {
    intervals
        .iter()
        .filter(|(s, f, _)| *s <= t && t < *f)
        .map(|(_, _, occ)| occ)
        .sum()
}

/// The earliest time `>= ready` at which `occ` extra bytes fit under the
/// global-buffer capacity, stepping across interval finish events.
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
    fn pruning_keeps_running_intervals_when_all_frames_committed() {
        // Regression: a fully *committed* frame can still have layers
        // executing past the caller's current time; their memory
        // intervals must survive pruning so a later-admitted frame sees
        // the occupancy.
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
        let mut core = EventCore::new(&acc, &cost, Metric::Edp);
        core.admit(
            GraphRef::Borrowed(&graph),
            ScheduleRef::Borrowed(&schedule),
            0.0,
        )
        .unwrap();
        core.run_until(f64::INFINITY).unwrap();
        let n = core.intervals.len();
        assert!(n > 0);
        let last_finish = core
            .intervals
            .iter()
            .map(|(_, f, _)| *f)
            .fold(0.0, f64::max);
        // All frames are committed, but at `now` before the last finish
        // those intervals are still live: they must be retained.
        core.prune_intervals(last_finish / 2.0);
        assert!(
            core.intervals
                .iter()
                .all(|(_, f, _)| *f > last_finish / 2.0),
            "only dead intervals pruned"
        );
        assert!(!core.intervals.is_empty());
        // Past the last finish everything is prunable.
        core.prune_intervals(last_finish + 1.0);
        assert!(core.intervals.is_empty());
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
}
