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
//! The global-buffer constraint needs no interval history. Each
//! sub-accelerator (a *way*) runs its tasks back to back, and no commit
//! starts before the clock, so every interval but the last one on each
//! way has finished by the clock. At or after the clock the buffer
//! therefore holds exactly the last interval of each way that has not
//! yet finished: [`occupancy_after`] and [`memory_floor`] answer in
//! O(ways) what [`earliest_memory_feasible`] answers over the full
//! interval list. Debug builds keep that list as the oracle for the
//! asserts.

use crate::exec::{AccSummary, ExecutionReport, Schedule, ScheduleEntry, SimError};
use crate::task::{TaskGraph, TaskId};
use herald_arch::AcceleratorConfig;
use herald_cost::{CostModel, EnergyBreakdown, LayerCost, Metric};
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
    /// Per-frame best candidate `(ready, way, task)` ranked by *ready*
    /// time (first way wins ties), parallel to `frames`. Outer `None` =
    /// stale, `Some(None)` = every queue head blocked. Ready times never
    /// depend on buffer occupancy, so an entry only goes stale when its
    /// own frame commits (heads/deps change) or any frame commits on the
    /// entry's way (`acc_free` moves); other commits leave it exact.
    frame_best: Vec<Option<Option<(f64, usize, TaskId)>>>,
    /// Max single-task occupancy over every admission so far (monotone,
    /// conservative). When the tournament winner's ready time `r` is at
    /// or after `clock` and `occupancy(r) + occ_cap` fits the buffer,
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
        let ways = acc.sub_accelerators().len();
        Self {
            acc,
            cost,
            metric,
            acc_free: vec![0.0; ways],
            way_occ: vec![0; ways],
            clock: 0.0,
            #[cfg(debug_assertions)]
            intervals: Vec::new(),
            best_cache: None,
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
        debug_assert!(
            arrival_s >= self.clock,
            "frame arrives at {arrival_s}, before the clock {}",
            self.clock
        );
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
    /// A tournament over the per-frame `frame_best` memos (ranked by
    /// ready) runs first; only the frames invalidated by the last commit
    /// are rescanned. Let `r` be its winner's ready time. Every other
    /// candidate is ready at or after `r`, and occupancy only falls after
    /// the clock, so when `r` is at or after the clock and
    /// `occupancy(r) + occ_cap` fits the buffer, every candidate's
    /// feasible start *is* its ready time. The tournament winner is then
    /// the flat scan's winner, ties included: both resolve them
    /// first-found in (admission order, way order). Otherwise the exact
    /// flat scan runs.
    fn select_best(&mut self) -> Option<(f64, usize, usize, TaskId)> {
        let best = match self.tournament() {
            Some((r, ..))
                if r < self.clock
                    || occupancy_after(r, &self.acc_free, &self.way_occ) + self.occ_cap
                        > self.acc.global_buffer_bytes() =>
            {
                self.select_best_scan()
            }
            best => best,
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(best, self.select_best_reference());
        best
    }

    /// The earliest-ready queue head over every frame, through the
    /// `frame_best` memos.
    fn tournament(&mut self) -> Option<(f64, usize, usize, TaskId)> {
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

    /// The exact flat candidate scan, the fallback under memory pressure:
    /// each candidate starts at `max(ready, memory_floor(occ))`.
    fn select_best_scan(&self) -> Option<(f64, usize, usize, TaskId)> {
        let gb = self.acc.global_buffer_bytes();
        self.scan(|ready, occ| {
            ready.max(memory_floor(
                self.clock,
                occ,
                gb,
                &self.acc_free,
                &self.way_occ,
            ))
        })
    }

    /// The flat scan under the full-interval semantics: each candidate
    /// starts at [`earliest_memory_feasible`] over the debug interval
    /// log. While the whole log plus the candidate fits the buffer, that
    /// query's first probe succeeds, so it is skipped.
    #[cfg(debug_assertions)]
    fn select_best_reference(&self) -> Option<(f64, usize, usize, TaskId)> {
        let gb = self.acc.global_buffer_bytes();
        let logged: u64 = self.intervals.iter().map(|(_, _, o)| o).sum();
        self.scan(|ready, occ| {
            if logged + occ <= gb {
                ready
            } else {
                earliest_memory_feasible(ready, occ, gb, &self.intervals)
            }
        })
    }

    /// The ready queue head with the earliest start, where `start_at`
    /// maps a candidate's `(ready, occupancy_bytes)` to its start. Costs
    /// come from each frame's precomputed table — the scan clones
    /// nothing.
    fn scan(&self, start_at: impl Fn(f64, u64) -> f64) -> Option<(f64, usize, usize, TaskId)> {
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

    /// [`EventCore::select_best`] through the memo: reuses the last scan
    /// when nothing that can change its outcome happened since.
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
        let mut core = EventCore::new(&acc, &cost, Metric::Edp);
        core.admit(
            GraphRef::Borrowed(&graph),
            ScheduleRef::Borrowed(&schedule),
            0.0,
        )
        .unwrap();
        core.run_until(f64::INFINITY).unwrap();
        // The full timeline, rebuilt from the frame's entries.
        let costs = build_cost_table(&graph, &schedule, &acc, &cost, Metric::Edp);
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
}
