//! The streaming scenario driver: turns a [`Scenario`] into a timed event
//! trace (frame arrivals, workload swaps) and pushes it through the
//! shared [`EventCore`], making an online scheduling decision at every
//! frame arrival and at every workload-change event.
//!
//! Scheduling is **incremental** by default: each stream dirty-tracks
//! one compiled schedule for its current workload, so a frame arrival
//! only admits the new frame's tasks against the core's cached occupancy
//! state — the full scheduler runs once per distinct (stream, workload
//! version), and a workload swap invalidates exactly the affected
//! stream's compiled schedule. Because the scheduler is a pure function
//! of (graph, accelerator, cost model), the incremental path is
//! bit-identical to re-running the scheduler at every arrival;
//! [`ReschedulePolicy::FullReschedule`] forces that full path for
//! equivalence checks and baseline measurements. Under either policy a
//! run interns one (schedule, cost table) pair per distinct workload, so
//! streams that share a model share its cost table.

use crate::ctx::{EvalContext, EvalStats};
use crate::error::HeraldError;
use crate::sched::Scheduler;
use crate::sim::core::{build_cost_table, CostTable, EventCore, GraphRef, ScheduleRef};
use crate::sim::profile::HotPathProfile;
use crate::sim::report::{
    ArrivalWindow, BusySpan, FrameRecord, QuantileSketch, ReportMode, StreamAgg, StreamReport,
    SwapRecord,
};
use crate::task::TaskGraph;
use herald_arch::AcceleratorConfig;
use herald_cost::{CostModel, Metric};
use herald_workloads::{ArrivalProcess, MultiDnnWorkload, Scenario, StreamSpec};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Fixed number of arrival/utilization windows a sketch-mode report
/// keeps over the scenario horizon (each window is `horizon / 128`
/// seconds; utilization windows grow past the horizon to cover the
/// makespan).
pub(crate) const SKETCH_WINDOWS: usize = 128;

/// Default cap on events admitted against one commit window (see
/// [`StreamSimulator::with_admission_batch`]).
pub const DEFAULT_ADMISSION_BATCH: usize = 32;

/// How the streaming engine reacts to frame arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReschedulePolicy {
    /// Reuse each stream's compiled schedule until its workload changes
    /// (bit-identical to full rescheduling; the default).
    #[default]
    Incremental,
    /// Re-run the scheduler at every frame arrival (the historical
    /// behavior) — the baseline the incremental path is measured
    /// against.
    FullReschedule,
}

/// An event-driven streaming simulator over one accelerator.
///
/// Where [`crate::exec::ScheduleSimulator`] replays one pre-built schedule
/// for one frame, this simulator consumes a whole [`Scenario`]: it
/// generates frame arrivals per stream, instantiates a task graph per
/// frame, makes an online scheduling decision at each arrival (and at
/// each workload swap, modeling the runtime recompiling when the
/// deployed workload changes), and lets the shared event core interleave
/// all in-flight frames under the Sec. IV-A execution model.
///
/// Under the default [`ReschedulePolicy::Incremental`] the full
/// scheduler compiles once per distinct (stream, workload version) and
/// every later arrival of that stream reuses the compiled schedule — a
/// pure cache of the deterministic scheduler, so results are
/// bit-identical to [`ReschedulePolicy::FullReschedule`] while doing a
/// fraction of the placement work (see
/// [`StreamReport::placement_evaluations`] and
/// [`StreamReport::schedule_cache_hit_rate`]).
///
/// # Example
///
/// ```
/// use herald_arch::{AcceleratorClass, AcceleratorConfig};
/// use herald_core::sched::HeraldScheduler;
/// use herald_core::sim::StreamSimulator;
/// use herald_cost::CostModel;
/// use herald_dataflow::DataflowStyle;
/// use herald_workloads::{Scenario, StreamSpec};
///
/// let workload = herald_workloads::single_model(herald_models::zoo::mobilenet_v1(), 1);
/// let scenario = Scenario::new("demo", 0.05)
///     .stream(StreamSpec::periodic("cam", workload, 60.0).with_deadline(0.1));
/// let acc = AcceleratorConfig::fda(
///     DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
/// let cost = CostModel::default();
/// let report = StreamSimulator::new(&acc, &cost)
///     .simulate(&HeraldScheduler::default(), &scenario)
///     .unwrap();
/// assert_eq!(report.frames().len(), 3); // arrivals at 0, 1/60, 2/60
/// ```
#[derive(Debug)]
pub struct StreamSimulator<'a> {
    acc: &'a AcceleratorConfig,
    cost: &'a CostModel,
    metric: Metric,
    policy: ReschedulePolicy,
    ctx: Option<&'a EvalContext>,
    admission_batch: usize,
    report: ReportMode,
}

/// One generated event of the trace (shared with the fleet dispatch
/// walk, which must see the exact events this engine replays).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EventKind {
    /// A workload swap (processed before a same-instant arrival so the
    /// arrival already sees the new workload).
    Swap {
        /// Index into the stream's swap list.
        swap_index: usize,
    },
    /// A frame arrival.
    Arrival {
        /// Sequence number within the stream (0-based).
        seq: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Event {
    pub(crate) t: f64,
    pub(crate) stream: usize,
    pub(crate) kind: EventKind,
}

impl Event {
    /// Deterministic total order: time, then swaps before arrivals, then
    /// stream index.
    fn key(&self) -> (f64, u8, usize) {
        let kind_rank = match self.kind {
            EventKind::Swap { .. } => 0,
            EventKind::Arrival { .. } => 1,
        };
        (self.t, kind_rank, self.stream)
    }
}

/// Heap entry ordering events by [`Event::key`] (`total_cmp` on time, so
/// `-0.0`/`0.0` order exactly as the materialized sort did).
struct ByKey(Event);

impl PartialEq for ByKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for ByKey {}

impl PartialOrd for ByKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (ta, ka, sa) = self.0.key();
        let (tb, kb, sb) = other.0.key();
        ta.total_cmp(&tb).then(ka.cmp(&kb)).then(sa.cmp(&sb))
    }
}

/// One stream's lazy event source: a pull-based [`seeded::arrival_iter`]
/// plus a cursor over the stream's swap list (indices with
/// `at_s < horizon`, stably pre-sorted by time so they surface exactly
/// where the materialized trace's stable sort placed them). Events are
/// emitted in key order — a swap at or before the pending arrival goes
/// first, matching the swaps-before-arrivals tiebreak.
struct StreamCursor<'a> {
    arrivals: herald_workloads::seeded::ArrivalIter<'a>,
    pending_arrival: Option<f64>,
    next_seq: usize,
    swaps: &'a [herald_workloads::WorkloadSwap],
    swap_order: Vec<usize>,
    next_swap: usize,
}

impl<'a> StreamCursor<'a> {
    fn new(spec: &'a StreamSpec, horizon_s: f64) -> Self {
        let swaps = spec.swaps();
        let mut swap_order: Vec<usize> = (0..swaps.len())
            .filter(|&i| swaps[i].at_s < horizon_s)
            .collect();
        // Stable: equal-time swaps of one stream keep list order, as the
        // stable global sort kept them.
        swap_order.sort_by(|&a, &b| swaps[a].at_s.total_cmp(&swaps[b].at_s));
        let mut arrivals = herald_workloads::seeded::arrival_iter(spec.arrival(), horizon_s);
        let pending_arrival = arrivals.next();
        Self {
            arrivals,
            pending_arrival,
            next_seq: 0,
            swaps,
            swap_order,
            next_swap: 0,
        }
    }

    fn emit_swap(&mut self, stream: usize) -> Option<Event> {
        let swap_index = self.swap_order[self.next_swap];
        self.next_swap += 1;
        Some(Event {
            t: self.swaps[swap_index].at_s,
            stream,
            kind: EventKind::Swap { swap_index },
        })
    }

    fn next_event(&mut self, stream: usize) -> Option<Event> {
        let swap_t = self
            .swap_order
            .get(self.next_swap)
            .map(|&i| self.swaps[i].at_s);
        match (self.pending_arrival, swap_t) {
            (Some(at), Some(st)) if st.total_cmp(&at).is_le() => self.emit_swap(stream),
            (Some(at), _) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.pending_arrival = self.arrivals.next();
                Some(Event {
                    t: at,
                    stream,
                    kind: EventKind::Arrival { seq },
                })
            }
            (None, Some(_)) => self.emit_swap(stream),
            (None, None) => None,
        }
    }
}

/// The scenario's full event trace as a lazy k-way merge: one
/// [`StreamCursor`] per stream, at most one candidate event each in a
/// min-heap keyed by [`Event::key`]. Yields exactly the sequence the
/// materialized `build_trace` + stable sort produced — each cursor emits
/// its own events in key order, cross-stream ties differ in the stream
/// component, and within-stream ties never coexist in the heap — while
/// holding O(streams) memory instead of O(total events).
pub(crate) struct MergedTrace<'a> {
    cursors: Vec<StreamCursor<'a>>,
    heap: BinaryHeap<Reverse<ByKey>>,
}

impl<'a> MergedTrace<'a> {
    pub(crate) fn new(scenario: &'a Scenario) -> Self {
        let horizon = scenario.horizon_s();
        let mut cursors: Vec<StreamCursor<'a>> = scenario
            .streams()
            .iter()
            .map(|s| StreamCursor::new(s, horizon))
            .collect();
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (si, cursor) in cursors.iter_mut().enumerate() {
            if let Some(event) = cursor.next_event(si) {
                heap.push(Reverse(ByKey(event)));
            }
        }
        Self { cursors, heap }
    }
}

impl Iterator for MergedTrace<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        let Reverse(ByKey(event)) = self.heap.pop()?;
        if let Some(next) = self.cursors[event.stream].next_event(event.stream) {
            self.heap.push(Reverse(ByKey(next)));
        }
        Some(event)
    }
}

/// A fleet-routed slice of a scenario: the frames one chip received from
/// the dispatch walk, as a flat `(arrival time, global stream)` list in
/// dispatch order (which **is** global event-key order restricted to
/// this chip), plus the full stream table for workloads, deadlines and
/// swaps. Replaces the per-segment sub-`Scenario` with per-stream
/// `Vec<f64>` traces — one flat allocation per chip instead of
/// O(streams) vectors — while replaying bit-identically.
pub(crate) struct RoutedScenario<'a> {
    pub(crate) name: &'a str,
    pub(crate) horizon_s: f64,
    pub(crate) streams: &'a [StreamSpec],
    pub(crate) stream_names: Arc<Vec<String>>,
    pub(crate) arrivals: &'a [(f64, u32)],
}

/// Lazy event source over a [`RoutedScenario`]: two-pointer merge of the
/// (already key-sorted) routed arrival list with the (pre-sorted) swap
/// events, assigning per-stream local sequence numbers in emission order
/// — exactly the numbering the old sub-`Scenario` trace replay produced.
struct RoutedTraceIter<'a> {
    arrivals: &'a [(f64, u32)],
    next_arrival: usize,
    seqs: Vec<usize>,
    swaps: Vec<Event>,
    next_swap: usize,
}

impl<'a> RoutedTraceIter<'a> {
    fn new(routed: &RoutedScenario<'a>) -> Self {
        let mut swaps = Vec::new();
        for (si, spec) in routed.streams.iter().enumerate() {
            for (swap_index, swap) in spec.swaps().iter().enumerate() {
                if swap.at_s < routed.horizon_s {
                    swaps.push(Event {
                        t: swap.at_s,
                        stream: si,
                        kind: EventKind::Swap { swap_index },
                    });
                }
            }
        }
        swaps.sort_by(|a, b| {
            let (ta, ka, sa) = a.key();
            let (tb, kb, sb) = b.key();
            ta.total_cmp(&tb).then(ka.cmp(&kb)).then(sa.cmp(&sb))
        });
        Self {
            arrivals: routed.arrivals,
            next_arrival: 0,
            seqs: vec![0; routed.streams.len()],
            swaps,
            next_swap: 0,
        }
    }
}

impl Iterator for RoutedTraceIter<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        let arrival = self.arrivals.get(self.next_arrival).copied();
        let swap = self.swaps.get(self.next_swap).copied();
        let take_swap = match (arrival, swap) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            // A swap at the arrival's instant goes first (kind rank 0);
            // at different instants, plain time order.
            (Some((at, _)), Some(s)) => s.t.total_cmp(&at).is_le(),
        };
        if take_swap {
            self.next_swap += 1;
            return swap;
        }
        let (t, stream) = arrival.expect("checked above");
        let stream = stream as usize;
        self.next_arrival += 1;
        let seq = self.seqs[stream];
        self.seqs[stream] += 1;
        Some(Event {
            t,
            stream,
            kind: EventKind::Arrival { seq },
        })
    }
}

/// A compiled (schedule, cost table) pair: everything a frame admission
/// needs, shareable across every arrival of every stream compiled to the
/// same schedule by two pointer bumps.
#[derive(Clone)]
struct CompiledSchedule {
    schedule: Arc<crate::sched::Schedule>,
    costs: CostTable,
}

/// One distinct workload of a run, interned by structure: streams, token
/// buckets and swap targets instantiated from a shared workload build and
/// fingerprint one graph, and share one compiled schedule.
struct InternedWorkload<'w> {
    workload: &'w MultiDnnWorkload,
    graph: Arc<TaskGraph>,
    /// Interned workload name, shared with every frame/swap record (an
    /// `Arc<str>` bump per event, not a `String` clone).
    name: Arc<str>,
    /// The first schedule compiled for `graph` in this run, with its cost
    /// table. The chip, cost model, metric and scheduler are fixed for a
    /// run, so the run-local workload index is a complete key: a
    /// deterministic scheduler hands back an equal schedule on every later
    /// compile, which [`compile`] then serves from here.
    compiled: Option<CompiledSchedule>,
}

/// One compiled-schedule slot of a chained stream's per-token workload
/// table: tokens sharing a KV bucket share the slot (and its
/// dirty-tracked schedule); distinct buckets compile independently.
struct TokenSlot {
    /// Index into the run's interned workloads.
    workload: usize,
    compiled: Option<CompiledSchedule>,
}

/// Per-stream mutable state while the trace plays out.
struct StreamState {
    /// Index into the run's interned workloads (the current version).
    workload: usize,
    deadline_s: Option<f64>,
    /// The schedule (plus its per-task cost table) compiled for the
    /// stream's *current* workload — the dirty-tracked memo of the
    /// incremental policy, shared with every admitted frame (a cache
    /// hit is a pointer bump, not a clone). A workload swap replaces it
    /// (invalidating exactly this stream); under
    /// [`ReschedulePolicy::FullReschedule`] it only carries the eager
    /// swap recompile to the first post-swap arrival, which consumes
    /// it.
    compiled: Option<CompiledSchedule>,
    /// Distinct per-token workloads of a chained stream (empty for
    /// every other stream): token `seq` resolves its slot through
    /// `token_map`, so same-bucket tokens share one compiled schedule.
    token_slots: Vec<TokenSlot>,
    /// `token_map[seq]` indexes into `token_slots`; empty when the
    /// stream carries no per-token workloads.
    token_map: Vec<usize>,
}

/// Interns one workload by structure and returns its run-local index:
/// streams (and token buckets, and swap targets) instantiated from a
/// shared workload build and fingerprint a single graph, not one per
/// user.
fn intern_workload<'w>(
    w: &'w MultiDnnWorkload,
    interned: &mut Vec<InternedWorkload<'w>>,
    profile: &mut HotPathProfile,
) -> usize {
    if let Some(i) = interned.iter().position(|iw| iw.workload.same_structure(w)) {
        return i;
    }
    let graph = Arc::new(TaskGraph::new(w));
    // The "precalculated" memo tier: fingerprint each distinct graph up
    // front so per-arrival memo probes only hash the short
    // accelerator/scheduler/cost tail.
    graph.structural_fingerprint();
    profile.precomputed_graph_fingerprints += 1;
    interned.push(InternedWorkload {
        workload: w,
        graph,
        name: Arc::from(w.name()),
        compiled: None,
    });
    interned.len() - 1
}

/// Runs one online compile and classifies it for the report: a
/// context-aware scheduler (e.g. [`crate::sched::IncrementalScheduler`])
/// may serve the request from its cross-call memo, which counts as a
/// cache hit rather than a fresh compile. The scheduler reports the
/// distinction in-band ([`Scheduler::schedule_tracked`]), so the
/// classification stays correct even when several threads record into
/// one shared [`EvalContext`] concurrently.
///
/// The scheduler is always called; only the cost table is interned. A
/// schedule equal to the workload's interned one is served as the
/// interned (schedule, cost table) pair. Any other schedule (only a
/// non-deterministic scheduler returns one) builds its own table, and the
/// first compile of a workload becomes its interned pair.
#[allow(clippy::too_many_arguments)]
fn compile<S: Scheduler>(
    scheduler: &S,
    workload: &mut InternedWorkload<'_>,
    acc: &AcceleratorConfig,
    cost: &CostModel,
    metric: Metric,
    stats: &EvalStats,
    invocations: &mut usize,
    cache_hits: &mut usize,
    profile: &mut HotPathProfile,
) -> Result<CompiledSchedule, HeraldError> {
    let (schedule, memo_hit) = scheduler.schedule_tracked(&workload.graph, acc, cost, stats)?;
    if memo_hit {
        *cache_hits += 1;
    } else {
        *invocations += 1;
    }
    if let Some(interned) = &workload.compiled {
        if *interned.schedule == schedule {
            return Ok(interned.clone());
        }
    }
    let costs = build_cost_table(&workload.graph, &schedule, acc, cost, metric);
    profile.cost_tables_built += 1;
    profile.cost_table_entries += costs.len() as u64;
    let compiled = CompiledSchedule {
        schedule: Arc::new(schedule),
        costs,
    };
    if workload.compiled.is_none() {
        workload.compiled = Some(compiled.clone());
    }
    Ok(compiled)
}

/// Which source holds the globally next event: the lazy spec-derived
/// trace or the heap of engine-injected chained arrivals. `None` when
/// both are exhausted; ties break by the full [`Event::key`] order with
/// injected events first on exact key equality (which cannot occur —
/// a chained stream's trace carries only its seq-0 start).
fn next_is_injected<I: Iterator<Item = Event>>(
    trace: &mut std::iter::Peekable<I>,
    injected: &BinaryHeap<Reverse<ByKey>>,
) -> Option<bool> {
    match (trace.peek(), injected.peek()) {
        (None, None) => None,
        (None, Some(_)) => Some(true),
        (Some(_), None) => Some(false),
        (Some(e), Some(Reverse(ByKey(i)))) => {
            let (ti, ki, si) = i.key();
            let (te, ke, se) = e.key();
            Some(
                ti.total_cmp(&te)
                    .then(ki.cmp(&ke))
                    .then(si.cmp(&se))
                    .is_le(),
            )
        }
    }
}

/// Metadata of an admitted frame, joined with the core's timeline once
/// the frame completes.
struct PendingFrame {
    handle: usize,
    stream: usize,
    seq: usize,
    workload: Arc<str>,
    deadline_s: Option<f64>,
}

/// Mode-dispatched frame accumulation: exact mode retains every record
/// and busy span; sketch mode folds each completion into the quantile
/// sketch, its stream's [`StreamAgg`], and the fixed arrival/utilization
/// windows, keeping only sampled exemplar records.
struct Collector {
    mode: ReportMode,
    completed: u64,
    frames: Vec<FrameRecord>,
    busy_spans: Vec<BusySpan>,
    sketch: QuantileSketch,
    aggs: Vec<StreamAgg>,
    window_s: f64,
    ways: usize,
    util_windows: Vec<f64>,
    miss_windows: Vec<ArrivalWindow>,
    sample_every: usize,
}

impl Collector {
    fn new(mode: ReportMode, streams: usize, ways: usize, horizon_s: f64) -> Self {
        let (sketch, aggs, window_s, sample_every) = match mode {
            ReportMode::Exact => (QuantileSketch::default(), Vec::new(), 0.0, 0),
            ReportMode::Sketch {
                relative_error,
                sample_every,
            } => (
                QuantileSketch::new(relative_error),
                vec![StreamAgg::default(); streams],
                horizon_s / SKETCH_WINDOWS as f64,
                sample_every,
            ),
        };
        Self {
            mode,
            completed: 0,
            frames: Vec::new(),
            busy_spans: Vec::new(),
            sketch,
            aggs,
            window_s,
            ways,
            util_windows: Vec::new(),
            miss_windows: Vec::new(),
            sample_every,
        }
    }

    fn record(
        &mut self,
        p: &PendingFrame,
        arrival_s: f64,
        finish_s: f64,
        energy_j: f64,
        spans: impl Iterator<Item = (usize, f64, f64)>,
    ) {
        self.completed += 1;
        let latency_s = finish_s - arrival_s;
        let missed = p.deadline_s.is_some_and(|d| latency_s > d);
        let record = |frames: &mut Vec<FrameRecord>| {
            frames.push(FrameRecord {
                stream: p.stream,
                seq: p.seq,
                workload: Arc::clone(&p.workload),
                arrival_s,
                finish_s,
                latency_s,
                deadline_s: p.deadline_s,
                missed,
                energy_j,
            });
        };
        if self.mode.is_exact() {
            record(&mut self.frames);
            self.busy_spans
                .extend(spans.map(|(acc, start_s, finish_s)| BusySpan {
                    acc,
                    start_s,
                    finish_s,
                }));
            return;
        }
        self.sketch.insert(latency_s);
        self.aggs[p.stream].record(latency_s, p.deadline_s.is_some(), missed);
        if self.window_s > 0.0 {
            let w = (arrival_s / self.window_s) as usize;
            if w >= self.miss_windows.len() {
                self.miss_windows.resize(w + 1, ArrivalWindow::default());
            }
            let win = &mut self.miss_windows[w];
            win.frames += 1;
            win.latency_sum_s += latency_s;
            if p.deadline_s.is_some() {
                win.deadline_frames += 1;
                if missed {
                    win.missed += 1;
                }
            }
            for (acc, start_s, span_finish_s) in spans {
                let first = (start_s / self.window_s) as usize;
                let last = (span_finish_s / self.window_s) as usize;
                if (last + 1) * self.ways > self.util_windows.len() {
                    self.util_windows.resize((last + 1) * self.ways, 0.0);
                }
                for k in first..=last {
                    let lo = k as f64 * self.window_s;
                    let hi = lo + self.window_s;
                    let overlap = (span_finish_s.min(hi) - start_s.max(lo)).max(0.0);
                    if overlap > 0.0 {
                        self.util_windows[k * self.ways + acc] += overlap;
                    }
                }
            }
        }
        if self.sample_every > 0 && (self.completed - 1).is_multiple_of(self.sample_every as u64) {
            record(&mut self.frames);
        }
    }
}

impl<'a> StreamSimulator<'a> {
    /// Creates a streaming simulator with the default (EDP) metric for
    /// reconfigurable-array style selection.
    pub fn new(acc: &'a AcceleratorConfig, cost: &'a CostModel) -> Self {
        Self {
            acc,
            cost,
            metric: Metric::Edp,
            policy: ReschedulePolicy::default(),
            ctx: None,
            admission_batch: DEFAULT_ADMISSION_BATCH,
            report: ReportMode::Exact,
        }
    }

    /// Chooses how the report aggregates frames:
    /// [`ReportMode::Exact`] (default) keeps every frame record and busy
    /// span; [`ReportMode::Sketch`] streams them through a quantile
    /// sketch plus per-stream aggregates in O(buckets + streams) memory.
    /// Scalar results (throughput, miss rates, makespan, energy) are
    /// identical across modes; percentiles differ only within the
    /// sketch's configured relative error.
    #[must_use]
    pub fn with_report_mode(mut self, mode: ReportMode) -> Self {
        self.report = mode;
        self
    }

    /// Caps how many trace events may be admitted against one commit
    /// window of the core (default [`DEFAULT_ADMISSION_BATCH`]). A batch
    /// only ever extends while the next event lands at or before the
    /// core's next pending commit, so any cap — including `1`, which
    /// reproduces the historical event-at-a-time walk — yields
    /// bit-identical results; the cap only bounds how much admission
    /// work a single window may accumulate.
    #[must_use]
    pub fn with_admission_batch(mut self, cap: usize) -> Self {
        self.admission_batch = cap.max(1);
        self
    }

    /// Overrides the metric used when a reconfigurable sub-accelerator
    /// picks its per-layer dataflow.
    #[must_use]
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Overrides the rescheduling policy (incremental by default).
    #[must_use]
    pub fn with_policy(mut self, policy: ReschedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Records scheduling work into a shared [`EvalContext`]'s counters
    /// (and lets context-aware schedulers reuse its memos). Without a
    /// context the engine counts into a run-local scratch instance, so
    /// the report's counters are populated either way.
    #[must_use]
    pub fn with_context(mut self, ctx: &'a EvalContext) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Runs the scenario to completion: every frame arriving before the
    /// horizon is simulated until its last layer finishes.
    ///
    /// Given equal inputs the result is bit-for-bit reproducible: arrival
    /// sampling is seeded, the event order is total, and the core commits
    /// deterministically.
    ///
    /// # Errors
    ///
    /// * [`HeraldError::Scenario`] — degenerate scenario (no streams,
    ///   non-positive horizon / rate / deadline, or an empty workload);
    /// * [`HeraldError::Simulation`] — the scheduler produced a schedule
    ///   the event core rejects (indicates a scheduler bug).
    pub fn simulate<S: Scheduler>(
        &self,
        scheduler: &S,
        scenario: &Scenario,
    ) -> Result<StreamReport, HeraldError> {
        self.run(scheduler, scenario, false)
            .map(|(report, _)| report)
    }

    /// [`StreamSimulator::simulate`] plus the run's [`HotPathProfile`].
    /// The report is bit-identical to the unprofiled entry point — the
    /// profile travels beside it, never inside, so report equality is
    /// unaffected by timing noise; profiling only adds the phase
    /// timers' clock reads.
    ///
    /// # Errors
    ///
    /// As for [`StreamSimulator::simulate`].
    pub fn simulate_profiled<S: Scheduler>(
        &self,
        scheduler: &S,
        scenario: &Scenario,
    ) -> Result<(StreamReport, HotPathProfile), HeraldError> {
        self.run(scheduler, scenario, true)
    }

    fn run<S: Scheduler>(
        &self,
        scheduler: &S,
        scenario: &Scenario,
        timed: bool,
    ) -> Result<(StreamReport, HotPathProfile), HeraldError> {
        validate_scenario(scenario)?;
        let stream_names = Arc::new(
            scenario
                .streams()
                .iter()
                .map(|s| s.name().to_string())
                .collect::<Vec<String>>(),
        );
        self.run_inner(
            scheduler,
            scenario.name(),
            scenario.horizon_s(),
            scenario.streams(),
            stream_names,
            MergedTrace::new(scenario),
            timed,
        )
    }

    /// Replays a fleet-routed arrival slice (already validated and
    /// dispatched by the fleet walk) through this engine. Bit-identical
    /// to building a per-stream `Trace` sub-scenario and calling
    /// [`StreamSimulator::simulate`], without materializing it.
    pub(crate) fn run_routed<S: Scheduler>(
        &self,
        scheduler: &S,
        routed: &RoutedScenario<'_>,
        timed: bool,
    ) -> Result<(StreamReport, HotPathProfile), HeraldError> {
        self.run_inner(
            scheduler,
            routed.name,
            routed.horizon_s,
            routed.streams,
            Arc::clone(&routed.stream_names),
            RoutedTraceIter::new(routed),
            timed,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_inner<S: Scheduler>(
        &self,
        scheduler: &S,
        name: &str,
        horizon_s: f64,
        specs: &[StreamSpec],
        stream_names: Arc<Vec<String>>,
        trace: impl Iterator<Item = Event>,
        timed: bool,
    ) -> Result<(StreamReport, HotPathProfile), HeraldError> {
        let mut profile = HotPathProfile::default();

        // Intern workloads by structure: a million streams instantiated
        // from a handful of shared workloads build (and fingerprint) one
        // graph and one cost table per distinct workload, not per
        // stream. Each stream still tracks its own compiled schedule and
        // calls the scheduler exactly as often, so compile/cache-hit
        // counts are unchanged.
        let mut interned: Vec<InternedWorkload<'_>> = Vec::new();
        let mut streams: Vec<StreamState> = Vec::with_capacity(specs.len());
        for s in specs {
            let workload = intern_workload(s.workload(), &mut interned, &mut profile);
            let mut token_slots: Vec<TokenSlot> = Vec::new();
            let mut token_map: Vec<usize> = Vec::with_capacity(s.token_workloads().len());
            for tw in s.token_workloads() {
                let w = intern_workload(tw, &mut interned, &mut profile);
                let slot = match token_slots.iter().position(|slot| slot.workload == w) {
                    Some(i) => i,
                    None => {
                        token_slots.push(TokenSlot {
                            workload: w,
                            compiled: None,
                        });
                        token_slots.len() - 1
                    }
                };
                token_map.push(slot);
            }
            streams.push(StreamState {
                workload,
                deadline_s: s.deadline_s(),
                compiled: None,
                token_slots,
                token_map,
            });
        }

        let mut core = EventCore::new(self.acc, self.cost, self.metric);
        let mut pending: Vec<PendingFrame> = Vec::new();
        let ways = core.per_acc().len();
        let mut col = Collector::new(self.report, specs.len(), ways, horizon_s);
        let mut swaps: Vec<SwapRecord> = Vec::new();
        let mut scheduler_invocations = 0usize;
        let mut schedule_cache_hits = 0usize;
        let mut events_processed = 0usize;
        let local_stats = EvalStats::default();
        let stats: &EvalStats = match self.ctx {
            Some(ctx) => ctx.stats(),
            None => &local_stats,
        };
        let placement_before = stats.placement_evals();
        let stats_before = stats.snapshot();
        let mut makespan = horizon_s;

        // Autoregressive chains: token `seq + 1` of a chained stream is
        // *injected* by the engine `gap_s` after token `seq` completes —
        // its arrival time is a function of the schedule, so no
        // spec-derived trace can carry it. Chain-free scenarios leave
        // the heap empty and every chain check false, taking exactly
        // the historical code path.
        let chained: Vec<Option<(f64, usize)>> = specs
            .iter()
            .map(|s| match *s.arrival() {
                ArrivalProcess::Chained { gap_s, tokens, .. } => Some((gap_s, tokens)),
                _ => None,
            })
            .collect();
        let has_chained = chained.iter().any(Option::is_some);
        let mut injected: BinaryHeap<Reverse<ByKey>> = BinaryHeap::new();

        let harvest = |core: &mut EventCore<'_>,
                       pending: &mut Vec<PendingFrame>,
                       col: &mut Collector,
                       makespan: &mut f64,
                       injected: &mut BinaryHeap<Reverse<ByKey>>| {
            let mut i = 0;
            while i < pending.len() {
                let p = &pending[i];
                if !core.frame_done(p.handle) {
                    i += 1;
                    continue;
                }
                let p = pending.remove(i);
                let done = core.take_frame(p.handle);
                *makespan = makespan.max(done.finish_s);
                if let Some((gap_s, tokens)) = chained[p.stream] {
                    if p.seq + 1 < tokens {
                        injected.push(Reverse(ByKey(Event {
                            t: done.finish_s + gap_s,
                            stream: p.stream,
                            kind: EventKind::Arrival { seq: p.seq + 1 },
                        })));
                    }
                }
                col.record(
                    &p,
                    done.arrival_s,
                    done.finish_s,
                    done.energy.total_j(),
                    done.entries.iter().map(|e| (e.acc, e.start_s, e.finish_s)),
                );
                core.recycle_entries(done.entries);
            }
        };

        let mut trace = trace.peekable();
        loop {
            // Chain-safe stepping: while the core's next commit precedes
            // every known future event, advance commit by commit and
            // harvest, so a chained completion injects its successor
            // arrival before the core runs past it. Each commit made
            // here starts at or before `ncs <= bound`, and an injection
            // lands at `finish + gap > finish >= the committing start`,
            // so no injected arrival is ever discovered in the core's
            // past. Chain-free scenarios skip this entirely.
            if has_chained {
                loop {
                    let bound = match (trace.peek(), injected.peek()) {
                        (Some(e), Some(Reverse(ByKey(i)))) => e.t.min(i.t),
                        (Some(e), None) => e.t,
                        (None, Some(Reverse(ByKey(i)))) => i.t,
                        (None, None) => f64::INFINITY,
                    };
                    let Some(ncs) = core.next_commit_start() else {
                        break;
                    };
                    if ncs > bound {
                        break;
                    }
                    let t0 = timed.then(Instant::now);
                    core.run_until(ncs).map_err(HeraldError::Simulation)?;
                    if let Some(t0) = t0 {
                        profile.run_ns += t0.elapsed().as_nanos() as u64;
                    }
                    let t0 = timed.then(Instant::now);
                    harvest(
                        &mut core,
                        &mut pending,
                        &mut col,
                        &mut makespan,
                        &mut injected,
                    );
                    if let Some(t0) = t0 {
                        profile.harvest_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
            let Some(mut take_injected) = next_is_injected(&mut trace, &injected) else {
                break;
            };
            let window_t = if take_injected {
                let Some(Reverse(ByKey(e))) = injected.peek() else {
                    unreachable!("peeked above");
                };
                e.t
            } else {
                trace.peek().expect("peeked above").t
            };
            let t0 = timed.then(Instant::now);
            core.run_until(window_t).map_err(HeraldError::Simulation)?;
            if let Some(t0) = t0 {
                profile.run_ns += t0.elapsed().as_nanos() as u64;
            }
            let t0 = timed.then(Instant::now);
            harvest(
                &mut core,
                &mut pending,
                &mut col,
                &mut makespan,
                &mut injected,
            );
            if let Some(t0) = t0 {
                profile.harvest_ns += t0.elapsed().as_nanos() as u64;
            }
            // Batched admission: admit this event, then keep admitting
            // trace events while the next one lands at or before the
            // core's next pending commit — every skipped `run_until`
            // would have been a no-op, and same-instant ties break by
            // admission order exactly as in the event-at-a-time walk,
            // so any batch extent is bit-identical.
            profile.admission_batches += 1;
            let mut batch_events = 0usize;
            loop {
                let event = if take_injected {
                    let Reverse(ByKey(event)) = injected.pop().expect("peeked above");
                    event
                } else {
                    trace.next().expect("peeked above")
                };
                events_processed += 1;
                batch_events += 1;
                let stream = &mut streams[event.stream];
                match event.kind {
                    EventKind::Arrival { seq } => {
                        // The online scheduling decision for this frame.
                        // Incremental: serve the stream's dirty-tracked
                        // compiled schedule (compiling it on first use)
                        // and admit only the new frame's tasks against
                        // the core's cached occupancy. Full-reschedule:
                        // compile fresh at every arrival (a pending
                        // eager swap recompile is consumed by the first
                        // post-swap arrival, as the scheduler is
                        // deterministic).
                        let t0 = timed.then(Instant::now);
                        // A chained stream with per-token workloads
                        // resolves this token's slot (same-bucket tokens
                        // share the compiled schedule); every other
                        // stream uses its single dirty-tracked slot.
                        let (workload, compiled_slot) = if stream.token_map.is_empty() {
                            (stream.workload, &mut stream.compiled)
                        } else {
                            let slot = &mut stream.token_slots[stream.token_map[seq]];
                            (slot.workload, &mut slot.compiled)
                        };
                        let compiled = match self.policy {
                            ReschedulePolicy::Incremental => match &*compiled_slot {
                                Some(compiled) => {
                                    schedule_cache_hits += 1;
                                    compiled.clone()
                                }
                                None => {
                                    let compiled = compile(
                                        scheduler,
                                        &mut interned[workload],
                                        self.acc,
                                        self.cost,
                                        self.metric,
                                        stats,
                                        &mut scheduler_invocations,
                                        &mut schedule_cache_hits,
                                        &mut profile,
                                    )?;
                                    *compiled_slot = Some(compiled.clone());
                                    compiled
                                }
                            },
                            ReschedulePolicy::FullReschedule => match compiled_slot.take() {
                                Some(compiled) => compiled,
                                None => compile(
                                    scheduler,
                                    &mut interned[workload],
                                    self.acc,
                                    self.cost,
                                    self.metric,
                                    stats,
                                    &mut scheduler_invocations,
                                    &mut schedule_cache_hits,
                                    &mut profile,
                                )?,
                            },
                        };
                        if let Some(t0) = t0 {
                            profile.compile_ns += t0.elapsed().as_nanos() as u64;
                        }
                        let t0 = timed.then(Instant::now);
                        let workload = &interned[workload];
                        let handle = core
                            .admit_with_costs(
                                GraphRef::Shared(Arc::clone(&workload.graph)),
                                ScheduleRef::Shared(compiled.schedule),
                                compiled.costs,
                                event.t,
                            )
                            .map_err(HeraldError::Simulation)?;
                        if let Some(t0) = t0 {
                            profile.admit_ns += t0.elapsed().as_nanos() as u64;
                        }
                        profile.admissions += 1;
                        pending.push(PendingFrame {
                            handle,
                            stream: event.stream,
                            seq,
                            workload: Arc::clone(&workload.name),
                            deadline_s: stream.deadline_s,
                        });
                    }
                    EventKind::Swap { swap_index } => {
                        let swap = &specs[event.stream].swaps()[swap_index];
                        let to = intern_workload(&swap.workload, &mut interned, &mut profile);
                        // The swap dirties exactly this stream's
                        // compiled schedule; recompile eagerly at the
                        // change event (modeling the runtime recompiling
                        // on deployment changes). Other streams' memos
                        // are untouched.
                        let t0 = timed.then(Instant::now);
                        stream.compiled = Some(compile(
                            scheduler,
                            &mut interned[to],
                            self.acc,
                            self.cost,
                            self.metric,
                            stats,
                            &mut scheduler_invocations,
                            &mut schedule_cache_hits,
                            &mut profile,
                        )?);
                        if let Some(t0) = t0 {
                            profile.compile_ns += t0.elapsed().as_nanos() as u64;
                        }
                        swaps.push(SwapRecord {
                            stream: event.stream,
                            at_s: event.t,
                            from: Arc::clone(&interned[stream.workload].name),
                            to: Arc::clone(&interned[to].name),
                        });
                        stream.workload = to;
                    }
                }
                if batch_events >= self.admission_batch {
                    break;
                }
                match next_is_injected(&mut trace, &injected) {
                    None => break,
                    Some(next_inj) => {
                        let next_t = if next_inj {
                            let Some(Reverse(ByKey(e))) = injected.peek() else {
                                unreachable!("peeked above");
                            };
                            e.t
                        } else {
                            trace.peek().expect("peeked above").t
                        };
                        let next_commit = core.next_commit_start().unwrap_or(f64::INFINITY);
                        if next_t > next_commit {
                            break;
                        }
                        take_injected = next_inj;
                    }
                }
            }
            profile.max_batch_events = profile.max_batch_events.max(batch_events as u64);
        }
        let t0 = timed.then(Instant::now);
        core.run_until(f64::INFINITY)
            .map_err(HeraldError::Simulation)?;
        if let Some(t0) = t0 {
            profile.run_ns += t0.elapsed().as_nanos() as u64;
        }
        harvest(
            &mut core,
            &mut pending,
            &mut col,
            &mut makespan,
            &mut injected,
        );
        debug_assert!(pending.is_empty(), "all frames complete after drain");
        debug_assert!(injected.is_empty(), "all chained tokens admitted");

        col.frames.sort_by(|a, b| {
            a.arrival_s
                .total_cmp(&b.arrival_s)
                .then(a.stream.cmp(&b.stream))
                .then(a.seq.cmp(&b.seq))
        });
        col.busy_spans
            .sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.acc.cmp(&b.acc)));

        let stats_after = stats.snapshot();
        profile.events = events_processed as u64;
        profile.schedule_compiles = scheduler_invocations as u64;
        profile.schedule_cache_hits = schedule_cache_hits as u64;
        profile.fingerprint_lookups =
            stats_after.fingerprint_lookups - stats_before.fingerprint_lookups;
        profile.fingerprint_hits = stats_after.fingerprint_hits - stats_before.fingerprint_hits;
        profile.fingerprint_collisions =
            stats_after.fingerprint_collisions - stats_before.fingerprint_collisions;
        let (arena_reuses, arena_allocs) = core.arena_counters();
        profile.arena_reuses = arena_reuses;
        profile.arena_allocs = arena_allocs;
        profile.mem.frame_bytes =
            (col.frames.capacity() * std::mem::size_of::<FrameRecord>()) as u64;
        profile.mem.span_bytes =
            (col.busy_spans.capacity() * std::mem::size_of::<BusySpan>()) as u64;
        if !self.report.is_exact() {
            profile.mem.sketch_bytes = col.sketch.memory_bytes();
            profile.mem.agg_bytes = (col.aggs.capacity() * std::mem::size_of::<StreamAgg>()
                + col.util_windows.capacity() * std::mem::size_of::<f64>()
                + col.miss_windows.capacity() * std::mem::size_of::<ArrivalWindow>())
                as u64;
        }

        let mut report = StreamReport::new(
            name.to_string(),
            stream_names,
            horizon_s,
            makespan,
            col.frames,
            swaps,
            core.per_acc().to_vec(),
            *core.energy(),
            core.peak_memory_bytes(),
            scheduler_invocations,
            schedule_cache_hits,
            stats.placement_evals() - placement_before,
            events_processed,
            col.busy_spans,
        );
        if !self.report.is_exact() {
            report.set_streaming(
                self.report,
                col.completed,
                col.sketch,
                col.aggs,
                col.window_s,
                col.util_windows,
                col.miss_windows,
            );
        }
        Ok((report, profile))
    }
}

/// Rejects degenerate scenarios with a typed error (shared with the
/// fleet layer, which validates before sharding).
pub(crate) fn validate_scenario(scenario: &Scenario) -> Result<(), HeraldError> {
    let fail = |reason: String| Err(HeraldError::Scenario { reason });
    if scenario.streams().is_empty() {
        return fail(format!("scenario {:?} has no streams", scenario.name()));
    }
    if !(scenario.horizon_s() > 0.0 && scenario.horizon_s().is_finite()) {
        return fail(format!(
            "scenario {:?} horizon must be positive and finite, got {}",
            scenario.name(),
            scenario.horizon_s()
        ));
    }
    for s in scenario.streams() {
        if s.workload().total_layers() == 0 {
            return fail(format!("stream {:?} has an empty workload", s.name()));
        }
        let rate = s.arrival().mean_fps();
        match s.arrival() {
            ArrivalProcess::OneShot => {}
            // An explicit trace may legally be empty (a fleet shard that
            // received no frames); its times must be finite, non-negative
            // and sorted.
            ArrivalProcess::Trace { times_s } => {
                if times_s.iter().any(|t| !(t.is_finite() && *t >= 0.0)) {
                    return fail(format!(
                        "stream {:?} trace times must be non-negative and finite",
                        s.name()
                    ));
                }
                if times_s.windows(2).any(|w| w[1] < w[0]) {
                    return fail(format!(
                        "stream {:?} trace times must be sorted non-decreasing",
                        s.name()
                    ));
                }
            }
            // Chained decode sessions: the only arrival shape whose
            // later events depend on the schedule. Swaps are rejected
            // (a token's workload is fixed by its sequence position) and
            // per-token workloads, when given, must cover every token.
            ArrivalProcess::Chained {
                start_s,
                gap_s,
                tokens,
            } => {
                if !(*start_s >= 0.0 && start_s.is_finite()) {
                    return fail(format!(
                        "stream {:?} chain start must be non-negative and finite, got {start_s}",
                        s.name()
                    ));
                }
                if !(*gap_s > 0.0 && gap_s.is_finite()) {
                    return fail(format!(
                        "stream {:?} chain gap must be positive and finite, got {gap_s}",
                        s.name()
                    ));
                }
                if *tokens == 0 {
                    return fail(format!(
                        "stream {:?} chain must emit at least one token",
                        s.name()
                    ));
                }
                if !s.swaps().is_empty() {
                    return fail(format!(
                        "stream {:?} is chained and cannot swap workloads mid-session",
                        s.name()
                    ));
                }
                if !s.token_workloads().is_empty() && s.token_workloads().len() != *tokens {
                    return fail(format!(
                        "stream {:?} has {} token workloads for {tokens} tokens",
                        s.name(),
                        s.token_workloads().len()
                    ));
                }
                if s.token_workloads().iter().any(|w| w.total_layers() == 0) {
                    return fail(format!("stream {:?} has an empty token workload", s.name()));
                }
            }
            // The thinning sampler draws candidates at `peak_fps` and keeps
            // each with probability rate / peak, so the peak must bound the
            // ramp: a trough above it would silently yield a flat
            // `peak_fps` Poisson stream.
            ArrivalProcess::Diurnal {
                trough_fps,
                peak_fps,
                ..
            } => {
                if !(*peak_fps > 0.0 && peak_fps.is_finite()) {
                    return fail(format!(
                        "stream {:?} diurnal peak rate must be positive and finite, got {peak_fps}",
                        s.name()
                    ));
                }
                if !(*trough_fps >= 0.0 && trough_fps <= peak_fps) {
                    return fail(format!(
                        "stream {:?} diurnal trough rate must lie in [0, {peak_fps}], got {trough_fps}",
                        s.name()
                    ));
                }
            }
            _ if rate > 0.0 && rate.is_finite() => {}
            _ => {
                return fail(format!(
                    "stream {:?} rate must be positive and finite, got {rate}",
                    s.name()
                ))
            }
        }
        if !matches!(s.arrival(), ArrivalProcess::Chained { .. }) && !s.token_workloads().is_empty()
        {
            return fail(format!(
                "stream {:?} carries token workloads but is not chained",
                s.name()
            ));
        }
        if let Some(d) = s.deadline_s() {
            if !(d > 0.0 && d.is_finite()) {
                return fail(format!(
                    "stream {:?} deadline must be positive and finite, got {d}",
                    s.name()
                ));
            }
        }
        for swap in s.swaps() {
            if swap.workload.total_layers() == 0 {
                return fail(format!(
                    "stream {:?} swaps to an empty workload at {} s",
                    s.name(),
                    swap.at_s
                ));
            }
            if !(swap.at_s >= 0.0 && swap.at_s.is_finite()) {
                return fail(format!(
                    "stream {:?} swap time must be non-negative and finite, got {}",
                    s.name(),
                    swap.at_s
                ));
            }
        }
    }
    Ok(())
}

/// Rejects scenarios containing chained (completion-dependent) streams,
/// for consumers that replay spec-derived arrival traces — the fleet
/// dispatch walk and the controller's epoch walk. A chained stream's
/// later arrivals depend on per-chip completions, which no precomputed
/// trace can carry; routing them would silently drop every token after
/// the first.
pub(crate) fn reject_chained(scenario: &Scenario, consumer: &str) -> Result<(), HeraldError> {
    if let Some(s) = scenario
        .streams()
        .iter()
        .find(|s| matches!(s.arrival(), ArrivalProcess::Chained { .. }))
    {
        return Err(HeraldError::Scenario {
            reason: format!(
                "stream {:?} has completion-chained arrivals, which {consumer} cannot \
                 replay from a precomputed trace; simulate chained streams on a single chip",
                s.name()
            ),
        });
    }
    Ok(())
}

/// The scenario's full event trace in deterministic simulation order,
/// materialized — a [`MergedTrace`] collect, kept for callers that
/// genuinely need random access (the DSE replay cache). The engine, the
/// fleet dispatch walk, and the controller's epoch walk all consume
/// [`MergedTrace`] lazily instead.
pub(crate) fn sorted_trace(scenario: &Scenario) -> Vec<Event> {
    MergedTrace::new(scenario).collect()
}

/// The historical materialized trace generator: every arrival in
/// `[0, horizon)` per stream plus every swap event, in generation order
/// (a stable sort by [`Event::key`] turns it into simulation order).
/// Kept as the reference the lazy [`MergedTrace`] is pinned against.
#[cfg(test)]
fn build_trace(scenario: &Scenario) -> Vec<Event> {
    let horizon = scenario.horizon_s();
    let mut events = Vec::new();
    for (si, stream) in scenario.streams().iter().enumerate() {
        for (seq, t) in herald_workloads::seeded::arrival_times(stream.arrival(), horizon)
            .into_iter()
            .enumerate()
        {
            events.push(Event {
                t,
                stream: si,
                kind: EventKind::Arrival { seq },
            });
        }
        for (swap_index, swap) in stream.swaps().iter().enumerate() {
            if swap.at_s < horizon {
                events.push(Event {
                    t: swap.at_s,
                    stream: si,
                    kind: EventKind::Swap { swap_index },
                });
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::HeraldScheduler;
    use herald_arch::AcceleratorClass;
    use herald_dataflow::DataflowStyle;
    use herald_models::zoo;
    use herald_workloads::{single_model, StreamSpec};

    fn acc() -> AcceleratorConfig {
        AcceleratorConfig::fda(DataflowStyle::Nvdla, AcceleratorClass::Edge.resources())
    }

    fn tiny_workload() -> herald_workloads::MultiDnnWorkload {
        single_model(zoo::mobilenet_v1(), 1)
    }

    #[test]
    fn periodic_arrivals_count_matches_rate_and_horizon() {
        let scenario =
            Scenario::new("s", 0.1).stream(StreamSpec::periodic("cam", tiny_workload(), 50.0));
        let cost = CostModel::default();
        let report = StreamSimulator::new(&acc(), &cost)
            .simulate(&HeraldScheduler::default(), &scenario)
            .unwrap();
        assert_eq!(report.frames().len(), 5); // t = 0, 0.02, ..., 0.08
                                              // Incremental online scheduling: one compile for the stream's
                                              // workload, every later arrival served from the stream cache.
        assert_eq!(report.scheduler_invocations(), 1);
        assert_eq!(report.schedule_cache_hits(), 4);
        assert_eq!(report.events_processed(), 5);
        assert!(report.placement_evaluations() > 0);
        // Frames arrive in order and latencies are positive.
        for w in report.frames().windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s);
        }
        assert!(report.frames().iter().all(|f| f.latency_s > 0.0));
    }

    #[test]
    fn overload_queues_frames_and_grows_latency() {
        // Frame period far below the service time: each frame waits on
        // the previous, so latency grows monotonically.
        let scenario = Scenario::new("overload", 0.02)
            .stream(StreamSpec::periodic("cam", tiny_workload(), 200.0).with_deadline(0.005));
        let cost = CostModel::default();
        let report = StreamSimulator::new(&acc(), &cost)
            .simulate(&HeraldScheduler::default(), &scenario)
            .unwrap();
        assert!(report.frames().len() >= 3);
        for w in report.frames().windows(2) {
            assert!(w[1].latency_s > w[0].latency_s - 1e-12);
        }
        assert!(report.makespan_s() > scenario.horizon_s());
    }

    #[test]
    fn one_shot_stream_runs_exactly_one_frame() {
        let scenario = Scenario::new("one", 1.0).stream(StreamSpec::one_shot("s", tiny_workload()));
        let cost = CostModel::default();
        let report = StreamSimulator::new(&acc(), &cost)
            .simulate(&HeraldScheduler::default(), &scenario)
            .unwrap();
        assert_eq!(report.frames().len(), 1);
        assert_eq!(report.frames()[0].arrival_s, 0.0);
    }

    #[test]
    fn poisson_streams_are_seed_deterministic() {
        let make = |seed| {
            Scenario::new("p", 0.2).stream(StreamSpec::poisson("s", tiny_workload(), 40.0, seed))
        };
        let cost = CostModel::default();
        let acc = acc();
        let sim = StreamSimulator::new(&acc, &cost);
        let sched = HeraldScheduler::default();
        let a = sim.simulate(&sched, &make(1)).unwrap();
        let b = sim.simulate(&sched, &make(1)).unwrap();
        assert_eq!(a, b);
        let c = sim.simulate(&sched, &make(2)).unwrap();
        let arrivals =
            |r: &StreamReport| r.frames().iter().map(|f| f.arrival_s).collect::<Vec<_>>();
        assert_ne!(arrivals(&a), arrivals(&c));
    }

    #[test]
    fn swap_changes_frame_workloads_and_is_recorded() {
        let before = tiny_workload();
        let after = single_model(zoo::mobilenet_v2(), 1);
        let scenario = Scenario::new("swap", 0.04)
            .stream(StreamSpec::periodic("s", before, 100.0).swap_at(0.02, after));
        let cost = CostModel::default();
        let report = StreamSimulator::new(&acc(), &cost)
            .simulate(&HeraldScheduler::default(), &scenario)
            .unwrap();
        assert_eq!(report.swaps().len(), 1);
        assert_eq!(&*report.swaps()[0].from, "MobileNetV1-b1");
        assert_eq!(&*report.swaps()[0].to, "MobileNetV2-b1");
        let pre: Vec<&str> = report
            .frames()
            .iter()
            .filter(|f| f.arrival_s < 0.02)
            .map(|f| &*f.workload)
            .collect();
        let post: Vec<&str> = report
            .frames()
            .iter()
            .filter(|f| f.arrival_s >= 0.02)
            .map(|f| &*f.workload)
            .collect();
        assert!(pre.iter().all(|w| *w == "MobileNetV1-b1"));
        assert!(post.iter().all(|w| *w == "MobileNetV2-b1"));
        assert!(!post.is_empty());
        // Incremental online scheduling: one compile per workload
        // version of the stream (the initial workload and the eager
        // recompile at the swap); only the very first arrival had to
        // compile, every other arrival — including the first post-swap
        // one, served by the swap's eager recompile — is a cache hit.
        assert_eq!(report.scheduler_invocations(), 2);
        assert_eq!(report.schedule_cache_hits(), report.frames().len() - 1);
        assert_eq!(report.events_processed(), report.frames().len() + 1);
    }

    #[test]
    fn incremental_is_bit_identical_to_full_reschedule() {
        // The correctness bar of the incremental layer: identical
        // frames, spans, energy and memory as the full-reschedule
        // baseline — only the bookkeeping counters may differ.
        let before = tiny_workload();
        let after = single_model(zoo::mobilenet_v2(), 1);
        let scenario = Scenario::new("equiv", 0.06)
            .stream(
                StreamSpec::periodic("a", before, 100.0)
                    .with_deadline(0.01)
                    .swap_at(0.03, after),
            )
            .stream(StreamSpec::poisson("b", tiny_workload(), 50.0, 7));
        let cost = CostModel::default();
        let acc = acc();
        let sched = HeraldScheduler::default();
        let incremental = StreamSimulator::new(&acc, &cost)
            .simulate(&sched, &scenario)
            .unwrap();
        let full = StreamSimulator::new(&acc, &cost)
            .with_policy(ReschedulePolicy::FullReschedule)
            .simulate(&sched, &scenario)
            .unwrap();
        assert_eq!(incremental.frames(), full.frames());
        assert_eq!(incremental.swaps(), full.swaps());
        assert_eq!(incremental.busy_spans(), full.busy_spans());
        assert_eq!(incremental.per_acc(), full.per_acc());
        assert_eq!(incremental.energy(), full.energy());
        assert_eq!(incremental.peak_memory_bytes(), full.peak_memory_bytes());
        assert_eq!(incremental.makespan_s(), full.makespan_s());
        // And the incremental path did strictly less scheduling work.
        assert!(incremental.scheduler_invocations() < full.scheduler_invocations());
        assert!(incremental.placement_evaluations() < full.placement_evaluations());
        assert_eq!(full.schedule_cache_hits(), 0);
    }

    #[test]
    fn context_counters_observe_the_run() {
        let scenario =
            Scenario::new("ctx", 0.06).stream(StreamSpec::periodic("s", tiny_workload(), 100.0));
        let cost = CostModel::default();
        let acc = acc();
        let ctx = crate::ctx::EvalContext::new();
        let report = StreamSimulator::new(&acc, &cost)
            .with_context(&ctx)
            .simulate(&HeraldScheduler::default(), &scenario)
            .unwrap();
        // The context saw exactly the scheduling work the report claims.
        assert_eq!(ctx.stats().scheduler_runs(), 1);
        assert_eq!(
            ctx.stats().placement_evals(),
            report.placement_evaluations()
        );
        assert!(report.schedule_cache_hits() > 0);
    }

    #[test]
    fn degenerate_scenarios_are_typed_errors() {
        let cost = CostModel::default();
        let acc = acc();
        let sim = StreamSimulator::new(&acc, &cost);
        let sched = HeraldScheduler::default();
        let empty = Scenario::new("empty", 1.0);
        assert!(matches!(
            sim.simulate(&sched, &empty),
            Err(HeraldError::Scenario { .. })
        ));
        let zero_rate =
            Scenario::new("zr", 1.0).stream(StreamSpec::periodic("s", tiny_workload(), 0.0));
        assert!(matches!(
            sim.simulate(&sched, &zero_rate),
            Err(HeraldError::Scenario { .. })
        ));
        let bad_horizon =
            Scenario::new("bh", 0.0).stream(StreamSpec::one_shot("s", tiny_workload()));
        assert!(matches!(
            sim.simulate(&sched, &bad_horizon),
            Err(HeraldError::Scenario { .. })
        ));
        let empty_workload = Scenario::new("ew", 1.0).stream(StreamSpec::one_shot(
            "s",
            herald_workloads::MultiDnnWorkload::new("none"),
        ));
        assert!(matches!(
            sim.simulate(&sched, &empty_workload),
            Err(HeraldError::Scenario { .. })
        ));
        // Diurnal rates must satisfy 0 <= trough <= peak with a positive,
        // finite peak; otherwise thinning would accept every candidate
        // and emit a flat stream at `peak_fps` without complaint.
        for (trough_fps, peak_fps) in [
            (120.0, 40.0),
            (-10.0, 40.0),
            (f64::NAN, 40.0),
            (0.0, f64::INFINITY),
            (40.0, f64::NAN),
        ] {
            let diurnal = Scenario::new("diurnal", 1.0).stream(StreamSpec::new(
                "s",
                tiny_workload(),
                ArrivalProcess::Diurnal {
                    trough_fps,
                    peak_fps,
                    seed: 3,
                },
            ));
            assert!(
                matches!(
                    sim.simulate(&sched, &diurnal),
                    Err(HeraldError::Scenario { .. })
                ),
                "diurnal trough {trough_fps} / peak {peak_fps} must be rejected"
            );
        }
        // The boundaries stay legal: a zero trough and a flat ramp.
        for (trough_fps, peak_fps) in [(0.0, 40.0), (40.0, 40.0)] {
            let diurnal = Scenario::new("diurnal", 0.1).stream(StreamSpec::new(
                "s",
                tiny_workload(),
                ArrivalProcess::Diurnal {
                    trough_fps,
                    peak_fps,
                    seed: 3,
                },
            ));
            assert!(sim.simulate(&sched, &diurnal).is_ok());
        }
    }

    #[test]
    fn deadlines_split_hit_and_miss() {
        let cost = CostModel::default();
        let acc = acc();
        let sim = StreamSimulator::new(&acc, &cost);
        let sched = HeraldScheduler::default();
        // Absurdly tight deadline: everything misses.
        let tight = Scenario::new("tight", 0.02)
            .stream(StreamSpec::periodic("s", tiny_workload(), 100.0).with_deadline(1e-9));
        let r = sim.simulate(&sched, &tight).unwrap();
        assert!((r.deadline_miss_rate() - 1.0).abs() < 1e-12);
        // Generous deadline at a sustainable rate: nothing misses.
        let loose = Scenario::new("loose", 0.02)
            .stream(StreamSpec::periodic("s", tiny_workload(), 100.0).with_deadline(1e9));
        let r = sim.simulate(&sched, &loose).unwrap();
        assert_eq!(r.deadline_miss_rate(), 0.0);
    }

    /// The tentpole bit-identity pin: the lazy k-way merged trace must
    /// yield exactly the sequence the materialized `build_trace` +
    /// stable sort produced, on every arrival-process shape — periodic,
    /// Poisson, one-shot, explicit traces with duplicate times, diurnal,
    /// swaps (same-instant and out-of-order lists), and the fleet-scale
    /// scenario generators.
    #[test]
    fn merged_trace_is_bit_identical_to_the_materialized_sort() {
        let w = tiny_workload;
        let trace_times = vec![0.0, 0.01, 0.01, 0.02, 0.02, 0.02, 0.09];
        let scenarios = vec![
            Scenario::new("periodic", 0.1).stream(StreamSpec::periodic("a", w(), 50.0)),
            Scenario::new("mix", 0.2)
                .stream(StreamSpec::periodic("a", w(), 30.0))
                .stream(StreamSpec::poisson("b", w(), 40.0, 7))
                .stream(StreamSpec::one_shot("c", w()))
                .stream(StreamSpec::new(
                    "d",
                    w(),
                    ArrivalProcess::Trace {
                        times_s: trace_times,
                    },
                )),
            // Swaps: one exactly at an arrival instant, plus an
            // out-of-order swap list (later time listed first) and one
            // past the horizon (dropped by both paths).
            Scenario::new("swaps", 0.1).stream(
                StreamSpec::periodic("s", w(), 50.0)
                    .swap_at(0.06, single_model(zoo::mobilenet_v2(), 1))
                    .swap_at(0.04, tiny_workload())
                    .swap_at(0.5, tiny_workload()),
            ),
            herald_workloads::poisson_mix_stream(1.0, 0.2, 11),
            herald_workloads::fleet_mix_stream(6, 120.0, 0.05, 0.2, 13),
            herald_workloads::diurnal_fleet_stream(8, 40.0, 120.0, 0.05, 0.3, 17),
            herald_workloads::diurnal_ramp_trace(4, 40.0, 120.0, 0.05, 0.2, 19),
            herald_workloads::workload_change_trace(60.0, 0.02, 0.2),
        ];
        for scenario in &scenarios {
            let mut reference = build_trace(scenario);
            reference.sort_by(|a, b| {
                let (ta, ka, sa) = a.key();
                let (tb, kb, sb) = b.key();
                ta.total_cmp(&tb).then(ka.cmp(&kb)).then(sa.cmp(&sb))
            });
            let lazy: Vec<Event> = MergedTrace::new(scenario).collect();
            assert_eq!(lazy.len(), reference.len(), "{}", scenario.name());
            for (i, (l, r)) in lazy.iter().zip(&reference).enumerate() {
                assert!(
                    l == r && l.t.to_bits() == r.t.to_bits(),
                    "{}: event {i} diverged: {l:?} vs {r:?}",
                    scenario.name()
                );
            }
        }
    }

    #[test]
    fn routed_trace_iter_matches_the_sub_scenario_replay_order() {
        // Route a two-stream scenario's arrivals onto one "chip" (all of
        // them) and check the routed iterator reproduces the full
        // merged order with per-stream local sequence numbers.
        let scenario = Scenario::new("routed", 0.1)
            .stream(
                StreamSpec::periodic("a", tiny_workload(), 50.0)
                    .swap_at(0.04, single_model(zoo::mobilenet_v2(), 1)),
            )
            .stream(StreamSpec::poisson("b", tiny_workload(), 60.0, 3));
        let merged: Vec<Event> = MergedTrace::new(&scenario).collect();
        let arrivals: Vec<(f64, u32)> = merged
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Arrival { .. }))
            .map(|e| (e.t, e.stream as u32))
            .collect();
        let names = Arc::new(vec!["a".to_string(), "b".to_string()]);
        let routed = RoutedScenario {
            name: "routed",
            horizon_s: scenario.horizon_s(),
            streams: scenario.streams(),
            stream_names: names,
            arrivals: &arrivals,
        };
        let replayed: Vec<Event> = RoutedTraceIter::new(&routed).collect();
        assert_eq!(replayed, merged);
    }

    #[test]
    fn sketch_mode_matches_exact_scalars_within_sketch_error() {
        let scenario = Scenario::new("sk", 0.2)
            .stream(StreamSpec::periodic("a", tiny_workload(), 60.0).with_deadline(0.008))
            .stream(StreamSpec::poisson("b", tiny_workload(), 40.0, 5));
        let cost = CostModel::default();
        let acc = acc();
        let sched = HeraldScheduler::default();
        let exact = StreamSimulator::new(&acc, &cost)
            .simulate(&sched, &scenario)
            .unwrap();
        let rel = 0.01;
        let sketched = StreamSimulator::new(&acc, &cost)
            .with_report_mode(ReportMode::Sketch {
                relative_error: rel,
                sample_every: 4,
            })
            .simulate(&sched, &scenario)
            .unwrap();
        // Scalars are identical: same frames completed, same makespan,
        // same energy, same miss rate, same counters.
        assert_eq!(sketched.completed() as usize, exact.frames().len());
        assert_eq!(sketched.makespan_s(), exact.makespan_s());
        assert_eq!(sketched.energy(), exact.energy());
        assert_eq!(sketched.deadline_miss_rate(), exact.deadline_miss_rate());
        assert_eq!(sketched.events_processed(), exact.events_processed());
        assert_eq!(sketched.per_acc(), exact.per_acc());
        // O(frames) trails are gone; exemplars are sampled.
        assert!(sketched.busy_spans().is_empty());
        assert!(sketched.frames().len() <= exact.frames().len().div_ceil(4));
        // Percentiles agree within the sketch's error bound.
        for q in [0.5, 0.95, 0.99] {
            let e = exact.latency_percentile(q);
            let s = sketched.latency_percentile(q);
            assert!((s - e).abs() <= rel * e, "q={q}: sketch {s} vs exact {e}");
        }
        // Windowed views stay populated (window-aligned ones exact).
        let w = scenario.horizon_s() / 128.0;
        assert_eq!(
            sketched.deadline_frames_between(0.0, 128.0 * w),
            exact.deadline_frames_between(0.0, 128.0 * w)
        );
        assert!(!sketched.utilization_timeline(0.05).is_empty());
        // Per-stream aggregates carry exact per-stream frame counts.
        let (es, ss) = (exact.stream_stats(), sketched.stream_stats());
        for (e, s) in es.iter().zip(&ss) {
            assert_eq!(e.frames, s.frames);
            assert!((e.mean_latency_s - s.mean_latency_s).abs() < 1e-12);
        }
    }

    #[test]
    fn shared_workloads_intern_one_graph_and_name() {
        // Two streams cloning one workload intern a single graph; the
        // rebuilt (deep-equal) workload also dedupes via the fallback,
        // and so do swap targets: stream "d" swaps MobileNetV1 -> V2 ->
        // V1, building one more graph however many swaps replay.
        let shared = tiny_workload();
        let v2 = single_model(zoo::mobilenet_v2(), 1);
        let scenario = Scenario::new("intern", 0.05)
            .stream(StreamSpec::periodic("a", shared.clone(), 50.0))
            .stream(StreamSpec::periodic("b", shared.clone(), 50.0))
            .stream(StreamSpec::periodic("c", tiny_workload(), 50.0))
            .stream(
                StreamSpec::periodic("d", shared, 50.0)
                    .swap_at(0.01, v2)
                    .swap_at(0.03, tiny_workload()),
            );
        let cost = CostModel::default();
        let (report, profile) = StreamSimulator::new(&acc(), &cost)
            .simulate_profiled(&HeraldScheduler::default(), &scenario)
            .unwrap();
        assert_eq!(report.swaps().len(), 2);
        assert_eq!(profile.precomputed_graph_fingerprints, 2);
        // Each stream start and each swap still calls the scheduler, but
        // equal schedules share their workload's one cost table.
        assert_eq!(report.scheduler_invocations(), 6);
        assert_eq!(profile.cost_tables_built, 2);
        assert_eq!(profile.mem.frame_bytes > 0, !report.frames().is_empty());
    }

    /// A scheduler that alternates between two legal schedules of one
    /// graph — everything on sub-accelerator 0, then everything on 1 —
    /// and records what it handed out, call by call.
    struct AlternatingScheduler {
        issued: std::cell::RefCell<Vec<crate::sched::Schedule>>,
    }

    impl Scheduler for AlternatingScheduler {
        fn schedule(
            &self,
            graph: &TaskGraph,
            acc: &AcceleratorConfig,
            _cost: &CostModel,
        ) -> Result<crate::sched::Schedule, HeraldError> {
            let mut issued = self.issued.borrow_mut();
            let way = issued.len() % 2;
            let mut order = vec![Vec::new(); acc.sub_accelerators().len()];
            order[way] = graph.ids().collect();
            let schedule = crate::sched::Schedule::new(vec![way; graph.len()], order)
                .map_err(HeraldError::Simulation)?;
            issued.push(schedule.clone());
            Ok(schedule)
        }
    }

    #[test]
    fn differing_schedules_of_one_workload_get_their_own_cost_tables() {
        // Four streams share one workload; the scheduler hands them A, B,
        // A, B at their first arrivals. The run interns A, so the third
        // stream reuses A's table while both B compiles build their own.
        let acc = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            herald_arch::Partition::even(2, 1024, 16.0),
        )
        .unwrap();
        let workload = tiny_workload();
        let mut scenario = Scenario::new("alternating", 0.05);
        for i in 0..4 {
            scenario = scenario.stream(StreamSpec::periodic(
                format!("s{i}"),
                workload.clone(),
                40.0,
            ));
        }
        let cost = CostModel::default();
        let scheduler = AlternatingScheduler {
            issued: std::cell::RefCell::new(Vec::new()),
        };
        let (report, profile) = StreamSimulator::new(&acc, &cost)
            .simulate_profiled(&scheduler, &scenario)
            .unwrap();
        let issued = scheduler.issued.into_inner();
        assert_eq!(issued.len(), 4, "one compile per stream");
        assert_ne!(issued[0], issued[1]);
        assert_eq!(profile.cost_tables_built, 3);
        // Every frame's energy is that of a one-shot replay of the
        // schedule its stream received: a stream served another
        // schedule's cost table would show the other sub-accelerator's
        // energy.
        let graph = TaskGraph::new(&workload);
        let replay = crate::exec::ScheduleSimulator::new(&graph, &acc, &cost);
        assert!(!report.frames().is_empty());
        for frame in report.frames() {
            let expected = replay.simulate(&issued[frame.stream]).unwrap();
            assert_eq!(
                frame.energy_j.to_bits(),
                expected.energy().total_j().to_bits(),
                "stream {} frame {}",
                frame.stream,
                frame.seq
            );
        }
        let energies: Vec<f64> = (0..2)
            .map(|s| replay.simulate(&issued[s]).unwrap().energy().total_j())
            .collect();
        assert_ne!(
            energies[0], energies[1],
            "the two schedules must differ in cost"
        );
    }

    #[test]
    fn chained_stream_serializes_tokens_with_the_sampling_gap() {
        // Token k + 1 arrives exactly gap after token k completes: the
        // decode loop's data dependence, which no precomputed trace can
        // express. Bit-exact: arrival = previous finish + gap.
        let gap = 0.01;
        let scenario = Scenario::new("decode", 1.0).stream(StreamSpec::chained(
            "s",
            tiny_workload(),
            0.0,
            gap,
            4,
        ));
        let cost = CostModel::default();
        let report = StreamSimulator::new(&acc(), &cost)
            .simulate(&HeraldScheduler::default(), &scenario)
            .unwrap();
        assert_eq!(report.frames().len(), 4);
        for (k, f) in report.frames().iter().enumerate() {
            assert_eq!(f.seq, k);
        }
        for w in report.frames().windows(2) {
            assert_eq!(w[1].arrival_s.to_bits(), (w[0].finish_s + gap).to_bits());
            assert!(w[1].arrival_s > w[0].finish_s, "no overlap between tokens");
        }
        // One workload version: a single compile, the rest cache hits.
        assert_eq!(report.scheduler_invocations(), 1);
        assert_eq!(report.schedule_cache_hits(), 3);
        // Determinism: completion-chained arrivals replay bit-for-bit.
        let again = StreamSimulator::new(&acc(), &cost)
            .simulate(&HeraldScheduler::default(), &scenario)
            .unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn chained_tokens_resolve_per_token_workloads() {
        // Two KV "buckets": tokens 0-1 run MobileNetV1, tokens 2-3 run
        // MobileNetV2. Each bucket compiles once; frames are labeled
        // with their token's workload.
        let small = tiny_workload();
        let big = single_model(zoo::mobilenet_v2(), 1);
        let token_workloads = vec![small.clone(), small, big.clone(), big.clone()];
        let scenario = Scenario::new("decode-buckets", 1.0).stream(
            StreamSpec::chained("s", big, 0.0, 0.005, 4).with_token_workloads(token_workloads),
        );
        let cost = CostModel::default();
        let report = StreamSimulator::new(&acc(), &cost)
            .simulate(&HeraldScheduler::default(), &scenario)
            .unwrap();
        assert_eq!(report.frames().len(), 4);
        let names: Vec<&str> = report.frames().iter().map(|f| &*f.workload).collect();
        assert_eq!(
            names,
            vec![
                "MobileNetV1-b1",
                "MobileNetV1-b1",
                "MobileNetV2-b1",
                "MobileNetV2-b1"
            ]
        );
        assert_eq!(report.scheduler_invocations(), 2);
        assert_eq!(report.schedule_cache_hits(), 2);
    }

    #[test]
    fn chained_streams_coexist_with_trace_driven_streams() {
        let scenario = Scenario::new("mix", 0.1)
            .stream(StreamSpec::chained(
                "decode",
                tiny_workload(),
                0.005,
                0.01,
                3,
            ))
            .stream(StreamSpec::periodic("cam", tiny_workload(), 50.0).with_deadline(0.5));
        let cost = CostModel::default();
        let acc = acc();
        let sched = HeraldScheduler::default();
        let a = StreamSimulator::new(&acc, &cost)
            .simulate(&sched, &scenario)
            .unwrap();
        assert_eq!(
            a,
            StreamSimulator::new(&acc, &cost)
                .simulate(&sched, &scenario)
                .unwrap()
        );
        let decode_frames: Vec<_> = a.frames().iter().filter(|f| f.stream == 0).collect();
        let cam_frames: Vec<_> = a.frames().iter().filter(|f| f.stream == 1).collect();
        assert_eq!(decode_frames.len(), 3);
        assert_eq!(cam_frames.len(), 5);
        for w in decode_frames.windows(2) {
            assert!(w[1].arrival_s > w[0].finish_s);
        }
        // Incremental == full reschedule holds with injection active.
        let full = StreamSimulator::new(&acc, &cost)
            .with_policy(ReschedulePolicy::FullReschedule)
            .simulate(&sched, &scenario)
            .unwrap();
        assert_eq!(a.frames(), full.frames());
        assert_eq!(a.busy_spans(), full.busy_spans());
        assert_eq!(a.energy(), full.energy());
    }

    #[test]
    fn degenerate_chained_streams_are_typed_errors() {
        let cost = CostModel::default();
        let acc = acc();
        let sim = StreamSimulator::new(&acc, &cost);
        let sched = HeraldScheduler::default();
        let reject = |scenario: &Scenario, what: &str| {
            let err = sim.simulate(&sched, scenario).unwrap_err();
            assert!(
                matches!(err, HeraldError::Scenario { .. }),
                "{what}: {err:?}"
            );
        };
        let w = tiny_workload;
        reject(
            &Scenario::new("zero-gap", 1.0).stream(StreamSpec::chained("s", w(), 0.0, 0.0, 3)),
            "zero gap",
        );
        reject(
            &Scenario::new("zero-tokens", 1.0).stream(StreamSpec::chained("s", w(), 0.0, 0.1, 0)),
            "zero tokens",
        );
        reject(
            &Scenario::new("neg-start", 1.0).stream(StreamSpec::chained("s", w(), -0.5, 0.1, 3)),
            "negative start",
        );
        reject(
            &Scenario::new("swapped", 1.0)
                .stream(StreamSpec::chained("s", w(), 0.0, 0.1, 3).swap_at(0.5, w())),
            "swap on chained stream",
        );
        reject(
            &Scenario::new("short-map", 1.0)
                .stream(StreamSpec::chained("s", w(), 0.0, 0.1, 3).with_token_workloads(vec![w()])),
            "token workload count mismatch",
        );
        reject(
            &Scenario::new("tokens-on-periodic", 1.0)
                .stream(StreamSpec::periodic("s", w(), 10.0).with_token_workloads(vec![w()])),
            "token workloads on a non-chained stream",
        );
    }

    #[test]
    fn utilization_and_spans_are_consistent() {
        let scenario =
            Scenario::new("u", 0.02).stream(StreamSpec::periodic("s", tiny_workload(), 100.0));
        let cost = CostModel::default();
        let report = StreamSimulator::new(&acc(), &cost)
            .simulate(&HeraldScheduler::default(), &scenario)
            .unwrap();
        // Busy time from spans equals the per-acc summary.
        let span_busy: f64 = report.frames().iter().map(|_| 0.0).sum::<f64>()
            + report
                .utilization_timeline(report.makespan_s())
                .iter()
                .map(|s| s.per_acc[0] * report.makespan_s())
                .sum::<f64>();
        assert!((span_busy - report.per_acc()[0].busy_s).abs() < 1e-9);
        assert!(report.acc_utilization(0) > 0.0);
        assert!(report.acc_utilization(0) <= 1.0 + 1e-12);
    }
}
