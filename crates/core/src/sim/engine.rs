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
use crate::sim::core::{
    build_cost_table, max_occupancy, CostTable, EventCore, GraphRef, ScheduleRef,
};
use crate::sim::profile::HotPathProfile;
use crate::sim::report::{Collector, ReportMode, StreamAgg, StreamReport, SwapRecord};
use crate::task::TaskGraph;
use herald_arch::AcceleratorConfig;
use herald_cost::{CostModel, Metric};
use herald_workloads::{ArrivalProcess, MultiDnnWorkload, Scenario, StreamSpec};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Cap on trace events admitted against one commit window. A batch
/// only ever extends while the next event lands at or before the core's
/// next pending commit, so any cap, including `1` (the event-at-a-time
/// walk), gives bit-identical results; the cap only bounds how much
/// admission work one window may accumulate.
const ADMISSION_BATCH: usize = 32;

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
    /// Always [`ADMISSION_BATCH`]; a field so a test can vary the cap.
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
    /// The trace's deterministic total order as one integer: time by
    /// [`f64::total_cmp`], then swaps before arrivals, then stream index.
    /// The high 64 bits are `t`'s bits mapped so that unsigned integer
    /// order is `total_cmp` order (`-0.0` sorts just below `0.0`), bit 32
    /// holds the kind rank and the low 32 bits the stream, so streams
    /// must fit in a `u32`.
    pub(crate) fn order_key(&self) -> u128 {
        debug_assert!(u32::try_from(self.stream).is_ok(), "stream index past u32");
        let bits = self.t.to_bits();
        // `total_cmp`'s own mapping (flip a negative's magnitude bits so
        // signed order is total order), then the sign bit flipped so that
        // unsigned order is signed order.
        let t = bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63);
        let kind_rank: u128 = match self.kind {
            EventKind::Swap { .. } => 0,
            EventKind::Arrival { .. } => 1,
        };
        (u128::from(t) << 64) | (kind_rank << 32) | self.stream as u128
    }

    /// The same order as a tuple, compared with `total_cmp` on time: the
    /// reference [`Event::order_key`]'s packing is pinned against.
    #[cfg(test)]
    fn key(&self) -> (f64, u8, usize) {
        let kind_rank = match self.kind {
            EventKind::Swap { .. } => 0,
            EventKind::Arrival { .. } => 1,
        };
        (self.t, kind_rank, self.stream)
    }
}

/// Heap entry of the engine's chained-arrival heap, ordered by
/// [`Event::order_key`].
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
        self.0.order_key().cmp(&other.0.order_key())
    }
}

/// One stream's lazy event source: a pull-based [`seeded::arrival_iter`]
/// plus a cursor over the stream's swap list (indices with
/// `at_s < horizon`, stably pre-sorted by time so they surface exactly
/// where the materialized trace's stable sort placed them). The pending
/// event is derived from the cursor's state, so [`StreamCursor::peek`]
/// stores nothing. Events come out in [`Event::order_key`] order — a swap
/// at or before the pending arrival goes first, matching the
/// swaps-before-arrivals tiebreak.
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

    /// The stream's next event, left pending.
    fn peek(&self, stream: usize) -> Option<Event> {
        let swap = |swap_index: usize| Event {
            t: self.swaps[swap_index].at_s,
            stream,
            kind: EventKind::Swap { swap_index },
        };
        match (self.pending_arrival, self.swap_order.get(self.next_swap)) {
            (Some(at), Some(&i)) if self.swaps[i].at_s.total_cmp(&at).is_le() => Some(swap(i)),
            (Some(at), _) => Some(Event {
                t: at,
                stream,
                kind: EventKind::Arrival { seq: self.next_seq },
            }),
            (None, Some(&i)) => Some(swap(i)),
            (None, None) => None,
        }
    }

    /// Consumes the pending event of kind `kind` (the one
    /// [`StreamCursor::peek`] returned).
    fn advance(&mut self, kind: EventKind) {
        match kind {
            EventKind::Swap { .. } => self.next_swap += 1,
            EventKind::Arrival { .. } => {
                self.next_seq += 1;
                self.pending_arrival = self.arrivals.next();
            }
        }
    }
}

/// End of a calendar bucket's stream list.
const NIL: u32 = u32::MAX;

/// The scenario's full event trace as a lazy, exact calendar merge
/// (R. Brown, "Calendar queues", CACM 1988) of one [`StreamCursor`] per
/// stream. `[0, horizon)` is cut into `n = streams` buckets, and an event
/// at `t` falls in bucket `min(n − 1, ⌊t·n/horizon⌋)`. Each stream's
/// pending event sits in exactly one place:
///
/// * in a min-heap of [`Event::order_key`]s, if it falls in the current
///   bucket;
/// * otherwise on its later bucket's intrusive list (`head[bucket]`,
///   `next[stream]`).
///
/// The merge pops the heap, pulls that stream's next event, and files it
/// by the same rule. When the heap runs dry, the next non-empty bucket's
/// list is loaded into it. The bucket index never decreases as time
/// grows, so an event in a later bucket is strictly later than every
/// event in the current one. A cursor emits its own events in key order,
/// and no two streams' pending events share a key, so the heap's minimum
/// is the global one. The merge therefore yields, bit for bit, the
/// sequence the materialized `build_trace` + stable sort produced.
///
/// Memory is O(streams), not O(events): 8 B of list per stream plus a
/// 16 B heap key per pending event of the current bucket. Work per event
/// is O(1) plus a sift over the current bucket's streams. The worst case
/// is every event in one bucket (e.g. all-one-shot streams at `t = 0`),
/// where the calendar is a plain binary heap over every stream.
pub(crate) struct MergedTrace<'a> {
    cursors: Vec<StreamCursor<'a>>,
    horizon_s: f64,
    /// First stream of each bucket's list ([`NIL`] when empty).
    head: Vec<u32>,
    /// Next stream on the same bucket's list.
    next: Vec<u32>,
    /// The bucket whose pending events are in `heap`.
    current: usize,
    heap: BinaryHeap<Reverse<u128>>,
}

impl<'a> MergedTrace<'a> {
    /// Builds the merge over a validated scenario (finite, non-negative
    /// times; `-0.0` and `0.0` both fall in bucket 0).
    pub(crate) fn new(scenario: &'a Scenario) -> Self {
        let horizon_s = scenario.horizon_s();
        let cursors: Vec<StreamCursor<'a>> = scenario
            .streams()
            .iter()
            .map(|s| StreamCursor::new(s, horizon_s))
            .collect();
        let n = cursors.len();
        assert!(
            n <= NIL as usize,
            "{n} streams overflow the u32 calendar lists"
        );
        let mut merge = Self {
            cursors,
            horizon_s,
            head: vec![NIL; n],
            next: vec![NIL; n],
            current: 0,
            heap: BinaryHeap::new(),
        };
        for stream in 0..n {
            if let Some(event) = merge.cursors[stream].peek(stream) {
                merge.file(&event);
            }
        }
        merge
    }

    fn bucket(&self, t: f64) -> usize {
        let n = self.head.len();
        ((t * n as f64 / self.horizon_s) as usize).min(n - 1)
    }

    /// Files a stream's pending event: into the heap if it falls in the
    /// current bucket, else onto its later bucket's list.
    fn file(&mut self, event: &Event) {
        let bucket = self.bucket(event.t);
        debug_assert!(bucket >= self.current, "event filed into a past bucket");
        if bucket == self.current {
            self.heap.push(Reverse(event.order_key()));
        } else {
            self.next[event.stream] = self.head[bucket];
            self.head[bucket] = event.stream as u32;
        }
    }
}

impl Iterator for MergedTrace<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        let key = loop {
            if let Some(Reverse(key)) = self.heap.pop() {
                break key;
            }
            let n = self.head.len();
            self.current = (self.current + 1..n).find(|&b| self.head[b] != NIL)?;
            let mut stream = std::mem::replace(&mut self.head[self.current], NIL);
            while stream != NIL {
                let s = stream as usize;
                let event = self.cursors[s]
                    .peek(s)
                    .expect("a listed stream has an event");
                self.heap.push(Reverse(event.order_key()));
                stream = self.next[s];
            }
        };
        let stream = key as u32 as usize;
        let cursor = &mut self.cursors[stream];
        let event = cursor.peek(stream).expect("a queued stream has an event");
        debug_assert_eq!(event.order_key(), key);
        cursor.advance(event.kind);
        if let Some(next) = cursor.peek(stream) {
            self.file(&next);
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
    pub(crate) stream_names: &'a Arc<Vec<String>>,
    pub(crate) arrivals: &'a [(f64, u32)],
}

/// Lazy event source over a [`RoutedScenario`]: two-pointer merge of the
/// (already key-sorted) routed arrival list with the (pre-sorted) swap
/// events, assigning per-stream local sequence numbers in emission order
/// — exactly the numbering the old sub-`Scenario` trace replay produced.
struct RoutedTraceIter<'a> {
    arrivals: &'a [(f64, u32)],
    next_arrival: usize,
    seqs: Vec<u32>,
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
        swaps.sort_by_key(Event::order_key);
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
            kind: EventKind::Arrival { seq: seq as usize },
        })
    }
}

/// A compiled schedule with everything a frame admission needs: the
/// schedule, its cost table and the table's [`max_occupancy`], shared by
/// every frame admitted against it through two pointer bumps.
struct CompiledSchedule {
    schedule: Arc<crate::sched::Schedule>,
    costs: CostTable,
    max_occ: u64,
    /// Whether this is a workload's interned entry, which any number of
    /// rows may point at. Other entries (only a non-deterministic
    /// scheduler makes them) belong to one row and go back to the pool's
    /// free list when that row lets go of them.
    interned: bool,
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
    /// Pool index of the first schedule compiled for `graph` in this run.
    /// The chip, cost model, metric and scheduler are fixed for a run, so
    /// the run-local workload index is a complete key: a deterministic
    /// scheduler hands back an equal schedule on every later compile,
    /// which [`Compiler::compile`] then serves from here.
    compiled: Option<u32>,
}

/// [`StreamRow::compiled`] of a stream with no compiled schedule.
const NOT_COMPILED: u32 = u32::MAX;

/// One stream's state on one chip: everything an arrival and its harvest
/// read, in one cache line.
#[repr(align(64))]
struct StreamRow {
    /// Index into the run's interned workloads (the current version).
    workload: u32,
    /// Pool index of the schedule compiled for the stream's *current*
    /// workload ([`NOT_COMPILED`] when none) — the dirty-tracked memo of
    /// the incremental policy. A workload swap replaces it (invalidating
    /// exactly this stream); under [`ReschedulePolicy::FullReschedule`]
    /// it only carries the eager swap recompile to the first post-swap
    /// arrival, which consumes it.
    compiled: u32,
    /// The stream's deadline, `f64::INFINITY` when it has none (a
    /// validated deadline is finite, and no latency exceeds infinity).
    deadline_s: f64,
    /// The stream's running aggregate (sketch mode only).
    agg: StreamAgg,
}

/// One compiled-schedule slot of a chained stream's per-token workload
/// table: tokens sharing a KV bucket share the slot (and its
/// dirty-tracked schedule); distinct buckets compile independently.
struct TokenSlot {
    /// Index into the run's interned workloads.
    workload: u32,
    /// Pool index, or [`NOT_COMPILED`].
    compiled: u32,
}

/// A chained stream's token state, kept beside the rows.
struct Chain {
    gap_s: f64,
    tokens: usize,
    /// Distinct per-token workloads (empty when every token runs the
    /// stream's own workload): token `seq` resolves its slot through
    /// `token_map`, so same-bucket tokens share one compiled schedule.
    slots: Vec<TokenSlot>,
    /// `token_map[seq]` indexes into `slots`.
    token_map: Vec<usize>,
}

/// The run's compile state: the interned workloads, the pool of compiled
/// schedules that rows point into, and the compile counters.
struct Compiler<'r, 'w, S> {
    scheduler: &'r S,
    acc: &'r AcceleratorConfig,
    cost: &'r CostModel,
    metric: Metric,
    stats: &'r EvalStats,
    workloads: Vec<InternedWorkload<'w>>,
    pool: Vec<CompiledSchedule>,
    /// Pool entries no row points at any more.
    free: Vec<u32>,
}

impl<'w, S: Scheduler> Compiler<'_, 'w, S> {
    /// Interns one workload by structure and returns its run-local index:
    /// streams (and token buckets, and swap targets) instantiated from a
    /// shared workload build and fingerprint a single graph, not one per
    /// user.
    fn intern(&mut self, w: &'w MultiDnnWorkload, profile: &mut HotPathProfile) -> u32 {
        if let Some(i) = self
            .workloads
            .iter()
            .position(|iw| iw.workload.same_structure(w))
        {
            return i as u32;
        }
        let graph = Arc::new(TaskGraph::new(w));
        // The "precalculated" memo tier: fingerprint each distinct graph up
        // front so per-arrival memo probes only hash the short
        // accelerator/scheduler/cost tail.
        graph.structural_fingerprint();
        profile.precomputed_graph_fingerprints += 1;
        self.workloads.push(InternedWorkload {
            workload: w,
            graph,
            name: Arc::from(w.name()),
            compiled: None,
        });
        (self.workloads.len() - 1) as u32
    }

    /// Runs one online compile of workload `w` and returns its pool index,
    /// classifying it for the report: a context-aware scheduler (e.g.
    /// [`crate::sched::IncrementalScheduler`]) may serve the request from
    /// its cross-call memo, which counts as a cache hit rather than a
    /// fresh compile. The scheduler reports the distinction in-band
    /// ([`Scheduler::schedule_tracked`]), so the classification stays
    /// correct even when several threads record into one shared
    /// [`EvalContext`] concurrently.
    ///
    /// The scheduler is always called; only the compiled entry is
    /// interned. A schedule equal to the workload's interned one is
    /// served as the interned entry: a memo hit hands back the very `Arc`
    /// the entry holds, so a pointer compare settles it, and any other
    /// schedule falls back to a deep compare. A differing schedule (only
    /// a non-deterministic scheduler returns one) gets its own entry, and
    /// the first compile of a workload becomes its interned entry.
    fn compile(&mut self, w: u32, profile: &mut HotPathProfile) -> Result<u32, HeraldError> {
        let workload = &mut self.workloads[w as usize];
        let (schedule, memo_hit) =
            self.scheduler
                .schedule_tracked(&workload.graph, self.acc, self.cost, self.stats)?;
        if memo_hit {
            profile.schedule_cache_hits += 1;
        } else {
            profile.schedule_compiles += 1;
        }
        if let Some(i) = workload.compiled {
            let interned = &self.pool[i as usize].schedule;
            if Arc::ptr_eq(interned, &schedule) {
                return Ok(i);
            }
            profile.schedule_deep_compares += 1;
            if **interned == *schedule {
                return Ok(i);
            }
        }
        let costs = build_cost_table(&workload.graph, &schedule, self.acc, self.cost, self.metric);
        profile.cost_tables_built += 1;
        profile.cost_table_entries += costs.len() as u64;
        let entry = CompiledSchedule {
            max_occ: max_occupancy(self.acc, &costs),
            schedule,
            costs,
            interned: workload.compiled.is_none(),
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.pool[i as usize] = entry;
                i
            }
            None => {
                self.pool.push(entry);
                (self.pool.len() - 1) as u32
            }
        };
        if workload.compiled.is_none() {
            workload.compiled = Some(i);
        }
        Ok(i)
    }

    /// Lets go of a row's pool entry; a non-interned one goes back to the
    /// free list.
    fn release(&mut self, i: u32) {
        if i != NOT_COMPILED && !self.pool[i as usize].interned {
            self.free.push(i);
        }
    }
}

/// Metadata of an admitted frame, joined with the core's timeline once
/// the frame completes.
struct PendingFrame {
    handle: u32,
    stream: u32,
    seq: u32,
    /// Interned workload the frame was admitted with.
    workload: u32,
}

/// The trace-source stage: the spec-derived (or fleet-routed) trace
/// merged with the arrivals the engine injects for chained streams. Token
/// `seq + 1` of a chained stream arrives `gap_s` after token `seq`
/// completes, so its time is a function of the schedule and no
/// spec-derived trace can carry it. Events come out in
/// [`Event::order_key`] order, an injected event first on exact key
/// equality (which cannot occur: a chained stream's trace carries only
/// its seq-0 start).
struct TraceSource<I: Iterator<Item = Event>> {
    trace: std::iter::Peekable<I>,
    injected: BinaryHeap<Reverse<ByKey>>,
}

impl<I: Iterator<Item = Event>> TraceSource<I> {
    /// Whether the next event is an injected one (`None` once both
    /// sources are exhausted).
    fn injected_first(&mut self) -> Option<bool> {
        match (self.trace.peek(), self.injected.peek()) {
            (None, None) => None,
            (Some(e), Some(Reverse(ByKey(i)))) => Some(i.order_key() <= e.order_key()),
            (e, _) => Some(e.is_none()),
        }
    }

    /// The next event, left pending.
    fn peek(&mut self) -> Option<Event> {
        if self.injected_first()? {
            self.injected.peek().map(|Reverse(ByKey(e))| *e)
        } else {
            self.trace.peek().copied()
        }
    }
}

impl<I: Iterator<Item = Event>> Iterator for TraceSource<I> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        if self.injected_first()? {
            self.injected.pop().map(|Reverse(ByKey(e))| e)
        } else {
            self.trace.next()
        }
    }
}

/// One run's state. [`StreamSimulator::replay`] drives it through four
/// stages: the [`TraceSource`] yields the events, admission
/// ([`Run::admit`]) compiles and admits each arrival and applies each
/// swap, commit ([`Run::advance`]) runs the core up to an instant and
/// harvests the frames that completed, and the [`Collector`] builds the
/// report.
struct Run<'r, 'w, S, I: Iterator<Item = Event>> {
    policy: ReschedulePolicy,
    specs: &'w [StreamSpec],
    compiler: Compiler<'r, 'w, S>,
    rows: Vec<StreamRow>,
    /// One entry per stream when any stream is chained, else empty.
    chains: Vec<Option<Chain>>,
    source: TraceSource<I>,
    core: EventCore<'r>,
    pending: Vec<PendingFrame>,
    col: Collector,
    profile: HotPathProfile,
    timed: bool,
}

impl<'r, 'w, S: Scheduler, I: Iterator<Item = Event>> Run<'r, 'w, S, I> {
    fn new(
        sim: &StreamSimulator<'r>,
        scheduler: &'r S,
        stats: &'r EvalStats,
        specs: &'w [StreamSpec],
        trace: I,
        col: Collector,
        timed: bool,
    ) -> Self {
        let mut profile = HotPathProfile::default();
        let mut compiler = Compiler {
            scheduler,
            acc: sim.acc,
            cost: sim.cost,
            metric: sim.metric,
            stats,
            workloads: Vec::new(),
            pool: Vec::new(),
            free: Vec::new(),
        };
        // Chain-free scenarios keep no chain table, so the trace source
        // never injects and harvest skips every chain check.
        let has_chained = specs
            .iter()
            .any(|s| matches!(s.arrival(), ArrivalProcess::Chained { .. }));
        let mut chains: Vec<Option<Chain>> = Vec::new();

        // Intern workloads by structure: a million streams instantiated
        // from a handful of shared workloads build (and fingerprint) one
        // graph and one cost table per distinct workload, not per
        // stream. Each stream still tracks its own compiled schedule and
        // calls the scheduler exactly as often, so compile/cache-hit
        // counts are unchanged.
        let mut rows: Vec<StreamRow> = Vec::with_capacity(specs.len());
        for s in specs {
            rows.push(StreamRow {
                workload: compiler.intern(s.workload(), &mut profile),
                compiled: NOT_COMPILED,
                deadline_s: s.deadline_s().unwrap_or(f64::INFINITY),
                agg: StreamAgg::default(),
            });
            if !has_chained {
                continue;
            }
            let ArrivalProcess::Chained { gap_s, tokens, .. } = *s.arrival() else {
                chains.push(None);
                continue;
            };
            let mut slots: Vec<TokenSlot> = Vec::new();
            let mut token_map: Vec<usize> = Vec::with_capacity(s.token_workloads().len());
            for tw in s.token_workloads() {
                let w = compiler.intern(tw, &mut profile);
                let slot = match slots.iter().position(|slot| slot.workload == w) {
                    Some(i) => i,
                    None => {
                        slots.push(TokenSlot {
                            workload: w,
                            compiled: NOT_COMPILED,
                        });
                        slots.len() - 1
                    }
                };
                token_map.push(slot);
            }
            chains.push(Some(Chain {
                gap_s,
                tokens,
                slots,
                token_map,
            }));
        }
        Self {
            policy: sim.policy,
            specs,
            compiler,
            rows,
            chains,
            source: TraceSource {
                trace: trace.peekable(),
                injected: BinaryHeap::new(),
            },
            core: EventCore::with_timeline(sim.acc, col.timeline(sim.acc.sub_accelerators().len())),
            pending: Vec::new(),
            col,
            profile,
            timed,
        }
    }

    /// The admission stage: the online scheduling decision for one event.
    /// An arrival admits its frame against the core's cached occupancy
    /// under the stream's compiled schedule; a swap recompiles the
    /// stream's schedule for its new workload.
    fn admit(&mut self, event: Event) -> Result<(), HeraldError> {
        self.profile.events += 1;
        let row = &mut self.rows[event.stream];
        match event.kind {
            EventKind::Arrival { seq } => {
                // Incremental: serve the stream's dirty-tracked compiled
                // schedule (compiling it on first use). Full-reschedule:
                // compile fresh at every arrival (a pending eager swap
                // recompile is consumed by the first post-swap arrival,
                // as the scheduler is deterministic).
                let t0 = self.timed.then(Instant::now);
                // A chained stream with per-token workloads resolves this
                // token's slot (same-bucket tokens share the compiled
                // schedule); every other stream uses its row's single
                // dirty-tracked slot.
                let (workload, compiled_slot) = match self.chains.get_mut(event.stream) {
                    Some(Some(chain)) if !chain.token_map.is_empty() => {
                        let slot = &mut chain.slots[chain.token_map[seq]];
                        (slot.workload, &mut slot.compiled)
                    }
                    _ => (row.workload, &mut row.compiled),
                };
                let compiled = match self.policy {
                    ReschedulePolicy::Incremental => {
                        if *compiled_slot == NOT_COMPILED {
                            *compiled_slot = self.compiler.compile(workload, &mut self.profile)?;
                        } else {
                            self.profile.schedule_cache_hits += 1;
                        }
                        *compiled_slot
                    }
                    ReschedulePolicy::FullReschedule => {
                        match std::mem::replace(compiled_slot, NOT_COMPILED) {
                            NOT_COMPILED => self.compiler.compile(workload, &mut self.profile)?,
                            compiled => compiled,
                        }
                    }
                };
                if let Some(t0) = t0 {
                    self.profile.compile_ns += t0.elapsed().as_nanos() as u64;
                }
                let t0 = self.timed.then(Instant::now);
                let entry = &self.compiler.pool[compiled as usize];
                let handle = self
                    .core
                    .admit_with_costs(
                        GraphRef::Shared(Arc::clone(
                            &self.compiler.workloads[workload as usize].graph,
                        )),
                        ScheduleRef::Shared(Arc::clone(&entry.schedule)),
                        Arc::clone(&entry.costs),
                        entry.max_occ,
                        event.t,
                    )
                    .map_err(HeraldError::Simulation)?;
                if self.policy == ReschedulePolicy::FullReschedule {
                    self.compiler.release(compiled);
                }
                if let Some(t0) = t0 {
                    self.profile.admit_ns += t0.elapsed().as_nanos() as u64;
                }
                self.profile.admissions += 1;
                self.pending.push(PendingFrame {
                    handle: handle as u32,
                    stream: event.stream as u32,
                    seq: seq as u32,
                    workload,
                });
            }
            EventKind::Swap { swap_index } => {
                let swap = &self.specs[event.stream].swaps()[swap_index];
                let to = self.compiler.intern(&swap.workload, &mut self.profile);
                // The swap dirties exactly this stream's compiled
                // schedule; recompile eagerly at the change event
                // (modeling the runtime recompiling on deployment
                // changes). Other streams' memos are untouched.
                let t0 = self.timed.then(Instant::now);
                let compiled = self.compiler.compile(to, &mut self.profile)?;
                self.compiler
                    .release(std::mem::replace(&mut row.compiled, compiled));
                if let Some(t0) = t0 {
                    self.profile.compile_ns += t0.elapsed().as_nanos() as u64;
                }
                let names = &self.compiler.workloads;
                self.col.swap(SwapRecord {
                    stream: event.stream,
                    at_s: event.t,
                    from: Arc::clone(&names[row.workload as usize].name),
                    to: Arc::clone(&names[to as usize].name),
                });
                row.workload = to;
            }
        }
        Ok(())
    }

    /// The commit stage: runs the core up to `t`, then harvests every
    /// completed frame into the collector, in pending order. A completed
    /// token of a chained stream injects its successor's arrival `gap_s`
    /// after its finish.
    fn advance(&mut self, t: f64) -> Result<(), HeraldError> {
        let t0 = self.timed.then(Instant::now);
        self.core.run_until(t).map_err(HeraldError::Simulation)?;
        if let Some(t0) = t0 {
            self.profile.run_ns += t0.elapsed().as_nanos() as u64;
        }
        let t0 = self.timed.then(Instant::now);
        let mut i = 0;
        while i < self.pending.len() {
            if !self.core.frame_done(self.pending[i].handle as usize) {
                i += 1;
                continue;
            }
            let p = self.pending.remove(i);
            let stream = p.stream as usize;
            let done = self.core.take_frame(p.handle as usize);
            if let Some(Some(chain)) = self.chains.get(stream) {
                if (p.seq as usize) + 1 < chain.tokens {
                    self.source.injected.push(Reverse(ByKey(Event {
                        t: done.finish_s + chain.gap_s,
                        stream,
                        kind: EventKind::Arrival {
                            seq: p.seq as usize + 1,
                        },
                    })));
                }
            }
            let row = &mut self.rows[stream];
            let workload = &self.compiler.workloads[p.workload as usize].name;
            let seq = p.seq as usize;
            self.col
                .record(stream, seq, workload, &done, &mut row.agg, row.deadline_s);
        }
        if let Some(t0) = t0 {
            self.profile.harvest_ns += t0.elapsed().as_nanos() as u64;
        }
        Ok(())
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
            admission_batch: ADMISSION_BATCH,
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
        let names = scenario.streams().iter().map(|s| s.name().to_string());
        let col = Collector::new(
            scenario.name(),
            Arc::new(names.collect()),
            scenario.horizon_s(),
            self.report,
        );
        let trace = MergedTrace::new(scenario);
        self.replay(scheduler, scenario.streams(), trace, col, timed)
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
        let names = Arc::clone(routed.stream_names);
        let col = Collector::new(routed.name, names, routed.horizon_s, self.report);
        let trace = RoutedTraceIter::new(routed);
        self.replay(scheduler, routed.streams, trace, col, timed)
    }

    /// Drives one run through its stages: per commit window, chain-safe
    /// stepping, one commit up to the next event, then a batch of
    /// admissions; then the drain and the report.
    fn replay<S: Scheduler>(
        &self,
        scheduler: &S,
        specs: &[StreamSpec],
        trace: impl Iterator<Item = Event>,
        col: Collector,
        timed: bool,
    ) -> Result<(StreamReport, HotPathProfile), HeraldError> {
        let local_stats = EvalStats::default();
        let stats = self.ctx.map_or(&local_stats, EvalContext::stats);
        let (placement_before, stats_before) = (stats.placement_evals(), stats.snapshot());
        let mut run = Run::new(self, scheduler, stats, specs, trace, col, timed);
        loop {
            // Chain-safe stepping: while the core's next commit precedes
            // the next event, advance commit by commit, so a chained
            // completion injects its successor arrival before the core
            // runs past it. Each commit made here starts at or before the
            // next event, and an injection lands at `finish + gap >
            // finish >= the committing start`, so no injected arrival is
            // ever discovered in the core's past.
            while !run.chains.is_empty() {
                let bound = run.source.peek().map_or(f64::INFINITY, |e| e.t);
                match run.core.next_commit_start() {
                    Some(ncs) if ncs <= bound => run.advance(ncs)?,
                    _ => break,
                }
            }
            let Some(first) = run.source.peek() else {
                break;
            };
            run.advance(first.t)?;
            // Batched admission: admit this event, then keep admitting
            // while the next one lands at or before the core's next
            // pending commit — every skipped `run_until` would have been
            // a no-op, and same-instant ties break by admission order
            // exactly as in the event-at-a-time walk, so any batch extent
            // is bit-identical.
            run.profile.admission_batches += 1;
            let mut batch_events = 0usize;
            loop {
                let event = run.source.next().expect("peeked above");
                run.admit(event)?;
                batch_events += 1;
                if batch_events >= self.admission_batch {
                    break;
                }
                match run.source.peek() {
                    Some(next)
                        if next.t <= run.core.next_commit_start().unwrap_or(f64::INFINITY) => {}
                    _ => break,
                }
            }
            run.profile.max_batch_events = run.profile.max_batch_events.max(batch_events as u64);
        }
        run.advance(f64::INFINITY)?;
        debug_assert!(run.pending.is_empty(), "all frames complete after drain");
        debug_assert!(
            run.source.injected.is_empty(),
            "all chained tokens admitted"
        );

        let Run {
            rows,
            mut core,
            col,
            mut profile,
            ..
        } = run;
        let after = stats.snapshot();
        profile.fingerprint_lookups = after.fingerprint_lookups - stats_before.fingerprint_lookups;
        profile.fingerprint_hits = after.fingerprint_hits - stats_before.fingerprint_hits;
        profile.fingerprint_collisions =
            after.fingerprint_collisions - stats_before.fingerprint_collisions;
        profile.verify_graph_walks = after.verify_graph_walks - stats_before.verify_graph_walks;
        core.record_counters(&mut profile);
        let placements = stats.placement_evals() - placement_before;
        let aggs = rows.iter().map(|row| row.agg);
        let report = col.finish(&mut core, aggs, placements, &mut profile);
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
            // Calendar buckets: several streams per bucket, ...
            herald_workloads::diurnal_fleet_stream(2000, 40.0, 120.0, 0.05, 0.1, 29),
            // ... every event in bucket 0, ...
            (0..300).fold(Scenario::new("one-shots", 0.1), |s, i| {
                s.stream(StreamSpec::one_shot(format!("o{i}"), w()))
            }),
            // ... arrivals exactly on bucket boundaries (n streams at n
            // fps over 1 s: arrival k of every stream lands on the lower
            // edge of bucket k), ...
            (0..40).fold(Scenario::new("boundaries", 1.0), |s, i| {
                s.stream(StreamSpec::periodic(format!("p{i}"), w(), 40.0))
            }),
            // ... duplicate times within a stream and across streams,
            // with -0.0 in a later stream than 0.0, ...
            Scenario::new("signed-zero-traces", 0.1)
                .stream(StreamSpec::new(
                    "a",
                    w(),
                    ArrivalProcess::Trace {
                        times_s: vec![0.0, 0.0, 0.025, 0.05, 0.05],
                    },
                ))
                .stream(StreamSpec::new(
                    "b",
                    w(),
                    ArrivalProcess::Trace {
                        times_s: vec![-0.0, -0.0, 0.0, 0.025, 0.05, 0.075],
                    },
                ))
                .stream(StreamSpec::new(
                    "c",
                    w(),
                    ArrivalProcess::Trace {
                        times_s: vec![-0.0, 0.05, 0.05, 0.05],
                    },
                )),
            // ... swaps at -0.0, at 0.0 and on a bucket boundary (0.5 of a
            // 1 s horizon over 4 streams, also an arrival instant), ...
            Scenario::new("boundary-swaps", 1.0)
                .stream(StreamSpec::periodic("a", w(), 4.0).swap_at(0.0, w()))
                .stream(StreamSpec::periodic("b", w(), 4.0).swap_at(-0.0, w()))
                .stream(StreamSpec::periodic("c", w(), 4.0).swap_at(0.5, w()))
                .stream(StreamSpec::poisson("d", w(), 8.0, 31).swap_at(0.25, w())),
            // ... and a single stream (one bucket).
            Scenario::new("one-stream", 0.5).stream(
                StreamSpec::poisson("p", w(), 200.0, 23)
                    .swap_at(0.25, single_model(zoo::mobilenet_v2(), 1)),
            ),
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

    /// `order_key` packs the trace order into one integer: on every pair
    /// of an edge set it must compare exactly as the (time by
    /// `total_cmp`, kind rank, stream) tuple does.
    #[test]
    fn order_key_matches_the_tuple_order() {
        let times = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        let kinds = [
            EventKind::Swap { swap_index: 0 },
            EventKind::Swap { swap_index: 5 },
            EventKind::Arrival { seq: 0 },
            EventKind::Arrival { seq: 9 },
        ];
        let streams = [0, 1, u32::MAX as usize - 1, u32::MAX as usize];
        let mut events = Vec::new();
        for &t in &times {
            for &kind in &kinds {
                for &stream in &streams {
                    events.push(Event { t, stream, kind });
                }
            }
        }
        for a in &events {
            for b in &events {
                let (ta, ka, sa) = a.key();
                let (tb, kb, sb) = b.key();
                let tuple = ta.total_cmp(&tb).then(ka.cmp(&kb)).then(sa.cmp(&sb));
                assert_eq!(a.order_key().cmp(&b.order_key()), tuple, "{a:?} vs {b:?}");
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
            stream_names: &names,
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

        // Full rescheduling compiles at every arrival, A, B, A, B, ... in
        // arrival order. Each B is admitted from an entry of its own,
        // which goes back to the pool after its one admission.
        let scheduler = AlternatingScheduler {
            issued: std::cell::RefCell::new(Vec::new()),
        };
        let (report, profile) = StreamSimulator::new(&acc, &cost)
            .with_policy(ReschedulePolicy::FullReschedule)
            .simulate_profiled(&scheduler, &scenario)
            .unwrap();
        let issued = scheduler.issued.into_inner();
        assert_eq!(issued.len(), report.frames().len());
        assert_eq!(profile.cost_tables_built as usize, 1 + issued.len() / 2);
        for (frame, schedule) in report.frames().iter().zip(&issued) {
            let expected = replay.simulate(schedule).unwrap().energy().total_j();
            assert_eq!(frame.energy_j.to_bits(), expected.to_bits());
        }
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
    fn commit_work_counters_are_exact_and_deterministic() {
        // On a 16 KiB buffer layer working sets collide and the
        // memory-aware scan settles some selections; on 4 MiB none does.
        let scenario = Scenario::new("work", 0.04)
            .stream(StreamSpec::periodic("a", tiny_workload(), 120.0))
            .stream(StreamSpec::periodic(
                "b",
                single_model(zoo::mobilenet_v2(), 1),
                90.0,
            ))
            .stream(StreamSpec::poisson("c", tiny_workload(), 100.0, 7));
        let tasks: Vec<u64> = scenario
            .streams()
            .iter()
            .map(|s| s.workload().total_layers() as u64)
            .collect();
        let edge = AcceleratorClass::Edge.resources();
        let cost = CostModel::default();
        for (gb, fallback) in [(4 << 20, false), (16 << 10, true)] {
            let res = herald_arch::HardwareResources::new(edge.pes, edge.bandwidth_gbps, gb);
            let acc = AcceleratorConfig::maelstrom(
                res,
                herald_arch::Partition::even(2, res.pes, res.bandwidth_gbps),
            )
            .unwrap();
            let run = || {
                StreamSimulator::new(&acc, &cost)
                    .simulate_profiled(&HeraldScheduler::default(), &scenario)
                    .unwrap()
            };
            let work =
                |p: &HotPathProfile| (p.commits, p.selections, p.head_scans, p.fallback_scans);
            let (report, p) = run();
            let admitted: u64 = report.frames().iter().map(|f| tasks[f.stream]).sum();
            assert_eq!(p.admissions, report.frames().len() as u64, "{gb} B");
            assert_eq!(p.commits, admitted, "{gb} B");
            // A commit stales the last selection, so each commit follows
            // a fresh one; the probes that stop at an arrival add more.
            assert!(p.selections > p.commits, "{gb} B");
            // Every task is scanned at least once as a queue head.
            assert!(p.head_scans >= p.commits, "{gb} B");
            assert_eq!(p.fallback_scans > 0, fallback, "{gb} B");
            assert!(p.fallback_scans <= p.selections, "{gb} B");
            assert_eq!(work(&run().1), work(&p), "{gb} B");
        }
    }

    #[test]
    fn timers_never_change_the_work() {
        // A swap, a chained stream, a deadline stream and two streams
        // arriving together (batched admission) on a two-way chip, in
        // both report modes: the untimed run does the timed run's work,
        // counter for counter, and reports the same.
        let scenario = Scenario::new("timers", 0.06)
            .stream(
                StreamSpec::periodic("a", tiny_workload(), 120.0)
                    .swap_at(0.03, single_model(zoo::mobilenet_v2(), 1)),
            )
            .stream(StreamSpec::poisson("b", tiny_workload(), 90.0, 5).with_deadline(0.01))
            .stream(StreamSpec::chained("c", tiny_workload(), 0.01, 0.004, 4))
            .stream(StreamSpec::periodic("d", tiny_workload(), 120.0));
        let acc = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            herald_arch::Partition::even(2, 1024, 16.0),
        )
        .unwrap();
        let cost = CostModel::default();
        for mode in [ReportMode::Exact, ReportMode::sketch()] {
            let sim = StreamSimulator::new(&acc, &cost).with_report_mode(mode);
            let run = |timed| {
                sim.run(&HeraldScheduler::default(), &scenario, timed)
                    .unwrap()
            };
            let ((report, untimed), (timed_report, timed)) = (run(false), run(true));
            assert_eq!(report, timed_report, "{mode:?}");
            assert_eq!(report.swaps().len(), 1);
            assert!(timed.run_ns > 0 && timed.harvest_ns > 0 && timed.compile_ns > 0);
            assert!(timed.max_batch_events > 1, "{mode:?}");
            let zeroed = HotPathProfile {
                compile_ns: 0,
                admit_ns: 0,
                run_ns: 0,
                harvest_ns: 0,
                walk_ns: 0,
                ..timed
            };
            assert_eq!(untimed, zeroed, "{mode:?}");
        }
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

    #[test]
    fn batched_admission_is_bit_identical_to_per_event() {
        // Batch caps 1 (event-at-a-time), 7 (splits windows awkwardly) and
        // the default 32 must not change a single bit of the simulation,
        // whichever rescheduling policy runs above the core.
        let config = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            herald_arch::Partition::even(2, 1024, 16.0),
        )
        .unwrap();
        let scenarios = [
            herald_workloads::arvr_a_stream(1.0, 1.2),
            herald_workloads::workload_change_trace(2.0, 0.6, 2.0),
            herald_workloads::poisson_mix_stream(1.0, 0.5, 2024),
        ];
        for scenario in &scenarios {
            for policy in [
                ReschedulePolicy::Incremental,
                ReschedulePolicy::FullReschedule,
            ] {
                let run = |cap: usize| -> StreamReport {
                    let ctx = EvalContext::new();
                    let scheduler = HeraldScheduler::default();
                    let mut sim = StreamSimulator::new(&config, ctx.cost_model())
                        .with_policy(policy)
                        .with_context(&ctx);
                    sim.admission_batch = cap;
                    match policy {
                        ReschedulePolicy::Incremental => {
                            let inc =
                                crate::sched::IncrementalScheduler::new(scheduler, ctx.clone());
                            sim.simulate(&inc, scenario).unwrap()
                        }
                        ReschedulePolicy::FullReschedule => {
                            sim.simulate(&scheduler, scenario).unwrap()
                        }
                    }
                };
                let per_event = run(1);
                let label = format!("{} under {policy:?}", scenario.name());
                assert_eq!(
                    per_event,
                    run(7),
                    "{label}: batch cap 7 diverged from per-event admission"
                );
                assert_eq!(
                    per_event,
                    run(ADMISSION_BATCH),
                    "{label}: default batching diverged from per-event admission"
                );
            }
        }
    }
}
