//! The shared evaluation context: one [`CostModel`], one schedule memo
//! and one set of evaluation counters threaded through the whole
//! pipeline.
//!
//! Before this module existed every layer of the stack cold-started its
//! own state: `DseEngine::co_optimize` built a fresh [`CostModel`] per
//! sweep (and another per refinement pass), and the streaming engine
//! re-ran the full scheduler at every frame arrival. An [`EvalContext`]
//! makes that state *shared and persistent*:
//!
//! * the **cost model** memo survives across DSE candidates, refinement
//!   rounds, facade `run()` / `scenario()` calls and streaming frames;
//! * the **schedule memo** ([`ScheduleState`]) caches whole schedules
//!   keyed by the *exact* inputs that determine them — the task graph's
//!   layers and dependence edges, the accelerator's sub-array slices and
//!   the scheduler configuration — so a cache hit is bit-identical to a
//!   recomputation by construction;
//! * the **counters** ([`EvalStats`]) make the reuse observable:
//!   placement evaluations, full scheduler runs, schedule-cache hits and
//!   deduplicated DSE candidates.
//!
//! `EvalContext` is a cheap clonable handle (`Arc` inside): clones share
//! the same memos and counters, so the facade, the DSE engine and the
//! streaming simulator can all record into one context. All state is
//! thread-safe; DSE worker threads may use the context concurrently.

use crate::exec::Schedule;
use crate::sched::SchedulerConfig;
use crate::task::TaskGraph;
use herald_arch::AcceleratorConfig;
use herald_cost::CostModel;
use herald_dataflow::DataflowStyle;
use herald_models::{LayerDims, LayerOp};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Monotonic evaluation counters shared by every pipeline stage that a
/// context is threaded through.
///
/// All counters are relaxed atomics: they are metrics, not
/// synchronization, and may be bumped concurrently from DSE workers.
#[derive(Debug, Default)]
pub struct EvalStats {
    placement_evals: AtomicU64,
    scheduler_runs: AtomicU64,
    schedule_cache_hits: AtomicU64,
    dedup_skips: AtomicU64,
    fingerprint_lookups: AtomicU64,
    fingerprint_hits: AtomicU64,
    fingerprint_collisions: AtomicU64,
    verify_graph_walks: AtomicU64,
}

impl EvalStats {
    /// Records `n` per-(task, sub-accelerator) placement cost
    /// evaluations made by the scheduler's assignment loop.
    pub fn record_placement_evals(&self, n: u64) {
        self.placement_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one full run of the placement core (a schedule computed
    /// from scratch).
    pub fn record_scheduler_run(&self) {
        self.scheduler_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one schedule served from a memo instead of a full run.
    pub fn record_schedule_cache_hit(&self) {
        self.schedule_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one DSE candidate skipped because it was already
    /// evaluated in an earlier sweep or refinement round.
    pub fn record_dedup_skip(&self) {
        self.dedup_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fingerprint-first memo probe.
    pub fn record_fingerprint_lookup(&self) {
        self.fingerprint_lookups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one memo hit served via the fingerprint fast path (the
    /// stored structural key verified the match).
    pub fn record_fingerprint_hit(&self) {
        self.fingerprint_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` fingerprint bucket entries whose structural key did
    /// *not* match the live inputs (128-bit collisions, treated as
    /// misses).
    pub fn record_fingerprint_collisions(&self, n: u64) {
        self.fingerprint_collisions.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` full walks of a live task graph made to verify memo
    /// entries (see [`ScheduleState::lookup`]).
    pub fn record_verify_graph_walks(&self, n: u64) {
        self.verify_graph_walks.fetch_add(n, Ordering::Relaxed);
    }

    /// Per-(task, sub-accelerator) placement cost evaluations so far.
    pub fn placement_evals(&self) -> u64 {
        self.placement_evals.load(Ordering::Relaxed)
    }

    /// Full placement-core runs so far.
    pub fn scheduler_runs(&self) -> u64 {
        self.scheduler_runs.load(Ordering::Relaxed)
    }

    /// Schedules served from a memo so far.
    pub fn schedule_cache_hits(&self) -> u64 {
        self.schedule_cache_hits.load(Ordering::Relaxed)
    }

    /// DSE candidates skipped as already seen so far.
    pub fn dedup_skips(&self) -> u64 {
        self.dedup_skips.load(Ordering::Relaxed)
    }

    /// Fingerprint-first memo probes so far.
    pub fn fingerprint_lookups(&self) -> u64 {
        self.fingerprint_lookups.load(Ordering::Relaxed)
    }

    /// Memo hits served via the fingerprint fast path so far.
    pub fn fingerprint_hits(&self) -> u64 {
        self.fingerprint_hits.load(Ordering::Relaxed)
    }

    /// Fingerprint collisions caught by key verification so far.
    pub fn fingerprint_collisions(&self) -> u64 {
        self.fingerprint_collisions.load(Ordering::Relaxed)
    }

    /// Full verify-on-hit graph walks so far.
    pub fn verify_graph_walks(&self) -> u64 {
        self.verify_graph_walks.load(Ordering::Relaxed)
    }

    /// A consistent point-in-time copy of all counters.
    pub fn snapshot(&self) -> EvalSnapshot {
        EvalSnapshot {
            placement_evals: self.placement_evals(),
            scheduler_runs: self.scheduler_runs(),
            schedule_cache_hits: self.schedule_cache_hits(),
            dedup_skips: self.dedup_skips(),
            fingerprint_lookups: self.fingerprint_lookups(),
            fingerprint_hits: self.fingerprint_hits(),
            fingerprint_collisions: self.fingerprint_collisions(),
            verify_graph_walks: self.verify_graph_walks(),
        }
    }
}

/// A point-in-time copy of [`EvalStats`], for before/after deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalSnapshot {
    /// Per-(task, sub-accelerator) placement cost evaluations.
    pub placement_evals: u64,
    /// Full placement-core runs.
    pub scheduler_runs: u64,
    /// Schedules served from a memo.
    pub schedule_cache_hits: u64,
    /// DSE candidates skipped as already seen.
    pub dedup_skips: u64,
    /// Fingerprint-first memo probes.
    pub fingerprint_lookups: u64,
    /// Memo hits served via the fingerprint fast path.
    pub fingerprint_hits: u64,
    /// Fingerprint collisions caught by key verification.
    pub fingerprint_collisions: u64,
    /// Full verify-on-hit graph walks.
    pub verify_graph_walks: u64,
}

/// A deterministic 128-bit fingerprint of the exact inputs that
/// determine a schedule — the memo's fast-path key.
///
/// Two structurally equal [`ScheduleKey`]s always produce equal
/// fingerprints ([`ScheduleKey::fingerprint`] and
/// [`ScheduleFingerprint::of_inputs`] hash the same canonical word
/// stream), so a fingerprint probe can replace the deep structural
/// compare on the hot path. The converse does *not* hold in theory —
/// 128-bit collisions are possible — so every fingerprint hit is
/// verified against the stored structural key before the memoized
/// schedule is served ([`ScheduleState::lookup`]). Collisions are
/// counted ([`EvalStats::fingerprint_collisions`]) and degrade to
/// misses; they can never change results.
///
/// The hash is seed-free and platform-independent (two lanes of
/// SplitMix64-style mixing over explicit `u64` words), so fingerprints
/// are stable across runs — a requirement for deterministic replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScheduleFingerprint([u64; 2]);

impl Hash for ScheduleFingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0[0]);
        state.write_u64(self.0[1]);
    }
}

/// The memo map's hasher. Its key is already a well-mixed 128-bit hash of
/// the caller's own inputs, so it XORs the two words instead of running
/// them through a keyed (SipHash) hash. Nothing iterates the map, so the
/// hash never reaches a result.
#[derive(Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 ^= i;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl ScheduleFingerprint {
    /// The raw 128 bits, for diagnostics.
    pub fn to_words(self) -> [u64; 2] {
        self.0
    }

    /// Fingerprints the live scheduling inputs without building a
    /// [`ScheduleKey`] (no allocation; the graph's structural section is
    /// cached inside the [`TaskGraph`] after the first call).
    pub fn of_inputs(
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cfg: &SchedulerConfig,
        cost: &CostModel,
    ) -> Self {
        let mut st = FingerprintState::new();
        st.absorb(graph.structural_fingerprint());
        let slices = acc.sub_accelerators();
        st.word(slices.len() as u64);
        for s in slices {
            st.word(style_code(s.style()));
            st.word(u64::from(s.pes()));
            st.word(s.bandwidth_gbps().to_bits());
            st.word(u64::from(s.is_reconfigurable()));
            st.word(u64::from(s.has_sparse_gating()));
        }
        st.word(acc.global_buffer_bytes());
        for w in cost.config().fingerprint() {
            st.word(w);
        }
        absorb_sched_config(&mut st, cfg);
        Self(st.finish())
    }
}

/// Computes the graph-structure section of a schedule fingerprint by
/// traversing the live graph. Must emit the same word stream as the
/// stored-key path in [`ScheduleKey::fingerprint`].
pub(crate) fn graph_fingerprint(graph: &TaskGraph) -> [u64; 2] {
    let mut st = FingerprintState::new();
    st.word(graph.len() as u64);
    for t in graph.ids() {
        let layer = graph.layer(t);
        absorb_layer(
            &mut st,
            layer.dims(),
            layer.op(),
            layer.density().to_bits(),
            layer.seq_position(),
        );
    }
    let mut edges = 0u64;
    for t in graph.ids() {
        for d in graph.deps(t) {
            st.word(((t.0 as u64) << 32) | d.0 as u64);
            edges += 1;
        }
    }
    st.word(edges);
    st.word(graph.num_instances() as u64);
    for i in 0..graph.num_instances() {
        st.word(graph.instance_first_task(i).0 as u64);
    }
    [st.a, st.b]
}

/// Two-lane deterministic streaming hasher over `u64` words.
struct FingerprintState {
    a: u64,
    b: u64,
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FingerprintState {
    const LANE_A_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    const LANE_B_SEED: u64 = 0x2545_f491_4f6c_dd1d;

    fn new() -> Self {
        Self {
            a: Self::LANE_A_SEED,
            b: Self::LANE_B_SEED,
        }
    }

    fn word(&mut self, w: u64) {
        self.a = mix64(self.a ^ w);
        self.b = mix64(self.b.rotate_left(23) ^ w.wrapping_mul(Self::LANE_A_SEED));
    }

    fn absorb(&mut self, pair: [u64; 2]) {
        self.word(pair[0]);
        self.word(pair[1]);
    }

    fn finish(self) -> [u64; 2] {
        [
            mix64(self.a ^ self.b.rotate_left(32)),
            mix64(self.b ^ self.a.rotate_left(17)),
        ]
    }
}

fn absorb_layer(
    st: &mut FingerprintState,
    dims: &LayerDims,
    op: LayerOp,
    density_bits: u64,
    seq_position: u32,
) {
    st.word((u64::from(dims.k) << 32) | u64::from(dims.c));
    st.word((u64::from(dims.y) << 32) | u64::from(dims.x));
    st.word((u64::from(dims.r) << 32) | u64::from(dims.s));
    st.word((u64::from(dims.stride) << 32) | u64::from(dims.pad));
    st.word(op_code(op));
    // Density changes per-layer costs and sequence position marks
    // autoregressive variants, so sparse/dense and different-position
    // graphs must never share a memo slot.
    st.word(density_bits);
    st.word(u64::from(seq_position));
}

fn absorb_sched_config(st: &mut FingerprintState, cfg: &SchedulerConfig) {
    st.word(metric_code(cfg.metric));
    st.word(ordering_code(cfg.ordering));
    st.word(cfg.load_balance_factor.to_bits());
    st.word(cfg.lookahead as u64);
    st.word(u64::from(cfg.post_process));
    // Fusion granularity changes the placement unit, so fused and
    // unfused schedules of the same graph must never share a memo slot.
    st.word(cfg.fusion as u64);
}

/// Stable hash codes for the closed enum sets. Explicit (rather than
/// `as u64` on the discriminant) so reordering a declaration can never
/// silently change fingerprints.
fn op_code(op: LayerOp) -> u64 {
    match op {
        LayerOp::Conv2d => 0,
        LayerOp::PointwiseConv => 1,
        LayerOp::DepthwiseConv => 2,
        LayerOp::Fc => 3,
        LayerOp::TransposedConv => 4,
    }
}

fn style_code(style: DataflowStyle) -> u64 {
    match style {
        DataflowStyle::Nvdla => 0,
        DataflowStyle::ShiDianNao => 1,
        DataflowStyle::Eyeriss => 2,
    }
}

fn metric_code(metric: herald_cost::Metric) -> u64 {
    match metric {
        herald_cost::Metric::Edp => 0,
        herald_cost::Metric::Latency => 1,
        herald_cost::Metric::Energy => 2,
    }
}

fn ordering_code(ordering: crate::sched::OrderingPolicy) -> u64 {
    match ordering {
        crate::sched::OrderingPolicy::DepthFirst => 0,
        crate::sched::OrderingPolicy::BreadthFirst => 1,
    }
}

/// The exact inputs that determine a schedule, usable as a memo key.
///
/// A [`crate::sched::HeraldScheduler`] is a pure function of the task
/// graph (layer shapes and dependence edges), the accelerator
/// configuration (per-sub-array style / PE / bandwidth slices plus the
/// global buffer), the cost model's configuration and its own
/// configuration. This key captures all of them structurally — two keys
/// compare equal **iff** the scheduler would produce bit-identical
/// schedules, so memo hits can never change results.
///
/// On the hot path the memo is probed by [`ScheduleFingerprint`]
/// instead; the full structural key is retained behind the fingerprint
/// for collision verification (see [`ScheduleState::lookup`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScheduleKey {
    /// One entry per task: the layer it executes, its bit-exact density
    /// and its sequence position (autoregressive variant marker).
    layers: Vec<(LayerDims, LayerOp, u64, u32)>,
    /// Flattened dependence edges `(consumer, producer)`.
    edges: Vec<(u32, u32)>,
    /// Task index of the first layer of each model instance.
    offsets: Vec<u32>,
    /// Per-sub-accelerator
    /// `(style, pes, bandwidth bits, reconfigurable, sparse gating)`.
    slices: Vec<(DataflowStyle, u32, u64, bool, bool)>,
    /// Global buffer capacity, bytes.
    global_buffer_bytes: u64,
    /// Bit-exact fingerprint of the cost-model configuration.
    cost: [u64; 11],
    /// Scheduler configuration, with float knobs captured bit-exactly:
    /// `(metric, ordering, lbf bits, lookahead, post_process, fusion)`.
    sched: (
        herald_cost::Metric,
        crate::sched::OrderingPolicy,
        u64,
        usize,
        bool,
        usize,
    ),
}

impl ScheduleKey {
    /// Builds the memo key for scheduling `graph` on `acc` under `cfg`
    /// with costs from `cost`.
    pub fn new(
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cfg: &SchedulerConfig,
        cost: &CostModel,
    ) -> Self {
        let mut layers = Vec::with_capacity(graph.len());
        let mut edges = Vec::new();
        for t in graph.ids() {
            let layer = graph.layer(t);
            layers.push((
                *layer.dims(),
                layer.op(),
                layer.density().to_bits(),
                layer.seq_position(),
            ));
            for d in graph.deps(t) {
                edges.push((t.0 as u32, d.0 as u32));
            }
        }
        let offsets = (0..graph.num_instances())
            .map(|i| graph.instance_tasks(i)[0].0 as u32)
            .collect();
        let slices = acc
            .sub_accelerators()
            .iter()
            .map(|s| {
                (
                    s.style(),
                    s.pes(),
                    s.bandwidth_gbps().to_bits(),
                    s.is_reconfigurable(),
                    s.has_sparse_gating(),
                )
            })
            .collect();
        Self {
            layers,
            edges,
            offsets,
            slices,
            global_buffer_bytes: acc.global_buffer_bytes(),
            cost: cost.config().fingerprint(),
            sched: (
                cfg.metric,
                cfg.ordering,
                cfg.load_balance_factor.to_bits(),
                cfg.lookahead,
                cfg.post_process,
                cfg.fusion,
            ),
        }
    }

    /// The 128-bit fingerprint of this key. Hashes the same canonical
    /// word stream as [`ScheduleFingerprint::of_inputs`], so
    /// `key.fingerprint() == ScheduleFingerprint::of_inputs(..)` holds
    /// for the inputs the key was built from (pinned by a unit test).
    pub fn fingerprint(&self) -> ScheduleFingerprint {
        let mut gst = FingerprintState::new();
        gst.word(self.layers.len() as u64);
        for (dims, op, density_bits, seq) in &self.layers {
            absorb_layer(&mut gst, dims, *op, *density_bits, *seq);
        }
        for (t, d) in &self.edges {
            gst.word((u64::from(*t) << 32) | u64::from(*d));
        }
        gst.word(self.edges.len() as u64);
        gst.word(self.offsets.len() as u64);
        for o in &self.offsets {
            gst.word(u64::from(*o));
        }

        let mut st = FingerprintState::new();
        st.absorb([gst.a, gst.b]);
        st.word(self.slices.len() as u64);
        for (style, pes, bw_bits, reconf, gating) in &self.slices {
            st.word(style_code(*style));
            st.word(u64::from(*pes));
            st.word(*bw_bits);
            st.word(u64::from(*reconf));
            st.word(u64::from(*gating));
        }
        st.word(self.global_buffer_bytes);
        for w in self.cost {
            st.word(w);
        }
        let (metric, ordering, lbf_bits, lookahead, post, fusion) = self.sched;
        st.word(metric_code(metric));
        st.word(ordering_code(ordering));
        st.word(lbf_bits);
        st.word(lookahead as u64);
        st.word(u64::from(post));
        st.word(fusion as u64);
        ScheduleFingerprint(st.finish())
    }

    /// Whether this stored key matches the live scheduling inputs,
    /// compared field by field **without allocating** (the verify step
    /// behind every fingerprint hit). Equivalent to
    /// `*self == ScheduleKey::new(graph, acc, cfg, cost)`.
    pub fn matches_inputs(
        &self,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cfg: &SchedulerConfig,
        cost: &CostModel,
    ) -> bool {
        self.matches_config(acc, cfg, cost) && self.matches_graph(graph)
    }

    /// The O(ways) part of [`ScheduleKey::matches_inputs`]: the
    /// accelerator, cost-model and scheduler sections.
    fn matches_config(
        &self,
        acc: &AcceleratorConfig,
        cfg: &SchedulerConfig,
        cost: &CostModel,
    ) -> bool {
        if self.global_buffer_bytes != acc.global_buffer_bytes()
            || self.cost != cost.config().fingerprint()
            || self.sched
                != (
                    cfg.metric,
                    cfg.ordering,
                    cfg.load_balance_factor.to_bits(),
                    cfg.lookahead,
                    cfg.post_process,
                    cfg.fusion,
                )
        {
            return false;
        }
        let slices = acc.sub_accelerators();
        if self.slices.len() != slices.len()
            || self.slices.iter().zip(slices).any(|(k, s)| {
                *k != (
                    s.style(),
                    s.pes(),
                    s.bandwidth_gbps().to_bits(),
                    s.is_reconfigurable(),
                    s.has_sparse_gating(),
                )
            })
        {
            return false;
        }
        true
    }

    /// The O(tasks) part of [`ScheduleKey::matches_inputs`]: the graph's
    /// layers, dependence edges and instance offsets.
    fn matches_graph(&self, graph: &TaskGraph) -> bool {
        if self.layers.len() != graph.len() {
            return false;
        }
        if graph.ids().any(|t| {
            let layer = graph.layer(t);
            self.layers[t.0]
                != (
                    *layer.dims(),
                    layer.op(),
                    layer.density().to_bits(),
                    layer.seq_position(),
                )
        }) {
            return false;
        }
        let mut next_edge = 0usize;
        for t in graph.ids() {
            for d in graph.deps(t) {
                if self.edges.get(next_edge) != Some(&(t.0 as u32, d.0 as u32)) {
                    return false;
                }
                next_edge += 1;
            }
        }
        if next_edge != self.edges.len() {
            return false;
        }
        self.offsets.len() == graph.num_instances()
            && (0..graph.num_instances())
                .all(|i| self.offsets[i] as usize == graph.instance_first_task(i).0)
    }
}

/// Default bound on memoized schedules per context. Schedules are
/// O(tasks) small, so even the cap is only a few MiB — but a *bound*
/// keeps a context that lives across many experiments (the facade's
/// recommended pattern) from growing without limit.
pub const DEFAULT_SCHEDULE_CAPACITY: usize = 1024;

/// One memoized schedule behind its structural key.
#[derive(Debug)]
struct MemoEntry {
    key: ScheduleKey,
    schedule: Arc<Schedule>,
    /// [`TaskGraph::identity`] of the last graph whose walk matched the
    /// key's graph section (0 before any). A hit on a graph with this
    /// identity skips the walk.
    verified_graph: AtomicU64,
}

/// What one [`ScheduleState::lookup`] found, and the verification work it
/// did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoLookup {
    /// The verified schedule, shared with the memo entry (`None` on a
    /// miss).
    pub schedule: Option<Arc<Schedule>>,
    /// Entries that shared the fingerprint but failed verification.
    pub collisions: u64,
    /// Entries whose graph section was checked by a full walk of the live
    /// graph (the O(tasks) step an identity-verified entry skips).
    pub graph_walks: u64,
}

#[derive(Debug)]
struct ScheduleMap {
    /// Fingerprint-keyed buckets. Each bucket holds the full structural
    /// keys sharing a fingerprint (in insertion order) so hits can be
    /// verified; buckets are length 1 unless a 128-bit collision occurs.
    buckets: HashMap<ScheduleFingerprint, Vec<MemoEntry>, BuildHasherDefault<FingerprintHasher>>,
    /// Insertion order for FIFO eviction once `capacity` is reached.
    order: VecDeque<(ScheduleFingerprint, ScheduleKey)>,
    /// Total entries across all buckets.
    len: usize,
}

impl ScheduleMap {
    fn remove_entry(&mut self, fp: ScheduleFingerprint, key: &ScheduleKey) -> bool {
        let Some(bucket) = self.buckets.get_mut(&fp) else {
            return false;
        };
        let Some(pos) = bucket.iter().position(|e| e.key == *key) else {
            return false;
        };
        bucket.remove(pos);
        if bucket.is_empty() {
            self.buckets.remove(&fp);
        }
        self.len -= 1;
        true
    }
}

/// The persistent schedule memo: computed schedules keyed by their exact
/// inputs (see [`ScheduleKey`]), probed by 128-bit
/// [`ScheduleFingerprint`] with verify-on-hit, bounded to
/// [`DEFAULT_SCHEDULE_CAPACITY`] entries with FIFO eviction. Entries hold
/// their schedule as an `Arc`, so a hit hands out a pointer, not a copy.
#[derive(Debug)]
pub struct ScheduleState {
    inner: RwLock<ScheduleMap>,
    capacity: usize,
}

impl Default for ScheduleState {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SCHEDULE_CAPACITY)
    }
}

impl ScheduleState {
    /// A memo bounded to `capacity` entries (oldest evicted first).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: RwLock::new(ScheduleMap {
                buckets: HashMap::default(),
                order: VecDeque::new(),
                len: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// The eviction bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up a memoized schedule by structural key (slow path:
    /// fingerprints the key first; prefer [`ScheduleState::lookup`] on
    /// hot paths).
    pub fn get(&self, key: &ScheduleKey) -> Option<Schedule> {
        let fp = key.fingerprint();
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .buckets
            .get(&fp)?
            .iter()
            .find(|e| e.key == *key)
            .map(|e| Schedule::clone(&e.schedule))
    }

    /// The fingerprint-first memo probe: finds the bucket by `fp`, then
    /// verifies each candidate's stored structural key against the live
    /// inputs (alloc-free) before serving it.
    ///
    /// The accelerator, cost-model and scheduler sections are compared on
    /// every probe. The O(tasks) graph section is walked only when the
    /// entry has not yet matched this very graph or a clone of it (a
    /// [`TaskGraph`] carries a content identity its clones share), so the
    /// streams of a fleet that share one interned graph walk it once per
    /// entry. Only the last verified identity is kept per entry.
    pub fn lookup(
        &self,
        fp: ScheduleFingerprint,
        graph: &TaskGraph,
        acc: &AcceleratorConfig,
        cfg: &SchedulerConfig,
        cost: &CostModel,
    ) -> MemoLookup {
        let inner = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut found = MemoLookup::default();
        let Some(bucket) = inner.buckets.get(&fp) else {
            return found;
        };
        for entry in bucket {
            if entry.key.matches_config(acc, cfg, cost) {
                if entry.verified_graph.load(Ordering::Relaxed) == graph.identity() {
                    found.schedule = Some(Arc::clone(&entry.schedule));
                    return found;
                }
                found.graph_walks += 1;
                if entry.key.matches_graph(graph) {
                    entry
                        .verified_graph
                        .store(graph.identity(), Ordering::Relaxed);
                    found.schedule = Some(Arc::clone(&entry.schedule));
                    return found;
                }
            }
            found.collisions += 1;
        }
        found
    }

    /// Stores a computed schedule under its key, evicting the oldest
    /// entry when the memo is at capacity.
    pub fn insert(&self, key: ScheduleKey, schedule: Schedule) {
        self.insert_under(key.fingerprint(), key, Arc::new(schedule));
    }

    /// Stores a schedule under an explicitly supplied fingerprint
    /// (normally `key.fingerprint()`, precomputed by the caller; tests
    /// may force a mismatched fingerprint to exercise the verify-on-hit
    /// fallback). Later hits share `schedule`.
    pub fn insert_under(&self, fp: ScheduleFingerprint, key: ScheduleKey, schedule: Arc<Schedule>) {
        let mut inner = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bucket = inner.buckets.entry(fp).or_default();
        if let Some(entry) = bucket.iter_mut().find(|e| e.key == key) {
            entry.schedule = schedule;
            return;
        }
        bucket.push(MemoEntry {
            key: key.clone(),
            schedule,
            verified_graph: AtomicU64::new(0),
        });
        inner.len += 1;
        inner.order.push_back((fp, key));
        while inner.len > self.capacity {
            let Some((ofp, okey)) = inner.order.pop_front() else {
                break;
            };
            inner.remove_entry(ofp, &okey);
        }
    }

    /// Drops the memo entry for one key (e.g. when a stream's workload
    /// is swapped out and its old schedule can no longer be needed).
    /// Returns whether an entry existed.
    pub fn invalidate(&self, key: &ScheduleKey) -> bool {
        let fp = key.fingerprint();
        let mut inner = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let existed = inner.remove_entry(fp, key);
        if existed {
            inner.order.retain(|(f, k)| !(*f == fp && k == key));
        }
        existed
    }

    /// Number of memoized schedules.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized schedule.
    pub fn clear(&self) {
        let mut inner = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.buckets.clear();
        inner.order.clear();
        inner.len = 0;
    }
}

#[derive(Debug, Default)]
struct CtxInner {
    cost: CostModel,
    stats: EvalStats,
    schedules: ScheduleState,
}

/// The shared evaluation context (see the [module docs](self)).
///
/// Cloning is cheap and clones share state: pass clones to the DSE
/// engine, the incremental scheduler and the streaming simulator and
/// they all reuse one cost model, one schedule memo and one counter set.
///
/// # Example
///
/// ```
/// use herald_core::ctx::EvalContext;
///
/// let ctx = EvalContext::new();
/// let handle = ctx.clone();
/// handle.stats().record_scheduler_run();
/// // Clones share the same counters.
/// assert_eq!(ctx.stats().scheduler_runs(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EvalContext {
    inner: Arc<CtxInner>,
}

impl EvalContext {
    /// Creates a fresh context with an empty cost model, empty schedule
    /// memo and zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a context around a specific cost-model configuration.
    pub fn with_cost_model(cost: CostModel) -> Self {
        Self {
            inner: Arc::new(CtxInner {
                cost,
                stats: EvalStats::default(),
                schedules: ScheduleState::default(),
            }),
        }
    }

    /// The shared cost model (memoized per layer/style/slice query).
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    /// The shared evaluation counters.
    pub fn stats(&self) -> &EvalStats {
        &self.inner.stats
    }

    /// The persistent schedule memo.
    pub fn schedules(&self) -> &ScheduleState {
        &self.inner.schedules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{HeraldScheduler, Scheduler};
    use herald_arch::{AcceleratorClass, Partition};
    use herald_models::zoo;
    use herald_workloads::single_model;

    fn graph(replicas: usize) -> TaskGraph {
        TaskGraph::new(&single_model(zoo::mobilenet_v1(), replicas))
    }

    fn acc() -> AcceleratorConfig {
        AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            Partition::even(2, 1024, 16.0),
        )
        .unwrap()
    }

    #[test]
    fn keys_are_equal_for_equal_inputs_and_differ_otherwise() {
        let cfg = SchedulerConfig::default();
        let cost = CostModel::default();
        let a = ScheduleKey::new(&graph(1), &acc(), &cfg, &cost);
        let b = ScheduleKey::new(&graph(1), &acc(), &cfg, &cost);
        assert_eq!(a, b);
        // Different replica count -> different graph -> different key.
        let c = ScheduleKey::new(&graph(2), &acc(), &cfg, &cost);
        assert_ne!(a, c);
        // Different scheduler knobs -> different key.
        let other = SchedulerConfig {
            lookahead: 3,
            ..Default::default()
        };
        let d = ScheduleKey::new(&graph(1), &acc(), &other, &cost);
        assert_ne!(a, d);
        // Different accelerator -> different key.
        let fda = AcceleratorConfig::fda(
            herald_dataflow::DataflowStyle::Nvdla,
            AcceleratorClass::Edge.resources(),
        );
        let e = ScheduleKey::new(&graph(1), &fda, &cfg, &cost);
        assert_ne!(a, e);
        // Different cost-model configuration -> different key: a memo
        // warmed under one cost model must never serve another.
        let faster = CostModel::new(herald_cost::CostModelConfig {
            clock_ghz: 2.0,
            ..Default::default()
        });
        let f = ScheduleKey::new(&graph(1), &acc(), &cfg, &faster);
        assert_ne!(a, f);
    }

    #[test]
    fn schedule_state_round_trips_and_invalidates() {
        let ctx = EvalContext::new();
        let g = graph(1);
        let a = acc();
        let cfg = SchedulerConfig::default();
        let key = ScheduleKey::new(&g, &a, &cfg, ctx.cost_model());
        assert!(ctx.schedules().get(&key).is_none());
        assert!(ctx.schedules().is_empty());

        let schedule = HeraldScheduler::new(cfg)
            .schedule(&g, &a, ctx.cost_model())
            .unwrap();
        ctx.schedules().insert(key.clone(), schedule.clone());
        assert_eq!(ctx.schedules().len(), 1);
        assert_eq!(ctx.schedules().get(&key), Some(schedule));

        // Invalidation drops exactly this entry.
        assert!(ctx.schedules().invalidate(&key));
        assert!(!ctx.schedules().invalidate(&key));
        assert!(ctx.schedules().get(&key).is_none());
    }

    #[test]
    fn workload_swap_maps_to_a_distinct_key() {
        // A swapped-in workload must never see the old workload's memo
        // entry: the key is derived from the graph, so the two phases of
        // a swapped stream look up disjoint entries.
        let ctx = EvalContext::new();
        let cfg = SchedulerConfig::default();
        let a = acc();
        let before = TaskGraph::new(&single_model(zoo::mobilenet_v1(), 1));
        let after = TaskGraph::new(&single_model(zoo::mobilenet_v2(), 1));
        let key_before = ScheduleKey::new(&before, &a, &cfg, ctx.cost_model());
        let key_after = ScheduleKey::new(&after, &a, &cfg, ctx.cost_model());
        assert_ne!(key_before, key_after);
        let schedule = HeraldScheduler::new(cfg)
            .schedule(&before, &a, ctx.cost_model())
            .unwrap();
        ctx.schedules().insert(key_before, schedule);
        assert!(ctx.schedules().get(&key_after).is_none());
    }

    #[test]
    fn stats_snapshot_deltas() {
        let stats = EvalStats::default();
        let before = stats.snapshot();
        stats.record_placement_evals(10);
        stats.record_scheduler_run();
        stats.record_schedule_cache_hit();
        stats.record_schedule_cache_hit();
        stats.record_dedup_skip();
        let after = stats.snapshot();
        assert_eq!(after.placement_evals - before.placement_evals, 10);
        assert_eq!(after.scheduler_runs - before.scheduler_runs, 1);
        assert_eq!(after.schedule_cache_hits - before.schedule_cache_hits, 2);
        assert_eq!(after.dedup_skips - before.dedup_skips, 1);
    }

    #[test]
    fn memo_is_bounded_with_fifo_eviction() {
        // Distinct keys via distinct scheduler lookahead values: cheap
        // to build, guaranteed unequal.
        let state = ScheduleState::with_capacity(2);
        let g = graph(1);
        let a = acc();
        let cost = CostModel::default();
        let key_for = |lookahead: usize| {
            let cfg = SchedulerConfig {
                lookahead,
                ..Default::default()
            };
            ScheduleKey::new(&g, &a, &cfg, &cost)
        };
        let schedule = HeraldScheduler::new(SchedulerConfig::default())
            .schedule(&g, &a, &cost)
            .unwrap();
        state.insert(key_for(1), schedule.clone());
        state.insert(key_for(2), schedule.clone());
        assert_eq!(state.len(), 2);
        // Re-inserting an existing key does not evict anything.
        state.insert(key_for(2), schedule.clone());
        assert_eq!(state.len(), 2);
        assert!(state.get(&key_for(1)).is_some());
        // A third distinct key evicts the oldest (lookahead 1).
        state.insert(key_for(3), schedule);
        assert_eq!(state.len(), 2);
        assert!(state.get(&key_for(1)).is_none());
        assert!(state.get(&key_for(2)).is_some());
        assert!(state.get(&key_for(3)).is_some());
        assert_eq!(state.capacity(), 2);
    }

    #[test]
    fn fingerprint_of_inputs_matches_stored_key_fingerprint() {
        // The alloc-free live-input hash and the stored-key hash must
        // walk the same canonical word stream: a divergence would turn
        // every memo probe into a miss (correct but slow), so pin it.
        let cost = CostModel::default();
        let faster = CostModel::new(herald_cost::CostModelConfig {
            clock_ghz: 2.0,
            ..Default::default()
        });
        let fda = AcceleratorConfig::fda(
            herald_dataflow::DataflowStyle::ShiDianNao,
            AcceleratorClass::Edge.resources(),
        );
        let lookahead3 = SchedulerConfig {
            lookahead: 3,
            ..Default::default()
        };
        let fused4 = SchedulerConfig {
            fusion: 4,
            ..Default::default()
        };
        let cases: &[(&TaskGraph, &AcceleratorConfig, &SchedulerConfig, &CostModel)] = &[
            (&graph(1), &acc(), &SchedulerConfig::default(), &cost),
            (&graph(2), &acc(), &lookahead3, &cost),
            (&graph(1), &fda, &SchedulerConfig::default(), &faster),
            (&graph(1), &acc(), &fused4, &cost),
        ];
        for (g, a, cfg, c) in cases {
            let key = ScheduleKey::new(g, a, cfg, c);
            assert_eq!(
                key.fingerprint(),
                ScheduleFingerprint::of_inputs(g, a, cfg, c)
            );
            assert!(key.matches_inputs(g, a, cfg, c));
        }
        // Distinct inputs -> distinct fingerprints (the zoo's closed set
        // must not collide) and failed structural verification.
        let a =
            ScheduleFingerprint::of_inputs(&graph(1), &acc(), &SchedulerConfig::default(), &cost);
        let b =
            ScheduleFingerprint::of_inputs(&graph(2), &acc(), &SchedulerConfig::default(), &cost);
        let c = ScheduleFingerprint::of_inputs(&graph(1), &fda, &SchedulerConfig::default(), &cost);
        let d = ScheduleFingerprint::of_inputs(&graph(1), &acc(), &lookahead3, &cost);
        let e =
            ScheduleFingerprint::of_inputs(&graph(1), &acc(), &SchedulerConfig::default(), &faster);
        let fps = [a, b, c, d, e];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "fingerprints {i} and {j} collide");
            }
        }
        let key1 = ScheduleKey::new(&graph(1), &acc(), &SchedulerConfig::default(), &cost);
        assert!(!key1.matches_inputs(&graph(2), &acc(), &SchedulerConfig::default(), &cost));
        assert!(!key1.matches_inputs(&graph(1), &fda, &SchedulerConfig::default(), &cost));
        assert!(!key1.matches_inputs(&graph(1), &acc(), &lookahead3, &cost));
        assert!(!key1.matches_inputs(&graph(1), &acc(), &SchedulerConfig::default(), &faster));
        assert!(!key1.matches_inputs(&graph(1), &acc(), &fused4, &cost));
    }

    #[test]
    fn fused_and_unfused_schedules_never_share_a_memo_slot() {
        // The fusion granularity changes the placement unit, so two
        // configs differing only in `fusion` must map to distinct keys
        // AND distinct fingerprints — a collision would let a fused
        // schedule serve an unfused request bit-for-bit wrongly.
        let cost = CostModel::default();
        let g = graph(2);
        let a = acc();
        let cfgs: Vec<SchedulerConfig> = [1usize, 2, 3, 4, 8, 64]
            .iter()
            .map(|&fusion| SchedulerConfig {
                fusion,
                ..Default::default()
            })
            .collect();
        let keys: Vec<ScheduleKey> = cfgs
            .iter()
            .map(|cfg| ScheduleKey::new(&g, &a, cfg, &cost))
            .collect();
        for i in 0..cfgs.len() {
            // Stored-key and live-input hashing stay in lockstep for
            // every granularity.
            assert_eq!(
                keys[i].fingerprint(),
                ScheduleFingerprint::of_inputs(&g, &a, &cfgs[i], &cost),
                "fusion {}",
                cfgs[i].fusion
            );
            for j in i + 1..cfgs.len() {
                assert_ne!(keys[i], keys[j]);
                assert_ne!(
                    keys[i].fingerprint(),
                    keys[j].fingerprint(),
                    "fusion {} and {} collide",
                    cfgs[i].fusion,
                    cfgs[j].fusion
                );
                assert!(!keys[i].matches_inputs(&g, &a, &cfgs[j], &cost));
            }
        }
    }

    #[test]
    fn sparse_and_dense_variants_never_share_a_memo_slot() {
        // Density changes per-layer costs and sequence position marks
        // autoregressive variants of an identically-shaped graph; memo
        // aliasing across either axis would serve a dense schedule to a
        // sparse request (or token k's schedule to token j). Mirror of
        // the fusion-slot regression test for the new knobs.
        let cost = CostModel::default();
        let cfg = SchedulerConfig::default();
        let a = acc();
        let variants: Vec<TaskGraph> = [
            zoo::mobilenet_v1(),
            zoo::mobilenet_v1().with_uniform_density(0.5),
            zoo::mobilenet_v1().with_uniform_density(0.25),
            zoo::mobilenet_v1().map_layers(|l| l.with_seq_position(7)),
            zoo::mobilenet_v1().map_layers(|l| l.with_seq_position(8)),
        ]
        .into_iter()
        .map(|m| TaskGraph::new(&single_model(m, 1)))
        .collect();
        let keys: Vec<ScheduleKey> = variants
            .iter()
            .map(|g| ScheduleKey::new(g, &a, &cfg, &cost))
            .collect();
        for i in 0..variants.len() {
            // Stored-key and live-input hashing stay in lockstep for
            // every density/sequence variant.
            assert_eq!(
                keys[i].fingerprint(),
                ScheduleFingerprint::of_inputs(&variants[i], &a, &cfg, &cost),
                "variant {i}"
            );
            for j in i + 1..variants.len() {
                assert_ne!(keys[i], keys[j], "variants {i} and {j} share a key");
                assert_ne!(
                    keys[i].fingerprint(),
                    keys[j].fingerprint(),
                    "variants {i} and {j} collide"
                );
                assert!(!keys[i].matches_inputs(&variants[j], &a, &cfg, &cost));
            }
        }
        // Gated and ungated hardware must also key separately: the same
        // sparse graph schedules differently on each.
        let gated = acc().with_sparse_gating();
        let key_plain = ScheduleKey::new(&variants[1], &a, &cfg, &cost);
        let key_gated = ScheduleKey::new(&variants[1], &gated, &cfg, &cost);
        assert_ne!(key_plain, key_gated);
        assert_ne!(key_plain.fingerprint(), key_gated.fingerprint());
        assert!(!key_plain.matches_inputs(&variants[1], &gated, &cfg, &cost));
    }

    #[test]
    fn forced_fingerprint_collision_is_verified_and_counted() {
        // Two structurally different keys inserted under ONE fingerprint
        // simulate a 128-bit collision. The verify-on-hit step must
        // serve each set of inputs its own schedule (never the
        // colliding neighbour's) and report the mismatches scanned.
        let state = ScheduleState::default();
        let cost = CostModel::default();
        let cfg = SchedulerConfig::default();
        let a = acc();
        let g1 = graph(1);
        let g2 = graph(2);
        let key1 = ScheduleKey::new(&g1, &a, &cfg, &cost);
        let key2 = ScheduleKey::new(&g2, &a, &cfg, &cost);
        let fp = key1.fingerprint();
        let s1 = HeraldScheduler::new(cfg).schedule(&g1, &a, &cost).unwrap();
        let s2 = HeraldScheduler::new(cfg).schedule(&g2, &a, &cost).unwrap();
        state.insert_under(fp, key1, Arc::new(s1.clone()));
        state.insert_under(fp, key2, Arc::new(s2.clone()));
        assert_eq!(state.len(), 2);

        // g1's inputs: first bucket entry verifies, no collisions seen.
        let found = state.lookup(fp, &g1, &a, &cfg, &cost);
        assert_eq!(found.schedule.as_deref(), Some(&s1));
        assert_eq!((found.collisions, found.graph_walks), (0, 1));
        // g2's inputs: key1 fails verification first (one collision),
        // then key2 serves.
        let found = state.lookup(fp, &g2, &a, &cfg, &cost);
        assert_eq!(found.schedule.as_deref(), Some(&s2));
        assert_eq!((found.collisions, found.graph_walks), (1, 2));
        // A third set of inputs sharing the fingerprint: all entries
        // fail verification -> miss with two collisions.
        let g3 = graph(3);
        let found = state.lookup(fp, &g3, &a, &cfg, &cost);
        assert_eq!(found.schedule, None);
        assert_eq!((found.collisions, found.graph_walks), (2, 2));

        // Identity-verified hits: the entry verified on g1 serves g1's
        // clone without walking it, and hands out the stored `Arc`.
        let clone = g1.clone();
        let found = state.lookup(fp, &clone, &a, &cfg, &cost);
        assert_eq!(found.schedule.as_deref(), Some(&s1));
        assert_eq!((found.collisions, found.graph_walks), (0, 0));
        let again = state.lookup(fp, &g1, &a, &cfg, &cost);
        assert!(Arc::ptr_eq(
            found.schedule.as_ref().unwrap(),
            again.schedule.as_ref().unwrap()
        ));
        // A different graph object of different content under the same
        // fingerprint is still walked and rejected by key1.
        let g4 = graph(4);
        let found = state.lookup(fp, &g4, &a, &cfg, &cost);
        assert_eq!(found.schedule, None);
        assert_eq!((found.collisions, found.graph_walks), (2, 2));
        // The verified graph on another partition or under another cost
        // configuration is rejected: those sections are checked on every
        // probe, identity or not.
        let split = AcceleratorConfig::maelstrom(
            AcceleratorClass::Edge.resources(),
            Partition::new(vec![768, 256], vec![8.0, 8.0]).unwrap(),
        )
        .unwrap();
        let found = state.lookup(fp, &clone, &split, &cfg, &cost);
        assert_eq!(found.schedule, None);
        assert_eq!((found.collisions, found.graph_walks), (2, 0));
        let faster = CostModel::new(herald_cost::CostModelConfig {
            clock_ghz: 2.0,
            ..Default::default()
        });
        let found = state.lookup(fp, &clone, &a, &cfg, &faster);
        assert_eq!(found.schedule, None);
        assert_eq!((found.collisions, found.graph_walks), (2, 0));
        // The identity check survives the rejections above.
        let found = state.lookup(fp, &g1, &a, &cfg, &cost);
        assert_eq!((found.collisions, found.graph_walks), (0, 0));
    }

    #[test]
    fn clear_empties_the_memo() {
        let ctx = EvalContext::new();
        let g = graph(1);
        let a = acc();
        let cfg = SchedulerConfig::default();
        let key = ScheduleKey::new(&g, &a, &cfg, ctx.cost_model());
        let schedule = HeraldScheduler::new(cfg)
            .schedule(&g, &a, ctx.cost_model())
            .unwrap();
        ctx.schedules().insert(key, schedule);
        assert!(!ctx.schedules().is_empty());
        ctx.schedules().clear();
        assert!(ctx.schedules().is_empty());
    }
}
