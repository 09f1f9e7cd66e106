//! The cost model facade: queries, results and memoization.

use crate::latency::{latency_parts, LatencyParts};
use crate::{BufferRequirement, EnergyBreakdown, EnergyModel, Metric, TrafficCounts};
use herald_dataflow::{DataflowStyle, Mapping, MappingBuilder};
use herald_models::{Layer, LayerDims, LayerOp};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Tunable parameters of the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModelConfig {
    /// Per-action energy table.
    pub energy: EnergyModel,
    /// Accelerator clock in GHz (all styles run at the same clock, as in
    /// the paper's iso-resource comparison).
    pub clock_ghz: f64,
    /// Operand width in bytes (2 = 16-bit, the MAESTRO default).
    pub bytes_per_elem: u64,
    /// Multiplicative energy tax on compute + local-NoC energy for
    /// reconfigurable (RDA) arrays: the switches, wires and controllers of
    /// e.g. MAERI. Default 0.117, calibrated to the paper's measurement
    /// that MAERI required 11.7% more energy on average than an NVDLA-style
    /// FDA.
    pub rda_energy_overhead: f64,
    /// Per-layer reconfiguration stall for RDAs, in cycles.
    pub rda_reconfig_cycles: u64,
    /// Per-layer reconfiguration energy for RDAs, in picojoules per PE
    /// (distributing the new configuration across the array).
    pub rda_reconfig_pj_per_pe: f64,
    /// Optional sub-accelerator context-change penalty in cycles, charged
    /// on every layer (Herald "provides an option to specify the latency
    /// and energy penalties" for data-layout changes, Sec. IV-A). Zero by
    /// default: the evaluation picks dataflows with identical inner-loop
    /// order, eliminating layout conversion.
    pub context_change_cycles: u64,
}

impl CostModelConfig {
    /// A bit-exact fingerprint of every knob of this configuration (all
    /// float fields captured via `to_bits`). Two configurations with
    /// equal fingerprints produce identical [`LayerCost`]s for every
    /// query, so the fingerprint is usable in memo keys that must never
    /// alias across cost models.
    #[must_use]
    pub fn fingerprint(&self) -> [u64; 11] {
        [
            self.energy.mac_pj.to_bits(),
            self.energy.rf_pj.to_bits(),
            self.energy.noc_pj.to_bits(),
            self.energy.gb_pj.to_bits(),
            self.energy.dram_pj.to_bits(),
            self.clock_ghz.to_bits(),
            self.bytes_per_elem,
            self.rda_energy_overhead.to_bits(),
            self.rda_reconfig_cycles,
            self.rda_reconfig_pj_per_pe.to_bits(),
            self.context_change_cycles,
        ]
    }
}

impl Default for CostModelConfig {
    fn default() -> Self {
        Self {
            energy: EnergyModel::default(),
            clock_ghz: 1.0,
            bytes_per_elem: 2,
            rda_energy_overhead: 0.117,
            rda_reconfig_cycles: 2000,
            rda_reconfig_pj_per_pe: 20.0,
            context_change_cycles: 0,
        }
    }
}

/// A cost query: which dataflow on how many PEs with how much bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostQuery {
    /// Dataflow style to instantiate.
    pub style: DataflowStyle,
    /// PEs of the (sub-)accelerator.
    pub pes: u32,
    /// Global-NoC bandwidth allocated to the (sub-)accelerator, GB/s.
    pub bandwidth_gbps: f64,
    /// Whether the array pays reconfigurable-hardware taxes (RDA).
    pub reconfigurable: bool,
    /// Whether the array has sparsity-gating hardware (zero-skip logic and
    /// compressed weight delivery). Without it, a sparse layer is charged
    /// its dense cost.
    pub sparse_gating: bool,
}

impl CostQuery {
    /// A fixed-dataflow query.
    pub fn fixed(style: DataflowStyle, pes: u32, bandwidth_gbps: f64) -> Self {
        Self {
            style,
            pes,
            bandwidth_gbps,
            reconfigurable: false,
            sparse_gating: false,
        }
    }
}

/// Fraction of the zero-operand work a sparsity-gated array actually
/// elides, per dataflow class.
///
/// This encodes the PAPERS.md heterogeneity argument for sparse tensor
/// acceleration: *flexible* fabrics (reconfigurable, MAERI-class) can
/// re-form their distribution/reduction trees around nonzeros and skip
/// nearly all gated work, while *rigid* arrays recover progressively less
/// of the idle cycles — Shi-diannao's lock-step output-stationary grid
/// barely benefits because its systolic schedule cannot compress holes.
/// The cost model turns this into a multiplier
/// `eff = 1 - skip * (1 - density)` on compute cycles, compute energy and
/// local-NoC traffic.
pub(crate) fn sparsity_skip_fraction(style: DataflowStyle, reconfigurable: bool) -> f64 {
    if reconfigurable {
        return 0.95;
    }
    match style {
        DataflowStyle::Nvdla => 0.60,
        DataflowStyle::Eyeriss => 0.75,
        DataflowStyle::ShiDianNao => 0.20,
    }
}

/// `ceil(count * factor)` — the monotone integer scaling used for all
/// density-derived traffic and cycle reductions.
fn scale_count(count: u64, factor: f64) -> u64 {
    (count as f64 * factor).ceil() as u64
}

/// The modeled cost of running one layer on one (sub-)accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Style the cost was computed for.
    pub style: DataflowStyle,
    /// PEs allocated.
    pub pes: u32,
    /// Mapping utilization of compute units (paper Fig. 5).
    pub utilization: f64,
    /// PEs receiving work in a steady-state tile.
    pub active_pes: u32,
    /// Pure compute cycles.
    pub compute_cycles: u64,
    /// Bandwidth-throttled traffic cycles.
    pub traffic_cycles: u64,
    /// Fixed + reconfiguration overhead cycles.
    pub overhead_cycles: u64,
    /// End-to-end cycles (`max(compute, traffic) + overhead`).
    pub total_cycles: u64,
    /// End-to-end latency in seconds.
    pub latency_s: f64,
    /// Energy breakdown in joules.
    pub energy: EnergyBreakdown,
    /// Data-movement counts.
    pub traffic: TrafficCounts,
    /// Buffer requirements for the scheduler's memory constraint.
    pub buffer: BufferRequirement,
}

impl LayerCost {
    /// Total energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// Energy-delay product in joule-seconds.
    pub fn edp(&self) -> f64 {
        self.latency_s * self.energy_j()
    }

    /// This cost under a metric.
    pub fn score(&self, metric: Metric) -> f64 {
        metric.score(self.latency_s, self.energy_j())
    }
}

/// The part of a layer its cost depends on: shape, operator and weight
/// density (bit for bit). Two layers with equal keys get the same
/// [`LayerCost`] from every query; a layer's name and sequence position
/// are not part of it. The cost memo keys on it, and callers may use it
/// to query once per distinct layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerKey {
    dims: LayerDims,
    op: LayerOp,
    density_bits: u64,
}

impl LayerKey {
    /// The key of `layer`.
    pub fn of(layer: &Layer) -> Self {
        Self {
            dims: *layer.dims(),
            op: layer.op(),
            density_bits: layer.density().to_bits(),
        }
    }
}

type CacheKey = (LayerKey, DataflowStyle, u32, u64, bool, bool);

/// The memo's hasher: FxHash's multiply-rotate step over each integer of
/// the key. A key is 15 integers from the caller's own layer shapes and
/// hardware slices, not input from a party that could choose keys to
/// collide, so it needs no keyed (SipHash) hash, which took most of a
/// warm query's time. Nothing iterates the map, so the hash never reaches
/// a result.
#[derive(Default)]
struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher(0)
    }
}

struct FxHasher(u64);

impl FxHasher {
    /// FxHash's odd multiplier (from Firefox and rustc).
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The analytical cost model, with internal memoization.
///
/// Thread-safe: schedulers and the DSE sweep may query it from worker
/// threads concurrently. Each distinct query counts one miss however
/// many threads race on it, so [`CostModel::cache_misses`] always equals
/// [`CostModel::cached_queries`].
///
/// # Example
///
/// ```
/// use herald_cost::{CostModel, Metric};
/// use herald_models::{Layer, LayerDims, LayerOp};
///
/// let model = CostModel::default();
/// let fc = Layer::new("fc", LayerOp::Fc, LayerDims::fc(1000, 2048));
/// // The RDA evaluation picks the best style per layer but pays the
/// // reconfigurable-hardware tax.
/// let best = model.evaluate_rda(&fc, 1024, 64.0, Metric::Edp);
/// assert!(best.energy.reconfig_j > 0.0);
/// ```
#[derive(Debug, Default)]
pub struct CostModel {
    config: CostModelConfig,
    cache: RwLock<HashMap<CacheKey, LayerCost, FxBuildHasher>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CostModel {
    /// Creates a cost model with the given configuration.
    pub fn new(config: CostModelConfig) -> Self {
        Self {
            config,
            cache: RwLock::new(HashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &CostModelConfig {
        &self.config
    }

    /// Number of distinct queries answered so far (cache size).
    pub fn cached_queries(&self) -> usize {
        self.cache
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Queries answered from the memo without recomputation.
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that required a fresh analytical evaluation.
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Evaluates a layer on a fixed-dataflow (sub-)accelerator.
    pub fn evaluate(
        &self,
        layer: &Layer,
        style: DataflowStyle,
        pes: u32,
        bandwidth_gbps: f64,
    ) -> LayerCost {
        self.query(layer, CostQuery::fixed(style, pes, bandwidth_gbps))
    }

    /// Evaluates a layer on a fixed-dataflow (sub-)accelerator with or
    /// without sparsity-gating hardware. With `sparse_gating = false`
    /// (or a fully dense layer) this is exactly [`CostModel::evaluate`].
    pub fn evaluate_gated(
        &self,
        layer: &Layer,
        style: DataflowStyle,
        pes: u32,
        bandwidth_gbps: f64,
        sparse_gating: bool,
    ) -> LayerCost {
        self.query(
            layer,
            CostQuery {
                sparse_gating,
                ..CostQuery::fixed(style, pes, bandwidth_gbps)
            },
        )
    }

    /// Evaluates a layer under an arbitrary [`CostQuery`].
    ///
    /// A query the read lock does not find is computed outside any lock
    /// and then decided under the write lock: the thread that inserts the
    /// entry counts the miss, and one that finds it already inserted by a
    /// racing thread counts a hit and returns the memo's value.
    pub fn query(&self, layer: &Layer, q: CostQuery) -> LayerCost {
        let key: CacheKey = (
            LayerKey::of(layer),
            q.style,
            q.pes,
            q.bandwidth_gbps.to_bits(),
            q.reconfigurable,
            q.sparse_gating,
        );
        if let Some(hit) = self
            .cache
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        let cost = self.compute(layer, q);
        match self
            .cache
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(key)
        {
            Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                slot.insert(cost).clone()
            }
            Entry::Occupied(slot) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                slot.get().clone()
            }
        }
    }

    /// Evaluates a layer under an explicit, externally constructed mapping
    /// (not memoized).
    pub fn evaluate_mapping(
        &self,
        layer: &Layer,
        mapping: &Mapping,
        bandwidth_gbps: f64,
    ) -> LayerCost {
        self.assemble(layer, mapping, bandwidth_gbps, false)
    }

    /// Evaluates a layer on a reconfigurable array (RDA, e.g. MAERI): the
    /// best style under `metric` among all three evaluated dataflows, with
    /// the reconfiguration taxes applied.
    pub fn evaluate_rda(
        &self,
        layer: &Layer,
        pes: u32,
        bandwidth_gbps: f64,
        metric: Metric,
    ) -> LayerCost {
        self.evaluate_rda_gated(layer, pes, bandwidth_gbps, metric, false)
    }

    /// [`CostModel::evaluate_rda`] with optional sparsity-gating hardware.
    /// With `sparse_gating = false` (or a fully dense layer) this is
    /// exactly `evaluate_rda`.
    pub fn evaluate_rda_gated(
        &self,
        layer: &Layer,
        pes: u32,
        bandwidth_gbps: f64,
        metric: Metric,
        sparse_gating: bool,
    ) -> LayerCost {
        DataflowStyle::ALL
            .into_iter()
            .map(|style| {
                self.query(
                    layer,
                    CostQuery {
                        style,
                        pes,
                        bandwidth_gbps,
                        reconfigurable: true,
                        sparse_gating,
                    },
                )
            })
            .min_by(|a, b| a.score(metric).total_cmp(&b.score(metric)))
            .expect("at least one style")
    }

    /// The best fixed style for a layer under `metric` — the per-layer
    /// dataflow preference that drives the Herald scheduler.
    pub fn best_style(
        &self,
        layer: &Layer,
        pes: u32,
        bandwidth_gbps: f64,
        metric: Metric,
    ) -> (DataflowStyle, LayerCost) {
        DataflowStyle::ALL
            .into_iter()
            .map(|style| (style, self.evaluate(layer, style, pes, bandwidth_gbps)))
            .min_by(|a, b| a.1.score(metric).total_cmp(&b.1.score(metric)))
            .expect("at least one style")
    }

    fn compute(&self, layer: &Layer, q: CostQuery) -> LayerCost {
        let mapping = MappingBuilder::new(q.style, q.pes).best(layer);
        self.assemble_gated(
            layer,
            &mapping,
            q.bandwidth_gbps,
            q.reconfigurable,
            q.sparse_gating,
        )
    }

    fn assemble(
        &self,
        layer: &Layer,
        mapping: &Mapping,
        bandwidth_gbps: f64,
        reconfigurable: bool,
    ) -> LayerCost {
        self.assemble_gated(layer, mapping, bandwidth_gbps, reconfigurable, false)
    }

    fn assemble_gated(
        &self,
        layer: &Layer,
        mapping: &Mapping,
        bandwidth_gbps: f64,
        reconfigurable: bool,
        sparse_gating: bool,
    ) -> LayerCost {
        let cfg = &self.config;
        let mut traffic = TrafficCounts::for_mapping(layer, mapping);
        let buffer = BufferRequirement::for_mapping(layer, mapping, cfg.bytes_per_elem);
        // Sparsity: a gated array skips a class-dependent fraction of the
        // zero work. Dense layers (density = 1.0) and ungated hardware take
        // none of this branch, so those costs are bit-identical to the
        // pre-density model.
        let density = layer.density();
        let sparse = sparse_gating && density < 1.0;
        let eff = 1.0 - sparsity_skip_fraction(mapping.style(), reconfigurable) * (1.0 - density);
        if sparse {
            // Compressed weights shrink both global-buffer and DRAM weight
            // streams by the density; activations stay dense (no activation
            // sparsity is modeled). Local-NoC deliveries track the elided
            // MACs.
            let dense_weights = layer.weight_elems();
            let sparse_weights = scale_count(dense_weights, density);
            traffic.gb_weight_reads = scale_count(traffic.gb_weight_reads, density);
            traffic.local_noc_words = scale_count(traffic.local_noc_words, eff);
            traffic.dram_words = traffic.dram_words - dense_weights + sparse_weights;
        }
        let extra_cycles = cfg.context_change_cycles
            + if reconfigurable {
                cfg.rda_reconfig_cycles
            } else {
                0
            };
        let mut parts: LatencyParts = latency_parts(
            layer,
            mapping,
            &traffic,
            bandwidth_gbps,
            cfg.clock_ghz,
            cfg.bytes_per_elem,
            extra_cycles,
        );
        if sparse {
            parts.compute_cycles = scale_count(parts.compute_cycles, eff).max(1);
        }
        let total_cycles = parts.total_cycles();
        let latency_s = total_cycles as f64 / (cfg.clock_ghz * 1e9);

        const PJ: f64 = 1e-12;
        let e = &cfg.energy;
        let tax = if reconfigurable {
            1.0 + cfg.rda_energy_overhead
        } else {
            1.0
        };
        let effective_macs = if sparse {
            layer.macs() as f64 * eff
        } else {
            layer.macs() as f64
        };
        let energy = EnergyBreakdown {
            compute_j: effective_macs * e.mac_with_rf_pj() * PJ * tax,
            noc_j: traffic.local_noc_words as f64 * e.noc_pj * PJ * tax,
            gb_j: traffic.gb_total() as f64 * e.gb_pj * PJ,
            dram_j: traffic.dram_words as f64 * e.dram_pj * PJ,
            reconfig_j: if reconfigurable {
                f64::from(mapping.alloc_pes()) * cfg.rda_reconfig_pj_per_pe * PJ
            } else {
                0.0
            },
        };

        LayerCost {
            style: mapping.style(),
            pes: mapping.alloc_pes(),
            utilization: mapping.utilization(),
            active_pes: mapping.active_pes(),
            compute_cycles: parts.compute_cycles,
            traffic_cycles: parts.traffic_cycles,
            overhead_cycles: parts.overhead_cycles,
            total_cycles,
            latency_s,
            energy,
            traffic,
            buffer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(k: u32, c: u32, y: u32, r: u32) -> Layer {
        Layer::new(
            "l",
            LayerOp::Conv2d,
            LayerDims::conv(k, c, y, y, r, r).with_pad(r / 2),
        )
    }

    fn model() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn early_layer_prefers_shi_diannao() {
        // Fig. 5 layer 1: shallow channels, large activation.
        let layer = conv(64, 3, 112, 3);
        let (style, _) = model().best_style(&layer, 1024, 32.0, Metric::Edp);
        assert_eq!(style, DataflowStyle::ShiDianNao);
    }

    #[test]
    fn late_layer_prefers_nvdla() {
        // Fig. 5 layer 2: deep channels, tiny activation.
        let layer = conv(512, 512, 7, 3);
        let (style, _) = model().best_style(&layer, 1024, 32.0, Metric::Edp);
        assert_eq!(style, DataflowStyle::Nvdla);
    }

    #[test]
    fn depthwise_layer_abandons_nvdla() {
        // Fig. 5 layer 3: the adder tree is useless without cross-channel
        // accumulation, so NVDLA loses by a wide margin (the paper compares
        // only NVDLA vs Shi-diannao; our Eyeriss model also handles
        // depth-wise well, and either non-NVDLA winner preserves the
        // claim).
        let dw = Layer::new(
            "dw",
            LayerOp::DepthwiseConv,
            LayerDims::conv(96, 96, 56, 56, 3, 3).with_pad(1),
        );
        let m = model();
        let (style, best) = m.best_style(&dw, 1024, 32.0, Metric::Edp);
        assert_ne!(style, DataflowStyle::Nvdla);
        let nvdla = m.evaluate(&dw, DataflowStyle::Nvdla, 1024, 32.0);
        let shi = m.evaluate(&dw, DataflowStyle::ShiDianNao, 1024, 32.0);
        assert!(nvdla.edp() > 5.0 * shi.edp());
        assert!(best.edp() <= shi.edp());
    }

    #[test]
    fn fc_layer_prefers_nvdla_latency() {
        let fc = Layer::new("fc", LayerOp::Fc, LayerDims::fc(1000, 2048));
        let m = model();
        let nvdla = m.evaluate(&fc, DataflowStyle::Nvdla, 1024, 32.0);
        let shi = m.evaluate(&fc, DataflowStyle::ShiDianNao, 1024, 32.0);
        assert!(nvdla.latency_s < shi.latency_s);
    }

    #[test]
    fn cache_returns_identical_results() {
        let m = model();
        let layer = conv(64, 64, 56, 3);
        let a = m.evaluate(&layer, DataflowStyle::Nvdla, 1024, 32.0);
        assert_eq!(m.cached_queries(), 1);
        let b = m.evaluate(&layer, DataflowStyle::Nvdla, 1024, 32.0);
        assert_eq!(m.cached_queries(), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn racing_misses_count_once_per_distinct_query() {
        // Threads released together by a barrier query one key set in
        // the same order, so they race on every miss. Whoever inserts an
        // entry counts its miss; the others count hits.
        const THREADS: usize = 4;
        let layers: Vec<Layer> = (1..=24).map(|k| conv(8 * k, 16, 14, 3)).collect();
        let queries: Vec<(&Layer, DataflowStyle)> = layers
            .iter()
            .flat_map(|l| DataflowStyle::ALL.map(|s| (l, s)))
            .collect();
        for round in 0..8 {
            let m = model();
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        start.wait();
                        for &(layer, style) in &queries {
                            m.evaluate(layer, style, 256, 16.0);
                        }
                    });
                }
            });
            assert_eq!(m.cached_queries(), queries.len(), "round {round}");
            assert_eq!(m.cache_misses(), m.cached_queries() as u64, "round {round}");
            assert_eq!(
                m.cache_hits() + m.cache_misses(),
                (THREADS * queries.len()) as u64,
                "round {round}"
            );
        }
    }

    #[test]
    fn rda_pays_energy_tax_over_same_style_fda() {
        let m = model();
        let layer = conv(512, 512, 7, 3);
        let fda = m.evaluate(&layer, DataflowStyle::Nvdla, 1024, 32.0);
        let rda = m.query(
            &layer,
            CostQuery {
                style: DataflowStyle::Nvdla,
                pes: 1024,
                bandwidth_gbps: 32.0,
                reconfigurable: true,
                sparse_gating: false,
            },
        );
        assert!(rda.energy_j() > fda.energy_j());
        assert!(rda.total_cycles > fda.total_cycles);
    }

    #[test]
    fn rda_latency_beats_each_fda_on_mixed_pair_of_layers() {
        // The RDA's whole value: per-layer best style. Summed over one
        // NVDLA-friendly and one Shi-friendly layer it beats either FDA.
        let m = model();
        let early = conv(64, 3, 112, 3);
        let late = conv(512, 512, 7, 3);
        let rda: f64 = [&early, &late]
            .iter()
            .map(|l| m.evaluate_rda(l, 1024, 32.0, Metric::Latency).latency_s)
            .sum();
        for style in DataflowStyle::ALL {
            let fda: f64 = [&early, &late]
                .iter()
                .map(|l| m.evaluate(l, style, 1024, 32.0).latency_s)
                .sum();
            // The RDA pays reconfiguration stalls, so allow a sliver.
            assert!(rda < fda * 1.01, "{style}: rda {rda} vs fda {fda}");
        }
    }

    #[test]
    fn lower_bandwidth_hurts_memory_bound_layers() {
        let fc = Layer::new("fc", LayerOp::Fc, LayerDims::fc(4096, 4096));
        let m = model();
        let fast = m.evaluate(&fc, DataflowStyle::Nvdla, 1024, 256.0);
        let slow = m.evaluate(&fc, DataflowStyle::Nvdla, 1024, 16.0);
        assert!(slow.latency_s > 4.0 * fast.latency_s);
        // Energy is bandwidth-independent.
        assert!((slow.energy_j() - fast.energy_j()).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let m = model();
        for style in DataflowStyle::ALL {
            let c = m.evaluate(&conv(64, 3, 112, 3), style, 1024, 32.0);
            assert!(c.utilization > 0.0 && c.utilization <= 1.0, "{style}");
        }
    }

    #[test]
    fn more_pes_never_increase_compute_cycles() {
        let layer = conv(256, 256, 28, 3);
        let m = model();
        let mut last = u64::MAX;
        for pes in [64u32, 256, 1024, 4096] {
            let c = m.evaluate(&layer, DataflowStyle::Nvdla, pes, 1e9);
            assert!(c.compute_cycles <= last, "{pes}");
            last = c.compute_cycles;
        }
    }

    #[test]
    fn edp_is_latency_times_energy() {
        let m = model();
        let c = m.evaluate(&conv(64, 64, 28, 3), DataflowStyle::Eyeriss, 256, 32.0);
        assert!((c.edp() - c.latency_s * c.energy_j()).abs() < 1e-15);
        assert_eq!(c.score(Metric::Edp), c.edp());
        assert_eq!(c.score(Metric::Latency), c.latency_s);
    }

    #[test]
    fn asymmetric_layers_are_handled() {
        // GNMT-style GEMMs have y = 25, x = 1 — wildly asymmetric spatial
        // extents must not break any style.
        let gemm = Layer::new("g", LayerOp::Fc, LayerDims::gemm(4096, 1024, 25));
        let m = model();
        for style in DataflowStyle::ALL {
            let c = m.evaluate(&gemm, style, 1024, 64.0);
            assert!(c.latency_s > 0.0, "{style}");
            assert!(c.compute_cycles >= gemm.macs() / 1024, "{style}");
        }
        // A wide-but-short conv (panorama-like input).
        let wide = Layer::new(
            "wide",
            LayerOp::Conv2d,
            LayerDims::conv(32, 16, 16, 512, 3, 3).with_pad(1),
        );
        for style in DataflowStyle::ALL {
            let c = m.evaluate(&wide, style, 1024, 64.0);
            assert!(c.utilization > 0.0 && c.utilization <= 1.0, "{style}");
        }
    }

    #[test]
    fn strided_conv_touches_fewer_inputs_on_shi() {
        // Output-stationary tiles of a stride-2 conv sample the input
        // sparsely; traffic must reflect that rather than charging the
        // dense halo of the unstrided case.
        let m = model();
        let dense = conv(64, 64, 56, 3);
        let strided = Layer::new(
            "s2",
            LayerOp::Conv2d,
            LayerDims::conv(64, 64, 56, 56, 3, 3)
                .with_stride(2)
                .with_pad(1),
        );
        let cd = m.evaluate(&dense, DataflowStyle::ShiDianNao, 1024, 16.0);
        let cs = m.evaluate(&strided, DataflowStyle::ShiDianNao, 1024, 16.0);
        // 4x fewer output pixels -> far less input traffic.
        assert!(cs.traffic.gb_input_reads < cd.traffic.gb_input_reads);
    }

    #[test]
    fn one_gbps_edge_case_is_memory_bound() {
        let m = model();
        let c = m.evaluate(&conv(256, 256, 28, 3), DataflowStyle::Nvdla, 1024, 1.0);
        assert!(c.traffic_cycles > c.compute_cycles);
        assert_eq!(c.total_cycles, c.traffic_cycles + c.overhead_cycles);
    }

    #[test]
    fn fingerprints_separate_distinct_configs() {
        let base = CostModelConfig::default();
        assert_eq!(base.fingerprint(), CostModelConfig::default().fingerprint());
        let tweaked = CostModelConfig {
            clock_ghz: 2.0,
            ..Default::default()
        };
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
        let energy = CostModelConfig {
            energy: EnergyModel {
                dram_pj: 500.0,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_ne!(base.fingerprint(), energy.fingerprint());
    }

    #[test]
    fn gating_is_a_noop_on_dense_layers() {
        // The sparse branch must be untaken at density = 1.0: gated and
        // ungated costs are bit-identical, preserving every golden result.
        let m = model();
        let layer = conv(256, 256, 28, 3);
        for style in DataflowStyle::ALL {
            let dense = m.evaluate(&layer, style, 1024, 32.0);
            let gated = m.evaluate_gated(&layer, style, 1024, 32.0, true);
            assert_eq!(dense, gated, "{style}");
        }
        let rda = m.evaluate_rda(&layer, 1024, 32.0, Metric::Edp);
        let rda_gated = m.evaluate_rda_gated(&layer, 1024, 32.0, Metric::Edp, true);
        assert_eq!(rda, rda_gated);
    }

    #[test]
    fn ungated_hardware_charges_dense_cost_for_sparse_layers() {
        let m = model();
        let dense = conv(256, 256, 28, 3);
        let sparse = dense.clone().with_density(0.3);
        let cd = m.evaluate(&dense, DataflowStyle::Nvdla, 1024, 32.0);
        let cs = m.evaluate(&sparse, DataflowStyle::Nvdla, 1024, 32.0);
        assert_eq!(cd.total_cycles, cs.total_cycles);
        assert_eq!(cd.energy, cs.energy);
        assert_eq!(cd.traffic, cs.traffic);
    }

    #[test]
    fn gated_sparse_layers_are_cheaper_everywhere() {
        let m = model();
        let sparse = conv(256, 256, 28, 3).with_density(0.3);
        for style in DataflowStyle::ALL {
            let dense_cost = m.evaluate(&sparse, style, 1024, 32.0);
            let gated = m.evaluate_gated(&sparse, style, 1024, 32.0, true);
            assert!(gated.total_cycles <= dense_cost.total_cycles, "{style}");
            assert!(gated.energy_j() < dense_cost.energy_j(), "{style}");
            assert!(
                gated.traffic.gb_total() < dense_cost.traffic.gb_total(),
                "{style}"
            );
            // Activations stay dense.
            assert_eq!(
                gated.traffic.gb_input_reads,
                dense_cost.traffic.gb_input_reads
            );
        }
    }

    #[test]
    fn flexible_classes_skip_more_zero_work_than_rigid_arrays() {
        // The heterogeneity argument: reconfigurable fabrics recover ~95%
        // of the gated work, Shi-diannao's rigid grid only 20%.
        let m = model();
        let sparse = conv(256, 256, 28, 3).with_density(0.3);
        let shi_dense = m.evaluate(&sparse, DataflowStyle::ShiDianNao, 1024, 1e6);
        let shi_gated = m.evaluate_gated(&sparse, DataflowStyle::ShiDianNao, 1024, 1e6, true);
        let rda_dense = m.evaluate_rda(&sparse, 1024, 1e6, Metric::Latency);
        let rda_gated = m.evaluate_rda_gated(&sparse, 1024, 1e6, Metric::Latency, true);
        let shi_speedup = shi_dense.latency_s / shi_gated.latency_s;
        let rda_speedup = rda_dense.latency_s / rda_gated.latency_s;
        assert!(
            rda_speedup > 1.5 * shi_speedup,
            "rda {rda_speedup} vs shi {shi_speedup}"
        );
    }

    #[test]
    fn density_variants_do_not_share_the_cost_memo() {
        let m = model();
        let dense = conv(64, 64, 28, 3);
        let sparse = dense.clone().with_density(0.5);
        let _ = m.evaluate_gated(&dense, DataflowStyle::Nvdla, 1024, 32.0, true);
        assert_eq!(m.cached_queries(), 1);
        let _ = m.evaluate_gated(&sparse, DataflowStyle::Nvdla, 1024, 32.0, true);
        assert_eq!(
            m.cached_queries(),
            2,
            "sparse variant must be a fresh entry"
        );
        let _ = m.evaluate(&sparse, DataflowStyle::Nvdla, 1024, 32.0);
        assert_eq!(m.cached_queries(), 3, "gating flag must be keyed");
    }

    #[test]
    fn context_change_penalty_is_charged() {
        let cfg = CostModelConfig {
            context_change_cycles: 5000,
            ..Default::default()
        };
        let with_penalty = CostModel::new(cfg);
        let plain = model();
        let layer = conv(64, 64, 28, 3);
        let a = with_penalty.evaluate(&layer, DataflowStyle::Nvdla, 1024, 32.0);
        let b = plain.evaluate(&layer, DataflowStyle::Nvdla, 1024, 32.0);
        assert_eq!(a.total_cycles, b.total_cycles + 5000);
    }
}
