//! Full accelerator configurations: FDA, SM-FDA, RDA and HDA.

use crate::{classes::PE_MM2, HardwareResources, Partition, SubAccelerator};
use herald_dataflow::DataflowStyle;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// The accelerator taxonomy of the paper's Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AcceleratorStyle {
    /// Fixed dataflow accelerator: one monolithic array, one dataflow.
    Fda(DataflowStyle),
    /// Scaled-out multi-FDA [Baek et al., ISCA 2020]: `ways` identical
    /// sub-accelerators running the same dataflow on evenly split
    /// resources.
    ScaledOutMultiFda {
        /// The shared dataflow style.
        style: DataflowStyle,
        /// Number of identical sub-accelerators.
        ways: usize,
    },
    /// Reconfigurable dataflow accelerator (MAERI-style): one monolithic
    /// array adopting the best dataflow per layer.
    Rda,
    /// Heterogeneous dataflow accelerator: one sub-accelerator per listed
    /// style, resources set by an explicit [`Partition`].
    Hda(Vec<DataflowStyle>),
}

impl fmt::Display for AcceleratorStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcceleratorStyle::Fda(s) => write!(f, "FDA({s})"),
            AcceleratorStyle::ScaledOutMultiFda { style, ways } => {
                write!(f, "SM-FDA({style} x{ways})")
            }
            AcceleratorStyle::Rda => f.write_str("RDA"),
            AcceleratorStyle::Hda(styles) => {
                let names: Vec<&str> = styles.iter().map(|s| s.label()).collect();
                write!(f, "HDA({})", names.join("+"))
            }
        }
    }
}

/// Errors constructing an [`AcceleratorConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Partition width does not match the number of dataflow styles.
    PartitionMismatch {
        /// Styles requested.
        styles: usize,
        /// Partition ways provided.
        ways: usize,
    },
    /// Partition totals exceed the hardware budget.
    BudgetExceeded(String),
    /// An HDA needs at least two sub-accelerators.
    TooFewSubAccelerators,
    /// Invalid partition contents.
    InvalidPartition(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::PartitionMismatch { styles, ways } => {
                write!(f, "{styles} dataflow styles but {ways} partition ways")
            }
            ConfigError::BudgetExceeded(msg) => write!(f, "budget exceeded: {msg}"),
            ConfigError::TooFewSubAccelerators => {
                f.write_str("an HDA needs at least two sub-accelerators")
            }
            ConfigError::InvalidPartition(msg) => write!(f, "invalid partition: {msg}"),
        }
    }
}

impl Error for ConfigError {}

/// A complete accelerator: sub-accelerators plus the shared global buffer.
///
/// # Example
///
/// ```
/// use herald_arch::{AcceleratorClass, AcceleratorConfig};
/// use herald_dataflow::DataflowStyle;
///
/// let res = AcceleratorClass::Mobile.resources();
/// let fda = AcceleratorConfig::fda(DataflowStyle::Nvdla, res);
/// assert_eq!(fda.sub_accelerators().len(), 1);
/// assert_eq!(fda.total_pes(), 4096);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    name: String,
    style: AcceleratorStyle,
    subs: Vec<SubAccelerator>,
    global_buffer_bytes: u64,
}

impl AcceleratorConfig {
    /// A monolithic fixed-dataflow accelerator holding the whole budget.
    pub fn fda(style: DataflowStyle, res: HardwareResources) -> Self {
        Self {
            name: format!("FDA-{style}"),
            style: AcceleratorStyle::Fda(style),
            subs: vec![SubAccelerator::fixed(
                "acc0",
                style,
                res.pes,
                res.bandwidth_gbps,
            )],
            global_buffer_bytes: res.global_buffer_bytes,
        }
    }

    /// A monolithic MAERI-style reconfigurable accelerator.
    pub fn rda(res: HardwareResources) -> Self {
        Self {
            name: "RDA-MAERI".into(),
            style: AcceleratorStyle::Rda,
            subs: vec![SubAccelerator::reconfigurable(
                "acc0",
                res.pes,
                res.bandwidth_gbps,
            )],
            global_buffer_bytes: res.global_buffer_bytes,
        }
    }

    /// A scaled-out multi-FDA: `ways` copies of the same dataflow on an
    /// even split (the paper's SM-FDA baseline, their reference 24).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TooFewSubAccelerators`] for `ways < 2`.
    pub fn sm_fda(
        style: DataflowStyle,
        ways: usize,
        res: HardwareResources,
    ) -> Result<Self, ConfigError> {
        if ways < 2 {
            return Err(ConfigError::TooFewSubAccelerators);
        }
        let part = Partition::even(ways, res.pes, res.bandwidth_gbps);
        let subs = part
            .pes()
            .iter()
            .zip(part.bandwidth_gbps())
            .enumerate()
            .map(|(i, (&pes, &bw))| SubAccelerator::fixed(format!("acc{i}"), style, pes, bw))
            .collect();
        Ok(Self {
            name: format!("SM-FDA-{style}x{ways}"),
            style: AcceleratorStyle::ScaledOutMultiFda { style, ways },
            subs,
            global_buffer_bytes: res.global_buffer_bytes,
        })
    }

    /// A heterogeneous dataflow accelerator: one sub-accelerator per style
    /// with resources from `partition` (Definition 1).
    ///
    /// # Errors
    ///
    /// Rejects mismatched partition widths, single-way HDAs and partitions
    /// exceeding the budget.
    pub fn hda(
        styles: &[DataflowStyle],
        res: HardwareResources,
        partition: Partition,
    ) -> Result<Self, ConfigError> {
        if styles.len() < 2 {
            return Err(ConfigError::TooFewSubAccelerators);
        }
        if styles.len() != partition.ways() {
            return Err(ConfigError::PartitionMismatch {
                styles: styles.len(),
                ways: partition.ways(),
            });
        }
        if partition.total_pes() > res.pes {
            return Err(ConfigError::BudgetExceeded(format!(
                "{} PEs partitioned, {} available",
                partition.total_pes(),
                res.pes
            )));
        }
        if partition.total_bandwidth_gbps() > res.bandwidth_gbps * (1.0 + 1e-9) {
            return Err(ConfigError::BudgetExceeded(format!(
                "{} GB/s partitioned, {} available",
                partition.total_bandwidth_gbps(),
                res.bandwidth_gbps
            )));
        }
        let subs = styles
            .iter()
            .zip(partition.pes().iter().zip(partition.bandwidth_gbps()))
            .enumerate()
            .map(|(i, (&style, (&pes, &bw)))| {
                SubAccelerator::fixed(format!("acc{i}-{style}"), style, pes, bw)
            })
            .collect();
        let names: Vec<&str> = styles.iter().map(|s| s.label()).collect();
        Ok(Self {
            name: format!("HDA-{}", names.join("+")),
            style: AcceleratorStyle::Hda(styles.to_vec()),
            subs,
            global_buffer_bytes: res.global_buffer_bytes,
        })
    }

    /// The paper's flagship HDA, **Maelstrom**: NVDLA-style plus
    /// Shi-diannao-style sub-accelerators.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AcceleratorConfig::hda`].
    pub fn maelstrom(res: HardwareResources, partition: Partition) -> Result<Self, ConfigError> {
        let mut cfg = Self::hda(
            &[DataflowStyle::Nvdla, DataflowStyle::ShiDianNao],
            res,
            partition,
        )?;
        cfg.name = "Maelstrom".into();
        Ok(cfg)
    }

    /// Equips every sub-accelerator with sparsity-gating hardware and
    /// prefixes the name with `Sparse-`. Gated arrays skip a
    /// dataflow-class-dependent share of a sparse layer's zero work at a
    /// [`SPARSE_GATING_AREA_OVERHEAD`] area premium on their PE arrays;
    /// dense layers cost exactly the same as on the ungated design.
    #[must_use]
    pub fn with_sparse_gating(mut self) -> Self {
        self.subs = self
            .subs
            .into_iter()
            .map(SubAccelerator::with_sparse_gating)
            .collect();
        self.name = format!("Sparse-{}", self.name);
        self
    }

    /// [`AcceleratorConfig::maelstrom`] with sparsity gating on both
    /// sub-accelerators — the sparse-friendly flagship of the menu.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AcceleratorConfig::hda`].
    pub fn sparse_maelstrom(
        res: HardwareResources,
        partition: Partition,
    ) -> Result<Self, ConfigError> {
        Ok(Self::maelstrom(res, partition)?.with_sparse_gating())
    }

    /// A monolithic reconfigurable array with sparsity gating: the
    /// flexible fabric that recovers the most zero work (MAERI-class
    /// sparse accelerator).
    pub fn sparse_rda(res: HardwareResources) -> Self {
        Self::rda(res).with_sparse_gating()
    }

    /// The configuration's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The taxonomy entry this configuration instantiates.
    pub fn style(&self) -> &AcceleratorStyle {
        &self.style
    }

    /// The sub-accelerators.
    pub fn sub_accelerators(&self) -> &[SubAccelerator] {
        &self.subs
    }

    /// Shared global buffer capacity in bytes.
    pub fn global_buffer_bytes(&self) -> u64 {
        self.global_buffer_bytes
    }

    /// Total PEs across sub-accelerators.
    pub fn total_pes(&self) -> u32 {
        self.subs.iter().map(SubAccelerator::pes).sum()
    }

    /// Total bandwidth across sub-accelerators, GB/s.
    pub fn total_bandwidth_gbps(&self) -> f64 {
        self.subs.iter().map(SubAccelerator::bandwidth_gbps).sum()
    }

    /// Estimated silicon area of this chip, mm²: the
    /// [`HardwareResources::area_mm2`] proxy applied to its total PE,
    /// bandwidth and global-buffer provisioning. Partitioning a budget
    /// across sub-accelerators does not change the total, so every
    /// design over the same class budget costs the same area — area
    /// differences come from provisioning differently-sized chips,
    /// which is exactly the axis fleet-composition search trades
    /// against throughput and latency.
    #[must_use]
    pub fn area_mm2(&self) -> f64 {
        let base = HardwareResources {
            pes: self.total_pes(),
            bandwidth_gbps: self.total_bandwidth_gbps(),
            global_buffer_bytes: self.global_buffer_bytes,
        }
        .area_mm2();
        // Sparsity-gating hardware (zero-detect logic, compressed-operand
        // decoders) grows each gated PE array; ungated designs are
        // untouched, keeping all pre-sparsity areas bit-identical.
        let gated_pes: u32 = self
            .subs
            .iter()
            .filter(|s| s.has_sparse_gating())
            .map(SubAccelerator::pes)
            .sum();
        if gated_pes == 0 {
            base
        } else {
            base + f64::from(gated_pes) * PE_MM2 * SPARSE_GATING_AREA_OVERHEAD
        }
    }
}

/// Relative area premium of sparsity-gating hardware per gated PE, applied
/// on top of [`PE_MM2`] in [`AcceleratorConfig::area_mm2`].
pub const SPARSE_GATING_AREA_OVERHEAD: f64 = 0.25;

impl fmt::Display for AcceleratorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} sub-accelerators, {} PEs, {:.0} GB/s)",
            self.name,
            self.subs.len(),
            self.total_pes(),
            self.total_bandwidth_gbps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AcceleratorClass;

    fn res() -> HardwareResources {
        AcceleratorClass::Edge.resources()
    }

    #[test]
    fn fda_holds_entire_budget() {
        let cfg = AcceleratorConfig::fda(DataflowStyle::Eyeriss, res());
        assert_eq!(cfg.total_pes(), 1024);
        assert_eq!(cfg.sub_accelerators().len(), 1);
        assert!(!cfg.sub_accelerators()[0].is_reconfigurable());
    }

    #[test]
    fn rda_is_monolithic_and_reconfigurable() {
        let cfg = AcceleratorConfig::rda(res());
        assert_eq!(cfg.sub_accelerators().len(), 1);
        assert!(cfg.sub_accelerators()[0].is_reconfigurable());
    }

    #[test]
    fn sm_fda_splits_evenly() {
        let cfg = AcceleratorConfig::sm_fda(DataflowStyle::Nvdla, 2, res()).unwrap();
        assert_eq!(cfg.total_pes(), 1024);
        assert_eq!(cfg.sub_accelerators()[0].pes(), 512);
        assert_eq!(cfg.sub_accelerators()[1].pes(), 512);
        assert_eq!(
            cfg.sub_accelerators()[0].style(),
            cfg.sub_accelerators()[1].style()
        );
    }

    #[test]
    fn sm_fda_needs_two_ways() {
        assert_eq!(
            AcceleratorConfig::sm_fda(DataflowStyle::Nvdla, 1, res()).unwrap_err(),
            ConfigError::TooFewSubAccelerators
        );
    }

    #[test]
    fn hda_respects_partition() {
        let p = Partition::new(vec![128, 896], vec![4.0, 12.0]).unwrap();
        let cfg = AcceleratorConfig::maelstrom(res(), p).unwrap();
        assert_eq!(cfg.name(), "Maelstrom");
        assert_eq!(cfg.sub_accelerators()[0].style(), DataflowStyle::Nvdla);
        assert_eq!(cfg.sub_accelerators()[1].pes(), 896);
    }

    #[test]
    fn non_finite_or_non_positive_bandwidths_never_reach_a_chip() {
        // A NaN bandwidth once passed the partition check and then
        // panicked inside `maelstrom`, a fallible constructor.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0] {
            assert!(
                Partition::new(vec![512, 512], vec![bad, 4.0]).is_err(),
                "bandwidth {bad} accepted"
            );
        }
        let p = Partition::new(vec![512, 512], vec![12.0, 4.0]).unwrap();
        assert!(AcceleratorConfig::maelstrom(AcceleratorClass::Edge.resources(), p).is_ok());
    }

    #[test]
    fn hda_rejects_over_budget_partitions() {
        let p = Partition::new(vec![1024, 896], vec![4.0, 12.0]).unwrap();
        assert!(matches!(
            AcceleratorConfig::maelstrom(res(), p),
            Err(ConfigError::BudgetExceeded(_))
        ));
    }

    #[test]
    fn hda_rejects_width_mismatch() {
        let p = Partition::new(vec![512, 256, 256], vec![4.0, 4.0, 8.0]).unwrap();
        assert!(matches!(
            AcceleratorConfig::hda(&[DataflowStyle::Nvdla, DataflowStyle::ShiDianNao], res(), p),
            Err(ConfigError::PartitionMismatch { .. })
        ));
    }

    #[test]
    fn three_way_hda_builds() {
        let p = Partition::even(3, 1024, 16.0);
        let cfg = AcceleratorConfig::hda(
            &[
                DataflowStyle::Nvdla,
                DataflowStyle::ShiDianNao,
                DataflowStyle::Eyeriss,
            ],
            res(),
            p,
        )
        .unwrap();
        assert_eq!(cfg.sub_accelerators().len(), 3);
    }

    #[test]
    fn style_displays_match_taxonomy() {
        assert_eq!(
            AcceleratorStyle::Fda(DataflowStyle::Nvdla).to_string(),
            "FDA(NVDLA)"
        );
        assert_eq!(AcceleratorStyle::Rda.to_string(), "RDA");
        let hda = AcceleratorStyle::Hda(vec![DataflowStyle::Nvdla, DataflowStyle::ShiDianNao]);
        assert_eq!(hda.to_string(), "HDA(NVDLA+Shi-diannao)");
    }

    #[test]
    fn errors_are_displayable() {
        let e = ConfigError::PartitionMismatch { styles: 2, ways: 3 };
        assert!(e.to_string().contains("2 dataflow styles"));
    }

    #[test]
    fn sparse_gating_gates_every_sub_and_renames() {
        let p = Partition::new(vec![128, 896], vec![4.0, 12.0]).unwrap();
        let cfg = AcceleratorConfig::sparse_maelstrom(res(), p).unwrap();
        assert_eq!(cfg.name(), "Sparse-Maelstrom");
        assert!(cfg
            .sub_accelerators()
            .iter()
            .all(SubAccelerator::has_sparse_gating));
        let rda = AcceleratorConfig::sparse_rda(res());
        assert!(rda.name().starts_with("Sparse-"));
        assert!(rda.sub_accelerators()[0].has_sparse_gating());
    }

    #[test]
    fn sparse_gating_pays_an_area_premium() {
        let dense = AcceleratorConfig::fda(DataflowStyle::Nvdla, res());
        let sparse = dense.clone().with_sparse_gating();
        let expected = dense.area_mm2()
            + f64::from(dense.total_pes()) * crate::PE_MM2 * SPARSE_GATING_AREA_OVERHEAD;
        assert!((sparse.area_mm2() - expected).abs() < 1e-12);
        assert!(sparse.area_mm2() > dense.area_mm2());
    }

    #[test]
    fn area_is_partition_invariant_over_one_budget() {
        // Every design over the same class budget costs the same area;
        // a smaller chip costs less.
        let fda = AcceleratorConfig::fda(DataflowStyle::Nvdla, res());
        let hda = AcceleratorConfig::hda(
            &[DataflowStyle::Nvdla, DataflowStyle::ShiDianNao],
            res(),
            Partition::even(2, 1024, 16.0),
        )
        .unwrap();
        assert!((fda.area_mm2() - res().area_mm2()).abs() < 1e-12);
        assert!((hda.area_mm2() - fda.area_mm2()).abs() < 1e-12);
        let small = HardwareResources::new(512, 8.0, 2 << 20);
        assert!(AcceleratorConfig::fda(DataflowStyle::Nvdla, small).area_mm2() < fda.area_mm2());
    }
}
