//! Hardware resource partitions across sub-accelerators (Definition 1).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A hardware resource split across `n` sub-accelerators: per-sub PE counts
/// and per-sub global-NoC bandwidths. Together with the dataflow style list
/// this fully specifies an HDA per the paper's Definition 1.
///
/// # Example
///
/// ```
/// use herald_arch::Partition;
///
/// // The paper's Table V AR/VR-A edge Maelstrom point.
/// let p = Partition::new(vec![128, 896], vec![4.0, 12.0]).unwrap();
/// assert_eq!(p.total_pes(), 1024);
/// assert_eq!(p.total_bandwidth_gbps(), 16.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    pes: Vec<u32>,
    bandwidth_gbps: Vec<f64>,
}

impl Partition {
    /// Creates a partition.
    ///
    /// # Errors
    ///
    /// Returns a message if the vectors are empty, differ in length, or
    /// contain a zero PE count or a bandwidth that is not finite and
    /// positive.
    pub fn new(pes: Vec<u32>, bandwidth_gbps: Vec<f64>) -> Result<Self, String> {
        if pes.is_empty() {
            return Err("partition must cover at least one sub-accelerator".into());
        }
        if pes.len() != bandwidth_gbps.len() {
            return Err(format!(
                "PE split has {} entries but bandwidth split has {}",
                pes.len(),
                bandwidth_gbps.len()
            ));
        }
        if pes.contains(&0) {
            return Err("every sub-accelerator needs at least one PE".into());
        }
        if !bandwidth_gbps.iter().all(|&b| b.is_finite() && b > 0.0) {
            return Err("every sub-accelerator needs positive bandwidth".into());
        }
        Ok(Self {
            pes,
            bandwidth_gbps,
        })
    }

    /// An even split of `total_pes` and `total_bw` across `ways`
    /// sub-accelerators (remainders go to the first sub-accelerator) — the
    /// SM-FDA configuration and the naive HDA baseline of Fig. 6.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds `total_pes`.
    pub fn even(ways: usize, total_pes: u32, total_bw: f64) -> Self {
        assert!(ways > 0, "need at least one way");
        assert!(ways as u32 <= total_pes, "more sub-accelerators than PEs");
        let base = total_pes / ways as u32;
        let mut pes = vec![base; ways];
        pes[0] += total_pes - base * ways as u32;
        let bw = vec![total_bw / ways as f64; ways];
        Self {
            pes,
            bandwidth_gbps: bw,
        }
    }

    /// Number of sub-accelerators.
    pub fn ways(&self) -> usize {
        self.pes.len()
    }

    /// Per-sub-accelerator PE counts.
    pub fn pes(&self) -> &[u32] {
        &self.pes
    }

    /// Per-sub-accelerator bandwidths (GB/s).
    pub fn bandwidth_gbps(&self) -> &[f64] {
        &self.bandwidth_gbps
    }

    /// Sum of PE allocations.
    pub fn total_pes(&self) -> u32 {
        self.pes.iter().sum()
    }

    /// Sum of bandwidth allocations.
    pub fn total_bandwidth_gbps(&self) -> f64 {
        self.bandwidth_gbps.iter().sum()
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pes: Vec<String> = self.pes.iter().map(u32::to_string).collect();
        let bw: Vec<String> = self
            .bandwidth_gbps
            .iter()
            .map(|b| format!("{b:.0}"))
            .collect();
        write!(f, "PEs [{}], BW [{}] GB/s", pes.join("/"), bw.join("/"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_conserves_totals() {
        let p = Partition::even(3, 1024, 16.0);
        assert_eq!(p.total_pes(), 1024);
        assert!((p.total_bandwidth_gbps() - 16.0).abs() < 1e-9);
        // Remainder (1024 = 3*341 + 1) lands on the first way.
        assert_eq!(p.pes(), &[342, 341, 341]);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(Partition::new(vec![1, 2], vec![1.0]).is_err());
    }

    #[test]
    fn zero_pe_way_rejected() {
        assert!(Partition::new(vec![0, 2], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn nonpositive_bandwidth_rejected() {
        assert!(Partition::new(vec![1, 2], vec![1.0, 0.0]).is_err());
    }

    #[test]
    fn empty_partition_rejected() {
        assert!(Partition::new(vec![], vec![]).is_err());
    }

    #[test]
    fn display_is_compact() {
        let p = Partition::new(vec![128, 896], vec![4.0, 12.0]).unwrap();
        assert_eq!(p.to_string(), "PEs [128/896], BW [4/12] GB/s");
    }
}
