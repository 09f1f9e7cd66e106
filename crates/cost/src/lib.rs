//! MAESTRO-style analytical latency/energy cost model for DNN accelerators.
//!
//! This crate rebuilds, from scratch, the cost-model substrate the paper
//! uses (MAESTRO, extended by Herald for multi-sub-accelerator designs).
//! For a layer, a [`herald_dataflow::Mapping`] and a bandwidth allocation it
//! derives:
//!
//! * **Compute cycles** from the mapping's spatial unrolls (including edge
//!   tiles and PE under-utilization — the paper's Fig. 5 effect),
//! * **Global-buffer traffic** per operand from each dataflow style's reuse
//!   structure ([`TrafficCounts`]),
//! * **Latency** as the steady-state maximum of compute and the
//!   bandwidth-throttled global traffic (double-buffered execution,
//!   Sec. IV-A),
//! * **Energy** from an energy-per-action table ([`EnergyModel`]) with the
//!   standard RF / NoC / global-buffer / DRAM hierarchy,
//! * **Buffer requirements** for the scheduler's memory constraint.
//!
//! The entry point is [`CostModel`]; results are [`LayerCost`] values and
//! queries are memoized internally (schedulers and DSE issue millions of
//! repeated queries).
//!
//! # Example
//!
//! ```
//! use herald_cost::CostModel;
//! use herald_dataflow::DataflowStyle;
//! use herald_models::{Layer, LayerDims, LayerOp};
//!
//! let model = CostModel::default();
//! // An early, shallow-channel layer prefers Shi-diannao over NVDLA.
//! let layer = Layer::new(
//!     "early",
//!     LayerOp::Conv2d,
//!     LayerDims::conv(64, 3, 112, 112, 3, 3).with_pad(1),
//! );
//! let nvdla = model.evaluate(&layer, DataflowStyle::Nvdla, 256, 32.0);
//! let shi = model.evaluate(&layer, DataflowStyle::ShiDianNao, 256, 32.0);
//! assert!(shi.edp() < nvdla.edp());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod energy;
mod latency;
mod metric;
mod model;
mod traffic;

pub use buffer::BufferRequirement;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use metric::Metric;
pub use model::{CostModel, CostModelConfig, CostQuery, LayerCost, LayerKey};
pub use traffic::TrafficCounts;
