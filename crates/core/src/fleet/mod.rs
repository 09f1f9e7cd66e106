//! Fleet-scale serving: many accelerators behind a dispatcher.
//!
//! The paper designs one HDA chip for a fixed AR/VR mix; a production
//! deployment serves heavy multi-tenant traffic from a *pool* of chips
//! behind a load balancer. This module turns the single-chip streaming
//! simulator into that serving story:
//!
//! * [`FleetConfig`] — N possibly-heterogeneous accelerator chips;
//! * [`Dispatcher`] — the frame-routing policy, with built-in
//!   [`RoundRobin`], [`LeastLoaded`] and [`DeadlineAware`]
//!   implementations selectable as plain-data [`DispatchPolicy`], plus
//!   optional [`AdmissionPolicy`] load shedding;
//! * [`FleetSimulator`] — shards a scenario's frame stream across the
//!   chips (deterministic dispatch walk, then one
//!   [`crate::sim::StreamSimulator`] worker per chip on a
//!   `std::thread::scope`, each with its own private
//!   [`crate::ctx::EvalContext`]);
//! * [`FleetReport`] — the merged outcome: per-chip
//!   [`crate::sim::StreamReport`]s, aggregate throughput and latency
//!   percentiles, per-chip utilization, deadline-miss breakdowns and
//!   the full routing/drop audit trail.
//!
//! Everything is deterministic: the same fleet, policy and scenario
//! produce a bit-identical [`FleetReport`] regardless of how the chip
//! workers interleave, and a 1-chip fleet reproduces the single-chip
//! simulator exactly. The ergonomic entry point is
//! `herald::Experiment::fleet` in the umbrella crate.
//!
//! One layer up, the fleet-composition search
//! ([`crate::dse::FleetDseEngine`]) treats this whole module as its
//! evaluation oracle: it enumerates *which* [`FleetConfig`]s to build
//! (from a menu of chip designs, under an area budget) and pairs them
//! with these dispatch policies, pruning candidates it can prove (or
//! predict) redundant before handing the survivors to
//! [`FleetSimulator`].

mod config;
mod dispatch;
mod report;
mod sim;

pub use config::FleetConfig;
pub use dispatch::{
    AdmissionPolicy, ChipLoad, DeadlineAware, DispatchPolicy, Dispatcher, FrameView, LeastLoaded,
    RoundRobin,
};
pub use report::{DroppedFrame, FleetReport, FrameAssignment};
pub use sim::FleetSimulator;
pub(crate) use sim::{distinct_workloads, WalkRow, WorkloadIndex};
