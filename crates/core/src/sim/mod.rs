//! The event-driven streaming simulation core.
//!
//! The paper evaluates HDAs on *streams* of multi-DNN frames — AR/VR
//! pipelines with real-time processing rates and a workload-change study
//! (Fig. 13). This module generalizes the one-shot schedule replay of
//! [`crate::exec`] into an event-driven machine over a virtual clock:
//!
//! * the shared, crate-private `EventCore` commit loop: frames in
//!   flight, dependence ordering, sub-accelerator queues and the
//!   global-buffer memory constraint exist exactly once, used by both
//!   the one-shot [`crate::exec::ScheduleSimulator`] and the streaming
//!   [`StreamSimulator`];
//! * [`StreamSimulator`] — consumes a [`herald_workloads::Scenario`]
//!   (arrival processes, per-stream deadlines, mid-stream workload
//!   swaps), making an online scheduling decision at frame arrivals and
//!   workload-change events. Decisions are incremental by default: each
//!   stream's compiled schedule is dirty-tracked and reused until a
//!   workload swap invalidates it (see [`ReschedulePolicy`]), which is
//!   bit-identical to full rescheduling because the scheduler is a pure
//!   function of its inputs;
//! * [`StreamReport`] — streaming metrics: throughput, p50/p95/p99 frame
//!   latency, deadline-miss rate (globally, per stream, and per time
//!   window), and per-accelerator utilization over time.
//!
//! The ergonomic entry point is `herald::Experiment::scenario` in the
//! umbrella crate.

pub(crate) mod core;
pub(crate) mod engine;
pub mod profile;
pub(crate) mod report;

pub use engine::{ReschedulePolicy, StreamSimulator};
pub use profile::{HotPathProfile, MemProfile};
pub use report::{
    ArrivalWindow, BusySpan, BusySpans, FrameRecord, QuantileSketch, ReportMode, StreamAgg,
    StreamReport, StreamStats, SwapRecord, UtilizationSample,
};
