//! Online fleet control: a closed feedback loop running *inside* the
//! fleet simulation.
//!
//! The PR-4 fleet layer replays a precomputed trace against a fixed
//! pool of chips. Production multi-DNN serving is not fixed: tenant
//! mixes drift, diurnal load ramps overwhelm a fleet sized for the
//! trough, and a chip partitioned for yesterday's resident mix wastes
//! silicon today. This module closes the loop: a [`FleetController`]
//! observes windowed per-chip telemetry at a configurable control
//! cadence and emits [`ControlAction`]s that reshape the fleet mid-run.
//!
//! # The control loop
//!
//! [`ControlledFleetSimulator`] generalizes the fleet dispatch walk to
//! be *epoch-based*: the deterministic event trace is replayed in time
//! order, but at every multiple of [`ControllerConfig::cadence_s`] the
//! walk pauses, summarizes the elapsed window into one
//! [`ChipTelemetry`] per live chip (predicted utilization, backlog,
//! windowed deadline-miss rate — the same `[t0, t1)` arrival-window
//! convention as `StreamReport::miss_rate_between`), and asks the
//! controller to act:
//!
//! * [`ControlAction::ScaleUp`] — add a chip from the configured menu,
//!   subject to the `area_mm2` budget (the PR-5 silicon proxy);
//! * [`ControlAction::ScaleDown`] — retire a chip: it stops receiving
//!   frames but *drains* everything already routed to it;
//! * [`ControlAction::MigrateStream`] — rehome a live stream: frames
//!   already dispatched drain where they are, later frames follow the
//!   new pin, and the destination is charged an explicit handoff cost;
//! * [`ControlAction::Repartition`] — re-split an HDA chip's
//!   sub-accelerators for its current resident tenant mix, invalidating
//!   exactly that chip's schedule memos (see
//!   [`ReconfigurationEvent::memos_invalidated`]).
//!
//! Every decision — applied or rejected — is recorded as a
//! [`ReconfigurationEvent`], so a controlled run is auditable end to
//! end. With the [`ControllerPolicy::Static`] baseline the walk is
//! bit-identical to [`crate::fleet::FleetSimulator`] (the equivalence
//! suite pins this), so the controller layer costs nothing unless it
//! acts.

mod policy;
mod sim;

pub use policy::{
    ControllerPolicy, FleetController, PredictiveRepartitioner, StaticController,
    ThresholdAutoscaler,
};
pub(crate) use sim::{simulate_controlled, walk, Estimator, WalkParams};
pub use sim::{ControlledFleetReport, ControlledFleetSimulator, MissWindow};

use crate::error::HeraldError;
use herald_arch::{AcceleratorConfig, Partition};
use serde::Serialize;

/// One reshaping decision a [`FleetController`] can emit at an epoch
/// boundary. `slot` indices are stable chip identities: the initial
/// fleet occupies slots `0..n` and every [`ControlAction::ScaleUp`]
/// appends a new slot (retired slots are never reused).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ControlAction {
    /// Add one chip from [`ControllerConfig::menu`] (by menu index),
    /// subject to the area budget. The new chip starts busy for
    /// [`ControllerConfig::scale_up_cost_s`] (provisioning latency).
    ScaleUp {
        /// Index into the controller's chip menu.
        menu_chip: usize,
    },
    /// Retire a chip: it stops receiving new frames but drains every
    /// frame already routed to it. The last live chip cannot be
    /// retired.
    ScaleDown {
        /// Slot of the chip to retire.
        slot: usize,
    },
    /// Pin a stream's future frames to one chip. In-flight frames drain
    /// on whichever chips they were dispatched to; the destination is
    /// charged [`ControllerConfig::migrate_cost_s`] of busy time for
    /// the state handoff.
    MigrateStream {
        /// Global stream index in the scenario.
        stream: usize,
        /// Destination slot.
        to_slot: usize,
    },
    /// Re-split an HDA chip's sub-accelerators under a new
    /// [`Partition`] (same styles, same totals). The chip is charged
    /// [`ControllerConfig::repartition_cost_s`] of busy time, and
    /// exactly its schedule memos for the old configuration are
    /// invalidated before the new configuration simulates.
    Repartition {
        /// Slot of the chip to re-split.
        slot: usize,
        /// The new resource split, one way per dataflow style.
        partition: Partition,
    },
}

impl ControlAction {
    /// Short action label for logs and JSON records.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ControlAction::ScaleUp { .. } => "scale-up",
            ControlAction::ScaleDown { .. } => "scale-down",
            ControlAction::MigrateStream { .. } => "migrate-stream",
            ControlAction::Repartition { .. } => "repartition",
        }
    }
}

/// One controller decision as the simulator recorded it: what was
/// asked, whether it was applied, why not if rejected, and what it
/// cost. The event log is the audit trail of a controlled run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReconfigurationEvent {
    /// Control epoch the decision was made at (1-based boundary count).
    pub epoch: usize,
    /// Simulation time of the epoch boundary, seconds.
    pub at_s: f64,
    /// The requested action.
    pub action: ControlAction,
    /// Whether the simulator applied it (invalid or over-budget actions
    /// are recorded and rejected, never silently dropped).
    pub applied: bool,
    /// Human-readable effect summary or rejection reason.
    pub detail: String,
    /// Reconfiguration cost charged to the affected chip, seconds of
    /// busy time (0 for rejected actions).
    pub cost_s: f64,
    /// Schedule memos invalidated by a [`ControlAction::Repartition`]
    /// (0 for every other action), filled in during the per-chip
    /// simulation phase.
    pub memos_invalidated: usize,
}

/// Per-action reconfiguration costs, exposed to policies through
/// [`ControlView::costs`] so predictive controllers can weigh an
/// action's benefit against its price.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ActionCosts {
    /// Provisioning latency of a scaled-up chip, seconds.
    pub scale_up_s: f64,
    /// Stream-handoff cost charged to a migration destination, seconds.
    pub migrate_s: f64,
    /// Busy time charged to a repartitioned chip, seconds.
    pub repartition_s: f64,
}

/// The controller's knobs: cadence, action costs, the chip menu and
/// area budget scale-ups draw against, and the decision policy.
///
/// # Example
///
/// ```
/// use herald_arch::{AcceleratorClass, AcceleratorConfig};
/// use herald_core::controller::{ControllerConfig, ControllerPolicy};
/// use herald_dataflow::DataflowStyle;
///
/// let chip = AcceleratorConfig::fda(
///     DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
/// let cfg = ControllerConfig::new(0.05, ControllerPolicy::autoscaler())
///     .with_menu(vec![chip.clone()])
///     .with_area_budget(4.0 * chip.area_mm2());
/// assert_eq!(cfg.cadence_s, 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ControllerConfig {
    /// Control-epoch length, seconds: telemetry windows and action
    /// points are multiples of this.
    pub cadence_s: f64,
    /// Chip designs [`ControlAction::ScaleUp`] may add.
    pub menu: Vec<AcceleratorConfig>,
    /// Total silicon budget for *live* chips,
    /// [`AcceleratorConfig::area_mm2`] summed (retired chips return
    /// their area). Defaults to unbounded.
    pub max_area_mm2: f64,
    /// Provisioning latency of a scaled-up chip, seconds.
    pub scale_up_cost_s: f64,
    /// Stream-handoff cost charged to a migration destination, seconds.
    pub migrate_cost_s: f64,
    /// Busy time charged to a repartitioned chip, seconds.
    pub repartition_cost_s: f64,
    /// The decision policy.
    pub policy: ControllerPolicy,
}

impl ControllerConfig {
    /// A controller with the given cadence and policy, an empty menu,
    /// an unbounded area budget and zero action costs.
    #[must_use]
    pub fn new(cadence_s: f64, policy: ControllerPolicy) -> Self {
        Self {
            cadence_s,
            menu: Vec::new(),
            max_area_mm2: f64::INFINITY,
            scale_up_cost_s: 0.0,
            migrate_cost_s: 0.0,
            repartition_cost_s: 0.0,
            policy,
        }
    }

    /// Sets the chip menu scale-ups draw from.
    #[must_use]
    pub fn with_menu(mut self, menu: Vec<AcceleratorConfig>) -> Self {
        self.menu = menu;
        self
    }

    /// Sets the live-silicon area budget, mm².
    #[must_use]
    pub fn with_area_budget(mut self, max_area_mm2: f64) -> Self {
        self.max_area_mm2 = max_area_mm2;
        self
    }

    /// Sets the three action costs, seconds.
    #[must_use]
    pub fn with_costs(mut self, scale_up_s: f64, migrate_s: f64, repartition_s: f64) -> Self {
        self.scale_up_cost_s = scale_up_s;
        self.migrate_cost_s = migrate_s;
        self.repartition_cost_s = repartition_s;
        self
    }

    /// The per-action costs as one bundle.
    #[must_use]
    pub fn costs(&self) -> ActionCosts {
        ActionCosts {
            scale_up_s: self.scale_up_cost_s,
            migrate_s: self.migrate_cost_s,
            repartition_s: self.repartition_cost_s,
        }
    }

    /// Rejects degenerate knobs with a typed error.
    pub(crate) fn validate(&self) -> Result<(), HeraldError> {
        let fail = |reason: String| Err(HeraldError::Controller { reason });
        if !(self.cadence_s > 0.0 && self.cadence_s.is_finite()) {
            return fail(format!(
                "control cadence must be positive and finite, got {}",
                self.cadence_s
            ));
        }
        for (name, c) in [
            ("scale-up", self.scale_up_cost_s),
            ("migrate", self.migrate_cost_s),
            ("repartition", self.repartition_cost_s),
        ] {
            if !(c >= 0.0 && c.is_finite()) {
                return fail(format!(
                    "{name} cost must be non-negative and finite, got {c}"
                ));
            }
        }
        if self.max_area_mm2.is_nan() || self.max_area_mm2 <= 0.0 {
            return fail(format!(
                "area budget must be positive, got {}",
                self.max_area_mm2
            ));
        }
        Ok(())
    }
}

/// One chip's windowed telemetry, observed by the controller at an
/// epoch boundary. All quantities summarize the elapsed window
/// `[t - cadence, t)` of the dispatch walk's *predicted* backlog model
/// — the same single-frame service estimates that drive load-aware
/// dispatch and admission — using the `[t0, t1)` arrival-window
/// convention of `StreamReport::miss_rate_between`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChipTelemetry {
    /// The chip's stable slot identity.
    pub slot: usize,
    /// The chip's display name.
    pub chip: String,
    /// Predicted utilization over the window: estimated service time
    /// dispatched to this chip divided by the window length. Exceeds
    /// 1.0 when the chip is routed more work than it can clear.
    pub utilization: f64,
    /// Predicted backlog at the boundary, seconds of queued work.
    pub backlog_s: f64,
    /// Frames dispatched to this chip in the window.
    pub window_frames: usize,
    /// Of those, frames carrying a deadline.
    pub window_deadline_frames: usize,
    /// Of the deadline frames, how many the backlog model predicted to
    /// miss at dispatch time.
    pub window_predicted_misses: usize,
    /// Frames dispatched in the window per scenario stream — the
    /// chip's resident tenant mix, which repartitioning policies key
    /// their splits off.
    pub stream_frames: Vec<usize>,
}

impl ChipTelemetry {
    /// Windowed predicted deadline-miss rate (0 when no deadline frame
    /// arrived in the window).
    #[must_use]
    pub fn window_miss_rate(&self) -> f64 {
        if self.window_deadline_frames == 0 {
            0.0
        } else {
            self.window_predicted_misses as f64 / self.window_deadline_frames as f64
        }
    }
}

/// One chip's identity and configuration as a policy sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipStatus {
    /// Stable slot identity.
    pub slot: usize,
    /// Display name.
    pub name: String,
    /// Whether the chip is live (retired chips stay visible for
    /// bookkeeping but cannot be routed to).
    pub active: bool,
    /// Silicon area, mm².
    pub area_mm2: f64,
    /// The chip's current configuration.
    pub config: AcceleratorConfig,
}

/// Everything a policy may consult when deciding, beyond the windowed
/// telemetry: fleet composition, routing pins, budget headroom, action
/// costs, and the service-estimate surrogate (the same memoized
/// single-frame estimates the PR-5 fleet DSE screens candidates with).
pub struct ControlView<'a> {
    /// Simulation time of the epoch boundary, seconds.
    pub now_s: f64,
    /// 1-based epoch counter.
    pub epoch: usize,
    /// Control-epoch length, seconds.
    pub cadence_s: f64,
    /// Every slot ever created, in slot order (including retired ones).
    pub chips: Vec<ChipStatus>,
    /// The scale-up menu.
    pub menu: &'a [AcceleratorConfig],
    /// Live-silicon budget, mm².
    pub max_area_mm2: f64,
    /// Area of the live chips, mm².
    pub active_area_mm2: f64,
    /// Controller-owned routing state: per-stream pin to a slot, `None`
    /// while the dispatch policy routes the stream freely.
    pub pins: &'a [Option<usize>],
    /// The per-action reconfiguration costs.
    pub costs: ActionCosts,
    pub(crate) estimator: &'a sim::Estimator,
    /// Each stream's walk row (its current workload version).
    pub(crate) streams: &'a [crate::fleet::WalkRow],
}

impl ControlView<'_> {
    /// Predicted single-frame service time of `stream`'s *current*
    /// workload version on `config`, seconds — the service-estimate
    /// surrogate, read from the run's one estimator, the same cells the
    /// dispatch walk reads. A configuration outside the fleet, such as a
    /// repartition candidate, adds one row on first sight; each distinct
    /// workload × configuration is scheduled at most once per run.
    ///
    /// # Errors
    ///
    /// * [`HeraldError::Controller`] — `stream` is not a stream of the
    ///   scenario;
    /// * scheduling/simulation failures for the candidate configuration.
    pub fn estimate(&self, stream: usize, config: &AcceleratorConfig) -> Result<f64, HeraldError> {
        let row = self
            .streams
            .get(stream)
            .ok_or_else(|| HeraldError::Controller {
                reason: format!(
                    "estimate asked for stream {stream} of a {}-stream scenario",
                    self.streams.len()
                ),
            })?;
        let config_row = self.estimator.config_row(config);
        self.estimator.rate(config_row, row.workload as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use herald_arch::AcceleratorClass;
    use herald_dataflow::DataflowStyle;

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        let ok = ControllerConfig::new(0.1, ControllerPolicy::Static);
        assert!(ok.validate().is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = ControllerConfig::new(bad, ControllerPolicy::Static);
            assert!(
                matches!(cfg.validate(), Err(HeraldError::Controller { .. })),
                "cadence {bad}"
            );
        }
        let neg_cost =
            ControllerConfig::new(0.1, ControllerPolicy::Static).with_costs(-0.01, 0.0, 0.0);
        assert!(matches!(
            neg_cost.validate(),
            Err(HeraldError::Controller { .. })
        ));
        let bad_budget = ControllerConfig::new(0.1, ControllerPolicy::Static).with_area_budget(0.0);
        assert!(matches!(
            bad_budget.validate(),
            Err(HeraldError::Controller { .. })
        ));
        // An unbounded budget is legal (the default).
        assert!(ControllerConfig::new(0.1, ControllerPolicy::Static)
            .with_area_budget(f64::INFINITY)
            .validate()
            .is_ok());
    }

    #[test]
    fn telemetry_miss_rate_handles_empty_windows() {
        let t = ChipTelemetry {
            slot: 0,
            chip: "chip0".into(),
            utilization: 0.0,
            backlog_s: 0.0,
            window_frames: 0,
            window_deadline_frames: 0,
            window_predicted_misses: 0,
            stream_frames: vec![],
        };
        assert_eq!(t.window_miss_rate(), 0.0);
        let t = ChipTelemetry {
            window_deadline_frames: 4,
            window_predicted_misses: 1,
            ..t
        };
        assert!((t.window_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn action_labels_are_stable() {
        assert_eq!(ControlAction::ScaleUp { menu_chip: 0 }.label(), "scale-up");
        assert_eq!(ControlAction::ScaleDown { slot: 1 }.label(), "scale-down");
        assert_eq!(
            ControlAction::MigrateStream {
                stream: 0,
                to_slot: 1
            }
            .label(),
            "migrate-stream"
        );
        let p = herald_arch::Partition::even(2, 128, 32.0);
        assert_eq!(
            ControlAction::Repartition {
                slot: 0,
                partition: p
            }
            .label(),
            "repartition"
        );
    }

    #[test]
    fn config_builder_composes() {
        let chip = AcceleratorConfig::fda(DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
        let cfg = ControllerConfig::new(0.2, ControllerPolicy::autoscaler())
            .with_menu(vec![chip.clone()])
            .with_area_budget(10.0)
            .with_costs(0.01, 0.02, 0.03);
        assert_eq!(cfg.menu.len(), 1);
        assert_eq!(cfg.max_area_mm2, 10.0);
        let costs = cfg.costs();
        assert_eq!(
            (costs.scale_up_s, costs.migrate_s, costs.repartition_s),
            (0.01, 0.02, 0.03)
        );
        assert!(cfg.validate().is_ok());
    }
}
