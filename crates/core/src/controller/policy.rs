//! The [`FleetController`] trait and the three shipped policies:
//! [`StaticController`] (never acts — the provably-bit-identical
//! baseline), [`ThresholdAutoscaler`] (hysteresis bands on the windowed
//! miss rate) and [`PredictiveRepartitioner`] (scores candidate
//! repartitions/migrations with the PR-5 service-estimate surrogate and
//! applies the best one that pays for its reconfiguration cost).

use crate::controller::{ChipTelemetry, ControlAction, ControlView};
use crate::error::HeraldError;
use herald_arch::{AcceleratorConfig, AcceleratorStyle, HardwareResources, Partition};
use serde::Serialize;

/// A closed-loop fleet controller: observes windowed per-chip telemetry
/// at every control-epoch boundary and emits reshaping actions.
///
/// Implementations must be deterministic — `decide` may keep state
/// across epochs (hysteresis counters, cooldowns) but must be a pure
/// function of its inputs and that state, with float ties broken by
/// index. The simulator validates every returned action and records
/// rejected ones in the event log instead of failing the run.
pub trait FleetController {
    /// Policy name, recorded in the report.
    fn name(&self) -> &'static str;

    /// Whether the walk must compute telemetry (and therefore service
    /// estimates) for this controller. [`StaticController`] returns
    /// `false`, which keeps the static path bit-identical to the
    /// uncontrolled fleet simulator — including its estimate-skipping
    /// fast path. Controllers returning `false` are never polled.
    fn needs_telemetry(&self) -> bool {
        true
    }

    /// One control decision: telemetry covers the elapsed window, the
    /// view exposes fleet composition, routing pins, budget and the
    /// service-estimate surrogate.
    ///
    /// # Errors
    ///
    /// Propagates surrogate-evaluation failures
    /// ([`ControlView::estimate`]).
    fn decide(
        &mut self,
        telemetry: &[ChipTelemetry],
        view: &ControlView<'_>,
    ) -> Result<Vec<ControlAction>, HeraldError>;
}

/// The do-nothing baseline: a controlled run under this policy is
/// bit-identical to [`crate::fleet::FleetSimulator`] on the same
/// scenario (pinned by the equivalence suite).
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticController;

impl FleetController for StaticController {
    fn name(&self) -> &'static str {
        "static"
    }

    fn needs_telemetry(&self) -> bool {
        false
    }

    fn decide(
        &mut self,
        _telemetry: &[ChipTelemetry],
        _view: &ControlView<'_>,
    ) -> Result<Vec<ControlAction>, HeraldError> {
        Ok(Vec::new())
    }
}

/// SLO-driven autoscaling with hysteresis: scale up after the
/// fleet-wide windowed miss rate sits above `scale_up_miss` for
/// `sustain_epochs` consecutive epochs, scale down (retiring the
/// least-utilized chip) after it sits at or below `scale_down_miss`
/// equally long, and hold still for `cooldown_epochs` after every
/// action so one decision's transient settles before the next.
#[derive(Debug, Clone)]
pub struct ThresholdAutoscaler {
    /// Windowed miss rate above which capacity is added.
    pub scale_up_miss: f64,
    /// Windowed miss rate at or below which capacity is retired.
    pub scale_down_miss: f64,
    /// Consecutive epochs a band must hold before acting.
    pub sustain_epochs: usize,
    /// Quiet epochs after any action.
    pub cooldown_epochs: usize,
    /// Menu index a scale-up adds.
    pub menu_chip: usize,
    /// Never retire below this many live chips.
    pub min_chips: usize,
    high_streak: usize,
    low_streak: usize,
    cooldown: usize,
}

impl ThresholdAutoscaler {
    /// An autoscaler with the given hysteresis band, eager timing
    /// (1-epoch sustain, 1-epoch cooldown), menu chip 0 and a 1-chip
    /// floor.
    #[must_use]
    pub fn new(scale_up_miss: f64, scale_down_miss: f64) -> Self {
        Self {
            scale_up_miss,
            scale_down_miss,
            sustain_epochs: 1,
            cooldown_epochs: 1,
            menu_chip: 0,
            min_chips: 1,
            high_streak: 0,
            low_streak: 0,
            cooldown: 0,
        }
    }
}

impl FleetController for ThresholdAutoscaler {
    fn name(&self) -> &'static str {
        "threshold-autoscaler"
    }

    fn decide(
        &mut self,
        telemetry: &[ChipTelemetry],
        _view: &ControlView<'_>,
    ) -> Result<Vec<ControlAction>, HeraldError> {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return Ok(Vec::new());
        }
        let (misses, deadline_frames) = telemetry.iter().fold((0usize, 0usize), |(m, d), t| {
            (m + t.window_predicted_misses, d + t.window_deadline_frames)
        });
        let miss = if deadline_frames == 0 {
            0.0
        } else {
            misses as f64 / deadline_frames as f64
        };
        if miss > self.scale_up_miss {
            self.high_streak += 1;
            self.low_streak = 0;
        } else if miss <= self.scale_down_miss {
            self.low_streak += 1;
            self.high_streak = 0;
        } else {
            self.high_streak = 0;
            self.low_streak = 0;
        }
        if self.high_streak >= self.sustain_epochs {
            // Emit the intent; the simulator enforces the menu bounds
            // and area budget and logs a rejection if it cannot land.
            self.high_streak = 0;
            self.cooldown = self.cooldown_epochs;
            return Ok(vec![ControlAction::ScaleUp {
                menu_chip: self.menu_chip,
            }]);
        }
        if self.low_streak >= self.sustain_epochs && telemetry.len() > self.min_chips {
            // Retire the least-utilized live chip; ties break to the
            // lowest slot.
            let victim = telemetry
                .iter()
                .min_by(|a, b| {
                    a.utilization
                        .total_cmp(&b.utilization)
                        .then(a.slot.cmp(&b.slot))
                })
                .map(|t| t.slot);
            self.low_streak = 0;
            if let Some(slot) = victim {
                self.cooldown = self.cooldown_epochs;
                return Ok(vec![ControlAction::ScaleDown { slot }]);
            }
        }
        Ok(Vec::new())
    }
}

/// Mid-run repartitioning and migration driven by the PR-5
/// service-estimate surrogate: find the worst live chip by windowed
/// miss rate; if it clears `miss_threshold`, score candidate
/// re-splits of its sub-accelerators (2-way HDAs) and rehoming its
/// heaviest stream against the window's resident tenant mix, and apply
/// the single best candidate whose predicted per-window saving exceeds
/// its reconfiguration cost plus `min_gain_s`.
#[derive(Debug, Clone)]
pub struct PredictiveRepartitioner {
    /// Windowed miss rate a chip must exceed before candidates are
    /// scored.
    pub miss_threshold: f64,
    /// Extra predicted saving (seconds per window) a candidate must
    /// clear beyond its reconfiguration cost.
    pub min_gain_s: f64,
}

/// The candidate PE fractions assigned to way 0 when re-splitting a
/// 2-way HDA (bandwidth follows the same fraction).
const SPLIT_FRACTIONS: [f64; 5] = [0.25, 0.375, 0.5, 0.625, 0.75];

impl PredictiveRepartitioner {
    /// A repartitioner acting above the given windowed miss rate.
    #[must_use]
    pub fn new(miss_threshold: f64) -> Self {
        Self {
            miss_threshold,
            min_gain_s: 0.0,
        }
    }

    /// Window-weighted predicted service load of `telemetry`'s resident
    /// mix on `config`: sum over streams of (frames in window) x
    /// (estimated single-frame service time), seconds.
    fn window_load(
        t: &ChipTelemetry,
        config: &AcceleratorConfig,
        view: &ControlView<'_>,
    ) -> Result<f64, HeraldError> {
        let mut load = 0.0;
        for (stream, &frames) in t.stream_frames.iter().enumerate() {
            if frames > 0 {
                load += frames as f64 * view.estimate(stream, config)?;
            }
        }
        Ok(load)
    }

    /// Candidate re-splits of a 2-way HDA's total resources.
    fn candidate_partitions(config: &AcceleratorConfig) -> Vec<Partition> {
        let AcceleratorStyle::Hda(styles) = config.style() else {
            return Vec::new();
        };
        if styles.len() != 2 {
            return Vec::new();
        }
        let total_pes = config.total_pes();
        let total_bw = config.total_bandwidth_gbps();
        if total_pes < 2 {
            return Vec::new();
        }
        SPLIT_FRACTIONS
            .iter()
            .filter_map(|&frac| {
                let p0 = (((total_pes as f64) * frac).round() as u32).clamp(1, total_pes - 1);
                let bw0 = total_bw * f64::from(p0) / f64::from(total_pes);
                Partition::new(vec![p0, total_pes - p0], vec![bw0, total_bw - bw0]).ok()
            })
            .collect()
    }
}

impl FleetController for PredictiveRepartitioner {
    fn name(&self) -> &'static str {
        "predictive-repartitioner"
    }

    fn decide(
        &mut self,
        telemetry: &[ChipTelemetry],
        view: &ControlView<'_>,
    ) -> Result<Vec<ControlAction>, HeraldError> {
        // Worst live chip by windowed miss rate; ties to the lowest
        // slot.
        let Some(worst) = telemetry
            .iter()
            .filter(|t| t.window_deadline_frames > 0)
            .max_by(|a, b| {
                a.window_miss_rate()
                    .total_cmp(&b.window_miss_rate())
                    .then(b.slot.cmp(&a.slot))
            })
        else {
            return Ok(Vec::new());
        };
        if worst.window_miss_rate() <= self.miss_threshold {
            return Ok(Vec::new());
        }
        let Some(chip) = view.chips.iter().find(|c| c.slot == worst.slot) else {
            return Ok(Vec::new());
        };
        let current_load = Self::window_load(worst, &chip.config, view)?;
        let mut best: Option<(f64, ControlAction)> = None;
        let mut consider = |gain: f64, cost: f64, action: ControlAction| {
            if gain > cost + self.min_gain_s && best.as_ref().is_none_or(|(g, _)| gain > *g) {
                best = Some((gain, action));
            }
        };

        // Candidate 1: re-split the worst chip for its resident mix.
        let res = HardwareResources::new(
            chip.config.total_pes(),
            chip.config.total_bandwidth_gbps(),
            chip.config.global_buffer_bytes(),
        );
        if let AcceleratorStyle::Hda(styles) = chip.config.style() {
            for partition in Self::candidate_partitions(&chip.config) {
                let Ok(candidate) = AcceleratorConfig::hda(styles, res, partition.clone()) else {
                    continue;
                };
                if candidate == chip.config {
                    continue;
                }
                let load = Self::window_load(worst, &candidate, view)?;
                consider(
                    current_load - load,
                    view.costs.repartition_s,
                    ControlAction::Repartition {
                        slot: worst.slot,
                        partition,
                    },
                );
            }
        }

        // Candidate 2: rehome the worst chip's heaviest stream to the
        // least-backlogged other live chip.
        if let Some(target) = telemetry
            .iter()
            .filter(|t| t.slot != worst.slot)
            .min_by(|a, b| {
                a.backlog_s
                    .total_cmp(&b.backlog_s)
                    .then(a.slot.cmp(&b.slot))
            })
        {
            let heaviest = worst
                .stream_frames
                .iter()
                .enumerate()
                .filter(|(_, &frames)| frames > 0)
                .max_by(|(sa, a), (sb, b)| a.cmp(b).then(sb.cmp(sa)));
            if let Some((stream, &frames)) = heaviest {
                if view.pins[stream] != Some(target.slot) {
                    let moved = frames as f64 * view.estimate(stream, &chip.config)?;
                    // Discount by how busy the destination already is:
                    // moving load onto a saturated chip helps nobody.
                    let gain = moved * (1.0 - target.utilization).max(0.0);
                    consider(
                        gain,
                        view.costs.migrate_s,
                        ControlAction::MigrateStream {
                            stream,
                            to_slot: target.slot,
                        },
                    );
                }
            }
        }

        Ok(best.map(|(_, action)| vec![action]).unwrap_or_default())
    }
}

/// Plain-data policy selector for facade and config use, mirroring
/// [`crate::fleet::DispatchPolicy`]: [`ControllerPolicy::build`] turns
/// it into the stateful [`FleetController`] it names.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ControllerPolicy {
    /// Never act ([`StaticController`]).
    Static,
    /// Hysteresis autoscaling ([`ThresholdAutoscaler`]).
    ThresholdAutoscaler {
        /// Windowed miss rate above which capacity is added.
        scale_up_miss: f64,
        /// Windowed miss rate at or below which capacity is retired.
        scale_down_miss: f64,
        /// Consecutive epochs a band must hold before acting.
        sustain_epochs: usize,
        /// Quiet epochs after any action.
        cooldown_epochs: usize,
        /// Menu index a scale-up adds.
        menu_chip: usize,
        /// Never retire below this many live chips.
        min_chips: usize,
    },
    /// Surrogate-scored repartitioning/migration
    /// ([`PredictiveRepartitioner`]).
    PredictiveRepartitioner {
        /// Windowed miss rate a chip must exceed before candidates are
        /// scored.
        miss_threshold: f64,
        /// Extra predicted saving required beyond the action cost,
        /// seconds per window.
        min_gain_s: f64,
    },
}

impl ControllerPolicy {
    /// An eager autoscaler: act when the windowed miss rate crosses
    /// 10% (up) / 1% (down), sustained for one epoch, with a one-epoch
    /// cooldown, drawing menu chip 0, never below one chip.
    #[must_use]
    pub fn autoscaler() -> Self {
        ControllerPolicy::ThresholdAutoscaler {
            scale_up_miss: 0.10,
            scale_down_miss: 0.01,
            sustain_epochs: 1,
            cooldown_epochs: 1,
            menu_chip: 0,
            min_chips: 1,
        }
    }

    /// A repartitioner acting above a 5% windowed miss rate with no
    /// extra gain margin.
    #[must_use]
    pub fn repartitioner() -> Self {
        ControllerPolicy::PredictiveRepartitioner {
            miss_threshold: 0.05,
            min_gain_s: 0.0,
        }
    }

    /// Stable display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ControllerPolicy::Static => "static",
            ControllerPolicy::ThresholdAutoscaler { .. } => "threshold-autoscaler",
            ControllerPolicy::PredictiveRepartitioner { .. } => "predictive-repartitioner",
        }
    }

    /// Instantiates the stateful controller this policy names.
    #[must_use]
    pub fn build(&self) -> Box<dyn FleetController> {
        match *self {
            ControllerPolicy::Static => Box::new(StaticController),
            ControllerPolicy::ThresholdAutoscaler {
                scale_up_miss,
                scale_down_miss,
                sustain_epochs,
                cooldown_epochs,
                menu_chip,
                min_chips,
            } => Box::new(ThresholdAutoscaler {
                sustain_epochs,
                cooldown_epochs,
                menu_chip,
                min_chips,
                ..ThresholdAutoscaler::new(scale_up_miss, scale_down_miss)
            }),
            ControllerPolicy::PredictiveRepartitioner {
                miss_threshold,
                min_gain_s,
            } => Box::new(PredictiveRepartitioner {
                miss_threshold,
                min_gain_s,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::sim::Estimator;
    use crate::controller::{ActionCosts, ChipStatus, ChipTelemetry, ControlView};
    use crate::ctx::EvalContext;
    use crate::fleet::WalkRow;
    use crate::sched::HeraldScheduler;
    use herald_arch::AcceleratorClass;
    use herald_dataflow::DataflowStyle;
    use herald_models::zoo;
    use herald_workloads::{single_model, Scenario, StreamSpec};

    fn telem(
        slot: usize,
        utilization: f64,
        deadline_frames: usize,
        misses: usize,
    ) -> ChipTelemetry {
        ChipTelemetry {
            slot,
            chip: format!("chip{slot}"),
            utilization,
            backlog_s: 0.0,
            window_frames: deadline_frames,
            window_deadline_frames: deadline_frames,
            window_predicted_misses: misses,
            stream_frames: vec![deadline_frames],
        }
    }

    fn two_stream_scenario() -> Scenario {
        Scenario::new("pol", 0.04)
            .stream(
                StreamSpec::periodic("cam", single_model(zoo::mobilenet_v1(), 1), 200.0)
                    .with_deadline(0.02),
            )
            .stream(
                StreamSpec::periodic("aux", single_model(zoo::mobilenet_v2(), 1), 100.0)
                    .with_deadline(0.04),
            )
    }

    fn view_fixture<'a>(
        est: &'a Estimator,
        streams: &'a [WalkRow],
        pins: &'a [Option<usize>],
        chips: Vec<ChipStatus>,
    ) -> ControlView<'a> {
        ControlView {
            now_s: 0.02,
            epoch: 1,
            cadence_s: 0.02,
            chips,
            menu: &[],
            max_area_mm2: f64::INFINITY,
            active_area_mm2: 0.0,
            pins,
            costs: ActionCosts {
                scale_up_s: 0.0,
                migrate_s: 0.0,
                repartition_s: 0.0,
            },
            estimator: est,
            streams,
        }
    }

    #[test]
    fn autoscaler_scales_on_band_crossings_with_cooldown() {
        let scenario = two_stream_scenario();
        let scheduler = Box::new(HeraldScheduler::default());
        let est = Estimator::new(&scenario, scheduler, EvalContext::new());
        let streams = est.workloads.walk_rows(&scenario);
        let pins = vec![None; 2];
        let view = view_fixture(&est, &streams, &pins, Vec::new());
        let mut ctl = ThresholdAutoscaler::new(0.10, 0.01);
        let hot = vec![telem(0, 1.5, 10, 5)];
        let cold = vec![telem(0, 0.4, 10, 0), telem(1, 0.1, 10, 0)];

        // Hot window: scale up immediately (1-epoch sustain).
        assert_eq!(
            ctl.decide(&hot, &view).unwrap(),
            vec![ControlAction::ScaleUp { menu_chip: 0 }]
        );
        // The cooldown swallows the next epoch even though it is hot...
        assert!(ctl.decide(&hot, &view).unwrap().is_empty());
        // ...then the persistent breach triggers again.
        assert_eq!(ctl.decide(&hot, &view).unwrap().len(), 1);
        // Cooldown again, then a cold window retires the least-utilized
        // chip (slot 1).
        assert!(ctl.decide(&cold, &view).unwrap().is_empty());
        assert_eq!(
            ctl.decide(&cold, &view).unwrap(),
            vec![ControlAction::ScaleDown { slot: 1 }]
        );
        // A lone chip is never retired (min_chips floor).
        ctl.cooldown = 0;
        let lone_cold = vec![telem(0, 0.4, 10, 0)];
        assert!(ctl.decide(&lone_cold, &view).unwrap().is_empty());
    }

    #[test]
    fn autoscaler_mid_band_resets_sustain_streaks() {
        let scenario = two_stream_scenario();
        let scheduler = Box::new(HeraldScheduler::default());
        let est = Estimator::new(&scenario, scheduler, EvalContext::new());
        let streams = est.workloads.walk_rows(&scenario);
        let pins = vec![None; 2];
        let view = view_fixture(&est, &streams, &pins, Vec::new());
        let mut ctl = ThresholdAutoscaler::new(0.10, 0.01);
        ctl.sustain_epochs = 2;
        let hot = vec![telem(0, 1.5, 10, 5)];
        // Miss rate 0.05 sits between the bands.
        let mid = vec![telem(0, 0.9, 20, 1)];

        assert!(ctl.decide(&hot, &view).unwrap().is_empty(), "1 of 2");
        assert!(ctl.decide(&mid, &view).unwrap().is_empty(), "streak reset");
        assert!(ctl.decide(&hot, &view).unwrap().is_empty(), "1 of 2 again");
        assert_eq!(ctl.decide(&hot, &view).unwrap().len(), 1, "2 of 2 acts");
    }

    #[test]
    fn repartitioner_is_deterministic_quiet_in_band_and_cost_aware() {
        let scenario = two_stream_scenario();
        let scheduler = Box::new(HeraldScheduler::default());
        let est = Estimator::new(&scenario, scheduler, EvalContext::new());
        let streams = est.workloads.walk_rows(&scenario);
        let pins = vec![None; 2];
        let probe =
            AcceleratorConfig::fda(DataflowStyle::Nvdla, AcceleratorClass::Edge.resources());
        let (pes, bw) = (probe.total_pes(), probe.total_bandwidth_gbps());
        let hda = AcceleratorConfig::hda(
            &[DataflowStyle::Nvdla, DataflowStyle::ShiDianNao],
            AcceleratorClass::Edge.resources(),
            Partition::even(2, pes, bw),
        )
        .unwrap();
        let chips = vec![
            ChipStatus {
                slot: 0,
                name: "chip0".into(),
                active: true,
                area_mm2: hda.area_mm2(),
                config: hda.clone(),
            },
            ChipStatus {
                slot: 1,
                name: "chip1".into(),
                active: true,
                area_mm2: hda.area_mm2(),
                config: hda.clone(),
            },
        ];
        let mut worst = telem(0, 1.4, 12, 8);
        worst.stream_frames = vec![8, 4];
        let mut calm_peer = telem(1, 0.2, 6, 0);
        calm_peer.stream_frames = vec![0, 6];
        let telemetry = vec![worst, calm_peer];
        let view = view_fixture(&est, &streams, &pins, chips.clone());

        let a = PredictiveRepartitioner::new(0.05)
            .decide(&telemetry, &view)
            .unwrap();
        let b = PredictiveRepartitioner::new(0.05)
            .decide(&telemetry, &view)
            .unwrap();
        assert_eq!(a, b, "decisions are a pure function of the inputs");
        assert_eq!(a.len(), 1, "one best candidate is applied per epoch");
        // Quiet when the worst chip is inside the SLO band.
        let calm: Vec<ChipTelemetry> = telemetry
            .iter()
            .cloned()
            .map(|mut t| {
                t.window_predicted_misses = 0;
                t
            })
            .collect();
        assert!(PredictiveRepartitioner::new(0.05)
            .decide(&calm, &view)
            .unwrap()
            .is_empty());
        // With prohibitive action costs no candidate pays for itself.
        let mut costly = view_fixture(&est, &streams, &pins, chips);
        costly.costs = ActionCosts {
            scale_up_s: 0.0,
            migrate_s: 1e9,
            repartition_s: 1e9,
        };
        assert!(PredictiveRepartitioner::new(0.05)
            .decide(&telemetry, &costly)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn view_estimates_price_a_configuration_outside_the_fleet_once() {
        let scenario = two_stream_scenario();
        let ctx = EvalContext::new();
        let est = Estimator::new(&scenario, Box::new(HeraldScheduler::default()), ctx.clone());
        let streams = est.workloads.walk_rows(&scenario);
        let pins = vec![None; 2];
        let edge = AcceleratorClass::Edge.resources();
        let chip = AcceleratorConfig::fda(DataflowStyle::Nvdla, edge);
        let chips = vec![ChipStatus {
            slot: 0,
            name: "chip0".into(),
            active: true,
            area_mm2: chip.area_mm2(),
            config: chip.clone(),
        }];
        let view = view_fixture(&est, &streams, &pins, chips);
        // The fleet's chip, priced for both streams as a walk would.
        for stream in 0..2 {
            view.estimate(stream, &chip).unwrap();
        }
        let work = || (est.rows(), ctx.stats().scheduler_runs());
        assert_eq!(work(), (1, 2));
        let outside = AcceleratorConfig::fda(DataflowStyle::ShiDianNao, edge);
        let first = view.estimate(0, &outside).unwrap();
        assert_eq!(work(), (2, 3), "one new row, one scheduler run");
        let again = view.estimate(0, &outside).unwrap();
        assert_eq!(again.to_bits(), first.to_bits());
        assert_eq!(work(), (2, 3), "a repeat adds neither");
    }

    #[test]
    fn policy_enum_labels_and_builders_round_trip() {
        assert_eq!(ControllerPolicy::Static.label(), "static");
        assert_eq!(ControllerPolicy::Static.build().name(), "static");
        assert!(!ControllerPolicy::Static.build().needs_telemetry());
        assert_eq!(
            ControllerPolicy::autoscaler().label(),
            "threshold-autoscaler"
        );
        assert_eq!(
            ControllerPolicy::autoscaler().build().name(),
            "threshold-autoscaler"
        );
        assert_eq!(
            ControllerPolicy::repartitioner().label(),
            "predictive-repartitioner"
        );
        assert_eq!(
            ControllerPolicy::repartitioner().build().name(),
            "predictive-repartitioner"
        );
        assert!(ControllerPolicy::autoscaler().build().needs_telemetry());
    }
}
