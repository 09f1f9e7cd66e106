//! `overload_ramp`: eight diurnal tenants ramped up to two-chip serial
//! capacity at the peak, under the repartitioning controller with exact
//! reports and the audit trail on. Few streams with deep queues: the commit
//! loop dominates, compile is invisible, and exact retention keeps every
//! frame and span.
//!
//! How deep the queues grow at the peak depends on the trace, so one trace
//! makes the pass time depend on the seed more than on the code. A pass
//! runs `RAMPS` traces drawn from the seed, one after another, and holds
//! every report until it ends, as a caller comparing them would.

use std::collections::hash_map::DefaultHasher;
use std::error::Error;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use herald::prelude::*;
use herald::workloads::seeded::derive_seed;
use herald::workloads::{diurnal_ramp_trace, fleet_mix_stream};
use herald_bench::utilization_fps_scale;

use crate::trace::Tracer;
use crate::{count_arrivals, sample_engine, PassStats, Verdicts, Workload};

const TENANTS: usize = 8;
const CHIPS: usize = 2;
/// Traces per pass; each has its own capacity calibration and controller.
const RAMPS: usize = 4;
const FRAMES_TARGET: f64 = 60_000.0;
const EPOCHS: f64 = 48.0;
/// Load at the trough and at the peak, as a share of two-chip capacity.
const TROUGH_LOAD: f64 = 0.55;
const PEAK_LOAD: f64 = 1.0;

/// What one controlled run produced, kept for the checks after timing.
struct Observed {
    frames: usize,
    dropped: usize,
    digest: u64,
}

/// One ramp trace with the controller config calibrated for it.
struct Ramp {
    control: ControllerConfig,
    scenario: Scenario,
}

pub struct OverloadRamp {
    fleet: FleetConfig,
    ramps: Vec<Ramp>,
    /// Per pass, one entry per ramp.
    observed: Vec<Vec<Observed>>,
}

impl OverloadRamp {
    /// `RAMPS` traces from seeds derived from `seed`; the first uses
    /// `seed` itself.
    pub fn setup(seed: u64) -> Result<Self, Box<dyn Error>> {
        let res = AcceleratorClass::Edge.resources();
        let chip =
            AcceleratorConfig::maelstrom(res, Partition::even(2, res.pes, res.bandwidth_gbps))?;
        let ramps = (0..RAMPS as u64)
            .map(|i| Ramp::setup(&chip, derive_seed(seed, i << 32)))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            fleet: FleetConfig::homogeneous(&chip, CHIPS).with_audit_trail(true),
            ramps,
            observed: Vec::new(),
        })
    }

    fn simulator<'a>(&'a self, ramp: &'a Ramp) -> ControlledFleetSimulator<'a> {
        ControlledFleetSimulator::new(&self.fleet, &ramp.control)
            .with_dispatcher(DispatchPolicy::LeastLoaded)
            .with_report_mode(ReportMode::Exact)
    }

    /// One controlled run of `ramp`. Returns its report, what the checks
    /// need, and the host seconds spent reading the report or probing.
    fn run(
        &self,
        ramp: &Ramp,
        tr: &mut Tracer,
    ) -> Result<(ControlledFleetReport, Observed, f64), Box<dyn Error>> {
        let report = if tr.enabled() {
            let (run, secs) = tr.span("controller.simulate", |_| {
                self.simulator(ramp).simulate_profiled(&ramp.scenario)
            });
            let (report, profile) = run?;
            sample_engine(tr, &profile, secs, CHIPS, "controller");
            tr.sample("controller.epochs", "count", report.epochs() as f64);
            tr.sample(
                "controller.actions_applied",
                "count",
                report.actions_applied() as f64,
            );
            report
        } else {
            self.simulator(ramp).simulate(&ramp.scenario)?
        };
        let t0 = Instant::now();
        if tr.enabled() {
            tr.span("probes", |tr| count_arrivals(tr, &ramp.scenario));
        }
        let fleet = report.fleet();
        let observed = Observed {
            frames: fleet.frames_total(),
            dropped: fleet.dropped_total(),
            digest: digest(&report),
        };
        Ok((report, observed, t0.elapsed().as_secs_f64()))
    }
}

impl Ramp {
    /// Capacity calibration on the eight-tenant mix, then the diurnal
    /// ramp trace and the repartitioner's controller config.
    fn setup(chip: &AcceleratorConfig, seed: u64) -> Result<Self, Box<dyn Error>> {
        let unit = fleet_mix_stream(TENANTS, 1.0, 1.0, 1.0, seed);
        let chip_fps = utilization_fps_scale(&unit, chip, 1.0, false)?;
        let service_s = 1.0 / chip_fps;
        let fleet_fps = CHIPS as f64 * chip_fps;
        let (trough, peak) = (TROUGH_LOAD * fleet_fps, PEAK_LOAD * fleet_fps);
        let horizon_s = FRAMES_TARGET / (0.5 * (trough + peak));
        let scenario = diurnal_ramp_trace(TENANTS, trough, peak, 3.0 * service_s, horizon_s, seed);
        let control = ControllerConfig::new(horizon_s / EPOCHS, ControllerPolicy::repartitioner())
            .with_menu(vec![chip.clone()])
            .with_area_budget(CHIPS as f64 * chip.area_mm2())
            .with_costs(2.0 * service_s, 0.5 * service_s, service_s);
        Ok(Self { control, scenario })
    }
}

impl Workload for OverloadRamp {
    fn pass(&mut self, tr: &mut Tracer) -> Result<PassStats, Box<dyn Error>> {
        let (mut reports, mut observed, mut untimed_s) = (Vec::new(), Vec::new(), 0.0);
        for ramp in &self.ramps {
            let (report, o, secs) = self.run(ramp, tr)?;
            reports.push(report);
            observed.push(o);
            untimed_s += secs;
        }
        let events = observed.iter().map(|o| (o.frames + o.dropped) as f64).sum();
        self.observed.push(observed);
        Ok(PassStats { events, untimed_s })
    }

    /// Every run conserves frames (routed = served + dropped) and gives
    /// the same report digest as the first pass's run of its ramp.
    fn verify(&mut self) -> Result<Verdicts, Box<dyn Error>> {
        let routed: Vec<usize> = self
            .ramps
            .iter()
            .map(|r| count_arrivals(&mut Tracer::new(false), &r.scenario))
            .collect();
        let first: Vec<u64> = self
            .observed
            .first()
            .map(|runs| runs.iter().map(|o| o.digest).collect())
            .unwrap_or_default();
        Ok(std::mem::take(&mut self.observed)
            .into_iter()
            .map(|runs| {
                for (i, o) in runs.iter().enumerate() {
                    if o.frames + o.dropped != routed[i] {
                        return Err(format!(
                            "ramp {i}: {} served + {} dropped != {} routed",
                            o.frames, o.dropped, routed[i]
                        ));
                    }
                    if Some(&o.digest) != first.get(i) {
                        return Err(format!(
                            "ramp {i}: report digest differs from the first pass"
                        ));
                    }
                }
                Ok(())
            })
            .collect())
    }
}

/// A digest of everything the controlled run decided and simulated: every
/// served frame, the routing audit trail, and the controller's actions.
fn digest(report: &ControlledFleetReport) -> u64 {
    let mut h = DefaultHasher::new();
    let fleet = report.fleet();
    for chip in fleet.per_chip() {
        for f in chip.frames() {
            (f.stream, f.seq, f.arrival_s.to_bits(), f.finish_s.to_bits()).hash(&mut h);
            (f.missed, f.energy_j.to_bits()).hash(&mut h);
        }
        chip.busy_spans().len().hash(&mut h);
    }
    format!("{:?}{:?}", fleet.assignments(), fleet.dropped()).hash(&mut h);
    format!("{:?}", report.events()).hash(&mut h);
    (report.epochs(), report.actions_applied()).hash(&mut h);
    h.finish()
}
