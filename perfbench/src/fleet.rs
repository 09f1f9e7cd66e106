//! `tenant_fleet`: about 100k diurnal tenants, four frames each, on two
//! cloud Maelstrom chips with sketch reports. Many distinct streams with
//! shallow queues: per-tenant compile and the k-way trace merge dominate,
//! while the cost model and DSE sit idle.

use std::error::Error;

use herald::prelude::*;
use herald::workloads::diurnal_fleet_stream;
use herald_bench::utilization_fps_scale;

use crate::trace::Tracer;
use crate::{count_arrivals, sample_engine, PassStats, Verdicts, Workload};

const TENANTS: usize = 100_000;
const FRAMES_PER_TENANT: f64 = 4.0;
const CHIPS: usize = 2;

/// What one pass produced, kept for the checks after timing.
struct Observed {
    frames: usize,
    dropped: usize,
    miss_rate: f64,
    p99_s: f64,
}

pub struct TenantFleet {
    fleet: FleetConfig,
    scenario: Scenario,
    observed: Vec<Observed>,
}

impl TenantFleet {
    /// Capacity calibration on the five-model rotation, then the
    /// 100k-tenant scenario resting at 40% of fleet capacity and peaking
    /// at 70%.
    pub fn setup(seed: u64) -> Result<Self, Box<dyn Error>> {
        let res = AcceleratorClass::Cloud.resources();
        let chip =
            AcceleratorConfig::maelstrom(res, Partition::even(2, res.pes, res.bandwidth_gbps))?;
        let unit = diurnal_fleet_stream(5, 1.0, 1.0, 1.0, 1.0, seed);
        let chip_fps = utilization_fps_scale(&unit, &chip, 1.0, false)?;
        let fleet_fps = CHIPS as f64 * chip_fps;
        let (trough, peak) = (0.40 * fleet_fps, 0.70 * fleet_fps);
        let horizon_s = FRAMES_PER_TENANT * TENANTS as f64 / (0.5 * (trough + peak));
        let scenario = diurnal_fleet_stream(TENANTS, trough, peak, 4.0 / chip_fps, horizon_s, seed);
        Ok(Self {
            fleet: FleetConfig::homogeneous(&chip, CHIPS).with_audit_trail(false),
            scenario,
            observed: Vec::new(),
        })
    }

    fn simulator(&self, mode: ReportMode) -> FleetSimulator<'_> {
        FleetSimulator::new(&self.fleet)
            .with_dispatcher(DispatchPolicy::LeastLoaded)
            .with_report_mode(mode)
    }
}

impl Workload for TenantFleet {
    fn pass(&mut self, tr: &mut Tracer) -> Result<PassStats, Box<dyn Error>> {
        let report = if tr.enabled() {
            let (run, secs) = tr.span("fleet.simulate", |_| {
                self.simulator(ReportMode::sketch())
                    .simulate_profiled(&self.scenario)
            });
            let (report, profile) = run?;
            sample_engine(tr, &profile, secs, CHIPS, "fleet");
            report
        } else {
            self.simulator(ReportMode::sketch())
                .simulate(&self.scenario)?
        };
        let untimed_s = if tr.enabled() {
            tr.span("probes", |tr| count_arrivals(tr, &self.scenario)).1
        } else {
            0.0
        };
        let observed = Observed {
            frames: report.frames_total(),
            dropped: report.dropped_total(),
            miss_rate: report.deadline_miss_rate(),
            p99_s: report.latency_percentile(0.99),
        };
        let events = (observed.frames + observed.dropped) as f64;
        self.observed.push(observed);
        Ok(PassStats { events, untimed_s })
    }

    /// Every pass routes each arrival once and matches an exact-mode
    /// reference run: the same frames and miss rate, and a p99 within the
    /// sketch's relative-error bound.
    fn verify(&mut self) -> Result<Verdicts, Box<dyn Error>> {
        let arrivals = count_arrivals(&mut Tracer::new(false), &self.scenario);
        let exact = self.simulator(ReportMode::Exact).simulate(&self.scenario)?;
        let ReportMode::Sketch { relative_error, .. } = ReportMode::sketch() else {
            unreachable!("ReportMode::sketch is a sketch mode");
        };
        let exact_p99 = exact.latency_percentile(0.99);
        Ok(std::mem::take(&mut self.observed)
            .into_iter()
            .map(|o| {
                if o.frames + o.dropped != arrivals {
                    Err(format!(
                        "{} served + {} dropped != {arrivals} arrivals",
                        o.frames, o.dropped
                    ))
                } else if o.frames != exact.frames_total() {
                    Err(format!(
                        "{} frames vs {} in exact mode",
                        o.frames,
                        exact.frames_total()
                    ))
                } else if (o.miss_rate - exact.deadline_miss_rate()).abs() > 1e-15 {
                    Err(format!(
                        "miss rate {} vs {} in exact mode",
                        o.miss_rate,
                        exact.deadline_miss_rate()
                    ))
                } else if (o.p99_s - exact_p99).abs() > relative_error * exact_p99 {
                    Err(format!(
                        "p99 {} s vs exact {exact_p99} s, outside the {relative_error} bound",
                        o.p99_s
                    ))
                } else {
                    Ok(())
                }
            })
            .collect())
    }
}
