//! **Megafleet headline** — million-stream serving in a bounded
//! footprint: a 4-chip cloud-class Maelstrom-HDA fleet serves a
//! 1M-tenant multi-hour diurnal mix (`diurnal_fleet_stream`, aggregate
//! rate held at ~55% of fleet capacity), once in the materialized
//! baseline configuration (`ReportMode::Exact`, full audit trail) and
//! once in the streaming configuration (`ReportMode::sketch()`, audit
//! trail off). Both runs are the *same* deterministic simulation — the
//! streaming report's scalar aggregates (frames, miss rate) match the
//! baseline exactly and its percentiles agree within the sketch's
//! relative-error bound — but the baseline retains every frame record,
//! busy span and routing decision while the streaming run keeps
//! O(buckets + streams) aggregates. The [`MemProfile`] byte accounting
//! of each run is reported per category, and the bin asserts the
//! headline gate: the streaming run's report+trace bytes are at least
//! 10x smaller than the baseline's.
//!
//! A separate `sketch_check` section pins sketch-vs-exact agreement on
//! a small two-chip scenario (exact scalars equal, percentiles within
//! the relative-error bound, repeat-identical), so CI's mem-smoke job
//! validates accuracy as well as footprint.
//!
//! Pass `--fast` for a 20k-tenant run with the same shape (CI scale);
//! pass `--json` for the machine-readable record (`BENCH_pr8.json`).

use herald::prelude::*;
use herald_bench::{bench_args, print_profile, utilization_fps_scale};
use herald_workloads::diurnal_fleet_stream;
use std::time::Instant;

/// Headline gate: baseline report+trace bytes over streaming bytes.
const REDUCTION_GATE_X: f64 = 10.0;

/// Committed fast-mode footprint gate for CI's mem-smoke job: the
/// 20k-tenant streaming run must keep its tracked report+trace bytes
/// under this ceiling.
const FAST_STREAMING_BYTES_GATE: u64 = 48 * 1024 * 1024;

struct RunRow {
    label: &'static str,
    frames: usize,
    events: u64,
    wall_s: f64,
    miss_rate: f64,
    p99_s: f64,
    mem: MemProfile,
}

impl RunRow {
    fn events_per_second(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            self.events as f64 / self.wall_s
        }
    }
}

fn main() -> Result<(), HeraldError> {
    let args = bench_args();
    let (fast, json_mode) = (args.fast, args.json);
    let tenants: usize = if fast { 20_000 } else { 1_000_000 };
    let frames_per_tenant = 4.0f64;
    let chips_n = 4usize;
    let seed = 2026u64;
    let t0 = Instant::now();

    // Cloud-class Maelstrom HDA chips: the per-frame service times are
    // small enough that a 4-chip fleet sustains a few hundred frames
    // per second, which over the multi-hour horizon yields the
    // frames >> streams regime the streaming report mode targets.
    let res = AcceleratorClass::Cloud.resources();
    let chip = AcceleratorConfig::maelstrom(res, Partition::even(2, res.pes, res.bandwidth_gbps))?;

    // Calibration: one chip's serial capacity on the 5-model tenant
    // rotation (a 5-tenant unit-rate instance of the same generator).
    let unit = diurnal_fleet_stream(5, 1.0, 1.0, 1.0, 1.0, seed);
    let chip_capacity_fps = utilization_fps_scale(&unit, &chip, 1.0, fast)?;
    let fleet_capacity_fps = chips_n as f64 * chip_capacity_fps;

    // The diurnal mix rests at 40% of fleet capacity and peaks at 70%,
    // so queues stay bounded while the midday ramp is visible in the
    // miss rate. The horizon is set by the frames-per-tenant target:
    // 1M tenants at ~55% of capacity lands at a multi-hour day.
    let trough_fps = 0.40 * fleet_capacity_fps;
    let peak_fps = 0.70 * fleet_capacity_fps;
    let mean_fps = 0.5 * (trough_fps + peak_fps);
    let horizon_s = frames_per_tenant * tenants as f64 / mean_fps;
    let deadline_s = 4.0 / chip_capacity_fps;
    let scenario = diurnal_fleet_stream(tenants, trough_fps, peak_fps, deadline_s, horizon_s, seed);

    if !json_mode {
        println!(
            "megafleet headline: {} ({tenants} tenants, {trough_fps:.1}->{peak_fps:.1} fps \
             diurnal, deadline {deadline_s:.4} s, horizon {horizon_s:.0} s) on {chips_n}x {}",
            scenario.name(),
            chip.name()
        );
    }

    // The big runs go through `FleetSimulator` directly rather than the
    // `Experiment` facade: `Scenario::design_workload` merges one
    // instance per stream, which is exactly the O(streams) workload
    // materialization this bin exists to avoid.
    let run = |mode: ReportMode, audit: bool, label: &'static str| {
        let fleet = FleetConfig::homogeneous(&chip, chips_n).with_audit_trail(audit);
        let sim_t0 = Instant::now();
        let (report, profile) = FleetSimulator::new(&fleet)
            .with_dispatcher(DispatchPolicy::LeastLoaded)
            .with_report_mode(mode)
            .simulate_profiled(&scenario)?;
        let wall_s = sim_t0.elapsed().as_secs_f64();
        Ok::<(RunRow, HotPathProfile), HeraldError>((
            RunRow {
                label,
                frames: report.frames_total(),
                events: profile.events,
                wall_s,
                miss_rate: report.deadline_miss_rate(),
                p99_s: report.latency_percentile(0.99),
                mem: profile.mem,
            },
            profile,
        ))
    };

    let (baseline, _) = run(ReportMode::Exact, true, "baseline (exact + audit)")?;
    let (streaming, stream_profile) = run(ReportMode::sketch(), false, "streaming (sketch)")?;

    // Scalar aggregates must be identical across report modes: the
    // simulation is the same, only the retention differs.
    assert_eq!(baseline.frames, streaming.frames);
    assert_eq!(baseline.events, streaming.events);
    assert!(
        (baseline.miss_rate - streaming.miss_rate).abs() < 1e-15,
        "miss rate is exact in both modes: {} vs {}",
        baseline.miss_rate,
        streaming.miss_rate
    );

    let reduction_x = baseline.mem.report_trace_bytes() as f64
        / (streaming.mem.report_trace_bytes().max(1)) as f64;
    let tracked_reduction_x =
        baseline.mem.tracked_total() as f64 / (streaming.mem.tracked_total().max(1)) as f64;
    assert!(
        reduction_x >= REDUCTION_GATE_X,
        "streaming report+trace bytes must be at least {REDUCTION_GATE_X}x smaller: \
         baseline {} B vs streaming {} B ({reduction_x:.1}x)",
        baseline.mem.report_trace_bytes(),
        streaming.mem.report_trace_bytes()
    );
    if fast {
        assert!(
            streaming.mem.report_trace_bytes() < FAST_STREAMING_BYTES_GATE,
            "fast-mode streaming footprint {} B exceeds the committed {} B gate",
            streaming.mem.report_trace_bytes(),
            FAST_STREAMING_BYTES_GATE
        );
    }

    let mem_row = |r: &RunRow| {
        serde_json::json!({
            "frames": r.frames,
            "events": r.events,
            "deadline_miss_rate": r.miss_rate,
            "p99_latency_s": r.p99_s,
            "report_trace_bytes": r.mem.report_trace_bytes(),
            "peak_tracked_bytes": r.mem.tracked_total(),
            "mem_profile": r.mem,
            "wall_clock_s": r.wall_s,
            "events_per_second": r.events_per_second(),
        })
    };
    let print_row = |r: &RunRow| {
        println!(
            "  {:<26} {:>9} frames, miss {:>5.2}%, p99 {:.4} s, report+trace {:>12} B \
             (total {:>12} B), {:>9.0} events/s",
            r.label,
            r.frames,
            r.miss_rate * 100.0,
            r.p99_s,
            r.mem.report_trace_bytes(),
            r.mem.tracked_total(),
            r.events_per_second()
        );
    };
    if !json_mode {
        print_row(&baseline);
        print_row(&streaming);
    }

    // Sketch-vs-exact agreement on a small two-chip scenario, through
    // the `Experiment` facade (which the megafleet runs bypass): exact
    // scalars equal, percentiles within the sketch's relative-error
    // bound, and the sketch run repeat-identical.
    let small = diurnal_fleet_stream(
        64,
        0.10 * fleet_capacity_fps,
        0.18 * fleet_capacity_fps,
        deadline_s,
        240.0 / chip_capacity_fps,
        seed + 1,
    );
    let small_fleet = FleetConfig::homogeneous(&chip, 2);
    let small_run = |mode: ReportMode| {
        Experiment::new(small.design_workload())
            .dispatcher(DispatchPolicy::LeastLoaded)
            .report_mode(mode)
            .fleet(&small_fleet, &small)
    };
    let exact_small = small_run(ReportMode::Exact)?;
    let sketch_small = small_run(ReportMode::sketch())?;
    let sketch_again = small_run(ReportMode::sketch())?;
    let repeat_identical = *sketch_again.report() == *sketch_small.report();
    assert!(repeat_identical, "sketch runs must be repeat-identical");
    assert_eq!(
        exact_small.report().frames_total(),
        sketch_small.report().frames_total()
    );
    assert!(
        (exact_small.report().deadline_miss_rate() - sketch_small.report().deadline_miss_rate())
            .abs()
            < 1e-15
    );
    let rel = match ReportMode::sketch() {
        ReportMode::Sketch { relative_error, .. } => relative_error,
        ReportMode::Exact => unreachable!(),
    };
    let mut quantile_rows = Vec::new();
    let mut max_rel_err = 0.0f64;
    for q in [0.5, 0.95, 0.99] {
        let e = exact_small.report().latency_percentile(q);
        let s = sketch_small.report().latency_percentile(q);
        let err = if e > 0.0 { (s - e).abs() / e } else { 0.0 };
        max_rel_err = max_rel_err.max(err);
        assert!(
            err <= rel,
            "q={q}: sketch {s} vs exact {e} (rel err {err:.5} > bound {rel})"
        );
        quantile_rows.push(serde_json::json!({
            "q": q,
            "exact_s": e,
            "sketch_s": s,
            "rel_err": err,
        }));
    }
    if !json_mode {
        println!(
            "  sketch check: {} frames on 2 chips, max percentile rel err {:.5} \
             (bound {rel}), repeat-identical",
            sketch_small.report().frames_total(),
            max_rel_err
        );
    }

    let wall_s = t0.elapsed().as_secs_f64();
    if args.profile && !json_mode {
        print_profile(
            "streaming megafleet run (all chips merged)",
            &stream_profile,
        );
    }
    if json_mode {
        let record = serde_json::json!({
            "bench": "megafleet_headline",
            "fast": fast,
            "wall_clock_s": wall_s,
            "chip": chip.name(),
            "chips": chips_n,
            "tenants": tenants,
            "trough_fps": trough_fps,
            "peak_fps": peak_fps,
            "deadline_s": deadline_s,
            "horizon_s": horizon_s,
            "baseline": mem_row(&baseline),
            "streaming": mem_row(&streaming),
            "comparison": serde_json::json!({
                "report_trace_reduction_x": reduction_x,
                "tracked_total_reduction_x": tracked_reduction_x,
                "reduction_gate_x": REDUCTION_GATE_X,
                "passes_reduction_gate": reduction_x >= REDUCTION_GATE_X,
                // The golden differ skips the wall-clock throughputs
                // (`*_per_second`) and compares the compile counters. The
                // streaming run builds one cost table per workload per
                // chip, so the two counters match.
                "profile": serde_json::json!({
                    "baseline_events_per_second": baseline.events_per_second(),
                    "streaming_events_per_second": streaming.events_per_second(),
                    "schedule_compiles": stream_profile.schedule_compiles,
                    "cost_tables_built": stream_profile.cost_tables_built,
                }),
            }),
            "sketch_check": serde_json::json!({
                "scenario": small.name(),
                "chips": 2,
                "frames": sketch_small.report().frames_total(),
                "relative_error_bound": rel,
                "max_percentile_rel_err": max_rel_err,
                "quantiles": serde_json::Value::Seq(quantile_rows),
                "scalars_exact": true,
                "repeat_identical": repeat_identical,
            }),
        });
        println!("{}", record.to_json_pretty());
    } else {
        println!(
            "\ntotal: {} frames across {tenants} tenants; report+trace bytes {:.1}x smaller \
             streaming vs baseline (gate {REDUCTION_GATE_X}x), {:.0} events/s\n\
             (wall clock: {wall_s:.1}s)",
            streaming.frames,
            reduction_x,
            streaming.events_per_second(),
        );
    }
    Ok(())
}
