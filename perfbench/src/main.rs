//! The Herald benchmark. One closed-loop caller drives a public entry point
//! of the library, waits for the report, and calls again, for a fixed
//! number of seconds; the simulated arrivals inside each call are a seeded
//! open-loop trace. Every pass's output is checked, and a check that fails
//! counts as a failed operation.
//!
//! ```text
//! herald-perfbench --workload <design_sweep|tenant_fleet|overload_ramp>
//!                  --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON record of the
//! end-to-end metrics (host time, measured here around the library
//! calls). With `--trace 1` it holds the per-layer metrics instead, from
//! spans this benchmark records around each layer's public calls and from
//! the library's own counters; the spans go to `--trace-out` as Chrome
//! trace-event JSON.

mod fleet;
mod ramp;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::error::Error;
use std::time::{Duration, Instant};

use herald::prelude::*;
use herald::workloads::seeded::arrival_iter;

use trace::Tracer;

/// Per-pass output checks: `Err` holds why a pass failed.
pub type Verdicts = Vec<Result<(), String>>;

/// What a pass simulated, beside its host time (measured by the caller).
pub struct PassStats {
    /// Simulated frame events (routed frames) in the pass.
    pub events: f64,
    /// Host seconds the pass spent reading its report for the output
    /// checks, or in probes only a traced pass runs; excluded from the
    /// pass time.
    pub untimed_s: f64,
}

/// One benchmark workload: its inputs, built once by its `setup`, and the
/// pass the caller repeats.
pub trait Workload {
    /// One pass: the public calls a caller makes and waits for. With
    /// tracing on, the pass records spans and per-layer samples.
    fn pass(&mut self, tr: &mut Tracer) -> Result<PassStats, Box<dyn Error>>;

    /// The output checks of every pass run since the last call, in order.
    fn verify(&mut self) -> Result<Verdicts, Box<dyn Error>>;

    /// The Table III gains, if the pass computes them.
    fn gains(&self) -> Option<sweep::Gains> {
        None
    }
}

/// Workload names, in the order a traced run borrows missing layers from.
const WORKLOADS: [&str; 3] = ["design_sweep", "tenant_fleet", "overload_ramp"];

/// Setups per run: a batch of `MIN_SETUPS` before the warm-up, then a
/// batch after each timed pass, sized so that setups take `SETUP_SHARE` of
/// the timed loop. The host's speed drifts by up to 2x within a second:
/// batches spread over the whole loop see the same host as the passes, and
/// each batch's mean setup time averages over the drift as a pass does.
/// `setup_s` is the median of the batch means.
const MIN_SETUPS: usize = 5;
const SETUP_SHARE: f64 = 0.15;
/// Fewest timed passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Every per-layer metric a traced run reports, with its unit.
const PER_LAYER: [(&str, &str); 32] = [
    ("cost.query_ns", "ns"),
    ("cost.cached_query_ns", "ns"),
    ("cost.cache_hit_rate", "ratio"),
    ("cost.distinct_queries", "count"),
    ("sched.schedule_us", "us"),
    ("sched.placement_evals", "count"),
    ("exec.replay_us", "us"),
    ("dse.co_optimize_s", "s"),
    ("dse.points", "count"),
    ("dse.fleet_search_s", "s"),
    ("dse.fleet_skip_fraction", "ratio"),
    ("workloads.arrivals_per_s", "1/s"),
    ("sim.compile_s", "s"),
    ("sim.cost_tables_built", "count"),
    ("sim.schedule_cache_hit_rate", "ratio"),
    ("sim.commit_s", "s"),
    ("sim.commit_ns_per_event", "ns"),
    ("sim.admit_s", "s"),
    ("sim.harvest_s", "s"),
    ("sim.commit_share", "ratio"),
    ("sim.compile_share", "ratio"),
    ("fleet.simulate_s", "s"),
    ("fleet.outside_engine_s", "s"),
    ("mem.tracked_mb", "MB"),
    ("controller.simulate_s", "s"),
    ("controller.outside_engine_s", "s"),
    ("controller.epochs", "count"),
    ("controller.actions_applied", "count"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => trace = Some(value == "1"),
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, Box<dyn Error>> {
    Ok(match name {
        "design_sweep" => Box::new(sweep::DesignSweep::setup(seed)?),
        "tenant_fleet" => Box::new(fleet::TenantFleet::setup(seed)?),
        "overload_ramp" => Box::new(ramp::OverloadRamp::setup(seed)?),
        _ => unreachable!("workload names are checked when parsed"),
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Drains `arrival_iter` for every stream of `scenario` and returns the
/// arrival count; a traced call records `workloads.arrivals_per_s`.
pub fn count_arrivals(tr: &mut Tracer, scenario: &Scenario) -> usize {
    let horizon = scenario.horizon_s();
    let (n, secs) = tr.span("workloads.arrivals", |_| {
        scenario
            .streams()
            .iter()
            .map(|s| arrival_iter(s.arrival(), horizon).count())
            .sum::<usize>()
    });
    tr.sample("workloads.arrivals_per_s", "1/s", n as f64 / secs);
    n
}

/// Records the streaming engine's phase timers and counters from a
/// profiled fleet or controller run whose span lasted `span_s`.
/// `outside_engine_s` is the span minus the engine's phase sum per chip.
pub fn sample_engine(tr: &mut Tracer, p: &HotPathProfile, span_s: f64, chips: usize, layer: &str) {
    let engine_ns = (p.compile_ns + p.admit_ns + p.run_ns + p.harvest_ns).max(1) as f64;
    let lookups = (p.schedule_cache_hits + p.schedule_compiles).max(1) as f64;
    tr.sample("sim.compile_s", "s", p.compile_ns as f64 * 1e-9);
    tr.sample("sim.cost_tables_built", "count", p.cost_tables_built as f64);
    tr.sample(
        "sim.schedule_cache_hit_rate",
        "ratio",
        p.schedule_cache_hits as f64 / lookups,
    );
    tr.sample("sim.commit_s", "s", p.run_ns as f64 * 1e-9);
    tr.sample(
        "sim.commit_ns_per_event",
        "ns",
        p.run_ns as f64 / p.events.max(1) as f64,
    );
    tr.sample("sim.admit_s", "s", p.admit_ns as f64 * 1e-9);
    tr.sample("sim.harvest_s", "s", p.harvest_ns as f64 * 1e-9);
    tr.sample("sim.commit_share", "ratio", p.run_ns as f64 / engine_ns);
    tr.sample(
        "sim.compile_share",
        "ratio",
        p.compile_ns as f64 / engine_ns,
    );
    tr.sample(
        "mem.tracked_mb",
        "MB",
        p.mem.tracked_total() as f64 / (1u64 << 20) as f64,
    );
    let outside = span_s - engine_ns * 1e-9 / chips as f64;
    let (simulate, outside_engine) = match layer {
        "fleet" => ("fleet.simulate_s", "fleet.outside_engine_s"),
        _ => ("controller.simulate_s", "controller.outside_engine_s"),
    };
    tr.sample(simulate, "s", span_s);
    tr.sample(outside_engine, "s", outside);
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, Box<dyn Error>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}

/// Runs one pass and times it. An error is reported and counted as a
/// failed operation.
fn timed_pass(w: &mut dyn Workload, tr: &mut Tracer, failed: &mut u64) -> Option<(f64, PassStats)> {
    let t0 = Instant::now();
    match w.pass(tr) {
        Ok(stats) => Some((t0.elapsed().as_secs_f64() - stats.untimed_s, stats)),
        Err(e) => {
            eprintln!("pass failed: {e}");
            *failed += 1;
            None
        }
    }
}

/// Counts failed checks, reporting each.
fn count_failures(verdicts: &Verdicts) -> u64 {
    let mut failed = 0;
    for v in verdicts {
        if let Err(why) = v {
            eprintln!("check failed: {why}");
            failed += 1;
        }
    }
    failed
}

struct Record {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (String, f64)>,
    samples: BTreeMap<String, Vec<f64>>,
}

/// One batch of setups: at least `min`, then more until they have taken
/// `secs`. Dropping a setup is not timed. Pushes the batch's mean setup
/// time to `setup_s`; returns the last setup and the batch's total time.
fn setup_batch(
    args: &Args,
    min: usize,
    secs: f64,
    setup_s: &mut Vec<f64>,
) -> Result<(Box<dyn Workload>, f64), Box<dyn Error>> {
    let mut total = 0.0;
    for n in 1.. {
        let t = Instant::now();
        let w = setup(&args.workload, args.seed)?;
        total += t.elapsed().as_secs_f64();
        if n >= min && total >= secs {
            setup_s.push(total / n as f64);
            return Ok((w, total));
        }
    }
    unreachable!("the batch loop only ends by returning")
}

fn end_to_end(args: &Args) -> Result<Record, Box<dyn Error>> {
    let mut setup_s = Vec::new();
    let (mut w, _) = setup_batch(args, MIN_SETUPS, 0.0, &mut setup_s)?;
    let mut tr = Tracer::new(false);
    let (mut attempted, mut failed) = (1u64, 0u64);
    // Warm-up: checked like every pass, timed by none. The peak RSS is
    // read after it: later passes only add allocator retention, which
    // depends on thread timing more than on the code.
    timed_pass(w.as_mut(), &mut tr, &mut failed);
    let rss_mb = peak_rss_mb()?;
    let (mut pass_s, mut events_per_s) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    let mut loop_setup_s = 0.0;
    let t0 = Instant::now();
    for n in 0.. {
        if n >= MIN_PASSES && t0.elapsed() >= budget {
            break;
        }
        attempted += 1;
        if let Some((secs, stats)) = timed_pass(w.as_mut(), &mut tr, &mut failed) {
            pass_s.push(secs);
            events_per_s.push(stats.events / secs);
        }
        let due = SETUP_SHARE * t0.elapsed().as_secs_f64() - loop_setup_s;
        if due > 0.0 {
            loop_setup_s += setup_batch(args, 1, due, &mut setup_s)?.1;
        }
    }
    failed += count_failures(&w.verify()?);
    let gains = match w.gains() {
        Some(g) => g,
        None => sweep::table3_gains()?,
    };
    let (latency_gap, energy_gap) = gains.paper_gaps_pp();

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        metrics.insert(name.to_string(), (unit.to_string(), value));
    };
    put("sweep_s", "s", median(&pass_s));
    put("events_per_s", "1/s", median(&events_per_s));
    put("peak_rss_mb", "MB", rss_mb);
    put("setup_s", "s", median(&setup_s));
    put("paper_latency_gap_pp", "pp", latency_gap);
    put("paper_energy_gap_pp", "pp", energy_gap);
    let samples = BTreeMap::from([
        ("sweep_s".to_string(), pass_s),
        ("events_per_s".to_string(), events_per_s),
        ("setup_s".to_string(), setup_s),
    ]);
    Ok(Record {
        attempted,
        failed,
        metrics,
        samples,
    })
}

fn traced(args: &Args) -> Result<Record, Box<dyn Error>> {
    let mut w = setup(&args.workload, args.seed)?;
    let mut tr = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let (mut attempted, mut failed) = (1u64, 0u64);
    timed_pass(w.as_mut(), &mut quiet, &mut failed);
    // Alternate untraced and traced passes, so both see the same machine
    // state; the difference of their medians is the tracing overhead.
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    for n in 0.. {
        if n >= MIN_PASSES && t0.elapsed() >= budget {
            break;
        }
        attempted += 2;
        if let Some((secs, _)) = timed_pass(w.as_mut(), &mut quiet, &mut failed) {
            plain_s.push(secs);
        }
        if let Some((secs, _)) = timed_pass(w.as_mut(), &mut tr, &mut failed) {
            traced_s.push(secs);
        }
    }
    failed += count_failures(&w.verify()?);
    let (plain, with_trace) = (median(&plain_s), median(&traced_s));
    tr.sample("trace.pass_s", "s", with_trace);
    tr.sample("trace.untraced_pass_s", "s", plain);
    tr.sample("trace.overhead_s", "s", with_trace - plain);
    tr.sample(
        "trace.overhead_pct",
        "%",
        100.0 * (with_trace - plain) / plain,
    );

    // Layers this workload does not exercise come from one traced pass of
    // the workloads that do, on the same seed.
    let mut layers = tr.medians();
    let mut tracers = vec![(args.workload.clone(), tr)];
    for other in WORKLOADS.iter().filter(|&&o| o != args.workload) {
        if PER_LAYER.iter().all(|(name, _)| layers.contains_key(name)) {
            break;
        }
        let mut o = setup(other, args.seed)?;
        let mut otr = Tracer::new(true);
        attempted += 1;
        timed_pass(o.as_mut(), &mut otr, &mut failed);
        failed += count_failures(&o.verify()?);
        for (name, value) in otr.medians() {
            layers.entry(name).or_insert(value);
        }
        tracers.push((other.to_string(), otr));
    }
    if let Some(path) = &args.trace_out {
        let mut events = Vec::new();
        for (pid, (_, t)) in tracers.iter().enumerate() {
            t.chrome_events(pid + 1, &mut events);
        }
        let names: Vec<String> = tracers
            .iter()
            .enumerate()
            .map(|(pid, (name, _))| {
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{name}\"}}}}",
                    pid + 1
                )
            })
            .collect();
        events.extend(names);
        std::fs::write(
            path,
            format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
        )?;
    }
    let mut metrics = BTreeMap::new();
    for (name, unit) in PER_LAYER {
        let (_, value) = layers
            .get(name)
            .ok_or(format!("no workload recorded {name}"))?;
        metrics.insert(name.to_string(), (unit.to_string(), *value));
    }
    Ok(Record {
        attempted,
        failed,
        metrics,
        samples: BTreeMap::from([
            ("trace.untraced_pass_s".to_string(), plain_s),
            ("trace.pass_s".to_string(), traced_s),
        ]),
    })
}

fn number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            std::process::exit(2);
        }
    };
    let record = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let record = match record {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            std::process::exit(1);
        }
    };
    let render = || -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, (unit, value)) in &record.metrics {
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)?
            ));
        }
        let mut samples = Vec::new();
        for (name, values) in &record.samples {
            let values: Result<Vec<String>, String> = values.iter().map(|v| number(*v)).collect();
            samples.push(format!("\"{name}\":[{}]", values?.join(",")));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"samples\":{{{}}}}}",
            record.failed == 0,
            record.attempted,
            record.failed,
            metrics.join(","),
            samples.join(",")
        ))
    };
    match render() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchmark error: {e}");
            std::process::exit(1);
        }
    }
}
