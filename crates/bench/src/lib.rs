//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper's evaluation (Section V).
//!
//! All evaluation flows go through the [`herald::Experiment`] facade, so
//! the binaries exercise exactly the API downstream users see and every
//! failure surfaces as a typed [`HeraldError`] instead of a panic.
//!
//! Each `src/bin/*` binary reproduces one artifact:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table01_model_stats` | Table I (model heterogeneity) |
//! | `fig02_fda_edp` | Fig. 2 (FDA EDP on ResNet50 / UNet) |
//! | `fig05_layer_preference` | Fig. 5 (per-layer utilization + EDP) |
//! | `fig06_pe_partition` | Fig. 6 (PE-partition sweep) |
//! | `fig11_design_space` | Fig. 11 (9-plot design space) |
//! | `fig12_single_dnn` | Fig. 12 (single-DNN batch-4 design space) |
//! | `fig13_workload_change` | Fig. 13 (workload-change robustness) |
//! | `table05_partitions` | Table V (Maelstrom optimized partitions) |
//! | `table06_batch_size` | Table VI (batch-size gains vs FDA / RDA) |
//! | `table07_sched_time` | Table VII (scheduling wall-clock time) |
//! | `ablation_scheduler` | Sec. V-B scheduler-vs-greedy ablation |
//! | `summary_headline` | Sec. V-B headline averages |
//! | `stream_headline` | Streaming scenario suite (beyond-paper) |
//! | `fleet_headline` | Multi-chip serving-layer scaling (beyond-paper) |
//! | `fleet_dse_headline` | Fleet-composition Pareto search (beyond-paper) |
//! | `fleet_controller_headline` | Closed-loop fleet control transients (beyond-paper) |
//! | `megafleet_headline` | Million-stream serving in bounded memory (beyond-paper) |
//!
//! Pass `--fast` to any binary for a coarse (seconds-scale) run; the
//! default granularity reproduces the paper-scale sweeps. The headline
//! binaries also accept `--json` for a machine-readable record; both
//! flags parse through the shared [`bench_args`] helper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use herald::{Experiment, ExperimentOutcome, HeraldError, StreamOutcome};
use herald_arch::{AcceleratorClass, AcceleratorConfig, HardwareResources};
use herald_core::ctx::{EvalContext, EvalSnapshot};
use herald_core::exec::ExecutionReport;
use herald_core::sim::{HotPathProfile, ReschedulePolicy};
use herald_dataflow::DataflowStyle;
use herald_workloads::{MultiDnnWorkload, Scenario};

/// The four HDA style sets evaluated in Table III (the first is
/// Maelstrom's).
pub fn hda_style_sets() -> Vec<Vec<DataflowStyle>> {
    vec![
        vec![DataflowStyle::Nvdla, DataflowStyle::ShiDianNao],
        vec![DataflowStyle::ShiDianNao, DataflowStyle::Eyeriss],
        vec![DataflowStyle::Eyeriss, DataflowStyle::Nvdla],
        vec![
            DataflowStyle::Nvdla,
            DataflowStyle::ShiDianNao,
            DataflowStyle::Eyeriss,
        ],
    ]
}

/// Short display name for an HDA style set.
pub fn style_set_name(styles: &[DataflowStyle]) -> String {
    let names: Vec<&str> = styles.iter().map(DataflowStyle::label).collect();
    names.join("+")
}

/// The three monolithic FDA baselines (Table III).
pub fn fda_configs(res: HardwareResources) -> Vec<AcceleratorConfig> {
    DataflowStyle::ALL
        .into_iter()
        .map(|s| AcceleratorConfig::fda(s, res))
        .collect()
}

/// The three two-way scaled-out multi-FDA baselines (Table III).
///
/// # Errors
///
/// Propagates [`HeraldError::Config`]; two-way SM-FDAs are always valid,
/// so an error indicates an arch-crate bug.
pub fn smfda_configs(res: HardwareResources) -> Result<Vec<AcceleratorConfig>, HeraldError> {
    DataflowStyle::ALL
        .into_iter()
        .map(|s| Ok(AcceleratorConfig::sm_fda(s, 2, res)?))
        .collect()
}

/// The command-line flags shared by every experiment binary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--fast`: coarse, seconds-scale run instead of the paper-scale
    /// sweep.
    pub fast: bool,
    /// `--json`: emit a machine-readable record instead of (or in
    /// addition to) the human-readable tables.
    pub json: bool,
    /// `--profile`: print the streaming engine's hot-path counters
    /// (fingerprint memo probes, arena reuse, admission batching,
    /// per-phase wall-clock) after the run.
    pub profile: bool,
}

/// Parses the shared `--fast` / `--json` / `--profile` flags from the
/// process command line. Unknown arguments are ignored — each binary
/// stays tolerant of harness-injected extras (e.g. a bare `--`).
pub fn bench_args() -> BenchArgs {
    bench_args_from(std::env::args())
}

/// [`bench_args`] over an explicit argument iterator (testable form).
pub fn bench_args_from<I, S>(args: I) -> BenchArgs
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut parsed = BenchArgs::default();
    for arg in args {
        match arg.as_ref() {
            "--fast" => parsed.fast = true,
            "--json" => parsed.json = true,
            "--profile" => parsed.profile = true,
            _ => {}
        }
    }
    parsed
}

/// Whether `--fast` was passed on the command line.
pub fn fast_mode() -> bool {
    bench_args().fast
}

/// A facade builder preconfigured for the experiment binaries:
/// paper-scale by default, coarse under `--fast`.
pub fn experiment(workload: &MultiDnnWorkload, fast: bool) -> Experiment {
    let exp = Experiment::new(workload.clone());
    if fast {
        exp.fast()
    } else {
        exp
    }
}

/// Evaluates one fixed accelerator on one workload through the facade.
///
/// # Errors
///
/// Propagates any [`HeraldError`] from [`Experiment::run`].
pub fn evaluate_fixed(
    workload: &MultiDnnWorkload,
    config: AcceleratorConfig,
    fast: bool,
) -> Result<ExperimentOutcome, HeraldError> {
    experiment(workload, fast).on_accelerator(config).run()
}

/// Searches HDA partitions of `styles` on a class budget through the
/// facade.
///
/// # Errors
///
/// Propagates any [`HeraldError`] from [`Experiment::run`].
pub fn search_hda(
    workload: &MultiDnnWorkload,
    class: AcceleratorClass,
    styles: &[DataflowStyle],
    fast: bool,
) -> Result<ExperimentOutcome, HeraldError> {
    experiment(workload, fast)
        .on(class)
        .with_styles(styles.iter().copied())
        .run()
}

/// Streams a scenario on one fixed accelerator through the facade
/// (incremental online scheduling, the default policy).
///
/// # Errors
///
/// Propagates any [`HeraldError`] from [`Experiment::scenario`].
pub fn stream_fixed(
    scenario: &Scenario,
    config: AcceleratorConfig,
    fast: bool,
) -> Result<StreamOutcome, HeraldError> {
    let exp = Experiment::new(scenario.design_workload());
    let exp = if fast { exp.fast() } else { exp };
    exp.on_accelerator(config).scenario(scenario)
}

/// Streams a scenario on one fixed accelerator under an explicit
/// [`ReschedulePolicy`] through [`Experiment::scenario_profiled`],
/// `repeats` times, keeping the run with the smallest wall-clock — the
/// standard way to strip scheduler jitter from sub-millisecond
/// simulation walls. Returns the outcome, its wall-clock seconds and
/// the streaming engine's [`HotPathProfile`]. Every repeat starts
/// from a fresh evaluation context, so the simulation is bit-for-bit
/// deterministic across repeats (asserted: the kept report equals every
/// other repeat's report) and the returned outcome, counters and
/// profile are exactly those of a single run.
///
/// # Errors
///
/// Propagates any [`HeraldError`] from
/// [`Experiment::scenario_profiled`].
///
/// # Panics
///
/// Panics if `repeats` is zero, or if two repeats disagree (which would
/// mean the simulator lost determinism — a bug worth a loud failure in
/// a benchmark run).
pub fn stream_fixed_best_of(
    scenario: &Scenario,
    config: AcceleratorConfig,
    fast: bool,
    policy: ReschedulePolicy,
    repeats: usize,
) -> Result<(StreamOutcome, f64, HotPathProfile), HeraldError> {
    assert!(repeats > 0, "best-of timing needs at least one run");
    let run = || -> Result<(StreamOutcome, f64, HotPathProfile), HeraldError> {
        let exp = Experiment::new(scenario.design_workload());
        let exp = if fast { exp.fast() } else { exp };
        let t0 = std::time::Instant::now();
        let (outcome, profile) = exp
            .on_accelerator(config.clone())
            .reschedule_policy(policy)
            .scenario_profiled(scenario)?;
        Ok((outcome, t0.elapsed().as_secs_f64(), profile))
    };
    let mut best = run()?;
    for _ in 1..repeats {
        let next = run()?;
        assert_eq!(
            best.0.report(),
            next.0.report(),
            "repeated stream runs must be bit-identical"
        );
        if next.1 < best.1 {
            best = next;
        }
    }
    Ok(best)
}

/// Prints an [`EvalContext`] counter snapshot as the `--profile` block
/// for the one-shot evaluation binaries (which exercise the memo tiers
/// rather than the streaming engine).
pub fn print_eval_snapshot(title: &str, s: &EvalSnapshot) {
    println!("\n--- evaluation-context profile: {title} ---");
    println!(
        "  placement evals {}  scheduler runs {}  schedule cache hits {}  dedup skips {}",
        s.placement_evals, s.scheduler_runs, s.schedule_cache_hits, s.dedup_skips
    );
    println!(
        "  fingerprint probes {} (hits {}, collisions {})  verify graph walks {}",
        s.fingerprint_lookups, s.fingerprint_hits, s.fingerprint_collisions, s.verify_graph_walks
    );
}

/// Prints a [`HotPathProfile`] as the standard `--profile` block shared
/// by the headline binaries.
pub fn print_profile(title: &str, p: &HotPathProfile) {
    println!("\n--- hot-path profile: {title} ---");
    println!(
        "  events {}  admissions {}  batches {} (mean {:.2} ev/batch, max {})",
        p.events,
        p.admissions,
        p.admission_batches,
        p.mean_batch_events(),
        p.max_batch_events
    );
    println!(
        "  compiles {}  cache hits {}  fingerprint probes {} (hits {}, collisions {})",
        p.schedule_compiles,
        p.schedule_cache_hits,
        p.fingerprint_lookups,
        p.fingerprint_hits,
        p.fingerprint_collisions
    );
    println!(
        "  verify graph walks {}  deep schedule compares {}",
        p.verify_graph_walks, p.schedule_deep_compares
    );
    println!(
        "  precomputed graph fingerprints {}  cost tables {} ({} entries)",
        p.precomputed_graph_fingerprints, p.cost_tables_built, p.cost_table_entries
    );
    println!(
        "  arena reuse {:.1}% ({} reused, {} allocated)",
        p.arena_reuse_rate() * 100.0,
        p.arena_reuses,
        p.arena_allocs
    );
    println!(
        "  commits {}  selections {} ({} memory-aware)  head scans {}",
        p.commits, p.selections, p.fallback_scans, p.head_scans
    );
    println!(
        "  lone frames {} (committed in one pass)  lone declines {}",
        p.lone_frames, p.lone_declines
    );
    println!(
        "  phase ns: compile {}  admit {}  run {}  harvest {}  walk {}",
        p.compile_ns, p.admit_ns, p.run_ns, p.harvest_ns, p.walk_ns
    );
}

/// The fps scale at which a unit-scale rated scenario loads `config` to
/// roughly `target_util` of its serial service capacity: each stream's
/// single-frame latency is measured on the fixed hardware, weighted by
/// its unit-scale rate, and the total is scaled to the target.
///
/// # Errors
///
/// Propagates any [`HeraldError`] from the per-stream evaluations.
pub fn utilization_fps_scale(
    unit_scenario: &Scenario,
    config: &AcceleratorConfig,
    target_util: f64,
    fast: bool,
) -> Result<f64, HeraldError> {
    let mut unit_load = 0.0f64;
    for stream in unit_scenario.streams() {
        let lat = evaluate_fixed(stream.workload(), config.clone(), fast)?.latency_s();
        unit_load += stream.arrival().mean_fps() * lat;
    }
    if unit_load <= 0.0 {
        return Err(HeraldError::Scenario {
            reason: format!(
                "scenario {:?} has zero aggregate load",
                unit_scenario.name()
            ),
        });
    }
    Ok(target_util / unit_load)
}

/// One evaluated accelerator on one workload: a row of Fig. 11.
#[derive(Debug, Clone)]
pub struct EvalRow {
    /// Accelerator label (e.g. `"FDA NVDLA"`, `"HDA NVDLA+Shi-diannao"`).
    pub label: String,
    /// Taxonomy group for Pareto bookkeeping.
    pub group: &'static str,
    /// Workload latency, seconds.
    pub latency_s: f64,
    /// Workload energy, joules.
    pub energy_j: f64,
}

impl EvalRow {
    /// EDP of this row.
    pub fn edp(&self) -> f64 {
        self.latency_s * self.energy_j
    }

    /// Builds a row from an execution report.
    pub fn from_report(label: String, group: &'static str, r: &ExecutionReport) -> Self {
        Self {
            label,
            group,
            latency_s: r.total_latency_s(),
            energy_j: r.total_energy_j(),
        }
    }
}

/// The labelled HDA design-point clouds of one suite evaluation (for
/// scatter output).
pub type HdaClouds = Vec<(String, ExperimentOutcome)>;

/// Evaluates the full Table III accelerator suite on one workload/class
/// scenario: 3 FDAs, 3 SM-FDAs, the RDA, and the best DSE point of each of
/// the four HDA style sets. Returns the rows plus the HDA experiment
/// outcomes (for scatter output).
///
/// # Errors
///
/// Propagates any [`HeraldError`] from the underlying experiments.
pub fn evaluate_suite(
    workload: &MultiDnnWorkload,
    class: AcceleratorClass,
    fast: bool,
) -> Result<(Vec<EvalRow>, HdaClouds), HeraldError> {
    evaluate_suite_with_context(workload, class, fast, None)
}

/// [`evaluate_suite`] with an optional shared [`EvalContext`] attached
/// to every experiment in the suite, so its cost-model and schedule
/// memos (and their hit counters) accumulate across the whole sweep —
/// the profiling hook for the one-shot evaluation bins. Memo hits are
/// bit-identical to fresh evaluation by construction, so the rows match
/// [`evaluate_suite`] exactly.
///
/// # Errors
///
/// Propagates any [`HeraldError`] from the underlying experiments.
pub fn evaluate_suite_with_context(
    workload: &MultiDnnWorkload,
    class: AcceleratorClass,
    fast: bool,
    ctx: Option<&EvalContext>,
) -> Result<(Vec<EvalRow>, HdaClouds), HeraldError> {
    let res = class.resources();
    let mut rows = Vec::new();
    let with_ctx = |exp: Experiment| match ctx {
        Some(c) => exp.with_context(c.clone()),
        None => exp,
    };
    let fixed = |cfg: AcceleratorConfig| with_ctx(experiment(workload, fast)).on_accelerator(cfg);

    for cfg in fda_configs(res) {
        let name = cfg.name().to_string();
        let outcome = fixed(cfg).run()?;
        rows.push(EvalRow::from_report(name, "FDA", outcome.report()));
    }
    for cfg in smfda_configs(res)? {
        let name = cfg.name().to_string();
        let outcome = fixed(cfg).run()?;
        rows.push(EvalRow::from_report(name, "SM-FDA", outcome.report()));
    }
    let rda = AcceleratorConfig::rda(res);
    let name = rda.name().to_string();
    let outcome = fixed(rda).run()?;
    rows.push(EvalRow::from_report(name, "RDA", outcome.report()));

    let mut clouds = Vec::new();
    for styles in hda_style_sets() {
        let search = with_ctx(experiment(workload, fast))
            .on(class)
            .with_styles(styles.iter().copied())
            .run();
        match search {
            Ok(outcome) => {
                rows.push(EvalRow {
                    label: format!("HDA {}", style_set_name(&styles)),
                    group: "HDA",
                    latency_s: outcome.latency_s(),
                    energy_j: outcome.energy_j(),
                });
                clouds.push((style_set_name(&styles), outcome));
            }
            // A too-coarse granularity can leave a wide style set with no
            // feasible partition (e.g. 2 bandwidth quanta over 3 ways in
            // `--fast` mode); skip the set like the evaluation always has.
            Err(HeraldError::EmptySearch { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok((rows, clouds))
}

/// Best row of a group under EDP.
pub fn best_of<'a>(rows: &'a [EvalRow], group: &str) -> Option<&'a EvalRow> {
    rows.iter()
        .filter(|r| r.group == group)
        .min_by(|a, b| a.edp().total_cmp(&b.edp()))
}

/// Percentage improvement of `ours` over `base` (positive = ours lower).
pub fn gain_pct(base: f64, ours: f64) -> f64 {
    (1.0 - ours / base) * 100.0
}

/// Prints a standard evaluation table for one scenario.
pub fn print_rows(title: &str, rows: &[EvalRow]) {
    println!("\n--- {title} ---");
    println!(
        "{:<34} {:>12} {:>12} {:>14}",
        "accelerator", "latency (s)", "energy (J)", "EDP (J*s)"
    );
    for r in rows {
        println!(
            "{:<34} {:>12.5} {:>12.5} {:>14.6}",
            r.label,
            r.latency_s,
            r.energy_j,
            r.edp()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn style_sets_match_table3() {
        let sets = hda_style_sets();
        assert_eq!(sets.len(), 4);
        assert_eq!(
            sets[0],
            vec![DataflowStyle::Nvdla, DataflowStyle::ShiDianNao]
        );
        assert_eq!(sets[3].len(), 3);
    }

    #[test]
    fn bench_args_parse_shared_flags_and_ignore_extras() {
        assert_eq!(bench_args_from(Vec::<&str>::new()), BenchArgs::default());
        let all = bench_args_from(["bin", "--fast", "--json", "--profile"]);
        assert!(all.fast && all.json && all.profile);
        let fast_only = bench_args_from(["bin", "--fast", "--", "ignored"]);
        assert!(fast_only.fast && !fast_only.json && !fast_only.profile);
        // Flags don't match on prefixes or repeats-with-suffixes.
        let none = bench_args_from(["--fastest", "--json=1", "--profiler"]);
        assert_eq!(none, BenchArgs::default());
    }

    #[test]
    fn gain_pct_signs() {
        assert!((gain_pct(2.0, 1.0) - 50.0).abs() < 1e-12);
        assert!(gain_pct(1.0, 2.0) < 0.0);
    }

    #[test]
    fn suite_baseline_counts() {
        let res = AcceleratorClass::Edge.resources();
        assert_eq!(fda_configs(res).len(), 3);
        assert_eq!(smfda_configs(res).expect("valid SM-FDAs").len(), 3);
    }

    #[test]
    fn facade_helpers_agree_on_fixed_configs() {
        let w = herald_workloads::single_model(herald_models::zoo::mobilenet_v1(), 1);
        let res = AcceleratorClass::Edge.resources();
        let outcome = evaluate_fixed(&w, AcceleratorConfig::fda(DataflowStyle::Nvdla, res), true)
            .expect("fixed evaluation succeeds");
        assert_eq!(outcome.points().len(), 1);
        assert!(outcome.latency_s() > 0.0);
    }

    #[test]
    fn best_of_picks_min_edp() {
        let rows = vec![
            EvalRow {
                label: "a".into(),
                group: "FDA",
                latency_s: 1.0,
                energy_j: 1.0,
            },
            EvalRow {
                label: "b".into(),
                group: "FDA",
                latency_s: 0.5,
                energy_j: 1.0,
            },
        ];
        assert_eq!(best_of(&rows, "FDA").unwrap().label, "b");
        assert!(best_of(&rows, "HDA").is_none());
    }
}
