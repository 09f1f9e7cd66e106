//! Cross-crate integration tests: the paper's qualitative claims, asserted
//! end-to-end through the public API — every scenario drives the
//! [`Experiment`] facade rather than the per-stage entry points.

use herald::prelude::*;
use herald_core::task::TaskGraph;
use herald_models::zoo;
use herald_workloads::MultiDnnWorkload;

fn mixed_workload() -> MultiDnnWorkload {
    MultiDnnWorkload::new("mix")
        .with_model(zoo::resnet50(), 1)
        .with_model(zoo::mobilenet_v2(), 2)
}

const MAELSTROM_STYLES: [DataflowStyle; 2] = [DataflowStyle::Nvdla, DataflowStyle::ShiDianNao];

/// Fig. 2: the dataflow preference inverts between ResNet50 and UNet.
#[test]
fn fig2_fda_preference_inversion() {
    let cost = CostModel::default();
    let edp = |model: &DnnModel, style| {
        let (mut lat, mut energy) = (0.0f64, 0.0f64);
        for layer in model.layers() {
            let c = cost.evaluate(layer, style, 256, 32.0);
            lat += c.latency_s;
            energy += c.energy_j();
        }
        lat * energy
    };
    let resnet = zoo::resnet50();
    let unet = zoo::unet();
    assert!(edp(&resnet, DataflowStyle::Nvdla) < edp(&resnet, DataflowStyle::ShiDianNao));
    assert!(edp(&unet, DataflowStyle::ShiDianNao) < edp(&unet, DataflowStyle::Nvdla));
}

/// Sec. III-B: an HDA overlaps layers of different models; its makespan
/// beats the serial busy-time sum substantially.
#[test]
fn hda_exploits_layer_parallelism() -> Result<(), HeraldError> {
    let acc = AcceleratorConfig::maelstrom(
        AcceleratorClass::Edge.resources(),
        Partition::even(2, 1024, 16.0),
    )?;
    let outcome = Experiment::new(mixed_workload())
        .on_accelerator(acc)
        .run()?;
    let report = outcome.report();
    let busy: f64 = report.per_acc().iter().map(|a| a.busy_s).sum();
    assert!(report.total_latency_s() < 0.85 * busy);
    Ok(())
}

/// Sec. V-B: the best HDA improves EDP over every FDA on a heterogeneous
/// multi-DNN workload (mobile class, where parallelism has headroom).
#[test]
fn hda_beats_all_fdas_on_mobile() -> Result<(), HeraldError> {
    let res = AcceleratorClass::Mobile.resources();
    let best_hda = Experiment::new(mixed_workload())
        .on(AcceleratorClass::Mobile)
        .with_styles(MAELSTROM_STYLES)
        .fast()
        .run()?
        .edp();
    for style in DataflowStyle::ALL {
        let fda = Experiment::new(mixed_workload())
            .on_accelerator(AcceleratorConfig::fda(style, res))
            .fast()
            .run()?;
        assert!(
            best_hda < fda.edp(),
            "{style}: HDA {best_hda} vs FDA {}",
            fda.edp()
        );
    }
    Ok(())
}

/// Sec. V-B: RDA wins latency, HDA wins energy — both Pareto-optimal.
#[test]
fn rda_hda_tradeoff() -> Result<(), HeraldError> {
    let res = AcceleratorClass::Mobile.resources();
    let rda = Experiment::new(mixed_workload())
        .on_accelerator(AcceleratorConfig::rda(res))
        .fast()
        .run()?;
    let hda = Experiment::new(mixed_workload())
        .on(AcceleratorClass::Mobile)
        .with_styles(MAELSTROM_STYLES)
        .fast()
        .run()?;
    assert!(rda.latency_s() < hda.latency_s(), "RDA should win latency");
    assert!(
        hda.energy_j() < rda.energy_j(),
        "HDA should win energy: {} vs {}",
        hda.energy_j(),
        rda.energy_j()
    );
    Ok(())
}

/// Fig. 6: the even PE split is not optimal.
#[test]
fn even_partition_is_suboptimal() -> Result<(), HeraldError> {
    let res = AcceleratorClass::Edge.resources();
    let best = Experiment::new(mixed_workload())
        .on(AcceleratorClass::Edge)
        .with_styles(MAELSTROM_STYLES)
        .run()?;
    let even = Experiment::new(mixed_workload())
        .on_accelerator(AcceleratorConfig::maelstrom(
            res,
            Partition::even(2, res.pes, res.bandwidth_gbps),
        )?)
        .run()?;
    assert!(
        best.edp() < even.edp(),
        "best {} vs even {}",
        best.edp(),
        even.edp()
    );
    Ok(())
}

/// Table III: SM-FDA (same dataflow twice) never beats the best HDA —
/// heterogeneity, not just replication, is what pays.
#[test]
fn smfda_is_dominated_by_hda() -> Result<(), HeraldError> {
    let res = AcceleratorClass::Mobile.resources();
    let hda = Experiment::new(mixed_workload())
        .on(AcceleratorClass::Mobile)
        .with_styles(MAELSTROM_STYLES)
        .fast()
        .run()?
        .edp();
    for style in DataflowStyle::ALL {
        let sm = Experiment::new(mixed_workload())
            .on_accelerator(AcceleratorConfig::sm_fda(style, 2, res)?)
            .fast()
            .run()?;
        assert!(hda < sm.edp(), "{style}: HDA {hda} vs SM-FDA {}", sm.edp());
    }
    Ok(())
}

/// Sec. V-B scheduler ablation: Herald's scheduler beats the greedy
/// baseline on a heterogeneous workload. (The greedy baseline has no
/// facade presence — it exists only for this ablation — so this test
/// stays on the scheduler trait.)
#[test]
fn herald_scheduler_beats_greedy() -> Result<(), HeraldError> {
    let graph = TaskGraph::new(&mixed_workload());
    let acc = AcceleratorConfig::maelstrom(
        AcceleratorClass::Edge.resources(),
        Partition::even(2, 1024, 16.0),
    )?;
    let cost = CostModel::default();
    let herald = HeraldScheduler::default().schedule_and_simulate(&graph, &acc, &cost)?;
    let greedy = GreedyScheduler::default().schedule_and_simulate(&graph, &acc, &cost)?;
    assert!(herald.edp() < greedy.edp());
    Ok(())
}

/// Fig. 13: rescheduling a foreign workload on a fixed design works and
/// stays within sane bounds of the matched design.
#[test]
fn workload_change_is_graceful() -> Result<(), HeraldError> {
    let a = mixed_workload();
    let b = MultiDnnWorkload::new("other")
        .with_model(zoo::mobilenet_v1(), 2)
        .with_model(zoo::gnmt(), 1);
    let design_a = Experiment::new(a)
        .on(AcceleratorClass::Edge)
        .with_styles(MAELSTROM_STYLES)
        .fast()
        .run()?;
    let matched_b = Experiment::new(b.clone())
        .on(AcceleratorClass::Edge)
        .with_styles(MAELSTROM_STYLES)
        .fast()
        .run()?
        .edp();
    // Fix A's winning hardware, re-run only the scheduler on B.
    let mismatched_b = Experiment::new(b)
        .on_accelerator(design_a.best().config.clone())
        .fast()
        .run()?;
    // Running B on A's hardware costs something, but not an order of
    // magnitude (paper: ~4% latency, ~0.1% energy).
    assert!(mismatched_b.edp() < 3.0 * matched_b);
    Ok(())
}

/// The three search strategies all find valid designs, and exhaustive is
/// at least as good as its binary subset.
#[test]
fn search_strategies_are_consistent() -> Result<(), HeraldError> {
    let run = |strategy| -> Result<f64, HeraldError> {
        Ok(
            Experiment::new(herald_workloads::single_model(zoo::mobilenet_v2(), 2))
                .on(AcceleratorClass::Edge)
                .with_styles(MAELSTROM_STYLES)
                .strategy(strategy)
                .fast()
                .granularity(8, 2)
                .run()?
                .edp(),
        )
    };
    let exhaustive = run(SearchStrategy::Exhaustive)?;
    let binary = run(SearchStrategy::BinarySampling)?;
    let random = run(SearchStrategy::Random {
        samples: 6,
        seed: 3,
    })?;
    assert!(exhaustive <= binary + 1e-15);
    assert!(random.is_finite() && binary.is_finite());
    Ok(())
}

/// Umbrella-crate prelude round trip: everything needed for the README
/// example is exported, and the facade agrees with the raw pipeline.
#[test]
fn prelude_supports_readme_flow() -> Result<(), HeraldError> {
    let workload = herald::workloads::mlperf(1);
    let graph = TaskGraph::new(&workload);
    assert_eq!(graph.len(), workload.total_layers());
    let acc = AcceleratorConfig::fda(DataflowStyle::Eyeriss, AcceleratorClass::Edge.resources());
    let outcome = Experiment::new(workload)
        .on_accelerator(acc.clone())
        .run()?;
    assert!(outcome.latency_s() > 0.0);
    assert!(outcome.report().score(Metric::Edp) > 0.0);
    // The facade's fixed-target path is exactly the scheduler + simulator.
    let cost = CostModel::default();
    let raw = ScheduleSimulator::new(&graph, &acc, &cost).simulate(
        &HeraldScheduler::new(SchedulerConfig::default())
            .schedule(&graph, &acc, &cost)
            .unwrap(),
    )?;
    assert_eq!(raw.total_latency_s(), outcome.latency_s());
    Ok(())
}

/// A fixed reconfigurable array evaluated under a non-EDP metric reports
/// the dataflows that metric picks: the facade's report is the replay of
/// its schedule under the requested metric, not under EDP (which picks
/// other dataflows for some layers, and here gives another report).
#[test]
fn fixed_rda_reports_under_the_requested_metric() -> Result<(), HeraldError> {
    let workload = herald::workloads::arvr_a();
    let acc = AcceleratorConfig::rda(AcceleratorClass::Cloud.resources());
    let outcome = Experiment::new(workload.clone())
        .on_accelerator(acc.clone())
        .metric(Metric::Energy)
        .run()?;
    let graph = TaskGraph::new(&workload);
    let cost = CostModel::default();
    let cfg = SchedulerConfig {
        metric: Metric::Energy,
        ..SchedulerConfig::default()
    };
    let schedule = HeraldScheduler::new(cfg).schedule(&graph, &acc, &cost)?;
    let sim = ScheduleSimulator::new(&graph, &acc, &cost);
    let under_edp = sim.simulate(&schedule)?;
    let under_energy = sim.with_metric(Metric::Energy).simulate(&schedule)?;
    assert_eq!(outcome.report(), &under_energy);
    assert_ne!(under_edp, under_energy, "EDP picks other dataflows here");
    Ok(())
}
