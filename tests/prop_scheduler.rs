//! Property-style tests over the schedulers and execution model: for
//! seeded-random workload mixes, partitions and scheduler settings,
//! schedules are complete, dependence-legal and memory-bounded.
//!
//! The build environment cannot fetch `proptest`, so cases are generated
//! deterministically from the same SplitMix64 PRNG the DSE uses — every
//! run exercises the identical case set, which also makes failures
//! trivially reproducible.

use herald::prelude::*;
use herald_core::rng::SplitMix64;
use herald_core::task::TaskGraph;
use herald_models::zoo;
use herald_workloads::MultiDnnWorkload;
use std::collections::HashMap;

const CASES: usize = 24;

/// Small random multi-DNN workloads mixed from the cheaper zoo members.
fn gen_workload(rng: &mut SplitMix64) -> MultiDnnWorkload {
    let mn1 = rng.gen_range(1, 3);
    let mn2 = rng.gen_range(1, 3);
    let gnmt = rng.gen_range(0, 2);
    let mut w = MultiDnnWorkload::new("prop")
        .with_model(zoo::mobilenet_v1(), mn1)
        .with_model(zoo::mobilenet_v2(), mn2);
    if gnmt > 0 {
        w = w.with_model(zoo::gnmt(), gnmt);
    }
    w
}

/// Random legal 2-way partitions of the edge budget.
fn gen_partition(rng: &mut SplitMix64) -> Partition {
    let pe_eighths = rng.gen_range(1, 8) as u32;
    let bw_quarters = rng.gen_range(1, 4) as u32;
    let pes = 1024 * pe_eighths / 8;
    let bw = 16.0 * f64::from(bw_quarters) / 4.0;
    Partition::new(vec![pes, 1024 - pes], vec![bw, 16.0 - bw]).expect("legal partition")
}

fn gen_scheduler_config(rng: &mut SplitMix64) -> SchedulerConfig {
    let metric = [Metric::Edp, Metric::Latency, Metric::Energy][rng.gen_range(0, 3)];
    let ordering = [OrderingPolicy::BreadthFirst, OrderingPolicy::DepthFirst][rng.gen_range(0, 2)];
    // Uniform in [1.05, 3.0).
    let lbf = 1.05 + (rng.gen_range(0, 1_000_000) as f64 / 1_000_000.0) * 1.95;
    SchedulerConfig {
        metric,
        ordering,
        load_balance_factor: lbf,
        lookahead: rng.gen_range(0, 16),
        post_process: rng.gen_range(0, 2) == 1,
        // Exercise fused tile groups too: legality must hold at any
        // granularity, not just the layer-placement default.
        fusion: rng.gen_range(1, 5),
    }
}

/// Checks the two hard invariants of a report against its graph:
/// (1) every producer finishes before its consumer starts,
/// (2) no sub-accelerator runs two layers at once.
fn assert_report_legal(graph: &TaskGraph, report: &ExecutionReport) {
    let mut finish: HashMap<_, f64> = HashMap::new();
    for e in report.entries() {
        finish.insert(e.task, e.finish_s);
    }
    for e in report.entries() {
        for d in graph.deps(e.task) {
            assert!(
                finish[d] <= e.start_s + 1e-9,
                "{d} finishes after {} starts",
                e.task
            );
        }
    }
    let ways = report.per_acc().len();
    for a in 0..ways {
        let mut on_acc: Vec<_> = report.entries().iter().filter(|e| e.acc == a).collect();
        on_acc.sort_by(|x, y| x.start_s.total_cmp(&y.start_s));
        for pair in on_acc.windows(2) {
            assert!(
                pair[1].start_s >= pair[0].finish_s - 1e-9,
                "overlap on acc{a}"
            );
        }
    }
}

/// Herald schedules are complete, dependence-legal, serialized per
/// sub-accelerator and within the memory budget — for any workload,
/// partition and scheduler configuration. Each case also runs with a
/// 16 KiB and a 32 KiB global buffer, where the placement defers
/// layers for memory and steps its clock across finish events. There a
/// layer's own working set can exceed the buffer; such a layer runs
/// alone, so it is the only way the peak passes the capacity.
#[test]
fn herald_schedules_are_legal() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0001);
    for case in 0..CASES {
        let workload = gen_workload(&mut rng);
        let partition = gen_partition(&mut rng);
        let cfg = gen_scheduler_config(&mut rng);
        let graph = TaskGraph::new(&workload);
        let edge = AcceleratorClass::Edge.resources();
        for gb in [edge.global_buffer_bytes, 16 << 10, 32 << 10] {
            let res = HardwareResources::new(edge.pes, edge.bandwidth_gbps, gb);
            let acc =
                AcceleratorConfig::maelstrom(res, partition.clone()).expect("legal partition");
            let cost = CostModel::default();
            let report = HeraldScheduler::new(cfg)
                .schedule_and_simulate(&graph, &acc, &cost)
                .expect("herald schedules are legal");
            assert_eq!(
                report.entries().len(),
                graph.len(),
                "case {case}, {gb} B: {cfg:?}"
            );
            assert_report_legal(&graph, &report);
            let sim = ScheduleSimulator::new(&graph, &acc, &cost).with_metric(cfg.metric);
            let largest = report
                .entries()
                .iter()
                .map(|e| {
                    sim.task_cost(e.task, e.acc)
                        .buffer
                        .occupancy_bytes(sim.staging_cap())
                })
                .max()
                .unwrap_or(0);
            let peak = report.peak_memory_bytes();
            assert!(
                peak <= gb || (largest > gb && peak == largest),
                "case {case}, {gb} B: peak {peak} B, largest layer {largest} B"
            );
        }
    }
}

/// The report a scheduler returns is the replay of its schedule under
/// the scheduler's own metric, bit for bit: whether it comes from the
/// Fig. 9 pass's last replay (a fresh run with the pass on), from a
/// replay after a run with the pass off, or from a replay of a memoized
/// schedule. Chips: edge Maelstrom partitions and the edge RDA, whose
/// dataflow choice depends on the metric.
#[test]
fn returned_reports_equal_a_replay_under_the_scheduler_metric() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0006);
    let edge = AcceleratorClass::Edge.resources();
    for case in 0..CASES {
        let workload = gen_workload(&mut rng);
        let partition = gen_partition(&mut rng);
        let cfg = gen_scheduler_config(&mut rng);
        let graph = TaskGraph::new(&workload);
        let chips = [
            AcceleratorConfig::maelstrom(edge, partition).expect("legal partition"),
            AcceleratorConfig::rda(edge),
        ];
        for acc in &chips {
            let cost = CostModel::default();
            let herald = HeraldScheduler::new(cfg);
            let schedule = herald.schedule(&graph, acc, &cost).expect("legal");
            let replay = ScheduleSimulator::new(&graph, acc, &cost)
                .with_metric(cfg.metric)
                .simulate(&schedule)
                .expect("legal");
            let at = format!("case {case}, {}: {cfg:?}", acc.name());
            let fresh = herald
                .schedule_and_simulate(&graph, acc, &cost)
                .expect("legal");
            assert_eq!(fresh, replay, "fresh run, {at}");

            let ctx = EvalContext::new();
            let inc = IncrementalScheduler::new(herald, ctx.clone());
            let miss = inc
                .schedule_and_simulate_with(&graph, acc, ctx.cost_model(), ctx.stats())
                .expect("legal");
            assert_eq!(ctx.stats().schedule_cache_hits(), 0, "{at}");
            assert_eq!(miss, replay, "memo miss, {at}");
            let hit = inc
                .schedule_and_simulate_with(&graph, acc, ctx.cost_model(), ctx.stats())
                .expect("legal");
            assert_eq!(ctx.stats().schedule_cache_hits(), 1, "{at}");
            assert_eq!(hit, replay, "memo hit, {at}");
        }
    }
}

/// The greedy baseline is likewise always simulatable.
#[test]
fn greedy_schedules_are_legal() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0002);
    for case in 0..CASES {
        let workload = gen_workload(&mut rng);
        let partition = gen_partition(&mut rng);
        let graph = TaskGraph::new(&workload);
        let res = AcceleratorClass::Edge.resources();
        let acc = AcceleratorConfig::maelstrom(res, partition).expect("legal partition");
        let cost = CostModel::default();
        let report = GreedyScheduler::default()
            .schedule_and_simulate(&graph, &acc, &cost)
            .expect("greedy schedules are legal");
        assert_eq!(report.entries().len(), graph.len(), "case {case}");
        assert_report_legal(&graph, &report);
    }
}

/// Identical schedules replayed twice give identical reports (simulator
/// determinism).
#[test]
fn simulation_is_deterministic() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0003);
    for _ in 0..CASES {
        let workload = gen_workload(&mut rng);
        let partition = gen_partition(&mut rng);
        let graph = TaskGraph::new(&workload);
        let res = AcceleratorClass::Edge.resources();
        let acc = AcceleratorConfig::maelstrom(res, partition).expect("legal partition");
        let cost = CostModel::default();
        let schedule = HeraldScheduler::default()
            .schedule(&graph, &acc, &cost)
            .unwrap();
        let sim = ScheduleSimulator::new(&graph, &acc, &cost);
        let a = sim.simulate(&schedule).expect("legal");
        let b = sim.simulate(&schedule).expect("legal");
        assert_eq!(a, b);
    }
}

/// Makespan dominates every sub-accelerator's busy time, and total
/// energy equals the sum over entries.
#[test]
fn report_accounting_is_consistent() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0004);
    for _ in 0..CASES {
        let workload = gen_workload(&mut rng);
        let graph = TaskGraph::new(&workload);
        let res = AcceleratorClass::Edge.resources();
        let acc =
            AcceleratorConfig::maelstrom(res, Partition::even(2, res.pes, res.bandwidth_gbps))
                .expect("even partition");
        let cost = CostModel::default();
        let report = HeraldScheduler::default()
            .schedule_and_simulate(&graph, &acc, &cost)
            .expect("legal");
        for (i, a) in report.per_acc().iter().enumerate() {
            assert!(a.busy_s <= report.total_latency_s() + 1e-12);
            assert!(report.acc_utilization(i) <= 1.0 + 1e-9);
        }
        let entry_sum: f64 = report.entries().iter().map(|e| e.energy_j).sum();
        assert!((entry_sum - report.total_energy_j()).abs() < 1e-9 * entry_sum.max(1.0));
    }
}

/// Evenly split 2-way edge Maelstroms with a 16 KiB and a 32 KiB global
/// buffer: every single layer still fits, but concurrent layers contend
/// for the buffer, so commits are decided by the event core's exact
/// memory-aware scan, not only by ready times.
fn tight_buffer_chips() -> Vec<AcceleratorConfig> {
    let edge = AcceleratorClass::Edge.resources();
    [16 << 10, 32 << 10]
        .into_iter()
        .map(|gb| {
            let res = HardwareResources::new(edge.pes, edge.bandwidth_gbps, gb);
            AcceleratorConfig::maelstrom(res, Partition::even(2, res.pes, res.bandwidth_gbps))
                .expect("even partition")
        })
        .collect()
}

/// Streaming scenarios obey the same hard invariants across frames: no
/// sub-accelerator ever runs two layers at once (checked on the global
/// busy-span timeline), memory stays within the global buffer, every
/// frame's latency is non-negative, and the whole simulation is
/// deterministic. Each scenario also runs on memory-tight chips.
#[test]
fn streaming_scenarios_are_legal_and_deterministic() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0005);
    for case in 0..8 {
        let partition = gen_partition(&mut rng);
        let res = AcceleratorClass::Edge.resources();
        let acc = AcceleratorConfig::maelstrom(res, partition).expect("legal partition");
        let models = [zoo::mobilenet_v1, zoo::mobilenet_v2, zoo::gnmt];
        let n_streams = rng.gen_range(1, 4);
        let mut scenario = Scenario::new(format!("prop-{case}"), 0.05);
        for s in 0..n_streams {
            let workload =
                herald::workloads::single_model(models[rng.gen_range(0, models.len())](), 1);
            let fps = rng.gen_range(20, 200) as f64;
            let mut spec = StreamSpec::periodic(format!("s{s}"), workload, fps)
                .with_deadline(rng.gen_range(1, 100) as f64 / 1000.0);
            if rng.gen_range(0, 2) == 1 {
                let other =
                    herald::workloads::single_model(models[rng.gen_range(0, models.len())](), 1);
                spec = spec.swap_at(0.025, other);
            }
            scenario = scenario.stream(spec);
        }
        for acc in std::iter::once(acc).chain(tight_buffer_chips()) {
            let gb = acc.global_buffer_bytes();
            let run = || {
                Experiment::new(scenario.design_workload())
                    .on_accelerator(acc.clone())
                    .scenario(&scenario)
                    .expect("streaming succeeds")
            };
            let outcome = run();
            let report = outcome.report();
            assert!(!report.frames().is_empty(), "case {case}, {gb} B");
            assert!(report.peak_memory_bytes() <= gb, "case {case}, {gb} B");
            for f in report.frames() {
                assert!(f.latency_s >= 0.0);
                assert!(f.finish_s >= f.arrival_s);
            }
            // The report's spans come in strictly increasing (start,
            // sub-accelerator) order as returned: no two share a key.
            let spans: Vec<_> = report.busy_spans().iter().collect();
            for pair in spans.windows(2) {
                let order = pair[0]
                    .start_s
                    .total_cmp(&pair[1].start_s)
                    .then(pair[0].acc.cmp(&pair[1].acc));
                assert!(
                    order.is_lt(),
                    "case {case}, {gb} B: spans out of order: {:?}",
                    pair
                );
            }
            // Per-accelerator busy spans never overlap, across all frames,
            // and account for every layer the summary counts.
            for (a, summary) in report.per_acc().iter().enumerate() {
                let on_acc: Vec<_> = spans.iter().filter(|s| s.acc == a).collect();
                assert_eq!(on_acc.len(), summary.layers, "case {case}, {gb} B: acc{a}");
                assert_eq!(
                    on_acc.last().map_or(0.0, |s| s.finish_s),
                    summary.finish_s,
                    "case {case}, {gb} B: acc{a} last finish"
                );
                for pair in on_acc.windows(2) {
                    assert!(
                        pair[1].start_s >= pair[0].finish_s - 1e-9,
                        "case {case}, {gb} B: overlap on acc{a}"
                    );
                }
            }
            assert_eq!(outcome, run(), "case {case}, {gb} B: nondeterministic");
        }
    }
}
