//! Hot-path equivalence suite for the PR-7 optimizations: the
//! fingerprint-served memo tier and interned cost tables are pure
//! speedups — every observable simulation output must be bit-identical
//! to the slow paths they replace.
//!
//! * **Fingerprint path == structural-key path**: a warm rerun on a
//!   shared [`EvalContext`] serves every scheduling decision through
//!   the 128-bit fingerprint lookup (verify-on-hit against the full
//!   structural key), and must reproduce the cold run — which compiled
//!   everything fresh — to the last bit, with nonzero fingerprint hits
//!   and zero collisions.
//! * **Interned cost tables == per-tenant compiles**: a fleet of tenants
//!   sharing a few models builds one cost table per distinct workload
//!   per chip, and its report matches the reschedule-every-arrival run.

use herald::core::sim::StreamReport;
use herald::prelude::*;

fn edge_maelstrom() -> AcceleratorConfig {
    AcceleratorConfig::maelstrom(
        AcceleratorClass::Edge.resources(),
        Partition::even(2, 1024, 16.0),
    )
    .unwrap()
}

fn scenarios() -> [Scenario; 3] {
    [
        herald::workloads::arvr_a_stream(1.0, 1.2),
        herald::workloads::workload_change_trace(2.0, 0.6, 2.0),
        herald::workloads::poisson_mix_stream(1.0, 0.5, 2024),
    ]
}

/// Asserts two stream reports agree on every simulation output (the
/// scheduling-work counters may legitimately differ between a cold and
/// a warm run).
fn assert_same_simulation(a: &StreamReport, b: &StreamReport, label: &str) {
    assert_eq!(a.frames(), b.frames(), "{label}: frame records");
    assert_eq!(a.swaps(), b.swaps(), "{label}: swap records");
    assert_eq!(a.busy_spans(), b.busy_spans(), "{label}: busy spans");
    assert_eq!(a.per_acc(), b.per_acc(), "{label}: per-acc summaries");
    assert_eq!(a.energy(), b.energy(), "{label}: energy");
    assert_eq!(a.makespan_s(), b.makespan_s(), "{label}: makespan");
    assert_eq!(
        a.peak_memory_bytes(),
        b.peak_memory_bytes(),
        "{label}: peak memory"
    );
}

#[test]
fn fingerprint_served_reruns_match_structural_compiles() {
    // Cold run: every schedule is compiled fresh and inserted under its
    // full structural key + fingerprint. Warm rerun on the same
    // context: every decision is served by the fingerprint probe
    // (verified on hit against the structural key). Same bits out.
    for scenario in &scenarios() {
        let ctx = EvalContext::new();
        let run = || {
            Experiment::new(scenario.design_workload())
                .on_accelerator(edge_maelstrom())
                .fast()
                .with_context(ctx.clone())
                .scenario(scenario)
                .unwrap()
        };
        let before = ctx.stats().snapshot();
        let cold = run();
        let after_cold = ctx.stats().snapshot();
        let warm = run();
        let after_warm = ctx.stats().snapshot();

        assert_same_simulation(cold.report(), warm.report(), scenario.name());
        assert_eq!(
            warm.report().scheduler_invocations(),
            0,
            "{}: the warm run must compile nothing",
            scenario.name()
        );
        // The cold run only *inserted* fingerprints; the warm run's
        // per-stream probes hit them — and verification never found a
        // colliding structural key.
        assert_eq!(
            after_cold.fingerprint_hits - before.fingerprint_hits,
            0,
            "{}: distinct stream models cannot hit the memo cold",
            scenario.name()
        );
        assert!(
            after_warm.fingerprint_hits > after_cold.fingerprint_hits,
            "{}: warm rerun must be fingerprint-served",
            scenario.name()
        );
        assert_eq!(
            after_warm.fingerprint_collisions,
            0,
            "{}: no collisions on real workloads",
            scenario.name()
        );
    }
}

#[test]
fn fleet_tenants_share_one_cost_table_per_workload_per_chip() {
    // 500 diurnal tenants over the 5-model rotation on 2 chips: each
    // chip compiles each workload once and every other tenant's first
    // arrival is a memo hit served with the interned cost table.
    let res = AcceleratorClass::Cloud.resources();
    let chip =
        AcceleratorConfig::maelstrom(res, Partition::even(2, res.pes, res.bandwidth_gbps)).unwrap();
    let fleet = FleetConfig::homogeneous(&chip, 2);
    let scenario = herald::workloads::diurnal_fleet_stream(500, 100.0, 200.0, 0.05, 4.0, 2026);
    let run = |policy: ReschedulePolicy| {
        FleetSimulator::new(&fleet)
            .with_dispatcher(DispatchPolicy::LeastLoaded)
            .with_policy(policy)
            .simulate_profiled(&scenario)
            .unwrap()
    };
    let (incremental, profile) = run(ReschedulePolicy::Incremental);
    assert_eq!(profile.schedule_compiles, 10, "5 workloads x 2 chips");
    assert_eq!(profile.cost_tables_built, profile.schedule_compiles);
    assert!(profile.schedule_cache_hits > profile.schedule_compiles);

    // Rescheduling at every arrival calls the scheduler per frame, yet
    // still builds one table per workload per chip — and replays the
    // same simulation to the bit.
    let (full, full_profile) = run(ReschedulePolicy::FullReschedule);
    assert_eq!(
        full_profile.schedule_compiles as usize,
        incremental.frames_total()
    );
    assert_eq!(full_profile.cost_tables_built, 10);
    assert_eq!(incremental.assignments(), full.assignments());
    assert_eq!(incremental.dropped(), full.dropped());
    assert_eq!(incremental.chips(), full.chips());
    for (chip, (a, b)) in incremental
        .per_chip()
        .iter()
        .zip(full.per_chip())
        .enumerate()
    {
        assert_same_simulation(a, b, &format!("chip {chip}"));
    }
}
