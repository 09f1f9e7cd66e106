//! Hot-path counters for the streaming engine (the profiling story).
//!
//! [`HotPathProfile`] is the `EvalStats`-style counter set of the
//! streaming hot path: how many allocations the arenas avoided, how
//! often the fingerprint fast path served a memo hit, how arrivals
//! batched into commit windows, how much work the event core's commit
//! loop did, and where wall-clock time went per phase. It is returned
//! *beside* the [`crate::sim::StreamReport`] (see
//! `StreamSimulator::simulate_profiled`), never inside it, so report
//! equality — the backbone of the bit-identity test suite — is
//! unaffected by timing noise.
//!
//! Counters are exact and deterministic; only the `*_ns` phase timers
//! vary run to run (and are only collected on the profiled entry
//! point).

use serde::Serialize;

/// Byte accounting for the O(frames) data a run keeps alive: the memory
/// axis of the profiling story. Every counter is a deterministic
/// capacity sum over the structures the engine, fleet walk, and report
/// builders actually retained, so two runs of the same scenario report
/// identical bytes — the numbers the `megafleet_headline` bench gates
/// on. Because each tracked structure only grows during a run,
/// end-of-run values equal the peaks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MemProfile {
    /// Materialized trace storage: routed per-chip arrival lists (the
    /// only arrival storage left after the pull-based iterators).
    pub trace_bytes: u64,
    /// Retained [`crate::sim::FrameRecord`]s (all frames in exact mode,
    /// sampled exemplars in sketch mode).
    pub frame_bytes: u64,
    /// Retained busy spans (exact mode only): the capacities of the
    /// per-way `(start_s, finish_s)` lists, 16 bytes a span.
    pub span_bytes: u64,
    /// Fleet audit trails: frame assignments and dropped-frame records.
    pub audit_bytes: u64,
    /// Quantile-sketch buckets.
    pub sketch_bytes: u64,
    /// Per-stream scalar aggregates plus fixed arrival/utilization
    /// windows (sketch mode only).
    pub agg_bytes: u64,
    /// Dispatcher service estimates: the per-stream offsets and
    /// per-(stream, version) workload indices, the (distinct workload x
    /// chip) estimate table, and the walk's per-stream rows.
    pub estimate_bytes: u64,
}

impl MemProfile {
    /// Sum of every tracked category — the headline footprint number.
    pub fn tracked_total(&self) -> u64 {
        self.trace_bytes
            + self.frame_bytes
            + self.span_bytes
            + self.audit_bytes
            + self.sketch_bytes
            + self.agg_bytes
            + self.estimate_bytes
    }

    /// Report and trace storage only: [`MemProfile::tracked_total`]
    /// minus the dispatcher's service-estimate tables, which are
    /// O(streams) in *both* report modes. This is the quantity the
    /// streaming report mode shrinks — the `megafleet_headline`
    /// baseline-vs-streaming ratio is computed over it.
    pub fn report_trace_bytes(&self) -> u64 {
        self.trace_bytes
            + self.frame_bytes
            + self.span_bytes
            + self.audit_bytes
            + self.sketch_bytes
            + self.agg_bytes
    }

    /// Accumulates another run's bytes into this one.
    pub fn merge(&mut self, other: &MemProfile) {
        self.trace_bytes += other.trace_bytes;
        self.frame_bytes += other.frame_bytes;
        self.span_bytes += other.span_bytes;
        self.audit_bytes += other.audit_bytes;
        self.sketch_bytes += other.sketch_bytes;
        self.agg_bytes += other.agg_bytes;
        self.estimate_bytes += other.estimate_bytes;
    }
}

/// Hot-path counters for one streaming run (see the [module
/// docs](self)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct HotPathProfile {
    /// Trace events replayed (arrivals + swaps).
    pub events: u64,
    /// Frames admitted to the event core.
    pub admissions: u64,
    /// Commit windows: groups of events admitted against one
    /// `run_until` of the core instead of one per event.
    pub admission_batches: u64,
    /// Largest number of events admitted in one commit window.
    pub max_batch_events: u64,
    /// Full scheduler compiles.
    pub schedule_compiles: u64,
    /// Schedules served from a memo (stream-local or context).
    pub schedule_cache_hits: u64,
    /// Fingerprint-first memo probes (context-aware schedulers only).
    pub fingerprint_lookups: u64,
    /// Memo hits served via the 128-bit fingerprint fast path.
    pub fingerprint_hits: u64,
    /// Fingerprint collisions caught by structural verification.
    pub fingerprint_collisions: u64,
    /// Full task-graph walks behind memo hits: one per (memo entry,
    /// graph identity) the entry had not yet verified (see
    /// [`crate::ctx::ScheduleState::lookup`]).
    pub verify_graph_walks: u64,
    /// Compiles whose schedule was not the interned one by pointer and
    /// fell back to a deep `Schedule` compare.
    pub schedule_deep_compares: u64,
    /// Stream graphs whose structural fingerprint was precomputed at
    /// init (the "precalculated" memo tier).
    pub precomputed_graph_fingerprints: u64,
    /// Per-(graph, schedule) cost tables built (each is then shared by
    /// every frame compiled to that schedule).
    pub cost_tables_built: u64,
    /// Total entries across built cost tables (= cost-model queries the
    /// commit loop no longer makes per candidate scan).
    pub cost_table_entries: u64,
    /// Per-frame buffers served from the arena pools.
    pub arena_reuses: u64,
    /// Per-frame buffers freshly allocated (pool empty).
    pub arena_allocs: u64,
    /// Tasks the event core committed.
    pub commits: u64,
    /// Candidate scans the event core ran: selections not served from
    /// its last-selection memo.
    pub selections: u64,
    /// Dependence-list walks behind the event core's head table: one per
    /// queue head on admission and per head a commit can change.
    pub head_scans: u64,
    /// Selections settled by the memory-aware flat scan, because the
    /// earliest-ready head might not fit the global buffer in time.
    pub fallback_scans: u64,
    /// Wall-clock nanoseconds compiling schedules (zero unless
    /// profiled).
    pub compile_ns: u64,
    /// Wall-clock nanoseconds admitting frames (zero unless profiled).
    pub admit_ns: u64,
    /// Wall-clock nanoseconds in the core's commit loop (zero unless
    /// profiled).
    pub run_ns: u64,
    /// Wall-clock nanoseconds harvesting finished frames (zero unless
    /// profiled).
    pub harvest_ns: u64,
    /// Wall-clock nanoseconds of a fleet run's serial dispatch walk:
    /// estimate build, trace merge, dispatch and trailing controller
    /// boundaries, before any chip worker starts (zero unless profiled,
    /// and always zero for a single-chip `StreamSimulator` run).
    pub walk_ns: u64,
    /// Byte accounting of the run's retained O(frames) structures.
    pub mem: MemProfile,
}

impl HotPathProfile {
    /// Accumulates another run's counters into this one (sums
    /// everything; `max_batch_events` takes the maximum).
    pub fn merge(&mut self, other: &HotPathProfile) {
        self.events += other.events;
        self.admissions += other.admissions;
        self.admission_batches += other.admission_batches;
        self.max_batch_events = self.max_batch_events.max(other.max_batch_events);
        self.schedule_compiles += other.schedule_compiles;
        self.schedule_cache_hits += other.schedule_cache_hits;
        self.fingerprint_lookups += other.fingerprint_lookups;
        self.fingerprint_hits += other.fingerprint_hits;
        self.fingerprint_collisions += other.fingerprint_collisions;
        self.verify_graph_walks += other.verify_graph_walks;
        self.schedule_deep_compares += other.schedule_deep_compares;
        self.precomputed_graph_fingerprints += other.precomputed_graph_fingerprints;
        self.cost_tables_built += other.cost_tables_built;
        self.cost_table_entries += other.cost_table_entries;
        self.arena_reuses += other.arena_reuses;
        self.arena_allocs += other.arena_allocs;
        self.commits += other.commits;
        self.selections += other.selections;
        self.head_scans += other.head_scans;
        self.fallback_scans += other.fallback_scans;
        self.compile_ns += other.compile_ns;
        self.admit_ns += other.admit_ns;
        self.run_ns += other.run_ns;
        self.harvest_ns += other.harvest_ns;
        self.walk_ns += other.walk_ns;
        self.mem.merge(&other.mem);
    }

    /// Fraction of per-frame buffer acquisitions served by the arenas.
    pub fn arena_reuse_rate(&self) -> f64 {
        let total = self.arena_reuses + self.arena_allocs;
        if total == 0 {
            return 0.0;
        }
        self.arena_reuses as f64 / total as f64
    }

    /// Mean admitted events per commit window.
    pub fn mean_batch_events(&self) -> f64 {
        if self.admission_batches == 0 {
            return 0.0;
        }
        self.events as f64 / self.admission_batches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_maxes_batch() {
        let mut a = HotPathProfile {
            events: 10,
            admission_batches: 4,
            max_batch_events: 3,
            arena_reuses: 6,
            arena_allocs: 2,
            commits: 9,
            selections: 11,
            head_scans: 13,
            fallback_scans: 1,
            walk_ns: 7,
            ..Default::default()
        };
        let b = HotPathProfile {
            events: 5,
            admission_batches: 1,
            max_batch_events: 5,
            arena_reuses: 2,
            arena_allocs: 0,
            commits: 3,
            selections: 4,
            head_scans: 5,
            fallback_scans: 2,
            walk_ns: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.events, 15);
        assert_eq!(a.walk_ns, 11);
        assert_eq!(
            (a.commits, a.selections, a.head_scans, a.fallback_scans),
            (12, 15, 18, 3)
        );
        assert_eq!(a.admission_batches, 5);
        assert_eq!(a.max_batch_events, 5);
        assert!((a.arena_reuse_rate() - 0.8).abs() < 1e-12);
        assert!((a.mean_batch_events() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mem_profile_totals_and_merges_by_category() {
        let mut a = MemProfile {
            trace_bytes: 100,
            frame_bytes: 50,
            sketch_bytes: 8,
            ..Default::default()
        };
        let b = MemProfile {
            trace_bytes: 1,
            audit_bytes: 10,
            agg_bytes: 5,
            estimate_bytes: 2,
            span_bytes: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.trace_bytes, 101);
        assert_eq!(a.tracked_total(), 101 + 50 + 8 + 10 + 5 + 2 + 3);
        let mut p = HotPathProfile::default();
        p.mem.frame_bytes = 7;
        let mut q = HotPathProfile::default();
        q.mem.frame_bytes = 5;
        p.merge(&q);
        assert_eq!(p.mem.frame_bytes, 12);
    }
}
