//! Golden-file regression suite for the paper-figure binaries.
//!
//! `stream_headline --fast --json`, `fig13_workload_change --fast
//! --json`, `fleet_dse_headline --fast --json`,
//! `fleet_controller_headline --fast --json`,
//! `megafleet_headline --fast --json`,
//! `fused_headline --fast --json` and
//! `sparse_transformer_headline --fast --json` are fully
//! deterministic apart from wall-clock timing fields:
//! arrival sampling is seeded, schedulers are pure functions, and
//! aggregation orders are fixed. This suite re-runs each binary and
//! diffs its JSON record field by field against the committed
//! canonical output under `golden/`, so a refactor that silently
//! changes a paper-figure number fails CI with the exact JSON path that
//! moved.
//!
//! Comparison rules:
//! * wall-clock fields (keys ending in `_ns` or `_per_second`, or
//!   starting with `wall_clock_`) and the byte accounting (`mem`,
//!   `mem_profile`) are skipped; everything else, including the
//!   hot-path `profile` counters (events, admission batches, commits,
//!   selections, head scans), is compared;
//! * floats use a tight relative tolerance (1e-9) — wide enough for a
//!   last-ulp libm difference across platforms, far too tight for any
//!   real behavioral change to hide in;
//! * everything else (integers, strings, array lengths, object keys)
//!   must match exactly.
//!
//! To refresh after an *intentional* change:
//! `cargo run --release -p herald-bench --bin stream_headline -- --fast --json \
//!    > crates/bench/golden/stream_headline_fast.json`
//! (same for `fig13_workload_change` -> `fig13_workload_change_fast.json`,
//! `fleet_dse_headline` -> `fleet_dse_headline_fast.json`,
//! `fleet_controller_headline` -> `fleet_controller_headline_fast.json`,
//! `megafleet_headline` -> `megafleet_headline_fast.json`,
//! `fused_headline` -> `fused_headline_fast.json`
//! and `sparse_transformer_headline` -> `sparse_transformer_headline_fast.json`).

use serde_json::Value;
use std::process::Command;

/// Whether the differ skips a key: wall-clock values (the `*_ns` phase
/// timers, `*_per_second` rates and `wall_clock_*` times), and the `mem`
/// and `mem_profile` byte accounting, whose capacity sums track the
/// allocator's growth policy rather than simulation results (the
/// `megafleet_headline` bin gates the ratios that matter). The hot-path
/// counters beside them are deterministic and compared, so a change to
/// batching or commit work fails the suite until it is reviewed.
fn skipped(key: &str) -> bool {
    key.ends_with("_ns")
        || key.ends_with("_per_second")
        || key.starts_with("wall_clock_")
        || key == "mem"
        || key == "mem_profile"
}

/// Relative tolerance for float comparisons (see module docs).
const REL_TOL: f64 = 1e-9;

fn run_bin_json(exe: &str) -> Value {
    let output = Command::new(exe)
        .args(["--fast", "--json"])
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
    assert!(
        output.status.success(),
        "{exe} exited with {:?}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("binary output is UTF-8");
    Value::parse_json(&stdout).expect("binary output parses as JSON")
}

fn load_golden(name: &str) -> Value {
    let path = format!("{}/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path}: {e}"));
    Value::parse_json(&text).expect("golden file parses as JSON")
}

/// Recursively diffs `actual` against `golden`, pushing one line per
/// mismatch (with its JSON path) into `diffs`.
fn diff(path: &str, golden: &Value, actual: &Value, diffs: &mut Vec<String>) {
    match (golden, actual) {
        (Value::Map(g), Value::Map(a)) => {
            for (key, gv) in g {
                if skipped(key) {
                    continue;
                }
                match a.iter().find(|(k, _)| k == key) {
                    Some((_, av)) => diff(&format!("{path}.{key}"), gv, av, diffs),
                    None => diffs.push(format!("{path}.{key}: missing from actual output")),
                }
            }
            for (key, _) in a {
                if !skipped(key) && !g.iter().any(|(k, _)| k == key) {
                    diffs.push(format!("{path}.{key}: not present in golden file"));
                }
            }
        }
        (Value::Seq(g), Value::Seq(a)) => {
            if g.len() != a.len() {
                diffs.push(format!(
                    "{path}: array length {} (golden) vs {} (actual)",
                    g.len(),
                    a.len()
                ));
            }
            for (i, (gv, av)) in g.iter().zip(a.iter()).enumerate() {
                diff(&format!("{path}[{i}]"), gv, av, diffs);
            }
        }
        _ => match (number_of(golden), number_of(actual)) {
            // Numbers compare as numbers (the parser may type the same
            // field as integer or float depending on its value).
            (Some(g), Some(a)) => {
                let scale = g.abs().max(a.abs());
                if !(g == a || (g - a).abs() <= REL_TOL * scale) {
                    diffs.push(format!("{path}: {g} (golden) vs {a} (actual)"));
                }
            }
            _ => {
                if golden != actual {
                    diffs.push(format!("{path}: {golden} (golden) vs {actual} (actual)"));
                }
            }
        },
    }
}

fn number_of(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn assert_matches_golden(exe: &str, golden_name: &str) {
    let golden = load_golden(golden_name);
    let actual = run_bin_json(exe);
    let mut diffs = Vec::new();
    diff("$", &golden, &actual, &mut diffs);
    assert!(
        diffs.is_empty(),
        "{golden_name} drifted from the committed golden output \
         ({} mismatches):\n  {}\n\
         If this change is intentional, regenerate the golden file \
         (see tests/golden.rs).",
        diffs.len(),
        diffs.join("\n  ")
    );
}

#[test]
fn stream_headline_fast_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_stream_headline"),
        "stream_headline_fast.json",
    );
}

#[test]
fn fig13_workload_change_fast_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fig13_workload_change"),
        "fig13_workload_change_fast.json",
    );
}

#[test]
fn fleet_dse_headline_fast_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fleet_dse_headline"),
        "fleet_dse_headline_fast.json",
    );
}

#[test]
fn fleet_controller_headline_fast_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fleet_controller_headline"),
        "fleet_controller_headline_fast.json",
    );
}

#[test]
fn megafleet_headline_fast_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_megafleet_headline"),
        "megafleet_headline_fast.json",
    );
}

#[test]
fn fused_headline_fast_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_fused_headline"),
        "fused_headline_fast.json",
    );
}

#[test]
fn sparse_transformer_headline_fast_matches_golden() {
    assert_matches_golden(
        env!("CARGO_BIN_EXE_sparse_transformer_headline"),
        "sparse_transformer_headline_fast.json",
    );
}

#[test]
fn the_differ_itself_catches_drift() {
    // The suite is only as good as its differ: a moved number, a
    // missing key and a changed string must all surface with paths,
    // while timing keys and last-ulp float noise must not.
    let golden = Value::parse_json(
        r#"{"a": 1, "b": {"wall_clock_s": 5.0, "x": [1.0, 2.0]}, "s": "hda",
            "profile": {"commits": 7, "run_ns": 3, "mem": {"span_bytes": 64}}}"#,
    )
    .unwrap();
    let same = Value::parse_json(
        r#"{"a": 1, "b": {"wall_clock_s": 99.0, "x": [1.0000000000000002, 2.0]}, "s": "hda",
            "profile": {"commits": 7, "run_ns": 9, "events_per_second": 2.0}}"#,
    )
    .unwrap();
    let mut diffs = Vec::new();
    diff("$", &golden, &same, &mut diffs);
    assert!(diffs.is_empty(), "{diffs:?}");

    let drifted = Value::parse_json(
        r#"{"a": 2, "b": {"x": [1.0, 2.1]}, "s": "fda", "profile": {"commits": 8}}"#,
    )
    .unwrap();
    let mut diffs = Vec::new();
    diff("$", &golden, &drifted, &mut diffs);
    let rendered = diffs.join("\n");
    assert!(rendered.contains("$.a"), "{rendered}");
    assert!(rendered.contains("$.b.x[1]"), "{rendered}");
    assert!(rendered.contains("$.s"), "{rendered}");
    assert!(rendered.contains("$.profile.commits"), "{rendered}");
    assert_eq!(diffs.len(), 4, "{rendered}");
}
