//! The benchmark's own tests: a miniature of every workload passes its
//! output checks untraced and traced (which includes the traced run
//! reproducing the untraced report byte for byte), and the metrics it
//! prints are exactly those `BENCHMARK.json` declares.

use ef_perfbench::bench::{self, Outcome};
use ef_perfbench::catalog::{END_TO_END, PER_LAYER};
use ef_perfbench::workload::{Scale, Workload};
use serde::Value;

const SEED: u64 = 3;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(entry: &'a Value, key: &str) -> &'a str {
    match entry.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

/// `(name, unit, better)` of each entry of a `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String, String)> {
    let json = benchmark_json();
    json.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|e| {
            (
                str_field(e, "name").to_string(),
                str_field(e, "unit").to_string(),
                str_field(e, "better").to_string(),
            )
        })
        .collect()
}

fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn assert_passes(outcome: &Outcome) {
    assert!(
        outcome.correct(),
        "{} failed its checks:\n{}",
        outcome.workload.name(),
        outcome.table()
    );
    assert!(outcome.attempted > 0);
    let line = outcome.json();
    let parsed = serde_json::parse_value(&line).expect("the result line is JSON");
    assert!(matches!(parsed.get("correct"), Some(Value::Bool(true))));
}

#[test]
fn every_miniature_passes_untraced_with_the_declared_end_to_end_metrics() {
    let declared: Vec<(String, String)> = declared("end_to_end")
        .into_iter()
        .map(|(name, unit, _)| (name, unit))
        .collect();
    for workload in Workload::ALL {
        let outcome = bench::run_untraced(workload, SEED, Scale::Mini, 2);
        assert_passes(&outcome);
        assert_eq!(printed(&outcome), declared, "{}", workload.name());
    }
}

#[test]
fn every_miniature_traced_run_reproduces_the_untraced_report() {
    let declared: Vec<(String, String)> = declared("per_layer")
        .into_iter()
        .map(|(name, unit, _)| (name, unit))
        .collect();
    for workload in Workload::ALL {
        let outcome = bench::run_traced(workload, SEED, Scale::Mini, 2);
        assert_passes(&outcome);
        assert_eq!(printed(&outcome), declared, "{}", workload.name());
    }
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let better = |higher: bool| if higher { "higher" } else { "lower" }.to_string();
    let e2e: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                better(m.higher_is_better),
            )
        })
        .collect();
    assert_eq!(declared("end_to_end"), e2e);

    let layers: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|l| {
            (
                l.name.to_string(),
                l.unit.to_string(),
                better(l.higher_is_better),
            )
        })
        .collect();
    assert_eq!(declared("per_layer"), layers);

    let json = benchmark_json();
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
