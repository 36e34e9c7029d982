//! The names the command prints are exactly those `BENCHMARK.json`
//! declares: workloads, end-to-end metrics and per-layer metrics, with
//! their units, in the same order.

use protean_perfbench::cli::Workload;
use protean_perfbench::metrics::{Metric, END_TO_END, PER_LAYER};
use protean_sim::json::Json;
use std::path::Path;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn registry(list: &[Metric]) -> Vec<(String, String)> {
    list.iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn end_to_end_metrics_match() {
    assert_eq!(
        names_and_units(&benchmark_json(), "end_to_end"),
        registry(END_TO_END)
    );
}

#[test]
fn per_layer_metrics_match() {
    assert_eq!(
        names_and_units(&benchmark_json(), "per_layer"),
        registry(PER_LAYER)
    );
}

#[test]
fn workloads_match() {
    let json = benchmark_json();
    let declared: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads is a list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let cli: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, cli);
}

#[test]
fn setup_metric_is_declared_as_required() {
    let json = benchmark_json();
    let setup = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .and_then(|l| {
            l.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        })
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}
