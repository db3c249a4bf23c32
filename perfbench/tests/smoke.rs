//! The benchmark's own smoke test: every workload once at minimal size
//! (`--smoke`), untraced and traced, must pass its output checks and emit
//! exactly the metrics `BENCHMARK.json` names, each with its unit; and
//! every prediction in `predictions.json` must cite known workloads and
//! metrics.
//!
//! Run from the repository root:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use edse_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// `metric name -> unit` for one metric list of BENCHMARK.json.
fn units(spec: &Json, key: &str) -> BTreeMap<String, String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|e| {
            (
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                e.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let root = repo_root();
    let spec = load(&root.join("BENCHMARK.json"));
    for workload in names(&spec, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(&root)
                .args(["--workload", &workload, "--seed", "5", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("result line is JSON");
            let Json::Obj(fields) = &result else {
                panic!("result is not an object: {last}");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics is not an object: {last}");
            };
            let emitted: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} has no finite value"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(emitted, units(&spec, list), "{workload} trace {trace}");
        }
    }
}

#[test]
fn predictions_cite_known_workloads_and_metrics() {
    let root = repo_root();
    let spec = load(&root.join("BENCHMARK.json"));
    let workloads = names(&spec, "workloads");
    let end_to_end = units(&spec, "end_to_end");
    let per_layer = units(&spec, "per_layer");
    let predictions = load(&root.join("perfbench/predictions.json"));
    let list = predictions
        .get("predictions")
        .and_then(Json::as_arr)
        .expect("predictions list");
    let mut seen = std::collections::BTreeSet::new();
    for p in list {
        let name = p.get("name").and_then(Json::as_str).expect("name");
        assert!(seen.insert(name.to_string()), "duplicate prediction {name}");
        for m in p
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer")
        {
            let m = m.as_str().expect("metric name");
            assert!(per_layer.contains_key(m), "{name}: unknown per-layer {m}");
        }
        for key in ["moves", "no_change"] {
            let Some(Json::Obj(by_workload)) = p.get(key) else {
                continue;
            };
            for (w, metrics) in by_workload {
                assert!(workloads.contains(w), "{name}: unknown workload {w}");
                for m in metrics.as_arr().expect("metric list") {
                    let m = m.as_str().expect("metric name");
                    assert!(end_to_end.contains_key(m), "{name}: unknown metric {m}");
                }
            }
        }
    }
    for required in ["dse-self-moves-nothing", "mapper-no-change-warm"] {
        assert!(seen.contains(required), "missing prediction {required}");
    }
}
