//! Tests of the benchmark itself: every metric `BENCHMARK.json` lists is
//! printed with its unit, every workload runs correctly at a tiny size,
//! and every per-layer metric has a recorded prediction.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use clinfl_obs::json::Value;
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
}

fn parse_file(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    Value::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing key {key:?}"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key:?} is not a string"))
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    field(v, key)
        .as_array()
        .unwrap_or_else(|| panic!("{key:?} is not an array"))
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn benchmark_json() -> Value {
    parse_file(&repo_root().join("BENCHMARK.json"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    array(&benchmark_json(), section)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

/// Runs the benchmark binary with space-separated `args` and returns
/// (exit code, stdout).
fn run(args: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_clinfl-perfbench"))
        .args(args.split_whitespace())
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs");
    let code = out.status.code().unwrap_or(-1);
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn every_workload_prints_every_listed_metric_with_its_unit_at_tiny_size() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = array(&bench, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, ["lstm-fedavg", "bert-fedavg", "fleet-exchange"]);
    // One workload at a time: each federation already uses every core.
    for w in workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = format!("--workload {w} --seed 7 --seconds 1 --trace {trace} --tiny");
            let (code, stdout) = run(&args);
            assert_eq!(code, 0, "{w} trace {trace} failed:\n{stdout}");
            let result = Value::parse(stdout.lines().last().expect("a result line"))
                .expect("the result line is JSON");
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                field(&result, "correct"),
                &Value::Bool(true),
                "{w}: {stdout}"
            );
            assert!(field(&result, "attempted").as_u64() >= Some(1));
            assert!(field(&result, "failed").as_u64().is_some());
            let metrics = field(&result, "metrics");
            let expected = listed(section);
            assert_eq!(
                keys(metrics).len(),
                expected.len(),
                "{w} trace {trace}: extra metrics"
            );
            for (name, unit) in expected {
                let m = field(metrics, &name);
                assert_eq!(text(m, "unit"), unit, "{w}: unit of {name}");
                let value = field(m, "value").as_f64();
                assert!(value.is_some_and(f64::is_finite), "{w}: {name} = {value:?}");
            }
        }
    }
}

#[test]
fn every_per_layer_metric_has_a_prediction() {
    let predictions = parse_file(&Path::new(env!("CARGO_MANIFEST_DIR")).join("predictions.json"));
    let predicted = field(&predictions, "per_layer");
    let end_to_end: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
    let workloads = ["lstm-fedavg", "bert-fedavg", "fleet-exchange"];
    let per_layer = listed("per_layer");
    assert_eq!(keys(predicted).len(), per_layer.len());
    for (name, _) in per_layer {
        let p = field(predicted, &name);
        for m in array(p, "moves") {
            let m = m.as_str().expect("metric names are strings");
            assert!(
                end_to_end.iter().any(|e| e == m) || m == "failed/attempted",
                "{name}: {m}"
            );
        }
        for key in ["on", "unchanged_on"] {
            for w in array(p, key) {
                let w = w.as_str().expect("workload names are strings");
                assert!(workloads.contains(&w), "{name}: unknown workload {w:?}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload lstm-fedavg --seed x --seconds 1 --trace 0",
        "--workload lstm-fedavg --seed 1 --seconds 1 --trace 2",
    ] {
        let (code, stdout) = run(args);
        assert_ne!(code, 0, "{args}");
        assert!(stdout.is_empty(), "{args} printed {stdout}");
    }
}
