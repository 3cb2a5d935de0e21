//! Runs every workload of BENCHMARK.json at `--scale smoke`, untraced
//! and traced, through the real binary, and checks what it prints
//! against the metric lists there.

use perfbench::report::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The span names every traced run must emit: one per layer the
/// benchmark times from outside the program.
const LAYER_SPANS: [&str; 9] = [
    "query",
    "omega.parse",
    "omega.dnf",
    "counting.count",
    "polyq.render",
    "serve.request",
    "serve.codec.text_parse",
    "serve.codec.binary_roundtrip",
    "serve.route.hash",
];

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    match spec.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

fn name(entry: &Json, key: &str) -> String {
    entry
        .get(key)
        .and_then(Json::str)
        .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
        .to_string()
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn trace_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-traces")
}

#[test]
fn every_workload_reports_every_metric() {
    let spec = spec();
    let dir = trace_dir();
    for workload in list(&spec, "workloads").iter().map(|w| name(w, "name")) {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = bench(&[
                "--workload",
                &workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--scale",
                "smoke",
                "--trace-dir",
                dir.to_str().expect("utf-8 path"),
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the result line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {last}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::num),
                Some(0.0),
                "{workload}: {last}"
            );
            assert!(result.get("attempted").and_then(Json::num) >= Some(1.0));
            let metrics = result.get("metrics").expect("metrics");
            for m in list(&spec, key) {
                let (metric, unit) = (name(m, "name"), name(m, "unit"));
                let got = metrics
                    .get(&metric)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {metric}"));
                assert_eq!(got.get("unit").and_then(Json::str), Some(unit.as_str()));
                assert!(got
                    .get("value")
                    .and_then(Json::num)
                    .is_some_and(f64::is_finite));
            }
            if trace == "1" {
                let spans = dir.join(format!("{workload}-seed3.jsonl"));
                let text = std::fs::read_to_string(&spans).expect("the traced run wrote spans");
                let names: BTreeSet<String> = text
                    .lines()
                    .map(|l| name(&Json::parse(l).expect("span JSON"), "name"))
                    .collect();
                for layer in LAYER_SPANS {
                    assert!(names.contains(layer), "{workload}: no {layer} span");
                }
            }
        }
    }
}

#[test]
fn refuses_to_run_under_presburger_variables() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "paper-cold",
            "--seconds",
            "1",
            "--scale",
            "smoke",
        ])
        .env("PRESBURGER_THREADS", "2")
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
