//! Runs every workload at smoke scale through the `benchmark` binary and
//! checks what it prints against `BENCHMARK.json`.

use bismark_benchmark::catalog::Catalog;
use serde::value::Value;
use std::path::PathBuf;
use std::process::Command;

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::UInt(u) => *u as f64,
        other => panic!("{other:?} is not a number"),
    }
}

/// A working directory of the test's own, so concurrent tests never
/// share the trace and spill files the benchmark writes under it.
fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the benchmark in `dir`; return stdout's last line, parsed.
fn benchmark(dir: &PathBuf, args: &[&str]) -> Value {
    let out =
        Command::new(env!("CARGO_BIN_EXE_benchmark")).args(args).current_dir(dir).output().unwrap();
    assert!(
        out.status.success(),
        "benchmark {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    serde_json::from_str(stdout.lines().last().expect("a result line")).unwrap()
}

#[test]
fn every_workload_prints_the_declared_metrics_and_passes_its_checks() {
    let catalog = Catalog::load();
    assert!(catalog.end_to_end.len() <= 16 && catalog.per_layer.len() <= 128);
    let declared: Vec<&str> =
        catalog.end_to_end.iter().chain(&catalog.per_layer).map(|m| m.name.as_str()).collect();
    for name in &declared {
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?} must match [A-Za-z0-9_.-]+"
        );
    }

    let dir = workdir("smoke-all");
    let json = dir.join("result.json");
    let result = benchmark(&dir, &["--smoke", "--runs", "2", "--json", json.to_str().unwrap()]);
    assert_eq!(get(&result, "correct"), &Value::Bool(true));
    assert_eq!(number(get(&result, "failed")), 0.0);

    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let workloads = get(&doc, "workloads").as_map().unwrap();
    let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["paper-49d", "homes-10k", "traffic-cgn", "stream-chaos"]);
    for (workload, w) in workloads {
        let printed: Vec<&str> =
            get(w, "metrics").as_map().unwrap().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(printed, declared, "{workload}");
        let checks = get(w, "checks").as_seq().unwrap();
        let traced: Vec<&Value> = checks
            .iter()
            .filter(|c| get(c, "name").as_str().unwrap().contains("traced run equals untraced run"))
            .collect();
        assert_eq!(traced.len(), 3, "{workload}: report, CSV and metrics digests");
        for check in checks {
            assert_eq!(get(check, "ok"), &Value::Bool(true), "{workload}: {check:?}");
        }
        assert!(dir.join(format!("target/bench/trace-{workload}.json")).exists());
    }

    let metrics = get(get(get(&doc, "workloads"), "stream-chaos"), "metrics");
    for name in declared.iter().filter(|n| n.starts_with("stream.")) {
        assert!(number(get(get(metrics, name), "median")) > 0.0, "stream-chaos must report {name}");
    }
}

#[test]
fn contract_mode_prints_one_result_line_per_run() {
    let catalog = Catalog::load();
    let dir = workdir("smoke-contract");
    for (trace, declared) in [("0", &catalog.end_to_end), ("1", &catalog.per_layer)] {
        let args = [
            "--workload",
            "traffic-cgn",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ];
        let result = benchmark(&dir, &args);
        let keys: Vec<&str> = result.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(get(&result, "correct"), &Value::Bool(true), "--trace {trace}");
        assert!(number(get(&result, "attempted")) >= 1.0);
        let metrics = get(&result, "metrics").as_map().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, expected, "--trace {trace}");
        for (name, m) in metrics {
            let unit = get(m, "unit").as_str().unwrap();
            assert_eq!(Some(unit), catalog.metric(name).map(|d| d.unit.as_str()));
        }
    }
}
