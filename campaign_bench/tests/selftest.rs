//! Self-tests of the benchmark binary on a one-benchmark grid: every
//! metric `BENCHMARK.json` names comes out with its unit, and the output
//! check can fail.

use std::path::PathBuf;
use std::process::Command;

use pgss_serve::json::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_campaign_bench");

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Runs the benchmark on a one-benchmark grid for one iteration and
/// returns its parsed result line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> Value {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--benchmarks", "300.twolf"])
        .args(extra)
        .current_dir(manifest_dir())
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the result line is JSON")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(section)
        .and_then(Value::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get("workloads")
        .and_then(Value::as_arr)
        .expect("a workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_run_emits_every_declared_metric_with_its_unit() {
    for workload in workloads() {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(&workload, trace, &[]);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let want = declared(section);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{workload} {section}: metric count"
            );
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload} {section}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                assert!(
                    m.get("value")
                        .and_then(Value::as_f64)
                        .is_some_and(f64::is_finite),
                    "{workload}: {name} has no finite value"
                );
            }
            if section == "end_to_end" {
                for name in ["campaign_s", "cell_p50_s", "first_result_s", "peak_rss_mb"] {
                    let v = metrics[name].get("value").and_then(Value::as_f64);
                    assert!(v > Some(0.0), "{workload}: {name} is not positive");
                }
            }
        }
    }
}

#[test]
fn wrong_pinned_digest_is_reported_as_failed_cells() {
    let pins = std::fs::read_to_string(manifest_dir().join("pins.txt")).expect("read pins");
    // Flip the last digit of one cell pin.
    let wrong: String = pins
        .lines()
        .map(|line| {
            if line.starts_with("cell\t300.twolf\tSMARTS(") {
                let (head, digit) = line.split_at(line.len() - 1);
                format!("{head}{}\n", if digit == "0" { "1" } else { "0" })
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    assert_ne!(wrong, pins, "the test pin exists");
    let dir = manifest_dir().join(".bench_work");
    std::fs::create_dir_all(&dir).expect("create .bench_work");
    let path = dir.join(format!("wrong-pins-{}.txt", std::process::id()));
    std::fs::write(&path, wrong).expect("write wrong pins");
    let result = run(
        "grid-plain",
        0,
        &["--pins", path.to_str().expect("utf-8 path")],
    );
    let _ = std::fs::remove_file(&path);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
    let attempted = result
        .get("attempted")
        .and_then(Value::as_u64)
        .expect("attempted");
    let failed = result
        .get("failed")
        .and_then(Value::as_u64)
        .expect("failed");
    // Exactly the one cell per iteration whose pin is wrong.
    assert_eq!(
        failed * 8,
        attempted,
        "one failed cell in every 8-cell campaign"
    );
    let ok = result
        .get("metrics")
        .and_then(|m| m.get("ok_frac"))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64);
    assert!(ok < Some(1.0), "ok_frac must drop below 1");
}
