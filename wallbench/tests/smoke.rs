//! Smoke size of every workload: one-second runs, untraced and traced.
//! Each must pass its output checks and emit exactly the metrics
//! `BENCHMARK.json` declares, each with its declared unit.
//!
//! Run with `cargo test --release --manifest-path wallbench/Cargo.toml`
//! (a debug build of the workloads is too slow for one-second runs to
//! mean anything).

use fompi_fleet::json::{parse, Json};
use std::process::Command;
use std::sync::Mutex;

/// One benchmark process at a time: runs overlapping on a small host
/// would perturb each other's timing and the interleavings `kv_zipf`
/// depends on.
static SERIAL: Mutex<()> = Mutex::new(());

/// `(name, unit)` of each metric in `BENCHMARK.json`'s `key` list.
fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
    let items = spec.get(key).and_then(Json::as_arr).expect("metric list in BENCHMARK.json");
    items
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json")
}

/// Run one smoke-size workload; returns the exit status and the parsed
/// last line of standard output.
fn smoke(workload: &str, trace: u8) -> (bool, Json) {
    // A failed test poisons the lock; the guard protects no data.
    let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .expect("run wallbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!("{workload}: no output; stderr:\n{}", String::from_utf8_lossy(&out.stderr))
    });
    let result =
        parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"));
    if !out.status.success() {
        eprintln!("{workload} stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), result)
}

fn assert_passes(workload: &str, trace: u8, want: &[(String, String)]) {
    let (ok, result) = smoke(workload, trace);
    let Some(Json::Obj(top)) = Some(&result) else { panic!("{workload}: result is not an object") };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{workload}: result keys");
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload} trace={trace}: checks failed"
    );
    assert!(ok, "{workload} trace={trace}: nonzero exit");
    assert!(result.get("attempted").and_then(Json::as_u64).expect("attempted") >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{workload}: failed ops");
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object")
    };
    let mut got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Json::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{workload}: {name} has no finite value");
            (name.clone(), m.get("unit").and_then(Json::as_str).expect("unit").to_string())
        })
        .collect();
    let mut want = want.to_vec();
    got.sort();
    want.sort();
    assert_eq!(got, want, "{workload} trace={trace}: emitted metrics differ from BENCHMARK.json");
}

#[test]
fn gated_workloads_emit_every_declared_metric_and_pass_their_checks() {
    let spec = spec();
    let workloads = spec.get("workloads").and_then(Json::as_arr).expect("workloads");
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        assert_passes(name, 0, &declared(&spec, "end_to_end"));
        assert_passes(name, 1, &declared(&spec, "per_layer"));
    }
}

/// `kv_zipf` is held out of `BENCHMARK.json` because the program fails
/// its conservation check (see README.md); this test holds it to the same
/// bar as the gated workloads and passes once the defect is fixed.
#[test]
fn kv_zipf_passes_its_checks() {
    let (ok, result) = smoke("kv_zipf", 0);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "kv_zipf: output checks failed");
    assert!(ok, "kv_zipf: nonzero exit");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "kv_zipf: failed ops");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
            .args(args)
            .output()
            .expect("run wallbench");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
