//! End-to-end smoke: the built binary runs all five workloads at tenth
//! size (`--quick`: one rep, short probes, one traced rep), and what it
//! prints matches the tables `BENCHMARK.json` is generated from.

use std::path::PathBuf;
use std::process::Command;

use nectar_benchmark::json::{self, Value};
use nectar_benchmark::spec::{self, Metric};

const EXE: &str = env!("CARGO_BIN_EXE_nectar-benchmark");

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every metric of the table, in order, each with its unit and a finite
/// value; nothing else.
fn check_metrics(what: &str, metrics: &Value, table: &[Metric], never_zero: bool) {
    let names: Vec<&str> = metrics.entries().iter().map(|(k, _)| k.as_str()).collect();
    let expect: Vec<&str> = table.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, expect, "{what}: metric names and order");
    for m in table {
        let entry = metrics.get(&m.name).unwrap();
        let keys: Vec<&str> = entry.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"], "{what}: {}", m.name);
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(m.unit), "{what}: {}", m.name);
        let v = entry.get("value").unwrap().as_f64().unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{what}: {} = {v}", m.name);
        assert!(!never_zero || v != 0.0, "{what}: {} must never read zero", m.name);
    }
}

fn layer(workload: &Value, name: &str) -> f64 {
    workload.get("per_layer").unwrap().get(name).unwrap().get("value").unwrap().as_f64().unwrap()
}

#[test]
fn quick_suite_runs_every_workload_and_matches_the_spec() {
    let dir = scratch("suite");
    let results = dir.join("results.json");
    let status = Command::new(EXE)
        .args(["suite", "--quick", "--seed", "14", "--out"])
        .arg(&results)
        .env("NECTAR_BENCHMARK_OUT", dir.join("out"))
        .status()
        .unwrap();
    assert!(status.success(), "suite --quick failed");

    let doc = json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    let header = doc.get("header").unwrap();
    for key in ["benchmark", "seed", "seconds", "quick", "nproc", "rustc", "commit", "claim"] {
        assert!(header.get(key).is_some(), "header lacks {key}");
    }
    assert_eq!(header.get("seed").unwrap().as_f64(), Some(14.0));
    assert_eq!(header.get("claim"), Some(&Value::Null), "the benchmark claims no gain");

    let workloads = doc.get("workloads").unwrap();
    let names: Vec<&str> = workloads.entries().iter().map(|(k, _)| k.as_str()).collect();
    let expect: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, expect);
    for (name, w) in workloads.entries() {
        check_metrics(name, w.get("end_to_end").unwrap(), &spec::end_to_end(), true);
        check_metrics(name, w.get("per_layer").unwrap(), &spec::per_layer(), false);
        assert!(w.get("attempted").unwrap().as_f64().unwrap() >= 1.0, "{name}");
        assert_eq!(w.get("failed").unwrap().as_f64(), Some(0.0), "{name}");

        // the trace loads and holds the span tree the README describes
        let path = w.get("trace_file").unwrap().as_str().unwrap();
        let trace = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let events = trace.get("traceEvents").unwrap().items();
        let count =
            |n: &str| events.iter().filter(|e| e.get("name").unwrap().as_str() == Some(n)).count();
        assert_eq!(count("rep"), 1, "{name}");
        assert!(count("setup") >= 1 && count("run") >= 1 && count("core.metrics") >= 1, "{name}");
        assert!(count("core.world_new") >= 1, "{name}");
        if *name != "paper_pair" {
            assert_eq!(count("core.run_until"), 10 * count("run"), "{name}: ten slices a run");
        }
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            let args = e.get("args").unwrap();
            assert_eq!(args.get("rep").unwrap().as_f64(), Some(1.0));
            let is_root = e.get("name").unwrap().as_str() == Some("rep");
            assert_eq!(args.get("parent") == Some(&Value::Null), is_root);
        }
    }

    // the recovery path is idle on the clean streams and busy on the lossy ones
    let clean = workloads.get("stream_twohub").unwrap();
    let lossy = workloads.get("lossy_twohub").unwrap();
    for counter in ["stack.tcp_retransmits", "stack.rmp_retransmits", "wire.crc_drops"] {
        assert_eq!(layer(clean, counter), 0.0, "{counter} on stream_twohub");
        assert!(layer(lossy, counter) > 0.0, "{counter} on lossy_twohub");
    }
    assert!(layer(lossy, "core.frames_lost_injected") > 0.0);
    // only paper_pair puts the host on the path
    assert!(layer(workloads.get("paper_pair").unwrap(), "host.vme_words_per_op") > 0.0);
    assert_eq!(layer(clean, "host.vme_words_per_op"), 0.0);
    // every probe produced a cost
    for m in spec::per_layer().iter().filter(|m| m.unit == "ns") {
        assert!(layer(clean, &m.name) > 0.0, "probe {}", m.name);
    }
}

#[test]
fn one_workload_prints_the_contract_result_line_last() {
    let dir = scratch("single");
    let output = Command::new(EXE)
        .args(["--workload", "rpc_mixed", "--seed", "7", "--seconds", "1", "--trace", "0"])
        .arg("--quick")
        .env("NECTAR_BENCHMARK_OUT", dir.join("out"))
        .output()
        .unwrap();
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    let line = json::parse(text.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    check_metrics("rpc_mixed", line.get("metrics").unwrap(), &spec::end_to_end(), true);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--workload"], &["--trace", "2"], &["compare", "x"]]
    {
        let output = Command::new(EXE).args(args).output().unwrap();
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
