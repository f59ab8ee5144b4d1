//! The benchmark's self-test: every workload of `BENCHMARK.json`, at a
//! tiny size, in both modes, must pass its own output checks and emit
//! exactly the metrics `BENCHMARK.json` declares, each with its unit.

use rtl_campaign::json::Json;
use std::process::Command;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, section: &str, key: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|entry| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .expect(key)
                .to_string()
        })
        .collect()
}

/// Runs one smoke-sized benchmark run with `BENCHMARK.json`'s
/// `run_seconds`, as a full run gets them; returns its stdout and the
/// parsed last line.
fn run(bench: &Json, workload: &str, trace: u8) -> (String, Json) {
    let seconds = bench
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3"])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    let doc = Json::parse(&last).unwrap_or_else(|e| panic!("result line: {e}\n{last}"));
    (stdout, doc)
}

fn value(metric: &Json) -> f64 {
    match metric.get("value") {
        Some(Json::Num(n)) => n.parse().expect("a numeric value"),
        other => panic!("metric value {other:?} is not a number"),
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let bench = benchmark();
    let sections = [(0u8, "end_to_end"), (1u8, "per_layer")];
    for workload in names(&bench, "workloads", "name") {
        for (trace, section) in sections {
            let (stdout, doc) = run(&bench, &workload, trace);
            let what = format!("{workload} --trace {trace}");
            assert_eq!(
                doc.get("correct").and_then(Json::as_bool),
                Some(true),
                "{what}\n{stdout}"
            );
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0), "{what}");
            assert!(
                doc.get("attempted").and_then(Json::as_u64) >= Some(1),
                "{what}"
            );
            assert!(
                stdout.contains("failed_ratio 0 failed/attempted"),
                "{what}\n{stdout}"
            );
            assert!(
                stdout.contains(" (committed)"),
                "{what}: no committed report digest\n{stdout}"
            );

            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("{what}: no metrics object");
            };
            let emitted: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            let declared = names(&bench, section, "name");
            assert_eq!(emitted, declared, "{what}: metric names");
            for ((name, metric), unit) in metrics.iter().zip(names(&bench, section, "unit")) {
                assert_eq!(
                    metric.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{what}: {name}"
                );
                let v = value(metric);
                assert!(v.is_finite(), "{what}: {name} = {v}");
                if trace == 0 {
                    assert!(v > 0.0, "{what}: end-to-end metric {name} is {v}");
                }
            }
            if trace == 1 {
                let unattributed = metrics
                    .iter()
                    .find(|(name, _)| name == "trace.unattributed_share")
                    .map(|(_, m)| value(m))
                    .expect("trace.unattributed_share");
                assert!(
                    unattributed < 0.1,
                    "{what}: spans cover too little case time"
                );
                assert!(stdout.contains("largest layer: "), "{what}\n{stdout}");
            }
        }
    }
}
