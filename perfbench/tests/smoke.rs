//! A tiny-scale run of every workload emits exactly the metrics
//! `BENCHMARK.json` names, each with its unit, and passes its checks.

use std::process::Command;

/// `(name, unit)` of every metric listed under `section` in
/// `BENCHMARK.json`, which keeps one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.lines()
        .filter_map(|line| {
            let name = string_after(line, "\"name\": ")?;
            let unit = string_after(line, "\"unit\": ")?;
            Some((name, unit))
        })
        .collect()
}

/// The JSON string that follows `key` in `text`.
fn string_after(text: &str, key: &str) -> Option<String> {
    let rest = &text[text.find(key)? + key.len()..];
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// `(name, unit)` of every metric in a result line, and `correct`.
fn emitted(line: &str) -> (bool, Vec<(String, String)>) {
    let correct = line.contains("\"correct\": true,");
    let metrics = &line[line.find("\"metrics\": {").expect("metrics key") + 12..];
    let mut out = Vec::new();
    for entry in metrics.split("}, ") {
        let name = string_after(entry, "").expect("metric name");
        let unit = string_after(entry, "\"unit\": ").expect("metric unit");
        out.push((name, unit));
    }
    (correct, out)
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "0.002"])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {out:?}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut want = declared(section);
        want.sort();
        assert!(!want.is_empty(), "{section} lists metrics");
        for workload in ["paper_scale", "faulty_sharded", "checkpoint_resume"] {
            let (correct, mut got) = emitted(&run(workload, trace));
            got.sort();
            assert!(correct, "{workload} --trace {trace}: checks failed");
            assert_eq!(got, want, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper_scale", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
