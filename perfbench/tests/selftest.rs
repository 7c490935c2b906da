//! Self-tests of the benchmark: the metric lists agree with
//! `BENCHMARK.json`, a tiny run of every workload emits every metric with
//! zero failed ops, and traced runs produce well-formed spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use xse_perfbench::{per_layer_metrics, run, Report, RunConfig, END_TO_END, WORKLOADS};

/// One entry of a `BENCHMARK.json` list: its scalar fields, as written.
type Entry = BTreeMap<String, String>;

/// The entries of each list in `BENCHMARK.json`, by list name. The file
/// is written one field per line, so a line scan reads it: `"key": [`
/// opens a list, `{` and `}` bound an entry, `"key": value` is a field.
fn benchmark_json() -> BTreeMap<String, Vec<Entry>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let mut lists: BTreeMap<String, Vec<Entry>> = BTreeMap::new();
    let mut list = String::new();
    for line in text.lines().map(str::trim) {
        if let Some(name) = line.strip_suffix(": [") {
            list = name.trim_matches('"').to_string();
        } else if line == "{" && !list.is_empty() {
            lists.entry(list.clone()).or_default().push(Entry::new());
        } else if let Some((key, value)) = line.split_once(": ") {
            if let Some(entry) = lists.get_mut(&list).and_then(|l| l.last_mut()) {
                let value = value.trim_end_matches(',').trim_matches('"');
                entry.insert(key.trim_matches('"').to_string(), value.to_string());
            }
        }
    }
    lists
}

fn field<'a>(entries: &'a [Entry], key: &str) -> Vec<&'a str> {
    entries
        .iter()
        .map(|e| e.get(key).map(String::as_str).expect(key))
        .collect()
}

fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
    let cfg = RunConfig {
        seed,
        budget: Duration::from_millis(if trace { 600 } else { 300 }),
        trace,
    };
    let report = run(workload, cfg).expect("workload runs");
    assert!(report.tally.attempted >= 1, "{workload}: no op attempted");
    assert_eq!(report.tally.failed(), 0, "{workload}: {:?}", report.tally);
    assert!(report.correct(), "{workload}: {:?}", report.checks);
    report
}

/// The result line has exactly the contract's keys, in order, and
/// `metrics` holds exactly `expected`, each a number with a unit.
fn assert_result_line(report: &Report, expected: &[String]) {
    let line = report.result_json();
    let prefix = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        report.correct(),
        report.tally.attempted,
        report.tally.failed()
    );
    let body = line
        .strip_prefix(&prefix)
        .and_then(|rest| rest.strip_suffix("}}"))
        .unwrap_or_else(|| panic!("malformed result line: {line}"));
    let mut got = Vec::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry
            .split_once(r#"": {"value": "#)
            .unwrap_or_else(|| panic!("malformed metric: {entry}"));
        let (value, unit) = rest
            .split_once(r#", "unit": ""#)
            .unwrap_or_else(|| panic!("metric without unit: {entry}"));
        assert!(value.parse::<f64>().is_ok(), "{name}: value {value}");
        assert!(
            !unit.trim_end_matches(['"', '}']).is_empty(),
            "{name}: no unit"
        );
        got.push(name.trim_start_matches('"').to_string());
    }
    assert_eq!(got, expected, "{}", report.workload);
}

#[test]
fn benchmark_json_matches_the_metric_lists() {
    let b = benchmark_json();
    assert_eq!(field(&b["workloads"], "name"), WORKLOADS);
    let e2e = &b["end_to_end"];
    let declared: Vec<(&str, &str)> = field(e2e, "name")
        .into_iter()
        .zip(field(e2e, "unit"))
        .collect();
    assert_eq!(declared, END_TO_END);
    // setup_s carries the largest bound, and every bound is within 0.25.
    let bounds: BTreeMap<&str, f64> = field(e2e, "name")
        .into_iter()
        .zip(
            field(e2e, "bound")
                .iter()
                .map(|b| b.parse().expect("bound")),
        )
        .collect();
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= bounds["setup_s"], "{name}");
    }
    assert!(bounds["setup_s"] <= 0.25);

    let layers = &b["per_layer"];
    let declared: Vec<(String, String, String)> = field(layers, "name")
        .into_iter()
        .zip(field(layers, "unit"))
        .zip(field(layers, "better"))
        .map(|((n, u), b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    let expected: Vec<(String, String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect();
    assert_eq!(declared, expected);
}

#[test]
fn tiny_untraced_runs_emit_every_end_to_end_metric() {
    let expected: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    for workload in WORKLOADS {
        let report = tiny(workload, 7, false);
        assert_result_line(&report, &expected);
        for (name, _) in END_TO_END {
            let v = report.metric(name).expect("metric present");
            assert!(v > 0.0, "{workload}: {name} = {v}");
        }
    }
}

#[test]
fn tiny_traced_runs_emit_every_per_layer_metric_with_sound_spans() {
    let expected: Vec<String> = per_layer_metrics().into_iter().map(|(n, _, _)| n).collect();
    // Spans each workload must exercise.
    let exercised: [(&str, &[&str]); 3] = [
        (
            "translate-hot",
            &[
                "wire.call",
                "proto.encode",
                "proto.decode",
                "registry.get_or_compile",
                "rxpath.parse_query",
                "core.translate",
            ],
        ),
        (
            "migrate-docs",
            &[
                "wire.call",
                "xmltree.parse_xml",
                "xmltree.to_xml",
                "core.apply",
            ],
        ),
        (
            "schema-churn",
            &[
                "registry.get_or_compile",
                "registry.evict",
                "discovery.find_embedding",
                "core.similarity",
                "dtd.parse",
                "dtd.content_hash",
                "rxpath.parse_query",
                "core.translate",
                "anfa.eval",
                "xmltree.map_result",
            ],
        ),
    ];
    for (workload, spans) in exercised {
        let report = tiny(workload, 7, true);
        assert_result_line(&report, &expected);
        for span in spans {
            let calls = report.metric(&format!("{span}.calls")).expect("calls");
            assert!(calls > 0.0, "{workload}: {span} never called");
        }
        let t = report.trace.expect("traced run summarises its spans");
        assert!(t.spans > 0, "{workload}: no spans");
        assert!(
            t.min_self_ns >= 0,
            "{workload}: negative self time {}",
            t.min_self_ns
        );
        assert!(
            t.request_gap < 0.1,
            "{workload}: {:.3} of request time is outside every child span",
            t.request_gap
        );
    }
}

#[test]
fn seeds_change_inputs_but_not_metric_names() {
    let a = tiny("translate-hot", 1, false);
    let again = tiny("translate-hot", 1, false);
    let b = tiny("translate-hot", 2, false);
    assert_eq!(a.digest, again.digest, "same seed, same inputs");
    assert_ne!(a.digest, b.digest, "another seed, other inputs");
    let metric_names = |r: &Report| r.metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    assert_eq!(metric_names(&a), metric_names(&b));
}
