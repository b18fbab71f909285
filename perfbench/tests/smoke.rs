//! The smoke mode runs every workload on tiny inputs. Every metric that
//! `BENCHMARK.json` names must come out with its unit, and an injected
//! reply mismatch must be counted as a failure.

use ocelotl::format::Json;
use perfbench::{run, Options, Outcome, WORKLOADS};

fn options(workload: &str, trace: bool, inject_mismatch: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        smoke: true,
        inject_mismatch,
    }
}

fn run_ok(workload: &str, trace: bool, inject_mismatch: bool) -> Outcome {
    run(&options(workload, trace, inject_mismatch))
        .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = json.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(name)), Some(Json::Str(unit))) => (name.clone(), unit.clone()),
            _ => panic!("{section} entry without a name or unit: {m:?}"),
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

/// The last output line is one JSON object with exactly the result keys.
fn check_result_line(outcome: &Outcome) {
    let json = Json::parse(&outcome.json()).expect("result line parses");
    let Json::Obj(fields) = &json else {
        panic!("result line is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let plain = run_ok(workload, false, false);
        assert!(plain.correct, "{workload}: {:?}", plain.lines);
        assert_eq!(plain.failed, 0, "{workload}");
        assert!(plain.attempted >= 1, "{workload}");
        assert_eq!(emitted(&plain), end_to_end, "{workload} end-to-end metrics");
        for m in &plain.metrics {
            assert!(m.value > 0.0, "{workload}: {} must not be 0", m.name);
        }
        check_result_line(&plain);

        let traced = run_ok(workload, true, false);
        assert!(traced.correct, "{workload} traced: {:?}", traced.lines);
        assert_eq!(emitted(&traced), per_layer, "{workload} per-layer metrics");
        check_result_line(&traced);
    }
}

#[test]
fn injected_mismatch_raises_failed_ratio() {
    for workload in WORKLOADS {
        let outcome = run_ok(workload, true, true);
        assert!(!outcome.correct, "{workload}");
        assert!(outcome.failed >= 1, "{workload}");
        let ratio = outcome
            .metrics
            .iter()
            .find(|m| m.name == "failed_ratio")
            .expect("failed_ratio is a per-layer metric");
        assert!(
            ratio.value > 0.0,
            "{workload}: failed_ratio {}",
            ratio.value
        );
    }
}
