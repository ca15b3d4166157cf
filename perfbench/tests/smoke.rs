//! A three-second run (the minimum of three rounds) of every workload,
//! untraced and traced, through the built benchmark binary: each must pass its own checks and end with a
//! result line carrying exactly the metrics `BENCHMARK.json` declares.

use std::process::Command;

use rei_service::json::Json;

/// The metric names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let json = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn smoke(workload: &str) {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", workload, "--seed", "3", "--seconds", "3"])
            .args(["--trace", trace])
            .output()
            .expect("perfbench starts");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "{workload} --trace {trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics object");
        let names: Vec<String> = metrics.iter().map(|(name, _)| name.clone()).collect();
        assert_eq!(names, declared(key), "{workload} --trace {trace}");
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Json::as_f64).expect("value");
            assert!(value.is_finite(), "{name}");
            if trace == "0" {
                assert!(value > 0.0, "{workload}: end-to-end {name} is 0");
            }
        }
    }
}

#[test]
fn paper_seq_runs() {
    smoke("paper_seq");
}

#[test]
fn wide_words_runs() {
    smoke("wide_words");
}

#[test]
fn service_tcp_runs() {
    smoke("service_tcp");
}
