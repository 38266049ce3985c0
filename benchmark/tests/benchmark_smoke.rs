//! Every workload at smoke scale (the ~500-VM fixture and a ~10k-VM
//! stream, one iteration), plain and traced: every metric BENCHMARK.json
//! names is emitted with its unit, the binary's last line is the result
//! object, outputs repeat across runs, and the traced decomposition
//! computes exactly what `GsfPipeline::evaluate` does.

use gsf_benchmark::bench::{run, RunSpec};
use gsf_benchmark::json::{self, Value};
use gsf_benchmark::spans::Tracer;
use gsf_benchmark::workloads::{setup, traced_evaluation, Scale, Source, Workload};
use gsf_core::{EvalContext, GsfPipeline};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let text = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).expect(key).to_string();
    spec.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("benchmark-smoke")
}

fn smoke(workload: Workload, trace: bool) -> RunSpec {
    RunSpec {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
        min_iterations: 1,
        setup_seconds: 0.0,
        work_dir: work_dir(),
    }
}

#[test]
fn every_workload_emits_every_metric_with_stable_outputs() {
    let (end_to_end, per_layer) = (metrics("end_to_end"), metrics("per_layer"));
    for w in Workload::ALL {
        let plain = run(&smoke(w, false)).expect("plain run");
        let again = run(&smoke(w, false)).expect("second plain run");
        let traced = run(&smoke(w, true)).expect("traced run");
        for (report, expected) in [(&plain, &end_to_end), (&traced, &per_layer)] {
            assert!(
                report.correct,
                "{}: {} failed of {}",
                w.name(),
                report.failed,
                report.attempted
            );
            let emitted: Vec<(String, String)> =
                report.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
            assert_eq!(&emitted, expected, "{}", w.name());
        }
        assert_eq!(plain.digest, again.digest, "{}: outputs differ between runs", w.name());
        assert_eq!(plain.digest, traced.digest, "{}: traced outputs differ", w.name());
        assert!(traced.spans.iter().any(|s| s.name == "vmalloc.replay"), "{}", w.name());
    }
}

#[test]
fn the_binary_ends_with_the_result_line() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_gsf-benchmark"))
        .args(["--workload", "size24k", "--seed", "7", "--trace", "0", "--smoke"])
        .output()
        .expect("run gsf-benchmark");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = json::parse(stdout.lines().last().expect("output")).expect("JSON last line");
    let keys: Vec<&str> =
        last.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(last.get("attempted").and_then(Value::as_f64).is_some_and(|n| n >= 1.0));
    let emitted: Vec<(String, String)> = last
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Value::as_f64).is_some_and(|v| v > 0.0), "{name}");
            (name.clone(), m.get("unit").and_then(Value::as_str).expect("unit").to_string())
        })
        .collect();
    assert_eq!(emitted, metrics("end_to_end"));
}

#[test]
fn traced_decomposition_reproduces_the_pipeline() {
    for w in [Workload::Size24k, Workload::Faults12k] {
        let input = setup(w, 7, Scale::Smoke, &work_dir()).expect("set-up");
        let Source::Memory(trace) = &input.source else {
            panic!("{} reads its trace from memory", w.name());
        };
        let expected = GsfPipeline::new(input.config.clone())
            .evaluate(&input.design, trace)
            .expect("pipeline");
        assert_eq!(expected.faults.faults_applied(), w == Workload::Faults12k, "{}", w.name());
        let ctx = Arc::new(EvalContext::new());
        let ci = input.config.carbon_params.carbon_intensity;
        let got = traced_evaluation(&input, trace, &ctx, &Tracer::on(), 0, ci).expect("traced");
        // The outcome is read back through the pipeline, so it must have
        // come from the decomposition's sizing entry, not a recomputation.
        let stats = ctx.stats();
        assert_eq!((stats.sizing_misses, stats.sizing_hits), (1, 1), "{}", w.name());
        assert_eq!(got.baseline_only_servers, expected.baseline_only_servers, "{}", w.name());
        assert_eq!(got.plan, expected.plan, "{}", w.name());
        assert_eq!(got.replay, expected.replay, "{}", w.name());
        assert_eq!(got.faults, expected.faults, "{}", w.name());
        assert_eq!(got, expected, "{}", w.name());
    }
}
