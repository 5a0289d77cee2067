//! The benchmark's own tests: inputs repeat exactly for a seed and
//! differ between seeds, every listed metric is reported with its unit,
//! and a wrong payload is counted as failed.

use ced_par::ParExec;
use ced_runtime::{Budget, Json};
use ced_serve::{OpKind, OpRequest};
use cedbench::corpus;
use cedbench::metrics::{result_line, Metric, END_TO_END, PER_LAYER};
use cedbench::speed::HostSpeed;
use cedbench::trace::Recorder;
use cedbench::verify::{check_table, judge, Quality, Tally};
use cedbench::workloads::{edit_ops, end_to_end, per_layer, run, table1_request, Sizes, Workload};
use std::path::PathBuf;

fn request_text(r: &OpRequest) -> String {
    format!(
        "{:?} {} {:?} {} {} {:?} {}",
        r.kind, r.latency, r.latencies, r.seed, r.options.ced.seed, r.baseline, r.kiss2
    )
}

#[test]
fn inputs_repeat_for_a_seed_and_differ_between_seeds() {
    let edits = |seed| -> Vec<String> {
        edit_ops(seed, 1)
            .expect("chain plans")
            .iter()
            .map(|op| format!("{} {}", op.class, request_text(&op.request)))
            .collect()
    };
    assert_eq!(edits(7), edits(7));
    assert_ne!(edits(7), edits(8));

    assert_eq!(corpus::serve_stream(7, 40), corpus::serve_stream(7, 40));
    assert_ne!(corpus::serve_stream(7, 40), corpus::serve_stream(8, 40));
}

#[test]
fn serve_stream_has_its_fixed_composition() {
    let stream = corpus::serve_stream(5, 120);
    let count = |needle: &str| stream.iter().filter(|r| r.line.contains(needle)).count();
    assert_eq!(count("\"cmd\":\"check\""), 60);
    assert_eq!(count("\"cmd\":\"table\""), 20);
    assert_eq!(count("\"cmd\":\"certify\""), 20);
    assert_eq!(count("\"cmd\":\"inject\""), 20);
    assert_eq!(count("transient:4"), 24);
    assert!(stream
        .iter()
        .enumerate()
        .all(|(i, r)| r.client == i % corpus::CLIENTS));
}

/// Metric names and units listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn pairs(list: &[Metric]) -> Vec<(String, String)> {
    list.iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    assert_eq!(listed("end_to_end"), pairs(&END_TO_END));
    assert_eq!(listed("per_layer"), pairs(&PER_LAYER));
}

/// Metric names and units of a result line, sorted.
fn reported(values: &[(&str, f64)]) -> Vec<(String, String)> {
    let line = result_line(true, 1, 0, values);
    let doc = Json::parse(&line).expect("result line is JSON");
    let mut got: Vec<(String, String)> = doc
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, v)| {
            let unit = v.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    got.sort();
    got
}

fn sorted(list: &[Metric]) -> Vec<(String, String)> {
    let mut v = pairs(list);
    v.sort();
    v
}

#[test]
fn every_metric_is_reported_with_its_unit() {
    let e2e = end_to_end(0.1, 1.0, &[1.0, 2.0], 10.0, Quality::default());
    assert_eq!(reported(&e2e), sorted(&END_TO_END));
    let layers = per_layer(&Recorder::new(), &[("serve.shed", 0.0)]);
    assert_eq!(layers.len(), PER_LAYER.len(), "each metric once");
    assert_eq!(reported(&layers), sorted(&PER_LAYER));
}

/// Every workload at its smallest size, untraced and traced: no op
/// fails, and every end-to-end value is positive. Takes minutes; run
/// with `--ignored`.
#[test]
#[ignore]
fn every_workload_runs_clean() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("every_workload");
    for workload in Workload::ALL {
        for traced in [false, true] {
            let _ = std::fs::remove_dir_all(&dir);
            let out = run(workload, 3, &Sizes::for_seconds(1), traced, &dir).expect("run");
            let name = workload.name();
            assert_eq!(out.tally.failed, 0, "{name} traced={traced}");
            assert!(out.tally.attempted > 0);
            let want = if traced {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            assert_eq!(
                reported(&out.values),
                sorted(want),
                "{name} traced={traced}"
            );
            if !traced {
                for (metric, value) in &out.values {
                    assert!(*value > 0.0, "{name}: {metric} is {value}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_timed_op_is_scaled_by_its_probes() {
    let mut speed = HostSpeed::new();
    let (out, wall_ms, at_ref_ms) = speed.timed(|| {
        std::thread::sleep(std::time::Duration::from_millis(20));
        7
    });
    assert_eq!(out, 7);
    assert!(wall_ms >= 20.0);
    assert_eq!(speed.probes(), 2);
    // The median of the two probes is their mean.
    let slowdown = speed.slowdown();
    assert!(slowdown > 0.0);
    assert!((at_ref_ms - wall_ms / slowdown).abs() < 1e-9 * wall_ms);
}

#[test]
fn a_wrong_payload_counts_as_failed() {
    let mut tally = Tally::default();
    let mut q = Quality::default();
    let right = "fault model (permanent): 1 faults (0 untestable), 1 activations, 1 minimal \
                 erroneous cases\nAlgorithm 1 (p = 1): q = 1 parity trees (1 LP solves, 1 \
                 rounding attempts)\n  tree 1: b1\nchecker: 1 gates, 1 hold FFs, area 2.0\n";
    judge(&mut tally, &mut q, OpKind::Check, Some(right), Some(right));
    assert_eq!((tally.attempted, tally.failed), (1, 0));
    assert_eq!(q.trees, 1);
    let wrong = right.replace("b1", "b2");
    judge(&mut tally, &mut q, OpKind::Check, Some(right), Some(&wrong));
    judge(&mut tally, &mut q, OpKind::Check, Some(right), None);
    assert_eq!((tally.attempted, tally.failed), (3, 2));

    // A table payload whose cover was tampered with is refuted by the
    // independent product-machine check.
    let s27 = corpus::table1_corpus()
        .into_iter()
        .find(|m| m.name == "s27")
        .expect("s27 in the corpus");
    let request = table1_request(&s27.kiss2);
    let payload = ced_serve::execute(&request, &Budget::unlimited(), &ParExec::new(1), None)
        .expect("table op")
        .payload;
    check_table(&request.kiss2, &request.options, &payload).expect("genuine payload");
    let doc = Json::parse(&payload).expect("JSON");
    let masks = doc
        .get("latencies")
        .and_then(Json::as_array)
        .expect("latencies")[0]
        .get("masks")
        .expect("masks")
        .render();
    let tampered = payload.replacen(&format!("\"masks\":{masks}"), "\"masks\":[1]", 1);
    assert_ne!(tampered, payload);
    assert!(check_table(&request.kiss2, &request.options, &tampered).is_err());
}
