//! Metric names and units, summary statistics, and the result line.

use ced_runtime::Json;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: [Metric; 7] = [
    m("setup_s", "s"),
    m("batch_s", "s"),
    m("op_p50_ms", "ms"),
    m("op_p90_ms", "ms"),
    m("peak_rss_mb", "MB"),
    m("parity_trees", "count"),
    m("checker_area", "area"),
];

/// Per-layer metrics: every traced run reports all of them (0 where a
/// workload does not exercise the layer).
pub const PER_LAYER: [Metric; 50] = [
    m("fsm.parse_ms", "ms"),
    m("synth.ms", "ms"),
    m("synth.gates", "count"),
    m("faults.ms", "ms"),
    m("faults.count", "count"),
    m("cone.ms", "ms"),
    m("cone.dirty", "count"),
    m("cone.total", "count"),
    m("tensor.ms", "ms"),
    m("tensor.activations", "count"),
    m("tensor.rows_raw", "count"),
    m("tensor.rows", "count"),
    m("frag.hits", "count"),
    m("frag.puts", "count"),
    m("reduce.ms", "ms"),
    m("reduce.rows", "count"),
    m("packed.ms", "ms"),
    m("kernel.rows", "count"),
    m("search.ms", "ms"),
    m("search.queries", "count"),
    m("search.lp_solves", "count"),
    m("search.rounding_attempts", "count"),
    m("search.feasible_ratio", "ratio"),
    m("lp.ms", "ms"),
    m("lp.iterations", "count"),
    m("round.ms", "ms"),
    m("round.success_ratio", "ratio"),
    m("checker.ms", "ms"),
    m("checker.gates", "count"),
    m("store.open_ms", "ms"),
    m("store.persist_ms", "ms"),
    m("store.hits", "count"),
    m("store.misses", "count"),
    m("store.puts", "count"),
    m("store.payload_bytes", "bytes"),
    m("store.disk_bytes", "bytes"),
    m("store.files", "count"),
    m("store.overhead_ms", "ms"),
    m("cert.ms", "ms"),
    m("inject.ms", "ms"),
    m("inject.faults", "count"),
    m("serve.exec_ms", "ms"),
    m("serve.wire_ms", "ms"),
    m("serve.shed", "count"),
    m("edit.cold_ms", "ms"),
    m("edit.dc_ms", "ms"),
    m("edit.flip_ms", "ms"),
    m("op.ms", "ms"),
    m("unattributed_ms", "ms"),
    m("trace.overhead_ms", "ms"),
];

/// Looks a metric up by name in either list.
fn find(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .copied()
        .find(|m| m.name == name)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q` in `[0, 1]`; 0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process, in MB (`VmHWM`; 0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's last output line.
///
/// # Panics
///
/// When `values` names a metric outside both lists — a bug in a
/// workload runner.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(&str, f64)]) -> String {
    let metrics = values
        .iter()
        .map(|&(name, value)| {
            let metric = find(name).unwrap_or_else(|| panic!("unlisted metric {name}"));
            (
                name.to_string(),
                Json::Object(vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::str(metric.unit)),
                ]),
            )
        })
        .collect();
    Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(attempted)),
        ("failed".into(), Json::UInt(failed)),
        ("metrics".into(), Json::Object(metrics)),
    ])
    .render()
}
