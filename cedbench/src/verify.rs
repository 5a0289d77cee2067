//! Output checks, all run outside the timed phase.
//!
//! * `edit-loop` and `serve-mix` payloads must be byte-identical to a
//!   storeless, serial, from-scratch `ops::execute` of the same request.
//! * `table1-batch` covers are re-proved by the independent
//!   product-machine BFS of `ced_cert::soundness::verify_solution`, and
//!   every `q` must be at most the duplication baseline's.
//!
//! Every mismatch counts as a failed op.

use ced_core::pipeline::{build_input_model, fault_list, prepare_machine, PipelineOptions};
use ced_par::ParExec;
use ced_runtime::{Budget, Json};
use ced_serve::{OpKind, OpRequest};
use std::collections::HashMap;

/// Ops attempted and ops failed (error, refusal or wrong output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused, or returned a wrong payload.
    pub failed: u64,
}

impl Tally {
    /// Records one op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The storeless, serial, from-scratch reference payload of `request`.
///
/// # Errors
///
/// The op's own error, rendered.
pub fn reference(request: &OpRequest) -> Result<String, String> {
    let mut request = request.clone();
    request.baseline_fp = None;
    ced_serve::execute(&request, &Budget::unlimited(), &ParExec::new(1), None)
        .map(|out| out.payload)
        .map_err(|e| e.to_string())
}

/// `f` over `items` on `threads` threads; order matches `items`.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let out = f(item);
                *slots[i].lock().expect("result slot lock") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot lock")
                .expect("every item was mapped")
        })
        .collect()
}

/// References for many requests, computed on `threads` threads (each
/// reference itself stays serial). Equal requests (equal `Debug`
/// renderings, which list every field) share one reference. Order
/// matches `requests`.
pub fn references(requests: &[OpRequest], threads: usize) -> Vec<Result<String, String>> {
    let mut distinct: Vec<&OpRequest> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let slot_of: Vec<usize> = requests
        .iter()
        .map(|r| {
            *index.entry(format!("{r:?}")).or_insert_with(|| {
                distinct.push(r);
                distinct.len() - 1
            })
        })
        .collect();
    let results = par_map(&distinct, threads, |r| reference(r));
    slot_of.into_iter().map(|k| results[k].clone()).collect()
}

/// Judges one op against its reference: the payload must be present,
/// byte-identical to the reference and readable; its quality numbers
/// are then added to `q`.
pub fn judge(
    tally: &mut Tally,
    q: &mut Quality,
    kind: OpKind,
    reference: Option<&str>,
    payload: Option<&str>,
) {
    let ok = match (reference, payload) {
        (Some(r), Some(p)) if r == p => quality(kind, p).map(|pq| q.add(pq)).is_ok(),
        _ => false,
    };
    tally.record(ok);
}

/// Σ q and Σ checker area over the results in one payload (`check`
/// text, `table` or `certify` JSON; `inject` reports neither).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Parity trees, summed over every result.
    pub trees: u64,
    /// Checker area, summed over every result that reports one.
    pub area: f64,
}

impl Quality {
    /// Adds another payload's totals.
    pub fn add(&mut self, other: Quality) {
        self.trees += other.trees;
        self.area += other.area;
    }
}

/// Reads the quality numbers out of a payload.
///
/// # Errors
///
/// When the payload does not have its op's shape.
pub fn quality(kind: OpKind, payload: &str) -> Result<Quality, String> {
    match kind {
        OpKind::Check => {
            let q = field_after(payload, "): q = ")?;
            let area = field_after(payload, ", area ")?;
            Ok(Quality {
                trees: q.parse().map_err(|_| "check payload: bad q".to_string())?,
                area: area
                    .parse()
                    .map_err(|_| "check payload: bad area".to_string())?,
            })
        }
        OpKind::Table => {
            let doc = Json::parse(payload).map_err(|e| e.to_string())?;
            let mut out = Quality::default();
            for l in latencies(&doc)? {
                out.trees += masks(l)?.len() as u64;
                out.area += number(l.get("cost").and_then(|c| c.get("area")))?;
            }
            Ok(out)
        }
        OpKind::Certify => {
            let doc = Json::parse(payload).map_err(|e| e.to_string())?;
            let mut out = Quality::default();
            for m in array(doc.get("machines"))? {
                for l in array(m.get("latencies"))? {
                    out.trees += l
                        .get("q")
                        .and_then(Json::as_u64)
                        .ok_or("certify payload: missing q")?;
                }
            }
            Ok(out)
        }
        OpKind::Inject => Ok(Quality::default()),
    }
}

fn field_after<'a>(text: &'a str, marker: &str) -> Result<&'a str, String> {
    let start = text
        .find(marker)
        .ok_or_else(|| format!("payload lacks `{marker}`"))?
        + marker.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    Ok(&rest[..end])
}

fn array(v: Option<&Json>) -> Result<&[Json], String> {
    v.and_then(Json::as_array)
        .ok_or_else(|| "payload: expected an array".to_string())
}

fn number(v: Option<&Json>) -> Result<f64, String> {
    match v {
        Some(Json::Float(f)) => Ok(*f),
        Some(Json::UInt(u)) => Ok(*u as f64),
        Some(Json::Int(i)) => Ok(*i as f64),
        _ => Err("payload: expected a number".to_string()),
    }
}

fn latencies(doc: &Json) -> Result<&[Json], String> {
    array(doc.get("latencies"))
}

fn masks(l: &Json) -> Result<Vec<u64>, String> {
    array(l.get("masks"))?
        .iter()
        .map(|m| m.as_u64().ok_or_else(|| "payload: bad mask".to_string()))
        .collect()
}

/// Checks one `table` payload against its machine: every `q` at most
/// the duplication baseline's, and every cover re-proved by the
/// product-machine BFS.
///
/// # Errors
///
/// What was wrong.
pub fn check_table(kiss2: &str, options: &PipelineOptions, payload: &str) -> Result<(), String> {
    let doc = Json::parse(payload).map_err(|e| e.to_string())?;
    let duplication = doc
        .get("duplication")
        .and_then(|d| d.get("parity_functions"))
        .and_then(Json::as_u64)
        .ok_or("table payload: missing duplication baseline")?;
    let fsm = ced_fsm::kiss::parse(kiss2).map_err(|e| e.to_string())?;
    let (encoded, circuit) = prepare_machine(&fsm, options).map_err(|e| e.to_string())?;
    if duplication != circuit.total_bits() as u64 {
        return Err("duplication baseline does not match the circuit".to_string());
    }
    let input_model =
        build_input_model(encoded.fsm(), encoded.encoding(), options.input_granularity);
    let faults = fault_list(&circuit, options);
    for l in latencies(&doc)? {
        let latency = l
            .get("latency")
            .and_then(Json::as_usize)
            .ok_or("table payload: missing latency")?;
        let masks = masks(l)?;
        if masks.len() as u64 > duplication {
            return Err(format!(
                "p = {latency}: q = {} exceeds duplication's {duplication}",
                masks.len()
            ));
        }
        let verdict = ced_cert::soundness::verify_solution(
            &circuit,
            &faults,
            options.fault_model,
            &input_model,
            options.semantics,
            &masks,
            latency,
            &Budget::unlimited(),
        )
        .map_err(|e| e.to_string())?;
        if !verdict.is_certified() {
            return Err(format!("p = {latency}: cover refuted: {verdict:?}"));
        }
    }
    Ok(())
}
