//! The traced run: each op re-executed as the sequence of public layer
//! calls the op itself makes, with one span per call recorded from the
//! benchmark's side of each boundary.
//!
//! A replay returns the payload it rebuilt, and the caller asserts it
//! equal to the op's own payload, so a span is only ever reported for
//! work that produced the right answer. Spans carry the op id, stay in
//! memory, and are written out once at the end of the run.
//!
//! Two kinds of span exist. *Layer* spans (`fsm.parse`, `synth`,
//! `faults`, `cone`, `tensor`, `search`, `checker`, `cert`, `inject`,
//! `store.persist`) partition the op: their sum plus the glue between
//! them (`unattributed`) is the op's traced wall time. *Replay* spans
//! (`reduce`, `packed`, `lp`, `round`) re-run work the `search` layer
//! does internally and are reported beside it, never summed. One
//! [`REPLAY`] span wraps them with the glue between them, and is taken
//! off the op's traced wall time whole.

use ced_cert::CertifyOptions;
use ced_core::duplication::duplication_cost;
use ced_core::pipeline::{
    build_input_model, delta_seed, fault_list, machine_delta, minimize_parity_functions_stored,
    prepare_machine_stored, CircuitReport, LatencyResult, PipelineOptions, COVER_STAGE,
};
use ced_core::relax::build_relaxation_with_objective;
use ced_core::round::{round_cover_with, RoundingOptions};
use ced_core::search::{minimize_interruptible, minimize_parity_functions, SearchOutcome};
use ced_core::{report_to_json, synthesize_ced};
use ced_fsm::machine::Fsm;
use ced_logic::gate::CellLibrary;
use ced_lp::sparse::solve_budgeted_sparse;
use ced_par::ParExec;
use ced_runtime::{Budget, Json};
use ced_serve::{DeltaSummary, OpKind, OpRequest};
use ced_sim::cone::cone_keys;
use ced_sim::detect::{
    BuildControl, DetectOptions, DetectStats, DetectabilityTable, InputModel, Semantics,
};
use ced_sim::packed::SparseTables;
use ced_store::{Store, TENSOR_FRAG_STAGE};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

/// Layer spans: they partition an op's traced wall time.
pub const LAYERS: [&str; 10] = [
    "fsm.parse",
    "synth",
    "faults",
    "cone",
    "tensor",
    "search",
    "checker",
    "cert",
    "inject",
    "store.persist",
];

/// The span wrapping an op's replay of the search internals.
pub const REPLAY: &str = "replay";

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The op (request) this call belongs to.
    pub op: usize,
    /// Layer or replay name.
    pub name: &'static str,
    /// Start, in microseconds since the recorder was created.
    pub start_us: f64,
    /// End, in microseconds since the recorder was created.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span and counter sink for one traced run.
pub struct Recorder {
    origin: Instant,
    /// Every span, in call order.
    pub spans: Vec<Span>,
    /// Deterministic counters, summed over ops.
    pub counters: BTreeMap<&'static str, f64>,
    /// The op new spans are tagged with.
    pub op: usize,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            op: 0,
        }
    }

    /// Runs `f` as one span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_with(name, |_| f())
    }

    /// Runs `f`, which may record spans of its own, as one span named
    /// `name` around them.
    pub fn span_with<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let start = self.origin.elapsed().as_secs_f64() * 1e6;
        let out = f(self);
        let end = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            op: self.op,
            name,
            start_us: start,
            end_us: end,
        });
        out
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Summed duration (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .fold(0.0, |a, b| a + b)
    }

    /// Summed duration (ms) of op `op`'s layer spans.
    pub fn layer_ms_of(&self, op: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && LAYERS.contains(&s.name))
            .map(Span::ms)
            .sum()
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// The spans as a JSON document (`cedbench-trace/1`).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("schema".into(), Json::str("cedbench-trace/1")),
            (
                "spans".into(),
                Json::Array(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Object(vec![
                                ("op".into(), Json::UInt(s.op as u64)),
                                ("name".into(), Json::str(s.name)),
                                ("start_us".into(), Json::Float(s.start_us)),
                                ("end_us".into(), Json::Float(s.end_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// What a replay may do beyond rebuilding the payload.
#[derive(Clone, Copy)]
pub struct ReplayContext<'a> {
    /// Pool handed to the layers (as the op's caller would).
    pub pool: &'a ParExec,
    /// Store handed to the layers; must evolve in lockstep with the
    /// op's store for the spans to measure the same work.
    pub store: Option<&'a Store>,
    /// Also replay the search's internals (`reduce`, `packed`, `lp`,
    /// `round`) beside it.
    pub deep: bool,
}

/// The payload one replay rebuilt, plus the delta summary line of a
/// baseline-seeded check.
pub struct Replayed {
    /// Rebuilt payload.
    pub payload: String,
    /// `DeltaSummary::render_line` for baseline-seeded checks.
    pub delta: Option<String>,
}

/// Re-executes `request` layer by layer, recording spans and counters.
///
/// # Errors
///
/// A layer error, rendered.
pub fn replay(
    request: &OpRequest,
    cx: ReplayContext<'_>,
    rec: &mut Recorder,
) -> Result<Replayed, String> {
    let budget = Budget::unlimited();
    let fsm = rec
        .span("fsm.parse", || ced_fsm::kiss::parse(&request.kiss2))
        .map_err(|e| e.to_string())?;
    let plain = |payload| Replayed {
        payload,
        delta: None,
    };
    match request.kind {
        OpKind::Check => replay_check(&fsm, request, cx, &budget, rec),
        OpKind::Table => {
            let report = replay_pipeline(&fsm, request, cx, &budget, rec)?;
            Ok(plain(report_to_json(&report).render()))
        }
        OpKind::Certify => {
            let report = replay_pipeline(&fsm, request, cx, &budget, rec)?;
            let cert = rec
                .span("cert", || {
                    ced_cert::certify_report_stored(
                        &fsm,
                        &report,
                        &request.options,
                        &CertifyOptions {
                            seed: request.seed,
                            ..CertifyOptions::default()
                        },
                        &budget,
                        cx.pool,
                        cx.store,
                    )
                })
                .map_err(|e| e.to_string())?;
            Ok(plain(ced_cert::report::cert_report_json(&[cert]).render()))
        }
        OpKind::Inject => replay_inject(&fsm, request, cx, &budget, rec).map(plain),
    }
}

fn record_tensor(rec: &mut Recorder, stats: &DetectStats) {
    rec.count("tensor.activations", stats.activations as f64);
    rec.count("tensor.rows_raw", stats.rows_raw as f64);
    rec.count("tensor.rows", stats.rows as f64);
}

fn record_search(rec: &mut Recorder, outcome: &SearchOutcome) {
    rec.count("search.queries", outcome.feasibility_trace.len() as f64);
    rec.count(
        "search.feasible",
        outcome.feasibility_trace.iter().filter(|q| q.1).count() as f64,
    );
    rec.count("search.lp_solves", outcome.lp_solves as f64);
    rec.count("search.rounding_attempts", outcome.rounding_attempts as f64);
}

/// Frag-stage and all-stage store counters, for per-op deltas.
fn store_counts(store: Option<&Store>) -> [u64; 5] {
    let Some(store) = store else { return [0; 5] };
    let stats = store.stats();
    let mut out = [0u64; 5];
    for (stage, c) in &stats.stages {
        out[0] += c.hits;
        out[1] += c.misses;
        out[2] += c.puts;
        if stage == TENSOR_FRAG_STAGE {
            out[3] += c.hits;
            out[4] += c.puts;
        }
    }
    out
}

fn cover_hits(store: Option<&Store>) -> u64 {
    store.map_or(0, |s| {
        s.stats()
            .stages
            .iter()
            .filter(|(stage, _)| stage == COVER_STAGE)
            .map(|(_, c)| c.hits)
            .sum()
    })
}

/// `ced check` (optionally baseline-seeded), as in
/// `ced_serve::ops::check_text_with_baseline`.
fn replay_check(
    fsm: &Fsm,
    request: &OpRequest,
    cx: ReplayContext<'_>,
    budget: &Budget,
    rec: &mut Recorder,
) -> Result<Replayed, String> {
    let before = store_counts(cx.store);
    let baseline = match &request.baseline {
        Some(text) => Some(
            rec.span("fsm.parse", || ced_fsm::kiss::parse(text))
                .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let lib = CellLibrary::new();
    let options = &request.options;
    let (encoded, circuit) = rec
        .span("synth", || prepare_machine_stored(fsm, options, cx.store))
        .map_err(|e| e.to_string())?;
    rec.count("synth.gates", circuit.gate_count() as f64);
    let input_model =
        build_input_model(encoded.fsm(), encoded.encoding(), options.input_granularity);
    let faults = rec.span("faults", || fault_list(&circuit, options));
    rec.count("faults.count", faults.len() as f64);
    let detect_options = DetectOptions {
        latency: request.latency,
        semantics: options.semantics,
        input_model,
        fault_model: options.fault_model,
        ..DetectOptions::default()
    };

    let mut delta = None;
    let mut summary = None;
    if let Some(base) = &baseline {
        let (base_encoded, base_circuit) = rec
            .span("synth", || prepare_machine_stored(base, options, cx.store))
            .map_err(|e| e.to_string())?;
        let (seed, s) = rec.span("cone", || {
            let seed = delta_seed(
                &base_encoded,
                &base_circuit,
                &circuit,
                &detect_options,
                options.input_granularity,
            );
            let base_faults = fault_list(&base_circuit, options);
            let base_keys: HashSet<u64> =
                cone_keys(base_circuit.netlist(), &base_faults, options.fault_model)
                    .into_iter()
                    .collect();
            let new_keys = cone_keys(circuit.netlist(), &faults, options.fault_model);
            let s = DeltaSummary {
                delta: machine_delta(base, fsm),
                cones_total: new_keys.len(),
                cones_dirty: new_keys.iter().filter(|k| !base_keys.contains(k)).count(),
                changed_codes: seed.as_ref().map_or(0, |s| s.changed_codes.len()),
                seeded: seed.is_some(),
            };
            (seed, s)
        });
        rec.count("cone.dirty", s.cones_dirty as f64);
        rec.count("cone.total", s.cones_total as f64);
        summary = Some(s);
        delta = seed;
    }

    let (table, dstats) = rec
        .span("tensor", || {
            DetectabilityTable::build_many_controlled(
                &circuit,
                &faults,
                &detect_options,
                &[request.latency],
                BuildControl {
                    store: cx.store,
                    pool: Some(cx.pool),
                    delta,
                    ..BuildControl::new(budget)
                },
            )
        })
        .map_err(|e| e.to_string())?
        .pop()
        .expect("one latency requested");
    record_tensor(rec, &dstats);

    let hits_before = cover_hits(cx.store);
    let outcome = rec.span("search", || {
        minimize_parity_functions_stored(&table, &options.ced, cx.store)
    });
    let searched = cover_hits(cx.store) == hits_before;
    if searched {
        record_search(rec, &outcome);
        if cx.deep {
            replay_search_internals(&table, &outcome, options, rec);
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault model ({}): {} faults ({} untestable), {} activations, {} minimal erroneous cases",
        options.fault_model,
        dstats.faults,
        dstats.untestable_faults,
        dstats.activations,
        table.len()
    );
    let _ = writeln!(
        out,
        "Algorithm 1 (p = {}): q = {} parity trees ({} LP solves, {} rounding attempts)",
        request.latency, outcome.q, outcome.lp_solves, outcome.rounding_attempts
    );
    if !outcome.degradation.is_empty() {
        let _ = writeln!(out, "solved by {} after degradation:", outcome.method);
        for event in &outcome.degradation {
            let _ = writeln!(out, "  {event}");
        }
    }
    for (i, &mask) in outcome.cover.masks.iter().enumerate() {
        let taps: Vec<String> = (0..circuit.total_bits())
            .filter(|j| (mask >> j) & 1 == 1)
            .map(|j| format!("b{}", j + 1))
            .collect();
        let _ = writeln!(out, "  tree {}: {}", i + 1, taps.join(" ⊕ "));
    }
    let cost = rec.span("checker", || {
        synthesize_ced(&circuit, &outcome.cover, request.latency, &options.minimize).cost(&lib)
    });
    rec.count("checker.gates", cost.gates as f64);
    let _ = writeln!(
        out,
        "checker: {} gates, {} hold FFs, area {:.1}",
        cost.gates, cost.flip_flops, cost.area
    );
    record_store_delta(rec, before, store_counts(cx.store));
    Ok(Replayed {
        payload: out,
        delta: summary.map(|s| s.render_line()),
    })
}

fn record_store_delta(rec: &mut Recorder, before: [u64; 5], after: [u64; 5]) {
    let names = [
        "store.hits",
        "store.misses",
        "store.puts",
        "frag.hits",
        "frag.puts",
    ];
    for (k, name) in names.into_iter().enumerate() {
        rec.count(name, (after[k] - before[k]) as f64);
    }
}

/// The storeless pipeline behind `table` and `certify`, as in
/// `ced_core::pipeline::run_circuit_controlled`. The pipeline's
/// `search`-stage memo keys are private to it, so a store-backed op
/// cannot be replayed call for call; replays of table and certify ops
/// therefore run storeless, against storeless ops.
fn replay_pipeline(
    fsm: &Fsm,
    request: &OpRequest,
    cx: ReplayContext<'_>,
    budget: &Budget,
    rec: &mut Recorder,
) -> Result<CircuitReport, String> {
    assert!(
        cx.store.is_none(),
        "table and certify replays run storeless"
    );
    let lib = CellLibrary::new();
    let options: &PipelineOptions = &request.options;
    let latencies = &request.latencies;
    let (encoded, circuit) = rec
        .span("synth", || prepare_machine_stored(fsm, options, None))
        .map_err(|e| e.to_string())?;
    rec.count("synth.gates", circuit.gate_count() as f64);
    let input_model =
        build_input_model(encoded.fsm(), encoded.encoding(), options.input_granularity);
    let faults = rec.span("faults", || fault_list(&circuit, options));
    rec.count("faults.count", faults.len() as f64);
    let p_max = latencies.iter().copied().max().unwrap_or(1);
    let max_rows = if options.max_rows == 0 {
        2_000_000
    } else {
        options.max_rows
    };
    let tables = rec
        .span("tensor", || {
            DetectabilityTable::build_many_controlled(
                &circuit,
                &faults,
                &DetectOptions {
                    latency: p_max,
                    max_rows,
                    semantics: options.semantics,
                    input_model,
                    reduce: true,
                    fault_model: options.fault_model,
                },
                latencies,
                BuildControl {
                    pool: Some(cx.pool),
                    ..BuildControl::new(budget)
                },
            )
        })
        .map_err(|e| e.to_string())?;

    let mut stats = DetectStats::default();
    let mut results: Vec<LatencyResult> = Vec::new();
    let mut incumbent = None;
    for (i, &p) in latencies.iter().enumerate() {
        let (table, table_stats) = &tables[i];
        if p == p_max {
            stats = *table_stats;
        }
        let outcome = rec
            .span("search", || {
                minimize_interruptible(table, &options.ced, incumbent.as_ref(), budget)
            })
            .map_err(|e| e.to_string())?;
        record_search(rec, &outcome);
        if cx.deep {
            replay_search_internals(table, &outcome, options, rec);
        }
        incumbent = Some(outcome.cover.clone());
        let cost = rec.span("checker", || {
            synthesize_ced(&circuit, &outcome.cover, p, &options.minimize).cost(&lib)
        });
        rec.count("checker.gates", cost.gates as f64);
        results.push(LatencyResult {
            latency: p,
            erroneous_cases: table.len(),
            cover: outcome.cover,
            cost,
            lp_solves: outcome.lp_solves,
            rounding_attempts: outcome.rounding_attempts,
            method: outcome.method,
            degradation: outcome.degradation,
        });
    }
    record_tensor(rec, &stats);
    Ok(CircuitReport {
        name: circuit.name().to_string(),
        inputs: circuit.num_inputs(),
        state_bits: circuit.state_bits(),
        outputs: circuit.num_outputs(),
        original_gates: circuit.gate_count(),
        original_cost: circuit.sequential_area(&lib),
        detect_stats: stats,
        duplication: duplication_cost(&circuit, &lib),
        latencies: results,
    })
}

/// The `inject` op, as in `ced_serve::ops::inject_text`.
fn replay_inject(
    fsm: &Fsm,
    request: &OpRequest,
    cx: ReplayContext<'_>,
    budget: &Budget,
    rec: &mut Recorder,
) -> Result<String, String> {
    use ced_inject::{run_campaign_stored, CampaignOptions};
    let options = &request.options;
    let (_, circuit) = rec
        .span("synth", || prepare_machine_stored(fsm, options, cx.store))
        .map_err(|e| e.to_string())?;
    rec.count("synth.gates", circuit.gate_count() as f64);
    let faults = rec.span("faults", || fault_list(&circuit, options));
    rec.count("faults.count", faults.len() as f64);
    let (table, stats) = rec
        .span("tensor", || {
            DetectabilityTable::build_many_controlled(
                &circuit,
                &faults,
                &DetectOptions {
                    latency: request.latency,
                    semantics: Semantics::FaultyTrajectory,
                    input_model: InputModel::Exhaustive,
                    fault_model: options.fault_model,
                    ..DetectOptions::default()
                },
                &[request.latency],
                BuildControl {
                    store: cx.store,
                    pool: Some(cx.pool),
                    ..BuildControl::new(budget)
                },
            )
        })
        .map_err(|e| e.to_string())?
        .pop()
        .expect("one latency requested");
    record_tensor(rec, &stats);
    let outcome = rec.span("search", || minimize_parity_functions(&table, &options.ced));
    record_search(rec, &outcome);
    let ced = rec.span("checker", || {
        synthesize_ced(&circuit, &outcome.cover, request.latency, &options.minimize)
    });
    rec.count("checker.gates", ced.cost(&CellLibrary::new()).gates as f64);
    let report = rec
        .span("inject", || {
            run_campaign_stored(
                &circuit,
                &ced,
                &faults,
                &CampaignOptions {
                    steps: request.steps,
                    seed: request.seed ^ 0xCA3E,
                    checker_faults: request.checker_faults,
                    fault_model: options.fault_model,
                    ..CampaignOptions::default()
                },
                budget,
                cx.pool,
                cx.store,
            )
        })
        .map_err(|e| format!("{e:?}"))?;
    rec.count("inject.faults", report.machine.injected as f64);
    Ok(report.render())
}

/// Re-runs the search's internals beside it, inside one [`REPLAY`]
/// span: the dominance reduction and packing it starts with, then, at
/// every queried `q`, the first LP relaxation
/// (`relax::build_relaxation_with_objective` + `solve_budgeted_sparse`)
/// and one randomized rounding of its optimum.
fn replay_search_internals(
    table: &DetectabilityTable,
    outcome: &SearchOutcome,
    options: &PipelineOptions,
    rec: &mut Recorder,
) {
    rec.span_with(REPLAY, |rec| replay_internals(table, outcome, options, rec));
}

fn replay_internals(
    table: &DetectabilityTable,
    outcome: &SearchOutcome,
    options: &PipelineOptions,
    rec: &mut Recorder,
) {
    let ced = &options.ced;
    let reduced = rec.span("reduce", || {
        table.dominance_reduced().sorted_by_difficulty()
    });
    rec.count("reduce.rows", reduced.len() as f64);
    let sparse = rec.span("packed", || SparseTables::build(&reduced));
    rec.count("kernel.rows", sparse.reduction().kernel().len() as f64);
    if reduced.is_empty() {
        return;
    }
    let rows = first_lp_rows(&reduced, ced.lp_row_cap);
    let budget = Budget::unlimited();
    for (query, &(q, _)) in outcome.feasibility_trace.iter().enumerate() {
        let solved = rec.span("lp", || {
            let relax =
                build_relaxation_with_objective(&reduced, q, ced.form, &rows, ced.objective);
            solve_budgeted_sparse(&relax.lp, &budget).map(|sol| (relax, sol))
        });
        let Ok((relax, sol)) = solved else { continue };
        rec.count("lp.iterations", sol.iterations as f64);
        let betas = relax.fractional_betas(&sol.x);
        let rounded = rec.span("round", || {
            round_cover_with(
                &reduced,
                Some(&sparse),
                q,
                &betas,
                &RoundingOptions {
                    iterations: ced.iterations,
                    seed: ced
                        .seed
                        .wrapping_add((query as u64 + 1).wrapping_mul(0x9E37_79B9)),
                },
            )
        });
        match rounded {
            Ok(r) => {
                rec.count("round.successes", 1.0);
                rec.count("round.attempts", r.attempts as f64);
            }
            Err(_) => rec.count("round.attempts", ced.iterations as f64),
        }
    }
}

/// The rows the search's first LP of each query holds: every row up to
/// the cap, else the `cap` rows with the fewest detecting (bit, step)
/// opportunities.
fn first_lp_rows(table: &DetectabilityTable, cap: usize) -> Vec<usize> {
    if table.len() <= cap {
        return (0..table.len()).collect();
    }
    let mut scored: Vec<(usize, usize)> = table
        .rows()
        .iter()
        .enumerate()
        .map(|(i, r)| (r.steps.iter().map(|d| d.count_ones() as usize).sum(), i))
        .collect();
    scored.sort_unstable();
    scored.into_iter().take(cap).map(|(_, i)| i).collect()
}
