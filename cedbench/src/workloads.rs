//! The three workloads, each with an untraced run (end-to-end metrics)
//! and a traced run (per-layer metrics).
//!
//! The work of a run is set by the seed and by `--seconds` (see
//! [`Sizes::for_seconds`]), so counts and quality figures repeat
//! exactly for a seed and only times move between runs. (How often a
//! light `table1-batch` op repeats within a pass depends on its speed;
//! its results do not.)
//!
//! A shared virtual machine's speed drifts by tens of percent over
//! seconds to minutes. So each timed step runs between two probes of
//! the host's speed ([`HostSpeed`]) and is reported at reference speed,
//! ops that repeat report their mean, and `setup_s` is the median of
//! many set-ups spread over at least [`SETUP_SPAN_S`].
//!
//! The untraced `edit-loop` runs its chain into an in-memory store. On
//! a shared virtual disk, fsync throughput falls about 3× within a few
//! thousand fsyncs and takes minutes to recover, so an on-disk chain
//! (about 13 000 fsync'd artifacts) took 11 s in one run and 25 s a few
//! runs later. Its traced run keeps on-disk stores, so the `store.*`
//! layer metrics and the `edit.*` class times still price the disk.

use crate::corpus::{self, EditKind, StreamRequest, CLIENTS};
use crate::metrics::{median, quantile};
use crate::speed::HostSpeed;
use crate::trace::{replay, Recorder, ReplayContext, REPLAY};
use crate::verify::{self, check_table, quality, Quality, Tally};
use ced_par::ParExec;
use ced_runtime::{Budget, Json};
use ced_serve::proto::{parse_request, Request};
use ced_serve::{Client, OpKind, OpRequest, ServeOptions, Server};
use ced_store::Store;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run: at least [`SETUP_MIN_REPEATS`], and more until
/// [`SETUP_SPAN_S`] has passed; `setup_s` is their median.
const SETUP_MIN_REPEATS: usize = 3;

/// The least time set-up is repeated over, so a millisecond set-up is
/// timed hundreds of times.
pub const SETUP_SPAN_S: f64 = 1.0;

/// `ced gen --scale` of the `edit-loop` machine: gen10x.
const EDIT_SCALE: usize = 10;

/// Rounds of [`corpus::EDIT_PATTERN`] in the `edit-loop` chain: 16
/// edits.
const EDIT_ROUNDS: usize = 2;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One caller runs a `table` op (p = 1, 2, 3, storeless) on each of
    /// the 17 corpus machines, one machine at a time.
    Table1Batch,
    /// gen10x: a cold `check` (p = 2) into an empty store, then a seeded
    /// chain of edits, each re-checked against its predecessor.
    EditLoop,
    /// The in-process (storeless) daemon under two closed-loop clients.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table1Batch,
        Workload::EditLoop,
        Workload::ServeMix,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Batch => "table1-batch",
            Workload::EditLoop => "edit-loop",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Ops attempted and failed (including wrong outputs).
    pub tally: Tally,
    /// Metric values by name (every end-to-end or every per-layer one).
    pub values: Vec<(&'static str, f64)>,
    /// Sample counts and other context for the run's info line.
    pub notes: Vec<(String, Json)>,
    /// The traced run's spans, if any.
    pub trace: Option<Json>,
}

/// Threads for the output checks, which run outside the timed phase:
/// the host's parallelism.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pool width of the timed `table1-batch` and `edit-loop` ops (`ced
/// --jobs 1`). On a 2-core VM a second pool thread made ops slower and
/// less steady: `pma`'s `table` op took 500–530 ms at width 1 and
/// 560–750 ms at width 2, back to back.
const POOL_WIDTH: usize = 1;

/// How much work one run does.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Passes over the `table1-batch` corpus; each op's mean execution
    /// time is kept.
    pub passes: usize,
    /// Runs of the `edit-loop` chain, each into a fresh store; each
    /// op's mean execution time is kept.
    pub edit_chains: usize,
    /// Requests in the `serve-mix` stream.
    pub serve_requests: usize,
}

impl Sizes {
    /// The sizes a `--seconds` run uses on a 2-core host: one
    /// `table1-batch` pass (about 22 s) per 15 s and one `edit-loop`
    /// chain (a cold fill and 16 edits, about 8 s) per 10 s, at least
    /// one each, and 48 `serve-mix` requests per second.
    pub fn for_seconds(seconds: u64) -> Sizes {
        Sizes {
            passes: (seconds as usize / 15).max(1),
            edit_chains: (seconds as usize / 10).max(1),
            // At least 100, so that ten or more samples lie beyond p90.
            serve_requests: (48 * seconds as usize).max(100),
        }
    }
}

/// Runs `workload` once.
///
/// # Errors
///
/// Set-up failures (the run then reports nothing).
pub fn run(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    traced: bool,
    dir: &Path,
) -> Result<RunOutput, String> {
    match workload {
        Workload::Table1Batch => table1_batch(sizes, traced),
        Workload::EditLoop => edit_loop(seed, sizes, traced, dir),
        Workload::ServeMix => serve_mix(seed, sizes, traced),
    }
}

/// Runs `setup` at least [`SETUP_MIN_REPEATS`] times and until
/// [`SETUP_SPAN_S`] has passed, each between two probes of `speed`,
/// dropping each instance before the next (outside the timing); returns
/// the last one with the median set-up time at reference speed, in s.
fn repeated_setup<T>(
    speed: &mut HostSpeed,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let span = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPEATS || span.elapsed().as_secs_f64() < SETUP_SPAN_S {
        drop(last.take());
        let (instance, _, at_ref_ms) = speed.timed(&mut setup);
        last = Some(instance?);
        times.push(at_ref_ms / 1e3);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// `f`'s result and its wall time in ms.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms(start))
}

/// Runs `untraced` and `traced` back to back, the untraced one first
/// on even ops and second on odd ones, so neither gains from always
/// following the other (warm caches, a host stretch) in
/// `trace.overhead_ms`.
fn alternate<A, B>(op: usize, untraced: impl FnOnce() -> A, traced: impl FnOnce() -> B) -> (A, B) {
    if op.is_multiple_of(2) {
        let a = untraced();
        (a, traced())
    } else {
        let b = traced();
        (untraced(), b)
    }
}

/// The end-to-end values of an untraced run. `peak_rss_mb` is read
/// when the measured phase ends, before the output checks run.
pub fn end_to_end(
    setup_s: f64,
    batch_s: f64,
    op_ms: &[f64],
    rss_mb: f64,
    q: Quality,
) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", setup_s),
        ("batch_s", batch_s),
        ("op_p50_ms", median(op_ms)),
        ("op_p90_ms", quantile(op_ms, 0.9)),
        ("peak_rss_mb", rss_mb),
        ("parity_trees", q.trees as f64),
        ("checker_area", q.area),
    ]
}

/// Per-layer values from a recorder plus workload-specific extras;
/// every per-layer metric not given is reported as 0.
pub fn per_layer(rec: &Recorder, extras: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut values: Vec<(&'static str, f64)> = vec![
        ("fsm.parse_ms", rec.total_ms("fsm.parse")),
        ("synth.ms", rec.total_ms("synth")),
        ("faults.ms", rec.total_ms("faults")),
        ("cone.ms", rec.total_ms("cone")),
        ("tensor.ms", rec.total_ms("tensor")),
        ("reduce.ms", rec.total_ms("reduce")),
        ("packed.ms", rec.total_ms("packed")),
        ("search.ms", rec.total_ms("search")),
        ("lp.ms", rec.total_ms("lp")),
        ("round.ms", rec.total_ms("round")),
        ("checker.ms", rec.total_ms("checker")),
        ("cert.ms", rec.total_ms("cert")),
        ("inject.ms", rec.total_ms("inject")),
        ("store.persist_ms", rec.total_ms("store.persist")),
        (
            "search.feasible_ratio",
            ratio(
                rec.counter("search.feasible"),
                rec.counter("search.queries"),
            ),
        ),
        (
            "round.success_ratio",
            ratio(
                rec.counter("round.successes"),
                rec.counter("round.attempts"),
            ),
        ),
    ];
    for name in [
        "synth.gates",
        "faults.count",
        "cone.dirty",
        "cone.total",
        "tensor.activations",
        "tensor.rows_raw",
        "tensor.rows",
        "frag.hits",
        "frag.puts",
        "reduce.rows",
        "kernel.rows",
        "search.queries",
        "search.lp_solves",
        "search.rounding_attempts",
        "lp.iterations",
        "checker.gates",
        "store.hits",
        "store.misses",
        "store.puts",
        "inject.faults",
    ] {
        values.push((name, rec.counter(name)));
    }
    values.extend_from_slice(extras);
    for metric in crate::metrics::PER_LAYER {
        if !values.iter().any(|(n, _)| *n == metric.name) {
            values.push((metric.name, 0.0));
        }
    }
    values
}

/// Per-op reconciliation of a traced op: its traced wall time without
/// the [`REPLAY`] span that ran beside the search, and the part of that
/// not covered by layer spans.
struct Reconciled {
    op_ms: f64,
    unattributed_ms: f64,
    overhead_ms: f64,
}

fn reconcile(rec: &Recorder, op: usize, traced_wall_ms: f64, untraced_ms: f64) -> Reconciled {
    let beside: f64 = rec
        .spans
        .iter()
        .filter(|s| s.op == op && s.name == REPLAY)
        .map(|s| s.ms())
        .sum();
    let op_ms = traced_wall_ms - beside;
    Reconciled {
        op_ms,
        unattributed_ms: op_ms - rec.layer_ms_of(op),
        overhead_ms: op_ms - untraced_ms,
    }
}

#[derive(Default)]
struct Reconciliation {
    op_ms: f64,
    unattributed_ms: f64,
    overhead_ms: f64,
}

impl Reconciliation {
    fn add(&mut self, r: Reconciled) {
        self.op_ms += r.op_ms;
        self.unattributed_ms += r.unattributed_ms;
        self.overhead_ms += r.overhead_ms;
    }

    fn values(&self) -> [(&'static str, f64); 3] {
        [
            ("op.ms", self.op_ms),
            ("unattributed_ms", self.unattributed_ms),
            ("trace.overhead_ms", self.overhead_ms),
        ]
    }
}

fn note(name: &str, v: usize) -> (String, Json) {
    (name.to_string(), Json::UInt(v as u64))
}

/// A measured value for the info line, such as a raw wall time
/// beside the reference-speed metrics.
fn value_note(name: &str, v: f64) -> (String, Json) {
    (name.to_string(), Json::Float(v))
}

/// The run's host slowdown for the info line: the median over its
/// probes, by which its times were divided.
fn speed_note(speed: &HostSpeed) -> (String, Json) {
    (
        "host_slowdown".to_string(),
        Json::Object(vec![
            ("median".into(), Json::Float(speed.slowdown())),
            ("probes".into(), Json::UInt(speed.probes() as u64)),
        ]),
    )
}

// ---------------------------------------------------------------- table1-batch

/// Table-1 `table` requests (p = 1, 2, 3) over the corpus, with the
/// CLI's default rounding seed, as a user's `ced table` run has.
pub fn table1_requests() -> Vec<OpRequest> {
    corpus::table1_corpus()
        .iter()
        .map(|m| table1_request(&m.kiss2))
        .collect()
}

/// The `table` request (p = 1, 2, 3) `table1-batch` runs on one machine.
pub fn table1_request(kiss2: &str) -> OpRequest {
    let mut r = OpRequest::new(OpKind::Table, kiss2);
    r.latencies = vec![1, 2, 3];
    r
}

/// The least time a `table1-batch` op runs back to back in each pass,
/// up to [`OP_MAX_RUNS`] executions, so that the light machines' times
/// rest on several executions.
const OP_FLOOR_MS: f64 = 1000.0;

/// The most executions of one `table1-batch` op in a row.
const OP_MAX_RUNS: usize = 8;

/// Machine indices in pass `pass`'s order: every other pass runs the
/// corpus backwards, so each machine's executions sit at different
/// points of the run.
fn pass_order(n: usize, pass: usize) -> Vec<usize> {
    if pass.is_multiple_of(2) {
        (0..n).collect()
    } else {
        (0..n).rev().collect()
    }
}

/// The paper's experiment on its fixed corpus: the workload seed does
/// not enter it.
fn table1_batch(sizes: &Sizes, traced: bool) -> Result<RunOutput, String> {
    let mut speed = HostSpeed::new();
    let (requests, setup_s) = repeated_setup(&mut speed, || Ok(table1_requests()))?;
    let pool = ParExec::new(POOL_WIDTH);
    let budget = Budget::unlimited();
    let mut tally = Tally::default();

    if traced {
        let mut rec = Recorder::new();
        let mut recon = Reconciliation::default();
        for (i, request) in requests.iter().enumerate() {
            rec.op = i;
            let cx = ReplayContext {
                pool: &pool,
                store: None,
                deep: true,
            };
            let ((op, untraced_ms), (replayed, traced_ms)) = alternate(
                i,
                || timed(|| ced_serve::execute(request, &budget, &pool, None)),
                || timed(|| replay(request, cx, &mut rec)),
            );
            recon.add(reconcile(&rec, i, traced_ms, untraced_ms));
            let ok = match (op, replayed) {
                (Ok(op), Ok(r)) => op.payload == r.payload,
                _ => false,
            };
            tally.record(ok);
        }
        let values = per_layer(&rec, &recon.values());
        return Ok(RunOutput {
            tally,
            values,
            notes: vec![note("ops", requests.len())],
            trace: Some(rec.to_json()),
        });
    }

    // In each pass, each machine's op runs back to back until
    // [`OP_FLOOR_MS`] has passed (at least once, at most
    // [`OP_MAX_RUNS`] times), between two probes.
    // A machine's time is the mean of its executions at reference
    // speed; the batch is the sum of those means, one corpus pass.
    let n = requests.len();
    let passes = sizes.passes.max(1);
    let mut at_ref_ms = vec![0.0; n];
    let mut wall_s = 0.0;
    let mut payloads: Vec<Vec<Option<String>>> = vec![Vec::new(); n];
    for pass in 0..passes {
        for i in pass_order(n, pass) {
            let (outs, wall_ms, group_ms) = speed.timed(|| {
                let start = Instant::now();
                let mut outs = Vec::new();
                while outs.is_empty() || (ms(start) < OP_FLOOR_MS && outs.len() < OP_MAX_RUNS) {
                    let out = ced_serve::execute(&requests[i], &budget, &pool, None);
                    outs.push(out.ok().map(|o| o.payload));
                }
                outs
            });
            at_ref_ms[i] += group_ms;
            wall_s += wall_ms / 1e3;
            payloads[i].extend(outs);
        }
    }
    let op_ms: Vec<f64> = at_ref_ms
        .iter()
        .zip(&payloads)
        .map(|(ms, runs)| ms / runs.len() as f64)
        .collect();
    let rss_mb = speed.program_peak_rss_mb();
    let batch_s = op_ms.iter().sum::<f64>() / 1e3;

    // Each machine's first payload is re-proved (on every core); every
    // later execution must repeat it byte for byte.
    let machines: Vec<usize> = (0..n).collect();
    let checks = verify::par_map(&machines, nproc(), |&i| {
        let p = payloads[i][0]
            .as_deref()
            .ok_or_else(|| "the op failed".to_string())?;
        check_table(&requests[i].kiss2, &requests[i].options, p)?;
        quality(OpKind::Table, p)
    });
    let mut q = Quality::default();
    for (runs, check) in payloads.iter().zip(checks) {
        let ok = match check {
            Ok(pq) => {
                q.add(pq);
                true
            }
            Err(e) => {
                eprintln!("table1-batch: wrong output: {e}");
                false
            }
        };
        tally.record(ok);
        for later in &runs[1..] {
            tally.record(ok && later == &runs[0]);
        }
    }
    Ok(RunOutput {
        tally,
        values: end_to_end(setup_s, batch_s, &op_ms, rss_mb, q),
        notes: vec![
            note("machines", n),
            note("passes", passes),
            note("executions", payloads.iter().map(Vec::len).sum()),
            value_note("wall_s", wall_s),
            speed_note(&speed),
        ],
        trace: None,
    })
}

// ---------------------------------------------------------------- edit-loop

/// One op of an edit-loop chain.
pub struct EditOp {
    /// The op's class: cold fill or edit kind.
    pub class: &'static str,
    /// The `check` request (baseline = previous revision for edits).
    pub request: OpRequest,
}

/// Latency bound of every edit-loop check.
const EDIT_LATENCY: usize = 2;

/// The edit-loop ops: a cold check of the base machine, then each edit
/// of its seeded chain re-checked with the previous revision as its
/// baseline. The machine is fixed (`ced gen --scale <scale>`) and the
/// rounding seed is the CLI's default; the workload seed picks the edits.
pub fn edit_ops(seed: u64, rounds: usize) -> Result<Vec<EditOp>, String> {
    let base = corpus::gen_scaled(EDIT_SCALE, corpus::GEN10X_SEED);
    let chain = corpus::plan_chain(&base, seed, rounds)?;
    let check = |text: &str, baseline: Option<&str>| {
        let mut r = OpRequest::new(OpKind::Check, text);
        r.latency = EDIT_LATENCY;
        r.baseline = baseline.map(str::to_string);
        r
    };
    let mut ops = vec![EditOp {
        class: "cold",
        request: check(&chain.revisions[0], None),
    }];
    for (j, kind) in chain.kinds.iter().enumerate() {
        ops.push(EditOp {
            class: kind.name(),
            request: check(&chain.revisions[j + 1], Some(&chain.revisions[j])),
        });
    }
    Ok(ops)
}

fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

/// Bytes and files under `dir`, recursively.
fn disk_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                let (b, f) = disk_usage(&path);
                bytes += b;
                files += f;
            } else if let Ok(meta) = e.metadata() {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    (bytes, files)
}

struct EditSetup {
    ops: Vec<EditOp>,
    /// The empty in-memory store the untraced chain runs into.
    store: Store,
}

struct EmptyStore {
    dir: PathBuf,
    store: Store,
    open_ms: f64,
}

/// Opens an empty store at `dir`, removing what was there.
fn open_empty(dir: &Path) -> Result<EmptyStore, String> {
    let dir = fresh_dir(dir)?;
    let (store, open_ms) = timed(|| Store::open(&dir));
    Ok(EmptyStore {
        store: store.map_err(|e| e.to_string())?,
        dir,
        open_ms,
    })
}

/// Plans the chain and opens an empty in-memory store.
fn edit_setup(seed: u64) -> Result<EditSetup, String> {
    Ok(EditSetup {
        ops: edit_ops(seed, EDIT_ROUNDS)?,
        store: Store::in_memory(),
    })
}

/// Runs one check op into `store` as the CLI does (execute, then
/// persist the index); returns the payload and delta line, and the
/// op's wall time.
fn stored_check(
    request: &OpRequest,
    pool: &ParExec,
    store: &Store,
) -> (Option<(String, Option<String>)>, f64) {
    let start = Instant::now();
    let out = ced_serve::execute(request, &Budget::unlimited(), pool, Some(store));
    let persisted = store.persist().is_ok();
    let wall = ms(start);
    let out = out.ok().filter(|_| persisted).map(|o| (o.payload, o.delta));
    (out, wall)
}

fn edit_loop(seed: u64, sizes: &Sizes, traced: bool, dir: &Path) -> Result<RunOutput, String> {
    let mut speed = HostSpeed::new();
    let (setup, setup_s) = repeated_setup(&mut speed, || edit_setup(seed))?;
    let pool = ParExec::new(POOL_WIDTH);
    let mut tally = Tally::default();

    if traced {
        // On-disk stores, so the store layers price the disk. A second
        // store evolves in lockstep with the first: each op runs into
        // store A, its layer-by-layer replay into store B.
        let a = open_empty(&dir.join("store"))?;
        let b = open_empty(&dir.join("replay-store"))?;
        let mut rec = Recorder::new();
        let mut recon = Reconciliation::default();
        let mut by_class: Vec<(&str, f64)> = Vec::new();
        let mut overhead_ms = 0.0;
        for (i, op) in setup.ops.iter().enumerate() {
            rec.op = i;
            let cx = ReplayContext {
                pool: &pool,
                store: Some(&b.store),
                deep: false,
            };
            let ((out, untraced_ms), ((replayed, persisted), traced_ms)) = alternate(
                i,
                || stored_check(&op.request, &pool, &a.store),
                || {
                    timed(|| {
                        let replayed = replay(&op.request, cx, &mut rec);
                        let persisted = rec.span("store.persist", || b.store.persist().is_ok());
                        (replayed, persisted)
                    })
                },
            );
            by_class.push((op.class, untraced_ms));
            if op.class == "cold" {
                let (storeless, storeless_ms) =
                    timed(|| ced_serve::execute(&op.request, &Budget::unlimited(), &pool, None));
                overhead_ms += untraced_ms - storeless_ms;
                tally
                    .record(storeless.ok().map(|o| o.payload) == out.as_ref().map(|o| o.0.clone()));
            }
            recon.add(reconcile(&rec, i, traced_ms, untraced_ms));
            let ok = match (out, replayed) {
                (Some((payload, delta)), Ok(r)) => {
                    persisted && payload == r.payload && delta == r.delta
                }
                _ => false,
            };
            tally.record(ok);
        }
        let class_median = |class: &str| {
            let v: Vec<f64> = by_class
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|(_, t)| *t)
                .collect();
            median(&v)
        };
        let (disk_bytes, files) = disk_usage(&a.dir);
        let mut extras = recon.values().to_vec();
        extras.extend([
            ("edit.cold_ms", class_median("cold")),
            ("edit.dc_ms", class_median(EditKind::DcRefine.name())),
            ("edit.flip_ms", class_median(EditKind::Flip.name())),
            ("store.open_ms", a.open_ms),
            ("store.overhead_ms", overhead_ms),
            ("store.payload_bytes", a.store.stats().bytes as f64),
            ("store.disk_bytes", disk_bytes as f64),
            ("store.files", files as f64),
        ]);
        return Ok(RunOutput {
            tally,
            values: per_layer(&rec, &extras),
            notes: vec![note("ops", setup.ops.len())],
            trace: Some(rec.to_json()),
        });
    }

    // The chain runs `sizes.edit_chains` times, each into a fresh empty
    // store; each op's time is its mean at reference speed over the
    // chains, and the batch is their sum, the mean chain.
    let n = setup.ops.len();
    let chains = sizes.edit_chains.max(1);
    let mut op_ms = vec![0.0; n];
    let mut wall_s = 0.0;
    let mut payloads: Vec<Vec<Option<String>>> = vec![Vec::new(); n];
    let mut store = Some(setup.store);
    for _ in 0..chains {
        let store = store.take().unwrap_or_else(Store::in_memory);
        for (i, op) in setup.ops.iter().enumerate() {
            let ((out, _), wall_ms, at_ref_ms) =
                speed.timed(|| stored_check(&op.request, &pool, &store));
            op_ms[i] += at_ref_ms / chains as f64;
            wall_s += wall_ms / 1e3;
            payloads[i].push(out.map(|o| o.0));
        }
    }
    let rss_mb = speed.program_peak_rss_mb();
    let batch_s = op_ms.iter().sum::<f64>() / 1e3;

    // The first chain's payloads are judged against the references;
    // every later chain must repeat them byte for byte.
    let requests: Vec<OpRequest> = setup.ops.iter().map(|op| op.request.clone()).collect();
    let mut q = Quality::default();
    for (reference, runs) in verify::references(&requests, nproc()).iter().zip(&payloads) {
        let before = tally.failed;
        verify::judge(
            &mut tally,
            &mut q,
            OpKind::Check,
            reference.as_deref().ok(),
            runs[0].as_deref(),
        );
        let ok = tally.failed == before;
        for later in &runs[1..] {
            tally.record(ok && later == &runs[0]);
        }
    }
    Ok(RunOutput {
        tally,
        values: end_to_end(setup_s, batch_s, &op_ms, rss_mb, q),
        notes: vec![
            note("ops", n),
            note("chains", chains),
            value_note("wall_s", wall_s),
            speed_note(&speed),
        ],
        trace: None,
    })
}

// ---------------------------------------------------------------- serve-mix

/// The op a stream line asks for, as the daemon parses it.
fn stream_op(line: &str) -> Result<OpRequest, String> {
    match parse_request(line).map_err(|(_, e)| e)? {
        Request::Op { op, .. } => Ok(*op),
        _ => Err("stream line is not an analysis op".to_string()),
    }
}

/// Requests per `serve-mix` segment (about a second of work).
const SEGMENT_REQUESTS: usize = 120;

struct ServeSetup {
    stream: Vec<StreamRequest>,
    server: Option<Server>,
}

impl Drop for ServeSetup {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
            server.wait();
        }
    }
}

fn serve_setup(seed: u64, sizes: &Sizes) -> Result<ServeSetup, String> {
    let stream = corpus::serve_stream(seed, sizes.serve_requests);
    let server =
        Server::start(ServeOptions::default()).map_err(|e| format!("daemon start: {e}"))?;
    Ok(ServeSetup {
        stream,
        server: Some(server),
    })
}

/// One client response.
struct Response {
    /// Latency as the client saw it, in ms.
    latency_ms: f64,
    /// The same at reference speed (scaled like its segment).
    at_ref_ms: f64,
    /// The payload, or the error.
    result: Result<String, String>,
}

/// The stream's responses, in stream order, and its wall time and time
/// at reference speed, in s.
struct Driven {
    responses: Vec<Option<Response>>,
    wall_s: f64,
    at_ref_s: f64,
}

/// Drives the stream through the daemon with [`CLIENTS`] closed-loop
/// clients. The requests run concurrently, so no probe can sit between
/// two of them: the stream goes in segments of [`SEGMENT_REQUESTS`],
/// each between two probes of `speed`, and each segment's latencies
/// are scaled by its own slowdown.
fn drive(setup: &ServeSetup, speed: &mut HostSpeed) -> Result<Driven, String> {
    let addr = setup.server.as_ref().expect("daemon running").addr();
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("client: {e}"))?;
    let n = setup.stream.len();
    let mut driven = Driven {
        responses: (0..n).map(|_| None).collect(),
        wall_s: 0.0,
        at_ref_s: 0.0,
    };
    for first in (0..n).step_by(SEGMENT_REQUESTS) {
        let segment = first..(first + SEGMENT_REQUESTS).min(n);
        let (got, wall_ms, at_ref_ms) =
            speed.timed(|| drive_segment(&setup.stream, segment, &mut clients));
        let scale = at_ref_ms / wall_ms;
        for (i, latency_ms, result) in got? {
            driven.responses[i] = Some(Response {
                latency_ms,
                at_ref_ms: latency_ms * scale,
                result,
            });
        }
        driven.wall_s += wall_ms / 1e3;
        driven.at_ref_s += at_ref_ms / 1e3;
    }
    Ok(driven)
}

/// A request's stream index, latency in ms, and payload or error.
type Answer = (usize, f64, Result<String, String>);

/// One segment of the stream, each client on its own thread sending
/// its requests of the segment in order; returns every answer.
fn drive_segment(
    stream: &[StreamRequest],
    segment: std::ops::Range<usize>,
    clients: &mut [Client],
) -> Result<Vec<Answer>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let segment = segment.clone();
                scope.spawn(move || -> Result<Vec<_>, String> {
                    let mut out = Vec::new();
                    for i in segment.filter(|&i| stream[i].client == c) {
                        let doc = Json::parse(&stream[i].line).map_err(|e| e.to_string())?;
                        let t = Instant::now();
                        let response = client.request(&doc);
                        let latency = ms(t);
                        let result = match response {
                            Ok(resp) => match resp.get("status").and_then(Json::as_str) {
                                Some("ok") => resp
                                    .get("payload")
                                    .and_then(Json::as_str)
                                    .map(str::to_string)
                                    .ok_or_else(|| "response without payload".to_string()),
                                _ => Err(resp.render()),
                            },
                            Err(e) => Err(e.to_string()),
                        };
                        out.push((i, latency, result));
                    }
                    Ok(out)
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(
                h.join()
                    .expect("client thread panicked")
                    .map_err(|e| format!("client: {e}"))?,
            );
        }
        Ok(all)
    })
}

fn serve_mix(seed: u64, sizes: &Sizes, traced: bool) -> Result<RunOutput, String> {
    let mut speed = HostSpeed::new();
    let (setup, setup_s) = repeated_setup(&mut speed, || serve_setup(seed, sizes))?;
    let ops: Vec<OpRequest> = setup
        .stream
        .iter()
        .map(|r| stream_op(&r.line))
        .collect::<Result<_, _>>()?;
    let driven = drive(&setup, &mut speed)?;
    let rss_mb = speed.program_peak_rss_mb();
    drop(setup);
    let responses = &driven.responses;
    let mut tally = Tally::default();
    let payload =
        |i: usize| -> Option<&str> { responses[i].as_ref().and_then(|r| r.result.as_deref().ok()) };

    if traced {
        // Each request again in process, serially and storeless like
        // the daemon — its untraced execution time — then replayed
        // layer by layer.
        let pool = ParExec::new(1);
        let mut rec = Recorder::new();
        let mut recon = Reconciliation::default();
        let mut exec_ms = 0.0;
        for (i, op) in ops.iter().enumerate() {
            rec.op = i;
            let cx = ReplayContext {
                pool: &pool,
                store: None,
                deep: false,
            };
            let ((reference, untraced_ms), (replayed, traced_ms)) = alternate(
                i,
                || timed(|| verify::reference(op)),
                || timed(|| replay(op, cx, &mut rec)),
            );
            exec_ms += untraced_ms;
            recon.add(reconcile(&rec, i, traced_ms, untraced_ms));
            let ok = match (reference, replayed) {
                (Ok(r), Ok(t)) => r == t.payload && payload(i) == Some(r.as_str()),
                _ => false,
            };
            tally.record(ok);
        }
        let client_ms: f64 = responses.iter().flatten().map(|r| r.latency_ms).sum();
        // Shed requests come back as typed `overloaded` errors.
        let shed = responses
            .iter()
            .flatten()
            .filter(|r| {
                r.result
                    .as_ref()
                    .is_err_and(|e| e.contains("\"overloaded\""))
            })
            .count();
        let mut extras = recon.values().to_vec();
        extras.extend([
            ("serve.exec_ms", exec_ms),
            ("serve.wire_ms", client_ms - exec_ms),
            ("serve.shed", shed as f64),
        ]);
        return Ok(RunOutput {
            tally,
            values: per_layer(&rec, &extras),
            notes: vec![note("requests", ops.len())],
            trace: Some(rec.to_json()),
        });
    }

    let mut q = Quality::default();
    let mut latencies = Vec::with_capacity(ops.len());
    for (i, reference) in verify::references(&ops, nproc()).iter().enumerate() {
        if let Some(r) = &responses[i] {
            latencies.push(r.at_ref_ms);
        }
        verify::judge(
            &mut tally,
            &mut q,
            ops[i].kind,
            reference.as_deref().ok(),
            payload(i),
        );
    }
    Ok(RunOutput {
        tally,
        values: end_to_end(setup_s, driven.at_ref_s, &latencies, rss_mb, q),
        notes: vec![
            note("requests", ops.len()),
            value_note("wall_s", driven.wall_s),
            speed_note(&speed),
        ],
        trace: None,
    })
}
