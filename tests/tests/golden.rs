//! Golden pins: option renderings, fingerprints, store keys and tensor
//! bytes, recorded once and asserted verbatim.
//!
//! Store keys, suite fingerprints, checkpoints and fleet manifests all
//! hash `format!("{options:?}")` and the tensor bytes, so a refactor
//! that moves any of these values silently cold-starts every existing
//! store and invalidates every checkpoint. These tests fail on the
//! first moved byte. Update a constant only for a deliberate,
//! documented key change.

use ced_core::pipeline::{
    build_input_model, fault_list, minimize_parity_functions_stored, prepare_machine,
    run_circuit_controlled, PipelineControl, PipelineOptions, COVER_STAGE,
};
use ced_core::{suite_fingerprint, CedOptions, SuiteOptions};
use ced_fsm::generator::{generate, scaled_workload};
use ced_fsm::machine::Fsm;
use ced_fsm::suite as bench;
use ced_logic::gate::CellLibrary;
use ced_runtime::{fnv1a64, Budget, ByteWriter};
use ced_sim::detect::{DetectOptions, DetectabilityTable, Semantics};
use ced_sim::fault::FaultModel;
use ced_store::{Store, TENSOR_COMP_STAGE, TENSOR_FRAG_STAGE};

fn scaled(name: &str) -> Fsm {
    bench::paper_table1_scaled()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no scaled analogue named {name}"))
        .build()
}

fn paper_corpus() -> Vec<(String, Fsm)> {
    ["s27", "tav", "dk512"]
        .iter()
        .map(|&name| (name.to_string(), scaled(name)))
        .collect()
}

#[test]
fn option_debug_renderings_are_pinned() {
    assert_eq!(
        format!("{:?}", CedOptions::default()),
        "CedOptions { iterations: 1000, form: Symmetric, seed: 0, lp_row_cap: 256, \
         refinement_rounds: 3, objective: SparseBeta, time_budget: None, max_lp_solves: None }"
    );
    assert_eq!(
        format!("{:?}", PipelineOptions::paper_defaults()),
        "PipelineOptions { encoding: Natural, minimize: MinimizeOptions { max_iterations: 8, \
         final_expand: true }, ced: CedOptions { iterations: 1000, form: Symmetric, seed: 0, \
         lp_row_cap: 256, refinement_rounds: 3, objective: SparseBeta, time_budget: None, \
         max_lp_solves: None }, full_fault_list: false, max_rows: 2000000, semantics: Lockstep, \
         input_granularity: TransitionCubes, isolate_output_logic: false }"
    );
}

#[test]
fn suite_fingerprints_are_pinned() {
    let machines = paper_corpus();
    let mut options = SuiteOptions {
        latencies: vec![1, 2],
        ..SuiteOptions::default()
    };
    assert_eq!(
        suite_fingerprint(&machines, &options),
        0xaf73_1e74_52ff_d5f5
    );
    options.pipeline.fault_model = FaultModel::TransientSeu { duration: 4 };
    assert_eq!(
        suite_fingerprint(&machines, &options),
        0x8b4a_8330_50ce_f4e3
    );
}

/// Every store key an s27 `p = 2` pipeline run writes, plus the cover
/// memo key the daemon's `check` op uses.
#[test]
fn s27_store_keys_are_pinned() {
    let store = Store::in_memory();
    let budget = Budget::unlimited();
    let mut control = PipelineControl::new(&budget);
    control.store = Some(&store);
    let options = PipelineOptions::paper_defaults();
    let fsm = scaled("s27");
    run_circuit_controlled(&fsm, &[2], &options, &CellLibrary::new(), control).expect("pipeline");

    let entries = store.entries();
    let key = |stage: &str| -> Vec<u64> {
        entries
            .iter()
            .filter(|e| e.stage == stage)
            .map(|e| e.fingerprint)
            .collect()
    };
    assert_eq!(key("synth"), [0x1fe7_11b0_3b8d_b368]);
    assert_eq!(key("tensor"), [0x2e43_a328_3dec_30a2]);
    assert_eq!(key(TENSOR_COMP_STAGE), [0x2e43_a328_3dec_30a2]);
    assert_eq!(key("search"), [0x0e06_c152_195c_fc6a]);
    let frags = key(TENSOR_FRAG_STAGE);
    assert_eq!(frags.len(), 250);
    let mut digest = Vec::new();
    for fp in &frags {
        digest.extend_from_slice(&fp.to_le_bytes());
    }
    assert_eq!(fnv1a64(&digest), FRAG_KEYS_DIGEST);

    let (encoded, circuit) = prepare_machine(&fsm, &options).expect("synthesis");
    let (table, _) = DetectabilityTable::build(
        &circuit,
        &fault_list(&circuit, &options),
        &DetectOptions {
            latency: 2,
            input_model: build_input_model(
                encoded.fsm(),
                encoded.encoding(),
                options.input_granularity,
            ),
            ..DetectOptions::default()
        },
    )
    .expect("tensor");
    let covers = Store::in_memory();
    minimize_parity_functions_stored(&table, &options.ced, Some(&covers));
    let cover_keys: Vec<u64> = covers
        .entries()
        .iter()
        .filter(|e| e.stage == COVER_STAGE)
        .map(|e| e.fingerprint)
        .collect();
    assert_eq!(cover_keys, [COVER_KEY]);
}

/// FNV-1a over the 250 fragment keys, ascending, little-endian.
const FRAG_KEYS_DIGEST: u64 = 0x6666_9c56_d53b_d031;
const COVER_KEY: u64 = 0x6687_329b_13c8_2a62;

const MODELS: [FaultModel; 4] = [
    FaultModel::PermanentStuckAt,
    FaultModel::MultiBitCluster { radius: 1 },
    FaultModel::TransientSeu { duration: 4 },
    FaultModel::Intermittent { period: 2 },
];

/// One line per (machine, semantics, fault model): the FNV-1a digest of
/// `DetectabilityTable::to_bytes()` at `p = 1, 2, 3`.
const TENSOR_DIGESTS: &str = "\
s27 Lockstep permanent 747ba8d6e299d9fd 39092bcc4d22d20b 110959c30496ab55
s27 Lockstep multibit:1 747ba8d6e299d9fd 39092bcc4d22d20b 110959c30496ab55
s27 Lockstep transient:4 747ba8d6e299d9fd 39092bcc4d22d20b 110959c30496ab55
s27 Lockstep intermittent:2 747ba8d6e299d9fd 39092bcc4d22d20b 110959c30496ab55
s27 FaultyTrajectory permanent 747ba8d6e299d9fd 39092bcc4d22d20b 110959c30496ab55
s27 FaultyTrajectory multibit:1 747ba8d6e299d9fd 39092bcc4d22d20b 110959c30496ab55
s27 FaultyTrajectory transient:4 747ba8d6e299d9fd 39092bcc4d22d20b 110959c30496ab55
s27 FaultyTrajectory intermittent:2 747ba8d6e299d9fd 39092bcc4d22d20b 110959c30496ab55
tav Lockstep permanent 5a8276f7bfc9784d b52812ff40e4c7c9 94a72aa4b99b947b
tav Lockstep multibit:1 8617d0fbfcda8765 a23a7d5e82387c63 ae3170db4e15af4b
tav Lockstep transient:4 5a8276f7bfc9784d b52812ff40e4c7c9 94a72aa4b99b947b
tav Lockstep intermittent:2 5a8276f7bfc9784d 740b77d17b0f0cd3 5950f5d3945ecea1
tav FaultyTrajectory permanent 5a8276f7bfc9784d 8e7127f06bab5bb7 19e53bd516a386e5
tav FaultyTrajectory multibit:1 8617d0fbfcda8765 108fc9e0708a041c 03caf4e6beb99a3b
tav FaultyTrajectory transient:4 5a8276f7bfc9784d 8e7127f06bab5bb7 19e53bd516a386e5
tav FaultyTrajectory intermittent:2 5a8276f7bfc9784d 8e7127f06bab5bb7 19e53bd516a386e5
dk512 Lockstep permanent e18c9b93e6728bd8 157ab2160f292fac 1f19be2cad08dd7f
dk512 Lockstep multibit:1 62947a2038fa7b98 1f5e9d043e795e0a 0940621fca60e0f8
dk512 Lockstep transient:4 e18c9b93e6728bd8 157ab2160f292fac 1f19be2cad08dd7f
dk512 Lockstep intermittent:2 e18c9b93e6728bd8 57ed61c500b88509 d3804901455754da
dk512 FaultyTrajectory permanent e18c9b93e6728bd8 2294e4a40892c96e 61e48e117a96e8f3
dk512 FaultyTrajectory multibit:1 62947a2038fa7b98 1a8c130b19093cc3 c0d8eb12a58ba6dd
dk512 FaultyTrajectory transient:4 e18c9b93e6728bd8 2294e4a40892c96e 61e48e117a96e8f3
dk512 FaultyTrajectory intermittent:2 e18c9b93e6728bd8 2294e4a40892c96e 61e48e117a96e8f3
gen3x Lockstep permanent b83679ca531a8b0d 77079580a8e038db f5074e30d6017cae
gen3x Lockstep multibit:1 618d0cdef63884a5 3efd48ea606f7c5c 1b2edbd587b4a357
gen3x Lockstep transient:4 b83679ca531a8b0d 77079580a8e038db f5074e30d6017cae
gen3x Lockstep intermittent:2 b83679ca531a8b0d 3c3615462717630c 09154360aee9bc94
gen3x FaultyTrajectory permanent b83679ca531a8b0d 27ab35a4c76fed66 cf56f11aa9ca70f7
gen3x FaultyTrajectory multibit:1 618d0cdef63884a5 1730c6eec69a167e 451ebe733bd46aa9
gen3x FaultyTrajectory transient:4 b83679ca531a8b0d 27ab35a4c76fed66 cf56f11aa9ca70f7
gen3x FaultyTrajectory intermittent:2 b83679ca531a8b0d b77436fb66a808b7 720d56d2734a738d
";

#[test]
fn tensor_bytes_are_pinned_across_semantics_and_fault_models() {
    let mut machines = paper_corpus();
    // `ced gen --scale 3 --seed 3`.
    machines.push(("gen3x".to_string(), generate(&scaled_workload(3, 3))));
    let mut digests = String::new();
    let mut stats_bytes = ByteWriter::new();
    for (name, fsm) in &machines {
        for semantics in [Semantics::Lockstep, Semantics::FaultyTrajectory] {
            for model in MODELS {
                let options = PipelineOptions {
                    semantics,
                    fault_model: model,
                    ..PipelineOptions::paper_defaults()
                };
                let (encoded, circuit) = prepare_machine(fsm, &options).expect("synthesis");
                let built = DetectabilityTable::build_many(
                    &circuit,
                    &fault_list(&circuit, &options),
                    &DetectOptions {
                        latency: 3,
                        max_rows: options.max_rows,
                        semantics,
                        input_model: build_input_model(
                            encoded.fsm(),
                            encoded.encoding(),
                            options.input_granularity,
                        ),
                        reduce: true,
                        fault_model: model,
                    },
                    &[1, 2, 3],
                )
                .expect("tensor");
                digests.push_str(&format!("{name} {semantics:?} {model}"));
                for (table, stats) in &built {
                    digests.push_str(&format!(" {:016x}", fnv1a64(&table.to_bytes())));
                    stats.write(&mut stats_bytes);
                }
                digests.push('\n');
            }
        }
    }
    assert_eq!(digests, TENSOR_DIGESTS);
    // Every cell's `DetectStats` (activations, raw rows), in line order.
    assert_eq!(fnv1a64(&stats_bytes.finish()), 0xbfe5_a98d_202a_1275);
}
