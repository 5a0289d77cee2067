//! Workload inputs, drawn deterministically from the workload seed.
//!
//! The program under test only ever receives what this module renders:
//! KISS2 text (and, for `serve-mix`, protocol request lines). Equal
//! seeds give byte-identical inputs; the benchmark's own tests pin that.
//!
//! The machines are the repository's fixed Table-1 corpus; the seed
//! draws what is done with them (the edit chain, the request stream).
//! Machine instances drawn per seed made batch time, tail latency and
//! peak memory differ by up to 1.8× between seeds, beyond any bound a
//! regression gate can hold (see `README.md`).

use ced_core::pipeline::{prepare_machine, PipelineOptions};
use ced_fsm::generator::{generate, scaled_workload};
use ced_fsm::kiss;
use ced_fsm::machine::{Fsm, OutputValue};
use ced_fsm::suite::paper_table1_scaled;
use ced_logic::cube::Literal;
use ced_runtime::Json;
use ced_sim::tables::TransitionTables;

/// SplitMix64: one well-mixed 64-bit value per (seed, salt) pair, so
/// every generated item gets an independent stream from one seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic stream of draws.
struct Draws {
    state: u64,
    n: u64,
}

impl Draws {
    /// A stream keyed by `(seed, salt)`.
    fn new(seed: u64, salt: u64) -> Draws {
        Draws {
            state: mix(seed, salt),
            n: 0,
        }
    }

    /// The next value in `0..bound` (`bound` > 0).
    fn below(&mut self, bound: usize) -> usize {
        self.n += 1;
        (mix(self.state, self.n) % bound as u64) as usize
    }
}

/// One generated machine: a label for reports plus the KISS2 text the
/// program parses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// Table-1 circuit name (or `gen10x`).
    pub name: String,
    /// The machine as KISS2 text.
    pub kiss2: String,
}

/// Instance seed of the reference gen10x machine: `ced gen --scale 10`.
pub const GEN10X_SEED: u64 = 0;

/// A gen10x machine (`ced gen --scale 10 --seed <seed>`); `scale`
/// other than 10 gives the same family at another size.
pub fn gen_scaled(scale: usize, seed: u64) -> Fsm {
    generate(&scaled_workload(scale, seed))
}

/// Fisher–Yates shuffle driven by `draws`.
fn shuffle(v: &mut [usize], draws: &mut Draws) {
    for k in (1..v.len()).rev() {
        v.swap(k, draws.below(k + 1));
    }
}

/// The `table1-batch` corpus: the 16 scaled Table-1 analogues exactly
/// as `ced suite --scaled` builds them, plus gen10x.
pub fn table1_corpus() -> Vec<Machine> {
    let mut corpus: Vec<Machine> = paper_table1_scaled()
        .iter()
        .map(|spec| Machine {
            name: spec.name.to_string(),
            kiss2: kiss::to_string(&spec.build()),
        })
        .collect();
    corpus.push(Machine {
        name: "gen10x".to_string(),
        kiss2: kiss::to_string(&gen_scaled(10, GEN10X_SEED)),
    });
    corpus
}

/// The class of one edit in the `edit-loop` chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// A don't-care output bit refined to the value the synthesized
    /// netlist already realizes (re-synthesis verified identical).
    DcRefine,
    /// A specified output bit inverted.
    Flip,
}

impl EditKind {
    /// Label for reports.
    pub fn name(self) -> &'static str {
        match self {
            EditKind::DcRefine => "dc",
            EditKind::Flip => "flip",
        }
    }
}

/// The fixed class pattern of every chain: three don't-care refinements
/// per flip, so the pooled per-op median stays inside the dc class and
/// the tail inside the flip/cold class.
pub const EDIT_PATTERN: [EditKind; 8] = [
    EditKind::DcRefine,
    EditKind::DcRefine,
    EditKind::DcRefine,
    EditKind::Flip,
    EditKind::DcRefine,
    EditKind::DcRefine,
    EditKind::DcRefine,
    EditKind::Flip,
];

/// One machine's edit chain: the base revision and each edit's class
/// and resulting revision. Edit `k` is analysed against revision `k`
/// (`revisions[0]` is the base).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditChain {
    /// KISS2 text of every revision, base first.
    pub revisions: Vec<String>,
    /// Class of the edit producing `revisions[k + 1]`.
    pub kinds: Vec<EditKind>,
}

/// Rebuilds `fsm` with transition `t_idx`'s output bit `bit` set to `v`.
fn with_output(fsm: &Fsm, t_idx: usize, bit: usize, v: OutputValue) -> Fsm {
    let mut out = Fsm::new(fsm.name(), fsm.num_inputs(), fsm.num_outputs());
    for s in fsm.state_names() {
        out.add_state(s.clone());
    }
    out.set_reset_state(fsm.reset_state())
        .expect("reset state copied from a valid machine");
    for (i, t) in fsm.transitions().iter().enumerate() {
        let mut output = t.output.clone();
        if i == t_idx {
            output[bit] = v;
        }
        out.add_transition(t.input.clone(), t.from, t.to, output)
            .expect("transition copied from a valid machine");
    }
    out
}

/// Plans a seeded edit chain over `base` following [`EDIT_PATTERN`]
/// `rounds` times. Don't-care candidates are taken in seeded order and
/// kept only when re-synthesis reproduces the current netlist exactly.
///
/// # Errors
///
/// When a revision has no verifiable candidate of the required class.
pub fn plan_chain(base: &Fsm, seed: u64, rounds: usize) -> Result<EditChain, String> {
    let options = PipelineOptions::paper_defaults();
    let mut draws = Draws::new(seed, 0xED17);
    let mut current = base.clone();
    let mut chain = EditChain {
        revisions: vec![kiss::to_string(base)],
        kinds: Vec::new(),
    };
    for _ in 0..rounds {
        for kind in EDIT_PATTERN {
            let next = match kind {
                EditKind::DcRefine => dc_refine(&current, &options, &mut draws)?,
                EditKind::Flip => flip(&current, &mut draws)?,
            };
            chain.revisions.push(kiss::to_string(&next));
            chain.kinds.push(kind);
            current = next;
        }
    }
    Ok(chain)
}

/// Transition indices in seeded order.
fn seeded_order(n: usize, draws: &mut Draws) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, draws);
    order
}

fn dc_refine(fsm: &Fsm, options: &PipelineOptions, draws: &mut Draws) -> Result<Fsm, String> {
    let (encoded, circuit) = prepare_machine(fsm, options).map_err(|e| e.to_string())?;
    let good = TransitionTables::good(&circuit);
    let transitions = fsm.transitions();
    for i in seeded_order(transitions.len(), draws) {
        let t = &transitions[i];
        let Some(bit) = t.output.iter().position(|&v| v == OutputValue::DontCare) else {
            continue;
        };
        // The lowest input minterm of the cube: the machine realizes
        // one value there, and adopting it keeps the on-set unchanged.
        let input: u64 = (0..t.input.width())
            .filter(|&v| t.input.literal(v) == Literal::Positive)
            .fold(0, |acc, v| acc | (1 << v));
        let code = encoded.encoding().code(t.from);
        let v = if (good.response(code, input) >> bit) & 1 == 1 {
            OutputValue::One
        } else {
            OutputValue::Zero
        };
        let candidate = with_output(fsm, i, bit, v);
        let (_, resynth) = prepare_machine(&candidate, options).map_err(|e| e.to_string())?;
        if resynth.netlist() == circuit.netlist() {
            return Ok(candidate);
        }
    }
    Err(format!(
        "{}: no verifiable don't-care refinement",
        fsm.name()
    ))
}

fn flip(fsm: &Fsm, draws: &mut Draws) -> Result<Fsm, String> {
    let transitions = fsm.transitions();
    for i in seeded_order(transitions.len(), draws) {
        let t = &transitions[i];
        if let Some((bit, v)) = t.output.iter().enumerate().find_map(|(b, &v)| match v {
            OutputValue::Zero => Some((b, OutputValue::One)),
            OutputValue::One => Some((b, OutputValue::Zero)),
            OutputValue::DontCare => None,
        }) {
            return Ok(with_output(fsm, i, bit, v));
        }
    }
    Err(format!("{}: no specified output bit to flip", fsm.name()))
}

/// One request of the `serve-mix` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRequest {
    /// The closed-loop client that sends it.
    pub client: usize,
    /// The protocol request line (its `id` is the stream index).
    pub line: String,
}

/// Clients driving `serve-mix` (sized for a 2-core host).
pub const CLIENTS: usize = 2;

/// The scaled Table-1 specs `serve-mix` draws its machines from: those
/// cheap enough to check, tabulate, certify or inject in well under a
/// second. The larger specs take seconds per op; `table1-batch` covers
/// them.
const SERVE_SPECS: [&str; 5] = ["donfile", "dk16", "dk512", "s27", "tav"];

/// The fixed mix of requests: six checks (two at each bound p = 1, 2,
/// 3), two tables, two certifications and two inject campaigns per
/// twelve. A check's bound is its second field.
const MIX: [(&str, u64); 12] = [
    ("check", 1),
    ("check", 1),
    ("check", 2),
    ("check", 2),
    ("check", 3),
    ("check", 3),
    ("table", 0),
    ("table", 0),
    ("certify", 0),
    ("certify", 0),
    ("inject", 0),
    ("inject", 0),
];

/// Deals `0..n` in seeded order, reshuffling after each full round, so
/// every value is drawn equally often and a stream's composition does
/// not drift with the seed.
struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            order: (0..n).collect(),
            next: n,
        }
    }

    fn deal(&mut self, draws: &mut Draws) -> usize {
        if self.next == self.order.len() {
            shuffle(&mut self.order, draws);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Generates a `serve-mix` stream of `n` requests over the small
/// Table-1 analogues (built as `ced suite --scaled` builds them). Every
/// (request kind, machine) pair — 12 kinds by 5 machines — is dealt
/// once per round of 60, so the stream's composition is the same for
/// every seed; the seed draws the order.
pub fn serve_stream(seed: u64, n: usize) -> Vec<StreamRequest> {
    let machines: Vec<String> = paper_table1_scaled()
        .iter()
        .filter(|s| SERVE_SPECS.contains(&s.name))
        .map(|s| kiss::to_string(&s.build()))
        .collect();
    let mut draws = Draws::new(seed, 0x5E7E);
    let mut pairs = Deck::new(MIX.len() * machines.len());
    (0..n)
        .map(|i| {
            let pair = pairs.deal(&mut draws);
            let (cmd, latency) = MIX[pair % MIX.len()];
            let machine = &machines[pair / MIX.len()];
            let mut fields = vec![
                ("id".to_string(), Json::str(&i.to_string())),
                ("cmd".to_string(), Json::str(cmd)),
                ("machine".to_string(), Json::str(machine)),
            ];
            match cmd {
                "check" => fields.push(("latency".into(), Json::UInt(latency))),
                "table" => fields.push((
                    "latencies".into(),
                    Json::Array(vec![Json::UInt(1), Json::UInt(2), Json::UInt(3)]),
                )),
                "certify" => fields.push((
                    "latencies".into(),
                    Json::Array(vec![Json::UInt(1), Json::UInt(2)]),
                )),
                _ => {
                    fields.push(("latency".into(), Json::UInt(2)));
                    fields.push(("steps".into(), Json::UInt(64)));
                }
            }
            if i % 5 == 4 {
                fields.push(("fault_model".into(), Json::str("transient:4")));
            }
            StreamRequest {
                client: i % CLIENTS,
                line: Json::Object(fields).render(),
            }
        })
        .collect()
}
