//! Seeded synthetic FSM generation.
//!
//! The MCNC benchmark files evaluated by the paper are not shipped with
//! this repository (see DESIGN.md substitution note (a)); this module
//! generates machines with controlled interface dimensions, transition
//! cube structure and self-loop density, which are the properties the
//! paper's qualitative conclusions depend on. Generation is fully
//! deterministic in the seed.
//!
//! # Examples
//!
//! ```
//! use ced_fsm::generator::{GeneratorConfig, generate};
//!
//! let cfg = GeneratorConfig {
//!     name: "demo".into(),
//!     num_inputs: 2,
//!     num_states: 5,
//!     num_outputs: 2,
//!     cubes_per_state: 3,
//!     self_loop_bias: 0.3,
//!     output_dc_prob: 0.1,
//!     output_pool: 0,
//!     seed: 42,
//! };
//! let fsm = generate(&cfg);
//! assert_eq!(fsm.num_states(), 5);
//! assert!(fsm.check_complete().is_ok());
//! assert!(fsm.check_deterministic().is_ok());
//! ```

use crate::machine::{Fsm, OutputValue, StateId};
use crate::reach::reachable_states;
use ced_logic::cube::{Cube, Literal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Machine name.
    pub name: String,
    /// Number of input bits (`r`).
    pub num_inputs: usize,
    /// Number of symbolic states.
    pub num_states: usize,
    /// Number of output bits.
    pub num_outputs: usize,
    /// Target number of input cubes per state (≥ 1; capped at `2^r`).
    pub cubes_per_state: usize,
    /// Probability that a transition cube self-loops. Small machines in
    /// the paper (donfile, s27, s386) are self-loop heavy, which
    /// saturates the latency benefit early.
    pub self_loop_bias: f64,
    /// Probability that an output bit is left unspecified on a line.
    pub output_dc_prob: f64,
    /// Output structure: `0` draws every line's outputs independently
    /// at random; `k > 0` makes outputs Moore-like — each state owns one
    /// of `k` sparse output patterns and a transition emits its target
    /// state's pattern. Real controller benchmarks are strongly
    /// Moore-like, which correlates output-bit errors and is what lets
    /// a few parity trees compact many bits (see DESIGN.md note (a)).
    pub output_pool: usize,
    /// RNG seed; equal seeds give identical machines.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> GeneratorConfig {
        GeneratorConfig {
            name: "synthetic".into(),
            num_inputs: 2,
            num_states: 8,
            num_outputs: 2,
            cubes_per_state: 4,
            self_loop_bias: 0.2,
            output_dc_prob: 0.05,
            output_pool: 0,
            seed: 0,
        }
    }
}

/// The dk512-shaped scaling workload behind `ced gen` and the scaling
/// benchmarks: the paper's dk512 interface (1 input bit, 3
/// output bits, Moore-like output pool, heavy self-loops) with
/// `scale` × its 15 states. Larger machines mean more encoded state
/// bits and a combinatorially larger detectability tensor, which is
/// exactly the regime the bit-packed engine targets. Deterministic in
/// (`scale`, `seed`); `scale` is clamped to ≥ 1.
pub fn scaled_workload(scale: usize, seed: u64) -> GeneratorConfig {
    let scale = scale.max(1);
    let states = 15 * scale;
    GeneratorConfig {
        name: format!("gen{scale}x"),
        num_inputs: 1,
        num_states: states,
        num_outputs: 3,
        cubes_per_state: 2,
        self_loop_bias: 0.45,
        output_dc_prob: 0.05,
        output_pool: (states / 3).clamp(2, 8),
        seed,
    }
}

/// Splits the full input cube into `k` disjoint cubes covering the whole
/// input space, by repeatedly splitting the cube with the most free
/// variables on a random free variable.
fn partition_input_space(width: usize, k: usize, rng: &mut StdRng) -> Vec<Cube> {
    let max_cubes = 1usize << width.min(20);
    let k = k.clamp(1, max_cubes);
    let mut cubes = vec![Cube::full(width)];
    while cubes.len() < k {
        // Split the cube with the most don't-cares.
        let (idx, _) = cubes
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.width() - c.literal_count())
            .expect("non-empty cube list");
        let cube = cubes.swap_remove(idx);
        let free: Vec<usize> = (0..width)
            .filter(|&v| cube.literal(v) == Literal::DontCare)
            .collect();
        if free.is_empty() {
            // Cannot split further; put it back and stop.
            cubes.push(cube);
            break;
        }
        let v = free[rng.gen_range(0..free.len())];
        cubes.push(cube.with(v, Literal::Negative));
        cubes.push(cube.with(v, Literal::Positive));
    }
    cubes
}

fn random_outputs(cfg: &GeneratorConfig, rng: &mut StdRng) -> Vec<OutputValue> {
    (0..cfg.num_outputs)
        .map(|_| {
            if rng.gen_bool(cfg.output_dc_prob) {
                OutputValue::DontCare
            } else if rng.gen_bool(0.5) {
                OutputValue::One
            } else {
                OutputValue::Zero
            }
        })
        .collect()
}

/// Sparse Moore-style output patterns: one per pool slot, each bit set
/// with probability ~0.3 (controller outputs are mostly quiet).
fn output_pattern_pool(cfg: &GeneratorConfig, rng: &mut StdRng) -> Vec<Vec<OutputValue>> {
    (0..cfg.output_pool.max(1))
        .map(|_| {
            (0..cfg.num_outputs)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        OutputValue::One
                    } else {
                        OutputValue::Zero
                    }
                })
                .collect()
        })
        .collect()
}

fn moore_outputs(
    cfg: &GeneratorConfig,
    pattern: &[OutputValue],
    rng: &mut StdRng,
) -> Vec<OutputValue> {
    pattern
        .iter()
        .map(|&v| {
            if rng.gen_bool(cfg.output_dc_prob) {
                OutputValue::DontCare
            } else {
                v
            }
        })
        .collect()
}

/// Generates a complete, deterministic machine per the configuration.
///
/// Every state is reachable from the reset state: a random Hamiltonian
/// chain is threaded through the states before the remaining transition
/// targets are drawn.
///
/// # Panics
///
/// Panics if `num_states == 0` or `num_inputs > 16`.
pub fn generate(cfg: &GeneratorConfig) -> Fsm {
    assert!(cfg.num_states > 0, "need at least one state");
    assert!(cfg.num_inputs <= 16, "generator capped at 16 input bits");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut fsm = Fsm::new(cfg.name.clone(), cfg.num_inputs, cfg.num_outputs);
    let states: Vec<StateId> = (0..cfg.num_states)
        .map(|i| fsm.add_state(format!("s{i}")))
        .collect();

    // Random chain visiting every state once, starting at the reset state,
    // guaranteeing global reachability.
    let mut chain: Vec<usize> = (1..cfg.num_states).collect();
    for i in (1..chain.len()).rev() {
        let j = rng.gen_range(0..=i);
        chain.swap(i, j);
    }
    let mut next_in_chain = vec![None; cfg.num_states];
    let mut prev = 0usize;
    for &s in &chain {
        next_in_chain[prev] = Some(s);
        prev = s;
    }

    // Moore structure: assign each state one pattern from the pool.
    let pool = output_pattern_pool(cfg, &mut rng);
    let state_pattern: Vec<usize> = (0..cfg.num_states)
        .map(|_| rng.gen_range(0..pool.len()))
        .collect();

    for (si, &state) in states.iter().enumerate() {
        let cubes = partition_input_space(cfg.num_inputs, cfg.cubes_per_state, &mut rng);
        for (ci, cube) in cubes.into_iter().enumerate() {
            // The first cube of a chain-bearing state follows the chain.
            let target = if ci == 0 {
                match next_in_chain[si] {
                    Some(t) => states[t],
                    None => states[rng.gen_range(0..cfg.num_states)],
                }
            } else if rng.gen_bool(cfg.self_loop_bias) {
                state
            } else {
                states[rng.gen_range(0..cfg.num_states)]
            };
            let outputs = if cfg.output_pool > 0 {
                moore_outputs(cfg, &pool[state_pattern[target.index()]], &mut rng)
            } else {
                random_outputs(cfg, &mut rng)
            };
            fsm.add_transition(cube, state, target, outputs)
                .expect("generated transition is well-formed");
        }
    }
    debug_assert_eq!(reachable_states(&fsm).len(), cfg.num_states);
    fsm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            name: "t".into(),
            num_inputs: 3,
            num_states: 7,
            num_outputs: 2,
            cubes_per_state: 4,
            self_loop_bias: 0.3,
            output_dc_prob: 0.1,
            output_pool: 0,
            seed,
        }
    }

    #[test]
    fn generated_machine_is_well_formed() {
        for seed in 0..10 {
            let fsm = generate(&cfg(seed));
            assert!(fsm.check_complete().is_ok(), "seed {seed} incomplete");
            assert!(fsm.check_deterministic().is_ok(), "seed {seed} nondet");
            assert_eq!(fsm.num_states(), 7);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&cfg(99));
        let b = generate(&cfg(99));
        assert_eq!(a, b);
        let c = generate(&cfg(100));
        assert_ne!(a, c);
    }

    #[test]
    fn all_states_reachable() {
        for seed in 0..10 {
            let fsm = generate(&cfg(seed));
            assert_eq!(reachable_states(&fsm).len(), 7, "seed {seed}");
        }
    }

    #[test]
    fn self_loop_bias_increases_loops() {
        let mut low_cfg = cfg(7);
        low_cfg.self_loop_bias = 0.0;
        let mut high_cfg = cfg(7);
        high_cfg.self_loop_bias = 0.95;
        let low = generate(&low_cfg).self_loop_fraction();
        let high = generate(&high_cfg).self_loop_fraction();
        assert!(high > low, "bias had no effect: {low} vs {high}");
    }

    #[test]
    fn partition_covers_input_space() {
        let mut rng = StdRng::seed_from_u64(1);
        for k in [1, 2, 3, 5, 8] {
            let cubes = partition_input_space(3, k, &mut rng);
            // Disjoint…
            for i in 0..cubes.len() {
                for j in (i + 1)..cubes.len() {
                    assert!(cubes[i].disjoint(&cubes[j]), "k={k}: overlap");
                }
            }
            // …and exhaustive.
            for m in 0..8u64 {
                assert!(
                    cubes.iter().any(|c| c.covers_minterm(m)),
                    "k={k}: minterm {m} uncovered"
                );
            }
        }
    }

    #[test]
    fn scaled_workload_is_well_formed_and_deterministic() {
        for scale in [1usize, 4, 10] {
            let cfg = scaled_workload(scale, 1);
            assert_eq!(cfg.num_states, 15 * scale);
            let fsm = generate(&cfg);
            assert!(fsm.check_complete().is_ok(), "scale {scale}");
            assert!(fsm.check_deterministic().is_ok(), "scale {scale}");
            assert_eq!(fsm.num_states(), 15 * scale);
            assert_eq!(fsm, generate(&scaled_workload(scale, 1)));
        }
        assert_eq!(scaled_workload(0, 0).num_states, 15, "scale clamps to 1");
    }

    #[test]
    fn single_state_machine() {
        let mut c = cfg(0);
        c.num_states = 1;
        let fsm = generate(&c);
        assert!(fsm.check_complete().is_ok());
        assert_eq!(fsm.num_states(), 1);
    }

    #[test]
    fn zero_inputs_machine() {
        let mut c = cfg(0);
        c.num_inputs = 0;
        c.cubes_per_state = 1;
        c.num_states = 3;
        let fsm = generate(&c);
        assert!(fsm.check_complete().is_ok());
        assert!(fsm.check_deterministic().is_ok());
    }
}
