//! Bit-parallel fault simulation primitives.
//!
//! Evaluates a combinational netlist under an injected stuck-at fault,
//! 64 patterns per pass (parallel-pattern single-fault propagation).
//! The forced net keeps its stuck value regardless of its driver.

use crate::fault::Fault;
use ced_logic::gate::GateKind;
use ced_logic::netlist::Netlist;

/// Evaluates all nets with `fault` injected, 64 patterns at once,
/// reusing `values` as scratch (resized as needed).
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the netlist's input count.
pub fn eval_words_faulty_into(
    netlist: &Netlist,
    inputs: &[u64],
    fault: Fault,
    values: &mut Vec<u64>,
) {
    assert_eq!(inputs.len(), netlist.num_inputs(), "input arity mismatch");
    let gates = netlist.gates();
    values.clear();
    values.resize(gates.len(), 0);
    let forced = fault.forced_word();
    let fidx = fault.net.index();
    for (i, g) in gates.iter().enumerate() {
        let v = match g.kind {
            GateKind::Input => inputs[i],
            kind => {
                let a = values[g.fanin[0].index()];
                let b = values[g.fanin[1].index()];
                kind.eval(a, b)
            }
        };
        values[i] = if i == fidx { forced } else { v };
    }
}

/// Evaluates all nets with every fault of `faults` injected at once,
/// 64 patterns per pass — the multi-bit generalization of
/// [`eval_words_faulty_into`] for spatially-clustered faults. Each
/// listed net is forced to its stuck value regardless of its driver;
/// with a single-element list the result is identical to the
/// single-fault evaluator.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the netlist's input count.
pub fn eval_words_multi_faulty_into(
    netlist: &Netlist,
    inputs: &[u64],
    faults: &[Fault],
    values: &mut Vec<u64>,
) {
    assert_eq!(inputs.len(), netlist.num_inputs(), "input arity mismatch");
    let gates = netlist.gates();
    values.clear();
    values.resize(gates.len(), 0);
    for (i, g) in gates.iter().enumerate() {
        let v = match g.kind {
            GateKind::Input => inputs[i],
            kind => {
                let a = values[g.fanin[0].index()];
                let b = values[g.fanin[1].index()];
                kind.eval(a, b)
            }
        };
        // Clusters are tiny (2·radius + 1 nets), so a linear scan beats
        // any per-gate lookup structure.
        values[i] = match faults.iter().find(|f| f.net.index() == i) {
            Some(f) => f.forced_word(),
            None => v,
        };
    }
}

/// Faulty primary-output words for 64 patterns.
pub fn eval_outputs_faulty(netlist: &Netlist, inputs: &[u64], fault: Fault) -> Vec<u64> {
    let mut values = Vec::new();
    eval_words_faulty_into(netlist, inputs, fault, &mut values);
    netlist
        .outputs()
        .iter()
        .map(|o| values[o.index()])
        .collect()
}

/// For 64 patterns at once, the word-mask of patterns on which the
/// faulty netlist's outputs differ from the fault-free ones — the
/// bit-parallel primitive behind fault-injection campaigns on the
/// checker hardware itself (a fault is behaviourally silent on a
/// pattern iff its bit is clear).
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the netlist's input count.
pub fn faulty_output_divergence(netlist: &Netlist, inputs: &[u64], fault: Fault) -> u64 {
    let good = netlist.eval_outputs_words(inputs);
    let bad = eval_outputs_faulty(netlist, inputs, fault);
    good.iter()
        .zip(&bad)
        .fold(0u64, |acc, (g, b)| acc | (g ^ b))
}

/// Single-pattern faulty evaluation (tests and examples).
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the netlist's input count.
pub fn eval_single_faulty(netlist: &Netlist, inputs: &[bool], fault: Fault) -> Vec<bool> {
    let words: Vec<u64> = inputs.iter().map(|&b| u64::from(b)).collect();
    eval_outputs_faulty(netlist, &words, fault)
        .into_iter()
        .map(|w| w & 1 == 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_logic::netlist::{NetId, NetlistBuilder};

    fn and_netlist() -> (Netlist, NetId, NetId, NetId) {
        let mut b = NetlistBuilder::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let f = b.and(x, y);
        b.mark_output(f);
        (b.finish(), x, y, f)
    }

    #[test]
    fn stuck_output_overrides_logic() {
        let (n, _, _, f) = and_netlist();
        let sa0 = Fault::new(f, false);
        let sa1 = Fault::new(f, true);
        assert_eq!(eval_single_faulty(&n, &[true, true], sa0), vec![false]);
        assert_eq!(eval_single_faulty(&n, &[false, false], sa1), vec![true]);
    }

    #[test]
    fn stuck_input_propagates() {
        let (n, x, _, _) = and_netlist();
        let sa1 = Fault::new(x, true);
        // x stuck at 1: output = y.
        assert_eq!(eval_single_faulty(&n, &[false, true], sa1), vec![true]);
        assert_eq!(eval_single_faulty(&n, &[false, false], sa1), vec![false]);
    }

    #[test]
    fn fault_free_patterns_unaffected_elsewhere() {
        let (n, _, y, f) = and_netlist();
        // Fault on y does not change behaviour when y already has the
        // stuck value.
        let sa0 = Fault::new(y, false);
        assert_eq!(eval_single_faulty(&n, &[true, false], sa0), vec![false]);
        // Downstream of the fault, the good and faulty values coincide
        // when the stuck value matches.
        let good = n.eval_single(&[true, false]);
        assert_eq!(
            eval_single_faulty(&n, &[true, false], Fault::new(f, false)),
            good
        );
    }

    #[test]
    fn divergence_word_marks_exactly_the_differing_patterns() {
        let (n, x, _, f) = and_netlist();
        // All four input patterns in one word: pattern m has x = bit 0
        // of m, y = bit 1 of m.
        let inputs = vec![0b1010, 0b1100];
        // x stuck-at-1: output becomes y, differing only where x=0, y=1
        // (pattern 2).
        assert_eq!(
            faulty_output_divergence(&n, &inputs, Fault::new(x, true)),
            0b0100
        );
        // Output stuck-at-0: differs only where the AND is 1 (pattern 3).
        assert_eq!(
            faulty_output_divergence(&n, &inputs, Fault::new(f, false)),
            0b1000
        );
    }

    #[test]
    fn multi_fault_injection_forces_every_listed_net() {
        let (n, x, y, f) = and_netlist();
        let mut values = Vec::new();
        // x sa1 and y sa1 together: output is 1 everywhere.
        eval_words_multi_faulty_into(
            &n,
            &[0b00, 0b00],
            &[Fault::new(x, true), Fault::new(y, true)],
            &mut values,
        );
        assert_eq!(values[f.index()] & 0b11, 0b11);
        // A singleton list matches the single-fault evaluator exactly.
        let mut single = Vec::new();
        eval_words_faulty_into(&n, &[0b10, 0b01], Fault::new(x, true), &mut single);
        eval_words_multi_faulty_into(&n, &[0b10, 0b01], &[Fault::new(x, true)], &mut values);
        assert_eq!(values, single);
    }

    #[test]
    fn word_parallel_matches_single_pattern() {
        let mut b = NetlistBuilder::new(3);
        let i: Vec<NetId> = (0..3).map(|k| b.input(k)).collect();
        let t = b.xor(i[0], i[1]);
        let g = b.or(t, i[2]);
        b.mark_output(g);
        b.mark_output(t);
        let n = b.finish();
        let fault = Fault::new(t, true);
        let mut inputs = vec![0u64; 3];
        for m in 0..8u64 {
            for v in 0..3 {
                if (m >> v) & 1 == 1 {
                    inputs[v] |= 1 << m;
                }
            }
        }
        let words = eval_outputs_faulty(&n, &inputs, fault);
        for m in 0..8u64 {
            let bits: Vec<bool> = (0..3).map(|v| (m >> v) & 1 == 1).collect();
            let single = eval_single_faulty(&n, &bits, fault);
            for (o, w) in words.iter().enumerate() {
                assert_eq!((w >> m) & 1 == 1, single[o], "pattern {m} output {o}");
            }
        }
    }
}
