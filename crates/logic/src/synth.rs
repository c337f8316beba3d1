//! FSM synthesis: symbolic machine + state encoding -> boolean network.

use crate::cube::Cube;
use crate::encode::{Encoding, EncodingStyle};
use crate::fsm::Fsm;
use crate::minimize::{self, Effort};
use crate::sop::Sop;

/// A synthesized (but not yet technology-mapped) FSM: one SOP per
/// next-state bit and per output, over the variable space
/// `state bits (0..bits) || inputs (bits..bits+num_inputs)`.
#[derive(Debug, Clone)]
pub struct FsmNetwork {
    encoding: Encoding,
    num_inputs: usize,
    next_state: Vec<Sop>,
    outputs: Vec<Sop>,
    reset_code: u64,
}

impl FsmNetwork {
    /// Synthesizes `fsm` under `encoding`, minimizing every SOP at
    /// `effort`.
    ///
    /// One-hot encodings use the standard single-literal state condition
    /// (valid because exactly one state bit is ever set); dense encodings
    /// use the full code as the condition. A dense-encoded machine that
    /// passes [`Fsm::validate`] expands each cover against its OFF-set,
    /// the transition terms the cover leaves out; any other machine
    /// expands by tautology checking. Both give the same covers.
    ///
    /// # Panics
    ///
    /// Panics if the combined variable count (state bits + inputs) exceeds
    /// 64.
    pub fn synthesize(fsm: &Fsm, encoding: Encoding, effort: Effort) -> Self {
        let bits = encoding.bits();
        let num_inputs = fsm.num_inputs();
        let num_vars = bits + num_inputs;
        assert!(num_vars <= 64, "state bits + inputs exceed 64 variables");

        let state_cube = |state: usize| {
            let mut c = Cube::universe();
            match encoding.style() {
                EncodingStyle::OneHot => {
                    c = c.with_lit(state, true);
                }
                EncodingStyle::Compact | EncodingStyle::Gray => {
                    let code = encoding.code(state);
                    for b in 0..bits {
                        c = c.with_lit(b, code >> b & 1 != 0);
                    }
                }
            }
            c
        };

        // A validated machine's guards partition each state's inputs, so
        // under a dense encoding of exactly its states, its transition
        // terms and the unused codes partition the whole space: the terms
        // a cover leaves out are exactly its OFF-set. One-hot state
        // conditions are single literals that overlap on invalid codes, so
        // there the left-out terms are no OFF-set, and a computed
        // complement costs more than it saves.
        let dense = matches!(
            encoding.style(),
            EncodingStyle::Compact | EncodingStyle::Gray
        );
        let exact_off =
            dense && encoding.codes().len() == fsm.num_states() && fsm.validate().is_ok();

        // Raw covers: the next-state bits, then the outputs; with an exact
        // OFF-set, the terms each cover leaves out.
        let num_covers = bits + fsm.num_outputs();
        let mut covers = vec![Sop::zero(num_vars); num_covers];
        let mut off = vec![Vec::new(); if exact_off { num_covers } else { 0 }];

        for t in fsm.transitions() {
            // Shift the guard's input variables above the state bits.
            let mut term = state_cube(t.from);
            for v in 0..num_inputs {
                if let Some(p) = t.guard.lit(v) {
                    term = term.with_lit(bits + v, p);
                }
            }
            let to_code = encoding.code(t.to);
            for (i, sop) in covers.iter_mut().enumerate() {
                let holds = match i.checked_sub(bits) {
                    None => to_code >> i & 1 != 0,
                    Some(o) => t.outputs >> o & 1 != 0,
                };
                if holds {
                    sop.add_cube(term);
                } else if exact_off {
                    off[i].push(term);
                }
            }
        }

        // Unused codes of dense encodings are don't-cares (the machine can
        // never reach them), which espresso-style expansion exploits.
        // One-hot's invalid-code set is quadratic in states and its
        // single-literal state conditions rarely expand, so it is skipped.
        let dc = match encoding.style() {
            EncodingStyle::OneHot => Sop::zero(num_vars),
            EncodingStyle::Compact | EncodingStyle::Gray => {
                let mut dc = Sop::zero(num_vars);
                for code in 0..(1u64 << bits) {
                    if encoding.decode(code).is_none() {
                        let mut c = Cube::universe();
                        for b in 0..bits {
                            c = c.with_lit(b, code >> b & 1 != 0);
                        }
                        dc.add_cube(c);
                    }
                }
                minimize::minimize(&dc, Effort::Medium)
            }
        };
        // Grant outputs often equal next-state bits, so each distinct raw
        // cover is minimized once and later copies reuse the result. Equal
        // covers have equal OFF-sets, so the result does not depend on
        // which copy came first.
        let mut minimized: Vec<Sop> = Vec::with_capacity(num_covers);
        for (i, sop) in covers.iter().enumerate() {
            let min = match covers[..i].iter().position(|earlier| earlier == sop) {
                Some(j) => minimized[j].clone(),
                None => match off.get(i) {
                    Some(off) => minimize::minimize_with_off(sop, &dc, off, effort),
                    None => minimize::minimize_with_dc(sop, &dc, effort),
                },
            };
            minimized.push(min);
        }
        let outputs = minimized.split_off(bits);
        let next_state = minimized;

        Self {
            encoding: encoding.clone(),
            num_inputs,
            next_state,
            outputs,
            reset_code: encoding.code(fsm.reset_state()),
        }
    }

    /// The state encoding in force.
    pub fn encoding(&self) -> &Encoding {
        &self.encoding
    }

    /// Number of FSM input bits.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Next-state SOPs, one per state bit.
    pub fn next_state(&self) -> &[Sop] {
        &self.next_state
    }

    /// Output SOPs, one per FSM output.
    pub fn outputs(&self) -> &[Sop] {
        &self.outputs
    }

    /// The encoded reset state.
    pub fn reset_code(&self) -> u64 {
        self.reset_code
    }

    /// Evaluates one clock cycle at the encoded level: returns
    /// `(next_state_code, output_word)`.
    pub fn step_encoded(&self, state_code: u64, inputs: u64) -> (u64, u64) {
        let bits = self.encoding.bits();
        let assignment = state_code | inputs << bits;
        let mut next = 0u64;
        for (b, sop) in self.next_state.iter().enumerate() {
            if sop.eval(assignment) {
                next |= 1 << b;
            }
        }
        let mut out = 0u64;
        for (o, sop) in self.outputs.iter().enumerate() {
            if sop.eval(assignment) {
                out |= 1 << o;
            }
        }
        (next, out)
    }

    /// Total literal cost across all SOPs (a pre-mapping area proxy).
    pub fn total_lits(&self) -> u32 {
        self.next_state
            .iter()
            .chain(self.outputs.iter())
            .map(|s| s.num_lits())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;
    use crate::fsm::Transition;

    /// A 2-input, 2-output, 3-state rotator used as a synthesis fixture.
    fn rotator() -> Fsm {
        let mut fsm = Fsm::new("rot", 2, 2);
        let s: Vec<usize> = (0..3).map(|i| fsm.add_state(format!("S{i}"))).collect();
        fsm.set_reset(s[0]);
        for i in 0..3 {
            let go = Cube::universe().with_lit(0, true);
            let stay = Cube::universe().with_lit(0, false);
            fsm.add_transition(Transition {
                from: s[i],
                guard: go,
                to: s[(i + 1) % 3],
                outputs: (i as u64) & 0b11,
            });
            fsm.add_transition(Transition {
                from: s[i],
                guard: stay,
                to: s[i],
                outputs: 0,
            });
        }
        fsm
    }

    fn check_encoded_matches_symbolic(style: EncodingStyle) {
        let fsm = rotator();
        fsm.validate().unwrap();
        let enc = Encoding::assign(&fsm, style);
        let net = FsmNetwork::synthesize(&fsm, enc.clone(), Effort::High);
        // Walk every state and input combination; the encoded step must
        // agree with the symbolic machine.
        for state in 0..fsm.num_states() {
            for inputs in 0..4u64 {
                let (sym_next, sym_out) = fsm.step(state, inputs);
                let (enc_next, enc_out) = net.step_encoded(enc.code(state), inputs);
                assert_eq!(
                    enc_next,
                    enc.code(sym_next),
                    "next-state mismatch in {style} for state {state} inputs {inputs:#b}"
                );
                assert_eq!(enc_out, sym_out, "output mismatch in {style}");
            }
        }
    }

    #[test]
    fn one_hot_network_matches_fsm() {
        check_encoded_matches_symbolic(EncodingStyle::OneHot);
    }

    #[test]
    fn compact_network_matches_fsm() {
        check_encoded_matches_symbolic(EncodingStyle::Compact);
    }

    #[test]
    fn gray_network_matches_fsm() {
        check_encoded_matches_symbolic(EncodingStyle::Gray);
    }

    #[test]
    fn one_hot_has_more_ffs_fewer_lits_per_function() {
        let fsm = rotator();
        let oh = FsmNetwork::synthesize(
            &fsm,
            Encoding::assign(&fsm, EncodingStyle::OneHot),
            Effort::Medium,
        );
        let cp = FsmNetwork::synthesize(
            &fsm,
            Encoding::assign(&fsm, EncodingStyle::Compact),
            Effort::Medium,
        );
        assert_eq!(oh.encoding().bits(), 3);
        assert_eq!(cp.encoding().bits(), 2);
        // One-hot state conditions are single literals, so the average
        // cube in a one-hot SOP is no wider than the compact one.
        let avg = |n: &FsmNetwork| {
            let (lits, cubes): (u32, usize) = n
                .next_state()
                .iter()
                .fold((0, 0), |(l, c), s| (l + s.num_lits(), c + s.cubes().len()));
            lits as f64 / cubes.max(1) as f64
        };
        assert!(avg(&oh) <= avg(&cp) + 1e-9);
    }

    #[test]
    fn reset_code_matches_encoding() {
        let fsm = rotator();
        let enc = Encoding::assign(&fsm, EncodingStyle::OneHot);
        let net = FsmNetwork::synthesize(&fsm, enc.clone(), Effort::Low);
        assert_eq!(net.reset_code(), enc.code(fsm.reset_state()));
    }

    #[test]
    fn codes_of_a_larger_machine_stay_off() {
        // An encoding assigned for four states gives the rotator's three
        // states their usual codes, but code 3 names a state and is no
        // don't-care. No transition covers it, so every cover must be 0
        // there: the terms a cover leaves out are not its whole OFF-set.
        let fsm = rotator();
        let mut larger = rotator();
        larger.add_state("S3");
        for style in [EncodingStyle::Compact, EncodingStyle::Gray] {
            let enc = Encoding::assign(&larger, style);
            let unused = enc.code(3);
            for effort in [Effort::Medium, Effort::High] {
                let net = FsmNetwork::synthesize(&fsm, enc.clone(), effort);
                for inputs in 0..4u64 {
                    assert_eq!(
                        net.step_encoded(unused, inputs),
                        (0, 0),
                        "{style} {effort:?}"
                    );
                }
            }
        }
    }
}
