//! Differential test of OFF-set expansion on the real arbiter machines.
//!
//! `FsmNetwork::synthesize` expands the covers of a validated compact or
//! Gray machine against the OFF-set it reads off the transitions, where
//! the public `minimize_with_dc` expands by tautology checking. This test
//! rebuilds every raw cover and the don't-care set from the transitions,
//! minimizes each with `minimize_with_dc`, and requires the network's
//! cover to equal the result cube for cube: the Fig. 5 round-robin
//! machine and the preemptive one, N = 1..=12, compact and Gray, at the
//! FPGA Express (Medium) and Synplify (High) efforts. A machine with an
//! incomplete state fails `Fsm::validate`, so synthesis takes the
//! tautology path for it; it must agree too.

use rcarb_core::policy::DEFAULT_PREEMPT_QUANTUM;
use rcarb_core::preempt::preemptive_round_robin_fsm;
use rcarb_core::rr::round_robin_fsm;
use rcarb_logic::cube::Cube;
use rcarb_logic::encode::{Encoding, EncodingStyle};
use rcarb_logic::fsm::Fsm;
use rcarb_logic::minimize::{minimize_with_dc, Effort};
use rcarb_logic::sop::Sop;
use rcarb_logic::synth::FsmNetwork;

/// The full cube of `code` over the state bits `0..bits`.
fn code_cube(code: u64, bits: usize) -> Cube {
    (0..bits).fold(Cube::universe(), |c, b| c.with_lit(b, code >> b & 1 != 0))
}

/// The next-state covers, then the output covers, of `fsm` under the
/// dense encoding `enc`, each minimized by `minimize_with_dc` against the
/// unused codes.
fn reference_covers(fsm: &Fsm, enc: &Encoding, effort: Effort) -> Vec<Sop> {
    let bits = enc.bits();
    let num_vars = bits + fsm.num_inputs();
    let mut covers = vec![Sop::zero(num_vars); bits + fsm.num_outputs()];
    for t in fsm.transitions() {
        let mut term = code_cube(enc.code(t.from), bits);
        for v in 0..fsm.num_inputs() {
            if let Some(p) = t.guard.lit(v) {
                term = term.with_lit(bits + v, p);
            }
        }
        let on = |i: usize| match i.checked_sub(bits) {
            None => enc.code(t.to) >> i & 1 != 0,
            Some(o) => t.outputs >> o & 1 != 0,
        };
        for (i, cover) in covers.iter_mut().enumerate() {
            if on(i) {
                cover.add_cube(term);
            }
        }
    }
    let unused = (0..1u64 << bits)
        .filter(|&code| enc.decode(code).is_none())
        .map(|code| code_cube(code, bits))
        .collect();
    let dc = Sop::from_cubes(num_vars, unused);
    covers
        .iter()
        .map(|cover| minimize_with_dc(cover, &dc, effort))
        .collect()
}

fn assert_network_matches_reference(fsm: &Fsm) {
    for style in [EncodingStyle::Compact, EncodingStyle::Gray] {
        let enc = Encoding::assign(fsm, style);
        for effort in [Effort::Medium, Effort::High] {
            let net = FsmNetwork::synthesize(fsm, enc.clone(), effort);
            let actual: Vec<&Sop> = net.next_state().iter().chain(net.outputs()).collect();
            let expected = reference_covers(fsm, &enc, effort);
            assert_eq!(actual.len(), expected.len());
            for (i, (a, e)) in actual.into_iter().zip(&expected).enumerate() {
                assert_eq!(a, e, "{} {style} {effort:?}: cover {i} differs", fsm.name());
            }
        }
    }
}

#[test]
fn round_robin_covers_equal_tautology_expansion() {
    for n in 1..=12 {
        let fsm = round_robin_fsm(n);
        fsm.validate().expect("the round-robin machine validates");
        assert_network_matches_reference(&fsm);
    }
}

#[test]
fn preemptive_covers_equal_tautology_expansion() {
    for n in 1..=12 {
        let fsm = preemptive_round_robin_fsm(n, DEFAULT_PREEMPT_QUANTUM);
        fsm.validate().expect("the preemptive machine validates");
        assert_network_matches_reference(&fsm);
    }
}

#[test]
fn incomplete_machine_falls_back_to_tautology_expansion() {
    // The N = 5 round-robin machine without its first transition: state
    // F1 no longer covers the all-idle input, so the machine fails
    // validation and its left-out terms are no OFF-set.
    let full = round_robin_fsm(5);
    let mut fsm = Fsm::new("rr_incomplete", full.num_inputs(), full.num_outputs());
    for name in full.state_names() {
        fsm.add_state(name.clone());
    }
    fsm.set_reset(full.reset_state());
    for &t in &full.transitions()[1..] {
        fsm.add_transition(t);
    }
    assert!(fsm.validate().is_err());
    assert_network_matches_reference(&fsm);
}
