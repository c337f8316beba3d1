//! Property tests for the logic-synthesis substrate: every transformation
//! (minimization, encoding, mapping) must preserve function, checked
//! against brute-force evaluation on bounded variable counts.

use proptest::prelude::*;
use rcarb_logic::cube::Cube;
use rcarb_logic::encode::{Encoding, EncodingStyle};
use rcarb_logic::fsm::{Fsm, Transition};
use rcarb_logic::minimize::{minimize, minimize_with_dc, Effort};
use rcarb_logic::netlist::NetRef;
use rcarb_logic::sop::Sop;
use rcarb_logic::synth::FsmNetwork;
use rcarb_logic::techmap::{map_fsm_network, Mapper};

const VARS: usize = 6;

fn arb_cube() -> impl Strategy<Value = Cube> {
    (0u64..(1 << VARS), 0u64..(1 << VARS))
        .prop_map(|(mask, value)| Cube::from_raw(mask, value & mask))
}

fn arb_sop() -> impl Strategy<Value = Sop> {
    proptest::collection::vec(arb_cube(), 0..8).prop_map(|cubes| Sop::from_cubes(VARS, cubes))
}

fn arb_effort() -> impl Strategy<Value = Effort> {
    prop_oneof![Just(Effort::Low), Just(Effort::Medium), Just(Effort::High)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cube containment agrees with minterm-level subset.
    #[test]
    fn cube_containment_is_minterm_subset(a in arb_cube(), b in arb_cube()) {
        let contains = a.contains(b);
        let brute = (0..(1u64 << VARS)).all(|m| !b.eval(m) || a.eval(m));
        prop_assert_eq!(contains, brute);
    }

    /// Cube intersection agrees with minterm-level overlap.
    #[test]
    fn cube_intersection_is_minterm_overlap(a in arb_cube(), b in arb_cube()) {
        let brute = (0..(1u64 << VARS)).any(|m| a.eval(m) && b.eval(m));
        prop_assert_eq!(a.intersects(b), brute);
    }

    /// Adjacency merging is exact: the merged cube covers exactly the
    /// union.
    #[test]
    fn cube_merge_is_exact_union(a in arb_cube(), b in arb_cube()) {
        if let Some(m) = a.try_merge(b) {
            for minterm in 0..(1u64 << VARS) {
                prop_assert_eq!(m.eval(minterm), a.eval(minterm) || b.eval(minterm));
            }
        }
    }

    /// Tautology checking agrees with brute force.
    #[test]
    fn tautology_matches_brute_force(s in arb_sop()) {
        let brute = (0..(1u64 << VARS)).all(|m| s.eval(m));
        prop_assert_eq!(s.is_tautology(), brute);
    }

    /// covers_cube agrees with brute force.
    #[test]
    fn covers_cube_matches_brute_force(s in arb_sop(), c in arb_cube()) {
        let brute = (0..(1u64 << VARS)).all(|m| !c.eval(m) || s.eval(m));
        prop_assert_eq!(s.covers_cube(c), brute);
    }

    /// Minimization never changes the function, at any effort.
    #[test]
    fn minimize_preserves_function(s in arb_sop(), e in arb_effort()) {
        let m = minimize(&s, e);
        for minterm in 0..(1u64 << VARS) {
            prop_assert_eq!(m.eval(minterm), s.eval(minterm), "minterm {}", minterm);
        }
        // And never increases the literal count.
        prop_assert!(m.num_lits() <= s.num_lits());
    }

    /// Don't-care minimization may only differ inside the DC set.
    #[test]
    fn minimize_with_dc_respects_the_care_set(s in arb_sop(), dc in arb_sop(), e in arb_effort()) {
        let m = minimize_with_dc(&s, &dc, e);
        for minterm in 0..(1u64 << VARS) {
            if !dc.eval(minterm) {
                prop_assert_eq!(m.eval(minterm), s.eval(minterm), "care minterm {}", minterm);
            }
        }
    }

    /// Technology mapping preserves the function (with and without
    /// structural hashing).
    #[test]
    fn techmap_preserves_function(s in arb_sop(), sharing in any::<bool>()) {
        let mut nl = rcarb_logic::netlist::Netlist::new(VARS);
        let mut mapper = Mapper::new(sharing);
        let out = mapper.map_sop(&mut nl, &s, &NetRef::Input);
        nl.push_output(out);
        for minterm in 0..(1u64 << VARS) {
            let inputs: Vec<bool> = (0..VARS).map(|b| minterm >> b & 1 != 0).collect();
            prop_assert_eq!(nl.outputs_for(&[], &inputs)[0], s.eval(minterm));
        }
    }

    /// Encodings always assign unique codes and decode back.
    #[test]
    fn encodings_are_injective(n in 1usize..=20, style_idx in 0usize..3) {
        let style = [EncodingStyle::OneHot, EncodingStyle::Compact, EncodingStyle::Gray][style_idx];
        let mut fsm = Fsm::new("t", 0, 0);
        for i in 0..n {
            fsm.add_state(format!("S{i}"));
        }
        let e = Encoding::assign(&fsm, style);
        for s in 0..n {
            prop_assert_eq!(e.decode(e.code(s)), Some(s));
        }
    }
}

/// Variable count of the wide covers: big enough for the containment
/// kernel's unate reduction and multi-level Shannon splits, small enough
/// to check every minterm.
const WIDE: usize = 10;

/// A cube over `WIDE` variables binding each with probability `1/4`, so
/// covers of a few dozen cubes straddle the tautology boundary.
fn arb_sparse_cube() -> impl Strategy<Value = Cube> {
    (0u64..(1 << WIDE), 0u64..(1 << WIDE), 0u64..(1 << WIDE))
        .prop_map(|(a, b, value)| Cube::from_raw(a & b, value & a & b))
}

/// A cube over `WIDE` variables binding each with probability `3/4`.
fn arb_dense_cube() -> impl Strategy<Value = Cube> {
    (0u64..(1 << WIDE), 0u64..(1 << WIDE), 0u64..(1 << WIDE))
        .prop_map(|(a, b, value)| Cube::from_raw(a | b, value & (a | b)))
}

fn arb_wide_sop() -> impl Strategy<Value = Sop> {
    prop_oneof![
        proptest::collection::vec(arb_sparse_cube(), 0..=40),
        proptest::collection::vec(arb_dense_cube(), 0..=40),
    ]
    .prop_map(|cubes| Sop::from_cubes(WIDE, cubes))
}

/// Variable count of the covers built for divisor extraction.
const MAP_VARS: usize = 9;

/// Covers built to exercise divisor extraction: groups of cubes sharing a
/// base and differing in one literal, so many cubes share a signature,
/// buckets tie, and extraction runs for several rounds; a spine cube on
/// five variables keeps the support wider than one LUT.
fn arb_factorable_sop() -> impl Strategy<Value = Sop> {
    let group = (
        0u64..(1 << MAP_VARS),
        0u64..(1 << MAP_VARS),
        proptest::collection::vec((0usize..MAP_VARS, any::<bool>()), 2..6),
    );
    (0u64..32, proptest::collection::vec(group, 1..7)).prop_map(|(spine, groups)| {
        let mut cubes = vec![Cube::from_raw(0b1_1111, spine)];
        for (mask, value, variants) in groups {
            let base = Cube::from_raw(mask, value & mask);
            for (v, p) in variants {
                if base.lit(v).is_none() {
                    cubes.push(base.with_lit(v, p));
                }
            }
        }
        Sop::from_cubes(MAP_VARS, cubes)
    })
}

fn bits(minterm: u64, vars: usize) -> Vec<bool> {
    (0..vars).map(|b| minterm >> b & 1 != 0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tautology checking agrees with brute force on wide covers.
    #[test]
    fn wide_tautology_matches_brute_force(s in arb_wide_sop()) {
        let brute = (0..(1u64 << WIDE)).all(|m| s.eval(m));
        prop_assert_eq!(s.is_tautology(), brute);
    }

    /// covers_cube agrees with brute force on wide covers.
    #[test]
    fn wide_covers_cube_matches_brute_force(s in arb_wide_sop(), c in arb_sparse_cube()) {
        let brute = (0..(1u64 << WIDE)).all(|m| !c.eval(m) || s.eval(m));
        prop_assert_eq!(s.covers_cube(c), brute);
    }

    /// Don't-care minimization of wide covers only differs inside the DC
    /// set, at every effort.
    #[test]
    fn wide_minimize_with_dc_respects_the_care_set(
        s in arb_wide_sop(),
        dc in proptest::collection::vec(arb_dense_cube(), 0..8),
        e in arb_effort(),
    ) {
        let dc = Sop::from_cubes(WIDE, dc);
        let m = minimize_with_dc(&s, &dc, e);
        for minterm in 0..(1u64 << WIDE) {
            if !dc.eval(minterm) {
                prop_assert_eq!(m.eval(minterm), s.eval(minterm), "care minterm {}", minterm);
            }
        }
    }

    /// Mapping with structural sharing evaluates to the SOP on every
    /// minterm, for covers whose cubes share literals so that divisor
    /// extraction runs; a second cover mapped by the same mapper reuses
    /// the first one's nodes and must stay correct too.
    #[test]
    fn shared_mapping_of_factorable_covers_preserves_function(
        a in arb_factorable_sop(),
        b in arb_factorable_sop(),
    ) {
        let mut nl = rcarb_logic::netlist::Netlist::new(MAP_VARS);
        let mut mapper = Mapper::new(true);
        for s in [&a, &b] {
            let out = mapper.map_sop(&mut nl, s, &NetRef::Input);
            nl.push_output(out);
        }
        for minterm in 0..(1u64 << MAP_VARS) {
            let outs = nl.outputs_for(&[], &bits(minterm, MAP_VARS));
            prop_assert_eq!(outs[0], a.eval(minterm), "first cover, minterm {}", minterm);
            prop_assert_eq!(outs[1], b.eval(minterm), "second cover, minterm {}", minterm);
        }
    }
}

/// A random deterministic, complete 1-input Mealy machine.
fn arb_fsm() -> impl Strategy<Value = Fsm> {
    let n_states = 2usize..=5;
    n_states
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n, 0u64..4, 0u64..4), n),
            )
        })
        .prop_map(|(n, rows)| {
            let mut fsm = Fsm::new("rand", 1, 2);
            for i in 0..n {
                fsm.add_state(format!("S{i}"));
            }
            for (s, (t_hi, t_lo, o_hi, o_lo)) in rows.into_iter().enumerate() {
                fsm.add_transition(Transition {
                    from: s,
                    guard: Cube::universe().with_lit(0, true),
                    to: t_hi,
                    outputs: o_hi & 0b11,
                });
                fsm.add_transition(Transition {
                    from: s,
                    guard: Cube::universe().with_lit(0, false),
                    to: t_lo,
                    outputs: o_lo & 0b11,
                });
            }
            fsm
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For random FSMs, symbolic stepping, the encoded network and the
    /// mapped netlist all agree along random input walks, under every
    /// encoding and effort.
    #[test]
    fn fsm_synthesis_pipeline_is_equivalent(
        fsm in arb_fsm(),
        walk in proptest::collection::vec(any::<bool>(), 1..60),
        style_idx in 0usize..3,
        effort in arb_effort(),
    ) {
        fsm.validate().expect("generated FSMs are deterministic and complete");
        let style = [EncodingStyle::OneHot, EncodingStyle::Compact, EncodingStyle::Gray][style_idx];
        let enc = Encoding::assign(&fsm, style);
        let net = FsmNetwork::synthesize(&fsm, enc.clone(), effort);
        let nl = map_fsm_network(&net, true);
        let mut sym = fsm.reset_state();
        let mut code = net.reset_code();
        let mut hw = nl.reset_state();
        for (i, inp) in walk.into_iter().enumerate() {
            let word = u64::from(inp);
            let (sym_next, sym_out) = fsm.step(sym, word);
            let (code_next, net_out) = net.step_encoded(code, word);
            let hw_out = nl.step(&mut hw, &[inp]);
            let hw_word = hw_out
                .iter()
                .enumerate()
                .fold(0u64, |w, (b, &v)| if v { w | 1 << b } else { w });
            prop_assert_eq!(net_out, sym_out, "step {}: network output", i);
            prop_assert_eq!(hw_word, sym_out, "step {}: netlist output", i);
            prop_assert_eq!(code_next, enc.code(sym_next), "step {}: state code", i);
            sym = sym_next;
            code = code_next;
        }
    }
}
