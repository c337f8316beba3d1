//! Espresso-style two-level minimization.
//!
//! Three effort levels model the optimization strength of the synthesis
//! tools in the paper's evaluation (Sec. 4.2): FPGA Express behaves like
//! [`Effort::Medium`], Synplify like [`Effort::High`]. All transformations
//! are function-preserving; the unit tests check semantic equivalence
//! before/after.
//!
//! Expansion frees a literal of a cube only if the raised cube stays
//! inside the cover plus its don't-cares. [`minimize_with_dc`] decides
//! that by a tautology check of the cover and the don't-cares. When the
//! caller knows the exact OFF-set, the complement of cover ∪ don't-cares,
//! the crate-internal `minimize_with_off` asks instead whether the raised
//! cube meets an OFF cube (Brayton et al., *Logic Minimization Algorithms
//! for VLSI Synthesis*, 1984). Expansion never leaves cover ∪
//! don't-cares, so the two tests agree on every candidate and give the
//! same cover cube for cube. `FsmNetwork::synthesize` reads the OFF-set
//! of a validated dense-encoded machine off its transitions.

use crate::cube::Cube;
use crate::sop::{Containment, Sop};
use std::collections::BTreeSet;

/// Optimization effort for two-level minimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Effort {
    /// Duplicate and single-cube-containment removal only.
    Low,
    /// Low, plus iterated adjacency merging (`ab | a!b -> a`) and one
    /// literal-expansion sweep validated by tautology checking or by an
    /// exact OFF-set.
    Medium,
    /// Medium, plus expansion to a fixpoint and an irredundant-cover pass.
    High,
}

/// Minimizes a cover at the given effort, preserving the function.
pub fn minimize(sop: &Sop, effort: Effort) -> Sop {
    minimize_with_dc(sop, &Sop::zero(sop.num_vars()), effort)
}

/// Minimizes a cover against a don't-care set: the result may differ from
/// `sop` only on minterms covered by `dc` (e.g. unreachable state codes of
/// a densely encoded FSM).
///
/// # Panics
///
/// Panics if the two covers disagree on variable count.
pub fn minimize_with_dc(sop: &Sop, dc: &Sop, effort: Effort) -> Sop {
    minimize_bounded(sop, dc, None, effort)
}

/// [`minimize_with_dc`] with expansion checked against `off`, which must
/// be exactly the complement of `sop` ∪ `dc`: the result is the same
/// cover, found without a tautology check per trial literal.
///
/// # Panics
///
/// Panics if the two covers disagree on variable count. Debug builds also
/// panic if an OFF cube meets a cube of `sop` or `dc`; that `off` covers
/// all of the complement is the caller's promise.
pub(crate) fn minimize_with_off(sop: &Sop, dc: &Sop, off: &[Cube], effort: Effort) -> Sop {
    debug_assert!(
        off.iter().all(|&o| !sop
            .cubes()
            .iter()
            .chain(dc.cubes())
            .any(|c| c.intersects(o))),
        "an OFF cube meets the cover or its don't-cares"
    );
    minimize_bounded(sop, dc, Some(off), effort)
}

/// The minimizer behind both entries: `expand` checks a raised cube
/// against `off` when it is given, and by tautology checking otherwise.
fn minimize_bounded(sop: &Sop, dc: &Sop, off: Option<&[Cube]>, effort: Effort) -> Sop {
    assert_eq!(
        sop.num_vars(),
        dc.num_vars(),
        "cover and don't-care set must share a variable space"
    );
    let mut kernel = Containment::default();
    let mut cubes = sop.cubes().to_vec();
    dedupe_and_contain(&mut cubes);
    if effort >= Effort::Medium {
        merge_adjacent(&mut cubes);
        expand(&mut cubes, dc, off, effort >= Effort::High, &mut kernel);
        dedupe_and_contain(&mut cubes);
    }
    if effort >= Effort::High {
        irredundant(&mut cubes, dc, &mut kernel);
    }
    if effort >= Effort::Medium {
        merge_adjacent(&mut cubes);
    }
    Sop::from_cubes(sop.num_vars(), cubes)
}

fn dedupe_and_contain(cubes: &mut Vec<Cube>) {
    cubes.sort();
    cubes.dedup();
    // Remove cubes contained in another cube.
    let snapshot = cubes.clone();
    cubes.retain(|c| {
        !snapshot
            .iter()
            .any(|other| other != c && other.contains(*c))
    });
}

/// Merges adjacent pairs (`ab | a!b -> a`) until none is left. `cubes`
/// must be as [`dedupe_and_contain`] leaves them (sorted, distinct, none
/// inside another), and so is the result.
///
/// Each step merges the first mergeable pair in sorted order: the
/// smallest cube that has a larger partner (same variables, one polarity
/// flipped on), with its smallest such partner. The merged cube contains
/// both and lies inside no other cube, so a step removes every cube the
/// merged one contains and inserts it. `starts` holds the cubes that have
/// a larger partner; a step rechecks only the partners of the cubes it
/// removes and inserts.
fn merge_adjacent(cubes: &mut Vec<Cube>) {
    let mut set: BTreeSet<Cube> = cubes.iter().copied().collect();
    let mut starts: BTreeSet<Cube> = cubes
        .iter()
        .copied()
        .filter(|&c| larger_partner(&set, c).is_some())
        .collect();
    let mut touched = Vec::new();
    while let Some(&c) = starts.first() {
        let partner = larger_partner(&set, c).expect("a start has a partner");
        let merged = c.try_merge(partner).expect("partners merge");
        // Only cubes binding every variable `merged` binds can lie in it.
        let inside: Vec<Cube> = set
            .range(Cube::from_raw(merged.mask(), 0)..)
            .copied()
            .filter(|&x| merged.contains(x))
            .collect();
        touched.clear();
        for x in inside {
            set.remove(&x);
            starts.remove(&x);
            touched.extend(smaller_partners(x));
        }
        set.insert(merged);
        touched.push(merged);
        touched.extend(smaller_partners(merged));
        for &t in &touched {
            if set.contains(&t) && larger_partner(&set, t).is_some() {
                starts.insert(t);
            } else {
                starts.remove(&t);
            }
        }
    }
    cubes.clear();
    cubes.extend(set);
}

/// The smallest cube of `set` equal to `c` with one negative literal made
/// positive: the first cube `c` merges with in sorted order.
fn larger_partner(set: &BTreeSet<Cube>, c: Cube) -> Option<Cube> {
    bits(c.mask() & !c.value())
        .map(|bit| Cube::from_raw(c.mask(), c.value() | bit))
        .find(|p| set.contains(p))
}

/// The cubes equal to `c` with one positive literal made negative: those
/// for which `c` is a larger partner.
fn smaller_partners(c: Cube) -> impl Iterator<Item = Cube> {
    bits(c.value()).map(move |bit| Cube::from_raw(c.mask(), c.value() & !bit))
}

/// The set bits of `word`, lowest first.
fn bits(mut word: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        let bit = word & word.wrapping_neg();
        word &= !bit;
        (bit != 0).then_some(bit)
    })
}

fn expand(
    cubes: &mut [Cube],
    dc: &Sop,
    off: Option<&[Cube]>,
    fixpoint: bool,
    kernel: &mut Containment,
) {
    for i in 0..cubes.len() {
        let mut cube = cubes[i];
        let mut first = true;
        let mut changed = true;
        while changed && (fixpoint || first) {
            first = false;
            changed = false;
            let mut m = cube.mask();
            while m != 0 {
                let v = m.trailing_zeros() as usize;
                m &= m - 1;
                let candidate = cube.without_var(v);
                // Valid iff cover + don't-cares swallow the expanded cube,
                // that is iff it meets no cube of their complement.
                let inside = match off {
                    None => kernel.covers(&[cubes, dc.cubes()], candidate),
                    Some(off) => !off.iter().any(|o| o.intersects(candidate)),
                };
                if inside {
                    cube = candidate;
                    cubes[i] = cube;
                    changed = true;
                }
            }
        }
    }
}

/// Removes cubes whose minterms are already covered by the rest of the
/// cover plus the don't-care set.
fn irredundant(cubes: &mut Vec<Cube>, dc: &Sop, kernel: &mut Containment) {
    let mut i = 0;
    while i < cubes.len() {
        let parts = [&cubes[..i], &cubes[i + 1..], dc.cubes()];
        if kernel.covers(&parts, cubes[i]) {
            cubes.remove(i);
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lit(var: usize, pol: bool) -> Cube {
        Cube::universe().with_lit(var, pol)
    }

    fn check_equiv(before: &Sop, effort: Effort) -> Sop {
        let after = minimize(before, effort);
        assert!(
            before.equivalent(&after),
            "minimization changed the function: {before} vs {after}"
        );
        after
    }

    #[test]
    fn low_removes_contained_cubes() {
        let s = Sop::from_cubes(
            2,
            vec![lit(0, true), lit(0, true).with_lit(1, false), lit(0, true)],
        );
        let m = check_equiv(&s, Effort::Low);
        assert_eq!(m.cubes().len(), 1);
    }

    #[test]
    fn medium_merges_adjacent_pairs() {
        // ab | a!b -> a
        let s = Sop::from_cubes(
            2,
            vec![
                lit(0, true).with_lit(1, true),
                lit(0, true).with_lit(1, false),
            ],
        );
        let m = check_equiv(&s, Effort::Medium);
        assert_eq!(m.cubes().len(), 1);
        assert_eq!(m.cubes()[0], lit(0, true));
    }

    #[test]
    fn medium_merges_cascades() {
        // Four minterms of two variables merge all the way to the universe.
        let s = Sop::from_cubes(
            2,
            vec![
                lit(0, false).with_lit(1, false),
                lit(0, false).with_lit(1, true),
                lit(0, true).with_lit(1, false),
                lit(0, true).with_lit(1, true),
            ],
        );
        let m = check_equiv(&s, Effort::Medium);
        assert_eq!(m.cubes().len(), 1);
        assert_eq!(m.cubes()[0], Cube::universe());
    }

    #[test]
    fn high_expands_redundant_literals() {
        // x0 | !x0&x1: the second cube's !x0 literal is redundant.
        let s = Sop::from_cubes(2, vec![lit(0, true), lit(0, false).with_lit(1, true)]);
        let m = check_equiv(&s, Effort::High);
        assert_eq!(m.num_lits(), 2); // x0 | x1
    }

    #[test]
    fn efforts_are_monotone_in_cost() {
        // A messy cover: cost must not increase with effort.
        let s = Sop::from_cubes(
            3,
            vec![
                lit(0, true).with_lit(1, true).with_lit(2, true),
                lit(0, true).with_lit(1, true).with_lit(2, false),
                lit(0, false).with_lit(1, true).with_lit(2, true),
                lit(0, true).with_lit(1, false).with_lit(2, true),
            ],
        );
        let low = check_equiv(&s, Effort::Low).num_lits();
        let med = check_equiv(&s, Effort::Medium).num_lits();
        let high = check_equiv(&s, Effort::High).num_lits();
        assert!(med <= low);
        assert!(high <= med);
    }

    #[test]
    fn constants_are_fixed_points() {
        assert!(minimize(&Sop::zero(4), Effort::High).is_zero());
        assert!(minimize(&Sop::one(4), Effort::High).is_tautology());
    }

    #[test]
    fn dont_cares_enable_further_expansion() {
        // f = x0&x1, dc = x0&!x1: with the don't-care the cover shrinks to
        // x0 alone.
        let f = Sop::from_cubes(2, vec![lit(0, true).with_lit(1, true)]);
        let dc = Sop::from_cubes(2, vec![lit(0, true).with_lit(1, false)]);
        let m = minimize_with_dc(&f, &dc, Effort::High);
        assert_eq!(m.cubes(), &[lit(0, true)]);
        // The result agrees with f everywhere outside the DC set.
        for minterm in 0..4u64 {
            if !dc.eval(minterm) {
                assert_eq!(m.eval(minterm), f.eval(minterm), "minterm {minterm}");
            }
        }
    }

    #[test]
    fn dc_makes_cover_fully_redundant() {
        // Everything f covers is don't-care... the cover may collapse, but
        // must stay correct outside DC (where f is 0 anyway).
        let f = Sop::from_cubes(2, vec![lit(0, true).with_lit(1, true)]);
        let dc = f.clone();
        let m = minimize_with_dc(&f, &dc, Effort::High);
        for minterm in 0..4u64 {
            if !dc.eval(minterm) {
                assert_eq!(m.eval(minterm), f.eval(minterm));
            }
        }
    }

    #[test]
    fn empty_dc_behaves_like_plain_minimize() {
        let s = Sop::from_cubes(2, vec![lit(0, true), lit(0, false).with_lit(1, true)]);
        assert_eq!(
            minimize(&s, Effort::High),
            minimize_with_dc(&s, &Sop::zero(2), Effort::High)
        );
    }

    #[test]
    #[should_panic(expected = "variable space")]
    fn mismatched_dc_space_rejected() {
        let _ = minimize_with_dc(&Sop::zero(2), &Sop::zero(3), Effort::Low);
    }

    const OFF_SET_VARS: usize = 6;

    /// A random cube over [`OFF_SET_VARS`] variables, binding each with
    /// probability 3/4.
    fn arb_cube() -> impl Strategy<Value = Cube> {
        let all = 1u64 << OFF_SET_VARS;
        (0..all, 0..all, 0..all).prop_map(|(a, b, v)| Cube::from_raw(a | b, v & (a | b)))
    }

    /// Every minterm outside `sop` ∪ `dc`, each as a full cube: the exact
    /// OFF-set, built without the minimizer's own kernels.
    fn off_set(sop: &Sop, dc: &Sop) -> Vec<Cube> {
        let full = (1u64 << OFF_SET_VARS) - 1;
        (0..=full)
            .filter(|&m| !sop.eval(m) && !dc.eval(m))
            .map(|m| Cube::from_raw(full, m))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Expanding against the exact OFF-set gives the tautology path's
        /// cover cube for cube, at every effort.
        #[test]
        fn off_set_expansion_matches_tautology_expansion(
            f in proptest::collection::vec(arb_cube(), 0..12),
            dc in proptest::collection::vec(arb_cube(), 0..4),
        ) {
            let f = Sop::from_cubes(OFF_SET_VARS, f);
            let dc = Sop::from_cubes(OFF_SET_VARS, dc);
            let off = off_set(&f, &dc);
            for effort in [Effort::Low, Effort::Medium, Effort::High] {
                prop_assert_eq!(
                    minimize_with_off(&f, &dc, &off, effort),
                    minimize_with_dc(&f, &dc, effort),
                    "f = {}, dc = {}, effort {:?}", f, dc, effort
                );
            }
        }
    }
}
