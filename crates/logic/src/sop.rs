//! Sum-of-products covers.

use crate::cube::Cube;
use std::fmt;

/// A sum-of-products cover over `num_vars` variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sop {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Sop {
    /// The constant-false cover.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 64`.
    pub fn zero(num_vars: usize) -> Self {
        assert!(num_vars <= 64, "SOPs are limited to 64 variables");
        Self {
            num_vars,
            cubes: Vec::new(),
        }
    }

    /// The constant-true cover.
    pub fn one(num_vars: usize) -> Self {
        let mut s = Self::zero(num_vars);
        s.cubes.push(Cube::universe());
        s
    }

    /// Builds a cover from cubes.
    pub fn from_cubes(num_vars: usize, cubes: Vec<Cube>) -> Self {
        let mut s = Self::zero(num_vars);
        s.cubes = cubes;
        s
    }

    /// Number of variables in the cover's space.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Adds one product term.
    pub fn add_cube(&mut self, cube: Cube) {
        self.cubes.push(cube);
    }

    /// Total number of literals across all cubes (a standard cost metric).
    pub fn num_lits(&self) -> u32 {
        self.cubes.iter().map(|c| c.num_lits()).sum()
    }

    /// Returns true when the cover has no cubes (constant false).
    pub fn is_zero(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Evaluates the cover on a minterm.
    pub fn eval(&self, assignment: u64) -> bool {
        self.cubes.iter().any(|c| c.eval(assignment))
    }

    /// The set of variables actually referenced by the cover, ascending.
    pub fn support(&self) -> Vec<usize> {
        let mut used = 0u64;
        for c in &self.cubes {
            used |= c.mask();
        }
        (0..self.num_vars)
            .filter(|&v| used & (1 << v) != 0)
            .collect()
    }

    /// Returns true if the cover is a tautology (covers every minterm).
    pub fn is_tautology(&self) -> bool {
        self.covers_cube(Cube::universe())
    }

    /// Returns true if this cover covers every minterm of `cube`.
    pub fn covers_cube(&self, cube: Cube) -> bool {
        Containment::default().covers(&[&self.cubes], cube)
    }

    /// Returns true if the two covers denote the same function.
    ///
    /// Checked by mutual cube coverage, so it is exact (not structural).
    pub fn equivalent(&self, other: &Sop) -> bool {
        self.cubes.iter().all(|&c| other.covers_cube(c))
            && other.cubes.iter().all(|&c| self.covers_cube(c))
    }
}

/// The containment kernel behind [`Sop::covers_cube`],
/// [`Sop::is_tautology`] and the minimizer's expand/irredundant passes.
///
/// A check makes one pass over the cover that keeps the cubes meeting the
/// candidate, with the candidate's variables freed (the cofactor by every
/// bound literal at once), then decides tautology of that cofactor by
/// Shannon expansion on one stack of cubes: each level pushes its
/// cofactor above its parent and truncates it afterwards, so a warm
/// kernel allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Containment {
    stack: Vec<Cube>,
}

impl Containment {
    /// Returns true if the union of `parts` covers every minterm of `cube`.
    pub(crate) fn covers(&mut self, parts: &[&[Cube]], cube: Cube) -> bool {
        self.stack.clear();
        let free = !cube.mask();
        for &c in parts.iter().flat_map(|part| part.iter()) {
            if c.intersects(cube) {
                let rest = Cube::from_raw(c.mask() & free, c.value() & free);
                if rest.num_lits() == 0 {
                    return true;
                }
                self.stack.push(rest);
            }
        }
        tautology(&mut self.stack, 0)
    }
}

/// Decides whether `stack[start..]`, a cover without the universal cube,
/// is a tautology; `stack` is restored to its length on entry.
fn tautology(stack: &mut Vec<Cube>, start: usize) -> bool {
    let end = stack.len();
    let (mut pos, mut neg) = (0u64, 0u64);
    for &c in &stack[start..end] {
        pos |= c.value();
        neg |= c.mask() & !c.value();
    }
    // A variable bound in one polarity only is unate: the cover is a
    // tautology iff its cofactor against the absent polarity is, and that
    // cofactor is exactly the cubes not binding any unate variable. A
    // fully unate cover thus reduces to "holds the universal cube", which
    // the callers have already ruled out.
    let binate = pos & neg;
    if binate == 0 {
        return false;
    }
    let unate = (pos | neg) & !binate;
    if unate != 0 {
        for i in start..end {
            let c = stack[i];
            if c.mask() & unate == 0 {
                stack.push(c);
            }
        }
        let taut = tautology(stack, end);
        stack.truncate(end);
        return taut;
    }
    // Split on the binate variable bound by the most cubes.
    let mut counts = [0u32; 64];
    for &c in &stack[start..end] {
        let mut m = c.mask();
        while m != 0 {
            counts[m.trailing_zeros() as usize] += 1;
            m &= m - 1;
        }
    }
    let var = (0..64)
        .filter(|&v| binate >> v & 1 != 0)
        .max_by_key(|&v| counts[v])
        .expect("binate variable");
    for polarity in [false, true] {
        let mut universal = false;
        for i in start..end {
            if let Some(c) = stack[i].cofactor(var, polarity) {
                if c.num_lits() == 0 {
                    universal = true;
                    break;
                }
                stack.push(c);
            }
        }
        let taut = universal || tautology(stack, end);
        stack.truncate(end);
        if !taut {
            return false;
        }
    }
    true
}

impl fmt::Display for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return f.write_str("0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(var: usize, pol: bool) -> Cube {
        Cube::universe().with_lit(var, pol)
    }

    #[test]
    fn eval_or_of_cubes() {
        let s = Sop::from_cubes(2, vec![lit(0, true), lit(1, true)]);
        assert!(s.eval(0b01));
        assert!(s.eval(0b10));
        assert!(s.eval(0b11));
        assert!(!s.eval(0b00));
    }

    #[test]
    fn constants() {
        assert!(Sop::one(3).eval(0b101));
        assert!(!Sop::zero(3).eval(0b101));
        assert!(Sop::zero(3).is_zero());
        assert!(Sop::one(3).is_tautology());
        assert!(!Sop::zero(3).is_tautology());
    }

    #[test]
    fn tautology_x_or_not_x() {
        let s = Sop::from_cubes(1, vec![lit(0, true), lit(0, false)]);
        assert!(s.is_tautology());
    }

    #[test]
    fn tautology_needs_full_cover() {
        // x0 | (!x0 & x1) is not a tautology (misses !x0 & !x1).
        let s = Sop::from_cubes(2, vec![lit(0, true), lit(0, false).with_lit(1, true)]);
        assert!(!s.is_tautology());
        // Adding the missing cube makes it one.
        let mut s2 = s.clone();
        s2.add_cube(lit(0, false).with_lit(1, false));
        assert!(s2.is_tautology());
    }

    #[test]
    fn covers_cube_detects_multi_cube_cover() {
        // {x0&x1, x0&!x1} covers x0 even though no single cube does.
        let s = Sop::from_cubes(
            2,
            vec![
                lit(0, true).with_lit(1, true),
                lit(0, true).with_lit(1, false),
            ],
        );
        assert!(s.covers_cube(lit(0, true)));
        assert!(!s.covers_cube(Cube::universe()));
    }

    #[test]
    fn support_lists_used_vars() {
        let s = Sop::from_cubes(8, vec![lit(1, true).with_lit(5, false)]);
        assert_eq!(s.support(), vec![1, 5]);
    }

    #[test]
    fn equivalence_is_semantic() {
        let a = Sop::from_cubes(2, vec![lit(0, true), lit(1, true)]);
        let b = Sop::from_cubes(2, vec![lit(0, true).with_lit(1, false), lit(1, true)]);
        assert!(a.equivalent(&b)); // x0 | x1 == (x0&!x1) | x1
        let c = Sop::from_cubes(2, vec![lit(0, true)]);
        assert!(!a.equivalent(&c));
    }

    #[test]
    fn exhaustive_eval_matches_tautology() {
        // Brute-force cross-check on 4 variables.
        let s = Sop::from_cubes(
            4,
            vec![
                lit(0, true),
                lit(0, false).with_lit(1, true),
                lit(0, false).with_lit(1, false).with_lit(2, true),
                lit(0, false).with_lit(1, false).with_lit(2, false),
            ],
        );
        let brute = (0..16u64).all(|m| s.eval(m));
        assert_eq!(brute, s.is_tautology());
        assert!(brute);
    }
}
