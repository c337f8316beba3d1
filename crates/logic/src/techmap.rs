//! Technology mapping: SOPs onto 4-input LUTs.
//!
//! Functions whose support fits a single LUT are mapped directly (truth
//! table enumeration); wider functions decompose into AND trees per cube
//! followed by an OR tree, the classic two-level-to-LUT covering. An
//! optional structural-hashing cache shares identical LUTs between
//! functions; both tool models turn it on.

use crate::netlist::{and_truth, or_truth, NetRef, Netlist};
use crate::sop::Sop;
use crate::synth::FsmNetwork;
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// A cube as an ordered literal list over mapped nets.
type LitList = Vec<(NetRef, bool)>;
/// The cubes sharing a divisor: (cube position, dropped literal).
type Chosen = Vec<(usize, (NetRef, bool))>;

/// A LUT's structural-hashing key: its inputs padded to four, their
/// count and its truth table.
type LutKey = ([NetRef; 4], u8, u16);

/// Maps synthesized FSM networks (and standalone SOPs) onto a [`Netlist`].
#[derive(Debug)]
pub struct Mapper {
    sharing: bool,
    cache: HashMap<LutKey, NetRef, BuildHasherDefault<SigHasher>>,
}

impl Mapper {
    /// Creates a mapper; `sharing` enables structural hashing.
    pub fn new(sharing: bool) -> Self {
        Self {
            sharing,
            cache: HashMap::default(),
        }
    }

    /// Emits the LUT `truth` over `inputs`, or returns the identical LUT
    /// emitted before when sharing is on. The input list is copied only
    /// when a node is added.
    fn emit(&mut self, nl: &mut Netlist, inputs: &[NetRef], truth: u16) -> NetRef {
        if !self.sharing {
            return nl.add_node(inputs.to_vec(), truth);
        }
        assert!(inputs.len() <= 4, "LUTs take between 1 and 4 inputs");
        let mut padded = [NetRef::Const(false); 4];
        padded[..inputs.len()].copy_from_slice(inputs);
        *self
            .cache
            .entry((padded, inputs.len() as u8, truth))
            .or_insert_with(|| nl.add_node(inputs.to_vec(), truth))
    }

    /// Maps one SOP whose variable `v` resolves to `var_map(v)`.
    pub fn map_sop(
        &mut self,
        nl: &mut Netlist,
        sop: &Sop,
        var_map: &dyn Fn(usize) -> NetRef,
    ) -> NetRef {
        if sop.is_zero() {
            return NetRef::Const(false);
        }
        if sop.cubes().iter().any(|c| c.num_lits() == 0) {
            return NetRef::Const(true);
        }
        let support = sop.support();
        if support.len() <= 4 {
            // Direct truth-table enumeration over the support.
            let mut refs = [NetRef::Const(false); 4];
            for (r, &v) in refs.iter_mut().zip(&support) {
                *r = var_map(v);
            }
            let mut truth = 0u16;
            for idx in 0..(1usize << support.len()) {
                let mut assignment = 0u64;
                for (j, &v) in support.iter().enumerate() {
                    if idx >> j & 1 != 0 {
                        assignment |= 1 << v;
                    }
                }
                if sop.eval(assignment) {
                    truth |= 1 << idx;
                }
            }
            return self.emit(nl, &refs[..support.len()], truth);
        }
        // Two-level decomposition: AND per cube, OR across cubes. Literals
        // are ordered highest-variable-first, which puts the FSM *inputs*
        // (mapped above the state bits) ahead of the state literals; the
        // request scan chains `!R_i & !R_(i+1) & ...` of an arbiter then
        // align across states and the structural-hashing cache shares
        // their AND prefixes — the sharing a real technology mapper finds.
        let mut cube_lits: Vec<LitList> = Vec::with_capacity(sop.cubes().len());
        for cube in sop.cubes() {
            let mut lits: Vec<(NetRef, bool)> = Vec::new();
            let mut m = cube.mask();
            while m != 0 {
                let v = 63 - m.leading_zeros() as usize;
                m &= !(1u64 << v);
                lits.push((var_map(v), cube.lit(v).expect("bound literal")));
            }
            cube_lits.push(lits);
        }
        self.extract_divisors(nl, &mut cube_lits);
        let mut cube_outs = Vec::with_capacity(cube_lits.len());
        for lits in cube_lits {
            cube_outs.push(self.map_and(nl, lits));
        }
        self.map_or(nl, cube_outs)
    }

    /// Single-literal divisor extraction (the simplest fast_extract case):
    /// rewrite `d&x | d&y | d&z` as `d & (x|y|z)`, turning the variant
    /// literals into one shared OR node. For arbiter FSMs this pairs the
    /// `C_s`/`F_s` state literals that guard identical scan chains — the
    /// dominant factoring a multi-level synthesizer finds in this logic.
    ///
    /// Each round picks the signature ("cube minus one literal") shared by
    /// the most distinct cubes, ties going to the smallest signature, and
    /// replaces those cubes by one factored cube. The [`DivisorIndex`]
    /// carries the signature buckets across rounds, so a round costs only
    /// the cubes it removes and adds.
    fn extract_divisors(&mut self, nl: &mut Netlist, cube_lits: &mut Vec<LitList>) {
        let mut index = DivisorIndex::new(std::mem::take(cube_lits));
        while let Some((sig, chosen)) = index.best() {
            // Build the OR of the variant literals.
            let mut terms: Vec<NetRef> = Vec::with_capacity(chosen.len());
            for &(_, (r, pol)) in &chosen {
                if pol {
                    terms.push(r);
                } else {
                    terms.push(self.emit(nl, &[r], 0b01));
                }
            }
            terms.sort();
            terms.dedup();
            let or_node = self.map_or(nl, terms);
            // Replace the matched cubes with one factored cube.
            let positions: Vec<usize> = chosen.iter().map(|&(pos, _)| pos).collect();
            let mut new_cube = sig;
            new_cube.push((or_node, true));
            index.replace(&positions, new_cube);
        }
        *cube_lits = index.into_cubes();
    }

    fn map_and(&mut self, nl: &mut Netlist, mut lits: Vec<(NetRef, bool)>) -> NetRef {
        loop {
            if lits.len() == 1 {
                let (r, pol) = lits[0];
                if pol {
                    return r;
                }
                return self.emit(nl, &[r], 0b01); // NOT
            }
            let mut next = Vec::with_capacity(lits.len().div_ceil(4));
            for chunk in lits.chunks(4) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                } else {
                    let mut refs = [NetRef::Const(false); 4];
                    let mut pols = [false; 4];
                    for (j, &(r, p)) in chunk.iter().enumerate() {
                        refs[j] = r;
                        pols[j] = p;
                    }
                    let k = chunk.len();
                    let node = self.emit(nl, &refs[..k], and_truth(&pols[..k]));
                    next.push((node, true));
                }
            }
            lits = next;
        }
    }

    fn map_or(&mut self, nl: &mut Netlist, mut terms: Vec<NetRef>) -> NetRef {
        loop {
            if terms.len() == 1 {
                return terms[0];
            }
            let mut next = Vec::with_capacity(terms.len().div_ceil(4));
            for chunk in terms.chunks(4) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                } else {
                    let node = self.emit(nl, chunk, or_truth(chunk.len()));
                    next.push(node);
                }
            }
            terms = next;
        }
    }
}

/// A literal packed into one word whose integer order is the order of
/// `(NetRef, bool)`: the variant tag in the top two bits, the variant's
/// payload above the polarity bit.
type Lit = u64;

fn pack(lit: (NetRef, bool)) -> Lit {
    let (tag, payload) = match lit.0 {
        NetRef::Const(v) => (0, usize::from(v)),
        NetRef::Input(i) => (1, i),
        NetRef::Reg(i) => (2, i),
        NetRef::Node(i) => (3, i),
    };
    let payload = payload as u64;
    assert!(payload < 1 << 61, "net index out of range");
    tag << 62 | payload << 1 | u64::from(lit.1)
}

fn unpack(lit: Lit) -> (NetRef, bool) {
    let payload = (lit >> 1 & ((1 << 61) - 1)) as usize;
    let r = match lit >> 62 {
        0 => NetRef::Const(payload != 0),
        1 => NetRef::Input(payload),
        2 => NetRef::Reg(payload),
        _ => NetRef::Node(payload),
    };
    (r, lit & 1 != 0)
}

/// A multiply-rotate hasher for the LUT cache's keys and the divisor
/// index's signature hashes, on which SipHash would spend most of the
/// mapper's time. Neither map is ever iterated, so its hash order is
/// never observed, and the keys come from the mapper's own covers, not
/// from outside input.
#[derive(Default)]
struct SigHasher(u64);

impl Hasher for SigHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The odd base of the polynomial signature hash.
const SIG_BASE: u64 = 0x9e37_79b9_7f4a_7c15;

/// The bits of a signature hash that are kept. Unit tests keep two, so
/// that every bucket lookup there walks a collision chain.
#[cfg(not(test))]
const SIG_HASH_MASK: u64 = u64::MAX;
#[cfg(test)]
const SIG_HASH_MASK: u64 = 0b11;

/// The end of a bucket chain.
const NIL: usize = usize::MAX;

/// The cubes under divisor extraction, indexed by signature.
///
/// Every cube gets a stable id; `order` lists the ids by current position,
/// and removal mirrors `Vec::swap_remove` on it. A bucket lists its member
/// cubes as `(id, dropped-literal index)` entries; one cube's entries are
/// pushed together and so stay adjacent. A signature is never stored as a
/// list: it is the first member's cube minus its dropped literal.
///
/// Buckets live in a slab whose freed slots are reused, reached through a
/// map from the signature's polynomial hash to the head of a chain of
/// buckets; a lookup compares the literals of each bucket on the chain
/// exactly, so two signatures whose hashes collide stay apart. Buckets
/// reaching two distinct cubes are kept in `ranked`, most distinct cubes
/// first and then by signature, so its first entry is the next divisor;
/// only there is a signature built as a list.
#[derive(Debug)]
struct DivisorIndex {
    cubes: Vec<Vec<Lit>>,
    order: Vec<usize>,
    pos: Vec<usize>,
    heads: HashMap<u64, usize, BuildHasherDefault<SigHasher>>,
    buckets: Vec<Bucket>,
    free: Vec<usize>,
    ranked: BTreeSet<(Reverse<usize>, Vec<Lit>, usize)>,
    hashes: Vec<u64>,
}

/// The cubes that share one signature.
#[derive(Debug, Default)]
struct Bucket {
    /// The first member, kept inline so that a signature only one cube
    /// has allocates nothing.
    first: (usize, usize),
    rest: Vec<(usize, usize)>,
    distinct: usize,
    /// The next bucket on this one's hash chain.
    next: usize,
}

impl Bucket {
    fn members(&self) -> impl Iterator<Item = &(usize, usize)> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    fn push(&mut self, id: usize, drop: usize) {
        if self.rest.last().unwrap_or(&self.first).0 != id {
            self.distinct += 1;
        }
        self.rest.push((id, drop));
    }

    /// Removes every entry of cube `id`, keeping the others in order.
    fn remove(&mut self, id: usize) {
        let n = self.rest.len();
        self.rest.retain(|&(m, _)| m != id);
        if self.first.0 == id {
            self.distinct -= 1;
            if !self.rest.is_empty() {
                self.first = self.rest.remove(0);
            }
        } else if self.rest.len() != n {
            self.distinct -= 1;
        }
    }
}

impl DivisorIndex {
    fn new(cubes: Vec<LitList>) -> Self {
        let n = cubes.len();
        let mut index = Self {
            cubes: cubes
                .into_iter()
                .map(|lits| lits.into_iter().map(pack).collect())
                .collect(),
            order: (0..n).collect(),
            pos: (0..n).collect(),
            heads: HashMap::default(),
            buckets: Vec::new(),
            free: Vec::new(),
            ranked: BTreeSet::new(),
            hashes: Vec::new(),
        };
        for id in 0..n {
            index.update(id, true);
        }
        index
    }

    /// The best signature and its cubes as `(position, dropped literal)`,
    /// one per cube in position order, or `None` when no signature is
    /// shared by two cubes.
    fn best(&self) -> Option<(LitList, Chosen)> {
        let (_, sig, slot) = self.ranked.first()?;
        let mut chosen = Chosen::new();
        let mut last = None;
        for &(id, drop) in self.buckets[*slot].members() {
            if last != Some(id) {
                last = Some(id);
                chosen.push((self.pos[id], unpack(self.cubes[id][drop])));
            }
        }
        chosen.sort_unstable_by_key(|&(pos, _)| pos);
        Some((sig.iter().map(|&l| unpack(l)).collect(), chosen))
    }

    /// Swap-removes the cubes at `positions` (ascending), last first, and
    /// appends `cube`.
    fn replace(&mut self, positions: &[usize], cube: LitList) {
        for &p in positions.iter().rev() {
            let id = self.order.swap_remove(p);
            self.update(id, false);
            self.cubes[id] = Vec::new();
            if let Some(&moved) = self.order.get(p) {
                self.pos[moved] = p;
            }
        }
        let id = self.cubes.len();
        self.cubes.push(cube.into_iter().map(pack).collect());
        self.pos.push(self.order.len());
        self.order.push(id);
        self.update(id, true);
    }

    /// Adds (or removes) cube `id`'s entry in the bucket of each of its
    /// signatures, re-ranking every bucket whose distinct count changes.
    fn update(&mut self, id: usize, add: bool) {
        let len = self.cubes[id].len();
        if len < 2 {
            return;
        }
        self.hash_signatures(id);
        for drop in 0..len {
            let hash = self.hashes[drop];
            let Some(slot) = self.find(hash, id, drop) else {
                if add {
                    self.alloc(hash, (id, drop));
                }
                continue;
            };
            let bucket = &mut self.buckets[slot];
            let before = bucket.distinct;
            if add {
                bucket.push(id, drop);
            } else {
                bucket.remove(id);
            }
            let after = bucket.distinct;
            if after == 0 {
                self.release(hash, slot);
            }
            if before != after && before.max(after) >= 2 {
                let lits = &self.cubes[id];
                let sig = [&lits[..drop], &lits[drop + 1..]].concat();
                let mut key = (Reverse(before), sig, slot);
                if before >= 2 {
                    self.ranked.remove(&key);
                }
                if after >= 2 {
                    key.0 = Reverse(after);
                    self.ranked.insert(key);
                }
            }
        }
    }

    /// Fills `hashes[d]` with the hash of cube `id` minus literal `d`, for
    /// every `d`: the polynomial hash of the prefix before `d`, shifted
    /// past the suffix, plus the suffix's.
    fn hash_signatures(&mut self, id: usize) {
        let lits = &self.cubes[id];
        self.hashes.clear();
        let mut prefix = 1u64;
        for &l in lits {
            self.hashes.push(prefix);
            prefix = prefix.wrapping_mul(SIG_BASE).wrapping_add(l);
        }
        let (mut suffix, mut power) = (0u64, 1u64);
        for (h, &l) in self.hashes.iter_mut().zip(lits).rev() {
            let mut x = h.wrapping_mul(power).wrapping_add(suffix);
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            *h = (x ^ x >> 33) & SIG_HASH_MASK;
            suffix = suffix.wrapping_add(l.wrapping_mul(power));
            power = power.wrapping_mul(SIG_BASE);
        }
    }

    /// The bucket of cube `id` minus literal `drop`, whose hash is `hash`.
    fn find(&self, hash: u64, id: usize, drop: usize) -> Option<usize> {
        let lits = &self.cubes[id];
        let mut slot = *self.heads.get(&hash)?;
        while slot != NIL {
            let bucket = &self.buckets[slot];
            let (other, other_drop) = bucket.first;
            let theirs = &self.cubes[other];
            if theirs.len() == lits.len()
                && lits[..drop]
                    .iter()
                    .chain(&lits[drop + 1..])
                    .eq(theirs[..other_drop].iter().chain(&theirs[other_drop + 1..]))
            {
                return Some(slot);
            }
            slot = bucket.next;
        }
        None
    }

    /// Starts a bucket holding only `first` at the head of `hash`'s chain.
    fn alloc(&mut self, hash: u64, first: (usize, usize)) {
        let next = self.heads.get(&hash).copied().unwrap_or(NIL);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.buckets.push(Bucket::default());
            self.buckets.len() - 1
        });
        let bucket = &mut self.buckets[slot];
        bucket.first = first;
        bucket.rest.clear();
        bucket.distinct = 1;
        bucket.next = next;
        self.heads.insert(hash, slot);
    }

    /// Unlinks the empty bucket `slot` from `hash`'s chain and frees it.
    fn release(&mut self, hash: u64, slot: usize) {
        let next = self.buckets[slot].next;
        let head = self.heads.get_mut(&hash).expect("chained bucket");
        if *head == slot {
            if next == NIL {
                self.heads.remove(&hash);
            } else {
                *head = next;
            }
        } else {
            let mut prev = *head;
            while self.buckets[prev].next != slot {
                prev = self.buckets[prev].next;
            }
            self.buckets[prev].next = next;
        }
        self.free.push(slot);
    }

    /// The remaining cubes in position order.
    fn into_cubes(self) -> Vec<LitList> {
        self.order
            .iter()
            .map(|&id| self.cubes[id].iter().map(|&l| unpack(l)).collect())
            .collect()
    }
}

/// Maps a synthesized FSM network onto a complete sequential netlist.
///
/// The resulting netlist has one register per state bit (initialized to the
/// reset code), the FSM's inputs as primary inputs and the FSM's outputs as
/// primary outputs.
pub fn map_fsm_network(net: &FsmNetwork, sharing: bool) -> Netlist {
    let bits = net.encoding().bits();
    let mut nl = Netlist::new(net.num_inputs());
    let regs: Vec<NetRef> = (0..bits)
        .map(|b| nl.add_reg(net.reset_code() >> b & 1 != 0))
        .collect();
    let var_map = move |v: usize| {
        if v < bits {
            NetRef::Reg(v)
        } else {
            NetRef::Input(v - bits)
        }
    };
    let mut mapper = Mapper::new(sharing);
    let next_refs: Vec<NetRef> = net
        .next_state()
        .iter()
        .map(|sop| mapper.map_sop(&mut nl, sop, &var_map))
        .collect();
    for (b, r) in next_refs.into_iter().enumerate() {
        nl.set_reg_next(regs[b], r);
    }
    for sop in net.outputs() {
        let r = mapper.map_sop(&mut nl, sop, &var_map);
        nl.push_output(r);
    }
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;
    use crate::encode::{Encoding, EncodingStyle};
    use crate::fsm::{Fsm, Transition};
    use crate::minimize::Effort;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn lit(v: usize, p: bool) -> Cube {
        Cube::universe().with_lit(v, p)
    }

    #[test]
    fn small_sop_maps_to_single_lut() {
        let sop = Sop::from_cubes(8, vec![lit(1, true).with_lit(6, false), lit(3, true)]);
        let mut nl = Netlist::new(8);
        let mut mapper = Mapper::new(false);
        let r = mapper.map_sop(&mut nl, &sop, &NetRef::Input);
        assert_eq!(nl.num_luts(), 1);
        // Verify the single LUT computes the SOP on a few minterms.
        nl.push_output(r);
        for m in 0..256u64 {
            let inputs: Vec<bool> = (0..8).map(|b| m >> b & 1 != 0).collect();
            assert_eq!(nl.outputs_for(&[], &inputs)[0], sop.eval(m), "minterm {m}");
        }
    }

    #[test]
    fn wide_sop_decomposes_and_stays_correct() {
        // 6-literal cube OR 5-literal cube: needs decomposition.
        let c1 = (0..6).fold(Cube::universe(), |c, v| c.with_lit(v, v % 2 == 0));
        let c2 = (3..8).fold(Cube::universe(), |c, v| c.with_lit(v, true));
        let sop = Sop::from_cubes(8, vec![c1, c2]);
        let mut nl = Netlist::new(8);
        let mut mapper = Mapper::new(false);
        let r = mapper.map_sop(&mut nl, &sop, &NetRef::Input);
        nl.push_output(r);
        assert!(nl.num_luts() > 1);
        for m in 0..256u64 {
            let inputs: Vec<bool> = (0..8).map(|b| m >> b & 1 != 0).collect();
            assert_eq!(nl.outputs_for(&[], &inputs)[0], sop.eval(m), "minterm {m}");
        }
    }

    #[test]
    fn constants_map_to_consts() {
        let mut nl = Netlist::new(2);
        let mut mapper = Mapper::new(false);
        assert_eq!(
            mapper.map_sop(&mut nl, &Sop::zero(2), &NetRef::Input),
            NetRef::Const(false)
        );
        assert_eq!(
            mapper.map_sop(&mut nl, &Sop::one(2), &NetRef::Input),
            NetRef::Const(true)
        );
        assert_eq!(nl.num_luts(), 0);
    }

    #[test]
    fn divisor_index_breaks_ties_by_signature_and_tracks_swap_remove() {
        let [a, b, x, y] = [0, 1, 2, 3].map(|i| (NetRef::Input(i), true));
        let or = (NetRef::Node(0), true);
        let mut index = DivisorIndex::new(vec![vec![a, x], vec![b, x], vec![a, y], vec![b, y]]);
        // Four signatures reach two cubes each; the smallest one wins, its
        // members listed by position.
        let (sig, chosen) = index.best().expect("shared signature");
        assert_eq!(sig, vec![a]);
        assert_eq!(chosen, vec![(0, x), (2, y)]);
        index.replace(&[0, 2], vec![a, or]);
        // swap_remove(2) then swap_remove(0) moved `b&y` to the front.
        let (sig, chosen) = index.best().expect("shared signature");
        assert_eq!(sig, vec![b]);
        assert_eq!(chosen, vec![(0, y), (1, x)]);
        index.replace(&[0, 1], vec![b, or]);
        // The two factored cubes now share `or`.
        let (sig, chosen) = index.best().expect("shared signature");
        assert_eq!(sig, vec![or]);
        assert_eq!(chosen, vec![(0, a), (1, b)]);
        let or2 = (NetRef::Node(1), true);
        index.replace(&[0, 1], vec![or, or2]);
        assert!(index.best().is_none());
        assert_eq!(index.into_cubes(), vec![vec![or, or2]]);
    }

    /// The reference for [`DivisorIndex`]: rebuilds every signature each
    /// round and picks the one shared by the most distinct cubes, ties
    /// going to the smallest signature, with the first dropped literal of
    /// each cube, in position order.
    fn naive_best(cubes: &[LitList]) -> Option<(LitList, Chosen)> {
        let mut buckets: BTreeMap<LitList, Chosen> = BTreeMap::new();
        for (pos, lits) in cubes.iter().enumerate() {
            if lits.len() < 2 {
                continue;
            }
            for drop in 0..lits.len() {
                let mut sig = lits.clone();
                let lit = sig.remove(drop);
                let chosen = buckets.entry(sig).or_default();
                if chosen.last().map(|&(p, _)| p) != Some(pos) {
                    chosen.push((pos, lit));
                }
            }
        }
        let mut best: Option<(LitList, Chosen)> = None;
        for (sig, chosen) in buckets {
            if chosen.len() >= 2 && best.as_ref().is_none_or(|(_, b)| chosen.len() > b.len()) {
                best = Some((sig, chosen));
            }
        }
        best
    }

    /// Covers of cubes that share a base and differ in one literal, each
    /// cube ordered highest variable first as `map_sop` builds them, plus
    /// the choices of each round's factored literal.
    fn arb_factorable_cover() -> impl Strategy<Value = (Vec<LitList>, Vec<u8>)> {
        let base = proptest::collection::vec((0usize..6, any::<bool>()), 1..4);
        let variants = proptest::collection::vec((0usize..6, any::<bool>()), 2..6);
        let groups = proptest::collection::vec((base, variants), 1..8);
        let picks = proptest::collection::vec(any::<u8>(), 1..8);
        (groups, picks).prop_map(|(groups, picks)| {
            let mut cubes = Vec::new();
            for (base, variants) in groups {
                let base: BTreeMap<usize, bool> = base.into_iter().collect();
                for (v, p) in variants {
                    let mut cube = base.clone();
                    cube.entry(v).or_insert(p);
                    cubes.push(
                        cube.into_iter()
                            .rev()
                            .map(|(v, p)| (NetRef::Input(v), p))
                            .collect(),
                    );
                }
            }
            (cubes, picks)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every round's signature and chosen `(position, literal)` list
        /// equal the naive extractor's, with the unit tests' two-bit
        /// signature hash sending most lookups through collision chains.
        /// The factored literal is a fresh node, an earlier one or one of
        /// the cubes' own literals, as the mapper's shared OR nodes can be.
        #[test]
        fn divisor_index_matches_a_naive_extractor(case in arb_factorable_cover()) {
            let (cubes, picks) = case;
            let mut index = DivisorIndex::new(cubes.clone());
            let mut naive = cubes;
            let mut nodes = 0;
            for round in 0.. {
                let best = index.best();
                prop_assert_eq!(&best, &naive_best(&naive), "round {}", round);
                let Some((sig, chosen)) = best else { break };
                let pick = picks[round % picks.len()];
                let factored = match pick % 3 {
                    0 => chosen[0].1,
                    1 if nodes > 0 => (NetRef::Node(usize::from(pick) % nodes), true),
                    _ => {
                        nodes += 1;
                        (NetRef::Node(nodes - 1), true)
                    }
                };
                let mut cube = sig;
                cube.push(factored);
                let positions: Vec<usize> = chosen.iter().map(|&(p, _)| p).collect();
                index.replace(&positions, cube.clone());
                for &p in positions.iter().rev() {
                    naive.swap_remove(p);
                }
                naive.push(cube);
            }
            prop_assert_eq!(index.into_cubes(), naive);
        }
    }

    #[test]
    fn sharing_reduces_lut_count() {
        let sop = Sop::from_cubes(8, vec![lit(0, true).with_lit(1, true)]);
        let build = |sharing: bool| {
            let mut nl = Netlist::new(8);
            let mut mapper = Mapper::new(sharing);
            let a = mapper.map_sop(&mut nl, &sop, &NetRef::Input);
            let b = mapper.map_sop(&mut nl, &sop, &NetRef::Input);
            (nl.num_luts(), a, b)
        };
        let (unshared, _, _) = build(false);
        let (shared, a, b) = build(true);
        assert_eq!(unshared, 2);
        assert_eq!(shared, 1);
        assert_eq!(a, b);
    }

    /// Maps a small FSM and checks the netlist agrees with the encoded
    /// network cycle by cycle over a pseudo-random input walk.
    #[test]
    fn mapped_fsm_matches_encoded_network() {
        let mut fsm = Fsm::new("walk", 2, 2);
        for i in 0..4 {
            fsm.add_state(format!("S{i}"));
        }
        fsm.set_reset(0);
        for s in 0..4 {
            for inp in 0..4u64 {
                let guard = lit(0, inp & 1 != 0).with_lit(1, inp & 2 != 0);
                fsm.add_transition(Transition {
                    from: s,
                    guard,
                    to: ((s as u64 + inp) % 4) as usize,
                    outputs: inp ^ s as u64 & 0b11,
                });
            }
        }
        fsm.validate().unwrap();
        for style in [
            EncodingStyle::OneHot,
            EncodingStyle::Compact,
            EncodingStyle::Gray,
        ] {
            let enc = Encoding::assign(&fsm, style);
            let net = FsmNetwork::synthesize(&fsm, enc, Effort::Medium);
            let nl = map_fsm_network(&net, true);
            let mut code = net.reset_code();
            let mut state = nl.reset_state();
            let mut x = 0x9e3779b9u64;
            for _ in 0..200 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let inputs = x >> 33 & 0b11;
                let (next_code, out_word) = net.step_encoded(code, inputs);
                let in_bits: Vec<bool> = (0..2).map(|b| inputs >> b & 1 != 0).collect();
                let outs = nl.step(&mut state, &in_bits);
                let nl_out = outs
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (i, &b)| if b { w | 1 << i } else { w });
                assert_eq!(nl_out, out_word, "{style}: output mismatch");
                code = next_code;
                let nl_code = state
                    .iter()
                    .enumerate()
                    .fold(0u64, |w, (i, &b)| if b { w | 1 << i } else { w });
                assert_eq!(nl_code, code, "{style}: state mismatch");
            }
        }
    }
}
