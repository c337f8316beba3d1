//! Property tests: the three representations of the round-robin arbiter
//! (behavioural model, Fig. 5 symbolic FSM, synthesized gate-level
//! netlist under every tool/encoding) agree on every cycle of every
//! request stream, and every policy's `next_grant` promise and `skip`
//! replay what held steps would do.

use proptest::prelude::*;
use rcarb::arb::fifo::FifoArbiter;
use rcarb::arb::policy::{Policy, PolicyKind, DEFAULT_PREEMPT_QUANTUM};
use rcarb::arb::preempt::PreemptiveRoundRobin;
use rcarb::arb::prefix::{prefix_first_requester, PrefixRoundRobin};
use rcarb::arb::priority::StaticPriorityArbiter;
use rcarb::arb::random::RandomArbiter;
use rcarb::arb::rr::{round_robin_fsm, RoundRobinArbiter};
use rcarb::logic::encode::EncodingStyle;
use rcarb::logic::tools::ToolModel;

fn word_from_bits(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0, |w, (i, &b)| if b { w | 1 << i } else { w })
}

/// The skip oracle for one policy over `n` ports. After each warm-up
/// word `w` on which `next_grant(w)` promises `Some(g)`, a clone stepped
/// `k` times under `w` must grant `g` every time, and the original,
/// `skip(k)`-ed instead, must then grant exactly as that clone over
/// `tail`.
fn check_skip_oracle<P: Policy + Clone>(
    mut p: P,
    n: usize,
    words: &[u64],
    ks: &[u64],
    tail: &[u64],
) -> Result<(), TestCaseError> {
    let kind = p.kind();
    let mask = (1u64 << n) - 1;
    let mut claims = 0;
    for &raw in words {
        let w = raw & mask;
        if let Some(g) = p.next_grant(w) {
            let k = ks[claims % ks.len()];
            claims += 1;
            let mut stepped = p.clone();
            for i in 0..k {
                prop_assert_eq!(
                    stepped.step(w),
                    g,
                    "{} n={} broke its promise on {:#b} at step {} of {}",
                    kind,
                    n,
                    w,
                    i,
                    k
                );
            }
            p.skip(k);
            let mut skipped = p.clone();
            for &t in tail {
                let t = t & mask;
                prop_assert_eq!(
                    skipped.step(t),
                    stepped.step(t),
                    "{} n={}: skip({}) diverged from {} held steps of {:#b}",
                    kind,
                    n,
                    k,
                    k,
                    w
                );
            }
        }
        let _ = p.step(w);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Behavioural model == symbolic FSM, any N, any request stream.
    #[test]
    fn behavioural_matches_fsm(
        n in 2usize..=8,
        stream in proptest::collection::vec(0u64..256, 1..200),
    ) {
        let fsm = round_robin_fsm(n);
        let mut beh = RoundRobinArbiter::new(n);
        let mut state = fsm.reset_state();
        let mask = (1u64 << n) - 1;
        for raw in stream {
            let req = raw & mask;
            let (next, sym_grant) = fsm.step(state, req);
            state = next;
            prop_assert_eq!(beh.step(req), sym_grant);
        }
    }

    /// Behavioural model == synthesized netlist for both tool models and
    /// both honoured encodings.
    #[test]
    fn behavioural_matches_synthesized_hardware(
        n in 2usize..=6,
        stream in proptest::collection::vec(0u64..64, 1..120),
        tool_idx in 0usize..2,
        enc_idx in 0usize..2,
    ) {
        let tool = if tool_idx == 0 { ToolModel::synplify() } else { ToolModel::fpga_express() };
        let enc = if enc_idx == 0 { EncodingStyle::OneHot } else { EncodingStyle::Compact };
        let spec = rcarb::arb::generator::ArbiterSpec::round_robin(n).with_encoding(enc);
        let netlist = rcarb::arb::generator::ArbiterGenerator::new()
            .generate(&spec)
            .netlist(&tool);
        let mut beh = RoundRobinArbiter::new(n);
        let mut hw_state = netlist.reset_state();
        let mask = (1u64 << n) - 1;
        for raw in stream {
            let req = raw & mask;
            let bits: Vec<bool> = (0..n).map(|i| req >> i & 1 != 0).collect();
            let hw = netlist.step(&mut hw_state, &bits);
            prop_assert_eq!(word_from_bits(&hw), beh.step(req));
        }
    }

    /// The two tool models synthesize *equivalent hardware* from one
    /// arbiter FSM — checked with the bounded sequential equivalence
    /// engine (lock-step from reset over structured + random stimuli).
    #[test]
    fn tool_models_agree_on_every_arbiter(n in 2usize..=6, enc_idx in 0usize..2) {
        use rcarb::logic::verify::equiv_sequential_bounded;
        let enc = if enc_idx == 0 { EncodingStyle::OneHot } else { EncodingStyle::Compact };
        let spec = rcarb::arb::generator::ArbiterSpec::round_robin(n).with_encoding(enc);
        let arb = rcarb::arb::generator::ArbiterGenerator::new().generate(&spec);
        let a = arb.netlist(&ToolModel::synplify());
        let b = arb.netlist(&ToolModel::fpga_express());
        // Different encodings may be in force (Synplify overrides), so
        // the state registers differ — but the observable grants must
        // match cycle for cycle.
        equiv_sequential_bounded(&a, &b, 32, 16)
            .map_err(|cex| TestCaseError::fail(format!("divergence: {cex:?}")))?;
    }

    /// Mutual exclusion and grant-only-requesters hold for every policy.
    #[test]
    fn every_policy_upholds_the_grant_contract(
        n in 1usize..=10,
        stream in proptest::collection::vec(0u64..1024, 1..300),
        kind_idx in 0usize..rcarb::arb::policy::PolicyKind::ALL.len(),
    ) {
        let kind = rcarb::arb::policy::PolicyKind::ALL[kind_idx];
        let mut arb = rcarb::arb::policy::build(kind, n);
        let mask = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        for raw in stream {
            let req = raw & mask;
            let grant = arb.step(req);
            prop_assert!(grant.count_ones() <= 1, "{} granted multiple", kind);
            prop_assert_eq!(grant & !req, 0, "{} granted a non-requester", kind);
        }
    }

    /// The parallel-prefix round-robin arbiter is grant-identical to the
    /// linear-scan oracle on every cycle of every request stream, *and*
    /// its `next_grant` steadiness promise is word-for-word the same —
    /// so the batched kernel's skip decisions cannot depend on which
    /// resolution circuit an arbiter uses.
    #[test]
    fn prefix_round_robin_matches_linear_oracle(
        n in 1usize..=16,
        stream in proptest::collection::vec(0u64..65536, 1..300),
    ) {
        let mut fast = PrefixRoundRobin::new(n);
        let mut slow = RoundRobinArbiter::new(n);
        let mask = (1u64 << n) - 1;
        for raw in stream {
            let req = raw & mask;
            // Steadiness must be judged against the word *before* the
            // step, the way the refresh phase consults it.
            prop_assert_eq!(
                fast.next_grant(req), slow.next_grant(req),
                "steadiness promise diverged on req {:#b}", req
            );
            let (f, s) = (fast.step(req), slow.step(req));
            prop_assert_eq!(f, s, "grant diverged on req {:#b}", req);
            // A steadiness promise, once made, must be kept.
            if let Some(promised) = slow.next_grant(req) {
                let mut probe = fast.clone();
                prop_assert_eq!(probe.step(req), promised);
            }
        }
    }

    /// Every policy's steadiness promise is kept by `step`, and `skip`
    /// over a promised span equals stepping it: for each kind and a
    /// width of 1..=16 ports, over random warm-up streams, at every
    /// promise, with spans around the random policy's 255-cycle LFSR
    /// period and beyond.
    #[test]
    fn skip_replays_held_steps_for_every_policy(
        n in 1usize..=16,
        words in proptest::collection::vec(
            prop_oneof![Just(0u64), 0u64..8, any::<u64>()],
            1..80,
        ),
        ks in proptest::collection::vec(
            prop_oneof![
                Just(1u64),
                Just(2u64),
                Just(254u64),
                Just(255u64),
                Just(256u64),
                Just(1000u64),
                1u64..=3000,
            ],
            1..8,
        ),
        tail in proptest::collection::vec(any::<u64>(), 300),
    ) {
        for kind in PolicyKind::ALL {
            match kind {
                PolicyKind::RoundRobin => {
                    check_skip_oracle(RoundRobinArbiter::new(n), n, &words, &ks, &tail)
                }
                PolicyKind::Random => {
                    check_skip_oracle(RandomArbiter::new(n), n, &words, &ks, &tail)
                }
                PolicyKind::Fifo => check_skip_oracle(FifoArbiter::new(n), n, &words, &ks, &tail),
                PolicyKind::StaticPriority => {
                    check_skip_oracle(StaticPriorityArbiter::new(n), n, &words, &ks, &tail)
                }
                PolicyKind::PreemptiveRoundRobin => check_skip_oracle(
                    PreemptiveRoundRobin::new(n, DEFAULT_PREEMPT_QUANTUM),
                    n,
                    &words,
                    &ks,
                    &tail,
                ),
                PolicyKind::PrefixRoundRobin => {
                    check_skip_oracle(PrefixRoundRobin::new(n), n, &words, &ks, &tail)
                }
            }?;
        }
    }

    /// The prefix network itself is the linear first-requester scan for
    /// every start offset, not just the ones a grant walk happens to
    /// visit.
    #[test]
    fn prefix_network_is_the_cyclic_scan(
        n in 1usize..=64,
        req in any::<u64>(),
        start_seed in any::<usize>(),
    ) {
        let start = start_seed % n;
        let mask = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        let req = req & mask;
        let linear = (0..n).map(|k| (start + k) % n).find(|&j| req >> j & 1 != 0);
        prop_assert_eq!(prefix_first_requester(req, start, n), linear);
    }

    /// Under continuous all-ones requests with single-access holds, the
    /// round-robin arbiters serve every task within (N-1) turnarounds of
    /// other tasks (Sec. 4.1's bound) — the O(log N) resolution circuit
    /// inherits the linear scan's fairness bound exactly.
    #[test]
    fn grant_wait_is_bounded_by_n_minus_one_turnarounds(
        n in 2usize..=10,
        prefix in any::<bool>(),
    ) {
        let mut arb: Box<dyn Policy> = if prefix {
            Box::new(PrefixRoundRobin::new(n))
        } else {
            Box::new(RoundRobinArbiter::new(n))
        };
        let mask = (1u64 << n) - 1;
        let mut pending = mask;
        let mut cooldown = vec![0u8; n];
        let mut waits = vec![0u32; n];
        for _ in 0..2000 {
            for (t, c) in cooldown.iter_mut().enumerate() {
                if *c > 0 {
                    *c -= 1;
                    if *c == 0 {
                        pending |= 1 << t;
                    }
                }
            }
            let grant = arb.step(pending);
            for (t, wait) in waits.iter_mut().enumerate() {
                if pending >> t & 1 != 0 && grant >> t & 1 == 0 {
                    *wait += 1;
                    // Each competitor holds 1 cycle + 2 protocol cycles;
                    // (N-1) competitors bound the wait.
                    prop_assert!(
                        *wait <= (n as u32 - 1) * 3 + 3,
                        "task {} waited {} cycles in an {}-task arbiter",
                        t, *wait, n
                    );
                }
            }
            if grant != 0 {
                let w = grant.trailing_zeros() as usize;
                waits[w] = 0;
                pending &= !grant;
                cooldown[w] = 2;
            }
        }
    }
}
