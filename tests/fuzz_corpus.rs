//! The checked-in fuzz corpus as a permanent regression suite.
//!
//! Every `.scn` entry under `fuzz/corpus/` is replayed under both
//! simulation kernels with byte-identical `RunReport`, VCD, memory,
//! fault-report and deterministic-metrics asserts, then pushed through
//! the full differential-oracle runner (policy, tool-model,
//! certified-clean, panic and hang oracles). Scenarios that once earned
//! a coverage slot keep exercising those corners on every `cargo test`.

use rcarb_fuzz::{
    decode, encode, load_corpus, observe_kernel, run_scenario, CorpusEntry, RunConfig, KERNELS,
};
use std::path::Path;

fn corpus() -> Vec<CorpusEntry> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus");
    let entries = load_corpus(&dir).expect("fuzz/corpus loads");
    assert!(
        entries.len() >= 16,
        "the corpus must keep at least 16 entries, found {}",
        entries.len()
    );
    entries
}

#[test]
fn corpus_lines_are_canonical() {
    for entry in corpus() {
        assert_eq!(
            encode(&entry.scenario),
            entry.line,
            "{} must store the canonical one-liner",
            entry.path.display()
        );
        let reparsed = decode(&entry.line).expect("stored line decodes");
        assert_eq!(reparsed, entry.scenario);
    }
}

#[test]
fn corpus_replays_byte_identically_across_kernels() {
    for entry in corpus() {
        let name = entry.path.display();
        let reference = observe_kernel(&entry.scenario, KERNELS[0])
            .unwrap_or_else(|e| panic!("{name}: legacy run failed: {e}"));
        assert!(
            reference.vcd.is_some(),
            "{name}: fuzzer runs always carry a VCD trace"
        );
        for &kernel in &KERNELS[1..] {
            let candidate = observe_kernel(&entry.scenario, kernel)
                .unwrap_or_else(|e| panic!("{name}: {kernel:?} run failed: {e}"));
            assert_eq!(
                candidate.report, reference.report,
                "{name}: {kernel:?} RunReport differs from legacy"
            );
            assert_eq!(
                candidate.vcd, reference.vcd,
                "{name}: {kernel:?} VCD differs from legacy"
            );
            assert_eq!(
                candidate.memory, reference.memory,
                "{name}: {kernel:?} memory image differs from legacy"
            );
            assert_eq!(
                candidate.faults, reference.faults,
                "{name}: {kernel:?} fault report differs from legacy"
            );
            assert_eq!(
                candidate.metrics, reference.metrics,
                "{name}: {kernel:?} deterministic metrics differ from legacy"
            );
        }
    }
}

#[test]
fn corpus_passes_every_differential_oracle() {
    // Tool-model sweeps are exercised (cheaply — the synthesis cache is
    // content-addressed, so repeated sizes are warm) along with the
    // policy, certified-clean, stats and hang oracles.
    let config = RunConfig::default();
    for entry in corpus() {
        let outcome = run_scenario(&entry.scenario, &config);
        assert!(
            outcome.findings.is_empty(),
            "{}: corpus entry regressed: {:?}",
            entry.path.display(),
            outcome
                .findings
                .iter()
                .map(|f| (f.kind.key(), f.detail.clone()))
                .collect::<Vec<_>>()
        );
        assert!(outcome.observation.is_some());
    }
}

#[test]
fn corpus_replay_is_deterministic_run_to_run() {
    // Byte-identical across *runs*, not just kernels: the replay
    // contract behind `rcarb-fuzz replay <one-liner>`.
    for entry in corpus().into_iter().take(4) {
        let a = observe_kernel(&entry.scenario, KERNELS[1]).expect("runs");
        let b = observe_kernel(&entry.scenario, KERNELS[1]).expect("runs");
        assert_eq!(a, b, "{} must replay identically", entry.path.display());
    }
}
