//! The VCD tracer component: per-arbiter per-port Request/Grant
//! waveform recording.

use super::arbiter::ArbiterComponent;
use super::{Component, Wake};
use crate::vcd::{SignalId, VcdWriter};
use rcarb_taskgraph::id::ArbiterId;
use std::collections::BTreeMap;

/// Records every arbiter's per-port Request/Grant lines into a VCD
/// waveform.
///
/// The writer deduplicates unchanged samples, which is what makes the
/// batched kernel's output byte-identical to the legacy kernel's: a skip
/// is only taken when every traced signal provably holds its value, so
/// the skipped cycles would have emitted nothing anyway.
#[derive(Debug)]
pub struct TracerComponent {
    vcd: VcdWriter,
    /// Per arbiter: per port, (request signal, grant signal).
    signals: Vec<Vec<(SignalId, SignalId)>>,
}

impl TracerComponent {
    /// Declares the `{arbiter}_req{port}` / `{arbiter}_grant{port}`
    /// signal pairs for every arbiter.
    pub fn new(arbiters: &[ArbiterComponent]) -> Self {
        let mut vcd = VcdWriter::new();
        let signals = arbiters
            .iter()
            .map(|a| {
                (0..a.num_ports())
                    .map(|p| {
                        let req = vcd.signal(format!("{}_req{p}", a.id()));
                        let grant = vcd.signal(format!("{}_grant{p}", a.id()));
                        (req, grant)
                    })
                    .collect()
            })
            .collect();
        Self { vcd, signals }
    }

    /// Samples every arbiter's request and grant lines for `cycle`,
    /// from the per-arbiter words the engine assembled in its sampling
    /// phase — the words as seen *on the wire*, i.e. after any injected
    /// line faults, which is exactly what a logic analyzer would record.
    pub fn sample_cycle(
        &mut self,
        cycle: u64,
        arbiters: &[ArbiterComponent],
        request_words: &BTreeMap<ArbiterId, u64>,
        grants: &BTreeMap<ArbiterId, u64>,
    ) {
        for (ai, a) in arbiters.iter().enumerate() {
            let id = a.id();
            let request_word = request_words.get(&id).copied().unwrap_or(0);
            let grant_word = grants.get(&id).copied().unwrap_or(0);
            for (p, &(req_sig, grant_sig)) in self.signals[ai].iter().enumerate() {
                self.vcd.sample(cycle, req_sig, request_word >> p & 1 != 0);
                self.vcd.sample(cycle, grant_sig, grant_word >> p & 1 != 0);
            }
        }
    }

    /// [`sample_cycle`](Self::sample_cycle) for the batched kernel: the
    /// per-arbiter words arrive as flat slices indexed by arbiter
    /// position instead of `BTreeMap`s keyed by id. Sampling order and
    /// output are identical.
    pub fn sample_cycle_words(
        &mut self,
        cycle: u64,
        arbiters: &[ArbiterComponent],
        request_words: &[u64],
        grants: &[u64],
    ) {
        for (ai, _) in arbiters.iter().enumerate() {
            let request_word = request_words.get(ai).copied().unwrap_or(0);
            let grant_word = grants.get(ai).copied().unwrap_or(0);
            for (p, &(req_sig, grant_sig)) in self.signals[ai].iter().enumerate() {
                self.vcd.sample(cycle, req_sig, request_word >> p & 1 != 0);
                self.vcd.sample(cycle, grant_sig, grant_word >> p & 1 != 0);
            }
        }
    }

    /// The VCD document recorded so far, at the paper's ~6 MHz design
    /// clock (167 ns per cycle).
    pub fn vcd(&self) -> String {
        self.vcd.clone().finish(167)
    }
}

impl Component for TracerComponent {
    fn label(&self) -> String {
        "vcd tracer".to_owned()
    }

    /// The tracer samples what others drive; with every arbiter steady
    /// (the skip precondition) no signal can change, so the writer's
    /// dedup would drop every skipped sample anyway.
    fn wake(&self, _now: u64) -> Wake {
        Wake::Idle
    }

    fn skip(&mut self, _cycles: u64) {}
}
