//! The VCD tracer component: per-arbiter per-port Request/Grant
//! waveform recording.

use crate::arbiter::ArbiterSim;
use crate::vcd::{SignalId, VcdWriter};

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
    pub fn new(arbiters: &[ArbiterSim]) -> Self {
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
    /// from the `(request word, grant word)` pairs (in arbiter order)
    /// the engine assembled in its sampling phase — the words as seen
    /// *on the wire*, i.e. after any injected line faults, which is
    /// exactly what a logic analyzer would record.
    pub fn sample_cycle(&mut self, cycle: u64, lines: impl IntoIterator<Item = (u64, u64)>) {
        for (ports, (request_word, grant_word)) in self.signals.iter().zip(lines) {
            for (p, &(req_sig, grant_sig)) in ports.iter().enumerate() {
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
