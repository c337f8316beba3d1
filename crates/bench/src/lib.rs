//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! The `figures` binary (`cargo run -p rcarb-bench --bin figures -- <id>`)
//! prints the rows and series the paper plots, from the row generators
//! in [`figures`]. Timing lives in the separate `arbbench` workspace,
//! which measures the synthesis pipeline, the simulation kernel and the
//! serving stack against a checked-in baseline.
//!
//! The mapping from paper artefact to target lives in `DESIGN.md` (per-
//! experiment index) and the measured-vs-paper numbers in `EXPERIMENTS.md`.

pub mod figures;
