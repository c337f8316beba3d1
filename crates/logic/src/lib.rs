#![warn(missing_docs)]

//! Logic-synthesis substrate for arbiter characterization.
//!
//! The paper pre-characterizes its round-robin arbiters by running two
//! commercial synthesis tools (Synplify 5.1.4 and FPGA Express 2.1) plus the
//! Xilinx M1.5 back end, reporting area in XC4000E CLBs (Fig. 6) and maximum
//! clock speed in MHz (Fig. 7). No such toolchain exists in this
//! environment, so this crate implements a small but genuine synthesis
//! pipeline from first principles:
//!
//! 1. [`cube`]/[`sop`] — two-level boolean representation (cubes over up to
//!    64 variables, sum-of-products covers);
//! 2. [`minimize`] — an espresso-style minimizer (containment removal,
//!    adjacency merging, literal expansion validated by tautology checking
//!    or by an exact OFF-set);
//! 3. [`fsm`] — symbolic Mealy machines with deterministic/complete guard
//!    validation;
//! 4. [`encode`] — one-hot / compact (binary) / Gray state assignment;
//! 5. [`synth`] — FSM to boolean network translation;
//! 6. [`netlist`]/[`techmap`] — technology mapping onto 4-input LUTs with
//!    structural hashing, producing an executable gate-level netlist;
//! 7. [`clb`] — XC4000E CLB packing (two 4-LUT function generators, an
//!    H-combiner and two flip-flops per CLB);
//! 8. [`timing`] — static timing with a speed-grade-scaled wire-load model;
//! 9. [`tools`] — "Synplify"- and "FPGA Express"-like tool models that
//!    differ exactly where the paper observed differences (encoding
//!    honouring, optimization effort, packing);
//! 10. [`structural`] — a gate-level circuit builder used for the baseline
//!     arbitration policies (priority encoders, LFSRs, FIFO queues);
//! 11. [`export`] — KISS2 (FSMs) and BLIF (netlists) emitters for
//!     cross-checking against the open logic-synthesis ecosystem
//!     (SIS/ABC);
//! 12. [`verify`] — bounded equivalence checking between mapped
//!     netlists (exhaustive combinational, lock-step sequential), used to
//!     prove the two tool models agree on every generated arbiter.
//!
//! The absolute CLB/MHz values are calibrated (constants documented in
//! [`clb`] and [`timing`]); the *shapes* — growth with N, one-hot vs
//! compact separation, tool separation — emerge from the pipeline itself.

pub mod clb;
pub mod cube;
pub mod encode;
pub mod export;
pub mod fsm;
pub mod minimize;
pub mod netlist;
pub mod sop;
pub mod structural;
pub mod synth;
pub mod techmap;
pub mod timing;
pub mod tools;
pub mod verify;

pub use cube::Cube;
pub use encode::{Encoding, EncodingStyle};
pub use fsm::{Fsm, Transition};
pub use netlist::{NetRef, Netlist};
pub use sop::Sop;
pub use tools::{SynthReport, ToolModel};
