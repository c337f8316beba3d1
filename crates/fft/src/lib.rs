#![warn(missing_docs)]

//! The paper's FFT application (Sec. 5), end to end.
//!
//! - [`mod@reference`] — an exact integer complex FFT (radix-2, 1-D and 2-D)
//!   used as numerical ground truth;
//! - [`taskgraph`] — the Fig. 10 taskgraph: tasks `F1..F4` perform the
//!   first FFT dimension on the input image tile, tasks `g1r..g4i` the
//!   second dimension. The `r`/`i` split exploits FFT linearity
//!   (`FFT(a + ib) = FFT(a) + i FFT(b)`): each `g{j}r` transforms column
//!   `j` of the *real* plane of the first-dimension output, each `g{j}i`
//!   the *imaginary* plane, and the host combines the results. This is
//!   what gives the tasks disjoint memory footprints where the paper's
//!   partitioning found them;
//! - [`image`] — synthetic 512x512 input imagery;
//! - [`swmodel`] — the Pentium-150 software execution model the paper
//!   compares against (calibrated cost model, Sec. 5);
//! - [`runtime`] — the hardware-vs-software comparison: per-block cycle
//!   counts from cycle-accurate simulation of all three temporal
//!   partitions, scaled to a 512x512 image at the paper's 6 MHz design
//!   clock;
//! - [`flow`] — the SPARCS flow driver producing the paper's partitioning
//!   (three temporal partitions with arbiters `[6, 2]`, `[4]`, `[]` —
//!   Fig. 11) and block-accurate simulation with host-mediated data
//!   movement between partitions.

pub mod flow;
pub mod image;
pub mod reference;
pub mod runtime;
pub mod swmodel;
pub mod taskgraph;

pub use flow::{
    run_fft_flow, run_fft_flow_on, run_fft_flow_with, simulate_block, simulate_block_with,
    BlockSim, FftFlow,
};
pub use reference::Complex;
pub use taskgraph::{build_fft_taskgraph, FftNames};
