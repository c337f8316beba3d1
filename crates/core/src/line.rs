//! Shared-line driving policies (the paper's Fig. 4).
//!
//! When a task is not granted the shared resource it must stop driving the
//! shared lines — but *how* depends on the line:
//!
//! - address/data lines tri-state safely (Fig. 4a): the bank ignores them
//!   while idle;
//! - an active-high control such as an SRAM write-select must **not**
//!   float: a floating write line can corrupt memory, so idle tasks drive
//!   0 and the contributions are OR-ed (Fig. 4b);
//! - active-low controls dually drive 1 and are AND-ed (Fig. 4c).

use std::fmt;

/// How a shared line is resolved among multiple potential drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharedLineKind {
    /// Tri-state bus: idle drivers release the line (high impedance);
    /// exactly one driver may be active, more is a bus conflict.
    TriState,
    /// Wired-OR of all contributions; idle drivers contribute 0.
    ActiveHighOr,
    /// Wired-AND of all contributions; idle drivers contribute 1.
    ActiveLowAnd,
}

/// What an idle (non-granted) task must drive onto the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdleDrive {
    /// Release the line (high impedance).
    HighZ,
    /// Drive logic 0.
    Low,
    /// Drive logic 1.
    High,
}

impl SharedLineKind {
    /// The mandatory idle drive for this kind of line.
    pub fn idle_drive(self) -> IdleDrive {
        match self {
            SharedLineKind::TriState => IdleDrive::HighZ,
            SharedLineKind::ActiveHighOr => IdleDrive::Low,
            SharedLineKind::ActiveLowAnd => IdleDrive::High,
        }
    }

    /// The value the resource sees when *no* task drives the line at all.
    ///
    /// Tri-state buses float (undefined, reported as a conflict by the
    /// simulator if sampled); OR lines read 0 (memory stays in read mode),
    /// AND lines read 1 (active-low stays deasserted).
    pub fn undriven_value(self) -> Option<bool> {
        match self {
            SharedLineKind::TriState => None,
            SharedLineKind::ActiveHighOr => Some(false),
            SharedLineKind::ActiveLowAnd => Some(true),
        }
    }
}

impl fmt::Display for SharedLineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SharedLineKind::TriState => "tri-state",
            SharedLineKind::ActiveHighOr => "active-high/or",
            SharedLineKind::ActiveLowAnd => "active-low/and",
        })
    }
}

/// The line plan of one shared physical memory bank: which resolution each
/// line group uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryLinePlan {
    /// Address lines.
    pub address: SharedLineKind,
    /// Data lines.
    pub data: SharedLineKind,
    /// Write select (write on high for the SRAMs modelled here).
    pub write_select: SharedLineKind,
}

impl MemoryLinePlan {
    /// The plan the paper prescribes for a write-on-high SRAM bank:
    /// tri-stated address/data, OR-ed write select so an idle bank always
    /// reads.
    pub fn sram_write_high() -> Self {
        Self {
            address: SharedLineKind::TriState,
            data: SharedLineKind::TriState,
            write_select: SharedLineKind::ActiveHighOr,
        }
    }
}

impl Default for MemoryLinePlan {
    fn default() -> Self {
        Self::sram_write_high()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_drives_match_fig4() {
        assert_eq!(SharedLineKind::TriState.idle_drive(), IdleDrive::HighZ);
        assert_eq!(SharedLineKind::ActiveHighOr.idle_drive(), IdleDrive::Low);
        assert_eq!(SharedLineKind::ActiveLowAnd.idle_drive(), IdleDrive::High);
    }

    #[test]
    fn undriven_or_line_reads_zero() {
        // The paper's motivating hazard: an idle memory must sit in read
        // mode, so the OR-resolved write select reads 0 with no drivers.
        assert_eq!(SharedLineKind::ActiveHighOr.undriven_value(), Some(false));
        assert_eq!(SharedLineKind::ActiveLowAnd.undriven_value(), Some(true));
        assert_eq!(SharedLineKind::TriState.undriven_value(), None);
    }

    #[test]
    fn sram_plan_protects_the_write_line() {
        let plan = MemoryLinePlan::sram_write_high();
        assert_eq!(plan.write_select, SharedLineKind::ActiveHighOr);
        assert_eq!(plan.address, SharedLineKind::TriState);
        assert_eq!(plan, MemoryLinePlan::default());
    }
}
