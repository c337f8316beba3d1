//! Channel-state models: receiving-end registers and shared routes.

use rcarb_taskgraph::id::{ChannelId, TaskId};

/// Where the data register of a shared channel sits — the design choice
/// Table 1 of the paper motivates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterPlacement {
    /// One register per *logical* channel at its receiving end, enabled by
    /// the source (the paper's correct construction, Fig. 3).
    Receiver,
    /// One register per *physical* route at the source side — the naive
    /// construction the paper argues against: a later transfer on the
    /// shared route overwrites data the earlier target has not yet
    /// consumed.
    Source,
}

/// The registers of one merged (or private) physical route.
///
/// A shared route (merged channels) reports simultaneous-drive
/// conflicts as protocol violations; a private per-channel route
/// absorbs them silently.
#[derive(Debug, Clone)]
pub struct RouteState {
    placement: RegisterPlacement,
    /// Whether the route is shared (its conflicts are violations).
    shared: bool,
    /// Logical channels multiplexed onto this route.
    logicals: Vec<ChannelId>,
    /// Receiver-side registers, one per logical channel.
    receiver_regs: Vec<Option<u64>>,
    /// The single source-side register used in [`RegisterPlacement::Source`]
    /// mode.
    source_reg: Option<(ChannelId, u64)>,
    transfers: u64,
    conflicts: u64,
}

/// One cycle's send on a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteSend {
    /// The sending task.
    pub task: TaskId,
    /// The logical channel addressed.
    pub channel: ChannelId,
    /// The word transferred.
    pub value: u64,
}

/// Result of one cycle on a route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteOutcome {
    /// Nothing happened.
    Idle,
    /// One transfer latched.
    Ok,
    /// Multiple distinct tasks drove the shared route simultaneously (bus
    /// conflict; nothing is latched).
    Conflict {
        /// The driving tasks, in id order.
        tasks: Vec<TaskId>,
    },
}

impl RouteState {
    /// Creates the state for a private route carrying `logicals`.
    pub fn new(logicals: Vec<ChannelId>, placement: RegisterPlacement) -> Self {
        let n = logicals.len();
        Self {
            placement,
            shared: false,
            logicals,
            receiver_regs: vec![None; n],
            source_reg: None,
            transfers: 0,
            conflicts: 0,
        }
    }

    /// Creates the state for a shared route merging `logicals`.
    pub(crate) fn shared(logicals: Vec<ChannelId>, placement: RegisterPlacement) -> Self {
        Self {
            shared: true,
            ..Self::new(logicals, placement)
        }
    }

    /// Whether conflicts on this route are protocol violations.
    pub(crate) fn is_shared(&self) -> bool {
        self.shared
    }

    /// The logical channels on this route.
    pub fn logicals(&self) -> &[ChannelId] {
        &self.logicals
    }

    /// Transfers completed.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Conflicts observed.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Applies one cycle's sends.
    pub fn cycle(&mut self, sends: &[RouteSend]) -> RouteOutcome {
        match sends {
            [] => RouteOutcome::Idle,
            [s] => {
                self.latch(*s);
                RouteOutcome::Ok
            }
            many => {
                let mut tasks: Vec<TaskId> = many.iter().map(|s| s.task).collect();
                tasks.sort();
                tasks.dedup();
                if tasks.len() == 1 {
                    // A single task cannot issue two sends in one cycle in
                    // practice (one instruction per cycle), but be safe.
                    self.latch(many[0]);
                    return RouteOutcome::Ok;
                }
                self.conflicts += 1;
                RouteOutcome::Conflict { tasks }
            }
        }
    }

    fn latch(&mut self, s: RouteSend) {
        self.transfers += 1;
        match self.placement {
            RegisterPlacement::Receiver => {
                let slot = self
                    .logicals
                    .iter()
                    .position(|&c| c == s.channel)
                    .expect("send on a channel not carried by this route");
                self.receiver_regs[slot] = Some(s.value);
            }
            RegisterPlacement::Source => {
                self.source_reg = Some((s.channel, s.value));
            }
        }
    }

    /// Seeds `channel`'s register with `value` without counting a
    /// transfer — used when a re-routed channel inherits the latched
    /// word of the route it migrated off.
    pub fn preload(&mut self, channel: ChannelId, value: u64) {
        match self.placement {
            RegisterPlacement::Receiver => {
                if let Some(slot) = self.logicals.iter().position(|&c| c == channel) {
                    self.receiver_regs[slot] = Some(value);
                }
            }
            RegisterPlacement::Source => self.source_reg = Some((channel, value)),
        }
    }

    /// The value a reader of `channel` currently sees, if any.
    pub fn read(&self, channel: ChannelId) -> Option<u64> {
        match self.placement {
            RegisterPlacement::Receiver => {
                let slot = self.logicals.iter().position(|&c| c == channel)?;
                self.receiver_regs[slot]
            }
            RegisterPlacement::Source => match self.source_reg {
                // In the naive scheme the reader sees the route register
                // only while it still holds *its* channel's transfer.
                Some((c, v)) if c == channel => Some(v),
                _ => None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch(i: u32) -> ChannelId {
        ChannelId::new(i)
    }

    fn t(i: u32) -> TaskId {
        TaskId::new(i)
    }

    #[test]
    fn table1_receiver_registers_preserve_earlier_transfer() {
        // Table 1: c1 := 10 (task 1), later c4 := 102 (task 4) on the
        // merged channel c1_4; task 2 must still read 10.
        let mut route = RouteState::new(vec![ch(0), ch(1)], RegisterPlacement::Receiver);
        route.cycle(&[RouteSend {
            task: t(0),
            channel: ch(0),
            value: 10,
        }]);
        route.cycle(&[RouteSend {
            task: t(3),
            channel: ch(1),
            value: 102,
        }]);
        assert_eq!(route.read(ch(0)), Some(10));
        assert_eq!(route.read(ch(1)), Some(102));
    }

    #[test]
    fn table1_source_register_loses_earlier_transfer() {
        // The construction the paper rejects: one register on the route.
        let mut route = RouteState::new(vec![ch(0), ch(1)], RegisterPlacement::Source);
        route.cycle(&[RouteSend {
            task: t(0),
            channel: ch(0),
            value: 10,
        }]);
        route.cycle(&[RouteSend {
            task: t(3),
            channel: ch(1),
            value: 102,
        }]);
        assert_eq!(route.read(ch(0)), None, "value 10 was overwritten");
        assert_eq!(route.read(ch(1)), Some(102));
    }

    #[test]
    fn simultaneous_distinct_sources_conflict() {
        let mut route = RouteState::new(vec![ch(0), ch(1)], RegisterPlacement::Receiver);
        let out = route.cycle(&[
            RouteSend {
                task: t(0),
                channel: ch(0),
                value: 1,
            },
            RouteSend {
                task: t(1),
                channel: ch(1),
                value: 2,
            },
        ]);
        assert_eq!(
            out,
            RouteOutcome::Conflict {
                tasks: vec![t(0), t(1)]
            }
        );
        assert_eq!(route.read(ch(0)), None);
        assert_eq!(route.conflicts(), 1);
    }

    #[test]
    fn value_persists_for_late_reader() {
        // "the presence of the registers allows transferred data to be
        // stored and subsequent transfers to take place immediately".
        let mut route = RouteState::new(vec![ch(0)], RegisterPlacement::Receiver);
        route.cycle(&[RouteSend {
            task: t(0),
            channel: ch(0),
            value: 5,
        }]);
        for _ in 0..10 {
            route.cycle(&[]);
        }
        assert_eq!(route.read(ch(0)), Some(5));
    }
}
