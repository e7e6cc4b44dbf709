//! The `flow_mod` message: commands that install, modify or remove flow rules.

use std::fmt;

use crate::actions::Action;
use crate::flow_match::OfMatch;
use crate::types::{BufferId, PortNo};

/// The five `OFPFC_*` flow-mod commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowModCommand {
    /// Insert a new flow rule.
    Add,
    /// Modify the actions of all matching rules (non-strict).
    Modify,
    /// Modify the actions of the rule with identical match and priority.
    ModifyStrict,
    /// Delete all matching rules (non-strict, subset semantics).
    Delete,
    /// Delete the rule with identical match and priority.
    DeleteStrict,
}

impl FlowModCommand {
    /// Wire value of this command.
    pub fn to_u16(self) -> u16 {
        match self {
            FlowModCommand::Add => 0,
            FlowModCommand::Modify => 1,
            FlowModCommand::ModifyStrict => 2,
            FlowModCommand::Delete => 3,
            FlowModCommand::DeleteStrict => 4,
        }
    }

    /// Decodes a wire value.
    pub fn from_u16(raw: u16) -> Option<Self> {
        Some(match raw {
            0 => FlowModCommand::Add,
            1 => FlowModCommand::Modify,
            2 => FlowModCommand::ModifyStrict,
            3 => FlowModCommand::Delete,
            4 => FlowModCommand::DeleteStrict,
            _ => return None,
        })
    }
}

/// Flow-mod flags (`OFPFF_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowModFlags {
    /// Request a `flow_removed` message when the rule expires or is deleted.
    pub send_flow_removed: bool,
    /// Refuse installation if an overlapping rule of equal priority exists.
    pub check_overlap: bool,
}

/// The default priority assigned by most controllers (`OFP_DEFAULT_PRIORITY`).
pub const DEFAULT_PRIORITY: u16 = 0x8000;

/// A complete flow-mod message body.
///
/// # Examples
///
/// ```
/// use ofproto::flow_mod::{FlowMod, FlowModCommand};
/// use ofproto::flow_match::OfMatch;
/// use ofproto::actions::Action;
/// use ofproto::types::{MacAddr, PortNo};
///
/// let fm = FlowMod::add(
///     OfMatch::any().with_dl_dst(MacAddr::from_u64(0x0a)),
///     vec![Action::Output(PortNo::Physical(1))],
/// )
/// .with_idle_timeout(10)
/// .with_priority(100);
/// assert_eq!(fm.command, FlowModCommand::Add);
/// assert_eq!(fm.priority, 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowMod {
    /// What to do.
    pub command: FlowModCommand,
    /// Which packets the rule applies to.
    pub of_match: OfMatch,
    /// Opaque controller-assigned identifier.
    pub cookie: u64,
    /// Seconds of inactivity before expiry; 0 disables.
    pub idle_timeout: u16,
    /// Seconds until unconditional expiry; 0 disables.
    pub hard_timeout: u16,
    /// Matching precedence; higher wins.
    pub priority: u16,
    /// Buffered packet to release through the new rule, if any.
    pub buffer_id: Option<BufferId>,
    /// For delete commands: restrict to rules with this output port.
    pub out_port: PortNo,
    /// Behaviour flags.
    pub flags: FlowModFlags,
    /// Actions to apply; empty means drop.
    pub actions: Vec<Action>,
}

impl FlowMod {
    /// Creates an `Add` flow-mod with default priority and no timeouts.
    pub fn add(of_match: OfMatch, actions: Vec<Action>) -> FlowMod {
        FlowMod {
            command: FlowModCommand::Add,
            of_match,
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: DEFAULT_PRIORITY,
            buffer_id: None,
            out_port: PortNo::None,
            flags: FlowModFlags::default(),
            actions,
        }
    }

    /// Creates a non-strict `Delete` for every rule matching `of_match`.
    pub fn delete(of_match: OfMatch) -> FlowMod {
        FlowMod {
            command: FlowModCommand::Delete,
            of_match,
            cookie: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 0,
            buffer_id: None,
            out_port: PortNo::None,
            flags: FlowModFlags::default(),
            actions: Vec::new(),
        }
    }

    /// Creates a strict `Delete` for the rule with this match and priority.
    pub fn delete_strict(of_match: OfMatch, priority: u16) -> FlowMod {
        FlowMod {
            priority,
            command: FlowModCommand::DeleteStrict,
            ..FlowMod::delete(of_match)
        }
    }

    /// Sets the idle timeout.
    #[must_use]
    pub fn with_idle_timeout(mut self, seconds: u16) -> Self {
        self.idle_timeout = seconds;
        self
    }

    /// Sets the hard timeout.
    #[must_use]
    pub fn with_hard_timeout(mut self, seconds: u16) -> Self {
        self.hard_timeout = seconds;
        self
    }

    /// Sets the priority.
    #[must_use]
    pub fn with_priority(mut self, priority: u16) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the cookie.
    #[must_use]
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }

    /// Sets the buffered packet to release.
    #[must_use]
    pub fn with_buffer_id(mut self, buffer_id: BufferId) -> Self {
        self.buffer_id = Some(buffer_id);
        self
    }

    /// Requests a `flow_removed` notification on expiry.
    #[must_use]
    pub fn with_send_flow_removed(mut self) -> Self {
        self.flags.send_flow_removed = true;
        self
    }
}

impl fmt::Display for FlowMod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let actions: Vec<String> = self.actions.iter().map(|a| a.to_string()).collect();
        write!(
            f,
            "flow_mod{{{:?} pri={} {} actions=[{}]}}",
            self.command,
            self.priority,
            self.of_match,
            actions.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MacAddr;

    #[test]
    fn command_wire_roundtrip() {
        for raw in 0..5 {
            assert_eq!(FlowModCommand::from_u16(raw).unwrap().to_u16(), raw);
        }
        assert_eq!(FlowModCommand::from_u16(5), None);
    }

    #[test]
    fn add_builder_defaults() {
        let fm = FlowMod::add(OfMatch::any(), vec![]);
        assert_eq!(fm.priority, DEFAULT_PRIORITY);
        assert_eq!(fm.idle_timeout, 0);
        assert_eq!(fm.hard_timeout, 0);
        assert_eq!(fm.buffer_id, None);
        assert!(!fm.flags.send_flow_removed);
    }

    #[test]
    fn builder_chain() {
        let fm = FlowMod::add(
            OfMatch::any().with_dl_dst(MacAddr::from_u64(1)),
            vec![Action::Output(PortNo::Physical(1))],
        )
        .with_idle_timeout(10)
        .with_hard_timeout(30)
        .with_priority(7)
        .with_cookie(0xdead)
        .with_buffer_id(BufferId(3))
        .with_send_flow_removed();
        assert_eq!(fm.idle_timeout, 10);
        assert_eq!(fm.hard_timeout, 30);
        assert_eq!(fm.priority, 7);
        assert_eq!(fm.cookie, 0xdead);
        assert_eq!(fm.buffer_id, Some(BufferId(3)));
        assert!(fm.flags.send_flow_removed);
    }

    #[test]
    fn delete_strict_carries_priority() {
        let fm = FlowMod::delete_strict(OfMatch::any(), 42);
        assert_eq!(fm.command, FlowModCommand::DeleteStrict);
        assert_eq!(fm.priority, 42);
        assert!(fm.actions.is_empty());
    }

    #[test]
    fn display_mentions_command_and_actions() {
        let fm = FlowMod::add(OfMatch::any(), vec![Action::Output(PortNo::Flood)]);
        let shown = fm.to_string();
        assert!(shown.contains("Add"));
        assert!(shown.contains("output:flood"));
    }
}
