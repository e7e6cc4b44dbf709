//! OpenFlow 1.0 actions and their application to packet header keys.

use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::flow_match::FlowKeys;
use crate::types::{MacAddr, PortNo};

/// An OpenFlow 1.0 action (`OFPAT_*`).
///
/// An empty action list means "drop".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Forward the packet out of `port`.
    Output(PortNo),
    /// Set the 802.1Q VLAN id.
    SetVlanVid(u16),
    /// Set the 802.1Q VLAN priority.
    SetVlanPcp(u8),
    /// Strip the 802.1Q header.
    StripVlan,
    /// Rewrite the Ethernet source address.
    SetDlSrc(MacAddr),
    /// Rewrite the Ethernet destination address.
    SetDlDst(MacAddr),
    /// Rewrite the IPv4 source address.
    SetNwSrc(Ipv4Addr),
    /// Rewrite the IPv4 destination address.
    SetNwDst(Ipv4Addr),
    /// Rewrite the IP type-of-service byte.
    ///
    /// FloodGuard's migration agent uses this to tag the original ingress
    /// port into the TOS field before redirecting a table-miss packet.
    SetNwTos(u8),
    /// Rewrite the transport source port.
    SetTpSrc(u16),
    /// Rewrite the transport destination port.
    SetTpDst(u16),
    /// Forward out of `port` through queue `queue_id`.
    Enqueue {
        /// Target port.
        port: PortNo,
        /// Queue on that port.
        queue_id: u32,
    },
}

impl Action {
    /// OpenFlow 1.0 wire type code for this action.
    pub fn type_code(&self) -> u16 {
        match self {
            Action::Output(_) => 0,
            Action::SetVlanVid(_) => 1,
            Action::SetVlanPcp(_) => 2,
            Action::StripVlan => 3,
            Action::SetDlSrc(_) => 4,
            Action::SetDlDst(_) => 5,
            Action::SetNwSrc(_) => 6,
            Action::SetNwDst(_) => 7,
            Action::SetNwTos(_) => 8,
            Action::SetTpSrc(_) => 9,
            Action::SetTpDst(_) => 10,
            Action::Enqueue { .. } => 11,
        }
    }

    /// Length of this action on the wire, in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            Action::Output(_)
            | Action::StripVlan
            | Action::SetVlanVid(_)
            | Action::SetVlanPcp(_) => 8,
            Action::SetNwSrc(_) | Action::SetNwDst(_) | Action::SetNwTos(_) => 8,
            Action::SetTpSrc(_) | Action::SetTpDst(_) => 8,
            Action::SetDlSrc(_) | Action::SetDlDst(_) => 16,
            Action::Enqueue { .. } => 16,
        }
    }

    /// Applies this action to `keys`, returning the output port when this is
    /// a forwarding action.
    ///
    /// Header-rewrite actions mutate `keys` in place, mirroring the datapath
    /// behaviour where later matches (e.g. at the next switch) see rewritten
    /// fields.
    pub fn apply(&self, keys: &mut FlowKeys) -> Option<PortNo> {
        match *self {
            Action::Output(port) => Some(port),
            Action::Enqueue { port, .. } => Some(port),
            Action::SetVlanVid(vid) => {
                keys.dl_vlan = vid;
                None
            }
            Action::SetVlanPcp(pcp) => {
                keys.dl_vlan_pcp = pcp;
                None
            }
            Action::StripVlan => {
                keys.dl_vlan = crate::types::OFP_VLAN_NONE;
                keys.dl_vlan_pcp = 0;
                None
            }
            Action::SetDlSrc(mac) => {
                keys.dl_src = mac;
                None
            }
            Action::SetDlDst(mac) => {
                keys.dl_dst = mac;
                None
            }
            Action::SetNwSrc(ip) => {
                keys.nw_src = ip;
                None
            }
            Action::SetNwDst(ip) => {
                keys.nw_dst = ip;
                None
            }
            Action::SetNwTos(tos) => {
                keys.nw_tos = tos;
                None
            }
            Action::SetTpSrc(port) => {
                keys.tp_src = port;
                None
            }
            Action::SetTpDst(port) => {
                keys.tp_dst = port;
                None
            }
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Output(p) => write!(f, "output:{p}"),
            Action::SetVlanVid(v) => write!(f, "set_vlan_vid:{v}"),
            Action::SetVlanPcp(v) => write!(f, "set_vlan_pcp:{v}"),
            Action::StripVlan => f.write_str("strip_vlan"),
            Action::SetDlSrc(m) => write!(f, "set_dl_src:{m}"),
            Action::SetDlDst(m) => write!(f, "set_dl_dst:{m}"),
            Action::SetNwSrc(ip) => write!(f, "set_nw_src:{ip}"),
            Action::SetNwDst(ip) => write!(f, "set_nw_dst:{ip}"),
            Action::SetNwTos(t) => write!(f, "set_tos_bits:{t}"),
            Action::SetTpSrc(p) => write!(f, "set_tp_src:{p}"),
            Action::SetTpDst(p) => write!(f, "set_tp_dst:{p}"),
            Action::Enqueue { port, queue_id } => write!(f, "enqueue:{port}:q{queue_id}"),
        }
    }
}

/// Applies an action list to `keys` and appends every output port, in
/// order, to `outputs`, which the caller owns and may reuse across calls.
///
/// A drop (no output action) appends nothing.
///
/// # Examples
///
/// ```
/// use ofproto::actions::{apply_all, Action};
/// use ofproto::flow_match::FlowKeys;
/// use ofproto::types::PortNo;
///
/// let mut keys = FlowKeys::default();
/// let mut outs = Vec::new();
/// apply_all(
///     &[Action::SetNwTos(4), Action::Output(PortNo::Physical(2))],
///     &mut keys,
///     &mut outs,
/// );
/// assert_eq!(outs, vec![PortNo::Physical(2)]);
/// assert_eq!(keys.nw_tos, 4);
/// ```
pub fn apply_all(actions: &[Action], keys: &mut FlowKeys, outputs: &mut Vec<PortNo>) {
    outputs.extend(actions.iter().filter_map(|action| action.apply(keys)));
}

/// Returns the output ports of an action list without mutating any keys.
pub fn output_ports(actions: &[Action]) -> Vec<PortNo> {
    actions
        .iter()
        .filter_map(|a| match *a {
            Action::Output(p) | Action::Enqueue { port: p, .. } => Some(p),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_action_list_is_drop() {
        let mut keys = FlowKeys::default();
        let mut outs = Vec::new();
        apply_all(&[], &mut keys, &mut outs);
        assert!(outs.is_empty());
    }

    #[test]
    fn rewrite_then_output() {
        let mut keys = FlowKeys::default();
        let actions = [
            Action::SetNwDst(Ipv4Addr::new(192, 168, 0, 1)),
            Action::Output(PortNo::Physical(7)),
        ];
        let mut outs = vec![PortNo::Flood];
        apply_all(&actions, &mut keys, &mut outs);
        assert_eq!(outs, vec![PortNo::Flood, PortNo::Physical(7)], "appended");
        assert_eq!(keys.nw_dst, Ipv4Addr::new(192, 168, 0, 1));
    }

    #[test]
    fn tos_tagging_roundtrip_keys() {
        // The FloodGuard migration rule: set-tos-bits = inport, output:cache.
        let mut keys = FlowKeys {
            in_port: 5,
            ..FlowKeys::default()
        };
        let actions = [Action::SetNwTos(5), Action::Output(PortNo::Physical(99))];
        apply_all(&actions, &mut keys, &mut Vec::new());
        assert_eq!(keys.nw_tos, 5);
    }

    #[test]
    fn strip_vlan_resets_pcp() {
        let mut keys = FlowKeys {
            dl_vlan: 42,
            dl_vlan_pcp: 3,
            ..FlowKeys::default()
        };
        Action::StripVlan.apply(&mut keys);
        assert_eq!(keys.dl_vlan, crate::types::OFP_VLAN_NONE);
        assert_eq!(keys.dl_vlan_pcp, 0);
    }

    #[test]
    fn multiple_outputs_collected_in_order() {
        let actions = [
            Action::Output(PortNo::Physical(1)),
            Action::Output(PortNo::Flood),
            Action::Enqueue {
                port: PortNo::Physical(2),
                queue_id: 0,
            },
        ];
        assert_eq!(
            output_ports(&actions),
            vec![PortNo::Physical(1), PortNo::Flood, PortNo::Physical(2)]
        );
    }

    #[test]
    fn wire_lens_are_spec_sizes() {
        assert_eq!(Action::Output(PortNo::Flood).wire_len(), 8);
        assert_eq!(Action::SetDlDst(MacAddr::ZERO).wire_len(), 16);
        assert_eq!(
            Action::Enqueue {
                port: PortNo::Physical(1),
                queue_id: 3
            }
            .wire_len(),
            16
        );
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            Action::Output(PortNo::Physical(3)).to_string(),
            "output:port3"
        );
        assert_eq!(Action::SetNwTos(1).to_string(), "set_tos_bits:1");
    }
}
