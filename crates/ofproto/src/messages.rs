//! OpenFlow 1.0 protocol messages exchanged between switch and controller.

use bytes::Bytes;

use crate::actions::Action;
use crate::flow_match::OfMatch;
use crate::flow_mod::FlowMod;
use crate::types::{BufferId, DatapathId, MacAddr, PortNo, Xid};

/// Why a packet was sent to the controller (`OFPR_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketInReason {
    /// No flow-table entry matched the packet.
    NoMatch,
    /// An explicit `output:controller` action fired.
    Action,
}

impl PacketInReason {
    /// Wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            PacketInReason::NoMatch => 0,
            PacketInReason::Action => 1,
        }
    }

    /// Decodes a wire value.
    pub fn from_u8(raw: u8) -> Option<Self> {
        Some(match raw {
            0 => PacketInReason::NoMatch,
            1 => PacketInReason::Action,
            _ => return None,
        })
    }
}

/// Number of packet bytes shipped in a `packet_in` when the packet *is*
/// buffered on the switch (`miss_send_len` default).
pub const DEFAULT_MISS_SEND_LEN: usize = 128;

/// A `packet_in` message: a packet (or its prefix) forwarded to the
/// controller.
///
/// When the switch still had buffer memory, `buffer_id` is set and `data`
/// holds only the first [`DEFAULT_MISS_SEND_LEN`] bytes. When the buffer is
/// full, `buffer_id` is `None` and `data` carries the **entire** packet —
/// this is the amplification vector the saturation attack exploits (paper
/// §II-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketIn {
    /// Switch buffer holding the full packet, if any.
    pub buffer_id: Option<BufferId>,
    /// Full length of the original packet.
    pub total_len: u16,
    /// Ingress port.
    pub in_port: PortNo,
    /// Why the packet was sent up.
    pub reason: PacketInReason,
    /// Packet bytes (prefix if buffered, full packet otherwise).
    pub data: Bytes,
}

impl PacketIn {
    /// Whether this message carries the whole packet (amplified form).
    pub fn is_amplified(&self) -> bool {
        self.buffer_id.is_none()
    }
}

/// A `packet_out` message: the controller injects or releases a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketOut {
    /// Buffered packet to release, if any.
    pub buffer_id: Option<BufferId>,
    /// Port the packet originally arrived on (for `output:in_port` etc.).
    pub in_port: PortNo,
    /// Actions to apply.
    pub actions: Vec<Action>,
    /// Raw packet data when not releasing a buffer.
    pub data: Option<Bytes>,
}

/// Why a flow rule was removed (`OFPRR_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowRemovedReason {
    /// Idle timeout elapsed without traffic.
    IdleTimeout,
    /// Hard timeout elapsed.
    HardTimeout,
    /// Explicitly deleted by a flow-mod.
    Delete,
}

/// A `flow_removed` notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRemoved {
    /// Match of the removed rule.
    pub of_match: OfMatch,
    /// Cookie of the removed rule.
    pub cookie: u64,
    /// Priority of the removed rule.
    pub priority: u16,
    /// Why it was removed.
    pub reason: FlowRemovedReason,
    /// Seconds the rule was installed.
    pub duration_sec: u32,
    /// Packets that hit the rule.
    pub packet_count: u64,
    /// Bytes that hit the rule.
    pub byte_count: u64,
}

/// What changed about a port (`OFPPR_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortStatusReason {
    /// Port added.
    Add,
    /// Port removed.
    Delete,
    /// Port attributes changed.
    Modify,
}

/// A `port_status` notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortStatus {
    /// What happened.
    pub reason: PortStatusReason,
    /// The port affected.
    pub port_no: PortNo,
    /// MAC address of the port.
    pub hw_addr: MacAddr,
    /// Whether the link is up.
    pub link_up: bool,
}

/// A `features_reply`: the switch describes itself after the handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeaturesReply {
    /// The switch's datapath id.
    pub datapath_id: DatapathId,
    /// Packets the switch can buffer for `packet_in`.
    pub n_buffers: u32,
    /// Number of flow tables.
    pub n_tables: u8,
    /// Physical ports present.
    pub ports: Vec<PortNo>,
}

/// Per-flow statistics, as returned by a flow-stats request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStats {
    /// The rule's match.
    pub of_match: OfMatch,
    /// The rule's priority.
    pub priority: u16,
    /// The rule's cookie.
    pub cookie: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// Seconds installed.
    pub duration_sec: u32,
    /// Rule actions.
    pub actions: Vec<Action>,
}

/// One flow table's statistics, as returned by a table-stats request
/// (`ofp_table_stats`): a fixed 64 bytes per table, whatever it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    /// The table's id.
    pub table_id: u8,
    /// The table's name; at most 31 bytes go on the wire.
    pub name: String,
    /// The match fields the table can wildcard (`OFPFW_*`).
    pub wildcards: u32,
    /// The most rules the table can hold.
    pub max_entries: u32,
    /// The rules the table holds.
    pub active_count: u32,
    /// Packets looked up in the table.
    pub lookup_count: u64,
    /// Packets that hit a rule of the table.
    pub matched_count: u64,
}

/// An OpenFlow error (`OFPT_ERROR`): type/code plus the offending message's
/// leading bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorMsg {
    /// High-level error class (`OFPET_*`), e.g. 3 = flow-mod failed.
    pub err_type: u16,
    /// Class-specific code (`OFPFMFC_*`), e.g. 0 = all tables full.
    pub code: u16,
    /// At least 64 bytes of the message that caused the error.
    pub data: Bytes,
}

impl ErrorMsg {
    /// `OFPET_FLOW_MOD_FAILED`.
    pub const ET_FLOW_MOD_FAILED: u16 = 3;
    /// `OFPFMFC_ALL_TABLES_FULL`.
    pub const FMFC_ALL_TABLES_FULL: u16 = 0;
    /// `OFPFMFC_OVERLAP`.
    pub const FMFC_OVERLAP: u16 = 1;
}

/// A statistics request body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsRequest {
    /// Per-flow statistics for rules matching the given match (subset).
    Flow(OfMatch),
    /// Per-table statistics (`OFPST_TABLE`): a fixed-size answer, however
    /// many rules the tables hold.
    Table,
}

/// A statistics reply body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsReply {
    /// Per-flow statistics: a whole reply, or the last part of one. The
    /// encoder splits a reply too long for one frame into
    /// [`StatsReply::FlowMore`] parts and this last one, under one xid.
    Flow(Vec<FlowStats>),
    /// Per-flow statistics with `OFPSF_REPLY_MORE` set: a part of a reply
    /// whose further parts follow under the same xid.
    FlowMore(Vec<FlowStats>),
    /// Per-table statistics, one entry per table.
    Table(Vec<TableStats>),
}

/// Any OpenFlow message body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OfBody {
    /// Version negotiation.
    Hello,
    /// Error report.
    Error(ErrorMsg),
    /// Liveness probe.
    EchoRequest(Bytes),
    /// Liveness response (echoes the request payload).
    EchoReply(Bytes),
    /// Ask the switch to describe itself.
    FeaturesRequest,
    /// The switch's self-description.
    FeaturesReply(FeaturesReply),
    /// Packet forwarded to the controller.
    PacketIn(PacketIn),
    /// Packet injected by the controller.
    PacketOut(PacketOut),
    /// Flow-table modification.
    FlowMod(FlowMod),
    /// Flow expiry/delete notification.
    FlowRemoved(FlowRemoved),
    /// Port change notification.
    PortStatus(PortStatus),
    /// Fence: reply only after all earlier messages are processed.
    BarrierRequest,
    /// Fence acknowledgement.
    BarrierReply,
    /// Statistics request.
    StatsRequest(StatsRequest),
    /// Statistics reply.
    StatsReply(StatsReply),
}

impl OfBody {
    /// The OpenFlow 1.0 message type code (`OFPT_*`).
    pub fn type_code(&self) -> u8 {
        match self {
            OfBody::Hello => 0,
            OfBody::Error(_) => 1,
            OfBody::EchoRequest(_) => 2,
            OfBody::EchoReply(_) => 3,
            OfBody::FeaturesRequest => 5,
            OfBody::FeaturesReply(_) => 6,
            OfBody::PacketIn(_) => 10,
            OfBody::FlowRemoved(_) => 11,
            OfBody::PortStatus(_) => 12,
            OfBody::PacketOut(_) => 13,
            OfBody::FlowMod(_) => 14,
            OfBody::StatsRequest(_) => 16,
            OfBody::StatsReply(_) => 17,
            OfBody::BarrierRequest => 18,
            OfBody::BarrierReply => 19,
        }
    }
}

/// A complete OpenFlow message: transaction id plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfMessage {
    /// Transaction id pairing requests with replies.
    pub xid: Xid,
    /// Message body.
    pub body: OfBody,
}

impl OfMessage {
    /// Creates a message with the given xid and body.
    pub fn new(xid: Xid, body: OfBody) -> OfMessage {
        OfMessage { xid, body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_in_reason_roundtrip() {
        assert_eq!(PacketInReason::from_u8(0), Some(PacketInReason::NoMatch));
        assert_eq!(PacketInReason::from_u8(1), Some(PacketInReason::Action));
        assert_eq!(PacketInReason::from_u8(2), None);
        assert_eq!(PacketInReason::NoMatch.to_u8(), 0);
    }

    #[test]
    fn amplification_flag_tracks_buffering() {
        let buffered = PacketIn {
            buffer_id: Some(BufferId(1)),
            total_len: 1500,
            in_port: PortNo::Physical(1),
            reason: PacketInReason::NoMatch,
            data: Bytes::from_static(&[0u8; 128]),
        };
        assert!(!buffered.is_amplified());
        let full = PacketIn {
            buffer_id: None,
            ..buffered
        };
        assert!(full.is_amplified());
    }

    #[test]
    fn type_codes_are_spec_values() {
        assert_eq!(OfBody::Hello.type_code(), 0);
        assert_eq!(
            OfBody::PacketIn(PacketIn {
                buffer_id: None,
                total_len: 0,
                in_port: PortNo::Physical(1),
                reason: PacketInReason::NoMatch,
                data: Bytes::new(),
            })
            .type_code(),
            10
        );
        assert_eq!(
            OfBody::FlowMod(FlowMod::add(OfMatch::any(), vec![])).type_code(),
            14
        );
        assert_eq!(OfBody::BarrierReply.type_code(), 19);
    }
}
