//! OpenFlow 1.0 binary wire codec.
//!
//! Encodes and decodes [`OfMessage`]s to the on-the-wire representation of
//! the OpenFlow 1.0 specification. The simulator uses the encoded length to
//! model data-to-control channel occupancy — in particular the amplification
//! effect where a `packet_in` carries the whole packet once the switch buffer
//! is full.

use std::fmt;
use std::net::Ipv4Addr;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::actions::Action;
use crate::flow_match::{FlowKeys, OfMatch, Wildcards};
use crate::flow_mod::{FlowMod, FlowModCommand, FlowModFlags};
use crate::messages::{
    ErrorMsg, FeaturesReply, FlowRemoved, FlowRemovedReason, FlowStats, OfBody, OfMessage,
    PacketIn, PacketInReason, PacketOut, PortStatus, PortStatusReason, StatsReply, StatsRequest,
    TableStats,
};
use crate::types::{BufferId, DatapathId, MacAddr, PortNo, Xid};

/// The protocol version this codec speaks.
pub const OFP_VERSION: u8 = 0x01;

/// Size of the common message header.
pub const OFP_HEADER_LEN: usize = 8;

/// Size of the `ofp_match` structure.
pub const OFP_MATCH_LEN: usize = 40;

/// Size of an `ofp_phy_port` structure.
const OFP_PHY_PORT_LEN: usize = 48;

/// `OFPSF_REPLY_MORE`: further parts of this stats reply follow.
const OFPSF_REPLY_MORE: u16 = 1;

/// `OFPST_FLOW`: the stats type of a flow-stats request and reply.
const OFPST_FLOW: u16 = 1;

/// `OFPST_TABLE`: the stats type of a table-stats request and reply.
const OFPST_TABLE: u16 = 3;

/// Size of an `ofp_table_stats` entry.
const TABLE_STATS_LEN: usize = 64;

/// Size of the name field of an `ofp_table_stats` entry.
const TABLE_NAME_LEN: usize = 32;

/// Size of an `ofp_flow_stats` entry without its actions.
const FLOW_STATS_FIXED_LEN: usize = 48 + OFP_MATCH_LEN;

/// The largest frame the header's 16-bit length can describe.
const MAX_FRAME_LEN: usize = u16::MAX as usize;

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the message claims or the header requires.
    Truncated,
    /// Version byte was not [`OFP_VERSION`].
    BadVersion(u8),
    /// Unrecognised message type code.
    UnknownType(u8),
    /// Unrecognised action type code.
    UnknownAction(u16),
    /// Unrecognised flow-mod command.
    UnknownCommand(u16),
    /// Unrecognised reason code in `packet_in`/`flow_removed`/`port_status`.
    UnknownReason(u8),
    /// A length field was inconsistent with the payload.
    BadLength,
    /// Unrecognised stats subtype.
    UnknownStatsType(u16),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("message truncated"),
            DecodeError::BadVersion(v) => write!(f, "unsupported OpenFlow version 0x{v:02x}"),
            DecodeError::UnknownType(t) => write!(f, "unknown message type {t}"),
            DecodeError::UnknownAction(a) => write!(f, "unknown action type {a}"),
            DecodeError::UnknownCommand(c) => write!(f, "unknown flow-mod command {c}"),
            DecodeError::UnknownReason(r) => write!(f, "unknown reason code {r}"),
            DecodeError::BadLength => f.write_str("inconsistent length field"),
            DecodeError::UnknownStatsType(t) => write!(f, "unknown stats type {t}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn ensure(buf: &impl Buf, needed: usize) -> Result<(), DecodeError> {
    if buf.remaining() < needed {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

fn put_match(buf: &mut impl BufMut, m: &OfMatch) {
    buf.put_u32(m.wildcards.0);
    buf.put_u16(m.keys.in_port);
    buf.put_slice(&m.keys.dl_src.octets());
    buf.put_slice(&m.keys.dl_dst.octets());
    buf.put_u16(m.keys.dl_vlan);
    buf.put_u8(m.keys.dl_vlan_pcp);
    buf.put_u8(0); // pad
    buf.put_u16(m.keys.dl_type);
    buf.put_u8(m.keys.nw_tos);
    buf.put_u8(m.keys.nw_proto);
    buf.put_u16(0); // pad
    buf.put_u32(u32::from(m.keys.nw_src));
    buf.put_u32(u32::from(m.keys.nw_dst));
    buf.put_u16(m.keys.tp_src);
    buf.put_u16(m.keys.tp_dst);
}

fn get_mac(buf: &mut impl Buf) -> MacAddr {
    let mut octets = [0u8; 6];
    buf.copy_to_slice(&mut octets);
    MacAddr(octets)
}

fn get_match(buf: &mut impl Buf) -> Result<OfMatch, DecodeError> {
    ensure(buf, OFP_MATCH_LEN)?;
    let wildcards = Wildcards(buf.get_u32());
    let in_port = buf.get_u16();
    let dl_src = get_mac(buf);
    let dl_dst = get_mac(buf);
    let dl_vlan = buf.get_u16();
    let dl_vlan_pcp = buf.get_u8();
    buf.advance(1);
    let dl_type = buf.get_u16();
    let nw_tos = buf.get_u8();
    let nw_proto = buf.get_u8();
    buf.advance(2);
    let nw_src = Ipv4Addr::from(buf.get_u32());
    let nw_dst = Ipv4Addr::from(buf.get_u32());
    let tp_src = buf.get_u16();
    let tp_dst = buf.get_u16();
    Ok(OfMatch {
        wildcards,
        keys: FlowKeys {
            in_port,
            dl_src,
            dl_dst,
            dl_vlan,
            dl_vlan_pcp,
            dl_type,
            nw_tos,
            nw_proto,
            nw_src,
            nw_dst,
            tp_src,
            tp_dst,
        },
    })
}

fn put_action(buf: &mut impl BufMut, action: &Action) {
    buf.put_u16(action.type_code());
    buf.put_u16(action.wire_len() as u16);
    match *action {
        Action::Output(port) => {
            buf.put_u16(port.to_u16());
            buf.put_u16(0xffff); // max_len: send whole packet
        }
        Action::SetVlanVid(vid) => {
            buf.put_u16(vid);
            buf.put_u16(0);
        }
        Action::SetVlanPcp(pcp) => {
            buf.put_u8(pcp);
            buf.put_slice(&[0u8; 3]);
        }
        Action::StripVlan => buf.put_u32(0),
        Action::SetDlSrc(mac) | Action::SetDlDst(mac) => {
            buf.put_slice(&mac.octets());
            buf.put_slice(&[0u8; 6]);
        }
        Action::SetNwSrc(ip) | Action::SetNwDst(ip) => buf.put_u32(u32::from(ip)),
        Action::SetNwTos(tos) => {
            buf.put_u8(tos);
            buf.put_slice(&[0u8; 3]);
        }
        Action::SetTpSrc(port) | Action::SetTpDst(port) => {
            buf.put_u16(port);
            buf.put_u16(0);
        }
        Action::Enqueue { port, queue_id } => {
            buf.put_u16(port.to_u16());
            buf.put_slice(&[0u8; 6]);
            buf.put_u32(queue_id);
        }
    }
}

fn get_action(buf: &mut impl Buf) -> Result<Action, DecodeError> {
    ensure(buf, 4)?;
    let type_code = buf.get_u16();
    let len = buf.get_u16() as usize;
    if len < 4 {
        return Err(DecodeError::BadLength);
    }
    ensure(buf, len - 4)?;
    Ok(match type_code {
        0 => {
            let port = PortNo::from_u16(buf.get_u16());
            buf.advance(2); // max_len
            Action::Output(port)
        }
        1 => {
            let vid = buf.get_u16();
            buf.advance(2);
            Action::SetVlanVid(vid)
        }
        2 => {
            let pcp = buf.get_u8();
            buf.advance(3);
            Action::SetVlanPcp(pcp)
        }
        3 => {
            buf.advance(4);
            Action::StripVlan
        }
        4 => {
            let mac = get_mac(buf);
            buf.advance(6);
            Action::SetDlSrc(mac)
        }
        5 => {
            let mac = get_mac(buf);
            buf.advance(6);
            Action::SetDlDst(mac)
        }
        6 => Action::SetNwSrc(Ipv4Addr::from(buf.get_u32())),
        7 => Action::SetNwDst(Ipv4Addr::from(buf.get_u32())),
        8 => {
            let tos = buf.get_u8();
            buf.advance(3);
            Action::SetNwTos(tos)
        }
        9 => {
            let port = buf.get_u16();
            buf.advance(2);
            Action::SetTpSrc(port)
        }
        10 => {
            let port = buf.get_u16();
            buf.advance(2);
            Action::SetTpDst(port)
        }
        11 => {
            let port = PortNo::from_u16(buf.get_u16());
            buf.advance(6);
            let queue_id = buf.get_u32();
            Action::Enqueue { port, queue_id }
        }
        other => return Err(DecodeError::UnknownAction(other)),
    })
}

fn actions_wire_len(actions: &[Action]) -> usize {
    actions.iter().map(Action::wire_len).sum()
}

fn get_actions(buf: &mut impl Buf, mut len: usize) -> Result<Vec<Action>, DecodeError> {
    let mut actions = Vec::new();
    while len > 0 {
        let before = buf.remaining();
        let action = get_action(buf)?;
        let consumed = before - buf.remaining();
        if consumed > len {
            return Err(DecodeError::BadLength);
        }
        len -= consumed;
        actions.push(action);
    }
    Ok(actions)
}

/// Returns the encoded length of `msg` in bytes without encoding it.
///
/// Used by the simulator to account channel bandwidth cheaply.
pub fn wire_len(msg: &OfMessage) -> usize {
    if let OfBody::StatsReply(StatsReply::Flow(stats) | StatsReply::FlowMore(stats)) = &msg.body {
        return flow_stats_frames(stats).iter().map(|(_, len)| len).sum();
    }
    OFP_HEADER_LEN
        + match &msg.body {
            OfBody::Hello
            | OfBody::FeaturesRequest
            | OfBody::BarrierRequest
            | OfBody::BarrierReply => 0,
            OfBody::EchoRequest(data) | OfBody::EchoReply(data) => data.len(),
            OfBody::Error(e) => 4 + e.data.len(),
            OfBody::FeaturesReply(fr) => 24 + fr.ports.len() * OFP_PHY_PORT_LEN,
            OfBody::PacketIn(pi) => 10 + pi.data.len(),
            OfBody::PacketOut(po) => {
                8 + actions_wire_len(&po.actions) + po.data.as_ref().map_or(0, Bytes::len)
            }
            OfBody::FlowMod(fm) => OFP_MATCH_LEN + 24 + actions_wire_len(&fm.actions),
            OfBody::FlowRemoved(_) => 80,
            OfBody::PortStatus(_) => 8 + OFP_PHY_PORT_LEN,
            OfBody::StatsRequest(StatsRequest::Flow(_)) => 4 + OFP_MATCH_LEN + 4,
            OfBody::StatsRequest(StatsRequest::Table) => 4,
            OfBody::StatsReply(StatsReply::Table(tables)) => 4 + tables.len() * TABLE_STATS_LEN,
            OfBody::StatsReply(_) => unreachable!("measured above"),
        }
}

fn flow_stats_len(stats: &FlowStats) -> usize {
    FLOW_STATS_FIXED_LEN + actions_wire_len(&stats.actions)
}

/// Splits a flow-stats reply's entries into frames the 16-bit length field
/// can describe: each frame's entries and its length, in order, and at
/// least one frame. Every frame but the last goes out with
/// `OFPSF_REPLY_MORE` set.
fn flow_stats_frames(stats: &[FlowStats]) -> Vec<(&[FlowStats], usize)> {
    const EMPTY: usize = OFP_HEADER_LEN + 4;
    let mut frames = Vec::new();
    let (mut start, mut len) = (0, EMPTY);
    for (i, entry) in stats.iter().enumerate() {
        let entry_len = flow_stats_len(entry);
        if i > start && len + entry_len > MAX_FRAME_LEN {
            frames.push((&stats[start..i], len));
            (start, len) = (i, EMPTY);
        }
        len += entry_len;
    }
    frames.push((&stats[start..], len));
    frames
}

/// Writes a flow-stats reply as one frame per [`flow_stats_frames`] part;
/// `more` sets `OFPSF_REPLY_MORE` on the last part too.
fn put_flow_stats(xid: Xid, stats: &[FlowStats], more: bool, buf: &mut impl BufMut) -> usize {
    let frames = flow_stats_frames(stats);
    let last = frames.len() - 1;
    let mut written = 0;
    for (i, (entries, len)) in frames.into_iter().enumerate() {
        buf.put_u8(OFP_VERSION);
        buf.put_u8(17); // OFPT_STATS_REPLY
        buf.put_u16(len as u16);
        buf.put_u32(xid.0);
        buf.put_u16(OFPST_FLOW);
        buf.put_u16(if more || i < last {
            OFPSF_REPLY_MORE
        } else {
            0
        });
        for s in entries {
            let entry_len = flow_stats_len(s);
            debug_assert!(entry_len <= MAX_FRAME_LEN - OFP_HEADER_LEN - 4);
            buf.put_u16(entry_len as u16);
            buf.put_u8(0); // table_id
            buf.put_u8(0); // pad
            put_match(buf, &s.of_match);
            buf.put_u32(s.duration_sec);
            buf.put_u32(0); // duration_nsec
            buf.put_u16(s.priority);
            buf.put_u16(0); // idle_timeout
            buf.put_u16(0); // hard_timeout
            buf.put_slice(&[0u8; 6]); // pad
            buf.put_u64(s.cookie);
            buf.put_u64(s.packet_count);
            buf.put_u64(s.byte_count);
            for action in &s.actions {
                put_action(buf, action);
            }
        }
        written += len;
    }
    written
}

/// Encodes a message to its binary representation.
///
/// # Examples
///
/// ```
/// use ofproto::messages::{OfBody, OfMessage};
/// use ofproto::types::Xid;
/// use ofproto::wire::{decode, encode};
///
/// let msg = OfMessage::new(Xid(7), OfBody::Hello);
/// let bytes = encode(&msg);
/// assert_eq!(decode(&bytes).unwrap(), msg);
/// ```
pub fn encode(msg: &OfMessage) -> Bytes {
    let mut buf = BytesMut::with_capacity(wire_len(msg));
    let total = encode_into(msg, &mut buf);
    debug_assert_eq!(buf.len(), total, "wire_len disagrees with encoder");
    buf.freeze()
}

/// Appends a message's binary representation to `buf` and returns the
/// number of bytes appended, which is [`wire_len`] of the message.
///
/// The one encoder: [`encode`] is this on a fresh buffer. A sender that
/// queues frames back to back encodes each straight into its queue.
///
/// A flow-stats reply longer than one frame can be goes out as several,
/// all under the message's xid, every one but the last with
/// `OFPSF_REPLY_MORE` set: the decoder returns them as
/// [`StatsReply::FlowMore`] parts and a last [`StatsReply::Flow`]. No
/// other message is that long.
pub fn encode_into(msg: &OfMessage, buf: &mut impl BufMut) -> usize {
    if let OfBody::StatsReply(reply @ (StatsReply::Flow(stats) | StatsReply::FlowMore(stats))) =
        &msg.body
    {
        let more = matches!(reply, StatsReply::FlowMore(_));
        return put_flow_stats(msg.xid, stats, more, buf);
    }
    let total = wire_len(msg);
    debug_assert!(total <= MAX_FRAME_LEN, "a {total}-byte frame");
    buf.put_u8(OFP_VERSION);
    buf.put_u8(msg.body.type_code());
    buf.put_u16(total as u16);
    buf.put_u32(msg.xid.0);
    match &msg.body {
        OfBody::Hello | OfBody::FeaturesRequest | OfBody::BarrierRequest | OfBody::BarrierReply => {
        }
        OfBody::EchoRequest(data) | OfBody::EchoReply(data) => buf.put_slice(data),
        OfBody::Error(e) => {
            buf.put_u16(e.err_type);
            buf.put_u16(e.code);
            buf.put_slice(&e.data);
        }
        OfBody::FeaturesReply(fr) => {
            buf.put_u64(fr.datapath_id.0);
            buf.put_u32(fr.n_buffers);
            buf.put_u8(fr.n_tables);
            buf.put_slice(&[0u8; 3]); // pad
            buf.put_u32(0); // capabilities
            buf.put_u32(0); // actions bitmap
            for port in &fr.ports {
                buf.put_u16(port.to_u16());
                buf.put_slice(&[0u8; OFP_PHY_PORT_LEN - 2]);
            }
        }
        OfBody::PacketIn(pi) => {
            buf.put_u32(BufferId::encode(pi.buffer_id));
            buf.put_u16(pi.total_len);
            buf.put_u16(pi.in_port.to_u16());
            buf.put_u8(pi.reason.to_u8());
            buf.put_u8(0); // pad
            buf.put_slice(&pi.data);
        }
        OfBody::PacketOut(po) => {
            buf.put_u32(BufferId::encode(po.buffer_id));
            buf.put_u16(po.in_port.to_u16());
            buf.put_u16(actions_wire_len(&po.actions) as u16);
            for action in &po.actions {
                put_action(buf, action);
            }
            if let Some(data) = &po.data {
                buf.put_slice(data);
            }
        }
        OfBody::FlowMod(fm) => {
            put_match(buf, &fm.of_match);
            buf.put_u64(fm.cookie);
            buf.put_u16(fm.command.to_u16());
            buf.put_u16(fm.idle_timeout);
            buf.put_u16(fm.hard_timeout);
            buf.put_u16(fm.priority);
            buf.put_u32(BufferId::encode(fm.buffer_id));
            buf.put_u16(fm.out_port.to_u16());
            let mut flags = 0u16;
            if fm.flags.send_flow_removed {
                flags |= 1;
            }
            if fm.flags.check_overlap {
                flags |= 2;
            }
            buf.put_u16(flags);
            for action in &fm.actions {
                put_action(buf, action);
            }
        }
        OfBody::FlowRemoved(fr) => {
            put_match(buf, &fr.of_match);
            buf.put_u64(fr.cookie);
            buf.put_u16(fr.priority);
            buf.put_u8(match fr.reason {
                FlowRemovedReason::IdleTimeout => 0,
                FlowRemovedReason::HardTimeout => 1,
                FlowRemovedReason::Delete => 2,
            });
            buf.put_u8(0); // pad
            buf.put_u32(fr.duration_sec);
            buf.put_u32(0); // duration_nsec
            buf.put_u16(0); // idle_timeout
            buf.put_u16(0); // pad
            buf.put_u64(fr.packet_count);
            buf.put_u64(fr.byte_count);
        }
        OfBody::PortStatus(ps) => {
            buf.put_u8(match ps.reason {
                PortStatusReason::Add => 0,
                PortStatusReason::Delete => 1,
                PortStatusReason::Modify => 2,
            });
            buf.put_slice(&[0u8; 7]); // pad
            buf.put_u16(ps.port_no.to_u16());
            buf.put_slice(&ps.hw_addr.octets());
            // config (4) + state (4): bit 0 of state is link-down.
            buf.put_u32(0);
            buf.put_u32(if ps.link_up { 0 } else { 1 });
            buf.put_slice(&[0u8; OFP_PHY_PORT_LEN - 2 - 6 - 8]);
        }
        OfBody::StatsRequest(StatsRequest::Flow(of_match)) => {
            buf.put_u16(OFPST_FLOW);
            buf.put_u16(0); // flags
            put_match(buf, of_match);
            buf.put_u8(0xff); // table_id: all
            buf.put_u8(0); // pad
            buf.put_u16(PortNo::None.to_u16());
        }
        OfBody::StatsRequest(StatsRequest::Table) => {
            buf.put_u16(OFPST_TABLE);
            buf.put_u16(0); // flags
        }
        OfBody::StatsReply(StatsReply::Table(tables)) => {
            buf.put_u16(OFPST_TABLE);
            buf.put_u16(0); // flags
            for t in tables {
                // The name is NUL-terminated within its field.
                let name = t.name.as_bytes();
                let name = &name[..name.len().min(TABLE_NAME_LEN - 1)];
                buf.put_u8(t.table_id);
                buf.put_slice(&[0u8; 3]); // pad
                buf.put_slice(name);
                buf.put_slice(&[0u8; TABLE_NAME_LEN][name.len()..]);
                buf.put_u32(t.wildcards);
                buf.put_u32(t.max_entries);
                buf.put_u32(t.active_count);
                buf.put_u64(t.lookup_count);
                buf.put_u64(t.matched_count);
            }
        }
        OfBody::StatsReply(_) => unreachable!("encoded above"),
    }
    total
}

/// Peeks at a frame header and reports how many bytes the frame spans.
///
/// Returns `Ok(None)` when `data` holds fewer than [`OFP_HEADER_LEN`] bytes
/// (read more and retry). Header validation happens here so a hostile peer
/// cannot park garbage at the front of a stream: a wrong version byte or a
/// length field below the header size fails immediately instead of stalling.
///
/// # Errors
///
/// [`DecodeError::BadVersion`] for a non-1.0 version byte and
/// [`DecodeError::BadLength`] when the declared length cannot even cover the
/// header.
pub fn frame_len(data: &[u8]) -> Result<Option<usize>, DecodeError> {
    if data.len() < OFP_HEADER_LEN {
        return Ok(None);
    }
    if data[0] != OFP_VERSION {
        return Err(DecodeError::BadVersion(data[0]));
    }
    let length = usize::from(u16::from_be_bytes([data[2], data[3]]));
    if length < OFP_HEADER_LEN {
        return Err(DecodeError::BadLength);
    }
    Ok(Some(length))
}

/// Drains every complete frame from a streaming read buffer.
///
/// TCP delivers a byte stream, so a single `read` may carry half a message
/// or several coalesced ones. This consumes whole frames from the front of
/// `buf` — leaving a trailing partial frame in place for the next read — and
/// decodes each. On error the offending frame has already been consumed, so
/// a caller that chooses to tolerate decode errors can call again to resync
/// at the next frame boundary.
///
/// # Errors
///
/// Propagates the first [`DecodeError`] encountered; frames decoded before
/// the error are lost, which is acceptable because both in-tree callers tear
/// the connection down on any decode error.
pub fn decode_frames(buf: &mut BytesMut) -> Result<Vec<OfMessage>, DecodeError> {
    let mut messages = Vec::new();
    // Frames are decoded where they lie; `at` is how far the buffer is
    // consumed, whole frames only, the offending one included.
    let mut at = 0;
    let outcome = (|| {
        while let Some(len) = frame_len(&buf[at..])? {
            if buf.len() - at < len {
                break;
            }
            let frame = &buf[at..at + len];
            at += len;
            messages.push(decode(frame)?);
        }
        Ok(())
    })();
    buf.advance(at);
    outcome.map(|()| messages)
}

/// Decodes one message from `data`.
///
/// # Errors
///
/// Returns a [`DecodeError`] when the bytes are truncated, carry an
/// unsupported version, or contain unknown type/command/reason codes.
pub fn decode(data: &[u8]) -> Result<OfMessage, DecodeError> {
    let mut buf = data;
    ensure(&buf, OFP_HEADER_LEN)?;
    let version = buf.get_u8();
    if version != OFP_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let type_code = buf.get_u8();
    let length = buf.get_u16() as usize;
    if length < OFP_HEADER_LEN {
        return Err(DecodeError::BadLength);
    }
    if data.len() < length {
        return Err(DecodeError::Truncated);
    }
    let xid = Xid(buf.get_u32());
    let body_len = length - OFP_HEADER_LEN;
    // Restrict the view to the declared body so trailing bytes are ignored.
    let mut buf = &buf[..body_len.min(buf.len())];
    if buf.len() < body_len {
        return Err(DecodeError::Truncated);
    }
    let body = match type_code {
        0 => OfBody::Hello,
        1 => {
            ensure(&buf, 4)?;
            let err_type = buf.get_u16();
            let code = buf.get_u16();
            OfBody::Error(ErrorMsg {
                err_type,
                code,
                data: Bytes::copy_from_slice(buf),
            })
        }
        2 => OfBody::EchoRequest(Bytes::copy_from_slice(buf)),
        3 => OfBody::EchoReply(Bytes::copy_from_slice(buf)),
        5 => OfBody::FeaturesRequest,
        6 => {
            ensure(&buf, 24)?;
            let datapath_id = DatapathId(buf.get_u64());
            let n_buffers = buf.get_u32();
            let n_tables = buf.get_u8();
            buf.advance(3 + 4 + 4);
            let mut ports = Vec::new();
            while buf.remaining() >= OFP_PHY_PORT_LEN {
                ports.push(PortNo::from_u16(buf.get_u16()));
                buf.advance(OFP_PHY_PORT_LEN - 2);
            }
            OfBody::FeaturesReply(FeaturesReply {
                datapath_id,
                n_buffers,
                n_tables,
                ports,
            })
        }
        10 => {
            ensure(&buf, 10)?;
            let buffer_id = BufferId::decode(buf.get_u32());
            let total_len = buf.get_u16();
            let in_port = PortNo::from_u16(buf.get_u16());
            let reason_raw = buf.get_u8();
            let reason = PacketInReason::from_u8(reason_raw)
                .ok_or(DecodeError::UnknownReason(reason_raw))?;
            buf.advance(1);
            OfBody::PacketIn(PacketIn {
                buffer_id,
                total_len,
                in_port,
                reason,
                data: Bytes::copy_from_slice(buf),
            })
        }
        11 => {
            let of_match = get_match(&mut buf)?;
            ensure(&buf, 40)?;
            let cookie = buf.get_u64();
            let priority = buf.get_u16();
            let reason_raw = buf.get_u8();
            let reason = match reason_raw {
                0 => FlowRemovedReason::IdleTimeout,
                1 => FlowRemovedReason::HardTimeout,
                2 => FlowRemovedReason::Delete,
                other => return Err(DecodeError::UnknownReason(other)),
            };
            buf.advance(1);
            let duration_sec = buf.get_u32();
            buf.advance(4 + 2 + 2);
            let packet_count = buf.get_u64();
            let byte_count = buf.get_u64();
            OfBody::FlowRemoved(FlowRemoved {
                of_match,
                cookie,
                priority,
                reason,
                duration_sec,
                packet_count,
                byte_count,
            })
        }
        12 => {
            ensure(&buf, 8 + OFP_PHY_PORT_LEN)?;
            let reason = match buf.get_u8() {
                0 => PortStatusReason::Add,
                1 => PortStatusReason::Delete,
                2 => PortStatusReason::Modify,
                other => return Err(DecodeError::UnknownReason(other)),
            };
            buf.advance(7);
            let port_no = PortNo::from_u16(buf.get_u16());
            let hw_addr = get_mac(&mut buf);
            buf.advance(4);
            let link_up = buf.get_u32() & 1 == 0;
            buf.advance(OFP_PHY_PORT_LEN - 2 - 6 - 8);
            OfBody::PortStatus(PortStatus {
                reason,
                port_no,
                hw_addr,
                link_up,
            })
        }
        13 => {
            ensure(&buf, 8)?;
            let buffer_id = BufferId::decode(buf.get_u32());
            let in_port = PortNo::from_u16(buf.get_u16());
            let actions_len = buf.get_u16() as usize;
            if actions_len > buf.remaining() {
                return Err(DecodeError::BadLength);
            }
            let actions = get_actions(&mut buf, actions_len)?;
            let data = if buf.has_remaining() {
                Some(Bytes::copy_from_slice(buf))
            } else {
                None
            };
            OfBody::PacketOut(PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
            })
        }
        14 => {
            let of_match = get_match(&mut buf)?;
            ensure(&buf, 24)?;
            let cookie = buf.get_u64();
            let command_raw = buf.get_u16();
            let command = FlowModCommand::from_u16(command_raw)
                .ok_or(DecodeError::UnknownCommand(command_raw))?;
            let idle_timeout = buf.get_u16();
            let hard_timeout = buf.get_u16();
            let priority = buf.get_u16();
            let buffer_id = BufferId::decode(buf.get_u32());
            let out_port = PortNo::from_u16(buf.get_u16());
            let flags_raw = buf.get_u16();
            let remaining = buf.remaining();
            let actions = get_actions(&mut buf, remaining)?;
            OfBody::FlowMod(FlowMod {
                command,
                of_match,
                cookie,
                idle_timeout,
                hard_timeout,
                priority,
                buffer_id,
                out_port,
                flags: FlowModFlags {
                    send_flow_removed: flags_raw & 1 != 0,
                    check_overlap: flags_raw & 2 != 0,
                },
                actions,
            })
        }
        16 => {
            ensure(&buf, 4)?;
            let code = buf.get_u16();
            buf.advance(2);
            match code {
                OFPST_FLOW => {
                    let of_match = get_match(&mut buf)?;
                    ensure(&buf, 4)?;
                    buf.advance(4);
                    OfBody::StatsRequest(StatsRequest::Flow(of_match))
                }
                OFPST_TABLE => OfBody::StatsRequest(StatsRequest::Table),
                other => return Err(DecodeError::UnknownStatsType(other)),
            }
        }
        17 => {
            ensure(&buf, 4)?;
            let code = buf.get_u16();
            let more = buf.get_u16() & OFPSF_REPLY_MORE != 0;
            match code {
                OFPST_FLOW => {
                    let mut stats = Vec::new();
                    while buf.has_remaining() {
                        ensure(&buf, 4)?;
                        let entry_len = buf.get_u16() as usize;
                        buf.advance(2);
                        if entry_len < FLOW_STATS_FIXED_LEN {
                            return Err(DecodeError::BadLength);
                        }
                        let of_match = get_match(&mut buf)?;
                        ensure(&buf, 44)?;
                        let duration_sec = buf.get_u32();
                        buf.advance(4);
                        let priority = buf.get_u16();
                        buf.advance(2 + 2 + 6);
                        let cookie = buf.get_u64();
                        let packet_count = buf.get_u64();
                        let byte_count = buf.get_u64();
                        let actions_len = entry_len - FLOW_STATS_FIXED_LEN;
                        let actions = get_actions(&mut buf, actions_len)?;
                        stats.push(FlowStats {
                            of_match,
                            priority,
                            cookie,
                            packet_count,
                            byte_count,
                            duration_sec,
                            actions,
                        });
                    }
                    OfBody::StatsReply(if more {
                        StatsReply::FlowMore(stats)
                    } else {
                        StatsReply::Flow(stats)
                    })
                }
                OFPST_TABLE => {
                    if buf.remaining() % TABLE_STATS_LEN != 0 {
                        return Err(DecodeError::BadLength);
                    }
                    let mut tables = Vec::with_capacity(buf.remaining() / TABLE_STATS_LEN);
                    while buf.has_remaining() {
                        let table_id = buf.get_u8();
                        buf.advance(3);
                        let field = &buf[..TABLE_NAME_LEN];
                        let end = field.iter().position(|&b| b == 0).unwrap_or(TABLE_NAME_LEN);
                        let name = String::from_utf8_lossy(&field[..end]).into_owned();
                        buf.advance(TABLE_NAME_LEN);
                        tables.push(TableStats {
                            table_id,
                            name,
                            wildcards: buf.get_u32(),
                            max_entries: buf.get_u32(),
                            active_count: buf.get_u32(),
                            lookup_count: buf.get_u64(),
                            matched_count: buf.get_u64(),
                        });
                    }
                    OfBody::StatsReply(StatsReply::Table(tables))
                }
                other => return Err(DecodeError::UnknownStatsType(other)),
            }
        }
        18 => OfBody::BarrierRequest,
        19 => OfBody::BarrierReply,
        other => return Err(DecodeError::UnknownType(other)),
    };
    Ok(OfMessage { xid, body })
}

/// The rule a refused flow_mod named, read from the leading bytes of it
/// that an `OFPT_ERROR` echoes: `(match, cookie, priority)`. The echo is
/// at least 64 bytes, which covers a flow_mod's header, match, cookie,
/// command, timeouts and priority.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the echo is shorter than that, and
/// [`DecodeError::UnknownType`] when it is not of a flow_mod.
pub fn echoed_flow_mod(data: &[u8]) -> Result<(OfMatch, u64, u16), DecodeError> {
    let mut buf = data;
    ensure(&buf, OFP_HEADER_LEN + OFP_MATCH_LEN + 16)?;
    buf.advance(1);
    let type_code = buf.get_u8();
    if type_code != 14 {
        // Not OFPT_FLOW_MOD.
        return Err(DecodeError::UnknownType(type_code));
    }
    buf.advance(6);
    let of_match = get_match(&mut buf)?;
    let cookie = buf.get_u64();
    buf.advance(6); // command, idle and hard timeouts
    Ok((of_match, cookie, buf.get_u16()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_mod::FlowMod;
    use crate::types::ethertype;

    fn roundtrip(msg: OfMessage) {
        let bytes = encode(&msg);
        assert_eq!(bytes.len(), wire_len(&msg), "wire_len mismatch for {msg:?}");
        let decoded = decode(&bytes).expect("decode");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn roundtrip_simple_messages() {
        roundtrip(OfMessage::new(Xid(1), OfBody::Hello));
        roundtrip(OfMessage::new(Xid(2), OfBody::FeaturesRequest));
        roundtrip(OfMessage::new(Xid(3), OfBody::BarrierRequest));
        roundtrip(OfMessage::new(Xid(4), OfBody::BarrierReply));
        roundtrip(OfMessage::new(
            Xid(5),
            OfBody::EchoRequest(Bytes::from_static(b"ping")),
        ));
        roundtrip(OfMessage::new(
            Xid(6),
            OfBody::EchoReply(Bytes::from_static(b"ping")),
        ));
    }

    #[test]
    fn roundtrip_features_reply() {
        roundtrip(OfMessage::new(
            Xid(9),
            OfBody::FeaturesReply(FeaturesReply {
                datapath_id: DatapathId(0xabcdef),
                n_buffers: 256,
                n_tables: 1,
                ports: vec![PortNo::Physical(1), PortNo::Physical(2), PortNo::Local],
            }),
        ));
    }

    #[test]
    fn roundtrip_packet_in_buffered_and_amplified() {
        roundtrip(OfMessage::new(
            Xid(10),
            OfBody::PacketIn(PacketIn {
                buffer_id: Some(BufferId(77)),
                total_len: 1500,
                in_port: PortNo::Physical(3),
                reason: PacketInReason::NoMatch,
                data: Bytes::from(vec![0xab; 128]),
            }),
        ));
        roundtrip(OfMessage::new(
            Xid(11),
            OfBody::PacketIn(PacketIn {
                buffer_id: None,
                total_len: 1500,
                in_port: PortNo::Physical(3),
                reason: PacketInReason::Action,
                data: Bytes::from(vec![0xcd; 1500]),
            }),
        ));
    }

    #[test]
    fn amplified_packet_in_is_larger_on_wire() {
        let buffered = OfMessage::new(
            Xid(1),
            OfBody::PacketIn(PacketIn {
                buffer_id: Some(BufferId(1)),
                total_len: 1500,
                in_port: PortNo::Physical(1),
                reason: PacketInReason::NoMatch,
                data: Bytes::from(vec![0u8; 128]),
            }),
        );
        let amplified = OfMessage::new(
            Xid(1),
            OfBody::PacketIn(PacketIn {
                buffer_id: None,
                total_len: 1500,
                in_port: PortNo::Physical(1),
                reason: PacketInReason::NoMatch,
                data: Bytes::from(vec![0u8; 1500]),
            }),
        );
        assert!(wire_len(&amplified) > wire_len(&buffered) * 5);
    }

    #[test]
    fn roundtrip_packet_out() {
        roundtrip(OfMessage::new(
            Xid(12),
            OfBody::PacketOut(PacketOut {
                buffer_id: None,
                in_port: PortNo::Physical(1),
                actions: vec![Action::SetNwTos(4), Action::Output(PortNo::Flood)],
                data: Some(Bytes::from_static(b"payload")),
            }),
        ));
        roundtrip(OfMessage::new(
            Xid(13),
            OfBody::PacketOut(PacketOut {
                buffer_id: Some(BufferId(5)),
                in_port: PortNo::None,
                actions: vec![],
                data: None,
            }),
        ));
    }

    #[test]
    fn roundtrip_flow_mod_with_all_action_kinds() {
        let of_match = OfMatch::any()
            .with_in_port(2)
            .with_dl_type(ethertype::IPV4)
            .with_nw_src_prefix(Ipv4Addr::new(10, 0, 0, 0), 8);
        let fm = FlowMod::add(
            of_match,
            vec![
                Action::Output(PortNo::Physical(1)),
                Action::SetVlanVid(5),
                Action::SetVlanPcp(3),
                Action::StripVlan,
                Action::SetDlSrc(MacAddr::from_u64(0xa)),
                Action::SetDlDst(MacAddr::from_u64(0xb)),
                Action::SetNwSrc(Ipv4Addr::new(1, 2, 3, 4)),
                Action::SetNwDst(Ipv4Addr::new(5, 6, 7, 8)),
                Action::SetNwTos(6),
                Action::SetTpSrc(80),
                Action::SetTpDst(443),
                Action::Enqueue {
                    port: PortNo::Physical(9),
                    queue_id: 2,
                },
            ],
        )
        .with_priority(17)
        .with_idle_timeout(10)
        .with_cookie(0xfeed)
        .with_send_flow_removed();
        roundtrip(OfMessage::new(Xid(14), OfBody::FlowMod(fm)));
    }

    #[test]
    fn roundtrip_flow_removed() {
        roundtrip(OfMessage::new(
            Xid(15),
            OfBody::FlowRemoved(FlowRemoved {
                of_match: OfMatch::any().with_in_port(1),
                cookie: 9,
                priority: 100,
                reason: FlowRemovedReason::IdleTimeout,
                duration_sec: 12,
                packet_count: 44,
                byte_count: 4444,
            }),
        ));
    }

    #[test]
    fn roundtrip_port_status() {
        for (reason, link_up) in [
            (PortStatusReason::Add, true),
            (PortStatusReason::Delete, false),
            (PortStatusReason::Modify, true),
        ] {
            roundtrip(OfMessage::new(
                Xid(16),
                OfBody::PortStatus(PortStatus {
                    reason,
                    port_no: PortNo::Physical(4),
                    hw_addr: MacAddr::from_u64(0x42),
                    link_up,
                }),
            ));
        }
    }

    #[test]
    fn roundtrip_stats() {
        roundtrip(OfMessage::new(
            Xid(17),
            OfBody::StatsRequest(StatsRequest::Flow(OfMatch::any())),
        ));
        roundtrip(OfMessage::new(
            Xid(18),
            OfBody::StatsRequest(StatsRequest::Flow(OfMatch::any().with_in_port(1))),
        ));
        roundtrip(OfMessage::new(
            Xid(19),
            OfBody::StatsRequest(StatsRequest::Table),
        ));
        roundtrip(OfMessage::new(
            Xid(20),
            OfBody::StatsReply(StatsReply::Flow(vec![
                FlowStats {
                    of_match: OfMatch::any().with_nw_proto(17),
                    priority: 5,
                    cookie: 1,
                    packet_count: 2,
                    byte_count: 200,
                    duration_sec: 30,
                    actions: vec![Action::Output(PortNo::Physical(2))],
                },
                FlowStats {
                    of_match: OfMatch::any(),
                    priority: 0,
                    cookie: 0,
                    packet_count: 0,
                    byte_count: 0,
                    duration_sec: 0,
                    actions: vec![],
                },
            ])),
        ));
    }

    /// A table-stats reply is 64 bytes a table, and a name longer than its
    /// field keeps its first 31 bytes.
    #[test]
    fn a_table_stats_entry_has_a_fixed_size() {
        let table = TableStats {
            table_id: 0,
            name: "classifier".to_owned(),
            wildcards: 0x003f_ffff,
            max_entries: 4096,
            active_count: 17,
            lookup_count: 1 << 40,
            matched_count: 12,
        };
        let reply = OfMessage::new(
            Xid(22),
            OfBody::StatsReply(StatsReply::Table(vec![table.clone()])),
        );
        assert_eq!(wire_len(&reply), OFP_HEADER_LEN + 4 + TABLE_STATS_LEN);
        let long = TableStats {
            name: "n".repeat(40),
            ..table
        };
        let msg = OfMessage::new(Xid(23), OfBody::StatsReply(StatsReply::Table(vec![long])));
        match decode(&encode(&msg)).unwrap().body {
            OfBody::StatsReply(StatsReply::Table(tables)) => {
                assert_eq!(tables[0].name, "n".repeat(31));
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn an_error_names_the_flow_mod_it_refuses() {
        let of_match = OfMatch::any().with_in_port(3).with_nw_proto(6);
        let fm = FlowMod::add(of_match, vec![Action::Output(PortNo::Physical(1))])
            .with_priority(77)
            .with_cookie(0xf100d);
        let echo = encode(&OfMessage::new(Xid(9), OfBody::FlowMod(fm)));
        assert_eq!(echoed_flow_mod(&echo[..64]), Ok((of_match, 0xf100d, 77)));
        assert_eq!(echoed_flow_mod(&echo[..63]), Err(DecodeError::Truncated));
        let barrier = encode(&OfMessage::new(Xid(9), OfBody::BarrierRequest)).to_vec();
        let mut not_a_flow_mod = barrier;
        not_a_flow_mod.resize(64, 0);
        assert_eq!(
            echoed_flow_mod(&not_a_flow_mod),
            Err(DecodeError::UnknownType(18))
        );
    }

    #[test]
    fn roundtrip_error_message() {
        roundtrip(OfMessage::new(
            Xid(30),
            OfBody::Error(crate::messages::ErrorMsg {
                err_type: crate::messages::ErrorMsg::ET_FLOW_MOD_FAILED,
                code: crate::messages::ErrorMsg::FMFC_ALL_TABLES_FULL,
                data: Bytes::from_static(&[0u8; 64]),
            }),
        ));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut bytes = encode(&OfMessage::new(Xid(1), OfBody::Hello)).to_vec();
        bytes[0] = 0x04;
        assert_eq!(decode(&bytes), Err(DecodeError::BadVersion(0x04)));
    }

    #[test]
    fn decode_rejects_truncated() {
        let bytes = encode(&OfMessage::new(
            Xid(1),
            OfBody::FlowMod(FlowMod::add(OfMatch::any(), vec![])),
        ));
        for cut in [0, 4, 7, bytes.len() - 1] {
            assert_eq!(
                decode(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_type() {
        let mut bytes = encode(&OfMessage::new(Xid(1), OfBody::Hello)).to_vec();
        bytes[1] = 99;
        assert_eq!(decode(&bytes), Err(DecodeError::UnknownType(99)));
    }

    #[test]
    fn decode_ignores_trailing_garbage() {
        let msg = OfMessage::new(Xid(21), OfBody::Hello);
        let mut bytes = encode(&msg).to_vec();
        bytes.extend_from_slice(&[0xff; 16]);
        assert_eq!(decode(&bytes).unwrap(), msg);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::flow_mod::FlowMod;
    use proptest::prelude::*;

    fn arb_mac() -> impl Strategy<Value = MacAddr> {
        any::<[u8; 6]>().prop_map(MacAddr)
    }

    fn arb_port() -> impl Strategy<Value = PortNo> {
        prop_oneof![
            (1u16..0xff00).prop_map(PortNo::Physical),
            Just(PortNo::Flood),
            Just(PortNo::Controller),
            Just(PortNo::All),
            Just(PortNo::InPort),
            Just(PortNo::Local),
        ]
    }

    fn arb_action() -> impl Strategy<Value = Action> {
        prop_oneof![
            arb_port().prop_map(Action::Output),
            any::<u16>().prop_map(Action::SetVlanVid),
            (0u8..8).prop_map(Action::SetVlanPcp),
            Just(Action::StripVlan),
            arb_mac().prop_map(Action::SetDlSrc),
            arb_mac().prop_map(Action::SetDlDst),
            any::<u32>().prop_map(|ip| Action::SetNwSrc(Ipv4Addr::from(ip))),
            any::<u32>().prop_map(|ip| Action::SetNwDst(Ipv4Addr::from(ip))),
            any::<u8>().prop_map(Action::SetNwTos),
            any::<u16>().prop_map(Action::SetTpSrc),
            any::<u16>().prop_map(Action::SetTpDst),
            (arb_port(), any::<u32>())
                .prop_map(|(port, queue_id)| Action::Enqueue { port, queue_id }),
        ]
    }

    fn arb_match() -> impl Strategy<Value = OfMatch> {
        (
            any::<u16>(),
            arb_mac(),
            arb_mac(),
            any::<u16>(),
            any::<u8>(),
            any::<u32>(),
            any::<u32>(),
            0u32..=32,
            0u32..=32,
            any::<u16>(),
            any::<u16>(),
            any::<u8>(),
        )
            .prop_map(
                |(
                    in_port,
                    src,
                    dst,
                    dl_type,
                    proto,
                    nw_src,
                    nw_dst,
                    sbits,
                    dbits,
                    tp_src,
                    tp_dst,
                    tos,
                )| {
                    OfMatch::any()
                        .with_in_port(in_port)
                        .with_dl_src(src)
                        .with_dl_dst(dst)
                        .with_dl_type(dl_type)
                        .with_nw_proto(proto)
                        .with_nw_src_prefix(Ipv4Addr::from(nw_src), sbits)
                        .with_nw_dst_prefix(Ipv4Addr::from(nw_dst), dbits)
                        .with_tp_src(tp_src)
                        .with_tp_dst(tp_dst)
                        .with_nw_tos(tos)
                },
            )
    }

    #[test]
    fn hostile_headers_fail_cleanly() {
        // Empty and sub-header inputs.
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x01, 0x00, 0x00]), Err(DecodeError::Truncated));
        // Wrong version.
        assert_eq!(
            decode(&[0x04, 0, 0, 8, 0, 0, 0, 0]),
            Err(DecodeError::BadVersion(0x04))
        );
        // Length field smaller than the header itself.
        assert_eq!(
            decode(&[0x01, 0, 0, 7, 0, 0, 0, 0]),
            Err(DecodeError::BadLength)
        );
        assert_eq!(
            decode(&[0x01, 0, 0, 0, 0, 0, 0, 0]),
            Err(DecodeError::BadLength)
        );
        // Length field larger than the available bytes.
        assert_eq!(
            decode(&[0x01, 0, 0xff, 0xff, 0, 0, 0, 0]),
            Err(DecodeError::Truncated)
        );
        // Unknown type code with a well-formed header.
        assert_eq!(
            decode(&[0x01, 200, 0, 8, 0, 0, 0, 0]),
            Err(DecodeError::UnknownType(200))
        );
    }

    #[test]
    fn hostile_bodies_fail_cleanly() {
        // packet_in whose declared length covers the header but whose body
        // is shorter than the fixed packet_in prefix.
        let mut raw = vec![0x01, 10, 0, 12, 0, 0, 0, 1];
        raw.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(decode(&raw), Err(DecodeError::Truncated));
        // flow_mod truncated mid-match.
        let mut raw = vec![0x01, 14, 0, 20, 0, 0, 0, 2];
        raw.extend_from_slice(&[0u8; 12]);
        assert_eq!(decode(&raw), Err(DecodeError::Truncated));
        // Declared length longer than the actual frame must not over-read
        // into trailing bytes owned by the next frame.
        let echo = encode(&OfMessage::new(Xid(3), OfBody::EchoRequest(Bytes::new())));
        let mut raw = echo.to_vec();
        raw[3] = 200; // inflate the length field past the buffer
        assert_eq!(decode(&raw), Err(DecodeError::Truncated));
    }

    #[test]
    fn frame_len_peeks_without_consuming() {
        assert_eq!(frame_len(&[0x01, 0, 0, 16]), Ok(None));
        let hello = encode(&OfMessage::new(Xid(1), OfBody::Hello));
        assert_eq!(frame_len(&hello), Ok(Some(OFP_HEADER_LEN)));
        assert_eq!(
            frame_len(&[0x02, 0, 0, 8, 0, 0, 0, 0]),
            Err(DecodeError::BadVersion(0x02))
        );
        assert_eq!(
            frame_len(&[0x01, 0, 0, 3, 0, 0, 0, 0]),
            Err(DecodeError::BadLength)
        );
    }

    #[test]
    fn decode_frames_handles_partial_and_coalesced_reads() {
        let first = OfMessage::new(Xid(1), OfBody::EchoRequest(Bytes::from_static(b"abcd")));
        let second = OfMessage::new(Xid(2), OfBody::BarrierRequest);
        let mut wire = encode(&first).to_vec();
        wire.extend_from_slice(&encode(&second));

        // Feed the stream one byte at a time; messages must pop out exactly
        // at their frame boundaries and never twice.
        let mut buf = BytesMut::new();
        let mut seen = Vec::new();
        for byte in &wire {
            buf.extend_from_slice(&[*byte]);
            seen.extend(decode_frames(&mut buf).expect("valid stream"));
        }
        assert_eq!(seen, vec![first.clone(), second.clone()]);
        assert!(buf.is_empty());

        // Both frames coalesced into one read drain in a single call.
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&wire);
        assert_eq!(decode_frames(&mut buf).unwrap(), vec![first, second]);

        // A bad version byte surfaces as an error even mid-stream.
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&[0x55; 16]);
        assert_eq!(decode_frames(&mut buf), Err(DecodeError::BadVersion(0x55)));
    }

    proptest! {
        #[test]
        fn flow_mod_roundtrip(
            of_match in arb_match(),
            actions in proptest::collection::vec(arb_action(), 0..8),
            priority in any::<u16>(),
            idle in any::<u16>(),
            hard in any::<u16>(),
            cookie in any::<u64>(),
        ) {
            let fm = FlowMod::add(of_match, actions)
                .with_priority(priority)
                .with_idle_timeout(idle)
                .with_hard_timeout(hard)
                .with_cookie(cookie);
            let msg = OfMessage::new(Xid(1), OfBody::FlowMod(fm));
            let bytes = encode(&msg);
            prop_assert_eq!(bytes.len(), wire_len(&msg));
            prop_assert_eq!(decode(&bytes).unwrap(), msg);
        }

        #[test]
        fn packet_in_roundtrip(
            buffered in any::<bool>(),
            total_len in any::<u16>(),
            port in 1u16..0xff00,
            data in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let msg = OfMessage::new(
                Xid(0),
                OfBody::PacketIn(PacketIn {
                    buffer_id: if buffered { Some(BufferId(9)) } else { None },
                    total_len,
                    in_port: PortNo::Physical(port),
                    reason: PacketInReason::NoMatch,
                    data: Bytes::from(data),
                }),
            );
            prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }

        #[test]
        fn table_stats_roundtrip(
            tables in proptest::collection::vec(
                (
                    any::<u8>(),
                    proptest::collection::vec(0x61u8..0x7b, 0..32),
                    any::<u32>(),
                    any::<u32>(),
                    any::<u32>(),
                    any::<u64>(),
                    any::<u64>(),
                ),
                0..4,
            ),
            xid in any::<u32>(),
            cut in 1usize..TABLE_STATS_LEN,
        ) {
            let tables: Vec<TableStats> = tables
                .into_iter()
                .map(|(table_id, name, wildcards, max_entries, active_count, lookups, matched)| {
                    let mut name = String::from_utf8(name).unwrap();
                    name.truncate(TABLE_NAME_LEN - 1);
                    TableStats {
                        table_id,
                        name,
                        wildcards,
                        max_entries,
                        active_count,
                        lookup_count: lookups,
                        matched_count: matched,
                    }
                })
                .collect();
            let request = OfMessage::new(Xid(xid), OfBody::StatsRequest(StatsRequest::Table));
            prop_assert_eq!(decode(&encode(&request)).unwrap(), request);
            let reply = OfMessage::new(Xid(xid), OfBody::StatsReply(StatsReply::Table(tables)));
            let bytes = encode(&reply);
            prop_assert_eq!(bytes.len(), wire_len(&reply));
            prop_assert_eq!(decode(&bytes).unwrap(), reply);
            // A body that ends inside an entry, with the length field to
            // match, is a bad length, not a shorter table: the last entry
            // cut short, or a part of one more.
            let mut short = bytes.to_vec();
            if bytes.len() > OFP_HEADER_LEN + 4 {
                short.truncate(bytes.len() - cut);
            } else {
                short.resize(bytes.len() + TABLE_STATS_LEN - cut, 0);
            }
            let len = short.len() as u16;
            short[2..4].copy_from_slice(&len.to_be_bytes());
            prop_assert_eq!(decode(&short), Err(DecodeError::BadLength));
        }

        #[test]
        fn decode_never_panics_on_random_bytes(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode(&data);
        }

        #[test]
        fn match_semantics_prefix_consistency(
            addr in any::<u32>(),
            probe in any::<u32>(),
            prefix_len in 0u32..=32,
        ) {
            // If the probe shares the top prefix_len bits, the match must hit.
            let m = OfMatch::any().with_nw_src_prefix(Ipv4Addr::from(addr), prefix_len);
            let mut keys = crate::flow_match::FlowKeys::default();
            let mask = if prefix_len == 0 { 0 } else { u32::MAX << (32 - prefix_len) };
            keys.nw_src = Ipv4Addr::from((addr & mask) | (probe & !mask));
            prop_assert!(m.matches(&keys));
        }
    }
}
