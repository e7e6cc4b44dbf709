//! Property tests for the OpenFlow 1.0 wire codec.
//!
//! Every [`OfBody`] variant — including `OFPT_ERROR` — is generated with
//! randomized contents and pushed through `encode`/`decode`, asserting the
//! two invariants the live transport depends on:
//!
//! * `decode(encode(m)) == m` (lossless round-trip), and
//! * `wire_len(m) == encode(m).len()` (the advertised header length is the
//!   real frame length, so `decode_frames` framing never drifts).
//!
//! and, for the live transport's streaming forms, differentially:
//!
//! * `encode_into` appended to a buffer that already holds bytes writes
//!   exactly `encode`'s bytes and returns `wire_len`, and
//! * `decode_frames` fed a stream in arbitrary chunks yields the messages,
//!   residue and errors of splitting frame by frame and calling `decode`.
//!
//! Strategies stick to *canonical* wire values: physical port numbers stay
//! below the reserved `OFPP_*` range, buffer ids below the `NO_BUFFER`
//! sentinel, and `packet_out` payloads are `None` or non-empty, because the
//! wire format cannot distinguish `Some(empty)` from `None`.

use std::net::Ipv4Addr;

use bytes::{Bytes, BytesMut};
use ofproto::actions::Action;
use ofproto::flow_match::{FlowKeys, OfMatch, Wildcards};
use ofproto::flow_mod::{FlowMod, FlowModCommand, FlowModFlags};
use ofproto::messages::{
    ErrorMsg, FeaturesReply, FlowRemoved, FlowRemovedReason, FlowStats, OfBody, OfMessage,
    PacketIn, PacketInReason, PacketOut, PortStatus, PortStatusReason, StatsReply, StatsRequest,
};
use ofproto::types::{BufferId, DatapathId, MacAddr, PortNo, Xid};
use ofproto::wire::{self, DecodeError};
use proptest::prelude::*;

/// Physical ports must stay below the reserved `OFPP_*` range (0xfff8) or
/// `PortNo::from_u16` maps them back to a named variant.
fn physical_port() -> impl Strategy<Value = PortNo> {
    (0u16..0xfff8).prop_map(PortNo::Physical)
}

fn any_port() -> impl Strategy<Value = PortNo> {
    prop_oneof![
        physical_port(),
        Just(PortNo::InPort),
        Just(PortNo::Table),
        Just(PortNo::Normal),
        Just(PortNo::Flood),
        Just(PortNo::All),
        Just(PortNo::Controller),
        Just(PortNo::Local),
        Just(PortNo::None),
    ]
}

fn mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn payload(max: usize) -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

/// Buffer ids below the `NO_BUFFER` sentinel; `None` is the sentinel itself.
fn buffer_id() -> impl Strategy<Value = Option<BufferId>> {
    prop_oneof![
        Just(None),
        (0u32..BufferId::NO_BUFFER_RAW).prop_map(|raw| Some(BufferId(raw))),
    ]
}

fn flow_keys() -> impl Strategy<Value = FlowKeys> {
    (
        any::<u16>(),
        mac(),
        mac(),
        any::<u16>(),
        any::<u8>(),
        any::<u16>(),
        any::<u8>(),
        any::<u8>(),
        ipv4(),
        ipv4(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(
            |(
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
            )| FlowKeys {
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
        )
}

/// Wildcards are carried as a raw `u32` on the wire, so any value
/// round-trips; mix fully-random words with the canonical constants.
fn of_match() -> impl Strategy<Value = OfMatch> {
    let wildcards = prop_oneof![
        Just(Wildcards::ALL),
        Just(Wildcards::NONE),
        any::<u32>().prop_map(Wildcards),
    ];
    (wildcards, flow_keys()).prop_map(|(wildcards, keys)| OfMatch { wildcards, keys })
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        any_port().prop_map(Action::Output),
        any::<u16>().prop_map(Action::SetVlanVid),
        any::<u8>().prop_map(Action::SetVlanPcp),
        Just(Action::StripVlan),
        mac().prop_map(Action::SetDlSrc),
        mac().prop_map(Action::SetDlDst),
        ipv4().prop_map(Action::SetNwSrc),
        ipv4().prop_map(Action::SetNwDst),
        any::<u8>().prop_map(Action::SetNwTos),
        any::<u16>().prop_map(Action::SetTpSrc),
        any::<u16>().prop_map(Action::SetTpDst),
        (any_port(), any::<u32>()).prop_map(|(port, queue_id)| Action::Enqueue { port, queue_id }),
    ]
}

fn actions(max: usize) -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(action(), 0..max)
}

fn packet_in() -> impl Strategy<Value = PacketIn> {
    (
        buffer_id(),
        any::<u16>(),
        any_port(),
        prop_oneof![Just(PacketInReason::NoMatch), Just(PacketInReason::Action)],
        payload(1600),
    )
        .prop_map(|(buffer_id, total_len, in_port, reason, data)| PacketIn {
            buffer_id,
            total_len,
            in_port,
            reason,
            data,
        })
}

fn packet_out() -> impl Strategy<Value = PacketOut> {
    // The wire cannot tell `Some(empty)` from `None`, so payloads are
    // either absent or non-empty.
    let data = prop_oneof![
        Just(None),
        proptest::collection::vec(any::<u8>(), 1..1600).prop_map(|v| Some(Bytes::from(v))),
    ];
    (buffer_id(), any_port(), actions(8), data).prop_map(|(buffer_id, in_port, actions, data)| {
        PacketOut {
            buffer_id,
            in_port,
            actions,
            data,
        }
    })
}

fn flow_mod() -> impl Strategy<Value = FlowMod> {
    let command = prop_oneof![
        Just(FlowModCommand::Add),
        Just(FlowModCommand::Modify),
        Just(FlowModCommand::ModifyStrict),
        Just(FlowModCommand::Delete),
        Just(FlowModCommand::DeleteStrict),
    ];
    let flags = (any::<bool>(), any::<bool>()).prop_map(|(send_flow_removed, check_overlap)| {
        FlowModFlags {
            send_flow_removed,
            check_overlap,
        }
    });
    (
        command,
        of_match(),
        any::<u64>(),
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
        buffer_id(),
        any_port(),
        flags,
        actions(8),
    )
        .prop_map(
            |(
                command,
                of_match,
                cookie,
                idle_timeout,
                hard_timeout,
                priority,
                buffer_id,
                out_port,
                flags,
                actions,
            )| FlowMod {
                command,
                of_match,
                cookie,
                idle_timeout,
                hard_timeout,
                priority,
                buffer_id,
                out_port,
                flags,
                actions,
            },
        )
}

fn flow_removed() -> impl Strategy<Value = FlowRemoved> {
    (
        of_match(),
        any::<u64>(),
        any::<u16>(),
        prop_oneof![
            Just(FlowRemovedReason::IdleTimeout),
            Just(FlowRemovedReason::HardTimeout),
            Just(FlowRemovedReason::Delete),
        ],
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(of_match, cookie, priority, reason, duration_sec, packet_count, byte_count)| {
                FlowRemoved {
                    of_match,
                    cookie,
                    priority,
                    reason,
                    duration_sec,
                    packet_count,
                    byte_count,
                }
            },
        )
}

fn port_status() -> impl Strategy<Value = PortStatus> {
    (
        prop_oneof![
            Just(PortStatusReason::Add),
            Just(PortStatusReason::Delete),
            Just(PortStatusReason::Modify),
        ],
        any_port(),
        mac(),
        any::<bool>(),
    )
        .prop_map(|(reason, port_no, hw_addr, link_up)| PortStatus {
            reason,
            port_no,
            hw_addr,
            link_up,
        })
}

fn features_reply() -> impl Strategy<Value = FeaturesReply> {
    (
        any::<u64>().prop_map(DatapathId),
        any::<u32>(),
        any::<u8>(),
        proptest::collection::vec(any_port(), 0..16),
    )
        .prop_map(|(datapath_id, n_buffers, n_tables, ports)| FeaturesReply {
            datapath_id,
            n_buffers,
            n_tables,
            ports,
        })
}

fn error_msg() -> impl Strategy<Value = ErrorMsg> {
    (any::<u16>(), any::<u16>(), payload(128)).prop_map(|(err_type, code, data)| ErrorMsg {
        err_type,
        code,
        data,
    })
}

fn flow_stats() -> impl Strategy<Value = FlowStats> {
    (
        of_match(),
        any::<u16>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        actions(4),
    )
        .prop_map(
            |(of_match, priority, cookie, packet_count, byte_count, duration_sec, actions)| {
                FlowStats {
                    of_match,
                    priority,
                    cookie,
                    packet_count,
                    byte_count,
                    duration_sec,
                    actions,
                }
            },
        )
}

fn stats_request() -> impl Strategy<Value = StatsRequest> {
    of_match().prop_map(StatsRequest::Flow)
}

fn stats_reply() -> impl Strategy<Value = StatsReply> {
    prop_oneof![
        proptest::collection::vec(flow_stats(), 0..4).prop_map(StatsReply::Flow),
        proptest::collection::vec(flow_stats(), 0..4).prop_map(StatsReply::FlowMore),
    ]
}

/// Every `OfBody` variant, weighted evenly.
fn of_body() -> impl Strategy<Value = OfBody> {
    prop_oneof![
        Just(OfBody::Hello),
        error_msg().prop_map(OfBody::Error),
        payload(256).prop_map(OfBody::EchoRequest),
        payload(256).prop_map(OfBody::EchoReply),
        Just(OfBody::FeaturesRequest),
        features_reply().prop_map(OfBody::FeaturesReply),
        packet_in().prop_map(OfBody::PacketIn),
        packet_out().prop_map(OfBody::PacketOut),
        flow_mod().prop_map(OfBody::FlowMod),
        flow_removed().prop_map(OfBody::FlowRemoved),
        port_status().prop_map(OfBody::PortStatus),
        Just(OfBody::BarrierRequest),
        Just(OfBody::BarrierReply),
        stats_request().prop_map(OfBody::StatsRequest),
        stats_reply().prop_map(OfBody::StatsReply),
    ]
}

fn of_message() -> impl Strategy<Value = OfMessage> {
    (any::<u32>().prop_map(Xid), of_body()).prop_map(|(xid, body)| OfMessage { xid, body })
}

/// `decode_frames` as it was before it decoded in place: split each whole
/// frame off the front, then `decode` the copy.
fn drain_frame_by_frame(data: &mut Vec<u8>) -> Result<Vec<OfMessage>, DecodeError> {
    let mut messages = Vec::new();
    while let Some(len) = wire::frame_len(data)? {
        if data.len() < len {
            break;
        }
        let frame: Vec<u8> = data.drain(..len).collect();
        messages.push(wire::decode(&frame)?);
    }
    Ok(messages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_into_appends_exactly_encodes_bytes(
        msg in of_message(),
        already in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let encoded = wire::encode(&msg);
        let mut queue = already.clone();
        let appended = wire::encode_into(&msg, &mut queue);
        prop_assert_eq!(appended, wire::wire_len(&msg));
        prop_assert_eq!(&queue[..already.len()], &already[..]);
        prop_assert_eq!(&queue[already.len()..], &encoded[..]);
        // The other buffer type the codec is used with.
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&already);
        prop_assert_eq!(wire::encode_into(&msg, &mut buf), appended);
        prop_assert_eq!(&buf[..], &queue[..]);
    }

    #[test]
    fn decode_frames_in_chunks_matches_frame_by_frame_decode(
        msgs in proptest::collection::vec(of_message(), 1..8),
        cuts in proptest::collection::vec(any::<u16>(), 0..8),
        held_back in any::<u16>(),
    ) {
        let mut stream = Vec::new();
        for msg in &msgs {
            wire::encode_into(msg, &mut stream);
        }
        // The stream ends somewhere inside it, so that a residue remains.
        stream.truncate(stream.len() - held_back as usize % stream.len());
        let mut cuts: Vec<usize> = cuts.iter().map(|c| *c as usize % stream.len()).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();

        let (mut buf, mut reference) = (BytesMut::new(), Vec::new());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut fed = 0;
        for cut in cuts {
            buf.extend_from_slice(&stream[fed..cut]);
            reference.extend_from_slice(&stream[fed..cut]);
            fed = cut;
            got.extend(wire::decode_frames(&mut buf).expect("valid stream"));
            want.extend(drain_frame_by_frame(&mut reference).expect("valid stream"));
            prop_assert_eq!(&buf[..], &reference[..], "residue after {} bytes", fed);
        }
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&got[..], &msgs[..got.len()]);
    }

    #[test]
    fn a_malformed_frame_mid_stream_is_consumed_with_its_error(
        before in proptest::collection::vec(of_message(), 0..4),
        victim in of_message(),
        type_code in any::<u8>(),
        after in proptest::collection::vec(of_message(), 1..4),
    ) {
        // A frame whose header still frames it but whose type byte lies
        // about the body: decodes to whatever error that body earns (or,
        // now and then, to some other message).
        let mut bad = wire::encode(&victim).to_vec();
        bad[1] = type_code;
        let mut stream = Vec::new();
        for msg in &before {
            wire::encode_into(msg, &mut stream);
        }
        stream.extend_from_slice(&bad);
        let boundary = stream.len();
        for msg in &after {
            wire::encode_into(msg, &mut stream);
        }

        let mut buf = BytesMut::new();
        buf.extend_from_slice(&stream);
        let mut reference = stream.clone();
        let got = wire::decode_frames(&mut buf);
        prop_assert_eq!(&got, &drain_frame_by_frame(&mut reference));
        prop_assert_eq!(&buf[..], &reference[..]);
        if let Err(error) = got {
            prop_assert_eq!(Err(error), wire::decode(&bad));
            prop_assert_eq!(&buf[..], &stream[boundary..], "positioned at the next frame");
            prop_assert_eq!(wire::decode_frames(&mut buf), Ok(after));
            prop_assert!(buf.is_empty());
        }
    }

    #[test]
    fn encode_decode_roundtrip(msg in of_message()) {
        let encoded = wire::encode(&msg);
        let decoded = wire::decode(&encoded[..]).expect("decode of encoded frame");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn wire_len_matches_encoding(msg in of_message()) {
        let encoded = wire::encode(&msg);
        prop_assert_eq!(wire::wire_len(&msg), encoded.len());
        // The header's length field agrees too.
        let header_len = u16::from_be_bytes([encoded[2], encoded[3]]) as usize;
        prop_assert_eq!(header_len, encoded.len());
    }

    #[test]
    fn decode_frames_recovers_concatenated_stream(msgs in proptest::collection::vec(of_message(), 1..8)) {
        let mut stream = BytesMut::new();
        for msg in &msgs {
            stream.extend_from_slice(&wire::encode(msg));
        }
        // Hold back the final byte so the last frame stays incomplete.
        let total = stream.len();
        let mut partial = BytesMut::new();
        partial.extend_from_slice(&stream[..total - 1]);
        let complete = wire::decode_frames(&mut partial).expect("decode_frames");
        prop_assert_eq!(complete.len(), msgs.len() - 1);
        for (got, want) in complete.iter().zip(&msgs) {
            prop_assert_eq!(got, want);
        }
        // Delivering the final byte completes the last frame exactly.
        partial.extend_from_slice(&stream[total - 1..]);
        let rest = wire::decode_frames(&mut partial).expect("decode_frames tail");
        prop_assert_eq!(rest.len(), 1);
        prop_assert_eq!(&rest[0], &msgs[msgs.len() - 1]);
        prop_assert!(partial.is_empty());
    }

    #[test]
    fn truncation_never_panics_or_overreads(msg in of_message(), cut in any::<u16>()) {
        let encoded = wire::encode(&msg);
        let cut = (cut as usize) % encoded.len();
        // Any strict prefix must fail cleanly, never panic.
        let _ = wire::decode(&encoded[..cut]);
    }
}

/// A flow-stats reply longer than the 16-bit length field can describe
/// (700 rules here is ~67 kB) goes out as several frames under one xid, all
/// but the last flagged `OFPSF_REPLY_MORE`; read back as a stream, the parts
/// put together are the table. In one frame the length would wrap, and the
/// stream would lose its framing.
#[test]
fn a_flow_table_longer_than_a_frame_goes_out_in_parts() {
    for n in [700u32, 2000] {
        let rules: Vec<FlowStats> = (0..n)
            .map(|i| FlowStats {
                of_match: OfMatch::any().with_dl_dst(MacAddr::from_u64(u64::from(i))),
                priority: 1 + (i % 7) as u16,
                cookie: u64::from(i),
                packet_count: u64::from(i) * 3,
                byte_count: u64::from(i) * 300,
                duration_sec: i,
                actions: vec![Action::Output(PortNo::Physical(2))],
            })
            .collect();
        let msg = OfMessage::new(Xid(7), OfBody::StatsReply(StatsReply::Flow(rules.clone())));
        let bytes = wire::encode(&msg);
        assert_eq!(bytes.len(), wire::wire_len(&msg));
        assert!(
            bytes.len() > usize::from(u16::MAX),
            "{n} rules fit one frame"
        );
        let mut stream = BytesMut::new();
        stream.extend_from_slice(&bytes);
        let parts = wire::decode_frames(&mut stream).unwrap();
        assert!(stream.is_empty() && parts.len() >= 2, "{n}: one frame");
        let mut collected = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            let last = i + 1 == parts.len();
            match &part.body {
                OfBody::StatsReply(StatsReply::FlowMore(entries))
                    if !last && part.xid == msg.xid =>
                {
                    collected.extend_from_slice(entries)
                }
                OfBody::StatsReply(StatsReply::Flow(entries)) if last && part.xid == msg.xid => {
                    collected.extend_from_slice(entries)
                }
                other => panic!("{n}: part {i} of {}: {other:?}", parts.len()),
            }
        }
        assert_eq!(collected, rules, "{n}");
    }
}
