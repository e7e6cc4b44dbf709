//! Packet representation and binary codec for the simulated data plane.
//!
//! Packets carry structured Ethernet/ARP/IPv4/TCP/UDP/ICMP headers plus a
//! logical wire length. [`Packet::to_bytes`] produces real header bytes (the
//! payload is zero padding), which is what ends up inside `packet_in`
//! messages; [`Packet::parse`] reads them back — FloodGuard's data plane
//! cache uses this to classify migrated packets and decode the TOS tag.

use std::fmt;
use std::net::Ipv4Addr;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ofproto::flow_match::FlowKeys;
use ofproto::types::{ethertype, ipproto, MacAddr, OFP_VLAN_NONE};

/// Transport-layer header inside an IPv4 packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// TCP segment.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Sequence number.
        seq: u32,
        /// Acknowledgement number.
        ack: u32,
        /// Flag bits (low 6: FIN, SYN, RST, PSH, ACK, URG).
        flags: u8,
    },
    /// UDP datagram.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
    /// ICMP message.
    Icmp {
        /// ICMP type.
        icmp_type: u8,
        /// ICMP code.
        code: u8,
    },
    /// Some other IP protocol.
    Other {
        /// The IP protocol number.
        proto: u8,
    },
}

impl Transport {
    /// TCP flag bit for SYN.
    pub const TCP_SYN: u8 = 0x02;
    /// TCP flag bit for ACK.
    pub const TCP_ACK: u8 = 0x10;
    /// TCP flag bit for FIN.
    pub const TCP_FIN: u8 = 0x01;
    /// TCP flag bit for RST.
    pub const TCP_RST: u8 = 0x04;

    /// The IP protocol number of this transport.
    pub fn proto(&self) -> u8 {
        match self {
            Transport::Tcp { .. } => ipproto::TCP,
            Transport::Udp { .. } => ipproto::UDP,
            Transport::Icmp { .. } => ipproto::ICMP,
            Transport::Other { proto } => *proto,
        }
    }
}

/// The network-layer content of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// An IPv4 packet.
    Ipv4 {
        /// Source address.
        src: Ipv4Addr,
        /// Destination address.
        dst: Ipv4Addr,
        /// Type-of-service byte (FloodGuard's INPORT tag lives here during
        /// migration).
        tos: u8,
        /// Time-to-live.
        ttl: u8,
        /// Transport header.
        transport: Transport,
    },
    /// An ARP packet.
    Arp {
        /// 1 = request, 2 = reply.
        opcode: u16,
        /// Sender hardware address.
        sender_mac: MacAddr,
        /// Sender protocol address.
        sender_ip: Ipv4Addr,
        /// Target hardware address.
        target_mac: MacAddr,
        /// Target protocol address.
        target_ip: Ipv4Addr,
    },
    /// LLDP or any other non-IP payload, identified by EtherType.
    Other,
}

/// Simulation-level bookkeeping attached to a packet.
///
/// Tags never appear on the wire; they let metrics attribute deliveries to
/// the originating workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowTag {
    /// Untagged.
    None,
    /// Bulk-transfer data (the iperf-like bandwidth workload).
    Bulk {
        /// Flow id.
        flow: u32,
        /// Batch sequence number.
        seq: u64,
    },
    /// Acknowledgement for a bulk batch.
    BulkAck {
        /// Flow id.
        flow: u32,
        /// Acknowledged sequence number.
        seq: u64,
    },
    /// Attack traffic from the flood generator.
    Attack,
    /// First packet of a tracked new flow (Table IV latency probe).
    NewFlow {
        /// Probe id.
        id: u32,
    },
    /// Reply in a tracked new-flow handshake.
    NewFlowReply {
        /// Probe id.
        id: u32,
    },
}

/// A simulated data-plane packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Ethernet source.
    pub src_mac: MacAddr,
    /// Ethernet destination.
    pub dst_mac: MacAddr,
    /// EtherType (derived from payload for IP/ARP; explicit otherwise).
    pub ethertype: u16,
    /// Network payload.
    pub payload: Payload,
    /// Total wire length in bytes (headers + padding).
    pub wire_len: usize,
    /// How many real packets this simulated packet stands for.
    ///
    /// Bulk workloads batch packets to keep event counts tractable; resource
    /// costs in the switch scale with `batch`.
    pub batch: u32,
    /// Metrics bookkeeping.
    pub tag: FlowTag,
}

const ETH_HEADER_LEN: usize = 14;
const IPV4_HEADER_LEN: usize = 20;
const ARP_LEN: usize = 28;

impl Packet {
    /// Builds a UDP packet.
    pub fn udp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        wire_len: usize,
    ) -> Packet {
        Packet {
            src_mac,
            dst_mac,
            ethertype: ethertype::IPV4,
            payload: Payload::Ipv4 {
                src: src_ip,
                dst: dst_ip,
                tos: 0,
                ttl: 64,
                transport: Transport::Udp { src_port, dst_port },
            },
            wire_len: wire_len.max(ETH_HEADER_LEN + IPV4_HEADER_LEN + 8),
            batch: 1,
            tag: FlowTag::None,
        }
    }

    /// Builds a TCP packet.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        flags: u8,
        wire_len: usize,
    ) -> Packet {
        Packet {
            src_mac,
            dst_mac,
            ethertype: ethertype::IPV4,
            payload: Payload::Ipv4 {
                src: src_ip,
                dst: dst_ip,
                tos: 0,
                ttl: 64,
                transport: Transport::Tcp {
                    src_port,
                    dst_port,
                    seq: 0,
                    ack: 0,
                    flags,
                },
            },
            wire_len: wire_len.max(ETH_HEADER_LEN + IPV4_HEADER_LEN + 20),
            batch: 1,
            tag: FlowTag::None,
        }
    }

    /// Builds an ICMP echo packet.
    pub fn icmp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        icmp_type: u8,
        wire_len: usize,
    ) -> Packet {
        Packet {
            src_mac,
            dst_mac,
            ethertype: ethertype::IPV4,
            payload: Payload::Ipv4 {
                src: src_ip,
                dst: dst_ip,
                tos: 0,
                ttl: 64,
                transport: Transport::Icmp { icmp_type, code: 0 },
            },
            wire_len: wire_len.max(ETH_HEADER_LEN + IPV4_HEADER_LEN + 8),
            batch: 1,
            tag: FlowTag::None,
        }
    }

    /// Builds an ARP request/reply.
    pub fn arp(
        opcode: u16,
        sender_mac: MacAddr,
        sender_ip: Ipv4Addr,
        target_mac: MacAddr,
        target_ip: Ipv4Addr,
    ) -> Packet {
        Packet {
            src_mac: sender_mac,
            dst_mac: if opcode == 1 {
                MacAddr::BROADCAST
            } else {
                target_mac
            },
            ethertype: ethertype::ARP,
            payload: Payload::Arp {
                opcode,
                sender_mac,
                sender_ip,
                target_mac,
                target_ip,
            },
            wire_len: 64,
            batch: 1,
            tag: FlowTag::None,
        }
    }

    /// Sets the TCP sequence/acknowledgement numbers; no-op for non-TCP
    /// packets. SYN-cookie defenses encode the cookie in these fields.
    #[must_use]
    pub fn with_tcp_seq_ack(mut self, seq_no: u32, ack_no: u32) -> Packet {
        if let Payload::Ipv4 {
            transport:
                Transport::Tcp {
                    ref mut seq,
                    ref mut ack,
                    ..
                },
            ..
        } = self.payload
        {
            *seq = seq_no;
            *ack = ack_no;
        }
        self
    }

    /// Sets the metrics tag.
    #[must_use]
    pub fn with_tag(mut self, tag: FlowTag) -> Packet {
        self.tag = tag;
        self
    }

    /// Sets the batch multiplier.
    #[must_use]
    pub fn with_batch(mut self, batch: u32) -> Packet {
        self.batch = batch.max(1);
        self
    }

    /// The IP TOS byte, if this is an IPv4 packet.
    pub fn tos(&self) -> Option<u8> {
        match self.payload {
            Payload::Ipv4 { tos, .. } => Some(tos),
            _ => None,
        }
    }

    /// Sets the IP TOS byte; no-op for non-IP packets.
    pub fn set_tos(&mut self, value: u8) {
        if let Payload::Ipv4 { ref mut tos, .. } = self.payload {
            *tos = value;
        }
    }

    /// The IP protocol number, if this is an IPv4 packet.
    pub fn ip_proto(&self) -> Option<u8> {
        match self.payload {
            Payload::Ipv4 { transport, .. } => Some(transport.proto()),
            _ => None,
        }
    }

    /// Total bytes represented, accounting for batching.
    pub fn total_bytes(&self) -> u64 {
        self.wire_len as u64 * u64::from(self.batch)
    }

    /// Extracts OpenFlow match keys as seen arriving on `in_port`.
    pub fn flow_keys(&self, in_port: u16) -> FlowKeys {
        let mut keys = FlowKeys {
            in_port,
            dl_src: self.src_mac,
            dl_dst: self.dst_mac,
            dl_vlan: OFP_VLAN_NONE,
            dl_type: self.ethertype,
            ..FlowKeys::default()
        };
        match self.payload {
            Payload::Ipv4 {
                src,
                dst,
                tos,
                transport,
                ..
            } => {
                keys.nw_src = src;
                keys.nw_dst = dst;
                keys.nw_tos = tos;
                keys.nw_proto = transport.proto();
                match transport {
                    Transport::Tcp {
                        src_port, dst_port, ..
                    }
                    | Transport::Udp { src_port, dst_port } => {
                        keys.tp_src = src_port;
                        keys.tp_dst = dst_port;
                    }
                    Transport::Icmp { icmp_type, code } => {
                        keys.tp_src = u16::from(icmp_type);
                        keys.tp_dst = u16::from(code);
                    }
                    Transport::Other { .. } => {}
                }
            }
            Payload::Arp {
                opcode,
                sender_ip,
                target_ip,
                ..
            } => {
                // OpenFlow 1.0 reuses nw_proto for the ARP opcode.
                keys.nw_proto = opcode as u8;
                keys.nw_src = sender_ip;
                keys.nw_dst = target_ip;
            }
            Payload::Other => {}
        }
        keys
    }

    /// Applies rewrites implied by OpenFlow actions back onto the packet.
    ///
    /// The switch applies actions to [`FlowKeys`]; this propagates the
    /// rewritten fields into the packet that continues through the network.
    pub fn apply_keys(&mut self, keys: &FlowKeys) {
        self.src_mac = keys.dl_src;
        self.dst_mac = keys.dl_dst;
        if let Payload::Ipv4 {
            ref mut src,
            ref mut dst,
            ref mut tos,
            ref mut transport,
            ..
        } = self.payload
        {
            *src = keys.nw_src;
            *dst = keys.nw_dst;
            *tos = keys.nw_tos;
            match transport {
                Transport::Tcp {
                    src_port, dst_port, ..
                }
                | Transport::Udp { src_port, dst_port } => {
                    *src_port = keys.tp_src;
                    *dst_port = keys.tp_dst;
                }
                _ => {}
            }
        }
    }

    /// Serializes the packet's headers (payload is zero padding) to
    /// `wire_len` bytes.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len);
        buf.put_slice(&self.dst_mac.octets());
        buf.put_slice(&self.src_mac.octets());
        buf.put_u16(self.ethertype);
        match self.payload {
            Payload::Ipv4 {
                src,
                dst,
                tos,
                ttl,
                transport,
            } => {
                let ip_total = (self.wire_len - ETH_HEADER_LEN) as u16;
                buf.put_u8(0x45);
                buf.put_u8(tos);
                buf.put_u16(ip_total);
                buf.put_u16(0); // identification
                buf.put_u16(0); // flags/fragment
                buf.put_u8(ttl);
                buf.put_u8(transport.proto());
                buf.put_u16(0); // checksum (not modelled)
                buf.put_u32(u32::from(src));
                buf.put_u32(u32::from(dst));
                match transport {
                    Transport::Tcp {
                        src_port,
                        dst_port,
                        seq,
                        ack,
                        flags,
                    } => {
                        buf.put_u16(src_port);
                        buf.put_u16(dst_port);
                        buf.put_u32(seq);
                        buf.put_u32(ack);
                        buf.put_u8(0x50); // data offset = 5 words
                        buf.put_u8(flags);
                        buf.put_u16(0xffff); // window
                        buf.put_u16(0); // checksum
                        buf.put_u16(0); // urgent
                    }
                    Transport::Udp { src_port, dst_port } => {
                        buf.put_u16(src_port);
                        buf.put_u16(dst_port);
                        buf.put_u16((self.wire_len - ETH_HEADER_LEN - IPV4_HEADER_LEN) as u16);
                        buf.put_u16(0); // checksum
                    }
                    Transport::Icmp { icmp_type, code } => {
                        buf.put_u8(icmp_type);
                        buf.put_u8(code);
                        buf.put_u16(0); // checksum
                        buf.put_u32(0); // rest of header
                    }
                    Transport::Other { .. } => {}
                }
            }
            Payload::Arp {
                opcode,
                sender_mac,
                sender_ip,
                target_mac,
                target_ip,
            } => {
                buf.put_u16(1); // htype ethernet
                buf.put_u16(ethertype::IPV4);
                buf.put_u8(6);
                buf.put_u8(4);
                buf.put_u16(opcode);
                buf.put_slice(&sender_mac.octets());
                buf.put_u32(u32::from(sender_ip));
                buf.put_slice(&target_mac.octets());
                buf.put_u32(u32::from(target_ip));
            }
            Payload::Other => {}
        }
        // Zero padding up to the logical wire length.
        if buf.len() < self.wire_len {
            buf.resize(self.wire_len, 0);
        }
        buf.freeze()
    }

    /// Parses a packet from wire bytes.
    ///
    /// Returns `None` when the bytes are too short to contain the headers
    /// they claim. Batch and tag metadata are not on the wire and come back
    /// as defaults.
    #[inline]
    pub fn parse(data: &[u8]) -> Option<Packet> {
        let mut buf = data;
        if buf.remaining() < ETH_HEADER_LEN {
            return None;
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        buf.copy_to_slice(&mut dst);
        buf.copy_to_slice(&mut src);
        let etype = buf.get_u16();
        let payload = match etype {
            ethertype::IPV4 => {
                if buf.remaining() < IPV4_HEADER_LEN {
                    return None;
                }
                let vihl = buf.get_u8();
                if vihl >> 4 != 4 {
                    return None;
                }
                let tos = buf.get_u8();
                let _total = buf.get_u16();
                buf.advance(4); // id, flags/frag
                let ttl = buf.get_u8();
                let proto = buf.get_u8();
                buf.advance(2); // checksum
                let src_ip = Ipv4Addr::from(buf.get_u32());
                let dst_ip = Ipv4Addr::from(buf.get_u32());
                let transport = match proto {
                    ipproto::TCP => {
                        if buf.remaining() < 20 {
                            return None;
                        }
                        let src_port = buf.get_u16();
                        let dst_port = buf.get_u16();
                        let seq = buf.get_u32();
                        let ack = buf.get_u32();
                        buf.advance(1);
                        let flags = buf.get_u8();
                        Transport::Tcp {
                            src_port,
                            dst_port,
                            seq,
                            ack,
                            flags,
                        }
                    }
                    ipproto::UDP => {
                        if buf.remaining() < 8 {
                            return None;
                        }
                        let src_port = buf.get_u16();
                        let dst_port = buf.get_u16();
                        Transport::Udp { src_port, dst_port }
                    }
                    ipproto::ICMP => {
                        if buf.remaining() < 8 {
                            return None;
                        }
                        let icmp_type = buf.get_u8();
                        let code = buf.get_u8();
                        Transport::Icmp { icmp_type, code }
                    }
                    other => Transport::Other { proto: other },
                };
                Payload::Ipv4 {
                    src: src_ip,
                    dst: dst_ip,
                    tos,
                    ttl,
                    transport,
                }
            }
            ethertype::ARP => {
                if buf.remaining() < ARP_LEN {
                    return None;
                }
                buf.advance(6); // htype, ptype, hlen, plen
                let opcode = buf.get_u16();
                let mut sha = [0u8; 6];
                buf.copy_to_slice(&mut sha);
                let spa = Ipv4Addr::from(buf.get_u32());
                let mut tha = [0u8; 6];
                buf.copy_to_slice(&mut tha);
                let tpa = Ipv4Addr::from(buf.get_u32());
                Payload::Arp {
                    opcode,
                    sender_mac: MacAddr(sha),
                    sender_ip: spa,
                    target_mac: MacAddr(tha),
                    target_ip: tpa,
                }
            }
            _ => Payload::Other,
        };
        Some(Packet {
            src_mac: MacAddr(src),
            dst_mac: MacAddr(dst),
            ethertype: etype,
            payload,
            wire_len: data.len(),
            batch: 1,
            tag: FlowTag::None,
        })
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.payload {
            Payload::Ipv4 {
                src,
                dst,
                transport,
                ..
            } => write!(
                f,
                "pkt[{} {}->{} proto={} len={}]",
                self.src_mac,
                src,
                dst,
                transport.proto(),
                self.wire_len
            ),
            Payload::Arp { opcode, .. } => write!(f, "pkt[arp op={opcode}]"),
            Payload::Other => write!(f, "pkt[eth 0x{:04x} len={}]", self.ethertype, self.wire_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: u64) -> MacAddr {
        MacAddr::from_u64(n)
    }

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    #[test]
    fn udp_roundtrip() {
        let pkt = Packet::udp(
            mac(1),
            mac(2),
            ip(10, 0, 0, 1),
            ip(10, 0, 0, 2),
            4000,
            53,
            128,
        );
        let bytes = pkt.to_bytes();
        assert_eq!(bytes.len(), 128);
        let parsed = Packet::parse(&bytes).unwrap();
        assert_eq!(parsed.src_mac, pkt.src_mac);
        assert_eq!(parsed.dst_mac, pkt.dst_mac);
        assert_eq!(parsed.payload, pkt.payload);
        assert_eq!(parsed.wire_len, 128);
    }

    #[test]
    fn tcp_roundtrip_with_flags() {
        let pkt = Packet::tcp(
            mac(1),
            mac(2),
            ip(10, 0, 0, 1),
            ip(10, 0, 0, 2),
            40000,
            80,
            Transport::TCP_SYN,
            64,
        );
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        match parsed.payload {
            Payload::Ipv4 {
                transport:
                    Transport::Tcp {
                        flags, dst_port, ..
                    },
                ..
            } => {
                assert_eq!(flags, Transport::TCP_SYN);
                assert_eq!(dst_port, 80);
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn icmp_roundtrip() {
        let pkt = Packet::icmp(mac(1), mac(2), ip(1, 1, 1, 1), ip(2, 2, 2, 2), 8, 98);
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(parsed.payload, pkt.payload);
    }

    #[test]
    fn arp_roundtrip() {
        let pkt = Packet::arp(1, mac(0xa), ip(10, 0, 0, 1), MacAddr::ZERO, ip(10, 0, 0, 2));
        assert_eq!(pkt.dst_mac, MacAddr::BROADCAST);
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(parsed.payload, pkt.payload);
        let reply = Packet::arp(2, mac(0xb), ip(10, 0, 0, 2), mac(0xa), ip(10, 0, 0, 1));
        assert_eq!(reply.dst_mac, mac(0xa));
    }

    #[test]
    fn tos_tag_survives_codec() {
        // The migration agent tags the ingress port into TOS; the cache must
        // read it back from raw bytes.
        let mut pkt = Packet::udp(mac(1), mac(2), ip(9, 9, 9, 9), ip(8, 8, 8, 8), 1, 2, 100);
        pkt.set_tos(5);
        let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
        assert_eq!(parsed.tos(), Some(5));
    }

    #[test]
    fn flow_keys_extraction_udp() {
        let pkt = Packet::udp(
            mac(1),
            mac(2),
            ip(10, 0, 0, 1),
            ip(10, 0, 0, 2),
            4000,
            53,
            128,
        );
        let keys = pkt.flow_keys(3);
        assert_eq!(keys.in_port, 3);
        assert_eq!(keys.dl_type, ethertype::IPV4);
        assert_eq!(keys.nw_proto, ipproto::UDP);
        assert_eq!(keys.tp_dst, 53);
    }

    #[test]
    fn flow_keys_extraction_arp_uses_opcode() {
        let pkt = Packet::arp(2, mac(0xa), ip(10, 0, 0, 1), mac(0xb), ip(10, 0, 0, 2));
        let keys = pkt.flow_keys(1);
        assert_eq!(keys.dl_type, ethertype::ARP);
        assert_eq!(keys.nw_proto, 2);
        assert_eq!(keys.nw_src, ip(10, 0, 0, 1));
    }

    #[test]
    fn apply_keys_rewrites_packet() {
        // Mirrors the ip_balancer: set_nw_dst rewrites the destination.
        let mut pkt = Packet::tcp(
            mac(1),
            mac(2),
            ip(200, 0, 0, 1),
            ip(100, 0, 0, 100),
            4000,
            80,
            Transport::TCP_SYN,
            64,
        );
        let mut keys = pkt.flow_keys(1);
        keys.nw_dst = ip(192, 168, 0, 1);
        keys.dl_dst = mac(0xbeef);
        pkt.apply_keys(&keys);
        match pkt.payload {
            Payload::Ipv4 { dst, .. } => assert_eq!(dst, ip(192, 168, 0, 1)),
            _ => unreachable!(),
        }
        assert_eq!(pkt.dst_mac, mac(0xbeef));
    }

    #[test]
    fn batch_scales_total_bytes() {
        let pkt =
            Packet::udp(mac(1), mac(2), ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, 1500).with_batch(50);
        assert_eq!(pkt.total_bytes(), 1500 * 50);
        // Batch never drops below 1.
        let pkt = pkt.with_batch(0);
        assert_eq!(pkt.batch, 1);
    }

    #[test]
    fn parse_rejects_short_input() {
        assert!(Packet::parse(&[]).is_none());
        assert!(Packet::parse(&[0u8; 13]).is_none());
        // Ethernet header claiming IPv4 but truncated network header.
        let pkt = Packet::udp(mac(1), mac(2), ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, 100);
        let bytes = pkt.to_bytes();
        assert!(Packet::parse(&bytes[..20]).is_none());
    }

    #[test]
    fn wire_len_lower_bound_enforced() {
        let pkt = Packet::udp(mac(1), mac(2), ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2, 0);
        assert!(pkt.wire_len >= 42);
        assert_eq!(pkt.to_bytes().len(), pkt.wire_len);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn parse_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Packet::parse(&data);
        }

        #[test]
        fn udp_header_roundtrip(
            src in any::<u64>(),
            dst in any::<u64>(),
            sip in any::<u32>(),
            dip in any::<u32>(),
            sp in any::<u16>(),
            dp in any::<u16>(),
            tos in any::<u8>(),
            len in 42usize..1500,
        ) {
            let mut pkt = Packet::udp(
                MacAddr::from_u64(src & 0xffff_ffff_ffff),
                MacAddr::from_u64(dst & 0xffff_ffff_ffff),
                Ipv4Addr::from(sip),
                Ipv4Addr::from(dip),
                sp,
                dp,
                len,
            );
            pkt.set_tos(tos);
            let parsed = Packet::parse(&pkt.to_bytes()).unwrap();
            prop_assert_eq!(parsed.payload, pkt.payload);
            prop_assert_eq!(parsed.src_mac, pkt.src_mac);
            prop_assert_eq!(parsed.dst_mac, pkt.dst_mac);
            prop_assert_eq!(parsed.wire_len, pkt.wire_len);
        }

        #[test]
        fn flow_keys_consistent_with_codec(
            sip in any::<u32>(),
            dip in any::<u32>(),
            sp in any::<u16>(),
            dp in any::<u16>(),
        ) {
            // Keys extracted from the struct equal keys extracted after a
            // serialize/parse roundtrip.
            let pkt = Packet::udp(
                MacAddr::from_u64(1),
                MacAddr::from_u64(2),
                Ipv4Addr::from(sip),
                Ipv4Addr::from(dip),
                sp,
                dp,
                100,
            );
            let reparsed = Packet::parse(&pkt.to_bytes()).unwrap();
            prop_assert_eq!(pkt.flow_keys(7), reparsed.flow_keys(7));
        }
    }
}
