//! Seeded inputs: hosts, packet_in frames, flood packets and probes.
//!
//! Everything the program under test receives is built here from the
//! `--seed` argument; the same seed gives byte-identical inputs. The
//! program never sees the seed, only the frames and packets.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use netsim::packet::{Packet, Transport};
use ofproto::messages::{OfBody, OfMessage, PacketIn, PacketInReason};
use ofproto::types::{MacAddr, PortNo, Xid};
use ofproto::wire;

/// Port the data plane cache hangs off, as in the paper's Fig. 9.
pub const CACHE_PORT: u16 = 99;

/// splitmix64: a tiny seeded stream, one per purpose (hosts, requests,
/// flood headers), so adding a draw to one never shifts another.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, purpose)`.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        let mut rng = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A host the controller has learned: where its MAC and IP live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Host {
    /// Ethernet address (locally administered, unicast).
    pub mac: MacAddr,
    /// IPv4 address inside one of the /24s `apps::route::seed` installs.
    pub ip: Ipv4Addr,
    /// Switch port the host is attached to.
    pub port: u16,
}

/// `n` distinct hosts spread over `ports`.
pub fn hosts(seed: u64, n: usize, ports: &[u16]) -> Vec<Host> {
    let mut rng = Rng::new(seed, 1);
    let mac_prefix = 0x0200_0000_0000 | (rng.below(1 << 24) << 16);
    let mut ips = HashSet::new();
    (0..n)
        .map(|i| {
            let ip = loop {
                // 10.(r>>8).(r&255).x with r < 1000: inside the routes
                // `route::seed(1000)` installs, clear of of_firewall's
                // blocked 192.168/16 destinations and the balancer's VIP.
                let r = rng.below(1000) as u32;
                let ip = 0x0a00_0000 | (r << 8) | (1 + rng.below(254) as u32);
                if ips.insert(ip) {
                    break Ipv4Addr::from(ip);
                }
            };
            Host {
                mac: MacAddr::from_u64(mac_prefix | i as u64),
                ip,
                port: ports[rng.below(ports.len() as u64) as usize],
            }
        })
        .collect()
}

/// One pre-encoded packet_in request and the reply the applications owe it.
#[derive(Debug, Clone)]
pub struct Request {
    /// The encoded frame; bytes 4..8 hold the xid and are patched per send.
    pub frame: Vec<u8>,
    /// Destination MAC of the carried packet.
    pub dst_mac: MacAddr,
    /// Port `l2_learning` must output to (the destination's learned port).
    pub out_port: u16,
}

/// Writes `xid` into an encoded OpenFlow frame's header.
pub fn set_xid(frame: &mut [u8], xid: u32) {
    frame[4..8].copy_from_slice(&xid.to_be_bytes());
}

/// Reads the xid of an encoded OpenFlow frame.
#[cfg(test)]
pub fn xid_of(frame: &[u8]) -> u32 {
    u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]])
}

/// A pool of `count` unbuffered packet_in requests for connection `conn`:
/// UDP packets of `packet_len` bytes between two distinct learned hosts,
/// arriving on the source's own port (so learning is a no-op and the
/// controller's state stays what set-up seeded).
pub fn request_pool(
    seed: u64,
    conn: u64,
    hosts: &[Host],
    packet_len: usize,
    count: usize,
) -> Vec<Request> {
    assert!(hosts.len() >= 2, "a request needs two hosts");
    let mut rng = Rng::new(seed, 100 + conn);
    (0..count)
        .map(|_| {
            let src = hosts[rng.below(hosts.len() as u64) as usize];
            let dst = loop {
                let d = hosts[rng.below(hosts.len() as u64) as usize];
                if d.mac != src.mac {
                    break d;
                }
            };
            let packet = Packet::udp(
                src.mac,
                dst.mac,
                src.ip,
                dst.ip,
                1024 + rng.below(60_000) as u16,
                1024 + rng.below(60_000) as u16,
                packet_len,
            );
            let data = packet.to_bytes();
            let msg = OfMessage::new(
                Xid(0),
                OfBody::PacketIn(PacketIn {
                    buffer_id: None,
                    total_len: data.len() as u16,
                    in_port: PortNo::Physical(src.port),
                    reason: PacketInReason::NoMatch,
                    data,
                }),
            );
            Request {
                frame: wire::encode(&msg).to_vec(),
                dst_mac: dst.mac,
                out_port: dst.port,
            }
        })
        .collect()
}

/// Spoofed flood packet `k` of a stream: random source MAC and IP (each
/// one teaches `l2_learning`/`l3_learning` a new entry) toward a random,
/// never-learned destination MAC, so no reactive rule ever matches it and
/// every packet is a table miss until migration.
pub fn flood_packet(rng: &mut Rng, victim: Ipv4Addr) -> Packet {
    Packet::udp(
        MacAddr::from_u64(0x0600_0000_0000 | rng.below(1 << 40)),
        MacAddr::from_u64(0x0a00_0000_0000 | rng.below(1 << 40)),
        Ipv4Addr::from(0x0b00_0000 | rng.below(1 << 24) as u32),
        victim,
        1024 + rng.below(60_000) as u16,
        1 + rng.below(1023) as u16,
        64 + rng.below(64) as usize,
    )
}

/// Benign probe `id`: a TCP SYN from `from` toward a destination MAC nobody
/// owns, so it can only reach port 2 through a controller-driven flood.
/// The id rides in the sequence number and survives every hop.
pub fn probe_packet(from: &Host, id: u32, rng: &mut Rng) -> Packet {
    Packet::tcp(
        from.mac,
        MacAddr::from_u64(0x0e00_0000_0000 | u64::from(id)),
        from.ip,
        Ipv4Addr::from(0x0c00_0000 | rng.below(1 << 24) as u32),
        20_000 + (id % 40_000) as u16,
        80,
        Transport::TCP_SYN,
        74,
    )
    .with_tcp_seq_ack(id, 0)
}

/// The probe id a forwarded packet carries, if it is a probe.
pub fn probe_id(packet: &Packet) -> Option<u32> {
    match packet.payload {
        netsim::packet::Payload::Ipv4 {
            transport: Transport::Tcp {
                seq, dst_port: 80, ..
            },
            ..
        } if packet.dst_mac.to_u64() >> 40 == 0x0e => Some(seq),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Vec<u8> {
        let hosts = hosts(seed, 16, &[1, 2, 3, 4]);
        let mut bytes: Vec<u8> = request_pool(seed, 0, &hosts, 64, 32)
            .into_iter()
            .flat_map(|r| r.frame)
            .collect();
        let mut rng = Rng::new(seed, 7);
        for id in 0..32 {
            bytes.extend_from_slice(&flood_packet(&mut rng, Ipv4Addr::new(10, 0, 0, 2)).to_bytes());
            bytes.extend_from_slice(&probe_packet(&hosts[0], id, &mut rng).to_bytes());
        }
        bytes
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream(11), stream(11));
        assert_ne!(stream(11), stream(12));
    }

    #[test]
    fn hosts_are_distinct_and_routable() {
        let hs = hosts(5, 1024, &[1, 2, 3, 4]);
        let macs: HashSet<_> = hs.iter().map(|h| h.mac).collect();
        let ips: HashSet<_> = hs.iter().map(|h| h.ip).collect();
        assert_eq!((macs.len(), ips.len()), (1024, 1024));
        for h in &hs {
            let o = h.ip.octets();
            assert_eq!(o[0], 10);
            assert!(u32::from(o[1]) * 256 + u32::from(o[2]) < 1000);
            assert!((1..=4).contains(&h.port));
        }
    }

    #[test]
    fn request_frames_decode_to_what_they_promise() {
        let hs = hosts(9, 16, &[1, 2]);
        for mut r in request_pool(9, 1, &hs, 64, 8) {
            set_xid(&mut r.frame, 0xdead_beef);
            assert_eq!(xid_of(&r.frame), 0xdead_beef);
            let msg = wire::decode(&r.frame).expect("own frame decodes");
            assert_eq!(msg.xid, Xid(0xdead_beef));
            let OfBody::PacketIn(pi) = msg.body else {
                panic!("not a packet_in")
            };
            assert!(pi.buffer_id.is_none());
            assert_eq!(pi.data.len(), 64);
            let pkt = Packet::parse(&pi.data).expect("own packet parses");
            assert_eq!(pkt.dst_mac, r.dst_mac);
            let dst = hs
                .iter()
                .find(|h| h.mac == r.dst_mac)
                .expect("dst is learned");
            assert_eq!(dst.port, r.out_port);
        }
    }

    #[test]
    fn probe_id_survives_the_wire() {
        let hs = hosts(3, 2, &[1]);
        let mut rng = Rng::new(3, 9);
        let p = probe_packet(&hs[0], 77, &mut rng);
        let back = Packet::parse(&p.to_bytes()).expect("parses");
        assert_eq!(probe_id(&back), Some(77));
        assert_eq!(probe_id(&flood_packet(&mut rng, hs[0].ip)), None);
    }
}
