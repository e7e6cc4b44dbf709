//! Stateless data-plane SYN cookies (Scholz et al., "Me Love
//! (SYN-)Cookies: SYN Flood Mitigation in Programmable Data Planes").
//!
//! The switch answers every TCP SYN with a SYN-ACK whose *sequence number
//! is a cookie*: a keyed hash of the connection 4-tuple and a coarse time
//! slot. **No state is stored per SYN** — a flood of any size costs the
//! defense nothing but the reply bandwidth. A client that really exists
//! echoes the cookie back (`ack = cookie + 1`) in its final ACK; the
//! switch recomputes the hash, validates it, and only then creates state:
//! one **sequence-translation entry** for the now-established flow (a real
//! deployment must rewrite sequence numbers between the cookie ISN and the
//! server ISN for the connection's lifetime — that entry is the defense's
//! entire per-flow cost) before handing the flow to the controller.
//!
//! The contrast with AvantGuard/LineSwitch in the arena table is the
//! defense-state column: cookie state during a SYN flood stays ~zero while
//! proxies hold a pending entry per flood packet. The shared limitation is
//! identical: non-TCP misses pass through unprotected.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use netsim::packet::{Packet, Payload, Transport};
use netsim::switch::{MissHook, MissOverride};
use ofproto::types::ipproto;
use parking_lot::Mutex;

use crate::protocol_class;

/// Tunables of the SYN-cookie hook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynCookiesConfig {
    /// Secret key folded into every cookie.
    pub secret: u64,
    /// Cookie rotation period; a cookie from the current or previous slot
    /// validates, so clients have between one and two slots to answer.
    pub slot_seconds: f64,
    /// Lifetime of an established flow's sequence-translation entry.
    pub translation_ttl: f64,
    /// Maximum concurrent translation entries.
    pub max_translations: usize,
}

impl Default for SynCookiesConfig {
    fn default() -> SynCookiesConfig {
        SynCookiesConfig {
            secret: 0x5ca1_ab1e_c00c_1e55,
            slot_seconds: 2.0,
            translation_ttl: 30.0,
            max_translations: 8192,
        }
    }
}

/// Live counters of the SYN-cookie hook.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SynCookiesStats {
    /// Cookies issued (SYNs answered statelessly).
    pub cookies_issued: u64,
    /// ACKs whose cookie validated; flows handed to the controller.
    pub cookies_validated: u64,
    /// ACKs whose cookie failed validation (dropped).
    pub cookies_rejected: u64,
    /// Mid-stream TCP for flows with a live translation entry, passed up.
    pub translated: u64,
    /// Non-TCP misses passed through unprotected.
    pub passed_through: u64,
    /// Translation entries evicted by capacity before their TTL.
    pub translations_evicted: u64,
    /// Drops per protocol class (TCP/UDP/ICMP/other lanes).
    pub drops_by_class: [u64; 4],
    /// Bytes of translation state after the last handled miss.
    pub state_bytes: u64,
    /// Peak bytes of translation state held at once.
    pub state_bytes_peak: u64,
}

/// Shared view of the live counters.
pub type SynCookiesHandle = Arc<Mutex<SynCookiesStats>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FlowKey {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    sport: u16,
    dport: u16,
}

/// Estimated bytes per sequence-translation entry (4-tuple, ISN delta,
/// expiry, table overhead).
pub const TRANSLATION_ENTRY_BYTES: usize = 32;

/// The stateless SYN-cookie datapath hook.
pub struct SynCookies {
    config: SynCookiesConfig,
    /// Established flows: key → (cookie ISN delta, expiry).
    translations: HashMap<FlowKey, (u32, f64)>,
    stats: SynCookiesHandle,
    obs: Option<ScObs>,
}

struct ScObs {
    translations: obs::registry::Gauge,
    cookies_issued: obs::registry::Gauge,
    cookies_validated: obs::registry::Gauge,
    cookies_rejected: obs::registry::Gauge,
    dropped: obs::registry::Gauge,
}

impl std::fmt::Debug for SynCookies {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynCookies")
            .field("translations", &self.translations.len())
            .field("config", &self.config)
            .finish()
    }
}

impl SynCookies {
    /// Creates the hook from its configuration.
    pub fn new(config: SynCookiesConfig) -> SynCookies {
        SynCookies {
            config,
            translations: HashMap::new(),
            stats: Arc::new(Mutex::new(SynCookiesStats::default())),
            obs: None,
        }
    }

    /// Snapshot of the live counters.
    pub fn stats(&self) -> SynCookiesStats {
        *self.stats.lock()
    }

    /// Shared handle to the live counters.
    pub fn stats_handle(&self) -> SynCookiesHandle {
        Arc::clone(&self.stats)
    }

    /// Registers `syncookies.*` gauges on `hub`, updated per handled miss.
    pub fn attach_obs(&mut self, hub: &obs::ObsHandle) {
        let reg = &hub.registry;
        self.obs = Some(ScObs {
            translations: reg.gauge("syncookies.translations"),
            cookies_issued: reg.gauge("syncookies.cookies_issued"),
            cookies_validated: reg.gauge("syncookies.cookies_validated"),
            cookies_rejected: reg.gauge("syncookies.cookies_rejected"),
            dropped: reg.gauge("syncookies.dropped"),
        });
    }

    fn publish_obs(&self, stats: &SynCookiesStats) {
        let Some(o) = &self.obs else { return };
        o.translations.set(self.translations.len() as f64);
        o.cookies_issued.set(stats.cookies_issued as f64);
        o.cookies_validated.set(stats.cookies_validated as f64);
        o.cookies_rejected.set(stats.cookies_rejected as f64);
        o.dropped
            .set(stats.drops_by_class.iter().sum::<u64>() as f64);
    }

    /// Live sequence-translation entries.
    pub fn translations(&self) -> usize {
        self.translations.len()
    }

    /// Bytes of defense state currently held (translation table only —
    /// pending SYNs cost nothing by construction).
    pub fn state_bytes(&self) -> u64 {
        (self.translations.len() * TRANSLATION_ENTRY_BYTES) as u64
    }

    fn key_of(packet: &Packet) -> Option<FlowKey> {
        if packet.ip_proto() != Some(ipproto::TCP) {
            return None;
        }
        let keys = packet.flow_keys(0);
        Some(FlowKey {
            src: keys.nw_src,
            dst: keys.nw_dst,
            sport: keys.tp_src,
            dport: keys.tp_dst,
        })
    }

    fn slot(&self, now: f64) -> u64 {
        (now / self.config.slot_seconds).max(0.0) as u64
    }

    /// The cookie for `key` in time `slot`: keyed hash truncated to an ISN.
    fn cookie(&self, key: &FlowKey, slot: u64) -> u32 {
        let tuple = (u64::from(u32::from(key.src)) << 32)
            | u64::from(u32::from(key.dst)) ^ (u64::from(key.sport) << 16 | u64::from(key.dport));
        rand::splitmix64(self.config.secret ^ tuple ^ slot.rotate_left(17)) as u32
    }

    fn expire(&mut self, now: f64) {
        self.translations.retain(|_, (_, until)| *until > now);
    }

    fn syn_ack_for(&self, packet: &Packet, key: &FlowKey, now: f64) -> Packet {
        match packet.payload {
            Payload::Ipv4 {
                src,
                dst,
                transport:
                    Transport::Tcp {
                        src_port,
                        dst_port,
                        seq,
                        ..
                    },
                ..
            } => Packet::tcp(
                packet.dst_mac,
                packet.src_mac,
                dst,
                src,
                dst_port,
                src_port,
                Transport::TCP_SYN | Transport::TCP_ACK,
                64,
            )
            .with_tcp_seq_ack(self.cookie(key, self.slot(now)), seq.wrapping_add(1)),
            _ => unreachable!("guarded by key_of"),
        }
    }
}

impl MissHook for SynCookies {
    fn on_miss(&mut self, packet: &Packet, _in_port: u16, now: f64) -> Option<MissOverride> {
        let Some(key) = Self::key_of(packet) else {
            // Not TCP: cookies offer no protection here.
            let mut stats = self.stats.lock();
            stats.passed_through += 1;
            let snapshot = *stats;
            drop(stats);
            self.publish_obs(&snapshot);
            return None;
        };
        self.expire(now);
        let (flags, ack_no) = match packet.payload {
            Payload::Ipv4 {
                transport: Transport::Tcp { flags, ack, .. },
                ..
            } => (flags, ack),
            _ => (0, 0),
        };
        let mut stats = *self.stats.lock();
        let verdict = if flags & Transport::TCP_SYN != 0 && flags & Transport::TCP_ACK == 0 {
            // Stateless by construction: answer and forget.
            stats.cookies_issued += 1;
            Some(MissOverride::Reply(self.syn_ack_for(packet, &key, now)))
        } else if flags & Transport::TCP_ACK != 0 {
            let echoed = ack_no.wrapping_sub(1);
            let slot = self.slot(now);
            let valid = echoed == self.cookie(&key, slot)
                || (slot > 0 && echoed == self.cookie(&key, slot - 1));
            if valid {
                stats.cookies_validated += 1;
                if self.translations.len() >= self.config.max_translations {
                    // Capacity: drop the entry whose TTL ends soonest.
                    if let Some(oldest) = self
                        .translations
                        .iter()
                        .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1).then(a.0.sport.cmp(&b.0.sport)))
                        .map(|(k, _)| *k)
                    {
                        self.translations.remove(&oldest);
                        stats.translations_evicted += 1;
                    }
                }
                self.translations
                    .insert(key, (echoed, now + self.config.translation_ttl));
                Some(MissOverride::PacketIn)
            } else if self.translations.contains_key(&key) {
                // Established flow mid-stream (e.g. after a rule expired):
                // the translation entry vouches for it.
                stats.translated += 1;
                Some(MissOverride::PacketIn)
            } else {
                stats.cookies_rejected += 1;
                stats.drops_by_class[protocol_class(packet)] += 1;
                Some(MissOverride::Drop)
            }
        } else if self.translations.contains_key(&key) {
            stats.translated += 1;
            Some(MissOverride::PacketIn)
        } else {
            // Mid-stream TCP with neither cookie nor translation state.
            stats.cookies_rejected += 1;
            stats.drops_by_class[protocol_class(packet)] += 1;
            Some(MissOverride::Drop)
        };
        stats.state_bytes = self.state_bytes();
        stats.state_bytes_peak = stats.state_bytes_peak.max(stats.state_bytes);
        *self.stats.lock() = stats;
        self.publish_obs(&stats);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofproto::types::MacAddr;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn syn(sport: u16) -> Packet {
        Packet::tcp(
            MacAddr::from_u64(1),
            MacAddr::from_u64(2),
            CLIENT,
            SERVER,
            sport,
            80,
            Transport::TCP_SYN,
            64,
        )
    }

    fn ack(sport: u16, ack_no: u32) -> Packet {
        Packet::tcp(
            MacAddr::from_u64(1),
            MacAddr::from_u64(2),
            CLIENT,
            SERVER,
            sport,
            80,
            Transport::TCP_ACK,
            64,
        )
        .with_tcp_seq_ack(1, ack_no)
    }

    fn issued_cookie(reply: &MissOverride) -> u32 {
        match reply {
            MissOverride::Reply(p) => match p.payload {
                Payload::Ipv4 {
                    transport: Transport::Tcp { seq, .. },
                    ..
                } => seq,
                _ => panic!("not tcp"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn syn_answered_statelessly_with_cookie() {
        let mut sc = SynCookies::new(SynCookiesConfig::default());
        let reply = sc.on_miss(&syn(1000), 1, 0.0).expect("override");
        let cookie = issued_cookie(&reply);
        assert_ne!(cookie, 0, "cookie encodes the hash");
        assert_eq!(sc.translations(), 0, "no state per SYN");
        assert_eq!(sc.state_bytes(), 0);
        assert_eq!(sc.stats().cookies_issued, 1);
    }

    #[test]
    fn echoed_cookie_validates_and_creates_translation() {
        let mut sc = SynCookies::new(SynCookiesConfig::default());
        let reply = sc.on_miss(&syn(1000), 1, 0.0).expect("override");
        let cookie = issued_cookie(&reply);
        match sc.on_miss(&ack(1000, cookie.wrapping_add(1)), 1, 0.1) {
            Some(MissOverride::PacketIn) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(sc.stats().cookies_validated, 1);
        assert_eq!(sc.translations(), 1, "established flow gets one entry");
        assert_eq!(sc.state_bytes(), TRANSLATION_ENTRY_BYTES as u64);
    }

    #[test]
    fn forged_ack_rejected() {
        let mut sc = SynCookies::new(SynCookiesConfig::default());
        assert!(matches!(
            sc.on_miss(&ack(1000, 0xdead_beef), 1, 0.0),
            Some(MissOverride::Drop)
        ));
        assert_eq!(sc.stats().cookies_rejected, 1);
        assert_eq!(sc.translations(), 0);
    }

    #[test]
    fn previous_slot_cookie_still_validates() {
        let cfg = SynCookiesConfig {
            slot_seconds: 1.0,
            ..SynCookiesConfig::default()
        };
        let mut sc = SynCookies::new(cfg);
        let reply = sc.on_miss(&syn(1000), 1, 0.9).expect("override");
        let cookie = issued_cookie(&reply);
        // The ACK lands after the slot rolled over.
        match sc.on_miss(&ack(1000, cookie.wrapping_add(1)), 1, 1.5) {
            Some(MissOverride::PacketIn) => {}
            other => panic!("unexpected {other:?}"),
        }
        // Two slots later the same cookie is dead.
        let reply = sc.on_miss(&syn(2000), 1, 0.5).expect("override");
        let stale = issued_cookie(&reply);
        assert!(matches!(
            sc.on_miss(&ack(2000, stale.wrapping_add(1)), 1, 3.5),
            Some(MissOverride::Drop)
        ));
    }

    #[test]
    fn syn_flood_creates_zero_state() {
        let mut sc = SynCookies::new(SynCookiesConfig::default());
        for i in 0..10_000u16 {
            let r = sc.on_miss(&syn(i), 1, f64::from(i) * 1e-4);
            assert!(matches!(r, Some(MissOverride::Reply(_))));
        }
        assert_eq!(sc.translations(), 0);
        assert_eq!(sc.stats().state_bytes_peak, 0, "flood costs no state");
    }

    #[test]
    fn translation_capacity_evicts_oldest() {
        let cfg = SynCookiesConfig {
            max_translations: 2,
            ..SynCookiesConfig::default()
        };
        let mut sc = SynCookies::new(cfg);
        for sport in [1u16, 2, 3] {
            let reply = sc.on_miss(&syn(sport), 1, 0.0).expect("override");
            let cookie = issued_cookie(&reply);
            sc.on_miss(&ack(sport, cookie.wrapping_add(1)), 1, 0.1);
        }
        assert_eq!(sc.translations(), 2);
        assert_eq!(sc.stats().translations_evicted, 1);
    }

    #[test]
    fn udp_passes_through_unprotected() {
        let mut sc = SynCookies::new(SynCookiesConfig::default());
        let udp = Packet::udp(
            MacAddr::from_u64(1),
            MacAddr::from_u64(2),
            Ipv4Addr::new(9, 9, 9, 9),
            Ipv4Addr::new(8, 8, 8, 8),
            1,
            2,
            64,
        );
        assert!(sc.on_miss(&udp, 1, 0.0).is_none());
        assert_eq!(sc.stats().passed_through, 1);
    }

    #[test]
    fn cookies_differ_across_tuples_and_slots() {
        let sc = SynCookies::new(SynCookiesConfig::default());
        let k1 = FlowKey {
            src: CLIENT,
            dst: SERVER,
            sport: 1,
            dport: 80,
        };
        let k2 = FlowKey { sport: 2, ..k1 };
        assert_ne!(sc.cookie(&k1, 0), sc.cookie(&k2, 0));
        assert_ne!(sc.cookie(&k1, 0), sc.cookie(&k1, 1));
    }
}
