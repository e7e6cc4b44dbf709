//! A LineSwitch-style edge defense (Ambrosin et al., AsiaCCS'15 /
//! ToDS'17): SYN-proxy every new TCP flow at the edge switch, blacklist
//! sources whose proxied handshakes fail — *probabilistically*, so an
//! attacker cannot predict which failure trips the blacklist — and cap the
//! proxy-state table with a hard budget.
//!
//! Versus plain AvantGuard the mechanism adds three things:
//!
//! 1. **trusted fast path** — a source that completes one handshake skips
//!    the proxy for `trust_ttl` seconds, so repeat benign flows avoid the
//!    extra round trip;
//! 2. **probabilistic per-source blacklisting** — each timed-out handshake
//!    blacklists its claimed source with probability
//!    `blacklist_probability`, shedding repeat offenders before any proxy
//!    state is spent on them;
//! 3. **proxy-state budget** — at `proxy_budget` concurrent pending
//!    handshakes new SYNs are shed outright, bounding state exhaustion.
//!
//! Like every SYN-oriented defense it is protocol-dependent: UDP/ICMP
//! misses pass through unprotected (the FloodGuard paper's §III argument).
//!
//! Determinism: the blacklist draw uses an internal splitmix64 stream
//! seeded from [`LineSwitchConfig::seed`], never wall-clock or global RNG,
//! so same-seed simulations are bit-exact.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use netsim::packet::{Packet, Payload, Transport};
use netsim::switch::{MissHook, MissOverride};
use ofproto::types::ipproto;
use parking_lot::Mutex;

use crate::protocol_class;

/// Tunables of the LineSwitch edge proxy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineSwitchConfig {
    /// Maximum concurrent proxied handshakes; beyond it new SYNs are shed.
    pub proxy_budget: usize,
    /// Seconds a proxied handshake may stay unanswered before it counts as
    /// failed.
    pub handshake_timeout: f64,
    /// Probability that one failed handshake blacklists its source.
    pub blacklist_probability: f64,
    /// Seconds a blacklisted source stays blocked.
    pub blacklist_duration: f64,
    /// Maximum blacklist entries — spoofed floods strike a fresh random
    /// source per packet, so the blacklist itself must be budgeted too.
    pub blacklist_capacity: usize,
    /// Seconds a validated source keeps the proxy-skipping fast path.
    pub trust_ttl: f64,
    /// Seed of the internal deterministic blacklist-draw stream.
    pub seed: u64,
}

impl Default for LineSwitchConfig {
    fn default() -> LineSwitchConfig {
        LineSwitchConfig {
            proxy_budget: 4096,
            handshake_timeout: 1.0,
            blacklist_probability: 0.5,
            blacklist_duration: 10.0,
            blacklist_capacity: 4096,
            trust_ttl: 30.0,
            seed: 0x11e5_0b5e,
        }
    }
}

/// Live counters of the LineSwitch hook.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LineSwitchStats {
    /// SYNs answered by the edge proxy.
    pub syns_proxied: u64,
    /// Handshakes completed and reported to the controller.
    pub handshakes_validated: u64,
    /// New flows passed straight through on the trusted fast path.
    pub trusted_fast_path: u64,
    /// Proxied handshakes that timed out unanswered.
    pub handshakes_failed: u64,
    /// Sources currently or ever blacklisted (cumulative additions).
    pub blacklisted: u64,
    /// Packets dropped because their source was blacklisted.
    pub blacklist_drops: u64,
    /// SYNs shed because the proxy budget was exhausted.
    pub budget_sheds: u64,
    /// ACKs (or mid-stream TCP) with no pending handshake, dropped.
    pub stray_acks: u64,
    /// Non-TCP misses passed through unprotected.
    pub passed_through: u64,
    /// Drops per protocol class (TCP/UDP/ICMP/other lanes).
    pub drops_by_class: [u64; 4],
    /// Bytes of proxy/blacklist/trust state after the last handled miss.
    pub state_bytes: u64,
    /// Peak bytes of proxy/blacklist/trust state held at once.
    pub state_bytes_peak: u64,
}

/// Shared view of the live counters.
pub type LineSwitchHandle = Arc<Mutex<LineSwitchStats>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FlowKey {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    sport: u16,
    dport: u16,
}

/// Estimated bytes per tracked entry (key + timestamp + table overhead).
pub const ENTRY_BYTES: usize = 48;

/// The LineSwitch edge-proxy datapath hook.
pub struct LineSwitch {
    config: LineSwitchConfig,
    pending: HashMap<FlowKey, f64>,
    /// Source → blocked-until time.
    blacklist: HashMap<Ipv4Addr, f64>,
    /// Source → trusted-until time.
    trusted: HashMap<Ipv4Addr, f64>,
    draw_state: u64,
    stats: LineSwitchHandle,
    obs: Option<LsObs>,
}

struct LsObs {
    pending: obs::registry::Gauge,
    blacklist: obs::registry::Gauge,
    trusted: obs::registry::Gauge,
    syns_proxied: obs::registry::Gauge,
    handshakes_validated: obs::registry::Gauge,
    dropped: obs::registry::Gauge,
}

impl std::fmt::Debug for LineSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineSwitch")
            .field("pending", &self.pending.len())
            .field("blacklist", &self.blacklist.len())
            .field("trusted", &self.trusted.len())
            .field("config", &self.config)
            .finish()
    }
}

impl LineSwitch {
    /// Creates the hook from its configuration.
    pub fn new(config: LineSwitchConfig) -> LineSwitch {
        LineSwitch {
            draw_state: config.seed,
            config,
            pending: HashMap::new(),
            blacklist: HashMap::new(),
            trusted: HashMap::new(),
            stats: Arc::new(Mutex::new(LineSwitchStats::default())),
            obs: None,
        }
    }

    /// Snapshot of the live counters.
    pub fn stats(&self) -> LineSwitchStats {
        *self.stats.lock()
    }

    /// Shared handle to the live counters.
    pub fn stats_handle(&self) -> LineSwitchHandle {
        Arc::clone(&self.stats)
    }

    /// Registers `lineswitch.*` gauges on `hub`, updated per handled miss.
    pub fn attach_obs(&mut self, hub: &obs::ObsHandle) {
        let reg = &hub.registry;
        self.obs = Some(LsObs {
            pending: reg.gauge("lineswitch.pending"),
            blacklist: reg.gauge("lineswitch.blacklist"),
            trusted: reg.gauge("lineswitch.trusted"),
            syns_proxied: reg.gauge("lineswitch.syns_proxied"),
            handshakes_validated: reg.gauge("lineswitch.handshakes_validated"),
            dropped: reg.gauge("lineswitch.dropped"),
        });
    }

    fn publish_obs(&self, stats: &LineSwitchStats) {
        let Some(o) = &self.obs else { return };
        o.pending.set(self.pending.len() as f64);
        o.blacklist.set(self.blacklist.len() as f64);
        o.trusted.set(self.trusted.len() as f64);
        o.syns_proxied.set(stats.syns_proxied as f64);
        o.handshakes_validated
            .set(stats.handshakes_validated as f64);
        o.dropped
            .set(stats.drops_by_class.iter().sum::<u64>() as f64);
    }

    /// Pending proxied handshakes.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Sources currently blacklisted.
    pub fn blacklisted(&self) -> usize {
        self.blacklist.len()
    }

    /// Bytes of defense state currently held.
    pub fn state_bytes(&self) -> u64 {
        ((self.pending.len() + self.blacklist.len() + self.trusted.len()) * ENTRY_BYTES) as u64
    }

    /// Uniform draw in `[0, 1)` from the deterministic internal stream.
    fn draw(&mut self) -> f64 {
        let word = rand::splitmix64(self.draw_state);
        self.draw_state = self.draw_state.wrapping_add(rand::GOLDEN_GAMMA);
        (word >> 11) as f64 / (1u64 << 53) as f64
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

    /// Expires timed-out handshakes (striking their sources), stale
    /// blacklist entries and expired trust.
    fn expire(&mut self, now: f64, stats: &mut LineSwitchStats) {
        let timeout = self.config.handshake_timeout;
        let mut failed: Vec<Ipv4Addr> = Vec::new();
        self.pending.retain(|key, t| {
            if now - *t < timeout {
                true
            } else {
                failed.push(key.src);
                false
            }
        });
        for src in failed {
            stats.handshakes_failed += 1;
            // The probabilistic strike: an attacker cannot tell which
            // failure will trip the blacklist for a given source.
            if self.draw() < self.config.blacklist_probability
                && self.blacklist.len() < self.config.blacklist_capacity
            {
                self.blacklist
                    .insert(src, now + self.config.blacklist_duration);
                stats.blacklisted += 1;
            }
        }
        self.blacklist.retain(|_, until| *until > now);
        self.trusted.retain(|_, until| *until > now);
    }

    fn syn_ack_for(packet: &Packet) -> Packet {
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
            .with_tcp_seq_ack(0, seq.wrapping_add(1)),
            _ => unreachable!("guarded by key_of"),
        }
    }
}

impl MissHook for LineSwitch {
    fn on_miss(&mut self, packet: &Packet, _in_port: u16, now: f64) -> Option<MissOverride> {
        let Some(key) = Self::key_of(packet) else {
            // Not TCP: LineSwitch offers no protection here.
            let mut stats = self.stats.lock();
            stats.passed_through += 1;
            let snapshot = *stats;
            drop(stats);
            self.publish_obs(&snapshot);
            return None;
        };
        let mut stats = *self.stats.lock();
        self.expire(now, &mut stats);
        let flags = match packet.payload {
            Payload::Ipv4 {
                transport: Transport::Tcp { flags, .. },
                ..
            } => flags,
            _ => 0,
        };
        let verdict = if self.blacklist.contains_key(&key.src) {
            stats.blacklist_drops += 1;
            stats.drops_by_class[protocol_class(packet)] += 1;
            Some(MissOverride::Drop)
        } else if flags & Transport::TCP_SYN != 0 && flags & Transport::TCP_ACK == 0 {
            if self.trusted.contains_key(&key.src) {
                // Validated source: skip the proxy round trip entirely.
                stats.trusted_fast_path += 1;
                Some(MissOverride::PacketIn)
            } else if self.pending.len() >= self.config.proxy_budget {
                stats.budget_sheds += 1;
                stats.drops_by_class[protocol_class(packet)] += 1;
                Some(MissOverride::Drop)
            } else {
                self.pending.insert(key, now);
                stats.syns_proxied += 1;
                Some(MissOverride::Reply(Self::syn_ack_for(packet)))
            }
        } else if flags & Transport::TCP_ACK != 0 {
            if self.pending.remove(&key).is_some() {
                stats.handshakes_validated += 1;
                self.trusted.insert(key.src, now + self.config.trust_ttl);
                Some(MissOverride::PacketIn)
            } else {
                stats.stray_acks += 1;
                stats.drops_by_class[protocol_class(packet)] += 1;
                Some(MissOverride::Drop)
            }
        } else {
            stats.stray_acks += 1;
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

    fn syn_from(src: Ipv4Addr, sport: u16) -> Packet {
        Packet::tcp(
            MacAddr::from_u64(1),
            MacAddr::from_u64(2),
            src,
            Ipv4Addr::new(10, 0, 0, 2),
            sport,
            80,
            Transport::TCP_SYN,
            64,
        )
    }

    fn ack_from(src: Ipv4Addr, sport: u16) -> Packet {
        Packet::tcp(
            MacAddr::from_u64(1),
            MacAddr::from_u64(2),
            src,
            Ipv4Addr::new(10, 0, 0, 2),
            sport,
            80,
            Transport::TCP_ACK,
            64,
        )
    }

    const BENIGN: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    #[test]
    fn proxies_then_trusts_validated_sources() {
        let mut ls = LineSwitch::new(LineSwitchConfig::default());
        assert!(matches!(
            ls.on_miss(&syn_from(BENIGN, 1000), 1, 0.0),
            Some(MissOverride::Reply(_))
        ));
        assert!(matches!(
            ls.on_miss(&ack_from(BENIGN, 1000), 1, 0.01),
            Some(MissOverride::PacketIn)
        ));
        // The next new flow from the same source skips the proxy.
        assert!(matches!(
            ls.on_miss(&syn_from(BENIGN, 1001), 1, 0.02),
            Some(MissOverride::PacketIn)
        ));
        let stats = ls.stats();
        assert_eq!(stats.handshakes_validated, 1);
        assert_eq!(stats.trusted_fast_path, 1);
    }

    #[test]
    fn failed_handshakes_blacklist_probabilistically() {
        let cfg = LineSwitchConfig {
            blacklist_probability: 1.0,
            handshake_timeout: 0.5,
            ..LineSwitchConfig::default()
        };
        let mut ls = LineSwitch::new(cfg);
        let attacker = Ipv4Addr::new(66, 6, 6, 6);
        ls.on_miss(&syn_from(attacker, 1), 1, 0.0);
        // The handshake times out; the next miss sweeps and blacklists.
        assert!(matches!(
            ls.on_miss(&syn_from(attacker, 2), 1, 1.0),
            Some(MissOverride::Drop)
        ));
        let stats = ls.stats();
        assert_eq!(stats.handshakes_failed, 1);
        assert_eq!(stats.blacklisted, 1);
        assert_eq!(stats.blacklist_drops, 1);
    }

    #[test]
    fn zero_probability_never_blacklists() {
        let cfg = LineSwitchConfig {
            blacklist_probability: 0.0,
            handshake_timeout: 0.5,
            ..LineSwitchConfig::default()
        };
        let mut ls = LineSwitch::new(cfg);
        let attacker = Ipv4Addr::new(66, 6, 6, 6);
        for i in 0..50u16 {
            ls.on_miss(&syn_from(attacker, i), 1, f64::from(i));
        }
        assert_eq!(ls.stats().blacklisted, 0);
        assert!(ls.stats().handshakes_failed > 0);
    }

    #[test]
    fn budget_sheds_new_syns() {
        let cfg = LineSwitchConfig {
            proxy_budget: 2,
            handshake_timeout: 100.0,
            ..LineSwitchConfig::default()
        };
        let mut ls = LineSwitch::new(cfg);
        ls.on_miss(&syn_from(BENIGN, 1), 1, 0.0);
        ls.on_miss(&syn_from(BENIGN, 2), 1, 0.0);
        assert!(matches!(
            ls.on_miss(&syn_from(BENIGN, 3), 1, 0.0),
            Some(MissOverride::Drop)
        ));
        assert_eq!(ls.stats().budget_sheds, 1);
        assert_eq!(ls.pending(), 2);
    }

    #[test]
    fn non_tcp_passes_through() {
        let mut ls = LineSwitch::new(LineSwitchConfig::default());
        let udp = Packet::udp(
            MacAddr::from_u64(1),
            MacAddr::from_u64(2),
            Ipv4Addr::new(9, 9, 9, 9),
            Ipv4Addr::new(8, 8, 8, 8),
            1,
            2,
            64,
        );
        assert!(ls.on_miss(&udp, 1, 0.0).is_none());
        assert_eq!(ls.stats().passed_through, 1);
    }

    #[test]
    fn blacklist_entries_expire() {
        let cfg = LineSwitchConfig {
            blacklist_probability: 1.0,
            handshake_timeout: 0.1,
            blacklist_duration: 1.0,
            ..LineSwitchConfig::default()
        };
        let mut ls = LineSwitch::new(cfg);
        let attacker = Ipv4Addr::new(66, 6, 6, 6);
        ls.on_miss(&syn_from(attacker, 1), 1, 0.0);
        ls.on_miss(&syn_from(attacker, 2), 1, 0.5); // sweeps, blacklists
        assert_eq!(ls.blacklisted(), 1);
        // Past the blacklist duration the source may try again (proxied).
        assert!(matches!(
            ls.on_miss(&syn_from(attacker, 3), 1, 5.0),
            Some(MissOverride::Reply(_))
        ));
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let mut a = LineSwitch::new(LineSwitchConfig::default());
        let mut b = LineSwitch::new(LineSwitchConfig::default());
        for _ in 0..100 {
            assert_eq!(a.draw().to_bits(), b.draw().to_bits());
        }
    }

    #[test]
    fn state_peak_tracks_tables() {
        let mut ls = LineSwitch::new(LineSwitchConfig::default());
        for i in 0..10u16 {
            ls.on_miss(&syn_from(BENIGN, i), 1, 0.0);
        }
        assert!(ls.stats().state_bytes_peak >= (10 * ENTRY_BYTES) as u64);
    }
}
