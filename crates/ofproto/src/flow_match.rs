//! OpenFlow 1.0 flow matches: the 12-tuple match structure, wildcard bits and
//! matching semantics against concrete packet header keys.

use std::fmt;
use std::net::Ipv4Addr;

use crate::types::MacAddr;

/// OpenFlow 1.0 wildcard bits (`OFPFW_*`).
///
/// A set bit means the corresponding field is *ignored* during matching.
/// IPv4 source/destination use 6-bit wildcard widths: a value of `n` wildcards
/// the low `n` bits of the address (so `0` is an exact match and `>= 32` is
/// fully wildcarded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wildcards(pub u32);

impl Wildcards {
    /// Ingress port.
    pub const IN_PORT: u32 = 1 << 0;
    /// VLAN id.
    pub const DL_VLAN: u32 = 1 << 1;
    /// Ethernet source address.
    pub const DL_SRC: u32 = 1 << 2;
    /// Ethernet destination address.
    pub const DL_DST: u32 = 1 << 3;
    /// EtherType.
    pub const DL_TYPE: u32 = 1 << 4;
    /// IP protocol.
    pub const NW_PROTO: u32 = 1 << 5;
    /// TCP/UDP source port.
    pub const TP_SRC: u32 = 1 << 6;
    /// TCP/UDP destination port.
    pub const TP_DST: u32 = 1 << 7;
    const NW_SRC_SHIFT: u32 = 8;
    const NW_DST_SHIFT: u32 = 14;
    const NW_SRC_MASK: u32 = 0x3f << Self::NW_SRC_SHIFT;
    const NW_DST_MASK: u32 = 0x3f << Self::NW_DST_SHIFT;
    /// VLAN priority.
    pub const DL_VLAN_PCP: u32 = 1 << 20;
    /// IP type-of-service.
    pub const NW_TOS: u32 = 1 << 21;

    /// All fields wildcarded.
    pub const ALL: Wildcards = Wildcards(
        Self::IN_PORT
            | Self::DL_VLAN
            | Self::DL_SRC
            | Self::DL_DST
            | Self::DL_TYPE
            | Self::NW_PROTO
            | Self::TP_SRC
            | Self::TP_DST
            | (32 << Self::NW_SRC_SHIFT)
            | (32 << Self::NW_DST_SHIFT)
            | Self::DL_VLAN_PCP
            | Self::NW_TOS,
    );

    /// No fields wildcarded (fully exact match).
    pub const NONE: Wildcards = Wildcards(0);

    /// Whether the flag `bit` (one of the associated constants) is set.
    pub fn contains(self, bit: u32) -> bool {
        self.0 & bit != 0
    }

    /// Returns a copy with `bit` set.
    #[must_use]
    pub fn with(self, bit: u32) -> Wildcards {
        Wildcards(self.0 | bit)
    }

    /// Returns a copy with `bit` cleared.
    #[must_use]
    pub fn without(self, bit: u32) -> Wildcards {
        Wildcards(self.0 & !bit)
    }

    /// Number of low bits of `nw_src` that are wildcarded (capped at 32).
    pub fn nw_src_bits(self) -> u32 {
        ((self.0 & Self::NW_SRC_MASK) >> Self::NW_SRC_SHIFT).min(32)
    }

    /// Number of low bits of `nw_dst` that are wildcarded (capped at 32).
    pub fn nw_dst_bits(self) -> u32 {
        ((self.0 & Self::NW_DST_MASK) >> Self::NW_DST_SHIFT).min(32)
    }

    /// Returns a copy with the `nw_src` wildcard width set to `bits`.
    #[must_use]
    pub fn with_nw_src_bits(self, bits: u32) -> Wildcards {
        let bits = bits.min(32);
        Wildcards((self.0 & !Self::NW_SRC_MASK) | (bits << Self::NW_SRC_SHIFT))
    }

    /// Returns a copy with the `nw_dst` wildcard width set to `bits`.
    #[must_use]
    pub fn with_nw_dst_bits(self, bits: u32) -> Wildcards {
        let bits = bits.min(32);
        Wildcards((self.0 & !Self::NW_DST_MASK) | (bits << Self::NW_DST_SHIFT))
    }

    /// Whether every field is wildcarded.
    pub fn is_all(self) -> bool {
        let fields = Self::IN_PORT
            | Self::DL_VLAN
            | Self::DL_SRC
            | Self::DL_DST
            | Self::DL_TYPE
            | Self::NW_PROTO
            | Self::TP_SRC
            | Self::TP_DST
            | Self::DL_VLAN_PCP
            | Self::NW_TOS;
        self.0 & fields == fields && self.nw_src_bits() >= 32 && self.nw_dst_bits() >= 32
    }
}

impl Default for Wildcards {
    fn default() -> Self {
        Self::ALL
    }
}

/// Concrete header keys extracted from one packet, used as the matching input.
///
/// This is the fully-specified counterpart of [`OfMatch`]; every field has a
/// definite value. Non-IP packets carry zeros in the network/transport fields,
/// mirroring OpenFlow 1.0 semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKeys {
    /// Ingress physical port.
    pub in_port: u16,
    /// Ethernet source.
    pub dl_src: MacAddr,
    /// Ethernet destination.
    pub dl_dst: MacAddr,
    /// VLAN id, or [`crate::types::OFP_VLAN_NONE`] when untagged.
    pub dl_vlan: u16,
    /// VLAN priority.
    pub dl_vlan_pcp: u8,
    /// EtherType.
    pub dl_type: u16,
    /// IP type-of-service (the 6 DSCP bits, paper uses all 8 TOS bits).
    pub nw_tos: u8,
    /// IP protocol, or ARP opcode low byte for ARP packets.
    pub nw_proto: u8,
    /// IPv4 source (or ARP SPA).
    pub nw_src: Ipv4Addr,
    /// IPv4 destination (or ARP TPA).
    pub nw_dst: Ipv4Addr,
    /// TCP/UDP source port, or ICMP type.
    pub tp_src: u16,
    /// TCP/UDP destination port, or ICMP code.
    pub tp_dst: u16,
}

impl Default for FlowKeys {
    fn default() -> Self {
        FlowKeys {
            in_port: 0,
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            dl_vlan: crate::types::OFP_VLAN_NONE,
            dl_vlan_pcp: 0,
            dl_type: 0,
            nw_tos: 0,
            nw_proto: 0,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: Ipv4Addr::UNSPECIFIED,
            tp_src: 0,
            tp_dst: 0,
        }
    }
}

fn prefix_eq(a: Ipv4Addr, b: Ipv4Addr, wildcard_bits: u32) -> bool {
    if wildcard_bits >= 32 {
        return true;
    }
    let mask = u32::MAX << wildcard_bits;
    (u32::from(a) & mask) == (u32::from(b) & mask)
}

/// An OpenFlow 1.0 flow match: the 12-tuple plus wildcard bits.
///
/// Construct with [`OfMatch::any`] and narrow with the `with_*` builder
/// methods, each of which clears the corresponding wildcard bit.
///
/// # Examples
///
/// ```
/// use ofproto::flow_match::{FlowKeys, OfMatch};
/// use ofproto::types::MacAddr;
///
/// let m = OfMatch::any().with_dl_dst(MacAddr::from_u64(0x0a));
/// let mut keys = FlowKeys::default();
/// keys.dl_dst = MacAddr::from_u64(0x0a);
/// assert!(m.matches(&keys));
/// keys.dl_dst = MacAddr::from_u64(0x0b);
/// assert!(!m.matches(&keys));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OfMatch {
    /// Which fields are ignored.
    pub wildcards: Wildcards,
    /// Field values; only meaningful where not wildcarded.
    pub keys: FlowKeys,
}

impl OfMatch {
    /// A match that accepts every packet.
    pub fn any() -> OfMatch {
        OfMatch {
            wildcards: Wildcards::ALL,
            keys: FlowKeys::default(),
        }
    }

    /// An exact match on all twelve fields of `keys`.
    pub fn exact(keys: FlowKeys) -> OfMatch {
        OfMatch {
            wildcards: Wildcards::NONE,
            keys,
        }
    }

    /// Narrows the match to a specific ingress port.
    #[must_use]
    pub fn with_in_port(mut self, port: u16) -> Self {
        self.keys.in_port = port;
        self.wildcards = self.wildcards.without(Wildcards::IN_PORT);
        self
    }

    /// Narrows the match to a specific Ethernet source.
    #[must_use]
    pub fn with_dl_src(mut self, mac: MacAddr) -> Self {
        self.keys.dl_src = mac;
        self.wildcards = self.wildcards.without(Wildcards::DL_SRC);
        self
    }

    /// Narrows the match to a specific Ethernet destination.
    #[must_use]
    pub fn with_dl_dst(mut self, mac: MacAddr) -> Self {
        self.keys.dl_dst = mac;
        self.wildcards = self.wildcards.without(Wildcards::DL_DST);
        self
    }

    /// Narrows the match to a specific VLAN id.
    #[must_use]
    pub fn with_dl_vlan(mut self, vlan: u16) -> Self {
        self.keys.dl_vlan = vlan;
        self.wildcards = self.wildcards.without(Wildcards::DL_VLAN);
        self
    }

    /// Narrows the match to a specific VLAN priority.
    #[must_use]
    pub fn with_dl_vlan_pcp(mut self, pcp: u8) -> Self {
        self.keys.dl_vlan_pcp = pcp;
        self.wildcards = self.wildcards.without(Wildcards::DL_VLAN_PCP);
        self
    }

    /// Narrows the match to a specific EtherType.
    #[must_use]
    pub fn with_dl_type(mut self, ethertype: u16) -> Self {
        self.keys.dl_type = ethertype;
        self.wildcards = self.wildcards.without(Wildcards::DL_TYPE);
        self
    }

    /// Narrows the match to a specific IP TOS value.
    #[must_use]
    pub fn with_nw_tos(mut self, tos: u8) -> Self {
        self.keys.nw_tos = tos;
        self.wildcards = self.wildcards.without(Wildcards::NW_TOS);
        self
    }

    /// Narrows the match to a specific IP protocol.
    #[must_use]
    pub fn with_nw_proto(mut self, proto: u8) -> Self {
        self.keys.nw_proto = proto;
        self.wildcards = self.wildcards.without(Wildcards::NW_PROTO);
        self
    }

    /// Narrows the match to an exact IPv4 source address.
    #[must_use]
    pub fn with_nw_src(self, addr: Ipv4Addr) -> Self {
        self.with_nw_src_prefix(addr, 32)
    }

    /// Narrows the match to an IPv4 source prefix of `prefix_len` bits.
    #[must_use]
    pub fn with_nw_src_prefix(mut self, addr: Ipv4Addr, prefix_len: u32) -> Self {
        self.keys.nw_src = addr;
        self.wildcards = self.wildcards.with_nw_src_bits(32 - prefix_len.min(32));
        self
    }

    /// Narrows the match to an exact IPv4 destination address.
    #[must_use]
    pub fn with_nw_dst(self, addr: Ipv4Addr) -> Self {
        self.with_nw_dst_prefix(addr, 32)
    }

    /// Narrows the match to an IPv4 destination prefix of `prefix_len` bits.
    #[must_use]
    pub fn with_nw_dst_prefix(mut self, addr: Ipv4Addr, prefix_len: u32) -> Self {
        self.keys.nw_dst = addr;
        self.wildcards = self.wildcards.with_nw_dst_bits(32 - prefix_len.min(32));
        self
    }

    /// Narrows the match to a specific transport source port.
    #[must_use]
    pub fn with_tp_src(mut self, port: u16) -> Self {
        self.keys.tp_src = port;
        self.wildcards = self.wildcards.without(Wildcards::TP_SRC);
        self
    }

    /// Narrows the match to a specific transport destination port.
    #[must_use]
    pub fn with_tp_dst(mut self, port: u16) -> Self {
        self.keys.tp_dst = port;
        self.wildcards = self.wildcards.without(Wildcards::TP_DST);
        self
    }

    /// Whether `keys` satisfies this match.
    pub fn matches(&self, keys: &FlowKeys) -> bool {
        let w = self.wildcards;
        (w.contains(Wildcards::IN_PORT) || self.keys.in_port == keys.in_port)
            && (w.contains(Wildcards::DL_SRC) || self.keys.dl_src == keys.dl_src)
            && (w.contains(Wildcards::DL_DST) || self.keys.dl_dst == keys.dl_dst)
            && (w.contains(Wildcards::DL_VLAN) || self.keys.dl_vlan == keys.dl_vlan)
            && (w.contains(Wildcards::DL_VLAN_PCP) || self.keys.dl_vlan_pcp == keys.dl_vlan_pcp)
            && (w.contains(Wildcards::DL_TYPE) || self.keys.dl_type == keys.dl_type)
            && (w.contains(Wildcards::NW_TOS) || self.keys.nw_tos == keys.nw_tos)
            && (w.contains(Wildcards::NW_PROTO) || self.keys.nw_proto == keys.nw_proto)
            && prefix_eq(self.keys.nw_src, keys.nw_src, w.nw_src_bits())
            && prefix_eq(self.keys.nw_dst, keys.nw_dst, w.nw_dst_bits())
            && (w.contains(Wildcards::TP_SRC) || self.keys.tp_src == keys.tp_src)
            && (w.contains(Wildcards::TP_DST) || self.keys.tp_dst == keys.tp_dst)
    }

    /// Whether every packet matched by `self` is also matched by `other`
    /// (i.e. `self` is at least as specific as `other`).
    ///
    /// Used by non-strict flow-mod delete/modify semantics and by the
    /// FloodGuard rule dispatcher when diffing proactive rule sets.
    pub fn is_subset_of(&self, other: &OfMatch) -> bool {
        fn field_subset(self_wild: bool, other_wild: bool, eq: bool) -> bool {
            other_wild || (!self_wild && eq)
        }
        let sw = self.wildcards;
        let ow = other.wildcards;
        field_subset(
            sw.contains(Wildcards::IN_PORT),
            ow.contains(Wildcards::IN_PORT),
            self.keys.in_port == other.keys.in_port,
        ) && field_subset(
            sw.contains(Wildcards::DL_SRC),
            ow.contains(Wildcards::DL_SRC),
            self.keys.dl_src == other.keys.dl_src,
        ) && field_subset(
            sw.contains(Wildcards::DL_DST),
            ow.contains(Wildcards::DL_DST),
            self.keys.dl_dst == other.keys.dl_dst,
        ) && field_subset(
            sw.contains(Wildcards::DL_VLAN),
            ow.contains(Wildcards::DL_VLAN),
            self.keys.dl_vlan == other.keys.dl_vlan,
        ) && field_subset(
            sw.contains(Wildcards::DL_VLAN_PCP),
            ow.contains(Wildcards::DL_VLAN_PCP),
            self.keys.dl_vlan_pcp == other.keys.dl_vlan_pcp,
        ) && field_subset(
            sw.contains(Wildcards::DL_TYPE),
            ow.contains(Wildcards::DL_TYPE),
            self.keys.dl_type == other.keys.dl_type,
        ) && field_subset(
            sw.contains(Wildcards::NW_TOS),
            ow.contains(Wildcards::NW_TOS),
            self.keys.nw_tos == other.keys.nw_tos,
        ) && field_subset(
            sw.contains(Wildcards::NW_PROTO),
            ow.contains(Wildcards::NW_PROTO),
            self.keys.nw_proto == other.keys.nw_proto,
        ) && {
            // Self's source prefix must be contained in other's.
            sw.nw_src_bits() <= ow.nw_src_bits()
                && prefix_eq(self.keys.nw_src, other.keys.nw_src, ow.nw_src_bits())
        } && {
            sw.nw_dst_bits() <= ow.nw_dst_bits()
                && prefix_eq(self.keys.nw_dst, other.keys.nw_dst, ow.nw_dst_bits())
        } && field_subset(
            sw.contains(Wildcards::TP_SRC),
            ow.contains(Wildcards::TP_SRC),
            self.keys.tp_src == other.keys.tp_src,
        ) && field_subset(
            sw.contains(Wildcards::TP_DST),
            ow.contains(Wildcards::TP_DST),
            self.keys.tp_dst == other.keys.tp_dst,
        )
    }

    /// Whether this match ignores every field.
    pub fn is_any(&self) -> bool {
        self.wildcards.is_all()
    }

    /// Whether this match constrains all twelve fields, i.e. it matches a
    /// packet iff the packet's [`FlowKeys`] equal `self.keys` exactly.
    ///
    /// Exact matches are the common case for reactive rules (l2_learning,
    /// FloodGuard cache re-raises) and are what the flow table's hash index
    /// is keyed on.
    pub fn is_exact(&self) -> bool {
        let w = self.wildcards;
        !w.contains(Wildcards::IN_PORT)
            && !w.contains(Wildcards::DL_VLAN)
            && !w.contains(Wildcards::DL_SRC)
            && !w.contains(Wildcards::DL_DST)
            && !w.contains(Wildcards::DL_TYPE)
            && !w.contains(Wildcards::NW_PROTO)
            && !w.contains(Wildcards::TP_SRC)
            && !w.contains(Wildcards::TP_DST)
            && !w.contains(Wildcards::DL_VLAN_PCP)
            && !w.contains(Wildcards::NW_TOS)
            && w.nw_src_bits() == 0
            && w.nw_dst_bits() == 0
    }
}

impl Default for OfMatch {
    fn default() -> Self {
        OfMatch::any()
    }
}

impl fmt::Display for OfMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_any() {
            return f.write_str("match{*}");
        }
        let w = self.wildcards;
        let mut parts: Vec<String> = Vec::new();
        if !w.contains(Wildcards::IN_PORT) {
            parts.push(format!("in_port={}", self.keys.in_port));
        }
        if !w.contains(Wildcards::DL_SRC) {
            parts.push(format!("dl_src={}", self.keys.dl_src));
        }
        if !w.contains(Wildcards::DL_DST) {
            parts.push(format!("dl_dst={}", self.keys.dl_dst));
        }
        if !w.contains(Wildcards::DL_VLAN) {
            parts.push(format!("dl_vlan={}", self.keys.dl_vlan));
        }
        if !w.contains(Wildcards::DL_VLAN_PCP) {
            parts.push(format!("dl_vlan_pcp={}", self.keys.dl_vlan_pcp));
        }
        if !w.contains(Wildcards::DL_TYPE) {
            parts.push(format!("dl_type=0x{:04x}", self.keys.dl_type));
        }
        if !w.contains(Wildcards::NW_TOS) {
            parts.push(format!("nw_tos={}", self.keys.nw_tos));
        }
        if !w.contains(Wildcards::NW_PROTO) {
            parts.push(format!("nw_proto={}", self.keys.nw_proto));
        }
        if w.nw_src_bits() < 32 {
            parts.push(format!(
                "nw_src={}/{}",
                self.keys.nw_src,
                32 - w.nw_src_bits()
            ));
        }
        if w.nw_dst_bits() < 32 {
            parts.push(format!(
                "nw_dst={}/{}",
                self.keys.nw_dst,
                32 - w.nw_dst_bits()
            ));
        }
        if !w.contains(Wildcards::TP_SRC) {
            parts.push(format!("tp_src={}", self.keys.tp_src));
        }
        if !w.contains(Wildcards::TP_DST) {
            parts.push(format!("tp_dst={}", self.keys.tp_dst));
        }
        write!(f, "match{{{}}}", parts.join(","))
    }
}

/// An action-less set of matches answering "does any rule here match these
/// keys?" — the flow table's two-tier layout without priorities or state.
///
/// Exact matches ([`OfMatch::is_exact`]) go into a hash set probed in O(1);
/// everything else lands in a scan list. FloodGuard's data-plane cache uses
/// this for its §IV-E cache-resident proactive rules, where every queued
/// packet is tested against the whole rule set.
#[derive(Debug, Clone, Default)]
pub struct MatchSet {
    exact: std::collections::HashSet<FlowKeys>,
    wildcard: Vec<OfMatch>,
}

impl MatchSet {
    /// Creates an empty set.
    pub fn new() -> MatchSet {
        MatchSet::default()
    }

    /// Adds a match to the appropriate tier.
    pub fn insert(&mut self, m: OfMatch) {
        if m.is_exact() {
            self.exact.insert(m.keys);
        } else {
            self.wildcard.push(m);
        }
    }

    /// Number of matches held.
    pub fn len(&self) -> usize {
        self.exact.len() + self.wildcard.len()
    }

    /// Whether no matches are held.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.wildcard.is_empty()
    }

    /// Whether any held match covers `keys`.
    pub fn matches(&self, keys: &FlowKeys) -> bool {
        self.exact.contains(keys) || self.wildcard.iter().any(|m| m.matches(keys))
    }

    /// Removes every match.
    pub fn clear(&mut self) {
        self.exact.clear();
        self.wildcard.clear();
    }
}

impl FromIterator<OfMatch> for MatchSet {
    fn from_iter<I: IntoIterator<Item = OfMatch>>(iter: I) -> MatchSet {
        let mut set = MatchSet::new();
        for m in iter {
            set.insert(m);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ethertype, ipproto};

    fn sample_keys() -> FlowKeys {
        FlowKeys {
            in_port: 1,
            dl_src: MacAddr::from_u64(0x0a),
            dl_dst: MacAddr::from_u64(0x0b),
            dl_type: ethertype::IPV4,
            nw_proto: ipproto::UDP,
            nw_src: Ipv4Addr::new(10, 0, 0, 1),
            nw_dst: Ipv4Addr::new(10, 0, 0, 2),
            tp_src: 5000,
            tp_dst: 53,
            ..FlowKeys::default()
        }
    }

    #[test]
    fn any_matches_everything() {
        let m = OfMatch::any();
        assert!(m.matches(&sample_keys()));
        assert!(m.matches(&FlowKeys::default()));
        assert!(m.is_any());
    }

    #[test]
    fn exact_matches_only_identical_keys() {
        let keys = sample_keys();
        let m = OfMatch::exact(keys);
        assert!(m.matches(&keys));
        let mut other = keys;
        other.tp_dst = 54;
        assert!(!m.matches(&other));
    }

    #[test]
    fn match_set_covers_both_tiers() {
        let keys = sample_keys();
        let set: MatchSet = [OfMatch::exact(keys), OfMatch::any().with_in_port(7)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
        assert!(set.matches(&keys));
        let mut other = keys;
        other.tp_dst = 54;
        assert!(!set.matches(&other), "exact tier must not prefix-match");
        other.in_port = 7;
        assert!(set.matches(&other), "wildcard tier still scans");
        let mut set = set;
        set.clear();
        assert!(set.is_empty());
        assert!(!set.matches(&keys));
    }

    #[test]
    fn single_field_match() {
        let m = OfMatch::any().with_in_port(1);
        let mut keys = sample_keys();
        assert!(m.matches(&keys));
        keys.in_port = 2;
        assert!(!m.matches(&keys));
    }

    #[test]
    fn prefix_match_semantics() {
        let m = OfMatch::any().with_nw_src_prefix(Ipv4Addr::new(10, 0, 0, 0), 8);
        let mut keys = sample_keys();
        keys.nw_src = Ipv4Addr::new(10, 200, 3, 4);
        assert!(m.matches(&keys));
        keys.nw_src = Ipv4Addr::new(11, 0, 0, 1);
        assert!(!m.matches(&keys));
    }

    #[test]
    fn highest_order_bit_split_like_ip_balancer() {
        // The paper's ip_balancer splits on the highest-order bit of nw_src:
        // a /1 prefix match expresses exactly that.
        let upper = OfMatch::any().with_nw_src_prefix(Ipv4Addr::new(128, 0, 0, 0), 1);
        let lower = OfMatch::any().with_nw_src_prefix(Ipv4Addr::new(0, 0, 0, 0), 1);
        let mut keys = sample_keys();
        keys.nw_src = Ipv4Addr::new(200, 1, 2, 3);
        assert!(upper.matches(&keys));
        assert!(!lower.matches(&keys));
        keys.nw_src = Ipv4Addr::new(9, 9, 9, 9);
        assert!(!upper.matches(&keys));
        assert!(lower.matches(&keys));
    }

    #[test]
    fn subset_relation() {
        let any = OfMatch::any();
        let port1 = OfMatch::any().with_in_port(1);
        let port1_udp = port1.with_nw_proto(ipproto::UDP);
        assert!(port1.is_subset_of(&any));
        assert!(port1_udp.is_subset_of(&port1));
        assert!(port1_udp.is_subset_of(&any));
        assert!(!any.is_subset_of(&port1));
        assert!(!port1.is_subset_of(&port1_udp));
        assert!(port1.is_subset_of(&port1));
    }

    #[test]
    fn subset_relation_prefixes() {
        let wide = OfMatch::any().with_nw_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8);
        let narrow = OfMatch::any().with_nw_dst_prefix(Ipv4Addr::new(10, 1, 0, 0), 16);
        let disjoint = OfMatch::any().with_nw_dst_prefix(Ipv4Addr::new(11, 1, 0, 0), 16);
        assert!(narrow.is_subset_of(&wide));
        assert!(!wide.is_subset_of(&narrow));
        assert!(!disjoint.is_subset_of(&wide));
    }

    #[test]
    fn is_exact_requires_all_twelve_fields() {
        assert!(OfMatch::exact(sample_keys()).is_exact());
        assert!(!OfMatch::any().is_exact());
        assert!(!OfMatch::any().with_in_port(1).is_exact());
        // A /31 source prefix is not exact even if every flag bit is clear.
        let mut m = OfMatch::exact(sample_keys());
        m.wildcards = m.wildcards.with_nw_src_bits(1);
        assert!(!m.is_exact());
        // Exactness implies matching is key equality.
        let m = OfMatch::exact(sample_keys());
        assert!(m.matches(&sample_keys()));
        let mut other = sample_keys();
        other.dl_vlan_pcp = 5;
        assert!(!m.matches(&other));
    }

    #[test]
    fn wildcard_bit_widths() {
        let w = Wildcards::ALL;
        assert_eq!(w.nw_src_bits(), 32);
        assert_eq!(w.nw_dst_bits(), 32);
        let w = w.with_nw_src_bits(8).with_nw_dst_bits(0);
        assert_eq!(w.nw_src_bits(), 8);
        assert_eq!(w.nw_dst_bits(), 0);
    }

    #[test]
    fn display_formats_fields() {
        let m = OfMatch::any()
            .with_in_port(3)
            .with_dl_type(ethertype::IPV4)
            .with_nw_proto(ipproto::TCP);
        let shown = m.to_string();
        assert!(shown.contains("in_port=3"), "{shown}");
        assert!(shown.contains("dl_type=0x0800"), "{shown}");
        assert!(shown.contains("nw_proto=6"), "{shown}");
        assert_eq!(OfMatch::any().to_string(), "match{*}");
    }
}
