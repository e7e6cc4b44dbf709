//! Fundamental OpenFlow identifier types: MAC addresses, datapath ids, port
//! numbers, buffer ids and transaction ids.
//!
//! These are shared by every layer of the workspace: the wire codec, the
//! flow-table implementation, the simulator and the FloodGuard core.

use std::fmt;
use std::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
///
/// # Examples
///
/// ```
/// use ofproto::types::MacAddr;
///
/// let mac: MacAddr = "00:00:00:00:00:0a".parse().unwrap();
/// assert_eq!(mac, MacAddr::new([0, 0, 0, 0, 0, 0x0a]));
/// assert!(!mac.is_broadcast());
/// assert!(MacAddr::BROADCAST.is_broadcast());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, conventionally unassigned.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Creates an address from the low 48 bits of `value`.
    ///
    /// Convenient for tests and synthetic traffic generators.
    pub const fn from_u64(value: u64) -> Self {
        MacAddr([
            (value >> 40) as u8,
            (value >> 32) as u8,
            (value >> 24) as u8,
            (value >> 16) as u8,
            (value >> 8) as u8,
            value as u8,
        ])
    }

    /// Returns the address as the low 48 bits of a `u64`.
    pub fn to_u64(self) -> u64 {
        let o = self.0;
        (u64::from(o[0]) << 40)
            | (u64::from(o[1]) << 32)
            | (u64::from(o[2]) << 24)
            | (u64::from(o[3]) << 16)
            | (u64::from(o[4]) << 8)
            | u64::from(o[5])
    }

    /// Returns the raw octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// Whether the group (multicast) bit is set. Broadcast is also multicast.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// Error returned when parsing a [`MacAddr`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacError(());

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid MAC address syntax")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for octet in octets.iter_mut() {
            let part = parts.next().ok_or(ParseMacError(()))?;
            if part.len() != 2 {
                return Err(ParseMacError(()));
            }
            *octet = u8::from_str_radix(part, 16).map_err(|_| ParseMacError(()))?;
        }
        if parts.next().is_some() {
            return Err(ParseMacError(()));
        }
        Ok(MacAddr(octets))
    }
}

/// A 64-bit OpenFlow datapath identifier naming one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DatapathId(pub u64);

impl DatapathId {
    /// Creates a datapath id from a raw integer.
    pub const fn new(raw: u64) -> Self {
        DatapathId(raw)
    }
}

impl fmt::Display for DatapathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dpid:{:016x}", self.0)
    }
}

/// An OpenFlow 1.0 port number.
///
/// Values below `0xff00` are physical ports; the remainder are the reserved
/// virtual ports defined by the specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortNo {
    /// A physical switch port (1-based; 0 is invalid but representable).
    Physical(u16),
    /// Send the packet out the port it arrived on.
    InPort,
    /// Submit to the flow table (packet-out only).
    Table,
    /// Process with normal non-OpenFlow L2/L3 pipeline.
    Normal,
    /// Flood along the minimum spanning tree, excluding the ingress port.
    Flood,
    /// All physical ports except the ingress port.
    All,
    /// Send to the controller as a `packet_in`.
    Controller,
    /// The local networking stack of the switch.
    Local,
    /// Wildcard used in flow-mod/stats `out_port`; not a forwarding target.
    None,
}

impl PortNo {
    const OFPP_IN_PORT: u16 = 0xfff8;
    const OFPP_TABLE: u16 = 0xfff9;
    const OFPP_NORMAL: u16 = 0xfffa;
    const OFPP_FLOOD: u16 = 0xfffb;
    const OFPP_ALL: u16 = 0xfffc;
    const OFPP_CONTROLLER: u16 = 0xfffd;
    const OFPP_LOCAL: u16 = 0xfffe;
    const OFPP_NONE: u16 = 0xffff;

    /// Encodes this port to its OpenFlow 1.0 wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            PortNo::Physical(n) => n,
            PortNo::InPort => Self::OFPP_IN_PORT,
            PortNo::Table => Self::OFPP_TABLE,
            PortNo::Normal => Self::OFPP_NORMAL,
            PortNo::Flood => Self::OFPP_FLOOD,
            PortNo::All => Self::OFPP_ALL,
            PortNo::Controller => Self::OFPP_CONTROLLER,
            PortNo::Local => Self::OFPP_LOCAL,
            PortNo::None => Self::OFPP_NONE,
        }
    }

    /// Decodes an OpenFlow 1.0 wire value into a port.
    pub fn from_u16(raw: u16) -> Self {
        match raw {
            Self::OFPP_IN_PORT => PortNo::InPort,
            Self::OFPP_TABLE => PortNo::Table,
            Self::OFPP_NORMAL => PortNo::Normal,
            Self::OFPP_FLOOD => PortNo::Flood,
            Self::OFPP_ALL => PortNo::All,
            Self::OFPP_CONTROLLER => PortNo::Controller,
            Self::OFPP_LOCAL => PortNo::Local,
            Self::OFPP_NONE => PortNo::None,
            n => PortNo::Physical(n),
        }
    }

    /// Whether this names a concrete physical port.
    pub fn is_physical(self) -> bool {
        matches!(self, PortNo::Physical(_))
    }

    /// The physical port number, if any.
    pub fn physical(self) -> Option<u16> {
        match self {
            PortNo::Physical(n) => Some(n),
            _ => None,
        }
    }
}

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortNo::Physical(n) => write!(f, "port{n}"),
            other => write!(f, "{}", format!("{other:?}").to_lowercase()),
        }
    }
}

impl From<u16> for PortNo {
    fn from(raw: u16) -> Self {
        PortNo::from_u16(raw)
    }
}

/// A switch packet-buffer identifier carried in `packet_in`/`packet_out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub u32);

impl BufferId {
    /// Wire value meaning "not buffered".
    pub const NO_BUFFER_RAW: u32 = 0xffff_ffff;

    /// Encodes an optional buffer id to its wire representation.
    pub fn encode(id: Option<BufferId>) -> u32 {
        id.map_or(Self::NO_BUFFER_RAW, |b| b.0)
    }

    /// Decodes a wire value into an optional buffer id.
    pub fn decode(raw: u32) -> Option<BufferId> {
        if raw == Self::NO_BUFFER_RAW {
            None
        } else {
            Some(BufferId(raw))
        }
    }
}

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf:{}", self.0)
    }
}

/// An OpenFlow transaction id pairing requests with replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Xid(pub u32);

impl Xid {
    /// Returns the next transaction id, wrapping on overflow.
    pub fn next(self) -> Xid {
        Xid(self.0.wrapping_add(1))
    }
}

impl fmt::Display for Xid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xid:{}", self.0)
    }
}

/// Well-known EtherType values used throughout the workspace.
pub mod ethertype {
    /// IPv4.
    pub const IPV4: u16 = 0x0800;
    /// Address Resolution Protocol.
    pub const ARP: u16 = 0x0806;
    /// IEEE 802.1Q VLAN tag.
    pub const VLAN: u16 = 0x8100;
    /// Link Layer Discovery Protocol.
    pub const LLDP: u16 = 0x88cc;
}

/// Well-known IPv4 protocol numbers.
pub mod ipproto {
    /// Internet Control Message Protocol.
    pub const ICMP: u8 = 1;
    /// Transmission Control Protocol.
    pub const TCP: u8 = 6;
    /// User Datagram Protocol.
    pub const UDP: u8 = 17;
}

/// Wire value meaning "no VLAN tag present" in OpenFlow 1.0 matches.
pub const OFP_VLAN_NONE: u16 = 0xffff;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_roundtrip() {
        let mac = MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        let shown = mac.to_string();
        assert_eq!(shown, "de:ad:be:ef:00:01");
        assert_eq!(shown.parse::<MacAddr>().unwrap(), mac);
    }

    #[test]
    fn mac_parse_rejects_garbage() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("00:00:00:00:00".parse::<MacAddr>().is_err());
        assert!("00:00:00:00:00:00:00".parse::<MacAddr>().is_err());
        assert!("zz:00:00:00:00:00".parse::<MacAddr>().is_err());
        assert!("000:00:00:00:00:0".parse::<MacAddr>().is_err());
    }

    #[test]
    fn mac_u64_roundtrip() {
        let mac = MacAddr::from_u64(0x0000_0a0b_0c0d);
        assert_eq!(mac.to_u64(), 0x0000_0a0b_0c0d);
        assert_eq!(MacAddr::from_u64(mac.to_u64()), mac);
    }

    #[test]
    fn mac_broadcast_and_multicast() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        let multicast = MacAddr::new([0x01, 0, 0x5e, 0, 0, 1]);
        assert!(multicast.is_multicast());
        assert!(!multicast.is_broadcast());
        assert!(!MacAddr::ZERO.is_multicast());
    }

    #[test]
    fn portno_wire_roundtrip() {
        for raw in [
            0u16, 1, 47, 0xfefe, 0xfff8, 0xfff9, 0xfffa, 0xfffb, 0xfffc, 0xfffd, 0xfffe, 0xffff,
        ] {
            assert_eq!(PortNo::from_u16(raw).to_u16(), raw);
        }
        assert_eq!(PortNo::from_u16(0xfffd), PortNo::Controller);
        assert_eq!(PortNo::from_u16(3), PortNo::Physical(3));
    }

    #[test]
    fn portno_physical_accessor() {
        assert_eq!(PortNo::Physical(9).physical(), Some(9));
        assert_eq!(PortNo::Flood.physical(), None);
        assert!(PortNo::Physical(1).is_physical());
        assert!(!PortNo::Controller.is_physical());
    }

    #[test]
    fn buffer_id_encoding() {
        assert_eq!(BufferId::encode(None), 0xffff_ffff);
        assert_eq!(BufferId::encode(Some(BufferId(7))), 7);
        assert_eq!(BufferId::decode(7), Some(BufferId(7)));
        assert_eq!(BufferId::decode(0xffff_ffff), None);
    }

    #[test]
    fn xid_wraps() {
        assert_eq!(Xid(u32::MAX).next(), Xid(0));
        assert_eq!(Xid(41).next(), Xid(42));
    }
}
