//! The simulated OpenFlow switch: flow table, packet buffer, ingress queue
//! and datapath resource accounting.

use std::collections::VecDeque;

use ofproto::actions::{apply_all, Action};
use ofproto::flow_mod::FlowMod;
use ofproto::flow_table::{FlowTable, RemovedFlow, TableError};
use ofproto::messages::{
    ErrorMsg, FlowRemoved, OfBody, OfMessage, PacketIn, PacketInReason, StatsReply, StatsRequest,
    DEFAULT_MISS_SEND_LEN,
};
use ofproto::types::{BufferId, DatapathId, PortNo, Xid};

use crate::packet::Packet;
use crate::pool::{Slab, SlabHandle};
use crate::profile::SwitchProfile;

/// First TOS value of the reserved migration-tag band (`0xfb..=0xff`).
///
/// FloodGuard's migration encodes ingress ports into TOS values `1..=0xfa`
/// and keeps this band for future control meanings; no legitimate wire
/// packet ever carries it (tag encoding refuses the band, and tagged
/// packets travel switch→cache as controller bytes, not through `process`).
/// A reserved-band TOS arriving on an ordinary port is therefore always a
/// forgery and is stripped at ingress. Mirrors
/// `floodguard::migration::tag::RESERVED_TAG_MIN` — a cross-crate test pins
/// the two constants together (netsim cannot depend on floodguard).
pub const RESERVED_TOS_MIN: u8 = 0xfb;

/// Counters describing what a switch has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets forwarded by flow-table hits (batch-expanded).
    pub forwarded_packets: u64,
    /// Bytes forwarded by flow-table hits.
    pub forwarded_bytes: u64,
    /// Table misses (batch-expanded).
    pub misses: u64,
    /// Packets dropped because the ingress queue was full.
    pub ingress_drops: u64,
    /// Packets dropped by an empty action list.
    pub action_drops: u64,
    /// `packet_in` messages emitted.
    pub packet_ins: u64,
    /// `packet_in`s that carried the whole packet (buffer full).
    pub amplified_packet_ins: u64,
    /// Buffered packets dropped because the controller never released them.
    pub buffer_timeouts: u64,
    /// Packets that arrived with a forged reserved-band TOS tag
    /// (`>= RESERVED_TOS_MIN`) and had it stripped at ingress.
    pub spoofed_tag_stripped: u64,
}

#[derive(Debug, Clone)]
struct BufferedPacket {
    packet: Packet,
    in_port: u16,
    stored_at: f64,
}

/// How a [`MissHook`] overrides default table-miss handling.
#[derive(Debug, Clone)]
pub enum MissOverride {
    /// Reply with this packet out of the ingress port at forwarding cost,
    /// generating no `packet_in` (an AvantGuard-style SYN proxy answering a
    /// handshake in the datapath).
    Reply(Packet),
    /// Proceed with the normal `packet_in` path (a validated flow).
    PacketIn,
    /// Silently drop the packet at forwarding cost.
    Drop,
}

/// A datapath extension consulted on every table miss — the mechanism
/// data-plane defenses like AvantGuard's connection migration plug into.
pub trait MissHook: Send {
    /// Returns `Some` to override default miss handling for this packet.
    fn on_miss(&mut self, packet: &Packet, in_port: u16, now: f64) -> Option<MissOverride>;
}

/// What processing one packet produced.
#[derive(Debug, Clone)]
pub struct ProcessResult {
    /// Packets to emit, as `(out_port, packet)` pairs.
    pub forwards: Vec<(u16, Packet)>,
    /// A `packet_in` to ship to the controller, if any.
    pub packet_in: Option<PacketIn>,
    /// Whether the packet missed the flow table.
    pub was_miss: bool,
    /// Datapath seconds this packet occupied (batch-expanded).
    pub service: f64,
}

/// What processing one packet produced besides its forwards (see
/// [`Switch::process_into`]).
pub(crate) struct Hop {
    pub(crate) packet_in: Option<PacketIn>,
    pub(crate) was_miss: bool,
    pub(crate) service: f64,
}

/// A simulated OpenFlow 1.0 switch.
///
/// The datapath is a single server: the engine pairs [`Switch::enqueue`] /
/// [`Switch::start_next`] with its event loop and uses
/// [`ProcessResult::service`] to advance the busy clock.
pub struct Switch {
    /// This switch's datapath id.
    pub dpid: DatapathId,
    /// Resource model.
    pub profile: SwitchProfile,
    /// The flow table.
    pub table: FlowTable,
    /// When the datapath becomes free (engine-maintained).
    pub busy_until: f64,
    /// Counters.
    pub stats: SwitchStats,
    ports: Vec<u16>,
    ingress: VecDeque<(u16, Packet)>,
    /// Miss-buffered packets in a generational slab: `buffer_id`s are packed
    /// [`SlabHandle`]s, so stale ids from the controller miss cleanly and
    /// slots recycle without per-packet allocation.
    buffer: Slab<BufferedPacket>,
    xid: Xid,
    miss_hook: Option<Box<dyn MissHook>>,
    /// The output ports of the action list being applied, kept between
    /// packets so a hop allocates nothing.
    outs: Vec<PortNo>,
}

impl std::fmt::Debug for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Switch")
            .field("dpid", &self.dpid)
            .field("rules", &self.table.len())
            .field("ingress", &self.ingress.len())
            .field("hooked", &self.miss_hook.is_some())
            .finish()
    }
}

impl Switch {
    /// Creates a switch with the given physical ports.
    pub fn new(dpid: DatapathId, profile: SwitchProfile, ports: Vec<u16>) -> Switch {
        Switch {
            dpid,
            table: FlowTable::new(Some(profile.table_capacity)),
            profile,
            busy_until: 0.0,
            stats: SwitchStats::default(),
            ports,
            ingress: VecDeque::new(),
            buffer: Slab::new(),
            xid: Xid(1),
            miss_hook: None,
            outs: Vec::new(),
        }
    }

    /// Installs a datapath miss hook (e.g. a SYN proxy).
    pub fn set_miss_hook(&mut self, hook: Box<dyn MissHook>) {
        self.miss_hook = Some(hook);
    }

    /// The switch's physical port numbers.
    pub fn ports(&self) -> &[u16] {
        &self.ports
    }

    /// Packets currently waiting in the ingress queue.
    pub fn ingress_len(&self) -> usize {
        self.ingress.len()
    }

    /// Fraction of the packet buffer in use (0..=1).
    pub fn buffer_utilization(&self) -> f64 {
        self.buffer.len() as f64 / self.profile.buffer_slots as f64
    }

    /// Number of packets parked in the miss-buffer arena.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    pub(crate) fn next_xid(&mut self) -> Xid {
        let x = self.xid;
        self.xid = self.xid.next();
        x
    }

    /// Queues an arriving packet; returns `false` (and drops) when the
    /// ingress queue is full.
    pub fn enqueue(&mut self, in_port: u16, packet: Packet) -> bool {
        if self.ingress.len() >= self.profile.ingress_queue {
            self.stats.ingress_drops += u64::from(packet.batch);
            false
        } else {
            self.ingress.push_back((in_port, packet));
            true
        }
    }

    /// Queues a batch of same-timestamp arrivals, draining `packets`.
    /// Semantically identical to calling [`Switch::enqueue`] in order;
    /// returns how many were accepted (the rest were tail-dropped).
    pub fn enqueue_batch(&mut self, packets: &mut Vec<(u16, Packet)>) -> usize {
        let mut accepted = 0;
        for (in_port, packet) in packets.drain(..) {
            if self.enqueue(in_port, packet) {
                accepted += 1;
            }
        }
        accepted
    }

    /// Pops the next queued packet for processing.
    pub fn start_next(&mut self) -> Option<(u16, Packet)> {
        self.ingress.pop_front()
    }

    fn store_in_buffer(&mut self, packet: Packet, in_port: u16, now: f64) -> Option<BufferId> {
        if self.buffer.len() >= self.profile.buffer_slots {
            return None;
        }
        let handle = self.buffer.insert(BufferedPacket {
            packet,
            in_port,
            stored_at: now,
        });
        Some(BufferId(handle.to_u32()))
    }

    fn take_buffered(&mut self, buffer_id: BufferId) -> Option<BufferedPacket> {
        self.buffer.remove(SlabHandle::from_u32(buffer_id.0)?)
    }

    fn make_packet_in(
        &mut self,
        packet: &Packet,
        in_port: u16,
        reason: PacketInReason,
        now: f64,
    ) -> PacketIn {
        let data = packet.to_bytes();
        let total_len = data.len() as u16;
        let buffer_id = self.store_in_buffer(*packet, in_port, now);
        self.stats.packet_ins += 1;
        let data = match buffer_id {
            Some(_) => data.slice(..data.len().min(DEFAULT_MISS_SEND_LEN)),
            None => {
                // Buffer full: the whole packet rides the control channel.
                self.stats.amplified_packet_ins += 1;
                data
            }
        };
        PacketIn {
            buffer_id,
            total_len,
            in_port: PortNo::Physical(in_port),
            reason,
            data,
        }
    }

    /// Resolves the output ports [`apply_all`] left in `self.outs`: a copy
    /// of `packet` per physical port is pushed onto `forwards`, and a
    /// `Controller` output makes the returned `packet_in`.
    fn resolve_outputs(
        &mut self,
        in_port: u16,
        packet: &Packet,
        now: f64,
        forwards: &mut Vec<(u16, Packet)>,
    ) -> Option<PacketIn> {
        let mut packet_in = None;
        for i in 0..self.outs.len() {
            match self.outs[i] {
                PortNo::Physical(p) => {
                    if self.ports.contains(&p) {
                        forwards.push((p, *packet));
                    }
                }
                PortNo::InPort => forwards.push((in_port, *packet)),
                PortNo::Flood | PortNo::All => {
                    for &p in &self.ports {
                        if p != in_port {
                            forwards.push((p, *packet));
                        }
                    }
                }
                PortNo::Controller => {
                    if packet_in.is_none() {
                        packet_in =
                            Some(self.make_packet_in(packet, in_port, PacketInReason::Action, now));
                    }
                }
                PortNo::Table | PortNo::Normal | PortNo::Local | PortNo::None => {}
            }
        }
        packet_in
    }

    /// Processes one packet through the flow table.
    ///
    /// Collects the forwards into a fresh vector; the engine's own hop
    /// pushes them onto a buffer it reuses instead.
    pub fn process(&mut self, in_port: u16, packet: Packet, now: f64) -> ProcessResult {
        let mut forwards = Vec::new();
        let hop = self.process_into(in_port, packet, now, &mut forwards);
        ProcessResult {
            forwards,
            packet_in: hop.packet_in,
            was_miss: hop.was_miss,
            service: hop.service,
        }
    }

    /// Processes one packet through the flow table, pushing the packets to
    /// emit onto `forwards` as `(out_port, packet)` pairs. Once the switch's
    /// own buffers are warm, a hit allocates nothing.
    pub(crate) fn process_into(
        &mut self,
        in_port: u16,
        packet: Packet,
        now: f64,
        forwards: &mut Vec<(u16, Packet)>,
    ) -> Hop {
        let mut packet = packet;
        // Strict ingress tag validation: the reserved TOS band never occurs
        // on the wire legitimately (see [`RESERVED_TOS_MIN`]), so an
        // attacker forging migration tags is neutralized before the lookup
        // — the packet continues as ordinary traffic with TOS cleared.
        if packet.tos().is_some_and(|tos| tos >= RESERVED_TOS_MIN) {
            packet.set_tos(0);
            self.stats.spoofed_tag_stripped += u64::from(packet.batch);
        }
        let keys = packet.flow_keys(in_port);
        let batch = f64::from(packet.batch);
        match self.table.lookup(&keys, now, packet.wire_len) {
            Some(entry) => {
                // A hit on any non-exact rule takes the software-table slow
                // path (exact-match entries are fast-pathed, mirroring the
                // table's own hash tier).
                let wildcard = !entry.of_match.is_exact();
                let service = self.profile.hit_cost(packet.wire_len, wildcard) * batch;
                let mut keys = keys;
                self.outs.clear();
                apply_all(&entry.actions, &mut keys, &mut self.outs);
                if self.outs.is_empty() {
                    self.stats.action_drops += u64::from(packet.batch);
                    return Hop {
                        packet_in: None,
                        was_miss: false,
                        service,
                    };
                }
                let mut rewritten = packet;
                rewritten.apply_keys(&keys);
                self.stats.forwarded_packets += u64::from(rewritten.batch);
                self.stats.forwarded_bytes += rewritten.total_bytes();
                let packet_in = self.resolve_outputs(in_port, &rewritten, now, forwards);
                Hop {
                    packet_in,
                    was_miss: false,
                    service,
                }
            }
            None => {
                self.stats.misses += u64::from(packet.batch);
                if let Some(hook) = &mut self.miss_hook {
                    match hook.on_miss(&packet, in_port, now) {
                        Some(MissOverride::Reply(reply)) => {
                            // The datapath answers itself at forwarding cost.
                            let service = self.profile.hit_cost(packet.wire_len, true) * batch;
                            forwards.push((in_port, reply));
                            return Hop {
                                packet_in: None,
                                was_miss: true,
                                service,
                            };
                        }
                        Some(MissOverride::Drop) => {
                            let service = self.profile.hit_cost(packet.wire_len, true) * batch;
                            self.stats.action_drops += u64::from(packet.batch);
                            return Hop {
                                packet_in: None,
                                was_miss: true,
                                service,
                            };
                        }
                        Some(MissOverride::PacketIn) | None => {}
                    }
                }
                let service = self.profile.miss_total_cost(packet.wire_len) * batch;
                let packet_in = self.make_packet_in(&packet, in_port, PacketInReason::NoMatch, now);
                Hop {
                    packet_in: Some(packet_in),
                    was_miss: true,
                    service,
                }
            }
        }
    }

    /// Handles a controller-to-switch message.
    ///
    /// Returns `(forwards, replies)`: packets to emit on ports and messages
    /// to send back to the controller.
    pub fn handle_message(
        &mut self,
        msg: OfMessage,
        now: f64,
    ) -> (Vec<(u16, Packet)>, Vec<OfMessage>) {
        let mut forwards = Vec::new();
        let mut replies = Vec::new();
        match msg.body {
            OfBody::FlowMod(fm) => {
                let removed = match self.table.apply(&fm, now) {
                    Ok(removed) => removed,
                    Err(err) => {
                        // Report the failure like a real switch (OFPT_ERROR
                        // with the offending message's leading bytes).
                        let code = match err {
                            TableError::TableFull => ErrorMsg::FMFC_ALL_TABLES_FULL,
                            TableError::Overlap => ErrorMsg::FMFC_OVERLAP,
                        };
                        let offending = ofproto::wire::encode(&OfMessage::new(
                            msg.xid,
                            OfBody::FlowMod(fm.clone()),
                        ));
                        replies.push(OfMessage::new(
                            msg.xid,
                            OfBody::Error(ErrorMsg {
                                err_type: ErrorMsg::ET_FLOW_MOD_FAILED,
                                code,
                                data: offending.slice(..offending.len().min(64)),
                            }),
                        ));
                        Vec::new()
                    }
                };
                replies.extend(self.flow_removed_messages(removed));
                // Release the buffered packet through the new rule.
                if let Some(buffer_id) = fm.buffer_id {
                    if let Some(buffered) = self.take_buffered(buffer_id) {
                        let mut keys = buffered.packet.flow_keys(buffered.in_port);
                        self.outs.clear();
                        apply_all(&fm.actions, &mut keys, &mut self.outs);
                        let mut pkt = buffered.packet;
                        pkt.apply_keys(&keys);
                        self.stats.forwarded_packets += u64::from(pkt.batch);
                        self.stats.forwarded_bytes += pkt.total_bytes();
                        self.resolve_outputs(buffered.in_port, &pkt, now, &mut forwards);
                    }
                }
            }
            OfBody::PacketOut(po) => {
                let (packet, in_port) = match po.buffer_id {
                    Some(buffer_id) => match self.take_buffered(buffer_id) {
                        Some(b) => (b.packet, b.in_port),
                        None => return (forwards, replies),
                    },
                    None => match po.data.as_deref().and_then(Packet::parse) {
                        Some(p) => (p, po.in_port.physical().unwrap_or(0)),
                        None => return (forwards, replies),
                    },
                };
                let mut keys = packet.flow_keys(in_port);
                self.outs.clear();
                apply_all(&po.actions, &mut keys, &mut self.outs);
                let mut pkt = packet;
                pkt.apply_keys(&keys);
                if !self.outs.is_empty() {
                    self.stats.forwarded_packets += u64::from(pkt.batch);
                    self.stats.forwarded_bytes += pkt.total_bytes();
                }
                self.resolve_outputs(in_port, &pkt, now, &mut forwards);
            }
            OfBody::BarrierRequest => {
                replies.push(OfMessage::new(msg.xid, OfBody::BarrierReply));
            }
            OfBody::EchoRequest(data) => {
                replies.push(OfMessage::new(msg.xid, OfBody::EchoReply(data)));
            }
            OfBody::StatsRequest(StatsRequest::Flow(m)) => {
                let stats = self.table.flow_stats(&m, now);
                replies.push(OfMessage::new(
                    msg.xid,
                    OfBody::StatsReply(StatsReply::Flow(stats)),
                ));
            }
            OfBody::FeaturesRequest => {
                replies.push(OfMessage::new(
                    msg.xid,
                    OfBody::FeaturesReply(self.features()),
                ));
            }
            _ => {}
        }
        (forwards, replies)
    }

    /// A telemetry snapshot of this switch's resource state.
    ///
    /// `datapath_utilization` is tracked by whoever drives the datapath
    /// clock (the simulation engine or a live endpoint), so it is passed in.
    pub fn telemetry(&self, datapath_utilization: f64) -> crate::iface::SwitchTelemetry {
        crate::iface::SwitchTelemetry {
            dpid: self.dpid,
            buffer_utilization: self.buffer_utilization(),
            datapath_utilization: datapath_utilization.clamp(0.0, 1.0),
            ingress_len: self.ingress_len(),
            misses: self.stats.misses,
            flow_count: Some(self.table.len()),
        }
    }

    /// The switch's `features_reply` body.
    pub fn features(&self) -> ofproto::messages::FeaturesReply {
        ofproto::messages::FeaturesReply {
            datapath_id: self.dpid,
            n_buffers: self.profile.buffer_slots as u32,
            n_tables: 1,
            ports: self.ports.iter().map(|&p| PortNo::Physical(p)).collect(),
        }
    }

    fn flow_removed_messages(&mut self, removed: Vec<RemovedFlow>) -> Vec<OfMessage> {
        removed
            .into_iter()
            .filter(|r| r.entry.send_flow_removed)
            .map(|r| {
                let xid = self.next_xid();
                OfMessage::new(
                    xid,
                    OfBody::FlowRemoved(FlowRemoved {
                        of_match: r.entry.of_match,
                        cookie: r.entry.cookie,
                        priority: r.entry.priority,
                        reason: r.reason,
                        duration_sec: (r.entry.last_hit - r.entry.installed_at).max(0.0) as u32,
                        packet_count: r.entry.packet_count,
                        byte_count: r.entry.byte_count,
                    }),
                )
            })
            .collect()
    }

    /// Crashes the switch: the flow table, packet buffer and ingress queue
    /// are wiped (cumulative [`SwitchStats`] survive, like counters scraped
    /// by an external monitor). The caller is responsible for severing the
    /// control channel and re-handshaking on restart.
    pub fn crash(&mut self) {
        self.table = FlowTable::new(Some(self.profile.table_capacity));
        self.buffer.clear();
        self.ingress.clear();
        self.busy_until = 0.0;
    }

    /// Expires flow rules and stale buffered packets.
    ///
    /// Returns `flow_removed` notifications for expired rules that asked for
    /// them.
    pub fn expire(&mut self, now: f64) -> Vec<OfMessage> {
        let removed = self.table.expire(now);
        let msgs = self.flow_removed_messages(removed);
        let timeout = self.profile.buffer_timeout;
        let dropped = self.buffer.retain(|b| now - b.stored_at < timeout);
        self.stats.buffer_timeouts += dropped as u64;
        msgs
    }

    /// Installs a flow-mod directly (test/setup convenience).
    ///
    /// # Errors
    ///
    /// Propagates [`TableError`] from the flow table.
    pub fn install(&mut self, fm: &FlowMod, now: f64) -> Result<(), TableError> {
        self.table.apply(fm, now).map(|_| ())
    }

    /// Convenience: an `Add` flow-mod installing `actions` for `of_match`.
    pub fn add_rule(
        &mut self,
        of_match: ofproto::flow_match::OfMatch,
        actions: Vec<Action>,
        priority: u16,
        now: f64,
    ) -> Result<(), TableError> {
        self.install(
            &FlowMod::add(of_match, actions).with_priority(priority),
            now,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofproto::flow_match::OfMatch;
    use ofproto::types::MacAddr;
    use std::net::Ipv4Addr;

    fn test_switch() -> Switch {
        Switch::new(DatapathId(1), SwitchProfile::software(), vec![1, 2, 3])
    }

    fn udp_pkt(src: u64, dst: u64) -> Packet {
        Packet::udp(
            MacAddr::from_u64(src),
            MacAddr::from_u64(dst),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            2000,
            100,
        )
    }

    #[test]
    fn miss_produces_buffered_packet_in() {
        let mut sw = test_switch();
        let res = sw.process(1, udp_pkt(1, 2), 0.0);
        assert!(res.was_miss);
        let pi = res.packet_in.unwrap();
        assert!(pi.buffer_id.is_some());
        assert_eq!(pi.in_port, PortNo::Physical(1));
        assert_eq!(pi.reason, PacketInReason::NoMatch);
        assert!(pi.data.len() <= DEFAULT_MISS_SEND_LEN);
        assert_eq!(sw.stats.misses, 1);
        assert_eq!(sw.stats.packet_ins, 1);
    }

    #[test]
    fn buffer_full_amplifies_packet_in() {
        let mut sw = Switch::new(
            DatapathId(1),
            SwitchProfile {
                buffer_slots: 2,
                ..SwitchProfile::software()
            },
            vec![1, 2],
        );
        for i in 0..2 {
            let res = sw.process(1, udp_pkt(i, 99), 0.0);
            assert!(!res.packet_in.unwrap().is_amplified());
        }
        let res = sw.process(1, udp_pkt(50, 99), 0.0);
        let pi = res.packet_in.unwrap();
        assert!(pi.is_amplified());
        assert_eq!(pi.data.len(), 100, "whole packet shipped");
        assert_eq!(sw.stats.amplified_packet_ins, 1);
    }

    #[test]
    fn hit_forwards_and_counts() {
        let mut sw = test_switch();
        sw.add_rule(
            OfMatch::any().with_dl_dst(MacAddr::from_u64(2)),
            vec![Action::Output(PortNo::Physical(2))],
            100,
            0.0,
        )
        .unwrap();
        let res = sw.process(1, udp_pkt(1, 2), 0.1);
        assert!(!res.was_miss);
        assert_eq!(res.forwards.len(), 1);
        assert_eq!(res.forwards[0].0, 2);
        assert_eq!(sw.stats.forwarded_packets, 1);
        assert_eq!(sw.stats.forwarded_bytes, 100);
    }

    #[test]
    fn flood_excludes_ingress_port() {
        let mut sw = test_switch();
        sw.add_rule(OfMatch::any(), vec![Action::Output(PortNo::Flood)], 1, 0.0)
            .unwrap();
        let res = sw.process(2, udp_pkt(1, 2), 0.0);
        let ports: Vec<u16> = res.forwards.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![1, 3]);
    }

    #[test]
    fn empty_actions_drop() {
        let mut sw = test_switch();
        sw.add_rule(OfMatch::any(), vec![], 1, 0.0).unwrap();
        let res = sw.process(1, udp_pkt(1, 2), 0.0);
        assert!(res.forwards.is_empty());
        assert!(res.packet_in.is_none());
        assert_eq!(sw.stats.action_drops, 1);
    }

    #[test]
    fn reserved_band_tos_is_stripped_and_counted_at_ingress() {
        let mut sw = test_switch();
        sw.add_rule(
            OfMatch::any().with_dl_dst(MacAddr::from_u64(2)),
            vec![Action::Output(PortNo::Physical(2))],
            100,
            0.0,
        )
        .unwrap();
        for (i, tos) in (RESERVED_TOS_MIN..=0xff).enumerate() {
            let mut pkt = udp_pkt(1, 2).with_batch(2);
            pkt.set_tos(tos);
            let res = sw.process(1, pkt, 0.0);
            // The forged tag is gone before the lookup and never forwarded.
            assert_eq!(res.forwards[0].1.tos(), Some(0));
            assert_eq!(sw.stats.spoofed_tag_stripped, 2 * (i as u64 + 1));
        }
        // The band below the reserved range is legitimate and untouched.
        let mut pkt = udp_pkt(1, 2);
        pkt.set_tos(RESERVED_TOS_MIN - 1);
        let res = sw.process(1, pkt, 0.0);
        assert_eq!(res.forwards[0].1.tos(), Some(RESERVED_TOS_MIN - 1));
        assert_eq!(sw.stats.spoofed_tag_stripped, 10);
    }

    #[test]
    fn migration_rule_tags_tos_and_redirects() {
        // The FloodGuard migration rule shape: per-inport wildcard, lowest
        // priority, set-tos-bits=inport, output to the cache port.
        let mut sw = test_switch();
        sw.add_rule(
            OfMatch::any().with_in_port(2),
            vec![Action::SetNwTos(2), Action::Output(PortNo::Physical(3))],
            0,
            0.0,
        )
        .unwrap();
        let res = sw.process(2, udp_pkt(1, 2), 0.0);
        assert_eq!(res.forwards.len(), 1);
        let (port, pkt) = &res.forwards[0];
        assert_eq!(*port, 3);
        assert_eq!(pkt.tos(), Some(2));
        assert!(!res.was_miss, "migration traffic must not be a miss");
    }

    #[test]
    fn ingress_queue_bounded() {
        let mut sw = Switch::new(
            DatapathId(1),
            SwitchProfile {
                ingress_queue: 2,
                ..SwitchProfile::software()
            },
            vec![1],
        );
        assert!(sw.enqueue(1, udp_pkt(1, 2)));
        assert!(sw.enqueue(1, udp_pkt(1, 3)));
        assert!(!sw.enqueue(1, udp_pkt(1, 4)));
        assert_eq!(sw.stats.ingress_drops, 1);
        assert_eq!(sw.ingress_len(), 2);
    }

    #[test]
    fn flow_mod_with_buffer_releases_packet() {
        let mut sw = test_switch();
        let res = sw.process(1, udp_pkt(1, 2), 0.0);
        let pi = res.packet_in.unwrap();
        let buffer_id = pi.buffer_id.unwrap();
        let fm = FlowMod::add(
            OfMatch::any().with_dl_dst(MacAddr::from_u64(2)),
            vec![Action::Output(PortNo::Physical(2))],
        )
        .with_buffer_id(buffer_id);
        let (forwards, _) = sw.handle_message(OfMessage::new(Xid(1), OfBody::FlowMod(fm)), 0.1);
        assert_eq!(forwards.len(), 1);
        assert_eq!(forwards[0].0, 2);
        // Buffer slot was freed.
        assert_eq!(sw.buffer_utilization(), 0.0);
    }

    #[test]
    fn packet_out_releases_buffer_with_actions() {
        let mut sw = test_switch();
        let res = sw.process(1, udp_pkt(1, 2), 0.0);
        let buffer_id = res.packet_in.unwrap().buffer_id.unwrap();
        let po = ofproto::messages::PacketOut {
            buffer_id: Some(buffer_id),
            in_port: PortNo::Physical(1),
            actions: vec![Action::Output(PortNo::Flood)],
            data: None,
        };
        let (forwards, _) = sw.handle_message(OfMessage::new(Xid(2), OfBody::PacketOut(po)), 0.1);
        assert_eq!(forwards.len(), 2, "flood to ports 2 and 3");
    }

    #[test]
    fn packet_out_with_raw_data() {
        let mut sw = test_switch();
        let pkt = udp_pkt(1, 2);
        let po = ofproto::messages::PacketOut {
            buffer_id: None,
            in_port: PortNo::Physical(1),
            actions: vec![Action::Output(PortNo::Physical(3))],
            data: Some(pkt.to_bytes()),
        };
        let (forwards, _) = sw.handle_message(OfMessage::new(Xid(3), OfBody::PacketOut(po)), 0.0);
        assert_eq!(forwards.len(), 1);
        assert_eq!(forwards[0].0, 3);
    }

    #[test]
    fn barrier_and_echo_replies() {
        let mut sw = test_switch();
        let (_, replies) = sw.handle_message(OfMessage::new(Xid(9), OfBody::BarrierRequest), 0.0);
        assert_eq!(replies, vec![OfMessage::new(Xid(9), OfBody::BarrierReply)]);
        let (_, replies) = sw.handle_message(
            OfMessage::new(
                Xid(10),
                OfBody::EchoRequest(bytes::Bytes::from_static(b"x")),
            ),
            0.0,
        );
        assert!(matches!(replies[0].body, OfBody::EchoReply(_)));
    }

    #[test]
    fn table_full_reports_openflow_error() {
        let mut sw = Switch::new(
            DatapathId(1),
            SwitchProfile {
                table_capacity: 1,
                ..SwitchProfile::software()
            },
            vec![1, 2],
        );
        sw.add_rule(OfMatch::any().with_in_port(1), vec![], 10, 0.0)
            .unwrap();
        let fm = FlowMod::add(OfMatch::any().with_in_port(2), vec![]);
        let (_, replies) = sw.handle_message(OfMessage::new(Xid(7), OfBody::FlowMod(fm)), 0.0);
        match &replies[0].body {
            OfBody::Error(e) => {
                assert_eq!(e.err_type, ErrorMsg::ET_FLOW_MOD_FAILED);
                assert_eq!(e.code, ErrorMsg::FMFC_ALL_TABLES_FULL);
                assert!(!e.data.is_empty(), "offending bytes attached");
                assert_eq!(replies[0].xid, Xid(7), "error echoes the xid");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn buffer_timeout_frees_slots() {
        let mut sw = Switch::new(
            DatapathId(1),
            SwitchProfile {
                buffer_slots: 4,
                buffer_timeout: 1.0,
                ..SwitchProfile::software()
            },
            vec![1, 2],
        );
        sw.process(1, udp_pkt(1, 2), 0.0);
        sw.process(1, udp_pkt(1, 3), 0.0);
        assert_eq!(sw.buffer_utilization(), 0.5);
        sw.expire(2.0);
        assert_eq!(sw.buffer_utilization(), 0.0);
        assert_eq!(sw.stats.buffer_timeouts, 2);
    }

    #[test]
    fn flow_removed_emitted_on_idle_expiry() {
        let mut sw = test_switch();
        sw.install(
            &FlowMod::add(OfMatch::any(), vec![Action::Output(PortNo::Physical(1))])
                .with_idle_timeout(1)
                .with_send_flow_removed(),
            0.0,
        )
        .unwrap();
        let msgs = sw.expire(5.0);
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0].body, OfBody::FlowRemoved(_)));
    }

    #[test]
    fn stats_request_answered() {
        let mut sw = test_switch();
        sw.add_rule(
            OfMatch::any(),
            vec![Action::Output(PortNo::Physical(1))],
            1,
            0.0,
        )
        .unwrap();
        sw.process(2, udp_pkt(1, 2), 0.0);
        let (_, replies) = sw.handle_message(
            OfMessage::new(
                Xid(5),
                OfBody::StatsRequest(StatsRequest::Flow(OfMatch::any())),
            ),
            1.0,
        );
        match &replies[0].body {
            OfBody::StatsReply(StatsReply::Flow(rules)) => {
                assert_eq!(rules.len(), 1);
                assert_eq!(rules[0].packet_count, 1);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn service_time_miss_exceeds_hit() {
        let mut sw = test_switch();
        let miss = sw.process(1, udp_pkt(1, 2), 0.0);
        sw.add_rule(
            OfMatch::any(),
            vec![Action::Output(PortNo::Physical(2))],
            1,
            0.0,
        )
        .unwrap();
        let hit = sw.process(1, udp_pkt(1, 2), 0.1);
        assert!(miss.service > hit.service * 10.0);
    }

    #[test]
    fn batch_scales_service_and_counters() {
        let mut sw = test_switch();
        sw.add_rule(
            OfMatch::any(),
            vec![Action::Output(PortNo::Physical(2))],
            1,
            0.0,
        )
        .unwrap();
        let single = sw.process(1, udp_pkt(1, 2), 0.0);
        let batched = sw.process(1, udp_pkt(1, 2).with_batch(10), 0.0);
        assert!((batched.service - single.service * 10.0).abs() < 1e-12);
        assert_eq!(sw.stats.forwarded_packets, 11);
    }
}
