//! The reactive controller platform: dispatches `packet_in` events to
//! applications, executes their handlers, and answers the data plane.
//!
//! This stands in for POX (the paper's controller): applications register a
//! `packet_in` handler, every message is dispatched to every application in
//! registration order, and each handler's work is charged to that
//! application's CPU account (the measurement behind Fig. 12).
//!
//! The paper's Table II catalogues the `packet_in` handler shapes across
//! controller platforms; this crate's single IR-based handler stands in for
//! all of them:
//!
//! | Platform | Handler (paper Table II) |
//! |---|---|
//! | NOX | `def packet_in_callback(self, dpid, inport, reason, len, bufid, packet)` |
//! | POX | `def _handle_PacketIn(self, event)` |
//! | Ryu | `def packet_in_handler(self, ev)` |
//! | Beacon | `public Command receive(IOFSwitch sw, OFMessage msg)` |
//! | Floodlight | `public Command receive(IOFSwitch sw, OFMessage msg, FloodlightContext cntx)` |
//! | OpenDaylight | `public PacketResult receiveDataPacket(RawPacket inPkt)` |
//! | **here** | a [`policy::Program`] executed per `packet_in` by [`ControllerPlatform::handle_packet_in`] |

use ofproto::flow_mod::FlowMod;
use ofproto::messages::{OfBody, OfMessage, PacketIn, PacketOut};
use ofproto::types::{BufferId, DatapathId, PortNo};
use policy::interp::{execute_at, ConcreteDecision, Provenance};
use policy::{Env, Program};

use netsim::iface::{ControlOutput, ControlPlane, Telemetry};
use netsim::packet::Packet;

/// Default CPU cost per interpreted AST node, seconds.
///
/// Calibrated so a typical handler costs on the order of a millisecond —
/// together with platform dispatch this yields the paper's ~130 ms
/// first-packet delay (connection setup + RTTs + handler time) and a
/// controller that saturates under a few hundred `packet_in`/s.
pub const DEFAULT_NODE_COST: f64 = 40e-6;

/// One registered application: program, its private globals, and counters.
#[derive(Debug, Clone)]
pub struct App {
    /// The handler program.
    pub program: Program,
    /// The application's global variables (state-sensitive state lives
    /// here; FloodGuard's application tracker reads it).
    pub env: Env,
    /// `packet_in` events handled.
    pub handled: u64,
    /// Total AST nodes executed.
    pub nodes_executed: u64,
}

impl App {
    /// Creates an app with its program's initial environment.
    pub fn new(program: Program) -> App {
        let env = program.initial_env();
        App {
            program,
            env,
            handled: 0,
            nodes_executed: 0,
        }
    }
}

/// The reactive controller platform.
///
/// Implements [`ControlPlane`] so it can drive a simulation directly; the
/// FloodGuard wrapper (and baseline defenses) also embed it and delegate.
#[derive(Debug, Default)]
pub struct ControllerPlatform {
    apps: Vec<App>,
    node_cost: f64,
    packet_ins: u64,
    /// The latest time a message or a tick brought: what a `packet_in`
    /// handed over without one is stamped with.
    now: f64,
}

impl ControllerPlatform {
    /// Creates an empty platform with the default per-node cost.
    pub fn new() -> ControllerPlatform {
        ControllerPlatform {
            apps: Vec::new(),
            node_cost: DEFAULT_NODE_COST,
            packet_ins: 0,
            now: 0.0,
        }
    }

    /// Registers an application; dispatch order is registration order.
    pub fn register(&mut self, program: Program) -> &mut Self {
        self.apps.push(App::new(program));
        self
    }

    /// Overrides the per-AST-node CPU cost.
    pub fn set_node_cost(&mut self, seconds: f64) {
        self.node_cost = seconds;
    }

    /// The registered applications.
    pub fn apps(&self) -> &[App] {
        &self.apps
    }

    /// Mutable access to one application by name (seed or inspect state).
    pub fn app_mut(&mut self, name: &str) -> Option<&mut App> {
        self.apps.iter_mut().find(|a| a.program.name == name)
    }

    /// Access to one application by name.
    pub fn app(&self, name: &str) -> Option<&App> {
        self.apps.iter().find(|a| a.program.name == name)
    }

    /// Total `packet_in` messages dispatched.
    pub fn packet_in_count(&self) -> u64 {
        self.packet_ins
    }

    /// Entries the apps' learned maps hold (quarantine overlays not
    /// counted).
    pub fn learned_entries(&self) -> usize {
        self.apps.iter().map(|a| a.env.learned_len()).sum()
    }

    /// Entries the apps hold in quarantine.
    pub fn quarantined_entries(&self) -> usize {
        self.apps.iter().map(|a| a.env.quarantined_len()).sum()
    }

    /// Learned and quarantined entries forgotten so far by expiry or
    /// eviction, over all apps.
    pub fn aged_out(&self) -> u64 {
        self.apps.iter().map(|a| a.env.aged_out()).sum()
    }

    /// Forgets every learned entry due at `now`, in every app; how many
    /// went. A removal from a map is a write the analyzer sees, like a
    /// learn.
    pub fn expire(&mut self, now: f64) -> usize {
        self.now = self.now.max(now);
        self.apps.iter_mut().map(|a| a.env.expire(now)).sum()
    }

    /// Moves what every app's learned maps first learned at or after
    /// `cutoff` into their quarantine overlays ([`policy::Env::demote_since`]);
    /// how many entries moved. The handlers still read them, rule
    /// conversion does not, and a trusted learn promotes one back.
    pub fn demote_since(&mut self, cutoff: f64) -> usize {
        self.apps
            .iter_mut()
            .map(|a| a.env.demote_since(cutoff))
            .sum()
    }

    /// Handles one `packet_in` from a switch, running every registered app
    /// at the latest time the platform was given.
    ///
    /// Responses follow POX conventions: the first rule-installing app gets
    /// the buffered packet released through its new rule; packet-out
    /// decisions for already-consumed buffers ship the raw payload instead.
    pub fn handle_packet_in(
        &mut self,
        dpid: DatapathId,
        xid: ofproto::types::Xid,
        pi: &PacketIn,
        out: &mut ControlOutput,
    ) {
        let now = self.now;
        self.handle_packet_in_at(dpid, xid, pi, now, Provenance::Switch, out);
    }

    /// Handles one `packet_in` that arrived at `now` by way of
    /// `provenance`. One the data plane cache re-raised
    /// ([`Provenance::Cache`]) teaches the apps in quarantine: they read
    /// what it taught, rule conversion does not (see
    /// [`policy::Env::quarantine`]).
    pub fn handle_packet_in_at(
        &mut self,
        dpid: DatapathId,
        xid: ofproto::types::Xid,
        pi: &PacketIn,
        now: f64,
        provenance: Provenance,
        out: &mut ControlOutput,
    ) {
        self.now = self.now.max(now);
        self.packet_ins += 1;
        let Some(packet) = Packet::parse(&pi.data) else {
            return;
        };
        let in_port = pi.in_port.physical().unwrap_or(0);
        let keys = packet.flow_keys(in_port);
        let mut buffer: Option<BufferId> = pi.buffer_id;
        // A reply that ships the payload ships the frame the switch sent, byte
        // for byte (a refcount, not a copy): re-serialising the parsed packet
        // would zero its payload, checksums and IP id.
        let payload = || pi.data.clone();
        for app in &mut self.apps {
            let result = match execute_at(&app.program, &keys, &mut app.env, now, provenance) {
                Ok(r) => r,
                // A handler error is an application bug; move on to the
                // next app, like a platform catching an exception from one
                // listener. The failed handler's work is not charged: the
                // error carries no node count.
                Err(_) => continue,
            };
            app.handled += 1;
            app.nodes_executed += result.nodes;
            out.charge(&app.program.name, result.nodes as f64 * self.node_cost);
            let consumed_buffer = buffer.take();
            match result.decision {
                ConcreteDecision::Install(rule) => {
                    // Copy the actions only when an explicit forward is
                    // needed; the buffered case releases through the rule,
                    // and the flow-mod takes the rule's own.
                    let forward = consumed_buffer.is_none().then(|| rule.actions.clone());
                    let mut fm: FlowMod = rule.into_flow_mod();
                    fm.buffer_id = consumed_buffer;
                    out.send(dpid, OfMessage::new(xid, OfBody::FlowMod(fm)));
                    if let Some(actions) = forward {
                        // No switch buffer holds the packet (amplified or
                        // cache-re-raised): forward it explicitly through
                        // the new rule's actions, as POX does.
                        out.send(
                            dpid,
                            OfMessage::new(
                                xid,
                                OfBody::PacketOut(PacketOut {
                                    buffer_id: None,
                                    in_port: pi.in_port,
                                    actions,
                                    data: Some(payload()),
                                }),
                            ),
                        );
                    }
                }
                ConcreteDecision::PacketOutFlood => {
                    out.send(
                        dpid,
                        OfMessage::new(
                            xid,
                            OfBody::PacketOut(PacketOut {
                                buffer_id: consumed_buffer,
                                in_port: pi.in_port,
                                actions: vec![ofproto::actions::Action::Output(PortNo::Flood)],
                                data: consumed_buffer.is_none().then(payload),
                            }),
                        ),
                    );
                }
                ConcreteDecision::PacketOutPort(port) => {
                    out.send(
                        dpid,
                        OfMessage::new(
                            xid,
                            OfBody::PacketOut(PacketOut {
                                buffer_id: consumed_buffer,
                                in_port: pi.in_port,
                                actions: vec![ofproto::actions::Action::Output(PortNo::Physical(
                                    port,
                                ))],
                                data: consumed_buffer.is_none().then(payload),
                            }),
                        ),
                    );
                }
                ConcreteDecision::Drop => {
                    // Release the buffer with no actions: an explicit drop.
                    if let Some(buffer_id) = consumed_buffer {
                        out.send(
                            dpid,
                            OfMessage::new(
                                xid,
                                OfBody::PacketOut(PacketOut {
                                    buffer_id: Some(buffer_id),
                                    in_port: pi.in_port,
                                    actions: vec![],
                                    data: None,
                                }),
                            ),
                        );
                    }
                }
                ConcreteDecision::NoOp => {
                    // The app ignored the packet; the buffer stays for the
                    // next app.
                    buffer = consumed_buffer;
                }
            }
        }
    }
}

impl ControlPlane for ControllerPlatform {
    fn on_switch_connect(
        &mut self,
        _dpid: DatapathId,
        _features: ofproto::messages::FeaturesReply,
        _now: f64,
        _out: &mut ControlOutput,
    ) {
    }

    fn on_message(&mut self, dpid: DatapathId, msg: OfMessage, now: f64, out: &mut ControlOutput) {
        if let OfBody::PacketIn(pi) = &msg.body {
            self.handle_packet_in_at(dpid, msg.xid, pi, now, Provenance::Switch, out);
        }
    }

    fn on_telemetry(&mut self, _telemetry: &Telemetry, now: f64, _out: &mut ControlOutput) {
        self.expire(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use bytes::Bytes;
    use ofproto::messages::PacketInReason;
    use ofproto::types::{MacAddr, Xid};
    use std::net::Ipv4Addr;

    fn packet_in(packet: &Packet, port: u16, buffered: bool) -> PacketIn {
        let data = packet.to_bytes();
        PacketIn {
            buffer_id: buffered.then_some(BufferId(9)),
            total_len: data.len() as u16,
            in_port: PortNo::Physical(port),
            reason: PacketInReason::NoMatch,
            data,
        }
    }

    fn udp(src: u64, dst: u64) -> Packet {
        Packet::udp(
            MacAddr::from_u64(src),
            MacAddr::from_u64(dst),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            100,
        )
    }

    #[test]
    fn l2_learning_floods_then_installs() {
        let mut platform = ControllerPlatform::new();
        platform.register(apps::l2_learning::program());
        let mut out = ControlOutput::new();
        platform.handle_packet_in(
            DatapathId(1),
            Xid(1),
            &packet_in(&udp(0xa, 0xb), 1, true),
            &mut out,
        );
        assert_eq!(out.messages.len(), 1);
        assert!(matches!(out.messages[0].1.body, OfBody::PacketOut(_)));
        // Reply from b: a is learned, expect a flow-mod.
        let mut out = ControlOutput::new();
        platform.handle_packet_in(
            DatapathId(1),
            Xid(2),
            &packet_in(&udp(0xb, 0xa), 2, true),
            &mut out,
        );
        match &out.messages[0].1.body {
            OfBody::FlowMod(fm) => {
                assert_eq!(fm.of_match.keys.dl_dst, MacAddr::from_u64(0xa));
                assert_eq!(fm.buffer_id, Some(BufferId(9)));
            }
            other => panic!("expected flow mod, got {other:?}"),
        }
        assert_eq!(platform.packet_in_count(), 2);
    }

    #[test]
    fn cpu_charged_per_app() {
        let mut platform = ControllerPlatform::new();
        platform.register(apps::hub::program());
        platform.register(apps::l2_learning::program());
        let mut out = ControlOutput::new();
        platform.handle_packet_in(
            DatapathId(1),
            Xid(1),
            &packet_in(&udp(1, 2), 1, false),
            &mut out,
        );
        let apps_charged: Vec<&str> = out.cpu.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(apps_charged, vec!["hub", "l2_learning"]);
        assert!(out.total_cpu() > 0.0);
    }

    #[test]
    fn buffer_consumed_once_across_apps() {
        let mut platform = ControllerPlatform::new();
        platform.register(apps::hub::program());
        platform.register(apps::l2_learning::program());
        let mut out = ControlOutput::new();
        platform.handle_packet_in(
            DatapathId(1),
            Xid(1),
            &packet_in(&udp(1, 2), 1, true),
            &mut out,
        );
        let with_buffer = out
            .messages
            .iter()
            .filter(|(_, m)| match &m.body {
                OfBody::PacketOut(po) => po.buffer_id.is_some(),
                OfBody::FlowMod(fm) => fm.buffer_id.is_some(),
                _ => false,
            })
            .count();
        assert_eq!(
            with_buffer, 1,
            "only the first responder releases the buffer"
        );
    }

    #[test]
    fn unbuffered_packet_out_carries_data() {
        let mut platform = ControllerPlatform::new();
        platform.register(apps::hub::program());
        let mut out = ControlOutput::new();
        platform.handle_packet_in(
            DatapathId(1),
            Xid(1),
            &packet_in(&udp(1, 2), 1, false),
            &mut out,
        );
        match &out.messages[0].1.body {
            OfBody::PacketOut(po) => {
                assert!(po.buffer_id.is_none());
                assert!(po.data.is_some(), "amplified handling must ship the data");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_shipped_payload_is_the_frame_the_switch_sent() {
        // A real frame: an IP id, both checksums and a payload that are not
        // zero. The model's own serialisation writes zeros in all four, so
        // re-serialising the parsed packet would forward a different frame.
        let mut frame = udp(0xa, 0xb).to_bytes().to_vec();
        frame[18..20].copy_from_slice(&[0x12, 0x34]); // IP identification
        frame[24..26].copy_from_slice(&[0xbe, 0xef]); // IP header checksum
        frame[40..42].copy_from_slice(&[0xca, 0xfe]); // UDP checksum
        for (i, byte) in frame[42..].iter_mut().enumerate() {
            *byte = i as u8 | 1;
        }
        let pi = PacketIn {
            buffer_id: None,
            total_len: frame.len() as u16,
            in_port: PortNo::Physical(1),
            reason: PacketInReason::NoMatch,
            data: Bytes::from(frame.clone()),
        };
        let mut platform = ControllerPlatform::new();
        platform.register(apps::hub::program());
        platform.register(apps::l2_learning::program());
        let mut out = ControlOutput::new();
        platform.handle_packet_in(DatapathId(1), Xid(1), &pi, &mut out);
        let shipped: Vec<&Bytes> = out
            .messages
            .iter()
            .filter_map(|(_, m)| match &m.body {
                OfBody::PacketOut(po) => po.data.as_ref(),
                _ => None,
            })
            .collect();
        assert_eq!(shipped.len(), 2, "both apps flood an unbuffered packet");
        for data in shipped {
            assert_eq!(&data[..], &frame[..], "forwarded byte for byte");
        }
    }

    #[test]
    fn garbage_packet_in_ignored() {
        let mut platform = ControllerPlatform::new();
        platform.register(apps::hub::program());
        let mut out = ControlOutput::new();
        let pi = PacketIn {
            buffer_id: None,
            total_len: 3,
            in_port: PortNo::Physical(1),
            reason: PacketInReason::NoMatch,
            data: Bytes::from_static(&[1, 2, 3]),
        };
        platform.handle_packet_in(DatapathId(1), Xid(1), &pi, &mut out);
        assert!(out.messages.is_empty());
    }
}
