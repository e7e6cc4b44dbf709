//! Substrate-level integration: multi-switch forwarding, byte-level wire
//! interoperability of everything the control plane emits, and codec/flow
//! table interplay under realistic message streams.

use integration_tests::{ip, mac};
use netsim::engine::Simulation;
use netsim::host::{BulkSender, UdpFlood};
use netsim::iface::{ControlOutput, ControlPlane};
use netsim::packet::Packet;
use netsim::profile::SwitchProfile;
use ofproto::actions::Action;
use ofproto::flow_match::OfMatch;
use ofproto::messages::{OfBody, OfMessage, PacketOut};
use ofproto::types::{DatapathId, PortNo, Xid};
use ofproto::wire::{decode, encode};

#[test]
fn two_switch_topology_forwards_end_to_end() {
    // h1 - sw0 ===== sw1 - h2, preinstalled paths in both directions.
    let mut sim = Simulation::new(11);
    let sw0 = sim.add_switch(SwitchProfile::software(), vec![1, 10]);
    let sw1 = sim.add_switch(SwitchProfile::software(), vec![2, 10]);
    sim.connect_switches(sw0, 10, sw1, 10);
    let h1 = sim.add_host(sw0, 1, mac(0xa), ip(1));
    let h2 = sim.add_host(sw1, 2, mac(0xb), ip(2));
    // sw0: toward h2 via trunk, toward h1 locally.
    sim.switch_mut(sw0)
        .add_rule(
            OfMatch::any().with_dl_dst(mac(0xb)),
            vec![Action::Output(PortNo::Physical(10))],
            10,
            0.0,
        )
        .unwrap();
    sim.switch_mut(sw0)
        .add_rule(
            OfMatch::any().with_dl_dst(mac(0xa)),
            vec![Action::Output(PortNo::Physical(1))],
            10,
            0.0,
        )
        .unwrap();
    // sw1: mirror image.
    sim.switch_mut(sw1)
        .add_rule(
            OfMatch::any().with_dl_dst(mac(0xa)),
            vec![Action::Output(PortNo::Physical(10))],
            10,
            0.0,
        )
        .unwrap();
    sim.switch_mut(sw1)
        .add_rule(
            OfMatch::any().with_dl_dst(mac(0xb)),
            vec![Action::Output(PortNo::Physical(2))],
            10,
            0.0,
        )
        .unwrap();
    sim.host_mut(h1).add_source(Box::new(BulkSender::new(
        mac(0xa),
        ip(1),
        mac(0xb),
        ip(2),
        1,
        4,
        10,
        1500,
        0.0,
    )));
    sim.host_mut(h2).meter.watch(0.3, 1.0);
    sim.run_until(1.0);
    let bps = sim.host(h2).meter.bps_in(0.3, 1.0);
    assert!(bps > 5e8, "cross-switch goodput {bps:e}");
    // Both datapaths carried the traffic.
    assert!(sim.switch(sw0).stats.forwarded_packets > 100);
    assert!(sim.switch(sw1).stats.forwarded_packets > 100);
}

/// A control plane that round-trips every outgoing message through the
/// binary wire codec before sending — proving that everything the real
/// controller path produces is wire-expressible.
struct WireCheckingControl {
    inner: controller::ControllerPlatform,
    checked: u64,
}

impl ControlPlane for WireCheckingControl {
    fn on_switch_connect(
        &mut self,
        dpid: DatapathId,
        features: ofproto::messages::FeaturesReply,
        now: f64,
        out: &mut ControlOutput,
    ) {
        self.inner.on_switch_connect(dpid, features, now, out);
    }

    fn on_message(&mut self, dpid: DatapathId, msg: OfMessage, now: f64, out: &mut ControlOutput) {
        // Inbound: re-encode and decode; must be identical.
        let bytes = encode(&msg);
        assert_eq!(decode(&bytes).expect("inbound decode"), msg);
        self.checked += 1;
        self.inner.on_message(dpid, msg, now, out);
        // Outbound: every produced message must round-trip too.
        for (_, outgoing) in &out.messages {
            let bytes = encode(outgoing);
            assert_eq!(decode(&bytes).expect("outbound decode"), *outgoing);
            self.checked += 1;
        }
    }
}

#[test]
fn every_message_on_the_control_channel_is_wire_clean() {
    let mut platform = controller::ControllerPlatform::new();
    platform.register(controller::apps::l2_learning::program());
    platform.register(controller::apps::of_firewall::program());
    let control = WireCheckingControl {
        inner: platform,
        checked: 0,
    };
    let mut sim = Simulation::new(5);
    let sw = sim.add_switch(SwitchProfile::software(), vec![1, 2, 3]);
    let h1 = sim.add_host(sw, 1, mac(0xa), ip(1));
    let _h2 = sim.add_host(sw, 2, mac(0xb), ip(2));
    let h3 = sim.add_host(sw, 3, mac(0xc), ip(3));
    sim.set_control_plane(Box::new(control));
    sim.host_mut(h1).add_source(Box::new(BulkSender::new(
        mac(0xa),
        ip(1),
        mac(0xb),
        ip(2),
        1,
        4,
        10,
        1500,
        0.0,
    )));
    sim.host_mut(h3)
        .add_source(Box::new(UdpFlood::new(mac(0xc), 100.0, 0.2, 1.5, 64)));
    sim.run_until(2.0);
    // If any message failed to round-trip the asserts inside the control
    // plane would have fired; the sim ran meaningfully:
    assert!(sim.ctrl_stats.processed > 50);
}

#[test]
fn packet_out_bytes_round_trip_through_switch() {
    // A raw-data packet_out built from codec bytes forwards correctly.
    let mut sw = netsim::Switch::new(DatapathId(1), SwitchProfile::software(), vec![1, 2]);
    let pkt = Packet::udp(mac(1), mac(2), ip(1), ip(2), 5, 6, 200);
    let msg = OfMessage::new(
        Xid(1),
        OfBody::PacketOut(PacketOut {
            buffer_id: None,
            in_port: PortNo::Physical(1),
            actions: vec![Action::SetNwTos(9), Action::Output(PortNo::Physical(2))],
            data: Some(pkt.to_bytes()),
        }),
    );
    // Through the wire and into the switch.
    let decoded = decode(&encode(&msg)).unwrap();
    let (forwards, _) = sw.handle_message(decoded, 0.0);
    assert_eq!(forwards.len(), 1);
    let (port, out_pkt) = &forwards[0];
    assert_eq!(*port, 2);
    assert_eq!(
        out_pkt.tos(),
        Some(9),
        "action applied after byte round-trip"
    );
    assert_eq!(out_pkt.dst_mac, mac(2));
}

#[test]
fn flood_loops_are_impossible_without_cycles() {
    // Flood on a two-switch line topology must not ping-pong forever:
    // each switch floods out every port except the ingress.
    let mut sim = Simulation::new(3);
    let sw0 = sim.add_switch(SwitchProfile::software(), vec![1, 10]);
    let sw1 = sim.add_switch(SwitchProfile::software(), vec![2, 10]);
    sim.connect_switches(sw0, 10, sw1, 10);
    let _h1 = sim.add_host(sw0, 1, mac(0xa), ip(1));
    let h2 = sim.add_host(sw1, 2, mac(0xb), ip(2));
    for sw in [sw0, sw1] {
        sim.switch_mut(sw)
            .add_rule(OfMatch::any(), vec![Action::Output(PortNo::Flood)], 1, 0.0)
            .unwrap();
    }
    // One packet from h1: it must reach h2 exactly once.
    let mut sim2 = sim;
    sim2.host_mut(_h1)
        .add_source(Box::new(UdpFlood::new(mac(0xa), 1.0, 0.0, 0.5, 64)));
    sim2.run_until(2.0);
    assert_eq!(sim2.host(h2).received_packets, 1, "no flood loop");
}
