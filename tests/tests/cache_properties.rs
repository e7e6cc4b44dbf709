//! Property tests on the data plane cache: FIFO order within a protocol
//! class, round-robin interleaving across classes, conservation of packets,
//! and configuration serialization.

use floodguard::cache::{new_handle, DataPlaneCache, QueueClass};
use floodguard::{CacheConfig, FloodGuardConfig};
use netsim::iface::{DataPlaneDevice, DeviceOutput};
use netsim::packet::{Packet, Transport};
use ofproto::messages::OfBody;
use ofproto::types::MacAddr;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Builds a tagged packet of the given protocol class with a payload marker
/// in the transport source port.
fn packet(class: u8, marker: u16) -> Packet {
    let src = MacAddr::from_u64(u64::from(marker) + 1);
    let dst = MacAddr::from_u64(0xffee);
    let sip = Ipv4Addr::new(9, 9, 9, 9);
    let dip = Ipv4Addr::new(8, 8, 8, 8);
    let mut pkt = match class % 3 {
        0 => Packet::udp(src, dst, sip, dip, marker, 7, 64),
        1 => Packet::tcp(src, dst, sip, dip, marker, 80, Transport::TCP_SYN, 64),
        _ => Packet::icmp(src, dst, sip, dip, 8, 64),
    };
    pkt.set_tos(1); // valid INPORT tag
    pkt
}

fn drain(cache: &mut DataPlaneCache, until: f64) -> Vec<Packet> {
    let mut out_packets = Vec::new();
    let mut t = 1.0;
    while t < until {
        let mut out = DeviceOutput::new();
        cache.on_tick(t, &mut out);
        for msg in out.to_controller {
            if let OfBody::PacketIn(pi) = msg.body {
                out_packets.push(Packet::parse(&pi.data).expect("emitted packets parse"));
            }
        }
        t += 1e-3;
    }
    out_packets
}

fn marker_of(pkt: &Packet) -> Option<u16> {
    match pkt.payload {
        netsim::packet::Payload::Ipv4 {
            transport: Transport::Tcp { src_port, .. } | Transport::Udp { src_port, .. },
            ..
        } => Some(src_port),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every accepted packet is eventually emitted exactly once (no loss, no
    /// duplication) when queues never overflow.
    #[test]
    fn conservation_without_overflow(classes in proptest::collection::vec(0u8..3, 1..60)) {
        let config = CacheConfig {
            queue_capacity: 1024,
            base_rate_pps: 10_000.0,
            max_rate_pps: 10_000.0,
            processing_delay: 0.0,
            ..CacheConfig::default()
        };
        let handle = new_handle(&config);
        handle.lock().control.intake_enabled = true;
        let mut cache = DataPlaneCache::new(config, handle.clone());
        let mut out = DeviceOutput::new();
        for (i, &class) in classes.iter().enumerate() {
            cache.on_packet(packet(class, i as u16 + 1), 0.0, &mut out);
        }
        let emitted = drain(&mut cache, 1.2);
        prop_assert_eq!(emitted.len(), classes.len());
        prop_assert_eq!(cache.queued(), 0);
        let stats = handle.lock().stats;
        prop_assert_eq!(stats.received, classes.len() as u64);
        prop_assert_eq!(stats.emitted, classes.len() as u64);
        prop_assert_eq!(stats.dropped, 0);
    }

    /// Within one protocol class, emission preserves arrival order (FIFO).
    #[test]
    fn fifo_within_class(count in 2usize..40, class in 0u8..2) {
        let config = CacheConfig {
            base_rate_pps: 10_000.0,
            max_rate_pps: 10_000.0,
            processing_delay: 0.0,
            ..CacheConfig::default()
        };
        let handle = new_handle(&config);
        handle.lock().control.intake_enabled = true;
        let mut cache = DataPlaneCache::new(config, handle);
        let mut out = DeviceOutput::new();
        for i in 0..count {
            cache.on_packet(packet(class, i as u16 + 1), 0.0, &mut out);
        }
        let emitted = drain(&mut cache, 1.2);
        let markers: Vec<u16> = emitted.iter().filter_map(marker_of).collect();
        let mut sorted = markers.clone();
        sorted.sort_unstable();
        prop_assert_eq!(markers, sorted, "FIFO order preserved");
    }

    /// The per-class received counters always sum to the received total.
    #[test]
    fn class_counters_consistent(classes in proptest::collection::vec(0u8..3, 0..80)) {
        let config = CacheConfig {
            queue_capacity: 16, // force some overflow too
            ..CacheConfig::default()
        };
        let handle = new_handle(&config);
        handle.lock().control.intake_enabled = true;
        let mut cache = DataPlaneCache::new(config, handle.clone());
        let mut out = DeviceOutput::new();
        for (i, &class) in classes.iter().enumerate() {
            cache.on_packet(packet(class, i as u16 + 1), 0.0, &mut out);
        }
        let stats = handle.lock().stats;
        prop_assert_eq!(stats.per_class.iter().sum::<u64>(), stats.received);
        prop_assert!(stats.queued <= 3 * 16, "bounded by per-class capacity");
    }
}

#[test]
fn round_robin_alternates_under_contention() {
    // Fill TCP and UDP equally; emissions must alternate classes.
    let config = CacheConfig {
        base_rate_pps: 10_000.0,
        max_rate_pps: 10_000.0,
        processing_delay: 0.0,
        ..CacheConfig::default()
    };
    let handle = new_handle(&config);
    handle.lock().control.intake_enabled = true;
    let mut cache = DataPlaneCache::new(config, handle);
    let mut out = DeviceOutput::new();
    for i in 0..10u16 {
        cache.on_packet(packet(0, 100 + i), 0.0, &mut out); // udp
        cache.on_packet(packet(1, 200 + i), 0.0, &mut out); // tcp
    }
    let emitted = drain(&mut cache, 1.2);
    assert_eq!(emitted.len(), 20);
    let classes: Vec<QueueClass> = emitted.iter().map(QueueClass::of).collect();
    for pair in classes.chunks(2) {
        assert_ne!(pair[0], pair[1], "strict alternation: {classes:?}");
    }
}

#[test]
fn config_debug_exposes_all_knobs() {
    // Configurations are plain data: every tuning knob is visible in the
    // Debug form.
    let config = FloodGuardConfig::default();
    let shown = format!("{config:?}");
    for knob in [
        "base_rate_pps",
        "score_threshold",
        "processing_delay",
        "rule_placement",
        "update_strategy",
    ] {
        assert!(shown.contains(knob), "missing {knob} in {shown}");
    }
}
