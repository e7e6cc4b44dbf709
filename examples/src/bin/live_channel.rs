//! FloodGuard's defense loop over live TCP sockets.
//!
//! Everything else in the examples runs inside the discrete-event engine;
//! this binary wires the same components over real loopback connections
//! using the `ofchannel` transport:
//!
//! * a [`floodguard::FloodGuard`]-wrapped l2-learning controller listening
//!   on a socket, with echo keepalive, the way POX or ONOS listen for
//!   Mininet's switches;
//! * a [`netsim::switch::Switch`] that dials it, with FloodGuard's data
//!   plane cache attached on port 99 dialing a session of its own; both
//!   redial with backoff when a session ends.
//!
//! The run has three acts: benign traffic teaching the controller, a
//! table-miss flood that trips the detector and migrates the flood into
//! the cache, and a cooldown that closes both sessions and shows the
//! transport counters — frames, backpressure rejections, queue high-water
//! — after the storm. It exits non-zero when the sessions do not come up
//! within 10 s, nothing was re-raised from the cache, or the switch side
//! sent a different number of frames than the controller side received.
//!
//! Run with: `cargo run -p floodguard-examples --release --bin live_channel`

use std::net::Ipv4Addr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use controller::apps;
use controller::platform::ControllerPlatform;
use floodguard::{DetectionConfig, FloodGuard, FloodGuardConfig};
use netsim::packet::Packet;
use netsim::switch::Switch;
use netsim::{DeviceId, Fault, SwitchId, SwitchProfile};
use ofchannel::{ChannelConfig, ControllerConfig, ControllerEndpoint, SwitchEndpoint};
use ofproto::types::{DatapathId, MacAddr};

const CACHE_PORT: u16 = 99;

fn flow(seq: u64) -> Packet {
    Packet::udp(
        MacAddr::from_u64(0x6000_0000 + seq),
        MacAddr::from_u64(0x7000_0000 + (seq % 11)),
        Ipv4Addr::from(0x0a10_0000 + seq as u32),
        Ipv4Addr::new(10, 200, 0, 1),
        2000 + (seq % 500) as u16,
        53,
        220,
    )
}

fn main() -> ExitCode {
    println!("FloodGuard over live TCP (loopback, ephemeral ports)\n");

    // Live mode has no engine feeding switch-internal telemetry, so the
    // detector must trigger on the packet_in rate the controller sees.
    // With these numbers the score crosses the threshold at 1000 pps:
    // benign chatter stays far below, the flood far above.
    let detection = DetectionConfig {
        rate_capacity_pps: 2000.0,
        score_threshold: 0.5,
        rate_weight: 1.0,
        buffer_weight: 0.0,
        datapath_weight: 0.0,
        controller_weight: 0.0,
        ..DetectionConfig::default()
    };
    let config = FloodGuardConfig {
        detection,
        ..FloodGuardConfig::default()
    };

    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let mut floodguard = FloodGuard::new(platform, config, CACHE_PORT);
    let monitor = floodguard.monitor_handle();
    let cache_handle = floodguard.cache_handle();
    let cache = floodguard.build_cache();

    let controller = ControllerEndpoint::listen(
        Box::new(floodguard),
        "127.0.0.1:0".parse().expect("loopback address"),
        ControllerConfig {
            telemetry_interval: Duration::from_millis(20),
            ..ControllerConfig::default()
        },
    )
    .expect("bind the controller listener");
    let controller_addr = controller.local_addr().expect("a listening endpoint");
    println!("controller listening on  {controller_addr}\n");

    let switch = Switch::new(
        DatapathId(1),
        SwitchProfile::software(),
        vec![1, 2, CACHE_PORT],
    );
    let endpoint = SwitchEndpoint::spawn(
        switch,
        vec![(CACHE_PORT, Box::new(cache))],
        controller_addr,
        ChannelConfig::default(),
    )
    .expect("start the switch endpoint");

    let deadline = Instant::now() + Duration::from_secs(10);
    while {
        let s = controller.status();
        s.connected_switches.len() != 1 || s.connected_devices.len() != 1
    } {
        if Instant::now() >= deadline {
            eprintln!(
                "sessions not up within 10 s: {:?}, switch side {:?}",
                controller.status(),
                endpoint.counters()
            );
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("act 1: sessions up — HELLO/FEATURES handshakes complete");
    println!(
        "  connected switches: {:?}",
        controller.status().connected_switches
    );
    println!(
        "  connected devices:  {:?}\n",
        controller.status().connected_devices
    );

    // Benign warm-up: two hosts converse, l2_learning installs a flow.
    let a = MacAddr::from_u64(0xaa);
    let b = MacAddr::from_u64(0xbb);
    for _ in 0..20 {
        endpoint.inject(
            1,
            Packet::udp(
                a,
                b,
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                40_000,
                40_001,
                300,
            ),
        );
        endpoint.inject(
            2,
            Packet::udp(
                b,
                a,
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(10, 0, 0, 1),
                40_001,
                40_000,
                300,
            ),
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "act 2: benign traffic — flows installed on the live switch: {}",
        endpoint
            .telemetry()
            .flow_count
            .expect("a switch endpoint sees its own table")
    );
    println!("  floodguard state: {:?}\n", monitor.lock().state);

    // The flood: distinct flows, every packet a table miss.
    println!("act 3: table-miss flood (distinct flows at ~10k pps)");
    let mut seq = 0u64;
    for _round in 0..400 {
        for _ in 0..50 {
            endpoint.inject(1, flow(seq));
            seq += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
        let snap = monitor.lock();
        if snap.stats.reraised >= 20 {
            break;
        }
    }

    let snap = monitor.lock().clone();
    println!("  state:            {:?}", snap.state);
    println!("  attacks detected: {}", snap.stats.attacks_detected);
    println!("  proactive rules:  {}", snap.stats.proactive_installed);
    println!("  re-raised from cache: {}", snap.stats.reraised);
    for t in &snap.transitions {
        println!(
            "    transition {:?} -> {:?} at t={:.2}s",
            t.from, t.to, t.at
        );
    }
    {
        let cache = cache_handle.lock();
        println!(
            "  cache: received {} emitted {} dropped {} queued {}",
            cache.stats.received, cache.stats.emitted, cache.stats.dropped, cache.stats.queued
        );
    }

    // Both sides quiet before their counters are read: a frame is counted
    // out once its batch's write has returned, so a live snapshot can
    // trail the peer's count of it. The switch's session is cut and its
    // cache crashed for good, so neither dials again; once the controller
    // holds neither session it has read both to their end.
    endpoint.inject_fault(Fault::ControlPartition { sw: SwitchId(0) });
    endpoint.inject_fault(Fault::DeviceCrash {
        dev: DeviceId(0),
        restart_after: f64::INFINITY,
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while {
        let s = controller.status();
        !s.connected_switches.is_empty() || !s.connected_devices.is_empty()
    } {
        if Instant::now() >= deadline {
            eprintln!("sessions still up 10 s after they were cut");
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let switch_side = endpoint.counters();
    let controller_side = controller.counters();
    println!("\ntransport counters after the storm, both sessions closed:");
    println!(
        "  switch side:     {} frames out ({} bytes), {} in; backpressure rejections {}, queue hwm {}",
        switch_side.frames_out,
        switch_side.bytes_out,
        switch_side.frames_in,
        switch_side.sends_blocked,
        switch_side.send_queue_hwm
    );
    println!(
        "  controller side: {} frames in ({} bytes), {} out; reconnects {}, decode errors {}",
        controller_side.frames_in,
        controller_side.bytes_in,
        controller_side.frames_out,
        controller_side.reconnects,
        controller_side.decode_errors
    );

    drop(controller);
    let switch = endpoint.shutdown();
    println!(
        "\nswitch final: {} misses, {} packet_ins, {} flows installed",
        switch.stats.misses,
        switch.stats.packet_ins,
        switch.table.len()
    );
    if snap.stats.reraised == 0 {
        eprintln!("nothing was re-raised from the cache");
        return ExitCode::FAILURE;
    }
    if switch_side.frames_out != controller_side.frames_in {
        eprintln!(
            "the switch side sent {} frames, the controller side received {}",
            switch_side.frames_out, controller_side.frames_in
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
