//! Integration tests for the live operations surface (`ops`) against the
//! async controller endpoint (`ofchannel`).
//!
//! These are the deployment-shaped checks: a blocking legacy switch
//! completing its handshake against the async listener, the status
//! endpoint naming a switch by its exact 64-bit datapath id, the Prometheus
//! and status endpoints answering while a connection swarm is live, and the
//! REST admin API steering a running FloodGuard deployment — blocklists
//! dropping a flooder's packet_ins before they reach the controller apps,
//! and threshold updates applied by the live telemetry tick.

use std::io::Write;
use std::net::{Ipv4Addr, TcpStream};
use std::time::{Duration, Instant};

use controller::apps;
use controller::platform::ControllerPlatform;
use floodguard::{DetectionConfig, FloodGuard, FloodGuardConfig};
use netsim::packet::Packet;
use netsim::switch::Switch;
use netsim::SwitchProfile;
use ofchannel::obs::ChannelObs;
use ofchannel::{
    handshake, run_swarm, ChannelConfig, ControllerConfig, ControllerEndpoint, SwarmConfig,
    SwitchEndpoint,
};
use ofproto::messages::FeaturesReply;
use ofproto::types::{DatapathId, MacAddr, PortNo};
use ops::{OpsServer, OpsState};

/// Polls `probe` until it returns true or `deadline` elapses.
fn wait_for(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

fn floodguard_controller(detection: DetectionConfig) -> FloodGuard {
    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let config = FloodGuardConfig {
        detection,
        ..FloodGuardConfig::default()
    };
    FloodGuard::new(platform, config, 99)
}

/// Detection tuned so ordinary test traffic never trips the defense: these
/// tests exercise the ops surface, not the detector.
fn quiet_detection() -> DetectionConfig {
    DetectionConfig {
        rate_capacity_pps: 1e9,
        score_threshold: 0.99,
        ..DetectionConfig::default()
    }
}

/// A legacy blocking switch — plain `std::net` plus the synchronous
/// handshake — interoperates with the async listener, and its packet_ins
/// are counted by the shared transport counters.
#[test]
fn blocking_switch_interops_with_async_listener() {
    let fg = floodguard_controller(quiet_detection());
    let controller = ControllerEndpoint::listen(
        Box::new(fg),
        "127.0.0.1:0".parse().unwrap(),
        ControllerConfig::default(),
    )
    .unwrap();
    let addr = controller.local_addr().unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    let features = FeaturesReply {
        datapath_id: DatapathId(42),
        n_buffers: 64,
        n_tables: 1,
        ports: vec![PortNo::Physical(1)],
    };
    handshake::accept(&mut stream, &features, &ChannelConfig::default()).unwrap();

    assert!(
        wait_for(Duration::from_secs(10), || {
            controller.status().connected_switches == vec![DatapathId(42)]
        }),
        "async listener never registered the blocking switch"
    );

    // One table-miss packet_in over the blocking socket reaches the
    // control plane's frame counters.
    let pkt = Packet::udp(
        MacAddr::from_u64(0xaa),
        MacAddr::from_u64(0xbb),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        5000,
        5001,
        128,
    );
    let msg = ofproto::messages::OfMessage {
        xid: ofproto::Xid(1),
        body: ofproto::messages::OfBody::PacketIn(ofproto::messages::PacketIn {
            buffer_id: None,
            total_len: 128,
            in_port: PortNo::Physical(1),
            reason: ofproto::messages::PacketInReason::NoMatch,
            data: pkt.to_bytes(),
        }),
    };
    stream.write_all(&ofproto::wire::encode(&msg)).unwrap();
    assert!(
        wait_for(Duration::from_secs(10), || {
            controller.counters().frames_in >= 1
        }),
        "packet_in from the blocking switch never arrived"
    );
    drop(stream);
}

/// `/api/status` names a switch by its exact 64-bit datapath id: one above
/// 2^53, which a detour through `f64` would round to its even neighbour.
#[test]
fn status_reports_a_dpid_above_2_pow_53_exactly() {
    const DPID: u64 = (1 << 53) + 1;
    let controller = ControllerEndpoint::listen(
        Box::new(floodguard_controller(quiet_detection())),
        "127.0.0.1:0".parse().unwrap(),
        ControllerConfig::default(),
    )
    .unwrap();
    let server =
        OpsServer::spawn(OpsState::new().with_view(controller.view()), "127.0.0.1:0").unwrap();

    let mut stream = TcpStream::connect(controller.local_addr().unwrap()).unwrap();
    let features = FeaturesReply {
        datapath_id: DatapathId(DPID),
        n_buffers: 64,
        n_tables: 1,
        ports: vec![PortNo::Physical(1)],
    };
    handshake::accept(&mut stream, &features, &ChannelConfig::default()).unwrap();
    assert!(
        wait_for(Duration::from_secs(10), || {
            controller.status().connected_switches == vec![DatapathId(DPID)]
        }),
        "async listener never registered the switch"
    );

    let status = ops::client::get(server.local_addr(), "/api/status").unwrap();
    assert_eq!(status.status, 200);
    assert!(
        status
            .body
            .contains("\"connected_switches\":[9007199254740993]"),
        "status body: {}",
        status.body
    );
    drop(stream);
}

/// Tentpole acceptance at test scale: while a swarm of switch connections
/// is live against the async controller, `/metrics` serves the published
/// transport gauges and `/api/status` reports the connected fleet; the
/// swarm itself completes with zero handshake failures.
#[test]
fn ops_surface_serves_while_swarm_is_live() {
    const SWITCHES: usize = 64;

    let hub = obs::Obs::new();
    let mut fg = floodguard_controller(quiet_detection());
    fg.attach_obs(&hub);
    let monitor = fg.monitor_handle();
    let admin = fg.admin_handle();
    let controller = ControllerEndpoint::listen(
        Box::new(fg),
        "127.0.0.1:0".parse().unwrap(),
        ControllerConfig::default(),
    )
    .unwrap();
    let addr = controller.local_addr().unwrap();
    let view = controller.view();
    let chan_obs = ChannelObs::new(&hub.registry, "controller");

    let server = OpsServer::spawn(
        OpsState::new()
            .with_hub(hub)
            .with_view(view.clone())
            .with_monitor(monitor)
            .with_admin(admin),
        "127.0.0.1:0",
    )
    .unwrap();
    let ops_addr = server.local_addr();

    let swarm = std::thread::spawn(move || {
        run_swarm(
            addr,
            &SwarmConfig {
                switches: SWITCHES,
                pps_per_switch: 5.0,
                window: Duration::from_secs(2),
                connect_stagger: Duration::from_millis(1),
                ..SwarmConfig::default()
            },
        )
        .unwrap()
    });

    assert!(
        wait_for(Duration::from_secs(60), || {
            controller.status().connected_switches.len() == SWITCHES
        }),
        "swarm never fully connected"
    );

    // Probe the ops surface while every connection is up.
    chan_obs.publish(&view.counters());
    let metrics = ops::client::get(ops_addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("# TYPE controller_frames_in gauge"));
    let status = ops::client::get(ops_addr, "/api/status").unwrap();
    assert_eq!(status.status, 200);
    assert!(
        status.body.contains("\"connected_switches\""),
        "status body: {}",
        status.body
    );

    let report = swarm.join().unwrap();
    assert_eq!(report.connected, SWITCHES);
    assert_eq!(report.handshake_failures, 0, "handshake failures in swarm");
    assert!(report.packet_ins_sent > 0);
}

/// The REST admin API steers a live deployment end to end: blocking an IP
/// drops that source's packet_ins before the l2-learning app sees them (no
/// flow ever installs and the drop counter climbs), unblocking restores
/// forwarding, and a threshold PUT is applied by the controller's own
/// telemetry tick with no manual pumping.
#[test]
fn rest_admin_steers_live_floodguard() {
    let fg = floodguard_controller(quiet_detection());
    let admin = fg.admin_handle();
    let monitor = fg.monitor_handle();

    let controller = ControllerEndpoint::listen(
        Box::new(fg),
        "127.0.0.1:0".parse().unwrap(),
        ControllerConfig::default(),
    )
    .unwrap();
    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1, 2]);
    let endpoint = SwitchEndpoint::spawn(
        switch,
        Vec::new(),
        controller.local_addr().unwrap(),
        ChannelConfig::default(),
    )
    .unwrap();
    let server = OpsServer::spawn(
        OpsState::new()
            .with_view(controller.view())
            .with_monitor(monitor)
            .with_admin(admin.clone()),
        "127.0.0.1:0",
    )
    .unwrap();
    let ops_addr = server.local_addr();

    assert!(
        wait_for(Duration::from_secs(10), || {
            controller.status().connected_switches == vec![DatapathId(1)]
        }),
        "controller never connected to the switch"
    );

    // Block host A's address over HTTP, then let it talk: its packet_ins
    // are dropped before l2-learning, so no flow ever installs.
    let blocked = ops::client::request(ops_addr, "POST", "/api/admin/block?ip=10.0.0.1").unwrap();
    assert_eq!(blocked.status, 200);
    assert!(blocked.body.contains("\"changed\":true"));

    let host_a = MacAddr::from_u64(0xaa);
    let host_b = MacAddr::from_u64(0xbb);
    let a_to_b = Packet::udp(
        host_a,
        host_b,
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        5000,
        5001,
        200,
    );
    let b_to_a = Packet::udp(
        host_b,
        host_a,
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 1),
        5001,
        5000,
        200,
    );

    assert!(
        wait_for(Duration::from_secs(10), || {
            endpoint.inject(1, a_to_b);
            admin.snapshot().dropped_by_ip >= 1
        }),
        "blocked source's packet_ins were not dropped"
    );
    assert_eq!(
        endpoint.telemetry().flow_count,
        Some(0),
        "a flow installed despite the source being blocked"
    );
    let listing = ops::client::get(ops_addr, "/api/admin").unwrap();
    assert!(listing.body.contains("\"10.0.0.1\""));

    // Unblock over HTTP: the same conversation now learns both hosts and
    // installs a flow, proving the drop really was the blocklist.
    let unblocked =
        ops::client::request(ops_addr, "POST", "/api/admin/unblock?ip=10.0.0.1").unwrap();
    assert!(unblocked.body.contains("\"changed\":true"));
    assert!(
        wait_for(Duration::from_secs(10), || {
            endpoint.inject(1, a_to_b);
            endpoint.inject(2, b_to_a);
            endpoint.telemetry().flow_count >= Some(1)
        }),
        "no flow installed after unblocking"
    );

    // A threshold PUT stages values; the controller's own telemetry tick
    // (no manual pumping here) applies them to the live detector.
    let put = ops::client::request(
        ops_addr,
        "PUT",
        "/api/admin/thresholds?score_threshold=0.42&rate_capacity_pps=1234",
    )
    .unwrap();
    assert_eq!(put.status, 200);
    assert!(
        wait_for(Duration::from_secs(10), || {
            let t = admin.snapshot().thresholds;
            t.score_threshold == 0.42 && t.rate_capacity_pps == 1234.0
        }),
        "staged thresholds were never applied by the live telemetry tick"
    );
    let over_http = ops::client::get(ops_addr, "/api/admin/thresholds").unwrap();
    assert!(over_http.body.contains("0.42"));

    drop(controller);
    drop(endpoint);
}
