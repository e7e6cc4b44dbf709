//! Integration tests for the live OpenFlow transport (`ofchannel`).
//!
//! Everything here runs over real loopback TCP with ephemeral ports, the
//! controller listening and every switch and cache dialing it: the
//! handshake, packet_in → flow_mod roundtrips through the l2-learning
//! controller, survival of a mid-stream disconnect via a redial,
//! bounded-send-queue backpressure under flood, and the full FloodGuard
//! defense loop (migration → cache → re-raised packet_in).
//!
//! The tests are deterministic: they poll observable counters with generous
//! deadlines instead of sleeping fixed amounts, so they pass on slow CI
//! machines without being tuned to them.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use controller::apps;
use controller::platform::ControllerPlatform;
use floodguard::{CacheConfig, DetectionConfig, FloodGuard, FloodGuardConfig, State};
use netsim::iface::{ControlOutput, ControlPlane, NullControlPlane};
use netsim::packet::Packet;
use netsim::switch::Switch;
use netsim::{Fault, SwitchId, SwitchProfile};
use ofchannel::{handshake, ChannelConfig, ControllerConfig, ControllerEndpoint, SwitchEndpoint};
use ofproto::actions::Action;
use ofproto::flow_match::OfMatch;
use ofproto::flow_mod::{FlowMod, FlowModCommand};
use ofproto::messages::{FeaturesReply, OfBody, OfMessage, StatsReply};
use ofproto::types::{DatapathId, MacAddr, PortNo, Xid};

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

/// A controller endpoint serving `control` on an ephemeral loopback port.
fn listen(control: Box<dyn ControlPlane>, config: ControllerConfig) -> ControllerEndpoint {
    ControllerEndpoint::listen(control, "127.0.0.1:0".parse().unwrap(), config).unwrap()
}

/// Where switches and caches dial `controller`.
fn addr(controller: &ControllerEndpoint) -> SocketAddr {
    controller
        .local_addr()
        .expect("a listening endpoint has an address")
}

fn udp_flow(seq: u64, wire_len: usize) -> Packet {
    Packet::udp(
        MacAddr::from_u64(0x10_0000 + seq),
        MacAddr::from_u64(0x20_0000 + (seq % 7)),
        Ipv4Addr::from(0x0a00_0000 + seq as u32),
        Ipv4Addr::new(10, 99, 0, 1),
        1024 + (seq % 1000) as u16,
        53,
        wire_len,
    )
}

/// Real-TCP handshake plus packet_in → flow_mod roundtrips: the l2-learning
/// app learns two hosts and installs a flow on the live switch.
#[test]
fn l2_learning_installs_flows_over_tcp() {
    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let controller = listen(Box::new(platform), ControllerConfig::default());

    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1, 2]);
    let endpoint = SwitchEndpoint::spawn(
        switch,
        Vec::new(),
        addr(&controller),
        ChannelConfig::default(),
    )
    .unwrap();

    assert!(
        wait_for(Duration::from_secs(10), || {
            controller.status().connected_switches == vec![DatapathId(1)]
        }),
        "controller never completed the switch handshake"
    );

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

    // First packet teaches the controller where A lives (and floods);
    // the reply toward the now-known A triggers a flow_mod install. Keep
    // re-offering the pair until the rule lands — each roundtrip crosses
    // the wire twice.
    assert!(
        wait_for(Duration::from_secs(10), || {
            endpoint.inject(1, a_to_b);
            endpoint.inject(2, b_to_a);
            endpoint.telemetry().flow_count >= Some(1)
        }),
        "l2_learning never installed a flow over the live channel"
    );

    let switch_side = endpoint.counters();
    let controller_side = controller.counters();
    assert!(switch_side.frames_out >= 2, "packet_ins were sent");
    assert!(switch_side.frames_in >= 1, "controller replies arrived");
    assert!(controller_side.frames_in >= 2);
    assert!(controller_side.frames_out >= 1);

    let switch = endpoint.shutdown();
    assert!(switch.stats.misses >= 2);
    drop(controller);
}

/// A switch with no packet buffer sends a packet_in as large as a frame
/// can carry; the l2-learning controller's flood of it would be 6 bytes
/// longer than any length field can say. The controller refuses and counts
/// that one packet_out instead of writing a frame whose length wrapped, and
/// the session carries on: the next exchange installs a flow, and neither
/// side sees a decode error or a reconnect.
#[test]
fn a_packet_out_too_long_for_one_frame_is_refused_and_the_session_stays_up() {
    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let controller = listen(Box::new(platform), ControllerConfig::default());
    let mut profile = SwitchProfile::software();
    profile.buffer_slots = 0;
    let switch = Switch::new(DatapathId(1), profile, vec![1, 2]);
    let endpoint = SwitchEndpoint::spawn(
        switch,
        Vec::new(),
        addr(&controller),
        ChannelConfig::default(),
    )
    .unwrap();
    assert!(
        wait_for(Duration::from_secs(10), || {
            controller.status().connected_switches == vec![DatapathId(1)]
        }),
        "controller never completed the switch handshake"
    );

    let host_a = MacAddr::from_u64(0xaa);
    let host_b = MacAddr::from_u64(0xbb);
    let (ip_a, ip_b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    // The packet_in's 18 header bytes and this packet fill 65,535 bytes.
    let largest = Packet::udp(host_a, host_b, ip_a, ip_b, 5000, 5001, 65_517);
    endpoint.inject(1, largest);
    assert!(
        wait_for(Duration::from_secs(10), || {
            controller.counters().sends_oversize == 1
        }),
        "the oversize flood was not refused"
    );

    let b_to_a = Packet::udp(host_b, host_a, ip_b, ip_a, 5001, 5000, 200);
    assert!(
        wait_for(Duration::from_secs(10), || {
            endpoint.inject(2, b_to_a);
            endpoint.telemetry().flow_count >= Some(1)
        }),
        "the session did not carry on after the refusal"
    );
    let (switch_side, controller_side) = (endpoint.counters(), controller.counters());
    assert_eq!(controller_side.sends_oversize, 1);
    assert_eq!((switch_side.decode_errors, switch_side.reconnects), (0, 0));
    assert_eq!(controller_side.decode_errors, 0);
    assert_eq!(controller.status().connected_switches, vec![DatapathId(1)]);
    drop(endpoint.shutdown());
    drop(controller);
}

/// A controller whose switch dies mid-stream keeps serving: the switch
/// dials again, completes a second handshake, and the reconnect counter
/// records it.
#[test]
fn controller_survives_mid_stream_disconnect() {
    let controller = listen(Box::new(NullControlPlane), ControllerConfig::default());
    let addr = addr(&controller);
    let features = FeaturesReply {
        datapath_id: DatapathId(7),
        n_buffers: 64,
        n_tables: 1,
        ports: vec![PortNo::Physical(1)],
    };

    // A hand-rolled switch: completes one handshake, drops the session,
    // then dials and holds a second one.
    let switch = std::thread::spawn(move || {
        let cfg = ChannelConfig::default();
        let mut first = TcpStream::connect(addr).unwrap();
        handshake::accept(&mut first, &features, &cfg).unwrap();
        drop(first); // mid-stream disconnect

        let mut second = TcpStream::connect(addr).unwrap();
        handshake::accept(&mut second, &features, &cfg).unwrap();
        // Hold the session open until the controller shuts down.
        let mut sink = [0u8; 512];
        while matches!(second.read(&mut sink), Ok(n) if n > 0) {}
    });

    assert!(
        wait_for(Duration::from_secs(10), || {
            let snap = controller.counters();
            snap.reconnects >= 1 && controller.status().connected_switches == vec![DatapathId(7)]
        }),
        "controller did not re-establish after the disconnect"
    );

    drop(controller);
    switch.join().unwrap();
}

/// A flood against a controller that stops reading fills the bounded send
/// queue: the high-water mark reaches the cap and sends are rejected with
/// backpressure instead of buffering without limit.
#[test]
fn flood_fills_bounded_send_queue() {
    const QUEUE_CAP: usize = 8;
    // A fake controller that handshakes and then never reads again: the
    // kernel buffers fill, the writer blocks, the queue overflows.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1, 2]);
    let cfg = ChannelConfig::default().with_send_queue_cap(QUEUE_CAP);
    let endpoint =
        SwitchEndpoint::spawn(switch, Vec::new(), listener.local_addr().unwrap(), cfg).unwrap();
    let (mut stream, _) = listener.accept().unwrap();
    let (features, _residue) = handshake::initiate(&mut stream, &ChannelConfig::default()).unwrap();
    assert_eq!(features.datapath_id, DatapathId(1));

    // Large distinct-flow packets: every one is a miss, and once the 512
    // buffer slots are gone each packet_in carries the whole packet
    // (the amplification the paper describes), saturating the socket fast.
    let mut seq = 0u64;
    assert!(
        wait_for(Duration::from_secs(20), || {
            for _ in 0..500 {
                endpoint.inject(1, udp_flow(seq, 1400));
                seq += 1;
            }
            let snap = endpoint.counters();
            snap.sends_blocked >= 1 && snap.send_queue_hwm >= QUEUE_CAP as u64
        }),
        "bounded send queue never reported backpressure under flood"
    );

    drop(stream);
    drop(endpoint);
}

/// Answers every request with a barrier reply of the same xid and records
/// the `now` each request was handed over with; the handler of xid 3 waits,
/// for up to two seconds, for the peer to have read the reply to xid 2.
/// Clones share their state.
#[derive(Clone, Default)]
struct Lockstep {
    stamps: Arc<Mutex<Vec<(u32, f64)>>>,
    /// Highest xid whose reply the peer has read off its socket.
    read_by_peer: Arc<AtomicU32>,
    /// Set when request 3 gave up waiting for reply 2 to be read.
    gave_up: Arc<AtomicBool>,
}

impl ControlPlane for Lockstep {
    fn on_switch_connect(
        &mut self,
        _dpid: DatapathId,
        _features: FeaturesReply,
        _now: f64,
        _out: &mut ControlOutput,
    ) {
    }

    fn on_message(&mut self, dpid: DatapathId, msg: OfMessage, now: f64, out: &mut ControlOutput) {
        if msg.xid.0 == 3 {
            let read = wait_for(Duration::from_secs(2), || {
                self.read_by_peer.load(Ordering::SeqCst) >= 2
            });
            self.gave_up.store(!read, Ordering::SeqCst);
        }
        self.stamps.lock().unwrap().push((msg.xid.0, now));
        out.send(dpid, OfMessage::new(msg.xid, OfBody::BarrierReply));
    }
}

/// A drain's replies leave when it ends, before the next drain is handled:
/// two requests written together are handled in one drain (both stamped
/// with its start), and the handler of a third, written once both were
/// handled, sees the peer read the reply to the second.
#[test]
fn replies_leave_when_the_drain_they_were_produced_in_ends() {
    let flags = Lockstep::default();
    let controller = ControllerEndpoint::listen(
        Box::new(flags.clone()),
        "127.0.0.1:0".parse().unwrap(),
        ControllerConfig::default(),
    )
    .unwrap();

    let mut stream = TcpStream::connect(controller.local_addr().unwrap()).unwrap();
    stream.set_nodelay(true).unwrap();
    let features = FeaturesReply {
        datapath_id: DatapathId(1),
        n_buffers: 0,
        n_tables: 1,
        ports: vec![PortNo::Physical(1)],
    };
    let mut buf = handshake::accept(&mut stream, &features, &ChannelConfig::default()).unwrap();
    let request =
        |xid: u32| ofproto::wire::encode(&OfMessage::new(Xid(xid), OfBody::BarrierRequest));

    let mut both = request(1).to_vec();
    both.extend_from_slice(&request(2));
    stream.write_all(&both).unwrap();
    assert!(wait_for(Duration::from_secs(10), || {
        flags.stamps.lock().unwrap().len() >= 2
    }));
    stream.write_all(&request(3)).unwrap();

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut chunk = [0u8; 4096];
    let mut replies = Vec::new();
    while replies.last() != Some(&3) {
        let n = stream.read(&mut chunk).expect("a reply within the timeout");
        assert!(n > 0, "controller closed the connection");
        buf.extend_from_slice(&chunk[..n]);
        for msg in ofproto::wire::decode_frames(&mut buf).unwrap() {
            match msg.body {
                OfBody::BarrierReply => {
                    replies.push(msg.xid.0);
                    flags.read_by_peer.store(msg.xid.0, Ordering::SeqCst);
                }
                OfBody::EchoRequest(data) => {
                    let reply = OfMessage::new(msg.xid, OfBody::EchoReply(data));
                    stream.write_all(&ofproto::wire::encode(&reply)).unwrap();
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
    }
    assert_eq!(replies, vec![1, 2, 3]);
    assert!(
        !flags.gave_up.load(Ordering::SeqCst),
        "reply 2 was held back past the drain that produced it"
    );
    let stamps = flags.stamps.lock().unwrap().clone();
    let xids: Vec<u32> = stamps.iter().map(|s| s.0).collect();
    assert_eq!(xids, vec![1, 2, 3]);
    assert_eq!(
        stamps[0].1, stamps[1].1,
        "requests written together were handled in two drains"
    );
    drop(controller);
}

/// Records the `now` each message is handed over with; while `hold` is set,
/// the next tick parks the control loop until it is cleared.
#[derive(Clone, Default)]
struct Stamps {
    stamps: Arc<Mutex<Vec<f64>>>,
    hold: Arc<AtomicBool>,
    holding: Arc<AtomicBool>,
}

impl ControlPlane for Stamps {
    fn on_switch_connect(
        &mut self,
        _dpid: DatapathId,
        _features: FeaturesReply,
        _now: f64,
        _out: &mut ControlOutput,
    ) {
    }

    fn on_message(
        &mut self,
        _dpid: DatapathId,
        _msg: OfMessage,
        now: f64,
        _out: &mut ControlOutput,
    ) {
        self.stamps.lock().unwrap().push(now);
    }

    fn on_tick(&mut self, _now: f64, _out: &mut ControlOutput) {
        if self.hold.load(Ordering::SeqCst) {
            self.holding.store(true, Ordering::SeqCst);
            wait_for(Duration::from_secs(10), || {
                !self.hold.load(Ordering::SeqCst)
            });
        }
    }

    fn tick_interval(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// A message is stamped with when the control loop picked it up, not with
/// when the loop last went idle: two messages sent 30 ms apart over an
/// otherwise quiet connection are stamped at least 25 ms apart. The first is
/// written while a tick holds the loop's thread, so its stamp is the pick-up
/// time whichever moment the loop reads the clock at; the second arrives
/// while the loop waits.
#[test]
fn a_drain_is_stamped_with_the_time_it_starts() {
    let flags = Stamps::default();
    // Nothing else due for seconds: the loop waits the full 50 ms each turn.
    let quiet = Duration::from_secs(10);
    let controller = ControllerEndpoint::listen(
        Box::new(flags.clone()),
        "127.0.0.1:0".parse().unwrap(),
        ControllerConfig {
            channel: ChannelConfig::default()
                .with_echo_interval(quiet)
                .with_liveness_timeout(quiet),
            telemetry_interval: quiet,
            ..ControllerConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(controller.local_addr().unwrap()).unwrap();
    stream.set_nodelay(true).unwrap();
    let features = FeaturesReply {
        datapath_id: DatapathId(1),
        n_buffers: 0,
        n_tables: 1,
        ports: vec![PortNo::Physical(1)],
    };
    handshake::accept(&mut stream, &features, &ChannelConfig::default()).unwrap();
    assert!(wait_for(Duration::from_secs(10), || {
        controller.status().connected_switches == vec![DatapathId(1)]
    }));
    let request =
        |xid: u32| ofproto::wire::encode(&OfMessage::new(Xid(xid), OfBody::BarrierRequest));
    let stamped = |n: usize| {
        wait_for(Duration::from_secs(10), || {
            flags.stamps.lock().unwrap().len() >= n
        })
    };

    flags.hold.store(true, Ordering::SeqCst);
    assert!(wait_for(Duration::from_secs(10), || flags
        .holding
        .load(Ordering::SeqCst)));
    // Nothing reads the socket while the tick holds the only thread: the
    // request waits there until the hold is released.
    stream.write_all(&request(1)).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    flags.hold.store(false, Ordering::SeqCst);
    assert!(stamped(1));

    std::thread::sleep(Duration::from_millis(30));
    stream.write_all(&request(2)).unwrap();
    assert!(stamped(2));
    let stamps = flags.stamps.lock().unwrap().clone();
    let apart = stamps[1] - stamps[0];
    assert!(
        apart >= 0.025,
        "sent 30 ms apart, stamped {:.1} ms apart: a stamp predates the wait it ended",
        apart * 1e3
    );
    drop(controller);
}

/// Garbage bytes after a clean handshake are counted as a decode error and
/// kill only that session; the endpoint dials a fresh connection after.
#[test]
fn garbage_after_handshake_counts_decode_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1]);
    let endpoint = SwitchEndpoint::spawn(
        switch,
        Vec::new(),
        listener.local_addr().unwrap(),
        ChannelConfig::default(),
    )
    .unwrap();

    let (mut stream, _) = listener.accept().unwrap();
    let _ = handshake::initiate(&mut stream, &ChannelConfig::default()).unwrap();
    stream.write_all(&[0xde; 64]).unwrap();

    assert!(
        wait_for(Duration::from_secs(10), || {
            endpoint.counters().decode_errors >= 1
        }),
        "garbage bytes were not counted as a decode error"
    );

    // The switch dials again: a well-behaved controller gets it back.
    let (mut second, _) = listener.accept().unwrap();
    let (features, _) = handshake::initiate(&mut second, &ChannelConfig::default()).unwrap();
    assert_eq!(features.datapath_id, DatapathId(1));
}

/// The tentpole proof: FloodGuard's whole defense loop over real sockets.
/// A flood of table-miss packets raises the controller-observed packet_in
/// rate, the detector fires, migration rules reroute the flood into the
/// data plane cache, and the cache re-raises rate-limited packet_ins over
/// its own TCP connection.
#[test]
fn floodguard_defense_loop_over_live_tcp() {
    const CACHE_PORT: u16 = 99;

    // Live mode synthesizes telemetry with zero buffer/datapath readings
    // (a real controller cannot see inside the switch), so detection must
    // trigger on the packet_in rate alone.
    let detection = DetectionConfig {
        rate_capacity_pps: 50.0,
        score_threshold: 0.2,
        rate_weight: 1.0,
        buffer_weight: 0.0,
        datapath_weight: 0.0,
        controller_weight: 0.0,
        ..DetectionConfig::default()
    };
    let fg_config = FloodGuardConfig {
        detection,
        ..FloodGuardConfig::default()
    };

    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let mut floodguard = FloodGuard::new(platform, fg_config, CACHE_PORT);
    let monitor = floodguard.monitor_handle();
    let cache = floodguard.build_cache();

    let controller_config = ControllerConfig {
        telemetry_interval: Duration::from_millis(20),
        ..ControllerConfig::default()
    };
    let controller = listen(Box::new(floodguard), controller_config);

    let switch = Switch::new(
        DatapathId(1),
        SwitchProfile::software(),
        vec![1, 2, CACHE_PORT],
    );
    let endpoint = SwitchEndpoint::spawn(
        switch,
        vec![(CACHE_PORT, Box::new(cache))],
        addr(&controller),
        ChannelConfig::default(),
    )
    .unwrap();

    assert!(
        wait_for(Duration::from_secs(10), || {
            let status = controller.status();
            status.connected_switches.len() == 1 && status.connected_devices.len() == 1
        }),
        "switch and cache sessions never both came up"
    );

    // Flood with distinct flows; every packet is a table miss until the
    // migration rules land, after which the flood detours into the cache
    // and comes back as rate-limited re-raised packet_ins.
    let mut seq = 0u64;
    let defended = wait_for(Duration::from_secs(30), || {
        for _ in 0..100 {
            endpoint.inject(1, udp_flow(seq, 200));
            seq += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
        let snap = monitor.lock();
        snap.stats.attacks_detected >= 1 && snap.stats.reraised >= 1
    });
    let snap = monitor.lock().clone();
    assert!(
        defended,
        "defense loop incomplete: state {:?}, stats {:?}",
        snap.state, snap.stats
    );
    assert!(
        !snap.transitions.is_empty(),
        "state machine recorded no transitions"
    );

    // The migration wildcard rules are real flow table entries on the live
    // switch, and the cache connection carried real frames.
    assert!(
        endpoint.telemetry().flow_count >= Some(1),
        "no rules installed on the live switch"
    );
    let transport = controller.counters();
    assert!(transport.frames_in > 0 && transport.frames_out > 0);

    drop(controller);
    drop(endpoint);
}

/// What a [`Tap`] has seen of the control plane it wraps.
#[derive(Default)]
struct TapLog {
    /// `on_switch_connect` plus `on_message` calls so far: what arrived
    /// from the switch itself (as opposed to its cache device).
    from_switch: AtomicU32,
    /// Telemetry ticks so far.
    ticks: AtomicU32,
    /// Every flow-mod and stats request sent so far, with the time of the
    /// call that sent it — the clock FSM transitions are stamped with.
    sent: Mutex<Vec<(f64, OfMessage)>>,
}

impl TapLog {
    /// Notes what a call appended to `out` from position `from` on.
    fn note(&self, now: f64, out: &ControlOutput, from: usize) {
        let mut sent = self.sent.lock().unwrap();
        for (_, msg) in &out.messages[from..] {
            if matches!(msg.body, OfBody::FlowMod(_) | OfBody::StatsRequest(_)) {
                sent.push((now, msg.clone()));
            }
        }
    }

    /// The flow-mods sent so far.
    fn flow_mods(&self) -> Vec<FlowMod> {
        let sent = self.sent.lock().unwrap();
        let mods = sent.iter().filter_map(|(_, msg)| match &msg.body {
            OfBody::FlowMod(fm) => Some(fm.clone()),
            _ => None,
        });
        mods.collect()
    }

    /// When each stats request sent so far was sent.
    fn asked_at(&self) -> Vec<f64> {
        let sent = self.sent.lock().unwrap();
        let asks = sent
            .iter()
            .filter(|(_, msg)| matches!(msg.body, OfBody::StatsRequest(_)));
        asks.map(|(at, _)| *at).collect()
    }
}

/// Passes everything through to `inner`, logging what goes by.
struct Tap<C> {
    inner: C,
    log: Arc<TapLog>,
}

impl<C: ControlPlane> ControlPlane for Tap<C> {
    fn on_switch_connect(
        &mut self,
        dpid: DatapathId,
        features: FeaturesReply,
        now: f64,
        out: &mut ControlOutput,
    ) {
        self.log.from_switch.fetch_add(1, Ordering::SeqCst);
        let from = out.messages.len();
        self.inner.on_switch_connect(dpid, features, now, out);
        self.log.note(now, out, from);
    }

    fn on_message(&mut self, dpid: DatapathId, msg: OfMessage, now: f64, out: &mut ControlOutput) {
        self.log.from_switch.fetch_add(1, Ordering::SeqCst);
        let from = out.messages.len();
        self.inner.on_message(dpid, msg, now, out);
        self.log.note(now, out, from);
    }

    fn on_device_message(
        &mut self,
        device: netsim::iface::DeviceId,
        msg: OfMessage,
        now: f64,
        out: &mut ControlOutput,
    ) {
        let from = out.messages.len();
        self.inner.on_device_message(device, msg, now, out);
        self.log.note(now, out, from);
    }

    fn on_switch_disconnect(&mut self, dpid: DatapathId, now: f64, out: &mut ControlOutput) {
        self.inner.on_switch_disconnect(dpid, now, out);
    }

    fn on_telemetry(
        &mut self,
        telemetry: &netsim::iface::Telemetry,
        now: f64,
        out: &mut ControlOutput,
    ) {
        let from = out.messages.len();
        self.inner.on_telemetry(telemetry, now, out);
        self.log.note(now, out, from);
        self.log.ticks.fetch_add(1, Ordering::SeqCst);
    }

    fn on_tick(&mut self, now: f64, out: &mut ControlOutput) {
        self.inner.on_tick(now, out);
    }

    fn tick_interval(&self) -> Option<f64> {
        self.inner.tick_interval()
    }
}

/// Fault injection over real sockets: mid-defense, the live switch crashes
/// (flow table wiped, TCP session cut) and restarts. FloodGuard reads the
/// returning switch's table back and repairs it with the same defense rule
/// set, and the transport counts the one reconnect. While the switch is
/// down it does not dial: no session, no dial and nothing from the switch
/// reaches the controller.
#[test]
fn switch_crash_mid_defense_resyncs_rules() {
    const CACHE_PORT: u16 = 99;

    let detection = DetectionConfig {
        rate_capacity_pps: 50.0,
        score_threshold: 0.2,
        rate_weight: 1.0,
        buffer_weight: 0.0,
        datapath_weight: 0.0,
        controller_weight: 0.0,
        ..DetectionConfig::default()
    };
    let fg_config = FloodGuardConfig {
        detection,
        ..FloodGuardConfig::default()
    };
    let cookie = fg_config.cookie;

    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let mut floodguard = FloodGuard::new(platform, fg_config, CACHE_PORT);
    let monitor = floodguard.monitor_handle();
    let cache = floodguard.build_cache();

    let controller_config = ControllerConfig {
        telemetry_interval: Duration::from_millis(20),
        ..ControllerConfig::default()
    };
    let log = Arc::new(TapLog::default());
    let from_switch = &log.from_switch;
    let tap = Tap {
        inner: floodguard,
        log: Arc::clone(&log),
    };
    let controller = listen(Box::new(tap), controller_config);

    let switch = Switch::new(
        DatapathId(1),
        SwitchProfile::software(),
        vec![1, 2, CACHE_PORT],
    );
    let endpoint = SwitchEndpoint::spawn(
        switch,
        vec![(CACHE_PORT, Box::new(cache))],
        addr(&controller),
        ChannelConfig::default(),
    )
    .unwrap();

    assert!(
        wait_for(Duration::from_secs(10), || {
            let status = controller.status();
            status.connected_switches.len() == 1 && status.connected_devices.len() == 1
        }),
        "switch and cache sessions never both came up"
    );

    // Flood until the defense is up and its rules are visible in the live
    // flow-rule snapshot.
    let mut seq = 0u64;
    let flood = |seq: &mut u64| {
        for _ in 0..100 {
            endpoint.inject(1, udp_flow(*seq, 200));
            *seq += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        wait_for(Duration::from_secs(30), || {
            flood(&mut seq);
            monitor.lock().stats.attacks_detected >= 1
                && endpoint.flow_rules().iter().any(|&(_, _, c)| c == cookie)
        }),
        "defense never established over the live channel"
    );
    let before: HashSet<(ofproto::flow_match::OfMatch, u16)> = endpoint
        .flow_rules()
        .into_iter()
        .filter(|&(_, _, c)| c == cookie)
        .map(|(m, p, _)| (m, p))
        .collect();
    assert!(!before.is_empty());

    let before_crash = controller.counters();
    endpoint.inject_fault(Fault::SwitchCrash {
        sw: SwitchId(0),
        restart_after: 0.2,
    });

    // The outage, for as long as the switch is certainly still down (the
    // cache's session stays up throughout): the flood goes on, the switch
    // does not dial, and the control plane hears nothing from it.
    let certainly_down = Instant::now() + Duration::from_millis(120);
    assert!(wait_for(Duration::from_secs(10), || {
        controller.status().connected_switches.is_empty()
    }));
    let heard = from_switch.load(Ordering::SeqCst);
    loop {
        flood(&mut seq);
        let seen = (
            from_switch.load(Ordering::SeqCst),
            controller.status().connected_switches.len(),
            controller.counters().connect_failures,
        );
        if Instant::now() >= certainly_down {
            break; // what was just sampled may be from after the restart
        }
        assert_eq!(
            seen,
            (heard, 0, before_crash.connect_failures),
            "a session, a frame or a dial from a switch that is down"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Keep the flood alive across the outage: the read-back after the
    // reconnect must land every pre-crash defense rule again.
    assert!(
        wait_for(Duration::from_secs(30), || {
            flood(&mut seq);
            let after: HashSet<(ofproto::flow_match::OfMatch, u16)> = endpoint
                .flow_rules()
                .into_iter()
                .filter(|&(_, _, c)| c == cookie)
                .map(|(m, p, _)| (m, p))
                .collect();
            controller.counters().reconnects > before_crash.reconnects && before.is_subset(&after)
        }),
        "defense rules were not reinstalled after the crash: before {:?}, after {:?}",
        before,
        endpoint.flow_rules()
    );
    let after_crash = controller.counters();
    assert_eq!(
        after_crash.reconnects,
        before_crash.reconnects + 1,
        "not one reconnect: {after_crash:?}"
    );
    assert!(
        monitor.lock().stats.rules_repaired > 0,
        "nothing was repaired"
    );

    drop(controller);
    drop(endpoint);
}

/// FloodGuard over l2_learning as the live tests below defend with it:
/// detection on the packet_in rate alone (live telemetry carries no
/// utilizations), and a cache small enough that its backlog drains, and
/// Finish gives way to Idle, within a second of the flood ending.
fn live_floodguard(cache_port: u16) -> FloodGuard {
    let detection = DetectionConfig {
        rate_capacity_pps: 50.0,
        score_threshold: 0.2,
        rate_weight: 1.0,
        buffer_weight: 0.0,
        datapath_weight: 0.0,
        controller_weight: 0.0,
        ..DetectionConfig::default()
    };
    let config = FloodGuardConfig {
        detection,
        cache: CacheConfig {
            queue_capacity: 64,
            ..CacheConfig::default()
        },
        ..FloodGuardConfig::default()
    };
    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    FloodGuard::new(platform, config, cache_port)
}

/// Hosts `live_floodguard`'s l2_learning knows from before any attack:
/// `(mac, port)`, learned at t = 0, longer than a detector window before
/// the floods the tests start. What the flood's onset teaches is demoted
/// at Init, so these are the rules the first update sends.
const BENIGN: [(u64, u16); 4] = [
    (0xb0_0001, 1),
    (0xb0_0002, 2),
    (0xb0_0003, 1),
    (0xb0_0004, 2),
];

fn seed_benign(floodguard: &mut FloodGuard) {
    let env = &mut floodguard
        .platform_mut()
        .app_mut("l2_learning")
        .unwrap()
        .env;
    for (mac, port) in BENIGN {
        apps::l2_learning::learn_host(env, MacAddr::from_u64(mac), port);
    }
}

/// The `(match, priority)` of the benign hosts' rules.
fn benign_rules() -> HashSet<(OfMatch, u16)> {
    let mut env = apps::l2_learning::program().initial_env();
    for (mac, port) in BENIGN {
        apps::l2_learning::learn_host(&mut env, MacAddr::from_u64(mac), port);
    }
    let program = apps::l2_learning::program();
    let conditions = symexec::generate_path_conditions(&program);
    let converted = symexec::convert_to_rules(&conditions, &env);
    converted
        .rules
        .iter()
        .map(|r| (r.of_match, r.priority))
        .collect()
}

/// The `(match, priority)` of every proactive rule among `mods`: the
/// cookie-stamped Adds that are not redirects to the cache.
fn proactive_adds(mods: &[FlowMod], cache_port: u16) -> Vec<(OfMatch, u16)> {
    let cookie = FloodGuardConfig::default().cookie;
    let to_cache = Action::Output(PortNo::Physical(cache_port));
    let adds = mods.iter().filter(|fm| {
        fm.command == FlowModCommand::Add && fm.cookie == cookie && !fm.actions.contains(&to_cache)
    });
    adds.map(|fm| (fm.of_match, fm.priority)).collect()
}

/// One Fig. 9 episode over real sockets, watched from between FloodGuard
/// and the endpoint: every proactive rule is sent once and lands, nothing
/// is repaired, and the table is read only while migration rules are
/// wanted on it. (The endpoint used to report a flow count of zero, which
/// the audit read as a wiped table: every rule was sent four times over.)
#[test]
fn a_defense_episode_sends_each_rule_once_and_asks_only_while_migrating() {
    const CACHE_PORT: u16 = 99;

    let mut floodguard = live_floodguard(CACHE_PORT);
    seed_benign(&mut floodguard);
    let monitor = floodguard.monitor_handle();
    let cache = floodguard.build_cache();
    // Room for the first rule burst: a shed flow_mod is a missing rule.
    let controller_config = ControllerConfig {
        channel: ChannelConfig::default().with_send_queue_cap(4096),
        telemetry_interval: Duration::from_millis(20),
        ..ControllerConfig::default()
    };
    let log = Arc::new(TapLog::default());
    let tap = Tap {
        inner: floodguard,
        log: Arc::clone(&log),
    };
    let controller = listen(Box::new(tap), controller_config);
    let switch = Switch::new(
        DatapathId(1),
        SwitchProfile::software(),
        vec![1, 2, CACHE_PORT],
    );
    let endpoint = SwitchEndpoint::spawn(
        switch,
        vec![(CACHE_PORT, Box::new(cache))],
        addr(&controller),
        ChannelConfig::default(),
    )
    .unwrap();
    assert!(
        wait_for(Duration::from_secs(10), || {
            let status = controller.status();
            status.connected_switches.len() == 1 && status.connected_devices.len() == 1
        }),
        "switch and cache sessions never both came up"
    );
    // Calm ticks first, longer than a detector window: the benign hosts
    // were learned before the flood's onset.
    assert!(wait_for(Duration::from_secs(10), || {
        log.ticks.load(Ordering::SeqCst) >= 15
    }));

    // The flood, until the cache has fed the applications for a while (what
    // it teaches them stays in quarantine, so it brings no update round of
    // its own); then calm, until the episode is over. About a
    // thousand packets a second: the cache drops from the front of a full
    // queue, and a packet must last the 25 ms processing delay in a queue
    // of 64 to come back as a packet_in at all.
    let mut seq = 0u64;
    let defended = wait_for(Duration::from_secs(30), || {
        for _ in 0..5 {
            endpoint.inject(1, udp_flow(seq, 200));
            seq += 1;
        }
        let snap = monitor.lock();
        snap.state == Some(State::Defense) && snap.stats.updates >= 1 && snap.stats.reraised >= 50
    });
    assert!(defended, "no defense: {:?}", monitor.lock().stats);
    assert!(
        wait_for(Duration::from_secs(30), || {
            monitor.lock().state == Some(State::Idle)
        }),
        "the episode never ended: {:?}",
        monitor.lock().transitions
    );
    let at_idle = log.ticks.load(Ordering::SeqCst);
    assert!(wait_for(Duration::from_secs(10), || {
        log.ticks.load(Ordering::SeqCst) >= at_idle + 5
    }));

    let snap = monitor.lock().clone();
    assert_eq!(snap.stats.attacks_detected, 1);
    assert_eq!(snap.stats.rules_repaired, 0, "an intact table was repaired");
    let sent = proactive_adds(&log.flow_mods(), CACHE_PORT);
    assert_eq!(sent.len() as u64, snap.stats.proactive_installed);
    let distinct: HashSet<(OfMatch, u16)> = sent.iter().copied().collect();
    assert_eq!(distinct.len(), sent.len(), "a rule was sent more than once");
    // Sent is received: nothing was shed on the way to the writers, and the
    // switch's endpoint decoded every frame the controller's wrote. (Not
    // "is in the table": the rules carry l2_learning's 10 s idle timeout,
    // and a loaded machine can take longer than that to get here.)
    let transport = controller.counters();
    assert_eq!(
        (transport.sends_blocked, transport.budget_exhausted),
        (0, 0),
        "a flow_mod was shed"
    );
    assert!(
        wait_for(Duration::from_secs(10), || {
            let (ours, theirs) = (controller.counters(), endpoint.counters());
            ours.frames_out == theirs.frames_in && theirs.decode_errors == 0
        }),
        "frames lost between the endpoints: {:?} / {:?}",
        controller.counters(),
        endpoint.counters()
    );

    // Read from the tick that enters Init (its round ends with a read) to the
    // tick that enters Finish (likewise), at most once a tick, and at no
    // other time.
    let entered = |to: State| {
        let found = snap.transitions.iter().find(|t| t.to == to);
        found.unwrap_or_else(|| panic!("never entered {to}")).at
    };
    let (init, finish) = (entered(State::Init), entered(State::Finish));
    // The Init update sends the benign hosts' rules and nothing the flood
    // taught: that went to quarantine.
    let defense = entered(State::Defense);
    let first_update: Vec<FlowMod> = log
        .sent
        .lock()
        .unwrap()
        .iter()
        .filter(|(at, _)| *at == defense)
        .filter_map(|(_, msg)| match &msg.body {
            OfBody::FlowMod(fm) => Some(fm.clone()),
            _ => None,
        })
        .collect();
    let first_update = proactive_adds(&first_update, CACHE_PORT);
    assert_eq!(
        first_update.iter().copied().collect::<HashSet<_>>(),
        benign_rules()
    );
    assert!(snap.stats.demoted_at_init > 0, "the onset taught nothing");
    assert!(snap.quarantined_entries > 0);
    let asked = log.asked_at();
    assert!(!asked.is_empty(), "the table was never asked about");
    assert!(
        asked.iter().all(|&at| init <= at && at <= finish),
        "asked outside Init..Finish ({init}..{finish}): {asked:?}"
    );
    assert!(
        asked.windows(2).all(|pair| pair[0] < pair[1]),
        "asked twice in a tick: {asked:?}"
    );

    drop(controller);
    drop(endpoint);
}

/// A switch the test owns, on a connection it dialed to a controller
/// serving FloodGuard: a blocking handshake, then frames in and out by hand
/// — the shape fgbench's generator has. Nothing stands between the test and
/// the table. There is no cache device: what the switch forwards to the
/// cache port is counted into FloodGuard's cache handle by hand, which is
/// all the attack-end test reads.
struct SwitchPeer {
    stream: TcpStream,
    unread: bytes::BytesMut,
    switch: Switch,
    start: Instant,
    xid: u32,
    cache: floodguard::cache::CacheHandle,
    /// Flood packets offered so far.
    flooded: u64,
    /// Every flow-mod the controller sent, in order, lost or not.
    flow_mods: Vec<FlowMod>,
    /// Every flow-mod and stats request the controller sent, in order.
    requests: Vec<OfBody>,
    /// How many rules under FloodGuard's cookie every flow-stats reply
    /// given listed, and how many of them were redirects, in order.
    answered: Vec<(usize, usize)>,
    /// Table-stats counts answered so far.
    counted: usize,
    /// The fraction of flow-mods lost before the switch applies them: the
    /// live twin of `netsim::Fault::FlowModLoss`.
    flow_mod_loss: f64,
    /// Flow-mods lost so far.
    lost: usize,
    /// xorshift64 state of the loss draws: a fixed seed.
    rng: u64,
}

/// The cache port of the switch a [`SwitchPeer`] plays.
const PEER_CACHE_PORT: u16 = 99;

impl SwitchPeer {
    /// FloodGuard (with the benign hosts seeded) behind a controller that
    /// ticks every 20 ms, and a switch dialed to it, once a calm longer
    /// than a detector window has passed: the benign hosts were learned
    /// before any flood's onset.
    fn behind_floodguard() -> (ControllerEndpoint, SwitchPeer, floodguard::MonitorHandle) {
        let mut floodguard = live_floodguard(PEER_CACHE_PORT);
        seed_benign(&mut floodguard);
        let monitor = floodguard.monitor_handle();
        let cache = floodguard.cache_handle();
        let controller_config = ControllerConfig {
            channel: ChannelConfig::default().with_send_queue_cap(4096),
            telemetry_interval: Duration::from_millis(20),
            ..ControllerConfig::default()
        };
        let controller = listen(Box::new(floodguard), controller_config);
        let ports = vec![1, 2, PEER_CACHE_PORT];
        let switch = Switch::new(DatapathId(1), SwitchProfile::software(), ports);
        let mut stream = TcpStream::connect(addr(&controller)).unwrap();
        let config = ChannelConfig::default();
        let unread = handshake::accept(&mut stream, &switch.features(), &config).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(2)))
            .unwrap();
        let mut peer = SwitchPeer {
            stream,
            unread,
            switch,
            start: Instant::now(),
            xid: 0,
            cache,
            flooded: 0,
            flow_mods: Vec::new(),
            requests: Vec::new(),
            answered: Vec::new(),
            counted: 0,
            flow_mod_loss: 0.0,
            lost: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        };
        assert!(wait_for(Duration::from_secs(10), || {
            peer.serve();
            peer.start.elapsed() > Duration::from_millis(300)
        }));
        (controller, peer, monitor)
    }

    /// Whether the next flow-mod is lost.
    fn loses(&mut self) -> bool {
        if self.flow_mod_loss <= 0.0 {
            return false;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        ((self.rng >> 11) as f64 / (1u64 << 53) as f64) < self.flow_mod_loss
    }

    /// Puts twenty flood packets through the datapath on port 1 (a miss
    /// goes up as a packet_in, a redirect to the cache is counted), then
    /// serves the connection.
    fn flood(&mut self) {
        let now = self.start.elapsed().as_secs_f64();
        for _ in 0..20 {
            self.switch.enqueue(1, udp_flow(self.flooded, 200));
            self.flooded += 1;
        }
        while let Some((in_port, packet)) = self.switch.start_next() {
            let result = self.switch.process(in_port, packet, now);
            let to_cache = result
                .forwards
                .iter()
                .filter(|(p, _)| *p == PEER_CACHE_PORT);
            self.cache.lock().stats.received += to_cache.count() as u64;
            if let Some(pi) = result.packet_in {
                self.xid += 1;
                let msg = OfMessage::new(Xid(self.xid), OfBody::PacketIn(pi));
                self.stream.write_all(&ofproto::wire::encode(&msg)).unwrap();
            }
        }
        self.serve();
    }

    /// Floods until `done` holds, or thirty seconds pass.
    fn flood_until(&mut self, done: impl Fn(&SwitchPeer) -> bool) -> bool {
        wait_for(Duration::from_secs(30), || {
            self.flood();
            done(self)
        })
    }

    /// Applies what the controller has sent (waiting 2 ms for more when
    /// there is nothing) and answers it.
    fn serve(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => panic!("the controller closed the connection"),
            Ok(n) => self.unread.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("switch connection: {e}"),
        }
        let now = self.start.elapsed().as_secs_f64();
        let cookie = FloodGuardConfig::default().cookie;
        for msg in ofproto::wire::decode_frames(&mut self.unread).unwrap() {
            if matches!(msg.body, OfBody::FlowMod(_) | OfBody::StatsRequest(_)) {
                self.requests.push(msg.body.clone());
            }
            if let OfBody::FlowMod(fm) = &msg.body {
                self.flow_mods.push(fm.clone());
                if self.loses() {
                    self.lost += 1;
                    continue;
                }
            }
            let (_, replies) = self.switch.handle_message(msg, now);
            for reply in replies {
                match &reply.body {
                    OfBody::StatsReply(StatsReply::Flow(rules)) => {
                        let ours = rules.iter().filter(|r| r.cookie == cookie);
                        let redirects = ours.clone().filter(|r| redirect(&r.of_match, r.priority));
                        self.answered.push((ours.count(), redirects.count()));
                    }
                    OfBody::StatsReply(StatsReply::Table(_)) => self.counted += 1,
                    _ => {}
                }
                self.stream
                    .write_all(&ofproto::wire::encode(&reply))
                    .unwrap();
            }
        }
    }

    /// The `(match, priority)` of every rule the table holds.
    fn rules(&self) -> HashSet<(OfMatch, u16)> {
        let entries = self.switch.table.iter();
        entries.map(|e| (e.of_match, e.priority)).collect()
    }

    /// The rules under FloodGuard's cookie the table holds, with their
    /// actions.
    fn ours(&self) -> HashMap<(OfMatch, u16), Vec<Action>> {
        let cookie = FloodGuardConfig::default().cookie;
        let entries = self.switch.table.iter().filter(|e| e.cookie == cookie);
        entries
            .map(|e| ((e.of_match, e.priority), e.actions.clone()))
            .collect()
    }

    /// What FloodGuard wants the table to hold: every flow-mod under its
    /// cookie it sent, lost or not, applied in order.
    fn wanted(&self) -> HashMap<(OfMatch, u16), Vec<Action>> {
        let cookie = FloodGuardConfig::default().cookie;
        let mut table = HashMap::new();
        for fm in &self.flow_mods {
            match fm.command {
                FlowModCommand::Add if fm.cookie == cookie => {
                    table.insert((fm.of_match, fm.priority), fm.actions.clone());
                }
                FlowModCommand::DeleteStrict => {
                    table.remove(&(fm.of_match, fm.priority));
                }
                _ => {}
            }
        }
        table
    }

    /// The redirects the table holds.
    fn redirects(&self) -> usize {
        self.ours().keys().filter(|(m, p)| redirect(m, *p)).count()
    }

    /// Deletes the rule of `of_match` and `priority` as another controller
    /// would, and reports the removal to the controller as the switch
    /// does.
    fn delete_as_another_controller(&mut self, of_match: OfMatch, priority: u16) {
        let delete = FlowMod::delete_strict(of_match, priority);
        let now = self.start.elapsed().as_secs_f64();
        let msg = OfMessage::new(Xid(0), OfBody::FlowMod(delete));
        let (_, replies) = self.switch.handle_message(msg, now);
        assert!(
            matches!(
                replies[..],
                [OfMessage {
                    body: OfBody::FlowRemoved(_),
                    ..
                }]
            ),
            "no FLOW_REMOVED: {replies:?}"
        );
        for reply in replies {
            self.stream
                .write_all(&ofproto::wire::encode(&reply))
                .unwrap();
        }
    }
}

/// Whether a rule of FloodGuard's is one of its redirects.
fn redirect(of_match: &OfMatch, priority: u16) -> bool {
    floodguard::migration::MigrationAgent::is_redirect(of_match, priority)
}

/// Mid-Defense the switch loses its table with the connection kept (no
/// crash, no reconnect) and says nothing of it. The next table-stats count,
/// at most a second after the table was last asked about, shows fewer
/// rules than FloodGuard's, so the table is read; one repair round re-sends
/// the migration rules and the installed proactive ones, the table
/// converges, and the counts after that send nothing.
#[test]
fn a_table_emptied_behind_the_controllers_back_is_repaired_in_one_round() {
    let (controller, mut peer, monitor) = SwitchPeer::behind_floodguard();
    let defending = || {
        let snap = monitor.lock();
        snap.state == Some(State::Defense) && snap.stats.updates >= 1
    };

    // Defense, the rules on the switch, and at least one answer given: the
    // table is intact and has been seen to be.
    assert!(
        peer.flood_until(|peer| {
            let stats = monitor.lock().stats;
            let sent = proactive_adds(&peer.flow_mods, PEER_CACHE_PORT);
            defending()
                && sent.len() as u64 == stats.proactive_installed
                && peer
                    .answered
                    .last()
                    .is_some_and(|&(count, _)| count >= 2 + sent.len())
        }),
        "no defense: {:?}, answered {:?}",
        monitor.lock().stats,
        peer.answered
    );
    assert_eq!(
        monitor.lock().stats.rules_repaired,
        0,
        "an intact table was repaired"
    );
    let before = peer.rules();
    let sent = proactive_adds(&peer.flow_mods, PEER_CACHE_PORT);
    let sent_before = sent.len();
    // The first update sent the benign hosts' rules and nothing the flood
    // taught: that went to quarantine.
    let benign = benign_rules();
    let first_update: HashSet<(OfMatch, u16)> = sent[..benign.len()].iter().copied().collect();
    assert_eq!(first_update, benign);
    assert!(
        monitor.lock().stats.demoted_at_init > 0,
        "the onset taught nothing"
    );
    assert!(monitor.lock().quarantined_entries > 0);
    assert_eq!(
        before.len(),
        2 + sent_before,
        "two redirects and the proactive rules"
    );

    // The wipe. Flood packets are table misses again until the repair
    // lands; whatever they teach l2_learning arrives as ordinary updates.
    peer.switch.table.clear();
    let asked = peer.answered.len();
    assert!(
        peer.flood_until(|peer| {
            monitor.lock().stats.rules_repaired > 0 && before.is_subset(&peer.rules())
        }),
        "the table did not converge: repaired {}, answered {:?}",
        monitor.lock().stats.rules_repaired,
        &peer.answered[asked..]
    );
    assert_eq!(
        peer.answered[asked].1, 0,
        "the first answer after the wipe shows the redirects gone"
    );
    let stats = monitor.lock().stats;
    let repaired = stats.rules_repaired;
    let installed = stats.proactive_installed - stats.proactive_removed;
    assert!(
        2 + sent_before as u64 <= repaired && repaired <= 2 + installed,
        "one round is the two redirects and the installed rules ({sent_before}..={installed}), not {repaired}"
    );

    // Two more counts, both of a whole table: no second round.
    let counted = peer.counted;
    assert!(peer.flood_until(|peer| peer.counted >= counted + 2));
    assert_eq!(monitor.lock().stats.rules_repaired, repaired);
    assert!(defending(), "still defending");

    drop(controller);
}

/// A redirect another controller deletes comes back to FloodGuard as the
/// switch's `FLOW_REMOVED`, and the next tick repairs it: the first thing
/// FloodGuard sends the switch after the report is the redirect's add, with
/// no flow-stats read and no count before it.
#[test]
fn a_redirect_deleted_by_another_controller_is_repaired_from_its_flow_removed() {
    let (controller, mut peer, monitor) = SwitchPeer::behind_floodguard();
    assert!(
        peer.flood_until(|peer| {
            let snap = monitor.lock();
            snap.state == Some(State::Defense) && snap.stats.updates >= 1 && peer.redirects() == 2
        }),
        "no defense: {:?}",
        monitor.lock().stats
    );
    let repaired = monitor.lock().stats.rules_repaired;
    let port2 = OfMatch::any().with_in_port(2);
    let priority = peer
        .ours()
        .keys()
        .find(|(m, p)| *m == port2 && redirect(m, *p))
        .expect("port 2's redirect")
        .1;
    let before = peer.requests.len();
    peer.delete_as_another_controller(port2, priority);
    assert_eq!(peer.redirects(), 1);
    // The flood comes in on port 1, so it still goes to the cache: it keeps
    // the defense up and teaches nothing.
    assert!(
        peer.flood_until(|peer| peer.redirects() == 2),
        "not repaired: {:?}",
        &peer.requests[before..]
    );
    let first = &peer.requests[before];
    assert!(
        matches!(first, OfBody::FlowMod(fm) if fm.of_match == port2 && fm.command == FlowModCommand::Add),
        "the first request after the report was {first:?}"
    );
    assert_eq!(monitor.lock().stats.rules_repaired, repaired + 1);
    drop(controller);
}

/// The live twin of `resilience.rs::fault_flow_mod_loss_converges`: the
/// switch loses half the flow-mods sent to it through Init and the first
/// second of Defense. Once the loss lifts, its rules under FloodGuard's
/// cookie are what FloodGuard wants within two reads (two telemetry ticks),
/// and no redirect outlives the episode: a lost flow-mod shows up as a
/// difference in the read that ends its round, and each answer that
/// differs brings a round of its own. Once an answer shows no difference,
/// no round is left, and the next thing the switch is asked is a count.
#[test]
fn lost_flow_mods_are_repaired_once_the_loss_lifts() {
    let (controller, mut peer, monitor) = SwitchPeer::behind_floodguard();
    peer.flow_mod_loss = 0.5;
    assert!(
        peer.flood_until(|_| monitor.lock().state == Some(State::Defense)),
        "no defense: {:?}",
        monitor.lock().stats
    );
    let lift_at = Instant::now() + Duration::from_secs(1);
    while Instant::now() < lift_at {
        peer.flood();
    }
    assert!(peer.lost > 0, "nothing was lost");
    assert_eq!(monitor.lock().state, Some(State::Defense));

    peer.flow_mod_loss = 0.0;
    let (asked, counted) = (peer.answered.len(), peer.counted);
    assert!(peer.flood_until(|peer| { peer.answered.len() >= asked + 2 || peer.counted > counted }));
    assert_eq!(
        peer.ours(),
        peer.wanted(),
        "two reads, or a count, after the loss lifted"
    );
    assert!(peer.redirects() > 0);

    // Calm: the episode ends, and its redirects with it.
    assert!(
        wait_for(Duration::from_secs(30), || {
            peer.serve();
            monitor.lock().state == Some(State::Idle)
        }),
        "the episode never ended: {:?}",
        monitor.lock().transitions
    );
    assert_eq!(peer.redirects(), 0, "a redirect outlived the episode");
    assert_eq!(monitor.lock().stats.teardown_unanswered, 0);

    drop(controller);
}

/// A peer that dials the controller's listener and says nothing costs the
/// controller one parked handshake task per dial and nothing else: the
/// sessions of a connected switch and its cache stay up, keepalive is
/// answered, packet_ins and flow_mods keep flowing, and the silent dials end
/// as counted connect failures when their deadline passes. (An endpoint that
/// ran the handshake inline would park its sessions for `handshake_timeout`
/// on one silent dial, long enough for a healthy switch to be declared dead.)
#[test]
fn half_open_dial_does_not_take_a_healthy_switch_offline() {
    const CACHE_PORT: u16 = 99;
    // A silent dial stays pending for longer than a session may be silent,
    // so a serving loop that waits on it is a session lost.
    let channel = ChannelConfig {
        handshake_timeout: Duration::from_millis(300),
        ..ChannelConfig::default()
            .with_echo_interval(Duration::from_millis(50))
            .with_liveness_timeout(Duration::from_millis(250))
    };

    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let quiet = DetectionConfig {
        rate_capacity_pps: 1e9,
        score_threshold: 0.99,
        ..DetectionConfig::default()
    };
    let fg_config = FloodGuardConfig {
        detection: quiet,
        ..FloodGuardConfig::default()
    };
    let mut floodguard = FloodGuard::new(platform, fg_config, CACHE_PORT);
    let cache = floodguard.build_cache();
    let controller = listen(
        Box::new(floodguard),
        ControllerConfig {
            channel,
            ..ControllerConfig::default()
        },
    );
    let switch = Switch::new(
        DatapathId(1),
        SwitchProfile::software(),
        vec![1, 2, CACHE_PORT],
    );
    let endpoint = SwitchEndpoint::spawn(
        switch,
        vec![(CACHE_PORT, Box::new(cache))],
        addr(&controller),
        channel,
    )
    .unwrap();
    let both_up = || {
        let status = controller.status();
        status.connected_switches.len() == 1 && status.connected_devices.len() == 1
    };
    assert!(
        wait_for(Duration::from_secs(10), both_up),
        "switch and cache sessions never both came up"
    );

    let opened = Instant::now();
    let _silent = [
        TcpStream::connect(addr(&controller)).unwrap(),
        TcpStream::connect(addr(&controller)).unwrap(),
    ];
    // Long enough for an endpoint that polls its listener to have picked
    // the dials up.
    std::thread::sleep(Duration::from_millis(50));

    // A packet_in → flow_mod round trip while both silent peers are pending.
    let host = |n: u8| (MacAddr::from_u64(n.into()), Ipv4Addr::new(10, 0, 0, n));
    let ((mac_a, ip_a), (mac_b, ip_b)) = (host(0xa), host(0xb));
    let a_to_b = Packet::udp(mac_a, mac_b, ip_a, ip_b, 5000, 5001, 200);
    let b_to_a = Packet::udp(mac_b, mac_a, ip_b, ip_a, 5001, 5000, 200);
    assert!(
        wait_for(Duration::from_secs(1), || {
            endpoint.inject(1, a_to_b);
            endpoint.inject(2, b_to_a);
            endpoint.telemetry().flow_count >= Some(1)
        }),
        "no flow installed within 1 s of the silent dials"
    );
    assert_eq!(
        controller.counters().connect_failures,
        0,
        "the round trip had to wait for a silent dial to time out ({:?} in)",
        opened.elapsed()
    );

    // The sessions outlive the liveness bound with the dials still pending.
    while opened.elapsed() < channel.liveness_timeout + Duration::from_millis(20) {
        assert!(
            both_up(),
            "a session dropped {:?} after the silent dials: {:?}",
            opened.elapsed(),
            controller.status()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(controller.counters().keepalive_timeouts, 0);
    assert_eq!(endpoint.counters().keepalive_timeouts, 0);

    assert!(
        wait_for(Duration::from_secs(10), || {
            controller.counters().connect_failures == 2
        }),
        "the silent dials never timed out: {:?}",
        controller.counters()
    );
    assert!(opened.elapsed() >= channel.handshake_timeout);
    assert!(both_up());
    assert_eq!(endpoint.counters().reconnects, 0);
    assert_eq!(controller.counters().reconnects, 0);

    drop(controller);
    drop(endpoint);
}

/// A partitioned switch completes no handshake: it does not dial while the
/// partition lasts, so the controller sees no session with a switch it
/// cannot talk to, not one frame and not one dial from it — and the switch
/// re-handshakes, once, when the partition heals.
#[test]
fn partitioned_switch_completes_no_handshake() {
    let channel =
        ChannelConfig::default().with_backoff(Duration::from_millis(5), Duration::from_millis(20));
    let controller = listen(
        Box::new(NullControlPlane),
        ControllerConfig {
            channel,
            ..ControllerConfig::default()
        },
    );
    let switch = Switch::new(DatapathId(1), SwitchProfile::software(), vec![1, 2]);
    let endpoint = SwitchEndpoint::spawn(switch, Vec::new(), addr(&controller), channel).unwrap();
    let connected = || controller.status().connected_switches.len();
    assert!(wait_for(Duration::from_secs(10), || connected() == 1));

    endpoint.inject_fault(Fault::ControlPartition { sw: SwitchId(0) });
    assert!(
        wait_for(Duration::from_secs(10), || connected() == 0),
        "the controller never noticed the session was cut"
    );
    let before = controller.counters();
    let cut = Instant::now();
    while cut.elapsed() < Duration::from_millis(60) {
        // Misses raise packet_ins, which have nowhere to go.
        endpoint.inject(1, udp_flow(1, 100));
        assert_eq!(connected(), 0, "a session across the partition");
        std::thread::sleep(Duration::from_millis(5));
    }
    let during = controller.counters();
    assert_eq!(during.frames_in, before.frames_in);
    assert_eq!(during.reconnects, 0);
    assert_eq!(
        during.connect_failures, before.connect_failures,
        "a partitioned switch dialed"
    );

    endpoint.inject_fault(Fault::ControlHeal { sw: SwitchId(0) });
    assert!(
        wait_for(Duration::from_secs(10), || connected() == 1),
        "no re-handshake after the heal"
    );
    assert_eq!(controller.counters().reconnects, 1);

    drop(controller);
    drop(endpoint);
}

/// The published connection list follows the connection table and nothing
/// else: two switches connect, one goes away, the same one comes back, and
/// `status()` reads right after each step.
#[test]
fn status_follows_connects_and_closes() {
    let controller = ControllerEndpoint::listen(
        Box::new(NullControlPlane),
        "127.0.0.1:0".parse().unwrap(),
        ControllerConfig::default(),
    )
    .unwrap();
    let addr = controller.local_addr().unwrap();
    let dial = |dpid: u64| {
        let mut stream = TcpStream::connect(addr).unwrap();
        let features = FeaturesReply {
            datapath_id: DatapathId(dpid),
            n_buffers: 0,
            n_tables: 1,
            ports: Vec::new(),
        };
        handshake::accept(&mut stream, &features, &ChannelConfig::default()).unwrap();
        stream
    };
    let reads = |want: &[u64]| {
        let want: Vec<DatapathId> = want.iter().copied().map(DatapathId).collect();
        wait_for(Duration::from_secs(10), || {
            controller.status().connected_switches == want
        })
    };

    let one = dial(1);
    let _two = dial(2);
    assert!(reads(&[1, 2]), "{:?}", controller.status());
    drop(one);
    assert!(reads(&[2]), "{:?}", controller.status());
    let _one = dial(1);
    assert!(reads(&[1, 2]), "{:?}", controller.status());
    assert_eq!(controller.counters().reconnects, 1);
}
