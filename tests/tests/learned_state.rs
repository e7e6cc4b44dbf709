//! What an attacker teaches the applications stays out of the rules, and
//! what they learn is bounded (DESIGN.md §25).
//!
//! * A spoofed packet the cache re-raises cannot move a known host: neither
//!   its proactive rule nor the reactive decision for traffic to it.
//! * Leaving Defense loses nothing to the teardown: a packet the switch
//!   redirects to the cache after FloodGuard decided to leave, but before
//!   the switch applied the delete, is taken in and delivered.
//! * On one long-lived simulated system, twenty flood episodes later, no
//!   source first seen through the cache has reached a learned map or a
//!   proactive rule, every map stayed within its bounds, and after a calm
//!   longer than the idle timeout only the benign hosts are left.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bench::{run, Defense, Scenario};
use controller::apps;
use controller::platform::ControllerPlatform;
use floodguard::{FloodGuard, FloodGuardConfig, State};
use netsim::host::{NewFlowProbe, UdpFlood};
use netsim::iface::{ControlOutput, ControlPlane, DeviceId, Telemetry};
use netsim::packet::Packet;
use netsim::{Simulation, SwitchProfile};
use ofproto::actions::Action;
use ofproto::flow_match::FlowKeys;
use ofproto::messages::{FeaturesReply, OfBody, OfMessage, PacketIn, PacketInReason};
use ofproto::types::{DatapathId, MacAddr, PortNo, Xid};
use policy::{Lifetime, Program, Value};

const CACHE_PORT: u16 = 99;
const VICTIM_MAC: u64 = 0xa;
const VICTIM_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

fn packet_in(packet: &Packet, in_port: u16) -> OfMessage {
    let data = packet.to_bytes();
    OfMessage::new(
        Xid(1),
        OfBody::PacketIn(PacketIn {
            buffer_id: None,
            total_len: data.len() as u16,
            in_port: PortNo::Physical(in_port),
            reason: PacketInReason::NoMatch,
            data,
        }),
    )
}

fn udp(src: u64, src_ip: Ipv4Addr, dst: u64, dst_ip: Ipv4Addr) -> Packet {
    Packet::udp(
        MacAddr::from_u64(src),
        MacAddr::from_u64(dst),
        src_ip,
        dst_ip,
        1000,
        2000,
        64,
    )
}

fn telemetry() -> Telemetry {
    Telemetry {
        switches: vec![netsim::iface::SwitchTelemetry {
            dpid: DatapathId(1),
            buffer_utilization: 0.0,
            datapath_utilization: 0.0,
            ingress_len: 0,
            misses: 0,
            flow_count: Some(100),
        }],
        ..Telemetry::default()
    }
}

/// The output ports of the installed proactive rules matching `pick`.
fn rule_ports(fg: &FloodGuard, pick: impl Fn(&ofproto::flow_match::FlowKeys) -> bool) -> Vec<u16> {
    let mut ports: Vec<u16> = fg
        .analyzer()
        .installed()
        .iter()
        .filter(|r| pick(&r.of_match.keys))
        .flat_map(|r| r.actions.iter())
        .filter_map(|a| match a {
            Action::Output(PortNo::Physical(p)) => Some(*p),
            _ => None,
        })
        .collect();
    ports.sort_unstable();
    ports
}

/// The physical output ports of the flow-mods and packet-outs in `out`.
fn outputs(out: &ControlOutput) -> HashSet<u16> {
    out.messages
        .iter()
        .filter_map(|(_, m)| match &m.body {
            OfBody::FlowMod(fm) => Some(fm.actions.clone()),
            OfBody::PacketOut(po) => Some(po.actions.clone()),
            _ => None,
        })
        .flatten()
        .filter_map(|a| match a {
            Action::Output(PortNo::Physical(p)) => Some(p),
            _ => None,
        })
        .collect()
}

/// FloodGuard over l2_learning and l3_learning, connected to one switch
/// with hosts on ports 1–3 and the cache behind [`CACHE_PORT`].
fn floodguard_on_one_switch() -> FloodGuard {
    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    platform.register(apps::l3_learning::program());
    let mut fg = FloodGuard::new(platform, FloodGuardConfig::default(), CACHE_PORT);
    let _cache = fg.build_cache();
    let features = FeaturesReply {
        datapath_id: DatapathId(1),
        n_buffers: 256,
        n_tables: 1,
        ports: [1, 2, 3, CACHE_PORT].map(PortNo::Physical).to_vec(),
    };
    fg.on_switch_connect(DatapathId(1), features, 0.0, &mut ControlOutput::new());
    fg
}

/// Spoofed sources `0x5000 + i` for each `i` in `sources`, from port 3 at
/// `now`, toward a host nobody knows.
fn flood(fg: &mut FloodGuard, now: f64, sources: std::ops::Range<u64>) {
    for i in sources {
        let spoofed = udp(
            0x5000 + i,
            Ipv4Addr::from(0x0b00_0000 + i as u32),
            0x20_0000,
            Ipv4Addr::new(10, 99, 0, 1),
        );
        let out = &mut ControlOutput::new();
        fg.on_message(DatapathId(1), packet_in(&spoofed, 3), now, out);
    }
}

#[test]
fn a_spoofed_claim_through_the_cache_cannot_move_a_known_host() {
    let mut fg = floodguard_on_one_switch();
    let out = &mut ControlOutput::new();
    // The victim talks from port 1 before any attack: learned, trusted.
    let other_ip = Ipv4Addr::new(10, 0, 0, 2);
    let hello = udp(VICTIM_MAC, VICTIM_IP, 0xb, other_ip);
    fg.on_message(DatapathId(1), packet_in(&hello, 1), 0.5, out);
    // A flood from port 3 starts an episode.
    flood(&mut fg, 1.0, 0..60);
    fg.on_telemetry(&telemetry(), 1.05, out);
    fg.on_telemetry(&telemetry(), 1.1, out);
    assert_eq!(fg.state(), State::Defense);
    let to_victim_l2 =
        |k: &ofproto::flow_match::FlowKeys| k.dl_dst == MacAddr::from_u64(VICTIM_MAC);
    let to_victim_l3 = |k: &ofproto::flow_match::FlowKeys| k.nw_dst == VICTIM_IP;
    assert_eq!(rule_ports(&fg, to_victim_l2), vec![1]);
    assert_eq!(rule_ports(&fg, to_victim_l3), vec![1]);

    // The cache re-raises a packet claiming the victim's MAC and IP from
    // port 3, and the next update runs.
    let claim = udp(VICTIM_MAC, VICTIM_IP, 0xb, other_ip);
    fg.on_device_message(DeviceId(0), packet_in(&claim, 3), 1.12, out);
    fg.cache_handle().lock().stats.received = 1000;
    fg.on_telemetry(&telemetry(), 1.15, out);
    assert_eq!(fg.state(), State::Defense);
    assert_eq!(rule_ports(&fg, to_victim_l2), vec![1], "l2 rule moved");
    assert_eq!(rule_ports(&fg, to_victim_l3), vec![1], "l3 rule moved");

    // Reactively too: traffic to the victim still goes out of port 1.
    let reply = udp(0xb, other_ip, VICTIM_MAC, VICTIM_IP);
    let mut answer = ControlOutput::new();
    fg.on_device_message(DeviceId(0), packet_in(&reply, 2), 1.16, &mut answer);
    assert_eq!(
        outputs(&answer),
        HashSet::from([1]),
        "reactive decision moved"
    );
}

/// What the flood's onset taught before detection is demoted at Init
/// (ROADMAP item 16). Host A, learned a second before the flood, keeps its
/// proactive rules. Host B, first learned inside the onset window, is
/// demoted with the flood's sources: in no rule, still served through the
/// cache, and promoted back by its first packet_in from the switch once
/// the episode is over.
#[test]
fn what_the_onset_taught_is_demoted_at_init_and_trusted_traffic_promotes_it() {
    let mut fg = floodguard_on_one_switch();
    let (a, a_ip) = (0x0a, Ipv4Addr::new(10, 0, 0, 1));
    let (b, b_ip) = (0x0b, Ipv4Addr::new(10, 0, 0, 2));
    let (to_a, to_b) = (udp(b, b_ip, a, a_ip), udp(a, a_ip, b, b_ip));
    let out = &mut ControlOutput::new();
    fg.on_message(DatapathId(1), packet_in(&to_b, 1), 0.0, out);
    // The flood from port 3 at 1 s, and B's first packet in the middle of
    // it, inside the detector's window (0.25 s) before the detection at
    // 1.05 s.
    flood(&mut fg, 1.0, 0..30);
    fg.on_message(DatapathId(1), packet_in(&to_a, 2), 1.0, out);
    flood(&mut fg, 1.0, 30..60);
    fg.on_telemetry(&telemetry(), 1.05, out);
    assert_eq!(fg.state(), State::Init);
    assert_eq!(
        fg.stats.demoted_at_init, 0,
        "nothing moves before the update"
    );
    fg.on_telemetry(&telemetry(), 1.1, out);
    assert_eq!(fg.state(), State::Defense);

    let mac = MacAddr::from_u64;
    let l2 = |k: &FlowKeys, m: u64| k.dl_dst == mac(m);
    let l3 = |k: &FlowKeys, ip: Ipv4Addr| k.nw_dst == ip;
    assert_eq!(rule_ports(&fg, |k| l2(k, a)), vec![1]);
    assert_eq!(rule_ports(&fg, |k| l3(k, a_ip)), vec![1]);
    assert_eq!(fg.analyzer().installed().len(), 2, "A's rules only");
    // B and the sixty spoofed sources, in both apps.
    assert_eq!(fg.stats.demoted_at_init, 2 * 61);
    let quarantined = |fg: &FloodGuard, app: &str, map: &str, key: Value| {
        let env = &fg.platform().app(app).unwrap().env;
        env.quarantined(map, &key).cloned()
    };
    let b_in_l2 = |fg: &FloodGuard| quarantined(fg, "l2_learning", "macToPort", Value::Mac(mac(b)));
    let b_in_l3 = |fg: &FloodGuard| quarantined(fg, "l3_learning", "ipToPort", Value::Ip(b_ip));
    assert_eq!(b_in_l2(&fg), Some(Value::Int(2)));
    assert_eq!(b_in_l3(&fg), Some(Value::Int(2)));
    for i in 0..60 {
        let source = Value::Mac(mac(0x5000 + i));
        assert!(quarantined(&fg, "l2_learning", "macToPort", source).is_some());
    }

    // Defended, A's new flow to B misses every rule and detours through
    // the cache: the handler reads B's port from quarantine.
    fg.cache_handle().lock().stats.received = 1000;
    let mut answer = ControlOutput::new();
    fg.on_device_message(DeviceId(0), packet_in(&to_b, 1), 1.12, &mut answer);
    assert_eq!(
        outputs(&answer),
        HashSet::from([2]),
        "B is served through the cache"
    );

    // A cache re-raise claiming B's MAC and IP from the attacker's port
    // overwrites B's quarantined value, as it would any quarantined
    // entry's; it reaches no rule.
    let claim = udp(b, b_ip, 0xff, Ipv4Addr::new(10, 99, 0, 1));
    fg.on_device_message(DeviceId(0), packet_in(&claim, 3), 1.13, out);
    assert_eq!(b_in_l2(&fg), Some(Value::Int(3)));
    assert_eq!(b_in_l3(&fg), Some(Value::Int(3)));
    fg.cache_handle().lock().stats.received = 2000;
    fg.on_telemetry(&telemetry(), 1.15, out);
    assert_eq!(fg.state(), State::Defense);
    assert_eq!(rule_ports(&fg, |k| l2(k, b) || l3(k, b_ip)), vec![]);
    assert_eq!(fg.analyzer().installed().len(), 2);

    // Quiet cache: the episode ends.
    let mut now = 1.2;
    while fg.state() != State::Idle && now < 5.0 {
        fg.on_telemetry(&telemetry(), now, &mut ControlOutput::new());
        now += 0.1;
    }
    assert_eq!(fg.state(), State::Idle);

    // B's first packet_in from the switch promotes it, with its own port.
    fg.on_message(DatapathId(1), packet_in(&to_a, 2), now, out);
    assert_eq!(b_in_l2(&fg), None);
    assert_eq!(b_in_l3(&fg), None);
    let l2_env = &fg.platform().app("l2_learning").unwrap().env;
    let l2_map = l2_env.get("macToPort").unwrap().as_map().unwrap();
    assert_eq!(l2_map.get(&Value::Mac(mac(b))), Some(&Value::Int(2)));
    let l3_env = &fg.platform().app("l3_learning").unwrap().env;
    let l3_map = l3_env.get("ipToPort").unwrap().as_map().unwrap();
    assert_eq!(l3_map.get(&Value::Ip(b_ip)), Some(&Value::Int(2)));

    // A second flood a second later: B is older than its onset window now,
    // and gets its rules.
    let next = now + 1.0;
    flood(&mut fg, next, 0..60);
    fg.on_telemetry(&telemetry(), next + 0.05, out);
    fg.on_telemetry(&telemetry(), next + 0.1, out);
    assert_eq!(fg.state(), State::Defense);
    assert_eq!(rule_ports(&fg, |k| l2(k, b)), vec![2]);
    assert_eq!(rule_ports(&fg, |k| l3(k, b_ip)), vec![2]);
    assert_eq!(rule_ports(&fg, |k| l2(k, a)), vec![1]);
    assert_eq!(fg.analyzer().installed().len(), 4, "A's and B's rules");
}

/// A flood on h3 from 1 s to 2 s, FloodGuard defending, no bulk traffic.
fn one_episode() -> Scenario {
    let mut s = Scenario::software()
        .with_defense(Defense::FloodGuard(FloodGuardConfig::default()))
        .with_attack(500.0);
    s.attack_start = 1.0;
    s.attack_stop = 2.0;
    s.duration = 5.0;
    s.bulk = false;
    s
}

#[test]
fn a_probe_redirected_after_the_finish_decision_is_delivered() {
    // Where the episode decides to leave Defense (the simulator is
    // deterministic, so a second run decides at the same instant).
    let finish = run(&one_episode())
        .fg_transitions
        .iter()
        .find(|t| t.to == State::Finish)
        .expect("the episode ends")
        .at;
    // A new flow to an unknown destination, sent just after the decision:
    // it reaches the switch before the redirect's delete does, so the
    // switch hands it to the cache.
    let mut s = one_episode();
    s.unknown_probes = vec![finish + 1e-6];
    let outcome = run(&s);
    let rejected = outcome.cache.expect("cache").lock().stats.rejected;
    assert_eq!(rejected, 0, "the cache refused packets during the teardown");
    let (_, delay) = outcome.probe_delays[0];
    assert!(delay.is_some(), "the probe was lost to the teardown");
}

/// Shares a FloodGuard between the control plane's runner (the simulator
/// or a live endpoint) and the test, and notes every packet_in source by
/// the way it first came — straight from the switch or re-raised by the
/// cache — and when each FSM state was entered.
#[derive(Clone)]
struct Watched {
    fg: Arc<Mutex<FloodGuard>>,
    seen: Arc<Mutex<Seen>>,
}

#[derive(Default)]
struct Seen {
    from_switch: HashSet<MacAddr>,
    /// Sources seen through the cache, and when first.
    from_cache: HashMap<MacAddr, Instant>,
    /// States entered, and when.
    entered: Vec<(State, Instant)>,
}

impl Seen {
    /// Sources only ever seen through the cache.
    fn cache_only(&self) -> impl Iterator<Item = &MacAddr> {
        self.from_cache
            .keys()
            .filter(|m| !self.from_switch.contains(m))
    }

    /// When `state` was last entered.
    fn entered(&self, state: State) -> Option<Instant> {
        self.entered
            .iter()
            .rev()
            .find(|(s, _)| *s == state)
            .map(|&(_, at)| at)
    }
}

impl Watched {
    fn new(fg: FloodGuard) -> Watched {
        Watched {
            fg: Arc::new(Mutex::new(fg)),
            seen: Arc::default(),
        }
    }

    /// Runs `f` on the FloodGuard and notes a state it entered.
    fn with<T>(&self, f: impl FnOnce(&mut FloodGuard) -> T) -> T {
        let mut fg = self.fg.lock().unwrap();
        let before = fg.state();
        let result = f(&mut fg);
        if fg.state() != before {
            self.seen
                .lock()
                .unwrap()
                .entered
                .push((fg.state(), Instant::now()));
        }
        result
    }

    /// Checks that no source only ever seen through the cache is in an
    /// application's learned map or in a proactive rule, and that every map
    /// and overlay is within its bounds.
    fn check(&self, lifetime: Lifetime, when: &str) {
        let fg = self.fg.lock().unwrap();
        let seen = self.seen.lock().unwrap();
        for app in fg.platform().apps() {
            for name in app.program.learned_maps() {
                let map = app.env.get(name).unwrap().as_map().unwrap();
                assert!(
                    map.len() <= lifetime.capacity as usize,
                    "{when}: {name} holds {}",
                    map.len()
                );
                for mac in seen.cache_only() {
                    assert!(
                        !map.contains_key(&Value::Mac(*mac)),
                        "{when}: cache-first {mac:?} in {name}"
                    );
                }
            }
            assert!(app.env.quarantined_len() <= lifetime.quarantine as usize);
        }
        for rule in fg.analyzer().installed() {
            assert!(
                seen.cache_only()
                    .all(|mac| rule.of_match.keys.dl_dst != *mac),
                "{when}: a rule names cache-first {:?}",
                rule.of_match.keys.dl_dst
            );
        }
    }
}

fn source_of(msg: &OfMessage) -> Option<MacAddr> {
    let OfBody::PacketIn(pi) = &msg.body else {
        return None;
    };
    Packet::parse(&pi.data).map(|p| p.src_mac)
}

impl ControlPlane for Watched {
    fn on_switch_connect(
        &mut self,
        dpid: DatapathId,
        features: FeaturesReply,
        now: f64,
        out: &mut ControlOutput,
    ) {
        self.with(|fg| fg.on_switch_connect(dpid, features, now, out));
    }

    fn on_message(&mut self, dpid: DatapathId, msg: OfMessage, now: f64, out: &mut ControlOutput) {
        if let Some(mac) = source_of(&msg) {
            self.seen.lock().unwrap().from_switch.insert(mac);
        }
        self.with(|fg| fg.on_message(dpid, msg, now, out));
    }

    fn on_device_message(
        &mut self,
        device: DeviceId,
        msg: OfMessage,
        now: f64,
        out: &mut ControlOutput,
    ) {
        if let Some(mac) = source_of(&msg) {
            let arrived = Instant::now();
            self.seen
                .lock()
                .unwrap()
                .from_cache
                .entry(mac)
                .or_insert(arrived);
        }
        self.with(|fg| fg.on_device_message(device, msg, now, out));
    }

    fn on_switch_disconnect(&mut self, dpid: DatapathId, now: f64, out: &mut ControlOutput) {
        self.with(|fg| fg.on_switch_disconnect(dpid, now, out));
    }

    fn on_telemetry(&mut self, telemetry: &Telemetry, now: f64, out: &mut ControlOutput) {
        self.with(|fg| fg.on_telemetry(telemetry, now, out));
    }
}

/// The learned maps' short test lifetime: a few episodes' worth of
/// pre-detection sources fill the map, and a calm of 6 s empties it.
const SHORT: Lifetime = Lifetime {
    idle_timeout: 5,
    hard_timeout: 30,
    capacity: 64,
    quarantine: 32,
};

fn with_lifetime(mut program: Program, lifetime: Lifetime) -> Program {
    for g in &mut program.globals {
        if g.lifetime.is_some() {
            g.lifetime = Some(lifetime);
        }
    }
    program
}

const EPISODES: usize = 20;
const EPISODE_S: f64 = 2.0;
const FLOOD_S: f64 = 0.5;

#[test]
fn twenty_episodes_on_one_system_leave_no_cache_first_source_in_the_rules() {
    let mut sim = Simulation::new(7);
    let sw = sim.add_switch(SwitchProfile::software(), vec![1, 2, 3, CACHE_PORT]);
    let benign = [
        (0x0a01, Ipv4Addr::new(10, 0, 0, 1)),
        (0x0a02, Ipv4Addr::new(10, 0, 0, 2)),
    ];
    let h1 = sim.add_host(sw, 1, MacAddr::from_u64(benign[0].0), benign[0].1);
    sim.add_host(sw, 2, MacAddr::from_u64(benign[1].0), benign[1].1);
    let h3 = sim.add_host(sw, 3, MacAddr::from_u64(0x0a03), Ipv4Addr::new(10, 0, 0, 3));
    let mut platform = ControllerPlatform::new();
    platform.register(with_lifetime(apps::l2_learning::program(), SHORT));
    platform.register(with_lifetime(apps::l3_learning::program(), SHORT));
    let mut fg = FloodGuard::new(platform, FloodGuardConfig::default(), CACHE_PORT);
    let cache = fg.build_cache();
    let profile = SwitchProfile::software();
    sim.attach_device(
        sw,
        CACHE_PORT,
        Box::new(cache),
        profile.channel_bandwidth,
        profile.channel_latency,
        1e-3,
    );
    let watched = Watched::new(fg);
    sim.set_control_plane(Box::new(watched.clone()));
    for e in 0..EPISODES {
        let start = 1.0 + e as f64 * EPISODE_S;
        let flood = UdpFlood::new(MacAddr::from_u64(0x0a03), 500.0, start, start + FLOOD_S, 64);
        sim.host_mut(h3).add_source(Box::new(flood));
        // A benign new flow each episode, before the flood: h1 and h2 stay
        // known from trusted traffic.
        let probe = NewFlowProbe::new(
            MacAddr::from_u64(benign[0].0),
            benign[0].1,
            MacAddr::from_u64(benign[1].0),
            benign[1].1,
            e as u32 + 1,
            start - 0.5,
        );
        sim.host_mut(h1).add_source(Box::new(probe));
    }

    // A last benign flow after the episodes' calm, added before the run:
    // the simulator schedules a host's sources when it starts.
    let calm_end = 1.0 + EPISODES as f64 * EPISODE_S + SHORT.idle_timeout as f64 + 1.0;
    let last_probe = NewFlowProbe::new(
        MacAddr::from_u64(benign[0].0),
        benign[0].1,
        MacAddr::from_u64(benign[1].0),
        benign[1].1,
        EPISODES as u32 + 1,
        calm_end - 1.0,
    );
    sim.host_mut(h1).add_source(Box::new(last_probe));

    let benign_macs: HashSet<MacAddr> = benign.iter().map(|&(m, _)| MacAddr::from_u64(m)).collect();
    let mut learned_peak = 0;
    let mut quarantined_peak = 0;
    for e in 0..EPISODES {
        sim.run_until(1.0 + (e + 1) as f64 * EPISODE_S);
        watched.check(SHORT, &format!("episode {e}"));
        let fg = watched.fg.lock().unwrap();
        learned_peak = learned_peak.max(fg.platform().learned_entries());
        quarantined_peak = quarantined_peak.max(fg.platform().quarantined_entries());
    }
    {
        let fg = watched.fg.lock().unwrap();
        let seen = watched.seen.lock().unwrap();
        assert_eq!(
            fg.stats.attacks_detected, EPISODES as u64,
            "one detection per episode"
        );
        assert_eq!(fg.stats.attacks_ended, EPISODES as u64);
        assert!(
            seen.cache_only().count() > 100,
            "the cache re-raised the flood"
        );
        assert_eq!(fg.stats.teardown_unanswered, 0);
        assert!(quarantined_peak > 0 && learned_peak > 0);
        assert!(fg.platform().aged_out() > 0, "the bounds were reached");
    }
    // A calm longer than the idle timeout: the spoofed sources idle out of
    // every map and overlay; only benign hosts may be left.
    sim.run_until(calm_end);
    let fg = watched.fg.lock().unwrap();
    assert_eq!(fg.state(), State::Idle);
    assert_eq!(fg.platform().quarantined_entries(), 0);
    for app in fg.platform().apps() {
        let name = app.program.learned_maps()[0];
        let map = app.env.get(name).unwrap().as_map().unwrap();
        for key in map.keys() {
            let benign_key = match key {
                Value::Mac(mac) => benign_macs.contains(mac),
                Value::Ip(ip) => benign.iter().any(|&(_, b)| b == *ip),
                _ => false,
            };
            assert!(
                benign_key,
                "{}: {key:?} outlived the calm",
                app.program.name
            );
        }
    }
}

/// Polls `probe` every 5 ms until it holds or `deadline` passes.
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

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The live twin of the simulator's long-lived test: twenty short flood
/// episodes against one FloodGuard behind real sockets, with fgbench's
/// 4096-frame send queues. Prints each episode's onset (flood start to
/// Init), rules-ready (to Defense, whose first tick sends the rules) and
/// the latency of a benign probe through the cache: the baseline for
/// ROADMAP item 1's open drift bound.
#[test]
fn twenty_live_episodes_on_one_system_stay_bounded_and_lose_nothing() {
    use floodguard::{CacheConfig, DetectionConfig};
    use netsim::switch::Switch;
    use ofchannel::{ChannelConfig, ControllerConfig, ControllerEndpoint, SwitchEndpoint};

    let started = Instant::now();
    let detection = DetectionConfig {
        rate_capacity_pps: 50.0,
        score_threshold: 0.2,
        rate_weight: 1.0,
        buffer_weight: 0.0,
        datapath_weight: 0.0,
        controller_weight: 0.0,
        // Short episodes: the calm that ends one is a tenth of a second, and
        // the held score decays in about as long.
        end_hysteresis: 0.1,
        score_hold_half_life: 0.05,
        ..DetectionConfig::default()
    };
    let config = FloodGuardConfig {
        detection,
        // A backlog the cache drains in about a tenth of a second.
        cache: CacheConfig {
            queue_capacity: 16,
            ..CacheConfig::default()
        },
        ..FloodGuardConfig::default()
    };
    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    platform.register(apps::l3_learning::program());
    let mut fg = FloodGuard::new(platform, config, CACHE_PORT);
    let cache_stats = fg.cache_handle();
    let cache = fg.build_cache();
    let watched = Watched::new(fg);
    let controller_config = ControllerConfig {
        channel: ChannelConfig::default().with_send_queue_cap(4096),
        telemetry_interval: Duration::from_millis(20),
        ..ControllerConfig::default()
    };
    let controller = ControllerEndpoint::listen(
        Box::new(watched.clone()),
        "127.0.0.1:0".parse().unwrap(),
        controller_config,
    )
    .unwrap();
    let switch = Switch::new(
        DatapathId(1),
        SwitchProfile::software(),
        vec![1, 2, 3, CACHE_PORT],
    );
    let endpoint = SwitchEndpoint::spawn(
        switch,
        vec![(CACHE_PORT, Box::new(cache))],
        controller.local_addr().unwrap(),
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
    let state = || watched.fg.lock().unwrap().state();
    // Two benign hosts introduce themselves before any attack.
    let (h1, h2) = (
        (0x0a01, Ipv4Addr::new(10, 0, 0, 1)),
        (0x0a02, Ipv4Addr::new(10, 0, 0, 2)),
    );
    endpoint.inject(1, udp(h1.0, h1.1, h2.0, h2.1));
    endpoint.inject(2, udp(h2.0, h2.1, h1.0, h1.1));
    assert!(wait_for(Duration::from_secs(5), || {
        watched.fg.lock().unwrap().platform().learned_entries() == 4
    }));

    let mut spoofed = 0u64;
    for e in 0..EPISODES {
        // The flood, until Defense has run for 100 ms with the cache
        // feeding it.
        let flood_at = Instant::now();
        let defended = wait_for(Duration::from_secs(2), || {
            for _ in 0..5 {
                let ip = Ipv4Addr::from(0x0b00_0000 + spoofed as u32);
                // Toward nobody known, so no installed rule absorbs it.
                let victim = Ipv4Addr::new(10, 99, 0, 1);
                endpoint.inject(3, udp(0x02_0000_0000 + spoofed, ip, 0x20_0000, victim));
                spoofed += 1;
            }
            // Lock order: FloodGuard, then what was seen (as `Watched::with`).
            state() == State::Defense
                && watched
                    .seen
                    .lock()
                    .unwrap()
                    .entered(State::Defense)
                    .is_some_and(|at| at > flood_at && at.elapsed() > Duration::from_millis(100))
        });
        assert!(defended, "episode {e}: no defense");
        // A benign new flow toward a host nobody knows yet, while defended:
        // no proactive rule matches it, so it detours through the cache.
        let probe_mac = MacAddr::from_u64(0x0c00 + e as u64);
        let probe_at = Instant::now();
        let probe = Packet::tcp(
            probe_mac,
            MacAddr::from_u64(0x0d00 + e as u64),
            Ipv4Addr::new(10, 0, 1, e as u8),
            Ipv4Addr::new(10, 0, 2, e as u8),
            40000 + e as u16,
            80,
            netsim::packet::Transport::TCP_SYN,
            64,
        );
        endpoint.inject(1, probe);
        assert!(
            wait_for(Duration::from_secs(3), || state() == State::Idle),
            "episode {e}: never back to Idle"
        );
        watched.check(Lifetime::LEARNED, &format!("live episode {e}"));
        let seen = watched.seen.lock().unwrap();
        let at = |s: State| seen.entered(s).expect("entered");
        let probe_ms = seen.from_cache.get(&probe_mac).map(|&t| ms(t - probe_at));
        println!(
            "episode {e}: onset {:.1} ms, rules-ready {:.1} ms, probe {}",
            ms(at(State::Init) - flood_at),
            ms(at(State::Defense) - flood_at),
            probe_ms.map_or("lost".to_owned(), |p| format!("{p:.1} ms"))
        );
        assert!(
            probe_ms.is_some(),
            "episode {e}: the probe never reached the controller"
        );
    }
    let fg = watched.fg.lock().unwrap();
    assert_eq!(fg.stats.attacks_detected, EPISODES as u64);
    assert_eq!(fg.stats.teardown_unanswered, 0);
    assert_eq!(cache_stats.lock().stats.rejected, 0, "teardown rejects");
    let transport = controller.counters();
    assert_eq!(
        (transport.sends_blocked, transport.budget_exhausted),
        (0, 0),
        "frames shed"
    );
    assert!(watched.seen.lock().unwrap().cache_only().count() > EPISODES);
    drop(fg);
    drop(controller);
    drop(endpoint);
    let wall = started.elapsed();
    println!("{EPISODES} live episodes in {:.1} s", wall.as_secs_f64());
    assert!(wall < Duration::from_secs(15), "{wall:?}");
}

/// One fgbench-shaped episode on the default 256-frame send queues: a calm
/// lead-in longer than the detector's window, then a spoofed flood of
/// about 5 k packets a second until Defense has run for 200 ms, with
/// detection tripping at 1000 packet_in/s. Nothing is shed on the way to
/// the switch, and every proactive rule FloodGuard emits is in its table
/// (ROADMAP item 1 (i)): the onset's sources, demoted at Init, are not a
/// burst of rules any more.
#[test]
fn a_live_episode_on_the_default_send_queue_sheds_nothing() {
    use floodguard::DetectionConfig;
    use netsim::switch::Switch;
    use ofchannel::{ChannelConfig, ControllerConfig, ControllerEndpoint, SwitchEndpoint};

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
        // A backlog the cache drains in half a second.
        cache: floodguard::CacheConfig {
            queue_capacity: 64,
            ..floodguard::CacheConfig::default()
        },
        ..FloodGuardConfig::default()
    };
    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    platform.register(apps::l3_learning::program());
    let benign = (MacAddr::from_u64(VICTIM_MAC), VICTIM_IP);
    let env = &mut platform.app_mut("l2_learning").unwrap().env;
    apps::l2_learning::learn_host(env, benign.0, 1);
    let env = &mut platform.app_mut("l3_learning").unwrap().env;
    apps::l3_learning::learn_host(env, benign.1, 1);
    let mut fg = FloodGuard::new(platform, config, CACHE_PORT);
    let monitor = fg.monitor_handle();
    let cache = fg.build_cache();
    let controller_config = ControllerConfig {
        channel: ChannelConfig::default(),
        telemetry_interval: Duration::from_millis(20),
        ..ControllerConfig::default()
    };
    let listening = Instant::now();
    let controller = ControllerEndpoint::listen(
        Box::new(fg),
        "127.0.0.1:0".parse().unwrap(),
        controller_config,
    )
    .unwrap();
    let switch = Switch::new(
        DatapathId(1),
        SwitchProfile::software(),
        vec![1, 2, 3, CACHE_PORT],
    );
    let endpoint = SwitchEndpoint::spawn(
        switch,
        vec![(CACHE_PORT, Box::new(cache))],
        controller.local_addr().unwrap(),
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
    assert!(wait_for(Duration::from_secs(10), || {
        listening.elapsed() > Duration::from_millis(400)
    }));

    let mut spoofed = 0u64;
    let mut defended_since = None;
    let defended = wait_for(Duration::from_secs(10), || {
        for _ in 0..25 {
            let ip = Ipv4Addr::from(0x0b00_0000 + spoofed as u32);
            let victim = Ipv4Addr::new(10, 99, 0, 1);
            endpoint.inject(3, udp(0x02_0000_0000 + spoofed, ip, 0x20_0000, victim));
            spoofed += 1;
        }
        if monitor.lock().state == Some(State::Defense) {
            let since = *defended_since.get_or_insert_with(Instant::now);
            return since.elapsed() > Duration::from_millis(200);
        }
        false
    });
    assert!(defended, "no defense: {:?}", monitor.lock().stats);
    assert!(
        wait_for(Duration::from_secs(10), || {
            monitor.lock().state == Some(State::Idle)
        }),
        "the episode never ended: {:?}",
        monitor.lock().transitions
    );

    let stats = monitor.lock().stats;
    assert_eq!(stats.attacks_detected, 1);
    assert!(stats.demoted_at_init > 0, "the onset taught nothing");
    let transport = controller.counters();
    assert_eq!(
        (transport.sends_blocked, transport.budget_exhausted),
        (0, 0),
        "frames shed (send queue high-water mark {})",
        transport.send_queue_hwm
    );
    // Emitted is received: the switch decoded every frame the controller
    // wrote, and its table holds every proactive rule (the redirects are
    // gone since Finish; the rules' idle timeouts are 10 s).
    let cookie = FloodGuardConfig::default().cookie;
    let emitted = (stats.proactive_installed - stats.proactive_removed) as usize;
    assert!(emitted > 0, "no proactive rule");
    assert!(
        wait_for(Duration::from_secs(10), || {
            let (ours, theirs) = (controller.counters(), endpoint.counters());
            let held = endpoint.flow_rules();
            let received = held.iter().filter(|(_, _, c)| *c == cookie).count();
            ours.frames_out == theirs.frames_in && received == emitted
        }),
        "emitted {emitted}, received {:?}; frames {:?} / {:?}",
        endpoint.flow_rules(),
        controller.counters(),
        endpoint.counters()
    );
    println!(
        "{spoofed} spoofed packets, {} demoted at Init, {emitted} proactive rules, send queue high-water mark {}",
        stats.demoted_at_init, transport.send_queue_hwm
    );
    drop(controller);
    drop(endpoint);
}
