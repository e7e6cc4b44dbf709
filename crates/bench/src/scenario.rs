//! The shared experiment harness: builds the paper's Fig. 9 test topology
//! (two benign clients, one attacker, one OpenFlow switch, a controller and
//! — with FloodGuard — a data plane cache) and runs attack scenarios.
//!
//! Every figure/table harness, integration test and example builds on this
//! module so all results come from the same machinery.

use std::net::Ipv4Addr;

use arena::{
    AttachCtx, AvantGuardDefense, FloodGuardDefense, LineSwitchDefense, NaiveDropDefense,
    SynCookiesDefense,
};
use baselines::lineswitch::LineSwitchConfig;
use baselines::syncookies::SynCookiesConfig;
use controller::apps;
use controller::platform::ControllerPlatform;
use floodguard::cache::CacheHandle;
use floodguard::state::Transition;
use floodguard::FloodGuardConfig;
use netsim::adversary::{
    Adversary as _, AdversaryStats, BotnetFlood, BotnetFloodConfig, ProbeAndEvade,
    ProbeAndEvadeConfig, PulsedFlood, PulsedFloodConfig, SlowDrain, SlowDrainConfig, StatsHandle,
};
use netsim::engine::Simulation;
use netsim::faults::Fault;
use netsim::host::{
    Arrivals, BulkSender, MixedFlood, NewFlowProbe, SynFlood, TrafficSource, UdpFlood,
};
use netsim::packet::{FlowTag, Packet, Payload, Transport};
use netsim::profile::SwitchProfile;
use netsim::synstate::SynTracker;
use ofproto::types::MacAddr;
use policy::Program;

/// MAC of benign sender h1 (port 1).
pub const H1_MAC: MacAddr = MacAddr([0, 0, 0, 0, 0, 0x0a]);
/// MAC of benign receiver h2 (port 2).
pub const H2_MAC: MacAddr = MacAddr([0, 0, 0, 0, 0, 0x0b]);
/// MAC of the attacker h3 (port 3).
pub const H3_MAC: MacAddr = MacAddr([0, 0, 0, 0, 0, 0x0c]);
/// IP of h1.
pub const H1_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// IP of h2.
pub const H2_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// IP of h3.
pub const H3_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
/// Switch port the data plane cache hangs off.
pub const CACHE_PORT: u16 = 99;
/// Switch port the standby cache hangs off (when enabled).
pub const STANDBY_PORT: u16 = 98;

/// Which defense protects the network. Every non-`None` variant resolves
/// to an [`arena::Defense`] backend via [`Defense::build`], so scenarios
/// wire all contenders through the same seam.
#[derive(Debug, Clone)]
pub enum Defense {
    /// Bare reactive controller (the paper's "existing OpenFlow network").
    None,
    /// FloodGuard with the given configuration.
    FloodGuard(FloodGuardConfig),
    /// The naive drop-all strawman.
    NaiveDrop,
    /// AvantGuard-style SYN proxy in the switch datapath.
    AvantGuard,
    /// LineSwitch: edge SYN proxy + probabilistic blacklist + state budget.
    LineSwitch(LineSwitchConfig),
    /// Stateless data-plane SYN cookies.
    SynCookies(SynCookiesConfig),
}

impl Defense {
    /// The arena backend for this defense; `None` for the undefended
    /// baseline.
    pub fn build(&self) -> Option<Box<dyn arena::Defense>> {
        match self {
            Defense::None => None,
            Defense::FloodGuard(config) => Some(Box::new(FloodGuardDefense::new(*config))),
            Defense::NaiveDrop => Some(Box::new(NaiveDropDefense::new())),
            Defense::AvantGuard => Some(Box::new(AvantGuardDefense::default())),
            Defense::LineSwitch(config) => Some(Box::new(LineSwitchDefense::new(*config))),
            Defense::SynCookies(config) => Some(Box::new(SynCookiesDefense::new(*config))),
        }
    }

    /// Stable lowercase identifier (the arena backend's name; "none" for
    /// the undefended baseline).
    pub fn name(&self) -> &'static str {
        match self.build() {
            None => "none",
            Some(d) => d.name(),
        }
    }
}

/// An adaptive attacker on h3 (the [`netsim::adversary`] engine), used
/// instead of the open-loop [`AttackProtocol`] floods when set. Every
/// variant targets the victim h2 with h3's identity.
#[derive(Debug, Clone, Copy)]
pub enum AdversaryProfile {
    /// Slowloris-style connection drain against the victim's SYN state.
    SlowDrain(SlowDrainConfig),
    /// On/off bursts tuned to duck the detector's rate window.
    PulsedFlood(PulsedFloodConfig),
    /// Closed-loop threshold search with forged reserved-band TOS tags.
    ProbeAndEvade(ProbeAndEvadeConfig),
    /// Botnet-scale spoofed flood cycling millions of distinct 5-tuples.
    BotnetFlood(BotnetFloodConfig),
}

impl AdversaryProfile {
    /// Every adversary at its default tuning (the matrix rows).
    pub fn all() -> Vec<AdversaryProfile> {
        vec![
            AdversaryProfile::SlowDrain(SlowDrainConfig::default()),
            AdversaryProfile::PulsedFlood(PulsedFloodConfig::default()),
            AdversaryProfile::ProbeAndEvade(ProbeAndEvadeConfig::default()),
            AdversaryProfile::BotnetFlood(BotnetFloodConfig::default()),
        ]
    }

    /// Stable lowercase identifier (the adversary's own name).
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryProfile::SlowDrain(_) => "slow_drain",
            AdversaryProfile::PulsedFlood(_) => "pulsed_flood",
            AdversaryProfile::ProbeAndEvade(_) => "probe_evade",
            AdversaryProfile::BotnetFlood(_) => "botnet_flood",
        }
    }

    /// Builds the attacker with h3's identity toward the victim h2,
    /// returning the boxed source and a handle to its counters.
    fn build(&self) -> (Box<dyn TrafficSource>, StatsHandle) {
        match self {
            AdversaryProfile::SlowDrain(cfg) => {
                let a = SlowDrain::new(*cfg, H3_MAC, H3_IP, H2_MAC, H2_IP);
                let h = a.stats_handle();
                (Box::new(a), h)
            }
            AdversaryProfile::PulsedFlood(cfg) => {
                let a = PulsedFlood::new(*cfg, H3_MAC);
                let h = a.stats_handle();
                (Box::new(a), h)
            }
            AdversaryProfile::ProbeAndEvade(cfg) => {
                let a = ProbeAndEvade::new(*cfg, H3_MAC, H3_IP, H2_MAC, H2_IP);
                let h = a.stats_handle();
                (Box::new(a), h)
            }
            AdversaryProfile::BotnetFlood(cfg) => {
                let a = BotnetFlood::new(*cfg, H3_MAC);
                let h = a.stats_handle();
                (Box::new(a), h)
            }
        }
    }
}

/// Observability attachment for a scenario run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObsMode {
    /// No obs hub at all (the default; zero cost).
    Off,
    /// Attach the metrics registry but take no snapshots — the
    /// configuration the engine overhead gate measures (<2% target).
    Registry,
    /// Registry plus time-series recorder and trace buffer, snapshotting
    /// every `interval` simulated seconds through the event queue.
    Timeline {
        /// Snapshot period in simulated seconds.
        interval: f64,
    },
}

/// Which flood the attacker sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackProtocol {
    /// Spoofed UDP flood (the paper's §V attack).
    Udp,
    /// Spoofed TCP SYN flood (what AvantGuard can stop).
    TcpSyn,
    /// Cycling UDP/TCP/ICMP flood (the §IV-C2 scheduling-aware attacker).
    Mixed,
}

/// A full scenario description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Switch resource model.
    pub profile: SwitchProfile,
    /// Defense under test.
    pub defense: Defense,
    /// Applications on the controller (default: l2_learning).
    pub apps: Vec<Program>,
    /// Attack rate in packets per second (0 disables).
    pub attack_pps: f64,
    /// Attack start time.
    pub attack_start: f64,
    /// Attack stop time.
    pub attack_stop: f64,
    /// Attack protocol.
    pub attack_protocol: AttackProtocol,
    /// Adaptive attacker on h3 (replaces the open-loop flood; composes
    /// with `attack_pps == 0.0`). The attacker never completes handshakes
    /// offered to it.
    pub adversary: Option<AdversaryProfile>,
    /// Override for the victim h2's half-open tracker capacity (exercises
    /// the bounded-state eviction path under connection-drain attacks).
    pub victim_syn_capacity: Option<usize>,
    /// Run the closed-loop bulk (iperf) pair h1→h2.
    pub bulk: bool,
    /// Packets per simulated bulk batch (event-count control).
    pub bulk_batch: u32,
    /// New-flow probe times (h1→h2 TCP SYNs; Table IV measurement).
    pub probes: Vec<f64>,
    /// Whether h1 completes probe handshakes with the final ACK (default).
    /// Disable for measurements that need probes to stay one-shot misses:
    /// the completing ACK is itself a PacketIn that installs a learned
    /// `dl_dst=h2` rule, which later probes would match in the switch.
    pub probe_handshake: bool,
    /// Probe times toward a destination MAC nobody owns: the packet can
    /// only reach h2 via a controller-driven flood, so it observes whether
    /// unmatched traffic is still forwarded at all (fail-open vs fail-safe).
    pub unknown_probes: Vec<f64>,
    /// Total simulated duration.
    pub duration: f64,
    /// RNG seed.
    pub seed: u64,
    /// Controller machine model override (`None` uses the default).
    pub controller: Option<netsim::ControllerProfile>,
    /// Infrastructure faults to inject, as `(time, fault)` pairs
    /// (scheduled into the deterministic event queue).
    pub faults: Vec<(f64, Fault)>,
    /// Attach a standby data plane cache behind [`STANDBY_PORT`]
    /// (FloodGuard defense only).
    pub standby_cache: bool,
    /// Observability attachment (registry / timeline recorder).
    pub obs: ObsMode,
}

impl Scenario {
    /// A software-environment scenario (Fig. 10 conditions).
    pub fn software() -> Scenario {
        Scenario {
            profile: SwitchProfile::software(),
            defense: Defense::None,
            apps: vec![apps::l2_learning::program()],
            attack_pps: 0.0,
            attack_start: 1.0,
            attack_stop: 4.0,
            attack_protocol: AttackProtocol::Udp,
            adversary: None,
            victim_syn_capacity: None,
            bulk: true,
            bulk_batch: 50,
            probes: Vec::new(),
            probe_handshake: true,
            unknown_probes: Vec::new(),
            duration: 4.0,
            seed: 42,
            controller: None,
            faults: Vec::new(),
            standby_cache: false,
            obs: ObsMode::Off,
        }
    }

    /// A hardware-environment scenario (Fig. 11 conditions).
    pub fn hardware() -> Scenario {
        Scenario {
            profile: SwitchProfile::hardware(),
            bulk_batch: 5,
            ..Scenario::software()
        }
    }

    /// Sets the defense.
    #[must_use]
    pub fn with_defense(mut self, defense: Defense) -> Scenario {
        self.defense = defense;
        self
    }

    /// Sets the attack rate.
    #[must_use]
    pub fn with_attack(mut self, pps: f64) -> Scenario {
        self.attack_pps = pps;
        self
    }

    /// Sets the applications.
    #[must_use]
    pub fn with_apps(mut self, apps: Vec<Program>) -> Scenario {
        self.apps = apps;
        self
    }

    /// Sets the adaptive attacker on h3.
    #[must_use]
    pub fn with_adversary(mut self, adversary: AdversaryProfile) -> Scenario {
        self.adversary = Some(adversary);
        self
    }

    /// Bounds the victim h2's half-open tracker capacity.
    #[must_use]
    pub fn with_victim_syn_capacity(mut self, capacity: usize) -> Scenario {
        self.victim_syn_capacity = Some(capacity);
        self
    }

    /// Schedules `fault` at simulation time `t` (builder style).
    #[must_use]
    pub fn with_fault(mut self, t: f64, fault: Fault) -> Scenario {
        self.faults.push((t, fault));
        self
    }

    /// Attaches a standby cache behind [`STANDBY_PORT`] (FloodGuard only).
    #[must_use]
    pub fn with_standby_cache(mut self) -> Scenario {
        self.standby_cache = true;
        self
    }

    /// Attaches the metrics registry without snapshots (overhead-gate
    /// configuration).
    #[must_use]
    pub fn with_obs_registry(mut self) -> Scenario {
        self.obs = ObsMode::Registry;
        self
    }

    /// Attaches registry + recorder + tracer, snapshotting every
    /// `interval` simulated seconds.
    #[must_use]
    pub fn with_timeline(mut self, interval: f64) -> Scenario {
        self.obs = ObsMode::Timeline { interval };
        self
    }
}

/// The measurements a scenario run produces.
#[derive(Debug)]
pub struct Outcome {
    /// The simulation (inspect hosts, switch, recorder).
    pub sim: Simulation,
    /// Goodput of the bulk flow at h2 over the attack window, bits/s.
    pub bandwidth_bps: f64,
    /// Baseline goodput before the attack window, bits/s.
    pub baseline_bps: f64,
    /// Per-probe first-packet delay: `(probe id, seconds)`; `None` when the
    /// probe never arrived.
    pub probe_delays: Vec<(u32, Option<f64>)>,
    /// FloodGuard state transitions (empty for other defenses).
    pub fg_transitions: Vec<Transition>,
    /// FloodGuard stats (defaults for other defenses).
    pub fg_stats: floodguard::FloodGuardStats,
    /// Controller messages processed / dropped / CPU seconds.
    pub controller: netsim::engine::ControllerStats,
    /// FloodGuard's cache handle (probe residency log, live stats), when
    /// the defense was FloodGuard.
    pub cache: Option<CacheHandle>,
    /// Normalized per-defense counters ([`arena::DefenseStats`]), when a
    /// defense was attached.
    pub defense_stats: Option<arena::DefenseStats>,
    /// Final counters of the adaptive attacker, when one was attached.
    pub adversary_stats: Option<AdversaryStats>,
    /// The obs hub, when the scenario attached one ([`Scenario::obs`]).
    pub obs: Option<obs::ObsHandle>,
}

/// Runs a scenario to completion.
pub fn run(scenario: &Scenario) -> Outcome {
    let mut sim = Simulation::new(scenario.seed);
    if let Some(profile) = scenario.controller {
        sim.set_controller_profile(profile);
    }
    let hub = match scenario.obs {
        ObsMode::Off => None,
        ObsMode::Registry => {
            let hub = obs::Obs::new();
            sim.attach_obs(hub.clone(), None);
            Some(hub)
        }
        ObsMode::Timeline { interval } => {
            let hub = obs::Obs::new();
            hub.set_recording(true);
            hub.set_tracing(true);
            sim.attach_obs(hub.clone(), Some(interval));
            Some(hub)
        }
    };
    let ports = if scenario.standby_cache {
        vec![1, 2, 3, STANDBY_PORT, CACHE_PORT]
    } else {
        vec![1, 2, 3, CACHE_PORT]
    };
    let sw = sim.add_switch(scenario.profile, ports);
    let h1 = sim.add_host(sw, 1, H1_MAC, H1_IP);
    let h2 = sim.add_host(sw, 2, H2_MAC, H2_IP);
    let h3 = sim.add_host(sw, 3, H3_MAC, H3_IP);
    sim.host_mut(h1).complete_handshakes = scenario.probe_handshake;

    // Control plane.
    let mut platform = ControllerPlatform::new();
    for program in &scenario.apps {
        platform.register(program.clone());
    }
    let mut defense = scenario.defense.build();
    match &mut defense {
        None => sim.set_control_plane(Box::new(platform)),
        Some(d) => {
            let mut ctx = AttachCtx {
                sim: &mut sim,
                sw,
                profile: scenario.profile,
                cache_port: CACHE_PORT,
                standby_port: STANDBY_PORT,
                standby_cache: scenario.standby_cache,
                obs: hub.as_ref(),
            };
            d.attach(platform, &mut ctx);
        }
    }
    let fg_handle = defense.as_ref().and_then(|d| d.cache());
    let fg_monitor = defense.as_ref().and_then(|d| d.monitor());

    // Workloads.
    if scenario.bulk {
        sim.host_mut(h1).add_source(Box::new(BulkSender::new(
            H1_MAC,
            H1_IP,
            H2_MAC,
            H2_IP,
            1,
            8,
            scenario.bulk_batch,
            1500,
            0.05,
        )));
    }
    if scenario.attack_pps > 0.0 {
        match scenario.attack_protocol {
            AttackProtocol::Udp => {
                sim.host_mut(h3).add_source(Box::new(UdpFlood::new(
                    H3_MAC,
                    scenario.attack_pps,
                    scenario.attack_start,
                    scenario.attack_stop,
                    64,
                )));
            }
            AttackProtocol::TcpSyn => {
                sim.host_mut(h3).add_source(Box::new(SynFlood::new(
                    H3_MAC,
                    scenario.attack_pps,
                    scenario.attack_start,
                    scenario.attack_stop,
                )));
            }
            AttackProtocol::Mixed => {
                sim.host_mut(h3).add_source(Box::new(MixedFlood::new(
                    H3_MAC,
                    scenario.attack_pps,
                    scenario.attack_start,
                    scenario.attack_stop,
                )));
            }
        }
    }
    let adversary_handle = scenario.adversary.as_ref().map(|profile| {
        let (source, handle) = profile.build();
        // The attacker never completes handshakes it is offered: SlowDrain's
        // whole point is leaving the victim's half-open slots occupied.
        sim.host_mut(h3).complete_handshakes = false;
        sim.host_mut(h3).add_source(source);
        handle
    });
    if let Some(capacity) = scenario.victim_syn_capacity {
        sim.host_mut(h2).syn = SynTracker::new(capacity, 5.0);
    }
    let mut probe_ids = Vec::new();
    for (i, &at) in scenario.probes.iter().enumerate() {
        let id = i as u32 + 1;
        probe_ids.push((id, at));
        sim.host_mut(h1).add_source(Box::new(NewFlowProbe::new(
            H1_MAC, H1_IP, H2_MAC, H2_IP, id, at,
        )));
    }
    for (i, &at) in scenario.unknown_probes.iter().enumerate() {
        let id = (scenario.probes.len() + i) as u32 + 1;
        probe_ids.push((id, at));
        // No host owns this MAC: delivery to h2 requires a flood decision.
        sim.host_mut(h1).add_source(Box::new(NewFlowProbe::new(
            H1_MAC,
            H1_IP,
            MacAddr::from_u64(0x00DE_AD00_0001),
            Ipv4Addr::new(10, 0, 0, 77),
            id,
            at,
        )));
    }

    for &(at, fault) in &scenario.faults {
        sim.schedule_fault(at, fault);
    }

    // What is measured at h2, declared before the run: the goodput of the
    // attack window's last 80 % and of the baseline before it, and the
    // probes' arrivals.
    let attack_window = (
        scenario.attack_start.min(scenario.duration),
        scenario.attack_stop.min(scenario.duration),
    );
    let bandwidth_window = (
        attack_window.0 + 0.2 * (attack_window.1 - attack_window.0),
        attack_window.1,
    );
    let baseline_window = (0.3, scenario.attack_start.min(scenario.duration));
    let ids: Vec<u32> = probe_ids.iter().map(|&(id, _)| id).collect();
    let recorder = Arrivals::new(move |p| ids.iter().any(|&id| is_probe_arrival(p, id)));
    let probe_arrivals = recorder.log();
    let receiver = sim.host_mut(h2);
    receiver.meter.watch(bandwidth_window.0, bandwidth_window.1);
    receiver.meter.watch(baseline_window.0, baseline_window.1);
    receiver.add_source(Box::new(recorder));

    sim.run_until(scenario.duration);
    if let Some(d) = &mut defense {
        d.detach(&mut sim);
    }

    // Measurements.
    let meter = &sim.host(h2).meter;
    let bandwidth_bps = meter.bps_in(bandwidth_window.0, bandwidth_window.1);
    let baseline_bps = meter.bps_in(baseline_window.0, baseline_window.1);
    let arrivals = probe_arrivals.get();
    let probe_delays = probe_ids
        .iter()
        .map(|&(id, at)| {
            let delivered = arrivals
                .iter()
                .find(|(p, _)| is_probe_arrival(p, id))
                .map(|(_, t)| *t - at);
            (id, delivered)
        })
        .collect();
    let controller = sim.ctrl_stats;
    let (fg_transitions, fg_stats) = fg_monitor
        .map(|m| {
            let monitor = m.lock();
            (monitor.transitions.clone(), monitor.stats)
        })
        .unwrap_or_default();
    let defense_stats = defense.as_ref().map(|d| d.stats());
    let adversary_stats = adversary_handle.map(|h| h.get());
    Outcome {
        bandwidth_bps,
        baseline_bps,
        probe_delays,
        fg_transitions,
        fg_stats,
        controller,
        cache: fg_handle,
        defense_stats,
        adversary_stats,
        obs: hub,
        sim,
    }
}

/// Whether `p` arriving at h2 is probe `id`'s first packet: by tag when the
/// packet came straight through the data plane, or by the probe's
/// deterministic TCP port signature when it detoured through controller
/// bytes (tags do not survive serialization).
fn is_probe_arrival(p: &Packet, id: u32) -> bool {
    p.tag == FlowTag::NewFlow { id }
        // Any handshake segment counts: under a proxying defense the SYN is
        // consumed at the switch and the first packet h2 sees is the final
        // ACK. For non-proxy defenses the SYN still arrives first, so the
        // measured delay is unchanged.
        || matches!(
            p.payload,
            Payload::Ipv4 {
                transport: Transport::Tcp { src_port, dst_port, flags, .. },
                ..
            } if src_port == NewFlowProbe::source_port(id)
                && dst_port == 80
                && flags & (Transport::TCP_SYN | Transport::TCP_ACK) != 0
        )
}

/// Sweeps attack rates and reports `(pps, bandwidth_bps)` — the series of
/// Figs. 10 and 11.
///
/// Each rate runs its own seeded simulation, so the sweep fans out over
/// worker threads ([`crate::par::par_map`]); results keep `rates` order
/// and are identical to a serial sweep.
pub fn bandwidth_sweep(base: &Scenario, rates: &[f64]) -> Vec<(f64, f64)> {
    crate::par::par_map(rates, |&pps| {
        let outcome = run(&base.clone().with_attack(pps));
        (pps, outcome.bandwidth_bps)
    })
}

/// Formats bits/s with an SI suffix.
pub fn human_bps(bps: f64) -> String {
    if bps >= 1e9 {
        format!("{:.2} Gbps", bps / 1e9)
    } else if bps >= 1e6 {
        format!("{:.2} Mbps", bps / 1e6)
    } else if bps >= 1e3 {
        format!("{:.2} Kbps", bps / 1e3)
    } else {
        format!("{bps:.0} bps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_baseline_near_line_rate() {
        let outcome = run(&Scenario {
            duration: 2.0,
            attack_pps: 0.0,
            ..Scenario::software()
        });
        assert!(
            outcome.bandwidth_bps > 1.2e9,
            "got {}",
            human_bps(outcome.bandwidth_bps)
        );
    }

    #[test]
    fn hardware_baseline_near_8mbps() {
        let outcome = run(&Scenario {
            duration: 2.0,
            ..Scenario::hardware()
        });
        assert!(
            (6e6..10e6).contains(&outcome.bandwidth_bps),
            "got {}",
            human_bps(outcome.bandwidth_bps)
        );
    }

    #[test]
    fn attack_collapses_undefended_software_switch() {
        let clean = run(&Scenario::software()).bandwidth_bps;
        let attacked = run(&Scenario::software().with_attack(500.0)).bandwidth_bps;
        assert!(
            attacked < clean * 0.15,
            "clean {} attacked {}",
            human_bps(clean),
            human_bps(attacked)
        );
    }

    #[test]
    fn floodguard_preserves_software_bandwidth() {
        let scenario = Scenario::software()
            .with_defense(Defense::FloodGuard(FloodGuardConfig::default()))
            .with_attack(500.0);
        let outcome = run(&scenario);
        assert!(
            outcome.bandwidth_bps > 1.2e9,
            "got {}",
            human_bps(outcome.bandwidth_bps)
        );
    }

    #[test]
    fn probe_measures_first_packet_delay() {
        let outcome = run(&Scenario {
            probes: vec![0.5],
            duration: 2.0,
            ..Scenario::software()
        });
        let (_, delay) = outcome.probe_delays[0];
        let delay = delay.expect("probe delivered");
        assert!(delay > 0.0 && delay < 0.5, "delay {delay}");
    }
}
