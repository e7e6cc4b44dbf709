//! # floodguard — a DoS attack prevention extension for SDN
//!
//! Reproduction of *FloodGuard: A DoS Attack Prevention Extension in
//! Software-Defined Networks* (Wang, Xu, Gu — DSN 2015).
//!
//! FloodGuard defends reactive OpenFlow networks against the
//! **data-to-control plane saturation attack** with two mechanisms:
//!
//! * a **proactive flow rule analyzer** ([`analyzer`]) that symbolically
//!   executes every controller application offline (Algorithm 1, in the
//!   `symexec` crate) and, when an attack is detected, substitutes the live
//!   values of the applications' state-sensitive variables to derive and
//!   install *proactive flow rules* (Algorithm 2), preserving the network's
//!   main functionality; and
//! * **packet migration** ([`migration`], [`cache`]): per-ingress-port
//!   wildcard rules tag the INPORT into the TOS byte and redirect all
//!   remaining table-miss packets to a **data plane cache**, which buffers
//!   them in four protocol queues and re-submits them to the controller as
//!   rate-limited, round-robin-scheduled `packet_in`s — so benign new flows
//!   are delayed instead of dropped.
//!
//! A four-state machine ([`state`]) governs the lifecycle:
//! Idle → Init → Defense → Finish → Idle.
//!
//! The [`FloodGuard`] type wraps a [`controller::ControllerPlatform`] and
//! implements [`netsim::ControlPlane`], so it drops into a simulation in
//! place of the bare controller — transparent to the applications, as the
//! paper requires.
//!
//! ## Example
//!
//! ```
//! use controller::apps;
//! use controller::platform::ControllerPlatform;
//! use floodguard::{FloodGuard, FloodGuardConfig};
//!
//! let mut platform = ControllerPlatform::new();
//! platform.register(apps::l2_learning::program());
//! let mut fg = FloodGuard::new(platform, FloodGuardConfig::default(), 99);
//! // The cache device shares state with the controller-side agent:
//! let cache = fg.build_cache();
//! assert_eq!(fg.state(), floodguard::State::Idle);
//! # let _ = cache;
//! ```

#![warn(missing_docs)]

pub mod admin;
pub mod analyzer;
pub mod cache;
pub mod config;
pub mod detector;
pub mod migration;
pub mod state;

use controller::platform::ControllerPlatform;
use ofproto::actions::Action;
use ofproto::flow_match::OfMatch;
use ofproto::flow_mod::FlowMod;
use ofproto::messages::{OfBody, OfMessage, StatsReply, StatsRequest};
use ofproto::types::{DatapathId, PortNo, Xid};
use policy::Provenance;

use netsim::iface::{ControlOutput, ControlPlane, DeviceId, Telemetry};

use std::sync::Arc;

use parking_lot::Mutex;

use crate::admin::AdminHandle;
use crate::analyzer::Analyzer;
use crate::cache::{new_handle, CacheHandle, DataPlaneCache};
use crate::detector::Detector;
use crate::migration::{CacheFailover, MigrationAgent};
use crate::state::Transition;

pub use crate::admin::{AdminSnapshot, ThresholdUpdate, Thresholds};
pub use crate::config::{
    CacheConfig, CacheFailPolicy, DetectionConfig, FloodGuardConfig, RecoveryConfig, RulePlacement,
    UpdateStrategy,
};
pub use crate::state::{State, StateMachine};
pub use symexec::{CompressionConfig, CompressionStats};

/// Module name under which FloodGuard's own CPU time is accounted.
pub const MODULE_NAME: &str = "floodguard";

/// Aggregate counters describing a FloodGuard run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FloodGuardStats {
    /// Attacks detected (Idle/Finish → Init transitions).
    pub attacks_detected: u64,
    /// Attack-over events (Defense → Finish transitions).
    pub attacks_ended: u64,
    /// Proactive rules installed over the lifetime.
    pub proactive_installed: u64,
    /// Proactive rules removed by dispatch diffs.
    pub proactive_removed: u64,
    /// Rule-update rounds run while defending.
    pub updates: u64,
    /// `packet_in`s re-raised from the data plane cache.
    pub reraised: u64,
    /// Flow-mods re-sent by rule repair (after a flow-table wipe or a
    /// control-channel reconnect).
    pub rules_repaired: u64,
    /// Cache failovers (standby promotions and recoveries from degraded).
    pub cache_failovers: u64,
    /// Times the defense degraded because no healthy cache remained.
    pub degraded: u64,
    /// Switches a Finish teardown stopped waiting for: they disconnected,
    /// or left their barrier unanswered for [`TEARDOWN_WAIT_S`], before
    /// confirming the redirect rules' removal.
    pub teardown_unanswered: u64,
    /// Learned entries moved into quarantine at Init because they were
    /// first learned within one detector window of the detection.
    pub demoted_at_init: u64,
}

/// How long a Finish teardown waits for a switch to answer its barrier
/// before closing the cache's intake without it.
pub const TEARDOWN_WAIT_S: f64 = 1.0;

/// The high half of a teardown barrier's xid; the low half numbers the
/// episode, so an answer to an earlier teardown is told apart.
const TEARDOWN_XID: u32 = 0x4647_0000;

/// An orderly exit from Defense: the redirect rules' strict deletes went
/// out, each followed by a barrier on its switch, and the cache's intake
/// stays open until every such switch has answered — a switch redirects to
/// the cache until it has applied the delete, and a packet it redirected
/// before must still be taken in and re-raised, not refused. The intake
/// then closes one telemetry tick after the last answer, so that what the
/// switch put on the wire to the cache before answering has arrived.
#[derive(Debug, Clone)]
struct Teardown {
    /// Switches whose barrier reply is outstanding.
    waiting: Vec<DatapathId>,
    /// The strict deletes that went out, kept for a switch given up on.
    deletes: Vec<(DatapathId, FlowMod)>,
    /// The barriers' xid.
    xid: Xid,
    /// When the deletes went out.
    since: f64,
    /// Every switch has answered (or is no longer waited for), as of a
    /// telemetry tick before this one.
    answered: bool,
}

/// Per-switch rule-repair bookkeeping (bounded retry with backoff).
#[derive(Debug, Clone, Copy, Default)]
struct RepairEntry {
    /// A repair round is owed (table wipe detected, or reconnect while
    /// migrating).
    pending: bool,
    /// Rounds already spent on the current incident.
    attempts: u32,
    /// Earliest time the next round may fire.
    next_at: f64,
}

/// A live snapshot of FloodGuard's externally observable state, shared
/// through [`FloodGuard::monitor_handle`] so harnesses can read it after a
/// simulation consumed the boxed control plane.
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    /// Current FSM state.
    pub state: Option<State>,
    /// Transition log so far.
    pub transitions: Vec<Transition>,
    /// Lifetime counters.
    pub stats: FloodGuardStats,
    /// Entries the applications' learned maps hold.
    pub learned_entries: usize,
    /// Entries the applications hold in quarantine.
    pub quarantined_entries: usize,
}

/// Shared handle to [`Monitor`].
pub type MonitorHandle = Arc<Mutex<Monitor>>;

/// FloodGuard's observability handles: registered against an
/// [`obs::Registry`] at [`FloodGuard::attach_obs`] time, refreshed on every
/// telemetry tick (the defense's own clock, so the published series are
/// deterministic).
struct FgObs {
    hub: obs::ObsHandle,
    score: obs::Gauge,
    packet_in_rate: obs::Gauge,
    state: obs::Gauge,
    cache_depth: obs::Gauge,
    cache_class: [obs::Gauge; 4],
    cache_priority: obs::Gauge,
    cache_dropped: obs::Gauge,
    cache_drop_front: obs::Gauge,
    cache_drop_arrival: obs::Gauge,
    reraise_rate: obs::Gauge,
    reraised_total: obs::Gauge,
    rules_installed: obs::Gauge,
    rules_repaired: obs::Gauge,
    conversion_time_us: obs::Histogram,
    conv_cache_hits: obs::Counter,
    conv_cache_misses: obs::Counter,
    rules_converted: obs::Gauge,
    rules_compressed: obs::Gauge,
    learned_entries: obs::Gauge,
    quarantined_entries: obs::Gauge,
    learned_aged_out: obs::Counter,
    demoted_at_init: obs::Gauge,
    last_reraised: u64,
    last_aged_out: u64,
    last_at: f64,
    traced_transitions: usize,
}

/// The FloodGuard control-plane extension.
pub struct FloodGuard {
    platform: ControllerPlatform,
    config: FloodGuardConfig,
    sm: StateMachine,
    detector: Detector,
    analyzer: Analyzer,
    agent: MigrationAgent,
    cache_handle: CacheHandle,
    switch_ports: Vec<(DatapathId, Vec<u16>)>,
    repairs: Vec<(DatapathId, RepairEntry)>,
    /// What each switch last answered this episode's aggregate-stats
    /// requests with: the flow count the audit goes by where telemetry
    /// carries none. Forgotten at Init and whenever the switch's connection
    /// comes or goes — a count from before is not about this table.
    table_counts: Vec<(DatapathId, usize)>,
    /// Datapath each cache device serves, in device-attachment order.
    device_dpids: Vec<DatapathId>,
    /// The teardown in progress in Finish, until the intake closes.
    teardown: Option<Teardown>,
    /// The redirect rules' strict deletes owed to each switch a teardown
    /// gave up on (it disconnected or stayed silent): they may never have
    /// reached it, and the redirects have no timeout. Sent when the switch
    /// next connects while nothing is migrating; Init cancels them all,
    /// since its install supersedes them. One entry per switch at most.
    owed_deletes: Vec<(DatapathId, Vec<FlowMod>)>,
    admin: AdminHandle,
    monitor: MonitorHandle,
    obs: Option<FgObs>,
    /// Lifetime counters.
    pub stats: FloodGuardStats,
}

impl std::fmt::Debug for FloodGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FloodGuard")
            .field("state", &self.sm.state())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FloodGuard {
    /// Wraps `platform`, protecting switches whose cache device hangs off
    /// physical port `cache_port`.
    ///
    /// Runs the offline symbolic-execution phase (Algorithm 1) over every
    /// registered application immediately — the paper's "preparation work"
    /// before the Idle state.
    pub fn new(
        platform: ControllerPlatform,
        config: FloodGuardConfig,
        cache_port: u16,
    ) -> FloodGuard {
        let mut analyzer = Analyzer::offline(platform.apps());
        analyzer.set_compression(config.compression);
        let cache_handle = new_handle(&config.cache);
        let agent = MigrationAgent::new(config, cache_handle.clone(), cache_port);
        FloodGuard {
            platform,
            config,
            sm: StateMachine::new(),
            detector: Detector::new(config.detection),
            analyzer,
            agent,
            cache_handle,
            switch_ports: Vec::new(),
            repairs: Vec::new(),
            table_counts: Vec::new(),
            device_dpids: Vec::new(),
            teardown: None,
            owed_deletes: Vec::new(),
            admin: AdminHandle::new(&config.detection),
            monitor: Arc::new(Mutex::new(Monitor::default())),
            obs: None,
            stats: FloodGuardStats::default(),
        }
    }

    /// Registers FloodGuard's metrics against `hub` and publishes them on
    /// every telemetry tick from then on: the detector score, the observed
    /// `packet_in` rate, per-protocol cache queue depths, drop accounting,
    /// the migration re-raise rate, rule install/repair counters, and the
    /// applications' learned and quarantined entries with the count of
    /// those forgotten by expiry or eviction and of those demoted at Init.
    /// FSM transitions additionally emit instant trace events.
    pub fn attach_obs(&mut self, hub: &obs::ObsHandle) {
        let reg = &hub.registry;
        self.obs = Some(FgObs {
            score: reg.gauge("floodguard.detector_score"),
            packet_in_rate: reg.gauge("floodguard.packet_in_rate"),
            state: reg.gauge("floodguard.state"),
            cache_depth: reg.gauge("floodguard.cache_queue_depth"),
            cache_class: [
                reg.gauge("floodguard.cache_queue_tcp"),
                reg.gauge("floodguard.cache_queue_udp"),
                reg.gauge("floodguard.cache_queue_icmp"),
                reg.gauge("floodguard.cache_queue_default"),
            ],
            cache_priority: reg.gauge("floodguard.cache_queue_priority"),
            cache_dropped: reg.gauge("floodguard.cache_dropped"),
            cache_drop_front: reg.gauge("floodguard.cache_dropped_front"),
            cache_drop_arrival: reg.gauge("floodguard.cache_dropped_arrival"),
            reraise_rate: reg.gauge("floodguard.reraise_rate"),
            reraised_total: reg.gauge("floodguard.reraised"),
            rules_installed: reg.gauge("floodguard.rules_installed"),
            rules_repaired: reg.gauge("floodguard.rules_repaired"),
            conversion_time_us: reg.histogram("floodguard.conversion_time_us"),
            conv_cache_hits: reg.counter("floodguard.conversion_cache_hits"),
            conv_cache_misses: reg.counter("floodguard.conversion_cache_misses"),
            rules_converted: reg.gauge("floodguard.rules_converted"),
            rules_compressed: reg.gauge("floodguard.rules_compressed"),
            learned_entries: reg.gauge("floodguard.learned_entries"),
            quarantined_entries: reg.gauge("floodguard.quarantined_entries"),
            learned_aged_out: reg.counter("floodguard.learned_aged_out"),
            demoted_at_init: reg.gauge("floodguard.demoted_at_init"),
            last_reraised: 0,
            last_aged_out: 0,
            last_at: 0.0,
            traced_transitions: 0,
            hub: hub.clone(),
        });
    }

    /// Publishes the current defense state into the attached obs hub.
    fn publish_obs(&mut self, now: f64) {
        let Some(o) = self.obs.as_mut() else { return };
        // `on_telemetry` already evaluated the score this tick; reusing it
        // keeps obs a pure reader (attaching it must not perturb detection).
        o.score.set(self.detector.last_score());
        o.packet_in_rate.set(self.detector.rate(now));
        o.state.set(match self.sm.state() {
            State::Idle => 0.0,
            State::Init => 1.0,
            State::Defense => 2.0,
            State::Finish => 3.0,
        });
        let cache = self.cache_handle.lock().stats;
        o.cache_depth.set(cache.queued as f64);
        for (i, g) in o.cache_class.iter().enumerate() {
            g.set(cache.queued_per_class[i] as f64);
        }
        o.cache_priority.set(cache.queued_priority as f64);
        o.cache_dropped.set(cache.dropped as f64);
        o.cache_drop_front
            .set(cache.dropped_front.iter().sum::<u64>() as f64);
        o.cache_drop_arrival
            .set(cache.dropped_arrival.iter().sum::<u64>() as f64);
        let dt = now - o.last_at;
        if dt > 0.0 {
            o.reraise_rate
                .set((self.stats.reraised - o.last_reraised) as f64 / dt);
            o.last_reraised = self.stats.reraised;
            o.last_at = now;
        }
        o.reraised_total.set(self.stats.reraised as f64);
        o.rules_installed.set(self.stats.proactive_installed as f64);
        o.rules_repaired.set(self.stats.rules_repaired as f64);
        o.learned_entries
            .set(self.platform.learned_entries() as f64);
        o.quarantined_entries
            .set(self.platform.quarantined_entries() as f64);
        let aged_out = self.platform.aged_out();
        o.learned_aged_out.add(aged_out - o.last_aged_out);
        o.last_aged_out = aged_out;
        o.demoted_at_init.set(self.stats.demoted_at_init as f64);
        // New FSM transitions become instant trace events.
        let log = self.sm.log();
        for t in &log[o.traced_transitions.min(log.len())..] {
            let name = match t.to {
                State::Idle => "fg.enter_idle",
                State::Init => "fg.enter_init",
                State::Defense => "fg.enter_defense",
                State::Finish => "fg.enter_finish",
            };
            o.hub.trace_instant(name, "floodguard", t.at);
        }
        o.traced_transitions = log.len();
    }

    /// A shared monitor reflecting the FSM state, transition log and
    /// counters; refreshed on every telemetry tick.
    pub fn monitor_handle(&self) -> MonitorHandle {
        self.monitor.clone()
    }

    /// The live administration handle: source/port blocklists enforced on
    /// every `packet_in`, and detector thresholds retunable at the next
    /// telemetry tick. Hand it to the `ops` REST server.
    pub fn admin_handle(&self) -> AdminHandle {
        self.admin.clone()
    }

    /// Builds the data plane cache device sharing this instance's handle.
    ///
    /// Attach it to the protected switch's cache port via
    /// [`netsim::Simulation::attach_device`]. In a single-switch deployment
    /// this is all you need; multi-switch deployments use
    /// [`FloodGuard::build_cache_for`] instead.
    pub fn build_cache(&mut self) -> DataPlaneCache {
        self.device_dpids.push(DatapathId(1));
        DataPlaneCache::new(self.config.cache, self.cache_handle.clone())
    }

    /// Builds a dedicated cache for switch `dpid` (§IV-E: "a set of data
    /// plane caches, with each in charge of a subset of switches").
    ///
    /// Caches must be attached to the simulation **in the order they are
    /// built** — the engine numbers devices by attachment order and
    /// FloodGuard maps device ids back to datapaths positionally.
    pub fn build_cache_for(&mut self, dpid: DatapathId) -> DataPlaneCache {
        let handle = if self.device_dpids.is_empty() {
            self.cache_handle.clone()
        } else {
            let handle = new_handle(&self.config.cache);
            self.agent.register_cache(handle.clone());
            handle
        };
        self.device_dpids.push(dpid);
        DataPlaneCache::new(self.config.cache, handle)
    }

    /// Builds a **standby** cache for switch `dpid` behind physical port
    /// `port`: it stays closed until every active cache dies, at which point
    /// the next telemetry tick promotes it and re-points the migration rules
    /// (see [`CacheFailPolicy`] for what happens when no standby exists).
    ///
    /// Like [`FloodGuard::build_cache_for`], attach it to the simulation in
    /// build order.
    pub fn build_standby_cache(&mut self, dpid: DatapathId, port: u16) -> DataPlaneCache {
        let handle = new_handle(&self.config.cache);
        self.agent.register_standby(handle.clone(), port);
        self.device_dpids.push(dpid);
        DataPlaneCache::new(self.config.cache, handle)
    }

    /// The shared cache handle (rate knob + live statistics).
    pub fn cache_handle(&self) -> CacheHandle {
        self.cache_handle.clone()
    }

    /// The migration agent (cache registry, failover and degrade state).
    pub fn agent(&self) -> &MigrationAgent {
        &self.agent
    }

    /// The current lifecycle state.
    pub fn state(&self) -> State {
        self.sm.state()
    }

    /// The state-machine transition log.
    pub fn transitions(&self) -> &[state::Transition] {
        self.sm.log()
    }

    /// The wrapped controller platform.
    pub fn platform(&self) -> &ControllerPlatform {
        &self.platform
    }

    /// Mutable access to the wrapped platform (seed application state).
    pub fn platform_mut(&mut self) -> &mut ControllerPlatform {
        &mut self.platform
    }

    /// The analyzer (path conditions, installed proactive rules).
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Rewrites `Flood`/`All` outputs in outgoing packet-outs into explicit
    /// port lists that exclude the cache port.
    ///
    /// The cache hangs off a physical port, so a plain flood would hand
    /// every broadcast to the cache, which would re-raise it — traffic
    /// looping through the controller forever. Excluding the cache port
    /// preserves flood semantics for real hosts.
    fn rewrite_floods(&self, out: &mut ControlOutput) {
        let cache_port = self.agent.cache_port();
        for (dpid, msg) in &mut out.messages {
            let OfBody::PacketOut(po) = &mut msg.body else {
                continue;
            };
            let Some((_, ports)) = self.switch_ports.iter().find(|(d, _)| d == dpid) else {
                continue;
            };
            let in_port = po.in_port.physical();
            let mut actions = Vec::with_capacity(po.actions.len());
            for action in &po.actions {
                match action {
                    Action::Output(PortNo::Flood | PortNo::All) => {
                        for &p in ports {
                            if p != cache_port && Some(p) != in_port {
                                actions.push(Action::Output(PortNo::Physical(p)));
                            }
                        }
                    }
                    other => actions.push(*other),
                }
            }
            po.actions = actions;
        }
    }

    /// CPU cost charged for one rule-generation round: a base plus a
    /// per-state-entry term, the deterministic stand-in for the measured
    /// generation times of Fig. 13.
    fn conversion_cost(&self) -> f64 {
        let entries: usize = self
            .platform
            .apps()
            .iter()
            .map(|a| a.env.state_size())
            .sum();
        1e-4 + entries as f64 * 2e-6
    }

    fn enter_init(&mut self, now: f64, out: &mut ControlOutput) {
        self.stats.attacks_detected += 1;
        // A teardown still waiting is moot, and so are the deletes owed by
        // an earlier one: the redirects come back and the intake stays open.
        self.teardown = None;
        self.owed_deletes.clear();
        self.analyzer.reset_installed();
        self.table_counts.clear();
        // Migrate: per-port wildcard rules on every protected switch.
        for (dpid, ports) in &self.switch_ports {
            for fm in self.agent.install_migration(*dpid, ports) {
                out.send(
                    *dpid,
                    OfMessage::new(ofproto::types::Xid(0), OfBody::FlowMod(fm)),
                );
            }
        }
        out.charge(MODULE_NAME, 2e-4);
        self.detector.reset_end_tracking();
        let _ = now;
    }

    fn run_update(&mut self, now: f64, out: &mut ControlOutput) {
        let update = self
            .analyzer
            .update(self.platform.apps(), self.config.cookie, now);
        self.stats.proactive_installed += update.to_add.len() as u64;
        self.stats.proactive_removed += update.to_remove.len() as u64;
        if !update.is_empty() {
            self.stats.updates += 1;
        }
        let cost = self.conversion_cost();
        if let Some(o) = self.obs.as_ref() {
            // Modeled conversion cost (the deterministic Fig. 13 stand-in),
            // recorded in µs — never wall-clock, so the published timeline
            // stays byte-identical across machines and thread counts.
            o.conversion_time_us.record((cost * 1e6) as u64);
            let cache = self.analyzer.cache_stats();
            o.conv_cache_hits.add(cache.last_hits);
            o.conv_cache_misses.add(cache.last_misses);
            o.rules_converted.set(self.analyzer.last_rules_raw as f64);
            let installed = match self.analyzer.last_compression {
                Some(c) => c.rules_out,
                None => self.analyzer.last_rules_raw,
            };
            o.rules_compressed.set(installed as f64);
        }
        out.charge(MODULE_NAME, cost);
        match self.config.rule_placement {
            RulePlacement::Switch => {
                for (dpid, _) in &self.switch_ports {
                    for fm in update.to_remove.iter().chain(update.to_add.iter()) {
                        out.send(
                            *dpid,
                            OfMessage::new(ofproto::types::Xid(0), OfBody::FlowMod(fm.clone())),
                        );
                    }
                }
            }
            RulePlacement::Cache => {
                // §IV-E TCAM-limited option: rules live in the cache; it
                // gives matching packets priority instead of the switch
                // forwarding them directly.
                if !update.is_empty() {
                    self.cache_handle.lock().proactive = self
                        .analyzer
                        .installed()
                        .iter()
                        .map(|r| r.of_match)
                        .collect();
                }
            }
        }
    }

    /// Removes the redirect rules and starts the [`Teardown`] that closes
    /// the cache's intake once every switch has confirmed the removal.
    fn enter_finish(&mut self, now: f64, out: &mut ControlOutput) {
        self.stats.attacks_ended += 1;
        let xid = Xid(TEARDOWN_XID | (self.stats.attacks_ended as u32 & 0xffff));
        let mut waiting = Vec::new();
        let deletes = self.agent.delete_migration();
        for (dpid, fm) in &deletes {
            out.send(*dpid, OfMessage::new(Xid(0), OfBody::FlowMod(fm.clone())));
            if !waiting.contains(dpid) {
                waiting.push(*dpid);
            }
        }
        for &dpid in &waiting {
            out.send(dpid, OfMessage::new(xid, OfBody::BarrierRequest));
        }
        self.teardown = Some(Teardown {
            waiting,
            deletes,
            xid,
            since: now,
            answered: false,
        });
        out.charge(MODULE_NAME, 2e-4);
    }

    /// Advances the teardown by one telemetry tick; closes the cache's
    /// intake, and ends the teardown, once every switch has answered as of
    /// the tick before. A switch silent for [`TEARDOWN_WAIT_S`] is given
    /// up on.
    fn step_teardown(&mut self, now: f64) {
        let Some(t) = self.teardown.as_ref() else {
            return;
        };
        if now - t.since >= TEARDOWN_WAIT_S {
            for dpid in t.waiting.clone() {
                self.give_up_on(dpid);
            }
        }
        let Some(t) = self.teardown.as_mut() else {
            return;
        };
        if !t.waiting.is_empty() {
            return;
        }
        if t.answered {
            self.agent.close_intake();
            self.teardown = None;
        } else {
            t.answered = true;
        }
    }

    /// Stops waiting for `dpid`'s answer to the teardown: the switch counts
    /// as unanswered and is owed the strict deletes, which may never have
    /// reached it.
    fn give_up_on(&mut self, dpid: DatapathId) {
        let Some(t) = self.teardown.as_mut() else {
            return;
        };
        let Some(i) = t.waiting.iter().position(|d| *d == dpid) else {
            return;
        };
        t.waiting.remove(i);
        self.stats.teardown_unanswered += 1;
        let deletes = t
            .deletes
            .iter()
            .filter(|(d, _)| *d == dpid)
            .map(|(_, fm)| fm.clone())
            .collect();
        self.owed_deletes.retain(|(d, _)| *d != dpid);
        self.owed_deletes.push((dpid, deletes));
    }

    /// Flags switch `dpid` for a rule-repair round. `fresh_evidence` (a
    /// reconnect) resets the attempt budget; a telemetry audit failure only
    /// re-arms an idle entry, so a switch that keeps reporting a short table
    /// cannot burn unbounded repair rounds.
    fn mark_repair(&mut self, dpid: DatapathId, now: f64, fresh_evidence: bool) {
        let entry = match self.repairs.iter_mut().find(|(d, _)| *d == dpid) {
            Some((_, e)) => e,
            None => {
                self.repairs.push((dpid, RepairEntry::default()));
                &mut self.repairs.last_mut().expect("just pushed").1
            }
        };
        if fresh_evidence {
            entry.attempts = 0;
            entry.next_at = now;
        }
        if !entry.pending {
            entry.pending = true;
            entry.next_at = entry.next_at.max(now);
        }
    }

    /// Runs due repair rounds: re-sends the migration redirect rules and —
    /// under [`RulePlacement::Switch`] — the installed proactive rules.
    /// Re-sending is idempotent (an OpenFlow `Add` with an identical match
    /// and priority replaces in place), so a spurious repair is harmless.
    fn process_repairs(&mut self, now: f64, out: &mut ControlOutput) {
        if !self.agent.is_migrating() || self.agent.is_degraded() {
            return;
        }
        let recovery = self.config.recovery;
        let due: Vec<DatapathId> = self
            .repairs
            .iter()
            .filter(|(_, e)| e.pending && now >= e.next_at)
            .map(|(d, _)| *d)
            .collect();
        for dpid in due {
            let Some(ports) = self
                .switch_ports
                .iter()
                .find(|(d, _)| *d == dpid)
                .map(|(_, p)| p.as_slice())
            else {
                continue;
            };
            let entry = &mut self
                .repairs
                .iter_mut()
                .find(|(d, _)| *d == dpid)
                .expect("entry exists")
                .1;
            if entry.attempts >= recovery.repair_max_attempts {
                // Budget exhausted: stand down until fresh evidence
                // (a reconnect) resets it.
                entry.pending = false;
                continue;
            }
            entry.attempts += 1;
            entry.next_at = now + recovery.repair_backoff * f64::from(1u32 << (entry.attempts - 1));
            let mut mods = self.agent.reinstall_migration(dpid, ports);
            if self.config.rule_placement == RulePlacement::Switch {
                mods.extend(
                    self.analyzer
                        .installed()
                        .iter()
                        .map(|r| r.to_flow_mod().with_cookie(self.config.cookie)),
                );
            }
            self.stats.rules_repaired += mods.len() as u64;
            for fm in mods {
                out.send(
                    dpid,
                    OfMessage::new(ofproto::types::Xid(0), OfBody::FlowMod(fm)),
                );
            }
            out.charge(MODULE_NAME, 5e-5);
        }
    }

    /// Audits each switch's flow count against the migration rules the
    /// agent believes are installed: a count below that baseline means the
    /// table was wiped (crash-restart) behind our back.
    ///
    /// Telemetry that could see the table carries the count. Where it could
    /// not (a live controller endpoint), the count is the switch's last
    /// answer to the aggregate-stats request sent here, one per protected
    /// switch per tick while rules are placed on it; until one arrives
    /// nothing is known, and nothing is repaired.
    fn audit_tables(&mut self, telemetry: &Telemetry, now: f64, out: &mut ControlOutput) {
        if !self.agent.is_migrating() || self.agent.is_degraded() {
            return;
        }
        for sw in &telemetry.switches {
            let expected = self.agent.installed_for(sw.dpid);
            if expected == 0 {
                continue;
            }
            let flow_count = match sw.flow_count {
                Some(count) => count,
                None => {
                    if self.config.rule_placement == RulePlacement::Switch {
                        let ask = OfBody::StatsRequest(StatsRequest::Aggregate(OfMatch::any()));
                        out.send(sw.dpid, OfMessage::new(ofproto::types::Xid(0), ask));
                    }
                    match self.table_counts.iter().find(|(d, _)| *d == sw.dpid) {
                        Some((_, answered)) => *answered,
                        None => continue,
                    }
                }
            };
            if flow_count < expected {
                self.mark_repair(sw.dpid, now, false);
            } else if let Some((_, e)) = self.repairs.iter_mut().find(|(d, _)| *d == sw.dpid) {
                // Audit passes: the incident is over, restore the budget.
                e.pending = false;
                e.attempts = 0;
            }
        }
    }

    /// Polls cache health and reacts: promotes standbys (re-pointing the
    /// migration rules), or degrades per [`CacheFailPolicy`] when nothing
    /// healthy remains.
    fn check_cache_failover(&mut self, out: &mut ControlOutput) {
        if !self.agent.is_migrating() && !self.agent.is_degraded() {
            return;
        }
        match self.agent.check_cache_health() {
            CacheFailover::Ok => {}
            CacheFailover::Promoted { port: _ } => {
                self.stats.cache_failovers += 1;
                if self.agent.is_migrating() {
                    // Re-point every switch's redirect rules at the promoted
                    // cache (overwrites fail-safe drops in place too).
                    for (dpid, ports) in &self.switch_ports {
                        for fm in self.agent.reinstall_migration(*dpid, ports) {
                            out.send(
                                *dpid,
                                OfMessage::new(ofproto::types::Xid(0), OfBody::FlowMod(fm)),
                            );
                        }
                    }
                    out.charge(MODULE_NAME, 2e-4);
                }
            }
            CacheFailover::Degraded => {
                self.stats.degraded += 1;
                // Pending repairs would reinstall redirects to a dead cache.
                for (_, e) in &mut self.repairs {
                    e.pending = false;
                }
                let mods = match self.config.recovery.cache_fail_policy {
                    CacheFailPolicy::FailOpen => self.agent.degrade_fail_open(),
                    CacheFailPolicy::FailSafe => self.agent.degrade_fail_safe(),
                };
                for (dpid, fm) in mods {
                    out.send(
                        dpid,
                        OfMessage::new(ofproto::types::Xid(0), OfBody::FlowMod(fm)),
                    );
                }
                out.charge(MODULE_NAME, 2e-4);
            }
        }
    }

    /// Whether the admin blocklists order this `packet_in` dropped. Runs
    /// before the applications see the packet, so a blocked attacker cannot
    /// pollute application state; the detector still counts the arrival
    /// (the channel carried it either way).
    fn admin_drops(&self, pi: &ofproto::messages::PacketIn) -> bool {
        if !self.admin.any_blocks() {
            return false;
        }
        let src = netsim::packet::Packet::parse(&pi.data).and_then(|p| match p.payload {
            netsim::packet::Payload::Ipv4 { src, .. } => Some(src),
            netsim::packet::Payload::Arp { sender_ip, .. } => Some(sender_ip),
            netsim::packet::Payload::Other => None,
        });
        self.admin.should_drop(src, pi.in_port.physical())
    }
}

impl ControlPlane for FloodGuard {
    fn on_switch_connect(
        &mut self,
        dpid: DatapathId,
        features: ofproto::messages::FeaturesReply,
        now: f64,
        out: &mut ControlOutput,
    ) {
        let ports: Vec<u16> = features.ports.iter().filter_map(|p| p.physical()).collect();
        self.table_counts.retain(|(d, _)| *d != dpid);
        match self.switch_ports.iter_mut().find(|(d, _)| *d == dpid) {
            // A reconnect (crash-restart or healed partition): the switch may
            // have lost its table, so owe it a repair round with a fresh
            // attempt budget.
            Some((_, p)) => {
                *p = ports;
                if self.agent.is_migrating() {
                    self.mark_repair(dpid, now, true);
                }
            }
            None => self.switch_ports.push((dpid, ports)),
        }
        // Deletes and a barrier sent while the switch was away were lost:
        // send them again if the teardown still waits for it, or send the
        // deletes it is owed if the teardown gave up on it.
        if let Some(t) = self.teardown.as_ref().filter(|t| t.waiting.contains(&dpid)) {
            for (_, fm) in t.deletes.iter().filter(|(d, _)| *d == dpid) {
                out.send(dpid, OfMessage::new(Xid(0), OfBody::FlowMod(fm.clone())));
            }
            out.send(dpid, OfMessage::new(t.xid, OfBody::BarrierRequest));
        } else if !self.agent.is_migrating() {
            if let Some(i) = self.owed_deletes.iter().position(|(d, _)| *d == dpid) {
                for fm in self.owed_deletes.remove(i).1 {
                    out.send(dpid, OfMessage::new(Xid(0), OfBody::FlowMod(fm)));
                }
            }
        }
        self.platform.on_switch_connect(dpid, features, now, out);
    }

    fn on_switch_disconnect(&mut self, dpid: DatapathId, now: f64, _out: &mut ControlOutput) {
        // A switch gone mid-teardown cannot answer: stop waiting for it.
        self.give_up_on(dpid);
        // Nothing can be sent while the switch is gone; owe it a repair so
        // the defense re-converges the moment it reconnects (belt-and-braces
        // with the reconnect path, and it covers liveness-timeout declares
        // where no re-handshake follows immediately).
        if self.agent.is_migrating() {
            self.mark_repair(dpid, now, false);
        }
        self.table_counts.retain(|(d, _)| *d != dpid);
    }

    fn on_message(&mut self, dpid: DatapathId, msg: OfMessage, now: f64, out: &mut ControlOutput) {
        match &msg.body {
            OfBody::PacketIn(pi) => {
                self.detector.record_packet_in(now);
                // The always-on monitor is deliberately cheap (the framework's
                // "lightweight under normal circumstances" requirement).
                out.charge(MODULE_NAME, 5e-6);
                if self.admin_drops(pi) {
                    return;
                }
            }
            // A switch confirming the redirect rules' removal.
            OfBody::BarrierReply => {
                if let Some(t) = self.teardown.as_mut().filter(|t| t.xid == msg.xid) {
                    t.waiting.retain(|d| *d != dpid);
                }
            }
            // The answer to `audit_tables`' question.
            OfBody::StatsReply(StatsReply::Aggregate(table)) => {
                let count = table.flow_count as usize;
                match self.table_counts.iter_mut().find(|(d, _)| *d == dpid) {
                    Some((_, seen)) => *seen = count,
                    None => self.table_counts.push((dpid, count)),
                }
            }
            _ => {}
        }
        self.platform.on_message(dpid, msg, now, out);
        self.rewrite_floods(out);
    }

    fn on_device_message(
        &mut self,
        _device: DeviceId,
        msg: OfMessage,
        now: f64,
        out: &mut ControlOutput,
    ) {
        // Cache-generated packet_in: re-raise with the original datapath so
        // applications cannot tell it detoured through the cache — except in
        // what it may teach them: its source may be spoofed, so what it
        // teaches stays in quarantine, out of the proactive rules.
        if let OfBody::PacketIn(pi) = &msg.body {
            self.stats.reraised += 1;
            out.charge(MODULE_NAME, 2e-5);
            // Blocklists apply on the cache path too — a blocked source must
            // not reach applications by detouring through migration.
            if self.admin_drops(pi) {
                return;
            }
            let dpid = self
                .device_dpids
                .get(_device.0)
                .copied()
                .or_else(|| self.switch_ports.first().map(|(d, _)| *d));
            if let Some(dpid) = dpid {
                self.platform
                    .handle_packet_in_at(dpid, msg.xid, pi, now, Provenance::Cache, out);
            }
            self.rewrite_floods(out);
        }
    }

    fn on_telemetry(&mut self, telemetry: &Telemetry, now: f64, out: &mut ControlOutput) {
        let buffer = telemetry
            .switches
            .iter()
            .map(|s| s.buffer_utilization)
            .fold(0.0_f64, f64::max);
        let datapath = telemetry
            .switches
            .iter()
            .map(|s| s.datapath_utilization)
            .fold(0.0_f64, f64::max);
        self.detector
            .record_utilization(buffer, datapath, telemetry.controller_utilization, now);
        // Apply admin threshold retunes on the defense's own clock, so the
        // detector never sees a half-applied config mid-scoring.
        if let Some(next) = self.admin.take_pending(&self.detector.config()) {
            self.detector.set_config(next);
        }
        // Advance the detector's peak-hold every tick, in every state: the
        // attack-end test consults the held score, so it must be refreshed
        // from cache arrivals during Defense whether or not obs is attached.
        self.detector.score(now);
        // Failure recovery runs before the FSM step: health and table audits
        // may change what the lifecycle logic below is allowed to do.
        self.audit_tables(telemetry, now, out);
        self.check_cache_failover(out);
        self.process_repairs(now, out);
        // Learned entries due go before the FSM step, so a Defense update
        // this tick already deletes their rules.
        self.platform.expire(now);
        match self.sm.state() {
            State::Idle => {
                // While degraded there is no cache to migrate to — starting a
                // defense episode would blackhole or self-DoS.
                if !self.agent.is_degraded()
                    && self.detector.is_attack(now)
                    && self.sm.transition(State::Init, now)
                {
                    self.enter_init(now, out);
                }
            }
            State::Init => {
                // What the apps first learned within one detector window of
                // the detection — the flood's onset, and its packet_ins
                // that came in since — is vouched for by nobody: it goes to
                // quarantine before the first conversion (DESIGN §25).
                let init_at = self.sm.log().last().map_or(now, |t| t.at);
                let cutoff = init_at - self.detector.config().window;
                self.stats.demoted_at_init += self.platform.demote_since(cutoff) as u64;
                // Proactive rules become ready one telemetry period after
                // migration starts (conversion latency).
                self.run_update(now, out);
                self.sm.transition(State::Defense, now);
            }
            State::Defense if self.agent.is_degraded() => {
                match self.config.recovery.cache_fail_policy {
                    // Fail-open removed the migration rules: the episode is
                    // over, walk to Finish and let the (empty) backlog drain
                    // to Idle. `enter_finish` is skipped — it would re-remove
                    // the already-removed rules.
                    CacheFailPolicy::FailOpen => {
                        self.stats.attacks_ended += 1;
                        self.sm.transition(State::Finish, now);
                    }
                    // Fail-safe holds the drop rules in Defense until a cache
                    // comes back; the zero arrival rate at the dead cache
                    // must not be read as "attack over".
                    CacheFailPolicy::FailSafe => {}
                }
            }
            State::Defense => {
                // Track application state and refresh rules per strategy.
                let changed = self.analyzer.detect_changes(self.platform.apps());
                if self
                    .analyzer
                    .should_update(changed, self.config.update_strategy, now)
                {
                    self.run_update(now, out);
                }
                // Steer the cache submission rate.
                self.agent.adapt_rate(telemetry.controller_utilization);
                // Attack over? The cache sees the flood now.
                let arrival = self.agent.cache_arrival_rate(now);
                if self.detector.is_over(arrival, now) && self.sm.transition(State::Finish, now) {
                    self.enter_finish(now, out);
                }
            }
            State::Finish => {
                self.step_teardown(now);
                if self.teardown.is_none()
                    && self.agent.cache_backlog() == 0
                    && self.sm.transition(State::Idle, now)
                {
                    self.detector.reset_end_tracking();
                } else if !self.agent.is_degraded()
                    && self.detector.is_attack(now)
                    && self.sm.transition(State::Init, now)
                {
                    // A renewed flood during drain re-enters defense.
                    self.enter_init(now, out);
                }
            }
        }
        out.charge(MODULE_NAME, 1e-5);
        self.publish_obs(now);
        let mut monitor = self.monitor.lock();
        monitor.state = Some(self.sm.state());
        // The transition log is append-only: re-copy it only when it grew,
        // not on every telemetry tick.
        if monitor.transitions.len() != self.sm.log().len() {
            monitor.transitions.clear();
            monitor.transitions.extend_from_slice(self.sm.log());
        }
        monitor.stats = self.stats;
        monitor.learned_entries = self.platform.learned_entries();
        monitor.quarantined_entries = self.platform.quarantined_entries();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use controller::apps;
    use netsim::iface::SwitchTelemetry;
    use ofproto::flow_mod::FlowModCommand;
    use ofproto::messages::{FeaturesReply, PacketIn, PacketInReason};
    use ofproto::types::{MacAddr, PortNo, Xid};
    use std::net::Ipv4Addr;

    /// Switch 1: three host ports and the cache port.
    fn features() -> FeaturesReply {
        FeaturesReply {
            datapath_id: DatapathId(1),
            n_buffers: 256,
            n_tables: 1,
            ports: vec![
                PortNo::Physical(1),
                PortNo::Physical(2),
                PortNo::Physical(3),
                PortNo::Physical(99),
            ],
        }
    }

    fn fg_with_l2() -> FloodGuard {
        let mut platform = ControllerPlatform::new();
        platform.register(apps::l2_learning::program());
        let mut fg = FloodGuard::new(platform, FloodGuardConfig::default(), 99);
        let mut out = ControlOutput::new();
        fg.on_switch_connect(DatapathId(1), features(), 0.0, &mut out);
        fg
    }

    fn flood_packet_in(fg: &mut FloodGuard, now: f64, n: usize) {
        for i in 0..n {
            let pkt = netsim::packet::Packet::udp(
                MacAddr::from_u64(1000 + i as u64),
                MacAddr::from_u64(2000 + i as u64),
                Ipv4Addr::from(i as u32),
                Ipv4Addr::from(0xffff - i as u32),
                1,
                2,
                64,
            );
            let data = pkt.to_bytes();
            let mut out = ControlOutput::new();
            fg.on_message(
                DatapathId(1),
                OfMessage::new(
                    Xid(i as u32),
                    OfBody::PacketIn(PacketIn {
                        buffer_id: None,
                        total_len: data.len() as u16,
                        in_port: PortNo::Physical(3),
                        reason: PacketInReason::NoMatch,
                        data,
                    }),
                ),
                now,
                &mut out,
            );
        }
    }

    /// Re-raises `n` packets through the cache, from spoofed sources
    /// `first`, `first + 1`, … on port 3.
    fn reraise(fg: &mut FloodGuard, now: f64, first: u64, n: u64) {
        for i in 0..n {
            let pkt = netsim::packet::Packet::udp(
                MacAddr::from_u64(first + i),
                MacAddr::from_u64(0xa),
                Ipv4Addr::from(first as u32 + i as u32),
                Ipv4Addr::new(10, 0, 0, 1),
                1,
                2,
                64,
            );
            let data = pkt.to_bytes();
            let pi = PacketIn {
                buffer_id: None,
                total_len: data.len() as u16,
                in_port: PortNo::Physical(3),
                reason: PacketInReason::NoMatch,
                data,
            };
            let msg = OfMessage::new(Xid(i as u32), OfBody::PacketIn(pi));
            fg.on_device_message(DeviceId(0), msg, now, &mut ControlOutput::new());
        }
    }

    /// The first of the benign hosts [`seed_hosts`] learns.
    const BENIGN: u64 = 0x10_0000;

    /// Learns `n` benign hosts on port 1 at t = 0, long before any flood's
    /// onset window.
    fn seed_hosts(fg: &mut FloodGuard, n: u64) {
        let env = &mut fg.platform_mut().app_mut("l2_learning").unwrap().env;
        for i in 0..n {
            apps::l2_learning::learn_host(env, MacAddr::from_u64(BENIGN + i), 1);
        }
    }

    /// The `n` sources [`flood_packet_in`] sent from are quarantined and in
    /// no installed rule.
    fn assert_flood_quarantined(fg: &FloodGuard, n: u64) {
        let env = &fg.platform().app("l2_learning").unwrap().env;
        for i in 0..n {
            let mac = policy::Value::Mac(MacAddr::from_u64(1000 + i));
            assert!(env.quarantined("macToPort", &mac).is_some(), "{i}");
        }
        let flooded = |mac: MacAddr| (1000..1000 + n).contains(&mac.to_u64());
        assert!(fg
            .analyzer()
            .installed()
            .iter()
            .all(|r| !flooded(r.of_match.keys.dl_dst)));
    }

    fn telemetry() -> Telemetry {
        Telemetry {
            switches: vec![SwitchTelemetry {
                dpid: DatapathId(1),
                buffer_utilization: 0.0,
                datapath_utilization: 0.0,
                ingress_len: 0,
                misses: 0,
                // A healthy switch reports its installed rules; zero would
                // read as a wiped table and trigger rule repair.
                flow_count: Some(64),
            }],
            controller_queue: 0,
            controller_utilization: 0.0,
        }
    }

    #[test]
    fn idle_until_attack() {
        let mut fg = fg_with_l2();
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 0.1, &mut out);
        assert_eq!(fg.state(), State::Idle);
        assert!(out.messages.is_empty());
    }

    #[test]
    fn attack_walks_the_state_machine() {
        let mut fg = fg_with_l2();
        // Learn a host so proactive rules exist.
        apps::l2_learning::learn_host(
            &mut fg.platform_mut().app_mut("l2_learning").unwrap().env,
            MacAddr::from_u64(0xa),
            1,
        );
        flood_packet_in(&mut fg, 1.0, 60);
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 1.05, &mut out);
        assert_eq!(fg.state(), State::Init);
        assert_eq!(fg.stats.attacks_detected, 1);
        // Migration rules for ports 1,2,3 (not the cache port).
        let flow_mods: Vec<_> = out
            .messages
            .iter()
            .filter(|(_, m)| matches!(m.body, OfBody::FlowMod(_)))
            .collect();
        assert_eq!(flow_mods.len(), 3);
        assert!(fg.cache_handle().lock().control.intake_enabled);
        // Next telemetry: proactive rules installed, Defense reached.
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 1.1, &mut out);
        assert_eq!(fg.state(), State::Defense);
        // One rule, the seeded host's: the 60 spoofed sources l2_learning
        // learned from the flood before migration engaged (POX would too)
        // were learned within a detector window of the detection, and went
        // to quarantine before the conversion.
        assert_eq!(fg.analyzer().installed().len(), 1);
        assert_eq!(fg.stats.demoted_at_init, 60);
        assert_flood_quarantined(&fg, 60);
        assert!(out
            .messages
            .iter()
            .any(|(_, m)| matches!(&m.body, OfBody::FlowMod(fm) if fm.command == ofproto::flow_mod::FlowModCommand::Add)));
        // Quiet cache → attack over after hysteresis.
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 1.5, &mut out);
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 2.0, &mut out);
        assert_eq!(fg.state(), State::Finish);
        // The redirects are deleted, each switch is asked for a barrier,
        // and the intake stays open until the switch confirms.
        assert!(fg.cache_handle().lock().control.intake_enabled);
        assert_eq!(answer_barriers(&mut fg, &out, 2.05), 1);
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 2.1, &mut out);
        assert_eq!(fg.state(), State::Finish);
        assert!(fg.cache_handle().lock().control.intake_enabled);
        // A tick after the answer the intake closes; cache empty → Idle.
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 2.2, &mut out);
        assert!(!fg.cache_handle().lock().control.intake_enabled);
        assert_eq!(fg.state(), State::Idle);
        // Proactive rules stay installed (idle timeouts age them out); the
        // default config does not tear them down.
        assert_eq!(fg.analyzer().installed().len(), 1);
        assert_eq!(fg.transitions().len(), 4);
    }

    #[test]
    fn defense_updates_rules_on_state_change() {
        let mut fg = fg_with_l2();
        seed_hosts(&mut fg, 60);
        flood_packet_in(&mut fg, 1.0, 60);
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 1.05, &mut out);
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 1.1, &mut out);
        assert_eq!(fg.state(), State::Defense);
        let learned_from_flood = fg.analyzer().installed().len();
        assert_eq!(
            learned_from_flood, 60,
            "the seeded hosts; the spoofed sources learned pre-migration are quarantined"
        );
        assert_flood_quarantined(&fg, 60);
        // Keep the cache looking busy so the attack is not declared over.
        fg.cache_handle().lock().stats.received = 1000;
        // A benign host is learned mid-defense (via the cache path).
        apps::l2_learning::learn_host(
            &mut fg.platform_mut().app_mut("l2_learning").unwrap().env,
            MacAddr::from_u64(0xbb),
            2,
        );
        let mut out = ControlOutput::new();
        fg.cache_handle().lock().stats.received = 2000;
        fg.on_telemetry(&telemetry(), 1.15, &mut out);
        assert_eq!(
            fg.analyzer().installed().len(),
            learned_from_flood + 1,
            "rule refreshed with the newly learned host"
        );
        assert_eq!(fg.state(), State::Defense);
    }

    #[test]
    fn reentering_init_from_finish_over_a_backlog_keeps_the_quarantine_out() {
        let mut fg = fg_with_l2();
        seed_hosts(&mut fg, 4);
        flood_packet_in(&mut fg, 1.0, 60);
        fg.on_telemetry(&telemetry(), 1.05, &mut ControlOutput::new());
        fg.on_telemetry(&telemetry(), 1.1, &mut ControlOutput::new());
        assert_eq!(fg.state(), State::Defense);
        // The onset's sixty, demoted at Init, and forty spoofed sources the
        // cache feeds the apps: quarantined.
        assert_eq!(fg.platform().quarantined_entries(), 60);
        fg.cache_handle().lock().stats.received = 1000;
        reraise(&mut fg, 1.12, 50_000, 40);
        assert_eq!(fg.platform().quarantined_entries(), 100);
        // Quiet cache: ticks until the attack is declared over.
        let mut finish = ControlOutput::new();
        let mut now = 1.5;
        while fg.state() == State::Defense && now < 3.0 {
            finish = ControlOutput::new();
            fg.on_telemetry(&telemetry(), now, &mut finish);
            now += 0.5;
        }
        assert_eq!(fg.state(), State::Finish);
        // A backlog still queued, the barrier not yet answered, and the
        // flood comes back: Init again, straight from Finish.
        fg.cache_handle().lock().stats.queued = 5;
        flood_packet_in(&mut fg, now, 60);
        fg.on_telemetry(&telemetry(), now + 0.05, &mut ControlOutput::new());
        let now = now + 0.05;
        assert_eq!(fg.state(), State::Init);
        assert_eq!(fg.stats.attacks_detected, 2);
        assert!(fg.cache_handle().lock().control.intake_enabled);
        // The first teardown's answer comes late: it closes nothing.
        assert_eq!(answer_barriers(&mut fg, &finish, now + 0.02), 1);
        fg.cache_handle().lock().stats.received = 2000;
        fg.on_telemetry(&telemetry(), now + 0.05, &mut ControlOutput::new());
        assert_eq!(fg.state(), State::Defense);
        fg.cache_handle().lock().stats.received = 3000;
        fg.on_telemetry(&telemetry(), now + 0.1, &mut ControlOutput::new());
        assert!(fg.cache_handle().lock().control.intake_enabled);
        // The quarantined sources are still held, and in no rule: the
        // cache's forty, and the onset's sixty, which the second flood's
        // packet_ins promoted and its Init demoted again.
        assert_eq!(fg.platform().quarantined_entries(), 100);
        assert_eq!(fg.stats.demoted_at_init, 120);
        assert_flood_quarantined(&fg, 60);
        let spoofed = |mac: MacAddr| (50_000..50_040).contains(&mac.to_u64());
        assert_eq!(fg.analyzer().installed().len(), 4, "the seeded hosts");
        assert!(fg
            .analyzer()
            .installed()
            .iter()
            .all(|r| !spoofed(r.of_match.keys.dl_dst)));
    }

    #[test]
    fn learned_and_quarantined_entries_reach_metrics() {
        let mut fg = fg_with_l2();
        let hub = obs::Obs::new();
        fg.attach_obs(&hub);
        flood_packet_in(&mut fg, 1.0, 60);
        reraise(&mut fg, 1.01, 50_000, 5);
        fg.on_telemetry(&telemetry(), 1.05, &mut ControlOutput::new());
        let text = obs::prom::encode(&hub.registry);
        assert!(text.contains("floodguard_learned_entries 60"), "{text}");
        assert!(text.contains("floodguard_quarantined_entries 5"), "{text}");
        assert!(text.contains("floodguard_learned_aged_out 0"), "{text}");
        assert!(text.contains("floodguard_demoted_at_init 0"), "{text}");
        // The Init update demotes the onset's sixty.
        fg.on_telemetry(&telemetry(), 1.1, &mut ControlOutput::new());
        let text = obs::prom::encode(&hub.registry);
        assert!(text.contains("floodguard_learned_entries 0"), "{text}");
        assert!(text.contains("floodguard_quarantined_entries 65"), "{text}");
        assert!(text.contains("floodguard_demoted_at_init 60"), "{text}");
        assert_eq!(fg.monitor_handle().lock().stats.demoted_at_init, 60);
    }

    #[test]
    fn second_episode_reinstalls_every_rule() {
        // Rules age out of the switch between episodes, so Init forgets
        // what is installed: whatever the analyzer still holds from the
        // first episode, the first update of the second sends it all.
        let adds = |out: &ControlOutput| {
            out.messages
                .iter()
                .filter(|(_, m)| matches!(&m.body, OfBody::FlowMod(fm) if fm.command == ofproto::flow_mod::FlowModCommand::Add && fm.cookie == FloodGuardConfig::default().cookie))
                .count()
        };
        let mut fg = fg_with_l2();
        seed_hosts(&mut fg, 60);
        flood_packet_in(&mut fg, 1.0, 60);
        fg.on_telemetry(&telemetry(), 1.05, &mut ControlOutput::new());
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 1.1, &mut out);
        assert_eq!(fg.state(), State::Defense);
        assert_eq!(adds(&out), 60);
        assert_flood_quarantined(&fg, 60);
        // A host learned mid-defense costs one flow-mod, not 61.
        fg.cache_handle().lock().stats.received = 1000;
        apps::l2_learning::learn_host(
            &mut fg.platform_mut().app_mut("l2_learning").unwrap().env,
            MacAddr::from_u64(0xbb),
            2,
        );
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 1.15, &mut out);
        assert_eq!(adds(&out), 1);
        // Quiet cache: Finish, then Idle once the switch confirmed the
        // teardown.
        for now in [1.5, 2.0, 2.1, 2.2] {
            let mut out = ControlOutput::new();
            fg.on_telemetry(&telemetry(), now, &mut out);
            answer_barriers(&mut fg, &out, now);
        }
        assert_eq!(fg.state(), State::Idle);
        // The same sources flood again: their packet_ins promote them from
        // quarantine, and the second Init demotes them again.
        flood_packet_in(&mut fg, 5.0, 60);
        fg.on_telemetry(&telemetry(), 5.05, &mut ControlOutput::new());
        assert_eq!(fg.state(), State::Init);
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 5.1, &mut out);
        assert_eq!(fg.state(), State::Defense);
        assert_eq!(adds(&out), 61);
        assert_eq!(fg.analyzer().installed().len(), 61);
        assert_eq!(fg.stats.demoted_at_init, 120);
        assert_flood_quarantined(&fg, 60);
    }

    /// What a live controller endpoint assembles: it cannot see the table.
    fn unobserved() -> Telemetry {
        let mut telemetry = telemetry();
        telemetry.switches[0].flow_count = None;
        telemetry
    }

    /// One telemetry tick; what it sent, as (aggregate-stats requests,
    /// flow-mods).
    fn tick(fg: &mut FloodGuard, telemetry: &Telemetry, now: f64) -> (usize, usize) {
        let mut out = ControlOutput::new();
        fg.on_telemetry(telemetry, now, &mut out);
        let asks = out.messages.iter().filter(|(dpid, m)| {
            let any = StatsRequest::Aggregate(OfMatch::any());
            *dpid == DatapathId(1) && m.body == OfBody::StatsRequest(any)
        });
        let mods = out
            .messages
            .iter()
            .filter(|(_, m)| matches!(m.body, OfBody::FlowMod(_)));
        let (asks, mods) = (asks.count(), mods.count());
        let barriers = answer_barriers(fg, &out, now);
        assert_eq!(
            asks + mods + barriers,
            out.messages.len(),
            "nothing else is sent"
        );
        (asks, mods)
    }

    /// Answers the barriers in `out` as the switches would; how many.
    fn answer_barriers(fg: &mut FloodGuard, out: &ControlOutput, now: f64) -> usize {
        let barriers: Vec<_> = out
            .messages
            .iter()
            .filter(|(_, m)| m.body == OfBody::BarrierRequest)
            .map(|(dpid, m)| (*dpid, m.xid))
            .collect();
        for &(dpid, xid) in &barriers {
            let reply = OfMessage::new(xid, OfBody::BarrierReply);
            fg.on_message(dpid, reply, now, &mut ControlOutput::new());
        }
        barriers.len()
    }

    /// The switch's answer to an aggregate-stats request.
    fn answer(fg: &mut FloodGuard, flow_count: u32, now: f64) {
        let table = ofproto::messages::AggregateStats {
            flow_count,
            ..Default::default()
        };
        let reply = OfBody::StatsReply(StatsReply::Aggregate(table));
        let mut out = ControlOutput::new();
        fg.on_message(DatapathId(1), OfMessage::new(Xid(0), reply), now, &mut out);
        assert!(out.messages.is_empty());
    }

    /// Sixty benign hosts seeded at t = 0, sixty spoofed sources, then the
    /// two ticks that reach Defense.
    fn defend(fg: &mut FloodGuard, telemetry: &Telemetry) {
        seed_hosts(fg, 60);
        flood_packet_in(fg, 1.0, 60);
        assert_eq!(tick(fg, telemetry, 1.05), (0, 3), "Init: migration rules");
        assert_eq!(fg.state(), State::Init);
        let (_, mods) = tick(fg, telemetry, 1.1);
        assert_eq!(mods, 60, "Defense: the seeded hosts' proactive rules");
        assert_eq!(fg.state(), State::Defense);
        assert_flood_quarantined(fg, 60);
        // Keep the cache looking busy so the attack is not declared over.
        fg.cache_handle().lock().stats.received = 1000;
    }

    #[test]
    fn an_unobserved_table_is_asked_about_and_not_repaired() {
        let mut fg = fg_with_l2();
        seed_hosts(&mut fg, 60);
        assert_eq!(tick(&mut fg, &unobserved(), 0.1), (0, 0), "Idle");
        flood_packet_in(&mut fg, 1.0, 60);
        // Migration starts in this tick, after the audit: nothing to ask.
        assert_eq!(tick(&mut fg, &unobserved(), 1.05), (0, 3));
        // Init and Defense: one request per tick, no answer, no repair.
        assert_eq!(tick(&mut fg, &unobserved(), 1.1), (1, 60));
        assert_flood_quarantined(&fg, 60);
        fg.cache_handle().lock().stats.received = 1000;
        assert_eq!(tick(&mut fg, &unobserved(), 1.15), (1, 0));
        assert_eq!(fg.state(), State::Defense);
        // Quiet cache: the tick that ends the attack still asks (the audit
        // runs first) and removes the migration rules; nothing after.
        assert_eq!(tick(&mut fg, &unobserved(), 1.6), (1, 0));
        assert_eq!(tick(&mut fg, &unobserved(), 2.1), (1, 3));
        assert_eq!(fg.state(), State::Finish);
        // The switch answered the teardown's barrier; the intake closes a
        // tick later.
        assert_eq!(tick(&mut fg, &unobserved(), 2.2), (0, 0));
        assert_eq!(fg.state(), State::Finish);
        assert_eq!(tick(&mut fg, &unobserved(), 2.3), (0, 0));
        assert_eq!(fg.state(), State::Idle);
        assert_eq!(tick(&mut fg, &unobserved(), 2.4), (0, 0));
        assert_eq!(fg.stats.rules_repaired, 0);
    }

    /// (strict deletes, barrier requests) in `out`.
    fn teardown_sent(out: &ControlOutput) -> (usize, usize) {
        let mut sent = (0, 0);
        for (_, m) in &out.messages {
            match &m.body {
                OfBody::FlowMod(fm) if fm.command == FlowModCommand::DeleteStrict => sent.0 += 1,
                OfBody::BarrierRequest => sent.1 += 1,
                _ => {}
            }
        }
        sent
    }

    #[test]
    fn a_switch_the_teardown_missed_gets_the_deletes_when_it_returns() {
        let mut fg = fg_with_l2();
        defend(&mut fg, &telemetry());
        // Quiet cache: the attack ends; nobody answers the barrier.
        let mut out = ControlOutput::new();
        let mut now = 1.1;
        while fg.state() == State::Defense && now < 5.0 {
            now += 0.05;
            out = ControlOutput::new();
            fg.on_telemetry(&telemetry(), now, &mut out);
        }
        assert_eq!(fg.state(), State::Finish);
        assert_eq!(teardown_sent(&out), (3, 1));
        // Back while the teardown still waits: the deletes and the barrier
        // again.
        let mut out = ControlOutput::new();
        fg.on_switch_connect(DatapathId(1), features(), now, &mut out);
        assert_eq!(teardown_sent(&out), (3, 1));
        // Gone mid-teardown: given up on, and owed the deletes until it
        // returns, once.
        fg.on_switch_disconnect(DatapathId(1), now, &mut ControlOutput::new());
        assert_eq!(fg.stats.teardown_unanswered, 1);
        let mut out = ControlOutput::new();
        fg.on_switch_connect(DatapathId(1), features(), now, &mut out);
        assert_eq!(teardown_sent(&out), (3, 0));
        let mut out = ControlOutput::new();
        fg.on_switch_connect(DatapathId(1), features(), now, &mut out);
        assert_eq!(teardown_sent(&out), (0, 0));
    }

    #[test]
    fn an_observed_table_is_not_asked_about() {
        // The simulator's telemetry carries the count.
        let mut fg = fg_with_l2();
        defend(&mut fg, &telemetry());
        assert_eq!(tick(&mut fg, &telemetry(), 1.15), (0, 0));
        assert_eq!(fg.stats.rules_repaired, 0);
    }

    #[test]
    fn cache_placement_asks_nothing() {
        let mut platform = ControllerPlatform::new();
        platform.register(apps::l2_learning::program());
        let config = FloodGuardConfig {
            rule_placement: RulePlacement::Cache,
            ..FloodGuardConfig::default()
        };
        let mut fg = FloodGuard::new(platform, config, 99);
        fg.on_switch_connect(DatapathId(1), features(), 0.0, &mut ControlOutput::new());
        flood_packet_in(&mut fg, 1.0, 60);
        assert_eq!(tick(&mut fg, &unobserved(), 1.05), (0, 3));
        assert_eq!(tick(&mut fg, &unobserved(), 1.1), (0, 0));
        assert_eq!(fg.state(), State::Defense);
        fg.cache_handle().lock().stats.received = 1000;
        assert_eq!(tick(&mut fg, &unobserved(), 1.15), (0, 0));
    }

    #[test]
    fn an_intact_table_restores_the_repair_budget() {
        let mut fg = fg_with_l2();
        defend(&mut fg, &unobserved());
        // A disconnect mid-defense owes the switch a round, sent at the
        // next tick: migration rules and the installed proactive ones.
        fg.on_switch_disconnect(DatapathId(1), 1.12, &mut ControlOutput::new());
        assert_eq!(tick(&mut fg, &unobserved(), 1.15), (1, 63));
        assert_eq!(fg.stats.rules_repaired, 63);
        let entry = fg.repairs[0].1;
        assert!(entry.pending && entry.attempts == 1);
        // The table holds them all: the incident is over.
        answer(&mut fg, 63, 1.16);
        assert_eq!(tick(&mut fg, &unobserved(), 1.3), (1, 0));
        let entry = fg.repairs[0].1;
        assert!(!entry.pending && entry.attempts == 0);
        assert_eq!(fg.stats.rules_repaired, 63);
    }

    #[test]
    fn a_short_table_is_repaired_with_backoff_up_to_the_budget() {
        let mut fg = fg_with_l2();
        defend(&mut fg, &unobserved());
        // Wiped behind our back, connection kept: fewer flows than the
        // three migration rules.
        answer(&mut fg, 2, 1.12);
        assert_eq!(tick(&mut fg, &unobserved(), 1.15), (1, 63), "one round");
        // Still short a tick later: the backoff (0.05 s) holds the second.
        answer(&mut fg, 2, 1.16);
        assert_eq!(tick(&mut fg, &unobserved(), 1.17), (1, 0));
        assert_eq!(tick(&mut fg, &unobserved(), 1.21), (1, 63), "second round");
        // A switch that never recovers gets `repair_max_attempts` rounds.
        let mut now = 1.21;
        for _ in 0..40 {
            now += 0.1;
            fg.cache_handle().lock().stats.received += 1000;
            tick(&mut fg, &unobserved(), now);
        }
        assert_eq!(fg.state(), State::Defense);
        let rounds = u64::from(fg.config.recovery.repair_max_attempts);
        assert_eq!(fg.stats.rules_repaired, rounds * 63);
        // The table converges: budget restored, nothing more sent.
        answer(&mut fg, 63, now);
        assert_eq!(tick(&mut fg, &unobserved(), now + 0.1), (1, 0));
        assert_eq!(fg.repairs[0].1.attempts, 0);
    }

    #[test]
    fn an_answer_from_before_init_says_nothing_about_this_episode() {
        let mut fg = fg_with_l2();
        // An empty table, reported while nothing was installed.
        answer(&mut fg, 0, 0.5);
        defend(&mut fg, &unobserved());
        assert_eq!(tick(&mut fg, &unobserved(), 1.15), (1, 0));
        assert_eq!(fg.stats.rules_repaired, 0);
        // So does one from before the connection came back.
        answer(&mut fg, 0, 1.16);
        fg.on_switch_connect(DatapathId(1), features(), 1.17, &mut ControlOutput::new());
        // The reconnect itself owes one round; the old count adds none.
        assert_eq!(tick(&mut fg, &unobserved(), 1.2), (1, 63));
        assert_eq!(tick(&mut fg, &unobserved(), 1.22), (1, 0));
        answer(&mut fg, 63, 1.23);
        assert_eq!(tick(&mut fg, &unobserved(), 1.4), (1, 0));
        assert_eq!(fg.stats.rules_repaired, 63);
    }

    #[test]
    fn reraised_device_messages_reach_apps() {
        let mut fg = fg_with_l2();
        let pkt = netsim::packet::Packet::udp(
            MacAddr::from_u64(0xa),
            MacAddr::from_u64(0xb),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            100,
        );
        let data = pkt.to_bytes();
        let mut out = ControlOutput::new();
        fg.on_device_message(
            DeviceId(0),
            OfMessage::new(
                Xid(1),
                OfBody::PacketIn(PacketIn {
                    buffer_id: None,
                    total_len: data.len() as u16,
                    in_port: PortNo::Physical(1),
                    reason: PacketInReason::NoMatch,
                    data,
                }),
            ),
            1.0,
            &mut out,
        );
        assert_eq!(fg.stats.reraised, 1);
        // The l2 app learned the source and flooded: a packet_out went to
        // the original datapath.
        assert!(matches!(out.messages[0].1.body, OfBody::PacketOut(_)));
        assert_eq!(out.messages[0].0, DatapathId(1));
        // It learned it in quarantine: the app reads it, conversion does
        // not.
        let app = fg.platform().app("l2_learning").unwrap();
        assert_eq!(app.env.get("macToPort").unwrap().container_len(), 0);
        assert_eq!(
            app.env
                .quarantined("macToPort", &policy::Value::Mac(MacAddr::from_u64(0xa))),
            Some(&policy::Value::Int(1))
        );
        assert_eq!(fg.platform().quarantined_entries(), 1);
    }

    #[test]
    fn cache_placement_keeps_tcam_untouched() {
        // §IV-E design option: proactive rules go to the cache, not the
        // switch; matching packets take the cache's priority lane.
        let mut platform = ControllerPlatform::new();
        platform.register(apps::l2_learning::program());
        let config = FloodGuardConfig {
            rule_placement: RulePlacement::Cache,
            ..FloodGuardConfig::default()
        };
        let mut fg = FloodGuard::new(platform, config, 99);
        let mut out = ControlOutput::new();
        fg.on_switch_connect(
            DatapathId(1),
            FeaturesReply {
                datapath_id: DatapathId(1),
                n_buffers: 256,
                n_tables: 1,
                ports: vec![PortNo::Physical(1), PortNo::Physical(99)],
            },
            0.0,
            &mut out,
        );
        apps::l2_learning::learn_host(
            &mut fg.platform_mut().app_mut("l2_learning").unwrap().env,
            MacAddr::from_u64(0xa),
            1,
        );
        flood_packet_in(&mut fg, 1.0, 60);
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 1.05, &mut out);
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 1.1, &mut out);
        assert_eq!(fg.state(), State::Defense);
        // No Add flow-mods were sent for proactive rules (only the earlier
        // migration rules exist).
        let adds = out
            .messages
            .iter()
            .filter(|(_, m)| matches!(&m.body, OfBody::FlowMod(fm) if fm.command == ofproto::flow_mod::FlowModCommand::Add))
            .count();
        assert_eq!(adds, 0, "cache placement must not touch the switch table");
        // The cache holds the matches instead.
        let shared = fg.cache_handle();
        let shared = shared.lock();
        assert_eq!(shared.proactive.len(), fg.analyzer().installed().len());
        assert!(!shared.proactive.is_empty());
    }

    #[test]
    fn monitoring_is_cheap_when_idle() {
        let mut fg = fg_with_l2();
        let mut out = ControlOutput::new();
        flood_packet_in(&mut fg, 0.0, 1);
        fg.on_telemetry(&telemetry(), 0.01, &mut out);
        let fg_cpu: f64 = out
            .cpu
            .iter()
            .filter(|(n, _)| n == MODULE_NAME)
            .map(|(_, s)| s)
            .sum();
        assert!(fg_cpu < 1e-4, "idle overhead {fg_cpu}");
    }
}
