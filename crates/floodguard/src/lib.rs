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
mod reconcile;
pub mod state;

use controller::platform::ControllerPlatform;
use ofproto::actions::Action;
use ofproto::flow_mod::FlowMod;
use ofproto::messages::{ErrorMsg, FlowRemovedReason, OfBody, OfMessage, StatsReply};
use ofproto::types::{DatapathId, PortNo};
use policy::Provenance;

use netsim::iface::{ControlOutput, ControlPlane, DeviceId, Telemetry};

use std::sync::Arc;

use parking_lot::Mutex;

use crate::admin::AdminHandle;
use crate::analyzer::Analyzer;
use crate::cache::{new_handle, CacheHandle, DataPlaneCache};
use crate::detector::Detector;
use crate::migration::{CacheFailover, MigrationAgent};
use crate::reconcile::Reconciler;
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

/// How long a read of a switch's table may go unanswered before the table
/// counts as unknown and the switch is asked again; also how long Finish
/// waits for a switch's answer to show no redirect before closing the
/// cache's intake without it.
pub const ANSWER_WAIT_S: f64 = 1.0;

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
    /// Flow-mods sent by repair rounds: what a switch's answer showed
    /// missing from, or extra to, the table FloodGuard wants it to hold
    /// (after a flow-table wipe, a reconnect, or a lost flow_mod).
    pub rules_repaired: u64,
    /// Adds a switch refused (`OFPET_FLOW_MOD_FAILED`, e.g. a full
    /// table). A refused rule is not sent again until the switch shows
    /// room: a rule of FloodGuard's removed, a delete sent, or a
    /// reconnect.
    pub rules_refused: u64,
    /// Cache failovers (standby promotions and recoveries from degraded).
    pub cache_failovers: u64,
    /// Times the defense degraded because no healthy cache remained.
    pub degraded: u64,
    /// Switches a Finish teardown stopped waiting for: they disconnected,
    /// or had not shown the redirect rules gone within [`ANSWER_WAIT_S`].
    pub teardown_unanswered: u64,
    /// Learned entries moved into quarantine at Init because they were
    /// first learned within one detector window of the detection.
    pub demoted_at_init: u64,
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
    /// Registered at the first refusal, so that a run where no table fills
    /// publishes the series it always did.
    rules_refused: Option<obs::Gauge>,
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
    /// Every switch seen: its ports, its wanted redirects, what it last
    /// reported, and its reads.
    tables: Reconciler,
    /// Datapath each cache device serves, in device-attachment order.
    device_dpids: Vec<DatapathId>,
    /// When Finish's round went out, until the cache's intake closes.
    finish_at: Option<f64>,
    /// Every switch showed no redirect, or was given up on, as of a
    /// telemetry tick before this one.
    teardown_clear: bool,
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
            tables: Reconciler::default(),
            device_dpids: Vec::new(),
            finish_at: None,
            teardown_clear: false,
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
    /// Refused rules are published from the first refusal on. FSM
    /// transitions additionally emit instant trace events.
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
            rules_refused: None,
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
        if self.stats.rules_refused > 0 {
            let reg = &o.hub.registry;
            let refused = o
                .rules_refused
                .get_or_insert_with(|| reg.gauge("floodguard.rules_refused"));
            refused.set(self.stats.rules_refused as f64);
        }
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
    /// preserves flood semantics for real hosts. A packet-out that floods
    /// nowhere is left as it is; one that does gets one list, sized once.
    fn rewrite_floods(&self, out: &mut ControlOutput) {
        let floods =
            |action: &Action| matches!(action, Action::Output(PortNo::Flood | PortNo::All));
        let cache_port = self.agent.cache_port();
        for (dpid, msg) in &mut out.messages {
            let OfBody::PacketOut(po) = &mut msg.body else {
                continue;
            };
            if !po.actions.iter().any(floods) {
                continue;
            }
            let Some(i) = self.tables.index(*dpid) else {
                continue;
            };
            let in_port = po.in_port.physical();
            let outputs = || {
                self.tables.switches[i]
                    .ports
                    .iter()
                    .filter(|&&p| p != cache_port && Some(p) != in_port)
                    .map(|&p| Action::Output(PortNo::Physical(p)))
            };
            let flooding = po.actions.iter().filter(|a| floods(a)).count();
            let mut actions =
                Vec::with_capacity(po.actions.len() - flooding + flooding * outputs().count());
            for action in &po.actions {
                if floods(action) {
                    actions.extend(outputs());
                } else {
                    actions.push(*action);
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
        // A teardown still waiting is moot: the redirects come back and the
        // intake stays open.
        self.finish_at = None;
        self.analyzer.reset_installed();
        // Migrate: per-port wildcard rules on every protected switch.
        self.set_redirects(now, out, MigrationAgent::install_migration);
        out.charge(MODULE_NAME, 2e-4);
        self.detector.reset_end_tracking();
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
        // A rule the analyzer changed is wanted again where it had expired.
        for sw in &mut self.tables.switches {
            if !sw.expired.is_empty() {
                for fm in update.to_remove.iter().chain(&update.to_add) {
                    sw.expired.remove(&(fm.of_match, fm.priority));
                }
            }
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
            RulePlacement::Switch if !update.is_empty() => {
                for i in 0..self.tables.switches.len() {
                    if self.tables.switches[i].connected {
                        let mods = update.to_remove.iter().chain(&update.to_add);
                        self.tables.round(i, mods.cloned(), now, out);
                    }
                }
            }
            RulePlacement::Switch => {}
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

    /// Removes the redirect rules; the cache's intake stays open until every
    /// switch has shown them gone ([`FloodGuard::step_intake`]).
    fn enter_finish(&mut self, now: f64, out: &mut ControlOutput) {
        self.stats.attacks_ended += 1;
        self.agent.end_migration();
        self.set_redirects(now, out, |agent, _, ports| agent.redirects(ports));
        for sw in &mut self.tables.switches {
            sw.given_up = false;
        }
        self.finish_at = Some(now);
        self.teardown_clear = false;
        out.charge(MODULE_NAME, 2e-4);
    }

    /// Advances Finish's teardown by one telemetry tick. A switch redirects
    /// to the cache until it has applied the deletes, and a packet it
    /// redirected before must still be taken in and re-raised, not refused:
    /// so the intake closes one tick after every switch's latest answer
    /// shows no redirect, so that what a switch put on the wire to the cache
    /// before answering has arrived. A switch that is gone, or has not
    /// shown that within [`ANSWER_WAIT_S`], is given up on; its table is
    /// read back, and its redirects deleted, when it answers again.
    fn step_intake(&mut self, now: f64) {
        let Some(since) = self.finish_at else {
            return;
        };
        let overdue = now - since >= ANSWER_WAIT_S;
        let mut clear = true;
        for sw in &mut self.tables.switches {
            if sw.given_up || (sw.connected && sw.clear_of_redirects()) {
                continue;
            }
            if sw.connected && !overdue {
                clear = false;
            } else {
                sw.given_up = true;
                self.stats.teardown_unanswered += 1;
            }
        }
        if !clear {
            return;
        }
        if self.teardown_clear {
            self.agent.close_intake();
            self.finish_at = None;
        } else {
            self.teardown_clear = true;
        }
    }

    /// Sets every switch's wanted redirects to what `next` builds from its
    /// ports, and sends each connected switch the change as one round:
    /// strict deletes for the redirects it should no longer hold, then
    /// adds for the new or changed ones.
    fn set_redirects(
        &mut self,
        now: f64,
        out: &mut ControlOutput,
        mut next: impl FnMut(&mut MigrationAgent, DatapathId, &[u16]) -> Vec<FlowMod>,
    ) {
        for i in 0..self.tables.switches.len() {
            let sw = &self.tables.switches[i];
            let new = next(&mut self.agent, sw.dpid, &sw.ports);
            let sw = &mut self.tables.switches[i];
            let old = std::mem::replace(&mut sw.redirects, new);
            let gone = old
                .iter()
                .filter(|o| !sw.redirects.iter().any(|n| n.of_match == o.of_match))
                .map(|o| FlowMod::delete_strict(o.of_match, o.priority));
            let mut mods: Vec<FlowMod> = gone.collect();
            mods.extend(sw.redirects.iter().filter(|n| !old.contains(n)).cloned());
            if sw.connected && !mods.is_empty() {
                self.tables.round(i, mods, now, out);
            }
        }
    }

    /// Switch `i`'s wanted table: its redirects, then the proactive rules
    /// while they are wanted ([`FloodGuard::proactive_wanted`]), less what
    /// the switch refused or timed out.
    fn want(&self, i: usize) -> Vec<FlowMod> {
        let sw = &self.tables.switches[i];
        let mut want = sw.redirects.clone();
        if self.proactive_wanted() {
            let proactive = self.analyzer.installed().iter();
            want.extend(proactive.map(|r| r.to_flow_mod().with_cookie(self.config.cookie)));
        }
        if !sw.refused.is_empty() || !sw.expired.is_empty() {
            want.retain(|fm| {
                let key = (fm.of_match, fm.priority);
                !sw.refused.contains(&key) && !sw.expired.contains(&key)
            });
        }
        want
    }

    /// Whether the proactive rules are part of what the switches should
    /// hold: they are placed on the switches, and the defense is on. At
    /// Idle they are forgotten, not deleted: they age out of the switch,
    /// and the next Init re-adds them.
    fn proactive_wanted(&self) -> bool {
        self.config.rule_placement == RulePlacement::Switch && self.sm.state() != State::Idle
    }

    /// The round that takes switch `i` from its latest answer to what it
    /// should hold; empty while its table is unknown.
    fn delta(&self, i: usize) -> Vec<FlowMod> {
        let Some(have) = &self.tables.switches[i].have else {
            return Vec::new();
        };
        let proactive = self.proactive_wanted();
        reconcile::delta(&self.want(i), have, |r| {
            proactive || MigrationAgent::is_redirect(&r.of_match, r.priority)
        })
    }

    /// Notes whether switch `i`'s latest answer differs from what it
    /// should hold: the next tick with no read outstanding repairs it.
    fn judge(&mut self, i: usize) {
        self.tables.switches[i].differs = self.differs(i);
    }

    /// Whether [`FloodGuard::delta`] would send switch `i` anything, without
    /// building its wanted table: one walk of the answer, each rule looked
    /// up among the redirects and in the analyzer's index of its rules. A
    /// table holds one rule per `(match, priority)`, so the answer is the
    /// wanted table when each of its rules in scope is wanted, with the
    /// actions every wanted rule of its key has, and it holds as many rules
    /// as the wanted table has keys. No refused or expired key is in the
    /// answer, so each wanted one is a key the answer need not hold.
    fn differs(&self, i: usize) -> bool {
        let sw = &self.tables.switches[i];
        let Some(have) = &sw.have else {
            return false;
        };
        // The proactive rules and their index, while they are wanted.
        let proactive = self
            .proactive_wanted()
            .then(|| (self.analyzer.installed(), self.analyzer.installed_by_key()));
        let key = |fm: &FlowMod| (fm.of_match, fm.priority);
        let mut matched = 0usize;
        for r in have {
            if proactive.is_none() && !MigrationAgent::is_redirect(&r.of_match, r.priority) {
                continue;
            }
            let k = (r.of_match, r.priority);
            let mut wanted = false;
            for fm in sw.redirects.iter().filter(|fm| key(fm) == k) {
                if fm.actions != r.actions {
                    return true;
                }
                wanted = true;
            }
            if let Some((rules, index)) = proactive {
                match index.get(&k) {
                    Some(Some(at)) if rules[*at].actions == r.actions => wanted = true,
                    Some(_) => return true,
                    None => {}
                }
            }
            if !wanted {
                return true;
            }
            matched += 1;
        }
        let index = proactive.map(|(_, index)| index);
        let redirect_keys = sw
            .redirects
            .iter()
            .enumerate()
            .filter(|(j, fm)| {
                !index.is_some_and(|index| index.contains_key(&key(fm)))
                    && !sw.redirects[..*j].iter().any(|e| key(e) == key(fm))
            })
            .count();
        let refused = sw.refused.iter().filter(|k| {
            index.is_some_and(|index| index.contains_key(k))
                || sw.redirects.iter().any(|fm| key(fm) == **k)
        });
        // Expired keys are proactive ones, and never refused as well: no
        // add of one is sent.
        let expired = sw.expired.iter().filter(|k| {
            index.is_some_and(|index| index.contains_key(k)) && !sw.refused.contains(k)
        });
        matched + refused.count() + expired.count()
            != redirect_keys + index.map_or(0, |index| index.len())
    }

    /// The reconciler's part of a telemetry tick before the FSM's: for each
    /// connected switch whose table differs from what it should hold, as
    /// its latest answer showed and its `FLOW_REMOVED`s since have kept
    /// it, a repair round, unless a read is still outstanding. It goes
    /// out before the FSM's own rounds, so that a round every tick (a flood
    /// teaching the apps something new each tick) cannot starve it. A round
    /// costs the difference; only a read costs the table.
    fn repair(&mut self, telemetry: &Telemetry, now: f64, out: &mut ControlOutput) {
        for t in &telemetry.switches {
            let (Some(count), Some(i)) = (t.flow_count, self.tables.index(t.dpid)) else {
                continue;
            };
            // Redirects have no timeout: a table holding fewer rules than
            // the redirects it last reported has lost some. (The count is
            // taken out of band, so it can run ahead of a `FLOW_REMOVED`
            // still on its way: only the redirects are certain.)
            let sw = &mut self.tables.switches[i];
            if count < sw.redirects_held {
                sw.forget();
            }
        }
        for i in 0..self.tables.switches.len() {
            let sw = &mut self.tables.switches[i];
            if sw.answer_overdue(now) {
                sw.forget();
            }
            if !sw.connected || sw.asking() || !sw.differs {
                continue;
            }
            let mods = self.delta(i);
            if mods.is_empty() {
                self.tables.switches[i].differs = false;
                continue;
            }
            self.stats.rules_repaired += mods.len() as u64;
            self.tables.round(i, mods, now, out);
            out.charge(MODULE_NAME, 5e-5);
        }
    }

    /// The reconciler's part of a telemetry tick after the FSM's, whose
    /// rounds each end with a read: one read for each connected switch
    /// with none outstanding whose table is unknown. A switch that should
    /// hold redirects while telemetry carries no count of its table is
    /// counted (one fixed-size table-stats exchange) once every
    /// [`ANSWER_WAIT_S`] it goes unread: the backstop for a loss it does
    /// not report. It is not read on a clock; its `FLOW_REMOVED`s and its
    /// errors say what changed.
    fn read_back(&mut self, telemetry: &Telemetry, now: f64, out: &mut ControlOutput) {
        if self.agent.is_migrating() {
            for t in telemetry.switches.iter().filter(|t| t.flow_count.is_none()) {
                let Some(i) = self.tables.index(t.dpid) else {
                    continue;
                };
                let sw = &self.tables.switches[i];
                if sw.connected
                    && !sw.asking()
                    && sw.have.is_some()
                    && !sw.redirects.is_empty()
                    && sw.count_due(now)
                {
                    self.tables.count(i, now, out);
                }
            }
        }
        for i in 0..self.tables.switches.len() {
            let sw = &self.tables.switches[i];
            if sw.connected && !sw.asking() && sw.have.is_none() {
                self.tables.ask(i, now, out);
            }
        }
    }

    /// Polls cache health and reacts: re-points the migration rules at a
    /// promoted standby, or changes them per [`CacheFailPolicy`] when
    /// nothing healthy remains.
    fn check_cache_failover(&mut self, now: f64, out: &mut ControlOutput) {
        if !self.agent.is_migrating() && !self.agent.is_degraded() {
            return;
        }
        match self.agent.check_cache_health() {
            CacheFailover::Ok => return,
            CacheFailover::Promoted { port: _ } => {
                self.stats.cache_failovers += 1;
                if !self.agent.is_migrating() {
                    return;
                }
            }
            CacheFailover::Degraded => self.stats.degraded += 1,
        }
        // Redirects at the promoted cache (overwriting fail-safe drops in
        // place), drops, or nothing.
        self.set_redirects(now, out, |agent, _, ports| agent.redirects(ports));
        out.charge(MODULE_NAME, 2e-4);
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
        let i = self.tables.connect(dpid, ports);
        let sw = &self.tables.switches[i];
        self.tables.switches[i].redirects = self.agent.redirects(&sw.ports);
        if self.tables.switches[i].have.is_none() {
            // A reconnect (crash-restart or healed partition): the switch may
            // have lost its table, or kept what FloodGuard no longer wants.
            // Its answer decides the round.
            self.tables.ask(i, now, out);
        } else {
            // A first connect: an empty table, and nothing sent unless the
            // switch should hold something, which the next tick installs.
            self.judge(i);
        }
        self.platform.on_switch_connect(dpid, features, now, out);
    }

    fn on_switch_disconnect(&mut self, dpid: DatapathId, _now: f64, _out: &mut ControlOutput) {
        self.tables.disconnect(dpid);
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
            // A switch's answer to a read, whole or in parts.
            OfBody::StatsReply(StatsReply::Flow(entries) | StatsReply::FlowMore(entries)) => {
                let last = matches!(msg.body, OfBody::StatsReply(StatsReply::Flow(_)));
                let cookie = self.config.cookie;
                if let Some(i) = self
                    .tables
                    .take_answer(dpid, msg.xid, entries, last, cookie)
                {
                    self.judge(i);
                }
            }
            // Its answer to a count.
            OfBody::StatsReply(StatsReply::Table(tables)) => {
                let active = tables.iter().map(|t| u64::from(t.active_count)).sum();
                self.tables.take_count(dpid, msg.xid, active);
            }
            // One of FloodGuard's rules is gone from it.
            OfBody::FlowRemoved(fr) if fr.cookie == self.config.cookie => {
                let timed_out = fr.reason != FlowRemovedReason::Delete;
                let key = (fr.of_match, fr.priority);
                if let Some(i) = self.tables.take_removed(dpid, key, timed_out) {
                    self.judge(i);
                }
            }
            // It refused a flow_mod.
            OfBody::Error(e) if e.err_type == ErrorMsg::ET_FLOW_MOD_FAILED => {
                let cookie = self.config.cookie;
                if self.tables.take_refusal(dpid, msg.xid, &e.data, cookie) {
                    self.stats.rules_refused += 1;
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
                .or_else(|| self.tables.switches.first().map(|sw| sw.dpid));
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
        // Failure recovery runs before the FSM step: cache failover may
        // change what the lifecycle logic below is allowed to do.
        self.check_cache_failover(now, out);
        self.repair(telemetry, now, out);
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
                self.step_intake(now);
                if self.finish_at.is_none()
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
        self.read_back(telemetry, now, out);
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
    use ofproto::flow_match::OfMatch;
    use ofproto::messages::{FeaturesReply, PacketIn, PacketInReason, StatsRequest};
    use ofproto::types::{MacAddr, PortNo, Xid};
    use std::collections::HashSet;
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
        let mut peer = Peer::new();
        // Learn a host so proactive rules exist.
        apps::l2_learning::learn_host(
            &mut fg.platform_mut().app_mut("l2_learning").unwrap().env,
            MacAddr::from_u64(0xa),
            1,
        );
        flood_packet_in(&mut fg, 1.0, 60);
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 1.05, &mut out);
        peer.serve(&mut fg, &out, 1.05);
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
        peer.serve(&mut fg, &out, 1.1);
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
        assert_eq!(peer.ours(), 4, "three redirects and the host's rule");
        // Quiet cache → attack over after hysteresis.
        assert_eq!(tick(&mut fg, &mut peer, &telemetry(), 1.5), (0, 0));
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 2.0, &mut out);
        assert_eq!(fg.state(), State::Finish);
        // The redirects are deleted and the switch's table is read back;
        // the intake stays open until the answer shows them gone.
        assert!(fg.cache_handle().lock().control.intake_enabled);
        assert_eq!(peer.serve(&mut fg, &out, 2.05), 1);
        assert_eq!(peer.ours(), 1, "the host's rule is left to age out");
        assert_eq!(tick(&mut fg, &mut peer, &telemetry(), 2.1), (0, 0));
        assert_eq!(fg.state(), State::Finish);
        assert!(fg.cache_handle().lock().control.intake_enabled);
        // A tick after the answer the intake closes; cache empty → Idle.
        assert_eq!(tick(&mut fg, &mut peer, &telemetry(), 2.2), (0, 0));
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
        // A backlog still queued, the teardown read not yet answered, and the
        // flood comes back: Init again, straight from Finish.
        fg.cache_handle().lock().stats.queued = 5;
        flood_packet_in(&mut fg, now, 60);
        fg.on_telemetry(&telemetry(), now + 0.05, &mut ControlOutput::new());
        let now = now + 0.05;
        assert_eq!(fg.state(), State::Init);
        assert_eq!(fg.stats.attacks_detected, 2);
        assert!(fg.cache_handle().lock().control.intake_enabled);
        // The first teardown's answer comes late, and answers a read that
        // is no longer the latest: it closes nothing.
        assert_eq!(Peer::new().serve(&mut fg, &finish, now + 0.02), 1);
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
        let mut peer = Peer::new();
        seed_hosts(&mut fg, 60);
        flood_packet_in(&mut fg, 1.0, 60);
        tick(&mut fg, &mut peer, &telemetry(), 1.05);
        let mut out = ControlOutput::new();
        fg.on_telemetry(&telemetry(), 1.1, &mut out);
        peer.serve(&mut fg, &out, 1.1);
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
        peer.serve(&mut fg, &out, 1.15);
        assert_eq!(adds(&out), 1);
        // Quiet cache: Finish, then Idle once the switch showed the
        // redirects gone.
        for now in [1.5, 2.0, 2.1, 2.2] {
            tick(&mut fg, &mut peer, &telemetry(), now);
        }
        assert_eq!(fg.state(), State::Idle);
        assert_eq!(fg.stats.rules_repaired, 0);
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

    /// Switch 1 as FloodGuard's messages leave it: the simulator's switch,
    /// with a fault that drops every flow_mod while it is `lossy`.
    struct Peer {
        switch: netsim::switch::Switch,
        lossy: bool,
        /// Table-stats counts answered so far.
        counts: usize,
    }

    impl Peer {
        fn new() -> Peer {
            Peer::with_capacity(netsim::SwitchProfile::software().table_capacity)
        }

        /// A switch whose table holds at most `capacity` rules.
        fn with_capacity(capacity: usize) -> Peer {
            let profile = netsim::SwitchProfile {
                table_capacity: capacity,
                ..netsim::SwitchProfile::software()
            };
            let switch = netsim::switch::Switch::new(DatapathId(1), profile, vec![1, 2, 3, 99]);
            Peer {
                switch,
                lossy: false,
                counts: 0,
            }
        }

        /// Applies what `out` sends switch 1 and hands `fg` the switch's
        /// answers; how many reads it answered.
        fn serve(&mut self, fg: &mut FloodGuard, out: &ControlOutput, now: f64) -> usize {
            let mut reads = 0;
            for (dpid, msg) in &out.messages {
                let lost = self.lossy && matches!(msg.body, OfBody::FlowMod(_));
                if *dpid != DatapathId(1) || lost {
                    continue;
                }
                let asked = |kind| matches!(&msg.body, OfBody::StatsRequest(r) if *r == kind);
                reads += usize::from(asked(StatsRequest::Flow(OfMatch::any())));
                self.counts += usize::from(asked(StatsRequest::Table));
                let (_, replies) = self.switch.handle_message(msg.clone(), now);
                for reply in replies {
                    fg.on_message(*dpid, reply, now, &mut ControlOutput::new());
                }
            }
            reads
        }

        /// Deletes switch 1's rule of `of_match` and `priority` as another
        /// controller would: the switch reports it to FloodGuard.
        fn delete_behind_fg(&mut self, fg: &mut FloodGuard, of_match: OfMatch, priority: u16) {
            let delete = FlowMod::delete_strict(of_match, priority);
            let msg = OfMessage::new(Xid(7), OfBody::FlowMod(delete));
            let (_, replies) = self.switch.handle_message(msg, 0.0);
            assert!(matches!(
                replies[..],
                [OfMessage {
                    body: OfBody::FlowRemoved(_),
                    ..
                }]
            ));
            for reply in replies {
                fg.on_message(DatapathId(1), reply, 0.0, &mut ControlOutput::new());
            }
        }

        /// The rules the switch holds under FloodGuard's cookie.
        fn ours(&self) -> usize {
            let cookie = FloodGuardConfig::default().cookie;
            self.switch
                .table
                .iter()
                .filter(|e| e.cookie == cookie)
                .count()
        }

        /// The redirects the switch holds.
        fn redirects(&self) -> usize {
            let redirect = |e: &&ofproto::flow_table::FlowEntry| {
                MigrationAgent::is_redirect(&e.of_match, e.priority)
            };
            self.switch.table.iter().filter(redirect).count()
        }

        /// Loses the first `n` of FloodGuard's rules, redirects first.
        fn lose(&mut self, n: usize) {
            let table = &mut self.switch.table;
            let mut ours: Vec<_> = table.iter().map(|e| (e.of_match, e.priority)).collect();
            ours.sort_by_key(|&(_, priority)| priority);
            for (of_match, priority) in ours.into_iter().take(n) {
                table
                    .apply(&FlowMod::delete_strict(of_match, priority), 0.0)
                    .unwrap();
            }
        }
    }

    /// One telemetry tick, served by `peer`; what it sent switch 1, as
    /// (flow-stats reads, flow-mods). Every round's barrier comes with its
    /// read, and nothing else is sent but table-stats counts, which `peer`
    /// counts.
    fn tick(
        fg: &mut FloodGuard,
        peer: &mut Peer,
        telemetry: &Telemetry,
        now: f64,
    ) -> (usize, usize) {
        let mut out = ControlOutput::new();
        fg.on_telemetry(telemetry, now, &mut out);
        let count =
            |f: &dyn Fn(&OfBody) -> bool| out.messages.iter().filter(|(_, m)| f(&m.body)).count();
        let reads = count(
            &|b| matches!(b, OfBody::StatsRequest(StatsRequest::Flow(m)) if *m == OfMatch::any()),
        );
        let mods = count(&|b| matches!(b, OfBody::FlowMod(_)));
        let barriers = count(&|b| *b == OfBody::BarrierRequest);
        let counts = count(&|b| *b == OfBody::StatsRequest(StatsRequest::Table));
        assert!(barriers <= reads, "a barrier without its read");
        assert_eq!(
            reads + mods + barriers + counts,
            out.messages.len(),
            "nothing else is sent"
        );
        peer.serve(fg, &out, now);
        (reads, mods)
    }

    /// Sixty benign hosts seeded at t = 0, sixty spoofed sources, then the
    /// two ticks that reach Defense, served by `peer`.
    fn defend(fg: &mut FloodGuard, peer: &mut Peer, telemetry: &Telemetry) {
        seed_hosts(fg, 60);
        flood_packet_in(fg, 1.0, 60);
        let init = tick(fg, peer, telemetry, 1.05);
        assert_eq!(init, (1, 3), "Init: the migration rules, read back");
        assert_eq!(fg.state(), State::Init);
        let defense = tick(fg, peer, telemetry, 1.1);
        assert_eq!(
            defense,
            (1, 60),
            "Defense: the seeded hosts' rules, read back"
        );
        assert_eq!(fg.state(), State::Defense);
        assert_flood_quarantined(fg, 60);
        assert_eq!(peer.ours(), 63);
        // Keep the cache looking busy so the attack is not declared over.
        fg.cache_handle().lock().stats.received = 1000;
    }

    /// The proactive rules carry the apps' idle timeouts: one that idles
    /// out of the switch is gone because it was not used, and its
    /// `FLOW_REMOVED` is not a loss to repair. The redirects have none, and
    /// stay.
    #[test]
    fn idle_proactive_rules_age_out_of_the_switch_and_stay_out() {
        let mut fg = fg_with_l2();
        let mut peer = Peer::new();
        defend(&mut fg, &mut peer, &telemetry());
        let mut now = 1.1;
        for _ in 0..500 {
            now += 0.05;
            fg.cache_handle().lock().stats.received += 1000;
            tick(&mut fg, &mut peer, &telemetry(), now);
            for msg in peer.switch.expire(now) {
                fg.on_message(DatapathId(1), msg, now, &mut ControlOutput::new());
            }
            assert_eq!(fg.state(), State::Defense);
        }
        assert_eq!(fg.stats.rules_repaired, 0);
        assert_eq!((peer.redirects(), peer.ours()), (3, 3));
    }

    #[test]
    fn an_unobserved_table_is_asked_about_and_not_repaired() {
        let mut fg = fg_with_l2();
        let mut peer = Peer::new();
        seed_hosts(&mut fg, 60);
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 0.1), (0, 0), "Idle");
        flood_packet_in(&mut fg, 1.0, 60);
        // Init and Defense: each round read back, and no other read.
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.05), (1, 3));
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.1), (1, 60));
        assert_flood_quarantined(&fg, 60);
        // No read while nothing changed, though the switch holds redirects;
        // intact, nothing repaired.
        fg.cache_handle().lock().stats.received = 1000;
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.15), (0, 0));
        assert_eq!(fg.state(), State::Defense);
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.6), (0, 0));
        // Quiet cache: the tick that ends the attack removes the migration
        // rules and reads the table back once; nothing after.
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 2.1), (1, 3));
        assert_eq!(fg.state(), State::Finish);
        // The answer showed them gone; the intake closes a tick later.
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 2.2), (0, 0));
        assert_eq!(fg.state(), State::Finish);
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 2.3), (0, 0));
        assert_eq!(fg.state(), State::Idle);
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 2.4), (0, 0));
        assert_eq!(fg.stats.rules_repaired, 0);
        assert_eq!((peer.redirects(), peer.ours()), (0, 60));
    }

    #[test]
    fn a_switch_the_teardown_missed_gets_the_deletes_when_it_returns() {
        let mut fg = fg_with_l2();
        let mut peer = Peer::new();
        defend(&mut fg, &mut peer, &telemetry());
        // Cut off mid-defense; the attack ends while it is away.
        fg.on_switch_disconnect(DatapathId(1), 1.12, &mut ControlOutput::new());
        let mut now = 1.1;
        while fg.state() != State::Idle && now < 5.0 {
            now += 0.05;
            let mut out = ControlOutput::new();
            fg.on_telemetry(&telemetry(), now, &mut out);
            assert!(out.messages.is_empty(), "sent to a switch that is gone");
        }
        assert_eq!(
            fg.state(),
            State::Idle,
            "the intake waited for a switch that is gone"
        );
        assert_eq!(fg.stats.teardown_unanswered, 1);
        assert_eq!(peer.redirects(), 3, "the teardown never reached it");
        // Back: its table is read back, and the stale redirects deleted,
        // once. The proactive rules are left to age out.
        let mut out = ControlOutput::new();
        fg.on_switch_connect(DatapathId(1), features(), now, &mut out);
        assert_eq!(peer.serve(&mut fg, &out, now), 1);
        assert_eq!(tick(&mut fg, &mut peer, &telemetry(), now + 0.05), (1, 3));
        assert_eq!((peer.redirects(), peer.ours()), (0, 60));
        assert_eq!(tick(&mut fg, &mut peer, &telemetry(), now + 0.1), (0, 0));
        assert_eq!(fg.stats.rules_repaired, 3);
    }

    #[test]
    fn an_observed_table_is_not_asked_about() {
        // The simulator's telemetry carries the count.
        let mut fg = fg_with_l2();
        let mut peer = Peer::new();
        defend(&mut fg, &mut peer, &telemetry());
        assert_eq!(tick(&mut fg, &mut peer, &telemetry(), 1.15), (0, 0));
        assert_eq!(fg.stats.rules_repaired, 0);
        // A count below the redirects last seen is certain loss: read back
        // and repaired.
        peer.lose(63);
        let mut wiped = telemetry();
        wiped.switches[0].flow_count = Some(0);
        assert_eq!(tick(&mut fg, &mut peer, &wiped, 1.2), (1, 0));
        assert_eq!(tick(&mut fg, &mut peer, &wiped, 1.25), (1, 63));
        assert_eq!(peer.ours(), 63);
        assert_eq!(tick(&mut fg, &mut peer, &telemetry(), 1.3), (0, 0));
    }

    #[test]
    fn cache_placement_reconciles_only_the_redirects() {
        let mut platform = ControllerPlatform::new();
        platform.register(apps::l2_learning::program());
        let config = FloodGuardConfig {
            rule_placement: RulePlacement::Cache,
            ..FloodGuardConfig::default()
        };
        let mut fg = FloodGuard::new(platform, config, 99);
        let mut peer = Peer::new();
        fg.on_switch_connect(DatapathId(1), features(), 0.0, &mut ControlOutput::new());
        seed_hosts(&mut fg, 4);
        flood_packet_in(&mut fg, 1.0, 60);
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.05), (1, 3));
        // The rules go to the cache; the switch is sent nothing.
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.1), (0, 0));
        assert_eq!(fg.state(), State::Defense);
        assert_eq!(fg.analyzer().installed().len(), 4);
        fg.cache_handle().lock().stats.received = 1000;
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.15), (0, 0));
        assert_eq!((peer.redirects(), peer.ours()), (3, 3));
        assert_eq!(fg.stats.rules_repaired, 0);
    }

    #[test]
    fn a_reconnect_is_read_back_and_repaired_in_one_round() {
        let mut fg = fg_with_l2();
        let mut peer = Peer::new();
        defend(&mut fg, &mut peer, &unobserved());
        // The switch restarts empty and comes back: asked at once, and
        // nothing else sent until it answers.
        fg.on_switch_disconnect(DatapathId(1), 1.12, &mut ControlOutput::new());
        let mut peer = Peer::new();
        let mut out = ControlOutput::new();
        fg.on_switch_connect(DatapathId(1), features(), 1.12, &mut out);
        assert_eq!(out.messages.len(), 1);
        assert_eq!(peer.serve(&mut fg, &out, 1.12), 1);
        // One round: the migration rules and the installed proactive ones.
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.15), (1, 63));
        assert_eq!(fg.stats.rules_repaired, 63);
        assert_eq!(peer.ours(), 63);
        // The answer shows the table whole: nothing more.
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.2), (0, 0));
        assert_eq!(fg.stats.rules_repaired, 63);
    }

    /// Whether an answer differs, decided in one walk of it, is what the
    /// delta round built from the whole wanted table says: for equal
    /// tables, a missing rule, an extra rule and changed actions, each of a
    /// proactive rule and of a redirect.
    #[test]
    fn differs_agrees_with_the_delta_round() {
        use ofproto::actions::Action;
        use ofproto::messages::FlowStats;
        let mut fg = fg_with_l2();
        let mut peer = Peer::new();
        defend(&mut fg, &mut peer, &unobserved());
        let held = fg.tables.switches[0].have.clone().expect("answered");
        assert_eq!(held.len(), 63);
        let redirect = held
            .iter()
            .position(|r| MigrationAgent::is_redirect(&r.of_match, r.priority))
            .expect("a redirect");
        let rule = held
            .iter()
            .position(|r| !MigrationAgent::is_redirect(&r.of_match, r.priority))
            .expect("a proactive rule");
        let without = |at: usize| {
            let mut have = held.clone();
            have.remove(at);
            have
        };
        let changed = |at: usize| {
            let mut have = held.clone();
            have[at].actions.push(Action::Output(PortNo::Flood));
            have
        };
        let with_extra = |priority: u16| {
            let mut have = held.clone();
            have.push(FlowStats {
                of_match: OfMatch::any().with_in_port(42),
                priority,
                ..held[rule].clone()
            });
            have
        };
        let cases = [
            ("equal tables", held.clone(), false),
            ("a missing proactive rule", without(rule), true),
            ("a missing redirect", without(redirect), true),
            ("an extra rule", with_extra(held[rule].priority), true),
            (
                "an extra redirect",
                with_extra(held[redirect].priority),
                true,
            ),
            ("changed actions", changed(rule), true),
            ("a redirect's changed actions", changed(redirect), true),
        ];
        for (case, have, differs) in cases {
            fg.tables.switches[0].have = Some(have);
            assert_eq!(fg.differs(0), !fg.delta(0).is_empty(), "{case}");
            assert_eq!(fg.differs(0), differs, "{case}");
        }
        // A rule the switch refused is not wanted of it.
        for at in [rule, redirect] {
            let sw = &mut fg.tables.switches[0];
            sw.refused = HashSet::from([(held[at].of_match, held[at].priority)]);
            sw.have = Some(without(at));
            assert!(!fg.differs(0) && fg.delta(0).is_empty(), "refused {at}");
            fg.tables.switches[0].have = Some(without(rule.max(redirect)));
            fg.tables.switches[0]
                .have
                .as_mut()
                .unwrap()
                .remove(rule.min(redirect));
            assert!(
                fg.differs(0) && !fg.delta(0).is_empty(),
                "refused {at}, both missing"
            );
        }
    }

    #[test]
    fn a_short_table_gets_one_read_and_one_delta_round_per_answer() {
        let mut fg = fg_with_l2();
        let mut peer = Peer::new();
        defend(&mut fg, &mut peer, &unobserved());
        // One redirect and ten proactive rules lost, connection kept, and
        // nothing said of it; the switch goes on losing every flow_mod.
        peer.lose(11);
        peer.lossy = true;
        // The next count, one wait after the Defense round's read, shows
        // the table short: it is unknown, and read.
        let mut now = 1.1;
        while peer.counts == 0 {
            now += 0.05;
            fg.cache_handle().lock().stats.received += 1000;
            assert_eq!(tick(&mut fg, &mut peer, &unobserved(), now), (0, 0));
        }
        assert!((ANSWER_WAIT_S..ANSWER_WAIT_S + 0.1).contains(&(now - 1.1)));
        now += 0.05;
        fg.cache_handle().lock().stats.received += 1000;
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), now), (1, 0), "read");
        // Each answer brings one round of the difference, read back: never
        // the whole table, and never more than one read a tick.
        for round in 1..=5 {
            now += 0.05;
            fg.cache_handle().lock().stats.received += 1000;
            assert_eq!(tick(&mut fg, &mut peer, &unobserved(), now), (1, 11));
            assert_eq!(fg.stats.rules_repaired, round * 11);
        }
        assert_eq!(fg.state(), State::Defense);
        // The switch takes them: whole, and nothing more sent.
        peer.lossy = false;
        fg.cache_handle().lock().stats.received += 1000;
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), now + 0.05), (1, 11));
        assert_eq!(peer.ours(), 63);
        fg.cache_handle().lock().stats.received += 1000;
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), now + 0.1), (0, 0));
        assert_eq!(fg.stats.rules_repaired, 66);
        assert_eq!(peer.counts, 1);
    }

    #[test]
    fn an_answer_from_before_init_says_nothing_about_this_episode() {
        let mut fg = fg_with_l2();
        let mut peer = Peer::new();
        // An empty table, reported while no read was asked.
        let empty = |xid| OfMessage::new(xid, OfBody::StatsReply(StatsReply::Flow(Vec::new())));
        fg.on_message(
            DatapathId(1),
            empty(Xid(0x4647_0000)),
            0.5,
            &mut ControlOutput::new(),
        );
        defend(&mut fg, &mut peer, &unobserved());
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.15), (0, 0));
        assert_eq!(fg.stats.rules_repaired, 0);
        // Nor does one to a read from before the connection came back: the
        // read a reconnect sends, unanswered when the switch goes again.
        fg.on_switch_disconnect(DatapathId(1), 1.2, &mut ControlOutput::new());
        let mut stale = ControlOutput::new();
        fg.on_switch_connect(DatapathId(1), features(), 1.2, &mut stale);
        let (_, read) = &stale.messages[0];
        assert!(matches!(
            read.body,
            OfBody::StatsRequest(StatsRequest::Flow(_))
        ));
        fg.on_switch_disconnect(DatapathId(1), 1.21, &mut ControlOutput::new());
        let mut out = ControlOutput::new();
        fg.on_switch_connect(DatapathId(1), features(), 1.22, &mut out);
        fg.on_message(
            DatapathId(1),
            empty(read.xid),
            1.23,
            &mut ControlOutput::new(),
        );
        assert_eq!(peer.serve(&mut fg, &out, 1.23), 1);
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.25), (0, 0));
        assert_eq!(fg.stats.rules_repaired, 0);
    }

    /// The frame count of a steady Defense on a switch whose telemetry
    /// carries no count of its table (a live one): after the Init and
    /// Defense rounds' reads, fifty ticks send no flow-stats read and no
    /// flow_mod, and at most one table-stats count per [`ANSWER_WAIT_S`].
    #[test]
    fn a_steady_defense_is_counted_not_read() {
        let mut fg = fg_with_l2();
        let mut peer = Peer::new();
        defend(&mut fg, &mut peer, &unobserved());
        let (start, ticks, period) = (1.1, 50, 0.05);
        for k in 1..=ticks {
            fg.cache_handle().lock().stats.received += 1000;
            let now = start + f64::from(k) * period;
            assert_eq!(
                tick(&mut fg, &mut peer, &unobserved(), now),
                (0, 0),
                "tick {k}"
            );
        }
        assert_eq!(fg.state(), State::Defense);
        let waits = (f64::from(ticks) * period / ANSWER_WAIT_S).floor() as usize;
        assert!(
            (1..=waits).contains(&peer.counts),
            "{} counts in {waits} waits",
            peer.counts
        );
        assert_eq!(fg.stats.rules_repaired, 0);
        assert_eq!(peer.ours(), 63);
    }

    /// A redirect another controller deletes comes back as a
    /// `FLOW_REMOVED`, and the next tick repairs it with one round and no
    /// read before it.
    #[test]
    fn a_reported_removal_is_repaired_on_the_next_tick() {
        let mut fg = fg_with_l2();
        let mut peer = Peer::new();
        defend(&mut fg, &mut peer, &unobserved());
        fg.cache_handle().lock().stats.received += 1000;
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.15), (0, 0));
        let redirect = fg.tables.switches[0].redirects[0].clone();
        peer.delete_behind_fg(&mut fg, redirect.of_match, redirect.priority);
        assert_eq!(peer.redirects(), 2);
        fg.cache_handle().lock().stats.received += 1000;
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.2), (1, 1));
        assert_eq!((peer.redirects(), peer.ours()), (3, 63));
        assert_eq!(fg.stats.rules_repaired, 1);
        fg.cache_handle().lock().stats.received += 1000;
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), 1.25), (0, 0));
        assert_eq!(peer.counts, 0);
    }

    /// A table too small for the wanted set refuses the adds it has no room
    /// for, with `OFPET_FLOW_MOD_FAILED`. The refused adds are not sent
    /// again on every tick, only once a rule of FloodGuard's is gone from
    /// the switch and so has freed room.
    #[test]
    fn a_full_table_is_not_sent_the_refused_adds_every_tick() {
        let mut fg = fg_with_l2();
        let mut peer = Peer::with_capacity(20);
        seed_hosts(&mut fg, 60);
        flood_packet_in(&mut fg, 1.0, 60);
        assert_eq!(tick(&mut fg, &mut peer, &telemetry(), 1.05), (1, 3));
        assert_eq!(tick(&mut fg, &mut peer, &telemetry(), 1.1), (1, 60));
        assert_eq!(fg.state(), State::Defense);
        assert_eq!((peer.redirects(), peer.ours()), (3, 20));
        assert_eq!(fg.stats.rules_refused, 43);
        let mut now = 1.1;
        for _ in 0..10 {
            now += 0.05;
            fg.cache_handle().lock().stats.received += 1000;
            assert_eq!(tick(&mut fg, &mut peer, &unobserved(), now), (0, 0));
            assert_eq!(fg.stats.rules_repaired, 0);
        }
        assert_eq!((peer.redirects(), peer.ours()), (3, 20));
        // Room: one proactive rule removed. The next tick tries it and the
        // refused ones again, once; all but one are refused again.
        let rule = fg.analyzer().installed()[0].clone();
        peer.delete_behind_fg(&mut fg, rule.of_match, rule.priority);
        now += 0.05;
        fg.cache_handle().lock().stats.received += 1000;
        assert_eq!(tick(&mut fg, &mut peer, &unobserved(), now), (1, 44));
        assert_eq!((fg.stats.rules_repaired, fg.stats.rules_refused), (44, 86));
        assert_eq!((peer.redirects(), peer.ours()), (3, 20));
        for _ in 0..10 {
            now += 0.05;
            fg.cache_handle().lock().stats.received += 1000;
            assert_eq!(tick(&mut fg, &mut peer, &unobserved(), now), (0, 0));
        }
        assert_eq!(fg.stats.rules_repaired, 44);
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
