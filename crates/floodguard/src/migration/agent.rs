//! The migration agent (paper §IV-C1) — the "brain" of FloodGuard.
//!
//! Its three functions:
//! 1. detect the saturation attack (delegated to [`crate::detector`], which
//!    the agent feeds),
//! 2. migrate table-miss packets: install per-ingress-port wildcard rules
//!    that tag the INPORT into the TOS byte and redirect to the data plane
//!    cache, and
//! 3. bridge the cache to the controller: re-raise cache-generated
//!    `packet_in`s with the original datapath, and steer the cache's
//!    submission rate from controller utilization.

use std::sync::Arc;

use ofproto::actions::Action;
use ofproto::flow_match::OfMatch;
use ofproto::flow_mod::FlowMod;
use ofproto::types::{DatapathId, PortNo};

use crate::cache::CacheHandle;
use crate::config::{CacheFailPolicy, FloodGuardConfig};
use crate::migration::tag;

/// Priority of the migration wildcard rules: the lowest, so every real rule
/// wins.
const MIGRATION_PRIORITY: u16 = 0;

/// One cache under the agent's management.
#[derive(Debug)]
struct CacheSlot {
    handle: CacheHandle,
    port: u16,
    standby: bool,
}

/// Outcome of [`MigrationAgent::check_cache_health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFailover {
    /// Nothing to do: a healthy active cache exists — or the agent is still
    /// degraded with no recovery path yet.
    Ok,
    /// A healthy cache was promoted to active on `port`; the caller must
    /// re-point the migration rules at it.
    Promoted {
        /// Switch port the promoted cache hangs off.
        port: u16,
    },
    /// No healthy cache remains: the caller must degrade per the configured
    /// [`crate::config::CacheFailPolicy`]. Reported once per transition.
    Degraded,
}

/// The migration agent.
///
/// Steers one or more data plane caches (§IV-E: "we could also use a set of
/// data plane caches, with each in charge of a subset of switches"); all
/// active caches share the same intake state and rate limit, driven by the
/// one attack state machine. Standby caches stay closed until a failover
/// promotes them.
#[derive(Debug)]
pub struct MigrationAgent {
    config: FloodGuardConfig,
    slots: Vec<CacheSlot>,
    cache_port: u16,
    migrating: bool,
    degraded: bool,
    last_received: u64,
    last_rate_at: f64,
}

impl MigrationAgent {
    /// Creates an agent steering the cache behind `cache_port`.
    pub fn new(
        config: FloodGuardConfig,
        cache_handle: CacheHandle,
        cache_port: u16,
    ) -> MigrationAgent {
        MigrationAgent {
            config,
            slots: vec![CacheSlot {
                handle: cache_handle,
                port: cache_port,
                standby: false,
            }],
            cache_port,
            migrating: false,
            degraded: false,
            last_received: 0,
            last_rate_at: 0.0,
        }
    }

    /// Registers an additional active cache behind the current cache port
    /// (multi-cache deployments). Duplicate handles are ignored; returns
    /// whether the handle was added.
    pub fn register_cache(&mut self, handle: CacheHandle) -> bool {
        if self.is_registered(&handle) {
            return false;
        }
        self.slots.push(CacheSlot {
            handle,
            port: self.cache_port,
            standby: false,
        });
        true
    }

    /// Registers a standby cache behind `port`: it stays closed until
    /// [`MigrationAgent::check_cache_health`] promotes it. Duplicate handles
    /// are ignored; returns whether the handle was added.
    pub fn register_standby(&mut self, handle: CacheHandle, port: u16) -> bool {
        if self.is_registered(&handle) {
            return false;
        }
        self.slots.push(CacheSlot {
            handle,
            port,
            standby: true,
        });
        true
    }

    /// Retires a cache (e.g. permanently decommissioned hardware); returns
    /// whether the handle was registered.
    pub fn remove_cache(&mut self, handle: &CacheHandle) -> bool {
        let before = self.slots.len();
        self.slots.retain(|s| !Arc::ptr_eq(&s.handle, handle));
        self.slots.len() < before
    }

    fn is_registered(&self, handle: &CacheHandle) -> bool {
        self.slots.iter().any(|s| Arc::ptr_eq(&s.handle, handle))
    }

    /// Number of caches under management (active and standby).
    pub fn cache_count(&self) -> usize {
        self.slots.len()
    }

    /// The handle of the `i`-th registered cache slot, in registration
    /// order.
    pub fn cache_handle(&self, i: usize) -> &CacheHandle {
        &self.slots[i].handle
    }

    /// The port the active caches hang off.
    pub fn cache_port(&self) -> u16 {
        self.cache_port
    }

    /// Whether the agent has given up on caches and degraded per policy.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    fn active_slots(&self) -> impl Iterator<Item = &CacheSlot> {
        self.slots.iter().filter(|s| !s.standby)
    }

    fn received_total(&self) -> u64 {
        self.active_slots()
            .map(|s| {
                let shared = s.handle.lock();
                shared.stats.received + shared.stats.rejected + shared.stats.dropped
            })
            .sum()
    }

    /// Re-baselines the arrival-rate estimator (after the active cache set
    /// changed, deltas against the old sum would be garbage).
    fn reset_rate_baseline(&mut self) {
        self.last_received = self.received_total();
    }

    /// Polls cache health and drives failover (called from telemetry while
    /// defense is active or the agent is degraded):
    ///
    /// * a healthy active cache → [`CacheFailover::Ok`];
    /// * all actives dead, healthy standby → the dead actives are demoted,
    ///   the standby promoted, and the caller re-points migration at the
    ///   returned port;
    /// * nothing healthy → [`CacheFailover::Degraded`], once: every intake
    ///   closes, and the redirect sets change per the configured
    ///   [`CacheFailPolicy`]. Fail-open ends migration, so table misses
    ///   reach the controller again (traffic forwards; the control plane
    ///   is re-exposed to the flood). Fail-safe turns the redirects into
    ///   drops, so both planes stay protected while new flows blackhole
    ///   until a cache comes back;
    /// * while degraded, any cache coming back healthy (a restarted cache or
    ///   a late-registered standby) is promoted, ending degradation.
    pub fn check_cache_health(&mut self) -> CacheFailover {
        let migrating = self.is_migrating();
        let healthy_active = self
            .slots
            .iter()
            .position(|s| !s.standby && s.handle.lock().healthy);
        if let Some(idx) = healthy_active {
            if self.degraded {
                // A dead active came back while degraded: re-point at it.
                self.degraded = false;
                let port = self.slots[idx].port;
                self.cache_port = port;
                self.slots[idx].handle.lock().control.intake_enabled = migrating;
                self.reset_rate_baseline();
                return CacheFailover::Promoted { port };
            }
            return CacheFailover::Ok;
        }
        // Every active cache is dead. Promote a healthy standby if any.
        if let Some(idx) = self
            .slots
            .iter()
            .position(|s| s.standby && s.handle.lock().healthy)
        {
            for s in &mut self.slots {
                if !s.standby {
                    s.standby = true; // demote: dead, but may restart later
                    s.handle.lock().control.intake_enabled = false;
                }
            }
            let slot = &mut self.slots[idx];
            slot.standby = false;
            let port = slot.port;
            slot.handle.lock().control.intake_enabled = migrating;
            self.cache_port = port;
            self.degraded = false;
            self.reset_rate_baseline();
            return CacheFailover::Promoted { port };
        }
        if self.degraded {
            CacheFailover::Ok
        } else {
            self.degraded = true;
            self.close_intake();
            if self.config.recovery.cache_fail_policy == CacheFailPolicy::FailOpen {
                self.migrating = false;
            }
            self.reset_rate_baseline();
            CacheFailover::Degraded
        }
    }

    /// Starts migration and returns switch `dpid`'s redirect set (see
    /// [`MigrationAgent::redirects`]); opens every active cache's intake.
    pub fn install_migration(&mut self, dpid: DatapathId, ports: &[u16]) -> Vec<FlowMod> {
        let _ = dpid;
        self.migrating = true;
        for slot in self.active_slots() {
            slot.handle.lock().control.intake_enabled = true;
        }
        self.redirects(ports)
    }

    /// The redirect set a switch with `ports` should hold now: one wildcard
    /// rule per ingress port (except the cache port), lowest priority,
    /// tagging INPORT into TOS and redirecting to the cache (paper Fig. 6:
    /// `inport=1, actions: set-tos-bits=1, output: cache`). Fail-safe
    /// degraded, the same rules drop instead; not migrating, or fail-open
    /// degraded, there are none.
    ///
    /// Ports that cannot be tagged (0 or above
    /// [`tag::MAX_TAGGABLE_PORT`]) are skipped.
    pub fn redirects(&self, ports: &[u16]) -> Vec<FlowMod> {
        let to_cache = Action::Output(PortNo::Physical(self.cache_port));
        let wanted = ports
            .iter()
            .filter(|&&p| self.migrating && p != self.cache_port);
        let tagged = wanted.filter_map(|&port| Some((port, tag::encode(port).ok()?)));
        let redirect = |(port, tos)| {
            // Fail-safe degraded: the same rule, dropping.
            let actions = match self.degraded {
                true => Vec::new(),
                false => vec![Action::SetNwTos(tos), to_cache],
            };
            FlowMod::add(OfMatch::any().with_in_port(port), actions)
                .with_priority(MIGRATION_PRIORITY)
                .with_cookie(self.config.cookie)
        };
        tagged.map(redirect).collect()
    }

    /// Whether a rule of this match and priority is a redirect.
    pub fn is_redirect(of_match: &OfMatch, priority: u16) -> bool {
        priority == MIGRATION_PRIORITY
            && *of_match == OfMatch::any().with_in_port(of_match.keys.in_port)
    }

    /// Ends migration: no switch should hold a redirect any more. The
    /// cache's intake stays open, since a switch redirects to the cache
    /// until it has applied the deletes; [`MigrationAgent::close_intake`]
    /// closes it once the switches say so.
    pub fn end_migration(&mut self) {
        self.migrating = false;
    }

    /// Closes every cache's intake.
    pub fn close_intake(&mut self) {
        for slot in &self.slots {
            slot.handle.lock().control.intake_enabled = false;
        }
    }

    /// Whether the switches should hold redirect (or fail-safe drop)
    /// rules.
    pub fn is_migrating(&self) -> bool {
        self.migrating
    }

    /// Observed packet arrival rate at the cache since the last call
    /// (packets/s) — the flood visibility signal once migration is active.
    pub fn cache_arrival_rate(&mut self, now: f64) -> f64 {
        let received = self.received_total();
        let dt = now - self.last_rate_at;
        if dt <= 0.0 {
            return 0.0;
        }
        let delta = received.saturating_sub(self.last_received);
        self.last_received = received;
        self.last_rate_at = now;
        delta as f64 / dt
    }

    /// Packets currently queued across the active caches.
    pub fn cache_backlog(&self) -> usize {
        self.active_slots()
            .map(|s| s.handle.lock().stats.queued)
            .sum()
    }

    /// Adapts the cache's `packet_in` rate toward the target controller
    /// utilization: back off multiplicatively when the controller runs hot,
    /// recover gently when it idles (an AIMD-flavored control loop bounded
    /// by the configured min/max).
    pub fn adapt_rate(&mut self, controller_utilization: f64) -> f64 {
        let target = self.config.target_controller_utilization;
        let mut last = 0.0;
        for slot in self.slots.iter().filter(|s| !s.standby) {
            let mut shared = slot.handle.lock();
            let rate = &mut shared.control.rate_pps;
            if controller_utilization > target * 1.4 {
                *rate *= 0.7;
            } else if controller_utilization < target * 0.6 {
                *rate *= 1.15;
            }
            *rate = rate.clamp(
                self.config.cache.min_rate_pps,
                self.config.cache.max_rate_pps,
            );
            last = *rate;
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::new_handle;
    use ofproto::messages::OfBody;
    use ofproto::types::Xid;

    fn agent() -> MigrationAgent {
        let config = FloodGuardConfig::default();
        let handle = new_handle(&config.cache);
        MigrationAgent::new(config, handle, 99)
    }

    #[test]
    fn migration_rules_per_port_with_tags() {
        let mut a = agent();
        let mods = a.install_migration(DatapathId(1), &[1, 2, 3, 99]);
        assert_eq!(mods.len(), 3, "cache port excluded");
        for (i, fm) in mods.iter().enumerate() {
            let port = (i + 1) as u16;
            assert_eq!(fm.of_match.keys.in_port, port);
            assert_eq!(fm.priority, 0, "lowest priority");
            assert_eq!(
                fm.actions,
                vec![
                    Action::SetNwTos(port as u8),
                    Action::Output(PortNo::Physical(99))
                ]
            );
            assert_eq!(fm.cookie, FloodGuardConfig::default().cookie);
        }
        assert!(a.is_migrating());
        assert!(a.cache_handle(0).lock().control.intake_enabled);
    }

    #[test]
    fn ending_migration_leaves_the_intake_open() {
        let mut a = agent();
        a.install_migration(DatapathId(1), &[1, 2]);
        a.end_migration();
        assert!(!a.is_migrating());
        assert!(a.redirects(&[1, 2]).is_empty());
        assert!(a.cache_handle(0).lock().control.intake_enabled);
        a.close_intake();
        assert!(!a.cache_handle(0).lock().control.intake_enabled);
    }

    #[test]
    fn a_redirect_is_told_from_other_rules() {
        let mut a = agent();
        for fm in a.install_migration(DatapathId(1), &[1, 2]) {
            assert!(MigrationAgent::is_redirect(&fm.of_match, fm.priority));
        }
        let other = OfMatch::any().with_in_port(1).with_nw_proto(17);
        assert!(!MigrationAgent::is_redirect(&other, 0));
        assert!(!MigrationAgent::is_redirect(
            &OfMatch::any().with_in_port(1),
            1
        ));
    }

    #[test]
    fn untaggable_ports_skipped() {
        let mut a = agent();
        let mods = a.install_migration(DatapathId(1), &[0, 1, 300]);
        assert_eq!(mods.len(), 1);
        assert_eq!(mods[0].of_match.keys.in_port, 1);
    }

    #[test]
    fn arrival_rate_from_cache_counters() {
        let mut a = agent();
        a.cache_handle(0).lock().stats.received = 0;
        assert_eq!(a.cache_arrival_rate(1.0), 0.0);
        a.cache_handle(0).lock().stats.received = 50;
        let rate = a.cache_arrival_rate(1.5);
        assert!((rate - 100.0).abs() < 1e-9, "50 packets / 0.5 s");
    }

    #[test]
    fn rate_adaptation_bounded() {
        let mut a = agent();
        let base = a.cache_handle(0).lock().control.rate_pps;
        // Hot controller: rate shrinks.
        let r1 = a.adapt_rate(0.95);
        assert!(r1 < base);
        // Keep shrinking but never below the floor.
        for _ in 0..50 {
            a.adapt_rate(1.0);
        }
        let floor = a.cache_handle(0).lock().control.rate_pps;
        assert!((floor - FloodGuardConfig::default().cache.min_rate_pps).abs() < 1e-9);
        // Idle controller: rate recovers up to the cap.
        for _ in 0..100 {
            a.adapt_rate(0.0);
        }
        let cap = a.cache_handle(0).lock().control.rate_pps;
        assert!((cap - FloodGuardConfig::default().cache.max_rate_pps).abs() < 1e-9);
    }

    #[test]
    fn migration_rule_shape_matches_paper_example() {
        // "inport = 1, actions: set-tos-bits = 1, output: data plane cache"
        let mut a = agent();
        let mods = a.install_migration(DatapathId(1), &[1]);
        let fm = &mods[0];
        let msg = ofproto::messages::OfMessage::new(Xid(1), OfBody::FlowMod(fm.clone()));
        // And it survives the wire codec.
        let decoded = ofproto::wire::decode(&ofproto::wire::encode(&msg)).unwrap();
        assert_eq!(decoded, msg);
    }
}

#[cfg(test)]
mod multi_cache_tests {
    use super::*;
    use crate::cache::new_handle;

    #[test]
    fn multiple_caches_share_intake_and_rate() {
        let config = FloodGuardConfig::default();
        let h1 = new_handle(&config.cache);
        let h2 = new_handle(&config.cache);
        let mut agent = MigrationAgent::new(config, h1.clone(), 99);
        agent.register_cache(h2.clone());
        assert_eq!(agent.cache_count(), 2);
        agent.install_migration(DatapathId(1), &[1, 2]);
        assert!(h1.lock().control.intake_enabled);
        assert!(h2.lock().control.intake_enabled);
        // Backlog and arrival rate aggregate across caches.
        h1.lock().stats.queued = 3;
        h2.lock().stats.queued = 4;
        assert_eq!(agent.cache_backlog(), 7);
        h1.lock().stats.received = 30;
        h2.lock().stats.received = 20;
        let rate = agent.cache_arrival_rate(1.0);
        assert!((rate - 50.0).abs() < 1e-9);
        // Rate adaptation applies to all.
        for _ in 0..10 {
            agent.adapt_rate(1.0);
        }
        let config = FloodGuardConfig::default();
        assert!((h1.lock().control.rate_pps - config.cache.min_rate_pps).abs() < 1e-9);
        assert!((h2.lock().control.rate_pps - config.cache.min_rate_pps).abs() < 1e-9);
        // Closing closes every intake.
        agent.close_intake();
        assert!(!h1.lock().control.intake_enabled);
        assert!(!h2.lock().control.intake_enabled);
    }

    #[test]
    fn register_cache_dedupes_and_remove_cache_retires() {
        let config = FloodGuardConfig::default();
        let h1 = new_handle(&config.cache);
        let h2 = new_handle(&config.cache);
        let mut agent = MigrationAgent::new(config, h1.clone(), 99);
        assert!(
            !agent.register_cache(h1.clone()),
            "duplicate active ignored"
        );
        assert!(agent.register_cache(h2.clone()));
        assert!(
            !agent.register_standby(h2.clone(), 98),
            "duplicate standby ignored"
        );
        assert_eq!(agent.cache_count(), 2);
        assert!(agent.remove_cache(&h2));
        assert!(!agent.remove_cache(&h2), "already removed");
        assert_eq!(agent.cache_count(), 1);
    }

    #[test]
    fn standby_promoted_when_active_dies() {
        let config = FloodGuardConfig::default();
        let active = new_handle(&config.cache);
        let standby = new_handle(&config.cache);
        let mut agent = MigrationAgent::new(config, active.clone(), 99);
        agent.register_standby(standby.clone(), 98);
        agent.install_migration(DatapathId(1), &[1, 2]);
        assert!(
            !standby.lock().control.intake_enabled,
            "standby stays closed"
        );
        assert_eq!(agent.check_cache_health(), CacheFailover::Ok);
        // Active dies: standby takes over and opens (migration is active).
        active.lock().healthy = false;
        assert_eq!(
            agent.check_cache_health(),
            CacheFailover::Promoted { port: 98 }
        );
        assert_eq!(agent.cache_port(), 98);
        assert!(standby.lock().control.intake_enabled);
        assert!(!active.lock().control.intake_enabled);
        assert!(!agent.is_degraded());
        // Repointed rules now redirect to port 98.
        let mods = agent.redirects(&[1, 2]);
        assert!(mods
            .iter()
            .all(|fm| fm.actions.contains(&Action::Output(PortNo::Physical(98)))));
    }

    #[test]
    fn no_healthy_cache_degrades_once_then_recovers() {
        let mut config = FloodGuardConfig::default();
        config.recovery.cache_fail_policy = CacheFailPolicy::FailSafe;
        let h = new_handle(&config.cache);
        let mut agent = MigrationAgent::new(config, h.clone(), 99);
        agent.install_migration(DatapathId(1), &[1]);
        h.lock().healthy = false;
        assert_eq!(agent.check_cache_health(), CacheFailover::Degraded);
        assert!(agent.is_degraded());
        assert_eq!(
            agent.check_cache_health(),
            CacheFailover::Ok,
            "degradation reported once"
        );
        // The cache restarts: the agent re-points at it and recovers.
        h.lock().healthy = true;
        assert_eq!(
            agent.check_cache_health(),
            CacheFailover::Promoted { port: 99 }
        );
        assert!(!agent.is_degraded());
        assert!(h.lock().control.intake_enabled, "fail-safe kept migrating");
    }

    #[test]
    fn degrade_fail_safe_turns_rules_into_drops() {
        let mut config = FloodGuardConfig::default();
        config.recovery.cache_fail_policy = CacheFailPolicy::FailSafe;
        let h = new_handle(&config.cache);
        let mut agent = MigrationAgent::new(config, h.clone(), 99);
        agent.install_migration(DatapathId(1), &[1, 2]);
        h.lock().healthy = false;
        assert_eq!(agent.check_cache_health(), CacheFailover::Degraded);
        let drops = agent.redirects(&[1, 2]);
        assert_eq!(drops.len(), 2);
        for fm in &drops {
            assert!(fm.actions.is_empty(), "empty actions = drop");
            assert_eq!(fm.priority, 0);
        }
        assert!(!h.lock().control.intake_enabled);
        assert!(agent.is_migrating(), "the drops stay wanted");
    }

    #[test]
    fn degrading_fail_open_ends_migration() {
        let config = FloodGuardConfig::default();
        let h = new_handle(&config.cache);
        let mut agent = MigrationAgent::new(config, h.clone(), 99);
        agent.install_migration(DatapathId(1), &[1, 2]);
        h.lock().healthy = false;
        assert_eq!(agent.check_cache_health(), CacheFailover::Degraded);
        assert!(!agent.is_migrating());
        assert!(agent.redirects(&[1, 2]).is_empty());
        assert!(!h.lock().control.intake_enabled);
    }
}
