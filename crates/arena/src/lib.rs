//! # arena — one seam, every defense
//!
//! Every DoS defense in this workspace protects the same network the same
//! way: it inserts itself between the switch's table-miss path and the
//! controller. The [`Defense`] trait names that seam explicitly so
//! FloodGuard, its baselines and rival defenses from the wider literature
//! all race on identical footing — same topology, same workloads, same
//! seed, same measurement code — and the comparison table (`bench`'s
//! `defense_arena` bin) can iterate over `Box<dyn Defense>` instead of
//! hand-wiring each contender.
//!
//! A backend is attached once per run via [`Defense::attach`], which takes
//! ownership of the controller platform and installs whatever machinery the
//! defense needs (a control-plane wrapper, a datapath miss hook, an
//! out-of-band cache device — or several at once). After the run the
//! harness reads back [`Defense::stats`]: a normalized
//! [`DefenseStats`] whose cells mean the same thing in every row of the
//! table, plus optional FloodGuard-specific handles for the legacy figure
//! bins.
//!
//! Backends:
//! * [`FloodGuardDefense`] — the paper's system (control-plane wrapper +
//!   data-plane cache device), wired exactly as the pre-arena harness did
//!   so the checked-in figure results reproduce byte-identically.
//! * [`AvantGuardDefense`] — connection-migration SYN proxy (Shin et al.).
//! * [`LineSwitchDefense`] — edge SYN proxy with probabilistic blacklisting
//!   and a proxy-state budget (Ambrosin et al.).
//! * [`SynCookiesDefense`] — stateless data-plane SYN cookies (Scholz et
//!   al.).
//! * [`NaiveDropDefense`] — the drop-all strawman the paper rejects.

#![warn(missing_docs)]

use baselines::avantguard::{SynProxy, SynProxyHandle};
use baselines::lineswitch::{LineSwitch, LineSwitchConfig, LineSwitchHandle};
use baselines::naive_drop::{NaiveDrop, NaiveDropHandle};
use baselines::syncookies::{SynCookies, SynCookiesConfig, SynCookiesHandle};
use controller::platform::ControllerPlatform;
use floodguard::cache::CacheHandle;
use floodguard::{FloodGuard, FloodGuardConfig, MonitorHandle};
use netsim::engine::{Simulation, SwitchId};
use netsim::profile::SwitchProfile;
use ofproto::types::DatapathId;

/// Everything a backend may touch while inserting itself into a freshly
/// built simulation: the engine, the switch under test, and the port
/// conventions the shared topology reserves for out-of-band devices.
pub struct AttachCtx<'a> {
    /// The simulation being assembled (hosts and switch already exist; no
    /// control plane installed yet).
    pub sim: &'a mut Simulation,
    /// The switch under test.
    pub sw: SwitchId,
    /// The switch's resource model (device attachment needs its channel
    /// bandwidth/latency).
    pub profile: SwitchProfile,
    /// Reserved port for a primary out-of-band device (FloodGuard's cache).
    pub cache_port: u16,
    /// Reserved port for a standby device.
    pub standby_port: u16,
    /// Whether the scenario wants a standby cache attached.
    pub standby_cache: bool,
    /// Obs hub to register gauges on, when the scenario attached one.
    pub obs: Option<&'a obs::ObsHandle>,
}

/// Normalized per-defense counters — every cell means the same thing in
/// every arena row, so columns compare directly across defenses.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DefenseStats {
    /// Attack episodes the defense detected (0 for always-on datapath
    /// defenses, which have no detector).
    pub attacks_detected: u64,
    /// Flow rules the defense itself installed (FloodGuard's proactive
    /// rules, naive drop's drop-all rule; proxies install none).
    pub rules_installed: u64,
    /// Rules the defense removed again.
    pub rules_removed: u64,
    /// Flows/packets migrated from the defense to the controller
    /// (FloodGuard: packets absorbed by the cache; proxies: validated
    /// flows handed up).
    pub migrations: u64,
    /// TCP handshakes the defense validated (0 where no proxying happens).
    pub handshakes_validated: u64,
    /// Misses the defense forwarded toward the controller (FloodGuard:
    /// rate-limited `packet_in`s the cache emitted; proxies: non-TCP
    /// passthrough — their unprotected surface).
    pub passed_through: u64,
    /// Packets the defense dropped, per protocol class
    /// (TCP/UDP/ICMP/other — FloodGuard's cache lane layout).
    pub drops_by_class: [u64; 4],
    /// Bytes of defense state held at the end of the run.
    pub state_bytes: u64,
    /// High-water mark of defense state over the run.
    pub state_bytes_peak: u64,
    /// What the applications had learned at the end of the run, as
    /// (entries in their maps, entries in quarantine), where the defense
    /// reports it (FloodGuard); `None` elsewhere.
    pub learned_state: Option<(u64, u64)>,
}

impl DefenseStats {
    /// Total drops across all protocol classes.
    pub fn drops_total(&self) -> u64 {
        self.drops_by_class.iter().sum()
    }
}

/// A pluggable DoS defense: one contender in the arena.
///
/// Lifecycle: the harness builds the topology, constructs the backend,
/// calls [`attach`](Defense::attach) exactly once (consuming the controller
/// platform), runs the simulation, calls [`detach`](Defense::detach), and
/// finally reads [`stats`](Defense::stats). Backends keep shared handles to
/// whatever they moved into the engine so `stats` works after the run.
pub trait Defense: Send {
    /// Stable lowercase identifier used in table rows and JSON keys.
    fn name(&self) -> &'static str;

    /// Inserts the defense into the simulation, consuming the controller
    /// platform (defenses that wrap the control plane take it over; pure
    /// datapath defenses install it unwrapped).
    fn attach(&mut self, platform: ControllerPlatform, ctx: &mut AttachCtx<'_>);

    /// Tears down anything the defense wants to undo after the run.
    /// Default: nothing — simulations are discarded after measurement.
    fn detach(&mut self, _sim: &mut Simulation) {}

    /// Normalized counters, readable after the simulation consumed the
    /// attached machinery.
    fn stats(&self) -> DefenseStats;

    /// FloodGuard's monitor handle (transitions + native stats), for the
    /// legacy figure bins. `None` for every other backend.
    fn monitor(&self) -> Option<MonitorHandle> {
        None
    }

    /// FloodGuard's cache handle (probe residency log), for Table IV.
    /// `None` for every other backend.
    fn cache(&self) -> Option<CacheHandle> {
        None
    }
}

/// Estimated bytes per packet queued in FloodGuard's data plane cache
/// (packet headers + metadata + queue overhead) — the cache holds whole
/// packets, which is why its state cost dwarfs the proxies' 4-tuples.
pub const CACHE_ENTRY_BYTES: usize = 128;

/// The paper's system behind the trait seam. Wiring replicates the
/// pre-arena harness exactly (construct → obs → cache device → optional
/// standby → control plane) so checked-in figure results stay
/// byte-identical.
#[derive(Debug, Default)]
pub struct FloodGuardDefense {
    config: FloodGuardConfig,
    monitor: Option<MonitorHandle>,
    cache: Option<CacheHandle>,
}

impl FloodGuardDefense {
    /// Creates the backend with `config`.
    pub fn new(config: FloodGuardConfig) -> FloodGuardDefense {
        FloodGuardDefense {
            config,
            monitor: None,
            cache: None,
        }
    }
}

impl Defense for FloodGuardDefense {
    fn name(&self) -> &'static str {
        "floodguard"
    }

    fn attach(&mut self, platform: ControllerPlatform, ctx: &mut AttachCtx<'_>) {
        let mut fg = FloodGuard::new(platform, self.config, ctx.cache_port);
        if let Some(hub) = ctx.obs {
            fg.attach_obs(hub);
        }
        let cache = fg.build_cache();
        self.cache = Some(fg.cache_handle());
        self.monitor = Some(fg.monitor_handle());
        ctx.sim.attach_device(
            ctx.sw,
            ctx.cache_port,
            Box::new(cache),
            ctx.profile.channel_bandwidth,
            ctx.profile.channel_latency,
            1e-3,
        );
        if ctx.standby_cache {
            let standby = fg.build_standby_cache(DatapathId(1), ctx.standby_port);
            ctx.sim.attach_device(
                ctx.sw,
                ctx.standby_port,
                Box::new(standby),
                ctx.profile.channel_bandwidth,
                ctx.profile.channel_latency,
                1e-3,
            );
        }
        ctx.sim.set_control_plane(Box::new(fg));
    }

    fn stats(&self) -> DefenseStats {
        let (fg, learned_state) = self.monitor.as_ref().map_or_else(Default::default, |m| {
            let m = m.lock();
            let learned = (m.learned_entries as u64, m.quarantined_entries as u64);
            (m.stats, Some(learned))
        });
        let cache = self
            .cache
            .as_ref()
            .map(|c| c.lock().stats)
            .unwrap_or_default();
        let mut drops_by_class = [0u64; 4];
        for (class, drops) in drops_by_class.iter_mut().enumerate() {
            *drops = cache.dropped_front[class] + cache.dropped_arrival[class];
        }
        // The cache's fifth lane (priority) holds proactive-rule matches of
        // any protocol; fold its drops into the "other" class.
        drops_by_class[3] += cache.dropped_front[4] + cache.dropped_arrival[4];
        DefenseStats {
            attacks_detected: fg.attacks_detected,
            rules_installed: fg.proactive_installed,
            rules_removed: fg.proactive_removed,
            migrations: cache.received,
            handshakes_validated: 0,
            passed_through: cache.emitted,
            drops_by_class,
            state_bytes: (cache.queued * CACHE_ENTRY_BYTES) as u64,
            state_bytes_peak: (cache.queued_peak * CACHE_ENTRY_BYTES) as u64,
            learned_state,
        }
    }

    fn monitor(&self) -> Option<MonitorHandle> {
        self.monitor.clone()
    }

    fn cache(&self) -> Option<CacheHandle> {
        self.cache.clone()
    }
}

/// AvantGuard-style connection migration behind the trait seam. The
/// capacity/timeout defaults match what the pre-arena harness hardcoded.
#[derive(Debug)]
pub struct AvantGuardDefense {
    capacity: usize,
    handshake_timeout: f64,
    handle: Option<SynProxyHandle>,
}

impl Default for AvantGuardDefense {
    fn default() -> AvantGuardDefense {
        AvantGuardDefense::new(100_000, 5.0)
    }
}

impl AvantGuardDefense {
    /// Creates the backend with an explicit proxy capacity and handshake
    /// timeout.
    pub fn new(capacity: usize, handshake_timeout: f64) -> AvantGuardDefense {
        AvantGuardDefense {
            capacity,
            handshake_timeout,
            handle: None,
        }
    }
}

impl Defense for AvantGuardDefense {
    fn name(&self) -> &'static str {
        "avantguard"
    }

    fn attach(&mut self, platform: ControllerPlatform, ctx: &mut AttachCtx<'_>) {
        let mut proxy = SynProxy::new(self.capacity, self.handshake_timeout);
        if let Some(hub) = ctx.obs {
            proxy.attach_obs(hub);
        }
        self.handle = Some(proxy.stats_handle());
        ctx.sim.switch_mut(ctx.sw).set_miss_hook(Box::new(proxy));
        ctx.sim.set_control_plane(Box::new(platform));
    }

    fn stats(&self) -> DefenseStats {
        let s = self.handle.as_ref().map(|h| *h.lock()).unwrap_or_default();
        DefenseStats {
            attacks_detected: 0,
            rules_installed: s.rules_installed,
            rules_removed: 0,
            migrations: s.migrations,
            handshakes_validated: s.handshakes_validated,
            passed_through: s.passed_through,
            drops_by_class: s.drops_by_class,
            state_bytes: s.state_bytes,
            state_bytes_peak: s.state_bytes_peak,
            learned_state: None,
        }
    }
}

/// LineSwitch behind the trait seam.
#[derive(Debug, Default)]
pub struct LineSwitchDefense {
    config: LineSwitchConfig,
    handle: Option<LineSwitchHandle>,
}

impl LineSwitchDefense {
    /// Creates the backend with `config`.
    pub fn new(config: LineSwitchConfig) -> LineSwitchDefense {
        LineSwitchDefense {
            config,
            handle: None,
        }
    }
}

impl Defense for LineSwitchDefense {
    fn name(&self) -> &'static str {
        "lineswitch"
    }

    fn attach(&mut self, platform: ControllerPlatform, ctx: &mut AttachCtx<'_>) {
        let mut ls = LineSwitch::new(self.config);
        if let Some(hub) = ctx.obs {
            ls.attach_obs(hub);
        }
        self.handle = Some(ls.stats_handle());
        ctx.sim.switch_mut(ctx.sw).set_miss_hook(Box::new(ls));
        ctx.sim.set_control_plane(Box::new(platform));
    }

    fn stats(&self) -> DefenseStats {
        let s = self.handle.as_ref().map(|h| *h.lock()).unwrap_or_default();
        DefenseStats {
            attacks_detected: 0,
            rules_installed: 0,
            rules_removed: 0,
            migrations: s.handshakes_validated,
            handshakes_validated: s.handshakes_validated,
            passed_through: s.passed_through,
            drops_by_class: s.drops_by_class,
            state_bytes: s.state_bytes,
            state_bytes_peak: s.state_bytes_peak,
            learned_state: None,
        }
    }
}

/// Stateless SYN cookies behind the trait seam.
#[derive(Debug, Default)]
pub struct SynCookiesDefense {
    config: SynCookiesConfig,
    handle: Option<SynCookiesHandle>,
}

impl SynCookiesDefense {
    /// Creates the backend with `config`.
    pub fn new(config: SynCookiesConfig) -> SynCookiesDefense {
        SynCookiesDefense {
            config,
            handle: None,
        }
    }
}

impl Defense for SynCookiesDefense {
    fn name(&self) -> &'static str {
        "syncookies"
    }

    fn attach(&mut self, platform: ControllerPlatform, ctx: &mut AttachCtx<'_>) {
        let mut sc = SynCookies::new(self.config);
        if let Some(hub) = ctx.obs {
            sc.attach_obs(hub);
        }
        self.handle = Some(sc.stats_handle());
        ctx.sim.switch_mut(ctx.sw).set_miss_hook(Box::new(sc));
        ctx.sim.set_control_plane(Box::new(platform));
    }

    fn stats(&self) -> DefenseStats {
        let s = self.handle.as_ref().map(|h| *h.lock()).unwrap_or_default();
        DefenseStats {
            attacks_detected: 0,
            rules_installed: 0,
            rules_removed: 0,
            migrations: s.cookies_validated,
            handshakes_validated: s.cookies_validated,
            passed_through: s.passed_through,
            drops_by_class: s.drops_by_class,
            state_bytes: s.state_bytes,
            state_bytes_peak: s.state_bytes_peak,
            learned_state: None,
        }
    }
}

/// The drop-all strawman behind the trait seam.
#[derive(Debug, Default)]
pub struct NaiveDropDefense {
    handle: Option<NaiveDropHandle>,
}

impl NaiveDropDefense {
    /// Creates the backend.
    pub fn new() -> NaiveDropDefense {
        NaiveDropDefense::default()
    }
}

impl Defense for NaiveDropDefense {
    fn name(&self) -> &'static str {
        "naive_drop"
    }

    fn attach(&mut self, platform: ControllerPlatform, ctx: &mut AttachCtx<'_>) {
        let nd = NaiveDrop::new(platform, floodguard::DetectionConfig::default());
        self.handle = Some(nd.stats_handle());
        ctx.sim.set_control_plane(Box::new(nd));
    }

    fn stats(&self) -> DefenseStats {
        let s = self.handle.as_ref().map(|h| *h.lock()).unwrap_or_default();
        DefenseStats {
            attacks_detected: s.attacks_detected,
            rules_installed: s.drop_rules_installed,
            rules_removed: s.drop_rules_removed,
            // The drop-all rule kills misses in the datapath: nothing is
            // migrated, validated or even counted per class — the defense
            // is deliberately blind, which is the point of the row.
            ..DefenseStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> Vec<Box<dyn Defense>> {
        vec![
            Box::new(FloodGuardDefense::default()),
            Box::new(AvantGuardDefense::default()),
            Box::new(LineSwitchDefense::default()),
            Box::new(SynCookiesDefense::default()),
            Box::new(NaiveDropDefense::new()),
        ]
    }

    #[test]
    fn names_are_stable_and_unique() {
        let names: Vec<_> = backends().iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            [
                "floodguard",
                "avantguard",
                "lineswitch",
                "syncookies",
                "naive_drop"
            ]
        );
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn stats_before_attach_are_zero() {
        for d in backends() {
            assert_eq!(d.stats(), DefenseStats::default(), "{}", d.name());
        }
    }

    #[test]
    fn only_floodguard_exposes_legacy_handles() {
        for mut d in backends() {
            let mut sim = Simulation::new(1);
            let sw = sim.add_switch(SwitchProfile::software(), vec![1, 2, 3, 99]);
            let mut ctx = AttachCtx {
                sim: &mut sim,
                sw,
                profile: SwitchProfile::software(),
                cache_port: 99,
                standby_port: 98,
                standby_cache: false,
                obs: None,
            };
            d.attach(ControllerPlatform::new(), &mut ctx);
            let fg = d.name() == "floodguard";
            assert_eq!(d.monitor().is_some(), fg, "{}", d.name());
            assert_eq!(d.cache().is_some(), fg, "{}", d.name());
        }
    }

    #[test]
    fn drops_total_sums_lanes() {
        let stats = DefenseStats {
            drops_by_class: [1, 2, 3, 4],
            ..DefenseStats::default()
        };
        assert_eq!(stats.drops_total(), 10);
    }
}
