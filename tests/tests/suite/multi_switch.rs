//! §IV-E multi-switch deployment: two switches, each with its own data
//! plane cache, protected by one FloodGuard instance.
//!
//! Scope note: application state in the policy IR is controller-global (the
//! paper's framing — "all state sensitive variables are global variables"),
//! so the l2_learning app keeps one MAC table across switches; like the
//! paper's evaluation, benign flows here stay within one switch. The
//! multi-cache machinery itself (migration rules per switch, one cache per
//! switch, shared intake/rate control) is what this file exercises.

use controller::apps;
use controller::platform::ControllerPlatform;
use floodguard::{FloodGuard, FloodGuardConfig, State};
use integration_tests::{ip, mac};
use netsim::engine::Simulation;
use netsim::host::{BulkSender, UdpFlood};
use netsim::profile::SwitchProfile;
use ofproto::types::DatapathId;

const CACHE_PORT: u16 = 99;

/// Topology: (h1a, h1b) on sw0; (h2a, h2b, attacker h3) on sw1; a cache
/// behind each switch; one FloodGuard-wrapped controller over both.
struct Net {
    sim: Simulation,
    sw0: netsim::engine::SwitchId,
    sw1: netsim::engine::SwitchId,
    h1a: netsim::HostId,
    h1b: netsim::HostId,
    h2a: netsim::HostId,
    h2b: netsim::HostId,
    h3: netsim::HostId,
    cache0: floodguard::cache::CacheHandle,
    monitor: floodguard::MonitorHandle,
}

fn build() -> Net {
    let mut sim = Simulation::new(21);
    let sw0 = sim.add_switch(SwitchProfile::software(), vec![1, 2, CACHE_PORT]);
    let sw1 = sim.add_switch(SwitchProfile::software(), vec![1, 2, 3, CACHE_PORT]);
    let h1a = sim.add_host(sw0, 1, mac(0x1a), ip(11));
    let h1b = sim.add_host(sw0, 2, mac(0x1b), ip(12));
    let h2a = sim.add_host(sw1, 1, mac(0x2a), ip(21));
    let h2b = sim.add_host(sw1, 2, mac(0x2b), ip(22));
    let h3 = sim.add_host(sw1, 3, mac(0xcc), ip(33));

    let mut platform = ControllerPlatform::new();
    platform.register(apps::l2_learning::program());
    let mut fg = FloodGuard::new(platform, FloodGuardConfig::default(), CACHE_PORT);
    // One cache per switch, attached in build order (the documented
    // device-id ↔ datapath convention).
    let dev0 = fg.build_cache_for(DatapathId(1));
    let dev1 = fg.build_cache_for(DatapathId(2));
    let cache0 = fg.cache_handle();
    let monitor = fg.monitor_handle();
    let profile = SwitchProfile::software();
    sim.attach_device(
        sw0,
        CACHE_PORT,
        Box::new(dev0),
        profile.channel_bandwidth,
        profile.channel_latency,
        1e-3,
    );
    sim.attach_device(
        sw1,
        CACHE_PORT,
        Box::new(dev1),
        profile.channel_bandwidth,
        profile.channel_latency,
        1e-3,
    );
    sim.set_control_plane(Box::new(fg));
    Net {
        sim,
        sw0,
        sw1,
        h1a,
        h1b,
        h2a,
        h2b,
        h3,
        cache0,
        monitor,
    }
}

#[test]
fn both_switches_protected_by_one_floodguard() {
    let mut net = build();
    // Benign bulk pairs inside each switch; the attacker floods sw1.
    net.sim
        .host_mut(net.h1a)
        .add_source(Box::new(BulkSender::new(
            mac(0x1a),
            ip(11),
            mac(0x1b),
            ip(12),
            1,
            8,
            50,
            1500,
            0.05,
        )));
    net.sim
        .host_mut(net.h2a)
        .add_source(Box::new(BulkSender::new(
            mac(0x2a),
            ip(21),
            mac(0x2b),
            ip(22),
            2,
            8,
            50,
            1500,
            0.05,
        )));
    net.sim
        .host_mut(net.h3)
        .add_source(Box::new(UdpFlood::new(mac(0xcc), 400.0, 1.0, 4.0, 64)));
    for h in [net.h2b, net.h1b] {
        net.sim.host_mut(h).meter.watch(1.6, 4.0);
    }
    net.sim.run_until(4.0);
    // The attacked switch's benign pair keeps its bandwidth...
    let attacked = net.sim.host(net.h2b).meter.bps_in(1.6, 4.0);
    assert!(attacked > 1.2e9, "attacked-switch goodput {attacked:e}");
    // ...and so does the remote one.
    let remote = net.sim.host(net.h1b).meter.bps_in(1.6, 4.0);
    assert!(remote > 1.2e9, "remote-switch goodput {remote:e}");
    // Migration rules exist on both switches.
    for sw in [net.sw0, net.sw1] {
        let migration_rules = net
            .sim
            .switch(sw)
            .table
            .iter()
            .filter(|e| e.priority == 0)
            .count();
        assert!(migration_rules >= 2, "switch {sw:?} migrated");
    }
    assert_eq!(net.monitor.lock().state, Some(State::Defense));
}

#[test]
fn attack_traffic_lands_in_the_local_cache() {
    let mut net = build();
    net.sim
        .host_mut(net.h3)
        .add_source(Box::new(UdpFlood::new(mac(0xcc), 300.0, 0.5, 3.0, 64)));
    net.sim.run_until(3.0);
    // sw1 absorbed the flood through its own cache; sw0's cache saw at most
    // stray broadcasts (flood packet-outs crossing via host NICs are
    // impossible here: no trunk in this topology).
    let sw0_cache = net.cache0.lock();
    assert!(
        sw0_cache.stats.received < 50,
        "sw0 cache near-idle: {:?}",
        sw0_cache.stats
    );
    drop(sw0_cache);
    let attacked_misses = net.sim.switch(net.sw1).stats.misses;
    assert!(attacked_misses > 0);
    // The flood was migrated: sw1's table-miss counter stops growing once
    // migration engages, far below the offered 750 packets.
    assert!(
        attacked_misses < 300,
        "migration capped misses at {attacked_misses}"
    );
}
