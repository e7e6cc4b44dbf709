//! The §IV-E deployment tradeoff end to end: proactive rules in the switch
//! TCAM versus in the data plane cache.

use bench::{run, Defense, Scenario};
use floodguard::{FloodGuardConfig, RulePlacement};
use netsim::engine::SwitchId;

fn scenario(placement: RulePlacement) -> Scenario {
    let config = FloodGuardConfig {
        rule_placement: placement,
        ..FloodGuardConfig::default()
    };
    let mut s = Scenario::software()
        .with_defense(Defense::FloodGuard(config))
        .with_attack(300.0);
    s.attack_start = 0.5;
    s.attack_stop = 4.0;
    s.duration = 4.0;
    s.bulk = false;
    // Two probes: the first, before the attack, teaches l2_learning where
    // h2 lives (and thus creates the proactive rule: a host first seen
    // through the cache during the attack is learned in quarantine, which
    // no proactive rule is converted from); the second, under attack,
    // exercises the placement. The
    // probes stay one-shot (SYN + SYN-ACK, no completing ACK): the final
    // ACK would be a PacketIn after h2 is known, installing a learned
    // dl_dst=h2 rule the second probe would match in the switch — and the
    // placement only matters for a genuine table miss.
    s.probe_handshake = false;
    s.probes = vec![0.2, 2.5];
    s
}

#[test]
fn cache_placement_defends_without_touching_tcam() {
    let outcome = run(&scenario(RulePlacement::Cache));
    let sw = outcome.sim.switch(SwitchId(0));
    // The only FloodGuard rules in the switch are the migration wildcards
    // (priority 0); proactive rules (default priority 0x8000 with the
    // FloodGuard cookie) are absent.
    let fg_cookie = FloodGuardConfig::default().cookie;
    let proactive_in_switch = sw
        .table
        .iter()
        .filter(|e| e.cookie == fg_cookie && e.priority != 0)
        .count();
    assert_eq!(proactive_in_switch, 0, "TCAM untouched");
    // The cache holds the rules and prioritized at least the second probe.
    let cache = outcome.cache.expect("cache");
    let shared = cache.lock();
    assert!(!shared.proactive.is_empty(), "rules live in the cache");
    assert!(shared.stats.prioritized >= 1, "matching packet prioritized");
    drop(shared);
    // Both probes still arrive: the defense works, just slower.
    for (id, delay) in &outcome.probe_delays {
        assert!(delay.is_some(), "probe {id} must survive");
    }
}

#[test]
fn switch_placement_is_faster_for_known_flows() {
    // The paper: the cache option "needs to sacrifice some performance".
    // A known destination's packet is forwarded directly by the switch
    // under Switch placement but detours through the cache under Cache
    // placement.
    let switch_run = run(&scenario(RulePlacement::Switch));
    let cache_run = run(&scenario(RulePlacement::Cache));
    let second = |o: &bench::Outcome| o.probe_delays[1].1.expect("probe 2 arrives");
    let switch_delay = second(&switch_run);
    let cache_delay = second(&cache_run);
    assert!(
        cache_delay > switch_delay,
        "cache placement must cost latency: switch {switch_delay:.4}s vs cache {cache_delay:.4}s"
    );
}

#[test]
fn both_placements_preserve_bandwidth() {
    for placement in [RulePlacement::Switch, RulePlacement::Cache] {
        let mut s = scenario(placement);
        s.bulk = true;
        s.probes.clear();
        let outcome = run(&s);
        assert!(
            outcome.bandwidth_bps > 1.4e9,
            "{placement:?}: {:e}",
            outcome.bandwidth_bps
        );
    }
}
