//! Own binary: its test ids stay `tests/end_to_end_defense.rs::<test>`.
//!
//! End-to-end defense scenarios on the full simulator: the paper's headline
//! claims, asserted as shape properties.

use bench::{run, AttackProtocol, Defense, Scenario};
use integration_tests::fg;

#[test]
fn software_attack_collapses_undefended_network() {
    // §II: "a software switch is dysfunctional by about 500 packets/second".
    let clean = run(&Scenario::software()).bandwidth_bps;
    let attacked = run(&Scenario::software().with_attack(500.0)).bandwidth_bps;
    assert!(clean > 1.4e9, "baseline {clean:e}");
    assert!(
        attacked < clean * 0.05,
        "attacked bandwidth {attacked:e} vs clean {clean:e}"
    );
}

#[test]
fn software_half_bandwidth_near_130_pps() {
    // Fig. 10: bandwidth halves around 130 PPS without defense.
    let clean = run(&Scenario::software()).bandwidth_bps;
    let at_130 = run(&Scenario::software().with_attack(130.0)).bandwidth_bps;
    let ratio = at_130 / clean;
    assert!(
        (0.3..0.7).contains(&ratio),
        "at 130 PPS bandwidth ratio {ratio}"
    );
}

#[test]
fn floodguard_keeps_software_bandwidth_flat_to_500_pps() {
    // Fig. 10: with FloodGuard the curve stays at the no-attack level.
    let clean = run(&Scenario::software()).bandwidth_bps;
    for pps in [100.0, 300.0, 500.0] {
        let defended = run(&Scenario::software().with_defense(fg()).with_attack(pps)).bandwidth_bps;
        assert!(
            defended > clean * 0.9,
            "{pps} PPS: defended {defended:e} vs clean {clean:e}"
        );
    }
}

#[test]
fn hardware_collapse_and_half_point() {
    // Fig. 11 without defense: half by ~150 PPS, collapse by 1000 PPS.
    let clean = run(&Scenario::hardware()).bandwidth_bps;
    assert!((6e6..10e6).contains(&clean), "baseline {clean:e}");
    let at_150 = run(&Scenario::hardware().with_attack(150.0)).bandwidth_bps;
    let ratio = at_150 / clean;
    assert!((0.3..0.7).contains(&ratio), "150 PPS ratio {ratio}");
    let at_1000 = run(&Scenario::hardware().with_attack(1000.0)).bandwidth_bps;
    assert!(at_1000 < clean * 0.1, "1000 PPS {at_1000:e}");
}

#[test]
fn hardware_floodguard_holds_then_declines_slowly() {
    // Fig. 11 with FloodGuard: near-baseline through 200 PPS, then a slow
    // decline (software flow table), never collapse.
    let clean = run(&Scenario::hardware()).bandwidth_bps;
    let at_200 = run(&Scenario::hardware().with_defense(fg()).with_attack(200.0)).bandwidth_bps;
    assert!(at_200 > clean * 0.85, "200 PPS defended {at_200:e}");
    let at_1000 = run(&Scenario::hardware().with_defense(fg()).with_attack(1000.0)).bandwidth_bps;
    assert!(
        at_1000 > clean * 0.5,
        "1000 PPS defended must decline slowly, got {at_1000:e}"
    );
    assert!(
        at_1000 < at_200,
        "the software flow table makes the defended curve decline"
    );
}

#[test]
fn floodguard_is_free_when_there_is_no_attack() {
    // Design objective: "under normal circumstances, only the monitoring
    // component is active" — zero bandwidth cost without an attack.
    let clean = run(&Scenario::software()).bandwidth_bps;
    let guarded = run(&Scenario::software().with_defense(fg())).bandwidth_bps;
    assert!(
        (guarded - clean).abs() / clean < 0.02,
        "clean {clean:e} vs guarded-idle {guarded:e}"
    );
}

#[test]
fn benign_new_flows_survive_the_attack_with_floodguard() {
    // The second research challenge: table-miss benign packets are delayed
    // through the cache, not dropped.
    let mut scenario = Scenario::hardware().with_defense(fg()).with_attack(400.0);
    scenario.attack_start = 0.5;
    scenario.attack_stop = 4.0;
    scenario.duration = 4.0;
    scenario.bulk = false;
    scenario.probes = vec![2.0, 2.5, 3.0];
    let outcome = run(&scenario);
    for (id, delay) in &outcome.probe_delays {
        let delay = delay.unwrap_or_else(|| panic!("probe {id} was dropped"));
        assert!(delay < 0.5, "probe {id} delay {delay}");
    }
}

#[test]
fn naive_drop_protects_bandwidth_but_kills_new_flows() {
    // The strawman the paper rejects: same bandwidth protection, but benign
    // new flows die for the duration of the defense.
    let mut scenario = Scenario::hardware()
        .with_defense(Defense::NaiveDrop)
        .with_attack(400.0);
    scenario.attack_start = 0.5;
    scenario.attack_stop = 4.0;
    scenario.duration = 4.0;
    // Probes must be genuine table misses: run them without the bulk pair
    // (whose learned dl_dst rule the probes would otherwise ride on).
    scenario.probes = vec![2.0, 2.5, 3.0];
    scenario.bulk = false;
    let outcome = run(&scenario);
    // Bandwidth protection measured separately, with the bulk pair on.
    let mut bw_scenario = scenario.clone();
    bw_scenario.bulk = true;
    bw_scenario.probes.clear();
    let bw = run(&bw_scenario).bandwidth_bps;
    let clean = run(&Scenario::hardware()).bandwidth_bps;
    // Attack packets now hit the wildcard drop rule, which still costs the
    // hardware switch its software-table slow path — bandwidth is protected
    // but not perfectly flat.
    assert!(
        bw > clean * 0.7,
        "bandwidth protected: {bw:e} vs clean {clean:e}"
    );
    let lost = outcome
        .probe_delays
        .iter()
        .filter(|(_, d)| d.is_none())
        .count();
    assert_eq!(lost, 3, "naive drop must sacrifice benign new flows");
}

#[test]
fn avantguard_stops_syn_floods() {
    let mut scenario = Scenario::software()
        .with_defense(Defense::AvantGuard)
        .with_attack(500.0);
    scenario.attack_protocol = AttackProtocol::TcpSyn;
    let clean = run(&Scenario::software()).bandwidth_bps;
    let defended = run(&scenario).bandwidth_bps;
    assert!(
        defended > clean * 0.85,
        "AvantGuard must absorb a SYN flood: {defended:e} vs {clean:e}"
    );
}

#[test]
fn avantguard_is_blind_to_udp_floods_but_floodguard_is_not() {
    // The paper's §II-D objective: protocol independence, unlike AvantGuard.
    let clean = run(&Scenario::software()).bandwidth_bps;
    let mut udp_vs_avantguard = Scenario::software()
        .with_defense(Defense::AvantGuard)
        .with_attack(500.0);
    udp_vs_avantguard.attack_protocol = AttackProtocol::Udp;
    let avantguard = run(&udp_vs_avantguard).bandwidth_bps;
    assert!(
        avantguard < clean * 0.1,
        "UDP flood must pass through AvantGuard: {avantguard:e}"
    );
    let mut udp_vs_fg = Scenario::software().with_defense(fg()).with_attack(500.0);
    udp_vs_fg.attack_protocol = AttackProtocol::Udp;
    let floodguard = run(&udp_vs_fg).bandwidth_bps;
    assert!(
        floodguard > clean * 0.9,
        "FloodGuard must stop the same flood: {floodguard:e}"
    );
}

#[test]
fn syn_flood_also_stopped_by_floodguard() {
    // Protocol independence cuts both ways.
    let clean = run(&Scenario::software()).bandwidth_bps;
    let mut scenario = Scenario::software().with_defense(fg()).with_attack(500.0);
    scenario.attack_protocol = AttackProtocol::TcpSyn;
    let defended = run(&scenario).bandwidth_bps;
    assert!(defended > clean * 0.9, "defended {defended:e}");
}

#[test]
fn controller_protected_from_saturation() {
    // The control-plane protection claim (Fig. 12's aggregate effect): with
    // FloodGuard the controller processes far fewer messages during the
    // flood and drops none.
    let mut attacked = Scenario::software().with_attack(500.0);
    attacked.duration = 3.0;
    let undefended = run(&attacked);
    let mut guarded = attacked.clone().with_defense(fg());
    guarded.duration = 3.0;
    let defended = run(&guarded);
    assert!(
        (defended.controller.cpu_seconds) < undefended.controller.cpu_seconds * 0.8,
        "controller CPU: defended {} vs undefended {}",
        defended.controller.cpu_seconds,
        undefended.controller.cpu_seconds
    );
}
