//! Defense-arena acceptance: every [`bench::Defense`] contender defends
//! the baseline SYN flood, the protocol-dependence gap is the documented
//! one, the TCP-handshake signal is real, and the arena table renders
//! byte-identically across same-seed runs.

use bench::arena::{render, run_matrix, ArenaConfig, Profile};
use bench::{run, AttackProtocol, Defense, Scenario};
use netsim::HostId;

fn syn_defenses() -> Vec<Defense> {
    vec![
        Defense::FloodGuard(floodguard::FloodGuardConfig::default()),
        Defense::AvantGuard,
        Defense::LineSwitch(baselines::lineswitch::LineSwitchConfig::default()),
        Defense::SynCookies(baselines::syncookies::SynCookiesConfig::default()),
    ]
}

fn syn_attack(defense: Defense, pps: f64) -> Scenario {
    let mut s = Scenario::software().with_defense(defense).with_attack(pps);
    s.attack_protocol = AttackProtocol::TcpSyn;
    s
}

/// Acceptance: each contender defends the baseline SYN flood with at least
/// 0.8× the clean bandwidth. (FloodGuard absorbs misses into its cache;
/// the other three answer or drop SYNs in the datapath.)
#[test]
fn every_defense_holds_bandwidth_under_syn_flood() {
    let clean = run(&Scenario::software()).bandwidth_bps;
    for defense in syn_defenses() {
        let name = defense.name();
        let defended = run(&syn_attack(defense, 400.0)).bandwidth_bps;
        assert!(
            defended > clean * 0.8,
            "{name}: defended {defended:e} vs clean {clean:e}"
        );
    }
}

/// The documented gap: the SYN-specific rivals are protocol-dependent.
/// Under the same-rate UDP flood they collapse with the undefended
/// baseline while FloodGuard holds — the paper's §II-D argument, now a
/// regression test over the arena.
#[test]
fn syn_only_defenses_collapse_under_udp_flood() {
    let clean = run(&Scenario::software()).bandwidth_bps;
    for defense in [
        Defense::AvantGuard,
        Defense::LineSwitch(baselines::lineswitch::LineSwitchConfig::default()),
        Defense::SynCookies(baselines::syncookies::SynCookiesConfig::default()),
    ] {
        let name = defense.name();
        let attacked = run(&Scenario::software()
            .with_defense(defense)
            .with_attack(400.0))
        .bandwidth_bps;
        assert!(
            attacked < clean * 0.5,
            "{name} should be blind to UDP, got {attacked:e} vs clean {clean:e}"
        );
    }
    let fg = run(&Scenario::software()
        .with_defense(Defense::FloodGuard(floodguard::FloodGuardConfig::default()))
        .with_attack(400.0))
    .bandwidth_bps;
    assert!(fg > clean * 0.8, "floodguard holds under UDP: {fg:e}");
}

/// The proxied probe handshake really completes end to end: h1's SYN
/// tracker records an established connection, and the proxy validated
/// exactly the flows that answered its SYN-ACK.
#[test]
fn proxied_probe_establishes_real_handshake() {
    for defense in [
        Defense::AvantGuard,
        Defense::LineSwitch(baselines::lineswitch::LineSwitchConfig::default()),
        Defense::SynCookies(baselines::syncookies::SynCookiesConfig::default()),
    ] {
        let name = defense.name();
        let mut scenario = syn_attack(defense, 300.0);
        scenario.probes = vec![2.0];
        // Probes must be genuine table misses: run them without the bulk
        // pair (whose learned dl_dst rule the probes would ride past the
        // miss hook).
        scenario.bulk = false;
        let outcome = run(&scenario);
        let (_, delay) = outcome.probe_delays[0];
        assert!(delay.is_some(), "{name}: probe must be delivered");
        let h1 = outcome.sim.host(HostId(0)).syn.stats();
        assert!(
            h1.established >= 1,
            "{name}: h1 completed no handshake: {h1:?}"
        );
        let stats = outcome.defense_stats.expect("defense attached");
        assert!(
            stats.handshakes_validated >= 1,
            "{name}: proxy validated nothing: {stats:?}"
        );
    }
}

/// The spoofed flood never completes a handshake: every validated flow
/// came from a real endpoint.
#[test]
fn spoofed_flood_validates_no_handshakes() {
    let mut scenario = syn_attack(Defense::AvantGuard, 400.0);
    scenario.bulk = false;
    let outcome = run(&scenario);
    let stats = outcome.defense_stats.expect("defense attached");
    assert_eq!(
        stats.handshakes_validated, 0,
        "spoofed SYNs must never validate: {stats:?}"
    );
    assert!(
        stats.state_bytes_peak > 0,
        "the flood costs the proxy state"
    );
}

/// SynCookies' headline: absorbing the same flood costs zero bytes of
/// defense state, where AvantGuard pays per pending handshake.
#[test]
fn cookies_hold_zero_state_under_flood() {
    let mut scenario = syn_attack(
        Defense::SynCookies(baselines::syncookies::SynCookiesConfig::default()),
        400.0,
    );
    scenario.bulk = false;
    let outcome = run(&scenario);
    let stats = outcome.defense_stats.expect("defense attached");
    assert_eq!(
        stats.state_bytes_peak, 0,
        "cookies are stateless: {stats:?}"
    );
}

/// Bit-exact determinism: the rendered arena table is byte-identical
/// across two same-seed runs of the same matrix.
#[test]
fn arena_table_is_byte_identical_across_runs() {
    let config = ArenaConfig {
        defenses: vec![
            Defense::None,
            Defense::AvantGuard,
            Defense::LineSwitch(baselines::lineswitch::LineSwitchConfig::default()),
        ],
        mixes: vec![AttackProtocol::TcpSyn, AttackProtocol::Udp],
        pps_levels: vec![300.0],
        profiles: vec![Profile::Software],
        probe_at: 2.0,
    };
    let first = render(&config, &run_matrix(&config)).render();
    let second = render(&config, &run_matrix(&config)).render();
    assert_eq!(first, second, "arena table must be byte-deterministic");
    assert!(first.contains("\"retained:lineswitch/syn/300/software\""));
}
