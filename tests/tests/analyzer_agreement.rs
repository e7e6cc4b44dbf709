//! Agreement between the two executions of the same application programs:
//! whatever rule the *concrete* interpreter installs reactively must be in
//! the proactive rule set Algorithm 2 derives from the same state — the
//! property that makes proactive insertion preserve network policy.

use std::net::Ipv4Addr;

use controller::apps;
use ofproto::flow_match::FlowKeys;
use ofproto::types::{ethertype, ipproto, MacAddr};
use policy::interp::{execute, ConcreteDecision};
use policy::{Env, Program};
use proptest::prelude::*;
use symexec::{convert_to_rules, generate_path_conditions, KeyDelta, KeyedConversion};

/// Concrete execution of `program` on `keys`; if it installs a rule, that
/// rule must be among the proactive rules generated from the post-execution
/// environment.
fn check_agreement(program: &Program, keys: &FlowKeys, env: &mut Env) {
    let pcs = generate_path_conditions(program);
    let result = execute(program, keys, env).expect("handler execution");
    if let ConcreteDecision::Install(rule) = result.decision {
        let conversion = convert_to_rules(&pcs, env);
        assert!(
            conversion.rules.contains(&rule),
            "{}: reactive rule {rule:?} missing from proactive set {:?}",
            program.name,
            conversion.rules
        );
    }
}

/// And conversely: every proactive rule, probed with a packet built from its
/// match, must be exactly what the application would install for that packet.
fn check_soundness_l2(env: &mut Env) {
    let program = apps::l2_learning::program();
    let pcs = generate_path_conditions(&program);
    let conversion = convert_to_rules(&pcs, env);
    for rule in &conversion.rules {
        let keys = FlowKeys {
            dl_src: MacAddr::from_u64(0xfeed),
            dl_dst: rule.of_match.keys.dl_dst,
            in_port: 9,
            ..FlowKeys::default()
        };
        let mut probe_env = env.clone();
        let result = execute(&program, &keys, &mut probe_env).expect("execution");
        match result.decision {
            ConcreteDecision::Install(reactive) => {
                assert_eq!(
                    &reactive, rule,
                    "proactive rule must match reactive behaviour"
                );
            }
            other => panic!("expected install for {rule:?}, got {other:?}"),
        }
    }
}

#[test]
fn l2_agreement_over_learning_sequence() {
    let program = apps::l2_learning::program();
    let mut env = program.initial_env();
    // A realistic learning sequence: hosts talk pairwise.
    let hosts: Vec<(u64, u16)> = vec![(0xa, 1), (0xb, 2), (0xc, 3), (0xd, 4)];
    for (i, &(src, port)) in hosts.iter().enumerate() {
        for &(dst, _) in &hosts {
            if src == dst {
                continue;
            }
            let keys = FlowKeys {
                dl_src: MacAddr::from_u64(src),
                dl_dst: MacAddr::from_u64(dst),
                in_port: port,
                ..FlowKeys::default()
            };
            check_agreement(&program, &keys, &mut env);
        }
        if i == hosts.len() - 1 {
            check_soundness_l2(&mut env);
        }
    }
}

#[test]
fn ip_balancer_agreement_including_dynamics() {
    let program = apps::ip_balancer::program();
    let mut env = program.initial_env();
    let vip = apps::ip_balancer::DEFAULT_VIP;
    for src in [Ipv4Addr::new(200, 1, 1, 1), Ipv4Addr::new(9, 1, 1, 1)] {
        let keys = FlowKeys {
            dl_type: ethertype::IPV4,
            nw_src: src,
            nw_dst: vip,
            ..FlowKeys::default()
        };
        check_agreement(&program, &keys, &mut env);
    }
    // §IV-D dynamics: swap the replicas and re-check.
    apps::ip_balancer::configure(
        &mut env,
        vip,
        (apps::ip_balancer::DEFAULT_REPLICA_B, 2),
        (apps::ip_balancer::DEFAULT_REPLICA_A, 1),
    );
    for src in [Ipv4Addr::new(255, 0, 0, 1), Ipv4Addr::new(1, 0, 0, 1)] {
        let keys = FlowKeys {
            dl_type: ethertype::IPV4,
            nw_src: src,
            nw_dst: vip,
            ..FlowKeys::default()
        };
        check_agreement(&program, &keys, &mut env);
    }
}

#[test]
fn of_firewall_agreement() {
    let program = apps::of_firewall::program();
    let mut env = program.initial_env();
    apps::of_firewall::seed(&mut env, 25);
    apps::of_firewall::block(
        &mut env,
        Ipv4Addr::new(1, 2, 3, 4),
        Ipv4Addr::new(5, 6, 7, 8),
        ipproto::TCP,
        22,
    );
    let keys = FlowKeys {
        dl_type: ethertype::IPV4,
        nw_src: Ipv4Addr::new(1, 2, 3, 4),
        nw_dst: Ipv4Addr::new(5, 6, 7, 8),
        nw_proto: ipproto::TCP,
        tp_dst: 22,
        ..FlowKeys::default()
    };
    check_agreement(&program, &keys, &mut env);
    // Proactive set covers every seeded tuple.
    let pcs = generate_path_conditions(&program);
    let conversion = convert_to_rules(&pcs, &env);
    assert_eq!(conversion.rules.len(), 26);
}

#[test]
fn route_agreement() {
    let program = apps::route::program();
    let mut env = program.initial_env();
    apps::route::seed(&mut env, 8);
    apps::route::add_route(&mut env, Ipv4Addr::new(172, 16, 5, 0), 7);
    let keys = FlowKeys {
        dl_type: ethertype::IPV4,
        nw_dst: Ipv4Addr::new(172, 16, 5, 99),
        ..FlowKeys::default()
    };
    check_agreement(&program, &keys, &mut env);
    let pcs = generate_path_conditions(&program);
    let conversion = convert_to_rules(&pcs, &env);
    assert_eq!(conversion.rules.len(), 9, "one rule per route entry");
}

#[test]
fn mac_blocker_agreement() {
    let program = apps::mac_blocker::program();
    let mut env = program.initial_env();
    apps::mac_blocker::seed(&mut env, 12);
    let blocked = MacAddr::from_u64(0xb10c_0003);
    let keys = FlowKeys {
        dl_src: blocked,
        ..FlowKeys::default()
    };
    check_agreement(&program, &keys, &mut env);
    let pcs = generate_path_conditions(&program);
    let conversion = convert_to_rules(&pcs, &env);
    assert_eq!(conversion.rules.len(), 12);
}

/// Converts `program` on a 1000-entry table, applies `block` to it and
/// brings the conversion up to date key-wise: the delta, checked against a
/// full conversion.
fn block_delta(program: &Program, seed: fn(&mut Env, usize), block: impl Fn(&mut Env)) -> KeyDelta {
    let mut env = program.initial_env();
    seed(&mut env, 1000);
    let pcs = generate_path_conditions(program);
    let mut kept = KeyedConversion::convert(&pcs, &env);
    assert_eq!(kept.len(), 1000);
    block(&mut env);
    let delta = kept
        .apply(&pcs, &env)
        .expect("a block is a write of one key, converted alone");
    assert!(delta.removed.is_empty());
    assert_eq!(kept.into_rules(), convert_to_rules(&pcs, &env).rules);
    delta
}

#[test]
fn an_administrators_block_converts_its_one_key() {
    let mac = MacAddr::from_u64(0xbad);
    let delta = block_delta(
        &apps::mac_blocker::program(),
        apps::mac_blocker::seed,
        |env| apps::mac_blocker::block(env, mac),
    );
    assert_eq!(delta.added.len(), 1);
    assert_eq!(delta.added[0].of_match.keys.dl_src, mac);

    let (src, dst) = (Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8));
    let delta = block_delta(
        &apps::of_firewall::program(),
        apps::of_firewall::seed,
        |env| apps::of_firewall::block(env, src, dst, ipproto::TCP, 22),
    );
    assert_eq!(delta.added.len(), 1);
    let keys = delta.added[0].of_match.keys;
    assert_eq!(
        (keys.nw_src, keys.nw_dst, keys.nw_proto, keys.tp_dst),
        (src, dst, ipproto::TCP, 22)
    );
}

#[test]
fn arp_hub_static_rules_always_derivable() {
    // Static policies (Table I): proactive rules exist even with no state.
    let program = apps::arp_hub::program();
    let env = program.initial_env();
    let pcs = generate_path_conditions(&program);
    let conversion = convert_to_rules(&pcs, &env);
    assert_eq!(conversion.rules.len(), 2, "LLDP drop + ARP flood");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn l2_agreement_random_traffic(
        ops in proptest::collection::vec((0u64..12, 0u64..12, 1u16..6), 1..40)
    ) {
        let program = apps::l2_learning::program();
        let mut env = program.initial_env();
        for (src, dst, port) in ops {
            let keys = FlowKeys {
                dl_src: MacAddr::from_u64(src + 1),
                dl_dst: MacAddr::from_u64(dst + 1),
                in_port: port,
                ..FlowKeys::default()
            };
            let pcs = generate_path_conditions(&program);
            let result = execute(&program, &keys, &mut env).unwrap();
            if let ConcreteDecision::Install(rule) = result.decision {
                let conversion = convert_to_rules(&pcs, &env);
                prop_assert!(conversion.rules.contains(&rule));
            }
        }
    }

    #[test]
    fn proactive_rule_count_tracks_l3_state(n in 0usize..50) {
        let program = apps::l3_learning::program();
        let mut env = program.initial_env();
        for i in 0..n {
            apps::l3_learning::learn_host(
                &mut env,
                Ipv4Addr::from(0x0a00_0000 + i as u32),
                (i % 8 + 1) as u16,
            );
        }
        let pcs = generate_path_conditions(&program);
        let conversion = convert_to_rules(&pcs, &env);
        prop_assert_eq!(conversion.rules.len(), n);
    }
}
