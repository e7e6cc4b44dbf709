//! The reference controller applications.
//!
//! These mirror the applications the paper evaluates (§V-B/§V-C downloads
//! them from the POX repository): `l2_learning`, `ip_balancer`,
//! `l3_learning`, `of_firewall` and `mac_blocker`, plus the Table I sample
//! apps `arp_hub` and `route`, and a trivial `hub`.
//!
//! Each module exposes `program()` returning the app's handler in the
//! policy IR, with its global-variable declarations carrying the
//! state-sensitive markers and descriptions of the paper's Table III, plus
//! seeding helpers to populate realistic state.

pub mod arp_hub;
pub mod hub;
pub mod ip_balancer;
pub mod l2_learning;
pub mod l3_learning;
pub mod mac_blocker;
pub mod of_firewall;
pub mod route;

use policy::Program;

/// The five applications of the paper's Fig. 12/13 evaluation, in the
/// paper's order.
pub fn evaluation_apps() -> Vec<Program> {
    vec![
        l2_learning::program(),
        ip_balancer::program(),
        l3_learning::program(),
        of_firewall::program(),
        mac_blocker::program(),
    ]
}

/// The Table I sample deployment: arp_hub, ip_balancer, route.
pub fn table1_apps() -> Vec<Program> {
    vec![arp_hub::program(), ip_balancer::program(), route::program()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_learned_map_declares_a_lifetime_and_no_seeded_one_does() {
        let mut programs = evaluation_apps();
        programs.extend([route::program(), arp_hub::program(), hub::program()]);
        for program in &programs {
            let learned = program.learned_maps();
            for g in &program.globals {
                assert_eq!(
                    g.lifetime.is_some(),
                    learned.contains(&g.name.as_str()),
                    "{}: {}",
                    program.name,
                    g.name
                );
            }
        }
    }

    /// Every path of the evaluation apps and `route`, as (app, path, packet,
    /// decision, nodes): the node count is the simulator's CPU model
    /// ([`policy::ExecResult::nodes`]), so an evaluation that counts one
    /// node more or less moves every figure. The counts are those of the
    /// interpreter before the tables had hash indexes.
    #[test]
    fn every_paths_node_count_is_pinned() {
        use ofproto::flow_match::FlowKeys;
        use ofproto::types::{ethertype, ipproto, MacAddr};
        use policy::interp::{execute, ConcreteDecision};
        use std::net::Ipv4Addr;

        let (a, b) = (MacAddr::from_u64(0xa), MacAddr::from_u64(0xb));
        let (ip_a, ip_b) = (Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 2));
        let ip = |src: Ipv4Addr, dst: Ipv4Addr| FlowKeys {
            in_port: 2,
            dl_src: b,
            dl_dst: a,
            dl_type: ethertype::IPV4,
            nw_src: src,
            nw_dst: dst,
            nw_proto: ipproto::TCP,
            tp_dst: 22,
            ..FlowKeys::default()
        };
        let arp = FlowKeys {
            dl_type: ethertype::ARP,
            ..ip(ip_b, ip_a)
        };
        let broadcast = FlowKeys {
            dl_dst: MacAddr::BROADCAST,
            ..ip(ip_b, ip_a)
        };
        let unknown = FlowKeys {
            dl_src: MacAddr::from_u64(0xc),
            dl_dst: MacAddr::from_u64(0xd),
            ..ip(Ipv4Addr::new(172, 16, 0, 1), Ipv4Addr::new(172, 16, 0, 2))
        };
        let known = ip(ip_b, ip_a);
        let upper = ip(Ipv4Addr::new(200, 0, 0, 1), ip_balancer::DEFAULT_VIP);
        let lower = ip(ip_b, ip_balancer::DEFAULT_VIP);
        let (l2, balancer, l3) = (
            l2_learning::program,
            ip_balancer::program,
            l3_learning::program,
        );
        let (firewall, blocker) = (of_firewall::program, mac_blocker::program);
        let cases: Vec<(Program, &str, FlowKeys, &str, u64)> = vec![
            (l2(), "broadcast", broadcast, "flood", 7),
            (l2(), "unknown destination", unknown, "flood", 12),
            (l2(), "known destination", known, "install", 16),
            (balancer(), "not IPv4", arp, "noop", 5),
            (balancer(), "not the VIP", known, "noop", 8),
            (balancer(), "upper half", upper, "install", 17),
            (balancer(), "lower half", lower, "install", 17),
            (l3(), "not IPv4", arp, "flood", 5),
            (l3(), "unknown destination", unknown, "flood", 12),
            (l3(), "known destination", known, "install", 17),
            (firewall(), "not IPv4", arp, "flood", 5),
            (firewall(), "blocked tuple", known, "install", 18),
            (firewall(), "allowed tuple", unknown, "flood", 13),
            (blocker(), "blocked source", known, "install", 6),
            (blocker(), "allowed source", unknown, "flood", 5),
            (route::program(), "not IPv4", arp, "noop", 4),
            (route::program(), "routed", known, "install", 17),
            (route::program(), "unrouted", unknown, "drop", 10),
        ];
        let mut expected = Vec::new();
        let mut actual = Vec::new();
        for (program, path, keys, decision, nodes) in cases {
            expected.push((program.name.clone(), path, decision, nodes));
            let mut env = program.initial_env();
            l2_learning::learn_host(&mut env, a, 1);
            l3_learning::learn_host(&mut env, ip_a, 1);
            of_firewall::block(&mut env, ip_b, ip_a, ipproto::TCP, 22);
            mac_blocker::block(&mut env, b);
            route::add_route(&mut env, ip_a, 3);
            let result = execute(&program, &keys, &mut env).expect("a seeded app runs");
            let taken = match result.decision {
                ConcreteDecision::Install(_) => "install",
                ConcreteDecision::PacketOutFlood => "flood",
                ConcreteDecision::PacketOutPort(_) => "port",
                ConcreteDecision::Drop => "drop",
                ConcreteDecision::NoOp => "noop",
            };
            actual.push((program.name, path, taken, result.nodes));
        }
        assert_eq!(actual, expected);
    }

    #[test]
    fn evaluation_apps_match_paper_set() {
        let names: Vec<String> = evaluation_apps().into_iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "l2_learning",
                "ip_balancer",
                "l3_learning",
                "of_firewall",
                "mac_blocker"
            ]
        );
    }

    #[test]
    fn every_app_declares_globals_consistently() {
        for program in evaluation_apps().into_iter().chain(table1_apps()) {
            let env = program.initial_env();
            // All globals referenced by the body are declared.
            for stmt_global in body_globals(&program) {
                assert!(
                    env.get(&stmt_global).is_some(),
                    "{}: global {stmt_global} not declared",
                    program.name
                );
            }
        }
    }

    fn body_globals(program: &Program) -> Vec<String> {
        // Walk expressions via symbolic path extraction-free means: reuse
        // node traversal through Display is fragile; instead rely on
        // programs being small and use the path-condition generator from
        // symexec in integration tests. Here, a conservative check via the
        // declared list being non-empty where state is expected.
        let mut names = Vec::new();
        fn walk(stmts: &[policy::Stmt], out: &mut Vec<String>) {
            for stmt in stmts {
                match stmt {
                    policy::Stmt::If { cond, then, els } => {
                        out.extend(cond.globals());
                        walk(then, out);
                        walk(els, out);
                    }
                    policy::Stmt::Learn { map, key, value } => {
                        out.push(map.clone());
                        out.extend(key.globals());
                        out.extend(value.globals());
                    }
                    policy::Stmt::SetGlobal { name, value } => {
                        out.push(name.clone());
                        out.extend(value.globals());
                    }
                    policy::Stmt::Emit(decision) => match decision {
                        policy::Decision::InstallRule(rule) => {
                            for m in &rule.match_on {
                                match m {
                                    policy::MatchTemplate::Exact(_, e)
                                    | policy::MatchTemplate::Prefix(_, e, _) => {
                                        out.extend(e.globals())
                                    }
                                }
                            }
                            for a in &rule.actions {
                                match a {
                                    policy::ActionTemplate::Output(e)
                                    | policy::ActionTemplate::SetNwDst(e)
                                    | policy::ActionTemplate::SetNwSrc(e)
                                    | policy::ActionTemplate::SetDlDst(e) => {
                                        out.extend(e.globals())
                                    }
                                    policy::ActionTemplate::Flood => {}
                                }
                            }
                        }
                        policy::Decision::PacketOutPort(e) => out.extend(e.globals()),
                        _ => {}
                    },
                }
            }
        }
        walk(&program.body, &mut names);
        names.sort();
        names.dedup();
        names
    }
}
