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
