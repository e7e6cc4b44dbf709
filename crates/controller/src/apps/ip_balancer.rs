//! The Table I `ip_balancer`: traffic to a public VIP is split on the
//! highest-order bit of the source address; each half is rewritten to one
//! of two private replicas (192.168.0.1/192.168.0.2 in the paper).
//!
//! The replica assignment is *dynamic* policy — §IV-D's example swaps the
//! two replicas and expects the proactive rules to follow.

use std::net::Ipv4Addr;

use ofproto::types::ethertype;
use policy::builder::*;
use policy::program::GlobalSpec;
use policy::stmt::{ActionTemplate, MatchTemplate, RuleTemplate};
use policy::{Env, Program, Value};

/// Default public VIP.
pub const DEFAULT_VIP: Ipv4Addr = Ipv4Addr::new(100, 0, 0, 100);
/// Default first replica (upper half of the source space).
pub const DEFAULT_REPLICA_A: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 1);
/// Default second replica (lower half).
pub const DEFAULT_REPLICA_B: Ipv4Addr = Ipv4Addr::new(192, 168, 0, 2);

fn half_rule(replica: &str, port: &str, net: Ipv4Addr) -> Decision {
    Decision::InstallRule(
        RuleTemplate::new(
            vec![
                MatchTemplate::Exact(Field::DlType, field(Field::DlType)),
                MatchTemplate::Exact(Field::NwDst, global("vip")),
                MatchTemplate::Prefix(Field::NwSrc, constant(Value::Ip(net)), 1),
            ],
            vec![
                ActionTemplate::SetNwDst(global(replica)),
                ActionTemplate::Output(global(port)),
            ],
        )
        .with_idle_timeout(30),
    )
}

/// Builds the ip_balancer application.
pub fn program() -> Program {
    Program::new(
        "ip_balancer",
        vec![
            GlobalSpec {
                name: "vip".into(),
                initial: Value::Ip(DEFAULT_VIP),
                state_sensitive: false,
                description: "public service address".into(),
                lifetime: None,
            },
            GlobalSpec {
                name: "replica_upper".into(),
                initial: Value::Ip(DEFAULT_REPLICA_A),
                state_sensitive: true,
                description: "private replica serving sources with the high bit set".into(),
                lifetime: None,
            },
            GlobalSpec {
                name: "replica_lower".into(),
                initial: Value::Ip(DEFAULT_REPLICA_B),
                state_sensitive: true,
                description: "private replica serving the remaining sources".into(),
                lifetime: None,
            },
            GlobalSpec {
                name: "port_upper".into(),
                initial: Value::Int(1),
                state_sensitive: true,
                description: "switch port of the upper-half replica".into(),
                lifetime: None,
            },
            GlobalSpec {
                name: "port_lower".into(),
                initial: Value::Int(2),
                state_sensitive: true,
                description: "switch port of the lower-half replica".into(),
                lifetime: None,
            },
        ],
        vec![if_then(
            and(
                eq(field(Field::DlType), constant(u64::from(ethertype::IPV4))),
                eq(field(Field::NwDst), global("vip")),
            ),
            vec![if_else(
                high_bit(field(Field::NwSrc)),
                vec![emit(half_rule(
                    "replica_upper",
                    "port_upper",
                    Ipv4Addr::new(128, 0, 0, 0),
                ))],
                vec![emit(half_rule(
                    "replica_lower",
                    "port_lower",
                    Ipv4Addr::UNSPECIFIED,
                ))],
            )],
        )],
    )
}

/// Reconfigures the balancer's replicas (the §IV-D dynamics scenario).
pub fn configure(env: &mut Env, vip: Ipv4Addr, upper: (Ipv4Addr, u16), lower: (Ipv4Addr, u16)) {
    env.set("vip", Value::Ip(vip));
    env.set("replica_upper", Value::Ip(upper.0));
    env.set("port_upper", Value::Int(u64::from(upper.1)));
    env.set("replica_lower", Value::Ip(lower.0));
    env.set("port_lower", Value::Int(u64::from(lower.1)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofproto::actions::Action;
    use ofproto::flow_match::FlowKeys;
    use ofproto::types::PortNo;
    use policy::interp::{execute, ConcreteDecision};

    fn keys(src: Ipv4Addr, dst: Ipv4Addr) -> FlowKeys {
        FlowKeys {
            dl_type: ethertype::IPV4,
            nw_src: src,
            nw_dst: dst,
            ..FlowKeys::default()
        }
    }

    #[test]
    fn upper_half_goes_to_replica_a() {
        let p = program();
        let mut env = p.initial_env();
        let r = execute(
            &p,
            &keys(Ipv4Addr::new(200, 1, 1, 1), DEFAULT_VIP),
            &mut env,
        )
        .unwrap();
        match r.decision {
            ConcreteDecision::Install(rule) => {
                assert!(rule.actions.contains(&Action::SetNwDst(DEFAULT_REPLICA_A)));
                assert!(rule.actions.contains(&Action::Output(PortNo::Physical(1))));
                // Source prefix /1 on 128.0.0.0.
                assert_eq!(rule.of_match.wildcards.nw_src_bits(), 31);
                assert_eq!(rule.of_match.keys.nw_src, Ipv4Addr::new(128, 0, 0, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lower_half_goes_to_replica_b() {
        let p = program();
        let mut env = p.initial_env();
        let r = execute(&p, &keys(Ipv4Addr::new(9, 1, 1, 1), DEFAULT_VIP), &mut env).unwrap();
        match r.decision {
            ConcreteDecision::Install(rule) => {
                assert!(rule.actions.contains(&Action::SetNwDst(DEFAULT_REPLICA_B)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_vip_traffic_ignored() {
        let p = program();
        let mut env = p.initial_env();
        let r = execute(
            &p,
            &keys(Ipv4Addr::new(200, 1, 1, 1), Ipv4Addr::new(10, 0, 0, 7)),
            &mut env,
        )
        .unwrap();
        assert_eq!(r.decision, ConcreteDecision::NoOp);
    }

    #[test]
    fn reconfiguration_swaps_replicas() {
        // The §IV-D dynamics: swap the replicas; new rules must follow.
        let p = program();
        let mut env = p.initial_env();
        configure(
            &mut env,
            DEFAULT_VIP,
            (DEFAULT_REPLICA_B, 2),
            (DEFAULT_REPLICA_A, 1),
        );
        let r = execute(
            &p,
            &keys(Ipv4Addr::new(200, 1, 1, 1), DEFAULT_VIP),
            &mut env,
        )
        .unwrap();
        match r.decision {
            ConcreteDecision::Install(rule) => {
                assert!(rule.actions.contains(&Action::SetNwDst(DEFAULT_REPLICA_B)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn state_sensitive_vars_cover_replica_state() {
        let vars = program();
        let vars = vars.state_sensitive_vars();
        assert!(vars.contains(&"replica_upper"));
        assert!(vars.contains(&"port_lower"));
        assert!(!vars.contains(&"vip"), "the VIP itself is static config");
    }
}
