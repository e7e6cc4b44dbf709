//! The Table I `route` application: forwards by destination network using a
//! routing table keyed on /24 prefixes. The routing table is the
//! state-sensitive variable — it "is associated with the current network
//! topology" (paper §II-C).

use std::net::Ipv4Addr;

use ofproto::types::ethertype;
use policy::builder::*;
use policy::expr::mask_ip;
use policy::program::GlobalSpec;
use policy::stmt::{ActionTemplate, MatchTemplate, RuleTemplate};
use policy::{Env, Program, Value};

/// Prefix length of routing-table entries.
pub const ROUTE_PREFIX_LEN: u32 = 24;

/// Builds the route application.
pub fn program() -> Program {
    let dst_net = || prefix(field(Field::NwDst), ROUTE_PREFIX_LEN);
    Program::new(
        "route",
        vec![GlobalSpec {
            name: "routingTable".into(),
            initial: Value::Map(Default::default()),
            state_sensitive: true,
            description: "destination /24 network to egress port, derived from topology".into(),
            lifetime: None,
        }],
        vec![if_then(
            eq(field(Field::DlType), constant(u64::from(ethertype::IPV4))),
            vec![if_else(
                map_contains(global("routingTable"), dst_net()),
                vec![emit(Decision::InstallRule(
                    RuleTemplate::new(
                        vec![
                            MatchTemplate::Exact(Field::DlType, field(Field::DlType)),
                            MatchTemplate::Prefix(Field::NwDst, dst_net(), ROUTE_PREFIX_LEN),
                        ],
                        vec![ActionTemplate::Output(map_get(
                            global("routingTable"),
                            dst_net(),
                        ))],
                    )
                    .with_idle_timeout(60),
                ))],
                vec![emit(Decision::Drop)],
            )],
        )],
    )
}

/// Adds a route for the /24 network containing `net`.
pub fn add_route(env: &mut Env, net: Ipv4Addr, port: u16) {
    env.learn(
        "routingTable",
        Value::Ip(mask_ip(net, ROUTE_PREFIX_LEN)),
        Value::Int(u64::from(port)),
    );
}

/// Seeds `n` deterministic routes (bench workload).
pub fn seed(env: &mut Env, n: usize) {
    for i in 0..n {
        add_route(
            env,
            Ipv4Addr::from(0x0a00_0000 | ((i as u32) << 8)),
            (i % 8 + 1) as u16,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofproto::actions::Action;
    use ofproto::flow_match::FlowKeys;
    use ofproto::types::PortNo;
    use policy::interp::{execute, ConcreteDecision};

    fn keys(dst: Ipv4Addr) -> FlowKeys {
        FlowKeys {
            dl_type: ethertype::IPV4,
            nw_dst: dst,
            ..FlowKeys::default()
        }
    }

    #[test]
    fn routed_destination_installs_prefix_rule() {
        let p = program();
        let mut env = p.initial_env();
        add_route(&mut env, Ipv4Addr::new(10, 1, 2, 0), 3);
        let r = execute(&p, &keys(Ipv4Addr::new(10, 1, 2, 99)), &mut env).unwrap();
        match r.decision {
            ConcreteDecision::Install(rule) => {
                assert_eq!(rule.actions, vec![Action::Output(PortNo::Physical(3))]);
                assert_eq!(rule.of_match.wildcards.nw_dst_bits(), 8, "/24 prefix");
                assert_eq!(rule.of_match.keys.nw_dst, Ipv4Addr::new(10, 1, 2, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unrouted_destination_dropped() {
        let p = program();
        let mut env = p.initial_env();
        add_route(&mut env, Ipv4Addr::new(10, 1, 2, 0), 3);
        let r = execute(&p, &keys(Ipv4Addr::new(172, 16, 0, 1)), &mut env).unwrap();
        assert_eq!(r.decision, ConcreteDecision::Drop);
    }

    #[test]
    fn non_ip_ignored() {
        let p = program();
        let mut env = p.initial_env();
        let k = FlowKeys {
            dl_type: ethertype::ARP,
            ..FlowKeys::default()
        };
        let r = execute(&p, &k, &mut env).unwrap();
        assert_eq!(r.decision, ConcreteDecision::NoOp);
    }

    #[test]
    fn seed_creates_disjoint_nets() {
        let p = program();
        let mut env = p.initial_env();
        seed(&mut env, 16);
        assert_eq!(env.get("routingTable").unwrap().container_len(), 16);
    }
}
