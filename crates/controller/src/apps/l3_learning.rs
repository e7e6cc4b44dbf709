//! POX's `l3_learning`: like l2_learning but keyed on IPv4 addresses.
//! Its `ipToPort` table is the state-sensitive variable.

use std::net::Ipv4Addr;

use ofproto::types::ethertype;
use policy::builder::*;
use policy::program::GlobalSpec;
use policy::stmt::{ActionTemplate, MatchTemplate, RuleTemplate};
use policy::{Env, Lifetime, Program, Value};

/// Idle timeout for installed routes.
pub const IDLE_TIMEOUT: u16 = 10;

/// Builds the l3_learning application.
pub fn program() -> Program {
    Program::new(
        "l3_learning",
        vec![GlobalSpec {
            name: "ipToPort".into(),
            initial: Value::Map(Default::default()),
            state_sensitive: true,
            description: "IPv4 address to switch port mapping learned from traffic".into(),
            lifetime: Some(Lifetime::LEARNED),
        }],
        vec![if_else(
            eq(field(Field::DlType), constant(u64::from(ethertype::IPV4))),
            vec![
                learn("ipToPort", field(Field::NwSrc), field(Field::InPort)),
                if_else(
                    map_contains(global("ipToPort"), field(Field::NwDst)),
                    vec![emit(Decision::InstallRule(
                        RuleTemplate::new(
                            vec![
                                MatchTemplate::Exact(Field::DlType, field(Field::DlType)),
                                MatchTemplate::Exact(Field::NwDst, field(Field::NwDst)),
                            ],
                            vec![ActionTemplate::Output(map_get(
                                global("ipToPort"),
                                field(Field::NwDst),
                            ))],
                        )
                        .with_idle_timeout(IDLE_TIMEOUT),
                    ))],
                    vec![emit(Decision::PacketOutFlood)],
                ),
            ],
            // ARP and everything else floods so hosts can resolve.
            vec![emit(Decision::PacketOutFlood)],
        )],
    )
}

/// Seeds a learned `ip -> port` entry.
pub fn learn_host(env: &mut Env, ip: Ipv4Addr, port: u16) {
    env.learn("ipToPort", Value::Ip(ip), Value::Int(u64::from(port)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofproto::flow_match::FlowKeys;
    use ofproto::types::MacAddr;
    use policy::interp::{execute, ConcreteDecision};

    fn ip_keys(src: Ipv4Addr, dst: Ipv4Addr, port: u16) -> FlowKeys {
        FlowKeys {
            dl_type: ethertype::IPV4,
            dl_src: MacAddr::from_u64(1),
            dl_dst: MacAddr::from_u64(2),
            nw_src: src,
            nw_dst: dst,
            in_port: port,
            ..FlowKeys::default()
        }
    }

    #[test]
    fn learns_and_installs_ip_routes() {
        let p = program();
        let mut env = p.initial_env();
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        let r = execute(&p, &ip_keys(a, b, 1), &mut env).unwrap();
        assert_eq!(r.decision, ConcreteDecision::PacketOutFlood);
        let r = execute(&p, &ip_keys(b, a, 2), &mut env).unwrap();
        match r.decision {
            ConcreteDecision::Install(rule) => {
                assert_eq!(rule.of_match.keys.nw_dst, a);
                assert_eq!(rule.of_match.keys.dl_type, ethertype::IPV4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_ip_floods_without_learning() {
        let p = program();
        let mut env = p.initial_env();
        let keys = FlowKeys {
            dl_type: ethertype::ARP,
            ..FlowKeys::default()
        };
        let r = execute(&p, &keys, &mut env).unwrap();
        assert_eq!(r.decision, ConcreteDecision::PacketOutFlood);
        assert_eq!(env.get("ipToPort").unwrap().container_len(), 0);
    }

    #[test]
    fn seed_helper_consistent() {
        let p = program();
        let mut env = p.initial_env();
        learn_host(&mut env, Ipv4Addr::new(10, 0, 0, 9), 4);
        let r = execute(
            &p,
            &ip_keys(Ipv4Addr::new(10, 0, 0, 8), Ipv4Addr::new(10, 0, 0, 9), 1),
            &mut env,
        )
        .unwrap();
        assert!(matches!(r.decision, ConcreteDecision::Install(_)));
    }
}
