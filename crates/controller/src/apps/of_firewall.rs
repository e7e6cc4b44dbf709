//! `of_firewall` (the paper downloads it from the poxstuff repository): a
//! flow-table firewall holding a table of blocked 4-tuples.
//!
//! The paper's Fig. 13 finds this app's proactive-rule generation the
//! slowest (~9 ms) "because this application contains relatively more
//! complex data structure" — here, the rule table of (src, dst, proto,
//! dport) tuples that conversion must enumerate.

use std::net::Ipv4Addr;

use ofproto::types::ethertype;
use policy::builder::*;
use policy::program::GlobalSpec;
use policy::stmt::{MatchTemplate, RuleTemplate};
use policy::{Env, Program, Value};

/// Builds the of_firewall application.
pub fn program() -> Program {
    let tuple_key = || {
        tuple([
            field(Field::NwSrc),
            field(Field::NwDst),
            field(Field::NwProto),
            field(Field::TpDst),
        ])
    };
    Program::new(
        "of_firewall",
        vec![GlobalSpec {
            name: "firewallRules".into(),
            initial: Value::Set(Default::default()),
            state_sensitive: true,
            description:
                "blocked (nw_src, nw_dst, nw_proto, tp_dst) tuples managed by the administrator"
                    .into(),
            lifetime: None,
        }],
        vec![if_else(
            eq(field(Field::DlType), constant(u64::from(ethertype::IPV4))),
            vec![if_else(
                set_contains(global("firewallRules"), tuple_key()),
                vec![emit(Decision::InstallRule(
                    RuleTemplate::new(
                        vec![
                            MatchTemplate::Exact(Field::DlType, field(Field::DlType)),
                            MatchTemplate::Exact(Field::NwSrc, field(Field::NwSrc)),
                            MatchTemplate::Exact(Field::NwDst, field(Field::NwDst)),
                            MatchTemplate::Exact(Field::NwProto, field(Field::NwProto)),
                            MatchTemplate::Exact(Field::TpDst, field(Field::TpDst)),
                        ],
                        vec![], // drop
                    )
                    .with_priority(0x9000),
                ))],
                vec![emit(Decision::PacketOutFlood)],
            )],
            vec![emit(Decision::PacketOutFlood)],
        )],
    )
}

/// Blocks one (src, dst, proto, dport) tuple: a write of that one key
/// ([`Env::insert`]), so the analyzer converts only its rule again.
pub fn block(env: &mut Env, src: Ipv4Addr, dst: Ipv4Addr, proto: u8, dport: u16) {
    env.insert(
        "firewallRules",
        Value::Tuple(vec![
            Value::Ip(src),
            Value::Ip(dst),
            Value::Int(u64::from(proto)),
            Value::Int(u64::from(dport)),
        ]),
    );
}

/// Seeds `n` deterministic blocked tuples (bench workload).
pub fn seed(env: &mut Env, n: usize) {
    for i in 0..n {
        let i = i as u32;
        block(
            env,
            Ipv4Addr::from(0x0a00_0000 | i),
            Ipv4Addr::from(0xc0a8_0000u32 | (i % 256)),
            if i % 2 == 0 { 6 } else { 17 },
            (1000 + i % 5000) as u16,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofproto::flow_match::FlowKeys;
    use ofproto::types::ipproto;
    use policy::interp::{execute, ConcreteDecision};

    fn keys(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, dport: u16) -> FlowKeys {
        FlowKeys {
            dl_type: ethertype::IPV4,
            nw_src: src,
            nw_dst: dst,
            nw_proto: proto,
            tp_dst: dport,
            ..FlowKeys::default()
        }
    }

    #[test]
    fn blocked_tuple_installs_drop_rule() {
        let p = program();
        let mut env = p.initial_env();
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let dst = Ipv4Addr::new(5, 6, 7, 8);
        block(&mut env, src, dst, ipproto::TCP, 22);
        let r = execute(&p, &keys(src, dst, ipproto::TCP, 22), &mut env).unwrap();
        match r.decision {
            ConcreteDecision::Install(rule) => {
                assert!(rule.actions.is_empty());
                assert_eq!(rule.of_match.keys.tp_dst, 22);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn partial_tuple_match_is_allowed() {
        let p = program();
        let mut env = p.initial_env();
        block(
            &mut env,
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            6,
            22,
        );
        // Same pair, different port: allowed.
        let r = execute(
            &p,
            &keys(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), 6, 80),
            &mut env,
        )
        .unwrap();
        assert_eq!(r.decision, ConcreteDecision::PacketOutFlood);
    }

    #[test]
    fn seed_creates_n_rules() {
        let p = program();
        let mut env = p.initial_env();
        seed(&mut env, 100);
        assert_eq!(env.get("firewallRules").unwrap().container_len(), 100);
    }

    #[test]
    fn non_ip_floods() {
        let p = program();
        let mut env = p.initial_env();
        let k = FlowKeys {
            dl_type: ethertype::ARP,
            ..FlowKeys::default()
        };
        let r = execute(&p, &k, &mut env).unwrap();
        assert_eq!(r.decision, ConcreteDecision::PacketOutFlood);
    }
}
