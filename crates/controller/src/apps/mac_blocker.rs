//! `mac_blocker`: drops traffic from administratively blocked MAC
//! addresses, forwarding everything else like a hub. The blocked-MAC set is
//! its state-sensitive variable.

use ofproto::types::MacAddr;
use policy::builder::*;
use policy::program::GlobalSpec;
use policy::stmt::{MatchTemplate, RuleTemplate};
use policy::{Env, Program, Value};

/// Builds the mac_blocker application.
pub fn program() -> Program {
    Program::new(
        "mac_blocker",
        vec![GlobalSpec {
            name: "blockedMacs".into(),
            initial: Value::Set(Default::default()),
            state_sensitive: true,
            description: "MAC addresses barred from the network by the administrator".into(),
            lifetime: None,
        }],
        vec![if_else(
            set_contains(global("blockedMacs"), field(Field::DlSrc)),
            vec![emit(Decision::InstallRule(
                RuleTemplate::new(
                    vec![MatchTemplate::Exact(Field::DlSrc, field(Field::DlSrc))],
                    vec![], // drop
                )
                .with_priority(0x9000),
            ))],
            vec![emit(Decision::PacketOutFlood)],
        )],
    )
}

/// Blocks a MAC address: a write of that one key ([`Env::insert`]), so
/// the analyzer converts only its rule again.
pub fn block(env: &mut Env, mac: MacAddr) {
    env.insert("blockedMacs", Value::Mac(mac));
}

/// Seeds `n` deterministic blocked MACs (bench workload).
pub fn seed(env: &mut Env, n: usize) {
    for i in 0..n {
        block(env, MacAddr::from_u64(0xb10c_0000 + i as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofproto::flow_match::FlowKeys;
    use policy::interp::{execute, ConcreteDecision};

    fn keys(src: u64) -> FlowKeys {
        FlowKeys {
            dl_src: MacAddr::from_u64(src),
            ..FlowKeys::default()
        }
    }

    #[test]
    fn blocked_mac_gets_drop_rule() {
        let p = program();
        let mut env = p.initial_env();
        block(&mut env, MacAddr::from_u64(0xbad));
        let r = execute(&p, &keys(0xbad), &mut env).unwrap();
        match r.decision {
            ConcreteDecision::Install(rule) => {
                assert!(rule.actions.is_empty());
                assert_eq!(rule.of_match.keys.dl_src, MacAddr::from_u64(0xbad));
                assert_eq!(rule.priority, 0x9000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unblocked_mac_floods() {
        let p = program();
        let mut env = p.initial_env();
        block(&mut env, MacAddr::from_u64(0xbad));
        let r = execute(&p, &keys(0x900d), &mut env).unwrap();
        assert_eq!(r.decision, ConcreteDecision::PacketOutFlood);
    }

    #[test]
    fn seed_is_deduplicated_set() {
        let p = program();
        let mut env = p.initial_env();
        seed(&mut env, 10);
        seed(&mut env, 10);
        assert_eq!(env.get("blockedMacs").unwrap().container_len(), 10);
    }
}
