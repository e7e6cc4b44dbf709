//! POX's `l2_learning` — the paper's running example (§IV-B, Fig. 5).
//!
//! The handler learns `macToPort[pkt.dl_src] = inport` on every packet and
//! has three paths: broadcast destinations flood, unknown destinations
//! flood, and known destinations install `dl_dst -> output:port` rules.
//! `macToPort` is the state-sensitive variable of Table III.

use ofproto::types::MacAddr;
use policy::builder::*;
use policy::program::GlobalSpec;
use policy::stmt::{ActionTemplate, MatchTemplate, RuleTemplate};
use policy::{Env, Lifetime, Program, Value};

/// Idle timeout POX's l2_learning uses for installed rules.
pub const IDLE_TIMEOUT: u16 = 10;

/// Builds the l2_learning application.
pub fn program() -> Program {
    Program::new(
        "l2_learning",
        vec![GlobalSpec {
            name: "macToPort".into(),
            initial: Value::Map(Default::default()),
            state_sensitive: true,
            description: "MAC address to switch port mapping learned from traffic".into(),
            lifetime: Some(Lifetime::LEARNED),
        }],
        vec![
            learn("macToPort", field(Field::DlSrc), field(Field::InPort)),
            if_else(
                is_broadcast(field(Field::DlDst)),
                vec![emit(Decision::PacketOutFlood)],
                vec![if_else(
                    not(map_contains(global("macToPort"), field(Field::DlDst))),
                    vec![emit(Decision::PacketOutFlood)],
                    vec![emit(Decision::InstallRule(
                        RuleTemplate::new(
                            vec![MatchTemplate::Exact(Field::DlDst, field(Field::DlDst))],
                            vec![ActionTemplate::Output(map_get(
                                global("macToPort"),
                                field(Field::DlDst),
                            ))],
                        )
                        .with_idle_timeout(IDLE_TIMEOUT),
                    ))],
                )],
            ),
        ],
    )
}

/// Seeds a learned `mac -> port` entry (as prior traffic would).
pub fn learn_host(env: &mut Env, mac: MacAddr, port: u16) {
    env.learn("macToPort", Value::Mac(mac), Value::Int(u64::from(port)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofproto::flow_match::FlowKeys;
    use policy::interp::{execute, ConcreteDecision};

    fn keys(src: u64, dst: u64, port: u16) -> FlowKeys {
        FlowKeys {
            dl_src: MacAddr::from_u64(src),
            dl_dst: MacAddr::from_u64(dst),
            in_port: port,
            ..FlowKeys::default()
        }
    }

    #[test]
    fn three_phase_learning() {
        let p = program();
        let mut env = p.initial_env();
        // Unknown destination: flood.
        let r = execute(&p, &keys(0xa, 0xb, 1), &mut env).unwrap();
        assert_eq!(r.decision, ConcreteDecision::PacketOutFlood);
        // Known destination: install with POX's idle timeout.
        let r = execute(&p, &keys(0xb, 0xa, 2), &mut env).unwrap();
        match r.decision {
            ConcreteDecision::Install(rule) => {
                assert_eq!(rule.idle_timeout, IDLE_TIMEOUT);
                assert_eq!(rule.of_match.keys.dl_dst, MacAddr::from_u64(0xa));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn broadcast_never_installs() {
        let p = program();
        let mut env = p.initial_env();
        let broadcast = MacAddr::BROADCAST.to_u64();
        let r = execute(&p, &keys(0xa, broadcast, 1), &mut env).unwrap();
        assert_eq!(r.decision, ConcreteDecision::PacketOutFlood);
    }

    #[test]
    fn seeding_matches_learning() {
        let p = program();
        let mut learned = p.initial_env();
        execute(&p, &keys(0xa, 0xff, 3), &mut learned).unwrap();
        let mut seeded = p.initial_env();
        learn_host(&mut seeded, MacAddr::from_u64(0xa), 3);
        assert_eq!(
            learned.get("macToPort"),
            seeded.get("macToPort"),
            "seed helper must replicate organic learning"
        );
    }

    #[test]
    fn table3_metadata() {
        let p = program();
        assert_eq!(p.state_sensitive_vars(), vec!["macToPort"]);
        assert!(p.globals[0].description.to_lowercase().contains("mac"));
    }
}
