//! Property-based soundness of the Algorithm 2 solver: for randomly
//! generated handler conditions, every proactive rule the solver emits must
//! describe packets that actually take the rule-installing path when the
//! handler runs concretely.

use ofproto::flow_match::FlowKeys;
use ofproto::types::MacAddr;
use policy::builder::*;
use policy::interp::{execute, ConcreteDecision};
use policy::program::{GlobalSpec, Program};
use policy::stmt::{MatchTemplate, RuleTemplate};
use policy::{Env, Expr, Value};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use symexec::{convert_to_rules, generate_path_conditions};

/// A small universe so membership sets actually collide with equalities.
fn small_mac() -> impl Strategy<Value = MacAddr> {
    (0u64..6).prop_map(MacAddr::from_u64)
}

fn small_int() -> impl Strategy<Value = u64> {
    0u64..6
}

/// Random solver-friendly conditions over dl_src / tp_dst / nw_src.
fn arb_cond() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        small_mac().prop_map(|m| eq(field(Field::DlSrc), constant(Value::Mac(m)))),
        small_int().prop_map(|i| eq(field(Field::TpDst), constant(Value::Int(i)))),
        Just(set_contains(global("macs"), field(Field::DlSrc))),
        Just(map_contains(global("ports"), field(Field::TpDst))),
        Just(high_bit(field(Field::NwSrc))),
        Just(is_broadcast(field(Field::DlSrc))),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| or(a, b)),
            inner.prop_map(not),
        ]
    })
}

fn arb_env() -> impl Strategy<Value = Env> {
    (
        proptest::collection::btree_set(0u64..6, 0..4),
        proptest::collection::btree_map(0u64..6, 1u64..5, 0..4),
    )
        .prop_map(|(macs, ports)| {
            let mut env = Env::new();
            env.set(
                "macs",
                set_value(macs.into_iter().map(|m| Value::Mac(MacAddr::from_u64(m)))),
            );
            env.set(
                "ports",
                map_value(
                    ports
                        .into_iter()
                        .map(|(k, v)| (Value::Int(k), Value::Int(v))),
                ),
            );
            env
        })
}

/// Builds the handler `if cond { install rule matching the fields cond
/// reads } else { drop }`.
fn program_for(cond: &Expr) -> Program {
    let match_on = cond
        .free_fields()
        .into_iter()
        .map(|f| match f {
            Field::NwSrc => MatchTemplate::Prefix(f, prefix(field(f), 1), 1),
            _ => MatchTemplate::Exact(f, field(f)),
        })
        .collect();
    Program::new(
        "generated",
        vec![
            GlobalSpec {
                name: "macs".into(),
                initial: Value::Set(Default::default()),
                state_sensitive: true,
                description: "test set".into(),
                lifetime: None,
            },
            GlobalSpec {
                name: "ports".into(),
                initial: Value::Map(Default::default()),
                state_sensitive: true,
                description: "test map".into(),
                lifetime: None,
            },
        ],
        vec![if_else(
            cond.clone(),
            vec![emit(Decision::InstallRule(RuleTemplate::new(
                match_on,
                vec![policy::ActionTemplate::Flood],
            )))],
            vec![emit(Decision::Drop)],
        )],
    )
}

/// Synthesizes a packet satisfying a rule's match (exact fields copied;
/// prefix fields get the network address).
fn packet_from_rule(of_match: &ofproto::flow_match::OfMatch) -> FlowKeys {
    let mut keys = FlowKeys::default();
    let w = of_match.wildcards;
    if !w.contains(ofproto::flow_match::Wildcards::DL_SRC) {
        keys.dl_src = of_match.keys.dl_src;
    }
    if !w.contains(ofproto::flow_match::Wildcards::TP_DST) {
        keys.tp_dst = of_match.keys.tp_dst;
    }
    if w.nw_src_bits() < 32 {
        keys.nw_src = of_match.keys.nw_src;
    }
    keys
}

/// Deterministic guard against vacuous proptests: known conditions must
/// yield rules.
#[test]
fn known_conditions_produce_rules() {
    let mut env = Env::new();
    env.set(
        "macs",
        set_value([
            Value::Mac(MacAddr::from_u64(1)),
            Value::Mac(MacAddr::from_u64(2)),
        ]),
    );
    env.set("ports", map_value([(Value::Int(3), Value::Int(1))]));
    let cases = vec![
        (set_contains(global("macs"), field(Field::DlSrc)), 2usize),
        (map_contains(global("ports"), field(Field::TpDst)), 1),
        (high_bit(field(Field::NwSrc)), 1),
        (
            and(
                set_contains(global("macs"), field(Field::DlSrc)),
                map_contains(global("ports"), field(Field::TpDst)),
            ),
            2,
        ),
        (
            or(
                eq(field(Field::TpDst), constant(Value::Int(4))),
                eq(field(Field::TpDst), constant(Value::Int(5))),
            ),
            2,
        ),
    ];
    for (cond, expected) in cases {
        let program = program_for(&cond);
        let pcs = generate_path_conditions(&program);
        let conversion = convert_to_rules(&pcs, &env);
        assert_eq!(
            conversion.rules.len(),
            expected,
            "cond {cond} produced {:?}",
            conversion.rules
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Soundness: every emitted proactive rule, probed with a packet built
    /// from its match, drives the concrete handler down the install path
    /// and reproduces the same rule.
    #[test]
    fn solver_rules_are_sound(cond in arb_cond(), env in arb_env()) {
        let program = program_for(&cond);
        let pcs = generate_path_conditions(&program);
        let conversion = convert_to_rules(&pcs, &env);
        for rule in &conversion.rules {
            let keys = packet_from_rule(&rule.of_match);
            let mut probe_env = env.clone();
            let result = execute(&program, &keys, &mut probe_env).unwrap();
            match result.decision {
                ConcreteDecision::Install(reactive) => {
                    prop_assert_eq!(
                        &reactive, rule,
                        "packet {:?} under cond {} produced a different rule",
                        keys, cond
                    );
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "rule {rule:?} from cond {cond} is unsound: packet {keys:?} took {other:?}"
                    )));
                }
            }
        }
    }

    /// Conversion is deterministic and idempotent.
    #[test]
    fn conversion_is_deterministic(cond in arb_cond(), env in arb_env()) {
        let program = program_for(&cond);
        let pcs = generate_path_conditions(&program);
        let a = convert_to_rules(&pcs, &env);
        let b = convert_to_rules(&pcs, &env);
        prop_assert_eq!(a.rules, b.rules);
    }

    /// Substitution then evaluation == direct evaluation (the partial
    /// evaluator agrees with the interpreter). The residual is evaluated
    /// against the environment it was substituted under, which is where
    /// the tables it still reads live; no scalar global is left in it.
    #[test]
    fn substitution_commutes_with_evaluation(
        cond in arb_cond(),
        env in arb_env(),
        src in 0u64..6,
        dst_port in 0u64..6,
        nw in any::<u32>(),
    ) {
        let keys = FlowKeys {
            dl_src: MacAddr::from_u64(src),
            tp_dst: dst_port as u16,
            nw_src: Ipv4Addr::from(nw),
            ..FlowKeys::default()
        };
        let mut n = 0;
        let direct = cond.eval(&keys, &env, &mut n);
        let residual = cond.substitute(&env);
        if let Ok(residual) = &residual {
            for name in residual.globals() {
                prop_assert!(
                    matches!(env.get(&name), Some(Value::Map(_) | Value::Set(_))),
                    "{} left in {}", name, residual
                );
            }
        }
        let substituted = residual.and_then(|e| e.eval(&keys, &env, &mut n));
        prop_assert_eq!(direct.ok(), substituted.ok());
    }
}
