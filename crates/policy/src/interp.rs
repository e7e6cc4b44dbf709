//! The concrete interpreter: executes a handler program against one packet,
//! mutating the environment and producing a decision — this is what the
//! reactive controller platform runs for every `packet_in`.

use ofproto::flow_match::FlowKeys;

use crate::convert::{instantiate_rule_in, ProactiveRule};
use crate::env::Env;
use crate::expr::{EvalError, Expr};
use crate::program::Program;
use crate::stmt::{Decision, Stmt};

/// The concrete outcome of handling one packet.
#[derive(Debug, Clone, PartialEq)]
pub enum ConcreteDecision {
    /// Install this rule and forward the triggering packet through it.
    Install(ProactiveRule),
    /// Send the packet out one port; no state installed.
    PacketOutPort(u16),
    /// Flood the packet; no state installed.
    PacketOutFlood,
    /// Drop the packet.
    Drop,
    /// The handler fell off the end without a decision.
    NoOp,
}

/// The result of one handler execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// The decision reached.
    pub decision: ConcreteDecision,
    /// AST nodes evaluated — the interpreter's CPU cost model. The
    /// controller platform multiplies this by a per-node time constant.
    pub nodes: u64,
}

/// Where the packet a handler runs on came from, which decides where its
/// learns go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Straight from a switch: learns write the application's maps.
    Switch,
    /// Re-raised by FloodGuard's data plane cache during an attack, so
    /// possibly spoofed: learns go to the maps' quarantine overlays
    /// ([`Env::quarantine`]), which the handler reads and rule conversion
    /// does not.
    Cache,
}

/// Executes `program` on a packet with header `keys`, mutating `env`.
///
/// Execution is sequential and stops at the first [`Stmt::Emit`], mirroring
/// handler functions that return after acting. Learns are stamped with the
/// environment's clock and go to its maps ([`Provenance::Switch`]).
///
/// # Errors
///
/// Propagates [`EvalError`] from expression evaluation (unknown globals,
/// type mismatches). A correct application never errors.
pub fn execute(program: &Program, keys: &FlowKeys, env: &mut Env) -> Result<ExecResult, EvalError> {
    let now = env.clock();
    execute_at(program, keys, env, now, Provenance::Switch)
}

/// [`execute`] for a packet that arrived at `now` by way of `provenance`:
/// the environment's clock advances to `now` and learns are stamped with
/// it. Map lookups read a learned map's quarantine overlay where the map
/// has no entry ([`Env::quarantined`]), whatever the provenance.
///
/// # Errors
///
/// As [`execute`].
pub fn execute_at(
    program: &Program,
    keys: &FlowKeys,
    env: &mut Env,
    now: f64,
    provenance: Provenance,
) -> Result<ExecResult, EvalError> {
    env.advance(now);
    let mut nodes = 0u64;
    let decision = exec_block(&program.body, keys, env, provenance, &mut nodes)?;
    Ok(ExecResult {
        decision: decision.unwrap_or(ConcreteDecision::NoOp),
        nodes,
    })
}

fn exec_block(
    stmts: &[Stmt],
    keys: &FlowKeys,
    env: &mut Env,
    provenance: Provenance,
    nodes: &mut u64,
) -> Result<Option<ConcreteDecision>, EvalError> {
    for stmt in stmts {
        *nodes += 1;
        match stmt {
            Stmt::If { cond, then, els } => {
                let taken = cond.eval_app(keys, env, nodes)?.as_bool()?;
                let branch = if taken { then } else { els };
                if let Some(decision) = exec_block(branch, keys, env, provenance, nodes)? {
                    return Ok(Some(decision));
                }
            }
            Stmt::Learn { map, key, value } => {
                let key = key.eval_app(keys, env, nodes)?.into_owned();
                let value = value.eval_app(keys, env, nodes)?.into_owned();
                match provenance {
                    Provenance::Switch => env.learn(map, key, value),
                    Provenance::Cache => env.quarantine(map, key, value),
                }
            }
            Stmt::SetGlobal { name, value } => {
                let value = value.eval_app(keys, env, nodes)?.into_owned();
                env.set(name, value);
            }
            Stmt::Emit(decision) => {
                let concrete =
                    match decision {
                        Decision::InstallRule(rule) => ConcreteDecision::Install(
                            instantiate_rule_in(rule, keys, env, Expr::eval_app, nodes)?,
                        ),
                        Decision::PacketOutPort(e) => ConcreteDecision::PacketOutPort(
                            e.eval_app(keys, env, nodes)?.as_int()? as u16,
                        ),
                        Decision::PacketOutFlood => ConcreteDecision::PacketOutFlood,
                        Decision::Drop => ConcreteDecision::Drop,
                    };
                return Ok(Some(concrete));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::program::GlobalSpec;
    use crate::stmt::{ActionTemplate, MatchTemplate, RuleTemplate};
    use crate::value::Value;
    use ofproto::types::MacAddr;

    /// A miniature l2_learning: learn src, flood unknowns, install for known.
    fn mini_l2() -> Program {
        Program::new(
            "mini_l2",
            vec![GlobalSpec {
                name: "macToPort".into(),
                initial: Value::Map(Default::default()),
                state_sensitive: true,
                description: "MAC-port mapping table".into(),
                lifetime: None,
            }],
            vec![
                Stmt::Learn {
                    map: "macToPort".into(),
                    key: field(Field::DlSrc),
                    value: field(Field::InPort),
                },
                Stmt::If {
                    cond: is_broadcast(field(Field::DlDst)),
                    then: vec![Stmt::Emit(Decision::PacketOutFlood)],
                    els: vec![Stmt::If {
                        cond: not(map_contains(global("macToPort"), field(Field::DlDst))),
                        then: vec![Stmt::Emit(Decision::PacketOutFlood)],
                        els: vec![Stmt::Emit(Decision::InstallRule(
                            RuleTemplate::new(
                                vec![MatchTemplate::Exact(Field::DlDst, field(Field::DlDst))],
                                vec![ActionTemplate::Output(map_get(
                                    global("macToPort"),
                                    field(Field::DlDst),
                                ))],
                            )
                            .with_idle_timeout(10),
                        ))],
                    }],
                },
            ],
        )
    }

    fn keys(src: u64, dst: u64, in_port: u16) -> FlowKeys {
        FlowKeys {
            dl_src: MacAddr::from_u64(src),
            dl_dst: MacAddr::from_u64(dst),
            in_port,
            ..FlowKeys::default()
        }
    }

    #[test]
    fn learning_then_installing() {
        let p = mini_l2();
        let mut env = p.initial_env();
        // First packet: dst unknown → flood; src learned.
        let r = execute(&p, &keys(0xa, 0xb, 1), &mut env).unwrap();
        assert_eq!(r.decision, ConcreteDecision::PacketOutFlood);
        assert!(r.nodes > 0);
        // Reply: dst=0xa now known → install rule to port 1.
        let r = execute(&p, &keys(0xb, 0xa, 2), &mut env).unwrap();
        match r.decision {
            ConcreteDecision::Install(rule) => {
                assert_eq!(rule.of_match.keys.dl_dst, MacAddr::from_u64(0xa));
                assert_eq!(
                    rule.actions,
                    vec![ofproto::actions::Action::Output(
                        ofproto::types::PortNo::Physical(1)
                    )]
                );
                assert_eq!(rule.idle_timeout, 10);
            }
            other => panic!("expected install, got {other:?}"),
        }
    }

    #[test]
    fn a_cache_packet_teaches_in_quarantine_and_the_handler_reads_it() {
        let mut p = mini_l2();
        p.globals[0].lifetime = Some(crate::env::Lifetime::LEARNED);
        let mut env = p.initial_env();
        // 0xa learned from the switch on port 1; 0xc only through the cache.
        execute_at(&p, &keys(0xa, 0xb, 1), &mut env, 1.0, Provenance::Switch).unwrap();
        execute_at(&p, &keys(0xc, 0xb, 3), &mut env, 2.0, Provenance::Cache).unwrap();
        let map = env.get("macToPort").unwrap().as_map().unwrap();
        assert_eq!(map.len(), 1, "conversion sees the trusted entry only");
        // The handler reads the quarantined entry: traffic to 0xc installs.
        let r = execute_at(&p, &keys(0xb, 0xc, 2), &mut env, 3.0, Provenance::Switch).unwrap();
        let ConcreteDecision::Install(rule) = r.decision else {
            panic!("expected install, got {:?}", r.decision);
        };
        assert_eq!(
            rule.actions,
            vec![ofproto::actions::Action::Output(
                ofproto::types::PortNo::Physical(3)
            )]
        );
        // A cache packet claiming 0xa from port 3 moves nothing.
        execute_at(&p, &keys(0xa, 0xb, 3), &mut env, 4.0, Provenance::Cache).unwrap();
        let r = execute_at(&p, &keys(0xb, 0xa, 2), &mut env, 5.0, Provenance::Switch).unwrap();
        let ConcreteDecision::Install(rule) = r.decision else {
            panic!("expected install, got {:?}", r.decision);
        };
        assert_eq!(
            rule.actions,
            vec![ofproto::actions::Action::Output(
                ofproto::types::PortNo::Physical(1)
            )]
        );
    }

    #[test]
    fn broadcast_floods_without_install() {
        let p = mini_l2();
        let mut env = p.initial_env();
        let r = execute(&p, &keys(0xa, 0xffff_ffff_ffff, 1), &mut env).unwrap();
        assert_eq!(r.decision, ConcreteDecision::PacketOutFlood);
    }

    #[test]
    fn env_mutation_visible_across_calls() {
        let p = mini_l2();
        let mut env = p.initial_env();
        let v0 = env.version();
        execute(&p, &keys(0xa, 0xb, 1), &mut env).unwrap();
        assert!(env.version() > v0, "learning bumps the version");
        // Same packet again: no change, no version bump from learn.
        let v1 = env.version();
        execute(&p, &keys(0xa, 0xb, 1), &mut env).unwrap();
        assert_eq!(env.version(), v1);
    }

    #[test]
    fn empty_program_is_noop() {
        let p = Program::new("empty", vec![], vec![]);
        let mut env = p.initial_env();
        let r = execute(&p, &FlowKeys::default(), &mut env).unwrap();
        assert_eq!(r.decision, ConcreteDecision::NoOp);
    }

    #[test]
    fn emit_stops_execution() {
        let p = Program::new(
            "two_emits",
            vec![],
            vec![
                Stmt::Emit(Decision::Drop),
                Stmt::Emit(Decision::PacketOutFlood),
            ],
        );
        let mut env = p.initial_env();
        let r = execute(&p, &FlowKeys::default(), &mut env).unwrap();
        assert_eq!(r.decision, ConcreteDecision::Drop);
    }

    #[test]
    fn set_global_mutates_env() {
        let p = Program::new(
            "counter",
            vec![GlobalSpec {
                name: "mode".into(),
                initial: Value::Int(0),
                state_sensitive: true,
                description: "configuration scalar".into(),
                lifetime: None,
            }],
            vec![
                Stmt::SetGlobal {
                    name: "mode".into(),
                    value: constant(Value::Int(7)),
                },
                Stmt::Emit(Decision::Drop),
            ],
        );
        let mut env = p.initial_env();
        let v0 = env.version();
        execute(&p, &FlowKeys::default(), &mut env).unwrap();
        assert_eq!(env.get("mode"), Some(&Value::Int(7)));
        assert!(env.version() > v0);
    }

    #[test]
    fn node_count_scales_with_state() {
        // Bigger learned state means map operations touch more data; the
        // node count is static per path, but paths differ.
        let p = mini_l2();
        let mut env = p.initial_env();
        let flood = execute(&p, &keys(0xa, 0xb, 1), &mut env).unwrap();
        let install = execute(&p, &keys(0xb, 0xa, 2), &mut env).unwrap();
        assert!(install.nodes > flood.nodes, "install path is deeper");
    }
}
