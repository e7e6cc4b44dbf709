//! Instantiation of rule templates into concrete OpenFlow rules.

use ofproto::actions::Action;
use ofproto::flow_match::OfMatch;
use ofproto::flow_mod::FlowMod;
use ofproto::types::PortNo;

use crate::env::Env;
use std::borrow::Cow;

use crate::expr::{EvalError, Expr, Field};
use crate::stmt::{ActionTemplate, MatchTemplate, RuleTemplate};
use crate::value::Value;
use ofproto::flow_match::FlowKeys;

/// A concrete flow rule produced from a template — either by the concrete
/// interpreter (reactive installation) or by the symbolic engine's runtime
/// conversion (a *proactive flow rule*, the paper's central concept).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProactiveRule {
    /// The rule's match.
    pub of_match: OfMatch,
    /// The rule's actions.
    pub actions: Vec<Action>,
    /// Priority.
    pub priority: u16,
    /// Idle timeout.
    pub idle_timeout: u16,
    /// Hard timeout.
    pub hard_timeout: u16,
}

impl ProactiveRule {
    /// Converts into an `Add` flow-mod.
    pub fn to_flow_mod(&self) -> FlowMod {
        self.clone().into_flow_mod()
    }

    /// Converts into an `Add` flow-mod that takes the rule's actions.
    pub fn into_flow_mod(self) -> FlowMod {
        FlowMod::add(self.of_match, self.actions)
            .with_priority(self.priority)
            .with_idle_timeout(self.idle_timeout)
            .with_hard_timeout(self.hard_timeout)
    }
}

/// Narrows `of_match` so `field` must equal `value`.
///
/// # Errors
///
/// [`EvalError::Type`] when the value's type does not fit the field.
pub fn constrain_exact(
    of_match: OfMatch,
    field: Field,
    value: &Value,
) -> Result<OfMatch, EvalError> {
    Ok(match field {
        Field::InPort => of_match.with_in_port(value.as_int()? as u16),
        Field::DlSrc => of_match.with_dl_src(value.as_mac()?),
        Field::DlDst => of_match.with_dl_dst(value.as_mac()?),
        Field::DlType => of_match.with_dl_type(value.as_int()? as u16),
        Field::DlVlan => of_match.with_dl_vlan(value.as_int()? as u16),
        Field::NwSrc => of_match.with_nw_src(value.as_ip()?),
        Field::NwDst => of_match.with_nw_dst(value.as_ip()?),
        Field::NwProto => of_match.with_nw_proto(value.as_int()? as u8),
        Field::NwTos => of_match.with_nw_tos(value.as_int()? as u8),
        Field::TpSrc => of_match.with_tp_src(value.as_int()? as u16),
        Field::TpDst => of_match.with_tp_dst(value.as_int()? as u16),
    })
}

/// Narrows `of_match` so `field` must fall in the /`prefix_len` network of
/// `value` (IPv4 fields only).
///
/// # Errors
///
/// [`EvalError::Type`] when the field is not an IPv4 field or the value is
/// not an address.
pub fn constrain_prefix(
    of_match: OfMatch,
    field: Field,
    value: &Value,
    prefix_len: u32,
) -> Result<OfMatch, EvalError> {
    let ip = value.as_ip()?;
    Ok(match field {
        Field::NwSrc => of_match.with_nw_src_prefix(ip, prefix_len),
        Field::NwDst => of_match.with_nw_dst_prefix(ip, prefix_len),
        // Prefix constraints only make sense on IPv4 fields.
        _ => {
            return Err(EvalError::Type(
                Value::Ip(ip).as_int().expect_err("ip is not int"),
            ))
        }
    })
}

/// An evaluator: [`Expr::eval_ref`] or [`Expr::eval_app`].
pub(crate) type Eval =
    for<'a> fn(&'a Expr, &FlowKeys, &'a Env, &mut u64) -> Result<Cow<'a, Value>, EvalError>;

fn instantiate_action_in(
    action: &ActionTemplate,
    keys: &FlowKeys,
    env: &Env,
    eval: Eval,
    nodes: &mut u64,
) -> Result<Action, EvalError> {
    Ok(match action {
        ActionTemplate::Output(e) => {
            let port = eval(e, keys, env, nodes)?.as_int()? as u16;
            Action::Output(PortNo::Physical(port))
        }
        ActionTemplate::Flood => Action::Output(PortNo::Flood),
        ActionTemplate::SetNwDst(e) => Action::SetNwDst(eval(e, keys, env, nodes)?.as_ip()?),
        ActionTemplate::SetNwSrc(e) => Action::SetNwSrc(eval(e, keys, env, nodes)?.as_ip()?),
        ActionTemplate::SetDlDst(e) => Action::SetDlDst(eval(e, keys, env, nodes)?.as_mac()?),
    })
}

/// Instantiates a rule template into a concrete rule by evaluating every
/// embedded expression against `keys` and `env`.
///
/// # Errors
///
/// Propagates expression-evaluation failures (unknown globals, type
/// mismatches).
pub fn instantiate_rule(
    rule: &RuleTemplate,
    keys: &FlowKeys,
    env: &Env,
    nodes: &mut u64,
) -> Result<ProactiveRule, EvalError> {
    instantiate_rule_in(rule, keys, env, Expr::eval_ref, nodes)
}

/// [`instantiate_rule`] with the expressions read by `eval`.
pub(crate) fn instantiate_rule_in(
    rule: &RuleTemplate,
    keys: &FlowKeys,
    env: &Env,
    eval: Eval,
    nodes: &mut u64,
) -> Result<ProactiveRule, EvalError> {
    let mut of_match = OfMatch::any();
    for m in &rule.match_on {
        of_match = match m {
            MatchTemplate::Exact(field, e) => {
                let v = eval(e, keys, env, nodes)?;
                constrain_exact(of_match, *field, &v)?
            }
            MatchTemplate::Prefix(field, e, prefix_len) => {
                let v = eval(e, keys, env, nodes)?;
                constrain_prefix(of_match, *field, &v, *prefix_len)?
            }
        };
    }
    let mut actions = Vec::with_capacity(rule.actions.len());
    for a in &rule.actions {
        actions.push(instantiate_action_in(a, keys, env, eval, nodes)?);
    }
    Ok(ProactiveRule {
        of_match,
        actions,
        priority: rule.priority,
        idle_timeout: rule.idle_timeout,
        hard_timeout: rule.hard_timeout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use ofproto::types::MacAddr;
    use std::net::Ipv4Addr;

    #[test]
    fn exact_constraints_by_field_type() {
        let m = constrain_exact(OfMatch::any(), Field::InPort, &Value::Int(4)).unwrap();
        assert_eq!(m.keys.in_port, 4);
        let m = constrain_exact(
            OfMatch::any(),
            Field::DlDst,
            &Value::Mac(MacAddr::from_u64(9)),
        )
        .unwrap();
        assert_eq!(m.keys.dl_dst, MacAddr::from_u64(9));
        assert!(constrain_exact(OfMatch::any(), Field::DlDst, &Value::Int(9)).is_err());
    }

    #[test]
    fn prefix_constraints_only_ipv4_fields() {
        let m = constrain_prefix(
            OfMatch::any(),
            Field::NwSrc,
            &Value::Ip(Ipv4Addr::new(128, 0, 0, 0)),
            1,
        )
        .unwrap();
        assert_eq!(m.wildcards.nw_src_bits(), 31);
        assert!(constrain_prefix(
            OfMatch::any(),
            Field::DlDst,
            &Value::Ip(Ipv4Addr::UNSPECIFIED),
            8
        )
        .is_err());
    }

    #[test]
    fn rule_instantiation_evaluates_expressions() {
        let mut env = Env::new();
        env.set(
            "macToPort",
            map_value([(Value::Mac(MacAddr::from_u64(0xb)), Value::Int(2))]),
        );
        let rule = RuleTemplate::new(
            vec![MatchTemplate::Exact(Field::DlDst, field(Field::DlDst))],
            vec![ActionTemplate::Output(map_get(
                global("macToPort"),
                field(Field::DlDst),
            ))],
        )
        .with_idle_timeout(10);
        let keys = FlowKeys {
            dl_dst: MacAddr::from_u64(0xb),
            ..FlowKeys::default()
        };
        let mut nodes = 0;
        let pr = instantiate_rule(&rule, &keys, &env, &mut nodes).unwrap();
        assert_eq!(pr.of_match.keys.dl_dst, MacAddr::from_u64(0xb));
        assert_eq!(pr.actions, vec![Action::Output(PortNo::Physical(2))]);
        assert_eq!(pr.idle_timeout, 10);
        let fm = pr.to_flow_mod();
        assert_eq!(fm.idle_timeout, 10);
        assert!(nodes > 0);
    }

    #[test]
    fn rule_instantiation_fails_on_missing_mapping() {
        let mut env = Env::new();
        env.set("macToPort", map_value([]));
        let rule = RuleTemplate::new(
            vec![],
            vec![ActionTemplate::Output(map_get(
                global("macToPort"),
                field(Field::DlDst),
            ))],
        );
        let mut nodes = 0;
        assert!(instantiate_rule(&rule, &FlowKeys::default(), &env, &mut nodes).is_err());
    }
}
