//! Runtime conversion of path conditions into proactive flow rules (the
//! paper's Algorithm 2), including the domain-specific constraint solver
//! that stands in for STP.
//!
//! After the application tracker substitutes current global values into a
//! path's conditions, the residual constraints mention only packet fields.
//! The solver normalizes them into atoms (equalities, prefix tests,
//! map/set-membership), enumerates membership atoms over the concrete
//! container contents, checks each candidate assignment for consistency,
//! and instantiates the path's rule template under it.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ofproto::types::MacAddr;
use policy::convert::instantiate_rule;
use policy::expr::mask_ip;
use policy::stmt::{ActionTemplate, Decision, MatchTemplate, RuleTemplate};
use policy::{Env, EvalError, Expr, Field, ProactiveRule, Value};

use ofproto::flow_match::FlowKeys;

use crate::path::{Path, PathConditions};

/// Cap on rules produced per conversion, against enumeration blowups.
pub const MAX_RULES: usize = 65536;

/// A key expression a membership atom enumerates over.
#[derive(Debug, Clone, PartialEq, Eq)]
enum KeyExpr {
    Field(Field),
    Prefix(Field, u32),
    Tuple(Vec<KeyExpr>),
}

fn key_expr(expr: &Expr) -> Option<KeyExpr> {
    match expr {
        Expr::Field(f) => Some(KeyExpr::Field(*f)),
        Expr::Prefix(inner, n) => match &**inner {
            Expr::Field(f) => Some(KeyExpr::Prefix(*f, *n)),
            _ => None,
        },
        Expr::Tuple(items) => items
            .iter()
            .map(key_expr)
            .collect::<Option<Vec<_>>>()
            .map(KeyExpr::Tuple),
        _ => None,
    }
}

/// A normalized constraint atom.
#[derive(Debug, Clone, PartialEq)]
enum Atom {
    True,
    False,
    /// `key == value` (or `!=` when `eq` is false).
    Cmp {
        key: KeyExpr,
        value: Value,
        eq: bool,
    },
    /// `field` lies within `net`/`len`.
    PrefixIs {
        field: Field,
        net: Ipv4Addr,
        len: u32,
    },
    /// `key` takes one of `values` (enumeration source).
    In {
        key: KeyExpr,
        values: Vec<Value>,
    },
    /// `key` takes none of `values`.
    NotIn {
        key: KeyExpr,
        values: Vec<Value>,
    },
    /// Arbitrary residual expression checked by concrete evaluation once
    /// its fields are assigned.
    Opaque {
        expr: Expr,
        polarity: bool,
    },
}

/// Normalizes `(expr, polarity)` to a disjunction of atom conjunctions.
fn atomize(expr: &Expr, polarity: bool) -> Vec<Vec<Atom>> {
    match expr {
        Expr::Const(Value::Bool(b)) => {
            vec![vec![if *b == polarity {
                Atom::True
            } else {
                Atom::False
            }]]
        }
        Expr::Not(inner) => atomize(inner, !polarity),
        Expr::And(a, b) if polarity => conjoin(atomize(a, true), atomize(b, true)),
        Expr::And(a, b) => {
            // !(a && b) == !a || !b
            let mut alts = atomize(a, false);
            alts.extend(atomize(b, false));
            alts
        }
        Expr::Or(a, b) if polarity => {
            let mut alts = atomize(a, true);
            alts.extend(atomize(b, true));
            alts
        }
        Expr::Or(a, b) => conjoin(atomize(a, false), atomize(b, false)),
        Expr::Eq(a, b) => {
            let (key, value) = match (key_expr(a), &**b, key_expr(b), &**a) {
                (Some(k), Expr::Const(v), _, _) => (Some(k), Some(v.clone())),
                (_, _, Some(k), Expr::Const(v)) => (Some(k), Some(v.clone())),
                _ => (None, None),
            };
            match (key, value) {
                // Prefix-key equality with polarity true is a prefix match.
                (Some(KeyExpr::Prefix(field, len)), Some(Value::Ip(net))) if polarity => {
                    vec![vec![Atom::PrefixIs { field, net, len }]]
                }
                (Some(key), Some(value)) => vec![vec![Atom::Cmp {
                    key,
                    value,
                    eq: polarity,
                }]],
                _ => vec![vec![Atom::Opaque {
                    expr: expr.clone(),
                    polarity,
                }]],
            }
        }
        Expr::HighBit(inner) => match &**inner {
            Expr::Field(f) => vec![vec![Atom::PrefixIs {
                field: *f,
                net: if polarity {
                    Ipv4Addr::new(128, 0, 0, 0)
                } else {
                    Ipv4Addr::UNSPECIFIED
                },
                len: 1,
            }]],
            _ => vec![vec![Atom::Opaque {
                expr: expr.clone(),
                polarity,
            }]],
        },
        Expr::IsBroadcast(inner) => match &**inner {
            Expr::Field(f) => vec![vec![Atom::Cmp {
                key: KeyExpr::Field(*f),
                value: Value::Mac(MacAddr::BROADCAST),
                eq: polarity,
            }]],
            _ => vec![vec![Atom::Opaque {
                expr: expr.clone(),
                polarity,
            }]],
        },
        Expr::MapContains { map, key } => membership(map, key, polarity, expr, true),
        Expr::SetContains { set, item } => membership(set, item, polarity, expr, false),
        _ => vec![vec![Atom::Opaque {
            expr: expr.clone(),
            polarity,
        }]],
    }
}

fn membership(
    container: &Expr,
    key: &Expr,
    polarity: bool,
    original: &Expr,
    is_map: bool,
) -> Vec<Vec<Atom>> {
    let values: Option<Vec<Value>> = match container {
        Expr::Const(Value::Map(m)) if is_map => Some(m.keys().cloned().collect()),
        Expr::Const(Value::Set(s)) if !is_map => Some(s.iter().cloned().collect()),
        _ => None,
    };
    match (values, key_expr(key)) {
        (Some(values), Some(key)) => {
            let atom = if polarity {
                Atom::In { key, values }
            } else {
                Atom::NotIn { key, values }
            };
            vec![vec![atom]]
        }
        _ => vec![vec![Atom::Opaque {
            expr: original.clone(),
            polarity,
        }]],
    }
}

fn conjoin(a: Vec<Vec<Atom>>, b: Vec<Vec<Atom>>) -> Vec<Vec<Atom>> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for ca in &a {
        for cb in &b {
            let mut c = ca.clone();
            c.extend(cb.iter().cloned());
            out.push(c);
        }
    }
    out
}

/// A partially solved candidate: exact field assignments plus prefix
/// constraints.
#[derive(Debug, Clone, Default)]
struct Candidate {
    assign: BTreeMap<Field, Value>,
    prefixes: Vec<(Field, Ipv4Addr, u32)>,
    /// Fields whose assignment is a representative network address from a
    /// prefix bind (not an exact constraint): their prefix must still be
    /// carried into the rule match.
    prefix_assigned: std::collections::BTreeSet<Field>,
}

impl Candidate {
    fn bind(&mut self, key: &KeyExpr, value: &Value) -> bool {
        match key {
            KeyExpr::Field(f) => match self.assign.get(f) {
                Some(existing) => existing == value,
                None => {
                    self.assign.insert(*f, value.clone());
                    true
                }
            },
            KeyExpr::Prefix(f, len) => match value {
                Value::Ip(net) => {
                    self.prefixes.push((*f, *net, *len));
                    // Also pin the field to the network address so templates
                    // reading the field (e.g. `prefix24(pt.nw_dst)` in the
                    // route app) evaluate under this enumeration; masked
                    // uses are unaffected by the low bits being zero.
                    match self.assign.get(f) {
                        Some(Value::Ip(existing)) => {
                            mask_ip(*existing, *len) == mask_ip(*net, *len)
                        }
                        Some(_) => false,
                        None => {
                            self.assign.insert(*f, value.clone());
                            self.prefix_assigned.insert(*f);
                            true
                        }
                    }
                }
                _ => false,
            },
            KeyExpr::Tuple(keys) => match value {
                Value::Tuple(values) if values.len() == keys.len() => {
                    keys.iter().zip(values).all(|(k, v)| self.bind(k, v))
                }
                _ => false,
            },
        }
    }

    /// Builds synthetic packet keys from the assignment (defaults elsewhere).
    fn to_keys(&self) -> FlowKeys {
        let mut keys = FlowKeys::default();
        for (field, value) in &self.assign {
            let _ = assign_key(&mut keys, *field, value);
        }
        keys
    }

    fn covers(&self, fields: &[Field]) -> bool {
        fields.iter().all(|f| self.assign.contains_key(f))
    }

    /// Checks prefix constraints against exact assignments and each other.
    fn prefixes_consistent(&self) -> bool {
        for (field, net, len) in &self.prefixes {
            if let Some(v) = self.assign.get(field) {
                match v {
                    Value::Ip(ip) => {
                        if mask_ip(*ip, *len) != mask_ip(*net, *len) {
                            return false;
                        }
                    }
                    _ => return false,
                }
            }
            // Pairwise: overlapping prefixes on the same field must nest.
            for (f2, net2, len2) in &self.prefixes {
                if field == f2 {
                    let common = (*len).min(*len2);
                    if mask_ip(*net, common) != mask_ip(*net2, common) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Prefix entries for fields without exact assignments, longest first.
    fn residual_prefixes(&self) -> Vec<(Field, Ipv4Addr, u32)> {
        let mut best: BTreeMap<Field, (Ipv4Addr, u32)> = BTreeMap::new();
        for (field, net, len) in &self.prefixes {
            if self.assign.contains_key(field) && !self.prefix_assigned.contains(field) {
                continue;
            }
            let entry = best.entry(*field).or_insert((*net, *len));
            if *len > entry.1 {
                *entry = (*net, *len);
            }
        }
        best.into_iter().map(|(f, (n, l))| (f, n, l)).collect()
    }
}

fn assign_key(keys: &mut FlowKeys, field: Field, value: &Value) -> Result<(), EvalError> {
    match field {
        Field::InPort => keys.in_port = value.as_int()? as u16,
        Field::DlSrc => keys.dl_src = value.as_mac()?,
        Field::DlDst => keys.dl_dst = value.as_mac()?,
        Field::DlType => keys.dl_type = value.as_int()? as u16,
        Field::DlVlan => keys.dl_vlan = value.as_int()? as u16,
        Field::NwSrc => keys.nw_src = value.as_ip()?,
        Field::NwDst => keys.nw_dst = value.as_ip()?,
        Field::NwProto => keys.nw_proto = value.as_int()? as u8,
        Field::NwTos => keys.nw_tos = value.as_int()? as u8,
        Field::TpSrc => keys.tp_src = value.as_int()? as u16,
        Field::TpDst => keys.tp_dst = value.as_int()? as u16,
    }
    Ok(())
}

fn template_fields(rule: &RuleTemplate) -> Vec<Field> {
    let mut fields = Vec::new();
    for m in &rule.match_on {
        match m {
            MatchTemplate::Exact(_, e) | MatchTemplate::Prefix(_, e, _) => {
                fields.extend(e.free_fields())
            }
        }
    }
    for a in &rule.actions {
        match a {
            ActionTemplate::Output(e)
            | ActionTemplate::SetNwDst(e)
            | ActionTemplate::SetNwSrc(e)
            | ActionTemplate::SetDlDst(e) => fields.extend(e.free_fields()),
            ActionTemplate::Flood => {}
        }
    }
    fields.sort();
    fields.dedup();
    fields
}

/// Statistics from one conversion run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConversionStats {
    /// Paths examined.
    pub paths_total: usize,
    /// Paths ending in a Modify State Message.
    pub paths_modify_state: usize,
    /// Modify-state paths that yielded at least one rule.
    pub paths_converted: usize,
    /// Modify-state paths skipped (unsupported constraints or unsatisfied).
    pub paths_skipped: usize,
    /// Candidate assignments rejected by consistency checks.
    pub candidates_rejected: usize,
    /// Exploration branches Algorithm 1 abandoned at its path cap (copied
    /// from [`PathConditions::paths_truncated`]); 0 means the path set is
    /// exhaustive.
    pub paths_truncated: usize,
    /// Enumeration items (alternatives, candidate bindings, candidate
    /// instantiations) dropped because [`MAX_RULES`] capped this conversion;
    /// 0 means no rule was lost to the cap.
    pub rules_truncated: usize,
}

impl ConversionStats {
    /// Whether any cap truncated this conversion.
    pub fn truncated(&self) -> bool {
        self.paths_truncated > 0 || self.rules_truncated > 0
    }

    /// Accumulates `other` into `self` (per-app stats into a fleet total).
    pub fn merge(&mut self, other: &ConversionStats) {
        self.paths_total += other.paths_total;
        self.paths_modify_state += other.paths_modify_state;
        self.paths_converted += other.paths_converted;
        self.paths_skipped += other.paths_skipped;
        self.candidates_rejected += other.candidates_rejected;
        self.paths_truncated += other.paths_truncated;
        self.rules_truncated += other.rules_truncated;
    }
}

/// The output of Algorithm 2: proactive flow rules plus statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Conversion {
    /// The generated proactive flow rules, deduplicated.
    pub rules: Vec<ProactiveRule>,
    /// Run statistics.
    pub stats: ConversionStats,
}

/// Converts path conditions to proactive flow rules under the current
/// global-variable values (the paper's Algorithm 2).
pub fn convert_to_rules(pcs: &PathConditions, env: &Env) -> Conversion {
    let mut conversion = Conversion::default();
    conversion.stats.paths_total = pcs.paths.len();
    conversion.stats.paths_truncated = pcs.paths_truncated;
    for path in &pcs.paths {
        if !path.is_modify_state() {
            continue;
        }
        conversion.stats.paths_modify_state += 1;
        match convert_path(path, env, &mut conversion) {
            Ok(n) if n > 0 => conversion.stats.paths_converted += 1,
            Ok(_) => conversion.stats.paths_skipped += 1,
            Err(_) => conversion.stats.paths_skipped += 1,
        }
    }
    // Deduplicate while keeping order.
    let mut seen = Vec::new();
    conversion.rules.retain(|r| {
        if seen.contains(r) {
            false
        } else {
            seen.push(r.clone());
            true
        }
    });
    conversion
}

fn convert_path(path: &Path, env: &Env, out: &mut Conversion) -> Result<usize, EvalError> {
    let Some(Decision::InstallRule(template)) = &path.decision else {
        return Ok(0);
    };
    // Substitute current globals into the template's expressions.
    let template = substitute_template(template, env)?;
    // Substitute and normalize the path constraints.
    let mut alternatives: Vec<Vec<Atom>> = vec![Vec::new()];
    for constraint in &path.constraints {
        let residual = constraint.expr.substitute(env)?;
        let atomized = atomize(&residual, constraint.polarity);
        alternatives = conjoin(alternatives, atomized);
        if alternatives.len() > MAX_RULES {
            out.stats.rules_truncated += alternatives.len() - MAX_RULES;
            alternatives.truncate(MAX_RULES);
        }
    }
    let needed = template_fields(&template);
    let mut produced = 0;
    for atoms in &alternatives {
        produced += solve_conjunction(atoms, &template, &needed, env, out)?;
    }
    Ok(produced)
}

fn substitute_template(rule: &RuleTemplate, env: &Env) -> Result<RuleTemplate, EvalError> {
    let mut out = rule.clone();
    for m in &mut out.match_on {
        match m {
            MatchTemplate::Exact(_, e) | MatchTemplate::Prefix(_, e, _) => {
                *e = e.substitute(env)?;
            }
        }
    }
    for a in &mut out.actions {
        match a {
            ActionTemplate::Output(e)
            | ActionTemplate::SetNwDst(e)
            | ActionTemplate::SetNwSrc(e)
            | ActionTemplate::SetDlDst(e) => *e = e.substitute(env)?,
            ActionTemplate::Flood => {}
        }
    }
    Ok(out)
}

fn solve_conjunction(
    atoms: &[Atom],
    template: &RuleTemplate,
    needed_fields: &[Field],
    env: &Env,
    out: &mut Conversion,
) -> Result<usize, EvalError> {
    let mut base = Candidate::default();
    let mut enumerations: Vec<(&KeyExpr, &Vec<Value>)> = Vec::new();
    let mut negatives: Vec<&Atom> = Vec::new();
    for atom in atoms {
        match atom {
            Atom::True => {}
            Atom::False => return Ok(0),
            Atom::Cmp {
                key,
                value,
                eq: true,
            } => {
                if !base.bind(key, value) {
                    return Ok(0);
                }
            }
            Atom::Cmp { eq: false, .. } => negatives.push(atom),
            Atom::PrefixIs { field, net, len } => {
                // bind() records the prefix and pins the field to the
                // network address, so templates reading the field stay
                // instantiable (sound: the network address satisfies the
                // prefix constraint).
                if !base.bind(&KeyExpr::Prefix(*field, *len), &Value::Ip(*net)) {
                    return Ok(0);
                }
            }
            Atom::In { key, values } => enumerations.push((key, values)),
            Atom::NotIn { .. } | Atom::Opaque { .. } => negatives.push(atom),
        }
    }
    // Cartesian enumeration over membership atoms.
    let mut candidates = vec![base];
    for (key, values) in enumerations {
        let mut next = Vec::new();
        for candidate in &candidates {
            for (vi, value) in values.iter().enumerate() {
                let mut c = candidate.clone();
                if c.bind(key, value) {
                    next.push(c);
                }
                if next.len() > MAX_RULES {
                    out.stats.rules_truncated += values.len() - vi - 1;
                    break;
                }
            }
        }
        candidates = next;
    }
    let mut produced = 0;
    let candidate_total = candidates.len();
    'candidates: for (ci, candidate) in candidates.into_iter().enumerate() {
        if out.rules.len() >= MAX_RULES {
            out.stats.rules_truncated += candidate_total - ci;
            break;
        }
        if !candidate.prefixes_consistent() {
            out.stats.candidates_rejected += 1;
            continue;
        }
        let keys = candidate.to_keys();
        // Check negative/opaque constraints whose fields are all assigned.
        for atom in &negatives {
            match atom {
                // Unassigned fields with a disequality: the rule the
                // application would install matches on its template fields
                // only, so the disequality cannot over-select — accept,
                // mirroring the reactive behaviour.
                Atom::Cmp {
                    key: KeyExpr::Field(f),
                    value,
                    ..
                } if candidate.assign.get(f) == Some(value) => {
                    out.stats.candidates_rejected += 1;
                    continue 'candidates;
                }
                Atom::NotIn {
                    key: KeyExpr::Field(f),
                    values,
                } => {
                    if let Some(v) = candidate.assign.get(f) {
                        if values.contains(v) {
                            out.stats.candidates_rejected += 1;
                            continue 'candidates;
                        }
                    }
                }
                Atom::Opaque { expr, polarity } => {
                    let free = expr.free_fields();
                    if candidate.covers(&free) {
                        let mut nodes = 0;
                        match expr.eval_ref(&keys, env, &mut nodes).as_deref() {
                            Ok(Value::Bool(b)) if b == polarity => {}
                            Ok(_) => {
                                out.stats.candidates_rejected += 1;
                                continue 'candidates;
                            }
                            Err(_) => {
                                out.stats.candidates_rejected += 1;
                                continue 'candidates;
                            }
                        }
                    } else {
                        // Cannot discharge the constraint proactively.
                        out.stats.candidates_rejected += 1;
                        continue 'candidates;
                    }
                }
                _ => {}
            }
        }
        // The template's expressions must be fully determined.
        if !candidate.covers(needed_fields) {
            out.stats.candidates_rejected += 1;
            continue;
        }
        let mut nodes = 0;
        match instantiate_rule(template, &keys, env, &mut nodes) {
            Ok(mut rule) => {
                // Carry residual prefix constraints into the match when the
                // template did not already constrain those fields.
                for (field, net, len) in candidate.residual_prefixes() {
                    match field {
                        Field::NwSrc if rule.of_match.wildcards.nw_src_bits() >= 32 => {
                            rule.of_match = rule.of_match.with_nw_src_prefix(net, len);
                        }
                        Field::NwDst if rule.of_match.wildcards.nw_dst_bits() >= 32 => {
                            rule.of_match = rule.of_match.with_nw_dst_prefix(net, len);
                        }
                        _ => {}
                    }
                }
                out.rules.push(rule);
                produced += 1;
            }
            Err(_) => {
                out.stats.candidates_rejected += 1;
            }
        }
    }
    Ok(produced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::generate_path_conditions;
    use ofproto::actions::Action;
    use ofproto::types::PortNo;
    use policy::builder::*;
    use policy::program::GlobalSpec;
    use policy::Program;

    fn l2_program() -> Program {
        Program::new(
            "l2_learning",
            vec![GlobalSpec {
                name: "macToPort".into(),
                initial: Value::Map(Default::default()),
                state_sensitive: true,
                description: "MAC-port mapping".into(),
            }],
            vec![
                learn("macToPort", field(Field::DlSrc), field(Field::InPort)),
                if_else(
                    is_broadcast(field(Field::DlDst)),
                    vec![emit(Decision::PacketOutFlood)],
                    vec![if_else(
                        not(map_contains(global("macToPort"), field(Field::DlDst))),
                        vec![emit(Decision::PacketOutFlood)],
                        vec![emit(Decision::InstallRule(RuleTemplate::new(
                            vec![MatchTemplate::Exact(Field::DlDst, field(Field::DlDst))],
                            vec![ActionTemplate::Output(map_get(
                                global("macToPort"),
                                field(Field::DlDst),
                            ))],
                        )))],
                    )],
                ),
            ],
        )
    }

    #[test]
    fn l2_paper_example_generates_one_rule_per_learned_mac() {
        // Paper §IV-B: macToPort = {0x00000000000A: 01} yields exactly the
        // rule mac_dst=..0A -> output:01.
        let pcs = generate_path_conditions(&l2_program());
        let mut env = Env::new();
        env.set(
            "macToPort",
            map_value([(Value::Mac(MacAddr::from_u64(0x0a)), Value::Int(1))]),
        );
        let conv = convert_to_rules(&pcs, &env);
        assert_eq!(conv.rules.len(), 1);
        let rule = &conv.rules[0];
        assert_eq!(rule.of_match.keys.dl_dst, MacAddr::from_u64(0x0a));
        assert_eq!(rule.actions, vec![Action::Output(PortNo::Physical(1))]);
        assert_eq!(conv.stats.paths_modify_state, 1);
        assert_eq!(conv.stats.paths_converted, 1);
    }

    #[test]
    fn l2_scales_with_learned_state() {
        let pcs = generate_path_conditions(&l2_program());
        let mut env = Env::new();
        let entries: Vec<(Value, Value)> = (0..50)
            .map(|i| (Value::Mac(MacAddr::from_u64(i + 1)), Value::Int(i % 4 + 1)))
            .collect();
        env.set("macToPort", map_value(entries));
        let conv = convert_to_rules(&pcs, &env);
        assert_eq!(conv.rules.len(), 50, "one proactive rule per learned MAC");
        // The broadcast MAC is not in the table, so no rule targets it.
        assert!(conv
            .rules
            .iter()
            .all(|r| r.of_match.keys.dl_dst != MacAddr::BROADCAST));
    }

    #[test]
    fn empty_state_yields_no_rules() {
        // Initial macToPort is empty: the third branch is unreachable, which
        // is exactly why plain offline symbolic execution loses it (paper
        // §IV-B) — at runtime with empty state there are no rules yet.
        let pcs = generate_path_conditions(&l2_program());
        let env = l2_program().initial_env();
        let conv = convert_to_rules(&pcs, &env);
        assert!(conv.rules.is_empty());
        assert_eq!(conv.stats.paths_skipped, 1);
    }

    #[test]
    fn high_bit_split_becomes_prefix_rules() {
        // ip_balancer-style: split on the top bit of nw_src.
        let program = Program::new(
            "balancer",
            vec![],
            vec![if_else(
                high_bit(field(Field::NwSrc)),
                vec![emit(Decision::InstallRule(RuleTemplate::new(
                    vec![MatchTemplate::Exact(Field::NwDst, global("vip"))],
                    vec![ActionTemplate::SetNwDst(global("replica_a"))],
                )))],
                vec![emit(Decision::InstallRule(RuleTemplate::new(
                    vec![MatchTemplate::Exact(Field::NwDst, global("vip"))],
                    vec![ActionTemplate::SetNwDst(global("replica_b"))],
                )))],
            )],
        );
        let pcs = generate_path_conditions(&program);
        let mut env = Env::new();
        env.set("vip", Value::Ip(Ipv4Addr::new(100, 0, 0, 100)));
        env.set("replica_a", Value::Ip(Ipv4Addr::new(192, 168, 0, 1)));
        env.set("replica_b", Value::Ip(Ipv4Addr::new(192, 168, 0, 2)));
        let conv = convert_to_rules(&pcs, &env);
        assert_eq!(conv.rules.len(), 2);
        // Each rule carries the /1 source prefix from the path condition.
        for rule in &conv.rules {
            assert_eq!(rule.of_match.wildcards.nw_src_bits(), 31, "{rule:?}");
            assert_eq!(rule.of_match.keys.nw_dst, Ipv4Addr::new(100, 0, 0, 100));
        }
        let nets: Vec<Ipv4Addr> = conv.rules.iter().map(|r| r.of_match.keys.nw_src).collect();
        assert!(nets.contains(&Ipv4Addr::new(128, 0, 0, 0)));
        assert!(nets.contains(&Ipv4Addr::UNSPECIFIED));
    }

    #[test]
    fn set_membership_enumerates_blocked_macs() {
        // mac_blocker-style: drop rules for each blocked MAC.
        let program = Program::new(
            "blocker",
            vec![],
            vec![if_else(
                set_contains(global("blocked"), field(Field::DlSrc)),
                vec![emit(Decision::InstallRule(RuleTemplate::new(
                    vec![MatchTemplate::Exact(Field::DlSrc, field(Field::DlSrc))],
                    vec![],
                )))],
                vec![emit(Decision::PacketOutFlood)],
            )],
        );
        let pcs = generate_path_conditions(&program);
        let mut env = Env::new();
        env.set(
            "blocked",
            set_value([
                Value::Mac(MacAddr::from_u64(0xbad1)),
                Value::Mac(MacAddr::from_u64(0xbad2)),
            ]),
        );
        let conv = convert_to_rules(&pcs, &env);
        assert_eq!(conv.rules.len(), 2);
        assert!(
            conv.rules.iter().all(|r| r.actions.is_empty()),
            "drop rules"
        );
    }

    #[test]
    fn tuple_keys_enumerate_pairs() {
        // of_firewall-style: blocked (src, dst) pairs.
        let program = Program::new(
            "fw",
            vec![],
            vec![if_else(
                set_contains(
                    global("blocked_pairs"),
                    tuple([field(Field::NwSrc), field(Field::NwDst)]),
                ),
                vec![emit(Decision::InstallRule(RuleTemplate::new(
                    vec![
                        MatchTemplate::Exact(Field::NwSrc, field(Field::NwSrc)),
                        MatchTemplate::Exact(Field::NwDst, field(Field::NwDst)),
                    ],
                    vec![],
                )))],
                vec![emit(Decision::PacketOutFlood)],
            )],
        );
        let pcs = generate_path_conditions(&program);
        let mut env = Env::new();
        env.set(
            "blocked_pairs",
            set_value([
                Value::Tuple(vec![
                    Value::Ip(Ipv4Addr::new(1, 1, 1, 1)),
                    Value::Ip(Ipv4Addr::new(2, 2, 2, 2)),
                ]),
                Value::Tuple(vec![
                    Value::Ip(Ipv4Addr::new(3, 3, 3, 3)),
                    Value::Ip(Ipv4Addr::new(4, 4, 4, 4)),
                ]),
            ]),
        );
        let conv = convert_to_rules(&pcs, &env);
        assert_eq!(conv.rules.len(), 2);
        assert!(conv
            .rules
            .iter()
            .any(|r| r.of_match.keys.nw_src == Ipv4Addr::new(1, 1, 1, 1)
                && r.of_match.keys.nw_dst == Ipv4Addr::new(2, 2, 2, 2)));
    }

    #[test]
    fn prefix_keyed_map_enumerates_networks() {
        // route-style: a routing table keyed on /24 networks.
        let program = Program::new(
            "router",
            vec![],
            vec![if_then(
                map_contains(global("routes"), prefix(field(Field::NwDst), 24)),
                vec![emit(Decision::InstallRule(RuleTemplate::new(
                    vec![MatchTemplate::Prefix(
                        Field::NwDst,
                        prefix(field(Field::NwDst), 24),
                        24,
                    )],
                    vec![ActionTemplate::Output(map_get(
                        global("routes"),
                        prefix(field(Field::NwDst), 24),
                    ))],
                )))],
            )],
        );
        let pcs = generate_path_conditions(&program);
        let mut env = Env::new();
        env.set(
            "routes",
            map_value([
                (Value::Ip(Ipv4Addr::new(10, 1, 2, 0)), Value::Int(3)),
                (Value::Ip(Ipv4Addr::new(10, 9, 9, 0)), Value::Int(4)),
            ]),
        );
        let conv = convert_to_rules(&pcs, &env);
        assert_eq!(conv.rules.len(), 2);
        for rule in &conv.rules {
            assert_eq!(rule.of_match.wildcards.nw_dst_bits(), 8, "/24 match");
        }
        assert!(conv
            .rules
            .iter()
            .any(|r| r.of_match.keys.nw_dst == Ipv4Addr::new(10, 1, 2, 0)
                && r.actions == vec![Action::Output(PortNo::Physical(3))]));
    }

    #[test]
    fn contradictory_constants_unsat() {
        let program = Program::new(
            "dead",
            vec![],
            vec![if_else(
                eq(constant(1u64), constant(2u64)),
                vec![emit(Decision::InstallRule(RuleTemplate::new(
                    vec![],
                    vec![],
                )))],
                vec![emit(Decision::Drop)],
            )],
        );
        let pcs = generate_path_conditions(&program);
        let conv = convert_to_rules(&pcs, &Env::new());
        assert!(conv.rules.is_empty());
    }

    #[test]
    fn conflicting_equalities_unsat() {
        let program = Program::new(
            "conflict",
            vec![],
            vec![if_then(
                and(
                    eq(field(Field::TpDst), constant(80u64)),
                    eq(field(Field::TpDst), constant(443u64)),
                ),
                vec![emit(Decision::InstallRule(RuleTemplate::new(
                    vec![MatchTemplate::Exact(Field::TpDst, field(Field::TpDst))],
                    vec![ActionTemplate::Flood],
                )))],
            )],
        );
        let pcs = generate_path_conditions(&program);
        let conv = convert_to_rules(&pcs, &Env::new());
        assert!(conv.rules.is_empty());
    }

    #[test]
    fn rules_deduplicated() {
        // Two alternative paths can produce identical rules via Or.
        let program = Program::new(
            "dup",
            vec![],
            vec![if_then(
                or(
                    eq(field(Field::DlType), constant(0x0806u64)),
                    eq(field(Field::DlType), constant(0x0806u64)),
                ),
                vec![emit(Decision::InstallRule(RuleTemplate::new(
                    vec![MatchTemplate::Exact(Field::DlType, field(Field::DlType))],
                    vec![ActionTemplate::Flood],
                )))],
            )],
        );
        let pcs = generate_path_conditions(&program);
        let conv = convert_to_rules(&pcs, &Env::new());
        assert_eq!(conv.rules.len(), 1);
    }

    #[test]
    fn negative_membership_rejects_enumerated_value() {
        // in set A but not in set B.
        let program = Program::new(
            "diff",
            vec![],
            vec![if_then(
                and(
                    set_contains(global("a"), field(Field::TpDst)),
                    not(set_contains(global("b"), field(Field::TpDst))),
                ),
                vec![emit(Decision::InstallRule(RuleTemplate::new(
                    vec![MatchTemplate::Exact(Field::TpDst, field(Field::TpDst))],
                    vec![ActionTemplate::Flood],
                )))],
            )],
        );
        let pcs = generate_path_conditions(&program);
        let mut env = Env::new();
        env.set(
            "a",
            set_value([Value::Int(1), Value::Int(2), Value::Int(3)]),
        );
        env.set("b", set_value([Value::Int(2)]));
        let conv = convert_to_rules(&pcs, &env);
        assert_eq!(conv.rules.len(), 2);
        assert!(!conv.rules.iter().any(|r| r.of_match.keys.tp_dst == 2));
        assert!(conv.stats.candidates_rejected >= 1);
    }
}
