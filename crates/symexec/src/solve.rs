//! Runtime conversion of path conditions into proactive flow rules (the
//! paper's Algorithm 2), including the domain-specific constraint solver
//! that stands in for STP.
//!
//! After the application tracker substitutes current global values into a
//! path's conditions, the residual constraints mention only packet fields
//! and the tables they are looked up in. The solver normalizes them into
//! atoms (equalities, prefix tests, map/set-membership), enumerates
//! membership atoms over the tables' contents, checks each candidate
//! assignment for consistency, and instantiates the path's rule template
//! under it.
//!
//! Tables are borrowed from the environment, never copied, and a path that
//! does nothing with a table but enumerate its keys and look the
//! enumerated key up (`PathRules::Keyed`) can be converted for a chosen
//! set of keys: `convert_path` with `Only` is the same routine as a full
//! conversion, ranging over fewer values. [`KeyedConversion`] is what the
//! crate offers of it.

use std::collections::{btree_map, btree_set, BTreeMap, BTreeSet, HashSet};
use std::net::Ipv4Addr;

use ofproto::types::MacAddr;
use policy::convert::instantiate_rule;
use policy::expr::mask_ip;
use policy::stmt::{Decision, RuleTemplate};
use policy::{Env, EvalError, Expr, Field, ProactiveRule, Value};

use ofproto::flow_match::FlowKeys;

use crate::keyed::KeyedConversion;
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

/// The table a membership atom ranges over: a global's current value in
/// the environment, or a constant of the residual expression.
#[derive(Debug, Clone, Copy)]
enum Table<'a> {
    Map(&'a BTreeMap<Value, Value>),
    Set(&'a BTreeSet<Value>),
}

impl<'a> Table<'a> {
    fn contains(self, value: &Value) -> bool {
        match self {
            Table::Map(m) => m.contains_key(value),
            Table::Set(s) => s.contains(value),
        }
    }

    fn len(self) -> usize {
        match self {
            Table::Map(m) => m.len(),
            Table::Set(s) => s.len(),
        }
    }

    /// The enumeration source: keys of a map, items of a set, ascending.
    fn keys(self) -> TableKeys<'a> {
        match self {
            Table::Map(m) => TableKeys::Map(m.keys()),
            Table::Set(s) => TableKeys::Set(s.iter()),
        }
    }
}

enum TableKeys<'a> {
    Map(btree_map::Keys<'a, Value, Value>),
    Set(btree_set::Iter<'a, Value>),
}

impl<'a> Iterator for TableKeys<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        match self {
            TableKeys::Map(keys) => keys.next(),
            TableKeys::Set(items) => items.next(),
        }
    }
}

/// A normalized constraint atom, borrowing from the residual expressions
/// and the environment they were substituted under.
#[derive(Debug, Clone)]
enum Atom<'a> {
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
    /// `key` takes one of the table's keys (enumeration source); `global`
    /// names the table when it is a global's value.
    In {
        key: KeyExpr,
        table: Table<'a>,
        global: Option<&'a str>,
    },
    /// `key` takes none of the table's keys.
    NotIn {
        key: KeyExpr,
        table: Table<'a>,
    },
    /// Arbitrary residual expression checked by concrete evaluation once
    /// its fields are assigned.
    Opaque {
        expr: &'a Expr,
        polarity: bool,
    },
}

/// Normalizes `(expr, polarity)` to a disjunction of atom conjunctions.
fn atomize<'a>(expr: &'a Expr, polarity: bool, env: &'a Env) -> Vec<Vec<Atom<'a>>> {
    let opaque = || vec![vec![Atom::Opaque { expr, polarity }]];
    match expr {
        Expr::Const(Value::Bool(b)) => {
            vec![vec![if *b == polarity {
                Atom::True
            } else {
                Atom::False
            }]]
        }
        Expr::Not(inner) => atomize(inner, !polarity, env),
        Expr::And(a, b) if polarity => conjoin(atomize(a, true, env), atomize(b, true, env)),
        Expr::And(a, b) => {
            // !(a && b) == !a || !b
            let mut alts = atomize(a, false, env);
            alts.extend(atomize(b, false, env));
            alts
        }
        Expr::Or(a, b) if polarity => {
            let mut alts = atomize(a, true, env);
            alts.extend(atomize(b, true, env));
            alts
        }
        Expr::Or(a, b) => conjoin(atomize(a, false, env), atomize(b, false, env)),
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
                _ => opaque(),
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
            _ => opaque(),
        },
        Expr::IsBroadcast(inner) => match &**inner {
            Expr::Field(f) => vec![vec![Atom::Cmp {
                key: KeyExpr::Field(*f),
                value: Value::Mac(MacAddr::BROADCAST),
                eq: polarity,
            }]],
            _ => opaque(),
        },
        Expr::MapContains { map, key } => match (table(map, env), key_expr(key)) {
            (Some((table @ Table::Map(_), global)), Some(key)) => {
                vec![vec![membership(key, table, global, polarity)]]
            }
            _ => opaque(),
        },
        Expr::SetContains { set, item } => match (table(set, env), key_expr(item)) {
            (Some((table @ Table::Set(_), global)), Some(key)) => {
                vec![vec![membership(key, table, global, polarity)]]
            }
            _ => opaque(),
        },
        _ => opaque(),
    }
}

/// The table a residual container expression denotes, and the global it is
/// the value of: [`Expr::substitute`] leaves a table-valued global as a
/// read of `env`.
fn table<'a>(container: &'a Expr, env: &'a Env) -> Option<(Table<'a>, Option<&'a str>)> {
    let (value, global) = match container {
        Expr::Const(value) => (value, None),
        Expr::Global(name) => (env.get(name)?, Some(name.as_str())),
        _ => return None,
    };
    match value {
        Value::Map(m) => Some((Table::Map(m), global)),
        Value::Set(s) => Some((Table::Set(s), global)),
        _ => None,
    }
}

fn membership<'a>(
    key: KeyExpr,
    table: Table<'a>,
    global: Option<&'a str>,
    polarity: bool,
) -> Atom<'a> {
    if polarity {
        Atom::In { key, table, global }
    } else {
        Atom::NotIn { key, table }
    }
}

fn conjoin<'a>(a: Vec<Vec<Atom<'a>>>, b: Vec<Vec<Atom<'a>>>) -> Vec<Vec<Atom<'a>>> {
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
/// constraints. Indexed by field, so that copying one for each enumerated
/// value allocates nothing while it carries no prefix.
#[derive(Debug, Clone, Default)]
struct Candidate {
    assign: [Option<Value>; Field::ALL.len()],
    prefixes: Vec<(Field, Ipv4Addr, u32)>,
    /// Bit `f` set: field `f`'s assignment is a representative network
    /// address from a prefix bind (not an exact constraint), so its prefix
    /// must still be carried into the rule match.
    prefix_assigned: u16,
}

impl Candidate {
    fn get(&self, field: Field) -> Option<&Value> {
        self.assign[field as usize].as_ref()
    }

    fn bind(&mut self, key: &KeyExpr, value: &Value) -> bool {
        match key {
            KeyExpr::Field(f) => match self.get(*f) {
                Some(existing) => existing == value,
                None => {
                    self.assign[*f as usize] = Some(value.clone());
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
                    match self.get(*f) {
                        Some(Value::Ip(existing)) => {
                            mask_ip(*existing, *len) == mask_ip(*net, *len)
                        }
                        Some(_) => false,
                        None => {
                            self.assign[*f as usize] = Some(value.clone());
                            self.prefix_assigned |= 1 << *f as usize;
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
        for (field, value) in Field::ALL.iter().zip(&self.assign) {
            if let Some(value) = value {
                let _ = assign_key(&mut keys, *field, value);
            }
        }
        keys
    }

    fn covers(&self, fields: &[Field]) -> bool {
        fields.iter().all(|f| self.get(*f).is_some())
    }

    /// Checks prefix constraints against exact assignments and each other.
    fn prefixes_consistent(&self) -> bool {
        for (field, net, len) in &self.prefixes {
            if let Some(v) = self.get(*field) {
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
            if self.get(*field).is_some() && self.prefix_assigned & (1 << *field as usize) == 0 {
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
    let mut fields: Vec<Field> = rule.exprs().flat_map(Expr::free_fields).collect();
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
    /// The statistics of a conversion of `pcs` before any of its
    /// modify-state paths is accounted with [`ConversionStats::add_path`].
    pub(crate) fn of(pcs: &PathConditions) -> ConversionStats {
        ConversionStats {
            paths_total: pcs.paths.len(),
            paths_truncated: pcs.paths_truncated,
            ..ConversionStats::default()
        }
    }

    /// Accounts one modify-state path: the rules it yielded, the
    /// candidates it rejected and the enumeration items the cap dropped.
    pub(crate) fn add_path(&mut self, rules: usize, rejected: usize, truncated: usize) {
        self.paths_modify_state += 1;
        if rules > 0 {
            self.paths_converted += 1;
        } else {
            self.paths_skipped += 1;
        }
        self.candidates_rejected += rejected;
        self.rules_truncated += truncated;
    }

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
    let converted = KeyedConversion::convert(pcs, env);
    Conversion {
        stats: *converted.stats(),
        rules: converted.into_rules(),
    }
}

/// Drops every rule equal to an earlier one, keeping order.
pub(crate) fn dedupe(rules: &mut Vec<ProactiveRule>) {
    let first: Vec<bool> = {
        let mut seen = HashSet::with_capacity(rules.len());
        rules.iter().map(|r| seen.insert(r)).collect()
    };
    let mut first = first.into_iter();
    rules.retain(|_| first.next().expect("one flag per rule"));
}

/// The rules one modify-state path converts to.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PathRules {
    /// Rules in the order the solver produced them, and how many
    /// candidates it rejected on the way.
    Flat {
        rules: Vec<ProactiveRule>,
        rejected: usize,
    },
    /// The path is **delta-safe** for the table `global`: it reads it
    /// nowhere but as the container of its one enumerated membership test
    /// and, in the rule template, as a lookup of that same key. Each key
    /// of the table is then one candidate whose outcome depends on no
    /// other key, in ascending key order — so after a write to one key,
    /// converting that key again ([`Only`]) gives what a full conversion
    /// would give for it.
    Keyed {
        /// The enumerated table.
        global: String,
        /// Per key that binds: the candidate's rule, `None` when rejected.
        by_key: BTreeMap<Value, Option<ProactiveRule>>,
        /// Entries of `by_key` holding a rule.
        rules: usize,
    },
}

impl PathRules {
    const NONE: PathRules = PathRules::Flat {
        rules: Vec::new(),
        rejected: 0,
    };

    /// How many rules.
    pub(crate) fn len(&self) -> usize {
        match self {
            PathRules::Flat { rules, .. } => rules.len(),
            PathRules::Keyed { rules, .. } => *rules,
        }
    }

    /// How many candidates were rejected.
    pub(crate) fn rejected(&self) -> usize {
        match self {
            PathRules::Flat { rejected, .. } => *rejected,
            PathRules::Keyed { by_key, rules, .. } => by_key.len() - rules,
        }
    }

    /// Visits the rules in production order.
    pub(crate) fn for_each<'a>(&'a self, mut f: impl FnMut(&'a ProactiveRule)) {
        match self {
            PathRules::Flat { rules, .. } => rules.iter().for_each(f),
            PathRules::Keyed { by_key, .. } => by_key.values().flatten().for_each(&mut f),
        }
    }

    /// Records what `key`'s candidate of a [`PathRules::Keyed`] path now
    /// comes to: a rule, a rejection (`Some(None)`), or — the key no longer
    /// binds — nothing.
    pub(crate) fn write(&mut self, key: Value, outcome: Option<Option<ProactiveRule>>) {
        let PathRules::Keyed { by_key, rules, .. } = self else {
            unreachable!("only a keyed path is written key by key");
        };
        *rules += usize::from(matches!(outcome, Some(Some(_))));
        let old = match outcome {
            Some(outcome) => by_key.insert(key, outcome),
            None => by_key.remove(&key),
        };
        *rules -= usize::from(matches!(old, Some(Some(_))));
    }

    /// The rules, in production order.
    pub(crate) fn into_rules(self) -> Vec<ProactiveRule> {
        match self {
            PathRules::Flat { rules, .. } => rules,
            PathRules::Keyed { by_key, .. } => by_key.into_values().flatten().collect(),
        }
    }
}

/// One converted path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PathConversion {
    pub(crate) rules: PathRules,
    /// Enumeration items [`MAX_RULES`] dropped.
    pub(crate) truncated: usize,
}

/// Restricts a conversion to some keys of one table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Only<'a> {
    /// The table, by the name of the global holding it.
    pub(crate) global: &'a str,
    /// The keys to enumerate, ascending and distinct; those the table does
    /// not hold are passed over.
    pub(crate) keys: &'a [Value],
}

/// Converts one modify-state path under `env`, producing at most `room`
/// rules (and taking what it produces off `room`, the budget a whole
/// application shares).
///
/// With `only`, a path that is [`PathRules::Keyed`] by `only.global`
/// enumerates `only.keys` where it would enumerate the whole table; any
/// other path is converted in full, and the variant returned says which
/// happened. A path that cannot be converted — it reads a global `env`
/// lacks, or folds to a type error — yields no rule.
pub(crate) fn convert_path(
    path: &Path,
    env: &Env,
    only: Option<Only<'_>>,
    room: &mut usize,
) -> PathConversion {
    let mut truncated = 0;
    let rules = solve_path(path, env, only, room, &mut truncated).unwrap_or(PathRules::NONE);
    PathConversion { rules, truncated }
}

fn solve_path(
    path: &Path,
    env: &Env,
    only: Option<Only<'_>>,
    room: &mut usize,
    truncated: &mut usize,
) -> Result<PathRules, EvalError> {
    let Some(Decision::InstallRule(template)) = &path.decision else {
        return Ok(PathRules::NONE);
    };
    // The template is instantiated against `env` itself; substituting it
    // serves to find out now whether that can work at all.
    for expr in template.exprs() {
        expr.substitute(env)?;
    }
    // Substitute and normalize the path constraints.
    let residuals = path
        .constraints
        .iter()
        .map(|c| c.expr.substitute(env))
        .collect::<Result<Vec<_>, _>>()?;
    let mut alternatives: Vec<Vec<Atom>> = vec![Vec::new()];
    for (constraint, residual) in path.constraints.iter().zip(&residuals) {
        let atomized = atomize(residual, constraint.polarity, env);
        alternatives = conjoin(alternatives, atomized);
        if alternatives.len() > MAX_RULES {
            *truncated += alternatives.len() - MAX_RULES;
            alternatives.truncate(MAX_RULES);
        }
    }
    let needed = template_fields(template);
    if let Some(global) = keyed_by(path, template, &alternatives) {
        let only = only.filter(|o| o.global == global).map(|o| o.keys);
        let candidates = match only {
            Some(keys) => keys.len(),
            None => env.get(global).map_or(0, Value::container_len),
        };
        let mut by_key = Vec::with_capacity(candidates);
        solve_conjunction(
            &alternatives[0],
            template,
            &needed,
            env,
            only,
            room,
            truncated,
            &mut |key, rule| by_key.push((key.expect("one enumeration").clone(), rule)),
        );
        return Ok(PathRules::Keyed {
            global: global.to_owned(),
            rules: by_key.iter().filter(|(_, rule)| rule.is_some()).count(),
            // Ascending already: built in one pass, not key by key.
            by_key: by_key.into_iter().collect(),
        });
    }
    let (mut rules, mut rejected) = (Vec::new(), 0);
    for atoms in &alternatives {
        solve_conjunction(
            atoms,
            template,
            &needed,
            env,
            None,
            room,
            truncated,
            &mut |_, rule| match rule {
                Some(rule) => rules.push(rule),
                None => rejected += 1,
            },
        );
    }
    Ok(PathRules::Flat { rules, rejected })
}

/// The table `path` is delta-safe for (see [`PathRules::Keyed`]), if any:
/// its constraints come to one conjunction with one enumeration, over the
/// keys of a global that the path reads nowhere else but as lookups of the
/// enumerated key in `template`.
fn keyed_by<'a>(
    path: &Path,
    template: &RuleTemplate,
    alternatives: &[Vec<Atom<'a>>],
) -> Option<&'a str> {
    let [atoms] = alternatives else { return None };
    let mut enumerated = atoms.iter().filter_map(|a| match a {
        Atom::In { global, .. } => Some(*global),
        _ => None,
    });
    let (Some(Some(global)), None) = (enumerated.next(), enumerated.next()) else {
        return None;
    };
    // One read among the constraints: the enumerated membership test.
    let mut reads = path
        .constraints
        .iter()
        .flat_map(|c| reads_of(&c.expr, global));
    let (Some(Read::Membership(key)), None) = (reads.next(), reads.next()) else {
        return None;
    };
    template
        .exprs()
        .flat_map(|e| reads_of(e, global))
        .all(|read| read == Read::Lookup(key))
        .then_some(global)
}

/// Whether converting `path` reads `global`, in a constraint or in the rule
/// template the path ends in.
pub(crate) fn path_reads(path: &Path, global: &str) -> bool {
    let template = match &path.decision {
        Some(Decision::InstallRule(template)) => Some(template),
        _ => None,
    };
    path.constraints
        .iter()
        .map(|c| &c.expr)
        .chain(template.into_iter().flat_map(RuleTemplate::exprs))
        .any(|expr| !reads_of(expr, global).is_empty())
}

/// One read of a global in an expression.
#[derive(Debug, PartialEq)]
enum Read<'a> {
    /// `key in global`.
    Membership(&'a Expr),
    /// `global[key]`.
    Lookup(&'a Expr),
    /// Anything else.
    Other,
}

/// Every read of `global` in `expr`.
fn reads_of<'a>(expr: &'a Expr, global: &str) -> Vec<Read<'a>> {
    fn walk<'a>(expr: &'a Expr, global: &str, out: &mut Vec<Read<'a>>) {
        let is_global = |e: &Expr| matches!(e, Expr::Global(name) if name == global);
        match expr {
            Expr::Const(_) | Expr::Field(_) => {}
            Expr::Global(_) => {
                if is_global(expr) {
                    out.push(Read::Other);
                }
            }
            Expr::MapContains { map, key } if is_global(map) => {
                out.push(Read::Membership(key));
                walk(key, global, out);
            }
            Expr::SetContains { set, item } if is_global(set) => {
                out.push(Read::Membership(item));
                walk(item, global, out);
            }
            Expr::MapGet { map, key } if is_global(map) => {
                out.push(Read::Lookup(key));
                walk(key, global, out);
            }
            Expr::Eq(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::MapContains { map: a, key: b }
            | Expr::MapGet { map: a, key: b }
            | Expr::SetContains { set: a, item: b } => {
                walk(a, global, out);
                walk(b, global, out);
            }
            Expr::Not(e) | Expr::HighBit(e) | Expr::IsBroadcast(e) | Expr::Prefix(e, _) => {
                walk(e, global, out)
            }
            Expr::Tuple(items) => items.iter().for_each(|i| walk(i, global, out)),
        }
    }
    let mut out = Vec::new();
    walk(expr, global, &mut out);
    out
}

/// Solves one conjunction, handing `emit` every candidate that survives
/// enumeration: its rule, or `None` when a check rejected it, along with
/// the enumerated value when the conjunction has exactly one enumeration.
/// `only` replaces that one enumeration's source.
#[allow(clippy::too_many_arguments)]
fn solve_conjunction<'a>(
    atoms: &[Atom<'a>],
    template: &RuleTemplate,
    needed_fields: &[Field],
    env: &Env,
    only: Option<&'a [Value]>,
    room: &mut usize,
    truncated: &mut usize,
    emit: &mut dyn FnMut(Option<&'a Value>, Option<ProactiveRule>),
) {
    let mut base = Candidate::default();
    let mut enumerations: Vec<(&KeyExpr, Table<'a>)> = Vec::new();
    let mut negatives: Vec<&Atom> = Vec::new();
    for atom in atoms {
        match atom {
            Atom::True => {}
            Atom::False => return,
            Atom::Cmp {
                key,
                value,
                eq: true,
            } => {
                if !base.bind(key, value) {
                    return;
                }
            }
            Atom::Cmp { eq: false, .. } => negatives.push(atom),
            Atom::PrefixIs { field, net, len } => {
                // bind() records the prefix and pins the field to the
                // network address, so templates reading the field stay
                // instantiable (sound: the network address satisfies the
                // prefix constraint).
                if !base.bind(&KeyExpr::Prefix(*field, *len), &Value::Ip(*net)) {
                    return;
                }
            }
            Atom::In { key, table, .. } => enumerations.push((key, *table)),
            Atom::NotIn { .. } | Atom::Opaque { .. } => negatives.push(atom),
        }
    }
    // Cartesian enumeration over membership atoms: all but the last are
    // expanded into partial candidates, the last is walked, and each
    // complete candidate is judged as it is formed — nothing the size of
    // the last table is built. While there is one enumeration, `emit`
    // learns the value a candidate came from.
    let keyed = enumerations.len() == 1;
    let restricted = only.filter(|_| keyed);
    let last = enumerations.pop();
    let mut partial = vec![base];
    for (key, table) in enumerations {
        let mut next = Vec::new();
        for candidate in &partial {
            for (vi, value) in table.keys().enumerate() {
                let mut c = candidate.clone();
                if c.bind(key, value) {
                    next.push(c);
                }
                if next.len() > MAX_RULES {
                    *truncated += table.len() - vi - 1;
                    break;
                }
            }
        }
        partial = next;
    }
    // Candidates dropped for want of room, and values never bound because
    // the candidate cap was reached.
    let (mut dropped, mut cut) = (0, 0);
    let mut judge = |candidate: &Candidate, from: Option<&'a Value>| {
        if *room == 0 {
            dropped += 1;
            return;
        }
        let rule = candidate.rule(&negatives, template, needed_fields, env);
        *room -= usize::from(rule.is_some());
        emit(from, rule);
    };
    match last {
        None => partial.iter().for_each(|candidate| judge(candidate, None)),
        Some((key, table)) => {
            let mut formed = 0;
            for candidate in &partial {
                let mut bind = |vi: usize, total: usize, value: &'a Value| {
                    let mut c = candidate.clone();
                    if c.bind(key, value) {
                        formed += 1;
                        judge(&c, keyed.then_some(value));
                    }
                    if formed > MAX_RULES {
                        cut += total - vi - 1;
                        return false;
                    }
                    true
                };
                match restricted {
                    Some(keys) => {
                        let held = keys.iter().filter(|k| table.contains(k));
                        for (vi, value) in held.enumerate() {
                            if !bind(vi, keys.len(), value) {
                                break;
                            }
                        }
                    }
                    None => {
                        for (vi, value) in table.keys().enumerate() {
                            if !bind(vi, table.len(), value) {
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
    *truncated += dropped + cut;
}

impl Candidate {
    /// The rule `template` comes to under this assignment, unless a
    /// negative or opaque constraint, an undetermined template field or an
    /// evaluation error rejects the candidate.
    fn rule(
        &self,
        negatives: &[&Atom],
        template: &RuleTemplate,
        needed_fields: &[Field],
        env: &Env,
    ) -> Option<ProactiveRule> {
        if !self.prefixes_consistent() {
            return None;
        }
        let keys = self.to_keys();
        // Check negative/opaque constraints whose fields are all assigned.
        for atom in negatives {
            let holds = match atom {
                // Unassigned fields with a disequality: the rule the
                // application would install matches on its template fields
                // only, so the disequality cannot over-select — accept,
                // mirroring the reactive behaviour.
                Atom::Cmp {
                    key: KeyExpr::Field(f),
                    value,
                    ..
                } => self.get(*f) != Some(value),
                Atom::NotIn {
                    key: KeyExpr::Field(f),
                    table,
                } => !self.get(*f).is_some_and(|v| table.contains(v)),
                // Cannot be discharged proactively unless every field it
                // reads is assigned.
                Atom::Opaque { expr, polarity } => {
                    let mut nodes = 0;
                    self.covers(&expr.free_fields())
                        && matches!(
                            expr.eval_ref(&keys, env, &mut nodes).as_deref(),
                            Ok(Value::Bool(b)) if b == polarity
                        )
                }
                _ => true,
            };
            if !holds {
                return None;
            }
        }
        // The template's expressions must be fully determined.
        if !self.covers(needed_fields) {
            return None;
        }
        let mut nodes = 0;
        let mut rule = instantiate_rule(template, &keys, env, &mut nodes).ok()?;
        // Carry residual prefix constraints into the match when the
        // template did not already constrain those fields.
        for (field, net, len) in self.residual_prefixes() {
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
        Some(rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::generate_path_conditions;
    use ofproto::actions::Action;
    use ofproto::types::PortNo;
    use policy::builder::*;
    use policy::program::GlobalSpec;
    use policy::stmt::{ActionTemplate, MatchTemplate};
    use policy::Program;

    fn l2_program() -> Program {
        Program::new(
            "l2_learning",
            vec![GlobalSpec {
                name: "macToPort".into(),
                initial: Value::Map(Default::default()),
                state_sensitive: true,
                description: "MAC-port mapping".into(),
                lifetime: None,
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

    fn l2_install_path() -> Path {
        let pcs = generate_path_conditions(&l2_program());
        let path = pcs.modify_state_paths().next().expect("one install path");
        path.clone()
    }

    #[test]
    fn a_path_that_only_enumerates_a_table_converts_key_by_key() {
        let path = l2_install_path();
        let mut env = Env::new();
        let entries: Vec<(Value, Value)> = (1..=20)
            .map(|i| (Value::Mac(MacAddr::from_u64(i)), Value::Int(i % 4 + 1)))
            .collect();
        env.set("macToPort", map_value(entries));
        env.learn("macToPort", Value::Mac(MacAddr::BROADCAST), Value::Int(9));
        let full = convert_path(&path, &env, None, &mut MAX_RULES.clone());
        let PathRules::Keyed { global, by_key, .. } = &full.rules else {
            panic!("l2's install path reads macToPort as a membership test and a lookup of the same key: {full:?}");
        };
        assert_eq!(global, "macToPort");
        assert_eq!(by_key.len(), 21, "one candidate per key, in key order");
        assert_eq!(full.rules.len(), 20);
        assert_eq!(full.rules.rejected(), 1, "the broadcast key");
        // Some of the keys, one of them not in the table: the same routine
        // yields the same outcomes for those it holds.
        let keys = [
            Value::Mac(MacAddr::from_u64(3)),
            Value::Mac(MacAddr::from_u64(17)),
            Value::Mac(MacAddr::from_u64(99)),
            Value::Mac(MacAddr::BROADCAST),
        ];
        let only = Only {
            global: "macToPort",
            keys: &keys,
        };
        let some = convert_path(&path, &env, Some(only), &mut MAX_RULES.clone());
        let expected: BTreeMap<_, _> = by_key
            .iter()
            .filter(|(k, _)| keys.contains(k))
            .map(|(k, rule)| (k.clone(), rule.clone()))
            .collect();
        assert_eq!(expected.len(), 3);
        assert_eq!(
            some.rules,
            PathRules::Keyed {
                global: "macToPort".into(),
                by_key: expected,
                rules: 2,
            }
        );
        // Keys of another table restrict nothing.
        let other = Only {
            global: "ipToPort",
            keys: &keys,
        };
        assert_eq!(
            convert_path(&path, &env, Some(other), &mut MAX_RULES.clone()),
            full
        );
    }

    #[test]
    fn other_reads_of_the_table_make_a_path_flat() {
        let install = |cond: Expr, output: Expr| {
            let program = Program::new(
                "p",
                vec![],
                vec![if_then(
                    cond,
                    vec![emit(Decision::InstallRule(RuleTemplate::new(
                        vec![MatchTemplate::Exact(Field::DlDst, field(Field::DlDst))],
                        vec![ActionTemplate::Output(output)],
                    )))],
                )],
            );
            let pcs = generate_path_conditions(&program);
            let path = pcs.modify_state_paths().next().unwrap().clone();
            path
        };
        let mut env = Env::new();
        env.set(
            "m",
            map_value([
                (Value::Mac(MacAddr::from_u64(1)), Value::Int(1)),
                (Value::Mac(MacAddr::from_u64(2)), Value::Int(2)),
            ]),
        );
        env.set("port", Value::Int(7));
        let contains = || map_contains(global("m"), field(Field::DlDst));
        let lookup = || map_get(global("m"), field(Field::DlDst));
        let keyed = |path: &Path| {
            let converted = convert_path(path, &env, None, &mut MAX_RULES.clone());
            assert_eq!(converted.rules.len(), 2, "{path}");
            matches!(converted.rules, PathRules::Keyed { .. })
        };
        assert!(keyed(&install(contains(), lookup())));
        assert!(keyed(&install(contains(), global("port"))));
        // A second membership test, even one that folds to a constant.
        let fixed = map_contains(global("m"), constant(Value::Mac(MacAddr::from_u64(1))));
        assert!(!keyed(&install(and(contains(), fixed), lookup())));
        // A lookup under another key.
        let other = map_get(global("m"), constant(Value::Mac(MacAddr::from_u64(1))));
        assert!(!keyed(&install(contains(), other)));
        // Two conjunctions: rules come alternative by alternative.
        let either = or(
            contains(),
            eq(
                field(Field::DlDst),
                constant(Value::Mac(MacAddr::from_u64(2))),
            ),
        );
        let converted = convert_path(
            &install(either, global("port")),
            &env,
            None,
            &mut MAX_RULES.clone(),
        );
        assert!(matches!(converted.rules, PathRules::Flat { .. }));
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
