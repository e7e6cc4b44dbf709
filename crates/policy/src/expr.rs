//! Expressions of the policy IR: packet-field reads, global-variable reads
//! and the operators controller applications branch on.

use std::borrow::Cow;
use std::fmt;
use std::net::Ipv4Addr;

use ofproto::flow_match::FlowKeys;

use crate::env::{Env, Table};
use crate::index::{Items, Probe};
use crate::value::{TypeError, Value};

/// A packet header field readable by a handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Field {
    /// Ingress port.
    InPort,
    /// Ethernet source.
    DlSrc,
    /// Ethernet destination.
    DlDst,
    /// EtherType.
    DlType,
    /// VLAN id.
    DlVlan,
    /// IPv4 source.
    NwSrc,
    /// IPv4 destination.
    NwDst,
    /// IP protocol.
    NwProto,
    /// IP TOS byte.
    NwTos,
    /// Transport source port.
    TpSrc,
    /// Transport destination port.
    TpDst,
}

impl Field {
    /// All fields, in a fixed order.
    pub const ALL: [Field; 11] = [
        Field::InPort,
        Field::DlSrc,
        Field::DlDst,
        Field::DlType,
        Field::DlVlan,
        Field::NwSrc,
        Field::NwDst,
        Field::NwProto,
        Field::NwTos,
        Field::TpSrc,
        Field::TpDst,
    ];

    /// Reads this field from concrete packet keys.
    pub fn read(self, keys: &FlowKeys) -> Value {
        match self {
            Field::InPort => Value::Int(u64::from(keys.in_port)),
            Field::DlSrc => Value::Mac(keys.dl_src),
            Field::DlDst => Value::Mac(keys.dl_dst),
            Field::DlType => Value::Int(u64::from(keys.dl_type)),
            Field::DlVlan => Value::Int(u64::from(keys.dl_vlan)),
            Field::NwSrc => Value::Ip(keys.nw_src),
            Field::NwDst => Value::Ip(keys.nw_dst),
            Field::NwProto => Value::Int(u64::from(keys.nw_proto)),
            Field::NwTos => Value::Int(u64::from(keys.nw_tos)),
            Field::TpSrc => Value::Int(u64::from(keys.tp_src)),
            Field::TpDst => Value::Int(u64::from(keys.tp_dst)),
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Field::InPort => "in_port",
            Field::DlSrc => "dl_src",
            Field::DlDst => "dl_dst",
            Field::DlType => "dl_type",
            Field::DlVlan => "dl_vlan",
            Field::NwSrc => "nw_src",
            Field::NwDst => "nw_dst",
            Field::NwProto => "nw_proto",
            Field::NwTos => "nw_tos",
            Field::TpSrc => "tp_src",
            Field::TpDst => "tp_dst",
        };
        f.write_str(name)
    }
}

/// An expression over packet fields, global variables and constants.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A constant value.
    Const(Value),
    /// A packet field read (symbolic input of the handler).
    Field(Field),
    /// A global (state-sensitive) variable read.
    Global(String),
    /// Equality.
    Eq(Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Whether `map` contains `key`.
    MapContains {
        /// The map expression.
        map: Box<Expr>,
        /// The key expression.
        key: Box<Expr>,
    },
    /// Lookup of `key` in `map`; [`Value::None`] when absent.
    MapGet {
        /// The map expression.
        map: Box<Expr>,
        /// The key expression.
        key: Box<Expr>,
    },
    /// Whether `set` contains `item`.
    SetContains {
        /// The set expression.
        set: Box<Expr>,
        /// The item expression.
        item: Box<Expr>,
    },
    /// Whether the highest-order bit of an IPv4 address is set — the
    /// ip_balancer's split predicate (paper Table I).
    HighBit(Box<Expr>),
    /// Whether a MAC address is the broadcast address.
    IsBroadcast(Box<Expr>),
    /// The enclosing /`prefix_len` network of an IPv4 address — route tables
    /// key on this.
    Prefix(Box<Expr>, u32),
    /// A tuple of sub-expressions (composite keys).
    Tuple(Vec<Expr>),
}

/// Error produced while evaluating an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A referenced global variable is not defined.
    UnknownGlobal(String),
    /// A value was used at the wrong type.
    Type(crate::value::TypeError),
    /// A symbolic field read happened during an evaluation that required a
    /// concrete value (used by the symbolic engine's partial evaluator).
    SymbolicField(Field),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownGlobal(name) => write!(f, "unknown global variable `{name}`"),
            EvalError::Type(e) => write!(f, "{e}"),
            EvalError::SymbolicField(field) => write!(f, "field `{field}` is symbolic"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<crate::value::TypeError> for EvalError {
    fn from(e: crate::value::TypeError) -> EvalError {
        EvalError::Type(e)
    }
}

/// Masks an IPv4 address to its top `prefix_len` bits.
pub fn mask_ip(ip: Ipv4Addr, prefix_len: u32) -> Ipv4Addr {
    if prefix_len == 0 {
        return Ipv4Addr::UNSPECIFIED;
    }
    let mask = u32::MAX << (32 - prefix_len.min(32));
    Ipv4Addr::from(u32::from(ip) & mask)
}

/// The container operand of a lookup or a membership test. A global is
/// read through its hash index ([`Env::table`]), so the test costs the key
/// and not the table; any other expression is evaluated to a value.
enum Container<'a> {
    Global(Table<'a>),
    Value(Cow<'a, Value>),
}

impl<'a> Container<'a> {
    /// The value `key` maps to, if the container is a map that holds it.
    fn get(self, key: &dyn Probe) -> Result<Option<Cow<'a, Value>>, TypeError> {
        Ok(match self {
            Container::Global(table) => table.get(key)?.map(Cow::Borrowed),
            Container::Value(Cow::Borrowed(map)) => {
                map.as_map()?.get(&*key.key().to_value()).map(Cow::Borrowed)
            }
            Container::Value(Cow::Owned(map)) => map
                .as_map()?
                .get(&*key.key().to_value())
                .cloned()
                .map(Cow::Owned),
        })
    }

    /// Whether the container is a set that holds `item`.
    fn contains(self, item: &dyn Probe) -> Result<bool, TypeError> {
        match self {
            Container::Global(table) => table.contains(item),
            Container::Value(set) => Ok(set.as_set()?.contains(&*item.key().to_value())),
        }
    }
}

/// The quarantined value of `key` in the map `map` reads, when `map` is a
/// global.
fn quarantined<'a>(map: &Expr, env: &'a Env, key: &dyn Probe) -> Option<&'a Value> {
    match map {
        Expr::Global(name) if env.quarantined_len() > 0 => {
            env.quarantined(name, &key.key().to_value())
        }
        _ => None,
    }
}

/// Tuple keys of at most this many items are probed for without being
/// built ([`Expr::with_key`]).
const INLINE_ITEMS: usize = 8;

impl Expr {
    /// Evaluates against concrete packet keys and an environment, copying
    /// the result out of [`Expr::eval_ref`].
    ///
    /// # Errors
    ///
    /// [`EvalError`] on unknown globals or type mismatches.
    pub fn eval(&self, keys: &FlowKeys, env: &Env, nodes: &mut u64) -> Result<Value, EvalError> {
        self.eval_ref(keys, env, nodes).map(Cow::into_owned)
    }

    /// Evaluates against concrete packet keys and an environment without
    /// copying a container: constants, globals and entries looked up in
    /// them are borrowed from `self` and `env`; only scalars computed on
    /// the way (field reads, booleans, masked addresses) and tuples are
    /// owned. The cost of `macToPort[dl_dst]` is therefore one hash probe
    /// whatever the table's size.
    ///
    /// `nodes` counts evaluated AST nodes (the interpreter's cost model).
    ///
    /// # Errors
    ///
    /// [`EvalError`] on unknown globals or type mismatches.
    pub fn eval_ref<'a>(
        &'a self,
        keys: &FlowKeys,
        env: &'a Env,
        nodes: &mut u64,
    ) -> Result<Cow<'a, Value>, EvalError> {
        self.eval_in(keys, env, false, nodes)
    }

    /// Evaluates as the application's handler reads its state: like
    /// [`Expr::eval_ref`], except that a lookup in a learned map that
    /// misses the map falls back to its quarantine overlay
    /// ([`Env::quarantined`]). The map wins where both hold a key, so a
    /// quarantined entry never overrides a learned one.
    ///
    /// # Errors
    ///
    /// [`EvalError`] on unknown globals or type mismatches.
    pub(crate) fn eval_app<'a>(
        &'a self,
        keys: &FlowKeys,
        env: &'a Env,
        nodes: &mut u64,
    ) -> Result<Cow<'a, Value>, EvalError> {
        self.eval_in(keys, env, true, nodes)
    }

    /// Evaluates the container operand of a lookup or a membership test,
    /// counting the same nodes [`Expr::eval_in`] would.
    fn container<'a>(
        &'a self,
        keys: &FlowKeys,
        env: &'a Env,
        overlay: bool,
        nodes: &mut u64,
    ) -> Result<Container<'a>, EvalError> {
        match self {
            Expr::Global(name) => {
                *nodes += 1;
                env.table(name)
                    .map(Container::Global)
                    .ok_or_else(|| EvalError::UnknownGlobal(name.clone()))
            }
            other => other
                .eval_in(keys, env, overlay, nodes)
                .map(Container::Value),
        }
    }

    /// Evaluates the key operand of a lookup or a membership test and hands
    /// it to `probe`, counting the same nodes [`Expr::eval_in`] would. A
    /// tuple's items are handed over where they were evaluated, so a
    /// composite key costs no allocation.
    fn with_key<'a, R>(
        &'a self,
        keys: &FlowKeys,
        env: &'a Env,
        overlay: bool,
        nodes: &mut u64,
        probe: impl FnOnce(&dyn Probe) -> R,
    ) -> Result<R, EvalError> {
        match self {
            Expr::Tuple(items) if items.len() <= INLINE_ITEMS => {
                *nodes += 1;
                let mut held: [Cow<'a, Value>; INLINE_ITEMS] = Default::default();
                for (slot, item) in held.iter_mut().zip(items) {
                    *slot = item.eval_in(keys, env, overlay, nodes)?;
                }
                Ok(probe(&Items(&held[..items.len()])))
            }
            other => Ok(probe(&*other.eval_in(keys, env, overlay, nodes)?)),
        }
    }

    fn eval_in<'a>(
        &'a self,
        keys: &FlowKeys,
        env: &'a Env,
        overlay: bool,
        nodes: &mut u64,
    ) -> Result<Cow<'a, Value>, EvalError> {
        *nodes += 1;
        let owned = match self {
            Expr::Const(v) => return Ok(Cow::Borrowed(v)),
            Expr::Field(f) => f.read(keys),
            Expr::Global(name) => {
                return env
                    .get(name)
                    .map(Cow::Borrowed)
                    .ok_or_else(|| EvalError::UnknownGlobal(name.clone()))
            }
            Expr::Eq(a, b) => Value::Bool(
                a.eval_in(keys, env, overlay, nodes)? == b.eval_in(keys, env, overlay, nodes)?,
            ),
            Expr::And(a, b) => {
                // Short-circuit like handler code does.
                Value::Bool(
                    a.eval_in(keys, env, overlay, nodes)?.as_bool()?
                        && b.eval_in(keys, env, overlay, nodes)?.as_bool()?,
                )
            }
            Expr::Or(a, b) => Value::Bool(
                a.eval_in(keys, env, overlay, nodes)?.as_bool()?
                    || b.eval_in(keys, env, overlay, nodes)?.as_bool()?,
            ),
            Expr::Not(e) => Value::Bool(!e.eval_in(keys, env, overlay, nodes)?.as_bool()?),
            Expr::MapContains { map: map_expr, key } => {
                let map = map_expr.container(keys, env, overlay, nodes)?;
                key.with_key(keys, env, overlay, nodes, |key| {
                    Ok::<_, TypeError>(Value::Bool(
                        map.get(key)?.is_some()
                            || overlay && quarantined(map_expr, env, key).is_some(),
                    ))
                })??
            }
            Expr::MapGet { map: map_expr, key } => {
                let map = map_expr.container(keys, env, overlay, nodes)?;
                return Ok(key.with_key(keys, env, overlay, nodes, |key| {
                    Ok::<_, TypeError>(match map.get(key)? {
                        Some(value) => value,
                        None if overlay => quarantined(map_expr, env, key)
                            .map_or(Cow::Owned(Value::None), Cow::Borrowed),
                        None => Cow::Owned(Value::None),
                    })
                })??);
            }
            Expr::SetContains { set, item } => {
                let set = set.container(keys, env, overlay, nodes)?;
                Value::Bool(item.with_key(keys, env, overlay, nodes, |item| set.contains(item))??)
            }
            Expr::HighBit(e) => {
                let ip = e.eval_in(keys, env, overlay, nodes)?.as_ip()?;
                Value::Bool(u32::from(ip) & 0x8000_0000 != 0)
            }
            Expr::IsBroadcast(e) => {
                let mac = e.eval_in(keys, env, overlay, nodes)?.as_mac()?;
                Value::Bool(mac.is_broadcast())
            }
            Expr::Prefix(e, prefix_len) => {
                let ip = e.eval_in(keys, env, overlay, nodes)?.as_ip()?;
                Value::Ip(mask_ip(ip, *prefix_len))
            }
            Expr::Tuple(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(item.eval_in(keys, env, overlay, nodes)?.into_owned());
                }
                Value::Tuple(out)
            }
        };
        Ok(Cow::Owned(owned))
    }

    /// Partially evaluates: substitutes scalar globals from `env`, folds
    /// sub-expressions that read no packet field, and leaves field reads
    /// symbolic. A global holding a map or a set stays a read — copying a
    /// table the attacker can grow into every residual would make the cost
    /// of a conversion the size of that table — so the residual means what
    /// `self` means only against the same `env`.
    ///
    /// This is the runtime half of the paper's hybrid approach: after the
    /// application tracker reads current global values, path conditions
    /// contain only symbolic packet fields and table lookups keyed on them.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownGlobal`] when a global is missing from `env` and
    /// [`EvalError::Type`] when constant folding hits a type error.
    pub fn substitute(&self, env: &Env) -> Result<Expr, EvalError> {
        self.partial(env).map(|(residual, _)| residual)
    }

    /// [`Expr::substitute`], also saying whether the residual reads a field.
    fn partial(&self, env: &Env) -> Result<(Expr, bool), EvalError> {
        type Partial = Result<(Expr, bool), EvalError>;
        let unary = |e: &Expr, make: fn(Box<Expr>) -> Expr| -> Partial {
            e.partial(env).map(|(e, f)| (make(Box::new(e)), f))
        };
        let binary = |a: &Expr, b: &Expr, make: fn(Box<Expr>, Box<Expr>) -> Expr| -> Partial {
            let ((a, fa), (b, fb)) = (a.partial(env)?, b.partial(env)?);
            Ok((make(Box::new(a), Box::new(b)), fa || fb))
        };
        let (residual, reads_field) = match self {
            Expr::Const(_) => return Ok((self.clone(), false)),
            Expr::Field(_) => return Ok((self.clone(), true)),
            Expr::Global(name) => {
                return match env.get(name) {
                    None => Err(EvalError::UnknownGlobal(name.clone())),
                    Some(Value::Map(_) | Value::Set(_)) => Ok((self.clone(), false)),
                    Some(scalar) => Ok((Expr::Const(scalar.clone()), false)),
                }
            }
            Expr::Eq(a, b) => binary(a, b, Expr::Eq)?,
            Expr::And(a, b) => binary(a, b, Expr::And)?,
            Expr::Or(a, b) => binary(a, b, Expr::Or)?,
            Expr::Not(e) => unary(e, Expr::Not)?,
            Expr::MapContains { map, key } => {
                binary(map, key, |map, key| Expr::MapContains { map, key })?
            }
            Expr::MapGet { map, key } => binary(map, key, |map, key| Expr::MapGet { map, key })?,
            Expr::SetContains { set, item } => {
                binary(set, item, |set, item| Expr::SetContains { set, item })?
            }
            Expr::HighBit(e) => unary(e, Expr::HighBit)?,
            Expr::IsBroadcast(e) => unary(e, Expr::IsBroadcast)?,
            Expr::Prefix(e, n) => {
                let (e, f) = e.partial(env)?;
                (Expr::Prefix(Box::new(e), *n), f)
            }
            Expr::Tuple(items) => {
                let mut reads_field = false;
                let items = items
                    .iter()
                    .map(|i| {
                        i.partial(env).map(|(i, f)| {
                            reads_field |= f;
                            i
                        })
                    })
                    .collect::<Result<_, _>>()?;
                (Expr::Tuple(items), reads_field)
            }
        };
        // Fold what no packet can change. Its operands are constants and
        // tables that `env` holds, so nothing is unknown here.
        if !reads_field {
            let mut nodes = 0;
            match residual.eval(&FlowKeys::default(), env, &mut nodes) {
                Ok(v) => return Ok((Expr::Const(v), false)),
                Err(EvalError::Type(e)) => return Err(EvalError::Type(e)),
                Err(_) => {}
            }
        }
        Ok((residual, reads_field))
    }

    /// Whether the expression reads no packet field and no global.
    pub fn is_concrete(&self) -> bool {
        self.free_fields().is_empty() && !self.reads_globals()
    }

    /// The set of packet fields this expression reads.
    pub fn free_fields(&self) -> Vec<Field> {
        let mut fields = Vec::new();
        self.collect_fields(&mut fields);
        fields.sort();
        fields.dedup();
        fields
    }

    fn collect_fields(&self, out: &mut Vec<Field>) {
        match self {
            Expr::Const(_) | Expr::Global(_) => {}
            Expr::Field(f) => out.push(*f),
            Expr::Eq(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_fields(out);
                b.collect_fields(out);
            }
            Expr::Not(e) | Expr::HighBit(e) | Expr::IsBroadcast(e) | Expr::Prefix(e, _) => {
                e.collect_fields(out)
            }
            Expr::MapContains { map, key } | Expr::MapGet { map, key } => {
                map.collect_fields(out);
                key.collect_fields(out);
            }
            Expr::SetContains { set, item } => {
                set.collect_fields(out);
                item.collect_fields(out);
            }
            Expr::Tuple(items) => {
                for item in items {
                    item.collect_fields(out);
                }
            }
        }
    }

    /// The names of global variables this expression reads.
    pub fn globals(&self) -> Vec<String> {
        let mut names = Vec::new();
        self.collect_globals(&mut names);
        names.sort();
        names.dedup();
        names
    }

    fn collect_globals(&self, out: &mut Vec<String>) {
        match self {
            Expr::Const(_) | Expr::Field(_) => {}
            Expr::Global(name) => out.push(name.clone()),
            Expr::Eq(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_globals(out);
                b.collect_globals(out);
            }
            Expr::Not(e) | Expr::HighBit(e) | Expr::IsBroadcast(e) | Expr::Prefix(e, _) => {
                e.collect_globals(out)
            }
            Expr::MapContains { map, key } | Expr::MapGet { map, key } => {
                map.collect_globals(out);
                key.collect_globals(out);
            }
            Expr::SetContains { set, item } => {
                set.collect_globals(out);
                item.collect_globals(out);
            }
            Expr::Tuple(items) => {
                for item in items {
                    item.collect_globals(out);
                }
            }
        }
    }

    fn reads_globals(&self) -> bool {
        !self.globals().is_empty()
    }

    /// Number of AST nodes (static complexity measure).
    pub fn node_count(&self) -> u64 {
        1 + match self {
            Expr::Const(_) | Expr::Field(_) | Expr::Global(_) => 0,
            Expr::Eq(a, b) | Expr::And(a, b) | Expr::Or(a, b) => a.node_count() + b.node_count(),
            Expr::Not(e) | Expr::HighBit(e) | Expr::IsBroadcast(e) | Expr::Prefix(e, _) => {
                e.node_count()
            }
            Expr::MapContains { map, key } | Expr::MapGet { map, key } => {
                map.node_count() + key.node_count()
            }
            Expr::SetContains { set, item } => set.node_count() + item.node_count(),
            Expr::Tuple(items) => items.iter().map(Expr::node_count).sum(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Field(field) => write!(f, "pt.{field}"),
            Expr::Global(name) => write!(f, "${name}"),
            Expr::Eq(a, b) => write!(f, "({a} == {b})"),
            Expr::And(a, b) => write!(f, "({a} && {b})"),
            Expr::Or(a, b) => write!(f, "({a} || {b})"),
            Expr::Not(e) => write!(f, "!{e}"),
            Expr::MapContains { map, key } => write!(f, "({key} in {map})"),
            Expr::MapGet { map, key } => write!(f, "{map}[{key}]"),
            Expr::SetContains { set, item } => write!(f, "({item} in {set})"),
            Expr::HighBit(e) => write!(f, "highbit({e})"),
            Expr::IsBroadcast(e) => write!(f, "is_broadcast({e})"),
            Expr::Prefix(e, n) => write!(f, "prefix{n}({e})"),
            Expr::Tuple(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use ofproto::types::MacAddr;
    use proptest::collection::{btree_map, btree_set, vec};
    use proptest::option;
    use proptest::prelude::*;

    fn keys() -> FlowKeys {
        FlowKeys {
            in_port: 3,
            dl_src: MacAddr::from_u64(0xa),
            dl_dst: MacAddr::from_u64(0xb),
            dl_type: 0x0800,
            nw_src: Ipv4Addr::new(200, 0, 0, 1),
            nw_dst: Ipv4Addr::new(10, 1, 2, 3),
            nw_proto: 17,
            tp_dst: 53,
            ..FlowKeys::default()
        }
    }

    fn eval(e: &Expr, env: &Env) -> Value {
        let mut nodes = 0;
        e.eval(&keys(), env, &mut nodes).unwrap()
    }

    /// The evaluator this crate shipped before [`Expr::eval_ref`]: every
    /// sub-expression yields an owned [`Value`], so a global read copies the
    /// whole container. Kept as the reference the borrowing evaluator is
    /// compared against, result and node count.
    fn eval_cloning(
        e: &Expr,
        keys: &FlowKeys,
        env: &Env,
        nodes: &mut u64,
    ) -> Result<Value, EvalError> {
        *nodes += 1;
        match e {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Field(f) => Ok(f.read(keys)),
            Expr::Global(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| EvalError::UnknownGlobal(name.clone())),
            Expr::Eq(a, b) => Ok(Value::Bool(
                eval_cloning(a, keys, env, nodes)? == eval_cloning(b, keys, env, nodes)?,
            )),
            Expr::And(a, b) => {
                if eval_cloning(a, keys, env, nodes)?.as_bool()? {
                    Ok(Value::Bool(eval_cloning(b, keys, env, nodes)?.as_bool()?))
                } else {
                    Ok(Value::Bool(false))
                }
            }
            Expr::Or(a, b) => {
                if eval_cloning(a, keys, env, nodes)?.as_bool()? {
                    Ok(Value::Bool(true))
                } else {
                    Ok(Value::Bool(eval_cloning(b, keys, env, nodes)?.as_bool()?))
                }
            }
            Expr::Not(e) => Ok(Value::Bool(!eval_cloning(e, keys, env, nodes)?.as_bool()?)),
            Expr::MapContains { map, key } => {
                let map = eval_cloning(map, keys, env, nodes)?;
                let key = eval_cloning(key, keys, env, nodes)?;
                Ok(Value::Bool(map.as_map()?.contains_key(&key)))
            }
            Expr::MapGet { map, key } => {
                let map = eval_cloning(map, keys, env, nodes)?;
                let key = eval_cloning(key, keys, env, nodes)?;
                Ok(map.as_map()?.get(&key).cloned().unwrap_or(Value::None))
            }
            Expr::SetContains { set, item } => {
                let set = eval_cloning(set, keys, env, nodes)?;
                let item = eval_cloning(item, keys, env, nodes)?;
                Ok(Value::Bool(set.as_set()?.contains(&item)))
            }
            Expr::HighBit(e) => {
                let ip = eval_cloning(e, keys, env, nodes)?.as_ip()?;
                Ok(Value::Bool(u32::from(ip) & 0x8000_0000 != 0))
            }
            Expr::IsBroadcast(e) => {
                let mac = eval_cloning(e, keys, env, nodes)?.as_mac()?;
                Ok(Value::Bool(mac.is_broadcast()))
            }
            Expr::Prefix(e, prefix_len) => {
                let ip = eval_cloning(e, keys, env, nodes)?.as_ip()?;
                Ok(Value::Ip(mask_ip(ip, *prefix_len)))
            }
            Expr::Tuple(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(eval_cloning(item, keys, env, nodes)?);
                }
                Ok(Value::Tuple(out))
            }
        }
    }

    // Small pools, so that generated keys hit generated tables and
    // generated operands often have the type their operator wants.
    fn arb_scalar() -> BoxedStrategy<Value> {
        prop_oneof![
            Just(Value::None),
            any::<bool>().prop_map(Value::Bool),
            (0u64..4).prop_map(Value::Int),
            (0u64..4).prop_map(|m| Value::Mac(MacAddr::from_u64(m))),
            Just(Value::Mac(MacAddr::BROADCAST)),
            (0u8..4).prop_map(|o| Value::Ip(Ipv4Addr::new(o << 6, 0, 0, o))),
        ]
        .boxed()
    }

    fn arb_map(of: BoxedStrategy<Value>) -> BoxedStrategy<Value> {
        btree_map(arb_scalar(), of, 0..6)
            .prop_map(Value::Map)
            .boxed()
    }

    fn arb_set() -> BoxedStrategy<Value> {
        let item = prop_oneof![arb_scalar(), vec(arb_scalar(), 2..3).prop_map(Value::Tuple),];
        btree_set(item, 0..6).prop_map(Value::Set).boxed()
    }

    /// `m`: scalar → scalar, `nested`: scalar → map, `s`: a set, `x`: a
    /// scalar. Each is sometimes left out (an expression may also name
    /// `missing`, which never exists).
    fn arb_env() -> BoxedStrategy<Env> {
        (
            option::of(arb_map(arb_scalar())),
            option::of(arb_map(arb_map(arb_scalar()))),
            option::of(arb_set()),
            option::of(arb_scalar()),
        )
            .prop_map(|(m, nested, s, x)| {
                let mut env = Env::new();
                for (name, value) in [("m", m), ("nested", nested), ("s", s), ("x", x)] {
                    if let Some(value) = value {
                        env.set(name, value);
                    }
                }
                env
            })
            .boxed()
    }

    fn arb_keys() -> BoxedStrategy<FlowKeys> {
        ((0u16..4, 0u64..5, 0u64..5), (0u8..4, 0u8..4, 0u16..4))
            .prop_map(|((in_port, src, dst), (nw_src, nw_dst, tp))| FlowKeys {
                in_port,
                dl_src: MacAddr::from_u64(src),
                dl_dst: if dst == 4 {
                    MacAddr::BROADCAST
                } else {
                    MacAddr::from_u64(dst)
                },
                dl_type: 0x0800,
                nw_src: Ipv4Addr::new(nw_src << 6, 0, 0, nw_src),
                nw_dst: Ipv4Addr::new(nw_dst << 6, 0, 0, nw_dst),
                nw_proto: 17,
                tp_src: tp,
                tp_dst: tp,
                ..FlowKeys::default()
            })
            .boxed()
    }

    /// Expression strategies by the type the expression usually has, so
    /// that operators mostly get operands they accept. "Usually": a global
    /// may hold anything or be missing, a lookup may return anything, and
    /// every operand slot now and then takes an expression of any type.
    #[derive(Clone)]
    struct Sorts {
        any: BoxedStrategy<Expr>,
        boolean: BoxedStrategy<Expr>,
        ip: BoxedStrategy<Expr>,
        mac: BoxedStrategy<Expr>,
        map: BoxedStrategy<Expr>,
        set: BoxedStrategy<Expr>,
    }

    impl Sorts {
        fn leaves() -> Sorts {
            let fields = |fs: &'static [Field]| (0..fs.len()).prop_map(move |i| field(fs[i]));
            let globals = |ns: &'static [&str]| (0..ns.len()).prop_map(move |i| global(ns[i]));
            Sorts {
                any: prop_oneof![
                    arb_scalar().prop_map(Expr::Const),
                    fields(&Field::ALL),
                    globals(&["m", "nested", "s", "x", "missing"]),
                ]
                .boxed(),
                boolean: prop_oneof![any::<bool>().prop_map(constant), globals(&["x"])].boxed(),
                ip: fields(&[Field::NwSrc, Field::NwDst]).boxed(),
                mac: fields(&[Field::DlSrc, Field::DlDst]).boxed(),
                map: prop_oneof![
                    globals(&["m", "nested", "m", "nested", "missing"]),
                    arb_map(arb_scalar()).prop_map(Expr::Const),
                ]
                .boxed(),
                set: prop_oneof![globals(&["s"]), arb_set().prop_map(Expr::Const)].boxed(),
            }
        }

        /// One more level of operators over `self`.
        fn grow(&self) -> Sorts {
            let slot = |typed: &BoxedStrategy<Expr>| {
                prop_oneof![
                    typed.clone(),
                    typed.clone(),
                    typed.clone(),
                    self.any.clone()
                ]
            };
            let lookup = (slot(&self.map), self.any.clone()).prop_map(|(m, k)| map_get(m, k));
            let boolean = prop_oneof![
                self.boolean.clone(),
                (self.any.clone(), self.any.clone()).prop_map(|(a, b)| eq(a, b)),
                (slot(&self.boolean), slot(&self.boolean)).prop_map(|(a, b)| and(a, b)),
                (slot(&self.boolean), slot(&self.boolean)).prop_map(|(a, b)| or(a, b)),
                slot(&self.boolean).prop_map(not),
                (slot(&self.map), self.any.clone()).prop_map(|(m, k)| map_contains(m, k)),
                (slot(&self.set), self.any.clone()).prop_map(|(s, i)| set_contains(s, i)),
                slot(&self.ip).prop_map(high_bit),
                slot(&self.mac).prop_map(is_broadcast),
            ]
            .boxed();
            let ip = prop_oneof![
                self.ip.clone(),
                (slot(&self.ip), 0u32..33).prop_map(|(e, n)| prefix(e, n)),
            ]
            .boxed();
            let map = prop_oneof![self.map.clone(), lookup.clone()].boxed();
            Sorts {
                any: prop_oneof![
                    self.any.clone(),
                    boolean.clone(),
                    ip.clone(),
                    self.mac.clone(),
                    map.clone(),
                    self.set.clone(),
                    lookup,
                    vec(self.any.clone(), 0..3).prop_map(tuple),
                ]
                .boxed(),
                boolean,
                ip,
                mac: self.mac.clone(),
                map,
                set: self.set.clone(),
            }
        }
    }

    fn arb_expr() -> BoxedStrategy<Expr> {
        Sorts::leaves().grow().grow().grow().any
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn borrowing_eval_agrees_with_cloning_reference(
            e in arb_expr(),
            env in arb_env(),
            keys in arb_keys(),
        ) {
            let (mut nodes_ref, mut nodes) = (0, 0);
            let reference = eval_cloning(&e, &keys, &env, &mut nodes_ref);
            let got = e.eval_ref(&keys, &env, &mut nodes).map(Cow::into_owned);
            prop_assert_eq!(&got, &reference, "{}", e);
            prop_assert_eq!(nodes, nodes_ref, "{}", e);
        }
    }

    /// The differential test above is only as good as its generator: it
    /// must reach values of every kind, both errors, and expressions that
    /// stop early.
    #[test]
    fn generator_reaches_every_outcome() {
        let mut rng = proptest::test_runner::TestRng::from_name("expr::outcomes");
        let (exprs, envs, keys) = (arb_expr(), arb_env(), arb_keys());
        let mut seen = std::collections::BTreeMap::<&str, u32>::new();
        for _ in 0..4096 {
            let e = exprs.generate(&mut rng);
            let mut nodes = 0;
            let outcome = match e.eval(
                &keys.generate(&mut rng),
                &envs.generate(&mut rng),
                &mut nodes,
            ) {
                Ok(v) => v.type_name(),
                Err(EvalError::UnknownGlobal(_)) => "unknown global",
                Err(EvalError::Type(_)) => "type error",
                Err(EvalError::SymbolicField(_)) => "symbolic field",
            };
            *seen.entry(outcome).or_default() += 1;
            if nodes < e.node_count() {
                *seen.entry("stopped early").or_default() += 1;
            }
        }
        for outcome in [
            "none",
            "bool",
            "int",
            "mac",
            "ip",
            "tuple",
            "map",
            "set",
            "unknown global",
            "type error",
            "stopped early",
        ] {
            assert!(
                seen.get(outcome).copied().unwrap_or(0) >= 4,
                "{outcome}: {seen:?}"
            );
        }
    }

    #[test]
    fn field_reads() {
        let env = Env::new();
        assert_eq!(eval(&field(Field::InPort), &env), Value::Int(3));
        assert_eq!(
            eval(&field(Field::DlSrc), &env),
            Value::Mac(MacAddr::from_u64(0xa))
        );
        assert_eq!(eval(&field(Field::NwProto), &env), Value::Int(17));
    }

    #[test]
    fn logic_short_circuits() {
        let env = Env::new();
        // false && <type error> must not evaluate the right side.
        let e = and(constant(false), constant(Value::Int(3)));
        assert_eq!(eval(&e, &env), Value::Bool(false));
        let e = or(constant(true), constant(Value::Int(3)));
        assert_eq!(eval(&e, &env), Value::Bool(true));
        assert_eq!(eval(&not(constant(false)), &env), Value::Bool(true));
    }

    #[test]
    fn map_operations() {
        let mut env = Env::new();
        env.set(
            "macToPort",
            map_value([(Value::Mac(MacAddr::from_u64(0xb)), Value::Int(1))]),
        );
        let contains = map_contains(global("macToPort"), field(Field::DlDst));
        assert_eq!(eval(&contains, &env), Value::Bool(true));
        let get = map_get(global("macToPort"), field(Field::DlDst));
        assert_eq!(eval(&get, &env), Value::Int(1));
        let miss = map_get(global("macToPort"), field(Field::DlSrc));
        assert_eq!(eval(&miss, &env), Value::None);
    }

    #[test]
    fn high_bit_and_broadcast() {
        let env = Env::new();
        assert_eq!(
            eval(&high_bit(field(Field::NwSrc)), &env),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&high_bit(field(Field::NwDst)), &env),
            Value::Bool(false)
        );
        assert_eq!(
            eval(&is_broadcast(field(Field::DlDst)), &env),
            Value::Bool(false)
        );
    }

    #[test]
    fn prefix_masks() {
        let env = Env::new();
        assert_eq!(
            eval(&prefix(field(Field::NwDst), 24), &env),
            Value::Ip(Ipv4Addr::new(10, 1, 2, 0))
        );
        assert_eq!(
            mask_ip(Ipv4Addr::new(255, 255, 255, 255), 0),
            Ipv4Addr::UNSPECIFIED
        );
        assert_eq!(
            mask_ip(Ipv4Addr::new(1, 2, 3, 4), 32),
            Ipv4Addr::new(1, 2, 3, 4)
        );
    }

    #[test]
    fn unknown_global_errors() {
        let env = Env::new();
        let mut nodes = 0;
        let err = global("nope").eval(&keys(), &env, &mut nodes).unwrap_err();
        assert_eq!(err, EvalError::UnknownGlobal("nope".into()));
    }

    #[test]
    fn substitute_replaces_globals_and_folds() {
        let mut env = Env::new();
        env.set("vip", Value::Ip(Ipv4Addr::new(10, 1, 2, 3)));
        let e = eq(field(Field::NwDst), global("vip"));
        let sub = e.substitute(&env).unwrap();
        assert_eq!(
            sub,
            eq(
                field(Field::NwDst),
                constant(Value::Ip(Ipv4Addr::new(10, 1, 2, 3)))
            )
        );
        // Fully concrete expressions fold to constants.
        let e = eq(
            global("vip"),
            constant(Value::Ip(Ipv4Addr::new(10, 1, 2, 3))),
        );
        assert_eq!(e.substitute(&env).unwrap(), constant(true));
    }

    #[test]
    fn substitute_reads_tables_in_place() {
        // The residual of a membership test names the table, it does not
        // hold a copy of it; what no packet can change still folds.
        let mut env = Env::new();
        env.set(
            "m",
            map_value((0..100u64).map(|i| (Value::Int(i), Value::Int(i + 1)))),
        );
        let contains = map_contains(global("m"), field(Field::TpDst));
        assert_eq!(contains.substitute(&env).unwrap(), contains);
        assert_eq!(
            map_get(global("m"), constant(5u64))
                .substitute(&env)
                .unwrap(),
            constant(6u64)
        );
        assert_eq!(
            global("gone").substitute(&env).unwrap_err(),
            EvalError::UnknownGlobal("gone".into())
        );
    }

    #[test]
    fn free_fields_and_globals_collected() {
        let e = and(
            eq(field(Field::DlType), constant(Value::Int(0x800))),
            map_contains(global("routes"), prefix(field(Field::NwDst), 24)),
        );
        assert_eq!(e.free_fields(), vec![Field::DlType, Field::NwDst]);
        assert_eq!(e.globals(), vec!["routes".to_owned()]);
        assert!(!e.is_concrete());
        assert!(constant(Value::Int(3)).is_concrete());
    }

    #[test]
    fn node_count_positive_and_monotone() {
        let small = field(Field::DlDst);
        let big = and(
            is_broadcast(field(Field::DlDst)),
            map_contains(global("m"), field(Field::DlDst)),
        );
        assert!(big.node_count() > small.node_count());
    }

    #[test]
    fn display_readable() {
        let e = eq(
            field(Field::DlDst),
            constant(Value::Mac(MacAddr::BROADCAST)),
        );
        assert_eq!(e.to_string(), "(pt.dl_dst == ff:ff:ff:ff:ff:ff)");
    }
}
