//! Runtime values of the policy IR.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::Ipv4Addr;

use ofproto::types::MacAddr;

/// A value in the policy IR.
///
/// Values are totally ordered so they can key maps and populate sets — the
/// "state sensitive variables" of controller applications (MAC tables,
/// routing tables, blocked-address sets) are [`Value::Map`]s and
/// [`Value::Set`]s held in an environment.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Absence of a value (failed map lookup).
    None,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (ports, EtherTypes, protocol numbers, TOS...).
    Int(u64),
    /// A MAC address.
    Mac(MacAddr),
    /// An IPv4 address.
    Ip(Ipv4Addr),
    /// An ordered tuple (composite map/set keys, e.g. firewall 5-tuples).
    Tuple(Vec<Value>),
    /// A map from values to values.
    Map(BTreeMap<Value, Value>),
    /// A set of values.
    Set(BTreeSet<Value>),
}

impl Value {
    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// [`TypeError`] if the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool, TypeError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(TypeError::new("bool", other)),
        }
    }

    /// Reads an integer.
    ///
    /// # Errors
    ///
    /// [`TypeError`] if the value is not an integer.
    pub fn as_int(&self) -> Result<u64, TypeError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(TypeError::new("int", other)),
        }
    }

    /// Reads a MAC address.
    ///
    /// # Errors
    ///
    /// [`TypeError`] if the value is not a MAC address.
    pub fn as_mac(&self) -> Result<MacAddr, TypeError> {
        match self {
            Value::Mac(m) => Ok(*m),
            other => Err(TypeError::new("mac", other)),
        }
    }

    /// Reads an IPv4 address.
    ///
    /// # Errors
    ///
    /// [`TypeError`] if the value is not an IPv4 address.
    pub fn as_ip(&self) -> Result<Ipv4Addr, TypeError> {
        match self {
            Value::Ip(ip) => Ok(*ip),
            other => Err(TypeError::new("ip", other)),
        }
    }

    /// Reads a map.
    ///
    /// # Errors
    ///
    /// [`TypeError`] if the value is not a map.
    pub fn as_map(&self) -> Result<&BTreeMap<Value, Value>, TypeError> {
        match self {
            Value::Map(m) => Ok(m),
            other => Err(TypeError::new("map", other)),
        }
    }

    /// Reads a set.
    ///
    /// # Errors
    ///
    /// [`TypeError`] if the value is not a set.
    pub fn as_set(&self) -> Result<&BTreeSet<Value>, TypeError> {
        match self {
            Value::Set(s) => Ok(s),
            other => Err(TypeError::new("set", other)),
        }
    }

    /// A short name for the value's type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::None => "none",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Mac(_) => "mac",
            Value::Ip(_) => "ip",
            Value::Tuple(_) => "tuple",
            Value::Map(_) => "map",
            Value::Set(_) => "set",
        }
    }

    /// Number of entries if this is a container, else 0.
    pub fn container_len(&self) -> usize {
        match self {
            Value::Map(m) => m.len(),
            Value::Set(s) => s.len(),
            Value::Tuple(t) => t.len(),
            _ => 0,
        }
    }
}

/// [`Value::None`], the value of a failed lookup.
impl Default for Value {
    fn default() -> Value {
        Value::None
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(i: u64) -> Value {
        Value::Int(i)
    }
}

impl From<u16> for Value {
    fn from(i: u16) -> Value {
        Value::Int(u64::from(i))
    }
}

impl From<u8> for Value {
    fn from(i: u8) -> Value {
        Value::Int(u64::from(i))
    }
}

impl From<MacAddr> for Value {
    fn from(m: MacAddr) -> Value {
        Value::Mac(m)
    }
}

impl From<Ipv4Addr> for Value {
    fn from(ip: Ipv4Addr) -> Value {
        Value::Ip(ip)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::None => f.write_str("none"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Mac(m) => write!(f, "{m}"),
            Value::Ip(ip) => write!(f, "{ip}"),
            Value::Tuple(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            Value::Map(m) => write!(f, "map[{}]", m.len()),
            Value::Set(s) => write!(f, "set[{}]", s.len()),
        }
    }
}

/// A type error produced when a value is used at the wrong type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    expected: &'static str,
    found: &'static str,
}

impl TypeError {
    fn new(expected: &'static str, found: &Value) -> TypeError {
        TypeError {
            expected,
            found: found.type_name(),
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} but found {}", self.expected, self.found)
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Bool(true).as_bool(), Ok(true));
        assert!(Value::Int(1).as_bool().is_err());
        assert_eq!(Value::Int(7).as_int(), Ok(7));
        assert!(Value::None.as_int().is_err());
        let mac = MacAddr::from_u64(5);
        assert_eq!(Value::Mac(mac).as_mac(), Ok(mac));
        let ip = Ipv4Addr::new(1, 2, 3, 4);
        assert_eq!(Value::Ip(ip).as_ip(), Ok(ip));
    }

    #[test]
    fn maps_keyed_by_values() {
        let mut m = BTreeMap::new();
        m.insert(Value::Mac(MacAddr::from_u64(0xa)), Value::Int(1));
        m.insert(Value::Mac(MacAddr::from_u64(0xb)), Value::Int(2));
        let v = Value::Map(m);
        assert_eq!(v.container_len(), 2);
        assert_eq!(
            v.as_map().unwrap()[&Value::Mac(MacAddr::from_u64(0xa))],
            Value::Int(1)
        );
    }

    #[test]
    fn tuples_compare_lexicographically() {
        let a = Value::Tuple(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::Tuple(vec![Value::Int(1), Value::Int(3)]);
        assert!(a < b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(
            Value::Tuple(vec![Value::Int(1), Value::Bool(false)]).to_string(),
            "(1,false)"
        );
        assert_eq!(Value::None.to_string(), "none");
    }

    #[test]
    fn type_error_message() {
        let err = Value::Int(1).as_bool().unwrap_err();
        assert_eq!(err.to_string(), "expected bool but found int");
    }
}
