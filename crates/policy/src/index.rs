//! Hash indexes beside a global's ordered view, and the keys they are
//! probed with.
//!
//! A handler's point read — `macToPort[dl_dst]`, `(src, dst, proto, dport)
//! in firewallRules` — asks for one key. The global's `BTreeMap` or
//! `BTreeSet` answers in a descent of comparisons whose cost grows with the
//! table; an index answers in one hash of the key. A tuple key is probed
//! with its items where they were evaluated ([`Probe`]), so asking costs no
//! allocation either: an indexed key hashes and compares like the items of
//! the tuple it is, whichever way it is held.
//!
//! The hasher is std's [`std::collections::hash_map::RandomState`], keyed
//! at random once per process: the keys are chosen by whoever sends the
//! packets, so where they land must not be something they can predict.

use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};

use crate::value::Value;

/// A key as an index sees it: a value, or the items of a tuple held apart.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Key<'a> {
    Value(&'a Value),
    Items(&'a [Cow<'a, Value>]),
}

impl<'a> Key<'a> {
    /// How many items, when the key is a tuple.
    fn arity(self) -> Option<usize> {
        match self {
            Key::Value(Value::Tuple(items)) => Some(items.len()),
            Key::Items(items) => Some(items.len()),
            Key::Value(_) => None,
        }
    }

    /// Item `i` of a tuple key.
    fn item(self, i: usize) -> &'a Value {
        match self {
            Key::Value(Value::Tuple(items)) => &items[i],
            Key::Items(items) => &items[i],
            Key::Value(value) => value,
        }
    }

    /// The key as one value: borrowed, unless its items were held apart.
    pub(crate) fn to_value(self) -> Cow<'a, Value> {
        match self {
            Key::Value(value) => Cow::Borrowed(value),
            Key::Items(items) => Cow::Owned(Value::Tuple(
                items.iter().map(|item| item.clone().into_owned()).collect(),
            )),
        }
    }
}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self.arity() {
            Some(n) => {
                state.write_u8(1);
                state.write_usize(n);
                (0..n).for_each(|i| self.item(i).hash(state));
            }
            None => {
                state.write_u8(0);
                self.item(0).hash(state);
            }
        }
    }
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Key<'_>) -> bool {
        match (self.arity(), other.arity()) {
            (Some(n), Some(m)) => n == m && (0..n).all(|i| self.item(i) == other.item(i)),
            (None, None) => self.item(0) == other.item(0),
            _ => false,
        }
    }
}

/// What an index is probed with: a [`Value`], or [`Items`].
pub(crate) trait Probe {
    /// The key probed for.
    fn key(&self) -> Key<'_>;
}

impl Probe for Value {
    fn key(&self) -> Key<'_> {
        Key::Value(self)
    }
}

/// The items of a tuple key, evaluated in place of the tuple.
pub(crate) struct Items<'a>(pub(crate) &'a [Cow<'a, Value>]);

impl Probe for Items<'_> {
    fn key(&self) -> Key<'_> {
        Key::Items(self.0)
    }
}

impl Hash for dyn Probe + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialEq for dyn Probe + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn Probe + '_ {}

/// A key held by an index: hashed and compared as its [`Key`], so that any
/// [`Probe`] of it finds it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Indexed(Value);

impl Hash for Indexed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.key().hash(state);
    }
}

impl<'a> Borrow<dyn Probe + 'a> for Indexed {
    fn borrow(&self) -> &(dyn Probe + 'a) {
        &self.0
    }
}

/// A map's entries, hashed.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashedMap(HashMap<Indexed, Value>);

impl HashedMap {
    pub(crate) fn of(map: &BTreeMap<Value, Value>) -> HashedMap {
        HashedMap(
            map.iter()
                .map(|(key, value)| (Indexed(key.clone()), value.clone()))
                .collect(),
        )
    }

    pub(crate) fn get(&self, key: &dyn Probe) -> Option<&Value> {
        self.0.get(key)
    }

    pub(crate) fn insert(&mut self, key: Value, value: Value) {
        self.0.insert(Indexed(key), value);
    }
}

/// A set's items, hashed.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashedSet(HashSet<Indexed>);

impl HashedSet {
    pub(crate) fn of(set: &BTreeSet<Value>) -> HashedSet {
        HashedSet(set.iter().cloned().map(Indexed).collect())
    }

    pub(crate) fn contains(&self, item: &dyn Probe) -> bool {
        self.0.contains(item)
    }

    /// Adds `item`; whether it was not held.
    pub(crate) fn insert(&mut self, item: Value) -> bool {
        self.0.insert(Indexed(item))
    }

    /// Takes `item`; whether it was held.
    pub(crate) fn remove(&mut self, item: &Value) -> bool {
        self.0.remove(item as &dyn Probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(items: &[u64]) -> Value {
        Value::Tuple(items.iter().map(|&i| Value::Int(i)).collect())
    }

    #[test]
    fn a_tuple_is_found_by_its_items_held_apart() {
        let mut set = HashedSet::default();
        assert!(set.insert(tuple(&[1, 2])));
        assert!(!set.insert(tuple(&[1, 2])));
        set.insert(Value::Int(7));
        let apart = |items: &[u64]| -> Vec<Cow<Value>> {
            items.iter().map(|&i| Cow::Owned(Value::Int(i))).collect()
        };
        assert!(set.contains(&Items(&apart(&[1, 2]))));
        assert!(!set.contains(&Items(&apart(&[2, 1]))));
        assert!(!set.contains(&Items(&apart(&[1, 2, 3]))));
        assert!(
            !set.contains(&Items(&apart(&[7]))),
            "a 1-tuple is not its item"
        );
        assert!(set.contains(&Value::Int(7)));
        assert!(set.contains(&tuple(&[1, 2])));
        assert!(set.remove(&tuple(&[1, 2])));
        assert!(!set.contains(&Items(&apart(&[1, 2]))));
    }
}
