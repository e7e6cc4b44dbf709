//! The global-variable environment of a controller application — the
//! "state sensitive variables" the paper's application tracker watches.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// A versioned map of global variables.
///
/// Every mutation bumps the version; FloodGuard's application tracker polls
/// the version to decide when proactive flow rules must be regenerated
/// (paper §IV-D "Handling Dynamics").
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Env {
    globals: BTreeMap<String, Value>,
    version: u64,
}

impl Env {
    /// Creates an empty environment at version 0.
    pub fn new() -> Env {
        Env::default()
    }

    /// Reads a global.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    /// Writes a global, bumping the version.
    pub fn set(&mut self, name: &str, value: Value) {
        // Overwrite in place: the name is allocated on first insert only.
        match self.globals.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.globals.insert(name.to_owned(), value);
            }
        }
        self.version += 1;
    }

    /// Inserts `key -> value` into the map global `name`, creating the map
    /// if needed. Bumps the version only when the map actually changes.
    pub fn learn(&mut self, name: &str, key: Value, value: Value) {
        match self.globals.get_mut(name) {
            Some(Value::Map(map)) => {
                if map.get(&key) != Some(&value) {
                    map.insert(key, value);
                    self.version += 1;
                }
            }
            Some(_) => {}
            None => {
                let map = BTreeMap::from([(key, value)]);
                self.globals.insert(name.to_owned(), Value::Map(map));
                self.version += 1;
            }
        }
    }

    /// The current version; grows monotonically with mutations.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Names of all defined globals.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.globals.keys().map(String::as_str)
    }

    /// Number of defined globals.
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// Whether no globals are defined.
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// Total entries across all container-valued globals (a size measure of
    /// the application's dynamic state).
    pub fn state_size(&self) -> usize {
        self.globals.values().map(Value::container_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut env = Env::new();
        assert!(env.is_empty());
        env.set("x", Value::Int(1));
        assert_eq!(env.get("x"), Some(&Value::Int(1)));
        assert_eq!(env.get("y"), None);
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn version_bumps_on_mutation() {
        let mut env = Env::new();
        assert_eq!(env.version(), 0);
        env.set("x", Value::Int(1));
        assert_eq!(env.version(), 1);
        env.set("x", Value::Int(2));
        assert_eq!(env.version(), 2);
    }

    #[test]
    fn learn_creates_map_and_dedups() {
        let mut env = Env::new();
        env.learn("macToPort", Value::Int(0xa), Value::Int(1));
        assert_eq!(env.version(), 1);
        // Re-learning the same mapping is not a change.
        env.learn("macToPort", Value::Int(0xa), Value::Int(1));
        assert_eq!(env.version(), 1);
        // A new value is.
        env.learn("macToPort", Value::Int(0xa), Value::Int(2));
        assert_eq!(env.version(), 2);
        env.learn("macToPort", Value::Int(0xb), Value::Int(3));
        assert_eq!(env.version(), 3);
        assert_eq!(env.get("macToPort").unwrap().container_len(), 2);
    }

    #[test]
    fn state_size_sums_containers() {
        let mut env = Env::new();
        env.learn("m", Value::Int(1), Value::Int(1));
        env.learn("m", Value::Int(2), Value::Int(2));
        env.set("scalar", Value::Int(9));
        assert_eq!(env.state_size(), 2);
    }
}
