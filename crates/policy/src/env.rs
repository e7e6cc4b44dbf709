//! The global-variable environment of a controller application — the
//! "state sensitive variables" the paper's application tracker watches.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// Writes an [`Env`] remembers. A constant, not a setting: a consumer that
/// falls further behind than this re-reads the whole environment, which is
/// what every consumer did before the journal existed.
const JOURNAL_CAP: usize = 256;

/// One remembered write: what a reader that last saw an older version of
/// the [`Env`] has to look at again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Change<'a> {
    /// [`Env::learn`] inserted or overwrote `key` in the map `global`.
    Key {
        /// The map written.
        global: &'a str,
        /// The key written.
        key: &'a Value,
    },
    /// `global` was replaced as a whole ([`Env::set`]) or came into being.
    Replaced {
        /// The global written.
        global: &'a str,
    },
}

/// One journal slot: the written global as an index into
/// [`Journal::names`], and the key for a map-key write.
#[derive(Debug, Clone)]
struct Write {
    global: usize,
    key: Option<Value>,
}

/// The last [`JOURNAL_CAP`] writes, oldest first. Every version bump
/// records exactly one, so the slots cover versions
/// `(version - writes.len(), version]` without storing them.
#[derive(Debug, Clone, Default)]
struct Journal {
    /// Interned global names (a handful per application).
    names: Vec<String>,
    writes: VecDeque<Write>,
}

impl Journal {
    fn record(&mut self, name: &str, key: Option<Value>) {
        let global = match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_owned());
                self.names.len() - 1
            }
        };
        if self.writes.len() == JOURNAL_CAP {
            self.writes.pop_front();
        }
        self.writes.push_back(Write { global, key });
    }
}

/// A versioned map of global variables.
///
/// Every mutation bumps the version; FloodGuard's application tracker polls
/// the version to decide when proactive flow rules must be regenerated
/// (paper §IV-D "Handling Dynamics"), and asks [`Env::changes_since`] which
/// entries moved so that it regenerates only those.
///
/// Equality compares globals and version; the journal is bookkeeping about
/// how the environment got there.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Env {
    globals: BTreeMap<String, Value>,
    version: u64,
    #[serde(skip)]
    journal: Journal,
}

impl PartialEq for Env {
    fn eq(&self, other: &Env) -> bool {
        self.globals == other.globals && self.version == other.version
    }
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
        self.journal.record(name, None);
    }

    /// Inserts `key -> value` into the map global `name`, creating the map
    /// if needed. Bumps the version only when the map actually changes.
    pub fn learn(&mut self, name: &str, key: Value, value: Value) {
        match self.globals.get_mut(name) {
            Some(Value::Map(map)) => {
                if map.get(&key) != Some(&value) {
                    map.insert(key.clone(), value);
                    self.version += 1;
                    self.journal.record(name, Some(key));
                }
            }
            Some(_) => {}
            None => {
                let map = BTreeMap::from([(key, value)]);
                self.globals.insert(name.to_owned(), Value::Map(map));
                self.version += 1;
                self.journal.record(name, None);
            }
        }
    }

    /// The writes made since the environment was at `version`, oldest
    /// first, or `None` when the journal no longer reaches back that far
    /// (more than a constant number of writes ago, or a `version` this
    /// environment never had): the reader must then start over from the
    /// globals themselves. A version identifies a state only within one
    /// environment's history, so this is for a reader that took `version`
    /// from this environment (or from the one it was cloned from).
    pub fn changes_since(&self, version: u64) -> Option<impl Iterator<Item = Change<'_>>> {
        let behind = usize::try_from(self.version.checked_sub(version)?).ok()?;
        let skip = self.journal.writes.len().checked_sub(behind)?;
        let names = &self.journal.names;
        Some(self.journal.writes.iter().skip(skip).map(move |w| {
            let global = names[w.global].as_str();
            match &w.key {
                Some(key) => Change::Key { global, key },
                None => Change::Replaced { global },
            }
        }))
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
    fn journal_replays_writes_since_a_version() {
        let mut env = Env::new();
        env.set("x", Value::Int(1));
        env.learn("m", Value::Int(0xa), Value::Int(1)); // creates the map
        let seen = env.version();
        assert_eq!(env.changes_since(seen).unwrap().count(), 0);
        env.learn("m", Value::Int(0xb), Value::Int(2));
        env.learn("m", Value::Int(0xb), Value::Int(2)); // no change, no entry
        env.learn("m", Value::Int(0xa), Value::Int(3)); // overwrite
        env.set("x", Value::Int(2));
        let changes: Vec<_> = env.changes_since(seen).unwrap().collect();
        assert_eq!(
            changes,
            vec![
                Change::Key {
                    global: "m",
                    key: &Value::Int(0xb)
                },
                Change::Key {
                    global: "m",
                    key: &Value::Int(0xa)
                },
                Change::Replaced { global: "x" },
            ]
        );
        // From the start: the map's creation reads as a replacement.
        let all: Vec<_> = env.changes_since(0).unwrap().collect();
        assert_eq!(all.len(), 5);
        assert_eq!(all[1], Change::Replaced { global: "m" });
        // A version this environment has not reached yet.
        assert!(env.changes_since(env.version() + 1).is_none());
    }

    #[test]
    fn journal_is_bounded_and_says_when_it_forgot() {
        let mut env = Env::new();
        for i in 0..JOURNAL_CAP as u64 + 10 {
            env.learn("m", Value::Int(i), Value::Int(i));
        }
        assert_eq!(env.journal.writes.len(), JOURNAL_CAP);
        let v = env.version();
        assert!(env.changes_since(v - JOURNAL_CAP as u64 - 1).is_none());
        assert_eq!(
            env.changes_since(v - JOURNAL_CAP as u64).unwrap().count(),
            JOURNAL_CAP
        );
        // A clone carries the journal; equality ignores it.
        let mut fresh = Env::new();
        fresh.globals = env.globals.clone();
        fresh.version = env.version;
        assert_eq!(fresh, env);
        assert!(fresh.changes_since(v - 1).is_none());
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
