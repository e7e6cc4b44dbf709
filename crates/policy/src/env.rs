//! The global-variable environment of a controller application — the
//! "state sensitive variables" the paper's application tracker watches.

use std::collections::{BTreeMap, VecDeque};

use crate::aging::Ledger;
pub use crate::aging::Lifetime;
use crate::value::Value;

/// Writes an [`Env`] remembers. A constant, not a setting: a consumer that
/// falls further behind than this re-reads the whole environment, which is
/// what every consumer did before the journal existed.
const JOURNAL_CAP: usize = 256;

/// One remembered write: what a reader that last saw an older version of
/// the [`Env`] has to look at again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Change<'a> {
    /// [`Env::learn`] inserted or overwrote `key` in the map `global`, or
    /// an eviction, an expiry or a demotion removed it.
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

/// One learned map's lifetime: the stamps of its entries, and its
/// quarantine overlay.
#[derive(Debug, Clone)]
struct Aging {
    global: String,
    lifetime: Lifetime,
    main: Ledger<()>,
    overlay: Ledger<Value>,
}

/// A versioned map of global variables.
///
/// Every mutation bumps the version; FloodGuard's application tracker polls
/// the version to decide when proactive flow rules must be regenerated
/// (paper §IV-D "Handling Dynamics"), and asks [`Env::changes_since`] which
/// entries moved so that it regenerates only those.
///
/// A map declared with a [`Lifetime`] ([`Env::declare_lifetime`]) forgets
/// entries nobody learns again, holds a bounded number of them, and has a
/// quarantine overlay: entries learned from packets nobody vouches for
/// ([`Env::quarantine`]) live there, where the application's handler reads
/// them ([`Env::quarantined`]) but [`Env::get`] — what rule conversion
/// reads — does not, and writing one changes neither the version nor the
/// journal. Entries learned since a point in time can be moved there after
/// the fact ([`Env::demote_since`]).
///
/// Equality compares globals and version; the journal, the stamps and the
/// overlay are bookkeeping about how the environment got there.
#[derive(Debug, Clone, Default)]
pub struct Env {
    globals: BTreeMap<String, Value>,
    version: u64,
    journal: Journal,
    aging: Vec<Aging>,
    /// The latest time a learn or a sweep was stamped with; learns that
    /// carry no time are stamped with it.
    clock: f64,
    /// Entries across every overlay: zero keeps the overlay read to one
    /// branch.
    quarantined: usize,
    /// Entries forgotten by expiry or eviction, main maps and overlays.
    aged_out: u64,
    /// No entry is due before this time (a lower bound: a refresh only
    /// makes an entry due later), so a sweep before it reads one number.
    next_due: f64,
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

    /// Reads a global. A learned map reads without its quarantine overlay.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    /// Writes a global, bumping the version. A map declared with a lifetime
    /// starts its entries' lifetimes over, at the environment's clock, and
    /// keeps at most its capacity of them (the first in key order).
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
        if let Some(a) = self.aging.iter().position(|a| a.global == name) {
            self.restamp(a);
        }
    }

    /// Gives the map global `name` a lifetime: its current entries are
    /// stamped at the environment's clock, and from now on it is bounded
    /// and has a quarantine overlay. Declaring again replaces the lifetime
    /// and starts every entry's over.
    pub fn declare_lifetime(&mut self, name: &str, lifetime: Lifetime) {
        let a = match self.aging.iter().position(|a| a.global == name) {
            Some(a) => {
                self.aging[a].lifetime = lifetime;
                a
            }
            None => {
                self.aging.push(Aging {
                    global: name.to_owned(),
                    lifetime,
                    main: Ledger::default(),
                    overlay: Ledger::default(),
                });
                self.aging.len() - 1
            }
        };
        self.restamp(a);
    }

    /// The lifetime declared for `name`, if any.
    pub fn lifetime(&self, name: &str) -> Option<Lifetime> {
        self.aging
            .iter()
            .find(|a| a.global == name)
            .map(|a| a.lifetime)
    }

    /// Rebuilds the stamps of aging entry `a` from its map.
    fn restamp(&mut self, a: usize) {
        let Aging {
            global,
            lifetime,
            main,
            overlay,
        } = &mut self.aging[a];
        main.clear();
        // Every entry is stamped anew: the next sweep looks.
        self.next_due = f64::NEG_INFINITY;
        let Some(Value::Map(map)) = self.globals.get_mut(global.as_str()) else {
            return;
        };
        let capacity = lifetime.capacity as usize;
        while map.len() > capacity {
            map.pop_last();
            self.aged_out += 1;
        }
        for key in map.keys() {
            main.insert(key.clone(), (), self.clock);
            if overlay.remove(key) {
                self.quarantined -= 1;
            }
        }
    }

    /// Advances the clock learns are stamped with (it never goes back).
    pub fn advance(&mut self, now: f64) {
        if now > self.clock {
            self.clock = now;
        }
    }

    /// The latest time the environment was advanced to.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Inserts `key -> value` into the map global `name`, creating the map
    /// if needed. Bumps the version only when the map actually changes.
    ///
    /// In a map with a lifetime, re-learning a known key only restamps it
    /// (no allocation, no journal entry); a key held in quarantine moves
    /// into the map; and a new key at capacity first evicts the least
    /// recently seen entry (a write of its own).
    pub fn learn(&mut self, name: &str, key: Value, value: Value) {
        let aging = self.aging.iter_mut().find(|a| a.global == name);
        match self.globals.get_mut(name) {
            Some(Value::Map(map)) => {
                let (known, unchanged) = match map.get(&key) {
                    Some(old) => (true, *old == value),
                    None => (false, false),
                };
                if let Some(aging) = aging {
                    if known {
                        aging.main.refresh(&key, None, self.clock);
                    } else {
                        if aging.overlay.remove(&key) {
                            self.quarantined -= 1;
                        }
                        if aging.main.len() >= aging.lifetime.capacity as usize {
                            if let Some((evicted, ())) = aging.main.evict() {
                                map.remove(&evicted);
                                self.version += 1;
                                self.journal.record(name, Some(evicted));
                                self.aged_out += 1;
                            }
                        }
                        aging.main.insert(key.clone(), (), self.clock);
                        self.next_due = self.next_due.min(aging.lifetime.first_due(self.clock));
                    }
                }
                if !unchanged {
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
                if let Some(a) = self.aging.iter().position(|a| a.global == name) {
                    self.restamp(a);
                }
            }
        }
    }

    /// Learns `key -> value` into the quarantine overlay of the map global
    /// `name`, for a packet nobody vouches for (FloodGuard: one the data
    /// plane cache re-raised). The handler reads the entry back through
    /// [`Env::quarantined`]; [`Env::get`], the version and the journal do
    /// not see it, so no rule is converted from it. A key the map holds
    /// already is left alone: a spoofed claim can neither change nor keep
    /// alive what was learned from trusted traffic. At the overlay's bound
    /// its own least recently seen entry is evicted. A map written here
    /// first, and not declared, gets [`Lifetime::LEARNED`].
    pub fn quarantine(&mut self, name: &str, key: Value, value: Value) {
        match self.globals.get(name) {
            Some(Value::Map(map)) if map.contains_key(&key) => return,
            Some(Value::Map(_)) => {}
            Some(_) => return,
            None => {
                self.globals
                    .insert(name.to_owned(), Value::Map(BTreeMap::new()));
                self.version += 1;
                self.journal.record(name, None);
            }
        }
        let a = match self.aging.iter().position(|a| a.global == name) {
            Some(a) => a,
            None => {
                self.declare_lifetime(name, Lifetime::LEARNED);
                self.aging.len() - 1
            }
        };
        let aging = &mut self.aging[a];
        let overlay = &mut aging.overlay;
        if overlay.refresh(&key, Some(value.clone()), self.clock) {
            return;
        }
        let bound = aging.lifetime.quarantine as usize;
        if bound == 0 {
            return;
        }
        // Sized once for its bound: what an overlay holds does not grow with
        // the number of sources that came and went.
        overlay.reserve_bound(bound);
        if overlay.len() >= bound && overlay.evict().is_some() {
            self.quarantined -= 1;
            self.aged_out += 1;
        }
        overlay.insert(key, value, self.clock);
        self.quarantined += 1;
        self.next_due = self.next_due.min(aging.lifetime.first_due(self.clock));
    }

    /// Moves every entry first learned at or after `cutoff`, in every map
    /// with a lifetime, into that map's quarantine overlay, oldest first:
    /// learns nobody can vouch for after the fact (FloodGuard: what the
    /// flood's onset taught before it was detected). Each leaves the map
    /// as a write of its own, so readers of the journal see the key go; the
    /// handler still reads its value from the overlay, and a trusted learn
    /// promotes it back. At the overlay's bound the overlay evicts its own
    /// least recently seen entry. Returns how many left the maps. Costs
    /// what it moves: each map's walk stops at its first older entry.
    pub fn demote_since(&mut self, cutoff: f64) -> usize {
        let Env {
            globals,
            version,
            journal,
            aging,
            clock,
            quarantined,
            aged_out,
            next_due,
        } = self;
        let mut demoted = 0;
        for Aging {
            global,
            lifetime,
            main,
            overlay,
        } in aging
        {
            let Some(Value::Map(map)) = globals.get_mut(global.as_str()) else {
                continue;
            };
            let bound = lifetime.quarantine as usize;
            main.take_born_since(cutoff, |key, ()| {
                let Some(value) = map.remove(&key) else {
                    return;
                };
                *version += 1;
                journal.record(global, Some(key.clone()));
                demoted += 1;
                if bound == 0 {
                    *aged_out += 1;
                    return;
                }
                overlay.reserve_bound(bound);
                if overlay.len() >= bound && overlay.evict().is_some() {
                    *quarantined -= 1;
                    *aged_out += 1;
                }
                debug_assert!(
                    overlay.get(&key).is_none(),
                    "a key is in the map or the overlay"
                );
                overlay.insert(key, value, *clock);
                *quarantined += 1;
                *next_due = next_due.min(lifetime.first_due(*clock));
            });
        }
        demoted
    }

    /// The quarantined value of `key` in the map global `name`, if any.
    pub fn quarantined(&self, name: &str, key: &Value) -> Option<&Value> {
        if self.quarantined == 0 {
            return None;
        }
        self.aging
            .iter()
            .find(|a| a.global == name)
            .and_then(|a| a.overlay.get(key))
    }

    /// Forgets every entry due at `now` (the clock advances to it): main
    /// map entries as writes of their own, so readers of the journal see
    /// the key go, and overlay entries silently. Returns how many went. A
    /// sweep before the earliest time an entry can be due compares one
    /// number and allocates nothing.
    pub fn expire(&mut self, now: f64) -> usize {
        self.advance(now);
        if now < self.next_due {
            return 0;
        }
        let mut gone = 0;
        let mut next_due = f64::INFINITY;
        for aging in &mut self.aging {
            while aging.overlay.pop_due(&aging.lifetime, now).is_some() {
                self.quarantined -= 1;
                gone += 1;
            }
            if let Some(Value::Map(map)) = self.globals.get_mut(aging.global.as_str()) {
                while let Some((key, ())) = aging.main.pop_due(&aging.lifetime, now) {
                    map.remove(&key);
                    self.version += 1;
                    self.journal.record(&aging.global, Some(key));
                    gone += 1;
                }
            }
            next_due = next_due
                .min(aging.main.next_due(&aging.lifetime))
                .min(aging.overlay.next_due(&aging.lifetime));
        }
        self.next_due = next_due;
        self.aged_out += gone as u64;
        gone
    }

    /// Entries held by the maps declared with a lifetime (overlays not
    /// counted).
    pub fn learned_len(&self) -> usize {
        self.aging.iter().map(|a| a.main.len()).sum()
    }

    /// Entries held in quarantine overlays.
    pub fn quarantined_len(&self) -> usize {
        self.quarantined
    }

    /// Entries forgotten so far by expiry or eviction.
    pub fn aged_out(&self) -> u64 {
        self.aged_out
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

    const SHORT: Lifetime = Lifetime {
        idle_timeout: 10,
        hard_timeout: 0,
        capacity: 3,
        quarantine: 2,
    };

    /// An environment with the map `m` declared with `lifetime`.
    fn aging_env(lifetime: Lifetime) -> Env {
        let mut env = Env::new();
        env.set("m", Value::Map(BTreeMap::new()));
        env.declare_lifetime("m", lifetime);
        env
    }

    fn keys(env: &Env) -> Vec<u64> {
        let map = env.get("m").unwrap().as_map().unwrap();
        map.keys().map(|k| k.as_int().unwrap()).collect()
    }

    #[test]
    fn quarantine_is_read_back_but_invisible_to_readers_of_the_map() {
        let mut env = aging_env(SHORT);
        let v = env.version();
        env.quarantine("m", Value::Int(7), Value::Int(3));
        assert_eq!(env.version(), v, "no version bump");
        assert_eq!(env.changes_since(v).unwrap().count(), 0, "no journal entry");
        assert!(keys(&env).is_empty(), "get sees the map only");
        assert_eq!(env.quarantined("m", &Value::Int(7)), Some(&Value::Int(3)));
        assert_eq!(env.quarantined("m", &Value::Int(8)), None);
        assert_eq!(env.quarantined_len(), 1);
        // A learned key is left alone by a quarantined claim on it.
        env.learn("m", Value::Int(1), Value::Int(1));
        let v = env.version();
        env.quarantine("m", Value::Int(1), Value::Int(3));
        assert_eq!(env.version(), v);
        assert_eq!(
            env.get("m").unwrap().as_map().unwrap()[&Value::Int(1)],
            Value::Int(1)
        );
        assert_eq!(env.quarantined("m", &Value::Int(1)), None);
    }

    #[test]
    fn a_trusted_learn_promotes_a_quarantined_key() {
        let mut env = aging_env(SHORT);
        env.quarantine("m", Value::Int(7), Value::Int(3));
        let v = env.version();
        env.learn("m", Value::Int(7), Value::Int(3));
        assert_eq!(keys(&env), vec![7]);
        assert_eq!(env.quarantined_len(), 0);
        assert_eq!(
            env.changes_since(v).unwrap().collect::<Vec<_>>(),
            vec![Change::Key {
                global: "m",
                key: &Value::Int(7)
            }]
        );
    }

    #[test]
    fn relearning_refreshes_without_a_journal_entry() {
        let mut env = aging_env(SHORT);
        env.learn("m", Value::Int(1), Value::Int(1));
        let v = env.version();
        env.advance(5.0);
        env.learn("m", Value::Int(1), Value::Int(1));
        assert_eq!(env.version(), v);
        // Idle from 5 s, not from 0 s.
        assert_eq!(env.expire(14.0), 0);
        assert_eq!(env.expire(15.0), 1);
        assert_eq!(
            env.changes_since(v).unwrap().collect::<Vec<_>>(),
            vec![Change::Key {
                global: "m",
                key: &Value::Int(1)
            }],
            "an expiry is a write of its own"
        );
        assert!(keys(&env).is_empty());
        assert_eq!(env.aged_out(), 1);
    }

    #[test]
    fn hard_timeout_ends_an_entry_however_often_it_is_seen() {
        let mut env = aging_env(Lifetime {
            hard_timeout: 12,
            ..SHORT
        });
        env.learn("m", Value::Int(1), Value::Int(1));
        for t in [4.0, 8.0, 11.0] {
            env.advance(t);
            env.learn("m", Value::Int(1), Value::Int(1));
            assert_eq!(env.expire(t), 0);
        }
        assert_eq!(env.expire(12.0), 1);
    }

    #[test]
    fn capacity_evicts_the_least_recently_seen() {
        let mut env = aging_env(SHORT);
        for k in 1..=3 {
            env.advance(k as f64);
            env.learn("m", Value::Int(k), Value::Int(k));
        }
        env.advance(4.0);
        env.learn("m", Value::Int(1), Value::Int(1)); // 2 is now the oldest seen
        env.learn("m", Value::Int(4), Value::Int(4));
        assert_eq!(keys(&env), vec![1, 3, 4]);
        assert_eq!(env.learned_len(), 3);
        assert_eq!(env.aged_out(), 1);
    }

    #[test]
    fn the_overlay_has_its_own_bound_and_never_evicts_the_map() {
        let mut env = aging_env(SHORT);
        env.learn("m", Value::Int(1), Value::Int(1));
        for k in 10..20 {
            env.quarantine("m", Value::Int(k), Value::Int(2));
        }
        assert_eq!(env.quarantined_len(), 2);
        assert_eq!(env.quarantined("m", &Value::Int(19)), Some(&Value::Int(2)));
        assert_eq!(env.quarantined("m", &Value::Int(17)), None);
        assert_eq!(keys(&env), vec![1]);
        // Overlay entries age out too, silently.
        let v = env.version();
        assert_eq!(env.expire(10.0), 3);
        assert_eq!(env.quarantined_len(), 0);
        assert_eq!(
            env.changes_since(v).unwrap().count(),
            1,
            "the map's entry only"
        );
    }

    #[test]
    fn demotion_moves_what_was_born_since_the_cutoff_into_the_overlay() {
        let mut env = aging_env(SHORT);
        env.learn("m", Value::Int(1), Value::Int(1));
        env.advance(5.0);
        env.learn("m", Value::Int(2), Value::Int(2));
        env.learn("m", Value::Int(1), Value::Int(9)); // re-learned, born at 0
        let v = env.version();
        assert_eq!(env.demote_since(4.0), 1);
        assert_eq!(keys(&env), vec![1]);
        assert_eq!(env.learned_len(), 1);
        assert_eq!(env.quarantined("m", &Value::Int(2)), Some(&Value::Int(2)));
        assert_eq!(env.quarantined_len(), 1);
        assert_eq!(
            env.changes_since(v).unwrap().collect::<Vec<_>>(),
            vec![Change::Key {
                global: "m",
                key: &Value::Int(2)
            }],
            "a demotion is a write of its own"
        );
        assert_eq!(env.aged_out(), 0);
        // A trusted learn promotes it back.
        env.learn("m", Value::Int(2), Value::Int(2));
        assert_eq!(keys(&env), vec![1, 2]);
        assert_eq!(env.quarantined_len(), 0);
    }

    #[test]
    fn demotion_past_the_overlay_bound_evicts_only_overlay_entries() {
        let mut env = aging_env(Lifetime {
            capacity: 16,
            ..SHORT
        });
        env.learn("m", Value::Int(1), Value::Int(1));
        env.advance(1.0);
        env.quarantine("m", Value::Int(100), Value::Int(3));
        for k in 10..14 {
            env.learn("m", Value::Int(k), Value::Int(k));
        }
        // Four demoted into an overlay of two that held one already: the
        // quarantined source and the two oldest demoted entries go.
        assert_eq!(env.demote_since(1.0), 4);
        assert_eq!(keys(&env), vec![1]);
        assert_eq!(env.quarantined_len(), 2);
        assert_eq!(env.quarantined("m", &Value::Int(100)), None);
        assert_eq!(env.quarantined("m", &Value::Int(12)), Some(&Value::Int(12)));
        assert_eq!(env.quarantined("m", &Value::Int(13)), Some(&Value::Int(13)));
        assert_eq!(env.aged_out(), 3);
    }

    #[test]
    fn more_demotions_than_the_journal_holds_send_readers_back_to_the_globals() {
        let mut env = aging_env(Lifetime {
            capacity: 1024,
            quarantine: 1024,
            ..SHORT
        });
        env.advance(1.0);
        for k in 0..JOURNAL_CAP as u64 + 1 {
            env.learn("m", Value::Int(k), Value::Int(k));
        }
        let v = env.version();
        assert_eq!(env.demote_since(1.0), JOURNAL_CAP + 1);
        assert_eq!(env.version(), v + JOURNAL_CAP as u64 + 1);
        assert!(env.changes_since(v).is_none());
        assert!(env.changes_since(v + 1).is_some());
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
