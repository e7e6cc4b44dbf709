//! The global-variable environment of a controller application — the
//! "state sensitive variables" the paper's application tracker watches.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::aging::Ledger;
pub use crate::aging::Lifetime;
use crate::index::{HashedMap, HashedSet, Probe};
use crate::value::{TypeError, Value};

/// Writes an [`Env`] remembers. A constant, not a setting: a consumer that
/// falls further behind than this re-reads the whole environment, which is
/// what every consumer did before the journal existed.
const JOURNAL_CAP: usize = 256;

/// One remembered write: what a reader that last saw an older version of
/// the [`Env`] has to look at again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Change<'a> {
    /// [`Env::learn`] inserted or overwrote `key` in the map `global`, an
    /// eviction, an expiry or a demotion removed it, or [`Env::insert`] or
    /// [`Env::remove`] added it to or took it from the set `global`.
    Key {
        /// The map or set written.
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

/// One learned map's lifetime: its entries with their stamps, and its
/// quarantine overlay.
#[derive(Debug, Clone)]
struct Aging {
    global: String,
    lifetime: Lifetime,
    /// The map's entries, hashed: also what answers its point reads.
    main: Ledger<Value>,
    overlay: Ledger<Value>,
}

/// What answers a point read of a global without descending its ordered
/// view (see [`crate::index`]).
#[derive(Debug, Clone)]
enum Index {
    /// A scalar: there is nothing to look up in it.
    Scalar,
    /// A map without a lifetime: its entries.
    Map(HashedMap),
    /// A set: its items.
    Set(HashedSet),
    /// A map with a lifetime: `Env::aging[i].main` holds its entries, so
    /// they are not hashed a second time.
    Learned(usize),
}

impl Index {
    /// The index of `value`, a global that is not a learned map.
    fn of(value: &Value) -> Index {
        match value {
            Value::Map(map) => Index::Map(HashedMap::of(map)),
            Value::Set(set) => Index::Set(HashedSet::of(set)),
            _ => Index::Scalar,
        }
    }
}

/// A global: its value, which is also the ordered view [`Env::get`]
/// returns, and the index beside it.
#[derive(Debug, Clone)]
struct Global {
    value: Value,
    index: Index,
}

/// One global resolved for point reads ([`Env::table`]): a lookup costs
/// the key it is given, not the size of the table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table<'a> {
    global: &'a Global,
    aging: &'a [Aging],
}

impl<'a> Table<'a> {
    /// The value `key` maps to in the map, if any.
    pub(crate) fn get(self, key: &dyn Probe) -> Result<Option<&'a Value>, TypeError> {
        match &self.global.index {
            Index::Map(map) => Ok(map.get(key)),
            Index::Learned(a) => Ok(self.aging[*a].main.get(&key.key().to_value())),
            _ => {
                let map = self.global.value.as_map()?;
                Ok(map.get(&*key.key().to_value()))
            }
        }
    }

    /// Whether the set holds `item`.
    pub(crate) fn contains(self, item: &dyn Probe) -> Result<bool, TypeError> {
        match &self.global.index {
            Index::Set(set) => Ok(set.contains(item)),
            _ => {
                let set = self.global.value.as_set()?;
                Ok(set.contains(&*item.key().to_value()))
            }
        }
    }
}

/// A versioned map of global variables.
///
/// Every mutation bumps the version; FloodGuard's application tracker polls
/// the version to decide when proactive flow rules must be regenerated
/// (paper §IV-D "Handling Dynamics"), and asks [`Env::changes_since`] which
/// entries moved so that it regenerates only those.
///
/// A map or set global is held twice over: in key order, which is what
/// [`Env::get`] returns and rule conversion enumerates, and hashed, which
/// is what a handler's point reads ask. A write of one key
/// ([`Env::learn`], [`Env::insert`], [`Env::remove`]) costs that key in
/// both.
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
/// Equality compares globals and version; the journal, the stamps, the
/// indexes and the overlay are bookkeeping about how the environment got
/// there.
#[derive(Debug, Clone, Default)]
pub struct Env {
    globals: BTreeMap<String, Global>,
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
        self.version == other.version
            && self.globals.len() == other.globals.len()
            && self
                .globals
                .iter()
                .zip(&other.globals)
                .all(|((a, x), (b, y))| a == b && x.value == y.value)
    }
}

impl Env {
    /// Creates an empty environment at version 0.
    pub fn new() -> Env {
        Env::default()
    }

    /// Reads a global. A learned map reads without its quarantine overlay.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.globals.get(name).map(|g| &g.value)
    }

    /// Resolves a global for point reads: a map lookup or a set membership
    /// test through it costs the key, not the table.
    pub(crate) fn table(&self, name: &str) -> Option<Table<'_>> {
        self.globals.get(name).map(|global| Table {
            global,
            aging: &self.aging,
        })
    }

    /// Writes a global, bumping the version. A map declared with a lifetime
    /// starts its entries' lifetimes over, at the environment's clock, and
    /// keeps at most its capacity of them (the first in key order).
    pub fn set(&mut self, name: &str, value: Value) {
        let aged = self.aging.iter().position(|a| a.global == name);
        // A learned map's index is its ledger, which `restamp` rebuilds.
        let index = match (aged, &value) {
            (Some(a), Value::Map(_)) => Index::Learned(a),
            _ => Index::of(&value),
        };
        // Overwrite in place: the name is allocated on first insert only.
        match self.globals.get_mut(name) {
            Some(slot) => *slot = Global { value, index },
            None => {
                self.globals
                    .insert(name.to_owned(), Global { value, index });
            }
        }
        self.version += 1;
        self.journal.record(name, None);
        if let Some(a) = aged {
            self.restamp(a);
        }
    }

    /// Adds `item` to the set global `name`, creating the set if needed.
    /// Bumps the version and journals the item ([`Change::Key`]) only when
    /// the set did not hold it; whether it did not. A global that is not a
    /// set is left alone.
    pub fn insert(&mut self, name: &str, item: Value) -> bool {
        match self.globals.get_mut(name) {
            Some(Global {
                value: Value::Set(set),
                index: Index::Set(hashed),
            }) => {
                if !hashed.insert(item.clone()) {
                    return false;
                }
                set.insert(item.clone());
                self.version += 1;
                self.journal.record(name, Some(item));
                true
            }
            Some(_) => false,
            None => {
                self.set(name, Value::Set(BTreeSet::from([item])));
                true
            }
        }
    }

    /// Takes `item` from the set global `name`. Bumps the version and
    /// journals the item ([`Change::Key`]) only when the set held it;
    /// whether it did.
    pub fn remove(&mut self, name: &str, item: &Value) -> bool {
        let Some(Global {
            value: Value::Set(set),
            index: Index::Set(hashed),
        }) = self.globals.get_mut(name)
        else {
            return false;
        };
        if !hashed.remove(item) {
            return false;
        }
        set.remove(item);
        self.version += 1;
        self.journal.record(name, Some(item.clone()));
        true
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

    /// Rebuilds the stamps of aging entry `a` from its map, which from now
    /// on they index.
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
        let Some(Global {
            value: Value::Map(map),
            index,
        }) = self.globals.get_mut(global.as_str())
        else {
            return;
        };
        *index = Index::Learned(a);
        let capacity = lifetime.capacity as usize;
        while map.len() > capacity {
            map.pop_last();
            self.aged_out += 1;
        }
        for (key, value) in map.iter() {
            main.insert(key.clone(), value.clone(), self.clock);
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
        let Some(global) = self.globals.get_mut(name) else {
            self.set(name, Value::Map(BTreeMap::from([(key, value)])));
            return;
        };
        let Global {
            value: Value::Map(map),
            index,
        } = global
        else {
            return;
        };
        match index {
            Index::Learned(a) => {
                let aging = &mut self.aging[*a];
                if let Some(old) = aging.main.get(&key) {
                    let changed = *old != value;
                    aging
                        .main
                        .refresh(&key, changed.then(|| value.clone()), self.clock);
                    if !changed {
                        return;
                    }
                } else {
                    if aging.overlay.remove(&key) {
                        self.quarantined -= 1;
                    }
                    if aging.main.len() >= aging.lifetime.capacity as usize {
                        if let Some((evicted, _)) = aging.main.evict() {
                            map.remove(&evicted);
                            self.version += 1;
                            self.journal.record(name, Some(evicted));
                            self.aged_out += 1;
                        }
                    }
                    aging.main.insert(key.clone(), value.clone(), self.clock);
                    self.next_due = self.next_due.min(aging.lifetime.first_due(self.clock));
                }
            }
            Index::Map(hashed) => {
                if hashed.get(&key) == Some(&value) {
                    return;
                }
                hashed.insert(key.clone(), value.clone());
            }
            Index::Set(_) | Index::Scalar => unreachable!("a map is indexed as one"),
        }
        map.insert(key.clone(), value);
        self.version += 1;
        self.journal.record(name, Some(key));
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
        match self.table(name).map(|table| table.get(&key)) {
            Some(Ok(None)) => {}
            Some(_) => return,
            None => self.set(name, Value::Map(BTreeMap::new())),
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
            let Some(Global {
                value: Value::Map(map),
                ..
            }) = globals.get_mut(global.as_str())
            else {
                continue;
            };
            let bound = lifetime.quarantine as usize;
            main.take_born_since(cutoff, |key, _| {
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
            if let Some(Global {
                value: Value::Map(map),
                ..
            }) = self.globals.get_mut(aging.global.as_str())
            {
                while let Some((key, _)) = aging.main.pop_due(&aging.lifetime, now) {
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
        self.globals.values().map(|g| g.value.container_len()).sum()
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
    fn set_writes_are_key_writes() {
        let mut env = Env::new();
        env.set("s", Value::Set(BTreeSet::new()));
        let v = env.version();
        assert!(env.insert("s", Value::Int(1)));
        assert_eq!(env.version(), v + 1, "one bump for one item");
        assert!(!env.insert("s", Value::Int(1)), "held already");
        assert!(!env.remove("s", &Value::Int(2)), "never held");
        assert_eq!(env.version(), v + 1, "a no-op is not a change");
        assert!(env.remove("s", &Value::Int(1)));
        assert_eq!(env.version(), v + 2);
        let item = Value::Int(1);
        assert_eq!(
            env.changes_since(v).unwrap().collect::<Vec<_>>(),
            vec![
                Change::Key {
                    global: "s",
                    key: &item
                };
                2
            ]
        );
        assert_eq!(env.get("s"), Some(&Value::Set(BTreeSet::new())));
        // Anything but a set is left alone; a missing set comes into being.
        env.set("x", Value::Int(3));
        let v = env.version();
        assert!(!env.insert("x", Value::Int(1)));
        assert!(!env.remove("x", &Value::Int(3)));
        assert!(env.insert("t", Value::Int(1)));
        assert_eq!(
            env.changes_since(v).unwrap().collect::<Vec<_>>(),
            vec![Change::Replaced { global: "t" }]
        );
        assert_eq!(
            env.get("t"),
            Some(&Value::Set(BTreeSet::from([Value::Int(1)])))
        );
    }

    mod point_reads {
        use super::*;
        use crate::builder::*;
        use crate::interp::{execute, ConcreteDecision};
        use crate::program::{GlobalSpec, Program};
        use ofproto::flow_match::FlowKeys;
        use ofproto::types::MacAddr;
        use proptest::prelude::*;

        /// `m` learned (a ledger answers it), `p` keyed by (mac, port)
        /// tuples, `s` a set of such tuples.
        fn globals() -> Vec<GlobalSpec> {
            let spec = |name: &str, initial: Value, lifetime| GlobalSpec {
                name: name.into(),
                initial,
                state_sensitive: true,
                description: String::new(),
                lifetime,
            };
            vec![
                spec("m", Value::Map(BTreeMap::new()), Some(SHORT)),
                spec("p", Value::Map(BTreeMap::new()), None),
                spec("s", Value::Set(BTreeSet::new()), None),
            ]
        }

        /// A handler that answers one point read of `map` (or of the set
        /// `s`) as its decision.
        fn probe(name: &str, body: Vec<crate::Stmt>) -> Program {
            Program::new(name, globals(), body)
        }

        fn mac(k: u8) -> Value {
            Value::Mac(MacAddr::from_u64(u64::from(k)))
        }

        fn pair(k: u8) -> Value {
            Value::Tuple(vec![mac(k), Value::Int(u64::from(k % 3))])
        }

        fn keys(k: u8) -> FlowKeys {
            FlowKeys {
                dl_src: MacAddr::from_u64(u64::from(k)),
                in_port: u16::from(k % 3),
                ..FlowKeys::default()
            }
        }

        #[derive(Debug, Clone)]
        enum Op {
            Learn(bool, u8, u8),
            Quarantine(u8, u8),
            Demote(u8),
            Expire(u8),
            Set(u8, u8),
            Insert(u8),
            Remove(u8),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (any::<bool>(), 0u8..8, 1u8..4).prop_map(|(m, k, v)| Op::Learn(m, k, v)),
                (0u8..8, 1u8..4).prop_map(|(k, v)| Op::Quarantine(k, v)),
                (0u8..30).prop_map(Op::Demote),
                (0u8..30).prop_map(Op::Expire),
                (0u8..3, 0u8..8).prop_map(|(g, k)| Op::Set(g, k)),
                (0u8..8).prop_map(Op::Insert),
                (0u8..8).prop_map(Op::Remove),
            ]
        }

        fn apply(env: &mut Env, op: &Op) {
            match *op {
                Op::Learn(true, k, v) => env.learn("m", mac(k), Value::Int(u64::from(v))),
                Op::Learn(false, k, v) => env.learn("p", pair(k), Value::Int(u64::from(v))),
                Op::Quarantine(k, v) => env.quarantine("m", mac(k), Value::Int(u64::from(v))),
                Op::Demote(t) => {
                    env.demote_since(f64::from(t));
                }
                Op::Expire(t) => {
                    env.expire(f64::from(t));
                }
                // Replace a global as a whole with the keys below `k`.
                Op::Set(0, k) => env.set(
                    "m",
                    Value::Map((0..k).map(|i| (mac(i), Value::Int(7))).collect()),
                ),
                Op::Set(1, k) => env.set(
                    "p",
                    Value::Map((0..k).map(|i| (pair(i), Value::Int(7))).collect()),
                ),
                Op::Set(_, k) => env.set("s", Value::Set((0..k).map(pair).collect())),
                Op::Insert(k) => {
                    env.insert("s", pair(k));
                }
                Op::Remove(k) => {
                    env.remove("s", &pair(k));
                }
            }
        }

        /// What a read answers, as a decision: the port a map holds, or a
        /// flood where it holds none.
        fn answer(found: Option<&Value>) -> ConcreteDecision {
            found.map_or(ConcreteDecision::PacketOutFlood, |port| {
                ConcreteDecision::PacketOutPort(port.as_int().unwrap() as u16)
            })
        }

        proptest! {
            #[test]
            fn every_point_read_agrees_with_the_ordered_view(
                ops in proptest::collection::vec(arb_op(), 1..40)
            ) {
                let get = |map: &str, key: Expr| {
                    vec![if_else(
                        map_contains(global(map), key.clone()),
                        vec![emit(Decision::PacketOutPort(map_get(global(map), key)))],
                        vec![emit(Decision::PacketOutFlood)],
                    )]
                };
                let pair_expr = || tuple([field(Field::DlSrc), field(Field::InPort)]);
                let learned = probe("m", get("m", field(Field::DlSrc)));
                let hashed = probe("p", get("p", pair_expr()));
                let member = probe(
                    "s",
                    vec![if_else(
                        set_contains(global("s"), pair_expr()),
                        vec![emit(Decision::Drop)],
                        vec![emit(Decision::PacketOutFlood)],
                    )],
                );
                let mut env = learned.initial_env();
                for op in &ops {
                    apply(&mut env, op);
                    for k in 0..8 {
                        let view = |name: &str| env.get(name).unwrap().clone();
                        let (m, p, s) = (view("m"), view("p"), view("s"));
                        let in_m = m.as_map().unwrap().get(&mac(k));
                        let expected = answer(in_m.or_else(|| env.quarantined("m", &mac(k))));
                        let version = env.version();
                        let read = execute(&learned, &keys(k), &mut env).unwrap();
                        prop_assert_eq!(read.decision, expected, "m[{}] after {:?}", k, op);
                        let expected = answer(p.as_map().unwrap().get(&pair(k)));
                        let read = execute(&hashed, &keys(k), &mut env).unwrap();
                        prop_assert_eq!(read.decision, expected, "p[{}] after {:?}", k, op);
                        let expected = if s.as_set().unwrap().contains(&pair(k)) {
                            ConcreteDecision::Drop
                        } else {
                            ConcreteDecision::PacketOutFlood
                        };
                        let read = execute(&member, &keys(k), &mut env).unwrap();
                        prop_assert_eq!(read.decision, expected, "{} in s after {:?}", k, op);
                        prop_assert_eq!(env.version(), version, "a read writes nothing");
                    }
                }
            }
        }
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
