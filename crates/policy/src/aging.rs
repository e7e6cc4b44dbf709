//! Lifetimes of learned entries: when an entry of a learned map is
//! forgotten, and which one goes when the map is full.
//!
//! A [`Ledger`] keeps one slot per entry in a slab, threaded on two
//! intrusive lists: by last learn (the least recently seen entry is the
//! head) and by first learn (the oldest is the head). Re-learning a known
//! key moves its slot to the tail of the first list and allocates nothing;
//! an expiry sweep reads the two heads and stops at the first entry not
//! due, so a sweep with nothing due costs two comparisons. Taking the
//! entries first learned since some time walks the second list back from
//! its tail and stops at the first older one, so it costs what it takes.

use std::collections::HashMap;

use crate::value::Value;

/// How long an entry of a learned map lives and how many entries the map
/// holds. Declared per map in [`crate::program::GlobalSpec`]; timeouts are
/// whole seconds, like OpenFlow's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lifetime {
    /// Seconds an entry lives without being learned again.
    pub idle_timeout: u32,
    /// Seconds an entry lives after it was first learned, however often it
    /// is learned again; 0 for no such limit.
    pub hard_timeout: u32,
    /// Entries the map holds; at capacity, learning a new key evicts the
    /// least recently seen one.
    pub capacity: u32,
    /// Entries the map's quarantine overlay holds (see
    /// [`crate::env::Env::quarantine`]); at that bound the overlay evicts
    /// its own least recently seen entry, never one of the map's.
    pub quarantine: u32,
}

impl Lifetime {
    /// The lifetime of a table learned from traffic: 802.1D's 300 s MAC
    /// aging, an hour at most, room for 16384 hosts and 1024 quarantined
    /// sources.
    pub const LEARNED: Lifetime = Lifetime {
        idle_timeout: 300,
        hard_timeout: 3600,
        capacity: 16384,
        quarantine: 1024,
    };

    /// The earliest an entry stamped at `stamp` can be due.
    pub(crate) fn first_due(&self, stamp: f64) -> f64 {
        let idle = f64::from(self.idle_timeout);
        match self.hard_timeout {
            0 => stamp + idle,
            hard => stamp + idle.min(f64::from(hard)),
        }
    }

    /// Whether an entry first learned at `born` and last at `seen` is due
    /// at `now`.
    fn due(&self, born: f64, seen: f64, now: f64) -> bool {
        seen + f64::from(self.idle_timeout) <= now
            || (self.hard_timeout > 0 && born + f64::from(self.hard_timeout) <= now)
    }
}

const NIL: u32 = u32::MAX;
/// The list ordered by last learn.
const SEEN: usize = 0;
/// The list ordered by first learn.
const BORN: usize = 1;

#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

const UNLINKED: Link = Link {
    prev: NIL,
    next: NIL,
};

#[derive(Debug, Clone)]
struct Slot<V> {
    key: Value,
    value: V,
    born: f64,
    seen: f64,
    links: [Link; 2],
}

/// One map's entries with their stamps. A learned map's ledger is also
/// its hash index: [`crate::env::Env`] answers point reads of the map from
/// it rather than from the map's ordered view.
#[derive(Debug, Clone)]
pub(crate) struct Ledger<V> {
    index: HashMap<Value, u32>,
    slots: Vec<Slot<V>>,
    free: Vec<u32>,
    /// (head, tail) of each list.
    ends: [(u32, u32); 2],
}

impl<V> Default for Ledger<V> {
    fn default() -> Self {
        Ledger {
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            ends: [(NIL, NIL); 2],
        }
    }
}

impl<V> Ledger<V> {
    /// A ledger that holds `bound` entries without allocating again, and
    /// whose index never grows past its first size however many keys come
    /// and go (at most half full, so rehashing away tombstones stays in
    /// place).
    pub(crate) fn with_bound(bound: usize) -> Self {
        Ledger {
            index: HashMap::with_capacity(2 * bound),
            slots: Vec::with_capacity(bound),
            free: Vec::with_capacity(1),
            ..Ledger::default()
        }
    }

    /// Makes an empty ledger [`Ledger::with_bound`] unless it is already.
    pub(crate) fn reserve_bound(&mut self, bound: usize) {
        if self.is_empty() && self.slots.capacity() < bound {
            *self = Ledger::with_bound(bound);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub(crate) fn get(&self, key: &Value) -> Option<&V> {
        self.index.get(key).map(|&i| &self.slots[i as usize].value)
    }

    /// Stamps `key` seen at `now` (and its value, if given); `false` when
    /// it is not held.
    pub(crate) fn refresh(&mut self, key: &Value, value: Option<V>, now: f64) -> bool {
        let Some(&i) = self.index.get(key) else {
            return false;
        };
        self.unlink(SEEN, i);
        self.link_tail(SEEN, i);
        let slot = &mut self.slots[i as usize];
        slot.seen = now;
        if let Some(value) = value {
            slot.value = value;
        }
        true
    }

    /// Adds `key`, born and seen at `now`. The caller checked it is new.
    pub(crate) fn insert(&mut self, key: Value, value: V, now: f64) {
        let slot = Slot {
            key: key.clone(),
            value,
            born: now,
            seen: now,
            links: [UNLINKED; 2],
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(key, i);
        self.link_tail(SEEN, i);
        self.link_tail(BORN, i);
    }

    /// Forgets `key`; whether it was held.
    pub(crate) fn remove(&mut self, key: &Value) -> bool
    where
        V: Default,
    {
        match self.index.get(key) {
            Some(&i) => {
                self.take(i);
                true
            }
            None => false,
        }
    }

    /// Forgets the least recently seen entry.
    pub(crate) fn evict(&mut self) -> Option<(Value, V)>
    where
        V: Default,
    {
        match self.ends[SEEN].0 {
            NIL => None,
            head => Some(self.take(head)),
        }
    }

    /// Forgets the next entry due at `now` under `lifetime`, if any: the
    /// least recently seen, or else the oldest. Entries are stamped with a
    /// clock that never goes back, so each list is in stamp order and only
    /// its head can be the first due.
    pub(crate) fn pop_due(&mut self, lifetime: &Lifetime, now: f64) -> Option<(Value, V)>
    where
        V: Default,
    {
        for list in [SEEN, BORN] {
            let head = self.ends[list].0;
            if head == NIL {
                return None;
            }
            let slot = &self.slots[head as usize];
            if lifetime.due(slot.born, slot.seen, now) {
                return Some(self.take(head));
            }
        }
        None
    }

    /// Forgets every entry first learned at or after `cutoff`, handing
    /// each to `take` oldest first. The walk starts at the tail of the
    /// first-learn list and stops at the first entry born before
    /// `cutoff`, so it costs what it takes: when it was last seen does
    /// not matter.
    pub(crate) fn take_born_since(&mut self, cutoff: f64, mut take: impl FnMut(Value, V))
    where
        V: Default,
    {
        let mut first = NIL;
        let mut i = self.ends[BORN].1;
        while i != NIL && self.slots[i as usize].born >= cutoff {
            first = i;
            i = self.slots[i as usize].links[BORN].prev;
        }
        while first != NIL {
            let next = self.slots[first as usize].links[BORN].next;
            let (key, value) = self.take(first);
            take(key, value);
            first = next;
        }
    }

    /// When the next entry is due under `lifetime`: the least recently
    /// seen idles out first, the oldest reaches the hard timeout first.
    pub(crate) fn next_due(&self, lifetime: &Lifetime) -> f64 {
        let head = |list: usize| match self.ends[list].0 {
            NIL => None,
            i => Some(&self.slots[i as usize]),
        };
        let idle = head(SEEN).map_or(f64::INFINITY, |s| s.seen + f64::from(lifetime.idle_timeout));
        let hard = match (head(BORN), lifetime.hard_timeout) {
            (Some(s), hard) if hard > 0 => s.born + f64::from(hard),
            _ => f64::INFINITY,
        };
        idle.min(hard)
    }

    /// Forgets every entry, keeping the memory.
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.ends = [(NIL, NIL); 2];
    }

    /// Unlinks and frees slot `i`; what it held.
    fn take(&mut self, i: u32) -> (Value, V)
    where
        V: Default,
    {
        self.unlink(SEEN, i);
        self.unlink(BORN, i);
        self.free.push(i);
        let slot = &mut self.slots[i as usize];
        let key = std::mem::take(&mut slot.key);
        let value = std::mem::take(&mut slot.value);
        self.index.remove(&key);
        (key, value)
    }

    fn link_tail(&mut self, list: usize, i: u32) {
        let tail = self.ends[list].1;
        self.slots[i as usize].links[list] = Link {
            prev: tail,
            next: NIL,
        };
        match tail {
            NIL => self.ends[list].0 = i,
            t => self.slots[t as usize].links[list].next = i,
        }
        self.ends[list].1 = i;
    }

    fn unlink(&mut self, list: usize, i: u32) {
        let Link { prev, next } = self.slots[i as usize].links[list];
        match prev {
            NIL => self.ends[list].0 = next,
            p => self.slots[p as usize].links[list].next = next,
        }
        match next {
            NIL => self.ends[list].1 = prev,
            n => self.slots[n as usize].links[list].prev = prev,
        }
        self.slots[i as usize].links[list] = UNLINKED;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: Lifetime = Lifetime {
        idle_timeout: 10,
        hard_timeout: 25,
        capacity: 3,
        quarantine: 2,
    };

    fn keys<V>(l: &Ledger<V>, list: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut i = l.ends[list].0;
        while i != NIL {
            out.push(l.slots[i as usize].key.as_int().unwrap());
            i = l.slots[i as usize].links[list].next;
        }
        out
    }

    #[test]
    fn refresh_moves_to_the_back_of_the_seen_order_only() {
        let mut l: Ledger<()> = Ledger::default();
        for k in 1..=3 {
            l.insert(Value::Int(k), (), k as f64);
        }
        assert!(l.refresh(&Value::Int(1), None, 5.0));
        assert!(!l.refresh(&Value::Int(9), None, 5.0));
        assert_eq!(keys(&l, SEEN), vec![2, 3, 1]);
        assert_eq!(keys(&l, BORN), vec![1, 2, 3]);
        assert_eq!(l.evict().map(|(k, _)| k), Some(Value::Int(2)));
        assert_eq!(keys(&l, SEEN), vec![3, 1]);
        assert_eq!(keys(&l, BORN), vec![1, 3]);
        // The vacated slot is reused.
        l.insert(Value::Int(4), (), 6.0);
        assert_eq!(l.slots.len(), 3);
        assert_eq!(keys(&l, SEEN), vec![3, 1, 4]);
    }

    #[test]
    fn due_entries_leave_idle_first_then_hard() {
        let mut l: Ledger<()> = Ledger::default();
        l.insert(Value::Int(1), (), 0.0);
        l.insert(Value::Int(2), (), 1.0);
        // Entry 1 is kept alive by learning, entry 2 idles out.
        for t in [5.0, 10.0, 15.0, 20.0] {
            l.refresh(&Value::Int(1), None, t);
        }
        assert_eq!(l.pop_due(&SHORT, 10.5), None);
        assert_eq!(l.pop_due(&SHORT, 11.0).map(|(k, _)| k), Some(Value::Int(2)));
        assert_eq!(l.pop_due(&SHORT, 24.0), None, "seen at 20, born at 0");
        assert_eq!(l.pop_due(&SHORT, 25.0).map(|(k, _)| k), Some(Value::Int(1)));
        assert!(l.is_empty());
        assert_eq!(l.pop_due(&SHORT, 99.0), None);
    }

    #[test]
    fn taking_the_newest_stops_at_the_first_entry_born_before_the_cutoff() {
        let mut l: Ledger<()> = Ledger::default();
        for k in 1..=5 {
            l.insert(Value::Int(k), (), k as f64);
        }
        let mut taken = Vec::new();
        l.take_born_since(3.5, |k, ()| taken.push(k.as_int().unwrap()));
        assert_eq!(taken, vec![4, 5], "oldest first");
        assert_eq!(keys(&l, BORN), vec![1, 2, 3]);
        assert_eq!(keys(&l, SEEN), vec![1, 2, 3]);
        // Born exactly at the cutoff counts as since; nothing after it is
        // read once an older entry is met.
        l.take_born_since(3.0, |k, ()| taken.push(k.as_int().unwrap()));
        assert_eq!(taken, vec![4, 5, 3]);
        l.take_born_since(9.0, |_, ()| panic!("nothing is that new"));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn an_old_entry_seen_again_inside_the_window_is_not_taken() {
        let mut l: Ledger<()> = Ledger::default();
        l.insert(Value::Int(1), (), 0.0);
        l.insert(Value::Int(2), (), 8.0);
        // Entry 1 is re-learned after the cutoff: born, not seen, decides.
        l.refresh(&Value::Int(1), None, 9.0);
        let mut taken = Vec::new();
        l.take_born_since(5.0, |k, ()| taken.push(k.as_int().unwrap()));
        assert_eq!(taken, vec![2]);
        assert_eq!(keys(&l, SEEN), vec![1]);
    }

    #[test]
    fn overlay_values_follow_their_keys() {
        let mut l: Ledger<Value> = Ledger::with_bound(2);
        l.insert(Value::Int(1), Value::Int(10), 0.0);
        l.refresh(&Value::Int(1), Some(Value::Int(11)), 1.0);
        assert_eq!(l.get(&Value::Int(1)), Some(&Value::Int(11)));
        assert!(l.remove(&Value::Int(1)));
        assert!(!l.remove(&Value::Int(1)));
        assert_eq!(l.get(&Value::Int(1)), None);
        assert_eq!(l.len(), 0);
    }
}
