//! A priority-ordered OpenFlow flow table with timeouts, statistics and a
//! configurable capacity (modelling TCAM exhaustion).
//!
//! Lookup is served by a two-tier index instead of a linear scan:
//!
//! * **exact tier** — entries whose match constrains all twelve fields
//!   ([`OfMatch::is_exact`]) live in a hash map keyed by their
//!   [`FlowKeys`] tuple, so the common case (reactive l2_learning rules,
//!   FloodGuard cache re-raise rules) is a single hash probe;
//! * **wildcard tier** — all other entries in a list sorted by
//!   `(priority desc, install seq asc)`, scanned in matching order and cut
//!   short as soon as no remaining entry can outrank the exact candidate.
//!
//! Both tiers are maintained incrementally on [`FlowTable::apply`] and
//! [`FlowTable::expire`]; nothing is rebuilt on write. The seed linear-scan
//! implementation is preserved as [`linear::LinearFlowTable`] and acts as
//! the behavioural reference for the equivalence proptests below and the
//! before/after benchmarks in `bench/benches/flow_table.rs`.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::actions::Action;
use crate::flow_match::{FlowKeys, OfMatch};
use crate::flow_mod::{FlowMod, FlowModCommand};
use crate::messages::{FlowRemovedReason, FlowStats};
use crate::types::PortNo;

/// One installed flow rule together with its runtime state.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntry {
    /// Which packets this rule applies to.
    pub of_match: OfMatch,
    /// Matching precedence; higher wins.
    pub priority: u16,
    /// Actions to apply; empty means drop.
    pub actions: Vec<Action>,
    /// Controller-assigned opaque id.
    pub cookie: u64,
    /// Seconds of inactivity before expiry; 0 disables.
    pub idle_timeout: u16,
    /// Seconds until unconditional expiry; 0 disables.
    pub hard_timeout: u16,
    /// Whether expiry should emit a `flow_removed`.
    pub send_flow_removed: bool,
    /// Installation time, in seconds of simulation/wall time.
    pub installed_at: f64,
    /// Last packet hit, in seconds.
    pub last_hit: f64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
}

impl FlowEntry {
    fn from_flow_mod(fm: &FlowMod, now: f64) -> FlowEntry {
        FlowEntry {
            of_match: fm.of_match,
            priority: fm.priority,
            actions: fm.actions.clone(),
            cookie: fm.cookie,
            idle_timeout: fm.idle_timeout,
            hard_timeout: fm.hard_timeout,
            send_flow_removed: fm.flags.send_flow_removed,
            installed_at: now,
            last_hit: now,
            packet_count: 0,
            byte_count: 0,
        }
    }

    /// Whether this entry has expired at time `now`.
    pub fn is_expired(&self, now: f64) -> bool {
        (self.hard_timeout > 0 && now - self.installed_at >= f64::from(self.hard_timeout))
            || (self.idle_timeout > 0 && now - self.last_hit >= f64::from(self.idle_timeout))
    }

    fn expiry_reason(&self, now: f64) -> FlowRemovedReason {
        if self.hard_timeout > 0 && now - self.installed_at >= f64::from(self.hard_timeout) {
            FlowRemovedReason::HardTimeout
        } else {
            FlowRemovedReason::IdleTimeout
        }
    }

    fn outputs_to(&self, port: PortNo) -> bool {
        if port == PortNo::None {
            return true;
        }
        self.actions.iter().any(|a| match a {
            Action::Output(p) | Action::Enqueue { port: p, .. } => *p == port,
            _ => false,
        })
    }

    fn stats(&self, now: f64) -> FlowStats {
        FlowStats {
            of_match: self.of_match,
            priority: self.priority,
            cookie: self.cookie,
            packet_count: self.packet_count,
            byte_count: self.byte_count,
            duration_sec: (now - self.installed_at).max(0.0) as u32,
            actions: self.actions.clone(),
        }
    }

    fn matches_flow_mod(&self, fm: &FlowMod, strict: bool) -> bool {
        if strict {
            self.priority == fm.priority && self.of_match == fm.of_match
        } else {
            self.of_match.is_subset_of(&fm.of_match)
        }
    }
}

/// Why a flow-mod could not be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// The table is at capacity (TCAM full).
    TableFull,
    /// `check_overlap` was set and an overlapping same-priority rule exists.
    Overlap,
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::TableFull => f.write_str("flow table is full"),
            TableError::Overlap => f.write_str("overlapping entry exists"),
        }
    }
}

impl std::error::Error for TableError {}

/// A rule removed from the table, together with the reason.
#[derive(Debug, Clone, PartialEq)]
pub struct RemovedFlow {
    /// The removed rule (final counters included).
    pub entry: FlowEntry,
    /// Why it was removed.
    pub reason: FlowRemovedReason,
}

/// One slab slot: the entry plus its installation sequence number, the
/// tie-breaker that makes "earliest installed wins" cheap to maintain.
#[derive(Debug, Clone)]
struct Slot {
    entry: FlowEntry,
    seq: u64,
}

/// The ordering key of a live slot: ascending order == matching order
/// (descending priority, then earliest installed).
fn order_key(slots: &[Option<Slot>], idx: usize) -> (std::cmp::Reverse<u16>, u64) {
    let slot = slots[idx]
        .as_ref()
        .expect("index lists reference live slots");
    (std::cmp::Reverse(slot.entry.priority), slot.seq)
}

/// Inserts `idx` into `list` keeping it sorted by [`order_key`].
fn insert_sorted(list: &mut Vec<usize>, slots: &[Option<Slot>], idx: usize) {
    let key = order_key(slots, idx);
    let pos = list.partition_point(|&i| order_key(slots, i) < key);
    list.insert(pos, idx);
}

/// The sub-range of `list` holding entries of exactly `priority`.
fn priority_range(list: &[usize], slots: &[Option<Slot>], priority: u16) -> std::ops::Range<usize> {
    let lo = list.partition_point(|&i| slots[i].as_ref().expect("live").entry.priority > priority);
    let hi = list.partition_point(|&i| slots[i].as_ref().expect("live").entry.priority >= priority);
    lo..hi
}

/// Removes `idx` from `list` by binary-searching its (unique) order key.
fn remove_sorted(list: &mut Vec<usize>, slots: &[Option<Slot>], idx: usize) {
    let key = order_key(slots, idx);
    let pos = list.partition_point(|&i| order_key(slots, i) < key);
    debug_assert_eq!(list.get(pos), Some(&idx));
    list.remove(pos);
}

/// A priority-ordered flow table with an indexed lookup path.
///
/// Entries match in descending priority order; within equal priority the
/// earliest-installed entry wins, matching common switch behaviour.
///
/// # Index invariants
///
/// * Every live slot index appears exactly once in `order`, and in exactly
///   one of `exact` (when its match [`OfMatch::is_exact`]) or `wildcard`.
/// * `order`, `wildcard` and every `exact` bucket are sorted by
///   `(priority desc, seq asc)` — the matching order.
/// * `seq` is unique per installation and survives in-place replacement,
///   so a replacing `Add` keeps the replaced rule's position.
/// * Expired entries are skipped by lookups but stay indexed until
///   [`FlowTable::expire`] detaches them.
///
/// # Examples
///
/// ```
/// use ofproto::flow_mod::FlowMod;
/// use ofproto::flow_match::{FlowKeys, OfMatch};
/// use ofproto::flow_table::FlowTable;
/// use ofproto::actions::Action;
/// use ofproto::types::PortNo;
///
/// let mut table = FlowTable::new(None);
/// table
///     .apply(&FlowMod::add(OfMatch::any(), vec![Action::Output(PortNo::Flood)]), 0.0)
///     .unwrap();
/// let hit = table.lookup(&FlowKeys::default(), 1.0, 64).unwrap();
/// assert_eq!(hit.actions, vec![Action::Output(PortNo::Flood)]);
/// ```
#[derive(Debug, Default)]
pub struct FlowTable {
    /// Entry storage; `None` slots are free-listed and reused.
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// All live entries in matching order.
    order: Vec<usize>,
    /// Non-exact entries in matching order (the scan tier).
    wildcard: Vec<usize>,
    /// Exact entries bucketed by their twelve-field tuple (the hash tier).
    /// Buckets hold same-tuple entries of different priorities, sorted.
    exact: HashMap<FlowKeys, Vec<usize>>,
    next_seq: u64,
    capacity: Option<usize>,
    /// Interior-mutable so read-only probes and future concurrent readers
    /// can count without exclusive access.
    lookups: AtomicU64,
    misses: AtomicU64,
}

impl Clone for FlowTable {
    fn clone(&self) -> FlowTable {
        FlowTable {
            slots: self.slots.clone(),
            free: self.free.clone(),
            order: self.order.clone(),
            wildcard: self.wildcard.clone(),
            exact: self.exact.clone(),
            next_seq: self.next_seq,
            capacity: self.capacity,
            lookups: AtomicU64::new(self.lookups.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
        }
    }
}

impl FlowTable {
    /// Creates a table; `capacity` of `None` means unbounded.
    pub fn new(capacity: Option<usize>) -> FlowTable {
        FlowTable {
            capacity,
            ..FlowTable::default()
        }
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The configured capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Total lookups performed.
    pub fn lookup_count(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Lookups that missed every rule.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Installed rules whose match is exact (served by the hash tier).
    pub fn exact_len(&self) -> usize {
        self.order.len() - self.wildcard.len()
    }

    /// Installed rules with at least one wildcarded field (the scan tier).
    pub fn wildcard_len(&self) -> usize {
        self.wildcard.len()
    }

    /// Iterates over installed rules in matching order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.order
            .iter()
            .map(|&i| &self.slots[i].as_ref().expect("live").entry)
    }

    fn entry(&self, idx: usize) -> &FlowEntry {
        &self.slots[idx].as_ref().expect("live").entry
    }

    /// Installs `entry` into the slab and all index tiers.
    fn attach(&mut self, entry: FlowEntry) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let is_exact = entry.of_match.is_exact();
        let keys = entry.of_match.keys;
        let slot = Slot { entry, seq };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        insert_sorted(&mut self.order, &self.slots, idx);
        if is_exact {
            let bucket = self.exact.entry(keys).or_default();
            insert_sorted(bucket, &self.slots, idx);
        } else {
            insert_sorted(&mut self.wildcard, &self.slots, idx);
        }
    }

    /// Removes the given slots from every tier, returning their entries in
    /// the order given (callers pass matching order).
    ///
    /// Small batches (the common churn pattern: one rule per flow-mod) are
    /// removed positionally via binary search; bulk removals fall back to a
    /// single retain sweep per list.
    fn detach_many(&mut self, doomed: &[usize]) -> Vec<FlowEntry> {
        if doomed.is_empty() {
            return Vec::new();
        }
        let bulk = doomed.len() * 8 >= self.order.len();
        if bulk {
            let set: HashSet<usize> = doomed.iter().copied().collect();
            self.order.retain(|i| !set.contains(i));
            self.wildcard.retain(|i| !set.contains(i));
        }
        let mut removed = Vec::with_capacity(doomed.len());
        for &i in doomed {
            if !bulk {
                remove_sorted(&mut self.order, &self.slots, i);
                if !self.slots[i]
                    .as_ref()
                    .expect("live")
                    .entry
                    .of_match
                    .is_exact()
                {
                    remove_sorted(&mut self.wildcard, &self.slots, i);
                }
            }
            let slot = self.slots[i].take().expect("doomed slot is live");
            if slot.entry.of_match.is_exact() {
                if let Some(bucket) = self.exact.get_mut(&slot.entry.of_match.keys) {
                    bucket.retain(|&j| j != i);
                    if bucket.is_empty() {
                        self.exact.remove(&slot.entry.of_match.keys);
                    }
                }
            }
            self.free.push(i);
            removed.push(slot.entry);
        }
        removed
    }

    /// The slot holding a rule identical (match and priority) to `fm`, for
    /// in-place replacement. Exact rules resolve through the hash tier.
    fn find_identical(&self, of_match: &OfMatch, priority: u16) -> Option<usize> {
        if of_match.is_exact() {
            let bucket = self.exact.get(&of_match.keys)?;
            bucket.iter().copied().find(|&i| {
                let e = self.entry(i);
                e.priority == priority && e.of_match == *of_match
            })
        } else {
            let range = priority_range(&self.wildcard, &self.slots, priority);
            self.wildcard[range]
                .iter()
                .copied()
                .find(|&i| self.entry(i).of_match == *of_match)
        }
    }

    fn has_overlap(&self, fm: &FlowMod) -> bool {
        let range = priority_range(&self.order, &self.slots, fm.priority);
        self.order[range].iter().any(|&i| {
            let e = self.entry(i);
            e.of_match.is_subset_of(&fm.of_match) || fm.of_match.is_subset_of(&e.of_match)
        })
    }

    /// The best live match for `keys`: probe the hash tier, then scan the
    /// wildcard tier in matching order, stopping as soon as no remaining
    /// wildcard entry can outrank the exact candidate.
    fn find_best(&self, keys: &FlowKeys, now: f64) -> Option<usize> {
        let mut best: Option<(u16, u64, usize)> = None;
        if let Some(bucket) = self.exact.get(keys) {
            for &i in bucket {
                let slot = self.slots[i].as_ref().expect("live");
                if !slot.entry.is_expired(now) {
                    best = Some((slot.entry.priority, slot.seq, i));
                    break;
                }
            }
        }
        for &i in &self.wildcard {
            let slot = self.slots[i].as_ref().expect("live");
            if let Some((best_prio, best_seq, _)) = best {
                let outranked = slot.entry.priority < best_prio
                    || (slot.entry.priority == best_prio && slot.seq > best_seq);
                if outranked {
                    break;
                }
            }
            if !slot.entry.is_expired(now) && slot.entry.of_match.matches(keys) {
                best = Some((slot.entry.priority, slot.seq, i));
                break;
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Applies a flow-mod at time `now` (seconds).
    ///
    /// Returns the rules removed by `Delete`/`DeleteStrict` so the caller can
    /// emit `flow_removed` notifications.
    ///
    /// # Errors
    ///
    /// [`TableError::TableFull`] when an `Add` exceeds capacity and
    /// [`TableError::Overlap`] when `check_overlap` rejects the rule.
    pub fn apply(&mut self, fm: &FlowMod, now: f64) -> Result<Vec<RemovedFlow>, TableError> {
        match fm.command {
            FlowModCommand::Add => {
                if fm.flags.check_overlap && self.has_overlap(fm) {
                    return Err(TableError::Overlap);
                }
                // Identical match+priority replaces in place (spec §4.6),
                // keeping the replaced rule's position (its seq).
                if let Some(idx) = self.find_identical(&fm.of_match, fm.priority) {
                    let slot = self.slots[idx].as_mut().expect("live");
                    slot.entry = FlowEntry::from_flow_mod(fm, now);
                    return Ok(Vec::new());
                }
                if let Some(cap) = self.capacity {
                    if self.order.len() >= cap {
                        return Err(TableError::TableFull);
                    }
                }
                self.attach(FlowEntry::from_flow_mod(fm, now));
                Ok(Vec::new())
            }
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                let strict = fm.command == FlowModCommand::ModifyStrict;
                let mut modified = false;
                // Actions and cookie are not index keys, so in-place
                // mutation needs no re-indexing.
                for &i in &self.order {
                    let entry = &mut self.slots[i].as_mut().expect("live").entry;
                    if entry.matches_flow_mod(fm, strict) {
                        entry.actions = fm.actions.clone();
                        entry.cookie = fm.cookie;
                        modified = true;
                    }
                }
                if !modified {
                    // Per spec, a modify with no target behaves like an add.
                    let add = FlowMod {
                        command: FlowModCommand::Add,
                        ..fm.clone()
                    };
                    return self.apply(&add, now);
                }
                Ok(Vec::new())
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let strict = fm.command == FlowModCommand::DeleteStrict;
                // Only identically-keyed exact entries can match (strictly or
                // as subsets of) an exact selector, so those deletes resolve
                // through the hash tier instead of a full table scan.
                let candidates: &[usize] = if fm.of_match.is_exact() {
                    self.exact.get(&fm.of_match.keys).map_or(&[], Vec::as_slice)
                } else {
                    &self.order
                };
                let doomed: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| {
                        let e = self.entry(i);
                        e.matches_flow_mod(fm, strict) && e.outputs_to(fm.out_port)
                    })
                    .collect();
                Ok(self
                    .detach_many(&doomed)
                    .into_iter()
                    .map(|entry| RemovedFlow {
                        entry,
                        reason: FlowRemovedReason::Delete,
                    })
                    .collect())
            }
        }
    }

    /// Looks up the highest-priority matching rule, updating its counters.
    ///
    /// Returns `None` on a table-miss.
    pub fn lookup(&mut self, keys: &FlowKeys, now: f64, packet_len: usize) -> Option<&FlowEntry> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        match self.find_best(keys, now) {
            Some(idx) => {
                let entry = &mut self.slots[idx].as_mut().expect("live").entry;
                entry.packet_count += 1;
                entry.byte_count += packet_len as u64;
                entry.last_hit = now;
                Some(self.entry(idx))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up without mutating counters (read-only probe).
    pub fn peek(&self, keys: &FlowKeys, now: f64) -> Option<&FlowEntry> {
        self.find_best(keys, now).map(|idx| self.entry(idx))
    }

    /// Removes expired rules, returning them with their expiry reasons.
    pub fn expire(&mut self, now: f64) -> Vec<RemovedFlow> {
        let doomed: Vec<usize> = self
            .order
            .iter()
            .copied()
            .filter(|&i| self.entry(i).is_expired(now))
            .collect();
        self.detach_many(&doomed)
            .into_iter()
            .map(|entry| RemovedFlow {
                reason: entry.expiry_reason(now),
                entry,
            })
            .collect()
    }

    /// Per-flow statistics for rules whose match is a subset of `of_match`.
    pub fn flow_stats(&self, of_match: &OfMatch, now: f64) -> Vec<FlowStats> {
        self.iter()
            .filter(|e| e.of_match.is_subset_of(of_match))
            .map(|e| e.stats(now))
            .collect()
    }

    /// Removes every rule (lookup/miss counters are preserved).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.order.clear();
        self.wildcard.clear();
        self.exact.clear();
    }
}

pub mod linear {
    //! The seed linear-scan flow table, preserved verbatim as the
    //! behavioural reference model.
    //!
    //! [`LinearFlowTable`] exists for two jobs: the equivalence proptests
    //! assert the indexed [`FlowTable`](super::FlowTable) agrees with it on
    //! random flow-mod/lookup sequences, and `bench/benches/flow_table.rs`
    //! measures the indexed table against it (the "before" numbers in
    //! EXPERIMENTS.md). Do not use it on a datapath hot path.

    use super::{FlowEntry, FlowMod, FlowModCommand, RemovedFlow, TableError};
    use crate::flow_match::{FlowKeys, OfMatch};
    use crate::messages::{FlowRemovedReason, FlowStats};

    /// The seed implementation: one `Vec` kept in matching order, scanned
    /// linearly on every operation.
    #[derive(Debug, Clone, Default)]
    pub struct LinearFlowTable {
        entries: Vec<FlowEntry>,
        capacity: Option<usize>,
        lookups: u64,
        misses: u64,
    }

    impl LinearFlowTable {
        /// Creates a table; `capacity` of `None` means unbounded.
        pub fn new(capacity: Option<usize>) -> LinearFlowTable {
            LinearFlowTable {
                entries: Vec::new(),
                capacity,
                lookups: 0,
                misses: 0,
            }
        }

        /// Number of installed rules.
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// Whether no rules are installed.
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Total lookups performed.
        pub fn lookup_count(&self) -> u64 {
            self.lookups
        }

        /// Lookups that missed every rule.
        pub fn miss_count(&self) -> u64 {
            self.misses
        }

        /// Iterates over installed rules in matching order.
        pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
            self.entries.iter()
        }

        /// Applies a flow-mod at time `now` (seconds); seed semantics.
        ///
        /// # Errors
        ///
        /// [`TableError::TableFull`] when an `Add` exceeds capacity and
        /// [`TableError::Overlap`] when `check_overlap` rejects the rule.
        pub fn apply(&mut self, fm: &FlowMod, now: f64) -> Result<Vec<RemovedFlow>, TableError> {
            match fm.command {
                FlowModCommand::Add => {
                    if fm.flags.check_overlap
                        && self.entries.iter().any(|e| {
                            e.priority == fm.priority
                                && (e.of_match.is_subset_of(&fm.of_match)
                                    || fm.of_match.is_subset_of(&e.of_match))
                        })
                    {
                        return Err(TableError::Overlap);
                    }
                    if let Some(existing) = self
                        .entries
                        .iter_mut()
                        .find(|e| e.priority == fm.priority && e.of_match == fm.of_match)
                    {
                        *existing = FlowEntry::from_flow_mod(fm, now);
                        return Ok(Vec::new());
                    }
                    if let Some(cap) = self.capacity {
                        if self.entries.len() >= cap {
                            return Err(TableError::TableFull);
                        }
                    }
                    let entry = FlowEntry::from_flow_mod(fm, now);
                    let pos = self
                        .entries
                        .partition_point(|e| e.priority >= entry.priority);
                    self.entries.insert(pos, entry);
                    Ok(Vec::new())
                }
                FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                    let strict = fm.command == FlowModCommand::ModifyStrict;
                    let mut modified = false;
                    for entry in &mut self.entries {
                        if entry.matches_flow_mod(fm, strict) {
                            entry.actions = fm.actions.clone();
                            entry.cookie = fm.cookie;
                            modified = true;
                        }
                    }
                    if !modified {
                        let add = FlowMod {
                            command: FlowModCommand::Add,
                            ..fm.clone()
                        };
                        return self.apply(&add, now);
                    }
                    Ok(Vec::new())
                }
                FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                    let strict = fm.command == FlowModCommand::DeleteStrict;
                    let mut removed = Vec::new();
                    self.entries.retain(|entry| {
                        let hit =
                            entry.matches_flow_mod(fm, strict) && entry.outputs_to(fm.out_port);
                        if hit {
                            removed.push(RemovedFlow {
                                entry: entry.clone(),
                                reason: FlowRemovedReason::Delete,
                            });
                        }
                        !hit
                    });
                    Ok(removed)
                }
            }
        }

        /// Looks up the highest-priority matching rule, updating its
        /// counters; linear scan in matching order.
        pub fn lookup(
            &mut self,
            keys: &FlowKeys,
            now: f64,
            packet_len: usize,
        ) -> Option<&FlowEntry> {
            self.lookups += 1;
            let idx = self
                .entries
                .iter()
                .position(|e| !e.is_expired(now) && e.of_match.matches(keys));
            match idx {
                Some(idx) => {
                    let entry = &mut self.entries[idx];
                    entry.packet_count += 1;
                    entry.byte_count += packet_len as u64;
                    entry.last_hit = now;
                    Some(&self.entries[idx])
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        /// Looks up without mutating counters (read-only probe).
        pub fn peek(&self, keys: &FlowKeys, now: f64) -> Option<&FlowEntry> {
            self.entries
                .iter()
                .find(|e| !e.is_expired(now) && e.of_match.matches(keys))
        }

        /// Removes expired rules, returning them with their expiry reasons.
        pub fn expire(&mut self, now: f64) -> Vec<RemovedFlow> {
            let mut removed = Vec::new();
            self.entries.retain(|entry| {
                if entry.is_expired(now) {
                    removed.push(RemovedFlow {
                        reason: entry.expiry_reason(now),
                        entry: entry.clone(),
                    });
                    false
                } else {
                    true
                }
            });
            removed
        }

        /// Per-flow statistics for rules whose match is a subset of
        /// `of_match`.
        pub fn flow_stats(&self, of_match: &OfMatch, now: f64) -> Vec<FlowStats> {
            self.entries
                .iter()
                .filter(|e| e.of_match.is_subset_of(of_match))
                .map(|e| e.stats(now))
                .collect()
        }

        /// Removes every rule.
        pub fn clear(&mut self) {
            self.entries.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_mod::FlowModFlags;
    use crate::types::{ipproto, MacAddr};

    fn add(of_match: OfMatch, priority: u16, port: u16) -> FlowMod {
        FlowMod::add(of_match, vec![Action::Output(PortNo::Physical(port))]).with_priority(priority)
    }

    fn keys_udp(in_port: u16) -> FlowKeys {
        FlowKeys {
            in_port,
            nw_proto: ipproto::UDP,
            dl_type: crate::types::ethertype::IPV4,
            ..FlowKeys::default()
        }
    }

    #[test]
    fn empty_table_misses() {
        let mut t = FlowTable::new(None);
        assert!(t.lookup(&FlowKeys::default(), 0.0, 100).is_none());
        assert_eq!(t.miss_count(), 1);
        assert_eq!(t.lookup_count(), 1);
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new(None);
        t.apply(&add(OfMatch::any(), 1, 1), 0.0).unwrap();
        t.apply(&add(OfMatch::any().with_in_port(5), 100, 2), 0.0)
            .unwrap();
        let hit = t.lookup(&keys_udp(5), 0.0, 64).unwrap();
        assert_eq!(hit.actions, vec![Action::Output(PortNo::Physical(2))]);
        let hit = t.lookup(&keys_udp(6), 0.0, 64).unwrap();
        assert_eq!(hit.actions, vec![Action::Output(PortNo::Physical(1))]);
    }

    #[test]
    fn equal_priority_first_installed_wins() {
        let mut t = FlowTable::new(None);
        t.apply(&add(OfMatch::any(), 10, 1), 0.0).unwrap();
        t.apply(&add(OfMatch::any().with_in_port(5), 10, 2), 0.0)
            .unwrap();
        let hit = t.lookup(&keys_udp(5), 0.0, 64).unwrap();
        assert_eq!(hit.actions, vec![Action::Output(PortNo::Physical(1))]);
    }

    #[test]
    fn identical_add_replaces_and_resets_counters() {
        let mut t = FlowTable::new(None);
        t.apply(&add(OfMatch::any(), 10, 1), 0.0).unwrap();
        t.lookup(&keys_udp(1), 0.0, 64).unwrap();
        assert_eq!(t.iter().next().unwrap().packet_count, 1);
        t.apply(&add(OfMatch::any(), 10, 3), 5.0).unwrap();
        assert_eq!(t.len(), 1);
        let e = t.iter().next().unwrap();
        assert_eq!(e.packet_count, 0);
        assert_eq!(e.actions, vec![Action::Output(PortNo::Physical(3))]);
    }

    #[test]
    fn exact_add_replaces_through_hash_tier() {
        let mut t = FlowTable::new(None);
        let m = OfMatch::exact(keys_udp(1));
        t.apply(&add(m, 10, 1), 0.0).unwrap();
        t.lookup(&keys_udp(1), 0.0, 64).unwrap();
        t.apply(&add(m, 10, 3), 5.0).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.exact_len(), 1);
        let e = t.iter().next().unwrap();
        assert_eq!(e.packet_count, 0, "replacement reset counters");
        assert_eq!(e.actions, vec![Action::Output(PortNo::Physical(3))]);
        // A different priority is a distinct rule, not a replacement.
        t.apply(&add(m, 11, 4), 6.0).unwrap();
        assert_eq!(t.len(), 2);
        let hit = t.lookup(&keys_udp(1), 6.0, 64).unwrap();
        assert_eq!(hit.priority, 11);
    }

    #[test]
    fn capacity_enforced() {
        let mut t = FlowTable::new(Some(2));
        t.apply(&add(OfMatch::any().with_in_port(1), 10, 1), 0.0)
            .unwrap();
        t.apply(&add(OfMatch::any().with_in_port(2), 10, 2), 0.0)
            .unwrap();
        assert_eq!(
            t.apply(&add(OfMatch::any().with_in_port(3), 10, 3), 0.0),
            Err(TableError::TableFull)
        );
        // Replacing an existing rule still works at capacity.
        t.apply(&add(OfMatch::any().with_in_port(1), 10, 9), 0.0)
            .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn check_overlap_rejects() {
        let mut t = FlowTable::new(None);
        t.apply(&add(OfMatch::any().with_in_port(1), 10, 1), 0.0)
            .unwrap();
        let mut fm = add(OfMatch::any(), 10, 2);
        fm.flags = FlowModFlags {
            check_overlap: true,
            send_flow_removed: false,
        };
        assert_eq!(t.apply(&fm, 0.0), Err(TableError::Overlap));
        // Different priority: no overlap check failure.
        fm.priority = 11;
        t.apply(&fm, 0.0).unwrap();
    }

    #[test]
    fn idle_timeout_expires() {
        let mut t = FlowTable::new(None);
        t.apply(&add(OfMatch::any(), 10, 1).with_idle_timeout(5), 0.0)
            .unwrap();
        assert!(t.lookup(&keys_udp(1), 3.0, 64).is_some());
        // Traffic at t=3 refreshes the idle clock.
        assert!(t.lookup(&keys_udp(1), 7.9, 64).is_some());
        assert!(t.lookup(&keys_udp(1), 13.0, 64).is_none());
        let removed = t.expire(13.0);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].reason, FlowRemovedReason::IdleTimeout);
    }

    #[test]
    fn hard_timeout_expires_despite_traffic() {
        let mut t = FlowTable::new(None);
        t.apply(&add(OfMatch::any(), 10, 1).with_hard_timeout(10), 0.0)
            .unwrap();
        for i in 0..9 {
            assert!(t.lookup(&keys_udp(1), f64::from(i), 64).is_some());
        }
        assert!(t.lookup(&keys_udp(1), 10.0, 64).is_none());
        let removed = t.expire(10.0);
        assert_eq!(removed[0].reason, FlowRemovedReason::HardTimeout);
    }

    #[test]
    fn expired_exact_entry_is_skipped_not_served() {
        let mut t = FlowTable::new(None);
        let m = OfMatch::exact(keys_udp(1));
        t.apply(&add(m, 10, 1).with_hard_timeout(5), 0.0).unwrap();
        // A live wildcard fallback below it.
        t.apply(&add(OfMatch::any(), 1, 9), 0.0).unwrap();
        let hit = t.lookup(&keys_udp(1), 2.0, 64).unwrap();
        assert_eq!(hit.priority, 10);
        // After the exact rule's hard timeout, the wildcard serves.
        let hit = t.lookup(&keys_udp(1), 6.0, 64).unwrap();
        assert_eq!(hit.priority, 1);
    }

    #[test]
    fn delete_nonstrict_uses_subset() {
        let mut t = FlowTable::new(None);
        t.apply(
            &add(OfMatch::any().with_in_port(1).with_nw_proto(17), 10, 1),
            0.0,
        )
        .unwrap();
        t.apply(&add(OfMatch::any().with_in_port(2), 10, 2), 0.0)
            .unwrap();
        let removed = t
            .apply(&FlowMod::delete(OfMatch::any().with_in_port(1)), 1.0)
            .unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_strict_needs_exact_match_and_priority() {
        let mut t = FlowTable::new(None);
        let m = OfMatch::any().with_in_port(1);
        t.apply(&add(m, 10, 1), 0.0).unwrap();
        // Wrong priority: nothing removed.
        let removed = t.apply(&FlowMod::delete_strict(m, 11), 1.0).unwrap();
        assert!(removed.is_empty());
        let removed = t.apply(&FlowMod::delete_strict(m, 10), 1.0).unwrap();
        assert_eq!(removed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn delete_filtered_by_out_port() {
        let mut t = FlowTable::new(None);
        t.apply(&add(OfMatch::any().with_in_port(1), 10, 7), 0.0)
            .unwrap();
        t.apply(&add(OfMatch::any().with_in_port(2), 10, 8), 0.0)
            .unwrap();
        let mut del = FlowMod::delete(OfMatch::any());
        del.out_port = PortNo::Physical(7);
        let removed = t.apply(&del, 1.0).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(
            removed[0].entry.actions,
            vec![Action::Output(PortNo::Physical(7))]
        );
    }

    #[test]
    fn modify_updates_actions_preserving_counters() {
        let mut t = FlowTable::new(None);
        t.apply(&add(OfMatch::any().with_in_port(1), 10, 1), 0.0)
            .unwrap();
        t.lookup(&keys_udp(1), 0.5, 64).unwrap();
        let mut fm = add(OfMatch::any(), 0, 9);
        fm.command = FlowModCommand::Modify;
        t.apply(&fm, 1.0).unwrap();
        let e = t.iter().next().unwrap();
        assert_eq!(e.actions, vec![Action::Output(PortNo::Physical(9))]);
        assert_eq!(e.packet_count, 1, "modify must not reset counters");
    }

    #[test]
    fn modify_with_no_target_adds() {
        let mut t = FlowTable::new(None);
        let mut fm = add(OfMatch::any().with_in_port(1), 10, 1);
        fm.command = FlowModCommand::Modify;
        t.apply(&fm, 0.0).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn counters_accumulate() {
        let mut t = FlowTable::new(None);
        t.apply(&add(OfMatch::any(), 10, 1), 0.0).unwrap();
        for _ in 0..5 {
            t.lookup(&keys_udp(1), 1.0, 100).unwrap();
        }
        let e = t.iter().next().unwrap();
        assert_eq!(e.packet_count, 5);
        assert_eq!(e.byte_count, 500);
    }

    #[test]
    fn stats_filtered_by_match() {
        let mut t = FlowTable::new(None);
        t.apply(&add(OfMatch::any().with_in_port(1), 10, 1), 0.0)
            .unwrap();
        t.apply(&add(OfMatch::any().with_in_port(2), 10, 2), 0.0)
            .unwrap();
        t.lookup(&keys_udp(1), 1.0, 100).unwrap();
        let stats = t.flow_stats(&OfMatch::any().with_in_port(1), 2.0);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].packet_count, 1);
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut t = FlowTable::new(None);
        t.apply(&add(OfMatch::any(), 10, 1), 0.0).unwrap();
        assert!(t.peek(&keys_udp(1), 0.0).is_some());
        assert_eq!(t.iter().next().unwrap().packet_count, 0);
        assert_eq!(t.lookup_count(), 0);
    }

    #[test]
    fn tier_census_tracks_adds_and_removes() {
        let mut t = FlowTable::new(None);
        t.apply(&add(OfMatch::exact(keys_udp(1)), 10, 1), 0.0)
            .unwrap();
        t.apply(&add(OfMatch::exact(keys_udp(2)), 10, 2), 0.0)
            .unwrap();
        t.apply(&add(OfMatch::any().with_in_port(3), 5, 3), 0.0)
            .unwrap();
        assert_eq!(t.exact_len(), 2);
        assert_eq!(t.wildcard_len(), 1);
        t.apply(&FlowMod::delete(OfMatch::exact(keys_udp(1))), 1.0)
            .unwrap();
        assert_eq!(t.exact_len(), 1);
        assert_eq!(t.len(), 2);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.exact_len(), 0);
        assert_eq!(t.wildcard_len(), 0);
    }

    #[test]
    fn slot_reuse_after_delete_keeps_order() {
        let mut t = FlowTable::new(None);
        for port in 1..=4u16 {
            t.apply(&add(OfMatch::any().with_in_port(port), 10, port), 0.0)
                .unwrap();
        }
        t.apply(&FlowMod::delete(OfMatch::any().with_in_port(2)), 1.0)
            .unwrap();
        // Freed slot is reused; iteration order stays (priority, install).
        t.apply(&add(OfMatch::any().with_in_port(9), 20, 9), 2.0)
            .unwrap();
        t.apply(&add(OfMatch::any().with_in_port(8), 10, 8), 2.0)
            .unwrap();
        let ports: Vec<u16> = t.iter().map(|e| e.keys_ref().in_port).collect();
        assert_eq!(ports, vec![9, 1, 3, 4, 8]);
    }

    #[test]
    fn wildcard_migration_rule_has_lowest_priority_semantics() {
        // The FloodGuard migration rule: lowest priority wildcard per inport,
        // tag TOS, output to the cache port. Proactive rules must still win.
        let mut t = FlowTable::new(None);
        let migration = FlowMod::add(
            OfMatch::any().with_in_port(1),
            vec![Action::SetNwTos(1), Action::Output(PortNo::Physical(99))],
        )
        .with_priority(0);
        let proactive = FlowMod::add(
            OfMatch::any().with_dl_dst(MacAddr::from_u64(0xa)),
            vec![Action::Output(PortNo::Physical(2))],
        )
        .with_priority(100);
        t.apply(&migration, 0.0).unwrap();
        t.apply(&proactive, 0.0).unwrap();
        let mut keys = keys_udp(1);
        keys.dl_dst = MacAddr::from_u64(0xa);
        let hit = t.lookup(&keys, 0.0, 64).unwrap();
        assert_eq!(hit.actions, vec![Action::Output(PortNo::Physical(2))]);
        keys.dl_dst = MacAddr::from_u64(0xb);
        let hit = t.lookup(&keys, 0.0, 64).unwrap();
        assert_eq!(hit.priority, 0);
    }

    #[test]
    fn exact_and_wildcard_tie_break_by_install_order() {
        // Equal priority, one exact and one wildcard rule both matching:
        // whichever was installed first must win, regardless of tier.
        let keys = keys_udp(1);
        let exact_first = {
            let mut t = FlowTable::new(None);
            t.apply(&add(OfMatch::exact(keys), 10, 1), 0.0).unwrap();
            t.apply(&add(OfMatch::any(), 10, 2), 0.0).unwrap();
            t.lookup(&keys, 0.0, 64).unwrap().actions.clone()
        };
        assert_eq!(exact_first, vec![Action::Output(PortNo::Physical(1))]);
        let wildcard_first = {
            let mut t = FlowTable::new(None);
            t.apply(&add(OfMatch::any(), 10, 2), 0.0).unwrap();
            t.apply(&add(OfMatch::exact(keys), 10, 1), 0.0).unwrap();
            t.lookup(&keys, 0.0, 64).unwrap().actions.clone()
        };
        assert_eq!(wildcard_first, vec![Action::Output(PortNo::Physical(2))]);
    }

    impl FlowEntry {
        fn keys_ref(&self) -> &FlowKeys {
            &self.of_match.keys
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::linear::LinearFlowTable;
    use super::*;
    use crate::types::MacAddr;
    use proptest::prelude::*;

    fn arb_keys() -> impl Strategy<Value = FlowKeys> {
        (0u64..8, 0u64..8, 1u16..5, any::<u8>()).prop_map(|(src, dst, port, proto)| FlowKeys {
            dl_src: MacAddr::from_u64(src),
            dl_dst: MacAddr::from_u64(dst),
            in_port: port,
            nw_proto: proto,
            ..FlowKeys::default()
        })
    }

    fn arb_rule() -> impl Strategy<Value = FlowMod> {
        (0u64..8, 1u16..5, 0u16..4, proptest::option::of(0u8..2)).prop_map(
            |(dst, out_port, priority, proto)| {
                let mut m = OfMatch::any().with_dl_dst(MacAddr::from_u64(dst));
                if let Some(p) = proto {
                    m = m.with_nw_proto(p);
                }
                FlowMod::add(m, vec![Action::Output(PortNo::Physical(out_port))])
                    .with_priority(priority)
            },
        )
    }

    proptest! {
        /// The table always returns a maximal-priority matching rule.
        #[test]
        fn lookup_returns_max_priority_match(
            rules in proptest::collection::vec(arb_rule(), 1..20),
            keys in arb_keys(),
        ) {
            let mut table = FlowTable::new(None);
            for rule in &rules {
                table.apply(rule, 0.0).unwrap();
            }
            let best = table
                .iter()
                .filter(|e| e.of_match.matches(&keys))
                .map(|e| e.priority)
                .max();
            let hit = table.lookup(&keys, 0.0, 64).map(|e| e.priority);
            prop_assert_eq!(hit, best);
        }

        /// Subset consistency: if a ⊆ b and a matches k, then b matches k.
        #[test]
        fn subset_implies_match_containment(
            a in arb_rule(),
            b in arb_rule(),
            keys in arb_keys(),
        ) {
            if a.of_match.is_subset_of(&b.of_match) && a.of_match.matches(&keys) {
                prop_assert!(b.of_match.matches(&keys));
            }
        }

        /// Expiry removes exactly the expired rules, and counters survive
        /// modifications.
        #[test]
        fn expire_is_exact(
            timeouts in proptest::collection::vec(0u16..5, 1..12),
            at in 0u16..8,
        ) {
            let mut table = FlowTable::new(None);
            for (i, &t) in timeouts.iter().enumerate() {
                table
                    .apply(
                        &FlowMod::add(
                            OfMatch::any().with_tp_src(i as u16),
                            vec![Action::Output(PortNo::Physical(1))],
                        )
                        .with_hard_timeout(t),
                        0.0,
                    )
                    .unwrap();
            }
            let now = f64::from(at);
            let expected_remaining = timeouts
                .iter()
                .filter(|&&t| t == 0 || f64::from(t) > now)
                .count();
            let removed = table.expire(now);
            prop_assert_eq!(table.len(), expected_remaining);
            prop_assert_eq!(removed.len(), timeouts.len() - expected_remaining);
        }

        /// Non-strict delete with match M removes exactly the rules whose
        /// matches are subsets of M.
        #[test]
        fn delete_removes_exactly_subsets(
            rules in proptest::collection::vec(arb_rule(), 1..16),
            target in 0u64..8,
        ) {
            let mut table = FlowTable::new(None);
            for rule in &rules {
                table.apply(rule, 0.0).unwrap();
            }
            let selector = OfMatch::any().with_dl_dst(MacAddr::from_u64(target));
            let expected_removed = table
                .iter()
                .filter(|e| e.of_match.is_subset_of(&selector))
                .count();
            let removed = table.apply(&FlowMod::delete(selector), 1.0).unwrap();
            prop_assert_eq!(removed.len(), expected_removed);
            prop_assert!(table.iter().all(|e| !e.of_match.is_subset_of(&selector)));
        }
    }

    // ---- equivalence suite: indexed table vs. the seed linear scan ----

    /// One scripted table operation; interpreted identically against both
    /// implementations.
    #[derive(Debug, Clone)]
    enum Op {
        Apply(FlowMod),
        Lookup(FlowKeys),
        Peek(FlowKeys),
        Expire,
    }

    /// A mixed exact/wildcard flow-mod generator covering Add (with
    /// timeouts and replacement collisions), Modify, Delete, strict and
    /// non-strict.
    fn arb_flow_mod() -> impl Strategy<Value = Op> {
        (
            arb_keys(),
            (0u16..3, 0u16..4, 1u16..5),
            (0u8..8, 0u8..3, 0u8..3),
        )
            .prop_map(
                |(keys, (priority, out_port, exact_port), (cmd, idle, hard))| {
                    // Half the rules are exact (the hash tier), half wildcard.
                    let of_match = if cmd % 2 == 0 {
                        OfMatch::exact(FlowKeys {
                            in_port: exact_port,
                            ..keys
                        })
                    } else {
                        OfMatch::any()
                            .with_dl_dst(keys.dl_dst)
                            .with_in_port(exact_port)
                    };
                    let mut fm =
                        FlowMod::add(of_match, vec![Action::Output(PortNo::Physical(out_port))])
                            .with_priority(priority)
                            .with_cookie(u64::from(cmd));
                    if idle > 0 {
                        fm = fm.with_idle_timeout(u16::from(idle));
                    }
                    if hard > 0 {
                        fm = fm.with_hard_timeout(u16::from(hard));
                    }
                    fm.command = match cmd {
                        0..=3 => FlowModCommand::Add,
                        4 => FlowModCommand::Modify,
                        5 => FlowModCommand::ModifyStrict,
                        6 => FlowModCommand::Delete,
                        _ => FlowModCommand::DeleteStrict,
                    };
                    Op::Apply(fm)
                },
            )
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (arb_flow_mod(), arb_keys(), 0u8..8).prop_map(|(apply, keys, sel)| match sel {
            0..=2 => apply,
            3 => Op::Peek(keys),
            4 => Op::Expire,
            _ => Op::Lookup(keys),
        })
    }

    /// The observable fingerprint of a lookup result.
    fn fingerprint(e: Option<&FlowEntry>) -> Option<(OfMatch, u16, Vec<Action>, u64, u64, u64)> {
        e.map(|e| {
            (
                e.of_match,
                e.priority,
                e.actions.clone(),
                e.cookie,
                e.packet_count,
                e.byte_count,
            )
        })
    }

    proptest! {
        /// Driving both tables through the same random flow-mod/lookup
        /// script yields identical matches, counters, removals and final
        /// contents — lock-step with the seed linear scan.
        #[test]
        fn indexed_table_equals_linear_reference(
            ops in proptest::collection::vec(arb_op(), 1..60),
            capacity in proptest::option::of(1usize..12),
        ) {
            let mut indexed = FlowTable::new(capacity);
            let mut reference = LinearFlowTable::new(capacity);
            for (step, op) in ops.iter().enumerate() {
                // Advance time so idle/hard timeouts trigger mid-script.
                let now = step as f64 * 0.7;
                match op {
                    Op::Apply(fm) => {
                        let a = indexed.apply(fm, now);
                        let b = reference.apply(fm, now);
                        prop_assert_eq!(&a, &b, "apply diverged at step {}", step);
                    }
                    Op::Lookup(keys) => {
                        let a = fingerprint(indexed.lookup(keys, now, 64));
                        let b = fingerprint(reference.lookup(keys, now, 64));
                        prop_assert_eq!(&a, &b, "lookup diverged at step {}", step);
                    }
                    Op::Peek(keys) => {
                        let a = fingerprint(indexed.peek(keys, now));
                        let b = fingerprint(reference.peek(keys, now));
                        prop_assert_eq!(&a, &b, "peek diverged at step {}", step);
                    }
                    Op::Expire => {
                        let a = indexed.expire(now);
                        let b = reference.expire(now);
                        prop_assert_eq!(&a, &b, "expire diverged at step {}", step);
                    }
                }
            }
            // Final state: identical rule sequences in matching order,
            // identical statistics and counters.
            let end = ops.len() as f64;
            prop_assert_eq!(indexed.len(), reference.len());
            prop_assert_eq!(indexed.lookup_count(), reference.lookup_count());
            prop_assert_eq!(indexed.miss_count(), reference.miss_count());
            let a: Vec<FlowEntry> = indexed.iter().cloned().collect();
            let b: Vec<FlowEntry> = reference.iter().cloned().collect();
            prop_assert_eq!(a, b, "final tables differ");
            prop_assert_eq!(
                indexed.flow_stats(&OfMatch::any(), end),
                reference.flow_stats(&OfMatch::any(), end)
            );
        }
    }
}
