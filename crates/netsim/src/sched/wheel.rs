//! The calendar-queue scheduler: a timer wheel for the near future plus a
//! sorted overflow tier, with the same `(time, seq)` total order as the
//! binary heap.
//!
//! # Structure
//!
//! Time is divided into fixed-`width` buckets numbered from zero
//! (`bucket = floor(time / width)`). A power-of-two ring of slots covers the
//! `nslots` buckets starting at the cursor (`cur_bucket`); events that land
//! beyond that horizon wait in a binary-heap overflow tier and migrate into
//! the ring as the cursor sweeps forward. Only the bucket under the cursor
//! is ever sorted, lazily, the first time it is popped from or peeked at;
//! arrivals landing in that already-open bucket wait in a small staging
//! heap that is merged on the fly and always drained before the cursor
//! moves on (the ladder-queue trick for churn into the current epoch).
//!
//! # Determinism
//!
//! Ordering decisions compare `(time, seq)` exactly — bucket geometry
//! (width, slot count, resizes) only affects *where* an event waits, never
//! *when* it pops relative to another. Any two correct schedulers over the
//! same total order produce identical pop sequences, so swapping the wheel
//! in for the heap preserves bit-exact simulation determinism (enforced by
//! the equivalence proptests in `sched::tests` and
//! `tests/tests/suite/sched_equivalence.rs`).
//!
//! Ring-before-overflow is safe: buckets are a monotone function of time,
//! and the overflow tier only holds buckets at or beyond `cur_bucket +
//! nslots`, so every overflow event is strictly later than every ring event.
//! Ties at the same timestamp always share a bucket and therefore a tier.
//!
//! # Cost model
//!
//! Steady-state attack traffic (the dominant FloodGuard workload) schedules
//! each event a short, bounded delay ahead; inserts append to a bucket in
//! `O(1)`, each event is sorted once inside a small bucket, and pops come
//! off the front of the cursor bucket in `O(1)`. The bucket width is
//! re-derived from the observed event spacing whenever the ring resizes,
//! and steered by two measured-cost signals in between: sweeping too many
//! empty slots widens it (`scan_debt`), and funneling too much traffic
//! through the cursor bucket's staging heap narrows it (`front_debt`). The
//! cost feedback converges even on clustered time distributions that fool
//! spacing estimates, so the wheel adapts to anything from microsecond
//! packet service up to second-scale maintenance timers.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use super::{sanitize_time, Scheduled, Scheduler};

/// Initial/minimum number of ring slots (power of two).
const MIN_SLOTS: usize = 64;
/// Maximum number of ring slots (power of two).
const MAX_SLOTS: usize = 1 << 16;
/// Bounds for the adaptive bucket width, seconds.
const MIN_WIDTH: f64 = 1e-9;
const MAX_WIDTH: f64 = 1e3;

/// Where the next event is waiting.
enum Tier {
    Ring,
    Overflow,
}

/// Which of the ring's three structures holds the minimum: the cursor
/// bucket's sorted run, the staging heap, or the same-time FIFO.
enum Src {
    Bucket,
    Staged,
    Tie,
}

/// A deterministic discrete-event queue over a calendar queue (timer wheel
/// plus sorted overflow tier). Amortized `O(1)` per operation; identical
/// pop sequences to [`super::heap::HeapQueue`].
#[derive(Debug)]
pub struct WheelQueue<E> {
    /// Ring of buckets; slot `b & mask` holds bucket `b` for the `nslots`
    /// buckets starting at `cur_bucket`. Bucket deques are recycled across
    /// the run, so steady-state scheduling allocates nothing per event.
    ///
    /// Deques, not vectors: the cursor bucket serves ascending from the
    /// front in `O(1)` without first reversing into tail-pop order — a
    /// same-time burst appended in `seq` order (the flood shape) is served
    /// with no sorting or element moves at all.
    slots: Vec<VecDeque<Scheduled<E>>>,
    /// Per-slot "needs sorting" flag, maintained at push time: an append
    /// that is not `>=` the bucket's back entry marks the slot dirty. The
    /// back entry is cache-hot when pushing, so this moves the sortedness
    /// check off the open path — a clean bucket (every same-time burst, and
    /// any monotone fill) is opened with a single flag test instead of a
    /// full ordering scan over elements the pops have not warmed yet.
    dirty: Vec<bool>,
    /// `slots.len() - 1`; `slots.len()` is a power of two.
    mask: u64,
    /// Seconds per bucket; adapted to observed event spacing on rebuilds.
    width: f64,
    inv_width: f64,
    /// Absolute bucket index the cursor is on.
    cur_bucket: u64,
    /// Whether the cursor bucket is currently sorted (ascending by
    /// `(time, seq)`, so the front is the earliest event).
    sorted: bool,
    /// Events beyond the ring horizon, min-first via `Scheduled`'s reversed
    /// `Ord`.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Events currently held in ring slots.
    ring_len: usize,
    /// Empty slots scanned since the last rebuild; triggers width
    /// recalibration when it outgrows the ring. Detects a width that is
    /// too *narrow* for the event spacing.
    scan_debt: usize,
    /// Staging heap for arrivals that land in the *already-open* cursor
    /// bucket (min-first via `Scheduled`'s reversed `Ord`). Splicing such
    /// arrivals into the sorted run would cost an `O(bucket)` memmove per
    /// insert — quadratic when churn keeps feeding the open bucket, and no
    /// bucket width can prevent it because repeated `f64` time arithmetic
    /// produces distinct times one ulp apart that no finite width
    /// separates. The staging heap bounds that cost at `O(log c)` where
    /// `c` is only the arrivals during the current bucket's service, so it
    /// stays small and cache-hot. Invariant: non-empty only while `sorted`
    /// is set, and always drained before the cursor leaves the bucket.
    front: BinaryHeap<Scheduled<E>>,
    /// Arrivals scheduled at *exactly* the serving time (`time == now`,
    /// bit-equal) — the engine's single most common pattern under
    /// saturation (`SwitchStart`/`CtrlStart` at `busy_until == now`).
    /// Their pop order among themselves is their arrival order (`seq`), so
    /// a FIFO serves them in `O(1)` instead of sifting same-time entries
    /// through the staging heap. Invariant: non-empty only while `sorted`
    /// is set and every entry's time equals `now`; since such entries are
    /// always at or below the queue minimum's time, the FIFO drains before
    /// `now` can advance past them.
    now_fifo: VecDeque<Scheduled<E>>,
    /// Pushes into an oversized [`Self::front`] since the last rebuild;
    /// triggers width recalibration when it outgrows the queue. Detects a
    /// width that is too *wide*: a stale millisecond-scale width under
    /// microsecond-spaced churn funnels most arrivals through the staging
    /// heap instead of flat future buckets.
    front_debt: usize,
    /// Drained bucket deques kept for reuse. The cursor revisits a given
    /// slot only once per full ring revolution, so without recycling every
    /// burst would grow a fresh zero-capacity deque (realloc chain plus
    /// first-touch page faults) and strand the drained one's capacity in a
    /// slot that stays cold for the rest of the revolution.
    spare: Vec<VecDeque<Scheduled<E>>>,
    seq: u64,
    now: f64,
}

/// Cap on recycled bucket deques ([`WheelQueue::spare`]). Steady state
/// drains about as many buckets as it fills, so the pool hovers near
/// empty; the cap only bounds memory across workload shifts.
const SPARE_MAX: usize = 32;

/// Staging-heap population a well-calibrated wheel may reach without
/// accruing [`WheelQueue::front_debt`]: below this the heap is a few
/// cache lines and its `O(log c)` operations are noise.
const HEALTHY_FRONT: usize = 64;

impl<E> WheelQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> WheelQueue<E> {
        let width = 1e-4;
        WheelQueue {
            slots: (0..MIN_SLOTS).map(|_| VecDeque::new()).collect(),
            dirty: vec![false; MIN_SLOTS],
            mask: (MIN_SLOTS - 1) as u64,
            width,
            inv_width: width.recip(),
            cur_bucket: 0,
            sorted: false,
            overflow: BinaryHeap::new(),
            ring_len: 0,
            scan_debt: 0,
            front: BinaryHeap::new(),
            now_fifo: VecDeque::new(),
            front_debt: 0,
            spare: Vec::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `event` at absolute time `time` (seconds).
    ///
    /// Events scheduled in the past are clamped to the current time so the
    /// clock never runs backwards; non-finite times are rejected (debug
    /// assert) and clamped to now.
    pub fn schedule(&mut self, time: f64, event: E) {
        let time = sanitize_time(time, self.now);
        let entry = Scheduled {
            time,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.place(entry);
        let len = self.ring_len + self.overflow.len();
        let nslots = self.slots.len();
        if len > 2 * nslots {
            if nslots < MAX_SLOTS {
                self.rebuild(nslots * 2, None);
            }
        } else if self.front_debt > len {
            // The staging heap is carrying more traffic than a rebuild
            // would move: the width is too wide for the current spacing.
            // Narrow it aggressively; the scan-debt trigger walks it back
            // up if this overshoots. At the width floor (ulp-level time
            // clusters) narrowing cannot help, so just keep staging.
            self.front_debt = 0;
            if self.width > MIN_WIDTH {
                self.rebuild(nslots, Some(self.width / 8.0));
            }
        } else if nslots > MIN_SLOTS && len < nslots / 8 {
            // Occupancy has collapsed far below capacity: shrink (which also
            // recalibrates the width). The wide grow/shrink hysteresis
            // (2x vs 1/8) prevents thrashing.
            self.rebuild(nslots / 2, None);
        }
    }

    /// Schedules `event` after a relative delay.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        self.schedule(self.now + delay.max(0.0), event);
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        // Fast path: with the cursor bucket open (sorted), the global
        // minimum is the smaller of its front and the staging-heap top
        // (`place` never targets an earlier bucket and the overflow tier
        // is beyond the ring horizon), so the hot steady-state pop skips
        // the cursor walk entirely.
        if self.sorted {
            let slot = (self.cur_bucket & self.mask) as usize;
            // Hottest case first: no churn has landed in the open bucket, so
            // the minimum is simply its front — two emptiness checks and a
            // deque pop, no three-way comparison.
            if self.front.is_empty() && self.now_fifo.is_empty() {
                if let Some(entry) = self.slots[slot].pop_front() {
                    self.ring_len -= 1;
                    self.now = entry.time;
                    return Some((entry.time, entry.event));
                }
            } else if let Some(src) = self.ring_min_src(slot) {
                let entry = match src {
                    Src::Bucket => self.slots[slot].pop_front().expect("ring_min_src saw it"),
                    Src::Staged => self.front.pop().expect("ring_min_src saw it"),
                    Src::Tie => self.now_fifo.pop_front().expect("ring_min_src saw it"),
                };
                self.ring_len -= 1;
                self.now = entry.time;
                return Some((entry.time, entry.event));
            }
        }
        self.pop_slow()
    }

    /// Which open-bucket structure holds the `(time, seq)` minimum, if any
    /// of them is non-empty. Only meaningful while the cursor bucket is
    /// open (`sorted`).
    fn ring_min_src(&self, slot: usize) -> Option<Src> {
        let mut best = self.slots[slot].front().map(|e| (e, Src::Bucket));
        if let Some(f) = self.front.peek() {
            if !matches!(&best, Some((b, _)) if cmp_time_seq(f, b) == Ordering::Greater) {
                best = Some((f, Src::Staged));
            }
        }
        if let Some(q) = self.now_fifo.front() {
            if !matches!(&best, Some((b, _)) if cmp_time_seq(q, b) == Ordering::Greater) {
                best = Some((q, Src::Tie));
            }
        }
        best.map(|(_, src)| src)
    }

    /// Pop when the cursor bucket is closed or exhausted: walk the cursor
    /// to the next event's tier first. The staging heap is necessarily
    /// empty here (it is drained before the cursor leaves a bucket), so
    /// the ring minimum is the cursor bucket's front.
    fn pop_slow(&mut self) -> Option<(f64, E)> {
        match self.advance()? {
            Tier::Ring => {
                debug_assert!(self.front.is_empty() && self.now_fifo.is_empty());
                let slot = (self.cur_bucket & self.mask) as usize;
                let entry = self.slots[slot]
                    .pop_front()
                    .expect("advance found this slot");
                self.ring_len -= 1;
                self.now = entry.time;
                Some((entry.time, entry.event))
            }
            Tier::Overflow => Some(self.pop_overflow()),
        }
    }

    /// Ring is empty: serve the overflow minimum directly and re-anchor the
    /// window at its time so later short-delay schedules land back in the
    /// ring.
    fn pop_overflow(&mut self) -> (f64, E) {
        let entry = self.overflow.pop().expect("advance saw overflow");
        self.now = entry.time;
        self.cur_bucket = self.bucket_of(entry.time);
        self.sorted = false;
        self.migrate_overflow();
        (entry.time, entry.event)
    }

    /// Pops the earliest event if `take` accepts it (its time and a
    /// reference to it), otherwise leaves the queue as it is and returns
    /// `None`. One cursor walk and one minimum search, where [`Self::peek`]
    /// followed by [`Self::pop`] does each twice: the engine's "next event,
    /// if it is inside the window" loop.
    pub fn pop_if(&mut self, take: impl FnOnce(f64, &E) -> bool) -> Option<(f64, E)> {
        match self.advance()? {
            Tier::Ring => {
                let slot = (self.cur_bucket & self.mask) as usize;
                let src = self.ring_min_src(slot).expect("advance found this slot");
                let head = match src {
                    Src::Bucket => self.slots[slot].front(),
                    Src::Staged => self.front.peek(),
                    Src::Tie => self.now_fifo.front(),
                }
                .expect("ring_min_src saw it");
                if !take(head.time, &head.event) {
                    return None;
                }
                let entry = match src {
                    Src::Bucket => self.slots[slot].pop_front(),
                    Src::Staged => self.front.pop(),
                    Src::Tie => self.now_fifo.pop_front(),
                }
                .expect("ring_min_src saw it");
                self.ring_len -= 1;
                self.now = entry.time;
                Some((entry.time, entry.event))
            }
            Tier::Overflow => {
                let head = self.overflow.peek().expect("advance saw overflow");
                if !take(head.time, &head.event) {
                    return None;
                }
                Some(self.pop_overflow())
            }
        }
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.peek().map(|(t, _)| t)
    }

    /// The next event without popping it.
    pub fn peek(&mut self) -> Option<(f64, &E)> {
        match self.advance()? {
            Tier::Ring => {
                let slot = (self.cur_bucket & self.mask) as usize;
                let entry = match self.ring_min_src(slot) {
                    Some(Src::Bucket) => self.slots[slot].front().expect("ring_min_src saw it"),
                    Some(Src::Staged) => self.front.peek().expect("ring_min_src saw it"),
                    Some(Src::Tie) => self.now_fifo.front().expect("ring_min_src saw it"),
                    None => unreachable!("advance found this slot"),
                };
                Some((entry.time, &entry.event))
            }
            Tier::Overflow => {
                let entry = self.overflow.peek().expect("advance saw overflow");
                Some((entry.time, &entry.event))
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn bucket_of(&self, time: f64) -> u64 {
        // Saturating cast: far-future times pin to u64::MAX and stay in the
        // overflow tier. Monotone in `time`, which is all correctness needs.
        (time * self.inv_width) as u64
    }

    /// Inserts an already-sequenced entry into the ring or overflow tier.
    fn place(&mut self, entry: Scheduled<E>) {
        let bucket = self.bucket_of(entry.time).max(self.cur_bucket);
        if bucket < self.cur_bucket + self.slots.len() as u64 {
            if bucket == self.cur_bucket && self.sorted {
                // The cursor bucket is already open: ties with the serving
                // time take the O(1) FIFO lane, anything else in the
                // bucket's window is staged in the front heap rather than
                // spliced into the sorted run. Charge debt only for
                // arrivals an 8x narrower width would deflect into a later
                // (flat) bucket — near-tie staging is unavoidable at any
                // width, and narrowing in response to it just trades cheap
                // staging for empty-slot sweeps.
                if entry.time == self.now {
                    self.now_fifo.push_back(entry);
                } else {
                    if self.front.len() >= HEALTHY_FRONT && entry.time - self.now > self.width / 8.0
                    {
                        self.front_debt += 1;
                    }
                    self.front.push(entry);
                }
            } else {
                let slot = (bucket & self.mask) as usize;
                let v = &mut self.slots[slot];
                match v.back() {
                    Some(back) => {
                        if cmp_time_seq(&entry, back) == Ordering::Less {
                            self.dirty[slot] = true;
                        }
                    }
                    None => {
                        if v.capacity() == 0 {
                            if let Some(spare) = self.spare.pop() {
                                *v = spare;
                            }
                        }
                    }
                }
                v.push_back(entry);
            }
            self.ring_len += 1;
        } else {
            self.overflow.push(entry);
        }
    }

    /// Moves the cursor to the tier holding the earliest event. Sorts the
    /// cursor bucket lazily. Mutates only cursor/sort state, never order.
    fn advance(&mut self) -> Option<Tier> {
        if self.ring_len == 0 {
            if self.overflow.is_empty() {
                return None;
            }
            return Some(Tier::Overflow);
        }
        loop {
            let slot = (self.cur_bucket & self.mask) as usize;
            if !self.slots[slot].is_empty() || !self.front.is_empty() || !self.now_fifo.is_empty() {
                if !self.sorted {
                    debug_assert!(self.front.is_empty() && self.now_fifo.is_empty());
                    // Events append in `seq` order, so a bucket of same-time
                    // events (the flood burst shape) is already ascending
                    // (`dirty` unset): only mixed-time buckets pay a sort.
                    if self.dirty[slot] {
                        let v = &mut self.slots[slot];
                        v.make_contiguous().sort_unstable_by(cmp_time_seq);
                        self.dirty[slot] = false;
                    }
                    self.sorted = true;
                }
                return Some(Tier::Ring);
            }
            // The cursor is leaving this empty slot behind for a full
            // revolution: reclaim its capacity for upcoming bursts.
            let v = &mut self.slots[slot];
            if v.capacity() > 0 && self.spare.len() < SPARE_MAX {
                self.spare.push(std::mem::take(v));
            }
            self.cur_bucket += 1;
            self.sorted = false;
            self.scan_debt += 1;
            self.migrate_overflow();
            if self.scan_debt > self.ring_len + self.overflow.len() + 64 {
                // Empty-slot sweeping since the last rebuild now costs more
                // than the rebuild itself: the width is too narrow for the
                // current event spacing (e.g. nanosecond buckets under
                // microsecond gaps), so widen it.
                self.rebuild(self.slots.len(), Some(self.width * 2.0));
            }
        }
    }

    /// Pulls overflow events that now fall inside the ring horizon.
    fn migrate_overflow(&mut self) {
        let horizon = self.cur_bucket + self.slots.len() as u64;
        while let Some(top) = self.overflow.peek() {
            if self.bucket_of(top.time) >= horizon {
                break;
            }
            let entry = self.overflow.pop().expect("peeked above");
            self.place(entry);
        }
    }

    /// Redistributes every pending event over `new_nslots` slots. With
    /// `width: None` the bucket width is re-derived from the observed event
    /// spacing; `Some(w)` installs `w` (clamped) directly — the debt
    /// triggers use this to steer the width multiplicatively from measured
    /// cost, which converges even on time distributions (lattices, near-tie
    /// clusters) that fool the spacing estimator. `O(n)`; amortized across
    /// the geometric resize schedule and the debt thresholds. Order-neutral.
    fn rebuild(&mut self, new_nslots: usize, width: Option<f64>) {
        let mut entries: Vec<Scheduled<E>> = Vec::with_capacity(self.len());
        for v in &mut self.slots {
            entries.extend(v.drain(..));
        }
        entries.extend(self.front.drain());
        entries.extend(self.now_fifo.drain(..));
        entries.extend(self.overflow.drain());
        self.width = match width {
            Some(w) => w.clamp(MIN_WIDTH, MAX_WIDTH),
            None => derive_width(&mut entries, self.width),
        };
        self.inv_width = self.width.recip();
        if new_nslots > self.slots.len() {
            self.slots.resize_with(new_nslots, VecDeque::new);
        } else {
            self.slots.truncate(new_nslots);
        }
        self.dirty.clear();
        self.dirty.resize(new_nslots, false);
        self.mask = (new_nslots - 1) as u64;
        self.cur_bucket = self.bucket_of(self.now);
        self.sorted = false;
        self.ring_len = 0;
        self.scan_debt = 0;
        self.front_debt = 0;
        for entry in entries {
            self.place(entry);
        }
    }
}

/// Ascending `(time, seq)` — the serving order inside ring buckets. The
/// reverse of [`Scheduled`]'s (min-heap) `Ord`; times are finite per
/// [`sanitize_time`], so `partial_cmp` cannot fail.
fn cmp_time_seq<E>(a: &Scheduled<E>, b: &Scheduled<E>) -> Ordering {
    a.time
        .partial_cmp(&b.time)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.seq.cmp(&b.seq))
}

/// Picks a bucket width from the spacing of **distinct** times in the
/// earliest half of pending events (Brown's calendar-queue heuristic,
/// adapted for ties): small enough that buckets stay short, large enough
/// that the cursor is not sweeping empty slots.
///
/// Counting distinct times matters: flood workloads schedule whole bursts
/// at the same timestamp, and averaging separation over *events* would
/// derive a width hundreds of times finer than the burst spacing — every
/// burst then lands in its own far-flung slot, each push touches a cold
/// recycled bucket, and the wheel goes memory-bound. With `d` distinct
/// times the width is `span/d · (1 + d/k)`: strictly below the mean
/// distinct spacing (so consecutive burst ticks never share a bucket) and
/// converging to the classic `2·span/k` when all times are unique.
///
/// Falls back to the current width for degenerate inputs (all-equal
/// times, fewer than two events).
fn derive_width<E>(entries: &mut [Scheduled<E>], fallback: f64) -> f64 {
    let n = entries.len();
    if n < 2 {
        return fallback;
    }
    let k = (n / 2).max(2) - 1;
    entries.select_nth_unstable_by(k, |a, b| {
        a.time
            .partial_cmp(&b.time)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut times: Vec<f64> = entries[..=k].iter().map(|e| e.time).collect();
    times.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    times.dedup();
    let distinct = times.len();
    let span = times[distinct - 1] - times[0];
    if span <= 0.0 {
        return fallback;
    }
    let width = span / distinct as f64 * (1.0 + distinct as f64 / k as f64);
    width.clamp(MIN_WIDTH, MAX_WIDTH)
}

impl<E> Default for WheelQueue<E> {
    fn default() -> Self {
        WheelQueue::new()
    }
}

impl<E> Scheduler<E> for WheelQueue<E> {
    fn now(&self) -> f64 {
        WheelQueue::now(self)
    }

    fn schedule(&mut self, time: f64, event: E) {
        WheelQueue::schedule(self, time, event)
    }

    fn pop(&mut self) -> Option<(f64, E)> {
        WheelQueue::pop(self)
    }

    fn peek_time(&mut self) -> Option<f64> {
        WheelQueue::peek_time(self)
    }

    fn peek(&mut self) -> Option<(f64, &E)> {
        WheelQueue::peek(self)
    }

    fn len(&self) -> usize {
        WheelQueue::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_tier_round_trips() {
        let mut q = WheelQueue::new();
        // Default window is 64 slots x 100us = 6.4ms; 1.0s lands in overflow.
        q.schedule(1.0, "far");
        q.schedule(0.001, "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((0.001, "near")));
        assert_eq!(q.pop(), Some((1.0, "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_burst_pops_in_insertion_order() {
        let mut q = WheelQueue::new();
        for i in 0..10_000 {
            q.schedule(0.5, i);
        }
        for i in 0..10_000 {
            assert_eq!(q.pop(), Some((0.5, i)));
        }
    }

    #[test]
    fn insert_into_sorted_cursor_bucket_keeps_order() {
        let mut q = WheelQueue::new();
        q.schedule(1e-5, 1);
        q.schedule(9e-5, 9);
        // Sort the cursor bucket via peek, then insert into it.
        assert_eq!(q.peek_time(), Some(1e-5));
        q.schedule(5e-5, 5);
        q.schedule(1e-5, 2); // tie with the first event, later seq
        assert_eq!(q.pop(), Some((1e-5, 1)));
        assert_eq!(q.pop(), Some((1e-5, 2)));
        assert_eq!(q.pop(), Some((5e-5, 5)));
        assert_eq!(q.pop(), Some((9e-5, 9)));
    }

    #[test]
    fn grows_and_shrinks_through_load_spike() {
        let mut q = WheelQueue::new();
        // Load far beyond the initial 64 slots to force growth...
        for i in 0..5_000 {
            q.schedule(i as f64 * 1e-5, i);
        }
        assert!(q.slots.len() > MIN_SLOTS);
        // ...then drain; interleaved schedules trigger the shrink path.
        let mut popped = 0;
        let mut last = 0.0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, 5_000);
        // Once drained, each schedule re-checks occupancy and walks the
        // ring back down to the floor.
        while q.slots.len() > MIN_SLOTS {
            q.schedule(last, 0);
            q.pop();
        }
        assert_eq!(q.slots.len(), MIN_SLOTS);
    }

    #[test]
    fn widely_spaced_events_recalibrate_width() {
        let mut q = WheelQueue::new();
        // 10ms spacing vs the initial 100us width: the scan-debt guard must
        // rebuild instead of sweeping 100 empty slots per pop forever.
        for i in 0..500 {
            q.schedule(i as f64 * 0.01, i);
        }
        for i in 0..500 {
            assert_eq!(q.pop(), Some((i as f64 * 0.01, i)));
        }
    }
}
