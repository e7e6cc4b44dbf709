//! Discrete-event scheduling: time-ordered event queues over `f64` seconds.
//!
//! Three interchangeable implementations sit behind the [`Scheduler`] trait:
//!
//! * [`heap::HeapQueue`] — the classic binary-heap queue. Simple, `O(log n)`
//!   per operation, kept as the reference implementation for equivalence
//!   tests and as a fallback.
//! * [`wheel::WheelQueue`] — a calendar queue (Brown 1988): a ring of
//!   time-bucketed slots for the near future plus a sorted overflow tier for
//!   events beyond the ring's horizon. Amortized `O(1)` per operation on the
//!   steady-state attack workloads that dominate FloodGuard experiments.
//! * [`slab::EventQueue`] — the engine's queue: the calendar queue over
//!   24-byte `(time, seq, slot)` keys, payloads in a slab, so what the wheel
//!   moves around does not grow with the event type.
//!
//! All of them order events by `(time, seq)` where `seq` is the insertion
//! sequence number, so ties at the same timestamp pop in insertion order and
//! the simulation stays bit-exactly deterministic regardless of which
//! implementation is plugged in.

use std::cmp::Ordering;

pub mod heap;
pub mod slab;
pub mod wheel;

pub use heap::HeapQueue;
/// The engine's queue: the calendar queue over slot keys, payloads in a
/// slab.
///
/// # Examples
///
/// ```
/// use netsim::sched::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "later");
/// q.schedule(1.0, "sooner");
/// assert_eq!(q.pop(), Some((1.0, "sooner")));
/// assert_eq!(q.pop(), Some((2.0, "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub use slab::EventQueue;
pub use wheel::WheelQueue;

/// An entry in an event queue: `(time, seq)` is the total order.
#[derive(Debug)]
pub(crate) struct Scheduled<E> {
    pub(crate) time: f64,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; ties break by insertion order so the
        // simulation is deterministic. Times are guaranteed finite by
        // `sanitize_time`, so `partial_cmp` cannot fail; `Equal` is a safe
        // fallback should a non-finite value ever slip through in release
        // builds (it then orders purely by `seq`).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Clamps an event time into the queue's valid domain: finite and `>= now`.
///
/// Non-finite times (NaN, ±∞) are a caller bug — they would previously fall
/// into `partial_cmp(..).unwrap_or(Equal)` and silently corrupt heap
/// ordering. Debug builds assert; release builds clamp to `now` so ordering
/// stays sound either way.
pub(crate) fn sanitize_time(time: f64, now: f64) -> f64 {
    if !time.is_finite() {
        debug_assert!(false, "non-finite event time {time} scheduled at now={now}");
        return now;
    }
    if time < now {
        now
    } else {
        time
    }
}

/// A deterministic discrete-event queue ordered by `(time, seq)`.
///
/// Implementations must produce identical pop sequences for identical
/// schedule/pop interleavings (see the equivalence proptests in this module
/// and `tests/tests/sched_equivalence.rs`): the earliest time first, ties
/// broken by insertion order, past times clamped to `now`, non-finite times
/// rejected per `sanitize_time`.
pub trait Scheduler<E> {
    /// The time of the most recently popped event.
    fn now(&self) -> f64;

    /// Schedules `event` at absolute time `time` (seconds). Past times clamp
    /// to the current time so the clock never runs backwards.
    fn schedule(&mut self, time: f64, event: E);

    /// Schedules `event` after a relative delay (negative delays clamp to 0).
    fn schedule_in(&mut self, delay: f64, event: E) {
        let now = self.now();
        self.schedule(now + delay.max(0.0), event);
    }

    /// Pops the earliest event, advancing the clock.
    fn pop(&mut self) -> Option<(f64, E)>;

    /// Time of the next event without popping it.
    fn peek_time(&mut self) -> Option<f64>;

    /// The next event without popping it.
    fn peek(&mut self) -> Option<(f64, &E)>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    // The historical EventQueue unit tests, run against every implementation
    // through the trait so the heap, the wheel and the engine's queue stay
    // behaviorally locked.
    fn each_impl(check: impl Fn(&mut dyn Scheduler<i64>)) {
        check(&mut HeapQueue::new());
        check(&mut WheelQueue::new());
        check(&mut EventQueue::new());
    }

    #[test]
    fn orders_by_time() {
        each_impl(|q| {
            q.schedule(3.0, 3);
            q.schedule(1.0, 1);
            q.schedule(2.0, 2);
            assert_eq!(q.pop(), Some((1.0, 1)));
            assert_eq!(q.pop(), Some((2.0, 2)));
            assert_eq!(q.pop(), Some((3.0, 3)));
        });
    }

    #[test]
    fn ties_break_by_insertion_order() {
        each_impl(|q| {
            q.schedule(1.0, 10);
            q.schedule(1.0, 11);
            q.schedule(1.0, 12);
            assert_eq!(q.pop().unwrap().1, 10);
            assert_eq!(q.pop().unwrap().1, 11);
            assert_eq!(q.pop().unwrap().1, 12);
        });
    }

    #[test]
    fn clock_advances_monotonically() {
        each_impl(|q| {
            q.schedule(5.0, 0);
            q.pop();
            assert_eq!(q.now(), 5.0);
            // Scheduling in the past clamps to now.
            q.schedule(1.0, 0);
            assert_eq!(q.pop(), Some((5.0, 0)));
        });
    }

    #[test]
    fn schedule_in_is_relative() {
        each_impl(|q| {
            q.schedule(10.0, 0);
            q.pop();
            q.schedule_in(2.5, 1);
            assert_eq!(q.pop(), Some((12.5, 1)));
        });
    }

    #[test]
    fn negative_delay_clamps() {
        each_impl(|q| {
            q.schedule(1.0, 0);
            q.pop();
            q.schedule_in(-3.0, 1);
            assert_eq!(q.pop(), Some((1.0, 1)));
        });
    }

    #[test]
    fn len_and_empty() {
        each_impl(|q| {
            assert!(q.is_empty());
            q.schedule(1.0, 0);
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(1.0));
            assert_eq!(q.peek(), Some((1.0, &0)));
            q.pop();
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
        });
    }

    #[test]
    fn many_events_remain_sorted() {
        each_impl(|q| {
            // Insert pseudo-random times; popping must be non-decreasing.
            let mut x: u64 = 0x2545_f491_4f6c_dd1d;
            for i in 0..1000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.schedule((x % 10_000) as f64 / 100.0, i);
            }
            let mut last = 0.0;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
            }
        });
    }

    #[test]
    fn peek_does_not_disturb_order() {
        each_impl(|q| {
            q.schedule(2.0, 2);
            q.schedule(1.0, 1);
            assert_eq!(q.peek(), Some((1.0, &1)));
            assert_eq!(q.peek(), Some((1.0, &1)));
            assert_eq!(q.pop(), Some((1.0, 1)));
            assert_eq!(q.peek(), Some((2.0, &2)));
            assert_eq!(q.pop(), Some((2.0, 2)));
        });
    }

    /// Satellite: NaN/infinity must not corrupt ordering. Debug builds trip
    /// the `debug_assert`; release builds clamp to `now` and stay sorted.
    #[test]
    fn non_finite_times_cannot_corrupt_ordering() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for which in 0..3 {
                let outcome = std::panic::catch_unwind(move || {
                    let mut q: Box<dyn Scheduler<i64>> = match which {
                        0 => Box::new(HeapQueue::new()),
                        1 => Box::new(WheelQueue::new()),
                        _ => Box::new(EventQueue::new()),
                    };
                    q.schedule(1.0, 1);
                    q.schedule(bad, 2);
                    q.schedule(0.5, 3);
                    (q.pop(), q.pop(), q.pop(), q.pop())
                });
                if cfg!(debug_assertions) {
                    assert!(
                        outcome.is_err(),
                        "debug build must reject non-finite time {bad}"
                    );
                } else {
                    // Clamped to now (0.0): pops first, rest stay ordered.
                    let pops = outcome.unwrap();
                    assert_eq!(
                        pops,
                        (
                            Some((0.0, 2)),
                            Some((0.5, 3)),
                            Some((1.0, 1)),
                            None::<(f64, i64)>
                        )
                    );
                }
            }
        }
    }

    /// One operation in a randomized schedule/pop workload.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Absolute time in quarter-millisecond quanta (forces same-time
        /// bursts), optionally far in the future (overflow tier) or in the
        /// past (clamp path).
        Schedule(f64),
        ScheduleIn(f64),
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> + Clone {
        prop_oneof![
            // Near-future quantized times: exercises ring buckets + ties.
            (0u32..2_000).prop_map(|k| Op::Schedule(k as f64 * 0.000_25)),
            // Far-future times: exercises the overflow tier and migration.
            (0u32..500).prop_map(|k| Op::Schedule(10.0 + k as f64 * 7.3)),
            // Past/zero-delay relative times: exercises the clamp path.
            (0u32..100).prop_map(|k| Op::ScheduleIn(k as f64 * 0.000_1 - 0.005)),
            Just(Op::Pop),
            Just(Op::Pop),
        ]
    }

    proptest! {
        /// Satellite: random schedule/pop interleavings produce identical
        /// pop sequences from the heap and the wheel.
        #[test]
        fn wheel_matches_heap(ops in proptest::collection::vec(op_strategy(), 0..600)) {
            let mut heap = HeapQueue::new();
            let mut wheel = WheelQueue::new();
            for (i, op) in ops.iter().enumerate() {
                let id = i as i64;
                match *op {
                    Op::Schedule(t) => {
                        heap.schedule(t, id);
                        wheel.schedule(t, id);
                    }
                    Op::ScheduleIn(d) => {
                        heap.schedule_in(d, id);
                        wheel.schedule_in(d, id);
                    }
                    Op::Pop => {
                        prop_assert_eq!(Scheduler::peek_time(&mut heap),
                                        Scheduler::peek_time(&mut wheel));
                        prop_assert_eq!(heap.pop(), wheel.pop());
                    }
                }
                prop_assert_eq!(Scheduler::len(&heap), Scheduler::len(&wheel));
            }
            // Drain: remaining sequences must match exactly.
            loop {
                let (a, b) = (heap.pop(), wheel.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// A payload that counts its own drops, so the slab's bookkeeping shows:
    /// a payload dropped while still queued, dropped twice, or never dropped.
    #[derive(Debug)]
    struct Counted {
        id: usize,
        drops: Rc<RefCell<Vec<u32>>>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.borrow_mut()[self.id] += 1;
        }
    }

    proptest! {
        /// The engine's queue pops what the heap pops, at the same times,
        /// under random schedule/peek/pop/pop-if interleavings; every
        /// payload is dropped exactly once — after it is handed out, or with
        /// the queue — and none is handed out after a reused slot overwrote
        /// it.
        #[test]
        fn engine_queue_matches_heap_and_drops_each_payload_once(
            ops in proptest::collection::vec((op_strategy(), 0u8..3), 0..600),
        ) {
            let drops = Rc::new(RefCell::new(vec![0u32; ops.len()]));
            let mut heap = HeapQueue::new();
            let mut queue = EventQueue::new();
            let mut scheduled = vec![false; ops.len()];
            let mut popped = 0u32;
            for (id, &(op, mode)) in ops.iter().enumerate() {
                let payload = || Counted { id, drops: Rc::clone(&drops) };
                match op {
                    Op::Schedule(t) => {
                        heap.schedule(t, id);
                        queue.schedule(t, payload());
                        scheduled[id] = true;
                    }
                    Op::ScheduleIn(d) => {
                        heap.schedule_in(d, id);
                        queue.schedule_in(d, payload());
                        scheduled[id] = true;
                    }
                    Op::Pop => {
                        // Mode 2: only even payloads may leave.
                        let (got, expected) = if mode == 2 {
                            let even = heap.peek().is_some_and(|(_, &id)| id % 2 == 0);
                            let got = queue.pop_if(|_, p| p.id % 2 == 0);
                            (got, if even { heap.pop() } else { None })
                        } else {
                            (queue.pop(), heap.pop())
                        };
                        let got = match got {
                            Some((t, p)) => {
                                // Alive when handed out: no reuse overwrote it.
                                prop_assert_eq!(drops.borrow()[p.id], 0);
                                popped += 1;
                                Some((t, p.id))
                            }
                            None => None,
                        };
                        prop_assert_eq!(got, expected);
                    }
                }
                if mode == 1 {
                    prop_assert_eq!(
                        queue.peek().map(|(t, p)| (t, p.id)),
                        heap.peek().map(|(t, &id)| (t, id))
                    );
                }
                prop_assert_eq!(queue.len(), heap.len());
                prop_assert_eq!(queue.now(), heap.now());
                let drops = drops.borrow();
                prop_assert!(drops.iter().all(|&n| n <= 1), "a payload dropped twice");
                prop_assert_eq!(drops.iter().sum::<u32>(), popped, "a queued payload was dropped");
            }
            drop(queue);
            let drops = drops.borrow();
            for (id, &was_scheduled) in scheduled.iter().enumerate() {
                prop_assert_eq!(drops[id], u32::from(was_scheduled), "payload {}", id);
            }
        }
    }
}
