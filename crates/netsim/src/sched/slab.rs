//! The engine's queue: payloads in a slab, only `(time, seq, slot)` keys on
//! the calendar queue.
//!
//! The engine's events are large (a partition event carries a whole
//! `Packet` or `OfMessage` inline, 112 bytes), and a calendar queue moves
//! its entries around: bucket sorts, staging-heap sifts, deque growth,
//! rebuilds. Here each payload is written once into a slab slot when it is
//! scheduled and read once when it is popped; the wheel orders 24-byte keys
//! naming the slot. A popped slot heads the free list, which is threaded
//! through the vacant slots themselves, and is the next one handed out: the
//! slab stays as large as the most events ever pending at once, the slot
//! reused is the one most recently touched, and the free list costs no
//! memory of its own to touch.
//!
//! The keys are scheduled on a [`WheelQueue`] in the same order the payloads
//! would have been, so they carry the same `(time, seq)` and pop in the same
//! order: swapping this queue in for a `WheelQueue<E>` cannot change a
//! single pop.

use super::{Scheduler, WheelQueue};

/// A deterministic discrete-event queue for large payloads: the calendar
/// queue orders `(time, seq, slot)` keys, the payloads wait in a slab.
/// Identical pop sequences to [`super::heap::HeapQueue`] and
/// [`WheelQueue`].
#[derive(Debug)]
pub struct EventQueue<E> {
    keys: WheelQueue<u32>,
    slots: Vec<Slot<E>>,
    /// The most recently vacated slot, head of the free list threaded
    /// through the vacant slots themselves (`NONE`: no vacant slot).
    vacant: u32,
}

/// One slab slot: a queued payload, or a link in the free list.
#[derive(Debug)]
enum Slot<E> {
    Full(E),
    /// The next vacant slot (`NONE`: this is the last).
    Vacant(u32),
}

/// End of the free list.
const NONE: u32 = u32::MAX;

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            keys: WheelQueue::new(),
            slots: Vec::new(),
            vacant: NONE,
        }
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> f64 {
        self.keys.now()
    }

    /// Schedules `event` at absolute time `time` (seconds), with the
    /// clamping rules of [`WheelQueue::schedule`].
    pub fn schedule(&mut self, time: f64, event: E) {
        let slot = self.vacant;
        if slot == NONE {
            assert!(
                self.slots.len() < NONE as usize,
                "fewer than 2^32 - 1 pending events"
            );
            self.keys.schedule(time, self.slots.len() as u32);
            self.slots.push(Slot::Full(event));
            return;
        }
        let place = &mut self.slots[slot as usize];
        match *place {
            Slot::Vacant(next) => self.vacant = next,
            Slot::Full(_) => unreachable!("free slot {slot} holds a live payload"),
        }
        *place = Slot::Full(event);
        self.keys.schedule(time, slot);
    }

    /// Schedules `event` after a relative delay.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        self.schedule(self.now() + delay.max(0.0), event);
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let (time, slot) = self.keys.pop()?;
        Some((time, self.vacate(slot)))
    }

    /// Pops the earliest event if `take` accepts it (its time and a
    /// reference to it); see [`WheelQueue::pop_if`].
    pub fn pop_if(&mut self, take: impl FnOnce(f64, &E) -> bool) -> Option<(f64, E)> {
        let slots = &self.slots;
        let (time, slot) = self
            .keys
            .pop_if(|time, &slot| take(time, payload(&slots[slot as usize])))?;
        Some((time, self.vacate(slot)))
    }

    /// Moves the payload out of `slot` and links the slot into the free
    /// list, in one swap. Nothing runs between the two, so the payload is
    /// copied straight to the caller; with a call in between (a separate
    /// free-list `Vec::push`, say) it detours through the stack and each pop
    /// pays two store-forwarding stalls.
    fn vacate(&mut self, slot: u32) -> E {
        let next = std::mem::replace(&mut self.vacant, slot);
        match std::mem::replace(&mut self.slots[slot as usize], Slot::Vacant(next)) {
            Slot::Full(event) => event,
            Slot::Vacant(_) => unreachable!("a queued key owns its slot"),
        }
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.keys.peek_time()
    }

    /// The next event without popping it.
    pub fn peek(&mut self) -> Option<(f64, &E)> {
        let (time, &slot) = self.keys.peek()?;
        Some((time, payload(&self.slots[slot as usize])))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// The payload of a slot a queued key names.
fn payload<E>(slot: &Slot<E>) -> &E {
    match slot {
        Slot::Full(event) => event,
        Slot::Vacant(_) => unreachable!("a queued key owns its slot"),
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> Scheduler<E> for EventQueue<E> {
    fn now(&self) -> f64 {
        EventQueue::now(self)
    }

    fn schedule(&mut self, time: f64, event: E) {
        EventQueue::schedule(self, time, event)
    }

    fn pop(&mut self) -> Option<(f64, E)> {
        EventQueue::pop(self)
    }

    fn peek_time(&mut self) -> Option<f64> {
        EventQueue::peek_time(self)
    }

    fn peek(&mut self) -> Option<(f64, &E)> {
        EventQueue::peek(self)
    }

    fn len(&self) -> usize {
        EventQueue::len(self)
    }
}
