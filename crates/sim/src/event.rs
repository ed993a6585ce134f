//! The time-ordered event queue at the core of the substrate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use drc_cluster::SimTime;

/// A scheduled event: ordering is by time, then by schedule order (FIFO for
/// ties), so queue drains are fully deterministic.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A discrete-event queue over a virtual clock.
///
/// Events are scheduled at absolute instants (or relative to *now*) and
/// popped in time order; popping advances the queue's clock to the event's
/// instant. Ties pop in schedule order.
///
/// # Example
///
/// ```
/// use drc_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime(20), "late");
/// q.schedule_at(SimTime(10), "early");
/// assert_eq!(q.pop(), Some((SimTime(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime(20), "late")));
/// assert_eq!(q.now(), SimTime(20));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at the simulation epoch.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// The queue's current virtual instant (the time of the last popped
    /// event, or the epoch).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// Scheduling in the past is clamped to *now* (the event fires
    /// immediately on the next pop).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Pops the next event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.heap.pop()?;
        self.now = self.now.max(s.at);
        Some((s.at, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(5), "b");
        q.schedule_at(SimTime(5), "c");
        q.schedule_at(SimTime(1), "a");
        assert_eq!(q.len(), 3);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(3), ());
        assert_eq!(q.pop(), Some((SimTime(10), ())));
    }
}
