//! A stable priority queue of timestamped events.

use crate::time::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Internal heap entry: ordered by time, then by insertion sequence.
struct Entry<E> {
    at: Cycles,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event.
        // Ties break on the *lower* sequence number (FIFO among equals),
        // which is what makes the whole simulation deterministic.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic event queue.
///
/// Events are popped in timestamp order; events with the same timestamp
/// are popped in insertion order. This stability is a correctness
/// property, not an optimisation: the kernel protocol relies on FIFO
/// channel ordering (§4.3.1), which the NoC implements on top of this
/// queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Cycles,
    popped: u64,
    /// Sequence numbers consumed by `skip_seqs`: never pushed.
    skipped: u64,
    /// Pops counted by `credit_pops`: never executed.
    credited: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Cycles::ZERO,
            popped: 0,
            skipped: 0,
            credited: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of pops counted so far: every [`EventQueue::pop`] plus
    /// the pops credited through [`EventQueue::credit_pops`].
    pub fn processed(&self) -> u64 {
        self.popped
    }

    /// Pushes plus pops the heap has executed — the host work behind
    /// `processed()`, which also counts pops that were only credited.
    /// Every sequence number not skipped was pushed and every counted
    /// pop not credited was executed, so nothing is counted per push.
    pub fn heap_ops(&self) -> u64 {
        (self.next_seq - self.skipped) + (self.popped - self.credited)
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past — an event scheduled before `now`
    /// indicates a bug in a cost computation.
    pub fn schedule(&mut self, at: Cycles, event: E) {
        assert!(at >= self.now, "event scheduled in the past: {} < now {}", at, self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Schedules `event` `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        // `schedule` refuses timestamps before `now` and `now` only ever
        // moves to the heap's minimum, so `entry.at >= self.now` here.
        let entry = self.heap.pop()?;
        self.now = entry.at;
        self.popped += 1;
        Some((entry.at, entry.event))
    }

    // ----- sequence ranges ------------------------------------------------
    //
    // For a caller that stands one heap entry in for a *run* of entries
    // with equal timestamps and consecutive sequence numbers (see
    // `PeSchedule`). Sequence numbers are unique, so no other entry can
    // sort inside such a run: popping the run's first entry and
    // accounting for the rest by count is indistinguishable, through
    // this queue's interface, from pushing and popping each of them.

    /// The sequence number the next [`EventQueue::schedule`] will use.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Consumes `n` sequence numbers without pushing: the entries they
    /// would have keyed ride behind an entry already in the heap.
    pub(crate) fn skip_seqs(&mut self, n: u64) {
        self.next_seq += n;
        self.skipped += n;
    }

    /// Counts `n` pops that did not touch the heap: entries that rode
    /// behind a popped one and would have popped back to back with it.
    pub(crate) fn credit_pops(&mut self, n: u64) {
        self.popped += n;
        self.credited += n;
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|e| e.at)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(30), "c");
        q.schedule(Cycles(10), "a");
        q.schedule(Cycles(20), "b");
        assert_eq!(q.pop(), Some((Cycles(10), "a")));
        assert_eq!(q.pop(), Some((Cycles(20), "b")));
        assert_eq!(q.pop(), Some((Cycles(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycles(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles(5), i)));
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), ());
        assert_eq!(q.now(), Cycles::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycles(10));
        q.schedule_in(5, ());
        assert_eq!(q.pop(), Some((Cycles(15), ())));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), ());
        q.pop();
        q.schedule(Cycles(5), ());
    }

    #[test]
    fn sequence_ranges_are_counted_but_not_executed() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(5), 'a');
        // Three more entries ride behind 'a' under sequence numbers 1..=3.
        q.skip_seqs(3);
        assert_eq!(q.next_seq(), 4);
        q.schedule(Cycles(5), 'b');
        assert_eq!(q.pop(), Some((Cycles(5), 'a')));
        q.credit_pops(3);
        assert_eq!(q.processed(), 4);
        assert_eq!(q.len(), 1);
        // Two pushes and one pop really happened.
        assert_eq!(q.heap_ops(), 3);
        assert_eq!(q.pop(), Some((Cycles(5), 'b')));
        assert_eq!((q.processed(), q.heap_ops()), (5, 4));
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycles(1), ());
        q.schedule(Cycles(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycles(1)));
        q.pop();
        assert_eq!(q.processed(), 1);
        assert_eq!(q.len(), 1);
    }
}
