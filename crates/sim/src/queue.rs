//! A stable, monotone priority queue of timestamped events.
//!
//! # Layout
//!
//! The queue is a radix heap (Ahuja, Mehlhorn, Orlin, Tarjan) over the
//! 64-bit timestamp, with `now` — the timestamp of the last pop — as its
//! origin:
//!
//! * `front` holds the pending entries whose timestamp equals `now`;
//! * `buckets[k]` holds the entries whose timestamp first differs from
//!   `now` in bit `k`, counted from the least significant (so bucket 0
//!   is `now + 1` when `now` is even, and bucket 63 is everything at or
//!   above 2⁶³ while `now` is below it);
//! * each bucket knows its smallest timestamp, and bit `k` of `occupied`
//!   says whether `buckets[k]` holds anything.
//!
//! [`EventQueue::schedule`] is one push: compute the bucket from
//! `at ^ now`, append. [`EventQueue::pop`] takes the head of `front`;
//! when `front` is empty it finds the lowest occupied bucket (one
//! `trailing_zeros`), moves `now` to that bucket's minimum and *spreads*
//! the bucket: entries at the new `now` go to `front`, the rest to the
//! lower bucket their timestamp now selects. A bucket holding a single
//! entry is handed out directly — on the shallow queues of the
//! capability micro-benchmarks (one to three pending events) that is
//! every pop.
//!
//! # Why the order is exact
//!
//! Pops come out in strictly increasing `(timestamp, sequence number)`
//! — the order the simulation's determinism is defined by — by
//! construction, not by tolerance:
//!
//! 1. *Keys are monotone.* `schedule` refuses `at < now`, and `now` only
//!    moves to the minimum of everything pending, so the origin never
//!    passes a pending entry.
//! 2. *Buckets are ordered by time against each other.* A timestamp in
//!    bucket `k` agrees with `now` above bit `k` and has bit `k` set
//!    where `now` has it clear (it is larger), so everything in bucket
//!    `k` is smaller than everything in bucket `j > k`, and `front` is
//!    smaller than both. The lowest occupied bucket holds the minimum.
//! 3. *Moving the origin keeps every other bucket valid.* The new `now`
//!    lies in bucket `k` and so differs from the old one only at or
//!    below bit `k`; an entry of bucket `j > k` still first differs from
//!    it in bit `j`. The entries of bucket `k` itself agree with the new
//!    `now` in bit `k` and above, so they spread strictly downward, into
//!    buckets that were empty (`k` was the lowest occupied one).
//! 4. *Every bucket, and `front`, is in sequence-number order.*
//!    `schedule` appends, and sequence numbers only grow; a spread
//!    appends to empty buckets and an empty `front` in the order it
//!    found the entries. An arrival at the current timestamp carries a
//!    larger sequence number than anything in `front` and appends to it.
//!    First-in-first-out among equal timestamps is therefore the order
//!    entries already sit in — nothing is compared and no entry stores
//!    its sequence number; the counter survives for the sequence-range
//!    callers below and for [`EventQueue::heap_ops`].
//!
//! The `model` tests at the bottom check all of this against a
//! `BinaryHeap` ordered by `(timestamp, sequence number)`.

use crate::time::Cycles;
use std::collections::VecDeque;

/// Bits in a timestamp: one bucket per bit.
const BUCKETS: usize = u64::BITS as usize;

struct Entry<E> {
    at: u64,
    event: E,
}

/// One radix bucket.
struct Bucket<E> {
    /// Smallest timestamp in `entries`; meaningful while the bucket's
    /// bit in `occupied` is set.
    min: u64,
    /// Oldest first.
    entries: Vec<Entry<E>>,
}

/// A deterministic event queue.
///
/// Events are popped in timestamp order; events with the same timestamp
/// are popped in insertion order. This stability is a correctness
/// property, not an optimisation: the kernel protocol relies on FIFO
/// channel ordering (§4.3.1), which the NoC implements on top of this
/// queue.
pub struct EventQueue<E> {
    /// Entries at `now`, oldest first.
    front: VecDeque<Entry<E>>,
    /// `buckets[k]`: entries whose timestamp first differs from `now`
    /// in bit `k`.
    buckets: [Bucket<E>; BUCKETS],
    /// Bit `k` set: `buckets[k]` is not empty.
    occupied: u64,
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
            front: VecDeque::new(),
            buckets: std::array::from_fn(|_| Bucket { min: 0, entries: Vec::new() }),
            occupied: 0,
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
    /// the pops credited through `EventQueue::credit_pops`.
    pub fn processed(&self) -> u64 {
        self.popped
    }

    /// Pushes plus pops executed — the host work behind `processed()`,
    /// which also counts pops that were only credited. Every sequence
    /// number not skipped was pushed and every counted pop not credited
    /// was executed, so nothing is counted per push.
    pub fn heap_ops(&self) -> u64 {
        (self.next_seq - self.skipped) + (self.popped - self.credited)
    }

    /// Number of events currently pending: pushed and not yet popped.
    pub fn len(&self) -> usize {
        ((self.next_seq - self.skipped) - (self.popped - self.credited)) as usize
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_empty() && self.occupied == 0
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past — an event scheduled before `now`
    /// indicates a bug in a cost computation.
    pub fn schedule(&mut self, at: Cycles, event: E) {
        assert!(at >= self.now, "event scheduled in the past: {} < now {}", at, self.now);
        self.next_seq += 1;
        self.place(Entry { at: at.0, event });
    }

    /// Schedules `event` `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Appends `entry` to `front` or to the bucket its timestamp selects
    /// against the current origin.
    fn place(&mut self, entry: Entry<E>) {
        let diff = entry.at ^ self.now.0;
        if diff == 0 {
            self.front.push_back(entry);
            return;
        }
        let k = diff.ilog2();
        let bucket = &mut self.buckets[k as usize];
        let bit = 1u64 << k;
        if self.occupied & bit == 0 || entry.at < bucket.min {
            bucket.min = entry.at;
        }
        self.occupied |= bit;
        bucket.entries.push(entry);
    }

    /// Pops the earliest event — among equal timestamps, the one
    /// scheduled first — advancing `now` to its timestamp.
    ///
    /// With `front` empty, `now` moves to the minimum of the lowest
    /// occupied bucket and that bucket is spread (module docs, points 2
    /// and 3); a bucket of one entry is that minimum and is returned
    /// without passing through `front`.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        if self.front.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let k = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1u64 << k);
            let bucket = &mut self.buckets[k];
            self.now = Cycles(bucket.min);
            if bucket.entries.len() == 1 {
                let entry = bucket.entries.pop().expect("length checked");
                self.popped += 1;
                return Some((Cycles(entry.at), entry.event));
            }
            self.spread(k);
        }
        let entry = self.front.pop_front().expect("a spread fills front");
        self.popped += 1;
        Some((Cycles(entry.at), entry.event))
    }

    /// Empties bucket `k` after `now` moved to its minimum: the entries
    /// at `now` go to `front` and every later one to its lower bucket,
    /// all in the order they were found. The bucket keeps its capacity.
    fn spread(&mut self, k: usize) {
        let mut bucket = std::mem::take(&mut self.buckets[k].entries);
        for entry in bucket.drain(..) {
            self.place(entry);
        }
        self.buckets[k].entries = bucket;
    }

    // ----- sequence ranges ------------------------------------------------
    //
    // For a caller that stands one queue entry in for a *run* of entries
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
    /// would have keyed ride behind an entry already in the queue.
    pub(crate) fn skip_seqs(&mut self, n: u64) {
        self.next_seq += n;
        self.skipped += n;
    }

    /// Counts `n` pops that did not touch the queue: entries that rode
    /// behind a popped one and would have popped back to back with it.
    pub(crate) fn credit_pops(&mut self, n: u64) {
        self.popped += n;
        self.credited += n;
    }

    /// Timestamp of the earliest pending event: `now` while `front`
    /// holds anything, else the minimum of the lowest occupied bucket.
    pub fn peek_time(&self) -> Option<Cycles> {
        if !self.front.is_empty() {
            Some(self.now)
        } else if self.occupied == 0 {
            None
        } else {
            Some(Cycles(self.buckets[self.occupied.trailing_zeros() as usize].min))
        }
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

/// The queue against an independent reference: a `BinaryHeap` ordered
/// by `(timestamp, sequence number)`, which is the order the engine's
/// determinism is defined by (`tests/scheduler.rs` runs its reference
/// retry loop *on* this queue and so cannot check the queue itself).
#[cfg(test)]
mod model {
    use super::*;
    use crate::rng::DetRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The queue under test beside the reference heap and the counters
    /// the reference implies.
    struct Pair {
        q: EventQueue<u32>,
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        now: u64,
        next_id: u32,
        pushes: u64,
        pops: u64,
        credited: u64,
    }

    impl Pair {
        fn new() -> Pair {
            Pair {
                q: EventQueue::new(),
                heap: BinaryHeap::new(),
                now: 0,
                next_id: 0,
                pushes: 0,
                pops: 0,
                credited: 0,
            }
        }

        fn schedule(&mut self, at: u64) {
            let id = self.next_id;
            self.next_id += 1;
            self.heap.push(Reverse((at, self.q.next_seq(), id)));
            self.pushes += 1;
            self.q.schedule(Cycles(at), id);
            self.check();
        }

        fn pop(&mut self) {
            let expected = self.heap.pop().map(|Reverse((at, _, id))| (Cycles(at), id));
            if let Some((at, _)) = expected {
                self.now = at.0;
                self.pops += 1;
            }
            assert_eq!(self.q.pop(), expected);
            self.check();
        }

        /// Leaves a hole in the sequence numbers, as a run joining an
        /// entry already queued does.
        fn skip(&mut self, n: u64) {
            self.q.skip_seqs(n);
            self.check();
        }

        fn credit(&mut self, n: u64) {
            self.q.credit_pops(n);
            self.credited += n;
            self.check();
        }

        fn check(&self) {
            assert_eq!(self.q.len(), self.heap.len());
            assert_eq!(self.q.is_empty(), self.heap.is_empty());
            assert_eq!(self.q.peek_time(), self.heap.peek().map(|Reverse((at, ..))| Cycles(*at)));
            assert_eq!(self.q.now(), Cycles(self.now));
            assert_eq!(self.q.processed(), self.pops + self.credited);
            assert_eq!(self.q.heap_ops(), self.pushes + self.pops);
        }
    }

    /// A timestamp at or after `now`: equal to it, a few cycles on,
    /// just either side of the next multiple of 2ᵏ for small and large
    /// k, or anywhere up to 2⁴⁰ cycles away. Saturates at `u64::MAX`.
    fn timestamp(rng: &mut DetRng, now: u64) -> u64 {
        match rng.below(8) {
            0 => now,
            1 | 2 => now.saturating_add(rng.below(4)),
            3 | 4 => {
                let k = rng.between(1, 44) as u32;
                let boundary = (now >> k).saturating_add(1).checked_shl(k).unwrap_or(u64::MAX);
                let boundary = boundary.max(now);
                match rng.below(3) {
                    0 => boundary.saturating_sub(1).max(now),
                    1 => boundary,
                    _ => boundary.saturating_add(rng.below(3)),
                }
            }
            5 | 6 => now.saturating_add(rng.below(1 << 12)),
            _ => now.saturating_add(rng.below((1 << 40) + 1)),
        }
    }

    /// `steps` random operations on a queue whose clock starts at
    /// `start`, every result and every counter compared with the
    /// reference after each one.
    fn drive(seed: u64, start: u64, steps: usize) {
        let mut rng = DetRng::seed_from(seed);
        let mut p = Pair::new();
        if start > 0 {
            p.schedule(start);
            p.pop();
        }
        for _ in 0..steps {
            // Keep the queue between empty and a few hundred deep.
            let pop_share = if p.q.len() > 300 { 7 } else { 4 };
            match rng.below(10) {
                n if n < pop_share => p.pop(),
                9 => {
                    // A burst at one timestamp, with holes in its
                    // sequence numbers and pops credited beside it.
                    let at = timestamp(&mut rng, p.now);
                    for _ in 0..rng.between(2, 12) {
                        p.schedule(at);
                        if rng.below(3) == 0 {
                            p.skip(rng.between(1, 5));
                        }
                    }
                    if rng.below(2) == 0 {
                        p.credit(rng.between(1, 5));
                    }
                }
                _ => {
                    let at = timestamp(&mut rng, p.now);
                    p.schedule(at);
                }
            }
        }
        while !p.heap.is_empty() {
            p.pop();
        }
        p.pop();
    }

    #[test]
    fn random_operations_match_a_binary_heap() {
        // 6 × 20 000 steps; bursts and the final drain make that 250 965
        // checked operations.
        for seed in 1..=6 {
            drive(seed, 0, 20_000);
        }
    }

    #[test]
    fn random_operations_match_near_the_end_of_time() {
        // The last 2⁴¹ cycles: the large deltas saturate at `u64::MAX`.
        drive(7, u64::MAX - (1 << 41), 10_000);
        drive(8, u64::MAX - 5_000, 10_000);
        // Clock bits at and above 2⁶³ set and clear around the start.
        drive(9, (1 << 63) - 3, 10_000);
    }

    /// What the single-entry fast path serves, and the smallest spreads.
    #[test]
    fn one_and_two_entries() {
        for start in [0, 1, 6, 7, 8, 1023, 1 << 40, u64::MAX - 64] {
            for (a, b) in [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (3, 4), (4, 3), (8, 9)] {
                let mut p = Pair::new();
                if start > 0 {
                    p.schedule(start);
                    p.pop();
                }
                // One entry alone.
                p.schedule(start + a);
                p.pop();
                p.pop();
                // Two entries, popped back to back.
                p.schedule(p.now + a);
                p.schedule(p.now + b);
                p.pop();
                p.pop();
                // Two entries with an arrival at the popped timestamp
                // in between.
                p.schedule(p.now + b);
                p.schedule(p.now + a);
                p.pop();
                p.schedule(p.now);
                p.pop();
                p.pop();
                p.pop();
            }
        }
    }
}
