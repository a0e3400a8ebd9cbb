//! A stable, monotone priority queue of timestamped events.
//!
//! # Layout
//!
//! The queue has two tiers, split at the *horizon* `now + WHEEL`
//! (saturating at `u64::MAX`), where `now` is the timestamp of the last
//! pop and `WHEEL` is 2¹³:
//!
//! * The **near tier** is a timing wheel (Varghese and Lauck; Brown's
//!   calendar queue) of `WHEEL` slots one cycle wide. An entry with
//!   `at < horizon` is appended to slot `at mod WHEEL`. Each slot is a
//!   circular singly linked list through a node pool (the engine's
//!   `Slab`): the slot stores its newest node, and that node's `next` is
//!   the oldest. A 128-word occupancy bitmap with a 2-word summary (one
//!   bit per word) finds the next occupied slot, scanning circularly
//!   from `now`'s slot. A slot names its timestamp: the first instant at
//!   or after `now` that it is congruent to.
//! * The **far tier** holds the entries with `at ≥ horizon`: a std
//!   `BinaryHeap` keyed by `(timestamp, sequence number)`.
//!
//! [`EventQueue::schedule`] writes an entry once: to the tail of its
//! slot, or to the far heap. [`EventQueue::pop`] takes the head of the
//! first occupied slot or, with the wheel empty, the far heap's minimum.
//! Either pop moves `now`, and with it the horizon; every far entry the
//! horizon passed then *migrates* — popped from the far tier, earliest
//! first, and appended to its slot — before the pop returns.
//!
//! On the simulated machine nearly every event is a NoC delivery or a
//! handler's completion a few thousand cycles ahead, so nearly every
//! entry is written once and read once, and nothing is compared.
//!
//! # Why the order is exact
//!
//! Pops come out in strictly increasing `(timestamp, sequence number)`
//! — the order the simulation's determinism is defined by — by
//! construction, not by tolerance:
//!
//! 1. *Keys are monotone.* `schedule` refuses `at < now`, and `now` only
//!    moves to the minimum of everything pending.
//! 2. *The tiers are ordered against each other.* Between operations
//!    every wheel entry lies below the horizon and every far entry at
//!    or above it. `schedule` sorts an entry with the predicate
//!    `at < horizon`; the horizon moves only in a pop, and that pop
//!    migrates every far entry the new horizon passed, with the same
//!    predicate, before it returns. The wheel's minimum, if there is
//!    one, is therefore the minimum of the queue.
//! 3. *A slot holds one timestamp.* The wheel's entries lie in
//!    `now .. horizon`, at most `WHEEL` consecutive instants, which are
//!    distinct modulo `WHEEL`. The first occupied slot, counting from
//!    `now`'s, holds the smallest timestamp.
//! 4. *A slot is in sequence-number order.* Entries only append to it.
//!    The entries at a timestamp `T` reach the wheel by migration, in
//!    the pop that first moves the horizon past `T`, or by `schedule`,
//!    afterwards. Migration takes them in the far tier's own exact order
//!    (point 5), and each of them was scheduled before `T` entered the
//!    window, so before any entry `schedule` appends at `T`. Because
//!    both use one predicate, an entry at `u64::MAX` stays far even
//!    once the horizon saturates there: entries at the end of time all
//!    queue in the far tier, in the order they came.
//! 5. *The far tier is exact on its own.* It pops in `(timestamp,
//!    sequence number)` order, and sequence numbers are unique.
//!
//! First-in-first-out among equal timestamps is therefore, in the wheel,
//! the order entries already sit in: a wheel entry stores no sequence
//! number, a far entry does. The counter also serves the sequence-range
//! callers below and [`EventQueue::heap_ops`]. The `model` tests at the
//! bottom check all of this against a `BinaryHeap` ordered by
//! `(timestamp, sequence number)`.

use crate::slab::{Slab, NIL};
use crate::time::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem::MaybeUninit;

/// Slots of the near tier, one cycle each: the length of the window.
/// 99.6 % of the Fig. 6 application mix's schedules land inside it; at
/// 2¹¹, a quarter of them would not.
const WHEEL: usize = 1 << 13;

/// Words of the wheel's occupancy bitmap: one bit of the two summary
/// words each.
const WORDS: usize = WHEEL / 64;
const _: () = assert!(WORDS == 2 * 64);

/// A far entry, ordered in reverse of `(at, seq)` so that the max-heap
/// `BinaryHeap` pops the earliest, and among equal timestamps the oldest.
struct Far<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> Ord for Far<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Far<E> {}

/// A wheel entry. Its slot names its timestamp.
struct Node<E> {
    /// Initialised while the node is linked into a slot: `push_near`
    /// writes it, `unlink` moves it out and releases the node, and
    /// `EventQueue`'s `Drop` drops what is left. Not an `Option`: moving
    /// an event out of one, whose discriminant lives inside the event,
    /// cost `nginx_256_8k8s` 7 % of its host time.
    event: MaybeUninit<E>,
    /// The entry appended after this one to the same slot; the newest
    /// entry's is the oldest.
    next: u32,
}

/// A deterministic event queue.
///
/// Events are popped in timestamp order; events with the same timestamp
/// are popped in insertion order. This stability is a correctness
/// property, not an optimisation: the kernel protocol relies on FIFO
/// channel ordering (§4.3.1), which the NoC implements on top of this
/// queue.
pub struct EventQueue<E> {
    /// `tails[s]`: the newest entry of slot `s`, or `NIL`.
    tails: Box<[u32; WHEEL]>,
    /// Bit `s % 64` of word `s / 64` set: slot `s` is occupied.
    slots_occupied: Box<[u64; WORDS]>,
    /// Bit `w % 64` of `summary[w / 64]` set: word `w` of
    /// `slots_occupied` is not zero. Not a `u128`: its shifts by a
    /// variable amount made a pop on a shallow queue (`exchange_churn`)
    /// several per cent slower.
    summary: [u64; 2],
    /// The wheel's entries.
    nodes: Slab<Node<E>>,
    far: BinaryHeap<Far<E>>,
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
            tails: vec![NIL; WHEEL].into_boxed_slice().try_into().expect("WHEEL slots"),
            slots_occupied: Box::new([0; WORDS]),
            summary: [0; 2],
            nodes: Slab::new(),
            far: BinaryHeap::new(),
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
        self.wheel_is_empty() && self.far.is_empty()
    }

    /// The end of the wheel's window: an entry before it goes to the
    /// wheel, any other to the far tier. `schedule` and migration both
    /// test against it (module docs, points 2 and 4).
    fn horizon(&self) -> u64 {
        self.now.0.saturating_add(WHEEL as u64)
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
        if at.0 < self.horizon() {
            self.push_near(at.0, event);
        } else {
            self.far.push(Far { at: at.0, seq, event });
        }
    }

    /// Schedules `event` `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: u64, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event — among equal timestamps, the one
    /// scheduled first — advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        self.pop_until(Cycles::MAX)
    }

    /// [`EventQueue::pop`], unless the earliest event lies after
    /// `deadline`: then nothing moves and the result is `None`. Finds
    /// the earliest slot once, where a peek and a pop would scan twice.
    pub(crate) fn pop_until(&mut self, deadline: Cycles) -> Option<(Cycles, E)> {
        let (at, event) = if !self.wheel_is_empty() {
            let (slot, at) = self.first_slot();
            if at > deadline.0 {
                return None;
            }
            (at, self.unlink(slot))
        } else if self.far.peek()?.at <= deadline.0 {
            let far = self.far.pop().expect("peeked");
            (far.at, far.event)
        } else {
            return None;
        };
        self.now = Cycles(at);
        self.popped += 1;
        let horizon = self.horizon();
        while self.far.peek().is_some_and(|far| far.at < horizon) {
            let far = self.far.pop().expect("peeked");
            self.push_near(far.at, far.event);
        }
        Some((Cycles(at), event))
    }

    /// Timestamp of the earliest pending event: the first occupied
    /// slot's, or with the wheel empty the far tier's minimum.
    pub fn peek_time(&self) -> Option<Cycles> {
        if !self.wheel_is_empty() {
            Some(Cycles(self.first_slot().1))
        } else {
            self.far.peek().map(|far| Cycles(far.at))
        }
    }

    // ----- the wheel ------------------------------------------------------

    fn wheel_is_empty(&self) -> bool {
        self.summary == [0; 2]
    }

    /// Appends `event` to the slot of `at`, which lies before the
    /// horizon.
    fn push_near(&mut self, at: u64, event: E) {
        let slot = at as usize % WHEEL;
        let tail = self.tails[slot];
        let event = MaybeUninit::new(event);
        self.tails[slot] = if tail == NIL {
            let node = self.nodes.insert(Node { event, next: NIL });
            self.nodes[node].next = node;
            let word = slot / 64;
            self.slots_occupied[word] |= 1 << (slot % 64);
            self.summary[word / 64] |= 1 << (word % 64);
            node
        } else {
            let node = self.nodes.insert(Node { event, next: self.nodes[tail].next });
            self.nodes[tail].next = node;
            node
        };
    }

    /// The first occupied slot, counting circularly from `now`'s, and
    /// its timestamp. The wheel must not be empty.
    fn first_slot(&self) -> (usize, u64) {
        let now = self.now.0;
        let from = now as usize % WHEEL;
        let word = from / 64;
        let here = self.slots_occupied[word] & (u64::MAX << (from % 64));
        let slot = if here != 0 {
            word * 64 + here.trailing_zeros() as usize
        } else {
            // The next non-zero word after `word`, wrapping round to
            // `word` itself, whose bits below `from` are the window's
            // last slots.
            let [lo, hi] = self.summary;
            let after = |bits: u64, first: usize| {
                bits & u64::MAX.checked_shl((word + 1).saturating_sub(first) as u32).unwrap_or(0)
            };
            let (lo_after, hi_after) = (after(lo, 0), after(hi, 64));
            let w = if lo_after != 0 {
                lo_after.trailing_zeros() as usize
            } else if hi_after != 0 {
                64 + hi_after.trailing_zeros() as usize
            } else if lo != 0 {
                lo.trailing_zeros() as usize
            } else {
                64 + hi.trailing_zeros() as usize
            };
            w * 64 + self.slots_occupied[w].trailing_zeros() as usize
        };
        (slot, now + ((slot as u64).wrapping_sub(now) % WHEEL as u64))
    }

    /// Removes and returns the oldest entry of occupied slot `slot`. An
    /// empty slot's `NIL` tail indexes past the node pool and panics.
    fn unlink(&mut self, slot: usize) -> E {
        let tail = self.tails[slot];
        let head = self.nodes[tail].next;
        if head == tail {
            self.tails[slot] = NIL;
            let word = slot / 64;
            self.slots_occupied[word] &= !(1 << (slot % 64));
            if self.slots_occupied[word] == 0 {
                self.summary[word / 64] &= !(1 << (word % 64));
            }
        } else {
            self.nodes[tail].next = self.nodes[head].next;
        }
        self.nodes.release(head);
        // SAFETY: `slot` is occupied (both callers take it from
        // `first_slot`), so `head` was linked into it until the lines
        // above, and a linked node's event is initialised: `push_near`
        // writes it before linking the node, and only this function
        // unlinks one. Nothing reuses the released node before this
        // read, the only one of its event, so the event moves out once.
        unsafe { self.nodes[head].event.assume_init_read() }
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
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        // A node does not drop its event (`Node::event`): drop those
        // still in the wheel.
        while !self.wheel_is_empty() {
            let (slot, _) = self.first_slot();
            drop(self.unlink(slot));
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

    #[test]
    fn a_bounded_pop_leaves_later_events_alone() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(10), 'a');
        q.schedule(Cycles(WHEEL as u64 + 20), 'b');
        assert_eq!(q.pop_until(Cycles(9)), None);
        assert_eq!(q.pop_until(Cycles(10)), Some((Cycles(10), 'a')));
        // Only a far entry is left.
        assert_eq!(q.pop_until(Cycles(WHEEL as u64 + 19)), None);
        assert_eq!((q.now(), q.processed(), q.len()), (Cycles(10), 1, 1));
        assert_eq!(q.pop_until(Cycles(WHEEL as u64 + 20)), Some((Cycles(WHEEL as u64 + 20), 'b')));
        assert_eq!(q.pop_until(Cycles::MAX), None);
    }

    #[test]
    fn pending_events_drop_with_the_queue() {
        let event = std::rc::Rc::new(());
        let mut q = EventQueue::new();
        for at in [0, 1, 1, 9, WHEEL as u64 - 1, WHEEL as u64, 1 << 40] {
            q.schedule(Cycles(at), event.clone());
        }
        q.pop();
        assert_eq!(std::rc::Rc::strong_count(&event), 7);
        drop(q);
        assert_eq!(std::rc::Rc::strong_count(&event), 1);
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

        /// A pair whose clock stands at `start`.
        fn at(start: u64) -> Pair {
            let mut p = Pair::new();
            if start > 0 {
                p.schedule(start);
                p.pop();
            }
            p
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
    /// k, anywhere in the wheel's window, just either side of its
    /// horizon, or anywhere up to 2⁴⁰ cycles away. Saturates at
    /// `u64::MAX`.
    fn timestamp(rng: &mut DetRng, now: u64) -> u64 {
        match rng.below(9) {
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
            5 | 6 => now.saturating_add(rng.below(WHEEL as u64)),
            // `now + WHEEL − 1`, `now + WHEEL` or `now + WHEEL + 1`.
            7 => now.saturating_add(WHEEL as u64 - 1 + rng.below(3)),
            _ => now.saturating_add(rng.below((1 << 40) + 1)),
        }
    }

    /// `steps` random operations on a queue whose clock starts at
    /// `start`, every result and every counter compared with the
    /// reference after each one.
    fn drive(seed: u64, start: u64, steps: usize) {
        let mut rng = DetRng::seed_from(seed);
        let mut p = Pair::at(start);
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
        // 6 × 20 000 steps; bursts and the final drain make about a
        // quarter of a million checked operations.
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

    /// The smallest queues: one entry, two, and two with an arrival at
    /// the popped timestamp in between.
    #[test]
    fn one_and_two_entries() {
        for start in [0, 1, 6, 7, 8, 1023, 1 << 40, u64::MAX - 64] {
            for (a, b) in [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (3, 4), (4, 3), (8, 9)] {
                let mut p = Pair::at(start);
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

    /// An entry scheduled beyond the horizon, then one at the same
    /// timestamp once the window has reached it: the far one is older
    /// and pops first, whether a wheel pop or a far pop moved the
    /// horizon.
    #[test]
    fn a_migrated_entry_pops_before_a_later_one_at_its_timestamp() {
        let wheel = WHEEL as u64;
        for start in [0, 5, wheel - 1, wheel, 1 << 40, u64::MAX - 3 * wheel] {
            for far_pop in [false, true] {
                let mut p = Pair::at(start);
                let t = start + wheel + 7;
                p.schedule(t);
                p.schedule(t);
                // The next pop moves the horizon past `t`: from the
                // wheel, or with the wheel empty from the far tier.
                p.schedule(if far_pop { t - 1 } else { start + 10 });
                assert!(!p.q.far.is_empty());
                p.pop();
                assert!(p.q.far.is_empty(), "the pop migrated every entry at {t}");
                p.schedule(t);
                p.schedule(t);
                for _ in 0..5 {
                    p.pop();
                }
            }
        }
    }

    /// With the horizon saturated at `u64::MAX`, entries there stay in
    /// the far tier — both those scheduled before `now` came within
    /// `WHEEL` of it and those scheduled after — and pop in the order
    /// they came.
    #[test]
    fn entries_at_the_end_of_time_stay_far_in_order() {
        let wheel = WHEEL as u64;
        let mut p = Pair::at(u64::MAX - wheel - 10);
        p.schedule(u64::MAX);
        p.schedule(u64::MAX);
        p.schedule(u64::MAX - wheel + 5);
        p.pop();
        assert_eq!(p.q.horizon(), u64::MAX);
        p.schedule(u64::MAX - 1);
        p.schedule(u64::MAX);
        p.pop();
        assert!(p.q.wheel_is_empty() && !p.q.far.is_empty());
        p.schedule(u64::MAX);
        p.pop();
        p.pop();
        // At the end of time itself.
        p.schedule(u64::MAX);
        while !p.heap.is_empty() {
            p.pop();
        }
        p.pop();
    }

    /// Deltas inside the window never reach the far tier, and the node
    /// pool holds no more nodes than entries were ever pending at once:
    /// each entry is written once, to a node a pop freed.
    #[test]
    fn near_events_are_written_once() {
        let mut rng = DetRng::seed_from(10);
        let mut p = Pair::new();
        let mut peak = 0;
        for _ in 0..100_000 {
            let pop_share = if p.q.len() > 300 { 7 } else { 4 };
            if rng.below(10) < pop_share {
                p.pop();
            } else {
                let at = p.now + rng.below(WHEEL as u64);
                p.schedule(at);
            }
            peak = peak.max(p.q.len());
            assert!(p.q.far.is_empty());
            assert!(p.q.nodes.allocated() <= peak);
        }
        assert!(peak > 100, "the queue reached {peak} entries");
    }
}
