//! A stable, monotone priority queue of timestamped events.
//!
//! # Layout
//!
//! Time is cut into *blocks* of `BLOCK` = 2¹³ cycles; block `k` is
//! `k·BLOCK .. (k+1)·BLOCK`. Let `now` be the timestamp of the last pop
//! and `c` its block. The queue has three tiers, and an entry's tier is
//! decided by how many blocks it lies ahead of `c`:
//!
//! * The **wheel** holds entries in blocks `c` and `c + 1`: a timing
//!   wheel (Varghese and Lauck; Brown's calendar queue) of `WHEEL` =
//!   2¹⁴ slots one cycle wide. An entry is appended to slot
//!   `at mod WHEEL`. Each slot is a circular singly linked list through
//!   a node pool (the engine's `Slab`): the slot stores its newest node,
//!   and that node's `next` is the oldest. A 256-word occupancy bitmap
//!   with a 4-word summary (one bit per word) finds the next occupied
//!   slot, scanning circularly from `now`'s. A slot names its timestamp:
//!   the first instant at or after `now` that it is congruent to.
//! * The **buckets** hold entries in blocks `c + 2 ..= c + 1 + BUCKETS`
//!   (2¹³ to 2²⁶ cycles ahead): `BUCKETS` = 2¹³ lists one block wide,
//!   block `k` in bucket `k mod BUCKETS`, linked through the same node
//!   pool the same way, with their own bitmap. A node keeps the low 32
//!   bits of its timestamp; its bucket names the rest.
//! * The **far heap** holds everything later, and every entry at
//!   `u64::MAX`: a std `BinaryHeap` keyed by `(timestamp, sequence
//!   number)`.
//!
//! [`EventQueue::schedule`] writes an entry once: to the tail of its
//! slot, of its bucket, or to the far heap. [`EventQueue::pop`] takes the
//! head of the first occupied slot. With the wheel empty it first
//! *splices* the first occupied bucket into it — each node relinked, in
//! list order, to the tail of its slot — and with the buckets empty too
//! it pops the far heap's minimum. A pop that moves `now` into a later
//! block moves the tiers with it before it returns: every bucket the
//! wheel's window now covers is spliced, oldest block first, and then
//! every far entry within the buckets' reach *migrates* — popped from
//! the far heap, earliest first, and appended to its slot or bucket.
//!
//! On the simulated machine nearly every event is a NoC delivery or a
//! handler's completion a few thousand cycles ahead, so nearly every
//! entry is written once and read once, and nothing is compared. The
//! rest (17 % of `nginx_256_8k8s`'s schedules, most 2¹⁵–2¹⁸ cycles
//! ahead) is written twice: to its bucket, then to its slot.
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
//!    every wheel entry lies in a block `≤ c + 1`, every bucket entry in
//!    a block `c + 2 ..= c + 1 + BUCKETS`, and every other far entry
//!    later still; an entry at `u64::MAX` is far wherever it lies, and
//!    nothing pending is later than it. `schedule` sorts an entry with
//!    one predicate (`is_far`); `c` moves only in a pop, and that pop
//!    splices every bucket whose block the new `c + 1` reached and then
//!    migrates every far entry the new reach covers, with the same
//!    predicate, before it returns. So the wheel's minimum, if there is
//!    one, is the queue's; with the wheel empty, the first occupied
//!    bucket's minimum is; with both empty, the heap's.
//! 3. *A slot holds one timestamp.* The wheel's entries lie in
//!    `now .. (c + 2)·BLOCK`, at most `WHEEL` consecutive instants, which
//!    are distinct modulo `WHEEL`. The first occupied slot, counting from
//!    `now`'s, holds the smallest timestamp. A pop that finds the wheel
//!    empty splices the first occupied bucket, block `b`, and counts from
//!    `b·BLOCK` instead: the wheel then holds block `b` alone, and the
//!    pop moves `now` into it.
//! 4. *A bucket holds one block.* Its blocks in the buckets' range are
//!    `BUCKETS` consecutive ones, distinct modulo `BUCKETS`. A splice
//!    empties a bucket before the migration that may refill it with the
//!    block `BUCKETS` later.
//! 5. *A slot and a bucket are in sequence-number order.* Entries only
//!    append to either. The entries at a timestamp `T` reach a bucket by
//!    migration, in the pop that first brings `T`'s block within reach,
//!    or by `schedule`, afterwards; they reach the wheel by a splice or
//!    a migration, in the pop that first brings `T`'s block into the
//!    window, or by `schedule`, afterwards. Migration takes entries in
//!    the far heap's own exact order (point 6) and a splice in the
//!    bucket's; every entry moved was scheduled before its block
//!    entered the tier it moves to, so before any entry `schedule`
//!    appends there at `T`. One pop never brings `T` to the wheel by
//!    both routes: a splice moves blocks up to `c + 1 + BUCKETS` of the
//!    old `c`, migration only later ones. Because everything uses one
//!    predicate, an entry at `u64::MAX` stays far even once the window
//!    reaches the end of time: entries there all queue in the heap, in
//!    the order they came.
//! 6. *The far heap is exact on its own.* It pops in `(timestamp,
//!    sequence number)` order, and sequence numbers are unique.
//!
//! First-in-first-out among equal timestamps is therefore, in the wheel
//! and the buckets, the order entries already sit in: a node stores no
//! sequence number, a far entry does. The counter also serves
//! [`EventQueue::heap_ops`]. The `model` tests at the bottom check all
//! of this against a `BinaryHeap` ordered by `(timestamp, sequence
//! number)`.
//!
//! Points 2 to 5 also make the last entry of a slot, or of a bucket,
//! the last pending entry at its own timestamp: `EventQueue::tail_at`
//! reads it, so that a caller can fold later entries into it (see
//! `PeSchedule`).

use crate::slab::{Slab, NIL};
use crate::time::Cycles;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem::MaybeUninit;

/// log₂ of a block's width in cycles: a bucket's width, and half the
/// wheel.
const BLOCK_BITS: u32 = 13;

/// Slots of the wheel, one cycle each. Two blocks: the window runs from
/// `now` to the end of the block after `now`'s, so every delay below
/// 2¹³ lands in the wheel wherever `now` sits in its block, and a bucket
/// spliced as the window reaches it fits whole. 99.6 % of the Fig. 6
/// application mix's schedules lie less than 2¹³ cycles ahead; at 2¹¹,
/// a quarter of them would not.
const WHEEL: usize = 2 << BLOCK_BITS;

/// Buckets of the second level, one block each: with the wheel's two
/// blocks, entries up to 2²⁶ cycles ahead stay out of the far heap.
/// `nginx_256_8k8s` schedules 17 % of its entries that far, most of them
/// 2¹⁵–2¹⁸ cycles ahead; none reaches the heap.
const BUCKETS: usize = 1 << 13;

/// Blocks ahead of `now`'s that the wheel and the buckets cover; an
/// entry this many or more ahead is far.
const REACH: u64 = 2 + BUCKETS as u64;

/// The wheel's occupancy: one bit per slot, one summary bit per word.
type SlotBits = Occupancy<{ WHEEL / 64 }, { WHEEL / 4096 }>;

/// The buckets' occupancy.
type BucketBits = Occupancy<{ BUCKETS / 64 }, { BUCKETS / 4096 }>;

/// A two-level occupancy bitmap over `64 · W` positions: bit `i % 64` of
/// word `i / 64`, and bit `w % 64` of `summary[w / 64]` for every word
/// `w` that is not zero.
struct Occupancy<const W: usize, const S: usize> {
    words: Box<[u64; W]>,
    /// Not a `u128` for two words: its shifts by a variable amount made
    /// a pop on a shallow queue (`exchange_churn`) several per cent
    /// slower.
    summary: [u64; S],
}

impl<const W: usize, const S: usize> Occupancy<W, S> {
    fn new() -> Self {
        const { assert!(W == 64 * S) };
        Occupancy { words: Box::new([0; W]), summary: [0; S] }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.summary == [0; S]
    }

    #[inline]
    fn set(&mut self, i: usize) {
        let word = i / 64;
        self.words[word] |= 1 << (i % 64);
        self.summary[word / 64] |= 1 << (word % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        let word = i / 64;
        self.words[word] &= !(1 << (i % 64));
        if self.words[word] == 0 {
            self.summary[word / 64] &= !(1 << (word % 64));
        }
    }

    /// The first set position at or after `from`, counting circularly.
    /// The bitmap must not be empty.
    #[inline]
    fn first_from(&self, from: usize) -> usize {
        let word = from / 64;
        let here = self.words[word] & (u64::MAX << (from % 64));
        if here != 0 {
            return word * 64 + here.trailing_zeros() as usize;
        }
        // The next non-zero word after `word`, wrapping round to `word`
        // itself, whose bits below `from` come last. The summary word
        // holding `next` is read twice: from `next` on, and last whole.
        let next = word + 1;
        let w = (0..=S)
            .find_map(|k| {
                let s = (next / 64 + k) % S;
                let bits =
                    self.summary[s] & if k == 0 { u64::MAX << (next % 64) } else { u64::MAX };
                (bits != 0).then(|| s * 64 + bits.trailing_zeros() as usize)
            })
            .expect("the bitmap is not empty");
        w * 64 + self.words[w].trailing_zeros() as usize
    }
}

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

/// An entry of a slot or a bucket.
pub(crate) struct Node<E> {
    /// Initialised while the node is linked into a slot or a bucket:
    /// `push_node` writes it, `unlink` moves it out and releases the
    /// node, and `EventQueue`'s `Drop` drops what is left. Not an
    /// `Option`: moving an event out of one, whose discriminant lives
    /// inside the event, cost `nginx_256_8k8s` 7 % of its host time.
    event: MaybeUninit<E>,
    /// The entry appended after this one to the same list; the newest
    /// entry's is the oldest.
    next: u32,
    /// The low 32 bits of the timestamp: the slot of a bucket entry
    /// once spliced, and its offset in its block.
    at: u32,
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
    slots: SlotBits,
    /// `bucket_tails[b]`: the newest entry of bucket `b`, or `NIL`.
    bucket_tails: Box<[u32; BUCKETS]>,
    buckets: BucketBits,
    /// The entries of the wheel and the buckets.
    nodes: Slab<Node<E>>,
    far: BinaryHeap<Far<E>>,
    next_seq: u64,
    now: Cycles,
    popped: u64,
    /// Pops counted by `credit_pops`: never executed.
    credited: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            tails: vec![NIL; WHEEL].into_boxed_slice().try_into().expect("WHEEL slots"),
            slots: Occupancy::new(),
            bucket_tails: vec![NIL; BUCKETS].into_boxed_slice().try_into().expect("BUCKETS lists"),
            buckets: Occupancy::new(),
            nodes: Slab::new(),
            far: BinaryHeap::new(),
            next_seq: 0,
            now: Cycles::ZERO,
            popped: 0,
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
    /// which also counts pops that were only credited. Every push took a
    /// sequence number and every counted pop not credited was executed,
    /// so nothing is counted per push.
    pub fn heap_ops(&self) -> u64 {
        self.next_seq + (self.popped - self.credited)
    }

    /// Number of events currently pending: pushed and not yet popped.
    pub fn len(&self) -> usize {
        (self.next_seq - (self.popped - self.credited)) as usize
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty() && self.buckets.is_empty() && self.far.is_empty()
    }

    /// The block `now` lies in.
    fn block(&self) -> u64 {
        self.now.0 >> BLOCK_BITS
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past — an event scheduled before `now`
    /// indicates a bug in a cost computation.
    #[inline]
    pub fn schedule(&mut self, at: Cycles, event: E) {
        assert!(at >= self.now, "event scheduled in the past: {} < now {}", at, self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let ahead = (at.0 >> BLOCK_BITS) - self.block();
        if is_far(at.0, ahead) {
            self.far.push(Far { at: at.0, seq, event });
        } else {
            self.push_node(at.0, ahead, event);
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
    #[inline]
    pub(crate) fn pop_until(&mut self, deadline: Cycles) -> Option<(Cycles, E)> {
        let (at, event) = if !self.slots.is_empty() {
            let (slot, at) = self.first_slot(self.now.0);
            if at > deadline.0 {
                return None;
            }
            (at, self.unlink(slot))
        } else if !self.buckets.is_empty() {
            let block = self.first_bucket();
            let last = (block << BLOCK_BITS) | ((1 << BLOCK_BITS) - 1);
            if deadline.0 < last && self.bucket_min(block) > deadline.0 {
                return None;
            }
            self.splice(block);
            let (slot, at) = self.first_slot(block << BLOCK_BITS);
            (at, self.unlink(slot))
        } else if self.far.peek()?.at <= deadline.0 {
            let far = self.far.pop().expect("peeked");
            (far.at, far.event)
        } else {
            return None;
        };
        let from = self.block();
        self.now = Cycles(at);
        self.popped += 1;
        if self.block() != from {
            self.advance(from);
        }
        Some((Cycles(at), event))
    }

    /// Timestamp of the earliest pending event: the first occupied
    /// slot's, with the wheel empty the first occupied bucket's
    /// minimum, and with both empty the far heap's.
    pub fn peek_time(&self) -> Option<Cycles> {
        if !self.slots.is_empty() {
            Some(Cycles(self.first_slot(self.now.0).1))
        } else if !self.buckets.is_empty() {
            Some(Cycles(self.bucket_min(self.first_bucket())))
        } else {
            self.far.peek().map(|far| Cycles(far.at))
        }
    }

    /// Moves the tiers after a pop moved `now` out of block `from`
    /// (module docs, point 2): splices every bucket whose block the
    /// window now covers, oldest first, then migrates every far entry
    /// the buckets now reach.
    fn advance(&mut self, from: u64) {
        let block = self.block();
        // The window's new blocks that were buckets: at most `BUCKETS`.
        let last = (block + 1).min(from + 1 + BUCKETS as u64);
        let mut next = from + 2;
        while next <= last && !self.buckets.is_empty() {
            let found = next + self.bucket_distance(next);
            if found > last {
                break;
            }
            self.splice(found);
            next = found + 1;
        }
        while let Some(far) = self.far.peek() {
            let ahead = (far.at >> BLOCK_BITS) - block;
            if is_far(far.at, ahead) {
                break;
            }
            let far = self.far.pop().expect("peeked");
            self.push_node(far.at, ahead, far.event);
        }
    }

    // ----- the wheel and the buckets --------------------------------------

    /// Appends `event` at `at`, `ahead < REACH` blocks after `now`'s, to
    /// its slot or its bucket.
    #[inline]
    fn push_node(&mut self, at: u64, ahead: u64, event: E) {
        let node =
            self.nodes.insert(Node { event: MaybeUninit::new(event), next: NIL, at: at as u32 });
        if ahead < 2 {
            self.link_slot(node);
        } else {
            let bucket = (at >> BLOCK_BITS) as usize % BUCKETS;
            if append(&mut self.nodes, &mut self.bucket_tails[bucket], node) {
                self.buckets.set(bucket);
            }
        }
    }

    /// Appends `node` to the slot its timestamp names.
    #[inline]
    fn link_slot(&mut self, node: u32) {
        let slot = self.nodes[node].at as usize % WHEEL;
        if append(&mut self.nodes, &mut self.tails[slot], node) {
            self.slots.set(slot);
        }
    }

    /// The first occupied slot, counting circularly from `base`'s, and
    /// its timestamp: the first instant at or after `base` congruent to
    /// it. The wheel must not be empty.
    #[inline]
    fn first_slot(&self, base: u64) -> (usize, u64) {
        let slot = self.slots.first_from(base as usize % WHEEL);
        (slot, base + ((slot as u64).wrapping_sub(base) % WHEEL as u64))
    }

    /// Blocks from block `next` to the first occupied bucket's, counting
    /// circularly. The buckets must not be empty.
    fn bucket_distance(&self, next: u64) -> u64 {
        let bucket = self.buckets.first_from(next as usize % BUCKETS);
        (bucket as u64).wrapping_sub(next) % BUCKETS as u64
    }

    /// The block of the first occupied bucket. The buckets must not be
    /// empty.
    fn first_bucket(&self) -> u64 {
        let first = self.block() + 2;
        first + self.bucket_distance(first)
    }

    /// The earliest timestamp in the occupied bucket of `block`.
    fn bucket_min(&self, block: u64) -> u64 {
        let tail = self.bucket_tails[block as usize % BUCKETS];
        let mut node = tail;
        let mut offset = u32::MAX;
        loop {
            node = self.nodes[node].next;
            offset = offset.min(self.nodes[node].at & ((1 << BLOCK_BITS) - 1));
            if node == tail {
                return (block << BLOCK_BITS) | u64::from(offset);
            }
        }
    }

    /// Relinks every entry of the occupied bucket of `block`, oldest
    /// first, to the tail of its slot.
    fn splice(&mut self, block: u64) {
        let bucket = block as usize % BUCKETS;
        let tail = std::mem::replace(&mut self.bucket_tails[bucket], NIL);
        self.buckets.clear(bucket);
        let mut node = self.nodes[tail].next;
        loop {
            let next = self.nodes[node].next;
            self.link_slot(node);
            if node == tail {
                return;
            }
            node = next;
        }
    }

    /// Removes and returns the oldest entry of occupied slot `slot`. An
    /// empty slot's `NIL` tail indexes past the node pool and panics.
    #[inline]
    fn unlink(&mut self, slot: usize) -> E {
        let tail = self.tails[slot];
        let head = self.nodes[tail].next;
        if head == tail {
            self.tails[slot] = NIL;
            self.slots.clear(slot);
        } else {
            self.nodes[tail].next = self.nodes[head].next;
        }
        self.nodes.release(head);
        // SAFETY: `slot` is occupied (every caller takes it from
        // `first_slot`), so `head` was linked into it until the lines
        // above, and a linked node's event is initialised: `push_node`
        // writes it before linking the node, a splice only relinks it,
        // and only this function unlinks one. Nothing reuses the
        // released node before this read, the only one of its event, so
        // the event moves out once.
        unsafe { self.nodes[head].event.assume_init_read() }
    }

    /// The newest pending entry of the list `at` falls in: its slot
    /// while its block is in the wheel, its bucket while the block is in
    /// the buckets' reach. `None` if that list is empty, or if `at` is
    /// far or in the past.
    ///
    /// A slot holds one timestamp and a bucket one block (module docs,
    /// points 3 and 4), every pending entry at `at` is in that list, and
    /// the list is in scheduling order (point 5). So if the entry
    /// returned lies at `at`, nothing pending at `at` was scheduled
    /// after it: an entry scheduled at `at` now would pop right behind
    /// it.
    #[inline]
    pub(crate) fn tail_at(&self, at: Cycles) -> Option<&E> {
        let ahead = (at.0 >> BLOCK_BITS).wrapping_sub(self.block());
        let tail = if is_far(at.0, ahead) {
            NIL
        } else if ahead < 2 {
            self.tails[at.0 as usize % WHEEL]
        } else {
            self.bucket_tails[(at.0 >> BLOCK_BITS) as usize % BUCKETS]
        };
        // SAFETY: a slot's or a bucket's tail is `NIL` or a node linked
        // into that list, and a linked node's event is initialised (see
        // `unlink`). The shared borrow of `self` keeps it from being
        // unlinked while the reference lives.
        (tail != NIL).then(|| unsafe { self.nodes[tail].event.assume_init_ref() })
    }

    /// Counts `n` pops that did not touch the queue: entries that rode
    /// behind a popped one and would have popped back to back with it.
    pub(crate) fn credit_pops(&mut self, n: u64) {
        self.popped += n;
        self.credited += n;
    }
}

/// The one tier predicate (module docs, points 2 and 5), which
/// `schedule` and migration share: an entry at `at`, `ahead` blocks
/// after `now`'s, belongs in the far heap.
#[inline]
fn is_far(at: u64, ahead: u64) -> bool {
    ahead >= REACH || at == u64::MAX
}

/// Appends `node` to the circular list whose newest entry is `*tail`
/// (`NIL`: empty), and reports whether the list was empty.
#[inline]
fn append<E>(nodes: &mut Slab<Node<E>>, tail: &mut u32, node: u32) -> bool {
    let empty = *tail == NIL;
    nodes[node].next = if empty {
        node
    } else {
        let head = nodes[*tail].next;
        nodes[*tail].next = node;
        head
    };
    *tail = node;
    empty
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        // A node does not drop its event (`Node::event`): drop those
        // still in the wheel and the buckets. Splicing a bucket mixes
        // blocks in the wheel, which only the order of the drops sees.
        loop {
            if !self.slots.is_empty() {
                let slot = self.slots.first_from(0);
                drop(self.unlink(slot));
            } else if !self.buckets.is_empty() {
                self.splice(self.first_bucket());
            } else {
                return;
            }
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

    const BLOCK: u64 = 1 << BLOCK_BITS;

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
    fn credited_pops_are_counted_but_not_executed() {
        let mut q = EventQueue::new();
        q.schedule(Cycles(5), 'a');
        q.schedule(Cycles(5), 'b');
        assert_eq!(q.pop(), Some((Cycles(5), 'a')));
        // Three more entries rode behind 'a' and popped with it.
        q.credit_pops(3);
        assert_eq!(q.processed(), 4);
        assert_eq!(q.len(), 1);
        // Two pushes and one pop really happened.
        assert_eq!(q.heap_ops(), 3);
        assert_eq!(q.pop(), Some((Cycles(5), 'b')));
        assert_eq!((q.processed(), q.heap_ops()), (5, 4));
    }

    #[test]
    fn tail_at_reads_the_newest_entry_of_a_slot_or_a_bucket() {
        let mut q = EventQueue::new();
        let bucket = 5 * BLOCK + 20;
        assert_eq!(q.tail_at(Cycles(7)), None);
        q.schedule(Cycles(7), 'a');
        q.schedule(Cycles(7), 'b');
        q.schedule(Cycles(8), 'c');
        q.schedule(Cycles(bucket), 'd');
        q.schedule(Cycles(bucket + 1), 'e');
        q.schedule(Cycles(REACH * BLOCK), 'f');
        assert_eq!(q.tail_at(Cycles(7)), Some(&'b'));
        assert_eq!(q.tail_at(Cycles(8)), Some(&'c'));
        // A bucket holds a block: its newest entry, whatever its cycle.
        assert_eq!(q.tail_at(Cycles(bucket)), Some(&'e'));
        assert_eq!(q.tail_at(Cycles(bucket - 20)), Some(&'e'));
        // The far heap is never read.
        assert_eq!(q.tail_at(Cycles(REACH * BLOCK)), None);
        assert_eq!(q.tail_at(Cycles(u64::MAX)), None);
        assert_eq!(q.pop(), Some((Cycles(7), 'a')));
        assert_eq!(q.tail_at(Cycles(7)), Some(&'b'));
        q.pop();
        assert_eq!(q.tail_at(Cycles(7)), None);
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
        let (bucket, far) = (5 * BLOCK + 20, REACH * BLOCK + 30);
        q.schedule(Cycles(10), 'a');
        q.schedule(Cycles(bucket), 'b');
        q.schedule(Cycles(far), 'c');
        assert_eq!(q.pop_until(Cycles(9)), None);
        assert_eq!(q.pop_until(Cycles(10)), Some((Cycles(10), 'a')));
        // Only a bucket entry and a far one are left.
        assert!(q.slots.is_empty() && !q.buckets.is_empty() && q.far.len() == 1);
        assert_eq!(q.pop_until(Cycles(bucket - 1)), None);
        assert_eq!((q.now(), q.processed(), q.len()), (Cycles(10), 1, 2));
        assert_eq!(q.pop_until(Cycles(bucket)), Some((Cycles(bucket), 'b')));
        assert_eq!(q.pop_until(Cycles(far - 1)), None);
        assert_eq!((q.now(), q.processed(), q.len()), (Cycles(bucket), 2, 1));
        assert_eq!(q.pop_until(Cycles(far)), Some((Cycles(far), 'c')));
        assert_eq!(q.pop_until(Cycles::MAX), None);
    }

    #[test]
    fn pending_events_drop_with_the_queue() {
        let event = std::rc::Rc::new(());
        let mut q = EventQueue::new();
        for at in [0, 1, 1, 9, BLOCK - 1, BLOCK, 3 * BLOCK, 3 * BLOCK, 1 << 20, 1 << 40, u64::MAX] {
            q.schedule(Cycles(at), event.clone());
        }
        q.pop();
        assert_eq!(std::rc::Rc::strong_count(&event), 11);
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

    const BLOCK: u64 = 1 << BLOCK_BITS;

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
            self.heap.push(Reverse((at, self.pushes, id)));
            self.pushes += 1;
            self.q.schedule(Cycles(at), id);
            // The entry just scheduled is the newest of its list.
            let ahead = (at >> BLOCK_BITS) - (self.now >> BLOCK_BITS);
            let tail = (!is_far(at, ahead)).then_some(id);
            assert_eq!(self.q.tail_at(Cycles(at)).copied(), tail);
            self.check();
        }

        fn pop(&mut self) {
            self.pop_until(u64::MAX);
        }

        /// A pop bounded by `deadline`: `None`, and nothing moves, if
        /// the reference's earliest entry lies after it.
        fn pop_until(&mut self, deadline: u64) {
            let due = self.heap.peek().is_some_and(|Reverse((at, ..))| *at <= deadline);
            let expected = if due {
                self.heap.pop().map(|Reverse((at, _, id))| (Cycles(at), id))
            } else {
                None
            };
            if let Some((at, _)) = expected {
                self.now = at.0;
                self.pops += 1;
            }
            assert_eq!(self.q.pop_until(Cycles(deadline)), expected);
            // `now`'s slot holds every entry pending at `now`; its tail
            // is the newest of them.
            let newest = (self.now != u64::MAX).then(|| {
                self.heap.iter().filter(|Reverse((at, ..))| *at == self.now).map(|r| r.0 .2).max()
            });
            assert_eq!(self.q.tail_at(Cycles(self.now)).copied(), newest.flatten());
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

        /// Entries in the wheel, in the buckets and in the far heap.
        fn tiers(&self) -> (usize, usize, usize) {
            let far = self.q.far.len();
            let buckets = (0..BUCKETS)
                .filter(|&b| self.q.bucket_tails[b] != NIL)
                .map(|b| self.list_len(self.q.bucket_tails[b]))
                .sum::<usize>();
            (self.heap.len() - far - buckets, buckets, far)
        }

        fn list_len(&self, tail: u32) -> usize {
            let (mut node, mut n) = (tail, 0);
            loop {
                node = self.q.nodes[node].next;
                n += 1;
                if node == tail {
                    return n;
                }
            }
        }
    }

    /// A timestamp at or after `now`: equal to it, a few cycles on,
    /// just either side of the next multiple of 2ᵏ for small and large
    /// k, anywhere in the wheel's window or the buckets' reach, just
    /// either side of the end of either, or anywhere up to 2⁴⁰ cycles
    /// away. Saturates at `u64::MAX`.
    fn timestamp(rng: &mut DetRng, now: u64) -> u64 {
        let block = now >> BLOCK_BITS;
        match rng.below(12) {
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
            5 | 6 => now.saturating_add(rng.below(2 * BLOCK)),
            7 => {
                // The first cycle past the window or past the reach,
                // give or take two.
                let end = block + if rng.below(2) == 0 { 2 } else { REACH };
                let end = end.checked_shl(BLOCK_BITS).unwrap_or(u64::MAX);
                (end.saturating_add(rng.below(5)).saturating_sub(2)).max(now)
            }
            8 | 9 => now.saturating_add(rng.below(REACH * BLOCK + BLOCK)),
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
                n if n < pop_share => {
                    if rng.below(8) == 0 {
                        let deadline = timestamp(&mut rng, p.now);
                        p.pop_until(deadline);
                    } else {
                        p.pop();
                    }
                }
                9 => {
                    // A burst at one timestamp, with pops credited
                    // beside it.
                    let at = timestamp(&mut rng, p.now);
                    for _ in 0..rng.between(2, 12) {
                        p.schedule(at);
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
        // The buckets' reach runs past the end of time.
        drive(11, u64::MAX - REACH * BLOCK / 2, 10_000);
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

    /// An entry scheduled beyond the reach, then one at the same
    /// timestamp once the reach has come to it: the far one is older
    /// and pops first, whether a wheel pop, a bucket pop or a far pop
    /// moved the reach.
    #[test]
    fn a_migrated_entry_pops_before_a_later_one_at_its_timestamp() {
        for start in [0, 5, BLOCK - 1, BLOCK, 1 << 40, u64::MAX - 3 * REACH * BLOCK] {
            for mover in 0..3 {
                let mut p = Pair::at(start);
                let t = ((start >> BLOCK_BITS) + REACH) * BLOCK + 7;
                p.schedule(t);
                p.schedule(t);
                // The next pop moves the reach past `t`: from the wheel,
                // with the wheel empty from a bucket, or with both empty
                // from the far heap.
                p.schedule(match mover {
                    0 => ((start >> BLOCK_BITS) + 1) * BLOCK,
                    1 => t - BUCKETS as u64 * BLOCK,
                    _ => t - 1,
                });
                assert_eq!(p.tiers().2, 2 + (mover == 2) as usize);
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

    /// Ties at one timestamp that reach the wheel by every route: two
    /// by migration from the far heap into a bucket, two scheduled into
    /// that bucket, both pairs spliced into the wheel, and two scheduled
    /// into the wheel; or two migrated from the heap straight into the
    /// wheel and two scheduled there. They pop in the order they came.
    #[test]
    fn ties_pop_in_order_whichever_way_they_reached_the_wheel() {
        for start in [0, 17, BLOCK - 1, 5 * BLOCK + 3, 1 << 40, u64::MAX - 3 * REACH * BLOCK] {
            for t_offset in [0, 1, BLOCK / 2, BLOCK - 1] {
                let t = ((start >> BLOCK_BITS) + REACH + 3) * BLOCK + t_offset;
                // Migration, then a splice.
                let mut p = Pair::at(start);
                p.schedule(t);
                p.schedule(t);
                assert_eq!(p.tiers(), (0, 0, 2));
                // A far pop three blocks before `t`'s: `t` migrates to
                // its bucket.
                p.schedule(t - 3 * BLOCK);
                p.pop();
                assert_eq!(p.tiers(), (0, 2, 0));
                p.schedule(t);
                p.schedule(t);
                // A bucket pop one block before `t`'s splices `t`'s
                // bucket behind it.
                p.schedule(t - BLOCK);
                p.pop();
                assert_eq!(p.tiers(), (4, 0, 0));
                p.schedule(t);
                p.schedule(t);
                while !p.heap.is_empty() {
                    p.pop();
                }

                // Migration straight into the wheel.
                let mut p = Pair::at(start);
                p.schedule(t);
                p.schedule(t);
                p.schedule(t - BLOCK);
                assert_eq!(p.tiers(), (0, 0, 3));
                p.pop();
                assert_eq!(p.tiers(), (2, 0, 0));
                p.schedule(t);
                p.schedule(t);
                while !p.heap.is_empty() {
                    p.pop();
                }
                p.pop();
            }
        }
    }

    /// With the wheel empty, a pop jumps to the first occupied bucket,
    /// however many empty ones lie between, and a bounded pop that
    /// stops short of it moves nothing.
    #[test]
    fn a_pop_jumps_empty_buckets_while_the_wheel_is_empty() {
        for start in [0, 3 * BLOCK + 100, (BUCKETS as u64 - 4) * BLOCK + 1, 1 << 40] {
            let mut p = Pair::at(start);
            let block = start >> BLOCK_BITS;
            let at = |ahead: u64, offset: u64| (block + ahead) * BLOCK + offset;
            for (ahead, offset) in
                [(2, 5), (7, BLOCK - 1), (7, 0), (7, 0), (500, 9), (REACH - 1, 3)]
            {
                p.schedule(at(ahead, offset));
            }
            // The last bucket and the first far block.
            p.schedule(at(REACH, 0));
            assert_eq!(p.tiers(), (0, 6, 1));
            p.pop_until(at(2, 4));
            p.pop_until(at(2, 5));
            // The wheel is empty again: block 7's bucket is next, its
            // earliest entry the later scheduled.
            assert_eq!(p.tiers().0, 0);
            p.pop_until(at(7, 0) - 1);
            p.pop_until(at(7, 0));
            p.pop_until(at(7, 0));
            p.schedule(at(7, 0));
            while !p.heap.is_empty() {
                p.pop();
            }
            p.pop();
        }
    }

    /// Once the window reaches the last block, entries at `u64::MAX`
    /// stay in the far heap — both those scheduled before and those
    /// scheduled after — and pop in the order they came, after every
    /// entry before the end of time.
    #[test]
    fn entries_at_the_end_of_time_stay_far_in_order() {
        // Cycle `offset` of the block `back` blocks before the last.
        let at = |back: u64, offset: u64| ((u64::MAX >> BLOCK_BITS) - back) * BLOCK + offset;
        let mut p = Pair::at(at(3, 5));
        p.schedule(u64::MAX);
        p.schedule(u64::MAX);
        p.schedule(at(0, 4));
        p.schedule(at(1, 0));
        assert_eq!(p.tiers(), (0, 2, 2));
        p.pop();
        // `now` is in the second-last block: the window takes the last.
        assert_eq!(p.tiers(), (1, 0, 2));
        p.schedule(u64::MAX - 1);
        p.schedule(u64::MAX);
        p.pop();
        p.pop();
        assert_eq!(p.tiers(), (0, 0, 3));
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

    /// Deltas inside the window never reach the far heap, and the node
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
                let at = p.now + rng.below(BLOCK);
                p.schedule(at);
            }
            peak = peak.max(p.q.len());
            assert!(p.q.buckets.is_empty() && p.q.far.is_empty());
            assert!(p.q.nodes.allocated() <= peak);
        }
        assert!(peak > 100, "the queue reached {peak} entries");
    }

    /// `nginx_256_8k8s`'s mix: four in five schedules land less than
    /// 2¹³ cycles ahead, the fifth 2¹⁵–2¹⁸. The far heap stays empty, and
    /// a bucket entry reuses its node when it is spliced.
    #[test]
    fn far_delays_stay_out_of_the_heap() {
        let mut rng = DetRng::seed_from(12);
        let mut p = Pair::new();
        let mut peak = 0;
        for _ in 0..100_000 {
            let pop_share = if p.q.len() > 300 { 7 } else { 4 };
            if rng.below(10) < pop_share {
                p.pop();
            } else {
                let delay = match rng.below(5) {
                    0 => rng.between(1 << 15, 1 << 18),
                    _ => rng.below(BLOCK),
                };
                p.schedule(p.now + delay);
            }
            peak = peak.max(p.q.len());
            assert!(p.q.far.is_empty());
            assert!(p.q.nodes.allocated() <= peak);
        }
        assert!(peak > 100, "the queue reached {peak} entries");
    }
}
