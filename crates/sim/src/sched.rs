//! Per-PE stall lanes over the deterministic event queue.
//!
//! Every PE of the simulated machine serializes its handlers: an event
//! arriving while the PE is still executing must wait until the PE
//! frees. The original engine expressed that wait by pushing the whole
//! event back into the global heap (timestamped at `busy_until`) every
//! time it popped too early. [`PeSchedule`] keeps that engine's
//! observable behaviour and none of its cost: a deferred event is
//! *parked* once in its PE's stall lane and a *wake token* stands in
//! for it in the ordering, and wake tokens that the heap would pop
//! back to back are one heap entry, a *run*.
//!
//! # Runs
//!
//! A wake token is the pair `(at, seq)` the retry loop would have
//! requeued the event under: `at` is the PE's `busy_until` at the
//! deferral, `seq` the next sequence number of the queue. A run is a
//! set of tokens of one PE with equal `at` and consecutive `seq`; its
//! parked events are linked in `seq` order. Only the run's first token
//! is in the heap (or held back, see below) — the others are a count.
//! A PE's stall lane is the chains of its runs; all lanes share one
//! slab of parked events, and an event stays in its slot from park to
//! delivery however often its run moves.
//!
//! * **Park.** An event popping while its PE is busy takes the next
//!   sequence number. If the newest run belongs to the same PE, wakes
//!   at the same time and ends at the previous sequence number, the
//!   event joins it and the heap is not touched; otherwise it starts a
//!   run, one push.
//! * **Pop on a free PE.** The head event is handed out. The remainder
//!   keeps its key `(at, seq + 1)`, which sorts below everything in the
//!   heap and everything scheduled from now on, so it is the next pop
//!   by construction: it is held beside the heap instead of making a
//!   push + pop round trip.
//! * **Pop on a busy PE** (an earlier same-cycle event claimed the PE,
//!   or the PE's busy time was extended from outside). The retry loop
//!   would now pop every token of the run in turn and requeue each at
//!   the new `busy_until` under the next sequence number. The run does
//!   that as a whole: it takes `count` consecutive sequence numbers,
//!   `count − 1` pops are credited to [`PeSchedule::processed`], and the
//!   chain of parked events moves as one link — joined to the newest
//!   run under the same test as a park, or pushed as one entry.
//!
//! Every step is O(1) in the length of the run. Draining a lane of N
//! events behind a busy PE costs about 2 heap operations per handler
//! where per-event tokens cost N, which on a revocation fan-in is the
//! difference between 164 thousand and 4 million heap pops for the
//! same 60 thousand messages (EXPERIMENTS.md, "The stall-lane event
//! engine").
//!
//! # Ordering contract (bit-identical to the retry loop)
//!
//! The global heap remains the *sole* ordering authority, and the
//! equivalence is exact by construction rather than by tolerance.
//! Sequence numbers are unique integers, so no foreign heap entry can
//! sort between two tokens of a run: the retry loop would have popped
//! them back to back, at one timestamp, against one unchanged
//! `busy_until` — no handler runs between two deferrals — and so would
//! have made the same decision for each and handed out exactly the
//! consecutive sequence numbers the run takes. Same-cycle contenders
//! therefore interleave with freshly delivered traffic in precisely the
//! order the retry loop produced, [`PeSchedule::processed`] counts the
//! same pops, [`PeSchedule::now`] reads the same, and every handler
//! runs at the same cycle. `tests/scheduler.rs` checks this against a
//! reference model (the retry loop itself) on randomized workloads;
//! the golden assertions in `tests/determinism.rs` pin it to recorded
//! cycle counts.

use crate::queue::EventQueue;
use crate::slab::{Slab, NIL};
use crate::time::Cycles;

/// Heap entry: a fresh delivery, or the first wake token of a run.
enum Tok<E> {
    /// An event on its first trip through the queue.
    Deliver {
        /// Destination PE.
        pe: u32,
        /// The event itself.
        event: E,
    },
    /// The first wake token of run `run`; the run's other tokens are
    /// its `count`, not heap entries.
    Wake {
        /// Index into `PeSchedule::runs`.
        run: u32,
    },
}

/// A parked event and the one parked behind it in the same run.
struct Parked<E> {
    event: Option<E>,
    next: u32,
}

/// Wake tokens of one PE with equal wake time and consecutive sequence
/// numbers, `end − count .. end`. The first token's key is the key of
/// the run's heap entry; appending at the tail does not change it, and
/// once the head is delivered the run is out of the heap for good.
struct Run {
    pe: u32,
    at: Cycles,
    /// One past the last token's sequence number: the number a token
    /// must take to extend the run.
    end: u64,
    count: u64,
    /// The parked events, `head` first, linked through [`Parked::next`].
    head: u32,
    tail: u32,
}

/// A deterministic event schedule over a fixed set of serializing PEs.
///
/// Owns the event queue, the per-PE `busy_until` times, and the stall
/// lanes. The driver loop calls [`PeSchedule::pop_ready`] to obtain the
/// next event whose PE is free, runs the handler, and reports the
/// handler's end time via [`PeSchedule::set_busy`].
pub struct PeSchedule<E> {
    queue: EventQueue<Tok<E>>,
    busy_until: Vec<Cycles>,
    /// Parked events of all lanes; a PE's lane is the chains of its runs.
    lane_slots: Slab<Parked<E>>,
    /// Live runs: each is in the heap exactly once, or is `held`.
    runs: Slab<Run>,
    /// The run that took the most recent wake-token sequence number —
    /// the only one the next token can be contiguous with.
    newest: Option<u32>,
    /// The remainder of the run whose head was delivered last: the next
    /// pop, kept out of the heap.
    held: Option<u32>,
    /// Wake tokens issued so far. Every counted pop either hands an
    /// event out or issues one token for it, so deliveries are the
    /// difference — kept off the delivery path this way.
    wake_tokens: u64,
}

impl<E> PeSchedule<E> {
    /// Creates a schedule for `pes` PEs, all idle, at time zero.
    pub fn new(pes: usize) -> PeSchedule<E> {
        PeSchedule {
            queue: EventQueue::new(),
            busy_until: vec![Cycles::ZERO; pes],
            lane_slots: Slab::new(),
            runs: Slab::new(),
            newest: None,
            held: None,
            wake_tokens: 0,
        }
    }

    /// Current simulated time (timestamp of the last popped entry).
    pub fn now(&self) -> Cycles {
        self.queue.now()
    }

    /// Pops *counted* so far: one per delivery and one per deferral hop
    /// of every event, exactly what the retry loop executed, so event
    /// totals are comparable across both refactors. A run deferred as a
    /// whole counts each of its tokens; [`PeSchedule::heap_ops`] has
    /// the heap operations actually performed.
    pub fn processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Events handed to the caller by `pop_ready`/`pop_ready_before`:
    /// the pops that were messages rather than deferral hops.
    pub fn delivered(&self) -> u64 {
        self.queue.processed() - self.wake_tokens
    }

    /// Queue pushes plus pops actually performed (host work; no
    /// simulated meaning).
    pub fn heap_ops(&self) -> u64 {
        self.queue.heap_ops()
    }

    /// Events currently parked in stall lanes (diagnostics).
    pub fn parked(&self) -> usize {
        self.lane_slots.live()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.held.is_none() && self.queue.is_empty()
    }

    /// The time `pe` is busy until.
    pub fn busy_until(&self, pe: usize) -> Cycles {
        self.busy_until[pe]
    }

    /// Marks `pe` busy until `until` (handler completion).
    pub fn set_busy(&mut self, pe: usize, until: Cycles) {
        self.busy_until[pe] = until;
    }

    /// Extends `pe`'s busy time to at least `until` (boot sequencing).
    pub fn extend_busy(&mut self, pe: usize, until: Cycles) {
        if self.busy_until[pe] < until {
            self.busy_until[pe] = until;
        }
    }

    /// Schedules `event` for PE `pe` at absolute time `at`.
    pub fn schedule(&mut self, at: Cycles, pe: usize, event: E) {
        let pe = u32::try_from(pe).expect("fewer than 2^32 PEs");
        self.queue.schedule(at, Tok::Deliver { pe, event });
    }

    /// Timestamp of the earliest pending entry (delivery or wake).
    pub fn peek_time(&self) -> Option<Cycles> {
        match self.held {
            Some(run) => Some(self.runs[run].at),
            None => self.queue.peek_time(),
        }
    }

    /// Pops the next event whose PE is free at its delivery time,
    /// advancing `now`; returns `None` when the queue is empty.
    ///
    /// Events popping while their PE is busy are parked in the PE's
    /// stall lane (once — the event is not touched again until
    /// delivery) behind a wake token at the PE's free time. A run of
    /// tokens popping while the PE is busy again (an earlier same-cycle
    /// event won the PE) moves to the new free time as a whole, taking
    /// the sequence numbers and counting the pops the old retry loop
    /// spent on it one event at a time.
    pub fn pop_ready(&mut self) -> Option<(Cycles, usize, E)> {
        self.pop_ready_before(Cycles::MAX)
    }

    /// Like [`PeSchedule::pop_ready`], but never pops a heap entry
    /// with a timestamp after `deadline`. This is the exact granularity
    /// of the old retry loop's deadline-bounded driver (`Machine::
    /// run_until`): deferrals whose wake time lies past the deadline
    /// stay parked rather than delivering early — the retry loop left
    /// their requeued entries in the heap the same way. May park
    /// in-deadline entries (consuming pops) and still return `None`.
    pub fn pop_ready_before(&mut self, deadline: Cycles) -> Option<(Cycles, usize, E)> {
        loop {
            let (t, run) = match self.held {
                Some(run) => {
                    let at = self.runs[run].at;
                    if at > deadline {
                        return None;
                    }
                    self.held = None;
                    self.queue.credit_pops(1);
                    (at, run)
                }
                None => match self.queue.pop_until(deadline)? {
                    (t, Tok::Deliver { pe, event }) => {
                        let busy = self.busy_until[pe as usize];
                        if busy > t {
                            self.park(pe, busy, event);
                            continue;
                        }
                        return Some((t, pe as usize, event));
                    }
                    (t, Tok::Wake { run }) => (t, run),
                },
            };
            let pe = self.runs[run].pe;
            let busy = self.busy_until[pe as usize];
            if busy > t {
                // One token's pop is counted; the rest of the run would
                // have popped right behind it.
                self.queue.credit_pops(self.runs[run].count - 1);
                self.wake_at(run, busy);
                continue;
            }
            return Some((t, pe as usize, self.take_head(run)));
        }
    }

    /// Parks `event` in `pe`'s lane behind a wake token at `at`.
    fn park(&mut self, pe: u32, at: Cycles, event: E) {
        let slot = self.lane_slots.insert(Parked { event: Some(event), next: NIL });
        // A run of one; `wake_at` keys it or folds it into the newest run.
        let run = self.runs.insert(Run { pe, at, end: 0, count: 1, head: slot, tail: slot });
        self.wake_at(run, at);
    }

    /// Issues wake tokens at `at` under the next `count` sequence
    /// numbers for the parked events of `run`, which is in neither the
    /// heap nor `held`: as the tail of the newest run if the tokens are
    /// contiguous with it, else as one heap entry.
    fn wake_at(&mut self, run: u32, at: Cycles) {
        let Run { pe, count, head, tail, .. } = self.runs[run];
        let first = self.queue.next_seq();
        self.wake_tokens += count;
        let contiguous = self.newest.filter(|&n| {
            let n = &self.runs[n];
            n.pe == pe && n.at == at && n.end == first
        });
        if let Some(n) = contiguous {
            let n = &mut self.runs[n];
            self.lane_slots[n.tail].next = head;
            n.tail = tail;
            n.count += count;
            n.end += count;
            self.queue.skip_seqs(count);
            self.runs.release(run);
        } else {
            let r = &mut self.runs[run];
            r.at = at;
            r.end = first + count;
            self.queue.schedule(at, Tok::Wake { run });
            self.queue.skip_seqs(count - 1);
            self.newest = Some(run);
        }
    }

    /// Hands out the head event of `run`, whose first token just popped
    /// on a free PE, and holds the remainder as the next pop.
    fn take_head(&mut self, run: u32) -> E {
        let r = &mut self.runs[run];
        let slot = r.head;
        let parked = &mut self.lane_slots[slot];
        let event = parked.event.take().expect("a run's chain holds one event per token");
        r.head = parked.next;
        r.count -= 1;
        self.lane_slots.release(slot);
        if r.count > 0 {
            self.held = Some(run);
        } else {
            self.runs.release(run);
            if self.newest == Some(run) {
                self.newest = None;
            }
        }
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_pes_deliver_in_time_order() {
        let mut s: PeSchedule<&str> = PeSchedule::new(2);
        s.schedule(Cycles(20), 1, "b");
        s.schedule(Cycles(10), 0, "a");
        assert_eq!(s.pop_ready(), Some((Cycles(10), 0, "a")));
        assert_eq!(s.pop_ready(), Some((Cycles(20), 1, "b")));
        assert_eq!(s.pop_ready(), None);
    }

    #[test]
    fn busy_pe_parks_and_drains_in_arrival_order() {
        let mut s: PeSchedule<u32> = PeSchedule::new(1);
        s.schedule(Cycles(10), 0, 1);
        s.schedule(Cycles(11), 0, 2);
        s.schedule(Cycles(12), 0, 3);
        let (t, pe, e) = s.pop_ready().unwrap();
        assert_eq!((t, pe, e), (Cycles(10), 0, 1));
        s.set_busy(0, Cycles(50));
        // Both remaining events arrive while busy: parked, then drained
        // at the free time in arrival order.
        assert_eq!(s.pop_ready(), Some((Cycles(50), 0, 2)));
        assert_eq!(s.parked(), 1);
        s.set_busy(0, Cycles(60));
        assert_eq!(s.pop_ready(), Some((Cycles(60), 0, 3)));
        assert_eq!(s.parked(), 0);
        assert_eq!(s.pop_ready(), None);
    }

    #[test]
    fn interleaves_fresh_arrivals_at_the_free_boundary() {
        let mut s: PeSchedule<u32> = PeSchedule::new(1);
        s.schedule(Cycles(10), 0, 1);
        // Scheduled before the deferral below, arriving exactly when
        // the PE frees: its lower sequence number wins the PE.
        s.schedule(Cycles(50), 0, 99);
        s.schedule(Cycles(11), 0, 2);
        assert_eq!(s.pop_ready(), Some((Cycles(10), 0, 1)));
        s.set_busy(0, Cycles(50));
        assert_eq!(s.pop_ready(), Some((Cycles(50), 0, 99)));
        s.set_busy(0, Cycles(70));
        assert_eq!(s.pop_ready(), Some((Cycles(70), 0, 2)));
    }

    #[test]
    fn zero_cost_handlers_do_not_stall() {
        let mut s: PeSchedule<u32> = PeSchedule::new(1);
        s.schedule(Cycles(5), 0, 1);
        s.schedule(Cycles(5), 0, 2);
        assert_eq!(s.pop_ready(), Some((Cycles(5), 0, 1)));
        s.set_busy(0, Cycles(5));
        // busy_until == t means free (strict > defers).
        assert_eq!(s.pop_ready(), Some((Cycles(5), 0, 2)));
    }

    #[test]
    fn lane_slots_are_reused() {
        let mut s: PeSchedule<u32> = PeSchedule::new(1);
        for round in 0..3u32 {
            let base = u64::from(round) * 100;
            s.schedule(Cycles(base + 1), 0, 1);
            s.schedule(Cycles(base + 2), 0, 2);
            let _ = s.pop_ready().unwrap();
            s.set_busy(0, Cycles(base + 50));
            assert_eq!(s.pop_ready(), Some((Cycles(base + 50), 0, 2)));
            s.set_busy(0, Cycles(base + 51));
        }
        // One deferral per round, always through the same recycled slot.
        assert_eq!(s.lane_slots.allocated(), 1);
        assert_eq!(s.runs.allocated(), 1);
    }

    /// A host that schedules `u32` handles to messages it stores itself
    /// moves at most 24 bytes per queue node and per parked event.
    #[test]
    fn a_handle_entry_stays_small() {
        use std::mem::size_of;
        let node = size_of::<crate::queue::Node<Tok<u32>>>();
        let parked = size_of::<Parked<u32>>();
        assert!(node <= 24 && parked <= 24, "queue node {node} bytes, parked event {parked}");
    }
}
