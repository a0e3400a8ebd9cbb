//! Property tests for the stall-lane event engine.
//!
//! The engine ([`semper_sim::PeSchedule`]) replaced the original
//! "requeue into the global heap until the PE is free" retry loop. Its
//! contract is *exact trace equivalence*: for any workload, every event
//! is delivered at the same cycle, in the same order, with the same
//! number of heap pops, as the retry loop produced — including
//! same-cycle tie-breaks, where a deferred event competes with freshly
//! arriving traffic at the instant its PE frees.
//!
//! The reference model below *is* the old engine, reimplemented on the
//! raw [`EventQueue`] exactly as `Machine::step` used to: pop, and if
//! the destination is busy, push the whole event back at `busy_until`.
//! [`DetRng`]-randomized workloads (bursty arrivals on a small time
//! window, zero-cost handlers, fan-out follow-up events) then drive
//! both engines and compare full traces.

use semper_sim::{Cycles, DetRng, EventQueue, PeSchedule};

/// One simulated event: an id whose handler cost and follow-up fan-out
/// are derived deterministically from the id, so both engines compute
/// identical workloads without sharing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    id: u64,
    pe: usize,
    /// Spawning generation: deliveries of generation > 0 spawn
    /// follow-up events (handler output traffic).
    gen: u8,
}

/// Deterministic per-event parameters (cost, fan-out, delays).
struct Workload {
    seed: u64,
    pes: usize,
}

impl Workload {
    fn cost(&self, id: u64) -> u64 {
        // Small costs with plenty of zeros force busy windows that end
        // exactly on other events' arrival cycles.
        DetRng::split(self.seed, id ^ 0xC0).below(7)
    }

    fn followups(&self, ev: Ev, end: Cycles) -> Vec<(Cycles, Ev)> {
        if ev.gen == 0 {
            return Vec::new();
        }
        let mut rng = DetRng::split(self.seed, ev.id ^ 0xFA);
        let n = rng.below(3);
        (0..n)
            .map(|i| {
                let child = Ev {
                    id: ev.id * 31 + i + 1,
                    pe: rng.below(self.pes as u64) as usize,
                    gen: ev.gen - 1,
                };
                // Zero-delay children land on the exact cycle the
                // handler finishes — the adversarial boundary tie.
                (end + rng.below(5), child)
            })
            .collect()
    }
}

/// A delivered-event trace entry: (cycle, event id, pe).
type Trace = Vec<(u64, u64, usize)>;

/// The pre-refactor engine: retry loop on the raw stable queue.
fn reference_trace(w: &Workload, initial: &[(Cycles, Ev)]) -> (Trace, u64, u64) {
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut busy_until = vec![Cycles::ZERO; w.pes];
    for (at, ev) in initial {
        queue.schedule(*at, *ev);
    }
    let mut trace = Trace::new();
    while let Some((t, ev)) = queue.pop() {
        if busy_until[ev.pe] > t {
            // The PE is still executing; retry when it frees up (the
            // original Machine::step logic, verbatim).
            let at = busy_until[ev.pe];
            queue.schedule(at, ev);
            continue;
        }
        let end = t + w.cost(ev.id);
        busy_until[ev.pe] = end;
        trace.push((t.0, ev.id, ev.pe));
        for (at, child) in w.followups(ev, end) {
            queue.schedule(at, child);
        }
    }
    (trace, queue.processed(), queue.now().0)
}

/// The stall-lane engine on the same workload.
fn stall_lane_trace(w: &Workload, initial: &[(Cycles, Ev)]) -> (Trace, u64, u64) {
    let mut sched: PeSchedule<Ev> = PeSchedule::new(w.pes);
    for (at, ev) in initial {
        sched.schedule(*at, ev.pe, *ev);
    }
    let mut trace = Trace::new();
    while let Some((t, pe, ev)) = sched.pop_ready() {
        assert_eq!(pe, ev.pe, "schedule() PE must round-trip");
        let end = t + w.cost(ev.id);
        sched.set_busy(pe, end);
        trace.push((t.0, ev.id, ev.pe));
        for (at, child) in w.followups(ev, end) {
            sched.schedule(at, child.pe, child);
        }
    }
    assert_eq!(sched.parked(), 0, "drained engine must have empty stall lanes");
    assert_eq!(sched.delivered(), trace.len() as u64, "delivered() counts handed-out events");
    (trace, sched.processed(), sched.now().0)
}

fn initial_burst(seed: u64, pes: usize, n: u64, window: u64, gen: u8) -> Vec<(Cycles, Ev)> {
    let mut rng = DetRng::seed_from(seed);
    (0..n)
        .map(|id| {
            let at = Cycles(rng.below(window));
            let pe = rng.below(pes as u64) as usize;
            (at, Ev { id, pe, gen })
        })
        .collect()
}

/// The property: for randomized bursty workloads with follow-up
/// traffic, the stall-lane engine delivers the exact same
/// (cycle, event, pe) trace as the retry-loop reference — same
/// delivery order among same-cycle contenders, same final time, and
/// the same number of heap pops (so `Machine::events` is comparable
/// across the refactor).
#[test]
fn randomized_workloads_match_reference_trace() {
    for seed in 0..16u64 {
        let w = Workload { seed: 0xA11CE ^ (seed * 0x9E37_79B9), pes: 4 };
        // 300 events over a 50-cycle window: most deliveries contend,
        // and busy windows constantly end on other arrivals' cycles.
        let initial = initial_burst(w.seed, w.pes, 300, 50, 2);
        let (ref_trace, ref_pops, ref_now) = reference_trace(&w, &initial);
        let (lane_trace, lane_pops, lane_now) = stall_lane_trace(&w, &initial);
        assert_eq!(
            lane_trace, ref_trace,
            "seed {seed}: stall-lane engine diverged from the retry-loop reference"
        );
        assert_eq!(lane_pops, ref_pops, "seed {seed}: pop counts diverged");
        assert_eq!(lane_now, ref_now, "seed {seed}: final time diverged");
        // Sanity: the workload actually exercised deferrals.
        assert!(ref_pops > ref_trace.len() as u64, "seed {seed}: no deferrals happened");
    }
}

/// Same-cycle burst onto one PE: every event arrives at cycle 10, so
/// the entire schedule is tie-breaks. Delivery must follow arrival
/// (insertion) order with each handler pushing the next delivery out
/// by its cost — on both engines identically.
#[test]
fn same_cycle_burst_delivers_in_arrival_order() {
    let w = Workload { seed: 7, pes: 1 };
    let initial: Vec<(Cycles, Ev)> =
        (0..64).map(|id| (Cycles(10), Ev { id, pe: 0, gen: 0 })).collect();
    let (ref_trace, ..) = reference_trace(&w, &initial);
    let (lane_trace, ..) = stall_lane_trace(&w, &initial);
    assert_eq!(lane_trace, ref_trace);
    let ids: Vec<u64> = lane_trace.iter().map(|(_, id, _)| *id).collect();
    assert_eq!(ids, (0..64).collect::<Vec<u64>>(), "ties must deliver in arrival order");
    // Cycles are monotonically non-decreasing and start at the burst.
    assert_eq!(lane_trace[0].0, 10);
    assert!(lane_trace.windows(2).all(|w| w[0].0 <= w[1].0));
}

/// Deep deferral chains: a PE kept busy by a steady drip of work while
/// a low-priority burst waits. Exercises repeated re-deferral (a wake
/// token losing the free cycle to an earlier same-cycle contender
/// several times in a row).
#[test]
fn repeated_redeferral_matches_reference() {
    for seed in 0..8u64 {
        let w = Workload { seed: 0xBEEF ^ seed, pes: 2 };
        let mut initial = initial_burst(w.seed, w.pes, 64, 8, 1);
        // A same-cycle wall at the window edge: many events landing at
        // the exact cycle earlier busy windows tend to end on.
        for id in 1000..1032 {
            initial.push((Cycles(8), Ev { id, pe: (id % 2) as usize, gen: 0 }));
        }
        let (ref_trace, ref_pops, _) = reference_trace(&w, &initial);
        let (lane_trace, lane_pops, _) = stall_lane_trace(&w, &initial);
        assert_eq!(lane_trace, ref_trace, "seed {seed}");
        assert_eq!(lane_pops, ref_pops, "seed {seed}");
    }
}

/// Deadline-bounded draining (`Machine::run_until`): the old driver
/// popped heap entries one at a time while the head was within the
/// deadline, so a stalled message whose retry landed past the deadline
/// stayed queued *unhandled*. `pop_ready_before` must reproduce that —
/// never delivering an event at a cycle past the deadline — and the
/// post-deadline continuation must then match the reference exactly.
#[test]
fn deadline_bounded_drain_matches_reference() {
    for seed in 0..8u64 {
        let w = Workload { seed: 0xDEAD ^ seed, pes: 3 };
        let initial = initial_burst(w.seed, w.pes, 200, 40, 2);
        for deadline in [Cycles(0), Cycles(17), Cycles(25), Cycles(60), Cycles(10_000)] {
            // Reference: the old Machine::run_until loop, verbatim.
            let mut queue: EventQueue<Ev> = EventQueue::new();
            let mut busy_until = vec![Cycles::ZERO; w.pes];
            for (at, ev) in &initial {
                queue.schedule(*at, *ev);
            }
            let mut ref_trace = Trace::new();
            let drive = |queue: &mut EventQueue<Ev>,
                         busy_until: &mut Vec<Cycles>,
                         trace: &mut Trace,
                         bound: Option<Cycles>| {
                while let Some(pt) = queue.peek_time() {
                    if bound.is_some_and(|d| pt > d) {
                        break;
                    }
                    let (t, ev) = queue.pop().expect("peeked");
                    if busy_until[ev.pe] > t {
                        let at = busy_until[ev.pe];
                        queue.schedule(at, ev);
                        continue;
                    }
                    let end = t + w.cost(ev.id);
                    busy_until[ev.pe] = end;
                    trace.push((t.0, ev.id, ev.pe));
                    for (at, child) in w.followups(ev, end) {
                        queue.schedule(at, child);
                    }
                }
            };
            drive(&mut queue, &mut busy_until, &mut ref_trace, Some(deadline));
            let ref_cut = (ref_trace.len(), queue.processed(), queue.now().0);

            // Stall-lane engine, same workload, same deadline.
            let mut sched: PeSchedule<Ev> = PeSchedule::new(w.pes);
            for (at, ev) in &initial {
                sched.schedule(*at, ev.pe, *ev);
            }
            let mut lane_trace = Trace::new();
            while let Some((t, _pe, ev)) = sched.pop_ready_before(deadline) {
                assert!(t <= deadline, "delivered past the deadline");
                let end = t + w.cost(ev.id);
                sched.set_busy(ev.pe, end);
                lane_trace.push((t.0, ev.id, ev.pe));
                for (at, child) in w.followups(ev, end) {
                    sched.schedule(at, child.pe, child);
                }
            }
            assert_eq!(lane_trace, ref_trace, "seed {seed} deadline {deadline}: bounded phase");
            assert_eq!(
                (lane_trace.len(), sched.processed(), sched.now().0),
                ref_cut,
                "seed {seed} deadline {deadline}: bounded-phase counters"
            );

            // Continue both to idle: the leftover (parked/requeued)
            // state must produce the same tail.
            drive(&mut queue, &mut busy_until, &mut ref_trace, None);
            while let Some((t, _pe, ev)) = sched.pop_ready() {
                let end = t + w.cost(ev.id);
                sched.set_busy(ev.pe, end);
                lane_trace.push((t.0, ev.id, ev.pe));
                for (at, child) in w.followups(ev, end) {
                    sched.schedule(at, child.pe, child);
                }
            }
            assert_eq!(lane_trace, ref_trace, "seed {seed} deadline {deadline}: tail after resume");
        }
    }
}

/// An idle machine (every handler free when its event arrives) must
/// never park anything: the stall lanes are pure overhead-free
/// passthrough in the uncontended case.
#[test]
fn uncontended_events_never_park() {
    let w = Workload { seed: 3, pes: 4 };
    // One event every 100 cycles — far apart, costs ≤ 6.
    let initial: Vec<(Cycles, Ev)> =
        (0..32).map(|id| (Cycles(id * 100), Ev { id, pe: (id % 4) as usize, gen: 0 })).collect();
    let (trace, pops, _) = stall_lane_trace(&w, &initial);
    assert_eq!(pops, trace.len() as u64, "no deferral pops expected");
}

// ----- both engines behind one interface ----------------------------------
//
// The cases below interfere with the schedule from outside the pop
// loop and stop it at deadlines, so each scenario is written once
// against `Engine` and run on the retry loop and on `PeSchedule`.

/// What a scenario needs of an event engine.
trait Engine {
    fn new(pes: usize) -> Self;
    fn schedule(&mut self, at: Cycles, ev: Ev);
    /// The next event whose PE is free, not popping past `deadline`.
    fn pop(&mut self, deadline: Option<Cycles>) -> Option<(Cycles, Ev)>;
    fn set_busy(&mut self, pe: usize, until: Cycles);
    fn extend_busy(&mut self, pe: usize, until: Cycles);
    /// (pops counted, current time).
    fn counters(&self) -> (u64, u64);
}

/// The retry loop (`Machine::step`/`run_until` before the stall lanes).
struct RetryLoop {
    queue: EventQueue<Ev>,
    busy_until: Vec<Cycles>,
}

impl Engine for RetryLoop {
    fn new(pes: usize) -> Self {
        RetryLoop { queue: EventQueue::new(), busy_until: vec![Cycles::ZERO; pes] }
    }
    fn schedule(&mut self, at: Cycles, ev: Ev) {
        self.queue.schedule(at, ev);
    }
    fn pop(&mut self, deadline: Option<Cycles>) -> Option<(Cycles, Ev)> {
        loop {
            let head = self.queue.peek_time()?;
            if deadline.is_some_and(|d| head > d) {
                return None;
            }
            let (t, ev) = self.queue.pop().expect("peeked");
            if self.busy_until[ev.pe] > t {
                let at = self.busy_until[ev.pe];
                self.queue.schedule(at, ev);
                continue;
            }
            return Some((t, ev));
        }
    }
    fn set_busy(&mut self, pe: usize, until: Cycles) {
        self.busy_until[pe] = until;
    }
    fn extend_busy(&mut self, pe: usize, until: Cycles) {
        self.busy_until[pe] = self.busy_until[pe].max(until);
    }
    fn counters(&self) -> (u64, u64) {
        (self.queue.processed(), self.queue.now().0)
    }
}

impl Engine for PeSchedule<Ev> {
    fn new(pes: usize) -> Self {
        PeSchedule::new(pes)
    }
    fn schedule(&mut self, at: Cycles, ev: Ev) {
        PeSchedule::schedule(self, at, ev.pe, ev);
    }
    fn pop(&mut self, deadline: Option<Cycles>) -> Option<(Cycles, Ev)> {
        let popped = match deadline {
            None => self.pop_ready(),
            Some(d) => self.pop_ready_before(d),
        };
        popped.map(|(t, pe, ev)| {
            assert_eq!(pe, ev.pe, "schedule() PE must round-trip");
            (t, ev)
        })
    }
    fn set_busy(&mut self, pe: usize, until: Cycles) {
        PeSchedule::set_busy(self, pe, until);
    }
    fn extend_busy(&mut self, pe: usize, until: Cycles) {
        PeSchedule::extend_busy(self, pe, until);
    }
    fn counters(&self) -> (u64, u64) {
        (self.processed(), self.now().0)
    }
}

/// A busy-time change made from outside the pop loop, as
/// `Machine::syscall_blocking` and the boot sequence make them.
#[derive(Clone, Copy)]
enum Outside {
    Set(usize, Cycles),
    Extend(usize, Cycles),
}

/// Everything observable of one run: the delivery trace, and after each
/// phase (one per deadline, then one to idle) the trace length, pops
/// counted and current time.
type Observed = (Trace, Vec<(usize, u64, u64)>);

/// Drives `G` through `initial` under `w`: one bounded phase per
/// deadline, then to idle. `outside(deliveries so far, now)` runs
/// before every pop attempt.
fn drive<G: Engine>(
    w: &Workload,
    initial: &[(Cycles, Ev)],
    deadlines: &[Cycles],
    outside: &dyn Fn(usize, Cycles) -> Vec<Outside>,
) -> Observed {
    let mut engine = G::new(w.pes);
    for (at, ev) in initial {
        engine.schedule(*at, *ev);
    }
    let mut trace = Trace::new();
    let mut cuts = Vec::new();
    let phases = deadlines.iter().map(|d| Some(*d)).chain([None]);
    for deadline in phases {
        loop {
            for change in outside(trace.len(), Cycles(engine.counters().1)) {
                match change {
                    Outside::Set(pe, until) => engine.set_busy(pe, until),
                    Outside::Extend(pe, until) => engine.extend_busy(pe, until),
                }
            }
            let Some((t, ev)) = engine.pop(deadline) else { break };
            assert!(deadline.is_none_or(|d| t <= d), "delivered past the deadline");
            let end = t + w.cost(ev.id);
            engine.set_busy(ev.pe, end);
            trace.push((t.0, ev.id, ev.pe));
            for (at, child) in w.followups(ev, end) {
                engine.schedule(at, child);
            }
        }
        let (pops, now) = engine.counters();
        cuts.push((trace.len(), pops, now));
    }
    (trace, cuts)
}

/// Runs the scenario on both engines and requires identical
/// observations; returns them for scenario-specific checks.
fn assert_engines_agree(
    what: &str,
    w: &Workload,
    initial: &[(Cycles, Ev)],
    deadlines: &[Cycles],
    outside: &dyn Fn(usize, Cycles) -> Vec<Outside>,
) -> Observed {
    let reference = drive::<RetryLoop>(w, initial, deadlines, outside);
    let lanes = drive::<PeSchedule<Ev>>(w, initial, deadlines, outside);
    assert_eq!(lanes.0, reference.0, "{what}: delivery trace diverged");
    assert_eq!(lanes.1, reference.1, "{what}: (deliveries, pops, now) per phase diverged");
    reference
}

/// (a) Busy times moved from outside while events are parked. Extending
/// strands parked runs at a wake time where the PE is still busy;
/// `set_busy` may also pull a PE's free time *below* wake times already
/// handed out, so a lane's runs are not ordered by wake time. Both
/// happen between any two pops here.
#[test]
fn outside_busy_changes_match_reference() {
    for seed in 0..16u64 {
        let w = Workload { seed: 0x0B5E ^ (seed * 0x9E37_79B9), pes: 3 };
        let initial = initial_burst(w.seed, w.pes, 250, 60, 2);
        let outside = |step: usize, now: Cycles| {
            let mut rng = DetRng::split(w.seed ^ 0x5E7, step as u64);
            let pe = rng.below(w.pes as u64) as usize;
            match rng.below(8) {
                0 | 1 => vec![Outside::Extend(pe, now + rng.below(15))],
                2 => vec![Outside::Set(pe, Cycles(now.0.saturating_sub(3)) + rng.below(12))],
                _ => Vec::new(),
            }
        };
        let (trace, cuts) =
            assert_engines_agree(&format!("seed {seed}"), &w, &initial, &[Cycles(30)], &outside);
        assert!(cuts[1].1 > trace.len() as u64, "seed {seed}: no deferrals happened");
    }
}

/// (b) Every PE frees on the same cycle (a boot-style `extend_busy`
/// before the first pop) with a deep lane each. Arrivals come in clumps
/// per PE, so wake tokens form runs of mixed lengths that the other
/// PEs' tokens split; fresh deliveries land on the free cycle itself,
/// and zero-delay follow-ups keep PEs freeing on shared cycles.
#[test]
fn simultaneous_frees_with_split_runs_match_reference() {
    for seed in 0..16u64 {
        let w = Workload { seed: 0x5A3E ^ (seed * 0x9E37_79B9), pes: 4 };
        let free_at = Cycles(100);
        let mut rng = DetRng::seed_from(w.seed);
        let mut initial = Vec::new();
        let mut id = 0u64;
        while id < 240 {
            let pe = rng.below(w.pes as u64) as usize;
            for _ in 0..rng.between(1, 6) {
                initial.push((Cycles(id / 3), Ev { id, pe, gen: 2 }));
                id += 1;
            }
        }
        for pe in 0..w.pes {
            initial.push((free_at, Ev { id: 1000 + pe as u64, pe, gen: 1 }));
        }
        let boot = |step: usize, _: Cycles| match step {
            0 => (0..w.pes).map(|pe| Outside::Extend(pe, free_at)).collect(),
            _ => Vec::new(),
        };
        let (trace, cuts) = assert_engines_agree(&format!("seed {seed}"), &w, &initial, &[], &boot);
        assert_eq!(trace[0].0, free_at.0, "seed {seed}: nothing runs before the common free cycle");
        assert!(cuts[0].1 > 2 * trace.len() as u64, "seed {seed}: lanes were not deep");
    }
}

/// (c) A deadline at every position relative to the runs of one lane.
/// PE 0 is held busy until 40 and, from cycle 10 on, until 70, so the
/// arrivals before and after cycle 10 park as two runs with wake times
/// 40 and 70 in one lane; PE 1 runs unhindered and its follow-ups
/// consume sequence numbers in between. Sweeping the deadline over
/// every cycle puts it before the first run, on it (the run pops busy
/// and moves behind the second), between the two, on the second and
/// past both; a second deadline then resumes from each of those states.
#[test]
fn deadline_at_every_position_of_a_two_run_lane() {
    let w = Workload { seed: 0xD1CE, pes: 2 };
    let mut initial = Vec::new();
    for i in 0..6u64 {
        initial.push((Cycles(1 + i), Ev { id: i, pe: 0, gen: 1 }));
        initial.push((Cycles(11 + i), Ev { id: 10 + i, pe: 0, gen: 1 }));
    }
    for (i, at) in [0u64, 10, 20, 30, 40, 55, 70].into_iter().enumerate() {
        initial.push((Cycles(at), Ev { id: 100 + i as u64, pe: 1, gen: 2 }));
    }
    // PE 1's deliveries at cycles 0 and 10 are the first two; follow-ups
    // of the first land on PE 0 or 1 but never deliver on PE 0 before 70.
    let outside = |_: usize, now: Cycles| {
        if now < Cycles(10) {
            vec![Outside::Extend(0, Cycles(40))]
        } else {
            vec![Outside::Extend(0, Cycles(70))]
        }
    };
    let (trace, _) = assert_engines_agree("unbounded", &w, &initial, &[], &outside);
    let first_on_pe0 = trace.iter().find(|(_, _, pe)| *pe == 0).expect("PE 0 ran");
    assert_eq!(first_on_pe0.0, 70, "both runs must wait for the extended busy time");
    let horizon = trace.last().expect("non-empty").0 + 2;
    for d in 0..=horizon {
        let what = format!("deadline {d}");
        assert_engines_agree(&what, &w, &initial, &[Cycles(d)], &outside);
        assert_engines_agree(&what, &w, &initial, &[Cycles(d), Cycles(d + 9)], &outside);
    }
}

/// (d) A larger randomized case: 6 000 initial events and their
/// follow-ups on 2 PEs, arriving faster than they are served, so the
/// lanes grow to hundreds of events before they drain.
#[test]
fn large_two_pe_workload_matches_reference() {
    let w = Workload { seed: 0xB16, pes: 2 };
    let initial = initial_burst(w.seed, w.pes, 6_000, 15_000, 1);
    let (trace, cuts) = assert_engines_agree("large", &w, &initial, &[], &|_, _| Vec::new());
    assert!(trace.len() >= 6_000);
    assert!(cuts[0].1 > 100 * trace.len() as u64, "lanes were not deep");
}

/// Complexity guard, in counts so it cannot flake: `n` events land on
/// one PE in the same cycle and each handler takes one cycle. The retry
/// loop pops all `k` waiting events each time one of them is served —
/// n + (n−1) + … + 1 pops — and `processed()` must keep saying so,
/// while the heap itself does a bounded number of operations per event.
#[test]
fn deep_lane_drains_in_linear_heap_operations() {
    fn drain<G: Engine>(n: u64) -> G {
        let mut engine = G::new(1);
        for id in 0..n {
            engine.schedule(Cycles(10), Ev { id, pe: 0, gen: 0 });
        }
        let mut served = 0;
        while let Some((t, ev)) = engine.pop(None) {
            assert_eq!(ev.id, served, "arrival order");
            engine.set_busy(0, t + 1);
            served += 1;
        }
        assert_eq!(served, n);
        engine
    }
    let closed_form = |n: u64| (n * (n + 1) / 2, 10 + n - 1);
    assert_eq!(drain::<RetryLoop>(300).counters(), closed_form(300));
    assert_eq!(drain::<PeSchedule<Ev>>(300).counters(), closed_form(300));

    let n = 20_000u64;
    let sched = drain::<PeSchedule<Ev>>(n);
    assert_eq!(sched.counters(), closed_form(n));
    assert_eq!(sched.delivered(), n);
    assert!(sched.heap_ops() <= 4 * n, "{} heap operations for {n} events", sched.heap_ops());
}
