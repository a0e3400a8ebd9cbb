//! Deterministic discrete-event simulation engine.
//!
//! This crate is the reproduction's substitute for gem5 (§5.1 of the
//! paper): a cycle-granular event queue driving actor state machines. It
//! is intentionally micro-architecture-free — all timing comes from the
//! cost model in `semper-base` — but it is *strictly deterministic*: two
//! runs with the same configuration produce bit-identical schedules.
//!
//! Determinism rests on two rules enforced here and honoured by all
//! users:
//!
//! 1. Events at equal timestamps are ordered by insertion sequence
//!    number ([`EventQueue`] is a stable priority queue).
//! 2. No randomness outside [`rng::DetRng`], which is seeded from the
//!    machine configuration.

pub mod faults;
pub mod queue;
pub mod rng;
pub mod sched;
pub(crate) mod slab;
pub mod time;

pub use faults::{CrashPoint, FaultPlan};
pub use queue::EventQueue;
pub use rng::DetRng;
pub use sched::PeSchedule;
pub use time::Cycles;

// The engine holds no `Rc`, `RefCell`, thread-local or global state —
// a whole simulation is an owned value that can move between threads.
// The parallel harness (`semperos::runner`) runs independent machines
// on worker threads on the strength of this; lock it in at compile
// time so a shared-mutability regression fails the build here.
const fn assert_send<T: Send>() {}
const _: () = {
    assert_send::<EventQueue<u64>>();
    assert_send::<PeSchedule<u64>>();
    assert_send::<DetRng>();
    assert_send::<FaultPlan>();
};
