//! The SemperOS multikernel.
//!
//! Each kernel instance manages one PE group (§3.1): it owns the
//! capabilities of all VPEs on its PEs, handles their system calls, and
//! coordinates with other kernels through inter-kernel calls (§4.1) to
//! implement the distributed capability protocol (§4.3).
//!
//! Every distributed operation runs on the [`ops`] engine — one shared
//! pending-op ledger, one reply router, one outbox discipline — with
//! the individual protocols declared as typed phases:
//!
//! * [`ops::exchange`] — obtain and delegate, including the two-way
//!   delegate handshake that closes the *invalid-capability* window,
//!   and orphan cleanup when a party dies mid-exchange.
//! * [`ops::revoke`] — the two-phase mark-and-sweep revocation
//!   (Algorithm 1) with fan-in reply counting, waiter queues for
//!   concurrent overlapping revokes (no *incomplete* acks), and denial
//!   of exchanges on marked capabilities (no *pointless* exchanges).
//! * [`ops::session`] — service registration and session establishment
//!   across PE groups.
//! * [`ops::memops`] — group-local memory capability operations (create
//!   and derive; the engine's single-phase degenerate case).
//!
//! PE groups are static after boot, as in every run the paper makes
//! (§5.3.2): a request is handled by the kernel it reaches, and the
//! routers act on an inter-kernel message only if it comes from a
//! kernel's own PE — and resume a parked phase only for the kernel
//! that phase awaits.
//!
//! The kernel is written as an event-driven actor: [`Kernel::handle`]
//! consumes one message and returns the modeled cycle cost, pushing any
//! outgoing messages into an [`Outbox`]. The paper implements the same
//! logic with cooperative kernel threads and explicit preemption points
//! (§4.2) and notes the two formulations are equivalent; we keep the
//! thread-pool *accounting* (pool sized `V_group + K_max · M_inflight`,
//! never exceeded) as a checked invariant, derived from each phase's
//! own answer ([`ops::PendingOp::holds_thread`]).

pub mod gates;
pub mod harness;
pub mod host;
pub mod kernel;
pub mod ops;
pub mod outbox;
pub mod registry;
pub mod stats;
mod vpes;

pub use kernel::Kernel;
pub use outbox::Outbox;
pub use registry::ServiceInfo;
pub use stats::KernelStats;
