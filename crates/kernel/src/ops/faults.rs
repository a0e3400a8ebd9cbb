//! Fail-stop faults on the ops engine: kernel crashes and unresponsive
//! VPEs, armed by the cluster's fault plan
//! (`TestCluster::set_fault_plan`).
//!
//! The engine's core assumption holds under every fault this module
//! handles: **every request gets exactly one reply**. The NoC loses,
//! duplicates and reorders nothing (the DTU's credits bound what is in
//! flight, §4.1) and kernels are trusted, so a reply that resumes
//! nothing, a reply from a kernel that was not asked and a completion
//! of an idle fan-in are kernel bugs and panic, with or without a fault
//! plan. What this module adds is that every operation still
//! **terminates** when a party stops: it completes, or aborts with a
//! real `Err` — never a silent hang, never a leaked ledger entry.
//!
//! Two mechanisms, one per party that can stop:
//!
//! * **Deadlines, for VPEs.** A phase that awaits a VPE's upcall answer
//!   ([`PendingOp::upcall_responder`]) is armed with an expiry on the
//!   fault clock — the cluster's step counter. [`Kernel::poll_faults`]
//!   aborts it when the answer is starved: the ledger entry is reaped,
//!   the held thread released, and whoever waits is answered with
//!   `Timeout`. A phase that awaits a kernel gets no deadline: a slow
//!   kernel is not a dead one, and it ends by that kernel's reply or by
//!   its death.
//! * **Peer death, for kernels.** When the cluster declares a kernel
//!   crashed ([`Kernel::peer_down`]), every phase that awaits it
//!   ([`PendingOp::awaited_kernel`]) aborts with `Timeout`, every revoke
//!   leg towards it completes (its part of the subtree died with it),
//!   and queued requests towards it are dropped. From then on its
//!   messages are dropped unread, and no new request goes its way.
//!
//! Both abort through the engine's one sweep (`Kernel::fail_parked`,
//! which VPE death uses too), where each protocol fails its own phase
//! towards whoever started it. This module names no phase.

use semper_base::{Code, DetHashMap, Error, KernelId, OpId};

use crate::kernel::Kernel;
use crate::ops::PendingOp;
use crate::outbox::Outbox;

/// Per-kernel fault state. Default-constructed (inert) unless the
/// cluster runs under a fault plan.
#[derive(Debug, Default, Clone)]
pub struct FaultState {
    /// Steps granted to each parked phase that awaits a VPE (0 = no
    /// deadlines).
    pub(crate) deadline_budget: u64,
    /// The fault clock: the harness's step counter at the last
    /// `poll_faults`.
    pub(crate) now: u64,
    /// Scripted crash points: remaining parks per phase name; the
    /// kernel dies when one reaches zero.
    pub(crate) crash_script: Vec<(&'static str, u32)>,
    /// True once a scripted crash point fired; the harness checks this
    /// after every dispatch and discards the crashed handler's output.
    pub(crate) crashed: bool,
    /// Expiry step per pending op that awaits a VPE.
    pub(crate) deadlines: DetHashMap<OpId, u64>,
    /// Peer kernels declared dead by the harness.
    pub(crate) dead_peers: Vec<KernelId>,
}

impl Kernel {
    /// Arms deadlines of `deadline_budget` steps on every phase that
    /// awaits a VPE's answer. The harness must then advance the clock
    /// via [`Kernel::poll_faults`].
    pub fn arm_deadlines(&mut self, deadline_budget: u64) {
        self.fault.deadline_budget = deadline_budget;
    }

    /// Installs this kernel's scripted crash points (phase name and
    /// which park of that phase triggers the crash), from
    /// `FaultPlan::crash_points`.
    pub fn arm_crash_points(&mut self, points: Vec<(&'static str, u32)>) {
        self.fault.crash_script = points;
    }

    /// True once a scripted crash point fired. The harness treats the
    /// kernel as dead from the dispatch that tripped it: that handler's
    /// outbox is discarded and all later traffic to the island drops.
    pub fn crashed(&self) -> bool {
        self.fault.crashed
    }

    /// The earliest armed deadline, if any — the harness jumps the
    /// fault clock here when the network goes quiet, so starved ops
    /// abort instead of hanging the run.
    pub fn next_fault_deadline(&self) -> Option<u64> {
        self.fault.deadlines.values().copied().min()
    }

    /// True once the harness declared `peer` dead ([`Kernel::peer_down`]).
    pub(crate) fn peer_dead(&self, peer: KernelId) -> bool {
        self.fault.dead_peers.contains(&peer)
    }

    /// Bookkeeping hook of [`Kernel::park`]: checks the crash script
    /// and arms the deadline of a phase that awaits a VPE.
    pub(crate) fn note_parked(&mut self, op: OpId, state: &PendingOp) {
        if !self.fault.crashed {
            let phase = state.name();
            for entry in &mut self.fault.crash_script {
                if entry.0 == phase && entry.1 > 0 {
                    entry.1 -= 1;
                    if entry.1 == 0 {
                        self.fault.crashed = true;
                    }
                    break;
                }
            }
        }
        if self.fault.deadline_budget > 0 && state.upcall_responder().is_some() {
            self.fault.deadlines.insert(op, self.fault.now + self.fault.deadline_budget);
        }
    }

    /// Advances the fault clock and aborts every op whose deadline
    /// expired, in op-id order.
    pub fn poll_faults(&mut self, now: u64, out: &mut Outbox) {
        self.fault.now = now;
        let mut expired: Vec<OpId> = Vec::new();
        self.fault.deadlines.retain(|op, dl| {
            // An op that completed or failed since its deadline was armed
            // is reaped lazily (op ids are never reused).
            let parked = self.pending.get(*op).is_some();
            if parked && *dl <= now {
                expired.push(*op);
            }
            parked && *dl > now
        });
        self.stats.ops_aborted += self.fail_parked(expired, Error::new(Code::Timeout), out);
    }

    /// Declares a peer kernel dead: drops queued requests towards it,
    /// aborts every pending op waiting on it and completes every revoke
    /// leg towards it (each in op-id order, so the replies leave
    /// deterministically). The harness calls this on every surviving
    /// kernel when a scripted crash fires.
    pub fn peer_down(&mut self, dead: KernelId, out: &mut Outbox) {
        if self.peer_dead(dead) {
            return;
        }
        self.fault.dead_peers.push(dead);
        // Requests stalled behind the credit gate towards the dead
        // kernel would never be consumed; their ops end below.
        self.kgate.drop_queue(dead);
        let doomed: Vec<OpId> = self
            .pending
            .iter()
            .filter(|(_, state)| state.awaited_kernel() == Some(dead))
            .map(|(op, _)| op)
            .collect();
        // A doomed op's deadline is reaped by the next `poll_faults`.
        self.stats.ops_aborted += self.fail_parked(doomed, Error::new(Code::Timeout), out);
        self.revoke_legs_lost(dead, out);
    }

    /// Asserts that the kernel reached true quiescence: no suspended
    /// operations, and every protocol's own state drained — no marked
    /// capability awaiting deletion, no revoke leg outstanding, no
    /// request stalled behind the credit gate.
    /// The fault suites call this after every run — a leak here is
    /// exactly the silent hang the termination guarantees rule out.
    pub fn check_quiescent(&self) -> core::result::Result<(), String> {
        let ledger = if self.pending.is_empty() {
            Ok(())
        } else {
            let mut stuck: Vec<String> =
                self.pending.iter().map(|(op, s)| format!("{op}:{}", s.name())).collect();
            stuck.sort_unstable();
            Err(format!("pending ops at quiescence: {stuck:?}"))
        };
        [ledger, self.revoke.quiescent(), self.kgate.quiescent()]
            .into_iter()
            .collect::<core::result::Result<(), String>>()
            .map_err(|e| format!("kernel {}: {e}", self.id))
    }
}
