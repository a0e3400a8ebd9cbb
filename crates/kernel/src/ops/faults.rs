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
//!   the held thread released, and whoever waits is answered with an
//!   error. A phase that awaits a kernel gets no deadline: a slow kernel
//!   is not a dead one, and it ends by that kernel's reply or by its
//!   death.
//! * **Peer death, for kernels.** When the cluster declares a kernel
//!   crashed ([`Kernel::peer_down`]), every phase that awaits it aborts,
//!   every revoke leg towards it completes (its part of the subtree died
//!   with it), and queued requests towards it are dropped. From then on
//!   its messages are dropped unread, and no new request goes its way.
//!
//! Abort is per-phase surgery, not a generic drop: each arm meets the
//! phase's reply obligation towards whoever started it.

use semper_base::{Code, DetHashMap, Error, KernelId, OpId};

use crate::kernel::Kernel;
use crate::ops::{exchange, session, PendingOp};
use crate::outbox::Outbox;

/// Per-kernel fault state. Default-constructed (inert) unless the
/// cluster runs under a fault plan.
#[derive(Debug, Default)]
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
            let phase = state.spec().name;
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
        if self.fault.deadlines.is_empty() {
            return;
        }
        let mut expired: Vec<OpId> = Vec::new();
        self.fault.deadlines.retain(|op, dl| {
            // An op that completed since its deadline was armed is
            // reaped lazily (op ids are never reused).
            if self.pending.get(*op).is_none() {
                return false;
            }
            if *dl <= now {
                expired.push(*op);
                return false;
            }
            true
        });
        expired.sort_unstable();
        for op in expired {
            // Aborting one op can complete others; re-check.
            if let Some(state) = self.pending.remove(op) {
                self.abort_op(state, out);
            }
        }
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
        let mut doomed: Vec<OpId> = self
            .pending
            .iter()
            .filter(|(_, state)| self.awaited_kernel(state) == Some(dead))
            .map(|(op, _)| op)
            .collect();
        doomed.sort_unstable();
        for op in doomed {
            self.fault.deadlines.remove(&op);
            // Aborting one op can complete others; re-check that this
            // one is still parked.
            let Some(state) = self.pending.remove(op) else { continue };
            self.abort_op(state, out);
        }
        self.revoke_legs_lost(dead, out);
    }

    /// The one peer kernel `state` cannot make progress without — written
    /// down once, for two readers. [`Kernel::peer_down`] aborts every
    /// phase whose kernel died; the reply router resumes a phase that
    /// awaits a kernel reply only for a reply from this kernel
    /// (membership is static and nothing is relayed, so the kernel that
    /// was asked is the only one that can answer). For the phases that
    /// await a local VPE's upcall answer on a remote caller's behalf it
    /// is that caller. `None` for phases waiting on local VPEs only and
    /// for revocations, whose legs are counted per kernel instead.
    pub(crate) fn awaited_kernel(&self, state: &PendingOp) -> Option<KernelId> {
        match state {
            PendingOp::Exchange(p) => match p {
                exchange::Phase::ObtainRemote { peer_kernel, .. }
                | exchange::Phase::DelegateRemote { peer_kernel, .. }
                | exchange::Phase::DelegateAborted { peer_kernel, .. } => Some(*peer_kernel),
                exchange::Phase::ObtainAtOwner { caller_kernel, .. }
                | exchange::Phase::DelegateAtRecv { caller_kernel, .. }
                | exchange::Phase::DelegatePendingInsert { caller_kernel, .. } => {
                    Some(*caller_kernel)
                }
                exchange::Phase::DelegateWaitDone { child_key, .. } => {
                    Some(self.membership.kernel_of_key(*child_key))
                }
                exchange::Phase::LocalAccept { .. } => None,
            },
            PendingOp::Session(p) => match p {
                session::Phase::OpenRemote { srv, .. } => Some(srv.owner),
                session::Phase::AtService { caller_kernel, .. } => Some(*caller_kernel),
                session::Phase::OpenLocal { .. } => None,
            },
            // A revocation awaits its own legs (`revoke::RevokeState`
            // counts them per kernel) and the local revocations it waits
            // for, never the kernel it answers.
            PendingOp::Revoke(_) => None,
        }
    }

    /// Aborts one pending op with per-phase surgery so the system stays
    /// consistent: reply obligations towards callers are met (with an
    /// error). Reached by a starved VPE-awaiting phase's deadline and by
    /// the death of the kernel a phase awaits; a revocation is neither.
    fn abort_op(&mut self, state: PendingOp, out: &mut Outbox) {
        self.stats.ops_aborted += 1;
        let err = Error::new(Code::Timeout);
        match state {
            PendingOp::Exchange(phase) => match phase {
                // The upcall-cancellation sweep already knows how to
                // fail these three towards their initiators.
                p @ (exchange::Phase::LocalAccept { .. }
                | exchange::Phase::ObtainAtOwner { .. }
                | exchange::Phase::DelegateAtRecv { .. }) => self.cancel_exchange_phase(p, out),
                exchange::Phase::ObtainRemote { tag, requester, .. } => {
                    self.reply_sys(out, requester, tag, Err(err));
                }
                exchange::Phase::DelegateRemote { tag, delegator, .. } => {
                    self.reply_sys(out, delegator, tag, Err(err));
                }
                // The receiver's kernel died, with the child inserted or
                // not; we can no longer learn which. Fail the syscall.
                // Nothing is cleaned up: the delegator keeps its link to
                // the child, like every link a survivor holds into a
                // dead kernel.
                exchange::Phase::DelegateWaitDone { tag, delegator, .. } => {
                    self.reply_sys(out, delegator, tag, Err(err));
                }
                exchange::Phase::DelegateAborted { tag, delegator, reason, .. } => {
                    self.reply_sys(out, delegator, tag, Err(reason));
                }
                // Never inserted — §4.3.2's whole point: dropping the
                // pending capability is safe and complete.
                exchange::Phase::DelegatePendingInsert { .. } => {}
            },
            PendingOp::Session(phase) => self.cancel_session_phase(phase, err, out),
            PendingOp::Revoke(op) => {
                unreachable!("{} has no deadline and awaits no kernel", op.spec().name)
            }
        }
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
                self.pending.iter().map(|(op, s)| format!("{op}:{}", s.spec().name)).collect();
            stuck.sort_unstable();
            Err(format!("pending ops at quiescence: {stuck:?}"))
        };
        [ledger, self.revoke.quiescent(), self.kgate.quiescent()]
            .into_iter()
            .collect::<core::result::Result<(), String>>()
            .map_err(|e| format!("kernel {}: {e}", self.id))
    }
}
