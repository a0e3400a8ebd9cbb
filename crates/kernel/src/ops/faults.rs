//! Fault tolerance for the ops engine, armed by
//! [`Kernel::enable_fault_injection`].
//!
//! A lossy NoC (see `semper_sim::faults`) breaks the engine's core
//! assumption that every request eventually produces exactly one reply.
//! This module hardens the pending-op ledger so that under any
//! `FaultPlan` every operation still **terminates**: it either completes
//! normally or aborts with a real `Err` — never a silent hang, never a
//! leaked ledger entry.
//!
//! Three mechanisms, all inert unless [`Kernel::enable_fault_injection`]
//! was called (so the default configuration stays bit-identical):
//!
//! * **Deadlines.** Every parked phase is armed with an expiry on the
//!   fault clock — the harness's step counter (`TestCluster::step`).
//!   [`Kernel::poll_faults`] first re-sends recorded idempotent
//!   request legs (bounded retries — revoke requests are safe to
//!   replay because re-revoking a deleted subtree is vacuous), then
//!   aborts the op: the ledger entry is reaped, held
//!   threads release, and whoever waits is woken with an error.
//! * **Peer death.** When the harness declares a kernel crashed
//!   ([`Kernel::peer_down`]), every in-flight op waiting on that peer
//!   aborts immediately, and queued requests towards it are dropped.
//! * **Anomaly absorption.** Duplicated messages produce replies for
//!   ops that already completed and duplicate fan-in completions.
//!   Outside fault mode these are hard bugs
//!   (panics, in every profile); under fault mode they are counted in
//!   `stats.fault_anomalies` and ignored.
//!
//! Abort is per-phase surgery, not a generic drop: a revocation that
//! already marked subtrees must still *sweep* them (leaving `Revoking`
//! marks behind would wedge every later operation that touches them).

use semper_base::msg::{KReply, Kcall};
use semper_base::{Code, DetHashMap, Error, KernelId, OpId};

use crate::kernel::Kernel;
use crate::ops::{exchange, revoke, session, PendingOp};
use crate::outbox::Outbox;

/// How many times an expired op re-sends its recorded request legs
/// before aborting.
const MAX_LEG_RETRIES: u32 = 2;

/// Recorded idempotent request legs of one pending op, re-sent when its
/// deadline expires.
#[derive(Debug, Default)]
pub(crate) struct RetryLegs {
    /// Deadline expiries spent on re-sending so far.
    attempts: u32,
    /// The legs: destination kernel and the exact request.
    legs: Vec<(KernelId, Kcall)>,
}

/// Per-kernel fault-tolerance state. Default-constructed (inert) unless
/// fault injection is enabled for the run.
#[derive(Debug, Default)]
pub struct FaultState {
    /// True once [`Kernel::enable_fault_injection`] ran.
    pub(crate) enabled: bool,
    /// Steps granted to each parked phase (0 = no deadlines).
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
    /// Expiry step per pending op.
    pub(crate) deadlines: DetHashMap<OpId, u64>,
    /// Re-sendable request legs per pending op.
    pub(crate) retry_legs: DetHashMap<OpId, RetryLegs>,
    /// Peer kernels declared dead by the harness.
    pub(crate) dead_peers: Vec<KernelId>,
}

impl Kernel {
    /// Switches this kernel into fault-tolerant operation: arms
    /// per-pending-op deadlines of `deadline_budget` steps and softens
    /// the duplicate-message asserts into counters. The harness must
    /// then advance the clock via [`Kernel::poll_faults`].
    pub fn enable_fault_injection(&mut self, deadline_budget: u64) {
        self.fault.enabled = true;
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

    /// Counts one absorbed protocol anomaly (duplicate or stray
    /// message). Outside fault mode the event is a hard bug, in every
    /// profile: a release kernel must not silently drop a reply that
    /// resumes nothing.
    pub(crate) fn fault_anomaly(&mut self, what: &str) {
        assert!(self.fault.enabled, "{what}");
        self.stats.fault_anomalies += 1;
    }

    /// Bookkeeping hook of [`Kernel::park`]: checks the crash script
    /// and arms the phase's deadline.
    pub(crate) fn note_parked(&mut self, op: OpId, phase: &'static str) {
        if !self.fault.crashed {
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
        if self.fault.deadline_budget > 0 {
            self.fault.deadlines.insert(op, self.fault.now + self.fault.deadline_budget);
        }
    }

    /// Records one idempotent request leg of `op` for deadline-driven
    /// re-sending. Only revoke requests are recorded: replaying them
    /// against an already-revoked subtree is vacuous at the receiver, so
    /// a retry recovers a *dropped request* without corrupting state (a
    /// duplicated *reply* is absorbed by the saturating fan-in).
    pub(crate) fn record_retry_leg(&mut self, op: OpId, peer: KernelId, call: &Kcall) {
        if !self.fault.enabled {
            return;
        }
        self.fault.retry_legs.entry(op).or_default().legs.push((peer, call.clone()));
    }

    /// Advances the fault clock and handles every expired deadline, in
    /// op-id order: ops with retry budget re-send their recorded legs
    /// (skipping dead peers) and re-arm; everything else aborts.
    pub fn poll_faults(&mut self, now: u64, out: &mut Outbox) {
        if !self.fault.enabled {
            return;
        }
        self.fault.now = now;
        if self.fault.deadlines.is_empty() {
            return;
        }
        let mut entries: Vec<(OpId, u64)> =
            self.fault.deadlines.iter().map(|(op, dl)| (*op, *dl)).collect();
        entries.sort_unstable();
        for (op, dl) in entries {
            if self.pending.get(op).is_none() {
                // The op completed since its deadline was armed; reap
                // the stale entries lazily (op ids are never reused).
                self.fault.deadlines.remove(&op);
                self.fault.retry_legs.remove(&op);
                continue;
            }
            if dl > now {
                continue;
            }
            let legs = match self.fault.retry_legs.get_mut(&op) {
                Some(r) if r.attempts < MAX_LEG_RETRIES => {
                    r.attempts += 1;
                    Some(r.legs.clone())
                }
                _ => None,
            };
            if let Some(legs) = legs {
                self.fault.deadlines.insert(op, now + self.fault.deadline_budget.max(1));
                for (peer, call) in legs {
                    if self.fault.dead_peers.contains(&peer) {
                        continue;
                    }
                    self.stats.retries += 1;
                    self.send_kcall(out, peer, call);
                }
            } else {
                self.fault.deadlines.remove(&op);
                self.fault.retry_legs.remove(&op);
                if let Some(state) = self.pending.remove(op) {
                    self.abort_op(state, out);
                }
            }
        }
    }

    /// Declares a peer kernel dead: drops queued requests towards it
    /// and aborts every pending op waiting on it (in op-id order, so
    /// the abort replies leave deterministically). The harness calls
    /// this on every surviving kernel when a scripted crash fires.
    pub fn peer_down(&mut self, dead: KernelId, out: &mut Outbox) {
        if !self.fault.enabled || self.fault.dead_peers.contains(&dead) {
            return;
        }
        self.fault.dead_peers.push(dead);
        // Requests stalled behind the credit gate towards the dead
        // kernel would never be consumed; their ops abort below.
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
            self.fault.retry_legs.remove(&op);
            // Aborting one op can complete others (waiter cascades);
            // re-check that this one is still parked.
            let Some(state) = self.pending.remove(op) else { continue };
            self.abort_op(state, out);
        }
    }

    /// The one peer kernel `state` cannot make progress without — written
    /// down once, for two readers. [`Kernel::peer_down`] aborts every
    /// phase whose kernel died; the reply router resumes a phase that
    /// awaits a kernel reply only for a reply from this kernel
    /// (membership is static and nothing is relayed, so the kernel that
    /// was asked is the only one that can answer). For the phases that
    /// await a local VPE's upcall answer on a remote caller's behalf it
    /// is that caller. `None` for phases waiting on local VPEs only or
    /// on a fan-in of many peers; those are covered by their deadline.
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
            PendingOp::Revoke(p) => match p {
                revoke::Phase::Batch { caller_kernel, .. } => Some(*caller_kernel),
                // A revoke fans out to many peers without
                // recording which legs are outstanding; its deadline
                // (with retries towards the survivors) covers it.
                revoke::Phase::Run(_) => None,
            },
        }
    }

    /// Aborts one pending op with per-phase surgery so the system stays
    /// consistent: waiters are woken, marked subtrees are swept, and
    /// reply obligations towards callers are met (with an error).
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
                // The receiver inserted (or will insert) the child; we
                // can no longer learn which. Fail the syscall and leave
                // the child as an orphan for the §4.3.2 cleanup.
                exchange::Phase::DelegateWaitDone { tag, delegator, .. } => {
                    self.stats.orphans_cleaned += 1;
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
            PendingOp::Revoke(phase) => match phase {
                // Completing with the legs that did answer is the only
                // consistent abort: marked subtrees must be swept
                // (stale `Revoking` marks would wedge every later
                // operation touching them) and dependents woken. The
                // unresponsive remote subtrees belong to a dead or
                // unreachable kernel — orphaned there, gone with it.
                revoke::Phase::Run(rop) => {
                    self.complete_revoke(rop, out);
                }
                // Report what the completed sub-revokes deleted.
                revoke::Phase::Batch { caller_op, caller_kernel, keys, fanin } => {
                    let reply = KReply::Revoke { op: caller_op, keys, deleted: fanin.tally() };
                    self.send_kreply(out, caller_kernel, reply);
                }
            },
        }
    }

    /// Asserts that the kernel reached true quiescence: no suspended
    /// operations, and every protocol's own state drained — no marked
    /// capability awaiting deletion, no request stalled behind the
    /// credit gate.
    /// The fault suites call this after every run — a leak here is
    /// exactly the silent hang the termination hardening exists to
    /// prevent.
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
