//! Partitioned parallel revocation sweeps
//! ([`Feature::ParallelSweep`](semper_base::config::Feature::ParallelSweep)).
//!
//! The classic protocol ([`super::revoke`]) drives a spanning
//! revocation as a chain of per-subtree requests: each remote child
//! becomes one `RevokeReq`, whose handler recursively fans out again.
//! A *dense* subtree spanning many kernels therefore pays one request
//! round trip per remote edge, serialised through the initiating
//! kernel's credit window — the adversarial chain of §5.2.
//!
//! This module is the GC-style alternative the paper's revocation
//! design invites (two cooperating phases over a partitioned heap): the
//! initiating kernel becomes the **coordinator** and drives the whole
//! revocation as a two-phase **mark → delete** protocol:
//!
//! 1. **Mark.** The coordinator marks its local region, then partitions
//!    the remote children *by owning kernel* and sends each owner one
//!    [`Kcall::SweepMarkReq`] covering its whole partition. Each
//!    participant marks its partition in one handler dispatch and
//!    replies with the *frontier* — remote children it encountered —
//!    which the coordinator regroups and forwards as the next round.
//!    Rounds touch only the kernels on the subtree's ownership
//!    boundary, so the partitions mark concurrently in sim time.
//! 2. **Delete.** When every mark round has completed and the
//!    coordinator's dependencies on concurrent revocations drained, it
//!    orders each participant to delete its partition
//!    ([`Kcall::SweepDeleteReq`]) — again one message and one batched
//!    deletion pass per partition — and deletes its own region. The
//!    shared [`FanIn`] collects the per-partition deletion counts.
//!
//! # Completeness (Table 2) and dependency deferral
//!
//! A revoke must never be acknowledged while part of its subtree
//! survives. The sweep preserves this the same way the classic
//! protocol does — the initiator is notified only after every
//! partition reported deletion — but *dependencies* need one extra
//! rule: an operation that found a sweep-marked capability waits in
//! `revoke_waiters` like before, yet a participant deleting its
//! partition must **not** fire those waiters locally. The capability's
//! descendants may live in other partitions that are still being
//! deleted; releasing a dependent early would let it acknowledge an
//! incomplete revocation. Participants therefore collect woken waiters
//! into their partition state and fire them only on the coordinator's
//! [`Kcall::SweepDoneNotice`], sent after the whole sweep completed.
//!
//! # Deadlock freedom
//!
//! Dependencies are only created when a mark walk finds a capability
//! another operation already marked. For single-root operations the
//! marked regions are contiguous subtree territories entered at their
//! topmost node, which gives the same acyclic ordering as the classic
//! protocol: an operation can depend only on operations rooted inside
//! its own subtree, which cannot depend back (their walks never reach
//! the outer root). Multi-root bulk runs fold their own overlaps via
//! the per-operation marked set, exactly as the classic coalesced path
//! does.

use semper_base::msg::{KReply, Kcall};
use semper_base::{DdlKey, DetHashSet, KernelId, OpId, RawDdlKey, VpeId};

use crate::kernel::Kernel;
use crate::ops::revoke::{Initiator, ReadyOp, RevokeOp};
use crate::ops::{Awaits, FanIn, PendingOp, PhaseSpec, Thread};
use crate::outbox::Outbox;

/// Minimum fan-out (remote children) at which a single-kernel-bound
/// revocation is still worth partitioning; any fan-out that spans two
/// or more kernels converts unconditionally.
pub(crate) const SWEEP_MIN_FANOUT: usize = 8;

/// One kernel's share of a sweep — the coordinator's own region or a
/// participant's partition: what it marked, and who waits on it.
#[derive(Debug, Clone, Default)]
pub struct Region {
    /// Roots of the marked local subtrees.
    pub roots: Vec<DdlKey>,
    /// Keys marked so far (folds later-round keys that land inside an
    /// already marked region — and keeps them from becoming
    /// self-dependencies).
    pub marked: DetHashSet<RawDdlKey>,
    /// Dependencies on concurrent revocations found by the mark walks;
    /// deletion waits until they drained.
    pub deps: u32,
    /// Waiters on capabilities this region deleted, deferred to sweep
    /// completion.
    pub woken: Vec<OpId>,
}

/// Coordinator state of a partitioned sweep.
#[derive(Debug, Clone)]
pub struct SweepOp {
    /// Who to notify when the whole sweep completed.
    pub initiator: Initiator,
    /// The coordinator's own marked region.
    pub region: Region,
    /// Mark requests (rounds × partitions) without a reply yet.
    pub marks_outstanding: u32,
    /// Delete-phase fan-in: one arm per participant, tallying deleted
    /// capabilities (including the coordinator's own region).
    pub fanin: FanIn,
    /// Participant kernels in first-contact order (delete orders and
    /// the completion notice walk this list).
    pub participants: Vec<KernelId>,
    /// Frontier-expansion rounds run so far (statistics: sweep depth).
    pub rounds: u64,
}

/// Participant state: one kernel's partition of a remote sweep.
#[derive(Debug, Clone)]
pub struct SweepPart {
    /// The coordinating kernel.
    pub caller: KernelId,
    /// The coordinator's correlation id (identifies the sweep).
    pub caller_op: OpId,
    /// The partition's marked region; its waiters are released by the
    /// coordinator's done notice.
    pub region: Region,
    /// True once the coordinator ordered deletion.
    pub delete_requested: bool,
    /// True once the partition was deleted (awaiting the done notice).
    pub swept: bool,
}

/// The sweep protocol's phase table.
#[derive(Debug, Clone)]
pub enum Phase {
    /// Coordinator, mark phase: awaiting mark replies and dependency
    /// drains.
    Coordinate(SweepOp),
    /// Coordinator, delete phase: awaiting per-partition delete
    /// replies.
    Collect(SweepOp),
    /// Participant: one partition, alive from the first mark request
    /// until the done notice.
    Partition(SweepPart),
}

impl Phase {
    /// The declared spec of each phase.
    pub fn spec(&self) -> &'static PhaseSpec {
        match self {
            Phase::Coordinate(_) => &PhaseSpec {
                name: "sweep-mark",
                awaits: Awaits::FanIn,
                thread: Thread::PerInitiator,
            },
            Phase::Collect(_) => &PhaseSpec {
                name: "sweep-delete",
                awaits: Awaits::FanIn,
                thread: Thread::PerInitiator,
            },
            Phase::Partition(_) => {
                &PhaseSpec { name: "sweep-part", awaits: Awaits::FanIn, thread: Thread::Free }
            }
        }
    }

    /// True if resuming this phase would touch `vpe`'s capability
    /// group (see [`crate::ops::PendingOp::references_vpe`]). Marked
    /// subtree members are also caught by the migration start's table
    /// validation (`revoking()`); this covers the initiator and the
    /// recorded roots.
    pub fn references_vpe(&self, vpe: VpeId) -> bool {
        let roots = |r: &Region| r.roots.iter().any(|k| k.vpe() == vpe);
        match self {
            Phase::Coordinate(s) | Phase::Collect(s) => {
                s.initiator.references_vpe(vpe) || roots(&s.region)
            }
            Phase::Partition(p) => roots(&p.region),
        }
    }
}

fn coordinating(p: &PendingOp) -> bool {
    matches!(p, PendingOp::Sweep(Phase::Coordinate(_)))
}

impl Kernel {
    /// Converts a freshly marked revocation into a partitioned sweep:
    /// the local mark is done, `remote` holds the round-0 frontier, and
    /// the revoke's fan-in carries only dependency arms (no requests
    /// were sent). Groups the frontier by owning kernel, fires one mark
    /// request per partition, and parks as coordinator.
    pub(crate) fn start_sweep(
        &mut self,
        op_id: OpId,
        rop: RevokeOp,
        remote: &mut Vec<DdlKey>,
        marked: DetHashSet<RawDdlKey>,
        out: &mut Outbox,
    ) -> u64 {
        debug_assert_eq!(rop.fanin.tally(), 0, "no completions before conversion");
        self.stats.sweeps += 1;
        let mut s = SweepOp {
            initiator: rop.initiator,
            region: Region {
                roots: rop.local_roots,
                marked,
                deps: rop.fanin.outstanding(),
                woken: Vec::new(),
            },
            marks_outstanding: 0,
            fanin: FanIn::new(),
            participants: Vec::new(),
            rounds: 0,
        };
        let cost = self.sweep_expand(op_id, &mut s, remote, out);
        self.park(op_id, PendingOp::Sweep(Phase::Coordinate(s)));
        cost + self.cfg.cost.thread_switch
    }

    /// Marks one round's `keys` into `region` on behalf of `waiter`;
    /// children owned elsewhere land in `foreign`.
    fn sweep_mark_round(
        &mut self,
        waiter: OpId,
        keys: &[DdlKey],
        region: &mut Region,
        foreign: &mut Vec<DdlKey>,
    ) -> u64 {
        let mut cost = 0;
        for &root in keys {
            let Ok(cap) = self.mapdb.get(root) else {
                cost += self.ref_cost();
                if self.membership.kernel_of_key(root) != self.id {
                    // The root's group migrated away after the
                    // coordinator partitioned its frontier: report it
                    // back as next-round frontier so the coordinator
                    // regroups it to the current owner.
                    foreign.push(root);
                }
                // Otherwise already deleted by a concurrent operation
                // that completed: vacuous.
                continue;
            };
            if cap.revoking() {
                cost += self.ref_cost();
                // A later round landed inside an already marked part of
                // this same region, or a concurrent revocation owns the
                // subtree: deletion waits for the capability to go.
                if !region.marked.contains(&root.raw()) {
                    self.revoke.wait_for(root, waiter);
                    region.deps += 1;
                }
                continue;
            }
            let (c, deps) = self.mark_subtree(root, waiter, Some(&mut region.marked), foreign);
            cost += c;
            region.deps += deps;
            region.roots.push(root);
        }
        cost
    }

    /// Deletes a region's marked subtrees in one pass; waiters on the
    /// deleted capabilities are deferred into the region (parts of
    /// their subtrees may live in partitions that are still being
    /// deleted). Returns the modeled cost and the deletion count.
    fn sweep_delete_region(&mut self, region: &mut Region) -> (u64, u64) {
        region.marked.clear();
        self.delete_marked(std::mem::take(&mut region.roots), &mut region.woken)
    }

    /// Request handler for [`Kcall::SweepMarkReq`]: marks the partition
    /// extension rooted at `cap_keys` in one dispatch and replies with
    /// the frontier of remote children. The partition op is created on
    /// first contact and lives until the done notice.
    pub(crate) fn sweep_mark_request(
        &mut self,
        from: KernelId,
        caller_op: OpId,
        cap_keys: &[DdlKey],
        out: &mut Outbox,
    ) -> u64 {
        let local = match self.revoke.sweep_parts.get(&(from, caller_op)) {
            Some(&id) => id,
            None => {
                let id = self.alloc_op();
                self.revoke.sweep_parts.insert((from, caller_op), id);
                self.park(
                    id,
                    PendingOp::Sweep(Phase::Partition(SweepPart {
                        caller: from,
                        caller_op,
                        region: Region::default(),
                        delete_requested: false,
                        swept: false,
                    })),
                );
                id
            }
        };
        // Take the partition out of the ledger for the walk (which
        // borrows the kernel mutably); reinserted below.
        let Some(PendingOp::Sweep(Phase::Partition(mut part))) = self.pending.remove(local) else {
            unreachable!("sweep_parts points at a partition");
        };
        let before = part.region.marked.len();
        let mut frontier = Vec::new();
        let cost = self.cfg.cost.sweep_key * cap_keys.len() as u64
            + self.sweep_mark_round(local, cap_keys, &mut part.region, &mut frontier);
        let marked = (part.region.marked.len() - before) as u64;
        self.pending.insert(local, PendingOp::Sweep(Phase::Partition(part)));
        self.send_kreply(out, from, KReply::SweepMark { op: caller_op, marked, frontier });
        cost + self.cfg.cost.kcall_exit
    }

    /// Completion handler for [`KReply::SweepMark`]: regroups the
    /// reported frontier into the next mark round; when the last mark
    /// reply arrived and no dependencies are pending, deletion begins.
    pub(crate) fn sweep_mark_reply(
        &mut self,
        op: OpId,
        frontier: &[DdlKey],
        out: &mut Outbox,
    ) -> u64 {
        let Some(PendingOp::Sweep(Phase::Coordinate(mut s))) =
            self.pending.remove_if(op, coordinating)
        else {
            self.fault_anomaly(&format!("mark reply for unknown sweep {op}"));
            return 0;
        };
        // Saturating: a fault-forced abort zeroes the counter while
        // straggler replies are still in flight.
        s.marks_outstanding = s.marks_outstanding.saturating_sub(1);
        let mut cost = 0;
        if !frontier.is_empty() {
            s.rounds += 1;
            cost += self.cfg.cost.sweep_round;
            cost += self.sweep_expand(op, &mut s, &mut frontier.to_vec(), out);
        }
        let mark_done = s.marks_outstanding == 0 && s.region.deps == 0;
        self.pending.insert(op, PendingOp::Sweep(Phase::Coordinate(s)));
        if mark_done {
            cost += self.run_ready(vec![ReadyOp::SweepCoord(op)], out);
        }
        cost
    }

    /// Expands one frontier (draining `work`): keys owned by other
    /// kernels extend their partitions (one grouped request each, arming
    /// the mark counter and recording first-time participants); keys
    /// that bounced back to the coordinator are marked locally, and any
    /// remote children *they* expose feed the next iteration.
    fn sweep_expand(
        &mut self,
        op: OpId,
        s: &mut SweepOp,
        work: &mut Vec<DdlKey>,
        out: &mut Outbox,
    ) -> u64 {
        let mut cost = 0;
        loop {
            let mut by_kernel = self.group_by_owner(work.drain(..));
            let local_keys = by_kernel.remove(&self.id).unwrap_or_default();
            // One grouped mark request per partition.
            for (k, cap_keys) in by_kernel {
                self.stats.sweep_fanout += cap_keys.len() as u64;
                s.marks_outstanding += 1;
                if !s.participants.contains(&k) {
                    s.participants.push(k);
                    self.stats.sweep_partitions += 1;
                }
                cost += self.cfg.cost.kcall_exit + self.cfg.cost.sweep_key * cap_keys.len() as u64;
                self.send_kcall(out, k, Kcall::SweepMarkReq { op, cap_keys });
            }
            cost += self.sweep_mark_round(op, &local_keys, &mut s.region, work);
            if work.is_empty() {
                return cost;
            }
            // The local walk exposed further remote children: another
            // regrouping round.
            s.rounds += 1;
            cost += self.cfg.cost.sweep_round;
        }
    }

    /// The coordinator's delete step (runs off the ready worklist once
    /// marking finished and dependencies drained): deletes the local
    /// region in one batched pass and orders every participant to
    /// delete its partition.
    pub(crate) fn sweep_begin_delete(&mut self, op: OpId, out: &mut Outbox) -> u64 {
        let Some(PendingOp::Sweep(Phase::Coordinate(mut s))) =
            self.pending.remove_if(op, coordinating)
        else {
            self.fault_anomaly(&format!("delete step for unknown sweep {op}"));
            return 0;
        };
        debug_assert!(s.marks_outstanding == 0 && s.region.deps == 0);
        if s.rounds > self.stats.sweep_depth {
            self.stats.sweep_depth = s.rounds;
        }
        let (mut cost, deleted) = self.sweep_delete_region(&mut s.region);
        s.fanin.add(deleted);
        for i in 0..s.participants.len() {
            let k = s.participants[i];
            s.fanin.arm();
            cost += self.cfg.cost.kcall_exit;
            let call = Kcall::SweepDeleteReq { op };
            self.record_retry_leg(op, k, &call);
            self.send_kcall(out, k, call);
        }
        debug_assert!(!s.fanin.idle(), "a sweep always has participants");
        self.park(op, PendingOp::Sweep(Phase::Collect(s)));
        cost
    }

    /// Request handler for [`Kcall::SweepDeleteReq`]: deletes the
    /// partition immediately, or once its dependencies drain.
    pub(crate) fn sweep_delete_request(
        &mut self,
        from: KernelId,
        caller_op: OpId,
        out: &mut Outbox,
    ) -> u64 {
        let Some(&local) = self.revoke.sweep_parts.get(&(from, caller_op)) else {
            // Under fault injection: the partition already retired (or
            // aborted) and this order is a straggler or duplicate.
            self.fault_anomaly(&format!("delete order for unknown sweep ({from}, {caller_op})"));
            return 0;
        };
        let Some(PendingOp::Sweep(Phase::Partition(p))) = self.pending.get_mut(local) else {
            unreachable!("sweep_parts points at a partition");
        };
        let (dup, swept, ready_now) = (p.delete_requested, p.swept, p.region.deps == 0);
        p.delete_requested = true;
        if dup {
            // A re-sent delete order (coordinator deadline retry, or a
            // NoC duplicate). If the partition already swept, the
            // original reply was lost: resend it — the deletion count
            // travelled with the first reply, so this one reports 0.
            // Otherwise the first order is still working; ignore.
            self.fault_anomaly(&format!("duplicate delete order for sweep ({from}, {caller_op})"));
            if swept {
                self.send_kreply(out, from, KReply::SweepDelete { op: caller_op, deleted: 0 });
                return self.cfg.cost.kcall_exit;
            }
            return 0;
        }
        if ready_now {
            self.run_ready(vec![ReadyOp::SweepPart(local)], out)
        } else {
            0
        }
    }

    /// Deletes one partition in a single batched pass and reports the
    /// count to the coordinator. Woken waiters stay deferred in the
    /// partition (fired on the done notice); the partition op stays
    /// parked until then.
    pub(crate) fn sweep_part_finish(&mut self, local: OpId, out: &mut Outbox) -> u64 {
        let Some(PendingOp::Sweep(Phase::Partition(mut p))) =
            self.pending.remove_if(local, |p| matches!(p, PendingOp::Sweep(Phase::Partition(_))))
        else {
            self.fault_anomaly(&format!("partition delete for unknown op {local}"));
            return 0;
        };
        debug_assert!(p.delete_requested && p.region.deps == 0);
        let cost = if p.swept {
            // A second trigger after sweeping (only reachable with
            // fault-forced wakes); the first pass did the work.
            self.fault_anomaly(&format!("partition {local} deleted twice"));
            0
        } else {
            let (cost, deleted) = self.sweep_delete_region(&mut p.region);
            p.swept = true;
            self.send_kreply(out, p.caller, KReply::SweepDelete { op: p.caller_op, deleted });
            cost + self.cfg.cost.kcall_exit + self.cfg.cost.revoke_finish
        };
        self.pending.insert(local, PendingOp::Sweep(Phase::Partition(p)));
        cost
    }

    /// Completion handler for [`KReply::SweepDelete`]: collects the
    /// per-partition counts; when the last partition reported, the
    /// subtree is gone and the sweep closes.
    pub(crate) fn sweep_delete_reply(&mut self, op: OpId, deleted: u64, out: &mut Outbox) -> u64 {
        let Some(PendingOp::Sweep(Phase::Collect(s))) = self.pending.get_mut(op) else {
            // Under fault injection: a duplicated reply, or a
            // straggler for a sweep that already closed.
            self.fault_anomaly(&format!("delete reply for unknown sweep {op}"));
            return 0;
        };
        if !s.fanin.complete_one(deleted) {
            return 0;
        }
        let Some(PendingOp::Sweep(Phase::Collect(s))) = self.pending.remove(op) else {
            unreachable!("checked above");
        };
        self.sweep_close(op, s, out)
    }

    /// Closes a sweep with the counts that arrived: notifies the
    /// initiator, tells every (surviving) participant to release its
    /// deferred waiters, and fires the coordinator's own. Also the
    /// fault engine's abort for a sweep whose partitions stopped
    /// reporting.
    pub(crate) fn sweep_close(&mut self, op: OpId, s: SweepOp, out: &mut Outbox) -> u64 {
        let mut cost = self.cfg.cost.revoke_finish;
        for &k in &s.participants {
            if self.fault.dead_peers.contains(&k) {
                continue;
            }
            cost += self.cfg.cost.kcall_exit;
            self.send_kcall(out, k, Kcall::SweepDoneNotice { op });
        }
        self.notify_initiator(s.initiator, true, s.fanin.tally(), out);
        cost + self.wake_all(s.region.woken, out)
    }

    /// Request handler for [`Kcall::SweepDoneNotice`]: the whole sweep
    /// completed; retire the partition and fire its deferred waiters.
    pub(crate) fn sweep_done_notice(
        &mut self,
        from: KernelId,
        caller_op: OpId,
        out: &mut Outbox,
    ) -> u64 {
        let Some(local) = self.revoke.sweep_parts.remove(&(from, caller_op)) else {
            // Under fault injection: the partition already retired (or
            // aborted), and this notice is a straggler or duplicate.
            self.fault_anomaly(&format!("done notice for unknown sweep ({from}, {caller_op})"));
            return 0;
        };
        let Some(PendingOp::Sweep(Phase::Partition(p))) = self.pending.remove(local) else {
            unreachable!("sweep_parts points at a partition");
        };
        if !p.swept {
            // Fault mode: the coordinator gave up on this partition's
            // delete reply (abort broadcast its done notices early).
            // Force-retire the partition so its marks don't leak.
            self.fault_anomaly(&format!(
                "done notice before partition ({from}, {caller_op}) was deleted"
            ));
            return self.abort_sweep_partition(p, out);
        }
        self.wake_all(p.region.woken, out)
    }

    /// Force-retires one sweep partition without its coordinator:
    /// deletes the marked subtrees (the partition's territory) and
    /// wakes both its deferred waiters and anything waiting on the
    /// deleted capabilities. Shared by the fault engine's partition
    /// abort and the late-done-notice anomaly path.
    pub(crate) fn abort_sweep_partition(&mut self, mut p: SweepPart, out: &mut Outbox) -> u64 {
        let (cost, _) = self.sweep_delete_region(&mut p.region);
        cost + self.cfg.cost.revoke_finish + self.wake_all(p.region.woken, out)
    }
}
