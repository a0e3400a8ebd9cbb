//! Revocation on the op engine: two-phase mark-and-sweep (§4.3.3,
//! Algorithm 1).
//!
//! Phase 1 (*mark*) walks the local part of the capability subtree,
//! marking every capability `Revoking` and firing one inter-kernel
//! revoke request per remote child. Phase 2 (*sweep*) runs when the
//! operation's [`FanIn`] drains: the marked subtrees are deleted, and
//! only then is the initiator notified — a revoke is never acknowledged
//! while any part of its subtree survives (ruling out the *incomplete*
//! case of Table 2).
//!
//! Two kinds of completions are armed on the fan-in:
//!
//! * replies to inter-kernel revoke requests for remote children, and
//! * *dependencies* on concurrently running revocations: when the mark
//!   phase encounters a capability that is already `Revoking`, the
//!   running operation owns that subtree; the new operation registers as
//!   a waiter and completes only after the capability is actually
//!   deleted. This is how overlapping revokes serialize without ever
//!   acknowledging early.
//!
//! The dependency graph is therefore acyclic — no deadlock (the property
//! the paper's multithreading design establishes; our event-driven
//! kernel inherits it): a revocation waits only for one rooted strictly
//! below its root — a remote child's, or one that marked a capability
//! below the root first — or for one that marked its root before it
//! started, in which case it marks nothing below that root, so nothing
//! waits for it there.
//!
//! Revocations triggered by applications can bounce between kernels (the
//! adversarial cross-kernel *chain* of §5.2); each bounce is a fresh
//! request handled without blocking, so kernels stay responsive — the
//! analogue of the paper's two-revocation-threads bound.

use semper_base::config::Feature;
use semper_base::msg::{KReply, Kcall, SysReplyData};
use std::collections::BTreeMap;

use semper_base::{
    CapSel, Code, DdlKey, DetHashMap, Error, KernelId, OpId, RawDdlKey, Result, VpeId,
};
use semper_caps::Capability;

use crate::kernel::Kernel;
use crate::ops::{FanIn, PendingOp, PhaseSpec, Thread};
use crate::outbox::Outbox;

/// Kernel-wide state of the revocation protocol: the waiter registry,
/// the outstanding legs, plus reusable host-side work buffers.
///
/// A dense teardown runs thousands of mark walks and delete passes back
/// to back; allocating a fresh stack, deletion list, and remote-child
/// list for each of them dominated the *host* wall clock of the
/// `dense_table_teardown` benchmark without changing any modeled cycle.
/// The buffers are taken around each use (`std::mem::take`) and
/// restored empty; every use asserts that it found them so.
#[derive(Debug, Default)]
pub(crate) struct RevokeState {
    /// Operations waiting for a capability another operation is already
    /// revoking: packed key → waiting op ids, in registration order.
    waiters: DetHashMap<RawDdlKey, Vec<OpId>>,
    /// Revoke requests still unanswered, per revocation and the kernel
    /// each went to. A reply is accepted only against one of these, and
    /// a kernel's death completes its own. The map keeps its capacity,
    /// so steady state allocates nothing.
    legs: DetHashMap<(OpId, KernelId), u32>,
    /// DFS stack shared by mark and delete walks.
    stack: Vec<DdlKey>,
    /// Deleted capabilities of one delete pass.
    deleted: Vec<Capability>,
    /// Remote children collected by one mark phase.
    remote: Vec<DdlKey>,
}

impl RevokeState {
    /// Nothing marked is left waiting to be deleted.
    pub(crate) fn quiescent(&self) -> core::result::Result<(), String> {
        if !self.waiters.is_empty() {
            return Err(format!("{} revoke-waiter entries at quiescence", self.waiters.len()));
        }
        if !self.legs.is_empty() {
            return Err(format!("{} revoke legs outstanding at quiescence", self.legs.len()));
        }
        Ok(())
    }
}

/// Who started a revocation, and therefore who must be notified when it
/// completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Initiator {
    /// A local VPE's revoke system call.
    Syscall {
        /// The calling VPE.
        vpe: VpeId,
        /// Tag to echo in the reply.
        tag: u64,
    },
    /// Another kernel's [`Kcall::RevokeReq`].
    Kcall {
        /// The requester's correlation id, echoed in the reply.
        op: OpId,
        /// The requesting kernel.
        from: KernelId,
    },
    /// Kernel-internal cleanup (VPE exit); nobody to notify.
    Internal,
    /// One entry of a batched revoke request; completion is reported to
    /// the batch tracker op instead of a kernel.
    Batch {
        /// The local batch-tracker operation.
        batch: OpId,
    },
}

impl Initiator {
    /// True if the revocation runs on the starter's cooperative thread
    /// (§4.2): syscalls and internal cleanup hold the calling thread,
    /// while incoming requests are thread-free.
    pub fn holds_thread(&self) -> bool {
        matches!(self, Initiator::Syscall { .. } | Initiator::Internal)
    }
}

/// A revocation in progress (Algorithm 1 state).
#[derive(Debug, Clone)]
pub struct RevokeOp {
    /// Who to notify on completion.
    pub initiator: Initiator,
    /// Outstanding completions (inter-kernel revoke replies, whose
    /// kernels `RevokeState` records, plus dependencies on concurrent
    /// revokes), tallying capabilities deleted on behalf of this
    /// operation.
    pub fanin: FanIn,
    /// Roots of locally marked subtrees to sweep in phase 2.
    pub local_roots: Vec<DdlKey>,
    /// True if any inter-kernel call was needed (statistics:
    /// local vs spanning revoke).
    pub spanning: bool,
}

/// The revocation protocol's phase table.
#[derive(Debug, Clone)]
pub enum Phase {
    /// A revocation awaiting its fan-in (remote completions and
    /// concurrent-revoke dependencies).
    Run(RevokeOp),
    /// Tracker for an incoming batched revoke request: replies to the
    /// requesting kernel once every key in the batch is fully revoked.
    Batch {
        /// The requester's correlation id.
        caller_op: OpId,
        /// The requesting kernel.
        caller_kernel: KernelId,
        /// Number of keys the request named.
        keys: u32,
        /// Sub-revokes still running, tallying deletions across the
        /// batch.
        fanin: FanIn,
    },
}

impl Phase {
    /// The declared spec of each phase.
    pub fn spec(&self) -> &'static PhaseSpec {
        match self {
            Phase::Run(_) => &PhaseSpec { name: "revoke-run", thread: Thread::PerInitiator },
            Phase::Batch { .. } => &PhaseSpec { name: "revoke-batch", thread: Thread::Free },
        }
    }
}

impl Kernel {
    /// Entry point for the `Revoke` system call (local start).
    pub(crate) fn sys_revoke(
        &mut self,
        vpe: VpeId,
        tag: u64,
        sel: CapSel,
        own: bool,
        out: &mut Outbox,
    ) -> u64 {
        // Target resolution is folded into the per-capability reference
        // costs charged by the mark phase.
        let resolve = 0;
        let roots = match self.revoke_roots(vpe, sel, own) {
            Ok(r) => r,
            Err(e) => {
                self.reply_sys(out, vpe, tag, Err(e));
                return resolve + self.cfg.cost.syscall_exit;
            }
        };
        if roots.is_empty() {
            // Revoking the children of a childless capability: done.
            self.stats.revokes_local += 1;
            self.reply_sys(out, vpe, tag, Ok(SysReplyData::None));
            return resolve + self.cfg.cost.syscall_exit;
        }
        resolve + self.start_revoke(roots, Initiator::Syscall { vpe, tag }, out)
    }

    /// Resolves the subtree roots of a revoke call: the capability itself
    /// (`own = true`) or each of its children (`own = false`).
    fn revoke_roots(&self, vpe: VpeId, sel: CapSel, own: bool) -> Result<Vec<DdlKey>> {
        let key = self.table(vpe).ok_or(Error::new(Code::NoSuchVpe))?.get(sel)?;
        if own {
            return Ok(vec![key]);
        }
        self.mapdb.get(key)?;
        Ok(self.mapdb.children(key).collect())
    }

    /// Revocation for VPE exit: one root at a time; the table entry may
    /// already be gone if an earlier root's subtree covered it.
    pub(crate) fn revoke_for_exit(&mut self, vpe: VpeId, sel: CapSel, out: &mut Outbox) -> u64 {
        let Some(table) = self.table(vpe) else { return 0 };
        let Ok(key) = table.get(sel) else { return 0 };
        if !self.mapdb.contains(key) {
            // Deleted by a previous root's sweep; drop the stale binding.
            if let Some(t) = self.table_mut(vpe) {
                t.remove(sel);
            }
            return 0;
        }
        self.start_revoke(vec![key], Initiator::Internal, out)
    }

    /// Phase 1 (mark) for a set of subtree roots; completes immediately
    /// if the fan-in stays idle (no remote children, no dependencies).
    pub(crate) fn start_revoke(
        &mut self,
        roots: Vec<DdlKey>,
        initiator: Initiator,
        out: &mut Outbox,
    ) -> u64 {
        let op_id = self.alloc_op();
        // The roots are disjoint: one capability, or the children of one.
        let mut op =
            RevokeOp { initiator, fanin: FanIn::new(), local_roots: Vec::new(), spanning: false };
        let mut cost = 0;
        let mut remote = std::mem::take(&mut self.revoke.remote);
        assert!(remote.is_empty(), "remote-child buffer not drained");

        for root in roots {
            let Ok(cap) = self.mapdb.get(root) else {
                // A child another kernel owns is revoked there, like one
                // the mark walk meets. A missing root of ours is already
                // revoked and deleted — vacuously complete.
                if self.membership.kernel_of_key(root) != self.id {
                    remote.push(root);
                }
                continue;
            };
            if cap.revoking() {
                self.wait_for(root, op_id, &mut op);
                continue;
            }
            cost += self.mark_subtree(root, op_id, &mut op, &mut remote);
            op.local_roots.push(root);
        }

        if !remote.is_empty() {
            op.spanning = true;
            cost += self.send_revoke_requests(op_id, &mut op, &mut remote, out);
        }

        self.revoke.remote = remote;

        if op.fanin.idle() {
            cost + self.complete_revoke(op, out)
        } else {
            self.park(op_id, PendingOp::Revoke(Phase::Run(op)));
            cost + self.cfg.cost.thread_switch
        }
    }

    /// Makes revocation `op_id` wait for the deletion of `key`, which a
    /// running revocation marked: one dependency on `op`'s fan-in.
    fn wait_for(&mut self, key: DdlKey, op_id: OpId, op: &mut RevokeOp) {
        self.revoke.waiters.entry(key.raw()).or_default().push(op_id);
        op.fanin.arm();
    }

    /// The one mark walk (Algorithm 1, phase 1): depth-first over the
    /// local subtree under `root`, which is present and not yet
    /// revoking, for operation `op_id`. Children owned by other kernels
    /// are appended to `foreign`. A `Revoking` capability the walk meets
    /// belongs to a running revocation and is waited for: `op_id` is
    /// registered for its deletion and counted as a dependency on
    /// `op`'s fan-in. Returns the modeled cost.
    fn mark_subtree(
        &mut self,
        root: DdlKey,
        op_id: OpId,
        op: &mut RevokeOp,
        foreign: &mut Vec<DdlKey>,
    ) -> u64 {
        let mut cost = 0;
        let mut stack = std::mem::take(&mut self.revoke.stack);
        assert!(stack.is_empty(), "walk stack not drained");
        stack.push(root);
        while let Some(key) = stack.pop() {
            let Ok(cap) = self.mapdb.get(key) else {
                // Not ours: a remote child — one reference to classify it.
                cost += self.ref_cost();
                foreign.push(key);
                continue;
            };
            // Following the parent link and scanning the child list are
            // two capability references per visited local node.
            cost += 2 * self.ref_cost();
            if cap.revoking() {
                self.wait_for(key, op_id, op);
                continue;
            }
            for child in self.mapdb.children(key).rev() {
                stack.push(child);
            }
            self.mapdb.mark_revoking(key).expect("present");
            cost += self.cfg.cost.revoke_mark;
        }
        self.revoke.stack = stack;
        cost
    }

    /// Sends revoke requests for remote children — one message per child,
    /// or one batch per kernel when [`Feature::RevokeBatching`] is on
    /// (the optimisation §5.2 proposes) — and records each as a leg
    /// towards its kernel. A child at a dead kernel died with it: no
    /// request goes there.
    fn send_revoke_requests(
        &mut self,
        op_id: OpId,
        op: &mut RevokeOp,
        remote: &mut Vec<DdlKey>,
        out: &mut Outbox,
    ) -> u64 {
        let mut cost = 0;
        if self.cfg.has_feature(Feature::RevokeBatching) {
            // Ascending kernel id, arrival order within a group.
            let mut by_kernel: BTreeMap<KernelId, Vec<DdlKey>> = BTreeMap::new();
            for key in remote.drain(..) {
                let k = self.membership.kernel_of_key(key);
                if !self.peer_dead(k) {
                    by_kernel.entry(k).or_default().push(key);
                }
            }
            for (k, cap_keys) in by_kernel {
                self.arm_leg(op_id, op, k);
                cost += self.cfg.cost.kcall_exit;
                self.send_kcall(out, k, Kcall::RevokeBatchReq { op: op_id, cap_keys });
            }
        } else {
            for cap_key in remote.drain(..) {
                let k = self.membership.kernel_of_key(cap_key);
                if self.peer_dead(k) {
                    continue;
                }
                self.arm_leg(op_id, op, k);
                // Marshalling one revoke request: compose the message,
                // inject it through the DTU, and record the outstanding
                // entry. Requests are pipelined: each leaves as the loop
                // reaches it, so remote kernels overlap with the rest of
                // the fan-out.
                cost +=
                    self.cfg.cost.kcall_exit + self.cfg.cost.revoke_mark + self.cfg.cost.dtu_send;
                self.send_kcall_at(out, k, Kcall::RevokeReq { op: op_id, cap_key }, Some(cost));
            }
        }
        cost
    }

    /// Arms one completion of `op`'s fan-in for a request to kernel `k`.
    fn arm_leg(&mut self, op_id: OpId, op: &mut RevokeOp, k: KernelId) {
        op.fanin.arm();
        *self.revoke.legs.entry((op_id, k)).or_insert(0) += 1;
    }

    /// Phase 2: sweep the marked local subtrees, fire waiters, notify the
    /// initiator. Completion of waiters can cascade; a worklist keeps the
    /// recursion bounded.
    fn complete_revoke(&mut self, op: RevokeOp, out: &mut Outbox) -> u64 {
        // Each step may push woken dependents whose fan-in drained.
        let mut ready = vec![op];
        let mut cost = 0;
        while let Some(op) = ready.pop() {
            cost += self.finish_one_revoke(op, &mut ready, out);
        }
        cost
    }

    /// Deletes one revocation's marked subtrees, notifies the
    /// initiator, and queues woken waiters.
    fn finish_one_revoke(
        &mut self,
        mut op: RevokeOp,
        ready: &mut Vec<RevokeOp>,
        out: &mut Outbox,
    ) -> u64 {
        let mut woken = Vec::new();
        let (cost, deleted) = self.delete_marked(std::mem::take(&mut op.local_roots), &mut woken);
        op.fanin.add(deleted);
        self.notify_initiator(op.initiator, op.spanning, op.fanin.tally(), out);
        for waiter in woken {
            self.wake_waiter(waiter, ready);
        }
        cost + self.cfg.cost.revoke_finish
    }

    /// The one delete pass (Algorithm 1, phase 2): deletes the marked
    /// subtrees under `roots` and processes the deleted capabilities in
    /// one batch — per-capability cost and endpoint invalidation,
    /// waiter collection, and the owners' table bindings removed with
    /// **one table lookup per run of consecutive same-owner
    /// capabilities** (a dense teardown of thousands of same-table
    /// capabilities collapses into a handful of lookups). Operations
    /// waiting on a deleted capability are appended to `woken` for the
    /// caller to fire. Returns the modeled cost and the number of
    /// capabilities deleted.
    fn delete_marked(&mut self, roots: Vec<DdlKey>, woken: &mut Vec<OpId>) -> (u64, u64) {
        let mut stack = std::mem::take(&mut self.revoke.stack);
        let mut deleted = std::mem::take(&mut self.revoke.deleted);
        assert!(deleted.is_empty(), "deletion buffer not drained");
        for root in roots {
            self.mapdb.delete_local_subtree_into(root, &mut stack, &mut deleted);
        }
        let mut cost = 0;
        for cap in deleted.iter() {
            self.stats.caps_deleted += 1;
            // Each deletion resolves the owner's table binding and the
            // parent unlink through DDL keys, and deconfigures any DTU
            // endpoint activated for the capability — the step that
            // severs hardware access.
            cost += self.cfg.cost.revoke_delete + 2 * self.ref_cost();
            cost += self.invalidate_eps_for(cap.key);
            // Wake operations waiting for this capability.
            if let Some(ws) = self.revoke.waiters.remove(&cap.key.raw()) {
                woken.extend(ws);
            }
        }
        // Remove the owners' table bindings, grouped by run.
        let mut i = 0;
        while i < deleted.len() {
            let owner = deleted[i].owner;
            let mut table = self.table_mut(owner);
            while i < deleted.len() && deleted[i].owner == owner {
                if let Some(t) = table.as_deref_mut() {
                    t.remove_key(deleted[i].key);
                }
                i += 1;
            }
        }
        let count = deleted.len() as u64;
        deleted.clear();
        self.revoke.stack = stack;
        self.revoke.deleted = deleted;
        (cost, count)
    }

    /// Resolves one woken waiter: its fan-in completes one dependency,
    /// and an operation whose last wait drained is pushed onto the
    /// ready worklist.
    fn wake_waiter(&mut self, waiter: OpId, ready: &mut Vec<RevokeOp>) {
        match self.pending.get_mut(waiter) {
            Some(PendingOp::Revoke(Phase::Run(wop))) => {
                if wop.fanin.complete_one(0) {
                    let Some(PendingOp::Revoke(Phase::Run(wop))) = self.pending.remove(waiter)
                    else {
                        unreachable!("checked above");
                    };
                    ready.push(wop);
                }
            }
            _ => panic!("waiter {waiter} is not a pending revoke"),
        }
    }

    /// Notifies whoever started a revocation (Algorithm 1, lines
    /// 19-23).
    fn notify_initiator(
        &mut self,
        initiator: Initiator,
        spanning: bool,
        deleted: u64,
        out: &mut Outbox,
    ) {
        // Only top-level revocations count as capability operations;
        // kcall- and batch-initiated sub-revokes are part of a revoke
        // already counted at the initiating kernel.
        let revokes = match &initiator {
            Initiator::Syscall { .. } | Initiator::Internal => 1,
            Initiator::Kcall { .. } | Initiator::Batch { .. } => 0,
        };
        if spanning {
            self.stats.revokes_spanning += revokes;
        } else {
            self.stats.revokes_local += revokes;
        }
        match initiator {
            Initiator::Syscall { vpe, tag } => {
                self.reply_sys(out, vpe, tag, Ok(SysReplyData::None));
            }
            Initiator::Kcall { op: caller_op, from } => {
                self.send_kreply(out, from, KReply::Revoke { op: caller_op, keys: 1, deleted });
            }
            Initiator::Internal => {}
            Initiator::Batch { batch } => {
                self.batch_entry_done(batch, deleted, out);
            }
        }
    }

    /// Accounts one completed entry of an incoming revoke batch; replies
    /// to the requesting kernel when the whole batch is done.
    fn batch_entry_done(&mut self, batch: OpId, deleted: u64, out: &mut Outbox) {
        let Some(PendingOp::Revoke(Phase::Batch { caller_op, caller_kernel, keys, fanin })) =
            self.pending.get_mut(batch)
        else {
            panic!("batch tracker {batch} missing");
        };
        if fanin.complete_one(deleted) {
            let (caller_kernel, reply) = (
                *caller_kernel,
                KReply::Revoke { op: *caller_op, keys: *keys, deleted: fanin.tally() },
            );
            self.pending.remove(batch);
            self.send_kreply(out, caller_kernel, reply);
        }
    }

    // ----- incoming inter-kernel revokes ---------------------------------

    /// Request handler for [`Kcall::RevokeReq`]: one subtree root owned
    /// by this kernel (Algorithm 1, `receive_revoke_request`).
    pub(crate) fn revoke_request(
        &mut self,
        from: KernelId,
        op: OpId,
        cap_key: DdlKey,
        out: &mut Outbox,
    ) -> u64 {
        if !self.mapdb.contains(cap_key) {
            // Already gone (e.g. revoked by a concurrent operation that
            // completed): vacuously done.
            self.send_kreply(out, from, KReply::Revoke { op, keys: 1, deleted: 0 });
            return self.cfg.cost.kcall_exit;
        }
        // Validating the foreign key against the membership table and
        // setting up the remote-initiated operation costs one descriptor
        // validation plus a reference.
        self.cfg.cost.xfer_desc
            + self.ref_cost()
            + self.start_revoke(vec![cap_key], Initiator::Kcall { op, from }, out)
    }

    /// Request handler for [`Kcall::RevokeBatchReq`]: runs one
    /// sub-revocation per key and replies once all of them completed.
    pub(crate) fn revoke_batch_request(
        &mut self,
        from: KernelId,
        op: OpId,
        cap_keys: &[DdlKey],
        out: &mut Outbox,
    ) -> u64 {
        let batch = self.alloc_op();
        // Every key gets a sub-revoke; each reports exactly once.
        let keys = cap_keys.len() as u32;
        let mut fanin = FanIn::new();
        fanin.arm_n(keys);
        self.park(
            batch,
            PendingOp::Revoke(Phase::Batch { caller_op: op, caller_kernel: from, keys, fanin }),
        );
        let mut cost = 0;
        for key in cap_keys {
            if !self.mapdb.contains(*key) {
                // Already gone (e.g. revoked by a concurrent operation
                // that completed): vacuously done.
                self.batch_entry_done(batch, 0, out);
                continue;
            }
            cost += self.start_revoke(vec![*key], Initiator::Batch { batch }, out);
        }
        cost
    }

    /// Completion handler for [`KReply::Revoke`] from kernel `from`:
    /// completes one of the operation's legs towards `from` (Algorithm
    /// 1, `receive_revoke_reply`) and sweeps when its fan-in drains. A
    /// reply with no such leg outstanding — for an op that is not a
    /// running revocation, or from a kernel it did not ask — is a kernel
    /// bug: acting on it would acknowledge a subtree that may still be
    /// alive (Table 2's *incomplete*).
    pub(crate) fn revoke_reply_arrived(
        &mut self,
        from: KernelId,
        op: OpId,
        deleted: u64,
        out: &mut Outbox,
    ) -> u64 {
        let Some(left) = self.revoke.legs.get_mut(&(op, from)) else {
            panic!("revoke reply for {op} from {from}: no leg outstanding");
        };
        *left -= 1;
        if *left == 0 {
            self.revoke.legs.remove(&(op, from));
        }
        self.complete_legs(op, 1, deleted, out)
    }

    /// Completes every leg towards `dead`, a crashed kernel: its part of
    /// each subtree died with it. In op-id order.
    pub(crate) fn revoke_legs_lost(&mut self, dead: KernelId, out: &mut Outbox) {
        let mut lost: Vec<(OpId, u32)> = self
            .revoke
            .legs
            .iter()
            .filter(|((_, k), _)| *k == dead)
            .map(|((op, _), n)| (*op, *n))
            .collect();
        lost.sort_unstable();
        for (op, n) in lost {
            self.revoke.legs.remove(&(op, dead));
            self.complete_legs(op, n, 0, out);
        }
    }

    /// Completes `n` legs of running revocation `op`, which deleted
    /// `deleted` capabilities, and sweeps when its fan-in drains.
    fn complete_legs(&mut self, op: OpId, n: u32, deleted: u64, out: &mut Outbox) -> u64 {
        let Some(PendingOp::Revoke(Phase::Run(rop))) = self.pending.get_mut(op) else {
            unreachable!("{op} has legs outstanding but is not a running revocation");
        };
        let mut drained = rop.fanin.complete_one(deleted);
        for _ in 1..n {
            drained = rop.fanin.complete_one(0);
        }
        if !drained {
            // Decrementing the outstanding counter (Algorithm 1's
            // `receive_revoke_reply` fast path) is essentially free.
            return 0;
        }
        let Some(PendingOp::Revoke(Phase::Run(rop))) = self.pending.remove(op) else {
            unreachable!("checked above");
        };
        self.complete_revoke(rop, out)
    }
}
