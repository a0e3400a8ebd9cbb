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
//! One revocation has one or more disjoint roots, whoever starts it: a
//! system call revokes a capability or each of its children, and an
//! incoming request revokes the one key of a [`Kcall::RevokeReq`] or
//! every key of a [`Kcall::RevokeBatchReq`] (§5.2 batching) — the remote
//! children one mark walk collected — and is answered once. Its one
//! phase is [`RevokeOp`] (`revoke-run`): Algorithm 1's mark, delete and
//! reply counting.
//!
//! The forest stays exact across kernels: when the sweep deletes a root
//! whose parent another kernel owns, that kernel is told to unlink it,
//! unless it requested the revocation; and a children-only revoke drops
//! its remote children from the parent's list once their kernels
//! answered (`Kernel::unlink`).
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

use semper_base::{CapSel, DdlKey, DetHashMap, KernelId, OpId, RawDdlKey, VpeId};
use semper_caps::Capability;

use crate::kernel::Kernel;
use crate::ops::PendingOp;
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
#[derive(Debug, Default, Clone)]
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
    /// The next revocation's [`RevokeOp::roots`]. A revocation takes it
    /// and its sweep hands it back; one that parks keeps it until it
    /// completes.
    roots: Vec<(DdlKey, Option<DdlKey>)>,
    /// Deleted capabilities of one delete pass.
    deleted: Vec<Capability>,
    /// Remote children collected by one mark phase.
    remote: Vec<DdlKey>,
    /// The sweep's worklist: revocations whose fan-in drained.
    ready: Vec<RevokeOp>,
    /// Operations woken by one delete pass.
    woken: Vec<OpId>,
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

/// Counted fan-out completion with a running tally: a revocation's
/// outstanding completions (one per request to another kernel plus one
/// per dependency on a concurrent revoke), tallying the capabilities
/// deleted on its behalf for the completion notification.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FanIn {
    outstanding: u32,
    tally: u64,
}

impl FanIn {
    /// A fan-in with nothing armed.
    pub fn new() -> FanIn {
        FanIn::default()
    }

    /// Arms one more expected completion.
    pub fn arm(&mut self) {
        self.outstanding += 1;
    }

    /// Adds to the tally without consuming a completion (local work
    /// accounted by the operation itself).
    pub fn add(&mut self, n: u64) {
        self.tally += n;
    }

    /// Records one completion carrying `n` tally units; returns true
    /// when this was the last outstanding completion.
    ///
    /// # Panics
    ///
    /// Panics if nothing is outstanding: every armed completion arrives
    /// exactly once, so one more is a kernel bug.
    pub fn complete_one(&mut self, n: u64) -> bool {
        assert!(self.outstanding > 0, "completion of an idle fan-in");
        self.tally += n;
        self.outstanding -= 1;
        self.outstanding == 0
    }

    /// True if no completions are outstanding.
    pub fn idle(&self) -> bool {
        self.outstanding == 0
    }

    /// Completions still outstanding.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// The accumulated tally.
    pub fn tally(&self) -> u64 {
        self.tally
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
    /// Another kernel's [`Kcall::RevokeReq`] or [`Kcall::RevokeBatchReq`].
    Kcall {
        /// The requester's correlation id, echoed in the reply.
        op: OpId,
        /// The requesting kernel.
        from: KernelId,
        /// The number of keys the request named, echoed in the reply.
        keys: u32,
    },
    /// Kernel-internal cleanup (VPE exit); nobody to notify.
    Internal,
}

impl Initiator {
    /// True if the revocation runs on the starter's cooperative thread
    /// (§4.2): syscalls and internal cleanup hold the calling thread,
    /// while incoming requests are thread-free.
    pub fn holds_thread(&self) -> bool {
        matches!(self, Initiator::Syscall { .. } | Initiator::Internal)
    }
}

/// A revocation in progress (Algorithm 1 state), parked in the ledger
/// while its fan-in has completions outstanding.
#[derive(Debug, Clone)]
pub struct RevokeOp {
    /// Who to notify on completion.
    pub initiator: Initiator,
    /// Outstanding completions (inter-kernel revoke replies, whose
    /// kernels `RevokeState` records, plus dependencies on concurrent
    /// revokes), tallying capabilities deleted on behalf of this
    /// operation.
    pub fanin: FanIn,
    /// The subtree roots, each with its parent: the roots of locally
    /// marked subtrees, swept in phase 2, and the remote children a
    /// children-only revoke asked other kernels to revoke.
    pub roots: Vec<(DdlKey, Option<DdlKey>)>,
    /// True if any inter-kernel call was needed (statistics:
    /// local vs spanning revoke).
    pub spanning: bool,
}

impl RevokeOp {
    /// The name of the protocol's one phase: a revocation awaiting its
    /// fan-in (remote completions and concurrent-revoke dependencies).
    pub fn name(&self) -> &'static str {
        "revoke-run"
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
        let initiator = Initiator::Syscall { vpe, tag };
        // The subtree roots: the capability itself (`own`), or each of
        // its children.
        let (key, roots) = match self.bound(vpe, sel) {
            Ok(key) if own => return self.start_revoke([key], None, initiator, out),
            Ok(key) => match self.mapdb.get(key) {
                Ok(_) => (key, self.mapdb.children(key).collect::<Vec<_>>()),
                Err(e) => return self.refuse(out, vpe, tag, e),
            },
            Err(e) => return self.refuse(out, vpe, tag, e),
        };
        if roots.is_empty() {
            // Revoking the children of a childless capability: done.
            self.stats.revokes_local += 1;
            self.reply_sys(out, vpe, tag, Ok(SysReplyData::None));
            return self.cfg.cost.syscall_exit;
        }
        self.start_revoke(roots, Some(key), initiator, out)
    }

    /// Revocation for VPE exit: one root at a time; the table entry may
    /// already be gone if an earlier root's subtree covered it.
    pub(crate) fn revoke_for_exit(&mut self, vpe: VpeId, sel: CapSel, out: &mut Outbox) -> u64 {
        let Some(table) = self.table(vpe) else { return 0 };
        let Ok(key) = table.get(sel) else { return 0 };
        // The sweep removes a binding with its record.
        assert!(self.mapdb.contains(key), "{vpe} {sel:?} binds deleted {key:?}");
        self.start_revoke([key], None, Initiator::Internal, out)
    }

    /// Phase 1 (mark) for a set of subtree roots, the children of
    /// `parent` in a children-only revoke; completes immediately if the
    /// fan-in stays idle (no remote children, no dependencies).
    pub(crate) fn start_revoke(
        &mut self,
        roots: impl IntoIterator<Item = DdlKey>,
        parent: Option<DdlKey>,
        initiator: Initiator,
        out: &mut Outbox,
    ) -> u64 {
        let op_id = self.alloc_op();
        // The roots are disjoint: one capability, the children of one, or
        // the keys of one incoming batch (remote children that one mark
        // walk collected, and a walk stops at a remote child).
        let buf = std::mem::take(&mut self.revoke.roots);
        assert!(buf.is_empty(), "root buffer not drained");
        let mut op = RevokeOp { initiator, fanin: FanIn::new(), roots: buf, spanning: false };
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
                    op.roots.push((root, parent));
                }
                continue;
            };
            if cap.revoking() {
                self.wait_for(root, op_id, &mut op);
                continue;
            }
            let up = cap.parent;
            cost += self.mark_subtree(root, op_id, &mut op, &mut remote);
            op.roots.push((root, up));
        }

        if !remote.is_empty() {
            op.spanning = true;
            cost += self.send_revoke_requests(op_id, &mut op, &mut remote, out);
        }

        self.revoke.remote = remote;

        if op.fanin.idle() {
            cost + self.complete_revoke(op, out)
        } else {
            self.park(op_id, PendingOp::Revoke(op));
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
                // entry. Requests are pipelined: each leaves `cost` cycles
                // after the handler's start — ahead of the entry,
                // validation and mark walk charged before this loop (a
                // batch leaves at the handler's end) — so remote kernels
                // overlap with the rest of the fan-out.
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
        let mut ready = std::mem::take(&mut self.revoke.ready);
        assert!(ready.is_empty(), "revoke worklist not drained");
        ready.push(op);
        let mut cost = 0;
        while let Some(op) = ready.pop() {
            cost += self.finish_one_revoke(op, &mut ready, out);
        }
        self.revoke.ready = ready;
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
        let mut woken = std::mem::take(&mut self.revoke.woken);
        assert!(woken.is_empty(), "woken-waiter buffer not drained");
        let (cost, deleted) = self.delete_marked(&op.roots, &mut woken);
        let cost = cost + self.unlink_roots(&op, out);
        op.fanin.add(deleted);
        // The buffer serves the next revocation.
        op.roots.clear();
        self.revoke.roots = op.roots;
        self.notify_initiator(op.initiator, op.spanning, op.fanin.tally(), out);
        for waiter in woken.drain(..) {
            self.wake_waiter(waiter, ready);
        }
        self.revoke.woken = woken;
        cost + self.cfg.cost.revoke_finish
    }

    /// Drops each root's link that the sweep cannot drop in place: a
    /// local root's under a parent another kernel owns, unless that
    /// kernel requested this revocation (it drops the link itself), and
    /// a remote root's under its parent here. A remote root leaves only
    /// now, after its leg was answered: gone from the list earlier, it
    /// would be missed by a concurrent revoke of the parent, which could
    /// then acknowledge while the child lives. Returns the modeled cost:
    /// a reference per link dropped here, a request per notice.
    fn unlink_roots(&mut self, op: &RevokeOp, out: &mut Outbox) -> u64 {
        let requester = match op.initiator {
            Initiator::Kcall { from, .. } => Some(from),
            Initiator::Syscall { .. } | Initiator::Internal => None,
        };
        let mut cost = 0;
        for &(root, parent) in &op.roots {
            let Some(parent) = parent else { continue };
            let (at, root_at) =
                (self.membership.kernel_of_key(parent), self.membership.kernel_of_key(root));
            if (at == self.id && root_at == self.id) || Some(at) == requester {
                continue;
            }
            if self.unlink(parent, root, out) {
                cost += if at == self.id { self.ref_cost() } else { self.cfg.cost.kcall_exit };
            }
        }
        cost
    }

    /// The one delete pass (Algorithm 1, phase 2), the inverse of
    /// `Kernel::install`: deletes the marked subtrees under `roots` and
    /// unbinds each deleted capability at its own selector, with **one
    /// record lookup per run of consecutive same-owner capabilities** (a
    /// dense teardown of thousands of same-table capabilities collapses
    /// into a handful of lookups). Each deletion also clears the owner's
    /// endpoint registers activated for it — the step that severs
    /// hardware access — and appends the operations waiting on it to
    /// `woken` for the caller to fire. Returns the modeled cost and the
    /// number of capabilities deleted.
    fn delete_marked(
        &mut self,
        roots: &[(DdlKey, Option<DdlKey>)],
        woken: &mut Vec<OpId>,
    ) -> (u64, u64) {
        let mut stack = std::mem::take(&mut self.revoke.stack);
        let mut deleted = std::mem::take(&mut self.revoke.deleted);
        assert!(deleted.is_empty(), "deletion buffer not drained");
        // A remote root has no record here: its delete is a no-op.
        for &(root, _) in roots {
            self.mapdb.delete_local_subtree_into(root, &mut stack, &mut deleted);
        }
        // Each deletion resolves the owner's table binding and the
        // parent unlink through DDL keys; each cleared endpoint costs
        // one DTU reconfiguration.
        let per_cap = self.cfg.cost.revoke_delete + 2 * self.ref_cost();
        let mut invalidated = 0;
        for run in deleted.chunk_by(|a, b| a.owner == b.owner) {
            let owner = self.vpes.get_mut(run[0].owner.idx()).and_then(Option::as_deref_mut);
            let owner = owner.expect("a record's owner is a VPE of this group");
            for cap in run {
                let unbound = owner.table.remove(cap.sel);
                assert_eq!(unbound, Some(cap.key), "{} {:?} did not bind it", cap.owner, cap.sel);
                for ep in owner.eps.iter_mut().filter(|ep| **ep == Some(cap.key)) {
                    *ep = None;
                    invalidated += 1;
                }
                if self.revoke.waiters.is_empty() {
                    continue;
                }
                if let Some(ws) = self.revoke.waiters.remove(&cap.key.raw()) {
                    woken.extend(ws);
                }
            }
        }
        let count = deleted.len() as u64;
        self.stats.caps_deleted += count;
        self.stats.eps_invalidated += invalidated;
        let cost = count * per_cap + invalidated * self.cfg.cost.cap_insert;
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
            Some(PendingOp::Revoke(wop)) => {
                if wop.fanin.complete_one(0) {
                    let Some(PendingOp::Revoke(wop)) = self.pending.remove(waiter) else {
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
        // Only top-level revocations count as capability operations; a
        // requested one is part of a revoke already counted at the
        // initiating kernel.
        let revokes = match &initiator {
            Initiator::Syscall { .. } | Initiator::Internal => 1,
            Initiator::Kcall { .. } => 0,
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
            Initiator::Kcall { op: caller_op, from, keys } => {
                self.send_kreply(out, from, KReply::Revoke { op: caller_op, keys, deleted });
            }
            Initiator::Internal => {}
        }
    }

    // ----- incoming inter-kernel revokes ---------------------------------

    /// Request handler for [`Kcall::RevokeReq`] (one key) and
    /// [`Kcall::RevokeBatchReq`] (§5.2 batching): subtree roots owned by
    /// this kernel, revoked as one operation and answered once
    /// (Algorithm 1, `receive_revoke_request`).
    pub(crate) fn revoke_request(
        &mut self,
        from: KernelId,
        op: OpId,
        cap_keys: &[DdlKey],
        out: &mut Outbox,
    ) -> u64 {
        let keys = cap_keys.len() as u32;
        if !cap_keys.iter().any(|&key| self.mapdb.contains(key)) {
            // Already gone (e.g. revoked by a concurrent operation that
            // completed): vacuously done.
            self.send_kreply(out, from, KReply::Revoke { op, keys, deleted: 0 });
            return self.cfg.cost.kcall_exit;
        }
        // Validating the foreign keys against the membership table and
        // setting up the remote-initiated operation costs one descriptor
        // validation plus a reference, once per message.
        self.cfg.cost.xfer_desc
            + self.ref_cost()
            + self.start_revoke(
                cap_keys.iter().copied(),
                None,
                Initiator::Kcall { op, from, keys },
                out,
            )
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
        let Some(PendingOp::Revoke(rop)) = self.pending.get_mut(op) else {
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
        let Some(PendingOp::Revoke(rop)) = self.pending.remove(op) else {
            unreachable!("checked above");
        };
        self.complete_revoke(rop, out)
    }
}

#[cfg(test)]
mod tests {
    use semper_base::msg::{KReply, Kcall, Payload, Perms, SysReply, SysReplyData, Syscall};
    use semper_base::{CapSel, DdlKey, KernelId, MachineConfig, Msg, OpId, PeId, VpeId};
    use semper_caps::MembershipTable;
    use semper_noc::GlobalMemory;

    use crate::host;
    use crate::kernel::Kernel;
    use crate::outbox::Outbox;

    /// Kernel `k`'s answer to `call` from the VPE on `pe`.
    fn syscall(ks: &mut [Kernel], k: usize, pe: u16, call: Syscall) -> SysReplyData {
        let mut out = Outbox::new();
        let msg = Msg::new(PeId(pe), ks[k].pe(), Payload::sys(1, call));
        ks[k].handle(&msg, &mut out);
        match out.drain().pop().map(|(reply, _)| reply.payload) {
            Some(Payload::SysReply(SysReply { result: Ok(data), .. })) => data,
            other => panic!("{msg:?} answered {other:?}"),
        }
    }

    /// A new memory capability of the VPE on `pe`, at kernel `k`.
    fn create_mem(ks: &mut [Kernel], k: usize, pe: u16) -> CapSel {
        match syscall(ks, k, pe, Syscall::CreateMem { size: 4096, perms: Perms::RW }) {
            SysReplyData::Mem { sel, .. } => sel,
            other => panic!("create_mem answered {other:?}"),
        }
    }

    /// Kernel 0 sends kernel 1 a batch of `cap_keys` under op 9 through
    /// its credit gate, and kernel 1's answer comes back from
    /// [`host::deliver`].
    fn deliver_batch(
        ks: &mut [Kernel],
        membership: &MembershipTable,
        cap_keys: Vec<DdlKey>,
    ) -> Vec<Msg> {
        let (mut out, mut credits) = (Outbox::new(), Outbox::new());
        ks[0].send_kcall(&mut out, KernelId(1), Kcall::RevokeBatchReq { op: OpId(9), cap_keys });
        let [(request, None)] = &out.drain()[..] else { panic!("one request leaves at once") };
        assert!(host::deliver(ks, membership, request, &mut out, &mut credits).is_some());
        assert!(credits.is_empty(), "nothing was stalled behind the credit");
        out.drain().into_iter().map(|(msg, _)| msg).collect()
    }

    /// An incoming batch is one revocation of all its keys, answered
    /// once: a live root with a subtree and a key that is already gone
    /// get one reply for both keys, counting the subtree; a batch of gone
    /// keys only is answered at once and parks nothing.
    #[test]
    fn a_revoke_batch_is_one_revocation_answered_once() {
        // Two kernels of two VPEs each: PEs 1–2 and 4–5.
        let mut cfg = MachineConfig::small();
        (cfg.num_pes, cfg.kernels) = (6, 2);
        let membership = MembershipTable::contiguous(6, 2);
        let dir = [1, 2, 4, 5].map(PeId);
        let mut ks = host::kernels(&cfg, &membership, &dir, |k| {
            GlobalMemory::new((u64::from(k.0) + 1) << 32, 1 << 30)
        });
        // At kernel 1: VPE 2's root with two derived children, and VPE
        // 3's capability, revoked already.
        let root = create_mem(&mut ks, 1, 4);
        for offset in [0, 64] {
            let derive = Syscall::DeriveMem { src: root, offset, size: 64, perms: Perms::R };
            syscall(&mut ks, 1, 4, derive);
        }
        let gone = create_mem(&mut ks, 1, 5);
        let key = |ks: &[Kernel], vpe, sel| ks[1].table(VpeId(vpe)).unwrap().get(sel).unwrap();
        let (root_key, gone_key) = (key(&ks, 2, root), key(&ks, 3, gone));
        syscall(&mut ks, 1, 5, Syscall::Revoke { sel: gone, own: true });
        let subtree: Vec<DdlKey> =
            std::iter::once(root_key).chain(ks[1].mapdb().children(root_key)).collect();
        assert_eq!(subtree.len(), 3);

        let deleted = ks[1].stats().caps_deleted;
        let answer = |deleted| {
            let reply = KReply::Revoke { op: OpId(9), keys: 2, deleted };
            [Msg::new(PeId(3), PeId(0), Payload::kreply(reply))]
        };
        let sent = deliver_batch(&mut ks, &membership, vec![root_key, gone_key]);
        assert_eq!(sent, answer(3));
        assert_eq!(ks[1].stats().caps_deleted - deleted, 3);
        assert!(subtree.iter().all(|&k| !ks[1].mapdb().contains(k)), "the subtree survived");
        assert_eq!(ks[1].pending_ops(), 0);

        let sent = deliver_batch(&mut ks, &membership, vec![root_key, gone_key]);
        assert_eq!(sent, answer(0));
        assert_eq!(ks[1].pending_ops(), 0);
        for k in &ks {
            k.check_invariants().unwrap();
            k.check_quiescent().unwrap();
        }
    }
}
