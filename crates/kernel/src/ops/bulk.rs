//! Batched system calls on the op engine ([`Syscall::Batch`]).
//!
//! The paper's headline scalability lever is treating capability
//! operations *in bulk*: grouping them so the per-message costs — DTU
//! headers, syscall round trips, cross-kernel requests — are paid once
//! per group instead of once per operation (§5.2 proposes exactly this
//! for revocation messages). This module is the application-facing half
//! of that lever: one [`Syscall::Batch`] carries N capability
//! operations in one message, the kernel executes them and replies once
//! with per-item results ([`SysReplyData::Batch`]).
//!
//! # Execution model
//!
//! Items execute **in order**, one sub-operation at a time, so a batch
//! is observably equivalent to issuing the same calls sequentially
//! (property-tested in `tests/proptests.rs`) — with one deliberate
//! exception: a run of **consecutive `Revoke` items** is coalesced into
//! a *single* revocation fan-out. All roots of the run are resolved and
//! marked together, and the cross-kernel revoke requests for their
//! remote children are grouped into one
//! [`Kcall::RevokeBatchReq`](semper_base::msg::Kcall::RevokeBatchReq)
//! per destination kernel — the "single fan-out phase" that makes a batched
//! revoke of N spanning capabilities cost one round trip per peer
//! kernel instead of N. The shared [`FanIn`](crate::ops::FanIn) counts
//! the grouped completions; every item of the run completes when the
//! combined sweep finishes (a revoke is never acknowledged while part
//! of its subtree survives, per Algorithm 1).
//!
//! Coalescing changes one edge case relative to sequential issue:
//! revokes in one run whose subtrees *overlap* (duplicate selectors, or
//! a root inside another root's subtree) all complete with `Ok` —
//! sequentially, the later one would find its capability already gone
//! and fail with `NoSuchCap`. Both orders leave the same final state
//! (everything revoked); the batch reports the conservative outcome.
//!
//! # How items reuse the single-call handlers
//!
//! Each non-revoke item is started through the *same* `sys_*` entry
//! handler the standalone call uses, with the item index as its
//! (kernel-internal) reply tag. The single dispatch point every handler
//! funnels completions through — `Kernel::reply_sys` — checks whether
//! the destination VPE has an active batch: if so, the "reply" is
//! recorded as that item's result instead of leaving as a message, and
//! the batch advances to the next item. The standalone handlers are
//! therefore literally the N=1 case of this path; nothing about their
//! execution, costs, or messages changes when no batch is active.
//!
//! # Thread accounting
//!
//! The batch occupies the calling VPE's one blocking system call, so
//! it is worth exactly one cooperative kernel thread (§4.2). Ordered
//! execution means at most one sub-operation is suspended at a time,
//! and that sub-operation's parked phase already carries the thread
//! (exchange and session phases declare `Thread::Holds`; the coalesced
//! revoke declares it via [`Initiator::Bulk`]). The batch op itself is
//! therefore accounted `Thread::Free` — counting it too would bill two
//! threads for one blocked VPE.

use semper_base::msg::{SysReplyData, Syscall};
use semper_base::{CapSel, Code, Error, OpId, Result, VpeId};

use crate::kernel::{nestable, Kernel};
use crate::ops::revoke::Initiator;
use crate::ops::{Awaits, PendingOp, PhaseSpec, Thread};
use crate::outbox::Outbox;

/// A batched system call in progress.
#[derive(Debug, Clone)]
pub struct BulkOp {
    /// The calling VPE (blocked on the batch).
    pub vpe: VpeId,
    /// Tag of the batch system call, echoed in the combined reply.
    pub tag: u64,
    /// The items, in submission order.
    pub items: Box<[Syscall]>,
    /// Index of the next item to start.
    pub next: usize,
    /// Per-item results; `None` while an item has not completed.
    pub results: Vec<Option<Result<SysReplyData>>>,
    /// Items started but not yet completed (0 or, during a coalesced
    /// revoke run, the run length).
    pub outstanding: u32,
    /// True while `Kernel::bulk_advance` is executing — synchronous
    /// item completions must record their result without re-entering
    /// the advance loop (which would recurse once per item).
    pub advancing: bool,
}

/// The batch protocol's phase table: one phase — the batch itself,
/// awaiting the fan-in of its current sub-operation.
#[derive(Debug, Clone)]
pub enum Phase {
    /// Executing items; parked whenever a sub-operation is in flight.
    Run(Box<BulkOp>),
}

impl Phase {
    /// The declared spec of each phase.
    pub fn spec(&self) -> &'static PhaseSpec {
        match self {
            Phase::Run(_) => {
                &PhaseSpec { name: "bulk-batch", awaits: Awaits::FanIn, thread: Thread::Free }
            }
        }
    }
}

/// What the advance loop decided to do next (computed under the ledger
/// borrow, acted on after releasing it).
enum Step {
    /// A sub-operation is in flight; park until it completes.
    Parked,
    /// Every item has a result; send the combined reply.
    Finalize,
    /// Start a coalesced run of consecutive revoke items.
    Revokes(VpeId, Vec<(usize, CapSel, bool)>),
    /// Start one non-revoke item.
    One(VpeId, usize, Syscall),
}

impl Kernel {
    /// Entry point for the `Batch` system call.
    pub(crate) fn sys_batch(
        &mut self,
        vpe: VpeId,
        tag: u64,
        items: &[Syscall],
        out: &mut Outbox,
    ) -> u64 {
        if items.is_empty() {
            self.reply_sys(out, vpe, tag, Ok(SysReplyData::Batch(Box::default())));
            return self.cfg.cost.syscall_exit;
        }
        // Syscalls from a VPE with an active batch — including a second
        // batch — are refused by `handle_syscall` before any handler
        // runs, so the interception funnel below cannot misfire.
        let op = self.alloc_op();
        let bulk = BulkOp {
            vpe,
            tag,
            items: items.to_vec().into_boxed_slice(),
            next: 0,
            results: vec![None; items.len()],
            outstanding: 0,
            advancing: false,
        };
        self.park(op, PendingOp::Bulk(Phase::Run(Box::new(bulk))));
        let prev = self.vpe_state_mut(vpe).expect("caller is local").batch.replace(op);
        debug_assert!(prev.is_none(), "{vpe} batch-while-batch not refused");
        self.bulk_advance(op, out)
    }

    /// Runs batch items until one parks, the batch completes, or the
    /// batch was torn down. Returns the modeled cost of the work done
    /// in this invocation.
    pub(crate) fn bulk_advance(&mut self, op: OpId, out: &mut Outbox) -> u64 {
        let mut cost = 0;
        loop {
            // Decide the next step under a short ledger borrow.
            let step = {
                let Some(PendingOp::Bulk(Phase::Run(b))) = self.pending.get_mut(op) else {
                    // Torn down (the VPE died mid-batch).
                    return cost;
                };
                if b.outstanding > 0 {
                    b.advancing = false;
                    Step::Parked
                } else if b.next >= b.items.len() {
                    Step::Finalize
                } else {
                    b.advancing = true;
                    let idx = b.next;
                    let vpe = b.vpe;
                    match b.items[idx] {
                        Syscall::Revoke { .. } => {
                            let mut run = Vec::new();
                            let mut end = idx;
                            while let Some(Syscall::Revoke { sel, own }) = b.items.get(end) {
                                run.push((end, *sel, *own));
                                end += 1;
                            }
                            b.next = end;
                            b.outstanding = run.len() as u32;
                            Step::Revokes(vpe, run)
                        }
                        ref item => {
                            b.next = idx + 1;
                            b.outstanding = 1;
                            Step::One(vpe, idx, item.clone())
                        }
                    }
                }
            };
            match step {
                Step::Parked => return cost,
                Step::Finalize => {
                    let Some(PendingOp::Bulk(Phase::Run(b))) = self.pending.remove(op) else {
                        unreachable!("checked above");
                    };
                    if let Some(v) = self.vpe_state_mut(b.vpe) {
                        v.batch = None;
                    }
                    let results: Vec<Result<SysReplyData>> =
                        b.results.into_iter().map(|r| r.expect("every item completed")).collect();
                    // The batch entry is gone, so this reply leaves as a
                    // real message.
                    self.reply_sys(out, b.vpe, b.tag, Ok(SysReplyData::Batch(Box::new(results))));
                    return cost + self.cfg.cost.syscall_exit;
                }
                Step::Revokes(vpe, run) => {
                    cost += run.len() as u64 * self.cfg.cost.batch_item;
                    cost += self.bulk_start_revokes(op, vpe, run, out);
                }
                // A non-revoke item starts through the one dispatcher,
                // with the item index as its internal reply tag.
                // Whatever path the handler completes on —
                // synchronously here, or via the reply router rounds
                // later — its `reply_sys` is intercepted and becomes the
                // item's result. Calls that cannot nest are rejected
                // per item so the rest of the batch still runs.
                Step::One(vpe, idx, item) => {
                    cost += self.cfg.cost.batch_item;
                    if nestable(&item) {
                        cost += self.dispatch_syscall(vpe, idx as u64, &item, out);
                    } else {
                        let e = Error::new(Code::NotSupported);
                        self.reply_sys(out, vpe, idx as u64, Err(e));
                    }
                }
            }
            // Loop: if the step completed synchronously (its reply was
            // intercepted and `outstanding` is back to 0), continue with
            // the next item; otherwise the top of the loop parks.
        }
    }

    /// Resolves and starts a coalesced run of consecutive revoke items:
    /// per-item root resolution (failures and childless `own = false`
    /// targets complete immediately, exactly as standalone calls
    /// would), then **one** combined revocation over all remaining
    /// roots. Duplicate and nested roots fold into the first
    /// occurrence's marked subtree; the combined fan-out groups its
    /// cross-kernel requests per destination kernel.
    fn bulk_start_revokes(
        &mut self,
        op: OpId,
        vpe: VpeId,
        run: Vec<(usize, CapSel, bool)>,
        out: &mut Outbox,
    ) -> u64 {
        let first_item = run[0].0 as u32;
        let items = run.len() as u32;
        let mut roots = Vec::new();
        let mut cost = 0;
        for (idx, sel, own) in run {
            match self.revoke_roots(vpe, sel, own) {
                Err(e) => {
                    self.reply_sys(out, vpe, idx as u64, Err(e));
                    cost += self.cfg.cost.syscall_exit;
                }
                Ok(r) if r.is_empty() => {
                    // Revoking the children of a childless capability.
                    self.stats.revokes_local += 1;
                    self.reply_sys(out, vpe, idx as u64, Ok(SysReplyData::None));
                    cost += self.cfg.cost.syscall_exit;
                }
                Ok(r) => roots.extend(r),
            }
        }
        if roots.is_empty() {
            return cost;
        }
        cost + self.start_revoke(roots, Initiator::Bulk { batch: op, first_item, items }, out)
    }

    /// Completion of a coalesced revoke run: every item of the run that
    /// did not already complete at resolution time completes now — the
    /// combined sweep covered all their subtrees. Counted as one
    /// revocation per item (the batch is N operations, not one),
    /// classified by the *combined* operation's locality: if any item
    /// of the run reached another kernel, the whole run counts as
    /// spanning. Sequential issue would classify each item separately;
    /// per-item attribution is unknowable here because the coalesced
    /// mark phase pools all roots' remote children into one fan-out.
    pub(crate) fn bulk_revokes_done(
        &mut self,
        batch: OpId,
        first_item: u32,
        items: u32,
        spanning: bool,
        out: &mut Outbox,
    ) {
        for idx in first_item..first_item + items {
            let open = match self.pending.get(batch) {
                Some(PendingOp::Bulk(Phase::Run(b))) => b.results[idx as usize].is_none(),
                // The batch was torn down (its VPE died mid-run).
                _ => return,
            };
            if !open {
                continue;
            }
            if spanning {
                self.stats.revokes_spanning += 1;
            } else {
                self.stats.revokes_local += 1;
            }
            self.bulk_item_done(batch, idx as usize, Ok(SysReplyData::None), out);
        }
    }

    /// Records one item's result. When this was the batch's in-flight
    /// sub-operation and the advance loop is not already on the stack,
    /// execution continues with the next item (the cost of that
    /// continuation is accounted to the current handler through the
    /// kernel's bulk-cost accumulator).
    pub(crate) fn bulk_item_done(
        &mut self,
        op: OpId,
        idx: usize,
        result: Result<SysReplyData>,
        out: &mut Outbox,
    ) {
        let advance = {
            let Some(PendingOp::Bulk(Phase::Run(b))) = self.pending.get_mut(op) else {
                // Torn down; drop the late result.
                return;
            };
            debug_assert!(idx < b.results.len(), "batch item index {idx} out of range");
            if b.results[idx].is_some() {
                debug_assert!(false, "batch item {idx} completed twice");
                return;
            }
            b.results[idx] = Some(result);
            b.outstanding -= 1;
            b.outstanding == 0 && !b.advancing
        };
        if advance {
            let cost = self.bulk_advance(op, out);
            self.continuation_cost += cost;
        }
    }

    /// A batch the dying `vpe` was blocked on has nobody left to reply
    /// to: tear it down. Items still suspended in other protocols
    /// resolve through their own dead-VPE paths; their late results are
    /// dropped.
    pub(crate) fn bulk_vpe_died(&mut self, vpe: VpeId) {
        if let Some(op) = self.vpe_state_mut(vpe).and_then(|v| v.batch.take()) {
            self.pending.remove(op);
        }
    }
}
