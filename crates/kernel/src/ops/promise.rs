//! Promise-capability IPC — pipelined asynchronous invocation.
//!
//! Served unconditionally: the state below is empty until the first
//! [`Syscall::SubmitAsync`] arrives, and every check on the classic
//! paths is an empty-map lookup.
//!
//! A [`Syscall::SubmitAsync`] returns immediately with a *promise
//! capability*: a first-class selector standing in for the eventual
//! result of the submitted call. The client may pass that selector in
//! dependent calls before the callee has replied; the kernel parks those
//! calls in the promise's resolution queue and replays them — with the
//! resolved value substituted for the promise selector — in arrival
//! order once the promise resolves. Chains of asynchronous submissions
//! pipeline in program order: each submission gates on the submitter's
//! previous unresolved promise, so a 3-hop open→delegate→activate chain
//! costs one client round-trip instead of three.
//!
//! # Place in the capability system
//!
//! Promise keys come from a disjoint object-id range
//! ([`semper_caps::alloc::PROMISE_ID_BASE`]) and promise selectors from
//! a reserved selector range ([`PROMISE_SEL_BASE`]). Promises live
//! *outside* the capability tree: no mapdb record, no table slot, no
//! children — `Kernel::state_digest` is untouched by any amount of
//! promise traffic, which is what keeps every golden and trace
//! fingerprint of promise-free runs bit-identical.
//!
//! # Protocol phases
//!
//! A purely local submission needs no new wire traffic: the inner call
//! executes through the ordinary handlers under a reserved reply tag
//! ([`ASYNC_TAG_BASE`]), and the kernel's reply funnel resolves the
//! promise instead of messaging the VPE. The one genuinely new wire
//! exchange is the *eager provide* for an asynchronous cross-kernel
//! delegate, which prefetches the receiver's consent while the operand
//! promise is still unresolved:
//!
//! | # | where | phase                  | awaits                     |
//! |---|-------|------------------------|----------------------------|
//! | 1 | A     | `ProvidePending`       | `KReply::Provide` + gate   |
//! | 2 | B     | `ConsentAtRecv`        | consent upcall reply       |
//! | 3 | B     | `AwaitResolve`         | `Kcall::Resolve`           |
//! | 4 | A     | `AwaitResolved`        | `KReply::Resolved`         |
//! | 5 | A     | `AwaitInsert`          | `KReply::DelegateDone`     |
//!
//! Leg 5 reuses the ordinary `Kcall::DelegateAck` commit handshake and
//! B's existing `DelegatePendingInsert` phase, preserving the
//! link-before-insert ordering of the classic delegate (§4.3): after
//! the operand gate opens, the transfer costs the same two round-trips
//! as a blocking delegate — the consent round-trip has already been
//! paid in the shadow of the operand's resolution.
//!
//! # Termination
//!
//! A promise always resolves to a real `Ok`/`Err` — never a silent
//! hang. VPE death tears down its promises ([`Kernel::promise_vpe_died`]),
//! revoking the promise selector severs the *handle* (the underlying
//! invocation still lands, into a dropped slot), and under fault
//! injection every parked phase above carries a per-op deadline, so
//! dropped `Resolve` legs or a crashed peer kernel abort the promise
//! with `Err(Timeout)` through the ordinary fault engine.

use semper_base::msg::{CapDesc, KReply, Kcall, SysReplyData, Syscall, Upcall};
use semper_base::{
    CapSel, Code, DdlKey, DetHashMap, Error, ExchangeKind, KernelId, OpId, Result, VpeId,
};
use semper_caps::alloc::PROMISE_ID_BASE;
use semper_caps::Capability;

use crate::kernel::{nestable, Kernel};
use crate::ops::exchange::{self, key_type_for};
use crate::ops::{Awaits, PendingOp, PhaseSpec, Thread};
use crate::outbox::Outbox;

/// First selector of the per-VPE promise-selector range. Table-allocated
/// selectors grow from 0 and never reach this.
pub const PROMISE_SEL_BASE: u32 = 1 << 30;

/// First reply tag used for asynchronous inner executions. Client tags
/// and bulk item indices stay far below this, so the reply funnel can
/// route on the tag range alone.
pub const ASYNC_TAG_BASE: u64 = 1 << 62;

/// The selector bound to a promise key (derived, not allocated: promise
/// object ids are per-VPE monotone, so the mapping is bijective).
pub(crate) fn promise_sel(key: u64) -> CapSel {
    CapSel(PROMISE_SEL_BASE + (DdlKey::from_raw(key).object_id() - PROMISE_ID_BASE))
}

/// Kernel-wide promise state: the promises themselves, the selectors
/// bound to them, and the asynchronous inner executions in flight.
#[derive(Debug, Default)]
pub(crate) struct Promises {
    /// Resolution state, by raw promise key. Never iterated on protocol
    /// paths without sorting first.
    slots: DetHashMap<u64, PromiseState>,
    /// Promise-selector bindings: `(owner, selector)` → raw promise key.
    /// Kept separate from the capability tables so the classic selector
    /// paths never see promise selectors.
    binds: DetHashMap<(VpeId, CapSel), u64>,
    /// In-flight asynchronous inner executions: `(owner, reserved tag)`
    /// → raw promise key. The reply funnel resolves through this index;
    /// a missing entry means the owner died and the late result drops.
    execs: DetHashMap<(VpeId, u64), u64>,
    /// Reserved reply tags handed out so far (counted up from
    /// [`ASYNC_TAG_BASE`]).
    tags_used: u64,
}

impl Promises {
    /// Asynchronous inner executions in flight — each may hold a
    /// cooperative thread beside its owner's blocking syscall (§4.2).
    pub(crate) fn execs_in_flight(&self) -> u64 {
        self.execs.len() as u64
    }

    /// Every promise resolved, nothing parked on one, nothing in flight.
    pub(crate) fn quiescent(&self) -> core::result::Result<(), String> {
        let mut unresolved: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, p)| p.resolved.is_none() || !p.waiters.is_empty())
            .map(|(k, _)| *k)
            .collect();
        if !unresolved.is_empty() {
            unresolved.sort_unstable();
            return Err(format!(
                "unresolved promises (or parked waiters) at quiescence: {unresolved:?}"
            ));
        }
        if !self.execs.is_empty() {
            return Err(format!("{} in-flight async executions at quiescence", self.execs.len()));
        }
        Ok(())
    }
}

/// Kernel-internal state of one promise.
#[derive(Debug, Clone)]
pub struct PromiseState {
    /// The submitting VPE (also the only VPE that can wait on it).
    pub owner: VpeId,
    /// The promise selector handed to the owner.
    pub sel: CapSel,
    /// The result, once the submitted call completed. Non-consuming:
    /// every wait re-reads it.
    pub resolved: Option<Result<SysReplyData>>,
    /// Parked continuations, replayed in arrival order on resolution.
    pub waiters: Vec<PromiseWaiter>,
    /// The submitted call, taken when the pipeline gate opens.
    pub call: Option<Box<Syscall>>,
    /// The `ProvidePending` op id if an eager provide was launched at
    /// submission (asynchronous cross-kernel delegate).
    pub eager_op: Option<OpId>,
}

/// A continuation parked in a promise's resolution queue.
#[derive(Debug, Clone)]
pub enum PromiseWaiter {
    /// The owner's next asynchronous submission: its pipeline gate opens
    /// when this promise resolves (program order — each promise has at
    /// most one `Exec` waiter).
    Exec {
        /// Raw key of the gated promise.
        promise: u64,
    },
    /// A blocking [`Syscall::WaitPromise`]; replied with the resolution.
    Wait {
        /// The waiting VPE (always the owner).
        vpe: VpeId,
        /// The wait's reply tag.
        tag: u64,
    },
    /// A blocking dependent call naming this (then-unresolved) promise
    /// as an operand; replayed with the resolved value substituted.
    Call {
        /// The calling VPE (always the owner).
        vpe: VpeId,
        /// The call's reply tag.
        tag: u64,
        /// The parked call.
        call: Box<Syscall>,
    },
    /// The owner revoked the promise selector before resolution: the
    /// handle is already severed; drop the state once the in-flight
    /// invocation lands.
    Discard,
}

/// Whether an eager provide's operand gate has opened yet, and with
/// what parent validation verdict.
#[derive(Debug, Clone)]
pub enum Gate {
    /// The operand promise has not resolved yet.
    Waiting,
    /// The gate opened; the delegated parent validated to `Ok(key)` or
    /// failed (the promise already resolved to that error).
    Open(Result<DdlKey>),
}

/// A-side state of an eager provide (phase 1 of the table above).
#[derive(Debug, Clone)]
pub struct Provide {
    /// Raw key of the promise this delegate will resolve.
    pub promise: u64,
    /// The receiving VPE (owned by `peer_kernel`).
    pub recv_vpe: VpeId,
    /// The receiver's kernel.
    pub peer_kernel: KernelId,
    /// The receiver's consent verdict, once [`KReply::Provide`] arrived.
    pub consent: Option<Result<OpId>>,
    /// The operand gate.
    pub gate: Gate,
}

/// Promise-protocol phases parked in the pending-op ledger.
#[derive(Debug, Clone)]
pub enum Phase {
    /// A: eager `Kcall::Provide` sent at submission; resumes on consent
    /// arrival *and* operand-gate opening (in either order).
    ProvidePending(Box<Provide>),
    /// A: `Kcall::Resolve` sent; awaiting [`KReply::Resolved`].
    AwaitResolved {
        /// Raw key of the promise being resolved.
        promise: u64,
        /// The delegated parent capability.
        parent_key: DdlKey,
        /// The receiver's kernel.
        peer_kernel: KernelId,
    },
    /// A: `Kcall::DelegateAck` sent; awaiting [`KReply::DelegateDone`].
    AwaitInsert {
        /// Raw key of the promise being resolved.
        promise: u64,
        /// The delegated parent capability.
        parent_key: DdlKey,
        /// The receiver-side child key.
        child_key: DdlKey,
        /// The receiver's kernel.
        peer_kernel: KernelId,
        /// Whether the child was linked under the parent (unlinked again
        /// if the insert fails).
        linked: bool,
    },
    /// B: consent upcall in flight to the receiving VPE.
    ConsentAtRecv {
        /// A's correlation id (echoed in [`KReply::Provide`]).
        caller_op: OpId,
        /// A's kernel.
        caller_kernel: KernelId,
        /// The delegating VPE (consent prompt only).
        from_vpe: VpeId,
        /// The receiving VPE.
        recv: VpeId,
    },
    /// B: consent granted; awaiting the sender's [`Kcall::Resolve`].
    AwaitResolve {
        /// A's kernel.
        caller_kernel: KernelId,
        /// The receiving VPE.
        recv: VpeId,
    },
}

impl Phase {
    /// Scheduling/await metadata. All A-side phases run thread-free —
    /// the submitter is not blocked, so no cooperative kernel thread is
    /// held; only B's consent wait holds one (it is budgeted like any
    /// consumed-unanswered inter-kernel request, §4.2).
    pub fn spec(&self) -> &'static PhaseSpec {
        match self {
            Phase::ProvidePending(_) => {
                &PhaseSpec { name: "promise-provide", awaits: Awaits::KReply, thread: Thread::Free }
            }
            Phase::AwaitResolved { .. } => &PhaseSpec {
                name: "promise-await-resolved",
                awaits: Awaits::KReply,
                thread: Thread::Free,
            },
            Phase::AwaitInsert { .. } => &PhaseSpec {
                name: "promise-await-insert",
                awaits: Awaits::KReply,
                thread: Thread::Free,
            },
            Phase::ConsentAtRecv { .. } => &PhaseSpec {
                name: "promise-consent",
                awaits: Awaits::UpcallReply,
                thread: Thread::Holds,
            },
            Phase::AwaitResolve { .. } => &PhaseSpec {
                name: "promise-await-resolve",
                awaits: Awaits::KReply,
                thread: Thread::Free,
            },
        }
    }

    /// The VPE whose upcall reply this phase awaits, if any.
    pub(crate) fn upcall_responder(&self) -> Option<VpeId> {
        match self {
            Phase::ConsentAtRecv { recv, .. } => Some(*recv),
            _ => None,
        }
    }

    /// True if this phase involves `vpe` (migration refusal check).
    pub(crate) fn references_vpe(&self, vpe: VpeId) -> bool {
        match self {
            Phase::ProvidePending(p) => {
                DdlKey::from_raw(p.promise).vpe() == vpe || p.recv_vpe == vpe
            }
            Phase::AwaitResolved { promise, parent_key, .. } => {
                DdlKey::from_raw(*promise).vpe() == vpe || parent_key.vpe() == vpe
            }
            Phase::AwaitInsert { promise, parent_key, child_key, .. } => {
                DdlKey::from_raw(*promise).vpe() == vpe
                    || parent_key.vpe() == vpe
                    || child_key.vpe() == vpe
            }
            Phase::ConsentAtRecv { from_vpe, recv, .. } => *from_vpe == vpe || *recv == vpe,
            Phase::AwaitResolve { recv, .. } => *recv == vpe,
        }
    }
}

impl Kernel {
    // ----- submission and the program-order pipeline ------------------

    /// Handles [`Syscall::SubmitAsync`]: mints a promise capability,
    /// replies immediately, and either executes the inner call now or
    /// chains it behind the submitter's previous unresolved promise.
    pub(crate) fn sys_submit_async(
        &mut self,
        vpe: VpeId,
        tag: u64,
        inner: &Syscall,
        out: &mut Outbox,
    ) -> u64 {
        if !nestable(inner) {
            self.reply_sys(out, vpe, tag, Err(Error::new(Code::NotSupported)));
            return self.cfg.cost.syscall_exit;
        }
        let pe = self.pe_of_vpe(vpe).expect("submitter is local");
        let key = self.keys.alloc_promise(pe, vpe).raw();
        let sel = promise_sel(key);
        self.promises.binds.insert((vpe, sel), key);
        let mut state = PromiseState {
            owner: vpe,
            sel,
            resolved: None,
            waiters: Vec::new(),
            call: Some(Box::new(inner.clone())),
            eager_op: None,
        };
        self.stats.promises_created += 1;
        let mut cost = self.ref_cost() + self.cfg.cost.syscall_exit;

        // Eager provide: an asynchronous cross-kernel delegate prefetches
        // the receiver's consent while the operand gate is still shut.
        if let Syscall::Exchange { other, kind: ExchangeKind::Delegate, .. } = inner {
            if let Ok(peer) = self.kernel_of_vpe(*other) {
                if peer != self.id {
                    let op = self.alloc_op();
                    self.send_kcall(
                        out,
                        peer,
                        Kcall::Provide { op, from_vpe: vpe, recv_vpe: *other },
                    );
                    self.park(
                        op,
                        PendingOp::Promise(Phase::ProvidePending(Box::new(Provide {
                            promise: key,
                            recv_vpe: *other,
                            peer_kernel: peer,
                            consent: None,
                            gate: Gate::Waiting,
                        }))),
                    );
                    state.eager_op = Some(op);
                    cost += self.cfg.cost.kcall_exit;
                }
            }
        }

        // Program-order gate: chain behind the previous unresolved
        // promise of this VPE, or open the gate right away.
        let tail = self.vpes.get_mut(&vpe).expect("submitter is local").promise_tail.replace(key);
        let chained = match tail.and_then(|prev| self.promises.slots.get_mut(&prev)) {
            Some(p) if p.resolved.is_none() => {
                p.waiters.push(PromiseWaiter::Exec { promise: key });
                true
            }
            _ => false,
        };
        self.promises.slots.insert(key, state);
        self.reply_sys(out, vpe, tag, Ok(SysReplyData::Promise { sel }));
        if chained {
            self.stats.calls_pipelined += 1;
        } else {
            cost += self.promise_gate_open(key, out);
        }
        cost
    }

    /// Opens a promise's pipeline gate: substitutes resolved operands
    /// and launches the inner call (or the eager-provide continuation).
    pub(crate) fn promise_gate_open(&mut self, key: u64, out: &mut Outbox) -> u64 {
        let Some(state) = self.promises.slots.get_mut(&key) else {
            return 0; // discarded or torn down before the gate opened
        };
        let Some(call) = state.call.take() else {
            return 0;
        };
        let owner = state.owner;
        let eager = state.eager_op;
        if !self.vpe_alive(owner) {
            // Teardown normally drops the state first; belt and braces.
            return self.resolve_promise(key, Err(Error::new(Code::VpeGone)), out);
        }
        let call = match self.substitute_operands(owner, *call) {
            Ok(c) => c,
            Err(e) => return self.resolve_promise(key, Err(e), out),
        };
        if let Some(op) = eager {
            return self.promise_eager_gate(op, key, &call, out);
        }
        // The inner call runs through the ordinary handlers under a
        // reserved tag; `reply_sys` routes its completion back to
        // `promise_exec_done` by the tag range.
        let tag = ASYNC_TAG_BASE + self.promises.tags_used;
        self.promises.tags_used += 1;
        self.promises.execs.insert((owner, tag), key);
        self.cfg.cost.thread_switch + self.dispatch_syscall(owner, tag, &call, out)
    }

    /// Completion funnel for asynchronous inner executions (called from
    /// `reply_sys` for tags in the reserved range). A missing index
    /// entry means the owner died mid-flight; the late result drops.
    pub(crate) fn promise_exec_done(
        &mut self,
        vpe: VpeId,
        tag: u64,
        result: Result<SysReplyData>,
        out: &mut Outbox,
    ) -> u64 {
        match self.promises.execs.remove(&(vpe, tag)) {
            Some(key) => self.resolve_promise(key, result, out),
            None => 0,
        }
    }

    /// Resolves a promise and replays its parked continuations in
    /// arrival order.
    pub(crate) fn resolve_promise(
        &mut self,
        key: u64,
        result: Result<SysReplyData>,
        out: &mut Outbox,
    ) -> u64 {
        let Some(state) = self.promises.slots.get_mut(&key) else {
            return 0; // torn down while the invocation was in flight
        };
        if state.resolved.is_some() {
            self.fault_anomaly("promise resolved twice");
            return 0;
        }
        state.resolved = Some(result.clone());
        self.stats.promises_resolved += 1;
        let waiters = std::mem::take(&mut state.waiters);
        let mut cost = 0;
        for w in waiters {
            match w {
                PromiseWaiter::Exec { promise } => {
                    cost += self.promise_gate_open(promise, out);
                }
                PromiseWaiter::Wait { vpe, tag } => {
                    if self.vpe_alive(vpe) {
                        self.reply_sys(out, vpe, tag, result.clone());
                        cost += self.cfg.cost.syscall_exit;
                    }
                }
                PromiseWaiter::Call { vpe, tag, call } => {
                    if self.vpe_alive(vpe) {
                        cost += self.cfg.cost.thread_switch;
                        cost += match self.sys_promise_dependent(vpe, tag, &call, out) {
                            Some(c) => c,
                            None => self.dispatch_syscall(vpe, tag, &call, out),
                        };
                    }
                }
                PromiseWaiter::Discard => {
                    self.promises.slots.remove(&key);
                }
            }
        }
        cost
    }

    // ----- dependent calls and operand substitution -------------------

    /// Intercepts a blocking syscall that names a promise selector:
    /// severs the handle for `Revoke`, parks the call against the first
    /// unresolved operand, or dispatches it with resolved operands
    /// substituted. Returns `None` if the call has no promise operands.
    pub(crate) fn sys_promise_dependent(
        &mut self,
        vpe: VpeId,
        tag: u64,
        call: &Syscall,
        out: &mut Outbox,
    ) -> Option<u64> {
        if self.promises.binds.is_empty() {
            return None;
        }
        if let Syscall::Revoke { sel, .. } = call {
            if self.promises.binds.contains_key(&(vpe, *sel)) {
                return Some(self.sys_revoke_promise(vpe, tag, *sel, out));
            }
        }
        if !self.has_promise_operand(vpe, call) {
            return None;
        }
        if let Some(key) = self.first_unresolved_operand(vpe, call) {
            self.promises
                .slots
                .get_mut(&key)
                .expect("first_unresolved_operand checked the state")
                .waiters
                .push(PromiseWaiter::Call { vpe, tag, call: Box::new(call.clone()) });
            self.stats.calls_pipelined += 1;
            return Some(self.ref_cost());
        }
        Some(match self.substitute_operands(vpe, call.clone()) {
            Ok(subst) => self.dispatch_syscall(vpe, tag, &subst, out),
            Err(e) => {
                self.reply_sys(out, vpe, tag, Err(e));
                self.cfg.cost.syscall_exit
            }
        })
    }

    /// True if any selector operand of `call` names a promise of `vpe`.
    fn has_promise_operand(&self, vpe: VpeId, call: &Syscall) -> bool {
        let bound = |sel: &CapSel| self.promises.binds.contains_key(&(vpe, *sel));
        match call {
            Syscall::DeriveMem { src, .. } => bound(src),
            Syscall::Exchange { own_sel, other_sel, .. } => bound(own_sel) || bound(other_sel),
            Syscall::Activate { sel, .. } => bound(sel),
            _ => false,
        }
    }

    /// The first operand (in field order) naming an unresolved promise.
    fn first_unresolved_operand(&self, vpe: VpeId, call: &Syscall) -> Option<u64> {
        let check = |sel: &CapSel| -> Option<u64> {
            let key = *self.promises.binds.get(&(vpe, *sel))?;
            match self.promises.slots.get(&key) {
                Some(p) if p.resolved.is_none() => Some(key),
                _ => None,
            }
        };
        match call {
            Syscall::DeriveMem { src, .. } => check(src),
            Syscall::Exchange { own_sel, other_sel, .. } => {
                check(own_sel).or_else(|| check(other_sel))
            }
            Syscall::Activate { sel, .. } => check(sel),
            _ => None,
        }
    }

    /// Replaces promise-selector operands with their resolved selector
    /// values. An operand promise that resolved to `Err` propagates that
    /// error; a non-selector-valued result is `InvalidArgs`.
    fn substitute_operands(&self, vpe: VpeId, mut call: Syscall) -> Result<Syscall> {
        let subst = |sel: &mut CapSel| -> Result<()> {
            let Some(&key) = self.promises.binds.get(&(vpe, *sel)) else {
                return Ok(());
            };
            let state = self.promises.slots.get(&key).ok_or(Error::new(Code::NoSuchCap))?;
            match &state.resolved {
                None => Err(Error::new(Code::Unresolved)),
                Some(Err(e)) => Err(*e),
                Some(Ok(data)) => {
                    *sel = match data {
                        SysReplyData::Sel(s) => *s,
                        SysReplyData::Mem { sel, .. } => *sel,
                        SysReplyData::Delegated { recv_sel } => *recv_sel,
                        SysReplyData::Session { sel, .. } => *sel,
                        _ => return Err(Error::new(Code::InvalidArgs)),
                    };
                    Ok(())
                }
            }
        };
        match &mut call {
            Syscall::DeriveMem { src, .. } => subst(src)?,
            Syscall::Exchange { own_sel, other_sel, .. } => {
                subst(own_sel)?;
                subst(other_sel)?;
            }
            Syscall::Revoke { sel, .. } => subst(sel)?,
            Syscall::Activate { sel, .. } => subst(sel)?,
            _ => {}
        }
        Ok(call)
    }

    // ----- wait and revoke --------------------------------------------

    /// Handles [`Syscall::WaitPromise`].
    pub(crate) fn sys_wait_promise(
        &mut self,
        vpe: VpeId,
        tag: u64,
        sel: CapSel,
        block: bool,
        out: &mut Outbox,
    ) -> u64 {
        let ref_c = self.ref_cost();
        let key = match self.promises.binds.get(&(vpe, sel)) {
            Some(&k) => k,
            None => {
                self.reply_sys(out, vpe, tag, Err(Error::new(Code::NoSuchCap)));
                return self.cfg.cost.syscall_exit;
            }
        };
        let stored = match self.promises.slots.get_mut(&key) {
            None => {
                self.reply_sys(out, vpe, tag, Err(Error::new(Code::NoSuchCap)));
                return self.cfg.cost.syscall_exit;
            }
            Some(p) => match &p.resolved {
                Some(r) => r.clone(),
                None if block => {
                    p.waiters.push(PromiseWaiter::Wait { vpe, tag });
                    return ref_c;
                }
                None => Err(Error::new(Code::Unresolved)),
            },
        };
        self.reply_sys(out, vpe, tag, stored);
        ref_c + self.cfg.cost.syscall_exit
    }

    /// Revokes a promise *handle*: the binding disappears (dependent
    /// calls naming the selector now fail `NoSuchCap`) but the result
    /// object, if any, is never touched — promises are not part of the
    /// capability tree. Callers must have checked the binding exists.
    pub(crate) fn sys_revoke_promise(
        &mut self,
        vpe: VpeId,
        tag: u64,
        sel: CapSel,
        out: &mut Outbox,
    ) -> u64 {
        let key = self.promises.binds.remove(&(vpe, sel)).expect("caller checked the binding");
        match self.promises.slots.get_mut(&key) {
            Some(p) if p.resolved.is_none() => {
                // In-flight: sever now, drop the state when it lands.
                p.waiters.push(PromiseWaiter::Discard);
            }
            _ => {
                self.promises.slots.remove(&key);
            }
        }
        self.reply_sys(out, vpe, tag, Ok(SysReplyData::None));
        self.ref_cost() + self.cfg.cost.syscall_exit
    }

    // ----- eager provide: A side --------------------------------------

    /// Gate-open continuation of an eager provide: validates the (now
    /// substituted) delegated parent and proceeds if the receiver's
    /// consent already arrived.
    fn promise_eager_gate(&mut self, op: OpId, key: u64, call: &Syscall, out: &mut Outbox) -> u64 {
        let Some(PendingOp::Promise(Phase::ProvidePending(mut p))) = self.pending.remove(op) else {
            // The eager op was already aborted (deadline / dead peer);
            // the promise resolved to an error there.
            return 0;
        };
        let Syscall::Exchange { own_sel, .. } = call else {
            unreachable!("eager ops are delegates");
        };
        let owner = DdlKey::from_raw(key).vpe();
        let parent = self
            .tables
            .get(&owner)
            .ok_or(Error::new(Code::NoSuchVpe))
            .and_then(|t| t.get(*own_sel))
            .and_then(|pk| {
                let cap = self.mapdb.get(pk)?;
                if cap.revoking() {
                    return Err(Error::new(Code::RevokeInProgress));
                }
                Ok(pk)
            });
        match (p.consent.take(), parent) {
            (None, parent) => {
                let cost = match &parent {
                    Err(e) => self.resolve_promise(key, Err(*e), out),
                    Ok(_) => 0,
                };
                p.gate = Gate::Open(parent);
                self.pending.insert(op, PendingOp::Promise(Phase::ProvidePending(p)));
                self.ref_cost() + cost
            }
            (Some(Err(e)), _) => {
                // Receiver denied; B holds no pending state to release.
                self.ref_cost() + self.resolve_promise(key, Err(e), out)
            }
            (Some(Ok(b_op)), Ok(pkey)) => {
                self.promise_send_resolve(op, key, pkey, p.peer_kernel, b_op, out)
            }
            (Some(Ok(b_op)), Err(e)) => {
                self.send_resolve_abort(p.peer_kernel, b_op, e, out);
                self.cfg.cost.kcall_exit + self.resolve_promise(key, Err(e), out)
            }
        }
    }

    /// Resume handler for [`KReply::Provide`] (the consent verdict).
    pub(crate) fn promise_provide_reply(
        &mut self,
        op: OpId,
        mut p: Box<Provide>,
        result: &Result<OpId>,
        out: &mut Outbox,
    ) -> u64 {
        if !self.promises.slots.contains_key(&p.promise) {
            // The submitter was torn down; release B's pending state.
            if let Ok(b_op) = result {
                self.send_resolve_abort(p.peer_kernel, *b_op, Error::new(Code::VpeGone), out);
                return self.cfg.cost.kcall_exit;
            }
            return 0;
        }
        match std::mem::replace(&mut p.gate, Gate::Waiting) {
            Gate::Waiting => {
                p.consent = Some(*result);
                self.pending.insert(op, PendingOp::Promise(Phase::ProvidePending(p)));
                self.cfg.cost.thread_switch
            }
            Gate::Open(Ok(pkey)) => match result {
                Ok(b_op) => {
                    self.promise_send_resolve(op, p.promise, pkey, p.peer_kernel, *b_op, out)
                }
                Err(e) => {
                    self.cfg.cost.syscall_exit + self.resolve_promise(p.promise, Err(*e), out)
                }
            },
            Gate::Open(Err(e)) => {
                // The promise already resolved to `e` at gate-open; just
                // release B's pending state if consent was granted.
                if let Ok(b_op) = result {
                    self.send_resolve_abort(p.peer_kernel, *b_op, e, out);
                    return self.cfg.cost.kcall_exit;
                }
                0
            }
        }
    }

    /// Sends the `Kcall::Resolve` transfer leg (re-validating the parent
    /// — consent arrival may postdate the gate) and parks `AwaitResolved`.
    fn promise_send_resolve(
        &mut self,
        op: OpId,
        promise: u64,
        parent_key: DdlKey,
        peer: KernelId,
        b_op: OpId,
        out: &mut Outbox,
    ) -> u64 {
        let kind = match self.mapdb.get(parent_key) {
            Ok(c) if !c.revoking() => c.kind,
            Ok(_) => {
                let e = Error::new(Code::RevokeInProgress);
                self.send_resolve_abort(peer, b_op, e, out);
                return self.cfg.cost.kcall_exit + self.resolve_promise(promise, Err(e), out);
            }
            Err(e) => {
                self.send_resolve_abort(peer, b_op, e, out);
                return self.cfg.cost.kcall_exit + self.resolve_promise(promise, Err(e), out);
            }
        };
        self.send_kcall(
            out,
            peer,
            Kcall::Resolve {
                op: b_op,
                reply_op: op,
                result: Ok(CapDesc { key: parent_key, kind }),
            },
        );
        self.park(
            op,
            PendingOp::Promise(Phase::AwaitResolved { promise, parent_key, peer_kernel: peer }),
        );
        self.ref_cost() + self.cfg.cost.xfer_desc + self.cfg.cost.kcall_exit
    }

    /// Aborts B's pending resolve state (fire-and-forget; B sends no
    /// reply to an `Err` resolve).
    pub(crate) fn send_resolve_abort(
        &mut self,
        peer: KernelId,
        b_op: OpId,
        e: Error,
        out: &mut Outbox,
    ) {
        if self.fault.dead_peers.contains(&peer) {
            return; // no point burning a send credit on a dead island
        }
        self.send_kcall(out, peer, Kcall::Resolve { op: b_op, reply_op: OpId(0), result: Err(e) });
    }

    /// Resume handler for [`KReply::Resolved`]: commits (or aborts) the
    /// insert through the ordinary `DelegateAck` handshake, preserving
    /// link-before-insert.
    pub(crate) fn promise_resolved_reply(
        &mut self,
        from: KernelId,
        op: OpId,
        promise: u64,
        parent_key: DdlKey,
        result: &Result<(DdlKey, OpId)>,
        out: &mut Outbox,
    ) -> u64 {
        match result {
            Err(e) => self.cfg.cost.syscall_exit + self.resolve_promise(promise, Err(*e), out),
            Ok((child_key, insert_op)) => {
                let commit = self.promises.slots.contains_key(&promise)
                    && self.mapdb.get(parent_key).map(|c| !c.revoking()).unwrap_or(false);
                if commit {
                    let _ = self.mapdb.link_child(parent_key, *child_key);
                }
                self.send_kcall(
                    out,
                    from,
                    Kcall::DelegateAck { op: *insert_op, reply_op: op, commit },
                );
                self.park(
                    op,
                    PendingOp::Promise(Phase::AwaitInsert {
                        promise,
                        parent_key,
                        child_key: *child_key,
                        peer_kernel: from,
                        linked: commit,
                    }),
                );
                if commit {
                    self.ref_cost() + self.cfg.cost.cap_insert + self.cfg.cost.kcall_exit
                } else {
                    self.ref_cost() + self.cfg.cost.kcall_exit
                }
            }
        }
    }

    /// Resume handler for [`KReply::DelegateDone`] on the promise path:
    /// the final leg — resolve the promise with the receiver-side
    /// selector (or unlink and resolve to the error).
    pub(crate) fn promise_insert_done(
        &mut self,
        promise: u64,
        parent_key: DdlKey,
        child_key: DdlKey,
        linked: bool,
        result: &Result<CapSel>,
        out: &mut Outbox,
    ) -> u64 {
        match result {
            Ok(recv_sel) => {
                self.stats.exchanges_spanning += 1;
                self.cfg.cost.syscall_exit
                    + self.resolve_promise(
                        promise,
                        Ok(SysReplyData::Delegated { recv_sel: *recv_sel }),
                        out,
                    )
            }
            Err(e) => {
                if linked {
                    self.mapdb.unlink_child(parent_key, child_key);
                }
                self.cfg.cost.syscall_exit + self.resolve_promise(promise, Err(*e), out)
            }
        }
    }

    // ----- eager provide: B side --------------------------------------

    /// Handles [`Kcall::Provide`]: runs the consent upcall now so the
    /// verdict is ready by the time the sender's operand resolves.
    pub(crate) fn promise_provide_request(
        &mut self,
        from: KernelId,
        op: OpId,
        from_vpe: VpeId,
        recv_vpe: VpeId,
        out: &mut Outbox,
    ) -> u64 {
        if !self.vpe_alive(recv_vpe) {
            self.send_kreply(
                out,
                from,
                KReply::Provide { op, result: Err(Error::new(Code::VpeGone)) },
            );
            return self.cfg.cost.kcall_exit;
        }
        let pe = self.pe_of_vpe(recv_vpe).expect("recv vpe is local");
        let my_op = self.alloc_op();
        self.send_upcall(
            out,
            pe,
            Upcall::AcceptExchange {
                op: my_op,
                from_vpe,
                kind: ExchangeKind::Delegate,
                sel: CapSel::INVALID,
            },
        );
        self.park(
            my_op,
            PendingOp::Promise(Phase::ConsentAtRecv {
                caller_op: op,
                caller_kernel: from,
                from_vpe,
                recv: recv_vpe,
            }),
        );
        self.ref_cost() + self.cfg.cost.xfer_desc
    }

    /// Resume handler for the consent upcall reply: reports the verdict
    /// and, on acceptance, parks `AwaitResolve` for the transfer leg.
    pub(crate) fn promise_consent_accept(
        &mut self,
        caller_op: OpId,
        caller_kernel: KernelId,
        recv: VpeId,
        accept: bool,
        out: &mut Outbox,
    ) -> u64 {
        if !accept {
            self.send_kreply(
                out,
                caller_kernel,
                KReply::Provide { op: caller_op, result: Err(Error::new(Code::ExchangeDenied)) },
            );
            return self.cfg.cost.kcall_exit;
        }
        let b_op = self.alloc_op();
        self.park(b_op, PendingOp::Promise(Phase::AwaitResolve { caller_kernel, recv }));
        self.send_kreply(out, caller_kernel, KReply::Provide { op: caller_op, result: Ok(b_op) });
        self.cfg.cost.kcall_exit
    }

    /// Handles [`Kcall::Resolve`]: creates the pending child (the exact
    /// `delegate_recv_accept` discipline — uninserted until the sender's
    /// commit) or silently drops the pending state on an abort.
    pub(crate) fn promise_resolve_request(
        &mut self,
        from: KernelId,
        op: OpId,
        reply_op: OpId,
        result: &Result<CapDesc>,
        out: &mut Outbox,
    ) -> u64 {
        match self.pending.get(op) {
            Some(PendingOp::Promise(Phase::AwaitResolve { .. })) => {}
            _ => {
                self.fault_anomaly("Resolve for unknown or mismatched op");
                return 0;
            }
        }
        let Some(PendingOp::Promise(Phase::AwaitResolve { caller_kernel, recv })) =
            self.pending.remove(op)
        else {
            unreachable!("checked above");
        };
        debug_assert_eq!(from, caller_kernel, "Resolve from the wrong kernel");
        let desc = match result {
            Err(_) => return self.ref_cost(), // abort: drop, no reply
            Ok(d) => d,
        };
        if !self.vpe_alive(recv) {
            self.send_kreply(
                out,
                from,
                KReply::Resolved { op: reply_op, result: Err(Error::new(Code::VpeGone)) },
            );
            return self.cfg.cost.kcall_exit;
        }
        let pe = self.pe_of_vpe(recv).expect("recv vpe is local");
        let child_key = self.keys.alloc(pe, recv, key_type_for(&desc.kind));
        let cap = Capability::child(child_key, desc.kind, recv, CapSel::INVALID, desc.key);
        let insert_op = self.alloc_op();
        self.park(
            insert_op,
            PendingOp::Exchange(exchange::Phase::DelegatePendingInsert {
                caller_kernel: from,
                cap: Box::new(cap),
            }),
        );
        self.send_kreply(
            out,
            from,
            KReply::Resolved { op: reply_op, result: Ok((child_key, insert_op)) },
        );
        self.cfg.cost.cap_create + self.cfg.cost.kcall_exit
    }

    // ----- teardown and quiescence ------------------------------------

    /// Drops all promise state owned by a dying VPE; in-flight
    /// invocations land in dropped slots via the reserved-tag reply
    /// funnel. Parked eager ops whose consent verdict is still in
    /// flight are left to complete naturally (their resume handler
    /// notices the missing promise); ops whose verdict already arrived
    /// would otherwise never resume, so they are swept here, releasing
    /// B's pending state.
    pub(crate) fn promise_vpe_died(&mut self, vpe: VpeId, out: &mut Outbox) {
        if let Some(v) = self.vpes.get_mut(&vpe) {
            v.promise_tail = None;
        }
        if self.promises.slots.is_empty() && self.promises.execs.is_empty() {
            return;
        }
        let mut owned: Vec<u64> = self
            .promises
            .slots
            .keys()
            .copied()
            .filter(|k| DdlKey::from_raw(*k).vpe() == vpe)
            .collect();
        owned.sort_unstable();
        for key in &owned {
            self.promises.slots.remove(key);
        }
        if !owned.is_empty() {
            self.promises.binds.retain(|(v, _), _| *v != vpe);
        }
        self.promises.execs.retain(|(v, _), _| *v != vpe);
        let mut doomed: Vec<OpId> = self
            .pending
            .iter()
            .filter(|(_, state)| {
                matches!(state, PendingOp::Promise(Phase::ProvidePending(p))
                    if DdlKey::from_raw(p.promise).vpe() == vpe && p.consent.is_some())
            })
            .map(|(op, _)| op)
            .collect();
        doomed.sort_unstable_by_key(|op| op.0);
        for op in doomed {
            let Some(PendingOp::Promise(Phase::ProvidePending(p))) = self.pending.remove(op) else {
                unreachable!("collected above");
            };
            if let Some(Ok(b_op)) = p.consent {
                self.send_resolve_abort(p.peer_kernel, b_op, Error::new(Code::VpeGone), out);
            }
        }
    }

    /// True if `vpe` owns any promise (resolved or not). Promise state
    /// never migrates, so group migration refuses while this holds.
    pub(crate) fn vpe_has_promise_state(&self, vpe: VpeId) -> bool {
        self.promises.slots.keys().any(|k| DdlKey::from_raw(*k).vpe() == vpe)
    }
}
