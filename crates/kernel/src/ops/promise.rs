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
//! # No wire protocol
//!
//! A submission needs no new wire traffic: the inner call — a
//! group-spanning obtain or delegate included — executes through the
//! ordinary handlers under a reserved reply tag ([`ASYNC_TAG_BASE`]),
//! and the kernel's reply funnel resolves the promise instead of
//! messaging the VPE. Everything in this module is kernel-local state
//! behind that one funnel; an asynchronous delegate runs the paper's
//! two-way handshake (§4.3.2) like its blocking twin.
//!
//! # Termination
//!
//! A promise always resolves to a real `Ok`/`Err` — never a silent
//! hang. VPE death tears down its promises (`Kernel::promise_vpe_died`),
//! revoking the promise selector severs the *handle* (the underlying
//! invocation still lands, into a dropped slot), and under fault
//! injection the inner call's parked phases carry the ordinary per-op
//! deadlines, so a dropped leg or a crashed peer kernel aborts the call
//! — and with it the promise — with `Err(Timeout)` through the ordinary
//! fault engine.

use semper_base::msg::{SysReplyData, Syscall};
use semper_base::{CapSel, Code, DdlKey, DetHashMap, Error, Result, VpeId};
use semper_caps::alloc::PROMISE_ID_BASE;

use crate::kernel::{nestable, Kernel};
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
pub(crate) fn promise_sel(key: DdlKey) -> CapSel {
    CapSel(PROMISE_SEL_BASE + (key.object_id() - PROMISE_ID_BASE))
}

/// Kernel-wide promise state: the promises themselves, the selectors
/// bound to them, and the asynchronous inner executions in flight.
#[derive(Debug, Default)]
pub(crate) struct Promises {
    /// Resolution state, by promise key. Never iterated on protocol
    /// paths without sorting first.
    slots: DetHashMap<DdlKey, PromiseState>,
    /// Promise-selector bindings: `(owner, selector)` → promise key.
    /// Kept separate from the capability tables so the classic selector
    /// paths never see promise selectors.
    binds: DetHashMap<(VpeId, CapSel), DdlKey>,
    /// In-flight asynchronous inner executions: `(owner, reserved tag)`
    /// → promise key. The reply funnel resolves through this index;
    /// a missing entry means the owner died and the late result drops.
    execs: DetHashMap<(VpeId, u64), DdlKey>,
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
        let mut unresolved: Vec<DdlKey> = self
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
}

/// A continuation parked in a promise's resolution queue.
#[derive(Debug, Clone)]
pub enum PromiseWaiter {
    /// The owner's next asynchronous submission: its pipeline gate opens
    /// when this promise resolves (program order — each promise has at
    /// most one `Exec` waiter).
    Exec {
        /// Key of the gated promise.
        promise: DdlKey,
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
        let key = self.keys.alloc_promise(pe, vpe);
        let sel = promise_sel(key);
        self.promises.binds.insert((vpe, sel), key);
        let state = PromiseState {
            owner: vpe,
            sel,
            resolved: None,
            waiters: Vec::new(),
            call: Some(Box::new(inner.clone())),
        };
        self.stats.promises_created += 1;
        let mut cost = self.ref_cost() + self.cfg.cost.syscall_exit;

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
    /// and launches the inner call.
    pub(crate) fn promise_gate_open(&mut self, key: DdlKey, out: &mut Outbox) -> u64 {
        let Some(state) = self.promises.slots.get_mut(&key) else {
            return 0; // discarded or torn down before the gate opened
        };
        let Some(call) = state.call.take() else {
            return 0;
        };
        let owner = state.owner;
        if !self.vpe_alive(owner) {
            // Teardown normally drops the state first; belt and braces.
            return self.resolve_promise(key, Err(Error::new(Code::VpeGone)), out);
        }
        let call = match self.substitute_operands(owner, *call) {
            Ok(c) => c,
            Err(e) => return self.resolve_promise(key, Err(e), out),
        };
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
    fn resolve_promise(
        &mut self,
        key: DdlKey,
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
    fn first_unresolved_operand(&self, vpe: VpeId, call: &Syscall) -> Option<DdlKey> {
        let check = |sel: &CapSel| -> Option<DdlKey> {
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

    // ----- teardown and quiescence ------------------------------------

    /// Drops all promise state owned by a dying VPE; in-flight
    /// invocations land in dropped slots via the reserved-tag reply
    /// funnel.
    pub(crate) fn promise_vpe_died(&mut self, vpe: VpeId) {
        if let Some(v) = self.vpes.get_mut(&vpe) {
            v.promise_tail = None;
        }
        self.promises.slots.retain(|k, _| k.vpe() != vpe);
        self.promises.binds.retain(|(v, _), _| *v != vpe);
        self.promises.execs.retain(|(v, _), _| *v != vpe);
    }
}
