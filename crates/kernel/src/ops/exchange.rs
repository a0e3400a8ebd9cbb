//! Capability exchange on the op engine: obtain and delegate (§4.3.2).
//!
//! Both operations start with an `Exchange` system call. The initiator's
//! kernel decides whether the peer VPE is group-local (single-kernel
//! handling, sequence A of Figure 3) or managed by another kernel
//! (inter-kernel handling, sequence B). In both cases the peer VPE is
//! asked for consent via an upcall before any capability changes hands.
//!
//! The asymmetry between obtain and delegate is deliberate and mirrors
//! the paper's analysis of interference (Table 2):
//!
//! * **Obtain** leaves the obtainer's tree untouched until the owner's
//!   kernel replied. If the obtainer died meanwhile, the owner is told to
//!   drop the *orphaned* child reference (the orphan-notice inter-kernel call).
//! * **Delegate** uses a **two-way handshake**: the receiver's kernel
//!   creates the capability but does not insert it until the delegator's
//!   kernel confirmed that the parent still exists. Without this, a
//!   revoke of the parent racing with the delegate could leave the
//!   receiver holding a capability that survives the revocation —
//!   the *invalid* case the paper rules out. The one-way variant can be
//!   enabled as an ablation ([`Feature::OneWayDelegate`]) to demonstrate
//!   exactly that window.

use semper_base::config::Feature;
use semper_base::msg::{CapDesc, CapKindDesc, KReply, Kcall, SysReplyData, Upcall};
use semper_base::{
    CapSel, CapType, Code, DdlKey, Error, ExchangeKind, KernelId, OpId, Result, VpeId,
};
use semper_caps::Capability;

use crate::kernel::Kernel;
use crate::ops::{PendingOp, PhaseSpec, Thread};
use crate::outbox::Outbox;

/// The exchange protocol's phase table (Figure 3 sequences A and B,
/// plus the §4.3.2 delegate handshake legs).
#[derive(Debug, Clone)]
pub enum Phase {
    /// A.2: group-local exchange awaiting the peer VPE's consent.
    LocalAccept {
        /// Tag of the initiating system call.
        tag: u64,
        /// The initiating VPE.
        initiator: VpeId,
        /// The peer VPE (same group).
        peer: VpeId,
        /// Obtain or delegate.
        kind: ExchangeKind,
        /// Delegate: the initiator's capability selector.
        own_sel: CapSel,
        /// Obtain: the peer's capability selector.
        other_sel: CapSel,
    },
    /// B.2 (requester side): awaiting `KReply::Obtain` from the owner's
    /// kernel.
    ObtainRemote {
        /// Tag of the initiating system call.
        tag: u64,
        /// The obtaining VPE.
        requester: VpeId,
        /// Pre-allocated key of the new child capability.
        child_key: DdlKey,
        /// The owner's kernel.
        peer_kernel: KernelId,
    },
    /// B.3 (owner side): awaiting the owner VPE's consent upcall.
    ObtainAtOwner {
        /// The requester kernel's correlation id (echo in reply).
        caller_op: OpId,
        /// The requester's kernel.
        caller_kernel: KernelId,
        /// Key of the new child capability (allocated by the caller).
        child_key: DdlKey,
        /// Key of the parent capability (owned here).
        parent_key: DdlKey,
        /// The VPE owning the parent.
        owner: VpeId,
    },
    /// Handshake leg 1 (delegator side): awaiting `KReply::Delegate`.
    DelegateRemote {
        /// Tag of the initiating system call.
        tag: u64,
        /// The delegating VPE.
        delegator: VpeId,
        /// Key of the capability being delegated.
        parent_key: DdlKey,
        /// The receiver's kernel.
        peer_kernel: KernelId,
    },
    /// Handshake leg 2 (delegator side): commit ack sent, awaiting
    /// `KReply::DelegateDone`.
    DelegateWaitDone {
        /// Tag of the initiating system call.
        tag: u64,
        /// The delegating VPE.
        delegator: VpeId,
        /// Key of the parent capability.
        parent_key: DdlKey,
        /// Key of the child capability at the receiver.
        child_key: DdlKey,
    },
    /// Receiver side: awaiting the receiving VPE's consent upcall.
    DelegateAtRecv {
        /// The delegator kernel's correlation id (echo in reply).
        caller_op: OpId,
        /// The delegator's kernel.
        caller_kernel: KernelId,
        /// Key of the parent capability (owned by the caller).
        parent_key: DdlKey,
        /// Resource description for the new capability.
        desc: CapKindDesc,
        /// The receiving VPE.
        recv: VpeId,
    },
    /// Receiver side: capability created but *not inserted*, awaiting
    /// `Kcall::DelegateAck` (§4.3.2's two-way handshake; prevents
    /// *invalid* capabilities).
    DelegatePendingInsert {
        /// The delegator's kernel (to report insertion failure).
        caller_kernel: KernelId,
        /// The fully built but uninserted capability.
        cap: Box<Capability>,
    },
    /// Delegator side: parent turned out invalid after leg 1; abort ack
    /// sent, awaiting the `DelegateDone` confirmation before failing
    /// the system call.
    DelegateAborted {
        /// Tag of the initiating system call.
        tag: u64,
        /// The delegating VPE.
        delegator: VpeId,
        /// The receiver's kernel, which confirms the abort.
        peer_kernel: KernelId,
        /// Why the delegate was aborted.
        reason: Error,
    },
}

impl Phase {
    /// The declared spec of each phase.
    pub fn spec(&self) -> &'static PhaseSpec {
        match self {
            Phase::LocalAccept { .. } => {
                &PhaseSpec { name: "exchange-local", thread: Thread::Holds }
            }
            Phase::ObtainRemote { .. } => {
                &PhaseSpec { name: "obtain-remote", thread: Thread::Holds }
            }
            Phase::ObtainAtOwner { .. } => {
                &PhaseSpec { name: "obtain-at-owner", thread: Thread::Holds }
            }
            Phase::DelegateRemote { .. } => {
                &PhaseSpec { name: "delegate-remote", thread: Thread::Holds }
            }
            Phase::DelegateWaitDone { .. } => {
                &PhaseSpec { name: "delegate-wait-done", thread: Thread::Holds }
            }
            Phase::DelegateAtRecv { .. } => {
                &PhaseSpec { name: "delegate-at-recv", thread: Thread::Holds }
            }
            Phase::DelegatePendingInsert { .. } => {
                &PhaseSpec { name: "delegate-pending-insert", thread: Thread::Free }
            }
            Phase::DelegateAborted { .. } => {
                &PhaseSpec { name: "delegate-aborted", thread: Thread::Holds }
            }
        }
    }

    /// The VPE whose consent upcall this phase awaits (its death
    /// cancels the operation; see [`PendingOp::upcall_responder`]).
    pub fn upcall_responder(&self) -> Option<VpeId> {
        match self {
            Phase::LocalAccept { peer, .. } => Some(*peer),
            Phase::ObtainAtOwner { owner, .. } => Some(*owner),
            Phase::DelegateAtRecv { recv, .. } => Some(*recv),
            _ => None,
        }
    }
}

impl Kernel {
    /// Entry point for the `Exchange` system call (local start).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sys_exchange(
        &mut self,
        vpe: VpeId,
        tag: u64,
        other: VpeId,
        own_sel: CapSel,
        other_sel: CapSel,
        kind: ExchangeKind,
        out: &mut Outbox,
    ) -> u64 {
        match self.exchange_start(vpe, tag, other, own_sel, other_sel, kind, out) {
            Ok(cost) => cost,
            Err(e) => {
                if e.code() == Code::RevokeInProgress {
                    self.stats.pointless_denied += 1;
                }
                self.reply_sys(out, vpe, tag, Err(e));
                self.cfg.cost.syscall_exit
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exchange_start(
        &mut self,
        vpe: VpeId,
        tag: u64,
        other: VpeId,
        own_sel: CapSel,
        other_sel: CapSel,
        kind: ExchangeKind,
        out: &mut Outbox,
    ) -> Result<u64> {
        if other == vpe {
            return Err(Error::new(Code::InvalidArgs));
        }
        let peer_kernel = self.kernel_of_vpe(other)?;

        // For a delegate, the initiator's capability must exist and must
        // not be under revocation (denying *pointless* exchanges).
        let parent_key = match kind {
            ExchangeKind::Delegate => {
                let key = self.table(vpe).ok_or(Error::new(Code::NoSuchVpe))?.get(own_sel)?;
                let cap = self.mapdb.get(key)?;
                if cap.revoking() {
                    return Err(Error::new(Code::RevokeInProgress));
                }
                Some(key)
            }
            ExchangeKind::Obtain => None,
        };

        if peer_kernel == self.id {
            // Group-local: the peer's capabilities are ours to inspect.
            if !self.vpe_alive(other) {
                return Err(Error::new(Code::VpeGone));
            }
            if kind == ExchangeKind::Obtain {
                let key = self.table(other).ok_or(Error::new(Code::NoSuchVpe))?.get(other_sel)?;
                if self.mapdb.get(key)?.revoking() {
                    return Err(Error::new(Code::RevokeInProgress));
                }
            }
            let op = self.alloc_op();
            let peer_pe = self.pe_of_vpe(other)?;
            self.send_upcall(
                out,
                peer_pe,
                Upcall::AcceptExchange { op, from_vpe: vpe, kind, sel: other_sel },
            );
            self.park(
                op,
                PendingOp::Exchange(Phase::LocalAccept {
                    tag,
                    initiator: vpe,
                    peer: other,
                    kind,
                    own_sel,
                    other_sel,
                }),
            );
            Ok(2 * self.ref_cost())
        } else {
            // Group-spanning: involve the peer's kernel (sequence B),
            // unless it crashed.
            if self.peer_dead(peer_kernel) {
                return Err(Error::new(Code::Timeout));
            }
            let op = self.alloc_op();
            match kind {
                ExchangeKind::Obtain => {
                    // Pre-allocate the child key; nothing is inserted
                    // until the owner's kernel replies.
                    let pe = self.pe_of_vpe(vpe)?;
                    let child_key = self.keys.alloc(pe, vpe, CapType::Memory);
                    self.send_kcall(
                        out,
                        peer_kernel,
                        Kcall::ObtainReq {
                            op,
                            child_key,
                            owner_vpe: other,
                            owner_sel: other_sel,
                            requester_vpe: vpe,
                        },
                    );
                    self.park(
                        op,
                        PendingOp::Exchange(Phase::ObtainRemote {
                            tag,
                            requester: vpe,
                            child_key,
                            peer_kernel,
                        }),
                    );
                }
                ExchangeKind::Delegate => {
                    let parent_key = parent_key.expect("checked above for delegate");
                    let desc = self.mapdb.get(parent_key)?.kind;
                    self.send_kcall(
                        out,
                        peer_kernel,
                        Kcall::DelegateReq { op, parent_key, desc, recv_vpe: other },
                    );
                    self.park(
                        op,
                        PendingOp::Exchange(Phase::DelegateRemote {
                            tag,
                            delegator: vpe,
                            parent_key,
                            peer_kernel,
                        }),
                    );
                }
            }
            Ok(2 * self.ref_cost())
        }
    }

    /// Resumes [`Phase::LocalAccept`]: the peer answered the consent
    /// upcall; complete the group-local exchange.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn local_exchange_accept(
        &mut self,
        tag: u64,
        initiator: VpeId,
        peer: VpeId,
        kind: ExchangeKind,
        own_sel: CapSel,
        other_sel: CapSel,
        accept: bool,
        out: &mut Outbox,
    ) -> u64 {
        if !accept {
            self.reply_sys(out, initiator, tag, Err(Error::new(Code::ExchangeDenied)));
            return self.cfg.cost.syscall_exit;
        }
        if !self.vpe_alive(initiator) {
            // The initiator died while the upcall was in flight; nothing
            // was inserted, so nothing to clean up.
            return 0;
        }
        let result = match kind {
            ExchangeKind::Obtain => {
                self.insert_child_for(peer, other_sel, initiator).map(SysReplyData::Sel)
            }
            ExchangeKind::Delegate => self
                .insert_child_for(initiator, own_sel, peer)
                .map(|recv_sel| SysReplyData::Delegated { recv_sel }),
        };
        if result.is_ok() {
            self.stats.exchanges_local += 1;
        } else if result.as_ref().err().map(|e| e.code()) == Some(Code::RevokeInProgress) {
            self.stats.pointless_denied += 1;
        }
        self.reply_sys(out, initiator, tag, result);
        self.cfg.cost.cap_create
            + self.cfg.cost.cap_insert
            + 2 * self.ref_cost()
            + self.cfg.cost.syscall_exit
    }

    /// Creates a child of `owner`'s capability at `sel` for `receiver`
    /// (both VPEs in this group). Returns the receiver-side selector.
    fn insert_child_for(&mut self, owner: VpeId, sel: CapSel, receiver: VpeId) -> Result<CapSel> {
        let parent_key = self.table(owner).ok_or(Error::new(Code::NoSuchVpe))?.get(sel)?;
        let parent = self.mapdb.get(parent_key)?;
        if parent.revoking() {
            return Err(Error::new(Code::RevokeInProgress));
        }
        let desc = parent.kind;
        let recv_pe = self.pe_of_vpe(receiver)?;
        let child_key = self.keys.alloc(recv_pe, receiver, key_type_for(&desc));
        let recv_table = self.table_mut(receiver).ok_or(Error::new(Code::NoSuchVpe))?;
        let recv_sel = recv_table.insert_new(child_key);
        self.mapdb.insert(Capability::child(child_key, desc, receiver, recv_sel, parent_key));
        self.mapdb.link_child(parent_key, child_key)?;
        self.stats.caps_created += 1;
        Ok(recv_sel)
    }

    // ----- obtain, group-spanning ---------------------------------------

    /// Owner-side request handler for [`Kcall::ObtainReq`]: validate,
    /// then fan out the consent upcall ([`Phase::ObtainAtOwner`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn obtain_request(
        &mut self,
        from: KernelId,
        op: OpId,
        child_key: DdlKey,
        owner_vpe: VpeId,
        owner_sel: CapSel,
        requester_vpe: VpeId,
        out: &mut Outbox,
    ) -> u64 {
        let check = (|| -> Result<DdlKey> {
            if !self.vpe_alive(owner_vpe) {
                return Err(Error::new(Code::VpeGone));
            }
            let key = self.table(owner_vpe).ok_or(Error::new(Code::NoSuchVpe))?.get(owner_sel)?;
            if self.mapdb.get(key)?.revoking() {
                return Err(Error::new(Code::RevokeInProgress));
            }
            Ok(key)
        })();
        match check {
            Err(e) => {
                if e.code() == Code::RevokeInProgress {
                    self.stats.pointless_denied += 1;
                }
                self.send_kreply(out, from, KReply::Obtain { op, result: Err(e) });
                self.cfg.cost.kcall_exit
            }
            Ok(parent_key) => {
                let my_op = self.alloc_op();
                let pe = self.pe_of_vpe(owner_vpe).expect("owner is local");
                self.send_upcall(
                    out,
                    pe,
                    Upcall::AcceptExchange {
                        op: my_op,
                        from_vpe: requester_vpe,
                        kind: ExchangeKind::Obtain,
                        sel: owner_sel,
                    },
                );
                self.park(
                    my_op,
                    PendingOp::Exchange(Phase::ObtainAtOwner {
                        caller_op: op,
                        caller_kernel: from,
                        child_key,
                        parent_key,
                        owner: owner_vpe,
                    }),
                );
                self.ref_cost() + self.cfg.cost.xfer_desc
            }
        }
    }

    /// Resumes [`Phase::ObtainAtOwner`]: the owner accepted (or denied)
    /// a remote obtain; link the child and reply with the capability
    /// description.
    pub(crate) fn obtain_owner_accept(
        &mut self,
        caller_op: OpId,
        caller_kernel: KernelId,
        child_key: DdlKey,
        parent_key: DdlKey,
        accept: bool,
        out: &mut Outbox,
    ) -> u64 {
        let result = (|| -> Result<CapDesc> {
            if !accept {
                return Err(Error::new(Code::ExchangeDenied));
            }
            let parent = self.mapdb.get(parent_key)?;
            if parent.revoking() {
                return Err(Error::new(Code::RevokeInProgress));
            }
            let kind = parent.kind;
            // C1 is added to C2's child list *before* the reply (§4.3.2);
            // if the requester died, it becomes an orphan the requester's
            // kernel tells us to remove.
            self.mapdb.link_child(parent_key, child_key)?;
            Ok(CapDesc { key: parent_key, kind })
        })();
        if let Err(e) = &result {
            if e.code() == Code::RevokeInProgress {
                self.stats.pointless_denied += 1;
            }
        }
        self.send_kreply(out, caller_kernel, KReply::Obtain { op: caller_op, result });
        self.ref_cost() + self.cfg.cost.cap_insert + self.cfg.cost.kcall_exit
    }

    /// Resumes [`Phase::ObtainRemote`]: requester-side completion of a
    /// group-spanning obtain.
    pub(crate) fn obtain_reply(
        &mut self,
        from: KernelId,
        tag: u64,
        requester: VpeId,
        child_key: DdlKey,
        result: &Result<CapDesc>,
        out: &mut Outbox,
    ) -> u64 {
        match result {
            Err(e) => {
                self.reply_sys(out, requester, tag, Err(*e));
                self.cfg.cost.syscall_exit
            }
            Ok(desc) => {
                if !self.vpe_alive(requester) {
                    // Orphaned: tell the kernel that answered — the
                    // parent's owner — to unlink the child reference it
                    // optimistically created.
                    self.send_kcall(
                        out,
                        from,
                        Kcall::OrphanNotice { parent_key: desc.key, child_key },
                    );
                    return self.cfg.cost.kcall_exit;
                }
                let table = self.table_mut(requester).expect("alive VPE has table");
                let sel = table.insert_new(child_key);
                self.mapdb
                    .insert(Capability::child(child_key, desc.kind, requester, sel, desc.key));
                self.stats.caps_created += 1;
                self.stats.exchanges_spanning += 1;
                self.reply_sys(out, requester, tag, Ok(SysReplyData::Sel(sel)));
                self.cfg.cost.xfer_desc
                    + self.cfg.cost.cap_create
                    + self.cfg.cost.cap_insert
                    + self.cfg.cost.syscall_exit
            }
        }
    }

    /// Owner-side cleanup of an orphaned child reference (the obtainer
    /// died before receiving the capability).
    pub(crate) fn orphan_notice(&mut self, parent_key: DdlKey, child_key: DdlKey) -> u64 {
        if self.mapdb.unlink_child(parent_key, child_key) {
            self.stats.orphans_cleaned += 1;
        }
        self.ref_cost()
    }

    // ----- delegate, group-spanning --------------------------------------

    /// Receiver-side request handler for [`Kcall::DelegateReq`] (first
    /// leg): fan out the consent upcall ([`Phase::DelegateAtRecv`]).
    pub(crate) fn delegate_request(
        &mut self,
        from: KernelId,
        op: OpId,
        parent_key: DdlKey,
        desc: CapKindDesc,
        recv_vpe: VpeId,
        out: &mut Outbox,
    ) -> u64 {
        if !self.vpe_alive(recv_vpe) {
            self.send_kreply(
                out,
                from,
                KReply::Delegate { op, result: Err(Error::new(Code::VpeGone)) },
            );
            return self.cfg.cost.kcall_exit;
        }
        let my_op = self.alloc_op();
        let pe = self.pe_of_vpe(recv_vpe).expect("recv is local");
        self.send_upcall(
            out,
            pe,
            Upcall::AcceptExchange {
                op: my_op,
                from_vpe: recv_vpe,
                kind: ExchangeKind::Delegate,
                sel: CapSel::INVALID,
            },
        );
        self.park(
            my_op,
            PendingOp::Exchange(Phase::DelegateAtRecv {
                caller_op: op,
                caller_kernel: from,
                parent_key,
                desc,
                recv: recv_vpe,
            }),
        );
        self.ref_cost() + self.cfg.cost.xfer_desc
    }

    /// Resumes [`Phase::DelegateAtRecv`]: the receiver accepted a remote
    /// delegate; create the capability.
    ///
    /// With the two-way handshake (default) the capability is parked
    /// uninserted until the delegator's kernel confirms the parent is
    /// still alive. With [`Feature::OneWayDelegate`] (ablation) it is
    /// inserted immediately — opening the *invalid-capability* window.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn delegate_recv_accept(
        &mut self,
        caller_op: OpId,
        caller_kernel: KernelId,
        parent_key: DdlKey,
        desc: CapKindDesc,
        recv: VpeId,
        accept: bool,
        out: &mut Outbox,
    ) -> u64 {
        if !accept {
            self.send_kreply(
                out,
                caller_kernel,
                KReply::Delegate { op: caller_op, result: Err(Error::new(Code::ExchangeDenied)) },
            );
            return self.cfg.cost.kcall_exit;
        }
        let pe = self.pe_of_vpe(recv).expect("recv is local");
        let child_key = self.keys.alloc(pe, recv, key_type_for(&desc));
        let cap = Capability::child(child_key, desc, recv, CapSel::INVALID, parent_key);

        if self.cfg.has_feature(Feature::OneWayDelegate) {
            // Ablation: naive one-way protocol — insert immediately.
            let table = self.table_mut(recv).expect("alive VPE has table");
            let sel = table.insert_new(child_key);
            self.mapdb.insert(cap.with_sel(sel));
            self.stats.caps_created += 1;
            let my_op = self.alloc_op();
            self.send_kreply(
                out,
                caller_kernel,
                KReply::Delegate { op: caller_op, result: Ok((child_key, my_op)) },
            );
            return self.cfg.cost.cap_create + self.cfg.cost.cap_insert + self.cfg.cost.kcall_exit;
        }

        let my_op = self.alloc_op();
        self.park(
            my_op,
            PendingOp::Exchange(Phase::DelegatePendingInsert { caller_kernel, cap: Box::new(cap) }),
        );
        self.send_kreply(
            out,
            caller_kernel,
            KReply::Delegate { op: caller_op, result: Ok((child_key, my_op)) },
        );
        self.cfg.cost.cap_create + self.cfg.cost.kcall_exit
    }

    /// Resumes [`Phase::DelegateRemote`]: delegator-side handling of the
    /// first-leg reply — validate the parent is still alive, then
    /// commit or abort. The ack goes to `from`, the receiver's kernel
    /// (the router resumed this phase for its reply only).
    pub(crate) fn delegate_reply(
        &mut self,
        from: KernelId,
        tag: u64,
        delegator: VpeId,
        parent_key: DdlKey,
        result: &Result<(DdlKey, OpId)>,
        out: &mut Outbox,
    ) -> u64 {
        match result {
            Err(e) => {
                self.reply_sys(out, delegator, tag, Err(*e));
                self.cfg.cost.syscall_exit
            }
            Ok((child_key, peer_op)) => {
                if self.cfg.has_feature(Feature::OneWayDelegate) {
                    // Ablation: link blindly, no validation, no ack.
                    let _ = self.mapdb.link_child(parent_key, *child_key);
                    self.stats.exchanges_spanning += 1;
                    self.reply_sys(
                        out,
                        delegator,
                        tag,
                        Ok(SysReplyData::Delegated { recv_sel: CapSel::INVALID }),
                    );
                    return self.cfg.cost.cap_insert + self.cfg.cost.syscall_exit;
                }

                // Validate: parent must still exist, not be in
                // revocation, and the delegator must still be alive.
                let valid = self.vpe_alive(delegator)
                    && self.mapdb.get(parent_key).map(|c| !c.revoking()).unwrap_or(false);
                let reply_op = self.alloc_op();
                if valid {
                    self.mapdb.link_child(parent_key, *child_key).expect("parent checked above");
                    self.send_kcall(
                        out,
                        from,
                        Kcall::DelegateAck { op: *peer_op, reply_op, commit: true },
                    );
                    self.park(
                        reply_op,
                        PendingOp::Exchange(Phase::DelegateWaitDone {
                            tag,
                            delegator,
                            parent_key,
                            child_key: *child_key,
                        }),
                    );
                    self.ref_cost() + self.cfg.cost.xfer_desc + self.cfg.cost.cap_insert
                } else {
                    let reason = if !self.vpe_alive(delegator) {
                        Error::new(Code::VpeGone)
                    } else if self.mapdb.contains(parent_key) {
                        self.stats.pointless_denied += 1;
                        Error::new(Code::RevokeInProgress)
                    } else {
                        Error::new(Code::NoSuchCap)
                    };
                    self.send_kcall(
                        out,
                        from,
                        Kcall::DelegateAck { op: *peer_op, reply_op, commit: false },
                    );
                    self.park(
                        reply_op,
                        PendingOp::Exchange(Phase::DelegateAborted {
                            tag,
                            delegator,
                            peer_kernel: from,
                            reason,
                        }),
                    );
                    self.ref_cost()
                }
            }
        }
    }

    /// Receiver-side handler for [`Kcall::DelegateAck`] (second leg):
    /// resumes [`Phase::DelegatePendingInsert`] through the ledger.
    pub(crate) fn delegate_ack(
        &mut self,
        from: KernelId,
        op: OpId,
        reply_op: OpId,
        commit: bool,
        out: &mut Outbox,
    ) -> u64 {
        let asked = match self.pending.get(op) {
            Some(state @ PendingOp::Exchange(Phase::DelegatePendingInsert { .. })) => {
                self.awaited_kernel(state)
            }
            _ => None,
        };
        // A second ack, or one from a kernel other than the
        // delegator's, is a kernel bug.
        assert!(asked == Some(from), "delegate ack {op} from {from}: no pending insert of its");
        let Some(PendingOp::Exchange(Phase::DelegatePendingInsert { cap, .. })) =
            self.pending.remove(op)
        else {
            unreachable!("checked above");
        };
        let result = if !commit {
            Err(Error::new(Code::ExchangeDenied))
        } else if !self.vpe_alive(cap.owner) {
            // Receiver died during the handshake: the capability is an
            // orphan; report it so the delegator unlinks the child
            // reference quickly (§4.3.2).
            self.stats.orphans_cleaned += 1;
            Err(Error::new(Code::VpeGone))
        } else {
            let table = self.table_mut(cap.owner).expect("alive VPE has table");
            let sel = table.insert_new(cap.key);
            self.mapdb.insert((*cap).with_sel(sel));
            self.stats.caps_created += 1;
            Ok(sel)
        };
        self.send_kreply(out, from, KReply::DelegateDone { op: reply_op, result });
        self.cfg.cost.cap_insert + self.cfg.cost.kcall_exit
    }

    /// Resumes [`Phase::DelegateWaitDone`]: delegator-side completion of
    /// the handshake.
    pub(crate) fn delegate_done(
        &mut self,
        tag: u64,
        delegator: VpeId,
        parent_key: DdlKey,
        child_key: DdlKey,
        result: Result<CapSel>,
        out: &mut Outbox,
    ) -> u64 {
        match result {
            Ok(recv_sel) => {
                self.stats.exchanges_spanning += 1;
                self.reply_sys(out, delegator, tag, Ok(SysReplyData::Delegated { recv_sel }));
            }
            Err(e) => {
                // Insertion failed (receiver died): unlink the child
                // reference we optimistically added.
                self.mapdb.unlink_child(parent_key, child_key);
                self.reply_sys(out, delegator, tag, Err(e));
            }
        }
        self.ref_cost() + self.cfg.cost.syscall_exit
    }

    /// Resumes [`Phase::DelegateAborted`]: the receiver confirmed the
    /// abort; fail the system call with the recorded reason.
    pub(crate) fn delegate_done_aborted(
        &mut self,
        tag: u64,
        delegator: VpeId,
        reason: Error,
        out: &mut Outbox,
    ) -> u64 {
        self.reply_sys(out, delegator, tag, Err(reason));
        self.cfg.cost.syscall_exit
    }

    /// Cancellation for exchange phases awaiting a consent upcall whose
    /// responder VPE died (engine teardown sweep).
    pub(crate) fn cancel_exchange_phase(&mut self, phase: Phase, out: &mut Outbox) {
        match phase {
            Phase::LocalAccept { tag, initiator, .. } => {
                self.reply_sys(out, initiator, tag, Err(Error::new(Code::VpeGone)));
            }
            Phase::ObtainAtOwner { caller_op, caller_kernel, .. } => {
                self.send_kreply(
                    out,
                    caller_kernel,
                    KReply::Obtain { op: caller_op, result: Err(Error::new(Code::VpeGone)) },
                );
            }
            Phase::DelegateAtRecv { caller_op, caller_kernel, .. } => {
                self.send_kreply(
                    out,
                    caller_kernel,
                    KReply::Delegate { op: caller_op, result: Err(Error::new(Code::VpeGone)) },
                );
            }
            other => unreachable!("{} is not cancelled via upcall sweep", other.spec().name),
        }
    }
}

/// DDL key type matching a resource description.
fn key_type_for(desc: &CapKindDesc) -> CapType {
    match desc {
        CapKindDesc::Vpe { .. } => CapType::Vpe,
        CapKindDesc::Memory { .. } => CapType::Memory,
        CapKindDesc::SendGate { .. } => CapType::SendGate,
        CapKindDesc::RecvGate { .. } => CapType::RecvGate,
        CapKindDesc::Service { .. } => CapType::Service,
        CapKindDesc::Session { .. } => CapType::Session,
        CapKindDesc::Kernel => CapType::Kernel,
    }
}
