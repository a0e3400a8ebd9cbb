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
//!
//! # Paper §4.3.2 → phases
//!
//! | paper step | phase |
//! |---|---|
//! | Fig. 3 A.2/A.3 consent upcall (group-local exchange) | [`LocalAccept`] |
//! | Fig. 3 B.2 obtain request at the owner's kernel | [`ObtainRemote`] → [`ObtainAtOwner`] |
//! | two-way delegate handshake, first leg | [`DelegateRemote`] → [`DelegateAtRecv`] |
//! | two-way delegate handshake, second leg | [`DelegatePendingInsert`] / [`DelegateWaitDone`] / [`DelegateAborted`] |

use semper_base::config::Feature;
use semper_base::msg::{CapDesc, CapKindDesc, KReply, Kcall, SysReplyData, Upcall, UpcallReply};
use semper_base::{
    CapSel, CapType, Code, DdlKey, Error, ExchangeKind, KernelId, OpId, Result, VpeId,
};
use semper_caps::Capability;

use crate::kernel::Kernel;
use crate::ops::{Answer, PendingOp};
use crate::outbox::Outbox;

/// The exchange protocol's phases (Figure 3 sequences A and B, plus the
/// §4.3.2 delegate handshake legs). Each variant holds the struct of its
/// name: the whole continuation its resume handler takes back.
#[derive(Debug, Clone)]
pub enum Phase {
    LocalAccept(LocalAccept),
    ObtainRemote(ObtainRemote),
    ObtainAtOwner(ObtainAtOwner),
    DelegateRemote(DelegateRemote),
    DelegateWaitDone(DelegateWaitDone),
    DelegateAtRecv(DelegateAtRecv),
    DelegatePendingInsert(DelegatePendingInsert),
    DelegateAborted(DelegateAborted),
}

/// A.2: group-local exchange awaiting the peer VPE's consent.
#[derive(Debug, Clone)]
pub struct LocalAccept {
    /// Tag of the initiating system call.
    pub tag: u64,
    /// The initiating VPE.
    pub initiator: VpeId,
    /// The peer VPE (same group).
    pub peer: VpeId,
    /// Obtain or delegate.
    pub kind: ExchangeKind,
    /// Delegate: the initiator's capability selector.
    pub own_sel: CapSel,
    /// Obtain: the peer's capability selector.
    pub other_sel: CapSel,
}

/// B.2 (requester side): awaiting `KReply::Obtain` from the owner's
/// kernel.
#[derive(Debug, Clone)]
pub struct ObtainRemote {
    /// Tag of the initiating system call.
    pub tag: u64,
    /// The obtaining VPE.
    pub requester: VpeId,
    /// Pre-allocated key of the new child capability.
    pub child_key: DdlKey,
    /// The owner's kernel.
    pub peer_kernel: KernelId,
}

/// B.3 (owner side): awaiting the owner VPE's consent upcall.
#[derive(Debug, Clone)]
pub struct ObtainAtOwner {
    /// The requester kernel's correlation id (echo in reply).
    pub caller_op: OpId,
    /// The requester's kernel.
    pub caller_kernel: KernelId,
    /// Key of the new child capability (allocated by the caller).
    pub child_key: DdlKey,
    /// Key of the parent capability (owned here).
    pub parent_key: DdlKey,
    /// The VPE owning the parent.
    pub owner: VpeId,
}

/// Handshake leg 1 (delegator side): awaiting `KReply::Delegate`.
#[derive(Debug, Clone)]
pub struct DelegateRemote {
    /// Tag of the initiating system call.
    pub tag: u64,
    /// The delegating VPE.
    pub delegator: VpeId,
    /// Key of the capability being delegated.
    pub parent_key: DdlKey,
    /// The receiver's kernel.
    pub peer_kernel: KernelId,
}

/// Handshake leg 2 (delegator side): commit ack sent, awaiting
/// `KReply::DelegateDone`.
#[derive(Debug, Clone)]
pub struct DelegateWaitDone {
    /// Tag of the initiating system call.
    pub tag: u64,
    /// The delegating VPE.
    pub delegator: VpeId,
    /// Key of the parent capability.
    pub parent_key: DdlKey,
    /// Key of the child capability at the receiver.
    pub child_key: DdlKey,
    /// The receiver's kernel, which confirms the insert.
    pub peer_kernel: KernelId,
}

/// Receiver side: awaiting the receiving VPE's consent upcall.
#[derive(Debug, Clone)]
pub struct DelegateAtRecv {
    /// The delegator kernel's correlation id (echo in reply).
    pub caller_op: OpId,
    /// The delegator's kernel.
    pub caller_kernel: KernelId,
    /// Key of the parent capability (owned by the caller).
    pub parent_key: DdlKey,
    /// Resource description for the new capability.
    pub desc: CapKindDesc,
    /// The receiving VPE.
    pub recv: VpeId,
}

/// Receiver side: capability created but *not inserted*, awaiting
/// `Kcall::DelegateAck` (§4.3.2's two-way handshake; prevents
/// *invalid* capabilities).
#[derive(Debug, Clone)]
pub struct DelegatePendingInsert {
    /// The delegator's kernel (to report insertion failure).
    pub caller_kernel: KernelId,
    /// The fully built but uninserted capability.
    pub cap: Box<Capability>,
}

/// Delegator side: parent turned out invalid after leg 1; abort ack
/// sent, awaiting the `DelegateDone` confirmation before failing the
/// system call.
#[derive(Debug, Clone)]
pub struct DelegateAborted {
    /// Tag of the initiating system call.
    pub tag: u64,
    /// The delegating VPE.
    pub delegator: VpeId,
    /// The receiver's kernel, which confirms the abort.
    pub peer_kernel: KernelId,
    /// Why the delegate was aborted.
    pub reason: Error,
}

impl Phase {
    /// The phase's name, for crash points, logs and assertions.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::LocalAccept(_) => "exchange-local",
            Phase::ObtainRemote(_) => "obtain-remote",
            Phase::ObtainAtOwner(_) => "obtain-at-owner",
            Phase::DelegateRemote(_) => "delegate-remote",
            Phase::DelegateWaitDone(_) => "delegate-wait-done",
            Phase::DelegateAtRecv(_) => "delegate-at-recv",
            Phase::DelegatePendingInsert(_) => "delegate-pending-insert",
            Phase::DelegateAborted(_) => "delegate-aborted",
        }
    }

    /// True if the phase parks a cooperative kernel thread (§4.2): all
    /// but an uninserted delegate capability, which is pure state.
    pub fn holds_thread(&self) -> bool {
        !matches!(self, Phase::DelegatePendingInsert(_))
    }

    /// The VPE whose consent upcall this phase awaits (its death
    /// cancels the operation; see [`PendingOp::upcall_responder`]).
    pub fn upcall_responder(&self) -> Option<VpeId> {
        match self {
            Phase::LocalAccept(p) => Some(p.peer),
            Phase::ObtainAtOwner(p) => Some(p.owner),
            Phase::DelegateAtRecv(p) => Some(p.recv),
            _ => None,
        }
    }

    /// The peer kernel the phase awaits ([`PendingOp::awaited_kernel`]).
    pub fn awaited_kernel(&self) -> Option<KernelId> {
        match self {
            Phase::ObtainRemote(ObtainRemote { peer_kernel: k, .. })
            | Phase::DelegateRemote(DelegateRemote { peer_kernel: k, .. })
            | Phase::DelegateWaitDone(DelegateWaitDone { peer_kernel: k, .. })
            | Phase::DelegateAborted(DelegateAborted { peer_kernel: k, .. })
            | Phase::ObtainAtOwner(ObtainAtOwner { caller_kernel: k, .. })
            | Phase::DelegateAtRecv(DelegateAtRecv { caller_kernel: k, .. })
            | Phase::DelegatePendingInsert(DelegatePendingInsert { caller_kernel: k, .. }) => {
                Some(*k)
            }
            Phase::LocalAccept(_) => None,
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
            Err(e) => self.refuse(out, vpe, tag, e),
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

        // For a delegate, the initiator's capability must be usable.
        let parent = match kind {
            ExchangeKind::Delegate => {
                let key = self.bound(vpe, own_sel)?;
                Some((key, self.usable(key)?.kind))
            }
            ExchangeKind::Obtain => None,
        };

        if peer_kernel == self.id {
            // Group-local: the peer's capabilities are ours to inspect.
            if !self.vpe_alive(other) {
                return Err(Error::new(Code::VpeGone));
            }
            if kind == ExchangeKind::Obtain {
                self.usable(self.bound(other, other_sel)?)?;
            }
            let op = self.alloc_op();
            let peer_pe = self.pe_of_vpe(other)?;
            self.send_upcall(
                out,
                peer_pe,
                Upcall::AcceptExchange { op, from_vpe: vpe, kind, sel: other_sel },
            );
            let phase = LocalAccept { tag, initiator: vpe, peer: other, kind, own_sel, other_sel };
            self.park(op, PendingOp::Exchange(Phase::LocalAccept(phase)));
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
                    let child_key = self.new_key(vpe, CapType::Memory)?;
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
                    let phase = ObtainRemote { tag, requester: vpe, child_key, peer_kernel };
                    self.park(op, PendingOp::Exchange(Phase::ObtainRemote(phase)));
                }
                ExchangeKind::Delegate => {
                    let (parent_key, desc) = parent.expect("checked above for delegate");
                    self.send_kcall(
                        out,
                        peer_kernel,
                        Kcall::DelegateReq { op, parent_key, desc, recv_vpe: other },
                    );
                    let phase = DelegateRemote { tag, delegator: vpe, parent_key, peer_kernel };
                    self.park(op, PendingOp::Exchange(Phase::DelegateRemote(phase)));
                }
            }
            Ok(2 * self.ref_cost())
        }
    }

    /// Resumes [`LocalAccept`]: the peer answered the consent upcall;
    /// complete the group-local exchange.
    fn local_exchange_accept(&mut self, phase: LocalAccept, accept: bool, out: &mut Outbox) -> u64 {
        let LocalAccept { tag, initiator, peer, kind, own_sel, other_sel } = phase;
        if !accept {
            return self.refuse(out, initiator, tag, Error::new(Code::ExchangeDenied));
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
        let parent_key = self.bound(owner, sel)?;
        let desc = self.usable(parent_key)?.kind;
        let child_key = self.new_key(receiver, key_type_for(&desc))?;
        Ok(self.install(Capability::child(child_key, desc, receiver, CapSel::INVALID, parent_key)))
    }

    // ----- obtain, group-spanning ---------------------------------------

    /// Owner-side request handler for [`Kcall::ObtainReq`]: validate,
    /// then fan out the consent upcall ([`ObtainAtOwner`]).
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
            let key = self.bound(owner_vpe, owner_sel)?;
            self.usable(key)?;
            Ok(key)
        })();
        match check {
            Err(e) => {
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
                let phase = ObtainAtOwner {
                    caller_op: op,
                    caller_kernel: from,
                    child_key,
                    parent_key,
                    owner: owner_vpe,
                };
                self.park(my_op, PendingOp::Exchange(Phase::ObtainAtOwner(phase)));
                self.ref_cost() + self.cfg.cost.xfer_desc
            }
        }
    }

    /// Resumes [`ObtainAtOwner`]: the owner accepted (or denied) a
    /// remote obtain; link the child and reply with the capability
    /// description.
    fn obtain_owner_accept(&mut self, phase: ObtainAtOwner, accept: bool, out: &mut Outbox) -> u64 {
        let ObtainAtOwner { caller_op, caller_kernel, child_key, parent_key, .. } = phase;
        let result = (|| -> Result<CapDesc> {
            if !accept {
                return Err(Error::new(Code::ExchangeDenied));
            }
            let kind = self.usable(parent_key)?.kind;
            // C1 is added to C2's child list *before* the reply (§4.3.2);
            // if the requester died, it becomes an orphan the requester's
            // kernel tells us to remove.
            self.mapdb.link_child(parent_key, child_key)?;
            Ok(CapDesc { key: parent_key, kind })
        })();
        self.send_kreply(out, caller_kernel, KReply::Obtain { op: caller_op, result });
        self.ref_cost() + self.cfg.cost.cap_insert + self.cfg.cost.kcall_exit
    }

    /// Resumes [`ObtainRemote`]: requester-side completion of a
    /// group-spanning obtain.
    fn obtain_reply(
        &mut self,
        phase: ObtainRemote,
        result: &Result<CapDesc>,
        out: &mut Outbox,
    ) -> u64 {
        let ObtainRemote { tag, requester, child_key, .. } = phase;
        match result {
            Err(e) => self.refuse(out, requester, tag, *e),
            Ok(desc) => {
                if !self.vpe_alive(requester) {
                    return self.orphaned(desc.key, child_key, out);
                }
                let child =
                    Capability::child(child_key, desc.kind, requester, CapSel::INVALID, desc.key);
                let sel = self.install(child);
                self.stats.exchanges_spanning += 1;
                self.reply_sys(out, requester, tag, Ok(SysReplyData::Sel(sel)));
                self.cfg.cost.xfer_desc
                    + self.cfg.cost.cap_create
                    + self.cfg.cost.cap_insert
                    + self.cfg.cost.syscall_exit
            }
        }
    }

    /// An obtained or session child whose VPE died before it was
    /// installed is Table 2's *orphaned* case: the parent's kernel, which
    /// answered, unlinks the child reference it optimistically created.
    /// Counted here, where the orphan is found, as the notice leaves.
    pub(crate) fn orphaned(&mut self, parent: DdlKey, child: DdlKey, out: &mut Outbox) -> u64 {
        if self.unlink(parent, child, out) {
            self.stats.orphans_cleaned += 1;
        }
        self.cfg.cost.kcall_exit
    }

    // ----- delegate, group-spanning --------------------------------------

    /// Receiver-side request handler for [`Kcall::DelegateReq`] (first
    /// leg): fan out the consent upcall ([`DelegateAtRecv`]).
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
        let phase =
            DelegateAtRecv { caller_op: op, caller_kernel: from, parent_key, desc, recv: recv_vpe };
        self.park(my_op, PendingOp::Exchange(Phase::DelegateAtRecv(phase)));
        self.ref_cost() + self.cfg.cost.xfer_desc
    }

    /// Resumes [`DelegateAtRecv`]: the receiver accepted a remote
    /// delegate; create the capability.
    ///
    /// With the two-way handshake (default) the capability is parked
    /// uninserted until the delegator's kernel confirms the parent is
    /// still alive. With [`Feature::OneWayDelegate`] (ablation) it is
    /// inserted immediately — opening the *invalid-capability* window.
    fn delegate_recv_accept(
        &mut self,
        phase: DelegateAtRecv,
        accept: bool,
        out: &mut Outbox,
    ) -> u64 {
        let DelegateAtRecv { caller_op, caller_kernel, parent_key, desc, recv } = phase;
        let denied = Err(Error::new(Code::ExchangeDenied));
        let key = if accept { self.new_key(recv, key_type_for(&desc)) } else { denied };
        let child_key = match key {
            Ok(key) => key,
            Err(e) => {
                let reply = KReply::Delegate { op: caller_op, result: Err(e) };
                self.send_kreply(out, caller_kernel, reply);
                return self.cfg.cost.kcall_exit;
            }
        };
        let cap = Capability::child(child_key, desc, recv, CapSel::INVALID, parent_key);

        if self.cfg.has_feature(Feature::OneWayDelegate) {
            // Ablation: naive one-way protocol — insert immediately.
            self.install(cap);
            let my_op = self.alloc_op();
            self.send_kreply(
                out,
                caller_kernel,
                KReply::Delegate { op: caller_op, result: Ok((child_key, my_op)) },
            );
            return self.cfg.cost.cap_create + self.cfg.cost.cap_insert + self.cfg.cost.kcall_exit;
        }

        let my_op = self.alloc_op();
        let phase = DelegatePendingInsert { caller_kernel, cap: Box::new(cap) };
        self.park(my_op, PendingOp::Exchange(Phase::DelegatePendingInsert(phase)));
        self.send_kreply(
            out,
            caller_kernel,
            KReply::Delegate { op: caller_op, result: Ok((child_key, my_op)) },
        );
        self.cfg.cost.cap_create + self.cfg.cost.kcall_exit
    }

    /// Resumes [`DelegateRemote`]: delegator-side handling of the
    /// first-leg reply — validate the parent is still alive, then
    /// commit or abort. The ack goes to the receiver's kernel, the one
    /// that answered.
    fn delegate_reply(
        &mut self,
        phase: DelegateRemote,
        result: &Result<(DdlKey, OpId)>,
        out: &mut Outbox,
    ) -> u64 {
        let DelegateRemote { tag, delegator, parent_key, peer_kernel } = phase;
        match result {
            Err(e) => self.refuse(out, delegator, tag, *e),
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

                // Validate: the delegator must still be alive and the
                // parent still usable.
                let admitted = if self.vpe_alive(delegator) {
                    self.usable(parent_key).map(|_| ())
                } else {
                    Err(Error::new(Code::VpeGone))
                };
                let reply_op = self.alloc_op();
                if let Err(reason) = admitted {
                    self.send_kcall(
                        out,
                        peer_kernel,
                        Kcall::DelegateAck { op: *peer_op, reply_op, commit: false },
                    );
                    let phase = DelegateAborted { tag, delegator, peer_kernel, reason };
                    self.park(reply_op, PendingOp::Exchange(Phase::DelegateAborted(phase)));
                    self.ref_cost()
                } else {
                    self.mapdb.link_child(parent_key, *child_key).expect("parent checked above");
                    self.send_kcall(
                        out,
                        peer_kernel,
                        Kcall::DelegateAck { op: *peer_op, reply_op, commit: true },
                    );
                    let phase = DelegateWaitDone {
                        tag,
                        delegator,
                        parent_key,
                        child_key: *child_key,
                        peer_kernel,
                    };
                    self.park(reply_op, PendingOp::Exchange(Phase::DelegateWaitDone(phase)));
                    self.ref_cost() + self.cfg.cost.xfer_desc + self.cfg.cost.cap_insert
                }
            }
        }
    }

    /// Resumes [`DelegatePendingInsert`] with the delegator kernel's
    /// [`Kcall::DelegateAck`] (second leg): insert or drop the capability.
    fn delegate_ack(
        &mut self,
        phase: DelegatePendingInsert,
        reply_op: OpId,
        commit: bool,
        out: &mut Outbox,
    ) -> u64 {
        let DelegatePendingInsert { caller_kernel, cap } = phase;
        let result = if !commit {
            Err(Error::new(Code::ExchangeDenied))
        } else if !self.vpe_alive(cap.owner) {
            // Receiver died during the handshake: the capability is an
            // orphan; report it so the delegator unlinks the child
            // reference quickly (§4.3.2).
            self.stats.orphans_cleaned += 1;
            Err(Error::new(Code::VpeGone))
        } else {
            Ok(self.install(*cap))
        };
        self.send_kreply(out, caller_kernel, KReply::DelegateDone { op: reply_op, result });
        self.cfg.cost.cap_insert + self.cfg.cost.kcall_exit
    }

    /// Resumes [`DelegateWaitDone`]: delegator-side completion of the
    /// handshake.
    fn delegate_done(
        &mut self,
        phase: DelegateWaitDone,
        result: Result<CapSel>,
        out: &mut Outbox,
    ) -> u64 {
        let DelegateWaitDone { tag, delegator, parent_key, child_key, .. } = phase;
        match result {
            Ok(recv_sel) => {
                self.stats.exchanges_spanning += 1;
                self.reply_sys(out, delegator, tag, Ok(SysReplyData::Delegated { recv_sel }));
            }
            Err(e) => {
                // Insertion failed (receiver died): unlink the child
                // reference we optimistically added.
                self.unlink(parent_key, child_key, out);
                self.reply_sys(out, delegator, tag, Err(e));
            }
        }
        self.ref_cost() + self.cfg.cost.syscall_exit
    }

    /// Resumes a parked exchange with the answer it awaited; the router
    /// checked who answered (see `Kernel::resume`). An answer of another
    /// kind from the awaited kernel is a kernel bug, and panics.
    pub(crate) fn resume_exchange(
        &mut self,
        phase: Phase,
        answer: Answer,
        out: &mut Outbox,
    ) -> u64 {
        use UpcallReply::AcceptExchange as Consent;
        match (phase, answer) {
            (Phase::LocalAccept(p), Answer::Upcall(Consent { accept, .. })) => {
                self.local_exchange_accept(p, *accept, out)
            }
            (Phase::ObtainAtOwner(p), Answer::Upcall(Consent { accept, .. })) => {
                self.obtain_owner_accept(p, *accept, out)
            }
            (Phase::DelegateAtRecv(p), Answer::Upcall(Consent { accept, .. })) => {
                self.delegate_recv_accept(p, *accept, out)
            }
            (Phase::ObtainRemote(p), Answer::KReply(KReply::Obtain { result, .. })) => {
                self.obtain_reply(p, result, out)
            }
            (Phase::DelegateRemote(p), Answer::KReply(KReply::Delegate { result, .. })) => {
                self.delegate_reply(p, result, out)
            }
            (
                Phase::DelegatePendingInsert(p),
                Answer::Kcall(Kcall::DelegateAck { reply_op, commit, .. }),
            ) => self.delegate_ack(p, *reply_op, *commit, out),
            (Phase::DelegateWaitDone(p), Answer::KReply(KReply::DelegateDone { result, .. })) => {
                self.delegate_done(p, *result, out)
            }
            // The receiver confirmed the abort: fail the system call
            // with the recorded reason.
            (Phase::DelegateAborted(p), Answer::KReply(KReply::DelegateDone { .. })) => {
                self.refuse(out, p.delegator, p.tag, p.reason)
            }
            (phase, answer) => panic!("{answer:?} cannot resume {}", phase.name()),
        }
    }

    /// Fails a parked exchange towards whoever waits for it — the VPE
    /// that made the system call, or the caller's kernel — with `err`
    /// (see `Kernel::fail_parked`).
    pub(crate) fn fail_exchange_phase(&mut self, phase: Phase, err: Error, out: &mut Outbox) {
        match phase {
            // For `DelegateWaitDone` the receiver's kernel died, with the
            // child inserted or not; we can no longer learn which.
            // Nothing is cleaned up: the delegator keeps its link to the
            // child, like every link a survivor holds into a dead kernel.
            Phase::LocalAccept(LocalAccept { tag, initiator: vpe, .. })
            | Phase::ObtainRemote(ObtainRemote { tag, requester: vpe, .. })
            | Phase::DelegateRemote(DelegateRemote { tag, delegator: vpe, .. })
            | Phase::DelegateWaitDone(DelegateWaitDone { tag, delegator: vpe, .. }) => {
                self.reply_sys(out, vpe, tag, Err(err));
            }
            Phase::DelegateAborted(p) => self.reply_sys(out, p.delegator, p.tag, Err(p.reason)),
            Phase::ObtainAtOwner(p) => {
                let reply = KReply::Obtain { op: p.caller_op, result: Err(err) };
                self.send_kreply(out, p.caller_kernel, reply);
            }
            Phase::DelegateAtRecv(p) => {
                let reply = KReply::Delegate { op: p.caller_op, result: Err(err) };
                self.send_kreply(out, p.caller_kernel, reply);
            }
            // Never inserted — §4.3.2's whole point: dropping the
            // pending capability is safe and complete.
            Phase::DelegatePendingInsert(_) => {}
        }
    }
}

/// DDL key type matching a resource description.
fn key_type_for(desc: &CapKindDesc) -> CapType {
    match desc {
        CapKindDesc::Vpe { .. } => CapType::Vpe,
        CapKindDesc::Memory { .. } => CapType::Memory,
        CapKindDesc::Service { .. } => CapType::Service,
        CapKindDesc::Session { .. } => CapType::Session,
    }
}
