//! The distributed-operation engine (§4.3).
//!
//! Every cross-kernel operation in the paper's capability protocol has
//! the same shape: a **local start** (system call or machine control),
//! a **fan-out** of inter-kernel calls and/or consent upcalls, a
//! **collection** of replies tracked by pending-op state, and a
//! **completion** that notifies whoever started the operation. The
//! engine factors that shape out once; a protocol is then *declared* as
//! a set of typed phases plus the handler for each phase transition:
//!
//! * [`PendingOp`] — the union of all suspended phases, one variant per
//!   protocol ([`exchange`], [`session`], [`revoke`]). Each phase is a
//!   named struct carrying exactly the continuation state its resume
//!   handler takes back whole. Each protocol's module doc maps the
//!   paper's steps to its phases.
//! * Each protocol answers the per-phase questions about its own
//!   phases: a phase's name (crash points, logs), whether it parks a
//!   cooperative kernel thread (the §4.2 pool accounting the ledger
//!   keeps), which VPE or kernel it awaits, and how it fails when that
//!   answer will not come. [`PendingOp`] only forwards to the protocol.
//! * [`ledger::PendingTable`] — the one shared pending-op ledger, keyed
//!   by correlation id ([`semper_base::OpId`]).
//! * The **reply router** (`Kernel::route_kcall` / `route_kreply` /
//!   `route_upcall_reply` below) — the single dispatch point for every
//!   inter-kernel call, reply, and upcall answer. Requests dispatch
//!   straight to the protocol's request handler. For an answer the
//!   router checks only who answered: the kernel the phase awaits, or
//!   the VPE asked, with an answer of its protocol's kind. Then
//!   `Kernel::resume` takes the phase out of the ledger and hands it,
//!   with the answer, to its protocol, which matches its own
//!   (phase, answer) pairs.
//! * [`revoke::FanIn`] — revocation's counted completion (its
//!   outstanding remote subtrees and the concurrent revokes it waits
//!   for), with a running tally for the statistics the reply carries
//!   back.
//!
//! # One of each
//!
//! Every protocol-independent concept exists once: one `Syscall` →
//! handler table (`Kernel::dispatch_syscall`), one completion funnel
//! (`Kernel::reply_sys`, a message to the VPE) and one refusal on it
//! (`Kernel::refuse`, which also charges the exit), one key allocation
//! (`Kernel::new_key`), one way into the forest (`Kernel::install`,
//! which links a child under a local parent) and one out of a parent's
//! list outside the sweep (`Kernel::unlink`, in place or by a notice to
//! the parent's kernel), one selector lookup (`Kernel::bound`), one
//! admission check (`Kernel::usable`: a capability under revocation is
//! refused and counted there, Table 2's *pointless* case, and nowhere
//! else), one credit-gated request send (`Kernel::send_kcall_at`), one
//! mark walk and one delete pass for Algorithm 1 (`Kernel::mark_subtree`
//! / `Kernel::delete_marked` in [`revoke`], driven by revoke system
//! calls, VPE exits and incoming revoke requests, batched or not,
//! alike), and one way to kill a VPE (`Kernel::terminate_vpe`, behind
//! both `Syscall::Exit` and the machine's `Kernel::kill_vpe`).
//!
//! State that outlives a single parked phase lives with its protocol,
//! not as loose fields on `Kernel`: `revoke::RevokeState` and the
//! kernel's `CreditGate`. The rest of the kernel asks each of them one
//! question only — *are you quiescent?* (`Kernel::check_quiescent`).
//!
//! # What a new protocol costs
//!
//! Session establishment ([`session`]) is the smallest example: a
//! distributed operation is its phase enum (three variants, one struct
//! each) with its answers — `name`, `upcall_responder`, `awaited_kernel`
//! (which tells the reply router who may answer and `Kernel::peer_down`
//! whose death ends the phase), one `resume_*` that matches each phase
//! with the answer it awaits, and one `fail_*_phase` — one request
//! handler per participant role, one resume handler per phase, and one
//! arm in each of [`PendingOp`]'s forwarders and `Kernel::resume`. The
//! ledger, router, credit gating, thread accounting and the one sweep
//! that ends a parked phase (`Kernel::fail_parked`) are all inherited.
//! The pre-engine protocols carried ~150 LoC of that plumbing *each*.
//!
//! # Determinism contract
//!
//! The engine preserves the pre-engine protocols bit-for-bit: the same
//! messages with the same payloads leave in the same order at the same
//! modeled cycle costs, proven by the pinned goldens in
//! `tests/determinism.rs` and the full-trace fingerprints in
//! `crates/kernel/tests/ops_trace.rs`.

pub mod exchange;
pub mod faults;
pub mod ledger;
pub mod memops;
pub mod revoke;
pub mod session;

use semper_base::msg::{KReply, Kcall, UpcallReply};
use semper_base::{Code, Error, KernelId, OpId, PeId, VpeId};

use crate::kernel::Kernel;
use crate::outbox::Outbox;

/// The answer a parked phase awaits, as it arrived: a kernel's reply or
/// request (the delegate handshake's ack), or a VPE's upcall answer.
#[derive(Debug)]
pub(crate) enum Answer<'a> {
    /// An inter-kernel request that resumes a phase.
    Kcall(&'a Kcall),
    /// An inter-kernel reply.
    KReply(&'a KReply),
    /// A VPE's upcall answer.
    Upcall(&'a UpcallReply),
}

/// A suspended distributed operation: one protocol's phase, parked in
/// the shared ledger under its correlation id.
#[derive(Debug, Clone)]
pub enum PendingOp {
    /// Capability exchange (obtain / delegate, §4.3.2).
    Exchange(exchange::Phase),
    /// Session establishment (§3.4).
    Session(session::Phase),
    /// Revocation (§4.3.3, Algorithm 1), its one phase.
    Revoke(revoke::RevokeOp),
}

impl PendingOp {
    /// The phase's name, for crash points, logs and assertions.
    pub fn name(&self) -> &'static str {
        match self {
            PendingOp::Exchange(p) => p.name(),
            PendingOp::Session(p) => p.name(),
            PendingOp::Revoke(op) => op.name(),
        }
    }

    /// True if this suspended phase parks a cooperative kernel thread
    /// (§4.2). A revocation holds one as its initiator does.
    pub fn holds_thread(&self) -> bool {
        match self {
            PendingOp::Exchange(p) => p.holds_thread(),
            PendingOp::Session(_) => true,
            PendingOp::Revoke(op) => op.initiator.holds_thread(),
        }
    }

    /// The local VPE whose upcall answer this phase awaits: the VPE
    /// asked for consent to an exchange, or the service VPE asked to
    /// open a session. Its death fails the phase with `VpeGone`.
    pub fn upcall_responder(&self) -> Option<VpeId> {
        match self {
            PendingOp::Exchange(p) => p.upcall_responder(),
            PendingOp::Session(p) => p.upcall_responder(),
            PendingOp::Revoke(_) => None,
        }
    }

    /// The one peer kernel this phase cannot make progress without: the
    /// kernel it asked, or the remote caller it serves. The reply router
    /// resumes the phase only for a reply from it (nothing is relayed),
    /// and `Kernel::peer_down` fails the phase when it dies. `None` for
    /// phases waiting on local VPEs only, and for a revocation, which
    /// awaits its legs (counted per kernel) and local revocations.
    pub fn awaited_kernel(&self) -> Option<KernelId> {
        match self {
            PendingOp::Exchange(p) => p.awaited_kernel(),
            PendingOp::Session(p) => p.awaited_kernel(),
            PendingOp::Revoke(_) => None,
        }
    }
}

impl Kernel {
    // ----- the reply router ---------------------------------------------
    //
    // One dispatch point per message class. Requests go straight to the
    // protocol's request handler; answers resume the parked phase
    // through `Kernel::resume`. The modeled entry costs are charged
    // here, once, so every protocol pays the same dispatch price it did
    // pre-engine.

    /// The kernel speaking from `src`, or `None` if `src` is not a
    /// kernel's own PE. The membership table maps a *VPE's* PE to its
    /// group's kernel too, so the group lookup alone would let any VPE
    /// speak as its kernel to every other kernel (in the real system
    /// the DTU's endpoint configuration forbids that). Also `None` for a
    /// kernel declared dead (`Kernel::peer_down`): every phase its reply
    /// could answer has ended, and a request from it could only park a
    /// phase that awaits it.
    fn sending_kernel(&self, src: PeId) -> Option<KernelId> {
        let from = self.membership.kernel_of(src);
        (self.membership.kernel_pe(from) == src && !self.peer_dead(from)).then_some(from)
    }

    /// Routes one inter-kernel request to its protocol handler.
    /// Membership is static, so the request is always handled where it
    /// arrives. One that does not come from a live kernel's PE is
    /// dropped at zero cost, in every profile.
    pub(crate) fn route_kcall(&mut self, src: PeId, call: &Kcall, out: &mut Outbox) -> u64 {
        let Some(from) = self.sending_kernel(src) else { return 0 };
        let cost = match call {
            Kcall::AnnounceService { id, name, owner, srv_key, srv_pe, srv_vpe } => self
                .announce_service(crate::registry::ServiceInfo {
                    id: *id,
                    name: *name,
                    owner: *owner,
                    srv_key: *srv_key,
                    srv_pe: *srv_pe,
                    srv_vpe: *srv_vpe,
                }),
            Kcall::ObtainReq { op, child_key, owner_vpe, owner_sel, requester_vpe } => self
                .obtain_request(from, *op, *child_key, *owner_vpe, *owner_sel, *requester_vpe, out),
            // The unlink notice: an orphan's, or a revoked root's.
            Kcall::OrphanNotice { parent_key, child_key } => {
                self.unlink(*parent_key, *child_key, out);
                self.ref_cost()
            }
            Kcall::DelegateReq { op, parent_key, desc, recv_vpe } => {
                self.delegate_request(from, *op, *parent_key, *desc, *recv_vpe, out)
            }
            Kcall::DelegateAck { op, .. } => {
                self.resume_from_kernel(from, *op, Answer::Kcall(call), out)
            }
            Kcall::RevokeReq { op, cap_key } => {
                self.revoke_request(from, *op, std::slice::from_ref(cap_key), out)
            }
            Kcall::RevokeBatchReq { op, cap_keys } => self.revoke_request(from, *op, cap_keys, out),
            Kcall::OpenSessReq { op, child_key, service, client_vpe } => {
                self.open_sess_request(from, *op, *child_key, *service, *client_vpe, out)
            }
        };
        self.cfg.cost.kcall_entry + cost
    }

    /// Routes one inter-kernel reply: counted completions (revocation)
    /// decrement their fan-in; everything else resumes a parked phase.
    /// Like a request, a reply that does not come from a live kernel's
    /// PE is dropped at zero cost.
    pub(crate) fn route_kreply(&mut self, src: PeId, reply: &KReply, out: &mut Outbox) -> u64 {
        let Some(from) = self.sending_kernel(src) else { return 0 };
        match reply {
            // Revoke completions are counter decrements (Algorithm 1's
            // `receive_revoke_reply`), far cheaper to dispatch than the
            // protocol replies that resume full continuations.
            KReply::Revoke { op, deleted, .. } => {
                self.cfg.cost.thread_switch + self.revoke_reply_arrived(from, *op, *deleted, out)
            }
            other => {
                let resumed = self.resume_from_kernel(from, other.op(), Answer::KReply(other), out);
                self.cfg.cost.kcall_entry + resumed
            }
        }
    }

    /// Resumes the phase parked under `op` with a kernel's answer — a
    /// reply, or the delegate handshake's second-leg ack — if `from` is
    /// the kernel that phase awaits ([`PendingOp::awaited_kernel`];
    /// nothing is relayed, so an answer can only come from the kernel
    /// that was asked). A kernel is a trusted party and every request
    /// gets exactly one reply: a stray answer, an answer from the wrong
    /// kernel and one of the wrong kind (its protocol's check) are
    /// protocol bugs, and panic.
    fn resume_from_kernel(
        &mut self,
        from: KernelId,
        op: OpId,
        answer: Answer,
        out: &mut Outbox,
    ) -> u64 {
        let Some(asked) = self.pending.get(op).map(PendingOp::awaited_kernel) else {
            panic!("{answer:?} without a pending op");
        };
        assert_eq!(asked, Some(from), "{answer:?} from {from}, asked {asked:?}");
        self.resume(op, answer, out)
    }

    /// Routes a VPE's upcall answer: resumes the phase parked under the
    /// echoed correlation id. A missing op means the operation was
    /// cancelled (a party died); the answer is dropped.
    ///
    /// Op ids count up from 1 per kernel, so the id alone authenticates
    /// nothing: the phase resumes only if `src` is the PE the upcall
    /// went to and the answer is of the kind that phase asked for.
    /// Anything else — a VPE answering a question put to another — is
    /// dropped at zero cost with the op left parked, in every profile.
    pub(crate) fn route_upcall_reply(
        &mut self,
        src: PeId,
        reply: &UpcallReply,
        out: &mut Outbox,
    ) -> u64 {
        let op = match reply {
            UpcallReply::AcceptExchange { op, .. } | UpcallReply::SessionOpen { op, .. } => *op,
        };
        let asked = match (self.pending.get(op), reply) {
            (Some(state @ PendingOp::Exchange(_)), UpcallReply::AcceptExchange { .. })
            | (Some(state @ PendingOp::Session(_)), UpcallReply::SessionOpen { .. }) => {
                state.upcall_responder().and_then(|vpe| self.pe_of_vpe(vpe).ok())
            }
            // Cancelled, or a question of another protocol: ignore.
            _ => None,
        };
        if asked != Some(src) {
            return 0;
        }
        self.resume(op, Answer::Upcall(reply), out)
    }

    /// Takes the phase parked under `op` out of the ledger and hands it
    /// whole, with `answer`, to its protocol: the one way a parked phase
    /// resumes. The routers checked who answered.
    fn resume(&mut self, op: OpId, answer: Answer, out: &mut Outbox) -> u64 {
        match self.pending.remove(op).expect("the router looked the op up") {
            PendingOp::Exchange(phase) => self.resume_exchange(phase, answer, out),
            PendingOp::Session(phase) => self.resume_session(phase, answer, out),
            // A revocation awaits no single kernel and no VPE.
            PendingOp::Revoke(revoke) => unreachable!("{answer:?} resumed {}", revoke.name()),
        }
    }

    /// Fails every pending operation awaiting an upcall answer from
    /// `vpe` (the VPE died) with `VpeGone`.
    pub(crate) fn cancel_upcall_waiters(&mut self, vpe: VpeId, out: &mut Outbox) {
        let waiting: Vec<OpId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.upcall_responder() == Some(vpe))
            .map(|(op, _)| op)
            .collect();
        self.fail_parked(waiting, Error::new(Code::VpeGone), out);
    }

    /// Ends each parked phase in `ops` without the answer it awaits, as
    /// when its VPE dies (`VpeGone`), or its deadline expires or the
    /// kernel it awaits crashes (`Timeout`): its protocol answers
    /// whoever started it with `err`. Each answer is protocol-visible,
    /// so they leave in op-id order. Returns how many phases failed.
    pub(crate) fn fail_parked(&mut self, mut ops: Vec<OpId>, err: Error, out: &mut Outbox) -> u64 {
        ops.sort_unstable();
        let mut failed = 0;
        for op in ops {
            // Failing one phase can complete others; skip those.
            let Some(state) = self.pending.remove(op) else { continue };
            failed += 1;
            match state {
                PendingOp::Exchange(phase) => self.fail_exchange_phase(phase, err, out),
                PendingOp::Session(phase) => self.fail_session_phase(phase, err, out),
                // A revocation awaits no VPE and no kernel.
                PendingOp::Revoke(revoke) => unreachable!("{} cannot be failed", revoke.name()),
            }
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::revoke::{FanIn, Initiator, RevokeOp};
    use super::{exchange, session, PendingOp};
    use crate::registry::ServiceInfo;
    use semper_base::msg::{CapKindDesc, Perms};
    use semper_base::{
        CapSel, CapType, Code, DdlKey, Error, ExchangeKind, KernelId, OpId, PeId, ServiceId, VpeId,
    };
    use semper_caps::Capability;

    /// The phase table: every phase of every protocol, with its name (a
    /// crash point's, byte for byte) and whether it parks a cooperative
    /// kernel thread (§4.2). A revocation appears once per initiator.
    #[test]
    fn every_phase_declares_its_name_and_thread_class() {
        use exchange::Phase as Ex;
        use session::Phase as Sess;

        let (tag, vpe, k, op) = (7, VpeId(1), KernelId(1), OpId(3));
        let key = DdlKey::new(PeId(1), vpe, CapType::Memory, 1);
        let desc = CapKindDesc::Memory { addr: 0, size: 4096, perms: Perms::RW };
        let srv = ServiceInfo {
            id: ServiceId(1),
            name: 9,
            owner: k,
            srv_key: key,
            srv_pe: PeId(1),
            srv_vpe: vpe,
        };
        let revoke = |initiator| {
            PendingOp::Revoke(RevokeOp {
                initiator,
                fanin: FanIn::new(),
                roots: Vec::new(),
                spanning: false,
            })
        };
        let table = [
            (
                PendingOp::Exchange(Ex::LocalAccept(exchange::LocalAccept {
                    tag,
                    initiator: vpe,
                    peer: vpe,
                    kind: ExchangeKind::Obtain,
                    own_sel: CapSel(1),
                    other_sel: CapSel(2),
                })),
                "exchange-local",
                true,
            ),
            (
                PendingOp::Exchange(Ex::ObtainRemote(exchange::ObtainRemote {
                    tag,
                    requester: vpe,
                    child_key: key,
                    peer_kernel: k,
                })),
                "obtain-remote",
                true,
            ),
            (
                PendingOp::Exchange(Ex::ObtainAtOwner(exchange::ObtainAtOwner {
                    caller_op: op,
                    caller_kernel: k,
                    child_key: key,
                    parent_key: key,
                    owner: vpe,
                })),
                "obtain-at-owner",
                true,
            ),
            (
                PendingOp::Exchange(Ex::DelegateRemote(exchange::DelegateRemote {
                    tag,
                    delegator: vpe,
                    parent_key: key,
                    peer_kernel: k,
                })),
                "delegate-remote",
                true,
            ),
            (
                PendingOp::Exchange(Ex::DelegateWaitDone(exchange::DelegateWaitDone {
                    tag,
                    delegator: vpe,
                    parent_key: key,
                    child_key: key,
                    peer_kernel: k,
                })),
                "delegate-wait-done",
                true,
            ),
            (
                PendingOp::Exchange(Ex::DelegateAtRecv(exchange::DelegateAtRecv {
                    caller_op: op,
                    caller_kernel: k,
                    parent_key: key,
                    desc,
                    recv: vpe,
                })),
                "delegate-at-recv",
                true,
            ),
            (
                PendingOp::Exchange(Ex::DelegatePendingInsert(exchange::DelegatePendingInsert {
                    caller_kernel: k,
                    cap: Box::new(Capability::root(key, desc, vpe, CapSel(1))),
                })),
                "delegate-pending-insert",
                false,
            ),
            (
                PendingOp::Exchange(Ex::DelegateAborted(exchange::DelegateAborted {
                    tag,
                    delegator: vpe,
                    peer_kernel: k,
                    reason: Error::new(Code::NoSuchCap),
                })),
                "delegate-aborted",
                true,
            ),
            (
                PendingOp::Session(Sess::OpenRemote(session::OpenRemote {
                    tag,
                    client: vpe,
                    child_key: key,
                    srv,
                })),
                "open-sess-remote",
                true,
            ),
            (
                PendingOp::Session(Sess::AtService(session::AtService {
                    caller_op: op,
                    caller_kernel: k,
                    child_key: key,
                    srv,
                })),
                "session-at-service",
                true,
            ),
            (
                PendingOp::Session(Sess::OpenLocal(session::OpenLocal {
                    tag,
                    client: vpe,
                    child_key: key,
                    srv,
                })),
                "session-local",
                true,
            ),
            (revoke(Initiator::Syscall { vpe, tag }), "revoke-run", true),
            (revoke(Initiator::Internal), "revoke-run", true),
            (revoke(Initiator::Kcall { op, from: k, keys: 1 }), "revoke-run", false),
        ];
        for (phase, name, holds_thread) in &table {
            assert_eq!(phase.name(), *name);
            assert_eq!(phase.holds_thread(), *holds_thread, "{name}");
        }
        // Each kernel-awaiting phase carries its kernel in a field, and a
        // ledger entry stays within 64 bytes (a revocation's size).
        assert!(std::mem::size_of::<PendingOp>() <= 64);
    }

    /// Every armed completion arrives exactly once, with or without a
    /// fault plan — a fan-in has no mode — so one more panics.
    #[test]
    #[should_panic(expected = "completion of an idle fan-in")]
    fn an_idle_fan_ins_completion_panics() {
        let mut fanin = FanIn::new();
        fanin.arm();
        assert!(fanin.complete_one(1));
        fanin.complete_one(1);
    }
}
