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
//!   protocol ([`exchange`], [`session`], [`revoke`]).
//!   Each phase carries exactly the continuation state its resume
//!   handler needs.
//! * [`PhaseSpec`] — the per-phase declaration: its name and whether
//!   it parks a cooperative kernel thread ([`Thread`], the §4.2 pool
//!   accounting). The ledger derives thread accounting from the spec
//!   instead of hand-maintained match arms.
//! * [`ledger::PendingTable`] — the one shared pending-op ledger, keyed
//!   by correlation id ([`semper_base::OpId`]).
//! * The **reply router** (`Kernel::route_kcall` / `route_kreply` /
//!   `route_upcall_reply` below) — the single dispatch point for every
//!   inter-kernel call, reply, and upcall answer. Replies resume the
//!   parked phase through one ledger lookup; requests dispatch straight
//!   to the protocol's request handler.
//! * [`FanIn`] — counted completion shared by every fan-out phase
//!   (revocation's outstanding remote subtrees, batched revokes), with
//!   a running tally for the statistics the reply carries back.
//!
//! # One of each
//!
//! Every protocol-independent concept exists once: one `Syscall` →
//! handler table (`Kernel::dispatch_syscall`), one completion funnel
//! (`Kernel::reply_sys`, a message to the VPE), one credit-gated
//! request send (`Kernel::send_kcall_at`), one mark walk and one delete
//! pass for Algorithm 1 (`Kernel::mark_subtree` /
//! `Kernel::delete_marked` in [`revoke`], driven by revoke system
//! calls, VPE exits and incoming revoke requests alike), and one way to
//! kill a VPE (`Kernel::terminate_vpe`, behind both `Syscall::Exit` and
//! the machine's `Kernel::kill_vpe`).
//!
//! State that outlives a single parked phase lives with its protocol,
//! not as loose fields on `Kernel`: `revoke::RevokeState` and the
//! kernel's `CreditGate`. The rest of the kernel asks each of them one
//! question only — *are you quiescent?* (`Kernel::check_quiescent`).
//!
//! # Paper §4.3 → engine phases
//!
//! | paper step | engine phase |
//! |---|---|
//! | Fig. 3 A.2/A.3 consent upcall (group-local exchange) | [`exchange::Phase::LocalAccept`] |
//! | Fig. 3 B.2 obtain request at the owner's kernel | [`exchange::Phase::ObtainRemote`] → [`exchange::Phase::ObtainAtOwner`] |
//! | §4.3.2 two-way delegate handshake, first leg | [`exchange::Phase::DelegateRemote`] → [`exchange::Phase::DelegateAtRecv`] |
//! | §4.3.2 two-way delegate handshake, second leg | [`exchange::Phase::DelegatePendingInsert`] / [`exchange::Phase::DelegateWaitDone`] / [`exchange::Phase::DelegateAborted`] |
//! | §3.4 session capability attachment | [`session::Phase::OpenRemote`] → [`session::Phase::AtService`], [`session::Phase::OpenLocal`] |
//! | §4.3.3 Algorithm 1 mark/delete + reply counting | [`revoke::Phase::Run`]; an incoming `RevokeBatchReq` (§5.2 message batching) counts its sub-revokes in [`revoke::Phase::Batch`] |
//!
//! # What a new protocol costs
//!
//! Session establishment ([`session`]) is the smallest example: a
//! distributed operation is its phase enum (three variants), a spec row
//! per phase, one request handler per participant role, one resume
//! handler per phase, and — for a phase that awaits a peer kernel — a
//! row in `Kernel::awaited_kernel` ([`faults`]), which tells the reply
//! router who may answer and `Kernel::peer_down` whose death ends the
//! phase. The ledger, router, credit gating, thread accounting, and
//! fan-in counting are all inherited. The pre-engine protocols carried
//! ~150 LoC of that plumbing *each*.
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

/// Whether a suspended phase occupies a cooperative kernel thread
/// (§4.2). Only operations that *park a thread* count against the pool
/// `V_group + K_max · M_inflight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Thread {
    /// Parks a thread: syscall-initiated waits and consent-upcall waits.
    Holds,
    /// Thread-free bookkeeping: the paper's revoke handlers return
    /// without pausing (Algorithm 1), and a parked-but-uninserted
    /// delegate capability is pure state.
    Free,
    /// Depends on who initiated the operation (revocation: syscalls and
    /// internal cleanup hold the calling thread; incoming requests are
    /// thread-free).
    PerInitiator,
}

/// The declared shape of one protocol phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    /// Phase label for logs, statistics, and assertions.
    pub name: &'static str,
    /// Thread-pool accounting class.
    pub thread: Thread,
}

/// Counted fan-out completion with a running tally.
///
/// Shared by every phase that waits for N independent completions:
/// revocation (one per remote subtree plus one per dependency on a
/// concurrent revoke) and batched revokes (one per key). The tally
/// accumulates what the completions report (deleted capabilities) for
/// the completion notification.
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

    /// Arms `n` expected completions.
    pub fn arm_n(&mut self, n: u32) {
        self.outstanding += n;
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

/// A suspended distributed operation: one protocol's phase, parked in
/// the shared ledger under its correlation id.
#[derive(Debug, Clone)]
pub enum PendingOp {
    /// Capability exchange (obtain / delegate, §4.3.2).
    Exchange(exchange::Phase),
    /// Session establishment (§3.4).
    Session(session::Phase),
    /// Revocation (§4.3.3, Algorithm 1).
    Revoke(revoke::Phase),
}

impl PendingOp {
    /// The phase's declared spec.
    pub fn spec(&self) -> &'static PhaseSpec {
        match self {
            PendingOp::Exchange(p) => p.spec(),
            PendingOp::Session(p) => p.spec(),
            PendingOp::Revoke(p) => p.spec(),
        }
    }

    /// True if this suspended phase parks a cooperative kernel thread
    /// (§4.2) — derived from the phase table.
    pub fn holds_thread(&self) -> bool {
        match self.spec().thread {
            Thread::Holds => true,
            Thread::Free => false,
            Thread::PerInitiator => match self {
                PendingOp::Revoke(revoke::Phase::Run(op)) => op.initiator.holds_thread(),
                other => unreachable!("{} has no initiator", other.spec().name),
            },
        }
    }

    /// The local VPE whose upcall answer this phase awaits: the VPE
    /// asked for consent to an exchange, or the service VPE asked to
    /// open a session. It can die while the upcall is in flight, and
    /// the initiator (possibly at another kernel) must then be
    /// unblocked with `VpeGone`.
    pub fn upcall_responder(&self) -> Option<VpeId> {
        match self {
            PendingOp::Exchange(p) => p.upcall_responder(),
            PendingOp::Session(p) => p.upcall_responder(),
            PendingOp::Revoke(_) => None,
        }
    }
}

impl Kernel {
    // ----- the reply router ---------------------------------------------
    //
    // One dispatch point per message class. Requests go straight to the
    // protocol's request handler; replies resume the parked phase
    // through a single ledger lookup. The modeled entry costs are
    // charged here, once, so every protocol pays the same dispatch
    // price it did pre-engine.

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
            Kcall::OrphanNotice { parent_key, child_key } => {
                self.orphan_notice(*parent_key, *child_key)
            }
            Kcall::DelegateReq { op, parent_key, desc, recv_vpe } => {
                self.delegate_request(from, *op, *parent_key, *desc, *recv_vpe, out)
            }
            Kcall::DelegateAck { op, reply_op, commit } => {
                self.delegate_ack(from, *op, *reply_op, *commit, out)
            }
            Kcall::RevokeReq { op, cap_key } => self.revoke_request(from, *op, *cap_key, out),
            Kcall::RevokeBatchReq { op, cap_keys } => {
                self.revoke_batch_request(from, *op, cap_keys, out)
            }
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
            other => self.cfg.cost.kcall_entry + self.resume_from_kreply(from, other, out),
        }
    }

    /// Resumes the phase parked under a reply's correlation id — if
    /// `from` is the kernel that phase awaits (`Kernel::awaited_kernel`;
    /// nothing is relayed, so a reply can only come from the kernel
    /// that was asked). A kernel is a trusted party and every request
    /// gets exactly one reply: a stray reply, an answer from the wrong
    /// kernel and one of the wrong kind are protocol bugs, and panic.
    fn resume_from_kreply(&mut self, from: KernelId, reply: &KReply, out: &mut Outbox) -> u64 {
        use exchange::Phase as Ex;
        use session::Phase as Sess;

        let op = reply.op();
        let Some(asked) = self.pending.get(op).map(|state| self.awaited_kernel(state)) else {
            panic!("reply {reply:?} without a pending op");
        };
        assert_eq!(asked, Some(from), "reply {reply:?} from {from}, asked {asked:?}");
        let state = self.pending.remove(op).expect("looked up above");
        match (state, reply) {
            (
                PendingOp::Exchange(Ex::ObtainRemote { tag, requester, child_key, .. }),
                KReply::Obtain { result, .. },
            ) => self.obtain_reply(from, tag, requester, child_key, result, out),
            (
                PendingOp::Exchange(Ex::DelegateRemote { tag, delegator, parent_key, .. }),
                KReply::Delegate { result, .. },
            ) => self.delegate_reply(from, tag, delegator, parent_key, result, out),
            (
                PendingOp::Exchange(Ex::DelegateWaitDone { tag, delegator, parent_key, child_key }),
                KReply::DelegateDone { result, .. },
            ) => self.delegate_done(tag, delegator, parent_key, child_key, *result, out),
            (
                PendingOp::Exchange(Ex::DelegateAborted { tag, delegator, reason, .. }),
                KReply::DelegateDone { .. },
            ) => self.delegate_done_aborted(tag, delegator, reason, out),
            (
                PendingOp::Session(Sess::OpenRemote { tag, client, child_key, srv }),
                KReply::OpenSess { result, .. },
            ) => self.open_sess_reply(tag, client, child_key, srv, *result, out),
            (state, reply) => panic!("reply {reply:?} cannot resume {}", state.spec().name),
        }
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
        use exchange::Phase as Ex;
        use session::Phase as Sess;

        let op = match reply {
            UpcallReply::AcceptExchange { op, .. } | UpcallReply::SessionOpen { op, .. } => *op,
        };
        let asked = match (self.pending.get(op), reply) {
            // The operation was cancelled (e.g. a party died); ignore.
            (None, _) => return 0,
            (Some(PendingOp::Exchange(phase)), UpcallReply::AcceptExchange { .. }) => {
                phase.upcall_responder().and_then(|vpe| self.pe_of_vpe(vpe).ok())
            }
            (
                Some(PendingOp::Session(Sess::OpenLocal { srv, .. } | Sess::AtService { srv, .. })),
                UpcallReply::SessionOpen { .. },
            ) => Some(srv.srv_pe),
            (Some(_), _) => None,
        };
        if asked != Some(src) {
            return 0;
        }
        let state = self.pending.remove(op).expect("looked up above");
        match (state, reply) {
            (
                PendingOp::Exchange(Ex::LocalAccept {
                    tag,
                    initiator,
                    peer,
                    kind,
                    own_sel,
                    other_sel,
                }),
                UpcallReply::AcceptExchange { accept, .. },
            ) => self.local_exchange_accept(
                tag, initiator, peer, kind, own_sel, other_sel, *accept, out,
            ),
            (
                PendingOp::Exchange(Ex::ObtainAtOwner {
                    caller_op,
                    caller_kernel,
                    child_key,
                    parent_key,
                    ..
                }),
                UpcallReply::AcceptExchange { accept, .. },
            ) => self.obtain_owner_accept(
                caller_op,
                caller_kernel,
                child_key,
                parent_key,
                *accept,
                out,
            ),
            (
                PendingOp::Exchange(Ex::DelegateAtRecv {
                    caller_op,
                    caller_kernel,
                    parent_key,
                    desc,
                    recv,
                }),
                UpcallReply::AcceptExchange { accept, .. },
            ) => self.delegate_recv_accept(
                caller_op,
                caller_kernel,
                parent_key,
                desc,
                recv,
                *accept,
                out,
            ),
            (
                PendingOp::Session(Sess::OpenLocal { tag, client, child_key, srv }),
                UpcallReply::SessionOpen { result, .. },
            ) => self.session_local_accept(tag, client, child_key, srv, *result, out),
            (
                PendingOp::Session(Sess::AtService { caller_op, caller_kernel, child_key, srv }),
                UpcallReply::SessionOpen { result, .. },
            ) => {
                self.session_service_accept(caller_op, caller_kernel, child_key, srv, *result, out)
            }
            (state, reply) => {
                unreachable!("{reply:?} passed the check for {}", state.spec().name)
            }
        }
    }

    /// Cancels every pending operation awaiting an upcall answer from
    /// `vpe` (the VPE died). The cancellation order is protocol-visible
    /// (each cancel emits a reply), so the collected ops are sorted by
    /// id — the order the pre-hash-map id-ordered ledger iterated in.
    pub(crate) fn cancel_upcall_waiters(&mut self, vpe: VpeId, out: &mut Outbox) {
        let mut cancelled: Vec<OpId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.upcall_responder() == Some(vpe))
            .map(|(op, _)| op)
            .collect();
        cancelled.sort_unstable();
        for op in cancelled {
            let p = self.pending.remove(op).expect("collected above");
            match p {
                PendingOp::Exchange(phase) => self.cancel_exchange_phase(phase, out),
                PendingOp::Session(phase) => {
                    self.cancel_session_phase(phase, Error::new(Code::VpeGone), out)
                }
                other => unreachable!("{} awaits no upcall answer", other.spec().name),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::FanIn;

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
