//! What every kernel host shares.
//!
//! Two hosts drive [`Kernel::handle`]: the timed machine in the
//! `semperos` crate, which runs the paper's figures, and the untimed
//! [`TestCluster`](crate::harness::TestCluster), which runs the protocol,
//! fault and property tests. Everything around that call lives here, once:
//!
//! * [`kernels`] builds a host's kernels from its layout;
//! * [`StubVpe`] is the microbenchmark VPE that consents to exchanges and
//!   session opens;
//! * [`deliver`] hands one message to its kernel and frees its DTU slot
//!   ([`free_slot`], §4.1).
//!
//! So the two hosts differ only in which deliverable message goes next,
//! and when: the machine keeps the NoC and the per-PE schedule, the
//! cluster its FIFO and its fault plan's crashes and deadlines.

use semper_base::msg::{Payload, SysReply, Upcall, UpcallReply};
use semper_base::{CostModel, KernelId, MachineConfig, Msg, PeId, VpeId};
use semper_caps::MembershipTable;
use semper_noc::GlobalMemory;

use crate::kernel::Kernel;
use crate::outbox::Outbox;

/// One kernel per group of `membership`, indexed by kernel id: kernel
/// `k` gets `partition(k)` as its memory and every VPE of `vpe_dir`
/// (VPE id → PE) whose PE is in its group.
pub fn kernels(
    cfg: &MachineConfig,
    membership: &MembershipTable,
    vpe_dir: &[PeId],
    partition: impl Fn(KernelId) -> GlobalMemory,
) -> Vec<Kernel> {
    let mut kernels: Vec<Kernel> = (0..membership.kernel_count() as u16)
        .map(KernelId)
        .map(|k| Kernel::new(k, cfg.clone(), membership.clone(), vpe_dir.to_vec(), partition(k)))
        .collect();
    for (vpe, &pe) in vpe_dir.iter().enumerate() {
        kernels[membership.kernel_of(pe).idx()].add_vpe(VpeId(vpe as u16), pe);
    }
    kernels
}

/// A stub VPE: consents to every exchange unless told to deny, accepts
/// every session open with its own ident sequence, and collects its
/// system-call replies.
#[derive(Debug, Default)]
pub struct StubVpe {
    /// Refuses exchange consent.
    pub(crate) deny: bool,
    /// Killed: drops everything it receives.
    pub(crate) dead: bool,
    /// Sessions opened so far; the n-th gets ident n.
    sessions: u64,
    replies: Vec<SysReply>,
}

impl StubVpe {
    /// Handles one message; returns the modeled cycle cost: `upcall_work`
    /// for an exchange consent, `session_accept` for a session open, 0
    /// for a reply (and for anything a dead stub drops).
    ///
    /// # Panics
    ///
    /// Panics on a payload no VPE is ever sent.
    pub fn handle(&mut self, msg: &Msg, out: &mut Outbox, cost: &CostModel) -> u64 {
        if self.dead {
            return 0;
        }
        let (reply, cost) = match &msg.payload {
            Payload::SysReply(reply) => {
                self.replies.push(reply.clone());
                return 0;
            }
            Payload::Upcall(Upcall::AcceptExchange { op, .. }) => {
                (UpcallReply::AcceptExchange { op: *op, accept: !self.deny }, cost.upcall_work)
            }
            Payload::Upcall(Upcall::SessionOpen { op, .. }) => {
                self.sessions += 1;
                let result = Ok(self.sessions);
                (UpcallReply::SessionOpen { op: *op, result }, cost.session_accept)
            }
            other => panic!("stub VPE on {} got unexpected payload {other:?}", msg.dst),
        };
        out.push(Msg::new(msg.dst, msg.src, Payload::upcall_reply(reply)));
        cost
    }

    /// Removes and returns the collected reply with the given tag.
    pub fn take_reply(&mut self, tag: u64) -> Option<SysReply> {
        let idx = self.replies.iter().position(|r| r.tag == tag)?;
        Some(self.replies.remove(idx))
    }
}

/// The kernel whose own PE is `pe`, if any.
pub(crate) fn kernel_at(membership: &MembershipTable, pe: PeId) -> Option<KernelId> {
    let k = membership.kernel_of(pe);
    (membership.kernel_pe(k) == pe).then_some(k)
}

/// Delivers `msg` to the kernel on its destination PE; returns the
/// handler's cost, or `None` if a scripted crash point fired inside the
/// handler — the kernel is down and its output was discarded. The
/// handler's output goes to `out`; the credit traffic of a consumed
/// request goes to `credits`, so each host picks the injection order.
pub fn deliver(
    kernels: &mut [Kernel],
    membership: &MembershipTable,
    msg: &Msg,
    out: &mut Outbox,
    credits: &mut Outbox,
) -> Option<u64> {
    let kernel = &mut kernels[membership.kernel_of(msg.dst).idx()];
    let cost = kernel.handle(msg, out);
    if kernel.crashed() {
        drop(out.drain());
        return None;
    }
    free_slot(kernels, membership, msg, credits);
    Some(cost)
}

/// DTU slot tracking (§4.1): an inter-kernel request that was consumed
/// frees its slot at the receiver, which returns the sender's credit
/// ([`Kernel::return_credit`]); whatever the credit released goes to
/// `credits`. This is a hardware-level exchange: it
/// occupies no kernel CPU. A sender that is not a kernel's own PE, or
/// whose kernel crashed, gets nothing back.
pub fn free_slot(
    kernels: &mut [Kernel],
    membership: &MembershipTable,
    msg: &Msg,
    credits: &mut Outbox,
) {
    let Payload::Kcall(_) = msg.payload else { return };
    let (Some(src), Some(dst)) = (kernel_at(membership, msg.src), kernel_at(membership, msg.dst))
    else {
        return;
    };
    let sender = &mut kernels[src.idx()];
    if !sender.crashed() {
        sender.return_credit(credits, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semper_base::msg::{ExchangeKind, SysReplyData, Syscall};
    use semper_base::{CapSel, OpId};

    fn consent() -> Msg {
        let (op, from_vpe, kind, sel) = (OpId(7), VpeId(2), ExchangeKind::Obtain, CapSel(2));
        Msg::new(
            PeId(0),
            PeId(1),
            Payload::Upcall(Upcall::AcceptExchange { op, from_vpe, kind, sel }),
        )
    }

    #[test]
    fn a_denying_stub_refuses() {
        let cost = CostModel::calibrated();
        let mut stub = StubVpe { deny: true, ..StubVpe::default() };
        let mut out = Outbox::new();
        assert_eq!(stub.handle(&consent(), &mut out, &cost), cost.upcall_work);
        let refusal =
            Payload::upcall_reply(UpcallReply::AcceptExchange { op: OpId(7), accept: false });
        assert_eq!(out.drain(), [(Msg::new(PeId(1), PeId(0), refusal), None)]);
    }

    #[test]
    fn a_dead_stub_drops_everything() {
        let cost = CostModel::calibrated();
        let mut stub = StubVpe { dead: true, ..StubVpe::default() };
        let mut out = Outbox::new();
        let reply = Msg::new(PeId(0), PeId(1), Payload::sys_reply(3, Ok(SysReplyData::None)));
        for msg in [consent(), reply] {
            assert_eq!(stub.handle(&msg, &mut out, &cost), 0);
        }
        assert!(out.is_empty() && stub.take_reply(3).is_none());
    }

    /// Two kernels of three VPEs each (PEs 1–3 and 5–7) with a window of
    /// two requests per kernel pair. VPEs 0–2 (kernel 0) each obtain from
    /// VPE 3 (kernel 1): two requests leave, the third stalls behind the
    /// credit gate.
    fn three_obtains_towards_kernel_1() -> (Vec<Kernel>, MembershipTable, Vec<Msg>) {
        let mut cfg = MachineConfig::small();
        (cfg.num_pes, cfg.kernels, cfg.max_inflight) = (8, 2, 2);
        let membership = MembershipTable::contiguous(8, 2);
        let dir = [1, 2, 3, 5, 6, 7].map(PeId);
        let mut ks =
            kernels(&cfg, &membership, &dir, |k| GlobalMemory::new(u64::from(k.0) << 32, 1 << 30));
        let kind = ExchangeKind::Obtain;
        let obtain = Syscall::Exchange {
            other: VpeId(3),
            own_sel: CapSel::INVALID,
            other_sel: CapSel(0),
            kind,
        };
        let mut out = Outbox::new();
        for pe in 1..=3 {
            ks[0].handle(&Msg::new(PeId(pe), PeId(0), Payload::sys(1, obtain.clone())), &mut out);
        }
        let sent: Vec<Msg> = out.drain().into_iter().map(|(m, _)| m).collect();
        assert!(
            matches!(&sent[..], [a, b] if [a, b].iter().all(|m| matches!(m.payload, Payload::Kcall(_))))
        );
        assert_eq!(ks[0].stats().kcalls_credit_stalled, 1);
        (ks, membership, sent)
    }

    #[test]
    fn a_consumed_kcall_returns_one_credit_and_releases_a_stalled_call() {
        let (mut ks, membership, sent) = three_obtains_towards_kernel_1();
        let (mut out, mut credits) = (Outbox::new(), Outbox::new());
        assert!(deliver(&mut ks, &membership, &sent[0], &mut out, &mut credits).is_some());
        // The returned credit went straight to the stalled request.
        let released = credits.drain();
        assert!(matches!(
            &released[..],
            [(Msg { dst: PeId(4), payload: Payload::Kcall(_), .. }, None)]
        ));
        assert_eq!(ks[0].kgate.credits[1], 0);
        assert!(ks[0].kgate.quiescent().is_ok());
        // Nothing is stalled any more: the next consumption returns one
        // credit, and nothing leaves.
        assert!(deliver(&mut ks, &membership, &sent[1], &mut out, &mut credits).is_some());
        assert!(credits.is_empty());
        assert_eq!(ks[0].kgate.credits[1], 1);
    }

    #[test]
    fn a_crashed_sender_gets_nothing_back() {
        let (mut ks, membership, sent) = three_obtains_towards_kernel_1();
        ks[0].fault.crashed = true;
        let (mut out, mut credits) = (Outbox::new(), Outbox::new());
        assert!(deliver(&mut ks, &membership, &sent[0], &mut out, &mut credits).is_some());
        assert!(credits.is_empty());
        assert_eq!(ks[0].kgate.credits[1], 0);
    }
}
