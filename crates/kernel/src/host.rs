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
//!   ([`free_slot`], §4.1);
//! * [`check_invariants`] checks each live kernel, and at quiescence what
//!   no one kernel sees: the child links between kernels;
//! * [`Channels::admit`] is the one intake rule: who may send what to
//!   whom, decided before a message enters the network, and the index
//!   of the channel an admitted message travels on.
//!
//! So the two hosts differ only in which deliverable message goes next,
//! and when: the machine keeps the NoC and the per-PE schedule, the
//! cluster its FIFO and its fault plan's crashes and deadlines.

use semper_base::msg::{Payload, SysReply, SysReplyData, Upcall, UpcallReply};
use semper_base::{CostModel, DetHashMap, KernelId, MachineConfig, Msg, PeId, VpeId};
use semper_caps::MembershipTable;
use semper_noc::{ChannelId, GlobalMemory};

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

/// Checks every live kernel's invariants ([`Kernel::check_invariants`])
/// and, if the host's network is `idle` and no live kernel has an
/// operation parked, the links between live kernels both ways: every
/// child link names a record there whose parent is the listing one, and
/// every record whose parent is on another kernel is in that parent's
/// list (else a revocation of the parent misses it). Mid-run a link may
/// name a child not yet installed (an exchange links it before it
/// answers) or one deleted by a revocation whose unlink notice is still
/// in flight. Linear in the links, and allocates nothing: the remote
/// links are counted against the records with a remote parent, and only
/// a mismatch searches for the missing one.
pub fn check_invariants(kernels: &[Kernel], idle: bool) -> Result<(), String> {
    let live = |k: &&Kernel| !k.crashed();
    for k in kernels.iter().filter(live) {
        k.check_invariants().map_err(|e| format!("kernel {}: {e}", k.id()))?;
    }
    if !idle || kernels.iter().filter(live).any(|k| k.pending_ops() > 0) {
        return Ok(());
    }
    // The live kernel other than `k` that `key` routes to.
    let remote = |k: &Kernel, key| {
        Some(&kernels[k.membership.kernel_of_key(key).idx()])
            .filter(|at| at.id() != k.id() && !at.crashed())
    };
    let (mut links, mut remote_parents) = (0usize, 0usize);
    for k in kernels.iter().filter(live) {
        let fail = |what: String| Err(format!("kernel {}: {what}", k.id()));
        for parent in k.mapdb.iter() {
            remote_parents += usize::from(parent.parent.and_then(|p| remote(k, p)).is_some());
            for child in k.mapdb.children(parent.key) {
                let at = &kernels[k.membership.kernel_of_key(child).idx()];
                let (key, id) = (parent.key, at.id());
                let Ok(c) = at.mapdb.get(child) else {
                    if at.crashed() {
                        continue;
                    }
                    return fail(format!("{key:?} lists {child:?}, gone at {id}"));
                };
                if remote(k, child).is_some() {
                    if c.parent != Some(key) {
                        let other = c.parent;
                        return fail(format!("{key:?} lists {child:?}, whose parent is {other:?}"));
                    }
                    links += 1;
                }
            }
        }
    }
    if links == remote_parents {
        return Ok(());
    }
    for k in kernels.iter().filter(live) {
        for cap in k.mapdb.iter() {
            let Some((p, at)) = cap.parent.and_then(|p| Some((p, remote(k, p)?))) else { continue };
            if !at.mapdb.children(p).any(|c| c == cap.key) {
                let (key, id) = (cap.key, at.id());
                return Err(format!(
                    "kernel {}: {key:?} is missing from {p:?}'s list at {id}",
                    k.id()
                ));
            }
        }
    }
    Err(format!("{links} remote child links for {remote_parents} records: one is listed twice"))
}

/// A stub VPE: consents to every exchange unless told to deny, accepts
/// every session open with its own ident sequence, and collects its
/// system-call replies.
#[derive(Debug, Default, Clone)]
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
    /// for a reply, for anything a dead stub drops, and for a payload no
    /// stub serves, which it drops unread.
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
            Payload::Sys { .. }
            | Payload::Kcall(_)
            | Payload::KReply(_)
            | Payload::UpcallReply(_)
            | Payload::Fs(_)
            | Payload::FsReply(_)
            | Payload::Http(_)
            | Payload::HttpReply(_) => return 0,
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

/// The intake rule's table, and the index of each channel it admits.
///
/// A channel is a (src, dst) PE pair that a message may travel on, and
/// its [`ChannelId`] names the pair's route record in the NoC, so a
/// message is routed by one indexed load. Kernel channels are numbered
/// from the membership table, with `P` PEs and `K` kernels: a PE `p` to
/// its own kernel is `2p`, a kernel to a PE `p` of its group `2p + 1`,
/// kernel `i` to kernel `j` `2P + i·K + j`. Every other admitted pair
/// (the channels between two non-kernel PEs, opened with a label each
/// way naming the sender to the receiver, and a kernel's sends outside
/// its group) takes the next index at its first use, in the rule's one
/// map. Reopening a pair replaces its label only: the pair keeps its
/// index, and with it its FIFO floor.
#[derive(Debug, Clone)]
pub struct Channels {
    /// Per PE: its group's kernel, and whether it is that kernel's PE.
    pes: Vec<Pe>,
    /// Number of kernels.
    kernels: u32,
    /// Label and index of each pair numbered past the kernel channels.
    pairs: DetHashMap<(PeId, PeId), (u32, ChannelId)>,
    /// The index the next such pair takes.
    next: u32,
    /// Sends refused so far.
    pub refused: u64,
}

/// What the intake rule knows of one PE.
#[derive(Debug, Clone, Copy)]
struct Pe {
    kernel: KernelId,
    /// The PE is its kernel's own.
    own: bool,
}

/// A PE outside the machine: no kernel's, in no group.
const OUTSIDE: Pe = Pe { kernel: KernelId(u16::MAX), own: false };

impl Channels {
    /// No channel open yet, on the machine `membership` describes.
    pub fn new(membership: MembershipTable) -> Channels {
        let pes = (0..membership.pe_count() as u16).map(PeId).map(|pe| {
            let kernel = membership.kernel_of(pe);
            Pe { kernel, own: membership.kernel_pe(kernel) == pe }
        });
        let (p, k) = (membership.pe_count() as u64, membership.kernel_count() as u64);
        let next = u32::try_from(2 * p + k * k).expect("kernel channels fit 32-bit indices");
        Channels {
            pes: pes.collect(),
            kernels: k as u32,
            pairs: DetHashMap::default(),
            next,
            refused: 0,
        }
    }

    /// Opens the channel between `from` and `to`, or relabels the pair's
    /// channel if it has one: messages from `from` carry `label`,
    /// answers 0.
    pub fn open(&mut self, from: PeId, to: PeId, label: u32) {
        self.numbered(from, to).0 = label;
        self.numbered(to, from).0 = 0;
    }

    /// The label and index of the pair (`src`, `dst`), the pair numbered
    /// with the next index (and label 0) if it has none.
    fn numbered(&mut self, src: PeId, dst: PeId) -> &mut (u32, ChannelId) {
        let next = &mut self.next;
        self.pairs.entry((src, dst)).or_insert_with(|| {
            *next += 1;
            (0, ChannelId(*next - 1))
        })
    }

    /// The intake rule, which both hosts apply to every message before it
    /// enters the network: a kernel's PE sends anything anywhere, another
    /// PE anything to its own kernel and service payloads over a channel,
    /// whose label it writes; anything else is refused and counted. A
    /// kernel's `Session` reply opens the client's channel to the service,
    /// labelled with the ident if it fits. Returns the index of the
    /// admitted message's channel.
    #[inline]
    pub fn admit(&mut self, msg: &mut Msg) -> Option<ChannelId> {
        use Payload::{Fs, FsReply, Http, HttpReply};
        let (src, dst) = (msg.src, msg.dst);
        let s = self.pes[src.idx()];
        let d = self.pes.get(dst.idx()).copied().unwrap_or(OUTSIDE);
        let channel = if s.own {
            if let Payload::SysReply(SysReply {
                result: Ok(SysReplyData::Session { srv_pe, ident, .. }),
                ..
            }) = msg.payload
            {
                if let Ok(label) = u32::try_from(ident) {
                    self.open(dst, srv_pe, label);
                }
            }
            let ch = if d.own {
                let pe_channels = 2 * self.pes.len() as u32;
                let (i, j) = (u32::from(s.kernel.0), u32::from(d.kernel.0));
                ChannelId(pe_channels + i * self.kernels + j)
            } else if d.kernel == s.kernel {
                ChannelId(2 * u32::from(dst.0) + 1)
            } else {
                self.numbered(src, dst).1
            };
            Some((0, ch))
        } else if d.own && d.kernel == s.kernel {
            Some((0, ChannelId(2 * u32::from(src.0))))
        } else if let Fs(_) | FsReply(_) | Http(_) | HttpReply(_) = msg.payload {
            self.pairs.get(&(src, dst)).copied()
        } else {
            None
        };
        msg.label = channel.map_or(0, |(label, _)| label);
        self.refused += u64::from(channel.is_none());
        channel.map(|(_, ch)| ch)
    }
}

/// The kernel whose own PE is `pe`, if any.
#[inline]
pub(crate) fn kernel_at(membership: &MembershipTable, pe: PeId) -> Option<KernelId> {
    let k = membership.kernel_of(pe);
    (membership.kernel_pe(k) == pe).then_some(k)
}

/// Delivers `msg` to the kernel on its destination PE; returns the
/// handler's cost, or `None` if a scripted crash point fired inside the
/// handler — the kernel is down and its output was discarded. The
/// handler's output goes to `out`; the credit traffic of a consumed
/// request goes to `credits`, so each host picks the injection order.
#[inline]
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
#[inline]
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
    use semper_base::msg::{
        ExchangeKind, FsOp, FsReplyData, FsReq, HttpReq, HttpResp, SysReplyData, Syscall,
    };
    use semper_base::{CapSel, OpId};
    use semper_noc::{Mesh, Noc};
    use semper_sim::Cycles;

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

    /// A payload no VPE serves — a system call, a filesystem reply, an
    /// HTTP request — is dropped unread at zero cost.
    #[test]
    fn a_live_stub_drops_a_stray_payload() {
        let cost = CostModel::calibrated();
        let mut stub = StubVpe::default();
        let mut out = Outbox::new();
        let strays = [
            Payload::sys(3, Syscall::Noop),
            Payload::fs_reply(3, Ok(FsReplyData::Ok)),
            Payload::Http(HttpReq { id: 3, uri: 0 }),
        ];
        for payload in strays {
            assert_eq!(stub.handle(&Msg::new(PeId(0), PeId(1), payload), &mut out, &cost), 0);
        }
        assert!(out.is_empty() && stub.take_reply(3).is_none());
        // It still answers what it serves.
        assert_eq!(stub.handle(&consent(), &mut out, &cost), cost.upcall_work);
    }

    /// PEs 0–7 in two groups: kernels on PEs 0 and 4, VPEs on 1–3 and 5–7.
    fn two_groups() -> Channels {
        Channels::new(MembershipTable::contiguous(8, 2))
    }

    /// `payload` from `src` to `dst` with the label the sender wrote,
    /// through the rule: the label it arrives with, or `None` if refused.
    fn admitted(rule: &mut Channels, src: u16, dst: u16, payload: Payload) -> Option<u32> {
        let mut msg = Msg { label: 9, ..Msg::new(PeId(src), PeId(dst), payload) };
        rule.admit(&mut msg).map(|_| msg.label)
    }

    /// The kernel on PE 0 answers the client on `client` a session to
    /// the service on `srv`, with `ident`.
    fn session_reply(rule: &mut Channels, client: u16, srv: u16, ident: u64) {
        let session = SysReplyData::Session { sel: CapSel(3), srv_pe: PeId(srv), ident };
        assert_eq!(admitted(rule, 0, client, Payload::sys_reply(1, Ok(session))), Some(0));
    }

    fn stat() -> Payload {
        Payload::fs(FsReq { tag: 1, op: FsOp::Stat { path: "/".into() } })
    }

    /// A kernel sends anything anywhere, a VPE anything to its own
    /// kernel; between VPEs nothing travels without a channel, and never
    /// a payload other than a service's. Each refusal is counted.
    #[test]
    fn the_rule_decides_who_may_send_to_whom() {
        let mut rule = two_groups();
        let upcall =
            || Payload::upcall_reply(UpcallReply::AcceptExchange { op: OpId(1), accept: true });
        assert_eq!(admitted(&mut rule, 0, 5, Payload::sys(1, Syscall::Noop)), Some(0));
        assert_eq!(admitted(&mut rule, 4, 0, Payload::fs_reply(1, Ok(FsReplyData::Ok))), Some(0));
        assert_eq!(admitted(&mut rule, 1, 0, upcall()), Some(0));
        assert_eq!(admitted(&mut rule, 5, 4, Payload::sys(1, Syscall::Noop)), Some(0));
        assert_eq!(rule.refused, 0);
        // Another group's kernel, and VPE to VPE without a channel.
        assert_eq!(admitted(&mut rule, 1, 4, Payload::sys(1, Syscall::Noop)), None);
        assert_eq!(admitted(&mut rule, 1, 5, stat()), None);
        assert_eq!(
            admitted(&mut rule, 2, 1, Payload::HttpReply(HttpResp { id: 1, bytes: 1 })),
            None
        );
        // Over a channel only service payloads travel.
        session_reply(&mut rule, 1, 5, 3);
        assert_eq!(admitted(&mut rule, 5, 1, upcall()), None);
        assert_eq!(admitted(&mut rule, 1, 5, Payload::sys(1, Syscall::Noop)), None);
        assert_eq!(admitted(&mut rule, 1, 5, stat()), Some(3));
        assert_eq!(rule.refused, 5);
    }

    /// The label is the channel's, whatever the sender wrote: the
    /// session's ident towards the service, 0 on its answers and on
    /// kernel traffic.
    #[test]
    fn a_label_the_sender_wrote_is_overwritten() {
        let mut rule = two_groups();
        session_reply(&mut rule, 2, 6, 7);
        assert_eq!(admitted(&mut rule, 2, 6, stat()), Some(7));
        assert_eq!(admitted(&mut rule, 6, 2, Payload::fs_reply(1, Ok(FsReplyData::Ok))), Some(0));
        assert_eq!(admitted(&mut rule, 2, 0, Payload::sys(1, Syscall::Noop)), Some(0));
        // Another client of the same service sends on its own session.
        session_reply(&mut rule, 3, 6, 8);
        assert_eq!(admitted(&mut rule, 3, 6, stat()), Some(8));
        assert_eq!(admitted(&mut rule, 2, 6, stat()), Some(7));
    }

    /// An ident that does not fit the 32-bit label opens no channel, and
    /// a pair has one channel: a second session between the same two PEs
    /// replaces the first's label, and so do roles the other way round.
    #[test]
    fn a_pair_has_one_channel_and_an_ident_past_32_bits_opens_none() {
        let mut rule = two_groups();
        session_reply(&mut rule, 1, 5, 1 << 32);
        assert_eq!(admitted(&mut rule, 1, 5, stat()), None);
        assert_eq!(admitted(&mut rule, 5, 1, Payload::fs_reply(1, Ok(FsReplyData::Ok))), None);
        assert!(rule.pairs.is_empty());
        session_reply(&mut rule, 1, 5, 1);
        session_reply(&mut rule, 1, 5, u64::from(u32::MAX));
        assert_eq!(admitted(&mut rule, 1, 5, stat()), Some(u32::MAX));
        rule.open(PeId(5), PeId(1), 4);
        assert_eq!(admitted(&mut rule, 1, 5, stat()), Some(0));
        assert_eq!(admitted(&mut rule, 5, 1, stat()), Some(4));
        assert_eq!(rule.pairs.len(), 2);
    }

    /// A filesystem request whose path makes it `bytes` long on the wire
    /// (less 33): long enough that a short message right behind it on
    /// the same channel would overtake it without the FIFO floor.
    fn long_stat(bytes: usize) -> Payload {
        Payload::fs(FsReq { tag: 1, op: FsOp::Stat { path: "/".repeat(bytes).into() } })
    }

    /// Every (src, dst) pair of the two-group machine that the rule
    /// admits, with a channel open between every two VPEs, has a channel
    /// index of its own, and keeps it from send to send.
    #[test]
    fn no_two_pairs_share_a_channel() {
        let mut rule = two_groups();
        let vpes = [1, 2, 3, 5, 6, 7];
        for (i, a) in vpes.into_iter().enumerate() {
            vpes[i + 1..].iter().for_each(|&b| rule.open(PeId(a), PeId(b), 1));
        }
        let mut pair_of = std::collections::BTreeMap::new();
        for _ in 0..2 {
            for (src, dst) in (0..8).flat_map(|s| (0..8).map(move |d| (s, d))) {
                let kernel = |pe| pe % 4 == 0;
                let payload = if kernel(src) || kernel(dst) {
                    Payload::sys(1, Syscall::Noop)
                } else {
                    stat()
                };
                let mut msg = Msg::new(PeId(src), PeId(dst), payload);
                if let Some(ch) = rule.admit(&mut msg) {
                    assert_eq!(*pair_of.entry(ch).or_insert((src, dst)), (src, dst), "{ch:?}");
                }
            }
        }
        // Each kernel to all 8 PEs, each VPE to its kernel and to the 5
        // other VPEs.
        assert_eq!(pair_of.len(), 2 * 8 + 6 * (1 + 5));
    }

    /// Routes `msg` from `src` to `dst` through the rule onto `noc` at
    /// `now`: its channel and delivery time.
    fn sent(rule: &mut Channels, noc: &mut Noc, msg: (u16, u16, Payload), now: u64) -> Cycles {
        let mut msg = Msg::new(PeId(msg.0), PeId(msg.1), msg.2);
        let ch = rule.admit(&mut msg).expect("admitted");
        noc.send(ch, &msg, Cycles(now))
    }

    fn noc() -> Noc {
        Noc::new(Mesh::new(4), CostModel::calibrated())
    }

    /// A session reopened between the same two PEs relabels their
    /// channel and keeps its index, and with it the FIFO floor: a short
    /// request sent right after the reopen does not overtake a long one
    /// sent before it.
    #[test]
    fn a_reopened_channel_keeps_its_fifo_floor() {
        let (mut rule, mut noc) = (two_groups(), noc());
        session_reply(&mut rule, 1, 5, 3);
        let long = sent(&mut rule, &mut noc, (1, 5, long_stat(4000)), 100);
        session_reply(&mut rule, 1, 5, 4);
        assert_eq!(admitted(&mut rule, 1, 5, stat()), Some(4));
        let short = sent(&mut rule, &mut noc, (1, 5, stat()), 100);
        assert!(short > long, "the short request ({short}) overtook the long one ({long})");
    }

    /// A kernel's sends to a PE of another group travel on one channel
    /// of their own, with a floor: the short message behind the long one
    /// arrives after it.
    #[test]
    fn a_kernel_send_outside_its_group_has_a_floor() {
        let (mut rule, mut noc) = (two_groups(), noc());
        let reply = || Payload::sys_reply(1, Ok(SysReplyData::None));
        let long = sent(&mut rule, &mut noc, (0, 5, long_stat(4000)), 100);
        let short = sent(&mut rule, &mut noc, (0, 5, reply()), 100);
        assert!(short > long, "the short message ({short}) overtook the long one ({long})");
        // PE 5's own kernel reaches it on another channel: no floor.
        let own = sent(&mut rule, &mut noc, (4, 5, reply()), 100);
        assert!(own < long);
    }

    /// One mixed script — kernel traffic within and across groups,
    /// system calls, requests and answers over reopened sessions, long
    /// messages followed closely by short ones — routed by the channel
    /// indices the rule hands out, as the timed machine does, and by
    /// [`Noc::route`]'s own naming of pairs: every delivery time agrees.
    #[test]
    fn indexed_routes_match_pair_routes() {
        let (mut rule, mut indexed, mut by_pair) = (two_groups(), noc(), noc());
        let mut rng = semper_sim::DetRng::seed_from(19);
        let (mut now, mut routed, mut bound) = (0u64, 0, 0);
        while routed < 4000 {
            let (src, dst) = (rng.below(8) as u16, rng.below(8) as u16);
            if rng.below(10) == 0 {
                session_reply(&mut rule, src, dst, rng.below(4));
            }
            let short = if rng.below(2) == 0 { stat() } else { Payload::sys(1, Syscall::Noop) };
            let burst = match rng.below(3) {
                0 => vec![(long_stat(rng.between(100, 2000) as usize), 0), (short, rng.below(2))],
                _ => vec![(short, 0)],
            };
            for (payload, gap) in burst {
                now += gap;
                let mut msg = Msg::new(PeId(src), PeId(dst), payload);
                if let Some(ch) = rule.admit(&mut msg) {
                    let at = Cycles(now);
                    let delivery = indexed.send(ch, &msg, at);
                    assert_eq!(delivery, by_pair.route(&msg, at), "message {routed}");
                    bound += usize::from(delivery > noc().route(&msg, at));
                    routed += 1;
                }
            }
            now += rng.below(30);
        }
        assert!(bound > 200, "the floor bound only {bound} times");
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
