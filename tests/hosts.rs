//! The two kernel hosts agree.
//!
//! The timed machine (`semperos::Machine`, here as a `MicroMachine`) and
//! the untimed `TestCluster` share their kernels, stub VPEs and delivery
//! step (`semper_kernel::host`); they differ only in which deliverable
//! message goes next, and when. So one sequential script must give the
//! same replies on both — result variant, selectors, session idents and
//! error codes — and every kernel must count the same work. Cycles are
//! the machine's alone, and so are memory addresses (each host picks
//! its own partition). Both apply the one intake rule, so a forged send
//! is refused on both alike.

use semper_base::msg::{
    FsOp, FsReq, HttpResp, Payload, Perms, SysReplyData, Syscall, Upcall, UpcallReply,
};
use semper_base::{CapSel, Code, ExchangeKind, KernelMode, Msg, OpId, PeId, Result, VpeId};
use semper_kernel::harness::TestCluster;
use semper_kernel::KernelStats;
use semperos::MicroMachine;

const KERNELS: u16 = 2;
const VPES_PER_GROUP: u16 = 3;

/// A kernel host driven one system call at a time.
trait Host {
    /// The stub VPE `j` of group `g`.
    fn vpe(&self, g: u16, j: u16) -> VpeId;
    /// Issues `call` from `vpe` and runs the host until it is quiet.
    fn run(&mut self, vpe: VpeId, call: Syscall) -> Result<SysReplyData>;
    /// Every kernel's counters, by kernel id.
    fn stats(&mut self) -> Vec<KernelStats>;
    /// The PE of `vpe`, and of its group's kernel.
    fn pes(&mut self, vpe: VpeId) -> (PeId, PeId);
    /// Sends `msg` from its source PE and runs the host until it is
    /// quiet; returns whether the intake rule admitted it.
    fn send(&mut self, msg: Msg) -> bool;
    /// Sends the intake rule refused so far.
    fn refused(&mut self) -> u64;
}

impl Host for MicroMachine {
    fn vpe(&self, g: u16, j: u16) -> VpeId {
        MicroMachine::vpe(self, g, j)
    }

    fn run(&mut self, vpe: VpeId, call: Syscall) -> Result<SysReplyData> {
        let (reply, _) = self.machine().syscall_blocking(vpe, call);
        // The reply can overtake traffic it caused (a service's
        // announcements to the other kernels).
        self.machine().run_until_idle();
        reply.result
    }

    fn stats(&mut self) -> Vec<KernelStats> {
        self.machine().kernel_stats()
    }

    fn pes(&mut self, vpe: VpeId) -> (PeId, PeId) {
        let topo = self.machine().topo();
        let pe = topo.vpe_dir[vpe.idx()];
        (pe, topo.membership.kernel_pe(topo.kernel_of(pe)))
    }

    fn send(&mut self, msg: Msg) -> bool {
        let refused = self.refused();
        let now = self.machine().now();
        self.machine().send(msg, now);
        self.machine().run_until_idle();
        self.refused() == refused
    }

    fn refused(&mut self) -> u64 {
        self.machine().refused_sends()
    }
}

impl Host for TestCluster {
    fn vpe(&self, g: u16, j: u16) -> VpeId {
        VpeId(g * VPES_PER_GROUP + j)
    }

    fn run(&mut self, vpe: VpeId, call: Syscall) -> Result<SysReplyData> {
        self.syscall(vpe, call).result
    }

    fn stats(&mut self) -> Vec<KernelStats> {
        self.kernels.iter().map(|k| *k.stats()).collect()
    }

    fn pes(&mut self, vpe: VpeId) -> (PeId, PeId) {
        (self.pe_of(vpe), self.kernels[self.kernel_of(vpe).idx()].pe())
    }

    fn send(&mut self, msg: Msg) -> bool {
        let refused = self.refused();
        TestCluster::send(self, msg);
        self.pump_all();
        self.refused() == refused
    }

    fn refused(&mut self) -> u64 {
        self.refused_sends()
    }
}

fn exchange(other: VpeId, sel: CapSel, kind: ExchangeKind) -> Syscall {
    let (own_sel, other_sel) = match kind {
        ExchangeKind::Delegate => (sel, CapSel::INVALID),
        ExchangeKind::Obtain => (CapSel::INVALID, sel),
    };
    Syscall::Exchange { other, own_sel, other_sel, kind }
}

/// Create; a local and a spanning obtain and delegate; a service with
/// two sessions and one open of a name nobody serves; a revoke, and an
/// obtain of what it revoked. Returns every result, the created
/// region's address blanked, and the kernels' counters of the work.
fn script(h: &mut dyn Host) -> (Vec<Result<SysReplyData>>, Vec<[u64; 6]>) {
    let [owner, local, remote, srv] = [(0, 0), (0, 1), (1, 0), (1, 2)].map(|(g, j)| h.vpe(g, j));
    let [local_recv, remote_recv] = [(0, 2), (1, 1)].map(|(g, j)| h.vpe(g, j));
    let created = h.run(owner, Syscall::CreateMem { size: 4096, perms: Perms::RW });
    let Ok(SysReplyData::Mem { sel, .. }) = created else { panic!("create: {created:?}") };
    let mut log = vec![Ok(SysReplyData::Mem { sel, addr: 0 })];
    let mut run = |vpe, call| log.push(h.run(vpe, call));

    run(local, exchange(owner, sel, ExchangeKind::Obtain));
    run(remote, exchange(owner, sel, ExchangeKind::Obtain));
    run(owner, exchange(local_recv, sel, ExchangeKind::Delegate));
    run(owner, exchange(remote_recv, sel, ExchangeKind::Delegate));
    run(srv, Syscall::CreateSrv { name: 9 });
    run(local, Syscall::OpenSession { name: 9 });
    run(remote, Syscall::OpenSession { name: 9 });
    run(local, Syscall::OpenSession { name: 10 });
    run(owner, Syscall::Revoke { sel, own: true });
    run(local, exchange(owner, sel, ExchangeKind::Obtain));

    let counters = h.stats().into_iter().map(|s| {
        [
            s.syscalls,
            s.exchanges_local,
            s.exchanges_spanning,
            s.kcalls_out,
            s.caps_deleted,
            s.sessions_opened,
        ]
    });
    (log, counters.collect())
}

#[test]
fn machine_and_cluster_give_the_same_replies_and_count_the_same_work() {
    let machine = script(&mut MicroMachine::new(KERNELS, VPES_PER_GROUP, KernelMode::SemperOS));
    let cluster = script(&mut TestCluster::new(KERNELS, VPES_PER_GROUP));
    for (i, (m, c)) in machine.0.iter().zip(&cluster.0).enumerate() {
        assert_eq!(m, c, "reply {i}: machine and cluster disagree");
    }
    assert_eq!(machine.1, cluster.1, "kernel counters disagree");

    // The script reached what it set out to cover.
    let (log, counters) = cluster;
    let idents: Vec<u64> = log
        .iter()
        .filter_map(|r| match r {
            Ok(SysReplyData::Session { ident, .. }) => Some(*ident),
            _ => None,
        })
        .collect();
    assert_eq!(idents, [1, 2], "two sessions at one service");
    let errors: Vec<Code> = log.iter().filter_map(|r| r.as_ref().err().map(|e| e.code())).collect();
    assert_eq!(errors.len(), 2, "the unserved open and the revoked obtain fail: {log:?}");
    let total = |field: usize| counters.iter().map(|c| c[field]).sum::<u64>();
    assert!(total(1) >= 2 && total(2) >= 2, "local and spanning exchanges: {counters:?}");
    assert!(total(4) > 0, "the revoke deleted nothing: {counters:?}");
}

/// Sends that the intake rule refuses on both hosts, and one it admits.
/// Each VPE may send only to its own kernel, and to another VPE only a
/// service payload over an open channel: a system call to the other
/// group's kernel, an upcall or upcall reply between two VPEs, and a
/// filesystem request or HTTP response without a channel are refused
/// before the network, and no kernel sees them. A session's client then
/// sends over the channel its kernel's reply opened; the label another
/// VPE writes opens nothing. Returns what each send did, the refusals
/// and the kernels' system-call counts.
fn forge(h: &mut dyn Host) -> (Vec<bool>, u64, Vec<u64>) {
    let [a, b, srv] = [(0, 0), (0, 1), (1, 2)].map(|(g, j)| h.vpe(g, j));
    let [(pe_a, _), (pe_b, _), (pe_srv, kernel_1)] = [a, b, srv].map(|v| h.pes(v));
    let request = || Payload::fs(FsReq { tag: 1, op: FsOp::Stat { path: "/".into() } });
    let upcall = Upcall::SessionOpen { op: OpId(1), client_vpe: b, client_pe: pe_b };
    let answer = UpcallReply::AcceptExchange { op: OpId(1), accept: true };
    let mut sent = vec![
        h.send(Msg::new(pe_a, kernel_1, Payload::sys(1, Syscall::Noop))),
        h.send(Msg::new(pe_a, pe_srv, Payload::Upcall(upcall))),
        h.send(Msg::new(pe_a, pe_b, Payload::upcall_reply(answer))),
        h.send(Msg::new(pe_a, pe_srv, request())),
        h.send(Msg::new(pe_srv, pe_a, Payload::HttpReply(HttpResp { id: 1, bytes: 1 }))),
    ];
    assert!(matches!(h.run(srv, Syscall::CreateSrv { name: 9 }), Ok(SysReplyData::Sel(_))));
    let session = h.run(a, Syscall::OpenSession { name: 9 });
    assert!(matches!(session, Ok(SysReplyData::Session { srv_pe, .. }) if srv_pe == pe_srv));
    sent.push(h.send(Msg::new(pe_a, pe_srv, request())));
    sent.push(h.send(Msg { label: 1, ..Msg::new(pe_b, pe_srv, request()) }));
    let syscalls = h.stats().iter().map(|s| s.syscalls).collect();
    (sent, h.refused(), syscalls)
}

#[test]
fn a_forged_send_is_refused_alike_on_both_hosts() {
    let machine = forge(&mut MicroMachine::new(KERNELS, VPES_PER_GROUP, KernelMode::SemperOS));
    let cluster = forge(&mut TestCluster::new(KERNELS, VPES_PER_GROUP));
    assert_eq!(machine, cluster, "the hosts' intake rules disagree");
    let (sent, refused, syscalls) = cluster;
    assert_eq!(sent, [false, false, false, false, false, true, false]);
    assert_eq!(refused, 6);
    assert_eq!(syscalls, [1, 1], "only the two real system calls reached a kernel");
}
