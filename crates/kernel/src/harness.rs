//! A synchronous multi-kernel test harness.
//!
//! [`TestCluster`] wires several kernels with stub VPEs and a FIFO
//! message queue — no timing, no NoC model — so protocol logic can be
//! unit- and property-tested in isolation. The FIFO queue preserves the
//! per-channel ordering precondition (§4.3.1). The kernels, the stubs
//! and the delivery step are [`crate::host`]'s, shared with the timed
//! machine in the `semperos` crate; the queue is the cluster's own.
//!
//! The stubs auto-accept exchanges and sessions unless told otherwise,
//! and the queue can be stepped one message at a time to construct the
//! exact interleavings of Table 2.
//!
//! The cluster is also the one host of fail-stop fault injection
//! ([`TestCluster::set_fault_plan`]): the plan's crash points stop
//! kernels, traffic to a stopped kernel vanishes, and everything else
//! is delivered by the one `dispatch`. The fault clock — the deadlines'
//! time — is the cluster's step counter.

use std::collections::VecDeque;

use semper_base::config::MachineConfig;
use semper_base::msg::{Payload, SysReply, Syscall};
use semper_base::{KernelId, Msg, PeId, VpeId};
use semper_caps::MembershipTable;
use semper_noc::GlobalMemory;
use semper_sim::FaultPlan;

use crate::host::{self, Channels, StubVpe};
use crate::kernel::Kernel;
use crate::outbox::Outbox;

/// A deterministic, untimed cluster of kernels and stub VPEs.
#[derive(Clone)]
pub struct TestCluster {
    /// The kernels, indexed by kernel id.
    pub kernels: Vec<Kernel>,
    queue: VecDeque<Msg>,
    channels: Channels,
    membership: MembershipTable,
    pe_of_vpe: Vec<PeId>,
    /// The stub VPEs, indexed by PE (a kernel's PE holds an unused one).
    stubs: Vec<StubVpe>,
    tag_counter: u64,
    /// When armed, every dispatched message is recorded (delivery order,
    /// full payload) — the protocol-trace fingerprint used by the
    /// trace-equivalence tests.
    trace: Option<Vec<String>>,
    /// The scripted fault plan, when this cluster runs under fault
    /// injection (see [`TestCluster::set_fault_plan`]).
    fault_plan: Option<FaultPlan>,
    /// The fault clock — the only one the fault engine has: one tick
    /// per [`TestCluster::step`] under a plan (plus quiet-network jumps
    /// to the next deadline).
    fault_step: u64,
}

impl TestCluster {
    /// Builds a cluster of `kernels` kernels with `vpes_per_group` stub
    /// VPEs each. PE layout: each group occupies a contiguous PE range;
    /// the group's first PE hosts the kernel, the rest host VPEs.
    pub fn new(kernels: u16, vpes_per_group: u16) -> TestCluster {
        let num_pes = kernels * (1 + vpes_per_group);
        let mut cfg = MachineConfig::small();
        cfg.num_pes = num_pes;
        cfg.mesh_width = semper_base::config::mesh_width_for(num_pes);
        cfg.kernels = kernels;
        cfg.mode = semper_base::KernelMode::SemperOS;

        let membership = MembershipTable::contiguous(num_pes, kernels);
        let pe_of_vpe: Vec<PeId> = (0..num_pes)
            .map(PeId)
            .filter(|&pe| host::kernel_at(&membership, pe).is_none())
            .collect();
        let kernels = host::kernels(&cfg, &membership, &pe_of_vpe, |k| {
            GlobalMemory::new((u64::from(k.0) + 1) << 32, 1 << 30)
        });
        TestCluster {
            kernels,
            queue: VecDeque::new(),
            channels: Channels::new(membership.clone()),
            membership,
            pe_of_vpe,
            stubs: (0..num_pes).map(|_| StubVpe::default()).collect(),
            tag_counter: 0,
            trace: None,
            fault_plan: None,
            fault_step: 0,
        }
    }

    /// Starts recording every dispatched message (delivery order plus
    /// full payload). The resulting trace is the protocol's observable
    /// behaviour: two implementations that produce the same trace are
    /// indistinguishable to VPEs and to other kernels.
    pub fn enable_tracing(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the recorded trace (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Vec<String> {
        self.trace.take().unwrap_or_default()
    }

    /// The PE of a VPE.
    pub fn pe_of(&self, vpe: VpeId) -> PeId {
        self.pe_of_vpe[vpe.idx()]
    }

    /// The kernel managing a VPE.
    pub fn kernel_of(&self, vpe: VpeId) -> KernelId {
        self.membership.kernel_of(self.pe_of(vpe))
    }

    fn stub(&mut self, vpe: VpeId) -> &mut StubVpe {
        &mut self.stubs[self.pe_of_vpe[vpe.idx()].idx()]
    }

    /// Makes `vpe` deny future exchange upcalls.
    pub fn deny_exchanges(&mut self, vpe: VpeId) {
        self.stub(vpe).deny = true;
    }

    /// Kills `vpe`: its kernel revokes everything; its stub stops
    /// responding to in-flight upcalls. A crashed kernel revokes
    /// nothing.
    pub fn kill(&mut self, vpe: VpeId) {
        self.stub(vpe).dead = true;
        let k = self.kernel_of(vpe);
        if self.kernels[k.idx()].crashed() {
            return;
        }
        let mut out = Outbox::new();
        self.kernels[k.idx()].kill_vpe(vpe, &mut out);
        self.enqueue_from(k, out);
    }

    /// Issues a system call from `vpe` without pumping; returns the tag.
    pub fn syscall_async(&mut self, vpe: VpeId, call: Syscall) -> u64 {
        let msg = self.sys_msg(vpe, call);
        self.send(msg);
        self.tag_counter
    }

    /// Issues a system call that jumps the message queue (delivered
    /// before anything already queued). Syscalls travel on a different
    /// channel than inter-kernel traffic, so this reordering is legal
    /// under the per-channel FIFO precondition — it is exactly how the
    /// Table 2 races arise on real hardware.
    pub fn syscall_front(&mut self, vpe: VpeId, call: Syscall) -> u64 {
        let mut msg = self.sys_msg(vpe, call);
        if self.channels.admit(&mut msg).is_some() {
            self.queue.push_front(msg);
        }
        self.tag_counter
    }

    /// The message carrying `call` from `vpe` to its kernel, with a fresh tag.
    fn sys_msg(&mut self, vpe: VpeId, call: Syscall) -> Msg {
        self.tag_counter += 1;
        let kernel_pe = self.membership.kernel_pe(self.kernel_of(vpe));
        Msg::new(self.pe_of(vpe), kernel_pe, Payload::sys(self.tag_counter, call))
    }

    /// Sends `msg` from its source PE: through [`Channels::admit`] to the queue's back.
    pub fn send(&mut self, mut msg: Msg) {
        if self.channels.admit(&mut msg).is_some() {
            self.queue.push_back(msg);
        }
    }

    /// Sends the intake rule refused so far.
    pub fn refused_sends(&self) -> u64 {
        self.channels.refused
    }

    /// Issues a system call and pumps to quiescence; returns the reply.
    pub fn syscall(&mut self, vpe: VpeId, call: Syscall) -> SysReply {
        let tag = self.syscall_async(vpe, call);
        self.pump_all();
        self.take_reply(vpe, tag).expect("syscall must produce a reply")
    }

    /// Removes and returns the reply with the given tag, if present.
    pub fn take_reply(&mut self, vpe: VpeId, tag: u64) -> Option<SysReply> {
        self.stub(vpe).take_reply(tag)
    }

    /// Processes a single queued message; returns false when idle.
    /// Under a fault plan each step ticks the fault clock and polls every
    /// surviving kernel's deadlines, and idleness additionally requires
    /// that no deadline is armed: with the network quiet, the clock
    /// jumps to the earliest one, so a starved operation aborts instead
    /// of hanging the run.
    pub fn step(&mut self) -> bool {
        let planned = self.fault_plan.is_some();
        if planned {
            self.fault_step += 1;
        }
        let Some(msg) = self.queue.pop_front() else {
            let next = self
                .kernels
                .iter()
                .filter(|k| !k.crashed())
                .filter_map(|k| k.next_fault_deadline())
                .min();
            let Some(deadline) = next else {
                return false;
            };
            self.fault_step = self.fault_step.max(deadline);
            self.poll_fault_deadlines();
            return true;
        };
        self.dispatch(msg);
        if planned {
            self.poll_fault_deadlines();
        }
        true
    }

    /// Pumps until no messages remain.
    pub fn pump_all(&mut self) {
        let mut steps = 0u64;
        while self.step() {
            steps += 1;
            assert!(steps < 1_000_000, "message storm: protocol does not quiesce");
        }
    }

    /// Pumps at most `n` messages (for constructing interleavings).
    pub fn pump_n(&mut self, n: usize) {
        for _ in 0..n {
            if !self.step() {
                break;
            }
        }
    }

    /// Checks invariants on every kernel (crashed ones excluded — their
    /// state froze mid-operation by design), and with nothing queued the
    /// links between them ([`host::check_invariants`]).
    pub fn check_invariants(&self) {
        host::check_invariants(&self.kernels, self.queue.is_empty())
            .unwrap_or_else(|e| panic!("{e}"));
    }

    // ----- fault injection ----------------------------------------------

    /// Arms a fault plan: scripted crash points are installed, and each
    /// kernel arms a deadline of `deadline_budget` steps on every phase
    /// that awaits a VPE. Must be set before the workload starts.
    pub fn set_fault_plan(&mut self, plan: FaultPlan, deadline_budget: u64) {
        for k in &mut self.kernels {
            k.arm_deadlines(deadline_budget);
            let points = plan.crash_points(k.id().0);
            if !points.is_empty() {
                k.arm_crash_points(points);
            }
        }
        self.fault_plan = Some(plan);
    }

    /// Asserts that the cluster reached true quiescence: no queued
    /// messages, and every surviving kernel passes
    /// [`Kernel::check_quiescent`] (empty ledger, no leaked waiters).
    /// The termination property of the fault engine.
    pub fn assert_quiescent(&self) {
        assert!(self.queue.is_empty(), "{} messages still queued", self.queue.len());
        for k in self.kernels.iter().filter(|k| !k.crashed()) {
            k.check_quiescent().unwrap_or_else(|e| panic!("not quiescent: {e}"));
        }
    }

    /// Runs every surviving kernel's deadline poll and injects whatever
    /// the aborts produced.
    fn poll_fault_deadlines(&mut self) {
        let now = self.fault_step;
        self.each_survivor(|k, out| k.poll_faults(now, out));
    }

    /// Takes a crashed kernel's island down: runs peer-death detection
    /// on every survivor (in kernel-id order), so their in-flight
    /// operations towards the corpse end.
    fn kernel_down(&mut self, dead: KernelId) {
        self.each_survivor(|k, out| k.peer_down(dead, out));
    }

    /// Runs `f` on every surviving kernel, in kernel-id order, and queues
    /// what each emits.
    fn each_survivor(&mut self, f: impl Fn(&mut Kernel, &mut Outbox)) {
        for i in 0..self.kernels.len() {
            if !self.kernels[i].crashed() {
                let mut out = Outbox::new();
                f(&mut self.kernels[i], &mut out);
                self.enqueue_from(KernelId(i as u16), out);
            }
        }
    }

    /// Total capabilities across all mapping databases.
    pub fn total_caps(&self) -> usize {
        self.kernels.iter().map(|k| k.mapdb().len()).sum()
    }

    /// Sends a handler's output.
    fn enqueue(&mut self, mut out: Outbox) {
        for (msg, _) in out.drain_iter() {
            self.send(msg);
        }
    }

    /// Queues what kernel `k` emitted outside a delivery (a kill, a
    /// deadline poll, a peer-death abort). A crash point that fired on
    /// the way (a kill's revocations park) takes the kernel down, as
    /// one inside a delivery does.
    fn enqueue_from(&mut self, k: KernelId, out: Outbox) {
        self.enqueue(out);
        if self.kernels[k.idx()].crashed() {
            self.kernel_down(k);
        }
    }

    /// The one delivery funnel: every message is handled here, by
    /// [`host::deliver`] for a kernel and by its stub for a VPE. A
    /// kernel's output is queued before the credit traffic. Traffic to
    /// a crashed kernel vanishes, and a request's credit with it: no
    /// survivor sends the crashed kernel another request
    /// ([`Kernel::peer_down`]).
    fn dispatch(&mut self, msg: Msg) {
        let dst = host::kernel_at(&self.membership, msg.dst);
        if dst.is_some_and(|d| self.kernels[d.idx()].crashed()) {
            return;
        }
        if let Some(trace) = &mut self.trace {
            trace.push(format!("{}->{} {:?}", msg.src, msg.dst, msg.payload));
        }
        let mut out = Outbox::new();
        let Some(k) = dst else {
            // The cluster is untimed: the stub's cost goes unused.
            self.stubs[msg.dst.idx()].handle(&msg, &mut out, &self.kernels[0].cfg.cost);
            self.enqueue(out);
            return;
        };
        let mut credits = Outbox::new();
        let handled =
            host::deliver(&mut self.kernels, &self.membership, &msg, &mut out, &mut credits);
        self.enqueue(out);
        self.enqueue(credits);
        if handled.is_none() {
            // A scripted crash point fired *inside* this handler: the
            // island died with the handler's output unsent.
            self.kernel_down(k);
        }
    }
}

impl Drop for TestCluster {
    /// Every fault-injected cluster must be driven to true quiescence
    /// before it goes away — a test that forgets to pump is exactly the
    /// silent hang the termination hardening exists to catch. Fault-free
    /// clusters are exempt (constructing racy intermediate states and
    /// abandoning them is the harness's whole job), as is teardown
    /// during an unwind from an unrelated failure.
    fn drop(&mut self) {
        if self.fault_plan.is_some() && !std::thread::panicking() {
            self.assert_quiescent();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semper_base::msg::{ExchangeKind, Perms, SysReplyData};
    use semper_base::CapSel;

    #[test]
    fn cluster_boots() {
        let c = TestCluster::new(2, 2);
        assert_eq!(c.kernels.len(), 2);
        // Each VPE has its self-capability.
        assert_eq!(c.total_caps(), 4);
        c.check_invariants();
    }

    #[test]
    fn create_mem_gives_selector() {
        let mut c = TestCluster::new(1, 2);
        let r = c.syscall(VpeId(0), Syscall::CreateMem { size: 4096, perms: Perms::RW });
        assert!(matches!(r.result, Ok(SysReplyData::Mem { sel, .. }) if sel != CapSel::INVALID));
        c.check_invariants();
    }

    /// VPE 1 obtains VPE 0's fresh memory capability; returns the
    /// kernels' exchange counters (local, spanning).
    fn obtain_from_vpe0(mut c: TestCluster) -> Vec<(u64, u64)> {
        let r = c.syscall(VpeId(0), Syscall::CreateMem { size: 64, perms: Perms::RW });
        let Ok(SysReplyData::Mem { sel, .. }) = r.result else { panic!() };
        let kind = ExchangeKind::Obtain;
        let call =
            Syscall::Exchange { other: VpeId(0), own_sel: CapSel::INVALID, other_sel: sel, kind };
        let r = c.syscall(VpeId(1), call);
        assert!(matches!(r.result, Ok(SysReplyData::Sel(_))), "{:?}", r.result);
        c.check_invariants();
        c.kernels
            .iter()
            .map(|k| (k.stats().exchanges_local, k.stats().exchanges_spanning))
            .collect()
    }

    /// A table indexes its keys by object id alone, so a binding whose
    /// key names another VPE is an invariant violation even when the
    /// table and the record agree.
    #[test]
    fn a_binding_of_another_vpes_key_is_caught() {
        use semper_base::msg::CapKindDesc;
        use semper_base::{CapType, DdlKey};
        use semper_caps::Capability;
        let mut c = TestCluster::new(1, 2);
        c.check_invariants();
        let k = &mut c.kernels[0];
        let forged = DdlKey::new(PeId(2), VpeId(1), CapType::Memory, 1000);
        let kind = CapKindDesc::Memory { addr: 0, size: 64, perms: Perms::RW };
        k.install(Capability::root(forged, kind, VpeId(0), CapSel::INVALID));
        let err = k.check_invariants().unwrap_err();
        assert!(err.contains("a key of VPE1"), "{err}");
    }

    /// A VPE activates only capabilities of its own table, so an
    /// endpoint register that names another VPE's capability is an
    /// invariant violation.
    #[test]
    fn a_register_naming_another_vpes_capability_is_caught() {
        use semper_base::EpId;
        let mut c = TestCluster::new(1, 2);
        let r = c.syscall(VpeId(1), Syscall::CreateMem { size: 64, perms: Perms::RW });
        let Ok(SysReplyData::Mem { sel, .. }) = r.result else { panic!("{:?}", r.result) };
        let r = c.syscall(VpeId(1), Syscall::Activate { sel, ep: EpId(5) });
        assert!(r.result.is_ok(), "{:?}", r.result);
        c.check_invariants();
        let k = &mut c.kernels[0];
        let theirs = k.ep_binding(VpeId(1), EpId(5)).expect("VPE 1's endpoint 5 is active");
        k.vpe_mut(VpeId(0)).unwrap().eps[5] = Some(theirs);
        let err = k.check_invariants().unwrap_err();
        assert!(err.contains("VPE0 EP5 is activated for"), "{err}");
    }

    /// A child link into a live kernel that names no record there is a
    /// violation once nothing is queued; with a message in flight it is
    /// not checked (an exchange links a child before it is installed).
    #[test]
    fn a_stale_link_into_a_live_kernel_is_caught_at_quiescence() {
        use semper_base::{CapType, DdlKey};
        let mut c = TestCluster::new(2, 1);
        let r = c.syscall(VpeId(0), Syscall::CreateMem { size: 64, perms: Perms::RW });
        let Ok(SysReplyData::Mem { sel, .. }) = r.result else { panic!("{r:?}") };
        let parent = c.kernels[0].table(VpeId(0)).unwrap().get(sel).unwrap();
        let gone = DdlKey::new(c.pe_of(VpeId(1)), VpeId(1), CapType::Memory, 1000);
        c.kernels[0].mapdb.link_child(parent, gone).unwrap();
        c.syscall_async(VpeId(1), Syscall::Noop);
        c.check_invariants();
        c.pump_all();
        let caught = std::panic::catch_unwind(|| c.check_invariants()).unwrap_err();
        let caught = caught.downcast_ref::<String>().unwrap();
        assert!(caught.contains("lists") && caught.contains("gone at K1"), "{caught}");
    }

    /// A record whose parent lives on another live kernel is in that
    /// parent's list once nothing is queued: one that is not, which a
    /// revocation of the parent would miss, is caught and named.
    #[test]
    fn a_record_missing_from_its_remote_parents_list_is_caught_at_quiescence() {
        use semper_base::msg::CapKindDesc;
        use semper_base::CapType;
        use semper_caps::Capability;
        let mut c = TestCluster::new(2, 1);
        let r = c.syscall(VpeId(0), Syscall::CreateMem { size: 64, perms: Perms::RW });
        let Ok(SysReplyData::Mem { sel, addr }) = r.result else { panic!("{r:?}") };
        let parent = c.kernels[0].table(VpeId(0)).unwrap().get(sel).unwrap();
        let k = &mut c.kernels[1];
        let key = k.new_key(VpeId(1), CapType::Memory).unwrap();
        let kind = CapKindDesc::Memory { addr, size: 64, perms: Perms::R };
        k.install(Capability::child(key, kind, VpeId(1), CapSel::INVALID, parent));
        c.syscall_async(VpeId(1), Syscall::Noop);
        c.check_invariants();
        c.pump_all();
        let caught = std::panic::catch_unwind(|| c.check_invariants()).unwrap_err();
        let caught = caught.downcast_ref::<String>().unwrap();
        assert!(caught.contains("is missing from") && caught.contains("list at K0"), "{caught}");
    }

    #[test]
    fn local_obtain_roundtrip() {
        assert_eq!(obtain_from_vpe0(TestCluster::new(1, 2)), [(1, 0)]);
    }

    #[test]
    fn spanning_obtain_roundtrip() {
        // VPE 0 in group 0, VPE 1 in group 1.
        assert_eq!(obtain_from_vpe0(TestCluster::new(2, 1)), [(0, 0), (0, 1)]);
    }
}
