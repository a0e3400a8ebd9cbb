//! The kernel actor: state, boot, and message dispatch.
//!
//! # Bookkeeping determinism contract
//!
//! State named by a small integer is stored at that integer: per-VPE
//! tables and state are vectors indexed by [`VpeId`], the PE → VPE map
//! by [`PeId`], the credit gate by [`KernelId`], mapping-database
//! records at their DDL key's (VPE, object id) address, and a table's
//! reverse index at the bound key's object id. A group's VPEs are
//! scattered over the global id space, so per-VPE slots are boxed: an
//! empty slot costs one word. What has no such name — sibling links
//! keyed by a possibly remote child, pending operations, revoke
//! waiters, endpoint bindings — lives in fixed-seed hash maps
//! ([`semper_base::hash`]). Every lookup is O(1), and one with an id
//! past a vector's end misses without growing it.
//!
//! Protocol-visible ordering never comes from storage order: the
//! `semper_sim::EventQueue`'s FIFO tie-break stays the sole ordering
//! authority, subtree walks follow creation-ordered child lists, and the
//! one teardown path that collects from a map sorts by op id before
//! acting (see [`Kernel::kill_vpe`]'s cancellation sweep).

use std::collections::VecDeque;

use semper_base::config::{KernelMode, MachineConfig};
use semper_base::msg::{KReply, Kcall, Payload, SysReplyData, Syscall, Upcall};
use semper_base::{Code, Error, KernelId, Msg, OpId, PeId, Result, VpeId};
use semper_caps::{CapTable, Capability, KeyAllocator, MappingDb, MembershipTable};
use semper_noc::GlobalMemory;

use crate::ops::ledger::PendingTable;
use crate::ops::PendingOp;
use crate::outbox::Outbox;
use crate::registry::Registry;
use crate::stats::KernelStats;
use crate::vpes::{VpeLife, VpeState};

/// Selector 0 of every VPE holds its own VPE capability.
pub const SEL_VPE: u32 = 0;
/// First selector available for general allocation.
pub const FIRST_FREE_SEL: u32 = 2;

/// One SemperOS kernel instance, managing one PE group.
pub struct Kernel {
    pub(crate) id: KernelId,
    pub(crate) pe: PeId,
    pub(crate) cfg: MachineConfig,
    pub(crate) membership: MembershipTable,
    /// Global VPE → PE directory (static).
    pub(crate) vpe_dir: Vec<PeId>,

    pub(crate) mapdb: MappingDb,
    /// The group's capability tables and VPE states, indexed by VPE id.
    tables: Vec<Option<Box<CapTable>>>,
    vpes: Vec<Option<Box<VpeState>>>,
    /// The VPE on each PE of the group, indexed by PE id.
    pe2vpe: Vec<Option<VpeId>>,
    pub(crate) keys: KeyAllocator,
    pub(crate) registry: Registry,
    pub(crate) mem: GlobalMemory,

    pub(crate) pending: PendingTable,
    pub(crate) next_op: u64,
    /// Revocation state: waiter registry and work buffers (see
    /// [`crate::ops::revoke`]).
    pub(crate) revoke: crate::ops::revoke::RevokeState,

    /// The inter-kernel request credit gate (§4.1).
    pub(crate) kgate: CreditGate,
    /// DTU endpoint configurations of the group's VPEs: which capability
    /// each endpoint is activated for, with the reverse index that makes
    /// the revocation sweep's per-deletion endpoint invalidation O(1).
    /// Forward and reverse maps are encapsulated so they cannot drift
    /// (see [`crate::epbind::EpBindings`] and the `gates` module).
    pub(crate) eps: crate::epbind::EpBindings,

    /// Fail-stop fault state (deadlines, crash script, dead peers);
    /// inert unless the harness armed it (see [`crate::ops::faults`]).
    pub(crate) fault: crate::ops::faults::FaultState,

    pub(crate) stats: KernelStats,
}

/// The credit gate of §4.1: at most `M_inflight` requests are in
/// flight towards each peer kernel (one per DTU message slot); further
/// requests queue here until a consumed request returns its credit.
#[derive(Debug)]
pub(crate) struct CreditGate {
    /// Send credits left towards each kernel, indexed by kernel id.
    pub(crate) credits: Vec<u32>,
    /// Requests waiting for a credit, per kernel.
    queue: Vec<VecDeque<Kcall>>,
}

impl CreditGate {
    /// A full window of `credits` towards each of `kernels` kernels.
    fn new(kernels: usize, credits: u32) -> CreditGate {
        CreditGate { credits: vec![credits; kernels], queue: vec![VecDeque::new(); kernels] }
    }

    /// Drops the requests stalled towards a dead peer (nobody will
    /// consume them; their operations abort instead).
    pub(crate) fn drop_queue(&mut self, peer: KernelId) {
        self.queue[peer.idx()].clear();
    }

    /// No request is stalled behind the gate.
    pub(crate) fn quiescent(&self) -> core::result::Result<(), String> {
        let stalled: Vec<(KernelId, usize)> = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(k, q)| (KernelId(k as u16), q.len()))
            .collect();
        if stalled.is_empty() {
            return Ok(());
        }
        Err(format!("credit-stalled requests: {stalled:?}"))
    }
}

impl Kernel {
    /// Creates a kernel for group `id` of `membership`, with the global
    /// VPE → PE directory `vpe_dir` and no VPEs of its own yet.
    ///
    /// `mem` is this kernel's partition of the global address space
    /// (kernels allocate memory independently — state is kept where it
    /// emerges, §3.1).
    pub fn new(
        id: KernelId,
        cfg: MachineConfig,
        membership: MembershipTable,
        vpe_dir: Vec<PeId>,
        mem: GlobalMemory,
    ) -> Kernel {
        let pe = membership.kernel_pe(id);
        let kgate = CreditGate::new(membership.kernel_count(), cfg.max_inflight);
        Kernel {
            id,
            pe,
            pe2vpe: vec![None; membership.pe_count()],
            cfg,
            membership,
            vpe_dir,
            mapdb: MappingDb::new(),
            tables: Vec::new(),
            vpes: Vec::new(),
            keys: KeyAllocator::new(),
            registry: Registry::new(),
            mem,
            pending: PendingTable::default(),
            next_op: 1,
            revoke: Default::default(),
            kgate,
            eps: crate::epbind::EpBindings::new(),
            fault: Default::default(),
            stats: KernelStats::default(),
        }
    }

    /// This kernel's id.
    pub fn id(&self) -> KernelId {
        self.id
    }

    /// The PE this kernel runs on.
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// Statistics counters.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The mapping database (read access for tests and verification).
    pub fn mapdb(&self) -> &MappingDb {
        &self.mapdb
    }

    /// The service registry (read access).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Number of in-flight (suspended) operations — logical kernel
    /// threads in use (§4.2).
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// Enables an optional protocol feature at runtime (ablation tests
    /// and benchmarks).
    pub fn enable_feature_for_test(&mut self, f: semper_base::Feature) {
        if !self.cfg.features.contains(&f) {
            self.cfg.features.push(f);
        }
    }

    /// Registers a VPE running on `pe` in this kernel's group, giving it
    /// a fresh capability table with its self-capability at selector 0.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is not in this kernel's group or already hosts a
    /// VPE.
    pub fn add_vpe(&mut self, vpe: VpeId, pe: PeId) {
        assert_eq!(self.membership.kernel_of(pe), self.id, "PE not in this group");
        assert!(self.pe2vpe[pe.idx()].is_none(), "PE already hosts a VPE");
        let mut table = CapTable::new(FIRST_FREE_SEL);
        let key = self.keys.alloc(pe, vpe, semper_base::CapType::Vpe);
        table.insert(semper_base::CapSel(SEL_VPE), key).expect("selector 0 is reserved and free");
        self.mapdb.insert(Capability::root(
            key,
            semper_base::msg::CapKindDesc::Vpe { vpe },
            vpe,
            semper_base::CapSel(SEL_VPE),
        ));
        self.stats.caps_created += 1;
        if vpe.idx() >= self.tables.len() {
            self.tables.resize_with(vpe.idx() + 1, || None);
            self.vpes.resize_with(vpe.idx() + 1, || None);
        }
        self.tables[vpe.idx()] = Some(Box::new(table));
        self.vpes[vpe.idx()] = Some(Box::new(VpeState::new(vpe, pe)));
        self.pe2vpe[pe.idx()] = Some(vpe);
    }

    /// The capability table of a VPE (tests and verification).
    pub fn table(&self, vpe: VpeId) -> Option<&CapTable> {
        self.tables.get(vpe.idx())?.as_deref()
    }

    /// The capability table of a VPE of this group.
    pub(crate) fn table_mut(&mut self, vpe: VpeId) -> Option<&mut CapTable> {
        self.tables.get_mut(vpe.idx())?.as_deref_mut()
    }

    /// Every capability table of the group, in VPE order.
    fn tables(&self) -> impl Iterator<Item = (VpeId, &CapTable)> {
        let tables = self.tables.iter().enumerate();
        tables.filter_map(|(v, t)| Some((VpeId(v as u16), t.as_deref()?)))
    }

    /// The state of a VPE of this group.
    pub(crate) fn vpe_state(&self, vpe: VpeId) -> Option<&VpeState> {
        self.vpes.get(vpe.idx())?.as_deref()
    }

    /// The state of a VPE of this group, mutably.
    pub(crate) fn vpe_state_mut(&mut self, vpe: VpeId) -> Option<&mut VpeState> {
        self.vpes.get_mut(vpe.idx())?.as_deref_mut()
    }

    /// True if the VPE is registered here and alive.
    pub fn vpe_alive(&self, vpe: VpeId) -> bool {
        self.vpe_state(vpe).is_some_and(|v| v.alive())
    }

    // ----- id helpers -------------------------------------------------

    /// Allocates a fresh correlation id.
    pub(crate) fn alloc_op(&mut self) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        op
    }

    /// The kernel managing `vpe` (via the global directory and the
    /// membership table).
    pub(crate) fn kernel_of_vpe(&self, vpe: VpeId) -> Result<KernelId> {
        let pe = self.vpe_dir.get(vpe.idx()).copied().ok_or_else(|| Error::new(Code::NoSuchVpe))?;
        Ok(self.membership.kernel_of(pe))
    }

    /// The PE of a VPE (any group).
    pub(crate) fn pe_of_vpe(&self, vpe: VpeId) -> Result<PeId> {
        self.vpe_dir.get(vpe.idx()).copied().ok_or_else(|| Error::new(Code::NoSuchVpe))
    }

    /// The VPE on a PE of this group.
    pub(crate) fn vpe_on_pe(&self, pe: PeId) -> Result<VpeId> {
        self.pe2vpe.get(pe.idx()).copied().flatten().ok_or_else(|| Error::new(Code::NoSuchVpe))
    }

    /// Cost of following one capability reference: plain lookup in M3
    /// mode, plus a DDL decode in SemperOS mode (the source of the
    /// 10-40% local overhead in Table 3).
    pub(crate) fn ref_cost(&self) -> u64 {
        match self.cfg.mode {
            KernelMode::M3 => self.cfg.cost.cap_lookup,
            KernelMode::SemperOS => self.cfg.cost.cap_lookup + self.cfg.cost.ddl_decode,
        }
    }

    /// Registers a pending operation, enforcing the thread-pool bound
    /// (§4.2).
    ///
    /// Only operations that *park a cooperative thread* count against
    /// the pool: syscall-initiated operations waiting for remote kernels
    /// or upcall answers (at most one per VPE — each VPE has one
    /// blocking syscall) and incoming requests waiting on a local VPE's
    /// upcall (bounded by `K_max · M_inflight` consumed-but-unanswered
    /// requests). Revocation state for *incoming* revoke requests is
    /// explicitly thread-free in the paper's design (Algorithm 1's
    /// handlers return without pausing; at most two threads process the
    /// queue), so it is exempt.
    pub(crate) fn park(&mut self, op: OpId, state: PendingOp) {
        self.note_parked(op, &state);
        self.pending.insert(op, state);
        let in_use = self.pending.threads_in_use();
        // The pool only grows (VPEs are added, never removed), so only a
        // new maximum can exceed it.
        if in_use > self.stats.max_pending_ops {
            self.stats.max_pending_ops = in_use;
            let vpes = self.vpes.iter().flatten().count() as u32;
            let pool = u64::from(self.cfg.thread_pool_size(vpes));
            assert!(
                in_use <= pool,
                "kernel {id}: {in_use} thread-holding ops exceed pool {pool}",
                id = self.id
            );
        }
    }

    // ----- messaging helpers -------------------------------------------

    /// Sends an upcall to the VPE on `dst_pe` (consent requests and
    /// session notifications — the kernel → VPE leg of the op engine's
    /// fan-out).
    pub(crate) fn send_upcall(&mut self, out: &mut Outbox, dst_pe: PeId, up: Upcall) {
        out.push(Msg::new(self.pe, dst_pe, Payload::Upcall(up)));
    }

    /// Sends a system-call reply to a VPE — the single completion
    /// funnel of every syscall path.
    pub(crate) fn reply_sys(
        &mut self,
        out: &mut Outbox,
        vpe: VpeId,
        tag: u64,
        result: Result<SysReplyData>,
    ) {
        if let Ok(pe) = self.pe_of_vpe(vpe) {
            out.push(Msg::new(self.pe, pe, Payload::sys_reply(tag, result)));
        }
    }

    /// Sends an inter-kernel request when the handler completes (see
    /// [`Kernel::send_kcall_at`]).
    pub(crate) fn send_kcall(&mut self, out: &mut Outbox, peer: KernelId, call: Kcall) {
        self.send_kcall_at(out, peer, call, None);
    }

    /// Sends an inter-kernel request, honouring the credit budget: if no
    /// credit is available towards `peer`, the request queues until a
    /// reply returns a credit (prevents DTU message-slot overruns, §4.1).
    /// With `after`, an admitted message is injected that many cycles
    /// after the handler *started* (pipelined send from within a loop)
    /// instead of when it completes.
    pub(crate) fn send_kcall_at(
        &mut self,
        out: &mut Outbox,
        peer: KernelId,
        call: Kcall,
        after: Option<u64>,
    ) {
        assert_ne!(peer, self.id, "kcall to self");
        let credits = &mut self.kgate.credits[peer.idx()];
        if *credits > 0 {
            *credits -= 1;
            self.stats.kcalls_out += 1;
            let msg = Msg::new(self.pe, self.membership.kernel_pe(peer), Payload::kcall(call));
            match after {
                None => out.push(msg),
                Some(offset) => out.push_after(msg, offset),
            }
        } else {
            self.stats.kcalls_credit_stalled += 1;
            self.kgate.queue[peer.idx()].push_back(call);
        }
    }

    /// Sends an inter-kernel reply (replies are not credit-gated; they
    /// use the dedicated reply slots of the request message).
    pub(crate) fn send_kreply(&mut self, out: &mut Outbox, peer: KernelId, reply: KReply) {
        let dst = self.membership.kernel_pe(peer);
        out.push(Msg::new(self.pe, dst, Payload::kreply(reply)));
    }

    /// Returns one credit for `peer` and drains its queue if possible.
    ///
    /// Called by the host ([`crate::host::free_slot`]) when the peer's
    /// DTU *consumed* our request (freeing its message slot) — the
    /// paper's slot tracking (§4.1). Note credits return on consumption, not on the protocol
    /// reply: replies can be arbitrarily delayed (e.g. deep revocation
    /// chains), and the thread-pool formula `K_max · M_inflight`
    /// accounts for requests that are consumed but not yet answered.
    pub fn return_credit(&mut self, out: &mut Outbox, peer: KernelId) {
        let credits = &mut self.kgate.credits[peer.idx()];
        // Capped at the configured window: a service announcement
        // bypasses the gate (see `Kernel::sys_create_srv`) but frees a
        // slot like any consumed request.
        if *credits < self.cfg.max_inflight {
            *credits += 1;
        }
        let queued = self.kgate.queue[peer.idx()].pop_front();
        if let Some(call) = queued {
            // Re-send through the credit gate (a credit is available now).
            self.send_kcall(out, peer, call);
        }
    }

    // ----- dispatch -----------------------------------------------------

    /// Handles one incoming message; returns the modeled cycle cost of
    /// the handler. Outgoing messages are pushed to `out` and should be
    /// injected into the NoC when the handler completes.
    ///
    /// Every `Kcall`/`KReply`/`UpcallReply` goes through the op
    /// engine's routers (see [`crate::ops`]): requests dispatch to the
    /// owning protocol's request handler, replies resume the phase
    /// parked in the shared ledger.
    pub fn handle(&mut self, msg: &Msg, out: &mut Outbox) -> u64 {
        self.stats.handler_dispatches += 1;
        let cost = match &msg.payload {
            Payload::Sys { tag, call } => {
                self.stats.syscalls += 1;
                self.handle_syscall(msg.src, *tag, call, out)
            }
            Payload::Kcall(call) => self.route_kcall(msg.src, call, out),
            Payload::KReply(reply) => self.route_kreply(msg.src, reply, out),
            Payload::UpcallReply(reply) => self.route_upcall_reply(msg.src, reply, out),
            // Nothing a kernel serves: a VPE addressed its kernel with
            // another actor's payload. Dropped unread, in every profile.
            Payload::SysReply(_)
            | Payload::Upcall(_)
            | Payload::Fs(_)
            | Payload::FsReply(_)
            | Payload::Http(_)
            | Payload::HttpReply(_) => 0,
        };
        self.charge(cost)
    }

    /// Closes a handler window: books the kernel busy for its cost.
    fn charge(&mut self, cost: u64) -> u64 {
        self.stats.busy_cycles += cost;
        cost
    }

    pub(crate) fn handle_syscall(
        &mut self,
        src: PeId,
        tag: u64,
        call: &Syscall,
        out: &mut Outbox,
    ) -> u64 {
        let entry = self.cfg.cost.syscall_entry;
        let Some(vpe) = self.vpe_on_pe(src).ok().filter(|vpe| self.vpe_alive(*vpe)) else {
            // A dead VPE, or a PE that hosts no VPE of this group
            // (another group's PE, or an unused one): membership is
            // static, so nobody else will answer for it either. The
            // refusal goes straight back to the sending PE.
            let refusal = Payload::sys_reply(tag, Err(Error::new(Code::NoSuchVpe)));
            out.push(Msg::new(self.pe, src, refusal));
            return entry + self.cfg.cost.syscall_exit;
        };
        entry + self.dispatch_syscall(vpe, tag, call, out)
    }

    /// Dispatches one syscall to its handler — the one `Syscall` →
    /// handler table.
    fn dispatch_syscall(&mut self, vpe: VpeId, tag: u64, call: &Syscall, out: &mut Outbox) -> u64 {
        match call {
            Syscall::Noop => {
                self.reply_sys(out, vpe, tag, Ok(SysReplyData::None));
                self.cfg.cost.syscall_exit
            }
            Syscall::CreateMem { size, perms } => self.sys_create_mem(vpe, tag, *size, *perms, out),
            Syscall::DeriveMem { src, offset, size, perms } => {
                self.sys_derive_mem(vpe, tag, *src, *offset, *size, *perms, out)
            }
            Syscall::Exchange { other, own_sel, other_sel, kind } => {
                self.sys_exchange(vpe, tag, *other, *own_sel, *other_sel, *kind, out)
            }
            Syscall::Revoke { sel, own } => self.sys_revoke(vpe, tag, *sel, *own, out),
            Syscall::CreateSrv { name } => self.sys_create_srv(vpe, tag, *name, out),
            Syscall::OpenSession { name } => self.sys_open_session(vpe, tag, *name, out),
            Syscall::Activate { sel, ep } => self.sys_activate(vpe, tag, *sel, *ep, out),
            // Voluntary exit: revoke everything, mark dead. No reply
            // (the VPE is gone).
            Syscall::Exit => self.terminate_vpe(vpe, out),
        }
    }

    // ----- VPE lifecycle ------------------------------------------------

    /// Kills a VPE on the machine's behalf (failure injection); returns
    /// the modeled cost like [`Kernel::handle`] does.
    /// No-op for VPEs of other groups and dead VPEs.
    pub fn kill_vpe(&mut self, vpe: VpeId, out: &mut Outbox) -> u64 {
        let cost = if self.vpe_alive(vpe) { self.terminate_vpe(vpe, out) } else { 0 };
        self.charge(cost)
    }

    /// Tears a VPE down: the one path behind `Syscall::Exit` and
    /// [`Kernel::kill_vpe`].
    pub(crate) fn terminate_vpe(&mut self, vpe: VpeId, out: &mut Outbox) -> u64 {
        if let Some(v) = self.vpe_state_mut(vpe) {
            v.life = VpeLife::Dead;
        } else {
            return 0;
        }
        // Every protocol drops what it kept on the dying VPE's behalf.
        // Operations suspended elsewhere detect the death via
        // `vpe_alive` when their replies arrive (producing orphan
        // cleanups per §4.3.2).
        self.cancel_upcall_waiters(vpe, out);
        // Revoke all capabilities still in the VPE's table, starting at
        // the roots we own. Children in other groups are reached by the
        // revocation protocol itself.
        let roots: Vec<semper_base::CapSel> =
            self.table(vpe).map(|t| t.iter().map(|(s, _)| s).collect()).unwrap_or_default();
        let mut cost = 0;
        for sel in roots {
            cost += self.revoke_for_exit(vpe, sel, out);
        }
        cost + self.cfg.cost.revoke_finish
    }

    /// Deterministic digest of the protocol-visible capability state:
    /// one line per capability record (key, resource, owner, selector,
    /// parent, children in creation order) and per table binding,
    /// sorted. Two kernels with equal digests are indistinguishable to
    /// the capability protocol — the equivalence the property test of
    /// two concurrent revokes against the same revokes issued one after
    /// the other compares (`tests/proptests.rs`).
    pub fn state_digest(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .mapdb
            .iter()
            .map(|c| {
                let children: Vec<semper_base::DdlKey> = self.mapdb.children(c.key).collect();
                format!(
                    "cap {:?} kind={:?} owner={} sel={:?} parent={:?} children={children:?}",
                    c.key, c.kind, c.owner, c.sel, c.parent
                )
            })
            .collect();
        for (vpe, table) in self.tables() {
            for (sel, key) in table.iter() {
                lines.push(format!("bind {vpe} {sel:?} -> {key:?}"));
            }
        }
        lines.sort_unstable();
        lines
    }

    /// Structural self-check used by tests: mapping-database invariants,
    /// endpoint-binding forward/reverse agreement, plus agreement
    /// between capability tables and the database in both directions —
    /// every binding names a record that names it back, and every record
    /// is bound at its own `(owner, sel)`. Every binding's key also
    /// names its table's VPE as creator, which is what lets a table
    /// index its keys by object id alone ([`CapTable`]).
    pub fn check_invariants(&self) -> core::result::Result<(), String> {
        self.mapdb.check_invariants()?;
        self.eps.check_sync()?;
        for (vpe, table) in self.tables() {
            for (sel, key) in table.iter() {
                if key.vpe() != vpe {
                    return Err(format!("{vpe} {sel:?} binds {key:?}, a key of {}", key.vpe()));
                }
                let cap = self
                    .mapdb
                    .get(key)
                    .map_err(|_| format!("{vpe} {sel:?} points at missing cap {key:?}"))?;
                if (cap.owner, cap.sel) != (vpe, sel) {
                    return Err(format!(
                        "{vpe} {sel:?} binds {key:?}, which names {} {:?}",
                        cap.owner, cap.sel
                    ));
                }
            }
        }
        for cap in self.mapdb.iter() {
            let bound = self.table(cap.owner).and_then(|t| t.get(cap.sel).ok());
            if bound != Some(cap.key) {
                return Err(format!(
                    "{:?} is not bound at {} {:?} ({bound:?} is)",
                    cap.key, cap.owner, cap.sel
                ));
            }
        }
        Ok(())
    }
}
