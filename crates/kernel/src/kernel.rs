//! The kernel actor: state, boot, and message dispatch.
//!
//! # Bookkeeping determinism contract
//!
//! State named by a small integer is stored at that integer: the VPE
//! records (life, capability table, DTU endpoint registers) in a vector
//! indexed by [`VpeId`], a record's endpoint registers at their
//! endpoint number, the PE → VPE map by [`PeId`], the credit gate by
//! [`KernelId`], mapping-database records at their DDL key's (VPE,
//! object id) address, and a table's reverse index at the bound key's
//! object id. A group's VPEs are scattered over the global id space, so
//! VPE records are boxed: an empty slot costs one word. Child lists,
//! whose children may be remote, are nodes linked by index in the
//! mapping database's node store, each record naming its own node. What
//! has no such name — pending operations, revoke waiters — lives in
//! fixed-seed hash maps ([`semper_base::hash`]). Every lookup is O(1),
//! and one with an id past a vector's end misses without growing it.
//!
//! Every DDL key comes from `Kernel::new_key`. A capability enters a
//! table only through `Kernel::install` (bar each VPE's self-capability
//! at selector 0), which also links it under a parent of this kernel,
//! and leaves it only through the revocation sweep, which also clears
//! the endpoint registers that name it. Outside the sweep a child leaves
//! its parent's list only through `Kernel::unlink`. A system call names
//! a capability through `Kernel::bound` alone, and an operation builds
//! on one only after `Kernel::usable` admitted it: the one place that
//! refuses a capability under revocation and counts the refusal.
//!
//! Protocol-visible ordering never comes from storage order: the
//! `semper_sim::EventQueue`'s FIFO tie-break stays the sole ordering
//! authority, subtree walks follow creation-ordered child lists, and the
//! one teardown path that collects from a map sorts by op id before
//! acting (see [`Kernel::kill_vpe`]'s cancellation sweep).

use std::collections::VecDeque;

use semper_base::config::{KernelMode, MachineConfig};
use semper_base::msg::{KReply, Kcall, Payload, SysReplyData, Syscall, Upcall};
use semper_base::{CapSel, CapType, Code, DdlKey, Error, KernelId, Msg, OpId, PeId, Result, VpeId};
use semper_caps::{CapTable, Capability, KeyAllocator, MappingDb, MembershipTable};
use semper_noc::GlobalMemory;

use crate::ops::ledger::PendingTable;
use crate::ops::PendingOp;
use crate::outbox::Outbox;
use crate::registry::Registry;
use crate::stats::KernelStats;
use crate::vpes::Vpe;

/// Selector 0 of every VPE holds its own VPE capability.
pub const SEL_VPE: u32 = 0;
/// First selector available for general allocation.
pub const FIRST_FREE_SEL: u32 = 2;

/// One SemperOS kernel instance, managing one PE group.
#[derive(Clone)]
pub struct Kernel {
    pub(crate) id: KernelId,
    pub(crate) pe: PeId,
    pub(crate) cfg: MachineConfig,
    pub(crate) membership: MembershipTable,
    /// Global VPE → PE directory (static).
    pub(crate) vpe_dir: Vec<PeId>,

    pub(crate) mapdb: MappingDb,
    /// The group's VPEs, indexed by VPE id.
    pub(crate) vpes: Vec<Option<Box<Vpe>>>,
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

    /// Fail-stop fault state (deadlines, crash script, dead peers);
    /// inert unless the harness armed it (see [`crate::ops::faults`]).
    pub(crate) fault: crate::ops::faults::FaultState,

    pub(crate) stats: KernelStats,
}

/// The credit gate of §4.1: at most `M_inflight` requests are in
/// flight towards each peer kernel (one per DTU message slot); further
/// requests queue here until a consumed request returns its credit.
#[derive(Debug, Clone)]
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
            vpes: Vec::new(),
            keys: KeyAllocator::new(),
            registry: Registry::new(),
            mem,
            pending: PendingTable::default(),
            next_op: 1,
            revoke: Default::default(),
            kgate,
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
        let key = self.new_key(vpe, CapType::Vpe).expect("a booting VPE has keys left");
        table.insert(CapSel(SEL_VPE), key).expect("selector 0 is reserved and free");
        let kind = semper_base::msg::CapKindDesc::Vpe { vpe };
        self.mapdb.insert(Capability::root(key, kind, vpe, CapSel(SEL_VPE)));
        self.stats.caps_created += 1;
        if vpe.idx() >= self.vpes.len() {
            self.vpes.resize_with(vpe.idx() + 1, || None);
        }
        self.vpes[vpe.idx()] = Some(Box::new(Vpe::new(table)));
        self.pe2vpe[pe.idx()] = Some(vpe);
    }

    /// Allocates the DDL key of a new capability of type `ty` that
    /// `owner` will hold, at its PE from the VPE directory: the one key
    /// allocation of the kernel (§3.2, the creating kernel names it).
    /// `NoSpace` once `owner` has used every object id.
    pub(crate) fn new_key(&mut self, owner: VpeId, ty: CapType) -> Result<DdlKey> {
        let pe = self.pe_of_vpe(owner)?;
        self.keys.try_alloc(pe, owner, ty).ok_or(Error::new(Code::NoSpace))
    }

    /// Installs a new capability: binds a fresh selector in its owner's
    /// table, inserts the record at that selector (whatever `cap.sel`
    /// said), links it under its parent if the parent's key routes here
    /// (a remote parent's kernel linked it before it answered) and counts
    /// it created. The owner must be a VPE of this group.
    pub(crate) fn install(&mut self, cap: Capability) -> CapSel {
        let owner = self.vpe_mut(cap.owner).expect("the owner is a VPE of this group");
        let sel = owner.table.insert_new(cap.key);
        let (key, parent) = (cap.key, cap.parent);
        self.mapdb.insert(cap.with_sel(sel));
        if let Some(parent) = parent.filter(|&p| self.membership.kernel_of_key(p) == self.id) {
            self.mapdb.link_child(parent, key).expect("a local parent is present");
        }
        self.stats.caps_created += 1;
        sel
    }

    /// Drops `child` from `parent`'s child list, in place if the parent's
    /// key routes here, else by a [`Kcall::OrphanNotice`] to a live
    /// parent's kernel. Returns whether a link was dropped or a notice
    /// left.
    pub(crate) fn unlink(&mut self, parent: DdlKey, child: DdlKey, out: &mut Outbox) -> bool {
        match self.membership.kernel_of_key(parent) {
            k if k == self.id => self.mapdb.unlink_child(parent, child),
            k if self.peer_dead(k) => false,
            k => {
                self.send_kcall(
                    out,
                    k,
                    Kcall::OrphanNotice { parent_key: parent, child_key: child },
                );
                true
            }
        }
    }

    /// The key bound at `sel` in `vpe`'s table: the one selector lookup
    /// behind every system call that names a capability.
    pub(crate) fn bound(&self, vpe: VpeId, sel: CapSel) -> Result<DdlKey> {
        self.table(vpe).ok_or(Error::new(Code::NoSuchVpe))?.get(sel)
    }

    /// The one admission check: the record of `key`, if an operation may
    /// build on it. A capability under revocation is refused with
    /// `RevokeInProgress` and counted — building on it would be
    /// *pointless* in Table 2's terms, and a child linked under it would
    /// be *invalid* once the revoke finishes. A missing one is
    /// `NoSuchCap`.
    pub(crate) fn usable(&mut self, key: DdlKey) -> Result<&Capability> {
        let cap = self.mapdb.get(key)?;
        if cap.revoking() {
            self.stats.pointless_denied += 1;
            return Err(Error::new(Code::RevokeInProgress));
        }
        Ok(cap)
    }

    /// The capability table of a VPE (tests and verification).
    pub fn table(&self, vpe: VpeId) -> Option<&CapTable> {
        Some(&self.vpe(vpe)?.table)
    }

    /// The record of a VPE of this group.
    pub(crate) fn vpe(&self, vpe: VpeId) -> Option<&Vpe> {
        self.vpes.get(vpe.idx())?.as_deref()
    }

    /// The record of a VPE of this group, mutably.
    pub(crate) fn vpe_mut(&mut self, vpe: VpeId) -> Option<&mut Vpe> {
        self.vpes.get_mut(vpe.idx())?.as_deref_mut()
    }

    /// Every VPE record of the group, in VPE order.
    fn records(&self) -> impl Iterator<Item = (VpeId, &Vpe)> {
        let vpes = self.vpes.iter().enumerate();
        vpes.filter_map(|(v, r)| Some((VpeId(v as u16), r.as_deref()?)))
    }

    /// True if the VPE is registered here and alive.
    pub fn vpe_alive(&self, vpe: VpeId) -> bool {
        self.vpe(vpe).is_some_and(|v| v.alive)
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
        Ok(self.membership.kernel_of(self.pe_of_vpe(vpe)?))
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

    /// Refuses a system call: replies `err` and returns the exit cost —
    /// the one answer of every handler that gives up before doing work.
    pub(crate) fn refuse(&mut self, out: &mut Outbox, vpe: VpeId, tag: u64, err: Error) -> u64 {
        self.reply_sys(out, vpe, tag, Err(err));
        self.cfg.cost.syscall_exit
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
    /// instead of when it completes. The revoke fan-out passes its send
    /// loop's own cost only, so its requests leave ahead of the cycles
    /// charged before the loop (entry, validation, mark walk).
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
        // Every request, announcements included, took the credit its
        // consumption returns.
        *credits += 1;
        assert!(
            *credits <= self.cfg.max_inflight,
            "kernel {}: more credits towards {peer} than the window of {}",
            self.id,
            self.cfg.max_inflight
        );
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
        let Some(v) = self.vpe_mut(vpe) else { return 0 };
        v.alive = false;
        // Every protocol drops what it kept on the dying VPE's behalf.
        // Operations suspended elsewhere detect the death via
        // `vpe_alive` when their replies arrive (producing orphan
        // cleanups per §4.3.2).
        self.cancel_upcall_waiters(vpe, out);
        // Revoke all capabilities still in the VPE's table, starting at
        // the roots we own. Children in other groups are reached by the
        // revocation protocol itself.
        let roots: Vec<CapSel> =
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
        for (vpe, record) in self.records() {
            for (sel, key) in record.table.iter() {
                lines.push(format!("bind {vpe} {sel:?} -> {key:?}"));
            }
        }
        lines.sort_unstable();
        lines
    }

    /// Structural self-check used by tests: mapping-database invariants,
    /// plus agreement between capability tables and the database in
    /// both directions — every binding names a record that names it
    /// back, and every record is bound at its own `(owner, sel)`. Every
    /// binding's key also names its table's VPE as creator, which is
    /// what lets a table index its keys by object id alone
    /// ([`CapTable`]), and every activated endpoint names a record its
    /// own VPE owns.
    pub fn check_invariants(&self) -> core::result::Result<(), String> {
        self.mapdb.check_invariants()?;
        for (vpe, record) in self.records() {
            for (ep, key) in record.eps.iter().enumerate() {
                let Some(key) = key else { continue };
                let owner = self.mapdb.get(*key).ok().map(|cap| cap.owner);
                if owner != Some(vpe) {
                    return Err(format!(
                        "{vpe} EP{ep} is activated for {key:?}, owned by {owner:?}"
                    ));
                }
            }
            for (sel, key) in record.table.iter() {
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

#[cfg(test)]
mod tests {
    use semper_base::ddl::MAX_OBJECT_ID;
    use semper_base::msg::{ExchangeKind, Perms, SysReplyData, Syscall};
    use semper_base::{CapSel, Code, VpeId};

    use crate::harness::TestCluster;

    /// A VPE that used all its object ids is answered `NoSpace` by every
    /// system call that would create a capability for it — its own
    /// creations, a group-local exchange, a spanning obtain, a session
    /// open, and a delegate to it from another kernel — and its kernel
    /// keeps serving. The allocator is started at its bound through
    /// `KeyAllocator::skip_to`.
    #[test]
    fn a_vpe_out_of_object_ids_is_answered_no_space() {
        let mut c = TestCluster::new(2, 2);
        let (vpe, local, remote) = (VpeId(0), VpeId(1), VpeId(2));
        let mem = |c: &mut TestCluster, vpe| {
            let r = c.syscall(vpe, Syscall::CreateMem { size: 4096, perms: Perms::RW });
            let Ok(SysReplyData::Mem { sel, .. }) = r.result else { panic!("{r:?}") };
            sel
        };
        let (own, theirs, far) = (mem(&mut c, vpe), mem(&mut c, local), mem(&mut c, remote));
        assert!(c.syscall(remote, Syscall::CreateSrv { name: 7 }).result.is_ok());
        c.kernels[0].keys.skip_to(vpe, MAX_OBJECT_ID + 1);
        let caps = c.total_caps();
        let exchange =
            |other, own_sel, other_sel, kind| Syscall::Exchange { other, own_sel, other_sel, kind };
        let calls = [
            (vpe, Syscall::CreateMem { size: 64, perms: Perms::R }),
            (vpe, Syscall::DeriveMem { src: own, offset: 0, size: 64, perms: Perms::R }),
            (vpe, Syscall::CreateSrv { name: 8 }),
            (vpe, Syscall::OpenSession { name: 7 }),
            (vpe, exchange(local, CapSel::INVALID, theirs, ExchangeKind::Obtain)),
            (vpe, exchange(remote, CapSel::INVALID, far, ExchangeKind::Obtain)),
            (local, exchange(vpe, theirs, CapSel::INVALID, ExchangeKind::Delegate)),
            (remote, exchange(vpe, far, CapSel::INVALID, ExchangeKind::Delegate)),
        ];
        for (caller, call) in calls {
            let r = c.syscall(caller, call.clone());
            assert_eq!(r.result.map_err(|e| e.code()), Err(Code::NoSpace), "{call:?}");
        }
        assert_eq!(c.total_caps(), caps, "a refused call created a capability");
        assert!(c.syscall(vpe, Syscall::Noop).result.is_ok());
        c.check_invariants();
        c.assert_quiescent();
    }

    /// `CreateMem` of `size` from `vpe`: the new region's address and
    /// the key's object id, or the refusal's code.
    fn create_mem(c: &mut TestCluster, vpe: VpeId, size: u64) -> Result<(u64, u32), Code> {
        let r = c.syscall(vpe, Syscall::CreateMem { size, perms: Perms::RW }).result;
        let Ok(SysReplyData::Mem { sel, addr }) = r else { return Err(r.unwrap_err().code()) };
        Ok((addr, c.kernels[0].table(vpe).unwrap().get(sel).unwrap().object_id()))
    }

    /// A `CreateMem` refused for want of object ids takes no region: the
    /// next creation, by another VPE of the group, lands where it would
    /// have landed without the refusal.
    #[test]
    fn a_create_mem_refused_for_keys_keeps_no_region() {
        let next_region = |refuse: bool| {
            let mut c = TestCluster::new(1, 2);
            if refuse {
                c.kernels[0].keys.skip_to(VpeId(0), MAX_OBJECT_ID + 1);
                assert_eq!(create_mem(&mut c, VpeId(0), 64), Err(Code::NoSpace));
            }
            create_mem(&mut c, VpeId(1), 4096).unwrap().0
        };
        assert_eq!(next_region(true), next_region(false));
    }

    /// A `CreateMem` refused for its size, empty or past the memory,
    /// takes no object id: the next creation's key is the one it would
    /// have been.
    #[test]
    fn a_create_mem_refused_for_its_size_keeps_no_object_id() {
        let next_id = |refused: Option<u64>| {
            let mut c = TestCluster::new(1, 1);
            if let Some(size) = refused {
                assert!(create_mem(&mut c, VpeId(0), size).is_err());
            }
            create_mem(&mut c, VpeId(0), 64).unwrap().1
        };
        for size in [0, 2 << 30, u64::MAX] {
            assert_eq!(next_id(Some(size)), next_id(None), "size {size}");
        }
    }
}
