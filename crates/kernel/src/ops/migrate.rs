//! Capability-group migration: moving a VPE's DDL ownership between
//! kernels mid-run (§4.2) — without quiescing the group.
//!
//! The paper's membership table maps PE-id partitions to kernels so any
//! kernel can route a DDL key without global agreement (§3.2). Because
//! every capability a VPE owns carries the VPE's PE in its key, the set
//! of DDL entries owned on behalf of one VPE *is* a partition of the
//! key space — a capability group. Migrating the group to another
//! kernel is therefore a pure ownership handover: the records move, the
//! keys (and with them every cross-kernel parent/child link) stay
//! valid, and the membership tables are updated so future routing finds
//! the new owner.
//!
//! The protocol is the engine's showcase for a *new* distributed
//! operation — two phases, built entirely from engine primitives:
//!
//! 1. **Start (source kernel)** — validate (the VPE is local, alive,
//!    not a service, no endpoint activations, nothing revoking, no
//!    parked operation referencing the group), marshal the group's
//!    records in selector order, send [`Kcall::MigrateReq`] to the
//!    destination, park [`Phase::AwaitInstall`]. Validation completes
//!    before any side effect: a refused start allocates no op id,
//!    sends nothing, and charges nothing.
//! 2. **Install (destination)** — validate (the sender owns the PE per
//!    the local membership table, the PE hosts no VPE here, the VPE id
//!    is unknown), then adopt the PE into the own group, rebuild the
//!    capability table and mapping-database records (same selectors,
//!    same child-list order), resume the VPE's DDL object-id counter,
//!    reply [`KReply::Migrate`]. A validation failure replies `Err`
//!    *before* any mutation — the install is atomic.
//! 3. **Handover (source)** — on a successful install reply, delete
//!    the local records, update the own membership table, and fan out
//!    [`Kcall::MembershipUpdate`] to every bystander kernel, parking
//!    [`Phase::Draining`] on a [`FanIn`] (one ack per bystander). On
//!    an `Err` reply the group never left: the hold queue replays
//!    locally, membership stays untouched, and the failure surfaces to
//!    the initiating driver via [`Kernel::take_migration_failure`].
//! 4. **Completion (source)** — when the fan-in drains, the migration
//!    is done: every kernel routes the group's keys to the new owner,
//!    and the hold queue replays in arrival order.
//!
//! # The forward-or-hold window
//!
//! Migration no longer requires quiescence. From `start_group_migration`
//! until the bystander fan-in drains, the source kernel is a
//! **forward-or-hold proxy** for the moving group:
//!
//! * Every system call and inter-kernel request that resolves into the
//!   moving group — the moving VPE's own calls, exchanges naming it as
//!   the peer, revokes whose subtree touches its capabilities, kill
//!   requests — is **held** in the migration's
//!   per-op queue ([`Held`]), in arrival order. Holding (rather than
//!   forwarding mid-window) keeps the arrival order of a peer's
//!   requests intact: a forwarded op could overtake an earlier held
//!   one.
//! * When the window closes, the queue **replays in arrival order**
//!   through the ordinary dispatch entry points. Replayed traffic that
//!   now resolves to the new owner is transparently **forwarded**: a
//!   kcall travels wrapped in [`Kcall::Forwarded`] carrying the
//!   original caller, so the handler at the new owner replies straight
//!   to the originator; a stale syscall is re-emitted verbatim with
//!   its original source PE, so the reply path re-homes to the calling
//!   VPE without an extra hop back through the old owner.
//! * Bystanders that raced the membership update and still route to
//!   the old owner hit the same forward rule and are relayed instead
//!   of erroring — this also covers the (accepted) staleness window
//!   where a group migrates twice in quick succession and a bystander
//!   only saw the first move: forwards chase the membership chain,
//!   which always terminates at the current owner.
//!
//! Classic quiescent migrations take the exact same code path with an
//! empty hold queue: the window checks are host-cost-only no-ops and
//! the modeled cycle costs are bit-identical to the quiescent-only
//! protocol (pinned by `tests/determinism.rs`).

use semper_base::msg::{KReply, Kcall, MigratedCap, Payload, Syscall};
use semper_base::{Code, DdlKey, Error, KernelId, Msg, OpId, PeId, Result, VpeId};
use semper_caps::{CapTable, Capability};

use crate::kernel::{Kernel, FIRST_FREE_SEL};
use crate::ops::{Awaits, FanIn, PendingOp, PhaseSpec, Thread};
use crate::outbox::Outbox;
use crate::vpes::VpeState;

/// Kernel-wide migration state: the open handover windows and the
/// failures no driver collected yet.
#[derive(Debug, Default)]
pub(crate) struct MigrationState {
    /// Outbound group migrations in their handover window, as
    /// `(vpe, pe, op)`: from `start_group_migration` until the
    /// bystander fan-in drains (or the install is refused). While
    /// non-empty, the dispatch paths apply the forward-or-hold rules;
    /// the common empty case keeps the classic paths cost-free.
    active: Vec<(VpeId, PeId, OpId)>,
    /// Failed migrations not yet collected by the initiating driver
    /// (see [`Kernel::take_migration_failure`]).
    failures: Vec<(VpeId, Error)>,
}

impl MigrationState {
    /// No handover window is open.
    pub(crate) fn quiescent(&self) -> core::result::Result<(), String> {
        if self.active.is_empty() {
            Ok(())
        } else {
            Err(format!("open migration windows: {:?}", self.active))
        }
    }
}

/// One operation intercepted during the handover window, parked in the
/// migration's hold queue and replayed in arrival order once the
/// window closes (or the migration fails and the group stays put).
#[derive(Debug, Clone)]
pub enum Held {
    /// A system call resolving into the moving group.
    Syscall {
        /// Source PE of the call (identifies the calling VPE).
        src: PeId,
        /// Reply tag.
        tag: u64,
        /// The call itself.
        call: Syscall,
    },
    /// An inter-kernel request resolving into the moving group.
    Kcall {
        /// The requesting kernel (reply target).
        from: KernelId,
        /// The request itself.
        call: Kcall,
    },
    /// A machine-initiated kill whose teardown would touch the moving
    /// group.
    Kill {
        /// The VPE to kill.
        vpe: VpeId,
    },
}

/// Continuation of a migration awaiting the destination's install
/// reply.
#[derive(Debug, Clone)]
pub struct Install {
    /// The migrating VPE.
    pub vpe: VpeId,
    /// Its PE (the partition being reassigned).
    pub pe: PeId,
    /// The adopting kernel.
    pub dst: KernelId,
    /// Keys of the transferred records, deleted locally once the
    /// destination confirmed the install.
    pub keys: Vec<DdlKey>,
    /// Operations intercepted while awaiting the install.
    pub held: Vec<Held>,
}

/// Continuation of a migration whose records are handed over, draining
/// the bystander fan-in before the hold queue replays.
#[derive(Debug, Clone)]
pub struct Drain {
    /// The migrated VPE.
    pub vpe: VpeId,
    /// Its PE (now routed to the new owner).
    pub pe: PeId,
    /// The new owner.
    pub dst: KernelId,
    /// One completion per bystander kernel.
    pub fanin: FanIn,
    /// Operations intercepted during the window, in arrival order.
    pub held: Vec<Held>,
}

/// The migration protocol's phase table.
#[derive(Debug, Clone)]
pub enum Phase {
    /// Source side: awaiting [`KReply::Migrate`] from the destination.
    AwaitInstall(Box<Install>),
    /// Source side: records handed over; draining membership-update
    /// acks from every bystander kernel before the hold queue replays.
    Draining(Box<Drain>),
}

impl Phase {
    /// The declared spec of each phase.
    pub fn spec(&self) -> &'static PhaseSpec {
        match self {
            Phase::AwaitInstall(_) => &PhaseSpec {
                name: "migrate-await-install",
                awaits: Awaits::KReply,
                thread: Thread::Holds,
            },
            Phase::Draining(_) => {
                &PhaseSpec { name: "migrate-draining", awaits: Awaits::FanIn, thread: Thread::Free }
            }
        }
    }

    /// True if this phase references `vpe`'s group (it always does —
    /// the group cannot migrate twice concurrently).
    pub fn references_vpe(&self, vpe: VpeId) -> bool {
        match self {
            Phase::AwaitInstall(i) => i.vpe == vpe,
            Phase::Draining(d) => d.vpe == vpe,
        }
    }
}

impl Kernel {
    /// Starts migrating `vpe`'s capability group to kernel `dst`
    /// (machine-initiated control operation; local start of the
    /// migration protocol). Returns the modeled cycle cost of the
    /// marshalling work.
    ///
    /// Fails if the VPE is not a migratable member of this group: it
    /// must be alive and local, must not be a registered service (the
    /// registry pins service groups), must hold no DTU endpoint
    /// activations (endpoint state is per-PE hardware the protocol does
    /// not re-home), none of its capabilities may be under revocation,
    /// and no parked operation may reference the group (in-flight ops
    /// started *before* the window would mutate the marshalled
    /// snapshot on resume; ops arriving *after* the start are held and
    /// replayed instead). Validation is side-effect-free: a refused
    /// start allocates no op id and sends nothing.
    pub fn start_group_migration(
        &mut self,
        vpe: VpeId,
        dst: KernelId,
        out: &mut Outbox,
    ) -> Result<u64> {
        if dst == self.id || dst.idx() >= self.membership.kernel_count() {
            return Err(Error::new(Code::InvalidArgs));
        }
        if !self.vpe_alive(vpe) {
            return Err(Error::new(Code::NoSuchVpe));
        }
        let pe = self.pe_of_vpe(vpe)?;
        if self.membership.kernel_of(pe) != self.id {
            return Err(Error::new(Code::NoSuchVpe));
        }
        if self.vpes.get(&vpe).map(|v| v.is_service).unwrap_or(false) {
            return Err(Error::new(Code::InvalidArgs));
        }
        if self.eps.vpe_bound(vpe) {
            return Err(Error::new(Code::InvalidArgs));
        }
        let table = self.tables.get(&vpe).ok_or(Error::new(Code::NoSuchVpe))?;

        // Validate the whole table before committing to anything: a
        // failed start must have no side effects (no op id, no
        // message, no cost).
        for (_, key) in table.iter() {
            let cap = self.mapdb.get(key)?;
            if cap.revoking() || cap.outstanding > 0 {
                return Err(Error::new(Code::RevokeInProgress));
            }
        }
        if self.pending.iter().any(|(_, p)| p.references_vpe(vpe)) {
            return Err(Error::new(Code::RevokeInProgress));
        }
        // Promise state never migrates (keys index kernel-local
        // resolution queues); refuse while the VPE owns any.
        if self.vpe_has_promise_state(vpe) {
            return Err(Error::new(Code::RevokeInProgress));
        }

        // Marshal the group in selector order (the table's iteration
        // order is protocol-visible and deterministic). One reference
        // plus one descriptor transfer per record.
        let table = self.tables.get(&vpe).expect("validated above");
        let mut caps = Vec::with_capacity(table.len());
        let mut keys = Vec::with_capacity(table.len());
        let mut cost = 0u64;
        for (sel, key) in table.iter() {
            let cap = self.mapdb.get(key).expect("validated above");
            caps.push(MigratedCap {
                key,
                kind: cap.kind,
                sel,
                parent: cap.parent,
                children: cap.children().collect(),
            });
            keys.push(key);
            cost += self.ref_cost() + self.cfg.cost.xfer_desc;
        }
        let next_sel = table.selector_space();
        let next_object_id = self.keys.allocated(vpe);

        let op = self.alloc_op();
        self.send_kcall(
            out,
            dst,
            Kcall::MigrateReq { op, pe, vpe, next_object_id, next_sel, caps },
        );
        self.park(
            op,
            PendingOp::Migrate(Phase::AwaitInstall(Box::new(Install {
                vpe,
                pe,
                dst,
                keys,
                held: Vec::new(),
            }))),
        );
        self.migration.active.push((vpe, pe, op));
        Ok(cost + self.cfg.cost.kcall_exit)
    }

    /// Request handler for [`Kcall::MigrateReq`]: adopt the PE and
    /// install the group's records (destination side). Validation
    /// failures reply `Err` before any mutation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn migrate_request(
        &mut self,
        from: KernelId,
        op: OpId,
        pe: PeId,
        vpe: VpeId,
        next_object_id: u32,
        next_sel: u32,
        caps: &[MigratedCap],
        out: &mut Outbox,
    ) -> u64 {
        // The sender must own the PE per the local membership table
        // (anything else means the tables diverged), the PE must not
        // host a VPE here, and the VPE id must be unknown — a
        // duplicate id would silently merge two groups.
        let err = if self.membership.kernel_of(pe) != from {
            Some(Error::new(Code::InvalidArgs))
        } else if self.pe2vpe.contains_key(&pe)
            || self.vpes.contains_key(&vpe)
            || self.tables.contains_key(&vpe)
        {
            Some(Error::new(Code::Exists))
        } else {
            None
        };
        if let Some(e) = err {
            self.send_kreply(out, from, KReply::Migrate { op, result: Err(e) });
            return self.cfg.cost.kcall_exit;
        }
        // Adopt the partition: one membership write.
        self.membership.set_kernel_of(pe, self.id);
        let mut cost = self.ref_cost();

        // Rebuild the capability table with the source's selector
        // bindings and selector-space high-water mark, and the mapping
        // database records with their child lists in original order.
        let table =
            CapTable::rehydrate(FIRST_FREE_SEL, next_sel, caps.iter().map(|c| (c.sel, c.key)));
        for rec in caps {
            let mut cap = match rec.parent {
                Some(parent) => Capability::child(rec.key, rec.kind, vpe, rec.sel, parent),
                None => Capability::root(rec.key, rec.kind, vpe, rec.sel),
            };
            for child in &rec.children {
                cap.add_child(*child);
            }
            self.mapdb.insert(cap);
            cost += self.cfg.cost.cap_insert + self.ref_cost();
        }
        self.tables.insert(vpe, table);
        self.vpes.insert(vpe, VpeState::new(vpe, pe));
        self.pe2vpe.insert(pe, vpe);
        self.keys.resume(vpe, next_object_id);
        self.stats.migrations_in += 1;

        self.send_kreply(out, from, KReply::Migrate { op, result: Ok(caps.len() as u64) });
        cost + self.cfg.cost.kcall_exit
    }

    /// Resumes [`Phase::AwaitInstall`]: the destination confirmed (or
    /// refused) the install. On success, delete the local records and
    /// fan out the membership update to every bystander kernel. On
    /// failure the group never left: membership stays untouched, the
    /// hold queue replays locally, and the error is recorded for the
    /// initiating driver.
    pub(crate) fn migrate_installed(
        &mut self,
        op: OpId,
        install: Install,
        result: Result<u64>,
        out: &mut Outbox,
    ) -> u64 {
        let Install { vpe, pe, dst, keys, held } = install;
        if let Err(e) = result {
            // The destination rejected atomically; the group never
            // left. Unwind the window and surface the error.
            self.migration.active.retain(|&(v, _, _)| v != vpe);
            self.migration.failures.push((vpe, e));
            self.stats.migrations_failed += 1;
            return self.cfg.cost.kcall_exit + self.replay_held(held, out);
        }
        debug_assert_eq!(result, Ok(keys.len() as u64));

        // Hand over: drop every transferred record plus the VPE's local
        // bookkeeping, then route the partition to its new owner.
        let mut cost = 0u64;
        for key in keys {
            let removed = self.mapdb.remove(key);
            debug_assert!(removed.is_some(), "transferred record vanished");
            cost += self.cfg.cost.revoke_delete + self.ref_cost();
        }
        self.tables.remove(&vpe);
        self.vpes.remove(&vpe);
        self.pe2vpe.remove(&pe);
        self.keys.forget(vpe);
        self.membership.set_kernel_of(pe, dst);
        cost += self.ref_cost();

        // Fan out the membership update; one ack per bystander.
        let mut fanin = FanIn::new();
        for k in 0..self.membership.kernel_count() {
            let k = KernelId(k as u16);
            if k == self.id || k == dst {
                continue;
            }
            fanin.arm();
            cost += self.cfg.cost.kcall_exit;
            self.send_kcall(out, k, Kcall::MembershipUpdate { op, pe, new_kernel: dst });
        }
        if fanin.idle() {
            // Two-kernel machine: nobody else to tell.
            cost + self.migration_complete(vpe, held, out)
        } else {
            self.pending.insert(
                op,
                PendingOp::Migrate(Phase::Draining(Box::new(Drain { vpe, pe, dst, fanin, held }))),
            );
            cost + self.cfg.cost.thread_switch
        }
    }

    /// Request handler for [`Kcall::MembershipUpdate`] (bystander side):
    /// reroute the partition and acknowledge.
    pub(crate) fn membership_update(
        &mut self,
        from: KernelId,
        op: OpId,
        pe: PeId,
        new_kernel: KernelId,
        out: &mut Outbox,
    ) -> u64 {
        self.membership.set_kernel_of(pe, new_kernel);
        self.send_kreply(out, from, KReply::MembershipAck { op });
        self.ref_cost() + self.cfg.cost.kcall_exit
    }

    /// Resumes [`Phase::Draining`]: one bystander acknowledged; the
    /// migration completes (and the hold queue replays) when the
    /// fan-in drains.
    pub(crate) fn migrate_ack(&mut self, op: OpId, mut drain: Box<Drain>, out: &mut Outbox) -> u64 {
        if drain.fanin.complete_one(0) {
            let Drain { vpe, held, .. } = *drain;
            self.cfg.cost.thread_switch + self.migration_complete(vpe, held, out)
        } else {
            self.pending.insert(op, PendingOp::Migrate(Phase::Draining(drain)));
            0
        }
    }

    /// Closes the handover window: the group is fully routed to the new
    /// owner everywhere. Replays the hold queue in arrival order;
    /// replayed traffic that resolves to the new owner takes the
    /// forward rule. Returns the modeled cost of the replayed work
    /// (zero for a quiescent migration).
    pub(crate) fn migration_complete(
        &mut self,
        vpe: VpeId,
        held: Vec<Held>,
        out: &mut Outbox,
    ) -> u64 {
        self.stats.migrations_out += 1;
        self.migration.active.retain(|&(v, _, _)| v != vpe);
        self.replay_held(held, out)
    }

    /// Re-dispatches held operations in arrival order through the
    /// ordinary entry points (so they hit the same resolution, hold,
    /// and forward rules as fresh traffic).
    fn replay_held(&mut self, held: Vec<Held>, out: &mut Outbox) -> u64 {
        let mut cost = 0;
        for h in held {
            match h {
                Held::Syscall { src, tag, call } => {
                    cost += self.handle_syscall(src, tag, &call, out);
                }
                Held::Kcall { from, call } => {
                    cost += self.cfg.cost.kcall_entry + self.dispatch_kcall(from, &call, out);
                }
                Held::Kill { vpe } => {
                    if self.vpe_alive(vpe) {
                        cost += self.kill(vpe, out);
                    } else if let Ok(owner) = self.kernel_of_vpe(vpe) {
                        if owner != self.id {
                            self.send_kcall(out, owner, Kcall::KillVpe { vpe });
                            cost += self.cfg.cost.kcall_exit;
                        }
                    }
                }
            }
        }
        cost
    }

    // ----- the forward-or-hold window -----------------------------------

    /// The driver-facing failure channel: takes (and clears) the
    /// recorded error of a failed migration of `vpe`, if any.
    pub fn take_migration_failure(&mut self, vpe: VpeId) -> Option<Error> {
        let idx = self.migration.failures.iter().position(|(v, _)| *v == vpe)?;
        Some(self.migration.failures.remove(idx).1)
    }

    /// The active migration moving `vpe`, if any.
    pub(crate) fn migration_of_vpe(&self, vpe: VpeId) -> Option<OpId> {
        self.migration.active.iter().find(|&&(v, _, _)| v == vpe).map(|&(_, _, op)| op)
    }

    /// The active migration moving the VPE on `pe`, if any.
    pub(crate) fn migration_of_pe(&self, pe: PeId) -> Option<OpId> {
        self.migration.active.iter().find(|&&(_, p, _)| p == pe).map(|&(_, _, op)| op)
    }

    /// Walks the capability subtree under `root` (local records only)
    /// and returns the migration the subtree resolves into, if any: a
    /// revoke starting here would mark records mid-marshal.
    /// Keys owned elsewhere are skipped — the remote owner applies its
    /// own window when the fan-out reaches it.
    pub(crate) fn subtree_touches_migrating(&self, root: DdlKey) -> Option<OpId> {
        let mut stack = vec![root];
        while let Some(key) = stack.pop() {
            if let Some(op) = self.migration_of_vpe(key.vpe()) {
                return Some(op);
            }
            if let Ok(cap) = self.mapdb.get(key) {
                stack.extend(cap.children());
            }
        }
        None
    }

    /// The migration a system call from `vpe` resolves into, if any
    /// (the caller itself is checked via [`Kernel::migration_of_pe`]
    /// before PE resolution).
    pub(crate) fn syscall_touches_migrating(&self, vpe: VpeId, call: &Syscall) -> Option<OpId> {
        if self.migration.active.is_empty() {
            return None;
        }
        match call {
            Syscall::Exchange { other, .. } => self.migration_of_vpe(*other),
            Syscall::Revoke { sel, .. } => {
                let key = self.tables.get(&vpe)?.get(*sel).ok()?;
                self.subtree_touches_migrating(key)
            }
            Syscall::Exit => {
                let table = self.tables.get(&vpe)?;
                table.iter().find_map(|(_, key)| self.subtree_touches_migrating(key))
            }
            Syscall::Batch(items) => {
                items.iter().find_map(|item| self.syscall_touches_migrating(vpe, item))
            }
            Syscall::SubmitAsync(inner) => self.syscall_touches_migrating(vpe, inner),
            _ => None,
        }
    }

    /// The migration an inter-kernel request resolves into, if any.
    /// Requests correlated to an op parked *at the sender* before the
    /// window opened cannot reference the group (the start validation
    /// refuses to open the window over them), so op-correlated
    /// continuations (`DelegateAck`) are never held.
    pub(crate) fn migration_holding_kcall(&self, call: &Kcall) -> Option<OpId> {
        if self.migration.active.is_empty() {
            return None;
        }
        match call {
            Kcall::ObtainReq { owner_vpe, .. } => self.migration_of_vpe(*owner_vpe),
            Kcall::DelegateReq { recv_vpe, .. } => self.migration_of_vpe(*recv_vpe),
            Kcall::RevokeReq { cap_key, .. } => self.subtree_touches_migrating(*cap_key),
            Kcall::OrphanNotice { parent_key, .. } => self.migration_of_vpe(parent_key.vpe()),
            Kcall::RevokeBatchReq { cap_keys, .. } => {
                cap_keys.iter().find_map(|k| self.subtree_touches_migrating(*k))
            }
            Kcall::KillVpe { vpe } => self.migration_of_vpe(*vpe),
            _ => None,
        }
    }

    /// The migration a machine-initiated kill of `vpe` resolves into,
    /// if any: the VPE itself is moving, or its exit-revocation would
    /// sweep into a moving subtree.
    pub(crate) fn migration_holding_kill(&self, vpe: VpeId) -> Option<OpId> {
        if self.migration.active.is_empty() {
            return None;
        }
        if let Some(op) = self.migration_of_vpe(vpe) {
            return Some(op);
        }
        let table = self.tables.get(&vpe)?;
        table.iter().find_map(|(_, key)| self.subtree_touches_migrating(key))
    }

    /// Parks an intercepted operation in its migration's hold queue.
    pub(crate) fn hold_op(&mut self, op: OpId, held: Held) {
        self.stats.ops_held += 1;
        match self.pending.get_mut(op) {
            Some(PendingOp::Migrate(Phase::AwaitInstall(i))) => i.held.push(held),
            Some(PendingOp::Migrate(Phase::Draining(d))) => d.held.push(held),
            _ => debug_assert!(false, "hold target {op:?} is not an active migration"),
        }
    }

    /// The kernel an incoming request should be relayed to when the
    /// group it names is owned elsewhere (a bystander raced the
    /// membership update, or a held op replays after the handover).
    /// `None` on every classic path: requests that arrive at their
    /// owner dispatch locally, and op-correlated continuations are
    /// never relayed whole (batched revokes relocate per key inside
    /// their handler instead).
    pub(crate) fn kcall_forward_target(&self, call: &Kcall) -> Option<KernelId> {
        let owner = match call {
            Kcall::ObtainReq { owner_vpe, .. } => self.kernel_of_vpe(*owner_vpe).ok()?,
            Kcall::DelegateReq { recv_vpe, .. } => self.kernel_of_vpe(*recv_vpe).ok()?,
            Kcall::RevokeReq { cap_key, .. } => self.membership.kernel_of_key(*cap_key),
            Kcall::OrphanNotice { parent_key, .. } => self.membership.kernel_of_key(*parent_key),
            Kcall::KillVpe { vpe } => self.kernel_of_vpe(*vpe).ok()?,
            _ => return None,
        };
        (owner != self.id).then_some(owner)
    }

    /// Relays a stale system call to the group's current owner: the
    /// message is re-emitted verbatim with its original source PE, so
    /// the owner resolves the calling VPE normally and replies to it
    /// directly (the re-homed reply path).
    pub(crate) fn forward_syscall(
        &mut self,
        src: PeId,
        tag: u64,
        call: &Syscall,
        owner: KernelId,
        out: &mut Outbox,
    ) -> u64 {
        self.stats.syscalls_forwarded += 1;
        let dst = self.membership.kernel_pe(owner);
        out.push(Msg::new(src, dst, Payload::Sys { tag, call: call.clone() }));
        self.cfg.cost.syscall_exit
    }
}
