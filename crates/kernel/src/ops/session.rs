//! Service registration and session establishment on the op engine.
//!
//! Services register with `CreateSrv`; their kernel announces the
//! instance to every other kernel (inter-kernel call group 1/2, §4.1).
//! A client's `OpenSession` creates a **session capability as a child of
//! the service capability** — the paper's running example of a
//! cross-kernel capability relation (§3.4): the session capability is
//! owned by the *client's* kernel while its parent (the service
//! capability) may live at another kernel. Exactly one kernel owns each
//! resource; the child/parent link crosses the boundary via DDL keys.

use semper_base::msg::{CapKindDesc, KReply, Kcall, Payload, SysReplyData, Upcall};
use semper_base::{
    CapType, Code, DdlKey, Error, KernelId, Msg, OpId, PeId, Result, ServiceId, VpeId,
};
use semper_caps::Capability;

use crate::kernel::Kernel;
use crate::ops::{PendingOp, PhaseSpec, Thread};
use crate::outbox::Outbox;
use crate::registry::ServiceInfo;

/// The session protocol's phase table.
#[derive(Debug, Clone)]
pub enum Phase {
    /// Client side, remote service: awaiting `KReply::OpenSess`.
    OpenRemote {
        /// Tag of the initiating system call.
        tag: u64,
        /// The connecting client VPE.
        client: VpeId,
        /// Pre-allocated key of the session capability.
        child_key: DdlKey,
        /// The chosen service instance.
        srv: ServiceInfo,
    },
    /// Service side, on behalf of a remote client: awaiting the service
    /// VPE's upcall reply.
    AtService {
        /// The client kernel's correlation id (echo in reply).
        caller_op: OpId,
        /// The client's kernel.
        caller_kernel: KernelId,
        /// Key of the session capability (allocated by the caller).
        child_key: DdlKey,
        /// The service instance.
        srv: ServiceInfo,
    },
    /// Client and service in the same group: awaiting the service VPE's
    /// upcall reply.
    OpenLocal {
        /// Tag of the initiating system call.
        tag: u64,
        /// The connecting client VPE.
        client: VpeId,
        /// Pre-allocated key of the session capability.
        child_key: DdlKey,
        /// The service instance.
        srv: ServiceInfo,
    },
}

impl Phase {
    /// The declared spec of each phase.
    pub fn spec(&self) -> &'static PhaseSpec {
        match self {
            Phase::OpenRemote { .. } => {
                &PhaseSpec { name: "open-sess-remote", thread: Thread::Holds }
            }
            Phase::AtService { .. } => {
                &PhaseSpec { name: "session-at-service", thread: Thread::Holds }
            }
            Phase::OpenLocal { .. } => &PhaseSpec { name: "session-local", thread: Thread::Holds },
        }
    }

    /// The service VPE whose answer this phase awaits (its death
    /// cancels the open; see [`PendingOp::upcall_responder`]).
    pub fn upcall_responder(&self) -> Option<VpeId> {
        match self {
            Phase::OpenLocal { srv, .. } | Phase::AtService { srv, .. } => Some(srv.srv_vpe),
            Phase::OpenRemote { .. } => None,
        }
    }
}

impl Kernel {
    /// Request handler for [`Kcall::AnnounceService`]: records a remote
    /// service instance in the local registry.
    pub(crate) fn announce_service(&mut self, info: ServiceInfo) -> u64 {
        self.registry.add(info);
        0
    }

    /// Entry point for the `CreateSrv` system call.
    pub(crate) fn sys_create_srv(
        &mut self,
        vpe: VpeId,
        tag: u64,
        name: u64,
        out: &mut Outbox,
    ) -> u64 {
        // Service ids are globally unique without coordination: the
        // owning kernel's id in the high bits, a local count in the low
        // eight. A 257th service would take another service's id.
        let local_count = self.registry.iter().filter(|s| s.owner == self.id).count();
        let Ok(local_count) = u8::try_from(local_count) else {
            self.reply_sys(out, vpe, tag, Err(Error::new(Code::NoSpace)));
            return self.cfg.cost.syscall_exit;
        };
        let id = ServiceId((self.id.0 << 8) | u16::from(local_count));
        let pe = self.pe_of_vpe(vpe).expect("caller is local");
        let srv_key = self.keys.alloc(pe, vpe, CapType::Service);

        let table = self.table_mut(vpe).expect("caller is local");
        let sel = table.insert_new(srv_key);
        self.mapdb.insert(Capability::root(srv_key, CapKindDesc::Service { id }, vpe, sel));
        self.stats.caps_created += 1;

        let info = ServiceInfo { id, name, owner: self.id, srv_key, srv_pe: pe, srv_vpe: vpe };
        self.registry.add(info);

        // Announce to all other kernels. Announcements are startup
        // traffic with no reply; they bypass the request credit budget
        // (they use the boot channel, not the capability-protocol one).
        for k in 0..self.membership.kernel_count() {
            let k = KernelId(k as u16);
            if k == self.id {
                continue;
            }
            let dst = self.membership.kernel_pe(k);
            self.stats.kcalls_out += 1;
            out.push(Msg::new(
                self.pe,
                dst,
                Payload::kcall(Kcall::AnnounceService {
                    id,
                    name,
                    owner: self.id,
                    srv_key,
                    srv_pe: pe,
                    srv_vpe: vpe,
                }),
            ));
        }

        self.reply_sys(out, vpe, tag, Ok(SysReplyData::Sel(sel)));
        self.cfg.cost.cap_create + self.cfg.cost.cap_insert + self.cfg.cost.syscall_exit
    }

    /// Entry point for the `OpenSession` system call (local start).
    pub(crate) fn sys_open_session(
        &mut self,
        vpe: VpeId,
        tag: u64,
        name: u64,
        out: &mut Outbox,
    ) -> u64 {
        let Some(srv) = self.registry.pick(name, self.id, vpe).copied() else {
            self.reply_sys(out, vpe, tag, Err(Error::new(Code::NoSuchService)));
            return self.cfg.cost.syscall_exit;
        };
        if self.peer_dead(srv.owner) {
            self.reply_sys(out, vpe, tag, Err(Error::new(Code::Timeout)));
            return self.cfg.cost.syscall_exit;
        }
        let client_pe = self.pe_of_vpe(vpe).expect("caller is local");
        // The session capability is created by the client's kernel; its
        // DDL key names the client as creator so ownership stays here.
        let child_key = self.keys.alloc(client_pe, vpe, CapType::Session);

        if srv.owner == self.id {
            // Service in our group: ask the service VPE directly.
            let op = self.alloc_op();
            self.send_upcall(
                out,
                srv.srv_pe,
                Upcall::SessionOpen { op, client_vpe: vpe, client_pe },
            );
            self.park(
                op,
                PendingOp::Session(Phase::OpenLocal { tag, client: vpe, child_key, srv }),
            );
            self.ref_cost()
        } else {
            let op = self.alloc_op();
            self.send_kcall(
                out,
                srv.owner,
                Kcall::OpenSessReq { op, child_key, service: srv.id, client_vpe: vpe },
            );
            self.park(
                op,
                PendingOp::Session(Phase::OpenRemote { tag, client: vpe, child_key, srv }),
            );
            self.ref_cost()
        }
    }

    /// Request handler for [`Kcall::OpenSessReq`]: validate the service
    /// instance, then fan out the notification upcall
    /// ([`Phase::AtService`]).
    pub(crate) fn open_sess_request(
        &mut self,
        from: KernelId,
        op: OpId,
        child_key: DdlKey,
        service: ServiceId,
        client_vpe: VpeId,
        out: &mut Outbox,
    ) -> u64 {
        let check = (|| -> Result<(ServiceInfo, PeId)> {
            let srv = *self.registry.get(service).ok_or(Error::new(Code::NoSuchService))?;
            if srv.owner != self.id || !self.vpe_alive(srv.srv_vpe) {
                return Err(Error::new(Code::NoSuchService));
            }
            if self.mapdb.get(srv.srv_key)?.revoking() {
                return Err(Error::new(Code::RevokeInProgress));
            }
            Ok((srv, self.pe_of_vpe(client_vpe)?))
        })();
        match check {
            Err(e) => {
                self.send_kreply(out, from, KReply::OpenSess { op, result: Err(e) });
                self.cfg.cost.kcall_exit
            }
            Ok((srv, client_pe)) => {
                let my_op = self.alloc_op();
                self.send_upcall(
                    out,
                    srv.srv_pe,
                    Upcall::SessionOpen { op: my_op, client_vpe, client_pe },
                );
                self.park(
                    my_op,
                    PendingOp::Session(Phase::AtService {
                        caller_op: op,
                        caller_kernel: from,
                        child_key,
                        srv,
                    }),
                );
                self.ref_cost()
            }
        }
    }

    /// Resumes [`Phase::OpenLocal`]: the service VPE answered the
    /// session-open upcall for a same-group client.
    pub(crate) fn session_local_accept(
        &mut self,
        tag: u64,
        client: VpeId,
        child_key: DdlKey,
        srv: ServiceInfo,
        result: Result<u64>,
        out: &mut Outbox,
    ) -> u64 {
        match result {
            Err(e) => {
                self.reply_sys(out, client, tag, Err(e));
                self.cfg.cost.syscall_exit
            }
            Ok(ident) => {
                if !self.vpe_alive(client) {
                    // Client died while the service was deciding;
                    // nothing inserted yet.
                    return 0;
                }
                if let Err(e) = self.service_cap_usable(&srv) {
                    self.reply_sys(out, client, tag, Err(e));
                    return self.cfg.cost.syscall_exit;
                }
                let sel = self.insert_session(client, child_key, srv, ident, true);
                self.stats.sessions_opened += 1;
                self.reply_sys(
                    out,
                    client,
                    tag,
                    Ok(SysReplyData::Session { sel, srv_pe: srv.srv_pe, ident }),
                );
                self.cfg.cost.cap_create
                    + self.cfg.cost.cap_insert
                    + self.cfg.cost.session_accept
                    + self.cfg.cost.syscall_exit
            }
        }
    }

    /// Resumes [`Phase::AtService`]: the service VPE answered the upcall
    /// for a remote client; re-validate the service capability and link
    /// the session capability under it before replying — the same
    /// ordering obtain uses.
    pub(crate) fn session_service_accept(
        &mut self,
        caller_op: OpId,
        caller_kernel: KernelId,
        child_key: DdlKey,
        srv: ServiceInfo,
        result: Result<u64>,
        out: &mut Outbox,
    ) -> u64 {
        let reply = result.and_then(|ident| {
            self.service_cap_usable(&srv)?;
            self.mapdb.link_child(srv.srv_key, child_key)?;
            Ok(ident)
        });
        self.send_kreply(out, caller_kernel, KReply::OpenSess { op: caller_op, result: reply });
        self.ref_cost() + self.cfg.cost.cap_insert + self.cfg.cost.kcall_exit
    }

    /// Resumes [`Phase::OpenRemote`]: client-side completion of a remote
    /// session open.
    pub(crate) fn open_sess_reply(
        &mut self,
        tag: u64,
        client: VpeId,
        child_key: DdlKey,
        srv: ServiceInfo,
        result: Result<u64>,
        out: &mut Outbox,
    ) -> u64 {
        match result {
            Err(e) => {
                self.reply_sys(out, client, tag, Err(e));
                self.cfg.cost.syscall_exit
            }
            Ok(ident) => {
                if !self.vpe_alive(client) {
                    // Orphaned session: unlink at the service's kernel.
                    self.send_kcall(
                        out,
                        srv.owner,
                        Kcall::OrphanNotice { parent_key: srv.srv_key, child_key },
                    );
                    return self.cfg.cost.kcall_exit;
                }
                let sel = self.insert_session(client, child_key, srv, ident, false);
                self.stats.sessions_opened += 1;
                self.stats.exchanges_spanning += 1;
                self.reply_sys(
                    out,
                    client,
                    tag,
                    Ok(SysReplyData::Session { sel, srv_pe: srv.srv_pe, ident }),
                );
                self.cfg.cost.cap_create + self.cfg.cost.cap_insert + self.cfg.cost.syscall_exit
            }
        }
    }

    /// Re-validates a local service's capability when the service
    /// answers an open, as `obtain_owner_accept` does for an obtain: the
    /// check made when the open arrived is stale by now — the service
    /// may have revoked the capability (gone: `NoSuchService`) or be
    /// revoking it (marked: `RevokeInProgress`, a *pointless* exchange
    /// in Table 2's terms; a session linked under a marked parent would
    /// be an *invalid* capability once the revoke finishes).
    fn service_cap_usable(&mut self, srv: &ServiceInfo) -> Result<()> {
        match self.mapdb.get(srv.srv_key) {
            Err(_) => Err(Error::new(Code::NoSuchService)),
            Ok(cap) if cap.revoking() => {
                self.stats.pointless_denied += 1;
                Err(Error::new(Code::RevokeInProgress))
            }
            Ok(_) => Ok(()),
        }
    }

    /// Fails a parked open towards whoever waits for it — the client,
    /// or the client's kernel: the service VPE died before answering
    /// (`VpeGone`, the teardown sweep), or its answer was starved past
    /// the phase's deadline or the kernel it awaits died (`Timeout`).
    pub(crate) fn cancel_session_phase(&mut self, phase: Phase, err: Error, out: &mut Outbox) {
        match phase {
            Phase::OpenRemote { tag, client, .. } | Phase::OpenLocal { tag, client, .. } => {
                self.reply_sys(out, client, tag, Err(err));
            }
            Phase::AtService { caller_op, caller_kernel, .. } => {
                self.send_kreply(
                    out,
                    caller_kernel,
                    KReply::OpenSess { op: caller_op, result: Err(err) },
                );
            }
        }
    }

    /// Builds and inserts a session capability for `client`. For local
    /// services the parent link is registered immediately (the caller
    /// checked the service capability); for remote services the owning
    /// kernel linked it before replying.
    fn insert_session(
        &mut self,
        client: VpeId,
        child_key: DdlKey,
        srv: ServiceInfo,
        ident: u64,
        link_local_parent: bool,
    ) -> semper_base::CapSel {
        let table = self.table_mut(client).expect("alive client has table");
        let sel = table.insert_new(child_key);
        self.mapdb.insert(Capability::child(
            child_key,
            CapKindDesc::Session { service: srv.id, ident },
            client,
            sel,
            srv.srv_key,
        ));
        self.stats.caps_created += 1;
        if link_local_parent {
            self.mapdb.link_child(srv.srv_key, child_key).expect("caller checked the parent");
        }
        sel
    }
}
