//! Service registration and session establishment on the op engine.
//!
//! Services register with `CreateSrv`; their kernel announces the
//! instance to every other live kernel (inter-kernel call group 1/2,
//! §4.1).
//! A client's `OpenSession` creates a **session capability as a child of
//! the service capability** — the paper's running example of a
//! cross-kernel capability relation (§3.4): the session capability is
//! owned by the *client's* kernel while its parent (the service
//! capability) may live at another kernel. Exactly one kernel owns each
//! resource; the child/parent link crosses the boundary via DDL keys.
//!
//! # Paper §3.4 → phases
//!
//! A client of another group parks [`OpenRemote`] at its kernel, which
//! asks the service's kernel to park [`AtService`]; a client of the
//! service's own group parks [`OpenLocal`].

use semper_base::msg::{CapKindDesc, KReply, Kcall, SysReplyData, Upcall, UpcallReply};
use semper_base::{
    CapSel, CapType, Code, DdlKey, Error, KernelId, OpId, PeId, Result, ServiceId, VpeId,
};
use semper_caps::Capability;

use crate::kernel::Kernel;
use crate::ops::{Answer, PendingOp};
use crate::outbox::Outbox;
use crate::registry::ServiceInfo;

/// The session protocol's phases. Each variant holds the struct of its
/// name: the whole continuation its resume handler takes back. Every
/// one parks a cooperative kernel thread (§4.2).
#[derive(Debug, Clone)]
pub enum Phase {
    OpenRemote(OpenRemote),
    AtService(AtService),
    OpenLocal(OpenLocal),
}

/// Client side, remote service: awaiting `KReply::OpenSess`.
#[derive(Debug, Clone)]
pub struct OpenRemote {
    /// Tag of the initiating system call.
    pub tag: u64,
    /// The connecting client VPE.
    pub client: VpeId,
    /// Pre-allocated key of the session capability.
    pub child_key: DdlKey,
    /// The chosen service instance.
    pub srv: ServiceInfo,
}

/// Service side, on behalf of a remote client: awaiting the service
/// VPE's upcall reply.
#[derive(Debug, Clone)]
pub struct AtService {
    /// The client kernel's correlation id (echo in reply).
    pub caller_op: OpId,
    /// The client's kernel.
    pub caller_kernel: KernelId,
    /// Key of the session capability (allocated by the caller).
    pub child_key: DdlKey,
    /// The service instance.
    pub srv: ServiceInfo,
}

/// Client and service in the same group: awaiting the service VPE's
/// upcall reply.
#[derive(Debug, Clone)]
pub struct OpenLocal {
    /// Tag of the initiating system call.
    pub tag: u64,
    /// The connecting client VPE.
    pub client: VpeId,
    /// Pre-allocated key of the session capability.
    pub child_key: DdlKey,
    /// The service instance.
    pub srv: ServiceInfo,
}

impl Phase {
    /// The phase's name, for crash points, logs and assertions.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::OpenRemote(_) => "open-sess-remote",
            Phase::AtService(_) => "session-at-service",
            Phase::OpenLocal(_) => "session-local",
        }
    }

    /// The service VPE whose answer this phase awaits (its death
    /// cancels the open; see [`PendingOp::upcall_responder`]).
    pub fn upcall_responder(&self) -> Option<VpeId> {
        match self {
            Phase::OpenLocal(OpenLocal { srv, .. }) | Phase::AtService(AtService { srv, .. }) => {
                Some(srv.srv_vpe)
            }
            Phase::OpenRemote(_) => None,
        }
    }

    /// The peer kernel the phase awaits ([`PendingOp::awaited_kernel`]).
    pub fn awaited_kernel(&self) -> Option<KernelId> {
        match self {
            Phase::OpenRemote(p) => Some(p.srv.owner),
            Phase::AtService(p) => Some(p.caller_kernel),
            Phase::OpenLocal(_) => None,
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
            return self.refuse(out, vpe, tag, Error::new(Code::NoSpace));
        };
        let id = ServiceId((self.id.0 << 8) | u16::from(local_count));
        let srv_key = match self.new_key(vpe, CapType::Service) {
            Ok(key) => key,
            Err(e) => return self.refuse(out, vpe, tag, e),
        };
        let pe = srv_key.pe();

        let kind = CapKindDesc::Service { id };
        let sel = self.install(Capability::root(srv_key, kind, vpe, CapSel::INVALID));

        let info = ServiceInfo { id, name, owner: self.id, srv_key, srv_pe: pe, srv_vpe: vpe };
        self.registry.add(info);

        // Announce to every other live kernel. An announcement has no
        // reply; like any request it takes a credit until consumed.
        for k in 0..self.membership.kernel_count() {
            let k = KernelId(k as u16);
            if k == self.id || self.peer_dead(k) {
                continue;
            }
            let owner = self.id;
            let call =
                Kcall::AnnounceService { id, name, owner, srv_key, srv_pe: pe, srv_vpe: vpe };
            self.send_kcall(out, k, call);
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
        let Some(srv) = self.registry.pick(name, self.id, vpe, |v| self.vpe_alive(v)).copied()
        else {
            return self.refuse(out, vpe, tag, Error::new(Code::NoSuchService));
        };
        if self.peer_dead(srv.owner) {
            return self.refuse(out, vpe, tag, Error::new(Code::Timeout));
        }
        // A service of this group is checked here, as its kernel checks
        // a remote client's open; `pick` already skipped a dead one.
        if srv.owner == self.id {
            if let Err(e) = self.service_cap_usable(&srv) {
                return self.refuse(out, vpe, tag, e);
            }
        }
        // The session capability is created by the client's kernel; its
        // DDL key names the client as creator so ownership stays here.
        let child_key = match self.new_key(vpe, CapType::Session) {
            Ok(key) => key,
            Err(e) => return self.refuse(out, vpe, tag, e),
        };
        let op = self.alloc_op();
        let phase = if srv.owner == self.id {
            // Service in our group: ask the service VPE directly.
            let up = Upcall::SessionOpen { op, client_vpe: vpe, client_pe: child_key.pe() };
            self.send_upcall(out, srv.srv_pe, up);
            Phase::OpenLocal(OpenLocal { tag, client: vpe, child_key, srv })
        } else {
            let call = Kcall::OpenSessReq { op, child_key, service: srv.id, client_vpe: vpe };
            self.send_kcall(out, srv.owner, call);
            Phase::OpenRemote(OpenRemote { tag, client: vpe, child_key, srv })
        };
        self.park(op, PendingOp::Session(phase));
        self.ref_cost()
    }

    /// Request handler for [`Kcall::OpenSessReq`]: validate the service
    /// instance, then fan out the notification upcall ([`AtService`]).
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
            self.service_open(&srv)?;
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
                let phase = AtService { caller_op: op, caller_kernel: from, child_key, srv };
                self.park(my_op, PendingOp::Session(Phase::AtService(phase)));
                self.ref_cost()
            }
        }
    }

    /// Resumes [`OpenLocal`]: the service VPE answered the session-open
    /// upcall for a same-group client.
    fn session_local_accept(
        &mut self,
        phase: OpenLocal,
        result: Result<u64>,
        out: &mut Outbox,
    ) -> u64 {
        let OpenLocal { tag, client, child_key, srv } = phase;
        match result {
            Err(e) => self.refuse(out, client, tag, e),
            Ok(ident) => {
                if !self.vpe_alive(client) {
                    // Client died while the service was deciding;
                    // nothing inserted yet.
                    return 0;
                }
                if let Err(e) = self.service_cap_usable(&srv) {
                    return self.refuse(out, client, tag, e);
                }
                let kind = CapKindDesc::Session { service: srv.id, ident };
                let cap = Capability::child(child_key, kind, client, CapSel::INVALID, srv.srv_key);
                let sel = self.install(cap);
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

    /// Resumes [`AtService`]: the service VPE answered the upcall for a
    /// remote client; re-validate the service capability and link the
    /// session capability under it before replying — the same ordering
    /// obtain uses.
    fn session_service_accept(
        &mut self,
        phase: AtService,
        result: Result<u64>,
        out: &mut Outbox,
    ) -> u64 {
        let AtService { caller_op, caller_kernel, child_key, srv } = phase;
        let reply = result.and_then(|ident| {
            self.service_cap_usable(&srv)?;
            self.mapdb.link_child(srv.srv_key, child_key)?;
            Ok(ident)
        });
        self.send_kreply(out, caller_kernel, KReply::OpenSess { op: caller_op, result: reply });
        self.ref_cost() + self.cfg.cost.cap_insert + self.cfg.cost.kcall_exit
    }

    /// Resumes [`OpenRemote`]: client-side completion of a remote session
    /// open.
    fn open_sess_reply(&mut self, phase: OpenRemote, result: Result<u64>, out: &mut Outbox) -> u64 {
        let OpenRemote { tag, client, child_key, srv } = phase;
        match result {
            Err(e) => self.refuse(out, client, tag, e),
            Ok(ident) => {
                if !self.vpe_alive(client) {
                    return self.orphaned(srv.srv_key, child_key, out);
                }
                let kind = CapKindDesc::Session { service: srv.id, ident };
                let cap = Capability::child(child_key, kind, client, CapSel::INVALID, srv.srv_key);
                let sel = self.install(cap);
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

    /// Whether a service instance of this group can take an open: its
    /// VPE lives and its capability is usable. Checked before the
    /// upcall to a remote client's kernel's request, which names the
    /// service by id (a client of this group gets a live one from
    /// `Registry::pick`).
    fn service_open(&mut self, srv: &ServiceInfo) -> Result<()> {
        if srv.owner != self.id || !self.vpe_alive(srv.srv_vpe) {
            return Err(Error::new(Code::NoSuchService));
        }
        self.service_cap_usable(srv)
    }

    /// `Kernel::usable` for a local service's capability, checked when
    /// an open arrives and again when the service answers it, as
    /// `obtain_owner_accept` does for an obtain: by then the service may
    /// have revoked the capability (gone: `NoSuchService`) or be
    /// revoking it (marked: `RevokeInProgress`).
    fn service_cap_usable(&mut self, srv: &ServiceInfo) -> Result<()> {
        match self.usable(srv.srv_key) {
            Err(e) if e.code() == Code::NoSuchCap => Err(Error::new(Code::NoSuchService)),
            other => other.map(|_| ()),
        }
    }

    /// Resumes a parked open with the answer it awaited; the router
    /// checked who answered (see `Kernel::resume`). An answer of another
    /// kind from the awaited kernel is a kernel bug, and panics.
    pub(crate) fn resume_session(&mut self, phase: Phase, answer: Answer, out: &mut Outbox) -> u64 {
        match (phase, answer) {
            (Phase::OpenLocal(p), Answer::Upcall(UpcallReply::SessionOpen { result, .. })) => {
                self.session_local_accept(p, *result, out)
            }
            (Phase::AtService(p), Answer::Upcall(UpcallReply::SessionOpen { result, .. })) => {
                self.session_service_accept(p, *result, out)
            }
            (Phase::OpenRemote(p), Answer::KReply(KReply::OpenSess { result, .. })) => {
                self.open_sess_reply(p, *result, out)
            }
            (phase, answer) => panic!("{answer:?} cannot resume {}", phase.name()),
        }
    }

    /// Fails a parked open towards whoever waits for it — the client,
    /// or the client's kernel — with `err` (see `Kernel::fail_parked`).
    pub(crate) fn fail_session_phase(&mut self, phase: Phase, err: Error, out: &mut Outbox) {
        match phase {
            Phase::OpenRemote(OpenRemote { tag, client, .. })
            | Phase::OpenLocal(OpenLocal { tag, client, .. }) => {
                self.reply_sys(out, client, tag, Err(err));
            }
            Phase::AtService(p) => {
                let reply = KReply::OpenSess { op: p.caller_op, result: Err(err) };
                self.send_kreply(out, p.caller_kernel, reply);
            }
        }
    }
}
