//! The m3fs service actor.
//!
//! The service is a VPE like any other: it talks to its kernel through
//! blocking system calls (one at a time) and to its clients through
//! session-scoped IPC. Serving an extent takes two system calls —
//! `DeriveMem` (attenuate the image capability to the extent range) and
//! `Exchange`/delegate (hand it to the client, possibly across kernels) —
//! and closing a file revokes every capability delegated for it. This is
//! the exact capability lifecycle the paper describes for m3fs (§2.2)
//! and what generates the capability operations counted in Table 4.

use std::collections::VecDeque;
use std::sync::Arc;

use semper_apps::conn::KernelConn;
use semper_base::msg::{
    ExchangeKind, FsOp, FsReplyData, FsReq, Outbox, Payload, Perms, SysReply, SysReplyData,
    Syscall, Upcall, UpcallReply,
};
use semper_base::{CapSel, Code, CostModel, DetHashMap, Error, Msg, PeId, Result, VpeId};

use crate::image::{FsImage, InodeId, EXTENT_BYTES};
use crate::M3FS_NAME;

/// Counters maintained by each service instance.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FsServiceStats {
    /// Sessions accepted.
    pub sessions: u64,
    /// Files opened.
    pub opens: u64,
    /// Extent capabilities served (derive + delegate pairs).
    pub extents_served: u64,
    /// Files closed.
    pub closes: u64,
    /// Revokes issued on close.
    pub revokes: u64,
    /// Metadata operations (stat, readdir, mkdir, unlink).
    pub meta_ops: u64,
}

/// Boot progress of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BootState {
    /// Not started.
    Cold,
    /// `CreateSrv` in flight.
    Registering,
    /// `CreateMem` for the image region in flight.
    AllocatingImage,
    /// Fully operational.
    Ready,
}

/// An open file handle.
///
/// It names its file by the inode `Open` resolved, so no later request
/// on it searches a path. After the file is unlinked, `NextExtent` on
/// the handle is `NoSuchFile`, and a file created again at the same path
/// is a new inode the handle does not reach (see the image's "Layout").
#[derive(Debug)]
struct OpenFile {
    inode: InodeId,
    session: u64,
    /// Service-side selectors of extent capabilities delegated for this
    /// file (children of the image capability; revoked on close).
    delegated: Vec<CapSel>,
}

/// Work that needs system calls, processed one syscall at a time.
#[derive(Debug, Clone)]
enum Work {
    /// Serve an extent: derive, then delegate.
    Extent {
        client_vpe: VpeId,
        client_pe: PeId,
        tag: u64,
        fid: u64,
        /// Range within the image region.
        region_offset: u64,
        /// File offset the extent starts at.
        file_offset: u64,
        len: u64,
        perms: Perms,
        /// Filled after the derive completed.
        derived_sel: Option<CapSel>,
    },
    /// Close a file: revoke each delegated capability, then ack.
    Close { client_pe: PeId, tag: u64, fid: u64, remaining: Vec<CapSel> },
}

/// One m3fs instance.
pub struct FsService {
    vpe: VpeId,
    pe: PeId,
    cost: CostModel,
    /// The filesystem image. Shared (`Arc`) across instances at machine
    /// build; the first runtime mutation of an instance's metadata
    /// clones its private copy (`Arc::make_mut`), preserving the
    /// paper's each-instance-has-its-own-copy semantics (§5.3.1)
    /// without paying one deep clone per instance up front.
    image: Arc<FsImage>,

    boot: BootState,
    image_sel: CapSel,
    image_addr: u64,
    image_size: u64,

    /// The client of session ident `i` is at index `i − 1`: idents are
    /// 1, 2, … in accept order, and a session is never closed.
    sessions: Vec<(VpeId, PeId)>,
    files: DetHashMap<u64, OpenFile>,
    next_fid: u64,

    /// The kernel connection: tag allocation, the one-blocking-syscall
    /// marker, and hard-error reply matching (`semper_apps::conn`).
    conn: KernelConn,
    queue: VecDeque<Work>,
    current: Option<Work>,

    stats: FsServiceStats,
}

impl FsService {
    /// Creates a service instance for `vpe` on `pe`, managed by the
    /// kernel on `kernel_pe`, pre-populated with `image`.
    pub fn new(
        vpe: VpeId,
        pe: PeId,
        kernel_pe: PeId,
        cost: CostModel,
        image: Arc<FsImage>,
        image_size: u64,
    ) -> FsService {
        FsService {
            vpe,
            pe,
            cost,
            image,
            boot: BootState::Cold,
            image_sel: CapSel::INVALID,
            image_addr: 0,
            image_size,
            sessions: Vec::new(),
            files: DetHashMap::default(),
            next_fid: 1,
            conn: KernelConn::new(pe, kernel_pe),
            queue: VecDeque::new(),
            current: None,
            stats: FsServiceStats::default(),
        }
    }

    /// This instance's VPE.
    pub fn vpe(&self) -> VpeId {
        self.vpe
    }

    /// This instance's PE.
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// Statistics counters.
    pub fn stats(&self) -> &FsServiceStats {
        &self.stats
    }

    /// True once boot completed.
    pub fn ready(&self) -> bool {
        self.boot == BootState::Ready
    }

    /// Starts the boot sequence: register the service, then allocate the
    /// image region.
    pub fn boot(&mut self, out: &mut Outbox) -> u64 {
        assert_eq!(self.boot, BootState::Cold, "boot called twice");
        self.boot = BootState::Registering;
        self.syscall(Syscall::CreateSrv { name: M3FS_NAME }, out);
        self.cost.fs_meta_op
    }

    fn syscall(&mut self, call: Syscall, out: &mut Outbox) -> u64 {
        self.conn.submit(call, out).tag()
    }

    /// Handles one incoming message; returns the modeled cycle cost.
    pub fn handle(&mut self, msg: &Msg, out: &mut Outbox) -> u64 {
        match &msg.payload {
            Payload::Upcall(Upcall::SessionOpen { op, client_vpe, client_pe }) => {
                self.sessions.push((*client_vpe, *client_pe));
                let ident = self.sessions.len() as u64;
                self.stats.sessions += 1;
                out.push(Msg::new(
                    self.pe,
                    msg.src,
                    Payload::upcall_reply(UpcallReply::SessionOpen { op: *op, result: Ok(ident) }),
                ));
                self.cost.session_accept
            }
            Payload::Upcall(Upcall::AcceptExchange { op, .. }) => {
                out.push(Msg::new(
                    self.pe,
                    msg.src,
                    Payload::upcall_reply(UpcallReply::AcceptExchange { op: *op, accept: true }),
                ));
                self.cost.upcall_work
            }
            Payload::Fs(req) => self.handle_fs(msg.src, req, out),
            Payload::SysReply(reply) => self.handle_sys_reply(reply, out),
            other => panic!("m3fs got unexpected payload {other:?}"),
        }
    }

    /// The client of session `ident`; `None` for an ident this service
    /// never handed out.
    fn client(&self, ident: u64) -> Option<(VpeId, PeId)> {
        let idx = usize::try_from(ident.checked_sub(1)?).ok()?;
        self.sessions.get(idx).copied()
    }

    fn reply_fs(&self, out: &mut Outbox, dst: PeId, tag: u64, result: Result<FsReplyData>) {
        out.push(Msg::new(self.pe, dst, Payload::fs_reply(tag, result)));
    }

    fn handle_fs(&mut self, src: PeId, req: &FsReq, out: &mut Outbox) -> u64 {
        if self.boot != BootState::Ready {
            self.reply_fs(out, src, req.tag, Err(Error::new(Code::InvalidSession)));
            return self.cost.fs_meta_op;
        }
        // A session is its client's: an ident sent from another PE is
        // no session of the sender's.
        let Some((client_vpe, client_pe)) = self.client(req.session).filter(|&(_, pe)| pe == src)
        else {
            self.reply_fs(out, src, req.tag, Err(Error::new(Code::InvalidSession)));
            return self.cost.fs_meta_op;
        };
        match &req.op {
            FsOp::Open { path, write, create } => {
                self.stats.opens += 1;
                let result = (|| -> Result<FsReplyData> {
                    // The one path search of this open file; `lookup`
                    // fails with `NoSuchFile` only.
                    let inode = match self.image.lookup(path) {
                        Err(_) if *create && *write => {
                            Arc::make_mut(&mut self.image).create_file(path)?
                        }
                        found => found?,
                    };
                    let stat = self.image.stat_of(inode)?;
                    if stat.is_dir {
                        return Err(Error::new(Code::IsDir));
                    }
                    let fid = self.next_fid;
                    self.next_fid += 1;
                    self.files.insert(
                        fid,
                        OpenFile { inode, session: req.session, delegated: Vec::new() },
                    );
                    Ok(FsReplyData::Opened { fid, size: stat.size })
                })();
                self.reply_fs(out, src, req.tag, result);
                self.cost.fs_meta_op
            }
            FsOp::Stat { path } => {
                self.stats.meta_ops += 1;
                let result = self.image.stat(path).map(FsReplyData::Stat);
                self.reply_fs(out, src, req.tag, result);
                self.cost.fs_meta_op
            }
            FsOp::ReadDir { path } => {
                self.stats.meta_ops += 1;
                let result = self.image.read_dir(path).map(|names| FsReplyData::Dir { names });
                self.reply_fs(out, src, req.tag, result);
                self.cost.fs_meta_op
            }
            FsOp::Mkdir { path } => {
                self.stats.meta_ops += 1;
                let result = Arc::make_mut(&mut self.image).mkdir(path).map(|_| FsReplyData::Ok);
                self.reply_fs(out, src, req.tag, result);
                self.cost.fs_meta_op
            }
            FsOp::Unlink { path } => {
                self.stats.meta_ops += 1;
                let result = Arc::make_mut(&mut self.image).unlink(path).map(|_| FsReplyData::Ok);
                self.reply_fs(out, src, req.tag, result);
                self.cost.fs_meta_op
            }
            FsOp::NextExtent { fid, offset, write } => {
                let prep = (|| -> Result<Work> {
                    let file = self.files.get(fid).ok_or(Error::new(Code::InvalidArgs))?;
                    if file.session != req.session {
                        return Err(Error::new(Code::InvalidSession));
                    }
                    if *write {
                        // Appending: make sure the extent exists.
                        Arc::make_mut(&mut self.image).grow(file.inode, offset + EXTENT_BYTES)?;
                    }
                    let (ext, file_offset, len) = self.image.extent_of(file.inode, *offset)?;
                    Ok(Work::Extent {
                        client_vpe,
                        client_pe,
                        tag: req.tag,
                        fid: *fid,
                        region_offset: ext.region_offset,
                        file_offset,
                        len,
                        perms: if *write { Perms::RW } else { Perms::R },
                        derived_sel: None,
                    })
                })();
                match prep {
                    Err(e) => {
                        self.reply_fs(out, src, req.tag, Err(e));
                        self.cost.fs_extent_op
                    }
                    Ok(work) => {
                        self.enqueue(work, out);
                        self.cost.fs_extent_op
                    }
                }
            }
            FsOp::Close { fid } => {
                self.stats.closes += 1;
                if self.files.get(fid).is_some_and(|file| file.session != req.session) {
                    self.reply_fs(out, src, req.tag, Err(Error::new(Code::InvalidSession)));
                    return self.cost.fs_meta_op;
                }
                let Some(file) = self.files.remove(fid) else {
                    self.reply_fs(out, src, req.tag, Err(Error::new(Code::InvalidArgs)));
                    return self.cost.fs_meta_op;
                };
                if file.delegated.is_empty() {
                    self.reply_fs(out, src, req.tag, Ok(FsReplyData::Ok));
                    return self.cost.fs_meta_op;
                }
                self.enqueue(
                    Work::Close { client_pe, tag: req.tag, fid: *fid, remaining: file.delegated },
                    out,
                );
                self.cost.fs_meta_op
            }
        }
    }

    fn enqueue(&mut self, work: Work, out: &mut Outbox) {
        self.queue.push_back(work);
        self.kick(out);
    }

    /// Starts the next queued work item if no system call is in flight.
    fn kick(&mut self, out: &mut Outbox) {
        if self.conn.busy() || self.current.is_some() {
            return;
        }
        let Some(work) = self.queue.pop_front() else { return };
        match &work {
            Work::Extent { region_offset, len, perms, .. } => {
                let call = Syscall::DeriveMem {
                    src: self.image_sel,
                    offset: *region_offset,
                    size: *len,
                    perms: *perms,
                };
                self.current = Some(work);
                self.syscall(call, out);
            }
            Work::Close { remaining, .. } => {
                let sel = remaining[0];
                self.current = Some(work);
                self.syscall(Syscall::Revoke { sel, own: true }, out);
            }
        }
    }

    fn handle_sys_reply(&mut self, reply: &SysReply, out: &mut Outbox) -> u64 {
        // A reply the connection cannot match is a protocol violation;
        // fail loudly in every build.
        if let Err(e) = self.conn.accept(reply) {
            panic!("m3fs: unmatched syscall reply tag {}: {e}", reply.tag);
        }
        match self.boot {
            BootState::Registering => {
                if let Err(e) = &reply.result {
                    panic!("m3fs registration: CreateSrv failed: {e:?}");
                }
                self.boot = BootState::AllocatingImage;
                self.syscall(Syscall::CreateMem { size: self.image_size, perms: Perms::RW }, out);
                return self.cost.fs_meta_op;
            }
            BootState::AllocatingImage => {
                match &reply.result {
                    Ok(SysReplyData::Mem { sel, addr }) => {
                        self.image_sel = *sel;
                        self.image_addr = *addr;
                        self.boot = BootState::Ready;
                    }
                    other => panic!("m3fs image allocation failed: {other:?}"),
                }
                return self.cost.fs_meta_op;
            }
            BootState::Cold => panic!("m3fs: sys reply before boot: {reply:?}"),
            BootState::Ready => {}
        }

        let Some(work) = self.current.take() else {
            panic!("m3fs: sys reply without in-flight work: {reply:?}");
        };
        let cost = match work {
            Work::Extent {
                client_vpe,
                client_pe,
                tag,
                fid,
                region_offset,
                file_offset,
                len,
                perms,
                derived_sel,
            } => match derived_sel {
                None => {
                    // DeriveMem completed → delegate to the client.
                    match &reply.result {
                        Ok(SysReplyData::Sel(sel)) => {
                            let sel = *sel;
                            self.current = Some(Work::Extent {
                                client_vpe,
                                client_pe,
                                tag,
                                fid,
                                region_offset,
                                file_offset,
                                len,
                                perms,
                                derived_sel: Some(sel),
                            });
                            self.syscall(
                                Syscall::Exchange {
                                    other: client_vpe,
                                    own_sel: sel,
                                    other_sel: CapSel::INVALID,
                                    kind: ExchangeKind::Delegate,
                                },
                                out,
                            );
                            self.cost.fs_extent_op
                        }
                        other => {
                            self.reply_fs(out, client_pe, tag, Err(extract_err(other)));
                            self.cost.fs_extent_op
                        }
                    }
                }
                Some(own_sel) => {
                    // Delegate completed → tell the client its selector.
                    match &reply.result {
                        Ok(SysReplyData::Delegated { recv_sel }) => {
                            if let Some(f) = self.files.get_mut(&fid) {
                                f.delegated.push(own_sel);
                            }
                            self.stats.extents_served += 1;
                            self.reply_fs(
                                out,
                                client_pe,
                                tag,
                                Ok(FsReplyData::Extent {
                                    sel: *recv_sel,
                                    addr: self.image_addr + region_offset,
                                    offset: file_offset,
                                    len,
                                }),
                            );
                        }
                        other => {
                            self.reply_fs(out, client_pe, tag, Err(extract_err(other)));
                        }
                    }
                    self.cost.fs_extent_op
                }
            },
            Work::Close { client_pe, tag, fid, mut remaining } => {
                if let Err(e) = &reply.result {
                    // The first failed revoke ends the close and is the
                    // client's answer: reporting a clean close would
                    // leave extent capabilities alive behind it.
                    self.reply_fs(out, client_pe, tag, Err(*e));
                } else {
                    self.stats.revokes += 1;
                    remaining.remove(0);
                    if remaining.is_empty() {
                        self.reply_fs(out, client_pe, tag, Ok(FsReplyData::Ok));
                    } else {
                        let sel = remaining[0];
                        self.current = Some(Work::Close { client_pe, tag, fid, remaining });
                        self.syscall(Syscall::Revoke { sel, own: true }, out);
                    }
                }
                self.cost.fs_meta_op
            }
        };
        self.kick(out);
        cost
    }
}

fn extract_err(result: &Result<SysReplyData>) -> Error {
    match result {
        Err(e) => *e,
        Ok(_) => Error::new(Code::InternalError),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::FsSpec;

    fn svc() -> FsService {
        let spec = FsSpec::empty().file("/f.txt", 300_000);
        let size = spec.region_size(4 << 20);
        FsService::new(
            VpeId(9),
            PeId(3),
            PeId(0),
            CostModel::calibrated(),
            Arc::new(FsImage::build(&spec, size)),
            size,
        )
    }

    #[test]
    fn boot_sequence_issues_create_srv_then_create_mem() {
        let mut s = svc();
        let mut out = Outbox::new();
        s.boot(&mut out);
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1);
        assert!(matches!(&msgs[0].0.payload, Payload::Sys { call: Syscall::CreateSrv { .. }, .. }));
        // Feed the CreateSrv reply.
        let reply =
            Msg::new(PeId(0), PeId(3), Payload::sys_reply(1, Ok(SysReplyData::Sel(CapSel(2)))));
        let mut out = Outbox::new();
        s.handle(&reply, &mut out);
        let msgs = out.drain();
        assert!(matches!(&msgs[0].0.payload, Payload::Sys { call: Syscall::CreateMem { .. }, .. }));
        // Feed the CreateMem reply.
        let reply = Msg::new(
            PeId(0),
            PeId(3),
            Payload::sys_reply(2, Ok(SysReplyData::Mem { sel: CapSel(3), addr: 0x4000_0000 })),
        );
        let mut out = Outbox::new();
        s.handle(&reply, &mut out);
        assert!(s.ready());
    }

    /// A refused registration must stop the boot in every profile: the
    /// service may not go on to report `ready()` with nobody able to
    /// open a session to it.
    #[test]
    #[should_panic(expected = "CreateSrv failed")]
    fn boot_fails_when_create_srv_is_refused() {
        let mut s = svc();
        s.boot(&mut Outbox::new());
        let reply =
            Msg::new(PeId(0), PeId(3), Payload::sys_reply(1, Err(Error::new(Code::NoSuchService))));
        s.handle(&reply, &mut Outbox::new());
    }

    /// A system-call reply the connection did not ask for — here, one
    /// arriving before boot — is a protocol violation in every profile,
    /// not a free no-op.
    #[test]
    #[should_panic(expected = "unmatched syscall reply")]
    fn sys_reply_before_boot_panics() {
        let mut s = svc();
        let reply = Msg::new(PeId(0), PeId(3), Payload::sys_reply(1, Ok(SysReplyData::None)));
        s.handle(&reply, &mut Outbox::new());
    }

    #[test]
    #[should_panic(expected = "m3fs got unexpected payload")]
    fn stray_payload_panics() {
        let mut s = svc();
        let stray = Msg::new(PeId(7), PeId(3), Payload::fs_reply(1, Ok(FsReplyData::Ok)));
        s.handle(&stray, &mut Outbox::new());
    }

    #[test]
    fn session_upcall_accepted() {
        let mut s = svc();
        let mut out = Outbox::new();
        let up = Msg::new(
            PeId(0),
            PeId(3),
            Payload::Upcall(Upcall::SessionOpen {
                op: semper_base::OpId(5),
                client_vpe: VpeId(1),
                client_pe: PeId(7),
            }),
        );
        s.handle(&up, &mut out);
        let msgs = out.drain();
        assert!(matches!(
            &msgs[0].0.payload,
            Payload::UpcallReply(UpcallReply::SessionOpen { result: Ok(1), .. })
        ));
        assert_eq!(s.stats().sessions, 1);
    }

    #[test]
    fn fs_request_before_ready_rejected() {
        let mut s = svc();
        let mut out = Outbox::new();
        let req = Msg::new(
            PeId(7),
            PeId(3),
            Payload::fs(FsReq { session: 1, tag: 9, op: FsOp::Stat { path: "/f.txt".into() } }),
        );
        s.handle(&req, &mut out);
        let msgs = out.drain();
        let Payload::FsReply(r) = &msgs[0].0.payload else { panic!() };
        assert_eq!(r.result.as_ref().unwrap_err().code(), Code::InvalidSession);
    }
}
