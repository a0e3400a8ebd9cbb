//! The trace-replay driver.
//!
//! [`Replayer`] executes a [`Trace`] against the OS exactly like a real
//! m3fs client: it opens a session, opens files over IPC, pulls extent
//! capabilities for reads and writes, accesses the memory behind them
//! (modeled as compute time per the paper's non-contended-memory
//! methodology), and closes files, triggering revocations at the
//! service. [`AppClient`] wraps one replayer around one application
//! trace; the Nginx server reuses one replayer for every request, each
//! loading a shared handle on its page's trace. A replayer only reads
//! its trace, so a loaded trace is an `Arc<Trace>`. Its open files are
//! indexed by the trace's [`PathId`]s.

use std::sync::Arc;

use semper_base::msg::{
    FsOp, FsReply, FsReplyData, FsReq, Outbox, Payload, SysReplyData, Syscall, Upcall, UpcallReply,
};
use semper_base::{Code, CostModel, Error, Msg, PeId, VpeId};

use crate::conn::{Correlator, KernelConn};
use crate::trace::{PathId, Trace, TraceOp};

/// Lifecycle of an application client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientPhase {
    /// Not started yet.
    Cold,
    /// Waiting for the session to open.
    OpeningSession,
    /// Executing the trace.
    Running,
    /// Trace complete.
    Done,
    /// A filesystem or OS error aborted the trace.
    Failed(Error),
}

/// Per-client statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientStats {
    /// Filesystem requests issued.
    pub fs_requests: u64,
    /// Extent capabilities received.
    pub extents: u64,
    /// Bytes read through memory capabilities.
    pub bytes_read: u64,
    /// Bytes written through memory capabilities.
    pub bytes_written: u64,
    /// Cycles spent in modeled computation (think time + data access).
    pub compute_cycles: u64,
}

#[derive(Debug, Clone)]
struct FileState {
    fid: u64,
    size: u64,
    /// Extent ranges already delegated to us for this open file
    /// (clients cache their memory capabilities — re-requesting a range
    /// the client already holds would be a wasted IPC *and* a spurious
    /// capability operation). Cleared on close, when the service revokes
    /// the capabilities.
    cached: Vec<(u64, u64)>,
}

impl FileState {
    /// The cached range covering `offset`, if any.
    fn covering(&self, offset: u64) -> Option<(u64, u64)> {
        self.cached.iter().copied().find(|(s, e)| *s <= offset && offset < *e)
    }
}

#[derive(Debug, Clone, Copy)]
struct Io {
    path: PathId,
    /// Next file offset to access.
    offset: u64,
    /// End of the requested range (clamped for reads).
    end: u64,
    write: bool,
}

/// Executes traces against the OS. See the module docs.
///
/// Reply correlation lives in [`crate::conn`]: `sys` is the kernel
/// connection (the one blocking system call — here, `OpenSession`),
/// `fs` correlates filesystem IPC over the session. Only its kernel and
/// its service reach it (the hosts' intake rule); a reply is believed
/// only of the kind that answers the outstanding request, and anything
/// else is a hard error surfacing as [`ClientPhase::Failed`].
pub struct Replayer {
    vpe: VpeId,
    pe: PeId,
    cost: CostModel,
    service_name: u64,
    sys: KernelConn,
    fs: Correlator,

    /// The service PE of the open session.
    session: Option<PeId>,
    trace: Option<Arc<Trace>>,
    ip: usize,
    /// The loaded trace's open files, indexed by [`PathId`].
    files: Vec<Option<FileState>>,
    /// Emptied [`FileState::cached`] lists, handed to the next opens: a
    /// file's first extent allocates nothing.
    spare: Vec<Vec<(u64, u64)>>,
    io: Option<Io>,
    stats: ClientStats,
    error: Option<Error>,
}

impl Replayer {
    /// Creates an idle replayer for `vpe` on `pe`.
    pub fn new(
        vpe: VpeId,
        pe: PeId,
        kernel_pe: PeId,
        cost: CostModel,
        service_name: u64,
    ) -> Replayer {
        Replayer {
            vpe,
            pe,
            cost,
            service_name,
            sys: KernelConn::new(pe, kernel_pe),
            fs: Correlator::default(),
            session: None,
            trace: None,
            ip: 0,
            files: Vec::new(),
            spare: Vec::new(),
            io: None,
            stats: ClientStats::default(),
            error: None,
        }
    }

    /// The VPE this replayer drives.
    pub fn vpe(&self) -> VpeId {
        self.vpe
    }

    /// Statistics counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// The first error encountered, if any.
    pub fn error(&self) -> Option<Error> {
        self.error
    }

    /// True once a session to the service is established.
    pub fn has_session(&self) -> bool {
        self.session.is_some()
    }

    /// True if a trace is loaded and not yet finished.
    pub fn busy(&self) -> bool {
        self.trace.is_some()
    }

    /// Issues the `OpenSession` system call.
    ///
    /// # Panics
    ///
    /// Panics if the session is already open.
    pub fn open_session(&mut self, out: &mut Outbox) -> u64 {
        assert!(self.session.is_none(), "session already open");
        self.sys.submit(Syscall::OpenSession { name: self.service_name }, out);
        self.cost.fs_meta_op / 4
    }

    /// Loads a trace for execution (requires an established session and
    /// no trace in progress).
    ///
    /// # Panics
    ///
    /// Panics if a trace is still loaded: replacing it would hand the
    /// next reply to the wrong trace.
    pub fn load(&mut self, trace: Arc<Trace>) {
        assert!(self.trace.is_none(), "trace already loaded");
        // One slot per path of the trace. The table keeps its capacity
        // across loads, so a webserver's request allocates none.
        self.spare.extend(self.files.drain(..).flatten().map(|mut f| {
            f.cached.clear();
            f.cached
        }));
        self.files.resize(trace.paths.len(), None);
        self.trace = Some(trace);
        self.ip = 0;
        self.io = None;
    }

    /// Drives execution until the trace needs a reply or finishes.
    /// Returns `(cycle cost, finished)`.
    pub fn run(&mut self, out: &mut Outbox) -> (u64, bool) {
        let mut cost = 0u64;
        if self.sys.busy() || self.fs.busy() || self.error.is_some() {
            return (cost, false);
        }
        loop {
            let Some(trace) = &self.trace else { return (cost, false) };
            let Some(&op) = trace.ops.get(self.ip) else {
                // Trace complete.
                self.trace = None;
                return (cost, true);
            };
            // A request takes a handle on the trace's path; nothing is
            // copied. A step naming a path the trace does not have, or
            // a file that is not open, is refused.
            let request = match op {
                TraceOp::Compute { cycles } => {
                    cost += cycles;
                    self.stats.compute_cycles += cycles;
                    self.ip += 1;
                    continue;
                }
                TraceOp::Read { path, bytes } => {
                    let Some(f) = self.file(path) else {
                        self.fail(Error::new(Code::InvalidArgs));
                        return (cost, false);
                    };
                    let end = bytes.min(f.size);
                    if end == 0 {
                        self.ip += 1;
                        continue;
                    }
                    self.io = Some(Io { path, offset: 0, end, write: false });
                    if self.drive_io(out, &mut cost) {
                        return (cost, false);
                    }
                    continue;
                }
                TraceOp::Write { path, bytes } => {
                    let Some(f) = self.file(path) else {
                        self.fail(Error::new(Code::InvalidArgs));
                        return (cost, false);
                    };
                    // Appends start at the current end of file.
                    let start = f.size;
                    let end = start + bytes;
                    f.size = end;
                    self.io = Some(Io { path, offset: start, end, write: true });
                    if self.drive_io(out, &mut cost) {
                        return (cost, false);
                    }
                    continue;
                }
                TraceOp::Open { path, write, create } => {
                    trace.path(path).map(|p| FsOp::Open { path: p.clone(), write, create })
                }
                TraceOp::Stat { path } => trace.path(path).map(|p| FsOp::Stat { path: p.clone() }),
                TraceOp::ReadDir { path } => {
                    trace.path(path).map(|p| FsOp::ReadDir { path: p.clone() })
                }
                TraceOp::Mkdir { path } => {
                    trace.path(path).map(|p| FsOp::Mkdir { path: p.clone() })
                }
                TraceOp::Unlink { path } => {
                    trace.path(path).map(|p| FsOp::Unlink { path: p.clone() })
                }
                TraceOp::Close { path } => {
                    self.files.get_mut(path.idx()).and_then(Option::take).map(|mut f| {
                        f.cached.clear();
                        self.spare.push(f.cached);
                        FsOp::Close { fid: f.fid }
                    })
                }
            };
            let Some(request) = request else {
                self.fail(Error::new(Code::InvalidArgs));
                return (cost, false);
            };
            cost += self.send_fs(out, request);
            return (cost, false);
        }
    }

    /// The open file `path` names, if any.
    fn file(&mut self, path: PathId) -> Option<&mut FileState> {
        self.files.get_mut(path.idx())?.as_mut()
    }

    /// Advances the current IO as far as the cached extent capabilities
    /// allow, charging memory-access cycles. Returns true if an extent
    /// request is now in flight (waiting), false if the IO completed
    /// (`ip` advanced, `io` cleared).
    fn drive_io(&mut self, out: &mut Outbox, cost: &mut u64) -> bool {
        loop {
            let Some(io) = &mut self.io else { return false };
            if io.offset >= io.end {
                self.io = None;
                self.ip += 1;
                return false;
            }
            let Some(f) = self.files.get(io.path.idx()).and_then(Option::as_ref) else {
                self.fail(Error::new(Code::InvalidArgs));
                return false;
            };
            match f.covering(io.offset) {
                Some((_, cached_end)) => {
                    // Access through a capability we already hold.
                    let usable = cached_end.min(io.end) - io.offset;
                    let access = self.cost.mem_access(usable);
                    *cost += access;
                    self.stats.compute_cycles += access;
                    if io.write {
                        self.stats.bytes_written += usable;
                    } else {
                        self.stats.bytes_read += usable;
                    }
                    io.offset += usable;
                }
                None => {
                    let op = FsOp::NextExtent { fid: f.fid, offset: io.offset, write: io.write };
                    *cost += self.send_fs(out, op);
                    return true;
                }
            }
        }
    }

    fn send_fs(&mut self, out: &mut Outbox, op: FsOp) -> u64 {
        let srv_pe = self.session.expect("session established before trace");
        let tag = self.fs.issue();
        self.stats.fs_requests += 1;
        out.push(Msg::new(self.pe, srv_pe, Payload::fs(FsReq { tag, op })));
        // Marshalling cost of one IPC request.
        self.cost.dtu_send
    }

    fn fail(&mut self, e: Error) {
        self.error = Some(e);
        self.trace = None;
        self.sys.reset();
        self.fs.reset();
    }

    /// Handles one incoming message. Returns `(cost, trace_finished)`.
    pub fn on_msg(&mut self, msg: &Msg, out: &mut Outbox) -> (u64, bool) {
        match &msg.payload {
            Payload::Upcall(Upcall::AcceptExchange { op, .. }) => {
                // The kernel asks whether we accept a capability (the
                // service delegating an extent): always yes.
                out.push(Msg::new(
                    self.pe,
                    msg.src,
                    Payload::upcall_reply(UpcallReply::AcceptExchange { op: *op, accept: true }),
                ));
                (self.cost.upcall_work, false)
            }
            Payload::SysReply(reply) => {
                // A reply that matches nothing in flight is a protocol
                // violation — fail hard instead of dropping it.
                if let Err(e) = self.sys.accept(reply) {
                    self.fail(e);
                    return (0, false);
                }
                match &reply.result {
                    Ok(SysReplyData::Session { srv_pe, .. }) => {
                        self.session = Some(*srv_pe);
                        let (c, done) = self.run(out);
                        (c + self.cost.fs_meta_op / 4, done)
                    }
                    other => {
                        self.fail(match other {
                            Err(e) => *e,
                            Ok(_) => Error::new(Code::InternalError),
                        });
                        (0, false)
                    }
                }
            }
            Payload::FsReply(reply) => self.on_fs_reply(reply, out),
            _ => {
                // Nothing else is ever addressed to a client: a protocol
                // violation like a mismatched reply, in every build.
                self.fail(Error::new(Code::InternalError));
                (0, false)
            }
        }
    }

    fn on_fs_reply(&mut self, reply: &FsReply, out: &mut Outbox) -> (u64, bool) {
        // A mismatched tag is a hard error, surfaced through
        // `ClientPhase::Failed` in every build profile.
        if let Err(e) = self.fs.accept(reply.tag) {
            self.fail(e);
            return (0, false);
        }
        let mut cost = self.cost.dtu_recv;
        // A reply answers only the request outstanding: an extent's while
        // an IO is in flight, else the one the step at `ip` sent.
        let step = match self.io {
            Some(_) => None,
            None => self.trace.as_ref().and_then(|t| t.ops.get(self.ip)).copied(),
        };
        match (&reply.result, step) {
            (Ok(FsReplyData::Opened { fid, size }), Some(TraceOp::Open { path, .. })) => {
                let Some(slot) = self.files.get_mut(path.idx()) else {
                    self.fail(Error::new(Code::InternalError));
                    return (cost, false);
                };
                let cached = self.spare.pop().unwrap_or_default();
                *slot = Some(FileState { fid: *fid, size: *size, cached });
                self.ip += 1;
            }
            (Ok(FsReplyData::Extent { sel: _, addr: _, offset, len }), None) => {
                self.stats.extents += 1;
                let Some(io) = self.io else {
                    self.fail(Error::new(Code::InternalError));
                    return (cost, false);
                };
                let Some(f) = self.file(io.path) else {
                    self.fail(Error::new(Code::InternalError));
                    return (cost, false);
                };
                // Cache the delegated capability's range, then continue
                // the IO through it.
                f.cached.push((*offset, offset + len));
                if self.drive_io(out, &mut cost) {
                    return (cost, false);
                }
            }
            (Ok(FsReplyData::Stat(_)), Some(TraceOp::Stat { .. }))
            | (Ok(FsReplyData::Dir { .. }), Some(TraceOp::ReadDir { .. }))
            | (
                Ok(FsReplyData::Ok),
                Some(TraceOp::Mkdir { .. } | TraceOp::Unlink { .. } | TraceOp::Close { .. }),
            ) => {
                self.ip += 1;
            }
            (Err(e), None)
                if e.code() == Code::EndOfFile && self.io.is_some_and(|io| !io.write) =>
            {
                // Reading past the end: treat as a short read.
                self.io = None;
                self.ip += 1;
            }
            (Err(e), _) => {
                self.fail(*e);
                return (cost, false);
            }
            _ => {
                self.fail(Error::new(Code::InternalError));
                return (cost, false);
            }
        }
        let (c, done) = self.run(out);
        (cost + c, done)
    }
}

/// One application benchmark instance: a replayer bound to one trace.
pub struct AppClient {
    replayer: Replayer,
    trace: Option<Arc<Trace>>,
    phase: ClientPhase,
}

impl AppClient {
    /// Creates a client that will run `trace` once.
    pub fn new(
        vpe: VpeId,
        pe: PeId,
        kernel_pe: PeId,
        cost: CostModel,
        service_name: u64,
        trace: Trace,
    ) -> AppClient {
        AppClient {
            replayer: Replayer::new(vpe, pe, kernel_pe, cost, service_name),
            trace: Some(Arc::new(trace)),
            phase: ClientPhase::Cold,
        }
    }

    /// Current lifecycle phase.
    #[inline]
    pub fn phase(&self) -> ClientPhase {
        self.phase
    }

    /// The client's VPE.
    pub fn vpe(&self) -> VpeId {
        self.replayer.vpe()
    }

    /// Replay statistics.
    pub fn stats(&self) -> &ClientStats {
        self.replayer.stats()
    }

    /// Starts the client: opens the service session.
    ///
    /// # Panics
    ///
    /// Panics if the client was started before.
    pub fn boot(&mut self, out: &mut Outbox) -> u64 {
        assert_eq!(self.phase, ClientPhase::Cold, "client booted twice");
        self.phase = ClientPhase::OpeningSession;
        self.replayer.open_session(out)
    }

    /// Handles one incoming message; returns the modeled cycle cost.
    pub fn handle(&mut self, msg: &Msg, out: &mut Outbox) -> u64 {
        let was_waiting_session = self.phase == ClientPhase::OpeningSession;
        let (cost, done) = self.replayer.on_msg(msg, out);
        if was_waiting_session && self.replayer.has_session() {
            self.phase = ClientPhase::Running;
            let trace = self.trace.take().expect("trace present until started");
            self.replayer.load(trace);
            let (c2, done2) = self.replayer.run(out);
            if done2 {
                self.phase = ClientPhase::Done;
            }
            return cost + c2;
        }
        if done {
            self.phase = ClientPhase::Done;
        } else if let Some(e) = self.replayer.error() {
            self.phase = ClientPhase::Failed(e);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::AppKind;
    use semper_caps::MembershipTable;
    use semper_kernel::host::Channels;

    /// The intake rule on PEs 0–15, the kernel on PE 0.
    fn rule() -> Channels {
        Channels::new(MembershipTable::contiguous(16, 1))
    }

    /// Delivers `msg` to `c` through the intake rule; false if the rule
    /// refused the send.
    fn through_rule(c: &mut AppClient, channels: &mut Channels, mut msg: Msg) -> bool {
        let admitted = channels.admit(&mut msg).is_some();
        if admitted {
            c.handle(&msg, &mut Outbox::new());
        }
        admitted
    }

    /// A `find` client on PE 1, its kernel on PE 0, service name 7.
    fn client() -> AppClient {
        AppClient::new(
            VpeId(0),
            PeId(1),
            PeId(0),
            CostModel::calibrated(),
            7,
            AppKind::Find.trace(0),
        )
    }

    /// The tag of the system call in `out`, which its reply must echo.
    fn sys_tag(out: &mut Outbox) -> u64 {
        let msgs = out.drain();
        let Some(tag) = msgs.iter().find_map(|(m, _)| match m.payload {
            Payload::Sys { tag, .. } => Some(tag),
            _ => None,
        }) else {
            panic!("no system call in {msgs:?}")
        };
        tag
    }

    #[test]
    fn boot_opens_session() {
        let mut c = client();
        let mut out = Outbox::new();
        c.boot(&mut out);
        assert_eq!(c.phase(), ClientPhase::OpeningSession);
        let msgs = out.drain();
        assert!(matches!(
            &msgs[0].0.payload,
            Payload::Sys { call: Syscall::OpenSession { name: 7 }, .. }
        ));
    }

    #[test]
    fn session_reply_starts_trace() {
        let mut c = client();
        let mut out = Outbox::new();
        c.boot(&mut out);
        let tag = sys_tag(&mut out);
        let reply = Msg::new(
            PeId(0),
            PeId(1),
            Payload::sys_reply(
                tag,
                Ok(SysReplyData::Session {
                    sel: semper_base::CapSel(3),
                    srv_pe: PeId(9),
                    ident: 1,
                }),
            ),
        );
        c.handle(&reply, &mut out);
        assert_eq!(c.phase(), ClientPhase::Running);
        // find's first op is Open → an Fs request to the service PE.
        let msgs = out.drain();
        assert!(msgs.iter().any(|(m, _)| matches!(&m.payload, Payload::Fs(_)) && m.dst == PeId(9)));
    }

    #[test]
    fn failed_session_marks_failure() {
        let mut c = client();
        let mut out = Outbox::new();
        c.boot(&mut out);
        let err = Err(Error::new(Code::NoSuchService));
        let reply = Msg::new(PeId(0), PeId(1), Payload::sys_reply(sys_tag(&mut out), err));
        c.handle(&reply, &mut out);
        assert!(matches!(c.phase(), ClientPhase::Failed(_)));
    }

    /// Nothing but upcalls, system-call replies and filesystem replies
    /// is addressed to a client; anything else fails it in every build
    /// profile instead of being swallowed at no cost.
    #[test]
    fn unexpected_payload_fails_the_client() {
        let mut c = client();
        let mut out = Outbox::new();
        c.boot(&mut out);
        let stray =
            Msg::new(PeId(5), PeId(1), Payload::Http(semper_base::msg::HttpReq { id: 1, uri: 0 }));
        c.handle(&stray, &mut out);
        assert_eq!(c.phase(), ClientPhase::Failed(Error::new(Code::InternalError)));
    }

    /// A `Session` reply reaches the client only from its kernel: the
    /// intake rule refuses one from another PE, so the client still
    /// awaits its kernel's reply, and no channel opens to the service PE
    /// the forged reply named.
    #[test]
    fn session_reply_from_another_pe_fails_the_client() {
        let mut c = client();
        let mut out = Outbox::new();
        c.boot(&mut out);
        let tag = sys_tag(&mut out);
        let session =
            SysReplyData::Session { sel: semper_base::CapSel(3), srv_pe: PeId(5), ident: 1 };
        let forged = Msg::new(PeId(5), PeId(1), Payload::sys_reply(tag, Ok(session)));
        let mut channels = rule();
        assert!(!through_rule(&mut c, &mut channels, forged));
        assert_eq!(c.phase(), ClientPhase::OpeningSession);
        let request =
            Msg::new(PeId(1), PeId(5), Payload::fs(FsReq { tag: 1, op: FsOp::Close { fid: 1 } }));
        assert!(channels.admit(&mut { request }).is_none());
        assert_eq!(channels.refused, 2);
    }

    /// The client's session with its kernel on PE 0 and service on PE 9,
    /// and the filesystem request the client then has outstanding.
    fn running_client() -> (AppClient, FsReq) {
        let mut c = client();
        let mut out = Outbox::new();
        c.boot(&mut out);
        let tag = sys_tag(&mut out);
        let session =
            SysReplyData::Session { sel: semper_base::CapSel(3), srv_pe: PeId(9), ident: 1 };
        c.handle(&Msg::new(PeId(0), PeId(1), Payload::sys_reply(tag, Ok(session))), &mut out);
        let req = outstanding(&mut out);
        (c, req)
    }

    /// The last filesystem request in `out`.
    fn outstanding(out: &mut Outbox) -> FsReq {
        let msgs = out.drain();
        let req = msgs.iter().rev().find_map(|(m, _)| match &m.payload {
            Payload::Fs(req) => Some(req.clone()),
            _ => None,
        });
        req.expect("a filesystem request outstanding")
    }

    /// A reply from a PE other than the session's service never reaches
    /// the client, though it carries the outstanding request's tag: the
    /// intake rule refuses it, and the service's own reply is the one the
    /// client takes.
    #[test]
    fn fs_reply_from_another_pe_fails_the_client() {
        let (mut c, req) = running_client();
        assert!(matches!(req.op, FsOp::Open { .. }));
        // The kernel's session reply opened the channel to PE 9.
        let mut channels = rule();
        channels.open(PeId(1), PeId(9), 1);
        let opened = FsReplyData::Opened { fid: 1, size: 4096 };
        let forged = Msg::new(PeId(5), PeId(1), Payload::fs_reply(req.tag, Ok(opened.clone())));
        assert!(!through_rule(&mut c, &mut channels, forged));
        assert_eq!(c.phase(), ClientPhase::Running);
        let real = Msg::new(PeId(9), PeId(1), Payload::fs_reply(req.tag, Ok(opened)));
        assert!(through_rule(&mut c, &mut channels, real));
        assert_eq!((c.phase(), c.stats().fs_requests), (ClientPhase::Running, 2));
    }

    /// A filesystem reply of the wrong kind is not success: an `Ok` to
    /// the outstanding `NextExtent` of find's index read fails the
    /// client instead of skipping the read.
    #[test]
    fn fs_reply_of_the_wrong_kind_fails_the_client() {
        let (mut c, mut req) = running_client();
        let mut out = Outbox::new();
        // Answer every request correctly up to the first extent request.
        while !matches!(req.op, FsOp::NextExtent { .. }) {
            let data = match &req.op {
                FsOp::Open { .. } => FsReplyData::Opened { fid: 1, size: 4096 },
                FsOp::Stat { .. } => FsReplyData::Stat(semper_base::msg::FileStat {
                    size: 256,
                    is_dir: false,
                    extents: 1,
                }),
                FsOp::ReadDir { .. } => FsReplyData::Dir { names: Vec::new() },
                _ => FsReplyData::Ok,
            };
            c.handle(&Msg::new(PeId(9), PeId(1), Payload::fs_reply(req.tag, Ok(data))), &mut out);
            assert_eq!(c.phase(), ClientPhase::Running);
            req = outstanding(&mut out);
        }
        let wrong = Msg::new(PeId(9), PeId(1), Payload::fs_reply(req.tag, Ok(FsReplyData::Ok)));
        c.handle(&wrong, &mut out);
        assert_eq!(c.phase(), ClientPhase::Failed(Error::new(Code::InternalError)));
        assert_eq!(c.stats().bytes_read, 0);
    }

    #[test]
    #[should_panic(expected = "client booted twice")]
    fn second_boot_panics() {
        let mut c = client();
        c.boot(&mut Outbox::new());
        c.boot(&mut Outbox::new());
    }

    /// A replayer on PE 1 whose session (ident 1, service on PE 9) is open.
    fn replayer_with_session() -> Replayer {
        let mut r = Replayer::new(VpeId(0), PeId(1), PeId(0), CostModel::calibrated(), 7);
        let mut out = Outbox::new();
        r.open_session(&mut out);
        let tag = sys_tag(&mut out);
        let session =
            SysReplyData::Session { sel: semper_base::CapSel(3), srv_pe: PeId(9), ident: 1 };
        r.on_msg(&Msg::new(PeId(0), PeId(1), Payload::sys_reply(tag, Ok(session))), &mut out);
        assert!(r.has_session());
        r
    }

    #[test]
    #[should_panic(expected = "session already open")]
    fn second_session_open_panics() {
        replayer_with_session().open_session(&mut Outbox::new());
    }

    /// Loading over a running trace would hand the next reply to the new
    /// trace; every build profile refuses it.
    #[test]
    #[should_panic(expected = "trace already loaded")]
    fn loading_over_a_running_trace_panics() {
        let mut r = replayer_with_session();
        r.load(Arc::new(AppKind::Find.trace(0)));
        r.run(&mut Outbox::new());
        assert!(r.busy());
        r.load(Arc::new(AppKind::Find.trace(1)));
    }
}
