//! Driver-level tests of the m3fs service: the derive → delegate →
//! revoke capability pipeline, exercised by feeding the actor messages
//! by hand (no kernel — the replies are scripted). A request carries
//! its session as the channel's label, as the hosts' intake rule writes
//! it; the tests of a sender that may not send go through that rule.

use semper_base::msg::{
    FsOp, FsReply, FsReplyData, FsReq, Outbox, Payload, SysReplyData, Syscall, Upcall,
};
use semper_base::{CapSel, Code, CostModel, Error, Msg, OpId, PeId, VpeId};
use semper_caps::MembershipTable;
use semper_kernel::host::Channels;
use semper_m3fs::{FsImage, FsService, FsSpec};

const SVC_PE: PeId = PeId(3);
const KRN_PE: PeId = PeId(0);
const CLIENT_PE: PeId = PeId(7);
const CLIENT_VPE: VpeId = VpeId(1);

fn booted_service() -> FsService {
    let spec = FsSpec::empty().file("/f.dat", 300_000);
    let size = spec.region_size(8 << 20);
    let mut s = FsService::new(
        VpeId(9),
        SVC_PE,
        KRN_PE,
        CostModel::calibrated(),
        std::sync::Arc::new(FsImage::build(&spec, size)),
        size,
    );
    let mut out = Outbox::new();
    s.boot(&mut out);
    sys_reply(&mut s, 1, Ok(SysReplyData::Sel(CapSel(2))));
    sys_reply(&mut s, 2, Ok(SysReplyData::Mem { sel: CapSel(3), addr: 0x1000_0000 }));
    assert!(s.ready());
    // Open a session for the client.
    let mut out = Outbox::new();
    s.handle(
        &Msg::new(
            KRN_PE,
            SVC_PE,
            Payload::Upcall(Upcall::SessionOpen {
                op: OpId(1),
                client_vpe: CLIENT_VPE,
                client_pe: CLIENT_PE,
            }),
        ),
        &mut out,
    );
    s
}

fn sys_reply(s: &mut FsService, tag: u64, result: semper_base::Result<SysReplyData>) -> Outbox {
    let mut out = Outbox::new();
    s.handle(&Msg::new(KRN_PE, SVC_PE, Payload::sys_reply(tag, result)), &mut out);
    out
}

/// A request from [`CLIENT_PE`] on its session, 1.
fn fs_req(s: &mut FsService, tag: u64, op: FsOp) -> Outbox {
    fs_req_on(s, CLIENT_PE, 1, FsReq { tag, op })
}

/// `req` as it arrives from `src` over a channel labelled `session`.
fn fs_req_on(s: &mut FsService, src: PeId, session: u32, req: FsReq) -> Outbox {
    let mut out = Outbox::new();
    s.handle(&Msg { label: session, ..Msg::new(src, SVC_PE, Payload::fs(req)) }, &mut out);
    out
}

fn expect_fs_reply(out: &mut Outbox, tag: u64) -> semper_base::Result<FsReplyData> {
    for (m, _) in out.drain() {
        if let Payload::FsReply(r) = m.payload {
            let FsReply { tag: t, result } = r;
            assert_eq!(t, tag);
            return result;
        }
    }
    panic!("no fs reply with tag {tag}");
}

fn expect_syscall(out: &mut Outbox) -> (u64, Syscall) {
    for (m, _) in out.drain() {
        if let Payload::Sys { tag, call } = m.payload {
            assert_eq!(m.dst, KRN_PE, "syscalls go to the kernel");
            return (tag, call);
        }
    }
    panic!("no syscall emitted");
}

#[test]
fn open_reports_size_and_fid() {
    let mut s = booted_service();
    let mut out =
        fs_req(&mut s, 10, FsOp::Open { path: "/f.dat".into(), write: false, create: false });
    match expect_fs_reply(&mut out, 10) {
        Ok(FsReplyData::Opened { fid, size }) => {
            assert_eq!(fid, 1);
            assert_eq!(size, 300_000);
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn extent_pipeline_derive_then_delegate_then_reply() {
    let mut s = booted_service();
    let mut out =
        fs_req(&mut s, 10, FsOp::Open { path: "/f.dat".into(), write: false, create: false });
    let _ = expect_fs_reply(&mut out, 10);

    // The extent request triggers a DeriveMem syscall first.
    let mut out = fs_req(&mut s, 11, FsOp::NextExtent { fid: 1, offset: 0, write: false });
    let (tag, call) = expect_syscall(&mut out);
    let Syscall::DeriveMem { src, offset, size, .. } = call else {
        panic!("expected derive, got {call:?}");
    };
    assert_eq!(src, CapSel(3), "derives from the image capability");
    assert_eq!(offset, 0);
    assert_eq!(size, 300_000);

    // Completing the derive triggers the delegate to the client.
    let mut out = sys_reply(&mut s, tag, Ok(SysReplyData::Sel(CapSel(8))));
    let (tag, call) = expect_syscall(&mut out);
    let Syscall::Exchange { other, own_sel, .. } = call else {
        panic!("expected delegate, got {call:?}");
    };
    assert_eq!(other, CLIENT_VPE);
    assert_eq!(own_sel, CapSel(8));

    // Completing the delegate produces the extent reply to the client.
    let mut out = sys_reply(&mut s, tag, Ok(SysReplyData::Delegated { recv_sel: CapSel(4) }));
    match expect_fs_reply(&mut out, 11) {
        Ok(FsReplyData::Extent { sel, offset, len, .. }) => {
            assert_eq!(sel, CapSel(4));
            assert_eq!(offset, 0);
            assert_eq!(len, 300_000);
        }
        other => panic!("unexpected: {other:?}"),
    }
    assert_eq!(s.stats().extents_served, 1);
}

#[test]
fn close_revokes_each_delegated_extent() {
    let mut s = booted_service();
    let mut out =
        fs_req(&mut s, 10, FsOp::Open { path: "/f.dat".into(), write: false, create: false });
    let _ = expect_fs_reply(&mut out, 10);
    // Serve one extent.
    let mut out = fs_req(&mut s, 11, FsOp::NextExtent { fid: 1, offset: 0, write: false });
    let (tag, _) = expect_syscall(&mut out);
    let mut out = sys_reply(&mut s, tag, Ok(SysReplyData::Sel(CapSel(8))));
    let (tag, _) = expect_syscall(&mut out);
    let mut out = sys_reply(&mut s, tag, Ok(SysReplyData::Delegated { recv_sel: CapSel(4) }));
    let _ = expect_fs_reply(&mut out, 11);

    // Close: the service revokes the derived capability it delegated.
    let mut out = fs_req(&mut s, 12, FsOp::Close { fid: 1 });
    let (tag, call) = expect_syscall(&mut out);
    let Syscall::Revoke { sel, own } = call else { panic!("expected revoke") };
    assert_eq!(sel, CapSel(8));
    assert!(own, "the derived capability itself is revoked");
    let mut out = sys_reply(&mut s, tag, Ok(SysReplyData::None));
    assert!(matches!(expect_fs_reply(&mut out, 12), Ok(FsReplyData::Ok)));
    assert_eq!(s.stats().revokes, 1);
    assert_eq!(s.stats().closes, 1);
}

/// A service with `/f.dat` open as fid 1 and the same extent served
/// twice: two delegated capabilities, `CapSel(8)` and `CapSel(9)`, for
/// a close to revoke.
fn service_with_two_extents() -> FsService {
    let mut s = booted_service();
    let mut out =
        fs_req(&mut s, 10, FsOp::Open { path: "/f.dat".into(), write: false, create: false });
    let _ = expect_fs_reply(&mut out, 10);
    for (req_tag, derived) in [(11, CapSel(8)), (12, CapSel(9))] {
        let mut out = fs_req(&mut s, req_tag, FsOp::NextExtent { fid: 1, offset: 0, write: false });
        let (tag, _) = expect_syscall(&mut out);
        let mut out = sys_reply(&mut s, tag, Ok(SysReplyData::Sel(derived)));
        let (tag, _) = expect_syscall(&mut out);
        let mut out = sys_reply(&mut s, tag, Ok(SysReplyData::Delegated { recv_sel: CapSel(4) }));
        let _ = expect_fs_reply(&mut out, req_tag);
    }
    s
}

/// A failed close-time revoke must reach the client in every build
/// profile: the service stops revoking and answers the close with the
/// kernel's error instead of counting the extent as revoked.
#[test]
fn close_reports_a_failed_revoke_to_the_client() {
    let mut s = service_with_two_extents();
    let mut out = fs_req(&mut s, 13, FsOp::Close { fid: 1 });
    let (tag, call) = expect_syscall(&mut out);
    assert!(matches!(call, Syscall::Revoke { sel: CapSel(8), .. }), "{call:?}");
    let mut out = sys_reply(&mut s, tag, Ok(SysReplyData::None));
    let (tag, call) = expect_syscall(&mut out);
    assert!(matches!(call, Syscall::Revoke { sel: CapSel(9), .. }), "{call:?}");
    let mut out = sys_reply(&mut s, tag, Err(Error::new(Code::NoSuchCap)));
    assert_eq!(expect_fs_reply(&mut out, 13).unwrap_err().code(), Code::NoSuchCap);
    assert_eq!(s.stats().revokes, 1, "only the revoke that succeeded counts");
}

#[test]
fn close_without_extents_replies_immediately() {
    let mut s = booted_service();
    let mut out =
        fs_req(&mut s, 10, FsOp::Open { path: "/f.dat".into(), write: false, create: false });
    let _ = expect_fs_reply(&mut out, 10);
    let mut out = fs_req(&mut s, 11, FsOp::Close { fid: 1 });
    assert!(matches!(expect_fs_reply(&mut out, 11), Ok(FsReplyData::Ok)));
}

#[test]
fn requests_queue_while_a_syscall_is_in_flight() {
    let mut s = booted_service();
    let mut out =
        fs_req(&mut s, 10, FsOp::Open { path: "/f.dat".into(), write: false, create: false });
    let _ = expect_fs_reply(&mut out, 10);
    // First extent request: derive in flight.
    let mut out = fs_req(&mut s, 11, FsOp::NextExtent { fid: 1, offset: 0, write: false });
    let (tag1, _) = expect_syscall(&mut out);
    // A second extent request must NOT emit a syscall yet (one blocking
    // syscall per VPE).
    let mut out = fs_req(&mut s, 12, FsOp::NextExtent { fid: 1, offset: 0, write: false });
    assert!(
        !out.drain().iter().any(|(m, _)| matches!(m.payload, Payload::Sys { .. })),
        "second request must queue behind the in-flight syscall"
    );
    // Drain the pipeline for request 11; request 12's derive follows.
    let mut out = sys_reply(&mut s, tag1, Ok(SysReplyData::Sel(CapSel(8))));
    let (tag2, _) = expect_syscall(&mut out); // delegate for 11
    let mut out = sys_reply(&mut s, tag2, Ok(SysReplyData::Delegated { recv_sel: CapSel(4) }));
    // One drain: the reply to request 11 AND request 12's derive syscall
    // leave in the same handler.
    let msgs = out.drain();
    assert!(msgs.iter().any(|(m, _)| matches!(
        &m.payload,
        Payload::FsReply(r)
            if matches!(r, FsReply { tag: 11, result: Ok(FsReplyData::Extent { .. }) })
    )));
    assert!(msgs
        .iter()
        .any(|(m, _)| matches!(&m.payload, Payload::Sys { call: Syscall::DeriveMem { .. }, .. })));
}

#[test]
fn unknown_session_and_fid_rejected() {
    let mut s = booted_service();
    let stat = FsReq { tag: 5, op: FsOp::Stat { path: "/f.dat".into() } };
    let mut out = fs_req_on(&mut s, CLIENT_PE, 999, stat);
    match expect_fs_reply(&mut out, 5) {
        Err(e) => assert_eq!(e.code(), Code::InvalidSession),
        other => panic!("unexpected: {other:?}"),
    }
    let mut out = fs_req(&mut s, 6, FsOp::Close { fid: 42 });
    assert_eq!(expect_fs_reply(&mut out, 6).unwrap_err().code(), Code::InvalidArgs);
}

/// A session is an index into the service's session table; a label
/// that names none — below the first ident, past every ident, or one
/// never handed out — is `InvalidSession`, never a panic or another
/// client's session.
#[test]
fn forged_session_idents_are_invalid_session() {
    let mut s = booted_service();
    for session in [0, 2, u32::MAX, u32::MAX - 1] {
        for op in [
            FsOp::Stat { path: "/f.dat".into() },
            FsOp::Open { path: "/f.dat".into(), write: false, create: false },
            FsOp::NextExtent { fid: 1, offset: 0, write: false },
        ] {
            let mut out = fs_req_on(&mut s, CLIENT_PE, session, FsReq { tag: 5, op });
            assert_eq!(expect_fs_reply(&mut out, 5).unwrap_err().code(), Code::InvalidSession);
        }
    }
    assert_eq!(s.stats().opens, 0);
}

/// The intake rule's view of the PEs these tests name: PEs 0–15, the
/// kernel on PE 0, no channel open yet.
fn rule() -> Channels {
    Channels::new(MembershipTable::contiguous(16, 1))
}

/// The kernel's `OpenSession` reply to the client on `client_pe`, which
/// opens its channel to the service labelled `ident`.
fn open_channel(rule: &mut Channels, client_pe: PeId, ident: u64) {
    let session = SysReplyData::Session { sel: CapSel(5), srv_pe: SVC_PE, ident };
    let mut reply = Msg::new(KRN_PE, client_pe, Payload::sys_reply(1, Ok(session)));
    assert!(rule.admit(&mut reply).is_some());
}

const OTHER_PE: PeId = PeId(8);

/// Opens a second session, for `VpeId(2)` on [`OTHER_PE`]; its ident is 2.
fn open_second_session(s: &mut FsService) {
    let open = Upcall::SessionOpen { op: OpId(2), client_vpe: VpeId(2), client_pe: OTHER_PE };
    s.handle(&Msg::new(KRN_PE, SVC_PE, Payload::Upcall(open)), &mut Outbox::new());
}

/// A file belongs to the session that opened it: another session's
/// close is `InvalidSession`, revokes nothing, and leaves the file to
/// its owner's close.
#[test]
fn another_sessions_close_is_invalid_session_and_leaves_the_file() {
    let mut s = service_with_two_extents();
    open_second_session(&mut s);
    let close = FsReq { tag: 20, op: FsOp::Close { fid: 1 } };
    let mut out = fs_req_on(&mut s, OTHER_PE, 2, close);
    let msgs = out.drain();
    assert!(!msgs.iter().any(|(m, _)| matches!(m.payload, Payload::Sys { .. })), "{msgs:?}");
    let [(reply, _)] = &msgs[..] else { panic!("one reply expected: {msgs:?}") };
    assert_eq!(reply.dst, OTHER_PE);
    let Payload::FsReply(r) = &reply.payload else { panic!("{reply:?}") };
    assert_eq!(r.tag, 20);
    assert_eq!(r.result.as_ref().unwrap_err().code(), Code::InvalidSession);
    assert_eq!(s.stats().revokes, 0);

    // The owner's close still revokes both extents.
    let mut out = fs_req(&mut s, 21, FsOp::Close { fid: 1 });
    for derived in [CapSel(8), CapSel(9)] {
        let (tag, call) = expect_syscall(&mut out);
        assert!(matches!(call, Syscall::Revoke { sel, .. } if sel == derived), "{call:?}");
        out = sys_reply(&mut s, tag, Ok(SysReplyData::None));
    }
    assert!(matches!(expect_fs_reply(&mut out, 21), Ok(FsReplyData::Ok)));
    assert_eq!(s.stats().revokes, 2);
}

/// Session 1 is valid only from its client's PE. Another PE that writes
/// label 1 on its request gets nowhere: without a session of its own the
/// intake rule refuses the send, and with one the rule overwrites the
/// label with its own session's, which does not own session 1's file.
#[test]
fn a_session_ident_from_another_pe_is_invalid_session() {
    let mut s = service_with_two_extents();
    let mut rule = rule();
    for with_own_session in [false, true] {
        if with_own_session {
            open_second_session(&mut s);
            open_channel(&mut rule, OTHER_PE, 2);
        }
        for op in [
            FsOp::Stat { path: "/f.dat".into() },
            FsOp::Open { path: "/f.dat".into(), write: false, create: false },
            FsOp::NextExtent { fid: 1, offset: 0, write: false },
            FsOp::Close { fid: 1 },
        ] {
            let touches_the_file = matches!(op, FsOp::NextExtent { .. } | FsOp::Close { .. });
            let forged = Msg::new(OTHER_PE, SVC_PE, Payload::fs(FsReq { tag: 30, op }));
            let mut msg = Msg { label: 1, ..forged };
            if rule.admit(&mut msg).is_none() {
                assert!(!with_own_session);
                continue;
            }
            assert_eq!(msg.label, 2, "the rule writes the sender's own session");
            if !touches_the_file {
                continue;
            }
            let mut out = Outbox::new();
            s.handle(&msg, &mut out);
            let msgs = out.drain();
            assert!(!msgs.iter().any(|(m, _)| matches!(m.payload, Payload::Sys { .. })));
            let [(reply, _)] = &msgs[..] else { panic!("one reply expected: {msgs:?}") };
            let Payload::FsReply(r) = &reply.payload else { panic!("{reply:?}") };
            assert_eq!(r.result.as_ref().unwrap_err().code(), Code::InvalidSession);
        }
    }
    assert_eq!(rule.refused, 4, "every send without a channel is refused");
    assert_eq!((s.stats().opens, s.stats().meta_ops, s.stats().revokes), (1, 0, 0));
    // The file is still the owner's to close.
    let mut out = fs_req(&mut s, 31, FsOp::Close { fid: 1 });
    assert!(matches!(expect_syscall(&mut out).1, Syscall::Revoke { sel: CapSel(8), .. }));
}

/// An open file is its inode, not its path: after an unlink the next
/// extent request is `NoSuchFile`, and a file created again at the same
/// path is a new inode the old fid does not reach, even to grow it.
#[test]
fn unlink_while_open_leaves_the_fid_without_a_file() {
    let mut s = booted_service();
    let mut out =
        fs_req(&mut s, 10, FsOp::Open { path: "/f.dat".into(), write: false, create: false });
    let _ = expect_fs_reply(&mut out, 10);
    let mut out = fs_req(&mut s, 11, FsOp::Unlink { path: "/f.dat".into() });
    assert!(matches!(expect_fs_reply(&mut out, 11), Ok(FsReplyData::Ok)));
    let mut out = fs_req(&mut s, 12, FsOp::NextExtent { fid: 1, offset: 0, write: false });
    assert_eq!(expect_fs_reply(&mut out, 12).unwrap_err().code(), Code::NoSuchFile);

    let mut out =
        fs_req(&mut s, 13, FsOp::Open { path: "/f.dat".into(), write: true, create: true });
    assert!(matches!(expect_fs_reply(&mut out, 13), Ok(FsReplyData::Opened { fid: 2, size: 0 })));
    for (tag, write) in [(14, false), (15, true)] {
        let mut out = fs_req(&mut s, tag, FsOp::NextExtent { fid: 1, offset: 0, write });
        assert_eq!(expect_fs_reply(&mut out, tag).unwrap_err().code(), Code::NoSuchFile);
    }
    let mut out = fs_req(&mut s, 16, FsOp::Stat { path: "/f.dat".into() });
    match expect_fs_reply(&mut out, 16) {
        Ok(FsReplyData::Stat(stat)) => assert_eq!((stat.size, stat.extents), (0, 0)),
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn append_grows_the_file() {
    let mut s = booted_service();
    let mut out =
        fs_req(&mut s, 10, FsOp::Open { path: "/new.log".into(), write: true, create: true });
    match expect_fs_reply(&mut out, 10) {
        Ok(FsReplyData::Opened { size, .. }) => assert_eq!(size, 0),
        other => panic!("unexpected: {other:?}"),
    }
    // Write past EOF with write=true: the service allocates the extent.
    let mut out = fs_req(&mut s, 11, FsOp::NextExtent { fid: 1, offset: 0, write: true });
    let (tag, call) = expect_syscall(&mut out);
    assert!(matches!(call, Syscall::DeriveMem { .. }));
    let mut out = sys_reply(&mut s, tag, Ok(SysReplyData::Sel(CapSel(8))));
    let (tag, _) = expect_syscall(&mut out);
    let mut out = sys_reply(&mut s, tag, Ok(SysReplyData::Delegated { recv_sel: CapSel(4) }));
    match expect_fs_reply(&mut out, 11) {
        Ok(FsReplyData::Extent { len, .. }) => assert!(len > 0),
        other => panic!("unexpected: {other:?}"),
    }
}
