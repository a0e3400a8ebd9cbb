//! Protocol trace-equivalence tests for the `kernel::ops` port.
//!
//! In the style of the scheduler's reference-model tests
//! (`tests/scheduler.rs` at the workspace root): instead of checking
//! aggregate outcomes, these tests pin the *entire observable message
//! trace* of each distributed protocol — every syscall, upcall,
//! inter-kernel call and reply, in delivery order, with full payloads
//! (op ids, DDL keys, selectors). Two protocol implementations that
//! produce the same trace are indistinguishable to VPEs and to other
//! kernels.
//!
//! The golden fingerprints below were recorded on the hand-rolled
//! per-module state machines (`exchange.rs` / `revoke.rs` /
//! `session.rs`) *before* the port onto the `kernel::ops` engine; the
//! engine must reproduce them byte-for-byte. The three whose traces
//! carry revoke replies were re-recorded once since, when the two revoke
//! replies became one.
//! On mismatch the full trace is printed so the first diverging message
//! can be found by diffing.
//! Re-record (`cargo test -p semper-kernel --test ops_trace -- --nocapture`)
//! only when the protocol intentionally changes.

use semper_base::msg::{ExchangeKind, Perms, SysReplyData, Syscall};
use semper_base::{CapSel, Feature, VpeId};
use semper_kernel::harness::TestCluster;

/// FNV-1a over the joined trace — stable across platforms and runs.
fn fingerprint(trace: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in trace {
        for b in line.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= b'\n' as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn check(trace: Vec<String>, golden_len: usize, golden_fp: u64, what: &str) {
    let fp = fingerprint(&trace);
    if trace.len() != golden_len || fp != golden_fp {
        eprintln!("--- {what}: full trace ({} messages, fp {fp:#x}) ---", trace.len());
        for (i, line) in trace.iter().enumerate() {
            eprintln!("{i:3}  {line}");
        }
        panic!(
            "{what}: trace diverged from the pre-ops-engine golden \
             (got {} msgs / {fp:#x}, want {golden_len} / {golden_fp:#x})",
            trace.len()
        );
    }
    println!("{what}: {} messages, fp {fp:#x}", trace.len());
}

fn create_mem(c: &mut TestCluster, vpe: VpeId) -> CapSel {
    match c.syscall(vpe, Syscall::CreateMem { size: 4096, perms: Perms::RW }).result {
        Ok(SysReplyData::Mem { sel, .. }) => sel,
        other => panic!("create_mem failed: {other:?}"),
    }
}

/// Group-spanning obtain (Figure 3, sequence B): request, consent
/// upcall at the owner, child linked before the reply, insertion at the
/// requester.
#[test]
fn spanning_obtain_trace_matches_golden() {
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    c.enable_tracing();
    let r = c.syscall(
        VpeId(1),
        Syscall::Exchange {
            other: VpeId(0),
            own_sel: CapSel::INVALID,
            other_sel: sel,
            kind: ExchangeKind::Obtain,
        },
    );
    assert!(r.result.is_ok(), "{r:?}");
    c.check_invariants();
    check(c.take_trace(), 6, 0x0c7da2f932c627fb, "spanning obtain");
}

/// Group-spanning delegate: the two-way handshake (§4.3.2) — request,
/// consent upcall at the receiver, parked uninserted capability,
/// commit ack, insertion, done-reply.
#[test]
fn spanning_delegate_trace_matches_golden() {
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    c.enable_tracing();
    let r = c.syscall(
        VpeId(0),
        Syscall::Exchange {
            other: VpeId(1),
            own_sel: sel,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    assert!(r.result.is_ok(), "{r:?}");
    c.check_invariants();
    check(c.take_trace(), 8, 0x357ea72111d0e9f0, "spanning delegate");
}

/// A cross-kernel delegation chain over three kernels, then one revoke
/// of the root: the mark-and-sweep bounces between kernels (Algorithm
/// 1), with one revoke request per remote child and completion replies
/// only after each remote subtree is fully gone.
#[test]
fn spanning_chain_revoke_trace_matches_golden() {
    let mut c = TestCluster::new(3, 1);
    let root = create_mem(&mut c, VpeId(0));
    let mut holder = VpeId(0);
    let mut sel = root;
    for next in [VpeId(1), VpeId(2), VpeId(0), VpeId(1)] {
        let r = c.syscall(
            holder,
            Syscall::Exchange {
                other: next,
                own_sel: sel,
                other_sel: CapSel::INVALID,
                kind: ExchangeKind::Delegate,
            },
        );
        let Ok(SysReplyData::Delegated { recv_sel }) = r.result else {
            panic!("delegate failed: {r:?}")
        };
        holder = next;
        sel = recv_sel;
    }
    c.enable_tracing();
    let r = c.syscall(VpeId(0), Syscall::Revoke { sel: root, own: true });
    assert!(r.result.is_ok(), "{r:?}");
    c.check_invariants();
    assert_eq!(c.total_caps(), 3, "only the self-capabilities remain");
    check(c.take_trace(), 10, 0x2ac7e6b438fc0586, "spanning chain revoke");
}

/// The same wide-tree revoke with [`Feature::RevokeBatching`]: remote
/// children grouped into one batched request per kernel, answered once
/// the whole batch is done.
#[test]
fn batched_revoke_trace_matches_golden() {
    let mut c = TestCluster::new(3, 2);
    for k in &mut c.kernels {
        k.enable_feature_for_test(Feature::RevokeBatching);
    }
    let root = create_mem(&mut c, VpeId(0));
    // Two children in each remote group, one local.
    for to in [VpeId(1), VpeId(4), VpeId(2), VpeId(5), VpeId(3)] {
        let r = c.syscall(
            VpeId(0),
            Syscall::Exchange {
                other: to,
                own_sel: root,
                other_sel: CapSel::INVALID,
                kind: ExchangeKind::Delegate,
            },
        );
        assert!(r.result.is_ok(), "{r:?}");
    }
    c.enable_tracing();
    let r = c.syscall(VpeId(0), Syscall::Revoke { sel: root, own: true });
    assert!(r.result.is_ok(), "{r:?}");
    c.check_invariants();
    check(c.take_trace(), 6, 0xb5d772f76003a9e2, "batched revoke");
}

/// The full session lifecycle across three kernels: service
/// registration and announcement, one spanning and one local open, a
/// client-side close, and the final service teardown sweeping the
/// remaining sessions.
#[test]
fn session_lifecycle_trace_matches_golden() {
    const NAME: u64 = 42;
    let mut c = TestCluster::new(3, 2);
    c.enable_tracing();
    let r = c.syscall(VpeId(2), Syscall::CreateSrv { name: NAME });
    let Ok(SysReplyData::Sel(srv_sel)) = r.result else { panic!("{r:?}") };
    let open = |c: &mut TestCluster, vpe: VpeId| {
        let r = c.syscall(vpe, Syscall::OpenSession { name: NAME });
        match r.result {
            Ok(SysReplyData::Session { sel, .. }) => sel,
            other => panic!("open_session: {other:?}"),
        }
    };
    let sess_a = open(&mut c, VpeId(0)); // group 0, spanning
    let _sess_b = open(&mut c, VpeId(4)); // group 2, spanning
    let _sess_l = open(&mut c, VpeId(3)); // group 1, local
                                          // Client-side close, then service teardown.
    let r = c.syscall(VpeId(0), Syscall::Revoke { sel: sess_a, own: true });
    assert!(r.result.is_ok(), "{r:?}");
    let r = c.syscall(VpeId(2), Syscall::Revoke { sel: srv_sel, own: true });
    assert!(r.result.is_ok(), "{r:?}");
    c.check_invariants();
    check(c.take_trace(), 27, 0xd475b135b23fd1b1, "session lifecycle");
}

/// Failure interleavings (Table 2): the obtainer dies while its obtain
/// is in flight (orphan notice), and a delegate receiver dies
/// mid-handshake (abort + VpeGone done-reply). Exercises the
/// cancellation sweep and orphan cleanup paths.
#[test]
fn failure_paths_trace_matches_golden() {
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    c.enable_tracing();
    c.syscall_async(
        VpeId(1),
        Syscall::Exchange {
            other: VpeId(0),
            own_sel: CapSel::INVALID,
            other_sel: sel,
            kind: ExchangeKind::Obtain,
        },
    );
    c.pump_n(4); // owner linked the child; reply in flight
    c.kill(VpeId(1));
    c.pump_all();
    c.check_invariants();
    assert_eq!(c.kernels[1].stats().orphans_cleaned, 1);

    // Receiver dies during a delegate handshake.
    let tag = c.syscall_async(
        VpeId(0),
        Syscall::Exchange {
            other: VpeId(1),
            own_sel: sel,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    c.pump_all();
    let r = c.take_reply(VpeId(0), tag).expect("delegate must resolve");
    assert!(r.result.is_err(), "receiver is dead: {r:?}");
    c.check_invariants();
    check(c.take_trace(), 10, 0xd5e94b7a8944ac5b, "failure paths");
}
