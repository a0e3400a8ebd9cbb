//! Protocol tests of bulk revocation (`Syscall::RevokeMany`): the
//! per-kernel grouping of its cross-kernel requests, overlapping roots
//! (locally and through another kernel, alone and beside a concurrent
//! revoke), per-selector errors, the empty list, and the caller dying
//! mid-revoke.

use semper_base::msg::{ExchangeKind, Kcall, Perms, SysReplyData, Syscall};
use semper_base::{CapSel, Code, DdlKey, Error, Feature, Msg, OpId, Payload, VpeId};
use semper_kernel::harness::TestCluster;
use semper_kernel::Outbox;

fn create_mem(c: &mut TestCluster, vpe: VpeId) -> CapSel {
    let r = c.syscall(vpe, Syscall::CreateMem { size: 4096, perms: Perms::RW });
    match r.result {
        Ok(SysReplyData::Mem { sel, .. }) => sel,
        other => panic!("create_mem failed: {other:?}"),
    }
}

fn delegate(c: &mut TestCluster, from: VpeId, to: VpeId, sel: CapSel) -> CapSel {
    let r = c.syscall(
        from,
        Syscall::Exchange {
            other: to,
            own_sel: sel,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    match r.result {
        Ok(SysReplyData::Delegated { recv_sel }) => recv_sel,
        other => panic!("delegate failed: {other:?}"),
    }
}

/// Revokes `sels` of `vpe` in one call and returns the per-selector
/// results.
fn revoke_many(c: &mut TestCluster, vpe: VpeId, sels: &[CapSel]) -> Vec<semper_base::Result<()>> {
    let r = c.syscall(vpe, Syscall::RevokeMany { sels: sels.into() });
    match r.result {
        Ok(SysReplyData::Revoked(results)) => *results,
        other => panic!("revoke-many failed: {other:?}"),
    }
}

/// `n` capabilities of VPE 0, each delegated to group 1 or 2 in turn.
fn spanning_caps(c: &mut TestCluster, n: u32) -> Vec<CapSel> {
    (0..n)
        .map(|i| {
            let sel = create_mem(c, VpeId(0));
            let _ = delegate(c, VpeId(0), VpeId(1 + (i as u16 % 2)), sel);
            sel
        })
        .collect()
}

/// Revoking capabilities whose subtrees span two remote kernels sends
/// one `RevokeBatchReq` per destination kernel instead of one
/// `RevokeReq` per remote child.
#[test]
fn consecutive_revokes_coalesce_cross_kernel_messages() {
    let n = 6u32;

    // Sequential: one revoke syscall per capability.
    let mut seq = TestCluster::new(3, 1);
    let sels = spanning_caps(&mut seq, n);
    let before = seq.kernels[0].stats().kcalls_out;
    for sel in sels {
        let r = seq.syscall(VpeId(0), Syscall::Revoke { sel, own: true });
        assert!(r.result.is_ok());
    }
    let seq_kcalls = seq.kernels[0].stats().kcalls_out - before;

    // The same revokes as one call.
    let mut many = TestCluster::new(3, 1);
    let sels = spanning_caps(&mut many, n);
    let before = many.kernels[0].stats().kcalls_out;
    let results = revoke_many(&mut many, VpeId(0), &sels);
    assert_eq!(results, vec![Ok(()); n as usize]);
    let many_kcalls = many.kernels[0].stats().kcalls_out - before;

    assert_eq!(seq_kcalls, n as u64, "one revoke request per remote child");
    assert_eq!(many_kcalls, 2, "one grouped request per destination kernel");
    // Same final state either way: everything revoked.
    seq.check_invariants();
    many.check_invariants();
    assert_eq!(seq.total_caps(), many.total_caps());
    assert_eq!(
        many.kernels[0].stats().revokes_spanning,
        n as u64,
        "one call still counts one revocation per selector"
    );
}

/// Overlapping roots (a child before its ancestor, then the ancestor
/// again) fold into one sweep and all report `Ok`.
#[test]
fn overlapping_revoke_run_folds_into_one_sweep() {
    let mut c = TestCluster::new(1, 2);
    let root = create_mem(&mut c, VpeId(0));
    let child = match c
        .syscall(VpeId(0), Syscall::DeriveMem { src: root, offset: 0, size: 64, perms: Perms::R })
        .result
    {
        Ok(SysReplyData::Sel(sel)) => sel,
        other => panic!("derive failed: {other:?}"),
    };
    let results = revoke_many(&mut c, VpeId(0), &[child, root, root]);
    assert_eq!(results, vec![Ok(()); 3]);
    c.check_invariants();
    assert!(c.kernels[0].table(VpeId(0)).unwrap().get(root).is_err());
    assert!(c.kernels[0].table(VpeId(0)).unwrap().get(child).is_err());
    for k in &c.kernels {
        assert_eq!(k.pending_ops(), 0, "overlapping roots must not deadlock");
    }
}

/// A selector that does not resolve fails alone; the others are still
/// revoked and counted.
#[test]
fn error_items_fail_individually() {
    let mut c = TestCluster::new(1, 2);
    let a = create_mem(&mut c, VpeId(0));
    let b = create_mem(&mut c, VpeId(0));
    let results = revoke_many(&mut c, VpeId(0), &[CapSel(999), a, CapSel::INVALID, b]);
    let no_cap = Err(Error::new(Code::NoSuchCap));
    assert_eq!(results, vec![no_cap, Ok(()), no_cap, Ok(())]);
    let k = &c.kernels[0];
    assert_eq!(k.stats().revokes_local, 2, "only the revoked selectors count");
    assert!(k.table(VpeId(0)).unwrap().get(a).is_err());
    assert!(k.table(VpeId(0)).unwrap().get(b).is_err());
    c.check_invariants();
}

/// An empty list completes at once with an empty result list.
#[test]
fn empty_batch_completes() {
    let mut c = TestCluster::new(1, 1);
    assert!(revoke_many(&mut c, VpeId(0), &[]).is_empty());
    for k in &c.kernels {
        assert_eq!(k.pending_ops(), 0);
    }
}

/// A caller killed while its revoke waits on peer kernels is like a
/// single revoke's dead caller: the revoke runs to completion, its
/// reply goes to the dead VPE (which drops it), and everything
/// quiesces.
#[test]
fn killing_the_issuer_mid_batch_quiesces() {
    let mut c = TestCluster::new(3, 1);
    let sels = spanning_caps(&mut c, 3);
    let tag = c.syscall_async(VpeId(0), Syscall::RevokeMany { sels: sels.into() });
    // Deliver the call: it marks and parks on the two peer kernels.
    c.pump_n(1);
    assert_eq!(c.kernels[0].pending_ops(), 1);
    c.kill(VpeId(0));
    c.pump_all();
    c.check_invariants();
    c.assert_quiescent();
    assert_eq!(c.kernels[0].stats().revokes_spanning, 3, "the revoke ran to completion");
    assert!(c.take_reply(VpeId(0), tag).is_none(), "a dead VPE drops its reply");
    // The dead VPE holds nothing.
    assert_eq!(c.kernels[0].table(VpeId(0)).unwrap().len(), 0);
}

/// Capabilities of a chain that nests `r2` under `r1` through kernel B.
struct Nested {
    /// VPE 0's outer root.
    r1: CapSel,
    /// VPE 2's copy of `r1`, at kernel B.
    b1: CapSel,
    /// VPE 1's copy of `b1`, at kernel A, if the chain passes through it.
    a2: Option<CapSel>,
    /// VPE 0's inner root.
    r2: CapSel,
}

/// On a 2 × 2 cluster — kernel A (0) holds VPEs 0 and 1, kernel B (1)
/// VPEs 2 and 3 — VPE 0's `r1` is delegated to VPE 2 as `b1` and back to
/// VPE 0 as `r2`: directly, so B's revoke request for its child names
/// `r2`, or through VPE 1's `a2`, so it names `r2`'s parent. `r2`'s own
/// subtree reaches B again (VPE 3).
fn nested_through_b(c: &mut TestCluster, via_ancestor: bool) -> Nested {
    let r1 = create_mem(c, VpeId(0));
    let b1 = delegate(c, VpeId(0), VpeId(2), r1);
    let (a2, r2) = if via_ancestor {
        let a2 = delegate(c, VpeId(2), VpeId(1), b1);
        (Some(a2), delegate(c, VpeId(1), VpeId(0), a2))
    } else {
        (None, delegate(c, VpeId(2), VpeId(0), b1))
    };
    let _ = delegate(c, VpeId(0), VpeId(3), r2);
    Nested { r1, b1, a2, r2 }
}

/// The DDL key `vpe` holds at `sel`.
fn key_of(c: &TestCluster, vpe: VpeId, sel: CapSel) -> DdlKey {
    c.kernels[c.kernel_of(vpe).idx()].table(vpe).unwrap().get(sel).unwrap()
}

/// Every capability in the subtree under `key`, on any kernel.
fn subtree(c: &TestCluster, key: DdlKey) -> Vec<DdlKey> {
    let mut keys = vec![key];
    let mut i = 0;
    while i < keys.len() {
        for k in &c.kernels {
            if k.mapdb().contains(keys[i]) {
                keys.extend(k.mapdb().children(keys[i]));
            }
        }
        i += 1;
    }
    keys
}

/// True if some kernel still holds `key`.
fn alive(c: &TestCluster, key: DdlKey) -> bool {
    c.kernels.iter().any(|k| k.mapdb().contains(key))
}

/// A `RevokeMany` of `r1` and `r2`, where `r2` descends from `r1`
/// through kernel B (A → B → A), completes in both list orders, with
/// B's request back to A a `RevokeReq` or (with
/// `Feature::RevokeBatching`) a `RevokeBatchReq`, and whether that
/// request names `r2` or its parent: the revocation it starts at A takes
/// `r2` over instead of waiting for the `RevokeMany`. Both subtrees are
/// gone on every kernel, and the covered selector reports `Ok`.
#[test]
fn roots_nested_through_another_kernel_complete() {
    for via_ancestor in [false, true] {
        for batching in [false, true] {
            for reversed in [false, true] {
                let case =
                    format!("via_ancestor={via_ancestor} batching={batching} reversed={reversed}");
                let mut c = TestCluster::new(2, 2);
                if batching {
                    for k in &mut c.kernels {
                        k.enable_feature_for_test(Feature::RevokeBatching);
                    }
                }
                let n = nested_through_b(&mut c, via_ancestor);
                let sels = if reversed { [n.r2, n.r1] } else { [n.r1, n.r2] };
                c.enable_tracing();
                assert_eq!(revoke_many(&mut c, VpeId(0), &sels), vec![Ok(()); 2], "{case}");

                let kind = if batching { "RevokeBatchReq" } else { "RevokeReq" };
                let back = format!("{}->{} Kcall({kind} ", c.kernels[1].pe(), c.kernels[0].pe());
                assert!(
                    c.take_trace().iter().any(|l| l.starts_with(&back)),
                    "{case}: no {kind} from B back to A"
                );
                c.check_invariants();
                c.assert_quiescent();
                assert_eq!(c.total_caps(), 4, "{case}: only the self-capabilities remain");
                let table = c.kernels[0].table(VpeId(0)).unwrap();
                assert!(sels.iter().all(|sel| table.get(*sel).is_err()), "{case}");
            }
        }
    }
}

/// A revoke of a capability between two nested roots, issued at every
/// point of the `RevokeMany`'s run, completes, and is acknowledged only
/// once its whole subtree — the inner root's included — is gone on
/// every kernel. Issued early, it marks the capability before the
/// `RevokeMany`'s request reaches it, and then meets the inner root;
/// issued late, it finds the capability marked by the `RevokeMany`'s
/// request and waits for that request's revocation, which meets the
/// inner root. Either way the revocation that meets `r2` takes it over,
/// so neither waits for the other, and neither answers before `r2` and
/// its subtree are deleted.
#[test]
fn a_revoke_between_nested_roots_waits_for_the_inner_root() {
    for (via_ancestor, mid_vpe) in [(false, VpeId(2)), (true, VpeId(2)), (true, VpeId(1))] {
        for delay in 0..16 {
            let case = format!("via_ancestor={via_ancestor} mid={mid_vpe} delay={delay}");
            let mut c = TestCluster::new(2, 2);
            let n = nested_through_b(&mut c, via_ancestor);
            let mid = if mid_vpe == VpeId(1) { n.a2.unwrap() } else { n.b1 };
            let below = subtree(&c, key_of(&c, mid_vpe, mid));
            let many = c.syscall_async(VpeId(0), Syscall::RevokeMany { sels: [n.r1, n.r2].into() });
            c.pump_n(delay);
            let one = c.syscall_async(mid_vpe, Syscall::Revoke { sel: mid, own: true });
            let mut answered = false;
            while c.step() {
                if let Some(r) = c.take_reply(mid_vpe, one) {
                    assert!(!answered, "{case}: two answers");
                    answered = true;
                    if r.result.is_ok() {
                        let left: Vec<_> = below.iter().filter(|k| alive(&c, **k)).collect();
                        assert!(left.is_empty(), "{case}: acknowledged with {left:?} alive");
                    }
                }
            }
            assert!(answered, "{case}: the revoke between the roots never completed");
            let r = c.take_reply(VpeId(0), many).expect("the RevokeMany completes");
            assert_eq!(r.result, Ok(SysReplyData::Revoked(Box::new(vec![Ok(()); 2]))), "{case}");
            c.check_invariants();
            c.assert_quiescent();
            assert_eq!(c.total_caps(), 4, "{case}");
        }
    }
}

/// Taking over is for a multi-root revocation's marks only: a revoke
/// request for a capability that a single-root revocation marked
/// registers a waiter, like any revoke that meets a concurrent one.
/// Answering it at once would acknowledge a subtree that is still
/// alive — Table 2's *incomplete* outcome.
#[test]
fn request_for_another_revocations_mark_waits() {
    let mut c = TestCluster::new(2, 2);
    // `k` (VPE 1) has a child at B, so its revocation parks at A.
    let k = create_mem(&mut c, VpeId(1));
    let _ = delegate(&mut c, VpeId(1), VpeId(2), k);
    let k_key = key_of(&c, VpeId(1), k);

    let tk = c.syscall_async(VpeId(1), Syscall::Revoke { sel: k, own: true });
    c.pump_n(1);
    assert_eq!(c.kernels[0].pending_ops(), 1, "the revoke of `k` parks at A");

    // B asks A to revoke `k`, which the single revoke marked.
    let req = Kcall::RevokeReq { op: OpId(1), cap_key: k_key };
    let msg = Msg::new(c.kernels[1].pe(), c.kernels[0].pe(), Payload::kcall(req));
    let mut out = Outbox::new();
    c.kernels[0].handle(&msg, &mut out);
    assert!(out.is_empty(), "answered before `k` was deleted: {:?}", out.drain());
    assert_eq!(c.kernels[0].pending_ops(), 2, "the request waits for `k`");

    // The waiter's answer reaches B for an op B never sent.
    c.kernels[1].enable_fault_injection(0);
    c.pump_all();
    assert_eq!(c.kernels[1].stats().fault_anomalies, 1);
    assert!(c.take_reply(VpeId(1), tk).unwrap().result.is_ok());
    c.check_invariants();
    c.assert_quiescent();
    assert_eq!(c.total_caps(), 4);
}
