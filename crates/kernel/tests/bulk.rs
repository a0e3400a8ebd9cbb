//! Protocol tests of bulk revocation (`Syscall::RevokeMany`): the
//! per-kernel grouping of its cross-kernel requests, overlapping roots,
//! per-selector errors, the empty list, and the caller dying mid-revoke.

use semper_base::msg::{ExchangeKind, Perms, SysReplyData, Syscall};
use semper_base::{CapSel, Code, Error, VpeId};
use semper_kernel::harness::TestCluster;

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
