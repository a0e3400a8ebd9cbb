//! Protocol-level tests of the distributed capability management (§4.3),
//! including every interference case of Table 2.

use semper_base::config::Feature;
use semper_base::msg::{
    ExchangeKind, HttpReq, KReply, Kcall, Outbox, Payload, Perms, SysReply, SysReplyData, Syscall,
    UpcallReply,
};
use semper_base::{
    CapSel, CapType, Code, DdlKey, Error, KernelId, Msg, OpId, PeId, ServiceId, VpeId,
};
use semper_kernel::harness::TestCluster;
use semper_sim::FaultPlan;

/// Convenience: create a memory capability and return its selector.
fn create_mem(c: &mut TestCluster, vpe: VpeId) -> CapSel {
    let r = c.syscall(vpe, Syscall::CreateMem { size: 4096, perms: Perms::RW });
    match r.result {
        Ok(SysReplyData::Mem { sel, .. }) => sel,
        other => panic!("create_mem failed: {other:?}"),
    }
}

/// `to` asks for `from`'s capability at `sel` without pumping; returns
/// the tag.
fn obtain_async(c: &mut TestCluster, to: VpeId, from: VpeId, sel: CapSel) -> u64 {
    c.syscall_async(
        to,
        Syscall::Exchange {
            other: from,
            own_sel: CapSel::INVALID,
            other_sel: sel,
            kind: ExchangeKind::Obtain,
        },
    )
}

/// Convenience: `to` obtains `from`'s capability at `sel`.
fn obtain(c: &mut TestCluster, to: VpeId, from: VpeId, sel: CapSel) -> CapSel {
    let tag = obtain_async(c, to, from, sel);
    c.pump_all();
    let r = c.take_reply(to, tag).expect("syscall must produce a reply");
    match r.result {
        Ok(SysReplyData::Sel(sel)) => sel,
        other => panic!("obtain failed: {other:?}"),
    }
}

/// Convenience: `from` delegates its capability at `sel` to `to`.
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

fn revoke(c: &mut TestCluster, vpe: VpeId, sel: CapSel) {
    let r = c.syscall(vpe, Syscall::Revoke { sel, own: true });
    assert!(matches!(r.result, Ok(SysReplyData::None)), "revoke failed: {:?}", r.result);
}

#[test]
fn local_delegate_roundtrip() {
    let mut c = TestCluster::new(1, 2);
    let sel = create_mem(&mut c, VpeId(0));
    let recv_sel = delegate(&mut c, VpeId(0), VpeId(1), sel);
    assert_ne!(recv_sel, CapSel::INVALID);
    c.check_invariants();
    assert_eq!(c.kernels[0].stats().exchanges_local, 1);
}

#[test]
fn spanning_delegate_two_way_handshake() {
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    let recv_sel = delegate(&mut c, VpeId(0), VpeId(1), sel);
    assert_ne!(recv_sel, CapSel::INVALID);
    c.check_invariants();
    // The delegator's kernel counts the spanning exchange.
    assert_eq!(c.kernels[0].stats().exchanges_spanning, 1);
    // Receiver-side kernel holds the new capability.
    assert!(c.kernels[1].table(VpeId(1)).unwrap().get(recv_sel).is_ok());
}

#[test]
fn denied_exchange_returns_error() {
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    c.deny_exchanges(VpeId(1));
    let r = c.syscall(
        VpeId(0),
        Syscall::Exchange {
            other: VpeId(1),
            own_sel: sel,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    assert_eq!(r.result.unwrap_err().code(), Code::ExchangeDenied);
    c.check_invariants();
}

#[test]
fn local_revoke_removes_subtree() {
    let mut c = TestCluster::new(1, 3);
    let sel = create_mem(&mut c, VpeId(0));
    let s1 = delegate(&mut c, VpeId(0), VpeId(1), sel);
    let _s2 = delegate(&mut c, VpeId(1), VpeId(2), s1);
    let before = c.total_caps();
    revoke(&mut c, VpeId(0), sel);
    // Root + two delegated copies are gone.
    assert_eq!(c.total_caps(), before - 3);
    c.check_invariants();
    assert!(c.kernels[0].table(VpeId(1)).unwrap().get(s1).is_err());
}

#[test]
fn spanning_revoke_removes_remote_children() {
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    let recv_sel = delegate(&mut c, VpeId(0), VpeId(1), sel);
    revoke(&mut c, VpeId(0), sel);
    c.check_invariants();
    assert!(c.kernels[1].table(VpeId(1)).unwrap().get(recv_sel).is_err());
    assert_eq!(c.kernels[0].stats().revokes_spanning, 1);
}

#[test]
fn spanning_obtain_then_owner_revoke() {
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    let got = obtain(&mut c, VpeId(1), VpeId(0), sel);
    assert!(c.kernels[1].table(VpeId(1)).unwrap().get(got).is_ok());
    revoke(&mut c, VpeId(0), sel);
    c.check_invariants();
    assert!(c.kernels[1].table(VpeId(1)).unwrap().get(got).is_err());
    assert_eq!(c.kernels[0].stats().revokes_spanning, 1);
}

/// A cluster is its state: a clone taken in the middle of a spanning
/// revoke, with requests in flight and the revocation parked, runs to
/// the same end as the original.
#[test]
fn a_cloned_cluster_finishes_a_spanning_revoke_alike() {
    let mut c = TestCluster::new(3, 1);
    let sel = create_mem(&mut c, VpeId(0));
    let _ = delegate(&mut c, VpeId(0), VpeId(1), sel);
    let _ = delegate(&mut c, VpeId(0), VpeId(2), sel);
    let tag = c.syscall_async(VpeId(0), Syscall::Revoke { sel, own: true });
    c.pump_n(2);
    assert_eq!(c.kernels[0].pending_ops(), 1, "the revoke parks at kernel 0");
    let mut twin = c.clone();
    let mut ends = Vec::new();
    for run in [&mut c, &mut twin] {
        run.pump_all();
        run.check_invariants();
        run.assert_quiescent();
        let reply = run.take_reply(VpeId(0), tag).expect("the revoke is answered");
        let kernels: Vec<_> = run.kernels.iter().map(|k| (k.state_digest(), *k.stats())).collect();
        ends.push((format!("{reply:?}"), kernels));
    }
    assert_eq!(ends[0], ends[1]);
    assert_eq!(c.total_caps(), 3, "only the three self-capabilities may survive");
}

#[test]
fn cross_kernel_chain_revokes_fully() {
    // The adversarial ping-pong chain of §5.2: a capability delegated
    // back and forth between VPEs of two different kernels.
    let mut c = TestCluster::new(2, 2);
    // Groups: K0 = {VPE0, VPE1}, K1 = {VPE2, VPE3}.
    let root = create_mem(&mut c, VpeId(0));
    let mut sels = vec![(VpeId(0), root)];
    let mut cur = root;
    let mut holder = VpeId(0);
    // Alternate: 0 -> 2 -> 1 -> 3 -> 0... building a deep chain.
    let order = [VpeId(2), VpeId(1), VpeId(3), VpeId(0), VpeId(2), VpeId(1)];
    for &next in &order {
        cur = delegate(&mut c, holder, next, cur);
        holder = next;
        sels.push((next, cur));
    }
    let total_before = c.total_caps();
    revoke(&mut c, VpeId(0), root);
    assert_eq!(c.total_caps(), total_before - sels.len());
    c.check_invariants();
    // Every selector in the chain is gone.
    for (vpe, sel) in sels {
        let k = c.kernel_of(vpe);
        assert!(c.kernels[k.idx()].table(vpe).unwrap().get(sel).is_err());
    }
}

#[test]
fn wide_tree_revoke_across_kernels() {
    let mut c = TestCluster::new(4, 3);
    // VPE0 (group 0) delegates to all 11 other VPEs.
    let root = create_mem(&mut c, VpeId(0));
    for v in 1..12u16 {
        let _ = delegate(&mut c, VpeId(0), VpeId(v), root);
    }
    let before = c.total_caps();
    revoke(&mut c, VpeId(0), root);
    assert_eq!(c.total_caps(), before - 12);
    c.check_invariants();
}

/// The child lives at the root's kernel, and at another kernel: a
/// children-only revoke deletes it either way.
#[test]
fn revoke_children_only_keeps_root() {
    for (kernels, vpes_per_group) in [(1, 2), (2, 1)] {
        let mut c = TestCluster::new(kernels, vpes_per_group);
        let sel = create_mem(&mut c, VpeId(0));
        let _ = delegate(&mut c, VpeId(0), VpeId(1), sel);
        let r = c.syscall(VpeId(0), Syscall::Revoke { sel, own: false });
        assert!(r.result.is_ok(), "{kernels} kernels: {r:?}");
        // Root survives, child is gone.
        assert!(c.kernels[0].table(VpeId(0)).unwrap().get(sel).is_ok());
        assert_eq!(c.total_caps(), 3, "{kernels} kernels: two self-capabilities and the root");
        c.check_invariants();
        c.assert_quiescent();
    }
}

// ----- Table 2: interference cases -------------------------------------

/// Ten rounds of VPE 0 (kernel 0) delegating its capability to VPE 1
/// (kernel 1), each child revoked at kernel 1 — by VPE 1 itself
/// (`children_only` false) or, after all ten rounds, by VPE 0 revoking
/// the children of its capability. Returns the cluster and the parent.
fn ten_remote_children_revoked(children_only: bool) -> (TestCluster, CapSel) {
    let mut c = TestCluster::new(2, 1);
    let root = create_mem(&mut c, VpeId(0));
    for _ in 0..10 {
        let child = delegate(&mut c, VpeId(0), VpeId(1), root);
        if !children_only {
            revoke(&mut c, VpeId(1), child);
        }
    }
    if children_only {
        let r = c.syscall(VpeId(0), Syscall::Revoke { sel: root, own: false });
        assert!(matches!(r.result, Ok(SysReplyData::None)), "{r:?}");
        assert_eq!(c.total_caps(), 3, "two VPE capabilities and the parent are left");
    }
    c.check_invariants();
    (c, root)
}

/// The forest is exact: a revoked child leaves its remote parent's
/// list, so the parent's next revoke asks no kernel for anything.
fn the_parent_lists_no_revoked_child(children_only: bool) {
    let (mut c, root) = ten_remote_children_revoked(children_only);
    let k0 = &c.kernels[0];
    let key = k0.table(VpeId(0)).unwrap().get(root).unwrap();
    assert_eq!(k0.mapdb().get(key).unwrap().child_count(), 0, "a revoked child is still listed");
    let kcalls = k0.stats().kcalls_out;
    revoke(&mut c, VpeId(0), root);
    assert_eq!(c.kernels[0].stats().kcalls_out - kcalls, 0, "the revoke asked for dead children");
    c.check_invariants();
}

/// The child's own kernel revokes it: it tells the parent's kernel.
#[test]
fn a_child_revoked_at_its_kernel_leaves_its_remote_parents_list() {
    the_parent_lists_no_revoked_child(false);
}

/// The parent's kernel revokes the children: each leaves the list once
/// its kernel answered the revoke request.
#[test]
fn a_children_only_revoke_unlinks_its_remote_children() {
    the_parent_lists_no_revoked_child(true);
}

#[test]
fn orphaned_obtain_cleaned_up() {
    // Obtain followed by the obtainer's death while the inter-kernel
    // call is in flight → the owner-side child reference is orphaned and
    // must be cleaned via the orphan notice (Table 2 "Orphaned").
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    // VPE1 (group 1) starts obtaining from VPE0 (group 0).
    c.syscall_async(
        VpeId(1),
        Syscall::Exchange {
            other: VpeId(0),
            own_sel: CapSel::INVALID,
            other_sel: sel,
            kind: ExchangeKind::Obtain,
        },
    );
    // Deliver: syscall → K1, ObtainReq → K0, upcall → VPE0, reply → K0.
    // That links the child at the owner; the obtain reply to K1 is queued.
    c.pump_n(4);
    // Kill the obtainer before its kernel processes the reply.
    c.kill(VpeId(1));
    c.pump_all();
    c.check_invariants();
    // The owner's capability must have no children left (orphan removed).
    let k0 = &c.kernels[0];
    let key = k0.table(VpeId(0)).unwrap().get(sel).unwrap();
    assert_eq!(k0.mapdb().get(key).unwrap().child_count(), 0);
    // Counted where the orphan is found: at the obtainer's kernel.
    assert_eq!(c.kernels[1].stats().orphans_cleaned, 1);
}

#[test]
fn delegate_to_killed_receiver_unwinds() {
    // Delegate where the receiver dies mid-handshake → the pending
    // capability is dropped and the delegator unlinks the child.
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    c.syscall_async(
        VpeId(0),
        Syscall::Exchange {
            other: VpeId(1),
            own_sel: sel,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    // syscall → K0, DelegateReq → K1, upcall → VPE1, reply → K1,
    // DelegateReply → K0 (which links the child and sends the ack).
    c.pump_n(5);
    c.kill(VpeId(1));
    c.pump_all();
    c.check_invariants();
    // Delegator's capability has no children; no stray capability at K1.
    let k0 = &c.kernels[0];
    let key = k0.table(VpeId(0)).unwrap().get(sel).unwrap();
    assert_eq!(k0.mapdb().get(key).unwrap().child_count(), 0);
}

#[test]
fn invalid_prevention_revoke_during_delegate() {
    // Table 2 "Invalid": parent revoked while the delegate handshake is
    // in flight. With the two-way handshake the receiver must NOT end up
    // with a usable capability.
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    c.syscall_async(
        VpeId(0),
        Syscall::Exchange {
            other: VpeId(1),
            own_sel: sel,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    // Process only the first leg up to the receiver-side creation:
    // syscall → K0 (sends DelegateReq), K1 handles it (upcall), VPE1
    // accepts, K1 parks the pending insert + replies.
    c.pump_n(4);
    // Now revoke the parent at K0 *before* the DelegateReply is
    // processed — the parent has no children yet, so the revoke
    // completes locally and the reply finds the parent gone.
    let tag = c.syscall_front(VpeId(0), Syscall::Revoke { sel, own: true });
    c.pump_all();
    assert!(c.take_reply(VpeId(0), tag).unwrap().result.is_ok());
    c.check_invariants();
    // The receiver must have no memory capability: the pending insert
    // was aborted by the handshake.
    let k1 = &c.kernels[1];
    let has_mem = k1
        .mapdb()
        .iter()
        .any(|cap| matches!(cap.kind, semper_base::msg::CapKindDesc::Memory { .. }));
    assert!(!has_mem, "receiver holds an invalid capability");
    assert_eq!(k1.pending_ops(), 0, "no pending insert may leak");
}

#[test]
fn one_way_delegate_ablation_leaves_invalid_cap() {
    // The same race with the handshake disabled demonstrates the window:
    // the receiver ends up holding a capability whose parent is gone.
    let mut c = TestCluster::new(2, 1);
    for k in &mut c.kernels {
        // Enable the ablation on every kernel.
        // (TestCluster has no feature plumbing; poke the config.)
        k.enable_feature_for_test(Feature::OneWayDelegate);
    }
    let sel = create_mem(&mut c, VpeId(0));
    c.syscall_async(
        VpeId(0),
        Syscall::Exchange {
            other: VpeId(1),
            own_sel: sel,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    c.pump_n(4); // receiver inserts immediately under one-way protocol
    let tag = c.syscall_front(VpeId(0), Syscall::Revoke { sel, own: true });
    c.pump_all();
    assert!(c.take_reply(VpeId(0), tag).unwrap().result.is_ok());
    let k1 = &c.kernels[1];
    let has_mem = k1
        .mapdb()
        .iter()
        .any(|cap| matches!(cap.kind, semper_base::msg::CapKindDesc::Memory { .. }));
    assert!(has_mem, "ablation: the naive protocol should exhibit the invalid capability");
}

#[test]
fn pointless_exchange_denied_during_revoke() {
    // Table 2 "Pointless": an exchange touching a capability that is
    // marked for revocation is denied immediately.
    let mut c = TestCluster::new(2, 2);
    // Build a spanning tree so the revoke stays in flight: VPE0 → VPE2.
    let sel = create_mem(&mut c, VpeId(0));
    let _ = delegate(&mut c, VpeId(0), VpeId(2), sel);
    // Start the revoke but stop before the remote reply returns:
    // syscall → K0 marks locally + sends RevokeReq.
    let rtag = c.syscall_async(VpeId(0), Syscall::Revoke { sel, own: true });
    c.pump_n(1);
    // VPE1 (same group as VPE0) now tries to obtain the marked cap.
    let otag = c.syscall_async(
        VpeId(1),
        Syscall::Exchange {
            other: VpeId(0),
            own_sel: CapSel::INVALID,
            other_sel: sel,
            kind: ExchangeKind::Obtain,
        },
    );
    c.pump_all();
    assert_eq!(
        c.take_reply(VpeId(1), otag).unwrap().result.unwrap_err().code(),
        Code::RevokeInProgress
    );
    assert!(c.take_reply(VpeId(0), rtag).unwrap().result.is_ok());
    assert!(c.kernels[0].stats().pointless_denied >= 1);
    c.check_invariants();
}

#[test]
fn concurrent_overlapping_revokes_both_complete() {
    // Table 2 "Incomplete": revoke(A) and revoke(B) with B inside A's
    // subtree, racing across kernels. Both must be acknowledged only
    // when their subtrees are fully gone.
    let mut c = TestCluster::new(3, 1);
    // Chain A(VPE0@K0) → B(VPE1@K1) → C(VPE2@K2).
    let a = create_mem(&mut c, VpeId(0));
    let b = delegate(&mut c, VpeId(0), VpeId(1), a);
    let _cc = delegate(&mut c, VpeId(1), VpeId(2), b);
    let before = c.total_caps();
    // Fire both revokes without pumping in between.
    let ta = c.syscall_async(VpeId(0), Syscall::Revoke { sel: a, own: true });
    let tb = c.syscall_async(VpeId(1), Syscall::Revoke { sel: b, own: true });
    c.pump_all();
    assert!(c.take_reply(VpeId(0), ta).unwrap().result.is_ok());
    assert!(c.take_reply(VpeId(1), tb).unwrap().result.is_ok());
    assert_eq!(c.total_caps(), before - 3);
    c.check_invariants();
    // No pending operations may survive.
    for k in &c.kernels {
        assert_eq!(k.pending_ops(), 0);
    }
}

#[test]
fn concurrent_revokes_other_order() {
    // Same as above but the inner revoke is fired first.
    let mut c = TestCluster::new(3, 1);
    let a = create_mem(&mut c, VpeId(0));
    let b = delegate(&mut c, VpeId(0), VpeId(1), a);
    let _cc = delegate(&mut c, VpeId(1), VpeId(2), b);
    let before = c.total_caps();
    let tb = c.syscall_async(VpeId(1), Syscall::Revoke { sel: b, own: true });
    let ta = c.syscall_async(VpeId(0), Syscall::Revoke { sel: a, own: true });
    c.pump_all();
    assert!(c.take_reply(VpeId(1), tb).unwrap().result.is_ok());
    assert!(c.take_reply(VpeId(0), ta).unwrap().result.is_ok());
    assert_eq!(c.total_caps(), before - 3);
    c.check_invariants();
}

#[test]
fn double_revoke_same_cap() {
    // Two VPEs of different groups revoke overlapping subtrees rooted at
    // the same exchange simultaneously; the second must wait, not error.
    let mut c = TestCluster::new(2, 1);
    let a = create_mem(&mut c, VpeId(0));
    let b = delegate(&mut c, VpeId(0), VpeId(1), a);
    let ta = c.syscall_async(VpeId(0), Syscall::Revoke { sel: a, own: true });
    let tb = c.syscall_async(VpeId(1), Syscall::Revoke { sel: b, own: true });
    c.pump_all();
    assert!(c.take_reply(VpeId(0), ta).unwrap().result.is_ok());
    assert!(c.take_reply(VpeId(1), tb).unwrap().result.is_ok());
    assert_eq!(c.total_caps(), 2); // only the two self-caps remain
    c.check_invariants();
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
/// subtree is a chain of four copies alternating between B (VPE 3) and
/// A (VPE 1), so its revocation outlasts the rest of a revoke of `r1`.
fn nested_through_b(c: &mut TestCluster, via_ancestor: bool) -> Nested {
    let r1 = create_mem(c, VpeId(0));
    let b1 = delegate(c, VpeId(0), VpeId(2), r1);
    let (a2, r2) = if via_ancestor {
        let a2 = delegate(c, VpeId(2), VpeId(1), b1);
        (Some(a2), delegate(c, VpeId(1), VpeId(0), a2))
    } else {
        (None, delegate(c, VpeId(2), VpeId(0), b1))
    };
    let mut tail = (VpeId(0), r2);
    for to in [3, 1, 3, 1].map(VpeId) {
        tail = (to, delegate(c, tail.0, to, tail.1));
    }
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

/// A revoke of `r1` (VPE 0, kernel A) and a revoke of `mid` inside its
/// subtree — `b1` at kernel B, `a2` back at A, or `r2` — issued at every
/// point of the first one's run, both complete, and each is acknowledged
/// only once its whole subtree is gone on every kernel. Issued early,
/// the revoke of `mid` marks it before `r1`'s request reaches it, and
/// the revocation that request starts waits for it: at its root, or —
/// for `r2` under `a2` — below it. Issued late, it finds `mid` marked
/// and waits for that revocation.
#[test]
fn a_revoke_inside_a_spanning_revoke_acknowledges_nothing_early() {
    let mids = [
        (false, VpeId(2)),
        (false, VpeId(0)),
        (true, VpeId(2)),
        (true, VpeId(1)),
        (true, VpeId(0)),
    ];
    for (via_ancestor, mid_vpe) in mids {
        for delay in 0..16 {
            let case = format!("via_ancestor={via_ancestor} mid={mid_vpe} delay={delay}");
            let mut c = TestCluster::new(2, 2);
            let n = nested_through_b(&mut c, via_ancestor);
            let mid = match mid_vpe {
                VpeId(0) => n.r2,
                VpeId(1) => n.a2.unwrap(),
                _ => n.b1,
            };
            let calls = [(VpeId(0), n.r1), (mid_vpe, mid)];
            let below = calls.map(|(vpe, sel)| subtree(&c, key_of(&c, vpe, sel)));
            let outer = c.syscall_async(VpeId(0), Syscall::Revoke { sel: n.r1, own: true });
            c.pump_n(delay);
            let inner = c.syscall_async(mid_vpe, Syscall::Revoke { sel: mid, own: true });
            let tags = [outer, inner];
            let mut answered = [false; 2];
            while c.step() {
                for i in 0..2 {
                    let Some(r) = c.take_reply(calls[i].0, tags[i]) else { continue };
                    assert!(!answered[i], "{case}: two answers to call {i}");
                    answered[i] = true;
                    assert!(i == 1 || r.result.is_ok(), "{case}: {r:?}");
                    if r.result.is_ok() {
                        let left: Vec<_> = below[i].iter().filter(|k| alive(&c, **k)).collect();
                        assert!(left.is_empty(), "{case}: call {i} acknowledged with {left:?}");
                    }
                }
            }
            assert_eq!(answered, [true; 2], "{case}: a revoke never completed");
            c.check_invariants();
            c.assert_quiescent();
            assert_eq!(c.total_caps(), 4, "{case}: only the self-capabilities remain");
            let table = c.kernels[0].table(VpeId(0)).unwrap();
            assert!(table.get(n.r1).is_err() && table.get(n.r2).is_err(), "{case}");
        }
    }
}

/// A revoke request for a capability that another revocation marked
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
    c.pump_n(2); // A marks `k` and asks B; B deletes the child and answers
    assert_eq!(c.kernels[0].pending_ops(), 1, "the revoke of `k` parks at A");

    // B asks A to revoke `k`, which the running revoke marked.
    let req = Kcall::RevokeReq { op: OpId(1), cap_key: k_key };
    let msg = Msg::new(c.kernels[1].pe(), c.kernels[0].pe(), Payload::kcall(req));
    let mut out = Outbox::new();
    c.kernels[0].handle(&msg, &mut out);
    assert!(out.is_empty(), "answered before `k` was deleted: {:?}", out.drain());
    assert_eq!(c.kernels[0].pending_ops(), 2, "the request waits for `k`");

    // B's answer to A's request (op 3: the delegate took ops 1 and 2),
    // handed to A directly, deletes `k`: the revoke of `k` is answered,
    // and so is the waiting request. Its answer goes to B for an op B
    // never sent, so it is read here and not delivered; the copy of B's
    // answer still queued is never delivered either.
    let done = KReply::Revoke { op: OpId(3), keys: 1, deleted: 1 };
    let msg = Msg::new(c.kernels[1].pe(), c.kernels[0].pe(), Payload::kreply(done));
    c.kernels[0].handle(&msg, &mut out);
    let sent: Vec<Msg> = out.drain().into_iter().map(|(m, _)| m).collect();
    let to_vpe1 = Payload::sys_reply(tk, Ok(SysReplyData::None));
    let waiter = KReply::Revoke { op: OpId(1), keys: 1, deleted: 0 };
    assert_eq!(
        sent,
        [
            Msg::new(c.kernels[0].pe(), c.pe_of(VpeId(1)), to_vpe1),
            Msg::new(c.kernels[0].pe(), c.kernels[1].pe(), Payload::kreply(waiter)),
        ]
    );
    c.check_invariants();
    for k in &c.kernels {
        k.check_quiescent().unwrap();
    }
    assert_eq!(c.total_caps(), 4);
}

// ----- sessions ----------------------------------------------------------

#[test]
fn local_session_open() {
    let mut c = TestCluster::new(1, 2);
    let r = c.syscall(VpeId(0), Syscall::CreateSrv { name: 42 });
    assert!(r.result.is_ok());
    let r = c.syscall(VpeId(1), Syscall::OpenSession { name: 42 });
    match r.result {
        Ok(SysReplyData::Session { ident, .. }) => assert!(ident > 0),
        other => panic!("open session failed: {other:?}"),
    }
    c.check_invariants();
    assert_eq!(c.kernels[0].stats().sessions_opened, 1);
}

#[test]
fn remote_session_open_links_under_service_cap() {
    let mut c = TestCluster::new(2, 1);
    // Service on VPE0 (group 0), client VPE1 (group 1).
    let r = c.syscall(VpeId(0), Syscall::CreateSrv { name: 7 });
    let Ok(SysReplyData::Sel(srv_sel)) = r.result else { panic!() };
    let r = c.syscall(VpeId(1), Syscall::OpenSession { name: 7 });
    assert!(matches!(r.result, Ok(SysReplyData::Session { .. })), "{:?}", r.result);
    c.check_invariants();
    // The session capability (owned by K1) is a child of the service
    // capability (owned by K0) — the cross-kernel relation of §3.4.
    let k0 = &c.kernels[0];
    let srv_key = k0.table(VpeId(0)).unwrap().get(srv_sel).unwrap();
    assert_eq!(k0.mapdb().get(srv_key).unwrap().child_count(), 1);
}

#[test]
fn revoking_service_cap_kills_remote_sessions() {
    let mut c = TestCluster::new(2, 1);
    let r = c.syscall(VpeId(0), Syscall::CreateSrv { name: 7 });
    let Ok(SysReplyData::Sel(srv_sel)) = r.result else { panic!() };
    let r = c.syscall(VpeId(1), Syscall::OpenSession { name: 7 });
    let Ok(SysReplyData::Session { sel: sess_sel, .. }) = r.result else { panic!() };
    revoke(&mut c, VpeId(0), srv_sel);
    c.check_invariants();
    assert!(c.kernels[1].table(VpeId(1)).unwrap().get(sess_sel).is_err());
}

#[test]
fn open_session_unknown_service_fails() {
    let mut c = TestCluster::new(1, 1);
    let r = c.syscall(VpeId(0), Syscall::OpenSession { name: 999 });
    assert_eq!(r.result.unwrap_err().code(), Code::NoSuchService);
}

/// A session request naming a client VPE no kernel knows is refused at
/// the service's kernel: the service is not asked to open a session
/// whose replies would go nowhere, and nothing is parked.
#[test]
fn open_session_request_for_an_unknown_client_is_refused() {
    let mut c = TestCluster::new(2, 1);
    let r = c.syscall(VpeId(0), Syscall::CreateSrv { name: 7 });
    assert!(matches!(r.result, Ok(SysReplyData::Sel(_))), "{r:?}");
    let service = c.kernels[0].registry().iter().next().expect("the service is registered").id;
    let child_key = DdlKey::new(c.pe_of(VpeId(1)), VpeId(1), CapType::Session, 1);
    let req = Kcall::OpenSessReq { op: OpId(5), child_key, service, client_vpe: VpeId(u16::MAX) };
    let msg = Msg::new(c.kernels[1].pe(), c.kernels[0].pe(), Payload::kcall(req));
    let mut out = Outbox::new();
    c.kernels[0].handle(&msg, &mut out);
    match &out.drain()[..] {
        [(Msg { dst, payload: Payload::KReply(reply), .. }, _)] => {
            assert_eq!(*dst, c.kernels[1].pe());
            let KReply::OpenSess { op: OpId(5), result: Err(e) } = reply else {
                panic!("expected a refused OpenSess reply, got {reply:?}");
            };
            assert_eq!(e.code(), Code::NoSuchVpe);
        }
        other => panic!("expected exactly one kernel reply, got {other:?}"),
    }
    assert_eq!(c.kernels[0].pending_ops(), 0);
    c.check_invariants();
}

/// A kernel numbers its services `(kernel << 8) | count`, so it has 256
/// ids. The 257th `CreateSrv` is refused before anything is created or
/// announced: were it numbered, kernel 0's id 256 would be kernel 1's
/// first service, overwritten in every registry.
#[test]
fn a_kernels_257th_service_is_refused() {
    let mut c = TestCluster::new(2, 1);
    let r = c.syscall(VpeId(1), Syscall::CreateSrv { name: 1 });
    assert!(matches!(r.result, Ok(SysReplyData::Sel(_))), "{r:?}");
    for name in 0..256 {
        let r = c.syscall(VpeId(0), Syscall::CreateSrv { name: 1000 + name });
        assert!(matches!(r.result, Ok(SysReplyData::Sel(_))), "{r:?}");
    }
    let caps = c.total_caps();
    let r = c.syscall(VpeId(0), Syscall::CreateSrv { name: 2000 });
    assert_eq!(r.result.unwrap_err().code(), Code::NoSpace);
    assert_eq!(c.total_caps(), caps, "the refused call created a capability");
    for k in &c.kernels {
        assert_eq!(k.registry().len(), 257);
        let first = k.registry().get(ServiceId(1 << 8)).expect("kernel 1's first service");
        assert_eq!((first.owner, first.name), (KernelId(1), 1));
    }
    c.check_invariants();
}

// A service is a VPE like any other: it can revoke its service
// capability, or die, while a client's open waits for its answer. The
// check made when the open *arrived* is stale by then; the accept paths
// re-validate, as `obtain_owner_accept` does.

/// A service on VPE 0 and an open from `client`, pumped `steps`
/// messages in: 3 leave a remote open's answer queued (2 a local
/// open's), one fewer leaves the upcall itself queued. Returns the
/// service capability's selector and the open's tag.
fn open_in_flight(c: &mut TestCluster, client: VpeId, steps: usize) -> (CapSel, u64) {
    let r = c.syscall(VpeId(0), Syscall::CreateSrv { name: 7 });
    let Ok(SysReplyData::Sel(srv_sel)) = r.result else { panic!("{r:?}") };
    let tag = c.syscall_async(client, Syscall::OpenSession { name: 7 });
    c.pump_n(steps);
    (srv_sel, tag)
}

/// The service (VPE 0) revokes `sel` ahead of everything queued; the
/// cluster then drains.
fn revoke_ahead_of_queue(c: &mut TestCluster, sel: CapSel) {
    let tag = c.syscall_front(VpeId(0), Syscall::Revoke { sel, own: true });
    c.pump_all();
    assert!(c.take_reply(VpeId(0), tag).expect("revoke answered").result.is_ok());
}

fn assert_open_refused(c: &mut TestCluster, client: VpeId, tag: u64, code: Code) {
    let r = c.take_reply(client, tag).expect("the client must be answered");
    assert_eq!(r.result.unwrap_err().code(), code);
    c.check_invariants();
    c.assert_quiescent();
}

#[test]
fn remote_open_answered_after_service_cap_revoked_is_refused() {
    let mut c = TestCluster::new(2, 1);
    let (srv_sel, tag) = open_in_flight(&mut c, VpeId(1), 3);
    revoke_ahead_of_queue(&mut c, srv_sel);
    assert_open_refused(&mut c, VpeId(1), tag, Code::NoSuchService);
    assert_eq!(c.total_caps(), 2, "only the two self-capabilities may survive");
}

#[test]
fn local_open_answered_after_service_cap_revoked_is_refused() {
    let mut c = TestCluster::new(1, 2);
    let (srv_sel, tag) = open_in_flight(&mut c, VpeId(1), 2);
    revoke_ahead_of_queue(&mut c, srv_sel);
    assert_open_refused(&mut c, VpeId(1), tag, Code::NoSuchService);
    assert_eq!(c.total_caps(), 2, "only the two self-capabilities may survive");
}

/// A service on VPE 0 with a session open at `client`, a VPE of another
/// group: a revoke of the service capability parks on the client's
/// kernel. Returns the service capability's selector.
fn service_with_a_remote_session(c: &mut TestCluster, client: VpeId) -> CapSel {
    let r = c.syscall(VpeId(0), Syscall::CreateSrv { name: 7 });
    let Ok(SysReplyData::Sel(srv_sel)) = r.result else { panic!("{r:?}") };
    assert!(c.syscall(client, Syscall::OpenSession { name: 7 }).result.is_ok());
    srv_sel
}

/// On three kernels of one VPE each, VPE 2's open of a service with a
/// session at VPE 1, answered while the service capability is marked;
/// returns the open's tag.
fn open_answered_during_revoke(c: &mut TestCluster) -> u64 {
    let srv_sel = service_with_a_remote_session(c, VpeId(1));
    let tag = c.syscall_async(VpeId(2), Syscall::OpenSession { name: 7 });
    c.pump_n(3); // the service's answer is queued
    revoke_ahead_of_queue(c, srv_sel);
    tag
}

/// Table 2's *invalid* capability, for sessions: the service capability
/// already has a remote session, so its revoke parks on kernel 1 — and
/// the answer to a second open arrives while it is marked. Linking the
/// new session under it would leave kernel 2 a capability whose parent
/// the finishing revoke deletes.
#[test]
fn open_answered_during_service_cap_revoke_leaves_no_invalid_cap() {
    let mut c = TestCluster::new(3, 1);
    let tag = open_answered_during_revoke(&mut c);
    assert_open_refused(&mut c, VpeId(2), tag, Code::RevokeInProgress);
    assert_eq!(c.kernels[0].stats().pointless_denied, 1);
    for cap in c.kernels.iter().flat_map(|k| k.mapdb().iter()) {
        let Some(parent) = cap.parent else { continue };
        assert!(
            c.kernels.iter().any(|k| k.mapdb().contains(parent)),
            "{:?} survives under a parent that exists on no kernel",
            cap.key
        );
    }
    assert_eq!(c.total_caps(), 3, "only the three self-capabilities may survive");
}

/// VPE 1's open of VPE 0's service after VPE 0 died, on `kernels`
/// kernels of `vpes` VPEs each: refused at once, nothing left parked.
fn open_to_a_dead_service_is_refused(kernels: u16, vpes: u16) {
    let mut c = TestCluster::new(kernels, vpes);
    let r = c.syscall(VpeId(0), Syscall::CreateSrv { name: 7 });
    assert!(matches!(r.result, Ok(SysReplyData::Sel(_))), "{r:?}");
    c.kill(VpeId(0));
    c.pump_all();
    let tag = c.syscall_async(VpeId(1), Syscall::OpenSession { name: 7 });
    c.pump_all();
    assert_open_refused(&mut c, VpeId(1), tag, Code::NoSuchService);
}

/// The client's kernel never picks a dead instance of its own group
/// (`Registry::pick` skips it), so with no other instance the open is
/// `NoSuchService` at once: no upcall goes to a VPE that will never
/// answer it.
#[test]
fn local_open_to_a_dead_service_is_no_such_service() {
    open_to_a_dead_service_is_refused(1, 2);
}

#[test]
fn spanning_open_to_a_dead_service_is_no_such_service() {
    open_to_a_dead_service_is_refused(2, 1);
}

/// A dead instance in the client's own group does not shadow a live
/// one elsewhere: VPE 1's open of a name whose group-0 instance died
/// goes to VPE 2's instance in group 1, a spanning session.
#[test]
fn an_open_skips_a_dead_instance_of_its_own_group() {
    let mut c = TestCluster::new(2, 2);
    for vpe in [VpeId(0), VpeId(2)] {
        let r = c.syscall(vpe, Syscall::CreateSrv { name: 7 });
        assert!(matches!(r.result, Ok(SysReplyData::Sel(_))), "{r:?}");
    }
    c.kill(VpeId(0));
    c.pump_all();
    let r = c.syscall(VpeId(1), Syscall::OpenSession { name: 7 });
    assert!(
        matches!(r.result, Ok(SysReplyData::Session { srv_pe, .. }) if srv_pe == c.pe_of(VpeId(2))),
        "{r:?}"
    );
    assert_eq!(c.kernels[0].stats().exchanges_spanning, 1, "the session spans the groups");
    c.check_invariants();
}

#[test]
fn spanning_open_after_the_service_cap_is_gone_is_no_such_service() {
    let mut c = TestCluster::new(2, 1);
    let r = c.syscall(VpeId(0), Syscall::CreateSrv { name: 7 });
    let Ok(SysReplyData::Sel(srv_sel)) = r.result else { panic!("{r:?}") };
    revoke(&mut c, VpeId(0), srv_sel);
    // Kernel 1 still knows the service; its kernel has no capability
    // for it any more.
    let tag = c.syscall_async(VpeId(1), Syscall::OpenSession { name: 7 });
    c.pump_all();
    assert_open_refused(&mut c, VpeId(1), tag, Code::NoSuchService);
    assert!(c.kernels.iter().all(|k| k.stats().pointless_denied == 0));
}

// ----- one admission check ------------------------------------------------

/// One site where an operation meets a capability under revocation —
/// Table 2's *pointless* case: the cluster it runs on, and the driver
/// that builds the marked capability and issues the call the refusal
/// answers (returning that call's VPE and tag).
struct Refusal {
    site: &'static str,
    kernels: u16,
    vpes: u16,
    drive: fn(&mut TestCluster) -> (VpeId, u64),
    /// The kernel that refuses, and the only one that counts it.
    refuser: usize,
}

/// `owner`'s revoke of `sel`, delivered ahead of everything queued and
/// stopped after the mark: `sel` stays marked until the kernels of its
/// remote children answer the revoke requests now queued.
fn mark_now(c: &mut TestCluster, owner: VpeId, sel: CapSel) {
    c.syscall_front(owner, Syscall::Revoke { sel, own: true });
    c.pump_n(1);
}

/// `owner`'s new memory capability with a child at `child`, a VPE of
/// another group, marked by `mark_now`.
fn marked_mem(c: &mut TestCluster, owner: VpeId, child: VpeId) -> CapSel {
    let sel = create_mem(c, owner);
    let _ = delegate(c, owner, child, sel);
    mark_now(c, owner, sel);
    sel
}

fn exchange(other: VpeId, sel: CapSel, kind: ExchangeKind) -> Syscall {
    match kind {
        ExchangeKind::Obtain => {
            Syscall::Exchange { other, own_sel: CapSel::INVALID, other_sel: sel, kind }
        }
        ExchangeKind::Delegate => {
            Syscall::Exchange { other, own_sel: sel, other_sel: CapSel::INVALID, kind }
        }
    }
}

/// On two kernels of two VPEs each, VPEs 0 and 1 are kernel 0's, VPEs
/// 2 and 3 kernel 1's; on three kernels of one, VPE `k` is kernel `k`'s.
/// A site refusing at the start has the VPE it would ask deny: were the
/// start let through, the answer would be `ExchangeDenied`.
const REFUSALS: &[Refusal] = &[
    Refusal {
        site: "Activate",
        kernels: 2,
        vpes: 2,
        drive: |c| {
            let sel = marked_mem(c, VpeId(0), VpeId(2));
            let ep = semper_base::EpId(2);
            (VpeId(0), c.syscall_async(VpeId(0), Syscall::Activate { sel, ep }))
        },
        refuser: 0,
    },
    Refusal {
        site: "DeriveMem",
        kernels: 2,
        vpes: 2,
        drive: |c| {
            let sel = marked_mem(c, VpeId(0), VpeId(2));
            let call = Syscall::DeriveMem { src: sel, offset: 0, size: 64, perms: Perms::R };
            (VpeId(0), c.syscall_async(VpeId(0), call))
        },
        refuser: 0,
    },
    Refusal {
        site: "local obtain, at the start",
        kernels: 2,
        vpes: 2,
        drive: |c| {
            let sel = marked_mem(c, VpeId(0), VpeId(2));
            c.deny_exchanges(VpeId(0));
            (VpeId(1), obtain_async(c, VpeId(1), VpeId(0), sel))
        },
        refuser: 0,
    },
    Refusal {
        site: "local obtain, at the consent",
        kernels: 2,
        vpes: 2,
        drive: |c| {
            let sel = create_mem(c, VpeId(0));
            let _ = delegate(c, VpeId(0), VpeId(2), sel);
            let tag = obtain_async(c, VpeId(1), VpeId(0), sel);
            c.pump_n(1); // the consent upcall to VPE 0 is queued
            mark_now(c, VpeId(0), sel);
            (VpeId(1), tag)
        },
        refuser: 0,
    },
    Refusal {
        site: "local delegate",
        kernels: 2,
        vpes: 2,
        drive: |c| {
            let sel = marked_mem(c, VpeId(0), VpeId(2));
            c.deny_exchanges(VpeId(1));
            let call = exchange(VpeId(1), sel, ExchangeKind::Delegate);
            (VpeId(0), c.syscall_async(VpeId(0), call))
        },
        refuser: 0,
    },
    Refusal {
        site: "spanning obtain, at the request",
        kernels: 2,
        vpes: 2,
        drive: |c| {
            let sel = marked_mem(c, VpeId(2), VpeId(1));
            c.deny_exchanges(VpeId(2));
            // Ahead of the revoke request, so the obtain request reaches
            // kernel 1 before the revoke's reply does.
            let call = exchange(VpeId(2), sel, ExchangeKind::Obtain);
            (VpeId(0), c.syscall_front(VpeId(0), call))
        },
        refuser: 1,
    },
    Refusal {
        site: "spanning obtain, at the owner's consent",
        kernels: 2,
        vpes: 2,
        drive: |c| {
            let sel = create_mem(c, VpeId(2));
            let _ = delegate(c, VpeId(2), VpeId(1), sel);
            let tag = obtain_async(c, VpeId(0), VpeId(2), sel);
            c.pump_n(2); // the consent upcall to VPE 2 is queued
            mark_now(c, VpeId(2), sel);
            (VpeId(0), tag)
        },
        refuser: 1,
    },
    Refusal {
        site: "spanning delegate, at the first leg's reply",
        kernels: 2,
        vpes: 2,
        drive: |c| {
            let sel = create_mem(c, VpeId(0));
            let _ = delegate(c, VpeId(0), VpeId(3), sel);
            let call = exchange(VpeId(2), sel, ExchangeKind::Delegate);
            let tag = c.syscall_async(VpeId(0), call);
            c.pump_n(4); // kernel 1's first-leg reply is queued
            mark_now(c, VpeId(0), sel);
            (VpeId(0), tag)
        },
        refuser: 0,
    },
    Refusal {
        site: "spanning OpenSession, at the request",
        kernels: 3,
        vpes: 1,
        drive: |c| {
            let srv_sel = service_with_a_remote_session(c, VpeId(1));
            mark_now(c, VpeId(0), srv_sel);
            (VpeId(2), c.syscall_front(VpeId(2), Syscall::OpenSession { name: 7 }))
        },
        refuser: 0,
    },
    Refusal {
        site: "spanning OpenSession, at the service's answer",
        kernels: 3,
        vpes: 1,
        drive: |c| (VpeId(2), open_answered_during_revoke(c)),
        refuser: 0,
    },
    Refusal {
        site: "local OpenSession, at the request",
        kernels: 2,
        vpes: 2,
        drive: |c| {
            let srv_sel = service_with_a_remote_session(c, VpeId(2));
            mark_now(c, VpeId(0), srv_sel);
            (VpeId(1), c.syscall_front(VpeId(1), Syscall::OpenSession { name: 7 }))
        },
        refuser: 0,
    },
    Refusal {
        site: "local OpenSession, at the service's answer",
        kernels: 2,
        vpes: 2,
        drive: |c| {
            let srv_sel = service_with_a_remote_session(c, VpeId(2));
            let tag = c.syscall_async(VpeId(1), Syscall::OpenSession { name: 7 });
            c.pump_n(1); // the session-open upcall to VPE 0 is queued
            mark_now(c, VpeId(0), srv_sel);
            (VpeId(1), tag)
        },
        refuser: 0,
    },
];

/// Every site that refuses an operation on a marked capability answers
/// `RevokeInProgress` and counts it exactly once, at the kernel that
/// refused: `Kernel::usable` is the one place that does both.
#[test]
fn every_pointless_refusal_counts_once_at_the_refusing_kernel() {
    for case in REFUSALS {
        let mut c = TestCluster::new(case.kernels, case.vpes);
        let (vpe, tag) = (case.drive)(&mut c);
        c.pump_all();
        let r = c.take_reply(vpe, tag).unwrap_or_else(|| panic!("{}: no reply", case.site));
        let code = r.result.map(|_| ()).map_err(|e| e.code());
        assert_eq!(code, Err(Code::RevokeInProgress), "{}", case.site);
        let counts: Vec<u64> = c.kernels.iter().map(|k| k.stats().pointless_denied).collect();
        let mut want = vec![0; counts.len()];
        want[case.refuser] = 1;
        assert_eq!(counts, want, "{}: pointless denials per kernel", case.site);
        c.check_invariants();
        c.assert_quiescent();
    }
}

#[test]
fn service_killed_with_its_answer_queued_fails_the_open() {
    let mut c = TestCluster::new(2, 1);
    let (_, tag) = open_in_flight(&mut c, VpeId(1), 3);
    c.kill(VpeId(0));
    c.pump_all();
    assert_open_refused(&mut c, VpeId(1), tag, Code::VpeGone);
}

#[test]
fn service_killed_before_answering_fails_the_open() {
    let mut c = TestCluster::new(2, 1);
    let (_, tag) = open_in_flight(&mut c, VpeId(1), 2);
    c.kill(VpeId(0));
    c.pump_all();
    assert_open_refused(&mut c, VpeId(1), tag, Code::VpeGone);
}

// ----- derive + exit ------------------------------------------------------

#[test]
fn derive_mem_creates_attenuated_child() {
    let mut c = TestCluster::new(1, 1);
    let sel = create_mem(&mut c, VpeId(0));
    let r = c.syscall(
        VpeId(0),
        Syscall::DeriveMem { src: sel, offset: 1024, size: 512, perms: Perms::R },
    );
    assert!(matches!(r.result, Ok(SysReplyData::Sel(_))), "{:?}", r.result);
    // Deriving beyond the parent's range fails.
    let r = c.syscall(
        VpeId(0),
        Syscall::DeriveMem { src: sel, offset: 4000, size: 512, perms: Perms::R },
    );
    assert_eq!(r.result.unwrap_err().code(), Code::InvalidArgs);
    // Widening permissions fails.
    let r2 = c
        .syscall(VpeId(0), Syscall::DeriveMem { src: sel, offset: 0, size: 64, perms: Perms::RWX });
    assert_eq!(r2.result.unwrap_err().code(), Code::NoPerm);
    c.check_invariants();
}

/// A size whose alignment wraps past the top of the address space is
/// refused, and the allocator does not move: the next region is a fresh
/// one, not an alias of the last.
#[test]
fn create_mem_of_a_huge_size_is_refused() {
    let mut c = TestCluster::new(1, 2);
    let mem_addr = |r: SysReply| match r.result {
        Ok(SysReplyData::Mem { addr, .. }) => addr,
        other => panic!("create failed: {other:?}"),
    };
    let first = mem_addr(c.syscall(VpeId(0), Syscall::CreateMem { size: 4096, perms: Perms::RW }));
    let huge = Syscall::CreateMem { size: u64::MAX - 10, perms: Perms::RW };
    assert_eq!(c.syscall(VpeId(0), huge).result.unwrap_err().code(), Code::NoSpace);
    let next = mem_addr(c.syscall(VpeId(1), Syscall::CreateMem { size: 4096, perms: Perms::RW }));
    assert_eq!(next, first + 4096, "the refused create moved the allocator");
    c.check_invariants();
}

#[test]
fn exit_revokes_everything_including_remote() {
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    let recv = delegate(&mut c, VpeId(0), VpeId(1), sel);
    // VPE0 exits: its memory cap and the remote child must disappear.
    c.syscall_async(VpeId(0), Syscall::Exit);
    c.pump_all();
    c.check_invariants();
    assert!(c.kernels[1].table(VpeId(1)).unwrap().get(recv).is_err());
    // Only VPE1's self-cap remains.
    assert_eq!(c.total_caps(), 1);
}

#[test]
fn exchange_with_self_rejected() {
    let mut c = TestCluster::new(1, 1);
    let sel = create_mem(&mut c, VpeId(0));
    let r = c.syscall(
        VpeId(0),
        Syscall::Exchange {
            other: VpeId(0),
            own_sel: sel,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    assert_eq!(r.result.unwrap_err().code(), Code::InvalidArgs);
}

#[test]
fn obtain_nonexistent_selector_fails() {
    let mut c = TestCluster::new(2, 1);
    let r = c.syscall(
        VpeId(1),
        Syscall::Exchange {
            other: VpeId(0),
            own_sel: CapSel::INVALID,
            other_sel: CapSel(12345),
            kind: ExchangeKind::Obtain,
        },
    );
    assert_eq!(r.result.unwrap_err().code(), Code::NoSuchCap);
}

/// A VPE id past every allocated one is `NoSuchVpe`, whichever side
/// of the exchange names it, and changes nothing.
#[test]
fn exchange_with_an_unknown_vpe_is_refused() {
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    let digests = |c: &TestCluster| c.kernels.iter().map(|k| k.state_digest()).collect::<Vec<_>>();
    let before = digests(&c);
    for (own_sel, other_sel, kind) in [
        (sel, CapSel::INVALID, ExchangeKind::Delegate),
        (CapSel::INVALID, sel, ExchangeKind::Obtain),
    ] {
        let call = Syscall::Exchange { other: VpeId(u16::MAX), own_sel, other_sel, kind };
        let r = c.syscall(VpeId(0), call);
        assert_eq!(r.result.unwrap_err().code(), Code::NoSuchVpe, "{kind:?}");
    }
    assert_eq!(digests(&c), before);
    assert!(c.kernels.iter().all(|k| k.pending_ops() == 0));
    c.check_invariants();
}

// ----- batching (ablation) -----------------------------------------------

#[test]
fn batched_revoke_equivalent_to_unbatched() {
    for batching in [false, true] {
        let mut c = TestCluster::new(3, 2);
        if batching {
            for k in &mut c.kernels {
                k.enable_feature_for_test(Feature::RevokeBatching);
            }
        }
        let root = create_mem(&mut c, VpeId(0));
        // Delegate to several VPEs across kernels: children at K1 and K2.
        for v in [2u16, 3, 4, 5] {
            let _ = delegate(&mut c, VpeId(0), VpeId(v), root);
        }
        let before = c.total_caps();
        revoke(&mut c, VpeId(0), root);
        assert_eq!(c.total_caps(), before - 5, "batching={batching}");
        c.check_invariants();
    }
}

#[test]
fn credit_budget_is_respected() {
    // Flood one kernel pair with more requests than M_inflight; the
    // excess must queue, not exceed the budget, and still complete.
    let mut c = TestCluster::new(2, 6);
    // Groups: K0 = VPE0..5, K1 = VPE6..11.
    let mut sels = Vec::new();
    for v in 0..6u16 {
        sels.push((VpeId(v), create_mem(&mut c, VpeId(v))));
    }
    // Queue six spanning delegates at once (> M_inflight = 4).
    let mut tags = Vec::new();
    for (i, (v, sel)) in sels.iter().enumerate() {
        tags.push((
            *v,
            c.syscall_async(
                *v,
                Syscall::Exchange {
                    other: VpeId(6 + i as u16),
                    own_sel: *sel,
                    other_sel: CapSel::INVALID,
                    kind: ExchangeKind::Delegate,
                },
            ),
        ));
    }
    c.pump_all();
    for (v, tag) in tags {
        assert!(c.take_reply(v, tag).unwrap().result.is_ok(), "{v} delegate failed");
    }
    c.check_invariants();
    assert!(c.kernels[0].stats().kcalls_credit_stalled > 0, "expected credit stalls");
}

/// The one message in `out`, which must be a system-call reply: its
/// destination and the reply.
fn sole_sys_reply(out: &mut Outbox) -> (PeId, SysReply) {
    match &out.drain()[..] {
        [(Msg { dst, payload: Payload::SysReply(reply), .. }, _)] => (*dst, reply.clone()),
        other => panic!("expected exactly one syscall reply, got {other:?}"),
    }
}

// ----- DTU endpoint activation (gates) -----------------------------------

#[test]
fn activate_binds_and_revoke_invalidates() {
    use semper_base::EpId;
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    let recv = delegate(&mut c, VpeId(0), VpeId(1), sel);
    // The receiver activates an endpoint for its delegated capability.
    let r = c.syscall(VpeId(1), Syscall::Activate { sel: recv, ep: EpId(3) });
    assert!(r.result.is_ok(), "{:?}", r.result);
    let k1 = c.kernel_of(VpeId(1));
    assert!(c.kernels[k1.idx()].ep_binding(VpeId(1), EpId(3)).is_some());
    // Revoking the root must deconfigure the endpoint: the hardware
    // access path is severed.
    revoke(&mut c, VpeId(0), sel);
    assert!(c.kernels[k1.idx()].ep_binding(VpeId(1), EpId(3)).is_none());
    assert_eq!(c.kernels[k1.idx()].stats().eps_invalidated, 1);
    c.check_invariants();
}

#[test]
fn activate_rejects_bad_arguments() {
    use semper_base::EpId;
    let mut c = TestCluster::new(1, 1);
    let sel = create_mem(&mut c, VpeId(0));
    // Out-of-range endpoint.
    let r = c.syscall(VpeId(0), Syscall::Activate { sel, ep: EpId(200) });
    assert_eq!(r.result.unwrap_err().code(), Code::InvalidArgs);
    // Non-memory capability (the VPE's self capability at selector 0).
    let r = c.syscall(VpeId(0), Syscall::Activate { sel: CapSel(0), ep: EpId(1) });
    assert_eq!(r.result.unwrap_err().code(), Code::InvalidArgs);
    // Unknown selector.
    let r = c.syscall(VpeId(0), Syscall::Activate { sel: CapSel(999), ep: EpId(1) });
    assert_eq!(r.result.unwrap_err().code(), Code::NoSuchCap);
}

#[test]
fn activate_rebinding_replaces_previous() {
    use semper_base::EpId;
    let mut c = TestCluster::new(1, 1);
    let a = create_mem(&mut c, VpeId(0));
    let b = create_mem(&mut c, VpeId(0));
    c.syscall(VpeId(0), Syscall::Activate { sel: a, ep: EpId(5) });
    c.syscall(VpeId(0), Syscall::Activate { sel: b, ep: EpId(5) });
    let k = c.kernel_of(VpeId(0));
    let bound = c.kernels[k.idx()].ep_binding(VpeId(0), EpId(5)).unwrap();
    let key_b = c.kernels[k.idx()].table(VpeId(0)).unwrap().get(b).unwrap();
    assert_eq!(bound, key_b, "rebinding must replace the previous binding");
}

/// Endpoint 5 rebound from capability a to b: revoking a leaves the
/// endpoint on b and invalidates nothing.
#[test]
fn revoking_a_replaced_capability_leaves_the_endpoint() {
    use semper_base::EpId;
    let mut c = TestCluster::new(1, 1);
    let a = create_mem(&mut c, VpeId(0));
    let b = create_mem(&mut c, VpeId(0));
    c.syscall(VpeId(0), Syscall::Activate { sel: a, ep: EpId(5) });
    c.syscall(VpeId(0), Syscall::Activate { sel: b, ep: EpId(5) });
    revoke(&mut c, VpeId(0), a);
    let k = &c.kernels[0];
    let key_b = k.table(VpeId(0)).unwrap().get(b).unwrap();
    assert_eq!(k.ep_binding(VpeId(0), EpId(5)), Some(key_b));
    assert_eq!(k.stats().eps_invalidated, 0);
    c.check_invariants();
}

#[test]
fn activate_denied_during_revocation() {
    use semper_base::EpId;
    // Mark a capability by starting a spanning revoke, then try to
    // activate it: must be denied (pointless prevention extends to
    // endpoint configuration).
    let mut c = TestCluster::new(2, 2);
    let sel = create_mem(&mut c, VpeId(0));
    let _ = delegate(&mut c, VpeId(0), VpeId(2), sel);
    let rt = c.syscall_async(VpeId(0), Syscall::Revoke { sel, own: true });
    c.pump_n(1); // marked locally; remote child still pending
                 // The harness allows probing the kernel-side check directly while
                 // the revoke is still in flight.
    let at = c.syscall_front(VpeId(0), Syscall::Activate { sel, ep: EpId(2) });
    c.pump_all();
    assert_eq!(
        c.take_reply(VpeId(0), at).unwrap().result.unwrap_err().code(),
        Code::RevokeInProgress
    );
    assert!(c.take_reply(VpeId(0), rt).unwrap().result.is_ok());
    c.check_invariants();
}

/// The initiating VPE dies while its spanning revoke is in flight: the
/// revoke must still run to completion (the kill's own teardown revoke
/// waits on the in-progress subtree instead of deadlocking), and no
/// capability of the dead VPE may survive.
#[test]
fn kill_mid_spanning_revoke() {
    // A root at VPE 0 whose children spread over the three peer
    // kernels, with a second-level copy under each child.
    let mut c = TestCluster::new(4, 2);
    let root = create_mem(&mut c, VpeId(0));
    let mut copies = Vec::new();
    for to in [2u16, 4, 6, 3, 5, 7] {
        let s = delegate(&mut c, VpeId(0), VpeId(to), root);
        copies.push((VpeId(to), s));
        let grandchild = VpeId(if to % 2 == 0 { to + 1 } else { to - 1 });
        let g = delegate(&mut c, VpeId(to), grandchild, s);
        copies.push((grandchild, g));
    }
    c.syscall_async(VpeId(0), Syscall::Revoke { sel: root, own: true });
    // A few pumps: the revoke requests are out and the peers have
    // marked, but the fan-in has not drained.
    c.pump_n(3);
    assert!(c.kernels[0].pending_ops() > 0, "the revoke completed before the kill");
    c.kill(VpeId(0));
    c.pump_all();
    c.check_invariants();
    for k in &c.kernels {
        assert_eq!(k.pending_ops(), 0, "kernel {} left suspended ops", k.id());
    }
    if let Some(t) = c.kernels[0].table(VpeId(0)) {
        assert_eq!(t.len(), 0, "dead VPE still holds capabilities");
    }
    for (vpe, sel) in copies {
        let k = c.kernel_of(vpe);
        assert!(
            c.kernels[k.idx()].table(vpe).unwrap().get(sel).is_err(),
            "{vpe} still holds revoked capability {sel}"
        );
    }
}

// ----- who may answer an upcall, and replies that resume nothing ----------

/// Hands kernel 0 — which has exactly one op parked — an upcall answer
/// as if VPE `from` had sent it (the op ids a forger must guess count
/// up from 1 per kernel), and asserts the kernel ignored it: nothing
/// sent, the op still parked.
fn assert_upcall_reply_dropped(c: &mut TestCluster, from: VpeId, reply: UpcallReply) {
    assert_eq!(c.kernels[0].pending_ops(), 1);
    let msg = Msg::new(c.pe_of(from), c.kernels[0].pe(), Payload::upcall_reply(reply.clone()));
    let mut out = Outbox::new();
    c.kernels[0].handle(&msg, &mut out);
    assert!(out.is_empty(), "{reply:?} from {from} was acted on: {:?}", out.drain());
    assert_eq!(c.kernels[0].pending_ops(), 1, "{reply:?} from {from} unparked the op");
}

/// A spanning obtain parked at the owner's kernel awaits *the owner's*
/// consent: VPE 1 answering `accept` under the op id must not hand
/// VPE 0's memory to VPE 2.
#[test]
fn spanning_consent_from_unasked_pe_is_dropped() {
    let mut c = TestCluster::new(2, 2);
    let sel = create_mem(&mut c, VpeId(0));
    c.deny_exchanges(VpeId(0));
    let tag = obtain_async(&mut c, VpeId(2), VpeId(0), sel);
    c.pump_n(2); // syscall at kernel 1, ObtainReq at kernel 0: upcall in flight
    let forged = UpcallReply::AcceptExchange { op: OpId(1), accept: true };
    assert_upcall_reply_dropped(&mut c, VpeId(1), forged);

    c.pump_all();
    let r = c.take_reply(VpeId(2), tag).expect("the owner's real answer completes the obtain");
    assert_eq!(r.result.unwrap_err().code(), Code::ExchangeDenied);
    c.check_invariants();
}

/// The group-local twin: the *requester* answers the consent upcall
/// that went to the owner.
#[test]
fn local_consent_from_unasked_pe_is_dropped() {
    let mut c = TestCluster::new(1, 2);
    let sel = create_mem(&mut c, VpeId(0));
    c.deny_exchanges(VpeId(0));
    let tag = obtain_async(&mut c, VpeId(1), VpeId(0), sel);
    c.pump_n(1);
    let forged = UpcallReply::AcceptExchange { op: OpId(1), accept: true };
    assert_upcall_reply_dropped(&mut c, VpeId(1), forged);

    c.pump_all();
    let r = c.take_reply(VpeId(1), tag).expect("the owner's real answer completes the obtain");
    assert_eq!(r.result.unwrap_err().code(), Code::ExchangeDenied);
    c.check_invariants();
}

/// A session opens with the identifier the *service* chose: the client
/// answering its own `SessionOpen` upcall is ignored.
#[test]
fn session_open_from_non_service_pe_is_dropped() {
    let mut c = TestCluster::new(1, 2);
    assert!(c.syscall(VpeId(0), Syscall::CreateSrv { name: 42 }).result.is_ok());
    let tag = c.syscall_async(VpeId(1), Syscall::OpenSession { name: 42 });
    c.pump_n(1);
    let forged = UpcallReply::SessionOpen { op: OpId(1), result: Ok(0xBAD) };
    assert_upcall_reply_dropped(&mut c, VpeId(1), forged);

    c.pump_all();
    let r = c.take_reply(VpeId(1), tag).expect("the service's real answer opens the session");
    let Ok(SysReplyData::Session { ident, .. }) = r.result else { panic!("{r:?}") };
    assert_ne!(ident, 0xBAD, "the session carries the forger's identifier");
    c.check_invariants();
}

/// An answer of the wrong kind leaves the phase parked even when it
/// comes from the PE that was asked — and does not panic the kernel.
#[test]
fn upcall_reply_of_the_wrong_kind_leaves_the_phase_parked() {
    let mut c = TestCluster::new(1, 2);
    let sel = create_mem(&mut c, VpeId(0));
    let tag = obtain_async(&mut c, VpeId(1), VpeId(0), sel);
    c.pump_n(1);
    let wrong = UpcallReply::SessionOpen { op: OpId(1), result: Ok(7) };
    assert_upcall_reply_dropped(&mut c, VpeId(0), wrong);

    c.pump_all();
    let r = c.take_reply(VpeId(1), tag).expect("the real consent completes the obtain");
    assert!(matches!(r.result, Ok(SysReplyData::Sel(_))), "{r:?}");
    c.check_invariants();
}

/// A failed-obtain reply under `op`, as `src` would send it to
/// kernel 0.
fn obtain_reply(c: &TestCluster, src: PeId, op: OpId) -> Msg {
    let reply = KReply::Obtain { op, result: Err(Error::new(Code::NoSuchCap)) };
    Msg::new(src, c.kernels[0].pe(), Payload::kreply(reply))
}

/// A reply that resumes nothing, as kernel 1 would send it.
fn stray_obtain_reply(c: &TestCluster) -> Msg {
    obtain_reply(c, c.kernels[1].pe(), OpId(99))
}

/// Runs `body` on a `kernels` × 1 cluster twice — without a fault
/// plan, and with one that arms deadlines — and asserts that both runs
/// panic with a message containing `expected`. Every request gets
/// exactly one reply, crash or no crash, so what is a kernel bug
/// without a plan is one with a plan too.
fn panics_with_and_without_a_fault_plan(
    kernels: u16,
    expected: &str,
    body: impl Fn(&mut TestCluster),
) {
    for planned in [false, true] {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut c = TestCluster::new(kernels, 1);
            if planned {
                c.set_fault_plan(FaultPlan::empty(), 64);
            }
            body(&mut c);
        }));
        let payload = run.expect_err("the kernel did not panic");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains(expected), "fault plan {planned}: panicked with {msg:?}");
    }
}

/// Every request produces exactly one reply, so a reply that resumes
/// nothing is a kernel bug — in release builds as much as in debug
/// builds.
#[test]
fn stray_kreply_panics() {
    panics_with_and_without_a_fault_plan(2, "without a pending op", |c| {
        let msg = stray_obtain_reply(c);
        c.kernels[0].handle(&msg, &mut Outbox::new());
    });
}

// ----- who may speak as a kernel, and which kernel may answer -------------

/// The membership table maps a VPE's PE to its group's kernel, but only
/// the kernel's own PE speaks for it: a `RevokeReq` a group-1 VPE
/// addresses to kernel 0 deletes nothing and is not answered.
#[test]
fn forged_revoke_request_from_a_vpe_pe_is_dropped() {
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    let cap_key = c.kernels[0].table(VpeId(0)).unwrap().get(sel).unwrap();
    let caps = c.kernels[0].mapdb().len();
    let forged = Kcall::RevokeReq { op: OpId(1), cap_key };
    let msg = Msg::new(c.pe_of(VpeId(1)), c.kernels[0].pe(), Payload::kcall(forged));
    let mut out = Outbox::new();
    assert_eq!(c.kernels[0].handle(&msg, &mut out), 0, "a dropped forgery costs nothing");
    assert!(out.is_empty(), "the forged request was answered: {:?}", out.drain());
    assert_eq!(c.kernels[0].mapdb().len(), caps, "the forged request deleted a capability");
    assert!(c.kernels[0].table(VpeId(0)).unwrap().get(sel).is_ok());
    c.check_invariants();
}

/// Starts a spanning obtain by VPE 0 (kernel 0) from the first VPE of
/// group 1 and stops with `obtain-remote` parked at kernel 0 under
/// op 1, the `ObtainReq` still queued. Returns the obtain's tag.
fn park_obtain_remote(c: &mut TestCluster, owner: VpeId) -> u64 {
    let sel = create_mem(c, owner);
    let tag = obtain_async(c, VpeId(0), owner, sel);
    c.pump_n(1);
    assert_eq!(c.kernels[0].pending_ops(), 1);
    tag
}

/// The reply twin: a VPE of the *owner's* group — the group whose
/// kernel the phase awaits — answers the obtain. Dropped; the owner
/// kernel's real reply still completes the call.
#[test]
fn forged_obtain_reply_from_a_vpe_pe_leaves_the_phase_parked() {
    let mut c = TestCluster::new(2, 2);
    let tag = park_obtain_remote(&mut c, VpeId(2));
    let msg = obtain_reply(&c, c.pe_of(VpeId(3)), OpId(1));
    let mut out = Outbox::new();
    assert_eq!(c.kernels[0].handle(&msg, &mut out), 0, "a dropped forgery costs nothing");
    assert!(out.is_empty(), "the forged reply was acted on: {:?}", out.drain());
    assert_eq!(c.kernels[0].pending_ops(), 1, "the forged reply unparked the obtain");

    c.pump_all();
    let r = c.take_reply(VpeId(0), tag).expect("the owner kernel's reply completes the obtain");
    assert!(matches!(r.result, Ok(SysReplyData::Sel(_))), "{r:?}");
    c.check_invariants();
}

/// Kernels are trusted, membership is static and nothing is relayed, so
/// a reply can only come from the kernel that was asked: kernel 2
/// answering an obtain put to kernel 1 is a kernel bug, in every
/// profile.
#[test]
fn obtain_reply_from_an_unasked_kernel_panics() {
    panics_with_and_without_a_fault_plan(3, "asked Some(", |c| {
        park_obtain_remote(c, VpeId(1));
        let msg = obtain_reply(c, c.kernels[2].pe(), OpId(1));
        c.kernels[0].handle(&msg, &mut Outbox::new());
    });
}

/// An answer of another kind from the kernel a phase awaits is a kernel
/// bug too: the protocol that matches each phase with its answer
/// panics.
#[test]
fn kreply_of_the_wrong_kind_panics() {
    panics_with_and_without_a_fault_plan(2, "cannot resume obtain-remote", |c| {
        park_obtain_remote(c, VpeId(1));
        let reply = KReply::Delegate { op: OpId(1), result: Err(Error::new(Code::NoSuchCap)) };
        let msg = Msg::new(c.kernels[1].pe(), c.kernels[0].pe(), Payload::kreply(reply));
        c.kernels[0].handle(&msg, &mut Outbox::new());
    });
}

/// Starts a spanning delegate VPE 0 (kernel 0) → VPE 1 (kernel 1) and
/// stops with the uninserted capability parked at kernel 1 under op 2
/// (op 1 was the consent upcall), the first-leg reply still queued.
/// Returns the delegate's tag and kernel 2's commit for that insert.
fn park_pending_insert(c: &mut TestCluster) -> (u64, Msg) {
    let sel = create_mem(c, VpeId(0));
    let tag = c.syscall_async(
        VpeId(0),
        Syscall::Exchange {
            other: VpeId(1),
            own_sel: sel,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    c.pump_n(4); // syscall, DelegateReq, consent upcall, its answer
    assert_eq!(c.kernels[1].pending_ops(), 1);
    let ack = Kcall::DelegateAck { op: OpId(2), reply_op: OpId(77), commit: true };
    (tag, Msg::new(c.kernels[2].pe(), c.kernels[1].pe(), Payload::kcall(ack)))
}

/// The second leg of the handshake is a request that resumes a phase:
/// only the delegator's kernel may commit the pending insert.
#[test]
fn delegate_ack_from_an_unasked_kernel_panics() {
    panics_with_and_without_a_fault_plan(3, "asked Some(", |c| {
        let (_, ack) = park_pending_insert(c);
        c.kernels[1].handle(&ack, &mut Outbox::new());
    });
}

/// A revocation counts its legs per kernel: with kernel 0's spanning
/// revoke (op 3; the delegate took ops 1 and 2) parked on kernel 1, a
/// reply from kernel 2 would acknowledge the system call while kernel
/// 1's child is alive — Table 2's *incomplete*.
#[test]
fn revoke_reply_from_an_unasked_kernel_panics() {
    panics_with_and_without_a_fault_plan(3, "no leg outstanding", |c| {
        let sel = create_mem(c, VpeId(0));
        let _ = delegate(c, VpeId(0), VpeId(1), sel);
        c.syscall_async(VpeId(0), Syscall::Revoke { sel, own: true });
        c.pump_n(1);
        assert_eq!(c.kernels[0].pending_ops(), 1, "the revoke parks at kernel 0");
        let reply = KReply::Revoke { op: OpId(3), keys: 1, deleted: 1 };
        let msg = Msg::new(c.kernels[2].pe(), c.kernels[0].pe(), Payload::kreply(reply));
        c.kernels[0].handle(&msg, &mut Outbox::new());
    });
}

// ----- messages a kernel does not serve ----------------------------------

/// A system call from a PE that hosts no VPE of the kernel's group —
/// another group's VPE, the kernel's own PE, or a PE id past the
/// machine — is answered `NoSuchVpe` at the ordinary refusal price:
/// membership is static, so no other kernel will answer in this one's
/// place, and the caller must not block forever.
#[test]
fn syscall_from_outside_the_group_is_refused() {
    let mut c = TestCluster::new(2, 1);
    let cost = semper_base::config::MachineConfig::small().cost;
    let digest = c.kernels[0].state_digest();
    for src in [c.pe_of(VpeId(1)), c.kernels[0].pe(), PeId(u16::MAX)] {
        let msg = Msg::new(src, c.kernels[0].pe(), Payload::sys(7, Syscall::Noop));
        let mut out = Outbox::new();
        let cycles = c.kernels[0].handle(&msg, &mut out);
        assert_eq!(cycles, cost.syscall_entry + cost.syscall_exit);
        let (dst, reply) = sole_sys_reply(&mut out);
        assert_eq!(dst, src);
        assert_eq!(reply.tag, 7);
        assert_eq!(reply.result.unwrap_err().code(), Code::NoSuchVpe);
    }
    assert_eq!(c.kernels[0].state_digest(), digest);
    assert_eq!(c.kernels[0].pending_ops(), 0);
}

/// Payloads meant for other actors (a reply, an upcall, filesystem or
/// HTTP traffic) are dropped unread when a VPE sends them to a kernel —
/// not an assertion a VPE can trip in debug builds.
#[test]
fn non_kernel_payloads_are_dropped_at_zero_cost() {
    let mut c = TestCluster::new(1, 1);
    for payload in [
        Payload::sys_reply(1, Ok(SysReplyData::None)),
        Payload::Http(HttpReq { id: 1, uri: 0 }),
        Payload::fs_reply(1, Err(Error::new(Code::InvalidArgs))),
    ] {
        let msg = Msg::new(c.pe_of(VpeId(0)), c.kernels[0].pe(), payload);
        let mut out = Outbox::new();
        assert_eq!(c.kernels[0].handle(&msg, &mut out), 0);
        assert!(out.is_empty());
    }
    assert_eq!(c.kernels[0].pending_ops(), 0);
    c.check_invariants();
}
