//! Endpoint bindings: the DTU endpoint registers a kernel keeps in each
//! VPE's record.
//!
//! `Activate` writes a register with the key of a memory capability the
//! VPE owns, and a revocation clears every register of the owner that
//! names a deleted capability. These tests drive both through system
//! calls and read the registers back with `Kernel::ep_binding`;
//! `check_invariants` checks that every activated endpoint names a
//! capability its own VPE holds.

use semper_base::msg::{Perms, SysReplyData, Syscall};
use semper_base::{CapSel, DdlKey, EpId, VpeId};
use semper_kernel::harness::TestCluster;

fn create_mem(c: &mut TestCluster) -> CapSel {
    let r = c.syscall(VpeId(0), Syscall::CreateMem { size: 4096, perms: Perms::RW });
    match r.result {
        Ok(SysReplyData::Mem { sel, .. }) => sel,
        other => panic!("create_mem failed: {other:?}"),
    }
}

fn activate(c: &mut TestCluster, sel: CapSel, ep: u8) {
    let r = c.syscall(VpeId(0), Syscall::Activate { sel, ep: EpId(ep) });
    assert!(r.result.is_ok(), "activate failed: {:?}", r.result);
}

fn revoke(c: &mut TestCluster, sel: CapSel) {
    let r = c.syscall(VpeId(0), Syscall::Revoke { sel, own: true });
    assert!(matches!(r.result, Ok(SysReplyData::None)), "revoke failed: {:?}", r.result);
}

fn key(c: &TestCluster, sel: CapSel) -> DdlKey {
    c.kernels[0].table(VpeId(0)).unwrap().get(sel).unwrap()
}

fn binding(c: &TestCluster, ep: u8) -> Option<DdlKey> {
    c.kernels[0].ep_binding(VpeId(0), EpId(ep))
}

#[test]
fn bind_then_get_roundtrips() {
    let mut c = TestCluster::new(1, 1);
    let a = create_mem(&mut c);
    assert_eq!(binding(&c, 2), None);
    activate(&mut c, a, 2);
    assert_eq!(binding(&c, 2), Some(key(&c, a)));
    assert_eq!(binding(&c, 3), None, "never activated");
    c.check_invariants();
}

/// One capability activated on one endpoint twice occupies one register:
/// its revoke clears it and counts one invalidation.
#[test]
fn rebind_same_key_keeps_one_reverse_entry() {
    let mut c = TestCluster::new(1, 1);
    let a = create_mem(&mut c);
    activate(&mut c, a, 2);
    activate(&mut c, a, 2);
    assert_eq!(binding(&c, 2), Some(key(&c, a)));
    c.check_invariants();
    revoke(&mut c, a);
    assert_eq!(binding(&c, 2), None);
    assert_eq!(c.kernels[0].stats().eps_invalidated, 1);
    c.check_invariants();
}

/// One capability activated on two endpoints, the higher one first: its
/// revoke clears both, whatever order they were activated in, and leaves
/// another capability's endpoint alone.
#[test]
fn unbind_key_clears_all_slots_in_activation_order() {
    let mut c = TestCluster::new(1, 1);
    let a = create_mem(&mut c);
    let other = create_mem(&mut c);
    activate(&mut c, a, 5);
    activate(&mut c, a, 0);
    activate(&mut c, other, 6);
    assert_eq!(binding(&c, 5), Some(key(&c, a)));
    assert_eq!(binding(&c, 0), Some(key(&c, a)));
    c.check_invariants();
    revoke(&mut c, a);
    assert_eq!(binding(&c, 5), None);
    assert_eq!(binding(&c, 0), None);
    assert_eq!(binding(&c, 6), Some(key(&c, other)), "another capability's endpoint");
    assert_eq!(c.kernels[0].stats().eps_invalidated, 2);
    c.check_invariants();
}
