//! Table 2: types of interference with overlapping capability-modifying
//! operations.
//!
//! This harness *constructs* each interference case of Table 2 with the
//! untimed protocol cluster, asserts the observed outcome and reports it,
//! confirming that the protocol produces exactly the paper's matrix:
//!
//! | 1st \ 2nd | Obtain     | Delegate   | Revoke/Crash |
//! |-----------|------------|------------|--------------|
//! | Obtain    | serialized | serialized | orphaned     |
//! | Delegate  | serialized | serialized | invalid*     |
//! | Revoke    | pointless  | pointless  | incomplete*  |
//!
//! (* = prevented by the protocol: the two-way delegate handshake and
//! the two-phase revocation.)

use semper_base::msg::{ExchangeKind, Perms, SysReplyData, Syscall};
use semper_base::{CapSel, Code, VpeId};
use semper_bench::banner;
use semper_kernel::harness::TestCluster;

fn create_mem(c: &mut TestCluster, vpe: VpeId) -> CapSel {
    match c.syscall(vpe, Syscall::CreateMem { size: 4096, perms: Perms::RW }).result {
        Ok(SysReplyData::Mem { sel, .. }) => sel,
        other => panic!("create_mem: {other:?}"),
    }
}

fn obtain_call(other: VpeId, sel: CapSel) -> Syscall {
    Syscall::Exchange {
        other,
        own_sel: CapSel::INVALID,
        other_sel: sel,
        kind: ExchangeKind::Obtain,
    }
}

fn main() {
    banner("Table 2: interference between overlapping CMOs", "Table 2");

    // --- Obtain then Obtain: serialized at the owner's kernel. ---
    {
        let mut c = TestCluster::new(3, 1);
        let sel = create_mem(&mut c, VpeId(0));
        let t1 = c.syscall_async(VpeId(1), obtain_call(VpeId(0), sel));
        let t2 = c.syscall_async(VpeId(2), obtain_call(VpeId(0), sel));
        c.pump_all();
        let ok1 = c.take_reply(VpeId(1), t1).unwrap().result.is_ok();
        let ok2 = c.take_reply(VpeId(2), t2).unwrap().result.is_ok();
        c.check_invariants();
        assert!(ok1 && ok2, "obtain || obtain: a serialized obtain failed");
        println!("obtain || obtain    -> serialized (both succeed: {})", ok1 && ok2);
    }

    // --- Obtain then requester crash: orphaned, then cleaned. ---
    {
        let mut c = TestCluster::new(2, 1);
        let sel = create_mem(&mut c, VpeId(0));
        c.syscall_async(VpeId(1), obtain_call(VpeId(0), sel));
        c.pump_n(4); // child linked at owner, reply in flight
        c.kill(VpeId(1));
        c.pump_all();
        let orphans = c.kernels[0].stats().orphans_cleaned;
        c.check_invariants();
        assert_eq!(orphans, 1, "obtain || crash: the orphaned child link was not cleaned");
        println!("obtain || crash     -> orphaned (cleaned: {})", orphans == 1);
    }

    // --- Delegate racing a revoke of the parent: invalid PREVENTED. ---
    {
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
        c.pump_n(4); // receiver-side capability created, not inserted
        let rt = c.syscall_front(VpeId(0), Syscall::Revoke { sel, own: true });
        c.pump_all();
        let revoked = c.take_reply(VpeId(0), rt).unwrap().result.is_ok();
        let leaked = c.kernels[1]
            .mapdb()
            .iter()
            .any(|cap| matches!(cap.kind, semper_base::msg::CapKindDesc::Memory { .. }));
        c.check_invariants();
        assert!(revoked, "delegate || revoke: the revoke was not acknowledged");
        assert!(!leaked, "delegate || revoke: the receiver kept an invalid capability");
        println!(
            "delegate || revoke  -> invalid PREVENTED by two-way handshake \
             (revoke acked: {revoked}, no leaked capability: {})",
            !leaked
        );
    }

    // --- Exchange against a capability under revocation: pointless. ---
    {
        let mut c = TestCluster::new(2, 2);
        let sel = create_mem(&mut c, VpeId(0));
        // Span the tree so the revoke stays in flight.
        let dt = c.syscall_async(
            VpeId(0),
            Syscall::Exchange {
                other: VpeId(2),
                own_sel: sel,
                other_sel: CapSel::INVALID,
                kind: ExchangeKind::Delegate,
            },
        );
        c.pump_all();
        assert!(c.take_reply(VpeId(0), dt).unwrap().result.is_ok());
        let rt = c.syscall_async(VpeId(0), Syscall::Revoke { sel, own: true });
        c.pump_n(1); // marked locally, remote child still pending
        let ot = c.syscall_async(VpeId(1), obtain_call(VpeId(0), sel));
        c.pump_all();
        let denied = c.take_reply(VpeId(1), ot).unwrap().result.unwrap_err().code()
            == Code::RevokeInProgress;
        let done = c.take_reply(VpeId(0), rt).unwrap().result.is_ok();
        c.check_invariants();
        assert!(denied, "revoke || obtain: the pointless obtain was not denied");
        assert!(done, "revoke || obtain: the revoke was not acknowledged");
        println!(
            "revoke || obtain    -> pointless exchange denied immediately: {}",
            denied && done
        );
    }

    // --- Overlapping revokes: incomplete acks PREVENTED. ---
    {
        let mut c = TestCluster::new(3, 1);
        let a = create_mem(&mut c, VpeId(0));
        let db = c.syscall(
            VpeId(0),
            Syscall::Exchange {
                other: VpeId(1),
                own_sel: a,
                other_sel: CapSel::INVALID,
                kind: ExchangeKind::Delegate,
            },
        );
        let Ok(SysReplyData::Delegated { recv_sel: b }) = db.result else { panic!() };
        let dc = c.syscall(
            VpeId(1),
            Syscall::Exchange {
                other: VpeId(2),
                own_sel: b,
                other_sel: CapSel::INVALID,
                kind: ExchangeKind::Delegate,
            },
        );
        assert!(dc.result.is_ok());
        let t_outer = c.syscall_async(VpeId(0), Syscall::Revoke { sel: a, own: true });
        let t_inner = c.syscall_async(VpeId(1), Syscall::Revoke { sel: b, own: true });
        c.pump_all();
        let outer = c.take_reply(VpeId(0), t_outer).unwrap().result.is_ok();
        let inner = c.take_reply(VpeId(1), t_inner).unwrap().result.is_ok();
        let remaining = c.total_caps();
        c.check_invariants();
        assert!(outer && inner, "revoke || revoke: a revoke was not acknowledged");
        assert_eq!(remaining, 3, "revoke || revoke: acknowledged before the subtree was gone");
        println!(
            "revoke || revoke    -> incomplete PREVENTED: both acked after full \
             deletion ({}, {} capabilities left = self-caps only: {})",
            outer && inner,
            remaining,
            remaining == 3
        );
    }
    println!();
    println!("matrix reproduced: serialized / orphaned-cleaned / invalid-prevented /");
    println!("pointless-denied / incomplete-prevented.");
}
