//! Asserted fault-injection suite (PR 9).
//!
//! Four failure scenarios — VPEs dying at the worst moments of an
//! exchange or a revoke (the interference cases of
//! Table 2) — are pinned as hard assertions, and the deterministic
//! fault engine (`semper_sim::faults` +
//! `Kernel::enable_fault_injection`) gets its own scripted scenarios: a kernel
//! crash between the mark and delete phases of a spanning revoke, a
//! one-way network partition across a spanning obtain, and a
//! drop/duplicate/delay storm over a mixed workload. Every scenario
//! must *terminate* — each issued operation completes or errors, the
//! surviving kernels reach true quiescence ([`TestCluster::
//! assert_quiescent`]), and the structural invariants hold.
//!
//! The four scenarios and the fault matrix build independent clusters,
//! so they run on the parallel harness (`semperos::Runner`); results
//! come back in submission order regardless of the worker count.

use semper_base::msg::{ExchangeKind, Perms, SysReplyData, Syscall};
use semper_base::{CapSel, Code, KernelId, VpeId};
use semper_kernel::harness::TestCluster;
use semper_sim::{CrashPoint, FaultPlan, PartitionWindow};
use semperos::{Job, Runner};

fn create_mem(c: &mut TestCluster, vpe: VpeId) -> CapSel {
    match c.syscall(vpe, Syscall::CreateMem { size: 4096, perms: Perms::RW }).result {
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

fn assert_no_pending(c: &TestCluster) {
    for k in &c.kernels {
        assert_eq!(k.pending_ops(), 0, "kernel {} left suspended ops", k.id());
    }
}

// ----- the four failure scenarios --------------------------------------

/// Scenario 1: the obtainer dies while its obtain is in flight. The
/// owner's kernel must clean the orphaned child link, leaving only the
/// owner's self-capability and its memory capability.
fn obtainer_killed_mid_obtain() -> &'static str {
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    c.syscall_async(
        VpeId(1),
        Syscall::Exchange {
            other: VpeId(0),
            own_sel: CapSel::INVALID,
            other_sel: sel,
            kind: ExchangeKind::Obtain,
        },
    );
    c.pump_n(4); // owner linked the child; reply is in flight
    c.kill(VpeId(1));
    c.pump_all();
    c.check_invariants();
    assert_eq!(c.kernels[0].stats().orphans_cleaned, 1, "orphan not cleaned at the owner");
    assert_eq!(c.total_caps(), 2, "only VPE0's self-cap and its memory cap may survive");
    assert_no_pending(&c);
    "obtainer_killed_mid_obtain"
}

/// Scenario 2: the receiver dies during a delegate handshake. The
/// delegator must get an error reply and no dangling child reference
/// may remain.
fn receiver_killed_mid_delegate() -> &'static str {
    let mut c = TestCluster::new(2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    let tag = c.syscall_async(
        VpeId(0),
        Syscall::Exchange {
            other: VpeId(1),
            own_sel: sel,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    c.pump_n(5); // pending insert created at the receiver's kernel
    c.kill(VpeId(1));
    c.pump_all();
    let reply = c.take_reply(VpeId(0), tag).expect("delegator must be answered");
    assert!(reply.result.is_err(), "delegate into a dead receiver must fail: {:?}", reply.result);
    c.check_invariants();
    assert_no_pending(&c);
    "receiver_killed_mid_delegate"
}

/// Scenario 3: a VPE holding a two-hop cross-kernel delegation chain
/// exits. The recursive revocation crosses all three kernels; only the
/// two bystander VPEs' self-capabilities survive.
fn exit_with_cross_kernel_chain() -> &'static str {
    let mut c = TestCluster::new(3, 1);
    let a = create_mem(&mut c, VpeId(0));
    let b = delegate(&mut c, VpeId(0), VpeId(1), a);
    let _ = delegate(&mut c, VpeId(1), VpeId(2), b);
    c.syscall_async(VpeId(0), Syscall::Exit);
    c.pump_all();
    c.check_invariants();
    assert_eq!(c.total_caps(), 2, "the exiting VPE's chain must vanish on every kernel");
    assert_no_pending(&c);
    "exit_with_cross_kernel_chain"
}

/// Scenario 4: a peer kernel's whole workload dies while a spanning
/// revoke has marked its copies and waits on their remote children. The
/// victims' teardown revokes must chain onto the in-flight revoke, and
/// the revoke must still complete and acknowledge the initiator.
fn workload_death_mid_spanning_revoke() -> &'static str {
    let mut c = TestCluster::new(4, 2);
    let root = create_mem(&mut c, VpeId(0));
    for to in [2u16, 3, 4, 5, 6, 7] {
        let copy = delegate(&mut c, VpeId(0), VpeId(to), root);
        // The victims' copies get a child on another kernel, so their
        // kernel's sub-revokes park instead of completing in place.
        if to < 4 {
            let _ = delegate(&mut c, VpeId(to), VpeId(to + 2), copy);
        }
    }
    let before = c.total_caps();
    let tag = c.syscall_async(VpeId(0), Syscall::Revoke { sel: root, own: true });
    c.pump_n(3); // kernel 1 marked both victims' copies and waits on kernels 2 and 3
    c.kill(VpeId(2));
    c.kill(VpeId(3));
    assert_eq!(c.kernels[1].pending_ops(), 4, "exit revokes did not chain onto the revoke");
    c.pump_all();
    assert!(c.take_reply(VpeId(0), tag).unwrap().result.is_ok(), "revoke not acknowledged");
    c.check_invariants();
    assert_eq!(c.total_caps(), before - 9 - 2, "subtree + the dead VPEs' self-caps gone");
    assert_no_pending(&c);
    "workload_death_mid_spanning_revoke"
}

/// The four failure scenarios, run on the parallel harness.
#[test]
fn legacy_failure_scenarios_hold() {
    let jobs: Vec<Job<'static, &'static str>> = vec![
        Box::new(obtainer_killed_mid_obtain),
        Box::new(receiver_killed_mid_delegate),
        Box::new(exit_with_cross_kernel_chain),
        Box::new(workload_death_mid_spanning_revoke),
    ];
    let ran = Runner::new(4).run(jobs);
    assert_eq!(
        ran,
        vec![
            "obtainer_killed_mid_obtain",
            "receiver_killed_mid_delegate",
            "exit_with_cross_kernel_chain",
            "workload_death_mid_spanning_revoke",
        ],
        "scenario results must come back in submission order"
    );
}

// ----- the fixed-seed fault matrix -------------------------------------

/// One matrix cell: a fixed workload under `plan`. Three groups of two
/// VPEs; every VPE creates a root, delegates it to the next group
/// (spanning), and then every root is revoked — all issued
/// asynchronously with partial pumping so the windows overlap the
/// injected faults. The run must terminate quiescent; the returned
/// block is its complete observable state: the NoC fault counters, each
/// surviving kernel's recovery stats, and its full state digest.
fn run_plan(name: &'static str, plan: FaultPlan) -> String {
    let mut c = TestCluster::new(3, 2);
    c.set_fault_plan(plan, 256);

    let roots: Vec<(VpeId, CapSel)> =
        (0..6u16).map(|v| (VpeId(v), create_mem(&mut c, VpeId(v)))).collect();
    for (i, &(vpe, sel)) in roots.iter().enumerate() {
        let to = VpeId(((vpe.0 / 2 + 1) % 3) * 2);
        c.syscall_async(
            vpe,
            Syscall::Exchange {
                other: to,
                own_sel: sel,
                other_sel: CapSel::INVALID,
                kind: ExchangeKind::Delegate,
            },
        );
        c.pump_n(1 + i);
    }
    for &(vpe, sel) in &roots {
        c.syscall_async(vpe, Syscall::Revoke { sel, own: true });
    }
    c.pump_all();
    c.check_invariants();
    c.assert_quiescent();

    let fs = c.fault_stats().expect("plan installed");
    let mut out = format!(
        "plan {name}:\n  net: injected {} dropped {} duplicated {} delayed {} \
         partitioned {} healed {}\n",
        fs.injected, fs.dropped, fs.duplicated, fs.delayed, fs.partitioned, fs.partitions_healed
    );
    for k in &c.kernels {
        if !c.kernel_alive(k.id()) {
            out.push_str(&format!("  kernel {}: crashed\n", k.id()));
            continue;
        }
        let s = k.stats();
        out.push_str(&format!(
            "  kernel {}: retries {} aborted {} anomalies {} caps {}\n",
            k.id(),
            s.retries,
            s.ops_aborted,
            s.fault_anomalies,
            k.mapdb().len()
        ));
        for line in k.state_digest() {
            out.push_str("    ");
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Three scripted plans — a drop-heavy lossy network, a
/// duplicate/delay storm, and a one-way partition combined with a
/// scripted kernel crash point (kernel 2 dies on the first spanning
/// delegate it issues, while it is the receiving side of kernel 1's) —
/// over one fixed workload.
fn fault_matrix() -> Vec<Job<'static, String>> {
    vec![
        Box::new(|| {
            run_plan("drop-heavy", FaultPlan::seeded(0xFA17_0001).with_drop(90).with_delay(40, 8))
        }),
        Box::new(|| {
            run_plan(
                "dup-delay-storm",
                FaultPlan::seeded(0xFA17_0002).with_duplicate(70).with_delay(110, 14),
            )
        }),
        Box::new(|| {
            run_plan(
                "partition-and-crash",
                FaultPlan::seeded(0xFA17_0003)
                    .with_drop(25)
                    .with_partition(PartitionWindow { from: 0, to: 1, start: 8, end: 160 })
                    .with_crash(CrashPoint { kernel: 2, phase: "delegate-remote", after_nth: 1 }),
            )
        }),
    ]
}

/// The fault engine's determinism contract: plan + seed ⇒ bit-identical
/// run. Two serial runs and a four-worker run of the matrix must return
/// byte-identical blocks, and every plan must actually have fired —
/// the third one's crash point included.
#[test]
fn fault_matrix_is_byte_identical_across_runs_and_workers() {
    let first = Runner::new(1).run(fault_matrix());
    assert_eq!(first.len(), 3);
    for block in &first {
        assert!(!block.contains("injected 0 "), "a plan never fired:\n{block}");
    }
    let crashed = format!("kernel {}: crashed", KernelId(2));
    assert!(first[2].contains(&crashed), "the crash point never fired:\n{}", first[2]);
    assert_eq!(first, Runner::new(1).run(fault_matrix()), "second serial run diverged");
    assert_eq!(first, Runner::new(4).run(fault_matrix()), "four-worker run diverged");
}

// ----- scripted fault-engine scenarios ---------------------------------

/// A kernel crash on the paper's own revoke path: kernel 2 dies on its
/// first `revoke-run` park — it has marked its part of the subtree and
/// is waiting on kernel 3 — so its island freezes marked but unswept.
/// The initiator's deadline must fire, the revoke must sweep what did
/// answer and still be acknowledged. No silent hang, no leaked ledger
/// entries.
#[test]
fn kernel_crash_mid_spanning_revoke() {
    let mut c = TestCluster::new(4, 2);
    let plan =
        FaultPlan::empty().with_crash(CrashPoint { kernel: 2, phase: "revoke-run", after_nth: 1 });
    c.set_fault_plan(plan, 64);

    // Root at VPE 0 (kernel 0), copies in groups 1 and 3, and a
    // two-level branch 0 → 2 → 3.
    let root = create_mem(&mut c, VpeId(0));
    for to in [2u16, 3, 6, 7] {
        let _ = delegate(&mut c, VpeId(0), VpeId(to), root);
    }
    let branch = delegate(&mut c, VpeId(0), VpeId(4), root);
    let behind = delegate(&mut c, VpeId(4), VpeId(6), branch);
    let tag = c.syscall_async(VpeId(0), Syscall::Revoke { sel: root, own: true });
    c.pump_all();

    assert!(!c.kernel_alive(KernelId(2)), "the scripted crash point never fired");
    assert_eq!(c.dead_kernels().len(), 1, "only kernel 2 may die");
    let reply = c.take_reply(VpeId(0), tag).expect("initiator must be answered");
    assert!(reply.result.is_ok(), "revoke replies are always-Ok: {:?}", reply.result);
    // The initiator lost a leg: its deadline fired and re-sent the
    // legs towards the survivors before the revoke closed.
    assert!(c.kernels[0].stats().retries >= 1, "the lost leg's deadline never fired");
    // Every copy a surviving kernel could name is gone. The island died
    // with its handler's output unsent, so the one capability *behind*
    // it — known only to kernel 2 — is orphaned, and nothing else.
    let mut left = Vec::new();
    for k in c.kernels.iter().filter(|k| c.kernel_alive(k.id())) {
        for vpe in (0..8u16).map(VpeId) {
            let sels = k.table(vpe).into_iter().flat_map(|t| t.iter());
            left.extend(sels.filter(|(sel, _)| sel.0 != 0).map(|(sel, _)| (vpe, sel)));
        }
    }
    assert_eq!(left, [(VpeId(6), behind)], "survivors kept part of the subtree");
    c.check_invariants();
    c.assert_quiescent();
}

/// A one-way partition (kernel 0 cannot reach kernel 2) is open when
/// VPE 0 obtains from VPE 2: the `ObtainReq` is dropped on the NoC, the
/// requester's `obtain-remote` deadline expires, and the system call is
/// answered `Timeout` — nothing was inserted on either side. After the
/// window heals, the same obtain succeeds.
#[test]
fn partition_aborts_then_heals_spanning_obtain() {
    let mut c = TestCluster::new(3, 1);
    // The window covers the request's send but closes before the
    // 128-step deadline fires: the first obtain still aborts (obtain
    // requests carry no retry legs — the drop is fatal), and by the
    // time the deadline pump has run, the route is healed.
    let plan =
        FaultPlan::empty().with_partition(PartitionWindow { from: 0, to: 2, start: 0, end: 64 });
    c.set_fault_plan(plan, 128);
    let sel = create_mem(&mut c, VpeId(2));
    let obtain = Syscall::Exchange {
        other: VpeId(2),
        own_sel: CapSel::INVALID,
        other_sel: sel,
        kind: ExchangeKind::Obtain,
    };

    let caps = c.total_caps();
    let r = c.syscall(VpeId(0), obtain.clone());
    assert_eq!(r.result.unwrap_err().code(), Code::Timeout, "the partitioned obtain must abort");
    assert_eq!(c.total_caps(), caps, "an aborted obtain must not leave a capability behind");
    let fs = c.fault_stats().expect("plan installed");
    assert!(fs.partitioned > 0, "the partition never dropped anything");
    c.check_invariants();
    c.assert_quiescent();

    // The pump drained past the window's end (quiet-network clock
    // jumps); the healed route must now carry the same obtain.
    let r = c.syscall(VpeId(0), obtain);
    assert!(matches!(r.result, Ok(SysReplyData::Sel(_))), "obtain after the heal: {r:?}");
    assert_eq!(c.total_caps(), caps + 1);
    let fs = c.fault_stats().expect("plan installed");
    assert_eq!(fs.partitions_healed, 1, "the healed window must be counted once");
    c.check_invariants();
    c.assert_quiescent();
}

/// Kernel 1 crashes while it holds the receiver-side consent of a
/// blocking group-spanning delegate (`delegate-at-recv` park). The
/// delegator's kernel must detect the peer's death and abort the
/// delegate's request leg: the system call is answered `Timeout` — never
/// hangs — nothing stays linked under the root, and the surviving island
/// reaches true quiescence.
#[test]
fn peer_crash_at_delegate_at_recv_yields_real_error() {
    let mut c = TestCluster::new(2, 2);
    let plan = FaultPlan::empty().with_crash(CrashPoint {
        kernel: 1,
        phase: "delegate-at-recv",
        after_nth: 1,
    });
    c.set_fault_plan(plan, 64);

    let root = create_mem(&mut c, VpeId(0));
    let r = c.syscall(
        VpeId(0),
        Syscall::Exchange {
            other: VpeId(2),
            own_sel: root,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
    );
    assert!(!c.kernel_alive(KernelId(1)), "the scripted crash point never fired");
    assert_eq!(r.result.unwrap_err().code(), Code::Timeout, "a dead peer must abort the delegate");
    let k0 = &c.kernels[0];
    assert!(k0.stats().ops_aborted >= 1, "the delegate leg never aborted");
    // Two self-capabilities and the root: the handshake's second leg
    // never ran, so no child was linked.
    assert_eq!(k0.mapdb().len(), 3, "the aborted delegate left a capability behind");
    let root_key = k0.table(VpeId(0)).expect("VPE 0 is local").get(root).expect("root survives");
    assert_eq!(k0.mapdb().get(root_key).expect("root survives").child_count(), 0);
    c.check_invariants();
    c.assert_quiescent();
}

/// A drop/duplicate/delay storm over a mixed spanning workload: every
/// issued operation must be answered (Ok or Err — never silence), the
/// cluster must reach true quiescence, and the structural invariants
/// must hold on every kernel.
#[test]
fn message_storm_terminates_with_all_ops_answered() {
    let mut c = TestCluster::new(3, 2);
    let plan = FaultPlan::seeded(0x57_0421).with_drop(60).with_duplicate(40).with_delay(80, 12);
    c.set_fault_plan(plan, 256);

    let mut tags: Vec<(VpeId, u64)> = Vec::new();
    let mut roots: Vec<(VpeId, CapSel)> = Vec::new();
    for v in 0..6u16 {
        let vpe = VpeId(v);
        let sel = create_mem(&mut c, vpe);
        roots.push((vpe, sel));
    }
    for (i, &(vpe, sel)) in roots.iter().enumerate() {
        // Spanning delegation to the next group's first VPE.
        let to = VpeId(((vpe.0 / 2 + 1) % 3) * 2);
        tags.push((
            vpe,
            c.syscall_async(
                vpe,
                Syscall::Exchange {
                    other: to,
                    own_sel: sel,
                    other_sel: CapSel::INVALID,
                    kind: ExchangeKind::Delegate,
                },
            ),
        ));
        c.pump_n(1 + i); // interleave so windows overlap
    }
    for &(vpe, sel) in &roots {
        tags.push((vpe, c.syscall_async(vpe, Syscall::Revoke { sel, own: true })));
    }
    c.pump_all();

    for (vpe, tag) in tags {
        let reply = c.take_reply(vpe, tag);
        assert!(reply.is_some(), "{vpe} tag {tag}: operation vanished without a reply");
    }
    let fs = c.fault_stats().expect("plan installed");
    assert!(fs.injected > 0, "the storm never fired");
    c.check_invariants();
    c.assert_quiescent();
}
