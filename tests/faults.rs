//! Asserted fail-stop fault suite.
//!
//! Four failure scenarios — VPEs dying at the worst moments of an
//! exchange or a revoke (the interference cases of
//! Table 2) — are pinned as hard assertions, and the fail-stop fault
//! engine (`semper_sim::faults` + `semper_kernel::ops::faults`) gets its
//! own scripted scenarios: kernel crashes at named phases — mid spanning
//! revoke, at a delegate's receiver, at a session's service, and three
//! crash plans over one fixed workload — plus one scenario per abort
//! arm a deadline reaches (a VPE's answer a parked phase awaits is
//! starved past its kernel's deadline) and two that show a phase
//! awaiting a kernel outliving the same starvation. Every scenario must
//! *terminate* — each issued operation completes or errors, the
//! surviving kernels reach true quiescence
//! ([`TestCluster::assert_quiescent`]), and the structural invariants
//! hold. `TestCluster` is the fault engine's one host; deadline budgets
//! are counted in its steps.
//!
//! The four scenarios and the fault matrix build independent clusters,
//! so they run on the parallel harness (`semperos::Runner`); results
//! come back in submission order regardless of the worker count.

use semper_base::msg::{ExchangeKind, Perms, SysReplyData, Syscall};
use semper_base::{CapSel, Code, Feature, KernelId, VpeId};
use semper_kernel::harness::TestCluster;
use semper_sim::{CrashPoint, FaultPlan};
use semperos::{Job, Runner};

mod common;

fn create_mem(c: &mut TestCluster, vpe: VpeId) -> CapSel {
    match c.syscall(vpe, Syscall::CreateMem { size: 4096, perms: Perms::RW }).result {
        Ok(SysReplyData::Mem { sel, .. }) => sel,
        other => panic!("create_mem failed: {other:?}"),
    }
}

/// An exchange with `other` over `sel`: the caller's own selector for a
/// delegate, `other`'s for an obtain.
fn exchange(other: VpeId, sel: CapSel, kind: ExchangeKind) -> Syscall {
    let (own_sel, other_sel) = match kind {
        ExchangeKind::Delegate => (sel, CapSel::INVALID),
        ExchangeKind::Obtain => (CapSel::INVALID, sel),
    };
    Syscall::Exchange { other, own_sel, other_sel, kind }
}

fn delegate(c: &mut TestCluster, from: VpeId, to: VpeId, sel: CapSel) -> CapSel {
    let r = c.syscall(from, exchange(to, sel, ExchangeKind::Delegate));
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
    c.syscall_async(VpeId(1), exchange(VpeId(0), sel, ExchangeKind::Obtain));
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
    let tag = c.syscall_async(VpeId(0), exchange(VpeId(1), sel, ExchangeKind::Delegate));
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
/// scripted crash. The run must terminate quiescent; the returned
/// block is its complete observable state: which kernel crashed, each
/// surviving kernel's abort count, and its full state digest.
fn run_plan(name: &'static str, plan: FaultPlan) -> String {
    let mut c = TestCluster::new(3, 2);
    c.set_fault_plan(plan, 256);

    let roots: Vec<(VpeId, CapSel)> =
        (0..6u16).map(|v| (VpeId(v), create_mem(&mut c, VpeId(v)))).collect();
    for (i, &(vpe, sel)) in roots.iter().enumerate() {
        let to = VpeId(((vpe.0 / 2 + 1) % 3) * 2);
        c.syscall_async(vpe, exchange(to, sel, ExchangeKind::Delegate));
        c.pump_n(1 + i);
    }
    for &(vpe, sel) in &roots {
        c.syscall_async(vpe, Syscall::Revoke { sel, own: true });
    }
    c.pump_all();
    c.check_invariants();
    c.assert_quiescent();

    let mut out = format!("plan {name}:\n");
    for k in &c.kernels {
        if k.crashed() {
            out.push_str(&format!("  kernel {}: crashed\n", k.id()));
            continue;
        }
        let s = k.stats();
        out.push_str(&format!(
            "  kernel {}: aborted {} caps {}\n",
            k.id(),
            s.ops_aborted,
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

/// The three crash points of the matrix, one per plan: each kernel
/// dies at a different phase of the spanning delegate it takes part in.
const MATRIX_CRASHES: [CrashPoint; 3] = [
    CrashPoint { kernel: 2, phase: "delegate-remote", after_nth: 1 },
    CrashPoint { kernel: 1, phase: "delegate-at-recv", after_nth: 1 },
    CrashPoint { kernel: 0, phase: "delegate-wait-done", after_nth: 1 },
];

/// Three scripted plans, one crash point each, over one fixed workload.
fn fault_matrix() -> Vec<Job<'static, String>> {
    MATRIX_CRASHES
        .iter()
        .map(|&crash| -> Job<'static, String> {
            Box::new(move || run_plan(crash.phase, FaultPlan::empty().with_crash(crash)))
        })
        .collect()
}

/// The fault engine's determinism contract: plan ⇒ bit-identical run.
/// Two serial runs and a four-worker run of the matrix must return
/// byte-identical blocks, and every plan's crash point must actually
/// have fired. The blocks are also pinned against a recorded
/// fingerprint: a harness change that reorders delivery
/// deterministically would pass the self-comparison. Re-record only
/// when the protocol or the plans change on purpose; the failure prints
/// the blocks.
#[test]
fn fault_matrix_is_byte_identical_across_runs_and_workers() {
    let first = Runner::new(1).run(fault_matrix());
    assert_eq!(first.len(), 3);
    let fp = common::fingerprint(&first.concat());
    assert_eq!(fp, 0xafc3_814f_e11c_5bdc, "fault matrix moved (fp {fp:#x}):\n{}", first.concat());
    for (block, crash) in first.iter().zip(MATRIX_CRASHES) {
        let crashed = format!("kernel {}: crashed", KernelId(crash.kernel));
        assert!(block.contains(&crashed), "the crash point never fired:\n{block}");
    }
    assert_eq!(first, Runner::new(1).run(fault_matrix()), "second serial run diverged");
    assert_eq!(first, Runner::new(4).run(fault_matrix()), "four-worker run diverged");
}

// ----- scripted fault-engine scenarios ---------------------------------

/// A kernel crash on the paper's own revoke path: kernel 2 dies on its
/// first `revoke-run` park — it has marked its part of the subtree and
/// is waiting on kernel 3 — so its island freezes marked but unswept.
/// The initiator's leg towards kernel 2 completes when the survivors
/// learn of the death; the revoke must sweep what did answer and still
/// be acknowledged, with no deadline and nothing aborted. No silent
/// hang, no leaked ledger entries.
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

    assert!(c.kernels[2].crashed(), "the scripted crash point never fired");
    assert_eq!(c.kernels.iter().filter(|k| k.crashed()).count(), 1, "only kernel 2 may die");
    let reply = c.take_reply(VpeId(0), tag).expect("initiator must be answered");
    assert!(reply.result.is_ok(), "revoke replies are always-Ok: {:?}", reply.result);
    let aborted: u64 = c.kernels.iter().map(|k| k.stats().ops_aborted).sum();
    assert_eq!(aborted, 0, "a revocation ends by its legs, never by an abort");
    // Every copy a surviving kernel could name is gone. The island died
    // with its handler's output unsent, so the one capability *behind*
    // it — known only to kernel 2 — is orphaned, and nothing else.
    let mut left = Vec::new();
    for k in c.kernels.iter().filter(|k| !k.crashed()) {
        for vpe in (0..8u16).map(VpeId) {
            let sels = k.table(vpe).into_iter().flat_map(|t| t.iter());
            left.extend(sels.filter(|(sel, _)| sel.0 != 0).map(|(sel, _)| (vpe, sel)));
        }
    }
    assert_eq!(left, [(VpeId(6), behind)], "survivors kept part of the subtree");
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
    let r = c.syscall(VpeId(0), exchange(VpeId(2), root, ExchangeKind::Delegate));
    assert!(c.kernels[1].crashed(), "the scripted crash point never fired");
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

/// The service's kernel crashes while it asks the service to accept a
/// remote client (`session-at-service` park). The client's kernel learns
/// of the death and aborts its `open-sess-remote`: the open is answered
/// `Timeout`, and no session capability is left behind. A second open
/// is refused at once: no request goes to a dead kernel.
#[test]
fn peer_crash_at_session_at_service_times_out_the_open() {
    let mut c = TestCluster::new(2, 1);
    let plan = FaultPlan::empty().with_crash(CrashPoint {
        kernel: 0,
        phase: "session-at-service",
        after_nth: 1,
    });
    c.set_fault_plan(plan, 64);
    assert!(c.syscall(VpeId(0), Syscall::CreateSrv { name: 7 }).result.is_ok());
    let r = c.syscall(VpeId(1), Syscall::OpenSession { name: 7 });
    assert!(c.kernels[0].crashed(), "the scripted crash point never fired");
    assert_eq!(r.result.unwrap_err().code(), Code::Timeout);
    assert_eq!(c.kernels[1].stats().ops_aborted, 1, "open-sess-remote never aborted");
    let again = c.syscall(VpeId(1), Syscall::OpenSession { name: 7 });
    assert_eq!(again.result.unwrap_err().code(), Code::Timeout);
    assert_eq!(c.kernels[1].stats().ops_aborted, 1, "the second open was sent and aborted");
    assert_eq!(c.kernels[1].mapdb().len(), 1, "only the client's self-capability");
    c.check_invariants();
    c.assert_quiescent();
}

/// `revoke-batch` awaits its own sub-revokes, not the kernel that sent
/// the batch: kernel 1 tracks a batch from kernel 0 whose sub-revoke
/// waits on kernel 2 when kernel 0 crashes (on its second `revoke-run`
/// park, a revoke of another root). The tracker outlives its caller,
/// finishes once kernel 2 answers, and its reply to the dead kernel
/// vanishes; no survivor aborts anything.
#[test]
fn revoke_batch_outlives_its_callers_crash() {
    let mut c = TestCluster::new(3, 2);
    let crash = CrashPoint { kernel: 0, phase: "revoke-run", after_nth: 2 };
    c.set_fault_plan(FaultPlan::empty().with_crash(crash), 64);
    for k in &mut c.kernels {
        k.enable_feature_for_test(Feature::RevokeBatching);
    }
    // One root per VPE of kernel 0, each copied to kernel 1 and on to
    // kernel 2.
    let roots = [VpeId(0), VpeId(1)].map(|vpe| {
        let root = create_mem(&mut c, vpe);
        let copy = delegate(&mut c, vpe, VpeId(2), root);
        let _ = delegate(&mut c, VpeId(2), VpeId(4), copy);
        root
    });
    c.syscall_async(VpeId(0), Syscall::Revoke { sel: roots[0], own: true });
    step_until_parked(&mut c, 1, "revoke-batch");
    c.syscall_async(VpeId(1), Syscall::Revoke { sel: roots[1], own: true });
    c.pump_all();
    assert!(c.kernels[0].crashed(), "the scripted crash point never fired");
    c.check_invariants();
    c.assert_quiescent();
    for k in &c.kernels[1..] {
        assert_eq!(k.stats().ops_aborted, 0, "kernel {} aborted an op", k.id());
        // Two self-capabilities and the second root's copy.
        assert_eq!(k.mapdb().len(), 3, "kernel {} kept the first root's copy", k.id());
    }
}

// ----- every abort arm, by starving the answer its phase awaits ---------

/// Deadline budget, in steps, of the kernel whose arm is under test.
const TIGHT: u64 = 16;
/// Budget of every other kernel: the tight kernel gives up first, so
/// the error a client sees is the one the arm under test produced.
const PATIENT: u64 = 4096;

/// A cluster under the empty plan — nobody crashes; only deadlines
/// fire — whose kernel `tight` runs on the [`TIGHT`] budget.
fn impatient_cluster(kernels: u16, vpes_per_group: u16, tight: usize) -> TestCluster {
    let mut c = TestCluster::new(kernels, vpes_per_group);
    c.set_fault_plan(FaultPlan::empty(), PATIENT);
    c.kernels[tight].arm_deadlines(TIGHT);
    c
}

/// Steps until kernel `k` has a phase named `phase` parked.
fn step_until_parked(c: &mut TestCluster, k: usize, phase: &str) {
    while !c.kernels[k].check_quiescent().is_err_and(|e| e.contains(phase)) {
        assert!(c.step(), "the run drained before kernel {k} parked {phase}");
    }
}

/// Keeps the FIFO busy for more than [`TIGHT`] steps with no-op system
/// calls from `bystander`: what is queued now is still delivered next,
/// but whatever it emits — the answer a parked phase awaits — waits
/// behind the flood, past the tight kernel's deadline.
fn starve(c: &mut TestCluster, bystander: VpeId) {
    for _ in 0..2 * TIGHT {
        c.syscall_async(bystander, Syscall::Noop);
    }
}

/// Pumps twice the [`TIGHT`] budget into the flood and asserts that
/// kernel `k` still has `phase` parked: a phase that awaits a kernel has
/// no deadline, however long that kernel's answer is starved.
fn assert_outlives_the_flood(c: &mut TestCluster, k: usize, phase: &str) {
    c.pump_n(2 * TIGHT as usize);
    let parked = c.kernels[k].check_quiescent().is_err_and(|e| e.contains(phase));
    assert!(parked, "kernel {k}'s {phase} did not outlive the flood");
}

/// No kernel aborted anything.
fn assert_nothing_aborted(c: &TestCluster) {
    for k in &c.kernels {
        assert_eq!(k.stats().ops_aborted, 0, "kernel {} aborted an op", k.id());
    }
}

/// Drains the cluster, checks it, and returns the result `client`'s
/// system call `tag` got.
fn drained(c: &mut TestCluster, client: VpeId, tag: u64) -> semper_base::Result<SysReplyData> {
    c.pump_all();
    c.check_invariants();
    c.assert_quiescent();
    c.take_reply(client, tag).expect("the waiting client must be answered").result
}

/// `exchange-local`: the owner's consent to a group-local obtain is
/// starved; the kernel fails the obtain as if the owner were gone.
#[test]
fn starved_local_consent_aborts_the_exchange() {
    let mut c = impatient_cluster(1, 3, 0);
    let sel = create_mem(&mut c, VpeId(0));
    let tag = c.syscall_async(VpeId(1), exchange(VpeId(0), sel, ExchangeKind::Obtain));
    step_until_parked(&mut c, 0, "exchange-local");
    starve(&mut c, VpeId(2));
    let r = drained(&mut c, VpeId(1), tag);
    assert_eq!(r.unwrap_err().code(), Code::VpeGone);
    assert_eq!(c.kernels[0].stats().ops_aborted, 1);
    assert_eq!(c.total_caps(), 4, "three self-capabilities and the root");
}

/// `obtain-at-owner` and `delegate-at-recv`: the remote VPE's consent
/// to a spanning exchange is starved at its kernel, which answers the
/// caller's kernel with an error; the caller's patient phase resumes on
/// it and fails the system call.
#[test]
fn starved_remote_consent_aborts_both_spanning_exchanges() {
    for (kind, phase) in
        [(ExchangeKind::Obtain, "obtain-at-owner"), (ExchangeKind::Delegate, "delegate-at-recv")]
    {
        let mut c = impatient_cluster(2, 2, 1);
        // The capability is the caller's own for a delegate, the remote
        // VPE's for an obtain.
        let holder = if kind == ExchangeKind::Delegate { VpeId(0) } else { VpeId(2) };
        let sel = create_mem(&mut c, holder);
        let tag = c.syscall_async(VpeId(0), exchange(VpeId(2), sel, kind));
        step_until_parked(&mut c, 1, phase);
        starve(&mut c, VpeId(1));
        let r = drained(&mut c, VpeId(0), tag);
        assert_eq!(r.unwrap_err().code(), Code::VpeGone, "{phase}");
        assert_eq!(c.kernels[1].stats().ops_aborted, 1, "{phase} never aborted");
        assert_eq!(c.kernels[0].stats().ops_aborted, 0, "{phase}: the caller's kernel gave up");
        assert_eq!(c.total_caps(), 5, "{phase}: four self-capabilities and the root");
    }
}

/// `delegate-pending-insert` and `delegate-aborted` await kernels, not
/// VPEs: the parent is revoked while the handshake's first leg is in
/// flight, so the delegator's kernel sends the abort ack — which is
/// starved past the receiver's budget. Both phases outlive the flood;
/// the receiver then drops its uninserted capability and confirms, and
/// the delegator fails the system call with the recorded reason.
#[test]
fn unconfirmed_delegate_abort_fails_with_its_reason() {
    let mut c = impatient_cluster(2, 2, 1);
    let sel = create_mem(&mut c, VpeId(0));
    let tag = c.syscall_async(VpeId(0), exchange(VpeId(2), sel, ExchangeKind::Delegate));
    step_until_parked(&mut c, 1, "delegate-pending-insert");
    let revoke = c.syscall_front(VpeId(0), Syscall::Revoke { sel, own: true });
    starve(&mut c, VpeId(1));
    assert_outlives_the_flood(&mut c, 1, "delegate-pending-insert");
    assert_outlives_the_flood(&mut c, 0, "delegate-aborted");
    let r = drained(&mut c, VpeId(0), tag);
    assert_eq!(r.unwrap_err().code(), Code::NoSuchCap);
    assert!(c.take_reply(VpeId(0), revoke).expect("revoke answered").result.is_ok());
    assert_nothing_aborted(&c);
    assert_eq!(c.total_caps(), 4, "only the four self-capabilities may survive");
}

/// `session-local` and `session-at-service`: the service's answer to a
/// session open is starved at its kernel — for a client of the same
/// group, and for a client of another kernel, whose patient
/// `open-sess-remote` resumes on the error reply.
#[test]
fn starved_service_answer_aborts_local_and_remote_opens() {
    for (client, phase) in [(VpeId(1), "session-local"), (VpeId(2), "session-at-service")] {
        let mut c = impatient_cluster(2, 2, 0);
        assert!(c.syscall(VpeId(0), Syscall::CreateSrv { name: 7 }).result.is_ok());
        let tag = c.syscall_async(client, Syscall::OpenSession { name: 7 });
        step_until_parked(&mut c, 0, phase);
        starve(&mut c, VpeId(3));
        let r = drained(&mut c, client, tag);
        assert_eq!(r.unwrap_err().code(), Code::Timeout, "{phase}");
        assert_eq!(c.kernels[0].stats().ops_aborted, 1, "{phase} never aborted");
        assert_eq!(c.kernels[1].stats().ops_aborted, 0, "{phase}: the client's kernel gave up");
        assert_eq!(c.total_caps(), 5, "{phase}: four self-capabilities and the service");
    }
}

/// `revoke-batch` under [`Feature::RevokeBatching`]: kernel 1 tracks a
/// batch of two sub-revokes whose children live on kernel 2, and kernel
/// 2's answers are starved past kernel 1's budget. The tracker awaits
/// its sub-revokes, and they await kernel 2: it outlives the flood and
/// then reports the full tally, with nothing aborted.
#[test]
fn starved_revoke_batch_reports_its_partial_tally() {
    let mut c = impatient_cluster(3, 2, 1);
    for k in &mut c.kernels {
        k.enable_feature_for_test(Feature::RevokeBatching);
    }
    let root = create_mem(&mut c, VpeId(0));
    for to in [VpeId(2), VpeId(3)] {
        let copy = delegate(&mut c, VpeId(0), to, root);
        let _ = delegate(&mut c, to, VpeId(4), copy);
    }
    let tag = c.syscall_async(VpeId(0), Syscall::Revoke { sel: root, own: true });
    step_until_parked(&mut c, 1, "revoke-batch");
    starve(&mut c, VpeId(1));
    assert_outlives_the_flood(&mut c, 1, "revoke-batch");
    let r = drained(&mut c, VpeId(0), tag);
    assert!(r.is_ok(), "revoke replies are always-Ok: {r:?}");
    assert_nothing_aborted(&c);
    assert_eq!(c.total_caps(), 6, "only the six self-capabilities may survive");
}
