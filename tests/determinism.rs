//! Determinism regression tests.
//!
//! The simulator's contract is that two runs of the same experiment
//! produce bit-identical results: `semper_sim::EventQueue`'s FIFO
//! tie-breaking is the sole ordering authority, and no kernel
//! bookkeeping structure may leak its internal order into the protocol.
//! These tests protect that contract through data-structure refactors
//! (such as the O(1)-bookkeeping change that moved the mapping database
//! and pending-op storage from `BTreeMap` onto hash maps): if a swap
//! accidentally makes message order depend on map iteration, per-client
//! finish times or kernel statistics diverge here.

use semper_apps::AppKind;
use semper_base::{KernelId, KernelMode, MachineConfig};
use semper_kernel::KernelStats;
use semperos::experiment::{run_app_instances, MicroMachine};
use semperos::{Job, Runner};

/// A full application run, reduced to its observable outputs.
#[derive(Debug, PartialEq, Eq)]
struct RunFingerprint {
    durations: Vec<u64>,
    makespan: u64,
    cap_ops: u64,
    kernel_stats: Vec<KernelStats>,
}

fn app_run(cfg: &MachineConfig, app: AppKind, instances: u32) -> RunFingerprint {
    let res = run_app_instances(cfg, app, instances);
    RunFingerprint {
        durations: res.durations.clone(),
        makespan: res.makespan,
        cap_ops: res.cap_ops,
        kernel_stats: res.kernel_stats,
    }
}

/// The same multi-kernel application experiment, run twice, must yield
/// bit-identical per-client finish times and kernel statistics.
#[test]
fn app_runs_are_bit_identical() {
    let mut cfg = MachineConfig::small();
    cfg.num_pes = 16;
    cfg.kernels = 2;
    cfg.services = 2;
    let first = app_run(&cfg, AppKind::Find, 4);
    let second = app_run(&cfg, AppKind::Find, 4);
    assert_eq!(first, second, "two runs of the same experiment diverged");
    // Sanity: the run actually did distributed work.
    assert_eq!(first.durations.len(), 4);
    assert!(first.kernel_stats.iter().any(|s| s.kcalls_out > 0));
}

/// Large revocations — the paths most affected by the bookkeeping
/// refactor — must be cycle-identical across runs, including the exact
/// inter-kernel message counts.
#[test]
fn spanning_revokes_are_bit_identical() {
    let run = || {
        let mut m = MicroMachine::new(3, 2, KernelMode::SemperOS);
        let chain = m.measure_chain_revoke(64, true);
        let tree = m.measure_tree_revoke(128, 2);
        let stats: Vec<KernelStats> = m.machine().kernel_stats();
        (chain, tree, m.machine().events(), m.machine().now(), stats)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "revocation experiment diverged between runs");
    assert!(first.0 > 0 && first.1 > 0);
}

/// Golden cycle counts for [`cross_machine_revocation_matches_golden`],
/// recorded on the pre-stall-lane event engine (PR 1, commit 3d2b330).
/// The stall-lane engine must reproduce these bit-identically: the
/// tokens it parks consume the same sequence numbers the old
/// requeue-into-the-heap retry loop did, so every handler runs at the
/// same cycle in the same order. If this test fails after an engine
/// change, the change altered protocol-visible event ordering — that is
/// a bug unless the cost model intentionally changed, in which case
/// re-record via `cargo test golden -- --nocapture`.
const GOLDEN_REVOKE_CYCLES: u64 = 83337;
const GOLDEN_FINAL_NOW: u64 = 526069;
const GOLDEN_EVENTS: u64 = 667;
const GOLDEN_CAPS_DELETED: u64 = 57;
const GOLDEN_KCALLS: u64 = 150;

/// A three-kernel machine revokes one capability tree that is both wide
/// (24 children fanned over every VPE of two remote groups) and deep (a
/// 32-link delegation chain ping-ponging between the two remote groups,
/// hanging off one of the wide children). The revocation crosses
/// machine boundaries in both directions and its cycle count is pinned
/// to the pre-refactor engine.
#[test]
fn cross_machine_revocation_matches_golden() {
    use semper_base::KernelMode;

    let run = || {
        let mut m = MicroMachine::new(3, 3, KernelMode::SemperOS);
        let a = m.vpe(0, 0);
        let root = m.create_mem(a);
        // Wide layer: every other VPE of all three groups holds three
        // direct children of the root.
        let mut first_remote_child = None;
        for round in 0..3 {
            for g in 0..3u16 {
                for j in 0..3u16 {
                    if (g, j) == (0, 0) {
                        continue;
                    }
                    let (sel, _) = m.delegate(a, m.vpe(g, j), root);
                    if round == 0 && g == 1 && j == 0 {
                        first_remote_child = Some(sel);
                    }
                }
            }
        }
        // Deep layer: a spanning chain under the first remote child,
        // alternating between groups 1 and 2 on every link.
        let mut holder = m.vpe(1, 0);
        let mut sel = first_remote_child.expect("wide layer populated");
        for _ in 0..32 {
            let next = if holder == m.vpe(1, 0) { m.vpe(2, 0) } else { m.vpe(1, 0) };
            let (nsel, _) = m.delegate(holder, next, sel);
            holder = next;
            sel = nsel;
        }
        let revoke_cycles = m.revoke(a, root);
        m.machine().check_invariants();
        let stats: Vec<KernelStats> = m.machine().kernel_stats();
        let caps_deleted: u64 = stats.iter().map(|s| s.caps_deleted).sum();
        let kcalls: u64 = stats.iter().map(|s| s.kcalls_out).sum();
        (revoke_cycles, m.machine().now().0, m.machine().events(), caps_deleted, kcalls, stats)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "cross-machine revocation diverged between runs");
    println!(
        "golden: revoke_cycles={} now={} events={} caps_deleted={} kcalls={}",
        first.0, first.1, first.2, first.3, first.4
    );
    assert_eq!(
        (first.0, first.1, first.2, first.3, first.4),
        (GOLDEN_REVOKE_CYCLES, GOLDEN_FINAL_NOW, GOLDEN_EVENTS, GOLDEN_CAPS_DELETED, GOLDEN_KCALLS),
        "cycle trace drifted from the pre-stall-lane engine golden"
    );
}

/// Golden cycle counts for [`session_open_close_matches_golden`],
/// recorded on the hand-rolled per-module protocol state machines
/// *before* the port onto the `kernel::ops` distributed-op engine
/// (PR 3). The engine must reproduce the session-establishment protocol
/// bit-identically: same upcalls, same inter-kernel messages, same
/// costs. Re-record via `cargo test session_open -- --nocapture` only if
/// the cost model or protocol intentionally changed. Re-recorded once
/// when a closed session began to leave its service's child list: the
/// close sends the unlink notice (`CLOSE_CLIENT` +400, `kcall_exit`),
/// and the service's revoke no longer sends a request for it.
const GOLDEN_SESS_OPEN_REMOTE_A: u64 = 4441;
const GOLDEN_SESS_OPEN_REMOTE_B: u64 = 4081;
const GOLDEN_SESS_OPEN_LOCAL: u64 = 2040;
const GOLDEN_SESS_CLOSE_CLIENT: u64 = 1667;
const GOLDEN_SESS_CLOSE_SRV: u64 = 4656;
const GOLDEN_SESS_FINAL_NOW: u64 = 18007;
const GOLDEN_SESS_EVENTS: u64 = 29;

/// A three-kernel machine runs the full session lifecycle: a service
/// registers in group 1 (announced to every kernel), two clients in
/// groups 0 and 2 open sessions across kernel boundaries, one client in
/// group 1 opens locally, then one client closes (revokes its session
/// capability, and its kernel tells the service's kernel to unlink it),
/// and finally the service capability is revoked, sweeping the remaining
/// session children through the revocation protocol. Pinned before the
/// `kernel::ops` port so the refactor is locked to this exact message
/// choreography.
#[test]
fn session_open_close_matches_golden() {
    use semper_base::msg::{SysReplyData, Syscall};

    const NAME: u64 = 77;
    let run = || {
        let mut m = MicroMachine::new(3, 2, KernelMode::SemperOS);
        let srv = m.vpe(1, 0);
        let client_a = m.vpe(0, 0);
        let client_b = m.vpe(2, 0);
        let client_local = m.vpe(1, 1);
        let (r, _) = m.machine().syscall_blocking(srv, Syscall::CreateSrv { name: NAME });
        let Ok(SysReplyData::Sel(srv_sel)) = r.result else { panic!("create_srv: {r:?}") };
        // Let the service announcements reach every kernel before the
        // first open (boot-time barrier, as in the application runs).
        m.machine().run_until_idle();

        let open = |m: &mut MicroMachine, vpe| {
            let (r, cycles) =
                m.machine().syscall_blocking(vpe, Syscall::OpenSession { name: NAME });
            match r.result {
                Ok(SysReplyData::Session { sel, .. }) => (sel, cycles),
                other => panic!("open_session: {other:?}"),
            }
        };
        let (sess_a, open_a) = open(&mut m, client_a);
        let (_sess_b, open_b) = open(&mut m, client_b);
        let (_sess_l, open_l) = open(&mut m, client_local);

        // Close A's session: a client-side revoke of the session
        // capability, which unlinks it at the service's kernel.
        let close_a = m.revoke(client_a, sess_a);
        // Tear the service down: revoking the service capability sweeps
        // the remaining sessions in groups 1 and 2.
        let close_srv = m.revoke(srv, srv_sel);
        m.machine().check_invariants();
        let stats: Vec<KernelStats> = m.machine().kernel_stats();
        let opened: u64 = stats.iter().map(|s| s.sessions_opened).sum();
        let deleted: u64 = stats.iter().map(|s| s.caps_deleted).sum();
        (
            open_a,
            open_b,
            open_l,
            close_a,
            close_srv,
            m.machine().now().0,
            m.machine().events(),
            opened,
            deleted,
            stats,
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "session lifecycle diverged between runs");
    println!(
        "golden: open_a={} open_b={} open_l={} close_a={} close_srv={} now={} events={}",
        first.0, first.1, first.2, first.3, first.4, first.5, first.6
    );
    assert_eq!(first.7, 3, "three sessions opened");
    assert_eq!(
        (first.0, first.1, first.2, first.3, first.4, first.5, first.6),
        (
            GOLDEN_SESS_OPEN_REMOTE_A,
            GOLDEN_SESS_OPEN_REMOTE_B,
            GOLDEN_SESS_OPEN_LOCAL,
            GOLDEN_SESS_CLOSE_CLIENT,
            GOLDEN_SESS_CLOSE_SRV,
            GOLDEN_SESS_FINAL_NOW,
            GOLDEN_SESS_EVENTS,
        ),
        "session protocol cycle trace drifted from the pre-ops-engine golden"
    );
}

/// A measurement on a quiesced, reused machine must yield the same
/// simulated cycles as on a freshly built machine: selector free lists
/// hand back freed selectors, credit budgets are restored at
/// quiescence, and neither NoC FIFO floors (strictly in the past) nor
/// allocator high-water marks enter a cost computation. This is what
/// lets the figure benches run all their measurements on one machine
/// per shape without perturbing the reported cycle counts.
#[test]
fn pooled_reuse_is_cycle_identical() {
    use semper_base::KernelMode;

    let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
    let fresh_chain = m.measure_chain_revoke(24, true);
    // Same measurement, same machine (reused twice more).
    let reused_once = m.measure_chain_revoke(24, true);
    let reused_twice = m.measure_chain_revoke(24, true);
    assert_eq!(fresh_chain, reused_once, "first reuse drifted");
    assert_eq!(fresh_chain, reused_twice, "repeated reuse drifted");
    // A different measurement shape on the reused machine still matches
    // a fresh machine.
    let reused_tree = m.measure_tree_revoke(16, 1);
    let fresh_tree = MicroMachine::new(2, 2, KernelMode::SemperOS).measure_tree_revoke(16, 1);
    assert_eq!(reused_tree, fresh_tree, "reused machine measured different cycles than fresh");
}

/// One scenario's observable outputs plus every kernel's full state
/// digest, for serial-vs-parallel comparison.
#[derive(Debug, PartialEq, Eq)]
struct DetRow {
    name: &'static str,
    cycles: u64,
    events: u64,
    now: u64,
    caps_deleted: u64,
    kcalls: u64,
    digest: Vec<String>,
}

/// Runs one measurement and reduces the machine to a [`DetRow`].
fn det_row(name: &'static str, mut m: MicroMachine, cycles: u64) -> DetRow {
    let mach = m.machine();
    let kernels = mach.cfg().kernels;
    let stats = mach.kernel_stats();
    DetRow {
        name,
        cycles,
        events: mach.events(),
        now: mach.now().0,
        caps_deleted: stats.iter().map(|s| s.caps_deleted).sum(),
        kcalls: stats.iter().map(|s| s.kcalls_out).sum(),
        digest: (0..kernels).flat_map(|k| mach.kernel(KernelId(k)).state_digest()).collect(),
    }
}

/// The scenario job list of the parallel-runner golden: a mix of
/// shapes and protocols, each job building and consuming its own
/// machine — the `tests/scale_pins.rs` pattern in miniature.
fn runner_jobs() -> Vec<Job<'static, DetRow>> {
    vec![
        Box::new(|| {
            let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
            let c = m.measure_chain_revoke(32, false);
            det_row("chain_local", m, c)
        }),
        Box::new(|| {
            let mut m = MicroMachine::new(3, 2, KernelMode::SemperOS);
            let c = m.measure_chain_revoke(48, true);
            det_row("chain_spanning", m, c)
        }),
        Box::new(|| {
            let mut m = MicroMachine::new(3, 3, KernelMode::SemperOS);
            let c = m.measure_tree_revoke(64, 2);
            det_row("tree_wide", m, c)
        }),
        Box::new(|| {
            let mut m = MicroMachine::new(1, 3, KernelMode::M3);
            let c = m.measure_chain_revoke(24, false);
            det_row("chain_m3", m, c)
        }),
        Box::new(|| {
            let mut m = MicroMachine::new(4, 2, KernelMode::SemperOS);
            let c = m.measure_tree_revoke(48, 3);
            det_row("tree_spanning", m, c)
        }),
        Box::new(|| {
            let mut m = MicroMachine::new(2, 3, KernelMode::SemperOS);
            let c = m.measure_chain_revoke(40, false);
            det_row("chain_deep", m, c)
        }),
    ]
}

/// The parallel runner's determinism golden (ISSUE 8): the same job
/// list at 1, 2 and 4 workers must produce byte-identical rows — same
/// simulated cycles, event counts, kernel statistics, and full kernel
/// state digests, in the same (submission) order.
#[test]
fn parallel_runner_matches_serial() {
    let render = |rows: &[DetRow]| -> String {
        rows.iter()
            .map(|r| {
                format!(
                    "{} cycles={} events={} now={} caps={} kcalls={} digest={}",
                    r.name,
                    r.cycles,
                    r.events,
                    r.now,
                    r.caps_deleted,
                    r.kcalls,
                    r.digest.join(";")
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    };

    let serial = Runner::new(1).run(runner_jobs());
    assert_eq!(serial.len(), 6);
    assert!(serial.iter().all(|r| r.cycles > 0 && !r.digest.is_empty()));
    for threads in [2, 4] {
        let parallel = Runner::new(threads).run(runner_jobs());
        assert_eq!(serial, parallel, "{threads}-worker run diverged from serial");
        // Byte-identity, not just structural equality: everything a
        // report would print from these rows is the same string.
        assert_eq!(
            render(&serial),
            render(&parallel),
            "{threads}-worker rendering diverged from serial"
        );
    }
}

/// Concurrent, overlapping revocations wake their waiters in a fixed
/// order; the kill/exit path sorts its pending-op sweep. Run the same
/// interleaving twice and compare every kernel's counters.
#[test]
fn teardown_under_load_is_bit_identical() {
    use semper_base::msg::{ExchangeKind, Perms, SysReplyData, Syscall};
    use semper_base::{CapSel, VpeId};
    use semper_kernel::harness::TestCluster;

    let run = || {
        let mut c = TestCluster::new(3, 2);
        let sel =
            match c.syscall(VpeId(0), Syscall::CreateMem { size: 4096, perms: Perms::RW }).result {
                Ok(SysReplyData::Mem { sel, .. }) => sel,
                other => panic!("create_mem failed: {other:?}"),
            };
        // Spread copies over every VPE, then kill holders mid-traffic.
        for to in 1..6u16 {
            let _ = c.syscall(
                VpeId(0),
                Syscall::Exchange {
                    other: VpeId(to),
                    own_sel: sel,
                    other_sel: CapSel::INVALID,
                    kind: ExchangeKind::Delegate,
                },
            );
        }
        c.syscall_async(VpeId(0), Syscall::Revoke { sel, own: true });
        c.pump_n(3);
        c.kill(VpeId(3));
        c.kill(VpeId(1));
        c.pump_all();
        c.check_invariants();
        let stats: Vec<_> = c.kernels.iter().map(|k| *k.stats()).collect();
        let caps = c.total_caps();
        (stats, caps)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "teardown interleaving diverged between runs");
}
