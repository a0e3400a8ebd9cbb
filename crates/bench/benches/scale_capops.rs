//! scale_capops: capability bookkeeping on the kernel hot paths, at
//! 10–100× the paper's evaluation scale.
//!
//! The paper's revocation experiments (Figures 4 and 5) stop at chains
//! and trees of ~100 capabilities. This harness pushes the same shapes
//! to thousands of capabilities — where per-capability bookkeeping cost
//! inside one kernel dominates — and records host wall-clock, simulated
//! cycles, events/second, and capabilities deleted/second:
//!
//! * **deep chain** — a delegation chain ping-ponging between two VPEs of
//!   one group, then one revoke of the root (Figure 4 at 40×);
//! * **spanning chain** — the adversarial cross-kernel chain of §5.2;
//! * **wide tree** — one capability delegated to thousands of holders,
//!   then one revoke of the root (Figure 5 at 100×);
//! * **dense table** — an nginx-like VPE holding a dense capability
//!   table, torn down one revoke at a time (the per-close revoke pattern
//!   of §5.3.3);
//! * **group migration** — a VPE owning thousands of capabilities (with
//!   cross-kernel children) has its whole DDL group migrated around a
//!   three-kernel ring (`kernel::ops::migrate`, new in PR 3). For this
//!   scenario the `revoke_ms`/`revoke_sim_cycles` fields record the
//!   migration sweep (field names kept stable for baseline comparison);
//! * **spanning revoke, sequential vs batched** (new in PR 4) — a VPE
//!   owns thousands of capabilities, each with one remote child;
//!   teardown issues one `Revoke` syscall per capability, or the same
//!   revokes as a single `Syscall::Batch` whose coalesced fan-out sends
//!   one grouped request per peer kernel (`kernel::ops::bulk`). The
//!   `kcalls_out` field quantifies the cross-kernel message reduction;
//! * **file workload, sequential vs batched** (new in PR 4) — N tar
//!   instances against m3fs; in the batched variant the service revokes
//!   each closed file's delegated extents as one batch
//!   (`Feature::SyscallBatching`). `revoke_sim_cycles` holds the run's
//!   makespan;
//! * **dense table teardown, sequential vs parallel** (new in PR 6) — a
//!   VPE owns thousands of capabilities, each delegated once so the
//!   children spread over three peer kernels; teardown revokes all of
//!   them one blocking syscall at a time, or as one `Syscall::Batch`
//!   with `Feature::ParallelSweep` enabled so the coalesced revoke
//!   partitions the subtree by owning kernel and drives the two-phase
//!   mark → delete sweep (`kernel::ops::sweep`). The appended
//!   `sweep_*` fields record fan-out, round depth, and partition
//!   count; `handler_dispatches` counts host-side kernel handler
//!   entries (the batched-dispatch win);
//! * **rebalance under load** (new in PR 7) — the webserver workload
//!   keeps running while every server's capability group migrates
//!   around a three-kernel ring *without quiescing*: the old owner
//!   holds or forwards every call that races the handover
//!   (`kernel::ops::migrate`, `Phase::Draining`), and the closed-loop
//!   request stream must never stall;
//! * **faulted spanning teardown** (new in PR 9) — the spanning-revoke
//!   shape torn down under a seed-scripted fault plan
//!   (`semper_sim::faults`): message drops, duplicates, delays and a
//!   one-way partition window, with the ops engine's deadline → retry
//!   → abort machinery guaranteeing termination. The appended
//!   `faults_*` fields record injected faults, retries, aborted ops
//!   and healed partitions — all deterministic under the cycle gate;
//! * **service chains, blocking vs pipelined** (new in PR 10) — every
//!   group-0 client of a two-kernel machine runs the canonical
//!   dependent chain (create → derive → cross-kernel delegate →
//!   read-back derive), either as four synchronous syscalls or
//!   submitted up front through `Syscall::SubmitAsync` with
//!   dependencies named by their *promise* selector
//!   (`kernel::ops::promise`) and only the
//!   tail redeemed.
//!   `revoke_sim_cycles` holds the workload's end-to-end makespan —
//!   the pipelined twin must finish in strictly fewer simulated
//!   cycles — and the appended `promises_*`/`calls_pipelined` columns
//!   record the protocol counters;
//! * a **data-structure A/B**: the owner-table reverse removal
//!   (`CapTable::remove_key`) against a re-implementation of the naive
//!   linear-scan sweep the seed shipped, on identical 10k-entry tables.
//!
//! The scenarios are independent machines, so the harness runs them on
//! `BENCH_THREADS` worker threads (`semperos::Runner`; default 1 =
//! serial). Parallelism is strictly between machines — every
//! per-scenario `revoke_sim_cycles`, kcall count, and JSON row is
//! byte-identical to the serial run (results merge in submission
//! order); only the harness wall-clock drops. The report records
//! `threads` and `wall_ms_total`; with `BENCH_SERIAL_REF=<report>` the
//! serial run's wall-clock is embedded and the parallel speedup
//! computed, and `BENCH_ASSERT_SPEEDUP=<min>` turns that into a hard
//! gate (for multi-core hosts; see EXPERIMENTS.md).
//!
//! Results land in `BENCH_PR13.json` at the workspace root (override with
//! `BENCH_OUT`). If `BENCH_BASELINE` names an earlier report, its
//! scenario timings are embedded under `"baseline"` and per-scenario
//! speedups are computed — this is how each PR's report compares
//! against the previous one. Simulated cycles are part of the
//! comparison: scenarios whose name *and* size match the baseline must
//! reproduce its `revoke_sim_cycles` bit-identically, and with
//! `BENCH_ENFORCE_CYCLES=1` (the CI bench-regression gate) any drift
//! fails the run. `SCALE_CAPOPS_SMOKE=1` shrinks every scenario for CI;
//! `BENCH_SMOKE_BASELINE.json` holds the smoke-scale reference cycles.

use std::time::Instant;

use semper_apps::AppKind;
use semper_base::msg::{ExchangeKind, Perms, SysReplyData, Syscall};
use semper_base::{
    CapSel, CapType, DdlKey, Feature, KernelId, KernelMode, MachineConfig, PeId, VpeId,
};
use semper_bench::report::{read_report, render, Val};
use semper_caps::CapTable;
use semper_sim::{FaultPlan, PartitionWindow};
use semperos::experiment::{run_app_instances, MicroMachine};
use semperos::machine::{Machine, Workload};
use semperos::{Job, Runner};

/// One scenario measurement.
struct Scenario {
    name: &'static str,
    size: u32,
    build_ms: f64,
    revoke_ms: f64,
    revoke_cycles: u64,
    events: u64,
    caps_deleted: u64,
    /// Cross-kernel requests sent during the measured phase (the
    /// batched scenarios exist to shrink this).
    kcalls: u64,
    /// Sweep observability of the measured phase (PR 6): all zero for
    /// scenarios that never trigger the parallel sweep.
    sweep: SweepObs,
    /// Fault-engine observability (PR 9): all zero for scenarios that
    /// run without a fault plan.
    faults: FaultObs,
    /// Promise-protocol observability (PR 10): all zero for scenarios
    /// that never submit an asynchronous invocation.
    promise: PromiseObs,
}

/// Parallel-sweep observability counters (PR 6): fan-out width, round
/// depth, partitions used, and host-side handler dispatches of the
/// measured phase.
#[derive(Default)]
struct SweepObs {
    fanout: u64,
    depth: u64,
    partitions: u64,
    dispatches: u64,
}

/// Fault-engine observability counters (PR 9): network faults injected
/// by the plan, deadline-driven request-leg retries, operations aborted
/// with an `Err`, and partition windows that healed during the run.
#[derive(Default)]
struct FaultObs {
    injected: u64,
    retries: u64,
    ops_aborted: u64,
    partitions_healed: u64,
}

/// Promise-protocol observability counters (PR 10): promise
/// capabilities minted by `SubmitAsync`, promises driven to a terminal
/// resolution, and calls that actually pipelined — parked against an
/// unresolved promise or gated behind an in-flight predecessor instead
/// of blocking the client.
#[derive(Default)]
struct PromiseObs {
    created: u64,
    resolved: u64,
    pipelined: u64,
}

impl Scenario {
    fn caps_per_sec(&self) -> f64 {
        if self.revoke_ms <= 0.0 {
            return 0.0;
        }
        self.caps_deleted as f64 / (self.revoke_ms / 1e3)
    }

    fn to_val(&self) -> Val {
        Val::obj(vec![
            ("name", Val::S(self.name.into())),
            ("size", Val::U(self.size as u64)),
            ("build_ms", Val::F(self.build_ms)),
            ("revoke_ms", Val::F(self.revoke_ms)),
            ("revoke_sim_cycles", Val::U(self.revoke_cycles)),
            ("events", Val::U(self.events)),
            ("caps_deleted", Val::U(self.caps_deleted)),
            ("caps_deleted_per_sec", Val::F(self.caps_per_sec())),
            // New fields append after the ones the baseline parser
            // scans, so older reports stay comparable.
            ("kcalls_out", Val::U(self.kcalls)),
            ("sweep_fanout", Val::U(self.sweep.fanout)),
            ("sweep_depth", Val::U(self.sweep.depth)),
            ("sweep_partitions", Val::U(self.sweep.partitions)),
            ("handler_dispatches", Val::U(self.sweep.dispatches)),
            ("faults_injected", Val::U(self.faults.injected)),
            ("fault_retries", Val::U(self.faults.retries)),
            ("ops_aborted", Val::U(self.faults.ops_aborted)),
            ("partitions_healed", Val::U(self.faults.partitions_healed)),
            ("promises_created", Val::U(self.promise.created)),
            ("promises_resolved", Val::U(self.promise.resolved)),
            ("calls_pipelined", Val::U(self.promise.pipelined)),
        ])
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn total_caps_deleted(m: &Machine) -> u64 {
    m.kernel_stats().iter().map(|s| s.caps_deleted).sum()
}

fn total_kcalls(m: &Machine) -> u64 {
    m.kernel_stats().iter().map(|s| s.kcalls_out).sum()
}

fn total_dispatches(m: &Machine) -> u64 {
    m.kernel_stats().iter().map(|s| s.handler_dispatches).sum()
}

/// Snapshots the sweep counters after the measured phase.
/// `dispatches_before` is the dispatch total at the start of the phase
/// (the cumulative counters cover machine construction too).
fn sweep_obs(m: &Machine, dispatches_before: u64) -> SweepObs {
    let st = m.kernel_stats();
    SweepObs {
        fanout: st.iter().map(|s| s.sweep_fanout).sum(),
        depth: st.iter().map(|s| s.sweep_depth).max().unwrap_or(0),
        partitions: st.iter().map(|s| s.sweep_partitions).sum(),
        dispatches: total_dispatches(m) - dispatches_before,
    }
}

/// Deep local chain: delegate root down `len` times, revoke once.
fn chain_revoke(len: u32, spanning: bool) -> Scenario {
    let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
    let a = m.vpe(0, 0);
    let b = if spanning { m.vpe(1, 0) } else { m.vpe(0, 1) };

    let t = Instant::now();
    let root = m.create_mem(a);
    let mut holder = a;
    let mut sel = root;
    for _ in 0..len {
        let next = if holder == a { b } else { a };
        let (nsel, _) = m.delegate(holder, next, sel);
        holder = next;
        sel = nsel;
    }
    let build_ms = ms(t);

    let kcalls_before = total_kcalls(m.machine());
    let dispatches_before = total_dispatches(m.machine());
    let t = Instant::now();
    let revoke_cycles = m.revoke(a, root);
    let revoke_ms = ms(t);
    Scenario {
        name: if spanning { "chain_revoke_spanning" } else { "chain_revoke_local" },
        size: len + 1,
        build_ms,
        revoke_ms,
        revoke_cycles,
        events: m.machine().events(),
        caps_deleted: total_caps_deleted(m.machine()),
        kcalls: total_kcalls(m.machine()) - kcalls_before,
        sweep: sweep_obs(m.machine(), dispatches_before),
        faults: FaultObs::default(),
        promise: PromiseObs::default(),
    }
}

/// Wide tree: delegate the root to `children` copies held by one VPE
/// whose table already holds `prefill` unrelated long-lived capabilities
/// (the dense-table shape of a service or nginx worker, §5.3.3). The
/// prefill is what exposes linear owner-table sweeps: every deletion of a
/// subtree capability has to get past the unrelated entries.
fn tree_revoke(children: u32, prefill: u32) -> Scenario {
    let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
    let a = m.vpe(0, 0);
    let b = m.vpe(0, 1);

    let t = Instant::now();
    for _ in 0..prefill {
        let _ = m.create_mem(b);
    }
    let root = m.create_mem(a);
    for _ in 0..children {
        let _ = m.delegate(a, b, root);
    }
    let build_ms = ms(t);

    let kcalls_before = total_kcalls(m.machine());
    let dispatches_before = total_dispatches(m.machine());
    let t = Instant::now();
    let revoke_cycles = m.revoke(a, root);
    let revoke_ms = ms(t);
    Scenario {
        name: "tree_revoke_wide",
        size: children + 1,
        build_ms,
        revoke_ms,
        revoke_cycles,
        events: m.machine().events(),
        caps_deleted: total_caps_deleted(m.machine()),
        kcalls: total_kcalls(m.machine()) - kcalls_before,
        sweep: sweep_obs(m.machine(), dispatches_before),
        faults: FaultObs::default(),
        promise: PromiseObs::default(),
    }
}

/// Dense table: one VPE holds `caps` capabilities, torn down one revoke
/// at a time in reverse allocation order (LIFO, the nested open/close
/// pattern) — every revoke sweeps against the still-dense owner table.
fn dense_table_teardown(caps: u32) -> Scenario {
    let mut m = MicroMachine::new(1, 2, KernelMode::SemperOS);
    let a = m.vpe(0, 0);

    let t = Instant::now();
    let sels: Vec<CapSel> = (0..caps).map(|_| m.create_mem(a)).collect();
    let build_ms = ms(t);

    let kcalls_before = total_kcalls(m.machine());
    let dispatches_before = total_dispatches(m.machine());
    let t = Instant::now();
    let mut revoke_cycles = 0;
    for sel in sels.into_iter().rev() {
        revoke_cycles += m.revoke(a, sel);
    }
    let revoke_ms = ms(t);
    Scenario {
        name: "dense_table_teardown",
        size: caps,
        build_ms,
        revoke_ms,
        revoke_cycles,
        events: m.machine().events(),
        caps_deleted: total_caps_deleted(m.machine()),
        kcalls: total_kcalls(m.machine()) - kcalls_before,
        sweep: sweep_obs(m.machine(), dispatches_before),
        faults: FaultObs::default(),
        promise: PromiseObs::default(),
    }
}

/// Dense spanning teardown, sequential vs parallel (the PR 6 sweep
/// twins): VPE a of group 0 owns `caps` capabilities, each delegated
/// once round-robin to the VPEs of groups 1–3, so the revocation
/// subtree spans three peer kernels. Teardown revokes all of them:
/// one blocking `Revoke` syscall at a time (reverse allocation order,
/// like `dense_table_teardown`), or as one `Syscall::Batch` with
/// `Feature::ParallelSweep` enabled — the coalesced revoke partitions
/// the subtree by owning kernel and drives the two-phase mark → delete
/// sweep, so the three peers sweep their partitions concurrently in
/// sim time and the host touches each partition as one grouped
/// handler dispatch instead of one per capability.
fn dense_table_spanning(caps: u32, parallel: bool) -> Scenario {
    let mut m = MicroMachine::new(4, 2, KernelMode::SemperOS);
    if parallel {
        m.machine().enable_feature_everywhere(Feature::ParallelSweep);
    }
    let a = m.vpe(0, 0);

    let t = Instant::now();
    let sels: Vec<CapSel> = (0..caps).map(|_| m.create_mem(a)).collect();
    for (i, sel) in sels.iter().enumerate() {
        let to = m.vpe(1 + (i as u16 % 3), 0);
        let _ = m.delegate(a, to, *sel);
    }
    let build_ms = ms(t);

    let kcalls_before = total_kcalls(m.machine());
    let dispatches_before = total_dispatches(m.machine());
    let t = Instant::now();
    let revoke_cycles = if parallel {
        let items: Box<[Syscall]> =
            sels.iter().map(|sel| Syscall::Revoke { sel: *sel, own: true }).collect();
        let (r, cycles) = m.machine().syscall_blocking(a, Syscall::Batch(items));
        match r.result {
            Ok(SysReplyData::Batch(results)) => {
                assert_eq!(results.len(), caps as usize);
                assert!(results.iter().all(|i| i.is_ok()), "parallel teardown item failed");
            }
            other => panic!("parallel teardown failed: {other:?}"),
        }
        cycles
    } else {
        sels.into_iter().rev().map(|sel| m.revoke(a, sel)).sum()
    };
    let revoke_ms = ms(t);
    m.machine().check_invariants();
    Scenario {
        name: if parallel {
            "dense_table_teardown_parallel"
        } else {
            "dense_table_teardown_sequential"
        },
        size: caps,
        build_ms,
        revoke_ms,
        revoke_cycles,
        events: m.machine().events(),
        caps_deleted: total_caps_deleted(m.machine()),
        kcalls: total_kcalls(m.machine()) - kcalls_before,
        sweep: sweep_obs(m.machine(), dispatches_before),
        faults: FaultObs::default(),
        promise: PromiseObs::default(),
    }
}

/// Group migration around a three-kernel ring: one VPE owns `caps`
/// capabilities, every sixteenth delegated to another group so the
/// moving group carries live cross-kernel child links; the whole group
/// then migrates kernel 0 → 1 → 2 → 0. Measures the marshal/install/
/// handover sweep per hop (`revoke_ms`/`revoke_sim_cycles` hold the
/// migration totals; see the module docs).
fn group_migration(caps: u32) -> Scenario {
    let mut m = MicroMachine::new(3, 2, KernelMode::SemperOS);
    let a = m.vpe(0, 0);

    let t = Instant::now();
    let sels: Vec<CapSel> = (0..caps).map(|_| m.create_mem(a)).collect();
    for (i, sel) in sels.iter().enumerate().step_by(16) {
        let to = m.vpe(1 + (i as u16 / 16) % 2, 0);
        let _ = m.delegate(a, to, *sel);
    }
    let build_ms = ms(t);

    let kcalls_before = total_kcalls(m.machine());
    let dispatches_before = total_dispatches(m.machine());
    let t = Instant::now();
    let mut migrate_cycles = 0;
    for dst in [KernelId(1), KernelId(2), KernelId(0)] {
        migrate_cycles += m.machine().migrate_vpe(a, dst).expect("quiescent migration");
    }
    let migrate_ms = ms(t);
    m.machine().check_invariants();
    Scenario {
        name: "group_migration_ring",
        size: caps,
        build_ms,
        revoke_ms: migrate_ms,
        revoke_cycles: migrate_cycles,
        events: m.machine().events(),
        caps_deleted: total_caps_deleted(m.machine()),
        kcalls: total_kcalls(m.machine()) - kcalls_before,
        sweep: sweep_obs(m.machine(), dispatches_before),
        faults: FaultObs::default(),
        promise: PromiseObs::default(),
    }
}

/// Live rebalancing under load (new in PR 7): a three-kernel machine
/// runs the webserver workload — nginx servers replaying their
/// m3fs-backed handling trace against closed-loop load generators —
/// while every server's capability group migrates to the next kernel
/// of the ring, `hops` full rotations, *without quiescing*. Each
/// handover opens the forward-or-hold window (`kernel::ops::migrate`,
/// `Phase::Draining`): the m3fs service's extent delegations and
/// close-revokes into the moving group keep landing at the old owner
/// mid-window and ride the hold queue; bystander kernels' stale-routed
/// requests get relayed to the new owner. The
/// scenario asserts that the closed loop never stalls (requests keep
/// completing after every hop), that every migration completes, and
/// that the handover window was actually exercised (holds or forwards
/// observed). `revoke_ms`/`revoke_sim_cycles` record the rebalancing
/// phase (field names kept stable for the baseline parser); `size` is
/// the server count.
fn rebalance_under_load(servers: u16, hops: u32) -> Scenario {
    let mut cfg = MachineConfig::small();
    cfg.num_pes = 96;
    cfg.kernels = 3;
    cfg.services = 3;
    cfg.mesh_width = semper_base::config::mesh_width_for(cfg.num_pes);
    let t = Instant::now();
    let mut m =
        Machine::build(cfg, u32::from(servers), (servers / 4).max(1), Workload::Nginx { depth: 4 });
    m.boot_os();
    m.start_nginx();
    let warmup = m.now() + 400_000;
    m.run_until(warmup);
    assert!(m.loadgen_completed() > 0, "no request completed during warmup");
    let build_ms = ms(t);

    let kcalls_before = total_kcalls(&m);
    let dispatches_before = total_dispatches(&m);
    let server_vpes = m.topo().server_vpes.clone();
    let t = Instant::now();
    let mut handover_cycles = 0u64;
    // Every wait below threads an absolute horizon through
    // `Machine::advance_until`, which moves the base forward by the
    // full window even when no event lands inside it — recomputing
    // `run_until(now() + window)` instead livelocks as soon as the next
    // event (e.g. a server coming out of a ~150k-cycle modeled extent
    // access) lies beyond the window. See `Machine::advance_until`.
    let mut horizon = m.now();
    for hop in 0..hops {
        let before = m.loadgen_completed();
        for &vpe in &server_vpes {
            let pe = m.topo().vpe_dir[vpe.idx()];
            let dst = KernelId((m.topo().kernel_of(pe).0 + 1) % 3);
            // Open the handover the moment the server has an extent
            // request outstanding: the service's answer is a DeriveMem
            // plus a delegation into the moving group within a couple
            // thousand cycles — inside the window — so every hop
            // provably races capability traffic. (Servers spend most
            // cycles in modeled compute; an arbitrary start instant
            // finds nothing outstanding.)
            let mut patience = 0u32;
            while !m.vpe_awaiting_extent(vpe) {
                horizon = m.advance_until(horizon + 500);
                patience += 1;
                assert!(patience < 8192, "{vpe} never requested an extent; server wedged?");
            }
            let ticket = m.start_vpe_migration(vpe, dst).expect("start live migration");
            // Let the closed loop race the open window before draining
            // it: service traffic into the moving group arriving now is
            // held or forwarded by the old owner instead of erroring.
            horizon = m.advance_until(horizon + 15_000);
            handover_cycles += m.finish_vpe_migration(ticket).expect("live migration");
            // A slice of steady-state traffic against the rebalanced
            // placement before the next group moves.
            horizon = m.advance_until(horizon + 25_000);
        }
        // The closed loop must keep completing requests across the
        // rotation; per-request latency is large (hundreds of
        // thousands of cycles of modeled trace replay), so give the
        // check a bounded catch-up window instead of demanding
        // progress inside the migration slices themselves.
        let mut patience = 0u32;
        while m.loadgen_completed() <= before {
            horizon = m.advance_until(horizon + 50_000);
            patience += 1;
            assert!(patience < 256, "closed loop stalled during rotation {hop}");
        }
    }
    let rebalance_ms = ms(t);
    m.check_invariants();

    let st = m.kernel_stats();
    let moved: u64 = st.iter().map(|s| s.migrations_out).sum();
    assert_eq!(moved, u64::from(hops) * server_vpes.len() as u64, "every hop must complete");
    let held: u64 = st.iter().map(|s| s.ops_held).sum();
    let forwarded: u64 = st.iter().map(|s| s.syscalls_forwarded + s.kcalls_forwarded).sum();
    assert!(
        held + forwarded > 0,
        "no handover window was exercised: the migrations all found quiescent groups"
    );

    Scenario {
        name: "rebalance_under_load",
        size: u32::from(servers),
        build_ms,
        revoke_ms: rebalance_ms,
        revoke_cycles: handover_cycles,
        events: m.events(),
        caps_deleted: total_caps_deleted(&m),
        kcalls: total_kcalls(&m) - kcalls_before,
        sweep: sweep_obs(&m, dispatches_before),
        faults: FaultObs::default(),
        promise: PromiseObs::default(),
    }
}

/// Spanning revoke, sequential vs batched (the PR 4 bulk-API twins):
/// VPE a of group 0 owns `n` capabilities, each delegated once to the
/// VPE of group 1 — so every revoke has exactly one remote child.
/// Teardown revokes all `n`: as `n` separate `Revoke` syscalls, or as
/// one `Syscall::Batch` whose coalesced fan-out sends a single grouped
/// revoke request to the peer kernel (`kernel::ops::bulk`). Same final
/// state; `kcalls_out` counts the cross-kernel requests of the
/// teardown phase.
fn spanning_revoke(n: u32, batched: bool) -> Scenario {
    let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
    let a = m.vpe(0, 0);
    let b = m.vpe(1, 0);

    let t = Instant::now();
    let sels: Vec<CapSel> = (0..n).map(|_| m.create_mem(a)).collect();
    for sel in &sels {
        let _ = m.delegate(a, b, *sel);
    }
    let build_ms = ms(t);

    let kcalls_before = total_kcalls(m.machine());
    let dispatches_before = total_dispatches(m.machine());
    let t = Instant::now();
    let revoke_cycles = if batched {
        let items: Box<[Syscall]> =
            sels.iter().map(|sel| Syscall::Revoke { sel: *sel, own: true }).collect();
        let (r, cycles) = m.machine().syscall_blocking(a, Syscall::Batch(items));
        match r.result {
            Ok(SysReplyData::Batch(results)) => {
                assert_eq!(results.len(), n as usize);
                assert!(results.iter().all(|i| i.is_ok()), "batched revoke item failed");
            }
            other => panic!("batched revoke failed: {other:?}"),
        }
        cycles
    } else {
        sels.into_iter().map(|sel| m.revoke(a, sel)).sum()
    };
    let revoke_ms = ms(t);
    m.machine().check_invariants();
    Scenario {
        name: if batched { "spanning_revoke_batched" } else { "spanning_revoke_sequential" },
        size: n,
        build_ms,
        revoke_ms,
        revoke_cycles,
        events: m.machine().events(),
        caps_deleted: total_caps_deleted(m.machine()),
        kcalls: total_kcalls(m.machine()) - kcalls_before,
        sweep: sweep_obs(m.machine(), dispatches_before),
        faults: FaultObs::default(),
        promise: PromiseObs::default(),
    }
}

/// File workload, sequential vs batched (the PR 4 service-side twins):
/// `instances` tar replays against m3fs on a 4-kernel/2-service
/// machine — fewer services than kernels, so half the clients open
/// *cross-group* sessions and their extent capabilities span kernels.
/// The batched variant enables `Feature::SyscallBatching`, so each
/// file close revokes its delegated extents through one
/// `Syscall::Batch` instead of one revoke syscall per extent (and the
/// coalesced fan-out groups the cross-kernel revokes per peer).
/// `revoke_sim_cycles` holds the run's makespan; `kcalls_out` the
/// cross-kernel requests of the whole run.
fn file_workload(instances: u32, batched: bool) -> Scenario {
    let mut cfg = MachineConfig::small();
    cfg.num_pes = 24;
    cfg.kernels = 4;
    cfg.services = 2;
    cfg.mesh_width = semper_base::config::mesh_width_for(cfg.num_pes);
    if batched {
        cfg = cfg.with_feature(Feature::SyscallBatching);
    }
    let t = Instant::now();
    let res = run_app_instances(&cfg, AppKind::Tar, instances);
    let total_ms = ms(t);
    Scenario {
        name: if batched { "file_workload_batched" } else { "file_workload_sequential" },
        size: instances,
        build_ms: 0.0,
        revoke_ms: total_ms,
        revoke_cycles: res.makespan,
        events: res.events,
        caps_deleted: res.kernel_stats.iter().map(|s| s.caps_deleted).sum(),
        kcalls: res.kernel_stats.iter().map(|s| s.kcalls_out).sum(),
        sweep: SweepObs {
            fanout: res.kernel_stats.iter().map(|s| s.sweep_fanout).sum(),
            depth: res.kernel_stats.iter().map(|s| s.sweep_depth).max().unwrap_or(0),
            partitions: res.kernel_stats.iter().map(|s| s.sweep_partitions).sum(),
            dispatches: res.kernel_stats.iter().map(|s| s.handler_dispatches).sum(),
        },
        faults: FaultObs::default(),
        promise: PromiseObs::default(),
    }
}

/// Spanning teardown under a scripted fault plan (new in PR 9): the
/// spanning-revoke shape — VPE a of group 0 owns `caps` capabilities,
/// each with one remote child on kernel 1 — torn down while the
/// seed-scripted fault engine (`semper_sim::faults`) drops, duplicates
/// and delays cross-kernel messages and holds a one-way kernel 0 → 1
/// partition open for a window mid-teardown. Every revoke still
/// returns to the caller (retried legs or a deadline-driven abort of
/// the remote leg — never a hang), the machine drains to a quiescent
/// state, and the whole run is deterministic: same plan + seed ⇒
/// bit-identical cycles and fault counters, which is what puts this
/// row under the `BENCH_ENFORCE_CYCLES` gate. The `faults_*` columns
/// record the injected-fault and recovery totals.
fn faulted_spanning_teardown(caps: u32) -> Scenario {
    let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
    let a = m.vpe(0, 0);
    let b = m.vpe(1, 0);

    let t = Instant::now();
    let sels: Vec<CapSel> = (0..caps).map(|_| m.create_mem(a)).collect();
    for sel in &sels {
        let _ = m.delegate(a, b, *sel);
    }
    let build_ms = ms(t);

    // The plan starts at teardown: the build above runs fault-free so
    // the capability graph under test is always the same. The partition
    // window sits mid-teardown, so revokes before it exercise the
    // drop/duplicate/delay path and revokes inside it exercise the
    // deadline → retry → abort path.
    let now = m.machine().now().0;
    let plan = FaultPlan::seeded(0x5EED_FA17)
        .with_drop(30)
        .with_duplicate(20)
        .with_delay(50, 2_000)
        .with_partition(PartitionWindow {
            from: 0,
            to: 1,
            start: now + 50_000,
            end: now + 250_000,
        });
    m.machine().set_fault_plan(plan, 150_000);

    let kcalls_before = total_kcalls(m.machine());
    let dispatches_before = total_dispatches(m.machine());
    let retries_before: u64 = m.machine().kernel_stats().iter().map(|s| s.retries).sum();
    let aborted_before: u64 = m.machine().kernel_stats().iter().map(|s| s.ops_aborted).sum();
    let t = Instant::now();
    let revoke_cycles: u64 = sels.into_iter().rev().map(|sel| m.revoke(a, sel)).sum();
    let idle = m.machine().run_until_idle();
    let revoke_ms = ms(t);
    assert!(idle.0 > now, "faulted teardown never advanced");
    m.machine().check_invariants();
    m.machine().assert_quiescent();

    let st = m.machine().kernel_stats();
    let fs = m.machine().fault_stats().expect("fault plan installed");
    let faults = FaultObs {
        injected: fs.injected,
        retries: st.iter().map(|s| s.retries).sum::<u64>() - retries_before,
        ops_aborted: st.iter().map(|s| s.ops_aborted).sum::<u64>() - aborted_before,
        partitions_healed: fs.partitions_healed,
    };
    assert!(faults.injected > 0, "the plan never fired");
    Scenario {
        name: "faulted_spanning_teardown",
        size: caps,
        build_ms,
        revoke_ms,
        revoke_cycles,
        events: m.machine().events(),
        caps_deleted: total_caps_deleted(m.machine()),
        kcalls: total_kcalls(m.machine()) - kcalls_before,
        sweep: sweep_obs(m.machine(), dispatches_before),
        faults,
        promise: PromiseObs::default(),
    }
}

/// Service chains, blocking vs promise-pipelined (the PR 10 twins):
/// every group-0 client of a two-kernel machine runs the canonical
/// dependent chain of a service interaction — "open" (create a memory
/// capability), "read" (derive the transfer window from it), "hand
/// off" (delegate the window to the partner VPE in the other group),
/// then a second read against the root — once as four synchronous
/// syscalls, once submitted up front through `Syscall::SubmitAsync`
/// with dependencies named by *promise* selectors and only the tail
/// redeemed. The pipelined
/// twin's submissions return immediately, so later clients' submission
/// round trips overlap the kernel-side delegate work of earlier
/// chains, and the final read rides the pipeline behind the still
/// in-flight cross-kernel hand-off (the `calls_pipelined` counter).
/// `revoke_sim_cycles` records the end-to-end makespan of the whole
/// workload (field name kept stable for the baseline parser) and the
/// `promises_*`/`calls_pipelined` columns the protocol counters.
/// `size` is the client count.
fn service_chain(clients: u16, pipelined: bool) -> Scenario {
    let t = Instant::now();
    let mut m = MicroMachine::new(2, clients, KernelMode::SemperOS);
    // Only group-0 clients initiate (round-robin placement: even ids →
    // group 0); their partners in group 1 receive the hand-off.
    let client_vpes: Vec<VpeId> = (0..clients).map(|j| VpeId(j * 2)).collect();
    let build_ms = ms(t);

    // `root` is hop 0's capability (resolved selector when blocking,
    // promise selector when pipelined); `dep` the previous hop's.
    let hop_call = |hop: usize, client: VpeId, root: CapSel, dep: CapSel| match hop {
        0 => Syscall::CreateMem { size: 16 * 1024, perms: Perms::RW },
        1 => Syscall::DeriveMem { src: root, offset: 0, size: 4096, perms: Perms::R },
        2 => Syscall::Exchange {
            other: VpeId(client.0 ^ 1),
            own_sel: dep,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
        _ => Syscall::DeriveMem { src: root, offset: 4096, size: 4096, perms: Perms::R },
    };
    const HOPS: usize = 4;

    let kcalls_before = total_kcalls(m.machine());
    let dispatches_before = total_dispatches(m.machine());
    let t = Instant::now();
    let t0 = m.machine().now();
    if pipelined {
        // Submit every client's whole chain; each submission replies
        // with a promise immediately, so the kernels work on earlier
        // chains while later clients are still submitting, and hop 3
        // rides the per-VPE pipeline behind the in-flight hand-off.
        let mut tails = Vec::with_capacity(client_vpes.len());
        for &client in &client_vpes {
            let (mut root, mut dep) = (CapSel::INVALID, CapSel::INVALID);
            for hop in 0..HOPS {
                let call = Syscall::SubmitAsync(Box::new(hop_call(hop, client, root, dep)));
                let (reply, _) = m.machine().syscall_blocking(client, call);
                match reply.result {
                    Ok(SysReplyData::Promise { sel }) => dep = sel,
                    other => panic!("submission must yield a promise: {other:?}"),
                }
                if hop == 0 {
                    root = dep;
                }
            }
            tails.push((client, dep));
        }
        // Redeem only the tails: program order guarantees the earlier
        // hops completed when the tail resolves.
        for (client, tail) in tails {
            let (reply, _) = m
                .machine()
                .syscall_blocking(client, Syscall::WaitPromise { sel: tail, block: true });
            assert!(
                matches!(reply.result, Ok(SysReplyData::Mem { .. } | SysReplyData::Sel(_))),
                "tail must resolve to the read-back window: {reply:?}"
            );
        }
    } else {
        for &client in &client_vpes {
            let (mut root, mut dep) = (CapSel::INVALID, CapSel::INVALID);
            for hop in 0..HOPS {
                let (reply, _) =
                    m.machine().syscall_blocking(client, hop_call(hop, client, root, dep));
                dep = match reply.result.unwrap_or_else(|e| panic!("hop {hop} failed: {e}")) {
                    SysReplyData::Mem { sel, .. } => sel,
                    SysReplyData::Sel(sel) => sel,
                    _ => CapSel::INVALID,
                };
                if hop == 0 {
                    root = dep;
                }
            }
        }
    }
    m.machine().run_until_idle();
    let chain_cycles = (m.machine().now() - t0).0;
    let chain_ms = ms(t);
    m.machine().check_invariants();
    m.machine().assert_quiescent();

    let st = m.machine().kernel_stats();
    let promise = PromiseObs {
        created: st.iter().map(|s| s.promises_created).sum(),
        resolved: st.iter().map(|s| s.promises_resolved).sum(),
        pipelined: st.iter().map(|s| s.calls_pipelined).sum(),
    };
    Scenario {
        name: if pipelined { "service_chain_pipelined" } else { "service_chain_blocking" },
        size: u32::from(clients),
        build_ms,
        revoke_ms: chain_ms,
        revoke_cycles: chain_cycles,
        events: m.machine().events(),
        caps_deleted: total_caps_deleted(m.machine()),
        kcalls: total_kcalls(m.machine()) - kcalls_before,
        sweep: sweep_obs(m.machine(), dispatches_before),
        faults: FaultObs::default(),
        promise,
    }
}

/// In-binary A/B of the owner-table reverse removal: the seed's linear
/// scan (re-implemented here over the same `BTreeMap` shape it used)
/// against `CapTable::remove_key`, sweeping a `n`-entry table to empty.
fn table_sweep_ab(n: u32) -> (f64, f64, f64) {
    let key = |i: u32| DdlKey::new(PeId(0), VpeId(0), CapType::Memory, i);

    // Naive: the pre-refactor implementation of remove_key —
    // `slots.iter().find(|(_, k)| **k == key)` then remove. Removal runs
    // in reverse insertion order so the scan cannot luck into an early
    // exit (the general case: deletions uncorrelated with table order).
    let mut naive: std::collections::BTreeMap<CapSel, DdlKey> =
        (0..n).map(|i| (CapSel(i), key(i))).collect();
    let t = Instant::now();
    for i in (0..n).rev() {
        let k = key(i);
        let sel = naive.iter().find(|(_, kk)| **kk == k).map(|(s, _)| *s).expect("present");
        naive.remove(&sel);
    }
    let naive_ms = ms(t);
    assert!(naive.is_empty());

    let mut table = CapTable::new(0);
    for i in 0..n {
        table.insert(CapSel(i), key(i)).expect("fresh selector");
    }
    let t = Instant::now();
    for i in (0..n).rev() {
        assert!(table.remove_key(key(i)).is_some());
    }
    let optimized_ms = ms(t);
    assert!(table.is_empty());

    let speedup = if optimized_ms > 0.0 { naive_ms / optimized_ms } else { f64::INFINITY };
    (naive_ms, optimized_ms, speedup)
}

fn main() {
    let smoke = std::env::var("SCALE_CAPOPS_SMOKE").is_ok();
    let scale = if smoke { 16 } else { 1 };
    semper_bench::banner(
        "scale_capops: kernel hot-path bookkeeping at 10-100x paper scale",
        "Figures 4/5 and Table 3 methodology",
    );

    // Each scenario is one closed job over its own machine(s); the
    // runner executes them on `BENCH_THREADS` workers and returns the
    // rows in submission order, so the table, the assertions below and
    // the JSON report are byte-identical to a serial run.
    let jobs: Vec<(&'static str, Job<'static, Scenario>)> = vec![
        ("chain_revoke_local", Box::new(move || chain_revoke(4096 / scale, false))),
        ("chain_revoke_spanning", Box::new(move || chain_revoke(1024 / scale, true))),
        ("tree_revoke_wide", Box::new(move || tree_revoke(10_000 / scale, 10_000 / scale))),
        ("dense_table_teardown", Box::new(move || dense_table_teardown(10_000 / scale))),
        ("group_migration_ring", Box::new(move || group_migration(4096 / scale))),
        (
            "rebalance_under_load",
            Box::new(move || rebalance_under_load((48 / scale).max(3) as u16, 2)),
        ),
        ("spanning_revoke_sequential", Box::new(move || spanning_revoke(2048 / scale, false))),
        ("spanning_revoke_batched", Box::new(move || spanning_revoke(2048 / scale, true))),
        // Floor of 4 instances: with fewer, every client sits in a
        // group that hosts a service instance and no close ever crosses
        // a kernel — the twins would measure nothing.
        ("file_workload_sequential", Box::new(move || file_workload((8 / scale).max(4), false))),
        ("file_workload_batched", Box::new(move || file_workload((8 / scale).max(4), true))),
        (
            "dense_table_teardown_sequential",
            Box::new(move || dense_table_spanning(10_000 / scale, false)),
        ),
        (
            "dense_table_teardown_parallel",
            Box::new(move || dense_table_spanning(10_000 / scale, true)),
        ),
        ("faulted_spanning_teardown", Box::new(move || faulted_spanning_teardown(2048 / scale))),
        // Floor of 4 clients so the smoke run still has enough chains
        // in flight for the submissions to overlap kernel-side work.
        (
            "service_chain_blocking",
            Box::new(move || service_chain(((64 / scale).max(4)) as u16, false)),
        ),
        (
            "service_chain_pipelined",
            Box::new(move || service_chain(((64 / scale).max(4)) as u16, true)),
        ),
    ];
    let submitted: Vec<&'static str> = jobs.iter().map(|(n, _)| *n).collect();
    let runner = Runner::from_env();
    let threads = runner.threads();
    println!("harness threads: {threads} (BENCH_THREADS)");

    let t_suite = Instant::now();
    let scenarios = runner.run(jobs.into_iter().map(|(_, job)| job).collect());
    let wall_ms_total = ms(t_suite);

    // Report emission must not depend on completion order: the merge
    // sorts by submission index, and this pins it — a row out of place
    // here means the deterministic merge broke.
    let returned: Vec<&'static str> = scenarios.iter().map(|s| s.name).collect();
    assert_eq!(returned, submitted, "scenario rows must come back in submission order");

    println!(
        "{:<26} {:>7} {:>12} {:>12} {:>16} {:>14} {:>8}",
        "Scenario", "Size", "Build (ms)", "Revoke (ms)", "Caps deleted/s", "Sim cycles", "Kcalls"
    );
    for s in &scenarios {
        println!(
            "{:<26} {:>7} {:>12.1} {:>12.1} {:>16.0} {:>14} {:>8}",
            s.name,
            s.size,
            s.build_ms,
            s.revoke_ms,
            s.caps_per_sec(),
            s.revoke_cycles,
            s.kcalls
        );
    }

    // The bulk API's acceptance gate: each batched scenario must move
    // strictly fewer cross-kernel messages than its sequential twin
    // (deterministic — these are simulated message counts, not timings).
    for (seq_name, bat_name) in [
        ("spanning_revoke_sequential", "spanning_revoke_batched"),
        ("file_workload_sequential", "file_workload_batched"),
    ] {
        let seq = scenarios.iter().find(|s| s.name == seq_name).expect("sequential twin");
        let bat = scenarios.iter().find(|s| s.name == bat_name).expect("batched twin");
        assert!(
            bat.kcalls < seq.kcalls,
            "{bat_name}: {} cross-kernel messages, not fewer than {seq_name}'s {}",
            bat.kcalls,
            seq.kcalls
        );
        println!();
        println!(
            "{bat_name} vs {seq_name}: kcalls {} -> {} ({:.1}x fewer), \
             sim cycles {} -> {} ({:.2}x)",
            seq.kcalls,
            bat.kcalls,
            seq.kcalls as f64 / bat.kcalls.max(1) as f64,
            seq.revoke_cycles,
            bat.revoke_cycles,
            seq.revoke_cycles as f64 / bat.revoke_cycles.max(1) as f64,
        );
    }

    // The parallel sweep's acceptance gates: the parallel twin must
    // finish in at most 1/1.5 of the sequential twin's simulated
    // cycles, and must reach the final state in at most half the
    // host-side handler dispatches (both deterministic counters).
    {
        let seq = scenarios
            .iter()
            .find(|s| s.name == "dense_table_teardown_sequential")
            .expect("sequential sweep twin");
        let par = scenarios
            .iter()
            .find(|s| s.name == "dense_table_teardown_parallel")
            .expect("parallel sweep twin");
        assert!(
            par.revoke_cycles * 3 <= seq.revoke_cycles * 2,
            "parallel sweep: {} sim cycles, needed <= {} (1.5x under sequential's {})",
            par.revoke_cycles,
            seq.revoke_cycles * 2 / 3,
            seq.revoke_cycles
        );
        assert!(
            par.sweep.dispatches * 2 <= seq.sweep.dispatches,
            "parallel sweep: {} handler dispatches, not half of sequential's {}",
            par.sweep.dispatches,
            seq.sweep.dispatches
        );
        println!();
        println!(
            "dense_table_teardown_parallel vs sequential: sim cycles {} -> {} ({:.2}x fewer), \
             handler dispatches {} -> {} ({:.1}x fewer), \
             partitions {}, fan-out {}, depth {}",
            seq.revoke_cycles,
            par.revoke_cycles,
            seq.revoke_cycles as f64 / par.revoke_cycles.max(1) as f64,
            seq.sweep.dispatches,
            par.sweep.dispatches,
            seq.sweep.dispatches as f64 / par.sweep.dispatches.max(1) as f64,
            par.sweep.partitions,
            par.sweep.fanout,
            par.sweep.depth,
        );
    }

    // The promise protocol's acceptance gate: pipelining the dependent
    // service chains must finish the whole workload in strictly fewer
    // simulated cycles than issuing the same chains blocking, and every
    // promise the pipelined twin minted must have resolved
    // (deterministic — both are simulated counters).
    {
        let blk =
            scenarios.iter().find(|s| s.name == "service_chain_blocking").expect("blocking twin");
        let pip =
            scenarios.iter().find(|s| s.name == "service_chain_pipelined").expect("pipelined twin");
        assert!(
            pip.revoke_cycles < blk.revoke_cycles,
            "service_chain_pipelined: {} sim cycles, not under blocking's {}",
            pip.revoke_cycles,
            blk.revoke_cycles
        );
        assert!(
            pip.promise.created > 0 && pip.promise.created == pip.promise.resolved,
            "pipelined twin leaked promises: {} created, {} resolved",
            pip.promise.created,
            pip.promise.resolved
        );
        assert!(
            pip.promise.pipelined > 0,
            "pipelined twin never pipelined a call: the read-back hop must ride \
             the pipeline behind the in-flight hand-off"
        );
        println!();
        println!(
            "service_chain_pipelined vs blocking: sim cycles {} -> {} ({:.1}% saved), \
             promises {} created / {} resolved, {} calls pipelined",
            blk.revoke_cycles,
            pip.revoke_cycles,
            100.0 * (blk.revoke_cycles - pip.revoke_cycles) as f64 / blk.revoke_cycles as f64,
            pip.promise.created,
            pip.promise.resolved,
            pip.promise.pipelined,
        );
    }

    let ab_n = 10_000 / scale;
    let (naive_ms, optimized_ms, speedup) = table_sweep_ab(ab_n);
    println!();
    println!(
        "owner-table sweep A/B ({ab_n} entries): naive {naive_ms:.1} ms, \
         current {optimized_ms:.1} ms, speedup {speedup:.1}x"
    );

    println!();
    println!("suite wall-clock: {wall_ms_total:.1} ms at {threads} thread(s)");

    let mut fields = vec![
        ("pr", Val::U(13)),
        ("bench", Val::S("scale_capops".into())),
        ("smoke", Val::U(u64::from(smoke))),
        // Harness-level fields (PR 8): worker count and total suite
        // wall-clock. Top-level, so the scenario-row scan never sees
        // them; `wall_ms_total` is wall-clock and thus — like
        // `revoke_ms` — exempt from byte-identity.
        ("threads", Val::U(threads as u64)),
        ("wall_ms_total", Val::F(wall_ms_total)),
        ("scenarios", Val::Arr(scenarios.iter().map(Scenario::to_val).collect())),
        (
            "table_sweep_ab",
            Val::obj(vec![
                ("entries", Val::U(ab_n as u64)),
                ("naive_ms", Val::F(naive_ms)),
                ("optimized_ms", Val::F(optimized_ms)),
                ("speedup", Val::F(speedup)),
            ]),
        ),
    ];

    // Serial-vs-parallel wall-clock: BENCH_SERIAL_REF names a report
    // recorded by a serial (BENCH_THREADS=1) run of the same suite; its
    // total wall-clock is embedded and the parallel speedup computed.
    // BENCH_ASSERT_SPEEDUP=<min> makes the speedup a hard gate — only
    // meaningful on multi-core hosts, hence opt-in (see EXPERIMENTS.md).
    if let Ok(serial_path) = std::env::var("BENCH_SERIAL_REF") {
        let serial_wall = read_report(&serial_path).and_then(|r| r.wall_ms_total);
        match serial_wall {
            Some(serial_ms) if serial_ms > 0.0 && wall_ms_total > 0.0 => {
                let speedup = serial_ms / wall_ms_total;
                println!(
                    "serial reference {serial_path}: {serial_ms:.1} ms -> {wall_ms_total:.1} ms \
                     at {threads} thread(s) ({speedup:.2}x)"
                );
                fields.push(("serial_wall_ms_total", Val::F(serial_ms)));
                fields.push(("parallel_speedup", Val::F(speedup)));
                if let Ok(min) = std::env::var("BENCH_ASSERT_SPEEDUP") {
                    let min: f64 = min.parse().expect("BENCH_ASSERT_SPEEDUP must be a number");
                    if speedup < min {
                        eprintln!(
                            "BENCH_ASSERT_SPEEDUP: {speedup:.2}x at {threads} threads, \
                             needed >= {min:.2}x over {serial_path}"
                        );
                        std::process::exit(1);
                    }
                }
            }
            _ => {
                eprintln!(
                    "warning: BENCH_SERIAL_REF={serial_path} has no wall_ms_total; \
                     skipping speedup comparison"
                );
                if std::env::var("BENCH_ASSERT_SPEEDUP").is_ok() {
                    eprintln!("BENCH_ASSERT_SPEEDUP: unreadable serial reference fails the gate");
                    std::process::exit(1);
                }
            }
        }
    }

    let enforce = std::env::var("BENCH_ENFORCE_CYCLES").is_ok();
    let mut cycle_drift = Vec::new();
    if let Ok(baseline_path) = std::env::var("BENCH_BASELINE") {
        if let Some(base) = read_report(&baseline_path) {
            let mut cmp = Vec::new();
            let mut comparable_rows = 0u32;
            for s in &scenarios {
                let Some(row) = base.rows.iter().find(|r| r.name == s.name) else { continue };
                let speedup = if s.revoke_ms > 0.0 { row.revoke_ms / s.revoke_ms } else { 0.0 };
                // Simulated cycles are comparable only at identical
                // scenario size (smoke and full reports differ).
                let cycles_comparable = row.size == u64::from(s.size);
                comparable_rows += u32::from(cycles_comparable);
                let cycles_identical = s.revoke_cycles == row.revoke_sim_cycles;
                // Host wall-clock is noisy, so regressions only warn —
                // but a >1.5x slowdown at identical size and identical
                // simulated work means the host-side implementation got
                // slower (the PR 4 -> PR 6 dense-table case) and
                // deserves a look.
                if cycles_comparable && row.revoke_ms > 0.0 && s.revoke_ms > 1.5 * row.revoke_ms {
                    eprintln!(
                        "warning: {} host time {:.1} ms is {:.1}x the baseline's {:.1} ms \
                         (soft gate; sim cycles {})",
                        s.name,
                        s.revoke_ms,
                        s.revoke_ms / row.revoke_ms,
                        row.revoke_ms,
                        if cycles_identical { "identical" } else { "differ" }
                    );
                }
                if cycles_comparable && !cycles_identical {
                    cycle_drift.push(format!(
                        "{}: {} cycles vs baseline {}",
                        s.name, s.revoke_cycles, row.revoke_sim_cycles
                    ));
                }
                cmp.push(Val::obj(vec![
                    ("name", Val::S(s.name.into())),
                    ("baseline_revoke_ms", Val::F(row.revoke_ms)),
                    ("revoke_ms", Val::F(s.revoke_ms)),
                    ("speedup", Val::F(speedup)),
                    ("baseline_sim_cycles", Val::U(row.revoke_sim_cycles)),
                    (
                        "sim_cycles_identical",
                        Val::U(u64::from(cycles_comparable && cycles_identical)),
                    ),
                ]));
                println!(
                    "vs baseline {:<24} {:>8.1} ms -> {:>8.1} ms  ({:.1}x)  cycles {}",
                    s.name,
                    row.revoke_ms,
                    s.revoke_ms,
                    row.revoke_ms / s.revoke_ms.max(1e-9),
                    if !cycles_comparable {
                        "n/a (size differs)"
                    } else if cycles_identical {
                        "identical"
                    } else {
                        "DRIFTED"
                    }
                );
            }
            fields.push(("baseline", Val::S(baseline_path.clone())));
            fields.push(("vs_baseline", Val::Arr(cmp)));
            if enforce && comparable_rows == 0 {
                // The gate must not pass vacuously: an empty or
                // format-drifted baseline compares nothing.
                eprintln!(
                    "BENCH_ENFORCE_CYCLES: no scenario of {baseline_path} was comparable \
                     (empty or format-drifted baseline); refusing to pass the cycle gate"
                );
                std::process::exit(1);
            }
        } else {
            eprintln!("warning: BENCH_BASELINE set but unreadable; skipping comparison");
            if enforce {
                eprintln!("BENCH_ENFORCE_CYCLES: unreadable baseline fails the cycle gate");
                std::process::exit(1);
            }
        }
    }

    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR13.json");
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| default_out.to_string());
    let json = render(&Val::obj(fields));
    std::fs::write(&out_path, json).expect("write benchmark report");
    println!();
    println!("report written to {out_path}");

    if !cycle_drift.is_empty() {
        eprintln!();
        eprintln!("simulated cycles drifted from the baseline:");
        for d in &cycle_drift {
            eprintln!("  {d}");
        }
        eprintln!("(bit-identical cycles are the determinism contract; see EXPERIMENTS.md)");
        if enforce {
            std::process::exit(1);
        }
    }
}
