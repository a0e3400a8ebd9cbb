//! Cycle pins at 10–100× the paper's evaluation scale.
//!
//! The paper's revocation experiments (Figures 4 and 5) stop at chains
//! and trees of ~100 capabilities. These seven scenarios push the same
//! shapes — and the protocols added on top of them — to thousands of
//! capabilities, and pin every *deterministic* output of each run:
//! simulated cycles, events, capabilities deleted, cross-kernel
//! requests and handler dispatches.
//! Host time is not measured here; that is `benchmark/`'s job.
//!
//! One test runs all scenarios at two scales (the full sizes and the
//! same shapes ÷16) and compares every field of every row with
//! `tests/goldens/scale_capops.txt`. A mismatch prints the expected and
//! the actual line in the golden's own format: after an intentional
//! cost-model or protocol change, paste the actual lines over the
//! expected ones and say so in CHANGES.md. Anything else that moves a
//! line is a regression.

use semper_apps::AppKind;
use semper_base::{CapSel, KernelMode, MachineConfig};
use semper_kernel::KernelStats;
use semperos::experiment::{run_app_instances, MicroMachine};
use semperos::machine::Machine;
use semperos::{Job, Runner};

/// One scenario's deterministic outputs, in golden order.
struct Row {
    name: &'static str,
    fields: Vec<(&'static str, u64)>,
}

impl Row {
    /// `before` is the kernels' statistics where the measured phase
    /// starts: requests and dispatches are counted from there (the
    /// counters cover machine construction too); deletions cover the
    /// whole run.
    fn new(
        name: &'static str,
        size: u32,
        sim_cycles: u64,
        events: u64,
        before: &[KernelStats],
        after: &[KernelStats],
    ) -> Row {
        let total = |f: fn(&KernelStats) -> u64| after.iter().map(f).sum::<u64>();
        let delta = |f: fn(&KernelStats) -> u64| total(f) - before.iter().map(f).sum::<u64>();
        let fields = vec![
            ("size", u64::from(size)),
            ("sim_cycles", sim_cycles),
            ("events", events),
            ("caps_deleted", total(|s| s.caps_deleted)),
            ("kcalls", delta(|s| s.kcalls_out)),
            ("handler_dispatches", delta(|s| s.handler_dispatches)),
        ];
        Row { name, fields }
    }

    /// The row of a phase measured on `m`.
    fn of(
        name: &'static str,
        size: u32,
        sim_cycles: u64,
        m: &Machine,
        before: &[KernelStats],
    ) -> Row {
        Row::new(name, size, sim_cycles, m.events(), before, &m.kernel_stats())
    }

    fn line(&self, scale: &str) -> String {
        let mut line = format!("scale={scale} name={}", self.name);
        for (k, v) in &self.fields {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }
}

/// Deep chain (Figure 4 at 40×): a delegation chain of `len` links
/// ping-ponging between two VPEs — of one group, or of two groups for
/// the adversarial cross-kernel chain of §5.2 — then one revoke of the
/// root.
fn chain_revoke(len: u32, spanning: bool) -> Row {
    let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
    let a = m.vpe(0, 0);
    let b = if spanning { m.vpe(1, 0) } else { m.vpe(0, 1) };
    let root = m.create_mem(a);
    let mut holder = a;
    let mut sel = root;
    for _ in 0..len {
        let next = if holder == a { b } else { a };
        let (nsel, _) = m.delegate(holder, next, sel);
        holder = next;
        sel = nsel;
    }

    let before = m.machine().kernel_stats();
    let cycles = m.revoke(a, root);
    let name = if spanning { "chain_revoke_spanning" } else { "chain_revoke_local" };
    Row::of(name, len + 1, cycles, m.machine(), &before)
}

/// Wide tree (Figure 5 at 100×): the root delegated to `children` copies
/// held by one VPE whose table already holds `prefill` unrelated
/// long-lived capabilities (the dense table of a service or nginx
/// worker, §5.3.3), then one revoke of the root. The prefill is what
/// would expose a linear owner-table sweep: every deletion has to get
/// past the unrelated entries.
fn tree_revoke(children: u32, prefill: u32) -> Row {
    let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
    let a = m.vpe(0, 0);
    let b = m.vpe(0, 1);
    for _ in 0..prefill {
        let _ = m.create_mem(b);
    }
    let root = m.create_mem(a);
    for _ in 0..children {
        let _ = m.delegate(a, b, root);
    }

    let before = m.machine().kernel_stats();
    let cycles = m.revoke(a, root);
    Row::of("tree_revoke_wide", children + 1, cycles, m.machine(), &before)
}

/// Dense table: one VPE holds `caps` capabilities, torn down one revoke
/// at a time in reverse allocation order (the nested open/close pattern
/// of §5.3.3).
fn dense_table_teardown(caps: u32) -> Row {
    let mut m = MicroMachine::new(1, 2, KernelMode::SemperOS);
    let a = m.vpe(0, 0);
    let sels: Vec<CapSel> = (0..caps).map(|_| m.create_mem(a)).collect();

    let before = m.machine().kernel_stats();
    let cycles = sels.into_iter().rev().map(|sel| m.revoke(a, sel)).sum();
    Row::of("dense_table_teardown", caps, cycles, m.machine(), &before)
}

/// Dense spanning teardown: one VPE of group 0 owns `caps`
/// capabilities, each delegated once round-robin to groups 1–3, so the
/// revocation subtree spans three peer kernels. Teardown is one
/// blocking `Revoke` per capability in reverse allocation order.
fn dense_table_spanning(caps: u32) -> Row {
    let mut m = MicroMachine::new(4, 2, KernelMode::SemperOS);
    let a = m.vpe(0, 0);
    let sels: Vec<CapSel> = (0..caps).map(|_| m.create_mem(a)).collect();
    for (i, sel) in sels.iter().enumerate() {
        let to = m.vpe(1 + (i as u16 % 3), 0);
        let _ = m.delegate(a, to, *sel);
    }

    let before = m.machine().kernel_stats();
    let cycles = sels.into_iter().rev().map(|sel| m.revoke(a, sel)).sum();
    m.machine().check_invariants();
    Row::of("dense_table_teardown_spanning", caps, cycles, m.machine(), &before)
}

/// Spanning revoke: one VPE of group 0 owns `n` capabilities, each
/// delegated once to a VPE of group 1, so every revoke has exactly one
/// remote child. Teardown is `n` separate `Revoke` syscalls.
fn spanning_revoke(n: u32) -> Row {
    let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
    let a = m.vpe(0, 0);
    let b = m.vpe(1, 0);
    let sels: Vec<CapSel> = (0..n).map(|_| m.create_mem(a)).collect();
    for sel in &sels {
        let _ = m.delegate(a, b, *sel);
    }

    let before = m.machine().kernel_stats();
    let cycles = sels.into_iter().map(|sel| m.revoke(a, sel)).sum();
    m.machine().check_invariants();
    Row::of("spanning_revoke", n, cycles, m.machine(), &before)
}

/// File workload: `instances` tar replays against m3fs on a
/// 4-kernel/2-service machine — fewer services than kernels, so half
/// the clients open *cross-group* sessions and their extent
/// capabilities span kernels. `sim_cycles` is the run's makespan and
/// every counter covers the whole run.
fn file_workload(instances: u32) -> Row {
    let mut cfg = MachineConfig::small();
    cfg.num_pes = 24;
    cfg.kernels = 4;
    cfg.services = 2;
    cfg.mesh_width = semper_base::config::mesh_width_for(cfg.num_pes);
    let res = run_app_instances(&cfg, AppKind::Tar, instances);
    Row::new("file_workload", instances, res.makespan, res.events, &[], &res.kernel_stats)
}

/// The seven scenarios with every size divided by `div` (1 = the full
/// sizes the module docs quote).
fn suite(div: u32) -> Vec<Job<'static, Row>> {
    // Floor: with fewer than 4 tar instances every client sits in a
    // group that hosts a service and no close ever crosses a kernel.
    let instances = (8 / div).max(4);
    vec![
        Box::new(move || chain_revoke(4096 / div, false)),
        Box::new(move || chain_revoke(1024 / div, true)),
        Box::new(move || tree_revoke(10_000 / div, 10_000 / div)),
        Box::new(move || dense_table_teardown(10_000 / div)),
        Box::new(move || spanning_revoke(2048 / div)),
        Box::new(move || file_workload(instances)),
        Box::new(move || dense_table_spanning(10_000 / div)),
    ]
}

/// Every deterministic field of every scenario, at both scales, against
/// the committed golden. The scenarios are independent machines, so they
/// run on four harness workers; rows come back in submission order.
#[test]
fn scale_capops_rows_match_golden() {
    let scales = [("smoke", 16), ("full", 1)];
    let jobs: Vec<_> = scales.iter().flat_map(|(_, div)| suite(*div)).collect();
    let per_scale = jobs.len() / scales.len();
    let rows = Runner::new(4).run(jobs);

    let mut actual = Vec::new();
    for ((scale, _), rows) in scales.iter().zip(rows.chunks(per_scale)) {
        actual.extend(rows.iter().map(|r| r.line(scale)));
    }
    let expected: Vec<&str> = include_str!("goldens/scale_capops.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();

    let mut report = String::new();
    for i in 0..expected.len().max(actual.len()) {
        let (e, a) = (expected.get(i).copied(), actual.get(i).map(String::as_str));
        if e != a {
            report.push_str(&format!(
                "expected: {}\n  actual: {}\n",
                e.unwrap_or("(no line)"),
                a.unwrap_or("(no line)")
            ));
        }
    }
    assert!(
        report.is_empty(),
        "scale_capops rows differ from tests/goldens/scale_capops.txt:\n{report}\
         If a cost-model or protocol change moved them on purpose, paste the actual \
         lines over the expected ones and say so in CHANGES.md."
    );
}
