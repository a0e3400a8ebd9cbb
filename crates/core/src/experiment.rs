//! Experiment drivers for the paper's evaluation (§5).
//!
//! Three families:
//!
//! * [`MicroMachine`] — capability-operation latency microbenchmarks
//!   (Table 3, Figures 4 and 5) on stub VPEs.
//! * [`run_app_instances`] / [`parallel_efficiency`] — the application
//!   benchmarks (Table 4, Figures 6-9): N trace-replay instances against
//!   kernels and m3fs instances, measuring per-instance runtimes.
//! * [`run_nginx`] — the webserver throughput experiment (Figure 10).

use semper_apps::AppKind;
use semper_base::msg::{Perms, SysReplyData, Syscall};
use semper_base::{CapSel, ExchangeKind, KernelMode, MachineConfig, VpeId};
use semper_kernel::KernelStats;
use semper_sim::Cycles;

use crate::machine::{Machine, Workload};

/// A machine populated with stub VPEs for latency microbenchmarks.
///
/// Stub VPEs are assigned round-robin to groups: stub `i` lives in group
/// `i mod kernels`, so `(0, kernels)` is a same-group pair and `(0, 1)`
/// spans two groups (when `kernels > 1`).
pub struct MicroMachine {
    machine: Machine,
    kernels: u16,
}

impl MicroMachine {
    /// Builds a machine with `kernels` kernels and `vpes_per_group` stub
    /// VPEs per group.
    pub fn new(kernels: u16, vpes_per_group: u16, mode: KernelMode) -> MicroMachine {
        let vpes = kernels as u32 * vpes_per_group as u32;
        let mut cfg = MachineConfig::small();
        cfg.mode = mode;
        cfg.kernels = kernels;
        cfg.services = 0;
        cfg.num_pes = kernels * (1 + vpes_per_group);
        cfg.mesh_width = semper_base::config::mesh_width_for(cfg.num_pes);
        let machine = Machine::build(cfg, vpes, 0, Workload::Micro);
        MicroMachine { machine, kernels }
    }

    /// The underlying machine.
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The stub VPE `j` of group `g`.
    pub fn vpe(&self, g: u16, j: u16) -> VpeId {
        VpeId(g + j * self.kernels)
    }

    /// Creates a memory capability at `vpe`; returns its selector.
    pub fn create_mem(&mut self, vpe: VpeId) -> CapSel {
        let (r, _) =
            self.machine.syscall_blocking(vpe, Syscall::CreateMem { size: 4096, perms: Perms::RW });
        match r.result {
            Ok(SysReplyData::Mem { sel, .. }) => sel,
            other => panic!("create_mem failed: {other:?}"),
        }
    }

    /// `to` obtains `from`'s capability at `sel`; returns (selector,
    /// cycles).
    pub fn obtain(&mut self, to: VpeId, from: VpeId, sel: CapSel) -> (CapSel, u64) {
        let (r, cycles) = self.machine.syscall_blocking(
            to,
            Syscall::Exchange {
                other: from,
                own_sel: CapSel::INVALID,
                other_sel: sel,
                kind: ExchangeKind::Obtain,
            },
        );
        match r.result {
            Ok(SysReplyData::Sel(s)) => (s, cycles),
            other => panic!("obtain failed: {other:?}"),
        }
    }

    /// `from` delegates its capability at `sel` to `to`; returns
    /// (receiver selector, cycles).
    pub fn delegate(&mut self, from: VpeId, to: VpeId, sel: CapSel) -> (CapSel, u64) {
        let (r, cycles) = self.machine.syscall_blocking(
            from,
            Syscall::Exchange {
                other: to,
                own_sel: sel,
                other_sel: CapSel::INVALID,
                kind: ExchangeKind::Delegate,
            },
        );
        match r.result {
            Ok(SysReplyData::Delegated { recv_sel }) => (recv_sel, cycles),
            other => panic!("delegate failed: {other:?}"),
        }
    }

    /// Revokes `vpe`'s capability at `sel`; returns cycles.
    pub fn revoke(&mut self, vpe: VpeId, sel: CapSel) -> u64 {
        let (r, cycles) = self.machine.syscall_blocking(vpe, Syscall::Revoke { sel, own: true });
        assert!(r.result.is_ok(), "revoke failed: {:?}", r.result);
        cycles
    }

    /// Table 3 row: one group-local exchange (obtain between two VPEs of
    /// group 0).
    pub fn measure_exchange_local(&mut self) -> u64 {
        let a = self.vpe(0, 0);
        let b = self.vpe(0, 1);
        let sel = self.create_mem(a);
        let (_, cycles) = self.obtain(b, a, sel);
        cycles
    }

    /// Table 3 row: one group-spanning exchange (requires ≥ 2 kernels).
    pub fn measure_exchange_spanning(&mut self) -> u64 {
        assert!(self.kernels >= 2);
        let a = self.vpe(0, 0);
        let b = self.vpe(1, 0);
        let sel = self.create_mem(a);
        let (_, cycles) = self.obtain(b, a, sel);
        cycles
    }

    /// Table 3 row: revoke after a group-local exchange.
    pub fn measure_revoke_local(&mut self) -> u64 {
        let a = self.vpe(0, 0);
        let b = self.vpe(0, 1);
        let sel = self.create_mem(a);
        let _ = self.obtain(b, a, sel);
        self.revoke(a, sel)
    }

    /// Table 3 row: revoke after a group-spanning exchange.
    pub fn measure_revoke_spanning(&mut self) -> u64 {
        assert!(self.kernels >= 2);
        let a = self.vpe(0, 0);
        let b = self.vpe(1, 0);
        let sel = self.create_mem(a);
        let _ = self.obtain(b, a, sel);
        self.revoke(a, sel)
    }

    /// Figure 4: build a delegation chain of `len` capabilities by
    /// ping-ponging between two VPEs, then revoke the root. Returns the
    /// revocation time in cycles.
    ///
    /// `spanning = false` keeps both VPEs in group 0 (the local chain);
    /// `spanning = true` alternates between groups 0 and 1 (the
    /// adversarial cross-kernel chain of §5.2).
    pub fn measure_chain_revoke(&mut self, len: u32, spanning: bool) -> u64 {
        let a = self.vpe(0, 0);
        let b = if spanning { self.vpe(1, 0) } else { self.vpe(0, 1) };
        let root = self.create_mem(a);
        let mut holder = a;
        let mut sel = root;
        for _ in 0..len {
            let next = if holder == a { b } else { a };
            let (nsel, _) = self.delegate(holder, next, sel);
            holder = next;
            sel = nsel;
        }
        self.revoke(a, root)
    }

    /// Figure 5: delegate `children` copies of one capability to VPEs
    /// spread over `child_kernels` other kernels (0 = all children stay
    /// in the root's group), then revoke the root. Returns the
    /// revocation time in cycles.
    pub fn measure_tree_revoke(&mut self, children: u32, child_kernels: u16) -> u64 {
        let a = self.vpe(0, 0);
        let root = self.create_mem(a);
        for c in 0..children {
            let to = if child_kernels == 0 {
                self.vpe(0, 1)
            } else {
                // Spread across groups 1..=child_kernels.
                self.vpe(1 + (c % child_kernels as u32) as u16, 0)
            };
            let _ = self.delegate(a, to, root);
        }
        self.revoke(a, root)
    }
}

/// Result of one application-benchmark run.
#[derive(Debug, Clone)]
pub struct AppRunResult {
    /// Per-instance runtimes in cycles (session open through last op).
    pub durations: Vec<u64>,
    /// End of the simulation (cycles).
    pub makespan: u64,
    /// Capability operations per instance trace, summed over kernels:
    /// exchanges + revokes + sessions.
    pub cap_ops: u64,
    /// Events processed by the machine over the whole run.
    pub events: u64,
    /// Per-kernel statistics.
    pub kernel_stats: Vec<KernelStats>,
}

impl AppRunResult {
    /// Mean instance runtime in cycles.
    pub fn mean_duration(&self) -> f64 {
        if self.durations.is_empty() {
            return 0.0;
        }
        self.durations.iter().map(|&d| d as f64).sum::<f64>() / self.durations.len() as f64
    }

    /// Capability operations per second of simulated time, over the
    /// whole run (Table 4's "cap ops/s").
    pub fn cap_ops_per_sec(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.cap_ops as f64 / Cycles(self.makespan).as_secs()
    }
}

/// Runs `instances` copies of `app` on `cfg`; returns the measurements.
pub fn run_app_instances(cfg: &MachineConfig, app: AppKind, instances: u32) -> AppRunResult {
    let traces = (0..instances).map(|i| app.trace(i)).collect::<Vec<_>>();
    let mut m = Machine::build(cfg.clone(), instances, 0, Workload::Apps(traces));
    m.boot_os();
    let base = m.start_clients();
    m.run_until_idle();
    m.check_invariants();
    assert_eq!(m.refused_sends(), 0, "the intake rule refused a legitimate send");

    let mut durations = Vec::new();
    for (c, (start, end)) in m.client_times() {
        let end = end.unwrap_or_else(|| panic!("client {c} never finished"));
        durations.push((end - *start).0);
    }
    let kernel_stats = m.kernel_stats();
    let cap_ops: u64 = kernel_stats.iter().map(|s| s.cap_ops() + s.sessions_opened).sum();
    AppRunResult {
        durations,
        makespan: (m.now() - base).0,
        cap_ops,
        events: m.events(),
        kernel_stats,
    }
}

/// Parallel efficiency (§5.3.1): mean single-instance runtime divided by
/// mean runtime at `n` instances, in percent.
pub fn parallel_efficiency(single_mean: f64, parallel_mean: f64) -> f64 {
    if parallel_mean == 0.0 {
        return 0.0;
    }
    100.0 * single_mean / parallel_mean
}

/// System efficiency (Figure 9): parallel efficiency scaled by the
/// fraction of PEs doing application work (OS PEs count as efficiency
/// zero).
pub fn system_efficiency(parallel_eff: f64, instances: u32, os_pes: usize) -> f64 {
    let total = instances as f64 + os_pes as f64;
    parallel_eff * instances as f64 / total
}

/// Result of one Nginx throughput run.
#[derive(Debug, Clone, Copy)]
pub struct NginxResult {
    /// Requests completed in the measurement window.
    pub completed: u64,
    /// Window length in cycles.
    pub window: u64,
    /// Requests per second of simulated time.
    pub requests_per_sec: f64,
}

/// Runs the webserver experiment: `servers` webserver processes,
/// `loadgens` network-interface PEs with `depth` outstanding requests
/// per (generator, server) pair. Measures throughput over
/// `measure_cycles` after `warmup_cycles`.
pub fn run_nginx(
    cfg: &MachineConfig,
    servers: u16,
    loadgens: u16,
    depth: u32,
    warmup_cycles: u64,
    measure_cycles: u64,
) -> NginxResult {
    let mut m = Machine::build(cfg.clone(), servers as u32, loadgens, Workload::Nginx { depth });
    m.boot_os();
    m.start_nginx();
    let t0 = m.now();
    m.run_until(t0 + warmup_cycles);
    let before = m.loadgen_completed();
    m.run_until(t0 + warmup_cycles + measure_cycles);
    let after = m.loadgen_completed();
    let completed = after - before;
    NginxResult {
        completed,
        window: measure_cycles,
        requests_per_sec: completed as f64 / Cycles(measure_cycles).as_secs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_local_vs_spanning() {
        let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
        let local = m.measure_exchange_local();
        let spanning = m.measure_exchange_spanning();
        assert!(spanning > local, "spanning {spanning} !> local {local}");
        let rl = m.measure_revoke_local();
        let rs = m.measure_revoke_spanning();
        assert!(rs > rl, "spanning revoke {rs} !> local {rl}");
    }

    #[test]
    fn semperos_local_slower_than_m3() {
        let mut semper = MicroMachine::new(1, 2, KernelMode::SemperOS);
        let mut m3 = MicroMachine::new(1, 2, KernelMode::M3);
        let s = semper.measure_exchange_local();
        let m = m3.measure_exchange_local();
        assert!(s > m, "SemperOS local exchange {s} !> M3 {m} (DDL overhead)");
    }

    #[test]
    fn chain_revoke_grows_with_length() {
        let mut m = MicroMachine::new(2, 2, KernelMode::SemperOS);
        let short = m.measure_chain_revoke(5, false);
        let mut m2 = MicroMachine::new(2, 2, KernelMode::SemperOS);
        let long = m2.measure_chain_revoke(40, false);
        assert!(long > short, "long chain {long} !> short {short}");
    }

    #[test]
    fn spanning_chain_costs_more() {
        let mut a = MicroMachine::new(2, 2, KernelMode::SemperOS);
        let local = a.measure_chain_revoke(20, false);
        let mut b = MicroMachine::new(2, 2, KernelMode::SemperOS);
        let spanning = b.measure_chain_revoke(20, true);
        assert!(spanning > local, "spanning {spanning} !> local {local}");
    }

    #[test]
    fn small_app_run_completes() {
        let mut cfg = MachineConfig::small();
        cfg.num_pes = 16;
        cfg.kernels = 2;
        cfg.services = 2;
        let res = run_app_instances(&cfg, AppKind::Find, 4);
        assert_eq!(res.durations.len(), 4);
        assert!(res.cap_ops >= 4 * AppKind::Find.paper_cap_ops());
        assert!(res.mean_duration() > 0.0);
    }

    #[test]
    fn efficiency_math() {
        assert_eq!(parallel_efficiency(100.0, 125.0), 80.0);
        let se = system_efficiency(80.0, 512, 64);
        assert!((se - 80.0 * 512.0 / 576.0).abs() < 1e-9);
    }
}
