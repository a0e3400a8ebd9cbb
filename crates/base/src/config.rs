//! Machine- and experiment-level configuration.
//!
//! A [`MachineConfig`] describes the simulated hardware (PE count, mesh
//! shape, DTU limits) and the OS deployment (how many kernels and service
//! instances, which protocol features are enabled). The defaults mirror
//! the paper's testbed (§5.1): 640 PEs, DTUs with 16 endpoints × 32
//! message slots, at most 4 in-flight inter-kernel messages per kernel
//! pair, and at most 64 kernels.

use crate::cost::CostModel;
use serde::{Deserialize, Serialize};

/// Number of endpoints per DTU (paper §5.1).
pub const EP_COUNT: u8 = 16;
/// Maximum number of kernels the system supports (paper §5.1: 8 receive
/// endpoints for kernels × 8 kernels each... bounded at 64).
pub const MAX_KERNELS: u16 = 64;
/// Maximum PEs one kernel can handle (paper §5.1: 6 syscall receive
/// endpoints × 32 slots = 192 VPEs, one blocking syscall each).
pub const MAX_PES_PER_KERNEL: u16 = 192;
/// Default maximum in-flight inter-kernel messages per kernel pair
/// (paper §5.1).
pub const DEFAULT_MAX_INFLIGHT: u32 = 4;

/// Whether the system runs as the SemperOS multikernel or as the M3
/// single-kernel baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelMode {
    /// M3 baseline: exactly one kernel, plain-pointer capability
    /// references (no DDL decode overhead).
    M3,
    /// SemperOS: multiple kernels, DDL-keyed capability references.
    SemperOS,
}

/// Optional protocol features (for ablation experiments): each one
/// changes which messages a kernel sends. Mechanisms that are inert
/// until used are not features — fail-stop fault handling arms with the
/// harness's `FaultPlan` (`TestCluster::set_fault_plan`). Revocation has two
/// drivers, both the paper's: Algorithm 1 (the default) and its §5.2
/// batching ([`Feature::RevokeBatching`]). The other feature is the
/// paper's handshake ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Feature {
    /// Batch revoke requests to the same remote kernel into one message
    /// (the paper's proposed message-batching optimisation, §5.2).
    RevokeBatching,
    /// *Disable* the two-way delegate handshake (ablation: demonstrates
    /// the invalid-capability window of the naive protocol; never enable
    /// outside the ablation benchmark).
    OneWayDelegate,
}

/// Full description of a simulated machine and its OS deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Total number of PEs (kernel + service + application + idle).
    pub num_pes: u16,
    /// Width of the square-ish mesh used for hop-count computation.
    pub mesh_width: u16,
    /// Number of kernel PEs (= number of PE groups).
    pub kernels: u16,
    /// Number of m3fs service instances.
    pub services: u16,
    /// Kernel mode (M3 baseline or SemperOS multikernel).
    pub mode: KernelMode,
    /// Maximum in-flight inter-kernel messages per kernel pair.
    pub max_inflight: u32,
    /// Enabled optional features.
    pub features: Vec<Feature>,
    /// The cycle-cost model.
    pub cost: CostModel,
}

impl MachineConfig {
    /// A small default machine: 1 kernel, 1 service, SemperOS mode.
    pub fn small() -> MachineConfig {
        MachineConfig {
            num_pes: 16,
            mesh_width: 4,
            kernels: 1,
            services: 1,
            mode: KernelMode::SemperOS,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            features: Vec::new(),
            cost: CostModel::calibrated(),
        }
    }

    /// The paper's full testbed: 640 PEs in a 32×20 mesh.
    pub fn paper_testbed(kernels: u16, services: u16) -> MachineConfig {
        MachineConfig {
            num_pes: 640,
            mesh_width: 32,
            kernels,
            services,
            mode: KernelMode::SemperOS,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            features: Vec::new(),
            cost: CostModel::calibrated(),
        }
    }

    /// M3 baseline on the same hardware: one kernel, plain references.
    pub fn m3_baseline(num_pes: u16) -> MachineConfig {
        MachineConfig {
            num_pes,
            mesh_width: mesh_width_for(num_pes),
            kernels: 1,
            services: 1,
            mode: KernelMode::M3,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            features: Vec::new(),
            cost: CostModel::calibrated(),
        }
    }

    /// True if the given feature is enabled.
    pub fn has_feature(&self, f: Feature) -> bool {
        self.features.contains(&f)
    }

    /// Enables a feature (builder style).
    pub fn with_feature(mut self, f: Feature) -> MachineConfig {
        if !self.features.contains(&f) {
            self.features.push(f);
        }
        self
    }

    /// Kernel thread-pool size per the paper's formula (§4.2):
    /// `V_group + K_max * M_inflight`, where `V_group` is the number of
    /// VPEs in this kernel's group (one blocking system call each).
    /// `Kernel::park` checks every thread-holding operation against it.
    pub fn thread_pool_size(&self, vpes_in_group: u32) -> u32 {
        vpes_in_group + self.kernels as u32 * self.max_inflight
    }

    /// Validates structural constraints; returns a human-readable reason
    /// on failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.kernels == 0 {
            return Err("at least one kernel required".into());
        }
        if self.kernels > MAX_KERNELS {
            return Err(format!("at most {MAX_KERNELS} kernels supported"));
        }
        if self.mode == KernelMode::M3 && self.kernels != 1 {
            return Err("M3 mode uses exactly one kernel".into());
        }
        if self.num_pes < self.kernels + self.services {
            return Err("not enough PEs for kernels and services".into());
        }
        let per_kernel = self.num_pes / self.kernels;
        if per_kernel > MAX_PES_PER_KERNEL {
            return Err(format!(
                "a kernel would manage {per_kernel} PEs, max is {MAX_PES_PER_KERNEL}"
            ));
        }
        if self.mesh_width == 0
            || (self.mesh_width as u32 * self.mesh_width as u32) < self.num_pes as u32 / 2
        {
            return Err("mesh too small for PE count".into());
        }
        Ok(())
    }
}

/// Picks a reasonable mesh width for a PE count (roughly square).
pub fn mesh_width_for(num_pes: u16) -> u16 {
    let mut w = 1u16;
    while (w as u32) * (w as u32) < num_pes as u32 {
        w += 1;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_validates() {
        assert_eq!(MachineConfig::small().validate(), Ok(()));
    }

    #[test]
    fn paper_testbed_validates() {
        assert_eq!(MachineConfig::paper_testbed(32, 32).validate(), Ok(()));
        assert_eq!(MachineConfig::paper_testbed(64, 64).validate(), Ok(()));
    }

    #[test]
    fn m3_mode_requires_single_kernel() {
        let mut c = MachineConfig::m3_baseline(64);
        assert_eq!(c.validate(), Ok(()));
        c.kernels = 2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn kernel_capacity_enforced() {
        let mut c = MachineConfig::paper_testbed(2, 1);
        c.num_pes = 640; // 320 PEs per kernel > 192
        assert!(c.validate().is_err());
    }

    #[test]
    fn thread_pool_formula() {
        let c = MachineConfig::paper_testbed(64, 32);
        assert_eq!(c.thread_pool_size(9), 9 + 64 * 4);
    }

    #[test]
    fn mesh_width_covers() {
        assert_eq!(mesh_width_for(640), 26);
        assert_eq!(mesh_width_for(16), 4);
        assert_eq!(mesh_width_for(1), 1);
    }

    #[test]
    fn features_builder() {
        let c = MachineConfig::small().with_feature(Feature::RevokeBatching);
        assert!(c.has_feature(Feature::RevokeBatching));
        assert!(!c.has_feature(Feature::OneWayDelegate));
    }
}
