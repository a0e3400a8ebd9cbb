//! Deterministic fail-stop fault injection.
//!
//! A [`FaultPlan`] scripts kernel crashes for one run of the untimed
//! kernel cluster (`semper_kernel::harness::TestCluster`, the plan's one
//! host): a kernel stops at a named ops-engine phase boundary and never
//! sends another message (Schlichting & Schneider's fail-stop
//! processor). The NoC itself loses, duplicates and reorders nothing —
//! the DTU's credits bound what is in flight (§4.1) — so a crash is the
//! only machine fault a plan can script. The other fault the kernels
//! handle, a VPE that stops answering, needs no plan: the cluster's
//! per-phase deadlines turn it into `Timeout`.
//!
//! The plan is *part of the experiment configuration*: a crash fires at
//! a phase boundary in the cluster's deterministic delivery order, so
//! the same plan on the same workload is a bit-identical run. The empty
//! plan ([`FaultPlan::default`]) scripts no crash.

/// A scripted kernel crash at an ops-engine phase boundary: kernel
/// `kernel` dies when it parks a phase named `phase` for the
/// `after_nth`-th time (1-based), *before* the parked phase's awaited
/// reply can arrive — e.g. `("revoke-run", 1)` is "dies after marking
/// its part of a spanning revoke, before any remote child answered".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Raw id of the kernel that dies.
    pub kernel: u16,
    /// `PhaseSpec` name that triggers the crash when parked.
    pub phase: &'static str,
    /// Which park of that phase triggers it (1 = the first).
    pub after_nth: u32,
}

/// A deterministic fault plan for one run: the scripted crash points.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    crashes: Vec<CrashPoint>,
}

impl FaultPlan {
    /// The empty plan: crash nobody.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Scripts a kernel crash at a phase boundary.
    pub fn with_crash(mut self, c: CrashPoint) -> FaultPlan {
        self.crashes.push(c);
        self
    }

    /// The crash points scripted for one kernel, in script order.
    pub fn crash_points(&self, kernel: u16) -> Vec<(&'static str, u32)> {
        self.crashes.iter().filter(|c| c.kernel == kernel).map(|c| (c.phase, c.after_nth)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_points_filter_by_kernel() {
        let p = FaultPlan::empty()
            .with_crash(CrashPoint { kernel: 2, phase: "delegate-at-recv", after_nth: 1 })
            .with_crash(CrashPoint { kernel: 1, phase: "revoke-run", after_nth: 3 });
        assert_eq!(p.crash_points(2), vec![("delegate-at-recv", 1)]);
        assert_eq!(p.crash_points(1), vec![("revoke-run", 3)]);
        assert!(p.crash_points(0).is_empty());
    }
}
