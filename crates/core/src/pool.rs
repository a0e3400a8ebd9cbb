//! A pool of reusable [`MicroMachine`]s for the figure benches.
//!
//! The paper's figure experiments (Figures 4, 5 and the ablations)
//! perform many short measurements, each of which used to pay full
//! machine construction: topology, membership tables, 13 kernels with
//! their capability tables, and (before it was made lazy) the
//! filesystem image. [`MachinePool`] keeps quiesced machines around,
//! keyed by their shape, so consecutive measurements on the same shape
//! reuse one machine.
//!
//! # Reuse and determinism
//!
//! A measurement on a reused machine yields the *same simulated cycle
//! counts* as on a fresh one: selector free lists hand back the freed
//! selectors, credit budgets are restored once the protocol quiesces,
//! and neither NoC FIFO floors (strictly in the past) nor allocator
//! high-water marks enter any cost computation. The determinism suite
//! pins this with a fresh-vs-reused comparison
//! (`pooled_reuse_is_cycle_identical` in `tests/determinism.rs`).
//! Machines whose configuration was mutated mid-run (a feature toggle)
//! must not be reused; [`MachinePool::put`] enforces this by dropping
//! them instead of pooling.

use semper_base::KernelMode;

use crate::experiment::MicroMachine;

/// The shape of a pooled machine.
type Shape = (u16, u16, KernelMode);

/// A pool of quiesced [`MicroMachine`]s, keyed by shape.
#[derive(Default)]
pub struct MachinePool {
    /// Linear keyed store: benches use a handful of shapes at most.
    free: Vec<(Shape, Vec<MicroMachine>)>,
}

impl MachinePool {
    /// Creates an empty pool.
    pub fn new() -> MachinePool {
        MachinePool::default()
    }

    /// Takes a machine of the given shape, building one only if the
    /// pool has none available.
    pub fn take(&mut self, kernels: u16, vpes_per_group: u16, mode: KernelMode) -> MicroMachine {
        let shape = (kernels, vpes_per_group, mode);
        self.free
            .iter_mut()
            .find(|(s, _)| *s == shape)
            .and_then(|(_, v)| v.pop())
            .unwrap_or_else(|| MicroMachine::new(kernels, vpes_per_group, mode))
    }

    /// Returns a quiesced machine to the pool for reuse.
    ///
    /// Only hand back machines in their steady state (all syscalls
    /// completed). Machines whose feature set was toggled since
    /// construction are silently dropped instead of pooled: the shape
    /// key does not include features, so pooling one would leak the
    /// toggle into every later measurement of this shape.
    pub fn put(&mut self, mut m: MicroMachine) {
        if m.machine().cfg().features != semper_base::MachineConfig::small().features {
            return;
        }
        let shape = m.shape();
        match self.free.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, v)) => v.push(m),
            None => self.free.push((shape, vec![m])),
        }
    }

    /// Runs one measurement on a pooled machine of the given shape and
    /// returns the machine to the pool afterwards.
    pub fn with<R>(
        &mut self,
        kernels: u16,
        vpes_per_group: u16,
        mode: KernelMode,
        f: impl FnOnce(&mut MicroMachine) -> R,
    ) -> R {
        let mut m = self.take(kernels, vpes_per_group, mode);
        let r = f(&mut m);
        self.put(m);
        r
    }

    /// Number of machines currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.iter().map(|(_, v)| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_builds_then_reuses() {
        let mut pool = MachinePool::new();
        let m = pool.take(1, 2, KernelMode::M3);
        assert_eq!(pool.idle(), 0);
        pool.put(m);
        assert_eq!(pool.idle(), 1);
        let _m = pool.take(1, 2, KernelMode::M3);
        assert_eq!(pool.idle(), 0, "same shape must reuse the parked machine");
    }

    #[test]
    fn shapes_do_not_mix() {
        let mut pool = MachinePool::new();
        let m = pool.take(1, 2, KernelMode::M3);
        pool.put(m);
        let _other = pool.take(2, 2, KernelMode::SemperOS);
        assert_eq!(pool.idle(), 1, "different shape must not steal the parked machine");
    }

    #[test]
    fn feature_mutated_machines_are_not_pooled() {
        let mut pool = MachinePool::new();
        let mut m = pool.take(1, 2, KernelMode::M3);
        m.machine().enable_feature_everywhere(semper_base::Feature::RevokeBatching);
        pool.put(m);
        assert_eq!(pool.idle(), 0, "a feature-mutated machine must be dropped, not pooled");
    }

    #[test]
    fn with_returns_the_machine() {
        let mut pool = MachinePool::new();
        let cycles = pool.with(1, 2, KernelMode::M3, |m| m.measure_exchange_local());
        assert!(cycles > 0);
        assert_eq!(pool.idle(), 1);
    }
}
