//! VPE bookkeeping.
//!
//! A VPE (virtual PE) is the unit of execution — comparable to a
//! single-threaded process (§2.2). Each VPE runs on exactly one PE of the
//! kernel's group and has its own capability table.

use semper_base::{PeId, VpeId};

/// Lifecycle of a VPE as seen by its kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpeLife {
    /// Running normally.
    Alive,
    /// Exited or killed; capabilities are being (or have been) revoked.
    /// The id is never recycled within a simulation run.
    Dead,
}

/// Per-VPE kernel state.
#[derive(Debug, Clone)]
pub struct VpeState {
    /// The VPE's id.
    pub id: VpeId,
    /// The PE it runs on.
    pub pe: PeId,
    /// Lifecycle state.
    pub life: VpeLife,
}

impl VpeState {
    /// Creates a fresh, alive VPE.
    pub fn new(id: VpeId, pe: PeId) -> VpeState {
        VpeState { id, pe, life: VpeLife::Alive }
    }

    /// True if the VPE is alive.
    pub fn alive(&self) -> bool {
        self.life == VpeLife::Alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_vpe_is_alive() {
        let v = VpeState::new(VpeId(3), PeId(7));
        assert!(v.alive());
        assert_eq!(v.pe, PeId(7));
    }

    #[test]
    fn dead_vpe_reports_dead() {
        let mut v = VpeState::new(VpeId(3), PeId(7));
        v.life = VpeLife::Dead;
        assert!(!v.alive());
    }
}
