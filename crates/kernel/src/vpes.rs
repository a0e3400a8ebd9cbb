//! VPE bookkeeping.
//!
//! A VPE (virtual PE) is the unit of execution — comparable to a
//! single-threaded process (§2.2). Each VPE runs on exactly one PE of the
//! kernel's group, and its kernel keeps one record for it: whether it
//! lives, its capability table, and its DTU's endpoint registers — the
//! capability each endpoint is activated for (M3's `activate`). A VPE
//! activates only capabilities of its own table, and the revocation
//! sweep clears the registers of each capability it deletes, so a
//! register never outlives its capability.

use semper_base::config::EP_COUNT;
use semper_base::DdlKey;
use semper_caps::CapTable;

/// One VPE of the group, as its kernel sees it.
#[derive(Debug, Clone)]
pub(crate) struct Vpe {
    /// False once the VPE exited or was killed; its capabilities are
    /// being (or have been) revoked. The id is never recycled within a
    /// simulation run.
    pub(crate) alive: bool,
    /// The VPE's capability space.
    pub(crate) table: CapTable,
    /// The DTU's endpoint registers: the capability each endpoint is
    /// activated for.
    pub(crate) eps: [Option<DdlKey>; EP_COUNT as usize],
}

impl Vpe {
    /// A live VPE with `table` and no endpoint activated.
    pub(crate) fn new(table: CapTable) -> Vpe {
        Vpe { alive: true, table, eps: [None; EP_COUNT as usize] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TestCluster;
    use semper_base::VpeId;

    #[test]
    fn new_vpe_is_alive() {
        let v = Vpe::new(CapTable::new(2));
        assert!(v.alive);
        assert!(v.eps.iter().all(Option::is_none), "no endpoint activated");
    }

    /// A killed VPE keeps its record (ids are never recycled): its
    /// kernel reports it dead, and its table outlives it, emptied by
    /// the revocation of everything it held.
    #[test]
    fn dead_vpe_reports_dead() {
        let mut c = TestCluster::new(1, 2);
        c.kill(VpeId(1));
        c.pump_all();
        let k = &c.kernels[0];
        assert!(!k.vpe_alive(VpeId(1)));
        assert!(k.vpe_alive(VpeId(0)));
        assert!(k.table(VpeId(1)).expect("the record stays").is_empty());
        c.check_invariants();
    }
}
