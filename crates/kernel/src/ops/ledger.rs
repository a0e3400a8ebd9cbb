//! The shared pending-operation ledger.
//!
//! The paper's kernel suspends cooperative threads at preemption points
//! while waiting for other kernels or VPEs (§4.2). Our event-driven
//! kernel stores the suspended continuation explicitly as a
//! [`PendingOp`] phase in this ledger; the engine's reply router
//! resumes it when the awaited message arrives. Thread-pool accounting
//! (`pending ≤ V_group + K_max · M_inflight`) is derived from each
//! phase's own answer ([`PendingOp::holds_thread`]) and maintained
//! incrementally.
//!
//! Op ids are allocated from a per-kernel monotone counter, so they are
//! stable handles: an id on the wire resolves to the same operation for
//! the operation's whole lifetime.
//!
//! # Determinism
//!
//! The map is never iterated on protocol paths; the only iteration
//! ([`PendingTable::iter`]) feeds VPE teardown, which sorts the
//! collected op ids before acting on them (matching the id-ordered
//! iteration of the old `BTreeMap`).

use semper_base::{DetHashMap, OpId};

use crate::ops::PendingOp;

/// O(1) storage for suspended operations, keyed by [`OpId`].
#[derive(Debug, Default, Clone)]
pub struct PendingTable {
    ops: DetHashMap<u64, PendingOp>,
    threads: u64,
}

impl PendingTable {
    /// Registers a suspended operation.
    ///
    /// # Panics
    ///
    /// Panics if the op id is already registered (ids are unique by
    /// construction).
    pub fn insert(&mut self, op: OpId, state: PendingOp) {
        self.threads += u64::from(state.holds_thread());
        let prev = self.ops.insert(op.0, state);
        assert!(prev.is_none(), "op id {op} registered twice");
    }

    /// Removes and returns a suspended operation.
    pub fn remove(&mut self, op: OpId) -> Option<PendingOp> {
        let state = self.ops.remove(&op.0)?;
        self.threads -= u64::from(state.holds_thread());
        Some(state)
    }

    /// Looks up a suspended operation.
    pub fn get(&self, op: OpId) -> Option<&PendingOp> {
        self.ops.get(&op.0)
    }

    /// Looks up a suspended operation mutably. Callers may update fields
    /// but must not change which phase is stored (the thread counter is
    /// keyed to the phase at insertion).
    pub fn get_mut(&mut self, op: OpId) -> Option<&mut PendingOp> {
        self.ops.get_mut(&op.0)
    }

    /// Number of suspended operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing is suspended.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operations currently holding a cooperative kernel thread (§4.2),
    /// maintained incrementally.
    pub fn threads_in_use(&self) -> u64 {
        self.threads
    }

    /// Iterates over `(op, state)` in unspecified (per-run
    /// deterministic) order. Sort the results before any
    /// protocol-visible use.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &PendingOp)> {
        self.ops.iter().map(|(id, p)| (OpId(*id), p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::revoke::{FanIn, Initiator, RevokeOp};
    use semper_base::{KernelId, VpeId};

    fn revoke_op(initiator: Initiator) -> PendingOp {
        PendingOp::Revoke(RevokeOp {
            initiator,
            fanin: FanIn::new(),
            roots: Vec::new(),
            spanning: false,
        })
    }

    #[test]
    fn pending_table_tracks_threads_incrementally() {
        let mut t = PendingTable::default();
        assert_eq!(t.threads_in_use(), 0);
        // Syscall-initiated revokes hold a thread; kcall-initiated do not.
        t.insert(OpId(1), revoke_op(Initiator::Syscall { vpe: VpeId(0), tag: 0 }));
        t.insert(OpId(2), revoke_op(Initiator::Kcall { op: OpId(9), from: KernelId(1), keys: 1 }));
        assert_eq!(t.threads_in_use(), 1);
        assert_eq!(t.len(), 2);
        assert!(t.remove(OpId(1)).is_some());
        assert_eq!(t.threads_in_use(), 0);
        assert_eq!(t.len(), 1);
        assert!(t.get(OpId(2)).is_some());
        assert!(t.get_mut(OpId(2)).is_some());
        assert!(t.remove(OpId(1)).is_none());
    }

    #[test]
    fn pending_table_iter_exposes_everything() {
        let mut t = PendingTable::default();
        for i in 0..5 {
            t.insert(OpId(i), revoke_op(Initiator::Internal));
        }
        let mut ids: Vec<u64> = t.iter().map(|(op, _)| op.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fanin_counts_and_tallies() {
        let mut f = FanIn::new();
        assert!(f.idle());
        for _ in 0..3 {
            f.arm();
        }
        assert_eq!(f.outstanding(), 3);
        f.add(5);
        assert!(!f.complete_one(1));
        assert!(!f.complete_one(2));
        assert!(f.complete_one(3));
        assert!(f.idle());
        assert_eq!(f.tally(), 11);
    }
}
