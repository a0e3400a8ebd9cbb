//! The membership table: PE-id partitions → kernels (§3.2, Figure 2).
//!
//! Each kernel holds a full copy of this table; it is how a DDL key is
//! routed to the kernel owning the object. The mapping is static after
//! boot — the paper evaluates fixed PE groups only (§5.3.2) — so every
//! copy agrees forever: a request is handled by the kernel it reaches,
//! and a reply comes from the kernel that was asked.

use semper_base::{DdlKey, KernelId, PeId};

/// Maps every PE to the kernel managing its group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipTable {
    kernel_of_pe: Vec<KernelId>,
    kernel_pes: Vec<PeId>,
}

impl MembershipTable {
    /// Builds a table from an explicit assignment.
    ///
    /// `kernel_of_pe[p]` is the kernel managing PE `p`; `kernel_pes[k]`
    /// is the PE kernel `k` runs on.
    pub fn new(kernel_of_pe: Vec<KernelId>, kernel_pes: Vec<PeId>) -> MembershipTable {
        assert!(!kernel_pes.is_empty(), "at least one kernel required");
        for k in &kernel_of_pe {
            assert!(k.idx() < kernel_pes.len(), "PE assigned to nonexistent kernel {k}");
        }
        MembershipTable { kernel_of_pe, kernel_pes }
    }

    /// Builds the default contiguous partitioning: `num_pes` PEs split
    /// into `kernels` equal-size groups, with each group's kernel on the
    /// group's first PE.
    pub fn contiguous(num_pes: u16, kernels: u16) -> MembershipTable {
        assert!(kernels > 0 && kernels <= num_pes);
        // Balanced partition: the first `num_pes % kernels` groups get
        // one extra PE, so every group start stays in range.
        let base = (num_pes / kernels) as usize;
        let extra = (num_pes % kernels) as usize;
        let mut kernel_of_pe = Vec::with_capacity(num_pes as usize);
        let mut kernel_pes = Vec::with_capacity(kernels as usize);
        let mut start = 0usize;
        for k in 0..kernels as usize {
            let size = base + usize::from(k < extra);
            kernel_pes.push(PeId(start as u16));
            for _ in 0..size {
                kernel_of_pe.push(KernelId(k as u16));
            }
            start += size;
        }
        assert_eq!(kernel_of_pe.len(), num_pes as usize);
        MembershipTable { kernel_of_pe, kernel_pes }
    }

    /// The kernel managing `pe`.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is outside the machine.
    pub fn kernel_of(&self, pe: PeId) -> KernelId {
        self.kernel_of_pe[pe.idx()]
    }

    /// The kernel owning the object behind a DDL key (routed by the
    /// key's creator-PE partition).
    pub fn kernel_of_key(&self, key: DdlKey) -> KernelId {
        self.kernel_of(key.pe())
    }

    /// The PE kernel `k` runs on.
    pub fn kernel_pe(&self, k: KernelId) -> PeId {
        self.kernel_pes[k.idx()]
    }

    /// Number of kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernel_pes.len()
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.kernel_of_pe.len()
    }

    /// Iterates over the PEs of one kernel's group, in PE order.
    pub fn group_pes(&self, k: KernelId) -> impl Iterator<Item = PeId> + '_ {
        self.kernel_of_pe
            .iter()
            .enumerate()
            .filter(move |(_, kk)| **kk == k)
            .map(|(p, _)| PeId(p as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semper_base::{CapType, VpeId};

    #[test]
    fn contiguous_partitioning() {
        let t = MembershipTable::contiguous(8, 2);
        assert_eq!(t.kernel_of(PeId(0)), KernelId(0));
        assert_eq!(t.kernel_of(PeId(3)), KernelId(0));
        assert_eq!(t.kernel_of(PeId(4)), KernelId(1));
        assert_eq!(t.kernel_of(PeId(7)), KernelId(1));
        assert_eq!(t.kernel_pe(KernelId(0)), PeId(0));
        assert_eq!(t.kernel_pe(KernelId(1)), PeId(4));
        assert_eq!(t.kernel_count(), 2);
        assert_eq!(t.pe_count(), 8);
    }

    #[test]
    fn uneven_partitioning_assigns_all() {
        let t = MembershipTable::contiguous(10, 3);
        // 10 PEs over 3 kernels: balanced groups of 4, 3, 3.
        let sizes: Vec<usize> = (0..3).map(|k| t.group_pes(KernelId(k)).count()).collect();
        assert_eq!(sizes, [4, 3, 3]);
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn all_group_starts_in_range() {
        // Regression: 48 kernels over 640 PEs must keep every kernel PE
        // inside the machine (ceil-based partitioning overflowed).
        for kernels in [1u16, 3, 7, 31, 48, 64] {
            let t = MembershipTable::contiguous(640, kernels);
            for k in 0..kernels {
                assert!(t.kernel_pe(KernelId(k)).0 < 640, "{kernels} kernels, K{k}");
            }
            let total: usize = (0..kernels).map(|k| t.group_pes(KernelId(k)).count()).sum();
            assert_eq!(total, 640);
        }
    }

    #[test]
    fn key_routing_follows_pe_partition() {
        let t = MembershipTable::contiguous(8, 2);
        let key = DdlKey::new(PeId(6), VpeId(1), CapType::Memory, 9);
        assert_eq!(t.kernel_of_key(key), KernelId(1));
    }

    #[test]
    fn group_pes_enumerates_group() {
        let t = MembershipTable::contiguous(6, 2);
        let g0: Vec<_> = t.group_pes(KernelId(0)).collect();
        assert_eq!(g0, vec![PeId(0), PeId(1), PeId(2)]);
    }

    #[test]
    #[should_panic(expected = "nonexistent kernel")]
    fn invalid_assignment_panics() {
        let _ = MembershipTable::new(vec![KernelId(1)], vec![PeId(0)]);
    }

    #[test]
    fn single_kernel_owns_everything() {
        let t = MembershipTable::contiguous(16, 1);
        for p in 0..16 {
            assert_eq!(t.kernel_of(PeId(p)), KernelId(0));
        }
    }
}
