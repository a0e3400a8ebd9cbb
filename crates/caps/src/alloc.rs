//! DDL key allocation.
//!
//! A DDL key names its creator `(PE, VPE)` plus a per-creator object id.
//! The kernel allocates object ids from a monotone counter per creator
//! VPE; uniqueness of keys then follows from uniqueness of the counter,
//! with no cross-kernel coordination — the point of the DDL scheme.
//! It also makes (VPE, object id) unique among one kernel's objects,
//! which is what lets [`crate::MappingDb`] store a record at that
//! address instead of hashing its key.

use semper_base::{CapType, DdlKey, PeId, VpeId};

/// Allocates fresh DDL keys for objects created on behalf of local VPEs.
#[derive(Debug, Default, Clone)]
pub struct KeyAllocator {
    /// The next object id of each creator VPE, indexed by VPE id; grown
    /// on a VPE's first allocation.
    next_id: Vec<u32>,
}

impl KeyAllocator {
    /// Creates an empty allocator.
    pub fn new() -> KeyAllocator {
        KeyAllocator::default()
    }

    /// Allocates a key for a new object of type `ty` created by
    /// `(pe, vpe)`.
    ///
    /// # Panics
    ///
    /// Panics if a single VPE exhausts the 24-bit object-id space (16.7M
    /// objects) — far beyond any workload in this reproduction.
    pub fn alloc(&mut self, pe: PeId, vpe: VpeId, ty: CapType) -> DdlKey {
        if vpe.idx() >= self.next_id.len() {
            self.next_id.resize(vpe.idx() + 1, 0);
        }
        let id = &mut self.next_id[vpe.idx()];
        let key = DdlKey::new(pe, vpe, ty, *id);
        *id = id.checked_add(1).expect("object-id space exhausted");
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ids_per_vpe() {
        let mut a = KeyAllocator::new();
        let k0 = a.alloc(PeId(1), VpeId(7), CapType::Memory);
        let k1 = a.alloc(PeId(1), VpeId(7), CapType::Memory);
        assert_eq!(k0.object_id(), 0);
        assert_eq!(k1.object_id(), 1);
        assert_ne!(k0, k1);
    }

    #[test]
    fn independent_counters_per_vpe() {
        let mut a = KeyAllocator::new();
        let _ = a.alloc(PeId(1), VpeId(1), CapType::Vpe);
        let k = a.alloc(PeId(1), VpeId(2), CapType::Vpe);
        assert_eq!(k.object_id(), 0);
        assert_eq!(a.alloc(PeId(1), VpeId(1), CapType::Vpe).object_id(), 1);
    }

    #[test]
    fn keys_embed_creator() {
        let mut a = KeyAllocator::new();
        let k = a.alloc(PeId(9), VpeId(4), CapType::Session);
        assert_eq!(k.pe(), PeId(9));
        assert_eq!(k.vpe(), VpeId(4));
        assert_eq!(k.cap_type(), Some(CapType::Session));
    }
}
