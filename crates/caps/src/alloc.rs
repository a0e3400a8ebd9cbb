//! DDL key allocation.
//!
//! A DDL key names its creator `(PE, VPE)` plus a per-creator object id.
//! The kernel allocates object ids from a monotone counter per creator
//! VPE; uniqueness of keys then follows from uniqueness of the counter,
//! with no cross-kernel coordination — the point of the DDL scheme.
//! It also makes (VPE, object id) unique among one kernel's objects,
//! which is what lets [`crate::MappingDb`] store a record at that
//! address instead of hashing its key.

use semper_base::ddl::MAX_OBJECT_ID;
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
    /// Panics where [`KeyAllocator::try_alloc`] finds no id left.
    pub fn alloc(&mut self, pe: PeId, vpe: VpeId, ty: CapType) -> DdlKey {
        self.try_alloc(pe, vpe, ty).unwrap_or_else(|| panic!("object-id space of {vpe} exhausted"))
    }

    /// Allocates a key like [`KeyAllocator::alloc`], or `None` once `vpe`
    /// has used its 24-bit object-id space ([`MAX_OBJECT_ID`] + 1
    /// objects, 16.7M; ids are never reused). The bound also caps a
    /// creator's page vector in the mapping database at 2²⁰ entries.
    pub fn try_alloc(&mut self, pe: PeId, vpe: VpeId, ty: CapType) -> Option<DdlKey> {
        if vpe.idx() >= self.next_id.len() {
            self.next_id.resize(vpe.idx() + 1, 0);
        }
        let id = &mut self.next_id[vpe.idx()];
        let key = (*id <= MAX_OBJECT_ID).then(|| DdlKey::new(pe, vpe, ty, *id))?;
        *id += 1;
        Some(key)
    }

    /// Moves `vpe`'s counter forward to `next`, skipping ids that are
    /// never issued (tests start an allocator at its bound this way).
    ///
    /// # Panics
    ///
    /// Panics if `next` is below an id already issued.
    pub fn skip_to(&mut self, vpe: VpeId, next: u32) {
        if vpe.idx() >= self.next_id.len() {
            self.next_id.resize(vpe.idx() + 1, 0);
        }
        assert!(next >= self.next_id[vpe.idx()], "{vpe}'s object ids only count up");
        self.next_id[vpe.idx()] = next;
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
    #[should_panic(expected = "object-id space of")]
    fn the_last_object_id_is_the_last_key() {
        let mut a = KeyAllocator::new();
        let _ = a.alloc(PeId(1), VpeId(3), CapType::Memory);
        a.next_id[3] = MAX_OBJECT_ID;
        assert_eq!(a.alloc(PeId(1), VpeId(3), CapType::Memory).object_id(), MAX_OBJECT_ID);
        let _ = a.alloc(PeId(1), VpeId(3), CapType::Memory);
    }

    /// Past the last object id, `try_alloc` answers `None`, and again
    /// on every later call: nothing is reissued.
    #[test]
    fn try_alloc_stops_at_the_bound() {
        let mut a = KeyAllocator::new();
        a.skip_to(VpeId(3), MAX_OBJECT_ID);
        let last = a.try_alloc(PeId(1), VpeId(3), CapType::Memory).expect("one id is left");
        assert_eq!(last.object_id(), MAX_OBJECT_ID);
        for _ in 0..2 {
            assert_eq!(a.try_alloc(PeId(1), VpeId(3), CapType::Memory), None);
        }
        // Other VPEs' counters are their own.
        assert_eq!(a.try_alloc(PeId(1), VpeId(2), CapType::Memory).unwrap().object_id(), 0);
    }

    #[test]
    #[should_panic(expected = "only count up")]
    fn skip_to_never_moves_back() {
        let mut a = KeyAllocator::new();
        a.skip_to(VpeId(1), 5);
        a.skip_to(VpeId(1), 4);
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
