//! Distributed Data Lookup (DDL) keys — §3.2 of the paper.
//!
//! Every kernel object that must be referable by *other* kernels (VPEs,
//! capabilities, services, sessions) gets a DDL key acting as its global
//! id. The key packs four fields:
//!
//! ```text
//!  63           48 47           32 31      24 23                 0
//! +---------------+---------------+----------+--------------------+
//! |     PE id     |    VPE id     |   type   |     object id      |
//! +---------------+---------------+----------+--------------------+
//! ```
//!
//! The *PE id* names the creator's PE and partitions the key space: the
//! membership table (in `semper-caps`) maps PE-id partitions to kernels,
//! so any kernel can route a key to its owning kernel without global
//! agreement. *VPE id* names the creating VPE, *type* the object class,
//! and *object id* a per-creator sequence number.

use crate::ids::{PeId, VpeId};
use core::num::NonZeroU64;
use serde::{Deserialize, Serialize};

/// Object classes distinguishable by a DDL key's type field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum CapType {
    /// A VPE (process) object.
    Vpe = 1,
    /// A byte-granular memory region (memory gate).
    Memory = 2,
    /// A send gate: the right to send messages to a receive gate.
    SendGate = 3,
    /// A receive gate: a configured receive endpoint.
    RecvGate = 4,
    /// A registered OS service.
    Service = 5,
    /// A session between a client VPE and a service.
    Session = 6,
    /// The kernel object itself (used for kernel-owned root capabilities).
    Kernel = 7,
}

impl CapType {
    /// Decodes a type field value; returns `None` for unknown values.
    pub fn from_u8(v: u8) -> Option<CapType> {
        Some(match v {
            1 => CapType::Vpe,
            2 => CapType::Memory,
            3 => CapType::SendGate,
            4 => CapType::RecvGate,
            5 => CapType::Service,
            6 => CapType::Session,
            7 => CapType::Kernel,
            _ => return None,
        })
    }
}

/// A globally valid capability address (64-bit packed DDL key).
///
/// The type field of a valid key is never 0, so the packed form is
/// never 0 either: `Option<DdlKey>` is 8 bytes, which is what keeps the
/// mapping database's parent and sibling links one word each.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DdlKey(NonZeroU64);

/// Maximum value of the per-creator object id field (24 bits).
pub const MAX_OBJECT_ID: u32 = (1 << 24) - 1;

impl DdlKey {
    /// Packs the four fields into a key.
    ///
    /// # Panics
    ///
    /// Panics if `object_id` exceeds [`MAX_OBJECT_ID`]; the kernel's key
    /// allocator refuses to count past that bound itself.
    pub fn new(pe: PeId, vpe: VpeId, ty: CapType, object_id: u32) -> DdlKey {
        assert!(object_id <= MAX_OBJECT_ID, "object id overflows DDL key field");
        let raw =
            ((pe.0 as u64) << 48) | ((vpe.0 as u64) << 32) | ((ty as u64) << 24) | object_id as u64;
        DdlKey(NonZeroU64::new(raw).expect("the type field is never 0"))
    }

    /// Decodes a key from its raw 64-bit representation; `None` unless
    /// the type field holds a known [`CapType`].
    pub fn from_raw(raw: u64) -> Option<DdlKey> {
        CapType::from_u8((raw >> 24) as u8)?;
        NonZeroU64::new(raw).map(DdlKey)
    }

    /// Returns the raw 64-bit representation.
    pub fn raw(self) -> u64 {
        self.0.get()
    }

    /// The creator PE id — the partition used for kernel routing.
    pub fn pe(self) -> PeId {
        PeId((self.raw() >> 48) as u16)
    }

    /// The creator VPE id.
    pub fn vpe(self) -> VpeId {
        VpeId((self.raw() >> 32) as u16)
    }

    /// The object class, if the type field holds a known value.
    pub fn cap_type(self) -> Option<CapType> {
        CapType::from_u8((self.raw() >> 24) as u8)
    }

    /// The per-creator object id.
    pub fn object_id(self) -> u32 {
        (self.raw() & MAX_OBJECT_ID as u64) as u32
    }
}

impl core::fmt::Debug for DdlKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "DdlKey({}/{}/{:?}/{})", self.pe(), self.vpe(), self.cap_type(), self.object_id())
    }
}

impl core::fmt::Display for DdlKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#018x}", self.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let k = DdlKey::new(PeId(513), VpeId(42), CapType::Session, 123_456);
        assert_eq!(k.pe(), PeId(513));
        assert_eq!(k.vpe(), VpeId(42));
        assert_eq!(k.cap_type(), Some(CapType::Session));
        assert_eq!(k.object_id(), 123_456);
    }

    #[test]
    fn raw_roundtrip() {
        let k = DdlKey::new(PeId(1), VpeId(2), CapType::Memory, 3);
        assert_eq!(DdlKey::from_raw(k.raw()), Some(k));
    }

    #[test]
    fn max_fields() {
        let k = DdlKey::new(PeId(u16::MAX), VpeId(u16::MAX), CapType::Kernel, MAX_OBJECT_ID);
        assert_eq!(k.pe(), PeId(u16::MAX));
        assert_eq!(k.vpe(), VpeId(u16::MAX));
        assert_eq!(k.object_id(), MAX_OBJECT_ID);
    }

    #[test]
    #[should_panic(expected = "object id overflows")]
    fn object_id_overflow_panics() {
        let _ = DdlKey::new(PeId(0), VpeId(0), CapType::Vpe, MAX_OBJECT_ID + 1);
    }

    #[test]
    fn unknown_type_decodes_none() {
        assert_eq!(DdlKey::from_raw(0xFF << 24), None);
        assert_eq!(DdlKey::from_raw(0), None);
    }

    #[test]
    fn optional_key_is_one_word() {
        assert_eq!(core::mem::size_of::<Option<DdlKey>>(), 8);
    }

    #[test]
    fn keys_differing_only_in_pe_are_distinct() {
        let a = DdlKey::new(PeId(1), VpeId(0), CapType::Vpe, 0);
        let b = DdlKey::new(PeId(2), VpeId(0), CapType::Vpe, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn cap_type_from_u8_exhaustive() {
        for v in 1..=7u8 {
            let ty = CapType::from_u8(v).expect("known type");
            assert_eq!(ty as u8, v);
        }
        assert_eq!(CapType::from_u8(0), None);
        assert_eq!(CapType::from_u8(8), None);
    }
}
