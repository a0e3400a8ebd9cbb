//! The capability object.
//!
//! From the kernel's perspective (§3.4) a capability references a kernel
//! object (the resource), a VPE (the holder), and other capabilities
//! (parent and children in the mapping database). In SemperOS those
//! references are DDL keys so they can cross kernel boundaries; in M3
//! baseline mode the same structure is used but lookups skip the DDL
//! decode cost.
//!
//! The record holds the nodes at the ends of its child list, the
//! list's length and its own node in its local parent's list: indices
//! into [`crate::MappingDb`]'s node store, which holds the sibling
//! links (a child may be another kernel's capability, with no record
//! here).

use crate::mapdb::NIL;
use semper_base::msg::CapKindDesc;
use semper_base::{CapSel, DdlKey, VpeId};

/// Lifecycle state of a capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapState {
    /// Normal state: usable and exchangeable.
    Usable,
    /// Phase 1 of revocation has marked this capability; exchanges
    /// involving it are denied (*pointless* prevention, Table 2) and it
    /// will be deleted once all remote children acknowledged.
    Revoking,
}

/// A capability: the unit of authority.
#[derive(Debug, Clone)]
pub struct Capability {
    /// Globally valid address of this capability.
    pub key: DdlKey,
    /// Description of the resource this capability grants access to.
    pub kind: CapKindDesc,
    /// The VPE holding this capability.
    pub owner: VpeId,
    /// Selector in the owner's capability table.
    pub sel: CapSel,
    /// Parent in the capability tree (`None` for root capabilities).
    pub parent: Option<DdlKey>,
    /// Nodes of the oldest and newest child and the child count; the
    /// links between them are in [`crate::MappingDb`]'s node store
    /// ([`crate::MappingDb::children`]).
    pub(crate) first_child: u32,
    pub(crate) last_child: u32,
    pub(crate) children: u32,
    /// This capability's node in its local parent's child list, or
    /// `NIL` if its parent is remote or it has none.
    pub(crate) link: u32,
    /// Lifecycle state.
    pub state: CapState,
}

impl Capability {
    /// Creates a usable root capability (no parent).
    pub fn root(key: DdlKey, kind: CapKindDesc, owner: VpeId, sel: CapSel) -> Capability {
        Capability {
            key,
            kind,
            owner,
            sel,
            parent: None,
            first_child: NIL,
            last_child: NIL,
            children: 0,
            link: NIL,
            state: CapState::Usable,
        }
    }

    /// Creates a usable child capability.
    pub fn child(
        key: DdlKey,
        kind: CapKindDesc,
        owner: VpeId,
        sel: CapSel,
        parent: DdlKey,
    ) -> Capability {
        Capability { parent: Some(parent), ..Capability::root(key, kind, owner, sel) }
    }

    /// Returns this capability rebound to a different owner selector
    /// (used when a parked capability is finally inserted).
    pub fn with_sel(self, sel: CapSel) -> Capability {
        Capability { sel, ..self }
    }

    /// True if the capability is marked for revocation.
    pub fn revoking(&self) -> bool {
        self.state == CapState::Revoking
    }

    /// Number of children.
    pub fn child_count(&self) -> usize {
        self.children as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MappingDb;
    use semper_base::msg::Perms;
    use semper_base::{CapType, PeId};

    fn key(n: u32) -> DdlKey {
        DdlKey::new(PeId(0), VpeId(0), CapType::Memory, n)
    }

    fn mem_desc() -> CapKindDesc {
        CapKindDesc::Memory { addr: 0, size: 4096, perms: Perms::RW }
    }

    #[test]
    fn root_has_no_parent() {
        let c = Capability::root(key(0), mem_desc(), VpeId(1), CapSel(2));
        assert_eq!(c.parent, None);
        assert!(!c.revoking());
    }

    #[test]
    fn child_links_parent() {
        let c = Capability::child(key(1), mem_desc(), VpeId(1), CapSel(2), key(0));
        assert_eq!(c.parent, Some(key(0)));
    }

    /// A root in a database of its own, for the child-bookkeeping tests:
    /// the record keeps the ends of its child list and its length.
    fn db_with_root() -> MappingDb {
        let mut db = MappingDb::new();
        db.insert(Capability::root(key(0), mem_desc(), VpeId(1), CapSel(2)));
        db
    }

    fn ends(db: &MappingDb) -> (Option<DdlKey>, Option<DdlKey>, usize) {
        let children: Vec<DdlKey> = db.children(key(0)).collect();
        (children.first().copied(), children.last().copied(), db.get(key(0)).unwrap().child_count())
    }

    /// Linking a local child again under its parent changes nothing (a
    /// remote child is not deduplicated: the wire delivers each link
    /// once, and `check_invariants` reports a key listed twice).
    #[test]
    fn add_child_is_idempotent() {
        let mut db = db_with_root();
        db.insert(Capability::child(key(1), mem_desc(), VpeId(1), CapSel(3), key(0)));
        db.link_child(key(0), key(1)).unwrap();
        db.link_child(key(0), key(1)).unwrap();
        assert_eq!(ends(&db), (Some(key(1)), Some(key(1)), 1));
        db.check_invariants().unwrap();
    }

    #[test]
    fn remove_child_reports_presence() {
        let mut db = db_with_root();
        db.link_child(key(0), key(1)).unwrap();
        assert!(db.unlink_child(key(0), key(1)));
        assert!(!db.unlink_child(key(0), key(1)));
        assert_eq!(ends(&db), (None, None, 0));
    }

    #[test]
    fn children_keep_creation_order() {
        let mut db = db_with_root();
        for k in [3, 1, 2] {
            db.link_child(key(0), key(k)).unwrap();
        }
        assert_eq!(ends(&db), (Some(key(3)), Some(key(2)), 3));
    }

    #[test]
    fn record_is_at_most_72_bytes() {
        // The resource (24 bytes), four one-word keys (own, parent, first
        // and last child) and four small fields (owner, selector, child
        // count, state); nothing is allocated per record.
        assert!(core::mem::size_of::<Capability>() <= 72);
    }

    #[test]
    fn record_is_one_cache_line() {
        // The resource (24 bytes), two one-word keys (own and parent),
        // three node indices (first and last child, own link), the child
        // count, owner, selector and state: 63 bytes.
        assert!(core::mem::size_of::<Capability>() <= 64);
    }

    #[test]
    fn with_sel_rebinds_selector_only() {
        let c = Capability::child(key(1), mem_desc(), VpeId(1), CapSel::INVALID, key(0));
        let c = c.with_sel(CapSel(9));
        assert_eq!(c.sel, CapSel(9));
        assert_eq!(c.parent, Some(key(0)));
        assert_eq!(c.key, key(1));
    }
}
