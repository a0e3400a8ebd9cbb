//! The mapping database: all capabilities owned by one kernel.
//!
//! As in other microkernel-based systems (§3.4), the kernel tracks
//! capability sharing in a tree to enable recursive revocation. Here the
//! tree is stored as a flat `DdlKey → Capability` map with explicit
//! parent/child links, because links may point at capabilities owned by
//! *other* kernels — a local pointer structure cannot represent that.
//!
//! # Determinism contract
//!
//! Since the O(1)-bookkeeping refactor the flat map is a hash map keyed
//! on the packed 64-bit key form ([`semper_base::RawDdlKey`]) with the
//! fixed-seed hasher from [`semper_base::hash`] — every lookup, insert,
//! and delete on the revocation hot path is O(1). The map's iteration
//! order is *not* part of the protocol: all protocol-visible orderings
//! come from the explicitly ordered structures — capability child lists
//! (creation order) drive subtree walks, so
//! [`MappingDb::delete_local_subtree_into`] deletes in the same preorder
//! the `BTreeMap`-backed implementation produced. The only whole-map
//! iterations are [`MappingDb::iter`] (diagnostics; unspecified order)
//! and [`MappingDb::check_invariants`] (sorted explicitly so failure
//! reports are stable).

use crate::cap::{CapState, Capability};
use semper_base::{Code, DdlKey, DetHashMap, Error, RawDdlKey, Result};

/// All capabilities owned by one kernel, indexed by packed DDL key.
#[derive(Debug, Default, Clone)]
pub struct MappingDb {
    caps: DetHashMap<RawDdlKey, Capability>,
}

impl MappingDb {
    /// Creates an empty database.
    pub fn new() -> MappingDb {
        MappingDb::default()
    }

    /// Inserts a capability.
    ///
    /// # Panics
    ///
    /// Panics if the key is already present — keys are globally unique by
    /// construction, so a duplicate indicates a kernel bug.
    pub fn insert(&mut self, cap: Capability) {
        let prev = self.caps.insert(cap.key.raw(), cap);
        assert!(prev.is_none(), "duplicate DDL key in mapping database");
    }

    /// Looks up a capability.
    pub fn get(&self, key: DdlKey) -> Result<&Capability> {
        self.caps.get(&key.raw()).ok_or_else(|| Error::new(Code::NoSuchCap))
    }

    /// Looks up a capability mutably.
    pub fn get_mut(&mut self, key: DdlKey) -> Result<&mut Capability> {
        self.caps.get_mut(&key.raw()).ok_or_else(|| Error::new(Code::NoSuchCap))
    }

    /// True if the key is present.
    pub fn contains(&self, key: DdlKey) -> bool {
        self.caps.contains_key(&key.raw())
    }

    /// Removes a capability, returning it.
    pub fn remove(&mut self, key: DdlKey) -> Option<Capability> {
        self.caps.remove(&key.raw())
    }

    /// Number of capabilities in the database.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// True if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Iterates over all capabilities in unspecified (but per-run
    /// deterministic) order. Diagnostics only — protocol code must walk
    /// the tree via child lists instead.
    pub fn iter(&self) -> impl Iterator<Item = &Capability> {
        self.caps.values()
    }

    /// Registers `child` in `parent`'s child list (both may be remote;
    /// this touches only the local parent).
    pub fn link_child(&mut self, parent: DdlKey, child: DdlKey) -> Result<()> {
        self.get_mut(parent)?.add_child(child);
        Ok(())
    }

    /// Drops `child` from `parent`'s child list, if the parent still
    /// exists locally. Returns whether the link existed.
    pub fn unlink_child(&mut self, parent: DdlKey, child: DdlKey) -> bool {
        match self.caps.get_mut(&parent.raw()) {
            Some(p) => p.remove_child(child),
            None => false,
        }
    }

    /// Marks the capability for revocation. Returns the previous state so
    /// callers can detect concurrent revokes (`Revoking` already set).
    pub fn mark_revoking(&mut self, key: DdlKey) -> Result<CapState> {
        let cap = self.get_mut(key)?;
        let prev = cap.state;
        cap.state = CapState::Revoking;
        Ok(prev)
    }

    /// Deletes the locally owned subtree rooted at `key`, unlinking the
    /// root from its (possibly local) parent, and appends the deleted
    /// capabilities to `deleted` in deletion order. The walk stack and
    /// the collection are the caller's, reused across calls, so a
    /// teardown revoking thousands of subtrees does not pay two
    /// allocations per revoke. `stack` must be empty; callers batching
    /// several roots drain `deleted` between roots or at the end.
    /// Deletion order is preorder, children in creation order (the
    /// order the kernel's mark walk visits them in); remote children —
    /// keys not in this database — are skipped.
    pub fn delete_local_subtree_into(
        &mut self,
        key: DdlKey,
        stack: &mut Vec<DdlKey>,
        deleted: &mut Vec<Capability>,
    ) {
        debug_assert!(stack.is_empty());
        if let Some(root) = self.caps.get(&key.raw()) {
            if let Some(parent) = root.parent {
                self.unlink_child(parent, key);
            }
        }
        stack.push(key);
        while let Some(k) = stack.pop() {
            // Remote children are not in this database: skipped, exactly
            // as the collect-then-remove implementation skipped them.
            if let Some(cap) = self.caps.remove(&k.raw()) {
                // Reverse keeps preorder left-to-right after pop().
                for child in cap.children().rev() {
                    stack.push(child);
                }
                deleted.push(cap);
            }
        }
    }

    /// Checks structural invariants; returns a description of the first
    /// violation (in ascending key order, so reports are stable).
    /// Test-and-debug aid used by the property tests:
    ///
    /// 1. Every local child reference of a local capability points back
    ///    via `parent`.
    /// 2. Every local capability with a local parent is in that parent's
    ///    child list.
    /// 3. No capability is its own ancestor (tree, not graph).
    pub fn check_invariants(&self) -> core::result::Result<(), String> {
        let mut raws: Vec<RawDdlKey> = self.caps.keys().copied().collect();
        raws.sort_unstable();
        for raw in raws {
            let cap = &self.caps[&raw];
            for child in cap.children() {
                if let Some(c) = self.caps.get(&child.raw()) {
                    if c.parent != Some(cap.key) {
                        return Err(format!(
                            "child {child:?} of {key:?} has parent {parent:?}",
                            key = cap.key,
                            parent = c.parent
                        ));
                    }
                }
            }
            if let Some(parent) = cap.parent {
                if let Some(p) = self.caps.get(&parent.raw()) {
                    if !p.has_child(cap.key) {
                        return Err(format!(
                            "{key:?} not in parent {parent:?} child list",
                            key = cap.key
                        ));
                    }
                }
            }
            // Walk up; local chains are short, remote parents terminate.
            let mut seen = vec![cap.key];
            let mut cur = cap.parent;
            while let Some(k) = cur {
                if seen.contains(&k) {
                    return Err(format!("cycle through {k:?}"));
                }
                seen.push(k);
                cur = self.caps.get(&k.raw()).and_then(|c| c.parent);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semper_base::msg::{CapKindDesc, Perms};
    use semper_base::{CapSel, CapType, PeId, VpeId};

    fn key(n: u32) -> DdlKey {
        DdlKey::new(PeId(0), VpeId(0), CapType::Memory, n)
    }

    fn remote_key(n: u32) -> DdlKey {
        DdlKey::new(PeId(99), VpeId(9), CapType::Memory, n)
    }

    fn mem() -> CapKindDesc {
        CapKindDesc::Memory { addr: 0, size: 64, perms: Perms::RW }
    }

    fn root(db: &mut MappingDb, k: DdlKey) {
        db.insert(Capability::root(k, mem(), VpeId(0), CapSel(0)));
    }

    fn child(db: &mut MappingDb, k: DdlKey, parent: DdlKey) {
        db.insert(Capability::child(k, mem(), VpeId(0), CapSel(0), parent));
        db.link_child(parent, k).unwrap();
    }

    /// Deletes the local subtree under `root`; returns the keys in
    /// deletion order.
    fn deletion_order(db: &mut MappingDb, root: DdlKey) -> Vec<DdlKey> {
        let mut deleted = Vec::new();
        db.delete_local_subtree_into(root, &mut Vec::new(), &mut deleted);
        deleted.iter().map(|c| c.key).collect()
    }

    #[test]
    fn insert_get_remove() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        assert!(db.contains(key(0)));
        assert_eq!(db.get(key(0)).unwrap().key, key(0));
        assert!(db.remove(key(0)).is_some());
        assert_eq!(db.get(key(0)).unwrap_err().code(), Code::NoSuchCap);
    }

    #[test]
    #[should_panic(expected = "duplicate DDL key")]
    fn duplicate_insert_panics() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        root(&mut db, key(0));
    }

    #[test]
    fn subtree_collection_preorder() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        child(&mut db, key(1), key(0));
        child(&mut db, key(2), key(0));
        child(&mut db, key(3), key(1));
        assert_eq!(deletion_order(&mut db, key(0)), vec![key(0), key(1), key(3), key(2)]);
        assert!(db.is_empty());
    }

    #[test]
    fn subtree_reports_remote_children() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        child(&mut db, key(1), key(0));
        db.link_child(key(0), remote_key(7)).unwrap();
        // The remote child — a key not in this database — is skipped.
        assert_eq!(deletion_order(&mut db, key(0)), vec![key(0), key(1)]);
        assert!(db.is_empty());
    }

    #[test]
    fn delete_local_subtree_unlinks_from_parent() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        child(&mut db, key(1), key(0));
        child(&mut db, key(2), key(1));
        let mut deleted = Vec::new();
        db.delete_local_subtree_into(key(1), &mut Vec::new(), &mut deleted);
        assert_eq!(deleted.len(), 2);
        assert!(db.contains(key(0)));
        assert!(!db.contains(key(1)));
        assert!(!db.contains(key(2)));
        assert_eq!(db.get(key(0)).unwrap().child_count(), 0);
        db.check_invariants().unwrap();
    }

    #[test]
    fn mark_revoking_reports_previous_state() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        assert_eq!(db.mark_revoking(key(0)).unwrap(), CapState::Usable);
        assert_eq!(db.mark_revoking(key(0)).unwrap(), CapState::Revoking);
        assert!(db.get(key(0)).unwrap().revoking());
    }

    #[test]
    fn invariants_catch_dangling_parent_link() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        // Child claims key(0) as parent but parent does not list it.
        db.insert(Capability::child(key(1), mem(), VpeId(0), CapSel(0), key(0)));
        assert!(db.check_invariants().is_err());
    }

    #[test]
    fn invariants_ok_with_remote_parent() {
        let mut db = MappingDb::new();
        db.insert(Capability::child(key(1), mem(), VpeId(0), CapSel(0), remote_key(3)));
        db.check_invariants().unwrap();
    }

    #[test]
    fn unlink_missing_parent_is_noop() {
        let mut db = MappingDb::new();
        assert!(!db.unlink_child(key(0), key(1)));
    }

    #[test]
    fn preorder_is_stable_at_scale() {
        // The subtree walk must not depend on map order: build a two-level
        // tree and check the preorder twice, including after unrelated
        // insert/remove churn that would perturb a hash map's iteration.
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        for i in 1..=50 {
            child(&mut db, key(i), key(0));
        }
        let before = deletion_order(&mut db.clone(), key(0));
        for i in 100..200 {
            root(&mut db, key(i));
        }
        for i in 100..200 {
            db.remove(key(i));
        }
        let after = deletion_order(&mut db, key(0));
        assert_eq!(before, after);
        assert_eq!(before.len(), 51);
    }
}
