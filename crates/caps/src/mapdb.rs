//! The mapping database: all capabilities owned by one kernel.
//!
//! As in other microkernel-based systems (§3.4), the kernel tracks
//! capability sharing in a tree to enable recursive revocation. Here the
//! tree is stored as flat records with explicit parent/child links,
//! because links may point at capabilities owned by *other* kernels — a
//! local pointer structure cannot represent that.
//!
//! # Records are addressed, not hashed
//!
//! A DDL key names its creator VPE and a per-creator object id that the
//! kernel's monotone counter hands out (§3.2, [`crate::KeyAllocator`]),
//! so the key already says where its record sits: `key.vpe()` selects a
//! per-VPE `IdPages` (`pages.rs`) and `key.object_id()` a slot in it.
//! Its pages are freed as their records go, so memory follows live
//! records (see its "Page policy"); a capability table's reverse index
//! is addressed the same way ([`crate::CapTable`]). A slot is found by its
//! (VPE, object id) alone, so every lookup also compares the full key: a
//! key that differs from the record's in its PE or type field is
//! [`Code::NoSuchCap`]. Only [`MappingDb::insert`] grows the tables; a
//! lookup past them is `NoSuchCap` and allocates nothing.
//!
//! # Child lists
//!
//! A record keeps only its oldest and newest child and its child count.
//! The sibling links between them are one map owned by the database,
//! keyed by *child*: a child has one parent, and it may be remote, so its
//! link cannot live in its own record. Nor can it be addressed like a
//! record — a remote child's (VPE, object id) belongs to another
//! kernel's counter, not to this kernel's — so links stay hashed. Link
//! and unlink are O(1) hash operations that touch the child's link and
//! its two neighbours, however wide the parent; the record itself
//! allocates nothing.
//!
//! # Determinism contract
//!
//! Children iterate in *creation order*, front to back or back to front
//! ([`MappingDb::children`]). That order is protocol-visible — it fixes
//! the order of inter-kernel revoke messages and of
//! [`MappingDb::delete_local_subtree_into`]'s preorder — and must never
//! be replaced by storage order. Neither the records' (VPE, object id)
//! order nor the link map's hash order (packed keys,
//! [`semper_base::RawDdlKey`], fixed-seed hasher from
//! [`semper_base::hash`]) is part of the protocol. The only whole-map
//! iterations are [`MappingDb::iter`] (diagnostics) and
//! [`MappingDb::check_invariants`] (in record order, links sorted, so
//! failure reports are stable).

use crate::cap::{CapState, Capability};
use crate::pages::IdPages;
use semper_base::{Code, DdlKey, DetHashMap, Error, RawDdlKey, Result};

/// Records at their key's address: `vpes[vpe]`, at the object id.
#[derive(Debug, Default, Clone)]
struct Records {
    vpes: Vec<IdPages<Capability>>,
    len: usize,
}

impl Records {
    fn get(&self, key: DdlKey) -> Option<&Capability> {
        self.vpes.get(key.vpe().idx())?.get(key.object_id()).filter(|c| c.key == key)
    }

    fn get_mut(&mut self, key: DdlKey) -> Option<&mut Capability> {
        self.vpes.get_mut(key.vpe().idx())?.get_mut(key.object_id()).filter(|c| c.key == key)
    }

    fn insert(&mut self, cap: Capability) {
        let vpe = cap.key.vpe().idx();
        if vpe >= self.vpes.len() {
            self.vpes.resize_with(vpe + 1, IdPages::default);
        }
        let id = cap.key.object_id();
        if self.vpes[vpe].insert(id, cap).is_err() {
            panic!("duplicate DDL key (VPE, object id) in mapping database");
        }
        self.len += 1;
    }

    fn remove(&mut self, key: DdlKey) -> Option<Capability> {
        let cap =
            self.vpes.get_mut(key.vpe().idx())?.remove_if(key.object_id(), |c| c.key == key)?;
        self.len -= 1;
        Some(cap)
    }

    /// Every record in (VPE, object id) order.
    fn iter(&self) -> impl Iterator<Item = &Capability> {
        self.vpes.iter().flat_map(|pages| pages.iter().map(|(_, cap)| cap))
    }
}

/// A child's place in its parent's child list.
#[derive(Debug, Clone, Copy)]
struct Link {
    parent: DdlKey,
    prev: Option<DdlKey>,
    next: Option<DdlKey>,
}

/// All capabilities owned by one kernel, addressed by DDL key.
#[derive(Debug, Default, Clone)]
pub struct MappingDb {
    records: Records,
    /// Sibling links, keyed by child (local or remote); every link's
    /// parent is a record.
    links: DetHashMap<RawDdlKey, Link>,
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
    /// Panics if a record with the key's (VPE, object id) is present —
    /// the kernel's counter makes those unique, so a duplicate indicates
    /// a kernel bug.
    pub fn insert(&mut self, cap: Capability) {
        self.records.insert(cap);
    }

    /// Looks up a capability.
    pub fn get(&self, key: DdlKey) -> Result<&Capability> {
        self.records.get(key).ok_or_else(|| Error::new(Code::NoSuchCap))
    }

    /// Looks up a capability mutably.
    pub fn get_mut(&mut self, key: DdlKey) -> Result<&mut Capability> {
        self.records.get_mut(key).ok_or_else(|| Error::new(Code::NoSuchCap))
    }

    /// True if the key is present.
    pub fn contains(&self, key: DdlKey) -> bool {
        self.records.get(key).is_some()
    }

    /// Number of capabilities in the database.
    pub fn len(&self) -> usize {
        self.records.len
    }

    /// True if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.len == 0
    }

    /// Iterates over all capabilities in (creator VPE, object id) order.
    /// Diagnostics only — protocol code must walk the tree via
    /// [`MappingDb::children`] instead.
    pub fn iter(&self) -> impl Iterator<Item = &Capability> {
        self.records.iter()
    }

    /// The children of `key` in creation order (double-ended; revocation
    /// walks push them back to front). Empty if `key` is not local.
    pub fn children(&self, key: DdlKey) -> Children<'_> {
        let (front, back, remaining) = match self.records.get(key) {
            Some(c) => (c.first_child, c.last_child, c.children),
            None => (None, None, 0),
        };
        Children { links: &self.links, front, back, remaining }
    }

    /// Appends `child` (local or remote) to the local `parent`'s child
    /// list; linking it again under the same parent is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `child` is linked under another parent — a capability
    /// has one parent, so that is a kernel bug.
    pub fn link_child(&mut self, parent: DdlKey, child: DdlKey) -> Result<()> {
        let p = self.records.get_mut(parent).ok_or_else(|| Error::new(Code::NoSuchCap))?;
        if let Some(link) = self.links.get(&child.raw()) {
            assert_eq!(link.parent, parent, "{child:?} linked under two parents");
            return Ok(());
        }
        let prev = p.last_child.replace(child);
        p.first_child.get_or_insert(child);
        p.children += 1;
        self.links.insert(child.raw(), Link { parent, prev, next: None });
        if let Some(prev) = prev {
            self.links.get_mut(&prev.raw()).expect("the old tail is linked").next = Some(child);
        }
        Ok(())
    }

    /// Drops `child` from `parent`'s child list. Returns whether the
    /// link existed.
    pub fn unlink_child(&mut self, parent: DdlKey, child: DdlKey) -> bool {
        let Some(&Link { parent: linked, prev, next }) = self.links.get(&child.raw()) else {
            return false;
        };
        if linked != parent {
            return false;
        }
        self.links.remove(&child.raw());
        let p = self.records.get_mut(parent).expect("a link's parent is local");
        p.children -= 1;
        match prev {
            Some(k) => self.links.get_mut(&k.raw()).expect("sibling is linked").next = next,
            None => p.first_child = next,
        }
        match next {
            Some(k) => self.links.get_mut(&k.raw()).expect("sibling is linked").prev = prev,
            None => p.last_child = prev,
        }
        true
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
    /// keys not in this database — are skipped. Every deleted record's
    /// child links go with it, remote children's included.
    pub fn delete_local_subtree_into(
        &mut self,
        key: DdlKey,
        stack: &mut Vec<DdlKey>,
        deleted: &mut Vec<Capability>,
    ) {
        assert!(stack.is_empty(), "the walk stack must start empty");
        if let Some(parent) = self.records.get(key).and_then(|c| c.parent) {
            self.unlink_child(parent, key);
        }
        stack.push(key);
        while let Some(k) = stack.pop() {
            if let Some(cap) = self.records.remove(k) {
                // Newest first, so pop() visits them oldest first.
                let mut child = cap.last_child;
                while let Some(c) = child {
                    child = self.links.remove(&c.raw()).expect("sibling is linked").prev;
                    stack.push(c);
                }
                deleted.push(cap);
            }
        }
    }

    /// Checks structural invariants; returns a description of the first
    /// violation (in record order, so reports are stable).
    /// Test-and-debug aid used by the property tests:
    ///
    /// 0. Every record is found at its own key, and the record count
    ///    agrees.
    /// 1. Every link's parent is a local record, and each record's
    ///    child count is the length of its child list walked from
    ///    either end, with `first`/`last`/`prev`/`next` agreeing.
    /// 2. Every local child of a local capability points back via
    ///    `parent`, and every local capability with a local parent is
    ///    in that parent's child list.
    /// 3. No capability is its own ancestor (tree, not graph).
    pub fn check_invariants(&self) -> core::result::Result<(), String> {
        let mut links: Vec<(&RawDdlKey, &Link)> = self.links.iter().collect();
        links.sort_unstable_by_key(|(child, _)| **child);
        for (child, link) in links {
            if !self.contains(link.parent) {
                return Err(format!("link of {child:#x} names missing parent {:?}", link.parent));
            }
        }
        let (mut records, mut walked) = (0, 0);
        for cap in self.records.iter() {
            records += 1;
            if !self.records.get(cap.key).is_some_and(|c| core::ptr::eq(c, cap)) {
                return Err(format!("{:?} is not at its key's address", cap.key));
            }
            let children = self.walk(cap, true)?;
            self.walk(cap, false)?;
            walked += children.len();
            for child in children {
                if let Some(c) = self.records.get(child) {
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
                let linked = self.links.get(&cap.key.raw()).map(|l| l.parent);
                if self.contains(parent) && linked != Some(parent) {
                    return Err(format!(
                        "{key:?} not in parent {parent:?} child list",
                        key = cap.key
                    ));
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
                cur = self.records.get(k).and_then(|c| c.parent);
            }
        }
        if records != self.len() {
            return Err(format!("{records} records, count {}", self.len()));
        }
        if walked != self.links.len() {
            return Err(format!("{} links, {walked} on their parents' lists", self.links.len()));
        }
        Ok(())
    }

    /// `cap`'s child list walked from the front (or the back), checked
    /// link by link against the record's ends and count.
    fn walk(&self, cap: &Capability, forward: bool) -> core::result::Result<Vec<DdlKey>, String> {
        let key = cap.key;
        let (mut cur, end) = if forward {
            (cap.first_child, cap.last_child)
        } else {
            (cap.last_child, cap.first_child)
        };
        let mut seen: Vec<DdlKey> = Vec::new();
        while let Some(k) = cur {
            if seen.len() == cap.child_count() {
                return Err(format!("{key:?}: child list longer than its count {}", cap.children));
            }
            let link =
                self.links.get(&k.raw()).ok_or_else(|| format!("{k:?} of {key:?} unlinked"))?;
            let (back, ahead) =
                if forward { (link.prev, link.next) } else { (link.next, link.prev) };
            if link.parent != key || back != seen.last().copied() {
                return Err(format!("{key:?}: link of child {k:?} disagrees: {link:?}"));
            }
            seen.push(k);
            cur = ahead;
        }
        if seen.len() != cap.child_count() || seen.last().copied() != end {
            return Err(format!(
                "{key:?}: {} children end at {:?}, record says {}",
                seen.len(),
                seen.last(),
                cap.children
            ));
        }
        Ok(seen)
    }
}

/// Double-ended creation-order iterator over one capability's children
/// ([`MappingDb::children`]).
pub struct Children<'a> {
    links: &'a DetHashMap<RawDdlKey, Link>,
    front: Option<DdlKey>,
    back: Option<DdlKey>,
    remaining: u32,
}

impl Iterator for Children<'_> {
    type Item = DdlKey;

    fn next(&mut self) -> Option<DdlKey> {
        self.remaining = self.remaining.checked_sub(1)?;
        let key = self.front?;
        self.front = self.links[&key.raw()].next;
        Some(key)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl DoubleEndedIterator for Children<'_> {
    fn next_back(&mut self) -> Option<DdlKey> {
        self.remaining = self.remaining.checked_sub(1)?;
        let key = self.back?;
        self.back = self.links[&key.raw()].prev;
        Some(key)
    }
}

impl ExactSizeIterator for Children<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::PAGE;
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

    fn children(db: &MappingDb, parent: DdlKey) -> Vec<DdlKey> {
        db.children(parent).collect()
    }

    /// A root at `key(100)` with remote children `remote_key(0..n)`.
    fn wide(n: u32) -> MappingDb {
        let mut db = MappingDb::new();
        root(&mut db, key(100));
        for i in 0..n {
            db.link_child(key(100), remote_key(i)).unwrap();
        }
        db
    }

    #[test]
    fn insert_get_remove() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        assert!(db.contains(key(0)));
        assert_eq!(db.get(key(0)).unwrap().key, key(0));
        assert_eq!(deletion_order(&mut db, key(0)), vec![key(0)]);
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
    fn deleting_a_parent_drops_its_remote_childs_link() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        db.link_child(key(0), remote_key(7)).unwrap();
        deletion_order(&mut db, key(0));
        assert!(db.links.is_empty());
        // The key is free to be linked under another parent.
        root(&mut db, key(1));
        db.link_child(key(1), remote_key(7)).unwrap();
        assert_eq!(children(&db, key(1)), vec![remote_key(7)]);
        db.check_invariants().unwrap();
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
    fn invariants_catch_a_broken_sibling_chain() {
        let mut db = wide(3);
        db.check_invariants().unwrap();
        db.links.get_mut(&remote_key(1).raw()).unwrap().prev = None;
        assert!(db.check_invariants().unwrap_err().contains("disagrees"));
        let mut db = wide(3);
        db.get_mut(key(100)).unwrap().children = 2;
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
        let mut db = wide(1);
        assert!(!db.unlink_child(key(0), remote_key(0)), "linked under another parent");
    }

    #[test]
    fn preorder_is_stable_at_scale() {
        // The subtree walk must not depend on map order: build a two-level
        // tree and check the preorder twice, including after unrelated
        // insert/delete churn that would perturb a hash map's iteration.
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
            deletion_order(&mut db, key(i));
        }
        let after = deletion_order(&mut db, key(0));
        assert_eq!(before, after);
        assert_eq!(before.len(), 51);
    }

    #[test]
    fn keeps_creation_order_across_interleaved_link_unlink() {
        let mut db = wide(6);
        let p = key(100);
        // Unlink from the middle, the head, and the tail.
        for i in [2, 0, 5] {
            assert!(db.unlink_child(p, remote_key(i)));
        }
        assert_eq!(children(&db, p), [1, 3, 4].map(remote_key));
        // New links append after survivors; an unlinked key re-links.
        db.link_child(p, remote_key(7)).unwrap();
        db.link_child(p, remote_key(0)).unwrap();
        assert_eq!(children(&db, p), [1, 3, 4, 7, 0].map(remote_key));
        assert_eq!(db.get(p).unwrap().child_count(), 5);
        db.check_invariants().unwrap();
    }

    #[test]
    fn link_is_idempotent() {
        let mut db = wide(1);
        db.link_child(key(100), remote_key(0)).unwrap();
        assert_eq!(children(&db, key(100)), vec![remote_key(0)]);
        db.check_invariants().unwrap();
    }

    #[test]
    fn unlink_reports_presence() {
        let mut db = wide(1);
        assert!(db.unlink_child(key(100), remote_key(0)));
        assert!(!db.unlink_child(key(100), remote_key(0)));
        assert_eq!(children(&db, key(100)), Vec::<DdlKey>::new());
        db.check_invariants().unwrap();
    }

    #[test]
    fn reverse_iteration_mirrors_forward() {
        let mut db = MappingDb::new();
        root(&mut db, key(100));
        for i in [3, 1, 2] {
            db.link_child(key(100), remote_key(i)).unwrap();
        }
        let fwd = children(&db, key(100));
        let mut rev: Vec<_> = db.children(key(100)).rev().collect();
        rev.reverse();
        assert_eq!(fwd, rev);
        assert_eq!(fwd, [3, 1, 2].map(remote_key));
    }

    #[test]
    fn double_ended_meets_in_the_middle() {
        let db = wide(4);
        let mut it = db.children(key(100));
        assert_eq!(it.next(), Some(remote_key(0)));
        assert_eq!(it.next_back(), Some(remote_key(3)));
        assert_eq!(it.next(), Some(remote_key(1)));
        assert_eq!(it.next_back(), Some(remote_key(2)));
        assert_eq!(it.next(), None);
        assert_eq!(it.next_back(), None);
    }

    /// The m3fs close-one-extent-at-a-time pattern: a wide parent loses
    /// one child per close, oldest first — the order m3fs produces when
    /// a trace closes files in the order it opened them, and the worst
    /// case for a list that scans or compacts. Unlink is O(1) whatever
    /// the width: it touches only the child's link and its two
    /// neighbours, never the parent's other children.
    #[test]
    fn one_at_a_time_teardown_is_linear() {
        const N: u32 = 4096;
        let mut db = wide(N);
        for i in 0..N {
            assert!(db.unlink_child(key(100), remote_key(i)));
            if i % 1024 == 0 {
                db.check_invariants().unwrap();
            }
        }
        assert_eq!(db.get(key(100)).unwrap().child_count(), 0);
        assert!(db.links.is_empty());
    }

    /// Pages currently allocated, over all VPEs.
    fn pages(db: &MappingDb) -> usize {
        db.records.vpes.iter().map(IdPages::open_pages).sum()
    }

    /// Every access path a key can take, none of which may find or
    /// change anything for `k`.
    fn assert_absent(db: &mut MappingDb, k: DdlKey) {
        let before = format!("{db:?}");
        assert_eq!(db.get(k).unwrap_err().code(), Code::NoSuchCap);
        assert_eq!(db.get_mut(k).unwrap_err().code(), Code::NoSuchCap);
        assert!(!db.contains(k));
        assert_eq!(db.link_child(k, remote_key(50)).unwrap_err().code(), Code::NoSuchCap);
        assert!(!db.unlink_child(k, remote_key(0)));
        assert_eq!(db.mark_revoking(k).unwrap_err().code(), Code::NoSuchCap);
        assert_eq!(db.children(k).len(), 0);
        assert_eq!(deletion_order(db, k), Vec::<DdlKey>::new());
        assert_eq!(format!("{db:?}"), before, "{k:?} changed the database");
    }

    /// A slot is found by (VPE, object id); a key that shares both with
    /// a live record but names another PE or type is not that record.
    #[test]
    fn forged_key_is_no_such_cap() {
        let mut db = MappingDb::new();
        root(&mut db, key(3));
        db.link_child(key(3), remote_key(0)).unwrap();
        for forged in [
            DdlKey::new(PeId(1), VpeId(0), CapType::Memory, 3),
            DdlKey::new(PeId(0), VpeId(0), CapType::Session, 3),
        ] {
            assert_eq!((forged.vpe(), forged.object_id()), (key(3).vpe(), key(3).object_id()));
            assert_absent(&mut db, forged);
        }
        assert_eq!(children(&db, key(3)), vec![remote_key(0)]);
        db.check_invariants().unwrap();
    }

    /// Lookups past every allocated VPE or object id grow nothing.
    #[test]
    fn out_of_range_key_is_no_such_cap_and_grows_nothing() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        db.link_child(key(0), remote_key(0)).unwrap();
        let shape = |db: &MappingDb| (db.records.vpes.len(), db.records.vpes[0].reach());
        let before = shape(&db);
        for k in [
            DdlKey::new(PeId(0), VpeId(1), CapType::Memory, 0),
            DdlKey::new(PeId(0), VpeId(u16::MAX), CapType::Memory, 0),
            key(PAGE as u32),
            key(semper_base::ddl::MAX_OBJECT_ID),
        ] {
            assert_absent(&mut db, k);
        }
        assert_eq!(shape(&db), before);
    }

    /// Memory follows live records: a page goes with its last record,
    /// except the newest page, which goes when a later page opens.
    #[test]
    fn deleting_every_record_frees_every_page() {
        let mut db = MappingDb::new();
        for i in 0..1000 {
            root(&mut db, key(i));
        }
        assert_eq!(pages(&db), 1000usize.div_ceil(PAGE));
        // Delete half of each page first, then the rest: a page stays
        // while any record on it does.
        for i in (0..1000).filter(|i| i % 2 == 0) {
            deletion_order(&mut db, key(i));
        }
        assert_eq!(pages(&db), 1000usize.div_ceil(PAGE));
        db.check_invariants().unwrap();
        for i in (0..1000).filter(|i| i % 2 == 1) {
            deletion_order(&mut db, key(i));
        }
        assert!(db.is_empty());
        assert_eq!(pages(&db), 1, "the newest page stays");
        db.check_invariants().unwrap();
        // The next page to open frees it.
        let next = 1000usize.div_ceil(PAGE) * PAGE;
        root(&mut db, key(next as u32));
        assert_eq!(pages(&db), 1);
        deletion_order(&mut db, key(next as u32));
        root(&mut db, key((next + PAGE) as u32));
        assert_eq!(pages(&db), 1);
        db.check_invariants().unwrap();
    }

    /// `iter()` yields exactly the live records, in (VPE, object id)
    /// order, however inserts and deletes interleave across pages.
    #[test]
    fn iter_yields_exactly_the_live_set() {
        use std::collections::BTreeSet;
        let mut db = MappingDb::new();
        let mut live: BTreeSet<(u16, u32)> = BTreeSet::new();
        let mut next_id = [0u32; 4];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..3000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let r = (x >> 33) as usize;
            if !r.is_multiple_of(3) || live.is_empty() {
                let vpe = (r / 3 % 4) as u16;
                let id = next_id[vpe as usize];
                next_id[vpe as usize] += 1;
                let k = DdlKey::new(PeId(vpe), VpeId(vpe), CapType::Memory, id);
                db.insert(Capability::root(k, mem(), VpeId(vpe), CapSel(0)));
                live.insert((vpe, id));
            } else {
                let &(vpe, id) = live.iter().nth(r / 3 % live.len()).unwrap();
                let k = DdlKey::new(PeId(vpe), VpeId(vpe), CapType::Memory, id);
                assert_eq!(deletion_order(&mut db, k), vec![k]);
                live.remove(&(vpe, id));
            }
            if step % 250 == 0 {
                let seen: Vec<(u16, u32)> =
                    db.iter().map(|c| (c.key.vpe().0, c.key.object_id())).collect();
                assert_eq!(seen, live.iter().copied().collect::<Vec<_>>());
                assert_eq!(db.len(), live.len());
                db.check_invariants().unwrap();
            }
        }
        assert!(next_id.iter().all(|&n| n as usize > 4 * PAGE), "inserts crossed pages");
        let seen: Vec<(u16, u32)> = db.iter().map(|c| (c.key.vpe().0, c.key.object_id())).collect();
        assert_eq!(seen, live.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn invariants_catch_a_record_off_its_address() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        db.check_invariants().unwrap();
        db.get_mut(key(0)).unwrap().key = key(1);
        assert!(db.check_invariants().unwrap_err().contains("not at its key's address"));
    }
}
