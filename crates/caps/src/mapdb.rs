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
//! A child list is a doubly linked list of nodes `{ child, prev, next }`
//! in a node store the database owns, linked by `u32` node index, as
//! seL4 threads its derivation tree through its capability slots. A
//! record keeps the nodes of its oldest and newest child, its child
//! count, and `link`: its own node in its *local* parent's list. A
//! remote child has no record here, so only its node names it. The
//! store grows in chunks of `CHUNK` nodes and never moves a node;
//! freed nodes are reused through a free list threaded through `next`.
//!
//! Link appends a node. Unlinking a local child is O(1) through its
//! `link`; a remote child is found by scanning its parent's list (an
//! unlink notice, a failed delegate, a children-only revoke's remote
//! children). Deleting a subtree frees its nodes as it walks them. No
//! step hashes anything, and the record itself allocates nothing.
//!
//! # Determinism contract
//!
//! Children iterate in *creation order*, front to back or back to front
//! ([`MappingDb::children`]). That order is protocol-visible — it fixes
//! the order of inter-kernel revoke messages and of
//! [`MappingDb::delete_local_subtree_into`]'s preorder — and must never
//! be replaced by storage order. Neither the records' (VPE, object id)
//! order nor node indices, which are host-side addresses, are part of
//! the protocol. The only whole-database iterations are
//! [`MappingDb::iter`] (diagnostics) and [`MappingDb::check_invariants`]
//! (in record order, so failure reports are stable).

use crate::cap::{CapState, Capability};
use crate::pages::IdPages;
use semper_base::{Code, DdlKey, Error, Result};

/// No node: the end of a child list, or the `link` of a record that is
/// on no local parent's list.
pub(crate) const NIL: u32 = u32::MAX;

/// Nodes per chunk of the node store: one 4 KiB page. Every kernel
/// opens a first chunk, and on a machine of many kernels with short
/// lists (32 on `apps_mix_512`) 1 024-node chunks raised peak memory
/// by 0.3 MiB.
const CHUNK: usize = 256;

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

/// One child's place in its parent's child list (16 bytes).
#[derive(Debug, Clone, Copy)]
struct Node {
    child: DdlKey,
    prev: u32,
    next: u32,
}

/// Child-list nodes at their index: chunk `i / CHUNK`, slot `i % CHUNK`.
/// Each chunk is a `Vec` with room for `CHUNK` nodes that is filled by
/// pushing, so no node ever moves and the last chunk holds only nodes
/// that were allocated.
#[derive(Debug, Clone)]
struct Nodes {
    chunks: Vec<Vec<Node>>,
    /// Head of the free list, threaded through `next`.
    free: u32,
    /// Nodes on some child list.
    live: u32,
}

impl Default for Nodes {
    fn default() -> Self {
        Nodes { chunks: Vec::new(), free: NIL, live: 0 }
    }
}

impl Nodes {
    fn get(&self, i: u32) -> &Node {
        &self.chunks[i as usize / CHUNK][i as usize % CHUNK]
    }

    fn get_mut(&mut self, i: u32) -> &mut Node {
        &mut self.chunks[i as usize / CHUNK][i as usize % CHUNK]
    }

    /// Node `i`, if it was ever allocated.
    fn try_get(&self, i: u32) -> Option<&Node> {
        self.chunks.get(i as usize / CHUNK)?.get(i as usize % CHUNK)
    }

    /// Stores `node` in a free slot, opening a chunk if none is free.
    fn alloc(&mut self, node: Node) -> u32 {
        self.live += 1;
        if self.free != NIL {
            let i = self.free;
            self.free = self.get(i).next;
            *self.get_mut(i) = node;
            return i;
        }
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            assert!(self.chunks.len() < NIL as usize / CHUNK, "child-list node store is full");
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let last = self.chunks.len() - 1;
        let chunk = &mut self.chunks[last];
        chunk.push(node);
        (last * CHUNK + chunk.len() - 1) as u32
    }

    /// Returns node `i` to the free list.
    fn free(&mut self, i: u32) {
        let head = self.free;
        self.get_mut(i).next = head;
        self.free = i;
        self.live -= 1;
    }
}

/// All capabilities owned by one kernel, addressed by DDL key.
#[derive(Debug, Default, Clone)]
pub struct MappingDb {
    records: Records,
    /// The nodes of every child list; every live node is on exactly one
    /// record's list.
    nodes: Nodes,
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
            None => (NIL, NIL, 0),
        };
        Children { nodes: &self.nodes, front, back, remaining }
    }

    /// Appends `child` to the local `parent`'s child list. A local child
    /// must be inserted first; linking it again under the same parent is
    /// a no-op. A remote child is not checked for a duplicate link: each
    /// link arrives once, and [`MappingDb::check_invariants`] reports a
    /// remote key listed twice.
    ///
    /// # Panics
    ///
    /// Panics if a local `child`'s record names another parent — a
    /// capability has one parent, so that is a kernel bug.
    pub fn link_child(&mut self, parent: DdlKey, child: DdlKey) -> Result<()> {
        if !self.contains(parent) {
            return Err(Error::new(Code::NoSuchCap));
        }
        let local = match self.records.get(child) {
            Some(c) => {
                assert_eq!(c.parent, Some(parent), "{child:?} linked under two parents");
                if c.link != NIL {
                    return Ok(());
                }
                true
            }
            None => false,
        };
        let p = self.records.get_mut(parent).expect("checked above");
        let prev = p.last_child;
        let node = self.nodes.alloc(Node { child, prev, next: NIL });
        p.last_child = node;
        if prev == NIL {
            p.first_child = node;
        } else {
            self.nodes.get_mut(prev).next = node;
        }
        p.children += 1;
        if local {
            self.records.get_mut(child).expect("checked above").link = node;
        }
        Ok(())
    }

    /// Drops `child` from `parent`'s child list. Returns whether the
    /// link existed. A local child leaves through its own `link`; a
    /// remote one is searched for from the front of the list.
    pub fn unlink_child(&mut self, parent: DdlKey, child: DdlKey) -> bool {
        let node = match self.records.get_mut(child) {
            Some(c) => {
                if c.link == NIL || c.parent != Some(parent) {
                    return false;
                }
                core::mem::replace(&mut c.link, NIL)
            }
            None => {
                let Some(p) = self.records.get(parent) else {
                    return false;
                };
                let mut i = p.first_child;
                while i != NIL && self.nodes.get(i).child != child {
                    i = self.nodes.get(i).next;
                }
                if i == NIL {
                    return false;
                }
                i
            }
        };
        let Node { prev, next, .. } = *self.nodes.get(node);
        let p = self.records.get_mut(parent).expect("a linked child's parent is local");
        p.children -= 1;
        if prev == NIL {
            p.first_child = next;
        } else {
            self.nodes.get_mut(prev).next = next;
        }
        if next == NIL {
            p.last_child = prev;
        } else {
            self.nodes.get_mut(next).prev = prev;
        }
        self.nodes.free(node);
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
    /// child-list nodes are freed with it, remote children's included.
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
                let mut node = cap.last_child;
                while node != NIL {
                    let Node { child, prev, .. } = *self.nodes.get(node);
                    self.nodes.free(node);
                    stack.push(child);
                    node = prev;
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
    /// 1. Each record's child count is the length of its child list
    ///    walked from either end, with `first`/`last`/`prev`/`next`
    ///    agreeing, and every live node is on some record's list.
    /// 2. Every local child of a local capability points back via
    ///    `parent` and names its node via `link`; every local capability
    ///    with a local parent is on that parent's child list, and no
    ///    other capability has a `link`. No remote key is listed twice.
    /// 3. No capability is its own ancestor (tree, not graph): walking
    ///    down from the records whose parent is absent or remote reaches
    ///    every record, in O(records).
    pub fn check_invariants(&self) -> core::result::Result<(), String> {
        let (mut records, mut walked, mut local_listed, mut local_parented) = (0, 0, 0, 0);
        let (mut remote, mut nodes, mut back) = (Vec::new(), Vec::new(), Vec::new());
        for cap in self.records.iter() {
            records += 1;
            let key = cap.key;
            if !self.records.get(key).is_some_and(|c| core::ptr::eq(c, cap)) {
                return Err(format!("{key:?} is not at its key's address"));
            }
            self.walk(cap, true, &mut nodes)?;
            self.walk(cap, false, &mut back)?;
            walked += nodes.len();
            for &i in &nodes {
                let child = self.nodes.get(i).child;
                let Some(c) = self.records.get(child) else {
                    remote.push(child);
                    continue;
                };
                if c.parent != Some(key) {
                    return Err(format!("child {child:?} of {key:?} has parent {:?}", c.parent));
                }
                if c.link != i {
                    return Err(format!(
                        "child {child:?} of {key:?} is at node {i}, link {}",
                        c.link
                    ));
                }
                local_listed += 1;
            }
            match cap.parent.filter(|&p| self.contains(p)) {
                Some(parent) if cap.link == NIL => {
                    return Err(format!("{key:?} not in parent {parent:?} child list"));
                }
                Some(_) => local_parented += 1,
                None if cap.link != NIL => {
                    return Err(format!("{key:?} has link {} but no local parent", cap.link));
                }
                None => {}
            }
        }
        if records != self.len() {
            return Err(format!("{records} records, count {}", self.len()));
        }
        if local_listed != local_parented {
            return Err(format!(
                "{local_parented} records with a local parent, {local_listed} on its list"
            ));
        }
        if walked != self.nodes.live as usize {
            return Err(format!("{} live nodes, {walked} on child lists", self.nodes.live));
        }
        remote.sort_unstable();
        if let Some(w) = remote.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("remote child {:?} listed twice", w[0]));
        }
        self.check_acyclic()
    }

    /// Walks down from every record whose parent is absent or remote;
    /// with every local child listed once (checked before), the walk
    /// reaches every record iff no local parent chain is a cycle.
    fn check_acyclic(&self) -> core::result::Result<(), String> {
        let mut stack: Vec<DdlKey> = self
            .records
            .iter()
            .filter(|c| !c.parent.is_some_and(|p| self.contains(p)))
            .map(|c| c.key)
            .collect();
        let mut reached = 0;
        while let Some(k) = stack.pop() {
            if self.contains(k) {
                reached += 1;
                stack.extend(self.children(k));
            }
        }
        if reached != self.len() {
            return Err(format!(
                "{} of {} records are on a parent cycle",
                self.len() - reached,
                self.len()
            ));
        }
        Ok(())
    }

    /// `cap`'s child-list nodes walked from the front (or the back) into
    /// `seen`, checked node by node against the record's ends and count.
    fn walk(
        &self,
        cap: &Capability,
        forward: bool,
        seen: &mut Vec<u32>,
    ) -> core::result::Result<(), String> {
        let key = cap.key;
        let (mut cur, end) = if forward {
            (cap.first_child, cap.last_child)
        } else {
            (cap.last_child, cap.first_child)
        };
        seen.clear();
        while cur != NIL {
            if seen.len() == cap.child_count() {
                return Err(format!("{key:?}: child list longer than its count {}", cap.children));
            }
            let Some(node) = self.nodes.try_get(cur) else {
                return Err(format!("{key:?}: node {cur} was never allocated"));
            };
            let (back, ahead) =
                if forward { (node.prev, node.next) } else { (node.next, node.prev) };
            if back != seen.last().copied().unwrap_or(NIL) {
                return Err(format!("{key:?}: node {cur} disagrees: {node:?}"));
            }
            seen.push(cur);
            cur = ahead;
        }
        if seen.len() != cap.child_count() || seen.last().copied().unwrap_or(NIL) != end {
            return Err(format!(
                "{key:?}: {} children end at node {:?}, record says {}",
                seen.len(),
                seen.last(),
                cap.children
            ));
        }
        Ok(())
    }
}

/// Double-ended creation-order iterator over one capability's children
/// ([`MappingDb::children`]).
pub struct Children<'a> {
    nodes: &'a Nodes,
    front: u32,
    back: u32,
    remaining: u32,
}

impl Iterator for Children<'_> {
    type Item = DdlKey;

    fn next(&mut self) -> Option<DdlKey> {
        self.remaining = self.remaining.checked_sub(1)?;
        let node = self.nodes.get(self.front);
        self.front = node.next;
        Some(node.child)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl DoubleEndedIterator for Children<'_> {
    fn next_back(&mut self) -> Option<DdlKey> {
        self.remaining = self.remaining.checked_sub(1)?;
        let node = self.nodes.get(self.back);
        self.back = node.prev;
        Some(node.child)
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
        assert_eq!(db.nodes.live, 0);
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
        let second = db.nodes.get(db.get(key(100)).unwrap().first_child).next;
        db.nodes.get_mut(second).prev = NIL;
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

    /// Linking a local child again under its parent changes nothing.
    #[test]
    fn link_is_idempotent() {
        let mut db = MappingDb::new();
        root(&mut db, key(100));
        child(&mut db, key(1), key(100));
        db.link_child(key(100), key(1)).unwrap();
        assert_eq!(children(&db, key(100)), vec![key(1)]);
        assert_eq!(db.nodes.live, 1);
        db.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "linked under two parents")]
    fn linking_a_local_child_under_another_parent_panics() {
        let mut db = MappingDb::new();
        root(&mut db, key(100));
        root(&mut db, key(101));
        child(&mut db, key(1), key(100));
        let _ = db.link_child(key(101), key(1));
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
    /// one local child per close, oldest first — the order m3fs produces
    /// when a trace closes files in the order it opened them, and the
    /// worst case for a list that scans or compacts. Unlinking a local
    /// child is O(1) whatever the width: it goes through the child's own
    /// `link` and touches only its two neighbours, never the parent's
    /// other children.
    #[test]
    fn one_at_a_time_teardown_is_linear() {
        const N: u32 = 4096;
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        for i in 1..=N {
            child(&mut db, key(i), key(0));
        }
        for i in 1..=N {
            assert_eq!(deletion_order(&mut db, key(i)), vec![key(i)]);
            if i % 1024 == 0 {
                db.check_invariants().unwrap();
            }
        }
        assert_eq!(db.get(key(0)).unwrap().child_count(), 0);
        assert_eq!(db.nodes.live, 0);
        db.check_invariants().unwrap();
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

    /// A local child's `link` naming a sibling's node.
    #[test]
    fn invariants_catch_a_link_naming_a_siblings_node() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        child(&mut db, key(1), key(0));
        child(&mut db, key(2), key(0));
        db.check_invariants().unwrap();
        db.get_mut(key(1)).unwrap().link = db.get(key(2)).unwrap().link;
        assert!(db.check_invariants().unwrap_err().contains("is at node"));
    }

    /// A remote child has one parent and is linked once.
    #[test]
    fn invariants_catch_a_remote_key_listed_twice() {
        let mut db = wide(3);
        db.link_child(key(100), remote_key(1)).unwrap();
        assert!(db.check_invariants().unwrap_err().contains("listed twice"));
    }

    /// A node on no list: live nodes differ from the nodes walked.
    #[test]
    fn invariants_catch_a_leaked_node() {
        let mut db = wide(2);
        db.nodes.alloc(Node { child: remote_key(9), prev: NIL, next: NIL });
        assert!(db.check_invariants().unwrap_err().contains("live nodes"));
    }

    /// Two local records, each the other's parent and on the other's
    /// list: every list is consistent, but no root reaches them.
    #[test]
    fn invariants_catch_a_parent_cycle() {
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        db.insert(Capability::child(key(1), mem(), VpeId(0), CapSel(0), key(2)));
        db.insert(Capability::child(key(2), mem(), VpeId(0), CapSel(0), key(1)));
        db.link_child(key(2), key(1)).unwrap();
        db.link_child(key(1), key(2)).unwrap();
        assert!(db.check_invariants().unwrap_err().contains("cycle"));
    }

    /// The acyclicity check walks down once, so a deep local chain costs
    /// O(records), not O(records · depth²).
    #[test]
    fn invariants_check_a_deep_chain() {
        const N: u32 = 20_000;
        let mut db = MappingDb::new();
        root(&mut db, key(0));
        for i in 1..N {
            child(&mut db, key(i), key(i - 1));
        }
        db.check_invariants().unwrap();
        assert_eq!(deletion_order(&mut db, key(0)).len(), N as usize);
        assert_eq!(db.nodes.live, 0);
    }

    /// Nodes freed by unlinks are reused before a new chunk opens, and a
    /// subtree delete frees its nodes.
    #[test]
    fn freed_nodes_are_reused() {
        let mut db = wide(CHUNK as u32);
        assert_eq!(db.nodes.chunks.len(), 1);
        for i in 0..10 {
            assert!(db.unlink_child(key(100), remote_key(i)));
        }
        root(&mut db, key(0));
        for i in 0..10 {
            child(&mut db, key(1 + i), key(0));
        }
        assert_eq!(db.nodes.chunks.len(), 1);
        deletion_order(&mut db, key(100));
        assert_eq!(db.nodes.live, 10);
        db.check_invariants().unwrap();
    }

    /// A seeded walk of links (local and remote), unlinks at the head,
    /// middle and tail of a list (local through the child's `link`,
    /// remote through the scan) and subtree deletes, against a model
    /// that keeps each record's children as a `Vec`. After every step
    /// both iteration directions match the model, the invariants hold,
    /// and the live nodes are exactly the model's links.
    #[test]
    fn child_lists_match_a_model() {
        use std::collections::BTreeMap;
        const STEPS: usize = 20_000;
        let mut db = MappingDb::new();
        // Local record -> its children in creation order.
        let mut model: BTreeMap<DdlKey, Vec<DdlKey>> = BTreeMap::new();
        // Local record -> its local parent.
        let mut parents: BTreeMap<DdlKey, DdlKey> = BTreeMap::new();
        let mut next_id = [0u32; 3];
        let mut next_remote = 0u32;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        // Half the links go under one of the three oldest records, so
        // some lists grow wide enough to have a distinct middle.
        let parent_pick = |rand: &mut dyn FnMut(usize) -> usize| {
            if rand(2) == 0 {
                rand(3)
            } else {
                rand(usize::MAX)
            }
        };
        let pick =
            |m: &BTreeMap<DdlKey, Vec<DdlKey>>, r: usize| *m.keys().nth(r % m.len()).unwrap();
        let (mut local_unlinks, mut remote_unlinks, mut deletes) = (0, 0, 0);
        for _ in 0..STEPS {
            let op = if model.is_empty() { 0 } else { rand(100) };
            let grow = model.len() < 64;
            match op {
                // A new root, or a new local child under a random record.
                0..=39 if grow => {
                    let vpe = rand(3);
                    let k = DdlKey::new(
                        PeId(vpe as u16),
                        VpeId(vpe as u16),
                        CapType::Memory,
                        next_id[vpe],
                    );
                    next_id[vpe] += 1;
                    if op < 10 {
                        root(&mut db, k);
                    } else {
                        let p = pick(&model, parent_pick(&mut rand));
                        child(&mut db, k, p);
                        model.get_mut(&p).unwrap().push(k);
                        parents.insert(k, p);
                    }
                    model.insert(k, Vec::new());
                }
                // A new remote child.
                40..=59 if grow => {
                    let p = pick(&model, parent_pick(&mut rand));
                    let k = remote_key(next_remote);
                    next_remote += 1;
                    db.link_child(p, k).unwrap();
                    model.get_mut(&p).unwrap().push(k);
                }
                // Unlink at the head, middle or tail of a non-empty list.
                40..=79 => {
                    let listed: Vec<DdlKey> =
                        model.iter().filter(|(_, l)| !l.is_empty()).map(|(&p, _)| p).collect();
                    if listed.is_empty() {
                        continue;
                    }
                    let p = listed[rand(listed.len())];
                    let len = model[&p].len();
                    let at = [0, len / 2, len - 1][rand(3)];
                    let c = model[&p][at];
                    assert!(db.unlink_child(p, c));
                    assert!(!db.unlink_child(p, c), "unlinked twice");
                    model.get_mut(&p).unwrap().remove(at);
                    let forward: Vec<DdlKey> = db.children(p).collect();
                    assert_eq!(forward, model[&p]);
                    if model.contains_key(&c) {
                        // A local child unlinked stays a record naming
                        // its parent until its subtree goes.
                        local_unlinks += 1;
                        delete_in_model(&mut db, &mut model, &mut parents, c);
                    } else {
                        remote_unlinks += 1;
                    }
                }
                // Relinking a local child is a no-op; an unlink naming
                // the wrong parent finds nothing.
                80..=84 => {
                    let Some((&c, &p)) =
                        parents.iter().nth(rand(usize::MAX) % parents.len().max(1))
                    else {
                        continue;
                    };
                    db.link_child(p, c).unwrap();
                    let other = pick(&model, rand(usize::MAX));
                    if other != p {
                        assert!(!db.unlink_child(other, c));
                    }
                }
                // Delete the subtree of a random record.
                _ => {
                    let k = pick(&model, rand(usize::MAX));
                    deletes += 1;
                    delete_in_model(&mut db, &mut model, &mut parents, k);
                }
            }
            for (&p, list) in &model {
                assert!(db.children(p).eq(list.iter().copied()), "{p:?} forwards");
                assert!(db.children(p).rev().eq(list.iter().rev().copied()), "{p:?} backwards");
            }
            assert_eq!(db.len(), model.len());
            assert_eq!(db.nodes.live as usize, model.values().map(Vec::len).sum::<usize>());
            db.check_invariants().unwrap();
        }
        assert!(local_unlinks > 100 && remote_unlinks > 100 && deletes > 100);
    }

    /// Deletes `k`'s subtree from the database and from the model.
    fn delete_in_model(
        db: &mut MappingDb,
        model: &mut std::collections::BTreeMap<DdlKey, Vec<DdlKey>>,
        parents: &mut std::collections::BTreeMap<DdlKey, DdlKey>,
        k: DdlKey,
    ) {
        if let Some(p) = parents.get(&k) {
            model.get_mut(p).unwrap().retain(|&c| c != k);
        }
        let mut expected = Vec::new();
        let mut stack = vec![k];
        while let Some(k) = stack.pop() {
            if let Some(list) = model.remove(&k) {
                parents.remove(&k);
                expected.push(k);
                stack.extend(list.iter().rev());
            }
        }
        assert_eq!(deletion_order(db, k), expected);
    }
}
