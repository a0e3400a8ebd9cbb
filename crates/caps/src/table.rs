//! Per-VPE capability tables.
//!
//! Each VPE has its own capability space (§2.2): a mapping from selectors
//! (small VPE-local integers) to DDL keys. The kernel owns these tables;
//! VPEs only ever see selectors.
//!
//! # Performance and determinism
//!
//! Selectors are dense by construction — fresh ones are bumped from
//! `first_free`, freed ones are reused LIFO — so the table is a slot
//! vector indexed by selector: a lookup is one bounds-checked index, and
//! iteration in index order is the selector order VPE teardown revokes
//! in (protocol-visible). Explicit [`CapTable::insert`] is only for the
//! reserved selectors below `first_free`, so a freed selector can never
//! be re-occupied behind the free list's back.
//!
//! The kernel's revocation sweep unbinds a deleted capability by the
//! selector its record names ([`CapTable::remove`]). Removal *by DDL
//! key* ([`CapTable::remove_key`]) and the reverse index behind it serve
//! only the repo benchmark's caps probe. Every key a table binds was
//! allocated for the table's own VPE, so its object id alone names it:
//! the index holds selector + 1 (a 4-byte slot) at the object id, in the
//! same pages the mapping database keeps its records in (`IdPages`,
//! `pages.rs`), and a lookup compares the bound key in full, so a key
//! from another creator is not found. Binding two keys with one object
//! id panics.

use core::num::NonZeroU32;

use semper_base::{CapSel, Code, DdlKey, Error, Result};

use crate::pages::IdPages;

/// One VPE's capability space.
#[derive(Debug, Default, Clone)]
pub struct CapTable {
    /// Slot `s` holds the key bound to selector `s`.
    slots: Vec<Option<DdlKey>>,
    /// Reverse index: selector + 1 at the bound key's object id.
    by_id: IdPages<NonZeroU32>,
    /// Occupied selectors.
    len: usize,
    /// Selectors freed by removals, reused LIFO. Never contains
    /// selectors below `first_free` (those are reserved).
    free: Vec<u32>,
    first_free: u32,
    next_sel: u32,
}

impl CapTable {
    /// Creates an empty table.
    ///
    /// Selectors below `first_free` are reserved for well-known
    /// capabilities (the VPE's own cap, its syscall gate, ...), mirroring
    /// M3's convention.
    pub fn new(first_free: u32) -> CapTable {
        CapTable { first_free, next_sel: first_free, ..CapTable::default() }
    }

    /// Allocates the next free selector: the most recently freed one if
    /// any (LIFO reuse keeps tables dense), else a fresh one.
    pub fn alloc_sel(&mut self) -> CapSel {
        CapSel(self.free.pop().unwrap_or_else(|| {
            self.next_sel += 1;
            self.next_sel - 1
        }))
    }

    /// Binds the reserved selector `sel` to `key`.
    ///
    /// Fails with [`Code::InvalidArgs`] outside the reserved range (use
    /// [`CapTable::insert_new`]) and with [`Code::Exists`] if the
    /// selector is occupied.
    pub fn insert(&mut self, sel: CapSel, key: DdlKey) -> Result<()> {
        if sel.0 >= self.first_free {
            return Err(Error::new(Code::InvalidArgs));
        }
        if self.get(sel).is_ok() {
            return Err(Error::new(Code::Exists));
        }
        self.bind(sel, key);
        Ok(())
    }

    /// Allocates a selector and binds it to `key` in one step.
    pub fn insert_new(&mut self, key: DdlKey) -> CapSel {
        let sel = self.alloc_sel();
        self.bind(sel, key);
        sel
    }

    /// Binds a free selector, growing the slot vector to reach it.
    /// Panics if `key`'s object id is bound already: keys of one creator
    /// differ in their object ids, so that is a kernel bug.
    fn bind(&mut self, sel: CapSel, key: DdlKey) {
        let entry = NonZeroU32::MIN.checked_add(sel.0).expect("selector space exhausted");
        if let Err(held) = self.by_id.insert(key.object_id(), entry) {
            panic!(
                "object id {} of {key:?} is already bound at selector {}",
                key.object_id(),
                held.get() - 1
            );
        }
        let idx = sel.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        self.slots[idx] = Some(key);
        self.len += 1;
    }

    /// Looks up the key bound to `sel`.
    pub fn get(&self, sel: CapSel) -> Result<DdlKey> {
        self.slots.get(sel.0 as usize).copied().flatten().ok_or_else(|| Error::new(Code::NoSuchCap))
    }

    /// Removes the binding for `sel`; returns the key if it existed.
    pub fn remove(&mut self, sel: CapSel) -> Option<DdlKey> {
        let key = self.slots.get_mut(sel.0 as usize)?.take()?;
        self.by_id.remove_if(key.object_id(), |_| true);
        self.release(sel);
        Some(key)
    }

    /// Removes the binding of `key` (reverse removal used when a revoke
    /// deletes by DDL key); `None` if `key` is not bound here. O(1) via
    /// the reverse index.
    pub fn remove_key(&mut self, key: DdlKey) -> Option<CapSel> {
        let slots = &mut self.slots;
        let entry =
            self.by_id.remove_if(key.object_id(), |e| slots[e.get() as usize - 1] == Some(key))?;
        let sel = CapSel(entry.get() - 1);
        slots[sel.0 as usize] = None;
        self.release(sel);
        Some(sel)
    }

    /// Counts a binding gone and returns its selector to the free list
    /// (reserved ones stay reserved).
    fn release(&mut self, sel: CapSel) {
        self.len -= 1;
        if sel.0 >= self.first_free {
            self.free.push(sel.0);
        }
    }

    /// Number of occupied selectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no selectors are occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(selector, key)` pairs in selector order.
    pub fn iter(&self) -> impl Iterator<Item = (CapSel, DdlKey)> + '_ {
        self.slots.iter().enumerate().filter_map(|(s, k)| Some((CapSel(s as u32), (*k)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semper_base::{CapType, PeId, VpeId};

    fn key(n: u32) -> DdlKey {
        DdlKey::new(PeId(0), VpeId(0), CapType::Memory, n)
    }

    #[test]
    fn alloc_skips_reserved_range() {
        let mut t = CapTable::new(4);
        assert_eq!(t.alloc_sel(), CapSel(4));
        assert_eq!(t.alloc_sel(), CapSel(5));
    }

    #[test]
    fn insert_and_get() {
        let mut t = CapTable::new(2);
        t.insert(CapSel(1), key(9)).unwrap();
        assert_eq!(t.get(CapSel(1)).unwrap(), key(9));
        assert_eq!(t.get(CapSel(0)).unwrap_err().code(), Code::NoSuchCap);
        assert_eq!(t.get(CapSel(2)).unwrap_err().code(), Code::NoSuchCap);
    }

    #[test]
    fn double_insert_fails() {
        let mut t = CapTable::new(2);
        t.insert(CapSel(1), key(1)).unwrap();
        assert_eq!(t.insert(CapSel(1), key(2)).unwrap_err().code(), Code::Exists);
    }

    #[test]
    fn insert_outside_reserved_range_is_refused() {
        let mut t = CapTable::new(2);
        for sel in [CapSel(2), CapSel(7), CapSel::INVALID] {
            assert_eq!(t.insert(sel, key(1)).unwrap_err().code(), Code::InvalidArgs);
        }
        assert!(t.is_empty());
        assert_eq!(t.alloc_sel(), CapSel(2));
    }

    #[test]
    fn invalid_selector_is_no_such_cap_and_does_not_grow_the_table() {
        let mut t = CapTable::new(2);
        t.insert_new(key(1));
        assert_eq!(t.get(CapSel::INVALID).unwrap_err().code(), Code::NoSuchCap);
        assert_eq!(t.remove(CapSel::INVALID), None);
        assert_eq!(t.slots.len(), 3);
    }

    #[test]
    fn alloc_skips_occupied() {
        let mut t = CapTable::new(2);
        t.insert(CapSel(0), key(0)).unwrap();
        t.insert(CapSel(1), key(1)).unwrap();
        assert_eq!(t.alloc_sel(), CapSel(2));
    }

    #[test]
    fn remove_key_reverse_lookup() {
        let mut t = CapTable::new(0);
        let s = t.insert_new(key(5));
        assert_eq!(t.remove_key(key(5)), Some(s));
        assert_eq!(t.remove_key(key(5)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn iter_in_selector_order() {
        let mut t = CapTable::new(1);
        let (a, b, c) = (t.insert_new(key(1)), t.insert_new(key(2)), t.insert_new(key(3)));
        t.remove(a);
        t.remove(c);
        t.insert_new(key(4));
        t.insert(CapSel(0), key(0)).unwrap();
        let sels: Vec<_> = t.iter().map(|(s, _)| s).collect();
        assert_eq!(sels, vec![CapSel(0), b, c]);
    }

    #[test]
    fn len_tracks_occupancy() {
        let mut t = CapTable::new(0);
        assert_eq!(t.len(), 0);
        t.insert_new(key(1));
        t.insert_new(key(2));
        assert_eq!(t.len(), 2);
        t.remove(CapSel(0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn freed_selectors_are_reused() {
        // Regression test for unbounded selector growth: before the free
        // list, every alloc consumed a fresh selector even when the
        // table kept a constant size (long-running nginx churn).
        let mut t = CapTable::new(2);
        for i in 0..10_000u32 {
            let sel = t.insert_new(key(i));
            assert!(t.remove_key(key(i)).is_some(), "remove {i}");
            assert!(sel.0 < 3, "selector space leaked: {sel}");
        }
        assert_eq!(t.next_sel, 3);
        assert!(t.is_empty());
    }

    #[test]
    fn reuse_is_lifo() {
        let mut t = CapTable::new(0);
        let a = t.insert_new(key(1));
        let b = t.insert_new(key(2));
        t.remove(a);
        t.remove(b);
        // Most recently freed first.
        assert_eq!(t.alloc_sel(), b);
        assert_eq!(t.alloc_sel(), a);
    }

    #[test]
    fn reserved_selectors_never_reused() {
        let mut t = CapTable::new(2);
        t.insert(CapSel(0), key(0)).unwrap();
        t.remove(CapSel(0));
        // Selector 0 is reserved; allocation starts at 2.
        assert_eq!(t.alloc_sel(), CapSel(2));
    }

    #[test]
    fn manual_insert_into_freed_selector() {
        let mut t = CapTable::new(0);
        let a = t.insert_new(key(1));
        t.remove(a);
        // A freed selector belongs to the free list: an explicit insert
        // is refused, and the next allocation hands it out.
        assert_eq!(t.insert(a, key(2)).unwrap_err().code(), Code::InvalidArgs);
        assert_eq!(t.alloc_sel(), a);
    }

    /// The index is found by object id alone; a key of another creator,
    /// PE or type with a bound object id is not the bound key.
    #[test]
    fn remove_key_compares_the_whole_key() {
        let mut t = CapTable::new(0);
        let s = t.insert_new(key(5));
        for other in [
            DdlKey::new(PeId(0), VpeId(1), CapType::Memory, 5),
            DdlKey::new(PeId(1), VpeId(0), CapType::Memory, 5),
            DdlKey::new(PeId(0), VpeId(0), CapType::Session, 5),
            key(6),
            key(semper_base::ddl::MAX_OBJECT_ID),
        ] {
            assert_eq!(t.remove_key(other), None, "{other:?}");
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove_key(key(5)), Some(s));
    }

    #[test]
    #[should_panic(expected = "object id 5 of")]
    fn binding_a_bound_object_id_again_panics() {
        let mut t = CapTable::new(0);
        t.insert_new(key(5));
        t.insert_new(DdlKey::new(PeId(0), VpeId(1), CapType::Memory, 5));
    }

    #[test]
    fn remove_returns_key_and_clears_reverse_index() {
        let mut t = CapTable::new(0);
        let s = t.insert_new(key(7));
        assert_eq!(t.remove(s), Some(key(7)));
        assert_eq!(t.remove_key(key(7)), None);
    }
}
