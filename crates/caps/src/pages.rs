//! Values addressed by a dense `u32` id.
//!
//! [`IdPages`] stores a value at its id in boxed pages of [`PAGE`]
//! consecutive slots, each with a live count. It backs both
//! id-addressed structures of this crate: the mapping database's
//! records (one `IdPages` per creator VPE, at the key's object id) and a
//! capability table's reverse index (object id → selector). Object ids
//! come from a per-creator monotone counter ([`crate::KeyAllocator`]),
//! so values arrive at mostly increasing ids and leave in any order.
//!
//! # Page policy
//!
//! Memory follows live values: a page is freed when its last value
//! goes, except the *newest* page (the highest one opened), which stays
//! until a later page opens and is freed then if it is empty. Without
//! the exception, a create-then-revoke pattern (nginx's extent per
//! request) would allocate and free a page on every value; with it, at
//! most one empty page exists at any time. A page vector has one word
//! per page up to the highest id seen; [`semper_base::ddl::MAX_OBJECT_ID`]
//! caps it at 2²⁰ entries.

/// Consecutive ids per page.
pub(crate) const PAGE: usize = 16;

/// The values of `PAGE` consecutive ids.
#[derive(Debug, Clone)]
struct Page<T> {
    slots: [Option<T>; PAGE],
    /// Occupied slots.
    live: u32,
}

/// Values at their id: page `id / PAGE`, slot `id % PAGE`.
#[derive(Debug, Clone)]
pub(crate) struct IdPages<T> {
    pages: Vec<Option<Box<Page<T>>>>,
    /// The highest page opened so far; kept while empty (see "Page
    /// policy").
    newest: usize,
}

impl<T> Default for IdPages<T> {
    fn default() -> Self {
        IdPages { pages: Vec::new(), newest: 0 }
    }
}

impl<T> IdPages<T> {
    /// The value at `id`; looking past the pages grows nothing.
    pub(crate) fn get(&self, id: u32) -> Option<&T> {
        let id = id as usize;
        self.pages.get(id / PAGE)?.as_deref()?.slots[id % PAGE].as_ref()
    }

    /// The value at `id`, mutably.
    pub(crate) fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        let id = id as usize;
        self.pages.get_mut(id / PAGE)?.as_deref_mut()?.slots[id % PAGE].as_mut()
    }

    /// Stores `value` at `id`, opening its page if needed. If `id` is
    /// occupied, nothing changes and the value held there is returned.
    pub(crate) fn insert(&mut self, id: u32, value: T) -> Result<(), &T> {
        let (p, s) = (id as usize / PAGE, id as usize % PAGE);
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        if p > self.newest {
            if self.pages[self.newest].as_ref().is_some_and(|page| page.live == 0) {
                self.pages[self.newest] = None;
            }
            self.newest = p;
        }
        let page = self.pages[p]
            .get_or_insert_with(|| Box::new(Page { slots: Default::default(), live: 0 }));
        if page.slots[s].is_some() {
            return Err(page.slots[s].as_ref().expect("checked above"));
        }
        page.slots[s] = Some(value);
        page.live += 1;
        Ok(())
    }

    /// Removes and returns the value at `id` if `pred` accepts it.
    pub(crate) fn remove_if(&mut self, id: u32, pred: impl FnOnce(&T) -> bool) -> Option<T> {
        let (p, s) = (id as usize / PAGE, id as usize % PAGE);
        let entry = self.pages.get_mut(p)?;
        let page = entry.as_deref_mut()?;
        if !pred(page.slots[s].as_ref()?) {
            return None;
        }
        let value = page.slots[s].take();
        page.live -= 1;
        if page.live == 0 && p != self.newest {
            *entry = None;
        }
        value
    }

    /// Every value with its id, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        let pages = self.pages.iter().enumerate();
        pages.filter_map(|(p, page)| Some((p, page.as_deref()?))).flat_map(|(p, page)| {
            let slots = page.slots.iter().enumerate();
            slots.filter_map(move |(s, v)| Some(((p * PAGE + s) as u32, v.as_ref()?)))
        })
    }

    /// Pages currently allocated.
    #[cfg(test)]
    pub(crate) fn open_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    /// Length of the page vector (one word per page up to the highest
    /// id inserted).
    #[cfg(test)]
    pub(crate) fn reach(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    impl<T> IdPages<T> {
        /// Allocated pages that hold no value.
        fn empty_pages(&self) -> usize {
            self.pages.iter().flatten().filter(|page| page.live == 0).count()
        }
    }

    /// `IdPages` against a `BTreeMap`: inserts at increasing ids, late
    /// inserts below the newest page, removals of random live ids, in
    /// phases that grow and drain the set. After every step the two
    /// agree on `get` and id-order `iter`, live counts agree with the
    /// slots, and at most one empty page exists.
    #[test]
    fn matches_a_btree_map() {
        let mut pages: IdPages<u64> = IdPages::default();
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        let mut next_id = 0u32;
        let (mut late, mut peak) = (0, 0);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for step in 0..20_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let r = (x >> 33) as u32;
            let fresh = if step / 1000 % 2 == 0 { 4 } else { 1 };
            match r % 8 {
                // Fresh ids, sometimes skipping a few (keys allocated
                // but not yet inserted).
                k if k < fresh => {
                    next_id += 1 + r / 8 % 3;
                    assert_eq!(pages.insert(next_id, step), Ok(()));
                    model.insert(next_id, step);
                    peak = peak.max(model.len());
                }
                // A late insert below the newest page.
                4 if next_id as usize > 2 * PAGE => {
                    let id = r / 8 % (next_id - PAGE as u32);
                    match model.get(&id) {
                        Some(held) => assert_eq!(pages.insert(id, step), Err(held)),
                        None => {
                            assert_eq!(pages.insert(id, step), Ok(()));
                            model.insert(id, step);
                            late += 1;
                        }
                    }
                }
                _ if !model.is_empty() => {
                    let &id = model.keys().nth(r as usize / 8 % model.len()).unwrap();
                    assert_eq!(pages.remove_if(id, |_| false), None);
                    assert_eq!(pages.remove_if(id, |_| true), model.remove(&id));
                    assert_eq!(pages.remove_if(id, |_| true), None);
                }
                _ => {}
            }
            for id in [r % (next_id + 2 * PAGE as u32), next_id, next_id + 1] {
                assert_eq!(pages.get(id), model.get(&id), "step {step}, id {id}");
            }
            assert!(pages.empty_pages() <= 1, "step {step}: {} empty pages", pages.empty_pages());
            if step % 500 == 0 {
                let seen: Vec<(u32, u64)> = pages.iter().map(|(id, v)| (id, *v)).collect();
                assert_eq!(seen, model.iter().map(|(id, v)| (*id, *v)).collect::<Vec<_>>());
                for page in pages.pages.iter().flatten() {
                    assert_eq!(page.live as usize, page.slots.iter().flatten().count());
                }
            }
        }
        assert!(late > 100 && peak > 100, "{late} late inserts, at most {peak} live");
        let seen: Vec<(u32, u64)> = pages.iter().map(|(id, v)| (id, *v)).collect();
        assert_eq!(seen, model.into_iter().collect::<Vec<_>>());
    }

    /// The newest page outlives its last value until a later page opens;
    /// any other page goes with its last value.
    #[test]
    fn only_the_newest_page_outlives_its_values() {
        let mut pages: IdPages<()> = IdPages::default();
        pages.insert(0, ()).unwrap();
        pages.remove_if(0, |_| true).unwrap();
        assert_eq!((pages.open_pages(), pages.empty_pages()), (1, 1));
        // Create-then-remove on the newest page reuses it.
        for id in 1..PAGE as u32 {
            pages.insert(id, ()).unwrap();
            pages.remove_if(id, |_| true).unwrap();
            assert_eq!(pages.open_pages(), 1);
        }
        pages.insert(PAGE as u32, ()).unwrap();
        assert_eq!((pages.open_pages(), pages.empty_pages()), (1, 0));
        // A late insert reopens a freed page, which goes with its value.
        pages.insert(3, ()).unwrap();
        assert_eq!(pages.open_pages(), 2);
        pages.remove_if(3, |_| true).unwrap();
        assert_eq!(pages.open_pages(), 1);
        assert_eq!(pages.reach(), 2);
    }
}
