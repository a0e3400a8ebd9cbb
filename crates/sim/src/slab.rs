//! The one index-linked node pool of the engine: the event queue's
//! wheel nodes and the stall lanes' parked events and runs all live in
//! [`Slab`]s and link to each other by `u32` index.

/// End of a chain of indices; never handed out by [`Slab::insert`].
pub(crate) const NIL: u32 = u32::MAX;

/// A `Vec` whose vacated indices are handed out again, last released
/// first, so the hottest slot is the next one written.
pub(crate) struct Slab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Slab<T> {
        Slab { items: Vec::new(), free: Vec::new() }
    }

    pub(crate) fn insert(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.items[i as usize] = item;
                i
            }
            None => {
                let i = u32::try_from(self.items.len()).ok().filter(|&i| i != NIL);
                self.items.push(item);
                i.expect("fewer than 2^32 - 1 live slab items")
            }
        }
    }

    /// Marks `i` reusable. The item stays in place until overwritten.
    pub(crate) fn release(&mut self, i: u32) {
        self.free.push(i);
    }

    /// Indices handed out and not released.
    pub(crate) fn live(&self) -> usize {
        self.items.len() - self.free.len()
    }

    /// Slots ever allocated: the high-water mark of [`Slab::live`].
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> usize {
        self.items.len()
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;
    fn index(&self, i: u32) -> &T {
        &self.items[i as usize]
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, i: u32) -> &mut T {
        &mut self.items[i as usize]
    }
}
