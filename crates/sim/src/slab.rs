//! The one index-linked node pool of the simulation: the event queue's
//! wheel nodes and the stall lanes' parked events and runs all live in
//! [`Slab`]s and link to each other by `u32` index, and the machine keeps
//! its in-flight messages in one, scheduling their indices.

/// End of a chain of indices; never handed out by [`Slab::insert`].
pub(crate) const NIL: u32 = u32::MAX;

/// A `Vec` whose vacated indices are handed out again, last released
/// first, so the hottest slot is the next one written.
pub struct Slab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab { items: Vec::new(), free: Vec::new() }
    }

    /// Stores `item` in the most recently released slot, or a new one;
    /// returns its index.
    pub fn insert(&mut self, item: T) -> u32 {
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
    pub fn release(&mut self, i: u32) {
        self.free.push(i);
    }

    /// Indices handed out and not released.
    pub fn live(&self) -> usize {
        self.items.len() - self.free.len()
    }

    /// Slots ever allocated: the high-water mark of [`Slab::live`].
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> usize {
        self.items.len()
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab::new()
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
