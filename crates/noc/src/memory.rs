//! The global physical address space.
//!
//! Memory capabilities in M3/SemperOS reference byte-granular regions of
//! a machine-wide address space (off-chip DRAM or PE-local memories).
//! Following the paper's methodology (§5.3.1), we model *allocation and
//! access timing* but not contents: data accesses cost cycles, and the
//! access-control checks are performed against capability ranges.

use semper_base::{Code, Error, Result};

/// A bump allocator over the global physical address space.
///
/// Regions are never reclaimed: the workloads in the evaluation allocate
/// a bounded amount (filesystem images plus scratch buffers), and keeping
/// allocation monotone makes address assignment deterministic. Only a
/// refused creation gives its region straight back.
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    base: u64,
    next: u64,
    limit: u64,
}

/// Alignment of all allocations (a DRAM burst).
pub const ALLOC_ALIGN: u64 = 64;

impl GlobalMemory {
    /// Creates an address space of `size` bytes starting at `base`.
    pub fn new(base: u64, size: u64) -> GlobalMemory {
        let start = align_up(base).expect("the base is below the last aligned address");
        GlobalMemory { base: start, next: start, limit: base + size }
    }

    /// Allocates `size` bytes; returns the region's base address.
    pub fn alloc(&mut self, size: u64) -> Result<u64> {
        if size == 0 {
            return Err(Error::new(Code::InvalidArgs));
        }
        let base = self.next;
        let end = align_up(size).and_then(|size| base.checked_add(size));
        let end = end.ok_or_else(|| Error::new(Code::NoSpace))?;
        if end > self.limit {
            return Err(Error::new(Code::NoSpace));
        }
        self.next = end;
        Ok(base)
    }

    /// Gives back the region at `base` that [`GlobalMemory::alloc`] has
    /// just returned, when the creation that took it is refused.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not an address this allocator handed out.
    pub fn give_back(&mut self, base: u64) {
        assert!((self.base..=self.next).contains(&base), "{base:#x} was never allocated");
        self.next = base;
    }

    /// Bytes still allocatable.
    pub fn remaining(&self) -> u64 {
        self.limit - self.next
    }

    /// Bytes allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next - self.base
    }
}

/// `v` rounded up to the allocation alignment; `None` past the last
/// aligned address.
fn align_up(v: u64) -> Option<u64> {
    Some(v.checked_add(ALLOC_ALIGN - 1)? & !(ALLOC_ALIGN - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut m = GlobalMemory::new(0, 1 << 20);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_eq!(a % ALLOC_ALIGN, 0);
        assert_eq!(b % ALLOC_ALIGN, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn zero_alloc_rejected() {
        let mut m = GlobalMemory::new(0, 1024);
        assert_eq!(m.alloc(0).unwrap_err().code(), Code::InvalidArgs);
    }

    #[test]
    fn exhaustion() {
        let mut m = GlobalMemory::new(0, 128);
        m.alloc(64).unwrap();
        m.alloc(64).unwrap();
        assert_eq!(m.alloc(1).unwrap_err().code(), Code::NoSpace);
    }

    #[test]
    fn remaining_decreases() {
        let mut m = GlobalMemory::new(0, 1024);
        let r0 = m.remaining();
        m.alloc(64).unwrap();
        assert_eq!(m.remaining(), r0 - 64);
    }

    /// A size whose alignment wraps past `u64::MAX` is refused and
    /// leaves the allocator where it was: the next region is fresh, not
    /// the previous one again.
    #[test]
    fn a_size_near_the_top_is_refused() {
        let mut m = GlobalMemory::new(4 << 30, 64 << 30);
        let a = m.alloc(4096).unwrap();
        assert_eq!(m.alloc(u64::MAX - 10).unwrap_err().code(), Code::NoSpace);
        let b = m.alloc(4096).unwrap();
        assert_eq!(b, a + 4096);
    }
}
