//! The in-memory filesystem image.
//!
//! Files are backed by fixed-size *extents* allocated from the service's
//! memory region (the region behind its filesystem-image capability).
//! Only metadata is modeled — contents live in the simulated global
//! memory whose accesses cost cycles but carry no data, matching the
//! paper's methodology (§5.3.1).
//!
//! # Layout
//!
//! Inodes live in an arena, a `Vec` indexed by [`InodeId`]. One name
//! index, a hash map from normalised path to id, is the only place a
//! path is searched: the service resolves a path once per `Open` and
//! serves every extent of that open file by id. The index is not
//! ordered, so [`FsImage::read_dir`] collects a directory's names and
//! sorts them, which is the byte order a sorted map of paths would
//! list them in.
//!
//! Unlinking a file drops its name and empties its slot, and no slot is
//! reused. An id held past the unlink therefore reaches nothing
//! (`NoSuchFile`), and a file later created at the same path is a new
//! inode with a new id.

use semper_base::msg::FileStat;
use semper_base::{Code, DetHashMap, Error, Result};
use std::borrow::Cow;

/// Size of one extent in bytes (the range granularity at which m3fs
/// hands out memory capabilities).
///
/// 1 MiB reproduces the paper's Table 4 capability-operation counts for
/// the trace mixes in `semper-apps` (e.g. tar: 10 extents delegated +
/// 10 revoked + 1 session = 21 cap ops).
pub const EXTENT_BYTES: u64 = 1024 * 1024;

/// One extent: an offset into the service's memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Offset of this extent within the FS image region.
    pub region_offset: u64,
}

/// An inode: a file or directory.
#[derive(Debug, Clone)]
pub struct Inode {
    /// Logical size in bytes (files only).
    pub size: u64,
    /// Backing extents, in file order.
    pub extents: Vec<Extent>,
    /// True for directories.
    pub is_dir: bool,
}

/// Specification of a filesystem image's initial contents.
///
/// The evaluation pre-populates every m3fs instance with its own copy of
/// the image (§5.3.1: "each having its own copy of the filesystem image
/// in memory").
#[derive(Debug, Clone, Default)]
pub struct FsSpec {
    /// Directories to create (parents are created implicitly).
    pub dirs: Vec<String>,
    /// Files to create: (path, size in bytes).
    pub files: Vec<(String, u64)>,
}

impl FsSpec {
    /// An empty filesystem.
    pub fn empty() -> FsSpec {
        FsSpec::default()
    }

    /// Adds a directory (builder style).
    pub fn dir(mut self, path: &str) -> FsSpec {
        self.dirs.push(path.to_string());
        self
    }

    /// Adds a file of the given size (builder style).
    pub fn file(mut self, path: &str, size: u64) -> FsSpec {
        self.files.push((path.to_string(), size));
        self
    }

    /// Total bytes of extent storage this spec needs, plus headroom for
    /// runtime growth.
    pub fn region_size(&self, headroom: u64) -> u64 {
        let used: u64 =
            self.files.iter().map(|(_, size)| size.div_ceil(EXTENT_BYTES) * EXTENT_BYTES).sum();
        used + headroom
    }
}

/// Names an inode of one [`FsImage`]: its slot in the image's inode
/// arena. An id is never reused (see the module's "Layout").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InodeId(u32);

/// The filesystem image: metadata plus extent allocation.
#[derive(Debug, Clone)]
pub struct FsImage {
    /// The inode arena, indexed by [`InodeId`]; an unlinked file's slot
    /// is `None`.
    inodes: Vec<Option<Inode>>,
    /// Normalised path → inode, one entry per live inode.
    names: DetHashMap<Box<str>, InodeId>,
    region_size: u64,
    next_extent: u64,
}

impl FsImage {
    /// Builds an image from a spec, allocating extents for all files.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not fit into `region_size` bytes.
    pub fn build(spec: &FsSpec, region_size: u64) -> FsImage {
        let mut img = FsImage {
            inodes: Vec::new(),
            names: DetHashMap::default(),
            region_size,
            next_extent: 0,
        };
        img.insert("/", true);
        for d in &spec.dirs {
            img.mkdir_all(&normalize(d));
        }
        for (path, size) in &spec.files {
            let id = img.create_file(path).expect("spec paths are valid");
            img.grow(id, *size).expect("spec fits in region");
        }
        img
    }

    /// Adds an empty inode named `norm` (a normalised path that is not
    /// yet in the index).
    fn insert(&mut self, norm: &str, is_dir: bool) -> InodeId {
        let id = InodeId(u32::try_from(self.inodes.len()).expect("fewer than 2^32 inodes"));
        self.inodes.push(Some(Inode { size: 0, extents: Vec::new(), is_dir }));
        self.names.insert(norm.into(), id);
        id
    }

    /// Creates `norm` (a normalised path) and every missing ancestor.
    fn mkdir_all(&mut self, norm: &str) {
        // Each ancestor is the prefix of `norm` before one of its slashes.
        let ends = norm.match_indices('/').map(|(i, _)| i).skip(1).chain([norm.len()]);
        for end in ends {
            if !self.names.contains_key(&norm[..end]) {
                self.insert(&norm[..end], true);
            }
        }
    }

    /// The live inode `id` names.
    fn inode(&self, id: InodeId) -> Result<&Inode> {
        self.inodes.get(id.0 as usize).and_then(Option::as_ref).ok_or(Error::new(Code::NoSuchFile))
    }

    /// The inode named by `path`.
    pub fn lookup(&self, path: &str) -> Result<InodeId> {
        self.names.get(&*normalize(path)).copied().ok_or(Error::new(Code::NoSuchFile))
    }

    /// Creates an empty file; fails if the path exists.
    pub fn create_file(&mut self, path: &str) -> Result<InodeId> {
        let norm = normalize(path);
        if self.names.contains_key(&*norm) {
            return Err(Error::new(Code::FileExists));
        }
        if let Some(parent) = parent_of(&norm) {
            self.mkdir_all(parent);
        }
        Ok(self.insert(&norm, false))
    }

    /// Grows file `id` to at least `size` bytes, allocating extents.
    pub fn grow(&mut self, id: InodeId, size: u64) -> Result<()> {
        let needed = size.div_ceil(EXTENT_BYTES);
        // Check capacity before touching the inode.
        let inode = self.inode(id)?;
        if inode.is_dir {
            return Err(Error::new(Code::IsDir));
        }
        let extra = needed.saturating_sub(inode.extents.len() as u64);
        if self.next_extent + extra * EXTENT_BYTES > self.region_size {
            return Err(Error::new(Code::NoSpace));
        }
        let first = self.next_extent;
        self.next_extent += extra * EXTENT_BYTES;
        let inode = self.inodes[id.0 as usize].as_mut().expect("checked above");
        let offsets = (0..extra).map(|i| first + i * EXTENT_BYTES);
        inode.extents.extend(offsets.map(|region_offset| Extent { region_offset }));
        inode.size = inode.size.max(size);
        Ok(())
    }

    /// The metadata of inode `id`.
    pub fn stat_of(&self, id: InodeId) -> Result<FileStat> {
        let inode = self.inode(id)?;
        Ok(FileStat { size: inode.size, is_dir: inode.is_dir, extents: inode.extents.len() as u32 })
    }

    /// Looks up an inode.
    pub fn stat(&self, path: &str) -> Result<FileStat> {
        self.stat_of(self.lookup(path)?)
    }

    /// True if the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_ok()
    }

    /// The extent covering byte `offset` of file `id`, with the file
    /// offset the extent starts at and its length.
    pub fn extent_of(&self, id: InodeId, offset: u64) -> Result<(Extent, u64, u64)> {
        let inode = self.inode(id)?;
        if inode.is_dir {
            return Err(Error::new(Code::IsDir));
        }
        if offset >= inode.size {
            return Err(Error::new(Code::EndOfFile));
        }
        let idx = (offset / EXTENT_BYTES) as usize;
        let ext = inode.extents.get(idx).copied().ok_or(Error::new(Code::InternalError))?;
        let start = idx as u64 * EXTENT_BYTES;
        let len = EXTENT_BYTES.min(inode.size - start);
        Ok((ext, start, len))
    }

    /// The extent covering byte `offset` of the file, with the file
    /// offset the extent starts at and its length.
    pub fn extent_at(&self, path: &str, offset: u64) -> Result<(Extent, u64, u64)> {
        self.extent_of(self.lookup(path)?, offset)
    }

    /// Removes a file. Its slot stays empty: an id held past the unlink
    /// reaches nothing, not a file created later at the same path.
    pub fn unlink(&mut self, path: &str) -> Result<()> {
        let norm = normalize(path);
        let id = *self.names.get(&*norm).ok_or(Error::new(Code::NoSuchFile))?;
        if self.inode(id)?.is_dir {
            return Err(Error::new(Code::IsDir));
        }
        // Extent storage is not reclaimed (bump allocation) — the
        // workloads' churn fits the headroom; see FsSpec::region_size.
        self.names.remove(&*norm);
        self.inodes[id.0 as usize] = None;
        Ok(())
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str) -> Result<()> {
        let norm = normalize(path);
        if self.names.contains_key(&*norm) {
            return Err(Error::new(Code::FileExists));
        }
        self.mkdir_all(&norm);
        Ok(())
    }

    /// Names of entries directly inside a directory, in byte order.
    pub fn read_dir(&self, path: &str) -> Result<Vec<String>> {
        let norm = normalize(path);
        if !self.inode(self.lookup(&norm)?)?.is_dir {
            return Err(Error::new(Code::InvalidArgs));
        }
        let prefix = if norm == "/" { "/".to_string() } else { format!("{norm}/") };
        let mut names: Vec<String> = self
            .names
            .keys()
            .filter_map(|key| key.strip_prefix(&*prefix))
            .filter(|rest| !rest.is_empty() && !rest.contains('/'))
            .map(str::to_string)
            .collect();
        names.sort_unstable();
        Ok(names)
    }
}

/// The canonical spelling of `path`: a leading slash, single slashes
/// between components, no trailing slash (the root is `/`). Borrowed
/// when `path` is already spelled that way — every path the trace
/// generators produce is.
fn normalize(path: &str) -> Cow<'_, str> {
    let canonical =
        path.starts_with('/') && !path.contains("//") && (path.len() == 1 || !path.ends_with('/'));
    if canonical {
        return Cow::Borrowed(path);
    }
    let mut norm = String::with_capacity(path.len() + 1);
    for part in path.split('/').filter(|part| !part.is_empty()) {
        norm.push('/');
        norm.push_str(part);
    }
    if norm.is_empty() {
        norm.push('/');
    }
    Cow::Owned(norm)
}

/// The parent directory of a normalised path; `None` directly under
/// the root.
fn parent_of(norm: &str) -> Option<&str> {
    match norm.rfind('/')? {
        0 => None,
        idx => Some(&norm[..idx]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// b.txt spans three extents; a.txt fits in one.
    const B_SIZE: u64 = 2 * EXTENT_BYTES + 100_000;

    fn img() -> FsImage {
        let spec =
            FsSpec::empty().dir("/data").file("/data/a.txt", 100_000).file("/data/b.txt", B_SIZE);
        FsImage::build(&spec, 64 << 20)
    }

    #[test]
    fn build_creates_inodes_and_extents() {
        let i = img();
        let a = i.stat("/data/a.txt").unwrap();
        assert_eq!(a.size, 100_000);
        assert_eq!(a.extents, 1);
        let b = i.stat("/data/b.txt").unwrap();
        assert_eq!(b.extents, 3); // B_SIZE spans three extents
        assert!(i.stat("/data").unwrap().is_dir);
    }

    #[test]
    fn extent_lookup_covers_offsets() {
        let i = img();
        let (e0, start0, len0) = i.extent_at("/data/b.txt", 0).unwrap();
        assert_eq!(start0, 0);
        assert_eq!(len0, EXTENT_BYTES);
        let (e2, start2, len2) = i.extent_at("/data/b.txt", 2 * EXTENT_BYTES + 5).unwrap();
        assert_ne!(e0.region_offset, e2.region_offset);
        assert_eq!(start2, 2 * EXTENT_BYTES);
        assert_eq!(len2, B_SIZE - 2 * EXTENT_BYTES);
    }

    #[test]
    fn read_past_eof_fails() {
        let i = img();
        assert_eq!(i.extent_at("/data/a.txt", 200_000).unwrap_err().code(), Code::EndOfFile);
    }

    #[test]
    fn grow_allocates_new_extents() {
        let mut i = img();
        i.grow(i.lookup("/data/a.txt").unwrap(), EXTENT_BYTES + 300_000).unwrap();
        assert_eq!(i.stat("/data/a.txt").unwrap().extents, 2);
        assert_eq!(i.stat("/data/a.txt").unwrap().size, EXTENT_BYTES + 300_000);
    }

    #[test]
    fn grow_beyond_region_fails() {
        let spec = FsSpec::empty().file("/x", 1);
        let mut i = FsImage::build(&spec, EXTENT_BYTES);
        let x = i.lookup("/x").unwrap();
        assert_eq!(i.grow(x, 10 << 20).unwrap_err().code(), Code::NoSpace);
    }

    #[test]
    fn create_unlink_roundtrip() {
        let mut i = img();
        i.create_file("/new.txt").unwrap();
        assert!(i.exists("/new.txt"));
        assert_eq!(i.create_file("/new.txt").unwrap_err().code(), Code::FileExists);
        i.unlink("/new.txt").unwrap();
        assert!(!i.exists("/new.txt"));
        assert_eq!(i.unlink("/new.txt").unwrap_err().code(), Code::NoSuchFile);
    }

    #[test]
    fn unlink_dir_rejected() {
        let mut i = img();
        assert_eq!(i.unlink("/data").unwrap_err().code(), Code::IsDir);
    }

    #[test]
    fn read_dir_lists_children() {
        let i = img();
        let mut names = i.read_dir("/data").unwrap();
        names.sort();
        assert_eq!(names, vec!["a.txt", "b.txt"]);
        assert_eq!(i.read_dir("/").unwrap(), vec!["data"]);
    }

    /// Siblings sharing a name prefix sort around the directory's block
    /// of keys (`/data-old` before `/data/`, `/data2` after it): neither
    /// they nor their children are listed, nor are grandchildren.
    #[test]
    fn read_dir_skips_siblings_sharing_a_name_prefix() {
        let spec = FsSpec::empty()
            .file("/data-old/x", 1)
            .file("/data/a.txt", 1)
            .file("/data/sub/deep.txt", 1)
            .file("/data2/y", 1)
            .file("/data2.txt", 1);
        let i = FsImage::build(&spec, 64 << 20);
        assert_eq!(i.read_dir("/data").unwrap(), vec!["a.txt", "sub"]);
        assert_eq!(i.read_dir("/data2").unwrap(), vec!["y"]);
        assert_eq!(i.read_dir("/").unwrap(), vec!["data", "data-old", "data2", "data2.txt"]);
        assert_eq!(i.read_dir("/data/sub/").unwrap(), vec!["deep.txt"]);
    }

    /// The listing is sorted, not the order the names were created in.
    #[test]
    fn read_dir_order_does_not_depend_on_creation_order() {
        let listing = |names: &[&str]| {
            let spec =
                names.iter().fold(FsSpec::empty(), |spec, n| spec.file(&format!("/d/{n}"), 1));
            FsImage::build(&spec, 64 << 20).read_dir("/d").unwrap()
        };
        let forward = ["b", "a.txt", "a", "c-1", "A", "c"];
        let mut backward = forward;
        backward.reverse();
        assert_eq!(listing(&forward), listing(&backward));
        assert_eq!(listing(&forward), vec!["A", "a", "a.txt", "b", "c", "c-1"]);
    }

    /// An id resolved before an unlink reaches nothing after it, and a
    /// file created again at the same path is a new inode.
    #[test]
    fn unlinked_id_reaches_nothing_and_a_recreated_path_is_a_new_inode() {
        let mut i = img();
        let old = i.lookup("/data/a.txt").unwrap();
        i.unlink("/data/a.txt").unwrap();
        assert_eq!(i.stat_of(old).unwrap_err().code(), Code::NoSuchFile);
        assert_eq!(i.extent_of(old, 0).unwrap_err().code(), Code::NoSuchFile);
        assert_eq!(i.grow(old, 1).unwrap_err().code(), Code::NoSuchFile);

        let new = i.create_file("/data/a.txt").unwrap();
        assert_ne!(new, old);
        assert_eq!(i.lookup("/data/a.txt").unwrap(), new);
        assert_eq!(i.stat_of(old).unwrap_err().code(), Code::NoSuchFile);
        assert_eq!(i.stat_of(new).unwrap().size, 0);
    }

    #[test]
    fn mkdir_nested() {
        let mut i = img();
        i.mkdir("/a/b/c").unwrap();
        assert!(i.stat("/a/b").unwrap().is_dir);
        assert!(i.stat("/a/b/c").unwrap().is_dir);
        assert_eq!(i.mkdir("/a/b/c").unwrap_err().code(), Code::FileExists);
    }

    #[test]
    fn normalize_accepts_relative_paths() {
        let i = img();
        assert!(i.exists("data/a.txt"));
        assert!(i.exists("/data/a.txt"));
    }

    #[test]
    fn normalize_collapses_every_run_of_slashes() {
        assert_eq!(normalize("/a///b"), "/a/b");
        assert_eq!(normalize("a//b/"), "/a/b");
        assert_eq!(normalize("///"), "/");
        assert_eq!(normalize(""), "/");
        // A file created under one spelling is found under the others.
        let mut i = img();
        i.create_file("/a///b").unwrap();
        assert!(i.exists("/a/b"));
        assert!(i.exists("/a//b"));
        assert!(i.exists("/a///b"));
    }

    #[test]
    fn normalize_borrows_canonical_paths() {
        assert!(matches!(normalize("/input/member0.dat"), Cow::Borrowed(_)));
        assert!(matches!(normalize("/"), Cow::Borrowed(_)));
        assert!(matches!(normalize("/input/"), Cow::Owned(_)));
    }

    #[test]
    fn region_size_accounts_rounding() {
        let spec = FsSpec::empty().file("/a", 1).file("/b", EXTENT_BYTES + 1);
        assert_eq!(spec.region_size(0), 3 * EXTENT_BYTES);
    }
}
