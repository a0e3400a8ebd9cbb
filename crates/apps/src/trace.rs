//! Application traces: what each benchmark instance does.
//!
//! A [`Trace`] is the sequence of filesystem and compute operations one
//! application instance performs. The generators below are calibrated so
//! the capability-operation counts land on the paper's Table 4:
//!
//! | app      | cap ops / instance (paper) |
//! |----------|----------------------------|
//! | tar      | 21                         |
//! | untar    | 11                         |
//! | find     | 3                          |
//! | SQLite   | 24                         |
//! | LevelDB  | 22                         |
//! | PostMark | 38                         |
//!
//! With the reproduction's extent size of 1 MiB, one *file read or write
//! of E extents* costs E delegations (one per extent capability) plus E
//! revocations at close, and each session open is one more capability
//! operation. The `table4_app_capops` bench prints measured counts next
//! to the paper's.
//!
//! The paper replays one recorded trace in every instance (§5.3), and
//! so does this module: a trace is one op sequence per application,
//! shared by every instance, plus a path table of the instance's own.
//! An op names a path by its index in that table ([`PathId`]). The
//! generators intern each path at its first use and never branch on the
//! instance number, so the sequences of all instances are equal; only
//! the strings of the table differ (`/work/<n>/…`). [`AppKind::trace`]
//! builds each application's sequence once per process and hands every
//! instance a handle on it.

use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// The index of a path in its trace's path table ([`Trace::path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PathId(pub u16);

impl PathId {
    /// The index as a `usize`.
    pub fn idx(self) -> usize {
        usize::from(self.0)
    }
}

/// One step of an application trace.
///
/// A step names its path by [`PathId`], an index into the trace's path
/// table, so a step is 16 bytes and the op sequence holds no handle of
/// an instance's own: every instance of one application replays the
/// same sequence. Sending a request takes a handle on the table's path;
/// no path bytes are copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOp {
    /// Pure computation for the given number of cycles (think time; also
    /// stands in for syscalls SemperOS does not implement, which the
    /// paper accounts for by waiting — §5.3.1).
    Compute {
        /// Busy cycles.
        cycles: u64,
    },
    /// Open a file.
    Open {
        /// Path within the instance's m3fs.
        path: PathId,
        /// Open for writing.
        write: bool,
        /// Create if missing.
        create: bool,
    },
    /// Sequentially read the first `bytes` bytes of an open file through
    /// delegated extent capabilities.
    Read {
        /// Path (must be open).
        path: PathId,
        /// Bytes to read; clamped to the file size.
        bytes: u64,
    },
    /// Sequentially write `bytes` bytes (the service allocates extents
    /// as needed).
    Write {
        /// Path (must be open for writing).
        path: PathId,
        /// Bytes to write.
        bytes: u64,
    },
    /// Stat a path (metadata only, no capabilities).
    Stat {
        /// Path to inspect.
        path: PathId,
    },
    /// List a directory.
    ReadDir {
        /// Directory path.
        path: PathId,
    },
    /// Create a directory.
    Mkdir {
        /// New directory path.
        path: PathId,
    },
    /// Remove a file.
    Unlink {
        /// Path to remove.
        path: PathId,
    },
    /// Close an open file (revokes its extent capabilities).
    Close {
        /// Path (must be open).
        path: PathId,
    },
}

// A step is a tag, a path id and one `u64`: 512 instances read one
// sequence per application, so its size is the replay's cache footprint.
const _: () = assert!(std::mem::size_of::<TraceOp>() == 16);

/// A full application trace: a shared op sequence and the instance's
/// own path table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Application name (for reports).
    pub name: String,
    /// The operations, in order; every instance of one application
    /// holds the same allocation.
    pub ops: Arc<[TraceOp]>,
    /// The paths the operations name, indexed by [`PathId`].
    pub paths: Box<[Arc<str>]>,
}

impl Trace {
    /// The path `id` names, or `None` if it is not in this trace's
    /// table.
    pub fn path(&self, id: PathId) -> Option<&Arc<str>> {
        self.paths.get(id.idx())
    }
}

/// Builds one trace: interns each path at its first use, by string
/// equality and in first-use order, and records the ops unless only the
/// path table is wanted.
struct Builder {
    record: bool,
    ops: Vec<TraceOp>,
    paths: Vec<Arc<str>>,
}

impl Builder {
    fn new(record: bool) -> Builder {
        Builder { record, ops: Vec::new(), paths: Vec::new() }
    }

    /// The id of `path`, added to the table if it is new.
    fn path(&mut self, path: &str) -> PathId {
        let idx = match self.paths.iter().position(|p| **p == *path) {
            Some(idx) => idx,
            None => {
                self.paths.push(path.into());
                self.paths.len() - 1
            }
        };
        PathId(u16::try_from(idx).expect("a trace names at most 2^16 paths"))
    }

    fn op(&mut self, op: TraceOp) {
        if self.record {
            self.ops.push(op);
        }
    }
}

/// The benchmark applications of §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AppKind {
    /// `tar`: pack five files (128–2048 KiB) into a 4 MiB archive.
    Tar,
    /// `untar`: unpack the archive.
    Untar,
    /// `find`: scan a directory tree of 80 entries for a missing file.
    Find,
    /// SQLite: create a table, insert 8 rows, select them.
    Sqlite,
    /// LevelDB: same logical workload, higher file-access frequency.
    LevelDb,
    /// PostMark: a heavily loaded mail server (many small files).
    PostMark,
}

impl AppKind {
    /// All six applications, in the paper's presentation order.
    pub const ALL: [AppKind; 6] = [
        AppKind::Tar,
        AppKind::Untar,
        AppKind::Find,
        AppKind::Sqlite,
        AppKind::LevelDb,
        AppKind::PostMark,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Tar => "tar",
            AppKind::Untar => "untar",
            AppKind::Find => "find",
            AppKind::Sqlite => "SQLite",
            AppKind::LevelDb => "LevelDB",
            AppKind::PostMark => "PostMark",
        }
    }

    /// The paper's Table 4 capability-operation count for one instance.
    pub fn paper_cap_ops(self) -> u64 {
        match self {
            AppKind::Tar => 21,
            AppKind::Untar => 11,
            AppKind::Find => 3,
            AppKind::Sqlite => 24,
            AppKind::LevelDb => 22,
            AppKind::PostMark => 38,
        }
    }

    /// The trace of one instance. `instance` individualises the path
    /// table so parallel instances do not collide inside one m3fs
    /// image; the op sequence is the application's, built on first use
    /// and shared by every instance.
    pub fn trace(self, instance: u32) -> Trace {
        const APPS: usize = AppKind::ALL.len();
        static OPS: [OnceLock<Arc<[TraceOp]>>; APPS] = [const { OnceLock::new() }; APPS];
        let ops = OPS[self as usize].get_or_init(|| self.build(instance, true).ops.into());
        let paths = self.build(instance, false).paths;
        Trace { name: self.name().into(), ops: Arc::clone(ops), paths: paths.into() }
    }

    /// Runs this application's generator for `instance`: the path table
    /// always, the op sequence (chatter and think time included) if
    /// `record`.
    fn build(self, instance: u32, record: bool) -> Builder {
        let mut b = Builder::new(record);
        match self {
            AppKind::Tar => tar(&mut b, instance),
            AppKind::Untar => untar(&mut b, instance),
            AppKind::Find => find(&mut b),
            AppKind::Sqlite => sqlite(&mut b, instance),
            AppKind::LevelDb => leveldb(&mut b, instance),
            AppKind::PostMark => postmark(&mut b, instance),
        }
        let chatter = b.path(CHATTER_PATH);
        let ops = inject_chatter(std::mem::take(&mut b.ops), chatter, self.chatter_ops());
        b.ops = pad_with_think(ops, replay_think(self));
        b
    }

    /// Number of small metadata requests ("chatter") one instance sends
    /// to its filesystem service beyond the capability-bearing
    /// operations. Real traces contain hundreds to thousands of
    /// lightweight syscalls (stat, lseek, fcntl, small buffered reads)
    /// per instance; these load the *services* without creating
    /// capabilities, which is what makes the applications "heavily
    /// dependent on the OS services" (§1) and drives the
    /// service-dependence curves of Figure 7.
    fn chatter_ops(self) -> u32 {
        match self {
            AppKind::Tar => 680,
            AppKind::Untar => 660,
            AppKind::Find => 480,
            AppKind::Sqlite => 1120,
            AppKind::LevelDb => 660,
            AppKind::PostMark => 405,
        }
    }
}

/// The static filesystem contents every m3fs image must be pre-populated
/// with so any instance of any app can run against it. Returns
/// `(directories, files)`; per-instance `/work/<n>` files are created at
/// runtime by the traces themselves.
pub fn required_image() -> (Vec<String>, Vec<(String, u64)>) {
    let mut dirs = vec!["/input".to_string(), "/work".to_string(), "/docroot".to_string()];
    let mut files = Vec::new();
    // tar members and the untar archive.
    for (i, kib) in TAR_MEMBER_KIB.iter().enumerate() {
        files.push((format!("/input/member{i}.dat"), kib * 1024));
    }
    files.push(("/input/archive.tar".to_string(), TAR_ARCHIVE_BYTES));
    // find's directory tree: 80 entries over 4 directories + an index.
    files.push(("/tree/index.dat".to_string(), 4096));
    for d in 0..4 {
        dirs.push(format!("/tree/d{d}"));
        for e in 0..(FIND_ENTRIES / 4) {
            files.push((format!("/tree/d{d}/e{e}"), 256));
        }
    }
    // Nginx docroot: 16 KiB pages.
    for p in 0..DOCROOT_PAGES {
        files.push((format!("/docroot/page{p}.html"), 16 * 1024));
    }
    (dirs, files)
}

/// Sizes of the five archive members (KiB), §5.3.1.
pub const TAR_MEMBER_KIB: [u64; 5] = [128, 256, 512, 1024, 2048];
/// Total archive size: 4 MiB (approximately the sum of the members).
pub const TAR_ARCHIVE_BYTES: u64 = 4 << 20;
/// Entries in the `find` directory tree, §5.3.1.
pub const FIND_ENTRIES: usize = 80;
/// Pages in the Nginx docroot; request URI `u` serves page
/// `u % DOCROOT_PAGES`.
pub const DOCROOT_PAGES: u32 = 8;

/// Think-time scale: cycles of compute per KiB processed (memory-bound
/// apps like tar get little; compute-bound apps like SQLite get more).
const LIGHT_COMPUTE: u64 = 2_000;
const MEDIUM_COMPUTE: u64 = 12_000;
const HEAVY_COMPUTE: u64 = 60_000;

/// Per-application replay think time (cycles), distributed across the
/// trace. This models the paper's methodology of *waiting for the
/// recorded Linux duration* of every syscall SemperOS does not implement
/// (§5.3.1) — the bulk of each application's wall time. Values calibrate
/// the solo instance runtime so that Table 4's single-instance
/// "cap ops/s" rates are met (e.g. tar: 21 ops at 7295 ops/s ⇒ ≈ 5.8 M
/// cycles at 2 GHz).
fn replay_think(app: AppKind) -> u64 {
    match app {
        AppKind::Tar => 3_874_000,
        AppKind::Untar => 4_086_000,
        AppKind::Find => 3_937_000,
        AppKind::Sqlite => 5_969_000,
        AppKind::LevelDb => 4_142_000,
        AppKind::PostMark => 2_925_000,
    }
}

/// The static path the metadata chatter stats.
const CHATTER_PATH: &str = "/input/member0.dat";

/// Spreads `count` metadata requests (stat of `path`) evenly through
/// the trace.
fn inject_chatter(ops: Vec<TraceOp>, path: PathId, count: u32) -> Vec<TraceOp> {
    if count == 0 || ops.is_empty() {
        return ops;
    }
    let per_slot = count as usize / ops.len().max(1) + 1;
    let mut out = Vec::with_capacity(ops.len() + count as usize);
    let mut injected = 0usize;
    for op in ops {
        out.push(op);
        for _ in 0..per_slot {
            if injected < count as usize {
                out.push(TraceOp::Stat { path });
                injected += 1;
            }
        }
    }
    while injected < count as usize {
        out.push(TraceOp::Stat { path });
        injected += 1;
    }
    out
}

/// Distributes `total` think cycles across a trace by inserting a
/// `Compute` op after every filesystem operation.
fn pad_with_think(mut ops: Vec<TraceOp>, total: u64) -> Vec<TraceOp> {
    let fs_ops = ops.iter().filter(|o| !matches!(o, TraceOp::Compute { .. })).count() as u64;
    if fs_ops == 0 || total == 0 {
        return ops;
    }
    let per_op = total / fs_ops;
    let mut padded = Vec::with_capacity(ops.len() * 2);
    for op in ops.drain(..) {
        let is_fs = !matches!(op, TraceOp::Compute { .. });
        padded.push(op);
        if is_fs {
            padded.push(TraceOp::Compute { cycles: per_op });
        }
    }
    padded
}

fn tar(b: &mut Builder, instance: u32) {
    // Reads five input files, writes one 4 MiB archive.
    // Cap ops: 1 session + (5 member reads = 6 extents) + (archive write
    // = 4 extents) → 10 delegations + 10 revokes + 1 session = 21.
    let archive = b.path(&format!("/work/{instance}/out.tar"));
    b.op(TraceOp::Open { path: archive, write: true, create: true });
    for (i, kib) in TAR_MEMBER_KIB.iter().enumerate() {
        let path = b.path(&format!("/input/member{i}.dat"));
        b.op(TraceOp::Open { path, write: false, create: false });
        b.op(TraceOp::Read { path, bytes: kib * 1024 });
        b.op(TraceOp::Compute { cycles: LIGHT_COMPUTE * kib / 128 });
        b.op(TraceOp::Close { path });
        // Append this member to the archive (bytes accumulate; extents
        // are delegated as the file grows).
        b.op(TraceOp::Write { path: archive, bytes: kib * 1024 });
    }
    b.op(TraceOp::Close { path: archive });
}

fn untar(b: &mut Builder, instance: u32) {
    // Reads the 4 MiB archive once (4 extents) and unpacks into a
    // per-instance scratch file opened once (1 extent delegated for the
    // whole unpack buffer). Cap ops: 1 session + 5 delegations + 5
    // revokes = 11.
    let archive = b.path("/input/archive.tar");
    let scratch = b.path(&format!("/work/{instance}/unpacked.dat"));
    b.op(TraceOp::Open { path: archive, write: false, create: false });
    b.op(TraceOp::Open { path: scratch, write: true, create: true });
    b.op(TraceOp::Read { path: archive, bytes: TAR_ARCHIVE_BYTES });
    b.op(TraceOp::Compute { cycles: LIGHT_COMPUTE * 32 });
    // The unpack writes land in the first extent of the scratch file.
    b.op(TraceOp::Write { path: scratch, bytes: 512 * 1024 });
    b.op(TraceOp::Close { path: archive });
    b.op(TraceOp::Close { path: scratch });
}

fn find(b: &mut Builder) {
    // Pure metadata scan: readdir + stat over 80 entries looking for a
    // file that does not exist, plus one read of the directory index.
    // Cap ops: 1 session + 1 delegation + 1 revoke = 3.
    let index = b.path("/tree/index.dat");
    b.op(TraceOp::Open { path: index, write: false, create: false });
    b.op(TraceOp::Read { path: index, bytes: 4096 });
    for d in 0..4 {
        let dir = b.path(&format!("/tree/d{d}"));
        b.op(TraceOp::ReadDir { path: dir });
        for e in 0..(FIND_ENTRIES / 4) {
            let entry = b.path(&format!("/tree/d{d}/e{e}"));
            b.op(TraceOp::Stat { path: entry });
            b.op(TraceOp::Compute { cycles: 300 });
        }
    }
    b.op(TraceOp::Close { path: index });
}

fn sqlite(b: &mut Builder, instance: u32) {
    // Create a table, insert 8 rows, select them back — with journaling.
    // The database and journal are opened/closed around bursts, giving
    // several short-lived extent capabilities.
    // Cap ops: 1 session + db(2 opens × 1 extent) + journal(4 opens × 1)
    // + table page (2 × 1) + select read (2) + backup page (1)
    //   = 11 delegations + 11 revokes + 1 session ≈ 24 (paper: 24).
    let db = b.path(&format!("/work/{instance}/app.db"));
    let journal = b.path(&format!("/work/{instance}/app.db-journal"));
    // Phase 1: create table (db + journal).
    b.op(TraceOp::Open { path: db, write: true, create: true });
    b.op(TraceOp::Compute { cycles: HEAVY_COMPUTE });
    b.op(TraceOp::Write { path: db, bytes: 64 * 1024 });
    b.op(TraceOp::Open { path: journal, write: true, create: true });
    b.op(TraceOp::Write { path: journal, bytes: 32 * 1024 });
    b.op(TraceOp::Compute { cycles: HEAVY_COMPUTE });
    b.op(TraceOp::Close { path: journal });
    b.op(TraceOp::Close { path: db });
    // Phase 2: insert 8 rows in four journaled bursts.
    for _ in 0..4 {
        b.op(TraceOp::Open { path: db, write: true, create: false });
        b.op(TraceOp::Open { path: journal, write: true, create: false });
        b.op(TraceOp::Compute { cycles: HEAVY_COMPUTE });
        b.op(TraceOp::Write { path: journal, bytes: 16 * 1024 });
        b.op(TraceOp::Write { path: db, bytes: 32 * 1024 });
        b.op(TraceOp::Compute { cycles: HEAVY_COMPUTE });
        b.op(TraceOp::Close { path: journal });
        b.op(TraceOp::Close { path: db });
    }
    // Phase 3: select the rows back.
    b.op(TraceOp::Open { path: db, write: false, create: false });
    b.op(TraceOp::Read { path: db, bytes: 96 * 1024 });
    b.op(TraceOp::Compute { cycles: HEAVY_COMPUTE * 2 });
    b.op(TraceOp::Close { path: db });
}

fn leveldb(b: &mut Builder, instance: u32) {
    // LevelDB: log-structured — writes go to a log, then a table file;
    // higher file-access frequency than SQLite, less compute per access.
    // Cap ops target: 22 = 1 session + ~10-11 delegations + revokes.
    let log = b.path(&format!("/work/{instance}/000001.log"));
    let manifest = b.path(&format!("/work/{instance}/MANIFEST"));
    let table = b.path(&format!("/work/{instance}/000002.ldb"));
    b.op(TraceOp::Open { path: manifest, write: true, create: true });
    b.op(TraceOp::Write { path: manifest, bytes: 4 * 1024 });
    b.op(TraceOp::Close { path: manifest });
    // 8 inserts hitting the log in 4 reopened batches.
    for _ in 0..4 {
        b.op(TraceOp::Open { path: log, write: true, create: true });
        b.op(TraceOp::Write { path: log, bytes: 8 * 1024 });
        b.op(TraceOp::Compute { cycles: MEDIUM_COMPUTE });
        b.op(TraceOp::Close { path: log });
    }
    // Compaction: read the log, write the table.
    b.op(TraceOp::Open { path: log, write: false, create: false });
    b.op(TraceOp::Read { path: log, bytes: 32 * 1024 });
    b.op(TraceOp::Close { path: log });
    b.op(TraceOp::Open { path: table, write: true, create: true });
    b.op(TraceOp::Write { path: table, bytes: 32 * 1024 });
    b.op(TraceOp::Close { path: table });
    // Selects: read the table twice, reopening in between.
    for _ in 0..2 {
        b.op(TraceOp::Open { path: table, write: false, create: false });
        b.op(TraceOp::Read { path: table, bytes: 32 * 1024 });
        b.op(TraceOp::Compute { cycles: MEDIUM_COMPUTE });
        b.op(TraceOp::Close { path: table });
    }
    // Update the manifest at shutdown.
    b.op(TraceOp::Open { path: manifest, write: true, create: false });
    b.op(TraceOp::Write { path: manifest, bytes: 4 * 1024 });
    b.op(TraceOp::Close { path: manifest });
}

fn postmark(b: &mut Builder, instance: u32) {
    // PostMark: little computation, many small mail files — the highest
    // capability-system load (38 cap ops per instance in Table 4).
    // 1 session + 18 file open/access/close rounds + 1 mailbox index
    //   ≈ 18-19 delegations + revokes.
    let dir = format!("/work/{instance}");
    let maildir = b.path(&format!("{dir}/mail"));
    b.op(TraceOp::Mkdir { path: maildir });
    // Mailbox index read.
    let index = b.path(&format!("{dir}/mail/index"));
    b.op(TraceOp::Open { path: index, write: true, create: true });
    b.op(TraceOp::Write { path: index, bytes: 8 * 1024 });
    b.op(TraceOp::Close { path: index });
    // 8 create+write (deliver), 6 read (fetch), 3 append (flag update);
    // deliveries later unlinked (maildir churn).
    let mails: Vec<PathId> = (0..8).map(|i| b.path(&format!("{dir}/mail/msg{i}"))).collect();
    for &mail in &mails {
        b.op(TraceOp::Open { path: mail, write: true, create: true });
        b.op(TraceOp::Write { path: mail, bytes: 6 * 1024 });
        b.op(TraceOp::Compute { cycles: LIGHT_COMPUTE });
        b.op(TraceOp::Close { path: mail });
    }
    for &mail in &mails[..6] {
        b.op(TraceOp::Open { path: mail, write: false, create: false });
        b.op(TraceOp::Read { path: mail, bytes: 6 * 1024 });
        b.op(TraceOp::Close { path: mail });
    }
    for &mail in &mails[..3] {
        b.op(TraceOp::Open { path: mail, write: true, create: false });
        b.op(TraceOp::Write { path: mail, bytes: 1024 });
        b.op(TraceOp::Close { path: mail });
    }
    for &mail in &mails[..4] {
        b.op(TraceOp::Unlink { path: mail });
    }
}

/// The per-request trace an Nginx worker replays (§5.3.3): serve one
/// static file. Every page's request runs the same five ops on its one
/// path, so they are built once and shared like an application's.
pub fn nginx_request(uri: u32) -> Trace {
    static OPS: OnceLock<Arc<[TraceOp]>> = OnceLock::new();
    let ops = OPS.get_or_init(|| {
        let path = PathId(0);
        Arc::new([
            // Parse the request, resolve the URI.
            TraceOp::Compute { cycles: 40_000 },
            TraceOp::Open { path, write: false, create: false },
            TraceOp::Read { path, bytes: 16 * 1024 },
            // Build headers, log, serialise the response (the bulk of a
            // webserver's per-request time; ~100 µs/request total,
            // matching the paper's per-server throughput).
            TraceOp::Compute { cycles: 140_000 },
            TraceOp::Close { path },
        ])
    });
    let path: Arc<str> = format!("/docroot/page{}.html", uri % DOCROOT_PAGES).into();
    Trace { name: "nginx-req".into(), ops: Arc::clone(ops), paths: Box::new([path]) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_generate_nonempty_traces() {
        for app in AppKind::ALL {
            let t = app.trace(0);
            assert!(!t.ops.is_empty(), "{} trace empty", app.name());
            assert_eq!(t.name, app.name());
        }
    }

    /// Instances differ only in their path tables: no `/work/` path of
    /// instance 0 is in instance 1's table.
    #[test]
    fn instances_use_disjoint_work_paths() {
        for app in AppKind::ALL {
            let (a, b) = (app.trace(0), app.trace(1));
            for path in a.paths.iter().filter(|p| p.starts_with("/work/")) {
                assert!(!b.paths.contains(path), "{}: {path} in both tables", app.name());
            }
        }
    }

    /// Every instance of one application holds the same op sequence,
    /// and it is the sequence an unshared build of another instance
    /// records.
    #[test]
    fn instances_share_their_applications_ops() {
        for app in AppKind::ALL {
            let (first, last) = (app.trace(0), app.trace(511));
            assert!(Arc::ptr_eq(&first.ops, &last.ops), "{}: ops not shared", app.name());
            let unshared = app.build(511, true);
            assert_eq!(*last.ops, *unshared.ops, "{}", app.name());
            assert_eq!(*last.paths, *unshared.paths, "{}", app.name());
        }
    }

    /// Paths are interned by string equality: tar's first member is also
    /// the path the chatter stats, and both name it by one id.
    #[test]
    fn equal_paths_share_one_id() {
        let t = AppKind::Tar.trace(0);
        let member0 = t.paths.iter().filter(|p| ***p == *CHATTER_PATH).count();
        assert_eq!(member0, 1);
        let mut sorted = t.paths.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), t.paths.len(), "a path interned twice");
    }

    #[test]
    fn traces_balance_opens_and_closes() {
        for app in AppKind::ALL {
            let t = app.trace(3);
            let opens = t.ops.iter().filter(|o| matches!(o, TraceOp::Open { .. })).count();
            let closes = t.ops.iter().filter(|o| matches!(o, TraceOp::Close { .. })).count();
            assert_eq!(opens, closes, "{}: {opens} opens vs {closes} closes", app.name());
        }
    }

    #[test]
    fn find_is_metadata_heavy() {
        let t = AppKind::Find.trace(0);
        // The 80 tree entries plus the injected metadata chatter.
        let stats = t.ops.iter().filter(|o| matches!(o, TraceOp::Stat { .. })).count();
        assert!(stats >= FIND_ENTRIES, "find must stat all {FIND_ENTRIES} entries");
    }

    #[test]
    fn postmark_touches_many_files() {
        let t = AppKind::PostMark.trace(0);
        let opens = t.ops.iter().filter(|o| matches!(o, TraceOp::Open { .. })).count();
        assert!(opens >= 17, "postmark opens {opens}");
    }

    #[test]
    fn nginx_request_reads_docroot() {
        let t = nginx_request(3);
        assert!(t.ops.iter().any(|op| matches!(op,
            TraceOp::Open { path, .. } if t.path(*path).is_some_and(|p| p.contains("docroot")))));
    }

    /// Every docroot page's request replays one shared op sequence on
    /// a path of its own.
    #[test]
    fn nginx_pages_share_their_ops() {
        let (a, b) = (nginx_request(0), nginx_request(1));
        assert!(Arc::ptr_eq(&a.ops, &b.ops));
        assert_ne!(a.paths, b.paths);
    }

    #[test]
    fn paper_cap_ops_match_table4() {
        assert_eq!(AppKind::Tar.paper_cap_ops(), 21);
        assert_eq!(AppKind::PostMark.paper_cap_ops(), 38);
    }
}
