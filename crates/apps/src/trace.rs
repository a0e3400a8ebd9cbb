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

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One step of an application trace.
///
/// Paths are shared: the generators below build each distinct path once
/// per trace and every step naming it holds a handle, so replaying a
/// step (and sending its request) copies no path bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
        path: Arc<str>,
        /// Open for writing.
        write: bool,
        /// Create if missing.
        create: bool,
    },
    /// Sequentially read the first `bytes` bytes of an open file through
    /// delegated extent capabilities.
    Read {
        /// Path (must be open).
        path: Arc<str>,
        /// Bytes to read; clamped to the file size.
        bytes: u64,
    },
    /// Sequentially write `bytes` bytes (the service allocates extents
    /// as needed).
    Write {
        /// Path (must be open for writing).
        path: Arc<str>,
        /// Bytes to write.
        bytes: u64,
    },
    /// Stat a path (metadata only, no capabilities).
    Stat {
        /// Path to inspect.
        path: Arc<str>,
    },
    /// List a directory.
    ReadDir {
        /// Directory path.
        path: Arc<str>,
    },
    /// Create a directory.
    Mkdir {
        /// New directory path.
        path: Arc<str>,
    },
    /// Remove a file.
    Unlink {
        /// Path to remove.
        path: Arc<str>,
    },
    /// Close an open file (revokes its extent capabilities).
    Close {
        /// Path (must be open).
        path: Arc<str>,
    },
}

/// A full application trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Application name (for reports).
    pub name: String,
    /// The operations, in order.
    pub ops: Vec<TraceOp>,
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

    /// Generates the trace for one instance. `instance` individualises
    /// paths so parallel instances do not collide inside one m3fs image.
    pub fn trace(self, instance: u32) -> Trace {
        let mut t = match self {
            AppKind::Tar => tar(instance),
            AppKind::Untar => untar(instance),
            AppKind::Find => find(instance),
            AppKind::Sqlite => sqlite(instance),
            AppKind::LevelDb => leveldb(instance),
            AppKind::PostMark => postmark(instance),
        };
        t.ops = inject_chatter(t.ops, self.chatter_ops());
        t.ops = pad_with_think(t.ops, replay_think(self));
        t
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

/// Spreads `count` metadata requests (stat of a static path) evenly
/// through the trace.
fn inject_chatter(ops: Vec<TraceOp>, count: u32) -> Vec<TraceOp> {
    if count == 0 || ops.is_empty() {
        return ops;
    }
    let per_slot = count as usize / ops.len().max(1) + 1;
    let path: Arc<str> = "/input/member0.dat".into();
    let mut out = Vec::with_capacity(ops.len() + count as usize);
    let mut injected = 0usize;
    for op in ops {
        out.push(op);
        for _ in 0..per_slot {
            if injected < count as usize {
                out.push(TraceOp::Stat { path: path.clone() });
                injected += 1;
            }
        }
    }
    while injected < count as usize {
        out.push(TraceOp::Stat { path: path.clone() });
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

fn tar(instance: u32) -> Trace {
    // Reads five input files, writes one 4 MiB archive.
    // Cap ops: 1 session + (5 member reads = 6 extents) + (archive write
    // = 4 extents) → 10 delegations + 10 revokes + 1 session = 21.
    let mut ops = Vec::new();
    let archive: Arc<str> = format!("/work/{instance}/out.tar").into();
    ops.push(TraceOp::Open { path: archive.clone(), write: true, create: true });
    for (i, kib) in TAR_MEMBER_KIB.iter().enumerate() {
        let path: Arc<str> = format!("/input/member{i}.dat").into();
        ops.push(TraceOp::Open { path: path.clone(), write: false, create: false });
        ops.push(TraceOp::Read { path: path.clone(), bytes: kib * 1024 });
        ops.push(TraceOp::Compute { cycles: LIGHT_COMPUTE * kib / 128 });
        ops.push(TraceOp::Close { path });
        // Append this member to the archive (bytes accumulate; extents
        // are delegated as the file grows).
        ops.push(TraceOp::Write { path: archive.clone(), bytes: kib * 1024 });
    }
    ops.push(TraceOp::Close { path: archive });
    Trace { name: "tar".into(), ops }
}

fn untar(instance: u32) -> Trace {
    // Reads the 4 MiB archive once (4 extents) and unpacks into a
    // per-instance scratch file opened once (1 extent delegated for the
    // whole unpack buffer). Cap ops: 1 session + 5 delegations + 5
    // revokes = 11.
    let mut ops = Vec::new();
    let archive: Arc<str> = "/input/archive.tar".into();
    let scratch: Arc<str> = format!("/work/{instance}/unpacked.dat").into();
    ops.push(TraceOp::Open { path: archive.clone(), write: false, create: false });
    ops.push(TraceOp::Open { path: scratch.clone(), write: true, create: true });
    ops.push(TraceOp::Read { path: archive.clone(), bytes: TAR_ARCHIVE_BYTES });
    ops.push(TraceOp::Compute { cycles: LIGHT_COMPUTE * 32 });
    // The unpack writes land in the first extent of the scratch file.
    ops.push(TraceOp::Write { path: scratch.clone(), bytes: 512 * 1024 });
    ops.push(TraceOp::Close { path: archive });
    ops.push(TraceOp::Close { path: scratch });
    Trace { name: "untar".into(), ops }
}

fn find(_instance: u32) -> Trace {
    // Pure metadata scan: readdir + stat over 80 entries looking for a
    // file that does not exist, plus one read of the directory index.
    // Cap ops: 1 session + 1 delegation + 1 revoke = 3.
    let mut ops = Vec::new();
    let index: Arc<str> = "/tree/index.dat".into();
    ops.push(TraceOp::Open { path: index.clone(), write: false, create: false });
    ops.push(TraceOp::Read { path: index.clone(), bytes: 4096 });
    for d in 0..4 {
        ops.push(TraceOp::ReadDir { path: format!("/tree/d{d}").into() });
        for e in 0..(FIND_ENTRIES / 4) {
            ops.push(TraceOp::Stat { path: format!("/tree/d{d}/e{e}").into() });
            ops.push(TraceOp::Compute { cycles: 300 });
        }
    }
    ops.push(TraceOp::Close { path: index });
    Trace { name: "find".into(), ops }
}

fn sqlite(instance: u32) -> Trace {
    // Create a table, insert 8 rows, select them back — with journaling.
    // The database and journal are opened/closed around bursts, giving
    // several short-lived extent capabilities.
    // Cap ops: 1 session + db(2 opens × 1 extent) + journal(4 opens × 1)
    // + table page (2 × 1) + select read (2) + backup page (1)
    //   = 11 delegations + 11 revokes + 1 session ≈ 24 (paper: 24).
    let mut ops = Vec::new();
    let db: Arc<str> = format!("/work/{instance}/app.db").into();
    let journal: Arc<str> = format!("/work/{instance}/app.db-journal").into();
    // Phase 1: create table (db + journal).
    ops.push(TraceOp::Open { path: db.clone(), write: true, create: true });
    ops.push(TraceOp::Compute { cycles: HEAVY_COMPUTE });
    ops.push(TraceOp::Write { path: db.clone(), bytes: 64 * 1024 });
    ops.push(TraceOp::Open { path: journal.clone(), write: true, create: true });
    ops.push(TraceOp::Write { path: journal.clone(), bytes: 32 * 1024 });
    ops.push(TraceOp::Compute { cycles: HEAVY_COMPUTE });
    ops.push(TraceOp::Close { path: journal.clone() });
    ops.push(TraceOp::Close { path: db.clone() });
    // Phase 2: insert 8 rows in four journaled bursts.
    for _ in 0..4 {
        ops.push(TraceOp::Open { path: db.clone(), write: true, create: false });
        ops.push(TraceOp::Open { path: journal.clone(), write: true, create: false });
        ops.push(TraceOp::Compute { cycles: HEAVY_COMPUTE });
        ops.push(TraceOp::Write { path: journal.clone(), bytes: 16 * 1024 });
        ops.push(TraceOp::Write { path: db.clone(), bytes: 32 * 1024 });
        ops.push(TraceOp::Compute { cycles: HEAVY_COMPUTE });
        ops.push(TraceOp::Close { path: journal.clone() });
        ops.push(TraceOp::Close { path: db.clone() });
    }
    // Phase 3: select the rows back.
    ops.push(TraceOp::Open { path: db.clone(), write: false, create: false });
    ops.push(TraceOp::Read { path: db.clone(), bytes: 96 * 1024 });
    ops.push(TraceOp::Compute { cycles: HEAVY_COMPUTE * 2 });
    ops.push(TraceOp::Close { path: db });
    Trace { name: "SQLite".into(), ops }
}

fn leveldb(instance: u32) -> Trace {
    // LevelDB: log-structured — writes go to a log, then a table file;
    // higher file-access frequency than SQLite, less compute per access.
    // Cap ops target: 22 = 1 session + ~10-11 delegations + revokes.
    let mut ops = Vec::new();
    let log: Arc<str> = format!("/work/{instance}/000001.log").into();
    let manifest: Arc<str> = format!("/work/{instance}/MANIFEST").into();
    let table: Arc<str> = format!("/work/{instance}/000002.ldb").into();
    ops.push(TraceOp::Open { path: manifest.clone(), write: true, create: true });
    ops.push(TraceOp::Write { path: manifest.clone(), bytes: 4 * 1024 });
    ops.push(TraceOp::Close { path: manifest.clone() });
    // 8 inserts hitting the log in 4 reopened batches.
    for _ in 0..4 {
        ops.push(TraceOp::Open { path: log.clone(), write: true, create: true });
        ops.push(TraceOp::Write { path: log.clone(), bytes: 8 * 1024 });
        ops.push(TraceOp::Compute { cycles: MEDIUM_COMPUTE });
        ops.push(TraceOp::Close { path: log.clone() });
    }
    // Compaction: read the log, write the table.
    ops.push(TraceOp::Open { path: log.clone(), write: false, create: false });
    ops.push(TraceOp::Read { path: log.clone(), bytes: 32 * 1024 });
    ops.push(TraceOp::Close { path: log });
    ops.push(TraceOp::Open { path: table.clone(), write: true, create: true });
    ops.push(TraceOp::Write { path: table.clone(), bytes: 32 * 1024 });
    ops.push(TraceOp::Close { path: table.clone() });
    // Selects: read the table twice, reopening in between.
    for _ in 0..2 {
        ops.push(TraceOp::Open { path: table.clone(), write: false, create: false });
        ops.push(TraceOp::Read { path: table.clone(), bytes: 32 * 1024 });
        ops.push(TraceOp::Compute { cycles: MEDIUM_COMPUTE });
        ops.push(TraceOp::Close { path: table.clone() });
    }
    // Update the manifest at shutdown.
    ops.push(TraceOp::Open { path: manifest.clone(), write: true, create: false });
    ops.push(TraceOp::Write { path: manifest.clone(), bytes: 4 * 1024 });
    ops.push(TraceOp::Close { path: manifest });
    Trace { name: "LevelDB".into(), ops }
}

fn postmark(instance: u32) -> Trace {
    // PostMark: little computation, many small mail files — the highest
    // capability-system load (38 cap ops per instance in Table 4).
    // 1 session + 18 file open/access/close rounds + 1 mailbox index
    //   ≈ 18-19 delegations + revokes.
    let mut ops = Vec::new();
    let dir = format!("/work/{instance}");
    ops.push(TraceOp::Mkdir { path: format!("{dir}/mail").into() });
    // Mailbox index read.
    let index: Arc<str> = format!("{dir}/mail/index").into();
    ops.push(TraceOp::Open { path: index.clone(), write: true, create: true });
    ops.push(TraceOp::Write { path: index.clone(), bytes: 8 * 1024 });
    ops.push(TraceOp::Close { path: index });
    // 8 create+write (deliver), 6 read (fetch), 3 append (flag update);
    // deliveries later unlinked (maildir churn).
    let mails: Vec<Arc<str>> = (0..8).map(|i| format!("{dir}/mail/msg{i}").into()).collect();
    for mail in &mails {
        ops.push(TraceOp::Open { path: mail.clone(), write: true, create: true });
        ops.push(TraceOp::Write { path: mail.clone(), bytes: 6 * 1024 });
        ops.push(TraceOp::Compute { cycles: LIGHT_COMPUTE });
        ops.push(TraceOp::Close { path: mail.clone() });
    }
    for mail in &mails[..6] {
        ops.push(TraceOp::Open { path: mail.clone(), write: false, create: false });
        ops.push(TraceOp::Read { path: mail.clone(), bytes: 6 * 1024 });
        ops.push(TraceOp::Close { path: mail.clone() });
    }
    for mail in &mails[..3] {
        ops.push(TraceOp::Open { path: mail.clone(), write: true, create: false });
        ops.push(TraceOp::Write { path: mail.clone(), bytes: 1024 });
        ops.push(TraceOp::Close { path: mail.clone() });
    }
    for mail in &mails[..4] {
        ops.push(TraceOp::Unlink { path: mail.clone() });
    }
    Trace { name: "PostMark".into(), ops }
}

/// The per-request trace an Nginx worker replays (§5.3.3): serve one
/// static file.
pub fn nginx_request(uri: u32) -> Trace {
    let path: Arc<str> = format!("/docroot/page{}.html", uri % DOCROOT_PAGES).into();
    Trace {
        name: "nginx-req".into(),
        ops: vec![
            // Parse the request, resolve the URI.
            TraceOp::Compute { cycles: 40_000 },
            TraceOp::Open { path: path.clone(), write: false, create: false },
            TraceOp::Read { path: path.clone(), bytes: 16 * 1024 },
            // Build headers, log, serialise the response (the bulk of a
            // webserver's per-request time; ~100 µs/request total,
            // matching the paper's per-server throughput).
            TraceOp::Compute { cycles: 140_000 },
            TraceOp::Close { path },
        ],
    }
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

    #[test]
    fn instances_use_disjoint_work_paths() {
        let a = AppKind::Sqlite.trace(0);
        let b = AppKind::Sqlite.trace(1);
        assert_ne!(a.ops, b.ops);
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
        assert!(t
            .ops
            .iter()
            .any(|op| matches!(op, TraceOp::Open { path, .. } if path.contains("docroot"))));
    }

    #[test]
    fn paper_cap_ops_match_table4() {
        assert_eq!(AppKind::Tar.paper_cap_ops(), 21);
        assert_eq!(AppKind::PostMark.paper_cap_ops(), 38);
    }
}
