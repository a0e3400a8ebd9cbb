//! Application workloads for the SemperOS evaluation.
//!
//! The paper drives its evaluation (§5.3) with system-call traces of
//! seven real applications — tar, untar, find, SQLite, LevelDB, PostMark,
//! and Nginx — recorded on Linux and replayed against SemperOS. Only the
//! filesystem and capability interactions touch the OS; remaining
//! syscalls are accounted as think time. We reproduce that methodology
//! with *synthetic traces* that issue the same kinds and counts of
//! filesystem operations (calibrated against Table 4's capability-
//! operation counts), interleaved with compute phases:
//!
//! * [`trace`] — the trace representation and the per-application
//!   generators.
//! * [`client`] — the replay driver: an actor that executes a trace
//!   against a kernel and an m3fs instance, consuming extents through
//!   delegated memory capabilities exactly like a real m3fs client.
//! * [`nginx`] — the webserver experiment (§5.3.3): server VPEs that
//!   replay a request-handling trace and closed-loop load generators.
//! * [`conn`] — the one kernel-connection/reply-matching implementation
//!   ([`KernelConn`], [`conn::Correlator`]) shared by every actor above
//!   and by the m3fs service.

pub mod client;
pub mod conn;
pub mod nginx;
pub mod trace;

pub use client::{AppClient, ClientPhase, ClientStats};
pub use conn::KernelConn;
pub use nginx::{LoadGen, NginxServer};
pub use trace::{AppKind, PathId, Trace, TraceOp};
