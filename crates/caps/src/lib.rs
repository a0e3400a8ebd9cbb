//! Distributed capability objects and bookkeeping structures.
//!
//! This crate implements the data layer of the paper's capability scheme:
//!
//! * [`membership`] — the membership table (§3.2, Figure 2) mapping PE-id
//!   partitions of the DDL key space to kernels.
//! * [`alloc`] — DDL key allocation (per-creator object-id counters).
//! * [`cap`] — the capability object: resource descriptor, owner, its
//!   parent and the ends of its child list.
//! * [`table`] — per-VPE capability tables (selector → DDL key).
//! * [`mapdb`] — the kernel-wide mapping database (DDL key → capability)
//!   and the index-linked nodes of every child list, with the
//!   tree-maintenance operations the exchange and revoke protocols
//!   build on.
//! * [`spec`] — the sequential specification: the capability forest
//!   with every operation one atomic step, the reference the protocol's
//!   outcomes are checked against.
//!
//! The *protocol* that mutates these structures across kernels lives in
//! `semper-kernel`; everything here is single-kernel state with
//! deterministic iteration order.

pub mod alloc;
pub mod cap;
pub mod mapdb;
pub mod membership;
mod pages;
pub mod spec;
pub mod table;

pub use alloc::KeyAllocator;
pub use cap::{CapState, Capability};
pub use mapdb::MappingDb;
pub use membership::MembershipTable;
pub use table::CapTable;
