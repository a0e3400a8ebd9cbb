//! The cycle-cost model — our stand-in for gem5's micro-architecture.
//!
//! The paper's evaluation runs on gem5 with 2 GHz out-of-order x86 cores
//! and DTUs. We replace the micro-architecture with a table of calibrated
//! per-operation costs. The *shapes* of the paper's results come from
//! protocol round trips and kernel serialization, which the discrete-event
//! simulation models exactly; these constants only pin the absolute scale.
//!
//! Calibration targets (Table 3 of the paper, in cycles):
//!
//! | operation          | M3   | SemperOS |
//! |--------------------|------|----------|
//! | exchange, local    | 3250 | 3597     |
//! | exchange, spanning | —    | 6484     |
//! | revoke, local      | 1423 | 1997     |
//! | revoke, spanning   | —    | 3876     |
//!
//! The `benches/table3_cap_ops` harness reports measured values next to
//! these targets.

use serde::{Deserialize, Serialize};

/// Per-operation cycle costs. All values are in CPU cycles at the modeled
/// 2 GHz clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    // --- NoC / DTU ---
    /// Fixed latency for any NoC packet (router pipeline + link).
    pub noc_base_latency: u64,
    /// Extra latency per mesh hop.
    pub noc_per_hop: u64,
    /// Payload bytes moved per cycle on a link.
    pub noc_bytes_per_cycle: u64,
    /// Cycles the sending DTU needs to serialise and inject a message.
    pub dtu_send: u64,
    /// Cycles the receiving DTU needs to deposit a message into a slot.
    pub dtu_recv: u64,

    // --- kernel: common ---
    /// Decoding and dispatching an incoming system call.
    pub syscall_entry: u64,
    /// Building and sending the system-call reply.
    pub syscall_exit: u64,
    /// Decoding and dispatching an incoming inter-kernel call.
    pub kcall_entry: u64,
    /// Building and sending an inter-kernel reply.
    pub kcall_exit: u64,
    /// Thread switch at a preemption point (park/unpark a kernel thread).
    pub thread_switch: u64,

    // --- capability operations ---
    /// Looking up a capability via a plain pointer (M3 mode).
    pub cap_lookup: u64,
    /// Extra cost to decode a DDL key and consult the membership table
    /// (SemperOS pays this on every parent/child reference; §5.2 explains
    /// the ~10-40% local overhead this causes).
    pub ddl_decode: u64,
    /// Creating a capability object.
    pub cap_create: u64,
    /// Inserting a capability into a VPE's table and the mapping database.
    pub cap_insert: u64,
    /// Marking one capability for revocation (phase 1).
    pub revoke_mark: u64,
    /// Deleting one capability (phase 2 sweep).
    pub revoke_delete: u64,
    /// Completing a revoke operation (waking the syscall thread,
    /// accounting).
    pub revoke_finish: u64,
    /// Marshalling/validating a capability descriptor for an
    /// inter-kernel exchange (paid once at each kernel of a
    /// group-spanning exchange).
    pub xfer_desc: u64,

    // --- VPE side ---
    /// A VPE's handling of an exchange-accept upcall.
    pub upcall_work: u64,
    /// A service VPE's bookkeeping for a new session.
    pub session_accept: u64,

    // --- memory model (paper §5.3.1: non-contended memory) ---
    /// Fixed latency of a memory access through a memory endpoint.
    pub mem_latency: u64,
    /// Bytes per cycle of streaming bandwidth per PE.
    pub mem_bytes_per_cycle: u64,

    // --- filesystem service ---
    /// m3fs metadata operation (directory lookup, inode touch).
    pub fs_meta_op: u64,
    /// m3fs extent lookup / allocation.
    pub fs_extent_op: u64,
}

impl CostModel {
    /// The calibrated cost model used by all experiments.
    pub fn calibrated() -> CostModel {
        CostModel {
            noc_base_latency: 40,
            noc_per_hop: 8,
            noc_bytes_per_cycle: 16,
            dtu_send: 60,
            dtu_recv: 50,

            syscall_entry: 120,
            syscall_exit: 100,
            kcall_entry: 520,
            kcall_exit: 400,
            thread_switch: 120,

            cap_lookup: 60,
            ddl_decode: 83,
            cap_create: 350,
            cap_insert: 230,
            revoke_mark: 65,
            revoke_delete: 160,
            revoke_finish: 30,
            xfer_desc: 455,

            upcall_work: 1570,
            session_accept: 220,

            mem_latency: 160,
            mem_bytes_per_cycle: 8,

            fs_meta_op: 600,
            fs_extent_op: 450,
        }
    }

    /// Cycles to transfer `bytes` of payload across `hops` mesh hops.
    #[inline]
    pub fn noc_latency(&self, hops: u64, bytes: u64) -> u64 {
        self.noc_base_latency + self.noc_per_hop * hops + bytes / self.noc_bytes_per_cycle
    }

    /// Cycles a PE spends reading or writing `bytes` through a memory
    /// endpoint, assuming the paper's non-contended memory controller.
    pub fn mem_access(&self, bytes: u64) -> u64 {
        self.mem_latency + bytes / self.mem_bytes_per_cycle
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noc_latency_monotone_in_hops_and_bytes() {
        let c = CostModel::calibrated();
        assert!(c.noc_latency(2, 64) > c.noc_latency(1, 64));
        assert!(c.noc_latency(1, 640) > c.noc_latency(1, 64));
    }

    #[test]
    fn mem_access_scales_with_bytes() {
        let c = CostModel::calibrated();
        let small = c.mem_access(64);
        let big = c.mem_access(64 * 1024);
        assert!(big > small);
        assert_eq!(big - c.mem_latency, 64 * 1024 / c.mem_bytes_per_cycle);
    }

    #[test]
    fn default_is_calibrated() {
        assert_eq!(CostModel::default(), CostModel::calibrated());
    }
}
