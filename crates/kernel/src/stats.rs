//! Per-kernel statistics.
//!
//! Experiments read these counters to produce the paper's tables: the
//! number of capability operations per second (Table 4) and the load
//! distribution across kernels.

/// Counters maintained by each kernel instance.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// System calls received.
    pub syscalls: u64,
    /// Inter-kernel requests sent.
    pub kcalls_out: u64,
    /// Capability exchanges completed with both parties in this group.
    pub exchanges_local: u64,
    /// Capability exchanges completed spanning another kernel.
    pub exchanges_spanning: u64,
    /// Revocations completed entirely within this group.
    pub revokes_local: u64,
    /// Revocations that required inter-kernel calls.
    pub revokes_spanning: u64,
    /// Capabilities created (all kinds).
    pub caps_created: u64,
    /// Capabilities deleted by revocation sweeps.
    pub caps_deleted: u64,
    /// Orphaned capabilities cleaned up after a party died mid-exchange.
    pub orphans_cleaned: u64,
    /// Exchanges denied because the capability was marked for revocation
    /// (prevented *pointless* exchanges, Table 2).
    pub pointless_denied: u64,
    /// Sessions opened for clients of this group.
    pub sessions_opened: u64,
    /// Cycles this kernel spent executing handlers.
    pub busy_cycles: u64,
    /// High-water mark of simultaneously pending operations (threads in
    /// use, §4.2).
    pub max_pending_ops: u64,
    /// Inter-kernel requests that had to wait for a send credit.
    pub kcalls_credit_stalled: u64,
    /// DTU endpoints deconfigured because their backing capability was
    /// revoked (the enforcement action of a revoke).
    pub eps_invalidated: u64,
    /// Host-side handler dispatches: one per message handled by this
    /// kernel (syscalls, kcalls, replies, upcall answers) — the
    /// host-cost counter of a revocation, where §5.2's batching sends
    /// one request per remote kernel instead of one per capability.
    pub handler_dispatches: u64,
    /// Pending operations aborted with `Err`: a VPE's answer starved
    /// past its phase's deadline, or the peer kernel a phase awaits
    /// declared dead (fault plans only).
    pub ops_aborted: u64,
}

impl KernelStats {
    /// Total capability-modifying operations completed (exchanges and
    /// revokes, the paper's "cap ops").
    pub fn cap_ops(&self) -> u64 {
        self.exchanges_local + self.exchanges_spanning + self.revokes_local + self.revokes_spanning
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_ops_sums_cmos() {
        let s = KernelStats {
            exchanges_local: 1,
            exchanges_spanning: 2,
            revokes_local: 3,
            revokes_spanning: 4,
            ..KernelStats::default()
        };
        assert_eq!(s.cap_ops(), 10);
    }
}
