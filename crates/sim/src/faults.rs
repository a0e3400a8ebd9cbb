//! Deterministic fault injection.
//!
//! A [`FaultPlan`] scripts failures for one run of the untimed kernel
//! cluster (`semper_kernel::harness::TestCluster`, the plan's one
//! host): network faults at the NoC boundary (drop, duplicate, delay,
//! one-way partitions between kernel islands) and kernel crashes at
//! named ops-engine phase boundaries. Time is the cluster's step
//! counter — one step per delivered message — which is all the paper's
//! safety argument needs (§4.3.1: per-channel FIFO, nothing about
//! cycles). The plan is *part of the experiment configuration*: the
//! same plan and seed produce a bit-identical run, because
//!
//! 1. random network verdicts come from a dedicated [`DetRng`] stream
//!    with **exactly one draw per inter-kernel message** (the verdict
//!    and the delay width both derive from that single draw), and
//! 2. the cluster consults [`FaultPlan::verdict`] at a single choke
//!    point, in the deterministic delivery order of its FIFO.
//!
//! The empty plan ([`FaultPlan::default`]) returns
//! [`NetVerdict::Deliver`] for everything and scripts no crashes.

use crate::rng::DetRng;

/// What the network does with one inter-kernel message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetVerdict {
    /// Deliver normally.
    Deliver,
    /// Silently lose the message.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Deliver after this many extra steps.
    Delay(u64),
}

/// A scripted one-way partition: messages from island `from` to island
/// `to` are dropped while `start <= now < end`, in steps. Model a
/// two-way partition with two windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Source kernel island (raw kernel id).
    pub from: u16,
    /// Destination kernel island (raw kernel id).
    pub to: u16,
    /// First step the partition is in force.
    pub start: u64,
    /// First step after the partition heals.
    pub end: u64,
}

/// A scripted kernel crash at an ops-engine phase boundary: kernel
/// `kernel` dies when it parks a phase named `phase` for the
/// `after_nth`-th time (1-based), *before* the parked phase's awaited
/// reply can arrive — e.g. `("revoke-run", 1)` is "dies after marking
/// its part of a spanning revoke, before any remote child answered".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Raw id of the kernel that dies.
    pub kernel: u16,
    /// `PhaseSpec` name that triggers the crash when parked.
    pub phase: &'static str,
    /// Which park of that phase triggers it (1 = the first).
    pub after_nth: u32,
}

/// Counters of faults the plan actually injected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Total faulted verdicts (everything but `Deliver`).
    pub injected: u64,
    /// Messages dropped by the random stream.
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages delayed.
    pub delayed: u64,
    /// Messages dropped by a partition window.
    pub partitioned: u64,
    /// Partition windows whose end has passed.
    pub partitions_healed: u64,
}

/// A deterministic, seed-scripted fault plan for one run.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    /// Per-message drop probability in permille (0..=1000).
    pub drop_permille: u64,
    /// Per-message duplication probability in permille.
    pub dup_permille: u64,
    /// Per-message delay probability in permille.
    pub delay_permille: u64,
    /// Maximum extra delay, in steps, for a delayed message.
    pub max_delay: u64,
    rng: Option<DetRng>,
    partitions: Vec<PartitionWindow>,
    healed: Vec<bool>,
    crashes: Vec<CrashPoint>,
    stats: FaultStats,
}

impl FaultPlan {
    /// The empty plan: deliver everything, crash nobody.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan drawing random verdicts from a dedicated stream salted
    /// off `seed` (so workload streams derived from the same seed are
    /// unperturbed).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { rng: Some(DetRng::split(seed, 0xFA17)), ..FaultPlan::default() }
    }

    /// Sets the random drop rate (builder style).
    pub fn with_drop(mut self, permille: u64) -> FaultPlan {
        self.drop_permille = permille;
        self
    }

    /// Sets the random duplication rate.
    pub fn with_duplicate(mut self, permille: u64) -> FaultPlan {
        self.dup_permille = permille;
        self
    }

    /// Sets the random delay rate and its maximum width.
    pub fn with_delay(mut self, permille: u64, max_delay: u64) -> FaultPlan {
        self.delay_permille = permille;
        self.max_delay = max_delay.max(1);
        self
    }

    /// Scripts a one-way partition window.
    pub fn with_partition(mut self, w: PartitionWindow) -> FaultPlan {
        self.partitions.push(w);
        self.healed.push(false);
        self
    }

    /// Scripts a kernel crash at a phase boundary.
    pub fn with_crash(mut self, c: CrashPoint) -> FaultPlan {
        self.crashes.push(c);
        self
    }

    /// True if the plan can never inject anything (the default plan).
    pub fn is_empty(&self) -> bool {
        let random = self.rng.is_some()
            && (self.drop_permille > 0 || self.dup_permille > 0 || self.delay_permille > 0);
        !random && self.partitions.is_empty() && self.crashes.is_empty()
    }

    /// The crash points scripted for one kernel, in script order.
    pub fn crash_points(&self, kernel: u16) -> Vec<(&'static str, u32)> {
        self.crashes.iter().filter(|c| c.kernel == kernel).map(|c| (c.phase, c.after_nth)).collect()
    }

    /// Counters of injected faults so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Decides the fate of one inter-kernel message from island `from`
    /// to island `to` at step `now`.
    ///
    /// Scripted partitions take precedence over the random stream; a
    /// partitioned message consumes **no** random draw, and a
    /// non-partitioned message consumes exactly one, so the stream
    /// stays aligned across runs of the same plan.
    pub fn verdict(&mut self, from: u16, to: u16, now: u64) -> NetVerdict {
        for (i, w) in self.partitions.iter().enumerate() {
            if now >= w.end && !self.healed[i] {
                self.healed[i] = true;
                self.stats.partitions_healed += 1;
            }
            if w.from == from && w.to == to && now >= w.start && now < w.end {
                self.stats.injected += 1;
                self.stats.partitioned += 1;
                return NetVerdict::Drop;
            }
        }
        let Some(rng) = self.rng.as_mut() else {
            return NetVerdict::Deliver;
        };
        // One draw decides both the verdict bucket and the delay width.
        let x = rng.next_u64();
        let bucket = x % 1000;
        if bucket < self.drop_permille {
            self.stats.injected += 1;
            self.stats.dropped += 1;
            NetVerdict::Drop
        } else if bucket < self.drop_permille + self.dup_permille {
            self.stats.injected += 1;
            self.stats.duplicated += 1;
            NetVerdict::Duplicate
        } else if bucket < self.drop_permille + self.dup_permille + self.delay_permille {
            self.stats.injected += 1;
            self.stats.delayed += 1;
            NetVerdict::Delay(1 + (x >> 10) % self.max_delay.max(1))
        } else {
            NetVerdict::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_delivers_everything() {
        let mut p = FaultPlan::empty();
        assert!(p.is_empty());
        for t in 0..100 {
            assert_eq!(p.verdict(0, 1, t), NetVerdict::Deliver);
        }
        assert_eq!(p.stats().injected, 0);
    }

    #[test]
    fn same_seed_same_verdicts() {
        let make = || FaultPlan::seeded(42).with_drop(100).with_duplicate(50).with_delay(50, 8);
        let mut a = make();
        let mut b = make();
        for t in 0..500 {
            assert_eq!(a.verdict(0, 1, t), b.verdict(0, 1, t));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().injected > 0, "rates that high must fire in 500 messages");
    }

    #[test]
    fn partition_window_drops_one_way() {
        let mut p = FaultPlan::empty().with_partition(PartitionWindow {
            from: 0,
            to: 1,
            start: 10,
            end: 20,
        });
        assert_eq!(p.verdict(0, 1, 9), NetVerdict::Deliver);
        assert_eq!(p.verdict(0, 1, 10), NetVerdict::Drop);
        assert_eq!(p.verdict(1, 0, 15), NetVerdict::Deliver, "one-way only");
        assert_eq!(p.verdict(0, 1, 19), NetVerdict::Drop);
        assert_eq!(p.verdict(0, 1, 20), NetVerdict::Deliver);
        assert_eq!(p.stats().partitioned, 2);
        assert_eq!(p.stats().partitions_healed, 1);
    }

    #[test]
    fn partition_consumes_no_draw() {
        // With a partition in front, the random stream after the window
        // must match a plan that never had the partition.
        let mut part = FaultPlan::seeded(7).with_drop(500).with_partition(PartitionWindow {
            from: 0,
            to: 1,
            start: 0,
            end: 10,
        });
        let mut plain = FaultPlan::seeded(7).with_drop(500);
        for t in 0..10 {
            assert_eq!(part.verdict(0, 1, t), NetVerdict::Drop);
        }
        for t in 10..200 {
            assert_eq!(part.verdict(0, 1, t), plain.verdict(0, 1, t - 10));
        }
    }

    #[test]
    fn crash_points_filter_by_kernel() {
        let p = FaultPlan::empty()
            .with_crash(CrashPoint { kernel: 2, phase: "delegate-at-recv", after_nth: 1 })
            .with_crash(CrashPoint { kernel: 1, phase: "revoke-run", after_nth: 3 });
        assert_eq!(p.crash_points(2), vec![("delegate-at-recv", 1)]);
        assert_eq!(p.crash_points(1), vec![("revoke-run", 3)]);
        assert!(p.crash_points(0).is_empty());
        assert!(!p.is_empty());
    }

    #[test]
    fn delay_verdict_bounded() {
        let mut p = FaultPlan::seeded(3).with_delay(1000, 16);
        for t in 0..200 {
            match p.verdict(0, 1, t) {
                NetVerdict::Delay(d) => assert!((1..=16).contains(&d)),
                v => panic!("expected delay, got {v:?}"),
            }
        }
    }
}
