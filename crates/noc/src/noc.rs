//! Message routing with per-channel FIFO ordering.
//!
//! The distributed capability protocol requires (§4.3.1) that if kernel
//! K1 sends M1 then M2 to kernel K2, K2 receives M1 before M2. Physical
//! NoCs with deterministic routing provide this per (src, dst) pair; the
//! [`Noc`] model enforces it explicitly: a message's delivery time is at
//! least one cycle after the previous delivery on the same channel.

use crate::mesh::Mesh;
use semper_base::{CostModel, DetHashMap, Msg, PeId};
use semper_sim::Cycles;

/// The network-on-chip: computes delivery times for messages.
///
/// **FIFO rule.** A message on channel (src, dst) is delivered at
/// `max(arrival, floor)`, where `arrival` is its injection time plus
/// DTU send, wire latency and DTU receive, and `floor` is one cycle
/// after the channel's previous delivery (no floor before its first
/// message). A short message sent right behind a long one on the same
/// channel therefore never overtakes it.
///
/// **Store.** The floors live in a hash map keyed by the packed
/// (src, dst) pair, holding one entry per channel that has carried a
/// message. A machine talks over a few thousand of the mesh capacity's
/// squared channels (kernels and services reach up to about 90 peers
/// each, applications a handful), so building a NoC allocates nothing
/// proportional to capacity² and routing touches only the channels in
/// use — as the M3 hardware keeps this state in a few DTU endpoints per
/// PE rather than in a table over every PE pair.
#[derive(Debug, Clone)]
pub struct Noc {
    mesh: Mesh,
    cost: CostModel,
    /// Mesh capacity (width²): PE ids at or past it lie off the mesh.
    capacity: usize,
    /// FIFO floor (previous delivery + 1) per channel that has carried a
    /// message, keyed by [`channel`].
    fifo_floor: DetHashMap<u32, u64>,
}

/// The packed key of the (src, dst) channel.
fn channel(src: PeId, dst: PeId) -> u32 {
    (u32::from(src.0) << 16) | u32::from(dst.0)
}

impl Noc {
    /// Creates a NoC over the given mesh with the given cost model.
    pub fn new(mesh: Mesh, cost: CostModel) -> Noc {
        let capacity = (mesh.width() as usize) * (mesh.width() as usize);
        Noc { mesh, cost, capacity, fifo_floor: DetHashMap::default() }
    }

    /// The mesh underlying this NoC.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Routes `msg` injected at time `now`; returns its delivery time.
    ///
    /// Delivery time is `now + dtu_send + wire latency + dtu_recv`,
    /// bumped if necessary to preserve FIFO ordering on the
    /// `(src, dst)` channel.
    ///
    /// # Panics
    ///
    /// Panics if the source or destination PE lies off the mesh.
    #[inline]
    pub fn route(&mut self, msg: &Msg, now: Cycles) -> Cycles {
        assert!(
            msg.src.idx() < self.capacity && msg.dst.idx() < self.capacity,
            "route {} -> {}: a PE lies off the {}-wide mesh",
            msg.src,
            msg.dst,
            self.mesh.width()
        );
        let hops = self.mesh.hops(msg.src, msg.dst);
        let wire = self.cost.noc_latency(hops, msg.wire_size() as u64);
        let arrival = now + self.cost.dtu_send + wire + self.cost.dtu_recv;

        let floor = self.fifo_floor.entry(channel(msg.src, msg.dst)).or_insert(0);
        let delivery = arrival.max(Cycles(*floor));
        *floor = delivery.0 + 1;
        delivery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semper_base::msg::{Kcall, Payload, Syscall};
    use semper_base::{CapType, DdlKey, OpId, VpeId};
    use semper_sim::DetRng;

    fn noop_msg(src: u16, dst: u16) -> Msg {
        Msg::new(PeId(src), PeId(dst), Payload::sys(0, Syscall::Noop))
    }

    /// A revocation batch of `keys` capability keys: its wire time grows
    /// by one cycle per two keys, so a short message sent right behind
    /// it arrives first unless the FIFO floor holds it back.
    fn batch_msg(src: u16, dst: u16, keys: u32) -> Msg {
        let cap_keys =
            (0..keys).map(|i| DdlKey::new(PeId(src), VpeId(0), CapType::Memory, i)).collect();
        Msg::new(
            PeId(src),
            PeId(dst),
            Payload::kcall(Kcall::RevokeBatchReq { op: OpId(1), cap_keys }),
        )
    }

    fn mk_noc() -> Noc {
        Noc::new(Mesh::new(4), CostModel::calibrated())
    }

    #[test]
    fn latency_grows_with_distance() {
        let mut noc = mk_noc();
        let near = noc.route(&noop_msg(0, 1), Cycles::ZERO);
        let far = noc.route(&noop_msg(0, 15), Cycles::ZERO);
        assert!(far > near, "{far} !> {near}");
    }

    #[test]
    fn fifo_per_channel() {
        let mut noc = mk_noc();
        // Inject M2 "faster" (same time) — it must still arrive after M1.
        let d1 = noc.route(&noop_msg(0, 5), Cycles(100));
        let d2 = noc.route(&noop_msg(0, 5), Cycles(100));
        assert!(d2 > d1);
    }

    #[test]
    fn fifo_does_not_couple_channels() {
        let mut noc = mk_noc();
        let d1 = noc.route(&noop_msg(0, 5), Cycles(100));
        let d2 = noc.route(&noop_msg(1, 5), Cycles(100));
        // Different source: no FIFO constraint, same distance-based time
        // modulo the different hop count.
        assert!(d2 <= d1 + 1000u64);
    }

    #[test]
    fn fifo_ordering_holds_under_out_of_order_injection() {
        let mut noc = mk_noc();
        let d1 = noc.route(&noop_msg(0, 15), Cycles(0));
        // Second message injected later but on a now-"warm" channel still
        // arrives after the first.
        let d2 = noc.route(&noop_msg(0, 15), Cycles(1));
        assert!(d2 > d1);
    }

    /// The store against a dense floor table over every (src, dst) pair
    /// of a 4-wide mesh: seeded traffic with bursts where a short message
    /// follows a long one on the same channel at the same or the next
    /// cycle, so the floor binds. Every delivery time must match.
    #[test]
    fn store_matches_dense_table() {
        let cost = CostModel::calibrated();
        let mesh = Mesh::new(4);
        let pes = 16usize;
        let mut noc = Noc::new(mesh, cost);
        let mut dense = vec![0u64; pes * pes];
        let mut rng = DetRng::seed_from(41);
        let mut now = 0u64;
        let (mut routed, mut bound) = (0, 0);
        while routed < 4000 {
            let src = rng.below(pes as u64) as u16;
            let dst = rng.below(pes as u64) as u16;
            let burst = if rng.below(4) == 0 {
                let keys = rng.between(20, 200) as u32;
                vec![(batch_msg(src, dst, keys), 0), (noop_msg(src, dst), rng.below(2))]
            } else {
                vec![(noop_msg(src, dst), 0)]
            };
            for (msg, gap) in burst {
                now += gap;
                let hops = mesh.hops(msg.src, msg.dst);
                let arrival = now
                    + cost.dtu_send
                    + cost.noc_latency(hops, msg.wire_size() as u64)
                    + cost.dtu_recv;
                let slot = &mut dense[msg.src.idx() * pes + msg.dst.idx()];
                let want = arrival.max(*slot);
                bound += usize::from(*slot > arrival);
                *slot = want + 1;
                assert_eq!(noc.route(&msg, Cycles(now)), Cycles(want), "message {routed}");
                routed += 1;
            }
            now += rng.below(40);
        }
        assert!(bound > 500, "the floor bound only {bound} times");
        assert_eq!(noc.fifo_floor.len(), dense.iter().filter(|f| **f > 0).count());
    }

    #[test]
    fn store_holds_one_floor_per_channel_in_use() {
        let mut noc = Noc::new(Mesh::new(32), CostModel::calibrated());
        assert_eq!(noc.fifo_floor.len(), 0);
        let channels: Vec<(u16, u16)> =
            (0..40).map(|i| (i * 25, 1023 - i * 7)).chain([(0, 0), (1023, 1023)]).collect();
        for (t, (src, dst)) in channels.iter().enumerate() {
            noc.route(&noop_msg(*src, *dst), Cycles(t as u64));
            noc.route(&noop_msg(*src, *dst), Cycles(t as u64));
        }
        assert_eq!(noc.fifo_floor.len(), channels.len());
    }

    #[test]
    #[should_panic(expected = "lies off the 4-wide mesh")]
    fn route_off_the_mesh_panics() {
        mk_noc().route(&noop_msg(0, 16), Cycles::ZERO);
    }
}
