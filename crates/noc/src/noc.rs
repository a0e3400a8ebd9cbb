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

/// The index of a (src, dst) channel. A host numbers the channels it
/// sends on densely from 0 (`semper_kernel::host::Channels`) and hands
/// the NoC each message's channel with it ([`Noc::send`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The index as a `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// What the NoC keeps per channel.
#[derive(Debug, Clone, Copy)]
struct Route {
    /// One cycle after the channel's previous delivery; 0 before its
    /// first.
    floor: u64,
    /// Everything of a message's delivery time but its bytes on the
    /// wire: DTU send, the base and per-hop latency, DTU receive.
    /// [`UNSET`] until the channel's first message.
    latency: u64,
}

/// [`Route::latency`] of a channel that has carried no message.
const UNSET: u64 = u64::MAX;

/// The network-on-chip: computes delivery times for messages.
///
/// **FIFO rule.** A message on channel (src, dst) is delivered at
/// `max(arrival, floor)`, where `arrival` is its injection time plus
/// DTU send, wire latency and DTU receive, and `floor` is one cycle
/// after the channel's previous delivery (no floor before its first
/// message). A short message sent right behind a long one on the same
/// channel therefore never overtakes it.
///
/// **Store.** One route record per channel, in a vector indexed by
/// [`ChannelId`]: the channel's FIFO floor and its fixed latency, which
/// the channel's first message computes (hop count included) and every
/// later one reads, so a message pays one indexed load, its wire bytes'
/// division and the floor. The host numbers its channels densely from
/// the channels it uses — a few thousand of the mesh capacity's squared
/// pairs (kernels and services reach up to about 90 peers each,
/// applications a handful) — so building a NoC allocates nothing
/// proportional to capacity² and routing touches only the channels in
/// use, as the M3 hardware keeps this state in a few DTU endpoints per
/// PE, configured once per channel, rather than in a table over every
/// PE pair. [`Noc::route`] serves callers that number no channels: it
/// names each pair's channel in a map of its own, in first-use order.
/// A NoC is driven one way, by channel ([`Noc::send`]) or by pair.
#[derive(Debug, Clone)]
pub struct Noc {
    mesh: Mesh,
    cost: CostModel,
    /// Mesh capacity (width²): PE ids at or past it lie off the mesh.
    capacity: usize,
    /// The route record of each channel, indexed by [`ChannelId`].
    routes: Vec<Route>,
    /// The channel [`Noc::route`] named for each packed (src, dst) pair;
    /// empty on a NoC driven by channel.
    named: DetHashMap<u32, ChannelId>,
}

impl Noc {
    /// Creates a NoC over the given mesh with the given cost model.
    pub fn new(mesh: Mesh, cost: CostModel) -> Noc {
        let capacity = (mesh.width() as usize) * (mesh.width() as usize);
        Noc { mesh, cost, capacity, routes: Vec::new(), named: DetHashMap::default() }
    }

    /// The mesh underlying this NoC.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Routes `msg` injected at time `now` on the channel of its
    /// (src, dst) pair; returns its delivery time: [`Noc::send`] on the
    /// channel this NoC names for the pair.
    ///
    /// # Panics
    ///
    /// Panics if the source or destination PE lies off the mesh, or if
    /// a host already drives this NoC by channel.
    #[inline]
    pub fn route(&mut self, msg: &Msg, now: Cycles) -> Cycles {
        let next = ChannelId(self.named.len() as u32);
        let ch = *self.named.entry(pair(msg.src, msg.dst)).or_insert(next);
        assert!(ch != next || self.routes.len() == next.idx(), "{BY_PAIR_OR_CHANNEL}");
        self.send(ch, msg, now)
    }

    /// Routes `msg` injected at time `now` on channel `ch`, which the
    /// host names for `msg`'s (src, dst) pair and no other; returns its
    /// delivery time: `now + dtu_send + wire latency + dtu_recv`,
    /// bumped if necessary to preserve FIFO ordering on the channel.
    ///
    /// # Panics
    ///
    /// Panics if the source or destination PE lies off the mesh, or if
    /// [`Noc::route`] already drives this NoC.
    #[inline]
    pub fn send(&mut self, ch: ChannelId, msg: &Msg, now: Cycles) -> Cycles {
        let i = ch.idx();
        if self.routes.get(i).is_none_or(|r| r.latency == UNSET) {
            self.open(i, msg.src, msg.dst);
        }
        let route = &mut self.routes[i];
        let wire = u64::from(msg.wire_size()) / self.cost.noc_bytes_per_cycle;
        let delivery = (now + route.latency + wire).max(Cycles(route.floor));
        route.floor = delivery.0 + 1;
        delivery
    }

    /// Computes the latency of channel `i` between `src` and `dst` at
    /// its first message.
    #[cold]
    #[inline(never)]
    fn open(&mut self, i: usize, src: PeId, dst: PeId) {
        assert!(
            src.idx() < self.capacity && dst.idx() < self.capacity,
            "route {src} -> {dst}: a PE lies off the {}-wide mesh",
            self.mesh.width()
        );
        assert!(self.named.is_empty() || i + 1 == self.named.len(), "{BY_PAIR_OR_CHANNEL}");
        let hops = self.mesh.hops(src, dst);
        let latency = self.cost.dtu_send + self.cost.noc_latency(hops, 0) + self.cost.dtu_recv;
        if self.routes.len() <= i {
            self.routes.resize(i + 1, Route { floor: 0, latency: UNSET });
        }
        self.routes[i].latency = latency;
    }
}

const BY_PAIR_OR_CHANNEL: &str = "a NoC is driven by pair or by channel, not both";

/// The packed key of the (src, dst) pair.
fn pair(src: PeId, dst: PeId) -> u32 {
    (u32::from(src.0) << 16) | u32::from(dst.0)
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
        let used = dense.iter().filter(|f| **f > 0).count();
        assert_eq!((noc.routes.len(), noc.named.len()), (used, used));
    }

    /// A 32-wide mesh has 2^20 pairs; a NoC that routed 42 channels
    /// holds 42 route records and names 42 pairs.
    #[test]
    fn store_holds_one_floor_per_channel_in_use() {
        let mut noc = Noc::new(Mesh::new(32), CostModel::calibrated());
        assert_eq!((noc.routes.len(), noc.named.len()), (0, 0));
        let channels: Vec<(u16, u16)> =
            (0..40).map(|i| (i * 25, 1023 - i * 7)).chain([(0, 0), (1023, 1023)]).collect();
        for (t, (src, dst)) in channels.iter().enumerate() {
            noc.route(&noop_msg(*src, *dst), Cycles(t as u64));
            noc.route(&noop_msg(*src, *dst), Cycles(t as u64));
        }
        assert_eq!((noc.routes.len(), noc.named.len()), (channels.len(), channels.len()));
    }

    /// A channel numbered by a host and a pair named by [`Noc::route`]
    /// would share index 0 on one NoC: whichever comes second panics.
    #[test]
    #[should_panic(expected = "by pair or by channel, not both")]
    fn route_after_send_panics() {
        let mut noc = mk_noc();
        noc.send(ChannelId(0), &noop_msg(0, 5), Cycles::ZERO);
        noc.route(&noop_msg(1, 5), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "by pair or by channel, not both")]
    fn send_after_route_panics() {
        let mut noc = mk_noc();
        noc.route(&noop_msg(0, 5), Cycles::ZERO);
        noc.send(ChannelId(1), &noop_msg(1, 5), Cycles::ZERO);
    }

    /// Channel indices need not come in order: a host's first message on
    /// channel 9 opens its route record alone, and the records below it
    /// stay closed until their channels' first messages.
    #[test]
    fn a_channel_opens_at_its_first_message() {
        let mut noc = mk_noc();
        let (far, near) = (noop_msg(0, 15), noop_msg(0, 1));
        let d9 = noc.send(ChannelId(9), &far, Cycles(100));
        assert_eq!(noc.routes.iter().filter(|r| r.latency != UNSET).count(), 1);
        let d2 = noc.send(ChannelId(2), &near, Cycles(100));
        assert!(d2 < d9, "the nearer channel has its own latency and no floor");
        assert!(noc.send(ChannelId(9), &far, Cycles(100)) > d9);
    }

    #[test]
    #[should_panic(expected = "lies off the 4-wide mesh")]
    fn route_off_the_mesh_panics() {
        mk_noc().route(&noop_msg(0, 16), Cycles::ZERO);
    }
}
