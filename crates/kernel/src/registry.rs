//! The service registry.
//!
//! Services (like m3fs instances) register at their group's kernel, which
//! announces them to all other kernels (inter-kernel call group 1, §4.1).
//! Every kernel thus holds the full registry and can connect clients to
//! services in any group — preferring instances in its *own* group, as
//! the paper's evaluation setup does (§5.3.2: "Kernels which host a
//! service in their PE group prefer to connect their applications to the
//! service in their PE group").

use semper_base::hash::splitmix64;
use semper_base::{DdlKey, KernelId, PeId, ServiceId, VpeId};
use std::collections::BTreeMap;

/// Registry entry for one service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceInfo {
    /// Global service id.
    pub id: ServiceId,
    /// Registered name (shared by all instances of the same service).
    pub name: u64,
    /// Kernel managing the service's group.
    pub owner: KernelId,
    /// DDL key of the service capability (parent of all session caps).
    pub srv_key: DdlKey,
    /// PE the service VPE runs on.
    pub srv_pe: PeId,
    /// The service VPE.
    pub srv_vpe: VpeId,
}

/// All service instances known to a kernel.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    services: BTreeMap<ServiceId, ServiceInfo>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds (or refreshes) a service entry.
    pub fn add(&mut self, info: ServiceInfo) {
        self.services.insert(info.id, info);
    }

    /// Looks up a service by id.
    pub fn get(&self, id: ServiceId) -> Option<&ServiceInfo> {
        self.services.get(&id)
    }

    /// Number of registered instances.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True if no services are registered.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Picks an instance of service `name` for a client managed by
    /// kernel `local`, preferring instances in the local group and
    /// spreading choices deterministically by a hash of the client's id.
    ///
    /// Hashing matters: client VPE ids are strided by the group layout,
    /// so `idx % len` would alias whole groups onto one instance.
    ///
    /// Both passes skip an instance of the local group whose VPE is
    /// not `alive`: entries are never removed, and a dead one would
    /// shadow a live instance elsewhere. A remote instance's death is
    /// not seen here; its own kernel refuses the open.
    ///
    /// Allocation-free: every session open runs through here, and the
    /// previous implementation collected the filtered candidates into
    /// one or two `Vec`s per call. Two passes over the (small, id-
    /// ordered) registry — count, then index — select the exact same
    /// instance without touching the heap.
    pub fn pick(
        &self,
        name: u64,
        local: KernelId,
        client: VpeId,
        alive: impl Fn(VpeId) -> bool,
    ) -> Option<&ServiceInfo> {
        let h = splitmix64(client.idx() as u64) as usize;
        let select = |is_local: bool| -> Option<&ServiceInfo> {
            let matches = |s: &&ServiceInfo| {
                s.name == name
                    && (!is_local || s.owner == local)
                    && (s.owner != local || alive(s.srv_vpe))
            };
            let n = self.services.values().filter(matches).count();
            if n == 0 {
                return None;
            }
            self.services.values().filter(matches).nth(h % n)
        };
        select(true).or_else(|| select(false))
    }

    /// Iterates over all instances in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ServiceInfo> {
        self.services.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semper_base::CapType;

    fn info(id: u16, name: u64, owner: u16) -> ServiceInfo {
        ServiceInfo {
            id: ServiceId(id),
            name,
            owner: KernelId(owner),
            srv_key: DdlKey::new(PeId(id), VpeId(id), CapType::Service, 0),
            srv_pe: PeId(id),
            srv_vpe: VpeId(id),
        }
    }

    #[test]
    fn prefers_local_instances() {
        let mut r = Registry::new();
        r.add(info(0, 1, 0));
        r.add(info(1, 1, 1));
        let picked = r.pick(1, KernelId(1), VpeId(10), |_| true).unwrap();
        assert_eq!(picked.owner, KernelId(1));
    }

    #[test]
    fn falls_back_to_remote() {
        let mut r = Registry::new();
        r.add(info(0, 1, 0));
        let picked = r.pick(1, KernelId(3), VpeId(10), |_| true).unwrap();
        assert_eq!(picked.id, ServiceId(0));
    }

    #[test]
    fn spreads_by_client_id() {
        let mut r = Registry::new();
        r.add(info(0, 1, 0));
        r.add(info(1, 1, 0));
        // Over many clients, both instances are used — including clients
        // whose ids share a residue class (the stride-aliasing case).
        let mut seen = std::collections::BTreeSet::new();
        for c in (0..64u16).step_by(8) {
            seen.insert(r.pick(1, KernelId(5), VpeId(c), |_| true).unwrap().id);
        }
        assert_eq!(seen.len(), 2, "strided clients must spread over both instances");
    }

    /// A dead instance of the asking kernel's group is never picked, in
    /// either pass; a remote one is (its kernel refuses the open).
    #[test]
    fn skips_dead_local_instances() {
        let mut r = Registry::new();
        r.add(info(0, 1, 0));
        r.add(info(1, 1, 1));
        let alive = |v: VpeId| v != VpeId(0);
        assert_eq!(r.pick(1, KernelId(0), VpeId(10), alive).unwrap().id, ServiceId(1));
        let dead = |_| false;
        assert_eq!(r.pick(1, KernelId(0), VpeId(10), dead).unwrap().id, ServiceId(1));
        assert!(r.pick(1, KernelId(1), VpeId(10), dead).is_some_and(|s| s.id == ServiceId(0)));
        r.add(info(2, 1, 1));
        for c in 0..16 {
            assert_eq!(r.pick(1, KernelId(1), VpeId(c), alive).unwrap().owner, KernelId(1));
        }
    }

    #[test]
    fn unknown_name_is_none() {
        let mut r = Registry::new();
        r.add(info(0, 1, 0));
        assert!(r.pick(2, KernelId(0), VpeId(0), |_| true).is_none());
    }

    #[test]
    fn name_filtering() {
        let mut r = Registry::new();
        r.add(info(0, 1, 0));
        r.add(info(1, 2, 0));
        assert_eq!(r.pick(2, KernelId(0), VpeId(0), |_| true).unwrap().id, ServiceId(1));
        assert_eq!(r.len(), 2);
    }
}
