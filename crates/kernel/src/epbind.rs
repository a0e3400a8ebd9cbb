//! DTU endpoint bindings: which capability each endpoint is activated
//! for, with a reverse index for O(1) revocation sweeps.
//!
//! The kernel must answer two questions in O(1):
//!
//! * *forward* — which capability is endpoint `(vpe, ep)` configured
//!   for? (`activate` replaces bindings; syscall handling reads them);
//! * *reverse* — which endpoints are configured for capability `k`?
//!   (revocation deconfigures every endpoint of each deleted
//!   capability — this is the action that actually severs the hardware
//!   access path).
//!
//! Both maps must agree at all times. They used to live as two separate
//! fields on the kernel, synchronized by hand at each mutation site —
//! easy to get wrong when a new mutation site is added. [`EpBindings`]
//! owns the pair; the public operations are total (every path through
//! them updates both maps), so the maps cannot diverge through any
//! public mutation. `tests/epbindings` exercises every operation
//! against a model and checks agreement after each step.

use semper_base::{DdlKey, DetHashMap, EpId, RawDdlKey, VpeId};

/// One endpoint slot: a VPE's DTU endpoint.
pub type EpSlot = (VpeId, EpId);

/// The endpoint-binding table of one kernel's PE group.
#[derive(Debug, Default, Clone)]
pub struct EpBindings {
    /// Forward map: endpoint slot → the capability it is activated for.
    forward: DetHashMap<EpSlot, DdlKey>,
    /// Reverse index: packed capability key → the endpoint slots
    /// activated for it, in activation order.
    reverse: DetHashMap<RawDdlKey, Vec<EpSlot>>,
}

impl EpBindings {
    /// Creates an empty binding table.
    pub fn new() -> EpBindings {
        EpBindings::default()
    }

    /// Number of configured endpoints.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True if no endpoint is configured.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// The capability endpoint `(vpe, ep)` is activated for, if any.
    pub fn get(&self, vpe: VpeId, ep: EpId) -> Option<DdlKey> {
        self.forward.get(&(vpe, ep)).copied()
    }

    /// (Re)configures endpoint `(vpe, ep)` for `key`. An endpoint holds
    /// at most one binding: a previous binding is dropped from the
    /// reverse index first. Returns the replaced capability, if any.
    pub fn bind(&mut self, vpe: VpeId, ep: EpId, key: DdlKey) -> Option<DdlKey> {
        let slot = (vpe, ep);
        let old = self.forward.insert(slot, key);
        if let Some(old) = old {
            self.drop_reverse(old, slot);
        }
        self.reverse.entry(key.raw()).or_default().push(slot);
        old
    }

    /// Deconfigures every endpoint activated for `key`, returning the
    /// affected slots in activation order (the caller models one DTU
    /// reconfiguration per slot). O(1) per deleted capability plus the
    /// number of its bindings.
    pub fn unbind_key(&mut self, key: DdlKey) -> Vec<EpSlot> {
        let Some(victims) = self.reverse.remove(&key.raw()) else {
            return Vec::new();
        };
        for slot in &victims {
            let removed = self.forward.remove(slot);
            assert_eq!(removed, Some(key), "reverse index out of sync");
        }
        victims
    }

    /// Drops `slot` from `old`'s reverse entry (after a rebind).
    fn drop_reverse(&mut self, old: DdlKey, slot: EpSlot) {
        if let Some(slots) = self.reverse.get_mut(&old.raw()) {
            slots.retain(|s| *s != slot);
            if slots.is_empty() {
                self.reverse.remove(&old.raw());
            }
        }
    }

    /// Verifies forward/reverse agreement (tests): every forward
    /// binding appears exactly once in its key's reverse entry and vice
    /// versa.
    pub fn check_sync(&self) -> Result<(), String> {
        let mut reverse_total = 0usize;
        for (raw, slots) in &self.reverse {
            if slots.is_empty() {
                return Err(format!("empty reverse entry for {raw:?}"));
            }
            reverse_total += slots.len();
            for slot in slots {
                match self.forward.get(slot) {
                    Some(k) if k.raw() == *raw => {}
                    Some(k) => {
                        return Err(format!(
                            "reverse {raw:?} lists {slot:?}, forward has {:?}",
                            k.raw()
                        ));
                    }
                    None => return Err(format!("reverse {raw:?} lists unbound slot {slot:?}")),
                }
            }
        }
        if reverse_total != self.forward.len() {
            return Err(format!(
                "reverse indexes {reverse_total} slots, forward has {}",
                self.forward.len()
            ));
        }
        Ok(())
    }
}
