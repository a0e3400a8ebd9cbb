//! DTU endpoint activation (M3's `activate` system call).
//!
//! Capabilities *authorise*; DTU endpoints *enforce*. Before a VPE can
//! touch the memory behind a memory capability, it asks its kernel to
//! configure one of its DTU endpoints for the capability (§2.2: "The client can instruct the kernel to
//! configure a memory endpoint for the memory capability"). The kernel
//! is the only privileged party, so it also *deconfigures* endpoints
//! when the backing capability is revoked — this is the moment a revoke
//! actually severs the hardware access path, and why revocation speed
//! matters for designs like copy-on-write filesystems (§3).
//!
//! The endpoint registers live in the VPE's record next to its
//! capability table; the revocation sweep clears them
//! (`Kernel::delete_marked`). Who may send a message to whom is not a
//! capability here but the hosts' intake rule ([`crate::host::Channels::admit`]).

use semper_base::config::EP_COUNT;
use semper_base::msg::SysReplyData;
use semper_base::{CapSel, Code, DdlKey, EpId, Error, Result, VpeId};

use crate::kernel::Kernel;
use crate::outbox::Outbox;

impl Kernel {
    /// Entry point for the `Activate` system call.
    pub(crate) fn sys_activate(
        &mut self,
        vpe: VpeId,
        tag: u64,
        sel: CapSel,
        ep: EpId,
        out: &mut Outbox,
    ) -> u64 {
        let result = (|| -> Result<SysReplyData> {
            if ep.0 >= EP_COUNT {
                return Err(Error::new(Code::InvalidArgs));
            }
            let key = self.bound(vpe, sel)?;
            if !matches!(self.usable(key)?.kind, semper_base::msg::CapKindDesc::Memory { .. }) {
                return Err(Error::new(Code::InvalidArgs));
            }
            // (Re)configure: the register holds one capability.
            let record = self.vpe_mut(vpe).expect("the caller is a VPE of this group");
            record.eps[usize::from(ep.0)] = Some(key);
            Ok(SysReplyData::None)
        })();
        self.reply_sys(out, vpe, tag, result);
        self.ref_cost() + self.cfg.cost.cap_insert + self.cfg.cost.syscall_exit
    }

    /// The capability currently activated on `(vpe, ep)`, if any
    /// (tests and verification).
    pub fn ep_binding(&self, vpe: VpeId, ep: EpId) -> Option<DdlKey> {
        *self.vpe(vpe)?.eps.get(usize::from(ep.0))?
    }
}
