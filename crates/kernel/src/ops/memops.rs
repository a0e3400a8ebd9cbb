//! Group-local memory capability operations on the op engine.
//!
//! Create and derive are the engine's *degenerate* protocols: a single
//! local phase with no fan-out — the start handler completes the
//! operation synchronously, so nothing is ever parked in the ledger.
//! They live in `ops` so every capability operation dispatches through
//! the same engine surface.
//!
//! `CreateMem` allocates fresh global memory and returns a root memory
//! capability; `DeriveMem` creates a child capability covering a
//! sub-range with (possibly narrowed) permissions. Derivation is the
//! mechanism m3fs uses to hand out per-extent capabilities: the derived
//! child is then *delegated* to the client, and revoking the child on
//! close recursively removes the client's access (§2.2, "Services on
//! M3").

use semper_base::msg::{CapKindDesc, Perms, SysReplyData};
use semper_base::{CapSel, CapType, Code, Error, Result, VpeId};
use semper_caps::Capability;

use crate::kernel::Kernel;
use crate::outbox::Outbox;

impl Kernel {
    /// Entry point for the `CreateMem` system call.
    pub(crate) fn sys_create_mem(
        &mut self,
        vpe: VpeId,
        tag: u64,
        size: u64,
        perms: Perms,
        out: &mut Outbox,
    ) -> u64 {
        let result = (|| -> Result<SysReplyData> {
            // A call refused for its size or for want of keys takes
            // neither a region nor an object id.
            let addr = self.mem.alloc(size)?;
            let key =
                self.new_key(vpe, CapType::Memory).inspect_err(|_| self.mem.give_back(addr))?;
            let kind = CapKindDesc::Memory { addr, size, perms };
            let sel = self.install(Capability::root(key, kind, vpe, CapSel::INVALID));
            Ok(SysReplyData::Mem { sel, addr })
        })();
        self.reply_sys(out, vpe, tag, result);
        self.cfg.cost.cap_create + self.cfg.cost.cap_insert + self.cfg.cost.syscall_exit
    }

    /// Entry point for the `DeriveMem` system call.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sys_derive_mem(
        &mut self,
        vpe: VpeId,
        tag: u64,
        src: CapSel,
        offset: u64,
        size: u64,
        perms: Perms,
        out: &mut Outbox,
    ) -> u64 {
        let result = (|| -> Result<SysReplyData> {
            let parent_key = self.bound(vpe, src)?;
            let CapKindDesc::Memory { addr, size: psize, perms: pperms } =
                self.usable(parent_key)?.kind
            else {
                return Err(Error::new(Code::InvalidArgs));
            };
            // A derived capability must stay within the parent's range
            // and permissions (monotone attenuation).
            let end = offset.checked_add(size).ok_or(Error::new(Code::InvalidArgs))?;
            if size == 0 || end > psize {
                return Err(Error::new(Code::InvalidArgs));
            }
            if !pperms.contains(perms) {
                return Err(Error::new(Code::NoPerm));
            }
            let key = self.new_key(vpe, CapType::Memory)?;
            let kind = CapKindDesc::Memory { addr: addr + offset, size, perms };
            let sel = self.install(Capability::child(key, kind, vpe, CapSel::INVALID, parent_key));
            Ok(SysReplyData::Sel(sel))
        })();
        self.reply_sys(out, vpe, tag, result);
        self.ref_cost()
            + self.cfg.cost.cap_create
            + self.cfg.cost.cap_insert
            + self.cfg.cost.syscall_exit
    }
}
