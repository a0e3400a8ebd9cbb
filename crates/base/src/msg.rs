//! The wire protocol of the simulated machine.
//!
//! Every interaction between PEs travels as a [`Msg`] through the NoC:
//!
//! * **System calls** ([`Syscall`] / [`SysReply`]) — a VPE to its group's
//!   kernel. Each VPE has exactly one blocking system call in flight at a
//!   time (the paper relies on this for serialization and thread-pool
//!   sizing).
//! * **Inter-kernel calls** ([`Kcall`] / [`KReply`]) — kernel to kernel;
//!   the distributed capability protocol of §4.3. Channels are
//!   credit-limited to `M_inflight` messages and FIFO-ordered.
//! * **Upcalls** ([`Upcall`] / [`UpcallReply`]) — kernel to VPE, e.g.
//!   asking a VPE whether it accepts a capability exchange (steps A.2/A.3
//!   in Figure 3).
//! * **Service IPC** ([`FsReq`] / [`FsReply`]) — client VPE to an m3fs
//!   instance over an established session.
//! * **Application traffic** ([`HttpReq`] / [`HttpResp`]) — the Nginx
//!   experiment's load-generator protocol (§5.3.3).

use crate::ddl::DdlKey;
use crate::error::Result;
use crate::ids::{CapSel, EpId, KernelId, OpId, PeId, ServiceId, VpeId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Memory permissions for memory capabilities (subset semantics: a derived
/// capability can only narrow permissions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Perms(u8);

impl Perms {
    /// Read permission.
    pub const R: Perms = Perms(0b001);
    /// Write permission.
    pub const W: Perms = Perms(0b010);
    /// Execute permission.
    pub const X: Perms = Perms(0b100);
    /// Read + write.
    pub const RW: Perms = Perms(0b011);
    /// All permissions.
    pub const RWX: Perms = Perms(0b111);
    /// No permissions (useful for revoked placeholders in tests).
    pub const NONE: Perms = Perms(0);

    /// Returns the raw bits.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// True if `self` includes all permissions in `other`.
    pub fn contains(self, other: Perms) -> bool {
        self.0 & other.0 == other.0
    }
}

impl core::fmt::Display for Perms {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut s = String::new();
        s.push(if self.contains(Perms::R) { 'r' } else { '-' });
        s.push(if self.contains(Perms::W) { 'w' } else { '-' });
        s.push(if self.contains(Perms::X) { 'x' } else { '-' });
        f.write_str(&s)
    }
}

/// Wire-level description of the resource behind a capability.
///
/// This is what travels in exchange messages; the receiving kernel builds
/// a real capability object (in `semper-caps`) around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CapKindDesc {
    /// Control over a VPE.
    Vpe {
        /// The controlled VPE.
        vpe: VpeId,
    },
    /// A byte-granular region of global memory.
    Memory {
        /// Start address in the global physical address space.
        addr: u64,
        /// Size in bytes.
        size: u64,
        /// Access permissions.
        perms: Perms,
    },
    /// A registered OS service.
    Service {
        /// Global service id.
        id: ServiceId,
    },
    /// A session between a client and a service.
    Session {
        /// The service this session belongs to.
        service: ServiceId,
        /// Service-chosen identifier for the session.
        ident: u64,
    },
}

/// A full wire capability descriptor: global key plus resource description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapDesc {
    /// Global DDL key of the capability.
    pub key: DdlKey,
    /// Resource description.
    pub kind: CapKindDesc,
}

/// Direction of a capability exchange (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExchangeKind {
    /// The caller obtains a capability *from* the other VPE.
    Obtain,
    /// The caller delegates one of its capabilities *to* the other VPE.
    Delegate,
}

/// System calls a VPE can issue to its group's kernel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Syscall {
    /// Measures bare syscall round-trip cost; the kernel replies
    /// immediately.
    Noop,
    /// Allocates a fresh region of global memory and returns a root
    /// memory capability for it.
    CreateMem {
        /// Region size in bytes.
        size: u64,
        /// Permissions of the new capability.
        perms: Perms,
    },
    /// Creates a child memory capability covering a sub-range of an
    /// existing memory capability (a group-local CMO).
    DeriveMem {
        /// Selector of the parent memory capability.
        src: CapSel,
        /// Offset of the child range within the parent region.
        offset: u64,
        /// Size of the child range.
        size: u64,
        /// Permissions (must be a subset of the parent's).
        perms: Perms,
    },
    /// Exchanges a capability with another VPE (obtain or delegate).
    Exchange {
        /// The peer VPE.
        other: VpeId,
        /// For delegate: the caller's capability to hand out.
        /// For obtain: ignored.
        own_sel: CapSel,
        /// For obtain: the peer's capability to obtain.
        /// For delegate: ignored (the peer's kernel picks a selector).
        other_sel: CapSel,
        /// Obtain or delegate.
        kind: ExchangeKind,
    },
    /// Recursively revokes the capability subtree rooted at `sel`.
    Revoke {
        /// Selector of the capability to revoke.
        sel: CapSel,
        /// If true the capability itself is revoked too; if false only
        /// its children are.
        own: bool,
    },
    /// Registers the calling VPE as a service under `name`.
    CreateSrv {
        /// Human-readable service name (e.g. `"m3fs"`), used by clients
        /// to connect. Multiple instances may share a name; kernels
        /// prefer instances in their own PE group.
        name: u64,
    },
    /// Opens a session to a service. The kernel picks the closest
    /// instance registered under `name` (own group first); its reply
    /// opens the channel to the service, labelled with the session.
    OpenSession {
        /// Service name to connect to.
        name: u64,
    },
    /// Configures one of the calling VPE's DTU endpoints for the
    /// memory capability at `sel` (M3's `activate`), mapping the
    /// endpoint to its region. Only the kernel can configure DTUs
    /// (NoC-level isolation, §2.2) — and when the capability is later
    /// revoked, the kernel deconfigures the endpoint, which is what
    /// actually cuts off the hardware access path.
    Activate {
        /// The capability to activate.
        sel: CapSel,
        /// The endpoint to configure.
        ep: EpId,
    },
    /// Voluntary exit; the kernel revokes all capabilities of the VPE.
    Exit,
}

/// Payload of a successful system-call reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SysReplyData {
    /// No data (Noop, Revoke, Exit, CreateSrv acknowledgements).
    None,
    /// A newly allocated capability selector (DeriveMem,
    /// Exchange-obtain, CreateSrv).
    Sel(CapSel),
    /// A new root memory capability (CreateMem): selector plus the
    /// allocated region's global address (the owner needs the address to
    /// compute extent placements).
    Mem {
        /// Selector of the new memory capability.
        sel: CapSel,
        /// Global base address of the allocated region.
        addr: u64,
    },
    /// A delegate completed; the receiver-side selector is reported back
    /// so services can tell clients which selector to use.
    Delegated {
        /// Selector in the receiving VPE's capability table.
        recv_sel: CapSel,
    },
    /// A session was opened.
    Session {
        /// Selector of the new session capability.
        sel: CapSel,
        /// PE of the service VPE, for subsequent direct IPC.
        srv_pe: PeId,
        /// Service-assigned session identifier: the label of every
        /// request on the channel this reply opens.
        ident: u64,
    },
}

/// Reply to a system call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SysReply {
    /// Echoed caller-chosen tag (correlates replies in trace replay).
    pub tag: u64,
    /// Outcome.
    pub result: Result<SysReplyData>,
}

/// Inter-kernel calls (§4.1) — the distributed capability protocol plus
/// startup/registry traffic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Kcall {
    /// Announces a newly registered service instance to all kernels.
    AnnounceService {
        /// Global service id (allocated by the registering kernel).
        id: ServiceId,
        /// Service name.
        name: u64,
        /// Kernel owning the service's group.
        owner: KernelId,
        /// DDL key of the service capability.
        srv_key: DdlKey,
        /// PE the service VPE runs on.
        srv_pe: PeId,
        /// The service VPE.
        srv_vpe: VpeId,
    },
    /// Obtain request: the sender's kernel wants to attach `child_key`
    /// (pre-allocated by the sender) as a child of the capability at
    /// `owner_sel` in `owner_vpe`'s table, on behalf of `requester_vpe`.
    ObtainReq {
        /// Correlation id (sender-local).
        op: OpId,
        /// Pre-allocated DDL key of the would-be child capability.
        child_key: DdlKey,
        /// VPE owning the parent capability.
        owner_vpe: VpeId,
        /// Selector of the parent capability in `owner_vpe`'s table.
        owner_sel: CapSel,
        /// The VPE that will receive the new capability.
        requester_vpe: VpeId,
    },
    /// Tells the parent's kernel to drop a child reference: one whose
    /// receiver died in flight (an orphan), or one revoked elsewhere.
    OrphanNotice {
        /// DDL key of the parent capability.
        parent_key: DdlKey,
        /// DDL key of the child reference to drop.
        child_key: DdlKey,
    },
    /// Delegate request (first leg of the two-way handshake, §4.3.2):
    /// create — but do not insert — a capability for `recv_vpe` described
    /// by `desc`, with `parent_key` as its parent.
    DelegateReq {
        /// Correlation id (sender-local).
        op: OpId,
        /// DDL key of the parent capability (owned by the sender).
        parent_key: DdlKey,
        /// Resource description for the new child capability.
        desc: CapKindDesc,
        /// The VPE receiving the delegated capability.
        recv_vpe: VpeId,
    },
    /// Second leg of the delegate handshake: commit or abort insertion of
    /// the pending capability created by a previous [`Kcall::DelegateReq`].
    DelegateAck {
        /// Correlation id of the *receiving* kernel's pending insert
        /// (from the [`KReply::Delegate`] reply).
        op: OpId,
        /// Correlation id of the *sending* kernel, echoed in
        /// [`KReply::DelegateDone`].
        reply_op: OpId,
        /// True to insert the pending capability, false to drop it
        /// (e.g. the parent was revoked in the meantime).
        commit: bool,
    },
    /// Revoke the capability subtree rooted at `cap_key` (owned by the
    /// receiving kernel). Sent once per remote child during revocation.
    RevokeReq {
        /// Correlation id (sender-local).
        op: OpId,
        /// DDL key of the subtree root to revoke.
        cap_key: DdlKey,
    },
    /// Batched revoke: revoke several subtrees owned by the receiving
    /// kernel in one message (the paper's suggested message-batching
    /// optimisation; used by the ablation benchmark).
    RevokeBatchReq {
        /// Correlation id (sender-local).
        op: OpId,
        /// DDL keys of the subtree roots to revoke.
        cap_keys: Vec<DdlKey>,
    },
    /// Open a session: attach `child_key` (a session capability created by
    /// the sender's kernel) as a child of service `service`'s capability.
    OpenSessReq {
        /// Correlation id (sender-local).
        op: OpId,
        /// Pre-allocated DDL key of the session capability.
        child_key: DdlKey,
        /// The service to connect to (owned by the receiving kernel).
        service: ServiceId,
        /// The connecting client VPE.
        client_vpe: VpeId,
    },
}

/// Replies to inter-kernel calls.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KReply {
    /// Reply to [`Kcall::ObtainReq`].
    Obtain {
        /// Correlation id echoed from the request.
        op: OpId,
        /// On success: the parent key and the resource description the
        /// new child capability shall carry.
        result: Result<CapDesc>,
    },
    /// Reply to [`Kcall::DelegateReq`] (first leg).
    Delegate {
        /// Correlation id echoed from the request.
        op: OpId,
        /// On success: the DDL key of the pending (not yet inserted)
        /// child capability, plus the receiver kernel's correlation id to
        /// address the ack.
        result: Result<(DdlKey, OpId)>,
    },
    /// Reply to [`Kcall::DelegateAck`] — reports whether insertion
    /// succeeded (fails with `VpeGone` if the receiver died while the
    /// handshake was in flight, letting the sender clean up quickly).
    DelegateDone {
        /// The ack's `reply_op` echoed back.
        op: OpId,
        /// On success, the selector the capability was inserted at in
        /// the receiving VPE's table.
        result: Result<CapSel>,
    },
    /// Reply to [`Kcall::RevokeReq`] and [`Kcall::RevokeBatchReq`], sent
    /// only when every subtree the request named is gone (never
    /// acknowledges an incomplete revoke; a key already gone is done).
    Revoke {
        /// Correlation id echoed from the request.
        op: OpId,
        /// Number of keys the request named (the reply's wire size).
        keys: u32,
        /// Number of capabilities deleted in the remote subtrees
        /// (statistics only).
        deleted: u64,
    },
    /// Reply to [`Kcall::OpenSessReq`].
    OpenSess {
        /// Correlation id echoed from the request.
        op: OpId,
        /// On success: the session identifier chosen by the service.
        result: Result<u64>,
    },
}

impl KReply {
    /// The correlation id this reply resumes — the ledger key the
    /// engine's reply router looks up.
    pub fn op(&self) -> OpId {
        match self {
            KReply::Obtain { op, .. }
            | KReply::Delegate { op, .. }
            | KReply::DelegateDone { op, .. }
            | KReply::Revoke { op, .. }
            | KReply::OpenSess { op, .. } => *op,
        }
    }
}

/// Kernel-to-VPE requests ("upcalls").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Upcall {
    /// Asks the VPE whether it accepts a capability exchange initiated by
    /// `from_vpe` (steps A.2 / B.3 in Figure 3).
    AcceptExchange {
        /// Correlation id (kernel-local).
        op: OpId,
        /// The initiating VPE.
        from_vpe: VpeId,
        /// Obtain or delegate, from the initiator's point of view.
        kind: ExchangeKind,
        /// For obtain: which of the receiver's capabilities is requested.
        sel: CapSel,
    },
    /// Notifies a service VPE that a client opened a session.
    SessionOpen {
        /// Correlation id (kernel-local).
        op: OpId,
        /// The connecting client.
        client_vpe: VpeId,
        /// PE of the client (for direct replies).
        client_pe: PeId,
    },
}

/// VPE-to-kernel responses to upcalls.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpcallReply {
    /// Response to [`Upcall::AcceptExchange`].
    AcceptExchange {
        /// Correlation id echoed from the upcall.
        op: OpId,
        /// Whether the exchange may proceed.
        accept: bool,
    },
    /// Response to [`Upcall::SessionOpen`].
    SessionOpen {
        /// Correlation id echoed from the upcall.
        op: OpId,
        /// On success, the service-chosen session identifier.
        result: Result<u64>,
    },
}

/// Filesystem operations (client → m3fs over a session).
///
/// Paths are shared (`Arc<str>`): a request takes a handle on the path
/// its trace step already holds instead of copying the bytes, and the
/// service's open-file table takes another. The wire still carries the
/// bytes — [`Payload::wire_size`] counts `path.len()`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FsOp {
    /// Opens a file; returns a file id.
    Open {
        /// Path, relative to the FS root.
        path: Arc<str>,
        /// Open for writing/appending.
        write: bool,
        /// Create the file if missing.
        create: bool,
    },
    /// Requests a memory capability for the next extent of the file
    /// starting at `offset`. The service delegates a memory capability to
    /// the client and replies with the covered range.
    NextExtent {
        /// Open-file id.
        fid: u64,
        /// Byte offset the client wants to access.
        offset: u64,
        /// True if the client intends to write (append allocates).
        write: bool,
    },
    /// Returns metadata for a path.
    Stat {
        /// Path to inspect.
        path: Arc<str>,
    },
    /// Lists the names in a directory (used by the `find` workload).
    ReadDir {
        /// Directory path.
        path: Arc<str>,
    },
    /// Creates a directory.
    Mkdir {
        /// Path of the new directory.
        path: Arc<str>,
    },
    /// Removes a file.
    Unlink {
        /// Path of the file to remove.
        path: Arc<str>,
    },
    /// Closes an open file; the service revokes all memory capabilities
    /// it delegated for this file.
    Close {
        /// Open-file id.
        fid: u64,
    },
}

/// A filesystem request over an open session, which is the channel's
/// label ([`Msg::label`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FsReq {
    /// Caller-chosen tag echoed in the reply.
    pub tag: u64,
    /// The operation.
    pub op: FsOp,
}

/// Metadata returned by `Stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileStat {
    /// File size in bytes.
    pub size: u64,
    /// True for directories.
    pub is_dir: bool,
    /// Number of extents backing the file.
    pub extents: u32,
}

/// Successful filesystem reply payloads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FsReplyData {
    /// Open succeeded.
    Opened {
        /// File id for subsequent operations.
        fid: u64,
        /// Current file size.
        size: u64,
    },
    /// NextExtent succeeded; the client now owns a memory capability.
    Extent {
        /// Selector of the delegated memory capability in the *client's*
        /// capability table.
        sel: CapSel,
        /// Global address the capability covers.
        addr: u64,
        /// File offset the extent starts at.
        offset: u64,
        /// Length of the extent in bytes.
        len: u64,
    },
    /// Stat result.
    Stat(FileStat),
    /// Directory listing (names only).
    Dir {
        /// Entry names.
        names: Vec<String>,
    },
    /// Generic acknowledgement (mkdir, unlink, close).
    Ok,
}

/// Reply to a filesystem request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FsReply {
    /// Echoed tag.
    pub tag: u64,
    /// Outcome.
    pub result: Result<FsReplyData>,
}

/// A load-generator HTTP request (Nginx experiment, §5.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpReq {
    /// Request id, echoed in the response.
    pub id: u64,
    /// Index of the static file to serve (picks a file from the docroot).
    pub uri: u32,
}

/// The server's response to an [`HttpReq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpResp {
    /// Echoed request id.
    pub id: u64,
    /// Number of payload bytes served.
    pub bytes: u64,
}

/// Union of everything that can travel through the NoC.
///
/// Every body is inline, so building a message allocates nothing. A
/// message is written once and moves little: the timed machine stores
/// it in one slot while it is in flight and its queue and stall lanes
/// order a 4-byte handle to it, as a DTU writes a message once into a
/// receive-buffer slot that the receiver reads in place (§2.2). A box
/// per inter-kernel or filesystem body, which kept a [`Msg`] at 40
/// bytes while whole messages moved through every queue operation, was
/// then one allocation per message for nothing; inline, a `Msg` is 56
/// bytes, within one cache line. Wire sizes do not follow the
/// representation: [`Payload::wire_size`] computes them. Use the
/// lower-case helper constructors ([`Payload::sys`], [`Payload::kcall`],
/// …) at send sites.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Payload {
    /// VPE → kernel.
    Sys {
        /// Caller-chosen tag echoed in the reply.
        tag: u64,
        /// The call.
        call: Syscall,
    },
    /// Kernel → VPE.
    SysReply(SysReply),
    /// Kernel → kernel request.
    Kcall(Kcall),
    /// Kernel → kernel reply.
    KReply(KReply),
    /// Kernel → VPE request.
    Upcall(Upcall),
    /// VPE → kernel response.
    UpcallReply(UpcallReply),
    /// Client VPE → service VPE.
    Fs(FsReq),
    /// Service VPE → client VPE.
    FsReply(FsReply),
    /// Load generator → server VPE.
    Http(HttpReq),
    /// Server VPE → load generator.
    HttpReply(HttpResp),
}

impl Payload {
    /// A system call.
    #[inline]
    pub fn sys(tag: u64, call: Syscall) -> Payload {
        Payload::Sys { tag, call }
    }

    /// A system-call reply.
    #[inline]
    pub fn sys_reply(tag: u64, result: Result<SysReplyData>) -> Payload {
        Payload::SysReply(SysReply { tag, result })
    }

    /// An inter-kernel request.
    #[inline]
    pub fn kcall(call: Kcall) -> Payload {
        Payload::Kcall(call)
    }

    /// An inter-kernel reply.
    #[inline]
    pub fn kreply(reply: KReply) -> Payload {
        Payload::KReply(reply)
    }

    /// A VPE's response to an upcall.
    #[inline]
    pub fn upcall_reply(reply: UpcallReply) -> Payload {
        Payload::UpcallReply(reply)
    }

    /// A filesystem request.
    #[inline]
    pub fn fs(req: FsReq) -> Payload {
        Payload::Fs(req)
    }

    /// A filesystem reply.
    #[inline]
    pub fn fs_reply(tag: u64, result: Result<FsReplyData>) -> Payload {
        Payload::FsReply(FsReply { tag, result })
    }
    /// Estimated wire size in bytes, used by the NoC latency model.
    ///
    /// Sizes approximate the real M3 message formats: a 16-byte DTU header
    /// plus the architectural payload. Strings count their length;
    /// batched revokes count 8 bytes per key.
    #[inline]
    pub fn wire_size(&self) -> u32 {
        const HDR: u32 = 16;
        HDR + match self {
            Payload::Sys { call, .. } => syscall_size(call),
            Payload::SysReply(r) => sys_reply_size(&r.result),
            Payload::Kcall(k) => kcall_size(k),
            Payload::KReply(r) => match r {
                KReply::Obtain { .. } => 40,
                KReply::Delegate { .. } => 32,
                KReply::DelegateDone { .. } => 16,
                KReply::Revoke { keys, .. } => 24 + 8 * keys,
                KReply::OpenSess { .. } => 24,
            },
            Payload::Upcall(_) | Payload::UpcallReply(_) => 24,
            Payload::Fs(req) => {
                16 + match &req.op {
                    FsOp::Open { path, .. }
                    | FsOp::Stat { path }
                    | FsOp::ReadDir { path }
                    | FsOp::Mkdir { path }
                    | FsOp::Unlink { path } => path.len() as u32,
                    FsOp::NextExtent { .. } => 24,
                    FsOp::Close { .. } => 8,
                }
            }
            Payload::FsReply(r) => match &r.result {
                Ok(FsReplyData::Dir { names }) => {
                    16 + names.iter().map(|n| n.len() as u32 + 2).sum::<u32>()
                }
                Ok(FsReplyData::Extent { .. }) => 40,
                _ => 24,
            },
            Payload::Http(_) => 64,
            Payload::HttpReply(_) => 128,
        }
    }
}

/// Architectural payload bytes of one inter-kernel call (excluding the
/// DTU header). Batched revokes count 8 bytes per key.
#[inline]
fn kcall_size(call: &Kcall) -> u32 {
    match call {
        Kcall::AnnounceService { .. } => 48,
        Kcall::ObtainReq { .. } => 40,
        Kcall::OrphanNotice { .. } => 24,
        Kcall::DelegateReq { .. } => 48,
        Kcall::DelegateAck { .. } => 16,
        Kcall::RevokeReq { .. } => 24,
        Kcall::RevokeBatchReq { cap_keys, .. } => 16 + 8 * cap_keys.len() as u32,
        Kcall::OpenSessReq { .. } => 32,
    }
}

/// Architectural payload bytes of one system call (excluding the DTU
/// header).
#[inline]
fn syscall_size(call: &Syscall) -> u32 {
    match call {
        Syscall::Noop => 8,
        Syscall::CreateMem { .. } => 24,
        Syscall::DeriveMem { .. } => 32,
        Syscall::Exchange { .. } => 24,
        Syscall::Revoke { .. } => 16,
        Syscall::CreateSrv { .. } => 16,
        Syscall::OpenSession { .. } => 16,
        Syscall::Activate { .. } => 16,
        Syscall::Exit => 8,
    }
}

/// Architectural payload bytes of one system-call reply (excluding the
/// DTU header).
#[inline]
fn sys_reply_size(result: &Result<SysReplyData>) -> u32 {
    match result {
        Ok(SysReplyData::Session { .. }) => 32,
        _ => 16,
    }
}

/// A message in flight between two PEs: 56 bytes, a handful of
/// fixed-size header fields and the inline [`Payload`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Msg {
    /// Sending PE.
    pub src: PeId,
    /// Destination PE.
    pub dst: PeId,
    /// The label of the channel the message travels on (DTU header, in
    /// `Msg`'s padding): the intake rule writes it, 0 off a channel.
    pub label: u32,
    /// The content.
    pub payload: Payload,
}

impl Msg {
    /// Creates a message with label 0.
    #[inline]
    pub fn new(src: PeId, dst: PeId, payload: Payload) -> Msg {
        Msg { src, dst, label: 0, payload }
    }

    /// Wire size of the message in bytes.
    #[inline]
    pub fn wire_size(&self) -> u32 {
        self.payload.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::CapType;

    #[test]
    fn perms_subset_logic() {
        assert!(Perms::RWX.contains(Perms::RW));
        assert!(!Perms::R.contains(Perms::W));
        assert_eq!(Perms::RWX.to_string(), "rwx");
        assert_eq!(Perms::R.to_string(), "r--");
    }

    /// The revoke messages' wire sizes are architectural constants: a
    /// request or reply for one key, and 8 bytes more per further key.
    #[test]
    fn wire_sizes_scale_with_content() {
        let key = |i| DdlKey::new(PeId(0), VpeId(0), CapType::Memory, i);
        let single = Payload::kcall(Kcall::RevokeReq { op: OpId(1), cap_key: key(1) });
        assert_eq!(single.wire_size(), 16 + 24);
        for n in [1, 10] {
            let cap_keys = (0..n).map(key).collect();
            let batch = Payload::kcall(Kcall::RevokeBatchReq { op: OpId(1), cap_keys });
            assert_eq!(batch.wire_size(), 16 + 16 + 8 * n);
            let reply = Payload::kreply(KReply::Revoke { op: OpId(1), keys: n, deleted: 3 });
            assert_eq!(reply.wire_size(), 16 + 24 + 8 * n);
        }
        let one = Payload::kreply(KReply::Revoke { op: OpId(1), keys: 1, deleted: 0 });
        assert_eq!(one.wire_size(), 16 + 32);
    }

    #[test]
    fn fs_paths_count_into_wire_size() {
        let short = Payload::fs(FsReq { tag: 0, op: FsOp::Stat { path: "a".into() } });
        let long =
            Payload::fs(FsReq { tag: 0, op: FsOp::Stat { path: "a/very/long/path/name".into() } });
        assert!(long.wire_size() > short.wire_size());
    }

    #[test]
    fn msg_roundtrip_fields() {
        let m = Msg::new(PeId(1), PeId(2), Payload::sys(7, Syscall::Noop));
        assert_eq!(m.src, PeId(1));
        assert_eq!(m.dst, PeId(2));
        assert_eq!(m.wire_size(), 16 + 8);
    }

    /// A message is stored once while in flight and travels through
    /// the event queue and its stall lanes by handle, so its size costs
    /// one write and one read, not a move per queue operation. Guard one
    /// cache line, so a new fat inline variant cannot make each of those
    /// touch two.
    #[test]
    fn msg_fits_one_cache_line() {
        let size = std::mem::size_of::<Msg>();
        assert!(size <= 64, "Msg grew to {size} bytes, past one cache line");
    }
}

/// Outgoing-message collection shared by all actors (kernels, services,
/// application VPEs).
///
/// Actors never touch the event queue directly; they push messages into
/// an `Outbox` and the machine layer injects them into the NoC when the
/// handler's modeled execution completes.
#[derive(Debug, Default)]
pub struct Outbox {
    msgs: Vec<(Msg, Option<u64>)>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Outbox {
        Outbox::default()
    }

    /// Queues a message, injected when the handler's modeled execution
    /// completes (the handler composes the message as part of its work).
    #[inline]
    pub fn push(&mut self, msg: Msg) {
        self.msgs.push((msg, None));
    }

    /// Queues a message injected `offset` cycles after the handler
    /// *started* — used by loops that send as they iterate (e.g. the
    /// revocation fan-out), so remote kernels overlap with the rest of
    /// the loop instead of waiting for it to finish.
    #[inline]
    pub fn push_after(&mut self, msg: Msg, offset: u64) {
        self.msgs.push((msg, Some(offset)));
    }

    /// Drains the collected messages in push order, with their optional
    /// pipelined-injection offsets. Takes the backing buffer; prefer
    /// [`Outbox::drain_iter`] on hot paths so a long-lived outbox keeps
    /// its capacity.
    pub fn drain(&mut self) -> Vec<(Msg, Option<u64>)> {
        std::mem::take(&mut self.msgs)
    }

    /// Drains the collected messages in push order without giving up the
    /// backing buffer — a long-lived outbox reused across handler
    /// invocations stops allocating once warm (the machine's event loop
    /// ran one allocation/free per delivered message before this).
    #[inline]
    pub fn drain_iter(&mut self) -> impl Iterator<Item = (Msg, Option<u64>)> + '_ {
        self.msgs.drain(..)
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True if nothing was queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}
