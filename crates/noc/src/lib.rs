//! Network-on-chip hardware model.
//!
//! M3's key hardware idea (§2.2, Figure 1) is the *data transfer unit*
//! (DTU): a per-PE gateway that is the only way a PE can reach other PEs
//! or memory. Controlling DTU configuration therefore suffices to isolate
//! PEs — "NoC-level isolation". The DTU state the protocol depends on
//! lives with the kernel that configures it: each VPE's endpoint
//! registers in its kernel's record of the VPE (`semper_kernel::gates`),
//! the per-peer message-slot credits in the kernel's credit gate, and
//! send/receive cost in the cost model's `dtu_send`/`dtu_recv`. This
//! crate models the network between the DTUs:
//!
//! * [`mesh`] — PE placement and hop counts on a 2D mesh.
//! * [`noc`] — message routing with per-channel FIFO ordering (the
//!   protocol precondition of §4.3.1) and latency from the cost model.
//! * [`memory`] — the global physical address space backing memory
//!   capabilities (allocation only; contents are not simulated, matching
//!   the paper's non-contended memory methodology).

pub mod memory;
pub mod mesh;
pub mod noc;

pub use memory::GlobalMemory;
pub use mesh::Mesh;
pub use noc::{ChannelId, Noc};
