//! SemperOS reproduction — the assembled system.
//!
//! This crate wires the substrates together into a runnable machine:
//! the deterministic simulator (`semper-sim`), the NoC/DTU hardware
//! model (`semper-noc`), the multikernel with its distributed capability
//! protocol (`semper-kernel`), the m3fs service (`semper-m3fs`), and the
//! application workloads (`semper-apps`).
//!
//! * [`topology`] — PE-role assignment: kernels, services, clients,
//!   webservers, load generators.
//! * [`machine`] — the timed event loop: message delivery, per-PE busy
//!   time (kernel serialization!), boot sequencing.
//! * [`experiment`] — the experiment drivers used by the benchmark
//!   harness: capability-operation microbenchmarks (Table 3, Figures
//!   4-5), application runs with parallel efficiency (Table 4, Figures
//!   6-9), and the Nginx throughput experiment (Figure 10).
//! * [`runner`] — parallel execution of *independent* machines on
//!   worker threads with a deterministic, submission-ordered merge.
//!
//! # Quick example
//!
//! ```
//! use semperos::experiment::{self, MicroMachine};
//! use semper_base::{KernelMode, MachineConfig};
//!
//! // Measure one group-local capability exchange, as in Table 3.
//! let mut m = MicroMachine::new(1, 2, KernelMode::SemperOS);
//! let cycles = m.measure_exchange_local();
//! assert!(cycles > 0);
//! # let _ = MachineConfig::small();
//! ```

pub mod experiment;
pub mod machine;
pub mod runner;
pub mod topology;

pub use experiment::{AppRunResult, MicroMachine, NginxResult};
pub use machine::{Machine, Node, Workload};
pub use runner::{Job, Runner};
pub use topology::{Role, Topology};
