//! Support library for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation (§5) has a bench
//! target in `benches/`, which prints the measured rows next to the
//! paper's published values where the paper gives them.
//!
//! The recorded comparison is `tests/goldens/paper_figures.txt`: for
//! the six sub-second benches (Tables 2 and 3, Figures 4 and 5, and the
//! batching and handshake ablations, whose rows [`figures`] computes)
//! it pins every printed cell and records each anchor's published
//! value, source and relative error. `tests/paper_pins.rs` checks it in
//! every `cargo test`.

pub mod figures;

use semper_apps::AppKind;
use semper_base::MachineConfig;
use semperos::experiment::{parallel_efficiency, run_app_instances};

/// Prints a benchmark banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("(reproduces {paper_ref} of 'SemperOS: A Distributed Capability");
    println!(" System', USENIX ATC 2019)");
    println!("================================================================");
}

/// Measures parallel efficiency of `app` at `instances` on `cfg`
/// (runs the single-instance baseline on the same configuration).
pub fn efficiency(cfg: &MachineConfig, app: AppKind, instances: u32) -> f64 {
    let t1 = run_app_instances(cfg, app, 1).mean_duration();
    let tn = run_app_instances(cfg, app, instances).mean_duration();
    parallel_efficiency(t1, tn)
}

/// Formats a percentage cell.
pub fn pct(v: f64) -> String {
    format!("{v:5.1}%")
}

/// Relative deviation of `measured` from `paper`, as a signed percent.
pub fn dev(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return "    —".to_string();
    }
    format!("{:+5.1}%", 100.0 * (measured - paper) / paper)
}
