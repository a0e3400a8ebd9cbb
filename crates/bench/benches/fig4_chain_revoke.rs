//! Figure 4: revoking capability chains of varying sizes.
//!
//! A chain emerges when a capability is exchanged with an application
//! which exchanges it again with another, and so on. The local chain
//! ping-pongs between two VPEs of one group; the group-spanning chain is
//! the adversarial cross-kernel case of §5.2 (circular dependency
//! between the two kernels during revocation — handled without deadlock
//! by the two-phase algorithm). The M3 line is the single-kernel
//! baseline.

use semper_base::KernelMode;
use semper_bench::banner;
use semperos::experiment::MicroMachine;

fn main() {
    banner("Figure 4: revoking capability chains of varying sizes", "Figure 4");
    // One machine per shape, reused across all chain lengths —
    // measurement cycles are identical on a quiesced reused machine.
    let mut semper = MicroMachine::new(2, 2, KernelMode::SemperOS);
    let mut m3 = MicroMachine::new(1, 2, KernelMode::M3);
    println!(
        "{:<8} {:>16} {:>20} {:>14}",
        "Length", "Local (cycles)", "Spanning (cycles)", "M3 (cycles)"
    );
    for len in [1u32, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
        let local = semper.measure_chain_revoke(len, false);
        let spanning = semper.measure_chain_revoke(len, true);
        let base = m3.measure_chain_revoke(len, false);
        println!("{len:<8} {local:>16} {spanning:>20} {base:>14}");
    }
    println!();
    let l100 = semper.measure_chain_revoke(100, false);
    let s100 = semper.measure_chain_revoke(100, true);
    let m100 = m3.measure_chain_revoke(100, false);
    println!(
        "At length 100: spanning/local = {:.2}x (paper ~3x), local/M3 = {:.2}x (paper ~2x)",
        s100 as f64 / l100 as f64,
        l100 as f64 / m100 as f64
    );
}
