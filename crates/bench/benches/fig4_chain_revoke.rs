//! Figure 4: revoking capability chains of varying sizes.
//!
//! A chain emerges when a capability is exchanged with an application
//! which exchanges it again with another, and so on. The local chain
//! ping-pongs between two VPEs of one group; the group-spanning chain is
//! the adversarial cross-kernel case of §5.2 (circular dependency
//! between the two kernels during revocation — handled without deadlock
//! by the two-phase algorithm). The M3 line is the single-kernel
//! baseline.

use semper_bench::banner;
use semper_bench::figures::{fig4_anchors, fig4_chain_revoke};

fn main() {
    banner("Figure 4: revoking capability chains of varying sizes", "Figure 4");
    let rows = fig4_chain_revoke();
    println!(
        "{:<8} {:>16} {:>20} {:>14}",
        "Length", "Local (cycles)", "Spanning (cycles)", "M3 (cycles)"
    );
    for r in &rows {
        println!("{:<8} {:>16} {:>20} {:>14}", r.len, r.local, r.spanning, r.m3);
    }
    println!();
    let a = fig4_anchors(&rows);
    println!(
        "At length 100: spanning/local = {:.2}x (paper ~{}x), local/M3 = {:.2}x (paper ~{}x)",
        a[0].measured, a[0].paper, a[1].measured, a[1].paper
    );
}
