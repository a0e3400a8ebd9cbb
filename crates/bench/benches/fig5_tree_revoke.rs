//! Figure 5: parallel revocation of capability trees with different
//! breadths utilizing multiple kernels.
//!
//! One application delegates a capability to many others (e.g. shared
//! memory), producing a tree of one root with N children. The children
//! are distributed over 0, 1, 4, 8, or 12 other kernels ("1 + k
//! Kernels"); revoking the root then proceeds in parallel across the
//! kernels. The paper observes a break-even versus the local case around
//! 80 children at 12 kernels.

use semper_bench::banner;
use semper_bench::figures::{fig5_tree_revoke, FIG5_KERNELS};
use semper_sim::Cycles;

fn main() {
    banner("Figure 5: parallel revocation of capability trees", "Figure 5");
    let rows = fig5_tree_revoke();
    print!("{:<10}", "children");
    for k in FIG5_KERNELS {
        print!(" {:>14}", format!("1+{k} kernels"));
    }
    println!("   (revocation time, µs)");
    for r in &rows {
        print!("{:<10}", r.children);
        for cycles in r.cycles {
            print!(" {:>14.2}", Cycles(cycles).as_micros());
        }
        println!();
    }
    println!();
    // Break-even check at 128 children: local vs 12 kernels.
    let last = rows.last().expect("Figure 5 has rows");
    let (local, par12) = (last.cycles[0], last.cycles[4]);
    println!(
        "128 children: local {:.2}µs vs 12 kernels {:.2}µs — parallel revocation {}",
        Cycles(local).as_micros(),
        Cycles(par12).as_micros(),
        if par12 < local { "wins (paper: break-even ~80 children)" } else { "does not win yet" }
    );
}
