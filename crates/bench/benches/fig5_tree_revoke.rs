//! Figure 5: parallel revocation of capability trees with different
//! breadths utilizing multiple kernels.
//!
//! One application delegates a capability to many others (e.g. shared
//! memory), producing a tree of one root with N children. The children
//! are distributed over 0, 1, 4, 8, or 12 other kernels ("1 + k
//! Kernels"); revoking the root then proceeds in parallel across the
//! kernels. The paper observes a break-even versus the local case around
//! 80 children at 12 kernels.

use semper_base::KernelMode;
use semper_bench::banner;
use semper_sim::Cycles;
use semperos::experiment::MicroMachine;

fn main() {
    banner("Figure 5: parallel revocation of capability trees", "Figure 5");
    // All measurements share one 13-group machine; group 0 hosts the
    // root VPE.
    let mut m = MicroMachine::new(13, 12, KernelMode::SemperOS);
    let kernel_counts: [u16; 5] = [0, 1, 4, 8, 12];
    print!("{:<10}", "children");
    for k in kernel_counts {
        print!(" {:>14}", format!("1+{k} kernels"));
    }
    println!("   (revocation time, µs)");
    for children in [1u32, 16, 32, 48, 64, 80, 96, 112, 128] {
        print!("{children:<10}");
        for k in kernel_counts {
            let cycles = m.measure_tree_revoke(children, k);
            print!(" {:>14.2}", Cycles(cycles).as_micros());
        }
        println!();
    }
    println!();
    // Break-even check at 128 children: local vs 12 kernels.
    let local = m.measure_tree_revoke(128, 0);
    let par12 = m.measure_tree_revoke(128, 12);
    println!(
        "128 children: local {:.2}µs vs 12 kernels {:.2}µs — parallel revocation {}",
        Cycles(local).as_micros(),
        Cycles(par12).as_micros(),
        if par12 < local { "wins (paper: break-even ~80 children)" } else { "does not win yet" }
    );
}
