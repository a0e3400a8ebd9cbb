//! Ablation: the two-way delegate handshake (§4.3.2).
//!
//! Demonstrates what the handshake buys and what it costs:
//!
//! * **Safety** — under a delegate/revoke race, the naive one-way
//!   protocol leaves the receiver holding a capability whose parent was
//!   revoked (*invalid*, Table 2); the two-way handshake never does.
//! * **Cost** — the handshake adds one inter-kernel round trip to every
//!   group-spanning delegate.

use semper_bench::banner;
use semper_bench::figures::ablate_handshake;

fn main() {
    banner("Ablation: two-way delegate handshake", "§4.3.2 / Table 2 'Invalid'");
    let h = ablate_handshake();
    println!("delegate/revoke race leaves an invalid capability:");
    println!("  two-way handshake (SemperOS): {}   <- must be false", h.two_way_leaks);
    println!(
        "  one-way (naive) protocol:     {}   <- the window the paper closes",
        h.one_way_leaks
    );
    println!();
    let (lat2, lat1) = (h.two_way_cycles, h.one_way_cycles);
    println!("group-spanning delegate latency:");
    println!("  two-way handshake: {lat2} cycles");
    println!("  one-way protocol:  {lat1} cycles");
    println!(
        "  handshake overhead: {} cycles ({:+.1}%) — the price of ruling out",
        lat2 as i64 - lat1 as i64,
        100.0 * (lat2 as f64 - lat1 as f64) / lat1 as f64
    );
    println!("  invalid capabilities entirely.");
}
