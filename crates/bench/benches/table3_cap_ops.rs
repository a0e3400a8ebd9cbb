//! Table 3: runtimes of capability operations (cycles).
//!
//! Two applications on a small machine; the second obtains a capability
//! from the first, then the first revokes it. Group-local uses one
//! kernel for both; group-spanning uses two kernels. The M3 baseline
//! runs the single-kernel mode with plain capability references.

use semper_bench::figures::{table3_anchors, table3_cap_ops};
use semper_bench::{banner, dev};

fn main() {
    banner("Table 3: runtimes of capability operations", "Table 3");
    let rows = table3_cap_ops();
    println!(
        "{:<10} {:<9} {:>9} {:>8} {:>7} | {:>8} {:>7}",
        "Operation", "Scope", "SemperOS", "paper", "dev", "M3", "paper"
    );
    for r in &rows {
        let (m3, m3_paper) = match r.m3 {
            Some((m3, paper)) => (m3.to_string(), paper.to_string()),
            None => ("—".to_string(), "—".to_string()),
        };
        println!(
            "{:<10} {:<9} {:>9} {:>8} {:>7} | {:>8} {:>7}",
            r.op,
            r.scope,
            r.cycles,
            r.paper,
            dev(r.cycles as f64, r.paper as f64),
            m3,
            m3_paper
        );
    }
    println!();
    let [ex, rv] = table3_anchors(&rows);
    let pct = |v: f64| 100.0 * v;
    println!(
        "Increase over M3: exchange {:+.1}% (paper {:+.1}%), revoke {:+.1}% (paper {:+.1}%)",
        pct(ex.measured),
        pct(ex.paper),
        pct(rv.measured),
        pct(rv.paper)
    );
}
