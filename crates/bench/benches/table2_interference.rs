//! Table 2: types of interference with overlapping capability-modifying
//! operations.
//!
//! This harness *constructs* each interference case of Table 2 with the
//! untimed protocol cluster, asserts the observed outcome and reports it,
//! confirming that the protocol produces exactly the paper's matrix:
//!
//! | 1st \ 2nd | Obtain     | Delegate   | Revoke/Crash |
//! |-----------|------------|------------|--------------|
//! | Obtain    | serialized | serialized | orphaned     |
//! | Delegate  | serialized | serialized | invalid*     |
//! | Revoke    | pointless  | pointless  | incomplete*  |
//!
//! (* = prevented by the protocol: the two-way delegate handshake and
//! the two-phase revocation.)

use semper_bench::banner;
use semper_bench::figures::table2_interference;

fn main() {
    banner("Table 2: interference between overlapping CMOs", "Table 2");
    let t = table2_interference();
    println!("obtain || obtain    -> serialized (both succeed: {})", t.obtain_obtain_ok);
    println!("obtain || crash     -> orphaned (cleaned: {})", t.obtain_crash_orphans_cleaned == 1);
    println!(
        "delegate || revoke  -> invalid PREVENTED by two-way handshake \
         (revoke acked: {}, no leaked capability: {})",
        t.delegate_revoke_acked, !t.delegate_revoke_leaked
    );
    println!(
        "revoke || obtain    -> pointless exchange denied immediately: {}",
        t.revoke_obtain_denied && t.revoke_obtain_acked
    );
    println!(
        "revoke || revoke    -> incomplete PREVENTED: both acked after full \
         deletion ({}, {} capabilities left = self-caps only: {})",
        t.revoke_revoke_acked,
        t.revoke_revoke_caps_left,
        t.revoke_revoke_caps_left == 3
    );
    println!();
    println!("matrix reproduced: serialized / orphaned-cleaned / invalid-prevented /");
    println!("pointless-denied / incomplete-prevented.");
}
