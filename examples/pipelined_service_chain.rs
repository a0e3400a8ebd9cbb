//! Blocking vs promise-pipelined service chains.
//!
//! ```text
//! cargo run --release --example pipelined_service_chain
//! ```
//!
//! Every client runs the canonical three-hop dependent chain of a
//! service interaction — "open" (create a memory capability), "read"
//! (derive the transfer window from it), "hand off" (delegate the
//! window to a partner VPE in the other kernel group) — once blocking,
//! once pipelined through promise capabilities. The blocking twin
//! issues each hop as its own synchronous system call; the pipelined
//! twin submits all three hops up front (dependencies named by their
//! *promise* selector) and redeems only the tail, so the submission
//! round trips of later clients overlap the kernel-side work of
//! earlier ones.
//!
//! The example hard-asserts that the pipelined twin finishes the whole
//! workload in fewer simulated cycles than the blocking twin, and
//! prints per-hop latencies plus the kernels' network and promise
//! counters. Output is byte-identical across runs; the 64-client
//! four-hop version of the same twins is pinned by the `service_chain_*`
//! rows of `tests/scale_pins.rs`.

use semper_base::msg::{ExchangeKind, Perms, SysReplyData, Syscall};
use semper_base::{CapSel, KernelMode, VpeId};
use semperos::experiment::MicroMachine;

/// Kernel groups in each twin machine.
const KERNELS: u16 = 2;
/// Client VPEs per group — the chain runs once per client.
const CLIENTS_PER_GROUP: u16 = 8;
/// Hops per chain (open → read → hand off).
const HOPS: usize = 3;

/// The three-hop chain of `client`, as plain syscalls. `dep` selectors
/// are filled by the caller (resolved selectors when blocking, promise
/// selectors when pipelined).
fn hop_call(hop: usize, client: VpeId, dep: CapSel) -> Syscall {
    match hop {
        0 => Syscall::CreateMem { size: 16 * 1024, perms: Perms::RW },
        1 => Syscall::DeriveMem { src: dep, offset: 0, size: 4096, perms: Perms::R },
        // The partner lives in the other group (round-robin placement
        // by VPE id parity), so the hand-off spans both kernels.
        2 => Syscall::Exchange {
            other: VpeId(client.0 ^ 1),
            own_sel: dep,
            other_sel: CapSel::INVALID,
            kind: ExchangeKind::Delegate,
        },
        _ => unreachable!("the chain has {HOPS} hops"),
    }
}

/// Selector carried out of a hop's (resolved) reply.
fn result_sel(reply: &SysReplyData) -> CapSel {
    match reply {
        SysReplyData::Mem { sel, .. } => *sel,
        SysReplyData::Sel(sel) => *sel,
        _ => CapSel::INVALID,
    }
}

/// One full twin run; returns the printable block and the end-to-end
/// simulated cycle count of the whole workload.
fn run_twin(pipelined: bool) -> (String, u64) {
    let mut mm = MicroMachine::new(KERNELS, CLIENTS_PER_GROUP, KernelMode::SemperOS);
    // Only group-0 clients initiate; their partners in group 1 receive
    // the hand-off (round-robin placement: even ids → group 0).
    let clients: Vec<VpeId> = (0..CLIENTS_PER_GROUP).map(|j| VpeId(j * KERNELS)).collect();

    let t0 = mm.machine().now();
    let mut hop_cycles = [0u64; HOPS];
    let mut wait_cycles = 0u64;

    if pipelined {
        // Submit every client's whole chain; each submission replies
        // immediately with a promise, so the kernels work on earlier
        // chains while later clients are still submitting.
        let mut tails: Vec<(VpeId, CapSel)> = Vec::new();
        for &client in &clients {
            let mut dep = CapSel::INVALID;
            for (hop, spent) in hop_cycles.iter_mut().enumerate() {
                let call = Syscall::SubmitAsync(Box::new(hop_call(hop, client, dep)));
                let (reply, cycles) = mm.machine().syscall_blocking(client, call);
                let Ok(SysReplyData::Promise { sel }) = reply.result else {
                    panic!("submission must yield a promise: {reply:?}");
                };
                *spent += cycles;
                dep = sel;
            }
            tails.push((client, dep));
        }
        // Redeem only the tails: program order guarantees the earlier
        // hops completed when the tail resolves.
        for (client, tail) in tails {
            let (reply, cycles) = mm
                .machine()
                .syscall_blocking(client, Syscall::WaitPromise { sel: tail, block: true });
            assert!(
                matches!(reply.result, Ok(SysReplyData::Delegated { .. })),
                "tail must resolve to the hand-off result: {reply:?}"
            );
            wait_cycles += cycles;
        }
    } else {
        for &client in &clients {
            let mut dep = CapSel::INVALID;
            for (hop, spent) in hop_cycles.iter_mut().enumerate() {
                let (reply, cycles) =
                    mm.machine().syscall_blocking(client, hop_call(hop, client, dep));
                let data = reply.result.unwrap_or_else(|e| panic!("hop {hop} failed: {e}"));
                *spent += cycles;
                dep = result_sel(&data);
            }
        }
    }

    mm.machine().run_until_idle();
    mm.machine().check_invariants();
    mm.machine().assert_quiescent();
    let total = (mm.machine().now() - t0).0;

    let n = clients.len() as u64;
    let mode = if pipelined { "pipelined" } else { "blocking" };
    let mut out = format!("{mode} twin ({n} clients x {HOPS}-hop chains):\n");
    let hop_names = ["open (create)", "read (derive)", "hand off (delegate)"];
    for (hop, name) in hop_names.iter().enumerate() {
        let what = if pipelined { "submit latency" } else { "latency" };
        out.push_str(&format!(
            "  hop {hop} {name:<22} mean {what} {:>6} cycles\n",
            hop_cycles[hop] / n
        ));
    }
    if pipelined {
        out.push_str(&format!(
            "  tail redemption            mean latency {:>6} cycles\n",
            wait_cycles / n
        ));
    }
    out.push_str(&format!("  end-to-end: {total} cycles\n"));
    let mut kcalls_out = 0u64;
    let mut spanning = 0u64;
    let (mut created, mut resolved, mut pipelined_calls) = (0u64, 0u64, 0u64);
    for s in mm.machine().kernel_stats() {
        kcalls_out += s.kcalls_out;
        spanning += s.exchanges_spanning;
        created += s.promises_created;
        resolved += s.promises_resolved;
        pipelined_calls += s.calls_pipelined;
    }
    out.push_str(&format!(
        "  net: kcalls {kcalls_out}, spanning exchanges {spanning}, promises {created} created / \
         {resolved} resolved, {pipelined_calls} calls pipelined\n"
    ));
    (out, total)
}

fn main() {
    let (blk_block, blk_total) = run_twin(false);
    let (pip_block, pip_total) = run_twin(true);
    println!("{blk_block}");
    println!("{pip_block}");
    assert!(
        pip_total < blk_total,
        "pipelining must reduce end-to-end cycles: pipelined {pip_total} >= blocking {blk_total}"
    );
    let saved = blk_total - pip_total;
    println!(
        "pipelined chains finished in {pip_total} cycles vs {blk_total} blocking — \
         {saved} cycles ({:.1}%) saved by overlapping submissions with kernel work.",
        100.0 * saved as f64 / blk_total as f64
    );
}
