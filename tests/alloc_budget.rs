//! The application path's allocation budget, as a count.
//!
//! A filesystem request allocates once — the box around its payload.
//! Paths are shared from the trace step through the request into the
//! service's open-file table, and the event queue allocates nothing in
//! steady state. A per-step `String` copy or a per-lookup `normalize`
//! allocation would more than double the figure below (it was 2.48–2.58
//! allocations per delivered message before paths were shared), so this
//! test pins it: a deterministic count, where the benchmark's host-time
//! bound of 25 % is too loose to notice.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use semper_apps::AppKind;
use semper_base::MachineConfig;
use semper_sim::Cycles;
use semperos::{Machine, Workload};

/// Calls that obtained memory from the allocator while the calling
/// thread had [`COUNTING`] set.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread for the measured section only, so the
    /// test harness's own threads never show up in the count. Constant
    /// initialiser and no destructor: reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The system allocator, counting the calls that hand out memory.
struct Counting;

// SAFETY: every method passes its arguments to the same method of
// `System` unchanged and returns what that returns, so `System`'s
// guarantees are this allocator's; `count` touches an atomic and a
// `Cell` in thread-local storage and neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // that is, from `System` — with `layout`, and that `new_size`
        // is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // that is, from `System` — with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const INSTANCES: u32 = 32;

/// Allocations per delivered message the application path may spend.
/// Measured 1.02–1.09 over the six applications.
const BUDGET: f64 = 1.15;

fn booted(app: AppKind) -> Machine {
    let traces = (0..INSTANCES).map(|i| app.trace(i)).collect();
    let mut m =
        Machine::build(MachineConfig::paper_testbed(4, 4), INSTANCES, 0, Workload::Apps(traces));
    m.boot_os();
    m
}

/// Runs every client of `m` to completion; returns the final cycle.
fn run(m: &mut Machine) -> Cycles {
    m.start_clients();
    let end = m.run_until_idle();
    assert!(m.client_times().values().all(|(_, done)| done.is_some()), "a client did not finish");
    end
}

// The only test in this file on purpose: `ALLOCATIONS` is one counter
// for every thread that sets `COUNTING`.
#[test]
fn a_delivered_message_costs_about_one_allocation() {
    for app in AppKind::ALL {
        let mut m = booted(app);
        let delivered_before = m.deliveries();
        let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
        COUNTING.set(true);
        let end = run(&mut m);
        COUNTING.set(false);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
        let delivered = m.deliveries() - delivered_before;

        let per_delivery = allocations as f64 / delivered as f64;
        let line = format!(
            "{:<9} {allocations} allocations / {delivered} deliveries = {per_delivery:.3}",
            app.name()
        );
        println!("{line}");
        assert!(per_delivery <= BUDGET, "{line}, over the budget of {BUDGET}");
        // Counting is invisible to the simulation.
        assert_eq!(run(&mut booted(app)), end, "{}: final cycle", app.name());
    }
}
