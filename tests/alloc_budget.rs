//! Allocation budgets of the application, webserver and capability
//! paths, as counts.
//!
//! A filesystem request allocates once — the box around its payload.
//! Paths are shared from the trace step into the request, m3fs resolves
//! a path to its inode once per open, and the event queue allocates
//! nothing in steady state. A per-step `String` copy or a per-lookup
//! `normalize` allocation would more than double the first figure below
//! (it was 2.48–2.58 allocations per delivered message before paths were
//! shared), so these tests pin it: a deterministic count, where the
//! benchmark's host-time bound of 25 % is too loose to notice. The Fig. 10
//! request path is pinned per served request (a webserver replays a
//! shared trace per docroot page; building one per request cost about
//! four allocations more), and the capability path per exchange system
//! call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use semper_apps::AppKind;
use semper_base::{CapSel, KernelMode, MachineConfig, VpeId};
use semper_sim::{Cycles, DetRng};
use semperos::{Machine, MicroMachine, Workload};

thread_local! {
    /// Set on the measuring thread for the measured section only, so the
    /// test harness's other threads never show up in the count. Constant
    /// initialisers and no destructors: touching these never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Calls that obtained memory from the allocator while this thread
    /// had [`COUNTING`] set.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Runs `f`; returns its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.set(true);
    let result = f();
    COUNTING.set(false);
    (result, ALLOCATIONS.with(Cell::get) - before)
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

#[test]
fn a_delivered_message_costs_about_one_allocation() {
    for app in AppKind::ALL {
        let mut m = booted(app);
        let delivered_before = m.deliveries();
        let (end, allocations) = counted(|| run(&mut m));
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

/// Allocations per served request the webserver path may spend.
/// Measured 11.17 (14 834 allocations for the 1 328 requests served in
/// the window below), the same in both build profiles. It read 11.85
/// while capability tables hashed their reverse index, and 15.71 when
/// each request built its own trace: the `format!`ted path, its
/// `Arc<str>`, the trace's name and its step vector. One more allocation
/// per request adds 1.
const REQUEST_BUDGET: f64 = 11.82;

/// Fig. 10's OS-bound corner in small: 64 webservers and 8 load
/// generators on 8 kernels and 8 m3fs instances, counted over 4 M cycles
/// after a 2 M-cycle warm-up.
#[test]
fn a_served_request_costs_a_bounded_number_of_allocations() {
    let cfg = MachineConfig::paper_testbed(8, 8);
    let mut m = Machine::build(cfg, 64, 8, Workload::Nginx { depth: 4 });
    m.boot_os();
    m.start_nginx();
    let mut horizon = m.advance_until(m.now() + 2_000_000);
    let served_before = m.loadgen_completed();
    let ((), allocations) = counted(|| {
        for _ in 0..40 {
            horizon = m.advance_until(horizon + 100_000);
        }
    });
    let served = m.loadgen_completed() - served_before;
    assert!(served > 0, "no request served");
    let per_request = allocations as f64 / served as f64;
    let line =
        format!("nginx     {allocations} allocations / {served} requests = {per_request:.3}");
    println!("{line}");
    assert!(per_request <= REQUEST_BUDGET, "{line}, over the budget of {REQUEST_BUDGET}");
}

/// Allocations per exchange system call the capability path may spend.
/// Measured 2.025 (8 098 for the 4 000 calls below), the same in both
/// build profiles; 2.111 (8 442) while capability tables hashed their
/// reverse index. A page of records or of table index entries costs one
/// allocation per 16 capabilities, where a doubling hash map allocates
/// a handful of times in all. One more allocation per call adds 1.
const EXCHANGE_BUDGET: f64 = 2.164;

const KERNELS: u16 = 13;
const VPES_PER_GROUP: u16 = 12;

/// Grows random capability trees on Fig. 5's 13-kernel machine by
/// obtain and delegate, half of them group-spanning, as the repo
/// benchmark's `exchange_churn` does.
#[test]
fn an_exchange_costs_a_bounded_number_of_allocations() {
    const ROOTS: u16 = 16;
    const EXCHANGES: usize = 4000;
    let mut m = MicroMachine::new(KERNELS, VPES_PER_GROUP, KernelMode::SemperOS);
    let mut held: Vec<(VpeId, CapSel)> = Vec::with_capacity(ROOTS as usize + EXCHANGES);
    for r in 0..ROOTS {
        let owner = m.vpe(r % KERNELS, r % VPES_PER_GROUP);
        held.push((owner, m.create_mem(owner)));
    }
    let mut rng = DetRng::seed_from(1);
    let ((), allocations) = counted(|| {
        for i in 0..EXCHANGES {
            let (holder, sel) = *rng.pick(&held);
            let group = holder.0 % KERNELS;
            let spanning = i / 2 % 2 == 1;
            let to_group = if spanning {
                (group + 1 + rng.below(KERNELS as u64 - 1) as u16) % KERNELS
            } else {
                group
            };
            let mut to = m.vpe(to_group, rng.below(VPES_PER_GROUP as u64) as u16);
            if to == holder {
                to = m.vpe(group, (holder.0 / KERNELS + 1) % VPES_PER_GROUP);
            }
            let (got, _) =
                if i % 2 == 0 { m.obtain(to, holder, sel) } else { m.delegate(holder, to, sel) };
            held.push((to, got));
        }
    });
    let per_exchange = allocations as f64 / EXCHANGES as f64;
    let line =
        format!("exchange  {allocations} allocations / {EXCHANGES} exchanges = {per_exchange:.3}");
    println!("{line}");
    assert!(per_exchange <= EXCHANGE_BUDGET, "{line}, over the budget of {EXCHANGE_BUDGET}");
}
