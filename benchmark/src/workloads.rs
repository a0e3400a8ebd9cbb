//! The four workloads. Each repetition builds a fresh machine from
//! generated inputs (set-up), runs the timed section, and checks the
//! outcome. Everything here goes through the public API a user of the
//! simulator has; no `Feature` is enabled.

use std::panic::{catch_unwind, AssertUnwindSafe};

use semper_apps::AppKind;
use semper_base::msg::{Perms, SysReply, SysReplyData, Syscall};
use semper_base::{CapSel, ExchangeKind, KernelId, KernelMode, MachineConfig, VpeId};
use semper_kernel::KernelStats;
use semper_sim::Cycles;
use semperos::machine::Workload as Population;
use semperos::{Machine, MicroMachine};

use crate::inputs::{self, Edge, EdgeKind, ForestInput, TreeSpec};
use crate::spans::Recorder;

pub const NGINX_SERVERS: u16 = 256;
pub const NGINX_LOADGENS: u16 = 16;
pub const NGINX_DEPTH: u32 = 4;
/// The timed section serves a fixed number of requests (what Figure 10's
/// OS-bound corner completes in about 80 M cycles), so two commits run
/// the same work; it advances in windows to observe throughput over time.
pub const NGINX_REQUESTS: u64 = 72_000;
pub const NGINX_WINDOW_CYCLES: u64 = 100_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    AppsMix512,
    Nginx256,
    ExchangeChurn,
    RevokeTeardown,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AppsMix512,
        Workload::Nginx256,
        Workload::ExchangeChurn,
        Workload::RevokeTeardown,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AppsMix512 => "apps_mix_512",
            Workload::Nginx256 => "nginx_256_8k8s",
            Workload::ExchangeChurn => "exchange_churn",
            Workload::RevokeTeardown => "revoke_teardown",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one simulated operation is, for `sim_ops_per_sec`.
    pub fn op_unit(self) -> &'static str {
        match self {
            Workload::AppsMix512 => "capability ops",
            Workload::Nginx256 => "requests",
            Workload::ExchangeChurn => "exchange syscalls",
            Workload::RevokeTeardown => "capabilities deleted",
        }
    }

    /// What `sim_op_p50_cycles` / `sim_op_p95_cycles` are taken over.
    pub fn latency_unit(self) -> &'static str {
        match self {
            Workload::AppsMix512 => "per-instance runtime, n = 512",
            Workload::Nginx256 => {
                "per-window mean request latency by Little's law (1024 outstanding / window throughput)"
            }
            Workload::ExchangeChurn => "per-call latency, n = 200 000",
            Workload::RevokeTeardown => "per-root revoke time, n = 48",
        }
    }

    /// Operations a repetition attempts; a panicking repetition counts
    /// all of them as failed.
    fn nominal_ops(self) -> u64 {
        match self {
            Workload::AppsMix512 => inputs::APPS_INSTANCES as u64,
            Workload::Nginx256 => NGINX_REQUESTS,
            Workload::ExchangeChurn => {
                (inputs::EXCHANGE_ROUNDS * (1 + inputs::EXCHANGE_CALLS_PER_ROUND)) as u64
            }
            Workload::RevokeTeardown => 60_000 + 48,
        }
    }

    /// Digest of the inputs generated from `seed`.
    pub fn inputs_digest(self, seed: u64) -> u64 {
        inputs::digest(&match self {
            Workload::AppsMix512 => inputs::gen_apps(seed).encode(),
            Workload::Nginx256 => inputs::gen_nginx_warmup_cycles(seed).to_le_bytes().to_vec(),
            Workload::ExchangeChurn => inputs::gen_exchange(seed).encode(),
            Workload::RevokeTeardown => inputs::gen_forest(seed).encode(),
        })
    }

    pub fn apps_config() -> MachineConfig {
        MachineConfig::paper_testbed(32, 32)
    }

    pub fn nginx_config() -> MachineConfig {
        MachineConfig::paper_testbed(8, 8)
    }
}

/// Kernel counters over the timed section, summed over kernels.
#[derive(Default, Clone, PartialEq, Debug)]
pub struct Counters {
    pub syscalls: u64,
    pub dispatches: u64,
    pub kcalls: u64,
    pub credit_stalls: u64,
    pub max_pending_ops: u64,
    pub busy_sum: u64,
    pub busy_max: u64,
    pub caps_created: u64,
    pub caps_deleted: u64,
    pub exchanges_local: u64,
    pub exchanges_spanning: u64,
    pub revokes_local: u64,
    pub revokes_spanning: u64,
    pub sessions: u64,
}

impl Counters {
    fn between(before: &[KernelStats], after: &[KernelStats]) -> Counters {
        let mut c = Counters::default();
        for (b, a) in before.iter().zip(after) {
            c.syscalls += a.syscalls - b.syscalls;
            c.dispatches += a.handler_dispatches - b.handler_dispatches;
            c.kcalls += a.kcalls_out - b.kcalls_out;
            c.credit_stalls += a.kcalls_credit_stalled - b.kcalls_credit_stalled;
            c.max_pending_ops = c.max_pending_ops.max(a.max_pending_ops);
            let busy = a.busy_cycles - b.busy_cycles;
            c.busy_sum += busy;
            c.busy_max = c.busy_max.max(busy);
            c.caps_created += a.caps_created - b.caps_created;
            c.caps_deleted += a.caps_deleted - b.caps_deleted;
            c.exchanges_local += a.exchanges_local - b.exchanges_local;
            c.exchanges_spanning += a.exchanges_spanning - b.exchanges_spanning;
            c.revokes_local += a.revokes_local - b.revokes_local;
            c.revokes_spanning += a.revokes_spanning - b.revokes_spanning;
            c.sessions += a.sessions_opened - b.sessions_opened;
        }
        c
    }

    pub fn cap_ops(&self) -> u64 {
        self.exchanges_local
            + self.exchanges_spanning
            + self.revokes_local
            + self.revokes_spanning
            + self.sessions
    }
}

/// What a repetition produced on the simulated clock. Deterministic:
/// every repetition of one invocation must produce an equal `Outcome`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Outcome {
    /// Simulated cycles of the timed section.
    pub makespan: u64,
    /// Operations completed in the timed section (see `op_unit`).
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-operation simulated latencies (see `latency_unit`).
    pub op_cycles: Vec<u64>,
    /// Events the machine processed in the timed section.
    pub events: u64,
    pub counters: Counters,
    pub kernels: u64,
    /// Capabilities in all mapping databases, the largest value seen at
    /// the points the public API lets the benchmark look.
    pub peak_caps: u64,
    /// Violated checks, empty when the repetition is correct.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn ops_per_sim_sec(&self) -> f64 {
        self.ops as f64 / Cycles(self.makespan).as_secs()
    }

    /// Nearest-rank 50th and 95th percentile of the per-operation
    /// latencies; NaN when the repetition produced none.
    pub fn op_p50_p95(&self) -> (f64, f64) {
        let mut v = self.op_cycles.clone();
        v.sort_unstable();
        let at = |p: f64| match v.len() {
            0 => f64::NAN,
            n => v[((p * n as f64).ceil() as usize).clamp(1, n) - 1] as f64,
        };
        (at(0.50), at(0.95))
    }
}

/// One repetition on both clocks.
#[derive(Default)]
pub struct Rep {
    /// Host seconds of set-up: input generation, machine build, boot
    /// (plus nginx warm-up, plus the forest build of `revoke_teardown`).
    pub setup_s: f64,
    /// Host seconds of the timed section.
    pub run_s: f64,
    pub gen_s: f64,
    pub build_s: f64,
    pub boot_s: f64,
    pub outcome: Outcome,
}

fn total_caps(m: &Machine, kernels: u16) -> u64 {
    (0..kernels).map(|k| m.kernel(KernelId(k)).mapdb().len() as u64).sum()
}

/// Runs one repetition. A panic inside the simulator (a failed client,
/// a broken invariant) is a failed repetition, not a dead benchmark.
pub fn run_rep(w: Workload, seed: u64, rec: &mut Recorder) -> Rep {
    let result = catch_unwind(AssertUnwindSafe(|| match w {
        Workload::AppsMix512 => apps_rep(seed, rec),
        Workload::Nginx256 => nginx_rep(seed, rec),
        Workload::ExchangeChurn => exchange_rep(seed, rec),
        Workload::RevokeTeardown => revoke_rep(seed, rec),
    }));
    result.unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Rep {
            outcome: Outcome {
                attempted: w.nominal_ops(),
                failed: w.nominal_ops(),
                problems: vec![format!("repetition panicked: {what}")],
                ..Outcome::default()
            },
            ..Rep::default()
        }
    })
}

/// `Machine::check_invariants` panics on a violation; turn that into a
/// recorded problem.
fn invariants(m: &Machine, rec: &mut Recorder, problems: &mut Vec<String>) {
    let (ok, _) = rec.time("check", || catch_unwind(AssertUnwindSafe(|| m.check_invariants())));
    if ok.is_err() {
        problems.push("Machine::check_invariants failed".to_string());
    }
}

// ----- apps_mix_512 ----------------------------------------------------------

fn apps_rep(seed: u64, rec: &mut Recorder) -> Rep {
    let cfg = Workload::apps_config();
    let kernels = cfg.kernels;
    let setup = rec.begin("setup");
    let (input, gen_in_s) = rec.time("gen_inputs", || inputs::gen_apps(seed));
    let (traces, trace_s) = rec.time("apps.trace_gen", || {
        input.instances.iter().map(|(kind, n)| kind.trace(*n)).collect::<Vec<_>>()
    });
    let (mut m, build_s) = rec.time("core.build", || {
        Machine::build(cfg, inputs::APPS_INSTANCES, 0, Population::Apps(traces))
    });
    let (_, boot_s) = rec.time("core.boot", || m.boot_os());
    let setup_s = rec.end(setup);

    let caps_before = total_caps(&m, kernels);
    let stats_before = m.kernel_stats();
    let events_before = m.events();
    let (base, run_s) = rec.time("core.run", || {
        let base = m.start_clients();
        m.run_until_idle();
        base
    });

    let mut problems = Vec::new();
    invariants(&m, rec, &mut problems);
    let mut op_cycles = Vec::new();
    let mut failed = 0;
    for (client, (start, end)) in m.client_times() {
        match end {
            Some(end) => op_cycles.push((*end - *start).0),
            None => {
                failed += 1;
                problems.push(format!("client {client} not Done"));
            }
        }
    }
    let counters = Counters::between(&stats_before, &m.kernel_stats());
    Rep {
        setup_s,
        run_s,
        gen_s: gen_in_s + trace_s,
        build_s,
        boot_s,
        outcome: Outcome {
            makespan: (m.now() - base).0,
            ops: counters.cap_ops(),
            attempted: inputs::APPS_INSTANCES as u64,
            failed,
            op_cycles,
            events: m.events() - events_before,
            kernels: kernels as u64,
            peak_caps: caps_before.max(total_caps(&m, kernels)),
            counters,
            problems,
        },
    }
}

/// Mean single-instance runtime of each application on the workload's
/// machine: the t1 of parallel efficiency.
pub fn apps_single_instance_means() -> [f64; 6] {
    let cfg = Workload::apps_config();
    AppKind::ALL.map(|app| semperos::experiment::run_app_instances(&cfg, app, 1).mean_duration())
}

/// Mean over instances of t1(app) / t512(instance), in percent.
pub fn apps_parallel_efficiency(seed: u64, outcome: &Outcome, t1: &[f64; 6]) -> f64 {
    let input = inputs::gen_apps(seed);
    let sum: f64 = input
        .instances
        .iter()
        .zip(&outcome.op_cycles)
        .map(|((kind, _), tn)| t1[*kind as usize] / *tn as f64)
        .sum();
    100.0 * sum / outcome.op_cycles.len() as f64
}

// ----- nginx_256_8k8s --------------------------------------------------------

fn nginx_rep(seed: u64, rec: &mut Recorder) -> Rep {
    let cfg = Workload::nginx_config();
    let kernels = cfg.kernels;
    let setup = rec.begin("setup");
    let (warmup_cycles, gen_s) = rec.time("gen_inputs", || inputs::gen_nginx_warmup_cycles(seed));
    let (mut m, build_s) = rec.time("core.build", || {
        Machine::build(
            cfg,
            NGINX_SERVERS as u32,
            NGINX_LOADGENS,
            Population::Nginx { depth: NGINX_DEPTH },
        )
    });
    let (_, boot_s) = rec.time("core.boot", || {
        m.boot_os();
        m.start_nginx();
    });
    let (_, _) = rec.time("core.warmup", || {
        let t0 = m.now();
        m.run_until(t0 + warmup_cycles);
    });
    let setup_s = rec.end(setup);

    let stats_before = m.kernel_stats();
    let events_before = m.events();
    let done_before = m.loadgen_completed();
    let start = m.now();
    let outstanding = NGINX_SERVERS as u64 * NGINX_DEPTH as u64;
    let mut op_cycles = Vec::new();
    let mut peak_caps = total_caps(&m, kernels);
    let (windows, run_s) = rec.time("core.run", || {
        let mut horizon = start;
        let mut done = done_before;
        let mut windows = 0u64;
        // Bounded: a machine that serves nothing must not hang the run.
        while done - done_before < NGINX_REQUESTS && windows < 100_000 {
            horizon = m.advance_until(horizon + NGINX_WINDOW_CYCLES);
            windows += 1;
            let now_done = m.loadgen_completed();
            op_cycles.push(outstanding * NGINX_WINDOW_CYCLES / (now_done - done).max(1));
            done = now_done;
            peak_caps = peak_caps.max(total_caps(&m, kernels));
        }
        windows
    });
    let completed = m.loadgen_completed() - done_before;

    let mut problems = Vec::new();
    invariants(&m, rec, &mut problems);
    if completed < NGINX_REQUESTS {
        problems.push(format!("only {completed} of {NGINX_REQUESTS} requests completed"));
    }
    let counters = Counters::between(&stats_before, &m.kernel_stats());
    Rep {
        setup_s,
        run_s,
        gen_s,
        build_s,
        boot_s,
        outcome: Outcome {
            makespan: windows * NGINX_WINDOW_CYCLES,
            ops: completed,
            attempted: completed.max(NGINX_REQUESTS),
            failed: NGINX_REQUESTS.saturating_sub(completed),
            op_cycles,
            events: m.events() - events_before,
            kernels: kernels as u64,
            peak_caps,
            counters,
            problems,
        },
    }
}

// ----- exchange_churn and revoke_teardown ------------------------------------

/// Counts checked system calls.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| format!("{what}: {e}"));
                None
            }
        }
    }
}

fn micro_machine(rec: &mut Recorder) -> (MicroMachine, f64) {
    rec.time("core.build", || {
        MicroMachine::new(inputs::MICRO_KERNELS, inputs::MICRO_VPES_PER_GROUP, KernelMode::SemperOS)
    })
}

fn create_root(m: &mut Machine, owner: u16, tally: &mut Tally) -> CapSel {
    let (reply, _) =
        m.syscall_blocking(VpeId(owner), Syscall::CreateMem { size: 4096, perms: Perms::RW });
    let result = match reply.result {
        Ok(SysReplyData::Mem { sel, .. }) => Ok(sel),
        other => Err(format!("{other:?}")),
    };
    tally.record("create_mem", result).unwrap_or(CapSel::INVALID)
}

/// The system call that gives `to` a child of `holder`'s capability,
/// and the VPE that issues it.
pub fn exchange_call(holder: (VpeId, CapSel), to: VpeId, kind: EdgeKind) -> (VpeId, Syscall) {
    match kind {
        EdgeKind::Obtain => (
            to,
            Syscall::Exchange {
                other: holder.0,
                own_sel: CapSel::INVALID,
                other_sel: holder.1,
                kind: ExchangeKind::Obtain,
            },
        ),
        EdgeKind::Delegate => (
            holder.0,
            Syscall::Exchange {
                other: to,
                own_sel: holder.1,
                other_sel: CapSel::INVALID,
                kind: ExchangeKind::Delegate,
            },
        ),
    }
}

/// The new capability's selector from the reply to [`exchange_call`].
pub fn exchanged_sel(reply: SysReply) -> Result<CapSel, String> {
    match reply.result {
        Ok(SysReplyData::Sel(sel)) | Ok(SysReplyData::Delegated { recv_sel: sel }) => Ok(sel),
        other => Err(format!("{other:?}")),
    }
}

/// Performs one exchange; returns the new capability's selector and the
/// call's round-trip cycles.
fn exchange(m: &mut Machine, holder: (u16, CapSel), e: &Edge, tally: &mut Tally) -> (CapSel, u64) {
    let (caller, call) = exchange_call((VpeId(holder.0), holder.1), VpeId(e.to), e.kind);
    let (reply, cycles) = m.syscall_blocking(caller, call);
    (tally.record("exchange", exchanged_sel(reply)).unwrap_or(CapSel::INVALID), cycles)
}

/// Grows `tree` below its root; appends each call's cycles to `cycles`.
fn grow(m: &mut Machine, tree: &TreeSpec, root: CapSel, cycles: &mut Vec<u64>, tally: &mut Tally) {
    let mut caps: Vec<(u16, CapSel)> = Vec::with_capacity(1 + tree.edges.len());
    caps.push((tree.root_owner, root));
    for e in &tree.edges {
        let (sel, c) = exchange(m, caps[e.parent as usize], e, tally);
        caps.push((e.to, sel));
        cycles.push(c);
    }
}

fn create_roots(m: &mut Machine, input: &ForestInput, tally: &mut Tally) -> Vec<CapSel> {
    input.trees.iter().map(|t| create_root(m, t.root_owner, tally)).collect()
}

fn exchange_rep(seed: u64, rec: &mut Recorder) -> Rep {
    let kernels = inputs::MICRO_KERNELS;
    let mut tally = Tally::default();
    let setup = rec.begin("setup");
    let (input, gen_s) = rec.time("gen_inputs", || inputs::gen_exchange(seed));
    let (mut mm, build_s) = micro_machine(rec);
    let m = mm.machine();
    let caps_empty = total_caps(m, kernels);
    let roots = create_roots(m, &input, &mut tally);
    let setup_s = rec.end(setup);

    let stats_before = m.kernel_stats();
    let events_before = m.events();
    let start = m.now();
    let mut op_cycles = Vec::with_capacity(input.exchanges());
    let (_, run_s) = rec.time("core.run", || {
        for (tree, root) in input.trees.iter().zip(&roots) {
            grow(m, tree, *root, &mut op_cycles, &mut tally);
        }
    });
    let makespan = (m.now() - start).0;

    let mut problems = Vec::new();
    invariants(m, rec, &mut problems);
    let caps_now = total_caps(m, kernels);
    if caps_now != caps_empty + input.caps() as u64 {
        problems.push(format!(
            "{caps_now} capabilities after the churn, expected {}",
            caps_empty + input.caps() as u64
        ));
    }
    problems.extend(tally.first_error.take());
    let counters = Counters::between(&stats_before, &m.kernel_stats());
    Rep {
        setup_s,
        run_s,
        gen_s,
        build_s,
        boot_s: 0.0,
        outcome: Outcome {
            makespan,
            ops: op_cycles.len() as u64,
            attempted: tally.attempted,
            failed: tally.failed,
            op_cycles,
            events: m.events() - events_before,
            kernels: kernels as u64,
            peak_caps: caps_now,
            counters,
            problems,
        },
    }
}

fn revoke_rep(seed: u64, rec: &mut Recorder) -> Rep {
    let kernels = inputs::MICRO_KERNELS;
    let mut tally = Tally::default();
    let setup = rec.begin("setup");
    let (input, gen_s) = rec.time("gen_inputs", || inputs::gen_forest(seed));
    let (mut mm, build_s) = micro_machine(rec);
    let m = mm.machine();
    let caps_empty = total_caps(m, kernels);
    let (roots, _) = rec.time("core.build_forest", || {
        let roots = create_roots(m, &input, &mut tally);
        let mut unused = Vec::new();
        for (tree, root) in input.trees.iter().zip(&roots) {
            grow(m, tree, *root, &mut unused, &mut tally);
        }
        roots
    });
    let setup_s = rec.end(setup);

    let peak_caps = total_caps(m, kernels);
    let stats_before = m.kernel_stats();
    let events_before = m.events();
    let start = m.now();
    let mut op_cycles = Vec::with_capacity(roots.len());
    let (_, run_s) = rec.time("core.run", || {
        for (tree, root) in input.trees.iter().zip(&roots) {
            let (reply, cycles) = m.syscall_blocking(
                VpeId(tree.root_owner),
                Syscall::Revoke { sel: *root, own: true },
            );
            tally.record("revoke", reply.result.map_err(|e| format!("{e:?}")));
            op_cycles.push(cycles);
        }
    });
    let makespan = (m.now() - start).0;

    let mut problems = Vec::new();
    invariants(m, rec, &mut problems);
    let caps_now = total_caps(m, kernels);
    if caps_now != caps_empty {
        problems
            .push(format!("{caps_now} capabilities left after teardown, expected {caps_empty}"));
    }
    problems.extend(tally.first_error.take());
    let counters = Counters::between(&stats_before, &m.kernel_stats());
    Rep {
        setup_s,
        run_s,
        gen_s,
        build_s,
        boot_s: 0.0,
        outcome: Outcome {
            makespan,
            ops: counters.caps_deleted,
            attempted: tally.attempted,
            failed: tally.failed,
            op_cycles,
            events: m.events() - events_before,
            kernels: kernels as u64,
            peak_caps,
            counters,
            problems,
        },
    }
}
