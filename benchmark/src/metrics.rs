//! The benchmark's metric definitions: the one place that names every
//! metric, its unit, clock, direction and bound. `BENCHMARK.json` lists
//! the same names (a test keeps the two in step).

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Wall time or memory of the simulator process: noisy, taken from
    /// repeated samples (`stats::quiet`) and compared within a bound.
    Host,
    /// Simulated cycles and counts: deterministic for a given seed, so
    /// two commits compare exactly at equal seeds.
    Sim,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen across runs
    /// with *different* seeds before it counts as a regression. Simulated
    /// metrics additionally compare exactly at equal seeds (`--compare`).
    pub bound: f64,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> Metric {
    Metric { name, unit, clock, better, bound }
}

/// Every workload produces every one of these.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Clock::Host, Better::Lower, 0.25),
    m("host_run_ms", "ms", Clock::Host, Better::Lower, 0.25),
    m("host_peak_rss_mb", "MiB", Clock::Host, Better::Lower, 0.15),
    m("sim_makespan_cycles", "cycles", Clock::Sim, Better::Lower, 0.05),
    m("sim_ops_per_sec", "1/s", Clock::Sim, Better::Higher, 0.05),
    m("sim_op_p50_cycles", "cycles", Clock::Sim, Better::Lower, 0.05),
    m("sim_op_p95_cycles", "cycles", Clock::Sim, Better::Lower, 0.05),
];

/// End-to-end metrics only some workloads can produce; absent, never
/// zero, where a workload has none. They are recorded in the result
/// files and compared by `--compare`, but cannot be part of
/// `BENCHMARK.json`, whose metrics every workload must report. A bound
/// of 0 marks a metric no seed moves: it compares exactly always.
pub const WORKLOAD_SPECIFIC: &[Metric] = &[
    m("parallel_efficiency_pct", "%", Clock::Sim, Better::Higher, 0.05),
    m("paper_err_pct", "%", Clock::Sim, Better::Lower, 0.0),
    m("ops_failed_share", "ratio", Clock::Sim, Better::Lower, 0.0),
];

/// Per-layer metrics, from the traced run. No bounds: they explain an
/// end-to-end change, they do not gate one. A workload that does not
/// exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("sim.queue_ns_per_event", "ns", Better::Lower),
    ("sim.sched_ns_per_event", "ns", Better::Lower),
    ("sim.events_per_op", "count", Better::Lower),
    ("noc.route_ns", "ns", Better::Lower),
    ("noc.mean_hops", "count", Better::Lower),
    ("noc.wire_cycles_per_msg", "cycles", Better::Lower),
    ("caps.insert_ns_per_cap", "ns", Better::Lower),
    ("caps.delete_ns_per_cap", "ns", Better::Lower),
    ("caps.lookup_ns", "ns", Better::Lower),
    ("caps.peak_caps", "count", Better::Lower),
    ("kernel.syscall_ns", "ns", Better::Lower),
    ("kernel.dispatches_per_op", "count", Better::Lower),
    ("kernel.kcalls_per_op", "count", Better::Lower),
    ("kernel.credit_stalls", "count", Better::Lower),
    ("kernel.max_pending_ops", "count", Better::Lower),
    ("kernel.busy_share_mean", "ratio", Better::Lower),
    ("kernel.busy_share_max", "ratio", Better::Lower),
    ("kernel.exchange_local_p50_cycles", "cycles", Better::Lower),
    ("kernel.exchange_spanning_p50_cycles", "cycles", Better::Lower),
    ("kernel.revoke_local_cycles_per_cap", "cycles", Better::Lower),
    ("kernel.revoke_spanning_cycles_per_cap", "cycles", Better::Lower),
    ("m3fs.image_build_ms", "ms", Better::Lower),
    ("m3fs.extent_lookup_ns", "ns", Better::Lower),
    ("m3fs.meta_ns_per_event", "ns", Better::Lower),
    ("apps.trace_gen_ms", "ms", Better::Lower),
    ("apps.trace_ops_per_instance", "count", Better::Lower),
    ("core.build_ms", "ms", Better::Lower),
    ("core.boot_ms", "ms", Better::Lower),
    ("core.ns_per_event", "ns", Better::Lower),
    ("core.events_per_sec", "1/s", Better::Higher),
    ("base.msg_size_bytes", "count", Better::Lower),
    ("sim.host_share", "ratio", Better::Lower),
    ("noc.host_share", "ratio", Better::Lower),
    ("kernel.host_share", "ratio", Better::Lower),
    ("caps.host_share", "ratio", Better::Lower),
    ("core.unattributed_share", "ratio", Better::Lower),
    ("trace_overhead_pct", "%", Better::Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(WORKLOAD_SPECIFIC).find(|m| m.name == name)
}
