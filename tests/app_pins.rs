//! Cycle pins of application replay.
//!
//! Each of the six applications runs `INSTANCES` replaying instances on
//! a small 4-kernel/2-service machine (half the clients open
//! cross-group sessions), and a few webservers serve closed-loop load
//! for a fixed window. Every deterministic output of each run is
//! compared with `tests/goldens/app_replay.txt`: the makespan, events,
//! capability operations, the sum and the maximum of the per-instance
//! durations (served requests for the webservers), and the kernels'
//! counters summed over kernels.
//!
//! No run's intake rule refuses a send: every message an actor sends is
//! one it may send.
//!
//! A mismatch prints the expected and the actual line in the golden's
//! own format. After an intentional cost-model or protocol change,
//! paste the actual lines over the expected ones and say so in
//! CHANGES.md. Anything else that moves a line is a regression.

use semper_apps::AppKind;
use semper_base::MachineConfig;
use semper_kernel::KernelStats;
use semperos::experiment::run_app_instances;
use semperos::{Machine, Workload};

/// Replaying instances per application.
const INSTANCES: u32 = 8;

/// The machine every run uses: 4 kernels and 2 m3fs instances.
fn config() -> MachineConfig {
    let mut cfg = MachineConfig::small();
    cfg.num_pes = 24;
    cfg.kernels = 4;
    cfg.services = 2;
    cfg.mesh_width = semper_base::config::mesh_width_for(cfg.num_pes);
    cfg
}

/// `name=value` pairs of the kernels' counters, summed over kernels.
fn kernel_fields(stats: &[KernelStats]) -> Vec<(&'static str, u64)> {
    let sum = |f: fn(&KernelStats) -> u64| stats.iter().map(f).sum::<u64>();
    vec![
        ("syscalls", sum(|s| s.syscalls)),
        ("kcalls", sum(|s| s.kcalls_out)),
        ("exchanges_local", sum(|s| s.exchanges_local)),
        ("exchanges_spanning", sum(|s| s.exchanges_spanning)),
        ("revokes_local", sum(|s| s.revokes_local)),
        ("revokes_spanning", sum(|s| s.revokes_spanning)),
        ("caps_created", sum(|s| s.caps_created)),
        ("caps_deleted", sum(|s| s.caps_deleted)),
        ("sessions", sum(|s| s.sessions_opened)),
        ("busy_cycles", sum(|s| s.busy_cycles)),
        ("max_pending_ops", sum(|s| s.max_pending_ops)),
        ("credit_stalls", sum(|s| s.kcalls_credit_stalled)),
        ("eps_invalidated", sum(|s| s.eps_invalidated)),
        ("dispatches", sum(|s| s.handler_dispatches)),
    ]
}

fn line(name: &str, fields: &[(&str, u64)]) -> String {
    let mut line = format!("name={name}");
    for (k, v) in fields {
        line.push_str(&format!(" {k}={v}"));
    }
    line
}

/// One application's run.
fn app_line(app: AppKind) -> String {
    // The run asserts that its intake rule refused no send.
    let res = run_app_instances(&config(), app, INSTANCES);
    let mut fields = vec![
        ("makespan", res.makespan),
        ("events", res.events),
        ("cap_ops", res.cap_ops),
        ("duration_sum", res.durations.iter().sum()),
        ("duration_max", res.durations.iter().copied().max().unwrap_or(0)),
    ];
    fields.extend(kernel_fields(&res.kernel_stats));
    line(app.name(), &fields)
}

/// Four webservers, one load generator with two requests outstanding
/// per server, 500 000 cycles of warm-up and 1 500 000 measured.
fn webserver_line() -> String {
    let mut m = Machine::build(config(), 4, 1, Workload::Nginx { depth: 2 });
    m.boot_os();
    m.start_nginx();
    let t0 = m.now();
    m.run_until(t0 + 500_000);
    let before = m.loadgen_completed();
    m.run_until(t0 + 2_000_000);
    m.check_invariants();
    assert_eq!(m.refused_sends(), 0, "the intake rule refused a legitimate send");
    let stats = m.kernel_stats();
    let cap_ops = stats.iter().map(|s| s.cap_ops() + s.sessions_opened).sum();
    let mut fields = vec![
        ("makespan", m.now().0),
        ("events", m.events()),
        ("cap_ops", cap_ops),
        ("warmup_served", before),
        ("served", m.loadgen_completed()),
    ];
    fields.extend(kernel_fields(&stats));
    line("webserver", &fields)
}

#[test]
fn app_replay_matches_golden() {
    let mut actual: Vec<String> = AppKind::ALL.into_iter().map(app_line).collect();
    actual.push(webserver_line());
    let expected: Vec<&str> = include_str!("goldens/app_replay.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();

    let mut report = String::new();
    for i in 0..expected.len().max(actual.len()) {
        let (e, a) = (expected.get(i).copied(), actual.get(i).map(String::as_str));
        if e != a {
            report.push_str(&format!(
                "expected: {}\n  actual: {}\n",
                e.unwrap_or("(no line)"),
                a.unwrap_or("(no line)")
            ));
        }
    }
    assert!(
        report.is_empty(),
        "application replay differs from tests/goldens/app_replay.txt:\n{report}\
         If a cost-model or protocol change moved it on purpose, paste the actual \
         lines over the expected ones and say so in CHANGES.md."
    );
}
