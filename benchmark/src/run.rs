//! One workload, one process: repetitions, correctness checks, metrics.
//!
//! The untraced run yields the end-to-end metrics; the traced run keeps
//! spans, runs the layer probes and yields the per-layer metrics.

use std::path::PathBuf;
use std::time::Instant;

use semper_apps::AppKind;
use semper_base::KernelMode;
use semperos::experiment::run_app_instances;
use semperos::MicroMachine;

use crate::json::Value;
use crate::metrics::{self, Clock};
use crate::probes::{self, RepTimes};
use crate::spans::Recorder;
use crate::stats::{quiet, Spread};
use crate::workloads::{self, Outcome, Rep, Workload};

/// How long a run measures.
#[derive(Clone, Copy, Debug)]
pub enum Length {
    /// A fixed number of timed repetitions: both commits run the same
    /// work (the benchmark's own full mode).
    Reps(usize),
    /// Repetitions until this many host seconds have passed, at least
    /// three (the driver's `--seconds`).
    Seconds(f64),
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub length: Length,
    pub trace: bool,
}

/// Where result and trace files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A paper value this workload can be checked against.
struct Anchor {
    name: &'static str,
    measured: f64,
    paper: f64,
}

/// Fixed, unseeded anchor measurements, run once per invocation. nginx
/// has no published absolute value: the model is unvalidated there.
fn anchors(w: Workload, t1: Option<&[f64; 6]>) -> Vec<Anchor> {
    let table3 = |name, paper, f: fn(&mut MicroMachine) -> u64| Anchor {
        name,
        measured: f(&mut MicroMachine::new(2, 2, KernelMode::SemperOS)) as f64,
        paper,
    };
    match w {
        Workload::AppsMix512 => {
            let cfg = Workload::apps_config();
            let t1 = t1.expect("apps anchors need the single-instance runtimes");
            let fig6 = |name, app: AppKind, paper| Anchor {
                name,
                measured: 100.0 * t1[app as usize]
                    / run_app_instances(&cfg, app, 512).mean_duration(),
                paper,
            };
            vec![
                fig6("fig6_tar_512_efficiency_pct", AppKind::Tar, 78.0),
                fig6("fig6_sqlite_512_efficiency_pct", AppKind::Sqlite, 70.0),
            ]
        }
        Workload::Nginx256 => Vec::new(),
        Workload::ExchangeChurn => vec![
            table3("table3_exchange_local_cycles", 3597.0, |m| m.measure_exchange_local()),
            table3("table3_exchange_spanning_cycles", 6484.0, |m| m.measure_exchange_spanning()),
        ],
        Workload::RevokeTeardown => vec![
            table3("table3_revoke_local_cycles", 1997.0, |m| m.measure_revoke_local()),
            table3("table3_revoke_spanning_cycles", 3876.0, |m| m.measure_revoke_spanning()),
        ],
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(f64::NAN);
    kib / 1024.0
}

/// The result of one run of one workload.
pub struct RunResult {
    pub workload: Workload,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The contract's metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Everything else worth recording, for `benchmark/out/`.
    pub detail: Value,
}

impl RunResult {
    /// The one-line object the driver reads.
    pub fn contract_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(name, unit, value)| {
                    (
                        *name,
                        Value::obj([("value", Value::from(*value)), ("unit", Value::from(*unit))]),
                    )
                })),
            ),
        ])
    }
}

struct Reps {
    reps: Vec<Rep>,
    first: Outcome,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// In a traced run every other repetition keeps its spans.
fn keeps_spans(rep: usize) -> bool {
    rep.is_multiple_of(2)
}

impl Reps {
    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && !self.first.op_cycles.is_empty()
    }

    fn problems_json(&self) -> Value {
        Value::Arr(self.problems.iter().map(|p| Value::from(p.as_str())).collect())
    }
}

/// Runs one untimed warm-up, then repetitions until `budget` is used. A
/// traced run keeps spans on every other repetition.
fn repeat(opts: &Options, rec: &mut Recorder, budget: Length) -> Reps {
    let w = opts.workload;
    rec.keep = false;
    let warmup = workloads::run_rep(w, opts.seed, rec);
    let first = warmup.outcome;
    let mut out = Reps {
        reps: Vec::new(),
        problems: first.problems.clone(),
        attempted: first.attempted,
        failed: first.failed,
        first,
    };
    let started = Instant::now();
    let more = |done: usize| match budget {
        Length::Reps(n) => done < n,
        Length::Seconds(s) => done < 3 || started.elapsed().as_secs_f64() < s,
    };
    while more(out.reps.len()) {
        let i = out.reps.len();
        rec.keep = opts.trace && keeps_spans(i);
        rec.rep = i as u32 + 1;
        let rep = workloads::run_rep(w, opts.seed, rec);
        out.attempted += rep.outcome.attempted;
        out.failed += rep.outcome.failed;
        // The determinism self-check: the simulated side of every
        // repetition must equal the first one's, bit for bit.
        if rep.outcome != out.first && out.problems.is_empty() {
            out.problems.extend(rep.outcome.problems.first().cloned());
            out.problems.push(format!(
                "repetition {} differs from the warm-up on the simulated clock",
                i + 1
            ));
        }
        out.reps.push(rep);
    }
    rec.keep = opts.trace;
    out
}

fn sim_json(w: Workload, o: &Outcome) -> Value {
    let c = &o.counters;
    let (p50, p95) = o.op_p50_p95();
    Value::obj([
        ("sim_makespan_cycles", Value::from(o.makespan)),
        ("sim_ops", Value::from(o.ops)),
        ("sim_ops_unit", Value::from(w.op_unit())),
        ("sim_ops_per_sec", Value::from(o.ops_per_sim_sec())),
        ("sim_op_p50_cycles", Value::from(p50)),
        ("sim_op_p95_cycles", Value::from(p95)),
        ("sim_op_unit", Value::from(w.latency_unit())),
        ("events", Value::from(o.events)),
        ("peak_caps", Value::from(o.peak_caps)),
        ("syscalls", Value::from(c.syscalls)),
        ("kernel_dispatches", Value::from(c.dispatches)),
        ("kcalls", Value::from(c.kcalls)),
        ("credit_stalls", Value::from(c.credit_stalls)),
        ("max_pending_ops", Value::from(c.max_pending_ops)),
        ("caps_created", Value::from(c.caps_created)),
        ("caps_deleted", Value::from(c.caps_deleted)),
        ("exchanges_local", Value::from(c.exchanges_local)),
        ("exchanges_spanning", Value::from(c.exchanges_spanning)),
        ("revokes_local", Value::from(c.revokes_local)),
        ("revokes_spanning", Value::from(c.revokes_spanning)),
    ])
}

fn head(opts: &Options, reps: usize) -> Vec<(&'static str, Value)> {
    vec![
        ("workload", Value::from(opts.workload.name())),
        ("seed", Value::from(opts.seed)),
        // As a string: a 64-bit digest does not fit a JSON number.
        ("inputs_digest", Value::Str(format!("{:016x}", opts.workload.inputs_digest(opts.seed)))),
        ("trace", Value::Bool(opts.trace)),
        ("reps", Value::from(reps as u64)),
    ]
}

/// The untraced run: end-to-end metrics on both clocks.
fn run_untraced(opts: &Options) -> RunResult {
    let w = opts.workload;
    let mut rec = Recorder::new(false);
    let t1 = (w == Workload::AppsMix512).then(workloads::apps_single_instance_means);
    let anchors = anchors(w, t1.as_ref());
    let r = repeat(opts, &mut rec, opts.length);
    let o = &r.first;
    let correct = r.correct();

    let setup_s: Vec<f64> = r.reps.iter().map(|r| r.setup_s).collect();
    let run_ms: Vec<f64> = r.reps.iter().map(|r| r.run_s * 1e3).collect();
    let (setup, run) = (Spread::of(&setup_s), Spread::of(&run_ms));
    let rss = peak_rss_mib();
    let (p50, p95) = o.op_p50_p95();
    let values = [setup.quiet, run.quiet, rss, o.makespan as f64, o.ops_per_sim_sec(), p50, p95];
    let metrics: Vec<_> =
        metrics::END_TO_END.iter().zip(values).map(|(m, v)| (m.name, m.unit, v)).collect();

    // Metrics only some workloads have: absent, never zero, elsewhere.
    let mut specific = Vec::new();
    if let Some(t1) = &t1 {
        let eff = workloads::apps_parallel_efficiency(opts.seed, o, t1);
        specific.push(("parallel_efficiency_pct", Value::from(eff)));
    }
    if !anchors.is_empty() {
        let err: f64 = anchors.iter().map(|a| (a.measured - a.paper).abs() / a.paper).sum();
        specific.push(("paper_err_pct", Value::from(100.0 * err / anchors.len() as f64)));
    }
    specific.push(("ops_failed_share", Value::from(r.failed as f64 / r.attempted.max(1) as f64)));

    let mut detail = head(opts, r.reps.len());
    detail.extend([
        ("correct", Value::Bool(correct)),
        ("problems", r.problems_json()),
        ("attempted", Value::from(r.attempted)),
        ("failed", Value::from(r.failed)),
        (
            "host",
            Value::obj([
                ("setup_s", setup.to_json()),
                ("host_run_ms", run.to_json()),
                ("host_peak_rss_mb", Value::from(rss)),
            ]),
        ),
        ("sim", sim_json(w, o)),
        ("workload_specific", Value::obj(specific)),
        (
            "paper_anchors",
            Value::Arr(
                anchors
                    .iter()
                    .map(|a| {
                        Value::obj([
                            ("name", Value::from(a.name)),
                            ("measured", Value::from(a.measured)),
                            ("paper", Value::from(a.paper)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("samples", Value::obj([("host_run_ms", nums(&run_ms)), ("setup_s", nums(&setup_s))])),
    ]);
    RunResult {
        workload: w,
        correct,
        attempted: r.attempted,
        failed: r.failed,
        metrics,
        detail: Value::obj(detail),
    }
}

fn nums(v: &[f64]) -> Value {
    Value::Arr(v.iter().map(|x| Value::from(*x)).collect())
}

/// The traced run: spans around every call into a layer, the layer
/// probes, and the per-layer metrics. Repetitions alternate between
/// keeping spans and not, and the difference of their quiet times is the
/// tracing overhead.
fn run_traced(opts: &Options) -> RunResult {
    let w = opts.workload;
    let mut rec = Recorder::new(true);
    // Two fifths of a timed budget go to the repetitions, the rest to
    // the probes.
    let budget = match opts.length {
        Length::Reps(n) => Length::Reps(2 * n),
        Length::Seconds(s) => Length::Seconds(s * 0.4),
    };
    let r = repeat(opts, &mut rec, budget);
    let o = &r.first;
    let correct = r.correct();

    let of = |traced: bool, f: fn(&Rep) -> f64| {
        let v: Vec<f64> = r
            .reps
            .iter()
            .enumerate()
            .filter(|(i, _)| keeps_spans(*i) == traced)
            .map(|(_, r)| f(r))
            .collect();
        quiet(&v)
    };
    let (on, off) = (of(true, |r| r.run_s), of(false, |r| r.run_s));
    let times = RepTimes {
        run_s: on,
        gen_s: of(true, |r| r.gen_s),
        build_s: of(true, |r| r.build_s),
        boot_s: of(true, |r| r.boot_s),
        trace_overhead_pct: 100.0 * (on - off) / off,
    };
    // The probes replay the run's counts; a failed run has none to trust.
    let layer =
        if correct { probes::per_layer(&mut rec, w, opts.seed, o, &times) } else { Vec::new() };
    let metrics: Vec<_> = metrics::PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = layer.iter().find(|(n, _)| n == name).map_or(f64::NAN, |(_, v)| *v);
            (*name, *unit, value)
        })
        .collect();

    let trace_path = out_dir().join(format!("trace-{}.json", w.name()));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&trace_path, rec.to_chrome_json(w.name())));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", trace_path.display());
    }

    let mut detail = head(opts, r.reps.len());
    detail.extend([
        ("correct", Value::Bool(correct)),
        ("problems", r.problems_json()),
        ("spans", Value::from(rec.spans().len() as u64)),
        ("per_layer", Value::obj(layer.iter().map(|(n, v)| (*n, Value::from(*v))))),
    ]);
    RunResult {
        workload: w,
        correct,
        attempted: r.attempted,
        failed: r.failed,
        metrics,
        detail: Value::obj(detail),
    }
}

pub fn run(opts: &Options) -> RunResult {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

/// Prints every metric of a run by name, with unit and clock.
pub fn print_human(result: &RunResult) {
    let w = result.workload;
    println!("workload {}", w.name());
    for (name, unit, value) in &result.metrics {
        let note = match metrics::find(name) {
            Some(m) => format!(
                "{} clock, {} is better",
                if m.clock == Clock::Host { "host" } else { "sim" },
                m.better.name()
            ),
            None => "layer".to_string(),
        };
        println!("  {name:<40} {value:>18.4} {unit:<7} [{note}]");
    }
    for (name, value) in result.detail.get("workload_specific").map_or(&[][..], |v| v.fields()) {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!("  {name:<40} {:>18.4} {unit:<7} [sim]", value.num().unwrap_or(f64::NAN));
    }
    for a in result.detail.get("paper_anchors").map_or(&[][..], |v| v.items()) {
        let get = |k| a.get(k).and_then(Value::num).unwrap_or(f64::NAN);
        println!(
            "  anchor {:<33} {:>18.4}         paper {} ({:+.1}%)",
            a.get("name").and_then(Value::str).unwrap_or("?"),
            get("measured"),
            get("paper"),
            100.0 * (get("measured") - get("paper")) / get("paper"),
        );
    }
    if result.detail.get("paper_anchors").is_some_and(|a| a.items().is_empty()) {
        println!("  (the paper publishes no absolute value for this workload: unvalidated here)");
    }
    for p in result.detail.get("problems").map_or(&[][..], |v| v.items()) {
        println!("  PROBLEM: {}", p.str().unwrap_or("?"));
    }
    println!(
        "  checks: {} ({} operations attempted, {} failed)",
        if result.correct { "passed" } else { "FAILED" },
        result.attempted,
        result.failed
    );
}
