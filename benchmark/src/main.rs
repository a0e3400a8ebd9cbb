//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! semperos-benchmark [--seed N] [--reps N] [--quick]      every workload, results in benchmark/out/
//! semperos-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//! semperos-benchmark --compare a.json b.json              the benchmark's bounds applied to two result files
//! ```

mod compare;
mod inputs;
mod json;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use json::Value;
use run::{Length, Options};
use workloads::Workload;

const USAGE: &str =
    "usage: semperos-benchmark [--workload <name>] [--seed <n>] [--reps <n> | --seconds <s>] \
[--trace <0|1>] [--quick] | --compare <a.json> <b.json>";

/// Timed repetitions per workload of the full run, and of its traced
/// run (which runs as many again without spans).
const FULL_REPS: usize = 40;
const TRACED_REPS: usize = 5;
const QUICK_REPS: usize = 3;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    reps: Option<usize>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    compare: Option<(String, String)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        reps: None,
        seconds: None,
        trace: None,
        quick: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--reps" => {
                let n: usize = value()?.parse().map_err(|_| "--reps takes a whole number")?;
                if n == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
                cli.reps = Some(n);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--quick" => cli.quick = true,
            "--compare" => cli.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.quick {
        cli.reps.get_or_insert(QUICK_REPS);
    }
    if cli.reps.is_some() && cli.seconds.is_some() {
        return Err("give --reps (or --quick) or --seconds, not both".to_string());
    }
    Ok(cli)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload in this process. The last line of standard output is the
/// result object; the line before it carries the detail for result files.
fn run_one(cli: &Cli, workload: Workload) -> ExitCode {
    let trace = cli.trace.unwrap_or(false);
    let length = match (cli.seconds, cli.reps) {
        (Some(s), _) => Length::Seconds(s),
        (None, Some(reps)) => Length::Reps(reps),
        (None, None) => Length::Reps(if trace { TRACED_REPS } else { FULL_REPS }),
    };
    let opts = Options { workload, seed: cli.seed, length, trace };
    let result = run::run(&opts);
    run::print_human(&result);
    println!("DETAIL {}", result.detail);
    println!("{}", result.contract_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a child process (so peak memory is per workload)
/// and returns the detail it printed.
fn run_child(cli: &Cli, workload: Workload, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--seed", &cli.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(reps) = cli.reps {
        // The traced run repeats less: it exists for the layer numbers.
        let reps = if trace { reps.min(TRACED_REPS) } else { reps };
        cmd.args(["--reps", &reps.to_string()]);
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("cannot start the workload process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("DETAIL ") {
            Some(json) => detail = Some(Value::parse(json)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let detail = detail.ok_or_else(|| format!("{}: the run printed no result", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{}: checks failed ({})", workload.name(), output.status));
    }
    Ok(detail)
}

/// Every workload, untraced then traced (`--quick` skips the traced
/// run and with it the layer probes), each in its own process; the
/// results go to `benchmark/out/results-seed<N>.json`.
fn run_all(cli: &Cli) -> ExitCode {
    let mut entries = Vec::new();
    let mut failures = Vec::new();
    for w in Workload::ALL {
        println!("== {} (untraced: end-to-end metrics) ==", w.name());
        let untraced = run_child(cli, w, false);
        let traced = if cli.quick {
            Ok(Value::Null)
        } else {
            println!("== {} (traced: per-layer metrics) ==", w.name());
            run_child(cli, w, true)
        };
        match (untraced, traced) {
            (Ok(Value::Obj(mut fields)), Ok(traced)) => {
                fields.push(("traced".to_string(), traced));
                entries.push(Value::Obj(fields));
            }
            (a, b) => failures.extend([a.err(), b.err()].into_iter().flatten()),
        }
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    let file = Value::obj([
        ("benchmark", Value::from("semperos-benchmark")),
        ("seed", Value::from(cli.seed)),
        ("quick", Value::Bool(cli.quick)),
        ("workloads", Value::Arr(entries)),
    ]);
    let name = if cli.quick { "quick" } else { "results" };
    let path = run::out_dir().join(format!("{name}-seed{}.json", cli.seed));
    let written = std::fs::create_dir_all(run::out_dir())
        .and_then(|()| std::fs::write(&path, format!("{}\n", pretty(&file, 0))));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Objects one field per line down to the metric level, so result files
/// diff by metric; sample arrays stay on one line.
fn pretty(v: &Value, depth: usize) -> String {
    match v {
        Value::Obj(fields) if depth < 4 && !fields.is_empty() => {
            let pad = "  ".repeat(depth + 1);
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", Value::from(k.as_str()), pretty(v, depth + 1)))
                .collect();
            format!("{{\n{}\n{}}}", inner.join(",\n"), "  ".repeat(depth))
        }
        Value::Arr(items) if items.iter().any(|i| matches!(i, Value::Obj(_))) => {
            let pad = "  ".repeat(depth + 1);
            let inner: Vec<String> =
                items.iter().map(|i| format!("{pad}{}", pretty(i, depth + 1))).collect();
            format!("[\n{}\n{}]", inner.join(",\n"), "  ".repeat(depth))
        }
        other => other.to_string(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return match (read_json(a), read_json(b)) {
            (Ok(a), Ok(b)) => {
                let (report, holds) = compare::compare(&a, &b);
                print!("{report}");
                if holds {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    eprintln!("{e}");
                }
                ExitCode::from(2)
            }
        };
    }
    match cli.workload {
        Some(w) => run_one(&cli, w),
        None => run_all(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = read_json(path).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            file.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|m| m.get("name").and_then(Value::str).expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(
            names("end_to_end"),
            metrics::END_TO_END.iter().map(|m| m.name.to_string()).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            metrics::PER_LAYER.iter().map(|(n, _, _)| n.to_string()).collect::<Vec<_>>()
        );
        for (entry, m) in
            file.get("end_to_end").expect("end_to_end").items().iter().zip(metrics::END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Value::str), Some(m.unit), "{}", m.name);
            assert_eq!(
                entry.get("better").and_then(Value::str),
                Some(m.better.name()),
                "{}",
                m.name
            );
            assert_eq!(entry.get("bound").and_then(Value::num), Some(m.bound), "{}", m.name);
        }
        for (entry, (name, unit, better)) in
            file.get("per_layer").expect("per_layer").items().iter().zip(metrics::PER_LAYER)
        {
            assert_eq!(entry.get("unit").and_then(Value::str), Some(*unit), "{name}");
            assert_eq!(entry.get("better").and_then(Value::str), Some(better.name()), "{name}");
        }
    }

    #[test]
    fn cli_rejects_bad_input() {
        let parse =
            |s: &str| parse_cli(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(parse("--workload exchange_churn --seed 3 --seconds 20 --trace 1").is_ok());
        for bad in [
            "--workload nope",
            "--seed x",
            "--reps 0",
            "--seconds -1",
            "--trace 2",
            "--reps 3 --seconds 2",
            "--quick --seconds 2",
            "--compare a.json",
            "--bogus",
        ] {
            assert!(parse(bad).is_err(), "{bad} accepted");
        }
    }
}
