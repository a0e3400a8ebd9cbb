//! `--compare a.json b.json`: applies the benchmark's own bounds to two
//! result files (`a` is the baseline).
//!
//! * Simulated metrics and counts must be identical when both files used
//!   the same seed; across seeds they get the metric's bound.
//! * A host metric regressed when `b`'s value (the quiet time, see
//!   `stats::quiet`) is worse than `a`'s by more than its bound. It is
//!   *unresolved* — neither unchanged nor regressed — when either file's
//!   own p25–p75 range is wider than the bound, unless the ranges do not
//!   even touch.

use crate::json::Value;
use crate::metrics::{self, Better, Clock};
use crate::stats::Spread;

#[derive(PartialEq, Eq, Debug, Clone, Copy)]
pub enum Verdict {
    Same,
    Within,
    Improved,
    Unresolved,
    Regressed,
    /// A simulated metric or count that must be identical and is not.
    Different,
}

/// By how much of `a` is `b` worse (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge_exact(a: f64, b: f64) -> Verdict {
    if a == b {
        Verdict::Same
    } else {
        Verdict::Different
    }
}

pub fn judge_bounded(better: Better, bound: f64, a: Spread, b: Spread) -> Verdict {
    let worse = worse_by(better, a.quiet, b.quiet);
    if worse > bound {
        return Verdict::Regressed;
    }
    let wide = |s: Spread| (s.p75 - s.p25) / s.median > bound;
    let apart = a.p75 < b.p25 || b.p75 < a.p25;
    if (wide(a) || wide(b)) && !apart {
        return Verdict::Unresolved;
    }
    if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

fn point(v: f64) -> Spread {
    Spread { quiet: v, median: v, p25: v, p75: v, n: 1 }
}

struct Row {
    workload: String,
    metric: String,
    a: f64,
    b: f64,
    verdict: Verdict,
}

fn compare_workload(a: &Value, b: &Value, same_seed: bool, rows: &mut Vec<Row>) {
    let name = a.get("workload").and_then(Value::str).unwrap_or("?").to_string();
    let mut push = |metric: &str, a: f64, b: f64, verdict| {
        rows.push(Row { workload: name.clone(), metric: metric.to_string(), a, b, verdict })
    };
    let host = |v: &Value, metric: &str| -> Option<Spread> {
        let field = v.get("host")?.get(metric)?;
        Spread::from_json(field).or_else(|| field.num().map(point))
    };
    let number = |v: &Value, section: &str, metric: &str| v.get(section)?.get(metric)?.num();

    for m in metrics::END_TO_END.iter().chain(metrics::WORKLOAD_SPECIFIC) {
        match m.clock {
            Clock::Host => {
                let (Some(sa), Some(sb)) = (host(a, m.name), host(b, m.name)) else { continue };
                push(m.name, sa.quiet, sb.quiet, judge_bounded(m.better, m.bound, sa, sb));
            }
            Clock::Sim => {
                let section = if metrics::END_TO_END.iter().any(|e| e.name == m.name) {
                    "sim"
                } else {
                    "workload_specific"
                };
                // Absent on both sides: the workload has no such metric.
                let (Some(va), Some(vb)) = (number(a, section, m.name), number(b, section, m.name))
                else {
                    continue;
                };
                let verdict = if same_seed || m.bound == 0.0 {
                    judge_exact(va, vb)
                } else {
                    judge_bounded(m.better, m.bound, point(va), point(vb))
                };
                push(m.name, va, vb, verdict);
            }
        }
    }
    // Counts of the simulated run: exact at equal seeds.
    if same_seed {
        for (key, va) in a.get("sim").map_or(&[][..], |s| s.fields()) {
            let (Some(va), Some(vb)) = (va.num(), number(b, "sim", key)) else { continue };
            if metrics::find(key).is_none() && va != vb {
                push(key, va, vb, Verdict::Different);
            }
        }
    }
}

/// Compares two result files; returns the report and whether `b` holds
/// up against `a` (nothing regressed; unresolved metrics are reported
/// but do not fail the comparison).
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let seed = |v: &Value| v.get("seed").and_then(Value::num);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for wa in a.get("workloads").map_or(&[][..], |w| w.items()) {
        let name = wa.get("workload").and_then(Value::str);
        let wb = b
            .get("workloads")
            .map_or(&[][..], |w| w.items())
            .iter()
            .find(|w| w.get("workload").and_then(Value::str) == name);
        match wb {
            Some(wb) => compare_workload(wa, wb, same_seed, &mut rows),
            None => missing.push(name.unwrap_or("?").to_string()),
        }
    }
    let shown = |s: Option<f64>| s.map_or("?".to_string(), |s| s.to_string());
    let mut report = format!(
        "comparing seeds {} and {}: simulated metrics compare {}\n",
        shown(seed(a)),
        shown(seed(b)),
        if same_seed { "exactly" } else { "within their bounds (different seeds)" }
    );
    report.push_str(&format!(
        "{:<16} {:<26} {:>16} {:>16} {:>8}  verdict\n",
        "workload", "metric", "a", "b", "b vs a"
    ));
    for r in &rows {
        let change = if r.a == r.b { 0.0 } else { 100.0 * (r.b - r.a) / r.a };
        report.push_str(&format!(
            "{:<16} {:<26} {:>16.4} {:>16.4} {:>+7.2}%  {:?}\n",
            r.workload, r.metric, r.a, r.b, change, r.verdict
        ));
    }
    for name in &missing {
        report.push_str(&format!("{name}: missing from the second file\n"));
    }
    let regressed = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Different))
        .count();
    let unresolved = rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count();
    report.push_str(&format!(
        "{} metrics compared, {regressed} regressed or different, {unresolved} unresolved\n",
        rows.len()
    ));
    (report, regressed == 0 && missing.is_empty() && !rows.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(median: f64, half_width: f64) -> Spread {
        Spread { quiet: median, median, p25: median - half_width, p75: median + half_width, n: 40 }
    }

    #[test]
    fn host_metrics_get_their_bound() {
        use Verdict::*;
        // (better, a, b, verdict) at a 10 % bound.
        let cases = [
            (Better::Lower, spread(100.0, 1.0), spread(104.0, 1.0), Within),
            (Better::Lower, spread(100.0, 1.0), spread(112.0, 1.0), Regressed),
            (Better::Lower, spread(100.0, 1.0), spread(80.0, 1.0), Improved),
            // Spread wider than the bound and overlapping: cannot tell.
            (Better::Lower, spread(100.0, 8.0), spread(104.0, 1.0), Unresolved),
            // Wide, but every quartile of b is better than a's: resolved.
            (Better::Lower, spread(100.0, 8.0), spread(60.0, 1.0), Improved),
            (Better::Higher, spread(100.0, 1.0), spread(80.0, 1.0), Regressed),
        ];
        for (better, a, b, verdict) in cases {
            assert_eq!(judge_bounded(better, 0.10, a, b), verdict, "{a:?} -> {b:?}");
        }
    }

    #[test]
    fn simulated_metrics_compare_exactly_at_equal_seeds() {
        let file = |cycles: f64, seed: f64| {
            Value::obj([
                ("seed", Value::from(seed)),
                (
                    "workloads",
                    Value::Arr(vec![Value::obj([
                        ("workload", Value::from("exchange_churn")),
                        ("sim", Value::obj([("sim_makespan_cycles", Value::from(cycles))])),
                    ])]),
                ),
            ])
        };
        assert!(compare(&file(1000.0, 1.0), &file(1000.0, 1.0)).1);
        assert!(!compare(&file(1000.0, 1.0), &file(1001.0, 1.0)).1);
        // Across seeds the bound applies instead.
        assert!(compare(&file(1000.0, 1.0), &file(1001.0, 2.0)).1);
        assert!(!compare(&file(1000.0, 1.0), &file(1200.0, 2.0)).1);
    }
}
