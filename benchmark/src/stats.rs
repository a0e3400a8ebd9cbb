//! Order statistics of host-time samples.

use crate::json::Value;

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The host-time estimate the benchmark reports: the sample a tenth of
/// the way up the sorted samples (the fastest one below ten samples).
///
/// Host noise in a shared sandbox is one-sided — a neighbour only ever
/// adds time, in phases that last seconds — so the median of a run moves
/// with how much of the run a slow phase covered, while the low end of
/// the samples stays put. On the container the first values were
/// recorded in, ten 20-second runs of `apps_mix_512` had medians 24 %
/// apart (first to third quartile) and tenth percentiles 8 % apart.
pub fn quiet(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 10).copied().unwrap_or(f64::NAN)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads computed here match
/// the ones a reader recomputes from the recorded samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let quartile = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(1), quartile(3))
}

/// Quiet value, median, quartiles and count of a set of samples.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub quiet: f64,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let (p25, p75) = quartiles(values);
        Spread { quiet: quiet(values), median: median(values), p25, p75, n: values.len() }
    }

    pub fn to_json(self) -> Value {
        Value::obj([
            ("quiet", Value::from(self.quiet)),
            ("median", Value::from(self.median)),
            ("p25", Value::from(self.p25)),
            ("p75", Value::from(self.p75)),
            ("n", Value::from(self.n as u64)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Spread> {
        Some(Spread {
            quiet: v.get("quiet")?.num()?,
            median: v.get("median")?.num()?,
            p25: v.get("p25")?.num()?,
            p75: v.get("p75")?.num()?,
            n: v.get("n")?.num()? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]; statistics.median(...) == 13.5
        let v = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        assert_eq!(quartiles(&v), (3.5, 31.0));
        assert_eq!(median(&v), 13.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quiet_is_the_low_end() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(quiet(&v), 5.0);
        assert_eq!(quiet(&[9.0, 7.0, 8.0]), 7.0);
        assert!(quiet(&[]).is_nan());
    }
}
