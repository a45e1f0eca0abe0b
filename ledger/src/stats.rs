//! Order statistics: nearest-rank percentiles for one run's samples, and
//! the median/quartile summary used to compare sets of runs.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method) exactly, so the spread `compare`
//! prints is the spread an outside reader computes from the same values.

/// Nearest-rank percentile of unsorted samples: the value at rank
/// `⌈q·n⌉` (clamped to `[1, n]`) of the sorted samples. `0` when empty.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count). `0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// computes them. Fewer than two values have no spread: both quartiles
/// equal the single value (or `0` when empty).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let m = len as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The summary a set of runs reports per metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }

    /// Interquartile distance as a share of the median (`0` when the
    /// median is zero and there is no spread; infinite when only the
    /// median is zero).
    pub fn spread(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if self.median == 0.0 {
            if iqr == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (iqr / self.median).abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn nearest_rank_matches_an_exact_sort() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let samples: Vec<u64> = (0..n).map(|_| rng.gen_range(0..10_000u64)).collect();
            let mut exact = samples.clone();
            exact.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                // The smallest sorted value with at least ⌈q·n⌉ samples at
                // or below it.
                let want = *exact
                    .iter()
                    .find(|&&x| {
                        exact.iter().filter(|&&y| y <= x).count() as f64 >= (q * n as f64).max(1.0)
                    })
                    .unwrap();
                assert_eq!(percentile(&samples, q), want, "n={n} q={q}");
            }
        }
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from CPython's statistics.quantiles(d, n=4).
        let cases: [(&[f64], (f64, f64), f64); 5] = [
            (
                &[10., 9., 8., 7., 6., 5., 4., 3., 2., 1.],
                (2.75, 8.25),
                5.5,
            ),
            (&[3.5, 1.25], (0.6875, 4.0625), 2.375),
            (&[5., 1., 4., 2., 3.], (1.5, 4.5), 3.0),
            (
                &[10., 20., 30., 40., 50., 60., 70., 80., 90., 100., 110.],
                (30.0, 90.0),
                60.0,
            ),
            (&[2.0, 2.0, 2.0], (2.0, 2.0), 2.0),
        ];
        for (values, want, want_median) in cases {
            assert_eq!(quartiles(values), want, "{values:?}");
            assert_eq!(median(values), want_median, "{values:?}");
        }
    }

    #[test]
    fn quartiles_bracket_the_median_of_random_sets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for n in 3..40 {
            let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0..1000u32) as f64).collect();
            let s = Summary::of(&values);
            let mut exact = values.clone();
            exact.sort_by(f64::total_cmp);
            assert!(exact[0] <= s.q1 && s.q1 <= s.median && s.median <= s.q3);
            assert!(s.q3 <= exact[n - 1]);
            assert!(s.spread() >= 0.0);
        }
    }
}
