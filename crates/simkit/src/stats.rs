//! Small summary-statistics helpers used by the experiment harness when
//! reporting per-row timings, score distributions and sweep series.

/// Linear-interpolated percentile of an already-sorted, non-empty slice.
/// `q` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The mean of a slice; 0.0 when empty. Shared by several report builders.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_value() {
        assert_eq!(percentile_sorted(&[3.5], 0.0), 3.5);
        assert_eq!(percentile_sorted(&[3.5], 0.5), 3.5);
        assert_eq!(percentile_sorted(&[3.5], 1.0), 3.5);
    }

    #[test]
    fn known_values() {
        // An even count: the median interpolates between the middle two.
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile_sorted(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((percentile_sorted(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&xs, 0.0), 10.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 50.0);
        assert_eq!(percentile_sorted(&xs, 0.5), 30.0);
        assert!((percentile_sorted(&xs, 0.25) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
