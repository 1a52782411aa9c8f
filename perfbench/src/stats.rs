//! Order statistics over measured samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `xs`; 0 for an
/// empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Harrell–Davis estimate of quantile `q` (in `(0, 1)`) of `xs`: the
/// order statistics weighted by a Beta(q(n+1), (1-q)(n+1)) distribution
/// over their ranks; 0 for an empty slice. With a few samples, each a
/// noisy per-job median, it moves smoothly when one of the samples near
/// the quantile moves, where [`quantile`] follows one or two of them.
pub fn harrell_davis(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    // The Beta CDF at the rank boundaries i/n, by the midpoint rule on a
    // fine grid, normalized by the grid's total.
    const STEPS: usize = 1 << 14;
    let mut cdf = vec![0.0; STEPS + 1];
    for k in 0..STEPS {
        let x = (k as f64 + 0.5) / STEPS as f64;
        cdf[k + 1] = cdf[k] + x.powf(a - 1.0) * (1.0 - x).powf(b - 1.0);
    }
    let at = |i: usize| cdf[(i * STEPS + n / 2) / n] / cdf[STEPS];
    (0..n).map(|i| (at(i + 1) - at(i)) * v[i]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn harrell_davis_estimates() {
        assert!((harrell_davis(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5) - 3.0).abs() < 1e-9);
        assert!((harrell_davis(&[7.0; 4], 0.95) - 7.0).abs() < 1e-9);
        let xs: Vec<f64> = (1..=22).map(f64::from).collect();
        let p95 = harrell_davis(&xs, 0.95);
        assert!(p95 > 20.0 && p95 < 22.0, "{p95}");
        assert_eq!(harrell_davis(&[], 0.5), 0.0);
    }
}
