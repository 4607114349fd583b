//! Bucket fractions over explicit boundaries: the small/median/large
//! VM-size buckets of Fig. 8.

/// Bucket counts over explicit right-open boundaries; the final bucket is
/// unbounded above. E.g. `boundaries = [4.0, 16.0]` gives the paper's
/// small (≤4) / median (5–16) / large (>16) VM-size buckets when used with
/// [`bucket_fractions`] on integer core counts.
pub fn bucket_fractions(xs: &[f64], boundaries: &[f64]) -> Vec<f64> {
    assert!(
        boundaries.windows(2).all(|w| w[0] < w[1]),
        "boundaries must be strictly increasing"
    );
    let mut counts = vec![0u64; boundaries.len() + 1];
    for &x in xs {
        let idx = boundaries.partition_point(|&b| b < x);
        counts[idx] += 1;
    }
    let n = xs.len().max(1) as f64;
    counts.iter().map(|&c| c as f64 / n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_size_buckets() {
        // cores: ≤4 small, 5–16 median, >16 large (Fig. 8 caption).
        let cores = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
        let f = bucket_fractions(&cores, &[4.0, 16.0]);
        assert_eq!(f.len(), 3);
        assert!((f[0] - 0.5).abs() < 1e-12); // 1, 2, 4
        assert!((f[1] - 2.0 / 6.0).abs() < 1e-12); // 8, 16
        assert!((f[2] - 1.0 / 6.0).abs() < 1e-12); // 32
    }

    #[test]
    fn bucket_empty_input() {
        let f = bucket_fractions(&[], &[1.0]);
        assert_eq!(f, vec![0.0, 0.0]);
    }
}
