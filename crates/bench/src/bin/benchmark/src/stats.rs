//! Order statistics over repeated measurements, and the stdout digest.

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Median of `values`: the middle value, or the mean of the middle two
/// for an even count. `NaN` for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads read here match what external tooling computes from the
/// same samples. A single value is its own quartiles; `NaN`s for none.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return (f64::NAN, f64::NAN),
        1 => return (data[0], data[0]),
        _ => {}
    }
    const N: i64 = 4;
    let ld = ld as i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / N).clamp(1, ld - 1);
        // Negative for tiny samples, exactly as in the reference.
        let delta = (i * m - j * N) as f64;
        let (lo, hi) = (data[(j - 1) as usize], data[j as usize]);
        (lo * (N as f64 - delta) + hi * delta) / N as f64
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median: the run-to-run spread
/// a bound is judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Percentile ladder searched by [`tail_percentile`].
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of the ladder (p50 … p99.9) that still has at
/// least ten samples beyond it, with its nearest-rank value. `None` when
/// even the median has fewer than ten samples above it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    LADDER.iter().rev().find_map(|&p| {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, data[rank - 1]))
    })
}

/// 64-bit FNV-1a over `bytes` — the digest pinned for each workload's
/// stdout.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None, "p50 of 19 leaves only 9 above");
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50.0, 10.0)));
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&forty), Some((75.0, 30.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
