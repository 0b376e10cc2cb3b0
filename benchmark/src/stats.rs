//! Order statistics the harness reports. Every rate is a median over
//! repetitions; run-to-run agreement is judged on the quartile spread.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100): the smallest sample with
/// at least `p` % of the samples at or below it. With fewer than 20
/// samples `p = 95` is the maximum.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Samples a 95th percentile needs to mean something: ten beyond it.
pub const TAIL_SAMPLES: usize = 200;

/// The tail of a latency distribution, `op_ms_tail`: the 95th
/// percentile when there are at least [`TAIL_SAMPLES`] samples (ten or
/// more lie beyond it), the upper quartile otherwise. With a dozen
/// repetitions "p95" would be the single slowest one, which measures
/// the host's worst moment, not the program; the upper quartile of a
/// dozen still says how repetitions scatter and is steady run to run.
pub fn tail(values: &[f64]) -> f64 {
    percentile(
        values,
        if values.len() >= TAIL_SAMPLES {
            95.0
        } else {
            75.0
        },
    )
}

/// Geometric mean, the aggregate over a workload's cases: a case that
/// gets 10 % faster moves it the same whatever the case's own rate.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so `--repeat` judges spread the
/// way the acceptance driver does. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Nine samples: p95 is the slowest one.
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(percentile(&nine, 95.0), 9.0);
    }

    #[test]
    fn tail_is_p95_of_many_samples_and_the_upper_quartile_of_few() {
        let many: Vec<f64> = (1..=600).map(f64::from).collect();
        assert_eq!(tail(&many), 570.0);
        let few: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&few), 9.0);
        // One wild repetition does not move the tail of a few.
        let mut wild = few.clone();
        wild[10] = 1e6;
        assert_eq!(tail(&wild), 9.0);
    }

    #[test]
    fn geomean_is_scale_free() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        let base = geomean(&[10.0, 1000.0]);
        // 10 % on either case moves the aggregate identically.
        assert!((geomean(&[11.0, 1000.0]) - geomean(&[10.0, 1100.0])).abs() < 1e-9);
        assert!(geomean(&[11.0, 1000.0]) > base);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
