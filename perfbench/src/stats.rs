//! Order statistics for the benchmark's latency and timing samples.
//!
//! Percentiles use the nearest-rank rule on a sorted copy: the reported
//! value is always one that was actually measured. A tail percentile is only
//! meaningful with enough samples beyond it, so [`Percentile`] records the
//! sample count and how many samples lie strictly above the selected rank,
//! and [`percentile_with_tail`] refuses to report one with fewer than
//! [`MIN_BEYOND`] samples past it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// One selected percentile and the sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The selected (measured) value.
    pub value: f64,
    /// How many samples the selection ran over.
    pub n: usize,
    /// How many samples rank strictly above the selected one.
    pub beyond: usize,
}

/// Zero-based nearest-rank index of percentile `p` (in `0..=100`) among
/// `n >= 1` sorted samples: `ceil(p / 100 * n) - 1`, clamped to the range.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "a percentile needs at least one sample");
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The smallest sample count at which percentile `p` has at least
/// `beyond` samples ranked above it.
pub fn samples_needed(p: f64, beyond: usize) -> usize {
    let mut n = beyond + 1;
    while n - 1 - nearest_rank(p, n) < beyond {
        n += 1;
    }
    n
}

/// Percentile `p` of `samples` (any order) by nearest rank.
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = nearest_rank(p, sorted.len());
    Percentile {
        value: sorted[index],
        n: sorted.len(),
        beyond: sorted.len() - 1 - index,
    }
}

/// [`percentile`], refusing a selection with fewer than [`MIN_BEYOND`]
/// samples beyond it.
pub fn percentile_with_tail(samples: &[f64], p: f64) -> Result<Percentile, String> {
    if samples.is_empty() {
        return Err(format!("p{p} of an empty sample"));
    }
    let selected = percentile(samples, p);
    if selected.beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {} samples has only {} beyond it (need {MIN_BEYOND}, i.e. {} samples)",
            selected.n,
            selected.beyond,
            samples_needed(p, MIN_BEYOND)
        ));
    }
    Ok(selected)
}

/// Median by nearest rank (the lower middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).value
}

/// Arithmetic mean (`NaN` for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order: selection must not depend on input order.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_measured_sample() {
        assert_eq!(nearest_rank(50.0, 1), 0);
        assert_eq!(nearest_rank(50.0, 4), 1);
        assert_eq!(nearest_rank(90.0, 10), 8);
        assert_eq!(nearest_rank(100.0, 7), 6);
        assert_eq!(nearest_rank(0.0, 7), 0);
        let p = percentile(&ramp(100), 90.0);
        assert_eq!(
            p,
            Percentile {
                value: 90.0,
                n: 100,
                beyond: 10
            }
        );
        let p = percentile(&ramp(1000), 99.0);
        assert_eq!(
            p,
            Percentile {
                value: 990.0,
                n: 1000,
                beyond: 10
            }
        );
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(samples_needed(90.0, MIN_BEYOND), 100);
        assert_eq!(samples_needed(99.0, MIN_BEYOND), 1000);
        assert!(percentile_with_tail(&ramp(99), 90.0).is_err());
        let p = percentile_with_tail(&ramp(100), 90.0).unwrap();
        assert_eq!((p.n, p.beyond), (100, 10));
        assert!(percentile_with_tail(&ramp(999), 99.0).is_err());
        let p = percentile_with_tail(&ramp(1500), 99.0).unwrap();
        assert_eq!((p.value, p.n, p.beyond), (1485.0, 1500, 15));
        assert!(percentile_with_tail(&[], 50.0).is_err());
    }

    #[test]
    fn median_picks_the_lower_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
