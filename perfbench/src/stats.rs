//! Order statistics for the benchmark's samples.

/// Fewest samples that must lie above a reported percentile: a tail figure
/// resting on fewer is one outlier, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by nearest rank.
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie above the rank, so a
/// p99 needs at least 1000 samples and a median at least 20.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile {q} lies outside (0, 1)"));
    }
    let n = samples.len();
    // 1-based nearest rank; at least 1 so that tiny `q` still names a sample.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} samples beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The middle value of a few repeated measurements (the mean of the middle
/// two for an even count). Unlike [`percentile`] it asks for no samples
/// beyond it: it summarises repeats of one measurement, not a tail.
pub fn median(samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("median of no samples".into());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Ok(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Which of `slices` equal slices of a window `window_s` seconds long holds
/// an event `offset_s` seconds into it. An event at the window's very end
/// falls in the last slice.
fn slice_of(offset_s: f64, window_s: f64, slices: usize) -> usize {
    ((offset_s / window_s * slices as f64) as usize).min(slices.saturating_sub(1))
}

/// Events per second in each of `slices` equal slices of a window
/// `window_s` seconds long, from the events' offsets into the window.
pub fn slice_rates(offsets_s: &[f64], window_s: f64, slices: usize) -> Vec<f64> {
    let width = window_s / slices as f64;
    let mut counts = vec![0usize; slices];
    for &t in offsets_s {
        counts[slice_of(t, window_s, slices)] += 1;
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// The `q`-quantile of each of `slices` equal slices of the window, from
/// `(offset_s, value)` samples; `None` for a slice too thin for it (see
/// [`percentile`]).
pub fn slice_percentiles(
    samples: &[(f64, f64)],
    window_s: f64,
    slices: usize,
    q: f64,
) -> Vec<Option<f64>> {
    let mut by_slice = vec![Vec::new(); slices];
    for &(t, v) in samples {
        by_slice[slice_of(t, window_s, slices)].push(v);
    }
    by_slice.iter().map(|s| percentile(s, q).ok()).collect()
}

/// The median over the window's slices of each slice's `q`-quantile,
/// leaving out slices too thin for it; refused when none has enough
/// samples.
pub fn sliced_percentile(
    samples: &[(f64, f64)],
    window_s: f64,
    slices: usize,
    q: f64,
) -> Result<f64, String> {
    let per_slice: Vec<f64> = slice_percentiles(samples, window_s, slices, q)
        .into_iter()
        .flatten()
        .collect();
    median(&per_slice).map_err(|_| {
        format!(
            "no slice of {slices} holds enough of {} samples for a p{}",
            samples.len(),
            q * 100.0
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
        let refused = percentile(&ramp(999), 0.99).unwrap_err();
        assert!(refused.contains("9 samples beyond"), "{refused}");
    }

    #[test]
    fn median_by_rank_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn out_of_range_quantiles_are_refused() {
        assert!(percentile(&ramp(5000), 0.0).is_err());
        assert!(percentile(&ramp(5000), 1.0).is_err());
        assert!(percentile(&ramp(5000), f64::NAN).is_err());
    }

    #[test]
    fn slice_rates_count_each_event_once() {
        // 4 s window in 4 slices: 2, 0, 1 and 3 events (the one at 4.0 s,
        // the window's end, counts in the last slice).
        let rates = slice_rates(&[0.0, 0.5, 2.9, 3.1, 3.9, 4.0], 4.0, 4);
        assert_eq!(rates, vec![2.0, 0.0, 1.0, 3.0]);
        // Half-second slices double the rate per event.
        assert_eq!(slice_rates(&[0.1, 0.6], 1.0, 2), vec![2.0, 2.0]);
        assert_eq!(slice_rates(&[], 2.0, 2), vec![0.0, 0.0]);
    }

    #[test]
    fn sliced_percentile_is_the_median_of_the_slices() {
        // Three 1 s slices of 20 samples each, valued 1–20 plus 0, 100 and
        // 10: the slice medians are 10, 110 and 20.
        let mut samples = Vec::new();
        for (slice, base) in [(0.0, 0.0), (1.0, 100.0), (2.0, 10.0)] {
            for i in 1..=20 {
                samples.push((slice + i as f64 / 21.0, base + i as f64));
            }
        }
        assert_eq!(
            slice_percentiles(&samples, 3.0, 3, 0.5),
            vec![Some(10.0), Some(110.0), Some(20.0)]
        );
        assert_eq!(sliced_percentile(&samples, 3.0, 3, 0.5), Ok(20.0));
        // A thin slice is left out rather than refusing the whole figure.
        samples.push((3.0, 1e9));
        let thin = slice_percentiles(&samples, 4.0, 4, 0.5);
        assert_eq!(thin[3], None);
        assert_eq!(sliced_percentile(&samples, 4.0, 4, 0.5), Ok(20.0));
        assert!(sliced_percentile(&samples[..5], 3.0, 3, 0.5).is_err());
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Ok(2.5));
        assert!(median(&[]).is_err());
    }
}
