//! Order statistics for reported timings.

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–1): the smallest sample with at least
/// `p` of the samples at or below it. Also says whether at least ten
/// samples lie beyond it, the rule a reported percentile must meet.
pub fn percentile(v: &mut [f64], p: f64) -> (f64, bool) {
    if v.is_empty() {
        return (0.0, false);
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank >= 10)
}
