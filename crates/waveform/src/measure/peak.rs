//! Peak current and maximum di/dt — the paper's two headline metrics.

use crate::Waveform;

/// Peak absolute current of a rail-current waveform: `I_MAX` in the paper.
///
/// Returns `(time, |value|)`.
///
/// # Example
///
/// ```
/// use sfet_waveform::{measure::peak_abs_current, Waveform};
///
/// # fn main() -> Result<(), sfet_waveform::WaveformError> {
/// let i = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, -5e-6, -1e-6])?;
/// let (t, imax) = peak_abs_current(&i);
/// assert_eq!((t, imax), (1.0, 5e-6));
/// # Ok(())
/// # }
/// ```
pub fn peak_abs_current(current: &Waveform) -> (f64, f64) {
    let (t, v) = current.peak_abs();
    (t, v.abs())
}

/// The di/dt window as a fraction of the driving input edge: a current
/// slope is averaged over a thirtieth of the edge that causes it (1 ps for
/// the standard 30 ps inverter edge). At that window the adaptive and the
/// fixed-step inverter runs agree to within 0.5 %; at a 3 ps window the
/// Soft-FET's two runs differ by 1.6 %.
pub const DIDT_WINDOW_PER_EDGE: f64 = 1.0 / 30.0;

/// Maximum windowed slope of a current waveform: the paper's `di/dt` metric
/// \[A/s\].
///
/// Returns `max |i(t + window) − i(t)| / window` over every `t` with both
/// ends inside the waveform, `i` linearly interpolated between samples.
/// The window is the metric's bandwidth: the slope between two adjacent
/// samples would be a property of the step grid (the short step a
/// transient takes onto a source corner reads a current jump as a huge
/// slope), while a fixed window converges as the grid is refined.
/// Callers tie the window to the input edge with
/// [`DIDT_WINDOW_PER_EDGE`]. A window longer than the waveform is clamped
/// to its span.
///
/// The difference `i(t + window) − i(t)` is linear in `t` between the
/// points where `t` or `t + window` sits on a sample, so its extremes lie
/// on those points; one merged sweep over both sequences visits them all
/// in O(n).
///
/// # Panics
///
/// If `window` is not positive.
///
/// # Example
///
/// ```
/// use sfet_waveform::{measure::max_abs_didt, Waveform};
///
/// # fn main() -> Result<(), sfet_waveform::WaveformError> {
/// // A 1 A step over 0.1 s: the per-segment slope is 10 A/s, but averaged
/// // over a 1 s window the current moves by at most 1 A.
/// let i = Waveform::from_samples(vec![0.0, 1.0, 1.1, 3.0], vec![0.0, 0.0, 1.0, 1.0])?;
/// assert!((max_abs_didt(&i, 1.0) - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn max_abs_didt(current: &Waveform, window: f64) -> f64 {
    assert!(
        window > 0.0,
        "di/dt window must be positive, got {window:e}"
    );
    let (t, v) = (current.times(), current.values());
    let n = t.len();
    let span = t[n - 1] - t[0];
    if span <= 0.0 {
        return 0.0;
    }
    let w = window.min(span);
    let last = t[n - 1] - w;
    // `a` indexes the next sample time, `b` the next sample time minus the
    // window; the cursors locate `tau` and `tau + w` on their segments.
    let (mut a, mut b) = (0usize, 0usize);
    let (mut lo, mut hi) = (0usize, 0usize);
    let mut best = 0.0f64;
    loop {
        let from_a = t.get(a).copied().unwrap_or(f64::INFINITY);
        let from_b = t.get(b).map_or(f64::INFINITY, |&tb| tb - w);
        let tau = from_a.min(from_b);
        if tau > last {
            break;
        }
        if from_a <= from_b {
            a += 1;
        } else {
            b += 1;
        }
        if tau < t[0] {
            continue;
        }
        let rise = interp_from(t, v, &mut hi, tau + w) - interp_from(t, v, &mut lo, tau);
        best = best.max(rise.abs());
    }
    best / w
}

/// Linear interpolation at `x`, advancing the segment cursor `k` forward
/// only (callers query non-decreasing `x`); clamped to the end values.
fn interp_from(t: &[f64], v: &[f64], k: &mut usize, x: f64) -> f64 {
    let n = t.len();
    while *k + 2 < n && t[*k + 1] <= x {
        *k += 1;
    }
    let (t0, t1) = (t[*k], t[*k + 1]);
    let s = ((x - t0) / (t1 - t0)).clamp(0.0, 1.0);
    v[*k] + s * (v[*k + 1] - v[*k])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the windowed slope scanned on a dense uniform grid of
    /// window start times.
    fn scanned(w: &Waveform, window: f64, points: usize) -> f64 {
        let last = w.end_time() - window;
        (0..=points)
            .map(|k| w.start_time() + (last - w.start_time()) * k as f64 / points as f64)
            .map(|t| (w.value_at(t + window) - w.value_at(t)).abs())
            .fold(0.0f64, f64::max)
            / window
    }

    #[test]
    fn didt_of_linear_ramp_is_slope() {
        let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 3.0, 6.0]).unwrap();
        assert!((max_abs_didt(&w, 0.5) - 3.0).abs() < 1e-12);
        assert!((max_abs_didt(&w, 2.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn window_averages_a_steep_segment() {
        let w = Waveform::from_samples(vec![0.0, 1.0, 1.1, 2.0], vec![0.0, 1.0, 3.0, 3.1]).unwrap();
        // A window no longer than the steep segment sees its full slope.
        assert!((max_abs_didt(&w, 0.1) - 20.0).abs() < 1e-9);
        // A 1 s window starting at 0.1 s spans 0.1 → 2.9.
        assert!((max_abs_didt(&w, 1.0) - 2.9).abs() < 1e-12);
    }

    #[test]
    fn didt_of_constant_is_zero() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![2.0, 2.0]).unwrap();
        assert_eq!(max_abs_didt(&w, 0.5), 0.0);
        let single = Waveform::from_samples(vec![1.0], vec![2.0]).unwrap();
        assert_eq!(max_abs_didt(&single, 0.5), 0.0);
    }

    #[test]
    fn window_longer_than_waveform_is_clamped_to_its_span() {
        let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 4.0, 2.0]).unwrap();
        assert!((max_abs_didt(&w, 10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_matches_a_dense_scan() {
        // Irregular grid, alternating signs, a spike narrower than the window.
        let times: Vec<f64> = (0..40)
            .map(|k| k as f64 + 0.37 * ((k * 7) % 5) as f64 / 5.0)
            .collect();
        let values: Vec<f64> = (0..40)
            .map(|k| ((k * 13) % 11) as f64 - 5.0 + if k == 17 { 30.0 } else { 0.0 })
            .collect();
        let w = Waveform::from_samples(times, values).unwrap();
        for window in [0.05, 0.7, 1.0, 2.5, 9.0] {
            let exact = max_abs_didt(&w, window);
            let scan = scanned(&w, window, 200_000);
            // The scan can only miss the extreme, never exceed it.
            assert!(
                scan <= exact * (1.0 + 1e-12),
                "window {window}: scan {scan} > {exact}"
            );
            assert!(
                (exact - scan) / exact < 1e-3,
                "window {window}: {exact} vs scan {scan}"
            );
        }
    }

    #[test]
    fn refining_the_grid_leaves_the_windowed_slope_unchanged() {
        // Inserting samples on the segments of a piecewise-linear waveform
        // does not change it, so its windowed slope must not move either;
        // the per-segment slope of a jump shrinks with the step instead.
        let coarse =
            Waveform::from_samples(vec![0.0, 1.0, 1.2, 3.0], vec![0.0, 0.5, 2.5, 2.0]).unwrap();
        let times: Vec<f64> = (0..=300).map(|k| k as f64 * 0.01).collect();
        let values = times.iter().map(|&t| coarse.value_at(t)).collect();
        let fine = Waveform::from_samples(times, values).unwrap();
        for window in [0.3, 0.5, 1.0] {
            let (a, b) = (max_abs_didt(&coarse, window), max_abs_didt(&fine, window));
            assert!((a - b).abs() < 1e-12 * a, "window {window}: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn nonpositive_window_panics() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap();
        max_abs_didt(&w, 0.0);
    }

    #[test]
    fn peak_handles_negative_currents() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![1e-6, -2e-6]).unwrap();
        assert_eq!(peak_abs_current(&w), (1.0, 2e-6));
    }
}
