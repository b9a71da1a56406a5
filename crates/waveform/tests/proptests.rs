//! Property tests for waveform storage and measurements.

use proptest::prelude::*;
use sfet_waveform::measure::{
    bounce, charge_split, crossing_time, droop, max_abs_didt, CrossDirection,
};
use sfet_waveform::Waveform;

fn arb_waveform() -> impl Strategy<Value = Waveform> {
    proptest::collection::vec(-3.0f64..3.0, 2..40).prop_map(|values| {
        let times: Vec<f64> = (0..values.len()).map(|i| i as f64 * 1e-12).collect();
        Waveform::from_samples(times, values).expect("valid by construction")
    })
}

proptest! {
    /// value_at at a sample time returns that sample.
    #[test]
    fn value_at_samples(wf in arb_waveform(), idx in 0usize..40) {
        let idx = idx % wf.len();
        let t = wf.times()[idx];
        prop_assert!((wf.value_at(t) - wf.values()[idx]).abs() < 1e-12);
    }

    /// Interpolated values never escape the neighbouring samples' range.
    #[test]
    fn interpolation_bounded(wf in arb_waveform(), q in 0.0f64..1.0) {
        let t = wf.start_time() + q * (wf.end_time() - wf.start_time());
        let v = wf.value_at(t);
        let (_, lo) = wf.min();
        let (_, hi) = wf.max();
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    /// Integral is additive over adjacent windows.
    #[test]
    fn integral_additive(wf in arb_waveform(), split in 0.1f64..0.9) {
        let t0 = wf.start_time();
        let t2 = wf.end_time();
        let t1 = t0 + split * (t2 - t0);
        let whole = wf.integral_between(t0, t2);
        let parts = wf.integral_between(t0, t1) + wf.integral_between(t1, t2);
        prop_assert!((whole - parts).abs() < 1e-9 * whole.abs().max(1e-15));
    }

    /// The integral of the derivative recovers the net change.
    #[test]
    fn derivative_integral_inverse(wf in arb_waveform()) {
        prop_assume!(wf.len() >= 3);
        let d = wf.derivative();
        let net = d.integral();
        // Derivative samples live at segment midpoints, so the trapezoidal
        // re-integration is inexact at the two half-segments; allow slack
        // proportional to the largest slope.
        let max_slope = d.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let slack = 1e-12 * max_slope + 1e-12;
        let expect = wf.last_value() - wf.first_value();
        prop_assert!((net - expect).abs() <= slack + 0.5 * (expect.abs() + 1.0) , "net {net} vs {expect}");
    }

    /// The windowed di/dt lies between the slope of any one window-long
    /// stretch and the steepest segment.
    #[test]
    fn windowed_didt_bounded_by_segment_slopes(wf in arb_waveform(), frac in 0.01f64..1.0) {
        let window = frac * (wf.end_time() - wf.start_time());
        let didt = max_abs_didt(&wf, window);
        let steepest = wf.derivative().values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        prop_assert!(didt <= steepest * (1.0 + 1e-9), "{didt} > steepest {steepest}");
        let first = (wf.value_at(wf.start_time() + window) - wf.first_value()).abs() / window;
        prop_assert!(didt >= first * (1.0 - 1e-9), "{didt} < first window {first}");
    }

    /// droop + overshoot together bound the peak-to-peak excursion.
    #[test]
    fn droop_consistency(wf in arb_waveform(), nominal in -1.0f64..1.0) {
        let r = droop(&wf, nominal);
        prop_assert!(r.droop >= 0.0 && r.overshoot >= 0.0);
        prop_assert!(r.peak_to_peak <= r.droop + r.overshoot + (2.0 * nominal.abs()) + 1e-12);
        let b = bounce(&wf, nominal);
        prop_assert!(b >= r.droop.max(r.overshoot) - 1e-12);
    }

    /// A found crossing really does bracket the level.
    #[test]
    fn crossing_is_a_crossing(wf in arb_waveform(), level in -2.0f64..2.0) {
        if let Ok(tc) = crossing_time(&wf, level, CrossDirection::Either, wf.start_time()) {
            prop_assert!(tc >= wf.start_time() && tc <= wf.end_time());
            prop_assert!((wf.value_at(tc) - level).abs() < 1e-6);
        }
    }

    /// Charge split components are non-negative and total-consistent.
    #[test]
    fn charge_split_consistent(wf in arb_waveform(), c_load in 1e-16f64..1e-12) {
        let v = wf.map(f64::abs);
        let q = charge_split(&wf, &v, c_load, wf.start_time(), wf.end_time());
        prop_assert!(q.total >= 0.0);
        prop_assert!(q.output >= 0.0);
        prop_assert!(q.short_circuit >= 0.0);
        prop_assert!(q.short_circuit <= q.total + 1e-18);
    }

    /// Windowing preserves values inside the window.
    #[test]
    fn window_preserves_values(wf in arb_waveform(), a in 0.05f64..0.45, b in 0.55f64..0.95) {
        prop_assume!(wf.len() >= 4);
        let t0 = wf.start_time() + a * (wf.end_time() - wf.start_time());
        let t1 = wf.start_time() + b * (wf.end_time() - wf.start_time());
        let win = wf.window(t0, t1).unwrap();
        let mid = 0.5 * (t0 + t1);
        prop_assert!((win.value_at(mid) - wf.value_at(mid)).abs() < 1e-12);
        prop_assert!(win.start_time() >= t0 - 1e-18 && win.end_time() <= t1 + 1e-18);
    }
}
