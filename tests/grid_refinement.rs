//! Grid-refinement properties of the inverter metrics.
//!
//! A reported metric must be a property of the circuit, not of the step
//! grid. For the baseline and the Soft-FET inverter, every metric of
//! [`InverterMetrics`] is measured on a 15 fs fixed-step reference run and
//! then:
//!
//! * on the fixed-step ladder `dtmax` = 0.6 → 0.3 → 0.15 ps, where each rung
//!   must sit inside the metric's envelope around the reference, and a finer
//!   rung may not move away from the reference by more than a quarter of
//!   the envelope beyond the coarser rung's error;
//! * with [`inverter_sim_options`] (error-controlled stepping), which must
//!   land inside the same envelope with a fraction of the fixed grid's
//!   steps.
//!
//! Every run localises PTM events to the `event_vtol` of
//! [`inverter_sim_options`], so the ladder varies the step size alone.

use sfet_devices::ptm::PtmParams;
use sfet_sim::SimOptions;
use softfet::inverter::{InverterSpec, Topology};
use softfet::metrics::{
    inverter_sim_options, measure_from_result, run_inverter_with, InverterMetrics,
};

/// A metric's name, its reader and its relative envelope.
type Metric = (&'static str, fn(&InverterMetrics) -> f64, f64);

/// Relative envelope of each metric around the 15 fs reference. The
/// short-circuit charge is the small difference of two charges, so its
/// relative error is the largest.
const METRICS: [Metric; 6] = [
    ("I_MAX", |m| m.i_max, 5e-3),
    ("di/dt", |m| m.di_dt, 1e-2),
    ("delay", |m| m.delay, 5e-3),
    ("Q_total", |m| m.q_total, 2e-3),
    ("Q_out", |m| m.q_out, 2e-3),
    ("Q_sc", |m| m.q_sc, 1e-2),
];

const REFERENCE_DT: f64 = 0.015e-12;
const LADDER_DT: [f64; 3] = [0.6e-12, 0.3e-12, 0.15e-12];

fn specs() -> [(&'static str, InverterSpec); 2] {
    [
        ("baseline", InverterSpec::minimum(1.0, Topology::Baseline)),
        (
            "Soft-FET",
            InverterSpec::minimum(1.0, Topology::SoftFet(PtmParams::vo2_default())),
        ),
    ]
}

/// Fixed steps of `dtmax`, PTM events localised as the sweeps do.
fn fixed(spec: &InverterSpec, dtmax: f64) -> SimOptions {
    SimOptions {
        event_vtol: inverter_sim_options(spec).event_vtol,
        ..SimOptions::default().with_dtmax(dtmax)
    }
}

/// The metrics and the accepted step count of one run.
fn measure(spec: &InverterSpec, opts: &SimOptions) -> (InverterMetrics, usize) {
    let result = run_inverter_with(spec, opts).unwrap();
    let steps = result.stats().steps_accepted;
    (measure_from_result(spec, &result).unwrap(), steps)
}

fn rel_err(value: f64, reference: f64) -> f64 {
    ((value - reference) / reference).abs()
}

#[test]
fn halving_dtmax_converges_on_every_metric() {
    for (name, spec) in specs() {
        let (reference, _) = measure(&spec, &fixed(&spec, REFERENCE_DT));
        let ladder: Vec<InverterMetrics> = LADDER_DT
            .iter()
            .map(|&dt| measure(&spec, &fixed(&spec, dt)).0)
            .collect();
        for (metric, get, envelope) in METRICS {
            let errs: Vec<f64> = ladder
                .iter()
                .map(|m| rel_err(get(m), get(&reference)))
                .collect();
            for (dt, err) in LADDER_DT.iter().zip(&errs) {
                assert!(
                    *err <= envelope,
                    "{name} {metric} at dtmax {:.2} ps: {:.3}% off the 15 fs run (envelope {:.2}%)",
                    dt * 1e12,
                    err * 100.0,
                    envelope * 100.0
                );
            }
            for pair in errs.windows(2) {
                assert!(
                    pair[1] <= pair[0].max(0.25 * envelope),
                    "{name} {metric}: halving dtmax moved it away from the 15 fs run: {:?}",
                    errs
                );
            }
        }
    }
}

#[test]
fn error_controlled_options_match_the_fine_grid_with_fewer_steps() {
    for (name, spec) in specs() {
        let (reference, _) = measure(&spec, &fixed(&spec, REFERENCE_DT));
        let (fixed_03, fixed_steps) = measure(&spec, &fixed(&spec, 0.3e-12));
        let (adaptive, steps) = measure(&spec, &inverter_sim_options(&spec));
        for (metric, get, envelope) in METRICS {
            let err = rel_err(get(&adaptive), get(&reference));
            assert!(
                err <= envelope,
                "{name} {metric}: inverter_sim_options {:.3}% off the 15 fs run (envelope {:.2}%)",
                err * 100.0,
                envelope * 100.0
            );
        }
        assert_eq!(
            adaptive.transitions, reference.transitions,
            "{name} transitions"
        );
        assert_eq!(
            fixed_03.transitions, reference.transitions,
            "{name} transitions"
        );
        assert!(
            3 * steps < fixed_steps,
            "{name}: {steps} adaptive steps against {fixed_steps} fixed 0.3 ps steps"
        );
    }
}
