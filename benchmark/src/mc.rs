//! `mc_inverter`: repeated Monte-Carlo I_MAX sweeps through the
//! library's Monte-Carlo entry point,
//! [`softfet::variation::monte_carlo_imax_with`].
//!
//! Each call simulates a few dozen PTM draws on the minimum Soft-FET
//! inverter, from a population seed drawn fresh for every call. The execution policy is the library default except for the
//! worker count; the lane width is left to the library (no `SFET_BATCH`
//! pin), so a change to the batched path shows here.

use std::time::{Duration, Instant};

use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::{par_map, task_seed, ExecConfig};
use sfet_numeric::stats::percentile;
use sfet_telemetry::Telemetry;
use softfet::inverter::{InverterSpec, Topology};
use softfet::metrics::{inverter_sim_options, measure_inverter, measure_inverter_with};
use softfet::variation::{monte_carlo_imax_with, McSummary, PtmVariation, VariationRng};

use crate::reference;
use crate::report::{Digest, Rng};
use crate::workload::{workers, SimCase, Size, Window, Workload};

/// Supply voltage of every inverter in the sweep \[V\].
pub const VDD: f64 = 1.0;
/// Seed and size of the fixed population `result_rel_err` is measured on.
pub const REF_SEED: u64 = 2024;
pub const REF_DRAWS: usize = 32;
/// Accuracy gate: a larger error than this fails the run.
const MAX_REL_ERR: f64 = 0.05;

/// The inverter for draw `i` of the population seeded by `seed`, drawn
/// exactly as the library's Monte-Carlo entry point draws it.
pub fn draw_spec(seed: u64, i: usize) -> InverterSpec {
    let mut rng = VariationRng::new(task_seed(seed, i as u64));
    let ptm = PtmVariation::default().sample(&PtmParams::vo2_default(), &mut rng);
    InverterSpec::minimum(VDD, Topology::SoftFet(ptm))
}

/// I_MAX of each draw of a population, simulated one by one with the
/// sweep's options and `dtmax` divided by `refine`.
pub fn population_imax(seed: u64, draws: usize, refine: f64) -> Result<Vec<f64>, String> {
    let indices: Vec<usize> = (0..draws).collect();
    par_map(&ExecConfig::with_workers(workers()), &indices, |_, &i| {
        let spec = draw_spec(seed, i);
        let base = inverter_sim_options(&spec);
        let opts = base.clone().with_dtmax(base.dtmax / refine);
        measure_inverter_with(&spec, &opts).map(|m| m.i_max)
    })
    .map_err(|e| format!("reference draw {}: {}", e.index, e.source))
}

/// Mean and (linearly interpolated) 95th percentile of I_MAX values.
pub fn mean_p95(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    (mean, percentile(&sorted, 0.95))
}

fn summary_digest(s: &McSummary) -> u64 {
    Digest::default()
        .f64s(&s.i_max_values)
        .word(s.mean_i_max.to_bits())
        .word(s.yield_fraction.to_bits())
        .0
}

pub struct Mc {
    draws: usize,
    yield_limit: f64,
    rng: Rng,
    /// Sweeps completed, across windows.
    calls: u64,
    /// Seed and result digest of the first sweep, re-run by the
    /// repeat-identity check.
    first: Option<(u64, u64)>,
    violation: Option<String>,
}

impl Mc {
    fn sweep(&self, cfg: &ExecConfig, seed: u64, draws: usize) -> softfet::Result<McSummary> {
        monte_carlo_imax_with(
            cfg,
            VDD,
            PtmParams::vo2_default(),
            &PtmVariation::default(),
            draws,
            seed,
            self.yield_limit,
        )
    }
}

impl Workload for Mc {
    const TAILS: [f64; 3] = [0.90, 0.75, 0.75];

    fn setup(size: Size, seed: u64) -> Result<Self, String> {
        let nominal = measure_inverter(&InverterSpec::minimum(
            VDD,
            Topology::SoftFet(PtmParams::vo2_default()),
        ))
        .map_err(|e| format!("nominal inverter: {e}"))?;
        let mc = Mc {
            draws: match size {
                Size::Full => 32,
                Size::Tiny => 4,
            },
            yield_limit: 1.5 * nominal.i_max,
            rng: Rng::new(seed),
            calls: 0,
            first: None,
            violation: None,
        };
        // Warm-up: one sweep on a population the window never draws.
        mc.sweep(&ExecConfig::with_workers(workers()), !seed, mc.draws)
            .map_err(|e| format!("warm-up sweep: {e}"))?;
        Ok(mc)
    }

    fn window(&mut self, budget: Duration, telemetry: &Telemetry) -> Window {
        let cfg = ExecConfig::with_workers(workers()).with_telemetry(telemetry.clone());
        let mut w = Window::default();
        let start = Instant::now();
        while start.elapsed() < budget {
            let seed = self.rng.next_u64();
            let t0 = Instant::now();
            let out = self.sweep(&cfg, seed, self.draws);
            w.attempted += 1;
            match out {
                Ok(s) => {
                    w.complete(start, t0, s.samples as u64, self.calls.is_multiple_of(2));
                    self.calls += 1;
                    if s.i_max_values.iter().any(|v| !v.is_finite()) {
                        self.violation = Some(format!("sweep seed {seed}: non-finite sample"));
                    }
                    self.first.get_or_insert((seed, summary_digest(&s)));
                }
                Err(e) => {
                    w.failed += 1;
                    eprintln!("mc sweep seed {seed} failed: {e}");
                }
            }
        }
        w.wall_s = start.elapsed().as_secs_f64();
        w
    }

    fn check(&mut self) -> Result<f64, String> {
        if let Some(v) = self.violation.take() {
            return Err(v);
        }
        let cfg = ExecConfig::with_workers(workers());
        if let Some((seed, digest)) = self.first {
            let again = self
                .sweep(&cfg, seed, self.draws)
                .map_err(|e| format!("repeat of sweep seed {seed}: {e}"))?;
            if summary_digest(&again) != digest {
                return Err(format!("sweep seed {seed}: repeated population differs"));
            }
        }
        let s = self
            .sweep(&cfg, REF_SEED, REF_DRAWS)
            .map_err(|e| format!("reference population: {e}"))?;
        if s.i_max_values.len() != REF_DRAWS || s.i_max_values.iter().any(|v| !v.is_finite()) {
            return Err("reference population has missing or non-finite samples".into());
        }
        let (mean, p95) = mean_p95(&s.i_max_values);
        let r = reference::mc_inverter()?;
        let err = ((mean - r.mean_i_max) / r.mean_i_max)
            .abs()
            .max(((p95 - r.p95_i_max) / r.p95_i_max).abs());
        println!(
            "mc reference: mean {mean:.6e} A vs {:.6e} A, p95 {p95:.6e} A vs {:.6e} A",
            r.mean_i_max, r.p95_i_max
        );
        if !err.is_finite() || err > MAX_REL_ERR {
            return Err(format!(
                "MC I_MAX off its reference by {err:.3e} (> {MAX_REL_ERR})"
            ));
        }
        Ok(err)
    }

    fn input_digest(&self) -> u64 {
        let mut rng = self.rng.clone();
        let seeds: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        let d = seeds.iter().fold(Digest::default(), |d, &s| d.word(s));
        // The first PTM draw of the first population.
        match draw_spec(seeds[0], 0).topology {
            Topology::SoftFet(p) => d.f64s(&[p.v_imt, p.v_mit, p.r_ins, p.r_met, p.t_ptm]).0,
            _ => d.0,
        }
    }

    fn sim_cases(&self) -> Result<Vec<SimCase>, String> {
        let spec = draw_spec(REF_SEED, 0);
        Ok(vec![SimCase {
            circuit: spec.build().map_err(|e| e.to_string())?,
            tstop: spec.t_stop,
            opts: inverter_sim_options(&spec),
        }])
    }
}
