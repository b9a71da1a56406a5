//! `pdn_map`: repeated sweeps of [`softfet::droop::compare_grid`]
//! (baseline droop map plus Soft-FET-spread map) over chip-grid variants
//! under the default solver policy (`SolverPolicy::Auto`).
//!
//! Each call compares one fresh seeded grid variant (per-site load
//! current and mesh resistance) per core, one exec task each. Variants
//! keep the matrix shape and the step grid, so every call does the same
//! amount of work. A single caller's maps would run on whichever core it
//! lands on, and the cores of a shared host can differ in speed by up to
//! 25 % for a whole run; one task per core keeps every core in every call.

use std::time::{Duration, Instant};

use sfet_numeric::exec::{par_map, ExecConfig};
use sfet_pdn::PdnGrid;
use sfet_sim::{SimOptions, SolverPolicy};
use sfet_telemetry::Telemetry;
use softfet::droop::{compare_grid, GridComparison};

use crate::reference;
use crate::report::{Digest, Rng};
use crate::workload::{workers, SimCase, Size, Window, Workload};

/// Soft-FET edge spread and droop guard band of every comparison.
pub const SPREAD: f64 = 8.0;
pub const GUARD_BAND: f64 = 0.05;
/// Time points per map: the library's `droop_map` default.
pub const POINTS: usize = 400;
/// Accuracy gate against the reference, and the GMRES-vs-LU gate.
const MAX_REL_ERR: f64 = 0.05;
const MAX_GMRES_DIFF: f64 = 1e-6;

/// Tiles per side of the measured grid.
pub fn grid_side(size: Size) -> usize {
    match size {
        Size::Full => 8,
        Size::Tiny => 4,
    }
}

/// The unperturbed grid: the one references and layer probes use.
pub fn reference_grid(size: Size) -> PdnGrid {
    let n = grid_side(size);
    PdnGrid::chip(n, n)
}

/// Map options under `policy`, the library default density.
pub fn options(grid: &PdnGrid, policy: SolverPolicy) -> SimOptions {
    SimOptions::for_duration(grid.t_stop, POINTS).with_solver_policy(policy)
}

fn comparison_digest(c: &GridComparison) -> u64 {
    let mut d = Digest::default().word(c.reduction_pct.to_bits());
    for m in [&c.base, &c.soft] {
        d = d
            .f64s(&[m.worst_droop, m.mean_droop, m.p95_droop])
            .word(m.violations as u64);
    }
    d.0
}

/// Relative differences of a comparison's worst droops and reduction
/// against the reference; the largest of the three.
pub fn rel_err_vs(c: &GridComparison, r: &reference::PdnRef) -> f64 {
    [
        (c.base.worst_droop, r.base_worst_droop),
        (c.soft.worst_droop, r.soft_worst_droop),
        (c.reduction_pct, r.reduction_pct),
    ]
    .iter()
    .map(|(got, want)| ((got - want) / want).abs())
    .fold(0.0, f64::max)
}

pub struct Pdn {
    size: Size,
    rng: Rng,
    /// Sweeps completed, across windows.
    calls: u64,
    /// Variant and result digest of the first comparison, re-run by the
    /// repeat-identity check.
    first: Option<((f64, f64), u64)>,
}

impl Pdn {
    /// The reference grid with its load current and mesh resistance
    /// scaled.
    fn variant_grid(&self, (i_scale, r_scale): (f64, f64)) -> PdnGrid {
        let base = reference_grid(self.size);
        PdnGrid {
            i_site: base.i_site * i_scale,
            r_mesh: base.r_mesh * r_scale,
            ..base
        }
    }

    /// A fresh grid variant: load-current and mesh-resistance scales.
    fn fresh_variant(rng: &mut Rng) -> (f64, f64) {
        (0.8 + 0.4 * rng.unit(), 0.8 + 0.4 * rng.unit())
    }

    fn compare(
        &self,
        variant: (f64, f64),
        telemetry: &Telemetry,
    ) -> softfet::Result<GridComparison> {
        let grid = self.variant_grid(variant);
        let opts = options(&grid, SolverPolicy::Auto).with_telemetry(telemetry.clone());
        compare_grid(&grid, SPREAD, GUARD_BAND, &opts)
    }

    /// One call: every variant compared, one exec task each.
    fn sweep(
        &self,
        variants: &[(f64, f64)],
        telemetry: &Telemetry,
    ) -> Result<Vec<GridComparison>, String> {
        let cfg = ExecConfig::with_workers(workers()).with_telemetry(telemetry.clone());
        par_map(&cfg, variants, |_, &v| self.compare(v, telemetry))
            .map_err(|e| format!("variant {:?}: {}", variants[e.index], e.source))
    }
}

impl Workload for Pdn {
    const TAILS: [f64; 3] = [0.90, 0.75, 0.75];

    fn setup(size: Size, seed: u64) -> Result<Self, String> {
        let pdn = Pdn {
            size,
            rng: Rng::new(seed),
            calls: 0,
            first: None,
        };
        // Warm-up on a variant the window never draws.
        pdn.sweep(&vec![(0.7, 0.7); workers()], &Telemetry::disabled())
            .map_err(|e| format!("warm-up sweep: {e}"))?;
        Ok(pdn)
    }

    fn window(&mut self, budget: Duration, telemetry: &Telemetry) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        while start.elapsed() < budget {
            // One variant per worker.
            let variants: Vec<(f64, f64)> = (0..workers())
                .map(|_| Self::fresh_variant(&mut self.rng))
                .collect();
            let t0 = Instant::now();
            let out = self.sweep(&variants, telemetry);
            w.attempted += 1;
            match out {
                Ok(cs) => {
                    w.complete(start, t0, cs.len() as u64, self.calls.is_multiple_of(2));
                    self.calls += 1;
                    self.first
                        .get_or_insert((variants[0], comparison_digest(&cs[0])));
                }
                Err(e) => {
                    w.failed += 1;
                    eprintln!("pdn sweep failed: {e}");
                }
            }
        }
        w.wall_s = start.elapsed().as_secs_f64();
        w
    }

    fn check(&mut self) -> Result<f64, String> {
        if let Some((variant, digest)) = self.first {
            let again = self
                .compare(variant, &Telemetry::disabled())
                .map_err(|e| format!("repeat of grid variant {variant:?}: {e}"))?;
            if comparison_digest(&again) != digest {
                return Err(format!("grid variant {variant:?}: repeated map differs"));
            }
        }
        let grid = reference_grid(self.size);
        let direct = grid
            .droop_map_with(&options(&grid, SolverPolicy::Direct))
            .map_err(|e| format!("direct-LU map: {e}"))?;
        let gmres = grid
            .droop_map_with(&options(&grid, SolverPolicy::Iterative))
            .map_err(|e| format!("GMRES map: {e}"))?;
        let diff = direct.max_rel_diff(&gmres).map_err(|e| e.to_string())?;
        println!("pdn GMRES vs direct LU: max relative tile difference {diff:.3e}");
        if diff.is_nan() || diff > MAX_GMRES_DIFF {
            return Err(format!(
                "GMRES map differs from direct LU by {diff:e} (> {MAX_GMRES_DIFF:e})"
            ));
        }
        let c = compare_grid(
            &grid,
            SPREAD,
            GUARD_BAND,
            &options(&grid, SolverPolicy::Auto),
        )
        .map_err(|e| format!("reference comparison: {e}"))?;
        let r = reference::pdn_map(grid_side(self.size))?;
        let err = rel_err_vs(&c, &r);
        println!(
            "pdn reference: base worst {:.6e} V vs {:.6e} V, soft worst {:.6e} V vs {:.6e} V, \
             reduction {:.4} % vs {:.4} %",
            c.base.worst_droop,
            r.base_worst_droop,
            c.soft.worst_droop,
            r.soft_worst_droop,
            c.reduction_pct,
            r.reduction_pct
        );
        if !err.is_finite() || err > MAX_REL_ERR {
            return Err(format!(
                "droop map off its reference by {err:.3e} (> {MAX_REL_ERR})"
            ));
        }
        Ok(err)
    }

    fn input_digest(&self) -> u64 {
        let mut rng = self.rng.clone();
        let flat: Vec<f64> = (0..16)
            .flat_map(|_| {
                let (a, b) = Self::fresh_variant(&mut rng);
                [a, b]
            })
            .collect();
        Digest::default().f64s(&flat).0
    }

    fn sim_cases(&self) -> Result<Vec<SimCase>, String> {
        let grid = reference_grid(self.size);
        Ok(vec![SimCase {
            circuit: grid.build().map_err(|e| e.to_string())?,
            tstop: grid.t_stop,
            opts: options(&grid, SolverPolicy::Auto),
        }])
    }
}
