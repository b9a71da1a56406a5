//! Writes the accuracy references of `reference.json` to standard
//! output. From the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml \
//!     --bin make_reference > benchmark/reference.json
//! ```
//!
//! References are simulated at a twentieth of the workloads' `dtmax`, and
//! again at a fortieth so the file records how far the reference itself
//! is from convergence. No reference uses di/dt: its value is a property
//! of the step grid, not of the circuit.

use sfet_benchmark::mc::{self, REF_DRAWS, REF_SEED, VDD};
use sfet_benchmark::pdn;
use sfet_benchmark::workload::{workers, Size};
use sfet_devices::ptm::PtmParams;
use sfet_numeric::exec::ExecConfig;
use sfet_sim::SolverPolicy;
use softfet::droop::compare_grid;
use softfet::variation::{monte_carlo_imax_with, PtmVariation};

const COMMAND: &str = "cargo run --release --offline --manifest-path benchmark/Cargo.toml \
                       --bin make_reference > benchmark/reference.json";

fn main() -> Result<(), String> {
    // The replicated draws must be the library's own population.
    let mut replicated = mc::population_imax(REF_SEED, REF_DRAWS, 1.0)?;
    replicated.sort_by(f64::total_cmp);
    let library = monte_carlo_imax_with(
        &ExecConfig::with_workers(workers()),
        VDD,
        PtmParams::vo2_default(),
        &PtmVariation::default(),
        REF_DRAWS,
        REF_SEED,
        f64::INFINITY,
    )
    .map_err(|e| e.to_string())?;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&replicated) != bits(&library.i_max_values) {
        return Err("replicated draws differ from the library's population".into());
    }
    let (mean20, p95_20) = mc::mean_p95(&mc::population_imax(REF_SEED, REF_DRAWS, 20.0)?);
    let (mean40, p95_40) = mc::mean_p95(&mc::population_imax(REF_SEED, REF_DRAWS, 40.0)?);

    let mut grids = Vec::new();
    for size in [Size::Tiny, Size::Full] {
        let grid = pdn::reference_grid(size);
        let direct = pdn::options(&grid, SolverPolicy::Direct);
        let at = |div: f64| {
            compare_grid(
                &grid,
                pdn::SPREAD,
                pdn::GUARD_BAND,
                &direct.clone().with_dtmax(direct.dtmax / div),
            )
            .map_err(|e| e.to_string())
        };
        let (c20, c40) = (at(20.0)?, at(40.0)?);
        grids.push(format!(
            "    {{\"side\": {}, \"dtmax_divisor\": 20, \"base_worst_droop\": {:?}, \
             \"soft_worst_droop\": {:?}, \"reduction_pct\": {:?},\n     \
             \"at_dtmax_divisor_40\": {{\"base_worst_droop\": {:?}, \
             \"soft_worst_droop\": {:?}, \"reduction_pct\": {:?}}}}}",
            pdn::grid_side(size),
            c20.base.worst_droop,
            c20.soft.worst_droop,
            c20.reduction_pct,
            c40.base.worst_droop,
            c40.soft.worst_droop,
            c40.reduction_pct
        ));
    }

    println!("{{");
    println!("  \"command\": \"{COMMAND}\",");
    println!(
        "  \"mc_inverter\": {{\"seed\": {REF_SEED}, \"draws\": {REF_DRAWS}, \"vdd\": {VDD:?}, \
         \"dtmax_divisor\": 20, \"mean_i_max\": {mean20:?}, \"p95_i_max\": {p95_20:?},\n    \
         \"at_dtmax_divisor_40\": {{\"mean_i_max\": {mean40:?}, \"p95_i_max\": {p95_40:?}}}}},"
    );
    println!("  \"pdn_map\": [\n{}\n  ]", grids.join(",\n"));
    println!("}}");
    Ok(())
}
