//! The committed accuracy references in `reference.json`, written by the
//! `make_reference` binary (see the `command` field of that file).

use sfet_serve::json::Json;

const TEXT: &str = include_str!("../reference.json");

fn doc() -> Result<Json, String> {
    Json::parse(TEXT).map_err(|e| format!("reference.json: {e}"))
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("reference.json: missing number {key:?}"))
}

/// Mean and p95 I_MAX of the fixed Monte-Carlo population,
/// simulated at a twentieth of the sweep's `dtmax` \[A\].
pub struct McRef {
    pub mean_i_max: f64,
    pub p95_i_max: f64,
}

pub fn mc_inverter() -> Result<McRef, String> {
    let d = doc()?;
    let m = d
        .get("mc_inverter")
        .ok_or("reference.json: no mc_inverter")?;
    Ok(McRef {
        mean_i_max: num(m, "mean_i_max")?,
        p95_i_max: num(m, "p95_i_max")?,
    })
}

/// Worst droops \[V\] and worst-droop reduction \[%\] of the unperturbed
/// grid, by direct LU at a twentieth of the map's `dtmax`.
pub struct PdnRef {
    pub base_worst_droop: f64,
    pub soft_worst_droop: f64,
    pub reduction_pct: f64,
}

pub fn pdn_map(side: usize) -> Result<PdnRef, String> {
    let d = doc()?;
    let entry = d
        .get("pdn_map")
        .and_then(Json::as_arr)
        .and_then(|a| {
            a.iter()
                .find(|e| e.get("side").and_then(Json::as_f64) == Some(side as f64))
        })
        .ok_or_else(|| format!("reference.json: no pdn_map entry for side {side}"))?;
    Ok(PdnRef {
        base_worst_droop: num(entry, "base_worst_droop")?,
        soft_worst_droop: num(entry, "soft_worst_droop")?,
        reduction_pct: num(entry, "reduction_pct")?,
    })
}
