//! Self-test of the benchmark at a tiny size: every declared metric is
//! emitted with its declared unit and a finite value, the count metrics
//! of the traced run repeat exactly, and a different seed changes the
//! drawn inputs but not the metric set.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

use sfet_serve::json::Json;

const WORKLOADS: [&str; 3] = ["mc_inverter", "pdn_map", "serve_mixed"];

/// Per-layer metrics that are counts of deterministic work, or exact
/// functions of such counts.
const EXACT: [&str; 8] = [
    "sim.steps_accepted",
    "sim.steps_rejected",
    "sim.newton_per_step",
    "numeric.gmres_iters_per_solve",
    "serve.cache_hit_frac",
    "serve.coalesced",
    "serve.rejected_429",
    "serve.result_bytes",
];

/// `name -> unit` of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

struct Run {
    digest: String,
    metrics: BTreeMap<String, (f64, String)>,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_sfet-benchmark"))
        .args(["--workload", workload, "--size", "tiny", "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("input_digest "))
        .expect("input digest line")
        .to_owned();
    let doc = Json::parse(stdout.lines().last().expect("result line")).expect("result JSON");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    let Some(Json::Obj(pairs)) = doc.get("metrics") else {
        panic!("metrics object missing");
    };
    let metrics = pairs
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), (value, unit.to_owned()))
        })
        .collect();
    Run { digest, metrics }
}

fn assert_declared(run: &Run, list: &str, what: &str) {
    let want = declared(list);
    let got: BTreeMap<String, String> = run
        .metrics
        .iter()
        .map(|(k, (_, u))| (k.clone(), u.clone()))
        .collect();
    assert_eq!(got, want, "{what}: metric names and units");
    for (name, (value, _)) in &run.metrics {
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
}

#[test]
fn every_workload_emits_its_declared_metrics() {
    for w in WORKLOADS {
        let a = run(w, 7, 0);
        assert_declared(&a, "end_to_end", w);
        let b = run(w, 8, 0);
        assert_declared(&b, "end_to_end", w);
        assert_ne!(a.digest, b.digest, "{w}: a new seed must draw new inputs");
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    for w in WORKLOADS {
        let a = run(w, 11, 1);
        assert_declared(&a, "per_layer", w);
        let b = run(w, 11, 1);
        assert_eq!(a.digest, b.digest, "{w}: same seed, same inputs");
        for name in EXACT {
            assert_eq!(
                a.metrics[name].0.to_bits(),
                b.metrics[name].0.to_bits(),
                "{w}: {name} must repeat exactly"
            );
        }
    }
}
