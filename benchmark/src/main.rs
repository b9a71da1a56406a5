//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! sfet-benchmark --workload <mc_inverter|pdn_map|serve_mixed> --seed <n>
//!                --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds`;
//! `--trace 1` alternates untraced and traced (telemetry enabled)
//! segments over that time and then measures the per-layer table. The
//! last line of standard output is the result document; a failed
//! correctness check prints it with `"correct": false` and exits with
//! code 1.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sfet_benchmark::layers;
use sfet_benchmark::mc::Mc;
use sfet_benchmark::pdn::Pdn;
use sfet_benchmark::report::{median, peak_rss_mb, result_line, Metrics};
use sfet_benchmark::serve::Serve;
use sfet_benchmark::workload::{Size, Window, Workload};
use sfet_telemetry::{SharedAggregator, Telemetry};

/// Segments the timed window is cut into. A set-up is timed before the
/// first and after each one, so the set-ups of a run sample the host
/// across the whole run; `setup_s` is their median.
const SEGMENTS: usize = 8;

const USAGE: &str = "usage: sfet-benchmark --workload <mc_inverter|pdn_map|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("invalid {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size takes full or tiny, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// The end-to-end metrics of one window, in declaration order.
fn end_to_end<W: Workload>(w: &Window, setup_s: f64, rel_err: f64) -> Metrics {
    let [call, hit, miss] = W::TAILS;
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    let rates = w.slice_rates();
    println!(
        "items_per_s slices: {}",
        rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    m.push("items_per_s", median(&rates), "1/s");
    m.latency("call", &w.calls_ms, call);
    m.latency("hit", &w.hits_ms, hit);
    m.latency("miss", &w.misses_ms, miss);
    m.push("result_rel_err", rel_err, "ratio");
    m.push(
        "success_frac",
        (w.attempted - w.failed) as f64 / w.attempted as f64,
        "ratio",
    );
    m
}

/// Times one set-up of `W`.
fn timed_setup<W: Workload>(args: &Args) -> Result<(f64, W), String> {
    let t0 = Instant::now();
    let w = W::setup(args.size, args.seed)?;
    Ok((t0.elapsed().as_secs_f64(), w))
}

/// Runs the workload; returns whether every check passed and the result
/// line.
fn run<W: Workload>(args: &Args) -> Result<(bool, String), String> {
    let (first, mut w) = timed_setup::<W>(args)?;
    let mut setups = vec![first];
    println!("workload {} seed {}", args.workload, args.seed);
    println!("input_digest {:016x}", w.input_digest());
    w.memory_phase()?;
    let peak_rss = peak_rss_mb();

    // The timed window, segment by segment; with `--trace 1` odd
    // segments run with telemetry enabled. Set-ups between segments are
    // timed and dropped, outside the window.
    let segment = Duration::from_secs(args.seconds) / SEGMENTS as u32;
    let off = Telemetry::disabled();
    let on = Telemetry::new(SharedAggregator::new());
    let (mut window, mut traced) = (Window::default(), Vec::new());
    let mut plain_rates = Vec::new();
    for k in 0..SEGMENTS {
        if args.trace && k % 2 == 1 {
            traced.push(w.window(segment, &on));
        } else {
            let part = w.window(segment, &off);
            plain_rates.push(part.rate());
            window.append(part);
        }
        setups.push(timed_setup::<W>(args)?.0);
    }
    let attempted = window.attempted + traced.iter().map(|t| t.attempted).sum::<u64>();
    let failed = window.failed + traced.iter().map(|t| t.failed).sum::<u64>();
    if window.attempted == 0 || window.calls_ms.is_empty() {
        return Err("the window completed no call".into());
    }

    let (correct, rel_err) = match w.check() {
        Ok(e) => (true, e),
        Err(e) => {
            eprintln!("correctness check failed: {e}");
            (false, f64::NAN)
        }
    };
    println!(
        "setup_s samples: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut e2e = end_to_end::<W>(&window, median(&setups), rel_err);
    e2e.push("peak_rss_mb", peak_rss, "MB");
    e2e.print_table(if args.trace {
        "end-to-end (untraced segments)"
    } else {
        "end-to-end"
    });

    let metrics = if args.trace {
        let mut layer = layers::measure(args.size, args.seed, &w.sim_cases()?)?;
        // Untraced and traced segments alternate, so host drift
        // reaches both groups alike.
        let traced_rates: Vec<f64> = traced.iter().map(Window::rate).collect();
        layer.push(
            "telemetry.overhead_frac",
            median(&traced_rates) / median(&plain_rates) - 1.0,
            "ratio",
        );
        layer.print_table("per layer");
        layer
    } else {
        e2e
    };
    let finite = metrics.0.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("a metric is not finite");
    }
    Ok((
        correct && finite,
        result_line(correct && finite, attempted, failed, &metrics),
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "mc_inverter" => run::<Mc>(&args),
        "pdn_map" => run::<Pdn>(&args),
        "serve_mixed" => run::<Serve>(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
