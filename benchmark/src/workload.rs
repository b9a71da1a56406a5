//! What every workload provides to the runner in `main.rs`.

use std::time::{Duration, Instant};

use sfet_circuit::Circuit;
use sfet_sim::SimOptions;
use sfet_telemetry::Telemetry;

/// Worker count for every sweep: the host's parallelism.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Input size: `Full` for measurement, `Tiny` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// What one closed-loop measurement window produced. Latencies are in
/// milliseconds, one entry per top-level call.
#[derive(Debug, Default)]
pub struct Window {
    pub wall_s: f64,
    /// Start and end \[s since the window began\] and result count
    /// (MC samples, grid comparisons or served jobs) of each completed
    /// call.
    pub done: Vec<(f64, f64, u64)>,
    /// Top-level calls issued, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub calls_ms: Vec<f64>,
    /// Serve: jobs answered from the store. Monte-Carlo and PDN have no
    /// cache: their even-numbered calls (predicted equal to the odd).
    pub hits_ms: Vec<f64>,
    /// Serve: jobs simulated and stored. Monte-Carlo and PDN: their
    /// odd-numbered calls.
    pub misses_ms: Vec<f64>,
}

/// Slices of a window that `items_per_s` takes its median over.
const RATE_SLICES: usize = 10;

impl Window {
    /// Records a completed call that started `t0` after `start`.
    pub fn complete(&mut self, start: Instant, t0: Instant, items: u64, hit: bool) {
        let (a, b) = (t0 - start, t0.elapsed());
        let ms = b.as_secs_f64() * 1e3;
        self.done
            .push((a.as_secs_f64(), (a + b).as_secs_f64(), items));
        self.calls_ms.push(ms);
        (if hit {
            &mut self.hits_ms
        } else {
            &mut self.misses_ms
        })
        .push(ms);
    }

    /// Appends a window that ran after this one; its times are shifted
    /// to follow on without a gap.
    pub fn append(&mut self, other: Window) {
        let shift = self.wall_s;
        self.done.extend(
            other
                .done
                .iter()
                .map(|&(a, b, n)| (a + shift, b + shift, n)),
        );
        self.wall_s += other.wall_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.calls_ms.extend(other.calls_ms);
        self.hits_ms.extend(other.hits_ms);
        self.misses_ms.extend(other.misses_ms);
    }

    /// Completed results per host second over the whole window.
    pub fn rate(&self) -> f64 {
        self.done.iter().map(|d| d.2 as f64).sum::<f64>() / self.wall_s
    }

    /// Completed results per host second in each of `RATE_SLICES` equal
    /// slices of the window, each call's results spread evenly over its
    /// duration.
    pub fn slice_rates(&self) -> Vec<f64> {
        let len = self.wall_s / RATE_SLICES as f64;
        let mut rates = vec![0.0; RATE_SLICES];
        for &(a, b, items) in &self.done {
            for (k, r) in rates.iter_mut().enumerate() {
                let (lo, hi) = (k as f64 * len, (k + 1) as f64 * len);
                let overlap = (b.min(hi) - a.max(lo)).max(0.0);
                *r += items as f64 * overlap / (b - a).max(f64::MIN_POSITIVE) / len;
            }
        }
        rates
    }
}

/// One transient the `sim.*` layer metrics are measured on.
pub struct SimCase {
    pub circuit: Circuit,
    pub tstop: f64,
    pub opts: SimOptions,
}

pub trait Workload: Sized {
    /// Preferred tail percentiles for calls, hits and misses, chosen so
    /// a full-size run holds well over ten samples beyond each.
    const TAILS: [f64; 3];

    /// Builds inputs and references, starts services and warms up.
    fn setup(size: Size, seed: u64) -> Result<Self, String>;

    /// A fixed amount of work after set-up, before any timed window;
    /// `peak_rss_mb` is read right after it, so the figure does not grow
    /// with throughput. By default the set-up's warm-up call is that work.
    fn memory_phase(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Runs the closed loop for `budget`, attaching `telemetry` wherever
    /// the library takes a handle.
    fn window(&mut self, budget: Duration, telemetry: &Telemetry) -> Window;

    /// Correctness checks, run outside the timed window. Returns the
    /// workload's `result_rel_err` against its fixed reference.
    fn check(&mut self) -> Result<f64, String>;

    /// Digest of the seeded inputs the window draws from.
    fn input_digest(&self) -> u64;

    /// The workload's circuits, for the `sim.*` layer metrics.
    fn sim_cases(&self) -> Result<Vec<SimCase>, String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_follows_on_without_a_gap() {
        let part = |items| Window {
            wall_s: 2.0,
            done: vec![(0.0, 2.0, items)],
            attempted: 1,
            calls_ms: vec![2000.0],
            ..Window::default()
        };
        let mut w = part(10);
        w.append(part(30));
        assert_eq!(w.wall_s, 4.0);
        assert_eq!(w.done[1], (2.0, 4.0, 30));
        assert_eq!(w.attempted, 2);
        assert_eq!(w.rate(), 10.0);
        let rates = w.slice_rates();
        assert!((rates[0] - 5.0).abs() < 1e-9 && (rates[9] - 15.0).abs() < 1e-9);
    }
}
