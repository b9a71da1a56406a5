//! Sample statistics, process memory and the one-line result document.

use std::fmt::Write as _;

use sfet_numeric::exec::task_seed;
use sfet_numeric::stats::percentile;

/// Median of `values` (mean of the middle pair for an even count; NaN
/// when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        f64::NAN
    } else {
        percentile(&v, 0.5)
    }
}

/// Tail percentiles, highest first. A tail is reported at the highest
/// rung not above the metric's preferred one that still leaves at least
/// [`MIN_BEYOND`] samples above it.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];
const MIN_BEYOND: usize = 10;

/// A tail latency: the percentile it was taken at and how many samples
/// lie above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

/// Nearest-rank tail of `values` at `preferred` (one of the ladder
/// rungs), or lower when too few samples lie beyond it. With fewer than
/// `MIN_BEYOND + 1` samples the maximum is reported (`beyond` = 0).
pub fn tail(values: &[f64], preferred: f64) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for &p in TAIL_LADDER.iter().filter(|&&p| p <= preferred) {
        let rank = (p * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= MIN_BEYOND {
            return Tail {
                pct: p,
                value: sorted[rank - 1],
                n,
                beyond: n - rank,
            };
        }
    }
    Tail {
        pct: 1.0,
        value: sorted.last().copied().unwrap_or(f64::NAN),
        n,
        beyond: 0,
    }
}

/// Peak resident set size of this process \[MB\] (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One named, unit-carrying measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Pushes `<prefix>_p50_ms` and `<prefix>_tail_ms` for a latency
    /// sample set and prints which percentile the tail is.
    pub fn latency(&mut self, prefix: &str, ms: &[f64], preferred_tail: f64) {
        let t = tail(ms, preferred_tail);
        println!(
            "{prefix}_tail_ms = p{} of {} samples ({} beyond)",
            (t.pct * 1000.0).round() / 10.0,
            t.n,
            t.beyond
        );
        self.push(format!("{prefix}_p50_ms"), median(ms), "ms");
        self.push(format!("{prefix}_tail_ms"), t.value, "ms");
    }

    /// Prints the metrics as an aligned table, one per line.
    pub fn print_table(&self, title: &str) {
        println!("-- {title}");
        for m in &self.0 {
            println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }

    /// The result document's `metrics` object.
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push('}');
        out
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// FNV-1a over a stream of 64-bit words: a digest for bitwise
/// result-identity checks.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64s(self, values: &[f64]) -> Self {
        values.iter().fold(self, |d, v| d.word(v.to_bits()))
    }

    pub fn bytes(self, bytes: &[u8]) -> Self {
        bytes.chunks(8).fold(self, |d, c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            d.word(u64::from_le_bytes(w))
        })
    }
}

/// The benchmark's seeded input stream: `task_seed(seed, 0)`,
/// `task_seed(seed, 1)`, ...
#[derive(Debug, Clone)]
pub struct Rng {
    seed: u64,
    drawn: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng { seed, drawn: 0 }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.drawn += 1;
        task_seed(self.seed, self.drawn - 1)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v, 0.99);
        assert_eq!((t.pct, t.value, t.beyond), (0.95, 190.0, 10));
        let t = tail(&v, 0.90);
        assert_eq!((t.pct, t.value, t.beyond), (0.90, 180.0, 20));
        let t = tail(&v[..5], 0.99);
        assert_eq!((t.pct, t.value, t.beyond), (1.0, 5.0, 0));
    }

    #[test]
    fn median_of_even_count_is_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
