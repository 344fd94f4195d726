//! Clocks, order statistics and the five-repetition rule every timing
//! metric of the ledger goes through.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Every timed window is split into this many equal repetitions; the
/// reported value is their median, with min/max printed beside it.
pub const REPS: usize = 5;

/// Nanoseconds since the first call in this process — the one clock spans
/// and latency samples share.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Process CPU time (user + system, every thread) in milliseconds, from
/// `/proc/self/stat`. Linux reports it in `USER_HZ` ticks, fixed at 100
/// for user space. Returns 0 where `/proc` is missing.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 * 10.0
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Median, min and max of one metric's repetitions.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Self {
        Self {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let (a, b) = (f(self.min), f(self.max));
        Self {
            median: f(self.median),
            min: a.min(b),
            max: a.max(b),
        }
    }
}

/// Runs `step` back to back for `budget`, split into [`REPS`] equal
/// repetitions, and returns nanoseconds per unit of work. `step` returns
/// how many units one call did (codes scanned, vectors encoded, …).
pub fn time_reps(budget: Duration, mut step: impl FnMut() -> u64) -> Spread {
    let rep = budget / REPS as u32;
    let per_unit: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut units = 0u64;
            loop {
                units += step();
                let elapsed = start.elapsed();
                if elapsed >= rep {
                    return elapsed.as_nanos() as f64 / units.max(1) as f64;
                }
            }
        })
        .collect();
    Spread::of(&per_unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 1.0), 100);
        let s = Spread::of(&[5.0, 1.0, 9.0]);
        assert_eq!((s.median, s.min, s.max), (5.0, 1.0, 9.0));
        // An inverting map (rate from period) keeps min <= max.
        let r = s.map(|v| 1.0 / v);
        assert!(r.min <= r.median && r.median <= r.max);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_ms();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ms() >= before);
    }
}
