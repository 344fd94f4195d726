//! Wall-clock measurement helpers: per-vector estimation time (Figure 3's
//! x-axis) and queries-per-second (Figure 4's y-axis).

use std::time::{Duration, Instant};

/// A stopwatch accumulating intervals across start/stop pairs.
#[derive(Clone, Debug, Default)]
pub struct Stopwatch {
    elapsed: Duration,
    started: Option<Instant>,
}

impl Stopwatch {
    /// Creates a stopped stopwatch with zero elapsed time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts (or restarts) the current interval.
    #[inline]
    pub fn start(&mut self) {
        self.started = Some(Instant::now());
    }

    /// Stops the current interval, accumulating its duration. A stop
    /// without a start is a no-op.
    #[inline]
    pub fn stop(&mut self) {
        if let Some(t0) = self.started.take() {
            self.elapsed += t0.elapsed();
        }
    }

    /// Total accumulated time.
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Average nanoseconds per `items` units of work done in the
    /// accumulated time (e.g. per-vector estimation time).
    pub fn nanos_per(&self, items: u64) -> f64 {
        if items == 0 {
            return 0.0;
        }
        self.elapsed.as_nanos() as f64 / items as f64
    }

    /// Throughput in items per second for `items` units of work.
    pub fn per_second(&self, items: u64) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        items as f64 / secs
    }
}

/// Times one closure invocation, returning its result and the duration.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_across_laps() {
        let mut sw = Stopwatch::new();
        let mut before = Duration::ZERO;
        for _ in 0..3 {
            sw.start();
            std::hint::black_box((0..1000).sum::<u64>());
            sw.stop();
            assert!(sw.elapsed() >= before, "laps accumulate");
            before = sw.elapsed();
        }
        assert!(sw.elapsed() > Duration::ZERO);
    }

    #[test]
    fn stop_without_start_is_noop() {
        let mut sw = Stopwatch::new();
        sw.stop();
        assert_eq!(sw.elapsed(), Duration::ZERO);
    }

    #[test]
    fn rates_are_consistent() {
        let mut sw = Stopwatch::new();
        sw.start();
        std::thread::sleep(Duration::from_millis(10));
        sw.stop();
        let qps = sw.per_second(100);
        let ns = sw.nanos_per(100);
        assert!(qps > 0.0 && qps.is_finite());
        // ns/item and items/s must be reciprocal (up to float error).
        assert!((qps * ns / 1e9 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn time_once_returns_value_and_duration() {
        let (v, d) = time_once(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn zero_items_degenerate_cases() {
        let sw = Stopwatch::new();
        assert_eq!(sw.nanos_per(0), 0.0);
        assert_eq!(sw.per_second(5), f64::INFINITY);
    }
}
