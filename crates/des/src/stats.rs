//! Lightweight statistics accumulators used by every simulation layer.

use crate::Time;
use serde::{Deserialize, Serialize};

/// Streaming summary statistics (count / sum / min / max / mean).
///
/// # Example
///
/// ```
/// use astra_des::stats::RunningStats;
/// let mut s = RunningStats::new();
/// for v in [4.0, 6.0] { s.record(v); }
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.min(), Some(4.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Records a [`Time`] sample as cycles.
    pub fn record_time(&mut self, t: Time) {
        self.record(t.cycles() as f64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RunningStats) {
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        s.record(10.0);
        s.record(20.0);
        s.record(-3.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 27.0);
        assert_eq!(s.mean(), 9.0);
        assert_eq!(s.min(), Some(-3.0));
        assert_eq!(s.max(), Some(20.0));
    }

    #[test]
    fn running_stats_merge() {
        let mut a = RunningStats::new();
        a.record(1.0);
        let mut b = RunningStats::new();
        b.record(5.0);
        b.record(-2.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(-2.0));
        assert_eq!(a.max(), Some(5.0));
        // Merging an empty accumulator is a no-op.
        a.merge(&RunningStats::new());
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn record_time_counts_cycles() {
        let mut s = RunningStats::new();
        s.record_time(Time::from_cycles(100));
        assert_eq!(s.sum(), 100.0);
    }
}
