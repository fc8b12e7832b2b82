//! I/O accounting: calls, pages, and simulated time.

use std::ops::Sub;

use lobstore_obs::json::Value;

/// Cumulative I/O statistics of a [`crate::SimDisk`].
///
/// Every read or write *call* bumps the call counter once (one seek) and
/// the page counters by the number of pages moved. `time_us` accumulates
/// the simulated cost per the disk's [`crate::CostModel`].
///
/// Experiments usually take a snapshot before an operation and subtract
/// (`after - before`) to get the operation's cost; [`IoStats`] implements
/// `Sub` for exactly that.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of read I/O calls (each charged one seek).
    pub read_calls: u64,
    /// Number of write I/O calls (each charged one seek).
    pub write_calls: u64,
    /// Total pages transferred by reads.
    pub pages_read: u64,
    /// Total pages transferred by writes.
    pub pages_written: u64,
    /// Simulated elapsed I/O time, in microseconds.
    pub time_us: u64,
}

impl IoStats {
    /// Total number of I/O calls (seeks).
    #[inline]
    pub fn calls(&self) -> u64 {
        self.read_calls + self.write_calls
    }

    /// Total pages transferred in either direction.
    #[inline]
    pub fn pages(&self) -> u64 {
        self.pages_read + self.pages_written
    }

    /// Simulated time in milliseconds.
    #[inline]
    pub fn time_ms(&self) -> f64 {
        self.time_us as f64 / 1_000.0
    }

    /// Simulated time in seconds.
    #[inline]
    pub fn time_s(&self) -> f64 {
        self.time_us as f64 / 1_000_000.0
    }

    /// The stats as a JSON [`Value`] object, field names matching the
    /// struct. `lobctl stats --json` and lobbench embed this.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("read_calls".to_string(), Value::from(self.read_calls)),
            ("write_calls".to_string(), Value::from(self.write_calls)),
            ("pages_read".to_string(), Value::from(self.pages_read)),
            ("pages_written".to_string(), Value::from(self.pages_written)),
            ("time_us".to_string(), Value::from(self.time_us)),
        ])
    }
}

impl Sub for IoStats {
    type Output = IoStats;

    /// Delta between two snapshots. Panics in debug builds if `rhs` is not
    /// an earlier snapshot of the same counter stream.
    fn sub(self, rhs: IoStats) -> IoStats {
        IoStats {
            read_calls: self.read_calls - rhs.read_calls,
            write_calls: self.write_calls - rhs.write_calls,
            pages_read: self.pages_read - rhs.pages_read,
            pages_written: self.pages_written - rhs.pages_written,
            time_us: self.time_us - rhs.time_us,
        }
    }
}

impl std::ops::Add for IoStats {
    type Output = IoStats;

    fn add(self, rhs: IoStats) -> IoStats {
        // Counters are monotone; saturate rather than wrap if a run ever
        // accumulates past u64::MAX.
        IoStats {
            read_calls: self.read_calls.saturating_add(rhs.read_calls),
            write_calls: self.write_calls.saturating_add(rhs.write_calls),
            pages_read: self.pages_read.saturating_add(rhs.pages_read),
            pages_written: self.pages_written.saturating_add(rhs.pages_written),
            time_us: self.time_us.saturating_add(rhs.time_us),
        }
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} calls ({}r/{}w), {} pages ({}r/{}w), {:.3} ms",
            self.calls(),
            self.read_calls,
            self.write_calls,
            self.pages(),
            self.pages_read,
            self.pages_written,
            self.time_ms()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rc: u64, wc: u64, pr: u64, pw: u64, t: u64) -> IoStats {
        IoStats {
            read_calls: rc,
            write_calls: wc,
            pages_read: pr,
            pages_written: pw,
            time_us: t,
        }
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = sample(10, 5, 40, 20, 1_000);
        let b = sample(4, 2, 16, 8, 400);
        let d = a - b;
        assert_eq!(d, sample(6, 3, 24, 12, 600));
        assert_eq!(d.calls(), 9);
        assert_eq!(d.pages(), 36);
    }

    #[test]
    fn add_is_inverse_of_sub() {
        let a = sample(7, 7, 7, 7, 7);
        let b = sample(1, 2, 3, 4, 5);
        assert_eq!((a - b) + b, a);
    }

    #[test]
    fn time_conversions() {
        let s = sample(0, 0, 0, 0, 22_300_000);
        assert!((s.time_s() - 22.3).abs() < 1e-9);
        assert!((s.time_ms() - 22_300.0).abs() < 1e-9);
    }
}
