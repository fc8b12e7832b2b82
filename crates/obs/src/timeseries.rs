//! Thread-local time series: fixed-capacity rings of `(tick, value)`
//! samples per named series.
//!
//! The metrics registry answers "what is the value *now*"; this module
//! answers "how did it get there". The health sampler ([`Db` drives it
//! every N operations](../../core) — see DESIGN.md §14) records each
//! `health.*` gauge here as well, so a long churn run keeps its
//! fragmentation-over-time curve without retaining every sample forever:
//! each series keeps the newest [`SERIES_CAPACITY`] points and counts
//! what it dropped.
//!
//! Ticks are caller-defined monotonic positions (the health sampler uses
//! the operation count), *not* wall-clock timestamps, so recorded series
//! are deterministic under the simulated cost model.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

/// Points retained per series; older points are dropped (and counted)
/// once a series grows past this.
pub const SERIES_CAPACITY: usize = 512;

/// One retained sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Caller-defined monotonic position (e.g. operations completed).
    pub tick: u64,
    /// Sampled value.
    pub value: f64,
}

struct Series {
    points: VecDeque<SeriesPoint>,
    dropped: u64,
}

thread_local! {
    static SERIES: RefCell<BTreeMap<String, Series>> = const { RefCell::new(BTreeMap::new()) };
}

fn with_series<R>(f: impl FnOnce(&mut BTreeMap<String, Series>) -> R) -> R {
    SERIES.with(|s| f(&mut s.borrow_mut()))
}

/// Append one sample to the series `name`, creating it if needed. When
/// the ring is full the oldest point is dropped and counted.
pub fn series_record(name: &str, tick: u64, value: f64) {
    with_series(|map| {
        let series = map.entry(name.to_string()).or_insert_with(|| Series {
            points: VecDeque::with_capacity(16),
            dropped: 0,
        });
        if series.points.len() >= SERIES_CAPACITY {
            series.points.pop_front();
            series.dropped += 1;
        }
        series.points.push_back(SeriesPoint { tick, value });
    });
}

/// Wipe this thread's time-series store.
pub fn reset() {
    with_series(|map| map.clear());
}

/// Names of every series on this thread, sorted.
pub fn series_names() -> Vec<String> {
    with_series(|map| map.keys().cloned().collect())
}

/// Point-in-time copy of one series (`None` if it was never recorded).
pub fn series_snapshot(name: &str) -> Option<SeriesSnapshot> {
    with_series(|map| {
        map.get(name).map(|s| SeriesSnapshot {
            name: name.to_string(),
            dropped: s.dropped,
            points: s.points.iter().copied().collect(),
        })
    })
}

/// A captured series: the retained ring plus how much history it shed.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesSnapshot {
    /// Series name (same namespace as gauges, e.g. `health.leaf.frag_ratio`).
    pub name: String,
    /// Points discarded because the ring was full.
    pub dropped: u64,
    /// Retained points, oldest first.
    pub points: Vec<SeriesPoint>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_round_trip() {
        reset();
        series_record("t.s", 10, 0.5);
        series_record("t.s", 20, 0.25);
        series_record("t.other", 1, 9.0);
        let snap = series_snapshot("t.s").unwrap();
        assert_eq!(snap.dropped, 0);
        assert_eq!(
            snap.points,
            vec![
                SeriesPoint {
                    tick: 10,
                    value: 0.5
                },
                SeriesPoint {
                    tick: 20,
                    value: 0.25
                }
            ]
        );
        assert_eq!(series_names(), vec!["t.other", "t.s"]);
        assert_eq!(series_snapshot("t.never"), None);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        reset();
        for i in 0..(SERIES_CAPACITY as u64 + 7) {
            series_record("t.ring", i, i as f64);
        }
        let snap = series_snapshot("t.ring").unwrap();
        assert_eq!(snap.points.len(), SERIES_CAPACITY);
        assert_eq!(snap.dropped, 7);
        assert_eq!(snap.points[0].tick, 7, "oldest retained after 7 drops");
        assert_eq!(
            snap.points.last().map(|p| p.value),
            Some(SERIES_CAPACITY as f64 + 6.0)
        );
    }

    #[test]
    fn reset_clears_series() {
        series_record("t.r", 1, 1.0);
        reset();
        assert!(series_names().is_empty());
        assert_eq!(series_snapshot("t.r"), None);
    }
}
