//! The metrics registry: counters, gauges, and log₂-bucketed
//! histograms, addressed by static handle or by name.
//!
//! Every metric has a process-wide **slot number** per kind, handed out
//! by the slot ↔ name table ([`SLOTS`]) the first time its name is seen
//! and never reused. Values live in dense per-thread `Vec`s indexed by
//! slot, so an update through a handle ([`Counter`], [`Gauge`],
//! [`Histogram`]: a `static` that resolves its slot once) is one
//! thread-local borrow and one index — no string compare, no allocation,
//! no lock. The name-keyed functions ([`counter_add`] and friends)
//! address the *same* cells: name → slot through a per-thread memo, then
//! the same update; they are what tests, tools and computed names
//! (`health.<area>.<metric>`) use.
//!
//! Storage is per-thread on purpose: a bump needs no synchronization,
//! and parallel tests that `reset()` and then assert exact values cannot
//! disturb each other. Worker threads hand their numbers over with
//! [`snapshot`] + [`merge_thread_registry`]. Only slot *numbers* are
//! process-wide, which is what would let the cells move behind
//! [`Counter::add`] into shared atomics later without touching a caller.
//!
//! Names should be `dotted.lowercase` and stable; the catalog lives in
//! DESIGN.md ("Observability") and is checked against the handles each
//! crate declares with [`metrics!`](crate::metrics!).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::json::Value;
use crate::sync::{self, Guard, Rank};

/// Number of log₂ buckets a histogram keeps: bucket 0 holds the value 0,
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Clone)]
struct Histo {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histo {
    const fn new() -> Histo {
        Histo {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn record(&mut self, value: u64) {
        if let Some(b) = self.buckets.get_mut(bucket_of(value)) {
            *b = b.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect(),
            max: self.max,
        }
    }
}

fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        usize::try_from(64 - value.leading_zeros()).unwrap_or(HISTOGRAM_BUCKETS - 1)
    }
}

// ---- the process-wide slot ↔ name table ------------------------------------

/// The three metric kinds; each has a slot space of its own, so a
/// counter and a histogram may share a name.
#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// One kind's name → slot map. Slots count up from 0 in order of first
/// use and are never freed or renumbered.
struct SlotNames(BTreeMap<String, usize>);

impl SlotNames {
    fn find(&self, name: &str) -> Option<usize> {
        self.0.get(name).copied()
    }

    /// The slot of `name`; a new name gets the next one.
    fn intern(&mut self, name: &str) -> usize {
        if let Some(slot) = self.find(name) {
            return slot;
        }
        let slot = self.0.len();
        self.0.insert(name.to_string(), slot);
        slot
    }
}

/// The slot ↔ name table.
struct SlotTable {
    counters: SlotNames,
    gauges: SlotNames,
    histos: SlotNames,
}

impl SlotTable {
    fn names(&mut self, kind: Kind) -> &mut SlotNames {
        match kind {
            Kind::Counter => &mut self.counters,
            Kind::Gauge => &mut self.gauges,
            Kind::Histogram => &mut self.histos,
        }
    }
}

/// Innermost lock of the workspace ([`Rank::MetricSlots`]): taken for a name's
/// first resolution on a thread and for [`snapshot`], held over map work
/// only, never across a call out of this module.
static SLOTS: Mutex<SlotTable> = Mutex::new(SlotTable {
    counters: SlotNames(BTreeMap::new()),
    gauges: SlotNames(BTreeMap::new()),
    histos: SlotNames(BTreeMap::new()),
});

fn slots() -> Guard<MutexGuard<'static, SlotTable>> {
    sync::lock(&SLOTS, Rank::MetricSlots)
}

// ---- static handles ---------------------------------------------------------

const UNRESOLVED: usize = usize::MAX;

/// A name and its lazily resolved slot; the common part of the three
/// handle types.
struct Handle {
    name: &'static str,
    slot: AtomicUsize,
}

impl Handle {
    const fn new(name: &'static str) -> Handle {
        Handle {
            name,
            slot: AtomicUsize::new(UNRESOLVED),
        }
    }

    /// The handle's slot, asking the table on first use. `Relaxed`: the
    /// number publishes nothing but itself (the table it indexes is
    /// behind [`SLOTS`]), and racing first uses all get the same answer.
    fn slot(&self, kind: Kind) -> usize {
        let known = self.slot.load(Ordering::Relaxed);
        if known != UNRESOLVED {
            return known;
        }
        let slot = slots().names(kind).intern(self.name);
        self.slot.store(slot, Ordering::Relaxed);
        slot
    }
}

/// A monotonically increasing counter, declared once as a `static` and
/// bumped without a name lookup. Addresses the same cell as
/// [`counter_add`] with the same name.
pub struct Counter(Handle);

impl Counter {
    /// A handle for the counter `name`. `const`, so handles are plain
    /// `static`s; the slot is resolved on first use.
    pub const fn new(name: &'static str) -> Counter {
        Counter(Handle::new(name))
    }

    /// The counter's name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// Add `n` (saturating at `u64::MAX`), creating the counter at zero
    /// first if this thread has not touched it since [`reset`](crate::reset).
    pub fn add(&self, n: u64) {
        let slot = self.0.slot(Kind::Counter);
        with_registry(|r| r.counters.update(slot, |c| add_to(c, n)));
    }

    /// This thread's current value (0 if untouched since [`reset`](crate::reset)).
    pub fn value(&self) -> u64 {
        let slot = self.0.slot(Kind::Counter);
        with_registry(|r| r.counters.get(slot).copied().unwrap_or(0))
    }
}

/// A last-value gauge, declared once as a `static`. Addresses the same
/// cell as [`gauge_set`] with the same name.
pub struct Gauge(Handle);

impl Gauge {
    /// A handle for the gauge `name`; see [`Counter::new`].
    pub const fn new(name: &'static str) -> Gauge {
        Gauge(Handle::new(name))
    }

    /// The gauge's name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// Set the gauge to `v`.
    pub fn set(&self, v: f64) {
        let slot = self.0.slot(Kind::Gauge);
        with_registry(|r| r.gauges.update(slot, |g| *g = Some(v)));
    }

    /// This thread's current reading (`None` if unset since [`reset`](crate::reset)).
    pub fn value(&self) -> Option<f64> {
        let slot = self.0.slot(Kind::Gauge);
        with_registry(|r| r.gauges.get(slot).copied())
    }
}

/// A log₂-bucketed histogram, declared once as a `static`. Addresses
/// the same cell as [`histogram_record`] with the same name.
pub struct Histogram(Handle);

impl Histogram {
    /// A handle for the histogram `name`; see [`Counter::new`].
    pub const fn new(name: &'static str) -> Histogram {
        Histogram(Handle::new(name))
    }

    /// The histogram's name.
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// Record one observation of `value`.
    pub fn record(&self, value: u64) {
        let slot = self.0.slot(Kind::Histogram);
        with_registry(|r| r.histos.update(slot, |h| record_in(h, value)));
    }
}

fn add_to(cell: &mut Option<u64>, n: u64) {
    *cell = Some(cell.unwrap_or(0).saturating_add(n));
}

fn record_in(cell: &mut Option<Histo>, value: u64) {
    cell.get_or_insert_with(Histo::new).record(value);
}

// ---- the per-thread cells ---------------------------------------------------

/// One metric kind on one thread: a cell per slot (`None` = untouched
/// since [`reset`], so absent from [`snapshot`]) and the memo the
/// name-keyed functions resolve through.
struct Family<T> {
    cells: Vec<Option<T>>,
    memo: BTreeMap<String, usize>,
    kind: Kind,
}

impl<T> Family<T> {
    const fn new(kind: Kind) -> Family<T> {
        Family {
            cells: Vec::new(),
            memo: BTreeMap::new(),
            kind,
        }
    }

    fn get(&self, slot: usize) -> Option<&T> {
        self.cells.get(slot).and_then(Option::as_ref)
    }

    /// Apply `f` to the cell at `slot`, growing the vector to reach it.
    fn update(&mut self, slot: usize, f: impl FnOnce(&mut Option<T>)) {
        if slot >= self.cells.len() {
            self.cells.resize_with(slot + 1, || None);
        }
        if let Some(cell) = self.cells.get_mut(slot) {
            f(cell);
        }
    }

    /// Slot of `name`: this thread's memo first, then the process-wide
    /// table. With `create` unset a name nobody has used stays unknown.
    fn slot_of(&mut self, name: &str, create: bool) -> Option<usize> {
        if let Some(&slot) = self.memo.get(name) {
            return Some(slot);
        }
        let slot = {
            let mut table = slots();
            let names = table.names(self.kind);
            if create {
                names.intern(name)
            } else {
                names.find(name)?
            }
        };
        self.memo.insert(name.to_string(), slot);
        Some(slot)
    }

    fn update_named(&mut self, name: &str, f: impl FnOnce(&mut Option<T>)) {
        if let Some(slot) = self.slot_of(name, true) {
            self.update(slot, f);
        }
    }

    fn get_named(&mut self, name: &str) -> Option<&T> {
        let slot = self.slot_of(name, false)?;
        self.get(slot)
    }

    fn clear(&mut self) {
        self.cells.iter_mut().for_each(|c| *c = None);
    }

    /// `(name, value)` of every touched cell, in name order.
    fn named<'a>(&'a self, names: &'a SlotNames) -> impl Iterator<Item = (&'a str, &'a T)> {
        names
            .0
            .iter()
            .filter_map(|(name, &slot)| Some((name.as_str(), self.get(slot)?)))
    }
}

struct Registry {
    counters: Family<u64>,
    gauges: Family<f64>,
    histos: Family<Histo>,
}

thread_local! {
    static REGISTRY: RefCell<Registry> = const {
        RefCell::new(Registry {
            counters: Family::new(Kind::Counter),
            gauges: Family::new(Kind::Gauge),
            histos: Family::new(Kind::Histogram),
        })
    };
}

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    REGISTRY.with(|r| f(&mut r.borrow_mut()))
}

// ---- the name-keyed API -----------------------------------------------------

/// Add `n` to the counter `name` (saturating at `u64::MAX`), creating it
/// at zero first if needed.
pub fn counter_add(name: &str, n: u64) {
    with_registry(|r| r.counters.update_named(name, |c| add_to(c, n)));
}

/// Current value of counter `name` (0 if it was never bumped).
pub fn counter_value(name: &str) -> u64 {
    with_registry(|r| r.counters.get_named(name).copied().unwrap_or(0))
}

/// Set the gauge `name` to `v`.
pub fn gauge_set(name: &str, v: f64) {
    with_registry(|r| r.gauges.update_named(name, |g| *g = Some(v)));
}

/// Current value of gauge `name` (`None` if never set).
pub fn gauge_value(name: &str) -> Option<f64> {
    with_registry(|r| r.gauges.get_named(name).copied())
}

/// Record one observation of `value` in the histogram `name`.
pub fn histogram_record(name: &str, value: u64) {
    with_registry(|r| r.histos.update_named(name, |h| record_in(h, value)));
}

/// Wipe this thread's registry: every counter, gauge, and histogram.
/// Tests call this to measure from a clean slate. Slot numbers (and the
/// name memo) survive; they are process-wide facts, not measurements.
pub fn reset() {
    with_registry(|r| {
        r.counters.clear();
        r.gauges.clear();
        r.histos.clear();
    });
}

/// One histogram, as captured by [`snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// `(bucket_index, count)` for every non-empty bucket, ascending.
    /// Bucket 0 holds the value 0; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`.
    pub buckets: Vec<(usize, u64)>,
    /// Largest value ever recorded (0 when the histogram is empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Build a snapshot directly from raw values, without touching the
    /// registry. `lobctl stats` uses this to get quantile summaries of
    /// ad-hoc distributions (segment sizes, free-run lengths).
    pub fn from_values(name: &str, values: &[u64]) -> HistogramSnapshot {
        let mut h = Histo::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot(name)
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear
    /// interpolation inside the log₂ bucket that holds the target rank.
    /// Bucket `i ≥ 1` spans `[2^(i-1), 2^i)`; the estimate is clamped to
    /// the recorded [`max`](Self::max), so `quantile(1.0)` is exact.
    /// Returns `None` for an empty histogram or a `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Nearest-rank target, 1-based: the k-th smallest observation.
        let count = self.count as f64;
        // f64 rank arithmetic; no integer overflow possible.
        // loblint: allow(arith-overflow)
        let target = (q * count).ceil().max(1.0);
        let mut seen = 0.0_f64;
        for &(i, c) in &self.buckets {
            let c = c as f64;
            if seen + c >= target {
                if i == 0 {
                    return Some(0.0);
                }
                // No histogram has a bucket past 64; an index beyond `i32`
                // would saturate to +inf and be clamped to `max` below.
                let exp = i32::try_from(i).unwrap_or(i32::MAX);
                let lo = 2.0_f64.powi(exp - 1);
                let hi = 2.0_f64.powi(exp);
                // f64 division; `c > 0` for any present bucket.
                // loblint: allow(panic-path)
                let frac = (target - seen) / c;
                return Some((lo + frac * (hi - lo)).min(self.max as f64));
            }
            seen += c;
        }
        // All buckets exhausted (rounding): the largest observation.
        Some(self.max as f64)
    }

    /// Median estimate (see [`quantile`](Self::quantile)).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate (see [`quantile`](Self::quantile)).
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate (see [`quantile`](Self::quantile)).
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Mean of all recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            // f64 division behind a zero guard; cannot panic.
            // loblint: allow(panic-path)
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// A point-in-time copy of the whole registry, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// Every histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 if absent from the snapshot).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The snapshot as a [`Value`] tree:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name:
    /// {"count": n, "sum": n, "buckets": [[idx, n], ...]}}}`.
    pub fn to_value(&self) -> Value {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Value::from(*v)))
                .collect(),
        );
        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(n, v)| (n.clone(), Value::Num(*v)))
                .collect(),
        );
        let histograms = Value::Obj(
            self.histograms
                .iter()
                .map(|h| {
                    let buckets = Value::Arr(
                        h.buckets
                            .iter()
                            .map(|&(i, c)| {
                                Value::Arr(vec![
                                    Value::from(u64::try_from(i).unwrap_or(0)),
                                    Value::from(c),
                                ])
                            })
                            .collect(),
                    );
                    (
                        h.name.clone(),
                        Value::Obj(vec![
                            ("count".to_string(), Value::from(h.count)),
                            ("sum".to_string(), Value::from(h.sum)),
                            ("max".to_string(), Value::from(h.max)),
                            ("buckets".to_string(), buckets),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Obj(vec![
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
            ("histograms".to_string(), histograms),
        ])
    }

    /// The snapshot serialized as one JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

/// Merge a snapshot captured on another thread into **this** thread's
/// registry: counters add, histograms add bucket-wise (count, sum
/// saturating, max by maximum), gauges overwrite (last merge wins —
/// they are point-in-time readings, not accumulators).
///
/// The cells are per-thread by design (hot-path updates need no
/// synchronization); worker threads capture [`snapshot`] before exiting
/// and the coordinating thread folds them in with this function —
/// benches and the `shared_db` hammer use it to report fleet-wide
/// totals.
pub fn merge_thread_registry(other: &MetricsSnapshot) {
    with_registry(|r| {
        for (name, v) in &other.counters {
            r.counters.update_named(name, |c| add_to(c, *v));
        }
        for (name, v) in &other.gauges {
            r.gauges.update_named(name, |g| *g = Some(*v));
        }
        for hs in &other.histograms {
            r.histos.update_named(&hs.name, |cell| {
                let h = cell.get_or_insert_with(Histo::new);
                for &(i, c) in &hs.buckets {
                    if let Some(b) = h.buckets.get_mut(i) {
                        *b = b.saturating_add(c);
                    }
                }
                h.count = h.count.saturating_add(hs.count);
                h.sum = h.sum.saturating_add(hs.sum);
                h.max = h.max.max(hs.max);
            });
        }
    });
}

/// Capture the current state of this thread's registry: every metric
/// touched since [`reset`](crate::reset), through a handle or by name.
pub fn snapshot() -> MetricsSnapshot {
    with_registry(|r| {
        let table = slots();
        MetricsSnapshot {
            counters: r
                .counters
                .named(&table.counters)
                .map(|(name, v)| (name.to_string(), *v))
                .collect(),
            gauges: r
                .gauges
                .named(&table.gauges)
                .map(|(name, v)| (name.to_string(), *v))
                .collect(),
            histograms: r
                .histos
                .named(&table.histos)
                .map(|(name, h)| h.snapshot(name))
                .collect(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn counters_accumulate() {
        reset();
        counter_add("t.a", 1);
        counter_add("t.a", 2);
        counter_add("t.b", 5);
        assert_eq!(counter_value("t.a"), 3);
        assert_eq!(counter_value("t.b"), 5);
        assert_eq!(counter_value("t.never"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        reset();
        assert_eq!(gauge_value("t.g"), None);
        gauge_set("t.g", 0.25);
        gauge_set("t.g", 0.75);
        assert_eq!(gauge_value("t.g"), Some(0.75));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_snapshot_counts_and_sums() {
        reset();
        for v in [0, 1, 1, 3, 4, 100] {
            histogram_record("t.h", v);
        }
        let snap = snapshot();
        let h = snap.histogram("t.h").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 109);
        // 0 → bucket 0; 1,1 → bucket 1; 3 → bucket 2; 4 → bucket 3;
        // 100 → bucket 7.
        assert_eq!(h.buckets, vec![(0, 1), (1, 2), (2, 1), (3, 1), (7, 1)]);
    }

    #[test]
    fn snapshot_is_sorted_and_json_parses() {
        reset();
        counter_add("z.last", 1);
        counter_add("a.first", 1);
        gauge_set("m.mid", 0.5);
        histogram_record("h.one", 7);
        let snap = snapshot();
        assert_eq!(snap.counters[0].0, "a.first");
        assert_eq!(snap.counters[1].0, "z.last");
        let v = json::parse(&snap.to_json()).unwrap();
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("a.first"))
                .and_then(json::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("m.mid"))
                .and_then(json::Value::as_num),
            Some(0.5)
        );
        let h = v.get("histograms").and_then(|h| h.get("h.one")).unwrap();
        assert_eq!(h.get("count").and_then(json::Value::as_u64), Some(1));
        assert_eq!(h.get("sum").and_then(json::Value::as_u64), Some(7));
    }

    #[test]
    fn quantiles_interpolate_within_log2_buckets() {
        // 100 observations of 1..=100: p50 ≈ 50, p90 ≈ 90, p99 ≈ 99.
        let values: Vec<u64> = (1..=100).collect();
        let h = HistogramSnapshot::from_values("t.q", &values);
        assert_eq!(h.count, 100);
        assert_eq!(h.max, 100);
        let p50 = h.p50().unwrap();
        let p90 = h.p90().unwrap();
        let p99 = h.p99().unwrap();
        // Log₂ buckets are coarse; interpolation must land in the right
        // bucket and stay ordered.
        assert!((32.0..=64.0).contains(&p50), "p50 = {p50}");
        assert!((64.0..=100.0).contains(&p90), "p90 = {p90}");
        assert!((64.0..=100.0).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // quantile(1.0) is exact: clamped to the recorded max.
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.mean(), Some(50.5));
    }

    #[test]
    fn quantiles_on_degenerate_histograms() {
        let empty = HistogramSnapshot::from_values("t.e", &[]);
        assert_eq!(empty.p50(), None);
        assert_eq!(empty.mean(), None);

        let zeros = HistogramSnapshot::from_values("t.z", &[0, 0, 0]);
        assert_eq!(zeros.p50(), Some(0.0));
        assert_eq!(zeros.p99(), Some(0.0));
        assert_eq!(zeros.max, 0);

        let one = HistogramSnapshot::from_values("t.o", &[7]);
        // A single value: every quantile is in its bucket, clamped ≤ max.
        for q in [0.01, 0.5, 0.99, 1.0] {
            let est = one.quantile(q).unwrap();
            assert!((4.0..=7.0).contains(&est), "q={q} est={est}");
        }
        assert_eq!(one.quantile(-0.1), None);
        assert_eq!(one.quantile(1.5), None);
    }

    #[test]
    fn registry_quantiles_match_from_values() {
        reset();
        let values = [3_u64, 9, 27, 81, 243, 729];
        for v in values {
            histogram_record("t.rq", v);
        }
        let snap = snapshot();
        let reg = snap.histogram("t.rq").unwrap();
        let direct = HistogramSnapshot::from_values("t.rq", &values);
        assert_eq!(reg, &direct);
        assert_eq!(reg.p50(), direct.p50());
        assert_eq!(reg.max, 729);
    }

    #[test]
    fn snapshot_after_reset_is_empty_even_under_thread_churn() {
        // The registry is thread-local: concurrent threads hammering
        // their own registries must never perturb this thread's
        // reset→snapshot window or panic.
        let hammers: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..1_000_u64 {
                        counter_add("t.race", 1);
                        gauge_set("t.race.g", i as f64);
                        histogram_record("t.race.h", i);
                        if i % 64 == 0 {
                            let s = snapshot();
                            assert_eq!(s.counter("t.race"), i + 1, "thread {t}");
                        }
                        if i % 257 == 0 {
                            reset();
                            assert!(snapshot().counters.is_empty(), "thread {t}");
                            // Re-seed so the closure check above keeps
                            // holding relative to the loop counter.
                            counter_add("t.race", i + 1);
                        }
                    }
                    snapshot().counter("t.race")
                })
            })
            .collect();
        counter_add("t.main", 5);
        reset();
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        for h in hammers {
            let c = h.join().expect("hammer thread must not panic");
            assert!(c > 0);
        }
    }

    #[test]
    fn merge_folds_worker_snapshots_into_this_thread() {
        reset();
        counter_add("t.m.ops", 10);
        histogram_record("t.m.lat", 4);
        gauge_set("t.m.depth", 1.0);
        let worker = std::thread::spawn(|| {
            counter_add("t.m.ops", 7);
            counter_add("t.m.worker_only", 3);
            histogram_record("t.m.lat", 100);
            histogram_record("t.m.lat", 0);
            gauge_set("t.m.depth", 9.0);
            snapshot()
        })
        .join()
        .unwrap();
        merge_thread_registry(&worker);
        assert_eq!(counter_value("t.m.ops"), 17);
        assert_eq!(counter_value("t.m.worker_only"), 3);
        // Gauges overwrite: the merged reading wins.
        assert_eq!(gauge_value("t.m.depth"), Some(9.0));
        let snap = snapshot();
        let h = snap.histogram("t.m.lat").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 104);
        assert_eq!(h.max, 100);
        // Buckets add position-wise: 0 → bucket 0, 4 → bucket 3,
        // 100 → bucket 7.
        assert_eq!(h.buckets, vec![(0, 1), (3, 1), (7, 1)]);
    }

    #[test]
    fn merge_is_associative_over_workers() {
        reset();
        let snaps: Vec<MetricsSnapshot> = (0..3u64)
            .map(|t| {
                std::thread::spawn(move || {
                    counter_add("t.ma.n", t + 1);
                    histogram_record("t.ma.h", t);
                    snapshot()
                })
                .join()
                .unwrap()
            })
            .collect();
        for s in &snaps {
            merge_thread_registry(s);
        }
        assert_eq!(counter_value("t.ma.n"), 6);
        let snap = snapshot();
        assert_eq!(snap.histogram("t.ma.h").unwrap().count, 3);
    }

    #[test]
    fn reset_clears_everything() {
        counter_add("t.x", 9);
        gauge_set("t.y", 1.0);
        histogram_record("t.z", 2);
        reset();
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }
}
