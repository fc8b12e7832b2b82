//! Workspace-wide observability for `lobstore`, with zero dependencies.
//!
//! Three cooperating pieces:
//!
//! * **Metrics** — counters, gauges, and log₂-bucketed histograms.
//!   Always on. The engine declares each metric once as a static handle
//!   ([`Counter`], [`Gauge`], [`Histogram`], usually through
//!   [`metrics!`]); a handle resolves once to a process-wide slot number
//!   and then updates a dense per-thread cell — one thread-local borrow
//!   and one index, cheap enough for the simulated disk's per-call hot
//!   path. The name-keyed functions ([`counter_add`], [`gauge_set`],
//!   [`histogram_record`], [`counter_value`], ...) reach the same cells
//!   through a per-thread name → slot memo; tests, tools and computed
//!   names use those.
//! * **Spans and events** ([`Span`], [`event`]) — structured records of
//!   logical operations. Ending a span always bumps its name's counter;
//!   the full field set is serialized as one JSON line *only* when a sink
//!   is installed, so the default (no sink) costs no allocation.
//! * **Sinks** ([`EventSink`], [`JsonlSink`], [`install_sink`]) — where
//!   serialized span/event lines go. No-op by default; [`JsonlSink`]
//!   appends one JSON object per line to any `std::io::Write`.
//!
//! Metric values and the sink are thread-local on purpose: a bump needs
//! no synchronization, and per-thread state keeps parallel tests that
//! `reset()` and assert exact values from polluting each other. Only the
//! slot ↔ name table is process-wide; threads hand their numbers over
//! with [`snapshot`] + [`merge_thread_registry`].
//!
//! The [`json`] module is the self-contained JSON reader/writer the rest
//! of the workspace shares: sinks, metric snapshots, `IoStats::to_value`,
//! `lobctl` and lobbench all speak through it.
//!
//! # Example
//!
//! ```
//! lobstore_obs::reset();
//! lobstore_obs::counter_add("demo.calls", 2);
//! lobstore_obs::histogram_record("demo.pages", 3);
//! let snap = lobstore_obs::snapshot();
//! assert_eq!(snap.counter("demo.calls"), 2);
//! let dump = snap.to_json();
//! assert!(dump.contains("demo.pages"));
//!
//! // A static handle addresses the same cell as the name does.
//! static CALLS: lobstore_obs::Counter = lobstore_obs::Counter::new("demo.calls");
//! CALLS.add(1);
//! assert_eq!(lobstore_obs::counter_value("demo.calls"), 3);
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::cast_possible_truncation
    )
)]

/// Minimal JSON value model, writer, and parser (no dependencies).
pub mod json;
mod metrics;
mod sink;
mod span;
pub mod sync;

pub use metrics::{
    counter_add, counter_value, gauge_set, gauge_value, histogram_record, merge_thread_registry,
    reset, snapshot, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
};
pub use sink::{install_sink, sink_installed, take_sink, EventSink, JsonlSink, MemorySink};
pub use span::{event, Span};

/// Declare a crate's metric handles and the list of their names in one
/// place (by convention a private `metrics` module):
///
/// ```
/// lobstore_obs::metrics! {
///     /// Segments read.
///     pub static SEG_READS: Counter = "demo.seg.reads";
///     pub static HIT_RATIO: Gauge = "demo.hit_ratio";
///     pub static CALL_PAGES: Histogram = "demo.call_pages";
/// }
/// SEG_READS.add(2);
/// assert_eq!(NAMES, ["demo.seg.reads", "demo.hit_ratio", "demo.call_pages"]);
/// ```
///
/// Each line becomes a `static` of the named handle type ([`Counter`],
/// [`Gauge`] or [`Histogram`]); `NAMES` lists every declared name in
/// order, which is what the metric-catalog test compares with DESIGN.md.
#[macro_export]
macro_rules! metrics {
    ($($(#[$meta:meta])* $vis:vis static $id:ident: $kind:ident = $name:literal;)*) => {
        $($(#[$meta])* $vis static $id: $crate::$kind = $crate::$kind::new($name);)*
        /// Every metric name this module declares a handle for.
        pub const NAMES: &[&str] = &[$($name),*];
    };
}
