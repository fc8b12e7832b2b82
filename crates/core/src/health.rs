//! Storage-health telemetry: fragmentation and utilization metrics under
//! the `health.*` namespace (DESIGN.md §14).
//!
//! Two vantage points:
//!
//! * **Allocator health** — per area (LEAF / META), a [`FragStats`]
//!   recount of the buddy directories: free pages, the largest free run,
//!   and the derived external-fragmentation ratio. [`Db::sample_health`]
//!   publishes these as `health.<area>.*` gauges and a free-run-length
//!   histogram.
//! * **Object health** — per object, extent contiguity and leaf
//!   utilization derived from cost-free [`LargeObject`] inspection
//!   ([`object_health`]). Benches and `lobctl` aggregate these per scheme
//!   with [`publish_object_health`].
//!
//! Everything here is *meta-inspection*: it reads allocator state and
//! peeked pages only, so sampling never perturbs the simulated I/O record
//! (`verify::tests::the_walk_is_clean_and_costs_nothing` measures the
//! inspectors in a window where `IoStats`, `PoolStats` and the disk trace
//! must not move; the `health_metrics` integration test pins equality
//! with an fsck-style recount and stability across
//! [`Db::crash_and_reboot`]).

use lobstore_buddy::FragStats;
use lobstore_obs::{gauge_set, histogram_record};

use crate::db::Db;
use crate::object::LargeObject;

/// One published health sample: both areas' allocator recounts at a tick.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthSample {
    /// Operation count at which the sample was taken.
    pub tick: u64,
    /// LEAF-area allocator health.
    pub leaf: FragStats,
    /// META-area allocator health.
    pub meta: FragStats,
}

/// Extent-level health of one object, from cost-free inspection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectHealth {
    /// Logical object size in bytes.
    pub object_bytes: u64,
    /// Pages allocated to data segments.
    pub data_pages: u64,
    /// Pages allocated to index structures.
    pub index_pages: u64,
    /// Number of data segments.
    pub segments: u64,
    /// Adjacent segment pairs that are physically contiguous on disk
    /// (the next segment starts right after the previous one ends).
    pub contiguous_joins: u64,
}

impl ObjectHealth {
    /// Adjacent segment pairs (0 for objects of ≤ 1 segment).
    pub fn joins(&self) -> u64 {
        self.segments.saturating_sub(1)
    }

    /// Fraction of segment joins that are physically contiguous, in
    /// `[0, 1]`; a one-segment object is perfectly contiguous (1.0).
    /// This is the "pages per seek" driver: low contiguity means a
    /// sequential scan pays a seek at almost every segment boundary.
    pub fn contiguity(&self) -> f64 {
        if self.joins() == 0 {
            1.0
        } else {
            // f64 division behind a zero guard; cannot panic.
            // loblint: allow(panic-path)
            self.contiguous_joins as f64 / self.joins() as f64
        }
    }

    /// Bytes stored per allocated byte (data + index pages), in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        crate::object::Utilization {
            object_bytes: self.object_bytes,
            data_pages: self.data_pages,
            index_pages: self.index_pages,
        }
        .ratio()
    }
}

/// Compute one object's [`ObjectHealth`] by cost-free inspection
/// ([`LargeObject::segments`] + [`LargeObject::utilization`] never touch
/// the simulated disk's counters).
pub fn object_health(obj: &dyn LargeObject, db: &Db) -> ObjectHealth {
    let util = obj.utilization(db);
    let segs = obj.segments(db);
    let contiguous_joins = segs
        .windows(2)
        // windows(2) yields exactly-2-element slices; in-bounds by construction.
        // loblint: allow(panic-path)
        .filter(|w| w[1].start_page == w[0].start_page.saturating_add(w[0].pages))
        .count() as u64;
    ObjectHealth {
        object_bytes: util.object_bytes,
        data_pages: util.data_pages,
        index_pages: util.index_pages,
        segments: segs.len() as u64,
        contiguous_joins,
    }
}

/// Publish one area's [`FragStats`] under `health.<area>.*`: gauges for
/// the current values and one histogram observation per free run.
pub(crate) fn publish_area(area: &str, st: &FragStats) {
    let set = |metric: &str, v: f64| gauge_set(&format!("health.{area}.{metric}"), v);
    set("spaces", f64::from(st.spaces));
    set("allocated_pages", st.allocated_pages as f64);
    set("free_pages", st.free_pages as f64);
    set("largest_free_run_pages", f64::from(st.largest_free_run));
    set("frag_ratio", st.frag_ratio());
    set("utilization", st.utilization());
    let hist = format!("health.{area}.free_run_pages");
    for &run in &st.free_runs {
        histogram_record(&hist, u64::from(run));
    }
}

/// Aggregate per-object health over a scheme's live objects and publish
/// it under `health.object.*` gauges: mean contiguity, mean utilization,
/// and totals. No-op on an empty slice (gauges keep their previous values).
pub fn publish_object_health(objs: &[ObjectHealth]) {
    if objs.is_empty() {
        return;
    }
    let n = objs.len() as f64;
    // f64 divisions by a length checked non-empty above; cannot panic.
    // loblint: allow(panic-path)
    let contiguity: f64 = objs.iter().map(ObjectHealth::contiguity).sum::<f64>() / n;
    // loblint: allow(panic-path)
    let utilization: f64 = objs.iter().map(ObjectHealth::utilization).sum::<f64>() / n;
    let segments: u64 = objs.iter().map(|o| o.segments).sum();
    let bytes: u64 = objs.iter().map(|o| o.object_bytes).sum();
    let set = |metric: &str, v: f64| gauge_set(&format!("health.object.{metric}"), v);
    set("count", n);
    set("contiguity", contiguity);
    set("utilization", utilization);
    set("segments", segments as f64);
    set("bytes", bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ManagerSpec;
    use lobstore_obs::gauge_value;

    #[test]
    fn object_health_of_a_fresh_multi_segment_object() {
        let mut db = Db::paper_default();
        let mut obj = ManagerSpec::esm(4).create(&mut db).unwrap();
        // 10 full 4-page leaves, appended back to back: allocations are
        // sequential, so every join is contiguous.
        obj.append(&mut db, &vec![5u8; 10 * 4 * 4096]).unwrap();
        let h = object_health(obj.as_ref(), &db);
        assert_eq!(h.data_pages, 40);
        assert_eq!(h.segments, 10);
        assert_eq!(h.joins(), 9);
        assert_eq!(h.contiguous_joins, 9);
        assert_eq!(h.contiguity(), 1.0);
        assert!(h.utilization() > 0.9, "{}", h.utilization());
    }

    #[test]
    fn single_segment_object_is_fully_contiguous() {
        let h = ObjectHealth {
            object_bytes: 4096,
            data_pages: 1,
            index_pages: 1,
            segments: 1,
            contiguous_joins: 0,
        };
        assert_eq!(h.joins(), 0);
        assert_eq!(h.contiguity(), 1.0);
        assert_eq!(h.utilization(), 0.5);
    }

    #[test]
    fn publish_area_sets_gauges() {
        lobstore_obs::reset();
        let mut db = Db::paper_default();
        let ext = db.alloc_leaf(32);
        publish_area("leaf", &db.leaf_frag_stats());
        assert_eq!(gauge_value("health.leaf.allocated_pages"), Some(32.0));
        assert_eq!(
            gauge_value("health.leaf.free_pages"),
            Some(f64::from(16 * 1024 - 32))
        );
        db.free_leaf(ext);
    }

    #[test]
    fn publish_object_health_aggregates_means() {
        lobstore_obs::reset();
        let a = ObjectHealth {
            object_bytes: 4096,
            data_pages: 1,
            index_pages: 0,
            segments: 1,
            contiguous_joins: 0,
        };
        let b = ObjectHealth {
            object_bytes: 4096,
            data_pages: 2,
            index_pages: 0,
            segments: 2,
            contiguous_joins: 0,
        };
        publish_object_health(&[a, b]);
        assert_eq!(gauge_value("health.object.count"), Some(2.0));
        assert_eq!(gauge_value("health.object.contiguity"), Some(0.5));
        assert_eq!(gauge_value("health.object.utilization"), Some(0.75));
        assert_eq!(gauge_value("health.object.segments"), Some(3.0));
        // Empty slice: gauges untouched.
        publish_object_health(&[]);
        assert_eq!(gauge_value("health.object.count"), Some(2.0));
    }
}
