//! Object construction by successive appends (§4.2).

use lobstore_core::{Db, LargeObject, Result};
use lobstore_simdisk::IoStats;

use crate::{fill_bytes, metrics};

/// Outcome of a build run.
#[derive(Clone, Debug)]
pub struct BuildReport {
    /// Final object size in bytes.
    pub object_bytes: u64,
    /// Bytes appended per call.
    pub append_bytes: usize,
    /// Number of append calls issued.
    pub appends: usize,
    /// Total I/O of the build (including the final trim, if any).
    pub io: IoStats,
}

impl BuildReport {
    /// Build time in seconds — the Figure 5 metric.
    pub fn seconds(&self) -> f64 {
        self.io.time_s()
    }
}

/// Build `total_bytes` of object content by appending `append_bytes` at a
/// time ("the expected way of creating large objects", §1). The final
/// partial chunk (if any) is appended too, and the object is trimmed so
/// build-time over-allocation does not linger into later experiments.
pub fn build_by_appends(
    db: &mut Db,
    obj: &mut dyn LargeObject,
    total_bytes: u64,
    append_bytes: usize,
) -> Result<BuildReport> {
    assert!(append_bytes > 0, "zero-byte appends never finish");
    let before = db.io_stats();
    let mut chunk = vec![0u8; append_bytes];
    let mut written = 0u64;
    let mut appends = 0usize;
    while written < total_bytes {
        let n = ((total_bytes - written) as usize).min(append_bytes);
        fill_bytes(&mut chunk[..n], written ^ 0xB10B);
        obj.append(db, &chunk[..n])?;
        written += n as u64;
        appends += 1;
    }
    obj.trim(db)?;
    metrics::BUILD_APPENDS.add(appends as u64);
    metrics::BUILD_BYTES.add(total_bytes);
    Ok(BuildReport {
        object_bytes: total_bytes,
        append_bytes,
        appends,
        io: db.io_stats() - before,
    })
}

/// Convenience: create an object from a spec and build it in one call.
pub fn build_object(
    db: &mut Db,
    spec: &crate::ManagerSpec,
    total_bytes: u64,
    append_bytes: usize,
) -> Result<(Box<dyn LargeObject>, BuildReport)> {
    let mut obj = spec.create(db)?;
    let report = build_by_appends(db, obj.as_mut(), total_bytes, append_bytes)?;
    Ok((obj, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManagerSpec;

    #[test]
    fn builds_exact_size_for_all_managers() {
        for spec in [
            ManagerSpec::esm(1),
            ManagerSpec::esm(4),
            ManagerSpec::starburst(),
            ManagerSpec::eos(4),
        ] {
            let mut db = Db::paper_default();
            let (obj, rep) = build_object(&mut db, &spec, 100_000, 3 * 1024).unwrap();
            assert_eq!(obj.size(&mut db), 100_000, "{}", spec.label());
            assert_eq!(rep.appends, 33); // ceil(100000 / 3072)
            assert!(rep.io.time_us > 0);
            obj.check_invariants(&db).unwrap();
        }
    }

    #[test]
    fn larger_appends_build_faster() {
        let run = |append: usize| {
            let mut db = Db::paper_default();
            let (_, rep) =
                build_object(&mut db, &ManagerSpec::starburst(), 1 << 20, append).unwrap();
            rep.seconds()
        };
        let small = run(3 * 1024);
        let large = run(64 * 1024);
        assert!(
            large < small,
            "64K appends ({large:.1}s) should beat 3K appends ({small:.1}s)"
        );
    }

    #[test]
    fn exact_fit_beats_mismatch_for_esm_one_page_leaves() {
        // The Figure 5 sawtooth: 4K appends into 1-page leaves are much
        // cheaper than 3K or 5K appends.
        let run = |append: usize| {
            let mut db = Db::paper_default();
            let (_, rep) = build_object(&mut db, &ManagerSpec::esm(1), 1 << 20, append).unwrap();
            rep.seconds()
        };
        let k3 = run(3 * 1024);
        let k4 = run(4 * 1024);
        let k5 = run(5 * 1024);
        assert!(k4 < k3, "4K ({k4:.2}s) must beat 3K ({k3:.2}s)");
        assert!(k4 < k5, "4K ({k4:.2}s) must beat 5K ({k5:.2}s)");
    }

    #[test]
    fn build_cost_is_linear_in_object_size() {
        let run = |bytes: u64| {
            let mut db = Db::paper_default();
            let (_, rep) = build_object(&mut db, &ManagerSpec::eos(4), bytes, 16 * 1024).unwrap();
            rep.seconds()
        };
        let one = run(1 << 20);
        let four = run(4 << 20);
        let ratio = four / one;
        assert!(
            (3.0..5.0).contains(&ratio),
            "4 MB / 1 MB build-time ratio {ratio:.2} should be ≈4"
        );
    }
}
