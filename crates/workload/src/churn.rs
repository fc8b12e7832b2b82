//! Long-horizon create/delete/append churn — the aging workload.
//!
//! The paper measures a 2 000-op mixed workload on one object; what it
//! cannot show is how the *store* degrades over months of object
//! turnover (Sears & van Ingen: fragmentation under churn, not
//! steady-state throughput, determines long-horizon performance). This
//! driver keeps a pool of live objects and continuously destroys,
//! recreates, appends to, deletes from, and reads them, so freed extents
//! interleave with new allocations and external fragmentation can
//! actually develop. At every mark it records allocator and object
//! health ([`Db::sample_health`], [`lobstore_core::object_health`]);
//! `tests/aging.rs` bounds that curve and pins the aged store exactly.

use lobstore_core::{
    object_health, publish_object_health, Db, LargeObject, ManagerSpec, ObjectHealth, Result,
};
use lobstore_simdisk::IoStats;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fill_bytes;
use crate::scanner::sample_op_size;

/// Parameters of a churn run.
#[derive(Copy, Clone, Debug)]
pub struct ChurnConfig {
    /// Total churn operations.
    pub ops: usize,
    /// Record a health mark every this many operations.
    pub mark_every: usize,
    /// Mean append/delete size in bytes (varied ±50 %).
    pub mean_op_bytes: u64,
    /// Live-object pool size the run maintains.
    pub objects: usize,
    /// Initial size of each pooled object (recreations vary ±50 %).
    pub initial_object_bytes: u64,
    /// RNG seed; runs are deterministic given the seed.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            ops: 10_000,
            mark_every: 2_000,
            mean_op_bytes: 10_000,
            objects: 8,
            initial_object_bytes: 256 * 1024,
            seed: 0xA61_0B5,
        }
    }
}

/// One health mark: allocator fragmentation plus pooled-object health.
#[derive(Copy, Clone, Debug)]
pub struct ChurnMark {
    /// Churn operations completed at this mark.
    pub ops_done: usize,
    /// LEAF-area external fragmentation (`FragStats::frag_ratio`).
    pub frag_ratio: f64,
    /// Longest free LEAF run, in pages.
    pub largest_free_run: u32,
    /// Free LEAF pages.
    pub free_pages: u64,
    /// LEAF-area utilization (allocated / total).
    pub leaf_utilization: f64,
    /// Mean extent contiguity over the live objects.
    pub contiguity: f64,
    /// Mean object-level utilization over the live objects.
    pub object_utilization: f64,
    /// Live objects at the mark.
    pub live_objects: usize,
}

/// Full outcome of a churn run.
pub struct ChurnReport {
    pub marks: Vec<ChurnMark>,
    pub total_io: IoStats,
    pub creates: usize,
    pub destroys: usize,
    pub appends: usize,
    pub deletes: usize,
    pub reads: usize,
}

/// Driver state for one churn run.
pub struct ChurnWorkload {
    rng: StdRng,
    cfg: ChurnConfig,
}

impl ChurnWorkload {
    pub fn new(cfg: ChurnConfig) -> Self {
        assert!(cfg.ops > 0 && cfg.mark_every > 0 && cfg.objects > 0);
        ChurnWorkload {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    /// Run the churn against a fresh pool of `spec` objects, returning
    /// the surviving pool (for post-aging scans) and the report.
    pub fn run(
        &mut self,
        db: &mut Db,
        spec: &ManagerSpec,
    ) -> Result<(Vec<Box<dyn LargeObject>>, ChurnReport)> {
        let run_start = db.io_stats();
        let mut pool: Vec<Box<dyn LargeObject>> = Vec::with_capacity(self.cfg.objects);
        let mut counts = ChurnReport {
            marks: Vec::with_capacity(self.cfg.ops / self.cfg.mark_every),
            total_io: IoStats::default(),
            creates: 0,
            destroys: 0,
            appends: 0,
            deletes: 0,
            reads: 0,
        };
        for i in 0..self.cfg.objects {
            let obj = self.build_one(db, spec, (i as u64) << 32)?;
            pool.push(obj);
            counts.creates += 1;
        }
        let mut buf = vec![0u8; (self.cfg.mean_op_bytes + self.cfg.mean_op_bytes / 2) as usize + 1];

        for op_no in 1..=self.cfg.ops {
            let victim = self.rng.gen_range(0..pool.len());
            let p: u8 = self.rng.gen_range(0..100);
            if p < 10 {
                // Object turnover: destroy one, create a fresh one. The
                // freed extents and the replacement's allocations
                // interleave — the aging mechanism under test.
                let mut old = pool.swap_remove(victim);
                old.destroy(db)?;
                counts.destroys += 1;
                let obj = self.build_one(db, spec, (op_no as u64) << 16)?;
                pool.push(obj);
                counts.creates += 1;
            } else if p < 45 {
                let len = sample_op_size(&mut self.rng, self.cfg.mean_op_bytes);
                fill_bytes(&mut buf[..len as usize], op_no as u64);
                pool[victim].append(db, &buf[..len as usize])?;
                counts.appends += 1;
            } else if p < 75 {
                let size = pool[victim].size(db);
                let len = sample_op_size(&mut self.rng, self.cfg.mean_op_bytes).min(size);
                if len > 0 {
                    let off = self.uniform_start(size, len);
                    pool[victim].delete(db, off, len)?;
                }
                counts.deletes += 1;
            } else {
                let size = pool[victim].size(db);
                let len = sample_op_size(&mut self.rng, self.cfg.mean_op_bytes).min(size);
                if len > 0 {
                    let off = self.uniform_start(size, len);
                    pool[victim].read(db, off, &mut buf[..len as usize])?;
                }
                counts.reads += 1;
            }

            if op_no % self.cfg.mark_every == 0 {
                counts.marks.push(Self::mark(db, &pool, op_no));
            }
        }
        counts.total_io = db.io_stats() - run_start;
        Ok((pool, counts))
    }

    /// Take one mark: publish a health sample (gauges) and fold it into a
    /// [`ChurnMark`].
    fn mark(db: &mut Db, pool: &[Box<dyn LargeObject>], ops_done: usize) -> ChurnMark {
        let sample = db.sample_health();
        let objs: Vec<ObjectHealth> = pool.iter().map(|o| object_health(o.as_ref(), db)).collect();
        publish_object_health(&objs);
        let n = objs.len().max(1) as f64;
        ChurnMark {
            ops_done,
            frag_ratio: sample.leaf.frag_ratio(),
            largest_free_run: sample.leaf.largest_free_run,
            free_pages: sample.leaf.free_pages,
            leaf_utilization: sample.leaf.utilization(),
            contiguity: objs.iter().map(ObjectHealth::contiguity).sum::<f64>() / n,
            object_utilization: objs.iter().map(ObjectHealth::utilization).sum::<f64>() / n,
            live_objects: pool.len(),
        }
    }

    /// Create one pooled object and grow it to ±50 % of the configured
    /// initial size with 64 KB appends.
    fn build_one(
        &mut self,
        db: &mut Db,
        spec: &ManagerSpec,
        salt: u64,
    ) -> Result<Box<dyn LargeObject>> {
        let mut obj = spec.create(db)?;
        let target = sample_op_size(&mut self.rng, self.cfg.initial_object_bytes);
        let mut chunk = vec![0u8; 64 * 1024];
        let mut written = 0u64;
        while written < target {
            let n = chunk.len().min((target - written) as usize);
            fill_bytes(&mut chunk[..n], salt.wrapping_add(written));
            obj.append(db, &chunk[..n])?;
            written += n as u64;
        }
        Ok(obj)
    }

    fn uniform_start(&mut self, size: u64, len: u64) -> u64 {
        let max_start = size - len;
        if max_start == 0 {
            0
        } else {
            self.rng.gen_range(0..=max_start)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ChurnConfig {
        ChurnConfig {
            ops: 120,
            mark_every: 40,
            mean_op_bytes: 8_000,
            objects: 4,
            initial_object_bytes: 64 * 1024,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn churn_survives_and_marks_all_three_schemes() {
        for spec in [
            ManagerSpec::esm(4),
            ManagerSpec::eos(16),
            ManagerSpec::starburst(),
        ] {
            lobstore_obs::reset();
            let mut db = Db::paper_default();
            let mut w = ChurnWorkload::new(tiny_cfg());
            let (pool, rep) = w.run(&mut db, &spec).unwrap();
            assert_eq!(pool.len(), 4, "{}", spec.label());
            assert_eq!(rep.marks.len(), 3);
            assert!(
                rep.destroys > 0,
                "{}: churn must turn objects over",
                spec.label()
            );
            assert_eq!(rep.creates, 4 + rep.destroys);
            for obj in &pool {
                obj.check_invariants(&db)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
            }
            for m in &rep.marks {
                assert!((0.0..=1.0).contains(&m.frag_ratio));
                assert!((0.0..=1.0).contains(&m.contiguity));
                assert!(m.free_pages + u64::from(m.largest_free_run) > 0);
                assert_eq!(m.live_objects, 4);
            }
        }
    }

    #[test]
    fn churn_is_deterministic_given_seed() {
        let run = || {
            let mut db = Db::paper_default();
            let mut w = ChurnWorkload::new(tiny_cfg());
            let (pool, rep) = w.run(&mut db, &ManagerSpec::eos(16)).unwrap();
            (rep.total_io, db.leaf_pages_allocated(), pool.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn churn_ages_the_leaf_area() {
        // After sustained turnover the LEAF area must show at least some
        // allocator activity beyond the initial build: free space exists
        // (destroyed objects) and is reused.
        let mut db = Db::paper_default();
        let mut w = ChurnWorkload::new(ChurnConfig {
            ops: 400,
            mark_every: 100,
            ..tiny_cfg()
        });
        let (_pool, rep) = w.run(&mut db, &ManagerSpec::esm(4)).unwrap();
        let last = rep.marks.last().unwrap();
        assert!(last.free_pages > 0, "turnover must have freed pages");
        assert!(rep.total_io.calls() > 0);
    }
}
