//! Model configurations: seeded sequences of every paper update, reads
//! and snapshot pins against the one reference model
//! (`lobstore::workload::model`), for every manager, plus allocator and
//! buffer-pool properties. The driver's walk after every op holds the
//! deferred frees and the version store to their rules while pins come
//! and go.

use lobstore::workload::model::{for_seeds, Driver, Kind, OpGen};
use lobstore::{Db, ManagerSpec};
use proptest::prelude::*;

const MIX: &[(u32, Kind)] = &[
    (3, Kind::Append),
    (3, Kind::Insert),
    (3, Kind::Delete),
    (3, Kind::Replace),
    (3, Kind::Read),
    (1, Kind::Snapshot),
    (1, Kind::Release),
];

/// 24 seeds (256 optimized) of `ops` ops of up to 30 000 bytes.
fn matches_model(spec: ManagerSpec, ops: usize) {
    for_seeds(24, |seed| {
        let mut db = Db::paper_default();
        let mut d = Driver::new(&mut db, spec);
        d.run(&mut db, OpGen::new(seed, MIX, 30_000).take(ops));
        d.finish(&mut db);
    });
}

#[test]
fn esm_small_leaves_match_model() {
    matches_model(ManagerSpec::esm(1), 38);
}

#[test]
fn esm_large_leaves_match_model() {
    matches_model(ManagerSpec::esm(16), 38);
}

#[test]
fn eos_small_threshold_matches_model() {
    matches_model(ManagerSpec::eos(1), 38);
}

#[test]
fn eos_large_threshold_matches_model() {
    matches_model(ManagerSpec::eos(64), 38);
}

#[test]
fn starburst_matches_model() {
    matches_model(ManagerSpec::starburst(), 21);
}

// ---- allocator properties ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random allocate/free interleavings never hand out overlapping
    /// extents, and freeing everything returns the allocator to empty.
    #[test]
    fn buddy_never_overlaps(script in prop::collection::vec((1u32..100, any::<bool>()), 1..60)) {
        use lobstore::buddy::{BuddyConfig, BuddyManager, Extent};
        use lobstore::bufpool::{BufferPool, PoolConfig};
        use lobstore::simdisk::{AreaId, CostModel, SimDisk};

        let mut pool = BufferPool::new(SimDisk::new(2, CostModel::FREE), PoolConfig::default());
        let mut mgr = BuddyManager::new(BuddyConfig::new(AreaId::LEAF, 256));
        let mut held: Vec<Extent> = Vec::new();

        for (pages, free_one) in script {
            if free_one && !held.is_empty() {
                let e = held.swap_remove(pages as usize % held.len());
                mgr.free(&mut pool, e);
            } else {
                let e = mgr.allocate(&mut pool, pages);
                for h in &held {
                    prop_assert!(e.end() <= h.start || h.end() <= e.start,
                        "overlap {e} vs {h}");
                }
                held.push(e);
            }
            let total: u32 = held.iter().map(|e| e.pages).sum();
            prop_assert_eq!(mgr.allocated_pages(), u64::from(total));
        }
        for e in held.drain(..) {
            mgr.free(&mut pool, e);
        }
        prop_assert_eq!(mgr.allocated_pages(), 0);
    }

    /// The buffer pool preserves page contents across arbitrary
    /// fix/modify/evict patterns (write-back correctness).
    #[test]
    fn bufpool_preserves_contents(script in prop::collection::vec((0u32..40, any::<u8>()), 1..80)) {
        use lobstore::bufpool::{BufferPool, PoolConfig};
        use lobstore::simdisk::{AreaId, CostModel, PageId, SimDisk};
        use std::collections::HashMap;

        let pool = BufferPool::new(
            SimDisk::new(1, CostModel::FREE),
            PoolConfig { frames: 4, max_buffered_seg: 2 },
        );
        let mut model: HashMap<u32, u8> = HashMap::new();
        for (page, val) in script {
            let pid = PageId::new(AreaId(0), page);
            let r = pool.fix(pid);
            let cur = pool.with_page(r, |p| p[0]);
            prop_assert_eq!(cur, model.get(&page).copied().unwrap_or(0),
                "stale content on page {}", page);
            pool.with_page_mut(r, |p| p[0] = val);
            pool.unfix(r);
            model.insert(page, val);
        }
        pool.flush_all();
        for (page, val) in model {
            let mut out = [0u8; 1];
            pool.disk().peek(AreaId(0), page, &mut out);
            prop_assert_eq!(out[0], val);
        }
    }
}
