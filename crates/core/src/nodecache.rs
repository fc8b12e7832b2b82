//! Deserialized META-node cache: wall-clock memoization of index-page
//! parsing.
//!
//! Every ESM/EOS tree descent and every Starburst descriptor access used
//! to re-parse its META pages (`RootHdr::read` + `Node::read_root`, or
//! `Node::read_page`) on each call — for a streamed scan that is one full
//! root parse per 4 KB chunk. The cache keeps the deserialized form keyed
//! by META page number so repeated descents skip the byte-level decode.
//!
//! **The simulated cost model is untouched.** Cached accessors
//! ([`crate::db::Db::with_meta_node`] / [`crate::db::Db::with_meta_root`])
//! still fix and unfix the page through the buffer pool exactly as the
//! uncached read did, so `IoStats`, traces, and pool hit/miss counters are
//! bit-identical; only the CPU-side parsing is memoized. Consistency is
//! maintained by invalidation at the `Db` META-write funnels
//! (`with_meta_page_mut`, `with_new_meta_page`, `free_meta_page`) and a
//! full clear on [`crate::db::Db::crash_and_reboot`]. Pages written
//! outside the funnels (buddy directory pages, catalog records) are never
//! parsed as nodes, so they cannot go stale here.

use std::collections::HashMap;

use crate::metrics;
use crate::node::{Node, RootHdr};

/// A deserialized META page: a non-root index node, or a root/descriptor
/// page (header plus its entry array — the Starburst descriptor shares
/// the root layout).
pub(crate) enum CachedMeta {
    Node(Node),
    Root(RootHdr, Node),
}

/// Capacity-bounded LRU map from META page number to its parsed form.
///
/// The bound keeps the cache a small constant overlay (a deep paper-scale
/// tree touches ~4 pages per descent; 64 entries cover the hot path of
/// every scheme with room for several live objects).
pub(crate) struct NodeCache {
    map: HashMap<u32, (u64, CachedMeta)>,
    stamp: u64,
    cap: usize,
}

impl NodeCache {
    /// An empty cache holding at most `cap` parsed pages.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "zero-capacity node cache");
        NodeCache {
            map: HashMap::with_capacity(cap),
            stamp: 0,
            cap,
        }
    }

    /// Look up a page, refreshing its LRU stamp on a hit.
    pub fn get(&mut self, page: u32) -> Option<&CachedMeta> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get_mut(&page).map(|slot| {
            slot.0 = stamp;
            &slot.1
        })
    }

    /// Insert (or replace) a page's parsed form, evicting the
    /// least-recently-used entry when full.
    pub fn insert(&mut self, page: u32, entry: CachedMeta) {
        if !self.map.contains_key(&page) && self.map.len() >= self.cap {
            if let Some(&victim) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(page, _)| page)
            {
                self.map.remove(&victim);
                metrics::NODECACHE_EVICTIONS.add(1);
            }
        }
        self.stamp += 1;
        self.map.insert(page, (self.stamp, entry));
    }

    /// Drop a page's cached form (the page is about to change or be
    /// freed).
    pub fn invalidate(&mut self, page: u32) {
        self.map.remove(&page);
    }

    /// Drop everything (crash/reboot: unflushed pages revert on disk).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Pages currently cached, for verification walks.
    #[cfg(feature = "paranoid")]
    pub fn pages(&self) -> Vec<u32> {
        self.map.keys().copied().collect()
    }

    /// Peek an entry without refreshing its LRU stamp.
    #[cfg(feature = "paranoid")]
    pub fn peek(&self, page: u32) -> Option<&CachedMeta> {
        self.map.get(&page).map(|(_, e)| e)
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Entry;

    fn node(ptr: u32) -> CachedMeta {
        CachedMeta::Node(Node {
            level: 0,
            entries: vec![Entry { count: 1, ptr }],
        })
    }

    fn ptr_of(e: &CachedMeta) -> u32 {
        match e {
            CachedMeta::Node(n) => n.entries[0].ptr,
            CachedMeta::Root(..) => unreachable!(),
        }
    }

    #[test]
    fn insert_get_invalidate_roundtrip() {
        let mut c = NodeCache::new(4);
        c.insert(7, node(70));
        assert_eq!(c.get(7).map(ptr_of), Some(70));
        assert!(c.get(8).is_none());
        c.invalidate(7);
        assert!(c.get(7).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c = NodeCache::new(3);
        c.insert(1, node(10));
        c.insert(2, node(20));
        c.insert(3, node(30));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(c.get(1).is_some());
        c.insert(4, node(40));
        assert_eq!(c.len(), 3);
        assert!(c.get(2).is_none(), "LRU entry evicted");
        for page in [1, 3, 4] {
            assert!(c.get(page).is_some(), "page {page} survives");
        }
    }

    #[test]
    fn replacing_an_entry_does_not_evict() {
        let mut c = NodeCache::new(2);
        c.insert(1, node(10));
        c.insert(2, node(20));
        c.insert(1, node(11));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1).map(ptr_of), Some(11));
        assert_eq!(c.get(2).map(ptr_of), Some(20));
    }

    #[test]
    fn clear_empties_the_cache() {
        let mut c = NodeCache::new(4);
        c.insert(1, node(10));
        c.insert(2, node(20));
        c.clear();
        assert_eq!(c.len(), 0);
        assert!(c.get(1).is_none());
    }
}
