//! The pool's metric handles (DESIGN.md §10).

lobstore_obs::metrics! {
    pub(crate) static HITS: Counter = "bufpool.hits";
    pub(crate) static MISSES: Counter = "bufpool.misses";
    pub(crate) static EVICTION_WRITES: Counter = "bufpool.eviction_writes";
    pub(crate) static DIRTY_WRITEBACKS: Counter = "bufpool.dirty_writebacks";
    pub(crate) static HIT_RATIO: Gauge = "bufpool.hit_ratio";
}
