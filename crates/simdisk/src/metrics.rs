//! The disk's metric handles (DESIGN.md §10): per-area call and page
//! counters and the cost-shape histograms, bumped once per I/O call, the
//! per-area bytes that read and write calls copy, and the counts of read
//! calls and of write-side copies that were cut across cores.

lobstore_obs::metrics! {
    pub(crate) static META_READ_CALLS: Counter = "simdisk.meta.read_calls";
    pub(crate) static META_PAGES_READ: Counter = "simdisk.meta.pages_read";
    pub(crate) static META_WRITE_CALLS: Counter = "simdisk.meta.write_calls";
    pub(crate) static META_PAGES_WRITTEN: Counter = "simdisk.meta.pages_written";
    pub(crate) static META_BYTES_COPIED: Counter = "simdisk.meta.bytes_copied";
    pub(crate) static LEAF_READ_CALLS: Counter = "simdisk.leaf.read_calls";
    pub(crate) static LEAF_PAGES_READ: Counter = "simdisk.leaf.pages_read";
    pub(crate) static LEAF_WRITE_CALLS: Counter = "simdisk.leaf.write_calls";
    pub(crate) static LEAF_PAGES_WRITTEN: Counter = "simdisk.leaf.pages_written";
    pub(crate) static LEAF_BYTES_COPIED: Counter = "simdisk.leaf.bytes_copied";
    pub(crate) static OTHER_READ_CALLS: Counter = "simdisk.other.read_calls";
    pub(crate) static OTHER_PAGES_READ: Counter = "simdisk.other.pages_read";
    pub(crate) static OTHER_WRITE_CALLS: Counter = "simdisk.other.write_calls";
    pub(crate) static OTHER_PAGES_WRITTEN: Counter = "simdisk.other.pages_written";
    pub(crate) static OTHER_BYTES_COPIED: Counter = "simdisk.other.bytes_copied";
    pub(crate) static SEEK_US: Histogram = "simdisk.seek_us";
    pub(crate) static TRANSFER_US: Histogram = "simdisk.transfer_us";
    pub(crate) static CALL_PAGES: Histogram = "simdisk.call_pages";
    pub(crate) static SPLIT_READS: Counter = "simdisk.split_reads";
    pub(crate) static SPLIT_WRITES: Counter = "simdisk.split_writes";
}
