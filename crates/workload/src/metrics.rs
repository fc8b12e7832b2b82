//! The workload drivers' metric handles (DESIGN.md §10).

lobstore_obs::metrics! {
    pub(crate) static OP_READ: Counter = "workload.op.read";
    pub(crate) static OP_INSERT: Counter = "workload.op.insert";
    pub(crate) static OP_DELETE: Counter = "workload.op.delete";
    pub(crate) static BUILD_APPENDS: Counter = "workload.build.appends";
    pub(crate) static BUILD_BYTES: Counter = "workload.build.bytes";
    pub(crate) static SCAN_READS: Counter = "workload.scan.reads";
    pub(crate) static SCAN_BYTES: Counter = "workload.scan.bytes";
    pub(crate) static STREAM_SCAN_READS: Counter = "workload.stream_scan.reads";
    pub(crate) static STREAM_SCAN_BYTES: Counter = "workload.stream_scan.bytes";
    pub(crate) static RANDOM_READS: Counter = "workload.random.reads";
    pub(crate) static RANDOM_BYTES: Counter = "workload.random.bytes";
    // Counted by `lobstore_obs::event`, which takes the name.
    pub(crate) static MARK: Counter = "workload.mark";
}
