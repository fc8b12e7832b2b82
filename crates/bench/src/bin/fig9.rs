//! Figure 9 (a/b/c): ESM random-read I/O cost under the mixed workload.
//! Each mark is the average cost of the reads since the previous mark.
//!
//! Expected shape (§4.4.2): for 100-byte reads all leaf sizes are close
//! (1-page slightly worse: more index pages, more pool misses); for 10 KB
//! reads the 1-page cost is roughly double the 4-page cost; for 100 KB
//! reads larger leaves win clearly.

use lobstore_bench::{
    esm_specs, fmt_ms, print_banner, print_mark_table, run_update_sweep, Scale, MEAN_OP_SIZES,
};

fn main() {
    let scale = Scale::from_args();
    print_banner(
        "Figure 9: ESM read I/O cost (ms) vs number of operations",
        scale,
    );
    for (panel, &mean) in ["a", "b", "c"].iter().zip(&MEAN_OP_SIZES) {
        let sweep = run_update_sweep(&esm_specs(), scale, mean);
        print_mark_table(
            &format!("(9.{panel}) mean operation size {mean} bytes"),
            &sweep,
            |m| fmt_ms(m.read_ms),
        );
    }
}
