//! Figure 11 (a/b/c): ESM insert I/O cost under the mixed workload.
//!
//! Expected shape (§4.4.3): the best leaf size tracks the insert size
//! (1/4-page leaves for 100-byte inserts, 4-page for 10 KB, 16-page for
//! 100 KB); 64-page leaves are the most expensive for small inserts
//! because large parts of the segment must be rewritten; 1-page leaves
//! are poor for 100 KB inserts because 25 new pages land as random I/O.

use lobstore_bench::{
    esm_specs, fmt_ms, print_banner, print_mark_table, run_update_sweep, Scale, MEAN_OP_SIZES,
};

fn main() {
    let scale = Scale::from_args();
    print_banner(
        "Figure 11: ESM insert I/O cost (ms) vs number of operations",
        scale,
    );
    for (panel, &mean) in ["a", "b", "c"].iter().zip(&MEAN_OP_SIZES) {
        let sweep = run_update_sweep(&esm_specs(), scale, mean);
        print_mark_table(
            &format!("(11.{panel}) mean operation size {mean} bytes"),
            &sweep,
            |m| fmt_ms(m.insert_ms),
        );
    }
}
