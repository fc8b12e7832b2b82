//! Figure 10 (a/b/c): EOS random-read I/O cost under the mixed workload.
//!
//! Expected shape (§4.4.2): right after the build the cost is independent
//! of T (segments are still large); as updates degrade segments toward
//! ~T pages the curves separate — larger thresholds read cheaper, and a
//! threshold of 16 is enough to match Starburst (Table 2).

use lobstore_bench::{
    eos_specs, fmt_ms, print_banner, print_mark_table, run_update_sweep, Scale, MEAN_OP_SIZES,
};

fn main() {
    let scale = Scale::from_args();
    print_banner(
        "Figure 10: EOS read I/O cost (ms) vs number of operations",
        scale,
    );
    for (panel, &mean) in ["a", "b", "c"].iter().zip(&MEAN_OP_SIZES) {
        let sweep = run_update_sweep(&eos_specs(), scale, mean);
        print_mark_table(
            &format!("(10.{panel}) mean operation size {mean} bytes"),
            &sweep,
            |m| fmt_ms(m.read_ms),
        );
    }
}
