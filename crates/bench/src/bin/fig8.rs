//! Figure 8 (a/b/c): EOS storage utilization under the mixed workload,
//! for thresholds T = 1/4/16/64 pages.
//!
//! Expected shape (§4.4.1): the larger the threshold the better the
//! utilization, regardless of operation size — T=16 holds above ~98 %,
//! T=64 is essentially 100 %, T=1 is clearly the worst.

use lobstore_bench::{
    eos_specs, fmt_pct, print_banner, print_mark_table, run_update_sweep, Scale, MEAN_OP_SIZES,
};

fn main() {
    let scale = Scale::from_args();
    print_banner(
        "Figure 8: EOS storage utilization vs number of operations",
        scale,
    );
    for (panel, &mean) in ["a", "b", "c"].iter().zip(&MEAN_OP_SIZES) {
        let sweep = run_update_sweep(&eos_specs(), scale, mean);
        print_mark_table(
            &format!("(8.{panel}) mean operation size {mean} bytes"),
            &sweep,
            |m| fmt_pct(m.utilization),
        );
    }
}
