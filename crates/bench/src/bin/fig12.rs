//! Figure 12 (a/b/c): EOS insert I/O cost under the mixed workload.
//!
//! Expected shape (§4.4.3): thresholds 1–4 cost the same (the new bytes
//! go to their own right-sized segment); above 4 the cost climbs with T
//! because of the extra page reshuffling the merge rule demands.

use lobstore_bench::{
    eos_specs, fmt_ms, print_banner, print_mark_table, run_update_sweep, Scale, MEAN_OP_SIZES,
};

fn main() {
    let scale = Scale::from_args();
    print_banner(
        "Figure 12: EOS insert I/O cost (ms) vs number of operations",
        scale,
    );
    for (panel, &mean) in ["a", "b", "c"].iter().zip(&MEAN_OP_SIZES) {
        let sweep = run_update_sweep(&eos_specs(), scale, mean);
        print_mark_table(
            &format!("(12.{panel}) mean operation size {mean} bytes"),
            &sweep,
            |m| fmt_ms(m.insert_ms),
        );
    }
}
