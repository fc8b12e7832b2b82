//! Figure 7 (a/b/c): ESM storage utilization under the mixed workload,
//! for mean operation sizes 100 B / 10 KB / 100 KB and leaf sizes
//! 1/4/16/64 pages.
//!
//! Expected shape (§4.4.1): utilization starts near 100 % and degrades as
//! updates break leaves; for small ops all leaf sizes settle in the low
//! 80 %s; for 100 KB ops the ordering inverts decisively — 1-page leaves
//! stay near 96 % while 64-page leaves fall toward 75 %.

use lobstore_bench::{
    esm_specs, fmt_pct, print_banner, print_mark_table, run_update_sweep, Scale, MEAN_OP_SIZES,
};

fn main() {
    let scale = Scale::from_args();
    print_banner(
        "Figure 7: ESM storage utilization vs number of operations",
        scale,
    );
    for (panel, &mean) in ["a", "b", "c"].iter().zip(&MEAN_OP_SIZES) {
        let sweep = run_update_sweep(&esm_specs(), scale, mean);
        print_mark_table(
            &format!("(7.{panel}) mean operation size {mean} bytes"),
            &sweep,
            |m| fmt_pct(m.utilization),
        );
    }
}
