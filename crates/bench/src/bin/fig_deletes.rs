//! Delete I/O cost for ESM and EOS (§4.4.3 discusses these without
//! graphs — "the trends mentioned for inserts are also valid for the
//! delete operations"; the graphs lived in the technical report).

use lobstore_bench::{
    eos_specs, esm_specs, fmt_ms, print_banner, print_mark_table, run_update_sweep, Scale,
    MEAN_OP_SIZES,
};

fn main() {
    let scale = Scale::from_args();
    print_banner("Deletes (tech-report figures): delete I/O cost (ms)", scale);
    for (name, specs) in [("ESM", esm_specs()), ("EOS", eos_specs())] {
        for &mean in &MEAN_OP_SIZES {
            let sweep = run_update_sweep(&specs, scale, mean);
            print_mark_table(
                &format!("{name}, mean operation size {mean} bytes"),
                &sweep,
                |m| fmt_ms(m.delete_ms),
            );
        }
    }
}
