//! §4.6 summary claim: with a large enough threshold (T = 64), EOS
//! matches Starburst's read cost and storage utilization while its
//! length-changing updates cost far less. The note prints the ratio of
//! the rows' insert costs: 27× at paper scale (18.0 s vs 0.7 s), 3× at
//! `--quick`, whose 1 MB object keeps Starburst's whole-object copy short.

use lobstore_bench::{
    fmt_ms, fmt_pct, fmt_s, note, print_banner, print_table, summary46_row, Scale,
};
use lobstore_workload::ManagerSpec;

fn main() {
    let scale = Scale::from_args();
    print_banner("§4.6 summary: EOS (T=64) vs Starburst vs ESM/16", scale);
    let mean = 10_000u64;

    let mut rows = Vec::new();
    let mut insert = Vec::new();
    for spec in [
        ManagerSpec::eos(64),
        ManagerSpec::esm(16),
        ManagerSpec::starburst(),
    ] {
        let (read_ms, insert_s, util) = summary46_row(spec, scale, mean);
        insert.push(insert_s);
        rows.push(vec![
            spec.label(),
            fmt_ms(read_ms),
            fmt_s(insert_s),
            fmt_pct(util),
        ]);
    }

    print_table(
        &[
            "manager".to_string(),
            "avg 10K read (ms)".to_string(),
            "avg insert (s)".to_string(),
            "utilization".to_string(),
        ],
        &rows,
    );
    // Starburst's insert cost over EOS/64's (the first and last rows).
    let ratio = insert[2] / insert[0];
    note(&format!(
        "Expected: EOS/64 reads & utilization ≈ Starburst, with update cost lower ({ratio:.0}x above);\n\
         ESM cannot optimize reads and utilization at once (§4.6)."
    ));
}
