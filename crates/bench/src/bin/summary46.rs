//! §4.6 summary claim: with a large enough threshold (T = 64), EOS
//! matches Starburst's read cost and storage utilization while its
//! length-changing updates cost roughly 30× less.

use lobstore_bench::{
    fmt_ms, fmt_pct, fmt_s, note, print_banner, print_table, summary46_row, Scale,
};
use lobstore_workload::ManagerSpec;

fn main() {
    let scale = Scale::from_args();
    print_banner("§4.6 summary: EOS (T=64) vs Starburst vs ESM/16", scale);
    let mean = 10_000u64;

    let mut rows = Vec::new();
    for spec in [
        ManagerSpec::eos(64),
        ManagerSpec::esm(16),
        ManagerSpec::starburst(),
    ] {
        let (read_ms, insert_s, util) = summary46_row(spec, scale, mean);
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
    note(
        "Expected: EOS/64 reads & utilization ≈ Starburst, with update cost ~30x lower;\n\
         ESM cannot optimize reads and utilization at once (§4.6).",
    );
}
