//! Figure 6: time to sequentially scan the whole object in fixed-size
//! chunks (the n-byte scan runs over the object created by n-byte
//! appends, as in §4.3).
//!
//! Expected shape: below one page all curves coincide; ESM/1 is flat and
//! worst (every page fetch seeks); larger ESM leaves plateau once the
//! scan size exceeds the leaf size; Starburst/EOS track or beat ESM's
//! best case. The floor is the pure transfer time (≈10 s for 10 MB).

use lobstore_bench::{
    esm_specs, fmt_s, fresh_db, note, print_banner, print_table, Scale, PAPER_APPEND_KB,
};
use lobstore_workload::{build_object, sequential_scan, ManagerSpec};

fn main() {
    let scale = Scale::from_args();
    print_banner(
        "Figure 6: sequential scan time (seconds) vs scan size",
        scale,
    );

    let mut specs = esm_specs();
    specs.push(ManagerSpec::starburst());
    specs.push(ManagerSpec::eos(4));

    let mut headers = vec!["scan KB".to_string()];
    headers.extend(specs.iter().map(ManagerSpec::label));

    let mut rows = Vec::new();
    for &kb in &PAPER_APPEND_KB {
        let mut row = vec![kb.to_string()];
        for spec in &specs {
            let mut db = fresh_db();
            let (mut obj, _) =
                build_object(&mut db, spec, scale.object_bytes, kb * 1024).expect("build");
            let rep = sequential_scan(&mut db, obj.as_ref(), kb * 1024).expect("scan");
            row.push(fmt_s(rep.seconds()));
            obj.destroy(&mut db).expect("destroy");
        }
        rows.push(row);
    }
    print_table(&headers, &rows);
    note(&format!(
        "Transfer-rate floor: {:.1} s for this object size.",
        scale.object_bytes as f64 / 1024.0 / 1000.0
    ));
}
