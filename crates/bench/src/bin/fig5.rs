//! Figure 5: time to build the object by successive fixed-size appends,
//! for ESM leaf sizes 1/4/16/64 and the shared Starburst/EOS growth curve.
//!
//! Expected shape (§4.2): larger appends are faster everywhere; ESM shows
//! a sawtooth — exact leaf-multiple appends (4 K into 1-page leaves, 16 K
//! into 4-page leaves, …) are local minima, mismatched sizes trigger the
//! redistribution and cost several times more; Starburst/EOS match or
//! beat ESM's best case at every append size.

use lobstore_bench::{
    esm_specs, fmt_s, fresh_db, note, print_banner, print_table, Scale, PAPER_APPEND_KB,
};
use lobstore_workload::{build_object, ManagerSpec};

fn main() {
    let scale = Scale::from_args();
    print_banner(
        "Figure 5: object creation time (seconds) vs append size",
        scale,
    );

    let mut specs = esm_specs();
    specs.push(ManagerSpec::starburst());
    specs.push(ManagerSpec::eos(4));

    let mut headers = vec!["append KB".to_string()];
    headers.extend(specs.iter().map(ManagerSpec::label));

    let mut rows = Vec::new();
    for &kb in &PAPER_APPEND_KB {
        let mut row = vec![kb.to_string()];
        for spec in &specs {
            let mut db = fresh_db();
            let (mut obj, rep) =
                build_object(&mut db, spec, scale.object_bytes, kb * 1024).expect("build");
            row.push(fmt_s(rep.seconds()));
            obj.check_invariants(&db).expect("invariants after build");
            obj.destroy(&mut db).expect("destroy");
        }
        rows.push(row);
    }
    print_table(&headers, &rows);
    note("Note: the Starburst and EOS columns should coincide (same growth pattern, §4.2).");
}
