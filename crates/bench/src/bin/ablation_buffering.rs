//! Ablation (§3.3/§4.5): page-grained reads vs the \[Care86\] prototype
//! assumption of whole-leaf I/O. The paper's detailed model reads only
//! the pages holding the requested bytes, which is what reveals the
//! advantage of large leaves for reads.

use lobstore_bench::{fmt_ms, fresh_db, note, print_banner, print_table, Scale};
use lobstore_core::{Lob, ManagerSpec};
use lobstore_workload::{build_by_appends, random_reads};

fn main() {
    let scale = Scale::from_args();
    print_banner(
        "Ablation: page-grained vs whole-leaf read I/O in ESM",
        scale,
    );

    let mut rows = Vec::new();
    for leaf_pages in [4u32, 16, 64] {
        for whole in [false, true] {
            let mut db = fresh_db();
            let mut obj = Lob::create(&mut db, ManagerSpec::esm(leaf_pages)).expect("create");
            build_by_appends(
                &mut db,
                &mut obj,
                scale.object_bytes,
                leaf_pages as usize * 4096,
            )
            .expect("build");
            obj.whole_leaf_io = whole;
            let mut cells = vec![format!(
                "ESM/{leaf_pages} {}",
                if whole { "whole-leaf" } else { "page-grained" }
            )];
            for (i, mean) in [100u64, 10_000, 100_000].into_iter().enumerate() {
                let rep = random_reads(&mut db, &obj, 300, mean, 11 + i as u64).expect("reads");
                cells.push(fmt_ms(Some(rep.avg_read_ms())));
            }
            rows.push(cells);
        }
    }
    print_table(
        &[
            "config".to_string(),
            "100 B (ms)".to_string(),
            "10 KB (ms)".to_string(),
            "100 KB (ms)".to_string(),
        ],
        &rows,
    );
    note("Expected: whole-leaf I/O erases the large-leaf read advantage (§4.5).");
}
