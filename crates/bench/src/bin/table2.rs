//! Table 2: Starburst random-read I/O cost for mean operation sizes
//! 100 B / 10 KB / 100 KB.
//!
//! The Starburst structure is fully reorganized by every update, so read
//! cost does not depend on update history (§4.4.2); one update after the
//! build puts the object into its steady state (maximum-size segments).
//! Paper values: 37 / 54 / 201 ms.

use lobstore_bench::{fmt_ms, fresh_db, note, print_banner, print_table, Scale, MEAN_OP_SIZES};
use lobstore_workload::{build_object, random_reads, ManagerSpec};

fn main() {
    let scale = Scale::from_args();
    print_banner("Table 2: Starburst read I/O cost", scale);

    let mut db = fresh_db();
    let (mut obj, _) = build_object(
        &mut db,
        &ManagerSpec::starburst(),
        scale.object_bytes,
        256 * 1024,
    )
    .expect("build");
    // One length-changing update reorganizes into max-size segments.
    obj.insert(&mut db, scale.object_bytes / 2, b"steady state")
        .expect("insert");
    obj.delete(&mut db, scale.object_bytes / 2, 12)
        .expect("delete");

    let reads = (scale.ops / 10).max(100);
    let headers = vec![
        "mean op size (bytes)".to_string(),
        "100".to_string(),
        "10K".to_string(),
        "100K".to_string(),
    ];
    let mut row = vec!["read I/O cost (ms)".to_string()];
    for (i, &mean) in MEAN_OP_SIZES.iter().enumerate() {
        let rep = random_reads(&mut db, obj.as_ref(), reads, mean, 7 + i as u64).expect("reads");
        row.push(fmt_ms(Some(rep.avg_read_ms())));
    }
    print_table(&headers, &[row]);
    note("Paper reports: 37 / 54 / 201 ms.");
}
