//! Table 3: Starburst insert and delete I/O cost.
//!
//! Every length-changing update copies the tail of the object — in the
//! steady state (one maximum-size segment for a 10 MB object) that is a
//! whole-object copy through the 512 KB staging buffer, so the cost is
//! the same for every operation size and for inserts and deletes alike.
//! Paper value: 22.3 s across the board; it scales linearly with object
//! size (≈2.5 min at 100 MB, §4.4.3).

use lobstore_bench::{fmt_s, fresh_db, note, print_banner, print_table, Scale, MEAN_OP_SIZES};
use lobstore_workload::{build_object, fill_bytes, ManagerSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let scale = Scale::from_args();
    print_banner("Table 3: Starburst insert and delete I/O cost", scale);

    // Each update copies the whole object, so a handful of operations per
    // size gives an exact average.
    let ops_per_size = 10usize;
    let mut rng = StdRng::seed_from_u64(3);

    let headers = vec![
        "mean op size (bytes)".to_string(),
        "100".to_string(),
        "10K".to_string(),
        "100K".to_string(),
    ];
    let mut insert_row = vec!["insert I/O cost (s)".to_string()];
    let mut delete_row = vec!["delete I/O cost (s)".to_string()];

    for &mean in &MEAN_OP_SIZES {
        let mut db = fresh_db();
        let (mut obj, _) = build_object(
            &mut db,
            &ManagerSpec::starburst(),
            scale.object_bytes,
            256 * 1024,
        )
        .expect("build");
        let mut buf = vec![0u8; (mean + mean / 2) as usize + 1];
        let mut insert_us = 0u64;
        let mut delete_us = 0u64;
        for i in 0..ops_per_size {
            let size = obj.size(&mut db);
            let len = rng.gen_range((mean / 2).max(1)..=mean + mean / 2);
            fill_bytes(&mut buf[..len as usize], i as u64);
            let off = rng.gen_range(0..=size);
            let before = db.io_stats();
            obj.insert(&mut db, off, &buf[..len as usize])
                .expect("insert");
            insert_us += (db.io_stats() - before).time_us;

            // The paper's rule: each delete removes what the previous
            // insert added, keeping the object size stable.
            let size = obj.size(&mut db);
            let off = rng.gen_range(0..=size - len);
            let before = db.io_stats();
            obj.delete(&mut db, off, len).expect("delete");
            delete_us += (db.io_stats() - before).time_us;
        }
        let n = ops_per_size as f64;
        insert_row.push(fmt_s(insert_us as f64 / 1e6 / n));
        delete_row.push(fmt_s(delete_us as f64 / 1e6 / n));
    }
    print_table(&headers, &[insert_row, delete_row]);
    note("Paper reports: 22.3 s for every operation size (at 10 MB).");
}
