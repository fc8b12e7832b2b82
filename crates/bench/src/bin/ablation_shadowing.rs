//! Ablation (§3.3): update costs with and without shadowing.
//!
//! The paper includes shadowing so segment size influences update cost
//! ("with shadowing, updating one page of a 64-block segment is ~6-7x
//! more costly than one page of a 2-block segment"). Turning it off makes
//! small in-place updates nearly free of the segment-size effect.

use lobstore_bench::{fmt_ms, note, print_banner, print_table, Scale};
use lobstore_core::{Db, DbConfig};
use lobstore_workload::{build_object, fill_bytes, ManagerSpec};

fn main() {
    let scale = Scale::from_args();
    print_banner("Ablation: shadowing on/off — 100-byte replace cost", scale);

    let mut rows = Vec::new();
    for spec in [
        ManagerSpec::esm(1),
        ManagerSpec::esm(16),
        ManagerSpec::esm(64),
        ManagerSpec::eos(16),
    ] {
        let mut cells = vec![spec.label()];
        for shadowing in [true, false] {
            let mut db = Db::new(DbConfig {
                shadowing,
                ..DbConfig::default()
            });
            let append = match spec {
                ManagerSpec::Esm { leaf_pages } => leaf_pages as usize * 4096,
                _ => 256 * 1024,
            };
            let (mut obj, _) =
                build_object(&mut db, &spec, scale.object_bytes, append).expect("build");
            let mut patch = [0u8; 100];
            let n = 200u64;
            let before = db.io_stats();
            for i in 0..n {
                fill_bytes(&mut patch, i);
                let off = (i * 48_271) % (scale.object_bytes - 100);
                obj.replace(&mut db, off, &patch).expect("replace");
            }
            let avg = (db.io_stats() - before).time_ms() / n as f64;
            cells.push(fmt_ms(Some(avg)));
        }
        rows.push(cells);
    }
    print_table(
        &[
            "config".to_string(),
            "shadowed (ms)".to_string(),
            "in place (ms)".to_string(),
        ],
        &rows,
    );
    note("Expected: with shadowing the cost grows with segment size; without it, it barely does.");
}
