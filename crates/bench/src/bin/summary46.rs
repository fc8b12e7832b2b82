//! §4.6 summary claim: with a large enough threshold (T = 64), EOS
//! matches Starburst's read cost and storage utilization while its
//! length-changing updates cost roughly 30× less.

use lobstore_bench::{fmt_ms, fmt_pct, fmt_s, fresh_db, note, print_banner, print_table, Scale};
use lobstore_workload::{
    build_object, fill_bytes, random_reads, ManagerSpec, MixedConfig, MixedWorkload, OpKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
        let mut db = fresh_db();
        let append = match spec {
            ManagerSpec::Esm { leaf_pages } => leaf_pages as usize * 4096,
            _ => 256 * 1024,
        };
        let (mut obj, _) = build_object(&mut db, &spec, scale.object_bytes, append).expect("build");

        let (read_ms, insert_s, util) = if matches!(spec, ManagerSpec::Starburst { .. }) {
            // Starburst updates copy the whole object; a few suffice.
            let mut rng = StdRng::seed_from_u64(46);
            let mut buf = vec![0u8; (mean * 2) as usize];
            let mut insert_us = 0u64;
            let n = 6u32;
            for i in 0..n {
                let size = obj.size(&mut db);
                let len = rng.gen_range(mean / 2..=mean * 3 / 2);
                fill_bytes(&mut buf[..len as usize], u64::from(i));
                let off = rng.gen_range(0..=size);
                let before = db.io_stats();
                obj.insert(&mut db, off, &buf[..len as usize])
                    .expect("insert");
                insert_us += (db.io_stats() - before).time_us;
                let size = obj.size(&mut db);
                obj.delete(&mut db, rng.gen_range(0..=size - len), len)
                    .expect("delete");
            }
            let reads = random_reads(&mut db, obj.as_ref(), 300, mean, 46).expect("reads");
            (
                Some(reads.avg_read_ms()),
                insert_us as f64 / 1e6 / f64::from(n),
                obj.utilization(&db).ratio(),
            )
        } else {
            let mut w = MixedWorkload::new(MixedConfig {
                ops: scale.ops,
                mark_every: scale.mark_every,
                mean_op_bytes: mean,
                ..MixedConfig::default()
            });
            let rep = w.run(&mut db, obj.as_mut()).expect("mixed");
            let last = rep.marks.last().expect("marks");
            let read = rep.avg_ms(OpKind::Read, &rep.marks);
            let ins = rep.avg_ms(OpKind::Insert, &rep.marks).unwrap_or(0.0) / 1_000.0;
            (read, ins, last.utilization)
        };
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
