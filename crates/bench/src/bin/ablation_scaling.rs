//! Scaling (§4.2, §4.4.3): build cost is linear in object size for every
//! manager; steady-state update cost is independent of object size for
//! ESM/EOS but grows linearly for Starburst (≈2.5 min per update at
//! 100 MB, §4.4.3).
//!
//! ESM/EOS are warmed with a few updates first so the doubling-built
//! segments have degraded to their steady-state sizes — the paper's
//! update figures likewise measure a structure under churn, not the
//! pristine build.

use lobstore_bench::{fmt_s, fresh_db, note, print_banner, print_table, Scale};
use lobstore_core::{Db, LargeObject};
use lobstore_workload::{build_object, fill_bytes, ManagerSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One insert+delete round at random positions (object size stable).
fn churn(obj: &mut dyn LargeObject, db: &mut Db, rng: &mut StdRng, buf: &mut [u8]) {
    let size = obj.size(db);
    let len = rng.gen_range(5_000..=15_000u64);
    fill_bytes(&mut buf[..len as usize], size);
    obj.insert(db, rng.gen_range(0..=size), &buf[..len as usize])
        .expect("insert");
    let size = obj.size(db);
    obj.delete(db, rng.gen_range(0..=size - len), len)
        .expect("delete");
}

fn main() {
    let scale = Scale::from_args();
    print_banner(
        "Scaling: build time and steady-state update cost vs object size",
        scale,
    );

    let sizes_mb: Vec<u64> = [1u64, 2, 5, 10, 20]
        .into_iter()
        .filter(|&mb| (mb << 20) <= 2 * scale.object_bytes)
        .collect();

    let specs = [
        ManagerSpec::esm(16),
        ManagerSpec::eos(16),
        ManagerSpec::starburst(),
    ];
    let mut headers = vec!["MB".to_string()];
    for s in &specs {
        headers.push(format!("{} build (s)", s.label()));
        headers.push(format!("{} update (s)", s.label()));
    }

    let mut rows = Vec::new();
    for &mb in &sizes_mb {
        let bytes = mb << 20;
        let mut row = vec![mb.to_string()];
        for spec in &specs {
            let mut db = fresh_db();
            let (mut obj, rep) = build_object(&mut db, spec, bytes, 64 * 1024).expect("build");
            row.push(fmt_s(rep.seconds()));

            let mut rng = StdRng::seed_from_u64(mb);
            let mut buf = vec![0u8; 15_000];
            // Warm up: Starburst's cost is already steady; ESM/EOS need a
            // few updates so built segments degrade to their churn sizes.
            let is_star = matches!(spec, ManagerSpec::Starburst { .. });
            let warmups = if is_star { 1 } else { 25 };
            for _ in 0..warmups {
                churn(obj.as_mut(), &mut db, &mut rng, &mut buf);
            }
            let n = if is_star { 3 } else { 10 };
            let before = db.io_stats();
            for _ in 0..n {
                churn(obj.as_mut(), &mut db, &mut rng, &mut buf);
            }
            // Each round is one insert plus one delete; report per update.
            let avg_s = (db.io_stats() - before).time_s() / (2.0 * n as f64);
            row.push(format!("{avg_s:.2}"));
        }
        rows.push(row);
    }
    print_table(&headers, &rows);
    note("Expected: build columns scale linearly; ESM/EOS update flat; Starburst update linear.");
}
