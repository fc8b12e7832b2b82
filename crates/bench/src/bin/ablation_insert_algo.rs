//! Ablation (§3.4): ESM *basic* vs *improved* byte-insert algorithm.
//!
//! \[Care86\]'s claim, adopted by the paper: the improved algorithm gains
//! significant storage utilization at minimal additional insert cost.

use lobstore_bench::{fmt_ms, fmt_pct, fresh_db, note, print_banner, print_table, Scale};
use lobstore_core::{EsmInsertAlgo, Lob, ManagerSpec};
use lobstore_workload::{build_by_appends, MixedConfig, MixedWorkload, OpKind};

fn main() {
    let scale = Scale::from_args();
    print_banner("Ablation: ESM basic vs improved insert algorithm", scale);

    let mut rows = Vec::new();
    for (leaf_pages, mean) in [(1u32, 100u64), (1, 10_000), (4, 10_000), (16, 100_000)] {
        for algo in [EsmInsertAlgo::Basic, EsmInsertAlgo::Improved] {
            let mut db = fresh_db();
            let mut obj = Lob::create(&mut db, ManagerSpec::esm(leaf_pages)).expect("create");
            obj.insert_algo = algo;
            build_by_appends(
                &mut db,
                &mut obj,
                scale.object_bytes,
                leaf_pages as usize * 4096,
            )
            .expect("build");
            let mut w = MixedWorkload::new(MixedConfig {
                ops: scale.ops,
                mark_every: scale.mark_every,
                mean_op_bytes: mean,
                ..MixedConfig::default()
            });
            let rep = w.run(&mut db, &mut obj).expect("mixed");
            let last = rep.marks.last().expect("marks");
            rows.push(vec![
                format!("ESM/{leaf_pages} {algo:?} @{mean}B"),
                fmt_pct(last.utilization),
                fmt_ms(rep.avg_ms(OpKind::Insert, &rep.marks)),
            ]);
        }
    }
    print_table(
        &[
            "config".to_string(),
            "utilization".to_string(),
            "avg insert (ms)".to_string(),
        ],
        &rows,
    );
    note("Expected: Improved holds noticeably higher utilization for ~equal insert cost.");
}
