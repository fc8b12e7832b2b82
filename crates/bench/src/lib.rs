//! Shared harness for the per-figure benchmark binaries.
//!
//! Every binary regenerates one table or figure of Biliris SIGMOD '92.
//! Absolute numbers depend only on the Table 1 cost model, so runs are
//! deterministic; the *shapes* (who wins, by what factor, where the
//! crossovers fall) are the reproduction targets — see EXPERIMENTS.md.
//!
//! All binaries accept:
//!
//! ```text
//! --mb <N>         object size in MB        (default 10, the paper's)
//! --ops <N>        mixed-workload ops       (default 10000)
//! --quick          1 MB / 1000 ops smoke scale
//! ```
//!
//! Anything else — an unknown flag, a flag without its value, a value
//! that is not a number — prints the usage line and exits with status 2.
//!
//! Every banner, table and note goes to stdout, which is the whole
//! result; `run_all_benches.sh` saves it as `results/<bin>.txt`.

use lobstore_core::{Db, DbConfig};
use lobstore_workload::ManagerSpec;

/// The running binary's name (file stem of `argv[0]`).
fn bin_name() -> String {
    std::env::args()
        .next()
        .and_then(|p| {
            std::path::Path::new(&p)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "bench".to_string())
}

/// The exact append/scan sizes of Figure 5's x-axis (in KB), from the
/// paper's footnote 2.
pub const PAPER_APPEND_KB: [usize; 21] = [
    3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32, 50, 64, 100, 128, 200, 256, 512,
];

/// ESM leaf sizes evaluated by the paper (§4.1).
pub const ESM_LEAF_PAGES: [u32; 4] = [1, 4, 16, 64];

/// EOS segment-size thresholds evaluated by the paper (§4.1).
pub const EOS_THRESHOLDS: [u32; 4] = [1, 4, 16, 64];

/// Mean operation sizes of §4.4 (bytes).
pub const MEAN_OP_SIZES: [u64; 3] = [100, 10_000, 100_000];

/// The flags every binary takes, for the usage line.
const USAGE: &str = "[--quick] [--mb N] [--ops N]";

/// Experiment scale, adjustable from the command line.
#[derive(Copy, Clone, Debug)]
pub struct Scale {
    pub object_bytes: u64,
    pub ops: usize,
    pub mark_every: usize,
}

impl Scale {
    /// The paper's scale: a 10 MB object, 10 000 operations, marks every
    /// 2 000.
    pub fn paper() -> Scale {
        Scale {
            object_bytes: 10 << 20,
            ops: 10_000,
            mark_every: 2_000,
        }
    }

    /// Reduced scale for smoke runs.
    pub fn quick() -> Scale {
        Scale {
            object_bytes: 1 << 20,
            ops: 1_000,
            mark_every: 200,
        }
    }

    /// Parse the process arguments (see the crate docs); on a malformed
    /// command line print the usage line to stderr and exit 2.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Scale::parse(&args).unwrap_or_else(|msg| {
            let bin = bin_name();
            eprintln!("{bin}: {msg}\nusage: {bin} {USAGE}");
            std::process::exit(2)
        })
    }

    /// Parse `args` (without the program name).
    fn parse(args: &[String]) -> Result<Scale, String> {
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag} takes a number, got `{v}`"))
        }
        let mut scale = Scale::paper();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let mut value = || rest.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => scale = Scale::quick(),
                "--mb" => scale.object_bytes = number::<u64>(flag, value()?)? << 20,
                "--ops" => {
                    scale.ops = number(flag, value()?)?;
                    scale.mark_every = (scale.ops / 5).max(1);
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(scale)
    }

    pub fn object_mb(&self) -> f64 {
        self.object_bytes as f64 / (1 << 20) as f64
    }
}

/// A fresh paper-default database.
pub fn fresh_db() -> Db {
    Db::new(DbConfig::default())
}

/// Print the Table 1 banner every figure shares.
pub fn print_banner(title: &str, scale: Scale) {
    println!("== {title} ==");
    println!("   4K pages | 12-page pool | 4-page buffering limit | 33 ms seek | 1 KB/ms transfer");
    println!(
        "   object {:.0} MB | {} ops, marks every {}\n",
        scale.object_mb(),
        scale.ops,
        scale.mark_every
    );
}

/// Print a trailing remark (expected shapes, paper values).
pub fn note(msg: &str) {
    println!("{msg}");
}

/// Column specs of the standard manager sweeps.
pub fn esm_specs() -> Vec<ManagerSpec> {
    ESM_LEAF_PAGES
        .iter()
        .map(|&p| ManagerSpec::esm(p))
        .collect()
}

pub fn eos_specs() -> Vec<ManagerSpec> {
    EOS_THRESHOLDS
        .iter()
        .map(|&t| ManagerSpec::eos(t))
        .collect()
}

/// Run the §4.4 update experiment for every spec: build the object with
/// exact-fit appends (initial utilization ≈ 100 %), trim, then apply the
/// 40/30/30 mixed workload with mean operation size `mean`, collecting a
/// mark every `scale.mark_every` ops. Returns `(label, report)` pairs.
pub fn run_update_sweep(
    specs: &[ManagerSpec],
    scale: Scale,
    mean: u64,
) -> Vec<(String, lobstore_workload::MixedReport)> {
    use lobstore_workload::{build_object, MixedConfig, MixedWorkload};
    specs
        .iter()
        .map(|spec| {
            let mut db = fresh_db();
            // Exact-fit build keeps ESM leaves full; 256 KB for the rest.
            let append = match *spec {
                ManagerSpec::Esm { leaf_pages } => leaf_pages as usize * 4096,
                _ => 256 * 1024,
            };
            let (mut obj, _) =
                build_object(&mut db, spec, scale.object_bytes, append).expect("build");
            let mut w = MixedWorkload::new(MixedConfig {
                ops: scale.ops,
                mark_every: scale.mark_every,
                mean_op_bytes: mean,
                ..MixedConfig::default()
            });
            let report = w.run(&mut db, obj.as_mut()).expect("mixed workload");
            obj.check_invariants(&db)
                .expect("invariants after workload");
            (spec.label(), report)
        })
        .collect()
}

/// One row of the §4.6 summary for `spec` at `scale`, with mean
/// operation size `mean`: the average read cost (ms), the average insert
/// cost (s) and the final storage utilization. ESM and EOS run
/// [`run_update_sweep`]'s update mix. Starburst, whose length-changing
/// updates copy the whole object, runs six insert + delete pairs on a
/// build of 256 KB appends, then 300 random reads.
pub fn summary46_row(spec: ManagerSpec, scale: Scale, mean: u64) -> (Option<f64>, f64, f64) {
    use lobstore_workload::{build_object, fill_bytes, random_reads, OpKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    if !matches!(spec, ManagerSpec::Starburst { .. }) {
        let (_, rep) = run_update_sweep(&[spec], scale, mean).remove(0);
        let last = rep.marks.last().expect("marks");
        let read = rep.avg_ms(OpKind::Read, &rep.marks);
        let ins = rep.avg_ms(OpKind::Insert, &rep.marks).unwrap_or(0.0) / 1_000.0;
        return (read, ins, last.utilization);
    }
    let mut db = fresh_db();
    let (mut obj, _) = build_object(&mut db, &spec, scale.object_bytes, 256 * 1024).expect("build");
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
}

/// Print one mark-by-mark table for `metric` over the sweep results.
pub fn print_mark_table(
    title: &str,
    sweep: &[(String, lobstore_workload::MixedReport)],
    metric: impl Fn(&lobstore_workload::Mark) -> String,
) {
    println!("{title}");
    let mut headers = vec!["ops".to_string()];
    headers.extend(sweep.iter().map(|(l, _)| l.clone()));
    let n_marks = sweep[0].1.marks.len();
    let mut rows = Vec::with_capacity(n_marks);
    for i in 0..n_marks {
        let mut row = vec![sweep[0].1.marks[i].ops_done.to_string()];
        for (_, rep) in sweep {
            row.push(metric(&rep.marks[i]));
        }
        rows.push(row);
    }
    print_table(&headers, &rows);
}

/// Render an aligned text table: `headers` then rows of equal length.
pub fn print_table(headers: &[String], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{cell:>w$}"));
        }
        s
    };
    println!("{}", line(headers));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        println!("{}", line(row));
    }
    println!();
}

/// Format an optional millisecond value.
pub fn fmt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |ms| format!("{ms:.1}"))
}

/// Format seconds.
pub fn fmt_s(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a utilization ratio as a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        assert_eq!(PAPER_APPEND_KB.len(), 21);
        assert_eq!(Scale::paper().object_bytes, 10 * 1024 * 1024);
    }

    #[test]
    fn spec_sweeps() {
        assert_eq!(esm_specs().len(), 4);
        assert_eq!(eos_specs().len(), 4);
        assert_eq!(esm_specs()[2].label(), "ESM/16");
    }

    #[test]
    fn malformed_command_lines_are_errors_not_panics() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(ToString::to_string).collect();
            Scale::parse(&args).map(|s| (s.object_bytes, s.ops, s.mark_every))
        };
        assert_eq!(parse(&[]), Ok((10 << 20, 10_000, 2_000)));
        assert_eq!(
            parse(&["--quick", "--mb", "3", "--ops", "50"]),
            Ok((3 << 20, 50, 10))
        );
        for flag in ["--mb", "--ops"] {
            assert_eq!(parse(&[flag]), Err(format!("{flag} needs a value")));
        }
        // The report flags are gone: a script that still passes them
        // fails loudly instead of writing nothing.
        for flag in ["--csv", "--out-dir", "--json-out"] {
            assert_eq!(
                parse(&[flag, "results"]),
                Err(format!("unknown argument {flag}"))
            );
        }
        assert_eq!(
            parse(&["--mb", "x"]),
            Err("--mb takes a number, got `x`".to_string())
        );
        assert_eq!(
            parse(&["--quick", "--nope"]),
            Err("unknown argument --nope".to_string())
        );
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ms(None), "-");
        assert_eq!(fmt_ms(Some(37.04)), "37.0");
        assert_eq!(fmt_pct(0.985), "98.5%");
        assert_eq!(fmt_s(22.34), "22.3");
    }
}
