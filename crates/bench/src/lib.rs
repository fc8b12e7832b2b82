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
//! --csv <dir>      also write every table as CSV into <dir>
//! --out-dir <dir>  directory for the human-readable report text
//!                  (default `results/`; created on demand)
//! --json-out <p>   also write a machine-readable JSON report to <p>
//!                  (schema `lobstore-bench-report/v1`)
//! ```
//!
//! Anything else — an unknown flag, a flag without its value, a value
//! that is not a number — prints the usage line and exits with status 2.
//!
//! Every printed banner, table, and note is also accumulated into an
//! in-process report; [`finalize`] (called at the end of every binary)
//! writes it as `<out-dir>/<bin>.txt` and, with `--json-out`, as one
//! JSON document with a record per table row (see DESIGN.md,
//! "Observability").

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use lobstore_core::{Db, DbConfig};
use lobstore_obs::json::Value;
use lobstore_workload::ManagerSpec;

pub use lobstore_obs::BENCH_REPORT_SCHEMA;

/// Directory for machine-readable CSV copies of every printed table
/// (`--csv <dir>`); tables are numbered per process in print order.
static CSV_DIR: OnceLock<Option<std::path::PathBuf>> = OnceLock::new();
static CSV_SEQ: AtomicUsize = AtomicUsize::new(0);

/// One printed table, retained for the JSON report.
struct TableRecord {
    table: usize,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// Everything the running binary has printed, accumulated for
/// [`finalize`].
#[derive(Default)]
struct ReportState {
    title: String,
    scale: Option<Scale>,
    tables: Vec<TableRecord>,
    notes: Vec<String>,
    text: String,
    /// Title to attach to the next table (set by [`print_mark_table`]).
    next_table_title: Option<String>,
    out_dir: Option<PathBuf>,
    json_out: Option<PathBuf>,
    /// Monotonic start of the run, set by [`print_banner`]; the elapsed
    /// time becomes the report's `wall_clock_us` field.
    started: Option<std::time::Instant>,
}

static REPORT: Mutex<Option<ReportState>> = Mutex::new(None);

fn with_report<R>(f: impl FnOnce(&mut ReportState) -> R) -> R {
    let mut guard = REPORT.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(ReportState::default))
}

/// Print `line` and retain it for the `<out-dir>/<bin>.txt` report.
fn emit_line(line: &str) {
    println!("{line}");
    with_report(|r| {
        r.text.push_str(line);
        r.text.push('\n');
    });
}

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
const USAGE: &str = "[--quick] [--mb N] [--ops N] [--csv DIR] [--out-dir DIR] [--json-out PATH]";

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

    /// Parse `args` (without the program name). The output flags take
    /// effect as they are read: `--csv` creates its directory, `--out-dir`
    /// and `--json-out` are noted for [`finalize`].
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
                "--csv" => {
                    let dir = PathBuf::from(value()?);
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
                    let _ = CSV_DIR.set(Some(dir));
                }
                "--out-dir" => {
                    let dir = PathBuf::from(value()?);
                    with_report(|r| r.out_dir = Some(dir));
                }
                "--json-out" => {
                    let path = PathBuf::from(value()?);
                    with_report(|r| r.json_out = Some(path));
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

/// Print the Table 1 banner every figure shares (also recorded as the
/// report's title and scale).
pub fn print_banner(title: &str, scale: Scale) {
    with_report(|r| {
        r.title = title.to_string();
        r.scale = Some(scale);
        r.started.get_or_insert_with(std::time::Instant::now);
    });
    emit_line(&format!("== {title} =="));
    emit_line(
        "   4K pages | 12-page pool | 4-page buffering limit | 33 ms seek | 1 KB/ms transfer",
    );
    emit_line(&format!(
        "   object {:.0} MB | {} ops, marks every {}\n",
        scale.object_mb(),
        scale.ops,
        scale.mark_every
    ));
}

/// Print a trailing remark (expected shapes, paper values) and retain it
/// in the report's `notes` array.
pub fn note(msg: &str) {
    with_report(|r| r.notes.push(msg.to_string()));
    emit_line(msg);
}

/// Write the accumulated report: always `<out-dir>/<bin>.txt` (the
/// directory defaults to `results/` and is created on demand), plus the
/// versioned JSON document when `--json-out` was given. Every binary
/// calls this once, last.
pub fn finalize() {
    let bin = bin_name();
    with_report(|r| {
        let out_dir = r
            .out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("results"));
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("warning: cannot create {}: {e}", out_dir.display());
        } else {
            let txt = out_dir.join(format!("{bin}.txt"));
            if let Err(e) = std::fs::write(&txt, &r.text) {
                eprintln!("warning: cannot write {}: {e}", txt.display());
            }
        }
        if let Some(path) = r.json_out.clone() {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let wall_us = r
                .started
                .map_or(1, |t| t.elapsed().as_micros().max(1) as u64);
            let doc = report_json(&bin, r, wall_us);
            if let Err(e) = std::fs::write(&path, doc.to_json() + "\n") {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
    });
}

/// The report as a `lobstore-bench-report/v1` JSON document: one record
/// per table row, `values` keyed by the column headers. `wall_clock_us`
/// is the binary's monotonic elapsed time, reported next to the
/// simulated costs in the records.
fn report_json(bin: &str, r: &ReportState, wall_clock_us: u64) -> Value {
    let scale = r.scale.unwrap_or_else(Scale::paper);
    let mut records = Vec::new();
    for t in &r.tables {
        for row in &t.rows {
            let values = Value::Obj(
                t.headers
                    .iter()
                    .zip(row)
                    .map(|(h, c)| (h.clone(), Value::from(c.as_str())))
                    .collect(),
            );
            records.push(Value::Obj(vec![
                ("table".to_string(), Value::from(t.table as u64)),
                ("title".to_string(), Value::from(t.title.as_str())),
                ("values".to_string(), values),
            ]));
        }
    }
    Value::Obj(vec![
        ("schema".to_string(), Value::from(BENCH_REPORT_SCHEMA)),
        ("bin".to_string(), Value::from(bin)),
        ("title".to_string(), Value::from(r.title.as_str())),
        ("wall_clock_us".to_string(), Value::from(wall_clock_us)),
        (
            "scale".to_string(),
            Value::Obj(vec![
                ("object_bytes".to_string(), Value::from(scale.object_bytes)),
                ("ops".to_string(), Value::from(scale.ops as u64)),
                (
                    "mark_every".to_string(),
                    Value::from(scale.mark_every as u64),
                ),
            ]),
        ),
        ("records".to_string(), Value::Arr(records)),
        (
            "notes".to_string(),
            Value::Arr(r.notes.iter().map(|n| Value::from(n.as_str())).collect()),
        ),
    ])
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

/// Print one mark-by-mark table for `metric` over the sweep results.
pub fn print_mark_table(
    title: &str,
    sweep: &[(String, lobstore_workload::MixedReport)],
    metric: impl Fn(&lobstore_workload::Mark) -> String,
) {
    with_report(|r| r.next_table_title = Some(title.to_string()));
    emit_line(title);
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
/// The table is also retained as a set of JSON report records.
pub fn print_table(headers: &[String], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    write_csv(headers, rows);
    with_report(|r| {
        let table = r.tables.len();
        let title = r.next_table_title.take().unwrap_or_default();
        r.tables.push(TableRecord {
            table,
            title,
            headers: headers.to_vec(),
            rows: rows.to_vec(),
        });
    });
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
    emit_line(&line(headers));
    emit_line(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    for row in rows {
        emit_line(&line(row));
    }
    emit_line("");
}

/// Write a CSV copy of a printed table into the `--csv` directory (if
/// one was given), named `<binary>_<sequence>.csv`.
fn write_csv(headers: &[String], rows: &[Vec<String>]) {
    let Some(Some(dir)) = CSV_DIR
        .get()
        .map(Option::as_ref)
        .map(|d| d.map(|p| p.to_path_buf()))
    else {
        return;
    };
    let bin = std::env::args()
        .next()
        .and_then(|p| {
            std::path::Path::new(&p)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "table".to_string());
    let n = CSV_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{bin}_{n:02}.csv"));
    let mut out = String::new();
    let quote = |c: &str| {
        if c.contains(',') || c.contains('"') {
            format!("\"{}\"", c.replace('"', "\"\""))
        } else {
            c.to_string()
        }
    };
    out.push_str(
        &headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
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
    fn report_json_round_trips_tables_and_notes() {
        let r = ReportState {
            title: "Figure X".to_string(),
            scale: Some(Scale::quick()),
            tables: vec![TableRecord {
                table: 0,
                title: "read cost".to_string(),
                headers: vec!["ops".to_string(), "ESM/1".to_string()],
                rows: vec![
                    vec!["200".to_string(), "37.0".to_string()],
                    vec!["400".to_string(), "38.5".to_string()],
                ],
            }],
            notes: vec!["expected shape: flat".to_string()],
            ..ReportState::default()
        };
        let doc = report_json("figx", &r, 1234);
        let v = lobstore_obs::json::parse(&doc.to_json()).unwrap();
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some(BENCH_REPORT_SCHEMA)
        );
        assert_eq!(v.get("bin").and_then(Value::as_str), Some("figx"));
        assert_eq!(v.get("wall_clock_us").and_then(Value::as_u64), Some(1234));
        assert_eq!(
            v.get("scale")
                .and_then(|s| s.get("object_bytes"))
                .and_then(Value::as_u64),
            Some(1 << 20)
        );
        let records = v.get("records").and_then(Value::as_arr).unwrap();
        assert_eq!(records.len(), 2, "one record per table row");
        let first = &records[0];
        assert_eq!(first.get("table").and_then(Value::as_u64), Some(0));
        assert_eq!(
            first.get("title").and_then(Value::as_str),
            Some("read cost")
        );
        assert_eq!(
            first
                .get("values")
                .and_then(|o| o.get("ESM/1"))
                .and_then(Value::as_str),
            Some("37.0")
        );
        let notes = v.get("notes").and_then(Value::as_arr).unwrap();
        assert_eq!(notes.len(), 1);
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
        for flag in ["--mb", "--ops", "--csv", "--out-dir", "--json-out"] {
            assert_eq!(parse(&[flag]), Err(format!("{flag} needs a value")));
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
