//! `lobctl` — manage named large objects in a lobstore database image.
//!
//! A database image is a single file (the `lobstore-simdisk` image
//! format). Objects are addressed by name through a [`Catalog`] whose
//! first page is, by convention, the first META page the freshly
//! initialized database allocates.
//!
//! ```text
//! lobctl <image> init
//! lobctl <image> create <name> esm <leaf_pages> | eos <threshold> | starburst
//! lobctl <image> ls
//! lobctl <image> put <name> <file>             append a file's bytes
//! lobctl <image> cat <name> [<off> <len>]      bytes to stdout
//! lobctl <image> insert <name> <off> <file>    splice a file in
//! lobctl <image> cut <name> <off> <len>        delete a byte range
//! lobctl <image> stat <name>                   size, utilization, segments
//! lobctl <image> rm <name>                     destroy object + name
//! lobctl <image> info                          database totals
//! lobctl <image> stats [--json] [--watch <n>]  per-scheme storage summary
//! lobctl <image> check [--json]                consistency check (fsck)
//! ```
//!
//! `check` exits 0 when the image is consistent, 1 when it reported
//! findings, and 2 when the image could not be read at all.
//!
//! Every mutating command reports the simulated I/O it cost, so the CLI
//! doubles as a hands-on explorer of the paper's cost model.

mod check;

pub use check::{check_database, findings_to_json};
pub use lobstore_core::Finding;

use std::io::Write as _;

use lobstore_core::{Catalog, Db, DbConfig, LargeObject, LobError, ManagerSpec, StorageKind};

/// Exit status plus everything printed, for testability.
pub struct Outcome {
    pub status: i32,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

impl Outcome {
    fn ok(stdout: Vec<u8>) -> Outcome {
        Outcome {
            status: 0,
            stdout,
            stderr: String::new(),
        }
    }

    /// Exit status 1 with `msg` as stderr, ended by a newline.
    fn err(msg: impl Into<String>) -> Outcome {
        let mut stderr = msg.into();
        if !stderr.ends_with('\n') {
            stderr.push('\n');
        }
        Outcome {
            status: 1,
            stdout: Vec::new(),
            stderr,
        }
    }
}

/// By convention the catalog sits on the first META data page (the dir
/// page of space 0 is page 0, so the first allocation returns page 1).
const CATALOG_ROOT: u32 = 1;

/// Run one `lobctl` invocation. `args` excludes the program name.
pub fn run(args: &[String]) -> Outcome {
    let usage =
        "usage: lobctl <image> <init|create|ls|put|cat|insert|cut|stat|rm|info|stats|check> ...";
    if args.len() < 2 {
        return Outcome::err(usage);
    }
    let image = &args[0];
    let cmd = args[1].as_str();
    let rest = &args[2..];

    if cmd == "init" {
        let mut db = Db::new(DbConfig::default());
        let cat = match Catalog::create(&mut db) {
            Ok(c) => c,
            Err(e) => return Outcome::err(e.to_string()),
        };
        debug_assert_eq!(cat.root_page(), CATALOG_ROOT);
        return match db.save_to_path(image) {
            Ok(()) => Outcome::ok(format!("initialized {image}\n").into_bytes()),
            Err(e) => Outcome::err(e.to_string()),
        };
    }

    // Every other command works on an existing image. `check` signals an
    // unreadable image with exit status 2 (fsck convention) so scripts can
    // tell "could not even look" from "looked and found problems".
    let unreadable = |msg: String| {
        let mut o = Outcome::err(msg);
        if cmd == "check" {
            o.status = 2;
        }
        o
    };
    let mut db = match Db::load_from_path(image, DbConfig::default()) {
        Ok(db) => db,
        Err(e) => return unreadable(format!("cannot open {image}: {e}")),
    };
    let mut cat = match Catalog::open(&mut db, CATALOG_ROOT) {
        Ok(c) => c,
        Err(e) => return unreadable(format!("{image} has no catalog: {e}")),
    };

    let before = db.io_stats();
    let mut out: Vec<u8> = Vec::new();
    let mutating;

    macro_rules! bail {
        ($($t:tt)*) => { return Outcome::err(format!($($t)*)) };
    }
    macro_rules! need {
        ($n:expr, $what:expr) => {
            if rest.len() != $n {
                bail!("{}", $what);
            }
        };
    }

    match cmd {
        "create" => {
            mutating = true;
            if rest.len() < 2 {
                bail!("usage: create <name> esm <leaf_pages> | eos <threshold> | starburst");
            }
            let name = &rest[0];
            let spec = match (rest[1].as_str(), rest.get(2)) {
                ("esm", Some(p)) => match p.parse() {
                    Ok(p) => ManagerSpec::esm(p),
                    Err(_) => bail!("bad leaf page count '{p}'"),
                },
                ("eos", Some(t)) => match t.parse() {
                    Ok(t) => ManagerSpec::eos(t),
                    Err(_) => bail!("bad threshold '{t}'"),
                },
                ("starburst", None) => ManagerSpec::starburst(),
                _ => bail!("unknown kind; use: esm <pages> | eos <threshold> | starburst"),
            };
            let obj = match spec.create(&mut db) {
                Ok(o) => o,
                Err(e) => bail!("{e}"),
            };
            if let Err(e) = cat.put(&mut db, name, obj.kind(), obj.root_page()) {
                bail!("{e}");
            }
            let _ = writeln!(out, "created {name} ({})", spec.label());
        }
        "ls" => {
            mutating = false;
            let entries = match cat.list(&mut db) {
                Ok(e) => e,
                Err(e) => bail!("{e}"),
            };
            for e in entries {
                let mut obj = match lobstore_core::open_object(&mut db, e.kind, e.root_page) {
                    Ok(o) => o,
                    Err(err) => bail!("{err}"),
                };
                let size = obj.size(&mut db);
                let u = obj.utilization(&db);
                let _ = writeln!(
                    out,
                    "{:<24} {:>10} B  {:<9} util {:>5.1}%",
                    e.name,
                    size,
                    e.kind.to_string(),
                    u.ratio() * 100.0
                );
                let _ = &mut obj;
            }
        }
        "put" | "insert" => {
            mutating = true;
            let (name, off, file) = if cmd == "put" {
                need!(2, "usage: put <name> <file>");
                (&rest[0], None, &rest[1])
            } else {
                need!(3, "usage: insert <name> <off> <file>");
                let off: u64 = match rest[1].parse() {
                    Ok(o) => o,
                    Err(_) => bail!("bad offset '{}'", rest[1]),
                };
                (&rest[0], Some(off), &rest[2])
            };
            let bytes = match std::fs::read(file) {
                Ok(b) => b,
                Err(e) => bail!("cannot read {file}: {e}"),
            };
            let mut obj = match open_named(&mut db, &mut cat, name) {
                Ok(o) => o,
                Err(e) => return e,
            };
            let result = match off {
                None => obj.append(&mut db, &bytes),
                Some(off) => obj.insert(&mut db, off, &bytes),
            };
            if let Err(e) = result {
                bail!("{e}");
            }
            let _ = writeln!(out, "{} bytes -> {name}", bytes.len());
        }
        "cat" => {
            mutating = false;
            if rest.is_empty() || rest.len() == 2 || rest.len() > 3 {
                bail!("usage: cat <name> [<off> <len>]");
            }
            let obj = match open_named(&mut db, &mut cat, &rest[0]) {
                Ok(o) => o,
                Err(e) => return e,
            };
            let size = obj.size(&mut db);
            let (off, len) = if rest.len() == 3 {
                match (rest[1].parse::<u64>(), rest[2].parse::<u64>()) {
                    (Ok(o), Ok(l)) => (o, l),
                    _ => bail!("bad off/len"),
                }
            } else {
                (0, size)
            };
            // Checked before the buffer is sized: `len` comes from the
            // command line and may be anything up to `u64::MAX`.
            if off.checked_add(len).is_none_or(|end| end > size) {
                bail!("{}", LobError::OutOfRange { off, len, size });
            }
            let mut buf = vec![0u8; len as usize];
            if let Err(e) = obj.read(&mut db, off, &mut buf) {
                bail!("{e}");
            }
            out.extend_from_slice(&buf);
        }
        "cut" => {
            mutating = true;
            need!(3, "usage: cut <name> <off> <len>");
            let (off, len) = match (rest[1].parse::<u64>(), rest[2].parse::<u64>()) {
                (Ok(o), Ok(l)) => (o, l),
                _ => bail!("bad off/len"),
            };
            let mut obj = match open_named(&mut db, &mut cat, &rest[0]) {
                Ok(o) => o,
                Err(e) => return e,
            };
            if let Err(e) = obj.delete(&mut db, off, len) {
                bail!("{e}");
            }
            let _ = writeln!(out, "cut {len} bytes at {off} from {}", rest[0]);
        }
        "stat" => {
            mutating = false;
            need!(1, "usage: stat <name>");
            let obj = match open_named(&mut db, &mut cat, &rest[0]) {
                Ok(o) => o,
                Err(e) => return e,
            };
            let size = obj.size(&mut db);
            let u = obj.utilization(&db);
            let _ = writeln!(out, "{}: {} ({} bytes)", rest[0], obj.kind(), size);
            let _ = writeln!(
                out,
                "  data pages {}  index pages {}  utilization {:.1}%",
                u.data_pages,
                u.index_pages,
                u.ratio() * 100.0
            );
            let segs = obj.segments(&db);
            let _ = writeln!(out, "  {} segment(s):", segs.len());
            for s in segs.iter().take(32) {
                let _ = writeln!(
                    out,
                    "    @{:<12} page {:<8} {:>10} B in {:>5} page(s)",
                    s.offset, s.start_page, s.bytes, s.pages
                );
            }
            if segs.len() > 32 {
                let _ = writeln!(out, "    ... {} more", segs.len() - 32);
            }
        }
        "rm" => {
            mutating = true;
            need!(1, "usage: rm <name>");
            let mut obj = match open_named(&mut db, &mut cat, &rest[0]) {
                Ok(o) => o,
                Err(e) => return e,
            };
            if let Err(e) = obj.destroy(&mut db) {
                bail!("{e}");
            }
            if let Err(e) = cat.remove(&mut db, &rest[0]) {
                bail!("{e}");
            }
            let _ = writeln!(out, "removed {}", rest[0]);
        }
        "check" => {
            mutating = false;
            let json = match rest {
                [] => false,
                [flag] if flag == "--json" => true,
                _ => bail!("usage: check [--json]"),
            };
            let findings = check::check_database(&mut db, &mut cat);
            if json {
                let _ = writeln!(out, "{}", check::findings_to_json(&findings));
            } else if findings.is_empty() {
                let _ = writeln!(out, "ok: catalog, objects, and space maps are consistent");
            } else {
                for f in &findings {
                    let _ = writeln!(out, "PROBLEM: {f}");
                }
            }
            if !findings.is_empty() {
                let stderr = format!("{} problem(s) found\n", findings.len());
                return Outcome {
                    status: 1,
                    stdout: out,
                    stderr,
                };
            }
        }
        "stats" => {
            mutating = false;
            let mut json = false;
            let mut watch: Option<u32> = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--json" => json = true,
                    "--watch" => {
                        match rest.get(i + 1).and_then(|v| v.parse::<u32>().ok()) {
                            Some(n) if n > 0 => watch = Some(n),
                            _ => bail!("usage: stats [--json] [--watch <n>]"),
                        }
                        i += 1;
                    }
                    _ => bail!("usage: stats [--json] [--watch <n>]"),
                }
                i += 1;
            }
            if let Some(n) = watch {
                if json {
                    bail!("stats: --watch and --json are mutually exclusive");
                }
                // Sampled mode: one compact health line per pass,
                // re-opening the image each time so a writer between
                // passes shows up. Deliberately no sleeping — callers
                // pace the loop (watch(1)-style wrappers, tests).
                let _ = writeln!(
                    out,
                    "{:>4} {:>11} {:>10} {:>12} {:>10} {:>11}",
                    "pass", "leaf alloc", "leaf frag", "largest run", "leaf util", "meta alloc"
                );
                for pass in 0..n {
                    let snap = match Db::load_from_path(image, DbConfig::default()) {
                        Ok(db) => db,
                        Err(e) => bail!("cannot re-open {image}: {e}"),
                    };
                    let leaf = snap.leaf_frag_stats();
                    let meta = snap.meta_frag_stats();
                    let _ = writeln!(
                        out,
                        "{:>4} {:>11} {:>10.3} {:>12} {:>9.1}% {:>11}",
                        pass,
                        leaf.allocated_pages,
                        leaf.frag_ratio(),
                        leaf.largest_free_run,
                        leaf.utilization() * 100.0,
                        meta.allocated_pages,
                    );
                }
                let cost = db.io_stats() - before;
                let stderr = format!(
                    "[simulated I/O: {} calls, {} pages, {:.1} ms]\n",
                    cost.calls(),
                    cost.pages(),
                    cost.time_ms()
                );
                return Outcome {
                    status: 0,
                    stdout: out,
                    stderr,
                };
            }
            let entries = match cat.list(&mut db) {
                Ok(e) => e,
                Err(e) => bail!("{e}"),
            };
            // One accumulator per scheme, in StorageKind order.
            let kinds = [StorageKind::Esm, StorageKind::Starburst, StorageKind::Eos];
            let mut objects = [0u64; 3];
            let mut object_bytes = [0u64; 3];
            let mut alloc_pages = [0u64; 3];
            // log2 buckets over segment page counts: bucket b holds
            // segments of 2^b ..= 2^(b+1)-1 pages.
            let mut seg_hist = [0u64; 33];
            for e in &entries {
                let obj = match lobstore_core::open_object(&mut db, e.kind, e.root_page) {
                    Ok(o) => o,
                    Err(err) => bail!("{err}"),
                };
                let size = obj.size(&mut db);
                let u = obj.utilization(&db);
                let k = kinds.iter().position(|&k| k == e.kind).unwrap_or(0);
                objects[k] += 1;
                object_bytes[k] += size;
                alloc_pages[k] += u.data_pages + u.index_pages;
                for s in obj.segments(&db) {
                    let b = 63 - u64::from(s.pages.max(1)).leading_zeros() as usize;
                    seg_hist[b.min(32)] += 1;
                }
            }
            let page = lobstore_simdisk::PAGE_SIZE as u64;
            let util = |k: usize| {
                if alloc_pages[k] == 0 {
                    1.0
                } else {
                    object_bytes[k] as f64 / (alloc_pages[k] * page) as f64
                }
            };
            let leaf = db.leaf_frag_stats();
            let meta = db.meta_frag_stats();
            if json {
                use lobstore_obs::json::Value;
                let schemes = kinds
                    .iter()
                    .enumerate()
                    .map(|(k, kind)| {
                        Value::Obj(vec![
                            ("scheme".to_string(), Value::from(kind_name(*kind))),
                            ("objects".to_string(), Value::from(objects[k])),
                            ("object_bytes".to_string(), Value::from(object_bytes[k])),
                            (
                                "allocated_bytes".to_string(),
                                Value::from(alloc_pages[k] * page),
                            ),
                            ("utilization".to_string(), Value::Num(util(k))),
                        ])
                    })
                    .collect();
                let hist = seg_hist
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| n > 0)
                    .map(|(b, &n)| {
                        Value::Obj(vec![
                            ("min_pages".to_string(), Value::from(1u64 << b)),
                            ("max_pages".to_string(), Value::from((1u64 << (b + 1)) - 1)),
                            ("segments".to_string(), Value::from(n)),
                        ])
                    })
                    .collect();
                let doc = Value::Obj(vec![
                    ("schema".to_string(), Value::from("lobstore-stats/v2")),
                    ("schemes".to_string(), Value::Arr(schemes)),
                    ("segment_pages_log2".to_string(), Value::Arr(hist)),
                    (
                        "fragmentation".to_string(),
                        Value::Obj(vec![
                            ("leaf".to_string(), frag_to_value(&leaf)),
                            ("meta".to_string(), frag_to_value(&meta)),
                        ]),
                    ),
                    ("io".to_string(), (db.io_stats() - before).to_value()),
                ]);
                let _ = writeln!(out, "{}", doc.to_json());
            } else {
                let _ = writeln!(
                    out,
                    "{:<10} {:>8} {:>14} {:>14} {:>7}",
                    "scheme", "objects", "bytes", "allocated", "util"
                );
                for (k, kind) in kinds.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "{:<10} {:>8} {:>14} {:>14} {:>6.1}%",
                        kind_name(*kind),
                        objects[k],
                        object_bytes[k],
                        alloc_pages[k] * page,
                        util(k) * 100.0
                    );
                }
                let _ = writeln!(out, "segment sizes (pages, log2 buckets):");
                for (b, &n) in seg_hist.iter().enumerate() {
                    if n > 0 {
                        let _ =
                            writeln!(out, "  {:>6}-{:<6} : {n}", 1u64 << b, (1u64 << (b + 1)) - 1);
                    }
                }
                let _ = writeln!(out, "fragmentation:");
                for (area, st) in [("leaf", &leaf), ("meta", &meta)] {
                    let _ = writeln!(
                        out,
                        "  {area:<5} alloc {:>8} free {:>8} frag {:>5.3} largest run {:>7}",
                        st.allocated_pages,
                        st.free_pages,
                        st.frag_ratio(),
                        st.largest_free_run
                    );
                    let runs: Vec<u64> = st.free_runs.iter().map(|&r| u64::from(r)).collect();
                    if !runs.is_empty() {
                        let h = lobstore_obs::HistogramSnapshot::from_values("free_runs", &runs);
                        let _ = writeln!(
                            out,
                            "  {area:<5} free runs {:>4}: p50 {:>9.0} p90 {:>9.0} p99 {:>9.0} \
                             max {:>7}",
                            runs.len(),
                            h.p50().unwrap_or(0.0),
                            h.p90().unwrap_or(0.0),
                            h.p99().unwrap_or(0.0),
                            h.max
                        );
                    }
                }
            }
        }
        "info" => {
            mutating = false;
            let n = match cat.len(&mut db) {
                Ok(n) => n,
                Err(e) => bail!("{e}"),
            };
            let _ = writeln!(out, "objects:     {n}");
            let _ = writeln!(out, "leaf pages:  {}", db.leaf_pages_allocated());
            let _ = writeln!(out, "meta pages:  {}", db.meta_pages_allocated());
            let _ = writeln!(
                out,
                "cost model:  {} ms seek, {} us/KB transfer",
                db.config().cost.seek_us / 1000,
                db.config().cost.transfer_us_per_kb
            );
        }
        other => return Outcome::err(format!("unknown command '{other}'\n{usage}")),
    }

    let cost = db.io_stats() - before;
    if mutating {
        if let Err(e) = db.save_to_path(image) {
            return Outcome::err(format!("cannot save {image}: {e}"));
        }
    }
    // Cost note on stderr so `cat` output stays clean on stdout.
    let stderr = format!(
        "[simulated I/O: {} calls, {} pages, {:.1} ms]\n",
        cost.calls(),
        cost.pages(),
        cost.time_ms()
    );
    Outcome {
        status: 0,
        stdout: out,
        stderr,
    }
}

fn open_named(db: &mut Db, cat: &mut Catalog, name: &str) -> Result<Box<dyn LargeObject>, Outcome> {
    let entry = cat
        .get(db, name)
        .map_err(|e| Outcome::err(e.to_string()))?
        .ok_or_else(|| Outcome::err(format!("no object named '{name}'")))?;
    lobstore_core::open_object(db, entry.kind, entry.root_page)
        .map_err(|e| Outcome::err(e.to_string()))
}

/// Render one area's [`lobstore_core::FragStats`] for `stats --json`,
/// including free-run-length quantiles from the log2 histogram.
fn frag_to_value(st: &lobstore_core::FragStats) -> lobstore_obs::json::Value {
    use lobstore_obs::json::Value;
    let runs: Vec<u64> = st.free_runs.iter().map(|&r| u64::from(r)).collect();
    let mut fields = vec![
        ("spaces".to_string(), Value::from(u64::from(st.spaces))),
        (
            "allocated_pages".to_string(),
            Value::from(st.allocated_pages),
        ),
        ("free_pages".to_string(), Value::from(st.free_pages)),
        (
            "largest_free_run_pages".to_string(),
            Value::from(u64::from(st.largest_free_run)),
        ),
        ("frag_ratio".to_string(), Value::Num(st.frag_ratio())),
        ("utilization".to_string(), Value::Num(st.utilization())),
        ("free_runs".to_string(), Value::from(runs.len() as u64)),
    ];
    if !runs.is_empty() {
        let h = lobstore_obs::HistogramSnapshot::from_values("free_runs", &runs);
        for (name, v) in [("p50", h.p50()), ("p90", h.p90()), ("p99", h.p99())] {
            fields.push((
                format!("free_run_{name}"),
                Value::Num(v.unwrap_or_default()),
            ));
        }
    }
    Value::Obj(fields)
}

/// Label helper reused by tests.
pub fn kind_name(kind: StorageKind) -> &'static str {
    match kind {
        StorageKind::Esm => "ESM",
        StorageKind::Eos => "EOS",
        StorageKind::Starburst => "Starburst",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("lobctl-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn full_session() {
        let img = tmp("session.lob");
        let _ = std::fs::remove_file(&img);
        assert_eq!(run(&argv(&[&img, "init"])).status, 0);
        assert_eq!(run(&argv(&[&img, "create", "doc", "eos", "16"])).status, 0);

        let payload = tmp("payload.bin");
        std::fs::write(&payload, b"hello large object world").unwrap();
        assert_eq!(run(&argv(&[&img, "put", "doc", &payload])).status, 0);

        let cat_out = run(&argv(&[&img, "cat", "doc"]));
        assert_eq!(cat_out.status, 0);
        assert_eq!(cat_out.stdout, b"hello large object world");
        assert!(cat_out.stderr.contains("simulated I/O"));

        std::fs::write(&payload, b"BIG ").unwrap();
        assert_eq!(
            run(&argv(&[&img, "insert", "doc", "6", &payload])).status,
            0
        );
        let cat_out = run(&argv(&[&img, "cat", "doc"]));
        assert_eq!(cat_out.stdout, b"hello BIG large object world");

        assert_eq!(run(&argv(&[&img, "cut", "doc", "0", "6"])).status, 0);
        let cat_out = run(&argv(&[&img, "cat", "doc", "0", "3"]));
        assert_eq!(cat_out.stdout, b"BIG");

        let ls = run(&argv(&[&img, "ls"]));
        assert!(String::from_utf8_lossy(&ls.stdout).contains("doc"));
        let stat = run(&argv(&[&img, "stat", "doc"]));
        let stat_text = String::from_utf8_lossy(&stat.stdout).into_owned();
        assert!(stat_text.contains("EOS"), "{stat_text}");
        assert!(stat_text.contains("segment"), "{stat_text}");

        let chk = run(&argv(&[&img, "check"]));
        assert_eq!(chk.status, 0, "{}", String::from_utf8_lossy(&chk.stdout));
        assert!(String::from_utf8_lossy(&chk.stdout).contains("ok:"));

        assert_eq!(run(&argv(&[&img, "rm", "doc"])).status, 0);
        let ls = run(&argv(&[&img, "ls"]));
        assert!(!String::from_utf8_lossy(&ls.stdout).contains("doc"));
        let info = run(&argv(&[&img, "info"]));
        let info_text = String::from_utf8_lossy(&info.stdout).into_owned();
        assert!(info_text.contains("objects:     0"), "{info_text}");
        assert!(info_text.contains("leaf pages:  0"), "{info_text}");
    }

    #[test]
    fn check_exit_codes_and_json() {
        let img = tmp("check-codes.lob");
        let _ = std::fs::remove_file(&img);

        // Missing or garbage image: "could not even look" is exit 2.
        assert_eq!(run(&argv(&[&img, "check"])).status, 2);
        std::fs::write(&img, b"not a database image").unwrap();
        assert_eq!(run(&argv(&[&img, "check", "--json"])).status, 2);
        let _ = std::fs::remove_file(&img);

        run(&argv(&[&img, "init"]));
        run(&argv(&[&img, "create", "doc", "esm", "4"]));
        let payload = tmp("check-codes.bin");
        std::fs::write(&payload, vec![1u8; 20_000]).unwrap();
        assert_eq!(run(&argv(&[&img, "put", "doc", &payload])).status, 0);

        let clean = run(&argv(&[&img, "check", "--json"]));
        assert_eq!(clean.status, 0, "{}", clean.stderr);
        assert_eq!(
            String::from_utf8_lossy(&clean.stdout).trim(),
            "{\"count\": 0, \"findings\": []}"
        );
        assert_eq!(run(&argv(&[&img, "check", "--bogus"])).status, 1);

        // Leak pages no object references, then persist the damage.
        let mut db = Db::load_from_path(&img, DbConfig::default()).unwrap();
        let _leak = db.alloc_leaf(2);
        db.save_to_path(&img).unwrap();

        let bad = run(&argv(&[&img, "check"]));
        assert_eq!(bad.status, 1);
        assert!(
            String::from_utf8_lossy(&bad.stdout).contains("PROBLEM:"),
            "{}",
            String::from_utf8_lossy(&bad.stdout)
        );
        assert!(bad.stderr.contains("problem(s) found"), "{}", bad.stderr);

        let bad_json = run(&argv(&[&img, "check", "--json"]));
        assert_eq!(bad_json.status, 1);
        let text = String::from_utf8_lossy(&bad_json.stdout).into_owned();
        assert!(text.contains("\"kind\": \"leaf-leaked\""), "{text}");
    }

    #[test]
    fn stats_summarizes_per_scheme() {
        let img = tmp("stats.lob");
        let _ = std::fs::remove_file(&img);
        run(&argv(&[&img, "init"]));
        run(&argv(&[&img, "create", "a", "esm", "4"]));
        run(&argv(&[&img, "create", "b", "eos", "16"]));
        let payload = tmp("stats-payload.bin");
        std::fs::write(&payload, vec![9u8; 30_000]).unwrap();
        for name in ["a", "b"] {
            assert_eq!(run(&argv(&[&img, "put", name, &payload])).status, 0);
        }

        let text = run(&argv(&[&img, "stats"]));
        assert_eq!(text.status, 0, "{}", text.stderr);
        let text = String::from_utf8_lossy(&text.stdout).into_owned();
        assert!(text.contains("ESM"), "{text}");
        assert!(text.contains("segment sizes"), "{text}");
        assert!(text.contains("fragmentation:"), "{text}");
        assert!(text.contains("largest run"), "{text}");

        let js = run(&argv(&[&img, "stats", "--json"]));
        assert_eq!(js.status, 0, "{}", js.stderr);
        let v = lobstore_obs::json::parse(std::str::from_utf8(&js.stdout).unwrap()).unwrap();
        use lobstore_obs::json::Value;
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("lobstore-stats/v2")
        );
        let schemes = v.get("schemes").and_then(Value::as_arr).unwrap();
        assert_eq!(schemes.len(), 3);
        let esm = schemes
            .iter()
            .find(|s| s.get("scheme").and_then(Value::as_str) == Some("ESM"))
            .unwrap();
        assert_eq!(esm.get("objects").and_then(Value::as_u64), Some(1));
        assert_eq!(
            esm.get("object_bytes").and_then(Value::as_u64),
            Some(30_000)
        );
        let alloc = esm.get("allocated_bytes").and_then(Value::as_u64).unwrap();
        assert!(alloc >= 30_000, "allocation covers the object: {alloc}");
        let util = esm.get("utilization").and_then(Value::as_num).unwrap();
        assert!(util > 0.0 && util <= 1.0);
        let hist = v.get("segment_pages_log2").and_then(Value::as_arr).unwrap();
        assert!(!hist.is_empty(), "two objects must have segments");
        let total: u64 = hist
            .iter()
            .map(|b| b.get("segments").and_then(Value::as_u64).unwrap())
            .sum();
        assert!(total >= 2);
        assert!(
            v.get("io").and_then(|io| io.get("pages_read")).is_some(),
            "io cost reported via IoStats::to_value"
        );
        let frag = v.get("fragmentation").expect("v2 carries fragmentation");
        for area in ["leaf", "meta"] {
            let a = frag.get(area).unwrap_or_else(|| panic!("{area} stats"));
            assert!(a.get("allocated_pages").and_then(Value::as_u64).is_some());
            let ratio = a.get("frag_ratio").and_then(Value::as_num).unwrap();
            assert!((0.0..=1.0).contains(&ratio), "{area}: {ratio}");
        }
        let leaf = frag.get("leaf").unwrap();
        assert!(
            leaf.get("allocated_pages").and_then(Value::as_u64).unwrap() > 0,
            "two stored objects allocate leaf pages"
        );
        assert!(
            leaf.get("free_run_p50").and_then(Value::as_num).is_some(),
            "free-run quantiles present when runs exist"
        );
        assert_eq!(run(&argv(&[&img, "stats", "--bogus"])).status, 1);
    }

    #[test]
    fn stats_watch_prints_one_line_per_pass() {
        let img = tmp("stats-watch.lob");
        let _ = std::fs::remove_file(&img);
        run(&argv(&[&img, "init"]));
        run(&argv(&[&img, "create", "a", "esm", "4"]));
        let payload = tmp("stats-watch.bin");
        std::fs::write(&payload, vec![3u8; 40_000]).unwrap();
        assert_eq!(run(&argv(&[&img, "put", "a", &payload])).status, 0);

        let w = run(&argv(&[&img, "stats", "--watch", "3"]));
        assert_eq!(w.status, 0, "{}", w.stderr);
        let text = String::from_utf8_lossy(&w.stdout).into_owned();
        assert_eq!(text.lines().count(), 4, "header + 3 passes: {text}");
        assert!(text.contains("leaf frag"), "{text}");
        // Steady image: every pass reports identical health numbers.
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let tail = |l: &str| l.split_whitespace().skip(1).collect::<Vec<_>>().join(" ");
        assert_eq!(tail(lines[0]), tail(lines[1]));
        assert_eq!(tail(lines[1]), tail(lines[2]));

        assert_eq!(run(&argv(&[&img, "stats", "--watch", "0"])).status, 1);
        assert_eq!(
            run(&argv(&[&img, "stats", "--watch", "2", "--json"])).status,
            1,
            "--watch and --json are mutually exclusive"
        );
    }

    #[test]
    fn errors_are_reported() {
        let img = tmp("errors.lob");
        let _ = std::fs::remove_file(&img);
        assert_eq!(run(&argv(&["missing.lob", "ls"])).status, 1);
        assert_eq!(run(&argv(&[&img, "nonsense"])).status, 1);
        run(&argv(&[&img, "init"]));
        assert_eq!(run(&argv(&[&img, "cat", "ghost"])).status, 1);
        assert_eq!(run(&argv(&[&img, "create", "x", "esm"])).status, 1);
        assert_eq!(run(&argv(&[&img, "create", "x", "esm", "4"])).status, 0);
        assert_eq!(
            run(&argv(&[&img, "create", "x", "eos", "4"])).status,
            1,
            "duplicate names rejected"
        );
        let big_cut = run(&argv(&[&img, "cut", "x", "0", "99"]));
        assert_eq!(big_cut.status, 1, "cut beyond the object fails");
    }

    #[test]
    fn cat_past_the_end_fails_before_allocating() {
        let img = tmp("cat-range.lob");
        let _ = std::fs::remove_file(&img);
        run(&argv(&[&img, "init"]));
        run(&argv(&[&img, "create", "a", "esm", "4"]));
        let payload = tmp("cat-range-payload.bin");
        std::fs::write(&payload, b"hello world").unwrap();
        assert_eq!(run(&argv(&[&img, "put", "a", &payload])).status, 0);
        let max = u64::MAX.to_string();
        for (off, len) in [
            ("0", max.as_str()),
            ("0", "12"),
            ("3", "100"),
            ("1", max.as_str()),
        ] {
            let out = run(&argv(&[&img, "cat", "a", off, len]));
            assert_eq!(out.status, 1, "cat a {off} {len}");
            assert!(out.stdout.is_empty());
            assert_eq!(
                out.stderr,
                format!("byte range [{off}, {off}+{len}) out of range for object of 11 bytes\n")
            );
        }
        let whole = run(&argv(&[&img, "cat", "a", "0", "11"]));
        assert_eq!((whole.status, whole.stdout), (0, b"hello world".to_vec()));
    }

    #[test]
    fn objects_of_all_kinds_coexist() {
        let img = tmp("kinds.lob");
        let _ = std::fs::remove_file(&img);
        run(&argv(&[&img, "init"]));
        run(&argv(&[&img, "create", "a", "esm", "4"]));
        run(&argv(&[&img, "create", "b", "eos", "64"]));
        run(&argv(&[&img, "create", "c", "starburst"]));
        let payload = tmp("kinds-payload.bin");
        std::fs::write(&payload, vec![7u8; 50_000]).unwrap();
        for name in ["a", "b", "c"] {
            assert_eq!(run(&argv(&[&img, "put", name, &payload])).status, 0);
        }
        let ls = String::from_utf8(run(&argv(&[&img, "ls"])).stdout).unwrap();
        assert!(
            ls.contains("ESM") && ls.contains("EOS") && ls.contains("Starburst"),
            "{ls}"
        );
        for name in ["a", "b", "c"] {
            let out = run(&argv(&[&img, "cat", name, "49000", "100"]));
            assert_eq!(out.stdout, vec![7u8; 100], "{name}");
        }
    }
}
