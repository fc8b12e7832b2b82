//! The metric catalog is one set of names, written down twice: the
//! handles each instrumented crate declares (`METRIC_NAMES`, from its
//! `lobstore_obs::metrics!` block) and DESIGN.md §10's "Metric catalog"
//! table. This test holds the two to each other in both directions, and
//! keeps string-literal names out of the engine's update sites so the
//! declared list stays the whole list.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use lobstore::{object_health, publish_object_health, Db, ManagerSpec};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `a.{b,c}.{d,e}` -> `a.b.d`, `a.b.e`, `a.c.d`, `a.c.e`.
fn expand(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_string()];
    };
    let close = open
        + pattern[open..]
            .find('}')
            .expect("unbalanced `{` in the catalog");
    let (head, tail) = (&pattern[..open], &pattern[close + 1..]);
    pattern[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{head}{}{tail}", alt.trim())))
        .collect()
}

/// The names in the catalog table: those of the declared-handle rows and
/// those of the rows marked "(computed)".
fn documented() -> (BTreeSet<String>, BTreeSet<String>) {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
    let table = design
        .split("### Metric catalog")
        .nth(1)
        .expect("DESIGN.md has a metric catalog")
        .split("\n#")
        .next()
        .expect("split yields a first piece");
    let (mut declared, mut computed) = (BTreeSet::new(), BTreeSet::new());
    for row in table.lines().filter(|l| l.starts_with('|')) {
        let mut cols = row.split('|').map(str::trim).skip(1);
        let (Some(layer), Some(names)) = (cols.next(), cols.next()) else {
            continue;
        };
        let into = if layer.contains("(computed)") {
            &mut computed
        } else {
            &mut declared
        };
        // Backticked spans are the odd pieces of a split on '`'.
        for pattern in names.split('`').skip(1).step_by(2) {
            into.extend(expand(pattern));
        }
    }
    (declared, computed)
}

#[test]
fn declared_handles_and_the_design_doc_list_the_same_names() {
    let lists = [
        lobstore::simdisk::METRIC_NAMES,
        lobstore::bufpool::METRIC_NAMES,
        lobstore::core::METRIC_NAMES,
        lobstore::workload::METRIC_NAMES,
    ];
    let declared: BTreeSet<String> = lists
        .iter()
        .flat_map(|names| names.iter().map(|n| n.to_string()))
        .collect();
    assert_eq!(
        declared.len(),
        lists.iter().map(|names| names.len()).sum::<usize>(),
        "a metric name is declared twice"
    );
    let (documented, _) = documented();
    let undocumented: Vec<_> = declared.difference(&documented).collect();
    let undeclared: Vec<_> = documented.difference(&declared).collect();
    assert!(
        undocumented.is_empty() && undeclared.is_empty(),
        "declared but missing from DESIGN.md §10: {undocumented:?}; \
         in DESIGN.md §10 but declared by no crate: {undeclared:?}"
    );
}

#[test]
fn computed_health_names_match_the_documented_pattern() {
    lobstore::obs::reset();
    let mut db = Db::paper_default();
    let mut keep = ManagerSpec::eos(16).create(&mut db).unwrap();
    keep.append(&mut db, &[1u8; 50_000]).unwrap();
    let mut gone = ManagerSpec::esm(4).create(&mut db).unwrap();
    gone.append(&mut db, &[2u8; 50_000]).unwrap();
    gone.destroy(&mut db).unwrap();
    db.sample_health();
    publish_object_health(&[object_health(keep.as_ref(), &db)]);
    let snap = lobstore::obs::snapshot();
    let emitted: BTreeSet<String> = snap
        .gauges
        .iter()
        .map(|(n, _)| n.clone())
        .chain(snap.histograms.iter().map(|h| h.name.clone()))
        .chain(snap.counters.iter().map(|(n, _)| n.clone()))
        .filter(|n| n.starts_with("health."))
        .collect();
    let (_, computed) = documented();
    assert_eq!(emitted, computed);
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A name-keyed update with a string literal would be a metric outside
/// the declared list (and a map walk back on the hot path). Test modules
/// are exempt: in these crates each is a `#[cfg(test)] mod tests` that
/// closes its file, so non-test code is what precedes it.
#[test]
fn engine_update_sites_use_handles_not_literal_names() {
    let mut offenders = Vec::new();
    for krate in ["simdisk", "bufpool", "buddy", "core"] {
        let mut files = Vec::new();
        rust_files(&root().join("crates").join(krate).join("src"), &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file).expect("source file");
            let code = text.split("#[cfg(test)]\nmod tests").next().unwrap_or("");
            for update in ["counter_add", "gauge_set", "histogram_record"] {
                for (at, _) in code.match_indices(update) {
                    let args = code[at + update.len()..].trim_start();
                    let literal = args
                        .strip_prefix('(')
                        .is_some_and(|a| a.trim_start().starts_with('"'));
                    if literal {
                        let line = code[..at].lines().count();
                        offenders.push(format!("{}:{line}: {update}(\"..", file.display()));
                    }
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "name-keyed metric updates with a literal name (declare a handle in the crate's \
         `metrics` module instead):\n{}",
        offenders.join("\n")
    );
}

#[test]
fn brace_patterns_expand() {
    assert_eq!(expand("a.b"), ["a.b"]);
    assert_eq!(
        expand("a.{b,c}.{d,e}"),
        ["a.b.d", "a.b.e", "a.c.d", "a.c.e"]
    );
}
