//! The experiment index cannot go stale: every binary in `src/bin/` is
//! in `run_all_benches.sh`'s list and in DESIGN.md §6, and neither names
//! a binary that does not exist.

use std::collections::BTreeSet;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `src` from just after `from` up to the next `to`.
fn between<'a>(src: &'a str, from: &str, to: &str) -> &'a str {
    let tail = src
        .split_once(from)
        .unwrap_or_else(|| panic!("no {from:?}"))
        .1;
    tail.split_once(to).unwrap_or_else(|| panic!("no {to:?}")).0
}

fn bins() -> BTreeSet<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn sweep_script_runs_exactly_the_bins() {
    let script = read("../../run_all_benches.sh");
    let listed: BTreeSet<String> = between(&script, "\nfor b in ", "; do")
        .split_whitespace()
        .filter(|w| *w != "\\")
        .map(str::to_string)
        .collect();
    assert_eq!(listed, bins());
}

#[test]
fn design_doc_indexes_exactly_the_bins() {
    let design = read("../../DESIGN.md");
    let section = between(&design, "\n## 6. Experiment index", "\n## 7.");
    let name = |s: &str| -> String {
        s.chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect()
    };
    // The table's `--bin <name>` cells and the "Ablation benches" list
    // (`* `name` — ...`).
    let indexed: BTreeSet<String> = section
        .split("--bin ")
        .skip(1)
        .map(name)
        .chain(
            section
                .lines()
                .filter_map(|l| l.strip_prefix("* `"))
                .map(name),
        )
        .collect();
    assert_eq!(indexed, bins());
}
