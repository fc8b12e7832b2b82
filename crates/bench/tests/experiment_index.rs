//! The experiment index cannot go stale: every binary in `src/bin/` is
//! in `run_all_benches.sh`'s list and in DESIGN.md §6, and neither names
//! a binary that does not exist.
//!
//! Nor can EXPERIMENTS.md drift from the bins' outputs: every measured
//! number it quotes is checked against the committed paper-scale output
//! (`golden/paper/<bin>.txt`) of the bins its section names, as
//! `--bin <name>` or as `` `<name>` ``.
//!
//! * A table row's numeric cells (`36.8`, `**171.0**`, `80.4 %`,
//!   `53.9 ms`) must appear, in order and adjacent, among the numbers of
//!   one line of those outputs. Rows that give the paper's values
//!   (`| paper ...`) are not measurements and are skipped; so are label
//!   cells such as `100 B` or `2 000`.
//! * A decimal in the prose (`638.2`, `18.0 s`) must be one of the
//!   numbers those outputs print. Section numbers (`§4.4.3`) are not
//!   quotes. Whole numbers are left alone: they are counts, sizes and
//!   rounded paper values far more often than quotes.
//!
//! A section that names no bin quotes nothing and is not checked, but
//! every bin must be named by some section.

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

/// The numbers written in `text`, in order: maximal runs of digits and
/// dots, less a sentence's trailing dot. A run right after `§`, or with
/// more than one dot, is a section number and is skipped.
fn numbers(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut run = String::new();
    let mut after_section = false;
    let mut flush = |run: &mut String, after_section: bool| {
        let n = run.trim_end_matches('.');
        if !n.is_empty() && !after_section && n.matches('.').count() <= 1 && !n.starts_with('.') {
            out.push(n.to_string());
        }
        run.clear();
    };
    let mut prev = ' ';
    for c in text.chars() {
        if c.is_ascii_digit() || (c == '.' && !run.is_empty()) {
            if run.is_empty() {
                after_section = prev == '§';
            }
            run.push(c);
        } else {
            flush(&mut run, after_section);
        }
        prev = c;
    }
    flush(&mut run, after_section);
    out
}

/// A table cell's number, if the cell is one: digits with at most one
/// dot, optionally bold, optionally followed by `%`, `ms` or `s`.
fn cell_number(cell: &str) -> Option<String> {
    let cell = cell.trim().trim_matches('*').trim();
    let n = ["%", "ms", "s"]
        .iter()
        .find_map(|unit| cell.strip_suffix(unit))
        .unwrap_or(cell)
        .trim();
    let valid = !n.is_empty()
        && n.chars().all(|c| c.is_ascii_digit() || c == '.')
        && n.matches('.').count() <= 1
        && !n.starts_with('.')
        && !n.ends_with('.');
    valid.then(|| n.to_string())
}

/// One `## ` section of EXPERIMENTS.md: its heading and its text.
struct Section<'a> {
    heading: &'a str,
    text: &'a str,
}

fn sections(doc: &str) -> Vec<Section<'_>> {
    doc.split("\n## ")
        .map(|s| Section {
            heading: s.lines().next().unwrap_or_default(),
            text: s,
        })
        .collect()
}

/// The bins a section names: `--bin <name>` or `` `<name>` ``.
fn named_bins(text: &str, bins: &BTreeSet<String>) -> Vec<String> {
    bins.iter()
        .filter(|b| text.contains(&format!("--bin {b}`")) || text.contains(&format!("`{b}`")))
        .cloned()
        .collect()
}

/// `want` appears in `line` as a run of adjacent elements.
fn adjacent_in(line: &[String], want: &[String]) -> bool {
    line.windows(want.len()).any(|w| w == want)
}

#[test]
fn every_quoted_number_is_in_its_bins_golden_output() {
    let doc = read("../../EXPERIMENTS.md");
    let bins = bins();
    let mut named = BTreeSet::new();
    let mut checked = 0usize;
    let mut wrong = Vec::new();
    for section in sections(&doc) {
        let golden_bins = named_bins(section.text, &bins);
        if golden_bins.is_empty() {
            continue;
        }
        named.extend(golden_bins.iter().cloned());
        let golden: Vec<String> = golden_bins
            .iter()
            .map(|b| read(&format!("golden/paper/{b}.txt")))
            .collect();
        let lines: Vec<Vec<String>> = golden.iter().flat_map(|g| g.lines().map(numbers)).collect();
        let printed: BTreeSet<&String> = lines.iter().flatten().collect();
        let at = |what: String| format!("{} ({}): {what}", section.heading, golden_bins.join(", "));
        for line in section.text.lines() {
            if let Some(row) = line.trim().strip_prefix('|') {
                let cells: Vec<&str> = row.split('|').collect();
                let label = cells.first().map(|c| c.trim().trim_matches('*').trim());
                if label.is_some_and(|l| l.starts_with("paper") || l.starts_with("---")) {
                    continue;
                }
                let want: Vec<String> = cells.iter().filter_map(|c| cell_number(c)).collect();
                if want.is_empty() {
                    continue;
                }
                checked += want.len();
                if !lines.iter().any(|l| adjacent_in(l, &want)) {
                    wrong.push(at(format!("row {want:?} is in no output line")));
                }
            } else {
                for n in numbers(line).into_iter().filter(|n| n.contains('.')) {
                    checked += 1;
                    if !printed.contains(&n) {
                        wrong.push(at(format!("{n} is printed nowhere: {}", line.trim())));
                    }
                }
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "EXPERIMENTS.md quotes numbers its bins do not print:\n{}",
        wrong.join("\n")
    );
    assert_eq!(named, bins, "every bin is quoted by some section");
    assert!(checked > 200, "only {checked} numbers checked");
}

#[test]
fn numbers_skip_section_marks_and_sentence_dots() {
    assert_eq!(
        numbers("§4.4.3: 10.2 s. 2560 x 37 ms; 1.2.3 and 80.4%"),
        ["10.2", "2560", "37", "80.4"]
    );
    assert_eq!(cell_number(" **171.0** "), Some("171.0".to_string()));
    assert_eq!(cell_number(" 80.4 % "), Some("80.4".to_string()));
    assert_eq!(cell_number(" 53.9 ms "), Some("53.9".to_string()));
    assert_eq!(cell_number(" 100 B "), None);
    assert_eq!(cell_number(" 2 000 "), None);
    assert_eq!(cell_number(" ESM/16 "), None);
}
