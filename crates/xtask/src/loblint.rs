//! `loblint` — the project-specific static analysis the compiler cannot
//! do, built on the [`crate::lobsyn`] token layer (std-only).
//!
//! # Rules
//!
//! | rule | scope | meaning |
//! |------|-------|---------|
//! | `magic-duplicate` | whole workspace | each on-disk magic value is defined by exactly one `*MAGIC*` const |
//! | `magic-literal` | whole workspace | a defined magic value may not appear as a bare literal outside its defining const |
//! | `arith-overflow` | library crates, non-test code | bare `+ - * <<` (and compound forms) on page/byte/segment quantities — use `checked_*` / `saturating_*` |
//! | `panic-path` | library crates, non-test code | indexing/slicing and `/` `%` with a non-constant divisor can panic — guard or waive |
//! | `unit-mixing` | library crates, non-test code | byte-, page-index- and page-count-typed values may not be mixed in arithmetic/comparison/assignment |
//! | `bad-waiver` | whole workspace | `loblint: allow(...)` comments may only name known rules |
//! | `unused-waiver` | whole workspace, non-test | a waiver that no longer suppresses anything is itself a finding |
//!
//! The lock order is not a rule here: `lobstore_obs::sync` checks every
//! acquisition at run time under `debug_assertions`. Nor is decoding
//! disk bytes: every on-disk decoder returns `Corrupt` on a page it
//! cannot hold, and a property test per format over arbitrary and
//! bit-flipped pages pins that.
//!
//! What rustc and clippy decide with types is theirs, not a rule here:
//! `unsafe`, `todo!`/`unimplemented!` (`[workspace.lints]`), and for the
//! library crates' non-test code undocumented `pub` items,
//! `unwrap`/`expect` and truncating `as` casts (the attribute block at
//! the top of each library `lib.rs`).
//!
//! Library crates are `core`, `buddy`, `bufpool`, `simdisk`, `record`,
//! `obs`. Test modules (`#[cfg(test)]`), `tests/`, `benches/`,
//! `examples/`, the CLI, bench, workload, xtask crates and the
//! dependency shims are exempt from the library-only rules.
//!
//! Because rules walk real tokens, occurrences inside string literals
//! and comments never fire.
//!
//! # Suppression and the ratchet
//!
//! Any finding can be waived with a comment on the same line or a
//! comment-only line directly above: `// loblint: allow(<rule>)`,
//! multiple rules separated by commas. Unknown rule names are
//! themselves findings (`bad-waiver`).
//!
//! Pre-existing findings are frozen in `loblint.baseline` (sorted
//! `file<TAB>rule<TAB>message` lines, no line numbers so the baseline
//! survives unrelated edits). `loblint` exits 0 when every finding is
//! baselined and 1 when *new* findings appear; `--update-baseline`
//! regenerates the file deterministically.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::lobsyn::{self, FnDef, Tok, TokKind};

/// The rule identifiers, as used in findings and `allow(...)` comments.
pub const RULES: [&str; 7] = [
    "arith-overflow",
    "bad-waiver",
    "magic-duplicate",
    "magic-literal",
    "panic-path",
    "unit-mixing",
    "unused-waiver",
];

/// One `--explain` documentation entry per rule: (name, scope, text).
pub const RULE_DOCS: [(&str, &str, &str); 7] = [
    (
        "arith-overflow",
        "library crates, non-test code",
        "Bare `+ - * <<` (and compound forms) on page/byte/segment quantities can wrap in \
         release builds; use checked_*/saturating_* or waive with a rationale.",
    ),
    (
        "bad-waiver",
        "whole workspace",
        "A `// loblint: allow(...)` comment names a rule loblint does not know; fix the \
         spelling so the waiver actually waives something.",
    ),
    (
        "magic-duplicate",
        "whole workspace",
        "Each on-disk magic value is defined by exactly one `*MAGIC*` const.",
    ),
    (
        "magic-literal",
        "whole workspace",
        "A defined magic value may not appear as a bare literal outside its defining const.",
    ),
    (
        "panic-path",
        "library crates, non-test code",
        "Postfix indexing/slicing (`v[i]`, `&v[..n]`) and `/` `%` with a non-constant \
         divisor can panic; guard or waive. Exempt: full-range `[..]` slices, a `[` after \
         the keyword `mut` (a slice *type* such as `&mut [u8]`, never an indexing \
         expression), and divisors that are literals or ALL_CAPS const chains.",
    ),
    (
        "unit-mixing",
        "library crates, non-test code",
        "Byte-, page-index- and page-count-typed values may not be mixed in arithmetic, \
         comparison or assignment.",
    ),
    (
        "unused-waiver",
        "whole workspace, non-test",
        "A `// loblint: allow(rule)` comment whose rule no longer fires on the waived line \
         is dead weight that hides future regressions; remove it. `--update-baseline` \
         likewise reports baseline entries the current run resolved.",
    ),
];

const LIBRARY_CRATES: [&str; 6] = ["core", "buddy", "bufpool", "simdisk", "record", "obs"];

/// One reported violation. The line number is printed but excluded
/// from the baseline key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

/// How a file participates in the lint pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Subject to the library-only rules?
    pub library: bool,
    /// Entirely test/bench/example code (library rules off)?
    pub test_code: bool,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let test_code = rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/");
    let library = !test_code
        && LIBRARY_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    FileClass { library, test_code }
}

// ---- per-file analysis ----------------------------------------------------

/// Everything the rules need to know about one source file, derived
/// once from the token stream.
pub(crate) struct Analysis {
    pub(crate) rel: String,
    pub(crate) class: FileClass,
    pub(crate) toks: Vec<Tok>,
    pub(crate) fns: Vec<FnDef>,
    /// Lines carrying at least one code token.
    code_lines: BTreeSet<usize>,
    /// Lines inside `#[cfg(test)]`-gated items (1-based).
    test_lines: BTreeSet<usize>,
    /// line -> rules waived on that line (known rules only).
    waivers: BTreeMap<usize, Vec<&'static str>>,
    /// `bad-waiver` findings discovered while parsing comments.
    bad_waivers: Vec<Finding>,
    /// (waiver line, rule) pairs that suppressed at least one finding
    /// this run — the input to the `unused-waiver` rule.
    used_waivers: RefCell<BTreeSet<(usize, &'static str)>>,
}

impl Analysis {
    pub(crate) fn new(rel: &str, content: &str) -> Self {
        let lexed = lobsyn::lex(content);
        let spans = lobsyn::attr_spans(&lexed.toks);
        let test_lines = lobsyn::test_lines(&lexed.toks, &spans);
        let code_lines = lexed.code_lines();
        let mut waivers: BTreeMap<usize, Vec<&'static str>> = BTreeMap::new();
        let mut bad_waivers = Vec::new();
        for c in lexed.comments.iter().filter(|c| !c.doc) {
            let Some(at) = c.text.find("loblint: allow(") else {
                continue;
            };
            let inner = &c.text[at + "loblint: allow(".len()..];
            let Some(close) = inner.find(')') else {
                continue;
            };
            for name in inner[..close].split(',') {
                let name = name.trim();
                match RULES.iter().find(|r| **r == name) {
                    Some(rule) => waivers.entry(c.line).or_default().push(rule),
                    None => bad_waivers.push(Finding {
                        file: rel.to_string(),
                        line: c.line,
                        rule: "bad-waiver",
                        message: format!(
                            "unknown rule `{name}` in `loblint: allow(...)`; known rules: {}",
                            RULES.join(", ")
                        ),
                    }),
                }
            }
        }
        Analysis {
            rel: rel.to_string(),
            class: classify(rel),
            fns: lobsyn::fn_defs(&lexed.toks),
            code_lines,
            test_lines,
            waivers,
            bad_waivers,
            used_waivers: RefCell::new(BTreeSet::new()),
            toks: lexed.toks,
        }
    }

    /// Is `rule` waived at `line` (same line, or a code-free line
    /// directly above)? A hit marks the waiver as used.
    pub(crate) fn allowed(&self, line: usize, rule: &'static str) -> bool {
        let at = |l: usize| self.waivers.get(&l).is_some_and(|rs| rs.contains(&rule));
        if at(line) {
            self.used_waivers.borrow_mut().insert((line, rule));
            return true;
        }
        if line > 1 && !self.code_lines.contains(&(line - 1)) && at(line - 1) {
            self.used_waivers.borrow_mut().insert((line - 1, rule));
            return true;
        }
        false
    }

    /// Is this line exempt from library rules (test code)?
    pub(crate) fn in_test(&self, line: usize) -> bool {
        self.class.test_code || self.test_lines.contains(&line)
    }

    pub(crate) fn push(
        &self,
        out: &mut Vec<Finding>,
        line: usize,
        rule: &'static str,
        message: String,
    ) {
        if !self.allowed(line, rule) {
            out.push(Finding {
                file: self.rel.clone(),
                line,
                rule,
                message,
            });
        }
    }
}

// ---- the full pipeline ----------------------------------------------------

/// Lint a set of in-memory sources (workspace-relative path, content).
/// This is the whole deterministic pipeline; `lint_workspace` is the
/// on-disk shell around it.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let analyses: Vec<Analysis> = sources
        .iter()
        .map(|(rel, content)| Analysis::new(rel, content))
        .collect();
    let magics = collect_magic_defs(&analyses);

    let mut findings = Vec::new();
    check_magic_duplicates(&magics, &mut findings);
    for a in &analyses {
        findings.extend(a.bad_waivers.iter().cloned());
        lint_file(a, &magics, &mut findings);
    }
    // Last: every other rule has had its chance to consume waivers.
    check_unused_waivers(&analyses, &mut findings);
    findings.sort();
    findings
}

/// The `unused-waiver` rule: a waiver that suppressed nothing this run
/// is dead weight that would silently swallow future regressions.
/// Waivers for `unused-waiver` itself are exempt (self-referential),
/// as are waivers in test code, where the waived rules never run.
fn check_unused_waivers(analyses: &[Analysis], out: &mut Vec<Finding>) {
    for a in analyses {
        for (&line, rules) in &a.waivers {
            if a.in_test(line) {
                continue;
            }
            let mut seen = BTreeSet::new();
            for &rule in rules {
                if rule == "unused-waiver" || !seen.insert(rule) {
                    continue;
                }
                if !a.used_waivers.borrow().contains(&(line, rule)) {
                    a.push(
                        out,
                        line,
                        "unused-waiver",
                        format!(
                            "waiver `{rule}` no longer suppresses any finding on this line; remove it"
                        ),
                    );
                }
            }
        }
    }
}

/// Everything `loblint` found across the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(lint_sources(&workspace_sources(root)?))
}

/// Every `.rs` file under `root` as (workspace-relative path, content),
/// in path order.
pub(crate) fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(path)?));
    }
    Ok(sources)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---- magic constants ------------------------------------------------------

/// A magic-constant definition (`const <NAME containing MAGIC>: _ =
/// <literal>;`) discovered in pass one.
#[derive(Debug, Clone)]
struct MagicDef {
    file: String,
    line: usize,
    name: String,
    /// Normalized literal (lowercase hex without underscores, decimal
    /// digits, or the raw byte-string token).
    value: String,
}

/// Normalize a numeric token's text for value comparison. `None` for
/// floats or malformed text.
fn normalize_num(text: &str) -> Option<String> {
    if let Some(hex) = text.strip_prefix("0x") {
        let digits: String = hex
            .chars()
            .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
            .filter(|c| *c != '_')
            .collect();
        if digits.is_empty() {
            return None;
        }
        return Some(format!("0x{}", digits.to_ascii_lowercase()));
    }
    if text.contains('.') {
        return None;
    }
    if text.chars().next()?.is_ascii_digit() {
        let digits: String = text
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '_')
            .filter(|c| *c != '_')
            .collect();
        return Some(digits);
    }
    None
}

fn collect_magic_defs(analyses: &[Analysis]) -> Vec<MagicDef> {
    let mut defs = Vec::new();
    for a in analyses {
        let t = &a.toks;
        for i in 0..t.len() {
            if !t[i].is_ident("const") {
                continue;
            }
            let Some(name) = t.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
                continue;
            };
            if !name.text.contains("MAGIC") || !t.get(i + 2).is_some_and(|c| c.is_punct(":")) {
                continue;
            }
            // Find `= <literal> ;` before the statement ends.
            let mut j = i + 3;
            while j < t.len() && !t[j].is_punct("=") && !t[j].is_punct(";") {
                j += 1;
            }
            let Some(lit) = t.get(j + 1) else { continue };
            if !t.get(j + 2).is_some_and(|s| s.is_punct(";")) {
                continue;
            }
            let value = match lit.kind {
                TokKind::Num => normalize_num(&lit.text),
                TokKind::ByteStr => Some(lit.text.clone()),
                _ => None,
            };
            if let Some(value) = value {
                defs.push(MagicDef {
                    file: a.rel.clone(),
                    line: name.line,
                    name: name.text.clone(),
                    value,
                });
            }
        }
    }
    defs
}

fn check_magic_duplicates(defs: &[MagicDef], findings: &mut Vec<Finding>) {
    let mut by_value: BTreeMap<&str, Vec<&MagicDef>> = BTreeMap::new();
    for d in defs {
        by_value.entry(&d.value).or_default().push(d);
    }
    for (value, group) in by_value {
        for d in group.iter().skip(1) {
            findings.push(Finding {
                file: d.file.clone(),
                line: d.line,
                rule: "magic-duplicate",
                message: format!(
                    "magic value {value} of `{}` already defined as `{}` at {}:{}",
                    d.name, group[0].name, group[0].file, group[0].line
                ),
            });
        }
    }
}

// ---- per-file token rules -------------------------------------------------

/// Words that mark an identifier as a page/byte/segment quantity for
/// the `arith-overflow` rule (matched against `_`-separated words).
const QUANTITY_WORDS: [&str; 16] = [
    "page", "pages", "npages", "pgno", "pid", "byte", "bytes", "off", "offset", "pos", "seg",
    "segment", "segments", "size", "count", "extent",
];

/// Can the token end a binary operator's left operand?
pub(crate) fn ends_operand(t: &Tok) -> bool {
    matches!(t.kind, TokKind::Ident | TokKind::Num) || t.is_punct(")") || t.is_punct("]")
}

/// Is `toks[i]` a `/ % /= %=` whose divisor is not a literal or
/// ALL_CAPS const — i.e. a potential divide-by-zero panic?
fn panic_div_at(t: &[Tok], i: usize) -> bool {
    if !(t[i].kind == TokKind::Punct
        && matches!(t[i].text.as_str(), "/" | "%" | "/=" | "%=")
        && i > 0
        && ends_operand(&t[i - 1]))
    {
        return false;
    }
    let divisor_const = match t.get(i + 1) {
        Some(n) if n.kind == TokKind::Num => true,
        _ => right_chain(t, i)
            .is_some_and(|(c, call, _)| !call && c.last().is_some_and(|id| is_const_name(id))),
    };
    !divisor_const
}

/// Is `toks[i]` a postfix `[` (indexing/slicing a value) that is not a
/// full-range `[..]`? A `[` after the keyword `mut` is a slice
/// *type* (`&mut [u8]`), never an indexing expression — `mut` cannot
/// name a value.
pub(crate) fn panic_index_at(t: &[Tok], i: usize) -> bool {
    t[i].is_punct("[")
        && i > 0
        && (matches!(t[i - 1].kind, TokKind::Ident) && !t[i - 1].is_ident("mut")
            || t[i - 1].is_punct(")")
            || t[i - 1].is_punct("]")
            || t[i - 1].is_punct("?"))
        && !(t.get(i + 1).is_some_and(|n| n.is_punct(".."))
            && t.get(i + 2).is_some_and(|n| n.is_punct("]")))
}

/// The `.`/`::`-joined identifier chain ending at `op - 1`, innermost
/// last (`self.pos` -> `["self", "pos"]`). `None` when the operand is
/// not a plain chain (a call result, a literal, ...).
pub(crate) fn left_chain(toks: &[Tok], op: usize) -> Option<Vec<String>> {
    let mut j = op.checked_sub(1)?;
    if toks[j].kind != TokKind::Ident {
        return None;
    }
    let mut idents = vec![toks[j].text.clone()];
    while j >= 2
        && (toks[j - 1].is_punct(".") || toks[j - 1].is_punct("::"))
        && toks[j - 2].kind == TokKind::Ident
    {
        idents.push(toks[j - 2].text.clone());
        j -= 2;
    }
    idents.reverse();
    Some(idents)
}

/// The identifier chain starting at `op + 1`. The bool is true when
/// the chain is immediately called (`f(...)`), i.e. its value is not
/// the named thing itself; the usize is the index of the chain's last
/// token.
pub(crate) fn right_chain(toks: &[Tok], op: usize) -> Option<(Vec<String>, bool, usize)> {
    let mut j = op + 1;
    if toks.get(j)?.kind != TokKind::Ident {
        return None;
    }
    let mut idents = vec![toks[j].text.clone()];
    while toks
        .get(j + 1)
        .is_some_and(|t| t.is_punct(".") || t.is_punct("::"))
        && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident)
    {
        idents.push(toks[j + 2].text.clone());
        j += 2;
    }
    let is_call = toks.get(j + 1).is_some_and(|t| t.is_punct("("));
    Some((idents, is_call, j))
}

fn words_of(ident: &str) -> Vec<String> {
    ident
        .split('_')
        .filter(|w| !w.is_empty())
        .map(str::to_ascii_lowercase)
        .collect()
}

/// Does any chain identifier classify as a page/byte quantity?
/// CamelCase / ALL_CAPS idents (types, traits, consts) never do — a
/// const operand is compile-time bounded and a trait bound `A + B` is
/// not arithmetic.
fn is_quantity(chain: &[String]) -> bool {
    chain
        .iter()
        .filter(|id| id.chars().next().is_some_and(|c| !c.is_ascii_uppercase()))
        .any(|id| {
            words_of(id)
                .iter()
                .any(|w| QUANTITY_WORDS.contains(&w.as_str()))
        })
}

/// Is this identifier an ALL_CAPS constant name?
fn is_const_name(id: &str) -> bool {
    id.chars().any(|c| c.is_ascii_uppercase())
        && id
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// A unit for the `unit-mixing` rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit {
    Bytes,
    PageCount,
    PageIdx,
}

impl Unit {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Unit::Bytes => "byte quantity",
            Unit::PageCount => "page count",
            Unit::PageIdx => "page index",
        }
    }
}

/// Classify an identifier chain by naming convention: byte words win,
/// then count-of-pages words, then page-index words.
pub(crate) fn unit_of(chain: &[String]) -> Option<Unit> {
    let words: Vec<String> = chain.iter().flat_map(|id| words_of(id)).collect();
    let has = |w: &str| words.iter().any(|x| x == w);
    if ["byte", "bytes", "off", "offset", "pos", "size"]
        .iter()
        .any(|w| has(w))
    {
        return Some(Unit::Bytes);
    }
    if has("pages")
        || has("npages")
        || (has("page") && ["n", "num", "count", "cnt", "total"].iter().any(|w| has(w)))
    {
        return Some(Unit::PageCount);
    }
    if has("page") || has("pgno") || has("pageno") {
        return Some(Unit::PageIdx);
    }
    None
}

/// Run every per-file rule over one analysis.
fn lint_file(a: &Analysis, magics: &[MagicDef], out: &mut Vec<Finding>) {
    let t = &a.toks;
    for i in 0..t.len() {
        let line = t[i].line;

        // -- magic-literal: everywhere, skipping defining consts --
        if matches!(t[i].kind, TokKind::Num | TokKind::ByteStr) {
            let value = match t[i].kind {
                TokKind::Num => normalize_num(&t[i].text),
                _ => Some(t[i].text.clone()),
            };
            if let Some(value) = value {
                if let Some(def) = magics.iter().find(|d| d.value == value) {
                    let at_def = magics
                        .iter()
                        .any(|d| d.value == value && d.file == a.rel && d.line == line);
                    if !at_def {
                        a.push(
                            out,
                            line,
                            "magic-literal",
                            format!(
                                "bare magic literal {value}; reference `{}` ({}:{}) instead",
                                def.name, def.file, def.line
                            ),
                        );
                    }
                }
            }
        }

        if !a.class.library || a.in_test(line) {
            continue;
        }

        // -- arith-overflow: bare + - * << on quantities --
        if t[i].kind == TokKind::Punct
            && matches!(
                t[i].text.as_str(),
                "+" | "-" | "*" | "<<" | "+=" | "-=" | "*=" | "<<="
            )
            && i > 0
            && ends_operand(&t[i - 1])
        {
            let lq = left_chain(t, i).is_some_and(|c| is_quantity(&c));
            let rq = right_chain(t, i).is_some_and(|(c, call, _)| !call && is_quantity(&c));
            if lq || rq {
                a.push(
                    out,
                    line,
                    "arith-overflow",
                    format!(
                        "unchecked `{}` on a page/byte quantity; use checked_*/saturating_* or waive with rationale",
                        t[i].text
                    ),
                );
            }
        }

        // -- panic-path: division by non-constants --
        if panic_div_at(t, i) {
            a.push(
                out,
                line,
                "panic-path",
                format!(
                    "`{}` with a non-constant divisor may panic on zero; guard or waive",
                    t[i].text
                ),
            );
        }

        // -- panic-path: postfix indexing/slicing --
        if panic_index_at(t, i) {
            a.push(
                out,
                line,
                "panic-path",
                "indexing/slicing may panic on out-of-range; use get()/split checks or waive"
                    .into(),
            );
        }
    }

    if a.class.library {
        lint_unit_mixing(a, out);
    }
}

/// The `unit-mixing` rule: per function, track `PageId`-typed names
/// and naming-convention units, then flag cross-unit operations.
fn lint_unit_mixing(a: &Analysis, out: &mut Vec<Finding>) {
    let t = &a.toks;
    for f in &a.fns {
        let Some((b0, b1)) = f.body else { continue };
        if a.in_test(f.line) {
            continue;
        }
        // Symbol table: `name: PageId` in the signature or body.
        let mut page_idx_syms: BTreeSet<&str> = BTreeSet::new();
        for k in f.fn_tok..b1.min(t.len()) {
            if t[k].is_ident("PageId")
                && k >= 2
                && t[k - 1].is_punct(":")
                && t[k - 2].kind == TokKind::Ident
            {
                page_idx_syms.insert(&t[k - 2].text);
            }
        }
        let classify = |chain: &[String]| -> Option<Unit> {
            if chain.len() == 1 && page_idx_syms.contains(chain[0].as_str()) {
                return Some(Unit::PageIdx);
            }
            unit_of(chain)
        };
        for i in b0..b1.min(t.len()) {
            if t[i].kind != TokKind::Punct {
                continue;
            }
            let op = t[i].text.as_str();
            let tracked = matches!(
                op,
                "+" | "-" | "+=" | "-=" | "=" | "==" | "!=" | "<" | "<=" | ">" | ">="
            );
            if !tracked || i == 0 || !ends_operand(&t[i - 1]) {
                continue;
            }
            let Some(lu) = left_chain(t, i).and_then(|c| classify(&c)) else {
                continue;
            };
            let Some((rc, r_call, r_end)) = right_chain(t, i) else {
                continue;
            };
            let Some(ru) = (if r_call { None } else { classify(&rc) }) else {
                continue;
            };
            // For plain assignment, only a *bare* chain on the right is
            // unit-meaningful: `count = idx - idx + 1` computes a count.
            let rhs_is_bare = t
                .get(r_end + 1)
                .is_none_or(|n| n.is_punct(";") || n.is_punct(",") || n.is_punct(")"));
            let line = t[i].line;
            if op == "=" && !rhs_is_bare {
                // `off = page * PAGE_SIZE` converts units; only a bare
                // chain on the right carries its unit into the left side.
            } else if (lu == Unit::Bytes) != (ru == Unit::Bytes) {
                // Bytes never mix with page-grained units.
                a.push(
                    out,
                    line,
                    "unit-mixing",
                    format!("`{op}` mixes a {} with a {}", lu.name(), ru.name()),
                );
            } else if lu == Unit::PageIdx && ru == Unit::PageIdx && matches!(op, "+" | "+=") {
                // index + index has no unit meaning (index + count does).
                a.push(
                    out,
                    line,
                    "unit-mixing",
                    "`+` adds two page indexes; one side should be a page count".into(),
                );
            } else if lu != ru && op == "=" {
                // Assigning a count into an index (or vice versa).
                a.push(
                    out,
                    line,
                    "unit-mixing",
                    format!("assignment of a {} to a {}", ru.name(), lu.name()),
                );
            }
        }
    }
}

// ---- baseline ratchet -----------------------------------------------------

/// A frozen multiset of findings keyed on (file, rule, message) — line
/// numbers are deliberately excluded so unrelated edits above a frozen
/// finding do not invalidate the baseline.
#[derive(Debug, Default)]
pub struct Baseline {
    counts: BTreeMap<(String, String, String), usize>,
}

impl Baseline {
    /// Parse the `file<TAB>rule<TAB>message` line format. Blank lines
    /// and `#` comments are ignored; malformed lines are reported.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            match (parts.next(), parts.next(), parts.next()) {
                (Some(f), Some(r), Some(m)) => {
                    *counts
                        .entry((f.to_string(), r.to_string(), m.to_string()))
                        .or_insert(0) += 1;
                }
                _ => {
                    return Err(format!(
                        "baseline line {}: expected 3 tab-separated fields",
                        i + 1
                    ))
                }
            }
        }
        Ok(Baseline { counts })
    }

    /// Render findings as a deterministic (sorted) baseline file.
    pub fn render(findings: &[Finding]) -> String {
        let mut lines: Vec<String> = findings
            .iter()
            .map(|f| {
                format!(
                    "{}\t{}\t{}",
                    f.file,
                    f.rule,
                    f.message.replace(['\t', '\n'], " ")
                )
            })
            .collect();
        lines.sort();
        let mut out = String::from(
            "# loblint baseline — frozen findings (file<TAB>rule<TAB>message).\n\
             # Regenerate with: cargo run -q -p xtask -- loblint --update-baseline\n",
        );
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }

    /// Baseline entries the current findings no longer produce — what
    /// an `--update-baseline` run is about to drop. Reported so
    /// resolved findings are visible instead of silently vanishing.
    pub fn resolved_against(&self, findings: &[Finding]) -> Vec<(String, String, String, usize)> {
        let mut left = self.counts.clone();
        for f in findings {
            let key = (
                f.file.clone(),
                f.rule.to_string(),
                f.message.replace(['\t', '\n'], " "),
            );
            if let Some(n) = left.get_mut(&key) {
                *n = n.saturating_sub(1);
            }
        }
        left.into_iter()
            .filter(|(_, n)| *n > 0)
            .map(|((f, r, m), n)| (f, r, m, n))
            .collect()
    }

    /// Mark each finding as baselined (true) or new (false), consuming
    /// baseline entries multiset-style.
    pub fn apply(&self, findings: &[Finding]) -> Vec<bool> {
        let mut left = self.counts.clone();
        findings
            .iter()
            .map(|f| {
                let key = (
                    f.file.clone(),
                    f.rule.to_string(),
                    f.message.replace(['\t', '\n'], " "),
                );
                match left.get_mut(&key) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        true
                    }
                    _ => false,
                }
            })
            .collect()
    }
}

// ---- output and CLI -------------------------------------------------------

/// CLI options for `xtask loblint`.
#[derive(Default)]
pub struct Opts {
    /// Ignore the baseline entirely (report every finding as new).
    pub no_baseline: bool,
    /// Regenerate the baseline from the current findings and exit 0.
    pub update_baseline: bool,
    /// Run a single rule in isolation (`--rule <name>`).
    pub rule: Option<String>,
    /// Print the doc-table entry for a rule and exit (`--explain`).
    pub explain: Option<String>,
    /// Print the per-rule counts and baseline-delta table (`--stats`).
    pub stats: bool,
}

/// Render the `--stats` table: per-rule totals split into baselined
/// and new, rules with findings only, plus a TOTAL row. The exact
/// format is pinned by `stats_table_format_is_pinned`.
pub fn stats_table(findings: &[Finding], baselined: &[bool]) -> String {
    let mut rows: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (i, f) in findings.iter().enumerate() {
        let e = rows.entry(f.rule).or_default();
        e.0 += 1;
        if baselined.get(i).copied().unwrap_or(false) {
            e.1 += 1;
        }
    }
    let name_w = rows
        .keys()
        .map(|r| r.len())
        .chain(["TOTAL".len(), "rule".len()])
        .max()
        .unwrap_or(5);
    let mut out = String::new();
    let mut row = |name: &str, total: String, base: String, new: String| {
        let _ = writeln!(out, "{name:<name_w$}  {total:>5}  {base:>9}  {new:>5}");
    };
    let dashes = (
        "-".repeat(name_w),
        "-".repeat(5),
        "-".repeat(9),
        "-".repeat(5),
    );
    row("rule", "total".into(), "baselined".into(), "new".into());
    row(
        &dashes.0,
        dashes.1.clone(),
        dashes.2.clone(),
        dashes.3.clone(),
    );
    let (mut t, mut b) = (0usize, 0usize);
    for (rule, (total, base)) in &rows {
        t += total;
        b += base;
        row(
            rule,
            total.to_string(),
            base.to_string(),
            (total - base).to_string(),
        );
    }
    row(&dashes.0, dashes.1, dashes.2, dashes.3);
    row("TOTAL", t.to_string(), b.to_string(), (t - b).to_string());
    out
}

/// Print the `RULE_DOCS` entry for `rule`. Exit 0 when known, 2 not.
pub fn explain(rule: &str) -> ExitCode {
    match RULE_DOCS.iter().find(|(name, _, _)| *name == rule) {
        Some((name, scope, text)) => {
            println!("rule:  {name}\nscope: {scope}\n\n{text}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "loblint: unknown rule `{rule}`; known rules: {}",
                RULES.join(", ")
            );
            ExitCode::from(2)
        }
    }
}

/// CLI entry point. Exit code 0 = no *new* findings (baselined ones
/// are fine), 1 = new findings, 2 = the pass could not run.
pub fn run(opts: &Opts) -> ExitCode {
    if let Some(rule) = &opts.explain {
        return explain(rule);
    }
    if let Some(rule) = &opts.rule {
        if !RULES.contains(&rule.as_str()) {
            eprintln!(
                "loblint: unknown rule `{rule}` for --rule; known rules: {}",
                RULES.join(", ")
            );
            return ExitCode::from(2);
        }
    }
    let root = Path::new(".");
    let mut findings = match lint_workspace(root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("loblint: cannot scan the workspace: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(rule) = &opts.rule {
        findings.retain(|f| f.rule == rule.as_str());
    }
    let baseline_path = root.join("loblint.baseline");

    if opts.update_baseline {
        // Report what the regeneration is about to drop: the ratchet
        // must be honest in both directions.
        if let Ok(old_text) = std::fs::read_to_string(&baseline_path) {
            if let Ok(old) = Baseline::parse(&old_text) {
                for (file, rule, msg, n) in old.resolved_against(&findings) {
                    println!("loblint: resolved (x{n}): {file} [{rule}] {msg}");
                }
            }
        }
        let text = Baseline::render(&findings);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("loblint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "loblint: baseline updated ({} findings) -> {}",
            findings.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = if opts.no_baseline {
        Baseline::default()
    } else {
        match std::fs::read_to_string(&baseline_path) {
            Ok(text) => match Baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("loblint: {}: {e}", baseline_path.display());
                    return ExitCode::from(2);
                }
            },
            Err(_) => Baseline::default(), // no baseline file: everything is new
        }
    };
    let marks = baseline.apply(&findings);
    let n_new = marks.iter().filter(|m| !**m).count();

    for (f, baselined) in findings.iter().zip(&marks) {
        if !baselined {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
    }
    if opts.stats {
        print!("{}", stats_table(&findings, &marks));
        let resolved: usize = baseline
            .resolved_against(&findings)
            .iter()
            .map(|(_, _, _, n)| n)
            .sum();
        println!(
            "baseline delta: {} matched, {resolved} resolved, {n_new} new",
            findings.len() - n_new
        );
    }
    eprintln!(
        "loblint: {} finding{} ({} baselined, {n_new} new)",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
        findings.len() - n_new,
    );
    if n_new == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lint one library source (plus any extra files) through the full
    /// pipeline.
    fn lint_with(files: &[(&str, &str)]) -> Vec<Finding> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(rel, content)| (rel.to_string(), content.to_string()))
            .collect();
        lint_sources(&sources)
    }

    fn lint_lib(content: &str) -> Vec<Finding> {
        lint_with(&[("crates/core/src/x.rs", content)])
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // ---- --stats ------------------------------------------------------

    #[test]
    fn stats_table_format_is_pinned() {
        let f = |file: &str, line: usize, rule: &'static str| Finding {
            file: file.to_string(),
            line,
            rule,
            message: "m".to_string(),
        };
        let findings = vec![
            f("a.rs", 1, "bad-waiver"),
            f("a.rs", 2, "panic-path"),
            f("b.rs", 3, "panic-path"),
        ];
        let marks = vec![true, true, false];
        let expected = "\
rule        total  baselined    new
----------  -----  ---------  -----
bad-waiver      1          1      0
panic-path      2          1      1
----------  -----  ---------  -----
TOTAL           3          2      1
";
        assert_eq!(stats_table(&findings, &marks), expected);
    }

    #[test]
    fn stats_table_on_empty_findings_has_only_the_total_row() {
        let table = stats_table(&[], &[]);
        assert!(table.contains("TOTAL      0          0      0"), "{table}");
    }

    // ---- scope: library crates, non-test code -------------------------

    #[test]
    fn library_rules_skip_cfg_test_modules() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
                   fn t(v: &[u8], byte_off: usize) -> u8 { v[byte_off + 1] }\n}\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn library_rules_skip_non_library_files() {
        let class = classify("crates/cli/src/main.rs");
        assert!(!class.library);
        assert!(lint_with(&[(
            "crates/cli/src/main.rs",
            "fn f(v: &[u8], i: usize) -> u8 { v[i] }\n"
        )])
        .is_empty());
    }

    #[test]
    fn obs_is_a_library_crate() {
        let class = classify("crates/obs/src/metrics.rs");
        assert!(class.library, "lobstore-obs is held to the library rules");
        assert!(!class.test_code);
    }

    #[test]
    fn magic_duplicate_and_bare_literal_detected() {
        let found = lint_with(&[
            ("crates/cli/src/a.rs", "const A_MAGIC: u32 = 0x1234_5678;\n"),
            (
                "crates/cli/src/b.rs",
                "const B_MAGIC: u32 = 0x12345678;\nfn f() { let x = 0x1234_5678; }\n",
            ),
        ]);
        let dup: Vec<_> = found
            .iter()
            .filter(|f| f.rule == "magic-duplicate")
            .collect();
        assert_eq!(dup.len(), 1, "{found:?}");
        assert!(dup[0].message.contains("A_MAGIC"));
        let lit: Vec<_> = found.iter().filter(|f| f.rule == "magic-literal").collect();
        assert_eq!(lit.len(), 1, "{found:?}");
        assert_eq!(lit[0].line, 2);
    }

    #[test]
    fn byte_string_magic_is_tracked() {
        let found = lint_with(&[(
            "crates/cli/src/a.rs",
            "const HDR_MAGIC: &[u8] = b\"LOBS\";\nfn f() -> &'static [u8] { b\"LOBS\" }\n",
        )]);
        assert_eq!(rules_of(&found), vec!["magic-literal"]);
        assert_eq!(found[0].line, 2);
    }

    // ---- the v1 false-positive class: strings and comments ------------

    /// A library source linted beside a file that defines a magic, so
    /// `magic-literal` is armed along with the library token rules.
    fn lint_lib_with_magic(content: &str) -> Vec<Finding> {
        lint_with(&[
            ("crates/cli/src/a.rs", "const A_MAGIC: u32 = 0x1234_5678;\n"),
            ("crates/core/src/x.rs", content),
        ])
    }

    #[test]
    fn occurrences_inside_strings_do_not_fire() {
        // The same text as code fires all three token rules.
        let live = "fn f(v: &[u8], byte_off: usize) -> u32 { v[byte_off + 1]; 0x1234_5678 }\n";
        assert_eq!(
            rules_of(&lint_lib_with_magic(live)),
            vec!["arith-overflow", "magic-literal", "panic-path"]
        );
        assert!(
            lint_lib_with_magic("fn f() { let s = \"v[byte_off + 1] a / b 0x1234_5678\"; }\n")
                .is_empty()
        );
        assert!(
            lint_lib_with_magic("fn f() { let s = r#\"v[byte_off + 1] \" 0x1234_5678\"#; }\n")
                .is_empty()
        );
    }

    #[test]
    fn occurrences_inside_comments_do_not_fire() {
        assert!(lint_lib_with_magic("fn f() {} // v[byte_off + 1] and 0x1234_5678\n").is_empty());
        assert!(lint_lib_with_magic("/* v[i] a / b */ fn f() {}\n").is_empty());
        assert!(
            lint_lib_with_magic("/*\n v[i]\n size << 1\n 0x1234_5678\n*/\nfn f() {}\n").is_empty()
        );
        assert!(
            lint_lib_with_magic("/// Never write `v[i]` or `0x1234_5678` here.\nfn f() {}\n")
                .is_empty()
        );
    }

    // ---- waiver handling ----------------------------------------------

    #[test]
    fn allow_comment_suppresses_on_same_or_previous_line() {
        let same = "fn f(v: &[u8], i: usize) -> u8 { v[i] } // loblint: allow(panic-path)\n";
        assert!(lint_lib(same).is_empty());
        let above = "// loblint: allow(panic-path)\nfn f(v: &[u8], i: usize) -> u8 { v[i] }\n";
        assert!(lint_lib(above).is_empty());
        // An allow for a different rule does not suppress — and since
        // it suppresses nothing, it is itself flagged as unused.
        let wrong = "fn f(v: &[u8], i: usize) -> u8 { v[i] } // loblint: allow(arith-overflow)\n";
        assert_eq!(
            rules_of(&lint_lib(wrong)),
            vec!["panic-path", "unused-waiver"]
        );
    }

    #[test]
    fn multi_rule_waiver_covers_both_rules() {
        let bare = "fn f(v: &[u8], byte_off: usize) -> u8 { v[byte_off + 1] }\n";
        assert_eq!(
            rules_of(&lint_lib(bare)),
            vec!["arith-overflow", "panic-path"]
        );
        let src = format!("// loblint: allow(panic-path, arith-overflow)\n{bare}");
        assert!(lint_lib(&src).is_empty());
    }

    #[test]
    fn waiver_above_code_line_does_not_reach_past_it() {
        // The waiver sits above a *code* line, so it only covers that
        // line — the violation two lines down stays flagged, and the
        // out-of-reach waiver is reported as unused.
        let src = "// loblint: allow(panic-path)\nfn f(v: &[u8]) -> u8 {\n    v[0]\n}\n";
        assert_eq!(
            rules_of(&lint_lib(src)),
            vec!["unused-waiver", "panic-path"]
        );
    }

    #[test]
    fn unknown_rule_in_waiver_is_a_clear_error() {
        let src = "fn f() {} // loblint: allow(no-such-rule)\n";
        let found = lint_lib(src);
        assert_eq!(rules_of(&found), vec!["bad-waiver"]);
        assert!(found[0].message.contains("unknown rule `no-such-rule`"));
        assert!(found[0].message.contains("known rules:"), "{found:?}");
    }

    #[test]
    fn mixed_known_and_unknown_waiver_rules() {
        // The known rule still waives; the unknown one is flagged.
        let src = "fn f(v: &[u8]) -> u8 { v[0] } // loblint: allow(panic-path, nonsense)\n";
        let found = lint_lib(src);
        assert_eq!(rules_of(&found), vec!["bad-waiver"]);
    }

    // ---- unused-waiver ------------------------------------------------

    #[test]
    fn seeded_unused_waiver_violation() {
        // The code was fixed but the waiver stayed behind: flagged.
        let src = "fn f(v: &[u8], i: usize) -> Option<u8> { v.get(i).copied() } \
                   // loblint: allow(panic-path)\n";
        let found = lint_lib(src);
        assert_eq!(rules_of(&found), vec!["unused-waiver"]);
        assert!(found[0].message.contains("`panic-path`"), "{found:?}");
    }

    #[test]
    fn mutation_drill_working_waiver_is_not_unused() {
        // Re-introduce the violation the waiver targets: quiet again.
        let src = "fn f(v: &[u8], i: usize) -> u8 { v[i] } // loblint: allow(panic-path)\n";
        assert!(lint_lib(src).is_empty());
    }

    #[test]
    fn unused_waiver_skips_test_code_and_is_waivable_itself() {
        // Inside #[cfg(test)] the library rules never run, so a waiver
        // there suppresses nothing — and must not be flagged for it.
        let test_side = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    \
                         fn t(v: &[u8]) -> u8 { v[0] } // loblint: allow(panic-path)\n}\n";
        assert!(lint_lib(test_side).is_empty());
        // A waiver for `unused-waiver` itself is exempt rather than an
        // infinite regress.
        let meta = "fn f() {} // loblint: allow(unused-waiver)\n";
        assert!(lint_lib(meta).is_empty());
    }

    // ---- baseline: resolved entries -----------------------------------

    #[test]
    fn resolved_against_reports_what_update_baseline_drops() {
        let old = Baseline::parse(
            "crates/core/src/a.rs\tarith-overflow\tunchecked add\n\
             crates/core/src/b.rs\tpanic-path\tindexing\n\
             crates/core/src/b.rs\tpanic-path\tindexing\n",
        )
        .unwrap();
        // Only one of the two b.rs findings still fires.
        let current = vec![Finding {
            file: "crates/core/src/b.rs".into(),
            line: 7,
            rule: "panic-path",
            message: "indexing".into(),
        }];
        let mut resolved = old.resolved_against(&current);
        resolved.sort();
        assert_eq!(
            resolved,
            vec![
                (
                    "crates/core/src/a.rs".into(),
                    "arith-overflow".into(),
                    "unchecked add".into(),
                    1
                ),
                (
                    "crates/core/src/b.rs".into(),
                    "panic-path".into(),
                    "indexing".into(),
                    1
                ),
            ]
        );
        // Nothing resolved when the findings cover the baseline.
        assert!(old
            .resolved_against(&[current[0].clone(), current[0].clone(), {
                let mut f = current[0].clone();
                f.file = "crates/core/src/a.rs".into();
                f.rule = "arith-overflow";
                f.message = "unchecked add".into();
                f
            }])
            .is_empty());
    }

    // ---- rule docs (--explain) ----------------------------------------

    #[test]
    fn every_rule_has_exactly_one_doc_entry() {
        for rule in RULES {
            assert_eq!(
                RULE_DOCS.iter().filter(|(n, _, _)| *n == rule).count(),
                1,
                "rule `{rule}` must have exactly one RULE_DOCS entry"
            );
        }
        assert_eq!(RULE_DOCS.len(), RULES.len(), "no orphan doc entries");
        for (_, scope, text) in RULE_DOCS {
            assert!(!scope.is_empty() && !text.is_empty());
        }
    }

    /// The doc text must track the implementation's exemptions — the
    /// seeded-fixture tests below prove the *behavior*, these pins keep
    /// `--explain` from drifting away from it again. Each required
    /// substring names a behavior a fixture in this module exercises.
    #[test]
    fn rule_docs_describe_v4_exemptions() {
        let text_of = |rule: &str| {
            RULE_DOCS
                .iter()
                .find(|(n, _, _)| *n == rule)
                .map(|(_, _, t)| *t)
                .unwrap()
        };
        // panic-path: full_range_slices_and_non_postfix_brackets_are_fine,
        // mut_slice_type_in_signature_is_not_an_index_site,
        // division_by_non_constant_is_flagged.
        for needle in ["[..]", "`mut`", "&mut [u8]", "const"] {
            assert!(
                text_of("panic-path").contains(needle),
                "panic-path --explain must mention the {needle:?} exemption"
            );
        }
    }

    // ---- arith-overflow -----------------------------------------------

    #[test]
    fn seeded_arith_overflow_violation_and_waiver() {
        let bad = "fn f(byte_off: u64) -> u64 { byte_off + 1 }\n";
        assert_eq!(rules_of(&lint_lib(bad)), vec!["arith-overflow"]);
        let waived =
            "fn f(byte_off: u64) -> u64 { byte_off + 1 } // loblint: allow(arith-overflow)\n";
        assert!(lint_lib(waived).is_empty());
    }

    #[test]
    fn arith_on_non_quantities_is_fine() {
        assert!(lint_lib("fn f(a: u64, b: u64) -> u64 { a + b }\n").is_empty());
        // Trait bounds are not arithmetic.
        assert!(lint_lib("fn f<T: Clone + Send>(t: T) {}\n").is_empty());
        // checked_*/saturating_* forms carry no bare operator.
        assert!(lint_lib("fn f(off: u64) -> Option<u64> { off.checked_add(1) }\n").is_empty());
    }

    #[test]
    fn compound_assign_and_shift_are_covered() {
        assert_eq!(
            rules_of(&lint_lib("fn f(mut n_pages: u32) { n_pages += 2; }\n")),
            vec!["arith-overflow"]
        );
        assert_eq!(
            rules_of(&lint_lib("fn f(size: u64) -> u64 { size << 1 }\n")),
            vec!["arith-overflow"]
        );
    }

    #[test]
    fn arith_overflow_is_library_only() {
        assert!(lint_with(&[(
            "crates/bench/src/main.rs",
            "fn f(off: u64) -> u64 { off + 1 }\n"
        )])
        .is_empty());
    }

    // ---- panic-path ---------------------------------------------------

    #[test]
    fn seeded_panic_path_violation_and_waiver() {
        let bad = "fn f(v: &[u8], i: usize) -> u8 { v[i] }\n";
        assert_eq!(rules_of(&lint_lib(bad)), vec!["panic-path"]);
        let waived = "fn f(v: &[u8], i: usize) -> u8 { v[i] } // loblint: allow(panic-path)\n";
        assert!(lint_lib(waived).is_empty());
    }

    #[test]
    fn division_by_non_constant_is_flagged() {
        let bad = "fn f(a: u64, b: u64) -> u64 { a / b }\n";
        assert_eq!(rules_of(&lint_lib(bad)), vec!["panic-path"]);
        // Literal and ALL_CAPS-const divisors cannot be a surprise zero.
        assert!(lint_lib("fn f(a: u64) -> u64 { a / 2 }\n").is_empty());
        assert!(lint_lib("fn f(a: u64) -> u64 { a % SOME_CONST }\n").is_empty());
        assert!(lint_lib("fn f(a: u64) -> u64 { a / cast::SOME_CONST }\n").is_empty());
    }

    #[test]
    fn full_range_slices_and_non_postfix_brackets_are_fine() {
        assert!(lint_lib("fn f(v: &[u8]) -> &[u8] { &v[..] }\n").is_empty());
        assert!(lint_lib("fn f(n: usize) -> Vec<u8> { vec![0; n] }\n").is_empty());
        assert!(lint_lib("fn f(buf: [u8; 4]) {}\n").is_empty());
        assert!(lint_lib("#[derive(Clone)]\nstruct S;\n").is_empty());
        // Partial ranges still panic.
        assert_eq!(
            rules_of(&lint_lib("fn f(v: &[u8], n: usize) -> &[u8] { &v[..n] }\n")),
            vec!["panic-path"]
        );
    }

    #[test]
    fn mut_slice_type_in_signature_is_not_an_index_site() {
        // `&mut [u8]` is a type — `mut` cannot name an indexable value.
        assert!(lint_lib("fn f(out: &mut [u8]) {}\n").is_empty());
        assert!(lint_lib("fn f(out: &mut [u8], v: &[u8]) -> &mut [u8] { out }\n").is_empty());
        // Indexing *through* such a parameter still fires.
        assert_eq!(
            rules_of(&lint_lib(
                "fn f(out: &mut [u8], i: usize) { out[i] = 0; }\n"
            )),
            vec!["panic-path"]
        );
    }

    // ---- unit-mixing --------------------------------------------------

    #[test]
    fn seeded_unit_mixing_violation_and_waiver() {
        let bad = "fn f(byte_off: u64, pgno: u64) -> bool { byte_off == pgno }\n";
        let found = lint_lib(bad);
        assert_eq!(rules_of(&found), vec!["unit-mixing"]);
        assert!(found[0].message.contains("byte quantity"));
        let waived =
            "fn f(byte_off: u64, pgno: u64) -> bool { byte_off == pgno } // loblint: allow(unit-mixing)\n";
        assert!(lint_lib(waived).is_empty());
    }

    #[test]
    fn page_id_newtype_annotations_drive_units() {
        let bad = "fn f(p: PageId, size: u64) -> bool { size == p }\n";
        assert_eq!(rules_of(&lint_lib(bad)), vec!["unit-mixing"]);
    }

    #[test]
    fn idiomatic_page_arithmetic_is_not_mixing() {
        // index < count is the canonical bounds check.
        assert!(lint_lib("fn f(pgno: u32, n_pages: u32) -> bool { pgno < n_pages }\n").is_empty());
        // index + count advances an index. (+ on quantities is still an
        // arith-overflow finding, so waive that rule only.)
        let advance = "fn f(pgno: u32, n_pages: u32) -> u32 { pgno + n_pages } // loblint: allow(arith-overflow)\n";
        assert!(lint_lib(advance).is_empty());
        // count = index - index computes a distance.
        let distance = "fn f(a_page: u32, b_page: u32) { let n_pages = b_page - a_page; } // loblint: allow(arith-overflow)\n";
        assert!(lint_lib(distance).is_empty());
        // Same units compare fine.
        assert!(lint_lib("fn f(off: u64, size: u64) -> bool { off < size }\n").is_empty());
    }

    #[test]
    fn adding_two_page_indexes_is_flagged() {
        let bad = "fn f(a_page: u32, b_page: u32) -> u32 { a_page + b_page } // loblint: allow(arith-overflow)\n";
        let found = lint_lib(bad);
        assert_eq!(rules_of(&found), vec!["unit-mixing"]);
        assert!(found[0].message.contains("two page indexes"));
    }

    // ---- baseline ratchet ---------------------------------------------

    fn two_findings() -> Vec<Finding> {
        lint_lib("fn f(v: &[u8]) -> u8 { v[0] }\nfn h(w: &[u8]) -> u8 { w[1] }\n")
    }

    #[test]
    fn baseline_round_trip_freezes_findings() {
        let findings = two_findings();
        assert_eq!(findings.len(), 2);
        let text = Baseline::render(&findings);
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.apply(&findings), vec![true, true]);
    }

    #[test]
    fn baseline_is_a_multiset_over_identical_messages() {
        let findings = two_findings();
        // Freeze only ONE of the two identical (file, rule, message)
        // findings: exactly one stays baselined, the other is new.
        let one = Baseline::render(&findings[..1]);
        let parsed = Baseline::parse(&one).unwrap();
        assert_eq!(parsed.apply(&findings), vec![true, false]);
    }

    #[test]
    fn baseline_render_is_sorted_and_deterministic() {
        let mut findings = two_findings();
        let a = Baseline::render(&findings);
        findings.reverse();
        let b = Baseline::render(&findings);
        assert_eq!(a, b);
        let body: Vec<&str> = a.lines().filter(|l| !l.starts_with('#')).collect();
        let mut sorted = body.clone();
        sorted.sort_unstable();
        assert_eq!(body, sorted);
    }

    #[test]
    fn baseline_survives_line_number_drift() {
        let before = two_findings();
        let text = Baseline::render(&before);
        // The same violations, pushed down by an unrelated edit above.
        let after =
            lint_lib("fn a() {}\n\nfn f(v: &[u8]) -> u8 { v[0] }\nfn h(w: &[u8]) -> u8 { w[1] }\n");
        assert_ne!(before[0].line, after[0].line);
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.apply(&after), vec![true, true]);
    }

    #[test]
    fn malformed_baseline_is_rejected() {
        assert!(Baseline::parse("only-one-field\n").is_err());
        assert!(Baseline::parse("# comment\n\n")
            .unwrap()
            .apply(&[])
            .is_empty());
    }

    // ---- the real workspace -------------------------------------------

    /// End-to-end: a synthetic workspace on disk, scanned via
    /// `lint_workspace`.
    #[test]
    fn workspace_walk_finds_violations_on_disk() {
        let dir = std::env::temp_dir().join(format!("loblint-selftest-{}", std::process::id()));
        let lib = dir.join("crates/core/src");
        std::fs::create_dir_all(&lib).unwrap();
        std::fs::write(
            lib.join("bad.rs"),
            "const BAD_MAGIC: u32 = 0x1234_5678;\n\
             fn f(v: &[u8], byte_off: usize) -> u32 { v[byte_off + 1]; 0x1234_5678 }\n",
        )
        .unwrap();
        let findings = lint_workspace(&dir).unwrap();
        assert_eq!(
            rules_of(&findings),
            vec!["arith-overflow", "magic-literal", "panic-path"],
            "{findings:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The ratchet itself: the real workspace must carry no findings
    /// beyond the committed `loblint.baseline`.
    #[test]
    fn real_workspace_is_clean_against_committed_baseline() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = lint_workspace(&root).expect("workspace must be scannable");
        let text = std::fs::read_to_string(root.join("loblint.baseline"))
            .expect("loblint.baseline must be committed");
        let baseline = Baseline::parse(&text).expect("baseline must parse");
        let marks = baseline.apply(&findings);
        let new: Vec<&Finding> = findings
            .iter()
            .zip(&marks)
            .filter(|(_, m)| !**m)
            .map(|(f, _)| f)
            .collect();
        assert!(
            new.is_empty(),
            "new lint findings (fix them or run `cargo run -q -p xtask -- loblint --update-baseline`): {new:#?}"
        );
    }
}
