//! loblint's CFG rule, `disk-taint`, built on the [`crate::lobflow`]
//! CFG/dataflow engine: a forward may-taint dataflow over the function
//! CFG. Values produced by the disk deserializers are Tainted until a
//! comparison, `.min()`/`.clamp()`, or a `check*`/`valid*`/`verify*` call
//! touches them; Tainted values may not reach a slice index,
//! `PageId::new`, an I/O call argument, or offset/length arithmetic (sink
//! typing reuses the `unit-mixing` naming heuristics).

use std::collections::{BTreeMap, BTreeSet};

use crate::lobflow;
use crate::loblint::{ends_operand, left_chain, panic_index_at, unit_of, Analysis, Finding};
use crate::lobsyn::{FnDef, Tok, TokKind};

/// Functions that deserialize values out of raw disk bytes: their
/// results are tainted until checked.
const TAINT_SOURCES: [&str; 7] = [
    "from_le_bytes",
    "from_be_bytes",
    "from_ne_bytes",
    "get_u16",
    "get_u32",
    "get_u64",
    "decode",
];

/// Run the CFG rule over the analyzed workspace's library code.
pub(crate) fn check(analyses: &[Analysis], out: &mut Vec<Finding>) {
    for a in analyses {
        if !a.class.library {
            continue;
        }
        for f in &a.fns {
            if f.body.is_none() || a.in_test(f.line) {
                continue;
            }
            check_disk_taint(a, f, out);
        }
    }
}

/// Index just past the `)` matching the `(` at `open`.
fn group_end(t: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, tok) in t.iter().enumerate().skip(open) {
        if tok.kind == TokKind::Punct {
            match tok.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
        }
    }
    t.len()
}

/// The calls that reach the disk: bufpool's cost-counted wrappers and
/// the segment I/O entries above them. A tainted value may not be one of
/// their arguments.
const IO_CALLS: [&str; 15] = [
    "evict",
    "fix",
    "flush_page",
    "flush_all",
    "read_clipped",
    "read_buffered",
    "read_direct",
    "read_pages",
    "write_direct",
    "flush_range",
    "read_segment",
    "read_seg_pages",
    "write_new_seg",
    "append_in_place",
    "patch_in_place",
];

// ---- rule: disk-taint -----------------------------------------------------

/// Per-variable taint state. Absence from the map means clean.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Taint {
    /// Was tainted, then passed a bounds/validation check.
    Checked,
    /// Carries unvalidated disk bytes: (source line, source fn).
    Tainted(usize, String),
}

type TaintState = BTreeMap<String, Taint>;

/// May-analysis join: Tainted beats Checked beats clean (absent).
fn join_taint(a: &TaintState, b: &TaintState) -> TaintState {
    let mut out = a.clone();
    for (k, v) in b {
        match out.get(k) {
            Some(Taint::Tainted(..)) => {}
            Some(Taint::Checked) => {
                if matches!(v, Taint::Tainted(..)) {
                    out.insert(k.clone(), v.clone());
                }
            }
            None => {
                out.insert(k.clone(), v.clone());
            }
        }
    }
    out
}

const COMPARISONS: [&str; 6] = ["<", "<=", ">", ">=", "==", "!="];

/// Does a comparison touch the identifier at `idx` (skipping `as T`
/// casts and closing parens between the ident and the operator)?
fn compared_at(t: &[Tok], lo: usize, idx: usize) -> bool {
    // Look right: `x as usize ) <` still checks x.
    let mut j = idx + 1;
    while j + 1 < t.len() && t[j].is_ident("as") && t[j + 1].kind == TokKind::Ident {
        j += 2;
    }
    while j < t.len() && t[j].is_punct(")") {
        j += 1;
    }
    if t.get(j)
        .is_some_and(|n| n.kind == TokKind::Punct && COMPARISONS.contains(&n.text.as_str()))
    {
        return true;
    }
    // Look left: `len > x`.
    let mut p = idx;
    while p > lo && t[p - 1].is_punct("(") {
        p -= 1;
    }
    p > lo && t[p - 1].kind == TokKind::Punct && COMPARISONS.contains(&t[p - 1].text.as_str())
}

/// Is the identifier at `idx` sanitized inside this statement: by an
/// adjacent comparison, a `.min(`/`.clamp(` call, or by being an
/// argument to a `check*`/`valid*`/`verify*`/`bound*` call?
fn sanitized_at(t: &[Tok], lo: usize, hi: usize, idx: usize) -> bool {
    if compared_at(t, lo, idx) {
        return true;
    }
    if t.get(idx + 1).is_some_and(|n| n.is_punct("."))
        && t.get(idx + 2)
            .is_some_and(|n| n.is_ident("min") || n.is_ident("clamp"))
        && t.get(idx + 3).is_some_and(|n| n.is_punct("("))
    {
        return true;
    }
    for k in lo..hi.min(t.len()) {
        if t[k].kind == TokKind::Ident && t.get(k + 1).is_some_and(|n| n.is_punct("(")) {
            let name = t[k].text.to_ascii_lowercase();
            if ["check", "valid", "verify", "bound"]
                .iter()
                .any(|w| name.contains(w))
            {
                let end = group_end(t, k + 1);
                if k + 1 < idx && idx < end {
                    return true;
                }
            }
        }
    }
    false
}

/// A taint-source call inside `[lo, hi)`, if any: (line, name).
fn source_call(t: &[Tok], lo: usize, hi: usize) -> Option<(usize, String)> {
    (lo..hi.min(t.len())).find_map(|k| {
        (t[k].kind == TokKind::Ident
            && TAINT_SOURCES.contains(&t[k].text.as_str())
            && t.get(k + 1).is_some_and(|n| n.is_punct("(")))
        .then(|| (t[k].line, t[k].text.clone()))
    })
}

/// Transfer one statement's effect onto the taint state. `cond` marks
/// an `if`/`while`/`match` head: it can sanitize (that is the usual
/// place a bounds check lives) but never assigns.
fn taint_transfer(t: &[Tok], state: &mut TaintState, lo: usize, hi: usize, cond: bool) {
    // 1. Sanitize: a comparison/min/clamp/check touching a tainted var
    //    downgrades it for all paths out of this statement.
    let tainted: Vec<String> = state
        .iter()
        .filter(|(_, v)| matches!(v, Taint::Tainted(..)))
        .map(|(k, _)| k.clone())
        .collect();
    for var in tainted {
        for k in lo..hi.min(t.len()) {
            if t[k].is_ident(&var) && sanitized_at(t, lo, hi, k) {
                state.insert(var.clone(), Taint::Checked);
                break;
            }
        }
    }

    // 2. Assignment: `let [mut] x [: T] = rhs` or `x =/+= rhs`.
    let hi = hi.min(t.len());
    if cond || lo >= hi {
        return;
    }
    let (var, rhs_lo) = if t[lo].is_ident("let") {
        let mut j = lo + 1;
        if t.get(j).is_some_and(|n| n.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = t.get(j).filter(|n| n.kind == TokKind::Ident) else {
            return;
        };
        // Find the `=` at depth 0 (skipping a type annotation).
        let mut eq = j + 1;
        let mut depth = 0i64;
        while eq < hi {
            match t[eq].text.as_str() {
                "(" | "[" | "{" | "<" if t[eq].kind == TokKind::Punct => depth += 1,
                ")" | "]" | "}" | ">" if t[eq].kind == TokKind::Punct => depth -= 1,
                "=" if depth == 0 && t[eq].kind == TokKind::Punct => break,
                _ => {}
            }
            eq += 1;
        }
        if eq >= hi {
            return;
        }
        (name.text.clone(), eq + 1)
    } else if t[lo].kind == TokKind::Ident
        && t.get(lo + 1).is_some_and(|n| {
            n.kind == TokKind::Punct && matches!(n.text.as_str(), "=" | "+=" | "-=" | "*=" | "|=")
        })
    {
        (t[lo].text.clone(), lo + 2)
    } else {
        return;
    };

    let compound = !t[rhs_lo - 1].is_punct("=");
    let mut new = if let Some((line, src)) = source_call(t, rhs_lo, hi) {
        Some(Taint::Tainted(line, src))
    } else {
        // Propagate from tainted/checked vars mentioned on the right.
        let mut found: Option<Taint> = None;
        for tok in t.iter().take(hi).skip(rhs_lo) {
            if tok.kind != TokKind::Ident {
                continue;
            }
            match state.get(&tok.text) {
                Some(tn @ Taint::Tainted(..)) => {
                    found = Some(tn.clone());
                    break;
                }
                Some(Taint::Checked) => found = Some(Taint::Checked),
                None => {}
            }
        }
        found
    };
    if compound {
        // `x += tainted` taints x even if x was clean, and vice versa.
        if let Some(old @ Taint::Tainted(..)) = state.get(&var) {
            new = Some(old.clone());
        }
    }
    match new {
        Some(tn) => {
            state.insert(var, tn);
        }
        None => {
            state.remove(&var);
        }
    }
}

/// Sink descriptions found in one statement given the state before it.
#[allow(clippy::too_many_arguments)]
fn taint_sinks(
    a: &Analysis,
    state: &TaintState,
    lo: usize,
    hi: usize,
    reported: &mut BTreeSet<(usize, String)>,
    out: &mut Vec<Finding>,
) {
    let t = &a.toks;
    let hi = hi.min(t.len());
    fn flag(
        a: &Analysis,
        reported: &mut BTreeSet<(usize, String)>,
        line: usize,
        var: &str,
        sink: &str,
        taint: &Taint,
        out: &mut Vec<Finding>,
    ) {
        let Taint::Tainted(src_line, src) = taint else {
            return;
        };
        if reported.insert((line, var.to_string())) {
            a.push_ev(
                out,
                line,
                "disk-taint",
                format!(
                    "disk-derived `{var}` (from `{src}`, line {src_line}) used as {sink} without a bounds check"
                ),
                vec![
                    format!("tainted by `{src}` at {}:{src_line}", a.rel),
                    format!("reaches this {sink} unchecked on at least one path"),
                ],
            );
        }
    }
    // Scan a call/index argument group for tainted vars or direct
    // source calls.
    #[allow(clippy::too_many_arguments)]
    fn scan_group(
        a: &Analysis,
        state: &TaintState,
        hi: usize,
        reported: &mut BTreeSet<(usize, String)>,
        open: usize,
        sink: &str,
        out: &mut Vec<Finding>,
    ) {
        let t = &a.toks;
        let end = group_end(t, open).min(hi);
        for j in open + 1..end.saturating_sub(1) {
            if t[j].kind != TokKind::Ident {
                continue;
            }
            if let Some(taint) = state.get(&t[j].text) {
                flag(a, reported, t[j].line, &t[j].text, sink, taint, out);
            }
            if TAINT_SOURCES.contains(&t[j].text.as_str())
                && t.get(j + 1).is_some_and(|n| n.is_punct("("))
            {
                let taint = Taint::Tainted(t[j].line, t[j].text.clone());
                let var = format!("{}(..)", t[j].text);
                flag(a, reported, t[j].line, &var, sink, &taint, out);
            }
        }
    }
    for k in lo..hi {
        if panic_index_at(t, k) {
            scan_group(a, state, hi, reported, k, "a slice index", out);
        }
        if t[k].is_ident("PageId")
            && t.get(k + 1).is_some_and(|n| n.is_punct("::"))
            && t.get(k + 2).is_some_and(|n| n.is_ident("new"))
            && t.get(k + 3).is_some_and(|n| n.is_punct("("))
        {
            scan_group(a, state, hi, reported, k + 3, "a PageId", out);
        }
        if t[k].kind == TokKind::Ident
            && IO_CALLS.contains(&t[k].text.as_str())
            && t.get(k + 1).is_some_and(|n| n.is_punct("("))
            && !(k > 0 && t[k - 1].is_ident("fn"))
        {
            scan_group(a, state, hi, reported, k + 1, "an I/O-call argument", out);
        }
        // Offset/length arithmetic: tainted var combined with a
        // unit-bearing chain (the unit-mixing heuristics as sink type).
        if t[k].kind == TokKind::Punct
            && matches!(t[k].text.as_str(), "+" | "-" | "*" | "<<" | "+=" | "-=")
            && k > lo
            && ends_operand(&t[k - 1])
        {
            let l = left_chain(t, k);
            let r = crate::loblint::right_chain(t, k);
            let l_taint = l
                .as_ref()
                .and_then(|c| (c.len() == 1).then(|| state.get(&c[0]).cloned()).flatten());
            let r_taint = r.as_ref().and_then(|(c, call, _)| {
                (!call && c.len() == 1)
                    .then(|| state.get(&c[0]).cloned())
                    .flatten()
            });
            let l_unit = l.as_ref().and_then(|c| unit_of(c));
            let r_unit = r
                .as_ref()
                .and_then(|(c, call, _)| if *call { None } else { unit_of(c) });
            if let (Some(taint), Some(unit)) = (&l_taint, r_unit) {
                if let Some(c) = &l {
                    let sink = format!("{} arithmetic", unit.name());
                    flag(a, reported, t[k].line, &c[0], &sink, taint, out);
                }
            } else if let (Some(taint), Some(unit)) = (&r_taint, l_unit) {
                if let Some((c, _, _)) = &r {
                    let sink = format!("{} arithmetic", unit.name());
                    flag(a, reported, t[k].line, &c[0], &sink, taint, out);
                }
            }
        }
    }
}

fn check_disk_taint(a: &Analysis, f: &FnDef, out: &mut Vec<Finding>) {
    let Some((b0, b1)) = f.body else { return };
    let t = &a.toks;
    // Cheap pre-filter: no source call, no taint.
    if source_call(t, b0, b1).is_none() {
        return;
    }
    let cfg = lobflow::build_cfg(t, b0, b1);
    let transfer = |state: &mut TaintState, s: &lobflow::Stmt| {
        taint_transfer(t, state, s.lo, s.hi, s.kind == lobflow::StmtKind::Cond)
    };
    let entries = lobflow::forward(&cfg, TaintState::new(), join_taint, transfer);
    let mut reported = BTreeSet::new();
    lobflow::replay(&cfg, &entries, transfer, |state, s| {
        taint_sinks(a, state, s.lo, s.hi, &mut reported, out);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loblint::lint_sources;

    fn findings_for(files: &[(&str, &str)], rule: &str) -> Vec<Finding> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(rel, content)| (rel.to_string(), content.to_string()))
            .collect();
        lint_sources(&sources)
            .into_iter()
            .filter(|f| f.rule == rule)
            .collect()
    }

    // ---- disk-taint ---------------------------------------------------

    #[test]
    fn tainted_index_is_flagged_with_taint_path() {
        let files = [(
            "crates/core/src/dt.rs",
            "fn f(page: &[u8], store: &[u8]) -> u8 {\n\
             let idx = decode(page);\n\
             store[idx]\n}\n",
        )];
        let found = findings_for(&files, "disk-taint");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("`decode`"));
        assert!(
            found[0].evidence.iter().any(|e| e.contains("tainted by")),
            "{found:?}"
        );
    }

    #[test]
    fn mutation_drill_bounds_check_sanitizes() {
        let files = [(
            "crates/core/src/dt.rs",
            "fn f(page: &[u8], store: &[u8]) -> u8 {\n\
             let idx = decode(page);\n\
             if idx < store.len() { return store[idx]; }\n\
             0\n}\n",
        )];
        assert_eq!(findings_for(&files, "disk-taint"), Vec::<Finding>::new());
    }

    #[test]
    fn taint_survives_a_join_from_one_branch() {
        let files = [(
            "crates/core/src/dt.rs",
            "fn f(page: &[u8], store: &[u8], cold: bool) -> u8 {\n\
             let mut idx = 0;\n\
             if cold { idx = decode(page); }\n\
             store[idx]\n}\n",
        )];
        let found = findings_for(&files, "disk-taint");
        assert_eq!(found.len(), 1, "one tainted path suffices: {found:?}");
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn direct_source_in_sink_position_is_flagged() {
        let files = [(
            "crates/core/src/dt.rs",
            "fn f(page: &[u8], store: &[u8]) -> u8 { store[get_u16(page, 0)] }\n",
        )];
        let found = findings_for(&files, "disk-taint");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("get_u16"));
    }

    #[test]
    fn tainted_page_id_and_offset_arithmetic_are_sinks() {
        let files = [(
            "crates/core/src/dt.rs",
            "fn f(page: &[u8]) -> PageId {\n\
             let p = get_u32(page, 4);\n\
             PageId::new(AREA, p)\n}\n\
             fn g(page: &[u8], base_off: u64) -> u64 {\n\
             let d = get_u64(page, 0);\n\
             base_off + d\n}\n",
        )];
        let found = findings_for(&files, "disk-taint");
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().any(|f| f.message.contains("PageId")));
        assert!(found.iter().any(|f| f.message.contains("arithmetic")));
    }

    #[test]
    fn checked_via_min_or_validator_is_quiet() {
        let files = [(
            "crates/core/src/dt.rs",
            "fn f(page: &[u8], store: &[u8]) -> u8 {\n\
             let idx = decode(page);\n\
             let idx = idx.min(store.len() - 1);\n\
             store[idx]\n}\n\
             fn g(page: &[u8], store: &[u8]) -> u8 {\n\
             let idx = decode(page);\n\
             check_bounds(idx, store.len());\n\
             store[idx]\n}\n",
        )];
        assert_eq!(findings_for(&files, "disk-taint"), Vec::<Finding>::new());
    }
}
