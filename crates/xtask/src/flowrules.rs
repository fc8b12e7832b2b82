//! The loblint v3 concurrency & taint rules, built on the
//! [`crate::lobflow`] CFG/dataflow engine.
//!
//! Four rules live here:
//!
//! * `lock-order` — every lock/latch acquisition site (`.lock()`,
//!   `RwLock` `.read()`/`.write()`, `BufferPool::guard*`, thread-local
//!   `STATIC.with(..)`) contributes edges to a workspace acquisition
//!   graph: an edge `A -> B` means `B` is acquired while `A` is held,
//!   either directly inside `A`'s live region or through a call whose
//!   transitive closure acquires `B`. The graph must be acyclic, must
//!   never re-acquire a held resource, and edges between resources in
//!   [`CANONICAL_LOCK_ORDER`] must point from outer to inner.
//! * `guard-across-io` — no guard/pin/latch live across a cost-counted
//!   I/O wrapper or entry call, or a `std::io`/`std::fs` path.
//! * `panic-while-locked` — no panic-capable token (unwrap/expect,
//!   `panic!`-family macro, postfix indexing, non-constant division)
//!   inside a guard's live region.
//! * `disk-taint` — a forward may-taint dataflow over the function CFG:
//!   values produced by the disk deserializers are Tainted until a
//!   comparison, `.min()`/`.clamp()`, or a `check*`/`valid*`/`verify*`
//!   call touches them; Tainted values may not reach a slice index,
//!   `PageId::new`, an I/O call argument, or offset/length arithmetic
//!   (sink typing reuses the `unit-mixing` naming heuristics).
//!
//! Naming note: resource identity is declaration-based where possible
//! (`inner` declared as `Mutex<..>` inside `struct SharedDb` names the
//! resource `SharedDb.inner` at every call site, whether spelled
//! `self.inner.lock()` or `db.inner.lock()`); ALL_CAPS statics are
//! crate-qualified (`obs::SLOTS`); page pins all map to the single
//! `BufferPool.frame` resource. Call-graph edges resolve by bare name,
//! so — as with `io-accounting` — the graph excludes xtask and the
//! dependency shims, and the acquisition method names themselves
//! (`lock`, `with`, ...) never resolve to workspace functions.

use std::collections::{BTreeMap, BTreeSet};

use crate::lobflow::{self, Region};
use crate::loblint::{
    ends_operand, is_const_name, left_chain, panic_div_at, panic_index_at, unit_of, Analysis,
    Finding, CALL_KEYWORDS, IO_ENTRIES, IO_WRAPPERS,
};
use crate::lobsyn::{FnDef, Tok, TokKind};

/// The canonical workspace lock order, outermost first. An acquisition
/// edge `A -> B` (B taken while A is held) between two listed
/// resources must go strictly downward in this table. Mirrored in
/// DESIGN.md section 13; a test below holds the table, the workspace's
/// lock declarations and that section to the same names, so a new lock
/// joins all three at once.
pub(crate) const CANONICAL_LOCK_ORDER: [&str; 9] = [
    "SharedDb.inner", // two-tier DB lock: writers exclusive, scans shared
    PAGE_PIN,         // page pins, only under the DB lock
    "BufferPool.ctl", // pool control block: frame table + replacement
    "Frame.bytes",    // per-frame page-byte latch, only under/after ctl
    "AreaSlot.store", // per-area disk store latch
    "SimDisk.trace",  // trace stream, innermost disk-side lock
    "obs::REGISTRY",  // thread-local metric cells latch
    "obs::SINK",      // thread-local event sink latch
    "obs::SLOTS",     // innermost: process-wide metric slot <-> name table
];

/// The one table entry that is not a declared lock: every page pin
/// (`BufferPool::guard*`) maps to this pseudo-resource.
const PAGE_PIN: &str = "BufferPool.frame";

/// Method names that acquire; they never resolve to workspace
/// functions in the call graph (a `.with(` on a thread-local would
/// otherwise alias `SharedDb::with` and conjure phantom edges).
const ACQUIRE_METHODS: [&str; 9] = [
    "lock",
    "read",
    "write",
    "guard",
    "guard_mut",
    "guard_new",
    "with",
    "borrow",
    "borrow_mut",
];

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

// ---- lock/latch declarations ----------------------------------------------

/// Workspace-wide lock declarations, collected in one pass so call
/// sites can be named by declaration rather than by receiver spelling.
#[derive(Default)]
struct LockDecls {
    /// Mutex-typed field name -> declaring struct.
    mutex_fields: BTreeMap<String, String>,
    /// RwLock-typed field name -> declaring struct.
    rwlock_fields: BTreeMap<String, String>,
    /// ALL_CAPS static/thread-local name -> crate-qualified resource.
    statics: BTreeMap<String, String>,
    /// The subset of `statics` declared as `RefCell` (latched via
    /// `.with(..)`).
    refcell_statics: BTreeSet<String>,
}

fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("lobstore")
}

fn collect_lock_decls<'a>(analyses: impl IntoIterator<Item = &'a Analysis>) -> LockDecls {
    let mut d = LockDecls::default();
    for a in analyses {
        let t = &a.toks;
        let mut cur_struct: Option<String> = None;
        for i in 0..t.len() {
            if t[i].is_ident("struct") && t.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
                cur_struct = Some(t[i + 1].text.clone());
            }
            // `name : [Arc <]* Mutex/RwLock/RefCell < ...` — shared
            // handles like `inner: Arc<RwLock<Db>>` still declare a
            // lock; the `Arc` wrapper never changes which resource the
            // call sites acquire.
            if t[i].kind != TokKind::Ident || !t.get(i + 1).is_some_and(|n| n.is_punct(":")) {
                continue;
            }
            let mut ty_at = i + 2;
            while t.get(ty_at).is_some_and(|n| n.is_ident("Arc"))
                && t.get(ty_at + 1).is_some_and(|n| n.is_punct("<"))
            {
                ty_at += 2;
            }
            if !t.get(ty_at + 1).is_some_and(|n| n.is_punct("<")) {
                continue;
            }
            let Some(ty) = t.get(ty_at).filter(|n| n.kind == TokKind::Ident) else {
                continue;
            };
            let name = t[i].text.clone();
            match ty.text.as_str() {
                "Mutex" | "RwLock" | "RefCell" if is_const_name(&name) => {
                    let resource = format!("{}::{}", crate_of(&a.rel), name);
                    if ty.text == "RefCell" {
                        d.refcell_statics.insert(name.clone());
                    }
                    d.statics.insert(name, resource);
                }
                "Mutex" => {
                    let owner = cur_struct
                        .clone()
                        .unwrap_or_else(|| crate_of(&a.rel).into());
                    d.mutex_fields.insert(name, owner);
                }
                "RwLock" => {
                    let owner = cur_struct
                        .clone()
                        .unwrap_or_else(|| crate_of(&a.rel).into());
                    d.rwlock_fields.insert(name, owner);
                }
                _ => {}
            }
        }
    }
    d
}

// ---- acquisition sites ----------------------------------------------------

/// One lock/latch/pin acquisition inside a function body.
#[derive(Debug, Clone)]
struct Acq {
    /// Token index of the acquiring method ident.
    tok: usize,
    line: usize,
    resource: String,
    /// Human label: "guard", "page pin", "latch".
    what: &'static str,
    region: Region,
    /// Token range of the acquiring call's own argument group. The
    /// arguments evaluate *before* the resource is acquired, so every
    /// in-region scan skips them (`pool.guard(PageId::new(p))` does not
    /// call `PageId::new` while the pin is held). `None` for `.with`
    /// latches, whose argument is the closure that runs latched.
    args: Option<(usize, usize)>,
}

impl Acq {
    /// Is token `k` inside the acquiring call's own argument group
    /// (i.e. evaluated before the resource is actually held)?
    fn in_args(&self, k: usize) -> bool {
        self.args.is_some_and(|(lo, hi)| lo <= k && k < hi)
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

/// Name the resource behind a `.lock()`/`.read()`/`.write()` receiver
/// chain, preferring the declaring struct over the receiver spelling.
fn field_resource(
    chain: &[String],
    fields: &BTreeMap<String, String>,
    statics: &BTreeMap<String, String>,
    owner: Option<&str>,
    cr: &str,
) -> String {
    let last = chain.last().map(String::as_str).unwrap_or("<expr>");
    if let Some(st) = fields.get(last) {
        return format!("{st}.{last}");
    }
    if let Some(r) = statics.get(last) {
        return r.clone();
    }
    if chain.first().is_some_and(|c| c == "self") {
        return format!("{}.{last}", owner.unwrap_or(cr));
    }
    format!("{cr}::{last}")
}

/// Every acquisition in the body `[b0, b1)` of `f`, with live regions.
fn acquisitions(a: &Analysis, f: &FnDef, decls: &LockDecls) -> Vec<Acq> {
    let t = &a.toks;
    let Some((b0, b1)) = f.body else {
        return Vec::new();
    };
    let cr = crate_of(&a.rel);
    let mut out = Vec::new();
    for k in b0..b1.min(t.len()) {
        if t[k].kind != TokKind::Ident || !t.get(k + 1).is_some_and(|n| n.is_punct("(")) {
            // `STATIC.with(|..| ..)` — the latch is the whole call.
            if decls.refcell_statics.contains(t[k].text.as_str())
                && t.get(k + 1).is_some_and(|n| n.is_punct("."))
                && t.get(k + 2).is_some_and(|n| n.is_ident("with"))
                && t.get(k + 3).is_some_and(|n| n.is_punct("("))
            {
                out.push(Acq {
                    tok: k + 2,
                    line: t[k + 2].line,
                    resource: decls.statics[t[k].text.as_str()].clone(),
                    what: "latch",
                    region: Region {
                        var: None,
                        lo: k + 2,
                        hi: group_end(t, k + 3).min(b1),
                    },
                    args: None,
                });
            }
            continue;
        }
        let method_call = k > b0 && t[k - 1].is_punct(".");
        if !method_call {
            continue;
        }
        let (resource, what) = match t[k].text.as_str() {
            "lock" => {
                let chain = left_chain(t, k - 1).unwrap_or_default();
                (
                    field_resource(
                        &chain,
                        &decls.mutex_fields,
                        &decls.statics,
                        f.owner.as_deref(),
                        cr,
                    ),
                    "guard",
                )
            }
            "read" | "write" => {
                // Only when the receiver is a declared RwLock; plain
                // `file.read(..)` etc. must not register.
                let Some(chain) = left_chain(t, k - 1) else {
                    continue;
                };
                let last = chain.last().map(String::as_str).unwrap_or("");
                if !decls.rwlock_fields.contains_key(last) && !decls.statics.contains_key(last) {
                    continue;
                }
                (
                    field_resource(
                        &chain,
                        &decls.rwlock_fields,
                        &decls.statics,
                        f.owner.as_deref(),
                        cr,
                    ),
                    "guard",
                )
            }
            "guard" | "guard_mut" | "guard_new" => (PAGE_PIN.to_string(), "page pin"),
            _ => continue,
        };
        out.push(Acq {
            tok: k,
            line: t[k].line,
            resource,
            what,
            region: lobflow::live_region(t, b0, b1, k),
            args: Some((k + 1, group_end(t, k + 1))),
        });
    }
    out
}

// ---- entry point ----------------------------------------------------------

/// Run all four CFG rules over the analyzed workspace.
pub(crate) fn check(analyses: &[Analysis], out: &mut Vec<Finding>) {
    let decls = collect_lock_decls(analyses);
    check_lock_order(analyses, &decls, out);
    for a in analyses {
        if !a.class.library {
            continue;
        }
        for f in &a.fns {
            if f.body.is_none() || a.in_test(f.line) {
                continue;
            }
            let acqs = acquisitions(a, f, &decls);
            check_guard_across_io(a, f, &acqs, out);
            check_panic_while_locked(a, &acqs, out);
            check_disk_taint(a, f, out);
        }
    }
}

// ---- rule: lock-order -----------------------------------------------------

/// Files that contribute acquisition sites and call edges: everything
/// but xtask (whose fixtures mention every pattern) and the dependency
/// shims.
fn lock_graph_file(rel: &str) -> bool {
    !rel.starts_with("crates/xtask/") && !rel.starts_with("shims/")
}

/// A directed acquisition edge with its first witness site.
#[derive(Debug, Clone)]
struct EdgeSite {
    /// Index into `analyses` of the witnessing file.
    a_idx: usize,
    line: usize,
    /// How the inner resource is reached ("directly" or "via `f()`").
    how: String,
    /// Outer acquisition site, for the evidence trail.
    held_line: usize,
}

fn check_lock_order(analyses: &[Analysis], decls: &LockDecls, out: &mut Vec<Finding>) {
    // Per-function facts over the graph scope, keyed by qualified name
    // (`Owner::name` / `name`): call edges only exist where the callee
    // can be resolved without bare-name aliasing (see
    // [`call_descriptor`]).
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    // (analysis index, fn, acquisitions) for the edge scan.
    let mut sites: Vec<(usize, &FnDef, Vec<Acq>)> = Vec::new();
    for (a_idx, a) in analyses.iter().enumerate() {
        if !lock_graph_file(&a.rel) {
            continue;
        }
        for f in &a.fns {
            if f.body.is_none() || a.in_test(f.line) {
                continue;
            }
            let (b0, b1) = f.body.unwrap_or((0, 0));
            let acqs = acquisitions(a, f, decls);
            direct
                .entry(f.qualified())
                .or_default()
                .extend(acqs.iter().map(|q| q.resource.clone()));
            let callset: BTreeSet<String> = (b0..b1.min(a.toks.len()))
                .filter_map(|k| call_descriptor(&a.toks, k, f.owner.as_deref()))
                .collect();
            calls.entry(f.qualified()).or_default().extend(callset);
            sites.push((a_idx, f, acqs));
        }
    }

    // Transitive acquisitions: what does calling `f` eventually take?
    let mut trans = direct.clone();
    loop {
        let mut grown: Vec<(String, Vec<String>)> = Vec::new();
        for (f, cs) in &calls {
            let have = trans.get(f).cloned().unwrap_or_default();
            let mut add = Vec::new();
            for c in cs {
                if let Some(rs) = trans.get(c) {
                    add.extend(rs.iter().filter(|r| !have.contains(*r)).cloned());
                }
            }
            if !add.is_empty() {
                grown.push((f.clone(), add));
            }
        }
        if grown.is_empty() {
            break;
        }
        for (f, add) in grown {
            trans.entry(f).or_default().extend(add);
        }
    }

    // Edge scan: what is acquired while each acquisition is held?
    let mut edges: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();
    for (a_idx, f, acqs) in &sites {
        let a = &analyses[*a_idx];
        let t = &a.toks;
        let (b0, b1) = f.body.unwrap_or((0, 0));
        for held in acqs {
            // Direct nesting, including the self-deadlock case.
            for inner in acqs {
                if inner.tok != held.tok
                    && held.region.contains(inner.tok)
                    && !held.in_args(inner.tok)
                {
                    if inner.resource == held.resource {
                        a.push_ev(
                            out,
                            inner.line,
                            "lock-order",
                            format!(
                                "`{}` re-acquires `{}` while already holding it (line {}); self-deadlock (Mutex) or borrow panic (RefCell)",
                                f.qualified(),
                                held.resource,
                                held.line
                            ),
                            vec![format!(
                                "{} of `{}` acquired at {}:{} is still live here",
                                held.what, held.resource, a.rel, held.line
                            )],
                        );
                    } else {
                        edges
                            .entry((held.resource.clone(), inner.resource.clone()))
                            .or_insert_with(|| EdgeSite {
                                a_idx: *a_idx,
                                line: inner.line,
                                how: "acquired directly".into(),
                                held_line: held.line,
                            });
                    }
                }
            }
            // Nesting through calls: any callee in the region whose
            // transitive closure acquires something.
            for k in held.region.lo.max(b0)..held.region.hi.min(b1) {
                if k == held.tok || held.in_args(k) {
                    continue;
                }
                let Some(desc) = call_descriptor(t, k, f.owner.as_deref()) else {
                    continue;
                };
                let Some(rs) = trans.get(&desc) else {
                    continue;
                };
                for r in rs {
                    if *r == held.resource {
                        continue; // re-entrancy through calls: too alias-prone
                    }
                    edges
                        .entry((held.resource.clone(), r.clone()))
                        .or_insert_with(|| EdgeSite {
                            a_idx: *a_idx,
                            line: t[k].line,
                            how: format!("via `{}()`", t[k].text),
                            held_line: held.line,
                        });
                }
            }
        }
    }

    // Cycles: DFS with an explicit stack over the tiny graph.
    for cycle in find_cycles(&edges) {
        let site = &edges[&(cycle[0].clone(), cycle[1 % cycle.len()].clone())];
        let a = &analyses[site.a_idx];
        let mut evidence = Vec::new();
        for w in 0..cycle.len() {
            let from = &cycle[w];
            let to = &cycle[(w + 1) % cycle.len()];
            if let Some(s) = edges.get(&(from.clone(), to.clone())) {
                evidence.push(format!(
                    "`{to}` acquired while `{from}` held ({}) at {}:{}",
                    s.how, analyses[s.a_idx].rel, s.line
                ));
            }
        }
        let mut path = cycle.clone();
        path.push(cycle[0].clone());
        a.push_ev(
            out,
            site.line,
            "lock-order",
            format!("lock acquisition cycle: {}", path.join(" -> ")),
            evidence,
        );
    }

    // Canonical ordering between known resources.
    let rank = |r: &str| CANONICAL_LOCK_ORDER.iter().position(|c| *c == r);
    for ((from, to), site) in &edges {
        if let (Some(rf), Some(rt)) = (rank(from), rank(to)) {
            if rf > rt {
                let a = &analyses[site.a_idx];
                a.push_ev(
                    out,
                    site.line,
                    "lock-order",
                    format!(
                        "`{to}` acquired while `{from}` is held, but the canonical lock order puts `{to}` outside `{from}` (DESIGN.md section 13)"
                    ),
                    vec![
                        format!(
                            "`{from}` ({}) held since {}:{}; `{to}` {} here",
                            rf, a.rel, site.held_line, site.how
                        ),
                        format!("canonical order: {}", CANONICAL_LOCK_ORDER.join(" -> ")),
                    ],
                );
            }
        }
    }
}

/// The call descriptor at token `k` (an ident followed by `(`), under
/// resolution rules the lock graph can trust: `Q::f(..)` resolves to
/// exactly the workspace `impl Q` method `f`, `self.m(..)` to the
/// enclosing impl's `m`, and a bare `f(..)` to the free function `f`.
/// Method calls on any other receiver resolve to nothing — bare-name
/// matching would alias std methods (`RefCell::replace`,
/// `Option::take`, ...) onto same-named workspace functions and
/// conjure phantom acquisition edges. Acquisitions of locks *inside*
/// such methods are still seen directly when the method itself is
/// scanned; only the caller->callee nesting edge is dropped.
pub(crate) fn call_descriptor(t: &[Tok], k: usize, owner: Option<&str>) -> Option<String> {
    if t[k].kind != TokKind::Ident
        || !t.get(k + 1).is_some_and(|n| n.is_punct("("))
        || CALL_KEYWORDS.contains(&t[k].text.as_str())
        || ACQUIRE_METHODS.contains(&t[k].text.as_str())
        || (k > 0 && t[k - 1].is_ident("fn"))
    {
        return None;
    }
    if k >= 2 && t[k - 1].is_punct("::") && t[k - 2].kind == TokKind::Ident {
        return Some(format!("{}::{}", t[k - 2].text, t[k].text));
    }
    if k >= 1 && t[k - 1].is_punct(".") {
        let chain = left_chain(t, k - 1)?;
        return match (chain.as_slice(), owner) {
            ([s], Some(o)) if s == "self" => Some(format!("{o}::{}", t[k].text)),
            _ => None,
        };
    }
    Some(t[k].text.clone())
}

/// All elementary cycles found by DFS, canonicalized (rotated so the
/// smallest resource leads) and deduplicated.
fn find_cycles(edges: &BTreeMap<(String, String), EdgeSite>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut found: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in adj.keys() {
        // DFS stack of (node, next-successor-index) with the current path.
        let mut path: Vec<&str> = vec![start];
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)]; // (path idx, succ idx)
        while let Some((pi, si)) = stack.pop() {
            let node = path[pi];
            let succs = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if si >= succs.len() {
                path.truncate(pi);
                continue;
            }
            stack.push((pi, si + 1));
            let next = succs[si];
            if let Some(at) = path.iter().position(|n| *n == next) {
                let mut cycle: Vec<String> = path[at..].iter().map(|s| s.to_string()).collect();
                let min = (0..cycle.len()).min_by_key(|&i| &cycle[i]).unwrap_or(0);
                cycle.rotate_left(min);
                found.insert(cycle);
                continue;
            }
            if path.len() < 12 {
                path.truncate(pi + 1);
                path.push(next);
                stack.push((path.len() - 1, 0));
            }
        }
    }
    found.into_iter().collect()
}

// ---- rule: guard-across-io ------------------------------------------------

fn io_call_names() -> BTreeSet<&'static str> {
    let mut names: BTreeSet<&'static str> = IO_WRAPPERS
        .iter()
        .flat_map(|(_, ws)| ws.iter().copied())
        .collect();
    names.extend(IO_ENTRIES.iter().map(|(_, e, _)| *e));
    names
}

fn check_guard_across_io(a: &Analysis, f: &FnDef, acqs: &[Acq], out: &mut Vec<Finding>) {
    // The sanctioned wrappers themselves pin frames across raw I/O by
    // design; everything they do is already cost-counted.
    let io_names = io_call_names();
    if a.rel.starts_with("crates/bufpool/") && io_names.contains(f.name.as_str()) {
        return;
    }
    let t = &a.toks;
    for acq in acqs {
        for k in acq.region.lo..acq.region.hi.min(t.len()) {
            if k == acq.tok || acq.in_args(k) {
                continue;
            }
            let held = || {
                vec![format!(
                    "{} of `{}` acquired at {}:{} is still live here",
                    acq.what, acq.resource, a.rel, acq.line
                )]
            };
            if t[k].kind == TokKind::Ident
                && io_names.contains(t[k].text.as_str())
                && t.get(k + 1).is_some_and(|n| n.is_punct("("))
                && k > 0
                && !t[k - 1].is_ident("fn")
            {
                a.push_ev(
                    out,
                    t[k].line,
                    "guard-across-io",
                    format!(
                        "{} of `{}` (line {}) held across cost-counted I/O call `{}`; drop it before the I/O",
                        acq.what, acq.resource, acq.line, t[k].text
                    ),
                    held(),
                );
            }
            if t[k].is_ident("std")
                && t.get(k + 1).is_some_and(|n| n.is_punct("::"))
                && t.get(k + 2)
                    .is_some_and(|n| n.is_ident("io") || n.is_ident("fs"))
            {
                a.push_ev(
                    out,
                    t[k].line,
                    "guard-across-io",
                    format!(
                        "{} of `{}` (line {}) held across a `std::{}` operation",
                        acq.what,
                        acq.resource,
                        acq.line,
                        t[k + 2].text
                    ),
                    held(),
                );
            }
        }
    }
}

// ---- rule: panic-while-locked ---------------------------------------------

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn check_panic_while_locked(a: &Analysis, acqs: &[Acq], out: &mut Vec<Finding>) {
    let t = &a.toks;
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new(); // (acq tok, site)
    for acq in acqs {
        let mut hit = |k: usize, desc: String, out: &mut Vec<Finding>| {
            if reported.insert((acq.tok, k)) {
                a.push_ev(
                    out,
                    t[k].line,
                    "panic-while-locked",
                    format!(
                        "{desc} while {} of `{}` (line {}) is held; a panic here poisons it",
                        acq.what, acq.resource, acq.line
                    ),
                    vec![format!(
                        "{} of `{}` acquired at {}:{} is still live here",
                        acq.what, acq.resource, a.rel, acq.line
                    )],
                );
            }
        };
        for k in acq.region.lo..acq.region.hi.min(t.len()) {
            if acq.in_args(k) {
                continue;
            }
            if t[k].is_punct(".")
                && t.get(k + 1)
                    .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
                && t.get(k + 2).is_some_and(|n| n.is_punct("("))
            {
                hit(k, format!("`.{}()`", t[k + 1].text), out);
            }
            if t[k].kind == TokKind::Ident
                && PANIC_MACROS.contains(&t[k].text.as_str())
                && t.get(k + 1).is_some_and(|n| n.is_punct("!"))
            {
                hit(k, format!("`{}!`", t[k].text), out);
            }
            if panic_index_at(t, k) {
                hit(k, "indexing/slicing".to_string(), out);
            }
            if panic_div_at(t, k) {
                hit(k, format!("`{}` by a non-constant", t[k].text), out);
            }
        }
    }
}

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
    let io_names = io_call_names();
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
            && io_names.contains(t[k].text.as_str())
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

    // ---- lock-order ---------------------------------------------------

    #[test]
    fn opposite_acquisition_orders_form_a_cycle() {
        let files = [(
            "crates/core/src/locks.rs",
            "fn ab(x: &S, y: &S) { let g = x.alpha.lock(); let h = y.beta.lock(); use2(g, h); }\n\
             fn ba(x: &S, y: &S) { let g = y.beta.lock(); let h = x.alpha.lock(); use2(g, h); }\n",
        )];
        let found = findings_for(&files, "lock-order");
        let cycles: Vec<_> = found
            .iter()
            .filter(|f| f.message.contains("cycle"))
            .collect();
        assert_eq!(cycles.len(), 1, "{found:?}");
        assert!(cycles[0].message.contains("core::alpha"));
        assert!(cycles[0].message.contains("core::beta"));
        assert!(
            !cycles[0].evidence.is_empty(),
            "cycle findings carry the acquisition chain: {cycles:?}"
        );
    }

    #[test]
    fn mutation_drill_consistent_order_is_quiet() {
        let files = [(
            "crates/core/src/locks.rs",
            "fn ab(x: &S, y: &S) { let g = x.alpha.lock(); let h = y.beta.lock(); use2(g, h); }\n\
             fn ab2(x: &S, y: &S) { let g = x.alpha.lock(); let h = y.beta.lock(); use2(g, h); }\n",
        )];
        assert_eq!(findings_for(&files, "lock-order"), Vec::<Finding>::new());
    }

    #[test]
    fn reacquiring_a_held_lock_is_a_self_deadlock() {
        let files = [(
            "crates/core/src/locks.rs",
            "fn f(x: &S) { let g = x.alpha.lock(); let h = x.alpha.lock(); use2(g, h); }\n",
        )];
        let found = findings_for(&files, "lock-order");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("re-acquires"));
    }

    #[test]
    fn nesting_through_a_call_is_an_edge() {
        // inner() takes beta; outer holds alpha across a call to it, and
        // another fn nests them the other way: cycle through the graph.
        let files = [(
            "crates/core/src/locks.rs",
            "fn inner(y: &S) { let h = y.beta.lock(); h.touch(); }\n\
             fn outer(x: &S, y: &S) { let g = x.alpha.lock(); inner(y); g.touch(); }\n\
             fn other(x: &S, y: &S) { let g = y.beta.lock(); let h = x.alpha.lock(); use2(g, h); }\n",
        )];
        let found = findings_for(&files, "lock-order");
        let cycles: Vec<_> = found
            .iter()
            .filter(|f| f.message.contains("cycle"))
            .collect();
        assert_eq!(cycles.len(), 1, "{found:?}");
        assert!(
            cycles[0]
                .evidence
                .iter()
                .any(|e| e.contains("via `inner()`")),
            "{cycles:?}"
        );
    }

    #[test]
    fn canonical_order_violation_is_reported_and_fix_is_quiet() {
        // A page pin taken first, the DB lock second: inner-before-outer.
        let decl = "pub struct SharedDb { inner: Mutex<Db> }\n";
        let bad = [(
            "crates/core/src/shared.rs",
            format!(
                "{decl}impl SharedDb {{ fn f(&self, pool: &mut Pool, p: PageId) {{ \
                 let g = pool.guard(p); let h = self.inner.lock(); h.touch(g); }} }}\n"
            ),
        )];
        let bad: Vec<(&str, &str)> = bad.iter().map(|(r, c)| (*r, c.as_str())).collect();
        let found = findings_for(&bad, "lock-order");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("canonical lock order"));
        assert!(found[0]
            .evidence
            .iter()
            .any(|e| e.contains("canonical order:")));

        // Mutation drill: outer-then-inner follows the table.
        let good = [(
            "crates/core/src/shared.rs",
            format!(
                "{decl}impl SharedDb {{ fn f(&self, pool: &mut Pool, p: PageId) {{ \
                 let h = self.inner.lock(); let g = pool.guard(p); h.touch(g); }} }}\n"
            ),
        )];
        let good: Vec<(&str, &str)> = good.iter().map(|(r, c)| (*r, c.as_str())).collect();
        assert_eq!(findings_for(&good, "lock-order"), Vec::<Finding>::new());
    }

    #[test]
    fn declaration_names_beat_receiver_spelling() {
        // `db.inner.lock()` from outside the impl still names the
        // resource `SharedDb.inner` because the declaration says so.
        let files = [(
            "crates/core/src/shared.rs",
            "pub struct SharedDb { inner: Mutex<Db> }\n\
             fn f(db: &SharedDb, pool: &mut Pool, p: PageId) { \
             let g = pool.guard(p); let h = db.inner.lock(); h.touch(g); }\n",
        )];
        let found = findings_for(&files, "lock-order");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("SharedDb.inner"), "{found:?}");
    }

    #[test]
    fn arc_wrapped_rwlock_still_declares_the_shared_db_lock() {
        // The two-tier handle is `inner: Arc<RwLock<Db>>`; the `Arc`
        // wrapper must not hide the declaration, and `.write()` on it
        // must name `SharedDb.inner` — here acquired *under* a page
        // pin, which the canonical table forbids.
        let decl = "pub struct SharedDb { inner: Arc<RwLock<Db>> }\n";
        let bad = format!(
            "{decl}fn f(db: &SharedDb, pool: &mut Pool, p: PageId) {{ \
             let g = pool.guard(p); let h = db.inner.write(); h.touch(g); }}\n"
        );
        let found = findings_for(
            &[("crates/core/src/shared_fix.rs", bad.as_str())],
            "lock-order",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("SharedDb.inner"), "{found:?}");
        assert!(found[0].message.contains("canonical lock order"));

        // Mutation drill: DB lock first, pin second is the sanctioned
        // order and must be quiet.
        let good = format!(
            "{decl}fn f(db: &SharedDb, pool: &mut Pool, p: PageId) {{ \
             let h = db.inner.write(); let g = pool.guard(p); h.touch(g); }}\n"
        );
        assert_eq!(
            findings_for(
                &[("crates/core/src/shared_fix.rs", good.as_str())],
                "lock-order"
            ),
            Vec::<Finding>::new()
        );
    }

    #[test]
    fn frame_latch_above_pool_ctl_violates_canonical_order() {
        // The pool's discipline is ctl -> frame latch: taking the
        // control mutex while a frame's byte latch is held inverts the
        // table (and deadlocks against a concurrent flush_all()). The
        // latch is reached through an index, as in the real pool.
        let decl = "struct Frame { bytes: RwLock<PageBox> }\n\
                    pub struct BufferPool { ctl: Mutex<PoolInner>, frames: Vec<Frame> }\n";
        let bad = format!(
            "{decl}impl BufferPool {{ fn bad(&self, i: usize) {{ \
             let g = self.frames[i].bytes.write(); let h = self.ctl.lock(); use2(g, h); }} }}\n"
        );
        let found = findings_for(
            &[("crates/bufpool/src/pool_fix.rs", bad.as_str())],
            "lock-order",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("Frame.bytes"), "{found:?}");
        assert!(found[0].message.contains("BufferPool.ctl"), "{found:?}");
        assert!(found[0].message.contains("canonical lock order"));

        // Mutation drill: ctl first, frame latch second is the real
        // pool's order and must be quiet.
        let good = format!(
            "{decl}impl BufferPool {{ fn good(&self, i: usize) {{ \
             let h = self.ctl.lock(); let g = self.frames[i].bytes.write(); use2(g, h); }} }}\n"
        );
        assert_eq!(
            findings_for(
                &[("crates/bufpool/src/pool_fix.rs", good.as_str())],
                "lock-order"
            ),
            Vec::<Finding>::new()
        );
    }

    /// The table is only as good as its names: `rank()` ignores a
    /// resource the table does not list, and a listed name that nothing
    /// declares ranks nothing. Over the real workspace: every level is
    /// a declared lock, every lock field and every lock static of the
    /// library crates has a level, and DESIGN.md section 13 shows the
    /// same table.
    #[test]
    fn canonical_table_matches_the_workspace_and_the_design_doc() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let analyses: Vec<Analysis> = crate::loblint::workspace_sources(&root)
            .expect("workspace must be scannable")
            .iter()
            .filter(|(rel, _)| lock_graph_file(rel))
            .map(|(rel, content)| Analysis::new(rel, content))
            .collect();
        let fields = |d: &LockDecls| -> BTreeSet<String> {
            d.mutex_fields
                .iter()
                .chain(&d.rwlock_fields)
                .map(|(field, owner)| format!("{owner}.{field}"))
                .collect()
        };

        let all = collect_lock_decls(&analyses);
        let mut declared = fields(&all);
        declared.extend(all.statics.values().cloned());
        for level in CANONICAL_LOCK_ORDER.iter().filter(|l| **l != PAGE_PIN) {
            assert!(
                declared.contains(*level),
                "`{level}` has a level but no Mutex/RwLock field or static declares it"
            );
        }

        let library = collect_lock_decls(analyses.iter().filter(|a| a.class.library));
        let mut library_locks = fields(&library);
        library_locks.extend(library.statics.values().cloned());
        for lock in library_locks {
            assert!(
                CANONICAL_LOCK_ORDER.contains(&lock.as_str()),
                "`{lock}` is a lock of a library crate with no level in the table"
            );
        }

        let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
        let section = design
            .split("\n## ")
            .find(|s| s.starts_with("13. "))
            .expect("DESIGN.md has a section 13");
        // "| 5 | `Frame.bytes` | ..." splits to ["", "5", "`Frame.bytes`", ..].
        let listed: Vec<&str> = section
            .lines()
            .filter_map(|l| {
                let mut cols = l.split('|').map(str::trim).skip(1);
                let (order, name) = (cols.next()?, cols.next()?);
                order
                    .starts_with(|c: char| c.is_ascii_digit())
                    .then(|| name.trim_matches('`'))
            })
            .collect();
        assert_eq!(listed, CANONICAL_LOCK_ORDER, "DESIGN.md section 13 table");
    }

    // ---- guard-across-io ----------------------------------------------

    #[test]
    fn frame_latch_held_across_io_wrapper_is_flagged() {
        // A frame latch live across a cost-counted wrapper call keeps
        // every reader of that page waiting behind simulated I/O.
        let decl = "struct Frame { bytes: RwLock<PageBox> }\n";
        let bad = format!(
            "{decl}impl Pool {{ fn refill(&self, slot: &Frame, p: PageId) {{ \
             let g = slot.bytes.write(); self.read_pages(p); g.touch(); }} }}\n"
        );
        let found = findings_for(
            &[("crates/bufpool/src/pool_fix.rs", bad.as_str())],
            "guard-across-io",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("Frame.bytes"), "{found:?}");
        assert!(found[0].message.contains("read_pages"));

        // Mutation drill: dropping the latch before the I/O is quiet.
        let dropped = format!(
            "{decl}impl Pool {{ fn refill(&self, slot: &Frame, p: PageId) {{ \
             let g = slot.bytes.write(); g.touch(); drop(g); self.read_pages(p); }} }}\n"
        );
        assert_eq!(
            findings_for(
                &[("crates/bufpool/src/pool_fix.rs", dropped.as_str())],
                "guard-across-io"
            ),
            Vec::<Finding>::new()
        );

        // Mutation drill: the sanctioned bufpool wrappers themselves
        // (here a fn *named* like one) stay exempt — they pin across
        // raw I/O by design.
        let wrapper = format!(
            "{decl}impl Pool {{ fn read_buffered(&self, slot: &Frame, p: PageId) {{ \
             let g = slot.bytes.write(); self.read_pages(p); g.touch(); }} }}\n"
        );
        assert_eq!(
            findings_for(
                &[("crates/bufpool/src/pool_fix.rs", wrapper.as_str())],
                "guard-across-io"
            ),
            Vec::<Finding>::new()
        );
    }

    #[test]
    fn guard_held_across_wrapper_call_is_flagged() {
        let files = [(
            "crates/core/src/gx.rs",
            "struct G { lk: Mutex<u32> }\n\
             impl G { fn f(&self, pool: &mut Pool, p: PageId) { \
             let g = self.lk.lock(); pool.read_pages(p); g.touch(); } }\n",
        )];
        let found = findings_for(&files, "guard-across-io");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("read_pages"));
        assert!(found[0].message.contains("G.lk"));
        assert!(!found[0].evidence.is_empty());
    }

    #[test]
    fn mutation_drill_dropping_the_guard_first_is_quiet() {
        let files = [(
            "crates/core/src/gx.rs",
            "struct G { lk: Mutex<u32> }\n\
             impl G { fn f(&self, pool: &mut Pool, p: PageId) { \
             let g = self.lk.lock(); g.touch(); drop(g); pool.read_pages(p); } }\n",
        )];
        assert_eq!(
            findings_for(&files, "guard-across-io"),
            Vec::<Finding>::new()
        );
    }

    #[test]
    fn page_pin_across_std_fs_is_flagged() {
        let files = [(
            "crates/core/src/gx.rs",
            "fn f(pool: &mut Pool, p: PageId, path: &Path) { \
             let g = pool.guard_mut(p); std::fs::write(path, &g[..]); }\n",
        )];
        let found = findings_for(&files, "guard-across-io");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("page pin"));
        assert!(found[0].message.contains("std::fs"));
    }

    // ---- panic-while-locked -------------------------------------------

    #[test]
    fn indexing_under_a_guard_is_flagged() {
        let files = [(
            "crates/core/src/pl.rs",
            "struct P { lk: Mutex<u32> }\n\
             impl P { fn f(&self, v: &[u8], i: usize) -> u8 {\n\
             let g = self.lk.lock();\n\
             let b = v[i];\n\
             g.set(b);\n\
             b } }\n",
        )];
        let found = findings_for(&files, "panic-while-locked");
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 4);
        assert!(found[0].message.contains("P.lk"));
    }

    #[test]
    fn mutation_drill_panic_work_before_the_lock_is_quiet() {
        let files = [(
            "crates/core/src/pl.rs",
            "struct P { lk: Mutex<u32> }\n\
             impl P { fn f(&self, v: &[u8], i: usize) -> u8 {\n\
             let b = v[i];\n\
             let g = self.lk.lock();\n\
             g.set(b);\n\
             b } }\n",
        )];
        assert_eq!(
            findings_for(&files, "panic-while-locked"),
            Vec::<Finding>::new()
        );
    }

    #[test]
    fn unwrap_and_panic_macro_under_guard_are_flagged() {
        let files = [(
            "crates/core/src/pl.rs",
            "struct P { lk: Mutex<u32> }\n\
             impl P { fn f(&self) { let g = self.lk.lock(); g.get().unwrap(); } \
             fn h(&self) { let g = self.lk.lock(); if g.bad() { panic!(\"boom\"); } } }\n",
        )];
        let found = findings_for(&files, "panic-while-locked");
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().any(|f| f.message.contains(".unwrap()")));
        assert!(found.iter().any(|f| f.message.contains("`panic!`")));
    }

    #[test]
    fn indexing_under_a_frame_latch_is_flagged() {
        // A panic under a frame's byte latch poisons that frame for
        // every page that later lands in it.
        let decl = "struct Frame { bytes: RwLock<PageBox> }\n";
        let bad = format!(
            "{decl}fn f(slot: &Frame, v: &[u8], i: usize) -> u8 {{\n\
             let g = slot.bytes.write();\n\
             let b = v[i];\n\
             g.set(b);\n\
             b }}\n"
        );
        let found = findings_for(
            &[("crates/bufpool/src/pool_fix.rs", bad.as_str())],
            "panic-while-locked",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("Frame.bytes"), "{found:?}");

        // Mutation drill: the same indexing before the latch is quiet.
        let good = format!(
            "{decl}fn f(slot: &Frame, v: &[u8], i: usize) -> u8 {{\n\
             let b = v[i];\n\
             let g = slot.bytes.write();\n\
             g.set(b);\n\
             b }}\n"
        );
        assert_eq!(
            findings_for(
                &[("crates/bufpool/src/pool_fix.rs", good.as_str())],
                "panic-while-locked"
            ),
            Vec::<Finding>::new()
        );
    }

    #[test]
    fn latch_closure_is_a_region_too() {
        // A thread-local RefCell latch: panic inside the .with closure.
        let files = [(
            "crates/obs/src/pl.rs",
            "thread_local! { static SINKX: RefCell<u32> = RefCell::new(0); }\n\
             fn f(v: &[u8], i: usize) -> u8 { SINKX.with(|s| v[i]) }\n",
        )];
        let found = findings_for(&files, "panic-while-locked");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("obs::SINKX"), "{found:?}");
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
