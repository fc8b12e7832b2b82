//! The loblint v4 crash-consistency rules, built on interprocedural
//! *effect summaries* over the [`crate::lobsyn`] token streams and the
//! [`crate::lobflow`] CFG engine.
//!
//! The summary layer ([`summarize`]) computes, for every non-test
//! workspace function, the set of storage effects it may perform —
//! raw disk sites, cost-counted wrapper reads, durable writes, buddy
//! allocate/free, shadow-session operations, meta-page writes,
//! guard acquisitions, root flips — by a
//! bottom-up fixpoint over the call graph ([`Effect`] is a small
//! finite lattice joined by set union, so the fixpoint terminates).
//! Calls resolve with the same conservative descriptor rules as the
//! lock graph ([`crate::flowrules::call_descriptor`]): `Q::f`,
//! `self.m`, and bare `f` only. Each summarized effect carries a
//! witness chain (call site -> ... -> direct site) that becomes the
//! finding's `evidence` array.
//!
//! Three rules consume the summaries, all scoped to library crates,
//! non-test code (DESIGN.md section 15):
//!
//! * `shadow-order` — inside an `OpCtx` shadow operation (§3.3
//!   discipline): old storage may only be released via
//!   `free_*_later` (materialized at `finish`), never freed
//!   immediately (directly or through a resolvable call); every
//!   `shadow_page`/`fresh_page` result must be written (mentioned)
//!   before `finish`; no in-place write to a page shadowed in the
//!   same op; and no shadow/meta/durable effect after `finish`.
//! * `alloc-balance` — every let-bound buddy allocation is freed,
//!   queued, or recorded (any later mention counts as an ownership
//!   transfer) on *every* CFG path, including `?`/`return` error
//!   edges, where a leaked extent would survive until fsck.
//! * `commit-point` — an operation that makes a freshly allocated
//!   META root/header page durable (`flush_page(PageId::new(
//!   AreaId::META, <new page>))`) has exactly one such flip per
//!   path, and no durable write may follow it: a crash between the
//!   flip and a later write would publish a half-finished operation.
//!
//! Deliberate conservatisms, shared with the other CFG rules: a
//! mention anywhere in a statement counts for the whole statement
//! (so consumption after a `?` in the same statement is treated as
//! reaching the error path too — false-negative direction), and an
//! `OpCtx` dropped un-finished on an error edge is tolerated (it is
//! crash-equivalent by construction; `tests/crash_consistency.rs`
//! covers it dynamically).

use std::collections::{BTreeMap, BTreeSet};

use crate::flowrules::call_descriptor;
use crate::lobflow::{self, Cfg, Stmt};
use crate::loblint::{left_chain, Analysis, Finding};
use crate::lobsyn::{FnDef, Tok, TokKind};

/// One storage effect a function may perform. The summary of a
/// function is a set of these, each with a witness chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Effect {
    /// Raw `disk.read`/`disk.write` site.
    RawDisk,
    /// Cost-counted read wrapper or entry (`read_buffered`, ...).
    WrapperRead,
    /// A write that reaches the disk image (`write_direct`,
    /// `flush_page`, `flush_range`, `flush_all`, `evict`, raw write).
    DurableWrite,
    /// Page pin / frame guard acquisition (`guard*`, `fix*`).
    GuardAcq,
    /// Buddy allocation (`alloc_leaf`, `alloc_meta_page`, `alloc_root`).
    BuddyAlloc,
    /// Immediate buddy release (`free_leaf`, `free_meta_page`).
    BuddyFree,
    /// `OpCtx::shadow_page` call site.
    ShadowPage,
    /// `OpCtx::fresh_page` call site.
    FreshPage,
    /// Deferred release (`free_extent_later`, `free_page_later`).
    FreeLater,
    /// Meta-page write: a `with_meta_page_mut`/`with_new_meta_page`
    /// funnel call, or a raw META guard site.
    MetaWrite,
    /// Commit point: `flush_page` of a freshly allocated META page.
    RootFlip,
}

/// Effects that describe a *local* protocol (tied to the enclosing
/// function's `OpCtx` or allocation) and therefore do not propagate
/// to callers during the fixpoint.
const LOCAL_EFFECTS: [Effect; 4] = [
    Effect::RootFlip,
    Effect::ShadowPage,
    Effect::FreshPage,
    Effect::FreeLater,
];

/// A function's effect summary: each effect it may perform, with a
/// witness chain from the function down to a direct site.
pub(crate) type Summary = BTreeMap<Effect, Vec<String>>;
/// Qualified function name (`Owner::name` or bare `name`) -> summary.
pub(crate) type Sums = BTreeMap<String, Summary>;

/// A direct effect site inside one function body: the token index of
/// the called name.
#[derive(Debug, Clone, Copy)]
struct Site {
    effect: Effect,
    tok: usize,
}

/// Files participating in the effect graph: the workspace minus the
/// analyzer itself and the vendored dependency shims (same scope as
/// the lock graph).
fn effect_graph_file(rel: &str) -> bool {
    !rel.starts_with("crates/xtask/") && !rel.starts_with("shims/")
}

// ---- token helpers --------------------------------------------------------

/// Index of the bracket closing the group opened at `open`.
fn group_end(t: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < t.len() {
        match t[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    t.len()
}

/// Does the bracket group opened at `open` contain ident `name`?
fn group_has(t: &[Tok], open: usize, name: &str) -> bool {
    let close = group_end(t, open);
    (open + 1..close).any(|i| t[i].is_ident(name))
}

/// The `n`-th (0-based) comma-separated argument of the group opened
/// at `open`, as the concatenation of its token texts (`self.root`,
/// `step.page`); used to compare page expressions by spelling.
fn nth_arg(t: &[Tok], open: usize, n: usize) -> Option<String> {
    let close = group_end(t, open);
    let mut depth = 0i64;
    let mut idx = 0usize;
    let mut cur = String::new();
    for tok in t.iter().take(close).skip(open + 1) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                if idx == n {
                    return Some(cur);
                }
                idx += 1;
                cur.clear();
                continue;
            }
            _ => {}
        }
        cur.push_str(&tok.text);
    }
    (idx == n && !cur.is_empty()).then_some(cur)
}

/// Every identifier mentioned in `[lo, hi)`.
fn mentions(t: &[Tok], lo: usize, hi: usize) -> BTreeSet<String> {
    (lo..hi.min(t.len()))
        .filter(|&i| t[i].kind == TokKind::Ident)
        .map(|i| t[i].text.clone())
        .collect()
}

/// First early-exit token (`?` or `return`) in `[lo, hi)`, if any.
fn escape_at(t: &[Tok], lo: usize, hi: usize) -> Option<usize> {
    (lo..hi.min(t.len())).find(|&i| t[i].is_punct("?") || t[i].is_ident("return"))
}

/// The page variable of a commit-point-shaped `flush_page` call at
/// `k`: `flush_page ( PageId :: new ( AreaId :: META , v ) )`.
fn flip_arg(t: &[Tok], k: usize) -> Option<String> {
    let p = |i: usize, s: &str| t.get(k + i).is_some_and(|x| x.text == s);
    (p(1, "(")
        && p(2, "PageId")
        && p(3, "::")
        && p(4, "new")
        && p(5, "(")
        && p(6, "AreaId")
        && p(7, "::")
        && p(8, "META")
        && p(9, ",")
        && t.get(k + 10).is_some_and(|x| x.kind == TokKind::Ident)
        && p(11, ")"))
    .then(|| t[k + 10].text.clone())
}

// ---- direct effect sites --------------------------------------------------

/// All direct effect sites in one function body `[b0, b1)`.
fn scan_sites(t: &[Tok], b0: usize, b1: usize) -> Vec<Site> {
    // Names let-bound from `alloc_meta_page()`/`alloc_root()`: the
    // commit-point candidates. Loop variables and parameters (the
    // `OpCtx::finish` flush loop, `Catalog::flush`) are deliberately not
    // candidates.
    let mut meta_vars: BTreeSet<String> = BTreeSet::new();
    for k in b0..b1.min(t.len()) {
        if (t[k].is_ident("alloc_meta_page") || t[k].is_ident("alloc_root"))
            && t.get(k + 1).is_some_and(|n| n.is_punct("("))
        {
            if let Some(v) = lobflow::live_region(t, b0, b1, k).var {
                meta_vars.insert(v);
            }
        }
    }
    let mut out = Vec::new();
    for k in b0..b1.min(t.len()) {
        if t[k].kind != TokKind::Ident
            || !t.get(k + 1).is_some_and(|n| n.is_punct("("))
            || (k > 0 && t[k - 1].is_ident("fn"))
        {
            continue;
        }
        let recv: Vec<String> = if k >= 1 && t[k - 1].is_punct(".") {
            left_chain(t, k - 1).unwrap_or_default()
        } else {
            Vec::new()
        };
        let mut eff = |e: Effect| out.push(Site { effect: e, tok: k });
        match t[k].text.as_str() {
            "alloc_leaf" | "alloc_meta_page" | "alloc_root" => eff(Effect::BuddyAlloc),
            "free_leaf" | "free_meta_page" => eff(Effect::BuddyFree),
            "shadow_page" => eff(Effect::ShadowPage),
            "fresh_page" => eff(Effect::FreshPage),
            "free_extent_later" | "free_page_later" => eff(Effect::FreeLater),
            "with_meta_page_mut" | "with_new_meta_page" => eff(Effect::MetaWrite),
            name @ ("guard" | "guard_mut" | "guard_new" | "fix" | "fix_new") => {
                eff(Effect::GuardAcq);
                if name == "fix" {
                    eff(Effect::WrapperRead);
                }
                if matches!(name, "guard_mut" | "guard_new" | "fix_new")
                    && group_has(t, k + 1, "META")
                {
                    eff(Effect::MetaWrite);
                }
            }
            "read_buffered" | "read_clipped" | "read_direct" | "read_pages" | "read_segment" => {
                eff(Effect::WrapperRead)
            }
            "evict" | "flush_all" | "flush_range" | "write_direct" => eff(Effect::DurableWrite),
            "flush_page" => {
                eff(Effect::DurableWrite);
                if flip_arg(t, k).is_some_and(|v| meta_vars.contains(&v)) {
                    eff(Effect::RootFlip);
                }
            }
            name @ ("read" | "write") if recv.iter().any(|r| r == "disk") => {
                eff(Effect::RawDisk);
                if name != "read" {
                    eff(Effect::DurableWrite);
                }
            }
            _ => {}
        }
    }
    out
}

// ---- the summary fixpoint -------------------------------------------------

/// Bottom-up effect summaries for every non-test workspace function.
/// Direct sites seed the map; the fixpoint unions resolvable callees'
/// effects into callers, prefixing the call site onto the witness
/// chain (capped at four hops). [`LOCAL_EFFECTS`] stay local: a
/// caller of `create()` does not itself flip a root.
pub(crate) fn summarize(analyses: &[Analysis]) -> Sums {
    let mut sums: Sums = BTreeMap::new();
    let mut edges: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for a in analyses {
        if !effect_graph_file(&a.rel) {
            continue;
        }
        for f in &a.fns {
            let Some((b0, b1)) = f.body else { continue };
            if a.in_test(f.line) {
                continue;
            }
            let q = f.qualified();
            let entry = sums.entry(q.clone()).or_default();
            for site in scan_sites(&a.toks, b0, b1) {
                entry.entry(site.effect).or_insert_with(|| {
                    vec![format!(
                        "{}:{} `{}(..)`",
                        a.rel, a.toks[site.tok].line, a.toks[site.tok].text
                    )]
                });
            }
            let e = edges.entry(q).or_default();
            for k in b0..b1.min(a.toks.len()) {
                if let Some(d) = call_descriptor(&a.toks, k, f.owner.as_deref()) {
                    e.entry(d)
                        .or_insert_with(|| format!("{}:{}", a.rel, a.toks[k].line));
                }
            }
        }
    }
    // Effects form a finite set, so each round can only add; bound the
    // rounds as a backstop anyway.
    for _ in 0..64 {
        let mut changed = false;
        let snapshot = sums.clone();
        for (caller, calls) in &edges {
            for (callee, site) in calls {
                let Some(cs) = snapshot.get(callee) else {
                    continue;
                };
                for (effect, chain) in cs {
                    if LOCAL_EFFECTS.contains(effect) {
                        continue;
                    }
                    let entry = sums.entry(caller.clone()).or_default();
                    if !entry.contains_key(effect) {
                        let mut ev = vec![format!("{site}: call `{callee}`")];
                        ev.extend(chain.iter().take(3).cloned());
                        entry.insert(*effect, ev);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    sums
}

// ---- per-function context -------------------------------------------------

/// Everything the three rules need about one function under analysis.
struct FnCx<'a> {
    a: &'a Analysis,
    f: &'a FnDef,
    b0: usize,
    b1: usize,
    cfg: Cfg,
    sites: Vec<Site>,
}

impl FnCx<'_> {
    fn t(&self) -> &[Tok] {
        &self.a.toks
    }

    fn sites_in(&self, lo: usize, hi: usize) -> impl Iterator<Item = &Site> + '_ {
        self.sites.iter().filter(move |s| lo <= s.tok && s.tok < hi)
    }

    /// Resolvable calls in `[lo, hi)` whose summary is known.
    fn callee_effects<'s>(
        &self,
        lo: usize,
        hi: usize,
        sums: &'s Sums,
    ) -> Vec<(String, usize, &'s Summary)> {
        let t = self.t();
        let mut out = Vec::new();
        for k in lo..hi.min(t.len()) {
            if let Some(d) = call_descriptor(t, k, self.f.owner.as_deref()) {
                if let Some(s) = sums.get(&d) {
                    out.push((d, k, s));
                }
            }
        }
        out
    }
}

/// The shadow-session handle of a function: an `OpCtx`-typed
/// parameter (live at entry), or a `let [mut] name = OpCtx::new()`
/// binding (live from its statement on).
struct CtxInfo {
    name: String,
    /// Token index of the `OpCtx::new` site; `None` for a parameter.
    new_tok: Option<usize>,
}

fn ctx_info(t: &[Tok], f: &FnDef, b0: usize, b1: usize) -> Option<CtxInfo> {
    for j in f.fn_tok..b0.min(t.len()) {
        if t[j].is_ident("OpCtx") {
            let mut p = j;
            while p > f.fn_tok
                && (t[p - 1].is_punct("&")
                    || t[p - 1].is_ident("mut")
                    || t[p - 1].kind == TokKind::Lifetime)
            {
                p -= 1;
            }
            if p >= 2 && t[p - 1].is_punct(":") && t[p - 2].kind == TokKind::Ident {
                return Some(CtxInfo {
                    name: t[p - 2].text.clone(),
                    new_tok: None,
                });
            }
        }
    }
    for k in b0..b1.min(t.len()).saturating_sub(2) {
        if t[k].is_ident("OpCtx") && t[k + 1].is_punct("::") && t[k + 2].is_ident("new") {
            if let Some(var) = lobflow::live_region(t, b0, b1, k).var {
                return Some(CtxInfo {
                    name: var,
                    new_tok: Some(k),
                });
            }
        }
    }
    None
}

/// Token index of a `<ctx> . finish (` call in `[lo, hi)`, if any.
/// Receiver-checked so `obs.finish(..)` / `w.finish()` don't match.
fn finish_at(t: &[Tok], lo: usize, hi: usize, ctx: &str) -> Option<usize> {
    (lo..hi.min(t.len())).find(|&k| {
        t[k].is_ident("finish")
            && t.get(k + 1).is_some_and(|n| n.is_punct("("))
            && k >= 2
            && t[k - 1].is_punct(".")
            && t[k - 2].is_ident(ctx)
    })
}

// ---- the rules ------------------------------------------------------------

/// Entry point, called from `lint_sources` after the v3 rules.
pub(crate) fn check(analyses: &[Analysis], out: &mut Vec<Finding>) {
    let sums = summarize(analyses);
    for a in analyses {
        if !a.class.library {
            continue;
        }
        for f in &a.fns {
            let Some((b0, b1)) = f.body else { continue };
            if a.in_test(f.line) {
                continue;
            }
            let cx = FnCx {
                a,
                f,
                b0,
                b1,
                cfg: lobflow::build_cfg(&a.toks, b0, b1),
                sites: scan_sites(&a.toks, b0, b1),
            };
            check_shadow_order(&cx, &sums, out);
            check_alloc_balance(&cx, out);
            check_commit_point(&cx, &sums, out);
        }
    }
}

/// Shadow-session state for `shadow-order`, joined pessimistically
/// (may-live, may-finished, union of shadowed pages and unwritten
/// shadow/fresh bindings).
#[derive(Clone, PartialEq, Default)]
struct ShadState {
    live: bool,
    finished: bool,
    /// Spellings of pages passed to `shadow_page` (the *old* copies).
    shadowed: BTreeSet<String>,
    /// Shadow/fresh bindings not yet written: name -> site token.
    pending: BTreeMap<String, usize>,
}

fn check_shadow_order(cx: &FnCx, sums: &Sums, out: &mut Vec<Finding>) {
    if cx.f.owner.as_deref() == Some("OpCtx") {
        return; // the session implementation itself
    }
    let Some(ctx) = ctx_info(cx.t(), cx.f, cx.b0, cx.b1) else {
        return;
    };
    let t = cx.t();
    let join = |a: &ShadState, b: &ShadState| ShadState {
        live: a.live || b.live,
        finished: a.finished || b.finished,
        shadowed: a.shadowed.union(&b.shadowed).cloned().collect(),
        pending: {
            let mut m = a.pending.clone();
            m.extend(b.pending.iter().map(|(k, v)| (k.clone(), *v)));
            m
        },
    };
    let transfer = |s: &mut ShadState, st: &Stmt| {
        let m = mentions(t, st.lo, st.hi);
        if !s.finished {
            // A mention is a write (or an ownership hand-off to a
            // helper that writes); after finish it no longer counts.
            s.pending.retain(|v, _| !m.contains(v));
        }
        for site in cx.sites_in(st.lo, st.hi) {
            match site.effect {
                Effect::ShadowPage => {
                    if let Some(old) = nth_arg(t, site.tok + 1, 1) {
                        s.shadowed.insert(old);
                    }
                    if let Some(v) = lobflow::live_region(t, cx.b0, cx.b1, site.tok).var {
                        s.pending.insert(v, site.tok);
                    }
                }
                Effect::FreshPage => {
                    if let Some(v) = lobflow::live_region(t, cx.b0, cx.b1, site.tok).var {
                        s.pending.insert(v, site.tok);
                    }
                }
                _ => {}
            }
        }
        if let Some(k) = ctx.new_tok {
            if st.lo <= k && k < st.hi {
                s.live = true;
            }
        }
        if finish_at(t, st.lo, st.hi, &ctx.name).is_some() {
            s.finished = true;
            s.live = false;
        }
    };
    let entry = ShadState {
        live: ctx.new_tok.is_none(),
        ..Default::default()
    };
    let entries = lobflow::forward(&cx.cfg, entry, join, transfer);
    lobflow::replay(&cx.cfg, &entries, transfer, |s, st| {
        if s.live {
            for site in cx.sites_in(st.lo, st.hi) {
                if site.effect == Effect::BuddyFree {
                    cx.a.push_ev(
                        out,
                        t[site.tok].line,
                        "shadow-order",
                        format!(
                            "`{}(..)` releases storage immediately while shadow op `{}` is \
                             open; queue it with `{}.free_extent_later`/`free_page_later` so \
                             it materializes at finish",
                            t[site.tok].text, ctx.name, ctx.name
                        ),
                        vec![format!("shadow session open: `{}`", ctx.name)],
                    );
                }
            }
            for (callee, k, sum) in cx.callee_effects(st.lo, st.hi, sums) {
                if let Some(chain) = sum.get(&Effect::BuddyFree) {
                    cx.a.push_ev(
                        out,
                        t[k].line,
                        "shadow-order",
                        format!(
                            "call `{callee}` releases storage immediately while shadow op \
                             `{}` is open; pass the session and defer via `free_*_later`",
                            ctx.name
                        ),
                        chain.clone(),
                    );
                }
            }
        }
        if s.finished {
            for site in cx.sites_in(st.lo, st.hi) {
                if matches!(
                    site.effect,
                    Effect::MetaWrite
                        | Effect::ShadowPage
                        | Effect::FreshPage
                        | Effect::FreeLater
                        | Effect::DurableWrite
                ) {
                    cx.a.push_ev(
                        out,
                        t[site.tok].line,
                        "shadow-order",
                        format!(
                            "`{}(..)` after `{}.finish(..)`: the operation is already \
                             committed; move the effect before finish",
                            t[site.tok].text, ctx.name
                        ),
                        vec![format!("commit: `{}.finish(..)`", ctx.name)],
                    );
                }
            }
            for (callee, k, sum) in cx.callee_effects(st.lo, st.hi, sums) {
                if let Some(chain) = sum
                    .get(&Effect::MetaWrite)
                    .or_else(|| sum.get(&Effect::DurableWrite))
                {
                    cx.a.push_ev(
                        out,
                        t[k].line,
                        "shadow-order",
                        format!(
                            "call `{callee}` writes meta/durable state after \
                             `{}.finish(..)`; the operation is already committed",
                            ctx.name
                        ),
                        chain.clone(),
                    );
                }
            }
        } else {
            for site in cx.sites_in(st.lo, st.hi) {
                if site.effect == Effect::MetaWrite
                    && matches!(
                        t[site.tok].text.as_str(),
                        "with_meta_page_mut" | "with_new_meta_page"
                    )
                {
                    if let Some(arg0) = nth_arg(t, site.tok + 1, 0) {
                        if s.shadowed.contains(&arg0) {
                            cx.a.push_ev(
                                out,
                                t[site.tok].line,
                                "shadow-order",
                                format!(
                                    "in-place write to `{arg0}`, which was shadowed earlier \
                                     in this op; write the shadow copy instead"
                                ),
                                vec![format!("`{arg0}` shadowed via `{}.shadow_page`", ctx.name)],
                            );
                        }
                    }
                }
            }
        }
    });
    if let Some(Some(end)) = entries.get(cx.cfg.exit) {
        for (v, &site) in &end.pending {
            cx.a.push_ev(
                out,
                t[site].line,
                "shadow-order",
                format!(
                    "shadow/fresh page `{v}` from `{}(..)` is never written before \
                     `{}.finish(..)`/exit on some path",
                    t[site].text, ctx.name
                ),
                vec![format!("shadow session: `{}`", ctx.name)],
            );
        }
    }
}

fn check_alloc_balance(cx: &FnCx, out: &mut Vec<Finding>) {
    let t = cx.t();
    if !cx.sites.iter().any(|s| s.effect == Effect::BuddyAlloc) {
        return;
    }
    type S = BTreeMap<String, usize>; // live allocation: name -> site token
    let join = |a: &S, b: &S| {
        let mut m = a.clone();
        m.extend(b.iter().map(|(k, v)| (k.clone(), *v)));
        m
    };
    let transfer = |s: &mut S, st: &Stmt| {
        let m = mentions(t, st.lo, st.hi);
        s.retain(|v, _| !m.contains(v));
        for site in cx.sites_in(st.lo, st.hi) {
            if site.effect == Effect::BuddyAlloc {
                if let Some(v) = lobflow::live_region(t, cx.b0, cx.b1, site.tok).var {
                    s.insert(v, site.tok);
                }
            }
        }
    };
    let entries = lobflow::forward(&cx.cfg, S::new(), join, transfer);
    let mut reported: BTreeSet<usize> = BTreeSet::new();
    lobflow::replay(&cx.cfg, &entries, transfer, |s, st| {
        let Some(esc) = escape_at(t, st.lo, st.hi) else {
            return;
        };
        let m = mentions(t, st.lo, st.hi);
        for (v, &site) in s.iter().filter(|(v, _)| !m.contains(*v)) {
            if reported.insert(site) {
                cx.a.push_ev(
                    out,
                    t[esc].line,
                    "alloc-balance",
                    format!(
                        "extent/page `{v}` from `{}(..)` leaks on this early-return path; \
                         free it, queue it with `free_*_later`, or record it before the \
                         `?`/`return`",
                        t[site].text
                    ),
                    vec![format!("allocated at {}:{}", cx.a.rel, t[site].line)],
                );
            }
        }
    });
    if let Some(Some(end)) = entries.get(cx.cfg.exit) {
        for (v, &site) in end {
            if reported.insert(site) {
                cx.a.push_ev(
                    out,
                    t[site].line,
                    "alloc-balance",
                    format!(
                        "extent/page `{v}` from `{}(..)` is never freed, queued, or \
                         recorded on some path to function exit",
                        t[site].text
                    ),
                    Vec::new(),
                );
            }
        }
    }
}

fn check_commit_point(cx: &FnCx, sums: &Sums, out: &mut Vec<Finding>) {
    let t = cx.t();
    let flips: Vec<usize> = cx
        .sites
        .iter()
        .filter(|s| s.effect == Effect::RootFlip)
        .map(|s| s.tok)
        .collect();
    if flips.is_empty() {
        return;
    }
    let flip_ev: Vec<String> = flips
        .iter()
        .map(|&k| format!("commit point: {}:{} `flush_page(..)`", cx.a.rel, t[k].line))
        .collect();
    let join = |a: &u8, b: &u8| (*a).max(*b);
    let transfer = |s: &mut u8, st: &Stmt| {
        let n = flips.iter().filter(|&&k| st.lo <= k && k < st.hi).count() as u8;
        *s = s.saturating_add(n).min(2);
    };
    let entries = lobflow::forward(&cx.cfg, 0u8, join, transfer);
    lobflow::replay(&cx.cfg, &entries, transfer, |s, st| {
        let local: Vec<usize> = flips
            .iter()
            .copied()
            .filter(|&k| st.lo <= k && k < st.hi)
            .collect();
        let seen_before = *s >= 1;
        for (i, &k) in local.iter().enumerate() {
            if seen_before || i > 0 {
                cx.a.push_ev(
                    out,
                    t[k].line,
                    "commit-point",
                    "second root/header flip on this path; an operation has exactly one \
                     commit point"
                        .to_string(),
                    flip_ev.clone(),
                );
            }
        }
        if seen_before {
            for site in cx.sites_in(st.lo, st.hi) {
                if site.effect == Effect::DurableWrite && !flips.contains(&site.tok) {
                    cx.a.push_ev(
                        out,
                        t[site.tok].line,
                        "commit-point",
                        format!(
                            "durable write `{}(..)` after the commit-point flip; a crash \
                             between them publishes a half-finished operation (§3.3)",
                            t[site.tok].text
                        ),
                        flip_ev.clone(),
                    );
                }
            }
            for (callee, k, sum) in cx.callee_effects(st.lo, st.hi, sums) {
                if let Some(chain) = sum.get(&Effect::DurableWrite) {
                    let mut ev = flip_ev.clone();
                    ev.extend(chain.iter().cloned());
                    cx.a.push_ev(
                        out,
                        t[k].line,
                        "commit-point",
                        format!(
                            "call `{callee}` performs durable writes after the commit-point \
                             flip; a crash between them publishes a half-finished operation"
                        ),
                        ev,
                    );
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use crate::loblint::{lint_sources, Finding};

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

    // ---- shadow-order -------------------------------------------------

    #[test]
    fn shadow_order_clean_op_has_no_findings() {
        let files = [(
            "crates/core/src/x.rs",
            "fn op(db: &mut Db, page: u32) -> Result<(), E> {\n\
             let mut ctx = OpCtx::new();\n\
             let target = ctx.shadow_page(db, page);\n\
             store_node(db, target, 1);\n\
             ctx.finish(db);\n\
             Ok(())\n\
             }\n",
        )];
        assert!(findings_for(&files, "shadow-order").is_empty());
    }

    #[test]
    fn shadow_order_flags_in_place_write_to_shadowed_page() {
        let files = [(
            "crates/core/src/x.rs",
            "fn op(db: &mut Db, page: u32) {\n\
             let mut ctx = OpCtx::new();\n\
             let target = ctx.shadow_page(db, page);\n\
             db.with_meta_page_mut(page, write_one);\n\
             store_node(db, target, 1);\n\
             ctx.finish(db);\n\
             }\n",
        )];
        let fs = findings_for(&files, "shadow-order");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("in-place write to `page`"), "{fs:?}");
    }

    #[test]
    fn shadow_order_flags_swapped_order_write_after_finish() {
        // Mutation drill: the same op with the meta write moved after
        // finish (the "swapped shadow order" seed).
        let good = "fn op(db: &mut Db, page: u32) {\n\
                    let mut ctx = OpCtx::new();\n\
                    let target = ctx.fresh_page(db);\n\
                    db.with_meta_page_mut(target, write_one);\n\
                    ctx.finish(db);\n\
                    }\n";
        let bad = "fn op(db: &mut Db, page: u32) {\n\
                   let mut ctx = OpCtx::new();\n\
                   let target = ctx.fresh_page(db);\n\
                   db.with_meta_page_mut(target, write_one);\n\
                   ctx.finish(db);\n\
                   db.with_meta_page_mut(page, write_one);\n\
                   }\n";
        assert!(findings_for(&[("crates/core/src/x.rs", good)], "shadow-order").is_empty());
        let fs = findings_for(&[("crates/core/src/x.rs", bad)], "shadow-order");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("after `ctx.finish(..)`"), "{fs:?}");
    }

    #[test]
    fn shadow_order_flags_immediate_free_while_open() {
        let bad = "fn op(db: &mut Db, ext: Extent) {\n\
                   let mut ctx = OpCtx::new();\n\
                   db.free_leaf(ext);\n\
                   ctx.finish(db);\n\
                   }\n";
        let good = "fn op(db: &mut Db, ext: Extent) {\n\
                    let mut ctx = OpCtx::new();\n\
                    ctx.free_extent_later(ext);\n\
                    ctx.finish(db);\n\
                    }\n";
        let fs = findings_for(&[("crates/core/src/x.rs", bad)], "shadow-order");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("releases storage immediately"));
        assert!(findings_for(&[("crates/core/src/x.rs", good)], "shadow-order").is_empty());
    }

    #[test]
    fn shadow_order_sees_free_through_a_call_with_evidence() {
        let files = [(
            "crates/core/src/x.rs",
            "fn helper(db: &mut Db, ext: Extent) {\n\
             db.free_leaf(ext);\n\
             }\n\
             fn op(db: &mut Db, ext: Extent) {\n\
             let mut ctx = OpCtx::new();\n\
             helper(db, ext);\n\
             ctx.finish(db);\n\
             }\n",
        )];
        let fs = findings_for(&files, "shadow-order");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("call `helper`"), "{fs:?}");
        assert!(
            fs[0].evidence.iter().any(|e| e.contains("free_leaf")),
            "witness chain should reach the direct site: {fs:?}"
        );
    }

    #[test]
    fn shadow_order_flags_unwritten_fresh_page() {
        let files = [(
            "crates/core/src/x.rs",
            "fn op(db: &mut Db) {\n\
             let mut ctx = OpCtx::new();\n\
             let target = ctx.fresh_page(db);\n\
             ctx.finish(db);\n\
             }\n",
        )];
        let fs = findings_for(&files, "shadow-order");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("never written before"), "{fs:?}");
    }

    // ---- alloc-balance ------------------------------------------------

    #[test]
    fn alloc_balance_flags_leak_on_question_mark_path() {
        // Mutation drill: hoisting the fallible call above the
        // allocation makes the same function clean.
        let bad = "fn op(db: &mut Db) -> Result<(), E> {\n\
                   let ext = db.alloc_leaf(n());\n\
                   risky(db)?;\n\
                   record_extent(db, ext);\n\
                   Ok(())\n\
                   }\n";
        let good = "fn op(db: &mut Db) -> Result<(), E> {\n\
                    risky(db)?;\n\
                    let ext = db.alloc_leaf(n());\n\
                    record_extent(db, ext);\n\
                    Ok(())\n\
                    }\n";
        let fs = findings_for(&[("crates/core/src/x.rs", bad)], "alloc-balance");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("leaks on this early-return path"));
        assert_eq!(fs[0].line, 3, "anchored at the `?`: {fs:?}");
        assert!(findings_for(&[("crates/core/src/x.rs", good)], "alloc-balance").is_empty());
    }

    #[test]
    fn alloc_balance_flags_branch_return_leak() {
        let files = [(
            "crates/core/src/x.rs",
            "fn op(db: &mut Db, c: bool) -> u32 {\n\
             let ext = db.alloc_leaf(n());\n\
             if c {\n\
             return fallback();\n\
             }\n\
             ext.start\n\
             }\n",
        )];
        let fs = findings_for(&files, "alloc-balance");
        assert_eq!(fs.len(), 1, "{fs:?}");
    }

    #[test]
    fn alloc_balance_flags_never_recorded_alloc() {
        let files = [(
            "crates/core/src/x.rs",
            "fn op(db: &mut Db) {\n\
             let ext = db.alloc_leaf(n());\n\
             }\n",
        )];
        let fs = findings_for(&files, "alloc-balance");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("never freed, queued, or recorded"));
    }

    #[test]
    fn alloc_balance_accepts_recorded_alloc_across_branches() {
        let files = [(
            "crates/core/src/x.rs",
            "fn op(db: &mut Db, c: bool) -> Extent {\n\
             let ext = db.alloc_leaf(n());\n\
             if c {\n\
             register(db, ext);\n\
             } else {\n\
             db.free_leaf(ext);\n\
             }\n\
             done(db);\n\
             result()\n\
             }\n",
        )];
        assert!(findings_for(&files, "alloc-balance").is_empty());
    }

    // ---- commit-point -------------------------------------------------

    #[test]
    fn commit_point_flags_double_flip() {
        // Mutation drill: the single-flip create shape is clean; the
        // doubled flush of the fresh root is the seeded violation.
        let good = "fn create(db: &mut Db) -> Result<X, E> {\n\
                    let root = db.alloc_meta_page();\n\
                    db.with_new_meta_page(root, init_page);\n\
                    db.pool.flush_page(PageId::new(AreaId::META, root));\n\
                    Ok(X { root })\n\
                    }\n";
        let bad = "fn create(db: &mut Db) -> Result<X, E> {\n\
                   let root = db.alloc_meta_page();\n\
                   db.with_new_meta_page(root, init_page);\n\
                   db.pool.flush_page(PageId::new(AreaId::META, root));\n\
                   db.pool.flush_page(PageId::new(AreaId::META, root));\n\
                   Ok(X { root })\n\
                   }\n";
        assert!(findings_for(&[("crates/core/src/x.rs", good)], "commit-point").is_empty());
        let fs = findings_for(&[("crates/core/src/x.rs", bad)], "commit-point");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("second root/header flip"));
        assert_eq!(fs[0].line, 5, "{fs:?}");
    }

    #[test]
    fn commit_point_flags_durable_write_after_flip() {
        let files = [(
            "crates/core/src/x.rs",
            "fn create(db: &mut Db, buf: &[u8]) {\n\
             let root = db.alloc_meta_page();\n\
             db.with_new_meta_page(root, init_page);\n\
             db.pool.flush_page(PageId::new(AreaId::META, root));\n\
             db.pool.write_direct(AreaId::LEAF, base(), buf);\n\
             }\n",
        )];
        let fs = findings_for(&files, "commit-point");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("durable write `write_direct(..)`"));
    }

    #[test]
    fn commit_point_sees_durable_write_through_a_call() {
        let files = [(
            "crates/core/src/x.rs",
            "fn spill(db: &mut Db, buf: &[u8]) {\n\
             db.pool.write_direct(AreaId::LEAF, base(), buf);\n\
             }\n\
             fn create(db: &mut Db, buf: &[u8]) {\n\
             let root = db.alloc_meta_page();\n\
             db.with_new_meta_page(root, init_page);\n\
             db.pool.flush_page(PageId::new(AreaId::META, root));\n\
             spill(db, buf);\n\
             }\n",
        )];
        let fs = findings_for(&files, "commit-point");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("call `spill`"), "{fs:?}");
        assert!(
            fs[0].evidence.iter().any(|e| e.contains("write_direct")),
            "witness chain should reach the direct site: {fs:?}"
        );
    }

    #[test]
    fn flip_requires_freshly_allocated_page() {
        // Flushing a META page that is a parameter (Catalog::flush,
        // the OpCtx::finish loop) is not a commit point.
        let files = [(
            "crates/core/src/x.rs",
            "fn flush(db: &mut Db, page: u32) {\n\
             db.pool.flush_page(PageId::new(AreaId::META, page));\n\
             db.pool.flush_page(PageId::new(AreaId::META, page));\n\
             }\n",
        )];
        assert!(findings_for(&files, "commit-point").is_empty());
    }

    // ---- scope --------------------------------------------------------

    #[test]
    fn v4_rules_skip_test_code_and_non_library_files() {
        let body = "fn op(db: &mut Db) {\n\
                    let ext = db.alloc_leaf(n());\n\
                    }\n";
        let in_tests = [("crates/core/tests/x.rs", body)];
        let in_cli = [("crates/cli/src/x.rs", body)];
        assert!(findings_for(&in_tests, "alloc-balance").is_empty());
        assert!(findings_for(&in_cli, "alloc-balance").is_empty());
    }

    #[test]
    fn v4_findings_are_waivable() {
        let files = [(
            "crates/core/src/x.rs",
            "fn op(db: &mut Db) {\n\
             // transferred to the caller-side recovery map below.\n\
             // loblint: allow(alloc-balance)\n\
             let ext = db.alloc_leaf(n());\n\
             }\n",
        )];
        assert!(findings_for(&files, "alloc-balance").is_empty());
    }
}
