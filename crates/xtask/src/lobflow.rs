//! `lobflow` — intra-procedural control flow and dataflow over
//! [`crate::lobsyn`] token streams (std-only).
//!
//! This is the analysis layer under loblint's `disk-taint` rule. The
//! token rules see tokens and a call graph; what they cannot see is
//! *order*: whether a check happens before a use, which assignments can
//! reach a merge point. `lobflow` recovers exactly that much structure:
//!
//! * **CFG construction** — per-function basic blocks over
//!   `if`/`else if`/`else`, `match`, `loop`/`while`/`for`, `return`,
//!   `?`, `break` and `continue`. Blocks hold statements as token
//!   ranges; edges model fallthrough, branching, loop back edges and
//!   early exits.
//! * **Forward dataflow** — a worklist fixpoint over any join
//!   semilattice (`None` = unreachable bottom), with per-statement
//!   state replay for rules that need the state *at* a program point.
//!
//! Like `lobsyn`, the builder is deliberately forgiving: expression-
//! position conditionals (`let x = if c { a } else { b };`) are
//! swallowed into their statement, closure bodies stay inside their
//! call's parentheses, and anything unparseable degrades to a plain
//! statement rather than derailing the pass. Rules only need
//! conservative joins, not a perfect parse.

use crate::lobsyn::{Tok, TokKind};

/// What role a statement plays in the CFG. Conditions sit in the block
/// that branches on them, so branch-local refinements (a bounds check
/// in an `if` head) flow into *both* successors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    /// Ordinary statement (including swallowed expression conditionals).
    Plain,
    /// The condition/scrutinee head of `if`/`match`/`while`/`for`.
    Cond,
}

/// One statement: a token range `[lo, hi)` into the lexed file.
#[derive(Debug, Clone, Copy)]
pub struct Stmt {
    pub kind: StmtKind,
    pub lo: usize,
    pub hi: usize,
}

/// One basic block: statements executed in order, then a jump to every
/// successor.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub succs: Vec<usize>,
}

/// A per-function control-flow graph. `entry` is block 0; `exit`
/// collects every `return`/`?`-error edge and the fall-off-the-end
/// path. Unreachable continuation blocks (after `return`, `break`,
/// `continue`) simply have no incoming edges and stay at bottom during
/// dataflow.
#[derive(Debug)]
pub struct Cfg {
    pub blocks: Vec<Block>,
    pub entry: usize,
    /// Read by the engine tests, which pin the `return`/`?` edges into
    /// it; the rules only replay statements.
    #[allow(dead_code)]
    pub exit: usize,
}

/// Keywords that open a control-flow construct at statement level.
const FLOW_KEYWORDS: [&str; 5] = ["if", "match", "loop", "while", "for"];

struct Builder<'t> {
    toks: &'t [Tok],
    blocks: Vec<Block>,
    cur: usize,
    exit: usize,
    /// (continue target, break target) per enclosing loop.
    loops: Vec<(usize, usize)>,
}

impl<'t> Builder<'t> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    fn push_stmt(&mut self, kind: StmtKind, lo: usize, hi: usize) {
        if lo < hi {
            self.blocks[self.cur].stmts.push(Stmt { kind, lo, hi });
        }
    }

    /// Index of the token after the bracket group opening at `i`
    /// (which must be `(`, `[` or `{`). Counts all three bracket kinds.
    fn skip_group(&self, mut i: usize) -> usize {
        let mut depth = 0i64;
        while i < self.toks.len() {
            match self.toks[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.toks.len()
    }

    /// Find the `{` opening the block of a construct whose header
    /// starts at `i` (after the keyword), at header bracket depth 0.
    fn find_block_open(&self, mut i: usize, hi: usize) -> Option<usize> {
        let mut depth = 0i64;
        while i < hi {
            match self.toks[i].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return Some(i),
                ";" if depth == 0 => return None, // `loop` label weirdness etc.
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// Index just past an entire `if ... {} else if ... {} else {}`
    /// chain (or `match`/loop body) whose keyword sits at `i`.
    fn construct_end(&self, i: usize, hi: usize) -> usize {
        let kw = self.toks[i].text.as_str();
        let Some(open) = self.find_block_open(i + 1, hi) else {
            return (i + 1).min(hi);
        };
        let mut end = self.skip_group(open);
        if kw == "if" {
            while end < hi && self.toks[end].is_ident("else") {
                if end + 1 < hi && self.toks[end + 1].is_ident("if") {
                    let Some(open) = self.find_block_open(end + 2, hi) else {
                        return end + 2;
                    };
                    end = self.skip_group(open);
                } else {
                    let Some(open) = self.find_block_open(end + 1, hi) else {
                        return end + 1;
                    };
                    end = self.skip_group(open);
                    break;
                }
            }
        }
        end
    }

    /// Lower an `if`/`else if`/`else` chain starting at the `if` token
    /// `i`; returns the index just past the chain.
    fn lower_if(&mut self, i: usize, hi: usize) -> usize {
        let join = self.new_block();
        let mut at = i;
        loop {
            // `at` sits on an `if` keyword.
            let Some(open) = self.find_block_open(at + 1, hi) else {
                self.edge(self.cur, join);
                self.cur = join;
                return (at + 1).min(hi);
            };
            self.push_stmt(StmtKind::Cond, at + 1, open);
            let close = self.skip_group(open);
            let branch_from = self.cur;
            let then_entry = self.new_block();
            self.edge(branch_from, then_entry);
            self.cur = then_entry;
            self.lower_range(open + 1, close.saturating_sub(1));
            self.edge(self.cur, join);

            let false_block = self.new_block();
            self.edge(branch_from, false_block);
            self.cur = false_block;

            if close < hi && self.toks[close].is_ident("else") {
                if close + 1 < hi && self.toks[close + 1].is_ident("if") {
                    at = close + 1;
                    continue;
                }
                let Some(eopen) = self.find_block_open(close + 1, hi) else {
                    self.edge(self.cur, join);
                    self.cur = join;
                    return close + 1;
                };
                let eclose = self.skip_group(eopen);
                self.lower_range(eopen + 1, eclose.saturating_sub(1));
                self.edge(self.cur, join);
                // The false path of the last condition goes into the
                // else block, which `cur` already lowered; no extra edge.
                self.cur = join;
                return eclose;
            }
            // No else: the false path falls through to the join.
            self.edge(self.cur, join);
            self.cur = join;
            return close;
        }
    }

    /// Lower a `match` whose keyword sits at `i`; returns the index
    /// just past the closing brace.
    fn lower_match(&mut self, i: usize, hi: usize) -> usize {
        let Some(open) = self.find_block_open(i + 1, hi) else {
            return (i + 1).min(hi);
        };
        self.push_stmt(StmtKind::Cond, i + 1, open);
        let close_plus = self.skip_group(open);
        let close = close_plus.saturating_sub(1);
        let branch_from = self.cur;
        let join = self.new_block();

        // Split arms: `pat => body` separated by `,` (or adjacency
        // after a `{}` body) at depth 0 inside the match braces.
        let mut k = open + 1;
        while k < close {
            // Pattern tokens up to `=>` at depth 0.
            let pat_lo = k;
            let mut depth = 0i64;
            while k < close {
                match self.toks[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=>" if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            if k >= close {
                break;
            }
            let arrow = k;
            k += 1; // past `=>`
            let (body_lo, body_hi, next);
            if k < close && self.toks[k].is_punct("{") {
                let past = self.skip_group(k);
                body_lo = k + 1;
                body_hi = past.saturating_sub(1).min(close);
                next = if past < close && self.toks[past].is_punct(",") {
                    past + 1
                } else {
                    past
                };
            } else {
                // Expression arm: up to `,` at depth 0 or the close.
                let mut depth = 0i64;
                let lo = k;
                while k < close {
                    match self.toks[k].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                body_lo = lo;
                body_hi = k;
                next = (k + 1).min(close);
            }
            let arm_entry = self.new_block();
            self.edge(branch_from, arm_entry);
            self.cur = arm_entry;
            // The pattern can bind and compare; keep it visible.
            self.push_stmt(StmtKind::Cond, pat_lo, arrow);
            self.lower_range(body_lo, body_hi);
            self.edge(self.cur, join);
            k = next;
        }
        // A match with no lowered arms still flows onward.
        if self.blocks[branch_from].succs.iter().all(|&s| s == join) {
            self.edge(branch_from, join);
        }
        self.cur = join;
        close_plus
    }

    /// Lower `loop`/`while`/`for`; returns the index past the body.
    fn lower_loop(&mut self, i: usize, hi: usize) -> usize {
        let Some(open) = self.find_block_open(i + 1, hi) else {
            return (i + 1).min(hi);
        };
        let close = self.skip_group(open);
        let head = self.new_block();
        self.edge(self.cur, head);
        self.cur = head;
        // `while cond` / `for pat in iter`: the header is a condition
        // statement in the head block; `loop` has none.
        self.push_stmt(StmtKind::Cond, i + 1, open);
        let exit = self.new_block();
        if !self.toks[i].is_ident("loop") {
            self.edge(head, exit);
        }
        let body_entry = self.new_block();
        self.edge(head, body_entry);
        self.cur = body_entry;
        self.loops.push((head, exit));
        self.lower_range(open + 1, close.saturating_sub(1));
        self.loops.pop();
        let back_from = self.cur;
        self.edge(back_from, head);
        self.cur = exit;
        close
    }

    /// Lower the token range `[lo, hi)` into the current block chain.
    fn lower_range(&mut self, lo: usize, hi: usize) {
        let mut i = lo;
        let mut stmt_lo = lo;
        let flush = |b: &mut Self, stmt_lo: &mut usize, upto: usize, kind: StmtKind| {
            b.push_stmt(kind, *stmt_lo, upto);
            *stmt_lo = upto;
        };
        while i < hi {
            let t = &self.toks[i];
            let at_stmt_start = stmt_lo == i;
            match t.text.as_str() {
                "(" | "[" => {
                    i = self.skip_group(i);
                }
                "{" => {
                    if at_stmt_start {
                        // Bare scope block: lower inline.
                        let close = self.skip_group(i);
                        self.lower_range(i + 1, close.saturating_sub(1));
                        i = close;
                        stmt_lo = i;
                    } else {
                        // A trailing struct literal / swallowed body.
                        i = self.skip_group(i);
                    }
                }
                ";" => {
                    flush(self, &mut stmt_lo, i + 1, StmtKind::Plain);
                    i += 1;
                }
                "if" | "match" | "loop" | "while" | "for"
                    if t.kind == TokKind::Ident && FLOW_KEYWORDS.contains(&t.text.as_str()) =>
                {
                    if at_stmt_start {
                        i = match t.text.as_str() {
                            "if" => self.lower_if(i, hi),
                            "match" => self.lower_match(i, hi),
                            _ => self.lower_loop(i, hi),
                        };
                        stmt_lo = i;
                    } else {
                        // Expression position (`let x = if ... {}`):
                        // swallow the construct into this statement.
                        i = self.construct_end(i, hi);
                    }
                }
                "return" if t.kind == TokKind::Ident => {
                    // Take the rest of the statement with it.
                    let mut j = i + 1;
                    let mut depth = 0i64;
                    while j < hi {
                        match self.toks[j].text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ";" if depth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    flush(self, &mut stmt_lo, (j + 1).min(hi), StmtKind::Plain);
                    let exit = self.exit;
                    self.edge(self.cur, exit);
                    let dead = self.new_block();
                    self.cur = dead;
                    i = (j + 1).min(hi);
                    stmt_lo = i;
                }
                "break" | "continue" if t.kind == TokKind::Ident => {
                    flush(self, &mut stmt_lo, i + 1, StmtKind::Plain);
                    if let Some(&(head, exit)) = self.loops.last() {
                        let target = if t.text == "break" { exit } else { head };
                        self.edge(self.cur, target);
                    }
                    // Skip the rest of the statement (`break 'label v;`).
                    let mut j = i + 1;
                    while j < hi && !self.toks[j].is_punct(";") {
                        j += 1;
                    }
                    let dead = self.new_block();
                    self.cur = dead;
                    i = (j + 1).min(hi);
                    stmt_lo = i;
                }
                "?" => {
                    // The error path leaves the function; the ok path
                    // continues in this statement.
                    let exit = self.exit;
                    self.edge(self.cur, exit);
                    i += 1;
                }
                _ => i += 1,
            }
        }
        flush(self, &mut stmt_lo, hi, StmtKind::Plain);
    }
}

/// Build the CFG of one function body, the token range `[b0, b1)`
/// (exclusive of the body braces, as produced by `lobsyn::fn_defs`).
pub fn build_cfg(toks: &[Tok], b0: usize, b1: usize) -> Cfg {
    let mut b = Builder {
        toks,
        blocks: vec![Block::default(), Block::default()],
        cur: 0,
        exit: 1,
        loops: Vec::new(),
    };
    b.lower_range(b0, b1.min(toks.len()));
    let last = b.cur;
    b.edge(last, 1);
    Cfg {
        blocks: b.blocks,
        entry: 0,
        exit: 1,
    }
}

// ---- forward dataflow -----------------------------------------------------

/// Run a forward worklist analysis to fixpoint. `None` is bottom
/// (unreachable); `join` merges two reachable states; `transfer`
/// updates a state in place across one statement. Returns the entry
/// state of every block.
pub fn forward<S: Clone + PartialEq>(
    cfg: &Cfg,
    entry_state: S,
    join: impl Fn(&S, &S) -> S,
    transfer: impl Fn(&mut S, &Stmt),
) -> Vec<Option<S>> {
    let mut entry: Vec<Option<S>> = vec![None; cfg.blocks.len()];
    entry[cfg.entry] = Some(entry_state);
    let mut work = vec![cfg.entry];
    // Bounded to keep pathological token streams from spinning: each
    // block re-queues only when its entry state actually changes, and
    // the state space rules use is finite, so this terminates; the cap
    // is a backstop.
    let mut budget = 64 * cfg.blocks.len().max(1) * cfg.blocks.len().max(1);
    while let Some(b) = work.pop() {
        if budget == 0 {
            break;
        }
        budget -= 1;
        let Some(mut state) = entry[b].clone() else {
            continue;
        };
        for s in &cfg.blocks[b].stmts {
            transfer(&mut state, s);
        }
        for &succ in &cfg.blocks[b].succs {
            let merged = match &entry[succ] {
                None => state.clone(),
                Some(old) => join(old, &state),
            };
            if entry[succ].as_ref() != Some(&merged) {
                entry[succ] = Some(merged);
                work.push(succ);
            }
        }
    }
    entry
}

/// Replay a block's statements from its fixpoint entry state, handing
/// `visit` the state *before* each statement. Used by rules that check
/// program points rather than block summaries.
pub fn replay<S: Clone>(
    cfg: &Cfg,
    entries: &[Option<S>],
    transfer: impl Fn(&mut S, &Stmt),
    mut visit: impl FnMut(&S, &Stmt),
) {
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let Some(mut state) = entries[b].clone() else {
            continue;
        };
        for s in &blk.stmts {
            visit(&state, s);
            transfer(&mut state, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lobsyn;

    fn cfg_of(src: &str) -> (Vec<Tok>, Cfg) {
        let toks = lobsyn::lex(src).toks;
        let fns = lobsyn::fn_defs(&toks);
        let (b0, b1) = fns[0].body.expect("fixture fn needs a body");
        let cfg = build_cfg(&toks, b0, b1);
        (toks, cfg)
    }

    /// Reachability lattice: () reachable, joined trivially.
    fn reachable_blocks(cfg: &Cfg) -> Vec<bool> {
        forward(cfg, (), |_, _| (), |_, _| ())
            .into_iter()
            .map(|s| s.is_some())
            .collect()
    }

    #[test]
    fn straight_line_is_one_block_plus_exit() {
        let (_, cfg) = cfg_of("fn f() { let a = 1; let b = a; }");
        assert_eq!(cfg.blocks[cfg.entry].stmts.len(), 2);
        assert_eq!(cfg.blocks[cfg.entry].succs, vec![cfg.exit]);
    }

    #[test]
    fn if_else_branches_and_joins() {
        let (_, cfg) = cfg_of("fn f(c: bool) { if c { a(); } else { b(); } d(); }");
        // entry branches to then and else; both reach a join that holds d().
        let entry = &cfg.blocks[cfg.entry];
        assert_eq!(entry.succs.len(), 2);
        let reach = reachable_blocks(&cfg);
        assert!(reach[cfg.exit]);
        // Exactly one block contains the `d` statement and both branch
        // blocks lead (transitively) to it.
        let d_block = cfg
            .blocks
            .iter()
            .position(|b| {
                b.stmts.iter().any(|s| {
                    s.lo != s.hi && s.kind == StmtKind::Plain && b.succs.contains(&cfg.exit)
                })
            })
            .unwrap();
        assert!(reach[d_block]);
    }

    #[test]
    fn else_if_chain_keeps_all_paths() {
        let (_, cfg) =
            cfg_of("fn f(x: u32) { if x == 1 { a(); } else if x == 2 { b(); } else { c(); } }");
        let reach = reachable_blocks(&cfg);
        assert!(reach[cfg.exit]);
        // All three arm bodies exist as reachable blocks.
        let arm_blocks = cfg
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| {
                reach[*i]
                    && b.stmts
                        .iter()
                        .any(|s| s.kind == StmtKind::Plain && s.hi > s.lo)
            })
            .count();
        assert!(arm_blocks >= 3, "{cfg:?}");
    }

    #[test]
    fn return_leaves_no_fallthrough() {
        let (toks, cfg) = cfg_of("fn f(c: bool) { if c { return; } g(); }");
        // The then-branch edge goes to exit, not to the join with g().
        let then_block = cfg.blocks[cfg.entry].succs[0];
        assert!(cfg.blocks[then_block].succs.contains(&cfg.exit));
        // g() is still reachable via the false path.
        let reach = reachable_blocks(&cfg);
        let g_block = cfg
            .blocks
            .iter()
            .position(|b| {
                b.stmts
                    .iter()
                    .any(|s| toks[s.lo..s.hi].iter().any(|t| t.is_ident("g")))
            })
            .unwrap();
        assert!(reach[g_block]);
    }

    #[test]
    fn loop_has_back_edge_and_break_exits() {
        let (toks, cfg) = cfg_of("fn f() { loop { if done() { break; } step(); } after(); }");
        let reach = reachable_blocks(&cfg);
        let after_block = cfg
            .blocks
            .iter()
            .position(|b| {
                b.stmts
                    .iter()
                    .any(|s| toks[s.lo..s.hi].iter().any(|t| t.is_ident("after")))
            })
            .unwrap();
        assert!(reach[after_block], "break must reach the loop exit");
        // The step() block is part of a cycle: it reaches itself again.
        let step_block = cfg
            .blocks
            .iter()
            .position(|b| {
                b.stmts
                    .iter()
                    .any(|s| toks[s.lo..s.hi].iter().any(|t| t.is_ident("step")))
            })
            .unwrap();
        let mut seen = vec![false; cfg.blocks.len()];
        let mut work = cfg.blocks[step_block].succs.clone();
        let mut cyclic = false;
        while let Some(b) = work.pop() {
            if b == step_block {
                cyclic = true;
                break;
            }
            if !std::mem::replace(&mut seen[b], true) {
                work.extend(cfg.blocks[b].succs.iter().copied());
            }
        }
        assert!(cyclic, "loop body must sit on a back edge: {cfg:?}");
    }

    #[test]
    fn while_loop_can_skip_body() {
        let (toks, cfg) = cfg_of("fn f(n: u32) { while n > 0 { work(); } done(); }");
        let reach = reachable_blocks(&cfg);
        let done_block = cfg
            .blocks
            .iter()
            .position(|b| {
                b.stmts
                    .iter()
                    .any(|s| toks[s.lo..s.hi].iter().any(|t| t.is_ident("done")))
            })
            .unwrap();
        assert!(reach[done_block]);
    }

    #[test]
    fn match_arms_all_flow_to_join() {
        let (toks, cfg) =
            cfg_of("fn f(x: u32) { match x { 0 => a(), 1 => { b(); } _ => c(), } after(); }");
        let reach = reachable_blocks(&cfg);
        for name in ["a", "b", "c", "after"] {
            let blk = cfg.blocks.iter().position(|b| {
                b.stmts
                    .iter()
                    .any(|s| toks[s.lo..s.hi].iter().any(|t| t.is_ident(name)))
            });
            assert!(
                blk.is_some_and(|b| reach[b]),
                "{name} must be reachable: {cfg:?}"
            );
        }
    }

    #[test]
    fn question_mark_adds_exit_edge() {
        let (_, cfg) = cfg_of("fn f() -> R { let x = g()?; h(x); Ok(()) }");
        assert!(cfg.blocks[cfg.entry].succs.contains(&cfg.exit));
    }

    #[test]
    fn expression_position_if_is_swallowed() {
        let (_, cfg) = cfg_of("fn f(c: bool) { let x = if c { 1 } else { 2 }; g(x); }");
        // No branching: the conditional is part of the let statement.
        assert_eq!(cfg.blocks[cfg.entry].succs, vec![cfg.exit]);
        assert_eq!(cfg.blocks[cfg.entry].stmts.len(), 2);
    }

    // ---- dataflow: reaching taint through joins -----------------------

    /// A two-point lattice over one variable: has `x` been cleared on
    /// every path? (true = still set)
    fn x_set_at_exit(src: &str) -> bool {
        let toks = lobsyn::lex(src).toks;
        let fns = lobsyn::fn_defs(&toks);
        let (b0, b1) = fns[0].body.unwrap();
        let cfg = build_cfg(&toks, b0, b1);
        let entries = forward(
            &cfg,
            true,
            |a, b| *a || *b,
            |s, stmt| {
                let has = |name: &str| toks[stmt.lo..stmt.hi].iter().any(|t| t.is_ident(name));
                if has("clear") {
                    *s = false;
                }
                if has("set") {
                    *s = true;
                }
            },
        );
        entries[cfg.exit].unwrap_or(false)
    }

    #[test]
    fn join_keeps_the_pessimistic_state() {
        // Cleared on only one path: still set at exit.
        assert!(x_set_at_exit(
            "fn f(c: bool) { set(); if c { clear(); } g(); }"
        ));
        // Cleared on both paths: clean at exit.
        assert!(!x_set_at_exit(
            "fn f(c: bool) { set(); if c { clear(); } else { clear(); } g(); }"
        ));
        // Straight-line clear.
        assert!(!x_set_at_exit("fn f() { set(); clear(); }"));
        // Re-set inside a loop body reaches the exit via the back edge.
        assert!(x_set_at_exit(
            "fn f() { clear(); loop { if d() { break; } set(); } }"
        ));
    }
}
