//! `lobsyn` — a std-only Rust lexer and lightweight structural parser.
//!
//! This is the token layer under `loblint`. Matching substrings of raw
//! lines would fire a rule on a magic literal or an `a / b` quoted in a
//! string or a comment; `lobsyn` lexes real Rust tokens (identifiers,
//! literals, multi-character operators) with their line numbers, records
//! comments separately, and recovers just enough structure for semantic
//! lint rules:
//!
//! * **attribute spans** (`#[...]` / `#![...]`), including whether an
//!   attribute is a `#[cfg(test)]`-family gate;
//! * **test regions** — the token/line extent of every item under a
//!   `#[cfg(test)]` attribute;
//! * **function definitions** — defining line and body token range.
//!
//! The lexer is deliberately forgiving: it never fails, and constructs
//! it does not model exactly (float exponents with signs, raw
//! identifiers) degrade to adjacent tokens rather than derailing the
//! scan. That is the right trade-off for a linter — rules only need
//! token *kinds* and *adjacency*, not a full parse tree.

use std::collections::BTreeSet;

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `pub`, `page_no`, ...).
    Ident,
    /// A lifetime such as `'a` (including `'static`, `'_`).
    Lifetime,
    /// Numeric literal, raw text preserved (`0x1234_5678u32`, `42`).
    Num,
    /// String literal, including raw strings; text includes the quotes.
    Str,
    /// Byte-string literal (`b"..."`, `br#"..."#`).
    ByteStr,
    /// Character or byte-character literal (`'x'`, `b'\n'`).
    Char,
    /// Punctuation; multi-character operators are one token (`<<=`).
    Punct,
}

/// One lexed token: kind, exact source text, and 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

impl Tok {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this punctuation with exactly this text?
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// One comment (line or block). Block comments spanning several lines
/// produce one entry per source line so that line-anchored waiver
/// comments keep working wherever they appear.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line this piece of comment text sits on.
    pub line: usize,
    /// The comment text of this line (including the `//` / `/*` lead-in
    /// on its first line).
    pub text: String,
    /// Is this a doc comment (`///`, `//!`, `/** ... */`)?
    pub doc: bool,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order (comments excluded).
    pub toks: Vec<Tok>,
    /// Comments, one entry per (comment, line) pair, in source order.
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// Lines that carry at least one code token.
    pub fn code_lines(&self) -> BTreeSet<usize> {
        self.toks.iter().map(|t| t.line).collect()
    }
}

const THREE_CHAR_OPS: [&str; 3] = ["<<=", ">>=", "..="];
const TWO_CHAR_OPS: [&str; 18] = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
    "->", "=>",
];
const TWO_CHAR_OPS_TAIL: [&str; 2] = ["::", ".."];

/// Lex `src` into tokens and comments. Never fails; unknown bytes are
/// emitted as single-character punctuation.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;

    let peek = |at: usize| -> u8 {
        if at < b.len() {
            b[at]
        } else {
            0
        }
    };

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if (c as char).is_whitespace() => i += 1,
            b'/' if peek(i + 1) == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = &src[start..i];
                out.comments.push(Comment {
                    line,
                    text: text.to_string(),
                    doc: text.starts_with("///") || text.starts_with("//!"),
                });
            }
            b'/' if peek(i + 1) == b'*' => {
                let start = i;
                let doc = src[i..].starts_with("/**") && !src[i..].starts_with("/**/")
                    || src[i..].starts_with("/*!");
                let mut depth = 1usize;
                i += 2;
                let mut piece_start = start;
                let mut piece_line = line;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        out.comments.push(Comment {
                            line: piece_line,
                            text: src[piece_start..i].to_string(),
                            doc,
                        });
                        line += 1;
                        i += 1;
                        piece_start = i;
                        piece_line = line;
                    } else if b[i] == b'/' && peek(i + 1) == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && peek(i + 1) == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line: piece_line,
                    text: src[piece_start..i].to_string(),
                    doc,
                });
            }
            b'"' => {
                let (end, nl) = scan_string(src, i);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: src[i..end].to_string(),
                    line,
                });
                line += nl;
                i = end;
            }
            b'r' if peek(i + 1) == b'"' || (peek(i + 1) == b'#' && raw_string_at(src, i + 1)) => {
                let (end, nl) = scan_raw_string(src, i + 1);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: src[i..end].to_string(),
                    line,
                });
                line += nl;
                i = end;
            }
            b'b' if peek(i + 1) == b'"' => {
                let (end, nl) = scan_string(src, i + 1);
                out.toks.push(Tok {
                    kind: TokKind::ByteStr,
                    text: src[i..end].to_string(),
                    line,
                });
                line += nl;
                i = end;
            }
            b'b' if peek(i + 1) == b'r'
                && (peek(i + 2) == b'"' || (peek(i + 2) == b'#' && raw_string_at(src, i + 2))) =>
            {
                let (end, nl) = scan_raw_string(src, i + 2);
                out.toks.push(Tok {
                    kind: TokKind::ByteStr,
                    text: src[i..end].to_string(),
                    line,
                });
                line += nl;
                i = end;
            }
            b'b' if peek(i + 1) == b'\'' => {
                let end = scan_char(src, i + 1);
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: src[i..end].to_string(),
                    line,
                });
                i = end;
            }
            b'\'' => {
                // Lifetime (`'a`, `'_`) vs char literal (`'a'`, `'\n'`).
                let nc = peek(i + 1);
                let lifetime = (nc.is_ascii_alphabetic() || nc == b'_') && peek(i + 2) != b'\'';
                if lifetime {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[start..i].to_string(),
                        line,
                    });
                } else {
                    let end = scan_char(src, i);
                    out.toks.push(Tok {
                        kind: TokKind::Char,
                        text: src[i..end].to_string(),
                        line,
                    });
                    i = end;
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                // A fractional part: `.` followed by a digit (but not
                // `..` ranges or `.method()` calls).
                if i < b.len() && b[i] == b'.' && peek(i + 1).is_ascii_digit() {
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Num,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ => {
                let op3 = THREE_CHAR_OPS.iter().find(|op| src[i..].starts_with(**op));
                let op2 = TWO_CHAR_OPS
                    .iter()
                    .chain(TWO_CHAR_OPS_TAIL.iter())
                    .find(|op| src[i..].starts_with(**op));
                let len = if let Some(op) = op3 {
                    op.len()
                } else if let Some(op) = op2 {
                    op.len()
                } else {
                    // One char; may be multi-byte UTF-8.
                    src[i..].chars().next().map_or(1, char::len_utf8)
                };
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: src[i..i + len].to_string(),
                    line,
                });
                i += len;
            }
        }
    }
    out
}

/// Does `src[at..]` start a raw-string hash run (`#...#"`)?
fn raw_string_at(src: &str, at: usize) -> bool {
    let rest = &src.as_bytes()[at..];
    let hashes = rest.iter().take_while(|&&c| c == b'#').count();
    hashes > 0 && rest.get(hashes) == Some(&b'"')
}

/// Scan a `"`-delimited string starting at the opening quote; returns
/// (end index past the closing quote, newline count inside).
fn scan_string(src: &str, start: usize) -> (usize, usize) {
    let b = src.as_bytes();
    let mut i = start + 1;
    let mut nl = 0usize;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                nl += 1;
                i += 1;
            }
            b'"' => return (i + 1, nl),
            _ => i += 1,
        }
    }
    (b.len(), nl)
}

/// Scan a raw string whose hash run (possibly empty) begins at `start`
/// (pointing at `#` or `"`); returns (end index, newline count).
fn scan_raw_string(src: &str, start: usize) -> (usize, usize) {
    let b = src.as_bytes();
    let hashes = b[start..].iter().take_while(|&&c| c == b'#').count();
    let mut i = start + hashes + 1; // past the opening quote
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    let mut nl = 0usize;
    while i < b.len() {
        if b[i] == b'\n' {
            nl += 1;
            i += 1;
        } else if b[i] == b'"' && b[i..].starts_with(&closer) {
            return (i + closer.len(), nl);
        } else {
            i += 1;
        }
    }
    (b.len(), nl)
}

/// Scan a `'`-delimited char literal starting at the opening quote;
/// returns the end index past the closing quote.
fn scan_char(src: &str, start: usize) -> usize {
    let b = src.as_bytes();
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => return i, // unterminated; don't eat the line
            _ => i += 1,
        }
    }
    b.len()
}

// ---- structure: attributes, test regions, functions ----------------------

/// One `#[...]` or `#![...]` attribute: token extent plus classification.
#[derive(Debug, Clone)]
pub struct AttrSpan {
    /// Index of the `#` token.
    pub first: usize,
    /// Index of the closing `]` token.
    pub last: usize,
    /// Is this a `#[cfg(test)]` / `#[cfg(all(test, ...))]` /
    /// `#[cfg(any(test, ...))]` gate?
    pub is_cfg_test: bool,
}

/// Find every attribute in `toks`.
pub fn attr_spans(toks: &[Tok]) -> Vec<AttrSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct("#") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_punct("!") {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct("[") {
            i += 1;
            continue;
        }
        // Match the closing bracket.
        let mut depth = 0i64;
        let mut k = j;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if k >= toks.len() {
            break;
        }
        let body = &toks[j + 1..k];
        let is_cfg_test = body.first().is_some_and(|t| t.is_ident("cfg"))
            && body.get(1).is_some_and(|t| t.is_punct("("))
            && (body.get(2).is_some_and(|t| t.is_ident("test"))
                || (body
                    .get(2)
                    .is_some_and(|t| t.is_ident("all") || t.is_ident("any"))
                    && body.get(3).is_some_and(|t| t.is_punct("("))
                    && body.get(4).is_some_and(|t| t.is_ident("test"))));
        out.push(AttrSpan {
            first: i,
            last: k,
            is_cfg_test,
        });
        i = k + 1;
    }
    out
}

/// The token index one past the end of the item starting at `i` (after
/// its attributes): either past its `;`, or past the matching `}` of
/// its first top-level `{`. Bracket depth covers `()`, `[]`, `{}`.
fn item_end(toks: &[Tok], mut i: usize) -> usize {
    let mut depth = 0i64;
    let mut brace_depth = 0i64;
    let mut in_body = false;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" => {
                depth += 1;
                brace_depth += 1;
                in_body = true;
            }
            "}" => {
                depth -= 1;
                brace_depth -= 1;
                if in_body && brace_depth == 0 {
                    return i + 1;
                }
            }
            ";" if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Lines covered by items under a `#[cfg(test)]`-family attribute.
pub fn test_lines(toks: &[Tok], spans: &[AttrSpan]) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for s in spans.iter().filter(|s| s.is_cfg_test) {
        // Skip any further attributes between the gate and the item.
        let mut i = s.last + 1;
        while let Some(next) = spans.iter().find(|t| t.first == i) {
            i = next.last + 1;
        }
        let end = item_end(toks, i);
        let first_line = toks.get(s.first).map_or(1, |t| t.line);
        let last_line = if end > 0 && end <= toks.len() {
            toks[end - 1].line
        } else {
            toks.last().map_or(first_line, |t| t.line)
        };
        out.extend(first_line..=last_line);
    }
    out
}

/// A function definition: where it is and the token range of its body
/// (if it has one).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token range `(open, close)` of the body braces, exclusive of the
    /// braces themselves; `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

/// Every function definition in `toks`.
pub fn fn_defs(toks: &[Tok]) -> Vec<FnDef> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        // `fn(u32) -> u32` is a pointer type, not a definition.
        if toks.get(i + 1).is_none_or(|n| n.kind != TokKind::Ident) {
            continue;
        }
        // Find the body: first `{` at signature level, or `;` (trait
        // method without a body).
        let mut j = i + 2;
        let mut d = 0i64;
        let mut body = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => d += 1,
                ")" | "]" => d -= 1,
                ";" if d == 0 => break,
                "{" if d == 0 => {
                    // Match the braces.
                    let open = j;
                    let mut bd = 0i64;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "{" => bd += 1,
                            "}" => {
                                bd -= 1;
                                if bd == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    body = Some((open + 1, j));
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        out.push(FnDef {
            line: t.line,
            fn_tok: i,
            body,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_produce_no_code_tokens() {
        let src = "let s = \"todo! .unwrap()\"; // .unwrap() too\n/* and todo! here */\n";
        let l = lex(src);
        assert_eq!(idents(src), vec!["let", "s"]);
        assert_eq!(l.comments.len(), 2);
        assert!(!l.comments[0].doc);
    }

    #[test]
    fn raw_and_byte_strings_are_single_tokens() {
        let l = lex("let a = r#\"x \" y\"#; let b = b\"LOBS\"; let c = br#\"z\"#;");
        let kinds: Vec<TokKind> = l.toks.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokKind::Str));
        assert_eq!(
            l.toks.iter().filter(|t| t.kind == TokKind::ByteStr).count(),
            2
        );
        let raw = l.toks.iter().find(|t| t.text.starts_with("r#")).unwrap();
        assert_eq!(raw.text, "r#\"x \" y\"#");
    }

    #[test]
    fn lifetimes_and_char_literals_are_distinguished() {
        let l = lex("fn f<'a>(x: &'a u8) { let c = 'y'; let n = '\\n'; let s: &'static str; }");
        let lifes: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifes, vec!["'a", "'a", "'static"]);
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
    }

    #[test]
    fn multi_char_operators_are_joined() {
        let l = lex("a <<= 1; b << 2; c += d; e != f; g..=h; i -> j;");
        let ops: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert!(ops.contains(&"<<="));
        assert!(ops.contains(&"<<"));
        assert!(ops.contains(&"+="));
        assert!(ops.contains(&"!="));
        assert!(ops.contains(&"..="));
        assert!(ops.contains(&"->"));
    }

    #[test]
    fn line_numbers_track_multiline_strings_and_comments() {
        let src = "let a = \"one\ntwo\";\n/* block\nstill */\nlet b = 1;\n";
        let l = lex(src);
        let b_tok = l.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 5);
        // The block comment yields one entry per line.
        assert_eq!(l.comments.iter().filter(|c| c.line == 3).count(), 1);
        assert_eq!(l.comments.iter().filter(|c| c.line == 4).count(), 1);
    }

    #[test]
    fn numeric_literals_keep_raw_text() {
        let l = lex("let x = 0x1234_5678u32 + 42usize + 1.5;");
        let nums: Vec<_> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0x1234_5678u32", "42usize", "1.5"]);
    }

    #[test]
    fn attr_spans_classify_cfg_test() {
        let src = "#[doc = \"hi\"]\n#[cfg(test)]\n#[cfg(all(test, feature = \"x\"))]\nfn f() {}\n";
        let l = lex(src);
        let spans = attr_spans(&l.toks);
        assert_eq!(spans.len(), 3);
        assert!(!spans[0].is_cfg_test);
        assert!(spans[1].is_cfg_test);
        assert!(spans[2].is_cfg_test);
    }

    #[test]
    fn test_region_covers_gated_module() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let l = lex(src);
        let spans = attr_spans(&l.toks);
        let tl = test_lines(&l.toks, &spans);
        assert!(!tl.contains(&1));
        assert!(tl.contains(&2) && tl.contains(&3) && tl.contains(&4) && tl.contains(&5));
        assert!(!tl.contains(&6));
    }

    #[test]
    fn nested_fns_and_closures_do_not_confuse_bodies() {
        let src = "fn outer() {\n    let f = |x: u32| x + 1;\n    fn inner() {}\n}\nfn next() {}\n";
        let fns = fn_defs(&lex(src).toks);
        let lines: Vec<_> = fns.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 3, 5], "outer, inner, next");
        // outer's body spans past inner's.
        let outer = &fns[0];
        let inner = &fns[1];
        assert!(outer.body.unwrap().0 < inner.fn_tok && inner.fn_tok < outer.body.unwrap().1);
    }

    #[test]
    fn fn_signature_with_semicolon_in_array_type_finds_body() {
        let src = "fn f(buf: [u8; 4096]) -> u8 { buf[0] }\n";
        let fns = fn_defs(&lex(src).toks);
        assert_eq!(fns.len(), 1);
        assert!(fns[0].body.is_some());
    }
}

/// Property-based round-trip: render an arbitrary valid token stream
/// canonically, lex it, and reconstruct the source byte-exactly from
/// the lexed tokens and comments. Any token the lexer splits, merges,
/// drops, or mis-lines breaks byte equality, so this pins the entire
/// token surface (idents, numbers, strings, raw/byte strings, chars,
/// lifetimes, multi-char operators, line comments) in one property.
#[cfg(test)]
mod roundtrip {
    use super::*;
    use proptest::prelude::*;

    const IDENTS: [&str; 10] = [
        "fn", "let", "mut", "self", "page_no", "x", "_tmp", "extent", "r", "b",
    ];
    const NUMS: [&str; 8] = [
        "0",
        "42",
        "0x1f",
        "0xdead_beef",
        "1_000u64",
        "3.25",
        "7usize",
        "0b1010",
    ];
    const PUNCTS: [&str; 24] = [
        "<<=", ">>=", "..=", "<<", ">>", "<=", "==", "!=", "&&", "||", "+=", "->", "=>", "::",
        "..", "(", ")", "{", "}", ";", ",", "#", ".", "?",
    ];
    const LIFETIMES: [&str; 4] = ["'a", "'static", "'_", "'tx"];
    const CHARS: [&str; 5] = ["'a'", "'Z'", "'_'", "'\\n'", "b'x'"];
    const QUOTED: [&str; 4] = ["b\"LOBS\"", "br#\"z\"#", "r#\"x \" y\"#", "r\"raw\""];
    const STR_PIECES: [&str; 7] = ["a", "bc", " ", "_7", "\\\"", "\\n", "::"];

    fn pick(table: &'static [&'static str]) -> impl Strategy<Value = String> {
        (0..table.len()).prop_map(move |i| table[i].to_string())
    }

    fn tok_strategy() -> impl Strategy<Value = String> {
        prop_oneof![
            3 => pick(&IDENTS),
            2 => pick(&NUMS),
            3 => pick(&PUNCTS),
            1 => pick(&LIFETIMES),
            1 => pick(&CHARS),
            1 => pick(&QUOTED),
            1 => prop::collection::vec(0..STR_PIECES.len(), 0..5).prop_map(|ps| {
                let inner: String = ps.iter().map(|&p| STR_PIECES[p]).collect();
                format!("\"{inner}\"")
            }),
        ]
    }

    /// Canonical rendering: eight tokens per line joined by single
    /// spaces; every third line carries a trailing `//` comment.
    fn render(toks: &[String]) -> String {
        let mut out = String::new();
        for (ln, chunk) in toks.chunks(8).enumerate() {
            out.push_str(&chunk.join(" "));
            if ln % 3 == 2 {
                out.push_str(" // margin note");
            }
            out.push('\n');
        }
        out
    }

    /// Rebuild the canonical rendering from a `Lexed`: group tokens by
    /// line, join with single spaces, and re-append each line comment.
    fn reconstruct(l: &Lexed) -> String {
        let last = l
            .toks
            .iter()
            .map(|t| t.line)
            .chain(l.comments.iter().map(|c| c.line))
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for line in 1..=last {
            let texts: Vec<&str> = l
                .toks
                .iter()
                .filter(|t| t.line == line)
                .map(|t| t.text.as_str())
                .collect();
            out.push_str(&texts.join(" "));
            for c in l.comments.iter().filter(|c| c.line == line) {
                if !texts.is_empty() {
                    out.push(' ');
                }
                out.push_str(&c.text);
            }
            out.push('\n');
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn lex_then_reconstruct_is_byte_exact(
            toks in prop::collection::vec(tok_strategy(), 1..64)
        ) {
            let src = render(&toks);
            let l = lex(&src);
            prop_assert_eq!(l.toks.len(), toks.len(),
                "token count changed: {:?} from {:?}", l.toks, src);
            for (i, t) in l.toks.iter().enumerate() {
                prop_assert_eq!(&t.text, &toks[i], "token {} re-lexed differently", i);
                prop_assert_eq!(t.line, i / 8 + 1, "token {} landed on the wrong line", i);
            }
            let rebuilt = reconstruct(&l);
            prop_assert_eq!(rebuilt, src);
        }
    }
}
