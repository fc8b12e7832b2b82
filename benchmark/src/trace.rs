//! Timing from outside the engine. The workloads call the engine through
//! a [`Probe`]: [`Untraced`] compiles to the bare call, so the end-to-end
//! run reads the clock only at segment boundaries; [`Traced`] times every
//! call and keeps spans in memory until the run ends.

use std::io::Write;
use std::time::Instant;

/// What one timed call into the engine was.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    /// A 5–15 KB read of `probe`'s read segment.
    ReadLarge,
    Insert,
    Delete,
    /// One whole-object pass through a streaming reader.
    Stream,
    /// One whole-object pass of 256 KB `LargeObject::read` calls.
    Bulk,
    /// One `Db::txn` of an insert and a delete.
    Commit,
    /// Opening a pinned snapshot reader.
    Pin,
    /// Closing it: the pin is released and deferred frees are reclaimed.
    Release,
    Checkpoint,
}

pub const KINDS: usize = 10;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::ReadLarge => "read_large",
            Kind::Insert => "insert",
            Kind::Delete => "delete",
            Kind::Stream => "stream",
            Kind::Bulk => "bulk",
            Kind::Commit => "commit",
            Kind::Pin => "pin",
            Kind::Release => "release",
            Kind::Checkpoint => "checkpoint",
        }
    }
}

pub trait Probe {
    /// Run one call into the engine.
    fn op<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R;
}

/// The end-to-end run: no clock, no record.
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn op<R>(&mut self, _kind: Kind, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One span: `run → workload → scheme → round → op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Round number for a round span, position in the round for an op.
    pub n: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

const RUN: u32 = 1;
const WORKLOAD: u32 = 2;
const FIRST_SCHEME: u32 = 3;

/// The traced run: every call timed, spans recorded for every
/// `span_every`-th call (64 in `probe`, whose calls last a microsecond).
pub struct Traced {
    t0: Instant,
    spans: Vec<Span>,
    span_every: u64,
    scheme: usize,
    round_span: usize,
    ops_in_round: u64,
    /// Call durations in ns, by scheme and kind.
    pub samples: [[Vec<u64>; KINDS]; 3],
    /// Time inside timed calls, over all schemes, in ns.
    pub op_ns_total: u64,
}

impl Traced {
    pub fn new(workload: &'static str, scheme_names: [&'static str; 3], span_every: u64) -> Traced {
        let root = |id, parent, name| Span {
            id,
            parent,
            name,
            n: 0,
            start_ns: 0,
            end_ns: 0,
        };
        let mut spans = vec![root(RUN, 0, "run"), root(WORKLOAD, RUN, workload)];
        for (i, name) in scheme_names.into_iter().enumerate() {
            spans.push(root(FIRST_SCHEME + i as u32, WORKLOAD, name));
        }
        Traced {
            t0: Instant::now(),
            spans,
            span_every,
            scheme: 0,
            round_span: 0,
            ops_in_round: 0,
            samples: Default::default(),
            op_ns_total: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&mut self, parent: u32, name: &'static str, n: u64, start_ns: u64, end_ns: u64) {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            n,
            start_ns,
            end_ns,
        });
    }

    /// Open the span of scheme `s`'s part of round `round`.
    pub fn begin_round(&mut self, s: usize, round: u64) {
        let now = self.now();
        self.scheme = s;
        self.ops_in_round = 0;
        let scheme_span = &mut self.spans[FIRST_SCHEME as usize - 1 + s];
        if scheme_span.end_ns == 0 {
            scheme_span.start_ns = now;
        }
        self.round_span = self.spans.len();
        self.push(FIRST_SCHEME + s as u32, "round", round, now, now);
    }

    pub fn end_round(&mut self) {
        let now = self.now();
        self.spans[self.round_span].end_ns = now;
        self.spans[FIRST_SCHEME as usize - 1 + self.scheme].end_ns = now;
    }

    /// Close the run and workload spans and write one JSON object a line.
    pub fn write_jsonl(&mut self, w: &mut impl Write) -> std::io::Result<()> {
        let now = self.now();
        self.spans[0].end_ns = now;
        self.spans[1].end_ns = now;
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"n\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.n, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

impl Probe for Traced {
    #[inline]
    fn op<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        let ns = end - start;
        self.samples[self.scheme][kind as usize].push(ns);
        self.op_ns_total += ns;
        if self.ops_in_round.is_multiple_of(self.span_every) {
            let parent = self.spans[self.round_span].id;
            self.push(parent, kind.name(), self.ops_in_round, start, end);
        }
        self.ops_in_round += 1;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_every_nth_op_is_kept() {
        let mut t = Traced::new("probe", ["esm", "eos", "sb"], 4);
        t.begin_round(1, 7);
        for _ in 0..9 {
            t.op(Kind::Read, || ());
        }
        t.end_round();
        assert_eq!(t.samples[1][Kind::Read as usize].len(), 9, "all timed");
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let lines: Vec<_> = std::str::from_utf8(&out).unwrap().lines().collect();
        // run, workload, 3 schemes, 1 round, ops 0, 4, 8
        assert_eq!(lines.len(), 9);
        let parsed: Vec<_> = lines
            .iter()
            .map(|l| lobstore_obs::json::parse(l).expect("valid JSON"))
            .collect();
        let field = |i: usize, k: &str| parsed[i].get(k).and_then(|v| v.as_u64()).unwrap();
        assert_eq!(field(5, "parent"), 4, "round under scheme eos");
        assert_eq!(field(5, "n"), 7);
        assert_eq!(field(6, "parent"), field(5, "id"), "op under round");
        assert_eq!(field(8, "n"), 8);
        assert!(field(5, "end_ns") >= field(8, "end_ns"));
        assert!(field(0, "end_ns") >= field(5, "end_ns"));
    }
}
