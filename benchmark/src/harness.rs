//! What the four workloads share: the three schemes, the round loop,
//! the counted window, and the end-to-end metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use lobstore_core::{Db, LargeObject, ManagerSpec};
use lobstore_simdisk::{IoStats, PAGE_SIZE};

use crate::report::END_TO_END;
use crate::stats::median;
use crate::trace::{Probe, Untraced};

/// The schemes every workload runs, each in a database of its own.
pub const SCHEMES: [&str; 3] = ["esm", "eos", "sb"];

/// `esm`: 4-page leaves go through the pool. `eos`: aged segments of at
/// least 16 pages take the direct / 3-step path. `sb`: Starburst.
pub fn spec(s: usize) -> ManagerSpec {
    match s {
        0 => ManagerSpec::esm(4),
        1 => ManagerSpec::eos(16),
        _ => ManagerSpec::starburst(),
    }
}

/// The paper's object size.
pub const OBJECT_BYTES: u64 = 10 << 20;
/// Build chunk: objects are created by appends of this size.
pub const APPEND_BYTES: usize = 256 << 10;
/// Rounds of the counted window. The counts the engine keeps
/// (`sim_ms_per_op`, `write_amp`, `space_amp`) and the peak RSS are read
/// when this many rounds are done, so they repeat exactly for a seed;
/// rounds after that, until `--seconds` are over, only add timing
/// samples.
pub const COUNTED_ROUNDS: usize = 15;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
const MB: f64 = (1 << 20) as f64;

/// Operations and verifications attempted, and how many failed.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count `n` engine calls of which `failed` returned `Err`.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Count one verification.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("lobbench: verification failed: {what}");
        }
    }
}

/// One scheme's part of one round.
#[derive(Copy, Clone, Debug, Default)]
pub struct Seg {
    pub primary_ns: u64,
    pub read_ns: u64,
    /// Bytes the read segment handed to the caller.
    pub read_bytes: u64,
}

pub struct SetupInfo {
    /// Build and ageing, verification excluded.
    pub seconds: f64,
    /// Build rate of one 10 MB object by 256 KB appends, per scheme.
    pub create_mb_per_s: [f64; 3],
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Operations in one primary segment, per scheme.
    const PRIMARY_OPS: [u64; 3];
    /// The traced run keeps a span for every n-th call.
    const SPAN_EVERY: u64 = 1;

    fn setup(seed: u64, tally: &mut Tally) -> (Self, SetupInfo);

    /// Scheme `s`'s primary segment and read segment of the next round.
    fn round<P: Probe>(&mut self, s: usize, p: &mut P, tally: &mut Tally) -> Seg;

    /// Scheme `s`'s database and (first) object.
    fn with_obj<R>(&mut self, s: usize, f: impl FnOnce(&mut Db, &mut dyn LargeObject) -> R) -> R;

    /// Bytes appended or inserted into scheme `s`'s database so far.
    fn user_bytes(&self, s: usize) -> u64;

    /// Bytes of scheme `s`'s live objects.
    fn live_bytes(&mut self, s: usize) -> u64;

    /// Whole-content verification after the measured phase.
    fn finish(&mut self, _tally: &mut Tally) {}
}

/// A stopwatch that can be paused around verification.
pub struct Stopwatch {
    total: Duration,
    since: Option<Instant>,
}

impl Stopwatch {
    /// A paused stopwatch at zero.
    pub fn new() -> Stopwatch {
        Stopwatch {
            total: Duration::ZERO,
            since: None,
        }
    }

    pub fn pause(&mut self) {
        if let Some(t) = self.since.take() {
            self.total += t.elapsed();
        }
    }

    pub fn resume(&mut self) {
        self.since = Some(Instant::now());
    }

    pub fn seconds(mut self) -> f64 {
        self.pause();
        self.total.as_secs_f64()
    }
}

/// The fastest of the rounds: the time the work takes when nothing else
/// has the machine. This box runs at several speeds, the slowest 30 %
/// below the fastest, and keeps one for seconds at a time, so the median
/// round of a run follows the neighbours (10 % between the quartiles of
/// ten identical `probe` runs, 3.5 % for the fastest round; see the
/// README). Every round of a workload does the same amount of work, which
/// makes the fastest one a fair sample. 0 when no round completed.
fn floor(values: impl Iterator<Item = f64>) -> f64 {
    values.reduce(f64::min).unwrap_or(0.0)
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The segments of the rounds run so far, per scheme.
#[derive(Default)]
pub struct Rounds([Vec<Seg>; 3]);

impl Rounds {
    pub fn push(&mut self, s: usize, seg: Seg) {
        self.0[s].push(seg);
    }

    /// Rounds all three schemes have completed.
    pub fn count(&self) -> usize {
        self.0[2].len()
    }

    pub fn min_segment_ms(&self) -> f64 {
        let shortest = self.0.iter().flatten().map(|g| g.primary_ns.min(g.read_ns));
        shortest.min().unwrap_or(0) as f64 / 1e6
    }

    fn primary_floor_ns(&self, s: usize) -> f64 {
        floor(self.0[s].iter().map(|g| g.primary_ns as f64))
    }

    /// Primary operations per second: operations in a segment over the
    /// time of the fastest segment.
    pub fn ops_per_s(&self, s: usize, ops: u64) -> f64 {
        ratio(ops as f64 * 1e9, self.primary_floor_ns(s))
    }

    pub fn read_bytes_mean(&self, s: usize) -> f64 {
        let bytes: u64 = self.0[s].iter().map(|g| g.read_bytes).sum();
        ratio(bytes as f64, self.0[s].len() as f64)
    }

    /// Time of scheme `s`'s fastest read segment, for a segment of the
    /// mean size (the segments of `probe` differ by a percent in bytes).
    fn read_floor_ns(&self, s: usize) -> f64 {
        let per_byte = |g: &Seg| ratio(g.read_ns as f64, g.read_bytes as f64);
        floor(self.0[s].iter().map(per_byte)) * self.read_bytes_mean(s)
    }

    /// Read-segment bytes of all schemes over their fastest times.
    pub fn read_mb_per_s(&self) -> f64 {
        let bytes: f64 = (0..3).map(|s| self.read_bytes_mean(s)).sum();
        let ns: f64 = (0..3).map(|s| self.read_floor_ns(s)).sum();
        ratio(bytes / MB * 1e9, ns)
    }

    /// Time of one round's segments, both kinds, all schemes, each at
    /// its fastest.
    pub fn round_floor_ns(&self) -> f64 {
        (0..3)
            .map(|s| self.primary_floor_ns(s) + self.read_floor_ns(s))
            .sum()
    }
}

/// Run scheme `s`'s part of a round; a panic inside the engine is one
/// failed attempt and ends the measured phase.
pub fn guarded_round<W: Workload, P: Probe>(
    w: &mut W,
    s: usize,
    p: &mut P,
    tally: &mut Tally,
) -> Option<Seg> {
    match catch_unwind(AssertUnwindSafe(|| w.round(s, p, tally))) {
        Ok(seg) => Some(seg),
        Err(_) => {
            tally.ops(1, 1);
            eprintln!("lobbench: {} panicked in {}", SCHEMES[s], W::NAME);
            None
        }
    }
}

pub fn io_stats<W: Workload>(w: &mut W) -> [IoStats; 3] {
    [0, 1, 2].map(|s| w.with_obj(s, |db, _| db.io_stats()))
}

/// `VmHWM` of this process, in MB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What is read once the counted window is done.
#[derive(Default)]
struct Counted {
    sim_ms_per_op: f64,
    write_amp: f64,
    space_amp: f64,
    rss_peak_mb: f64,
}

impl Counted {
    fn capture<W: Workload>(w: &mut W, io_before: &[IoStats; 3]) -> Counted {
        let now = io_stats(w);
        let sim_us: u64 = (0..3).map(|s| (now[s] - io_before[s]).time_us).sum();
        let ops: u64 = W::PRIMARY_OPS.iter().sum::<u64>() * COUNTED_ROUNDS as u64;
        let written: u64 = now.iter().map(|io| io.pages_written).sum();
        let user: u64 = (0..3).map(|s| w.user_bytes(s)).sum();
        let allocated: u64 = (0..3)
            .map(|s| {
                w.with_obj(s, |db, _| {
                    db.leaf_pages_allocated() + db.meta_pages_allocated()
                })
            })
            .sum();
        let live: u64 = (0..3).map(|s| w.live_bytes(s)).sum();
        let page = PAGE_SIZE as f64;
        Counted {
            sim_ms_per_op: sim_us as f64 / 1e3 / ops as f64,
            write_amp: written as f64 * page / user as f64,
            space_amp: allocated as f64 * page / live as f64,
            rss_peak_mb: rss_peak_mb(),
        }
    }
}

/// The result of one end-to-end run.
pub struct EndToEnd {
    pub tally: Tally,
    pub complete: bool,
    pub rounds: usize,
    pub min_segment_ms: f64,
    /// Name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Set up `SETUPS` times, then run rounds for `seconds` (at least the
/// counted window). With `sink`, an obs JSONL sink that discards its
/// lines is installed around the measured phase (`--selfcheck`).
pub fn run_end_to_end<W: Workload>(seed: u64, seconds: f64, setups: usize, sink: bool) -> EndToEnd {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..setups {
        drop(state.take());
        let (w, info) = W::setup(seed, &mut tally);
        setup_s.push(info.seconds);
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up");

    if sink {
        lobstore_obs::install_sink(Box::new(lobstore_obs::JsonlSink::new(std::io::sink())));
    }
    let io_before = io_stats(&mut w);
    let mut rounds = Rounds::default();
    let mut counted = None;
    let started = Instant::now();
    let mut complete = true;
    'measure: loop {
        let done = rounds.count();
        if done >= COUNTED_ROUNDS && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        // Round r runs esm, eos, sb in turn, so a slow spell of the
        // machine lands on all three.
        for s in 0..3 {
            match guarded_round(&mut w, s, &mut Untraced, &mut tally) {
                Some(seg) => rounds.push(s, seg),
                None => {
                    complete = false;
                    break 'measure;
                }
            }
        }
        if rounds.count() == COUNTED_ROUNDS {
            counted = Some(Counted::capture(&mut w, &io_before));
        }
    }
    if sink {
        drop(lobstore_obs::take_sink());
    }
    if complete {
        w.finish(&mut tally);
    }

    let c = counted.unwrap_or_default();
    let values = [
        median(&setup_s),
        rounds.ops_per_s(0, W::PRIMARY_OPS[0]),
        rounds.ops_per_s(1, W::PRIMARY_OPS[1]),
        rounds.ops_per_s(2, W::PRIMARY_OPS[2]),
        rounds.read_mb_per_s(),
        c.sim_ms_per_op,
        c.write_amp,
        c.space_amp,
        c.rss_peak_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    EndToEnd {
        tally,
        complete,
        rounds: rounds.count(),
        min_segment_ms: rounds.min_segment_ms(),
        metrics,
    }
}

/// One streamed pass over an object through `r`, in 4 KB
/// `fill_buf`/`consume` steps, feeding each step to `sink`.
pub fn stream_pass(
    r: &mut impl std::io::BufRead,
    mut sink: impl FnMut(&[u8]),
) -> std::io::Result<u64> {
    let mut bytes = 0u64;
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Ok(bytes);
        }
        let n = buf.len().min(4096);
        sink(&buf[..n]);
        r.consume(n);
        bytes += n as u64;
    }
}
