//! The traced run: the workload again with every call timed, counter
//! deltas around it, and microloops that call a layer's public functions
//! on a bare instance of the layer. Together they give the per-layer
//! numbers. Shares are estimates made from outside the engine (count ×
//! probed unit cost ÷ time of an operation); spans inside the engine are
//! a later change.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use lobstore_buddy::{BuddyConfig, BuddyManager, Extent};
use lobstore_bufpool::{BufferPool, PoolConfig, PoolStats};
use lobstore_core::{Db, DbConfig, SharedDb};
use lobstore_obs::json::Value;
use lobstore_obs::MetricsSnapshot;
use lobstore_simdisk::{
    AreaId, CostModel, IoStats, PageId, SimDisk, TraceEvent, TraceKind, PAGE_SIZE,
};

use crate::harness::{guarded_round, io_stats, ratio, Rounds, SetupInfo, Tally, Workload, SCHEMES};
use crate::recovery;
use crate::report::per_layer;
use crate::rng::{fill, Rng};
use crate::stats::{median, percentile, tail_quantile};
use crate::trace::{Kind, Traced, Untraced};

/// Rounds of the traced run: at least this many, half of them traced.
const MIN_ROUNDS: usize = 6;
/// Traced rounds whose disk calls are captured for the replay.
const REPLAY_ROUNDS: usize = 3;
const TRACE_CAPACITY: usize = 1 << 22;
const MB: f64 = (1 << 20) as f64;

/// Per-layer values by name, and for the percentile metrics how many
/// samples there were and which percentile they support.
#[derive(Default)]
pub struct Layers {
    pub values: BTreeMap<String, f64>,
    pub notes: BTreeMap<String, (usize, f64)>,
    /// One line per attempt of the recovery probe.
    pub recovery: Vec<String>,
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        );
    }
}

/// Median over five batches of the time of one call of `f`, in ns.
fn time_ns(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

const RUN_PAGES: u32 = 64;
const RUNS: u32 = 64;

/// A bare disk holding `RUNS` runs of `RUN_PAGES` pages of noise.
fn noisy_disk() -> (SimDisk, Vec<u8>) {
    let disk = SimDisk::new(2, CostModel::default());
    let mut buf = vec![0u8; RUN_PAGES as usize * PAGE_SIZE];
    fill(&mut buf, 1);
    for run in 0..RUNS {
        disk.poke(AreaId::LEAF, run * RUN_PAGES, &buf);
    }
    (disk, buf)
}

fn simdisk_probes(out: &mut Layers) {
    let (disk, mut buf) = noisy_disk();
    let run = |i: u32| (i % RUNS) * RUN_PAGES;
    let read = time_ns(256, |i| disk.read(AreaId::LEAF, run(i), &mut buf));
    out.set("simdisk.read_ns_per_page", read / f64::from(RUN_PAGES));
    let write = time_ns(256, |i| disk.write(AreaId::LEAF, run(i), &buf));
    out.set("simdisk.write_ns_per_page", write / f64::from(RUN_PAGES));
    let call = time_ns(20_000, |i| {
        disk.read(AreaId::LEAF, i % (RUNS * RUN_PAGES), &mut buf[..PAGE_SIZE]);
    });
    out.set("simdisk.call_ns", call);
}

fn bufpool_probes(out: &mut Layers) {
    let (disk, mut buf) = noisy_disk();
    let pool = BufferPool::new(disk, PoolConfig::default());
    let leaf = |page: u32| PageId::new(AreaId::LEAF, page);
    let run = |i: u32| (i % RUNS) * RUN_PAGES;

    let hit = time_ns(20_000, |_| pool.unfix(pool.fix(leaf(7))));
    out.set("bufpool.fix_hit_ns", hit);
    // 64 pages in turn through 12 frames: every fix misses.
    let miss = time_ns(20_000, |i| pool.unfix(pool.fix(leaf(i % RUNS * RUN_PAGES))));
    out.set("bufpool.fix_miss_ns", miss);

    let buffered = time_ns(5_000, |i| {
        pool.read_segment(AreaId::LEAF, run(i) + 8, 0, &mut buf[..4 * PAGE_SIZE]);
    });
    out.set("bufpool.read_segment_buffered_ns", buffered);
    let direct = time_ns(256, |i| {
        pool.read_segment(AreaId::LEAF, run(i), 0, &mut buf)
    });
    out.set(
        "bufpool.read_segment_direct_ns_per_page",
        direct / f64::from(RUN_PAGES),
    );
    let cut = buf.len() - 200;
    let three_step = time_ns(256, |i| {
        pool.read_segment(AreaId::LEAF, run(i), 100, &mut buf[..cut]);
    });
    out.set("bufpool.read_segment_3step_ns", three_step);

    let mut flush_ns = 0u128;
    const FLUSHES: u32 = 2_000;
    for i in 0..FLUSHES {
        let base = run(i) + 16;
        for p in 0..4 {
            pool.guard_mut(leaf(base + p))[0] = i as u8;
        }
        let t = Instant::now();
        pool.flush_range(AreaId::LEAF, base, 4);
        flush_ns += t.elapsed().as_nanos();
    }
    out.set(
        "bufpool.flush_range_ns_per_page",
        flush_ns as f64 / f64::from(FLUSHES) / 4.0,
    );
}

/// Allocate and free `n` 4-page extents; ns per call of each.
fn buddy_batch(m: &mut BuddyManager, pool: &mut BufferPool, n: usize) -> (f64, f64) {
    let (mut alloc, mut free) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        let held: Vec<Extent> = (0..n).map(|_| m.allocate(pool, 4)).collect();
        alloc.push(t.elapsed().as_nanos() as f64 / n as f64);
        let t = Instant::now();
        for ext in held {
            m.free(pool, ext);
        }
        free.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    (median(&alloc), median(&free))
}

fn buddy_probes(out: &mut Layers) {
    let cfg = DbConfig::default();
    let mut pool = BufferPool::new(SimDisk::new(2, cfg.cost), cfg.pool);
    let mut m = BuddyManager::new(BuddyConfig::new(AreaId::LEAF, cfg.leaf_space_pages));
    let (alloc, free) = buddy_batch(&mut m, &mut pool, 512);
    out.set("buddy.alloc_ns", alloc);
    out.set("buddy.free_ns", free);

    // Age the allocator: 10 000 random allocations and frees of 1–64
    // pages with a few hundred extents live.
    let mut rng = Rng::new(0xB0DD, 1);
    let mut live: Vec<Extent> = Vec::new();
    for _ in 0..10_000 {
        if live.len() < 300 && (live.is_empty() || rng.below(2) == 0) {
            live.push(m.allocate(&mut pool, rng.range(1, 64) as u32));
        } else {
            let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
            m.free(&mut pool, victim);
        }
    }
    out.set("buddy.alloc_aged_ns", buddy_batch(&mut m, &mut pool, 512).0);
}

fn obs_probes(out: &mut Layers) {
    lobstore_obs::counter_add("lobbench.probe", 1);
    let counter = time_ns(50_000, |_| lobstore_obs::counter_add("lobbench.probe", 1));
    out.set("obs.counter_add_ns", counter);
    let histogram = time_ns(50_000, |i| {
        lobstore_obs::histogram_record("lobbench.probe", u64::from(i));
    });
    out.set("obs.histogram_record_ns", histogram);
    let span = time_ns(50_000, |_| {
        lobstore_obs::Span::begin("lobbench.probe").end()
    });
    out.set("obs.span_ns", span);
    let snapshot = time_ns(200, |_| {
        black_box(lobstore_obs::snapshot());
    });
    out.set("obs.snapshot_us", snapshot / 1e3);
    let timer = time_ns(50_000, |_| {
        black_box(Instant::now().elapsed());
    });
    out.set("harness.timer_ns", timer);
}

fn core_probes(out: &mut Layers) {
    let mut db = Db::new(DbConfig::default());
    let pin = time_ns(20_000, |_| {
        let snap = db.snapshot();
        db.release_snapshot(snap);
    });
    out.set("core.mvcc.pin_release_ns", pin);
    let shared = SharedDb::new(db);
    let with = time_ns(50_000, |_| {
        black_box(shared.with(|db| db.current_version()));
    });
    out.set("core.shared.with_ns", with);
    let with_read = time_ns(50_000, |_| {
        black_box(shared.with_read(Db::current_version));
    });
    out.set("core.shared.with_read_ns", with_read);
}

/// `LargeObject::locate` at uniform offsets of the workload's objects.
fn locate_probes<W: Workload>(w: &mut W, out: &mut Layers) {
    for (s, name) in SCHEMES.iter().enumerate() {
        let ns = w.with_obj(s, |db, obj| {
            let size = obj.size(db);
            let mut rng = Rng::new(0x10CA, s as u64);
            time_ns(10_000, |_| {
                let _ = black_box(obj.locate(db, rng.below(size)));
            })
        });
        out.set(&format!("core.{name}.locate_ns"), ns);
    }
}

/// Replay captured disk calls on a bare disk that holds the pages they
/// touch; returns the nanoseconds the calls took.
fn replay(events: &[TraceEvent]) -> u64 {
    let disk = SimDisk::new(2, CostModel::default());
    let most = events.iter().map(|e| e.pages).max().unwrap_or(1);
    let mut buf = vec![0u8; most as usize * PAGE_SIZE];
    fill(&mut buf, 2);
    for e in events {
        disk.poke(e.area, e.start, &buf[..e.pages as usize * PAGE_SIZE]);
    }
    let t = Instant::now();
    for e in events {
        let bytes = &mut buf[..e.pages as usize * PAGE_SIZE];
        match e.kind {
            TraceKind::Read => disk.read(e.area, e.start, bytes),
            TraceKind::Write => disk.write(e.area, e.start, bytes),
        }
    }
    t.elapsed().as_nanos() as u64
}

fn pool_stats<W: Workload>(w: &mut W) -> [PoolStats; 3] {
    [0, 1, 2].map(|s| w.with_obj(s, |db, _| db.pool().pool_stats()))
}

/// Sum over the three schemes of `after - before` of one field.
fn delta3<T: Copy>(before: &[T; 3], after: &[T; 3], field: impl Fn(&T) -> u64) -> f64 {
    (0..3)
        .map(|s| field(&after[s]) - field(&before[s]))
        .sum::<u64>() as f64
}

/// `after - before` of the obs counters.
struct ObsDelta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl ObsDelta {
    fn counter(&self, name: &str) -> f64 {
        (self.after.counter(name) - self.before.counter(name)) as f64
    }

    /// Calls through the observed object handles: the `op.<scheme>.*`
    /// counters.
    fn engine_calls(&self) -> f64 {
        let ops = |snap: &MetricsSnapshot| -> u64 {
            snap.counters
                .iter()
                .filter(|(n, _)| n.starts_with("op."))
                .map(|(_, v)| v)
                .sum()
        };
        (ops(&self.after) - ops(&self.before)) as f64
    }
}

/// What the traced run hands back.
pub struct TracedRun {
    pub tally: Tally,
    pub complete: bool,
    pub layers: Layers,
    pub rounds: usize,
    pub spans: usize,
}

/// Set up once, run rounds for half of `seconds` alternating untraced
/// and traced ones, then probe the layers. Writes
/// `trace-<workload>.jsonl` and `layers-<workload>.json` into `out_dir`.
pub fn run_traced<W: Workload>(
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    extra: impl FnOnce(&W, &mut Layers),
) -> std::io::Result<TracedRun> {
    let mut tally = Tally::default();
    let (mut w, setup) = W::setup(seed, &mut tally);

    let mut traced = Traced::new(W::NAME, SCHEMES, W::SPAN_EVERY);
    let (mut plain, mut timed) = (Rounds::default(), Rounds::default());
    let mut events: [Vec<TraceEvent>; 3] = Default::default();
    let mut replayed_op_ns = 0u64;
    let mut round_io: Vec<(usize, usize, IoStats)> = Vec::new();

    let obs_before = lobstore_obs::snapshot();
    let (io_before, pool_before) = (io_stats(&mut w), pool_stats(&mut w));
    let started = Instant::now();
    let mut complete = true;
    let mut round = 0usize;
    'measure: loop {
        if round >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= seconds / 2.0 {
            break;
        }
        let tracing = round % 2 == 1;
        let capture = tracing && timed.count() < REPLAY_ROUNDS;
        for (s, events) in events.iter_mut().enumerate() {
            let seg = if tracing {
                let capacity = if capture { TRACE_CAPACITY } else { 0 };
                let io = w.with_obj(s, |db, _| {
                    db.pool().disk().enable_trace(capacity);
                    db.io_stats()
                });
                let op_ns = traced.op_ns_total;
                traced.begin_round(s, round as u64);
                let seg = guarded_round(&mut w, s, &mut traced, &mut tally);
                traced.end_round();
                let (taken, dropped, io) = w.with_obj(s, |db, _| {
                    let disk = db.pool().disk();
                    let dropped = disk.trace_dropped();
                    let taken = disk.take_trace();
                    disk.enable_trace(0);
                    (taken, dropped, db.io_stats() - io)
                });
                round_io.push((round, s, io));
                if capture {
                    tally.check(dropped == 0, "disk trace overflowed");
                    events.extend(taken);
                    replayed_op_ns += traced.op_ns_total - op_ns;
                }
                seg
            } else {
                guarded_round(&mut w, s, &mut Untraced, &mut tally)
            };
            match seg {
                Some(seg) if tracing => timed.push(s, seg),
                Some(seg) => plain.push(s, seg),
                None => {
                    complete = false;
                    break 'measure;
                }
            }
        }
        round += 1;
    }
    let obs = ObsDelta {
        before: obs_before,
        after: lobstore_obs::snapshot(),
    };
    let (io_after, pool_after) = (io_stats(&mut w), pool_stats(&mut w));
    if complete {
        w.finish(&mut tally);
    }

    let mut out = Layers::default();
    let ops = (W::PRIMARY_OPS.iter().sum::<u64>() * round as u64) as f64;
    let per_op = |n: f64| ratio(n, ops);
    // Untraced time of one primary operation, its share of the read
    // segment included.
    let op_ns = ratio(
        plain.round_floor_ns(),
        W::PRIMARY_OPS.iter().sum::<u64>() as f64,
    );

    // Counts, over all rounds and schemes.
    let io = |f: fn(&IoStats) -> u64| delta3(&io_before, &io_after, f);
    out.set("simdisk.read_calls_per_op", per_op(io(|i| i.read_calls)));
    out.set("simdisk.write_calls_per_op", per_op(io(|i| i.write_calls)));
    out.set("simdisk.pages_read_per_op", per_op(io(|i| i.pages_read)));
    out.set(
        "simdisk.pages_written_per_op",
        per_op(io(|i| i.pages_written)),
    );
    let hits = delta3(&pool_before, &pool_after, |p| p.hits);
    let misses = delta3(&pool_before, &pool_after, |p| p.misses);
    out.set("bufpool.hit_ratio", ratio(hits, hits + misses));
    out.set("bufpool.misses_per_op", per_op(misses));
    let evictions = delta3(&pool_before, &pool_after, |p| p.eviction_writes);
    out.set("bufpool.eviction_writes_per_op", per_op(evictions));
    out.set(
        "bufpool.dirty_writebacks_per_op",
        per_op(obs.counter("bufpool.dirty_writebacks")),
    );
    let descents = obs.counter("core.tree.descents");
    out.set("core.tree.descents_per_op", per_op(descents));
    out.set(
        "core.tree.depth_avg",
        ratio(obs.counter("core.tree.descend_depth"), descents),
    );
    let cache_hits = obs.counter("core.nodecache.hits");
    let cache_misses = obs.counter("core.nodecache.misses");
    out.set(
        "core.nodecache.hit_ratio",
        ratio(cache_hits, cache_hits + cache_misses),
    );
    out.set(
        "core.nodecache.evictions_per_op",
        per_op(obs.counter("core.nodecache.evictions")),
    );
    let shadow = obs.counter("core.shadow.pages");
    let fresh = obs.counter("core.shadow.fresh_pages");
    let seg_reads = obs.counter("core.seg.reads");
    let seg_writes = obs.counter("core.seg.writes");
    out.set("core.shadow.pages_per_op", per_op(shadow));
    out.set("core.shadow.fresh_pages_per_op", per_op(fresh));
    out.set("core.seg.reads_per_op", per_op(seg_reads));
    out.set("core.seg.writes_per_op", per_op(seg_writes));
    let commits = obs.counter("core.mvcc.txn_commits");
    out.set(
        "core.mvcc.pages_archived_per_txn",
        ratio(obs.counter("core.mvcc.pages_archived"), commits),
    );
    out.set(
        "core.alloclog.records_per_txn",
        ratio(obs.counter("core.alloclog.records"), commits),
    );
    let frag = w.with_obj(1, |db, _| db.leaf_frag_stats());
    out.set("buddy.leaf_frag_ratio_end", frag.frag_ratio());
    out.set(
        "buddy.leaf_largest_free_run_pages",
        f64::from(frag.largest_free_run),
    );

    // Times of single calls, from the traced rounds.
    let tail = |out: &mut Layers, name: String, samples: &[u64], q: f64| {
        let q = if q > 0.5 {
            tail_quantile(samples.len(), q)
        } else {
            q
        };
        out.set(&name, percentile(samples, q) as f64 / 1e3);
        out.notes.insert(name, (samples.len(), q));
    };
    let traced_rounds = timed.count().max(1) as f64;
    for (s, name) in SCHEMES.iter().enumerate() {
        let of = |kind: Kind| &traced.samples[s][kind as usize];
        for (kind, label) in [
            (Kind::Read, "read"),
            (Kind::Insert, "insert"),
            (Kind::Delete, "delete"),
        ] {
            tail(
                &mut out,
                format!("core.{name}.{label}_p50_us"),
                of(kind),
                0.5,
            );
            tail(
                &mut out,
                format!("core.{name}.{label}_p99_us"),
                of(kind),
                0.99,
            );
        }
        let commit = of(Kind::Commit);
        tail(
            &mut out,
            format!("core.mvcc.{name}.commit_p50_us"),
            commit,
            0.5,
        );
        tail(
            &mut out,
            format!("core.mvcc.{name}.commit_p99_us"),
            commit,
            0.99,
        );
        out.set(
            &format!("core.{name}.create_mb_per_s"),
            setup.create_mb_per_s[s],
        );
        // A pass moves the read segment's bytes divided by its passes.
        for (kind, label) in [(Kind::Stream, "streamed"), (Kind::Bulk, "bulk")] {
            let passes: Vec<f64> = of(kind).iter().map(|&ns| ns as f64).collect();
            let bytes = timed.read_bytes_mean(s) * traced_rounds / passes.len().max(1) as f64;
            out.set(
                &format!("core.{name}.scan_{label}_mb_per_s"),
                ratio(bytes / MB * 1e9, median(&passes)),
            );
        }
    }
    let pooled = |kind: Kind| -> Vec<u64> {
        (0..3)
            .flat_map(|s| traced.samples[s][kind as usize].iter().copied())
            .collect()
    };
    tail(
        &mut out,
        "core.mvcc.release_reclaim_p99_us".to_string(),
        &pooled(Kind::Release),
        0.99,
    );
    tail(
        &mut out,
        "core.alloclog.checkpoint_p50_us".to_string(),
        &pooled(Kind::Checkpoint),
        0.5,
    );

    // Bare-layer probes.
    simdisk_probes(&mut out);
    bufpool_probes(&mut out);
    buddy_probes(&mut out);
    obs_probes(&mut out);
    core_probes(&mut out);
    locate_probes(&mut w, &mut out);
    let replay_ns: u64 = events.iter().map(|e| replay(e)).sum();
    out.set(
        "simdisk.replay_share",
        ratio(replay_ns as f64, replayed_op_ns as f64),
    );
    let recovered = recovery::probe();
    out.set("core.alloclog.recover_ok_share", recovered.ok_share);
    out.set("core.alloclog.replay_ms", recovered.replay_ms);
    out.recovery = recovered.lines;
    // What only `versioned` can fill in: the MVCC peaks and the
    // two-thread probe.
    extra(&w, &mut out);

    // Estimated shares of one operation's untraced time.
    let v = |out: &Layers, name: &str| out.values.get(name).copied().unwrap_or(0.0);
    let bufpool_ns = per_op(hits) * v(&out, "bufpool.fix_hit_ns")
        + per_op(misses) * v(&out, "bufpool.fix_miss_ns");
    out.set("bufpool.est_share", ratio(bufpool_ns, op_ns));
    // Every shadow page, fresh page and written segment is taken as one
    // allocation and, in a store that keeps its size, one free.
    let buddy_ns = per_op(shadow + fresh + seg_writes)
        * (v(&out, "buddy.alloc_aged_ns") + v(&out, "buddy.free_ns"));
    out.set("buddy.est_share", ratio(buddy_ns, op_ns));
    // A disk call makes two counter and three histogram updates; a call
    // through an observed handle five counter updates and a span; the
    // core counters one update each, a descent two.
    let io_calls = io(|i| i.read_calls) + io(|i| i.write_calls);
    let engine_calls = obs.engine_calls();
    let core_bumps =
        cache_hits + cache_misses + 2.0 * descents + seg_reads + seg_writes + shadow + fresh;
    out.set(
        "obs.calls_per_op",
        per_op(5.0 * io_calls + 6.0 * engine_calls + core_bumps),
    );
    let (counter, histogram) = (
        v(&out, "obs.counter_add_ns"),
        v(&out, "obs.histogram_record_ns"),
    );
    let obs_ns = per_op(io_calls) * (2.0 * counter + 3.0 * histogram)
        + per_op(engine_calls) * (5.0 * counter + v(&out, "obs.span_ns"))
        + per_op(core_bumps) * counter;
    out.set("obs.est_share", ratio(obs_ns, op_ns));
    let all_ops: u64 = W::PRIMARY_OPS.iter().sum();
    let rate = |r: &Rounds| -> f64 {
        let ns: f64 = (0..3)
            .map(|s| {
                ratio(
                    W::PRIMARY_OPS[s] as f64 * 1e9,
                    r.ops_per_s(s, W::PRIMARY_OPS[s]),
                )
            })
            .sum();
        ratio(all_ops as f64 * 1e9, ns)
    };
    out.set(
        "harness.trace_overhead_share",
        1.0 - ratio(rate(&timed), rate(&plain)),
    );

    std::fs::create_dir_all(out_dir)?;
    let mut spans = std::io::BufWriter::new(std::fs::File::create(
        out_dir.join(format!("trace-{}.jsonl", W::NAME)),
    )?);
    traced.write_jsonl(&mut spans)?;
    spans.flush()?;
    write_layers_file::<W>(out_dir, seed, &out, &setup, &round_io, round)?;

    Ok(TracedRun {
        tally,
        complete,
        layers: out,
        rounds: round,
        spans: traced.span_count(),
    })
}

/// `layers-<workload>.json`: every per-layer metric with its unit, the
/// sample counts behind the percentiles, and the I/O of each traced
/// round.
fn write_layers_file<W: Workload>(
    out_dir: &Path,
    seed: u64,
    layers: &Layers,
    setup: &SetupInfo,
    round_io: &[(usize, usize, IoStats)],
    rounds: usize,
) -> std::io::Result<()> {
    let metrics = per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let mut fields = vec![
                (
                    "value".to_string(),
                    Value::Num(layers.values.get(&name).copied().unwrap_or(0.0)),
                ),
                ("unit".to_string(), Value::from(unit)),
            ];
            if let Some(&(samples, q)) = layers.notes.get(&name) {
                fields.push(("samples".to_string(), Value::from(samples as u64)));
                fields.push(("percentile".to_string(), Value::Num(q * 100.0)));
            }
            (name, Value::Obj(fields))
        })
        .collect();
    let round_io = round_io
        .iter()
        .map(|(round, s, io)| {
            Value::Obj(vec![
                ("round".to_string(), Value::from(*round as u64)),
                ("scheme".to_string(), Value::from(SCHEMES[*s])),
                ("io".to_string(), io.to_value()),
            ])
        })
        .collect();
    let doc = Value::Obj(vec![
        ("workload".to_string(), Value::from(W::NAME)),
        ("seed".to_string(), Value::from(seed)),
        ("rounds".to_string(), Value::from(rounds as u64)),
        ("setup_s".to_string(), Value::Num(setup.seconds)),
        (
            "note".to_string(),
            Value::from(
                "est_share and replay_share are estimates from outside the engine; \
                 0 means the workload does not exercise the metric",
            ),
        ),
        ("metrics".to_string(), Value::Obj(metrics)),
        (
            "recovery_attempts".to_string(),
            Value::Arr(
                layers
                    .recovery
                    .iter()
                    .map(|l| Value::from(l.as_str()))
                    .collect(),
            ),
        ),
        ("traced_round_io".to_string(), Value::Arr(round_io)),
    ]);
    let mut text = doc.to_json();
    text.push('\n');
    std::fs::write(out_dir.join(format!("layers-{}.json", W::NAME)), text)
}
