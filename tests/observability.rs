//! End-to-end observability: with a sink installed, a mixed workload over
//! all three storage schemes, each followed by one streamed cursor pass,
//! must produce a JSONL event stream and a
//! metrics dump whose numbers are mutually consistent — the sum of the
//! per-operation span I/O deltas equals the disks' cumulative I/O, the
//! buffer pool reports a hit ratio, and the per-area simulated-disk page
//! counters are all nonzero.
//!
//! The metrics registry is thread-local, so this single test owns the
//! whole pipeline without interference from other tests.

use std::io::Read;

use lobstore::bufpool::PoolConfig;
use lobstore::obs::{self, json, json::Value};
use lobstore::{
    build_object, Db, DbConfig, IoStats, ManagerSpec, MixedConfig, MixedWorkload, ObjectReader,
};

const SCHEMES: [(&str, &str); 3] = [("ESM", "esm"), ("Starburst", "starburst"), ("EOS", "eos")];

fn span_io_counters() -> IoStats {
    IoStats {
        read_calls: obs::counter_value("span.io.read_calls"),
        write_calls: obs::counter_value("span.io.write_calls"),
        pages_read: obs::counter_value("span.io.pages_read"),
        pages_written: obs::counter_value("span.io.pages_written"),
        time_us: obs::counter_value("span.io.time_us"),
    }
}

#[test]
fn mixed_workload_metrics_and_events_are_consistent() {
    obs::reset();
    let sink = obs::MemorySink::new();
    obs::install_sink(Box::new(sink.clone()));

    let specs = [
        ManagerSpec::esm(4),
        ManagerSpec::starburst(),
        ManagerSpec::eos(16),
    ];
    let mut disk_total = IoStats::default();
    for spec in &specs {
        // A 2-frame pool forces index pages out between fixes, so the
        // META area sees real read traffic and the pool real misses.
        let mut db = Db::new(DbConfig {
            pool: PoolConfig {
                frames: 2,
                ..PoolConfig::default()
            },
            ..DbConfig::default()
        });
        let base = db.io_stats();
        let (mut obj, _) = build_object(&mut db, spec, 600_000, 16 * 1024).expect("build");
        let mut w = MixedWorkload::new(MixedConfig {
            ops: 150,
            mark_every: 50,
            mean_op_bytes: 5_000,
            ..MixedConfig::default()
        });
        w.run(&mut db, obj.as_mut()).expect("mixed workload");
        // One streamed pass: each cursor refill is an observed read.
        let mut back = Vec::new();
        ObjectReader::new(&mut db, obj.as_ref())
            .read_to_end(&mut back)
            .expect("cursor pass");
        assert!(back == obj.snapshot(&db), "cursor pass diverges");
        disk_total = disk_total + (db.io_stats() - base);
    }
    let _ = obs::take_sink();

    // 1. Accounting closure: every byte of simulated I/O flowed through an
    //    observed operation, so the span accumulators equal the disks'
    //    cumulative stats exactly.
    assert_eq!(span_io_counters(), disk_total);

    let snap = obs::snapshot();

    // 2. Buffer pool: hits, misses, and a hit ratio in (0, 1).
    assert!(snap.counter("bufpool.hits") > 0);
    assert!(snap.counter("bufpool.misses") > 0);
    let ratio = snap.gauge("bufpool.hit_ratio").expect("hit ratio gauge");
    assert!(ratio > 0.0 && ratio < 1.0, "hit ratio {ratio}");

    // 3. Per-scheme span counters: each scheme created one object and ran
    //    reads/inserts/deletes.
    for (_, slug) in SCHEMES {
        assert_eq!(snap.counter(&format!("op.{slug}.create")), 1, "{slug}");
        for op in ["append", "read", "insert", "delete"] {
            assert!(
                snap.counter(&format!("op.{slug}.{op}")) > 0,
                "op.{slug}.{op} must be nonzero"
            );
        }
    }

    // 4. Simulated disk: per-area counters are nonzero and sum to the
    //    cumulative disk stats.
    let areas = ["meta", "leaf", "other"];
    for area in ["meta", "leaf"] {
        assert!(
            snap.counter(&format!("simdisk.{area}.pages_read")) > 0,
            "{area} reads"
        );
        assert!(
            snap.counter(&format!("simdisk.{area}.pages_written")) > 0,
            "{area} writes"
        );
    }
    let sum = |suffix: &str| -> u64 {
        areas
            .iter()
            .map(|a| snap.counter(&format!("simdisk.{a}.{suffix}")))
            .sum()
    };
    assert_eq!(sum("read_calls"), disk_total.read_calls);
    assert_eq!(sum("write_calls"), disk_total.write_calls);
    assert_eq!(sum("pages_read"), disk_total.pages_read);
    assert_eq!(sum("pages_written"), disk_total.pages_written);

    // 5. The JSONL stream: every line parses; spans carry scheme labels
    //    and io fields; span counts per scheme are nonzero and agree with
    //    the metric counters; the workload emitted mark events.
    let lines = sink.lines();
    assert!(!lines.is_empty(), "sink collected no events");
    let mut spans_per_scheme = [0u64; 3];
    let mut marks = 0u64;
    let mut span_pages_read = 0u64;
    for line in &lines {
        let v = json::parse(line).expect("JSONL line parses");
        let name = v.get("name").and_then(Value::as_str).expect("name field");
        if name == "workload.mark" {
            marks += 1;
            assert!(v.get("ops_done").and_then(Value::as_u64).is_some());
            continue;
        }
        if let Some(scheme) = v.get("scheme").and_then(Value::as_str) {
            let k = SCHEMES
                .iter()
                .position(|(label, _)| *label == scheme)
                .unwrap_or_else(|| panic!("unknown scheme label {scheme}"));
            spans_per_scheme[k] += 1;
            span_pages_read += v
                .get("io_pages_read")
                .and_then(Value::as_u64)
                .expect("io_pages_read field");
        }
    }
    assert!(marks >= 3 * 3, "every run has 3 marks, got {marks}");
    for (k, (label, _)) in SCHEMES.iter().enumerate() {
        assert!(spans_per_scheme[k] > 0, "no spans for {label}");
    }
    assert_eq!(
        span_pages_read, disk_total.pages_read,
        "span-annotated page reads must sum to the disks' total"
    );

    // 6. The metrics dump round-trips as JSON and carries the histograms.
    let dump = json::parse(&snap.to_json()).expect("metrics dump parses");
    assert!(dump.get("counters").is_some());
    assert!(dump.get("gauges").is_some());
    let hists = dump.get("histograms").expect("histograms section");
    assert!(
        hists.get("simdisk.seek_us").is_some(),
        "seek histogram present"
    );
}

#[test]
fn sink_disabled_runs_keep_counting() {
    obs::reset();
    assert!(!obs::sink_installed());
    let mut db = Db::paper_default();
    let base = db.io_stats();
    let (mut obj, _) =
        build_object(&mut db, &ManagerSpec::eos(16), 200_000, 16 * 1024).expect("build");
    obj.insert(&mut db, 1_000, b"counted").expect("insert");
    assert_eq!(span_io_counters(), db.io_stats() - base);
    let snap = obs::snapshot();
    assert_eq!(snap.counter("op.eos.create"), 1);
    assert!(snap.counter("op.eos.append") > 0);
    assert_eq!(snap.counter("op.eos.insert"), 1);
}
