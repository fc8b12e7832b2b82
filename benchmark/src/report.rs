//! The metric catalogue and the result line. `BENCHMARK.json` at the
//! root of the repository lists the same names; a unit test keeps the
//! two in step.

use lobstore_obs::json::Value;

use crate::harness::{Tally, SCHEMES};

pub const WORKLOADS: [&str; 4] = ["scan", "probe", "edit", "versioned"];

/// End-to-end metrics, the same for every workload: name and unit.
/// (`fail_share` is always 0 here, and the result line carries it as
/// `failed` over `attempted`.)
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("esm_ops_per_s", "ops/s"),
    ("eos_ops_per_s", "ops/s"),
    ("sb_ops_per_s", "ops/s"),
    ("read_mb_per_s", "MB/s"),
    ("sim_ms_per_op", "ms"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics: name and unit. `{s}` stands for each scheme.
const PER_LAYER: &[(&str, &str)] = &[
    ("simdisk.read_calls_per_op", "count"),
    ("simdisk.write_calls_per_op", "count"),
    ("simdisk.pages_read_per_op", "pages"),
    ("simdisk.pages_written_per_op", "pages"),
    ("simdisk.read_ns_per_page", "ns"),
    ("simdisk.write_ns_per_page", "ns"),
    ("simdisk.call_ns", "ns"),
    ("simdisk.replay_share", "ratio"),
    ("bufpool.hit_ratio", "ratio"),
    ("bufpool.misses_per_op", "count"),
    ("bufpool.eviction_writes_per_op", "count"),
    ("bufpool.dirty_writebacks_per_op", "pages"),
    ("bufpool.fix_hit_ns", "ns"),
    ("bufpool.fix_miss_ns", "ns"),
    ("bufpool.read_segment_buffered_ns", "ns"),
    ("bufpool.read_segment_direct_ns_per_page", "ns"),
    ("bufpool.read_segment_3step_ns", "ns"),
    ("bufpool.flush_range_ns_per_page", "ns"),
    ("bufpool.est_share", "ratio"),
    ("buddy.alloc_ns", "ns"),
    ("buddy.free_ns", "ns"),
    ("buddy.alloc_aged_ns", "ns"),
    ("buddy.leaf_frag_ratio_end", "ratio"),
    ("buddy.leaf_largest_free_run_pages", "pages"),
    ("buddy.est_share", "ratio"),
    ("core.{s}.locate_ns", "ns"),
    ("core.tree.descents_per_op", "count"),
    ("core.tree.depth_avg", "count"),
    ("core.nodecache.hit_ratio", "ratio"),
    ("core.nodecache.evictions_per_op", "count"),
    ("core.{s}.read_p50_us", "us"),
    ("core.{s}.read_p99_us", "us"),
    ("core.{s}.insert_p50_us", "us"),
    ("core.{s}.insert_p99_us", "us"),
    ("core.{s}.delete_p50_us", "us"),
    ("core.{s}.delete_p99_us", "us"),
    ("core.{s}.create_mb_per_s", "MB/s"),
    ("core.{s}.scan_streamed_mb_per_s", "MB/s"),
    ("core.{s}.scan_bulk_mb_per_s", "MB/s"),
    ("core.shadow.pages_per_op", "pages"),
    ("core.shadow.fresh_pages_per_op", "pages"),
    ("core.seg.reads_per_op", "count"),
    ("core.seg.writes_per_op", "count"),
    ("core.mvcc.{s}.commit_p50_us", "us"),
    ("core.mvcc.{s}.commit_p99_us", "us"),
    ("core.mvcc.pin_release_ns", "ns"),
    ("core.mvcc.release_reclaim_p99_us", "us"),
    ("core.mvcc.deferred_pages_peak", "pages"),
    ("core.mvcc.pages_archived_per_txn", "pages"),
    ("core.alloclog.records_per_txn", "count"),
    ("core.alloclog.chain_pages_peak", "pages"),
    ("core.alloclog.checkpoint_p50_us", "us"),
    ("core.alloclog.replay_ms", "ms"),
    ("core.alloclog.recover_ok_share", "ratio"),
    ("core.shared.with_ns", "ns"),
    ("core.shared.with_read_ns", "ns"),
    ("core.shared.read_waits", "count"),
    ("core.shared.write_waits", "count"),
    ("core.shared.scan_mb_per_s_alone", "MB/s"),
    ("core.shared.scan_mb_per_s_vs_writer", "MB/s"),
    ("core.shared.txn_per_s_vs_scanner", "1/s"),
    ("obs.counter_add_ns", "ns"),
    ("obs.histogram_record_ns", "ns"),
    ("obs.span_ns", "ns"),
    ("obs.snapshot_us", "us"),
    ("obs.calls_per_op", "count"),
    ("obs.est_share", "ratio"),
    ("harness.timer_ns", "ns"),
    ("harness.trace_overhead_share", "ratio"),
];

/// The 93 per-layer names with their units, `{s}` expanded.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for &(name, unit) in PER_LAYER {
        if name.contains("{s}") {
            out.extend(SCHEMES.iter().map(|s| (name.replace("{s}", s), unit)));
        } else {
            out.push((name.to_string(), unit));
        }
    }
    out
}

/// Letters, digits, `_`, `.`, `-`; starts with a letter or digit; at
/// most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The one JSON object a run prints as the last line of its standard
/// output.
pub fn result_line(tally: &Tally, complete: bool, metrics: &[(String, f64, &str)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let fields = vec![
                ("value".to_string(), Value::Num(*value)),
                ("unit".to_string(), Value::from(*unit)),
            ];
            (name.clone(), Value::Obj(fields))
        })
        .collect();
    Value::Obj(vec![
        (
            "correct".to_string(),
            Value::Bool(complete && tally.failed == 0),
        ),
        ("attempted".to_string(), Value::from(tally.attempted.max(1))),
        ("failed".to_string(), Value::from(tally.failed)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobstore_obs::json;

    fn benchmark_json() -> Value {
        json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_has_93_valid_unique_layer_names() {
        let names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 93);
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for n in names
            .iter()
            .map(String::as_str)
            .chain(END_TO_END.map(|(n, _)| n))
        {
            assert!(valid_name(n), "{n}");
        }
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)) && !valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_what_is_printed_and_the_reverse() {
        let doc = benchmark_json();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), ours);
        let ours: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), ours);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(crate::RUN_SECONDS)
        );
        // `--selfcheck` judges scan's eos/sb by the bound of the ops metrics.
        for m in doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("array")
        {
            if m.get("name")
                .and_then(Value::as_str)
                .is_some_and(|n| n.ends_with("_ops_per_s"))
            {
                assert_eq!(
                    m.get("bound").and_then(Value::as_num),
                    Some(crate::OPS_BOUND)
                );
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 10,
            failed: 0,
        };
        let line = result_line(&tally, true, &[("setup_s".to_string(), 1.25, "s")]);
        let doc = json::parse(&line).expect("parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Value::as_num), Some(1.25));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
        assert!(!line.contains('\n'));
    }
}
