//! A/A comparison for `aa.sh`: two sets of runs of the same tree on the
//! same seed must agree within the bounds `BENCHMARK.json` fixes, the
//! counts the engine keeps must repeat exactly, and a second seed must
//! change those counts while no timed metric gets worse than the two
//! sets' median by more than its bound.

use std::path::Path;

use lobstore_obs::json::{self, Value};

use crate::report::WORKLOADS;
use crate::stats::{median, quartiles};

/// Metrics that are counts kept by the engine, not times.
const EXACT: [&str; 3] = ["sim_ms_per_op", "write_amp", "space_amp"];

struct Metric {
    name: String,
    bound: f64,
    higher_is_better: bool,
}

fn metrics_of(benchmark_json: &Value) -> Option<Vec<Metric>> {
    benchmark_json
        .get("end_to_end")?
        .as_arr()?
        .iter()
        .map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_string(),
                bound: m.get("bound")?.as_num()?,
                higher_is_better: m.get("better")?.as_str()? == "higher",
            })
        })
        .collect()
}

/// The correct result objects in `<dir>/<set>-<workload>-*.json`, in
/// file-name order.
fn results(dir: &Path, set: &str, workload: &str) -> Vec<Value> {
    let prefix = format!("{set}-{workload}-");
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&prefix) && n.ends_with(".json"))
        .collect();
    names.sort();
    names
        .iter()
        .filter_map(|n| json::parse(&std::fs::read_to_string(dir.join(n)).ok()?).ok())
        .filter(|doc| doc.get("correct") == Some(&Value::Bool(true)))
        .collect()
}

fn values(results: &[Value], metric: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|doc| doc.get("metrics")?.get(metric)?.get("value")?.as_num())
        .collect()
}

/// Share by which `b` is worse than `a`.
fn worse_by(m: &Metric, a: f64, b: f64) -> f64 {
    if m.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Print the comparison; true when every check holds.
pub fn compare(dir: &Path, benchmark_json: &Path) -> bool {
    let Some(metrics) = std::fs::read_to_string(benchmark_json)
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .as_ref()
        .and_then(metrics_of)
    else {
        eprintln!("aa: cannot read {}", benchmark_json.display());
        return false;
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let [a, b, c] = ["a", "b", "c"].map(|set| results(dir, set, workload));
        println!("{workload}");
        println!(
            "  {:<16} {:>14} {:>14} {:>14} {:>14} {:>8} {:>7}  verdict",
            "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B worse", "bound"
        );
        for m in &metrics {
            let [a, b, c] = [&a, &b, &c].map(|set| values(set, &m.name));
            if a.len() < 2 || b.len() < 2 || c.is_empty() {
                println!("  {:<16} missing or incorrect runs", m.name);
                ok = false;
                continue;
            }
            let exact = EXACT.contains(&m.name.as_str());
            let (ma, mb) = (median(&a), median(&b));
            let (qa, qb) = (quartiles(&a), quartiles(&b));
            let worse = worse_by(m, ma, mb).max(worse_by(m, mb, ma));
            let verdict = if exact {
                let same = a.iter().chain(&b).all(|&v| v == a[0]);
                let seed_moves_it = c[0] != a[0];
                match (same, seed_moves_it) {
                    (true, true) => "exact, seed moves it",
                    (false, _) => "FAIL: differs between runs of one seed",
                    (_, false) => "FAIL: the second seed gives the same count",
                }
            } else if worse > m.bound {
                "FAIL: sets differ by more than the bound"
            } else if worse_by(m, median(&[a.as_slice(), b.as_slice()].concat()), c[0]) > m.bound {
                "FAIL: second seed worse by more than the bound"
            } else {
                "ok"
            };
            ok &= !verdict.starts_with("FAIL");
            println!(
                "  {:<16} {:>14.6} {:>14} {:>14.6} {:>14} {:>7.2}% {:>6.0}%  {verdict}",
                m.name,
                ma,
                format!("±{:.2}%", (qa.1 - qa.0) / ma * 50.0),
                mb,
                format!("±{:.2}%", (qb.1 - qb.0) / mb * 50.0),
                worse * 100.0,
                m.bound * 100.0,
            );
        }
    }
    ok
}
