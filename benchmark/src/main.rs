//! `lobbench`: lobstore's one benchmark. Four closed-loop, single-client
//! workloads at the paper's scale against the engine's public API; see
//! `benchmark/README.md`.

mod aa;
mod aged;
mod check;
mod contention;
mod edit;
mod harness;
mod layers;
mod ops;
mod probe;
mod recovery;
mod report;
mod rng;
mod scan;
mod stats;
mod trace;
mod versioned;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{run_end_to_end, EndToEnd, SETUPS};
use layers::{run_traced, Layers, TracedRun};
use report::{per_layer, result_line, WORKLOADS};

/// Seconds the measured phase runs when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;
/// The regression bound of the `*_ops_per_s` metrics in `BENCHMARK.json`.
const OPS_BOUND: f64 = 0.25;

fn end_to_end(
    workload: &str,
    seed: u64,
    seconds: f64,
    setups: usize,
    sink: bool,
) -> Option<EndToEnd> {
    Some(match workload {
        "scan" => run_end_to_end::<scan::Scan>(seed, seconds, setups, sink),
        "probe" => run_end_to_end::<probe::Probe>(seed, seconds, setups, sink),
        "edit" => run_end_to_end::<edit::Edit>(seed, seconds, setups, sink),
        "versioned" => run_end_to_end::<versioned::Versioned>(seed, seconds, setups, sink),
        _ => return None,
    })
}

fn traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Option<std::io::Result<TracedRun>> {
    fn nothing<W>(_: &W, _: &mut Layers) {}
    Some(match workload {
        "scan" => run_traced::<scan::Scan>(seed, seconds, out, nothing),
        "probe" => run_traced::<probe::Probe>(seed, seconds, out, nothing),
        "edit" => run_traced::<edit::Edit>(seed, seconds, out, nothing),
        "versioned" => run_traced::<versioned::Versioned>(seed, seconds, out, |w, layers| {
            layers.set(
                "core.mvcc.deferred_pages_peak",
                w.deferred_pages_peak as f64,
            );
            layers.set(
                "core.alloclog.chain_pages_peak",
                w.log_chain_pages_peak as f64,
            );
            // eos: one pin held over Starburst churn would defer
            // hundreds of megabytes.
            let (shared, root, size) = w.shared(1);
            contention::probe(1, &shared, root, size, layers);
        }),
        _ => return None,
    })
}

fn print_end_to_end(workload: &str, seed: u64, run: &EndToEnd) {
    println!(
        "{workload}: seed {seed}, {} rounds, shortest timed segment {:.2} ms",
        run.rounds, run.min_segment_ms
    );
    for (name, value, unit) in &run.metrics {
        println!("  {name:<16} {value:>16.6} {unit}");
    }
    println!(
        "  {:<16} {:>16.6} ratio ({} of {})",
        "fail_share",
        run.tally.failed as f64 / run.tally.attempted.max(1) as f64,
        run.tally.failed,
        run.tally.attempted
    );
}

/// `--selfcheck`: with an obs sink installed (one that discards its
/// lines) every call through an observed handle serializes a span.
/// `probe`, whose calls are a microsecond of engine work, must slow at
/// least twofold (8x / 4.5x / 2.8x for esm / eos / sb at this commit;
/// the tree schemes also walk their index for the span's size field);
/// `scan`'s `eos`/`sb`, which make few calls and copy megabytes, must
/// stay within bound (1.1x). Shows that the numbers follow the engine's
/// work and that the two workloads separate the layers.
fn selfcheck(seed: u64) -> bool {
    const SECONDS: f64 = 4.0;
    let mut ok = true;
    for workload in ["probe", "scan"] {
        let run = |sink| end_to_end(workload, seed, SECONDS, 1, sink).expect("known workload");
        let (plain, sunk) = (run(false), run(true));
        ok &= plain.complete && sunk.complete && plain.tally.failed + sunk.tally.failed == 0;
        for ((name, before, unit), (_, after, _)) in plain.metrics.iter().zip(&sunk.metrics) {
            if !name.ends_with("_ops_per_s") {
                continue;
            }
            let verdict = match (workload, *name) {
                ("probe", _) if before / after >= 2.0 => "ok: at least 2x slower",
                ("probe", _) => "FAIL: less than 2x slower",
                (_, "esm_ops_per_s") => "not judged",
                _ if *after >= before * (1.0 - OPS_BOUND) => "ok: within bound",
                _ => "FAIL: beyond bound",
            };
            ok &= !verdict.starts_with("FAIL");
            println!(
                "{workload:<6} {name:<14} {before:>14.1} -> {after:>14.1} {unit} with sink ({:.2}x)  {verdict}",
                before / after
            );
        }
    }
    ok
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = number(value)?,
            "--seconds" => parsed.seconds = number(value)?.clamp(1, 60) as f64,
            // `--trace 0|1`, or `--trace <workload>` for the traced run of one.
            "--trace" => match value.as_str() {
                "0" => parsed.trace = false,
                "1" => parsed.trace = true,
                name => {
                    parsed.trace = true;
                    parsed.workload = Some(name.to_string());
                }
            },
            "--out-dir" => parsed.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(recovery::CHILD_FLAG) => {
            return ExitCode::from(recovery::child(&args[1..]) as u8);
        }
        Some("--selfcheck") => {
            let seed = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
            return ExitCode::from(u8::from(!selfcheck(seed)));
        }
        Some("--aa-compare") => {
            let (Some(dir), Some(json)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: lobbench --aa-compare <dir> <BENCHMARK.json>");
                return ExitCode::from(2);
            };
            return ExitCode::from(u8::from(!aa::compare(Path::new(dir), Path::new(json))));
        }
        _ => {}
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lobbench: {e}");
            eprintln!(
                "usage: lobbench [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1|name>] [--out-dir <dir>]"
            );
            return ExitCode::from(2);
        }
    };

    // One workload a process: `rss_peak_mb` is the process's high-water
    // mark. (`run.sh` without a workload runs the four in turn.)
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("lobbench: --workload <name> is required; one of {WORKLOADS:?}");
        return ExitCode::from(2);
    };

    if args.trace {
        let run = match traced(workload, args.seed, args.seconds, &args.out_dir).expect("checked") {
            Ok(run) => run,
            Err(e) => {
                eprintln!("lobbench: cannot write the trace: {e}");
                return ExitCode::from(1);
            }
        };
        println!(
            "{workload}: seed {}, traced run of {} rounds, {} spans; files in {}",
            args.seed,
            run.rounds,
            run.spans,
            args.out_dir.display()
        );
        let metrics: Vec<(String, f64, &str)> = per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = run.layers.values.get(&name).copied().unwrap_or(0.0);
                println!("  {name:<42} {value:>16.4} {unit}");
                (name, value, unit)
            })
            .collect();
        for line in &run.layers.recovery {
            println!("  recovery attempt: {line}");
        }
        println!("{}", result_line(&run.tally, run.complete, &metrics));
    } else {
        let run = end_to_end(workload, args.seed, args.seconds, SETUPS, false).expect("checked");
        print_end_to_end(workload, args.seed, &run);
        let metrics: Vec<(String, f64, &str)> = run
            .metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), value, unit))
            .collect();
        println!("{}", result_line(&run.tally, run.complete, &metrics));
    }
    ExitCode::SUCCESS
}
