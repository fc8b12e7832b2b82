//! `cargo xtask`-style workspace automation (std-only, no dependencies).
//!
//! Subcommands:
//!
//! * `loblint [--json] [--out <path>] [--root <dir>] [--baseline <path>]
//!   [--no-baseline] [--update-baseline] [--rule <name>]
//!   [--explain <rule>] [--stats]` — run the project-specific static analysis
//!   pass over every workspace `.rs` source. Findings frozen in
//!   `loblint.baseline` are reported but do not fail the run; exit
//!   code 0 means no *new* findings, 1 means new findings were
//!   reported, 2 means the pass itself could not run (bad root,
//!   unreadable files). `--update-baseline` regenerates the baseline
//!   deterministically (sorted) and reports resolved entries.
//!   `--rule` runs a single rule in isolation; `--explain` prints a
//!   rule's documentation entry and exits; `--stats` prints a per-rule
//!   finding-count and baseline-delta table.
//! * `check-lint-json <path>` — validate a `loblint --json` document
//!   against the `loblint-findings/v2` schema (same exit codes).
//! * `lint-sarif <path> [--out <path>]` — convert a `loblint --json`
//!   document to SARIF 2.1.0 for code-scanning UIs; validates both the
//!   input (v2 schema) and the emitted SARIF before writing.
//! * `check-bench-json <path>` — validate a bench binary's `--json-out`
//!   document against the `lobstore-bench-report/v1` schema.
//!
//! See `loblint::RULES` for the rule set and `DESIGN.md` ("Correctness
//! tooling" and "Static analysis") for the rationale.

mod benchjson;
mod effectrules;
mod flowrules;
mod lintjson;
mod lobflow;
mod loblint;
mod lobsyn;
mod sarif;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("loblint") => {
            let mut opts = loblint::Opts {
                root: PathBuf::from("."),
                json: false,
                out: None,
                baseline: None,
                no_baseline: false,
                update_baseline: false,
                rule: None,
                explain: None,
                stats: false,
            };
            let mut rest = args;
            while let Some(arg) = rest.next() {
                let mut value_arg = |name: &str| match rest.next() {
                    Some(v) => Ok(v),
                    None => {
                        eprintln!("loblint: {name} needs an argument");
                        Err(ExitCode::from(2))
                    }
                };
                match arg.as_str() {
                    "--json" => opts.json = true,
                    "--stats" => opts.stats = true,
                    "--no-baseline" => opts.no_baseline = true,
                    "--update-baseline" => opts.update_baseline = true,
                    "--root" => match value_arg("--root") {
                        Ok(p) => opts.root = PathBuf::from(p),
                        Err(c) => return c,
                    },
                    "--out" => match value_arg("--out") {
                        Ok(p) => opts.out = Some(PathBuf::from(p)),
                        Err(c) => return c,
                    },
                    "--baseline" => match value_arg("--baseline") {
                        Ok(p) => opts.baseline = Some(PathBuf::from(p)),
                        Err(c) => return c,
                    },
                    "--rule" => match value_arg("--rule") {
                        Ok(r) => opts.rule = Some(r),
                        Err(c) => return c,
                    },
                    "--explain" => match value_arg("--explain") {
                        Ok(r) => opts.explain = Some(r),
                        Err(c) => return c,
                    },
                    other => {
                        eprintln!("loblint: unknown argument `{other}`");
                        return ExitCode::from(2);
                    }
                }
            }
            loblint::run(&opts)
        }
        Some("check-lint-json") => match args.next() {
            Some(path) => lintjson::run(std::path::Path::new(&path)),
            None => {
                eprintln!("check-lint-json: needs the path of a loblint --json document");
                ExitCode::from(2)
            }
        },
        Some("lint-sarif") => {
            let mut input = None;
            let mut out = None;
            let mut rest = args;
            while let Some(arg) = rest.next() {
                if arg == "--out" {
                    match rest.next() {
                        Some(p) => out = Some(PathBuf::from(p)),
                        None => {
                            eprintln!("lint-sarif: --out needs an argument");
                            return ExitCode::from(2);
                        }
                    }
                } else if input.is_none() {
                    input = Some(PathBuf::from(arg));
                } else {
                    eprintln!("lint-sarif: unexpected argument `{arg}`");
                    return ExitCode::from(2);
                }
            }
            match input {
                Some(path) => sarif::run(&path, out.as_deref()),
                None => {
                    eprintln!("lint-sarif: needs the path of a loblint --json document");
                    ExitCode::from(2)
                }
            }
        }
        Some("check-bench-json") => match args.next() {
            Some(path) => benchjson::run(std::path::Path::new(&path)),
            None => {
                eprintln!("check-bench-json: needs the path of a --json-out report");
                ExitCode::from(2)
            }
        },
        Some(other) => {
            eprintln!(
                "xtask: unknown subcommand `{other}` (try `loblint`, `check-lint-json`, \
                 `lint-sarif`, `check-bench-json`)"
            );
            ExitCode::from(2)
        }
        None => {
            eprintln!(
                "usage: cargo run -p xtask -- loblint [--json] [--out <path>] [--root <dir>] \
                 [--baseline <path>] [--no-baseline] [--update-baseline] [--rule <name>] \
                 [--explain <rule>] [--stats]\n       \
                 cargo run -p xtask -- check-lint-json <path>\n       \
                 cargo run -p xtask -- lint-sarif <path> [--out <path>]\n       \
                 cargo run -p xtask -- check-bench-json <path>"
            );
            ExitCode::from(2)
        }
    }
}
