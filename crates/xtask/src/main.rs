//! `cargo xtask`-style workspace automation (std-only, no dependencies).
//!
//! One subcommand:
//!
//! * `loblint [--no-baseline] [--update-baseline] [--rule <name>]
//!   [--explain <rule>] [--stats]` — run the project-specific static
//!   analysis pass over every `.rs` source under the current directory
//!   (the workspace root). Findings frozen in `loblint.baseline` do not
//!   fail the run; new ones are printed, one `file:line: [rule] message`
//!   line each. Exit code 0 means no *new* findings, 1 means
//!   new findings were reported, 2 means the pass itself could not run
//!   (bad argument, unreadable files). `--no-baseline` reports every
//!   finding as new; `--update-baseline` regenerates the baseline
//!   deterministically (sorted) and reports resolved entries; `--rule`
//!   runs a single rule in isolation; `--explain` prints a rule's
//!   documentation entry and exits; `--stats` prints a per-rule
//!   finding-count and baseline-delta table.
//!
//! See `loblint::RULES` for the rule set and `DESIGN.md` ("Correctness
//! tooling" and "Static analysis") for the rationale.

mod loblint;
mod lobsyn;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("loblint") => {
            let mut opts = loblint::Opts::default();
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--stats" => opts.stats = true,
                    "--no-baseline" => opts.no_baseline = true,
                    "--update-baseline" => opts.update_baseline = true,
                    "--rule" | "--explain" => {
                        let Some(rule) = args.next() else {
                            eprintln!("loblint: {arg} needs an argument");
                            return ExitCode::from(2);
                        };
                        if arg == "--rule" {
                            opts.rule = Some(rule);
                        } else {
                            opts.explain = Some(rule);
                        }
                    }
                    other => {
                        eprintln!("loblint: unknown argument `{other}`");
                        return ExitCode::from(2);
                    }
                }
            }
            loblint::run(&opts)
        }
        Some(other) => {
            eprintln!("xtask: unknown subcommand `{other}` (try `loblint`)");
            ExitCode::from(2)
        }
        None => {
            eprintln!(
                "usage: cargo run -p xtask -- loblint [--no-baseline] [--update-baseline] \
                 [--rule <name>] [--explain <rule>] [--stats]"
            );
            ExitCode::from(2)
        }
    }
}
