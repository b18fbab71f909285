//! # ocelotl-cli — command-line interface to the aggregation toolkit
//!
//! A single `ocelotl` binary exposing the full pipeline of the CLUSTER 2014
//! reproduction: simulate a workload, aggregate its trace, render the
//! spatiotemporal overview, list the significant aggregation levels,
//! inspect individual aggregates, and convert between trace formats.
//!
//! ```text
//! ocelotl simulate --case A --scale 0.01 --out trace.btf
//! ocelotl info trace.btf
//! ocelotl describe trace.btf --slices 30 --out trace.omm
//! ocelotl aggregate trace.omm --p 0.5 --compare
//! ocelotl pvalues trace.btf --slices 30
//! ocelotl sweep trace.btf --slices 30 --steps 20
//! ocelotl render trace.btf --p 0.5 --out overview.svg
//! ocelotl render trace.btf --p 0.5 --ascii
//! ocelotl inspect trace.btf --p 0.5 --leaf 3 --slice 12
//! ocelotl convert trace.btf trace.paje
//! ocelotl report trace.btf --out report.html
//! ```
//!
//! All subcommands are plain library functions writing to a caller-provided
//! sink, so the whole surface is unit-testable without spawning processes.
//! Every analysis command routes through one shared
//! [`ocelotl::core::AnalysisSession`](ocelotl::core::AnalysisSession):
//! with `--cache DIR` (or `OCELOTL_CACHE_DIR`) its artifacts persist, so
//! every command after the first is warm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod helpers;
pub mod proto;

use std::fmt;
use std::io::Write;

/// Errors surfaced to the terminal user.
#[derive(Debug)]
pub enum CliError {
    /// Wrong invocation (unknown command/option, missing argument).
    Usage(String),
    /// Well-formed invocation that cannot be satisfied (bad file, …).
    Invalid(String),
    /// Trace format error.
    Format(ocelotl::format::FormatError),
    /// I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Invalid(m) => write!(f, "error: {m}"),
            CliError::Format(e) => write!(f, "trace format error: {e}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ocelotl::format::FormatError> for CliError {
    fn from(e: ocelotl::format::FormatError) -> Self {
        CliError::Format(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<ocelotl::core::SessionError> for CliError {
    fn from(e: ocelotl::core::SessionError) -> Self {
        match e {
            ocelotl::core::SessionError::InvalidParam(m) => CliError::Usage(m),
            ocelotl::core::SessionError::Source(m) => CliError::Invalid(m),
        }
    }
}

impl CliError {
    /// Conventional process exit code (2 for usage, 1 otherwise).
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
ocelotl — spatiotemporal trace aggregation (CLUSTER 2014 reproduction)

USAGE:
    ocelotl <command> [arguments]

COMMANDS:
    simulate   run an MPI workload simulation and write its trace
    info       summarize a trace file
    describe   preprocess a trace into a cached microscopic model (.omm)
    aggregate  compute the optimal spatiotemporal partition
    pvalues    list the significant trade-off levels (the p slider stops)
    sweep      replay the quality/p interaction loop from a warm session
    render     draw the aggregated overview (SVG or ASCII) or a Gantt chart
    inspect    detail one aggregate of the optimal partition
    convert    convert between .btf / .ptf / .paje trace formats
    report     write a self-contained HTML analysis report
    serve      run a long-lived analysis server (query protocol over JSON)
    query      send one request to a running server and print the reply
    watch      subscribe to a live session and print each refreshed reply
    help       show this message (or `<command> --help`)

GLOBAL OPTIONS:
    --threads N      cap the executor at N threads (N = 1: sequential);
                     the OCELOTL_THREADS environment variable is the
                     default, for reproducible bench and CI runs

Analysis commands share --cache DIR / --no-cache (default: the
OCELOTL_CACHE_DIR environment variable): with a cache directory, the hi-res
intermediate (.omicro), the cube prefix sums (.ocube) and DP results
(.opart) persist across invocations, so every command after the first is
warm.

Run `ocelotl <command> --help` for per-command options.
";

/// Strip a global `--threads N` (anywhere in the argv) and return it.
fn extract_threads(argv: &[String]) -> Result<(Vec<String>, Option<usize>), CliError> {
    let Some(pos) = argv.iter().position(|a| a == "--threads") else {
        return Ok((argv.to_vec(), None));
    };
    let n: usize = argv
        .get(pos + 1)
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| CliError::Usage("--threads expects a thread count >= 1".into()))?;
    let mut rest = argv.to_vec();
    rest.drain(pos..=pos + 1);
    Ok((rest, Some(n)))
}

/// Dispatch a full argument vector (excluding the program name).
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (argv, threads) = extract_threads(argv)?;
    if let Some(n) = threads {
        rayon::set_max_threads(n);
    }
    let Some(command) = argv.first() else {
        return Err(CliError::Usage(
            "missing command (try `ocelotl help`)".into(),
        ));
    };
    let rest = &argv[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => {
            out.write_all(USAGE.as_bytes())?;
            Ok(())
        }
        "simulate" => commands::simulate::run(rest, out),
        "info" => commands::info::run(rest, out),
        "describe" => commands::describe::run(rest, out),
        "aggregate" => commands::aggregate::run(rest, out),
        "pvalues" => commands::pvalues::run(rest, out),
        "sweep" => commands::sweep::run(rest, out),
        "render" => commands::render::run(rest, out),
        "inspect" => commands::inspect::run(rest, out),
        "convert" => commands::convert::run(rest, out),
        "report" => commands::report::run(rest, out),
        "serve" => commands::serve::run(rest, out),
        "query" => commands::query::run(rest, out),
        "watch" => commands::watch::run(rest, out),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?} (try `ocelotl help`)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(line: &str) -> Result<String, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        run(&argv, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let text = run_str("help").unwrap();
        assert!(text.contains("COMMANDS"));
        assert!(text.contains("aggregate"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = run_str("frobnicate").unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn empty_argv_is_usage_error() {
        let err = run_str("").unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn error_display_variants() {
        let u = CliError::Usage("x".into());
        let i = CliError::Invalid("y".into());
        assert!(u.to_string().contains("usage"));
        assert!(i.to_string().contains("y"));
        assert_eq!(i.exit_code(), 1);
    }

    #[test]
    fn threads_flag_is_global_and_stripped() {
        let argv: Vec<String> = ["--threads", "2", "help"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (rest, n) = extract_threads(&argv).unwrap();
        assert_eq!(n, Some(2));
        assert_eq!(rest, vec!["help".to_string()]);
        // Also accepted after the subcommand, and applied to the executor.
        let text = run_str("help --threads 3").unwrap();
        assert!(text.contains("COMMANDS"));
        assert_eq!(rayon::max_threads(), 3);

        // Invalid counts are usage errors.
        for bad in ["help --threads", "help --threads 0", "help --threads x"] {
            assert!(matches!(run_str(bad), Err(CliError::Usage(_))), "{bad}");
        }
        // Restore a sane level for sibling tests in this process.
        rayon::set_max_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                * 2,
        );
    }

    #[test]
    fn session_error_maps_to_cli_error() {
        let e: CliError = ocelotl::core::SessionError::InvalidParam("p".into()).into();
        assert!(matches!(e, CliError::Usage(_)));
        let e: CliError = ocelotl::core::SessionError::source("boom").into();
        assert!(matches!(e, CliError::Invalid(_)));
    }
}
