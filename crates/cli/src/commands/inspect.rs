//! `ocelotl inspect <trace>` — detail one aggregate of the optimal
//! partition (the paper's §VI interaction: retrieve the data behind a
//! rectangle of the overview). A thin client of the query protocol: one
//! `Inspect` request, one printed reply.

use crate::args::Args;
use crate::helpers::{open_engine, SESSION_OPTS};
use crate::proto::{print_reply, request_from_args};
use crate::CliError;
use std::io::Write;
use std::path::Path;

const HELP: &str = "\
ocelotl inspect <trace|model.omm> --leaf N --slice K [options]

Find the aggregate of the optimal partition covering microscopic cell
(leaf N, slice K) and print its aggregated state proportions, mode and
information measures.

OPTIONS:
    --leaf N         leaf resource index (required)
    --slice K        time slice index (required)
    --slices N       time slices of the microscopic model (default 30)
    --p F            trade-off parameter in [0, 1] (default 0.5)
    --metric M       states | density (default states)
    --cache DIR      persist session artifacts so the next run is warm
                     (default: OCELOTL_CACHE_DIR); --no-cache disables
    --cache-keep N   artifacts kept per trace and kind before GC (default 4)
    --coarse         prefer the coarsest partition among pIC ties
    --json           print the reply as protocol JSON instead of text
";

/// Entry point.
pub fn run(tokens: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(tokens)?;
    if args.has("help") {
        out.write_all(HELP.as_bytes())?;
        return Ok(());
    }
    let mut known = vec!["help", "leaf", "slice", "p", "coarse"];
    known.extend(SESSION_OPTS);
    args.expect_known(&known)?;
    let path = Path::new(args.positional(0, "trace file")?);
    let request = request_from_args("inspect", &args)?;

    let mut engine = open_engine(&args, path)?;
    // Out-of-range cells are InvalidRequest like any bad parameter (exit
    // 2) — the same code the `ocelotl query` client produces for the
    // identical protocol error.
    let reply = engine.execute(&request)?;
    if args.has("json") {
        writeln!(out, "{}", ocelotl::format::encode_reply(&Ok(reply)))?;
        return Ok(());
    }
    print_reply(&reply, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::fixture_trace;

    fn run_ok(line: String) -> String {
        let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        run(&tokens, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn inspects_the_anomalous_cell() {
        let p = fixture_trace("inspect");
        // Leaf 3 waits during slices 4..7 of the 10-slice fixture.
        let text = run_ok(format!(
            "{} --slices 10 --leaf 3 --slice 5 --p 0.3",
            p.display()
        ));
        assert!(text.contains("mode:"));
        assert!(text.contains("MPI_Wait"), "expected wait mode:\n{text}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn out_of_range_leaf_rejected() {
        let p = fixture_trace("inspect-range");
        let tokens: Vec<String> = format!("{} --slices 10 --leaf 99 --slice 0", p.display())
            .split_whitespace()
            .map(String::from)
            .collect();
        let mut out = Vec::new();
        // Usage error (exit 2), identical to the remote `ocelotl query`
        // exit semantics for the same protocol error.
        assert!(matches!(run(&tokens, &mut out), Err(CliError::Usage(_))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn leaf_and_slice_are_required() {
        let p = fixture_trace("inspect-req");
        let tokens: Vec<String> = format!("{}", p.display())
            .split_whitespace()
            .map(String::from)
            .collect();
        let mut out = Vec::new();
        assert!(matches!(run(&tokens, &mut out), Err(CliError::Usage(_))));
        std::fs::remove_file(&p).ok();
    }
}
