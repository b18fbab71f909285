//! `ocelotl pvalues <trace>` — the significant trade-off levels (the stops
//! of Ocelotl's aggregation-strength slider). A thin client of the query
//! protocol: one `Significant` request (or `PValues` with `--bare`), one
//! printed reply; a warm `.opart` answers with zero DP runs.

use crate::args::Args;
use crate::helpers::{open_engine, SESSION_OPTS};
use crate::proto::{print_reply, request_from_args};
use crate::CliError;
use std::io::Write;
use std::path::Path;

const HELP: &str = "\
ocelotl pvalues <trace|model.omm> [options]

Enumerate the significant values of the gain/loss trade-off p: the points
where the optimal partition changes. Between two consecutive values the
overview is constant, so these are exactly the slider stops an analyst can
step through.

OPTIONS:
    --slices N       time slices of the microscopic model (default 30)
    --metric M       states | density (default states)
    --cache DIR      persist session artifacts so the next run is warm
                     (default: OCELOTL_CACHE_DIR); --no-cache disables
    --cache-keep N   artifacts kept per trace and kind before GC (default 4)
    --resolution F   dichotomy resolution on p (default 1e-3)
    --bare           print only the significant p boundary values
    --json           print the reply as protocol JSON instead of text
";

/// Entry point.
pub fn run(tokens: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(tokens)?;
    if args.has("help") {
        out.write_all(HELP.as_bytes())?;
        return Ok(());
    }
    let mut known = vec!["help", "resolution", "bare"];
    known.extend(SESSION_OPTS);
    args.expect_known(&known)?;
    let path = Path::new(args.positional(0, "trace file")?);
    let kind = if args.has("bare") {
        "pvalues"
    } else {
        "significant"
    };
    let request = request_from_args(kind, &args)?;

    let mut engine = open_engine(&args, path)?;
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
    fn lists_levels_with_monotone_area_counts() {
        let p = fixture_trace("pvalues");
        let text = run_ok(format!("{} --slices 10", p.display()));
        assert!(text.contains("significant levels"));
        let counts: Vec<usize> = text
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().nth(2))
            .filter_map(|c| c.parse().ok())
            .collect();
        assert!(!counts.is_empty());
        assert!(
            counts.windows(2).all(|w| w[1] <= w[0]),
            "area counts must not increase with p: {counts:?}"
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bare_lists_boundary_values() {
        let p = fixture_trace("pvalues-bare");
        let text = run_ok(format!("{} --slices 10 --bare", p.display()));
        assert!(text.contains("significant p values"), "{text}");
        let values: Vec<f64> = text
            .lines()
            .skip(1)
            .filter_map(|l| l.trim().parse().ok())
            .collect();
        assert!(!values.is_empty());
        assert!(values.windows(2).all(|w| w[0] <= w[1]), "ascending");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bad_resolution_rejected() {
        let p = fixture_trace("pvalues-res");
        let tokens: Vec<String> = format!("{} --resolution 0", p.display())
            .split_whitespace()
            .map(String::from)
            .collect();
        let mut out = Vec::new();
        assert!(matches!(run(&tokens, &mut out), Err(CliError::Usage(_))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn warm_run_is_byte_identical() {
        let p = fixture_trace("pvalues-warm");
        let cache = std::env::temp_dir().join(format!("ocelotl-pv-warm-{}", std::process::id()));
        std::fs::remove_dir_all(&cache).ok();
        let line = format!("{} --slices 10 --cache {}", p.display(), cache.display());
        let cold = run_ok(line.clone());
        let warm = run_ok(line);
        assert_eq!(cold, warm);
        std::fs::remove_dir_all(&cache).ok();
        std::fs::remove_file(&p).ok();
    }
}
