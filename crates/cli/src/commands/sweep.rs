//! `ocelotl sweep <trace>` — replay the paper's §V.B interaction loop:
//! one `Sweep` request enumerating the significant quality/p levels and
//! re-running the DP across a p grid.
//!
//! This is where "instantaneous interaction" lives: with a warm `.ocube`
//! the only work per grid point is the DP itself (no trace read, no
//! slicing, no prefix sums), and with a warm `.opart` the whole reply
//! arrives with zero DP runs. The printed tables come from the
//! deterministic reply; the wall-clock and DP-run lines are the command's
//! own measurement of this process (they are *not* part of the reply, so
//! every other byte is identical across cold, warm and server paths).

use crate::args::Args;
use crate::helpers::{open_engine, SESSION_OPTS};
use crate::proto::{request_from_args, write_sweep};
use crate::CliError;
use ocelotl::core::query::AnalysisReply;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const HELP: &str = "\
ocelotl sweep <trace|model.omm> [options]

Replay the SV.B quality/p curves: enumerate the significant aggregation
levels (with per-level quality), then optionally re-aggregate across an
even p grid — the paper's interaction loop as one protocol request.

OPTIONS:
    --slices N       time slices of the microscopic model (default 30)
    --slices-range L comma-separated slice counts (e.g. 30,60,120): run the
                     sweep at each resolution over ONE session — after the
                     first ingest every re-slice is served from the resident
                     hi-res model (or warm artifacts), zero extra disk passes
    --metric M       states | density (default states)
    --cache DIR      persist session artifacts so the next run is warm
                     (default: OCELOTL_CACHE_DIR); --no-cache disables
    --cache-keep N   artifacts kept per trace and kind before GC (default 4)
    --resolution F   dichotomy resolution on p (default 1e-3)
    --steps N        also re-aggregate at N+1 evenly spaced p values
                     (default 0: skip)
    --json           print the reply as protocol JSON instead of text
";

/// Entry point.
pub fn run(tokens: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(tokens)?;
    if args.has("help") {
        out.write_all(HELP.as_bytes())?;
        return Ok(());
    }
    let mut known = vec!["help", "resolution", "steps", "slices-range"];
    known.extend(SESSION_OPTS);
    args.expect_known(&known)?;
    let path = Path::new(args.positional(0, "trace file")?);
    let request = request_from_args("sweep", &args)?;

    // `--slices-range A,B,…`: the §V.B refinement loop at varying
    // resolution — one session, re-sliced in memory between sweeps.
    let slice_counts: Vec<usize> = match args.get("slices-range")? {
        Some(list) => {
            let parsed: Result<Vec<usize>, _> =
                list.split(',').map(|t| t.trim().parse::<usize>()).collect();
            let counts = parsed
                .map_err(|_| CliError::Usage(format!("invalid --slices-range value {list:?}")))?;
            if counts.is_empty() || counts.contains(&0) {
                return Err(CliError::Usage(
                    "--slices-range expects comma-separated counts >= 1".into(),
                ));
            }
            counts
        }
        None => Vec::new(),
    };

    let mut engine = open_engine(&args, path)?;
    let t0 = Instant::now();
    let mut replies = Vec::new();
    if slice_counts.is_empty() {
        replies.push((None, engine.execute(&request)?));
    } else {
        for &n in &slice_counts {
            let reslice = engine.execute(&ocelotl::core::query::AnalysisRequest::Reslice {
                n_slices: n,
                range: None,
            })?;
            replies.push((Some((n, reslice)), engine.execute(&request)?));
        }
    }
    let elapsed = t0.elapsed();
    let dp_runs = engine.session().dp_runs();

    if args.has("json") {
        // Each resolution emits its reslice reply line (identifying the
        // slicing) followed by the sweep reply line, so the JSON stream
        // carries everything the text headers do.
        for (reslice, reply) in replies {
            if let Some((_, reslice)) = reslice {
                writeln!(out, "{}", ocelotl::format::encode_reply(&Ok(reslice)))?;
            }
            writeln!(out, "{}", ocelotl::format::encode_reply(&Ok(reply)))?;
        }
        return Ok(());
    }
    let mut queries = 0;
    for (i, (n, reply)) in replies.iter().enumerate() {
        let AnalysisReply::Sweep(sweep) = reply else {
            unreachable!("sweep request yields a sweep reply");
        };
        if let Some((n, _)) = n {
            if i > 0 {
                writeln!(out)?;
            }
            writeln!(out, "== {n} slices ==")?;
        }
        write_sweep(sweep, out)?;
        queries += sweep.levels.len() + sweep.points.len();
    }
    writeln!(
        out,
        "\ntiming: {} queries in {:.1} ms ({})",
        queries,
        elapsed.as_secs_f64() * 1e3,
        if dp_runs == 0 {
            "warm .opart, zero DP runs".to_string()
        } else {
            format!("{dp_runs} DP runs")
        }
    )?;
    Ok(())
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
    fn sweeps_levels_and_grid() {
        let p = fixture_trace("sweep");
        let text = run_ok(format!("{} --slices 10 --steps 4", p.display()));
        assert!(text.contains("significant"), "{text}");
        assert!(text.contains("sweep grid (5 points)"), "{text}");
        assert!(text.contains("DP runs"), "{text}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn warm_sweep_serves_everything_from_cache() {
        let p = fixture_trace("sweep-warm");
        let cache = std::env::temp_dir().join(format!("ocelotl-sweep-warm-{}", std::process::id()));
        std::fs::remove_dir_all(&cache).ok();
        let line = format!(
            "{} --slices 10 --steps 4 --cache {}",
            p.display(),
            cache.display()
        );
        let cold = run_ok(line.clone());
        let warm = run_ok(line);
        assert!(warm.contains("warm .opart, zero DP runs"), "{warm}");
        // Everything except the local timing line is byte-identical.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("timing:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&cold), strip(&warm));
        std::fs::remove_dir_all(&cache).ok();
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn slices_range_sweeps_multiple_resolutions_in_one_session() {
        let p = fixture_trace("sweep-range");
        let text = run_ok(format!("{} --slices-range 10,20 --steps 2", p.display()));
        assert!(text.contains("== 10 slices =="), "{text}");
        assert!(text.contains("== 20 slices =="), "{text}");
        assert!(text.contains("timing:"), "{text}");

        // The JSON stream identifies each resolution: one reslice reply
        // line precedes each sweep reply line.
        let json = run_ok(format!(
            "{} --slices-range 10,20 --steps 2 --json",
            p.display()
        ));
        let kinds: Vec<String> = json
            .lines()
            .map(|l| {
                ocelotl::format::decode_reply(l)
                    .unwrap()
                    .unwrap()
                    .kind()
                    .to_string()
            })
            .collect();
        assert_eq!(kinds, ["reslice", "sweep", "reslice", "sweep"], "{json}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bad_slices_range_rejected() {
        let p = fixture_trace("sweep-badrange");
        for bad in ["x", "10,0", ""] {
            let tokens: Vec<String> =
                vec![p.display().to_string(), "--slices-range".into(), bad.into()];
            let mut out = Vec::new();
            assert!(
                matches!(run(&tokens, &mut out), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bad_resolution_rejected() {
        let p = fixture_trace("sweep-res");
        let tokens: Vec<String> = format!("{} --resolution 1.5", p.display())
            .split_whitespace()
            .map(String::from)
            .collect();
        let mut out = Vec::new();
        assert!(matches!(run(&tokens, &mut out), Err(CliError::Usage(_))));
        std::fs::remove_file(&p).ok();
    }
}
