//! `ocelotl report <trace>` — self-contained HTML analysis report,
//! generated purely from protocol replies: one `Describe`, one
//! `Significant`, and one `RenderOverview` per displayed level. A warm
//! `.opart` serves the level table with zero DP runs; the rendered levels
//! re-use memoized partitions once their `p` has been queried.

use crate::args::Args;
use crate::helpers::{open_engine, SESSION_OPTS};
use crate::CliError;
use ocelotl::core::query::{AnalysisReply, AnalysisRequest, OverviewReply};
use ocelotl::viz::{html_report_from_replies, pick_level_indices, ReportOptions};
use std::io::Write;
use std::path::Path;

const HELP: &str = "\
ocelotl report <trace|model.omm> [options]

Write a self-contained HTML report: the quality curve over the significant
aggregation levels plus embedded overviews at representative strengths.

OPTIONS:
    --slices N       time slices of the microscopic model (default 30)
    --metric M       states | density (default states)
    --cache DIR      persist session artifacts so the next run is warm
                     (default: OCELOTL_CACHE_DIR); --no-cache disables
    --cache-keep N   artifacts kept per trace and kind before GC (default 4)
    --out FILE       output path (default: <input>.report.html)
    --levels N       overviews embedded in the report (default 4)
    --title S        report title (default: input file name)
";

/// Entry point.
pub fn run(tokens: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(tokens)?;
    if args.has("help") {
        out.write_all(HELP.as_bytes())?;
        return Ok(());
    }
    let mut known = vec!["help", "out", "levels", "title"];
    known.extend(SESSION_OPTS);
    args.expect_known(&known)?;
    if args.has("json") {
        return Err(CliError::Usage(
            "report writes an HTML document; there is no --json reply form \
             (query the underlying kinds — describe, significant, \
             render-overview — individually)"
                .into(),
        ));
    }
    let path = Path::new(args.positional(0, "trace file")?);
    let levels: usize = args.get_or("levels", 4)?;
    let title = match args.get("title")? {
        Some(t) => t.to_string(),
        None => path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".into()),
    };

    let mut engine = open_engine(&args, path)?;
    let opts = ReportOptions {
        title,
        rendered_levels: levels,
        ..ReportOptions::default()
    };

    let AnalysisReply::Describe(describe) = engine.execute(&AnalysisRequest::Describe)? else {
        unreachable!()
    };
    let AnalysisReply::Significant(significant) =
        engine.execute(&AnalysisRequest::Significant {
            resolution: opts.p_resolution,
        })?
    else {
        unreachable!()
    };

    // One RenderOverview per displayed level, at the midpoint of its
    // stability interval; `level_resolution` makes the engine reuse the
    // level's stored partition, so rendering adds zero DP runs.
    let min_rows = 2.0 / (opts.height / describe.shape.n_leaves as f64);
    let mut overviews: Vec<OverviewReply> = Vec::new();
    for idx in pick_level_indices(significant.levels.len(), opts.rendered_levels) {
        let l = &significant.levels[idx];
        let p = 0.5 * (l.p_low + l.p_high);
        let AnalysisReply::Overview(ov) = engine.execute(&AnalysisRequest::RenderOverview {
            p,
            coarse: false,
            min_rows,
            level_resolution: Some(opts.p_resolution),
        })?
        else {
            unreachable!()
        };
        overviews.push(ov);
    }

    let opts = ReportOptions {
        time_range: Some((describe.shape.t_start, describe.shape.t_end)),
        ..opts
    };
    let html = html_report_from_replies(&describe, &significant, &overviews, &opts);
    let out_path = match args.get("out")? {
        Some(o) => std::path::PathBuf::from(o),
        None => path.with_extension("report.html"),
    };
    std::fs::write(&out_path, html)?;
    writeln!(out, "wrote {}", out_path.display())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::fixture_trace;

    #[test]
    fn writes_html_report() {
        let p = fixture_trace("report");
        let html = p.with_extension("html");
        let tokens: Vec<String> = format!(
            "{} --slices 10 --out {} --levels 2",
            p.display(),
            html.display()
        )
        .split_whitespace()
        .map(String::from)
        .collect();
        let mut out = Vec::new();
        run(&tokens, &mut out).unwrap();
        let content = std::fs::read_to_string(&html).unwrap();
        assert!(content.contains("<html") || content.contains("<!DOCTYPE"));
        assert!(content.contains("Significant levels"));
        assert!(content.matches("<svg").count() >= 2, "curve + overviews");
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&html).ok();
    }

    #[test]
    fn warm_report_is_byte_identical_to_cold() {
        let p = fixture_trace("report-warm");
        let html = p.with_extension("html");
        let cache =
            std::env::temp_dir().join(format!("ocelotl-report-warm-{}", std::process::id()));
        std::fs::remove_dir_all(&cache).ok();
        let tokens: Vec<String> = format!(
            "{} --slices 10 --out {} --levels 2 --cache {}",
            p.display(),
            html.display(),
            cache.display()
        )
        .split_whitespace()
        .map(String::from)
        .collect();
        let mut out = Vec::new();
        run(&tokens, &mut out).unwrap();
        let cold = std::fs::read_to_string(&html).unwrap();
        run(&tokens, &mut out).unwrap();
        let warm = std::fs::read_to_string(&html).unwrap();
        assert_eq!(cold, warm, "cached levels must render identically");
        std::fs::remove_dir_all(&cache).ok();
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&html).ok();
    }
}
