//! `ocelotl render <trace>` — draw the aggregated overview (SVG/ASCII) or
//! the microscopic Gantt chart. The overview is a thin client of the
//! query protocol: one `RenderOverview` request returns a complete
//! drawable scene, which the viz crate renders without any cube access —
//! the same reply a remote `ocelotl serve` answer carries. Only `--gantt`
//! reads raw events.

use crate::args::Args;
use crate::helpers::{is_micro_cache, load_trace, open_engine, SESSION_OPTS};
use crate::proto::request_from_args;
use crate::CliError;
use ocelotl::core::query::{AnalysisReply, AnalysisRequest};
use ocelotl::viz::{
    clutter_metrics, render_gantt_svg, render_reply_ascii, render_reply_svg, AsciiOptions,
    SvgOptions,
};
use std::io::Write;
use std::path::Path;

const HELP: &str = "\
ocelotl render <trace|model.omm> [options]

Render the aggregated spatiotemporal overview as SVG (default) or ASCII,
or the microscopic Gantt chart (--gantt) to see why it does not scale.

OPTIONS:
    --slices N       time slices of the microscopic model (default 30)
    --p F            trade-off parameter in [0, 1] (default 0.5)
    --metric M       states | density (default states)
    --cache DIR      persist session artifacts so the next run is warm
                     (default: OCELOTL_CACHE_DIR); --no-cache disables
    --cache-keep N   artifacts kept per trace and kind before GC (default 4)
    --coarse         prefer the coarsest partition among pIC ties
    --out FILE       write SVG here (default: overview.svg next to input)
    --ascii          print an ASCII overview to stdout instead of SVG
    --width N        canvas width (pixels, or columns with --ascii)
    --height N       canvas height (pixels, or rows with --ascii)
    --gantt          render the microscopic Gantt chart + clutter metrics
    --json           print the overview reply as protocol JSON
";

/// The default minimum drawable aggregate height, in pixels.
const MIN_PIXEL_HEIGHT: f64 = 2.0;

/// Entry point.
pub fn run(tokens: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(tokens)?;
    if args.has("help") {
        out.write_all(HELP.as_bytes())?;
        return Ok(());
    }
    let mut known = vec![
        "help", "p", "coarse", "out", "ascii", "width", "height", "gantt",
    ];
    known.extend(SESSION_OPTS);
    args.expect_known(&known)?;
    let path = Path::new(args.positional(0, "trace file")?);

    if args.has("gantt") {
        if is_micro_cache(path) {
            return Err(CliError::Usage(
                "--gantt needs the raw trace (a .omm cache has no events)".into(),
            ));
        }
        if args.has("json") {
            return Err(CliError::Usage(
                "--gantt draws from raw events and has no protocol reply; \
                 --json applies to the overview path only"
                    .into(),
            ));
        }
        let trace = load_trace(path)?;
        let width: f64 = args.get_or("width", 1920.0)?;
        let height: f64 = args.get_or("height", 1080.0)?;
        let report = clutter_metrics(&trace, width as usize, height as usize);
        writeln!(out, "gantt clutter at {width}x{height}:")?;
        writeln!(out, "  drawable objects:   {}", report.n_objects)?;
        writeln!(
            out,
            "  sub-pixel fraction: {:.2} %",
            100.0 * report.sub_pixel_fraction
        )?;
        writeln!(out, "  mean overdraw:      {:.2}", report.mean_overdraw)?;
        writeln!(
            out,
            "  entity budget:      {}",
            if report.satisfies_entity_budget() {
                "satisfied"
            } else {
                "violated (this is the paper's Fig. 2 point)"
            }
        )?;
        let svg_path = output_path(&args, path, "gantt.svg")?;
        match render_gantt_svg(&trace, width, height, 2_000_000) {
            Ok(svg) => {
                std::fs::write(&svg_path, svg)?;
                writeln!(out, "wrote {}", svg_path.display())?;
            }
            Err(e) => writeln!(out, "gantt SVG skipped: {e}")?,
        }
        return Ok(());
    }

    // One protocol request carries everything the renderers need. The
    // visual-aggregation threshold depends on the canvas geometry, so it
    // is resolved here (client-side) and shipped with the request.
    let ascii = args.has("ascii");
    let (width, height): (f64, f64) = if ascii {
        (args.get_or("width", 96.0)?, args.get_or("height", 24.0)?)
    } else {
        (args.get_or("width", 960.0)?, args.get_or("height", 480.0)?)
    };
    let mut engine = open_engine(&args, path)?;
    // min_rows needs |S|; a Describe answers it from the (possibly warm)
    // cube without reading the trace.
    let n_leaves = match engine.execute(&AnalysisRequest::Describe)? {
        AnalysisReply::Describe(d) => d.shape.n_leaves,
        _ => unreachable!(),
    };
    let pixel_height = if ascii { 480.0 } else { height };
    let min_rows = MIN_PIXEL_HEIGHT / (pixel_height / n_leaves as f64);
    let mut request = request_from_args("render-overview", &args)?;
    if let AnalysisRequest::RenderOverview {
        min_rows: ref mut m,
        ..
    } = request
    {
        *m = min_rows;
    }
    let reply = engine.execute(&request)?;
    if args.has("json") {
        writeln!(out, "{}", ocelotl::format::encode_reply(&Ok(reply)))?;
        return Ok(());
    }
    let AnalysisReply::Overview(ov) = &reply else {
        unreachable!("render-overview yields an overview reply");
    };

    if ascii {
        let opts = AsciiOptions {
            width: width as usize,
            height: height as usize,
        };
        out.write_all(render_reply_ascii(ov, &opts).as_bytes())?;
        return Ok(());
    }

    let svg = render_reply_svg(
        ov,
        &SvgOptions {
            width,
            height,
            time_range: Some((ov.t_start, ov.t_end)),
            ..SvgOptions::default()
        },
    );
    let svg_path = output_path(&args, path, "overview.svg")?;
    std::fs::write(&svg_path, svg)?;
    writeln!(out, "wrote {}", svg_path.display())?;
    Ok(())
}

/// `--out` or `<input stem>.<suffix>` next to the input.
fn output_path(args: &Args, input: &Path, suffix: &str) -> Result<std::path::PathBuf, CliError> {
    Ok(match args.get("out")? {
        Some(o) => std::path::PathBuf::from(o),
        None => input.with_extension(suffix),
    })
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
    fn ascii_renders_to_stdout() {
        let p = fixture_trace("render-ascii");
        let text = run_ok(format!(
            "{} --slices 10 --ascii --width 40 --height 4",
            p.display()
        ));
        assert!(text.contains("legend:"));
        assert!(text.contains('|'));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn svg_written_to_out() {
        let p = fixture_trace("render-svg");
        let svg = p.with_extension("svg");
        let text = run_ok(format!(
            "{} --slices 10 --p 0.4 --out {}",
            p.display(),
            svg.display()
        ));
        assert!(text.contains("wrote"));
        let content = std::fs::read_to_string(&svg).unwrap();
        assert!(content.starts_with("<svg") || content.contains("<svg"));
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&svg).ok();
    }

    #[test]
    fn gantt_reports_clutter() {
        let p = fixture_trace("render-gantt");
        let text = run_ok(format!("{} --gantt --width 200 --height 100", p.display()));
        assert!(text.contains("drawable objects"));
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(p.with_extension("gantt.svg")).ok();
    }

    #[test]
    fn default_svg_path_derives_from_input() {
        let p = fixture_trace("render-default");
        let text = run_ok(format!("{} --slices 10", p.display()));
        let expected = p.with_extension("overview.svg");
        assert!(text.contains(&expected.display().to_string()));
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&expected).ok();
    }

    #[test]
    fn warm_svg_is_byte_identical_to_cold() {
        let p = fixture_trace("render-warm");
        let svg = p.with_extension("svg");
        let cache =
            std::env::temp_dir().join(format!("ocelotl-render-warm-{}", std::process::id()));
        std::fs::remove_dir_all(&cache).ok();
        let line = format!(
            "{} --slices 10 --p 0.4 --out {} --cache {}",
            p.display(),
            svg.display(),
            cache.display()
        );
        run_ok(line.clone());
        let cold = std::fs::read_to_string(&svg).unwrap();
        run_ok(line);
        let warm = std::fs::read_to_string(&svg).unwrap();
        assert_eq!(cold, warm, "cached partition must render identically");
        std::fs::remove_dir_all(&cache).ok();
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&svg).ok();
    }

    #[test]
    fn json_output_carries_the_scene() {
        let p = fixture_trace("render-json");
        let text = run_ok(format!("{} --slices 10 --p 0.4 --json", p.display()));
        let reply = ocelotl::format::decode_reply(text.trim()).unwrap().unwrap();
        let ocelotl::core::AnalysisReply::Overview(ov) = reply else {
            panic!("expected overview reply");
        };
        assert_eq!(ov.n_leaves, 4);
        assert_eq!(ov.n_slices, 10);
        std::fs::remove_file(&p).ok();
    }
}
