//! `ocelotl describe <trace>` — run the preprocessing pipeline (trace
//! reading + microscopic description, the two expensive rows of the
//! paper's Table II) once and cache the result as an `.omm` file.
//!
//! Subsequent `aggregate` / `render` / `pvalues` / `inspect` / `report`
//! invocations accept the `.omm` directly and skip straight to the
//! aggregation stage — the paper's "50 min preprocess, then instantaneous
//! interaction" economy made durable across sessions.
//!
//! The printed summary is a `Describe` protocol reply; writing the `.omm`
//! itself is host-side work the command does through the engine's session.

use crate::args::Args;
use crate::helpers::{is_micro_cache, open_engine};
use crate::proto::write_describe;
use crate::CliError;
use ocelotl::core::query::{AnalysisReply, AnalysisRequest};
use std::io::Write;
use std::path::Path;

const HELP: &str = "\
ocelotl describe <trace> [options]

Read a trace, reduce it to the microscopic model, and cache the model as
an .omm file. Analysis commands accept the .omm in place of the trace and
skip the (dominant) reading stage.

OPTIONS:
    --slices N       time slices of the microscopic model (default 30)
    --metric M       states | density (default states)
    --out FILE       output path (default: <input>.omm)
    --json           print the Describe reply as protocol JSON (the same
                     bytes `ocelotl serve` answers for this request)
";

/// Entry point.
pub fn run(tokens: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(tokens)?;
    if args.has("help") {
        out.write_all(HELP.as_bytes())?;
        return Ok(());
    }
    args.expect_known(&["help", "slices", "metric", "out", "json"])?;
    let path = Path::new(args.positional(0, "trace file")?);
    if is_micro_cache(path) {
        return Err(CliError::Usage(
            "input is already a model cache (.omm); pass the trace file".into(),
        ));
    }

    let mut engine = open_engine(&args, path)?;
    let reply = engine.execute(&AnalysisRequest::Describe)?;

    let out_path = match args.get("out")? {
        Some(o) => std::path::PathBuf::from(o),
        None => path.with_extension("omm"),
    };
    ocelotl::format::save_micro(engine.session().model()?, &out_path)?;
    let size = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);

    if args.has("json") {
        writeln!(out, "{}", ocelotl::format::encode_reply(&Ok(reply)))?;
        return Ok(());
    }
    let AnalysisReply::Describe(d) = &reply else {
        unreachable!("describe request yields a describe reply");
    };
    write_describe(d, out)?;
    writeln!(out, "wrote {} ({size} bytes)", out_path.display())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::{fixture_trace, obtain_model, Metric};

    #[test]
    fn describe_then_reload_matches_direct_build() {
        let p = fixture_trace("describe");
        let omm = p.with_extension("omm");
        let tokens: Vec<String> = format!("{} --slices 10 --out {}", p.display(), omm.display())
            .split_whitespace()
            .map(String::from)
            .collect();
        let mut out = Vec::new();
        run(&tokens, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("model:"), "{text}");
        assert!(text.contains("wrote"), "{text}");

        // Reload through the generic path and compare against a direct build.
        let cached = obtain_model(&omm, 99, Metric::States).unwrap();
        let trace = crate::helpers::load_trace(&p).unwrap();
        let direct = crate::helpers::build_model(&trace, 10, Metric::States).unwrap();
        assert_eq!(cached.n_slices(), direct.n_slices());
        assert_eq!(cached.n_leaves(), direct.n_leaves());
        assert!((cached.grand_total() - direct.grand_total()).abs() < 1e-9);
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&omm).ok();
    }

    #[test]
    fn json_reply_round_trips_and_still_writes_omm() {
        let p = fixture_trace("describe-json");
        let omm = p.with_extension("omm");
        let tokens: Vec<String> =
            format!("{} --slices 10 --out {} --json", p.display(), omm.display())
                .split_whitespace()
                .map(String::from)
                .collect();
        let mut out = Vec::new();
        run(&tokens, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let reply = ocelotl::format::decode_reply(text.trim()).unwrap().unwrap();
        assert_eq!(reply.kind(), "describe");
        assert!(omm.exists(), ".omm written in --json mode too");
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&omm).ok();
    }
}
