//! `ocelotl aggregate <trace>` — compute and summarize the optimal
//! spatiotemporal partition.
//!
//! A thin client of the query protocol: builds one
//! [`AnalysisRequest::Aggregate`], executes it on the shared
//! [`QueryEngine`](ocelotl::core::QueryEngine), and prints the reply
//! through the one shared formatter (`proto::write_aggregate`) — the same
//! bytes a warm cached run or an `ocelotl serve` answer produces.

use crate::args::Args;
use crate::helpers::{open_engine, parse_window, SESSION_OPTS};
use crate::proto::{aggregate_request, write_aggregate};
use crate::CliError;
use ocelotl::core::query::{AnalysisReply, AnalysisRequest};
use std::io::Write;
use std::path::Path;

const HELP: &str = "\
ocelotl aggregate <trace|model.omm> [options]

Compute the hierarchy-and-order-consistent partition maximizing
pIC = p*gain - (1-p)*loss (the paper's Algorithm 1) and print its summary.
The gain/loss cube is sized by the problem: the DP reads the dense
O(|S||T|^2) matrices while they fit in 1 GiB, and evaluates cells from
O(|S||T||X|) prefix sums beyond (same answers either way).

OPTIONS:
    --slices N       time slices of the microscopic model (default 30)
    --p F            trade-off parameter in [0, 1] (default 0.5)
    --metric M       states | density (default states)
    --cache DIR      persist session artifacts (.omicro/.ocube/.opart) under
                     DIR so the next invocation is warm (default:
                     OCELOTL_CACHE_DIR)
    --no-cache       disable artifact caching even if the env var is set
    --cache-keep N   artifacts kept per trace and kind before GC
                     (default 4; OCELOTL_CACHE_KEEP)
    --coarse         prefer the coarsest partition among pIC ties
    --list N         also print the N most populated aggregates
    --compare        also score the paper's SIII.D baselines (1-D optima,
                     their product, microscopic, full) at the same p
    --diff-p F       quantify how the overview changes between p and F
                     (variation of information, NMI, Rand index)
    --tsv FILE       dump the partition as tab-separated rows
    --t0 T --t1 T    aggregate only the window [T0, T1] (snapped to the
                     hi-res grid) — a columnar (.octf) trace reads only
                     the chunks overlapping the window
    --json           print the reply as protocol JSON instead of text
";

/// Entry point.
pub fn run(tokens: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(tokens)?;
    if args.has("help") {
        out.write_all(HELP.as_bytes())?;
        return Ok(());
    }
    let mut known = vec![
        "help", "p", "coarse", "list", "compare", "diff-p", "tsv", "t0", "t1",
    ];
    known.extend(SESSION_OPTS);
    args.expect_known(&known)?;
    let path = Path::new(args.positional(0, "trace file")?);
    let window = parse_window(&args)?;
    let request = aggregate_request(&args)?;

    let mut engine = open_engine(&args, path)?;
    if let Some(range) = window {
        // Windowed analysis: re-slice into the window first, so the
        // aggregation below runs on the windowed model (a columnar trace
        // ingests only the overlapping chunks).
        let n_slices = args.get_or("slices", 30usize)?;
        engine.execute(&AnalysisRequest::Reslice {
            n_slices,
            range: Some(range),
        })?;
    }
    let reply = engine.execute(&request)?;
    let AnalysisReply::Aggregate(agg) = &reply else {
        unreachable!("aggregate request yields an aggregate reply");
    };

    if args.has("json") {
        // A requested TSV dump is written regardless of the output format
        // (like describe's .omm): --json changes what is printed — one
        // pure protocol line — not what side artifacts are produced.
        write_tsv(&args, agg, None)?;
        writeln!(out, "{}", ocelotl::format::encode_reply(&Ok(reply)))?;
        return Ok(());
    }

    let list: usize = match args.get("list")? {
        Some(n) => n
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid --list value {n:?}")))?,
        None => 0,
    };
    write_aggregate(agg, out, list)?;
    write_tsv(&args, agg, Some(out))?;
    Ok(())
}

/// Write the `--tsv` dump, if requested, confirming on `out` when given.
fn write_tsv(
    args: &Args,
    agg: &ocelotl::core::query::AggregateReply,
    out: Option<&mut dyn Write>,
) -> Result<(), CliError> {
    if let Some(tsv) = args.get("tsv")? {
        let mut body = String::from(
            "node\tfirst_slice\tlast_slice\tt0\tt1\tresources\tmode\tconfidence\tloss\tgain\n",
        );
        for r in &agg.areas {
            body.push_str(&format!(
                "{}\t{}\t{}\t{:.9}\t{:.9}\t{}\t{}\t{:.6}\t{:.9}\t{:.9}\n",
                r.path,
                r.first_slice,
                r.last_slice,
                r.t0,
                r.t1,
                r.n_resources,
                r.mode.as_deref().unwrap_or("-"),
                r.confidence,
                r.loss,
                r.gain,
            ));
        }
        std::fs::write(tsv, body)?;
        if let Some(out) = out {
            writeln!(out, "\nwrote {tsv} ({} rows)", agg.summary.n_areas)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::{fixture_trace, Metric};

    fn run_ok(line: String) -> String {
        let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        run(&tokens, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn aggregates_fixture() {
        let p = fixture_trace("agg");
        let text = run_ok(format!("{} --slices 10 --p 0.4", p.display()));
        assert!(text.contains("aggregates:"));
        assert!(text.contains("4 resources x 10 slices"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn list_prints_area_details() {
        let p = fixture_trace("agg-list");
        let text = run_ok(format!("{} --slices 10 --list 3", p.display()));
        assert!(text.contains("top 3 aggregates"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn density_metric_accepted() {
        let p = fixture_trace("agg-density");
        let text = run_ok(format!("{} --slices 10 --metric density", p.display()));
        assert!(text.contains("density metric"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn coarse_never_increases_area_count() {
        let p = fixture_trace("agg-coarse");
        let plain = run_ok(format!("{} --slices 10 --p 0.3", p.display()));
        let coarse = run_ok(format!("{} --slices 10 --p 0.3 --coarse", p.display()));
        let count = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("aggregates:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .unwrap()
                .parse::<usize>()
                .unwrap()
        };
        assert!(count(&coarse) <= count(&plain));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn compare_scores_all_baselines() {
        let p = fixture_trace("agg-compare");
        let text = run_ok(format!("{} --slices 10 --p 0.4 --compare", p.display()));
        assert!(text.contains("baseline comparison"));
        assert!(text.contains("spatiotemporal (Algorithm 1)"));
        assert!(text.contains("microscopic"));
        // Algorithm 1's pIC must top the table.
        let pic_of = |needle: &str| {
            text.lines()
                .find(|l| l.starts_with(needle))
                .and_then(|l| l.split_whitespace().last())
                .unwrap()
                .parse::<f64>()
                .unwrap()
        };
        let best = pic_of("spatiotemporal");
        for b in ["product", "microscopic", "full"] {
            assert!(best >= pic_of(b) - 1e-9, "{b} beats Algorithm 1");
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn tsv_dump_has_one_row_per_area() {
        let p = fixture_trace("agg-tsv");
        let tsv = p.with_extension("tsv");
        let text = run_ok(format!(
            "{} --slices 10 --p 0.4 --tsv {}",
            p.display(),
            tsv.display()
        ));
        assert!(text.contains("wrote"));
        let content = std::fs::read_to_string(&tsv).unwrap();
        let n_areas: usize = text
            .lines()
            .find(|l| l.starts_with("aggregates:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(content.lines().count(), n_areas + 1, "header + rows");
        assert!(content.starts_with("node\tfirst_slice"));
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&tsv).ok();
    }

    #[test]
    fn omm_cache_input_accepted() {
        let p = fixture_trace("agg-omm");
        let trace = crate::helpers::load_trace(&p).unwrap();
        let model = crate::helpers::build_model(&trace, 10, Metric::States).unwrap();
        let omm = p.with_extension("omm");
        ocelotl::format::save_micro(&model, &omm).unwrap();
        let text = run_ok(format!("{} --p 0.4", omm.display()));
        assert!(
            text.contains("10 slices"),
            "grid comes from the cache:\n{text}"
        );
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&omm).ok();
    }

    #[test]
    fn diff_p_reports_similarity() {
        let p = fixture_trace("agg-diff");
        let same = run_ok(format!("{} --slices 10 --p 0.4 --diff-p 0.4", p.display()));
        assert!(same.contains("Rand index:               1.0000"), "{same}");
        let diff = run_ok(format!("{} --slices 10 --p 0.0 --diff-p 1.0", p.display()));
        assert!(diff.contains("variation of information"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn out_of_range_p_rejected() {
        let p = fixture_trace("agg-badp");
        let tokens: Vec<String> = format!("{} --p 2.0", p.display())
            .split_whitespace()
            .map(String::from)
            .collect();
        let mut out = Vec::new();
        assert!(matches!(run(&tokens, &mut out), Err(CliError::Usage(_))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn warm_cache_output_is_byte_identical_to_cold() {
        let p = fixture_trace("agg-warm");
        let cache = std::env::temp_dir().join(format!("ocelotl-agg-warm-{}", std::process::id()));
        std::fs::remove_dir_all(&cache).ok();
        let line = format!(
            "{} --slices 10 --p 0.4 --list 5 --cache {}",
            p.display(),
            cache.display()
        );
        // The one-formatter design means no provenance lines and no drift:
        // the warm run's bytes equal the cold run's bytes exactly.
        let cold = run_ok(line.clone());
        let warm = run_ok(line);
        assert_eq!(cold, warm);
        std::fs::remove_dir_all(&cache).ok();
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn output_bytes_are_pinned() {
        // Regression pin for the one aggregate formatter: any drift in
        // these bytes would desynchronize cold/warm/server output.
        let p = fixture_trace("agg-pinned");
        let text = run_ok(format!("{} --slices 10 --p 0.4 --list 2", p.display()));
        let expected = "model:       4 resources x 10 slices x 2 states (states metric)\n\
             p:           0.4\n\
             memory:      dense (0.0 MiB resident)\n\
             aggregates:  10 (of 40 microscopic cells)\n\
             complexity:  -75.00 %\n\
             information: loss 0.000000 bits (ratio 0.0000), gain 0.000000 bits (ratio -0.0000)\n\
             pIC:         0.000000\n\
             \n\
             top 2 aggregates by cell count:\n\
             node                            res  slices           mode   conf      loss      gain\n\
             n0.0                              2    0..9            Run   100%     0.000     0.000\n\
             n0.1/n2.0                         1    0..9            Run   100%     0.000     0.000\n";
        assert_eq!(text, expected, "aggregate formatting regression");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn windowed_aggregate_is_byte_identical_across_formats() {
        // The same `--t0/--t1` window aggregated from a row trace (full
        // ingest, window derived in memory) and from its columnar twin
        // (predicate pushdown, only overlapping chunks decoded) must
        // print the same bytes.
        let p = fixture_trace("agg-window");
        let trace = crate::helpers::load_trace(&p).unwrap();
        let octf = p.with_extension("octf");
        {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&octf).unwrap());
            ocelotl::format::write_columnar_chunked(&trace, &mut w, 8).unwrap();
            use std::io::Write as _;
            w.flush().unwrap();
        }
        let (lo, hi) = trace.time_range().unwrap();
        let mid = lo + (hi - lo) / 2.0;
        let row = run_ok(format!(
            "{} --slices 10 --p 0.4 --t0 {lo} --t1 {mid}",
            p.display()
        ));
        let col = run_ok(format!(
            "{} --slices 10 --p 0.4 --t0 {lo} --t1 {mid}",
            octf.display()
        ));
        assert_eq!(row, col, "windowed aggregate must not depend on format");
        // And the window genuinely narrows the model vs the full run.
        let full = run_ok(format!("{} --slices 10 --p 0.4", p.display()));
        assert_ne!(row, full, "the window must change the model");
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&octf).ok();
    }

    #[test]
    fn t0_without_t1_is_usage_error() {
        let p = fixture_trace("agg-halfwin");
        let tokens: Vec<String> = format!("{} --t0 1.0", p.display())
            .split_whitespace()
            .map(String::from)
            .collect();
        let mut out = Vec::new();
        assert!(matches!(run(&tokens, &mut out), Err(CliError::Usage(_))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn json_output_is_a_protocol_reply() {
        let p = fixture_trace("agg-json");
        let text = run_ok(format!("{} --slices 10 --p 0.4 --json", p.display()));
        let reply = ocelotl::format::decode_reply(text.trim()).unwrap().unwrap();
        assert_eq!(reply.kind(), "aggregate");
        std::fs::remove_file(&p).ok();
    }
}
