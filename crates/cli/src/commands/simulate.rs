//! `ocelotl simulate` — run an MPI workload simulation and write its trace.
//!
//! With `--live`, the simulation is also *served while it runs*: events
//! stream into an appendable in-memory session published on a query
//! server, so `ocelotl watch` clients see refreshed aggregations as the
//! run progresses — and the final refresh is byte-identical to a
//! post-mortem analysis of the written trace file.

use crate::args::Args;
use crate::commands::serve::{spawn_live_tcp, ServeOptions};
use crate::helpers::save_trace;
use crate::CliError;
use ocelotl::core::query::{QueryEngine, QueryError};
use ocelotl::core::{hi_res_slices, AnalysisSession, HiResModel, LiveEvent, SessionConfig};
use ocelotl::mpisim::apps::{cg, ep, ft, lu, mg};
use ocelotl::mpisim::{scenario, CaseId, Engine, Network, Nic, Op, Platform};
use ocelotl::trace::{LeafId, MicroBuilder, TimeGrid};
use std::io::Write;
use std::path::Path;

const HELP: &str = "\
ocelotl simulate [options] --out FILE

Run a workload on the simulated platform and write the trace. Either a
Table II scenario (--case, with the paper's platform, calibrated event
counts and injected anomalies) or a standalone NPB kernel (--app) on a
uniform platform.

OPTIONS:
    --case C         Table II scenario: A | B | C | D
    --app K          kernel on a uniform platform: cg | lu | mg | ft | ep
    --machines N     machines of the uniform platform (default 4)
    --cores N        cores per machine (default 4)
    --scale F        iteration scale, 0 < F <= 1 (default 0.01; Table II only)
    --seed N         simulation seed (default 42)
    --out FILE       output trace (.btf / .ptf / .paje)

LIVE MODE (requires --case; trace output must be .btf):
    --live           aggregate while simulating: publish a live session on
                     a query server and stream refreshed replies to
                     `ocelotl watch` subscribers as the model grows
    --listen ADDR    TCP address the live server binds (e.g. 127.0.0.1:0)
    --socket PATH    Unix domain socket to bind instead of TCP (a stale
                     socket at PATH is replaced; any other file there is
                     kept, and the bind fails)
    --slices N       live session resolution (default 30); subscribers
                     must match it
    --name S         advertised live session name (default `live')
    --batch N        events folded per refresh (default 4096)
    --linger F       after the feed completes, keep serving for up to F
                     seconds (exits early once every subscriber that
                     connected has drained the final refresh)
";

/// Entry point.
pub fn run(tokens: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(tokens)?;
    if args.has("help") {
        out.write_all(HELP.as_bytes())?;
        return Ok(());
    }
    args.expect_known(&[
        "help", "case", "app", "machines", "cores", "scale", "seed", "out", "live", "listen",
        "socket", "slices", "name", "batch", "linger",
    ])?;
    if args.has("live") {
        return run_live(&args, out);
    }
    for opt in ["listen", "socket", "slices", "name", "batch", "linger"] {
        if args.has(opt) {
            return Err(CliError::Usage(format!("--{opt} requires --live")));
        }
    }
    let out_path = args.require::<String>("out")?;
    let out_path = Path::new(&out_path);
    let seed: u64 = args.get_or("seed", 42)?;

    let trace = match (args.get("case")?, args.get("app")?) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--case and --app are mutually exclusive".into(),
            ))
        }
        (Some(case), None) => {
            let case = parse_case(case)?;
            let scale: f64 = args.get_or("scale", 0.01)?;
            if !(scale > 0.0 && scale <= 1.0) {
                return Err(CliError::Usage(format!(
                    "--scale must lie in (0, 1], got {scale}"
                )));
            }
            let sc = scenario(case, scale);
            let (trace, stats) = sc.run(seed);
            writeln!(
                out,
                "case {} at scale {scale}: {} events, makespan {:.2} s",
                case.letter(),
                trace.event_count(),
                stats.makespan
            )?;
            trace
        }
        (None, Some(app)) => {
            let machines: usize = args.get_or("machines", 4)?;
            let cores: usize = args.get_or("cores", 4)?;
            if machines == 0 || cores == 0 {
                return Err(CliError::Usage(
                    "--machines/--cores must be positive".into(),
                ));
            }
            let platform = Platform::uniform(machines, cores, Nic::Infiniband20G);
            let network = Network::for_platform(&platform);
            let programs: Vec<Vec<Op>> = match app {
                "cg" => cg::build_programs(&platform, &cg::CgConfig::default().scaled(0.05)),
                "lu" => lu::build_programs(&platform, &lu::LuConfig::default().scaled(0.05)),
                "mg" => mg::build_programs(&platform, &mg::MgConfig::default()),
                "ft" => ft::build_programs(&platform, &ft::FtConfig::default()),
                "ep" => ep::build_programs(&platform, &ep::EpConfig::default()),
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown app {other:?} (cg|lu|mg|ft|ep)"
                    )))
                }
            };
            let (trace, stats) =
                Engine::new(&platform, &network, seed).run(programs, &[("app", app.to_string())]);
            writeln!(
                out,
                "{app} on {machines}x{cores}: {} events, makespan {:.2} s",
                trace.event_count(),
                stats.makespan
            )?;
            trace
        }
        (None, None) => {
            return Err(CliError::Usage("need --case or --app".into()));
        }
    };

    save_trace(&trace, out_path)?;
    let size = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    writeln!(out, "wrote {} ({size} bytes)", out_path.display())?;
    Ok(())
}

/// `--live`: simulate, stream every event into a BTF file *and* an
/// appendable live session published on a query server, in two passes:
///
/// 1. a scan run (same seed — the engine is deterministic, so it emits
///    the identical event sequence) establishes the time extent, from
///    which the live hi-res grid is declared exactly as a post-mortem
///    ingest of the finished file would declare it;
/// 2. the streaming run tees each interval to the trace writer and to
///    `LiveFeeder::feed` in `--batch`-sized refreshes.
///
/// Because the grid, the fold kernel and the fold order all match the
/// post-mortem path, the final subscribed reply is byte-identical to
/// analyzing the written file after the fact.
fn run_live(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let case = parse_case(
        args.get("case")?
            .ok_or_else(|| CliError::Usage("--live needs --case (scenario mode)".into()))?,
    )?;
    if args.has("app") {
        return Err(CliError::Usage("--live supports --case only".into()));
    }
    let scale: f64 = args.get_or("scale", 0.01)?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(CliError::Usage(format!(
            "--scale must lie in (0, 1], got {scale}"
        )));
    }
    let seed: u64 = args.get_or("seed", 42)?;
    let out_path = args.require::<String>("out")?;
    let out_path = Path::new(&out_path);
    if out_path.extension().and_then(|e| e.to_str()) != Some("btf") {
        return Err(CliError::Usage(
            "--live streams the trace as it runs, which needs a .btf output".into(),
        ));
    }
    let n_slices: usize = args.get_or("slices", 30)?;
    if n_slices < 1 {
        return Err(CliError::Usage("--slices must be at least 1".into()));
    }
    let batch: usize = args.get_or("batch", 4096usize)?.max(1);
    let linger: f64 = args.get_or("linger", 0.0f64)?;
    let name: String = args.get_or("name", "live".to_string())?;

    let sc = scenario(case, scale);

    // Pass 1: extent scan. Same seed, same engine, same event sequence —
    // only min/max times and the count are kept.
    let mut t_min = f64::INFINITY;
    let mut t_max = f64::NEG_INFINITY;
    let mut total = 0u64;
    sc.run_with_emit(seed, &mut |_rank, _sid, b, e| {
        t_min = t_min.min(b);
        t_max = t_max.max(e);
        total += 1;
    });
    if total == 0 || !t_min.is_finite() || !t_max.is_finite() || t_max <= t_min {
        return Err(CliError::Invalid(
            "simulation emitted no intervals to aggregate live".into(),
        ));
    }

    // Declare the live grid exactly as a post-mortem ingest of the
    // finished trace would: same extent, same hi-res period count.
    let (registry, _) = Engine::standard_states();
    let hierarchy = sc.platform.hierarchy();
    let h = hi_res_slices(n_slices, hierarchy.n_leaves(), registry.len());
    let grid = TimeGrid::new(t_min, t_max, h);
    let empty = MicroBuilder::new(hierarchy, registry, grid).finish();
    let config = SessionConfig {
        n_slices,
        ..SessionConfig::default()
    };
    let hi = HiResModel::new(config.metric, empty);
    let session = AnalysisSession::live(config, hi)?;
    let engine = QueryEngine::new(session);

    let (handle, feeder) = match (args.get("listen")?, args.get("socket")?) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--listen and --socket are mutually exclusive".into(),
            ))
        }
        (Some(addr), None) => spawn_live_tcp(addr, ServeOptions::default(), &name, engine)?,
        (None, Some(path)) => {
            #[cfg(unix)]
            {
                crate::commands::serve::spawn_live_unix(
                    path,
                    ServeOptions::default(),
                    &name,
                    engine,
                )?
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(CliError::Usage(
                    "--socket needs Unix domain sockets; use --listen ADDR".into(),
                ));
            }
        }
        (None, None) => {
            return Err(CliError::Usage(
                "--live needs --listen ADDR or --socket PATH".into(),
            ))
        }
    };
    writeln!(
        out,
        "live session {name:?} at {} ({total} events over [{t_min:.6}, {t_max:.6}] s, \
         {h} hi-res periods, {n_slices} slices)",
        handle.address()
    )?;
    out.flush()?;

    // Pass 2: the streaming run. Each interval goes to the BTF writer
    // (so the trace on disk is the live stream, byte for byte) and into
    // the feeder in `batch`-sized refreshes.
    let (registry, _) = Engine::standard_states();
    let hierarchy = sc.platform.hierarchy();
    let metadata: Vec<(String, String)> = vec![
        ("case".into(), case.letter().to_string()),
        ("site".into(), sc.platform.site.clone()),
        ("processes".into(), sc.platform.n_ranks.to_string()),
        ("scale".into(), format!("{scale}")),
    ];
    let mut writer =
        ocelotl::format::BtfStreamWriter::create(out_path, &hierarchy, &registry, &metadata)?;
    let mut io_error: Option<ocelotl::format::FormatError> = None;
    let mut feed_error: Option<QueryError> = None;
    let mut buf: Vec<LiveEvent> = Vec::with_capacity(batch);
    let stats = sc.run_with_emit(seed, &mut |rank, sid, b, e| {
        if io_error.is_none() {
            if let Err(err) = writer.write_interval(LeafId(rank), sid, b, e) {
                io_error = Some(err);
            }
        }
        if feed_error.is_none() {
            buf.push((LeafId(rank), sid, b, e));
            if buf.len() >= batch {
                if let Err(err) = feeder.feed(&buf) {
                    feed_error = Some(err);
                }
                buf.clear();
            }
        }
    });
    if feed_error.is_none() && !buf.is_empty() {
        if let Err(err) = feeder.feed(&buf) {
            feed_error = Some(err);
        }
    }
    feeder.finish();
    if let Some(err) = io_error {
        return Err(err.into());
    }
    writer.finish(&[])?;
    if let Some(err) = feed_error {
        return Err(CliError::Invalid(format!("live feed failed: {err}")));
    }
    let size = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    writeln!(
        out,
        "fed {} events in {} refreshes, makespan {:.2} s",
        feeder.events(),
        feeder.events().div_ceil(batch as u64),
        stats.makespan
    )?;
    writeln!(out, "wrote {} ({size} bytes)", out_path.display())?;
    out.flush()?;

    // Stay up so subscribers can drain the final refresh: exit as soon as
    // every subscription that ever started has ended, or when the linger
    // window (plus a grace period for stragglers) runs out.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(linger.max(0.0));
    loop {
        let now = std::time::Instant::now();
        let drained = feeder.subscribers() == 0;
        if drained && (feeder.served() > 0 || now >= deadline) {
            break;
        }
        if now >= deadline + std::time::Duration::from_secs(10) {
            break; // wedged subscriber: don't hold the process hostage
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    handle.stop();
    Ok(())
}

fn parse_case(s: &str) -> Result<CaseId, CliError> {
    match s.to_ascii_uppercase().as_str() {
        "A" => Ok(CaseId::A),
        "B" => Ok(CaseId::B),
        "C" => Ok(CaseId::C),
        "D" => Ok(CaseId::D),
        other => Err(CliError::Usage(format!("unknown case {other:?} (A|B|C|D)"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::load_trace;

    fn run_ok(line: String) -> String {
        let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        run(&tokens, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ocelotl-sim-{}-{name}", std::process::id()))
    }

    #[test]
    fn simulates_case_a() {
        let p = tmp("case-a.btf");
        let text = run_ok(format!("--case A --scale 0.005 --out {}", p.display()));
        assert!(text.contains("case A"));
        let trace = load_trace(&p).unwrap();
        assert!(trace.event_count() > 1000);
        assert_eq!(trace.meta("case"), Some("A"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn simulates_standalone_ep() {
        let p = tmp("ep.ptf");
        let text = run_ok(format!(
            "--app ep --machines 2 --cores 2 --out {}",
            p.display()
        ));
        assert!(text.contains("ep on 2x2"));
        let trace = load_trace(&p).unwrap();
        assert_eq!(trace.meta("app"), Some("ep"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn case_and_app_conflict() {
        let tokens: Vec<String> = "--case A --app ep --out x.btf"
            .split_whitespace()
            .map(String::from)
            .collect();
        let mut out = Vec::new();
        assert!(matches!(run(&tokens, &mut out), Err(CliError::Usage(_))));
    }

    #[test]
    #[cfg(unix)]
    fn live_final_refresh_matches_the_post_mortem_analysis() {
        use crate::commands::serve::{ServeOptions, ServerState};
        use ocelotl::core::query::AnalysisRequest;
        use ocelotl::core::SessionConfig;

        let btf = tmp("live-parity.btf");
        let sock = tmp("live-parity.sock");
        std::fs::remove_file(&sock).ok();

        // The publisher: simulate case A live on a Unix socket. It blocks
        // until every subscriber drained (or the linger window runs out),
        // so it runs on its own thread.
        let line = format!(
            "--case A --scale 0.002 --seed 7 --live --socket {} --out {} \
             --slices 10 --batch 512 --linger 30",
            sock.display(),
            btf.display()
        );
        let sim = std::thread::spawn(move || run_ok(line));

        // Subscribe as soon as the server is up, and keep only the final
        // refresh, bare-encoded.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while std::os::unix::net::UnixStream::connect(&sock).is_err() {
            assert!(
                std::time::Instant::now() < deadline,
                "live server never came up"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let tokens: Vec<String> = format!(
            "unix:{} live aggregate --p 0.5 --slices 10 --last --json",
            sock.display()
        )
        .split_whitespace()
        .map(String::from)
        .collect();
        let mut watched = Vec::new();
        crate::commands::watch::run(&tokens, &mut watched).unwrap();
        let watched = String::from_utf8(watched).unwrap();

        let sim_out = sim.join().unwrap();
        assert!(sim_out.contains("live session \"live\""), "{sim_out}");
        assert!(sim_out.contains("fed "), "{sim_out}");

        // Post-mortem: the same request against the trace the live run
        // wrote, through the ordinary disk-backed serve path. Same grid
        // declaration, same fold kernel, same fold order — so the final
        // subscribed reply must be byte-identical.
        let state = ServerState::new(ServeOptions::default());
        let post = state.handle_line(&ocelotl::format::encode_wire_request(
            &btf.display().to_string(),
            &SessionConfig {
                n_slices: 10,
                ..SessionConfig::default()
            },
            &AnalysisRequest::Aggregate {
                p: 0.5,
                coarse: false,
                compare: false,
                diff_p: None,
            },
        ));
        assert!(post.contains("\"reply\""), "{post}");
        assert_eq!(watched.trim_end(), post, "live != post-mortem");

        std::fs::remove_file(&btf).ok();
        std::fs::remove_file(&sock).ok();
    }

    #[test]
    fn live_only_options_require_live() {
        for line in [
            "--case A --out x.btf --listen 127.0.0.1:0",
            "--case A --out x.btf --batch 64",
        ] {
            let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
            let mut out = Vec::new();
            assert!(
                matches!(run(&tokens, &mut out), Err(CliError::Usage(_))),
                "{line}"
            );
        }
        // --live itself insists on a scenario, a .btf sink and a listener.
        for line in [
            "--live --app ep --out x.btf --listen 127.0.0.1:0",
            "--live --case A --out x.paje --listen 127.0.0.1:0",
            "--live --case A --out x.btf",
        ] {
            let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
            let mut out = Vec::new();
            assert!(
                matches!(run(&tokens, &mut out), Err(CliError::Usage(_))),
                "{line}"
            );
        }
    }

    #[test]
    fn bad_case_and_bad_scale_rejected() {
        for line in ["--case Z --out x.btf", "--case A --scale 2 --out x.btf"] {
            let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
            let mut out = Vec::new();
            assert!(
                matches!(run(&tokens, &mut out), Err(CliError::Usage(_))),
                "{line}"
            );
        }
    }
}
