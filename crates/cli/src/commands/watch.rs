//! `ocelotl watch` — subscribe to a live session on a running server and
//! print every refreshed reply as the model grows. The streaming
//! counterpart of `ocelotl query`: same request builders, same printers,
//! wrapped in the protocol's `subscribe` request.

use crate::args::Args;
use crate::helpers::{session_config, SESSION_OPTS};
use crate::proto::{print_reply, request_from_args};
use crate::CliError;
use ocelotl::core::query::{AnalysisReply, AnalysisRequest};
use std::io::{BufRead, BufReader, Write};

const HELP: &str = "\
ocelotl watch <addr> <name> <kind> [options]

Subscribe to a live session on a running server (one publishing a live
feed, e.g. `ocelotl simulate --live`) and print a refreshed reply every
time the model advances, until the feed completes. <addr> is host:port
(TCP) or unix:/path/to.sock; <name> is the live session's advertised
name (default `live`); <kind> and its options are the same request kinds
`ocelotl query` accepts, except `reslice` (a subscription answers at
the live session's published resolution).

The session parameters (--slices, --metric) must match the live
session's pinned parameters; mismatches are refused up front.

OPTIONS (beyond the per-kind request options of `ocelotl query`):
    --last      print only the final refresh (after the feed completes)
    --json      print raw reply lines; with --last, the final reply is
                re-encoded bare (unwrapped), byte-identical to the same
                `ocelotl query --json` answer against the finished trace
";

/// Decoded stream outcome: every watch refresh in arrival order.
fn stream_replies(addr: &str, line: &str) -> Result<Vec<String>, CliError> {
    fn drain<S: std::io::Read + Write>(
        mut stream: S,
        reader: S,
        line: &str,
    ) -> Result<Vec<String>, CliError> {
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        let mut replies = Vec::new();
        for reply in BufReader::new(reader).lines() {
            let reply = reply?;
            if reply.trim().is_empty() {
                continue;
            }
            replies.push(reply.trim_end().to_string());
        }
        Ok(replies)
    }
    if let Some(path) = addr.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            use std::os::unix::net::UnixStream;
            let stream = UnixStream::connect(path)
                .map_err(|e| CliError::Invalid(format!("cannot connect to {path}: {e}")))?;
            let reader = stream.try_clone()?;
            drain(stream, reader, line)
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Err(CliError::Usage(
                "unix: addresses need Unix domain sockets; use host:port".into(),
            ))
        }
    } else {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| CliError::Invalid(format!("cannot connect to {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        let reader = stream.try_clone()?;
        drain(stream, reader, line)
    }
}

/// Entry point.
pub fn run(tokens: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(tokens)?;
    if args.has("help") {
        out.write_all(HELP.as_bytes())?;
        return Ok(());
    }
    let mut known = vec![
        "help",
        "p",
        "coarse",
        "compare",
        "diff-p",
        "resolution",
        "steps",
        "leaf",
        "slice",
        "min-rows",
        "last",
    ];
    known.extend(SESSION_OPTS);
    args.expect_known(&known)?;
    let addr = args.positional(0, "server address")?;
    let name = args.positional(1, "live session name (as published by the server)")?;
    let kind = args.positional(2, "request kind")?;

    let inner = request_from_args(kind, &args)?;
    let request = AnalysisRequest::Subscribe {
        inner: Box::new(inner),
    };
    let config = session_config(&args)?;
    let line = ocelotl::format::encode_wire_request(name, &config, &request);

    let last_only = args.has("last");
    let json = args.has("json");
    let mut final_watch = None;
    let mut got_done = false;
    for reply_line in stream_replies(addr, &line)? {
        let watch = match ocelotl::format::decode_reply(&reply_line)? {
            Err(e) => return Err(e.into()),
            Ok(AnalysisReply::Watch(w)) => w,
            Ok(_) => {
                return Err(CliError::Invalid(
                    "server sent a non-watch reply on a subscription".into(),
                ))
            }
        };
        got_done = watch.done;
        if last_only {
            final_watch = Some(watch);
        } else if json {
            writeln!(out, "{reply_line}")?;
        } else {
            print_reply(&AnalysisReply::Watch(watch), out)?;
        }
        if got_done {
            break;
        }
    }
    if !got_done {
        return Err(CliError::Invalid(
            "subscription ended before the final refresh (server gone or feed aborted)".into(),
        ));
    }
    if let Some(w) = final_watch {
        if json {
            // Re-encode the *inner* reply bare: byte-identical to the
            // post-mortem `ocelotl query ... --json` answer for the same
            // request against the completed trace.
            writeln!(out, "{}", ocelotl::format::encode_reply(&Ok(*w.reply)))?;
        } else {
            print_reply(&w.reply, out)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::serve::{spawn_live_tcp, LiveFeeder, ServeOptions, ServerHandle};
    use ocelotl::core::query::QueryEngine;
    use ocelotl::core::{AnalysisSession, HiResModel, Metric, SessionConfig};
    use ocelotl::trace::{Hierarchy, LeafId, MicroModel, StateId, StateRegistry, TimeGrid};

    /// A finished live server: two events fed, feed complete.
    fn finished_live_server() -> (ServerHandle, LiveFeeder) {
        let raw = MicroModel::from_dense(
            Hierarchy::flat(2, "p"),
            StateRegistry::from_names(["A", "B"]),
            TimeGrid::new(0.0, 8.0, 4096),
            vec![0.0; 2 * 2 * 4096],
        );
        let config = SessionConfig {
            n_slices: 4,
            ..SessionConfig::default()
        };
        let session = AnalysisSession::live(config, HiResModel::new(Metric::States, raw)).unwrap();
        let (handle, feeder) = spawn_live_tcp(
            "127.0.0.1:0",
            ServeOptions::default(),
            "live",
            QueryEngine::new(session),
        )
        .unwrap();
        feeder.feed(&[(LeafId(0), StateId(0), 0.0, 2.0)]).unwrap();
        feeder.feed(&[(LeafId(1), StateId(1), 2.0, 4.0)]).unwrap();
        feeder.finish();
        (handle, feeder)
    }

    fn run_watch(line: &str) -> Result<String, CliError> {
        let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        run(&tokens, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn watch_prints_refreshes_and_ends_on_the_final_one() {
        let (handle, _feeder) = finished_live_server();
        let text = run_watch(&format!("{} live describe --slices 4", handle.address())).unwrap();
        assert!(text.contains("refresh:"), "{text}");
        assert!(text.contains("(final)"), "{text}");
        assert!(text.contains("events"), "{text}");
        handle.stop();
    }

    #[test]
    fn last_json_is_byte_identical_to_the_bare_reply() {
        let (handle, feeder) = finished_live_server();
        let text = run_watch(&format!(
            "{} live describe --slices 4 --last --json",
            handle.address()
        ))
        .unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        // The unwrapped final reply equals the same request answered
        // one-shot against the published engine — what a post-mortem
        // `ocelotl query --json` of the finished trace would print.
        let oneshot = feeder
            .with_engine(|e| e.execute_shared(&AnalysisRequest::Describe))
            .unwrap()
            .unwrap()
            .unwrap();
        assert_eq!(text.trim_end(), ocelotl::format::encode_reply(&Ok(oneshot)));
        handle.stop();
    }

    #[test]
    fn watch_surfaces_server_refusals_and_usage_errors() {
        let (handle, _feeder) = finished_live_server();
        // Mismatched pin (live session serves 4 slices, not 8).
        let err = run_watch(&format!("{} live describe --slices 8", handle.address())).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        // Unknown live name.
        let err = run_watch(&format!("{} nope describe --slices 4", handle.address())).unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)), "{err}");
        // Reslice cannot be subscribed to.
        let err = run_watch(&format!("{} live reslice --slices 4", handle.address())).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        handle.stop();
        // Missing positionals are usage errors before any connection.
        assert!(matches!(run_watch("--slices 4"), Err(CliError::Usage(_))));
    }
}
