//! `ocelotl query` — the thin client of a running `ocelotl serve`: build
//! one protocol request from the command line, send it, print the reply
//! through the same printers the direct commands use (so a remote answer
//! is byte-identical to a local one).

use crate::args::Args;
use crate::helpers::{session_config, SESSION_OPTS};
use crate::proto::{print_reply, request_from_args};
use crate::CliError;
use ocelotl::core::query::AnalysisRequest;
use std::io::{BufRead, BufReader, Write};

const HELP: &str = "\
ocelotl query <addr> <trace> <kind> [options]

Send one analysis request to a running `ocelotl serve` and print the
reply. <addr> is host:port (TCP) or unix:/path/to.sock; <trace> is the
trace path as visible to the *server*; <kind> is one of:

    describe | aggregate | significant | sweep | pvalues | inspect |
    render-overview | stats | reslice

OPTIONS (per kind, matching the direct commands):
    --slices N --metric M                     session parameters
    --p F --coarse --compare --diff-p F       aggregate
    --resolution F                            significant | sweep | pvalues
    --steps N                                 sweep
    --leaf N --slice K --p F                  inspect
    --p F --min-rows F                        render-overview
    --to N [--t0 F --t1 F]                    reslice (new |T|, opt. window)
    --json                                    print the raw reply line
";

/// Send one request line and read one reply line over the given address.
pub fn roundtrip(addr: &str, line: &str) -> Result<String, CliError> {
    let mut reply = String::new();
    if let Some(path) = addr.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            use std::os::unix::net::UnixStream;
            let mut stream = UnixStream::connect(path)
                .map_err(|e| CliError::Invalid(format!("cannot connect to {path}: {e}")))?;
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
            let mut reader = BufReader::new(stream);
            reader.read_line(&mut reply)?;
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            return Err(CliError::Usage(
                "unix: addresses need Unix domain sockets; use host:port".into(),
            ));
        }
    } else {
        let mut stream = std::net::TcpStream::connect(addr)
            .map_err(|e| CliError::Invalid(format!("cannot connect to {addr}: {e}")))?;
        // One small request, one small reply: without TCP_NODELAY, Nagle
        // plus delayed ACKs costs tens of ms per round-trip.
        let _ = stream.set_nodelay(true);
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut reader = BufReader::new(stream);
        reader.read_line(&mut reply)?;
    }
    if reply.trim().is_empty() {
        return Err(CliError::Invalid("server closed without replying".into()));
    }
    Ok(reply.trim_end().to_string())
}

/// Send many request lines over ONE pipelined connection and read the
/// matching replies — the server guarantees the i-th reply answers the
/// i-th request (see `serve::serve_lines`). Exposed for tests/benches.
pub fn roundtrip_many(addr: &str, lines: &[String]) -> Result<Vec<String>, CliError> {
    fn pipelined<S: std::io::Read + Write>(
        mut stream: S,
        reader: S,
        lines: &[String],
    ) -> Result<Vec<String>, CliError> {
        // Requests are small; write them all up front (the server reads
        // ahead, bounded by its pipeline depth), then drain the replies.
        for line in lines {
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
        }
        stream.flush()?;
        let mut reader = BufReader::new(reader);
        let mut replies = Vec::with_capacity(lines.len());
        for _ in lines {
            let mut reply = String::new();
            reader.read_line(&mut reply)?;
            if reply.trim().is_empty() {
                return Err(CliError::Invalid("server closed without replying".into()));
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
            pipelined(stream, reader, lines)
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
        pipelined(stream, reader, lines)
    }
}

/// Build the wire line for one invocation (exposed for tests/benches).
pub fn wire_line(args: &Args, trace: &str, kind: &str) -> Result<String, CliError> {
    let request: AnalysisRequest = request_from_args(kind, args)?;
    let config = session_config(args)?;
    Ok(ocelotl::format::encode_wire_request(
        trace, &config, &request,
    ))
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
        "to",
        "t0",
        "t1",
    ];
    known.extend(SESSION_OPTS);
    args.expect_known(&known)?;
    let addr = args.positional(0, "server address")?;
    let trace = args.positional(1, "trace path (as seen by the server)")?;
    let kind = args.positional(2, "request kind")?;

    let line = wire_line(&args, trace, kind)?;
    let reply_line = roundtrip(addr, &line)?;
    if args.has("json") {
        writeln!(out, "{reply_line}")?;
        return Ok(());
    }
    match ocelotl::format::decode_reply(&reply_line)? {
        Ok(reply) => print_reply(&reply, out),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::serve::{spawn_tcp, ServeOptions};
    use crate::helpers::fixture_trace;

    #[test]
    fn query_round_trips_against_a_live_server() {
        let p = fixture_trace("query-live");
        let server = spawn_tcp("127.0.0.1:0", ServeOptions::default()).unwrap();
        let addr = server.address();

        let tokens: Vec<String> = format!("{addr} {} aggregate --slices 10 --p 0.4", p.display())
            .split_whitespace()
            .map(String::from)
            .collect();
        let mut out = Vec::new();
        run(&tokens, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("aggregates:"), "{text}");

        // Server-side errors surface with CLI exit semantics.
        let tokens: Vec<String> = format!("{addr} {} aggregate --p 7", p.display())
            .split_whitespace()
            .map(String::from)
            .collect();
        let mut out = Vec::new();
        assert!(matches!(run(&tokens, &mut out), Err(CliError::Usage(_))));

        server.stop();
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn missing_server_is_invalid() {
        let tokens: Vec<String> = "127.0.0.1:1 /tmp/x.btf describe"
            .split_whitespace()
            .map(String::from)
            .collect();
        let mut out = Vec::new();
        assert!(matches!(run(&tokens, &mut out), Err(CliError::Invalid(_))));
    }
}
