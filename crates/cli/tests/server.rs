//! `ocelotl serve` integration: a live TCP server answering every request
//! kind, byte-identical to the direct in-process `QueryEngine` path, and
//! the CLI's `--json` output byte-identical to the server's (the
//! one-protocol guarantee).

use ocelotl::core::query::{AnalysisRequest, QueryEngine};
use ocelotl::core::SessionConfig;
use ocelotl_cli::commands::query::roundtrip;
use ocelotl_cli::commands::serve::{spawn_tcp, ServeOptions, ServerState};
use ocelotl_cli::helpers::build_session;
use ocelotl_cli::run;
use std::path::PathBuf;

/// A small deterministic trace on disk (same shape as the CLI fixture).
fn fixture(tag: &str) -> PathBuf {
    use ocelotl::prelude::*;
    let mut b = TraceBuilder::new(Hierarchy::balanced(&[2, 2]));
    let run = b.state("Run");
    let wait = b.state("MPI_Wait");
    for leaf in 0..4u32 {
        for k in 0..10 {
            let t = k as f64;
            let state = if leaf == 3 && (4..7).contains(&k) {
                wait
            } else {
                run
            };
            b.push_state(LeafId(leaf), state, t, t + 1.0);
        }
    }
    let trace = b.build();
    let path = std::env::temp_dir().join(format!(
        "ocelotl-server-test-{}-{tag}.btf",
        std::process::id()
    ));
    ocelotl::format::write_trace(&trace, &path).unwrap();
    path
}

fn all_requests() -> Vec<AnalysisRequest> {
    vec![
        AnalysisRequest::Describe,
        AnalysisRequest::Aggregate {
            p: 0.4,
            coarse: false,
            compare: true,
            diff_p: Some(0.8),
        },
        AnalysisRequest::Significant { resolution: 1e-2 },
        AnalysisRequest::Sweep {
            resolution: 1e-2,
            steps: 4,
        },
        AnalysisRequest::PValues { resolution: 1e-2 },
        AnalysisRequest::Inspect {
            leaf: 3,
            slice: 5,
            p: 0.4,
            coarse: false,
        },
        AnalysisRequest::RenderOverview {
            p: 0.4,
            coarse: false,
            min_rows: 1.0,
            level_resolution: None,
        },
        AnalysisRequest::Stats,
        AnalysisRequest::Reslice {
            n_slices: 10,
            range: None,
        },
    ]
}

fn cli(line: &str) -> String {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let mut out = Vec::new();
    run(&argv, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn server_answers_every_kind_byte_identical_to_direct_engine() {
    let trace = fixture("all-kinds");
    let config = SessionConfig {
        n_slices: 10,
        ..SessionConfig::default()
    };
    let server = spawn_tcp("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.address();

    let mut direct = QueryEngine::new(build_session(&trace, config, None));
    for request in all_requests() {
        let wire =
            ocelotl::format::encode_wire_request(&trace.display().to_string(), &config, &request);
        let served = roundtrip(&addr, &wire).unwrap();
        let expected = ocelotl::format::encode_reply(&direct.execute(&request));
        assert_eq!(served, expected, "kind {}", request.kind());
        // And the served line decodes to a successful reply of that kind.
        let reply = ocelotl::format::decode_reply(&served).unwrap().unwrap();
        let want = match request.kind() {
            "render-overview" => "overview",
            k => k,
        };
        assert_eq!(reply.kind(), want);
    }

    // All nine kinds hit one warm session.
    assert_eq!(server.state.pooled_sessions(), 1);
    server.stop();
    std::fs::remove_file(&trace).ok();
}

/// A trace whose slices mix both states in uneven shares, so its optimal
/// partition changes at breakpoints inside `(0, 1)`.
fn mixed_fixture(tag: &str) -> PathBuf {
    use ocelotl::prelude::*;
    let mut b = TraceBuilder::new(Hierarchy::balanced(&[2, 2]));
    let run = b.state("Run");
    let wait = b.state("MPI_Wait");
    for leaf in 0..4u32 {
        for k in 0..10u32 {
            let t = f64::from(k);
            let split = t + 0.1 + 0.07 * f64::from(leaf) + 0.05 * f64::from(k * k % 7);
            b.push_state(LeafId(leaf), run, t, split);
            b.push_state(LeafId(leaf), wait, split, t + 1.0);
        }
    }
    let path = std::env::temp_dir().join(format!(
        "ocelotl-server-test-{}-{tag}.btf",
        std::process::id()
    ));
    ocelotl::format::write_trace(&b.build(), &path).unwrap();
    path
}

/// A dichotomy resolution finer than the float spacing around a
/// breakpoint is answered (it once recursed until the stack overflowed,
/// taking the whole server down), and the server goes on serving.
#[test]
fn significant_finer_than_float_spacing_is_answered() {
    let trace = mixed_fixture("tiny-resolution");
    let t = trace.display().to_string();
    let config = SessionConfig {
        n_slices: 10,
        ..SessionConfig::default()
    };
    let server = spawn_tcp("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.address();

    let mut direct = QueryEngine::new(build_session(&trace, config, None));
    for request in [
        AnalysisRequest::Significant { resolution: 1e-20 },
        AnalysisRequest::Describe,
    ] {
        let wire = ocelotl::format::encode_wire_request(&t, &config, &request);
        let served = roundtrip(&addr, &wire).unwrap();
        let expected = ocelotl::format::encode_reply(&direct.execute(&request));
        assert_eq!(served, expected, "kind {}", request.kind());
        let reply = ocelotl::format::decode_reply(&served).unwrap();
        assert!(reply.is_ok(), "{served}");
    }
    server.stop();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn cli_json_equals_server_json() {
    let trace = fixture("json-parity");
    let server = spawn_tcp("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.address();
    let t = trace.display().to_string();

    // info --stats --json == query … stats --json
    let local = cli(&format!("info {t} --stats --slices 10 --json"));
    let remote = cli(&format!("query {addr} {t} stats --slices 10 --json"));
    assert_eq!(local, remote, "stats JSON must be byte-identical");

    // describe --json == query … describe --json
    let omm = trace.with_extension("omm");
    let local = cli(&format!(
        "describe {t} --slices 10 --out {} --json",
        omm.display()
    ));
    let remote = cli(&format!("query {addr} {t} describe --slices 10 --json"));
    assert_eq!(local, remote, "describe JSON must be byte-identical");

    // And the human-readable form agrees too: a direct aggregate prints
    // the same bytes as the remote one.
    let local = cli(&format!("aggregate {t} --slices 10 --p 0.4"));
    let remote = cli(&format!("query {addr} {t} aggregate --slices 10 --p 0.4"));
    assert_eq!(local, remote, "aggregate text must be byte-identical");

    server.stop();
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&omm).ok();
}

#[test]
fn remote_reslice_is_byte_identical_to_direct_engine() {
    let trace = fixture("reslice");
    let server = spawn_tcp("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.address();
    let t = trace.display().to_string();

    // A direct engine mirrors the server's per-request pinning: reslice
    // to each wire config's resolution before executing.
    let base = SessionConfig {
        n_slices: 10,
        ..SessionConfig::default()
    };
    let mut direct = QueryEngine::new(build_session(&trace, base, None));
    let agg = AnalysisRequest::Aggregate {
        p: 0.4,
        coarse: false,
        compare: false,
        diff_p: None,
    };
    // Warm the session at 10 slices, then re-slice it remotely to 20 and
    // back — every reply must be byte-identical to the direct path, and
    // the pool must keep serving ONE session throughout.
    for slices in [10usize, 20, 10, 20] {
        let config = SessionConfig {
            n_slices: slices,
            ..SessionConfig::default()
        };
        for request in [
            AnalysisRequest::Reslice {
                n_slices: slices,
                range: None,
            },
            agg.clone(),
        ] {
            let wire = ocelotl::format::encode_wire_request(&t, &config, &request);
            let served = roundtrip(&addr, &wire).unwrap();
            direct.session_mut().reslice(config.n_slices, None).unwrap();
            let expected = ocelotl::format::encode_reply(&direct.execute(&request));
            assert_eq!(served, expected, "slices {slices}, kind {}", request.kind());
        }
    }
    assert_eq!(
        server.state.pooled_sessions(),
        1,
        "every resolution shares one warm session"
    );
    // The direct session ingested exactly once across all resolutions.
    assert_eq!(direct.session_mut().source_reads(), 1);

    // A windowed remote reslice answers the snapped window.
    let config = SessionConfig {
        n_slices: 16,
        ..SessionConfig::default()
    };
    // [2.5, 5.0] of the [0, 10] fixture is a dyadic window: it snaps to
    // hi-res edges and its span divides into 16 bins.
    let request = AnalysisRequest::Reslice {
        n_slices: 16,
        range: Some((2.5, 5.0)),
    };
    let wire = ocelotl::format::encode_wire_request(&t, &config, &request);
    let served = roundtrip(&addr, &wire).unwrap();
    direct.session_mut().reslice(16, None).unwrap();
    let expected = ocelotl::format::encode_reply(&direct.execute(&request));
    assert_eq!(served, expected, "windowed reslice");
    let ocelotl::core::AnalysisReply::Reslice(r) =
        ocelotl::format::decode_reply(&served).unwrap().unwrap()
    else {
        panic!("expected a reslice reply");
    };
    assert_eq!(r.n_slices, 16);
    assert!(r.window.is_some(), "window snapped and echoed");

    server.stop();
    std::fs::remove_file(&trace).ok();
}

/// A larger deterministic trace: `reps` passes over the leaves (event
/// count scales with it), for tests that need a build long enough to
/// overlap with.
fn fixture_sized(tag: &str, reps: usize) -> PathBuf {
    use ocelotl::prelude::*;
    let mut b = TraceBuilder::new(Hierarchy::balanced(&[4, 4]));
    let run = b.state("Run");
    let wait = b.state("MPI_Wait");
    for leaf in 0..16u32 {
        for k in 0..reps {
            let t = k as f64;
            let state = if (leaf + k as u32).is_multiple_of(5) {
                wait
            } else {
                run
            };
            b.push_state(LeafId(leaf), state, t, t + 1.0);
        }
    }
    let path = std::env::temp_dir().join(format!(
        "ocelotl-server-test-{}-{tag}.btf",
        std::process::id()
    ));
    ocelotl::format::write_trace(&b.build(), &path).unwrap();
    path
}

#[test]
fn n_threads_hammering_one_warm_session_get_identical_bytes() {
    let trace = fixture("hammer");
    let config = SessionConfig {
        n_slices: 10,
        ..SessionConfig::default()
    };
    let server = spawn_tcp("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.address();
    let t = trace.display().to_string();

    // Expected bytes per request, from one warm pass.
    let requests: Vec<_> = all_requests()
        .into_iter()
        .filter(|r| !matches!(r, AnalysisRequest::Reslice { .. }))
        .collect();
    let wires: Vec<String> = requests
        .iter()
        .map(|r| ocelotl::format::encode_wire_request(&t, &config, r))
        .collect();
    let expected: Vec<String> = wires.iter().map(|w| roundtrip(&addr, w).unwrap()).collect();
    assert_eq!(server.state.builds_started(), 1);

    // 8 client threads × 5 passes over every kind, all on the one warm
    // session: every reply byte-identical, and the whole thing finishes
    // (no deadlock between the read path and the memo write locks).
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let (addr, wires, expected, requests) = (&addr, &wires, &expected, &requests);
            scope.spawn(move || {
                for pass in 0..5 {
                    for (i, wire) in wires.iter().enumerate() {
                        let got = roundtrip(addr, wire).unwrap();
                        assert_eq!(
                            got,
                            expected[i],
                            "worker {worker} pass {pass} kind {}",
                            requests[i].kind()
                        );
                    }
                }
            });
        }
    });
    assert_eq!(server.state.pooled_sessions(), 1, "still one session");
    assert_eq!(server.state.builds_started(), 1, "never rebuilt");
    server.stop();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn cold_ingest_does_not_block_warm_reads() {
    let warm_trace = fixture("interleave-warm");
    let cold_trace = fixture_sized("interleave-cold", 4000);
    let config = SessionConfig {
        n_slices: 10,
        ..SessionConfig::default()
    };
    let server = spawn_tcp("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.address();

    let warm_wire = ocelotl::format::encode_wire_request(
        &warm_trace.display().to_string(),
        &config,
        &AnalysisRequest::Aggregate {
            p: 0.4,
            coarse: false,
            compare: false,
            diff_p: None,
        },
    );
    let cold_wire = ocelotl::format::encode_wire_request(
        &cold_trace.display().to_string(),
        &config,
        &AnalysisRequest::Describe,
    );
    let baseline = roundtrip(&addr, &warm_wire).unwrap();

    // Kick off the cold ingest on its own connection, and keep reading
    // the warm session from this one while it runs.
    let done = std::sync::atomic::AtomicBool::new(false);
    let overlapped = std::thread::scope(|scope| {
        let (addr, cold_wire, done) = (&addr, &cold_wire, &done);
        scope.spawn(move || {
            let reply = roundtrip(addr, cold_wire).unwrap();
            assert!(reply.contains("\"reply\""), "{reply}");
            done.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        let mut overlapped = 0usize;
        while !done.load(std::sync::atomic::Ordering::SeqCst) {
            let got = roundtrip(addr, &warm_wire).unwrap();
            assert_eq!(got, baseline, "warm bytes unaffected by the cold build");
            if !done.load(std::sync::atomic::Ordering::SeqCst) {
                overlapped += 1;
            }
        }
        overlapped
    });
    // Warm reads completed *while* the cold build was in flight — they
    // never queued behind it. (The cold ingest above takes hundreds of
    // warm-read round-trips worth of time.)
    assert!(
        overlapped >= 1,
        "expected warm reads to complete during the cold build"
    );
    assert_eq!(server.state.pooled_sessions(), 2);
    server.stop();
    std::fs::remove_file(&warm_trace).ok();
    std::fs::remove_file(&cold_trace).ok();
}

#[test]
fn pipelined_connection_preserves_reply_order() {
    let trace = fixture("pipeline-tcp");
    let config = SessionConfig {
        n_slices: 10,
        ..SessionConfig::default()
    };
    let server = spawn_tcp("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = server.address();
    let t = trace.display().to_string();

    let ps = [0.1, 0.3, 0.5, 0.7, 0.9];
    let wires: Vec<String> = (0..20)
        .map(|k| {
            ocelotl::format::encode_wire_request(
                &t,
                &config,
                &AnalysisRequest::Aggregate {
                    p: ps[k % ps.len()],
                    coarse: false,
                    compare: false,
                    diff_p: None,
                },
            )
        })
        .collect();
    let replies = ocelotl_cli::commands::query::roundtrip_many(&addr, &wires).unwrap();
    assert_eq!(replies.len(), wires.len());
    // One-at-a-time replies define the expected bytes; the pipelined
    // stream must deliver the same bytes in the same positions.
    for (k, reply) in replies.iter().enumerate() {
        let expected = roundtrip(&addr, &wires[k]).unwrap();
        assert_eq!(reply, &expected, "pipelined reply {k}");
    }
    server.stop();
    std::fs::remove_file(&trace).ok();
}

#[cfg(unix)]
#[test]
fn unix_socket_server_serves_and_stops_cleanly() {
    use ocelotl_cli::commands::serve::spawn_unix;
    let trace = fixture("unix-stop");
    let sock = std::env::temp_dir().join(format!("ocelotl-test-{}.sock", std::process::id()));
    let server = spawn_unix(&sock, ServeOptions::default()).unwrap();
    let addr = server.address();
    assert!(addr.starts_with("unix:"), "{addr}");

    let config = SessionConfig {
        n_slices: 10,
        ..SessionConfig::default()
    };
    let wire = ocelotl::format::encode_wire_request(
        &trace.display().to_string(),
        &config,
        &AnalysisRequest::Describe,
    );
    let reply = roundtrip(&addr, &wire).unwrap();
    assert!(reply.contains("\"reply\""), "{reply}");

    // The satellite fix under test: stop() must unblock the *Unix*
    // accept loop (it used to poke a TCP address and hang forever).
    server.stop();
    std::fs::remove_file(&sock).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn busy_error_round_trips_on_the_wire() {
    use ocelotl::core::query::QueryError;
    let line = ocelotl::format::encode_reply(&Err(QueryError::Busy(
        "cold-build budget exhausted (1 of 1 workers busy); retry shortly".into(),
    )));
    assert!(line.contains("\"busy\""), "{line}");
    let back = ocelotl::format::decode_reply(&line).unwrap().unwrap_err();
    assert!(matches!(back, QueryError::Busy(_)), "{back:?}");
    assert_eq!(back.kind(), "busy");
}

// ---------------------------------------------------------------------------
// Live subscriptions under fault: a client that vanishes mid-stream and a
// subscriber that stalls on its socket must leave the session healthy.
// ---------------------------------------------------------------------------

/// An in-memory live engine: 2 flat leaves, 2 states, 4096 hi-res
/// periods over [0, 8), pinned to `n_slices`.
fn live_engine(n_slices: usize) -> QueryEngine {
    use ocelotl::core::{AnalysisSession, HiResModel, Metric};
    use ocelotl::trace::{Hierarchy, MicroModel, StateRegistry, TimeGrid};
    let raw = MicroModel::from_dense(
        Hierarchy::flat(2, "p"),
        StateRegistry::from_names(["A", "B"]),
        TimeGrid::new(0.0, 8.0, 4096),
        vec![0.0; 2 * 2 * 4096],
    );
    let config = SessionConfig {
        n_slices,
        ..SessionConfig::default()
    };
    let session = AnalysisSession::live(config, HiResModel::new(Metric::States, raw)).unwrap();
    QueryEngine::new(session)
}

fn subscribe_wire(name: &str, n_slices: usize) -> String {
    ocelotl::format::encode_wire_request(
        name,
        &SessionConfig {
            n_slices,
            ..SessionConfig::default()
        },
        &AnalysisRequest::Subscribe {
            inner: Box::new(AnalysisRequest::Describe),
        },
    )
}

/// Poll until `cond` holds or a deadline passes (live-session teardown is
/// asynchronous: the subscriber thread notices the dead socket on its
/// next refresh).
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn client_disconnect_mid_stream_neither_poisons_nor_leaks() {
    use ocelotl::trace::{LeafId, StateId};
    use ocelotl_cli::commands::serve::spawn_live_tcp;
    use std::io::{BufRead, BufReader, Write as _};

    let (server, feeder) = spawn_live_tcp(
        "127.0.0.1:0",
        ServeOptions::default(),
        "live",
        live_engine(4),
    )
    .unwrap();
    feeder.feed(&[(LeafId(0), StateId(0), 0.0, 2.0)]).unwrap();

    // Subscribe, read exactly one refresh, then vanish without a goodbye.
    let conn = std::net::TcpStream::connect(server.address()).unwrap();
    {
        let mut w = conn.try_clone().unwrap();
        w.write_all(subscribe_wire("live", 4).as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        let mut first = String::new();
        BufReader::new(&conn).read_line(&mut first).unwrap();
        assert!(first.contains("\"watch\""), "{first}");
    }
    assert_eq!(feeder.subscribers(), 1);
    drop(conn);

    // The subscriber only notices on its next write: keep feeding until
    // the broadcast entry is reclaimed. No poison, no leak.
    eventually("dead subscriber reclaimed", || {
        feeder
            .feed(&[(LeafId(1), StateId(1), 2.0, 4.0)])
            .expect("feeding must survive a vanished subscriber");
        feeder.subscribers() == 0
    });

    // The session is still healthy: plain queries answer, and a fresh
    // subscription streams to completion.
    let plain = ocelotl::format::encode_wire_request(
        "live",
        &SessionConfig {
            n_slices: 4,
            ..SessionConfig::default()
        },
        &AnalysisRequest::Describe,
    );
    let reply = roundtrip(&server.address(), &plain).unwrap();
    assert!(reply.contains("\"reply\""), "{reply}");

    feeder.finish();
    let mut conn = std::net::TcpStream::connect(server.address()).unwrap();
    conn.write_all(subscribe_wire("live", 4).as_bytes())
        .unwrap();
    conn.write_all(b"\n").unwrap();
    let lines: Vec<String> = BufReader::new(&conn).lines().map(|l| l.unwrap()).collect();
    assert!(
        !lines.is_empty(),
        "late subscriber still gets the final line"
    );
    assert!(lines.last().unwrap().contains("\"done\":true"), "{lines:?}");
    eventually("clean subscriber unregistered", || {
        feeder.subscribers() == 0
    });
    server.stop();
}

/// A reply sink that stalls on its first flush until the test releases
/// it — a subscriber whose socket back-pressures mid-refresh.
struct StallingWriter {
    gate: std::sync::mpsc::Receiver<()>,
    stalled: std::sync::mpsc::Sender<()>,
    first: bool,
    lines: Vec<u8>,
}

impl std::io::Write for StallingWriter {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.lines.extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        if self.first {
            self.first = false;
            let _ = self.stalled.send(());
            let _ = self.gate.recv(); // hold the stream right here
        }
        Ok(())
    }
}

#[test]
fn stalled_subscriber_does_not_block_warm_readers_or_the_feeder() {
    use ocelotl::trace::{LeafId, StateId};
    use ocelotl_cli::commands::serve::spawn_tcp_with_state;
    use std::sync::Arc;

    let state = Arc::new(ServerState::new(ServeOptions::default()));
    let feeder = state.publish_live("live", live_engine(4));
    feeder.feed(&[(LeafId(0), StateId(0), 0.0, 2.0)]).unwrap();

    let (release, gate) = std::sync::mpsc::channel();
    let (stalled_tx, stalled) = std::sync::mpsc::channel();
    let sub = {
        let state = state.clone();
        std::thread::spawn(move || {
            let mut out = StallingWriter {
                gate,
                stalled: stalled_tx,
                first: true,
                lines: Vec::new(),
            };
            state
                .serve_subscription(&subscribe_wire("live", 4), &mut out)
                .unwrap();
            String::from_utf8(out.lines).unwrap()
        })
    };
    // Wait until the subscriber is provably wedged inside its reply write.
    stalled.recv().unwrap();

    // While it hangs there: warm readers answer and the feeder advances —
    // the stalled socket write holds no engine lock. (If it did, both of
    // these would deadlock and the test would time out.)
    let plain = ocelotl::format::encode_wire_request(
        "live",
        &SessionConfig {
            n_slices: 4,
            ..SessionConfig::default()
        },
        &AnalysisRequest::Describe,
    );
    let baseline = state.handle_line(&plain);
    assert!(baseline.contains("\"reply\""), "{baseline}");
    for k in 0..16 {
        feeder
            .feed(&[(
                LeafId(1),
                StateId(1),
                k as f64 * 0.25,
                k as f64 * 0.25 + 0.2,
            )])
            .unwrap();
        let got = state.handle_line(&plain);
        assert!(got.contains("\"reply\""), "warm read {k}: {got}");
    }
    // A TCP listener sharing the same state stays responsive too.
    let server = spawn_tcp_with_state("127.0.0.1:0", state.clone()).unwrap();
    let reply = roundtrip(&server.address(), &plain).unwrap();
    assert!(reply.contains("\"reply\""), "{reply}");

    // Release the stall; the subscriber catches up (gaps are legal) and
    // ends on the final refresh.
    release.send(()).unwrap();
    feeder.finish();
    let streamed = sub.join().unwrap();
    let last = streamed.lines().last().unwrap();
    assert!(last.contains("\"done\":true"), "{streamed}");
    assert_eq!(feeder.subscribers(), 0);
    server.stop();
}

#[test]
fn second_query_is_served_warm() {
    let trace = fixture("warm");
    let state = ServerState::new(ServeOptions::default());
    let config = SessionConfig {
        n_slices: 64,
        ..SessionConfig::default()
    };
    let wire = ocelotl::format::encode_wire_request(
        &trace.display().to_string(),
        &config,
        &AnalysisRequest::Aggregate {
            p: 0.4,
            coarse: false,
            compare: false,
            diff_p: None,
        },
    );
    let t0 = std::time::Instant::now();
    let cold = state.handle_line(&wire);
    let cold_t = t0.elapsed();
    let t1 = std::time::Instant::now();
    let warm = state.handle_line(&wire);
    let warm_t = t1.elapsed();
    assert_eq!(cold, warm);
    // Generous bound here (the bench pins ≥5×): warm must not be slower.
    assert!(
        warm_t <= cold_t,
        "warm {warm_t:?} should not exceed cold {cold_t:?}"
    );
    std::fs::remove_file(&trace).ok();
}

#[test]
fn subscribed_stats_stream_the_one_shot_error_in_either_order() {
    use ocelotl::trace::{LeafId, StateId};
    let config = SessionConfig {
        n_slices: 4,
        ..SessionConfig::default()
    };
    let stats = ocelotl::format::encode_wire_request("live", &config, &AnalysisRequest::Stats);
    let subscribe = ocelotl::format::encode_wire_request(
        "live",
        &config,
        &AnalysisRequest::Subscribe {
            inner: Box::new(AnalysisRequest::Stats),
        },
    );
    for subscription_first in [true, false] {
        let state = ServerState::new(ServeOptions::default());
        let feeder = state.publish_live("live", live_engine(4));
        feeder.feed(&[(LeafId(0), StateId(0), 0.0, 2.0)]).unwrap();
        // A failed refresh ends its stream, so this returns after one line.
        let stream = || {
            let mut out = Vec::new();
            state.serve_subscription(&subscribe, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        let (streamed, one_shot) = if subscription_first {
            let streamed = stream();
            (streamed, state.handle_line(&stats))
        } else {
            let one_shot = state.handle_line(&stats);
            (stream(), one_shot)
        };
        assert_eq!(
            streamed.lines().collect::<Vec<_>>(),
            vec![one_shot.as_str()],
            "subscription first: {subscription_first}"
        );
        assert!(
            matches!(
                ocelotl::format::decode_reply(&one_shot).unwrap(),
                Err(ocelotl::core::query::QueryError::Unsupported(_))
            ),
            "{one_shot}"
        );
    }
}

/// A slice count of zero or one whose model size overflows the address
/// space gets a typed error reply, and the same connection goes on to
/// answer a 30-slice `aggregate` byte-identical to the direct engine.
#[test]
fn zero_and_overflowing_slice_counts_are_refused_typed() {
    use ocelotl::core::query::QueryError;
    use ocelotl_cli::commands::query::roundtrip_many;
    let trace = fixture("bad-slices");
    let t = trace.display().to_string();
    let server = spawn_tcp("127.0.0.1:0", ServeOptions::default()).unwrap();
    let aggregate = AnalysisRequest::Aggregate {
        p: 0.4,
        coarse: false,
        compare: false,
        diff_p: None,
    };
    let wire = |n_slices| {
        let config = SessionConfig {
            n_slices,
            ..SessionConfig::default()
        };
        ocelotl::format::encode_wire_request(&t, &config, &aggregate)
    };
    let replies = roundtrip_many(&server.address(), &[wire(0), wire(1 << 62), wire(30)]).unwrap();
    let decoded = |line: &str| ocelotl::format::decode_reply(line).unwrap();
    assert!(
        matches!(decoded(&replies[0]), Err(QueryError::InvalidRequest(_))),
        "{}",
        replies[0]
    );
    assert!(
        matches!(decoded(&replies[1]), Err(QueryError::Source(_))),
        "{}",
        replies[1]
    );
    let config = SessionConfig {
        n_slices: 30,
        ..SessionConfig::default()
    };
    let mut direct = QueryEngine::new(build_session(&trace, config, None));
    let expected = ocelotl::format::encode_reply(&direct.execute(&aggregate));
    assert_eq!(replies[2], expected);
    server.stop();
    std::fs::remove_file(&trace).ok();
}

/// A DP whose tables would exceed the bound gets an `invalid-request`
/// reply before it allocates them (at 100,000 slices one node's cut table
/// alone is 20 GB, which used to abort the whole server), and the same
/// connection goes on to answer a 30-slice `aggregate` byte-identical to
/// the direct engine.
#[test]
fn dp_tables_over_the_bound_are_refused_typed() {
    use ocelotl::core::query::QueryError;
    use ocelotl_cli::commands::query::roundtrip_many;
    let trace = fixture("huge-dp");
    let t = trace.display().to_string();
    let server = spawn_tcp("127.0.0.1:0", ServeOptions::default()).unwrap();
    let aggregate = AnalysisRequest::Aggregate {
        p: 0.4,
        coarse: false,
        compare: false,
        diff_p: None,
    };
    let significant = AnalysisRequest::Significant { resolution: 1e-2 };
    let wire = |n_slices, request: &AnalysisRequest| {
        let config = SessionConfig {
            n_slices,
            ..SessionConfig::default()
        };
        ocelotl::format::encode_wire_request(&t, &config, request)
    };
    let lines = [
        wire(100_000, &aggregate),
        wire(100_000, &significant),
        wire(30, &aggregate),
    ];
    let replies = roundtrip_many(&server.address(), &lines).unwrap();
    for reply in &replies[..2] {
        let decoded = ocelotl::format::decode_reply(reply).unwrap();
        assert!(
            matches!(&decoded, Err(QueryError::InvalidRequest(m)) if m.contains("bytes")),
            "{reply}"
        );
    }
    let config = SessionConfig {
        n_slices: 30,
        ..SessionConfig::default()
    };
    let mut direct = QueryEngine::new(build_session(&trace, config, None));
    let expected = ocelotl::format::encode_reply(&direct.execute(&aggregate));
    assert_eq!(replies[2], expected);
    server.stop();
    std::fs::remove_file(&trace).ok();
}

/// The `stats` fingerprint is `hash_trace_input` of the path for every
/// kind of input, from a direct engine and through `serve` alike; and
/// `bytes_read` counts the ingest's own reads, so a single-pass `.btf`
/// reads exactly its length (hashing it for the fingerprint is not an
/// ingest read).
#[test]
fn stats_carry_the_input_hash_and_the_ingest_reads() {
    use ocelotl::core::AnalysisReply;
    use ocelotl::format::{gzip_stored, hash_trace_input, read_trace, write_columnar_chunked};
    use std::io::Write;
    let btf = fixture("fingerprint");
    let trace = read_trace(&btf).unwrap();
    let dir = btf.with_extension("inputs");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("mixed")).unwrap();
    let at = |name: &str| dir.join(name);
    for name in ["t.ptf", "t.paje", "mixed/a.btf", "mixed/b.ptf"] {
        ocelotl::format::write_trace(&trace, &at(name)).unwrap();
    }
    let mut octf = std::io::BufWriter::new(std::fs::File::create(at("t.octf")).unwrap());
    write_columnar_chunked(&trace, &mut octf, 16).unwrap();
    octf.flush().unwrap();
    std::fs::copy(at("t.octf"), at("mixed/c.octf")).unwrap();
    std::fs::write(at("t.btf.gz"), gzip_stored(&std::fs::read(&btf).unwrap())).unwrap();

    let config = SessionConfig {
        n_slices: 10,
        ..SessionConfig::default()
    };
    let server = spawn_tcp("127.0.0.1:0", ServeOptions::default()).unwrap();
    let inputs = [
        btf.clone(),
        at("t.ptf"),
        at("t.paje"),
        at("t.octf"),
        at("t.btf.gz"),
        at("mixed"),
    ];
    for path in &inputs {
        let what = path.display().to_string();
        let mut direct = QueryEngine::new(build_session(path, config, None));
        let reply = direct.execute(&AnalysisRequest::Stats);
        let Ok(AnalysisReply::Stats(stats)) = &reply else {
            panic!("{what}: {reply:?}");
        };
        let want = format!("{:016x}", hash_trace_input(path).unwrap());
        assert_eq!(stats.fingerprint, want, "{what}");
        if path == &btf {
            assert_eq!(stats.mode, "single-pass", "{what}");
            assert_eq!(stats.bytes_read, std::fs::metadata(path).unwrap().len());
        }
        let wire = ocelotl::format::encode_wire_request(&what, &config, &AnalysisRequest::Stats);
        let served = roundtrip(&server.address(), &wire).unwrap();
        assert_eq!(served, ocelotl::format::encode_reply(&reply), "{what}");
    }
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&btf).ok();
}

/// A live engine over six resources in two groups and two states: 4096
/// hi-res periods over [0, 8), pinned to `n_slices`.
fn grouped_live_engine(n_slices: usize) -> QueryEngine {
    use ocelotl::core::{AnalysisSession, HiResModel, Metric};
    use ocelotl::trace::{Hierarchy, MicroModel, StateRegistry, TimeGrid};
    let raw = MicroModel::from_dense(
        Hierarchy::balanced(&[2, 3]),
        StateRegistry::from_names(["A", "B"]),
        TimeGrid::new(0.0, 8.0, 4096),
        vec![0.0; 6 * 2 * 4096],
    );
    let config = SessionConfig {
        n_slices,
        ..SessionConfig::default()
    };
    let session = AnalysisSession::live(config, HiResModel::new(Metric::States, raw)).unwrap();
    QueryEngine::new(session)
}

/// Two subscribers of one live session, at `p = 0.5` and at `p = 0.3` with
/// coarse ties, over a locally shuffled feed in uneven batches: every
/// `watch` reply equals the one-shot reply of a fresh live session fed the
/// events that reply counts. Both answer each refresh concurrently under
/// the engine's read lock, reusing the previous refresh's cut trees.
#[test]
fn live_subscribers_match_a_fresh_session_fed_the_same_events() {
    use ocelotl::core::query::AnalysisReply;
    use ocelotl::core::LiveEvent;
    use ocelotl::trace::synthetic::SplitMix64;
    use ocelotl::trace::{LeafId, StateId};
    use ocelotl_cli::commands::serve::spawn_live_tcp;
    use std::io::{BufRead, BufReader, Write as _};

    const N_SLICES: usize = 16;
    let mut rng = SplitMix64(2026);
    let mut events: Vec<LiveEvent> = (0..400)
        .map(|_| {
            let begin = rng.range(0.0, 7.5);
            let leaf = LeafId(rng.below(6) as u32);
            (
                leaf,
                StateId(rng.below(2) as u16),
                begin,
                begin + rng.range(0.01, 0.5),
            )
        })
        .collect();
    events.sort_by(|x, y| x.2.total_cmp(&y.2));
    for run in events.chunks_mut(8) {
        run.reverse();
    }
    let aggregate = |p, coarse| AnalysisRequest::Aggregate {
        p,
        coarse,
        compare: false,
        diff_p: None,
    };
    let inners = [aggregate(0.5, false), aggregate(0.3, true)];

    let (server, feeder) = spawn_live_tcp(
        "127.0.0.1:0",
        ServeOptions::default(),
        "live",
        grouped_live_engine(N_SLICES),
    )
    .unwrap();
    let config = SessionConfig {
        n_slices: N_SLICES,
        ..SessionConfig::default()
    };
    let mut subscribers: Vec<_> = inners
        .iter()
        .map(|inner| {
            let conn = std::net::TcpStream::connect(server.address()).unwrap();
            let request = AnalysisRequest::Subscribe {
                inner: Box::new(inner.clone()),
            };
            let line = ocelotl::format::encode_wire_request("live", &config, &request);
            let mut w = conn.try_clone().unwrap();
            w.write_all(line.as_bytes()).unwrap();
            w.write_all(b"\n").unwrap();
            BufReader::new(conn)
        })
        .collect();
    eventually("both subscribers registered", || feeder.subscribers() == 2);

    // Lockstep: each subscriber answers a refresh before the next batch,
    // so the events a reply counts are exactly the ones fed so far.
    let check = |subscribers: &mut Vec<BufReader<std::net::TcpStream>>, fed: usize| {
        let mut fresh = grouped_live_engine(N_SLICES);
        fresh.session_mut().advance(&events[..fed]).unwrap();
        for (reader, inner) in subscribers.iter_mut().zip(&inners) {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let Ok(AnalysisReply::Watch(watch)) = ocelotl::format::decode_reply(&line).unwrap()
            else {
                panic!("not a watch reply: {line}");
            };
            assert_eq!(watch.events, fed as u64, "{line}");
            assert_eq!(
                ocelotl::format::encode_reply(&Ok(*watch.reply)),
                ocelotl::format::encode_reply(&fresh.execute(inner)),
                "{} after {fed} events",
                inner.kind()
            );
        }
    };
    let mut fed = 0;
    for size in [1, 7, 30, 3, 12, 64, 2, 25].into_iter().cycle() {
        if fed == events.len() {
            break;
        }
        let take = size.min(events.len() - fed);
        feeder.feed(&events[fed..fed + take]).unwrap();
        fed += take;
        check(&mut subscribers, fed);
    }
    feeder.finish();
    check(&mut subscribers, fed);
    eventually("subscribers done", || feeder.subscribers() == 0);
    server.stop();
}

/// A one-shot request at a resolution the live grid cannot serve is
/// refused, typed, and changes nothing the feeder relies on: the growth
/// quantum stays the publish resolution, every later feed lands and is
/// announced, and the publish resolution keeps answering the same bytes
/// as a live session that never saw the request.
#[test]
fn a_refused_one_shot_resolution_leaves_the_live_feed_intact() {
    use ocelotl::core::query::QueryError;
    use ocelotl::trace::{LeafId, StateId};

    let batches = [
        vec![(LeafId(0), StateId(0), 0.0, 2.0)],
        vec![(LeafId(1), StateId(1), 2.0, 3.0)],
        // Past the [0, 8) horizon: the grid grows.
        vec![(LeafId(1), StateId(1), 9.0, 10.0)],
    ];
    let aggregate = |n_slices| {
        ocelotl::format::encode_wire_request(
            "live",
            &SessionConfig {
                n_slices,
                ..SessionConfig::default()
            },
            &AnalysisRequest::Aggregate {
                p: 0.5,
                coarse: false,
                compare: false,
                diff_p: None,
            },
        )
    };

    let state = ServerState::new(ServeOptions::default());
    let feeder = state.publish_live("live", live_engine(4));
    feeder.feed(&batches[0]).unwrap();
    let refused = ocelotl::format::decode_reply(&state.handle_line(&aggregate(7))).unwrap();
    assert_eq!(
        refused,
        Err(QueryError::InvalidRequest(
            "--slices 7 does not divide the live grid's 4096 periods".into()
        ))
    );
    feeder
        .feed(&batches[1])
        .expect("the feed after the one-shot");
    feeder.feed(&batches[2]).expect("the growing feed");
    assert_eq!(feeder.events(), 3, "every batch is announced");

    let untouched = ServerState::new(ServeOptions::default());
    let reference = untouched.publish_live("live", live_engine(4));
    for batch in &batches {
        reference.feed(batch).unwrap();
    }
    let expected = untouched.handle_line(&aggregate(4));
    assert!(expected.contains("\"reply\""), "{expected}");
    assert_eq!(state.handle_line(&aggregate(4)), expected);
}

/// A reader holding the published live snapshot blocks no feed: the feed
/// lands while the snapshot is held, the held snapshot keeps answering for
/// the events it was taken at, and a one-shot request sees the new ones.
#[test]
fn a_held_live_snapshot_blocks_no_feed() {
    use ocelotl::core::LiveEvent;
    use ocelotl::format::encode_reply;
    use ocelotl::trace::{LeafId, StateId};
    use std::time::Duration;

    let first: [LiveEvent; 1] = [(LeafId(0), StateId(0), 0.0, 2.0)];
    let second: [LiveEvent; 1] = [(LeafId(1), StateId(1), 2.0, 4.0)];
    let aggregate = AnalysisRequest::Aggregate {
        p: 0.5,
        coarse: false,
        compare: false,
        diff_p: None,
    };
    let fresh = |batches: &[&[LiveEvent]]| {
        let mut engine = live_engine(4);
        for batch in batches {
            engine.session_mut().advance(batch).unwrap();
        }
        encode_reply(&engine.execute(&aggregate))
    };
    let (before, after) = (fresh(&[&first]), fresh(&[&first, &second]));
    assert_ne!(before, after);

    let state = ServerState::new(ServeOptions::default());
    let feeder = state.publish_live("live", live_engine(4));
    feeder.feed(&first).unwrap();
    std::thread::scope(|scope| {
        feeder.with_engine(|held| {
            let (fed_tx, fed) = std::sync::mpsc::channel();
            let feeder = &feeder;
            let second = &second;
            scope.spawn(move || fed_tx.send(feeder.feed(second)).unwrap());
            let fed = fed
                .recv_timeout(Duration::from_secs(10))
                .expect("a held snapshot must not block the feed");
            fed.unwrap();
            assert_eq!(encode_reply(&held.answer(&aggregate)), before);
        });
    });
    assert_eq!(feeder.events(), 2);
    let line = ocelotl::format::encode_wire_request(
        "live",
        &SessionConfig {
            n_slices: 4,
            ..SessionConfig::default()
        },
        &aggregate,
    );
    assert_eq!(state.handle_line(&line), after);
}
