//! `serve-mixed`: an in-process `ocelotl serve` over loopback TCP with two
//! closed-loop connections and zero think time — warm requests on one
//! trace, cold builds rotating over more traces than the pool keeps.

use super::{file_len, secs, Rng};
use crate::layers::execute_metric;
use crate::spans::Recorder;
use crate::{Bench, Detail};
use ocelotl::core::query::{AnalysisReply, AnalysisRequest, QueryEngine};
use ocelotl::core::SessionConfig;
use ocelotl::format::{decode_reply, encode_reply, encode_wire_request};
use ocelotl::mpisim::{scenario, CaseId};
use ocelotl_cli::commands::serve::{spawn_tcp_with_state, ServeOptions, ServerHandle, ServerState};
use ocelotl_cli::helpers::build_session;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// `p` values the warm session has memoized before measuring.
const MEMO_P: [f64; 3] = [0.2, 0.5, 0.8];
/// Small traces the cold connection rotates over: one more than the
/// default pool of eight sessions keeps, so every request builds cold.
const SMALL_TRACES: usize = 9;
/// Kinds of the warm connection's requests.
const WARM_KINDS: [&str; 4] = ["warm.memo", "warm.new_p", "warm.overview", "warm.stats"];

fn config(n_slices: usize) -> SessionConfig {
    SessionConfig {
        n_slices,
        ..SessionConfig::default()
    }
}

fn aggregate(p: f64) -> AnalysisRequest {
    AnalysisRequest::Aggregate {
        p,
        coarse: false,
        compare: false,
        diff_p: None,
    }
}

fn overview() -> AnalysisRequest {
    AnalysisRequest::RenderOverview {
        p: 0.5,
        coarse: false,
        min_rows: 1.0,
        level_resolution: None,
    }
}

/// One persistent connection: send a line, read the reply line.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Self { writer, reader })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One distinct wire request and the replies it got.
struct Line {
    trace: PathBuf,
    slices: usize,
    request: AnalysisRequest,
    first: String,
    replies: u64,
    differing: u64,
}

/// Every reply of the run, by request line.
#[derive(Default)]
struct Ledger {
    lines: Vec<Line>,
    index: HashMap<String, usize>,
}

impl Ledger {
    fn record(
        &mut self,
        wire: &str,
        trace: &Path,
        slices: usize,
        request: &AnalysisRequest,
        reply: String,
    ) {
        match self.index.get(wire) {
            Some(&i) => {
                let line = &mut self.lines[i];
                line.replies += 1;
                if line.first != reply {
                    line.differing += 1;
                }
            }
            None => {
                self.index.insert(wire.to_string(), self.lines.len());
                self.lines.push(Line {
                    trace: trace.to_path_buf(),
                    slices,
                    request: request.clone(),
                    first: reply,
                    replies: 1,
                    differing: 0,
                });
            }
        }
    }
}

/// The warm connection's request stream: memoized `p` values, unseen `p`
/// values (one DP each), overviews and stats, alternating two
/// resolutions so consecutive requests re-slice the pooled session.
struct WarmStream {
    rng: Rng,
    slices: [usize; 2],
    sent: usize,
    memo: usize,
}

impl WarmStream {
    const PATTERN: [&'static str; 7] = [
        "warm.memo",
        "warm.new_p",
        "warm.memo",
        "warm.overview",
        "warm.memo",
        "warm.stats",
        "warm.memo",
    ];

    fn next(&mut self) -> (&'static str, usize, AnalysisRequest) {
        let kind = Self::PATTERN[self.sent % Self::PATTERN.len()];
        let slices = self.slices[self.sent % 2];
        self.sent += 1;
        let request = match kind {
            "warm.new_p" => aggregate(self.rng.unseen_p()),
            "warm.overview" => overview(),
            "warm.stats" => AnalysisRequest::Stats,
            _ => {
                self.memo += 1;
                aggregate(MEMO_P[self.memo % MEMO_P.len()])
            }
        };
        (kind, slices, request)
    }
}

/// The traced server: the benchmark's own loop around
/// `ServerState::handle_line`, one thread per connection.
struct TracedServer {
    addr: String,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TracedServer {
    fn spawn(state: Arc<ServerState>, rec: Arc<Recorder>, warm: PathBuf) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = stop.clone();
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            for stream in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let (state, rec, warm) = (state.clone(), rec.clone(), warm.clone());
                conns.push(std::thread::spawn(move || {
                    serve_traced(stream, &state, &rec, &warm)
                }));
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn serve_traced(stream: TcpStream, state: &ServerState, rec: &Recorder, warm: &Path) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let warm = warm.display().to_string();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let line = line.trim_end();
        // Only cold builds ingest, so only this connection's thread touches
        // the process-wide last-ingest timing while a round runs.
        let cold = ocelotl::format::decode_wire_request(line)
            .ok()
            .filter(|(t, _, _)| *t != warm);
        if cold.is_some() {
            ocelotl::format::take_last_ingest_timing();
        }
        let (reply, ms) = rec.span("cli.serve", "handle_line", || state.handle_line(line));
        rec.add("serve.handle_ms", ms);
        if let Some((trace, config, _)) = cold {
            record_cold_ingest(state, rec, &trace, &config);
        }
        if writer
            .write_all(format!("{reply}\n").as_bytes())
            .and_then(|_| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Record what the cold build that just ran ingested: its timing, and the
/// bytes and events the built session reports to a `stats` request. The
/// session is still pooled (this connection's next build comes after), so
/// the request never builds; it is timed apart, so it stays out of
/// `serve.socket_ms`.
fn record_cold_ingest(state: &ServerState, rec: &Recorder, trace: &str, config: &SessionConfig) {
    if let Some(t) = ocelotl::format::take_last_ingest_timing() {
        rec.add(
            "io.decode_ms",
            t.shard_nanos.iter().sum::<u64>() as f64 / 1e6,
        );
        rec.add("io.merge_ms", t.merge_nanos as f64 / 1e6);
        rec.add("store.hash_ms", t.hash_nanos as f64 / 1e6);
        rec.add("io.shards", t.shard_nanos.len() as f64);
    }
    let t = Instant::now();
    let stats = state.handle_line(&encode_wire_request(trace, config, &AnalysisRequest::Stats));
    rec.add("serve.side_ms", secs(t) * 1e3);
    if let Ok(Ok(AnalysisReply::Stats(s))) = decode_reply(&stats) {
        rec.add("io.bytes_read", s.bytes_read as f64);
        rec.add("io.events", s.events as f64);
    }
}

/// Answer `request` on the direct engine the way the server's write path
/// does: re-slice to the request's resolution, then execute.
fn direct_reply(engine: &mut QueryEngine, slices: usize, request: &AnalysisRequest) -> String {
    let result = engine
        .session_mut()
        .reslice(slices, None)
        .map_err(Into::into)
        .and_then(|_| engine.execute(request));
    encode_reply(&result)
}

/// Replay one warm request stage by stage on the direct engine, recording
/// spans; returns the encoded reply.
fn replay_warm(
    engine: &mut QueryEngine,
    slices: usize,
    request: &AnalysisRequest,
    rec: &Recorder,
) -> String {
    let session = engine.session_mut();
    if session.config().n_slices != slices {
        let _ = rec.span("core.hires", "derive", || {
            session
                .reslice(slices, None)
                .and_then(|_| session.model().map(|_| ()))
        });
    }
    let _ = rec.span("core.cube", "cube", || session.cube().map(|_| ()));
    if let AnalysisRequest::Aggregate { p, coarse, .. }
    | AnalysisRequest::RenderOverview { p, coarse, .. } = request
    {
        let before = session.dp_runs();
        let _ = rec.span("core.dp", "partition_at", || {
            session.partition_at(*p, *coarse)
        });
        rec.add("dp.runs", (session.dp_runs() - before) as f64);
    }
    let (result, ms) = rec.span("core.query", request.kind(), || engine.execute(request));
    if let Some(metric) = execute_metric(request.kind()) {
        rec.add(metric, ms);
    }
    let (reply, ms) = rec.span("format.json", "encode_reply", || encode_reply(&result));
    rec.add("json.encode_ms", ms);
    rec.add("json.reply_bytes", reply.len() as f64);
    reply
}

/// Set-up products: inputs, the running servers, and their shared state.
struct Setup {
    warm: PathBuf,
    warm_events: u64,
    small: Vec<(PathBuf, u64, u64)>,
    state: Arc<ServerState>,
    server: ServerHandle,
    traced: Option<TracedServer>,
}

impl Setup {
    fn stop(self) {
        self.server.stop();
        if let Some(t) = self.traced {
            t.stop();
        }
    }
}

fn set_up(b: &Bench, scales: (f64, f64), slices: [usize; 2]) -> Result<Setup, String> {
    let warm = b.dir.join("warm.btf");
    let warm_events = scenario(CaseId::A, scales.0)
        .run_to_file(&warm, b.opts.seed)
        .map_err(|e| format!("generating {}: {e}", warm.display()))?
        .intervals as u64
        * 2;
    let mut seeds = Rng(b.opts.seed ^ 0x5eed);
    let mut small = Vec::with_capacity(SMALL_TRACES);
    for k in 0..SMALL_TRACES {
        let path = b.dir.join(format!("small-{k}.btf"));
        let stats = scenario(CaseId::A, scales.1)
            .run_to_file(&path, seeds.next_u64())
            .map_err(|e| format!("generating {}: {e}", path.display()))?;
        let bytes = file_len(&path);
        small.push((path, bytes, stats.intervals as u64 * 2));
    }
    let state = Arc::new(ServerState::new(ServeOptions::default()));
    let server = spawn_tcp_with_state("127.0.0.1:0", state.clone()).map_err(|e| e.to_string())?;
    let traced = if b.opts.trace {
        Some(TracedServer::spawn(
            state.clone(),
            b.rec.clone(),
            warm.clone(),
        )?)
    } else {
        None
    };
    // Warm-up: build the warm session and memoize what the stream reuses.
    let mut client = Client::connect(&server.address())?;
    let trace = warm.display().to_string();
    for n in slices {
        for request in warm_up_requests() {
            let reply = client.call(&encode_wire_request(&trace, &config(n), &request))?;
            if !reply.contains("\"reply\"") {
                return Err(format!("warm-up request failed: {reply}"));
            }
        }
    }
    Ok(Setup {
        warm,
        warm_events,
        small,
        state,
        server,
        traced,
    })
}

fn warm_up_requests() -> Vec<AnalysisRequest> {
    let mut requests: Vec<AnalysisRequest> = MEMO_P.iter().map(|&p| aggregate(p)).collect();
    requests.push(overview());
    requests.push(AnalysisRequest::Stats);
    requests
}

/// What one round, or one connection of it, measured.
#[derive(Default)]
struct Round {
    secs: f64,
    ops: Vec<(&'static str, f64)>,
    rtt_ms: f64,
    mismatches: Vec<String>,
}

impl Round {
    fn push(&mut self, kind: &'static str, secs: f64) {
        self.ops.push((kind, secs));
        self.rtt_ms += secs * 1e3;
    }
}

/// One round: the cold connection sends one `aggregate` per small trace
/// while the warm connection streams requests; the round ends when the
/// cold connection is done.
fn round(
    addr: &str,
    setup: &Setup,
    slices: [usize; 2],
    stream: &mut WarmStream,
    ledger: &Mutex<Ledger>,
    replay: Option<(&mut QueryEngine, &Recorder)>,
) -> Result<Round, String> {
    let stop = AtomicBool::new(false);
    let warm_trace = setup.warm.display().to_string();
    std::thread::scope(|scope| {
        let warm = scope.spawn(|| -> Result<Round, String> {
            let mut replay = replay;
            let mut client = Client::connect(addr)?;
            let mut leg = Round::default();
            // At least one warm request per round, however quick the cold
            // connection is.
            loop {
                let (kind, n, request) = stream.next();
                let wire = encode_wire_request(&warm_trace, &config(n), &request);
                let t = Instant::now();
                let reply = client.call(&wire)?;
                leg.push(kind, secs(t));
                if let Some((engine, rec)) = replay.as_mut() {
                    if replay_warm(engine, n, &request, rec) != reply {
                        leg.mismatches
                            .push(format!("traced {kind} reply differs from the served one"));
                    }
                }
                lock(ledger).record(&wire, &setup.warm, n, &request, reply);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Ok(leg)
        });
        let cold = (|| -> Result<Round, String> {
            let t = Instant::now();
            let mut client = Client::connect(addr)?;
            let mut leg = Round::default();
            let request = aggregate(0.5);
            for (path, _, _) in &setup.small {
                let wire =
                    encode_wire_request(&path.display().to_string(), &config(slices[0]), &request);
                let t0 = Instant::now();
                let reply = client.call(&wire)?;
                leg.push("cold", secs(t0));
                lock(ledger).record(&wire, path, slices[0], &request, reply);
            }
            leg.secs = secs(t);
            Ok(leg)
        })();
        stop.store(true, Ordering::SeqCst);
        let warm = warm
            .join()
            .map_err(|_| "warm connection panicked".to_string())??;
        let mut round = cold?;
        round.ops.extend(warm.ops);
        round.rtt_ms += warm.rtt_ms;
        round.mismatches = warm.mismatches;
        Ok(round)
    })
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("ledger lock poisoned by a panicking connection")
}

pub(super) fn run(b: &mut Bench) -> Result<(), String> {
    let (scales, slices) = if b.opts.smoke {
        ((0.005, 0.002), [16, 32])
    } else {
        ((0.05, 0.01), [64, 128])
    };
    let mut setup: Option<Setup> = None;
    while b.more_setups(3) {
        if let Some(previous) = setup.take() {
            previous.stop();
        }
        let t = Instant::now();
        setup = Some(set_up(b, scales, slices)?);
        b.setups.push(secs(t));
    }
    let setup = setup.ok_or("no set-up ran")?;
    b.note("warm_trace_events", setup.warm_events);
    b.note("warm_trace_bytes", file_len(&setup.warm));
    b.note(
        "small_trace_bytes",
        setup.small.iter().map(|s| s.1).sum::<u64>() / SMALL_TRACES as u64,
    );
    b.note(
        "small_trace_events",
        setup.small.iter().map(|s| s.2).sum::<u64>() / SMALL_TRACES as u64,
    );
    b.note("trace_chunks", 0);
    b.note("serve_sessions", ServeOptions::default().max_sessions);
    b.note("connections", 2);
    b.details = vec![
        Detail::ms("warm_p50_ms", &WARM_KINDS, None),
        Detail::ms("warm_p95_ms", &WARM_KINDS, Some(0.95)),
        Detail::ms("cold_p50_ms", &["cold"], None),
        Detail::ms("warm_new_p_p50_ms", &["warm.new_p"], None),
    ];
    b.interactive_kinds = &WARM_KINDS;

    let ledger = Mutex::new(Ledger::default());
    let mut stream = WarmStream {
        rng: Rng(b.opts.seed),
        slices,
        sent: 0,
        memo: 0,
    };
    let mut direct: Option<QueryEngine> = None;
    let result = (|| -> Result<(), String> {
        while b.more_rounds() {
            let r = round(
                &setup.server.address(),
                &setup,
                slices,
                &mut stream,
                &ledger,
                None,
            )?;
            b.end_round(r.secs);
            b.ops.extend(r.ops);
            if let Some(traced) = &setup.traced {
                if direct.is_none() {
                    let mut engine =
                        QueryEngine::new(build_session(&setup.warm, config(slices[0]), None));
                    for n in slices {
                        for request in warm_up_requests() {
                            direct_reply(&mut engine, n, &request);
                        }
                    }
                    direct = Some(engine);
                }
                let engine = direct.as_mut().expect("direct engine built above");
                let rec = b.rec.clone();
                let (builds, busy) = (setup.state.builds_started(), setup.state.busy_rejections());
                let r = round(
                    &traced.addr,
                    &setup,
                    slices,
                    &mut stream,
                    &ledger,
                    Some((engine, &rec)),
                )?;
                rec.add(
                    "serve.socket_ms",
                    r.rtt_ms - rec.current("serve.handle_ms") - rec.current("serve.side_ms"),
                );
                rec.add(
                    "serve.builds_started",
                    (setup.state.builds_started() - builds) as f64,
                );
                rec.add(
                    "serve.busy_rejections",
                    (setup.state.busy_rejections() - busy) as f64,
                );
                for m in &r.mismatches {
                    b.fail(m);
                }
                b.attempted += r.ops.len() as u64;
                b.traced_rounds.push(r.secs);
                rec.end_round();
            }
        }
        Ok(())
    })();
    let untraced_ops = b.ops.len() as u64;
    b.attempted += untraced_ops;
    b.note("builds_started", setup.state.builds_started());
    b.note("busy_rejections", setup.state.busy_rejections());
    stop_and_verify(b, setup, direct, &ledger, slices);
    result
}

/// Stop the servers, then check every distinct request's replies against
/// `encode_reply(QueryEngine::execute(..))` on a direct engine.
fn stop_and_verify(
    b: &mut Bench,
    setup: Setup,
    direct: Option<QueryEngine>,
    ledger: &Mutex<Ledger>,
    slices: [usize; 2],
) {
    let warm = setup.warm.clone();
    setup.stop();
    let mut engine =
        direct.unwrap_or_else(|| QueryEngine::new(build_session(&warm, config(slices[0]), None)));
    let ledger = std::mem::take(&mut *lock(ledger));
    let mut order: Vec<&Line> = ledger.lines.iter().collect();
    order.sort_by_key(|l| (l.trace.clone(), l.slices));
    for (i, line) in order.into_iter().enumerate() {
        let mut expected = if line.trace == warm {
            direct_reply(&mut engine, line.slices, &line.request)
        } else {
            let mut cold = QueryEngine::new(build_session(&line.trace, config(line.slices), None));
            encode_reply(&cold.execute(&line.request))
        };
        if b.opts.inject_mismatch && i == 0 {
            expected.push('!');
        }
        let wrong = if line.first != expected {
            line.replies
        } else {
            line.differing
        };
        for _ in 0..wrong {
            b.fail(format!(
                "{} reply at {} slices differs from a direct engine",
                line.request.kind(),
                line.slices
            ));
        }
    }
}
