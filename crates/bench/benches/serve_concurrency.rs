//! Concurrent `ocelotl serve`: N clients over one warm session, and warm
//! reads racing a cold ingest — the two claims behind the server's
//! concurrency model, measured end to end over TCP.
//!
//! **Throughput phase.** N ∈ {1, 2, 4, 8} closed-loop clients, each on
//! its own persistent connection, replay a mixed request stream
//! (`aggregate` at memoized p values, `sweep`, `reslice`) against one
//! warm session with a fixed per-request think time. Because every
//! client thinks ~2 ms between requests and a warm read costs far less,
//! aggregate throughput scales with the client count *iff* warm reads
//! really are lock-free with respect to each other — any serialization
//! (the old single pool mutex) flattens the curve immediately. The run
//! asserts ≥3× throughput at 4 clients vs 1, and that every reply is
//! byte-identical to the single-client bytes.
//!
//! **Alternating phase.** 4 clients replay the same stream, alternating
//! the session's resolution and twice that on every request (perfbench
//! serve-mixed's 64/128 pattern), all against the one pooled session. Its
//! throughput is reported next to the one-resolution rows.
//!
//! **Head-of-line phase.** p95 warm-read latency is sampled uncontended,
//! then re-sampled while a much larger trace cold-ingests on a second
//! connection. The run asserts the contended p95 stays within 2× of the
//! baseline: the cold build holds no lock a warm reader needs.
//!
//! Emits one `BENCH {...}` line per measurement plus
//! `BENCH_concurrency.json` (path override: `BENCH_CONCURRENCY_JSON`),
//! every row with the box's `available_parallelism`, before either bar is
//! checked, so a run that misses one still reports its figures. Env knobs:
//! `OCELOTL_CONCURRENCY_EVENTS` (warm-trace target, default 200 000; the
//! cold trace is 4× that), `OCELOTL_CONCURRENCY_SLICES` (default 64).

use criterion::{criterion_group, criterion_main, Criterion};
use ocelotl::core::query::AnalysisRequest;
use ocelotl::core::SessionConfig;
use ocelotl::mpisim::{scenario_with_events, CaseId};
use ocelotl_bench::scratch;
use ocelotl_cli::commands::serve::{spawn_tcp, ServeOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REQUESTS_PER_CLIENT: usize = 40;
const THINK: Duration = Duration::from_millis(2);

fn target_events() -> u64 {
    std::env::var("OCELOTL_CONCURRENCY_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000)
}

fn slices() -> usize {
    std::env::var("OCELOTL_CONCURRENCY_SLICES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// One persistent client connection: send a line, read the reply line.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Client { writer, reader }
    }

    fn call(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        assert!(!reply.trim().is_empty(), "server closed mid-bench");
        reply.trim_end().to_string()
    }
}

fn p95(samples: &mut [Duration]) -> Duration {
    samples.sort();
    samples[(samples.len() * 95) / 100]
}

fn bench_concurrency(_c: &mut Criterion) {
    let target = target_events();
    let n_slices = slices();

    let warm_path = scratch("serve_conc_warm.btf");
    scenario_with_events(CaseId::A, target)
        .run_to_file(&warm_path, 42)
        .expect("streamed generation");
    let cold_path = scratch("serve_conc_cold.btf");
    scenario_with_events(CaseId::B, target * 4)
        .run_to_file(&cold_path, 43)
        .expect("streamed generation");

    let config = SessionConfig {
        n_slices,
        ..SessionConfig::default()
    };
    let server = spawn_tcp("127.0.0.1:0", ServeOptions::default()).expect("bind");
    let addr = server.address();
    let warm_trace = warm_path.display().to_string();

    // The mixed warm stream: aggregates at three p values, a level sweep
    // and a (no-op resolution) reslice.
    let agg = |p: f64| AnalysisRequest::Aggregate {
        p,
        coarse: false,
        compare: false,
        diff_p: None,
    };
    let mix_at = |n_slices: usize| -> Vec<String> {
        let config = SessionConfig {
            n_slices,
            ..SessionConfig::default()
        };
        [
            agg(0.2),
            agg(0.5),
            agg(0.8),
            AnalysisRequest::Sweep {
                resolution: 1e-2,
                steps: 4,
            },
            AnalysisRequest::Reslice {
                n_slices,
                range: None,
            },
        ]
        .iter()
        .map(|r| ocelotl::format::encode_wire_request(&warm_trace, &config, r))
        .collect()
    };
    let mix = mix_at(n_slices);
    // The same stream with every other request at twice the resolution:
    // consecutive entries (wrap-around included) alternate.
    let alternating: Vec<String> = mix
        .iter()
        .cloned()
        .zip(mix_at(2 * n_slices))
        .flat_map(|(one, twice)| [one, twice])
        .collect();

    // Warm the session (cold build + every memo the streams touch) and pin
    // the expected bytes — concurrency must not change a single one.
    let mut warm_client = Client::connect(&addr);
    let expected: Vec<String> = mix.iter().map(|w| warm_client.call(w)).collect();
    let alternating_expected: Vec<String> =
        alternating.iter().map(|w| warm_client.call(w)).collect();
    for r in expected.iter().chain(&alternating_expected) {
        assert!(r.contains("\"reply\""), "{r}");
    }

    // ---- Throughput phases ------------------------------------------
    let run_clients = |n_clients: usize, stream: &[String], expected: &[String]| {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..n_clients {
                let addr = &addr;
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    for k in 0..REQUESTS_PER_CLIENT {
                        let i = (c + k) % stream.len();
                        let got = client.call(&stream[i]);
                        assert_eq!(got, expected[i], "client {c} request {k}");
                        std::thread::sleep(THINK);
                    }
                });
            }
        });
        let wall = t0.elapsed();
        let tput = (n_clients * REQUESTS_PER_CLIENT) as f64 / wall.as_secs_f64();
        println!(
            "  {n_clients} client(s): {} requests in {:.0} ms -> {tput:.0} req/s",
            n_clients * REQUESTS_PER_CLIENT,
            wall.as_secs_f64() * 1e3
        );
        tput
    };
    let throughput: Vec<(usize, f64)> = CLIENT_COUNTS
        .iter()
        .map(|&n| (n, run_clients(n, &mix, &expected)))
        .collect();
    let tput1 = throughput[0].1;
    let tput4 = throughput[2].1;
    let scaling = tput4 / tput1.max(1e-9);
    println!("alternating {n_slices} and {} slices:", 2 * n_slices);
    let alternating_tput = run_clients(4, &alternating, &alternating_expected);

    // ---- Head-of-line phase -----------------------------------------
    // Uncontended p95 of a warm aggregate read…
    let probe = &mix[1];
    let sample = |client: &mut Client, n: usize, stop: &dyn Fn() -> bool| {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            if stop() {
                break;
            }
            let t = Instant::now();
            let got = client.call(probe);
            out.push(t.elapsed());
            assert_eq!(&got, &expected[1]);
        }
        out
    };
    let mut baseline = sample(&mut warm_client, 300, &|| false);
    let base_p95 = p95(&mut baseline);

    // …vs p95 while the big trace cold-ingests on another connection.
    let done = std::sync::atomic::AtomicBool::new(false);
    let mut contended = std::thread::scope(|scope| {
        let (addr, cold_path, done) = (&addr, &cold_path, &done);
        scope.spawn(move || {
            let wire = ocelotl::format::encode_wire_request(
                &cold_path.display().to_string(),
                &config,
                &AnalysisRequest::Describe,
            );
            let reply = Client::connect(addr).call(&wire);
            assert!(reply.contains("\"reply\""), "{reply}");
            done.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        let samples = sample(&mut warm_client, 100_000, &|| {
            done.load(std::sync::atomic::Ordering::SeqCst)
        });
        assert!(
            samples.len() >= 20,
            "cold ingest finished after only {} warm probes; raise \
             OCELOTL_CONCURRENCY_EVENTS for a meaningful p95",
            samples.len()
        );
        samples
    });
    let cont_p95 = p95(&mut contended);
    let overlapped = contended.len();
    server.stop();

    let ratio = cont_p95.as_secs_f64() / base_p95.as_secs_f64().max(1e-9);
    println!(
        "warm p95 {:.3} ms uncontended, {:.3} ms during cold ingest \
         ({ratio:.2}x, {overlapped} overlapped reads)",
        base_p95.as_secs_f64() * 1e3,
        cont_p95.as_secs_f64() * 1e3,
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let row = |fields: String| {
        format!(
            "{{\"bench\":\"serve_concurrency\",{fields},\"target_events\":{target},\
             \"slices\":{n_slices},\"available_parallelism\":{cores}}}"
        )
    };
    let mut entries: Vec<String> = throughput
        .iter()
        .map(|(n, tput)| {
            row(format!(
                "\"phase\":\"throughput\",\"clients\":{n},\"requests\":{},\
                 \"throughput_rps\":{tput:.1}",
                n * REQUESTS_PER_CLIENT
            ))
        })
        .collect();
    entries.push(row(format!(
        "\"phase\":\"throughput_alternating\",\"alternate_slices\":{},\"clients\":4,\
         \"requests\":{},\"throughput_rps\":{alternating_tput:.1}",
        2 * n_slices,
        4 * REQUESTS_PER_CLIENT
    )));
    entries.push(row(format!(
        "\"phase\":\"scaling\",\"clients\":4,\"vs_clients\":1,\"speedup\":{scaling:.2}"
    )));
    entries.push(row(format!(
        "\"phase\":\"head_of_line\",\"baseline_p95_ms\":{:.4},\
         \"contended_p95_ms\":{:.4},\"ratio\":{ratio:.2},\"overlapped_reads\":{overlapped}",
        base_p95.as_secs_f64() * 1e3,
        cont_p95.as_secs_f64() * 1e3,
    )));
    for e in &entries {
        println!("BENCH {e}");
    }
    let json_path =
        std::env::var("BENCH_CONCURRENCY_JSON").unwrap_or_else(|_| "BENCH_concurrency.json".into());
    let json = format!("[\n  {}\n]\n", entries.join(",\n  "));
    if let Err(e) = std::fs::write(&json_path, json) {
        eprintln!("could not write {json_path}: {e}");
    } else {
        println!("wrote {json_path}");
    }
    std::fs::remove_file(&warm_path).ok();
    std::fs::remove_file(&cold_path).ok();

    // The bars, checked once every row is out.
    assert!(
        scaling >= 3.0,
        "4 warm clients must deliver >=3x the throughput of 1 (got {scaling:.2}x: \
         {tput1:.0} -> {tput4:.0} req/s); warm reads are serializing somewhere"
    );
    assert!(
        ratio <= 2.0,
        "a cold ingest must not block warm reads: contended p95 {:.3} ms \
         vs baseline {:.3} ms ({ratio:.2}x > 2x)",
        cont_p95.as_secs_f64() * 1e3,
        base_p95.as_secs_f64() * 1e3,
    );
}

criterion_group!(benches, bench_concurrency);
criterion_main!(benches);
