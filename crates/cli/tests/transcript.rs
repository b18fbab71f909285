//! Wire-protocol byte regression: replay a checked-in transcript of
//! request lines through a real server over one pipelined connection and
//! demand the recorded reply bytes, exactly — once with the default
//! cold-build budget and once with a single worker, so the bytes cannot
//! depend on the core count.
//!
//! The transcript pins the *serialized* protocol — field order, float
//! formatting, error envelopes — so an accidental encoding change fails
//! this test even when both encoder and decoder drift together (which
//! round-trip tests cannot see). After an *intentional* protocol change,
//! regenerate with:
//!
//! ```text
//! OCELOTL_BLESS=1 cargo test -p ocelotl-cli --test transcript
//! ```
//!
//! and review the diff like any other source change.

use ocelotl::core::query::AnalysisRequest;
use ocelotl::core::{Metric, SessionConfig};
use ocelotl::format::encode_wire_request;
use ocelotl_cli::commands::query::roundtrip_many;
use ocelotl_cli::commands::serve::{spawn_tcp, ServeOptions};
use std::path::PathBuf;

const TRANSCRIPT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/wire_transcript.txt"
);

/// The deterministic on-disk trace the transcript was recorded against
/// (same shape as the server test fixture). Any change here requires a
/// re-bless.
fn fixture() -> PathBuf {
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
        "ocelotl-transcript-test-{}.btf",
        std::process::id()
    ));
    ocelotl::format::write_trace(&trace, &path).unwrap();
    path
}

/// The request side of the transcript is *generated*, never hand-edited:
/// `$TRACE` keeps the absolute fixture path out of the repository, and
/// the recorded `>` lines are asserted against this list so the file
/// cannot drift from the encoder.
///
/// Covers every multi-line reply stream a client consumes over one
/// connection: describe, a compare+diff aggregate, the significant
/// levels, a full sweep, the p-value slider stops, a cell inspect, a
/// reslice, a config switch (slices + metric), and a protocol error.
fn recorded_requests() -> Vec<String> {
    let base = SessionConfig {
        n_slices: 10,
        ..SessionConfig::default()
    };
    let dense = SessionConfig {
        n_slices: 5,
        metric: Metric::Density,
        ..SessionConfig::default()
    };
    let mut lines = vec![
        encode_wire_request("$TRACE", &base, &AnalysisRequest::Describe),
        encode_wire_request(
            "$TRACE",
            &base,
            &AnalysisRequest::Aggregate {
                p: 0.4,
                coarse: false,
                compare: true,
                diff_p: Some(0.8),
            },
        ),
        encode_wire_request(
            "$TRACE",
            &base,
            &AnalysisRequest::Significant { resolution: 1e-2 },
        ),
        encode_wire_request(
            "$TRACE",
            &base,
            &AnalysisRequest::Sweep {
                resolution: 1e-2,
                steps: 4,
            },
        ),
        encode_wire_request(
            "$TRACE",
            &base,
            &AnalysisRequest::PValues { resolution: 1e-2 },
        ),
        encode_wire_request(
            "$TRACE",
            &base,
            &AnalysisRequest::Inspect {
                leaf: 3,
                slice: 5,
                p: 0.4,
                coarse: false,
            },
        ),
        encode_wire_request(
            "$TRACE",
            &base,
            &AnalysisRequest::Reslice {
                n_slices: 20,
                range: Some((2.0, 7.0)),
            },
        ),
        encode_wire_request("$TRACE", &dense, &AnalysisRequest::Describe),
        encode_wire_request(
            "$TRACE",
            &dense,
            &AnalysisRequest::Aggregate {
                p: 0.5,
                coarse: true,
                compare: false,
                diff_p: None,
            },
        ),
        // Error envelopes are wire bytes too: an out-of-range p must
        // reproduce its recorded error line exactly.
        encode_wire_request(
            "$TRACE",
            &base,
            &AnalysisRequest::Aggregate {
                p: 1.5,
                coarse: false,
                compare: false,
                diff_p: None,
            },
        ),
    ];
    // A malformed line exercises the protocol-error envelope.
    lines.push("{\"v\":1,\"nonsense\":true}".to_string());
    lines
}

fn parse_transcript(text: &str) -> (Vec<String>, Vec<String>) {
    let mut reqs = Vec::new();
    let mut reps = Vec::new();
    for line in text.lines() {
        if let Some(r) = line.strip_prefix("> ") {
            reqs.push(r.to_string());
        } else if let Some(r) = line.strip_prefix("< ") {
            reps.push(r.to_string());
        } else {
            assert!(
                line.is_empty() || line.starts_with('#'),
                "unrecognized transcript line: {line}"
            );
        }
    }
    (reqs, reps)
}

#[test]
fn wire_replies_match_the_recorded_transcript() {
    let trace = fixture();
    let recorded = recorded_requests();
    let wires: Vec<String> = recorded
        .iter()
        .map(|l| l.replace("$TRACE", trace.to_str().unwrap()))
        .collect();

    let replay = |opts: ServeOptions| {
        let server = spawn_tcp("127.0.0.1:0", opts).unwrap();
        let replies = roundtrip_many(&server.address(), &wires).unwrap();
        server.stop();
        replies
    };
    let replies = replay(ServeOptions::default());
    let one_worker = replay(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    std::fs::remove_file(&trace).ok();
    assert_eq!(replies.len(), recorded.len(), "one reply line per request");
    assert_eq!(
        one_worker, replies,
        "reply bytes must not depend on the cold-build budget"
    );

    if std::env::var_os("OCELOTL_BLESS").is_some() {
        let mut out = String::from(
            "# Recorded wire transcript: `> request` / `< reply` line pairs.\n\
             # Generated by tests/transcript.rs — regenerate with\n\
             # OCELOTL_BLESS=1 cargo test -p ocelotl-cli --test transcript\n",
        );
        for (req, rep) in recorded.iter().zip(&replies) {
            out.push_str(&format!("\n> {req}\n< {rep}\n"));
        }
        std::fs::create_dir_all(PathBuf::from(TRANSCRIPT).parent().unwrap()).unwrap();
        std::fs::write(TRANSCRIPT, out).unwrap();
        return;
    }

    let text = std::fs::read_to_string(TRANSCRIPT).expect(
        "transcript missing — record it with OCELOTL_BLESS=1 cargo test -p ocelotl-cli --test transcript",
    );
    let (want_reqs, want_reps) = parse_transcript(&text);
    assert_eq!(
        want_reqs, recorded,
        "recorded request lines drifted from the encoder — re-bless and review"
    );
    assert_eq!(want_reps.len(), replies.len());
    for (i, (want, got)) in want_reps.iter().zip(&replies).enumerate() {
        assert_eq!(
            want, got,
            "reply {i} (to {}) changed its wire bytes — if intentional, re-bless and review",
            recorded[i]
        );
    }
}
