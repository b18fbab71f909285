//! A reply is a pure function of (trace bytes, config, request): every
//! request kind encodes to the same bytes through `execute` and through
//! `execute_shared` on a fresh engine, and through either after every
//! other kind ran first — on a file-backed session and on a live one.

use ocelotl::core::query::{AnalysisRequest, QueryEngine};
use ocelotl::core::{AnalysisSession, HiResModel, Metric, SessionConfig};
use ocelotl::format::encode_reply;
use ocelotl::trace::{Hierarchy, LeafId, MicroModel, StateId, StateRegistry, TimeGrid};
use ocelotl_cli::helpers::build_session;
use std::path::PathBuf;

/// Every kind a session answers without re-slicing it.
fn kinds() -> Vec<AnalysisRequest> {
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
        AnalysisRequest::RenderOverview {
            p: 0.4,
            coarse: false,
            min_rows: 1.0,
            level_resolution: Some(1e-2),
        },
        AnalysisRequest::Stats,
    ]
}

/// The bytes `request` gets through `execute_shared`, or `None` when the
/// shared entry point declined it.
fn shared(engine: &QueryEngine, request: &AnalysisRequest) -> Option<String> {
    engine.execute_shared(request).map(|r| encode_reply(&r))
}

fn check(what: &str, open: impl Fn() -> QueryEngine) {
    let requests = kinds();
    for (i, request) in requests.iter().enumerate() {
        let kind = request.kind();
        let expected = encode_reply(&open().execute(request));
        assert_eq!(
            shared(&open(), request).as_deref(),
            Some(expected.as_str()),
            "{what}/{kind}: execute_shared on a fresh engine"
        );
        let mut exclusive = open();
        let reader = open();
        for other in requests.iter().enumerate().filter(|(j, _)| *j != i) {
            let _ = exclusive.execute(other.1);
            let _ = shared(&reader, other.1);
        }
        assert_eq!(
            encode_reply(&exclusive.execute(request)),
            expected,
            "{what}/{kind}: execute after every other kind"
        );
        assert_eq!(
            shared(&reader, request).as_deref(),
            Some(expected.as_str()),
            "{what}/{kind}: execute_shared after every other kind"
        );
    }
}

/// A small deterministic trace on disk: 4 leaves, a `MPI_Wait` burst on
/// the last one.
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
    let path =
        std::env::temp_dir().join(format!("ocelotl-history-test-{}.btf", std::process::id()));
    ocelotl::format::write_trace(&b.build(), &path).unwrap();
    path
}

#[test]
fn file_backed_replies_do_not_depend_on_history() {
    let trace = fixture();
    let config = SessionConfig {
        n_slices: 10,
        ..SessionConfig::default()
    };
    check("file", || {
        QueryEngine::new(build_session(&trace, config, None))
    });
    std::fs::remove_file(&trace).ok();
}

#[test]
fn live_replies_do_not_depend_on_history() {
    check("live", || {
        let raw = MicroModel::from_dense(
            Hierarchy::balanced(&[2, 2]),
            StateRegistry::from_names(["A", "B"]),
            TimeGrid::new(0.0, 8.0, 4096),
            vec![0.0; 4 * 2 * 4096],
        );
        let config = SessionConfig {
            n_slices: 8,
            ..SessionConfig::default()
        };
        let mut session =
            AnalysisSession::live(config, HiResModel::new(Metric::States, raw)).unwrap();
        let (a, b) = (StateId(0), StateId(1));
        session
            .advance(&[
                (LeafId(0), a, 0.0, 4.0),
                (LeafId(1), a, 0.0, 3.5),
                (LeafId(2), b, 1.0, 2.0),
                (LeafId(3), a, 0.0, 4.0),
            ])
            .unwrap();
        session
            .advance(&[
                (LeafId(0), a, 4.0, 8.0),
                (LeafId(1), b, 3.5, 8.0),
                (LeafId(2), a, 2.0, 8.0),
                (LeafId(3), b, 4.0, 7.0),
            ])
            .unwrap();
        QueryEngine::new(session)
    });
}
