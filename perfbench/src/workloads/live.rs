//! `live-refresh`: a published live session fed a simulated run batch by
//! batch; each refresh is one `LiveFeeder::feed` plus the re-answered
//! `aggregate`.

use super::{file_len, secs};
use crate::{Bench, Detail};
use ocelotl::core::query::{AnalysisRequest, QueryEngine};
use ocelotl::core::{hi_res_slices, AnalysisSession, HiResModel, LiveEvent, SessionConfig};
use ocelotl::format::encode_reply;
use ocelotl::mpisim::{scenario_with_events, CaseId, Engine};
use ocelotl::prelude::LeafId;
use ocelotl::trace::{Hierarchy, MicroBuilder, StateRegistry, TimeGrid};
use ocelotl_cli::commands::serve::{ServeOptions, ServerState};
use std::time::Instant;

const N_SLICES: usize = 30;

fn request() -> AnalysisRequest {
    AnalysisRequest::Aggregate {
        p: 0.5,
        coarse: false,
        compare: false,
        diff_p: None,
    }
}

fn config() -> SessionConfig {
    SessionConfig {
        n_slices: N_SLICES,
        ..SessionConfig::default()
    }
}

/// The simulated run: its events in emission order and what a live
/// session declares up front.
struct Feed {
    events: Vec<LiveEvent>,
    hierarchy: Hierarchy,
    registry: StateRegistry,
    range: (f64, f64),
}

impl Feed {
    /// An empty live session over the declared grid, as `simulate --live`
    /// publishes it.
    fn session(&self) -> Result<AnalysisSession, String> {
        let h = hi_res_slices(N_SLICES, self.hierarchy.n_leaves(), self.registry.len());
        let grid = TimeGrid::new(self.range.0, self.range.1, h);
        let empty = MicroBuilder::new(self.hierarchy.clone(), self.registry.clone(), grid).finish();
        AnalysisSession::live(config(), HiResModel::new(config().metric, empty))
            .map_err(|e| e.to_string())
    }
}

pub(super) fn run(b: &mut Bench) -> Result<(), String> {
    // Batches of 4096 events: 2048 intervals, each a begin and an end.
    let (target, batch) = if b.opts.smoke {
        (20_000, 512)
    } else {
        (1_000_000, 2048)
    };
    let file = b.dir.join("live.btf");
    let mut feed = None;
    while b.more_setups(10) {
        let t = Instant::now();
        let sc = scenario_with_events(CaseId::A, target);
        sc.run_to_file(&file, b.opts.seed)
            .map_err(|e| format!("generating {}: {e}", file.display()))?;
        let mut events: Vec<LiveEvent> = Vec::new();
        let (mut t_min, mut t_max) = (f64::INFINITY, f64::NEG_INFINITY);
        sc.run_with_emit(b.opts.seed, &mut |rank, state, begin, end| {
            t_min = t_min.min(begin);
            t_max = t_max.max(end);
            events.push((LeafId(rank), state, begin, end));
        });
        if t_max <= t_min {
            return Err("the simulation emitted no intervals".into());
        }
        let (registry, _) = Engine::standard_states();
        feed = Some(Feed {
            events,
            hierarchy: sc.platform.hierarchy(),
            registry,
            range: (t_min, t_max),
        });
        b.setups.push(secs(t));
    }
    let feed = feed.ok_or("no set-up ran")?;
    let batches: Vec<&[LiveEvent]> = feed.events.chunks(batch).collect();
    b.note("trace_events", feed.events.len() * 2);
    b.note("trace_bytes", file_len(&file));
    b.note("trace_chunks", 0);
    b.note("batch_events", batch);
    b.note("refreshes_per_round", batches.len());
    b.details = vec![
        Detail::ms("refresh_p50_ms", &["refresh"], None),
        Detail::ms("refresh_p95_ms", &["refresh"], Some(0.95)),
    ];
    b.interactive_kinds = &["refresh"];

    let request = request();
    let mut reference: Option<Vec<String>> = None;
    while b.more_rounds() {
        let state = ServerState::new(ServeOptions::default());
        let feeder = state.publish_live("live", QueryEngine::new(feed.session()?));
        let t = Instant::now();
        let mut replies = Vec::with_capacity(batches.len());
        for chunk in &batches {
            let t0 = Instant::now();
            let reply = match feeder.feed(chunk) {
                Ok(()) => match feeder.with_engine(|e| e.execute_shared(&request)) {
                    Some(Some(result)) => encode_reply(&result),
                    _ => "live session not answerable after a refresh".to_string(),
                },
                Err(e) => encode_reply(&Err(e)),
            };
            b.ops.push(("refresh", secs(t0)));
            replies.push(reply);
        }
        feeder.finish();
        b.end_round(secs(t));
        match &reference {
            // Every round feeds the same events: the same replies.
            Some(expected) => {
                for (i, reply) in replies.iter().enumerate() {
                    b.check(
                        expected.get(i) == Some(reply),
                        format!("refresh {i} replied other bytes than in the first round"),
                    );
                }
            }
            None => {
                for (i, reply) in replies.iter().enumerate() {
                    b.check(
                        reply.contains("\"reply\""),
                        format!("refresh {i} failed: {reply}"),
                    );
                }
            }
        }
        if b.opts.trace {
            let t = Instant::now();
            replay_round(b, &feed, &batches, &replies)?;
            b.traced_rounds.push(secs(t));
            b.rec.end_round();
        }
        reference.get_or_insert(replies);
    }

    // The final refresh must equal a post-mortem ingest of the same events.
    let report = ocelotl::format::read_hi_res(&file, N_SLICES, config().metric.model_kind())
        .map_err(|e| e.to_string())?;
    let session = AnalysisSession::live(config(), HiResModel::new(config().metric, report.model))
        .map_err(|e| e.to_string())?;
    let mut expected = encode_reply(&QueryEngine::new(session).execute(&request));
    if b.opts.inject_mismatch {
        expected.push('!');
    }
    let last = reference.as_ref().and_then(|r| r.last());
    if last != Some(&expected) {
        for _ in 0..b.rounds.len() {
            b.fail("final live reply differs from a post-mortem ingest of the same events");
        }
    }
    Ok(())
}

/// Replay one round through the layers — `advance`, derive, `warm_up`,
/// the DP and the answer — each refresh's reply byte-identical to the
/// untraced one.
fn replay_round(
    b: &mut Bench,
    feed: &Feed,
    batches: &[&[LiveEvent]],
    untraced: &[String],
) -> Result<(), String> {
    let rec = b.rec.clone();
    let request = request();
    let mut engine = QueryEngine::new(feed.session()?);
    for (i, chunk) in batches.iter().enumerate() {
        let (fed, feed_ms) = rec.span("live", "feed", || -> Result<(), String> {
            let session = engine.session_mut();
            rec.span("core.hires", "append", || session.advance(chunk))
                .0
                .map_err(|e| e.to_string())?;
            rec.span("core.hires", "derive", || session.model().map(|_| ()))
                .0
                .map_err(|e| e.to_string())?;
            rec.span("core.cube", "warm_up", || engine.warm_up())
                .0
                .map_err(|e| e.to_string())
        });
        rec.add("live.feed_ms", feed_ms);
        let (reply, answer_ms) = rec.span("live", "answer", || {
            let session = engine.session();
            let before = session.dp_runs();
            let _ = rec.span("core.dp", "partition_shared", || {
                session.partition_shared(0.5, false)
            });
            rec.add("dp.runs", (session.dp_runs() - before) as f64);
            let (result, ms) = rec.span("core.query", "aggregate", || {
                engine.execute_shared(&request)
            });
            rec.add("query.execute_ms.aggregate", ms);
            let result = result
                .unwrap_or_else(|| Err(ocelotl::core::QueryError::Source("not prepared".into())));
            let (reply, ms) = rec.span("format.json", "encode_reply", || encode_reply(&result));
            rec.add("json.encode_ms", ms);
            rec.add("json.reply_bytes", reply.len() as f64);
            reply
        });
        rec.add("live.answer_ms", answer_ms);
        b.check(
            fed.is_ok() && untraced.get(i) == Some(&reply),
            format!("traced refresh {i} replied other bytes than untraced"),
        );
    }
    Ok(())
}
