//! The four workloads. Each one sets up its inputs several times (the
//! median is `setup_s`), then runs rounds of a fixed operation sequence
//! until the run's time is up, checking every reply; a traced run replays
//! each round through the layers right after it.

mod analyst;
mod ingest;
mod live;
mod serve;

use crate::layers::{replay_cli, run_cli, CliOp};
use crate::Bench;
use std::path::Path;
use std::time::Instant;

pub(crate) fn run(b: &mut Bench) -> Result<(), String> {
    match b.opts.workload.as_str() {
        "analyst-cli" => analyst::run(b),
        "ingest-large" => ingest::run(b),
        "serve-mixed" => serve::run(b),
        "live-refresh" => live::run(b),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// SplitMix64: the seeded source of every workload choice (unseen `p`
/// values, small-trace seeds).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A trade-off parameter in [0.05, 0.95), away from the memoized ones.
    fn unseen_p(&mut self) -> f64 {
        0.05 + 0.9 * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Run one untraced round of CLI commands, timing each; their outputs.
fn run_cli_round(b: &mut Bench, ops: &[CliOp]) -> Vec<Result<Vec<u8>, String>> {
    let t = Instant::now();
    let outs = ops
        .iter()
        .map(|op| {
            let t0 = Instant::now();
            let out = run_cli(&op.argv());
            b.ops.push((op.kind, secs(t0)));
            out
        })
        .collect();
    b.end_round(secs(t));
    outs
}

/// Check the outputs of one round of CLI commands: each must succeed and
/// print the same bytes as every earlier command with the same key (the
/// warm command after the cold one, and repeats in later rounds).
fn check_cli_round(
    b: &mut Bench,
    ops: &[CliOp],
    outs: &[Result<Vec<u8>, String>],
    reference: &mut std::collections::HashMap<String, Vec<u8>>,
) {
    for (op, out) in ops.iter().zip(outs) {
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                b.check(false, e);
                continue;
            }
        };
        match reference.get(&op.key()) {
            Some(expected) => b.check(
                expected == out,
                format!(
                    "`{}` printed other bytes than the same command before",
                    op.kind
                ),
            ),
            None => {
                b.attempted += 1;
                let mut stored = out.clone();
                if b.opts.inject_mismatch && reference.is_empty() {
                    stored.push(b'!');
                }
                reference.insert(op.key(), stored);
            }
        }
    }
}

/// Replay one round of CLI commands through the layers; each replayed
/// output must equal the untraced one. Returns the milliseconds of side
/// measurements.
fn replay_cli_round(b: &mut Bench, ops: &[CliOp], untraced: &[Result<Vec<u8>, String>]) -> f64 {
    let mut side_ms = 0.0;
    for (op, expected) in ops.iter().zip(untraced) {
        match replay_cli(op, &b.rec) {
            Ok((out, ms)) => {
                side_ms += ms;
                b.check(
                    expected.as_ref().ok() == Some(&out),
                    format!("traced `{}` printed other bytes than untraced", op.kind),
                );
            }
            Err(e) => b.check(false, format!("traced `{}`: {e}", op.kind)),
        }
    }
    side_ms
}
