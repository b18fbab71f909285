//! `ingest-large`: one large trace ingested cold three ways — the sharded
//! `.btf`, the chunked `.octf`, and the `.octf` restricted to a window.

use super::{check_cli_round, file_len, replay_cli_round, run_cli_round, secs};
use crate::layers::{run_cli, CliOp};
use crate::{Bench, Detail};
use ocelotl::core::snap_to_grid;
use ocelotl::mpisim::{scenario, CaseId};
use ocelotl::trace::{hi_res_slices, TimeGrid};
use std::collections::HashMap;
use std::time::Instant;

const SLICES: usize = 30;

pub(super) fn run(b: &mut Bench) -> Result<(), String> {
    // Table II case B at scale 0.1: ~5.2M events over 512 leaves.
    let scale = if b.opts.smoke { 0.002 } else { 0.1 };
    let btf = b.dir.join("large.btf");
    let octf = b.dir.join("large.octf");
    let mut events = 0;
    while b.more_setups(3) {
        let t = Instant::now();
        let stats = scenario(CaseId::B, scale)
            .run_to_file(&btf, b.opts.seed)
            .map_err(|e| format!("generating {}: {e}", btf.display()))?;
        run_cli(&[
            "convert".into(),
            btf.display().to_string(),
            octf.display().to_string(),
        ])?;
        b.setups.push(secs(t));
        events = stats.intervals * 2;
    }

    // The middle 1/16 of the extent, on hi-res slice edges.
    let plan = ocelotl::format::plan_columnar(&octf).map_err(|e| e.to_string())?;
    let range = plan
        .header
        .range
        .ok_or("the converted trace declares no time range")?;
    let h = hi_res_slices(
        SLICES,
        plan.header.hierarchy.n_leaves(),
        plan.header.states.len(),
    );
    let (first, count) = (h / 2 - h / 32, h / 16);
    let grid = TimeGrid::new(range.0, range.1, h);
    let (t0, _) = grid.slice_bounds(first);
    let (_, t1) = grid.slice_bounds(first + count - 1);
    if snap_to_grid(range, h, t0, t1) != Some((first, count)) || count % SLICES != 0 {
        return Err(format!(
            "window [{t0}, {t1}] does not snap to {count} of {h} hi-res slices"
        ));
    }
    b.note("trace_events", events);
    b.note("btf_bytes", file_len(&btf));
    b.note("octf_bytes", file_len(&octf));
    b.note("octf_chunks", plan.chunks.len());
    b.note("window_hi_res_slices", format!("{count}/{h}"));
    b.details = vec![
        Detail::median_s("ingest_s", &["btf"]),
        Detail::median_s("ingest_octf_s", &["octf"]),
        Detail::median_s("window_s", &["window"]),
    ];
    b.interactive_kinds = &["window"];

    let op = |kind, trace: &std::path::Path, window| CliOp {
        kind,
        p: Some(0.5),
        trace: trace.to_path_buf(),
        slices: SLICES,
        cache: None,
        window,
    };
    let ops = [
        op("btf", &btf, None),
        op("octf", &octf, None),
        op("window", &octf, Some((t0, t1))),
    ];
    let mut reference = HashMap::new();
    while b.more_rounds() {
        let outs = run_cli_round(b, &ops);
        check_cli_round(b, &ops, &outs, &mut reference);
        // Both formats hold the same trace: same model, same answer.
        let btf_out = reference.get(&ops[0].key());
        if outs[1].as_ref().ok() != btf_out {
            b.fail("`octf` printed other bytes than `btf`");
        }
        if b.opts.trace {
            let t = Instant::now();
            let side_ms = replay_cli_round(b, &ops, &outs);
            b.traced_rounds.push(secs(t) - side_ms / 1e3);
            b.rec.end_round();
        }
    }

    // The pushdown window must answer like the full `.btf` ingest of the
    // same window.
    let full = run_cli(&op("window", &btf, Some((t0, t1))).argv())?;
    if reference.get(&ops[2].key()) != Some(&full) {
        for _ in 0..b.rounds.len() {
            b.fail("windowed `.octf` printed other bytes than the windowed `.btf`");
        }
    }
    Ok(())
}
