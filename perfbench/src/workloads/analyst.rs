//! `analyst-cli`: the interaction loop as separate CLI invocations sharing
//! one fresh cache directory per round.

use super::{check_cli_round, file_len, replay_cli_round, run_cli_round, secs, Rng};
use crate::layers::{artifact_rows, CliOp};
use crate::{Bench, Detail};
use ocelotl::mpisim::{scenario, CaseId};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

pub(super) fn run(b: &mut Bench) -> Result<(), String> {
    // Table II case A at scale 0.05: ~198k events, 64 ranks.
    let (scale, slices) = if b.opts.smoke {
        (0.005, [48, 24, 12])
    } else {
        (0.05, [240, 120, 60])
    };
    let trace = b.dir.join("analyst.btf");
    let mut events = 0;
    while b.more_setups(20) {
        let t = Instant::now();
        let stats = scenario(CaseId::A, scale)
            .run_to_file(&trace, b.opts.seed)
            .map_err(|e| format!("generating {}: {e}", trace.display()))?;
        b.setups.push(secs(t));
        events = stats.intervals * 2;
    }
    b.note("trace_events", events);
    b.note("trace_bytes", file_len(&trace));
    b.note("trace_chunks", 0);
    b.details = vec![
        Detail::median_s("cold_s", &["cold"]),
        Detail::median_s("warm_s", &["warm"]),
        Detail::median_s("new_p_s", &["new_p"]),
        Detail::median_s("reslice_s", &["reslice"]),
        Detail::median_s("pvalues_s", &["pvalues"]),
    ];
    b.interactive_kinds = &["warm", "new_p", "reslice"];

    let mut rng = Rng(b.opts.seed);
    let unseen: Vec<f64> = (0..3).map(|_| rng.unseen_p()).collect();
    let round_ops = |cache: &Path, p_new: f64| -> Vec<CliOp> {
        let op = |kind, p, slices| CliOp {
            kind,
            p,
            trace: trace.clone(),
            slices,
            cache: Some(cache.to_path_buf()),
            window: None,
        };
        vec![
            op("cold", Some(0.5), slices[0]),
            op("warm", Some(0.5), slices[0]),
            op("new_p", Some(p_new), slices[0]),
            op("reslice", Some(0.5), slices[1]),
            op("pvalues", None, slices[2]),
        ]
    };

    let mut reference = HashMap::new();
    let mut round = 0;
    while b.more_rounds() {
        let cache = b.dir.join(format!("cache-{round}"));
        let ops = round_ops(&cache, unseen[round % unseen.len()]);
        let outs = run_cli_round(b, &ops);
        check_cli_round(b, &ops, &outs, &mut reference);
        std::fs::remove_dir_all(&cache).ok();

        if b.opts.trace {
            let cache = b.dir.join(format!("cache-{round}-traced"));
            let ops = round_ops(&cache, unseen[round % unseen.len()]);
            let t = Instant::now();
            let mut side_ms = replay_cli_round(b, &ops, &outs);
            match artifact_rows(&trace, &cache, slices[0], &b.rec) {
                Ok(ms) => side_ms += ms,
                Err(e) => b.fail(format!("artifact rows: {e}")),
            }
            b.traced_rounds.push(secs(t) - side_ms / 1e3);
            b.rec.end_round();
            std::fs::remove_dir_all(&cache).ok();
        }
        round += 1;
    }
    Ok(())
}
