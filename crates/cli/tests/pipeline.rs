//! End-to-end CLI pipeline: every subcommand chained over real files, the
//! way an analyst would drive the tool.

use ocelotl_cli::{run, CliError};
use std::path::PathBuf;

struct Workdir(PathBuf);

impl Workdir {
    fn new(tag: &str) -> Self {
        let d = std::env::temp_dir().join(format!("ocelotl-pipeline-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        Workdir(d)
    }
    fn path(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn cli(line: &str) -> Result<String, CliError> {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let mut out = Vec::new();
    run(&argv, &mut out)?;
    Ok(String::from_utf8(out).unwrap())
}

#[test]
fn analyst_workflow_end_to_end() {
    let w = Workdir::new("main");
    let trace = w.path("case_a.btf");
    let omm = w.path("case_a.omm");

    // 1. Simulate Table II case A at a tiny scale.
    let text = cli(&format!("simulate --case A --scale 0.004 --out {trace}")).unwrap();
    assert!(text.contains("case A"), "{text}");

    // 2. Inspect the file.
    let text = cli(&format!("info {trace}")).unwrap();
    assert!(text.contains("64 leaves"), "{text}");
    assert!(text.contains("MPI_Send"), "{text}");

    // 3. Preprocess once.
    let text = cli(&format!("describe {trace} --slices 30 --out {omm}")).unwrap();
    assert!(text.contains("model:"), "{text}");
    assert!(text.contains("wrote"), "{text}");

    // 4. Aggregate from the cache, with baselines, a diff and a TSV dump.
    let tsv = w.path("areas.tsv");
    let text = cli(&format!(
        "aggregate {omm} --p 0.4 --compare --diff-p 0.8 --tsv {tsv}"
    ))
    .unwrap();
    assert!(text.contains("baseline comparison"), "{text}");
    assert!(text.contains("overview change"), "{text}");
    let rows = std::fs::read_to_string(&tsv).unwrap();
    assert!(rows.lines().count() > 1);

    // 5. The slider stops.
    let text = cli(&format!("pvalues {omm} --resolution 0.01")).unwrap();
    assert!(text.contains("significant levels"), "{text}");

    // 6. Render: ASCII to stdout, SVG + Gantt to files.
    let text = cli(&format!(
        "render {omm} --p 0.4 --ascii --width 60 --height 8"
    ))
    .unwrap();
    assert!(text.contains("legend:"), "{text}");
    let svg = w.path("overview.svg");
    cli(&format!("render {omm} --p 0.4 --out {svg}")).unwrap();
    assert!(std::fs::read_to_string(&svg).unwrap().contains("<svg"));
    let gantt_svg = w.path("gantt.svg");
    let text = cli(&format!("render {trace} --gantt --out {gantt_svg}")).unwrap();
    assert!(text.contains("drawable objects"), "{text}");

    // 7. Inspect the init-phase aggregate.
    let text = cli(&format!("inspect {omm} --leaf 0 --slice 0 --p 0.4")).unwrap();
    assert!(text.contains("MPI_Init"), "{text}");

    // 8. Convert to Paje and back; event counts survive.
    let paje = w.path("case_a.paje");
    let back = w.path("back.ptf");
    cli(&format!("convert {trace} {paje}")).unwrap();
    let text = cli(&format!("convert {paje} {back}")).unwrap();
    assert!(text.contains("converted"), "{text}");

    // 9. HTML report from the cache.
    let html = w.path("report.html");
    cli(&format!("report {omm} --out {html} --levels 2")).unwrap();
    assert!(std::fs::read_to_string(&html).unwrap().contains("<html"));
}

#[test]
fn gantt_on_cache_is_a_usage_error() {
    let w = Workdir::new("gantt-omm");
    let trace = w.path("t.btf");
    let omm = w.path("t.omm");
    cli(&format!(
        "simulate --app ep --machines 2 --cores 2 --out {trace}"
    ))
    .unwrap();
    cli(&format!("describe {trace} --slices 10 --out {omm}")).unwrap();
    let err = cli(&format!("render {omm} --gantt")).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err}");
}

#[test]
fn zero_slices_is_a_usage_error_and_an_overflowing_count_a_typed_one() {
    let w = Workdir::new("bad-slices");
    let trace = w.path("t.btf");
    cli(&format!(
        "simulate --app ep --machines 2 --cores 2 --out {trace}"
    ))
    .unwrap();
    for (command, flags) in [
        ("aggregate", ""),
        ("info", "--stats"),
        ("render", "--ascii"),
    ] {
        let run = |slices: usize| cli(&format!("{command} {trace} {flags} --slices {slices}"));
        let err = run(0).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{command}: {err}");
        assert!(
            err.to_string().contains("--slices must be at least 1"),
            "{err}"
        );
        for huge in [1usize << 62, usize::MAX] {
            let err = run(huge).unwrap_err();
            assert_eq!(err.exit_code(), 1, "{command} --slices {huge}: {err}");
            assert!(err.to_string().contains("overflows"), "{err}");
            assert!(!err.to_string().contains("parse error"), "{err}");
        }
    }
}

/// A DP whose tables would exceed the bound is refused before it
/// allocates them (it used to abort the process), naming the bytes it
/// needs and the bound.
#[test]
fn a_dp_too_large_to_allocate_is_refused_typed() {
    let w = Workdir::new("huge-dp");
    let trace = w.path("t.btf");
    cli(&format!(
        "simulate --app ep --machines 2 --cores 2 --out {trace}"
    ))
    .unwrap();
    for command in ["aggregate", "pvalues"] {
        let err = cli(&format!("{command} {trace} --slices 100000 --no-cache")).unwrap_err();
        let bound = ocelotl::core::DP_LIMIT_BYTES.to_string();
        let message = err.to_string();
        assert!(message.contains(&bound), "{command}: {message}");
        assert!(
            message.contains("640006400000 bytes"),
            "{command}: {message}"
        );
        assert_eq!(err.exit_code(), 2, "{command}: {message}");
    }
}

/// A time range whose width overflows an `f64`, and a stream whose
/// intervals could push a cell past `f64::MAX`, are refused typed: both
/// used to panic on the model's cells.
#[test]
fn a_trace_too_wide_for_its_cells_is_refused_typed() {
    let w = Workdir::new("wide-range");
    let header = "%PTF 1\n%node 0 - root r\n%node 1 0 p p0\n%state 0 S\n";
    let wide = w.path("wide.ptf");
    let interval = "S 0 0 -1e308 1e308\n";
    std::fs::write(&wide, format!("{header}%range -1e308 1e308\n{interval}")).unwrap();
    // 5,000 of these overflow a hi-res cell; 1,000 overflow only a cell
    // rebinned from the grid (the 4-slice model).
    let cells = |n: usize| {
        let path = w.path(&format!("cells{n}.ptf"));
        let intervals = "S 0 0 0 1.7e308\n".repeat(n);
        std::fs::write(&path, format!("{header}%range 0 1.7e308\n{intervals}")).unwrap();
        path
    };
    for (trace, why) in [
        (wide, "time range is wider than an f64 can hold"),
        (cells(5000), "could overflow a model cell"),
        (cells(1000), "could overflow a model cell"),
    ] {
        for line in [
            format!("aggregate {trace} --slices 4 --p 0.5 --no-cache"),
            format!("info {trace} --stats --slices 4"),
        ] {
            let err = cli(&line).unwrap_err();
            let message = err.to_string();
            assert_eq!(err.exit_code(), 1, "{line}: {message}");
            assert!(message.contains(why), "{line}: {message}");
            assert!(!message.contains("panicked"), "{line}: {message}");
        }
    }
}

#[test]
fn density_metric_flows_through_describe() {
    let w = Workdir::new("density");
    let trace = w.path("t.btf");
    let omm = w.path("t.omm");
    cli(&format!(
        "simulate --app mg --machines 2 --cores 2 --out {trace}"
    ))
    .unwrap();
    cli(&format!(
        "describe {trace} --slices 20 --metric density --out {omm}"
    ))
    .unwrap();
    // The cached model carries the density metric; aggregate just works.
    let text = cli(&format!("aggregate {omm} --p 0.5")).unwrap();
    assert!(text.contains("20 slices"), "{text}");
}

#[test]
fn corrupted_cache_is_reported_not_panicked() {
    let w = Workdir::new("corrupt");
    let omm = w.path("bad.omm");
    std::fs::write(&omm, b"OMM1garbage-not-a-model").unwrap();
    // The session wraps the format error into a reported (non-usage)
    // failure; the underlying cause must survive in the message.
    let err = cli(&format!("aggregate {omm}")).unwrap_err();
    assert!(
        matches!(err, CliError::Invalid(_) | CliError::Format(_)),
        "{err}"
    );
    assert!(err.to_string().contains("format error"), "{err}");
}

#[test]
fn repeated_commands_share_one_warm_session_cache() {
    let w = Workdir::new("warm-chain");
    let trace = w.path("t.btf");
    let cache = w.path("cache");
    cli(&format!(
        "simulate --app ep --machines 2 --cores 2 --out {trace}"
    ))
    .unwrap();
    // aggregate (cold) → pvalues → sweep → render → inspect, one cache dir:
    // replies are deterministic, so a warm re-run is byte-identical, and
    // sweep's own timing line proves the cache served everything.
    let cold = cli(&format!("aggregate {trace} --slices 12 --cache {cache}")).unwrap();
    let warm = cli(&format!("aggregate {trace} --slices 12 --cache {cache}")).unwrap();
    assert_eq!(cold, warm, "warm aggregate must repeat the cold bytes");
    let text = cli(&format!("pvalues {trace} --slices 12 --cache {cache}")).unwrap();
    assert!(text.contains("significant levels"), "{text}");
    let text = cli(&format!(
        "sweep {trace} --slices 12 --steps 2 --cache {cache}"
    ))
    .unwrap();
    assert!(text.contains("DP runs"), "{text}");
    let text = cli(&format!(
        "sweep {trace} --slices 12 --steps 2 --cache {cache}"
    ))
    .unwrap();
    assert!(text.contains("warm .opart, zero DP runs"), "{text}");
    let svg = w.path("o.svg");
    cli(&format!(
        "render {trace} --slices 12 --out {svg} --cache {cache}"
    ))
    .unwrap();
    let text = cli(&format!(
        "inspect {trace} --slices 12 --leaf 0 --slice 0 --cache {cache}"
    ))
    .unwrap();
    assert!(text.contains("aggregate covering"), "{text}");
    // Exactly one .ocube/.opart pair lives in the cache.
    let exts: Vec<String> = std::fs::read_dir(&cache)
        .unwrap()
        .flatten()
        .filter_map(|e| {
            e.path()
                .extension()
                .map(|x| x.to_string_lossy().into_owned())
        })
        .collect();
    assert_eq!(exts.iter().filter(|e| *e == "ocube").count(), 1, "{exts:?}");
    assert_eq!(exts.iter().filter(|e| *e == "opart").count(), 1, "{exts:?}");
}
