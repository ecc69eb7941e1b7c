//! `corpus_scan`: the CI user. A seeded labeled corpus (three bug
//! classes, each with a matched benign twin), the paper's figures and
//! the E3 syntactic variants are written to files and scanned in
//! batches with `scan_paths` at `jobs` <= nproc, each batch's summary
//! rendered as text and as JSON. Many small scripts with few worlds:
//! parsing, spec dispatch, relang decisions, checkers and the scan
//! driver do the work.
//!
//! References: the corpus labels, each variant's `dangerous` flag, and
//! the figure verdicts below, written by hand from the paper.

use crate::layers::span_sum_ms;
use crate::{layers, obs_switch, timed, Args, Outcome};
use shoal_core::{scan_paths, DiagCode, ScanOptions, ScanSummary};
use shoal_corpus::{figures, generate_corpus, variants, BugClass};
use shoal_obs::XorShift64;
use std::collections::HashMap;
use std::path::PathBuf;

/// Labeled scripts per bug class (plus as many benign twins).
const PER_CLASS: usize = 20;
/// Scripts per `scan_paths` call.
const BATCH: usize = 16;

/// What a script's verdict must say: each code present or absent.
type Expect = Vec<(DiagCode, bool)>;

/// The paper's verdicts on its figures (§2, §3, §4). `curl-to-sh` is a
/// policy example (§5) with no analyzer verdict in the paper.
fn figure_expect(name: &str) -> Expect {
    use DiagCode::*;
    match name {
        "fig1" | "fig3" | "variant-split" => vec![(DangerousDelete, true)],
        "fig2" => vec![(DangerousDelete, false)],
        "fig5" => vec![(DeadPipe, true)],
        "fig5-fixed" => vec![(DeadPipe, false)],
        "rm-then-cat" => vec![(AlwaysFails, true)],
        // Polymorphic stream types accept the pipeline (§4, E6).
        "hex-pipeline" => vec![(StreamTypeMismatch, false)],
        _ => Vec::new(),
    }
}

fn label_expect(class: BugClass) -> Expect {
    let codes = [
        DiagCode::DangerousDelete,
        DiagCode::DeadPipe,
        DiagCode::AlwaysFails,
    ];
    let want = match class {
        BugClass::DangerousDelete => Some(DiagCode::DangerousDelete),
        BugClass::DeadPipe => Some(DiagCode::DeadPipe),
        BugClass::AlwaysFails => Some(DiagCode::AlwaysFails),
        BugClass::Benign => None,
    };
    codes.iter().map(|&c| (c, Some(c) == want)).collect()
}

/// Writes the corpus under `dir`; returns (path, source, expectation).
fn write_corpus(dir: &std::path::Path, seed: u64) -> Result<Vec<(String, String, Expect)>, String> {
    let mut scripts: Vec<(String, String, Expect)> = Vec::new();
    for s in generate_corpus(PER_CLASS, seed) {
        scripts.push((s.name.clone(), s.script, label_expect(s.class)));
    }
    for (name, src) in figures::all() {
        scripts.push((
            format!("figure-{name}"),
            src.to_string(),
            figure_expect(name),
        ));
    }
    for v in variants::all_variants() {
        let expect = vec![(DiagCode::DangerousDelete, v.dangerous)];
        scripts.push((format!("variant-{}", v.name), v.script, expect));
    }
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (i, (name, src, expect)) in scripts.into_iter().enumerate() {
        let path = dir.join(format!("{i:03}-{name}.sh"));
        std::fs::write(&path, &src).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path.display().to_string(), src, expect));
    }
    Ok(out)
}

fn statements(src: &str) -> u64 {
    shoal_shparse::parse_script(src).map_or(0, |s| s.items.len() as u64)
}

/// Checks every result of a batch against its reference.
fn check(out: &mut Outcome, summary: &ScanSummary, expect: &HashMap<String, Expect>) {
    for r in &summary.results {
        let Some(report) = &r.report else {
            out.fail(&format!("{}: no report ({})", r.path, r.outcome));
            continue;
        };
        if crate::capped(report) {
            out.capped += 1;
        }
        let want = expect.get(&r.path).map(Vec::as_slice).unwrap_or(&[]);
        if let Some((code, present)) = want.iter().find(|(c, p)| report.has(*c) != *p) {
            let verb = if *present {
                "misses"
            } else {
                "wrongly reports"
            };
            out.fail(&format!("{} {verb} {code}", r.path));
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scratch = crate::sys::ScratchDir::new("corpus_scan").map_err(|e| e.to_string())?;
    let jobs = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let opts = ScanOptions {
        jobs,
        ..ScanOptions::default()
    };

    // Set-up: generate and write the corpus, then one warm-up scan;
    // repeated, and the median reported.
    let mut corpus = Vec::new();
    let dir = scratch.join("corpus");
    let set_up = || -> Result<_, String> {
        let written = write_corpus(&dir, args.seed)?;
        let paths: Vec<PathBuf> = written.iter().map(|(p, _, _)| PathBuf::from(p)).collect();
        let _ = scan_paths(&paths, &opts);
        Ok(written)
    };
    for _ in 0..crate::SETUP_REPEATS {
        let (written, secs) = timed(set_up);
        corpus = written?;
        out.setup_s.push(secs);
    }
    let expect: HashMap<String, Expect> = corpus
        .iter()
        .map(|(p, _, e)| (p.clone(), e.clone()))
        .collect();
    let stmts: HashMap<String, u64> = corpus
        .iter()
        .map(|(p, s, _)| (p.clone(), statements(s)))
        .collect();
    let mut order: Vec<PathBuf> = corpus.iter().map(|(p, _, _)| PathBuf::from(p)).collect();

    let mut rng = XorShift64::seed_from_u64(args.seed);
    let mut tracer = crate::trace::Tracer::new();
    let (mut traced_verdicts, mut terminal, mut traced_statements) = (0u64, 0u64, 0u64);
    let mut clock = crate::Clock::start(args.seconds);
    // A stream of seeded shuffles of the corpus, cut into batches of
    // BATCH, so every batch is full and every script comes up equally
    // often. Scripts still pending from the last shuffle go to the end
    // of the next: `scan_paths` scans a path given twice only once.
    let mut pending: Vec<PathBuf> = Vec::new();
    let mut batch_no = 0u64;
    while clock.running() {
        if clock.setup_due() {
            // Rewrites the same files with the same text.
            let (written, secs) = timed(set_up);
            written?;
            out.setup_s.push(secs);
        }
        if pending.len() < BATCH {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..i + 1));
            }
            let (again, fresh): (Vec<PathBuf>, Vec<PathBuf>) =
                order.iter().cloned().partition(|p| pending.contains(p));
            pending.extend(fresh);
            pending.extend(again);
        }
        let batch: Vec<PathBuf> = pending.drain(..BATCH).collect();
        batch_no += 1;
        let n = batch.len() as u64;
        let batch_statements: u64 = batch.iter().map(|p| stmts[&p.display().to_string()]).sum();
        let modes: &[bool] = match (args.trace, batch_no % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in modes {
            out.attempted += n;
            let (summary, secs) = if traced {
                timed(|| scan_traced(&mut tracer, batch_no, &batch, &opts))
            } else {
                timed(|| {
                    let summary = scan_paths(&batch, &opts);
                    std::hint::black_box(summary.render_text());
                    std::hint::black_box(summary.to_json().to_text());
                    summary
                })
            };
            // One latency sample per batch: a script's verdict arrives
            // with its batch's summary.
            let ms = secs * 1e3;
            if traced {
                out.traced_latencies_ms.push(ms);
                traced_verdicts += n;
                traced_statements += batch_statements;
                terminal += summary
                    .results
                    .iter()
                    .filter_map(|r| r.report.as_ref())
                    .map(|r| r.terminal_worlds as u64)
                    .sum::<u64>();
            } else {
                out.latencies_ms.push(ms);
                out.verdicts += n;
                out.statements += batch_statements;
                out.busy_s += secs;
            }
            if summary.results.len() as u64 != n {
                out.fail(&format!(
                    "batch of {n} returned {} results",
                    summary.results.len()
                ));
            }
            check(&mut out, &summary, &expect);
        }
    }
    out.peak_rss_mb = crate::sys::peak_rss_mb(None);
    if args.trace {
        layers::engine_counters(&mut out.layers, traced_verdicts, terminal);
        let n = traced_verdicts as f64;
        out.layers.insert(
            "shparse.statements",
            crate::stats::ratio(traced_statements as f64, n),
        );
        layers::self_times(
            &mut out.layers,
            &tracer,
            traced_verdicts,
            &[
                ("scan", "scan.driver_ms"),
                ("shparse", "shparse.parse_ms"),
                ("core", "core.other_ms"),
                ("core.exec", "core.exec_ms"),
                ("render.text", "render.text_ms"),
                ("render.json", "render.json_ms"),
                ("verdict", "harness.self_ms"),
            ],
        );
        out.tracer = Some(tracer);
    }
    Ok(out)
}

/// One batch with spans around `scan_paths` and the two renderers.
/// Inside the scan span, the per-script parse and analysis time the
/// program's own `shoal_obs` spans report is laid out divided by the
/// worker count, so the scan span's self time is the driver's share.
fn scan_traced(
    tracer: &mut crate::trace::Tracer,
    verdict: u64,
    batch: &[PathBuf],
    opts: &ScanOptions,
) -> ScanSummary {
    let jobs = opts.jobs.max(1) as f64;
    let root = tracer.open("verdict", None, verdict);
    obs_switch(true);
    let before = [
        span_sum_ms("span.parse_recovering.us"),
        span_sum_ms("span.exec_items.us"),
        span_sum_ms("span.scan_script.us"),
    ];
    let (scan, summary) = tracer.time("scan", Some(root), verdict, || scan_paths(batch, opts));
    let parse = (span_sum_ms("span.parse_recovering.us") - before[0]) / jobs;
    let exec = (span_sum_ms("span.exec_items.us") - before[1]) / jobs;
    let script = (span_sum_ms("span.scan_script.us") - before[2]) / jobs;
    obs_switch(false);
    let _ = shoal_obs::take_events();
    let start = tracer.start_of(scan);
    let at = tracer.lay_out(scan, start, &[("shparse", parse)]);
    let core = tracer.record(
        "core",
        Some(scan),
        verdict,
        at,
        at + ((script - parse) * 1e6) as u64,
    );
    tracer.lay_out(core, at, &[("core.exec", exec)]);
    tracer.time("render.text", Some(root), verdict, || {
        std::hint::black_box(summary.render_text())
    });
    tracer.time("render.json", Some(root), verdict, || {
        std::hint::black_box(summary.to_json().to_text())
    });
    tracer.close(root);
    summary
}
