//! `world_scaling`: cold analyses of the `scale` generators at seeded
//! sizes, where the symbolic worlds multiply and fork, prune and cap
//! bookkeeping is nearly all of the time.
//!
//! Reference: no panic and no error, plus a metamorphic check. Each
//! generator's script of `n` statements starts with its script of
//! `PREFIX` statements, and analysis must be monotone: every finding
//! of the prefix must still be reported for the whole script. A
//! finding lost while the report records a `max_worlds` cap hit is the
//! known defect of losing diagnostics with the worlds dropped at the
//! cap (ROADMAP, first open item): the report declares itself
//! incomplete, so the analysis did not fail, but `failed_frac` counts
//! the loss. A finding lost without such a cap hit is a failure.

use crate::{layers, obs_switch, timed, Args, Clock, Outcome};
use shoal_core::analyze::analyze_script_annotated;
use shoal_core::{analyze_source_with, AnalysisOptions, AnalysisReport, CapReason, Severity};
use shoal_corpus::scale;
use shoal_obs::XorShift64;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Statements in the prefix whose findings the whole script must keep.
const PREFIX: usize = 10;

#[derive(Clone, Copy, PartialEq)]
enum Family {
    StraightLine,
    Loopy,
    BranchyIndependent,
    WidePipeline,
}

impl Family {
    fn generate(self, n: usize) -> String {
        match self {
            Family::StraightLine => scale::straight_line(n),
            Family::Loopy => scale::loopy(n),
            Family::BranchyIndependent => scale::branchy_independent(n),
            Family::WidePipeline => scale::wide_pipeline(n),
        }
    }

    /// Families whose script of `n` statements extends their prefix.
    fn has_prefix(self) -> bool {
        matches!(self, Family::StraightLine | Family::Loopy)
    }
}

/// One pass: `count` sizes of each family, evenly spaced over its size
/// range from one seeded offset, so every pass covers the whole range
/// and passes differ only in where the grid falls. Half of a pass is
/// `straight_line`, whose cost climbs steeply with size and sets the
/// tail; the cheaper families, whose cost grows smoothly with size,
/// hold the median.
const PASS: &[(Family, usize, usize, usize)] = &[
    // (family, smallest, largest, count)
    (Family::StraightLine, 10, 200, 8),
    (Family::Loopy, 10, 200, 8),
    (Family::BranchyIndependent, 1, 6, 3),
    (Family::WidePipeline, 2, 32, 3),
];

struct Script {
    family: Family,
    size: usize,
    src: String,
    statements: u64,
}

impl Script {
    fn name(&self) -> String {
        let family = match self.family {
            Family::StraightLine => "straight_line",
            Family::Loopy => "loopy",
            Family::BranchyIndependent => "branchy_independent",
            Family::WidePipeline => "wide_pipeline",
        };
        format!("{family}({})", self.size)
    }
}

fn draw_pass(rng: &mut XorShift64) -> Vec<Script> {
    let mut pass = Vec::new();
    for &(family, lo, hi, count) in PASS {
        let step = (hi - lo + 1) as f64 / count as f64;
        let offset = rng.random_range(0..step as usize) as f64;
        for k in 0..count {
            let size = lo + (offset + k as f64 * step) as usize;
            let src = family.generate(size);
            let statements = shoal_shparse::parse_script(&src).map_or(0, |s| s.items.len() as u64);
            pass.push(Script {
                family,
                size,
                src,
                statements,
            });
        }
    }
    // Seeded order, so no family always runs first.
    for i in (1..pass.len()).rev() {
        pass.swap(i, rng.random_range(0..i + 1));
    }
    pass
}

/// A finding's identity: (code, start, end, message).
type Finding = (String, usize, usize, String);

/// Warning-or-worse findings.
fn findings(r: &AnalysisReport) -> Vec<Finding> {
    r.diagnostics
        .iter()
        .filter(|d| d.severity >= Severity::Warning)
        .map(|d| {
            (
                d.code.to_string(),
                d.span.start,
                d.span.end,
                d.message.clone(),
            )
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let opts = AnalysisOptions::default();

    // Set-up: the first pass's scripts, the prefix references, and one
    // warm-up analysis per family; repeated, and the median reported.
    let set_up = || {
        let mut rng = XorShift64::seed_from_u64(args.seed);
        let pass = draw_pass(&mut rng);
        let prefix_refs: Vec<(Family, Vec<Finding>)> = [Family::StraightLine, Family::Loopy]
            .into_iter()
            .map(|f| {
                let r = analyze_source_with(&f.generate(PREFIX), opts.clone())
                    .expect("generated prefix parses");
                (f, findings(&r))
            })
            .collect();
        for &(family, lo, hi, _) in PASS {
            let _ = analyze_source_with(&family.generate((lo + hi) / 2), opts.clone());
        }
        (rng, pass, prefix_refs)
    };
    let mut setup = None;
    for _ in 0..crate::SETUP_REPEATS {
        let (done, secs) = timed(set_up);
        setup = Some(done);
        out.setup_s.push(secs);
    }
    let (mut rng, mut pass, prefix_refs) = setup.expect("set up at least once");

    // In a traced run every script is analyzed twice, untraced and
    // traced, in alternating order, so both latency sets cover the same
    // scripts and their medians give the tracing overhead.
    let mut tracer = crate::trace::Tracer::new();
    let (mut traced_verdicts, mut terminal, mut traced_statements) = (0u64, 0u64, 0u64);
    let mut clock = Clock::start(args.seconds);
    let (mut next, mut scripts) = (0, 0u64);
    while clock.running() {
        if clock.setup_due() {
            out.setup_s.push(timed(set_up).1);
        }
        if next == pass.len() {
            pass = draw_pass(&mut rng);
            next = 0;
        }
        let script = &pass[next];
        next += 1;
        scripts += 1;
        let modes: &[bool] = match (args.trace, scripts % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in modes {
            obs_switch(traced);
            out.attempted += 1;
            let verdict = out.attempted;
            let t0 = std::time::Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                if traced {
                    analyze_traced(&mut tracer, verdict, &script.src, &opts)
                } else {
                    analyze_source_with(&script.src, opts.clone()).map_err(|e| e.to_string())
                }
            }));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            obs_switch(false);
            let _ = shoal_obs::take_events();
            let report = match result {
                Ok(Ok(r)) => r,
                Ok(Err(e)) => {
                    out.fail(&format!("{} does not parse: {e}", script.name()));
                    continue;
                }
                Err(_) => {
                    out.fail(&format!("analysis of {} panicked", script.name()));
                    continue;
                }
            };
            if traced {
                out.traced_latencies_ms.push(ms);
                traced_verdicts += 1;
                traced_statements += script.statements;
                terminal += report.terminal_worlds as u64;
            } else {
                out.latencies_ms.push(ms);
                out.verdicts += 1;
                out.statements += script.statements;
                out.busy_s += ms / 1e3;
            }
            check(&mut out, script, &report, &prefix_refs);
        }
    }
    out.peak_rss_mb = crate::sys::peak_rss_mb(None);
    if args.trace {
        layers::engine_counters(&mut out.layers, traced_verdicts, terminal);
        out.layers.insert(
            "shparse.statements",
            crate::stats::ratio(traced_statements as f64, traced_verdicts as f64),
        );
        layers::self_times(
            &mut out.layers,
            &tracer,
            traced_verdicts,
            &[
                ("shparse", "shparse.parse_ms"),
                ("core", "core.other_ms"),
                ("core.exec", "core.exec_ms"),
                ("core.finalize", "core.finalize_ms"),
                ("verdict", "harness.self_ms"),
            ],
        );
        out.tracer = Some(tracer);
    }
    Ok(out)
}

/// Counts the verdict's cap and checks it against the prefix reference.
fn check(
    out: &mut Outcome,
    script: &Script,
    report: &AnalysisReport,
    prefix_refs: &[(Family, Vec<Finding>)],
) {
    if crate::capped(report) {
        out.capped += 1;
    }
    if !script.family.has_prefix() || script.size <= PREFIX {
        return;
    }
    let have = findings(report);
    let want = &prefix_refs
        .iter()
        .find(|(f, _)| *f == script.family)
        .expect("reference")
        .1;
    if want.iter().any(|f| !have.contains(f)) {
        let at_cap = report
            .cap_hits
            .iter()
            .any(|h| h.reason == CapReason::MaxWorlds);
        if at_cap {
            out.known_defects += 1;
        } else {
            out.fail(&format!("{} lost a prefix finding", script.name()));
        }
    }
}

/// `analyze_source_with` split at its public layer boundaries: the
/// parser, then the engine with its profile phases laid inside it.
fn analyze_traced(
    tracer: &mut crate::trace::Tracer,
    verdict: u64,
    src: &str,
    opts: &AnalysisOptions,
) -> Result<AnalysisReport, String> {
    let root = tracer.open("verdict", None, verdict);
    let (_, parsed) = tracer.time("shparse", Some(root), verdict, || {
        shoal_shparse::parse_script(src)
    });
    let script = match parsed {
        Ok(s) => s,
        Err(e) => {
            tracer.close(root);
            return Err(e.to_string());
        }
    };
    let annotations = shoal_core::parse_annotations(src).unwrap_or_default();
    let profiled = AnalysisOptions {
        profile: true,
        ..opts.clone()
    };
    let (core, report) = tracer.time("core", Some(root), verdict, || {
        analyze_script_annotated(&script, profiled, annotations)
    });
    if let Some(p) = &report.profile {
        let start = tracer.start_of(core);
        tracer.lay_out(
            core,
            start,
            &[
                ("core.exec", p.exec_us as f64 / 1e3),
                (
                    "core.finalize",
                    (p.idempotence_us + p.report_us) as f64 / 1e3,
                ),
            ],
        );
    }
    tracer.close(root);
    Ok(report)
}
