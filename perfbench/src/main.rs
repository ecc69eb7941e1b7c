//! shoal-perfbench: seeded, verdict-checked workloads for shoal.
//!
//! ```text
//! shoal-perfbench --workload NAME --seed N --seconds S --trace 0|1 --shoal PATH
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.py`,
//! which builds this binary and the `shoal` CLI first). Every workload
//! generates its inputs from `--seed`, measures for `--seconds`, checks
//! every verdict against a reference the analyzer under test does not
//! produce, and prints one JSON result as the last line of stdout. With
//! `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a traced run. See
//! `README.md` for the metric definitions.

mod corpus_scan;
mod edit_session;
mod jit_daemon;
mod layers;
mod stats;
mod sys;
mod trace;
mod world_scaling;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The largest accounting error a traced run may show: the layer self
/// times must sum to the traced wall time within this share.
pub const ACCOUNTING_BOUND: f64 = 0.05;

/// How many times each run repeats its set-up before the measuring
/// window. The closed-loop workloads repeat it once more every
/// `SETUP_EVERY` inside the window, so that `setup_s`, the median of all
/// repetitions, samples the machine over the whole run as the other
/// metrics do. On a shared machine speed can change by half for a
/// second or two at a time, and a median over set-ups run back to back
/// inherits such a change whole.
pub const SETUP_REPEATS: usize = 5;
pub const SETUP_EVERY: Duration = Duration::from_secs(1);

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `shoal` CLI binary (for the workloads that drive it as a
    /// child process).
    pub shoal: PathBuf,
}

/// What one run of a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition (s).
    pub setup_s: Vec<f64>,
    /// Verdict latencies measured with tracing off (ms).
    pub latencies_ms: Vec<f64>,
    /// Verdict latencies measured with tracing on (traced runs only).
    pub traced_latencies_ms: Vec<f64>,
    /// Wall seconds over which `verdicts` and `statements` completed.
    pub busy_s: f64,
    /// Verdicts completed (untraced blocks).
    pub verdicts: u64,
    /// Script statements behind those verdicts.
    pub statements: u64,
    /// Operations attempted and failed, over the whole run. A failure
    /// is a panic, an error, a fallback, a shed, a timeout, or a
    /// verdict that disagrees with its reference; any makes the run
    /// incorrect.
    pub attempted: u64,
    pub failed: u64,
    /// Verdicts that miss their reference in a way the README lists as
    /// a known defect of a report that declares itself incomplete. They
    /// are not failed operations, but `failed_frac` counts them.
    pub known_defects: u64,
    /// Verdicts marked incomplete by a cap (not counting loop widening).
    pub capped: u64,
    /// Peak resident memory of the analyzing process (MiB).
    pub peak_rss_mb: f64,
    /// Per-layer metrics of a traced run.
    pub layers: BTreeMap<&'static str, f64>,
    /// The spans of a traced run.
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Records one failure.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: failure: {what}");
        }
    }
}

/// The measuring window of a run.
pub struct Clock {
    end: Instant,
    next_setup: Instant,
}

impl Clock {
    pub fn start(seconds: f64) -> Clock {
        let now = Instant::now();
        Clock {
            end: now + Duration::from_secs_f64(seconds),
            next_setup: now + SETUP_EVERY,
        }
    }

    pub fn running(&self) -> bool {
        Instant::now() < self.end
    }

    /// True once per `SETUP_EVERY` of the window: time to repeat the
    /// set-up.
    pub fn setup_due(&mut self) -> bool {
        let now = Instant::now();
        if now < self.next_setup {
            return false;
        }
        self.next_setup = now + SETUP_EVERY;
        true
    }
}

/// Turns the `shoal_obs` recorder on or off for the in-process
/// workloads; counters accumulate only while it is on.
pub fn obs_switch(on: bool) {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    if on {
        INSTALLED.call_once(shoal_obs::install);
    }
    shoal_obs::set_enabled(on);
}

/// True when a cap other than loop widening (`max_worlds`, `expansion`,
/// `fuel`, `deadline`, `dfa_states`) marked the report incomplete.
pub fn capped(report: &shoal_core::AnalysisReport) -> bool {
    report
        .cap_hits
        .iter()
        .any(|h| h.reason != shoal_core::CapReason::LoopBound)
}

/// Times `f` and returns (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut shoal = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--shoal" => shoal = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        shoal: shoal.ok_or("--shoal is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "corpus_scan" => corpus_scan::run(&args),
        "world_scaling" => world_scaling::run(&args),
        "edit_session" => edit_session::run(&args),
        "jit_daemon" => jit_daemon::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if outcome.attempted == 0 || outcome.verdicts == 0 {
        eprintln!("perfbench: {}: no verdict completed", args.workload);
        return ExitCode::from(1);
    }
    let (metrics, correct) = if args.trace {
        traced_metrics(&args, &outcome)
    } else {
        (end_to_end_metrics(&outcome), true)
    };
    let correct = correct && outcome.failed == 0;
    print_result(&args, &outcome, &metrics, correct);
    ExitCode::SUCCESS
}

/// (name, value, unit, samples behind the value).
type Metric = (&'static str, f64, &'static str, usize);

fn end_to_end_metrics(o: &Outcome) -> Vec<Metric> {
    let lat = &o.latencies_ms;
    let n = lat.len();
    if !stats::tail_is_supported(n, 90) {
        eprintln!(
            "perfbench: only {n} verdicts; verdict_p90_ms has fewer than 10 samples beyond it"
        );
    }
    let pct = |p| stats::percentile(lat, p).map_or(0.0, |q| q.value);
    vec![
        ("setup_s", stats::median(&o.setup_s), "s", o.setup_s.len()),
        ("verdict_p50_ms", pct(50), "ms", n),
        ("verdict_p90_ms", pct(90), "ms", n),
        (
            "verdicts_per_s",
            stats::ratio(o.verdicts as f64, o.busy_s),
            "1/s",
            o.verdicts as usize,
        ),
        (
            "statements_per_s",
            stats::ratio(o.statements as f64, o.busy_s),
            "1/s",
            o.verdicts as usize,
        ),
        ("peak_rss_mb", o.peak_rss_mb, "MiB", 1),
    ]
}

fn traced_metrics(args: &Args, o: &Outcome) -> (Vec<Metric>, bool) {
    let mut values = o.layers.clone();
    let attempted = o.attempted as f64;
    values.insert(
        "failed_frac",
        stats::ratio((o.failed + o.known_defects) as f64, attempted),
    );
    values.insert("capped_frac", stats::ratio(o.capped as f64, attempted));
    let untraced = stats::median(&o.latencies_ms);
    let traced = stats::median(&o.traced_latencies_ms);
    values.insert(
        "harness.trace_overhead_frac",
        stats::ratio(traced, untraced) - 1.0,
    );
    let mut correct = true;
    if let Some(t) = &o.tracer {
        let err = t.accounting_error();
        values.insert("harness.accounting_error_frac", err);
        if err > ACCOUNTING_BOUND {
            eprintln!(
                "perfbench: layer self times miss the traced wall time by {:.1}% (bound {:.0}%)",
                err * 100.0,
                ACCOUNTING_BOUND * 100.0
            );
            correct = false;
        }
        let dir = PathBuf::from(".bench_run/spans");
        let file = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, t.to_jsonl()))
        {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                file.display()
            );
        }
    }
    let samples = o.traced_latencies_ms.len();
    let metrics = layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name,
                values.get(name).copied().unwrap_or(0.0),
                unit,
                samples,
            )
        })
        .collect();
    (metrics, correct)
}

fn print_result(args: &Args, o: &Outcome, metrics: &[Metric], correct: bool) {
    println!(
        "# {} seed={} trace={}: {} attempted, {} failed, {} known defects, {} capped",
        args.workload,
        args.seed,
        args.trace as u8,
        o.attempted,
        o.failed,
        o.known_defects,
        o.capped
    );
    for (name, value, unit, samples) in metrics {
        println!("#   {name:<32} {value:>14.6} {unit:<14} n={samples}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.attempted,
        o.failed,
        body.join(",")
    );
}
