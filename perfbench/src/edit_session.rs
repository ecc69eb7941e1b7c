//! `edit_session`: the real `shoal lsp` binary over stdio with one
//! client in a closed loop. The client opens a seeded mid-size script
//! and sends a long seeded stream of full-text `didChange` edits:
//! trailing appends (and, at the size cap, trailing deletions),
//! mid-script statement replacements, and blank-line or comment shifts.
//! Each edit is timed until its `publishDiagnostics` arrives. The same
//! engine runs here as in `world_scaling`, but replayed from statement
//! summaries instead of cold, and a long session exposes state growth.
//!
//! Reference: every publication must equal a cold analysis of the same
//! text (`analyze_source_with`, or `analyze_source_resilient` when the
//! text does not parse), compared on each diagnostic's line, severity,
//! code and message.

use crate::layers::span_sum_ms;
use crate::sys::{ChildGuard, ScratchDir};
use crate::{layers, obs_switch, timed, Args, Clock, Outcome};
use shoal_core::{analyze_source_resilient, analyze_source_with, AnalysisOptions, IncrSession};
use shoal_obs::json::Json;
use shoal_obs::XorShift64;
use std::io::{BufReader, BufWriter, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::Duration;

/// Statements in the opened document; appends grow it by up to `GROWTH`.
const BASE: usize = 60;
const GROWTH: usize = 20;
/// Blank or comment lines the shifts may accumulate.
const MAX_TRIVIA: usize = 8;
/// Longest wait for one publication before the edit counts as failed.
const TIMEOUT: Duration = Duration::from_secs(30);
const URI: &str = "file:///bench/edit_session.sh";

/// One line of the document.
#[derive(Clone)]
enum Line {
    /// A statement that keeps the world count (no file-system fork).
    Calm(String),
    /// A statement that forks worlds.
    Forking(String),
    /// A blank or comment line.
    Trivia(String),
}

/// A seeded statement that does not fork on file-system state; `i`
/// keeps names distinct. The `^desc` filter is Fig. 5's dead pipe.
fn calm(rng: &mut XorShift64, i: usize) -> String {
    let kind = rng.random_range(0..CALM_KINDS);
    calm_of_kind(rng, i, kind)
}

/// Kinds of calm statement.
const CALM_KINDS: usize = 9;

fn calm_of_kind(rng: &mut XorShift64, i: usize, kind: usize) -> String {
    let j = rng.random_range(0..i.max(1));
    match kind {
        0 => format!("echo \"step {i}\""),
        1 => format!("mkdir -p /srv/app/d{i}"),
        2 => format!("for x in a b; do echo \"$x\" >> /var/log/l{i}; done"),
        3 => format!("v{i}=$(lsb_release -a | grep '^Desc' | cut -f 2)"),
        4 => format!("v{i}=$(lsb_release -a | grep '^desc' | cut -f 2)"),
        5 => format!("n{i}=$(wc -l < /etc/passwd)"),
        6 => format!("if [ -n \"$1\" ]; then echo \"arg {i}\"; fi"),
        7 => format!("x{i}=\"value {i}\""),
        _ => format!("echo \"$x{j}\" >> /var/log/app.log"),
    }
}

/// The forking statements, one of each: a read of a file that may be
/// missing, a removal that may fail, and Fig. 1's dangerous deletion.
/// They stay put during a session, so every seed explores the same
/// number of worlds.
fn forking(i: usize) -> [String; 3] {
    [
        format!("cat /srv/app/d{}/stamp", i / 2),
        format!("rm -rf \"/tmp/work{i}\""),
        format!("R{i}=\"$(cd \"${{0%/*}}\" && echo $PWD)\"; rm -rf \"$R{i}\"/*"),
    ]
}

struct Document {
    lines: Vec<Line>,
    next_id: usize,
    /// The rest of the current run of `MIX`.
    deck: Vec<EditKind>,
}

#[derive(Clone, Copy)]
enum EditKind {
    Append,
    Replace,
    Shift,
}

/// The edit mix: every run of four edits holds these, in seeded order.
/// Mid-script replacements cost several times the other edits, so edit
/// latencies fall in two groups, and a percentile near the edge between
/// them moves by half between runs. With these exact shares p50 lies
/// well inside the cheap group and p90 inside the costly one.
const MIX: [EditKind; 4] = [
    EditKind::Append,
    EditKind::Append,
    EditKind::Replace,
    EditKind::Shift,
];

impl Document {
    fn new(rng: &mut XorShift64) -> Document {
        // Every kind equally often, in seeded order, so that documents
        // differ in order and names but not in what they are made of.
        let mut kinds: Vec<usize> = (0..BASE).map(|i| i % CALM_KINDS).collect();
        for i in (1..BASE).rev() {
            kinds.swap(i, rng.random_range(0..i + 1));
        }
        let mut lines: Vec<Line> = (0..BASE)
            .map(|i| Line::Calm(calm_of_kind(rng, i, kinds[i])))
            .collect();
        // At a quarter, half and three quarters of the script, so every
        // seed carries the same world count over the same share of it.
        for (k, stmt) in forking(BASE).into_iter().enumerate() {
            lines[(k + 1) * BASE / 4] = Line::Forking(stmt);
        }
        Document {
            lines,
            next_id: BASE + 1,
            deck: Vec::new(),
        }
    }

    fn text(&self) -> String {
        let mut out = String::from("#!/bin/sh\n");
        for l in &self.lines {
            match l {
                Line::Calm(s) | Line::Forking(s) | Line::Trivia(s) => out.push_str(s),
            }
            out.push('\n');
        }
        out
    }

    fn statements(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| !matches!(l, Line::Trivia(_)))
            .count()
    }

    /// Applies one seeded edit.
    fn edit(&mut self, rng: &mut XorShift64) {
        let id = self.next_id;
        self.next_id += 1;
        let n = self.lines.len();
        let calm_at: Vec<usize> = (0..n)
            .filter(|&k| matches!(self.lines[k], Line::Calm(_)))
            .collect();
        if self.deck.is_empty() {
            self.deck = MIX.to_vec();
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, rng.random_range(0..i + 1));
            }
        }
        match self.deck.pop().expect("refilled above") {
            // Trailing append, or a trailing deletion at the size cap.
            EditKind::Append => {
                if self.statements() < BASE + GROWTH {
                    self.lines.push(Line::Calm(calm(rng, id)));
                } else if let Some(&last) = calm_at.last() {
                    self.lines.remove(last);
                }
            }
            // Mid-script statement replacement.
            EditKind::Replace => {
                let mid = &calm_at[calm_at.len() / 4..calm_at.len() * 3 / 4];
                let at = mid[rng.random_range(0..mid.len())];
                self.lines[at] = Line::Calm(calm(rng, id));
            }
            // Whitespace or comment shift.
            EditKind::Shift => {
                let trivia: Vec<usize> = (0..n)
                    .filter(|&k| matches!(self.lines[k], Line::Trivia(_)))
                    .collect();
                if trivia.len() >= MAX_TRIVIA {
                    self.lines.remove(trivia[rng.random_range(0..trivia.len())]);
                } else {
                    let line = if rng.random_bool(0.5) {
                        String::new()
                    } else {
                        format!("# note {id}")
                    };
                    self.lines
                        .insert(rng.random_range(0..n + 1), Line::Trivia(line));
                }
            }
        }
    }
}

/// A running `shoal lsp` with its framed stdio.
struct Lsp {
    child: ChildGuard,
    input: BufWriter<std::process::ChildStdin>,
    messages: Receiver<Json>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Lsp {
    fn spawn(shoal: &std::path::Path, cache: &std::path::Path) -> Result<Lsp, String> {
        let mut child = Command::new(shoal)
            .arg("lsp")
            .env("SHOAL_CACHE_DIR", cache)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", shoal.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let input = BufWriter::new(child.stdin.take().expect("piped stdin"));
        let (tx, messages) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            while let Some(msg) = shoal_lsp::read_message(&mut r) {
                if tx.send(msg).is_err() {
                    break;
                }
            }
        });
        Ok(Lsp {
            child: ChildGuard(child),
            input,
            messages,
            reader: Some(reader),
        })
    }

    fn send(&mut self, msg: Json) -> Result<(), String> {
        shoal_lsp::write_message(&mut self.input, &msg);
        self.input.flush().map_err(|e| format!("lsp stdin: {e}"))
    }

    /// Waits for the response to request `id`.
    fn response(&mut self, id: f64) -> Result<Json, String> {
        loop {
            let msg = self
                .messages
                .recv_timeout(TIMEOUT)
                .map_err(|_| "no response")?;
            if msg.get("id").and_then(Json::as_f64) == Some(id) {
                return Ok(msg);
            }
        }
    }

    /// Waits for the diagnostics published for `version`.
    fn publication(&mut self, version: u64) -> Result<Json, String> {
        loop {
            let msg = self
                .messages
                .recv_timeout(TIMEOUT)
                .map_err(|_| format!("no publication for version {version}"))?;
            let params = msg.get("params");
            if msg.get("method").and_then(Json::as_str) == Some("textDocument/publishDiagnostics")
                && params.and_then(|p| p.get("version")).and_then(Json::as_u64) == Some(version)
            {
                return Ok(params
                    .and_then(|p| p.get("diagnostics"))
                    .cloned()
                    .unwrap_or(Json::Null));
            }
        }
    }

    /// `initialize`, then `didOpen`; returns after the first publication.
    fn open(&mut self, text: &str) -> Result<(), String> {
        self.send(rpc(Some(1.0), "initialize", Json::Obj(vec![])))?;
        self.response(1.0)?;
        self.send(rpc(None, "initialized", Json::Obj(vec![])))?;
        let doc = Json::Obj(vec![
            ("uri".into(), Json::Str(URI.into())),
            ("languageId".into(), Json::Str("shellscript".into())),
            ("version".into(), Json::Num(1.0)),
            ("text".into(), Json::Str(text.into())),
        ]);
        self.send(rpc(
            None,
            "textDocument/didOpen",
            Json::Obj(vec![("textDocument".into(), doc)]),
        ))?;
        self.publication(1).map(|_| ())
    }

    fn change(&mut self, version: u64, text: &str) -> Result<Json, String> {
        let params = Json::Obj(vec![
            (
                "textDocument".into(),
                Json::Obj(vec![
                    ("uri".into(), Json::Str(URI.into())),
                    ("version".into(), Json::Num(version as f64)),
                ]),
            ),
            (
                "contentChanges".into(),
                Json::Arr(vec![Json::Obj(vec![(
                    "text".into(),
                    Json::Str(text.into()),
                )])]),
            ),
        ]);
        self.send(rpc(None, "textDocument/didChange", params))?;
        self.publication(version)
    }

    /// Orderly `shutdown` and `exit`; the child is reaped either way.
    fn close(mut self) {
        let _ = self.send(rpc(Some(2.0), "shutdown", Json::Null));
        let _ = self.response(2.0);
        let _ = self.send(rpc(None, "exit", Json::Null));
        drop(self.input);
        self.child.finish(Duration::from_secs(5));
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

fn rpc(id: Option<f64>, method: &str, params: Json) -> Json {
    let mut fields = vec![("jsonrpc".into(), Json::Str("2.0".into()))];
    if let Some(id) = id {
        fields.push(("id".into(), Json::Num(id)));
    }
    fields.push(("method".into(), Json::Str(method.into())));
    fields.push(("params".into(), params));
    Json::Obj(fields)
}

/// A diagnostic as the editor shows it: (line, severity, code, message).
type Shown = (u64, u64, String, String);

fn shown_from_publication(diags: &Json) -> Vec<Shown> {
    let Json::Arr(items) = diags else {
        return Vec::new();
    };
    items
        .iter()
        .map(|d| {
            let line = d
                .get("range")
                .and_then(|r| r.get("start"))
                .and_then(|s| s.get("line"))
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX);
            let severity = d.get("severity").and_then(Json::as_u64).unwrap_or(0);
            let text = |k| d.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (line, severity, text("code"), text("message"))
        })
        .collect()
}

/// The reference: a cold analysis of `text`, in the editor's terms.
fn shown_from_cold(text: &str) -> Vec<Shown> {
    let opts = AnalysisOptions::default();
    let report = analyze_source_with(text, opts.clone())
        .unwrap_or_else(|_| analyze_source_resilient(text, opts));
    let line_of = |offset: usize| {
        text.as_bytes()[..offset.min(text.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count() as u64
    };
    report
        .diagnostics
        .iter()
        .map(|d| {
            let line = if d.span.start == 0 && d.span.end == 0 {
                u64::from(d.span.line.saturating_sub(1))
            } else {
                line_of(d.span.start)
            };
            let severity = match d.severity {
                shoal_core::Severity::Error => 1,
                shoal_core::Severity::Warning => 2,
                _ => 3,
            };
            (line, severity, d.code.to_string(), d.message.clone())
        })
        .collect()
}

/// One published edit, kept for the check after the run.
struct Edit {
    text: String,
    diagnostics: Json,
}

/// Edits per session. Every session has the same length, so the
/// session's state growth (and peak memory) does not depend on how many
/// edits a run manages.
const SESSION_EDITS: usize = 250;

fn start_session(
    args: &Args,
    scratch: &ScratchDir,
    rng: &mut XorShift64,
    tag: &str,
) -> Result<(Lsp, Document), String> {
    let doc = Document::new(rng);
    let mut lsp = Lsp::spawn(&args.shoal, &scratch.join(&format!("cache-{tag}")))?;
    lsp.open(&doc.text())?;
    Ok((lsp, doc))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scratch = ScratchDir::new("edit_session").map_err(|e| e.to_string())?;

    // Set-up: spawn the server, initialize, open the first document and
    // wait for its publication; repeated, the last server is kept.
    let mut current = None;
    let mut rng = XorShift64::seed_from_u64(args.seed);
    for rep in 0..crate::SETUP_REPEATS {
        if let Some((old, _)) = current.take() {
            Lsp::close(old);
        }
        rng = XorShift64::seed_from_u64(args.seed);
        let (started, secs) =
            timed(|| start_session(args, &scratch, &mut rng, &format!("setup{rep}")));
        current = Some(started?);
        out.setup_s.push(secs);
    }

    let mut tracer = crate::trace::Tracer::new();
    let mut layers = ReplayLayers::default();
    let mut edits: Vec<Edit> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let mut clock = Clock::start(args.seconds);
    let (mut lsp, mut doc) = current.expect("set up at least once");
    let (mut session, mut in_session) = (0usize, 0usize);
    // A traced run traces every other session, starting with the first,
    // replaying its edits in process as they are published.
    let mut replay: Option<Replay> = None;
    while clock.running() {
        if clock.setup_due() {
            // A set-up repetition: a throwaway server and document.
            let mut setup_rng = XorShift64::seed_from_u64(args.seed);
            let tag = format!("setup{}", out.setup_s.len());
            let (started, secs) = timed(|| start_session(args, &scratch, &mut setup_rng, &tag));
            Lsp::close(started?.0);
            out.setup_s.push(secs);
        }
        if in_session == SESSION_EDITS {
            peaks.push(crate::sys::peak_rss_mb(Some(lsp.child.0.id())));
            lsp.close();
            if let Some(r) = replay.take() {
                layers.summaries.push(r.probe.summary_count() as f64);
            }
            session += 1;
            (lsp, doc) = start_session(args, &scratch, &mut rng, &session.to_string())?;
            in_session = 0;
        }
        if args.trace && session % 2 == 0 && replay.is_none() {
            replay = Some(Replay::new(&doc.text()));
        }
        doc.edit(&mut rng);
        in_session += 1;
        let version = in_session as u64 + 1;
        let text = doc.text();
        let statements = doc.statements() as u64;
        out.attempted += 1;
        let start = tracer.now();
        let (published, secs) = timed(|| lsp.change(version, &text));
        let diagnostics = match published {
            Ok(d) => d,
            Err(e) => {
                out.fail(&e);
                break;
            }
        };
        let ms = secs * 1e3;
        if let Some(r) = replay.as_mut() {
            let span = tracer.record("verdict", None, out.attempted, start, tracer.now());
            r.edit(&mut tracer, span, &text, statements, &mut layers);
            out.traced_latencies_ms.push(ms);
        } else {
            out.latencies_ms.push(ms);
            out.verdicts += 1;
            out.statements += statements;
            out.busy_s += secs;
        }
        edits.push(Edit { text, diagnostics });
    }
    peaks.push(crate::sys::peak_rss_mb(Some(lsp.child.0.id())));
    lsp.close();
    if let Some(r) = replay.take() {
        layers.summaries.push(r.probe.summary_count() as f64);
    }
    out.peak_rss_mb = crate::stats::median(&peaks);

    for k in check_against_cold(&edits) {
        let text = &edits[k].text;
        out.fail(&format!(
            "publication differs from a cold analysis of:\n{text}"
        ));
    }
    if args.trace {
        layers.report(&mut out, &tracer);
        out.tracer = Some(tracer);
    }
    Ok(out)
}

/// Indices of the publications that differ from a cold analysis of
/// their text. The cold references are the expensive part of the
/// check, so they are split over the cores the run may use.
fn check_against_cold(edits: &[Edit]) -> Vec<usize> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let chunk = edits.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = edits
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                s.spawn(move || {
                    part.iter()
                        .enumerate()
                        .filter(|(_, e)| {
                            shown_from_publication(&e.diagnostics) != shown_from_cold(&e.text)
                        })
                        .map(|(k, _)| c * chunk + k)
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// The same edit stream replayed through `IncrSession::analyze` in this
/// process, right after the server published each edit, so both run
/// on the machine in the same state. Two untraced sessions run in
/// lockstep and the faster time of each edit is laid inside the edit's
/// span, so the span's self time is the server's cost beyond analysis
/// (protocol, conversion, cache write-back). A third session, with the
/// `shoal_obs` recorder on, reads the counters and the share of the
/// edit spent in the program's own parse, exec and finalize phases,
/// which splits the laid-out time into layers.
struct Replay {
    timed: [IncrSession; 2],
    probe: IncrSession,
}

/// Sums over every replayed edit of a run.
#[derive(Default)]
struct ReplayLayers {
    edits: u64,
    statements: u64,
    terminal: u64,
    forks: u64,
    replayed: u64,
    executed: u64,
    analyze_ms: f64,
    /// Summaries held at the end of each traced session (the last one
    /// may be cut short by the end of the run, hence the maximum).
    summaries: Vec<f64>,
}

impl Replay {
    fn new(opened: &str) -> Replay {
        let profiled = AnalysisOptions {
            profile: true,
            ..AnalysisOptions::default()
        };
        let mut r = Replay {
            timed: [(); 2].map(|_| IncrSession::new(AnalysisOptions::default())),
            probe: IncrSession::new(profiled),
        };
        for s in r.timed.iter_mut().chain([&mut r.probe]) {
            let _ = s.analyze(opened);
        }
        r
    }

    fn edit(
        &mut self,
        tracer: &mut crate::trace::Tracer,
        span: usize,
        text: &str,
        statements: u64,
        sums: &mut ReplayLayers,
    ) {
        let ms = self
            .timed
            .iter_mut()
            .map(|s| timed(|| s.analyze(text)).1 * 1e3)
            .fold(f64::INFINITY, f64::min);
        obs_switch(true);
        let before = [
            span_sum_ms("span.parse.us"),
            span_sum_ms("span.exec_items.us"),
        ];
        let (report, secs) = timed(|| self.probe.analyze(text));
        let parse = span_sum_ms("span.parse.us") - before[0];
        let exec = span_sum_ms("span.exec_items.us") - before[1];
        obs_switch(false);
        let _ = shoal_obs::take_events();
        let report = report.ok();
        let profile = report.as_ref().and_then(|r| r.profile.as_ref());
        let finalize = profile.map_or(0.0, |p| (p.idempotence_us + p.report_us) as f64 / 1e3);
        let share = |part: f64| crate::stats::ratio(part, secs * 1e3) * ms;

        let start = tracer.start_of(span);
        tracer.lay_out(span, start, &[("incr", ms)]);
        let incr = tracer.spans_len() - 1;
        let parts = [
            ("shparse", share(parse)),
            ("core.exec", share(exec)),
            ("core.finalize", share(finalize)),
        ];
        tracer.lay_out(incr, start, &parts);

        sums.edits += 1;
        sums.statements += statements;
        sums.analyze_ms += ms;
        sums.replayed += self.probe.stats.last_replayed as u64;
        sums.executed += self.probe.stats.last_executed as u64;
        if let Some(r) = &report {
            sums.terminal += r.terminal_worlds as u64;
            sums.forks += profile.map_or(0, |p| p.forks);
        }
    }
}

impl ReplayLayers {
    fn report(&self, out: &mut Outcome, tracer: &crate::trace::Tracer) {
        let ratio = crate::stats::ratio;
        let n = self.edits as f64;
        layers::engine_counters(&mut out.layers, self.edits, self.terminal);
        // Replayed statements fork nothing now, so the yield uses the
        // report's whole-script fork count rather than the live counter.
        let yield_ = ratio(self.terminal as f64, n + self.forks as f64);
        out.layers.insert("core.world_yield", yield_);
        layers::self_times(
            &mut out.layers,
            tracer,
            self.edits,
            &[
                ("incr", "incr.self_ms"),
                ("shparse", "shparse.parse_ms"),
                ("core.exec", "core.exec_ms"),
                ("core.finalize", "core.finalize_ms"),
                ("verdict", "lsp.protocol_ms"),
            ],
        );
        let (replayed, executed) = (self.replayed as f64, self.executed as f64);
        out.layers
            .insert("incr.analyze_ms", ratio(self.analyze_ms, n));
        out.layers
            .insert("shparse.statements", ratio(self.statements as f64, n));
        out.layers.insert("incr.replayed", ratio(replayed, n));
        out.layers.insert("incr.executed", ratio(executed, n));
        out.layers
            .insert("incr.replay_ratio", ratio(replayed, replayed + executed));
        let most = self.summaries.iter().copied().fold(0.0, f64::max);
        out.layers.insert("incr.summaries", most);
    }
}
