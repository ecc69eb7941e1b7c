//! `jit_daemon`: a private `shoal daemon` (socket inside the run's
//! scratch directory, memory cache only, `--jobs 1`) fed by one client
//! in a closed loop, which sends its next request as soon as the last
//! is answered; on a machine with two CPUs or more the daemon and the
//! client share the last CPU, so every request runs on one core from
//! send to reply. Every fifth request is a cold miss (a corpus script
//! made unique by a trailing comment); the rest repeat the scripts of
//! a hot set the set-up warmed. This covers admission, the result
//! cache and serialization, which no other workload reaches.
//!
//! The loop is closed, not open at a fixed offered rate: on a shared
//! virtual machine, an open loop leaves the CPU idle between requests,
//! and how long the idle virtual CPU takes to wake for the next one
//! follows the host's load. At 200 requests/s, open-loop sets of the
//! same code read a median latency of 0.42-0.54 ms in quiet periods and
//! 0.91-1.08 ms, with p90 tripled, in a slow period that cut the
//! closed-loop throughput of the same runs by only a quarter.
//!
//! Reference: every served verdict must equal the in-process analysis
//! of the same text (`analyze_source_with` rendered through
//! `entry_from_report`); fallbacks and sheds count as failures.

use crate::sys::{ChildGuard, CpuSet, ScratchDir};
use crate::trace::Tracer;
use crate::{timed, Args, Outcome};
use shoal_core::{analyze_source_with, AnalysisOptions};
use shoal_daemon::cache::Entry;
use shoal_daemon::client::{self, ClientConfig, Served};
use shoal_obs::json::Json;
use shoal_obs::XorShift64;
use std::collections::HashMap;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Every MISS_EVERY-th request is a cold miss; the rest hit the hot set.
const MISS_EVERY: usize = 5;
/// Scripts in the hot set. The hits cycle through it in a seeded
/// order, so every hot script is hit equally often. With repeats
/// skewed towards a few scripts (weight 1/sqrt(rank + 1) over 64), the
/// median latency followed which scripts a seed put at the top: 0.29 to
/// 0.31 ms on one seed and 0.38 to 0.40 ms on another, run after run.
const HOT: usize = 128;
/// Labeled corpus scripts per bug class the requests are drawn from.
const PER_CLASS: usize = 40;
/// Requests per block of the stream; in a traced run the blocks
/// alternate between the untraced and the traced daemon.
const BLOCK: usize = 200;

/// One planned request.
struct Request {
    source: String,
    /// Index into the reference table.
    reference: usize,
    statements: u64,
}

/// One completed request.
struct Sample {
    index: usize,
    sent: Instant,
    done: Instant,
    served: Served,
    result: Result<Entry, String>,
    trace_id: Option<String>,
}

/// The seeded request stream. Request `i` is a function of the seed and
/// `i` alone.
struct Mix {
    seed: u64,
    corpus: Vec<(String, u64)>,
    /// The order in which cold misses walk the corpus: a seeded shuffle,
    /// so every corpus script is missed equally often and each seed
    /// misses the same mix of bug classes.
    misses: Vec<usize>,
    /// The hot set: HOT distinct corpus scripts, warmed during set-up.
    hot: Vec<usize>,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let statements =
            |s: &str| shoal_shparse::parse_script(s).map_or(0, |p| p.items.len() as u64);
        let corpus: Vec<(String, u64)> = shoal_corpus::generate_corpus(PER_CLASS, seed)
            .into_iter()
            .map(|s| s.script)
            .chain(
                shoal_corpus::figures::all()
                    .into_iter()
                    .map(|(_, s)| s.to_string()),
            )
            .map(|s| {
                let n = statements(&s);
                (s, n)
            })
            .collect();
        let mut rng = XorShift64::seed_from_u64(seed ^ 0x6a17);
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        let hot = order[..HOT].to_vec();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        Mix {
            seed,
            corpus,
            misses: order,
            hot,
        }
    }

    fn hot_sources(&self) -> Vec<String> {
        self.hot.iter().map(|&k| self.corpus[k].0.clone()).collect()
    }

    fn request(&self, i: usize) -> Request {
        if i % MISS_EVERY == MISS_EVERY - 1 {
            // A corpus script made unique by a trailing comment.
            let (src, statements) = &self.corpus[self.misses[(i / MISS_EVERY) % self.misses.len()]];
            return Request {
                source: format!("{src}# request {}-{i}\n", self.seed),
                reference: HOT + i,
                statements: *statements,
            };
        }
        let r = (i - i / MISS_EVERY) % HOT;
        let (src, statements) = &self.corpus[self.hot[r]];
        Request {
            source: src.clone(),
            reference: r,
            statements: *statements,
        }
    }
}

/// With two CPUs or more, the client and the daemon share the last
/// CPU, and every request runs on that one core from send to reply.
/// Split over two cores, each request hands over between them twice,
/// and how long an idle virtual CPU took to wake for it moved the
/// median request by up to 43% between runs, against 13% on one core.
/// Left to the scheduler, client and daemon threads shared cores in
/// arrangements that lasted for seconds and moved the median request
/// by half between identical runs.
fn load_cpu() -> Option<CpuSet> {
    let cpus = CpuSet::allowed();
    (cpus.count() >= 2).then(|| cpus.last())
}

/// A private daemon process.
struct Daemon {
    child: ChildGuard,
    socket: PathBuf,
}

impl Daemon {
    fn start(
        shoal: &Path,
        dir: &Path,
        trace_log: Option<&Path>,
        hot: &[String],
    ) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let socket = dir.join("d.sock");
        let cpu = load_cpu();
        let jobs = if cpu.is_some() {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
        };
        let mut cmd = Command::new(shoal);
        if let Some(cpus) = cpu {
            // SAFETY: the hook makes one system call and allocates nothing.
            unsafe { cmd.pre_exec(move || cpus.pin()) };
        }
        cmd.arg("daemon")
            .arg("--socket")
            .arg(&socket)
            // Memory tier only. Each cold miss otherwise writes a cache
            // file, and on a disk shared with other machines' work those
            // writes moved the median miss by 40% between identical runs
            // (1.8-2.6 ms, against 1.2-1.5 ms without them).
            .arg("--no-disk-cache")
            .arg("--jobs")
            .arg(jobs.to_string())
            // One glibc malloc arena per core the load uses. The daemon
            // serves each connection on a fresh thread, and how many
            // arenas those threads happen to open swings its peak memory
            // between identical runs (13-26 MiB) by more than any bound
            // could tolerate; pinned, peak memory follows the daemon's heap.
            .env("MALLOC_ARENA_MAX", jobs.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(log) = trace_log {
            cmd.arg("--trace-log").arg(log);
        }
        let child = ChildGuard(
            cmd.spawn()
                .map_err(|e| format!("spawn {}: {e}", shoal.display()))?,
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while client::status(&socket).is_err() {
            if Instant::now() > deadline {
                return Err("the daemon did not come up within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let daemon = Daemon { child, socket };
        let cfg = daemon.client();
        for src in hot {
            let r = client::analyze(&cfg, src, &AnalysisOptions::default(), false);
            if !matches!(r.served, Served::Daemon { .. }) {
                return Err("warm-up request was not served".into());
            }
        }
        Ok(daemon)
    }

    fn client(&self) -> ClientConfig {
        ClientConfig {
            socket: self.socket.clone(),
            auto_spawn: false,
            request_timeout: Duration::from_secs(10),
            ..ClientConfig::default()
        }
    }

    /// Peak memory, then an orderly stop; the child is reaped either way.
    fn stop(self) -> f64 {
        let rss = crate::sys::peak_rss_mb(Some(self.child.0.id()));
        let _ = client::stop(&self.socket);
        self.child.finish(Duration::from_secs(10));
        rss
    }
}

/// Sends the stream from request 0 on, each request as soon as the
/// last is answered, until `end`, from a thread on the load CPU.
/// Request `i` goes to `daemons[block(i) % daemons.len()]`.
fn drive(daemons: &[Daemon], mix: &Mix, end: Instant) -> Vec<Sample> {
    let opts = AnalysisOptions::default();
    std::thread::scope(|s| {
        s.spawn(|| {
            if let Some(cpu) = load_cpu() {
                let _ = cpu.pin();
            }
            let configs: Vec<ClientConfig> = daemons.iter().map(Daemon::client).collect();
            let mut samples = Vec::new();
            for index in 0.. {
                if Instant::now() >= end {
                    break;
                }
                let request = mix.request(index);
                let cfg = &configs[block(index) % configs.len()];
                let sent = Instant::now();
                let r = client::analyze(cfg, &request.source, &opts, false);
                samples.push(Sample {
                    index,
                    sent,
                    done: Instant::now(),
                    served: r.served,
                    result: r.result,
                    trace_id: r.trace_id,
                });
            }
            samples
        })
        .join()
        .expect("the client thread does not panic")
    })
}

/// The block request `index` falls in.
fn block(index: usize) -> usize {
    index / BLOCK
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scratch = ScratchDir::new("jit_daemon").map_err(|e| e.to_string())?;

    // Set-up: plan the stream, start the daemon and warm the hot set;
    // repeated, the last daemon before the window is kept. Half the
    // repetitions run before the window and half after it (a throwaway
    // daemon each), so that `setup_s` samples the machine at both ends
    // of the run; a set-up inside the window would leave a second
    // daemon process beside the measured one.
    let set_up = |rep: usize| {
        timed(|| -> Result<_, String> {
            let mix = Mix::new(args.seed);
            let dir = scratch.join(&format!("d{rep}"));
            let daemon = Daemon::start(&args.shoal, &dir, None, &mix.hot_sources())?;
            Ok((daemon, mix))
        })
    };
    let repeats = crate::SETUP_REPEATS + (args.seconds / crate::SETUP_EVERY.as_secs_f64()) as usize;
    let mut setup = None;
    for rep in 0..repeats / 2 {
        if let Some((old, _)) = setup.take() {
            Daemon::stop(old);
        }
        let (started, secs) = set_up(rep);
        setup = Some(started?);
        out.setup_s.push(secs);
    }
    let (daemon, mix) = setup.expect("set up at least once");
    let hot = mix.hot_sources();

    // A traced run also starts a daemon that writes its per-request
    // trace log; blocks of the stream alternate between the untraced
    // and the traced daemon.
    let log = scratch.join("trace.jsonl");
    let mut daemons = vec![daemon];
    if args.trace {
        daemons.push(Daemon::start(
            &args.shoal,
            &scratch.join("traced"),
            Some(&log),
            &hot,
        )?);
    }
    let tracer = Tracer::new();
    let all = drive(
        &daemons,
        &mix,
        Instant::now() + Duration::from_secs_f64(args.seconds),
    );
    let peaks: Vec<f64> = daemons.into_iter().map(Daemon::stop).collect();
    out.peak_rss_mb = crate::stats::median(&peaks);
    for rep in repeats / 2..repeats {
        let (started, secs) = set_up(rep);
        Daemon::stop(started?.0);
        out.setup_s.push(secs);
    }

    // References, computed after the load so they do not compete with
    // it, and split over the cores the run may use.
    let opts = AnalysisOptions::default();
    let reference = |src: &str| {
        analyze_source_with(src, opts.clone())
            .map(|r| shoal_daemon::entry_from_report(&r))
            .map_err(|e| e.to_string())
    };
    let hot_refs: Vec<_> = hot.iter().map(|s| reference(s)).collect();
    let check = |s: &Sample| -> Option<String> {
        if let Served::Fallback { reason } = &s.served {
            return Some(format!("request {} fell back: {reason}", s.index));
        }
        let req = mix.request(s.index);
        let matches = if req.reference < HOT {
            s.result == hot_refs[req.reference]
        } else {
            s.result == reference(&req.source)
        };
        (!matches).then(|| {
            format!(
                "request {}: served verdict differs from local analysis",
                s.index
            )
        })
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = all
            .chunks(all.len().div_ceil(workers).max(1))
            .map(|chunk| scope.spawn(|| chunk.iter().filter_map(check).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a reference check does not panic"))
            .collect()
    });
    out.attempted = all.len() as u64;
    for f in &failures {
        out.fail(f);
    }
    let (traced, untraced): (Vec<Sample>, Vec<Sample>) = all
        .into_iter()
        .partition(|s| args.trace && block(s.index) % 2 == 1);
    let ms = |s: &Sample| (s.done - s.sent).as_secs_f64() * 1e3;
    out.latencies_ms = untraced.iter().map(ms).collect();
    // The statements are those the daemon analyzed: a hit analyzes none.
    for s in &untraced {
        out.verdicts += 1;
        out.busy_s += (s.done - s.sent).as_secs_f64();
        let req = mix.request(s.index);
        if req.reference >= HOT {
            out.statements += req.statements;
        }
    }
    if args.trace {
        out.traced_latencies_ms = traced.iter().map(ms).collect();
        let lines = std::fs::read_to_string(&log).map_err(|e| format!("trace log: {e}"))?;
        let statements: u64 = traced.iter().map(|s| mix.request(s.index).statements).sum();
        out.layers.insert(
            "shparse.statements",
            crate::stats::ratio(statements as f64, traced.len() as f64),
        );
        layers(&mut out, tracer, &traced, &lines);
    }
    Ok(out)
}

/// Per-layer metrics of the traced blocks: each request's span from
/// sent to done, and inside it the daemon's own trace (its total, and
/// inside that the phases it reports).
fn layers(out: &mut Outcome, mut tracer: Tracer, traced: &[Sample], log: &str) {
    let traces: HashMap<String, Json> = log
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|j| j.get("kind").and_then(Json::as_str) == Some("trace"))
        .filter_map(|j| Some((j.get("trace_id")?.as_str()?.to_string(), j)))
        .collect();
    let (mut hits, mut analyzed, mut sheds, mut coalesced) = (0u64, 0u64, 0u64, 0u64);
    for s in traced {
        let root = tracer.record(
            "verdict",
            None,
            s.index as u64,
            tracer.at(s.sent),
            tracer.at(s.done),
        );
        let Some(t) = s.trace_id.as_ref().and_then(|id| traces.get(id)) else {
            continue;
        };
        analyzed += 1;
        match t.get("outcome").and_then(Json::as_str) {
            Some("hit") => hits += 1,
            Some("shed") => sheds += 1,
            Some("coalesced") => coalesced += 1,
            _ => {}
        }
        let us = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0) / 1e3;
        let start = tracer.at(s.sent);
        let server = tracer.record(
            "daemon",
            Some(root),
            s.index as u64,
            start,
            start + (us(t.get("total_us")) * 1e6) as u64,
        );
        let phase = |name| us(t.get("phases").and_then(|p| p.get(name)));
        let at = tracer.lay_out(
            server,
            start,
            &[
                ("daemon.decode", phase("decode")),
                ("daemon.cache", phase("cache")),
                ("daemon.coalesce", phase("coalesce")),
                ("daemon.admission", phase("admission")),
                ("shparse", phase("parse")),
            ],
        );
        let exec_end = at + (phase("symexec") * 1e6) as u64;
        let exec = tracer.record("daemon.symexec", Some(server), s.index as u64, at, exec_end);
        tracer.lay_out(exec, at, &[("daemon.relang", phase("relang"))]);
        tracer.lay_out(
            server,
            exec_end,
            &[
                ("daemon.report", phase("report")),
                ("daemon.serialize", phase("serialize")),
            ],
        );
    }
    let n = traced.len() as u64;
    crate::layers::self_times(
        &mut out.layers,
        &tracer,
        n,
        &[
            ("verdict", "client.wait_ms"),
            ("daemon", "daemon.other_ms"),
            ("daemon.decode", "daemon.decode_ms"),
            ("daemon.cache", "daemon.cache_ms"),
            ("daemon.coalesce", "daemon.coalesce_ms"),
            ("daemon.admission", "daemon.admission_ms"),
            ("shparse", "shparse.parse_ms"),
            ("daemon.symexec", "daemon.symexec_ms"),
            ("daemon.relang", "daemon.relang_ms"),
            ("daemon.report", "daemon.report_ms"),
            ("daemon.serialize", "daemon.serialize_ms"),
        ],
    );
    let r = |a: u64, b: u64| crate::stats::ratio(a as f64, b as f64);
    out.layers
        .insert("daemon.cache_hit_ratio", r(hits, analyzed));
    out.layers.insert("daemon.sheds", r(sheds, n));
    out.layers.insert("daemon.coalesced", r(coalesced, n));
    out.tracer = Some(tracer);
}
