//! The per-layer metrics of a traced run, named after the repository's
//! modules, and the helpers that read them from the program's own
//! `shoal_obs` counters.
//!
//! Times are self times in milliseconds per traced verdict; counts are
//! per traced verdict unless the README says otherwise. A layer the
//! workload does not reach reads 0.

use crate::stats::ratio;
use std::collections::BTreeMap;

pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "ratio"),
    ("capped_frac", "ratio"),
    ("shparse.parse_ms", "ms"),
    ("shparse.statements", "count"),
    ("core.exec_ms", "ms"),
    ("core.finalize_ms", "ms"),
    ("core.other_ms", "ms"),
    ("core.forks", "count"),
    ("core.pruned", "count"),
    ("core.cap_dropped", "count"),
    ("core.cap_hits", "count"),
    ("core.peak_live_worlds", "count"),
    ("core.world_yield", "ratio"),
    ("relang.decisions", "count"),
    ("relang.dfa_compiles", "count"),
    ("relang.memo_hit_ratio", "ratio"),
    ("relang.lazy_pairs_explored", "count"),
    ("relang.early_exit_ratio", "ratio"),
    ("streamty.fixpoint_iterations", "count"),
    ("scan.driver_ms", "ms"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("render.text_ms", "ms"),
    ("render.json_ms", "ms"),
    ("incr.analyze_ms", "ms"),
    ("incr.self_ms", "ms"),
    ("incr.replayed", "count"),
    ("incr.executed", "count"),
    ("incr.replay_ratio", "ratio"),
    ("incr.summaries", "count"),
    ("lsp.protocol_ms", "ms"),
    ("daemon.decode_ms", "ms"),
    ("daemon.cache_ms", "ms"),
    ("daemon.admission_ms", "ms"),
    ("daemon.coalesce_ms", "ms"),
    ("daemon.symexec_ms", "ms"),
    ("daemon.relang_ms", "ms"),
    ("daemon.report_ms", "ms"),
    ("daemon.serialize_ms", "ms"),
    ("daemon.other_ms", "ms"),
    ("daemon.cache_hit_ratio", "ratio"),
    ("daemon.sheds", "count"),
    ("daemon.coalesced", "count"),
    ("client.wait_ms", "ms"),
    ("harness.self_ms", "ms"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.accounting_error_frac", "ratio"),
];

/// Engine, relang and streamty counters from the `shoal_obs` plane,
/// per traced verdict. `terminal_worlds` is summed over the same
/// verdicts from their reports.
pub fn engine_counters(
    layers: &mut BTreeMap<&'static str, f64>,
    verdicts: u64,
    terminal_worlds: u64,
) {
    let snap = shoal_obs::snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let n = verdicts as f64;
    layers.insert("core.forks", ratio(c("engine.forks"), n));
    layers.insert("core.pruned", ratio(c("engine.pruned"), n));
    layers.insert("core.cap_dropped", ratio(c("engine.cap_dropped"), n));
    layers.insert("core.cap_hits", ratio(c("engine.cap_hits"), n));
    layers.insert(
        "core.peak_live_worlds",
        snap.gauge("engine.peak_live_worlds").unwrap_or(0) as f64,
    );
    layers.insert(
        "core.world_yield",
        ratio(terminal_worlds as f64, n + c("engine.forks")),
    );
    layers.insert(
        "relang.decisions",
        ratio(c("relang.subset_checks") + c("relang.equiv_checks"), n),
    );
    layers.insert("relang.dfa_compiles", ratio(c("relang.dfa_compile"), n));
    let (hit, miss) = (c("relang.memo_hit"), c("relang.memo_miss"));
    layers.insert("relang.memo_hit_ratio", ratio(hit, hit + miss));
    layers.insert(
        "relang.lazy_pairs_explored",
        ratio(c("relang.lazy_pairs_explored"), n),
    );
    // Each memo miss runs one compilation or one lazy product search;
    // the searches are the misses that did not compile a DFA.
    layers.insert(
        "relang.early_exit_ratio",
        ratio(c("relang.lazy_early_exit"), miss - c("relang.dfa_compile")),
    );
    layers.insert(
        "streamty.fixpoint_iterations",
        ratio(c("streamty.fixpoint_iterations"), n),
    );
    layers.insert("pool.tasks", ratio(c("pool.tasks"), n));
    layers.insert("pool.steals", ratio(c("pool.steals"), n));
}

/// Copies self times (ms, summed over traced verdicts) into per-verdict
/// layer metrics: `(span name, metric name)`.
pub fn self_times(
    layers: &mut BTreeMap<&'static str, f64>,
    tracer: &crate::trace::Tracer,
    verdicts: u64,
    map: &[(&str, &'static str)],
) {
    let own = tracer.self_ms();
    for &(span, metric) in map {
        let ms = own.get(span).copied().unwrap_or(0.0);
        *layers.entry(metric).or_insert(0.0) += ratio(ms, verdicts as f64);
    }
}

/// Sum of a `shoal_obs` span histogram, in milliseconds.
pub fn span_sum_ms(name: &str) -> f64 {
    shoal_obs::snapshot()
        .histogram(name)
        .map_or(0.0, |h| h.sum as f64 / 1e3)
}
