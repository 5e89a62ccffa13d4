//! `schedule`: one `inl_sched::schedule_with` call per zoo program per
//! pass, in a seeded order, with the default search axes and `threads: 2`.
//! The poly cache is emptied before each call, outside the timed region,
//! as a one-shot `inl-sched` run finds it. Each call's chosen variant is
//! run by the interpreter at a small size after the timed phase and must
//! match its source bitwise.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use inl_exec::Machine;
use inl_ir::Program;
use inl_sched::{schedule_with, SchedConfig, SearchStats};
use inl_serve::ZOO;

use crate::ledger::Ledger;
use crate::refs;
use crate::stats;
use crate::{info, info_summary, Cfg, Outcome};

struct Setup {
    programs: Vec<Program>,
    references: Vec<Machine>,
    interp_ns: f64,
}

fn set_up(cfg: &Cfg) -> Setup {
    let mut led = Ledger::new(true, None, Instant::now());
    let init = refs::seeded_init(cfg.seed);
    let programs: Vec<Program> = ZOO.iter().map(|(_, f)| f()).collect();
    let references = programs
        .iter()
        .map(|p| {
            led.call("exec.interp", 0, || {
                refs::interpret(p, &refs::check_params(p), &init)
            })
        })
        .collect();
    Setup {
        programs,
        references,
        interp_ns: led.durations("exec.interp").iter().sum(),
    }
}

/// What one call produced.
struct Call {
    program: usize,
    ns: f64,
    /// Peak resident set during the call.
    rss_mb: f64,
    label: String,
    pseudocode: String,
    generated: Program,
    stats: SearchStats,
    /// Traced calls only: program counters and cache deltas.
    counts: Option<CallCounts>,
}

/// One pass over every program.
struct Pass {
    traced: bool,
    calls: Vec<Call>,
    /// Wall time of the pass, cache clears and bookkeeping included.
    wall_s: f64,
}

#[derive(Clone, Default)]
struct CallCounts {
    pairs_tested: u64,
    exact_fallbacks: u64,
    fm_eliminations: u64,
    bounds_scanned: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_entries: u64,
    /// Self time per layer inside the call, in thread-ns.
    layers: BTreeMap<String, (u64, u64, u64)>,
}

/// Self time per layer inside one `schedule_with` call, from the span tree
/// the program's own telemetry records (paths `outer/inner`, one tree per
/// thread). The calling thread blocks while the two sweep workers compile,
/// so its `sched.schedule` self time is its CPU time minus its children;
/// the remainder is reported as `sched.wait`.
fn layer_self_times(
    report: &inl_obs::PipelineReport,
    caller_cpu_ns: u64,
) -> BTreeMap<String, (u64, u64, u64)> {
    let spans = &report.spans;
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (path, snap) in spans {
        let children: u64 = spans
            .iter()
            .filter(|(c, _)| {
                c.len() > path.len() + 1
                    && c.starts_with(path.as_str())
                    && c.as_bytes()[path.len()] == b'/'
                    && !c[path.len() + 1..].contains('/')
            })
            .map(|(_, s)| s.total_ns)
            .sum();
        let name = path.rsplit('/').next().unwrap_or(path).to_string();
        let mut own = snap.total_ns.saturating_sub(children);
        if path == "sched.schedule" {
            let busy = caller_cpu_ns.saturating_sub(children).min(own);
            let w = out.entry("sched.wait".into()).or_default();
            w.0 += 1;
            w.1 += own - busy;
            w.2 += own - busy;
            own = busy;
        }
        let e = out.entry(name).or_default();
        e.0 += snap.count;
        e.1 += snap.total_ns;
        e.2 += own;
    }
    out
}

fn one_call(
    s: &Setup,
    i: usize,
    sc: &SchedConfig,
    traced: bool,
    led: &mut Ledger,
) -> Result<Call, String> {
    let p = &s.programs[i];
    inl_poly::cache::clear();
    // after the clear, so the previous call's cache entries do not count
    crate::reset_peak_rss();
    let before = if traced {
        inl_obs::reset();
        inl_obs::set_enabled(true);
        Some(inl_poly::cache::stats())
    } else {
        None
    };
    let cpu0 = crate::thread_cpu_ns();
    let t = Instant::now();
    let r = led.call("sched.schedule", i as u64, || schedule_with(p, sc));
    let ns = t.elapsed().as_nanos() as f64;
    let rss_mb = crate::peak_rss_mb();
    let cpu = crate::thread_cpu_ns().saturating_sub(cpu0);
    let counts = before.map(|c0| {
        inl_obs::set_enabled(false);
        let c1 = inl_poly::cache::stats();
        let report = inl_obs::PipelineReport::capture();
        CallCounts {
            pairs_tested: inl_obs::counter_value("depend.pairs_tested"),
            exact_fallbacks: inl_obs::counter_value("legal.exact_fallbacks"),
            fm_eliminations: inl_obs::counter_value("poly.fm.eliminations"),
            bounds_scanned: inl_obs::counter_value("codegen.bounds_scanned"),
            cache_hits: c1.hits - c0.hits,
            cache_misses: c1.misses - c0.misses,
            cache_entries: c1.entries,
            layers: layer_self_times(&report, cpu),
        }
    });
    let r = r.map_err(|e| format!("{}: {e}", p.name()))?;
    let chosen = r.chosen();
    Ok(Call {
        program: i,
        ns,
        rss_mb,
        label: chosen.label.clone(),
        pseudocode: chosen.pseudocode.clone(),
        generated: chosen.program.clone(),
        stats: r.stats.clone(),
        counts,
    })
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s, interp_ns) = crate::set_up_repeatedly(|| set_up(cfg), drop, |s| s.interp_ns);
    out.set("setup_s", setup_s);
    out.set("exec.interp_ns", interp_ns);
    let sc = SchedConfig {
        threads: 2,
        ..SchedConfig::default()
    };
    info(format!(
        "{} programs per pass; SchedConfig::default() with threads 2",
        s.programs.len()
    ));

    let mut led = cfg.ledger(Instant::now());
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while t0.elapsed().as_secs_f64() < cfg.seconds || passes.len() < if cfg.trace { 4 } else { 3 } {
        let traced = cfg.trace && passes.len() % 2 == 1;
        led.set_tracing(traced);
        let mut calls = Vec::new();
        let start = Instant::now();
        for i in refs::shuffled(s.programs.len(), cfg.seed ^ passes.len() as u64) {
            out.attempted += 1;
            match one_call(&s, i, &sc, traced, &mut led) {
                Ok(c) => calls.push(c),
                Err(e) => {
                    out.failed += 1;
                    info(format!("schedule failed: {e}"));
                }
            }
        }
        passes.push(Pass {
            traced,
            calls,
            wall_s: start.elapsed().as_secs_f64(),
        });
    }
    let elapsed = t0.elapsed().as_secs_f64();

    // every distinct chosen variant must run like its source
    let init = refs::seeded_init(cfg.seed);
    let mut checked: HashSet<(usize, &str)> = HashSet::new();
    for c in passes.iter().flat_map(|p| &p.calls) {
        if !checked.insert((c.program, c.pseudocode.as_str())) {
            continue;
        }
        let p = &s.programs[c.program];
        let got = refs::interpret(&c.generated, &refs::check_params(p), &init);
        if let Err(e) = s.references[c.program].same_state(&got) {
            out.mismatch(format!(
                "{} chose {}: differs from its source: {e}",
                p.name(),
                c.label
            ));
        }
    }

    let untraced_passes: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let untraced: Vec<&Vec<Call>> = untraced_passes.iter().map(|p| &p.calls).collect();
    let pass_s: Vec<f64> = untraced
        .iter()
        .map(|calls| calls.iter().map(|c| c.ns).sum::<f64>() / 1e9)
        .collect();
    let call_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|calls| calls.iter().map(|c| c.ns / 1e6))
        .collect();
    let rss: Vec<f64> = untraced
        .iter()
        .map(|calls| calls.iter().map(|c| c.rss_mb).fold(0.0, f64::max))
        .collect();
    let wall_s: f64 = untraced_passes.iter().map(|p| p.wall_s).sum();
    info_summary("schedule_pass_s", "s", &pass_s);
    info_summary("peak_rss_mb (per pass)", "MB", &rss);
    out.set("peak_rss_mb", stats::median(&rss));
    info(format!(
        "{} passes in {elapsed:.3} s; {} calls timed; highest percentile with >= 10 samples beyond it: {:?}",
        passes.len(),
        call_ms.len(),
        stats::highest_resolved_percentile(&stats::sorted(&call_ms))
    ));
    let mut per_program = Vec::new();
    for (i, p) in s.programs.iter().enumerate() {
        let ms: Vec<f64> = untraced
            .iter()
            .flat_map(|calls| calls.iter().filter(|c| c.program == i).map(|c| c.ns / 1e6))
            .collect();
        let label = untraced
            .first()
            .and_then(|calls| calls.iter().find(|c| c.program == i))
            .map_or("-", |c| c.label.as_str());
        info(format!(
            "program {} median {:.3} ms chosen {label}",
            p.name(),
            stats::median(&ms)
        ));
        per_program.push(stats::median(&ms));
    }
    crate::set_call_metrics(&mut out, &per_program, &call_ms, wall_s);

    if cfg.trace {
        traced_metrics(cfg, &s, &passes, &led, &mut out);
    }
    out
}

fn traced_metrics(cfg: &Cfg, s: &Setup, passes: &[Pass], led: &Ledger, out: &mut Outcome) {
    let pass_total = |traced: bool| {
        stats::median(
            &passes
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| p.calls.iter().map(|c| c.ns).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    out.set(
        "trace_overhead_pct",
        100.0 * (pass_total(true) / pass_total(false) - 1.0),
    );
    out.set(
        "sched.call_ns",
        stats::median(&led.durations("sched.schedule")),
    );

    // pairs one analysis of each program tests
    inl_obs::reset();
    inl_obs::set_enabled(true);
    let single: Vec<u64> = s
        .programs
        .iter()
        .map(|p| {
            let before = inl_obs::counter_value("depend.pairs_tested");
            let layout = inl_core::InstanceLayout::new(p);
            let _ = inl_core::analyze(p, &layout);
            inl_obs::counter_value("depend.pairs_tested") - before
        })
        .collect();
    inl_obs::set_enabled(false);

    let traced: Vec<&Vec<Call>> = passes
        .iter()
        .filter(|p| p.traced)
        .map(|p| &p.calls)
        .collect();
    let first = traced[0];
    let counts = |c: &Call| c.counts.clone().unwrap_or_default();
    let sum = |f: &dyn Fn(&Call) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let st = |c: &Call| c.stats.clone();
    let visited = sum(&|c| st(c).nodes_visited);
    let exhaustive = sum(&|c| st(c).nodes_exhaustive);
    out.set("sched.nodes_visited", visited);
    out.set("sched.prune_ratio", 1.0 - visited / exhaustive.max(1.0));
    out.set("sched.legal_variants", sum(&|c| st(c).legal_variants));
    out.set("sched.shapes", sum(&|c| st(c).shapes));
    let ratios: Vec<f64> = first
        .iter()
        .map(|c| counts(c).pairs_tested as f64 / single[c.program].max(1) as f64)
        .collect();
    out.set(
        "sched.analyses_per_call",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    );
    out.set("depend.pairs_tested", sum(&|c| counts(c).pairs_tested));
    out.set("legal.exact_fallbacks", sum(&|c| counts(c).exact_fallbacks));
    out.set("poly.fm_eliminations", sum(&|c| counts(c).fm_eliminations));
    out.set("codegen.bounds_scanned", sum(&|c| counts(c).bounds_scanned));
    let hits = sum(&|c| counts(c).cache_hits);
    let misses = sum(&|c| counts(c).cache_misses);
    out.set("poly.cache_hit_ratio", hits / (hits + misses).max(1.0));
    out.set("poly.cache_misses", misses);
    out.set("poly.cache_entries", sum(&|c| counts(c).cache_entries));

    // per-layer times inside the calls (mean per layer call, thread-ns)
    let mut layers: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for c in traced.iter().flat_map(|calls| calls.iter()) {
        for (name, (n, incl, own)) in counts(c).layers {
            let e = layers.entry(name).or_default();
            e.0 += n;
            e.1 += incl;
            e.2 += own;
        }
    }
    let mean_ns = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |(n, incl, _)| *incl as f64 / (*n).max(1) as f64)
    };
    for (metric, span) in [
        ("depend.analyze_ns", "depend.analyze"),
        ("complete.transform_ns", "complete.transform"),
        ("legal.check_ns", "legal.check"),
        ("codegen.generate_ns", "codegen.generate"),
    ] {
        out.set(metric, mean_ns(span));
    }
    crate::print_self_times(
        "inside schedule_with, thread-ns from the program's span tree",
        layers.into_iter().collect(),
    );

    // counts that must repeat: first traced pass against the second
    for (a, b) in traced[0].iter().flat_map(|a| {
        traced[1]
            .iter()
            .filter(move |b| b.program == a.program)
            .map(move |b| (a, b))
    }) {
        let name = s.programs[a.program].name();
        let (ca, cb) = (counts(a), counts(b));
        // the two sweep workers share the poly cache: a key both miss at
        // once is computed, and counted, twice, so misses and the FM
        // eliminations they run depend on how the workers interleave
        for (k, x, y, interleaved) in [
            ("chosen", a.label.clone(), b.label.clone(), false),
            (
                "search_stats",
                format!("{:?}", a.stats).replace(' ', ""),
                format!("{:?}", b.stats).replace(' ', ""),
                false,
            ),
            (
                "depend.pairs_tested",
                ca.pairs_tested.to_string(),
                cb.pairs_tested.to_string(),
                false,
            ),
            (
                "poly.cache_misses",
                ca.cache_misses.to_string(),
                cb.cache_misses.to_string(),
                true,
            ),
            (
                "poly.fm_eliminations",
                ca.fm_eliminations.to_string(),
                cb.fm_eliminations.to_string(),
                true,
            ),
        ] {
            crate::count_row("schedule", name, k, (&x, &y), interleaved);
        }
    }
    if let Some(path) = &cfg.spans_out {
        if let Err(e) = led.write_jsonl(path, "schedule") {
            info(format!("could not write spans to {}: {e}", path.display()));
        }
    }
}
