//! `execute`: the paper's claim on the clock. Every legal loop order of
//! `cholesky_kij` and `matmul` at N = 256, each compiled once and run
//! through `inl_exec::VmRunner`; then `ParallelExecutor::run_vm` with two
//! workers on two DOALL-certified programs: `row_prefix_sums` with its
//! outer loop parallel and the skewed `wavefront` with its inner loop
//! parallel. Every result is compared bitwise with the interpreter's run
//! of the source program, computed during set-up.

use std::time::Instant;

use inl_core::parallel::parallel_slots;
use inl_core::transform::Transform;
use inl_core::{analyze, check_legal, InstanceLayout};
use inl_exec::{Machine, ParallelExecutor, VmRunner};
use inl_ir::{zoo, Program};

use crate::ledger::Ledger;
use crate::refs;
use crate::stats;
use crate::{info, info_summary, Cfg, Outcome};

const N_SEQ: i128 = 256;
const N_PREFIX: i128 = 2000;
const N_WAVEFRONT: i128 = 1000;
const PAR_WORKERS: usize = 2;

/// One program to execute and the reference state it must reproduce.
struct Variant {
    label: String,
    program: Program,
    n: i128,
    /// Index into `Setup::references`.
    reference: usize,
}

struct Setup {
    seq: Vec<Variant>,
    par: Vec<Variant>,
    references: Vec<Machine>,
    interp_ns: f64,
}

/// Run `m` through `VmRunner::run`. When tracing, the same sequence is
/// replayed from public parts so bind, run and the copies time apart:
/// `bind` → copy in → `inl_vm::run` → copy out.
pub fn vm_run(runner: &VmRunner, m: &mut Machine, led: &mut Ledger, id: u64) {
    if !led.tracing() {
        led.call("exec.vm_run", id, || runner.run(m));
        return;
    }
    let open = led.begin("exec.vm_run", id);
    let bp = led.call("vm.bind", id, || runner.compiled().bind(m.params()));
    let mut buf = vec![0.0; bp.total_len];
    for (layout, arr) in bp.arrays.iter().zip(m.arrays()) {
        buf[layout.base..layout.base + layout.len].copy_from_slice(&arr.data);
    }
    led.call("vm.run", id, || inl_vm::run(&bp, &mut buf));
    for (layout, arr) in bp.arrays.iter().zip(m.arrays_mut()) {
        arr.data
            .copy_from_slice(&buf[layout.base..layout.base + layout.len]);
    }
    led.end(open);
}

/// Median self time of the `exec.vm_run` spans: the copies in and out.
pub fn copy_ns(led: &Ledger) -> f64 {
    let spans = led.spans();
    let mut own: Vec<f64> = spans
        .iter()
        .map(|s| {
            if s.name == "exec.vm_run" {
                s.dur_ns() as f64
            } else {
                0.0
            }
        })
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].name == "exec.vm_run" {
                own[p] -= s.dur_ns() as f64;
            }
        }
    }
    let own: Vec<f64> = spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == "exec.vm_run")
        .map(|(_, v)| v)
        .collect();
    stats::median(&own)
}

fn legal_orders(p: &Program, led: &mut Ledger) -> Vec<(String, Program)> {
    refs::order_strings(p)
        .into_iter()
        .filter_map(|ord| {
            let (c, _) = refs::compile(p, Some(&ord), led, 0);
            c.ok().map(|g| (ord, g))
        })
        .collect()
}

/// Mark `slot`'s loop parallel after checking the dependence analysis
/// certifies it DOALL under `m`.
fn certified_parallel(p: &Program, m: Option<Transform>, slot: usize) -> Program {
    let layout = InstanceLayout::new(p);
    let deps = analyze(p, &layout).expect("analysis");
    let matrix = match &m {
        Some(t) => t.matrix(p, &layout),
        None => inl_linalg::IMat::identity(layout.len()),
    };
    let report = check_legal(p, &layout, &deps, &matrix).expect("legality");
    let ast = report.new_ast.as_ref().expect("legal schedule");
    assert!(
        parallel_slots(&layout, &deps, ast, &matrix).contains(&slot),
        "{}: slot {slot} is not DOALL",
        p.name()
    );
    let mut out = if m.is_some() {
        inl_codegen::generate(p, &layout, &deps, &matrix)
            .expect("codegen")
            .program
    } else {
        p.clone()
    };
    let l = out
        .loops()
        .find(|&l| {
            out.loops_surrounding_loop(l).len() == slot && !out.loop_decl(l).children.is_empty()
        })
        .expect("loop at slot");
    out.set_loop_parallel(l, true);
    out
}

fn set_up(cfg: &Cfg) -> Setup {
    inl_poly::cache::clear();
    let mut led = Ledger::new(true, None, Instant::now());
    let init = refs::seeded_init(cfg.seed);
    let mut references = Vec::new();
    let mut seq = Vec::new();
    for source in [zoo::cholesky_kij(), zoo::matmul()] {
        let r = references.len();
        references.push(led.call("exec.interp", 0, || {
            refs::interpret(&source, &[N_SEQ], &init)
        }));
        for (ord, program) in legal_orders(&source, &mut led) {
            seq.push(Variant {
                label: format!("{}/{ord}", source.name()),
                program,
                n: N_SEQ,
                reference: r,
            });
        }
    }
    let mut par = Vec::new();
    let prefix = zoo::row_prefix_sums();
    references.push(led.call("exec.interp", 0, || {
        refs::interpret(&prefix, &[N_PREFIX], &init)
    }));
    par.push(Variant {
        label: "row_prefix_sums/outer-parallel".into(),
        program: certified_parallel(&prefix, None, 0),
        n: N_PREFIX,
        reference: references.len() - 1,
    });
    let wave = zoo::wavefront();
    references.push(led.call("exec.interp", 0, || {
        refs::interpret(&wave, &[N_WAVEFRONT], &init)
    }));
    let loops: Vec<_> = wave.loops().collect();
    let skew = Transform::Skew {
        target: loops[0],
        source: loops[1],
        factor: 1,
    };
    par.push(Variant {
        label: "wavefront/skewed-inner-parallel".into(),
        program: certified_parallel(&wave, Some(skew), 1),
        n: N_WAVEFRONT,
        reference: references.len() - 1,
    });
    Setup {
        seq,
        par,
        references,
        interp_ns: led.durations("exec.interp").iter().sum(),
    }
}

/// Per-pass timings.
#[derive(Default)]
struct Pass {
    seq_s: f64,
    par_s: f64,
    /// Milliseconds per execution, by variant (sequential, then parallel).
    ops_ms: Vec<f64>,
    /// `ParallelExecutor::run_vm` alone, by parallel program, in ns.
    par_run_ns: Vec<f64>,
    /// Wall time of the pass, reference checks included.
    wall_s: f64,
    /// Peak resident set during the pass.
    rss_mb: f64,
    /// VM instructions per execution, by variant (traced passes only: the
    /// program's counters are on).
    instrs: Vec<u64>,
    /// Bytes of array state the pass computed.
    bytes: u64,
}

fn check(v: &Variant, m: &Machine, refs_: &[Machine], out: &mut Outcome) {
    out.attempted += 1;
    if let Err(e) = refs_[v.reference].same_state(m) {
        out.mismatch(format!("{}: differs from the interpreter: {e}", v.label));
    }
}

fn pass(s: &Setup, order: &[usize], cfg: &Cfg, led: &mut Ledger, out: &mut Outcome) -> Pass {
    let init = refs::seeded_init(cfg.seed);
    let mut p = Pass {
        ops_ms: vec![0.0; s.seq.len() + s.par.len()],
        instrs: vec![0; s.seq.len() + s.par.len()],
        par_run_ns: vec![0.0; s.par.len()],
        ..Pass::default()
    };
    let start = Instant::now();
    for &i in order {
        let v = &s.seq[i];
        let id = i as u64;
        let t = Instant::now();
        let i0 = inl_obs::counter_value("vm.instrs");
        let root = led.begin("exec.variant", id);
        let runner = led.call("vm.compile", id, || VmRunner::new(&v.program));
        let mut m = led.call("exec.machine", id, || {
            Machine::new(&v.program, &[v.n], &init)
        });
        vm_run(&runner, &mut m, led, id);
        led.end(root);
        let took = t.elapsed().as_secs_f64();
        p.seq_s += took;
        p.ops_ms[i] = took * 1e3;
        p.instrs[i] = inl_obs::counter_value("vm.instrs") - i0;
        p.bytes += refs::state_bytes(&m);
        check(v, &m, &s.references, out);
    }
    for (k, v) in s.par.iter().enumerate() {
        let id = (s.seq.len() + k) as u64;
        let i0 = inl_obs::counter_value("vm.instrs");
        let t = Instant::now();
        let mut m = led.call("exec.machine", id, || {
            Machine::new(&v.program, &[v.n], &init)
        });
        let run = Instant::now();
        led.call("exec.par_run", id, || {
            ParallelExecutor::new(&v.program, PAR_WORKERS).run_vm(&mut m)
        });
        p.par_run_ns[k] = run.elapsed().as_nanos() as f64;
        let took = t.elapsed().as_secs_f64();
        p.par_s += took;
        p.ops_ms[id as usize] = took * 1e3;
        p.instrs[id as usize] = inl_obs::counter_value("vm.instrs") - i0;
        p.bytes += refs::state_bytes(&m);
        check(v, &m, &s.references, out);
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s, interp_ns) = crate::set_up_repeatedly(|| set_up(cfg), drop, |s| s.interp_ns);
    out.set("setup_s", setup_s);
    out.set("exec.interp_ns", interp_ns);
    info(format!(
        "{} sequential VM variants at N={N_SEQ}, {} parallel-VM programs with {PAR_WORKERS} workers",
        s.seq.len(),
        s.par.len()
    ));

    let epoch = Instant::now();
    let mut led = cfg.ledger(epoch);
    let t0 = Instant::now();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    // at least three passes, and two of each kind when tracing
    while t0.elapsed().as_secs_f64() < cfg.seconds || passes.len() < if cfg.trace { 4 } else { 3 } {
        let traced = cfg.trace && passes.len() % 2 == 1;
        led.set_tracing(traced);
        if traced {
            inl_obs::set_enabled(true);
        }
        let order = refs::shuffled(s.seq.len(), cfg.seed ^ passes.len() as u64);
        crate::reset_peak_rss();
        let mut p = pass(&s, &order, cfg, &mut led, &mut out);
        p.rss_mb = crate::peak_rss_mb();
        inl_obs::set_enabled(false);
        passes.push((traced, p));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let untraced: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let seq: Vec<f64> = untraced.iter().map(|p| p.seq_s).collect();
    let par: Vec<f64> = untraced.iter().map(|p| p.par_s).collect();
    let all: Vec<f64> = untraced.iter().map(|p| p.seq_s + p.par_s).collect();
    let ops: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.ops_ms.iter().copied())
        .collect();
    info_summary("exec_pass_s (sequential VM variants)", "s", &seq);
    info_summary("par_exec_pass_s (parallel VM)", "s", &par);
    info_summary("pass total", "s", &all);
    let rss: Vec<f64> = untraced.iter().map(|p| p.rss_mb).collect();
    info_summary("peak_rss_mb (per pass)", "MB", &rss);
    out.set("peak_rss_mb", stats::median(&rss));
    info(format!(
        "{} passes in {elapsed:.3} s; {} executions timed; highest percentile with >= 10 samples beyond it: {:?}",
        passes.len(),
        ops.len(),
        stats::highest_resolved_percentile(&stats::sorted(&ops))
    ));
    let wall_s: f64 = untraced.iter().map(|p| p.wall_s).sum();
    let mut per_program = Vec::new();
    for (i, v) in s.seq.iter().chain(&s.par).enumerate() {
        let times: Vec<f64> = untraced.iter().map(|p| p.ops_ms[i]).collect();
        per_program.push(stats::median(&times));
        info(format!(
            "program {} median {:.3} ms",
            v.label,
            stats::median(&times)
        ));
    }
    crate::set_call_metrics(&mut out, &per_program, &ops, wall_s);
    par_speedup(cfg, &s, &untraced, &mut out);

    if cfg.trace {
        traced_metrics(cfg, &s, &passes, &mut led, &mut out);
    }
    out
}

/// `exec.par_run_ns` and `exec.par_speedup`, both with the program's
/// telemetry off: the parallel side is `run_vm` alone in the untraced
/// passes (compile, bind, copies and run), the serial side
/// `VmRunner::new` + `run` on the same programs, three times each after
/// the passes.
fn par_speedup(cfg: &Cfg, s: &Setup, untraced: &[&Pass], out: &mut Outcome) {
    let init = refs::seeded_init(cfg.seed);
    let mut serial_ns = 0.0;
    let mut par_ns = 0.0;
    for (k, v) in s.par.iter().enumerate() {
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let mut m = Machine::new(&v.program, &[v.n], &init);
                let t = Instant::now();
                VmRunner::new(&v.program).run(&mut m);
                let ns = t.elapsed().as_nanos() as f64;
                check(v, &m, &s.references, out);
                ns
            })
            .collect();
        let par: Vec<f64> = untraced.iter().map(|p| p.par_run_ns[k]).collect();
        let (serial, par) = (stats::median(&times), stats::median(&par));
        info(format!(
            "program {} serial VM {:.3} ms, parallel VM {:.3} ms",
            v.label,
            serial / 1e6,
            par / 1e6
        ));
        serial_ns += serial;
        par_ns += par;
    }
    out.set("exec.par_run_ns", par_ns);
    out.set("exec.par_speedup", serial_ns / par_ns);
    info(format!(
        "exec.par_speedup = {:.3} (serial VM {:.3} ms / parallel VM {:.3} ms over the two parallel programs, telemetry off)",
        serial_ns / par_ns,
        serial_ns / 1e6,
        par_ns / 1e6
    ));
}

fn traced_metrics(
    cfg: &Cfg,
    s: &Setup,
    passes: &[(bool, Pass)],
    led: &mut Ledger,
    out: &mut Outcome,
) {
    let total = |traced: bool| {
        stats::median(
            &passes
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, p)| p.seq_s + p.par_s)
                .collect::<Vec<_>>(),
        )
    };
    out.set(
        "trace_overhead_pct",
        100.0 * (total(true) / total(false) - 1.0),
    );
    let p50 = |name: &str| stats::median(&led.durations(name));
    out.set("vm.compile_ns", p50("vm.compile"));
    out.set("vm.bind_ns", p50("vm.bind"));
    out.set("vm.run_ns", p50("vm.run"));
    out.set("exec.copy_ns", copy_ns(led));
    // counts that must repeat: the first traced pass against the second
    let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    for (i, v) in s.seq.iter().chain(&s.par).enumerate() {
        let (a, b) = (traced[0].instrs[i], traced[1].instrs[i]);
        crate::count_row(
            "execute",
            &v.label,
            "vm.instrs",
            (&a.to_string(), &b.to_string()),
            false,
        );
    }
    out.set("vm.instrs", traced[0].instrs.iter().sum::<u64>() as f64);
    let seq_instrs: u64 = traced[0].instrs[..s.seq.len()].iter().sum();
    let run_ns: f64 = led.durations("vm.run").iter().sum();
    out.set(
        "vm.ns_per_instr",
        run_ns / traced.len() as f64 / seq_instrs.max(1) as f64,
    );
    out.set("exec.bytes_computed", traced[0].bytes as f64);

    crate::self_time_table("traced passes", led);
    if let Some(path) = &cfg.spans_out {
        if let Err(e) = led.write_jsonl(path, "execute") {
            info(format!("could not write spans to {}: {e}", path.display()));
        }
    }
}
