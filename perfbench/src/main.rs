//! `inl-perfbench`: the repository benchmark.
//!
//! ```sh
//! inl-perfbench --workload compile|schedule|execute --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload sets up (several times, reporting the median), then
//! measures for `--seconds`, checks every output against an independent
//! reference, prints information lines prefixed with `#`, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`, the
//! metrics a plain `name: value` map of everything the run measured. With
//! `--trace 1` the run interleaves untraced and traced phases and also
//! measures the per-layer metrics (see `perfbench/WORKLOADS.md`);
//! `run.py` selects the metrics `BENCHMARK.json` names for the mode and
//! attaches their units. The process exits non-zero when any output
//! differs from its reference.

mod compile;
mod execute;
mod ledger;
mod refs;
mod schedule;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use ledger::Ledger;

/// Set-ups per run: at least this many, and more until they have taken
/// [`SETUP_MIN_S`] together; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 0.5;

/// Command-line settings shared by every workload.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject: Option<String>,
    pub spans_out: Option<PathBuf>,
}

impl Cfg {
    /// A fresh ledger: tracing as requested, with the injection armed.
    pub fn ledger(&self, epoch: Instant) -> Ledger {
        Ledger::new(self.trace, self.inject.clone(), epoch)
    }
}

/// What a workload hands back to be printed.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Reference mismatches (each also counts as a failure).
    pub mismatches: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            println!("# MISMATCH {what}");
        }
        self.mismatches.push(what);
        self.failed += 1;
    }
}

/// Set up repeatedly (see [`SETUP_MIN_REPS`]), discarding all but the
/// last set-up; returns it with the median set-up time and the median of
/// the exec.interp time each set-up reports.
pub fn set_up_repeatedly<S>(
    mut make: impl FnMut() -> S,
    mut discard: impl FnMut(S),
    interp_ns: impl Fn(&S) -> f64,
) -> (S, f64, f64) {
    let mut times = Vec::new();
    let mut interp = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        if let Some(old) = last.take() {
            discard(old);
        }
        let t = Instant::now();
        let s = make();
        times.push(t.elapsed().as_secs_f64());
        interp.push(interp_ns(&s));
        last = Some(s);
    }
    info_summary("setup_s", "s", &times);
    (
        last.expect("set up at least once"),
        stats::median(&times),
        stats::median(&interp),
    )
}

/// Set the pass and per-operation metrics of a workload whose passes run
/// every program once. `pass_s` is the sum of each program's median time
/// per call (a pass made of typical calls, so one disturbed call does not
/// move it); `op_typical_ms` is the mean and `op_p99_ms` the 99th
/// percentile of the raw per-call samples; `ops_per_s` is the calls made
/// divided by the wall time of the passes that made them. The mean, not
/// the median, is the typical call: the median call of `schedule` is a
/// ~12 ms program whose time spreads past the bound from run to run.
pub fn set_call_metrics(out: &mut Outcome, per_program_ms: &[f64], calls_ms: &[f64], wall_s: f64) {
    let calls = stats::sorted(calls_ms);
    out.set("pass_s", per_program_ms.iter().sum::<f64>() / 1e3);
    out.set(
        "op_typical_ms",
        calls.iter().sum::<f64>() / calls.len() as f64,
    );
    out.set("op_p99_ms", stats::quantile(&calls, 0.99));
    out.set("ops_per_s", calls.len() as f64 / wall_s);
}

/// Print one information line.
pub fn info(line: impl AsRef<str>) {
    println!("# {}", line.as_ref());
}

/// Print a timing summary with its quartiles and sample count.
pub fn info_summary(name: &str, unit: &str, xs: &[f64]) {
    let s = stats::summary(xs);
    info(format!(
        "{name} = {:.6} {unit} (median; q1 {:.6}, q3 {:.6}, n {})",
        s.median, s.q1, s.q3, s.n
    ));
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Return the allocator's free pages to the system, then restart the peak
/// resident set (VmHWM) from the current one, so a pass's peak counts what
/// the pass holds rather than what earlier passes left cached in the heap.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` takes no pointers and only releases memory the
    // allocator holds free; it is safe to call at any time.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time this thread has run, in ns (scheduler statistics).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Print the self-time table of a ledger.
pub fn self_time_table(title: &str, led: &Ledger) {
    let rows = led
        .self_times()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    print_self_times(title, rows)
}

/// Print `(name, (calls, inclusive ns, self ns))` rows, largest self time
/// first.
pub fn print_self_times(title: &str, mut rows: Vec<(String, (u64, u64, u64))>) {
    let total: u64 = rows.iter().map(|r| r.1 .2).sum();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .2));
    info(format!(
        "self time, {title} (total {:.3} ms):",
        total as f64 / 1e6
    ));
    for (name, (calls, incl, own)) in &rows {
        info(format!(
            "  {name:<22} calls {calls:>8}  incl {:>12.3} ms  self {:>12.3} ms  {:>5.1}%",
            *incl as f64 / 1e6,
            *own as f64 / 1e6,
            100.0 * *own as f64 / total.max(1) as f64
        ));
    }
    if let Some((name, _)) = rows.first() {
        info(format!("largest self time, {title}: {name}"));
    }
}

/// A count recorded twice for the same program, marked by whether it
/// repeated exactly. A count that depends on how threads interleave is
/// marked `varies` even when the two readings happen to agree.
pub fn count_row(
    workload: &str,
    program: &str,
    name: &str,
    (first, second): (&str, &str),
    interleaved: bool,
) {
    let mark = if first == second && !interleaved {
        "exact"
    } else {
        "varies"
    };
    info(format!(
        "count {workload} {program} {name} {first} {second} {mark}"
    ));
}

fn usage() -> ! {
    eprintln!(
        "usage: inl-perfbench --workload compile|schedule|execute --seed N --seconds S \
         --trace 0|1 [--inject SPAN] [--spans-out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut cfg = Cfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
        inject: None,
        spans_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => cfg.trace = value == "1",
            "--inject" => cfg.inject = Some(value),
            "--spans-out" => cfg.spans_out = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    info(format!(
        "workload {workload} seed {} seconds {} trace {}{}",
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        cfg.inject
            .as_ref()
            .map_or(String::new(), |s| format!(" inject {s}"))
    ));
    let mut out = match workload.as_str() {
        "compile" => compile::run(&cfg),
        "schedule" => schedule::run(&cfg),
        "execute" => execute::run(&cfg),
        _ => usage(),
    };
    out.metrics.entry("peak_rss_mb").or_insert_with(peak_rss_mb);
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    info(format!(
        "error_rate = {error_rate} ({} failed of {} attempted, {} reference mismatches)",
        out.failed,
        out.attempted,
        out.mismatches.len()
    ));

    // every metric the run measured; run.py picks the ones BENCHMARK.json
    // names for the mode and gives them their units
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {v:?}")
        })
        .collect();
    let correct = out.mismatches.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
