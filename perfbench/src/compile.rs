//! `compile`: the service's own traffic. A closed loop of two client
//! threads, one connection each, against an in-process `inl_serve::serve`
//! server with two workers on loopback. The request set is an identity
//! `Compile` per zoo program, a `Compile` and an `Explain` per order
//! string, and one `Run` per one-parameter program; each connection walks
//! it in its own seeded order, over and over.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use inl_exec::{Machine, VmRunner};
use inl_ir::Program;
use inl_proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    BackendChoice, CompileOutcome, FrameLimits, Request, Response,
};
use inl_serve::{handle_request, serve, ServerConfig, ServerHandle, ZOO};

use crate::execute::vm_run;
use crate::ledger::Ledger;
use crate::refs;
use crate::stats;
use crate::{info, info_summary, Cfg, Outcome};

struct Item {
    req: Request,
    expected: Response,
}

fn zoo(name: &str) -> Program {
    ZOO.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| f())
        .expect("zoo program")
}

/// Size of every `Run` request. Fixed, not seeded: the slowest requests
/// of the set are `Run`s, so a seeded size would move the latency tail
/// with the seed rather than with the code.
const RUN_N: u32 = 32;

fn request_set() -> Vec<Request> {
    let mut reqs = Vec::new();
    for (name, _) in ZOO {
        reqs.push(Request::Compile {
            program: name.to_string(),
            order: None,
            telemetry: false,
        });
    }
    for (name, f) in ZOO {
        for ord in refs::order_strings(&f()) {
            reqs.push(Request::Compile {
                program: name.to_string(),
                order: Some(ord.clone()),
                telemetry: false,
            });
            reqs.push(Request::Explain {
                program: name.to_string(),
                order: Some(ord),
                telemetry: false,
            });
        }
    }
    for (name, f) in ZOO {
        if f().nparams() == 1 {
            reqs.push(Request::Run {
                program: name.to_string(),
                params: vec![RUN_N],
                order: None,
                backend: BackendChoice::Vm,
                telemetry: false,
            });
        }
    }
    reqs
}

fn program_and_order(req: &Request) -> (&str, Option<&str>) {
    match req {
        Request::Compile { program, order, .. }
        | Request::Explain { program, order, .. }
        | Request::Run { program, order, .. } => (program, order.as_deref()),
        _ => unreachable!("the request set holds compile, explain and run only"),
    }
}

/// Check one recorded answer against the replayed pipeline and the
/// reference interpreter.
fn check_item(item: &Item, seed: u64, led: &mut Ledger, out: &mut Outcome) {
    let (name, order) = program_and_order(&item.req);
    let p = zoo(name);
    let (compiled, _) = refs::compile(&p, order, led, 0);
    let label = format!("{} {name} {order:?}", item.req.kind_name());
    match (&item.expected, &compiled) {
        (Response::Error { kind, message }, _) => {
            out.mismatch(format!("{label}: error {kind}: {message}"))
        }
        (
            Response::Compile {
                outcome: CompileOutcome::Legal { pseudocode },
                ..
            },
            Ok(g),
        ) => {
            if *pseudocode != g.to_pseudocode() {
                out.mismatch(format!(
                    "{label}: pseudocode differs from the replayed pipeline"
                ));
            }
            let init = refs::seeded_init(seed);
            let n = refs::check_params(&p);
            let want = led.call("exec.interp", 0, || refs::interpret(&p, &n, &init));
            let got = led.call("exec.interp", 0, || refs::interpret(g, &n, &init));
            if let Err(e) = want.same_state(&got) {
                out.mismatch(format!(
                    "{label}: generated program differs from source: {e}"
                ));
            }
        }
        (
            Response::Compile {
                outcome: CompileOutcome::Rejected { .. },
                ..
            },
            Err(_),
        ) => {}
        (Response::Explain { verdict, .. }, c) if (verdict == "legal") == c.is_ok() => {}
        (Response::Run { digest, cells, .. }, Ok(_)) => {
            let Request::Run { params, .. } = &item.req else {
                unreachable!()
            };
            let n: Vec<i128> = params.iter().map(|&v| v as i128).collect();
            let want = led.call("exec.interp", 0, || {
                refs::interpret(&p, &n, &inl_bench::spd_init)
            });
            let (d, _, c) = refs::digest(&want);
            if d != *digest || c != *cells {
                out.mismatch(format!(
                    "{label}: run digest {digest} differs from the interpreter's {d}"
                ));
            }
        }
        _ => out.mismatch(format!(
            "{label}: answer disagrees with the replayed pipeline"
        )),
    }
}

struct Setup {
    items: Vec<Item>,
    server: ServerHandle,
    interp_ns: f64,
}

fn set_up(cfg: &Cfg, out: &mut Outcome) -> Setup {
    inl_poly::cache::clear();
    let mut led = Ledger::new(true, None, Instant::now());
    let items: Vec<Item> = request_set()
        .into_iter()
        .map(|req| {
            let expected = handle_request(&req);
            Item { req, expected }
        })
        .collect();
    for item in &items {
        check_item(item, cfg.seed, &mut led, out);
    }
    let server = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    // warm-up: each connection sends the whole set once
    let mut conns = connect(&server, 2);
    let mut scratch = cfg.ledger(Instant::now());
    scratch.set_tracing(false);
    for (c, conn) in conns.iter_mut().enumerate() {
        for &i in &refs::shuffled(items.len(), cfg.seed ^ c as u64) {
            match conn.exchange(&items[i].req, &mut scratch, i as u64) {
                Ok(r) if r == items[i].expected => {}
                _ => out.mismatch(format!("warm-up request {i} answered differently over TCP")),
            }
        }
    }
    let interp_ns = led.durations("exec.interp").iter().sum();
    Setup {
        items,
        server,
        interp_ns,
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    limits: FrameLimits,
}

fn connect(server: &ServerHandle, n: usize) -> Vec<Conn> {
    (0..n)
        .map(|_| {
            let s = TcpStream::connect(server.local_addr()).expect("connect to the server");
            s.set_nodelay(true).expect("nodelay");
            Conn {
                reader: BufReader::new(s.try_clone().expect("clone stream")),
                writer: BufWriter::new(s),
                limits: FrameLimits::default(),
            }
        })
        .collect()
}

impl Conn {
    /// One request/response exchange, the same calls `inl_serve::Client`
    /// makes, each wrapped so the traced run can time the codec apart from
    /// the round trip.
    fn exchange(&mut self, req: &Request, led: &mut Ledger, id: u64) -> Result<Response, String> {
        let text = led.call("proto.encode", id, || encode_request(req));
        let trip = led.begin("serve.round_trip", id);
        let payload = write_frame(&mut self.writer, text.as_bytes())
            .map_err(|e| e.to_string())
            .and_then(|()| match read_frame(&mut self.reader, &self.limits) {
                Ok(Some(p)) => Ok(p),
                Ok(None) => Err("server closed the connection".to_string()),
                Err(e) => Err(format!("{e:?}")),
            });
        led.end(trip);
        let payload = payload?;
        led.call("proto.decode", id, || {
            decode_response(&payload, &self.limits)
        })
        .map_err(|e| e.to_string())
    }
}

/// What one load phase measured.
#[derive(Default)]
struct Phase {
    /// Round trips of untraced passes.
    latencies_ns: Vec<f64>,
    /// Per sub-phase: (requests per second, exact p50 and p99 round trip).
    sub_phases: Vec<(f64, f64, f64)>,
    /// Round trips of traced passes (traced runs only).
    traced_ns: Vec<f64>,
    passes_s: Vec<f64>,
    done: u64,
    failed: u64,
    secs: f64,
    led: Option<Ledger>,
}

/// Drive both connections for `secs`. Each connection walks the request
/// set in its own seeded order; in a traced run it traces every other
/// pass, so traced and untraced round trips share the same load.
fn load_phase(cfg: &Cfg, items: &[Item], conns: &mut [Conn], secs: f64, epoch: Instant) -> Phase {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    let phases: Vec<(Phase, Ledger)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mut led = cfg.ledger(epoch);
                let order = refs::shuffled(items.len(), cfg.seed ^ c as u64);
                scope.spawn(move || {
                    let mut ph = Phase::default();
                    for pass in 0.. {
                        let traced = cfg.trace && pass % 2 == 1;
                        led.set_tracing(traced);
                        let pass0 = Instant::now();
                        for &i in &order {
                            if Instant::now() >= deadline {
                                return (ph, led);
                            }
                            let id = i as u64;
                            let root = led.begin("client.request", id);
                            let r0 = Instant::now();
                            let resp = conn.exchange(&items[i].req, &mut led, id);
                            let ns = r0.elapsed().as_nanos() as f64;
                            led.end(root);
                            ph.done += 1;
                            match resp {
                                Ok(r) if r == items[i].expected && traced => ph.traced_ns.push(ns),
                                Ok(r) if r == items[i].expected => ph.latencies_ns.push(ns),
                                _ => ph.failed += 1,
                            }
                        }
                        if !traced {
                            ph.passes_s.push(pass0.elapsed().as_secs_f64());
                        }
                    }
                    unreachable!("the pass loop returns at the deadline")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Phase {
        secs: t0.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    let mut led = cfg.ledger(epoch);
    for (ph, l) in phases {
        all.latencies_ns.extend(ph.latencies_ns);
        all.traced_ns.extend(ph.traced_ns);
        all.passes_s.extend(ph.passes_s);
        all.done += ph.done;
        all.failed += ph.failed;
        led.absorb(l);
    }
    all.led = Some(led);
    all
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s, interp_ns) = crate::set_up_repeatedly(
        || set_up(cfg, &mut out),
        |old: Setup| {
            old.server.shutdown();
        },
        |s| s.interp_ns,
    );
    out.set("setup_s", setup_s);
    out.set("exec.interp_ns", interp_ns);
    let Setup { items, server, .. } = setup;
    let n_orders = items
        .iter()
        .filter(|i| matches!(i.req, Request::Compile { order: Some(_), .. }))
        .count();
    info(format!(
        "request set: {} requests ({} order strings); 2 connections, closed loop, 2 server workers",
        items.len(),
        n_orders
    ));

    let epoch = Instant::now();
    if !cfg.trace {
        let ph = sub_phases(cfg, &items, &server, epoch);
        out.attempted += ph.done;
        out.failed += ph.failed;
        report_e2e(&ph, &mut out);
    } else {
        let mut conns = connect(&server, 2);
        traced(cfg, &items, &mut conns, &server, epoch, &mut out);
    }
    server.shutdown();
    out
}

/// Length of the sub-phases the timed phase is cut into; each opens fresh
/// connections on fresh client threads and is one sample of the
/// end-to-end metrics.
const SUB_PHASE_S: f64 = 1.0;

/// The untraced timed phase: sub-phases of [`SUB_PHASE_S`] until
/// `--seconds` have passed, merged. New threads and connections per
/// sub-phase let the host place them afresh, so one unlucky placement of
/// four busy threads on two cores does not set a whole run.
fn sub_phases(cfg: &Cfg, items: &[Item], server: &ServerHandle, epoch: Instant) -> Phase {
    let n = (cfg.seconds / SUB_PHASE_S).round().max(1.0) as usize;
    let mut all = Phase::default();
    for _ in 0..n {
        let mut conns = connect(server, 2);
        let ph = load_phase(cfg, items, &mut conns, cfg.seconds / n as f64, epoch);
        let lat = stats::sorted(&ph.latencies_ns);
        all.sub_phases.push((
            ph.done as f64 / ph.secs,
            stats::quantile(&lat, 0.5),
            stats::quantile(&lat, 0.99),
        ));
        all.latencies_ns.extend(ph.latencies_ns);
        all.passes_s.extend(ph.passes_s);
        all.done += ph.done;
        all.failed += ph.failed;
        all.secs += ph.secs;
    }
    all
}

/// End-to-end metrics of the untraced timed phase: throughput and exact
/// latency percentiles of each sub-phase, from raw samples, and of them the
/// quartile on the better side (the first quartile of p50, p99 and pass
/// time, the third of throughput). The shared host slows the whole process
/// in episodes of 10–20 s that only ever add time; a median over a run
/// still lands in one when it covers half the run, while the better
/// quartile needs only a quarter of the run outside them. The whole-phase
/// figures are printed too.
fn report_e2e(ph: &Phase, out: &mut Outcome) {
    let column =
        |k: usize| -> Vec<f64> { ph.sub_phases.iter().map(|w| [w.0, w.1, w.2][k]).collect() };
    let ms = |ns: f64| ns / 1e6;
    out.set("pass_s", stats::better_quartile(&ph.passes_s, true));
    out.set("ops_per_s", stats::better_quartile(&column(0), false));
    out.set("op_typical_ms", ms(stats::better_quartile(&column(1), true)));
    out.set("op_p99_ms", ms(stats::better_quartile(&column(2), true)));
    let lat = stats::sorted(&ph.latencies_ns);
    info(format!(
        "req_per_s = {:.3} 1/s over the phase ({} requests in {:.3} s)",
        ph.done as f64 / ph.secs,
        ph.done,
        ph.secs
    ));
    info(format!(
        "req_p50_ms = {:.6} ms, req_p99_ms = {:.6} ms over the phase (exact, from {} raw samples)",
        ms(stats::quantile(&lat, 0.5)),
        ms(stats::quantile(&lat, 0.99)),
        lat.len()
    ));
    if let Some((p, v)) = stats::highest_resolved_percentile(&lat) {
        info(format!(
            "highest percentile with >= 10 samples beyond it: p{p} = {:.6} ms",
            ms(v)
        ));
    }
    info_summary("req_per_s per sub-phase", "1/s", &column(0));
    info_summary("req_p50_ns per sub-phase", "ns", &column(1));
    info_summary("req_p99_ns per sub-phase", "ns", &column(2));
    info_summary(
        "pass_s (one connection through the whole request set)",
        "s",
        &ph.passes_s,
    );
}

/// The traced run: a load phase whose connections trace every other pass,
/// to measure the tracing overhead under the same load; then every request
/// is replayed in-process through `handle_request` and through the
/// documented pipeline, one span per layer call.
fn traced(
    cfg: &Cfg,
    items: &[Item],
    conns: &mut [Conn],
    server: &ServerHandle,
    epoch: Instant,
    out: &mut Outcome,
) {
    inl_poly::cache::reset_stats();
    let ph = load_phase(cfg, items, conns, cfg.seconds, epoch);
    out.attempted += ph.done;
    out.failed += ph.failed;
    let (untraced_lat, traced_lat) = (ph.latencies_ns, ph.traced_ns);
    let client = ph.led.expect("phase ledger");
    let cache = inl_poly::cache::stats();
    let rt_p50 = stats::median(&untraced_lat);
    out.set(
        "trace_overhead_pct",
        100.0 * (stats::median(&traced_lat) / rt_p50 - 1.0),
    );
    out.set("poly.cache_hit_ratio", cache.hit_rate());
    out.set("poly.cache_misses", cache.misses as f64);
    out.set("poly.cache_entries", cache.entries as f64);
    let hwm = server
        .stats_json()
        .get("in_flight_hwm")
        .and_then(|j| j.as_u64())
        .unwrap_or(0);
    out.set("serve.in_flight_hwm", hwm as f64);
    crate::self_time_table("client side of the traced load phases", &client);

    // in-process replay: two timed passes with the program's telemetry
    // off, then two counted passes with it on
    let mut led = cfg.ledger(epoch);
    // handle_request encloses the whole pipeline: timed on a ledger of its
    // own so it does not swallow the layer self times
    let mut handle_led = cfg.ledger(epoch);
    let mut counts: Vec<Vec<[u64; 5]>> = Vec::new();
    let (mut orders_asked, mut orders_done) = (0u64, 0u64);
    let mut bytes = Vec::new();
    let mut exec_bytes = 0u64;
    for pass in 0..4 {
        let counting = pass >= 2;
        inl_obs::set_enabled(counting);
        led.set_tracing(!counting);
        handle_led.set_tracing(!counting);
        let mut per = Vec::new();
        for (i, item) in items.iter().enumerate() {
            let id = i as u64;
            out.attempted += 1;
            if handle_led.call("serve.handle", id, || handle_request(&item.req)) != item.expected {
                out.mismatch(format!("replayed request {i} answered differently"));
            }
            let root = led.begin("serve.request", id);
            let wire = encode_request(&item.req);
            let decoded = led.call("proto.decode", id, || {
                decode_request(wire.as_bytes(), &FrameLimits::default())
            });
            if decoded.as_ref() != Ok(&item.req) {
                out.mismatch(format!("request {i} does not round-trip through the codec"));
            }
            let c0 = counters();
            let (name, order) = program_and_order(&item.req);
            let p = zoo(name);
            let (compiled, cc) = refs::compile(&p, order, &mut led, id);
            if let Ok(g) = &compiled {
                led.call("codegen.pseudocode", id, || g.to_pseudocode());
            }
            if pass == 0 && order.is_some() && matches!(item.req, Request::Compile { .. }) {
                orders_asked += 1;
                orders_done += cc.order_completed as u64;
            }
            if let (Request::Run { params, .. }, Ok(g)) = (&item.req, &compiled) {
                let n: Vec<i128> = params.iter().map(|&v| v as i128).collect();
                let runner = led.call("vm.compile", id, || VmRunner::new(g));
                let mut m = led.call("exec.machine", id, || {
                    Machine::new(g, &n, &inl_bench::spd_init)
                });
                vm_run(&runner, &mut m, &mut led, id);
                if let Response::Run { digest, .. } = &item.expected {
                    if refs::digest(&m).0 != *digest {
                        out.mismatch(format!("replayed run {i} digest differs"));
                    }
                }
                if pass == 0 {
                    exec_bytes += refs::state_bytes(&m);
                }
            }
            let c1 = counters();
            let resp = led.call("proto.encode", id, || encode_response(&item.expected));
            led.end(root);
            if pass == 0 {
                bytes.push((wire.len() + resp.len()) as f64);
            }
            let mut d = [0u64; 5];
            for k in 0..4 {
                d[k] = c1[k] - c0[k];
            }
            d[4] = cc.bounds_scanned;
            per.push(d);
        }
        if counting {
            counts.push(per);
        }
    }
    inl_obs::set_enabled(false);

    let p50 = |name: &str| stats::median(&led.durations(name));
    let handle = stats::median(&handle_led.durations("serve.handle"));
    out.set("serve.handle_ns", handle);
    out.set("serve.wait_ns", rt_p50 - handle);
    out.set("proto.bytes_per_req", stats::median(&bytes));
    // codec time per request: request and response side together
    let per_req = |name: &str| {
        let mut by_root: std::collections::BTreeMap<usize, f64> = Default::default();
        let spans = led.spans();
        for s in spans.iter().filter(|s| s.name == name) {
            let root = s.parent.unwrap_or(usize::MAX);
            *by_root.entry(root).or_default() += s.dur_ns() as f64;
        }
        stats::median(&by_root.into_values().collect::<Vec<_>>())
    };
    out.set("proto.encode_ns", per_req("proto.encode"));
    out.set("proto.decode_ns", per_req("proto.decode"));
    for (metric, span) in [
        ("core.layout_ns", "core.layout"),
        ("depend.analyze_ns", "depend.analyze"),
        ("complete.transform_ns", "complete.transform"),
        ("legal.check_ns", "legal.check"),
        ("codegen.generate_ns", "codegen.generate"),
        ("codegen.cost_ns", "codegen.cost"),
        ("vm.compile_ns", "vm.compile"),
        ("vm.bind_ns", "vm.bind"),
        ("vm.run_ns", "vm.run"),
    ] {
        out.set(metric, p50(span));
    }
    out.set("exec.copy_ns", crate::execute::copy_ns(&led));
    out.set(
        "complete.legal_ratio",
        orders_done as f64 / orders_asked.max(1) as f64,
    );
    let n = items.len() as f64;
    let mean = |k: usize| counts[0].iter().map(|d| d[k]).sum::<u64>() as f64 / n;
    out.set("depend.pairs_tested", mean(0));
    out.set("legal.exact_fallbacks", mean(1));
    out.set("poly.fm_eliminations", mean(2));
    out.set("codegen.bounds_scanned", mean(4));
    let instrs: u64 = counts[0].iter().map(|d| d[3]).sum();
    let runs = items
        .iter()
        .filter(|i| matches!(i.req, Request::Run { .. }))
        .count()
        .max(1);
    out.set("vm.instrs", instrs as f64 / runs as f64);
    // vm.run spans come from the two timed passes
    let run_ns: f64 = led.durations("vm.run").iter().sum::<f64>() / 2.0;
    out.set("vm.ns_per_instr", run_ns / instrs.max(1) as f64);
    out.set("exec.bytes_computed", exec_bytes as f64);
    info(format!(
        "depend.analyze per request: {:.1} us median; {} requests replayed in two timed and two counted passes",
        p50("depend.analyze") / 1e3,
        items.len()
    ));

    // counts that must repeat: per request, first replay against second
    for (i, item) in items.iter().enumerate() {
        let (name, order) = program_and_order(&item.req);
        let label = format!("{}:{}", item.req.kind_name(), order.unwrap_or("-"));
        for (k, cname) in [
            "depend.pairs_tested",
            "legal.exact_fallbacks",
            "poly.fm_eliminations",
            "vm.instrs",
            "codegen.bounds_scanned",
        ]
        .iter()
        .enumerate()
        {
            let (a, b) = (counts[0][i][k], counts[1][i][k]);
            if a != 0 || b != 0 {
                crate::count_row(
                    "compile",
                    &format!("{name}/{label}"),
                    cname,
                    (&a.to_string(), &b.to_string()),
                    false,
                );
            }
        }
    }
    crate::self_time_table("in-process replay of the request set", &led);
    led.absorb(handle_led);
    led.absorb(client);
    if let Some(path) = &cfg.spans_out {
        if let Err(e) = led.write_jsonl(path, "compile") {
            info(format!("could not write spans to {}: {e}", path.display()));
        }
    }
}

/// Program counters read around each replayed call: pairs tested, exact
/// legality fallbacks, Fourier–Motzkin eliminations, VM instructions.
fn counters() -> [u64; 4] {
    [
        inl_obs::counter_value("depend.pairs_tested"),
        inl_obs::counter_value("legal.exact_fallbacks"),
        inl_obs::counter_value("poly.fm.eliminations"),
        inl_obs::counter_value("vm.instrs"),
    ]
}
