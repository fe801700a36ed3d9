//! `perfbench-worker`: runs one benchmark workload and prints its raw
//! measurements as one `RESULT {json}` line. `perfbench/run.py` builds it,
//! runs it, and turns that line into the benchmark's metrics; see
//! `perfbench/README.md` for what is measured and why.
//!
//! ```text
//! perfbench-worker --workload NAME --seed N --seconds S --trace 0|1
//!                  [--serve-bin PATH] [--spans PATH] [--pass-child]
//! ```
//!
//! A run repeats *passes* over the workload's operation list until its time
//! is up. For the simulation workloads each pass is a fresh process
//! (`--pass-child`) that runs every operation twice: cold, for the first
//! time in its life, then warm, as a repeat. For serve-mix each pass starts
//! a fresh server and sends every request once cold (a cache miss) and once
//! warm (a hit), in seeded order. With `--trace 1` the first half of the
//! time runs untraced passes and the second half traced ones, and the two
//! are compared.

mod instrument;
mod plan;
mod serve;
mod sims;

use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use instrument::{ClockCost, Layer, PassTotals, Tracer};
use plan::{permutation, Gen};
use serve::ServeMix;
use sims::Sims;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pass_child: bool,
    serve_bin: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench-worker: {msg}\n\
         usage: perfbench-worker --workload scale-bcast|mixed-knee|faults-5pct|serve-mix \
         --seed N --seconds S --trace 0|1 [--serve-bin PATH] [--spans PATH] [--pass-child]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        pass_child: false,
        serve_bin: None,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                a.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => a.trace = value() == "1",
            "--serve-bin" => a.serve_bin = Some(value().into()),
            "--spans" => a.spans = Some(value().into()),
            "--pass-child" => a.pass_child = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    a
}

enum Work {
    Sims(Sims),
    Serve(ServeMix),
}

impl Work {
    fn setup(workload: &str, seed: u64) -> Work {
        match workload {
            "scale-bcast" => Work::Sims(sims::scale_bcast(seed)),
            "mixed-knee" => Work::Sims(sims::mixed_knee(seed)),
            "faults-5pct" => Work::Sims(sims::faults_5pct(seed)),
            "serve-mix" => Work::Serve(serve::serve_mix(seed)),
            other => usage(&format!("unknown workload {other}")),
        }
    }
}

/// Raw measurements of one run.
#[derive(Default)]
struct Report {
    pass_s: Vec<f64>,
    setup_s: Vec<f64>,
    rss_mb: Vec<f64>,
    /// Cold operation latencies, one list per pass, indexed by operation;
    /// NaN where the pass has no cold sample of that operation.
    cold_ms: Vec<Vec<f64>>,
    /// Warm operation latencies, laid out like `cold_ms`.
    warm_ms: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    layers: Vec<(&'static str, f64)>,
}

impl Report {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Record one attempted operation's result.
    fn record(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.fail(e);
        }
    }

    fn to_json(&self, workload: &str, tail_q: f64) -> String {
        let nums = |v: &[f64]| {
            let parts: Vec<String> = v
                .iter()
                .map(|x| {
                    if x.is_finite() {
                        format!("{x:e}")
                    } else {
                        "null".into()
                    }
                })
                .collect();
            format!("[{}]", parts.join(","))
        };
        let passes = |v: &[Vec<f64>]| {
            let parts: Vec<String> = v.iter().map(|p| nums(p)).collect();
            format!("[{}]", parts.join(","))
        };
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{k}\":{}",
                    if v.is_finite() {
                        format!("{v:e}")
                    } else {
                        "null".into()
                    }
                )
            })
            .collect();
        format!(
            "{{\"workload\":{},\"tail_q\":{tail_q},\"pass_s\":{},\"setup_s\":{},\"rss_mb\":{},\
             \"cold_ms\":{},\"warm_ms\":{},\"attempted\":{},\"failed\":{},\"errors\":[{}],\"layers\":{{{}}}}}",
            json_str(workload),
            nums(&self.pass_s),
            nums(&self.setup_s),
            nums(&self.rss_mb),
            passes(&self.cold_ms),
            passes(&self.warm_ms),
            self.attempted,
            self.failed,
            errors.join(","),
            layers.join(",")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// The tail percentile reported beside the median: the highest of p99, p90
/// and p50 that leaves at least ten of the workload's operations beyond
/// it. Fixing it by the operation count, not by the samples of a run, keeps
/// it the same percentile when a faster build fits more passes into a run.
fn tail_quantile(ops: usize) -> f64 {
    [0.99, 0.9]
        .into_iter()
        .find(|q| (1.0 - q) * ops as f64 >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// Run passes until the next one (estimated by the last) would end after
/// `deadline`; at least `min` passes.
fn passes_until(deadline: Instant, min: usize, mut pass: impl FnMut()) {
    let mut done = 0;
    loop {
        let t = Instant::now();
        pass();
        done += 1;
        if done >= min && Instant::now() + t.elapsed() > deadline {
            return;
        }
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The child side of a pass: print `ready` once set up, then run every
/// operation in `order` twice, cold and then warm, one line each (`cold` or
/// `warm`, index, milliseconds, `ok` or `err`, digest or error,
/// tab-separated), then the warm round's wall time and the process's peak
/// RSS. A round's lines are written after the round, so its wall time holds
/// no pipe writes.
fn pass_child(w: &Sims, order: &[usize]) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "ready {}", w.ops.len()).and_then(|()| out.flush());
    let mut warm_s = 0.0;
    for kind in ["cold", "warm"] {
        let mut lines = String::new();
        let start = Instant::now();
        for &i in order {
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| w.run_plain(&w.ops[i])));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let (status, text) = match r.unwrap_or_else(|p| Err(panic_text(p))) {
                Ok(d) => ("ok", d),
                Err(e) => ("err", e),
            };
            let text = text.replace(['\t', '\n'], " ");
            lines.push_str(&format!("{kind}\t{i}\t{ms}\t{status}\t{text}\n"));
        }
        warm_s = start.elapsed().as_secs_f64();
        let _ = out.write_all(lines.as_bytes());
    }
    let _ = writeln!(out, "warm_s\t{warm_s}");
    let kb = serve::vm_hwm_kb("self").unwrap_or(0);
    let _ = writeln!(out, "rss_kb\t{kb}");
}

/// One pass: a fresh worker process runs every operation cold and then
/// warm. Records the child's set-up time, cold and warm samples, warm-round
/// wall time and peak RSS; checks each warm outcome against its cold one
/// and returns the cold outcome digests.
fn process_pass(args: &Args, n: usize, rep: &mut Report) -> Vec<Option<String>> {
    let mut digests: Vec<Option<String>> = vec![None; n];
    let spawned = Instant::now();
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
                "--pass-child",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
    });
    let mut child = match child {
        Ok(c) => c,
        Err(e) => {
            rep.fail(format!("spawn pass worker: {e}"));
            return digests;
        }
    };
    let Some(stdout) = child.stdout.take() else {
        rep.fail("pass worker stdout not captured".into());
        return digests;
    };
    let mut lines = BufReader::new(stdout).lines();
    match lines.next() {
        Some(Ok(l)) if l.starts_with("ready") => rep.setup_s.push(spawned.elapsed().as_secs_f64()),
        other => rep.fail(format!("pass worker did not get ready: {other:?}")),
    }
    let (mut cold, mut warm) = (vec![f64::NAN; n], vec![f64::NAN; n]);
    let (mut n_cold, mut n_warm) = (0, 0);
    for line in lines.map_while(Result::ok) {
        let f: Vec<&str> = line.splitn(5, '\t').collect();
        match f[..] {
            ["rss_kb", kb] => rep
                .rss_mb
                .extend(kb.parse::<f64>().ok().map(|kb| kb / 1024.0)),
            ["warm_s", s] => rep.pass_s.extend(s.parse::<f64>().ok()),
            [kind @ ("cold" | "warm"), i, ms, status, text] => {
                let (Ok(i), Ok(ms)) = (i.parse::<usize>(), ms.parse::<f64>()) else {
                    rep.fail(format!("bad pass line {line:?}"));
                    continue;
                };
                if i >= n {
                    rep.fail(format!("bad pass line {line:?}"));
                    continue;
                }
                let r = if status == "ok" {
                    Ok(text.to_string())
                } else {
                    Err(text.to_string())
                };
                if kind == "cold" {
                    cold[i] = ms;
                    n_cold += 1;
                    digests[i] = r.as_ref().ok().cloned();
                    rep.record(r.map(|_| ()).map_err(|e| format!("op {i}: {e}")));
                } else {
                    warm[i] = ms;
                    n_warm += 1;
                    rep.record(check_digest(
                        i,
                        &digests,
                        "warm outcome differs from cold",
                        r,
                    ));
                }
            }
            _ => rep.fail(format!("bad pass line {line:?}")),
        }
    }
    let status = child.wait();
    if n_cold != n || n_warm != n || !status.is_ok_and(|s| s.success()) {
        rep.fail(format!(
            "pass worker ran {n_cold} cold and {n_warm} warm of {n} operations"
        ));
    }
    rep.cold_ms.push(cold);
    rep.warm_ms.push(warm);
    digests
}

/// Check operation `i`'s outcome digest against the reference; `what` names
/// the comparison in the failure message.
fn check_digest(
    i: usize,
    reference: &[Option<String>],
    what: &str,
    r: Result<String, String>,
) -> Result<(), String> {
    let d = r.map_err(|e| format!("op {i}: {e}"))?;
    match reference[i].as_deref() {
        Some(want) if want != d => Err(format!("op {i}: {what}: {want} vs {d}")),
        _ => Ok(()),
    }
}

/// One traced pass over the simulation operations, checked against the
/// untraced outcomes.
fn sim_traced_pass(
    w: &Sims,
    order: &[usize],
    reference: &[Option<String>],
    tr: &mut Tracer,
    rep: &mut Report,
) -> (PassTotals, f64) {
    let start = Instant::now();
    let pass = tr.open("pass", None, 0);
    for &i in order {
        let span = tr.open("op", Some(pass), i as u64);
        let r = catch_unwind(AssertUnwindSafe(|| w.run_traced(&w.ops[i], tr, span)));
        tr.pass.op_ns += tr.close(span);
        let r = r.unwrap_or_else(|p| Err(panic_text(p)));
        let what = "traced outcome differs from untraced";
        rep.record(check_digest(i, reference, what, r));
    }
    tr.close(pass);
    let wall = start.elapsed().as_secs_f64();
    (tr.take_pass(), wall)
}

fn run_sims(args: &Args, w: &Sims, rep: &mut Report) -> Option<Tracer> {
    let order = permutation(w.ops.len(), &mut Gen::new(args.seed, "order"));
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let untraced_end = start + if args.trace { budget / 2 } else { budget };
    let mut reference: Option<Vec<Option<String>>> = None;
    // Every pass is a fresh process; the first one sets the reference
    // outcomes every later pass must reproduce.
    passes_until(untraced_end, 1, || {
        let d = process_pass(args, w.ops.len(), rep);
        match &reference {
            None => reference = Some(d),
            Some(r) => same_digests(rep, r, &d, "outcome differs between processes"),
        }
    });
    for op in &w.ops {
        rep.record(w.coverage(op));
    }
    if !args.trace {
        return None;
    }
    let reference = reference.unwrap_or_default();
    let mut tr = Tracer::new();
    let clock = tr.calibrate();
    let mut totals = Vec::new();
    let mut walls = Vec::new();
    passes_until(start + budget, 1, || {
        let (t, wall) = sim_traced_pass(w, &order, &reference, &mut tr, rep);
        totals.push(t);
        walls.push(wall);
    });
    rep.layers = per_layer(rep, &totals, &walls, None, clock);
    Some(tr)
}

/// Check `other` against `reference` wherever both hold a value; `what`
/// names the comparison in the failure message.
fn same_digests(
    rep: &mut Report,
    reference: &[Option<String>],
    other: &[Option<String>],
    what: &str,
) {
    for (i, (a, b)) in reference.iter().zip(other).enumerate() {
        if a.is_some() && b.is_some() && a != b {
            rep.fail(format!("op {i}: {what}: {a:?} vs {b:?}"));
        }
    }
}

fn run_serve(args: &Args, m: &ServeMix, rep: &mut Report) -> Option<Tracer> {
    let Some(bin) = args.serve_bin.as_deref() else {
        rep.fail("serve-mix needs --serve-bin".into());
        return None;
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let untraced_end = start + if args.trace { budget / 2 } else { budget };
    let mut reference: Option<Vec<Option<String>>> = None;
    let mut latency_sums = Vec::new();
    passes_until(untraced_end, 1, || {
        let p = match m.socket_pass(bin) {
            Ok(p) => p,
            Err(e) => {
                rep.fail(e);
                return;
            }
        };
        rep.setup_s.push(p.setup_ns as f64 / 1e9);
        rep.pass_s.push(p.wall_ns as f64 / 1e9);
        rep.rss_mb.extend(p.rss_kb.map(|kb| kb as f64 / 1024.0));
        latency_sums.push(p.answers.iter().map(|a| a.ns as f64 / 1e9).sum::<f64>());
        let mut frames: Vec<Option<String>> = vec![None; m.len()];
        let (mut cold, mut warm) = (vec![f64::NAN; m.len()], vec![f64::NAN; m.len()]);
        for a in &p.answers {
            let ms = a.ns as f64 / 1e6;
            let checked = match a.provenance {
                Some(serve::Provenance::Miss) => {
                    cold[a.idx] = ms;
                    Ok(())
                }
                Some(serve::Provenance::Hit) => {
                    warm[a.idx] = ms;
                    Ok(())
                }
                Some(serve::Provenance::Coalesced) => Ok(()),
                None => Err(format!("request {}: no provenance line", a.idx)),
            };
            let r = checked.and_then(|()| {
                if a.frame.starts_with("{\"error\":") {
                    return Err(format!("request {}: error frame {}", a.idx, a.frame));
                }
                match &frames[a.idx] {
                    None => {
                        frames[a.idx] = Some(a.frame.clone());
                        Ok(())
                    }
                    Some(f) if *f == a.frame => Ok(()),
                    Some(f) => Err(format!(
                        "request {}: frames differ between its sends: {f} vs {}",
                        a.idx, a.frame
                    )),
                }
            });
            rep.record(r);
        }
        rep.cold_ms.push(cold);
        rep.warm_ms.push(warm);
        match &reference {
            None => reference = Some(frames),
            Some(r) => same_digests(rep, r, &frames, "frame differs between passes"),
        }
    });
    if !args.trace {
        return None;
    }
    let reference = reference.unwrap_or_default();
    let mut tr = Tracer::new();
    let clock = tr.calibrate();
    let mut totals = Vec::new();
    let mut walls = Vec::new();
    passes_until(start + budget, 1, || {
        let t = Instant::now();
        let pass = tr.open("pass", None, 0);
        let frames = m.traced_pass(&mut tr, pass);
        tr.close(pass);
        walls.push(t.elapsed().as_secs_f64());
        let frames: Vec<Option<String>> = frames.into_iter().map(Some).collect();
        rep.attempted += 2 * m.len() as u64;
        let errors = tr.pass.error_frames;
        for _ in 0..errors {
            rep.fail("traced replay: error frame".into());
        }
        same_digests(
            rep,
            &reference,
            &frames,
            "traced frame differs from the server's",
        );
        totals.push(tr.take_pass());
    });
    rep.layers = per_layer(rep, &totals, &walls, Some(median(&latency_sums)), clock);
    Some(tr)
}

/// The per-layer metrics of a traced run: counts from the first traced
/// pass (they must repeat exactly in every other), times as medians over
/// the traced passes.
fn per_layer(
    rep: &mut Report,
    totals: &[PassTotals],
    traced_walls: &[f64],
    client_latency_s: Option<f64>,
    clock: ClockCost,
) -> Vec<(&'static str, f64)> {
    for (k, t) in totals.iter().enumerate().skip(1) {
        if t.counts() != totals[0].counts() {
            rep.fail(format!(
                "traced pass {k}: per-layer counts differ from pass 0"
            ));
        }
    }
    let p = &totals[0];
    let med = |f: &dyn Fn(&PassTotals) -> f64| {
        let v: Vec<f64> = totals.iter().map(f).collect();
        median(&v)
    };
    // Recorded time minus the clock reads it includes, seconds.
    let net = |ns: u64, calls: u64| (ns as f64 - calls as f64 * clock.inside_ns).max(0.0) / 1e9;
    let layer_s = |t: &PassTotals, l: Layer| net(t.layer(l).ns, t.layer(l).calls);
    let secs = |l: Layer| med(&|t: &PassTotals| layer_s(t, l));
    let calls = |l: Layer| p.layer(l).calls as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let engine_s = secs(Layer::Step);
    let routing_s = med(&|t: &PassTotals| net(t.routing_ns, t.routing_calls));
    // The routing decorator's clock reads run inside the step calls.
    let step_self_s = med(&|t: &PassTotals| {
        let routing = t.routing_ns as f64 + t.routing_calls as f64 * clock.outside_ns;
        (layer_s(t, Layer::Step) - routing / 1e9).max(0.0)
    });
    // Operation time outside every timed call and outside their clock reads.
    let driver_s = med(&|t: &PassTotals| {
        let inside: u64 = Layer::ALL.iter().map(|&l| t.layer(l).ns).sum();
        let timed_calls: u64 = Layer::ALL.iter().map(|&l| t.layer(l).calls).sum();
        let rest = t.op_ns as f64 - inside as f64 - timed_calls as f64 * clock.outside_ns;
        rest.max(0.0) / 1e9
    });
    let respond_render_s = secs(Layer::Respond) + secs(Layer::Render);
    vec![
        ("core.schedule_calls", calls(Layer::Schedule)),
        ("core.schedule_s", secs(Layer::Schedule)),
        ("routing.calls", p.routing_calls as f64),
        (
            "routing.candidates_per_call",
            ratio(p.routing_candidates, p.routing_calls),
        ),
        ("routing.s", routing_s),
        ("network.new_s", secs(Layer::NetworkNew)),
        ("network.inject_calls", calls(Layer::Inject)),
        ("network.inject_s", secs(Layer::Inject)),
        ("network.step_calls", calls(Layer::Step)),
        ("network.step_s", step_self_s),
        ("network.header_hops", p.header_hops as f64),
        ("network.channel_grants", p.channel_grants as f64),
        ("network.channel_releases", p.channel_releases as f64),
        ("network.channel_waits", p.channel_waits as f64),
        (
            "network.wait_queue_mean",
            ratio(p.wait_queue_sum, p.channel_waits),
        ),
        ("network.wait_queue_max", p.wait_queue_max as f64),
        ("network.deliveries", p.deliveries as f64),
        (
            "network.arena_msgs_highwater",
            p.arena_msgs_highwater as f64,
        ),
        ("network.fault_sample_calls", calls(Layer::FaultSample)),
        ("network.fault_sample_s", secs(Layer::FaultSample)),
        ("network.watchdog_arms", p.watchdog_arms as f64),
        ("network.reroutes", p.reroutes as f64),
        ("network.stalls", p.stalls as f64),
        ("sim.events", p.events as f64),
        ("sim.bucket_scans", p.bucket_scans as f64),
        ("sim.scans_per_event", ratio(p.bucket_scans, p.events)),
        (
            "sim.events_per_s",
            if engine_s > 0.0 {
                p.events as f64 / engine_s
            } else {
                0.0
            },
        ),
        ("workload.tracker_calls", calls(Layer::Tracker)),
        ("workload.tracker_s", secs(Layer::Tracker)),
        ("workload.degrade_calls", calls(Layer::Degrade)),
        ("workload.degrade_s", secs(Layer::Degrade)),
        ("workload.driver_s", driver_s),
        ("simcheck.decode_s", secs(Layer::Decode)),
        ("simcheck.hash_s", secs(Layer::Hash)),
        ("simcheck.measure_s", secs(Layer::Measure)),
        ("serve.requests", p.serve_requests as f64),
        ("serve.cache_hits", p.cache_hits as f64),
        ("serve.cache_misses", p.cache_misses as f64),
        ("serve.coalesced", p.coalesced as f64),
        ("serve.hit_ratio", ratio(p.cache_hits, p.serve_requests)),
        ("serve.error_frames", p.error_frames as f64),
        ("serve.respond_s", secs(Layer::Respond)),
        ("serve.render_s", secs(Layer::Render)),
        ("serve.frame_bytes", p.frame_bytes as f64),
        (
            "serve.net_s",
            client_latency_s.map_or(0.0, |c| (c - respond_render_s).max(0.0)),
        ),
        (
            "trace.overhead_frac",
            median(traced_walls) / median(&rep.pass_s) - 1.0,
        ),
    ]
}

fn main() {
    let args = parse_args();
    let work = Work::setup(&args.workload, args.seed);
    if let (true, Work::Sims(w)) = (args.pass_child, &work) {
        let order = permutation(w.ops.len(), &mut Gen::new(args.seed, "order"));
        pass_child(w, &order);
        return;
    }
    let mut rep = Report::default();
    let (tracer, tail_q) = match &work {
        Work::Sims(w) => (run_sims(&args, w, &mut rep), tail_quantile(w.ops.len())),
        Work::Serve(m) => (run_serve(&args, m, &mut rep), tail_quantile(m.len())),
    };
    if let (Some(tr), Some(path)) = (&tracer, &args.spans) {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            tr.write(&mut out)?;
            out.flush()
        });
        if let Err(e) = written {
            rep.fail(format!("write spans to {}: {e}", path.display()));
        }
    }
    println!("RESULT {}", rep.to_json(&args.workload, tail_q));
}
