//! `rv-perfbench` — one campaign benchmark over the rendezvous stack.
//!
//! ```text
//! rv-perfbench --workload exhaust|deep|sweep_pool|served_replay --seed N
//!              --seconds S --trace 0|1 --bin-dir DIR --rustc-version V
//! ```
//!
//! `--bin-dir` holds the `rv-shard` and `rv-serve` binaries the workloads
//! drive, and `--rustc-version` is the `rustc -V` that built them, recorded
//! with the result (`perfbench/run.py` builds them and passes both). This
//! process spawns no child but the binaries under test, so the peak RSS of
//! its reaped children is theirs. With `--trace 0`
//! the run measures the end-to-end metrics for `--seconds`; with
//! `--trace 1` it runs the workload's fixed campaign set to warm up, then
//! untraced and traced, and reports the per-layer metrics. The last line of stdout is
//! the JSON result; the exit code is 0 only if every answer was correct.
//! See `perfbench/README.md`.

mod probe;
mod serve;
mod stats;
mod sys;
mod trace;
mod workload;

use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, UNIX_EPOCH};
use trace::{Summary, Tracer};
use workload::{Ctx, Kind, Limit, Plan, Tally};

const OUT_DIR: &str = ".perfbench_out";
/// Untraced/traced probe pairs behind `trace.overhead_frac`.
const PROBE_PAIRS: usize = 3;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count behind a timing, and whether a percentile has at
    /// least ten samples beyond it.
    samples: Option<(usize, Option<bool>)>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    rustc: String,
}

fn usage(why: &str) -> ! {
    eprintln!(
        "rv-perfbench: {why}\nusage: rv-perfbench --workload {} --seed N --seconds S --trace 0|1 --bin-dir DIR --rustc-version V",
        Kind::ALL.map(Kind::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut rustc = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage(&format!("bad seed {value:?}"))),
                )
            }
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => seconds = Some(s),
                _ => usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage(&format!("bad trace {value:?}")),
            },
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--rustc-version" => rustc = Some(value.clone()),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        kind: kind.unwrap_or_else(|| usage("missing --workload")),
        seed: seed.unwrap_or_else(|| usage("missing --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing --seconds")),
        trace: trace.unwrap_or_else(|| usage("missing --trace")),
        bin_dir: bin_dir.unwrap_or_else(|| usage("missing --bin-dir")),
        rustc: rustc.unwrap_or_else(|| usage("missing --rustc-version")),
    }
}

/// Identifies one build of the benchmark and the binaries it drives, so
/// determinism records never compare across builds.
fn build_id(bins: &[&Path]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let exe = std::env::current_exe().unwrap_or_default();
    for path in bins.iter().copied().chain([exe.as_path()]) {
        let stamp = std::fs::metadata(path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
            .unwrap_or(Duration::ZERO);
        for b in stamp.as_nanos().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn timing(name: &'static str, mut v: Vec<f64>, p: Option<f64>, unit: &'static str) -> Metric {
    let count = v.len();
    let (value, ok) = match p {
        None => (median(&mut v), None),
        Some(p) => {
            let (value, ok) = percentile(&mut v, p);
            (value, Some(ok))
        }
    };
    Metric {
        name,
        value,
        unit,
        samples: Some((count, ok)),
    }
}

fn end_to_end(
    ctx: &Ctx,
    plan: &Plan,
    tally: &mut Tally,
    out_dir: &Path,
    build: &str,
) -> Vec<Metric> {
    let (mut rig, setup) = match workload::setup(ctx, plan) {
        Ok(x) => x,
        Err(e) => {
            tally.fail(format!("set-up: {e}"));
            return Vec::new();
        }
    };
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let pass = workload::pass(
        ctx,
        plan,
        &mut rig,
        "u",
        Limit::Until(deadline),
        None,
        tally,
    );
    drop(rig);
    if let Some(key) = pass.keys.first() {
        tally.check(workload::recompute(plan, key));
    }
    if let Some(det) = pass.det {
        tally.check(workload::check_determinism(
            out_dir, build, plan.kind, ctx.seed, det,
        ));
    }
    let rss = if plan.simulates_in_process() {
        sys::self_usage()
    } else {
        sys::children_usage()
    };
    vec![
        timing("setup_s", setup, None, "s"),
        metric(
            "segments_per_s",
            ratio(pass.segments as f64, pass.sim_wall_s),
            "1/s",
        ),
        metric(
            "runs_per_s",
            ratio(pass.runs as f64, pass.sim_wall_s),
            "1/s",
        ),
        metric(
            "records_per_s",
            ratio(pass.records as f64, pass.window_s),
            "1/s",
        ),
        timing("cold_p50_ms", pass.cold_ms.clone(), None, "ms"),
        timing("cold_p90_ms", pass.cold_ms, Some(0.90), "ms"),
        timing("warm_p50_ms", pass.warm_ms.clone(), None, "ms"),
        timing("warm_p95_ms", pass.warm_ms, Some(0.95), "ms"),
        metric("peak_rss_mb", rss.maxrss_mb, "MB"),
    ]
}

fn per_layer(
    ctx: &Ctx,
    plan: &Plan,
    tally: &mut Tally,
    out_dir: &Path,
    build: &str,
) -> Vec<Metric> {
    let (mut rig, _) = match workload::setup(ctx, plan) {
        Ok(x) => x,
        Err(e) => {
            tally.fail(format!("set-up: {e}"));
            return Vec::new();
        }
    };
    let fixed = Limit::Count(plan.fixed);
    // A first pass warms every cache the fixed set touches, so the
    // untraced and traced passes compare like with like.
    let warm = workload::pass(ctx, plan, &mut rig, "w", fixed, None, tally);
    let untraced = workload::pass(ctx, plan, &mut rig, "u", fixed, None, tally);

    let tr = Tracer::new();
    // Fresh connections for the traced pass, so connecting is traced too.
    let addr = rig.server.addr;
    for conn in rig.conns.iter_mut() {
        match tr.span("connect", 0, 0, |root| {
            tr.span("serve.connect", root, 0, |_| serve::Conn::connect(addr))
        }) {
            Ok(c) => *conn = c,
            Err(e) => tally.fail(e),
        }
    }
    let traced = workload::pass(ctx, plan, &mut rig, "t", fixed, Some(&tr), tally);
    drop(rig);

    // The probe runs the same work untraced, then traced, in pairs: the
    // spans behind the layer metrics cost what the two walls differ by
    // (median over the pairs). Only the last traced probe records into
    // `tr`. This process's program cache is filled first, so no probe
    // pays for it.
    workload::walk(rv_core::compiled_aur(), plan.depth());
    let mut overheads = Vec::with_capacity(PROBE_PAIRS);
    let mut probe_segments = Vec::with_capacity(2 * PROBE_PAIRS);
    let mut probe = probe::ProbeOut::default();
    for pair in 0..PROBE_PAIRS {
        let spare = Tracer::new();
        let into = if pair + 1 == PROBE_PAIRS { &tr } else { &spare };
        let t0 = Instant::now();
        let bare = probe::run(plan, &traced.keys, ctx.nproc, None, tally);
        let t1 = Instant::now();
        probe = probe::run(plan, &traced.keys, ctx.nproc, Some(into), tally);
        overheads.push(ratio(t1.elapsed().as_secs_f64(), (t1 - t0).as_secs_f64()) - 1.0);
        probe_segments.extend([bare.segments, probe.segments]);
    }
    probe::lookups(plan, &traced.keys, &ctx.cache_root, &tr, tally, &mut probe);
    let mut materialize = workload::materialize_samples(plan.depth());
    if let Some(key) = traced.keys.first() {
        tally.check(workload::recompute(plan, key));
    }
    match (untraced.det, traced.det) {
        (Some(a), Some(b))
            if a == b && probe_segments.iter().all(|&p| p == b) && warm.det == Some(b) =>
        {
            tally.check(workload::check_determinism(
                out_dir, build, plan.kind, ctx.seed, b,
            ));
        }
        (a, b) => tally.fail(format!(
            "sim.segments of the fixed set differ within one run: untraced {a:?}, traced {b:?}, \
             probes {probe_segments:?}"
        )),
    }
    let spans_path = out_dir.join(format!("spans-{}-seed{}.jsonl", plan.kind.name(), ctx.seed));
    if let Err(e) = tr.write_jsonl(&spans_path) {
        tally.fail(format!("cannot write {}: {e}", spans_path.display()));
    }

    let s = Summary::of(&tr.spans());
    for (layer, ns) in &s.self_ns {
        println!("  self time {layer:<12} {:>10.3} ms", *ns as f64 / 1e6);
    }
    println!("  spans: {}", spans_path.display());
    let sim_ns = ratio(s.total_ns("sim.solve"), probe.segments as f64);
    let traj_ns = ratio(s.total_ns("trajectory.step"), probe.stepped as f64);
    let u = &traced.units;
    vec![
        metric("sim.ns_per_segment", sim_ns, "ns"),
        metric("sim.engine_ns_per_segment", sim_ns - traj_ns, "ns"),
        metric("sim.segments", probe.segments as f64, "count"),
        metric(
            "sim.met_frac",
            ratio(probe.met as f64, probe.runs as f64),
            "ratio",
        ),
        metric(
            "sim.thread_time_share",
            ratio(s.total_ns("sim.solve") / 1e9, untraced.cold_thread_s),
            "ratio",
        ),
        metric("trajectory.ns_per_segment", traj_ns, "ns"),
        metric("trajectory.materialize_s", median(&mut materialize), "s"),
        metric(
            "trajectory.past_cap_frac",
            ratio(probe.past_cap as f64, probe.pulled as f64),
            "ratio",
        ),
        metric("model.generate_ns", s.mean_ns("model.generate"), "ns"),
        metric("batch.distill_ns", s.mean_ns("batch.distill"), "ns"),
        metric("batch.push_ns", s.mean_ns("batch.push"), "ns"),
        metric("batch.merge_ns", s.mean_ns("batch.merge"), "ns"),
        metric("batch.finish_ns", s.mean_ns("batch.finish"), "ns"),
        metric("pool.busy_frac", ratio(u.busy_ns, u.slot_ns), "ratio"),
        metric(
            "pool.tail_wait_s",
            ratio(u.tail_ns, u.execs as f64) / 1e9,
            "s",
        ),
        metric("pool.units", u.units as f64, "count"),
        metric("pool.unit_max_ms", u.unit_max_ns / 1e6, "ms"),
        metric("pool.retried_units", u.retried as f64, "count"),
        metric(
            "wire.encode_record_ns",
            s.mean_ns("wire.encode_record"),
            "ns",
        ),
        metric("wire.decode_line_ns", s.mean_ns("wire.decode_line"), "ns"),
        metric(
            "wire.bytes_per_record",
            ratio(probe.record_bytes as f64, probe.runs as f64),
            "bytes",
        ),
        metric(
            "cache.lookup_ns_per_record",
            ratio(s.total_ns("cache.lookup"), probe.lookup_records as f64),
            "ns",
        ),
        metric(
            "cache.entries",
            workload::cache_entries(&ctx.cache_root) as f64,
            "count",
        ),
        metric("serve.connect_ms", s.median_ns("serve.connect") / 1e6, "ms"),
        metric(
            "serve.first_record_ms",
            s.median_ns("serve.wait_first") / 1e6,
            "ms",
        ),
        metric("serve.stream_ms", s.median_ns("serve.stream") / 1e6, "ms"),
        metric("trace.overhead_frac", median(&mut overheads), "ratio"),
        metric(
            "trace.pass_overhead_frac",
            ratio(traced.window_s, untraced.window_s) - 1.0,
            "ratio",
        ),
        metric("trace.coverage", s.coverage(), "ratio"),
    ]
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

fn main() {
    let args = parse_args();
    let shard_bin = args.bin_dir.join("rv-shard");
    let serve_bin = args.bin_dir.join("rv-serve");
    for bin in [&shard_bin, &serve_bin] {
        if !bin.is_file() {
            eprintln!(
                "rv-perfbench: {} not found (build it first; see perfbench/run.py)",
                bin.display()
            );
            std::process::exit(2);
        }
    }
    let out_dir = PathBuf::from(OUT_DIR);
    let scratch =
        match std::fs::create_dir_all(&out_dir).and_then(|()| sys::ScratchDir::create(&out_dir)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rv-perfbench: cannot create a scratch directory under {OUT_DIR}: {e}");
                std::process::exit(2);
            }
        };
    let nproc = sys::nproc();
    let cpu = sys::cpu_model();
    let build = build_id(&[&shard_bin, &serve_bin]);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        shard_bin,
        serve_bin,
        cache_root: scratch.path().join("cache"),
    };
    let plan = Plan::of(args.kind);
    println!(
        "rv-perfbench: workload={} seed={} seconds={} trace={} nproc={nproc} cpu={cpu:?} rustc={:?}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rustc
    );

    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&ctx, &plan, &mut tally, &out_dir, &build)
    } else {
        end_to_end(&ctx, &plan, &mut tally, &out_dir, &build)
    };
    // Every child is reaped by now; the scratch directory goes next.
    drop(scratch);

    for m in &metrics {
        let samples = match m.samples {
            None => String::new(),
            Some((n, None)) => format!("  ({n} samples, median)"),
            Some((n, Some(ok))) => format!(
                "  ({n} samples, {} samples beyond: {})",
                if ok { ">= 10" } else { "< 10" },
                if ok { "qualifies" } else { "does not qualify" }
            ),
        };
        println!("  {:<28} {:>16} {:<6}{samples}", m.name, m.value, m.unit);
    }
    println!("  fail_frac {}/{} campaigns", tally.failed, tally.attempted);
    for note in &tally.notes {
        eprintln!("rv-perfbench: FAILED: {note}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite && !metrics.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"cpu\": {}, \"rustc\": {}, \"result\": {result}}}\n",
        json_str(args.kind.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cpu),
        json_str(&args.rustc)
    );
    let record_path = out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&record_path, record) {
        eprintln!("rv-perfbench: cannot write {}: {e}", record_path.display());
    }
    println!("{result}");
    std::process::exit(if correct { 0 } else { 1 });
}
