//! The four workloads, their set-up, and the timed cycle loops.
//!
//! Every workload runs the same loop shape so that every end-to-end
//! metric has samples on every workload: a *cold* campaign computed by
//! the workload's executor, then *warm* replays of earlier keys of the
//! same stream, answered from the result cache by a spawned `rv-serve`.
//! On `exhaust`, `deep` and `sweep_pool` the cold campaign runs in this
//! process (`LocalExecutor`) or on `rv-shard` workers (`PoolExecutor`)
//! and the benchmark publishes it with `ResultCache::store`; on
//! `served_replay` both cold and warm campaigns go through the server.

use crate::serve::{Conn, Served, Server};
use crate::sys;
use crate::trace::{traced, Tracer};
use rv_core::batch::{mix_seed, CampaignReport, RunRecord, StatsAccumulator};
use rv_core::cache::ResultCache;
use rv_core::exec::{ExecError, Executor, LocalExecutor, PoolExecutor, WorkerCommand};
use rv_core::shard::{CampaignRequest, CampaignSpec, SolverSpec, TransportSpec, UnitTelemetry};
use rv_core::{compiled_aur, wire, RecordSink};
use rv_model::TargetClass;
use rv_trajectory::CompiledProgram;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Exhaust,
    Deep,
    SweepPool,
    ServedReplay,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Exhaust,
        Kind::Deep,
        Kind::SweepPool,
        Kind::ServedReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Exhaust => "exhaust",
            Kind::Deep => "deep",
            Kind::SweepPool => "sweep_pool",
            Kind::ServedReplay => "served_replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_SAMPLES: usize = 9;
/// Fresh materializations behind `trajectory.materialize_s`.
const MATERIALIZE_SAMPLES: usize = 3;
/// The compiled-program cache cap, `rv_trajectory`'s `MAX_MATERIALIZED`
/// (not re-exported); past it a cursor replays a fallback generator.
const PROGRAM_CACHE_CAP: usize = 262_144;

/// What one workload runs.
pub struct Plan {
    pub kind: Kind,
    pub spec: CampaignSpec,
    /// Campaign sizes, cycled key by key. Three sizes around the nominal
    /// one keep every percentile inside a mode of its distribution
    /// rather than on the edge of the tail. A workload whose cold
    /// percentiles need many campaigns per run uses one size.
    sizes: [usize; 3],
    /// Warm replays after each cold campaign.
    replays: usize,
    /// Cold campaigns (per client on `served_replay`) in the fixed set
    /// that the traced run and the determinism check cover.
    pub fixed: usize,
}

impl Plan {
    pub fn of(kind: Kind) -> Plan {
        use TargetClass::*;
        let aur = |classes: Vec<TargetClass>, segments| {
            CampaignSpec::new(SolverSpec::Aur, classes, segments)
        };
        match kind {
            Kind::Exhaust => Plan {
                kind,
                spec: aur(vec![S1, S2, InfeasibleShift, InfeasibleMirror], 200_000),
                sizes: [8, 16, 24],
                replays: 64,
                fixed: 2,
            },
            Kind::Deep => Plan {
                kind,
                spec: aur(vec![InfeasibleShift, InfeasibleMirror], 1_000_000),
                // Fixed: with four 5 s campaigns per run, three sizes
                // would put the cold median on a mode boundary.
                sizes: [4, 4, 4],
                replays: 128,
                fixed: 1,
            },
            Kind::SweepPool => Plan {
                kind,
                spec: aur(TargetClass::all().to_vec(), 20_000),
                // Fixed and small: a run holds a few hundred cold
                // campaigns, so the cold percentiles rest on well over
                // a hundred samples.
                sizes: [32, 32, 32],
                replays: 16,
                fixed: 8,
            },
            Kind::ServedReplay => Plan {
                kind,
                spec: aur(TargetClass::all().to_vec(), 2_000),
                sizes: [16, 64, 256],
                replays: 3,
                fixed: 12,
            },
        }
    }

    fn n_for(&self, k: usize) -> usize {
        self.sizes[k % self.sizes.len()]
    }

    /// Instructions of the compiled AUR program a run can reach: the
    /// depth set-up materializes.
    pub fn depth(&self) -> usize {
        usize::try_from(self.spec.segments)
            .unwrap_or(usize::MAX)
            .min(PROGRAM_CACHE_CAP)
    }

    /// Whether the simulation runs in this process (peak RSS is then this
    /// process's; otherwise the largest child's).
    pub fn simulates_in_process(&self) -> bool {
        matches!(self.kind, Kind::Exhaust | Kind::Deep)
    }
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub shard_bin: PathBuf,
    pub serve_bin: PathBuf,
    pub cache_root: PathBuf,
}

/// Campaigns attempted and failed (errors, refusals and wrong answers).
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    pub fn check(&mut self, r: Result<(), String>) {
        match r {
            Ok(()) => self.ok(),
            Err(e) => self.fail(e),
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 20 {
                self.notes.push(n);
            }
        }
    }
}

/// A campaign's answer in canonical form: record lines sorted by index,
/// then the `campaign_report` line. Two answers are equal iff their
/// bytes are.
pub struct Answer {
    pub canon: String,
    pub segments: u64,
}

pub fn canonical(mut lines: Vec<(usize, String)>, report: &str) -> String {
    lines.sort_by_key(|(i, _)| *i);
    let mut out = String::new();
    for (_, line) in &lines {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(report);
    out
}

/// Theorem 3.1: an infeasible instance never meets.
fn check_theorem<'a>(records: impl Iterator<Item = &'a RunRecord>) -> Result<(), String> {
    match records.filter(|r| !r.feasible && r.met).count() {
        0 => Ok(()),
        bad => Err(format!("{bad} infeasible run(s) met (Theorem 3.1)")),
    }
}

fn answer_of(records: &[(usize, RunRecord)], lines: Vec<(usize, String)>, report: &str) -> Answer {
    Answer {
        canon: canonical(lines, report),
        segments: records.iter().map(|(_, r)| r.segments).sum(),
    }
}

/// Checks an in-process executor's answer: every index delivered to the
/// sink exactly once, `stats.n == n`, Theorem 3.1.
fn answer_from_report(
    report: &CampaignReport,
    n: usize,
    sink: &ArrivalSink,
) -> Result<Answer, String> {
    if sink.out_of_range.load(Ordering::Relaxed) != 0 {
        return Err(format!("record index outside 0..{n}"));
    }
    if let Some((i, c)) = sink
        .seen
        .iter()
        .enumerate()
        .find(|(_, c)| c.load(Ordering::Relaxed) != 1)
    {
        return Err(format!(
            "index {i} delivered {} times",
            c.load(Ordering::Relaxed)
        ));
    }
    if report.stats.n != n || report.records.len() != n {
        return Err(format!(
            "stats.n = {} and {} records for n = {n}",
            report.stats.n,
            report.records.len()
        ));
    }
    check_theorem(report.records.iter())?;
    let records: Vec<(usize, RunRecord)> = report.records.iter().cloned().enumerate().collect();
    let lines = records
        .iter()
        .map(|(i, r)| (*i, wire::encode_record(*i, r)))
        .collect();
    Ok(answer_of(
        &records,
        lines,
        &wire::encode_campaign_report(&report.stats),
    ))
}

/// Checks a served answer: indices `0..n` exactly once, `stats.n == n`,
/// Theorem 3.1.
pub fn answer_from_served(s: &Served, n: usize) -> Result<Answer, String> {
    let mut seen = vec![0u32; n];
    for (i, _) in &s.lines {
        match seen.get_mut(*i) {
            Some(c) => *c += 1,
            None => return Err(format!("index {i} outside 0..{n}")),
        }
    }
    if let Some(i) = seen.iter().position(|&c| c != 1) {
        return Err(format!("index {i} delivered {} times", seen[i]));
    }
    if s.stats_n != n {
        return Err(format!("stats.n = {} for n = {n}", s.stats_n));
    }
    check_theorem(s.records.iter().map(|(_, r)| r))?;
    Ok(answer_of(&s.records, s.lines.clone(), &s.report))
}

/// Counts deliveries per index and stamps each with the delivering
/// thread — one thread per executor slot (a `LocalExecutor` worker or a
/// `PoolExecutor` drain thread).
struct ArrivalSink {
    seen: Vec<AtomicU32>,
    arrivals: Mutex<Vec<(ThreadId, Instant)>>,
    out_of_range: AtomicU32,
}

impl ArrivalSink {
    fn new(n: usize) -> ArrivalSink {
        ArrivalSink {
            seen: (0..n).map(|_| AtomicU32::new(0)).collect(),
            arrivals: Mutex::new(Vec::with_capacity(n)),
            out_of_range: AtomicU32::new(0),
        }
    }

    /// Arrival times grouped by slot, each group in time order.
    fn streams(&self) -> Vec<Vec<Instant>> {
        let mut by_thread: HashMap<ThreadId, Vec<Instant>> = HashMap::new();
        let arrivals = self.arrivals.lock().expect("arrival lock poisoned");
        for (t, at) in arrivals.iter() {
            by_thread.entry(*t).or_default().push(*at);
        }
        by_thread
            .into_values()
            .map(|mut v| {
                v.sort();
                v
            })
            .collect()
    }
}

impl RecordSink for ArrivalSink {
    fn record(&self, index: usize, _rec: &RunRecord) {
        match self.seen.get(index) {
            Some(c) => {
                c.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.out_of_range.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Ok(mut a) = self.arrivals.lock() {
            a.push((std::thread::current().id(), Instant::now()));
        }
    }
}

/// The executor layer's work units, folded over cold campaigns: pool
/// units on `sweep_pool` (from `take_worker_telemetry`), single runs on
/// the `LocalExecutor` workloads and single records on `served_replay`
/// (timed from record arrivals per slot).
#[derive(Default)]
pub struct Units {
    pub units: usize,
    pub busy_ns: f64,
    pub slot_ns: f64,
    pub tail_ns: f64,
    pub execs: usize,
    pub unit_max_ns: f64,
    pub retried: usize,
}

fn ns(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64
}

impl Units {
    /// Tail wait: from the first slot running out of work to the end.
    fn add_tail(&mut self, end: Instant, streams: &[Vec<Instant>]) {
        if let Some(idle) = streams.iter().filter_map(|s| s.last()).min() {
            self.tail_ns += ns(*idle, end);
        }
        self.execs += 1;
    }

    fn add_arrivals(
        &mut self,
        start: Instant,
        end: Instant,
        slots: usize,
        streams: &[Vec<Instant>],
    ) {
        for s in streams {
            let mut prev = start;
            for &at in s {
                self.unit_max_ns = self.unit_max_ns.max(ns(prev, at));
                prev = at;
            }
            self.units += s.len();
            self.busy_ns += ns(start, prev);
        }
        self.slot_ns += slots as f64 * ns(start, end);
        self.add_tail(end, streams);
    }

    fn add_pool(
        &mut self,
        start: Instant,
        end: Instant,
        workers: usize,
        tel: &[(usize, UnitTelemetry)],
        streams: &[Vec<Instant>],
    ) {
        self.units += tel.len();
        for (_, t) in tel {
            self.busy_ns += t.wall_ns as f64;
            self.unit_max_ns = self.unit_max_ns.max(t.wall_ns as f64);
        }
        self.retried += tel.iter().filter(|(_, t)| t.attempt > 0).count();
        self.slot_ns += workers as f64 * ns(start, end);
        self.add_tail(end, streams);
    }
}

/// A cold campaign of the fixed set, kept for the traced probe.
pub struct Key {
    pub campaign: u64,
    pub seed: u64,
    pub n: usize,
    pub slot: String,
    pub canon: String,
}

/// What one pass of the cycle loop measured.
#[derive(Default)]
pub struct Pass {
    pub cold_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    /// Wall time of the phases that simulate: Σ cold campaign wall on
    /// the in-process and pool workloads, the whole window on
    /// `served_replay` (its clients interleave cold and warm requests).
    pub sim_wall_s: f64,
    pub window_s: f64,
    pub segments: u64,
    pub runs: usize,
    pub records: usize,
    /// Thread time of the cold campaigns: process CPU time in process,
    /// Σ unit wall on pool workers, Σ cold latency when served.
    pub cold_thread_s: f64,
    /// Σ segments of the fixed set, when the pass covered all of it.
    pub det: Option<u64>,
    pub keys: Vec<Key>,
    pub units: Units,
}

impl Pass {
    fn absorb(&mut self, o: Pass) {
        self.cold_ms.extend(o.cold_ms);
        self.warm_ms.extend(o.warm_ms);
        self.segments += o.segments;
        self.runs += o.runs;
        self.records += o.records;
        self.cold_thread_s += o.cold_thread_s;
        self.det = match (self.det, o.det) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
        self.keys.extend(o.keys);
        let u = o.units;
        self.units.units += u.units;
        self.units.busy_ns += u.busy_ns;
        self.units.slot_ns += u.slot_ns;
        self.units.tail_ns += u.tail_ns;
        self.units.execs += u.execs;
        self.units.unit_max_ns = self.units.unit_max_ns.max(u.unit_max_ns);
        self.units.retried += u.retried;
    }
}

#[derive(Clone, Copy)]
pub enum Limit {
    Until(Instant),
    Count(usize),
}

impl Limit {
    /// Whether cycle `k` should start, `start` being when cycle 0 did. The
    /// first always does; under a deadline a later one starts if at least
    /// half a cycle of the mean length so far fits, so runs end close to
    /// the deadline on either side.
    fn more(self, k: usize, start: Instant) -> bool {
        match self {
            Limit::Until(deadline) => {
                let now = Instant::now();
                k == 0 || now + now.saturating_duration_since(start) / (2 * k as u32) <= deadline
            }
            Limit::Count(c) => k < c,
        }
    }
}

/// Seed of cold key `k` of stream `stream` (0 for the in-process and
/// pool workloads, `1 + client` on `served_replay`).
fn key_seed(seed: u64, stream: u64, k: usize) -> u64 {
    mix_seed(mix_seed(seed, stream), k as u64)
}

/// Which earlier key (of `keys`) warm replay `r` after cold key `k` repeats.
fn pick(seed: u64, stream: u64, k: usize, r: usize, keys: usize) -> usize {
    let draw = mix_seed(mix_seed(seed ^ 0x5741_524d, stream), (k * 1024 + r) as u64);
    (draw % keys as u64) as usize
}

fn cached_request(n: usize, slot: &str) -> CampaignRequest {
    CampaignRequest {
        n,
        transport: TransportSpec::Local,
        workers: 0,
        unit: 0,
        retries: 0,
        cache: Some(slot.to_string()),
    }
}

pub enum Exec {
    Local(LocalExecutor),
    Pool { pool: PoolExecutor, workers: usize },
}

impl Exec {
    fn execute(
        &self,
        spec: &CampaignSpec,
        seed: u64,
        n: usize,
        sink: Arc<dyn RecordSink>,
    ) -> Result<CampaignReport, ExecError> {
        match self {
            Exec::Local(e) => e.execute(spec, seed, n, Some(sink)),
            Exec::Pool { pool, .. } => pool.execute(spec, seed, n, Some(sink)),
        }
    }
}

/// The processes and connections a workload keeps for its timed window.
pub struct Rig {
    // Field order is drop order: connections close, the pool's workers
    // are killed and reaped, then the server.
    pub conns: Vec<Conn>,
    pub exec: Option<Exec>,
    pub server: Server,
}

/// Pulls the first `depth` instructions of `program`, materializing them.
pub fn walk(program: &CompiledProgram, depth: usize) {
    let mut cursor = program.cursor();
    for _ in 0..depth {
        if std::hint::black_box(cursor.next()).is_none() {
            break;
        }
    }
}

/// A fresh copy of the AUR program, materialized to `depth`; returns
/// the time it took.
pub fn materialize_fresh(depth: usize) -> f64 {
    let t0 = Instant::now();
    let program = CompiledProgram::new(|| Box::new(rv_core::almost_universal_rv()));
    walk(&program, depth);
    let secs = t0.elapsed().as_secs_f64();
    drop(program);
    secs
}

pub fn materialize_samples(depth: usize) -> Vec<f64> {
    (0..MATERIALIZE_SAMPLES)
        .map(|_| materialize_fresh(depth))
        .collect()
}

/// Everything until the first timed operation can start, repeated
/// [`SETUP_SAMPLES`] times (only the last rig is kept): materializing
/// the AUR program to the workload's depth in the process that
/// simulates, spawning `rv-serve` until it listens, connecting, and on
/// `sweep_pool` spawning the pool and opening its worker sessions.
pub fn setup(ctx: &Ctx, plan: &Plan) -> Result<(Rig, Vec<f64>), String> {
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    let mut rig: Option<Rig> = None;
    for s in 0..SETUP_SAMPLES {
        drop(rig.take());
        let warm_seed = key_seed(ctx.seed, u64::MAX, s);
        // Warm-up campaigns run instances that use up their budget, so
        // the program cache of the process that simulates reaches the
        // workload's depth before the window opens.
        let warm_spec = CampaignSpec::new(
            SolverSpec::Aur,
            vec![TargetClass::InfeasibleShift],
            plan.spec.segments,
        );
        let t0 = Instant::now();
        let mut fresh = None;
        let exec = match plan.kind {
            Kind::Exhaust | Kind::Deep => {
                // The first sample fills the process-wide program the
                // timed campaigns replay; later samples repeat the same
                // work on a private copy.
                if s == 0 {
                    walk(compiled_aur(), plan.depth());
                } else {
                    let p = CompiledProgram::new(|| Box::new(rv_core::almost_universal_rv()));
                    walk(&p, plan.depth());
                    fresh = Some(p);
                }
                Some(Exec::Local(LocalExecutor::new().threads(ctx.nproc)))
            }
            Kind::SweepPool => {
                let worker = WorkerCommand::new(&ctx.shard_bin)
                    .arg("worker")
                    .arg("--threads")
                    .arg("1");
                let pool = PoolExecutor::new(worker).workers(ctx.nproc).retries(1);
                // Spawns every worker, opens its session and warms its
                // program cache.
                pool.execute(&warm_spec, warm_seed, 2 * ctx.nproc, None)
                    .map_err(|e| format!("pool warm-up: {e}"))?;
                let _ = pool.take_worker_telemetry();
                Some(Exec::Pool {
                    pool,
                    workers: ctx.nproc,
                })
            }
            Kind::ServedReplay => None,
        };
        let server = Server::spawn(&ctx.serve_bin, &ctx.cache_root)?;
        let mut conns = (0..ctx.nproc)
            .map(|_| Conn::connect(server.addr))
            .collect::<Result<Vec<_>, _>>()?;
        if plan.kind == Kind::ServedReplay {
            // One uncached campaign: the server's first compute path and
            // program cache are warm before the window opens.
            let req = CampaignRequest {
                cache: None,
                ..cached_request(ctx.nproc, "")
            };
            let served = conns[0].run(&warm_spec, warm_seed, &req, None, 0, 0)?;
            answer_from_served(&served, ctx.nproc)?;
        }
        samples.push(t0.elapsed().as_secs_f64());
        drop(fresh);
        rig = Some(Rig {
            conns,
            exec,
            server,
        });
    }
    let rig = rig.ok_or("no set-up sample ran")?;
    Ok((rig, samples))
}

/// One stream of cold keys and its bookkeeping, shared by both cycle
/// loops: the checked cold answers in key order (`None` for a failed
/// campaign), the fixed set, and the warm replays of earlier keys.
struct Stream<'a> {
    seed: u64,
    /// 0 for the in-process and pool workloads, `1 + client` on
    /// `served_replay`.
    id: u64,
    slot: &'a str,
    answers: Vec<Option<(u64, usize, String)>>,
    det: u64,
}

impl<'a> Stream<'a> {
    fn new(seed: u64, id: u64, slot: &'a str) -> Stream<'a> {
        Stream {
            seed,
            id,
            slot,
            answers: Vec::new(),
            det: 0,
        }
    }

    fn campaign(&self, k: usize) -> u64 {
        (self.id << 32) | k as u64
    }

    fn key_seed(&self, k: usize) -> u64 {
        key_seed(self.seed, self.id, k)
    }

    /// Books cold key `k`'s checked answer, which took `lat_ns`.
    fn cold_done(
        &mut self,
        plan: &Plan,
        k: usize,
        a: Answer,
        lat_ns: f64,
        pass: &mut Pass,
        tally: &mut Tally,
    ) {
        let (seed, n) = (self.key_seed(k), plan.n_for(k));
        tally.ok();
        pass.cold_ms.push(lat_ns / 1e6);
        pass.segments += a.segments;
        pass.runs += n;
        pass.records += n;
        if k < plan.fixed {
            self.det += a.segments;
            pass.keys.push(Key {
                campaign: self.campaign(k),
                seed,
                n,
                slot: self.slot.to_string(),
                canon: a.canon.clone(),
            });
        }
        self.answers.push(Some((seed, n, a.canon)));
    }

    fn cold_failed(&mut self, k: usize, e: String, tally: &mut Tally) {
        tally.fail(format!("cold campaign {}: {e}", self.campaign(k)));
        self.answers.push(None);
    }

    /// Σ segments of the fixed set, once `keys` cold keys covered it.
    fn det(&self, plan: &Plan, keys: usize) -> Option<u64> {
        (keys >= plan.fixed).then_some(self.det)
    }

    /// Warm replays `rs` after cold key `k` over `conn`. Each repeats an
    /// earlier key drawn from the seed, from the stream's cache slot, and
    /// must match that key's cold answer byte for byte.
    #[allow(clippy::too_many_arguments)]
    fn replays(
        &self,
        plan: &Plan,
        conn: &mut Conn,
        k: usize,
        rs: impl Iterator<Item = usize>,
        tr: Option<&Tracer>,
        root: u32,
        pass: &mut Pass,
        tally: &mut Tally,
    ) {
        for r in rs {
            let j = pick(self.seed, self.id, k, r, self.answers.len());
            let Some((seed, n, want)) = &self.answers[j] else {
                continue;
            };
            let (seed, n, campaign) = (*seed, *n, self.campaign(j));
            let req = cached_request(n, self.slot);
            let served = traced(tr, "serve.campaign", root, campaign, |id| {
                conn.run(&plan.spec, seed, &req, tr, id, campaign)
            });
            match served.and_then(|s| answer_from_served(&s, n).map(|a| (s, a))) {
                Ok((s, a)) if a.canon == *want => {
                    pass.warm_ms.push(ns(s.sent, s.done) / 1e6);
                    pass.records += n;
                    tally.ok();
                }
                Ok(_) => tally.fail(format!(
                    "warm replay of campaign {campaign} differs from its cold answer"
                )),
                Err(e) => tally.fail(format!("warm replay of campaign {campaign}: {e}")),
            }
        }
    }
}

/// One pass of the in-process / pool cycle loop.
#[allow(clippy::too_many_arguments)]
pub fn local_pass(
    ctx: &Ctx,
    plan: &Plan,
    exec: &Exec,
    conns: &mut [Conn],
    slot: &str,
    limit: Limit,
    tr: Option<&Tracer>,
    tally: &mut Tally,
) -> Pass {
    let mut pass = Pass::default();
    let cache = match ResultCache::open(ctx.cache_root.join(slot)) {
        Ok(c) => c,
        Err(e) => {
            tally.fail(format!("cannot open cache slot {slot}: {e}"));
            return pass;
        }
    };
    let start = Instant::now();
    let mut stream = Stream::new(ctx.seed, 0, slot);
    let mut k = 0;
    while limit.more(k, start) {
        let n = plan.n_for(k);
        let seed = stream.key_seed(k);
        let campaign = stream.campaign(k);
        traced(tr, "cycle", 0, campaign, |root| {
            let sink = Arc::new(ArrivalSink::new(n));
            let cpu0 = sys::self_usage().cpu_s;
            let t0 = Instant::now();
            let result = traced(tr, "exec.execute", root, campaign, |_| {
                exec.execute(&plan.spec, seed, n, sink.clone())
            });
            let t1 = Instant::now();
            let cpu = sys::self_usage().cpu_s - cpu0;
            let answer = result
                .map_err(|e| e.to_string())
                .and_then(|report| answer_from_report(&report, n, &sink).map(|a| (report, a)));
            let (report, a) = match answer {
                Ok(ok) => ok,
                Err(e) => return stream.cold_failed(k, e, tally),
            };
            pass.sim_wall_s += ns(t0, t1) / 1e9;
            let streams = sink.streams();
            match exec {
                Exec::Local(_) => {
                    pass.cold_thread_s += cpu;
                    pass.units.add_arrivals(t0, t1, ctx.nproc.min(n), &streams);
                }
                Exec::Pool { pool, workers } => {
                    let tel = pool.take_worker_telemetry();
                    pass.cold_thread_s +=
                        tel.iter().map(|(_, t)| t.wall_ns as f64).sum::<f64>() / 1e9;
                    pass.units.add_pool(t0, t1, *workers, &tel, &streams);
                }
            }
            let mut acc = StatsAccumulator::new();
            let pairs: Vec<(usize, RunRecord)> =
                report.records.iter().cloned().enumerate().collect();
            for (_, r) in &pairs {
                acc.push(r);
            }
            if let Err(e) = traced(tr, "cache.store", root, campaign, |_| {
                cache.store(&plan.spec, seed, &(0..n), &pairs, &acc)
            }) {
                tally.fail(format!("cannot publish campaign {campaign}: {e}"));
            }
            stream.cold_done(plan, k, a, ns(t0, t1), &mut pass, tally);
        });
        // Warm phase: every connection is a client replaying its share of
        // earlier keys, all at once, as on `served_replay`. Each client
        // thread is its own root span.
        let stream = &stream;
        let clients = conns.len();
        let replayed: Vec<(Pass, Tally)> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    scope.spawn(move || {
                        traced(tr, "replay", 0, campaign, |root| {
                            let (mut p, mut t) = (Pass::default(), Tally::default());
                            let rs = (c..plan.replays).step_by(clients);
                            stream.replays(plan, conn, k, rs, tr, root, &mut p, &mut t);
                            (p, t)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay client panicked"))
                .collect()
        });
        for (p, t) in replayed {
            pass.warm_ms.extend(p.warm_ms);
            pass.records += p.records;
            tally.absorb(t);
        }
        k += 1;
    }
    pass.window_s = start.elapsed().as_secs_f64();
    pass.det = stream.det(plan, k);
    pass
}

/// One client of `served_replay`: a closed loop of one new campaign
/// (cache miss: simulate and store) then three replays of earlier keys.
fn client_loop(
    ctx: &Ctx,
    plan: &Plan,
    client: usize,
    conn: &mut Conn,
    slot: &str,
    limit: Limit,
    tr: Option<&Tracer>,
) -> (Pass, Tally) {
    let mut pass = Pass::default();
    let mut tally = Tally::default();
    let mut stream = Stream::new(ctx.seed, 1 + client as u64, slot);
    let mut g = 0;
    let start = Instant::now();
    while limit.more(g, start) {
        let n = plan.n_for(g);
        let seed = stream.key_seed(g);
        let campaign = stream.campaign(g);
        traced(tr, "cycle", 0, campaign, |root| {
            let req = cached_request(n, slot);
            let served = traced(tr, "serve.campaign", root, campaign, |id| {
                conn.run(&plan.spec, seed, &req, tr, id, campaign)
            });
            match served.and_then(|s| answer_from_served(&s, n).map(|a| (s, a))) {
                Ok((s, a)) => {
                    let lat = ns(s.sent, s.done);
                    pass.cold_thread_s += lat / 1e9;
                    pass.units
                        .add_arrivals(s.sent, s.done, 1, std::slice::from_ref(&s.arrivals));
                    stream.cold_done(plan, g, a, lat, &mut pass, &mut tally);
                }
                Err(e) => stream.cold_failed(g, e, &mut tally),
            }
            stream.replays(
                plan,
                conn,
                g,
                0..plan.replays,
                tr,
                root,
                &mut pass,
                &mut tally,
            );
        });
        g += 1;
    }
    pass.det = stream.det(plan, g);
    (pass, tally)
}

/// One pass of `served_replay`: every connection runs its own client
/// loop concurrently, each naming its own cache slot.
pub fn served_pass(
    ctx: &Ctx,
    plan: &Plan,
    conns: &mut [Conn],
    prefix: &str,
    limit: Limit,
    tr: Option<&Tracer>,
    tally: &mut Tally,
) -> Pass {
    let start = Instant::now();
    let results: Vec<(Pass, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(j, conn)| {
                let slot = format!("{prefix}c{j}");
                scope.spawn(move || client_loop(ctx, plan, j, conn, &slot, limit, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut pass = Pass {
        det: Some(0),
        ..Pass::default()
    };
    for (p, t) in results {
        pass.absorb(p);
        tally.absorb(t);
    }
    pass.window_s = start.elapsed().as_secs_f64();
    pass.sim_wall_s = pass.window_s;
    pass
}

/// Runs one pass of the workload's cycle loop on `rig`.
pub fn pass(
    ctx: &Ctx,
    plan: &Plan,
    rig: &mut Rig,
    prefix: &str,
    limit: Limit,
    tr: Option<&Tracer>,
    tally: &mut Tally,
) -> Pass {
    match &rig.exec {
        Some(exec) => local_pass(ctx, plan, exec, &mut rig.conns, prefix, limit, tr, tally),
        None => served_pass(ctx, plan, &mut rig.conns, prefix, limit, tr, tally),
    }
}

/// Recomputes `key` with `CampaignSpec::run_local`, outside any timed
/// window, and compares it byte for byte.
pub fn recompute(plan: &Plan, key: &Key) -> Result<(), String> {
    let report = plan.spec.run_local(key.seed, key.n);
    let lines = report
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| (i, wire::encode_record(i, r)))
        .collect();
    let canon = canonical(lines, &wire::encode_campaign_report(&report.stats));
    if canon == key.canon {
        Ok(())
    } else {
        Err(format!(
            "campaign {} differs from CampaignSpec::run_local",
            key.campaign
        ))
    }
}

/// `sim.segments` of the fixed set must repeat exactly across runs of
/// one build with one seed: the first run records it under `out_dir`,
/// later runs compare.
pub fn check_determinism(
    out_dir: &Path,
    build: &str,
    kind: Kind,
    seed: u64,
    det: u64,
) -> Result<(), String> {
    let path = out_dir.join(format!("segments-{}-{build}-seed{seed}.txt", kind.name()));
    match std::fs::read_to_string(&path) {
        Ok(text) => match text.trim().parse::<u64>() {
            Ok(prev) if prev == det => Ok(()),
            _ => Err(format!(
                "sim.segments {det} differs from an earlier run with seed {seed} ({})",
                text.trim()
            )),
        },
        Err(_) => std::fs::write(&path, det.to_string())
            .map_err(|e| format!("cannot record {}: {e}", path.display())),
    }
}

/// Files published in the cache root (all slots), temporaries excluded.
pub fn cache_entries(root: &Path) -> usize {
    let Ok(slots) = std::fs::read_dir(root) else {
        return 0;
    };
    slots
        .flatten()
        .filter_map(|slot| std::fs::read_dir(slot.path()).ok())
        .flat_map(|dir| dir.flatten())
        .filter(|e| !e.file_name().to_string_lossy().starts_with('.'))
        .count()
}
