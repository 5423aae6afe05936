//! B7 — the batch-campaign engine: parallel-map overhead and end-to-end
//! campaign throughput (the primitive every sweep and future sharding PR
//! sits on).
//!
//! Unlike the other suites this one has a hand-written `main`: after the
//! criterion groups run it exports `target/BENCH_campaign.json` (median /
//! mean / min ns per iteration for every benchmark), so the perf
//! trajectory of the campaign hot path is machine-readable across PRs.
//! Override the output path with the `BENCH_CAMPAIGN_OUT` environment
//! variable.

use criterion::{black_box, Criterion};
use rv_core::batch::{mix_seed, Campaign, RunRecord};
use rv_core::cache::{CacheKey, CachedExecutor, ResultCache};
use rv_core::exec::{Executor, LocalExecutor, PoolExecutor, SubprocessExecutor, WorkerCommand};
use rv_core::shard::{CampaignSpec, SolverSpec};
use rv_core::{
    almost_universal_rv, json, par_map, wire, Aur, Budget, Dedicated, FixedPair, Solver,
    StatsAccumulator,
};
use rv_geometry::{Angle, Chirality, Vec2};
use rv_model::{Classification, Instance, TargetClass};
use rv_numeric::{ratio, Int, Ratio};
use rv_trajectory::{AgentAttrs, Motion};
use std::path::PathBuf;
use std::sync::Arc;

/// A small type-3 pool (clock mismatch ⇒ AUR meets within a few phases).
fn instances(n: usize) -> Vec<Instance> {
    (0..n)
        .map(|k| {
            Instance::builder()
                .position(
                    &ratio(2, 1) + &(&ratio(1, 4) * &Ratio::from_int((k % 16) as i64)),
                    ratio(1, 2),
                )
                .r(ratio(2, 1))
                .tau(ratio(2, 1))
                .build()
                .unwrap()
        })
        .collect()
}

fn bench_par_map(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_map");
    // Cheap closure: measures the map's own overhead (the old
    // implementation took a global lock per item here).
    let items: Vec<u64> = (0..100_000).collect();
    g.bench_function("cheap_100k", |b| {
        b.iter(|| par_map(&items, |&x| mix_seed(x, 1)))
    });
    // Skewed closure: chunk stealing must keep all cores busy.
    let skewed: Vec<u64> = (0..512).collect();
    g.bench_function("skewed_512", |b| {
        b.iter(|| {
            par_map(&skewed, |&x| {
                let spin = if x % 64 == 0 { 20_000 } else { 500 };
                let mut acc = x;
                for k in 0..spin {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                acc
            })
        })
    });
    g.finish();
}

fn bench_campaign(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);
    let pool = instances(64);
    let budget = Budget::default().segments(50_000);
    g.bench_function("aur_64x50k_auto", |b| {
        let campaign = Campaign::aur(budget.clone());
        b.iter(|| black_box(campaign.run(&pool)).stats.met)
    });
    g.bench_function("aur_64x50k_1thread", |b| {
        let campaign = Campaign::aur(budget.clone()).threads(1);
        b.iter(|| black_box(campaign.run(&pool)).stats.met)
    });
    g.bench_function("dedicated_64x50k_auto", |b| {
        let campaign = Campaign::new(Dedicated, budget.clone());
        b.iter(|| black_box(campaign.run(&pool)).stats.met)
    });
    // Dyn-dispatch sanity: a FixedPair solver through the same engine
    // (the Arc<dyn Solver> indirection must stay noise-level against the
    // simulation cost).
    g.bench_function("stay_put_64_auto", |b| {
        let campaign = Campaign::new(
            FixedPair::symmetric("stay-put", |_| std::iter::empty()),
            budget.clone(),
        );
        b.iter(|| black_box(campaign.run(&pool)).stats.n)
    });
    g.finish();
}

/// Per-layer micro-rows for the solver hot path: the exact-rational
/// primitives (`Ratio` add/mul/cmp, `Int` gcd), the kinematic compiler
/// stepping the real AUR program, one full engine run at campaign budget,
/// and the accumulator fold. Together they show *where* the milliseconds
/// of a `campaign/*` row live, so a perf PR can prove which layer moved.
fn bench_hotpath(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");

    // Mixed operand pool: mostly small rationals (the steady state), plus
    // a few giant-wait-scale values so the big-int paths are represented
    // the way an AUR clock past `2^(15·9)` represents them.
    let vals: Vec<Ratio> = (1..=64i64)
        .map(|k| {
            if k % 8 == 0 {
                &Ratio::pow2(140 + k) + &ratio(k, 3)
            } else {
                ratio(3 * k + 1, (k % 7) + 1)
            }
        })
        .collect();
    g.bench_function("ratio_add_64", |b| {
        b.iter(|| {
            let mut acc = Ratio::zero();
            for v in &vals {
                acc += v;
            }
            black_box(acc)
        })
    });
    g.bench_function("ratio_mul_64", |b| {
        b.iter(|| {
            let mut last = Ratio::zero();
            for v in &vals {
                last = v * v;
            }
            black_box(last)
        })
    });
    g.bench_function("ratio_cmp_64", |b| {
        b.iter(|| {
            let mut below = 0usize;
            for w in vals.windows(2) {
                if w[0] < w[1] {
                    below += 1;
                }
            }
            black_box(below)
        })
    });
    g.bench_function("int_gcd_64", |b| {
        let ints: Vec<Int> = (1..=64i64)
            .map(|k| Int::from(k * 2 * 3 * 5 * 7 * 11 + (k % 5)))
            .collect();
        b.iter(|| {
            let mut acc = Int::from(0i64);
            for w in ints.windows(2) {
                acc = w[0].gcd(&w[1]);
            }
            black_box(acc)
        })
    });

    // The kinematic compiler on the real strategy: step agent B's motion
    // through the first 4096 segments of `AlmostUniversalRV`.
    let inst = instances(1).remove(0);
    g.bench_function("kinematics_4k", |b| {
        let attrs = inst.agent_b();
        b.iter(|| {
            let mut m = Motion::new(attrs.clone(), almost_universal_rv());
            let mut x = 0.0;
            for _ in 0..4096 {
                x = m.next().map_or(x, |s| s.from.x);
            }
            black_box(x)
        })
    });

    // The tick core's two regimes over the shared compiled program, 20k
    // segments each: the reference agent (unit τ, identity frame) and a
    // skewed one whose clock, frame and wake all differ from it.
    let compiled = rv_core::compiled_aur();
    let skewed = AgentAttrs {
        origin: Vec2::new(3.0, 1.0),
        phi: Angle::pi_frac(3, 8),
        chi: Chirality::Minus,
        tau: ratio(7, 5),
        speed: ratio(1, 1),
        wake: ratio(13, 16),
    };
    let _ = compiled.cursor().nth(20_000); // materialize outside the timing
    for (id, attrs) in [
        ("motion_skewed_20k", skewed),
        ("motion_ref_20k", AgentAttrs::reference()),
    ] {
        g.bench_function(id, |b| {
            b.iter(|| {
                let mut m = Motion::new(attrs.clone(), compiled.cursor());
                let mut x = 0.0;
                for _ in 0..20_000 {
                    x = m.next().map_or(x, |s| s.from.x);
                }
                black_box(x)
            })
        });
    }

    // One full engine run at the campaign budget — the unit of work every
    // `campaign/*`, executor, and serve row multiplies.
    let budget = Budget::default().segments(50_000);
    g.bench_function("sim_engine_50k", |b| {
        b.iter(|| black_box(Aur.solve(&inst, &budget)).segments)
    });

    // The accumulator fold: push 4096 synthetic records and finish.
    let records: Vec<RunRecord> = (0..4096u64)
        .map(|i| RunRecord {
            class: Classification::Type3,
            feasible: true,
            met: i % 3 != 0,
            time: (i % 3 != 0).then_some(i as f64 / 7.0),
            segments: i * 13 % 997,
            min_dist: (i % 31) as f64 / 8.0,
            radius: 2.0,
        })
        .collect();
    g.bench_function("stats_push_finish_4k", |b| {
        b.iter(|| {
            let mut acc = StatsAccumulator::new();
            for r in &records {
                acc.push(r);
            }
            black_box(acc.finish()).n
        })
    });
    g.finish();
}

/// The gather half of the cross-process shard protocol: decode the
/// accumulator lines the workers shipped, merge them, finish. Encoding is
/// benched too — it is the per-shard egress cost.
fn bench_shard_gather(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard_gather");
    // Synthetic record stream: 1024 records scattered over 4 shard
    // accumulators, encoded as the wire lines a worker would emit.
    let records: Vec<RunRecord> = (0..1024u64)
        .map(|i| RunRecord {
            class: Classification::Type3,
            feasible: true,
            met: i % 3 != 0,
            time: (i % 3 != 0).then_some(i as f64 / 7.0),
            segments: i * 13 % 997,
            min_dist: (i % 31) as f64 / 8.0,
            radius: 2.0,
        })
        .collect();
    let shard_accs: Vec<StatsAccumulator> = records
        .chunks(records.len() / 4)
        .map(|chunk| {
            let mut acc = StatsAccumulator::new();
            chunk.iter().for_each(|r| acc.push(r));
            acc
        })
        .collect();
    let lines: Vec<String> = shard_accs.iter().map(wire::encode_accumulator).collect();

    g.bench_function("decode_merge_finish_4x256", |b| {
        b.iter(|| {
            let merged = lines
                .iter()
                .map(|l| wire::decode_accumulator(l).expect("bench line"))
                .fold(StatsAccumulator::new(), StatsAccumulator::merge);
            black_box(merged.finish()).n
        })
    });
    g.bench_function("encode_acc_256", |b| {
        b.iter(|| black_box(wire::encode_accumulator(&shard_accs[0])).len())
    });
    g.bench_function("encode_record_line", |b| {
        b.iter(|| black_box(wire::encode_record(512, &records[512])).len())
    });
    g.finish();
}

/// The content-addressed result cache head to head with itself: the cold
/// path (lookup miss + full local run + write-through store) against the
/// warm path (decode + validate + replay, no simulation at all). Both use
/// `CachedExecutor<LocalExecutor>`, so the rows never need a worker
/// binary and the warm/cold ratio the bench guard watches is exactly the
/// replay speedup the cache exists for.
fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.sample_size(10);
    let spec = CampaignSpec::new(
        SolverSpec::Dedicated,
        vec![TargetClass::Type3, TargetClass::S1],
        20_000,
    );
    let (seed, n) = (0xB7, 64);
    let dir = std::env::temp_dir().join(format!("rv-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ResultCache::open(&dir).expect("bench cache dir"));
    let entry = cache.entry_path(CacheKey::derive(&spec, seed, &(0..n)));
    let exec = CachedExecutor::new(LocalExecutor::new(), Arc::clone(&cache));

    // Cold: evict the entry each iteration so every sample pays the
    // miss, the simulation, and the atomic write-through publish.
    g.bench_function("cold_64x20k", |b| {
        b.iter(|| {
            let _ = std::fs::remove_file(&entry);
            black_box(exec.execute(&spec, seed, n, None).expect("cold"))
                .stats
                .met
        })
    });

    // Warm: the last cold iteration left the entry published; every
    // sample replays it byte-identically from disk.
    exec.execute(&spec, seed, n, None).expect("prewarm");
    g.bench_function("warm_64x20k", |b| {
        b.iter(|| {
            black_box(exec.execute(&spec, seed, n, None).expect("warm"))
                .stats
                .met
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Locates a release-built `rv-shard` worker binary: `RV_SHARD_BIN`
/// overrides; otherwise walk up from the bench executable (which lives
/// in `target/release/deps`) looking for a sibling `rv-shard`.
fn locate_rv_shard() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("RV_SHARD_BIN") {
        let path = PathBuf::from(path);
        return path.is_file().then_some(path);
    }
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .skip(1)
        .map(|dir| dir.join("rv-shard"))
        .find(|candidate| candidate.is_file())
}

/// The executor backends head to head on one seeded campaign: the
/// in-process threaded engine vs. the subprocess scatter/gather (spawn +
/// wire round-trip + gather overhead on top of the same simulation
/// work). The subprocess entries need a release `rv-shard` binary
/// (`cargo build --release -p rv-experiments`, or `RV_SHARD_BIN`);
/// without one they are skipped loudly so a missing group in the JSON
/// artifact is explained.
fn bench_exec_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec_backends");
    // Each sample is a full 64-instance campaign (~150ms); 20 samples
    // keep the medians stable enough for the bench-regression guard.
    g.sample_size(20);
    let spec = CampaignSpec::new(
        SolverSpec::Dedicated,
        vec![TargetClass::Type3, TargetClass::S1],
        20_000,
    );
    let (seed, n) = (0xB7, 64);
    g.bench_function("local_64x20k", |b| {
        let exec = LocalExecutor::new();
        b.iter(|| {
            black_box(exec.execute(&spec, seed, n, None).expect("local"))
                .stats
                .met
        })
    });
    match locate_rv_shard() {
        Some(worker) => {
            let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
            for shards in [2usize, 4] {
                // Split the cores across the concurrent workers (as
                // runner::worker_command does), so the comparison against
                // the local backend measures gather overhead rather than
                // a shards-fold oversubscribed CPU.
                let threads = (cores / shards).max(1);
                let exec = SubprocessExecutor::new(
                    WorkerCommand::new(&worker)
                        .arg("worker")
                        .arg("--threads")
                        .arg(threads.to_string()),
                )
                .shards(shards);
                g.bench_function(format!("subprocess_64x20k_{shards}shards"), |b| {
                    b.iter(|| {
                        black_box(exec.execute(&spec, seed, n, None).expect("subprocess"))
                            .stats
                            .met
                    })
                });
            }
            for workers in [2usize, 4] {
                let threads = (cores / workers).max(1);
                // The pool executor lives OUTSIDE b.iter: its persistent
                // sessions survive across iterations, so this measures
                // the steady state the pool exists for — per-campaign
                // wire/gather overhead with the per-shard spawn cost
                // amortized away (the overhead that made 4 one-shot
                // shards *slower* than 2 at this size).
                // A fixed unit size keeps the protocol work identical
                // across worker counts, so the rows compare pool sizes,
                // not unit plans.
                let exec = PoolExecutor::new(
                    WorkerCommand::new(&worker)
                        .arg("worker")
                        .arg("--threads")
                        .arg(threads.to_string()),
                )
                .workers(workers)
                .unit(8);
                // One warmup campaign spawns the sessions, so every
                // sample measures the amortized steady state rather than
                // folding worker startup into the first one.
                exec.execute(&spec, seed, n, None).expect("pool warmup");
                g.bench_function(format!("pool_64x20k_{workers}workers"), |b| {
                    b.iter(|| {
                        black_box(exec.execute(&spec, seed, n, None).expect("pool"))
                            .stats
                            .met
                    })
                });
            }
        }
        None => eprintln!(
            "exec_backends: no rv-shard binary found (RV_SHARD_BIN or a release build); \
             skipping the subprocess entries"
        ),
    }
    g.finish();
}

/// Renders the recorded measurements as the `BENCH_campaign.json`
/// artifact (strict JSON, schema-versioned like the experiment stats).
fn results_json(c: &Criterion) -> String {
    let mut out =
        String::from("{\n  \"schema\": 2,\n  \"bench\": \"campaign\",\n  \"results\": [\n");
    let results = c.results();
    for (k, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}}}",
            json::string(&r.id),
            json::f64(r.median_ns),
            json::f64(r.mean_ns),
            json::f64(r.min_ns)
        ));
        if k + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut criterion = Criterion::default();
    bench_par_map(&mut criterion);
    bench_hotpath(&mut criterion);
    bench_campaign(&mut criterion);
    bench_shard_gather(&mut criterion);
    bench_cache(&mut criterion);
    bench_exec_backends(&mut criterion);

    // Bench binaries run with CWD = the package dir; anchor the default
    // to the *workspace* target dir so the artifact has a stable home.
    let out = std::env::var("BENCH_CAMPAIGN_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../target/BENCH_campaign.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out, results_json(&criterion)) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}
