//! The traced layer breakdown: the fixed set's cold runs, re-executed in
//! this process through each layer's public calls with a span around
//! every call, and checked byte for byte against the answers the
//! workload's own executor delivered.

use crate::trace::{traced, Tracer};
use crate::workload::{canonical, Key, Plan, Tally};
use rv_core::batch::{RunRecord, StatsAccumulator};
use rv_core::cache::ResultCache;
use rv_core::wire::{self, Line};
use rv_core::{compiled_aur, Aur, Solver};
use rv_model::Instance;
use rv_trajectory::{Cursor, Instr, Motion};
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts the instructions a cursor hands out.
struct Counted<'a, 'c> {
    inner: Cursor<'a>,
    pulled: &'c Cell<u64>,
}

impl Iterator for Counted<'_, '_> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        let instr = self.inner.next();
        if instr.is_some() {
            self.pulled.set(self.pulled.get() + 1);
        }
        instr
    }
}

#[derive(Default)]
pub struct ProbeOut {
    pub runs: usize,
    pub met: usize,
    pub segments: u64,
    /// Motion segments stepped by the trajectory probe.
    pub stepped: u64,
    /// Program instructions those steps pulled, and how many of them lay
    /// past the program cache (replayed by the fallback generator).
    pub pulled: u64,
    pub past_cap: u64,
    pub record_bytes: u64,
    pub lookup_records: usize,
}

#[derive(Default)]
struct ThreadOut {
    accs: Vec<StatsAccumulator>,
    lines: Vec<Vec<(usize, String)>>,
    /// Instructions each stepped agent pulled.
    pulls: Vec<u64>,
    out: ProbeOut,
    errors: Vec<String>,
}

/// Steps both agents' `Motion` over the compiled AUR program for
/// `per_agent` segments each.
fn step_motions(inst: &Instance, per_agent: u64, out: &mut ProbeOut, pulls: &mut Vec<u64>) {
    for attrs in [inst.agent_a(), inst.agent_b()] {
        let pulled = Cell::new(0);
        let program = Counted {
            inner: compiled_aur().cursor(),
            pulled: &pulled,
        };
        let mut motion = Motion::new(attrs, program);
        let mut stepped = 0;
        while stepped < per_agent {
            match motion.next() {
                Some(seg) => {
                    std::hint::black_box(seg);
                    stepped += 1;
                }
                None => break,
            }
        }
        out.stepped += stepped;
        out.pulled += pulled.get();
        pulls.push(pulled.get());
    }
}

/// Runs the probe over `keys` on `threads` threads, with a span around
/// every layer call when `tr` is given. The same work runs untraced to
/// measure what the spans cost.
pub fn run(
    plan: &Plan,
    keys: &[Key],
    threads: usize,
    tr: Option<&Tracer>,
    tally: &mut Tally,
) -> ProbeOut {
    let items: Vec<(usize, usize)> = keys
        .iter()
        .enumerate()
        .flat_map(|(ki, k)| (0..k.n).map(move |i| (ki, i)))
        .collect();
    let next = AtomicUsize::new(0);
    let budget = plan.spec.budget();
    let per_thread: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.clamp(1, items.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    traced(tr, "probe.thread", 0, 0, |root| {
                        let mut t = ThreadOut {
                            accs: keys.iter().map(|_| StatsAccumulator::new()).collect(),
                            lines: keys.iter().map(|_| Vec::new()).collect(),
                            ..ThreadOut::default()
                        };
                        while let Some(&(ki, i)) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let key = &keys[ki];
                            let c = key.campaign;
                            let inst = traced(tr, "model.generate", root, c, |_| {
                                plan.spec.instance(key.seed, i)
                            });
                            let report =
                                traced(tr, "sim.solve", root, c, |_| Aur.solve(&inst, &budget));
                            let rec = traced(tr, "batch.distill", root, c, |_| {
                                RunRecord::from_report(&inst, &report)
                            });
                            let line = traced(tr, "wire.encode_record", root, c, |_| {
                                wire::encode_record(i, &rec)
                            });
                            let back = traced(tr, "wire.decode_line", root, c, |_| {
                                wire::decode_line(&line)
                            });
                            if back
                                != Ok(Line::Record {
                                    index: i,
                                    record: rec.clone(),
                                })
                            {
                                t.errors.push(format!(
                                    "record {i} of campaign {c} does not survive encode/decode"
                                ));
                            }
                            traced(tr, "batch.push", root, c, |_| t.accs[ki].push(&rec));
                            traced(tr, "trajectory.step", root, c, |_| {
                                step_motions(&inst, report.segments / 2, &mut t.out, &mut t.pulls)
                            });
                            t.out.runs += 1;
                            t.out.met += usize::from(rec.met);
                            t.out.segments += report.segments;
                            t.out.record_bytes += line.len() as u64;
                            t.lines[ki].push((i, line));
                        }
                        t
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });

    let mut out = ProbeOut::default();
    let mut pulls = Vec::new();
    // Per key: each thread's accumulator, and every record line.
    let mut accs: Vec<Vec<StatsAccumulator>> = keys.iter().map(|_| Vec::new()).collect();
    let mut lines: Vec<Vec<(usize, String)>> = keys.iter().map(|_| Vec::new()).collect();
    for t in per_thread {
        for e in t.errors {
            tally.fail(e);
        }
        out.runs += t.out.runs;
        out.met += t.out.met;
        out.segments += t.out.segments;
        out.stepped += t.out.stepped;
        out.pulled += t.out.pulled;
        pulls.extend(t.pulls);
        out.record_bytes += t.out.record_bytes;
        for (ki, (acc, key_lines)) in t.accs.into_iter().zip(t.lines).enumerate() {
            accs[ki].push(acc);
            lines[ki].extend(key_lines);
        }
    }
    // The shared program only grows, and stops at its cap: whatever a
    // cursor pulled beyond what is cached now came from the fallback.
    let cached = compiled_aur().materialized() as u64;
    out.past_cap = pulls.iter().map(|p| p.saturating_sub(cached)).sum();
    for ((key, accs), lines) in keys.iter().zip(accs).zip(lines) {
        let c = key.campaign;
        let canon = traced(tr, "probe.campaign", 0, c, |root| {
            let mut acc = StatsAccumulator::new();
            for part in accs {
                acc = traced(tr, "batch.merge", root, c, |_| acc.merge(part));
            }
            let stats = traced(tr, "batch.finish", root, c, |_| acc.finish());
            canonical(lines, &wire::encode_campaign_report(&stats))
        });
        tally.check(if canon == key.canon {
            Ok(())
        } else {
            Err(format!(
                "campaign {c}: in-process layers disagree with the executor's answer"
            ))
        });
    }
    out
}

/// `ResultCache::lookup` on the fixed set's own keys, each hit checked
/// byte for byte against the cold answer.
pub fn lookups(
    plan: &Plan,
    keys: &[Key],
    cache_root: &Path,
    tr: &Tracer,
    tally: &mut Tally,
    out: &mut ProbeOut,
) {
    tr.span("probe.cache", 0, 0, |root| {
        for key in keys {
            let cache = match ResultCache::open(cache_root.join(&key.slot)) {
                Ok(c) => c,
                Err(e) => {
                    tally.fail(format!("cannot open cache slot {}: {e}", key.slot));
                    continue;
                }
            };
            let hit = tr.span("cache.lookup", root, key.campaign, |_| {
                cache.lookup(&plan.spec, key.seed, &(0..key.n))
            });
            out.lookup_records += key.n;
            tally.check(match hit {
                Some(hit) => {
                    let lines = hit
                        .records
                        .iter()
                        .map(|(i, r)| (*i, wire::encode_record(*i, r)))
                        .collect();
                    if canonical(lines, &wire::encode_campaign_report(&hit.acc.finish()))
                        == key.canon
                    {
                        Ok(())
                    } else {
                        Err(format!(
                            "cache entry of campaign {} differs from its cold answer",
                            key.campaign
                        ))
                    }
                }
                None => Err(format!(
                    "campaign {} is missing from cache slot {}",
                    key.campaign, key.slot
                )),
            });
        }
    });
}
