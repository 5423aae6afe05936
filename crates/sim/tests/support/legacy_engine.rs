//! Test-only reference: the event loop as it was before the tick core,
//! with `cur` and both segments' times kept as canonical `Ratio`s and
//! every `f64` offset taken from a reduced difference. The differential
//! suite requires `rv_sim::simulate` to report bit-equal fields.
#![allow(dead_code)]

use crate::legacy_motion::LegacyMotion as Motion;
use rv_geometry::{first_within, min_dist_on_interval, Vec2};
use rv_numeric::Ratio;
use rv_sim::{BudgetReason, Meeting, Outcome, SimConfig, SimReport, SimTime, TraceSample};
use rv_trajectory::{AgentAttrs, Instr, Segment};

struct AgentState<P: Iterator<Item = Instr>> {
    motion: Motion<P>,
    seg: Segment,
    frozen: bool,
}

impl<P: Iterator<Item = Instr>> AgentState<P> {
    fn new(attrs: AgentAttrs, program: P) -> (AgentState<P>, u64) {
        let mut motion = Motion::new(attrs, program);
        let seg = motion
            .next()
            .expect("a motion always yields at least the halt segment");
        (
            AgentState {
                motion,
                seg,
                frozen: false,
            },
            1,
        )
    }

    /// Position at exact time `cur` (must lie within the current segment).
    fn pos_at(&self, cur: &Ratio) -> Vec2 {
        if self.seg.is_stationary() {
            // Idle segment: the offset is irrelevant; skip the exact
            // subtraction (which allocates once clocks go past i128).
            return self.seg.from;
        }
        let offset = (cur - &self.seg.start).to_f64();
        self.seg.pos_at_offset(offset)
    }

    /// Replaces the remaining motion with an eternal halt at `pos`/`time`.
    fn freeze(&mut self, time: Ratio, pos: Vec2) {
        self.seg = Segment {
            start: time,
            end: None,
            from: pos,
            vel: Vec2::ZERO,
        };
        self.frozen = true;
    }
}

/// Tracing helper with bounded memory: on overflow it decimates by two and
/// doubles its stride.
struct Tracer {
    cap: usize,
    stride: u64,
    counter: u64,
    /// Timestamps are f64 projections of exact rationals; consecutive
    /// projections can invert by an ULP (`f64(a) + f64(b−a) > f64(b)`), so
    /// the tracer monotonizes them on record.
    last_time: f64,
    samples: Vec<TraceSample>,
}

impl Tracer {
    fn new(cap: usize) -> Tracer {
        Tracer {
            cap,
            stride: 1,
            counter: 0,
            last_time: f64::NEG_INFINITY,
            samples: Vec::new(),
        }
    }

    fn record(&mut self, time: f64, pos_a: Vec2, pos_b: Vec2) {
        if self.cap == 0 {
            return;
        }
        let time = time.max(self.last_time);
        self.last_time = time;
        if self.counter.is_multiple_of(self.stride) {
            let sample = TraceSample {
                time,
                pos_a,
                pos_b,
                dist: pos_a.dist(pos_b),
            };
            if self.cap == 1 {
                // Single-slot trace: keep the latest sample. Decimation
                // would degenerate here (every push would halve-and-double
                // forever, growing `stride` without bound).
                self.samples.clear();
                self.samples.push(sample);
            } else {
                self.samples.push(sample);
                if self.samples.len() >= self.cap {
                    let mut keep = Vec::with_capacity(self.cap / 2 + 1);
                    for (i, s) in self.samples.drain(..).enumerate() {
                        if i % 2 == 0 {
                            keep.push(s);
                        }
                    }
                    self.samples = keep;
                    self.stride = self.stride.saturating_mul(2);
                }
            }
        }
        self.counter += 1;
    }

    /// Records unconditionally (used for the final/meeting sample),
    /// replacing the newest sample when the trace is at capacity so
    /// `samples.len() ≤ cap` holds for every cap, including 1.
    fn record_final(&mut self, time: f64, pos_a: Vec2, pos_b: Vec2) {
        if self.cap == 0 {
            return;
        }
        let time = time.max(self.last_time);
        self.last_time = time;
        let sample = TraceSample {
            time,
            pos_a,
            pos_b,
            dist: pos_a.dist(pos_b),
        };
        if self.samples.len() >= self.cap {
            *self.samples.last_mut().expect("cap > 0 ⇒ non-empty") = sample;
        } else {
            self.samples.push(sample);
        }
    }
}

/// Simulates the two agents until rendezvous or budget exhaustion.
pub fn legacy_simulate<PA, PB>(
    attrs_a: AgentAttrs,
    prog_a: PA,
    attrs_b: AgentAttrs,
    prog_b: PB,
    cfg: &SimConfig,
) -> SimReport
where
    PA: Iterator<Item = Instr>,
    PB: Iterator<Item = Instr>,
{
    debug_assert!(attrs_a.validate().is_ok());
    debug_assert!(attrs_b.validate().is_ok());
    assert!(
        cfg.radius_a.is_positive() && cfg.radius_b.is_positive(),
        "visibility radii must be positive"
    );

    let (mut a, pulled_a) = AgentState::new(attrs_a, prog_a);
    let (mut b, pulled_b) = AgentState::new(attrs_b, prog_b);
    let mut segments: u64 = pulled_a + pulled_b;

    let r_small = cfg.radius_small();
    let r_big = cfg.radius_big();
    let detect_small = r_small.to_f64() * (1.0 + cfg.detection_slack);
    let detect_big = r_big.to_f64() * (1.0 + cfg.detection_slack);
    let asymmetric = r_small != r_big;
    // While `big_pending`, the next threshold to cross is r_big (the
    // far-sighted agent's sight). Once crossed, that agent freezes and the
    // hunt continues for r_small.
    let mut big_pending = asymmetric;

    let mut cur = Ratio::zero();
    let mut min_dist = f64::INFINITY;
    let mut min_dist_time = 0.0;
    let mut tracer = Tracer::new(cfg.trace_samples);

    let report =
        |outcome: Outcome, min_dist: f64, min_dist_time: f64, segments: u64, tracer: Tracer| {
            SimReport {
                outcome,
                min_dist,
                min_dist_time,
                segments,
                trace: tracer.samples,
            }
        };

    loop {
        // --- Time budget check at the interval boundary. ---
        if let Some(mt) = &cfg.max_time {
            if &cur >= mt {
                return report(
                    Outcome::Budget(BudgetReason::Time),
                    min_dist,
                    min_dist_time,
                    segments,
                    tracer,
                );
            }
        }

        // --- Interval end: earliest of the two segment ends and budget.
        // Everything stays borrowed: the bound is a reference into the
        // live segments (or the configured cap), and which agent(s) end
        // the interval is decided here so the advance step below can
        // `take()` the end instead of re-comparing clones.
        let (mut a_ends, mut b_ends) = (false, false);
        match (&a.seg.end, &b.seg.end) {
            (None, None) => {}
            (Some(_), None) => a_ends = true,
            (None, Some(_)) => b_ends = true,
            (Some(ea), Some(eb)) => match ea.cmp_ref(eb) {
                std::cmp::Ordering::Less => a_ends = true,
                std::cmp::Ordering::Greater => b_ends = true,
                std::cmp::Ordering::Equal => {
                    a_ends = true;
                    b_ends = true;
                }
            },
        }
        let seg_bound: Option<&Ratio> = if a_ends {
            a.seg.end.as_ref()
        } else {
            b.seg.end.as_ref()
        };
        let mut time_capped = false;
        let bound: Option<&Ratio> = match (&cfg.max_time, seg_bound) {
            (Some(mt), Some(be)) if be <= mt => Some(be),
            (Some(mt), _) => {
                time_capped = true;
                Some(mt)
            }
            (None, sb) => sb,
        };

        // --- Geometry of the interval. ---
        let pa = a.pos_at(&cur);
        let pb = b.pos_at(&cur);
        let rel0 = pb - pa;
        let rel_vel = b.seg.vel - a.seg.vel;
        let dt = match bound {
            None => f64::INFINITY,
            Some(be) => (be - &cur).to_f64(),
        };
        tracer.record(cur.to_f64(), pa, pb);

        // --- Threshold detection. ---
        let detect_r = if big_pending {
            detect_big
        } else {
            detect_small
        };
        if let Some(s) = first_within(rel0, rel_vel, detect_r, dt) {
            let hit_a = pa + a.seg.vel * s;
            let hit_b = pb + b.seg.vel * s;
            let d = hit_a.dist(hit_b);
            if d < min_dist {
                min_dist = d;
                min_dist_time = cur.to_f64() + s;
            }
            if !big_pending {
                let time = SimTime {
                    base: cur.clone(),
                    offset: s,
                };
                tracer.record_final(time.to_f64(), hit_a, hit_b);
                return report(
                    Outcome::Met(Meeting {
                        time,
                        pos_a: hit_a,
                        pos_b: hit_b,
                        dist: d,
                    }),
                    min_dist,
                    min_dist_time,
                    segments,
                    tracer,
                );
            }
            // Section 5: the far-sighted agent sees first and freezes.
            let t_hit = &cur + &Ratio::from_f64_exact(s).unwrap_or_else(Ratio::zero);
            if cfg.radius_a >= cfg.radius_b {
                a.freeze(t_hit.clone(), hit_a);
            } else {
                b.freeze(t_hit.clone(), hit_b);
            }
            big_pending = false;
            cur = t_hit;
            continue;
        }

        // --- Track the minimum distance on the interval. ---
        let m = min_dist_on_interval(rel0, rel_vel, dt);
        if m.min_dist < min_dist {
            min_dist = m.min_dist;
            min_dist_time = cur.to_f64() + m.argmin;
            // Improvements are exactly the points figure F9 needs; record
            // them (capped like all samples).
            tracer.record(
                min_dist_time,
                pa + a.seg.vel * m.argmin,
                pb + b.seg.vel * m.argmin,
            );
        }

        // --- Advance. ---
        if bound.is_none() {
            // Both agents halted forever, out of range.
            return report(
                Outcome::Budget(BudgetReason::BothHalted),
                min_dist,
                min_dist_time,
                segments,
                tracer,
            );
        }
        if time_capped {
            return report(
                Outcome::Budget(BudgetReason::Time),
                min_dist,
                min_dist_time,
                segments,
                tracer,
            );
        }
        // The ending agent's segment end becomes the new clock by move,
        // not clone — its segment is replaced right after anyway.
        if a_ends {
            cur = a.seg.end.take().expect("a_ends ⇒ end present");
            a.seg = a
                .motion
                .next()
                .expect("finite segments always have a successor");
            debug_assert_eq!(a.seg.start, cur);
            segments += 1;
        }
        if b_ends {
            if a_ends {
                b.seg = b
                    .motion
                    .next()
                    .expect("finite segments always have a successor");
            } else {
                cur = b.seg.end.take().expect("b_ends ⇒ end present");
                b.seg = b
                    .motion
                    .next()
                    .expect("finite segments always have a successor");
            }
            debug_assert_eq!(b.seg.start, cur);
            segments += 1;
        }
        if segments > cfg.max_segments {
            return report(
                Outcome::Budget(BudgetReason::Segments),
                min_dist,
                min_dist_time,
                segments,
                tracer,
            );
        }
    }
}
