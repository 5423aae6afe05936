//! Differential tests of the tick-clock event loop: `rv_sim::simulate`
//! against a test-only copy of the loop that kept every time a canonical
//! `Ratio` (over the matching copy of the old kinematic compiler). Every
//! `SimReport` field must be bit-equal: outcome, meeting time and
//! positions, minimum distance and its time, segment count, and trace.
//!
//! The fixed scenarios are the engine's unit-test set; the property adds
//! random clocks, frames, wake times, radii (asymmetric ones freeze an
//! agent at an off-grid instant), time budgets, non-dyadic durations and
//! waits of `2^135` and beyond. `PROPTEST_CASES=<n>` overrides the
//! in-source case count.

use proptest::prelude::*;
use rv_geometry::{Angle, Chirality, Compass, Vec2};
use rv_numeric::{ratio, Ratio};
use rv_sim::{simulate, SimConfig, SimReport};
use rv_trajectory::{AgentAttrs, Instr};

#[path = "../../trajectory/tests/support/legacy_motion.rs"]
mod legacy_motion;

#[path = "support/legacy_engine.rs"]
mod legacy_engine;
use legacy_engine::legacy_simulate;

/// A report rendered field by field. `f64`'s `Debug` prints the shortest
/// string that round-trips, so equal renderings mean equal bits.
fn fingerprint(r: &SimReport) -> String {
    format!(
        "{:?} | min {:?} at {:?} | segs {} | trace {:?}",
        r.outcome, r.min_dist, r.min_dist_time, r.segments, r.trace
    )
}

fn assert_same_report(
    attrs_a: &AgentAttrs,
    prog_a: &[Instr],
    attrs_b: &AgentAttrs,
    prog_b: &[Instr],
    cfg: &SimConfig,
) -> Result<(), TestCaseError> {
    let new = simulate(
        attrs_a.clone(),
        prog_a.iter().cloned(),
        attrs_b.clone(),
        prog_b.iter().cloned(),
        cfg,
    );
    let old = legacy_simulate(
        attrs_a.clone(),
        prog_a.iter().cloned(),
        attrs_b.clone(),
        prog_b.iter().cloned(),
        cfg,
    );
    prop_assert_eq!(fingerprint(&new), fingerprint(&old));
    if let (Some(n), Some(o)) = (new.meeting(), old.meeting()) {
        // The exact interval base is a canonical Ratio on both sides.
        prop_assert_eq!(&n.time.base, &o.time.base);
    }
    Ok(())
}

fn at(x: f64, y: f64) -> AgentAttrs {
    AgentAttrs {
        origin: Vec2::new(x, y),
        ..AgentAttrs::reference()
    }
}

fn oscillate(n: usize) -> Vec<Instr> {
    (0..n)
        .map(|k| {
            let dir = if k % 2 == 0 {
                Compass::East
            } else {
                Compass::West
            };
            Instr::go(dir, ratio(1, 1))
        })
        .collect()
}

/// Agent A and its program, agent B and its program, the configuration.
type Scenario = (AgentAttrs, Vec<Instr>, AgentAttrs, Vec<Instr>, SimConfig);

#[test]
fn engine_unit_scenarios_report_identically() {
    let r = |k: i64| SimConfig::with_radius(ratio(k, 1));
    let square: Vec<Instr> = [Compass::East, Compass::North, Compass::West, Compass::South]
        .into_iter()
        .map(|c| Instr::go(c, ratio(2, 1)))
        .collect();
    let walk_east = vec![Instr::go(Compass::East, ratio(20, 1))];
    let late_b = AgentAttrs {
        phi: Angle::half(),
        wake: ratio(4, 1),
        ..at(10.0, 0.0)
    };
    let asym = SimConfig {
        radius_a: ratio(4, 1),
        radius_b: ratio(1, 1),
        ..SimConfig::with_radius(ratio(1, 1))
    };
    let cases: Vec<Scenario> = vec![
        (AgentAttrs::reference(), vec![], at(1.5, 0.0), vec![], r(2)),
        (
            AgentAttrs::reference(),
            walk_east.clone(),
            at(10.0, 0.0),
            vec![],
            r(2),
        ),
        (AgentAttrs::reference(), vec![], at(10.0, 0.0), vec![], r(1)),
        (
            AgentAttrs::reference(),
            oscillate(400),
            at(10.0, 0.0),
            vec![],
            r(1).max_time(ratio(100, 1)),
        ),
        (
            AgentAttrs::reference(),
            oscillate(400),
            at(10.0, 0.0),
            vec![],
            r(1).max_segments(50),
        ),
        (AgentAttrs::reference(), vec![], late_b, walk_east, r(1)),
        (
            AgentAttrs::reference(),
            vec![],
            at(10.0, 0.0),
            vec![
                Instr::wait(Ratio::pow2(200)),
                Instr::go(Compass::West, ratio(20, 1)),
            ],
            r(1),
        ),
        (
            AgentAttrs::reference(),
            vec![Instr::go_angle(Angle::zero(), ratio(100, 1))],
            at(50.0, 1.0),
            vec![],
            r(2),
        ),
        (
            AgentAttrs::reference(),
            vec![Instr::go(Compass::East, ratio(100, 1))],
            at(10.0, 0.0),
            vec![
                Instr::wait(ratio(10, 1)),
                Instr::go(Compass::West, ratio(100, 1)),
            ],
            asym,
        ),
        (
            AgentAttrs::reference(),
            vec![Instr::go(Compass::East, ratio(100, 1))],
            at(50.0, 5.0),
            vec![],
            r(1),
        ),
        (
            AgentAttrs::reference(),
            oscillate(400),
            at(10.0, 0.0),
            vec![],
            r(1).max_time(ratio(100, 1)).trace(1),
        ),
        (
            AgentAttrs::reference(),
            oscillate(12_000),
            at(10.0, 0.0),
            vec![],
            r(1).max_time(ratio(10_000, 1)).trace(64),
        ),
        (
            AgentAttrs::reference(),
            square.clone(),
            at(10.0, 0.0),
            square,
            r(1),
        ),
    ];
    for (k, (attrs_a, prog_a, attrs_b, prog_b, cfg)) in cases.iter().enumerate() {
        if let Err(e) = assert_same_report(attrs_a, prog_a, attrs_b, prog_b, cfg) {
            panic!("scenario {k}: {e}");
        }
    }
}

fn duration_strategy() -> impl Strategy<Value = Ratio> {
    prop_oneof![
        6 => ((1i64..64), (0i64..6)).prop_map(|(j, k)| Ratio::frac(j, 1 << k)),
        2 => ((1i64..50), (1i64..30)).prop_map(|(p, q)| Ratio::frac(p, q)),
        1 => (1i64..60).prop_map(|e| Ratio::pow2(-e)),
        1 => (135i64..220).prop_map(Ratio::pow2),
    ]
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    prop_oneof![
        3 => (((0i64..64), (0i64..5)), duration_strategy())
            .prop_map(|((j, k), d)| Instr::go_angle(Angle::pi_frac(j, 1 << k), d)),
        1 => duration_strategy().prop_map(Instr::wait),
    ]
}

fn program_strategy() -> impl Strategy<Value = Vec<Instr>> {
    proptest::collection::vec(instr_strategy(), 0..30)
}

fn attrs_strategy(x: f64, y: f64) -> impl Strategy<Value = AgentAttrs> {
    (
        ((0i64..64), (0i64..5)),
        any::<bool>(),
        ((1i64..30), (1i64..30)),
        ((1i64..6), (1i64..6)),
        ((0i64..30), (1i64..30)),
    )
        .prop_map(
            move |((j, k), plus, (tp, tq), (vp, vq), (wp, wq))| AgentAttrs {
                origin: Vec2::new(x, y),
                phi: Angle::pi_frac(j, 1 << k),
                chi: if plus {
                    Chirality::Plus
                } else {
                    Chirality::Minus
                },
                tau: Ratio::frac(tp, tq),
                speed: Ratio::frac(vp, vq),
                wake: Ratio::frac(wp, wq),
            },
        )
}

fn config_strategy() -> impl Strategy<Value = SimConfig> {
    (
        ((1i64..12), (1i64..4)),
        prop_oneof![Just(None), ((1i64..12), (1i64..4)).prop_map(Some)],
        prop_oneof![Just(None), ((1i64..400), (1i64..30)).prop_map(Some)],
        prop_oneof![Just(0usize), Just(1usize), Just(7usize), Just(64usize)],
        (4u64..200),
    )
        .prop_map(|((rp, rq), other, max_time, trace, segs)| {
            let r = Ratio::frac(rp, rq);
            let mut cfg = SimConfig::with_radius(r.clone())
                .trace(trace)
                .max_segments(segs);
            if let Some((p, q)) = other {
                // Asymmetric radii: one agent freezes on first sight.
                cfg.radius_b = Ratio::frac(p, q);
            }
            cfg.max_time = max_time.map(|(p, q)| Ratio::frac(p, q));
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tick_engine_reports_bit_equal(attrs_a in attrs_strategy(0.0, 0.0),
                                     prog_a in program_strategy(),
                                     attrs_b in attrs_strategy(7.0, 3.0),
                                     prog_b in program_strategy(),
                                     cfg in config_strategy()) {
        assert_same_report(&attrs_a, &prog_a, &attrs_b, &prog_b, &cfg)?;
    }
}
