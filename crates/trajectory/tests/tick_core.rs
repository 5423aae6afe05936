//! Differential tests of the tick core: `Motion` (integer ticks on a
//! widening grid, cached directions) against a test-only copy of the
//! kinematic compiler that kept canonical `Ratio` clocks and composed
//! every direction per segment. Both the `Segment` view and the raw
//! `step` ticks must give the same canonical start and end times and
//! bit-equal `from` and `vel`.
//!
//! The programs mix dyadic durations (the AUR shape), non-dyadic
//! rationals and tiny dyadics (which widen the grid), and waits of `2^135`
//! and beyond (which push tick counts past `i128`).
//! `PROPTEST_CASES=<n>` overrides the in-source case count.

use proptest::prelude::*;
use rv_geometry::{Angle, Chirality, Vec2};
use rv_numeric::Ratio;
use rv_trajectory::{AgentAttrs, Instr, Motion, Segment};

#[path = "support/legacy_motion.rs"]
mod legacy_motion;
use legacy_motion::LegacyMotion;

fn bits(v: Vec2) -> (u64, u64) {
    (v.x.to_bits(), v.y.to_bits())
}

fn duration_strategy() -> impl Strategy<Value = Ratio> {
    prop_oneof![
        4 => ((0i64..64), (0i64..6)).prop_map(|(j, k)| Ratio::frac(j, 1 << k)),
        2 => ((1i64..50), (1i64..30)).prop_map(|(p, q)| Ratio::frac(p, q)),
        1 => (1i64..80).prop_map(|e| Ratio::pow2(-e)),
        1 => (135i64..220).prop_map(Ratio::pow2),
    ]
}

fn angle_strategy() -> impl Strategy<Value = Angle> {
    prop_oneof![
        4 => ((0i64..64), (0i64..6)).prop_map(|(j, k)| Angle::pi_frac(j, 1 << k)),
        1 => ((-20i64..20), (1i64..12)).prop_map(|(p, q)| Angle::pi_frac(p, q)),
    ]
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    prop_oneof![
        3 => (angle_strategy(), duration_strategy()).prop_map(|(dir, d)| Instr::go_angle(dir, d)),
        1 => duration_strategy().prop_map(Instr::wait),
    ]
}

fn program_strategy() -> impl Strategy<Value = Vec<Instr>> {
    proptest::collection::vec(instr_strategy(), 0..40)
}

fn attrs_strategy() -> impl Strategy<Value = AgentAttrs> {
    (
        (-8.0f64..8.0, -8.0f64..8.0),
        ((0i64..64), (0i64..6)),
        any::<bool>(),
        ((1i64..40), (1i64..40)),
        ((1i64..9), (1i64..9)),
        ((0i64..40), (1i64..40)),
    )
        .prop_map(
            |((x, y), (j, k), plus, (tp, tq), (vp, vq), (wp, wq))| AgentAttrs {
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

fn assert_matches_legacy(attrs: &AgentAttrs, prog: &[Instr]) -> Result<(), TestCaseError> {
    let legacy: Vec<Segment> = LegacyMotion::new(attrs.clone(), prog.iter().cloned()).collect();
    let view: Vec<Segment> = Motion::new(attrs.clone(), prog.iter().cloned()).collect();
    prop_assert_eq!(view.len(), legacy.len());
    let mut core = Motion::new(attrs.clone(), prog.iter().cloned());
    for (k, (seg, want)) in view.iter().zip(&legacy).enumerate() {
        prop_assert_eq!(&seg.start, &want.start, "segment {} start", k);
        prop_assert_eq!(&seg.end, &want.end, "segment {} end", k);
        prop_assert_eq!(bits(seg.from), bits(want.from), "segment {} from", k);
        prop_assert_eq!(bits(seg.vel), bits(want.vel), "segment {} vel", k);

        let ticks = core.step().expect("as many steps as segments");
        let grid = core.grid();
        prop_assert_eq!(grid.to_ratio(ticks.start), want.start.clone());
        prop_assert_eq!(ticks.end.map(|e| grid.to_ratio(e)), want.end.clone());
        prop_assert_eq!(bits(ticks.from), bits(want.from));
        prop_assert_eq!(bits(ticks.vel), bits(want.vel));
    }
    prop_assert!(core.step().is_none());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tick_core_matches_rational_clocks(attrs in attrs_strategy(), prog in program_strategy()) {
        assert_matches_legacy(&attrs, &prog)?;
    }
}

/// An AUR-shaped program: dyadic moves in the `Rot(jπ/2^i)` frames of
/// several phases around the `2^60` and `2^135` waits, about 20k
/// instructions.
fn aur_shaped() -> Vec<Instr> {
    let mut prog = Vec::new();
    for phase in 1..=3i64 {
        for j in 0..(1i64 << (phase + 1)) {
            let frame = Angle::pi_frac(j, 1 << phase);
            for k in 0..1600 {
                let dir = frame.clone() + Angle::pi_frac(k % 4, 2);
                prog.push(Instr::go_angle(dir, Ratio::frac(1 + k % 5, 1 << (k % 5))));
            }
        }
        prog.push(Instr::wait(Ratio::pow2(15 * phase * phase)));
    }
    prog
}

#[test]
fn aur_shaped_program_matches_for_skewed_and_reference_agents() {
    let skewed = AgentAttrs {
        origin: Vec2::new(3.0, 1.0),
        phi: Angle::pi_frac(3, 8),
        chi: Chirality::Minus,
        tau: Ratio::frac(7, 5),
        speed: Ratio::one(),
        wake: Ratio::frac(13, 16),
    };
    let prog = aur_shaped();
    assert!(prog.len() > 20_000);
    for attrs in [skewed, AgentAttrs::reference()] {
        assert_matches_legacy(&attrs, &prog).unwrap();
    }
}
