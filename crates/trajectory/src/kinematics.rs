//! The kinematic compiler: from (private program, agent attributes) to an
//! absolute-time piecewise-linear motion.
//!
//! Section 1.2 of the paper fixes the semantics: an agent with clock rate
//! `τ` (absolute time per private tick) and speed `v` (absolute distance
//! per absolute time) has private length unit `τ·v`. Thus `go(dir, d)`
//! covers `d·τ·v` absolute distance in `d·τ` absolute time, and `wait(z)`
//! idles for `z·τ`. Directions map through the frame as `φ + χ·θ`.
//!
//! ## Event times: integer ticks on a per-run grid
//!
//! Event times are exact, but the stepping core does not keep them as
//! canonical rationals. A [`TickGrid`] fixes one denominator `D`, and an
//! instant `t` is held as the integer `t·D` (its *ticks*). `D` starts as
//! the lcm of the denominators of `τ` and the wake time (the simulator
//! adds the other agent's and the time budget's), so a local duration
//! `d` lasts the integer `d·τ·D` ticks whenever `D` holds it. Advancing a
//! clock is then one [`Int`] add and ordering two events one compare; no
//! gcd runs per segment. Tick counts past `i128` (the `2^(15·i²)` waits
//! from phase 3 on) promote to `Int`'s big representation.
//!
//! When a duration falls off the grid — the first `1/16` of a program, a
//! non-dyadic dedicated distance — the grid *widens*: `D` is multiplied
//! by the smallest factor that holds the duration and every live tick
//! value is rescaled ([`Motion::widen`]). The same single stepping core
//! runs before and after.
//!
//! Canonical [`Ratio`]s are built only where times leave the core: the
//! [`Segment`] view [`Motion`] yields as an `Iterator`, and the
//! simulator's meeting time. `f64` offsets go through
//! [`TickGrid::span_f64`], which returns exactly the bytes
//! [`Ratio::to_f64`] gives on the reduced value.
//!
//! ## Directions
//!
//! Positions are `f64` accumulated per segment (cardinal directions
//! contribute exact displacements). A motion computes the absolute unit
//! vector of each distinct local direction once,
//! `orientation.to_absolute(θ).unit()`, and looks it up afterwards, so
//! velocities are bit-identical to computing them per segment.

use crate::instr::Instr;
use rv_geometry::{Angle, Chirality, Orientation, Vec2};
use rv_numeric::{Int, Ratio};

/// The private attributes of an agent (Section 1.2).
#[derive(Clone, Debug)]
pub struct AgentAttrs {
    /// Initial position in absolute coordinates.
    pub origin: Vec2,
    /// Rotation of the private x-axis w.r.t. the absolute one.
    pub phi: Angle,
    /// Handedness of the private system.
    pub chi: Chirality,
    /// Absolute time per private time unit (`τ > 0`).
    pub tau: Ratio,
    /// Absolute speed (`v > 0`).
    pub speed: Ratio,
    /// Absolute wake-up time (`t ≥ 0`).
    pub wake: Ratio,
}

impl AgentAttrs {
    /// The reference agent A: absolute frame, unit clock and speed, wakes
    /// at time 0 at the absolute origin.
    pub fn reference() -> AgentAttrs {
        AgentAttrs {
            origin: Vec2::ZERO,
            phi: Angle::zero(),
            chi: Chirality::Plus,
            tau: Ratio::one(),
            speed: Ratio::one(),
            wake: Ratio::zero(),
        }
    }

    /// The private length unit in absolute terms: `τ·v`.
    pub fn unit_len(&self) -> Ratio {
        &self.tau * &self.speed
    }

    /// The orientation part of the frame.
    pub fn orientation(&self) -> Orientation {
        Orientation {
            // rv-lint: allow(hot) — once per Motion construction, not per
            // segment.
            phi: self.phi.clone(),
            chi: self.chi,
        }
    }

    /// Validates positivity constraints.
    pub fn validate(&self) -> Result<(), String> {
        if !self.tau.is_positive() {
            return Err(format!("clock rate τ must be positive, got {}", self.tau));
        }
        if !self.speed.is_positive() {
            return Err(format!("speed v must be positive, got {}", self.speed));
        }
        if self.wake.is_negative() {
            return Err(format!("wake-up time t must be ≥ 0, got {}", self.wake));
        }
        Ok(())
    }
}

/// One constant-velocity piece of an agent's motion, with event times of
/// type `T`: exact [`Ratio`]s in the public view, integer ticks of a
/// [`TickGrid`] in the stepping core ([`Motion::step`]).
#[derive(Clone, Debug)]
pub struct Segment<T = Ratio> {
    /// Absolute start time (exact).
    pub start: T,
    /// Absolute end time (exact); `None` means the agent halts forever.
    pub end: Option<T>,
    /// Position at `start`.
    pub from: Vec2,
    /// Constant velocity over the segment (zero while waiting/halted).
    pub vel: Vec2,
}

impl<T> Segment<T> {
    /// Position at `start + offset` (offset in absolute seconds, f64).
    ///
    /// Written so that waiting segments with astronomically long durations
    /// never produce `inf·0 = NaN`.
    pub fn pos_at_offset(&self, offset: f64) -> Vec2 {
        if self.vel == Vec2::ZERO {
            self.from
        } else {
            self.from + self.vel * offset
        }
    }

    /// True while the agent is idle on this segment.
    pub fn is_stationary(&self) -> bool {
        self.vel == Vec2::ZERO
    }
}

/// The common denominator `D` of a run's event times: an instant `t` is
/// held as the integer `t·D`, its *ticks*. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TickGrid {
    den: Int,
}

impl Default for TickGrid {
    /// The integer grid, `D = 1`.
    fn default() -> TickGrid {
        TickGrid { den: Int::ONE }
    }
}

/// Largest magnitude an `f64` holds exactly for every smaller integer.
const F64_EXACT: i128 = 1 << 53;

impl TickGrid {
    /// The coarsest grid holding every instant in `times` exactly: `D` is
    /// the lcm of their denominators.
    pub fn covering<'a>(times: impl IntoIterator<Item = &'a Ratio>) -> TickGrid {
        let mut grid = TickGrid::default();
        for t in times {
            grid.hold(t);
        }
        grid
    }

    /// The factor this grid must widen by to hold the instant `t`
    /// (`Int::ONE` when it already does).
    pub fn widening_for(&self, t: &Ratio) -> Int {
        widening(&self.den, t.denom())
    }

    /// Multiplies `D` by `m`. Callers rescale their live tick values by
    /// the same factor.
    pub fn widen(&mut self, m: &Int) {
        self.den = &self.den * m;
    }

    /// Widens the grid, if needed, to hold the instant `t`.
    fn hold(&mut self, t: &Ratio) {
        let m = self.widening_for(t);
        self.widen(&m);
    }

    /// The ticks of an instant this grid holds (`t·D`).
    pub fn ticks(&self, t: &Ratio) -> Int {
        let (q, r) = self.den.div_rem(t.denom());
        debug_assert!(r.is_zero(), "{t} is off the grid 1/{}", self.den);
        t.numer() * &q
    }

    /// The factor that carries tick values of this grid onto `wider`, a
    /// widening of it: the ratio of their denominators.
    pub fn factor_to(&self, wider: &TickGrid) -> Int {
        let (m, r) = wider.den.div_rem(&self.den);
        debug_assert!(
            r.is_zero(),
            "grid 1/{} does not refine 1/{}",
            wider.den,
            self.den
        );
        m
    }

    /// The canonical (lowest-terms) rational value of `ticks`.
    pub fn to_ratio(&self, ticks: Int) -> Ratio {
        // rv-lint: allow(hot) — canonical times leave the tick core only
        // at the public Segment view and at a meeting, not per engine
        // segment; on the inline path this clone is a memcpy.
        Ratio::new(ticks, self.den.clone())
    }

    /// The instant `ticks` as `f64`: [`span_f64`](TickGrid::span_f64)
    /// from zero.
    pub fn to_f64(&self, ticks: &Int) -> f64 {
        self.span_f64(&Int::ZERO, ticks)
    }

    /// The length of `[from, to]` in absolute time as `f64`, bit-equal to
    /// `Ratio::to_f64` of the reduced value `(to − from)/D`.
    ///
    /// When `|to − from|` and `D` are both at most `2^53`, both convert to
    /// `f64` exactly and their quotient is the correctly rounded value —
    /// which is also what the reduced form's two (smaller, exact)
    /// conversions divide to. Every other case reduces first and calls
    /// the same `Ratio::to_f64`.
    pub fn span_f64(&self, from: &Int, to: &Int) -> f64 {
        if let (Int::Small(a), Int::Small(b), Int::Small(d)) = (from, to, &self.den) {
            if let Some(delta) = b.checked_sub(*a) {
                if delta.unsigned_abs() <= F64_EXACT as u128 && *d <= F64_EXACT {
                    // Both fit i64, whose conversion to f64 is one
                    // instruction (the i128 one is a library call).
                    return delta as i64 as f64 / *d as i64 as f64;
                }
            }
        }
        self.to_ratio(to - from).to_f64()
    }
}

/// The smallest `m` with `d | base·m`: `d / gcd(base, d)`.
fn widening(base: &Int, d: &Int) -> Int {
    if let (Int::Small(b), Int::Small(d)) = (base, d) {
        if b % d == 0 {
            return Int::ONE;
        }
    }
    d.div_rem(&base.gcd(d)).0
}

/// `local·unit` when that is an integer (`denom(local) | unit`), where
/// `unit` is a positive tick count.
fn scaled(local: &Ratio, unit: &Int) -> Option<Int> {
    if let (Int::Small(n), Int::Small(d), Int::Small(u)) = (local.numer(), local.denom(), unit) {
        // Dyadic denominators (every AUR duration) divide by shifting.
        let q = if (*d as u128).is_power_of_two() {
            let shift = d.trailing_zeros();
            if u.trailing_zeros() < shift {
                return None;
            }
            u >> shift
        } else if u % d == 0 {
            u / d
        } else {
            return None;
        };
        return Some(match n.checked_mul(q) {
            Some(p) => Int::Small(p),
            None => &Int::Small(*n) * &Int::Small(q),
        });
    }
    let (q, r) = unit.div_rem(local.denom());
    r.is_zero().then(|| local.numer() * &q)
}

/// Slots of a motion's direction table (a power of two).
const DIR_SLOTS: usize = 256;
/// Linear-probe length before a lookup gives up on caching.
const DIR_PROBES: usize = 8;

/// One cached direction: the local angle `num/den · π` and its absolute
/// unit vector. `den == 0` marks an empty slot.
#[derive(Clone, Copy)]
struct DirSlot {
    num: i128,
    den: i128,
    unit: Vec2,
}

/// The absolute unit vectors of the local directions a motion has used.
///
/// Open addressing over a fixed table, allocated once per motion. A
/// direction whose angle does not fit `i128`, or whose probe run is full,
/// is computed without being cached — by the same expression, so the
/// table never changes a velocity.
struct DirTable {
    orientation: Orientation,
    slots: Box<[DirSlot]>,
}

impl DirTable {
    fn new(orientation: Orientation) -> DirTable {
        let empty = DirSlot {
            num: 0,
            den: 0,
            unit: Vec2::ZERO,
        };
        DirTable {
            orientation,
            // rv-lint: allow(hot) — one fixed table per motion, allocated
            // at construction; lookups never allocate.
            slots: vec![empty; DIR_SLOTS].into_boxed_slice(),
        }
    }

    /// `orientation.to_absolute(dir).unit()`, computed once per distinct
    /// `dir`.
    fn unit(&mut self, dir: &Angle) -> Vec2 {
        let q = dir.ratio_pi();
        if let (Some(num), Some(den)) = (q.numer().to_i128(), q.denom().to_i128()) {
            let h = ((num as u64) ^ (den as u64).rotate_left(29))
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                >> (64 - DIR_SLOTS.trailing_zeros());
            for probe in 0..DIR_PROBES {
                let slot = &mut self.slots[(h as usize + probe) % DIR_SLOTS];
                if slot.den == den && slot.num == num {
                    return slot.unit;
                }
                if slot.den == 0 {
                    let unit = self.orientation.to_absolute(dir).unit();
                    *slot = DirSlot { num, den, unit };
                    return unit;
                }
            }
        }
        self.orientation.to_absolute(dir).unit()
    }
}

/// Lazily compiles a program into motion segments.
///
/// [`step`](Motion::step) is the tick core the simulator drives; the
/// `Iterator` impl is the canonical-[`Ratio`] view of the same stream.
pub struct Motion<P> {
    program: P,
    grid: TickGrid,
    /// Ticks per private time unit: `τ·D`.
    tick_unit: Int,
    /// Start of the next segment, in ticks.
    clock: Int,
    dirs: DirTable,
    unit_len_f64: f64,
    speed_f64: f64,
    pos: Vec2,
    /// Set once the final infinite segment has been emitted.
    halted: bool,
    /// Pending wake segment (emitted first when the agent wakes late).
    emitted_wake: bool,
    /// The canonical end of the segment the `Iterator` view yielded last,
    /// which is the next one's start (cleared by [`step`](Motion::step)).
    view_clock: Option<Ratio>,
}

impl<P: Iterator<Item = Instr>> Motion<P> {
    /// Builds the motion of `attrs` executing `program`.
    pub fn new(attrs: AgentAttrs, program: P) -> Motion<P> {
        Motion::on_grid(attrs, program, TickGrid::default())
    }

    /// Builds the motion with its clock on `grid`, widened where needed to
    /// hold `τ` and the wake time. Two motions built on one grid that
    /// already holds both agents' values start on the same grid.
    pub fn on_grid(attrs: AgentAttrs, program: P, mut grid: TickGrid) -> Motion<P> {
        grid.hold(&attrs.tau);
        grid.hold(&attrs.wake);
        Motion {
            program,
            tick_unit: grid.ticks(&attrs.tau),
            clock: grid.ticks(&attrs.wake),
            grid,
            dirs: DirTable::new(attrs.orientation()),
            unit_len_f64: attrs.unit_len().to_f64(),
            speed_f64: attrs.speed.to_f64(),
            pos: attrs.origin,
            halted: false,
            emitted_wake: false,
            view_clock: None,
        }
    }

    /// Current absolute position (after all segments yielded so far).
    pub fn position(&self) -> Vec2 {
        self.pos
    }

    /// The grid the motion's tick values are on.
    pub fn grid(&self) -> &TickGrid {
        &self.grid
    }

    /// Multiplies the grid denominator by `m` and rescales the motion's
    /// tick values, so it stays on a grid shared with another motion that
    /// widened.
    pub fn widen(&mut self, m: &Int) {
        if *m == Int::ONE {
            return;
        }
        self.grid.widen(m);
        self.tick_unit = &self.tick_unit * m;
        self.clock = &self.clock * m;
    }

    /// The ticks of `local` private time units, widening the grid first
    /// when they are not an integer.
    fn ticks_for(&mut self, local: &Ratio) -> Int {
        if let Some(t) = scaled(local, &self.tick_unit) {
            return t;
        }
        let m = widening(&self.tick_unit, local.denom());
        self.widen(&m);
        scaled(local, &self.tick_unit).expect("the widened grid holds the duration")
    }

    /// The tick core: the next segment, with times in ticks of
    /// [`grid`](Motion::grid) — which this call widens when the
    /// segment's duration is off it.
    pub fn step(&mut self) -> Option<Segment<Int>> {
        self.view_clock = None;
        self.advance()
    }

    fn advance(&mut self) -> Option<Segment<Int>> {
        if self.halted {
            return None;
        }
        if !self.emitted_wake {
            self.emitted_wake = true;
            if self.clock.is_positive() {
                return Some(Segment {
                    start: Int::ZERO,
                    // rv-lint: allow(hot) — wake segment, once per run.
                    end: Some(self.clock.clone()),
                    from: self.pos,
                    vel: Vec2::ZERO,
                });
            }
        }
        loop {
            let (local, unit) = match self.program.next() {
                None => {
                    self.halted = true;
                    return Some(Segment {
                        // rv-lint: allow(hot) — final halt segment, once
                        // per run.
                        start: self.clock.clone(),
                        end: None,
                        from: self.pos,
                        vel: Vec2::ZERO,
                    });
                }
                Some(instr) if instr.is_empty() => continue,
                Some(Instr::Wait { dur }) => (dur, None),
                Some(Instr::Go { dir, dist }) => {
                    let unit = self.dirs.unit(&dir);
                    (dist, Some(unit))
                }
            };
            // May widen the grid, rescaling the clock: take ticks first.
            let ticks = self.ticks_for(&local);
            let end = &self.clock + &ticks;
            let start = std::mem::replace(&mut self.clock, end);
            let from = self.pos;
            let vel = match unit {
                None => Vec2::ZERO,
                Some(unit) => {
                    self.pos = from + unit * (local.to_f64() * self.unit_len_f64);
                    unit * self.speed_f64
                }
            };
            return Some(Segment {
                start,
                // rv-lint: allow(hot) — irreducible: the segment end and
                // the running clock are two owners of one value; on the
                // inline-i128 path this clone is a memcpy.
                end: Some(self.clock.clone()),
                from,
                vel,
            });
        }
    }
}

impl<P: Iterator<Item = Instr>> Iterator for Motion<P> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        let seg = self.advance()?;
        // Segments are contiguous, so only the end needs reducing.
        let start = match self.view_clock.take() {
            Some(start) => start,
            None => self.grid.to_ratio(seg.start),
        };
        let end = seg.end.map(|end| self.grid.to_ratio(end));
        // rv-lint: allow(hot) — the public view owns each yielded end and
        // keeps it as the next start; a memcpy on the inline path.
        self.view_clock = end.clone();
        Some(Segment {
            start,
            end,
            from: seg.from,
            vel: seg.vel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_geometry::Compass;
    use rv_numeric::ratio;

    fn attrs_b() -> AgentAttrs {
        AgentAttrs {
            origin: Vec2::new(10.0, 0.0),
            phi: Angle::zero(),
            chi: Chirality::Plus,
            tau: ratio(2, 1),
            speed: ratio(3, 1),
            wake: ratio(5, 1),
        }
    }

    #[test]
    fn unit_len_is_tau_v() {
        assert_eq!(attrs_b().unit_len(), ratio(6, 1));
        assert_eq!(AgentAttrs::reference().unit_len(), Ratio::one());
    }

    #[test]
    fn wake_segment_comes_first() {
        let prog = vec![Instr::go(Compass::East, ratio(1, 1))];
        let mut m = Motion::new(attrs_b(), prog.into_iter());
        let s0 = m.next().unwrap();
        assert_eq!(s0.start, Ratio::zero());
        assert_eq!(s0.end, Some(ratio(5, 1)));
        assert!(s0.is_stationary());
        assert_eq!(s0.from, Vec2::new(10.0, 0.0));
    }

    #[test]
    fn go_scales_by_unit_and_clock() {
        // go(E, 1) with τ=2, v=3: absolute displacement 6 east, duration 2.
        let prog = vec![Instr::go(Compass::East, ratio(1, 1))];
        let mut m = Motion::new(attrs_b(), prog.into_iter());
        let _wake = m.next().unwrap();
        let s = m.next().unwrap();
        assert_eq!(s.start, ratio(5, 1));
        assert_eq!(s.end, Some(ratio(7, 1)));
        assert_eq!(s.from, Vec2::new(10.0, 0.0));
        assert_eq!(s.vel, Vec2::new(3.0, 0.0));
        // Final halt segment starts at the end position.
        let halt = m.next().unwrap();
        assert_eq!(halt.from, Vec2::new(16.0, 0.0));
        assert_eq!(halt.end, None);
        assert!(m.next().is_none());
    }

    #[test]
    fn wait_scales_by_clock_only() {
        let prog = vec![Instr::wait(ratio(4, 1))];
        let mut m = Motion::new(attrs_b(), prog.into_iter());
        let _wake = m.next().unwrap();
        let s = m.next().unwrap();
        assert_eq!(s.start, ratio(5, 1));
        assert_eq!(s.end, Some(ratio(13, 1))); // 5 + 4·2
        assert!(s.is_stationary());
    }

    #[test]
    fn chirality_flips_north() {
        let mut attrs = attrs_b();
        attrs.chi = Chirality::Minus;
        attrs.wake = Ratio::zero();
        let prog = vec![Instr::go(Compass::North, ratio(1, 1))];
        let mut m = Motion::new(attrs, prog.into_iter());
        let s = m.next().unwrap();
        // χ=−1, φ=0: local North maps to absolute South.
        assert_eq!(s.vel, Vec2::new(0.0, -3.0));
    }

    #[test]
    fn rotation_maps_east_to_phi() {
        let mut attrs = AgentAttrs::reference();
        attrs.phi = Angle::quarter();
        let prog = vec![Instr::go(Compass::East, ratio(2, 1))];
        let mut m = Motion::new(attrs, prog.into_iter());
        let s = m.next().unwrap();
        assert_eq!(s.vel, Vec2::new(0.0, 1.0));
        let halt = m.next().unwrap();
        assert_eq!(halt.from, Vec2::new(0.0, 2.0));
    }

    #[test]
    fn segments_are_contiguous_and_exact() {
        let prog = vec![
            Instr::go(Compass::East, ratio(1, 3)),
            Instr::wait(ratio(1, 7)),
            Instr::go(Compass::North, ratio(2, 5)),
        ];
        let attrs = AgentAttrs {
            tau: ratio(3, 2),
            ..AgentAttrs::reference()
        };
        let segs: Vec<_> = Motion::new(attrs, prog.into_iter()).collect();
        assert_eq!(segs.len(), 4); // 3 instructions + halt
        for w in segs.windows(2) {
            assert_eq!(w[0].end.as_ref(), Some(&w[1].start));
        }
        // Total elapsed: (1/3 + 1/7 + 2/5)·3/2
        let expected = &(&(&ratio(1, 3) + &ratio(1, 7)) + &ratio(2, 5)) * &ratio(3, 2);
        assert_eq!(segs[3].start, expected);
    }

    #[test]
    fn giant_wait_keeps_exact_schedule() {
        // wait(2^200) then go: the move must start at exactly 2^200·τ.
        let prog = vec![
            Instr::wait(Ratio::pow2(200)),
            Instr::go(Compass::East, ratio(1, 1)),
        ];
        let segs: Vec<_> = Motion::new(AgentAttrs::reference(), prog.into_iter()).collect();
        assert_eq!(segs[1].start, Ratio::pow2(200));
        assert_eq!(segs[1].end, Some(&Ratio::pow2(200) + &Ratio::one()));
        // Position unaffected by the wait.
        assert_eq!(segs[1].from, Vec2::ZERO);
    }

    #[test]
    fn pos_at_offset_no_nan_on_infinite_wait() {
        let s = Segment {
            start: Ratio::zero(),
            end: None,
            from: Vec2::new(1.0, 2.0),
            vel: Vec2::ZERO,
        };
        let p = s.pos_at_offset(f64::INFINITY);
        assert!(p.is_finite());
        assert_eq!(p, Vec2::new(1.0, 2.0));
    }

    #[test]
    fn empty_program_halts_at_origin() {
        let segs: Vec<_> = Motion::new(AgentAttrs::reference(), std::iter::empty()).collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].end, None);
        assert_eq!(segs[0].from, Vec2::ZERO);
    }

    #[test]
    fn span_f64_matches_reduced_ratio_bytes() {
        let grid = TickGrid::covering([&ratio(1, 80), &ratio(3, 7)]);
        assert_eq!(grid.den, Int::from(560));
        let huge = Int::pow2(140);
        let cases = [
            (Int::ZERO, Int::from(1)),
            (Int::from(3), Int::from(1_000_003)),
            (Int::from(-5), Int::from(1i64 << 53)),
            (Int::ZERO, Int::from(1i128 << 60)),
            (huge.clone(), &huge + &Int::from(17)),
        ];
        for (from, to) in cases {
            let exact = Ratio::new(&to - &from, grid.den.clone()).to_f64();
            assert_eq!(grid.span_f64(&from, &to).to_bits(), exact.to_bits());
        }
        // A grid past 2^53 takes the reducing path, with the same bytes.
        let wide = TickGrid::covering([&Ratio::pow2(-60), &ratio(1, 3)]);
        let t = Int::from(12_345_678_901i64);
        assert_eq!(
            wide.to_f64(&t).to_bits(),
            Ratio::new(t.clone(), wide.den.clone()).to_f64().to_bits()
        );
    }

    #[test]
    fn off_grid_durations_widen_and_stay_exact() {
        // τ = 2 starts on the integer grid; 1/3 and 2^-70 widen it.
        let prog = vec![
            Instr::go(Compass::East, ratio(1, 3)),
            Instr::wait(Ratio::pow2(-70)),
            Instr::wait(Ratio::pow2(140)),
            Instr::go(Compass::North, ratio(5, 4)),
        ];
        let attrs = AgentAttrs {
            tau: ratio(2, 1),
            ..AgentAttrs::reference()
        };
        let mut m = Motion::new(attrs, prog.clone().into_iter());
        assert_eq!(m.grid().den, Int::ONE);
        let _ = m.step();
        assert_eq!(m.grid().den, Int::from(3));
        let segs: Vec<_> = Motion::new(attrs_b(), prog.into_iter()).collect();
        let mut clock = ratio(5, 1);
        for (seg, local) in
            segs[1..]
                .iter()
                .zip([ratio(1, 3), Ratio::pow2(-70), Ratio::pow2(140), ratio(5, 4)])
        {
            assert_eq!(seg.start, clock);
            clock = &clock + &(&local * &ratio(2, 1));
            assert_eq!(seg.end.as_ref(), Some(&clock));
        }
    }

    #[test]
    fn widen_rescales_the_live_clock() {
        let prog = vec![Instr::wait(ratio(1, 1)), Instr::wait(ratio(1, 1))];
        let mut m = Motion::new(AgentAttrs::reference(), prog.into_iter());
        let first = m.step().unwrap();
        assert_eq!(first.end, Some(Int::from(1)));
        m.widen(&Int::from(6));
        let second = m.step().unwrap();
        assert_eq!(
            (second.start, second.end),
            (Int::from(6), Some(Int::from(12)))
        );
        assert_eq!(m.grid().to_ratio(Int::from(12)), ratio(2, 1));
    }

    #[test]
    fn repeated_directions_hit_the_table_with_identical_vectors() {
        let mut attrs = AgentAttrs::reference();
        attrs.phi = Angle::pi_frac(3, 8);
        attrs.chi = Chirality::Minus;
        let orientation = attrs.orientation();
        let dirs: Vec<Angle> = (0..600).map(|k| Angle::pi_frac(k % 37, 16)).collect();
        let mut table = DirTable::new(orientation.clone());
        for dir in dirs.iter().chain(dirs.iter()) {
            let want = orientation.to_absolute(dir).unit();
            let got = table.unit(dir);
            assert_eq!(
                (got.x.to_bits(), got.y.to_bits()),
                (want.x.to_bits(), want.y.to_bits())
            );
        }
    }

    #[test]
    fn validate_rejects_bad_attrs() {
        let mut a = AgentAttrs::reference();
        a.tau = Ratio::zero();
        assert!(a.validate().is_err());
        let mut b = AgentAttrs::reference();
        b.speed = ratio(-1, 1);
        assert!(b.validate().is_err());
        let mut c = AgentAttrs::reference();
        c.wake = ratio(-1, 1);
        assert!(c.validate().is_err());
        assert!(AgentAttrs::reference().validate().is_ok());
    }
}
