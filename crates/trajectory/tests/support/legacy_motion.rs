//! Test-only reference: the kinematic compiler as it was before the tick
//! core, with every event time a canonical `Ratio` computed per segment
//! (`clock + dur·τ`) and every direction composed per segment
//! (`orientation.to_absolute(θ).unit()`). The differential suites run it
//! side by side with `rv_trajectory::Motion` and require equal times and
//! bit-equal positions and velocities.

use rv_geometry::{Orientation, Vec2};
use rv_numeric::Ratio;
use rv_trajectory::{AgentAttrs, Instr, Segment};

pub struct LegacyMotion<P> {
    program: P,
    attrs: AgentAttrs,
    orientation: Orientation,
    unit_len_f64: f64,
    speed_f64: f64,
    clock: Ratio,
    pos: Vec2,
    halted: bool,
    emitted_wake: bool,
}

impl<P: Iterator<Item = Instr>> LegacyMotion<P> {
    pub fn new(attrs: AgentAttrs, program: P) -> LegacyMotion<P> {
        LegacyMotion {
            program,
            orientation: attrs.orientation(),
            unit_len_f64: attrs.unit_len().to_f64(),
            speed_f64: attrs.speed.to_f64(),
            clock: attrs.wake.clone(),
            pos: attrs.origin,
            attrs,
            halted: false,
            emitted_wake: false,
        }
    }
}

impl<P: Iterator<Item = Instr>> Iterator for LegacyMotion<P> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if self.halted {
            return None;
        }
        if !self.emitted_wake {
            self.emitted_wake = true;
            if self.attrs.wake.is_positive() {
                return Some(Segment {
                    start: Ratio::zero(),
                    end: Some(self.attrs.wake.clone()),
                    from: self.attrs.origin,
                    vel: Vec2::ZERO,
                });
            }
        }
        loop {
            match self.program.next() {
                None => {
                    self.halted = true;
                    return Some(Segment {
                        start: self.clock.clone(),
                        end: None,
                        from: self.pos,
                        vel: Vec2::ZERO,
                    });
                }
                Some(instr) if instr.is_empty() => continue,
                Some(Instr::Wait { dur }) => {
                    let end = &self.clock + &(&dur * &self.attrs.tau);
                    let start = std::mem::replace(&mut self.clock, end);
                    return Some(Segment {
                        start,
                        end: Some(self.clock.clone()),
                        from: self.pos,
                        vel: Vec2::ZERO,
                    });
                }
                Some(Instr::Go { dir, dist }) => {
                    let unit = self.orientation.to_absolute(&dir).unit();
                    let abs_len = dist.to_f64() * self.unit_len_f64;
                    let end = &self.clock + &(&dist * &self.attrs.tau);
                    let start = std::mem::replace(&mut self.clock, end);
                    let from = self.pos;
                    self.pos = from + unit * abs_len;
                    return Some(Segment {
                        start,
                        end: Some(self.clock.clone()),
                        from,
                        vel: unit * self.speed_f64,
                    });
                }
            }
        }
    }
}
