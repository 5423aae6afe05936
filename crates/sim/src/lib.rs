//! # rv-sim — exact event-driven continuous-time simulator
//!
//! Simulates two mobile agents in the plane until they come within the
//! visibility radius ("rendezvous") or a budget runs out. Motions are
//! merged on **exact event times** — integer ticks of a per-run grid,
//! canonical rationals at the exits — with no time step; within each
//! interval the first radius crossing is found in closed form from the
//! quadratic distance function. Supports per-agent radii (the Section 5
//! extension), stop-on-sight freezing, distance traces for figures, and
//! time/segment budgets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod outcome;

pub use config::{BudgetReason, SimConfig};
pub use engine::simulate;
pub use outcome::{Meeting, Outcome, SimReport, SimTime, TraceSample};
