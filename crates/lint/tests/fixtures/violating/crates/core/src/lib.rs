//! Violating fixture: the core-shaped root still carrying the old
//! deny + `parallel` allow split. rv-core has no unsafe module, so its
//! root must carry the blanket forbid.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod parallel;
pub mod wire;
